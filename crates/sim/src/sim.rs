//! The discrete-event simulation executive.
//!
//! [`Simulation`] owns a calendar of timestamped events and executes them in
//! strict `(time, insertion-sequence)` order, which makes every run with the
//! same seed and the same schedule calls bit-identical. All stochastic
//! behaviour in the workspace (network latency, dispatch jitter, clock skew)
//! is injected *through* events and [`SimRng`](crate::SimRng) streams, so
//! nondeterminism of the modelled system is explicit and replayable — the
//! property that lets us reproduce the paper's Figure 5 error distributions
//! without the original two-board hardware setup.

use crate::rng::SimRng;
use crate::slots::Slots;
use crate::trace::Trace;
use dear_observe::Observe;
use dear_time::{Duration, Instant};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A boxed event: the escape hatch for one-off and cold-path events.
type EventFn = Box<dyn FnOnce(&mut Simulation)>;

/// Something the calendar fires by key.
///
/// A component registers once ([`Simulation::register_component`]) and
/// gets a key; from then on its events are plain data — `(time, key,
/// token)` via [`Simulation::schedule_fire`] — and firing one hands the
/// token back. What a token means (a wake generation, a slot in the
/// component's own table) is the component's business.
pub trait Component {
    /// Runs the event scheduled with `token`.
    fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32);
}

/// The key of a boxed event: its token is the closure's slot.
const BOXED: u32 = u32::MAX;

/// One calendar entry: when, in which order, and what to fire.
struct CalEntry {
    at: Instant,
    seq: u64,
    key: u32,
    token: u32,
}

const _: () = assert!(std::mem::size_of::<CalEntry>() == 24);

impl PartialEq for CalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for CalEntry {}
impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we need earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Distinguishes simulations, so a component that registers lazily can
/// tell whether its key belongs to the simulation at hand.
static NEXT_SIM_ID: AtomicU64 = AtomicU64::new(0);

/// Statistics about an executed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Number of events executed so far.
    pub executed_events: u64,
    /// Number of events currently pending in the calendar.
    pub(crate) pending_events: usize,
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "executed={} pending={}",
            self.executed_events, self.pending_events
        )
    }
}

/// A seeded discrete-event simulation.
///
/// The calendar holds plain data: each entry is a time, an insertion
/// sequence number, a component key and a 32-bit token (24 bytes). Hot
/// components — a network's frame deliveries, a platform's wake-ups and
/// outbox drains — implement [`Component`], register once, and schedule
/// `(key, token)` pairs with [`schedule_fire`](Self::schedule_fire); the
/// token names what to do (a slot of frames in flight, a wake
/// generation), so scheduling one allocates nothing.
///
/// [`schedule_at`](Self::schedule_at) and
/// [`schedule_in`](Self::schedule_in) take a closure instead: the escape
/// hatch for one-off and cold-path events. The closure waits in a
/// chunked slot table and its entry carries a reserved key plus the
/// slot. Both kinds share one sequence counter, so events at equal times
/// run in insertion order whichever kind they are.
///
/// # Examples
///
/// ```
/// use dear_sim::Simulation;
/// use dear_time::{Duration, Instant};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(42);
/// let hits = Rc::new(RefCell::new(Vec::new()));
///
/// let h = hits.clone();
/// sim.schedule_in(Duration::from_millis(2), move |sim| {
///     h.borrow_mut().push(sim.now());
/// });
/// let h = hits.clone();
/// sim.schedule_in(Duration::from_millis(1), move |sim| {
///     h.borrow_mut().push(sim.now());
/// });
///
/// sim.run_to_completion();
/// assert_eq!(*hits.borrow(), vec![Instant::from_millis(1), Instant::from_millis(2)]);
/// ```
pub struct Simulation {
    now: Instant,
    calendar: BinaryHeap<CalEntry>,
    seq: u64,
    /// Registered components, indexed by key.
    components: Vec<Rc<dyn Component>>,
    /// Closures of pending boxed events, indexed by token.
    boxed: Slots<EventFn>,
    id: u64,
    master_seed: u64,
    rng_root: SimRng,
    trace: Trace,
    observe: Observe,
    executed: u64,
    stop_requested: bool,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.calendar.len())
            .field("executed", &self.executed)
            .field("master_seed", &self.master_seed)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation at `t = 0` with the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Simulation {
            now: Instant::EPOCH,
            calendar: BinaryHeap::new(),
            seq: 0,
            components: Vec::new(),
            boxed: Slots::default(),
            id: NEXT_SIM_ID.fetch_add(1, AtomicOrdering::Relaxed),
            master_seed,
            rng_root: SimRng::seed_from_u64(master_seed),
            trace: Trace::disabled(),
            observe: Observe::disabled(),
            executed: 0,
            stop_requested: false,
        }
    }

    /// The current virtual time ("true time" of the modelled world).
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Derives a named, reproducible RNG stream from the master seed.
    ///
    /// Streams with different labels are statistically independent; the
    /// same label always yields the same stream for a given master seed.
    #[must_use]
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.rng_root.fork(label)
    }

    /// Registers a component and returns its key for
    /// [`schedule_fire`](Self::schedule_fire).
    pub fn register_component(&mut self, component: Rc<dyn Component>) -> u32 {
        let key = u32::try_from(self.components.len())
            .ok()
            .filter(|&k| k != BOXED)
            .expect("too many components");
        self.components.push(component);
        key
    }

    /// Schedules the component registered as `key` to fire with `token`
    /// at the absolute virtual time `at`. Allocates nothing.
    ///
    /// Events scheduled for the current instant run after the currently
    /// executing event returns (FIFO among equal times, boxed events
    /// included).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_fire(&mut self, at: Instant, key: u32, token: u32) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(CalEntry {
            at,
            seq,
            key,
            token,
        });
    }

    /// Schedules `event` at the absolute virtual time `at`.
    ///
    /// Events scheduled for the current instant run after the currently
    /// executing event returns (FIFO among equal times).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Instant, event: impl FnOnce(&mut Simulation) + 'static) {
        let slot = self.boxed.insert(Box::new(event));
        self.schedule_fire(at, BOXED, slot);
    }

    /// Schedules `event` after the given non-negative delay.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    pub fn schedule_in(&mut self, delay: Duration, event: impl FnOnce(&mut Simulation) + 'static) {
        assert!(!delay.is_negative(), "delay must be non-negative: {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// The time of the earliest pending event, if any.
    #[must_use]
    pub(crate) fn next_event_time(&self) -> Option<Instant> {
        self.calendar.peek().map(|e| e.at)
    }

    /// Executes the earliest pending event; returns `false` if none remain.
    pub fn step(&mut self) -> bool {
        match self.calendar.pop() {
            Some(entry) => {
                debug_assert!(entry.at >= self.now, "calendar went backwards");
                self.now = entry.at;
                self.executed += 1;
                if entry.key == BOXED {
                    (self.boxed.remove(entry.token))(self);
                } else {
                    let component = Rc::clone(&self.components[entry.key as usize]);
                    component.fire(self, entry.token);
                }
                true
            }
            None => false,
        }
    }

    /// Runs until the calendar is empty or a stop is requested.
    ///
    /// Returns the number of events executed by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        let before = self.executed;
        while !self.stop_requested && self.step() {}
        self.stop_requested = false;
        self.executed - before
    }

    /// Runs all events with `time <= until`, then advances `now` to `until`.
    ///
    /// Returns the number of events executed by this call.
    pub fn run_until(&mut self, until: Instant) -> u64 {
        let before = self.executed;
        while !self.stop_requested {
            match self.next_event_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        self.stop_requested = false;
        if self.now < until {
            self.now = until;
        }
        self.executed - before
    }

    /// Runs at most `max_events` events.
    ///
    /// Returns the number of events executed (less than `max_events` if the
    /// calendar drained first).
    #[cfg(test)]
    pub(crate) fn run_events(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && !self.stop_requested && self.step() {
            n += 1;
        }
        self.stop_requested = false;
        n
    }

    /// Requests that the current `run_*` call return after the current event.
    #[cfg(test)]
    pub(crate) fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// This simulation's identity, unique within the process.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        SimStats {
            executed_events: self.executed,
            pending_events: self.calendar.len(),
        }
    }

    /// Enables trace recording (disabled by default for speed).
    pub fn enable_tracing(&mut self) {
        self.trace.set_enabled(true);
    }

    /// Turns on telemetry collection (metrics + timeline spans) and
    /// returns the shared [`Observe`] handle.
    ///
    /// Disabled by default: every instrumentation site then costs one
    /// branch and allocates nothing. Components capture the handle and
    /// resolve their metric slots in it when they start (a coordinated
    /// platform at `start`; a coordinator on its first round with
    /// telemetry on), so enable observability **before** driving the
    /// simulation. Calling this twice returns the same handle, so slots
    /// resolved in it stay valid.
    pub fn enable_observability(&mut self) -> Observe {
        if !self.observe.is_enabled() {
            self.observe = Observe::enabled();
        }
        self.observe.clone()
    }

    /// The telemetry handle (disabled unless
    /// [`Simulation::enable_observability`] was called).
    #[must_use]
    pub fn observe(&self) -> &Observe {
        &self.observe
    }

    /// Records a trace event at the current virtual time.
    ///
    /// The detail argument is built eagerly; in hot loops prefer
    /// [`Simulation::trace_with`], which skips detail construction entirely
    /// while tracing is disabled.
    #[cfg(test)]
    pub(crate) fn trace(&mut self, category: &'static str, detail: impl Into<String>) {
        let now = self.now;
        self.trace.record(now, category, detail);
    }

    /// Records a trace event at the current virtual time, building the
    /// detail line lazily (no formatting or allocation when tracing is
    /// disabled).
    pub fn trace_with(&mut self, category: &'static str, detail: impl FnOnce() -> String) {
        let now = self.now;
        self.trace.record_with(now, category, detail);
    }

    /// Read access to the recorded trace.
    #[must_use]
    pub fn trace_log(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> Trace {
        let replacement = if self.trace.is_enabled() {
            Trace::new()
        } else {
            Trace::disabled()
        };
        std::mem::replace(&mut self.trace, replacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_execute_in_time_order() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = order.clone();
            sim.schedule_at(Instant::from_millis(ms), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), Instant::from_millis(30));
    }

    /// Records every token it fires with, in firing order.
    struct Recorder(RefCell<Vec<u32>>);

    impl Component for Recorder {
        fn fire(self: Rc<Self>, _sim: &mut Simulation, token: u32) {
            self.0.borrow_mut().push(token);
        }
    }

    #[test]
    fn equal_times_execute_fifo() {
        // Boxed and keyed events interleaved at one instant run in
        // insertion order, whichever kind they are.
        let mut sim = Simulation::new(0);
        let recorder = Rc::new(Recorder(RefCell::new(Vec::new())));
        let key = sim.register_component(recorder.clone());
        let at = Instant::from_millis(5);
        for token in 0..6u32 {
            if token % 2 == 0 {
                let recorder = recorder.clone();
                sim.schedule_at(at, move |_| recorder.0.borrow_mut().push(token));
            } else {
                sim.schedule_fire(at, key, token);
            }
        }
        // An earlier keyed event still runs first.
        sim.schedule_fire(Instant::from_millis(4), key, 99);
        sim.run_to_completion();
        assert_eq!(*recorder.0.borrow(), vec![99, 0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.boxed.len(), 0, "every boxed closure was consumed");
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0);
        let count = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Simulation, count: Rc<RefCell<u32>>, remaining: u32) {
            *count.borrow_mut() += 1;
            if remaining > 0 {
                sim.schedule_in(Duration::from_millis(1), move |sim| {
                    tick(sim, count, remaining - 1)
                });
            }
        }
        let c = count.clone();
        sim.schedule_at(Instant::EPOCH, move |sim| tick(sim, c, 9));
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.now(), Instant::from_millis(9));
    }

    #[test]
    fn run_until_advances_time_even_without_events() {
        let mut sim = Simulation::new(0);
        sim.run_until(Instant::from_secs(5));
        assert_eq!(sim.now(), Instant::from_secs(5));
    }

    #[test]
    fn run_until_leaves_later_events_pending() {
        let mut sim = Simulation::new(0);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_at(Instant::from_secs(10), move |_| *f.borrow_mut() = true);
        sim.run_until(Instant::from_secs(5));
        assert!(!*fired.borrow());
        assert_eq!(sim.stats().pending_events, 1);
        sim.run_until(Instant::from_secs(10));
        assert!(*fired.borrow());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(0);
        sim.schedule_at(Instant::from_secs(1), |sim| {
            sim.schedule_at(Instant::EPOCH, |_| {});
        });
        sim.run_to_completion();
    }

    #[test]
    fn request_stop_halts_run() {
        let mut sim = Simulation::new(0);
        let count = Rc::new(RefCell::new(0));
        for i in 0..10u64 {
            let count = count.clone();
            sim.schedule_at(Instant::from_millis(i), move |sim| {
                *count.borrow_mut() += 1;
                if i == 4 {
                    sim.request_stop();
                }
            });
        }
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 5);
        // A subsequent run resumes.
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn run_events_bounds_execution() {
        let mut sim = Simulation::new(0);
        for i in 0..10u64 {
            sim.schedule_at(Instant::from_millis(i), |_| {});
        }
        assert_eq!(sim.run_events(3), 3);
        assert_eq!(sim.stats().pending_events, 7);
        assert_eq!(sim.run_events(100), 7);
    }

    #[test]
    fn forked_rng_reproducible_across_sims() {
        let sim_a = Simulation::new(7);
        let sim_b = Simulation::new(7);
        let mut ra = sim_a.fork_rng("net");
        let mut rb = sim_b.fork_rng("net");
        assert_eq!(ra.next_u64(), rb.next_u64());
        let mut rc = sim_a.fork_rng("other");
        assert_ne!(ra.next_u64(), rc.next_u64());
    }

    #[test]
    fn trace_with_skips_detail_construction_when_disabled() {
        let mut sim = Simulation::new(0);
        // Tracing off (the default): the closure must never run.
        sim.trace_with("evt", || {
            unreachable!("detail built despite disabled trace")
        });
        assert!(sim.trace_log().is_empty());
        sim.enable_tracing();
        sim.trace_with("evt", || format!("n={}", 7));
        assert_eq!(sim.trace_log().len(), 1);
    }

    #[test]
    fn tracing_records_at_current_time() {
        let mut sim = Simulation::new(0);
        sim.enable_tracing();
        sim.schedule_at(Instant::from_millis(3), |sim| {
            sim.trace("test", "hello");
        });
        sim.run_to_completion();
        let trace = sim.trace_log();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.iter().next().unwrap().at, Instant::from_millis(3));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn run(seed: u64) -> u64 {
            let mut sim = Simulation::new(seed);
            sim.enable_tracing();
            let mut rng = sim.fork_rng("jitter");
            for i in 0..100u64 {
                let d = rng.uniform_duration(Duration::ZERO, Duration::from_millis(10));
                sim.schedule_in(d * (i as i64 + 1), move |sim| {
                    sim.trace_with("evt", || format!("event {i}"));
                });
            }
            sim.run_to_completion();
            sim.trace_log().fingerprint()
        }
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
