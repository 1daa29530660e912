//! The reactor runtime: event queue, tag processing, and reaction
//! execution in APG level order.
//!
//! [`Runtime`] consumes a validated [`Program`] and processes tags in
//! strictly increasing order. At each tag, triggered reactions execute one
//! at a time, level by level and in reaction-id order within a level;
//! each reaction's writes and schedules are committed as soon as it
//! returns.
//!
//! The runtime is *poll-driven*: a driver decides **when** to call
//! [`Runtime::step`], passing the physical clock reading it observed. This
//! one design choice lets the identical runtime run under
//!
//! * the discrete-event platform simulator (the federated driver in
//!   `dear-transactors` schedules `step` calls at the simulated instant at
//!   which the platform's local clock passes the tag), and
//! * "fast mode" for tests ([`Runtime::step_fast`], no waiting at all).
//!
//! Port and action values live in typed slots that are allocated once and
//! recycled: a commit swaps a reaction's staging slot with the port's, the
//! end of a tag empties each written port's slot in place, and a physical
//! action keeps its emptied slots on a free list for the next injection.
//! Values are still dropped when overwritten or at the end of their tag.
//! Reactor states, port values and reaction closures may hold `Rc`s: the
//! runtime never moves them to another executor.

use crate::context::{ActionSlots, PortSlot, ReactionCtx, ReactionOutcome};
use crate::error::RuntimeError;
use crate::handles::{ActionId, PhysicalAction, PortId, ReactionId, ReactorId};
use crate::program::{ActionKind, Program, ReactionMeta, Value};
use crate::queue::{Event, EventQueue};
use crate::tag::Tag;
use dear_arena::TypedArena;
use dear_observe::{CounterId, EventKind, HistogramId, Lane, Observe};
use dear_sim::Trace;
use dear_time::{Duration, Instant};
use std::any::Any;
use std::rc::Rc;

/// Counters describing a runtime's activity so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Tags fully processed.
    pub processed_tags: u64,
    /// Reaction bodies (or deadline handlers) executed.
    pub executed_reactions: u64,
    /// Deadline violations observed.
    pub deadline_misses: u64,
    /// Safe-to-process violations rejected at injection.
    pub stp_violations: u64,
    /// Steps deferred because the earliest pending tag lay at or beyond
    /// the externally granted tag bound (centralized coordination).
    pub bound_deferrals: u64,
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tags={} reactions={} deadline_misses={} stp_violations={} bound_deferrals={}",
            self.processed_tags,
            self.executed_reactions,
            self.deadline_misses,
            self.stp_violations,
            self.bound_deferrals
        )
    }
}

/// Result of one [`Runtime::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A tag was processed.
    Processed(TagSummary),
    /// No pending events; the runtime is alive and waiting.
    Idle,
    /// The runtime has shut down.
    Stopped,
}

/// Summary of one processed tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagSummary {
    /// The processed tag.
    pub tag: Tag,
    /// Reactions executed at this tag.
    pub(crate) reactions: u32,
    /// Deadline misses at this tag.
    pub(crate) deadline_misses: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Created,
    Running,
    Stopped,
}

/// The reactor runtime.
///
/// # Examples
///
/// ```
/// use dear_core::{ProgramBuilder, Runtime, Startup};
/// use dear_time::Instant;
///
/// let mut b = ProgramBuilder::new();
/// let mut r = b.reactor("hello", 0u32);
/// r.reaction("greet")
///     .triggered_by(Startup)
///     .body(|count: &mut u32, _ctx| *count += 1);
/// r.finish();
///
/// let mut rt = Runtime::new(b.build()?);
/// rt.start(Instant::EPOCH);
/// rt.run_fast(u64::MAX);
/// assert_eq!(rt.stats().executed_reactions, 1);
/// # Ok::<(), dear_core::AssemblyError>(())
/// ```
pub struct Runtime {
    program: Program,
    /// Reactor states, taken out of `program`.
    states: TypedArena<ReactorId, Box<dyn Any>>,
    /// Each port's value slot (a connected input reads its source's).
    port_values: TypedArena<PortId, PortSlot>,
    /// Each action's current, pending and spare value slots.
    action_values: TypedArena<ActionId, ActionSlots>,
    queue: EventQueue,
    tag_bound: Option<Tag>,
    last_processed: Option<Tag>,
    phase: Phase,
    trace: Trace,
    /// Enabled telemetry, if attached (off by default: every record is
    /// one branch).
    telemetry: Option<Box<Telemetry>>,
    /// Interned reaction names for typed trace records; built once when
    /// tracing is enabled so the traced hot path clones an `Rc` instead
    /// of formatting a `String` per event.
    reaction_names: TypedArena<ReactionId, Rc<str>>,
    stats: RuntimeStats,
    executed_log: Vec<ReactionId>,
    /// Reactions ready at the current tag, bucketed by APG level. Cleared
    /// (capacity retained) every tag, so triggering is allocation-free in
    /// steady state.
    ready_levels: Vec<Vec<ReactionId>>,
    /// Scratch buffer for the current same-level batch (reused).
    scratch_batch: Vec<ReactionId>,
    /// Each reaction's buffered effects and staging slots. Empty when no
    /// reaction declares an effect or a schedule (a timer-only program
    /// buffers nothing, so it allocates nothing for it).
    outcomes: TypedArena<ReactionId, ReactionOutcome>,
    /// Scratch list of ports written at the current tag (reused).
    written: Vec<PortId>,
}

/// An enabled telemetry handle with the lane this runtime's spans are
/// drawn on and its metric slots in the handle, resolved once. Boxed
/// and absent while telemetry is off, so a runtime without it stores
/// one pointer.
struct Telemetry {
    observe: Observe,
    lane: Lane,
    tags: CounterId,
    reactions: CounterId,
    deadline_misses: CounterId,
    stp_violations: CounterId,
    bound_deferrals: CounterId,
    tag_lag: HistogramId,
}

impl Telemetry {
    fn resolve(observe: Observe, lane: Lane) -> Self {
        Telemetry {
            tags: observe.register_counter("runtime/tags"),
            reactions: observe.register_counter("runtime/reactions"),
            deadline_misses: observe.register_counter("runtime/deadline_misses"),
            stp_violations: observe.register_counter("runtime/stp_violations"),
            bound_deferrals: observe.register_counter("runtime/bound_deferrals"),
            tag_lag: observe.register_histogram("coord/tag_lag_ns"),
            observe,
            lane,
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("phase", &self.phase)
            .field("last_processed", &self.last_processed)
            .field("pending_events", &self.queue.pending_events())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime for the given program.
    #[must_use]
    pub fn new(mut program: Program) -> Self {
        let states = std::mem::take(&mut program.states);
        let port_values = TypedArena::from_fn(program.ports.len(), |_| PortSlot::default());
        let action_values = TypedArena::from_fn(program.actions.len(), |_| ActionSlots::default());
        let buffers = program
            .reactions
            .iter()
            .any(|r| !r.effects.is_empty() || !r.schedules.is_empty());
        let outcomes = if buffers {
            TypedArena::from_fn(program.reactions.len(), |_| ReactionOutcome::default())
        } else {
            TypedArena::new()
        };
        let num_levels = program
            .reactions
            .iter()
            .map(|r| r.level as usize + 1)
            .max()
            .unwrap_or(0);
        Runtime {
            program,
            states,
            port_values,
            action_values,
            queue: EventQueue::default(),
            tag_bound: None,
            last_processed: None,
            phase: Phase::Created,
            trace: Trace::disabled(),
            telemetry: None,
            reaction_names: TypedArena::new(),
            stats: RuntimeStats::default(),
            executed_log: Vec::new(),
            ready_levels: (0..num_levels).map(|_| Vec::new()).collect(),
            scratch_batch: Vec::new(),
            outcomes,
            written: Vec::new(),
        }
    }

    /// The reactions executed at the most recently processed tag, in
    /// execution order. Drivers use this to attribute modelled compute
    /// cost to the platform (see `dear-transactors`).
    #[must_use]
    pub fn executed_at_last_tag(&self) -> &[ReactionId] {
        &self.executed_log
    }

    /// Enables trace recording of reaction executions, deadline misses and
    /// STP violations (for determinism fingerprinting).
    pub fn enable_tracing(&mut self) {
        self.trace.set_enabled(true);
        self.intern_names();
    }

    /// Interns reaction names as `Rc<str>` so traced records share them.
    fn intern_names(&mut self) {
        if self.reaction_names.is_empty() {
            self.reaction_names = self
                .program
                .reactions
                .iter()
                .map(|r| Rc::from(r.name.as_str()))
                .collect();
        }
    }

    /// Attaches a telemetry handle and assigns this runtime's span lane.
    ///
    /// With an enabled handle the runtime counts tags / reactions /
    /// deadline misses into the `runtime/` metric scope, records the
    /// physical-vs-logical lag histogram under `coord/tag_lag_ns`, and
    /// draws one span per processed tag on `lane`. A disabled handle (the
    /// default) keeps the hot path zero-alloc — asserted by the root
    /// `hot_path_allocs` test.
    pub fn set_observe(&mut self, observe: Observe, lane: Lane) {
        self.telemetry = observe
            .is_enabled()
            .then(|| Box::new(Telemetry::resolve(observe, lane)));
    }

    /// The recorded trace.
    #[must_use]
    pub fn trace_log(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        let enabled = self.trace.is_enabled();
        let replacement = if enabled {
            Trace::new()
        } else {
            Trace::disabled()
        };
        std::mem::replace(&mut self.trace, replacement)
    }

    /// Runtime statistics.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The program this runtime executes.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Starts the runtime: logical time is anchored at `now` (the platform
    /// clock reading), startup reactions are enqueued at tag `(now, 0)`,
    /// and timers at their offsets relative to `now`.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was already started.
    pub fn start(&mut self, now: Instant) {
        assert_eq!(self.phase, Phase::Created, "runtime already started");
        self.phase = Phase::Running;
        let start_tag = Tag::at(now);
        if !self.program.startup.is_empty() {
            self.queue.push(start_tag, Event::Startup);
        }
        for (tid, timer) in self.program.timers.iter_enumerated() {
            let tag = Tag::at(now + timer.offset);
            self.queue.push(tag, Event::Timer(tid));
        }
    }

    /// Returns `true` while the runtime can still process tags.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// The earliest pending tag, if any.
    #[must_use]
    pub fn next_tag(&self) -> Option<Tag> {
        self.queue.peek_tag()
    }

    /// The most recently processed tag.
    #[must_use]
    pub fn current_tag(&self) -> Option<Tag> {
        self.last_processed
    }

    /// Grants an *exclusive* upper bound on tag processing: [`step`] only
    /// processes tags strictly before `bound`.
    ///
    /// This is the hook through which a centralized coordinator (an RTI)
    /// gates the runtime. Bounds are monotone — a grant below the current
    /// bound is ignored, so out-of-order grant delivery is harmless. A
    /// runtime without a bound (the default, and every decentralized
    /// driver) is unrestricted.
    ///
    /// [`step`]: Runtime::step
    pub fn set_tag_bound(&mut self, bound: Tag) {
        match self.tag_bound {
            Some(current) if bound <= current => {}
            _ => self.tag_bound = Some(bound),
        }
    }

    /// The currently granted exclusive tag bound, if any.
    #[must_use]
    pub fn tag_bound(&self) -> Option<Tag> {
        self.tag_bound
    }

    /// The earliest pending tag that lies within the granted bound, if any.
    ///
    /// Equals [`next_tag`](Runtime::next_tag) when no bound is set.
    #[must_use]
    pub fn next_releasable_tag(&self) -> Option<Tag> {
        let head = self.next_tag()?;
        match self.tag_bound {
            Some(bound) if head >= bound => None,
            _ => Some(head),
        }
    }

    /// Schedules a shutdown at the given time.
    ///
    /// The shutdown tag is final: shutdown reactions run at it, and any
    /// events with later tags are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotRunning`] if the runtime is not running,
    /// or an STP violation if `time` is not after the current tag.
    pub fn stop_at(&mut self, time: Instant) -> Result<(), RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        let tag = Tag::at(time);
        if let Some(last) = self.last_processed {
            if tag <= last {
                return Err(RuntimeError::StpViolation {
                    requested: tag,
                    current: last,
                });
            }
        }
        self.queue.push(tag, Event::Shutdown);
        Ok(())
    }

    /// Injects a physical action event with a tag derived from the given
    /// physical clock reading: `(now + min_delay, 0)`, bumped to the next
    /// microstep after the current tag if that lies in the logical past,
    /// then to the first microstep this action has no pending event at —
    /// so no two injections ever collide (a collision would silently
    /// overwrite the earlier value, the class of silent corruption §IV.B
    /// requires to be impossible).
    ///
    /// Returns the tag actually assigned.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotRunning`] outside the running phase.
    pub fn schedule_physical<T: 'static>(
        &mut self,
        action: &PhysicalAction<T>,
        value: T,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        let tag = self.next_physical_tag(action.id, now);
        let slot = self.action_slot(action, value);
        self.insert_action_event(action.id, tag, slot);
        Ok(tag)
    }

    /// Injects a physical action event at an exact tag, as the PTIDES-style
    /// transactors do with `t + D + L + E` (paper §III.B).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::StpViolation`] — and counts it — if `tag` is
    /// not strictly after the current tag: the configured bounds were
    /// violated, and instead of silently corrupting event order the fault
    /// becomes observable ("the reactor semantics ... translates any
    /// violation of one of the assumptions directly into observable
    /// errors", §IV.B). Returns [`RuntimeError::OccupiedTag`] if the action
    /// already has an event pending at `tag`; the pending value is kept.
    pub fn schedule_physical_at<T: 'static>(
        &mut self,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        debug_assert_eq!(
            self.program.actions[action.id].kind,
            ActionKind::Physical,
            "schedule_physical_at requires a physical action"
        );
        if let Some(last) = self.last_processed {
            if tag <= last {
                self.stats.stp_violations += 1;
                if let Some(t) = &self.telemetry {
                    t.observe.add(t.stp_violations, 1);
                }
                let name = &self.program.actions[action.id].name;
                self.trace
                    .record_event(tag.time, "stp-violation", || EventKind::StpViolation {
                        name: Rc::from(name.as_str()),
                        requested: tag.as_logical(),
                        current: last.as_logical(),
                    });
                return Err(RuntimeError::StpViolation {
                    requested: tag,
                    current: last,
                });
            }
        }
        if self.action_values[action.id].pending.contains_key(&tag) {
            return Err(RuntimeError::OccupiedTag { requested: tag });
        }
        let slot = self.action_slot(action, value);
        self.insert_action_event(action.id, tag, slot);
        Ok(())
    }

    /// A slot holding `value`: an emptied one from the action's free list,
    /// or a new one while every slot is pending.
    fn action_slot<T: 'static>(&mut self, action: &PhysicalAction<T>, value: T) -> Value {
        match self.action_values[action.id].free.pop() {
            Some(mut slot) => {
                *slot
                    .downcast_mut::<Option<T>>()
                    .expect("action value type mismatch") = Some(value);
                slot
            }
            None => Box::new(Some(value)),
        }
    }

    /// Computes the tag for a physical injection observed at `now`:
    /// `(now + min_delay, 0)`, bumped strictly past the current tag and
    /// then to the first microstep not already occupied by a pending
    /// event of this action.
    ///
    /// The occupancy scan is the lost-event guard: `action_pending` is
    /// keyed by tag, so two injections landing between two steps — which
    /// both used to bump to `(last, m+1)` — would have the second silently
    /// overwrite the first. Skipping exactly the occupied microsteps keeps
    /// every injection observable once *without* re-tagging it behind an
    /// unrelated event already pending at a later time (e.g. a tagged
    /// message released via [`schedule_physical_at`] in the future).
    ///
    /// [`schedule_physical_at`]: Runtime::schedule_physical_at
    fn next_physical_tag(&self, action: ActionId, now: Instant) -> Tag {
        let min_delay = self.program.actions[action].min_delay;
        let mut tag = Tag::at(now + min_delay);
        if let Some(last) = self.last_processed {
            if tag <= last {
                tag = last.delay(Duration::ZERO);
            }
        }
        let pending = &self.action_values[action].pending;
        while pending.contains_key(&tag) {
            tag = tag.delay(Duration::ZERO);
        }
        tag
    }

    fn insert_action_event(&mut self, action: ActionId, tag: Tag, value: Value) {
        self.action_values[action].pending.insert(tag, value);
        self.queue.push(tag, Event::Action(action));
    }

    /// Processes the earliest pending tag.
    ///
    /// `physical_now` is the driver's physical clock reading; it is used
    /// for deadline checks and exposed to reactions via
    /// [`ReactionCtx::physical_time`]. The runtime itself never waits —
    /// callers enforce the "no event is handled before physical time
    /// exceeds its tag" rule appropriate to their environment.
    pub fn step(&mut self, physical_now: Instant) -> StepOutcome {
        match self.phase {
            Phase::Created => panic!("Runtime::start must be called before step"),
            Phase::Stopped => return StepOutcome::Stopped,
            Phase::Running => {}
        }
        if let (Some(head), Some(bound)) = (self.next_tag(), self.tag_bound) {
            if head >= bound {
                self.stats.bound_deferrals += 1;
                if let Some(t) = &self.telemetry {
                    t.observe.add(t.bound_deferrals, 1);
                }
                return StepOutcome::Idle;
            }
        }
        let Some((tag, mut entry)) = self.queue.pop_tag() else {
            return StepOutcome::Idle;
        };
        debug_assert!(
            self.last_processed.is_none_or(|last| tag > last),
            "tags must be processed in increasing order"
        );
        self.last_processed = Some(tag);
        self.executed_log.clear();
        let stopping = entry.shutdown;

        // Collect triggered reactions into the per-level ready buckets
        // (reused across tags — no allocation in steady state).
        debug_assert!(self.ready_levels.iter().all(Vec::is_empty));
        entry.actions.sort_unstable();
        entry.actions.dedup();
        for &a in &entry.actions {
            let slots = &mut self.action_values[a];
            if let Some(v) = slots.pending.remove(&tag) {
                slots.current = Some(v);
            }
            for &r in &self.program.actions[a].triggered {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }
        for &t in &entry.timers {
            for &r in &self.program.timers[t].triggered {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
            if let Some(period) = self.program.timers[t].period {
                let next = Tag::at(tag.time + period);
                self.queue.push(next, Event::Timer(t));
            }
        }
        if entry.startup {
            for &r in &self.program.startup {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }
        if stopping {
            for &r in &self.program.shutdown {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }

        // Execute in level order, committing each reaction as soon as it
        // returns. Reactions can only ever enqueue work at *higher* levels
        // (the APG is acyclic), so one ascending sweep visits everything.
        let mut reactions_run = 0u32;
        let mut misses = 0u32;
        let mut shutdown_requested = false;
        for level in 0..self.ready_levels.len() {
            if self.ready_levels[level].is_empty() {
                continue;
            }
            let mut batch = std::mem::take(&mut self.scratch_batch);
            batch.append(&mut self.ready_levels[level]);
            batch.sort_unstable();
            batch.dedup();
            for &rid in &batch {
                let (missed, shutdown) = self.run_reaction(rid, tag, physical_now);
                reactions_run += 1;
                self.stats.executed_reactions += 1;
                self.executed_log.push(rid);
                let names = &self.reaction_names;
                if missed {
                    misses += 1;
                    self.stats.deadline_misses += 1;
                    self.trace.record_event(tag.time, "deadline-miss", || {
                        EventKind::DeadlineMiss {
                            name: names[rid].clone(),
                            tag: tag.as_logical(),
                        }
                    });
                } else {
                    self.trace
                        .record_event(tag.time, "reaction", || EventKind::Reaction {
                            name: names[rid].clone(),
                            tag: tag.as_logical(),
                        });
                }
                shutdown_requested |= shutdown;
                if !self.outcomes.is_empty() {
                    self.commit(rid, tag, level);
                }
            }
            batch.clear();
            self.scratch_batch = batch;
        }

        // Post-tag cleanup (scratch buffers keep their capacity; the tag
        // entry's buffers go back to the queue's free list).
        for p in self.written.drain(..) {
            let slot = &mut self.port_values[p];
            slot.written = false;
            if let Some(v) = &mut slot.value {
                (self.program.ports[p].clear)(v);
            }
        }
        for &a in &entry.actions {
            let slots = &mut self.action_values[a];
            let Some(mut v) = slots.current.take() else {
                continue;
            };
            let meta = &self.program.actions[a];
            if meta.kind == ActionKind::Physical {
                (meta.clear)(&mut v);
                slots.free.push(v);
            }
        }
        if stopping {
            self.phase = Phase::Stopped;
            self.queue.clear();
        } else if shutdown_requested {
            self.queue.push(tag.delay(Duration::ZERO), Event::Shutdown);
        }
        self.queue.recycle(entry);
        self.stats.processed_tags += 1;
        if let Some(t) = &self.telemetry {
            t.observe.add(t.tags, 1);
            t.observe.add(t.reactions, u64::from(reactions_run));
            if misses > 0 {
                t.observe.add(t.deadline_misses, u64::from(misses));
            }
            // The span covers the tag's logical instant up to the physical
            // clock reading the driver processed it at: its length *is*
            // the processing lag a coordinator imposed on this tag.
            t.observe
                .sample_duration(t.tag_lag, physical_now - tag.time);
            t.observe.span_tagged(
                t.lane,
                "tag",
                tag.time,
                physical_now.max(tag.time),
                tag.as_logical(),
            );
        }
        StepOutcome::Processed(TagSummary {
            tag,
            reactions: reactions_run,
            deadline_misses: misses,
        })
    }

    /// Processes the next tag with zero physical lag ("fast mode": the
    /// physical clock is assumed to read exactly the tag's time).
    ///
    /// With an empty queue this returns [`StepOutcome::Idle`] (or
    /// [`StepOutcome::Stopped`]) directly instead of fabricating a
    /// physical-clock reading: handing [`step`](Runtime::step) an epoch
    /// reading could lie before previously observed physical time, and a
    /// runtime must never see the clock run backwards.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was never started, like `step`.
    pub fn step_fast(&mut self) -> StepOutcome {
        match self.next_tag() {
            Some(tag) => self.step(tag.time),
            None => match self.phase {
                Phase::Created => panic!("Runtime::start must be called before step"),
                Phase::Stopped => StepOutcome::Stopped,
                Phase::Running => StepOutcome::Idle,
            },
        }
    }

    /// Runs in fast mode until idle, stopped, or `max_tags` processed.
    ///
    /// Returns the number of tags processed.
    pub fn run_fast(&mut self, max_tags: u64) -> u64 {
        let mut n = 0;
        while n < max_tags {
            match self.step_fast() {
                StepOutcome::Processed(_) => n += 1,
                StepOutcome::Idle | StepOutcome::Stopped => break,
            }
        }
        n
    }

    /// Applies a reaction's buffered writes and schedules. A write is
    /// committed by a swap: the staging slot gets back the port's emptied
    /// box (or none yet).
    fn commit(&mut self, rid: ReactionId, tag: Tag, level: usize) {
        let outcome = &mut self.outcomes[rid];
        let effects = &self.program.reactions[rid].effects;
        for (staged, &port) in outcome.slots.iter_mut().zip(effects) {
            if !std::mem::take(&mut staged.written) {
                continue;
            }
            let meta = &self.program.ports[port];
            let target = &mut self.port_values[port];
            std::mem::swap(&mut target.value, &mut staged.value);
            if target.written {
                // An earlier reaction's value is overwritten: drop it.
                if let Some(v) = &mut staged.value {
                    (meta.clear)(v);
                }
            } else {
                target.written = true;
                self.written.push(port);
            }
            for &r in &meta.sinks_trigger {
                let sink_level = self.program.reactions[r].level as usize;
                debug_assert!(sink_level > level);
                self.ready_levels[sink_level].push(r);
            }
        }
        for (action, atag, value) in outcome.schedules.drain(..) {
            debug_assert!(atag > tag);
            self.action_values[action].pending.insert(atag, value);
            self.queue.push(atag, Event::Action(action));
        }
    }

    /// Runs one reaction (or its deadline handler), buffering its effects
    /// in its outcome. Returns whether the deadline was missed and whether
    /// the reaction requested shutdown.
    fn run_reaction(&mut self, rid: ReactionId, tag: Tag, physical: Instant) -> (bool, bool) {
        let ReactionMeta {
            name,
            reactor,
            deadline,
            readable,
            effects,
            schedules,
            body,
            deadline_handler,
            ..
        } = &mut self.program.reactions[rid];
        let missed = deadline.is_some_and(|d| physical > tag.time + d);
        let body = if missed {
            deadline_handler.as_mut().expect("deadline implies handler")
        } else {
            body
        };
        // Without an `outcomes` arena no reaction can write or schedule,
        // so all of them may share one empty outcome.
        let mut unused = ReactionOutcome::default();
        let outcome = if self.outcomes.is_empty() {
            &mut unused
        } else {
            &mut self.outcomes[rid]
        };
        let mut ctx = ReactionCtx {
            tag,
            physical,
            name,
            readable,
            effects,
            schedules,
            port_meta: &self.program.ports,
            action_meta: &self.program.actions,
            ports: &self.port_values,
            actions: &self.action_values,
            outcome,
            shutdown: false,
        };
        body(self.states[*reactor].as_mut(), &mut ctx);
        (missed, ctx.shutdown)
    }
}
