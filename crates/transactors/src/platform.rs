//! The platform driver loop: one reactor runtime per platform, paced by
//! the discrete-event simulation — written once, for both coordination
//! strategies.
//!
//! A [`FederatedPlatform`] owns a [`Runtime`] and the platform's
//! [`VirtualClock`]. It enforces the reactor rule that no event is
//! processed before the *local physical clock* passes the event's tag:
//! for the earliest releasable tag `g`, it schedules a simulation wake-up
//! at the true time at which the local clock reads `g.time` (or later, if
//! the platform is still busy with modelled compute). Combined with the
//! transactors' `t + D + L + E` tag arithmetic this yields the
//! decentralized PTIDES-style coordination of the paper's §III.A —
//! deterministic distributed execution without a central coordinator.
//!
//! ## One loop, two policies
//!
//! A central coordinator may only ever *delay* that rule, never change
//! it, so coordination is a [`CoordinationPolicy`] plugged into the loop
//! rather than a second loop. The [`PlatformCore`] owns the runtime, the
//! clock, the outbox and its routes, the compute-cost models, the busy
//! time and the wake-up bookkeeping; the policy is consulted at five
//! seams:
//!
//! 1. **which tag may be released** —
//!    [`may_release`](CoordinationPolicy::may_release);
//! 2. **is the process down** —
//!    [`live_epoch`](CoordinationPolicy::live_epoch);
//! 3. **a tag was processed** —
//!    [`tag_processed`](CoordinationPolicy::tag_processed);
//! 4. **a batch was drained / an input was injected** —
//!    [`batch_drained`](CoordinationPolicy::batch_drained) and
//!    [`inject`](CoordinationPolicy::inject);
//! 5. **after the step** (and after every other queue change) —
//!    [`queue_changed`](CoordinationPolicy::queue_changed).
//!
//! [`Decentralized`] answers every seam with "nothing to add" and is
//! statically dispatched, so the paper's build pays nothing for the
//! seams; `dear-federation`'s `CoordinatedPlatform` plugs the RTI grant
//! protocol, the durable log and crash recovery into the same five.

use crate::outbox::{OutboundMsg, Outbox};
use dear_core::{
    PhysicalAction, ReactionId, Runtime, RuntimeError, RuntimeStats, StepOutcome, Tag,
};
use dear_sim::{Component, LatencyModel, SimRng, Simulation, VirtualClock};
use dear_time::{Duration, Instant};
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

type RouteHandler = Rc<dyn Fn(&mut Simulation, OutboundMsg)>;

/// What a coordination strategy adds to the platform driver loop.
///
/// Every hook runs with the platform's state borrowed, so it may use the
/// simulation (send frames, schedule events) but must not call back into
/// the platform's handle. The provided bodies are the decentralized
/// answers: nothing gates a tag but the clock, the process never dies,
/// and nobody is told about progress.
pub trait CoordinationPolicy: Sized + 'static {
    /// The platform is starting (the runtime starts right after, at
    /// `local_now`): attach telemetry, announce the platform.
    fn starting(core: &mut PlatformCore<Self>, sim: &mut Simulation, local_now: Instant);

    /// Seam 1 — whether `head`, the earliest pending tag, may be processed
    /// once the clock passes it.
    fn may_release(_core: &mut PlatformCore<Self>, _head: Tag, _now: Instant) -> bool {
        true
    }

    /// Seam 2 — `None` while the process is down; otherwise a number that
    /// changes whenever the process dies, so work scheduled by an earlier
    /// incarnation (a pending outbox drain) can tell it is stale.
    fn live_epoch(&self) -> Option<u64> {
        Some(0)
    }

    /// Seam 3 — `tag` was processed at local clock reading `local_now`;
    /// its modelled compute occupies `busy_from..core.busy_until`.
    fn tag_processed(
        _core: &mut PlatformCore<Self>,
        _sim: &mut Simulation,
        _tag: Tag,
        _local_now: Instant,
        _busy_from: Instant,
    ) {
    }

    /// Seam 4 — `batch` left the outbox and is about to go on the wire.
    fn batch_drained(_core: &mut PlatformCore<Self>, _batch: &[OutboundMsg]) {}

    /// Seam 4 — a payload is injected into a physical action, at `at` or
    /// (when `None`) at the local clock reading of `now`. Returns the tag
    /// it was scheduled at.
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformCore::schedule_input`]'s error.
    fn inject<T: 'static>(
        core: &mut PlatformCore<Self>,
        action: &PhysicalAction<T>,
        value: T,
        at: Option<Tag>,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        core.schedule_input(action, value, at, now)
    }

    /// Seam 5 — the event queue may have changed (start, injection, stop
    /// request, a step); `stopped` when a step found the runtime shut
    /// down. The driver re-arms right after.
    fn queue_changed(_core: &mut PlatformCore<Self>, _sim: &mut Simulation, _stopped: bool) {}
}

/// The decentralized policy (paper §III.A): the local clock is the only
/// gate, so every seam keeps its provided answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decentralized;

impl CoordinationPolicy for Decentralized {
    fn starting(core: &mut PlatformCore<Self>, sim: &mut Simulation, _local_now: Instant) {
        let observe = sim.observe().clone();
        if observe.is_enabled() {
            let lane = observe.register_federate_lane(&core.name);
            core.runtime.set_observe(observe, lane);
        }
    }
}

/// The state one platform's driver loop runs on, shared by both
/// coordination strategies; `policy` is the strategy's own state, kept in
/// the same allocation.
pub struct PlatformCore<P> {
    /// The platform's name.
    pub name: String,
    /// The reactor runtime.
    pub runtime: Runtime,
    /// The platform's local clock.
    pub clock: VirtualClock,
    /// The reaction→middleware queue the platform's transactors push to.
    pub outbox: Outbox,
    // BTreeMaps so that no observable behaviour can ever depend on hasher
    // state (the route table is only keyed lookups today, but this is a
    // determinism repo — iteration order must be boring by construction).
    routes: BTreeMap<u32, RouteHandler>,
    costs: BTreeMap<ReactionId, LatencyModel>,
    cost_rng: SimRng,
    /// True time until which the platform's processor is busy.
    pub busy_until: Instant,
    /// The platform's calendar key, from [`FederatedPlatform::start`].
    key: Option<u32>,
    /// Token of the newest wake-up (31 bits, wrapping); an older one
    /// firing is stale and does nothing.
    generation: u32,
    /// True time of the pending wake-up, if one is armed.
    ///
    /// Re-arms that would not change the wake time are suppressed, so a
    /// delivery or a grant landing on the armed instant never reshuffles
    /// same-instant event order — which is what keeps a coordinated run's
    /// trace bit-identical to the decentralized one.
    armed_wake: Option<Instant>,
    started: bool,
    /// The outbox batch being dispatched; kept between drains so a drain
    /// reuses its capacity.
    drained: Vec<OutboundMsg>,
    /// The coordination strategy's state.
    pub policy: P,
}

/// Token bit marking an outbox drain, whose other 31 bits are the low
/// bits of the epoch that scheduled it. A wake-up's token is its
/// generation, which never has this bit set.
const DRAIN: u32 = 1 << 31;

/// The low 31 bits of an epoch or generation: what a token carries.
fn narrow(n: u64) -> u32 {
    n as u32 & !DRAIN
}

impl<P> PlatformCore<P> {
    /// Whether [`FederatedPlatform::start`] has run.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// The process died: strands every armed wake-up and discards the
    /// outputs that had not left the platform yet.
    pub fn halt(&mut self) {
        self.bump_generation();
        self.armed_wake = None;
        self.outbox.drain_into(&mut self.drained);
        self.drained.clear();
    }

    /// Supersedes every wake-up armed so far.
    fn bump_generation(&mut self) {
        self.generation = (self.generation + 1) & !DRAIN;
    }

    /// A fresh process takes over after [`halt`](Self::halt): `runtime`
    /// replaces the dead one and the processor is idle again.
    pub fn restart(&mut self, runtime: Runtime) {
        self.runtime = runtime;
        self.busy_until = Instant::EPOCH;
    }

    /// Schedules a payload on a physical action: at the exact tag `at` —
    /// the PTIDES "schedule an action with tag `t + D + L + E`" step — or,
    /// when `None`, at the local clock reading of `now` (the "sporadic
    /// sensor" path). Returns the tag it was scheduled at.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's error when the tag is no longer safe to
    /// process (counted by the runtime) or the runtime is not running.
    pub fn schedule_input<T: 'static>(
        &mut self,
        action: &PhysicalAction<T>,
        value: T,
        at: Option<Tag>,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        match at {
            Some(tag) => self
                .runtime
                .schedule_physical_at(action, value, tag)
                .map(|()| tag),
            None => {
                let local_now = self.clock.local_time(now);
                self.runtime.schedule_physical(action, value, local_now)
            }
        }
    }
}

/// A platform participating in a federated DEAR deployment: the handle to
/// the driver loop, generic over the [`CoordinationPolicy`] plugged into
/// it (decentralized unless stated otherwise).
///
/// Cheap to clone; clones share the platform.
pub struct FederatedPlatform<P: CoordinationPolicy = Decentralized>(Rc<PlatformCell<P>>);

/// The shared platform state; the calendar fires it by key. A newtype,
/// so that this crate may implement [`Component`] for it.
struct PlatformCell<P>(RefCell<PlatformCore<P>>);

impl<P> Deref for PlatformCell<P> {
    type Target = RefCell<PlatformCore<P>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// A wake-up (token = generation) or an outbox drain (token = `DRAIN` |
/// epoch).
impl<P: CoordinationPolicy> Component for PlatformCell<P> {
    fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32) {
        let platform = FederatedPlatform(self);
        if token & DRAIN == 0 {
            platform.on_wake(sim, token);
            return;
        }
        // A drain scheduled by a process that has died since is
        // stranded: its outputs died with it.
        let live = platform.0.borrow().policy.live_epoch();
        if live.is_some_and(|epoch| narrow(epoch) == token & !DRAIN) {
            platform.drain_outbox(sim);
        }
    }
}

impl<P: CoordinationPolicy> Clone for FederatedPlatform<P> {
    fn clone(&self) -> Self {
        FederatedPlatform(self.0.clone())
    }
}

impl<P: CoordinationPolicy> fmt::Debug for FederatedPlatform<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.0.borrow();
        f.debug_struct("FederatedPlatform")
            .field("name", &core.name)
            .field("started", &core.started)
            .field("busy_until", &core.busy_until)
            .finish()
    }
}

impl FederatedPlatform {
    /// Creates a decentralized platform around a built runtime.
    ///
    /// `outbox` must be the same outbox the platform's transactors were
    /// declared with; `cost_rng` drives the compute-time models.
    #[must_use]
    pub fn new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> Self {
        Self::with_policy(name, runtime, clock, outbox, cost_rng, Decentralized)
    }
}

impl<P: CoordinationPolicy> FederatedPlatform<P> {
    /// Creates a platform whose loop consults `policy`.
    #[must_use]
    pub fn with_policy(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        policy: P,
    ) -> Self {
        FederatedPlatform(Rc::new(PlatformCell(RefCell::new(PlatformCore {
            name: name.into(),
            runtime,
            clock,
            outbox,
            routes: BTreeMap::new(),
            costs: BTreeMap::new(),
            cost_rng,
            busy_until: Instant::EPOCH,
            key: None,
            generation: 0,
            armed_wake: None,
            started: false,
            drained: Vec::new(),
            policy,
        }))))
    }

    /// Mutable access to the platform's state, for the policy's own entry
    /// points (a grant handler, a crash). Release it before calling any
    /// other method of the handle.
    #[must_use]
    pub fn core(&self) -> RefMut<'_, PlatformCore<P>> {
        self.0.borrow_mut()
    }

    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> String {
        self.0.borrow().name.clone()
    }

    /// Registers the interpreter for an outbox route.
    pub(crate) fn register_route(
        &self,
        route: u32,
        handler: impl Fn(&mut Simulation, OutboundMsg) + 'static,
    ) {
        self.0.borrow_mut().routes.insert(route, Rc::new(handler));
    }

    /// Attaches a modelled compute cost to a reaction: each execution of
    /// the reaction occupies the platform's processor for a sampled
    /// duration, delaying subsequent tag processing — which is what makes
    /// deadlines meaningful in simulation.
    pub fn set_reaction_cost(&self, reaction: ReactionId, model: LatencyModel) {
        self.0.borrow_mut().costs.insert(reaction, model);
    }

    /// The platform's local clock reading at the current simulation time.
    #[must_use]
    pub fn local_now(&self, sim: &Simulation) -> Instant {
        self.0.borrow().clock.local_time(sim.now())
    }

    /// True time until which the platform's processor is busy with
    /// modelled compute.
    #[must_use]
    pub fn busy_until(&self) -> Instant {
        self.0.borrow().busy_until
    }

    /// Runs a closure with mutable access to the runtime (tracing,
    /// workers, statistics).
    pub fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        f(&mut self.0.borrow_mut().runtime)
    }

    /// Runtime statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.0.borrow().runtime.stats()
    }

    /// Registers the platform with the simulation's calendar, starts the
    /// runtime (anchored at the platform's local clock) and arms the
    /// first wake-up.
    ///
    /// # Panics
    ///
    /// Panics if the platform already started.
    pub fn start(&self, sim: &mut Simulation) {
        {
            let core = &mut *self.0.borrow_mut();
            assert!(!core.started, "platform already started");
            core.started = true;
            core.key = Some(sim.register_component(self.0.clone()));
            let local_now = core.clock.local_time(sim.now());
            P::starting(core, sim, local_now);
            core.runtime.start(local_now);
        }
        self.requeue(sim, false);
    }

    /// Requests runtime shutdown at the given local time.
    pub fn stop_at_local(&self, sim: &mut Simulation, local: Instant) {
        let _ = self.0.borrow_mut().runtime.stop_at(local);
        self.requeue(sim, false);
    }

    /// Injects a payload into a physical action at an exact tag — the
    /// PTIDES "schedule an action with tag `t + D + L + E`" step.
    ///
    /// # Errors
    ///
    /// STP violations are counted in the runtime statistics and reported
    /// to the caller; the event is dropped (observable error, paper
    /// §IV.B). Also fails when the runtime is not running.
    pub(crate) fn inject_at<T: 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), RuntimeError> {
        self.inject(sim, action, value, Some(tag)).map(|_| ())
    }

    /// Injects a payload tagged with the local physical arrival time (the
    /// "sporadic sensor" path used for untagged messages and the
    /// brake-assistant video adapter).
    ///
    /// # Errors
    ///
    /// Propagates the runtime's not-running error.
    pub(crate) fn inject_now<T: 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
    ) -> Result<Tag, RuntimeError> {
        self.inject(sim, action, value, None)
    }

    /// Injects at `at`, or at the local clock reading when `None`;
    /// returns the tag the value was scheduled at.
    pub(crate) fn inject<T: 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        at: Option<Tag>,
    ) -> Result<Tag, RuntimeError> {
        let result = P::inject(&mut self.0.borrow_mut(), action, value, at, sim.now());
        if result.is_ok() {
            self.requeue(sim, false);
        }
        result
    }

    /// Schedules the next wake-up for the earliest releasable tag. The
    /// policy calls this itself when only the release gate moved (a grant
    /// arrived); every queue change re-arms on its own.
    pub fn arm(&self, sim: &mut Simulation) {
        self.arm_core(&mut self.0.borrow_mut(), sim);
    }

    /// Tells the policy the queue may have changed, then re-arms.
    fn requeue(&self, sim: &mut Simulation, stopped: bool) {
        let core = &mut *self.0.borrow_mut();
        P::queue_changed(core, sim, stopped);
        self.arm_core(core, sim);
    }

    fn arm_core(&self, core: &mut PlatformCore<P>, sim: &mut Simulation) {
        if !core.started || core.policy.live_epoch().is_none() || !core.runtime.is_running() {
            return;
        }
        let Some(tag) = core.runtime.next_tag() else {
            // Nothing pending; a wake-up armed earlier stays as it is.
            return;
        };
        let now = sim.now();
        if !P::may_release(core, tag, now) {
            core.armed_wake = None;
            return;
        }
        let tag_true = core.clock.true_time_at_local(tag.time);
        let wake = tag_true.max(core.busy_until).max(now);
        if core.armed_wake == Some(wake) {
            // A wake-up for this instant is already pending; keep its
            // calendar position.
            return;
        }
        core.armed_wake = Some(wake);
        core.bump_generation();
        let key = core.key.expect("a started platform is registered");
        sim.schedule_fire(wake, key, core.generation);
    }

    fn on_wake(&self, sim: &mut Simulation, generation: u32) {
        // Process one tag, attribute its compute cost, drain the outbox,
        // then re-arm. Superseded wake-ups (a newer arm happened) no-op.
        let now = sim.now();
        let (outcome, drain) = {
            let core = &mut *self.0.borrow_mut();
            let Some(epoch) = core.policy.live_epoch() else {
                return;
            };
            if generation != core.generation || !core.started {
                return;
            }
            core.armed_wake = None;
            let local_now = core.clock.local_time(now);
            let outcome = core.runtime.step(local_now);
            if let StepOutcome::Processed(summary) = outcome {
                // Accumulate modelled compute time of executed reactions.
                let mut total = Duration::ZERO;
                for rid in core.runtime.executed_at_last_tag() {
                    if let Some(model) = core.costs.get(rid) {
                        total += model.sample(&mut core.cost_rng);
                    }
                }
                let busy_from = core.busy_until.max(now);
                core.busy_until = busy_from + total;
                P::tag_processed(core, sim, summary.tag, local_now, busy_from);
            }
            let key = core.key.expect("a started platform is registered");
            (outcome, (core.busy_until, key, DRAIN | narrow(epoch)))
        };
        if let StepOutcome::Processed(_) = outcome {
            // Outputs leave the platform when the modelled compute
            // finishes (the skeleton promise resolves then), not when the
            // tag starts.
            let (drain_at, key, token) = drain;
            if drain_at > now {
                sim.schedule_fire(drain_at, key, token);
            } else {
                self.drain_outbox(sim);
            }
        }
        self.requeue(sim, matches!(outcome, StepOutcome::Stopped));
    }

    fn drain_outbox(&self, sim: &mut Simulation) {
        let mut batch = {
            let core = &mut *self.0.borrow_mut();
            let mut batch = std::mem::take(&mut core.drained);
            core.outbox.drain_into(&mut batch);
            P::batch_drained(core, &batch);
            batch
        };
        self.dispatch(sim, batch.drain(..));
        self.0.borrow_mut().drained = batch;
    }

    /// Hands each message to the handler registered for its route, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on a message for a route nobody registered.
    pub fn dispatch(&self, sim: &mut Simulation, batch: impl IntoIterator<Item = OutboundMsg>) {
        for msg in batch {
            let handler = self.0.borrow().routes.get(&msg.route).cloned();
            match handler {
                Some(h) => h(sim, msg),
                None => panic!(
                    "outbox message for unregistered route {} on platform {}",
                    msg.route,
                    self.0.borrow().name
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_core::ProgramBuilder;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A platform whose one reaction fires at 10 ms, counting into the
    /// returned cell.
    fn counting_platform(sim: &Simulation) -> (FederatedPlatform, Rc<Cell<u64>>) {
        let fired = Rc::new(Cell::new(0));
        let mut b = ProgramBuilder::new();
        let mut r = b.reactor("counter", fired.clone());
        let t = r.timer("t", Duration::from_millis(10), None);
        r.reaction("count")
            .triggered_by(t)
            .body(|n: &mut Rc<Cell<u64>>, _| n.set(n.get() + 1));
        r.finish();
        let platform = FederatedPlatform::new(
            "p",
            Runtime::new(b.build().expect("counter builds")),
            VirtualClock::ideal(),
            Outbox::new(),
            sim.fork_rng("costs"),
        );
        (platform, fired)
    }

    #[test]
    fn a_wake_armed_before_halt_does_nothing() {
        let mut sim = Simulation::new(0);
        let (platform, fired) = counting_platform(&sim);
        platform.start(&mut sim); // arms the 10 ms wake
        platform.core().halt();
        sim.run_until(Instant::from_millis(20));
        assert_eq!(fired.get(), 0, "the stale wake stepped the runtime");
        platform.arm(&mut sim);
        sim.run_until(Instant::from_millis(30));
        assert_eq!(fired.get(), 1, "a fresh arm still works");
    }

    #[test]
    fn a_wake_armed_before_the_generation_wraps_does_nothing() {
        let mut sim = Simulation::new(0);
        let (platform, fired) = counting_platform(&sim);
        platform.core().generation = !DRAIN - 1;
        platform.start(&mut sim); // arms with the last generation before the wrap
        assert_eq!(platform.core().generation, !DRAIN);
        platform.core().halt();
        assert_eq!(platform.core().generation, 0, "the generation wrapped");
        sim.run_until(Instant::from_millis(20));
        assert_eq!(fired.get(), 0, "the stale wake stepped the runtime");
        platform.arm(&mut sim);
        sim.run_until(Instant::from_millis(30));
        assert_eq!(fired.get(), 1, "a fresh arm after the wrap still works");
    }
}
