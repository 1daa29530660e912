//! The coordinated platform driver: the one driver loop of
//! `dear-transactors` with the RTI grant protocol plugged in as its
//! coordination policy.
//!
//! There is no second scheduler here. [`FederatedPlatform`] owns the
//! wake-up arithmetic, the compute-cost sampling, the busy time and the
//! outbox draining; a [`CoordinatedPlatform`] is that loop plus a policy
//! that answers its five seams:
//!
//! 1. **which tag may be released** — only a tag strictly below the bound
//!    granted by the [`Rti`] (inclusively below for a provisional PTAG);
//!    the clock rule of the loop still applies on top, which keeps
//!    deadline behaviour and therefore event traces bit-identical to a
//!    decentralized run. Time spent blocked is the grant wait.
//! 2. **is the process down** — [`CoordinatedPlatform::crash`] takes the
//!    federate down until [`CoordinatedPlatform::recover`]; wake-ups and
//!    drains of the dead incarnation are stranded.
//! 3. **a tag was processed** — bound-breach check, durable `Processed`
//!    record, `compute` span, and the LTC report (alone, or batched with
//!    the NET in a zone) unless the coordinator marked it irrelevant.
//! 4. **a batch was drained / an input was injected** — durable
//!    `Drained` / `Input` records; a downed federate's inbox keeps
//!    logging.
//! 5. **after the step** — NET whenever the queue head or physical fence
//!    changed, `Resign` once the runtime stopped.
//!
//! Grants arrive as coordination-service notifications and widen the
//! runtime's tag bound. All coordination counters land in the shared
//! [`TransactorStats`], so centralized and decentralized runs report
//! comparable numbers.

use crate::hierarchy::HierarchicalRti;
use crate::rti::{FederateId, FederationError, Rti};
use crate::solver::{tag_succ, TAG_MAX};
use crate::zone::{zone_instance, ZoneId, ZONE_MEMBER_EVENTGROUP};
use dear_core::{
    PhysicalAction, ReactionId, Runtime, RuntimeError, RuntimeStats, StepOutcome, Tag,
};
use dear_durable::{EventLog, Record};
use dear_observe::{CounterId, GaugeId, HistogramId, Lane, Observe};
use dear_sim::{LatencyModel, SimRng, Simulation, VirtualClock};
use dear_someip::{
    coord_eventgroup, visit_control_records, Binding, CoordBatch, CoordKind, CoordMsg,
    ServiceInstance, WireTag, COORD_EVENT, COORD_INSTANCE, COORD_METHOD, COORD_SERVICE, DNET_SINK,
    TAG_NEVER,
};
use dear_time::{Duration, Instant};
use dear_transactors::{
    tag_to_wire, wire_to_tag, CoordinationPolicy, FederatedPlatform, OutboundMsg, Outbox,
    PlatformCore, PlatformDriver, TransactorStats,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

type EncodeFn = Rc<dyn Fn(&dyn Any, &mut Vec<u8>) -> bool>;
type ReplayFn = Rc<dyn Fn(&mut Runtime, Tag, &[u8]) -> bool>;

/// Per-action serialization pair for durable input logging: `encode`
/// appends a live payload's log bytes to a buffer at injection time
/// (false when the payload is not the action's type), `replay` rebuilds
/// and re-schedules it from those bytes during recovery.
struct InputCodec {
    encode: EncodeFn,
    replay: ReplayFn,
}

/// A durable federate's event log — every granted bound, processed tag,
/// injected input and drained outbox batch is appended, so a fresh
/// incarnation can replay to the exact crash point — plus the `Input`
/// record every injection is encoded into and logged from, so its byte
/// buffer is reused.
struct Durable {
    log: EventLog,
    input: Record,
}

/// The outcome of one [`CoordinatedPlatform::recover`] call: where the
/// incarnation died, what replay rebuilt, and what went back on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlatformRecovery {
    /// True time at which [`CoordinatedPlatform::crash`] took the
    /// federate down.
    pub crashed_at: Instant,
    /// True time at which the `Rejoin` frame went out and the platform
    /// resumed live operation.
    pub rejoined_at: Instant,
    /// `rejoined_at - crashed_at`: the replay/rejoin latency.
    pub outage: Duration,
    /// Logged tags re-processed from the log.
    pub replayed_tags: u64,
    /// Logged physical-action payloads re-scheduled from the log.
    pub replayed_inputs: u64,
    /// Outbound messages swallowed during replay because the previous
    /// incarnation had already drained them to the wire.
    pub suppressed_sends: u64,
    /// Outbound messages the previous incarnation produced but never
    /// drained, re-sent after replay completed.
    pub resent_sends: u64,
    /// Greatest tag the replay re-processed (`None`: crashed before
    /// completing any tag).
    pub(crate) last_processed: Option<Tag>,
    /// Granted bound restored from the log's high-water mark.
    pub restored_bound: Option<Tag>,
    /// The new incarnation number carried by the `Rejoin` frame.
    pub incarnation: u32,
    /// Replay steps whose outcome disagreed with the log (0 on any
    /// healthy recovery — nonzero means the log and program diverged).
    pub replay_mismatches: u64,
}

impl fmt::Display for PlatformRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejoin #{}: replayed {} tags / {} inputs, suppressed {} resent {} sends, outage {}ns",
            self.incarnation,
            self.replayed_tags,
            self.replayed_inputs,
            self.suppressed_sends,
            self.resent_sends,
            self.outage.as_nanos(),
        )
    }
}

/// The centralized coordination policy: what a federate of an RTI keeps
/// beyond the driver loop's own state.
struct Coordinated {
    resigned: bool,
    federate: FederateId,
    binding: Binding,
    /// SOME/IP instance of the coordinator this platform reports to:
    /// `COORD_INSTANCE` under a flat RTI, the zone's instance under a
    /// hierarchical one.
    coord_instance: u16,
    /// Whether to speak the batched protocol (hierarchical zones): LTC +
    /// NET packed into one frame per step, grants arriving as batches on
    /// the shared member eventgroup.
    batched: bool,
    stats: TransactorStats,
    /// Telemetry, captured from the simulation at `start` if it is on
    /// (absent until then — every record call is one branch).
    telemetry: Option<Box<Telemetry>>,
    /// Last (head, fence) pair reported to the RTI, to suppress repeats.
    last_net: Option<(WireTag, WireTag)>,
    /// True time of the most recent NET actually sent, for the NET→TAG
    /// round-trip histogram (taken by the first grant that answers it).
    last_net_sent_at: Option<Instant>,
    /// True time at which the current grant wait began, if blocked.
    blocked_since: Option<Instant>,
    /// Greatest tag processed so far (for the never-beyond-bound check).
    max_processed: Option<Tag>,
    /// Whether the federate was registered with physical inputs from
    /// outside the federation. External federates always report fence
    /// advances; only pure federates are eligible for same-head NET
    /// dedup (their fence is never consulted by the solver).
    external: bool,
    /// The program's periodic event lattice, declared to the coordinator
    /// at start. `Some` only when the coordinator's control diet was on
    /// at build time and the program is statically periodic (timers
    /// only — see [`dear_core::Program::periodic_lattice`]).
    lattice: Option<Duration>,
    /// The DNET suppression flag word most recently pushed by the
    /// coordinator (zero until the first push): which of this federate's
    /// reports provably cannot move any downstream LBTS.
    dnet_flags: u32,
    /// The durable log, when crash recovery is enabled. Boxed: most
    /// federates have none, and pay one pointer for it.
    durable: Option<Box<Durable>>,
    /// Input codecs keyed by physical-action id, for durable input
    /// logging and replay.
    codecs: BTreeMap<u32, InputCodec>,
    /// Whether the federate is currently down ([`CoordinatedPlatform::crash`]).
    crashed: bool,
    /// True time of the crash, reported by the next recovery.
    crashed_at: Option<Instant>,
    /// Incarnation number: 0 for the original process, bumped by every
    /// recovery and carried in the `Rejoin` frame's fence microstep so
    /// the coordinator can drop stale-incarnation control echoes.
    incarnation: u32,
    /// Bumped on every crash, so an outbox drain scheduled by a dead
    /// incarnation no-ops even if recovery completed in the meantime.
    epoch: u64,
    /// Report of the most recent recovery, if any.
    last_recovery: Option<PlatformRecovery>,
}

type Core = PlatformCore<Coordinated>;

/// An enabled telemetry handle and the platform's metric slots in it,
/// resolved once. Boxed and absent while telemetry is off, so a platform
/// without it stores one pointer.
struct Telemetry {
    observe: Observe,
    nets_sent: CounterId,
    ltcs_sent: CounterId,
    nets_suppressed: CounterId,
    grants_received: CounterId,
    grant_wait: HistogramId,
    net_tag_rtt: HistogramId,
    window_len: HistogramId,
    dnet_horizon: HistogramId,
    step_batch_size: HistogramId,
    grant_batch_size: HistogramId,
    occupancy: GaugeId,
    occupancy_hist: HistogramId,
}

impl Telemetry {
    fn resolve(observe: Observe) -> Self {
        Telemetry {
            nets_sent: observe.register_counter("coord/sent/net"),
            ltcs_sent: observe.register_counter("coord/sent/ltc"),
            nets_suppressed: observe.register_counter("coord/nets_suppressed"),
            grants_received: observe.register_counter("coord/grants_received"),
            grant_wait: observe.register_histogram("coord/grant_wait_ns"),
            net_tag_rtt: observe.register_histogram("coord/net_tag_rtt_ns"),
            window_len: observe.register_histogram("coord/window_len"),
            dnet_horizon: observe.register_histogram("coord/dnet_horizon_ns"),
            step_batch_size: observe.register_histogram("coord/step_batch_size"),
            grant_batch_size: observe.register_histogram("coord/grant_batch_size"),
            occupancy: observe.register_gauge("frame/occupancy"),
            occupancy_hist: observe.register_histogram("frame/occupancy_hist"),
            observe,
        }
    }
}

impl Coordinated {
    fn lane(&self) -> Lane {
        Lane::Federate(self.federate.0)
    }

    /// Whether the NET report with queue head `head` may be skipped,
    /// counting it when so. Two rules, both fixpoint-neutral: a
    /// DNET-flagged sink constrains nobody downstream, and a pure
    /// federate whose head is unchanged since its last report adds no
    /// information (its fence is never consulted by the solver). The
    /// heartbeat path bypasses this on purpose — liveness needs traffic.
    fn suppress_net(&mut self, head: WireTag) -> bool {
        let sink = self.dnet_flags & DNET_SINK != 0;
        let same_head = !self.external && self.last_net.is_some_and(|(h, _)| h == head);
        if sink || same_head {
            self.stats.record_net_suppressed();
            if let Some(t) = &self.telemetry {
                t.observe.add(t.nets_suppressed, 1);
            }
            true
        } else {
            false
        }
    }

    /// Sends one control record to the coordinator. Control messages ride
    /// recycled pool frames like all data-plane traffic: encode once into
    /// a headroom buffer, wire-assemble in place, zero steady-state
    /// allocations.
    fn send(&self, sim: &mut Simulation, msg: CoordMsg) {
        self.call(sim, msg.encode_into(&self.binding.pool()));
    }

    fn log(&self) -> Option<&EventLog> {
        self.durable.as_deref().map(|d| &d.log)
    }

    /// Encodes an injected `value` for action `key` into the reused
    /// `Input` record. False when no log is attached or no codec takes
    /// the value: the injection is then not logged.
    fn encode_input(&mut self, key: u32, value: &dyn Any) -> bool {
        let input = self.durable.as_deref_mut().map(|d| &mut d.input);
        let (Some(Record::Input { key: k, bytes, .. }), Some(codec)) =
            (input, self.codecs.get(&key))
        else {
            return false;
        };
        *k = key;
        bytes.clear();
        (codec.encode)(value, bytes)
    }

    /// Logs the record [`Self::encode_input`] filled, at `tag`.
    fn log_input(&mut self, tag: Tag) {
        if let Some(Durable { log, input }) = self.durable.as_deref_mut() {
            if let Record::Input { tag: t, .. } = input {
                *t = tag;
            }
            log.append(input);
        }
    }

    fn call(&self, sim: &mut Simulation, payload: dear_someip::FrameBuf) {
        self.binding
            .call_no_return(
                sim,
                COORD_SERVICE,
                self.coord_instance,
                COORD_METHOD,
                payload,
            )
            .expect("coordination service not offered — construct the coordinator first");
    }
}

/// The NET report (queue head + physical fence) a live federate owes the
/// coordinator at `now`, recorded as sent — or `None` when it repeats the
/// last report or is provably irrelevant downstream. A `heartbeat` skips
/// both suppressions: liveness needs traffic.
fn next_net(core: &mut Core, now: Instant, heartbeat: bool) -> Option<CoordMsg> {
    if !core.is_started() || core.policy.resigned || core.policy.crashed {
        return None;
    }
    let head = core.runtime.next_tag().map_or(TAG_NEVER, tag_to_wire);
    let fence = tag_to_wire(Tag::at(core.clock.local_time(now)));
    let c = &mut core.policy;
    if !heartbeat && (c.last_net == Some((head, fence)) || c.suppress_net(head)) {
        return None;
    }
    c.last_net = Some((head, fence));
    c.last_net_sent_at = Some(now);
    c.stats.record_net_sent();
    if let Some(t) = &c.telemetry {
        t.observe.add(t.nets_sent, 1);
    }
    Some(CoordMsg::net(c.federate.0, head, fence))
}

/// Reports NET when it changed.
fn report_status(core: &mut Core, sim: &mut Simulation) {
    if let Some(net) = next_net(core, sim.now(), false) {
        core.policy.send(sim, net);
    }
}

/// Batched-protocol step report: the LTC plus (when it changed) the NET
/// packed into a single control frame, so the zone recomputes once
/// instead of twice and the wire carries one header. The NET report that
/// follows the step sees an up-to-date `last_net` and stays silent.
fn send_step_batch(core: &mut Core, sim: &mut Simulation, ltc: CoordMsg) {
    let net = next_net(core, sim.now(), false);
    let c = &core.policy;
    c.stats.record_coord_batch_sent();
    let mut batch = CoordBatch::pooled(&c.binding.pool());
    batch.push(&ltc);
    if let Some(net) = net {
        batch.push(&net);
    }
    if let Some(t) = &c.telemetry {
        t.observe.sample(t.step_batch_size, batch.len() as u64);
    }
    c.call(sim, batch.freeze());
}

/// The exclusive tag bound a grant record carries: a TAG's bound or, when
/// later, its grant-ahead horizon; one past a provisional PTAG's tag
/// (process up to and including it). `None` for every other record.
fn bound_of_grant(msg: &CoordMsg) -> Option<Tag> {
    match msg.kind {
        CoordKind::Tag => Some(wire_to_tag(msg.tag).max(wire_to_tag(msg.fence))),
        CoordKind::Ptag => Some(tag_succ(wire_to_tag(msg.tag))),
        _ => None,
    }
}

/// Applies one grant record if it is addressed to this federate; whether
/// it widened the runtime's bound.
fn apply_grant(core: &mut Core, msg: &CoordMsg, now: Instant) -> bool {
    let c = &mut core.policy;
    if msg.federate != c.federate.0 {
        return false;
    }
    let Some(bound) = bound_of_grant(msg) else {
        if msg.kind == CoordKind::Dnet && !c.crashed {
            // Suppression-state push: remember which of our reports the
            // coordinator has proven irrelevant downstream. No bound
            // change, nothing to re-arm.
            c.dnet_flags = msg.fence.microstep;
            if let Some(t) = &c.telemetry {
                t.observe
                    .sample(t.dnet_horizon, msg.tag.nanos.min(i64::MAX as u64));
            }
        }
        return false;
    };
    if let Some(log) = c.log() {
        log.append(&Record::Granted { bound });
    }
    if c.crashed {
        // Durable inbox for the control plane: a grant addressed to a
        // downed federate lands in its log so recovery can restore the
        // bound, but nothing moves until then.
        return false;
    }
    core.runtime.set_tag_bound(bound);
    let granted = wire_to_tag(msg.tag);
    if msg.kind == CoordKind::Tag && bound > granted {
        // Grant-ahead window: free-run to the horizon with no per-tag
        // round-trips. The clock gate still paces every tag to its
        // physical time.
        c.stats.record_windowed_grant();
        let len = bound.time - granted.time;
        if let Some(t) = &c.telemetry {
            let len = u64::try_from(len.as_nanos()).unwrap_or(0);
            t.observe.sample(t.window_len, len);
        }
    }
    c.stats.record_grant_received(msg.kind == CoordKind::Ptag);
    // The NET→TAG round trip: report out, fixpoint at the coordinator,
    // grant back. The first grant answering the outstanding NET takes
    // the measurement.
    let sent = c.last_net_sent_at.take();
    if let Some(t) = &c.telemetry {
        t.observe.add(t.grants_received, 1);
        if let Some(sent) = sent {
            t.observe.sample_duration(t.net_tag_rtt, now - sent);
        }
    }
    true
}

/// Dispatches one grant notification frame: either a flat-protocol
/// single record or a zone batch, from which the platform applies the
/// records addressed to its own federate id (in frame order — the same
/// order a flat RTI would have delivered them in). Re-arms only when a
/// bound was applied.
fn on_grant_frame(platform: &FederatedPlatform<Coordinated>, sim: &mut Simulation, payload: &[u8]) {
    let now = sim.now();
    let applied = {
        let core = &mut *platform.core();
        let mut applied = false;
        let Ok(batch) =
            visit_control_records(payload, |msg| applied |= apply_grant(core, msg, now))
        else {
            return;
        };
        if let Some(records) = batch {
            core.policy.stats.record_coord_batch_received();
            if let Some(t) = &core.policy.telemetry {
                t.observe.sample(t.grant_batch_size, records as u64);
            }
        }
        applied
    };
    if applied {
        platform.arm(sim);
    }
}

impl CoordinationPolicy for Coordinated {
    fn starting(core: &mut Core, sim: &mut Simulation, local_now: Instant) {
        let c = &mut core.policy;
        // Capture the simulation's telemetry handle: the platform's own
        // coordination metrics and the runtime's per-tag spans both land
        // on this federate's lane.
        let observe = sim.observe();
        observe.set_lane_name(c.lane(), &core.name);
        core.runtime.set_observe(observe.clone(), c.lane());
        c.telemetry = observe
            .is_enabled()
            .then(|| Box::new(Telemetry::resolve(observe.clone())));
        if let Some(log) = c.log() {
            // Anchor record: replay restarts the fresh runtime at the
            // same local clock reading.
            log.append(&Record::Started {
                anchor: local_now.as_nanos(),
            });
        }
        c.send(sim, CoordMsg::new(CoordKind::Join, c.federate.0, TAG_NEVER));
        // Declare the periodic lattice (control diet only): the solver
        // may then leap this federate's stale head whole periods, and
        // grant-ahead windows become eligible.
        let period = c.lattice.and_then(|g| u64::try_from(g.as_nanos()).ok());
        if let Some(nanos) = period.filter(|&nanos| nanos > 0) {
            let period = WireTag::new(nanos, 0);
            c.send(sim, CoordMsg::new(CoordKind::Period, c.federate.0, period));
        }
    }

    fn may_release(core: &mut Core, head: Tag, now: Instant) -> bool {
        let c = &mut core.policy;
        if core.runtime.tag_bound().is_some_and(|bound| head >= bound) {
            // The head lies beyond the granted bound: wait for the RTI.
            // The grant handler re-arms.
            c.blocked_since.get_or_insert(now);
            return false;
        }
        if let Some(since) = c.blocked_since.take() {
            c.stats.add_grant_wait(now - since);
            if let Some(t) = &c.telemetry {
                t.observe.sample_duration(t.grant_wait, now - since);
                t.observe.span(c.lane(), "grant-wait", since, now);
            }
        }
        true
    }

    fn live_epoch(&self) -> Option<u64> {
        (!self.crashed).then_some(self.epoch)
    }

    fn tag_processed(
        core: &mut Core,
        sim: &mut Simulation,
        tag: Tag,
        local_now: Instant,
        busy_from: Instant,
    ) {
        let (busy_until, bound) = (core.busy_until, core.runtime.tag_bound());
        let c = &mut core.policy;
        // The acceptance invariant: a processed tag must lie within the
        // granted bound (exclusive).
        if bound.is_some_and(|b| tag >= b) {
            c.stats.record_bound_breach();
        }
        c.max_processed = Some(c.max_processed.map_or(tag, |m| m.max(tag)));
        if let Some(Durable { log, .. }) = c.durable.as_deref() {
            // The logged clock reading is what replay feeds back into
            // `step` — deadline classification depends on it.
            log.append(&Record::Processed {
                tag,
                local: local_now.as_nanos(),
            });
        }
        if let Some(t) = &c.telemetry {
            if busy_until > busy_from {
                let tag = tag.as_logical();
                t.observe
                    .span_tagged(c.lane(), "compute", busy_from, busy_until, tag);
            }
            let occupancy = c.binding.pool().stats().occupancy();
            let gauge = i64::try_from(occupancy).unwrap_or(i64::MAX);
            t.observe.set(t.occupancy, gauge);
            t.observe.sample(t.occupancy_hist, occupancy);
        }
        if c.dnet_flags & DNET_SINK != 0 {
            // DNET sink: no downstream LBTS can move on this LTC, so the
            // report (and the recompute it would trigger) is pure
            // overhead. Our own grants ride upstream reports, which the
            // coordinator still receives.
            c.stats.record_net_suppressed();
            if let Some(t) = &c.telemetry {
                t.observe.add(t.nets_suppressed, 1);
            }
            return;
        }
        let ltc = CoordMsg::new(CoordKind::Ltc, c.federate.0, tag_to_wire(tag));
        c.stats.record_ltc_sent();
        if let Some(t) = &c.telemetry {
            t.observe.add(t.ltcs_sent, 1);
        }
        if c.batched {
            send_step_batch(core, sim, ltc);
        } else {
            c.send(sim, ltc);
        }
    }

    fn batch_drained(core: &mut Core, batch: &[OutboundMsg]) {
        // Watermark record: every message at or below this tag is now on
        // the wire, so recovery replay must not send it again. Tags only
        // grow between drains, which makes the batch maximum a prefix
        // watermark.
        if let Some(log) = core.policy.log() {
            if let Some(max) = batch.iter().map(|m| wire_to_tag(m.tag)).max() {
                log.append(&Record::Drained { tag: max });
            }
        }
    }

    fn inject<T: 'static>(
        core: &mut Core,
        action: &PhysicalAction<T>,
        value: T,
        at: Option<Tag>,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        let c = &mut core.policy;
        if c.crashed && at.is_none() {
            // Arrival-time tagging needs a live local clock; there is no
            // exact tag to log, so the injection is refused rather than
            // replayed at a made-up time.
            return Err(RuntimeError::NotRunning);
        }
        let key = action.id().index() as u32;
        // Encode before scheduling: the payload moves into the queue.
        let logged = c.encode_input(key, &value);
        let tag = match (c.crashed, at) {
            // Durable inbox: the frame reached a downed federate. It
            // cannot be processed now, but logging it lets recovery
            // replay rebuild the event at this exact tag.
            (true, Some(tag)) if logged => tag,
            (true, _) => return Err(RuntimeError::NotRunning),
            (false, _) => core.schedule_input(action, value, at, now)?,
        };
        if logged {
            core.policy.log_input(tag);
        }
        Ok(tag)
    }

    fn queue_changed(core: &mut Core, sim: &mut Simulation, stopped: bool) {
        let c = &mut core.policy;
        if stopped && !c.resigned {
            c.resigned = true;
            c.send(
                sim,
                CoordMsg::new(CoordKind::Resign, c.federate.0, TAG_NEVER),
            );
        }
        report_status(core, sim);
    }
}

/// A platform participating in a centrally coordinated federation: the
/// `dear-transactors` driver loop under the grant-protocol policy.
///
/// Cheap to clone; clones share the platform.
#[derive(Clone)]
pub struct CoordinatedPlatform(FederatedPlatform<Coordinated>);

impl fmt::Debug for CoordinatedPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.0.core();
        f.debug_struct("CoordinatedPlatform")
            .field("name", &core.name)
            .field("federate", &core.policy.federate)
            .field("started", &core.is_started())
            .field("granted", &core.runtime.tag_bound())
            .finish()
    }
}

impl PlatformDriver for CoordinatedPlatform {
    fn platform(&self) -> &FederatedPlatform<impl CoordinationPolicy> {
        &self.0
    }
}

impl CoordinatedPlatform {
    /// Creates a platform around a built runtime and registers it with
    /// the RTI as a federate hosted on `binding`'s node.
    ///
    /// `external` declares physical inputs from outside the federation
    /// (see [`Rti::register`]). The binding is also used to exchange
    /// coordination messages with the RTI, alongside its data traffic.
    ///
    /// # Panics
    ///
    /// Panics if the RTI's federate table is full.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        rti: &Rti,
        binding: &Binding,
        external: bool,
    ) -> Self {
        let federate = rti
            .register(name, external)
            .expect("federate registration failed");
        Self::build(
            name,
            runtime,
            clock,
            outbox,
            cost_rng,
            federate,
            binding,
            COORD_INSTANCE,
            coord_eventgroup(federate.0),
            false,
            external,
            rti.control_diet_enabled(),
        )
    }

    /// Creates a platform registered with zone `zone` of a hierarchical
    /// federation. The platform reports NET/LTC to its zone coordinator
    /// — batched, one control frame per step — and receives grants from
    /// the zone's shared member eventgroup, filtering the batch by its
    /// own (global) federate id.
    ///
    /// # Errors
    ///
    /// Propagates [`HierarchicalRti::register`] errors (unknown zone,
    /// capacity exhausted).
    #[allow(clippy::too_many_arguments)]
    pub fn new_in_zone(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        hierarchy: &HierarchicalRti,
        zone: ZoneId,
        binding: &Binding,
        external: bool,
    ) -> Result<Self, FederationError> {
        let federate = hierarchy.register(zone, name, external)?;
        Ok(Self::build(
            name,
            runtime,
            clock,
            outbox,
            cost_rng,
            federate,
            binding,
            zone_instance(zone),
            ZONE_MEMBER_EVENTGROUP,
            true,
            external,
            hierarchy.control_diet_enabled(),
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        federate: FederateId,
        binding: &Binding,
        coord_instance: u16,
        grant_eventgroup: u16,
        batched: bool,
        external: bool,
        diet: bool,
    ) -> Self {
        // The periodic lattice is declared only under the control diet:
        // without it the platform sends no `Period` record and the
        // coordinator's calendar — and every trace — stays unchanged.
        let lattice = if diet {
            runtime.program().periodic_lattice()
        } else {
            None
        };
        let policy = Coordinated {
            resigned: false,
            federate,
            binding: binding.clone(),
            coord_instance,
            batched,
            stats: TransactorStats::new(),
            telemetry: None,
            last_net: None,
            last_net_sent_at: None,
            blocked_since: None,
            max_processed: None,
            external,
            lattice,
            dnet_flags: 0,
            durable: None,
            codecs: BTreeMap::new(),
            crashed: false,
            crashed_at: None,
            incarnation: 0,
            epoch: 0,
            last_recovery: None,
        };
        let platform =
            FederatedPlatform::with_policy(name, runtime, clock, outbox, cost_rng, policy);
        binding.subscribe(
            ServiceInstance::new(COORD_SERVICE, coord_instance),
            grant_eventgroup,
        );
        let hook = platform.clone();
        binding.on_event(COORD_SERVICE, COORD_EVENT, move |sim, msg| {
            on_grant_frame(&hook, sim, &msg.payload);
        });
        CoordinatedPlatform(platform)
    }

    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> String {
        self.0.name()
    }

    /// The federate id assigned by the RTI (for topology declarations).
    #[must_use]
    pub fn federate_id(&self) -> FederateId {
        self.0.core().policy.federate
    }

    /// The coordination counters (shared handle).
    #[must_use]
    pub fn coordination_stats(&self) -> TransactorStats {
        self.0.core().policy.stats.clone()
    }

    /// The greatest tag processed so far.
    #[must_use]
    pub fn max_processed_tag(&self) -> Option<Tag> {
        self.0.core().policy.max_processed
    }

    /// The currently granted exclusive tag bound.
    #[must_use]
    pub fn granted_bound(&self) -> Option<Tag> {
        self.0.core().runtime.tag_bound()
    }

    /// Attaches a modelled compute cost to a reaction.
    pub fn set_reaction_cost(&self, reaction: ReactionId, model: LatencyModel) {
        self.0.set_reaction_cost(reaction, model);
    }

    /// The platform's local clock reading at the current simulation time.
    #[must_use]
    pub fn local_now(&self, sim: &Simulation) -> Instant {
        self.0.local_now(sim)
    }

    /// Runs a closure with mutable access to the runtime.
    pub fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        self.0.with_runtime(f)
    }

    /// Runtime statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.0.stats()
    }

    /// Attaches a durable event log. From `start` on, every granted
    /// bound, processed tag, registered input and outbox drain is
    /// appended, enabling [`CoordinatedPlatform::crash`] /
    /// [`CoordinatedPlatform::recover`].
    ///
    /// # Panics
    ///
    /// Panics if the platform already started — the log must see the
    /// `Started` anchor record first.
    pub fn attach_durable(&self, log: EventLog) {
        let mut core = self.0.core();
        assert!(!core.is_started(), "attach the durable log before start");
        core.policy.durable = Some(Box::new(Durable {
            log,
            input: Record::Input {
                key: 0,
                tag: Tag::ORIGIN,
                bytes: Vec::new(),
            },
        }));
    }

    /// Registers a serialization codec for a physical action, so
    /// payloads injected through [`PlatformDriver::inject_at`] /
    /// [`PlatformDriver::inject_now`] are durably logged and can be
    /// rebuilt during recovery replay. `encode` appends a value's bytes
    /// to the buffer it is given (one buffer, reused for every input).
    pub fn register_durable_input<T: 'static>(
        &self,
        action: PhysicalAction<T>,
        encode: impl Fn(&T, &mut Vec<u8>) + 'static,
        decode: impl Fn(&[u8]) -> Option<T> + 'static,
    ) {
        let key = action.id().index() as u32;
        let encode: EncodeFn =
            Rc::new(move |value, out| value.downcast_ref().map(|v| encode(v, out)).is_some());
        let replay: ReplayFn = Rc::new(move |runtime, tag, bytes| {
            decode(bytes)
                .map(|value| runtime.schedule_physical_at(&action, value, tag).is_ok())
                .unwrap_or(false)
        });
        let codec = InputCodec { encode, replay };
        self.0.core().policy.codecs.insert(key, codec);
    }

    /// Report of the most recent recovery, if any.
    #[must_use]
    pub fn last_recovery(&self) -> Option<PlatformRecovery> {
        self.0.core().policy.last_recovery
    }

    /// Kills the federate process: all armed wake-ups and scheduled
    /// outbox drains are stranded, undrained outputs are lost, and the
    /// control plane goes silent (the liveness watchdog will eventually
    /// declare the federate dead). Frames addressed to the federate keep
    /// landing in its durable log — the durable-inbox property recovery
    /// replay depends on. Idempotent while down.
    ///
    /// # Panics
    ///
    /// Panics if the platform has not started.
    pub fn crash(&self, sim: &Simulation) {
        let core = &mut *self.0.core();
        assert!(core.is_started(), "crash before start");
        if core.policy.crashed {
            return;
        }
        // In-flight outputs die with the process; replay decides which
        // of them the wire actually saw.
        core.halt();
        let c = &mut core.policy;
        c.crashed = true;
        c.crashed_at = Some(sim.now());
        c.epoch += 1;
        c.blocked_since = None;
        c.last_net = None;
        c.last_net_sent_at = None;
        if let Some(t) = &c.telemetry {
            t.observe.count("recovery/crashes", 1);
        }
    }

    /// Restarts a crashed federate from its durable log: replays every
    /// logged input and processed tag into `fresh` (a newly built
    /// runtime for the *same* program), suppressing outbound messages
    /// the previous incarnation already drained, re-sending the ones it
    /// did not, restoring the granted bound, and announcing the new
    /// incarnation to the coordinator with a `Rejoin` frame.
    ///
    /// Replay steps run at the clock readings the log recorded, so
    /// deadline misses — and anything a reaction read off the physical
    /// clock — come out exactly as the first incarnation saw them.
    ///
    /// # Panics
    ///
    /// Panics if the platform is not crashed or has no attached log.
    pub fn recover(&self, sim: &mut Simulation, fresh: Runtime) -> PlatformRecovery {
        let now = sim.now();
        let (report, resend) = {
            let core = &mut *self.0.core();
            assert!(core.policy.crashed, "recover on a live platform");
            let records = core
                .policy
                .log()
                .expect("recover requires an attached durable log")
                .replay();
            // Outbound watermark: everything at or below this tag was on
            // the wire before the crash and must not be sent twice.
            let watermark = records
                .iter()
                .filter_map(|r| match r {
                    Record::Drained { tag } => Some(*tag),
                    _ => None,
                })
                .max();
            core.restart(fresh);
            let c = &mut core.policy;
            let observe = c.telemetry.as_ref().map(|t| t.observe.clone());
            core.runtime
                .set_observe(observe.unwrap_or_default(), c.lane());
            c.incarnation += 1;
            c.dnet_flags = 0;
            c.max_processed = None;
            let crashed_at = c.crashed_at.take().unwrap_or(now);
            let mut report = PlatformRecovery {
                crashed_at,
                rejoined_at: now,
                outage: now - crashed_at,
                replayed_tags: 0,
                replayed_inputs: 0,
                suppressed_sends: 0,
                resent_sends: 0,
                last_processed: None,
                restored_bound: None,
                incarnation: c.incarnation,
                replay_mismatches: 0,
            };
            let mut resend: Vec<OutboundMsg> = Vec::new();
            let mut step = Vec::new();
            for record in &records {
                match record {
                    Record::Started { anchor } => {
                        core.runtime.start(Instant::from_nanos(*anchor));
                    }
                    Record::Input { key, tag, bytes } => {
                        let ok = c
                            .codecs
                            .get(key)
                            .is_some_and(|c| (c.replay)(&mut core.runtime, *tag, bytes));
                        if ok {
                            report.replayed_inputs += 1;
                        } else {
                            report.replay_mismatches += 1;
                        }
                    }
                    Record::Granted { bound } => {
                        report.restored_bound = report.restored_bound.max(Some(*bound));
                    }
                    Record::Processed { tag, local } => {
                        core.runtime.set_tag_bound(tag_succ(*tag));
                        match core.runtime.step(Instant::from_nanos(*local)) {
                            StepOutcome::Processed(summary) if summary.tag == *tag => {
                                report.replayed_tags += 1;
                                c.max_processed = c.max_processed.max(Some(summary.tag));
                            }
                            _ => report.replay_mismatches += 1,
                        }
                        // Outbound effects of the replayed step: swallow
                        // what the wire already saw, hold the rest for a
                        // post-replay re-send. One buffer takes every
                        // step's, so the outbox keeps its capacity.
                        core.outbox.drain_into(&mut step);
                        for msg in step.drain(..) {
                            if watermark.is_some_and(|w| wire_to_tag(msg.tag) <= w) {
                                c.stats.record_replay_suppressed();
                                report.suppressed_sends += 1;
                            } else {
                                resend.push(msg);
                            }
                        }
                    }
                    Record::Drained { .. } => {}
                }
            }
            if let Some(bound) = report.restored_bound {
                core.runtime.set_tag_bound(bound);
            }
            report.last_processed = c.max_processed;
            report.resent_sends = resend.len() as u64;
            c.crashed = false;
            if let Some(t) = &c.telemetry {
                let observe = &t.observe;
                observe.count("recovery/rejoins", 1);
                observe.record_value("recovery/replayed_tags", report.replayed_tags);
                observe.record_value("recovery/replayed_inputs", report.replayed_inputs);
                observe.record_value("recovery/suppressed_sends", report.suppressed_sends);
                observe.record_duration("recovery/outage_ns", now - crashed_at);
                observe.span(c.lane(), "rejoin", crashed_at, now);
            }
            (report, resend)
        };
        // Outputs the previous incarnation produced but never drained go
        // on the wire now — exactly once, after the suppression pass.
        self.0.dispatch(sim, resend);
        {
            let core = &mut *self.0.core();
            let c = &mut core.policy;
            // The Rejoin frame: tag = last replayed tag (TAG_NEVER when
            // the federate died before completing any), fence microstep
            // = the new incarnation, which must strictly exceed the one
            // the coordinator last saw.
            let rejoin = CoordMsg {
                kind: CoordKind::Rejoin,
                federate: c.federate.0,
                tag: c.max_processed.map_or(TAG_NEVER, tag_to_wire),
                fence: WireTag::new(0, c.incarnation),
            };
            c.send(sim, rejoin);
            c.last_recovery = Some(report);
            report_status(core, sim);
        }
        self.0.arm(sim);
        report
    }

    /// Starts the runtime, announces the federate to the RTI and arms the
    /// first wake-up.
    pub fn start(&self, sim: &mut Simulation) {
        self.0.start(sim);
    }

    /// Starts a periodic control-plane heartbeat: every `interval` the
    /// platform re-reports its NET (queue head + fence) to the RTI
    /// *unconditionally*, bypassing the change-suppression of the normal
    /// reporting path.
    ///
    /// This is what the RTI's liveness watchdog
    /// ([`Rti::enable_liveness`]) listens for: a federate blocked on a
    /// grant is silent on the normal path — it has nothing new to report
    /// — and without a heartbeat it would be indistinguishable from a
    /// dead one. The heartbeat keeps ticking until the federate resigns,
    /// so drive such simulations with `run_until`, not
    /// `run_to_completion`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn enable_heartbeat(&self, sim: &mut Simulation, interval: Duration) {
        assert!(interval > Duration::ZERO, "interval must be positive");
        let platform = self.clone();
        sim.schedule_in(interval, move |sim| platform.heartbeat_tick(sim, interval));
    }

    fn heartbeat_tick(&self, sim: &mut Simulation, interval: Duration) {
        {
            let core = &mut *self.0.core();
            if core.policy.resigned {
                return; // resignation ends the heartbeat
            }
            // A crashed process sends nothing — its silence is what the
            // liveness watchdog detects — but the tick keeps rescheduling
            // so the heartbeat resumes the moment recovery completes.
            if let Some(net) = next_net(core, sim.now(), true) {
                core.policy.send(sim, net);
            }
        }
        self.enable_heartbeat(sim, interval);
    }

    /// Requests runtime shutdown at the given local time.
    pub fn stop_at_local(&self, sim: &mut Simulation, local: Instant) {
        self.0.stop_at_local(sim, local);
    }
}

/// The unconstrained sentinel a source federate receives as its first
/// grant round-trips to [`TAG_MAX`].
const _: () = {
    // Compile-time reminder that TAG_NEVER and TAG_MAX are twins.
    assert!(TAG_NEVER.nanos == u64::MAX);
    assert!(TAG_MAX.microstep == u32::MAX);
};
