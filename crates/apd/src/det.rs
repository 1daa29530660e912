//! The deterministic brake assistant — the DEAR port of §IV.B.
//!
//! Topology and logic are identical to the nondeterministic build
//! ([`crate::nondet`]); only the coordination changes:
//!
//! * each pipeline SWC becomes a reactor program in its own process
//!   (a [`FederatedPlatform`]), bound to the same SOME/IP service
//!   interfaces through DEAR transactors;
//! * the Video Adapter is "a sensor that inserts frames into the reactor
//!   network with a tag equal to the physical time of message reception"
//!   (the untagged camera frames use [`UntaggedPolicy::PhysicalTime`]);
//! * every inter-SWC message carries a tag, and receivers release it
//!   PTIDES-style at `t + D + L + E`;
//! * Computer Vision "expects to receive two events with the same tag at
//!   both inputs. If only one input is received, this is considered an
//!   error";
//! * deadlines are the paper's: 5 ms (adapter), 25 ms (preprocessing),
//!   25 ms (computer vision), 5 ms (EBA); maximum communication latency
//!   L = 5 ms; clock error E = 0 (single platform).
//!
//! ## One assembly path
//!
//! [`run_det`] builds every configuration the same way. The shared world
//! (simulation, data network, service discovery, the DEAR bounds and the
//! logic's result sinks) is built once. The four stages come from one
//! table of name, node, binding, deadline and cost model; one function
//! builds each of them around its program declaration, the only code
//! that differs per stage. Consecutive rows are connected: a stage
//! publishes the service the next row subscribes to.
//!
//! The coordination strategy is nothing but the constructor that
//! function calls for each stage's driver: a plain [`FederatedPlatform`],
//! or a [`CoordinatedPlatform`] registered with the RTI of the optional
//! centralized coordinator, which derives its `D + L + E` edges from
//! consecutive rows and reports the control traffic. Redundancy (the
//! provider pair), recovery (a durable log on Computer Vision plus the
//! crash/restart hook) and observability attach as optional parts, then
//! one collect step reads the report.
//!
//! [`UntaggedPolicy::PhysicalTime`]: dear_transactors::UntaggedPolicy::PhysicalTime

use crate::logic::{detect_vehicles, eba_decide, StageTimings};
use crate::nondet::{nodes, services, Camera};
use crate::redundancy::build_redundant_providers;
use crate::types::{BrakeDecision, Frame, LaneBox, VehicleList};
use dear_core::{Port, ProgramBuilder, Reaction, ReactionCtx, Reactor, Runtime};
use dear_federation::{CoordinatedPlatform, EventLog, PlatformRecovery, Rti};
use dear_sim::{
    FaultPlan, LatencyModel, LinkConfig, NetworkHandle, NodeId, SimRng, Simulation, VirtualClock,
};
use dear_someip::{Binding, FrameBuf, FramePool, PayloadWriter, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, Coordination, DearConfig, EventSpec, FailoverBinding, FailoverEventSpec,
    FederatedPlatform, Outbox, PlatformDriver, ServerEventTransactor, TransactorStats,
};
use services::{
    ADAPTER, COMPUTER_VISION, EVENTGROUP, EVENT_AUX, EVENT_MAIN, INSTANCE, PREPROCESSING, VIDEO,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Per-stage sender deadlines (the paper's §IV.B values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDeadlines {
    /// Video Adapter forwarding deadline.
    pub adapter: Duration,
    /// Preprocessing deadline.
    pub preprocessing: Duration,
    /// Computer Vision deadline.
    pub computer_vision: Duration,
    /// EBA reaction deadline.
    pub eba: Duration,
}

impl Default for StageDeadlines {
    fn default() -> Self {
        StageDeadlines {
            adapter: Duration::from_millis(5),
            preprocessing: Duration::from_millis(25),
            computer_vision: Duration::from_millis(25),
            eba: Duration::from_millis(5),
        }
    }
}

/// How a redundant-provider failover scenario kills its primary.
///
/// The Video Provider runs twice: the primary on node
/// `PROVIDER` offers `(VIDEO, INSTANCE)` at priority 0, a warm
/// standby on node `PROVIDER_BACKUP` offers
/// `(VIDEO, BACKUP_INSTANCE)` at priority 1 and replicates the primary's
/// frame stream by subscribing to it. The primary crashes right after
/// sending frame [`primary_dies_after`](Self::primary_dies_after); the
/// standby resumes at the next frame id, and the adapter's
/// [`FailoverBinding`] re-binds to it — via StopOffer (graceful), TTL
/// lapse (crash), or heartbeat silence, whichever fires first.
///
/// [`FailoverBinding`]: dear_transactors::FailoverBinding
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyParams {
    /// The primary dies immediately after sending this frame id.
    pub primary_dies_after: u64,
    /// `true`: the dying primary sends a StopOffer (graceful shutdown,
    /// failover at the StopOffer tag). `false`: it goes silent and its
    /// offer lapses (failover at the TTL expiry tag, or earlier via the
    /// heartbeat watchdog).
    pub graceful: bool,
    /// Offer TTL — the SOME/IP-SD heartbeat deadline.
    pub offer_ttl: Duration,
    /// Offer renewal period (must be below `offer_ttl`, or healthy
    /// providers expire between renewals).
    pub reoffer_period: Duration,
    /// Event-silence watchdog on the adapter's failover binding and the
    /// standby's replication listener; `None` relies on SD alone. Must
    /// exceed one frame period plus jitter and `L`, or a healthy primary
    /// is suspected spuriously.
    pub heartbeat_timeout: Option<Duration>,
}

impl Default for RedundancyParams {
    /// Crash (non-graceful) of the primary after frame 249, 400 ms TTL
    /// renewed every 150 ms, no heartbeat watchdog.
    fn default() -> Self {
        RedundancyParams {
            primary_dies_after: 249,
            graceful: false,
            offer_ttl: Duration::from_millis(400),
            reoffer_period: Duration::from_millis(150),
            heartbeat_timeout: None,
        }
    }
}

/// What one failover scenario observed (all tags, so byte-comparable
/// across replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailoverReport {
    /// Tag of the primary's last frame (its death instant).
    pub(crate) primary_died_at: Instant,
    /// Tag at which the adapter re-bound to the backup.
    pub rebound_at: Option<Instant>,
    /// Adapter tag of the first frame received from the backup.
    pub(crate) first_backup_frame_at: Option<Instant>,
    /// Primary death → first backup frame at the adapter (the failover
    /// latency the `brake_assistant_det failover` example prints).
    pub failover_latency: Option<Duration>,
    /// Re-bindings performed by the adapter's failover binding.
    pub failovers: u64,
}

/// How a crash-recovery scenario kills and restarts a pipeline stage.
///
/// The Computer Vision federate runs with a durable event log attached
/// ([`dear_federation::EventLog`]): every started tag, granted bound and
/// injected input is appended before it takes effect. Mid-run the CV
/// node is killed
/// ([`dear_sim::FaultPlan::crash_node`]); while it is down, inbound
/// frames and grants keep landing in the log. After
/// [`dead_for`](Self::dead_for) the recovery driver rebuilds the
/// identical reactor program (action and reaction ids are structural),
/// replays the log — suppressing outbound messages the previous
/// incarnation already drained, re-sending the ones it never did — and
/// rejoins the RTI with a `Rejoin` frame. Because grants only ever
/// *delay* processing, the post-rejoin decision sequence is
/// byte-identical to a never-crashed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryParams {
    /// The CV federate is killed a quarter frame period after the
    /// nominal send time of this frame id (mid-cycle, with pipeline
    /// traffic in flight).
    pub crash_after_frame: u64,
    /// How long the node stays dead before the recovery driver restarts
    /// it. Must stay well inside the CV deadline plus `L` (25 + 5 ms by
    /// default), or catch-up resends arrive after their release tags
    /// and trip the safe-to-process check downstream.
    pub dead_for: Duration,
}

impl Default for RecoveryParams {
    /// Kill after frame 250 (mirroring [`RedundancyParams`]'s mid-run
    /// primary death), 10 ms outage.
    fn default() -> Self {
        RecoveryParams {
            crash_after_frame: 250,
            dead_for: Duration::from_millis(10),
        }
    }
}

/// Parameters of one deterministic-build instance.
#[derive(Debug, Clone)]
pub struct DetParams {
    /// Number of frames the provider sends.
    pub frames: u64,
    /// Frame period (50 ms).
    pub period: Duration,
    /// Provider period jitter.
    pub provider_jitter: Duration,
    /// Stage compute-time models.
    pub timings: StageTimings,
    /// Stage deadlines (paper: 5/25/25/5 ms).
    pub deadlines: StageDeadlines,
    /// Assumed maximum communication latency `L` (paper: 5 ms).
    pub latency_bound: Duration,
    /// Assumed maximum clock error `E` (paper: 0, same platform).
    pub clock_error: Duration,
    /// Provider → adapter link.
    pub ethernet: LinkConfig,
    /// Links between processes on platform 2.
    pub loopback: LinkConfig,
    /// Coordination strategy (the pipeline logic is identical under
    /// both; see `tests/federation_equivalence.rs`).
    pub coordination: Coordination,
    /// Enable the RTI's control-plane diet (DNET suppression, grant-ahead
    /// windows, periodic fast path) under centralized coordination. Off
    /// by default; ignored under decentralized coordination. Turning it
    /// on must not change any observable trace — only the control-frame
    /// counters in [`DetReport::coordination`].
    pub control_diet: bool,
    /// Record per-stage runtime event traces and report their
    /// fingerprints in [`DetReport::stage_traces`]. Off by default: the
    /// benchmark calls `run_det` in measured loops and tracing costs
    /// O(events) time and memory.
    pub record_traces: bool,
    /// Run the pipeline with a redundant Video Provider and kill the
    /// primary mid-run. `None` (the default) is the plain single-provider
    /// scenario, bit-identical to the pre-failover builds.
    pub redundancy: Option<RedundancyParams>,
    /// Attach a durable event log to the Computer Vision federate and
    /// kill + restart it mid-run ([`RecoveryParams`]). `None` (the
    /// default) is the plain scenario. Requires
    /// [`Coordination::Centralized`] — crash-recovery is a property of
    /// the coordinated driver.
    pub recovery: Option<RecoveryParams>,
    /// Enable the full telemetry spine (metrics + spans) for the run and
    /// report the final snapshot in [`DetReport::metrics_snapshot`]. Off
    /// by default for the same reason as [`DetParams::record_traces`];
    /// turning it on must not change any observable behaviour — the
    /// `observability` integration test holds fingerprints to that.
    pub observability: bool,
}

impl Default for DetParams {
    fn default() -> Self {
        let nd = crate::nondet::NondetParams::default();
        DetParams {
            frames: nd.frames,
            period: nd.period,
            provider_jitter: nd.provider_jitter,
            timings: nd.timings,
            deadlines: StageDeadlines::default(),
            latency_bound: Duration::from_millis(5),
            clock_error: Duration::ZERO,
            ethernet: nd.ethernet,
            loopback: nd.loopback,
            coordination: Coordination::Decentralized,
            control_diet: false,
            record_traces: false,
            redundancy: None,
            recovery: None,
            observability: false,
        }
    }
}

/// The outcome of one deterministic-build instance.
#[derive(Debug, Clone, Default)]
pub struct DetReport {
    /// Frames the provider sent.
    pub frames_sent: u64,
    /// Brake decisions in emission order.
    pub decisions: Vec<BrakeDecision>,
    /// Logical end-to-end latency per decision (EBA tag − adapter tag).
    pub end_to_end: Vec<Duration>,
    /// CV tag-alignment errors (must be zero).
    pub mismatches_cv: u64,
    /// Safe-to-process violations (must be zero when bounds hold).
    pub stp_violations: u64,
    /// Deadline misses across all platforms.
    pub deadline_misses: u64,
    /// Untagged messages dropped on strict paths (must be zero).
    pub untagged_dropped: u64,
    /// Decisions disagreeing with the reference logic (must be zero).
    pub wrong_decisions: u64,
    /// Per-stage runtime trace fingerprints, in pipeline order (empty
    /// unless [`DetParams::record_traces`] is set). Two runs are
    /// observably identical iff these match.
    pub stage_traces: Vec<(String, u64)>,
    /// Coordination-layer counters (all zero under decentralized
    /// coordination).
    pub coordination: CoordReport,
    /// Failover observations (`Some` iff [`DetParams::redundancy`] was
    /// set).
    pub failover: Option<FailoverReport>,
    /// The CV federate's recovery (`Some` iff [`DetParams::recovery`]
    /// was set): tags and counters, so byte-comparable across replays.
    pub recovery: Option<PlatformRecovery>,
    /// The run's deterministic metrics snapshot (empty unless
    /// [`DetParams::observability`] was set).
    pub metrics_snapshot: String,
}

/// Aggregated coordination-message counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordReport {
    /// NET reports sent by all stages.
    pub nets_sent: u64,
    /// LTC reports sent by all stages.
    pub ltcs_sent: u64,
    /// Grants received by all stages.
    pub grants_received: u64,
    /// Provisional (PTAG) grants among them.
    pub ptags_received: u64,
    /// Tags processed beyond a granted bound (must stay zero).
    pub bound_breaches: u64,
    /// Total time stages spent blocked waiting for grants.
    pub grant_wait: Duration,
    /// Reports suppressed before hitting the wire (control diet only:
    /// same-head NET dedup plus DNET sink suppression).
    pub nets_suppressed: u64,
    /// Windowed TAG grants received (control diet only).
    pub windowed_grants: u64,
    /// Whether every stage's greatest processed tag stayed strictly
    /// below its final granted bound (vacuously true when no bounds are
    /// in play).
    pub within_bound: bool,
}

impl DetReport {
    /// FNV fingerprint of the decision sequence.
    #[must_use]
    pub fn decision_fingerprint(&self) -> u64 {
        crate::types::decision_fingerprint(&self.decisions)
    }
}

/// Video Adapter logic: "a sensor that inserts frames into the reactor
/// network with a tag equal to the physical time of message reception" —
/// each forwarded frame is stamped with the reception tag. The state is
/// the pool its payloads are encoded into.
#[derive(Reactor)]
#[reactor(state = FramePool)]
struct AdapterLogic {
    #[output]
    frame: Port<FrameBuf>,
    #[external]
    camera: Port<FrameBuf>,
    #[reaction(triggers(camera), effects(frame))]
    adapt: Reaction,
}

impl AdapterLogic {
    fn adapt(pool: &mut FramePool, this: &Self, ctx: &mut ReactionCtx<'_>) {
        let mut frame =
            Frame::from_payload(ctx.get(this.camera).unwrap()).expect("camera frame payload");
        // The sensor stamp: the tag equals the physical reception time
        // of the frame.
        frame.adapter_nanos = ctx.tag().time.as_nanos();
        ctx.set(this.frame, frame.encode(PayloadWriter::pooled(pool)));
    }
}

/// Preprocessing logic: lane detection plus a same-tag forward of the
/// raw frame for Computer Vision's alignment check. The frame is
/// forwarded as received; the lane is encoded into the pool the state
/// holds.
#[derive(Reactor)]
#[reactor(state = FramePool)]
struct PreprocessingLogic {
    #[output]
    lane: Port<FrameBuf>,
    #[output]
    frame: Port<FrameBuf>,
    #[external]
    frames: Port<FrameBuf>,
    #[reaction(triggers(frames), effects(lane, frame))]
    preprocess: Reaction,
}

impl PreprocessingLogic {
    fn preprocess(pool: &mut FramePool, this: &Self, ctx: &mut ReactionCtx<'_>) {
        let received = ctx.get(this.frames).unwrap().clone();
        let frame = Frame::from_payload(&received).expect("frame payload");
        let lane = crate::logic::preprocess(&frame);
        ctx.set(this.lane, lane.encode(PayloadWriter::pooled(pool)));
        ctx.set(this.frame, received);
    }
}

/// Computer Vision logic: "expects to receive two events with the same
/// tag at both inputs. If only one input is received, this is considered
/// an error" — the state counts those tag-alignment errors, beside the
/// pool the vehicle lists are encoded into.
#[derive(Reactor)]
#[reactor(state = (Rc<Cell<u64>>, FramePool))]
struct ComputerVisionLogic {
    #[output]
    vehicles: Port<FrameBuf>,
    #[external]
    lane: Port<FrameBuf>,
    #[external]
    frame: Port<FrameBuf>,
    #[reaction(triggers(lane, frame), effects(vehicles))]
    detect: Reaction,
}

impl ComputerVisionLogic {
    fn detect(
        (mismatches, pool): &mut (Rc<Cell<u64>>, FramePool),
        this: &Self,
        ctx: &mut ReactionCtx<'_>,
    ) {
        let lane = ctx
            .get(this.lane)
            .map(|p| LaneBox::from_payload(p).expect("lane payload"));
        let frame = ctx
            .get(this.frame)
            .map(|p| Frame::from_payload(p).expect("frame payload"));
        match (lane, frame) {
            (Some(lane), Some(frame)) if lane.frame_id == frame.id => {
                let vehicles = detect_vehicles(&frame, &lane);
                ctx.set(this.vehicles, vehicles.encode(PayloadWriter::pooled(pool)));
            }
            // "If only one input is received, this is considered an
            // error."
            _ => mismatches.set(mismatches.get() + 1),
        }
    }
}

/// Decisions collected from the EBA stage: `(decision, eba_tag_nanos,
/// adapter_tag_nanos)` in emission order.
type DecisionSink = Rc<RefCell<Vec<(BrakeDecision, u64, u64)>>>;

/// EBA logic: brake decisions under the paper's 5 ms reaction deadline.
/// The deadline is a run parameter, so it arrives as an `#[external]`
/// value rather than a literal in the attribute.
#[derive(Reactor)]
#[reactor(state = DecisionSink)]
struct EbaLogic {
    #[external]
    vehicles: Port<FrameBuf>,
    #[external]
    deadline: Duration,
    #[reaction(triggers(vehicles), deadline = this.deadline, on_deadline = decide_late)]
    decide: Reaction,
}

impl EbaLogic {
    fn decide(sink: &mut DecisionSink, this: &Self, ctx: &mut ReactionCtx<'_>) {
        let vehicles =
            VehicleList::from_payload(ctx.get(this.vehicles).unwrap()).expect("vehicles payload");
        let brake = eba_decide(&vehicles);
        sink.borrow_mut().push((
            BrakeDecision {
                frame_id: vehicles.frame_id,
                brake,
            },
            ctx.tag().time.as_nanos(),
            vehicles.adapter_nanos,
        ));
    }

    fn decide_late(sink: &mut DecisionSink, this: &Self, ctx: &mut ReactionCtx<'_>) {
        // Deadline miss: the decision is still produced (and the miss is
        // counted by the runtime) — late but observable, never silently
        // lost.
        Self::decide(sink, this, ctx);
    }
}

/// Where the stage logic reports: CV's tag-alignment errors and EBA's
/// decisions. A rebuilt CV incarnation counts into the same sink.
#[derive(Clone, Default)]
struct Sinks {
    mismatches: Rc<Cell<u64>>,
    decisions: DecisionSink,
}

/// Offer TTL of every plain service: effectively forever.
const OFFER_TTL: Duration = Duration::from_secs(1 << 30);

/// A stage's event ids, by position among its inputs or its outputs.
const EVENTS: [u16; 2] = [EVENT_MAIN, EVENT_AUX];

/// Index of Computer Vision in the stage table: the stage a recovery
/// scenario kills.
const CV: usize = 2;

/// A pipeline event: every service runs one instance and one eventgroup.
fn spec(service: u16, event: u16) -> EventSpec {
    EventSpec {
        service,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event,
    }
}

/// One row of the stage table: where a stage runs and what it costs.
#[derive(Clone, Copy)]
struct StageRow<'p> {
    name: &'static str,
    node: NodeId,
    /// SOME/IP client id of the stage's data-plane binding.
    binding: u16,
    /// Sender deadline of what the stage publishes (EBA: the deadline of
    /// its decision).
    deadline: Duration,
    cost: &'p LatencyModel,
    /// Label of the stage's compute-cost RNG stream.
    cost_rng: &'static str,
    /// The service the stage's inputs subscribe to.
    subscribes: u16,
}

impl StageRow<'_> {
    /// The Video Adapter: the one stage fed by the untagged camera, from
    /// outside the federation.
    fn is_sensor(&self) -> bool {
        self.subscribes == VIDEO
    }
}

/// The pipeline, upstream first: each stage publishes the service the
/// next row subscribes to.
#[rustfmt::skip]
fn stage_table(params: &DetParams) -> [StageRow<'_>; 4] {
    let (d, t) = (&params.deadlines, &params.timings);
    let row = |name, node, binding, deadline, cost, cost_rng, subscribes| StageRow {
        name, node, binding, deadline, cost, cost_rng, subscribes,
    };
    [
        row("adapter",         nodes::ADAPTER,         0x20, d.adapter,         &t.adapter,         "adapter-costs", VIDEO),
        row("preprocessing",   nodes::PREPROCESSING,   0x30, d.preprocessing,   &t.preprocessing,   "preproc-costs", ADAPTER),
        row("computer_vision", nodes::COMPUTER_VISION, 0x40, d.computer_vision, &t.computer_vision, "cv-costs",      PREPROCESSING),
        row("eba",             nodes::EBA,             0x50, d.eba,             &t.eba,             "eba-costs",     COMPUTER_VISION),
    ]
}

/// A stage program under declaration: the builder, plus what the
/// stage's transactors and logic share.
struct Decl<'a> {
    b: ProgramBuilder,
    outbox: &'a Outbox,
    deadline: Duration,
    sinks: &'a Sinks,
}

impl Decl<'_> {
    /// A transactor subscribing to one upstream event.
    fn input(&mut self, name: &str) -> ClientEventTransactor {
        ClientEventTransactor::declare(&mut self.b, name)
    }

    /// A transactor publishing one of the stage's events under its
    /// deadline, through its outbox.
    fn output(&mut self, name: &str) -> ServerEventTransactor {
        ServerEventTransactor::declare(&mut self.b, self.outbox, name, self.deadline)
    }
}

/// What a stage program declares around its logic: the name of the
/// reaction the stage's cost model applies to, the transactors
/// subscribing to the upstream service's events and those publishing the
/// stage's own, each in [`EVENTS`] order.
type Ports<const I: usize, const O: usize> = (
    &'static str,
    [ClientEventTransactor; I],
    [ServerEventTransactor; O],
);

/// A stage program declaration: the only code that differs per stage.
type Declare<const I: usize, const O: usize> = fn(&mut Decl<'_>) -> Ports<I, O>;

fn adapter_program(d: &mut Decl<'_>) -> Ports<1, 1> {
    let camera = d.input("camera");
    let publish = d.output("frames");
    let externals = AdapterLogicExternals {
        camera: camera.event,
    };
    let logic: AdapterLogic =
        d.b.declare_ext("adapter_logic", FramePool::new(), externals);
    d.b.connect(logic.frame, publish.event).unwrap();
    ("adapter_logic.adapt", [camera], [publish])
}

fn preprocessing_program(d: &mut Decl<'_>) -> Ports<1, 2> {
    let frames = d.input("frames");
    let (lane, frame) = (d.output("lane"), d.output("frame_fwd"));
    let externals = PreprocessingLogicExternals {
        frames: frames.event,
    };
    let pool = FramePool::new();
    let logic: PreprocessingLogic = d.b.declare_ext("preprocessing_logic", pool, externals);
    d.b.connect(logic.lane, lane.event).unwrap();
    d.b.connect(logic.frame, frame.event).unwrap();
    ("preprocessing_logic.preprocess", [frames], [lane, frame])
}

/// A recovered incarnation rebuilds exactly this program: action and
/// reaction ids are structural, so the input codecs, route handlers and
/// cost model registered for the dead incarnation apply to the new one.
fn cv_program(d: &mut Decl<'_>) -> Ports<2, 1> {
    let (lane, frame) = (d.input("lane"), d.input("frame_fwd"));
    let publish = d.output("vehicles");
    let externals = ComputerVisionLogicExternals {
        lane: lane.event,
        frame: frame.event,
    };
    let state = (d.sinks.mismatches.clone(), FramePool::new());
    let logic: ComputerVisionLogic = d.b.declare_ext("computer_vision_logic", state, externals);
    d.b.connect(logic.vehicles, publish.event).unwrap();
    ("computer_vision_logic.detect", [lane, frame], [publish])
}

fn eba_program(d: &mut Decl<'_>) -> Ports<1, 0> {
    let vehicles = d.input("vehicles");
    let externals = EbaLogicExternals {
        vehicles: vehicles.event,
        deadline: d.deadline,
    };
    let _: EbaLogic =
        d.b.declare_ext("eba_logic", d.sinks.decisions.clone(), externals);
    ("eba_logic.decide", [vehicles], [])
}

/// Declares a stage program on a fresh builder and builds its runtime.
fn build<const I: usize, const O: usize>(
    declare: Declare<I, O>,
    outbox: &Outbox,
    deadline: Duration,
    sinks: &Sinks,
) -> (Runtime, Ports<I, O>) {
    let mut d = Decl {
        b: ProgramBuilder::new(),
        outbox,
        deadline,
        sinks,
    };
    let ports = declare(&mut d);
    (Runtime::new(d.b.build().expect("stage program")), ports)
}

/// Centralized coordination: an RTI grants every stage its tag advances.
/// It sits on a coordination network of its own (RTI traffic only, so
/// control messages never perturb data-plane latencies) whose ideal
/// links keep it in order, as `Rti::new` requires. The data plane is
/// untouched, so traces stay bit-identical to the decentralized build.
struct Coordinator {
    net: NetworkHandle,
    sd: SdRegistry,
    rti: Rti,
    /// The stage platforms, in table order.
    stages: RefCell<Vec<CoordinatedPlatform>>,
}

impl Coordinator {
    /// Built before any stage: each platform samples the diet mode once,
    /// at construction.
    fn new(sim: &mut Simulation, control_diet: bool) -> Self {
        let link = LinkConfig::ideal(Duration::from_micros(10));
        let net = NetworkHandle::new(link, sim.fork_rng("coord-net"));
        let sd = SdRegistry::new();
        let rti = Rti::new(sim, &net, &sd, nodes::RTI);
        if control_diet {
            rti.enable_control_diet();
        }
        Coordinator {
            net,
            sd,
            rti,
            stages: RefCell::default(),
        }
    }

    /// The next stage's driver: a platform registered with the RTI. Only
    /// the sensor takes physical inputs from outside the federation.
    fn platform(
        &self,
        row: &StageRow<'_>,
        runtime: Runtime,
        outbox: Outbox,
        costs: SimRng,
    ) -> CoordinatedPlatform {
        let mut stages = self.stages.borrow_mut();
        let id = 0x70 + u16::try_from(stages.len()).expect("stage count");
        let binding = Binding::new(&self.net, &self.sd, row.node, id);
        let clock = VirtualClock::ideal();
        let (rti, external) = (&self.rti, row.is_sensor());
        let platform = CoordinatedPlatform::new(
            row.name, runtime, clock, outbox, costs, rti, &binding, external,
        );
        stages.push(platform.clone());
        platform
    }

    /// Declares the `D + L + E` edge from each stage to the next.
    fn connect(&self, rows: &[StageRow<'_>], stp: Duration) {
        let stages = self.stages.borrow();
        for ((up, down), row) in stages.iter().zip(&stages[1..]).zip(rows) {
            self.rti
                .connect(up.federate_id(), down.federate_id(), row.deadline + stp);
        }
    }

    /// The stages' control traffic: none without a coordinator.
    fn report(coordinator: Option<&Self>) -> CoordReport {
        let mut report = CoordReport {
            within_bound: true,
            ..CoordReport::default()
        };
        let Some(coordinator) = coordinator else {
            return report;
        };
        for p in coordinator.stages.borrow().iter() {
            let cs = p.coordination_stats();
            report.nets_sent += cs.nets_sent();
            report.ltcs_sent += cs.ltcs_sent();
            report.grants_received += cs.grants_received();
            report.ptags_received += cs.ptags_received();
            report.bound_breaches += cs.bound_breaches();
            report.grant_wait += cs.grant_wait();
            report.nets_suppressed += cs.nets_suppressed();
            report.windowed_grants += cs.windowed_grants();
            if let (Some(max), Some(bound)) = (p.max_processed_tag(), p.granted_bound()) {
                report.within_bound &= max < bound;
            }
        }
        report
    }
}

/// Runs one seeded instance of the deterministic brake assistant under
/// the configured coordination strategy.
///
/// # Panics
///
/// Panics if [`DetParams::redundancy`] is set with
/// `primary_dies_after >= frames` — a redundancy scenario must kill its
/// primary within the run. Likewise panics if [`DetParams::recovery`]
/// is set with `crash_after_frame >= frames`, or under
/// [`Coordination::Decentralized`] (crash-recovery replays granted
/// bounds, a property only the centralized driver has).
#[must_use]
pub fn run_det(seed: u64, params: &DetParams) -> DetReport {
    let mut world = World::new(seed, params);
    match params.coordination {
        Coordination::Decentralized => world.assemble(None, |row, runtime, outbox, costs| {
            FederatedPlatform::new(row.name, runtime, VirtualClock::ideal(), outbox, costs)
        }),
        Coordination::Centralized => {
            let coordinator = Coordinator::new(&mut world.sim, params.control_diet);
            world.assemble(Some(&coordinator), |row, runtime, outbox, costs| {
                coordinator.platform(row, runtime, outbox, costs)
            })
        }
    }
}

/// The world every configuration shares, and what its optional parts
/// leave behind for the report.
struct World<'p> {
    params: &'p DetParams,
    rows: [StageRow<'p>; 4],
    sim: Simulation,
    net: NetworkHandle,
    sd: SdRegistry,
    cfg: DearConfig,
    sinks: Sinks,
    /// Every input transactor's counters, in stage order.
    inputs: Vec<TransactorStats>,
    /// Redundancy: the camera's failover binding.
    failover: Option<FailoverBinding>,
    /// Redundancy: where the primary's death instant lands.
    primary_death: Option<Rc<Cell<Option<Instant>>>>,
    /// Recovery: the CV platform restarted from its durable log.
    recovered: Option<CoordinatedPlatform>,
}

impl<'p> World<'p> {
    fn new(seed: u64, params: &'p DetParams) -> Self {
        let mut sim = Simulation::new(seed);
        if params.observability {
            sim.enable_observability();
        }
        let net = NetworkHandle::new(params.loopback.clone(), sim.fork_rng("net"));
        net.configure_link(nodes::PROVIDER, nodes::ADAPTER, params.ethernet.clone());
        World {
            params,
            rows: stage_table(params),
            sim,
            net,
            sd: SdRegistry::new(),
            cfg: DearConfig::new(params.latency_bound, params.clock_error),
            sinks: Sinks::default(),
            inputs: Vec::with_capacity(5),
            failover: None,
            primary_death: None,
            recovered: None,
        }
    }

    /// Builds the four stages with `make` constructing each driver,
    /// attaches the optional parts, and runs. Recovery attaches between
    /// the CV and EBA stages, the provider after EBA: the calendar orders
    /// same-instant events by when they were scheduled.
    fn assemble<D: PlatformDriver>(
        mut self,
        coordinator: Option<&Coordinator>,
        mut make: impl FnMut(&StageRow<'_>, Runtime, Outbox, SimRng) -> D,
    ) -> DetReport {
        let (adapter, ..) = self.stage(0, adapter_program, &mut make);
        let (preprocessing, ..) = self.stage(1, preprocessing_program, &mut make);
        let (cv, cv_outbox, cv_inputs) = self.stage(CV, cv_program, &mut make);
        if let Some(rec) = self.params.recovery {
            let coordinator =
                coordinator.expect("DetParams::recovery requires Coordination::Centralized");
            let platform = coordinator.stages.borrow()[CV].clone();
            self.attach_recovery(rec, platform, cv_outbox, cv_inputs);
        }
        let (eba, ..) = self.stage(3, eba_program, &mut make);
        self.attach_provider();
        if let Some(coordinator) = coordinator {
            let stp = self.params.latency_bound + self.params.clock_error;
            coordinator.connect(&self.rows, stp);
        }
        self.run([adapter, preprocessing, cv, eba], coordinator)
    }

    /// Builds stage `i` of the table around its program declaration:
    /// outbox, program, binding, cost RNG, driver, cost model, the offer
    /// of the service it publishes (the next row's subscription) and the
    /// transactor binds. Returns the driver, the outbox and the inputs.
    fn stage<D: PlatformDriver, const I: usize, const O: usize>(
        &mut self,
        i: usize,
        declare: Declare<I, O>,
        make: &mut impl FnMut(&StageRow<'_>, Runtime, Outbox, SimRng) -> D,
    ) -> (D, Outbox, [ClientEventTransactor; I]) {
        let row = self.rows[i];
        let outbox = Outbox::new();
        let (runtime, (logic, inputs, outputs)) =
            build(declare, &outbox, row.deadline, &self.sinks);
        let logic = runtime
            .program()
            .find_reaction(logic)
            .expect("logic reaction");
        let binding = Binding::new(&self.net, &self.sd, row.node, row.binding);
        let costs = self.sim.fork_rng(row.cost_rng);
        let driver = make(&row, runtime, outbox.clone(), costs);
        driver.set_reaction_cost(logic, row.cost.clone());
        if let Some(service) = self.rows.get(i + 1).map(|next| next.subscribes) {
            let instance = ServiceInstance::new(service, INSTANCE);
            binding.offer(&mut self.sim, instance, OFFER_TTL);
            for (output, event) in outputs.iter().zip(EVENTS) {
                output.bind(&driver, &binding, spec(service, event));
            }
        }
        for (input, event) in inputs.iter().zip(EVENTS) {
            let spec = spec(row.subscribes, event);
            let stats = if row.is_sensor() {
                self.bind_camera(input, &driver, &binding, spec)
            } else {
                input.bind(&driver, &binding, spec, self.cfg)
            };
            self.inputs.push(stats);
        }
        (driver, outbox, inputs)
    }

    /// Binds the sensor's camera input: untagged frames enter at their
    /// physical reception time. With a redundant provider group it binds
    /// through a [`FailoverBinding`] tracking the best offer; the plain
    /// scenario keeps the fixed-instance bind, bit-identical to the
    /// pre-failover builds.
    fn bind_camera(
        &mut self,
        camera: &ClientEventTransactor,
        driver: &impl PlatformDriver,
        binding: &Binding,
        spec: EventSpec,
    ) -> TransactorStats {
        let cfg = self.cfg.accept_untagged();
        let Some(red) = self.params.redundancy else {
            return camera.bind(driver, binding, spec, cfg);
        };
        let group = FailoverEventSpec {
            service: spec.service,
            eventgroup: spec.eventgroup,
            event: spec.event,
        };
        let (stats, failover) = camera.bind_failover(&mut self.sim, driver, binding, group, cfg);
        if let Some(timeout) = red.heartbeat_timeout {
            failover.enable_heartbeat(&mut self.sim, timeout);
        }
        self.failover = Some(failover);
        stats
    }

    /// Recovery: a durable log on the CV platform, and the fault plan
    /// that kills its node mid-cycle after frame `crash_after_frame` and
    /// restarts it `dead_for` later, replaying the log into a rebuilt
    /// program.
    fn attach_recovery(
        &mut self,
        rec: RecoveryParams,
        platform: CoordinatedPlatform,
        outbox: Outbox,
        inputs: [ClientEventTransactor; 2],
    ) {
        let params = self.params;
        assert!(
            rec.crash_after_frame < params.frames,
            "a recovery scenario must kill the CV federate within the run"
        );
        platform.attach_durable(EventLog::in_memory());
        // Both CV inboxes carry raw SOME/IP payloads; the codec is the
        // identity. The action ids are structural, so the rebuilt
        // incarnation replays into the same inboxes.
        for input in inputs {
            platform.register_durable_input(
                input.action(),
                |frame: &FrameBuf, out| out.extend_from_slice(frame),
                |bytes| Some(bytes.to_vec().into()),
            );
        }

        let (node, deadline) = (self.rows[CV].node, self.rows[CV].deadline);
        let crash_at = Instant::EPOCH
            + params.period * i64::try_from(rec.crash_after_frame).expect("frame id")
            + Duration::from_nanos(params.period.as_nanos() / 4);
        let mut plan = FaultPlan::new();
        plan.crash_node(crash_at, node)
            .restore_node(crash_at + rec.dead_for, node);
        plan.apply(&mut self.sim, &self.net);

        self.recovered = Some(platform.clone());
        let (sinks, record_traces) = (self.sinks.clone(), params.record_traces);
        self.net.on_node_event(move |sim, changed, up| {
            if changed != node {
                return;
            }
            if up {
                // The replacement incarnation: reset the outbox so the
                // rebuilt transactors re-claim the same route ids,
                // rebuild the identical program, and replay the log.
                outbox.reset();
                let (mut runtime, _) = build(cv_program, &outbox, deadline, &sinks);
                if record_traces {
                    runtime.enable_tracing();
                }
                platform.recover(sim, runtime);
            } else {
                platform.crash(sim);
            }
        });
    }

    /// The Video Provider: a plain, untagged AP component, or with
    /// redundancy a primary/standby pair.
    fn attach_provider(&mut self) {
        let params = self.params;
        if let Some(red) = params.redundancy {
            let death = build_redundant_providers(&mut self.sim, &self.net, &self.sd, params, red);
            self.primary_death = Some(death);
            return;
        }
        let binding = Binding::new(&self.net, &self.sd, nodes::PROVIDER, 0x10);
        let instance = ServiceInstance::new(VIDEO, INSTANCE);
        binding.offer(&mut self.sim, instance, OFFER_TTL);
        let rng = self.sim.fork_rng("provider");
        let (frames, period, jitter) = (params.frames, params.period, params.provider_jitter);
        Camera::new(binding, instance, frames, period, jitter, rng)
            .register(&mut self.sim)
            .arm(&mut self.sim, Duration::ZERO);
    }

    /// Starts every stage, runs past the last frame and collects the
    /// report.
    fn run<D: PlatformDriver>(
        mut self,
        stages: [D; 4],
        coordinator: Option<&Coordinator>,
    ) -> DetReport {
        let params = self.params;
        for stage in &stages {
            if params.record_traces {
                stage.with_runtime(|rt| rt.enable_tracing());
            }
            stage.start(&mut self.sim);
        }
        let horizon = Instant::EPOCH
            + params.period * i64::try_from(params.frames).expect("frame count")
            + Duration::from_secs(1);
        self.sim.run_until(horizon);

        let mut report = DetReport {
            frames_sent: params.frames,
            coordination: Coordinator::report(coordinator),
            mismatches_cv: self.sinks.mismatches.get(),
            ..DetReport::default()
        };
        for stage in &stages {
            let rt = stage.runtime_stats();
            report.stp_violations += rt.stp_violations;
            report.deadline_misses += rt.deadline_misses;
            if params.record_traces {
                let trace = stage.with_runtime(|rt| rt.take_trace()).fingerprint();
                report.stage_traces.push((stage.driver_name(), trace));
            }
        }
        for s in &self.inputs {
            report.stp_violations += s.stp_violations();
            report.untagged_dropped += s.untagged_dropped();
        }

        let collected = self.sinks.decisions.take();
        report.failover = params.redundancy.map(|red| {
            let failover = self
                .failover
                .expect("the camera binds through a FailoverBinding");
            let primary_died_at = self.primary_death.and_then(|at| at.get());
            let primary_died_at =
                primary_died_at.expect("redundancy scenarios kill the primary within the horizon");
            let first_backup_frame_at = collected
                .iter()
                .find(|(d, _, _)| d.frame_id > red.primary_dies_after)
                .map(|&(_, _, adapter_nanos)| Instant::from_nanos(adapter_nanos));
            FailoverReport {
                primary_died_at,
                rebound_at: failover.last_failover_at(),
                first_backup_frame_at,
                failover_latency: first_backup_frame_at.map(|at| at - primary_died_at),
                failovers: failover.failovers(),
            }
        });
        report.recovery = self.recovered.map(|cv| {
            cv.last_recovery()
                .expect("recovery scenarios restart the CV federate within the horizon")
        });

        let latency = |&(_, eba, adapter): &(_, u64, u64)| {
            Duration::from_nanos(i64::try_from(eba - adapter).expect("latency fits"))
        };
        report.end_to_end = collected.iter().map(latency).collect();
        report.decisions = collected.into_iter().map(|(d, ..)| d).collect();
        report.wrong_decisions = report
            .decisions
            .iter()
            .filter(|d| d.brake != crate::logic::reference_decision(d.frame_id))
            .count() as u64;
        report.metrics_snapshot = self.sim.observe().snapshot();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> DetParams {
        DetParams {
            frames: 100,
            ..DetParams::default()
        }
    }

    #[test]
    fn deterministic_build_is_error_free() {
        let report = run_det(1, &small_params());
        assert_eq!(report.decisions.len(), 100, "every frame decided");
        assert_eq!(report.mismatches_cv, 0);
        assert_eq!(report.stp_violations, 0);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.untagged_dropped, 0);
        assert_eq!(report.wrong_decisions, 0);
        // Frames arrive in order, none dropped.
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn end_to_end_latency_is_the_constant_deadline_sum() {
        let params = small_params();
        let report = run_det(3, &params);
        // (Da + L) + (Dp + L) + (Dcv + L) = 10 + 30 + 30 = 70 ms.
        let expected = Duration::from_millis(70);
        for (i, &l) in report.end_to_end.iter().enumerate() {
            assert_eq!(l, expected, "decision {i}");
        }
    }

    #[test]
    fn decisions_identical_across_seeds() {
        let params = small_params();
        let fp: Vec<u64> = (0..5)
            .map(|s| run_det(s, &params).decision_fingerprint())
            .collect();
        for f in &fp[1..] {
            assert_eq!(*f, fp[0], "decision sequence must not depend on seed");
        }
    }

    #[test]
    fn centralized_coordination_is_observably_identical() {
        let mut params = small_params();
        params.frames = 50;
        params.record_traces = true;
        let dec = run_det(2, &params);
        params.coordination = Coordination::Centralized;
        let cen = run_det(2, &params);
        assert_eq!(dec.stage_traces, cen.stage_traces, "event traces");
        assert_eq!(dec.decision_fingerprint(), cen.decision_fingerprint());
        assert_eq!(cen.stp_violations, 0);
        // The grant machinery ran and was never outrun.
        assert!(cen.coordination.grants_received > 0);
        assert!(cen.coordination.within_bound);
        assert_eq!(cen.coordination.bound_breaches, 0);
        // Decentralized runs carry no coordination traffic at all.
        assert_eq!(dec.coordination.grants_received, 0);
    }

    fn failover_params(graceful: bool, heartbeat: Option<Duration>) -> DetParams {
        DetParams {
            frames: 120,
            redundancy: Some(RedundancyParams {
                primary_dies_after: 49,
                graceful,
                offer_ttl: Duration::from_millis(400),
                reoffer_period: Duration::from_millis(150),
                heartbeat_timeout: heartbeat,
            }),
            ..DetParams::default()
        }
    }

    #[test]
    fn graceful_failover_delivers_every_frame_exactly_once() {
        let report = run_det(1, &failover_params(true, None));
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(
            ids,
            (0..120).collect::<Vec<u64>>(),
            "no frame lost, none duplicated across the handover"
        );
        assert_eq!(report.mismatches_cv, 0);
        assert_eq!(report.stp_violations, 0);
        assert_eq!(report.wrong_decisions, 0);
        let fo = report.failover.expect("failover report");
        assert_eq!(fo.failovers, 1, "exactly one re-binding");
        // Graceful: the StopOffer triggers the re-binding at the very
        // tag the primary died.
        assert_eq!(fo.rebound_at, Some(fo.primary_died_at));
        let latency = fo.failover_latency.expect("backup delivered");
        assert!(
            latency > Duration::ZERO && latency < Duration::from_millis(100),
            "graceful handover costs about one frame period, got {latency}"
        );
    }

    #[test]
    fn crash_failover_rebinds_at_the_ttl_expiry_tag() {
        let params = failover_params(false, None);
        let red = params.redundancy.unwrap();
        let report = run_det(2, &params);
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(ids, (0..120).collect::<Vec<u64>>());
        let fo = report.failover.expect("failover report");
        assert_eq!(fo.failovers, 1);
        // Silent crash: the offer of the dead primary lapses exactly one
        // nanosecond after its last renewal's TTL ran out.
        let died = fo.primary_died_at;
        let renewals =
            i64::try_from(died.as_nanos()).expect("tag fits") / red.reoffer_period.as_nanos();
        let last_renewal = Instant::EPOCH + red.reoffer_period * renewals;
        assert_eq!(
            fo.rebound_at,
            Some(last_renewal + red.offer_ttl + Duration::from_nanos(1)),
            "died at {died}"
        );
        assert!(fo.failover_latency.unwrap() > red.offer_ttl / 2);
    }

    #[test]
    fn heartbeat_watchdog_beats_ttl_expiry() {
        let slow = run_det(3, &failover_params(false, None));
        let fast = run_det(3, &failover_params(false, Some(Duration::from_millis(150))));
        for r in [&slow, &fast] {
            assert_eq!(r.decisions.len(), 120);
            assert_eq!(r.failover.unwrap().failovers, 1);
        }
        let slow_latency = slow.failover.unwrap().failover_latency.unwrap();
        let fast_latency = fast.failover.unwrap().failover_latency.unwrap();
        assert!(
            fast_latency < slow_latency,
            "silence detection ({fast_latency}) must beat TTL expiry ({slow_latency})"
        );
    }

    #[test]
    fn failover_decisions_identical_across_seeds() {
        for params in [
            failover_params(true, None),
            failover_params(false, None),
            failover_params(false, Some(Duration::from_millis(150))),
        ] {
            let fp: Vec<u64> = (0..4)
                .map(|s| run_det(s, &params).decision_fingerprint())
                .collect();
            for f in &fp[1..] {
                assert_eq!(*f, fp[0], "decision sequence must not depend on seed");
            }
        }
    }

    #[test]
    fn failover_replay_is_byte_identical() {
        // The determinism claim under faults: the same seed replays the
        // whole run — including the crash, the SD churn and the
        // re-binding — with byte-identical per-stage event traces.
        let mut params = failover_params(false, Some(Duration::from_millis(150)));
        params.record_traces = true;
        let a = run_det(7, &params);
        let b = run_det(7, &params);
        assert_eq!(a.stage_traces, b.stage_traces);
        assert_eq!(a.failover, b.failover);
        assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
        assert!(!a.stage_traces.is_empty());
    }

    #[test]
    fn aggressive_deadlines_cause_observable_errors() {
        // "For certain applications it is acceptable to deliberately
        // introduce the possibility of sporadic errors by setting
        // deadlines to values lower than the actual WCET" (§IV.B). With
        // deadlines far below the stage compute time, events release
        // logically before the stage output physically arrives, so the
        // faults surface as observable errors — tag misalignment at CV,
        // safe-to-process violations, or deadline misses — never as
        // silent reordering.
        let mut params = small_params();
        params.frames = 50;
        params.deadlines.preprocessing = Duration::from_millis(2);
        params.deadlines.computer_vision = Duration::from_millis(2);
        let report = run_det(1, &params);
        let observable = report.mismatches_cv + report.stp_violations + report.deadline_misses;
        assert!(
            observable > 0,
            "deadlines far below stage compute must produce observable errors: {report:?}"
        );
        // But determinism of the decision *content* still holds.
        assert_eq!(report.wrong_decisions, 0);
    }
}
