//! The eight workloads, and every call the end-to-end benchmark makes
//! into the stack. The layer drivers — the only other code that touches
//! the stack — live in the [`layers`] submodule, so a rename in the stack
//! is an edit to this module and nothing else.
//!
//! Only public entry points are used: `dear_apd::run_det` for the brake
//! assistant; `Rti` / `HierarchicalRti` / `CoordinatedPlatform` for the
//! fleet. Parameter structs are built as `{ varied fields, ..default }`
//! so a field the benchmark does not vary can be removed from the stack
//! without touching this file.

pub mod layers;

use crate::trace::Tracer;
use dear_apd::{run_det, DetParams, DetReport, RecoveryParams};
use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{CoordinatedPlatform, HierarchicalRti, Rti, RtiStats, ZoneId};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry};
use dear_time::{Duration, Instant};
use dear_transactors::{Coordination, Outbox};
use std::hint::black_box;
use std::time::Instant as HostInstant;

/// Decision fingerprint of the brake assistant at 2000 frames, published
/// since the first deterministic build; every `brake_*` variant and every
/// seed must reproduce it.
pub const BRAKE_FINGERPRINT_2000: u64 = 0xf3e5_22a0_b4ee_1cff;

/// Frames of the verify pass (and of `--smoke` runs).
pub const VERIFY_FRAMES: u64 = 2000;

/// Fleet size of the verify pass (and of `--smoke` runs): small enough
/// that the flat, flat+diet and zones+diet coordinators can all run it,
/// so their equivalence is checked at a common size.
pub const VERIFY_FLEET: FleetSize = FleetSize {
    zones: 6,
    horizon_ms: 60,
};

const MEMBERS_PER_ZONE: usize = 10;
const TIMER_PERIOD_MS: i64 = 10;
/// How long the durable workload keeps its federate dead.
const DEAD_FOR: Duration = Duration::from_millis(10);

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `run_det` with default parameters: PTIDES-style static offsets.
    BrakeDecentralized,
    /// The same pipeline under a flat RTI, control diet off.
    BrakeCentralized,
    /// `BrakeCentralized` with the control diet on.
    BrakeDiet,
    /// `BrakeCentralized` with a durable log, a mid-run crash and rejoin.
    BrakeDurable,
    /// `BrakeCentralized` with the telemetry spine on.
    BrakeObserved,
    /// 400 timer-only federates under a flat RTI, diet off.
    FleetFlat,
    /// The same fleet with the control diet on.
    FleetFlatDiet,
    /// 1000 federates in 100 zones under the hierarchical RTI, diet on.
    FleetZonesDiet,
}

/// Size of a fleet world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSize {
    /// Zones of [`MEMBERS_PER_ZONE`] chained federates each.
    pub zones: usize,
    /// Virtual run length.
    pub horizon_ms: i64,
}

impl FleetSize {
    /// Federates in the fleet.
    #[must_use]
    pub fn federates(self) -> usize {
        self.zones * MEMBERS_PER_ZONE
    }

    /// Tags each federate's 10 ms timer produces within the horizon.
    fn tags_per_federate(self) -> u64 {
        u64::try_from(self.horizon_ms / TIMER_PERIOD_MS).expect("positive horizon")
    }
}

/// How much work one repetition of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Camera frames through the brake assistant.
    Frames(u64),
    /// A fleet world.
    Fleet(FleetSize),
}

impl Workload {
    /// All workloads, in the order they are run and reported.
    pub const ALL: [Workload; 8] = [
        Workload::BrakeDecentralized,
        Workload::BrakeCentralized,
        Workload::BrakeDiet,
        Workload::BrakeDurable,
        Workload::BrakeObserved,
        Workload::FleetFlat,
        Workload::FleetFlatDiet,
        Workload::FleetZonesDiet,
    ];

    /// The name used on the command line, in reports and in
    /// `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrakeDecentralized => "brake_decentralized",
            Workload::BrakeCentralized => "brake_centralized",
            Workload::BrakeDiet => "brake_diet",
            Workload::BrakeDurable => "brake_durable",
            Workload::BrakeObserved => "brake_observed",
            Workload::FleetFlat => "fleet_flat",
            Workload::FleetFlatDiet => "fleet_flat_diet",
            Workload::FleetZonesDiet => "fleet_zones_diet",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is a brake-assistant run (unit of work: one
    /// frame decided) or a fleet run (unit of work: one tag processed).
    #[must_use]
    pub fn is_brake(self) -> bool {
        !matches!(
            self,
            Workload::FleetFlat | Workload::FleetFlatDiet | Workload::FleetZonesDiet
        )
    }

    /// The workload's unit of useful work.
    #[must_use]
    pub fn unit(self) -> &'static str {
        if self.is_brake() {
            "frame"
        } else {
            "tag"
        }
    }

    /// The workload this one differs from by exactly one factor, if any:
    /// the difference between the two measures that factor's layer.
    #[must_use]
    pub fn neighbour(self) -> Option<Workload> {
        match self {
            Workload::BrakeCentralized => Some(Workload::BrakeDecentralized),
            Workload::BrakeDiet | Workload::BrakeDurable | Workload::BrakeObserved => {
                Some(Workload::BrakeCentralized)
            }
            Workload::FleetFlatDiet => Some(Workload::FleetFlat),
            Workload::BrakeDecentralized | Workload::FleetFlat | Workload::FleetZonesDiet => None,
        }
    }

    /// The size of one repetition: the benchmark's fixed size, or the
    /// verify-pass size when `smoke`.
    ///
    /// `brake_*` repetitions are short on purpose, 0.1–0.2 s on the 2-core
    /// machine the benchmark was defined on. `run_det` offers no seam to
    /// time segments of, so the repetition is the segment, and on a
    /// shared machine only short segments get through undisturbed: in a
    /// bad phase the fastest of ~300 repetitions of 25 ms stayed within
    /// 3 % of the quiet-machine value while the fastest of eight 1 s ones
    /// fell 17 % short. Cost per frame is flat in the frame count (76.25
    /// allocations per frame at 2000 frames, 75.99 at 200 000); what does
    /// grow with it, the durable log and the telemetry a world retains,
    /// is reported per frame. The time budget changes the number of
    /// repetitions, never their size.
    #[must_use]
    pub fn size(self, smoke: bool) -> Size {
        if smoke {
            return if self.is_brake() {
                Size::Frames(VERIFY_FRAMES)
            } else {
                Size::Fleet(VERIFY_FLEET)
            };
        }
        match self {
            Workload::BrakeDecentralized => Size::Frames(20_000),
            Workload::BrakeCentralized
            | Workload::BrakeDiet
            | Workload::BrakeDurable
            | Workload::BrakeObserved => Size::Frames(10_000),
            Workload::FleetFlat | Workload::FleetFlatDiet => Size::Fleet(FleetSize {
                zones: 40,
                horizon_ms: 2000,
            }),
            Workload::FleetZonesDiet => Size::Fleet(FleetSize {
                zones: 100,
                horizon_ms: 3000,
            }),
        }
    }

    fn brake_params(self, frames: u64) -> DetParams {
        let centralized = DetParams {
            frames,
            coordination: Coordination::Centralized,
            ..DetParams::default()
        };
        match self {
            Workload::BrakeDecentralized => DetParams {
                frames,
                ..DetParams::default()
            },
            Workload::BrakeCentralized => centralized,
            Workload::BrakeDiet => DetParams {
                control_diet: true,
                ..centralized
            },
            Workload::BrakeDurable => DetParams {
                recovery: Some(RecoveryParams {
                    crash_after_frame: frames / 2,
                    dead_for: DEAD_FOR,
                    ..RecoveryParams::default()
                }),
                ..centralized
            },
            Workload::BrakeObserved => DetParams {
                observability: true,
                ..centralized
            },
            Workload::FleetFlat | Workload::FleetFlatDiet | Workload::FleetZonesDiet => {
                unreachable!("{} is not a brake workload", self.name())
            }
        }
    }

    fn fleet_shape(self) -> (Coordinator, bool) {
        match self {
            Workload::FleetFlat => (Coordinator::Flat, false),
            Workload::FleetFlatDiet => (Coordinator::Flat, true),
            Workload::FleetZonesDiet => (Coordinator::Zones, true),
            _ => unreachable!("{} is not a fleet workload", self.name()),
        }
    }
}

/// Protocol counters of one repetition. All exact: the same seed gives
/// the same values on every run and every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Tags processed by all federates (`brake_*`: 4 per decided frame,
    /// one per pipeline stage).
    pub processed_tags: u64,
    /// NET reports.
    pub nets: u64,
    /// LTC reports.
    pub ltcs: u64,
    /// TAG and PTAG frames.
    pub grants: u64,
    /// TAG frames that carried a grant-ahead window.
    pub windowed_grants: u64,
    /// DNET pushes (`brake_*`: not exposed by `DetReport`, counted as 0).
    pub dnets: u64,
    /// Batched control frames sent or received by federates.
    pub batches: u64,
    /// Total virtual time federates sat blocked on a grant.
    pub grant_wait_ns: u64,
    /// `brake_*`: the largest EBA tag − adapter tag over all frames.
    pub logical_e2e_ns: u64,
    /// Calendar events the simulation executed (`fleet_*` only, where the
    /// benchmark owns the `Simulation`).
    pub sim_events: u64,
}

impl Counts {
    /// Control frames through the coordinator: reports in, grants and
    /// DNET pushes out.
    #[must_use]
    pub fn ctrl_frames(&self) -> u64 {
        self.nets + self.ltcs + self.grants + self.dnets
    }
}

/// What one repetition of a workload did.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOutcome {
    /// Host seconds inside the stack, in consecutive segments that are
    /// the same work in every repetition: the whole `run_det` call
    /// (`brake_*`, which offers no seam), or `start` of every federate
    /// followed by one `run_until` per 10 ms of virtual time (`fleet_*`).
    /// Interference on a shared machine comes in bursts of milliseconds,
    /// so the fastest observation of each short segment over a few
    /// repetitions is far steadier than the fastest whole repetition.
    pub segments: Vec<f64>,
    /// Useful work done: frames decided, or tags processed.
    pub units: u64,
    /// Work asked for: frames sent, or tags due by the horizon.
    pub attempted: u64,
    /// Work that failed any check (see [`brake_failures`] and
    /// [`fleet_rep`]); 0 on a healthy stack.
    pub failed: u64,
    /// Brake: decision fingerprint. Fleet: FNV-1a over every federate's
    /// processed-tag count and greatest processed tag.
    pub fingerprint: u64,
    /// Per-stage trace fingerprints (`brake_*` with `record_traces`).
    pub stage_traces: Vec<(String, u64)>,
    /// Exact protocol counters.
    pub counts: Counts,
}

impl RepOutcome {
    /// Host seconds the repetition spent inside the stack.
    #[must_use]
    pub fn host_s(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// Runs one repetition of `workload` at `size`, built from `seed`.
///
/// `record_traces` (brake only) additionally fingerprints every stage's
/// runtime trace — the verify pass uses it, timed repetitions never do.
///
/// # Panics
///
/// Panics if `size` is not the kind of size `workload` takes.
#[must_use]
pub fn run_rep(
    workload: Workload,
    size: Size,
    seed: u64,
    record_traces: bool,
    tracer: &mut Tracer,
) -> RepOutcome {
    let rep = tracer.begin("rep", workload.name());
    let outcome = match size {
        Size::Frames(frames) => {
            let params = DetParams {
                record_traces,
                ..workload.brake_params(frames)
            };
            let span = tracer.begin("apd.run_det", workload.name());
            let t0 = HostInstant::now();
            let report = run_det(seed, &params);
            let host_s = t0.elapsed().as_secs_f64();
            tracer.end(span);
            let span = tracer.begin("collect", workload.name());
            let outcome = brake_outcome(&params, report, vec![host_s]);
            tracer.end(span);
            outcome
        }
        Size::Fleet(fleet) => fleet_rep(workload, fleet, seed, tracer),
    };
    tracer.end(rep);
    outcome
}

/// Host seconds to stand one world of `workload` up, once.
///
/// `brake_*`: a one-frame `run_det` (construction, one frame, teardown —
/// `run_det` offers no finer seam), whatever `size` says. `fleet_*`:
/// platforms, registration and topology at `size`, up to but excluding
/// `start`.
#[must_use]
pub fn setup_once(workload: Workload, size: Size, seed: u64) -> f64 {
    match size {
        Size::Frames(_) => {
            let params = workload.brake_params(1);
            let t0 = HostInstant::now();
            black_box(run_det(seed, &params));
            t0.elapsed().as_secs_f64()
        }
        Size::Fleet(fleet) => {
            let (coordinator, diet) = workload.fleet_shape();
            let t0 = HostInstant::now();
            let world = FleetWorld::build(coordinator, diet, fleet, seed);
            let elapsed = t0.elapsed().as_secs_f64();
            black_box(world.platforms.len());
            elapsed
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(0)
}

fn brake_outcome(params: &DetParams, report: DetReport, segments: Vec<f64>) -> RepOutcome {
    let c = &report.coordination;
    let counts = Counts {
        processed_tags: 4 * report.decisions.len() as u64,
        nets: c.nets_sent,
        ltcs: c.ltcs_sent,
        grants: c.grants_received,
        windowed_grants: c.windowed_grants,
        dnets: 0,
        batches: 0,
        grant_wait_ns: nanos(c.grant_wait),
        logical_e2e_ns: report
            .end_to_end
            .iter()
            .copied()
            .map(nanos)
            .max()
            .unwrap_or(0),
        sim_events: 0,
    };
    RepOutcome {
        segments,
        units: report.decisions.len() as u64,
        attempted: report.frames_sent,
        failed: brake_failures(params, &report),
        fingerprint: report.decision_fingerprint(),
        counts,
        stage_traces: report.stage_traces,
    }
}

/// Everything that can go wrong in a brake run, as one count: frames not
/// decided exactly once, wrong decisions, STP violations, deadline
/// misses, CV tag mismatches, untagged drops, bound breaches, and — with
/// recovery — replay mismatches and an outage other than the configured
/// one.
fn brake_failures(params: &DetParams, report: &DetReport) -> u64 {
    let mut seen = vec![0u8; usize::try_from(params.frames).expect("frame count")];
    let mut stray = 0u64;
    for d in &report.decisions {
        match usize::try_from(d.frame_id)
            .ok()
            .and_then(|i| seen.get_mut(i))
        {
            Some(n) => *n = n.saturating_add(1),
            None => stray += 1,
        }
    }
    let not_once = seen.iter().filter(|&&n| n != 1).count() as u64 + stray;
    let c = &report.coordination;
    let recovery = match (&params.recovery, &report.recovery) {
        (None, None) => 0,
        (Some(asked), Some(got)) => got.replay_mismatches + u64::from(got.outage != asked.dead_for),
        _ => 1,
    };
    not_once
        + report.wrong_decisions
        + report.stp_violations
        + report.deadline_misses
        + report.mismatches_cv
        + report.untagged_dropped
        + c.bound_breaches
        + u64::from(!c.within_bound)
        + recovery
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coordinator {
    Flat,
    Zones,
}

enum Rtis {
    Flat(Rti),
    Zones(HierarchicalRti),
}

impl Rtis {
    fn stats(&self) -> RtiStats {
        match self {
            Rtis::Flat(rti) => rti.stats(),
            Rtis::Zones(h) => h.stats(),
        }
    }
}

/// A fleet world stood up and not yet started: the star-of-chains fleet
/// of `fleet_scale` — zones of 10 chained federates, zone 0's tail
/// leading every other zone's head, 10 ms timers, 1 ms edges, 50 µs
/// links, no data plane.
struct FleetWorld {
    sim: Simulation,
    rtis: Rtis,
    platforms: Vec<CoordinatedPlatform>,
}

/// One timer-driven federate: no data plane, just tags to be granted.
/// Timer-only, so under the diet it declares a 10 ms periodic lattice.
fn fleet_member(name: &str) -> Runtime {
    let period = Duration::from_millis(TIMER_PERIOD_MS);
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor(name, 0u64);
    let t = r.timer("tick", period, Some(period));
    r.reaction("tick")
        .triggered_by(t)
        .body(|n: &mut u64, _| *n += 1);
    r.finish();
    Runtime::new(b.build().expect("fleet member builds"))
}

impl FleetWorld {
    fn build(coordinator: Coordinator, diet: bool, size: FleetSize, seed: u64) -> FleetWorld {
        let zones = size.zones;
        let edge_delay = Duration::from_millis(1);
        let mut sim = Simulation::new(seed);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(50)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let node = |i: usize| NodeId(u16::try_from(i).expect("node ids fit u16"));

        // Node plan: 0 = root/RTI, 1..=zones = zone coordinators, rest =
        // federates (one node each). The diet must be on before any
        // platform is built — platforms query the mode once.
        let rtis = match coordinator {
            Coordinator::Flat => {
                let rti = Rti::new(&mut sim, &net, &sd, node(0));
                if diet {
                    rti.enable_control_diet();
                }
                Rtis::Flat(rti)
            }
            Coordinator::Zones => {
                let h = HierarchicalRti::new(&mut sim, &net, &sd, node(0));
                for z in 0..zones {
                    h.add_zone(&mut sim, &net, &sd, node(1 + z));
                }
                if diet {
                    h.enable_control_diet();
                }
                Rtis::Zones(h)
            }
        };

        let platforms: Vec<CoordinatedPlatform> = (0..size.federates())
            .map(|i| {
                let name = format!("fed{i}");
                let client = 0x1000 + u16::try_from(i).expect("client ids fit u16");
                let binding = Binding::new(&net, &sd, node(1 + zones + i), client);
                let runtime = fleet_member(&name);
                let rng = sim.fork_rng(&name);
                let (clock, outbox) = (VirtualClock::ideal(), Outbox::new());
                match &rtis {
                    Rtis::Flat(rti) => CoordinatedPlatform::new(
                        &name, runtime, clock, outbox, rng, rti, &binding, false,
                    ),
                    Rtis::Zones(h) => CoordinatedPlatform::new_in_zone(
                        &name,
                        runtime,
                        clock,
                        outbox,
                        rng,
                        h,
                        ZoneId(u16::try_from(i / MEMBERS_PER_ZONE).expect("zone ids fit u16")),
                        &binding,
                        false,
                    )
                    .expect("zone exists and has room"),
                }
            })
            .collect();

        let connect = |up: usize, down: usize| {
            let (u, d) = (platforms[up].federate_id(), platforms[down].federate_id());
            match &rtis {
                Rtis::Flat(rti) => rti.connect(u, d, edge_delay),
                Rtis::Zones(h) => h.connect(u, d, edge_delay),
            }
        };
        for z in 0..zones {
            let base = z * MEMBERS_PER_ZONE;
            for m in 0..MEMBERS_PER_ZONE - 1 {
                connect(base + m, base + m + 1);
            }
            if z > 0 {
                connect(MEMBERS_PER_ZONE - 1, base);
            }
        }
        FleetWorld {
            sim,
            rtis,
            platforms,
        }
    }
}

/// Builds, runs and checks one fleet world. Failed work: tags a federate
/// is short of the horizon's count, plus bound breaches.
fn fleet_rep(workload: Workload, size: FleetSize, seed: u64, tracer: &mut Tracer) -> RepOutcome {
    let (coordinator, diet) = workload.fleet_shape();
    let span = tracer.begin("setup", workload.name());
    let mut world = FleetWorld::build(coordinator, diet, size, seed);
    tracer.end(span);

    let mut segments = Vec::with_capacity(1 + size.tags_per_federate() as usize);
    let span = tracer.begin("federation.start", workload.name());
    let t0 = HostInstant::now();
    for p in &world.platforms {
        p.start(&mut world.sim);
    }
    segments.push(t0.elapsed().as_secs_f64());
    tracer.end(span);
    // One span around the sliced loop: spans stay out of the hot path.
    let span = tracer.begin("sim.run_until", workload.name());
    for tick in 1..=size.horizon_ms / TIMER_PERIOD_MS {
        let t0 = HostInstant::now();
        world
            .sim
            .run_until(Instant::EPOCH + Duration::from_millis(tick * TIMER_PERIOD_MS));
        segments.push(t0.elapsed().as_secs_f64());
    }
    tracer.end(span);

    let span = tracer.begin("collect", workload.name());
    let stats = world.rtis.stats();
    let due = size.tags_per_federate();
    let mut counts = Counts {
        nets: stats.nets_received,
        ltcs: stats.ltcs_received,
        grants: stats.tags_issued + stats.ptags_issued,
        dnets: stats.dnets_sent,
        sim_events: world.sim.stats().executed_events,
        ..Counts::default()
    };
    let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            fingerprint ^= u64::from(b);
            fingerprint = fingerprint.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut failed = 0;
    for p in &world.platforms {
        let cs = p.coordination_stats();
        let tags = p.stats().processed_tags;
        failed += cs.bound_breaches() + due.saturating_sub(tags);
        counts.processed_tags += tags;
        counts.windowed_grants += cs.windowed_grants();
        counts.batches += cs.coord_batches_sent() + cs.coord_batches_received();
        counts.grant_wait_ns += nanos(cs.grant_wait());
        let max = p.max_processed_tag().unwrap_or(Tag::ORIGIN);
        eat(tags);
        eat(max.time.as_nanos());
        eat(u64::from(max.microstep));
    }
    tracer.end(span);
    RepOutcome {
        segments,
        units: counts.processed_tags,
        attempted: due * size.federates() as u64,
        failed,
        fingerprint,
        stage_traces: Vec::new(),
        counts,
    }
}
