//! The telemetry spine's acceptance tests: observability must be
//! deterministic (byte-identical snapshots and exports for the same
//! seed and scenario), comparable across coordinator back-ends (the
//! purely logical `runtime/` view is the same flat and hierarchical),
//! and — the hard constraint — *observably free*: turning the full
//! instrumentation on must not move a single replay fingerprint.

use dear::apd::{run_det, DetParams};
use dear::federation::{CoordinatedPlatform, HierarchicalRti, Rti, ZoneId};
use dear::observe::{is_valid_json, Observe};
use dear::reactor::{ProgramBuilder, Runtime, Tag};
use dear::sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear::someip::{Binding, SdRegistry, ServiceInstance};
use dear::time::{Duration, Instant};
use dear::transactors::{
    ClientEventTransactor, Coordination, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const BRAKE: u16 = 0x0B0B;
const SPEC: EventSpec = EventSpec {
    service: BRAKE,
    instance: 1,
    eventgroup: 1,
    event: 0x8001,
};
const CONTROLLERS: usize = 2;

/// A compact platoon (one sensor fanning out to two controllers) under
/// the chosen coordinator, fully instrumented. Returns the logical
/// schedules and the run's telemetry handle.
fn run_platoon(seed: u64, hierarchical: bool) -> (Vec<Vec<(Tag, u8)>>, Observe) {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(seed);
    let observe = sim.enable_observability();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    let (flat, hier) = if hierarchical {
        let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
        for z in 0..CONTROLLERS {
            h.add_zone(&mut sim, &net, &sd, NodeId(1 + z as u16));
        }
        (None, Some(h))
    } else {
        (Some(Rti::new(&mut sim, &net, &sd, NodeId(0))), None)
    };
    let platform = |sim: &mut Simulation,
                    name: &str,
                    zone: usize,
                    runtime: Runtime,
                    outbox: Outbox,
                    binding: &Binding| {
        let rng = sim.fork_rng(name);
        match (&flat, &hier) {
            (Some(rti), None) => CoordinatedPlatform::new(
                name,
                runtime,
                VirtualClock::ideal(),
                outbox,
                rng,
                rti,
                binding,
                false,
            ),
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                name,
                runtime,
                VirtualClock::ideal(),
                outbox,
                rng,
                h,
                ZoneId(zone as u16),
                binding,
                false,
            )
            .expect("zone registration"),
            _ => unreachable!(),
        }
    };

    let sensor = {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let publish = ServerEventTransactor::declare(&mut b, &outbox, "brake", deadline);
        {
            let mut logic = b.reactor("sensor", 0u8);
            let out = logic.output::<dear::someip::FrameBuf>("out");
            let t = logic.timer(
                "sample",
                Duration::from_millis(10),
                Some(Duration::from_millis(10)),
            );
            logic.reaction("sample").triggered_by(t).effects(out).body(
                move |level: &mut u8, ctx| {
                    *level += 1;
                    if *level <= 4 {
                        ctx.set(out, vec![*level * 20].into());
                    }
                },
            );
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let binding = Binding::new(&net, &sd, NodeId(4), 0x40);
        binding.offer(
            &mut sim,
            ServiceInstance::new(BRAKE, 1),
            Duration::from_secs(1 << 20),
        );
        let p = platform(
            &mut sim,
            "sensor",
            0,
            Runtime::new(b.build().unwrap()),
            outbox,
            &binding,
        );
        publish.bind(&p, &binding, SPEC);
        p
    };

    let mut controllers = Vec::new();
    let mut schedules = Vec::new();
    for v in 0..CONTROLLERS {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, "brake");
        let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let mut logic = b.reactor("controller", ());
            let sink = seen.clone();
            logic
                .reaction("apply")
                .triggered_by(input.event)
                .body(move |_, ctx| {
                    let level = ctx.get(input.event).unwrap()[0];
                    sink.lock().unwrap().push((ctx.tag(), level));
                });
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, NodeId(5 + v as u16), 0x50 + v as u16);
        let p = platform(
            &mut sim,
            &format!("ctrl{v}"),
            v,
            Runtime::new(b.build().unwrap()),
            outbox,
            &binding,
        );
        input.bind(&p, &binding, SPEC, cfg);
        controllers.push(p);
        schedules.push(seen);
    }
    for ctrl in &controllers {
        match (&flat, &hier) {
            (Some(rti), None) => rti.connect(sensor.federate_id(), ctrl.federate_id(), edge),
            (None, Some(h)) => h.connect(sensor.federate_id(), ctrl.federate_id(), edge),
            _ => unreachable!(),
        }
    }

    sensor.start(&mut sim);
    for ctrl in &controllers {
        ctrl.start(&mut sim);
    }
    sim.run_until(Instant::from_millis(500));

    let schedules = schedules
        .iter()
        .map(|s| s.lock().unwrap().clone())
        .collect();
    (schedules, observe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same scenario ⇒ byte-identical metrics snapshot,
    /// span timeline, and Chrome export across runs.
    #[test]
    fn prop_snapshots_are_replay_deterministic(seed in 0u64..100) {
        let (sched_a, obs_a) = run_platoon(seed, true);
        let (sched_b, obs_b) = run_platoon(seed, true);
        prop_assert_eq!(sched_a, sched_b);
        prop_assert_eq!(obs_a.snapshot(), obs_b.snapshot());
        prop_assert_eq!(obs_a.span_count(), obs_b.span_count());
        prop_assert_eq!(obs_a.chrome_trace(), obs_b.chrome_trace());
    }

    /// The apd pipeline's snapshot is replay-deterministic too, and
    /// enabling it never perturbs the decision sequence.
    #[test]
    fn prop_apd_snapshot_is_replay_deterministic(seed in 0u64..100) {
        let params = DetParams {
            frames: 60,
            observability: true,
            ..DetParams::default()
        };
        let a = run_det(seed, &params);
        let b = run_det(seed, &params);
        prop_assert!(!a.metrics_snapshot.is_empty());
        prop_assert_eq!(&a.metrics_snapshot, &b.metrics_snapshot);
        prop_assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
    }
}

/// The purely logical `runtime/` view is comparable across coordinator
/// back-ends: flat single-RTI and hierarchical runs of the same
/// topology produce the identical filtered snapshot (the physical
/// `coord/` view legitimately differs — that is what it measures).
#[test]
fn runtime_metrics_identical_flat_vs_hierarchical() {
    let (sched_flat, obs_flat) = run_platoon(7, false);
    let (sched_hier, obs_hier) = run_platoon(7, true);
    assert_eq!(sched_flat, sched_hier, "sharding must be observably free");

    let flat_view = obs_flat.snapshot_filtered("runtime/");
    let hier_view = obs_hier.snapshot_filtered("runtime/");
    assert!(!flat_view.is_empty());
    assert_eq!(flat_view, hier_view);

    // The coordination views are both present but measure different
    // protocols (batched vs per-frame), so they are allowed to differ.
    assert!(!obs_flat.snapshot_filtered("coord/").is_empty());
    assert!(!obs_hier.snapshot_filtered("coord/").is_empty());
}

/// Exports are well-formed and carry the per-federate lanes plus the
/// coordination fixpoint marks.
#[test]
fn chrome_export_is_valid_and_lane_complete() {
    let (_, observe) = run_platoon(3, true);
    let json = observe.chrome_trace();
    assert!(is_valid_json(&json));
    for lane in ["sensor", "ctrl0", "ctrl1", "root"] {
        assert!(json.contains(lane), "missing lane {lane}");
    }
    assert!(json.contains("fixpoint"));
    assert!(json.contains("\"tag\""), "missing per-tag runtime spans");
}

/// The hard regression: running the brake assistant with the full
/// telemetry spine enabled (metrics, histograms, spans) produces the
/// byte-identical decision sequence and per-stage event traces as the
/// uninstrumented run — including the published fingerprint.
#[test]
fn full_instrumentation_does_not_move_fingerprints() {
    let base = DetParams {
        frames: 400,
        record_traces: true,
        ..DetParams::default()
    };
    let instrumented = DetParams {
        observability: true,
        ..base.clone()
    };
    for seed in [0u64, 3] {
        let off = run_det(seed, &base);
        let on = run_det(seed, &instrumented);
        assert_eq!(off.decision_fingerprint(), on.decision_fingerprint());
        assert_eq!(off.stage_traces, on.stage_traces);
        assert_eq!(off.end_to_end, on.end_to_end);
        assert!(off.metrics_snapshot.is_empty());
        assert!(!on.metrics_snapshot.is_empty());
    }

    // The published 2000-frame fingerprint (README, EXPERIMENTS.md)
    // must not move under instrumentation either.
    let full = run_det(
        0,
        &DetParams {
            frames: 2000,
            observability: true,
            ..DetParams::default()
        },
    );
    assert_eq!(full.decision_fingerprint(), 0xf3e5_22a0_b4ee_1cff);
}

/// FNV-1a over the bytes of an export, for pinning it as a literal.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exported bytes themselves, pinned as literals: the Chrome trace
/// and snapshot of the platoon flat and hierarchical, and the brake
/// pipeline's snapshot centralized and with the control diet. The other
/// tests compare runs with each other; these move only when what the
/// telemetry records or how it renders it does, so a change to how spans
/// and metrics are stored must leave every one of them alone.
#[test]
fn telemetry_bytes_are_pinned() {
    let mut digests = Vec::new();
    for hierarchical in [false, true] {
        let (_, observe) = run_platoon(7, hierarchical);
        digests.push(fnv1a(&observe.chrome_trace()));
        digests.push(fnv1a(&observe.snapshot()));
    }
    let centralized = DetParams {
        frames: 200,
        coordination: Coordination::Centralized,
        observability: true,
        ..DetParams::default()
    };
    let diet = DetParams {
        control_diet: true,
        ..centralized.clone()
    };
    for params in [centralized, diet] {
        digests.push(fnv1a(&run_det(7, &params).metrics_snapshot));
    }
    let pinned: [u64; 6] = [
        0x6f82_e625_1764_0739, // flat: Chrome trace
        0xd4d2_79c6_5c0b_f0a9, // flat: snapshot
        0xd05b_d7bf_87a3_6a1f, // hierarchical: Chrome trace
        0x2dda_76c2_d313_a918, // hierarchical: snapshot
        0xcf25_726b_700c_192f, // run_det centralized: snapshot
        0x25a1_7e4d_6c57_7ebe, // run_det diet: snapshot
    ];
    assert_eq!(digests, pinned);
}
