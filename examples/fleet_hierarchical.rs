//! A three-vehicle platoon under the **hierarchical** coordinator.
//!
//! Each vehicle is a coordination *zone* with its own zone coordinator;
//! a root coordinator runs the same LBTS fixpoint over zone summaries
//! that each zone runs over its members. The lead vehicle's brake sensor
//! fans out to its own controller (intra-zone) and to both followers'
//! controllers (cross-zone), so floors genuinely have to cross the root:
//!
//! ```text
//!                     root
//!                   /  |   \            floors up, relays down
//!             zone 0  zone 1  zone 2    (batched Floor frames)
//!               |        |       |
//!   sensor ─► ctrl0    ctrl1   ctrl2    (ctrl1/ctrl2 fed cross-zone)
//! ```
//!
//! Three observations:
//!
//! 1. the logical schedule is byte-identical to the same scenario under
//!    the flat single-RTI coordinator — sharding is observably free;
//! 2. the zone protocol batches its control frames (LTC+NET up, grant
//!    fan-out down, floor relays between levels), where the flat
//!    protocol sends one record per frame;
//! 3. with per-shard liveness enabled, severing one follower's *uplink*
//!    kills only that zone's floor at the root: the zone is declared
//!    dead, its bound is released, and the other follower keeps braking.
//!
//! ```sh
//! cargo run --release --example fleet_hierarchical
//! ```

use dear::federation::{CoordinatedPlatform, HierarchicalRti, Rti, ZoneId};
use dear::observe::{is_valid_json, ObservabilityReport, Observe};
use dear::reactor::{ProgramBuilder, Runtime, Tag};
use dear::sim::{FaultPlan, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear::someip::{Binding, SdRegistry, ServiceInstance};
use dear::time::{Duration, Instant};
use dear::transactors::{
    ClientEventTransactor, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};
use std::sync::{Arc, Mutex};

const BRAKE: u16 = 0x0B0B;
const SPEC: EventSpec = EventSpec {
    service: BRAKE,
    instance: 1,
    eventgroup: 1,
    event: 0x8001,
};
const VEHICLES: usize = 3;

struct Outcome {
    /// Per-controller (tag, brake level) schedules.
    schedules: Vec<Vec<(Tag, u8)>>,
    batches: u64,
    zone_deaths: u64,
    floor_records: u64,
    /// The run's telemetry handle (metrics + timeline, outlives the sim).
    observe: Observe,
    report: ObservabilityReport,
}

/// Builds and drives the platoon. `hierarchical` picks the coordinator;
/// `sever_uplink` cuts follower 1's zone-to-root link mid-run (only
/// meaningful with the hierarchy + liveness).
fn run(hierarchical: bool, sever_uplink: bool) -> Outcome {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(7);
    sim.enable_tracing();
    // Before any coordinator exists, so the lanes get their names.
    let observe = sim.enable_observability();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    // Nodes: 0 root/RTI, 1..=3 zone coordinators, 4.. ECUs.
    let (flat, hier) = if hierarchical {
        let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
        for v in 0..VEHICLES {
            h.add_zone(&mut sim, &net, &sd, NodeId(1 + v as u16));
        }
        (None, Some(h))
    } else {
        (Some(Rti::new(&mut sim, &net, &sd, NodeId(0))), None)
    };
    let platform = |sim: &mut Simulation,
                    name: &str,
                    vehicle: usize,
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
                ZoneId(vehicle as u16),
                binding,
                false,
            )
            .expect("zone registration"),
            _ => unreachable!(),
        }
    };

    // Lead vehicle's brake sensor: five escalating brake levels, 10 ms
    // apart, published as SOME/IP events.
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
                    if *level <= 5 {
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
            "lead-sensor",
            0,
            Runtime::new(b.build().unwrap()),
            outbox,
            &binding,
        );
        publish.bind(&p, &binding, SPEC);
        p
    };

    // One brake controller per vehicle, all subscribed to the sensor.
    let mut controllers = Vec::new();
    let mut schedules = Vec::new();
    for v in 0..VEHICLES {
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
    if sever_uplink {
        let h = hier.as_ref().expect("partition needs the hierarchy");
        h.enable_liveness(&mut sim, Duration::from_millis(50));
        sensor.enable_heartbeat(&mut sim, Duration::from_millis(10));
        for ctrl in &controllers {
            ctrl.enable_heartbeat(&mut sim, Duration::from_millis(10));
        }
        // Follower 1's zone coordinator (node 2) loses its root uplink
        // after the third brake event; its data plane stays up.
        let mut faults = FaultPlan::new();
        faults.kill_link(Instant::from_millis(35), NodeId(2), NodeId(0));
        faults.apply(&mut sim, &net);
    }
    sim.run_until(Instant::from_secs(1));

    let mut batches = 0;
    for p in controllers.iter().chain([&sensor]) {
        let cs = p.coordination_stats();
        assert_eq!(cs.bound_breaches(), 0, "{} breached its bound", p.name());
        batches += cs.coord_batches_sent() + cs.coord_batches_received();
    }
    let (zone_deaths, floor_records) = match (&flat, &hier) {
        (None, Some(h)) => (h.root_stats().deaths, h.root_stats().floor_records),
        _ => (0, 0),
    };
    for event in sim.trace_log().events_in("rti") {
        println!("  [trace] {event}");
    }
    let mut report = ObservabilityReport::new(if hierarchical {
        "fleet_hierarchical"
    } else {
        "fleet_flat"
    });
    report.line("sim", sim.stats());
    report.line("net", net.stats());
    for p in controllers.iter().chain([&sensor]) {
        report.line(format!("runtime[{}]", p.name()), p.stats());
        report.line(format!("coord[{}]", p.name()), p.coordination_stats());
    }
    match (&flat, &hier) {
        (Some(rti), None) => report.line("rti", rti.stats()),
        (None, Some(h)) => {
            report.line("rti[root]", h.root_stats());
            for v in 0..VEHICLES {
                report.line(format!("rti[zone{v}]"), h.zone_stats(ZoneId(v as u16)));
            }
        }
        _ => unreachable!(),
    }
    report.attach(&observe);
    Outcome {
        schedules: schedules
            .iter()
            .map(|s| s.lock().unwrap().clone())
            .collect(),
        batches,
        zone_deaths,
        floor_records,
        observe,
        report,
    }
}

fn main() {
    println!("three-vehicle platoon: lead brake sensor fanning out to all controllers\n");

    let hier = run(true, false);
    println!("hierarchical run (3 zones under one root):");
    for (v, schedule) in hier.schedules.iter().enumerate() {
        let levels: Vec<u8> = schedule.iter().map(|(_, l)| *l).collect();
        println!(
            "  vehicle {v}: {} brake events {:?}, first at {}",
            schedule.len(),
            levels,
            schedule
                .first()
                .map_or_else(String::new, |(t, _)| t.to_string()),
        );
    }
    println!(
        "  batched control frames: {}, floors across the root: {}",
        hier.batches, hier.floor_records
    );

    // Export the run's timeline as Chrome trace_event JSON — loadable in
    // Perfetto / chrome://tracing, one lane per federate plus the
    // coordination lanes carrying the zone/root fixpoint marks.
    let trace_json = hier.observe.chrome_trace();
    assert!(
        is_valid_json(&trace_json),
        "exported trace must be valid JSON"
    );
    for lane in ["lead-sensor", "ctrl0", "ctrl1", "ctrl2", "root", "zone1"] {
        assert!(trace_json.contains(lane), "trace must name the {lane} lane");
    }
    assert!(
        trace_json.contains("fixpoint"),
        "trace must carry the fixpoint marks"
    );
    let trace_path = std::path::Path::new("target").join("fleet_hierarchical.trace.json");
    match std::fs::write(&trace_path, &trace_json) {
        Ok(()) => println!(
            "  timeline exported: {} ({} bytes, open in ui.perfetto.dev)",
            trace_path.display(),
            trace_json.len()
        ),
        Err(e) => println!("  timeline export skipped ({e})"),
    }

    let flat = run(false, false);
    println!();
    println!("flat single-RTI run of the identical topology:");
    println!(
        "  identical logical schedules: {}",
        yn(flat.schedules == hier.schedules)
    );
    println!(
        "  batched control frames: {} (flat protocol is one record per frame)",
        flat.batches
    );
    assert_eq!(
        flat.schedules, hier.schedules,
        "sharding must be observably free"
    );
    assert_eq!(flat.batches, 0);
    assert!(hier.batches > 0);

    println!();
    println!("partition: follower 1's zone loses its root uplink at t = 35 ms");
    let cut = run(true, true);
    for (v, schedule) in cut.schedules.iter().enumerate() {
        println!("  vehicle {v}: {} brake events", schedule.len());
    }
    println!(
        "  zones declared dead at the root: {} (follower 1's floor released)",
        cut.zone_deaths
    );
    assert_eq!(cut.zone_deaths, 1);
    assert_eq!(
        cut.schedules[2].len(),
        5,
        "the sibling zone must keep braking"
    );
    println!();
    println!("the hierarchy is observably identical to the flat RTI, batches its");
    println!("coordination traffic, and contains an uplink partition to the zone");
    println!("that lost it — exactly the sharding story the benchmark's fleet_*");
    println!("workloads quantify at 400 and 1000 federates.");
    println!();
    print!("{}", hier.report);
}

fn yn(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}
