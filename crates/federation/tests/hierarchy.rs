//! Behavioural tests of the two-level coordinator: a hierarchical
//! federation (zones + root) must be *observably identical* to the flat
//! RTI on the same topology — byte-identical per-consumer event traces
//! across seeds — while actually speaking the batched zone protocol; and
//! its liveness must be scoped per shard, so a silent zone is released
//! at the root while sibling zones keep advancing.

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{CoordinatedPlatform, HierarchicalRti, Rti, ZoneId};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, SimRng, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SERVICE_PING: u16 = 0x0100;
const SERVICE_PONG: u16 = 0x0200;
const INSTANCE: u16 = 1;
const EVENTGROUP: u16 = 1;
const EVENT: u16 = 0x8001;
const EVENTS: usize = 5;

fn spec(service: u16) -> EventSpec {
    EventSpec {
        service,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event: EVENT,
    }
}

/// Which coordinator drives the run: the flat RTI, or two zones under a
/// root. Everything else about the scenario is bit-identical.
#[derive(Clone, Copy, PartialEq)]
enum Coordinator {
    Flat,
    TwoZones,
}

/// The observable outcome of one run: per-consumer `(tag, value)` event
/// traces plus the invariants both coordinators must uphold.
struct RunReport {
    /// One lane per consumer, in registration order.
    traces: Vec<Vec<(Tag, u8)>>,
    bound_breaches: u64,
    stp_violations: u64,
    batches_sent: u64,
    batches_received: u64,
}

impl RunReport {
    /// FNV-1a over the full trace content (tags and values, in order).
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for lane in &self.traces {
            eat(0xfe); // lane separator
            for (tag, v) in lane {
                tag.time
                    .as_nanos()
                    .to_le_bytes()
                    .into_iter()
                    .for_each(&mut eat);
                tag.microstep.to_le_bytes().into_iter().for_each(&mut eat);
                eat(*v);
            }
        }
        h
    }
}

/// Runs a five-federate, two-service pipeline under either coordinator:
///
/// ```text
///   zone 0: p0 ──intra──► c0          zone 1: p1
///           p0 ──cross-zone─────────────────► c1
///           c2 ◄────────────────cross-zone─── p1
/// ```
///
/// Producer payloads are drawn from the seed, and every consumer carries
/// a seeded compute-cost model, so physical release times genuinely vary
/// per seed while the logical traces must not vary per coordinator.
fn run_fleet(seed: u64, coordinator: Coordinator) -> RunReport {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge_delay = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    // Node plan: 0 = root/RTI, 1..=2 = zone coordinators, 3.. = federates.
    let (flat, hier) = match coordinator {
        Coordinator::Flat => (Some(Rti::new(&mut sim, &net, &sd, NodeId(0))), None),
        Coordinator::TwoZones => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            h.add_zone(&mut sim, &net, &sd, NodeId(1));
            h.add_zone(&mut sim, &net, &sd, NodeId(2));
            (None, Some(h))
        }
    };
    let platform = |sim: &mut Simulation,
                    name: &str,
                    zone: ZoneId,
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
                zone,
                binding,
                false,
            )
            .unwrap(),
            _ => unreachable!(),
        }
    };
    let connect = |up: &CoordinatedPlatform, down: &CoordinatedPlatform| match (&flat, &hier) {
        (Some(rti), None) => rti.connect(up.federate_id(), down.federate_id(), edge_delay),
        (None, Some(h)) => h.connect(up.federate_id(), down.federate_id(), edge_delay),
        _ => unreachable!(),
    };

    // Seed-derived payloads, identical across coordinators.
    let mut payload_rng = SimRng::seed_from_u64(seed ^ 0xfeed);
    let mut payloads =
        || -> Vec<u8> { (0..EVENTS).map(|_| payload_rng.next_u64() as u8).collect() };

    let producer =
        |sim: &mut Simulation, name: &'static str, zone, node, service, data: Vec<u8>| {
            let outbox = Outbox::new();
            let mut b = ProgramBuilder::new();
            let publish = ServerEventTransactor::declare(&mut b, &outbox, name, deadline);
            {
                let mut logic = b.reactor(name, 0usize);
                let out = logic.output::<dear_someip::FrameBuf>("out");
                let t = logic.timer(
                    "emit",
                    Duration::from_millis(10),
                    Some(Duration::from_millis(10)),
                );
                logic.reaction("emit").triggered_by(t).effects(out).body(
                    move |n: &mut usize, ctx| {
                        if *n < data.len() {
                            ctx.set(out, vec![data[*n]].into());
                        }
                        *n += 1;
                    },
                );
                logic.finish();
                b.connect(out, publish.event).unwrap();
            }
            let binding = Binding::new(&net, &sd, node, 0x10 + node.0);
            binding.offer(
                sim,
                ServiceInstance::new(service, INSTANCE),
                Duration::from_secs(1 << 20),
            );
            let p = platform(
                sim,
                name,
                zone,
                Runtime::new(b.build().unwrap()),
                outbox,
                &binding,
            );
            publish.bind(&p, &binding, spec(service));
            p
        };
    let consumer = |sim: &mut Simulation, name: &'static str, zone, node, service| {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, name);
        let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        let collect_rid;
        {
            let mut logic = b.reactor(name, ());
            let sink = seen.clone();
            collect_rid =
                logic
                    .reaction("collect")
                    .triggered_by(input.event)
                    .body(move |_, ctx| {
                        let v = ctx.get(input.event).unwrap()[0];
                        sink.lock().unwrap().push((ctx.tag(), v));
                    });
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, node, 0x10 + node.0);
        let p = platform(
            sim,
            name,
            zone,
            Runtime::new(b.build().unwrap()),
            outbox,
            &binding,
        );
        let stats = input.bind(&p, &binding, spec(service), cfg);
        // A seeded compute cost shifts physical (never logical) times.
        let cost =
            dear_sim::LatencyModel::uniform(Duration::from_micros(10), Duration::from_micros(200));
        p.set_reaction_cost(collect_rid, cost);
        (p, seen, stats)
    };

    let p0 = producer(
        &mut sim,
        "p0",
        ZoneId(0),
        NodeId(3),
        SERVICE_PING,
        payloads(),
    );
    let p1 = producer(
        &mut sim,
        "p1",
        ZoneId(1),
        NodeId(4),
        SERVICE_PONG,
        payloads(),
    );
    let (c0, seen0, stats0) = consumer(&mut sim, "c0", ZoneId(0), NodeId(5), SERVICE_PING);
    let (c1, seen1, stats1) = consumer(&mut sim, "c1", ZoneId(1), NodeId(6), SERVICE_PING);
    let (c2, seen2, stats2) = consumer(&mut sim, "c2", ZoneId(0), NodeId(7), SERVICE_PONG);

    connect(&p0, &c0); // intra-zone (zone 0)
    connect(&p0, &c1); // cross-zone 0 -> 1
    connect(&p1, &c2); // cross-zone 1 -> 0

    for p in [&p0, &p1, &c0, &c1, &c2] {
        p.start(&mut sim);
    }
    sim.run_until(Instant::from_millis(200));

    let lane = |seen: &Arc<Mutex<Vec<(Tag, u8)>>>| seen.lock().unwrap().clone();
    let mut report = RunReport {
        traces: vec![lane(&seen0), lane(&seen1), lane(&seen2)],
        bound_breaches: 0,
        stp_violations: 0,
        batches_sent: 0,
        batches_received: 0,
    };
    for s in [&stats0, &stats1, &stats2] {
        report.stp_violations += s.stp_violations();
    }
    for p in [&p0, &p1, &c0, &c1, &c2] {
        let cs = p.coordination_stats();
        report.bound_breaches += cs.bound_breaches();
        report.batches_sent += cs.coord_batches_sent();
        report.batches_received += cs.coord_batches_received();
    }
    if let Some(h) = &hier {
        // The hierarchy was genuinely exercised: both zones granted,
        // floors crossed the root, every hop was batched.
        assert_eq!(h.zone_count(), 2);
        assert_eq!(h.federate_count(), 5);
        for z in [ZoneId(0), ZoneId(1)] {
            let zs = h.zone_stats(z);
            assert!(zs.tags_issued > 0, "{z} issued no grants: {zs}");
            assert!(zs.batches_sent > 0, "{z} sent no batches: {zs}");
        }
        let rs = h.root_stats();
        assert!(rs.floor_records > 0, "no floors crossed the root: {rs}");
        assert!(rs.batches_sent > 0, "root relays must be batched: {rs}");
    }
    report
}

/// The flat and hierarchical coordinators produce byte-identical logical
/// event traces on the same seeded scenario — the tentpole equivalence
/// claim, checked over fixed seeds.
#[test]
fn hierarchical_traces_match_flat_rti_across_seeds() {
    for seed in [0u64, 1, 2, 7, 42] {
        let flat = run_fleet(seed, Coordinator::Flat);
        let hier = run_fleet(seed, Coordinator::TwoZones);

        assert_eq!(
            flat.traces, hier.traces,
            "seed {seed}: traces diverged between coordinators"
        );
        assert_eq!(flat.fingerprint(), hier.fingerprint(), "seed {seed}");

        // Every lane drained fully, and both runs stayed clean.
        for (lane, trace) in flat.traces.iter().enumerate() {
            assert_eq!(trace.len(), EVENTS, "seed {seed}: consumer {lane}");
        }
        for (label, r) in [("flat", &flat), ("hierarchical", &hier)] {
            assert_eq!(r.bound_breaches, 0, "seed {seed} {label}");
            assert_eq!(r.stp_violations, 0, "seed {seed} {label}");
        }

        // The protocols differ exactly as advertised: only the
        // hierarchical run speaks batched coordination frames.
        assert_eq!(flat.batches_sent, 0);
        assert_eq!(flat.batches_received, 0);
        assert!(hier.batches_sent > 0, "seed {seed}: no step batches");
        assert!(hier.batches_received > 0, "seed {seed}: no grant batches");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the equivalence claim: *any* seed yields
    /// identical traces, not just the hand-picked ones.
    #[test]
    fn hierarchical_traces_match_flat_rti_on_any_seed(seed in any::<u64>()) {
        let flat = run_fleet(seed, Coordinator::Flat);
        let hier = run_fleet(seed, Coordinator::TwoZones);
        prop_assert_eq!(&flat.traces, &hier.traces);
        prop_assert_eq!(flat.fingerprint(), hier.fingerprint());
        prop_assert_eq!(flat.bound_breaches + hier.bound_breaches, 0);
    }
}

/// A cross-zone pipeline — a producer in zone 1 emitting five payloads on
/// a 10 ms timer, a consumer in zone 0 — whose zone 1 → root uplink is
/// severed at `cut_at`. Returns `(zone deaths at the root, member deaths
/// in the zones, payloads the consumer saw, "rti" trace events)`.
fn run_with_severed_uplink(enable_liveness: bool, cut_at: Instant) -> (u64, u64, usize, usize) {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge_delay = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(13);
    sim.enable_tracing();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let hier = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
    let zone0 = hier.add_zone(&mut sim, &net, &sd, NodeId(1));
    let zone1 = hier.add_zone(&mut sim, &net, &sd, NodeId(2));
    if enable_liveness {
        hier.enable_liveness(&mut sim, Duration::from_millis(50));
    }

    // Producer in zone 1: emits 5 payloads on a 10ms timer.
    let producer = {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let publish = ServerEventTransactor::declare(&mut b, &outbox, "ping", deadline);
        {
            let mut logic = b.reactor("producer", 0u8);
            let out = logic.output::<dear_someip::FrameBuf>("out");
            let t = logic.timer(
                "emit",
                Duration::from_millis(10),
                Some(Duration::from_millis(10)),
            );
            logic
                .reaction("emit")
                .triggered_by(t)
                .effects(out)
                .body(move |n: &mut u8, ctx| {
                    *n += 1;
                    if *n <= 5 {
                        ctx.set(out, vec![*n].into());
                    }
                });
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let binding = Binding::new(&net, &sd, NodeId(3), 0x13);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE_PING, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let platform = CoordinatedPlatform::new_in_zone(
            "producer",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            Outbox::clone(&outbox),
            sim.fork_rng("producer-costs"),
            &hier,
            zone1,
            &binding,
            false,
        )
        .unwrap();
        publish.bind(&platform, &binding, spec(SERVICE_PING));
        platform
    };

    // Consumer in zone 0, fed across the zone boundary.
    let seen: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let consumer = {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, "ping");
        {
            let mut logic = b.reactor("consumer", ());
            let sink = seen.clone();
            logic
                .reaction("collect")
                .triggered_by(input.event)
                .body(move |_, ctx| {
                    sink.lock().unwrap().push(ctx.get(input.event).unwrap()[0]);
                });
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, NodeId(4), 0x14);
        let platform = CoordinatedPlatform::new_in_zone(
            "consumer",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            Outbox::clone(&outbox),
            sim.fork_rng("consumer-costs"),
            &hier,
            zone0,
            &binding,
            false,
        )
        .unwrap();
        input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
        platform
    };
    hier.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

    producer.start(&mut sim);
    consumer.start(&mut sim);
    producer.enable_heartbeat(&mut sim, Duration::from_millis(10));
    consumer.enable_heartbeat(&mut sim, Duration::from_millis(10));

    // Sever zone 1's uplink to the root. The zone itself stays healthy —
    // its members keep heartbeating and being granted — but its floor
    // stops reaching the root, so the consumer's proxy for zone 1
    // freezes.
    let mut faults = dear_sim::FaultPlan::new();
    faults.kill_link(cut_at, NodeId(2), NodeId(0));
    faults.apply(&mut sim, &net);

    sim.run_until(Instant::from_secs(1));

    let zone_deaths = hier.root_stats().deaths;
    let member_deaths = hier.zone_stats(zone0).deaths + hier.zone_stats(zone1).deaths;
    let seen = seen.lock().unwrap().len();
    let traces = sim.trace_log().events_in("rti").count();
    (zone_deaths, member_deaths, seen, traces)
}

/// Partition tolerance, scoped per shard: severing one zone's uplink
/// kills only that zone's floor at the root. The root declares the zone
/// dead after the liveness deadline, releases its bound, and consumers
/// in sibling zones drain the still-flowing data plane; without liveness
/// they stall forever. Member-level watchdogs inside the silent zone see
/// heartbeats throughout and declare nobody dead.
#[test]
fn dead_zone_releases_floor_for_sibling_zones() {
    // After the third event.
    let run = |enable_liveness| run_with_severed_uplink(enable_liveness, Instant::from_millis(35));
    let (zone_deaths, member_deaths, seen, traces) = run(true);
    assert_eq!(
        zone_deaths, 1,
        "the silent zone is declared dead at the root"
    );
    assert_eq!(
        member_deaths, 0,
        "liveness is scoped per shard: no member watchdog fires"
    );
    assert_eq!(traces, 1, "the zone death lands in the trace");
    assert_eq!(
        seen, 5,
        "sibling zones keep advancing once the dead zone's floor is released"
    );

    let (zone_deaths, member_deaths, seen, _) = run(false);
    assert_eq!(zone_deaths, 0);
    assert_eq!(member_deaths, 0);
    assert!(
        seen < 5,
        "without liveness the sibling stalls on the dead zone's frozen floor (saw {seen})"
    );
}

/// The same partition from t = 0: zone 1 never gets a single roll-up
/// through, so nothing it *sends* can arm the root's watchdog. The root
/// watches a zone from the moment liveness is on, declares it dead one
/// deadline later and releases the consumer — which would otherwise wait
/// on its proxy's origin head forever, liveness or not.
#[test]
fn zone_silent_from_the_start_is_declared_dead() {
    let run = |enable_liveness| run_with_severed_uplink(enable_liveness, Instant::EPOCH);

    let (zone_deaths, member_deaths, seen, traces) = run(true);
    assert_eq!(
        zone_deaths, 1,
        "a zone that never rolled anything up is declared dead all the same"
    );
    assert_eq!(member_deaths, 0, "its members heartbeat throughout");
    assert_eq!(traces, 1, "the zone death lands in the trace");
    assert_eq!(seen, 5, "the importing zone drains the data plane");

    let (zone_deaths, _, seen, _) = run(false);
    assert_eq!(zone_deaths, 0);
    assert_eq!(seen, 0, "without liveness the importer never gets a bound");
}
