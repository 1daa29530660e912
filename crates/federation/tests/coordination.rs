//! Behavioural tests of centralized coordination: grant flow on a
//! two-federate pipeline, the never-beyond-bound invariant, the PTAG
//! path that keeps zero-delay cycles live, and the driver loop's
//! same-instant re-arming under both coordination policies.

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{CoordinatedPlatform, Rti, TAG_MAX};
use dear_sim::{LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    tag_to_wire, ClientEventTransactor, DearConfig, EventSpec, FederatedPlatform, OutboundMsg,
    Outbox, PlatformDriver, ServerEventTransactor,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

const SERVICE_PING: u16 = 0x0100;
const SERVICE_PONG: u16 = 0x0200;
const INSTANCE: u16 = 1;
const EVENTGROUP: u16 = 1;
const EVENT: u16 = 0x8001;

fn spec(service: u16) -> EventSpec {
    EventSpec {
        service,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event: EVENT,
    }
}

/// A producer timer federate feeding a consumer federate: grants must
/// release every event, tags must follow the `t + D + L + E` algebra, and
/// no tag may ever be processed beyond the granted bound.
#[test]
fn pipeline_runs_under_rti_grants() {
    let deadline = Duration::from_millis(2);
    let latency_bound = Duration::from_millis(1);
    let cfg = DearConfig::new(latency_bound, Duration::ZERO);
    let edge_delay = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(3);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));

    // Producer: emits 5 payloads on a 10ms timer.
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
        let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE_PING, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let platform = CoordinatedPlatform::new(
            "producer",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            Outbox::clone(&outbox),
            sim.fork_rng("producer-costs"),
            &rti,
            &binding,
            false,
        );
        publish.bind(&platform, &binding, spec(SERVICE_PING));
        platform
    };

    // Consumer: collects (tag, value).
    let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
    let (consumer, consumer_stats) = {
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
                    let v = ctx.get(input.event).unwrap()[0];
                    sink.lock().unwrap().push((ctx.tag(), v));
                });
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, NodeId(2), 0x22);
        let platform = CoordinatedPlatform::new(
            "consumer",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            Outbox::clone(&outbox),
            sim.fork_rng("consumer-costs"),
            &rti,
            &binding,
            false,
        );
        let stats = input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
        (platform, stats)
    };
    rti.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

    producer.start(&mut sim);
    consumer.start(&mut sim);
    sim.run_until(Instant::from_secs(1));

    // All five events, at exactly t + D + L + E.
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), 5, "every event released under grants");
    for (i, (tag, v)) in seen.iter().enumerate() {
        let send_tag = Instant::from_millis(10 * (i as u64 + 1));
        assert_eq!(*v, i as u8 + 1);
        assert_eq!(*tag, Tag::at(send_tag + edge_delay), "event {i}");
    }
    assert_eq!(consumer_stats.stp_violations(), 0);

    // The producer has no upstream: it is granted the unbounded sentinel.
    assert_eq!(producer.granted_bound(), Some(TAG_MAX));

    // Coordination counters flowed on both sides.
    for p in [&producer, &consumer] {
        let cs = p.coordination_stats();
        assert!(cs.nets_sent() > 0, "{}: NETs", p.name());
        assert!(cs.ltcs_sent() > 0, "{}: LTCs", p.name());
        assert!(cs.grants_received() > 0, "{}: grants", p.name());
        assert_eq!(cs.bound_breaches(), 0, "{}: breaches", p.name());
        // The invariant the grants exist to enforce.
        let bound = p.granted_bound().expect("granted");
        assert!(p.max_processed_tag().expect("processed") < bound);
    }
    let rs = rti.stats();
    assert_eq!(rs.federates, 2);
    assert!(rs.tags_issued > 0);
    assert_eq!(rs.ptags_issued, 0, "no zero-delay cycle here");

    // The consumer genuinely waited on grants (its events release only
    // after the producer's LTC has crossed the network and come back as
    // a TAG), and the wait is visible in the counters.
    assert!(consumer.coordination_stats().grant_wait() > Duration::ZERO);
}

/// A zero-delay cycle (all deadlines and bounds zero, zero-latency
/// links): strict TAG bounds can never release the next microstep, so
/// progress must come from provisional PTAG grants — and does.
#[test]
fn zero_delay_cycle_progresses_via_ptags() {
    const ROUNDS: u8 = 8;
    let cfg = DearConfig::new(Duration::ZERO, Duration::ZERO);

    let mut sim = Simulation::new(9);
    let net = NetworkHandle::new(LinkConfig::ideal(Duration::ZERO), sim.fork_rng("net"));
    let sd = SdRegistry::new();
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));

    let log: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

    // Federate A: kicks off at startup, then relays pong -> ping + 1.
    let (fed_a, stats_a) = {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let publish = ServerEventTransactor::declare(&mut b, &outbox, "ping", Duration::ZERO);
        let input = ClientEventTransactor::declare(&mut b, "pong");
        {
            let mut logic = b.reactor("a_logic", ());
            let out = logic.output::<dear_someip::FrameBuf>("out");
            logic
                .reaction("kick")
                .triggered_by(dear_core::Startup)
                .effects(out)
                .body(move |_, ctx| ctx.set(out, vec![0].into()));
            let sink = log.clone();
            logic
                .reaction("relay")
                .triggered_by(input.event)
                .effects(out)
                .body(move |_, ctx| {
                    let v = ctx.get(input.event).unwrap()[0];
                    sink.lock().unwrap().push(v);
                    if v < ROUNDS {
                        ctx.set(out, vec![v + 1].into());
                    }
                });
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE_PING, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let platform = CoordinatedPlatform::new(
            "a",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            outbox,
            sim.fork_rng("a-costs"),
            &rti,
            &binding,
            false,
        );
        publish.bind(&platform, &binding, spec(SERVICE_PING));
        let stats = input.bind(&platform, &binding, spec(SERVICE_PONG), cfg);
        (platform, stats)
    };

    // Federate B: pure relay ping -> pong.
    let (fed_b, stats_b) = {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, "ping");
        let publish = ServerEventTransactor::declare(&mut b, &outbox, "pong", Duration::ZERO);
        {
            let mut logic = b.reactor("b_logic", ());
            let out = logic.output::<dear_someip::FrameBuf>("out");
            logic
                .reaction("relay")
                .triggered_by(input.event)
                .effects(out)
                .body(move |_, ctx| {
                    let v = ctx.get(input.event).unwrap()[0];
                    ctx.set(out, vec![v].into());
                });
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let binding = Binding::new(&net, &sd, NodeId(2), 0x22);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE_PONG, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let platform = CoordinatedPlatform::new(
            "b",
            Runtime::new(b.build().unwrap()),
            VirtualClock::ideal(),
            outbox,
            sim.fork_rng("b-costs"),
            &rti,
            &binding,
            false,
        );
        let stats = input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
        publish.bind(&platform, &binding, spec(SERVICE_PONG));
        (platform, stats)
    };

    rti.connect(fed_a.federate_id(), fed_b.federate_id(), Duration::ZERO);
    rti.connect(fed_b.federate_id(), fed_a.federate_id(), Duration::ZERO);

    fed_a.start(&mut sim);
    fed_b.start(&mut sim);
    sim.run_until(Instant::from_secs(1));

    // Every round came back, in order, all at time 0 (microsteps only).
    let log = log.lock().unwrap().clone();
    assert_eq!(log, (0..=ROUNDS).collect::<Vec<u8>>());
    assert_eq!(
        fed_a.max_processed_tag().unwrap().time,
        Instant::EPOCH,
        "the whole exchange happens at logical time zero"
    );
    assert!(
        rti.stats().ptags_issued > u64::from(ROUNDS),
        "each microstep round needs a provisional grant: {}",
        rti.stats()
    );
    for stats in [&stats_a, &stats_b] {
        assert_eq!(stats.stp_violations(), 0);
    }
    for p in [&fed_a, &fed_b] {
        assert_eq!(p.coordination_stats().bound_breaches(), 0);
        assert!(p.coordination_stats().ptags_received() > 0);
    }
}

/// Federate death: a producer whose control link to the RTI is severed
/// mid-run stops reporting. With liveness + heartbeats enabled, the RTI
/// declares it dead at a well-defined tag and releases its LBTS
/// contribution, so the consumer keeps advancing on the still-flowing
/// data plane; without liveness the consumer stalls forever on the
/// never-advancing grant. Runs the identical scenario both ways.
#[test]
fn dead_federate_releases_lbts_for_survivors() {
    fn run(enable_liveness: bool) -> (u64, usize, u64) {
        let deadline = Duration::from_millis(2);
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
        let edge_delay = deadline + cfg.stp_offset();

        let mut sim = Simulation::new(11);
        sim.enable_tracing();
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
        if enable_liveness {
            rti.enable_liveness(Duration::from_millis(50));
        }

        // Producer: emits 5 payloads on a 10ms timer (as above).
        let producer =
            {
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
                    logic.reaction("emit").triggered_by(t).effects(out).body(
                        move |n: &mut u8, ctx| {
                            *n += 1;
                            if *n <= 5 {
                                ctx.set(out, vec![*n].into());
                            }
                        },
                    );
                    logic.finish();
                    b.connect(out, publish.event).unwrap();
                }
                let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
                binding.offer(
                    &mut sim,
                    ServiceInstance::new(SERVICE_PING, INSTANCE),
                    Duration::from_secs(1 << 20),
                );
                let platform = CoordinatedPlatform::new(
                    "producer",
                    Runtime::new(b.build().unwrap()),
                    VirtualClock::ideal(),
                    Outbox::clone(&outbox),
                    sim.fork_rng("producer-costs"),
                    &rti,
                    &binding,
                    false,
                );
                publish.bind(&platform, &binding, spec(SERVICE_PING));
                platform
            };

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
            let binding = Binding::new(&net, &sd, NodeId(2), 0x22);
            let platform = CoordinatedPlatform::new(
                "consumer",
                Runtime::new(b.build().unwrap()),
                VirtualClock::ideal(),
                Outbox::clone(&outbox),
                sim.fork_rng("consumer-costs"),
                &rti,
                &binding,
                false,
            );
            input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
            platform
        };
        rti.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

        producer.start(&mut sim);
        consumer.start(&mut sim);
        // Heartbeats keep blocked-but-alive federates distinguishable
        // from dead ones.
        producer.enable_heartbeat(&mut sim, Duration::from_millis(10));
        consumer.enable_heartbeat(&mut sim, Duration::from_millis(10));

        // Sever the producer's control uplink after its third event: NET
        // and LTC reports (and heartbeats) stop reaching the RTI, while
        // the data plane (producer node -> consumer node) keeps flowing.
        let mut faults = dear_sim::FaultPlan::new();
        faults.kill_link(Instant::from_millis(35), NodeId(1), NodeId(0));
        faults.apply(&mut sim, &net);

        sim.run_until(Instant::from_secs(1));

        let deaths = rti.stats().deaths;
        let seen = seen.lock().unwrap().len();
        let death_traces = sim.trace_log().events_in("rti").count() as u64;
        (deaths, seen, death_traces)
    }

    let (deaths, seen, traces) = run(true);
    assert_eq!(deaths, 1, "the silent producer is declared dead");
    assert_eq!(traces, 1, "the death lands in the trace");
    assert_eq!(
        seen, 5,
        "survivors keep advancing: the in-flight data plane drains fully"
    );

    let (deaths, seen, _) = run(false);
    assert_eq!(deaths, 0);
    assert!(
        seen < 5,
        "without liveness the consumer stalls on the dead producer's bound (saw {seen})"
    );
}

/// A grant-kind echo arriving at the RTI must neither count as a sign of
/// life nor disarm the pending liveness check — regression for the
/// generation bump that used to run before the echo filter.
#[test]
fn grant_echoes_do_not_disarm_the_liveness_watchdog() {
    use dear_someip::{
        CoordKind, CoordMsg, COORD_INSTANCE, COORD_METHOD, COORD_SERVICE, TAG_NEVER,
    };

    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
    rti.enable_liveness(Duration::from_millis(50));

    let fed_binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    let fed = rti.register("fed", true).unwrap();
    let send = |sim: &mut Simulation, binding: &Binding, msg: CoordMsg| {
        binding
            .call_no_return(
                sim,
                COORD_SERVICE,
                COORD_INSTANCE,
                COORD_METHOD,
                msg.encode_into(&binding.pool()),
            )
            .unwrap();
    };
    // The federate joins, then goes silent forever.
    send(
        &mut sim,
        &fed_binding,
        CoordMsg::new(CoordKind::Join, fed.0, TAG_NEVER),
    );
    // Mid-silence, a stray grant echo reaches the RTI's method. It must
    // not supersede the liveness check armed by the Join.
    let echo_binding = fed_binding.clone();
    sim.schedule_at(Instant::from_millis(30), move |sim| {
        send(
            sim,
            &echo_binding,
            CoordMsg::new(CoordKind::Tag, fed.0, TAG_NEVER),
        );
    });

    sim.run_until(Instant::from_secs(1));
    assert_eq!(
        rti.stats().deaths,
        1,
        "the silent federate must still be declared dead: {}",
        rti.stats()
    );
}

/// Malformed control payloads — a truncated single record, a truncated
/// batch, random bytes — at each of the four receivers (the flat RTI's
/// method, a zone's member method, a zone's uplink event, the root's
/// roll-up method): nothing panics, every drop is counted in
/// `frames_rejected` and in nothing else, no grant, roll-up or relay goes
/// out in response, and the watchdogs armed before still fire on schedule
/// — a rejected frame is not a sign of life.
#[test]
fn garbage_control_frames_move_nothing() {
    use dear_federation::{
        zone_instance, zone_uplink_eventgroup, HierarchicalRti, RtiStats, COORD_ROOT_INSTANCE,
    };
    use dear_someip::{
        CoordBatch, CoordKind, CoordMsg, FrameBuf, COORD_EVENT, COORD_INSTANCE, COORD_METHOD,
        COORD_SERVICE, TAG_NEVER,
    };

    let deadline = Duration::from_millis(50);
    let mut sim = Simulation::new(3);
    sim.enable_tracing();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    // Nodes: 0 = flat RTI, 1 = root, 2 and 3 = zones 0 and 1, 9 = the
    // probe that plays every sender.
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
    rti.enable_liveness(deadline);
    let hier = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(1));
    let zone0 = hier.add_zone(&mut sim, &net, &sd, NodeId(2));
    let zone1 = hier.add_zone(&mut sim, &net, &sd, NodeId(3));
    hier.enable_liveness(&mut sim, deadline);
    let fed = rti.register("fed", false).unwrap();
    let m0 = hier.register(zone0, "m0", false).unwrap();
    let m1 = hier.register(zone1, "m1", false).unwrap();
    // Zone 0 imports from zone 1, so it holds a proxy a relay could move.
    hier.connect(m1, m0, Duration::from_millis(1));
    // Zone 1 never reaches the root: the zone watchdog armed when
    // liveness went on is due at exactly `deadline`.
    let mut faults = dear_sim::FaultPlan::new();
    faults.kill_link(Instant::EPOCH, NodeId(3), NodeId(1));
    faults.apply(&mut sim, &net);

    let probe = Binding::new(&net, &sd, NodeId(9), 0x19);
    let call = |sim: &mut Simulation, instance: u16, payload: FrameBuf| {
        probe
            .call_no_return(sim, COORD_SERVICE, instance, COORD_METHOD, payload)
            .unwrap();
    };
    // `fed` and `m0` join — arming their watchdogs when the Join lands,
    // one link latency in — and are never heard from again.
    for (instance, id) in [(COORD_INSTANCE, fed.0), (zone_instance(zone0), m0.0)] {
        let join = CoordMsg::new(CoordKind::Join, id, TAG_NEVER);
        call(&mut sim, instance, join.encode_into(&probe.pool()));
    }
    sim.run_until(Instant::from_millis(20));

    let snapshot = |net: &NetworkHandle| {
        let levels = [rti.stats(), hier.zone_stats(zone0), hier.root_stats()];
        (levels, net.stats().sent)
    };
    let (before, sent_before) = snapshot(&net);

    // Well-formed frames, each one byte short, and seven random bytes (no
    // record and no batch is that short).
    let next = tag_to_wire(Tag::at(Instant::from_millis(30)));
    let mut record = CoordMsg::net(fed.0, next, next).encode();
    record.pop();
    let mut batch = CoordBatch::pooled(&probe.pool());
    batch.push(&CoordMsg::new(CoordKind::Ltc, m0.0, next));
    batch.push(&CoordMsg::new(CoordKind::Floor, zone1.0, next));
    let mut batch = batch.freeze().to_vec();
    batch.pop();
    let mut rng = sim.fork_rng("garbage");
    let random: Vec<u8> = (0..7).map(|_| rng.next_u64() as u8).collect();
    for garbage in [record, batch, random] {
        for instance in [COORD_INSTANCE, zone_instance(zone0), COORD_ROOT_INSTANCE] {
            call(&mut sim, instance, garbage.clone().into());
        }
        probe.notify(
            &mut sim,
            dear_someip::ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
            zone_uplink_eventgroup(zone0),
            COORD_EVENT,
            garbage,
        );
    }
    sim.run_until(Instant::from_millis(21));

    let (after, sent_after) = snapshot(&net);
    // The zone has two receivers, the other levels one.
    let rejected = [3, 6, 3];
    for ((before, after), rejected) in before.into_iter().zip(after).zip(rejected) {
        assert_eq!(after.frames_rejected, before.frames_rejected + rejected);
        let elsewhere = RtiStats {
            frames_rejected: before.frames_rejected,
            ..after
        };
        assert_eq!(elsewhere, before, "no other counter may move");
    }
    assert_eq!(
        sent_after - sent_before,
        12,
        "only the garbage itself crossed the network"
    );

    sim.run_until(Instant::from_secs(1));
    let deaths: Vec<Instant> = sim.trace_log().events_in("rti").map(|e| e.at).collect();
    let on_join = Instant::from_micros(100) + deadline;
    assert_eq!(
        deaths,
        [Instant::EPOCH + deadline, on_join, on_join],
        "zone 1 at the root, then the two silent members: {}",
        rti.stats()
    );
    let levels = [rti.stats(), hier.zone_stats(zone0), hier.root_stats()];
    assert_eq!(levels.map(|stats| stats.deaths), [1, 1, 1]);
}

/// Without an RTI grant the consumer must sit on its pending event
/// forever — the runtime's bound gating is what enforces "never process
/// beyond the last granted bound".
#[test]
fn unconnected_topology_blocks_consumer() {
    let mut sim = Simulation::new(5);
    let net = NetworkHandle::new(LinkConfig::ideal(Duration::ZERO), sim.fork_rng("net"));
    let sd = SdRegistry::new();
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));

    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("lonely", 0u32);
    let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
    r.reaction("tick")
        .triggered_by(t)
        .body(|n: &mut u32, _| *n += 1);
    r.finish();
    let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    let platform = CoordinatedPlatform::new(
        "lonely",
        Runtime::new(b.build().unwrap()),
        VirtualClock::ideal(),
        Outbox::new(),
        sim.fork_rng("costs"),
        &rti,
        &binding,
        false,
    );
    // A phantom upstream that never joins: its floor stays at origin, so
    // no grant can ever cover the consumer's first tag.
    let ghost = rti.register("ghost", true).unwrap();
    rti.connect(ghost, platform.federate_id(), Duration::from_millis(1));

    platform.start(&mut sim);
    sim.run_until(Instant::from_secs(1));

    // The ghost's floor is stuck at the origin, so the only grant ever
    // issued is edge_add(origin, 1ms): exactly one timer tick (t = 0)
    // fits below it; the t = 1ms tick waits forever.
    assert_eq!(platform.stats().processed_tags, 1);
    assert_eq!(platform.max_processed_tag(), Some(Tag::ORIGIN));
    assert_eq!(
        platform.granted_bound(),
        Some(Tag::at(Instant::from_millis(1)))
    );
    assert!(platform.stats().bound_deferrals > 0 || platform.stats().processed_tags == 1);
}

/// The same phantom upstream under liveness, flat and inside a zone: a
/// registered member whose `Join` never arrives must be watched from the
/// first member frame its coordinator receives, declared dead one
/// deadline later, and release the consumer it would otherwise wedge on
/// its origin head.
#[test]
fn member_that_never_joins_is_declared_dead() {
    use dear_federation::HierarchicalRti;

    fn run(zoned: bool) {
        let deadline = Duration::from_millis(50);
        let mut sim = Simulation::new(5);
        sim.enable_tracing();
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();

        let mut b = ProgramBuilder::new();
        let mut r = b.reactor("lonely", 0u32);
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        r.reaction("tick")
            .triggered_by(t)
            .body(|n: &mut u32, _| *n += 1);
        r.finish();
        let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
        let runtime = Runtime::new(b.build().unwrap());
        let clock = VirtualClock::ideal();
        let costs = sim.fork_rng("costs");
        let (platform, ghost, deaths): (_, _, Box<dyn Fn() -> u64>) = if zoned {
            let hier = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            let zone = hier.add_zone(&mut sim, &net, &sd, NodeId(2));
            hier.enable_liveness(&mut sim, deadline);
            let platform = CoordinatedPlatform::new_in_zone(
                "lonely",
                runtime,
                clock,
                Outbox::new(),
                costs,
                &hier,
                zone,
                &binding,
                false,
            )
            .unwrap();
            let ghost = hier.register(zone, "ghost", true).unwrap();
            hier.connect(ghost, platform.federate_id(), Duration::from_millis(1));
            (
                platform,
                ghost,
                Box::new(move || hier.zone_stats(zone).deaths),
            )
        } else {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            rti.enable_liveness(deadline);
            let platform = CoordinatedPlatform::new(
                "lonely",
                runtime,
                clock,
                Outbox::new(),
                costs,
                &rti,
                &binding,
                false,
            );
            let ghost = rti.register("ghost", true).unwrap();
            rti.connect(ghost, platform.federate_id(), Duration::from_millis(1));
            (platform, ghost, Box::new(move || rti.stats().deaths))
        };

        platform.start(&mut sim);
        // The consumer's heartbeats keep it alive while it waits.
        platform.enable_heartbeat(&mut sim, Duration::from_millis(10));
        sim.run_until(Instant::from_secs(1));

        let variant = if zoned { "zoned" } else { "flat" };
        assert_eq!(deaths(), 1, "{variant}: the ghost {ghost} is declared dead");
        let deaths: Vec<Instant> = sim.trace_log().events_in("rti").map(|e| e.at).collect();
        assert_eq!(
            deaths,
            [Instant::from_micros(100) + deadline],
            "{variant}: one deadline after the consumer's Join reached its coordinator"
        );
        // Released, the ghost no longer bounds the consumer, whose 1 ms
        // timer runs on to the horizon.
        assert!(
            platform.stats().processed_tags > 900,
            "{variant}: the consumer advances past the dead ghost ({} tags)",
            platform.stats().processed_tags
        );
    }

    run(false);
    run(true);
}

fn us(micros: u64) -> Instant {
    Instant::from_micros(micros)
}

/// What one platform's driver loop did, seen from outside it.
#[derive(Debug, PartialEq)]
struct LoopTrace {
    /// Every processed tag with the simulation instant of its step (the
    /// clock is ideal, so the reaction's physical time is that instant).
    steps: Vec<(Tag, Instant)>,
    /// The simulation instant of every outbox drain that carried output.
    drains: Vec<Instant>,
    busy_until: Instant,
}

/// Drives one platform through the two same-instant re-arms: a delivery
/// that lands at exactly the armed wake instant (twice — once behind the
/// armed tag, once ahead of it), and whatever `midway` finds between the
/// first arm and the first step. Every step costs 1 ms of compute and
/// sends one message, so every step has a drain of its own.
fn run_rearm_scenario<D: PlatformDriver>(
    sim: &mut Simulation,
    build: impl FnOnce(&mut Simulation, Runtime, Outbox) -> D,
    midway: impl FnOnce(&D),
) -> LoopTrace {
    let steps = Arc::new(Mutex::new(Vec::new()));
    let outbox = Outbox::new();
    let route = outbox.allocate_route();
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("sink", ());
    let input = r.physical_action::<u8>("input", Duration::ZERO);
    let (seen, sender) = (steps.clone(), outbox.clone());
    let record = r
        .reaction("record")
        .triggered_by(input)
        .body(move |_, ctx| {
            seen.lock().unwrap().push((ctx.tag(), ctx.physical_time()));
            sender.push(OutboundMsg {
                route,
                payload: vec![0].into(),
                tag: tag_to_wire(ctx.tag()),
            });
        });
    r.finish();

    let driver = build(sim, Runtime::new(b.build().unwrap()), outbox);
    driver.set_reaction_cost(record, LatencyModel::constant(Duration::from_millis(1)));
    let drains = Rc::new(RefCell::new(Vec::new()));
    let sink = drains.clone();
    driver.register_route(route, move |sim, _| sink.borrow_mut().push(sim.now()));

    // The deliveries enter the calendar before the wake-ups they collide
    // with, so each runs while that wake-up is still pending.
    for (when, tag) in [(us(10_000), us(12_000)), (us(12_000), us(11_500))] {
        let driver = driver.clone();
        sim.schedule_at(when, move |sim| {
            driver.inject_at(sim, &input, 0, Tag::at(tag)).unwrap();
        });
    }
    driver.start(sim);
    driver
        .inject_at(sim, &input, 0, Tag::at(us(10_000)))
        .unwrap();
    sim.run_until(us(5_000));
    assert!(
        steps.lock().unwrap().is_empty(),
        "the first wake is pending"
    );
    midway(&driver);
    sim.run_until(Instant::from_secs(1));

    let steps = steps.lock().unwrap().clone();
    let drains = drains.borrow().clone();
    LoopTrace {
        steps,
        drains,
        busy_until: driver.platform().busy_until(),
    }
}

/// The seam the two driver copies used to disagree on: re-arming for the
/// instant a wake-up is already pending at. Under both policies the
/// pending wake-up keeps its calendar position, so steps, drains and
/// busy time agree to the instant and no superseded wake-up is ever
/// executed.
#[test]
fn same_instant_rearm_agrees_under_both_policies() {
    let expected = LoopTrace {
        // The tag delivered late (11.5 ms, arriving at 12 ms) overtakes
        // the armed 12 ms tag without moving the wake instant.
        steps: vec![
            (Tag::at(us(10_000)), us(10_000)),
            (Tag::at(us(11_500)), us(12_000)),
            (Tag::at(us(12_000)), us(13_000)),
        ],
        drains: vec![us(11_000), us(13_000), us(14_000)],
        busy_until: us(14_000),
    };
    // Two deliveries, three wake-ups, three drains — and nothing else.
    let loop_events = 8;

    let mut sim = Simulation::new(11);
    let decentralized = run_rearm_scenario(
        &mut sim,
        |sim, runtime, outbox| {
            let costs = sim.fork_rng("costs");
            FederatedPlatform::new("solo", runtime, VirtualClock::ideal(), outbox, costs)
        },
        |_| {},
    );
    assert_eq!(decentralized, expected);
    assert_eq!(sim.stats().executed_events, loop_events);

    // A federate with no upstream edge: its one grant is unconstrained,
    // and arrives while the wake-up for the 10 ms tag is pending.
    let mut sim = Simulation::new(11);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
    let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    let coordinated = run_rearm_scenario(
        &mut sim,
        |sim, runtime, outbox| {
            let costs = sim.fork_rng("costs");
            let clock = VirtualClock::ideal();
            CoordinatedPlatform::new("solo", runtime, clock, outbox, costs, &rti, &binding, false)
        },
        |platform| {
            assert_eq!(platform.coordination_stats().grants_received(), 1);
            assert_eq!(platform.granted_bound(), Some(TAG_MAX));
        },
    );
    assert_eq!(coordinated, expected);
    // Every frame on this network is a control frame, delivered by one
    // simulation event.
    let control_events = net.stats().sent;
    assert_eq!(sim.stats().executed_events - control_events, loop_events);
}
