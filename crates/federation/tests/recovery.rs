//! Crash-recovery behavioural tests (the PR 10 tentpole): a federate
//! killed mid-run by a seeded [`FaultPlan`] restarts from its durable
//! event log, replays every logged input and processed tag into a fresh
//! runtime, suppresses outbound messages the wire already saw, rejoins
//! the coordinator with a `Rejoin` frame, and resumes live — with
//! post-rejoin traces and fingerprints **byte-identical** to a run that
//! never crashed, under the flat RTI and the two-level hierarchy, with
//! the control diet on and off.

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{
    CoordinatedPlatform, EventLog, HierarchicalRti, PlatformRecovery, Rti, ZoneId,
};
use dear_sim::{
    FaultPlan, LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock,
};
use dear_someip::{Binding, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

const SERVICE_PING: u16 = 0x0100;
const INSTANCE: u16 = 1;
const EVENTGROUP: u16 = 1;
const EVENT: u16 = 0x8001;

fn spec() -> EventSpec {
    EventSpec {
        service: SERVICE_PING,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event: EVENT,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Coordinator {
    Flat,
    TwoZones,
}

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Where and for how long the fault campaign kills one chain member.
#[derive(Clone, Copy)]
struct CrashSpec {
    member: usize,
    at: Instant,
    dead_for: Duration,
}

struct ChainReport {
    /// FNV over every member's processed count, max tag and full runtime
    /// trace fingerprint (replay re-executes history into the fresh
    /// runtime, so a recovered member's trace covers its whole life).
    fingerprint: u64,
    recovery: Option<PlatformRecovery>,
    rejoins: u64,
    bound_breaches: u64,
}

const CHAIN_ZONES: usize = 2;
const CHAIN_MEMBERS: usize = 3;

/// Six timer-only federates in one global chain `m0 → … → m5` (crossing
/// the zone boundary when hierarchical), 10 ms timers, 1 ms edges,
/// heartbeats and liveness on — so a crashed member is declared dead,
/// its floor released to survivors, and the `Rejoin` retreat path runs
/// end to end on recovery. The horizon (155 ms) sits off the timer
/// lattice so both runs settle on the same final tag regardless of
/// which gate — grant or clock — released it.
fn run_chain(
    seed: u64,
    coordinator: Coordinator,
    diet: bool,
    crash: Option<CrashSpec>,
) -> ChainReport {
    let n = CHAIN_ZONES * CHAIN_MEMBERS;
    let edge_delay = Duration::from_millis(1);
    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    let (flat, hier) = match coordinator {
        Coordinator::Flat => {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            if diet {
                rti.enable_control_diet();
            }
            rti.enable_liveness(Duration::from_millis(8));
            (Some(rti), None)
        }
        Coordinator::TwoZones => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            for z in 0..CHAIN_ZONES {
                h.add_zone(&mut sim, &net, &sd, NodeId(1 + z as u16));
            }
            if diet {
                h.enable_control_diet();
            }
            h.enable_liveness(&mut sim, Duration::from_millis(8));
            (None, Some(h))
        }
    };

    let make_runtime = |name: &str| {
        let mut b = ProgramBuilder::new();
        {
            let mut r = b.reactor(name, 0u64);
            let t = r.timer(
                "tick",
                Duration::from_millis(10),
                Some(Duration::from_millis(10)),
            );
            r.reaction("tick")
                .triggered_by(t)
                .body(|ticks: &mut u64, _| *ticks += 1);
            r.finish();
        }
        let mut rt = Runtime::new(b.build().unwrap());
        rt.enable_tracing();
        rt
    };

    let mut platforms = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("m{i}");
        let node = NodeId((1 + CHAIN_ZONES + i) as u16);
        let binding = Binding::new(&net, &sd, node, 0x1000 + i as u16);
        let runtime = make_runtime(&name);
        let rng = sim.fork_rng(&name);
        let p = match (&flat, &hier) {
            (Some(rti), None) => CoordinatedPlatform::new(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                rti,
                &binding,
                false,
            ),
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                h,
                ZoneId((i / CHAIN_MEMBERS) as u16),
                &binding,
                false,
            )
            .unwrap(),
            _ => unreachable!(),
        };
        let log = EventLog::in_memory();
        log.set_max_segment_bytes(256); // replay across segments
        p.attach_durable(log);
        platforms.push(p);
    }
    for w in platforms.windows(2) {
        let (u, d) = (w[0].federate_id(), w[1].federate_id());
        match (&flat, &hier) {
            (Some(rti), None) => rti.connect(u, d, edge_delay),
            (None, Some(h)) => h.connect(u, d, edge_delay),
            _ => unreachable!(),
        }
    }

    for p in &platforms {
        p.start(&mut sim);
        p.enable_heartbeat(&mut sim, Duration::from_millis(4));
    }

    let recovery: Rc<RefCell<Option<PlatformRecovery>>> = Rc::new(RefCell::new(None));
    if let Some(c) = crash {
        let target = platforms[c.member].clone();
        let node = NodeId((1 + CHAIN_ZONES + c.member) as u16);
        let name = format!("m{}", c.member);
        let report_slot = recovery.clone();
        net.on_node_event(move |sim, event_node, up| {
            if event_node != node {
                return;
            }
            if up {
                let fresh = make_runtime(&name);
                *report_slot.borrow_mut() = Some(target.recover(sim, fresh));
            } else {
                target.crash(sim);
            }
        });
        let mut faults = FaultPlan::new();
        faults.crash_node(c.at, node);
        faults.restore_node(c.at + c.dead_for, node);
        faults.apply(&mut sim, &net);
    }

    sim.run_until(Instant::from_millis(155));

    let mut h = Fnv::new();
    let mut bound_breaches = 0;
    for p in &platforms {
        bound_breaches += p.coordination_stats().bound_breaches();
        let tags = p.stats().processed_tags;
        let max = p.max_processed_tag().unwrap_or(Tag::ORIGIN);
        h.eat(tags);
        h.eat(max.time.as_nanos());
        h.eat(u64::from(max.microstep));
        h.eat(p.with_runtime(|rt| rt.take_trace().fingerprint()));
    }
    let taken = recovery.borrow_mut().take();
    ChainReport {
        fingerprint: h.0,
        recovery: taken,
        rejoins: match (&flat, &hier) {
            (Some(rti), None) => rti.stats().rejoins,
            (None, Some(h)) => h.stats().rejoins,
            _ => unreachable!(),
        },
        bound_breaches,
    }
}

/// Crash + rejoin leaves the fleet's processed-tag traces byte-identical
/// to a never-crashed run — flat and hierarchical, control diet on and
/// off, across four seeds — while the coordinator registers the rejoin
/// and nobody breaches a bound.
#[test]
fn crash_rejoin_is_trace_identical_across_seeds() {
    for (i, seed) in [1u64, 5, 9, 13].into_iter().enumerate() {
        let crash = CrashSpec {
            member: (seed as usize) % (CHAIN_ZONES * CHAIN_MEMBERS),
            at: Instant::from_millis(42 + 7 * i as u64),
            dead_for: Duration::from_millis(20),
        };
        for coordinator in [Coordinator::Flat, Coordinator::TwoZones] {
            for diet in [false, true] {
                let label = match coordinator {
                    Coordinator::Flat => format!("seed {seed} flat diet={diet}"),
                    Coordinator::TwoZones => format!("seed {seed} hier diet={diet}"),
                };
                let baseline = run_chain(seed, coordinator, diet, None);
                let crashed = run_chain(seed, coordinator, diet, Some(crash));
                assert_eq!(
                    baseline.fingerprint, crashed.fingerprint,
                    "{label}: crash+rejoin changed the trace"
                );
                let report = crashed.recovery.expect("recovery ran");
                assert!(
                    report.replayed_tags > 0,
                    "{label}: nothing was replayed ({report})"
                );
                assert_eq!(report.replay_mismatches, 0, "{label}: {report}");
                assert!(crashed.rejoins >= 1, "{label}: no rejoin reached the RTI");
                assert_eq!(crashed.bound_breaches, 0, "{label}");
                assert_eq!(baseline.bound_breaches, 0, "{label}");
            }
        }
    }
}

/// Crashing the DNET-suppressed chain tail *inside a grant-ahead window*
/// (control diet on): the logged windowed grant restores the horizon on
/// recovery and the trace still matches the never-crashed run.
#[test]
fn crash_in_dnet_suppressed_window_recovers_identically() {
    let crash = CrashSpec {
        member: CHAIN_ZONES * CHAIN_MEMBERS - 1, // the suppressed sink
        at: Instant::from_millis(47),
        dead_for: Duration::from_millis(20),
    };
    for coordinator in [Coordinator::Flat, Coordinator::TwoZones] {
        let baseline = run_chain(3, coordinator, true, None);
        let crashed = run_chain(3, coordinator, true, Some(crash));
        assert_eq!(baseline.fingerprint, crashed.fingerprint);
        let report = crashed.recovery.expect("recovery ran");
        assert!(
            report.restored_bound.is_some(),
            "no bound restored: {report}"
        );
        assert_eq!(report.replay_mismatches, 0);
        assert_eq!(crashed.bound_breaches, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property form: crash at a *random* member and tag, under a random
    /// seed — flat and hierarchical, diet on and off — and the rejoined
    /// run's fingerprint equals the uncrashed one.
    #[test]
    fn crash_rejoin_preserves_fingerprints(
        seed in any::<u64>(),
        member in 0usize..CHAIN_ZONES * CHAIN_MEMBERS,
        at_ms in 30u64..80,
        dead_ms in 12i64..25,
    ) {
        let crash = CrashSpec {
            member,
            at: Instant::from_millis(at_ms),
            dead_for: Duration::from_millis(dead_ms),
        };
        for coordinator in [Coordinator::Flat, Coordinator::TwoZones] {
            for diet in [false, true] {
                let baseline = run_chain(seed, coordinator, diet, None);
                let crashed = run_chain(seed, coordinator, diet, Some(crash));
                prop_assert_eq!(baseline.fingerprint, crashed.fingerprint);
                prop_assert_eq!(crashed.bound_breaches, 0);
            }
        }
    }
}

/// Data-plane producer crash: the emitter dies *between a processed tag
/// and its scheduled outbox drain* (a modelled 3 ms compute cost holds
/// the batch), so recovery must suppress the two already-sent events
/// and re-send the stranded one. The consumer — alive throughout — sees
/// the exact `(tag, value)` trace of a never-crashed run.
#[test]
fn producer_crash_suppresses_and_resends_exactly_once() {
    fn run(crash: bool) -> (Vec<(Tag, u8)>, Option<PlatformRecovery>, u64) {
        let deadline = Duration::from_millis(2);
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
        let edge_delay = deadline + cfg.stp_offset();

        let mut sim = Simulation::new(11);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));

        let outbox = Outbox::new();
        let make_producer_runtime = {
            let outbox = outbox.clone();
            move || {
                let mut b = ProgramBuilder::new();
                let publish = ServerEventTransactor::declare(&mut b, &outbox, "ping", deadline);
                let emit_rid;
                {
                    let mut logic = b.reactor("producer", 0u8);
                    let out = logic.output::<dear_someip::FrameBuf>("out");
                    let t = logic.timer(
                        "emit",
                        Duration::from_millis(10),
                        Some(Duration::from_millis(10)),
                    );
                    emit_rid = logic.reaction("emit").triggered_by(t).effects(out).body(
                        move |n: &mut u8, ctx| {
                            *n += 1;
                            if *n <= 10 {
                                ctx.set(out, vec![*n].into());
                            }
                        },
                    );
                    logic.finish();
                    b.connect(out, publish.event).unwrap();
                }
                (Runtime::new(b.build().unwrap()), publish, emit_rid)
            }
        };

        let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE_PING, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let (runtime, publish, emit_rid) = make_producer_runtime();
        let producer = CoordinatedPlatform::new(
            "producer",
            runtime,
            VirtualClock::ideal(),
            outbox.clone(),
            sim.fork_rng("producer-costs"),
            &rti,
            &binding,
            false,
        );
        publish.bind(&producer, &binding, spec());
        producer.attach_durable(EventLog::in_memory());
        // The cost defers each drain by 3 ms past the processed tag —
        // the window the crash lands in.
        producer.set_reaction_cost(emit_rid, LatencyModel::constant(Duration::from_millis(3)));

        let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
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
                outbox,
                sim.fork_rng("consumer-costs"),
                &rti,
                &binding,
                false,
            );
            input.bind(&platform, &binding, spec(), cfg);
            platform
        };
        rti.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

        producer.start(&mut sim);
        consumer.start(&mut sim);

        if crash {
            let target = producer.clone();
            let outbox_for_reset = outbox.clone();
            let make = make_producer_runtime.clone();
            net.on_node_event(move |sim, node, up| {
                if node != NodeId(1) {
                    return;
                }
                if up {
                    // Rebuild the identical program against the reset
                    // outbox so the transactor re-claims the same route.
                    outbox_for_reset.reset();
                    let (fresh, _, _) = make();
                    target.recover(sim, fresh);
                } else {
                    target.crash(sim);
                }
            });
            let mut faults = FaultPlan::new();
            faults.crash_node(Instant::from_millis(41), NodeId(1));
            faults.restore_node(Instant::from_millis(55), NodeId(1));
            faults.apply(&mut sim, &net);
        }

        sim.run_until(Instant::from_millis(200));
        let trace = seen.lock().unwrap().clone();
        let suppressed = producer.coordination_stats().replay_suppressed();
        (trace, producer.last_recovery(), suppressed)
    }

    let (baseline, none, _) = run(false);
    assert!(none.is_none());
    assert_eq!(baseline.len(), 10, "baseline lost events");

    let (recovered, report, suppressed) = run(true);
    let report = report.expect("recovery ran");
    assert_eq!(
        baseline, recovered,
        "consumer trace diverged after producer crash+rejoin ({report})"
    );
    assert_eq!(report.replay_mismatches, 0, "{report}");
    // Tags 10..=30 ms were drained pre-crash (suppressed on replay);
    // tag 40 ms was processed but its drain was stranded — re-sent.
    assert_eq!(suppressed, 3, "{report}");
    assert_eq!(report.suppressed_sends, 3, "{report}");
    assert_eq!(report.resent_sends, 1, "{report}");
}

/// Data-plane consumer crash with durable inputs: events that arrive
/// while the federate is down land in its log (the durable-inbox
/// property), and recovery replays logged pre-crash inputs plus the
/// banked ones into the fresh runtime — the rebuilt `(tag, value)`
/// history equals the never-crashed run's.
#[test]
fn consumer_crash_rebuilds_inputs_from_the_log() {
    fn run(crash: bool) -> (Vec<(Tag, u8)>, Option<PlatformRecovery>, u64) {
        let deadline = Duration::from_millis(2);
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
        let edge_delay = deadline + cfg.stp_offset();

        let mut sim = Simulation::new(23);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));

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
                            if *n <= 10 {
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
                    outbox.clone(),
                    sim.fork_rng("producer-costs"),
                    &rti,
                    &binding,
                    false,
                );
                publish.bind(&platform, &binding, spec());
                platform
            };

        let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        let make_consumer_runtime = {
            let seen = seen.clone();
            move || {
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
                (Runtime::new(b.build().unwrap()), input)
            }
        };

        let binding = Binding::new(&net, &sd, NodeId(2), 0x22);
        let (runtime, input) = make_consumer_runtime();
        let consumer = CoordinatedPlatform::new(
            "consumer",
            runtime,
            VirtualClock::ideal(),
            Outbox::new(),
            sim.fork_rng("consumer-costs"),
            &rti,
            &binding,
            false,
        );
        let stats = input.bind(&consumer, &binding, spec(), cfg);
        consumer.attach_durable(EventLog::in_memory());
        consumer.register_durable_input(
            input.action(),
            |frame, out| out.extend_from_slice(frame),
            |bytes| Some(bytes.to_vec().into()),
        );
        rti.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

        producer.start(&mut sim);
        consumer.start(&mut sim);

        if crash {
            let target = consumer.clone();
            let make = make_consumer_runtime.clone();
            let sink = seen.clone();
            net.on_node_event(move |sim, node, up| {
                if node != NodeId(2) {
                    return;
                }
                if up {
                    // Replay re-executes history, refilling the sink from
                    // scratch — clear the partial pre-crash view first.
                    sink.lock().unwrap().clear();
                    let (fresh, _) = make();
                    target.recover(sim, fresh);
                } else {
                    target.crash(sim);
                }
            });
            let mut faults = FaultPlan::new();
            faults.crash_node(Instant::from_millis(35), NodeId(2));
            faults.restore_node(Instant::from_millis(75), NodeId(2));
            faults.apply(&mut sim, &net);
        }

        sim.run_until(Instant::from_millis(200));
        let trace = seen.lock().unwrap().clone();
        (trace, consumer.last_recovery(), stats.stp_violations())
    }

    let (baseline, none, baseline_stp) = run(false);
    assert!(none.is_none());
    assert_eq!(baseline.len(), 10, "baseline lost events");
    assert_eq!(baseline_stp, 0);

    let (recovered, report, stp) = run(true);
    let report = report.expect("recovery ran");
    assert_eq!(
        baseline, recovered,
        "consumer trace diverged after its own crash+rejoin ({report})"
    );
    assert_eq!(stp, 0, "late injections violated safe-to-process");
    assert_eq!(report.replay_mismatches, 0, "{report}");
    // Three events were live pre-crash; four more arrived while down and
    // were banked straight into the log by the durable inbox.
    assert!(
        report.replayed_inputs >= 7,
        "expected >=7 replayed inputs: {report}"
    );
    assert!(report.replayed_tags >= 3, "{report}");
}
