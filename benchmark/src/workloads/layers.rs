//! Layer drivers: closed loops over one layer's public functions, with
//! the operation shapes the brake pipeline and the fleet use. Each yields
//! host nanoseconds per operation (fastest batch; spread kept beside it)
//! and, where the issue is allocation, exact allocations per operation.
//!
//! A driver's `ns × operations per frame` is an upper bound on what
//! optimising that layer can buy end to end: the benchmark is one thread
//! with no contention, so a faster layer saves at most its own share.
//!
//! `dear-time` is exercised inside every driver, `dear-macros` is compile
//! time only, and `dear-ara` serves only the stock-AP build the paper
//! argues against; none of the three has a driver.

use crate::alloc::counted;
use crate::metrics::Metric;
use crate::report::Samples;
use crate::trace::Tracer;
use dear_apd::{
    detect_vehicles, eba_decide, preprocess, Frame as CameraFrame, LaneBox, VehicleList,
};
use dear_arena::{Key, TypedArena};
use dear_core::{PhysicalAction, ProgramBuilder, Runtime, StepOutcome, Tag};
use dear_federation::{
    CoordinatedPlatform, EventLog, LbtsGraph, LbtsSolver, LogRecord, LogStorage, MemStorage,
    NodeView, Rti, TAG_MAX,
};
use dear_observe::{Lane, Observe};
use dear_sim::{
    Frame, FrameBuf, FramePool, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock,
};
use dear_someip::{
    Binding, CoordBatch, CoordMsg, MessageId, PayloadWriter, SdRegistry, ServiceInstance,
    SomeIpMessage, WireTag, HEADER_LEN,
};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, FederatedPlatform, Outbox, PlatformDriver,
    ServerEventTransactor, TransactorStats,
};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant as HostInstant;

/// What [`measure`] learned about one driver.
struct Measured {
    ns_per_op: f64,
    samples: Samples,
    allocs_per_op: f64,
}

/// Times `batch` — which performs and returns a number of operations —
/// repeatedly for about `budget_s` host seconds (at least five batches)
/// after two warm-up batches and one allocation-counted batch.
fn measure(
    tracer: &mut Tracer,
    span_name: &'static str,
    budget_s: f64,
    mut batch: impl FnMut() -> u64,
) -> Measured {
    let driver = tracer.begin(span_name, "");
    for _ in 0..2 {
        black_box(batch());
    }
    let (ops, count) = counted(&mut batch);
    let allocs_per_op = count.allocs as f64 / ops as f64;
    let started = HostInstant::now();
    let mut ns = Vec::new();
    while ns.len() < 5 || started.elapsed().as_secs_f64() < budget_s {
        let span = tracer.begin("batch", "");
        let t0 = HostInstant::now();
        let ops = batch();
        let elapsed = t0.elapsed();
        tracer.end(span);
        ns.push(elapsed.as_secs_f64() * 1e9 / ops as f64);
    }
    tracer.end(driver);
    let samples = Samples::of(&ns).expect("at least five finite batches");
    Measured {
        ns_per_op: samples.min,
        samples,
        allocs_per_op,
    }
}

/// One driver: its span, the metrics it fills, and its batch.
struct Driver {
    span: &'static str,
    ns: &'static str,
    /// Metric for the exact allocations per operation, where they matter.
    allocs: Option<&'static str>,
    /// A second exact metric the batch computes into a cell.
    extra: Option<(&'static str, Rc<Cell<f64>>)>,
    batch: Box<dyn FnMut() -> u64>,
}

fn driver(
    span: &'static str,
    ns: &'static str,
    allocs: Option<&'static str>,
    batch: impl FnMut() -> u64 + 'static,
) -> Driver {
    Driver {
        span,
        ns,
        allocs,
        extra: None,
        batch: Box::new(batch),
    }
}

/// Runs every layer driver, each for about `budget_s` host seconds. The
/// metrics come out in `BENCHMARK.json`'s order.
#[must_use]
pub fn run_all(budget_s: f64, tracer: &mut Tracer) -> Vec<Metric> {
    let (plain_hop, hop_events) = hop(false);
    let (coordinated_hop, _) = hop(true);
    let (append, bytes_per_record) = durable_append();
    #[rustfmt::skip]
    let drivers = vec![
        driver("layer.arena.lookup", "arena.lookup_ns", None, arena_lookup()),
        driver("layer.sim.event", "sim.event_ns", Some("sim.event_allocs"), sim_event()),
        driver("layer.sim.net_send", "sim.net_send_ns", Some("sim.net_send_allocs"), sim_net_send()),
        driver("layer.sim.pool_cycle", "sim.pool_cycle_ns", None, sim_pool_cycle()),
        driver("layer.core.step", "core.step_ns_per_reaction", Some("core.step_allocs_per_reaction"), core_step()),
        driver("layer.core.inject", "core.inject_ns", None, core_inject()),
        driver("layer.core.build", "core.build_ns", None, core_build),
        driver("layer.someip.wire", "someip.wire_ns_per_msg", Some("someip.wire_allocs_per_msg"), someip_wire()),
        driver("layer.someip.notify", "someip.notify_ns_per_msg", Some("someip.notify_allocs_per_msg"), someip_notify(1, 64)),
        driver("layer.someip.fanout16k", "someip.fanout16k_ns_per_msg", None, someip_notify(8, 16 * 1024)),
        driver("layer.someip.coord", "someip.coord_ns_per_record", None, someip_coord()),
        driver("layer.someip.batch", "someip.batch_ns_per_record", None, someip_batch()),
        Driver {
            extra: Some(("transactors.hop_sim_events_per_msg", hop_events)),
            ..driver("layer.transactors.hop", "transactors.hop_ns_per_msg", Some("transactors.hop_allocs_per_msg"), plain_hop)
        },
        driver("layer.federation.solve_n4", "federation.solve_ns_n4", None, solve(1, 4)),
        driver("layer.federation.solve_n400", "federation.solve_ns_n400", None, solve(40, 10)),
        driver("layer.federation.coordinated_hop", "federation.coordinated_hop_ns_per_msg", Some("federation.coordinated_hop_allocs_per_msg"), coordinated_hop),
        Driver {
            extra: Some(("durable.bytes_per_record", bytes_per_record)),
            ..driver("layer.durable.append", "durable.append_ns_per_record", Some("durable.append_allocs_per_record"), append)
        },
        driver("layer.durable.replay", "durable.replay_ns_per_record", None, durable_replay()),
        driver("layer.observe.off", "observe.off_ns_per_call", None, observe_off()),
        driver("layer.observe.count", "observe.count_ns", None, observe_count()),
        driver("layer.observe.span", "observe.span_ns", None, observe_span),
        driver("layer.apd.logic", "apd.logic_ns_per_frame", None, apd_logic),
    ];
    let mut out = Vec::new();
    for d in drivers {
        let m = measure(tracer, d.span, budget_s, d.batch);
        out.push(Metric::new(d.ns, m.ns_per_op, Some(m.samples)));
        if let Some(name) = d.allocs {
            out.push(Metric::new(name, m.allocs_per_op, None));
        }
        if let Some((name, value)) = d.extra {
            out.push(Metric::new(name, value.get(), None));
        }
    }
    out
}

const OPS: u64 = 4096;

/// A key like the runtime's `PortId`/`ActionId`: a dense `u32` newtype.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SlotKey(u32);

impl Key for SlotKey {
    fn from_index(index: usize) -> Self {
        SlotKey(u32::try_from(index).expect("bench sizes fit"))
    }
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// 4096 pseudo-random lookups into a 64-slot `TypedArena` — the access
/// pattern of the runtime's per-port and per-action state.
fn arena_lookup() -> impl FnMut() -> u64 {
    const SLOTS: usize = 64;
    const ROUNDS: u64 = 32;
    let arena: TypedArena<SlotKey, u64> = (0..SLOTS as u64).collect();
    move || {
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            let mut s = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..OPS {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc ^= arena[SlotKey::from_index((s >> 33) as usize % SLOTS)];
            }
        }
        black_box(acc);
        ROUNDS * OPS
    }
}

/// `schedule_in` + pop + dispatch of a no-op closure while 64 far-future
/// events keep the calendar at the depth a brake run sees.
fn sim_event() -> impl FnMut() -> u64 {
    let mut sim = Simulation::new(1);
    for i in 0..64 {
        sim.schedule_at(
            Instant::from_secs(1 << 30) + Duration::from_nanos(i),
            |_| {},
        );
    }
    move || {
        for _ in 0..OPS {
            sim.schedule_in(Duration::from_micros(1), |sim| {
                black_box(sim.now());
            });
            sim.step();
        }
        OPS
    }
}

fn pooled_payload(pool: &FramePool, len: usize) -> FrameBuf {
    let mut m = pool.acquire();
    m.reserve_headroom(HEADER_LEN);
    m.extend_from_slice(&PAYLOAD[..len]);
    m.freeze()
}

static PAYLOAD: [u8; 16 * 1024] = [0xAB; 16 * 1024];

/// `NetworkHandle::send` of a 64 B pooled frame over an ideal link to a
/// registered receiver.
fn sim_net_send() -> impl FnMut() -> u64 {
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    net.set_receiver(NodeId(1), |_, frame| {
        black_box(frame.payload.len());
    });
    let pool = FramePool::new();
    move || {
        for _ in 0..OPS {
            let frame = Frame {
                src: NodeId(0),
                dst: NodeId(1),
                payload: pooled_payload(&pool, 64),
            };
            net.send(&mut sim, frame);
            sim.run_to_completion();
        }
        OPS
    }
}

/// `FramePool` take → fill 64 B → freeze → drop (back to the pool).
fn sim_pool_cycle() -> impl FnMut() -> u64 {
    let pool = FramePool::new();
    move || {
        for _ in 0..OPS {
            black_box(pooled_payload(&pool, 64));
        }
        OPS
    }
}

/// `Runtime::step` over the 32-reactor timer fan-out of the
/// `runtime_throughput` bench, 200 tags per batch, untraced, sequential.
fn core_step() -> impl FnMut() -> u64 {
    let mut b = ProgramBuilder::new();
    for i in 0..32u64 {
        let mut r = b.reactor(&format!("w{i}"), 0u64);
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        r.reaction("work")
            .triggered_by(t)
            .body(move |acc: &mut u64, _| {
                *acc = acc
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407 + i);
            });
        r.finish();
    }
    let mut rt = Runtime::new(b.build().expect("fan-out builds"));
    rt.start(Instant::EPOCH);
    move || {
        let before = rt.stats().executed_reactions;
        rt.run_fast(200);
        rt.stats().executed_reactions - before
    }
}

/// `schedule_physical` + `step` of one physical-action event carrying a
/// 40 B frame: the entry point every transactor uses.
fn core_inject() -> impl FnMut() -> u64 {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("inbox", 0usize);
    let action: PhysicalAction<FrameBuf> = r.physical_action("arrived", Duration::ZERO);
    r.reaction("consume")
        .triggered_by(action)
        .body(move |bytes: &mut usize, ctx| {
            *bytes += ctx.get_action(&action).map_or(0, |f| f.len());
        });
    r.finish();
    let mut rt = Runtime::new(b.build().expect("inbox builds"));
    rt.start(Instant::EPOCH);
    let payload = FrameBuf::from(vec![0xAB; 40]);
    let mut now = Instant::EPOCH;
    move || {
        for _ in 0..OPS {
            now += Duration::from_micros(1);
            rt.schedule_physical(&action, payload.clone(), now)
                .expect("runtime is running");
            let outcome = rt.step(now);
            debug_assert!(matches!(outcome, StepOutcome::Processed(_)));
            black_box(outcome);
        }
        OPS
    }
}

/// A program shaped like the brake assistant's Computer Vision stage: two
/// client transactors, one server transactor, and a two-input reaction.
fn cv_shaped_program(outbox: &Outbox) -> Runtime {
    let mut b = ProgramBuilder::new();
    let lane_in = ClientEventTransactor::declare(&mut b, "lane");
    let frame_in = ClientEventTransactor::declare(&mut b, "frame_fwd");
    let publish =
        ServerEventTransactor::declare(&mut b, outbox, "vehicles", Duration::from_millis(25));
    let mut logic = b.reactor("logic", 0u64);
    let (lane, frame) = (
        logic.input::<FrameBuf>("lane"),
        logic.input::<FrameBuf>("frame"),
    );
    let vehicles = logic.output::<FrameBuf>("vehicles");
    logic
        .reaction("detect")
        .triggered_by(lane)
        .triggered_by(frame)
        .effects(vehicles)
        .body(move |n: &mut u64, ctx| {
            *n += 1;
            if let Some(f) = ctx.get(frame) {
                ctx.set(vehicles, f.clone());
            }
        });
    logic.finish();
    b.connect(lane_in.event, lane).expect("lane connects");
    b.connect(frame_in.event, frame).expect("frame connects");
    b.connect(vehicles, publish.event)
        .expect("vehicles connects");
    Runtime::new(b.build().expect("CV-shaped program builds"))
}

/// `ProgramBuilder` → `build()` → `Runtime::new` for the CV-shaped
/// program: what every stage pays at set-up and recovery pays again.
fn core_build() -> u64 {
    const BUILDS: u64 = 64;
    for _ in 0..BUILDS {
        black_box(cv_shaped_program(&Outbox::new()));
    }
    BUILDS
}

/// Pooled encode + in-place decode of a 64 B tagged notification.
fn someip_wire() -> impl FnMut() -> u64 {
    let pool = FramePool::new();
    let mut round = 0u64;
    move || {
        for _ in 0..OPS {
            round += 1;
            let mut w = PayloadWriter::pooled(&pool);
            w.write_u64(round).write_bytes(&PAYLOAD[..52]); // 8 + 4 + 52 = 64 B
            let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame())
                .with_tag(WireTag::new(round, 0));
            let frame = msg.into_frame(&pool);
            let decoded = SomeIpMessage::decode_frame(&frame).expect("decodes");
            black_box(decoded.payload[63]);
        }
        OPS
    }
}

/// `Binding::notify` → SD lookup → net → every subscriber's handler, in a
/// world built once: one message per operation, whatever the fan-out.
fn someip_notify(subscribers: u16, payload_len: usize) -> impl FnMut() -> u64 {
    const EVENTGROUP: u16 = 1;
    const EVENT: u16 = 0x8001;
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let server = Binding::new(&net, &sd, NodeId(1), 0x10);
    let instance = ServiceInstance::new(0x60, 1);
    server.offer(&mut sim, instance, Duration::from_secs(1 << 30));
    let clients: Vec<Binding> = (0..subscribers)
        .map(|i| {
            let c = Binding::new(&net, &sd, NodeId(2 + i), 0x20 + i);
            c.subscribe(instance, EVENTGROUP);
            c.on_event(instance.service, EVENT, |_, msg| {
                black_box(msg.payload.len());
            });
            c
        })
        .collect();
    let pool = server.pool();
    let ops = if payload_len > 1024 { OPS / 8 } else { OPS };
    move || {
        black_box(&clients);
        for _ in 0..ops {
            let payload = pooled_payload(&pool, payload_len);
            server.notify(&mut sim, instance, EVENTGROUP, EVENT, payload);
            sim.run_to_completion();
        }
        ops
    }
}

fn coord_record(i: u64) -> CoordMsg {
    CoordMsg::net(
        (i % 400) as u16,
        WireTag::new(10_000_000 * i, 0),
        WireTag::new(10_000_000 * i + 5_000_000, 0),
    )
}

/// `CoordMsg::encode_into` + `decode`: one control record on the flat
/// single-record path.
fn someip_coord() -> impl FnMut() -> u64 {
    let pool = FramePool::new();
    let mut i = 0u64;
    move || {
        for _ in 0..OPS {
            i += 1;
            let frame = coord_record(i).encode_into(&pool);
            black_box(CoordMsg::decode(&frame).expect("decodes"));
        }
        OPS
    }
}

/// `CoordBatch::pooled`/`push`/`freeze` + `CoordBatchView` iteration, ten
/// records per batch frame: the zones' control path.
fn someip_batch() -> impl FnMut() -> u64 {
    const RECORDS: u64 = 10;
    let pool = FramePool::new();
    let mut i = 0u64;
    move || {
        for _ in 0..OPS / RECORDS {
            let mut batch = CoordBatch::pooled(&pool);
            for _ in 0..RECORDS {
                i += 1;
                batch.push(&coord_record(i));
            }
            let frame = batch.freeze();
            let view = CoordBatch::decode(&frame).expect("decodes");
            for msg in view.iter() {
                black_box(msg);
            }
        }
        OPS / RECORDS * RECORDS
    }
}

const HOP_SERVICE: u16 = 0x3001;
const HOP_PERIOD: Duration = Duration::from_millis(10);
const HOP_DEADLINE: Duration = Duration::from_millis(2);
const HOP_LATENCY_BOUND: Duration = Duration::from_millis(3);

/// What the two ends of a hop are wired with, whatever drives them.
struct HopEnds {
    publish: ServerEventTransactor,
    subscribe: ClientEventTransactor,
    producer_binding: Binding,
    consumer_binding: Binding,
    spec: EventSpec,
    cfg: DearConfig,
}

/// One `ServerEventTransactor` → `ClientEventTransactor` hop between two
/// platforms on one simulation: a 10 ms timer publishes a 40 B payload
/// (publish reaction → outbox → wire → net → inject → release at
/// `t + D + L + E` → consumer reaction). `coordinated` runs the same hop
/// on two `CoordinatedPlatform`s under a flat `Rti`; the difference is
/// the coordination tax per message.
///
/// Returns the batch closure (operations = messages consumed) and a cell
/// holding the simulation events per message of the latest batch.
fn hop(coordinated: bool) -> (impl FnMut() -> u64, Rc<Cell<f64>>) {
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let cfg = DearConfig::new(HOP_LATENCY_BOUND, Duration::ZERO);
    let spec = EventSpec {
        service: HOP_SERVICE,
        instance: 1,
        eventgroup: 1,
        event: 0x8001,
    };

    let producer_outbox = Outbox::new();
    let mut b = ProgramBuilder::new();
    let publish = ServerEventTransactor::declare(&mut b, &producer_outbox, "samples", HOP_DEADLINE);
    let mut source = b.reactor("source", FrameBuf::from(vec![0xAB; 40]));
    let out = source.output::<FrameBuf>("out");
    let tick = source.timer("tick", HOP_PERIOD, Some(HOP_PERIOD));
    source
        .reaction("emit")
        .triggered_by(tick)
        .effects(out)
        .body(move |payload: &mut FrameBuf, ctx| ctx.set(out, payload.clone()));
    source.finish();
    b.connect(out, publish.event).expect("source connects");
    let producer_rt = Runtime::new(b.build().expect("producer builds"));

    // Reaction state must be `Send`, so the count crosses via an atomic.
    let counter = Arc::new(AtomicU64::new(0));
    let mut b = ProgramBuilder::new();
    let subscribe = ClientEventTransactor::declare(&mut b, "samples");
    let mut sink = b.reactor("sink", counter.clone());
    let input = sink.input::<FrameBuf>("in");
    sink.reaction("consume")
        .triggered_by(input)
        .body(move |n: &mut Arc<AtomicU64>, ctx| {
            if ctx.get(input).is_some() {
                n.fetch_add(1, Relaxed);
            }
        });
    sink.finish();
    b.connect(subscribe.event, input).expect("sink connects");
    let consumer_rt = Runtime::new(b.build().expect("consumer builds"));

    let producer_binding = Binding::new(&net, &sd, NodeId(1), 0x11);
    let consumer_binding = Binding::new(&net, &sd, NodeId(2), 0x22);
    producer_binding.offer(
        &mut sim,
        ServiceInstance::new(spec.service, spec.instance),
        Duration::from_secs(1 << 30),
    );

    // Binds both transactors and starts both platforms, whichever driver
    // they are; returns the subscriber's fault counters.
    fn wire<D: PlatformDriver>(
        sim: &mut Simulation,
        producer: &D,
        consumer: &D,
        ends: &HopEnds,
    ) -> TransactorStats {
        ends.publish
            .bind(producer, &ends.producer_binding, ends.spec);
        let faults = ends
            .subscribe
            .bind(consumer, &ends.consumer_binding, ends.spec, ends.cfg);
        producer.start(sim);
        consumer.start(sim);
        faults
    }
    let ends = HopEnds {
        publish,
        subscribe,
        producer_binding,
        consumer_binding,
        spec,
        cfg,
    };
    let (producer_rng, consumer_rng) = (sim.fork_rng("producer"), sim.fork_rng("consumer"));
    let clock = VirtualClock::ideal;
    let faults = if coordinated {
        let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
        let producer = CoordinatedPlatform::new(
            "producer",
            producer_rt,
            clock(),
            producer_outbox,
            producer_rng,
            &rti,
            &ends.producer_binding,
            false,
        );
        let consumer = CoordinatedPlatform::new(
            "consumer",
            consumer_rt,
            clock(),
            Outbox::new(),
            consumer_rng,
            &rti,
            &ends.consumer_binding,
            false,
        );
        rti.connect(
            producer.federate_id(),
            consumer.federate_id(),
            HOP_DEADLINE + cfg.stp_offset(),
        );
        wire(&mut sim, &producer, &consumer, &ends)
    } else {
        let producer = FederatedPlatform::new(
            "producer",
            producer_rt,
            clock(),
            producer_outbox,
            producer_rng,
        );
        let consumer = FederatedPlatform::new(
            "consumer",
            consumer_rt,
            clock(),
            Outbox::new(),
            consumer_rng,
        );
        wire(&mut sim, &producer, &consumer, &ends)
    };

    let events_per_msg = Rc::new(Cell::new(0.0));
    let events_out = events_per_msg.clone();
    let mut consumed = 0;
    let batch = move || {
        const MESSAGES: i64 = 1024;
        let events_before = sim.stats().executed_events;
        let until = sim.now() + HOP_PERIOD * MESSAGES;
        sim.run_until(until);
        let total = counter.load(Relaxed);
        let messages = total - std::mem::replace(&mut consumed, total);
        assert!(
            messages > 0 && faults.stp_violations() + faults.untagged_dropped() == 0,
            "the hop lost messages"
        );
        events_out.set((sim.stats().executed_events - events_before) as f64 / messages as f64);
        messages
    };
    (batch, events_per_msg)
}

/// A bench-side coordination graph: `zones` chains of `members` nodes,
/// chain 0's tail leading every other chain's head — the brake pipeline
/// for `(1, 4)`, the flat fleet for `(40, 10)` — mid-run: every node has
/// completed tag `k` and reports `k + 10 ms` as its head.
struct ChainGraph {
    nodes: Vec<NodeView>,
    upstream: Vec<Vec<(u16, Duration)>>,
}

impl ChainGraph {
    fn new(zones: usize, members: usize) -> Self {
        let n = zones * members;
        let completed = Tag::at(Instant::from_millis(500));
        let node = NodeView {
            released: false,
            external: false,
            completed: Some(completed),
            head: completed.delay(Duration::from_millis(10)),
            fence: TAG_MAX,
            period: None,
        };
        let edge = |up: usize| {
            (
                u16::try_from(up).expect("node ids fit u16"),
                Duration::from_millis(1),
            )
        };
        let mut upstream = vec![Vec::new(); n];
        for z in 0..zones {
            for m in 1..members {
                upstream[z * members + m].push(edge(z * members + m - 1));
            }
            if z > 0 {
                upstream[z * members].push(edge(members - 1));
            }
        }
        ChainGraph {
            nodes: vec![node; n],
            upstream,
        }
    }
}

impl LbtsGraph for ChainGraph {
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.nodes[i]
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.upstream[i]
    }
}

/// `LbtsSolver::solve` on a [`ChainGraph`]: the fixpoint the flat RTI
/// re-runs over all nodes on every control message.
fn solve(zones: usize, members: usize) -> impl FnMut() -> u64 {
    let graph = ChainGraph::new(zones, members);
    let mut solver = LbtsSolver::new();
    let solves = (OPS / (zones * members) as u64).max(8);
    move || {
        for _ in 0..solves {
            black_box(solver.solve(black_box(&graph)).len());
        }
        solves
    }
}

/// In-memory log storage that also counts the bytes appended, which
/// `LogStats` does not report.
struct CountingStorage {
    inner: MemStorage,
    bytes: Rc<Cell<u64>>,
}

impl LogStorage for CountingStorage {
    fn append(&mut self, bytes: &[u8]) {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.inner.append(bytes);
    }
    fn rotate(&mut self) {
        self.inner.rotate();
    }
    fn segment_count(&self) -> usize {
        self.inner.segment_count()
    }
    fn segment(&self, i: usize) -> Vec<u8> {
        self.inner.segment(i)
    }
}

fn input_record(i: u64) -> LogRecord {
    LogRecord::Input {
        key: 3,
        tag: Tag::at(Instant::from_nanos(1_000_000 * i)),
        bytes: PAYLOAD[..64].to_vec(),
    }
}

/// `EventLog::append` of 64 B `Input` records into in-memory storage, a
/// fresh log per batch. Also yields the framed bytes per record.
fn durable_append() -> (impl FnMut() -> u64, Rc<Cell<f64>>) {
    let records: Vec<LogRecord> = (0..OPS).map(input_record).collect();
    let bytes_per_record = Rc::new(Cell::new(0.0));
    let out = bytes_per_record.clone();
    let batch = move || {
        let bytes = Rc::new(Cell::new(0));
        let log = EventLog::with_storage(Box::new(CountingStorage {
            inner: MemStorage::new(),
            bytes: bytes.clone(),
        }));
        for record in &records {
            log.append(record);
        }
        out.set(bytes.get() as f64 / OPS as f64);
        OPS
    };
    (batch, bytes_per_record)
}

/// `EventLog::replay` of a log holding 4096 such records.
fn durable_replay() -> impl FnMut() -> u64 {
    let log = EventLog::in_memory();
    for i in 0..OPS {
        log.append(&input_record(i));
    }
    move || {
        let records = log.replay();
        assert_eq!(records.len() as u64, OPS, "replay lost records");
        black_box(records);
        OPS
    }
}

/// `count` + `span` on a disabled handle: what every workload but
/// `brake_observed` pays per telemetry call site.
fn observe_off() -> impl FnMut() -> u64 {
    let observe = Observe::disabled();
    move || {
        for i in 0..OPS {
            let at = Instant::from_nanos(i);
            black_box(&observe).count("runtime/reactions", 1);
            black_box(&observe).span(Lane::Sim, "tag", at, at);
        }
        2 * OPS
    }
}

/// `count` on an enabled handle, key already registered.
fn observe_count() -> impl FnMut() -> u64 {
    let observe = Observe::enabled();
    observe.count("runtime/reactions", 1);
    move || {
        for _ in 0..OPS {
            observe.count("runtime/reactions", 1);
        }
        OPS
    }
}

/// `span` on an enabled handle. A fresh handle per batch: the timeline
/// grows with the run, so reuse would time ever-larger state.
fn observe_span() -> u64 {
    let observe = Observe::enabled();
    for i in 0..OPS {
        let at = Instant::from_nanos(1000 * i);
        observe.span(Lane::Sim, "tag", at, at + Duration::from_nanos(500));
    }
    black_box(observe.span_count());
    OPS
}

/// The brake assistant's application work for one frame, payload codecs
/// included, in pipeline order: the floor no stack change can remove.
fn apd_logic() -> u64 {
    let mut brakes = 0u64;
    for id in 0..OPS {
        // Adapter: decode the camera frame, stamp it, re-encode.
        let camera = CameraFrame::new(id, 1000 * id).to_payload();
        let mut frame = CameraFrame::from_payload(&camera).expect("frame payload");
        frame.adapter_nanos = 1000 * id + 1;
        let adapted = frame.to_payload();
        // Preprocessing: lane box plus a same-tag forward of the frame.
        let frame = CameraFrame::from_payload(&adapted).expect("frame payload");
        let lane = preprocess(&frame).to_payload();
        let forwarded = frame.to_payload();
        // Computer Vision: both inputs decoded, detections encoded.
        let lane = LaneBox::from_payload(&lane).expect("lane payload");
        let frame = CameraFrame::from_payload(&forwarded).expect("frame payload");
        let vehicles = detect_vehicles(&frame, &lane).to_payload();
        // EBA.
        let vehicles = VehicleList::from_payload(&vehicles).expect("vehicle payload");
        brakes += u64::from(eba_decide(&vehicles));
    }
    black_box(brakes);
    OPS
}
