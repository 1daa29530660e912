//! The hot paths' stated bound, as exact counts: in steady state a
//! reaction of the untraced runtime — with or without a disabled
//! telemetry handle attached — port writes and physical-action
//! injections, a pooled SOME/IP encode + decode, a network send plus its
//! delivery, and a decentralized platform's wake, outbox drain and
//! two-subscriber notify fan-out allocate **nothing**.
//! A durable-log append allocates only when the segment's `Vec` grows.
//!
//! The counter is per thread, so what the test harness allocates on its
//! own threads meanwhile is not counted.

use dear::federation::{EventLog, LogRecord};
use dear::observe::{Lane, Observe};
use dear::reactor::{ProgramBuilder, Runtime, Tag};
use dear::sim::{Frame, LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear::someip::{
    Binding, FrameBuf, FramePool, MessageId, PayloadWriter, SdRegistry, ServiceInstance,
    SomeIpMessage, WireTag,
};
use dear::time::{Duration, Instant};
use dear::transactors::{tag_to_wire, FederatedPlatform, OutboundMsg, Outbox, PlatformDriver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;

thread_local! {
    /// Allocations made by *this* thread: the harness's own threads may
    /// allocate while the test measures, and must not be counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: pure delegation to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const REACTORS: u64 = 32;
const TAGS: u64 = 2048;

/// Allocations over `TAGS` tags of `REACTORS` independent reactors, each
/// on its own 1 ms timer with a pure-arithmetic body (no ports, no
/// actions: the minimal hot loop). A 256-tag warm-up first lets every
/// buffer reach its steady-state capacity.
fn fanout_allocations(observe: Option<Observe>) -> u64 {
    let mut b = ProgramBuilder::new();
    for i in 0..REACTORS {
        let mut r = b.reactor(&format!("w{i}"), 0u64);
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        r.reaction("work")
            .triggered_by(t)
            .body(move |acc: &mut u64, _ctx| {
                *acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407 + i);
            });
        r.finish();
    }
    let mut rt = Runtime::new(b.build().expect("fan-out builds"));
    if let Some(observe) = observe {
        rt.set_observe(observe, Lane::Sim);
    }
    rt.start(Instant::EPOCH);
    rt.run_fast(256);
    let reactions = rt.stats().executed_reactions;
    let before = allocations();
    rt.run_fast(TAGS);
    let allocated = allocations() - before;
    assert_eq!(rt.stats().executed_reactions - reactions, REACTORS * TAGS);
    allocated
}

#[test]
fn untraced_reactions_allocate_nothing() {
    assert_eq!(fanout_allocations(None), 0);
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    assert_eq!(fanout_allocations(Some(Observe::disabled())), 0);
}

/// A runtime shaped like the Computer Vision stage: two physical actions
/// injected with `schedule_physical_at` at one tag, two reactions
/// forwarding them to output ports, a two-input reaction writing an
/// output, and a sink reading it — two injections and three port writes
/// per tag, each value a recycled slot once warmed up.
#[test]
fn port_writes_and_injections_allocate_nothing() {
    const TAGS: i64 = 4096;
    let mut b = ProgramBuilder::new();
    let mut forwarded = Vec::new();
    let mut actions = Vec::new();
    for name in ["lane", "frame"] {
        let mut r = b.reactor(name, ());
        let arrived = r.physical_action::<FrameBuf>("arrived", Duration::ZERO);
        let event = r.output::<FrameBuf>("event");
        r.reaction("forward")
            .triggered_by(arrived)
            .effects(event)
            .body(move |_, ctx| {
                let frame = ctx.get_action(&arrived).expect("present").clone();
                ctx.set(event, frame);
            });
        r.finish();
        forwarded.push(event);
        actions.push(arrived);
    }
    let mut logic = b.reactor("logic", ());
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
        .body(move |_, ctx| {
            let lanes = ctx.get(lane).expect("lane present").len();
            let detected = ctx.get(frame).expect("frame present").clone();
            black_box(lanes);
            ctx.set(vehicles, detected);
        });
    logic.finish();
    let mut sink = b.reactor("sink", 0usize);
    let decided = sink.input::<FrameBuf>("vehicles");
    sink.reaction("decide")
        .triggered_by(decided)
        .body(move |bytes: &mut usize, ctx| {
            *bytes += ctx.get(decided).expect("vehicles present").len();
        });
    sink.finish();
    b.connect(forwarded[0], lane).expect("lane connects");
    b.connect(forwarded[1], frame).expect("frame connects");
    b.connect(vehicles, decided).expect("vehicles connects");

    let mut rt = Runtime::new(b.build().expect("CV-shaped program builds"));
    rt.start(Instant::EPOCH);
    let payload = FrameBuf::from(vec![0xAB; 40]);
    let mut inject_and_step = |i: i64| {
        let tag = Tag::at(Instant::EPOCH + Duration::from_millis(i + 1));
        for action in &actions {
            rt.schedule_physical_at(action, payload.clone(), tag)
                .expect("future tag");
        }
        rt.step(tag.time);
    };
    for i in 0..64 {
        inject_and_step(i);
    }
    let before = allocations();
    for i in 64..64 + TAGS {
        inject_and_step(i);
    }
    assert_eq!(allocations() - before, 0, "allocations over {TAGS} tags");
    assert_eq!(rt.stats().executed_reactions, 4 * (64 + TAGS) as u64);
}

/// One pooled encode + decode of a 64 B tagged notification: serialize
/// through a headroom writer, assemble the wire frame in place, decode
/// the payload as a view, and read a byte through it.
fn pooled_roundtrip(pool: &FramePool, round: u64) -> u8 {
    let mut w = PayloadWriter::pooled(pool);
    w.write_u64(round).write_bytes(&[0xAB; 52]); // 8 + 4 + 52 = 64 B
    let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame())
        .with_tag(WireTag::new(round, 0));
    let frame = msg.into_frame(pool);
    SomeIpMessage::decode_frame(&frame)
        .expect("decodes")
        .payload[63]
}

#[test]
fn pooled_someip_roundtrip_allocates_nothing() {
    let pool = FramePool::new();
    for round in 0..64 {
        black_box(pooled_roundtrip(&pool, round));
    }
    let created = pool.stats().created;
    let before = allocations();
    for round in 0..65_536 {
        black_box(pooled_roundtrip(&pool, round));
    }
    assert_eq!(allocations() - before, 0, "allocations per message");
    assert_eq!(pool.stats().created, created, "steady state grew the pool");
}

/// `NetworkHandle::send` of a pooled 64 B frame plus its delivery to a
/// registered receiver: the frame waits in the network's in-flight table
/// and the calendar entry is `(network key, slot)`.
#[test]
fn network_send_and_delivery_allocate_nothing() {
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let received = Rc::new(Cell::new(0usize));
    let sink = received.clone();
    net.set_receiver(NodeId(1), move |_, frame| {
        sink.set(sink.get() + frame.payload.len());
    });
    let pool = FramePool::new();
    let send = |sim: &mut Simulation| {
        let mut payload = pool.acquire();
        payload.extend_from_slice(&[0xAB; 64]);
        let frame = Frame {
            src: NodeId(0),
            dst: NodeId(1),
            payload: payload.freeze(),
        };
        net.send(sim, frame);
        sim.run_to_completion();
    };
    for _ in 0..64 {
        send(&mut sim);
    }
    let before = allocations();
    for _ in 0..65_536 {
        send(&mut sim);
    }
    assert_eq!(allocations() - before, 0, "allocations per frame");
    assert_eq!(received.get(), 64 * (64 + 65_536));
}

/// A decentralized platform publishing on a 10 ms timer to two
/// subscribers, with 1 ms of modelled compute: every period is a keyed
/// platform wake, a step, a keyed outbox drain when the compute ends, and
/// a `Binding::notify` fan-out of two frames to two event handlers.
///
/// The publishing reaction pushes to the outbox itself; port writes are
/// `port_writes_and_injections_allocate_nothing`'s.
#[test]
fn decentralized_wake_drain_and_fan_out_allocate_nothing() {
    const PERIOD: Duration = Duration::from_millis(10);
    const PERIODS: i64 = 4096;
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let instance = ServiceInstance::new(0x60, 1);

    let outbox = Outbox::new();
    let (route, sender) = (outbox.allocate_route(), outbox.clone());
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("source", FrameBuf::from(vec![0xAB; 40]));
    let tick = r.timer("tick", PERIOD, Some(PERIOD));
    r.reaction("emit")
        .triggered_by(tick)
        .body(move |payload: &mut FrameBuf, ctx| {
            sender.push(OutboundMsg {
                route,
                payload: payload.clone(),
                tag: tag_to_wire(ctx.tag()),
            });
        });
    r.finish();
    let program = b.build().expect("source builds");
    let emit = program.find_reaction("source.emit").expect("emit reaction");
    let platform = FederatedPlatform::new(
        "source",
        Runtime::new(program),
        VirtualClock::ideal(),
        outbox,
        sim.fork_rng("costs"),
    );
    platform.set_reaction_cost(emit, LatencyModel::constant(Duration::from_millis(1)));
    let server = Binding::new(&net, &sd, NodeId(1), 0x11);
    server.offer(&mut sim, instance, Duration::from_secs(1 << 30));
    let publisher = server.clone();
    platform.register_route(route, move |sim, msg| {
        publisher.set_outgoing_tag(msg.tag);
        publisher.notify(sim, instance, 1, 0x8001, msg.payload);
    });
    let received = Rc::new(Cell::new(0i64));
    for node in [2u16, 3] {
        let client = Binding::new(&net, &sd, NodeId(node), 0x20 + node);
        client.subscribe(instance, 1);
        let (sink, tags) = (received.clone(), client.clone());
        client.on_event(0x60, 0x8001, move |_, _| {
            black_box(tags.take_incoming_tag());
            sink.set(sink.get() + 1);
        });
    }
    platform.start(&mut sim);
    sim.run_until(Instant::EPOCH + PERIOD * 64);
    let (before, received_before) = (allocations(), received.get());
    sim.run_until(Instant::EPOCH + PERIOD * (64 + PERIODS));
    assert_eq!(allocations() - before, 0, "allocations per period");
    assert_eq!(received.get() - received_before, 2 * PERIODS);
}

/// `EventLog::append` of prebuilt `Input`, `Granted`, `Processed` and
/// `Drained` records, the steady-state mix of a durable federate. Each
/// frame is assembled in the log's reused buffer, so what allocates is
/// the in-memory storage: the first segment doubling its `Vec` up to the
/// 64 KiB threshold, then one allocation per rotation (a new segment
/// starts at the closed one's capacity) and the segment list growing —
/// 17 times for these 10 000 records, 6 of them rotations.
#[test]
fn durable_append_allocates_only_for_segment_growth() {
    const RECORDS: u64 = 10_000;
    let record = |i: u64| {
        let tag = Tag::at(Instant::from_nanos(1_000_000 * i));
        match i % 4 {
            0 => LogRecord::Input {
                key: 3,
                tag,
                bytes: vec![0xAB; 64],
            },
            1 => LogRecord::Granted { bound: tag },
            2 => LogRecord::Processed {
                tag,
                local: 1_000_000 * i + 17,
            },
            _ => LogRecord::Drained { tag },
        }
    };
    let records: Vec<LogRecord> = (0..RECORDS).map(record).collect();
    let log = EventLog::in_memory();
    for record in &records[..4] {
        log.append(record);
    }
    let before = allocations();
    for record in &records {
        log.append(record);
    }
    let allocated = allocations() - before;
    assert!(
        allocated <= 24,
        "{allocated} allocations for {RECORDS} appends"
    );
    assert_eq!(log.replay()[4..], records[..]);
}
