//! **Figure 2** — the AP communication mechanism, as microbenchmarks.
//!
//! Figure 2 is the architecture diagram of the proxy → SOME/IP → skeleton
//! path. This harness exercises exactly that code path and measures its
//! cost in the simulation — and, since the zero-copy frame refactor,
//! *proves* the data path's allocation and copy behaviour under a
//! counting global allocator:
//!
//! 1. *Frame-path profile*: steady-state encode + decode of a 64 B
//!    tagged notification through the pooled path
//!    (`PayloadWriter::pooled` → `into_frame` → `decode_frame`). The
//!    harness asserts **0 allocations per message** after warmup and
//!    that the decoded payload is a *view into the frame* (same address
//!    as the bytes after the header — written once, read in place).
//! 2. *Wire format*: encode/decode timings, reference (allocating)
//!    encoder vs the pooled in-place assembler.
//! 3. *End-to-end*: an 8-subscriber event fan-out through the simulated
//!    network, built per iteration and in steady state.
//!
//! Run with `cargo bench -p dear-bench --bench someip_path`
//! (append `-- --test` for a single-pass smoke run).

// The counting allocator mirrors `runtime_throughput`: `GlobalAlloc` is
// an unsafe trait, and delegating to `System` while bumping an atomic is
// the standard, auditable pattern for measuring allocation behaviour
// without external tooling.
#![allow(unsafe_code)]

use criterion::{criterion_group, Criterion};
use dear_sim::{FramePool, LinkConfig, NetworkHandle, NodeId, Simulation};
use dear_someip::{
    Binding, MessageId, PayloadWriter, RequestId, SdRegistry, ServiceInstance, SomeIpMessage,
    WireTag, HEADER_LEN,
};
use dear_time::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: pure delegation to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One pooled encode + decode of a 64 B tagged notification: serialize
/// through a headroom writer, assemble the wire frame in place, decode
/// the payload as a view. Returns a byte read *through the view* so the
/// whole path is observable.
fn pooled_roundtrip(pool: &FramePool, round: u64) -> u8 {
    let mut w = PayloadWriter::pooled(pool);
    w.write_u64(round).write_bytes(&[0xAB; 52]); // 8 + 4 + 52 = 64 B
    let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame())
        .with_tag(WireTag::new(round, 0));
    let frame = msg.into_frame(pool);
    let decoded = SomeIpMessage::decode_frame(&frame).expect("decodes");
    decoded.payload[63]
}

/// The pre-refactor shape of the same operation: every layer boundary
/// copies (payload `Vec` → encode `Vec` → decoded payload copy).
fn copying_roundtrip(round: u64) -> u8 {
    let mut w = PayloadWriter::new();
    w.write_u64(round).write_bytes(&[0xAB; 52]);
    let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_bytes())
        .with_tag(WireTag::new(round, 0));
    let bytes = msg.encode();
    let decoded = SomeIpMessage::decode(&bytes).expect("decodes");
    decoded.payload[63]
}

/// Steady-state allocation profile of the pooled frame path, plus the
/// read-in-place proof. Asserts the PR's acceptance criteria.
fn frame_path_report(test_mode: bool) {
    let rounds = if test_mode { 256u64 } else { 65_536 };
    let pool = FramePool::new();

    // Warmup: let the pool reach its steady-state working set.
    for r in 0..64 {
        black_box(pooled_roundtrip(&pool, r));
    }

    let created_before = pool.stats().created;
    let allocs_before = allocations();
    for r in 0..rounds {
        black_box(pooled_roundtrip(&pool, r));
    }
    let allocs = allocations() - allocs_before;
    let per_msg = allocs as f64 / rounds as f64;
    let created = pool.stats().created - created_before;

    // Copy count: the decoded payload must be the same memory the writer
    // filled — no copy anywhere between serialization and read.
    let mut w = PayloadWriter::pooled(&pool);
    w.write_bytes(&[0xEE; 60]);
    let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame());
    let frame = msg.into_frame(&pool);
    let decoded = SomeIpMessage::decode_frame(&frame).expect("decodes");
    let in_place = std::ptr::eq(
        &decoded.payload.as_slice()[0],
        &frame.as_slice()[HEADER_LEN],
    );

    let allocs_before = allocations();
    for r in 0..rounds {
        black_box(copying_roundtrip(r));
    }
    let copying_per_msg = (allocations() - allocs_before) as f64 / rounds as f64;

    dear_bench::header("someip_path — 64 B tagged notification, encode + decode");
    println!("  pooled frame path : {per_msg:.4} allocs/msg ({rounds} messages steady state)");
    println!("  copying reference : {copying_per_msg:.4} allocs/msg (pre-refactor shape)");
    println!("  payload read in place (decoded view aliases frame bytes): {in_place}");
    println!("  pool buffers created during measurement: {created}");

    assert_eq!(
        per_msg, 0.0,
        "steady-state pooled encode+decode must perform zero allocations"
    );
    assert_eq!(created, 0, "steady state must not grow the pool");
    assert!(in_place, "decoded payload must alias the received frame");
}

fn bench_wire_format(c: &mut Criterion) {
    let pool = FramePool::new();
    let make_msg = |payload: Vec<u8>| {
        SomeIpMessage::request(
            MessageId::new(0x1234, 0x0001),
            RequestId::new(0x11, 0x22),
            payload,
        )
    };
    let msg = make_msg(vec![0xAB; 64]);
    let tagged = msg.clone().with_tag(WireTag::new(123_456_789, 2));
    let plain_bytes = msg.encode();
    let tagged_bytes = tagged.encode();
    let tagged_frame = tagged.clone().into_frame(&pool);

    c.bench_function("someip/encode_plain_64B", |b| {
        b.iter(|| black_box(msg.encode()))
    });
    c.bench_function("someip/encode_tagged_64B", |b| {
        b.iter(|| black_box(tagged.encode()))
    });
    // The pooled path including serialization (the fair comparison: the
    // in-place assembly consumes its payload, so the writer runs inside
    // the loop).
    c.bench_function("someip/encode_tagged_64B_pooled", |b| {
        b.iter(|| {
            let mut w = PayloadWriter::pooled(&pool);
            w.write_bytes(&[0xAB; 60]);
            let m = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame())
                .with_tag(WireTag::new(123_456_789, 2));
            black_box(m.into_frame(&pool))
        })
    });
    c.bench_function("someip/decode_plain_64B", |b| {
        b.iter(|| SomeIpMessage::decode(black_box(&plain_bytes)).expect("decodes"))
    });
    c.bench_function("someip/decode_tagged_64B", |b| {
        b.iter(|| SomeIpMessage::decode(black_box(&tagged_bytes)).expect("decodes"))
    });
    c.bench_function("someip/decode_tagged_64B_frame", |b| {
        b.iter(|| SomeIpMessage::decode_frame(black_box(&tagged_frame)).expect("decodes"))
    });
    c.bench_function("someip/roundtrip_tagged_64B_pooled", |b| {
        b.iter(|| black_box(pooled_roundtrip(&pool, 7)))
    });
    c.bench_function("someip/roundtrip_tagged_64B_copying", |b| {
        b.iter(|| black_box(copying_roundtrip(7)))
    });
}

/// Event notification fan-out to 8 subscribers (one encode, shared
/// frames).
fn bench_event_fanout(c: &mut Criterion) {
    c.bench_function("someip/event_fanout_8_subscribers", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1);
            let net = NetworkHandle::new(
                LinkConfig::ideal(Duration::from_micros(100)),
                sim.fork_rng("net"),
            );
            let sd = SdRegistry::new();
            let server = Binding::new(&net, &sd, NodeId(1), 0x10);
            let inst = ServiceInstance::new(0x60, 1);
            server.offer(&mut sim, inst, Duration::from_secs(10));
            for i in 2..10u16 {
                let c = Binding::new(&net, &sd, NodeId(i), 0x20 + i);
                c.subscribe(inst, 1);
                c.on_event(0x60, 0x8001, |_, _| {});
            }
            server.notify(&mut sim, inst, 1, 0x8001, vec![0xEE; 32]);
            sim.run_to_completion();
            black_box(sim.stats().executed_events)
        })
    });
}

/// Steady-state fan-out: the world is built once; each iteration is one
/// notification delivered to all 8 subscribers — the path the frame
/// refactor targets (one pooled encode, shared frames, recycled
/// buffers).
fn bench_event_fanout_steady(c: &mut Criterion) {
    let mut sim = Simulation::new(1);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let server = Binding::new(&net, &sd, NodeId(1), 0x10);
    let inst = ServiceInstance::new(0x60, 1);
    server.offer(&mut sim, inst, Duration::from_secs(1 << 30));
    let mut clients = Vec::new();
    for i in 2..10u16 {
        let c = Binding::new(&net, &sd, NodeId(i), 0x20 + i);
        c.subscribe(inst, 1);
        c.on_event(0x60, 0x8001, |_, _| {});
        clients.push(c);
    }
    let pool = server.pool();
    // Payload-size sweep: the pooled path's cost is flat in payload size
    // (bytes written once, shared by all 8 subscribers, read in place),
    // where the pre-refactor path copied 9+ times per notification.
    for (name, size) in [("32B", 32usize), ("1KiB", 1024), ("16KiB", 16384)] {
        let payload = vec![0xEE; size];
        c.bench_function(&format!("someip/event_fanout_8_steady_{name}"), |b| {
            b.iter(|| {
                let mut m = pool.acquire();
                m.reserve_headroom(HEADER_LEN);
                m.extend_from_slice(&payload);
                server.notify(&mut sim, inst, 1, 0x8001, m.freeze());
                sim.run_to_completion();
                black_box(sim.stats().executed_events)
            })
        });
    }
}

criterion_group!(
    benches,
    bench_wire_format,
    bench_event_fanout,
    bench_event_fanout_steady
);

fn main() {
    // Single source of truth for flag parsing: the vendored criterion.
    let test_mode = Criterion::default().is_test_mode();
    frame_path_report(test_mode);
    benches();
}
