//! The hot paths' stated bound, as exact counts: in steady state a
//! reaction of the untraced runtime — with or without a disabled
//! telemetry handle attached — and a pooled SOME/IP encode + decode
//! allocate **nothing**.
//!
//! The counter is per thread, so what the test harness allocates on its
//! own threads meanwhile is not counted.

use dear::observe::{Lane, Observe};
use dear::reactor::{ProgramBuilder, Runtime};
use dear::someip::{FramePool, MessageId, PayloadWriter, SomeIpMessage, WireTag};
use dear::time::{Duration, Instant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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
