//! Allocation ratchet for a one-frame `run_det`: the deterministic
//! stand-in for the benchmark's `setup_s` on the `brake_*` workloads,
//! which times exactly this call and is too noisy on a shared VM to debug
//! against (identical code has read 20.7, 21.7 and 27.6 µs).
//!
//! The decentralized count is pinned **exactly**: that build never runs a
//! coordinator, so a change to `dear-federation` that moves it has leaked
//! out of its layer. The centralized count is a ceiling (720 before the
//! incremental solver, 699 with it): work moved into coordinator
//! construction or into the first solve — where the solver builds its
//! topology tables — shows up here as a number, not as a noisy 25 % on a
//! 50 µs timing.
//!
//! One test function: the counter is process-global, and the test
//! harness runs functions on parallel threads.

use dear_apd::{run_det, DetParams};
use dear_transactors::Coordination;
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Allocations of one one-frame `run_det` at seed 1, after warm-up runs
/// have filled every process-wide lazy (thread-locals, the harness's own
/// buffers). Two measured runs must agree or the count is not a count.
fn one_frame_allocations(coordination: Coordination) -> u64 {
    let params = DetParams {
        frames: 1,
        coordination,
        ..DetParams::default()
    };
    let measure = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = run_det(1, &params);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report.frames_sent, 1);
        allocations
    };
    for _ in 0..3 {
        measure();
    }
    let (first, second) = (measure(), measure());
    assert_eq!(first, second, "{coordination:?}: the count must repeat");
    first
}

#[test]
fn one_frame_run_det_allocation_ratchet() {
    assert_eq!(
        one_frame_allocations(Coordination::Decentralized),
        534,
        "the decentralized build runs no coordinator: nothing in this change may reach it"
    );
    let centralized = one_frame_allocations(Coordination::Centralized);
    assert!(
        centralized <= 699,
        "one centralized frame allocated {centralized} times (ceiling 699; it was 720 before \
         the incremental solver took the per-round buffers out)"
    );
}
