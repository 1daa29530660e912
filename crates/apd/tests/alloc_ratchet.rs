//! Allocation ratchet for a one-frame `run_det`: the deterministic
//! stand-in for the benchmark's `setup_s` on the `brake_*` workloads,
//! which times exactly this call and is too noisy on a shared VM to debug
//! against (identical code has read 19.1, 21.7 and 27.6 µs).
//!
//! All five brake configurations the benchmark times are counted, so a
//! regression in platform construction or first-step work shows up as an
//! integer in tier-1, not as a coin-flip on a 50 µs timing.
//!
//! The decentralized count is pinned **exactly**: that build runs the
//! bare driver loop and no coordinator, so it moves only when the loop
//! or the pipeline's assembly changes. It was 534 while `FederatedPlatform` had its own copy
//! of the loop; the shared loop samples compute costs in place instead of
//! copying the executed-reaction list (5 processed tags per frame), hence
//! 529. Keyed calendar events, in-place SOME/IP fan-out, pooled logic
//! payloads and recycled reaction outcomes took it to 504, and the camera
//! as a keyed component (no boxed closure per frame) to 501. Assembling
//! every configuration along one path (one `Vec` of input counters for
//! all stages instead of one per stage, no result cells for failover or
//! recovery unless the scenario has them, decisions collected in place)
//! took every count down by 6, to 495. Recycled port and action slots
//! took every count up by 4, to 499: a one-frame run writes each port
//! about once, so it pays the first box of every slot as before, plus one
//! staging-slot `Vec` per writing reaction and one free list per injected
//! physical action, less the per-runtime arena and outcome buffers they
//! replaced; from the third write on, a slot allocates nothing. One
//! thread per runtime took every count down by 2 per runtime, to 491:
//! the runtime owns its program by value (no `Arc`) and commits each
//! reaction as it returns (no batch-result buffer). A change to
//! `dear-federation` that moves it has leaked out of its layer. The four
//! coordinated counts are ceilings, each the exact count at the commit
//! that made those changes (centralized was 720 before the incremental
//! solver, 699 with it, 620 with events as data, 611 with the one
//! assembly path, 615 with recycled slots, 607 with one thread per
//! runtime; durable was 783 before its frames were assembled in place).
//! Debug and release builds count the same.
//!
//! One test function: the counter is process-global, and the test
//! harness runs functions on parallel threads.

use dear_apd::{run_det, DetParams, RecoveryParams};
use dear_time::Duration;
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

/// The five brake configurations the benchmark times as `setup_s`, with
/// the `DetParams` it builds for each at one frame (the durable one
/// crashes the CV federate after frame `frames / 2 = 0` for 10 ms).
fn configurations() -> [(&'static str, DetParams); 5] {
    let centralized = DetParams {
        frames: 1,
        coordination: Coordination::Centralized,
        ..DetParams::default()
    };
    [
        (
            "decentralized",
            DetParams {
                frames: 1,
                ..DetParams::default()
            },
        ),
        ("centralized", centralized.clone()),
        (
            "diet",
            DetParams {
                control_diet: true,
                ..centralized.clone()
            },
        ),
        (
            "durable",
            DetParams {
                recovery: Some(RecoveryParams {
                    crash_after_frame: 0,
                    dead_for: Duration::from_millis(10),
                }),
                ..centralized.clone()
            },
        ),
        (
            "observed",
            DetParams {
                observability: true,
                ..centralized
            },
        ),
    ]
}

/// Allocations of one one-frame `run_det` at seed 1, after warm-up runs
/// have filled every process-wide lazy (thread-locals, the harness's own
/// buffers). Two measured runs must agree or the count is not a count.
fn one_frame_allocations(name: &str, params: &DetParams) -> u64 {
    let measure = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = run_det(1, params);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report.frames_sent, 1);
        allocations
    };
    for _ in 0..3 {
        measure();
    }
    let (first, second) = (measure(), measure());
    assert_eq!(first, second, "{name}: the count must repeat");
    first
}

#[test]
fn one_frame_run_det_allocation_ratchet() {
    let ceilings = [491, 607, 610, 730, 644];
    for ((name, params), ceiling) in configurations().into_iter().zip(ceilings) {
        let count = one_frame_allocations(name, &params);
        assert!(
            count <= ceiling,
            "one {name} frame allocated {count} times (ceiling {ceiling})"
        );
        if name == "decentralized" {
            assert_eq!(
                count, ceiling,
                "the decentralized build runs the bare driver loop: only a change to the loop moves it"
            );
        }
    }
}
