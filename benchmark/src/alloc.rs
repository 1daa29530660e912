//! The benchmark's counting allocator: heap allocations, live bytes and
//! their high-water mark, behind an on/off switch.
//!
//! Timed repetitions run with the switch off, where every allocator call
//! costs one relaxed load on top of `System`; counted repetitions turn
//! it on through [`counted`]. The counters are process-wide, so a counted
//! region must be the only code allocating while it runs (the benchmark
//! is single-threaded; tests that compare counts share one `#[test]`).

// `GlobalAlloc` is an unsafe trait; this module is the only place the
// benchmark touches `unsafe`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Serialises [`counted`] regions: the counters are one process-wide set.
static REGION: Mutex<()> = Mutex::new(());

/// `System` plus counters; installed as the global allocator by this
/// crate's `lib.rs`, so every binary and test linking it is counted.
pub struct CountingAlloc;

/// What one [`counted`] region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// High-water mark of bytes the region allocated and had not yet
    /// freed.
    pub peak_live_bytes: u64,
    /// Bytes the region allocated and had not freed when it ended: its
    /// return value, and whatever it leaked.
    pub retained_bytes: u64,
}

fn record(allocs: u64, live_delta: i64) {
    ALLOCS.fetch_add(allocs, Relaxed);
    let live = LIVE.fetch_add(live_delta, Relaxed) + live_delta;
    PEAK.fetch_max(live, Relaxed);
}

fn signed(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            record(1, signed(layout.size()));
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            record(1, signed(layout.size()));
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            record(0, -signed(layout.size()));
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            record(1, signed(new_size) - signed(layout.size()));
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns what it allocated. The allocator
/// cannot tell whose memory a free returns, so a region should free only
/// what it allocated: freeing older memory lowers its live count, and
/// with it the peak. Regions do not nest (a nested call would deadlock);
/// concurrent ones run one at a time.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let _region = REGION.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let result = f();
    ENABLED.store(false, Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Relaxed),
        peak_live_bytes: u64::try_from(PEAK.load(Relaxed)).unwrap_or(0),
        retained_bytes: u64::try_from(LIVE.load(Relaxed)).unwrap_or(0),
    };
    (result, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests run on parallel threads and the counters are process-wide,
    // so only a lower bound on the count is safe here; exact counts and
    // the peak are checked by the single-threaded `tests/benchmark_smoke.rs`.
    #[test]
    fn counts_at_least_the_region_s_own_allocations() {
        let (len, count) = counted(|| {
            let a = vec![1u8; 4096];
            let mut b = Vec::<u64>::with_capacity(4);
            b.extend(0..64); // one realloc
            a.len() + b.len()
        });
        assert_eq!(len, 4096 + 64);
        assert!(count.allocs >= 3, "{count:?}");
    }
}
