//! The coordinator's stated bound, as an exact count: on a steady
//! topology a round — solver update, TAG/PTAG/DNET passes, the grant
//! buffer — allocates **nothing**, however many federates the table
//! holds.
//!
//! Drives the table every coordinator level runs (`GrantTable`)
//! directly, without a simulation: frames, calendar events and the
//! platforms' own work are other layers' budgets. The world is the
//! benchmark's `fleet_flat` shape: 40 chains of 10, the tail of chain 0
//! leading every other chain's head.
//!
//! The counter is per thread, so what the test harness allocates on its
//! own threads meanwhile is not the coordinator's.

use dear_core::Tag;
use dear_federation::GrantTable;
use dear_someip::{CoordKind, CoordMsg, WireTag, TAG_NEVER};
use dear_time::{Duration, Instant};
use dear_transactors::tag_to_wire;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread: the harness's own threads may
    /// allocate while the test measures, and must not be counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
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

const CHAINS: usize = 40;
const MEMBERS: usize = 10;
const FEDERATES: usize = CHAINS * MEMBERS;
const PERIOD_MS: u64 = 10;

fn wire(ms: u64) -> WireTag {
    tag_to_wire(Tag::at(Instant::from_millis(ms)))
}

/// Every federate completes the tag at `ms` and reports its next timer:
/// an LTC then a NET each, a round after every record — the flat RTI's
/// traffic for one period of the fleet. Returns the grants issued.
fn one_period(table: &mut GrantTable, ms: u64) -> usize {
    let mut issued = 0;
    for f in 0..FEDERATES {
        let id = f as u16;
        for msg in [
            CoordMsg::new(CoordKind::Ltc, id, wire(ms)),
            CoordMsg::net(id, wire(ms + PERIOD_MS), WireTag::new(0, 0)),
        ] {
            table.control(f, &msg);
            let grants = table.round(FEDERATES);
            issued += grants.len();
            table.recycle(grants);
        }
    }
    issued
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    for diet in [false, true] {
        let mut table = GrantTable::new();
        table.set_control_diet(diet);
        for f in 0..FEDERATES {
            table.register(&format!("f{f}"), false);
        }
        let edge = Duration::from_millis(1);
        for chain in 0..CHAINS {
            for member in 1..MEMBERS {
                let down = chain * MEMBERS + member;
                table.connect(down - 1, down, edge);
            }
            if chain > 0 {
                table.connect(MEMBERS - 1, chain * MEMBERS, edge);
            }
        }
        for f in 0..FEDERATES {
            let id = f as u16;
            table.control(f, &CoordMsg::new(CoordKind::Join, id, TAG_NEVER));
            if diet {
                let period = WireTag::new(PERIOD_MS * 1_000_000, 0);
                table.control(f, &CoordMsg::new(CoordKind::Period, id, period));
            }
        }
        // Warm-up: the first round builds the topology tables; a few
        // periods grow every buffer to its steady-state capacity.
        let mut ms = 0;
        for _ in 0..3 {
            one_period(&mut table, ms);
            ms += PERIOD_MS;
        }

        let before = ALLOCATIONS.with(Cell::get);
        let mut rounds = 0;
        let mut issued = 0;
        while rounds < 10_000 {
            issued += one_period(&mut table, ms);
            ms += PERIOD_MS;
            rounds += 2 * FEDERATES;
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        // The rounds did real work: about one TAG per federate and period
        // (two rounds), or per eight periods under the diet's windows.
        assert!(
            issued >= rounds / if diet { 32 } else { 4 },
            "diet {diet}: only {issued} grants in {rounds} rounds"
        );
        assert_eq!(
            allocations, 0,
            "diet {diet}: {rounds} steady-state rounds must not allocate"
        );
    }
}
