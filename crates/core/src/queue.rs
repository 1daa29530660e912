//! Allocation-recycling event queue for the reactor runtime.
//!
//! The runtime's original queue was a `BTreeMap<Tag, TagEntry>`: every tag
//! allocated a fresh B-tree node plus two `Vec`s, all freed again when the
//! tag was popped — pure churn on the hot path. [`EventQueue`] replaces it
//! with a binary min-heap of *individual* events (`(Tag, Event)` pairs,
//! `Copy`, no per-event allocation once the heap's buffer has grown) and a
//! free list of [`TagEntry`] scratch records whose `Vec` capacities are
//! recycled across tags. In steady state, pushing an event and popping a
//! tag perform **zero heap allocations**.
//!
//! Determinism: events sharing a tag are merged at pop time into one
//! [`TagEntry`]. The heap orders ties by the event's own `Ord`, and the
//! runtime sorts/dedups the merged entry before triggering reactions, so
//! observable behaviour is identical to the ordered-map implementation —
//! the `parallel_matches_sequential` and fingerprint suites are the
//! referee.
//!
//! Events carry the typed ids from [`crate::handles`] (which double as
//! [`dear_arena::Key`]s), so popping an event yields keys that index the
//! runtime's action/timer arenas directly — no raw-`usize` detour.

use crate::handles::{ActionId, TimerId};
use crate::tag::Tag;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One schedulable occurrence at a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    /// Startup reactions fire at this tag.
    Startup,
    /// A timer elapses at this tag.
    Timer(TimerId),
    /// An action (logical or physical) becomes present at this tag.
    Action(ActionId),
    /// The runtime shuts down at this tag.
    Shutdown,
}

/// Everything that happens at one tag, merged from the queue's events.
///
/// Obtained from [`EventQueue::pop_tag`] and handed back through
/// [`EventQueue::recycle`] so the `Vec` buffers survive across tags.
#[derive(Debug, Default)]
pub(crate) struct TagEntry {
    /// Actions present at this tag (may contain duplicates; the runtime
    /// sorts and dedups before triggering).
    pub(crate) actions: Vec<ActionId>,
    /// Timers elapsing at this tag.
    pub(crate) timers: Vec<TimerId>,
    /// Whether startup reactions fire at this tag.
    pub(crate) startup: bool,
    /// Whether the runtime shuts down at this tag.
    pub(crate) shutdown: bool,
}

impl TagEntry {
    fn absorb(&mut self, event: Event) {
        match event {
            Event::Startup => self.startup = true,
            Event::Timer(t) => self.timers.push(t),
            Event::Action(a) => self.actions.push(a),
            Event::Shutdown => self.shutdown = true,
        }
    }

    fn reset(&mut self) {
        self.actions.clear();
        self.timers.clear();
        self.startup = false;
        self.shutdown = false;
    }
}

/// Binary-heap event queue with a [`TagEntry`] free list.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(Tag, Event)>>,
    free: Vec<TagEntry>,
}

impl EventQueue {
    /// Enqueues one event. Amortized allocation-free.
    pub(crate) fn push(&mut self, tag: Tag, event: Event) {
        self.heap.push(Reverse((tag, event)));
    }

    /// The earliest pending tag, if any.
    pub(crate) fn peek_tag(&self) -> Option<Tag> {
        self.heap.peek().map(|Reverse((tag, _))| *tag)
    }

    /// Pops *all* events at the earliest pending tag, merged into one
    /// [`TagEntry`] drawn from the free list.
    pub(crate) fn pop_tag(&mut self) -> Option<(Tag, TagEntry)> {
        let Reverse((tag, first)) = self.heap.pop()?;
        let mut entry = self.free.pop().unwrap_or_default();
        entry.absorb(first);
        while let Some(&Reverse((next, _))) = self.heap.peek() {
            if next != tag {
                break;
            }
            let Reverse((_, event)) = self.heap.pop().expect("peeked event exists");
            entry.absorb(event);
        }
        Some((tag, entry))
    }

    /// Returns a spent entry's buffers to the free list.
    pub(crate) fn recycle(&mut self, mut entry: TagEntry) {
        entry.reset();
        self.free.push(entry);
    }

    /// Discards all pending events (free list and capacities retained).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events (not distinct tags).
    pub(crate) fn pending_events(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_time::Instant;

    fn tag(ms: u64, micro: u32) -> Tag {
        Tag::new(Instant::from_millis(ms), micro)
    }

    #[test]
    fn pops_tags_in_order_regardless_of_push_order() {
        let mut q = EventQueue::default();
        q.push(tag(5, 0), Event::Timer(TimerId(0)));
        q.push(tag(1, 1), Event::Startup);
        q.push(tag(1, 0), Event::Action(ActionId(3)));
        let order: Vec<Tag> = std::iter::from_fn(|| {
            q.pop_tag().map(|(t, e)| {
                q.recycle(e);
                t
            })
        })
        .collect();
        assert_eq!(order, vec![tag(1, 0), tag(1, 1), tag(5, 0)]);
    }

    #[test]
    fn merges_all_events_at_one_tag() {
        let mut q = EventQueue::default();
        q.push(tag(2, 0), Event::Action(ActionId(1)));
        q.push(tag(2, 0), Event::Timer(TimerId(0)));
        q.push(tag(2, 0), Event::Action(ActionId(0)));
        q.push(tag(2, 0), Event::Shutdown);
        q.push(tag(3, 0), Event::Startup);
        let (t, entry) = q.pop_tag().expect("events pending");
        assert_eq!(t, tag(2, 0));
        let mut actions = entry.actions.clone();
        actions.sort_unstable();
        assert_eq!(actions, vec![ActionId(0), ActionId(1)]);
        assert_eq!(entry.timers, vec![TimerId(0)]);
        assert!(entry.shutdown);
        assert!(!entry.startup);
        assert_eq!(q.pending_events(), 1);
    }

    #[test]
    fn recycled_entries_come_back_clean_with_capacity() {
        let mut q = EventQueue::default();
        for i in 0..16u32 {
            q.push(tag(1, 0), Event::Action(ActionId(i)));
        }
        let (_, entry) = q.pop_tag().expect("events pending");
        let cap = entry.actions.capacity();
        assert!(cap >= 16);
        q.recycle(entry);
        q.push(tag(2, 0), Event::Timer(TimerId(9)));
        let (_, entry) = q.pop_tag().expect("event pending");
        assert!(entry.actions.is_empty());
        assert!(!entry.startup && !entry.shutdown);
        assert_eq!(entry.timers, vec![TimerId(9)]);
        assert_eq!(entry.actions.capacity(), cap, "Vec capacity recycled");
    }

    #[test]
    fn clear_discards_pending_events() {
        let mut q = EventQueue::default();
        q.push(tag(1, 0), Event::Startup);
        q.push(tag(2, 0), Event::Shutdown);
        q.clear();
        assert_eq!(q.peek_tag(), None);
        assert!(q.pop_tag().is_none());
    }

    #[test]
    fn duplicate_flag_events_merge_idempotently() {
        let mut q = EventQueue::default();
        q.push(tag(1, 0), Event::Shutdown);
        q.push(tag(1, 0), Event::Shutdown);
        q.push(tag(1, 0), Event::Startup);
        let (_, entry) = q.pop_tag().expect("events pending");
        assert!(entry.shutdown && entry.startup);
        assert!(q.pop_tag().is_none(), "duplicates merged into one tag");
    }
}
