//! The outbox: how reactions talk to the middleware.
//!
//! Reaction bodies execute inside the reactor runtime and must be `Send`
//! (the level-parallel executor may run them on worker threads), so they
//! cannot capture the single-threaded middleware handles directly.
//! Instead, a transactor reaction pushes a plain-data [`OutboundMsg`] into
//! its platform's [`Outbox`]; after each processed tag, the federated
//! platform driver drains the outbox *in push order* and dispatches each
//! message to the route handler registered for it (which then performs
//! the actual proxy/skeleton call on the binding).
//!
//! This preserves the paper's architecture — the reaction logically
//! "invokes the method call on the service proxy object" (Fig. 3 step 3) —
//! while keeping the runtime thread-safe. Payloads travel as [`FrameBuf`]
//! views, so queueing and draining move references, never bytes.

use dear_someip::{FrameBuf, WireTag};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// A middleware operation requested by a transactor reaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundMsg {
    /// The route (registered interpreter) this message belongs to.
    pub route: u32,
    /// Serialized payload.
    pub payload: FrameBuf,
    /// The tag to attach on the wire (already includes the sender
    /// deadline, i.e. `t + D`).
    pub tag: WireTag,
}

/// A shared, thread-safe queue of outbound middleware operations.
///
/// One mutex guards the queue; route allocation (a setup-time counter,
/// never touched on the message path) is a lock-free atomic, so sender
/// threads can never contend with it.
#[derive(Clone, Default)]
pub struct Outbox {
    queue: Arc<Mutex<Vec<OutboundMsg>>>,
    next_route: Arc<AtomicU32>,
}

impl fmt::Debug for Outbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Outbox")
            .field(
                "pending",
                &self.queue.lock().expect("outbox poisoned").len(),
            )
            .finish()
    }
}

impl Outbox {
    /// Creates an empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh route id for a transactor.
    #[must_use]
    pub fn allocate_route(&self) -> u32 {
        self.next_route.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the sendable queue handle for capture in reaction bodies.
    #[must_use]
    pub fn sender(&self) -> OutboxSender {
        OutboxSender(self.queue.clone())
    }

    /// Drains all pending messages in push order.
    #[must_use]
    pub fn drain(&self) -> Vec<OutboundMsg> {
        std::mem::take(&mut *self.queue.lock().expect("outbox poisoned"))
    }

    /// Moves all pending messages, in push order, to the end of `out`;
    /// the queue keeps its capacity for the next tag's pushes.
    pub(crate) fn drain_into(&self, out: &mut Vec<OutboundMsg>) {
        out.append(&mut self.queue.lock().expect("outbox poisoned"));
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.lock().expect("outbox poisoned").len()
    }

    /// Whether the outbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the outbox to its freshly created state: pending messages
    /// are discarded and route allocation restarts at zero.
    ///
    /// This exists for crash recovery — a platform that rebuilds its
    /// reactor program re-declares its transactors, and those must be
    /// handed the *same* route ids as the first incarnation so the
    /// platform's registered route handlers keep matching. Never call
    /// this on a live platform: in-flight routes would collide.
    pub fn reset(&self) {
        self.queue.lock().expect("outbox poisoned").clear();
        self.next_route.store(0, Ordering::Relaxed);
    }
}

/// The `Send + Sync` half of an [`Outbox`], capturable by reactions.
#[derive(Clone)]
pub struct OutboxSender(Arc<Mutex<Vec<OutboundMsg>>>);

impl fmt::Debug for OutboxSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OutboxSender")
    }
}

impl OutboxSender {
    /// Enqueues a message.
    pub fn push(&self, msg: OutboundMsg) {
        self.0.lock().expect("outbox poisoned").push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_preserve_order() {
        let outbox = Outbox::new();
        let sender = outbox.sender();
        for i in 0..5u8 {
            sender.push(OutboundMsg {
                route: u32::from(i),
                payload: vec![i].into(),
                tag: WireTag::new(u64::from(i), 0),
            });
        }
        assert_eq!(outbox.len(), 5);
        let drained = outbox.drain();
        assert_eq!(drained.len(), 5);
        assert!(outbox.is_empty());
        for (i, msg) in drained.iter().enumerate() {
            assert_eq!(msg.route, i as u32);
        }
    }

    #[test]
    fn route_ids_are_unique() {
        let outbox = Outbox::new();
        let a = outbox.allocate_route();
        let b = outbox.allocate_route();
        assert_ne!(a, b);
    }

    #[test]
    fn route_allocation_is_shared_across_clones() {
        let outbox = Outbox::new();
        let clone = outbox.clone();
        let a = outbox.allocate_route();
        let b = clone.allocate_route();
        let c = outbox.allocate_route();
        assert_eq!([a, b, c], [0, 1, 2]);
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let outbox = Outbox::new();
        assert_eq!(outbox.allocate_route(), 0);
        assert_eq!(outbox.allocate_route(), 1);
        outbox.sender().push(OutboundMsg {
            route: 0,
            payload: vec![1].into(),
            tag: WireTag::new(0, 0),
        });
        outbox.reset();
        assert!(outbox.is_empty(), "pending messages are discarded");
        assert_eq!(
            outbox.allocate_route(),
            0,
            "a rebuilt transactor gets the same route id again"
        );
    }

    #[test]
    fn sender_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OutboxSender>();
    }
}
