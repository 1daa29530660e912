//! The outbox: how reactions talk to the middleware.
//!
//! A transactor reaction does not call the binding itself. It pushes a
//! plain-data [`OutboundMsg`] into its platform's [`Outbox`]; after each
//! processed tag, the federated platform driver drains the outbox *in
//! push order* and dispatches each message to the route handler
//! registered for it (which then performs the actual proxy/skeleton call
//! on the binding).
//!
//! The deferral is the point. A reaction logically "invokes the method
//! call on the service proxy object" (Fig. 3 step 3) at its tag, but the
//! message physically leaves only when the tag's modelled compute
//! finishes: the driver schedules the drain at that simulated instant,
//! hands each route handler the `&mut Simulation` a reaction never has,
//! and lets a coordinated platform log one drain watermark per batch.
//! Push order is the reactions' execution order, so the wire order is
//! deterministic. Payloads travel as [`FrameBuf`] views, so queueing and
//! draining move references, never bytes.

use dear_someip::{FrameBuf, WireTag};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

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

/// A shared queue of outbound middleware operations. Clones share the
/// queue and the route counter; reactions capture a clone and
/// [`push`](Outbox::push).
#[derive(Clone, Default)]
pub struct Outbox {
    queue: Rc<RefCell<Vec<OutboundMsg>>>,
    next_route: Rc<Cell<u32>>,
}

impl fmt::Debug for Outbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Outbox")
            .field("pending", &self.len())
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
        let route = self.next_route.get();
        self.next_route.set(route + 1);
        route
    }

    /// Enqueues a message.
    pub fn push(&self, msg: OutboundMsg) {
        self.queue.borrow_mut().push(msg);
    }

    /// Drains all pending messages in push order.
    #[must_use]
    pub fn drain(&self) -> Vec<OutboundMsg> {
        self.queue.take()
    }

    /// Moves all pending messages, in push order, to the end of `out`;
    /// the queue keeps its capacity for the next tag's pushes.
    pub(crate) fn drain_into(&self, out: &mut Vec<OutboundMsg>) {
        out.append(&mut self.queue.borrow_mut());
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
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
        self.queue.borrow_mut().clear();
        self.next_route.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_preserve_order() {
        let outbox = Outbox::new();
        let sender = outbox.clone();
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
        outbox.push(OutboundMsg {
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
}
