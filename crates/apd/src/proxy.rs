//! Client-side service proxies and one-slot event buffers.
//!
//! A proxy "is an object that a client receives when requesting a service.
//! Client and server communicate directly through the proxy and skeleton
//! objects" (paper §II.A). Methods return futures; event subscriptions
//! deliver into a **one-slot input buffer** exactly like the APD brake
//! assistant ("the corresponding event handler stores the data in a
//! one-slot input buffer", §IV.A) — the buffer counts overwrites, which is
//! how the Figure 5 instrumentation detects dropped frames.

use crate::future::{promise, SimFuture};
use dear_sim::Simulation;
use dear_someip::{
    Binding, BindingError, FrameBuf, MessageType, ReturnCode, ServiceInstance, SomeIpMessage,
};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Errors surfaced by proxy method calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MethodError {
    /// Service discovery found no provider.
    ServiceNotFound,
    /// The server answered with an error return code.
    Remote(ReturnCode),
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::ServiceNotFound => write!(f, "service not found"),
            MethodError::Remote(code) => write!(f, "server returned error {code:?}"),
        }
    }
}

impl Error for MethodError {}

/// Result type of proxy method calls.
///
/// A successful call yields the response payload as a [`FrameBuf`] view
/// into the received frame (read in place, no copy).
pub(crate) type MethodResult = Result<FrameBuf, MethodError>;

/// Statistics of a one-slot event buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BufferStats {
    /// Values written into the slot.
    pub(crate) writes: u64,
    /// Writes that overwrote an unread value (a *dropped* message).
    pub(crate) overwrites: u64,
    /// Successful takes.
    pub(crate) reads: u64,
    /// Takes that found the slot empty.
    pub(crate) empty_reads: u64,
}

#[derive(Default)]
struct SlotInner {
    value: Option<FrameBuf>,
    stats: BufferStats,
}

/// A one-slot event input buffer (latest-value semantics).
///
/// New arrivals overwrite unread data — the exact mechanism behind the
/// frame drops of the paper's Figure 5.
#[derive(Clone, Default)]
pub(crate) struct EventBuffer(Rc<RefCell<SlotInner>>);

impl fmt::Debug for EventBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("EventBuffer")
            .field("occupied", &inner.value.is_some())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl EventBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores a value, overwriting (and counting as dropped) any unread
    /// predecessor.
    pub(crate) fn put(&self, value: impl Into<FrameBuf>) {
        let mut inner = self.0.borrow_mut();
        if inner.value.is_some() {
            inner.stats.overwrites += 1;
        }
        inner.stats.writes += 1;
        inner.value = Some(value.into());
    }

    /// Takes the current value, leaving the slot empty.
    ///
    /// An empty slot is counted (the APD components "silently stop
    /// computation" in that case).
    pub(crate) fn take(&self) -> Option<FrameBuf> {
        let mut inner = self.0.borrow_mut();
        match inner.value.take() {
            Some(v) => {
                inner.stats.reads += 1;
                Some(v)
            }
            None => {
                inner.stats.empty_reads += 1;
                None
            }
        }
    }

    /// Reads without consuming (shares, does not copy).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<FrameBuf> {
        self.0.borrow().value.clone()
    }

    /// Buffer statistics (drop instrumentation).
    #[must_use]
    pub(crate) fn stats(&self) -> BufferStats {
        self.0.borrow().stats
    }
}

/// A client-side proxy for one service instance.
///
/// Created via [`SoftwareComponent::proxy`](crate::swc::SoftwareComponent::proxy).
#[derive(Clone)]
pub(crate) struct ServiceProxy {
    binding: Binding,
    service: u16,
    instance: u16,
}

impl fmt::Debug for ServiceProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ServiceProxy({:04x}:{:04x} via {})",
            self.service,
            self.instance,
            self.binding.node()
        )
    }
}

impl ServiceProxy {
    pub(crate) fn new(binding: Binding, service: u16, instance: u16) -> Self {
        ServiceProxy {
            binding,
            service,
            instance,
        }
    }

    /// Invokes a method, returning a future for the result.
    ///
    /// The call is non-blocking: it returns immediately, and the future
    /// resolves when the response message arrives. This is precisely the
    /// Figure 1 client pattern, where issuing several calls without
    /// awaiting their futures surrenders the execution order to the
    /// server's thread pool.
    pub(crate) fn call(
        &self,
        sim: &mut Simulation,
        method: u16,
        payload: impl Into<FrameBuf>,
    ) -> SimFuture<MethodResult> {
        let (p, f) = promise();
        let result = self.binding.call(
            sim,
            self.service,
            self.instance,
            method,
            payload,
            move |sim, resp: SomeIpMessage| {
                let outcome = if resp.message_type == MessageType::Error
                    || resp.return_code != ReturnCode::Ok
                {
                    Err(MethodError::Remote(resp.return_code))
                } else {
                    Ok(resp.payload)
                };
                p.resolve(sim, outcome);
            },
        );
        match result {
            Ok(_) => f,
            Err(BindingError::ServiceNotFound { .. }) => {
                // The promise moved into the (never-to-fire) callback; a
                // fresh resolved future reports the discovery failure.
                crate::future::ready(Err(MethodError::ServiceNotFound))
            }
        }
    }

    /// Subscribes to an event, delivering into a fresh one-slot buffer.
    ///
    /// Returns the buffer; the periodic SWC logic polls it with
    /// [`EventBuffer::take`].
    #[must_use]
    pub(crate) fn subscribe_buffered(&self, eventgroup: u16, event: u16) -> EventBuffer {
        let buffer = EventBuffer::new();
        let sink = buffer.clone();
        self.binding.subscribe(
            ServiceInstance::new(self.service, self.instance),
            eventgroup,
        );
        self.binding
            .on_event(self.service, event, move |_sim, msg| {
                sink.put(msg.payload);
            });
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swc::{SoftwareComponent, SwcConfig};
    use dear_core::{ProgramBuilder, Runtime};
    use dear_sim::{LinkConfig, NetworkHandle, NodeId, VirtualClock};
    use dear_someip::SdRegistry;
    use dear_time::{Duration, Instant};
    use dear_transactors::{EventSpec, FederatedPlatform, Outbox, ServerEventTransactor};

    #[test]
    fn buffer_counts_overwrites_and_empty_reads() {
        let buf = EventBuffer::new();
        assert_eq!(buf.take().map(|f| f.to_vec()), None);
        buf.put(vec![1]);
        buf.put(vec![2]); // overwrites unread 1
        assert_eq!(buf.take().map(|f| f.to_vec()), Some(vec![2]));
        assert_eq!(buf.take().map(|f| f.to_vec()), None);
        buf.put(vec![3]);
        assert_eq!(buf.peek().map(|f| f.to_vec()), Some(vec![3]));
        assert_eq!(buf.take().map(|f| f.to_vec()), Some(vec![3]));
        let stats = buf.stats();
        assert_eq!(stats.writes, 3);
        assert_eq!(stats.overwrites, 1);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.empty_reads, 2);
    }

    #[test]
    fn buffer_clones_share_state() {
        let buf = EventBuffer::new();
        let other = buf.clone();
        buf.put(vec![5]);
        assert_eq!(other.take().map(|f| f.to_vec()), Some(vec![5]));
        assert_eq!(buf.stats().reads, 1);
    }

    #[test]
    fn reactor_event_publisher_reaches_legacy_buffered_subscriber() {
        // Reverse migration direction: a DEAR publisher, a plain ARA consumer.
        let mut sim = Simulation::new(9);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(200)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        const SERVICE: u16 = 0x55;

        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let publish =
            ServerEventTransactor::declare(&mut b, &outbox, "ticks", Duration::from_millis(1));
        {
            let mut logic = b.reactor("publisher", 0u8);
            let out = logic.output::<FrameBuf>("tick");
            let t = logic.timer("t", Duration::ZERO, Some(Duration::from_millis(10)));
            logic
                .reaction("emit")
                .triggered_by(t)
                .effects(out)
                .body(move |n: &mut u8, ctx| {
                    *n += 1;
                    ctx.set(out, vec![*n].into());
                });
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let platform = FederatedPlatform::new(
            "publisher",
            Runtime::new(b.build().expect("program builds")),
            VirtualClock::ideal(),
            outbox,
            sim.fork_rng("costs"),
        );
        let binding = Binding::new(&net, &sd, NodeId(1), 0x10);
        binding.offer(
            &mut sim,
            ServiceInstance::new(SERVICE, 1),
            Duration::from_secs(100),
        );
        publish.bind(
            &platform,
            &binding,
            EventSpec {
                service: SERVICE,
                instance: 1,
                eventgroup: 1,
                event: 0x8001,
            },
        );
        platform.start(&mut sim);

        let consumer = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("legacy-consumer", NodeId(2), 0x20),
        );
        let buf = consumer.proxy(SERVICE, 1).subscribe_buffered(1, 0x8001);

        sim.run_until(Instant::from_millis(35));
        // Ticks at 0/10/20/30 ms, all forwarded; reads see the latest value.
        let stats = buf.stats();
        assert_eq!(stats.writes, 4, "all tagged notifications delivered");
        assert_eq!(buf.take().map(|f| f.to_vec()), Some(vec![4]));
    }
}
