//! The SOME/IP binding: per-node endpoint for requests, responses and
//! event notifications — including the DEAR tag extension.
//!
//! One [`Binding`] models the middleware library linked into an AP process.
//! It owns the node's pending-request table, method handler registry and
//! event handler registry, and is registered as the node's network frame
//! receiver.
//!
//! **Tags ride with their message** (paper §III.B, Figure 3). The paper
//! hands each tag between transactor and binding through a "timestamp
//! bypass" beside the unchanged proxy/skeleton call; here the tag is an
//! argument of the send and a field of the received message, so it cannot
//! be paired with another message:
//!
//! * steps 2–5 and 13–16: the transactor passes `tc + Dc` to
//!   [`Binding::call_tagged`] and `ts + Ds` to [`Responder::reply_tagged`]
//!   (events: [`Binding::notify_tagged`]); the binding appends it to that
//!   message's wire trailer;
//! * steps 7–10 and 18–21: the binding decodes the trailer into
//!   [`SomeIpMessage::tag`] of the message it dispatches, where the
//!   receiving transactor reads it.
//!
//! The tag-free `call`, `call_no_return`, `notify`, `reply` and
//! `reply_error` are the stock `ara::com` paths and send no trailer.

use crate::sd::{Offer, SdRegistry, ServiceInstance};
use crate::wire::{MessageId, MessageType, RequestId, ReturnCode, SomeIpMessage, WireTag};
use dear_sim::{Frame, FrameBuf, FramePool, NetworkHandle, NodeId, Simulation};
use dear_time::Duration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Errors surfaced by binding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// No valid offer for the requested service instance was found.
    ServiceNotFound {
        /// Requested service id.
        service: u16,
        /// Requested instance id (possibly `ANY_INSTANCE`).
        instance: u16,
    },
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingError::ServiceNotFound { service, instance } => {
                write!(
                    f,
                    "no offer found for service {service:04x} instance {instance:04x}"
                )
            }
        }
    }
}

impl Error for BindingError {}

/// Statistics for one binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BindingStats {
    /// Requests sent.
    pub(crate) requests_sent: u64,
    /// Responses (including errors) received.
    pub(crate) responses_received: u64,
    /// Notifications sent (one per subscriber).
    pub(crate) notifications_sent: u64,
    /// Notifications received and dispatched.
    pub(crate) notifications_received: u64,
    /// Frames that failed to decode.
    pub(crate) decode_errors: u64,
}

impl fmt::Display for BindingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} responses={} notif_sent={} notif_received={} decode_errors={}",
            self.requests_sent,
            self.responses_received,
            self.notifications_sent,
            self.notifications_received,
            self.decode_errors
        )
    }
}

type ResponseCallback = Box<dyn FnOnce(&mut Simulation, SomeIpMessage)>;
type MethodHandler = Rc<dyn Fn(&mut Simulation, SomeIpMessage, Responder)>;
type EventHandler = Rc<dyn Fn(&mut Simulation, SomeIpMessage)>;

struct BindingInner {
    node: NodeId,
    net: NetworkHandle,
    sd: SdRegistry,
    /// Recycled wire buffers for every frame this binding assembles.
    pool: FramePool,
    client_id: u16,
    next_session: u16,
    // BTreeMaps keep every registry's iteration order independent of
    // hasher state (determinism hardening; see `SdInner`).
    pending: BTreeMap<RequestId, ResponseCallback>,
    methods: BTreeMap<(u16, u16), MethodHandler>,
    event_handlers: BTreeMap<(u16, u16), EventHandler>,
    stats: BindingStats,
}

/// A shared handle to a node's SOME/IP binding.
///
/// # Examples
///
/// ```
/// use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation};
/// use dear_someip::{Binding, SdRegistry, ServiceInstance};
/// use dear_time::Duration;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(1);
/// let net = NetworkHandle::new(LinkConfig::ideal(Duration::from_micros(100)), sim.fork_rng("net"));
/// let sd = SdRegistry::new();
///
/// // Server on node 1 offering service 0x50, method 0x01 = "double".
/// let server = Binding::new(&net, &sd, NodeId(1), 0x11);
/// server.register_method(0x50, 0x01, |sim, req, responder| {
///     let v = req.payload[0];
///     responder.reply(sim, vec![v * 2]);
/// });
/// server.offer(&mut sim, ServiceInstance::new(0x50, 1), Duration::from_secs(10));
///
/// // Client on node 2.
/// let client = Binding::new(&net, &sd, NodeId(2), 0x22);
/// let got = Rc::new(RefCell::new(None));
/// let sink = got.clone();
/// client.call(&mut sim, 0x50, dear_someip::ANY_INSTANCE, 0x01, vec![21], move |_sim, resp| {
///     *sink.borrow_mut() = Some(resp.payload[0]);
/// }).unwrap();
///
/// sim.run_to_completion();
/// assert_eq!(*got.borrow(), Some(42));
/// ```
#[derive(Clone)]
pub struct Binding(Rc<RefCell<BindingInner>>);

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("Binding")
            .field("node", &inner.node)
            .field("client_id", &inner.client_id)
            .field("pending", &inner.pending.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Binding {
    /// Creates a binding for `node` and registers it as the node's frame
    /// receiver.
    ///
    /// `client_id` is the SOME/IP client id used in outgoing request ids.
    #[must_use]
    pub fn new(net: &NetworkHandle, sd: &SdRegistry, node: NodeId, client_id: u16) -> Self {
        let binding = Binding(Rc::new(RefCell::new(BindingInner {
            node,
            net: net.clone(),
            sd: sd.clone(),
            pool: FramePool::new(),
            client_id,
            next_session: 1,
            pending: BTreeMap::new(),
            methods: BTreeMap::new(),
            event_handlers: BTreeMap::new(),
            stats: BindingStats::default(),
        })));
        let recv = binding.clone();
        net.set_receiver(node, move |sim, frame| recv.on_frame(sim, frame));
        binding
    }

    /// The node this binding serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.0.borrow().node
    }

    /// The discovery registry this binding resolves against (shared
    /// handle). Failover layers use it to watch redundant offers and to
    /// move subscriptions between provider instances.
    #[must_use]
    pub fn sd(&self) -> SdRegistry {
        self.0.borrow().sd.clone()
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> BindingStats {
        self.0.borrow().stats
    }

    /// The binding's frame pool (shared handle). Senders that serialize
    /// payloads through a [`PayloadWriter::pooled`] writer backed by this
    /// pool get a fully zero-copy, allocation-free path onto the wire.
    ///
    /// [`PayloadWriter::pooled`]: crate::PayloadWriter::pooled
    #[must_use]
    pub fn pool(&self) -> FramePool {
        self.0.borrow().pool.clone()
    }

    /// Offers a service instance hosted on this node.
    pub fn offer(&self, sim: &mut Simulation, instance: ServiceInstance, ttl: Duration) {
        let (sd, node) = {
            let inner = self.0.borrow();
            (inner.sd.clone(), inner.node)
        };
        sd.offer(sim, instance, node, ttl);
    }

    /// Registers the handler for a served method.
    ///
    /// The handler receives the request message and a [`Responder`] that
    /// may reply immediately or be stored and used later (the AP skeleton
    /// promise/future pattern).
    pub fn register_method(
        &self,
        service: u16,
        method: u16,
        handler: impl Fn(&mut Simulation, SomeIpMessage, Responder) + 'static,
    ) {
        self.0
            .borrow_mut()
            .methods
            .insert((service, method), Rc::new(handler));
    }

    /// Registers the handler for a subscribed event.
    pub fn on_event(
        &self,
        service: u16,
        event: u16,
        handler: impl Fn(&mut Simulation, SomeIpMessage) + 'static,
    ) {
        self.0
            .borrow_mut()
            .event_handlers
            .insert((service, event), Rc::new(handler));
    }

    /// Subscribes this node to an eventgroup of a service instance.
    pub fn subscribe(&self, instance: ServiceInstance, eventgroup: u16) {
        let (sd, node) = {
            let inner = self.0.borrow();
            (inner.sd.clone(), inner.node)
        };
        sd.subscribe(instance, eventgroup, node);
    }

    /// Sends a method call; `on_response` fires when the response (or
    /// error response) arrives.
    ///
    /// # Errors
    ///
    /// Returns [`BindingError::ServiceNotFound`] if discovery has no valid
    /// offer.
    pub fn call(
        &self,
        sim: &mut Simulation,
        service: u16,
        instance: u16,
        method: u16,
        payload: impl Into<FrameBuf>,
        on_response: impl FnOnce(&mut Simulation, SomeIpMessage) + 'static,
    ) -> Result<RequestId, BindingError> {
        let cb = Some(Box::new(on_response) as ResponseCallback);
        self.request(sim, (service, instance, method), payload, None, cb)
    }

    /// [`call`](Self::call) with `tag` on the wire (Fig. 3 steps 2–5).
    ///
    /// # Errors
    ///
    /// Returns [`BindingError::ServiceNotFound`] if discovery has no valid
    /// offer.
    #[allow(clippy::too_many_arguments)]
    pub fn call_tagged(
        &self,
        sim: &mut Simulation,
        service: u16,
        instance: u16,
        method: u16,
        payload: impl Into<FrameBuf>,
        tag: WireTag,
        on_response: impl FnOnce(&mut Simulation, SomeIpMessage) + 'static,
    ) -> Result<RequestId, BindingError> {
        let cb = Some(Box::new(on_response) as ResponseCallback);
        self.request(sim, (service, instance, method), payload, Some(tag), cb)
    }

    /// Sends a fire-and-forget method call (`REQUEST_NO_RETURN`).
    ///
    /// # Errors
    ///
    /// Returns [`BindingError::ServiceNotFound`] if discovery has no valid
    /// offer.
    pub fn call_no_return(
        &self,
        sim: &mut Simulation,
        service: u16,
        instance: u16,
        method: u16,
        payload: impl Into<FrameBuf>,
    ) -> Result<(), BindingError> {
        self.request(sim, (service, instance, method), payload, None, None)
            .map(drop)
    }

    /// Sends a request: one that expects a response iff `on_response` is
    /// given.
    fn request(
        &self,
        sim: &mut Simulation,
        (service, instance, method): (u16, u16, u16),
        payload: impl Into<FrameBuf>,
        tag: Option<WireTag>,
        on_response: Option<ResponseCallback>,
    ) -> Result<RequestId, BindingError> {
        let offer = self.resolve(sim, service, instance)?;
        let mut inner = self.0.borrow_mut();
        let request_id = inner.alloc_request_id();
        let mut msg = SomeIpMessage::request(MessageId::new(service, method), request_id, payload);
        match on_response {
            Some(cb) => drop(inner.pending.insert(request_id, cb)),
            None => msg.message_type = MessageType::RequestNoReturn,
        }
        inner.stats.requests_sent += 1;
        drop(inner);
        self.send(sim, msg, tag, |send| send(offer.node));
        Ok(request_id)
    }

    /// Sends an event notification to every subscriber of the eventgroup.
    pub fn notify(
        &self,
        sim: &mut Simulation,
        instance: ServiceInstance,
        eventgroup: u16,
        event: u16,
        payload: impl Into<FrameBuf>,
    ) {
        self.publish(sim, instance, eventgroup, event, payload, None);
    }

    /// [`notify`](Self::notify) with `tag` on every copy: they are one
    /// event occurrence.
    pub fn notify_tagged(
        &self,
        sim: &mut Simulation,
        instance: ServiceInstance,
        eventgroup: u16,
        event: u16,
        payload: impl Into<FrameBuf>,
        tag: WireTag,
    ) {
        self.publish(sim, instance, eventgroup, event, payload, Some(tag));
    }

    // Inlined like `send`, for the same reason.
    #[inline(always)]
    fn publish(
        &self,
        sim: &mut Simulation,
        instance: ServiceInstance,
        eventgroup: u16,
        event: u16,
        payload: impl Into<FrameBuf>,
        tag: Option<WireTag>,
    ) {
        let msg = SomeIpMessage::notification(MessageId::new(instance.service, event), payload);
        let sd = self.sd();
        let sent = self.send(sim, msg, tag, |send| {
            sd.for_each_subscriber(instance, eventgroup, send);
        });
        self.0.borrow_mut().stats.notifications_sent += sent;
    }

    /// The one encode-and-send path: puts `tag` on `msg`, encodes it once
    /// into the pool and sends a view of the same bytes to each node `to`
    /// names. Returns the number of frames sent.
    // Forced inline: left to the compiler, it stayed a call, the
    // destination closure an indirect call per frame, and a 64 B notify
    // took ~20 ns longer (85 → 105 ns; release with LTO, 2-core VM).
    #[inline(always)]
    fn send(
        &self,
        sim: &mut Simulation,
        mut msg: SomeIpMessage,
        tag: Option<WireTag>,
        to: impl FnOnce(&mut dyn FnMut(NodeId)),
    ) -> u64 {
        msg.tag = tag;
        let (bytes, src, net) = {
            let inner = self.0.borrow();
            (msg.into_frame(&inner.pool), inner.node, inner.net.clone())
        };
        let mut sent = 0;
        to(&mut |dst| {
            let payload = bytes.clone();
            net.send(sim, Frame { src, dst, payload });
            sent += 1;
        });
        sent
    }

    fn resolve(
        &self,
        sim: &Simulation,
        service: u16,
        instance: u16,
    ) -> Result<Offer, BindingError> {
        let sd = self.0.borrow().sd.clone();
        sd.find(sim, service, instance)
            .ok_or(BindingError::ServiceNotFound { service, instance })
    }

    fn on_frame(&self, sim: &mut Simulation, frame: Frame) {
        // Zero-copy decode: the message's payload is a view into the
        // received frame's buffer, read in place by every layer above.
        let msg = match SomeIpMessage::decode_frame(&frame.payload) {
            Ok(m) => m,
            Err(_) => {
                self.0.borrow_mut().stats.decode_errors += 1;
                return;
            }
        };
        match msg.message_type {
            MessageType::Request | MessageType::RequestNoReturn => {
                let wants_response = msg.message_type == MessageType::Request;
                let handler = self
                    .0
                    .borrow()
                    .methods
                    .get(&(msg.message_id.service, msg.message_id.method))
                    .cloned();
                let responder = Responder {
                    binding: self.clone(),
                    reply_to: frame.src,
                    request: msg.clone(),
                    wants_response,
                };
                match handler {
                    Some(h) => h(sim, msg, responder),
                    None if wants_response => {
                        let has_service = self
                            .0
                            .borrow()
                            .methods
                            .keys()
                            .any(|&(s, _)| s == msg.message_id.service);
                        let code = if has_service {
                            ReturnCode::UnknownMethod
                        } else {
                            ReturnCode::UnknownService
                        };
                        responder.reply_error(sim, code);
                    }
                    None => {}
                }
            }
            MessageType::Response | MessageType::Error => {
                let cb = self.0.borrow_mut().pending.remove(&msg.request_id);
                if let Some(cb) = cb {
                    self.0.borrow_mut().stats.responses_received += 1;
                    cb(sim, msg);
                }
            }
            MessageType::Notification => {
                let handler = self
                    .0
                    .borrow()
                    .event_handlers
                    .get(&(msg.message_id.service, msg.message_id.method))
                    .cloned();
                if let Some(h) = handler {
                    self.0.borrow_mut().stats.notifications_received += 1;
                    h(sim, msg);
                }
            }
        }
    }
}

impl BindingInner {
    fn alloc_request_id(&mut self) -> RequestId {
        let id = RequestId::new(self.client_id, self.next_session);
        self.next_session = self.next_session.wrapping_add(1);
        if self.next_session == 0 {
            self.next_session = 1;
        }
        id
    }
}

/// Replies to one received method call.
///
/// Implements the AP skeleton pattern where the method implementation
/// returns a future: the responder can be captured and resolved later
/// (e.g. after simulated compute time).
pub struct Responder {
    binding: Binding,
    reply_to: NodeId,
    request: SomeIpMessage,
    wants_response: bool,
}

impl fmt::Debug for Responder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Responder(to={}, req={})",
            self.reply_to, self.request.request_id
        )
    }
}

impl Responder {
    /// Sends a successful response carrying `payload`. No-op for
    /// fire-and-forget requests, as are the other replies.
    pub fn reply(self, sim: &mut Simulation, payload: impl Into<FrameBuf>) {
        self.respond(sim, None, |r| SomeIpMessage::response_to(r, payload));
    }

    /// [`reply`](Self::reply) with `tag` on the wire (Fig. 3 steps 13–16).
    pub fn reply_tagged(self, sim: &mut Simulation, payload: impl Into<FrameBuf>, tag: WireTag) {
        self.respond(sim, Some(tag), |r| SomeIpMessage::response_to(r, payload));
    }

    /// Sends an error response with the given return code.
    pub fn reply_error(self, sim: &mut Simulation, code: ReturnCode) {
        self.respond(sim, None, |r| SomeIpMessage::error_to(r, code));
    }

    fn respond(
        &self,
        sim: &mut Simulation,
        tag: Option<WireTag>,
        msg: impl FnOnce(&SomeIpMessage) -> SomeIpMessage,
    ) {
        if self.wants_response {
            let msg = msg(&self.request);
            self.binding.send(sim, msg, tag, |send| send(self.reply_to));
        }
    }

    /// The request being answered.
    #[must_use]
    pub fn request(&self) -> &SomeIpMessage {
        &self.request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sd::ANY_INSTANCE;
    use dear_sim::LinkConfig;
    use dear_time::Instant;

    fn setup(seed: u64) -> (Simulation, NetworkHandle, SdRegistry) {
        let sim = Simulation::new(seed);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(500)),
            sim.fork_rng("net"),
        );
        (sim, net, SdRegistry::new())
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut sim, net, sd) = setup(1);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        server.register_method(0x50, 1, |sim, req, responder| {
            let v = req.payload[0];
            responder.reply(sim, vec![v + 1]);
        });
        server.offer(
            &mut sim,
            ServiceInstance::new(0x50, 1),
            Duration::from_secs(10),
        );

        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let got = Rc::new(RefCell::new(None));
        let sink = got.clone();
        client
            .call(
                &mut sim,
                0x50,
                ANY_INSTANCE,
                1,
                vec![41],
                move |sim, resp| {
                    *sink.borrow_mut() = Some((sim.now(), resp.payload[0], resp.return_code));
                },
            )
            .unwrap();
        sim.run_to_completion();
        let (at, v, rc) = got.borrow().unwrap();
        assert_eq!(v, 42);
        assert_eq!(rc, ReturnCode::Ok);
        assert_eq!(at, Instant::from_millis(1), "two 500us hops");
        assert_eq!(client.stats().requests_sent, 1);
        assert_eq!(client.stats().responses_received, 1);
    }

    #[test]
    fn unknown_service_and_method_errors() {
        let (mut sim, net, sd) = setup(2);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        server.register_method(0x50, 1, |sim, _req, responder| {
            responder.reply(sim, vec![]);
        });
        server.offer(
            &mut sim,
            ServiceInstance::new(0x50, 1),
            Duration::from_secs(10),
        );
        // Also offer a service id the server has no handlers for.
        server.offer(
            &mut sim,
            ServiceInstance::new(0x51, 1),
            Duration::from_secs(10),
        );

        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let codes = Rc::new(RefCell::new(Vec::new()));
        let sink = codes.clone();
        client
            .call(&mut sim, 0x50, 1, 99, vec![], move |_s, resp| {
                sink.borrow_mut().push(resp.return_code);
            })
            .unwrap();
        let sink = codes.clone();
        client
            .call(&mut sim, 0x51, 1, 1, vec![], move |_s, resp| {
                sink.borrow_mut().push(resp.return_code);
            })
            .unwrap();
        sim.run_to_completion();
        assert_eq!(
            *codes.borrow(),
            vec![ReturnCode::UnknownMethod, ReturnCode::UnknownService]
        );
    }

    #[test]
    fn call_without_offer_fails_fast() {
        let (mut sim, net, sd) = setup(3);
        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let err = client
            .call(&mut sim, 0x99, ANY_INSTANCE, 1, vec![], |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            BindingError::ServiceNotFound {
                service: 0x99,
                instance: ANY_INSTANCE
            }
        );
    }

    #[test]
    fn notifications_fan_out_to_subscribers() {
        let (mut sim, net, sd) = setup(4);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        let inst = ServiceInstance::new(0x60, 1);
        server.offer(&mut sim, inst, Duration::from_secs(10));

        let hits = Rc::new(RefCell::new(Vec::new()));
        let mut clients = Vec::new();
        for i in 2..4u16 {
            let c = Binding::new(&net, &sd, NodeId(i), 0x20 + i);
            c.subscribe(inst, 1);
            let sink = hits.clone();
            c.on_event(0x60, 0x8001, move |_, msg| {
                sink.borrow_mut().push((i, msg.payload.to_vec()));
            });
            clients.push(c);
        }
        server.notify(&mut sim, inst, 1, 0x8001, vec![7, 8]);
        sim.run_to_completion();
        let mut got = hits.borrow().clone();
        got.sort();
        assert_eq!(got, vec![(2, vec![7, 8]), (3, vec![7, 8])]);
        assert_eq!(server.stats().notifications_sent, 2);
    }

    #[test]
    fn timestamp_bypass_carries_tags_end_to_end() {
        let (mut sim, net, sd) = setup(5);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        let inst = ServiceInstance::new(0x50, 1);
        server.register_method(0x50, 1, move |sim, req, responder| {
            // Server-side transactor behaviour: read the request's tag,
            // reply with a response tag.
            assert_eq!(req.tag, Some(WireTag::new(1_000_000, 2)));
            responder.reply_tagged(sim, vec![1], WireTag::new(2_000_000, 0));
        });
        server.offer(&mut sim, inst, Duration::from_secs(10));

        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let got_tag = Rc::new(RefCell::new(None));
        let sink = got_tag.clone();
        // Client-side transactor: the call carries its tag.
        let tag = WireTag::new(1_000_000, 2);
        client
            .call_tagged(&mut sim, 0x50, 1, 1, vec![], tag, move |_s, resp| {
                assert_eq!(resp.tag, Some(WireTag::new(2_000_000, 0)));
                *sink.borrow_mut() = resp.tag;
            })
            .unwrap();
        sim.run_to_completion();
        assert_eq!(*got_tag.borrow(), Some(WireTag::new(2_000_000, 0)));
    }

    #[test]
    fn untagged_messages_have_no_incoming_tag() {
        let (mut sim, net, sd) = setup(6);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        let inst = ServiceInstance::new(0x50, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        server.register_method(0x50, 1, move |sim, req, r| {
            sink.borrow_mut().push(req.tag);
            r.reply(sim, vec![]);
        });
        server.offer(&mut sim, inst, Duration::from_secs(10));
        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let sink = seen.clone();
        client
            .call(&mut sim, 0x50, 1, 1, vec![], move |_, resp| {
                sink.borrow_mut().push(resp.tag);
            })
            .unwrap();
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), vec![None, None]);
    }

    #[test]
    fn fire_and_forget_reaches_handler_without_response() {
        let (mut sim, net, sd) = setup(7);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        let inst = ServiceInstance::new(0x50, 1);
        let hits = Rc::new(RefCell::new(0));
        let sink = hits.clone();
        server.register_method(0x50, 2, move |_s, _req, _r| {
            *sink.borrow_mut() += 1;
        });
        server.offer(&mut sim, inst, Duration::from_secs(10));
        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        client
            .call_no_return(&mut sim, 0x50, 1, 2, vec![1])
            .unwrap();
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(client.stats().responses_received, 0);
    }

    #[test]
    fn deferred_reply_supports_future_pattern() {
        let (mut sim, net, sd) = setup(8);
        let server = Binding::new(&net, &sd, NodeId(1), 0x10);
        let inst = ServiceInstance::new(0x50, 1);
        server.register_method(0x50, 1, |sim, _req, responder| {
            // Simulate 5 ms of server-side compute before resolving the
            // promise.
            sim.schedule_in(Duration::from_millis(5), move |sim| {
                responder.reply(sim, vec![99]);
            });
        });
        server.offer(&mut sim, inst, Duration::from_secs(10));
        let client = Binding::new(&net, &sd, NodeId(2), 0x20);
        let got = Rc::new(RefCell::new(None));
        let sink = got.clone();
        client
            .call(&mut sim, 0x50, 1, 1, vec![], move |sim, resp| {
                *sink.borrow_mut() = Some((sim.now(), resp.payload[0]));
            })
            .unwrap();
        sim.run_to_completion();
        let (at, v) = got.borrow().unwrap();
        assert_eq!(v, 99);
        assert_eq!(at, Instant::from_millis(6), "2 hops + 5ms compute");
    }
}
