//! Event transactors: publisher (server) and subscriber (client) roles.
//!
//! "Analogous to methods, a similar pair of transactors for interacting
//! with AP events in the role of clients and servers exists" (paper
//! §III.B). Events are one-way: the server emits, subscribed clients
//! receive. The brake-assistant pipeline (Fig. 4) is a chain of exactly
//! these transactors.

use crate::config::{tag_to_wire, DearConfig, EventSpec, FailoverEventSpec};
use crate::driver::PlatformDriver;
use crate::failover::FailoverBinding;
use crate::outbox::{OutboundMsg, Outbox, OutboxSender};
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, Port, ProgramBuilder, ReactionCtx};
use dear_sim::Simulation;
use dear_someip::{Binding, FrameBuf, ServiceInstance};
use dear_time::Duration;

fn forward_fn(
    sender: OutboxSender,
    route: u32,
    deadline: Duration,
    port: Port<FrameBuf>,
) -> impl FnMut(&mut (), &mut ReactionCtx<'_>) + Send + 'static {
    move |_, ctx| {
        let payload = ctx.get(port).cloned().unwrap_or_default();
        let out_tag = ctx.tag().delay(deadline);
        sender.push(OutboundMsg {
            route,
            payload,
            tag: tag_to_wire(out_tag),
        });
    }
}

/// Server-side (publisher) event transactor.
///
/// Wire the publishing logic's output port to [`event`](Self::event);
/// each value is sent as a tagged notification to all subscribers.
#[derive(Debug, Clone, Copy)]
pub struct ServerEventTransactor {
    /// Input port: event payloads from the publishing logic.
    pub event: Port<FrameBuf>,
    route: u32,
}

impl ServerEventTransactor {
    /// Declares the transactor reactor in a program under assembly.
    #[must_use]
    pub fn declare(
        b: &mut ProgramBuilder,
        outbox: &Outbox,
        name: &str,
        deadline: Duration,
    ) -> Self {
        let route = outbox.allocate_route();
        let mut r = b.reactor(&format!("{name}.server_event_transactor"), ());
        let event = r.input::<FrameBuf>("event");
        r.reaction("forward_event")
            .triggered_by(event)
            .with_deadline(
                deadline,
                forward_fn(outbox.sender(), route, deadline, event),
            )
            .body(forward_fn(outbox.sender(), route, deadline, event));
        r.finish();
        ServerEventTransactor { event, route }
    }

    /// Binds the transactor to the publisher's middleware binding.
    pub fn bind(&self, platform: &impl PlatformDriver, binding: &Binding, spec: EventSpec) {
        let binding = binding.clone();
        platform.register_route(self.route, move |sim, msg| {
            binding.set_outgoing_tag(msg.tag);
            binding.notify(
                sim,
                ServiceInstance::new(spec.service, spec.instance),
                spec.eventgroup,
                spec.event,
                msg.payload,
            );
        });
    }
}

/// Client-side (subscriber) event transactor.
///
/// Wire the consuming logic's input port from [`event`](Self::event);
/// received notifications are released into the reactor network at
/// `t_sender + L + E`.
#[derive(Debug, Clone, Copy)]
pub struct ClientEventTransactor {
    /// Output port: event payloads to the consuming logic.
    pub event: Port<FrameBuf>,
    evt_action: PhysicalAction<FrameBuf>,
}

impl ClientEventTransactor {
    /// Declares the transactor reactor in a program under assembly.
    #[must_use]
    pub fn declare(b: &mut ProgramBuilder, name: &str) -> Self {
        let mut r = b.reactor(&format!("{name}.client_event_transactor"), ());
        let event = r.output::<FrameBuf>("event");
        let evt_action = r.physical_action::<FrameBuf>("event_arrived", Duration::ZERO);
        r.reaction("deliver_event")
            .triggered_by(evt_action)
            .effects(event)
            .body(move |_, ctx| {
                let v = ctx
                    .get_action(&evt_action)
                    .cloned()
                    .expect("action value present");
                ctx.set(event, v);
            });
        r.finish();
        ClientEventTransactor { event, evt_action }
    }

    /// The inbox physical action payloads are injected into, exposed so
    /// crash-recovery platforms can register a durable-input codec for
    /// it (the action id is structural: a rebuilt program with the same
    /// declaration order yields the same id).
    #[must_use]
    pub fn action(&self) -> PhysicalAction<FrameBuf> {
        self.evt_action
    }

    /// Binds the transactor: subscribes on the middleware and routes
    /// received notifications into the reactor network.
    pub fn bind(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        spec: EventSpec,
        cfg: DearConfig,
    ) -> TransactorStats {
        let stats = TransactorStats::new();
        binding.subscribe(
            ServiceInstance::new(spec.service, spec.instance),
            spec.eventgroup,
        );
        let action = self.evt_action;
        let platform = platform.clone();
        let binding_cb = binding.clone();
        let stats_cb = stats.clone();
        binding.on_event(spec.service, spec.event, move |sim, msg| {
            let wire_tag = binding_cb.take_incoming_tag().or(msg.tag);
            platform.deliver(sim, &action, msg.payload, wire_tag, &cfg, &stats_cb);
        });
        stats
    }

    /// Binds the transactor to a **redundant provider group**: instead of
    /// subscribing to one fixed instance, a [`FailoverBinding`] tracks
    /// the best valid offer of `spec.service` and moves the subscription
    /// whenever the current provider is withdrawn, expires, or (with
    /// [`FailoverBinding::enable_heartbeat`]) goes silent. Received
    /// notifications are routed into the reactor network exactly as in
    /// [`ClientEventTransactor::bind`] — the tag algebra and the
    /// safe-to-process check are unchanged, so failover never reorders
    /// released events.
    ///
    /// Returns the fault counters (shared with the failover binding, so
    /// `failovers`/`stp_violations` land in one place) and the
    /// [`FailoverBinding`] handle.
    pub fn bind_failover(
        &self,
        sim: &mut Simulation,
        platform: &impl PlatformDriver,
        binding: &Binding,
        spec: FailoverEventSpec,
        cfg: DearConfig,
    ) -> (TransactorStats, FailoverBinding) {
        let stats = TransactorStats::new();
        let failover =
            FailoverBinding::attach(sim, binding, spec.service, spec.eventgroup, stats.clone());
        let action = self.evt_action;
        let platform = platform.clone();
        let binding_cb = binding.clone();
        let stats_cb = stats.clone();
        let failover_cb = failover.clone();
        binding.on_event(spec.service, spec.event, move |sim, msg| {
            let wire_tag = binding_cb.take_incoming_tag().or(msg.tag);
            failover_cb.note_event(sim);
            platform.deliver(sim, &action, msg.payload, wire_tag, &cfg, &stats_cb);
        });
        (stats, failover)
    }
}
