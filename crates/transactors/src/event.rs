//! Event transactors: publisher (server) and subscriber (client) roles.
//!
//! "Analogous to methods, a similar pair of transactors for interacting
//! with AP events in the role of clients and servers exists" (paper
//! §III.B). Events are one-way: the server emits, subscribed clients
//! receive. The brake-assistant pipeline (Fig. 4) is a chain of exactly
//! these transactors.

use crate::config::{DearConfig, EventSpec, FailoverEventSpec};
use crate::driver::{declare_deliver, PlatformDriver};
use crate::failover::FailoverBinding;
use crate::outbox::{declare_forward, Outbox};
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, Port, ProgramBuilder};
use dear_sim::Simulation;
use dear_someip::{Binding, FrameBuf, ServiceInstance};
use dear_time::Duration;

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
        let mut r = b.reactor(&format!("{name}.server_event_transactor"), ());
        let event = r.input::<FrameBuf>("event");
        let route = declare_forward(&mut r, "forward_event", outbox, deadline, event);
        r.finish();
        ServerEventTransactor { event, route }
    }

    /// Binds the transactor to the publisher's middleware binding.
    pub fn bind(&self, platform: &impl PlatformDriver, binding: &Binding, spec: EventSpec) {
        let binding = binding.clone();
        let instance = ServiceInstance::new(spec.service, spec.instance);
        platform.register_route(self.route, move |sim, msg| {
            let (group, event) = (spec.eventgroup, spec.event);
            binding.notify_tagged(sim, instance, group, event, msg.payload, msg.tag);
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
        declare_deliver(&mut r, "deliver_event", evt_action, event);
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
        let event = (spec.service, spec.event);
        self.on_event(platform, binding, event, cfg, &stats, None);
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
        let event = (spec.service, spec.event);
        let alive = Some(failover.clone());
        self.on_event(platform, binding, event, cfg, &stats, alive);
        (stats, failover)
    }

    /// Routes each received `(service, event)` notification into the
    /// reactor network at its own tag `+ L + E`, after telling `failover`
    /// the provider is alive.
    fn on_event(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        (service, event): (u16, u16),
        cfg: DearConfig,
        stats: &TransactorStats,
        failover: Option<FailoverBinding>,
    ) {
        let (action, platform, stats) = (self.evt_action, platform.clone(), stats.clone());
        binding.on_event(service, event, move |sim, msg| {
            if let Some(failover) = &failover {
                failover.note_event(sim);
            }
            platform.deliver(sim, &action, msg.payload, msg.tag, &cfg, &stats);
        });
    }
}
