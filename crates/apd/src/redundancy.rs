//! The deterministic build's redundant Video Provider (see
//! [`RedundancyParams`]): a primary and a warm standby offering the
//! video service at two priorities, SD offer renewals as their
//! heartbeat, and the standby's takeover when the primary's offer lapses,
//! is withdrawn, or (with a watchdog) its stream goes silent.

use crate::det::{DetParams, RedundancyParams};
use crate::nondet::services::{BACKUP_INSTANCE, EVENTGROUP, EVENT_MAIN, INSTANCE, VIDEO};
use crate::nondet::{nodes, Camera};
use crate::types::Frame;
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{Binding, SdRegistry, ServiceInstance, ANY_INSTANCE};
use dear_time::{Duration, Instant};
use std::cell::Cell;
use std::rc::Rc;

/// Builds the primary/standby Video Provider pair of a redundancy
/// scenario (see [`RedundancyParams`]). Returns the cell the primary's
/// death instant lands in.
pub(crate) fn build_redundant_providers(
    sim: &mut Simulation,
    net: &NetworkHandle,
    sd: &SdRegistry,
    params: &DetParams,
    red: RedundancyParams,
) -> Rc<Cell<Option<Instant>>> {
    assert!(
        red.primary_dies_after < params.frames,
        "redundancy requires the primary to die within the run: \
         primary_dies_after = {} but frames = {}",
        red.primary_dies_after,
        params.frames
    );

    let primary_inst = ServiceInstance::new(VIDEO, INSTANCE);
    let backup_inst = ServiceInstance::new(VIDEO, BACKUP_INSTANCE);
    // The standby sits next to the primary on platform 1: both reach the
    // adapter over the Ethernet link, and the replication feed (primary →
    // standby) crosses the same switch.
    let ethernet = || params.ethernet.clone();
    net.configure_link(nodes::PROVIDER_BACKUP, nodes::ADAPTER, ethernet());
    net.configure_link(nodes::PROVIDER, nodes::PROVIDER_BACKUP, ethernet());

    let primary_binding = Binding::new(net, sd, nodes::PROVIDER, 0x10);
    let backup_binding = Binding::new(net, sd, nodes::PROVIDER_BACKUP, 0x11);

    // Offer order matters for the adapter's very first bind: the primary
    // first, so the failover binding never transits through the standby.
    let primary_alive = Rc::new(Cell::new(true));
    sd.offer_prioritized(sim, primary_inst, nodes::PROVIDER, red.offer_ttl, 0);
    sd.offer_prioritized(sim, backup_inst, nodes::PROVIDER_BACKUP, red.offer_ttl, 1);
    OfferRenewal {
        sd: sd.clone(),
        instance: primary_inst,
        node: nodes::PROVIDER,
        ttl: red.offer_ttl,
        period: red.reoffer_period,
        priority: 0,
        alive: primary_alive.clone(),
    }
    .arm(sim);
    OfferRenewal {
        sd: sd.clone(),
        instance: backup_inst,
        node: nodes::PROVIDER_BACKUP,
        ttl: red.offer_ttl,
        period: red.reoffer_period,
        priority: 1,
        alive: Rc::new(Cell::new(true)), // the standby never dies
    }
    .arm(sim);

    // The standby replicates the primary's frame stream by subscribing
    // to it, and takes over when SD drops the primary or (with a
    // heartbeat watchdog) when the stream goes silent.
    let (frames, period, jitter) = (params.frames, params.period, params.provider_jitter);
    let (binding, rng) = (backup_binding.clone(), sim.fork_rng("provider-backup"));
    let camera = Camera::new(binding, backup_inst, frames, period, jitter, rng);
    let backup = Rc::new(BackupProvider {
        camera: camera.register(sim),
        active: Cell::new(false),
        last_seen: Cell::new(None),
        watchdog_gen: Cell::new(0),
        timeout: red.heartbeat_timeout,
    });
    sd.subscribe(primary_inst, EVENTGROUP, nodes::PROVIDER_BACKUP);
    {
        let backup = backup.clone();
        backup_binding.on_event(VIDEO, EVENT_MAIN, move |sim, msg| {
            if let Ok(frame) = Frame::from_payload(&msg.payload) {
                backup.on_replicated(sim, frame.id);
            }
        });
    }
    {
        let backup = backup.clone();
        sd.watch(sim, VIDEO, ANY_INSTANCE, move |sim, best| {
            if best.map(|o| o.instance) == Some(backup_inst) {
                backup.activate(sim);
            }
        });
    }
    backup.arm_watchdog(sim);

    // The primary: the plain provider's camera, crashing right after frame
    // `primary_dies_after`.
    let rng = sim.fork_rng("provider");
    let mut primary = Camera::new(primary_binding, primary_inst, frames, period, jitter, rng);
    let sd = sd.clone();
    let death_at = Rc::new(Cell::new(None));
    let died = death_at.clone();
    primary.dies = Some(Box::new(move |sim, id| {
        if id < red.primary_dies_after {
            return false;
        }
        // The crash: no further frames, no further renewals; a graceful
        // death also withdraws the offer at this very tag.
        primary_alive.set(false);
        died.set(Some(sim.now()));
        sim.trace_with("failover", || {
            format!("primary provider dies after frame {id}")
        });
        if red.graceful {
            sd.stop_offer(sim, primary_inst);
        }
        true
    }));
    primary.register(sim).arm(sim, Duration::ZERO);
    death_at
}

/// A provider's periodic offer renewal (the SOME/IP-SD heartbeat); stops
/// when the provider dies.
struct OfferRenewal {
    sd: SdRegistry,
    instance: ServiceInstance,
    node: NodeId,
    ttl: Duration,
    period: Duration,
    priority: u8,
    alive: Rc<Cell<bool>>,
}

impl OfferRenewal {
    fn arm(self, sim: &mut Simulation) {
        let period = self.period;
        sim.schedule_in(period, move |sim| self.tick(sim));
    }

    fn tick(self, sim: &mut Simulation) {
        if !self.alive.get() {
            return;
        }
        self.sd
            .offer_prioritized(sim, self.instance, self.node, self.ttl, self.priority);
        self.arm(sim);
    }
}

/// The warm-standby Video Provider: replicates the primary's stream by
/// subscription, resumes it at the next frame id once activated.
struct BackupProvider {
    /// Its own camera, armed at takeover. Every replicated frame raises
    /// the camera's next id past it, so the standby resumes strictly
    /// after everything replicated and everything it sent itself.
    camera: Rc<Camera>,
    active: Cell<bool>,
    /// Highest frame id observed from the primary.
    last_seen: Cell<Option<u64>>,
    watchdog_gen: Cell<u64>,
    timeout: Option<Duration>,
}

impl BackupProvider {
    fn on_replicated(self: &Rc<Self>, sim: &mut Simulation, id: u64) {
        let seen = self.last_seen.get().map_or(id, |s| s.max(id));
        self.last_seen.set(Some(seen));
        let next_id = &self.camera.next_id;
        next_id.set(next_id.get().max(id + 1));
        self.arm_watchdog(sim);
    }

    /// (Re-)arms the stream-silence watchdog; superseded by later frames.
    fn arm_watchdog(self: &Rc<Self>, sim: &mut Simulation) {
        let Some(timeout) = self.timeout else { return };
        if self.active.get() {
            return;
        }
        self.watchdog_gen.set(self.watchdog_gen.get() + 1);
        let generation = self.watchdog_gen.get();
        let this = self.clone();
        sim.schedule_in(timeout, move |sim| {
            if this.watchdog_gen.get() == generation && !this.active.get() {
                this.activate(sim);
            }
        });
    }

    fn activate(self: &Rc<Self>, sim: &mut Simulation) {
        if self.active.get() {
            return;
        }
        self.active.set(true);
        sim.trace_with("failover", || {
            let seen = self.last_seen.get();
            format!("standby provider takes over (last replicated frame: {seen:?})")
        });
        // The first frame goes out one period after takeover; the id is
        // decided *then*, so replicated frames still in flight at this
        // tag are never re-sent.
        self.camera.arm(sim, self.camera.period);
    }
}
