//! Redundant-provider failover for transactor bindings.
//!
//! Industrial AP deployments run safety-relevant services redundantly:
//! several providers offer the same service at different priorities, and
//! a client is expected to re-bind to the next provider when the current
//! one dies — without giving up the deterministic tag order the DEAR
//! transactors establish. A [`FailoverBinding`] implements that client
//! side:
//!
//! * it tracks the **best** valid offer of a service through
//!   [`SdRegistry::watch`] (lowest priority value wins, ties break on
//!   the instance id — a deterministic choice),
//! * on a change — StopOffer, TTL lapse (the SOME/IP-SD heartbeat), or
//!   a better provider appearing — it moves the node's eventgroup
//!   subscription to the new provider **at the SD event's tag**, so two
//!   runs with the same seed re-bind at the identical instant,
//! * optionally, a **heartbeat watchdog** detects providers that are
//!   still offered but silent: if no event arrives for
//!   `timeout` (typically the event period plus the link's
//!   `latency_bound`), the provider is *suspected* and the binding fails
//!   over early, before SD notices; a suspected provider is rehabilitated
//!   when SD next reports it as the fresh best offer,
//! * every re-binding increments the [`TransactorStats::failovers`]
//!   counter and lands in the simulation trace under `"failover"`.
//!
//! Method calls need no extra machinery: [`Binding::call`] resolves the
//! best offer per call, so after a failover the next call reaches the
//! backup automatically. [`FailoverBinding::method_spec`] exposes the
//! currently bound instance for callers that pin specs explicitly.
//!
//! Tag order is preserved by construction: re-binding only changes which
//! provider's *future* notifications are received; messages already
//! tagged by the old provider release at their `t + D + L + E` tags
//! unchanged, and the platform's safe-to-process check remains the sole
//! gate (violations surface in `stp_violations` as always).

use crate::stats::TransactorStats;
use dear_sim::{NodeId, Simulation};
use dear_someip::{Binding, Offer, SdRegistry, ServiceInstance, ANY_INSTANCE};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

struct FailoverInner {
    sd: SdRegistry,
    node: NodeId,
    service: u16,
    eventgroup: u16,
    stats: TransactorStats,
    /// The provider currently subscribed to, if any.
    current: Option<Offer>,
    /// Providers locally suspected dead (heartbeat silence). Excluded
    /// from selection until SD reports them as a fresh best offer again.
    suspected: BTreeSet<ServiceInstance>,
    /// Heartbeat timeout; `None` disables the watchdog.
    heartbeat: Option<Duration>,
    /// Generation guard for watchdog wake-ups (newer arms supersede).
    watchdog_gen: u64,
    /// Re-binding log: `(tag, provider bound at that tag)`.
    history: Vec<(Instant, Option<ServiceInstance>)>,
    /// Tag of the most recent counted failover (live → live re-route).
    last_failover_at: Option<Instant>,
    /// Last proven sign of life from the bound provider (an event
    /// arriving, or the bind itself). The gap from here to a counted
    /// failover is the outage **detection latency** the telemetry layer
    /// records under `failover/detection_ns`.
    last_live_at: Option<Instant>,
}

/// A client-side binding to a redundant provider group.
///
/// Cheap to clone; clones share the binding. Construct with
/// [`FailoverBinding::attach`] (or through
/// [`ClientEventTransactor::bind_failover`], which also wires the
/// received events into the reactor network).
///
/// [`ClientEventTransactor::bind_failover`]:
///     crate::ClientEventTransactor::bind_failover
#[derive(Clone)]
pub struct FailoverBinding(Rc<RefCell<FailoverInner>>);

impl fmt::Debug for FailoverBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("FailoverBinding")
            .field("service", &inner.service)
            .field("current", &inner.current.map(|o| o.instance))
            .field("suspected", &inner.suspected.len())
            .field("failovers", &inner.stats.failovers())
            .finish()
    }
}

impl FailoverBinding {
    /// Attaches a failover binding for `service`/`eventgroup` on the
    /// node served by `binding`.
    ///
    /// Subscribes to the current best offer immediately (if one exists)
    /// and re-binds automatically from then on. Re-bindings count into
    /// `stats.failovers()`.
    #[must_use]
    pub fn attach(
        sim: &mut Simulation,
        binding: &Binding,
        service: u16,
        eventgroup: u16,
        stats: TransactorStats,
    ) -> Self {
        let this = FailoverBinding(Rc::new(RefCell::new(FailoverInner {
            sd: binding.sd(),
            node: binding.node(),
            service,
            eventgroup,
            stats,
            current: None,
            suspected: BTreeSet::new(),
            heartbeat: None,
            watchdog_gen: 0,
            history: Vec::new(),
            last_failover_at: None,
            last_live_at: None,
        })));
        let hook = this.clone();
        binding
            .sd()
            .watch(sim, service, ANY_INSTANCE, move |sim, best| {
                hook.on_best_changed(sim, best);
            });
        this
    }

    /// Enables the heartbeat watchdog: if no event arrives for `timeout`
    /// while a provider is bound, that provider is suspected dead and
    /// the binding fails over to the next candidate without waiting for
    /// its SD offer to lapse.
    ///
    /// `timeout` should cover one nominal event period plus the link's
    /// worst-case latency `L` (and clock error `E`), or healthy
    /// providers will be suspected spuriously.
    pub fn enable_heartbeat(&self, sim: &mut Simulation, timeout: Duration) {
        self.0.borrow_mut().heartbeat = Some(timeout);
        self.arm_watchdog(sim);
    }

    /// Records provider liveness: call on every received event of the
    /// watched service. Re-arms the heartbeat watchdog.
    pub(crate) fn note_event(&self, sim: &mut Simulation) {
        let rearm = {
            let mut inner = self.0.borrow_mut();
            inner.last_live_at = Some(sim.now());
            inner.heartbeat.is_some()
        };
        if rearm {
            self.arm_watchdog(sim);
        }
    }

    /// The instance id currently bound, for building method specs.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn instance(&self) -> Option<u16> {
        self.0.borrow().current.map(|o| o.instance.instance)
    }

    /// A [`MethodSpec`](crate::MethodSpec) for `method` on the currently
    /// bound provider instance, or `None` while unbound.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn method_spec(&self, method: u16) -> Option<crate::MethodSpec> {
        let inner = self.0.borrow();
        inner.current.map(|o| crate::MethodSpec {
            service: inner.service,
            instance: o.instance.instance,
            method,
        })
    }

    /// Count of re-bindings performed so far (shared with the stats
    /// handle passed to [`FailoverBinding::attach`]).
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.0.borrow().stats.failovers()
    }

    /// The re-binding log: each entry is the tag at which the binding
    /// switched and the provider it switched to (`None` = parked, no
    /// candidate left). The initial binding is entry 0.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn history(&self) -> Vec<(Instant, Option<ServiceInstance>)> {
        self.0.borrow().history.clone()
    }

    /// The tag of the most recent *failover* (a live → live re-route;
    /// parkings and recoveries do not move it), if one happened yet.
    #[must_use]
    pub fn last_failover_at(&self) -> Option<Instant> {
        self.0.borrow().last_failover_at
    }

    fn on_best_changed(&self, sim: &mut Simulation, best: Option<Offer>) {
        // SD reporting a provider as the fresh best rehabilitates it: a
        // re-offer after expiry or StopOffer proves it came back.
        if let Some(b) = best {
            self.0.borrow_mut().suspected.remove(&b.instance);
        }
        self.rebind(sim);
    }

    /// Re-evaluates the candidate list and moves the subscription if the
    /// selected provider changed. The selection — best valid offer not
    /// locally suspected — is deterministic, so every run with the same
    /// seed re-binds identically.
    fn rebind(&self, sim: &mut Simulation) {
        let (sd, node, service, eventgroup) = {
            let inner = self.0.borrow();
            (
                inner.sd.clone(),
                inner.node,
                inner.service,
                inner.eventgroup,
            )
        };
        let target = {
            let inner = self.0.borrow();
            sd.offers_of(sim, service)
                .into_iter()
                .find(|o| !inner.suspected.contains(&o.instance))
        };
        let switched = {
            let mut inner = self.0.borrow_mut();
            let same = match (&inner.current, &target) {
                (None, None) => true,
                (Some(a), Some(b)) => a.instance == b.instance && a.node == b.node,
                _ => false,
            };
            if same {
                // Only the TTL moved (renewal); keep the fresh expiry.
                inner.current = target;
                None
            } else {
                let prev = inner.current.take();
                if let Some(p) = &prev {
                    sd.unsubscribe(p.instance, eventgroup, node);
                }
                if let Some(t) = &target {
                    sd.subscribe(t.instance, eventgroup, node);
                }
                inner.current = target;
                inner.history.push((sim.now(), target.map(|o| o.instance)));
                // A failover is a re-route between two live bindings;
                // the initial bind and a recovery from "parked" are not.
                if prev.is_some() && target.is_some() {
                    inner.stats.record_failover();
                    inner.last_failover_at = Some(sim.now());
                    sim.observe().count("failover/rebinds", 1);
                    if let Some(live) = inner.last_live_at {
                        sim.observe()
                            .record_duration("failover/detection_ns", sim.now() - live);
                    }
                }
                // Binding a provider counts as a sign of life: the next
                // detection window starts here.
                if target.is_some() {
                    inner.last_live_at = Some(sim.now());
                }
                Some((prev, target))
            }
        };
        if let Some((prev, target)) = switched {
            sim.trace_with("failover", || {
                let from = prev.map_or("-".into(), |o| o.instance.to_string());
                let to = target.map_or("-".into(), |o| o.instance.to_string());
                format!("service {service:04x} rebind {from} -> {to}")
            });
            // A fresh provider gets a fresh heartbeat window.
            self.arm_watchdog(sim);
        }
    }

    /// (Re-)arms the heartbeat watchdog; any previously scheduled
    /// wake-up is superseded by the generation bump.
    fn arm_watchdog(&self, sim: &mut Simulation) {
        let armed = {
            let mut inner = self.0.borrow_mut();
            inner.heartbeat.map(|timeout| {
                inner.watchdog_gen += 1;
                (inner.watchdog_gen, timeout)
            })
        };
        let Some((generation, timeout)) = armed else {
            return;
        };
        let this = self.clone();
        sim.schedule_in(timeout, move |sim| this.on_watchdog(sim, generation));
    }

    fn on_watchdog(&self, sim: &mut Simulation, generation: u64) {
        let suspect = {
            let mut inner = self.0.borrow_mut();
            if generation != inner.watchdog_gen {
                return; // superseded by a later event or re-bind
            }
            let Some(current) = inner.current else {
                return; // parked: nothing to suspect
            };
            inner.suspected.insert(current.instance);
            current.instance
        };
        sim.trace_with("failover", || {
            format!("provider {suspect} suspected dead (heartbeat silence)")
        });
        sim.observe().count("failover/suspicions", 1);
        self.rebind(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_sim::{LinkConfig, NetworkHandle};

    fn setup(seed: u64) -> (Simulation, Binding, NetworkHandle) {
        let sim = Simulation::new(seed);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let binding = Binding::new(&net, &sd, NodeId(9), 0x99);
        (sim, binding, net)
    }

    /// Whether `binding`'s node is subscribed to eventgroup 1 of
    /// `instance`: a notification published there reaches it within the
    /// link latency.
    fn receives(
        sim: &mut Simulation,
        net: &NetworkHandle,
        binding: &Binding,
        instance: ServiceInstance,
    ) -> bool {
        let got = Rc::new(std::cell::Cell::new(false));
        let sink = got.clone();
        binding.on_event(instance.service, 0x8001, move |_, _| sink.set(true));
        let publisher = Binding::new(net, &binding.sd(), NodeId(50), 0x50);
        publisher.notify(sim, instance, 1, 0x8001, vec![0]);
        sim.run_until(sim.now() + Duration::from_millis(1));
        got.get()
    }

    #[test]
    fn binds_best_offer_and_fails_over_on_stop_offer() {
        let (mut sim, binding, net) = setup(0);
        let sd = binding.sd();
        let primary = ServiceInstance::new(0x40, 1);
        let backup = ServiceInstance::new(0x40, 2);
        sd.offer_prioritized(&mut sim, primary, NodeId(1), Duration::from_secs(60), 0);
        sd.offer_prioritized(&mut sim, backup, NodeId(2), Duration::from_secs(60), 1);
        let stats = TransactorStats::new();
        let fb = FailoverBinding::attach(&mut sim, &binding, 0x40, 1, stats.clone());
        assert_eq!(fb.instance(), Some(1));
        assert!(receives(&mut sim, &net, &binding, primary));
        assert_eq!(stats.failovers(), 0, "initial bind is not a failover");

        sd.stop_offer(&mut sim, primary);
        assert_eq!(fb.instance(), Some(2));
        assert_eq!(stats.failovers(), 1);
        assert_eq!(fb.last_failover_at(), Some(sim.now()));
        assert_eq!(fb.method_spec(7).unwrap().instance, 2);
        assert!(!receives(&mut sim, &net, &binding, primary));
        assert!(receives(&mut sim, &net, &binding, backup));

        // The primary returning outranks the backup: fail back.
        sd.offer_prioritized(&mut sim, primary, NodeId(1), Duration::from_secs(60), 0);
        assert_eq!(fb.instance(), Some(1));
        assert_eq!(stats.failovers(), 2);
        assert!(!receives(&mut sim, &net, &binding, backup));
    }

    #[test]
    fn ttl_expiry_fails_over_at_the_expiry_tag() {
        let (mut sim, binding, _) = setup(1);
        let sd = binding.sd();
        let primary = ServiceInstance::new(0x40, 1);
        let backup = ServiceInstance::new(0x40, 2);
        sd.offer_prioritized(&mut sim, primary, NodeId(1), Duration::from_millis(20), 0);
        sd.offer_prioritized(&mut sim, backup, NodeId(2), Duration::from_secs(60), 1);
        let fb = FailoverBinding::attach(&mut sim, &binding, 0x40, 1, TransactorStats::new());
        assert_eq!(fb.instance(), Some(1));
        sim.run_until(Instant::from_secs(1));
        assert_eq!(fb.instance(), Some(2));
        assert_eq!(
            fb.history(),
            vec![
                (Instant::EPOCH, Some(primary)),
                (
                    Instant::from_millis(20) + Duration::from_nanos(1),
                    Some(backup)
                ),
            ]
        );
    }

    #[test]
    fn heartbeat_silence_suspects_provider_before_sd_notices() {
        let (mut sim, binding, _) = setup(2);
        let sd = binding.sd();
        let primary = ServiceInstance::new(0x40, 1);
        let backup = ServiceInstance::new(0x40, 2);
        // Both offers stay valid for the whole test: only the watchdog
        // can trigger the failover.
        sd.offer_prioritized(&mut sim, primary, NodeId(1), Duration::from_secs(60), 0);
        sd.offer_prioritized(&mut sim, backup, NodeId(2), Duration::from_secs(60), 1);
        let stats = TransactorStats::new();
        let fb = FailoverBinding::attach(&mut sim, &binding, 0x40, 1, stats.clone());
        fb.enable_heartbeat(&mut sim, Duration::from_millis(10));
        // Events from the primary until 25 ms, then silence; the backup
        // "sends" from 40 ms to 50 ms, then goes silent too.
        for k in (1..=5u64).chain(8..=10) {
            let fb2 = fb.clone();
            sim.schedule_at(Instant::from_millis(5 * k), move |sim| fb2.note_event(sim));
        }
        sim.run_until(Instant::from_millis(30));
        assert_eq!(fb.instance(), Some(1));
        // Primary silent since 25 ms: suspected one timeout later, even
        // though SD still lists its offer as valid.
        sim.run_until(Instant::from_millis(52));
        assert_eq!(fb.instance(), Some(2));
        assert_eq!(stats.failovers(), 1);
        assert_eq!(
            fb.last_failover_at(),
            Some(Instant::from_millis(25) + Duration::from_millis(10))
        );
        assert_eq!(sd.find(&sim, 0x40, ANY_INSTANCE).unwrap().instance, primary);

        // The backup going silent as well parks the binding: the strict
        // watchdog holds every provider to the same deadline.
        sim.run_until(Instant::from_secs(1));
        assert_eq!(fb.instance(), None);

        // A StopOffer of the (suspected) primary makes the backup the
        // fresh SD best — rehabilitating it — and a later re-offer of the
        // primary rehabilitates and rebinds that one too.
        sd.stop_offer(&mut sim, primary);
        assert_eq!(fb.instance(), Some(2));
        sd.offer_prioritized(&mut sim, primary, NodeId(1), Duration::from_secs(60), 0);
        assert_eq!(fb.instance(), Some(1));
    }

    #[test]
    fn parking_and_recovery_are_not_failovers() {
        let (mut sim, binding, _) = setup(3);
        let sd = binding.sd();
        let only = ServiceInstance::new(0x40, 1);
        let stats = TransactorStats::new();
        let fb = FailoverBinding::attach(&mut sim, &binding, 0x40, 1, stats.clone());
        assert_eq!(fb.instance(), None);
        sd.offer(&mut sim, only, NodeId(1), Duration::from_secs(60));
        assert_eq!(fb.instance(), Some(1));
        sd.stop_offer(&mut sim, only);
        assert_eq!(fb.instance(), None, "parked: no candidate left");
        sd.offer(&mut sim, only, NodeId(1), Duration::from_secs(60));
        assert_eq!(fb.instance(), Some(1));
        assert_eq!(
            stats.failovers(),
            0,
            "park/recover cycles are not failovers"
        );
        assert_eq!(fb.history().len(), 3);
        assert_eq!(fb.last_failover_at(), None);
    }
}
