//! SOME/IP service discovery (SOME/IP-SD), simplified.
//!
//! "SWCs provide or request services as needed; the binding between
//! clients and servers is determined at runtime by the middleware through
//! service discovery. The dynamic binding of services is the core
//! mechanism for providing adaptivity in AP" (paper §II.A).
//!
//! [`SdRegistry`] models the discovery domain one multicast segment would
//! span: servers *offer* `(service, instance)` pairs with a TTL, clients
//! *find* instances (optionally asynchronously — the callback fires when a
//! matching offer appears) and *subscribe* to eventgroups.
//!
//! # Redundant providers and failover
//!
//! Multiple providers may offer distinct instances of the *same* service
//! with a [priority](Offer::priority) (lower value wins; ties break on
//! the lower instance id, so selection is always deterministic).
//! [`SdRegistry::find`] resolves to the best valid offer, and
//! [`SdRegistry::watch`] observes it: whenever the best offer for a
//! service changes — a higher-priority provider appears, the current one
//! sends StopOffer, or its TTL lapses — every watcher fires exactly once
//! with the new best (or `None`), at a well-defined simulation tag.
//!
//! TTL doubles as the provider heartbeat: as long as a service is
//! watched, each offer schedules a purge at its expiry instant, so a
//! provider that silently dies is withdrawn deterministically one
//! nanosecond after its last renewal lapses — no polling, no wall-clock
//! races. `stop_offer` additionally drops the withdrawn instance's
//! subscriptions, so a re-offer never delivers to stale subscribers.

use dear_sim::{NodeId, Simulation};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Identifies a concrete instance of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceInstance {
    /// Service interface id.
    pub service: u16,
    /// Instance id (`ANY_INSTANCE` matches any in find operations).
    pub instance: u16,
}

/// Wildcard instance id accepted by find/subscribe operations.
pub const ANY_INSTANCE: u16 = 0xFFFF;

impl ServiceInstance {
    /// Creates a service-instance id.
    #[must_use]
    pub const fn new(service: u16, instance: u16) -> Self {
        ServiceInstance { service, instance }
    }
}

impl fmt::Display for ServiceInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}:{:04x}", self.service, self.instance)
    }
}

/// An active service offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// The offered instance.
    pub instance: ServiceInstance,
    /// Node hosting the server.
    pub node: NodeId,
    /// Offer expiry (true simulation time).
    pub(crate) valid_until: Instant,
    /// Selection priority among redundant offers of the same service:
    /// lower values win, ties break on the lower instance id. Plain
    /// offers default to priority 0.
    pub(crate) priority: u8,
}

type FindCallback = Box<dyn FnOnce(&mut Simulation, Offer)>;
type WatchCallback = Rc<dyn Fn(&mut Simulation, Option<Offer>)>;

struct WatchEntry {
    service: u16,
    pattern: u16,
    /// The best offer last reported, to fire only on change.
    last: Option<Offer>,
    callback: WatchCallback,
}

#[derive(Default)]
struct SdInner {
    // BTreeMaps, not HashMaps: registry iteration order feeds find() and
    // notification fan-out, so it must not depend on hasher state — a
    // latent determinism hazard in a determinism repo.
    offers: BTreeMap<ServiceInstance, Offer>,
    /// Pending async finds: (service, instance-pattern, callback).
    waiting: Vec<(u16, u16, FindCallback)>,
    /// Subscriptions: (service, instance, eventgroup) -> subscriber nodes.
    subscriptions: BTreeMap<(u16, u16, u16), Vec<NodeId>>,
    /// Best-offer watchers, fired in registration order.
    watchers: Vec<WatchEntry>,
}

impl SdInner {
    /// Withdraws an offer together with the instance's subscriptions —
    /// the single wipe shared by StopOffer and TTL expiry, so the two
    /// withdrawal paths can never drift apart (a stale subscriber on
    /// either path would receive a re-offered incarnation's traffic).
    fn withdraw(&mut self, instance: ServiceInstance) {
        self.offers.remove(&instance);
        self.subscriptions.retain(|&(service, inst, _), _| {
            (service, inst) != (instance.service, instance.instance)
        });
    }
}

/// The offers of `service` with an instance id in `lo..=hi`, ascending
/// by instance id: a range of the map, not a scan of every offer.
fn offers_in(
    offers: &BTreeMap<ServiceInstance, Offer>,
    service: u16,
    lo: u16,
    hi: u16,
) -> impl Iterator<Item = &Offer> {
    offers
        .range(ServiceInstance::new(service, lo)..=ServiceInstance::new(service, hi))
        .map(|(_, offer)| offer)
}

/// The deterministic best-offer choice for `(service, pattern)`:
/// lowest `(priority, instance)` among valid offers.
fn best_of(
    offers: &BTreeMap<ServiceInstance, Offer>,
    now: Instant,
    service: u16,
    pattern: u16,
) -> Option<Offer> {
    let (lo, hi) = if pattern == ANY_INSTANCE {
        (0, u16::MAX)
    } else {
        (pattern, pattern)
    };
    offers_in(offers, service, lo, hi)
        .filter(|o| o.valid_until >= now)
        .min_by_key(|o| (o.priority, o.instance.instance))
        .copied()
}

/// [`best_of`] as a scan of every offer: the oracle its range lookup is
/// tested against.
#[cfg(test)]
fn best_of_scan(
    offers: &BTreeMap<ServiceInstance, Offer>,
    now: Instant,
    service: u16,
    pattern: u16,
) -> Option<Offer> {
    offers
        .values()
        .filter(|o| {
            o.instance.service == service
                && (pattern == ANY_INSTANCE || o.instance.instance == pattern)
                && o.valid_until >= now
        })
        .min_by_key(|o| (o.priority, o.instance.instance))
        .copied()
}

/// A shared handle to the discovery domain.
///
/// # Examples
///
/// ```
/// use dear_sim::{NodeId, Simulation};
/// use dear_someip::{SdRegistry, ServiceInstance};
/// use dear_time::Duration;
///
/// let mut sim = Simulation::new(0);
/// let sd = SdRegistry::new();
/// sd.offer(&mut sim, ServiceInstance::new(0x1234, 1), NodeId(2), Duration::from_secs(5));
/// let offer = sd.find(&sim, 0x1234, dear_someip::ANY_INSTANCE).unwrap();
/// assert_eq!(offer.node, NodeId(2));
/// ```
#[derive(Clone, Default)]
pub struct SdRegistry(Rc<RefCell<SdInner>>);

impl fmt::Debug for SdRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("SdRegistry")
            .field("offers", &inner.offers.len())
            .field("waiting_finds", &inner.waiting.len())
            .field("subscriptions", &inner.subscriptions.len())
            .finish()
    }
}

impl SdRegistry {
    /// Creates an empty discovery domain.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a service instance from `node` for `ttl` at priority 0.
    ///
    /// Pending asynchronous finds matching the offer fire immediately
    /// (at the current simulation time).
    pub fn offer(
        &self,
        sim: &mut Simulation,
        instance: ServiceInstance,
        node: NodeId,
        ttl: Duration,
    ) {
        self.offer_prioritized(sim, instance, node, ttl, 0);
    }

    /// Offers a service instance with an explicit selection priority
    /// (lower wins). Re-offering the same
    /// instance renews its TTL — the SOME/IP-SD heartbeat.
    pub fn offer_prioritized(
        &self,
        sim: &mut Simulation,
        instance: ServiceInstance,
        node: NodeId,
        ttl: Duration,
        priority: u8,
    ) {
        let valid_until = sim.now().saturating_add(ttl);
        let offer = Offer {
            instance,
            node,
            valid_until,
            priority,
        };
        let (ready, watched): (Vec<FindCallback>, bool) = {
            let mut inner = self.0.borrow_mut();
            inner.offers.insert(instance, offer);
            let mut ready = Vec::new();
            let mut remaining = Vec::new();
            for (service, pattern, cb) in inner.waiting.drain(..) {
                if service == instance.service
                    && (pattern == ANY_INSTANCE || pattern == instance.instance)
                {
                    ready.push(cb);
                } else {
                    remaining.push((service, pattern, cb));
                }
            }
            inner.waiting = remaining;
            let watched = inner.watchers.iter().any(|w| w.service == instance.service);
            (ready, watched)
        };
        // Watched services get active expiry: the TTL is a heartbeat
        // deadline, enforced at a well-defined tag. Unwatched services
        // keep the passive model (validity checked at lookup time) so
        // plans without failover schedule zero extra events.
        if watched && valid_until < Instant::MAX {
            self.arm_expiry(sim, instance, valid_until);
        }
        for cb in ready {
            cb(sim, offer);
        }
        self.notify_watchers(sim);
    }

    /// Withdraws an offer (SOME/IP-SD StopOffer).
    ///
    /// All subscriptions to the withdrawn instance are dropped with it:
    /// a later re-offer of the same instance starts with an empty
    /// subscriber set, so notifications can never reach subscribers of
    /// the dead incarnation. Watchers of the service fire at the current
    /// tag if the withdrawal changed their best offer.
    pub fn stop_offer(&self, sim: &mut Simulation, instance: ServiceInstance) {
        self.0.borrow_mut().withdraw(instance);
        self.notify_watchers(sim);
    }

    /// Finds a currently valid offer. `instance` may be [`ANY_INSTANCE`].
    ///
    /// The choice among redundant offers is deterministic: lowest
    /// offered priority wins, ties break on the lowest instance id.
    #[must_use]
    pub fn find(&self, sim: &Simulation, service: u16, instance: u16) -> Option<Offer> {
        best_of(&self.0.borrow().offers, sim.now(), service, instance)
    }

    /// Watches the best valid offer for `(service, instance)` (the
    /// pattern may be [`ANY_INSTANCE`]): `callback` fires whenever it
    /// changes — a better offer appears, the current best is withdrawn
    /// via [`SdRegistry::stop_offer`], or its TTL lapses — with the new
    /// best (or `None` when none is left). It fires immediately for the
    /// current state, so the caller needs no separate initial `find`.
    ///
    /// Registering a watcher switches the service to active TTL expiry
    /// (see the module docs); watchers fire in registration order.
    pub fn watch(
        &self,
        sim: &mut Simulation,
        service: u16,
        instance: u16,
        callback: impl Fn(&mut Simulation, Option<Offer>) + 'static,
    ) {
        let (initial, callback, expiries): (Option<Offer>, WatchCallback, Vec<_>) = {
            let mut inner = self.0.borrow_mut();
            let initial = best_of(&inner.offers, sim.now(), service, instance);
            let callback: WatchCallback = Rc::new(callback);
            inner.watchers.push(WatchEntry {
                service,
                pattern: instance,
                last: initial,
                callback: callback.clone(),
            });
            // Offers made before the first watcher existed never armed an
            // expiry event; arm them now so their TTLs are enforced too.
            let expiries = offers_in(&inner.offers, service, 0, u16::MAX)
                .filter(|o| o.valid_until < Instant::MAX)
                .map(|o| (o.instance, o.valid_until))
                .collect();
            (initial, callback, expiries)
        };
        for (inst, valid_until) in expiries {
            self.arm_expiry(sim, inst, valid_until);
        }
        callback(sim, initial);
    }

    /// Schedules the purge of `instance` one nanosecond after
    /// `valid_until`, unless the offer was renewed in the meantime.
    fn arm_expiry(&self, sim: &mut Simulation, instance: ServiceInstance, valid_until: Instant) {
        let sd = self.clone();
        sim.schedule_at(
            valid_until.saturating_add(Duration::from_nanos(1)),
            move |sim| {
                let expired = {
                    let mut inner = sd.0.borrow_mut();
                    // A renewal moved valid_until; this check is stale then.
                    let expired = inner
                        .offers
                        .get(&instance)
                        .is_some_and(|o| o.valid_until == valid_until);
                    if expired {
                        inner.withdraw(instance);
                    }
                    expired
                };
                if expired {
                    sim.trace_with("sd", || format!("offer {instance} expired"));
                    sd.notify_watchers(sim);
                }
            },
        );
    }

    /// Fires every watcher whose best offer changed since it last fired.
    fn notify_watchers(&self, sim: &mut Simulation) {
        let ready: Vec<(WatchCallback, Option<Offer>)> = {
            let mut inner = self.0.borrow_mut();
            let now = sim.now();
            let mut ready = Vec::new();
            let SdInner {
                offers, watchers, ..
            } = &mut *inner;
            for w in watchers.iter_mut() {
                let best = best_of(offers, now, w.service, w.pattern);
                // A TTL renewal only moves `valid_until`; the provider is
                // the same, so the watcher stays quiet.
                let same_provider = match (&w.last, &best) {
                    (None, None) => true,
                    (Some(a), Some(b)) => {
                        a.instance == b.instance && a.node == b.node && a.priority == b.priority
                    }
                    _ => false,
                };
                w.last = best;
                if !same_provider {
                    ready.push((w.callback.clone(), best));
                }
            }
            ready
        };
        for (cb, best) in ready {
            cb(sim, best);
        }
    }

    /// Finds asynchronously: `callback` fires now if a matching offer
    /// exists, or as soon as one appears.
    #[cfg(test)]
    pub(crate) fn find_async(
        &self,
        sim: &mut Simulation,
        service: u16,
        instance: u16,
        callback: impl FnOnce(&mut Simulation, Offer) + 'static,
    ) {
        if let Some(offer) = self.find(sim, service, instance) {
            callback(sim, offer);
        } else {
            self.0
                .borrow_mut()
                .waiting
                .push((service, instance, Box::new(callback)));
        }
    }

    /// Subscribes `subscriber` to an eventgroup of a service instance.
    ///
    /// Duplicate subscriptions are idempotent.
    pub fn subscribe(&self, instance: ServiceInstance, eventgroup: u16, subscriber: NodeId) {
        let mut inner = self.0.borrow_mut();
        let subs = inner
            .subscriptions
            .entry((instance.service, instance.instance, eventgroup))
            .or_default();
        if !subs.contains(&subscriber) {
            subs.push(subscriber);
            subs.sort_unstable();
        }
    }

    /// Removes a subscription.
    pub fn unsubscribe(&self, instance: ServiceInstance, eventgroup: u16, subscriber: NodeId) {
        if let Some(subs) = self.0.borrow_mut().subscriptions.get_mut(&(
            instance.service,
            instance.instance,
            eventgroup,
        )) {
            subs.retain(|&n| n != subscriber);
        }
    }

    /// Calls `f` on every current subscriber of an eventgroup, in
    /// ascending node order, without copying the list. The registry
    /// stays borrowed meanwhile, so `f` must not call back into it.
    pub(crate) fn for_each_subscriber(
        &self,
        instance: ServiceInstance,
        eventgroup: u16,
        f: impl FnMut(NodeId),
    ) {
        if let Some(subs) =
            self.0
                .borrow()
                .subscriptions
                .get(&(instance.service, instance.instance, eventgroup))
        {
            subs.iter().copied().for_each(f);
        }
    }

    /// Current subscribers of an eventgroup (sorted, deterministic).
    #[cfg(test)]
    pub(crate) fn subscribers(&self, instance: ServiceInstance, eventgroup: u16) -> Vec<NodeId> {
        self.0
            .borrow()
            .subscriptions
            .get(&(instance.service, instance.instance, eventgroup))
            .cloned()
            .unwrap_or_default()
    }

    /// All currently valid offers of `service`, best first (ascending
    /// `(priority, instance)` — the same deterministic order
    /// [`SdRegistry::find`] resolves in).
    #[must_use]
    pub fn offers_of(&self, sim: &Simulation, service: u16) -> Vec<Offer> {
        let inner = self.0.borrow();
        let mut offers: Vec<Offer> = offers_in(&inner.offers, service, 0, u16::MAX)
            .filter(|o| o.valid_until >= sim.now())
            .copied()
            .collect();
        offers.sort_by_key(|o| (o.priority, o.instance.instance));
        offers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The range lookup picks exactly what the full scan picks, over
        /// mixed services, priorities, TTLs, lookup times and patterns
        /// (`ANY_INSTANCE` included, and an offered instance id 0xFFFF).
        #[test]
        fn best_of_matches_the_full_scan(
            entries in proptest::collection::vec((0u16..4, 0u16..8, 0u8..3, 0u64..20), 0..24),
            service in 0u16..5,
            pattern in 0u16..9,
            now in 0u64..22,
        ) {
            // Ids 6 and 7 stand for the top of the id space; pattern 8
            // is the wildcard.
            let id = |i: u16| match i {
                6 => 0xFFFE,
                7 => 0xFFFF,
                8 => ANY_INSTANCE,
                i => i,
            };
            let offers: BTreeMap<ServiceInstance, Offer> = entries
                .into_iter()
                .map(|(service, instance, priority, until)| {
                    let instance = ServiceInstance::new(service, id(instance));
                    let offer = Offer {
                        instance,
                        node: NodeId(instance.instance),
                        valid_until: Instant::from_millis(until),
                        priority,
                    };
                    (instance, offer)
                })
                .collect();
            let now = Instant::from_millis(now);
            let pattern = id(pattern);
            prop_assert_eq!(
                best_of(&offers, now, service, pattern),
                best_of_scan(&offers, now, service, pattern)
            );
        }
    }

    #[test]
    fn offer_then_find() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        assert!(sd.find(&sim, 7, ANY_INSTANCE).is_none());
        sd.offer(
            &mut sim,
            ServiceInstance::new(7, 1),
            NodeId(3),
            Duration::from_secs(1),
        );
        assert_eq!(sd.find(&sim, 7, ANY_INSTANCE).unwrap().node, NodeId(3));
        assert_eq!(sd.find(&sim, 7, 1).unwrap().node, NodeId(3));
        assert!(sd.find(&sim, 7, 2).is_none());
        assert!(sd.find(&sim, 8, ANY_INSTANCE).is_none());
    }

    #[test]
    fn offers_expire_by_ttl() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        sd.offer(
            &mut sim,
            ServiceInstance::new(7, 1),
            NodeId(3),
            Duration::from_millis(10),
        );
        sim.run_until(Instant::from_millis(5));
        assert!(sd.find(&sim, 7, 1).is_some());
        sim.run_until(Instant::from_millis(11));
        assert!(sd.find(&sim, 7, 1).is_none(), "expired");
    }

    #[test]
    fn stop_offer_withdraws() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let inst = ServiceInstance::new(7, 1);
        sd.offer(&mut sim, inst, NodeId(3), Duration::from_secs(1));
        sd.stop_offer(&mut sim, inst);
        assert!(sd.find(&sim, 7, 1).is_none());
    }

    #[test]
    fn priority_selects_best_and_reroutes_on_withdrawal() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let primary = ServiceInstance::new(7, 1);
        let backup = ServiceInstance::new(7, 2);
        sd.offer_prioritized(&mut sim, backup, NodeId(5), Duration::from_secs(10), 1);
        sd.offer_prioritized(&mut sim, primary, NodeId(4), Duration::from_secs(10), 0);
        // Priority beats instance-id order and offer order.
        assert_eq!(sd.find(&sim, 7, ANY_INSTANCE).unwrap().node, NodeId(4));
        sd.stop_offer(&mut sim, primary);
        assert_eq!(sd.find(&sim, 7, ANY_INSTANCE).unwrap().node, NodeId(5));
        // The primary coming back outranks the backup again.
        sd.offer_prioritized(&mut sim, primary, NodeId(4), Duration::from_secs(10), 0);
        assert_eq!(sd.find(&sim, 7, ANY_INSTANCE).unwrap().node, NodeId(4));
    }

    #[test]
    fn stop_offer_wipes_subscriptions_and_reoffer_starts_clean() {
        // SD churn regression: a StopOffer/re-offer cycle must rebuild
        // the subscriber set from scratch — notifications of the new
        // incarnation can never reach subscribers of the dead one.
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let inst = ServiceInstance::new(7, 1);
        sd.offer(&mut sim, inst, NodeId(3), Duration::from_secs(10));
        sd.subscribe(inst, 1, NodeId(8));
        sd.subscribe(inst, 2, NodeId(9));
        assert_eq!(sd.subscribers(inst, 1), vec![NodeId(8)]);
        sd.stop_offer(&mut sim, inst);
        assert!(sd.subscribers(inst, 1).is_empty(), "stale subscriber kept");
        assert!(sd.subscribers(inst, 2).is_empty(), "stale subscriber kept");
        // A different instance of the same service is untouched.
        let other = ServiceInstance::new(7, 3);
        sd.subscribe(other, 1, NodeId(10));
        sd.stop_offer(&mut sim, inst);
        assert_eq!(sd.subscribers(other, 1), vec![NodeId(10)]);
        // Re-offer: the subscriber set is rebuilt deterministically by
        // fresh subscribe calls only.
        sd.offer(&mut sim, inst, NodeId(3), Duration::from_secs(10));
        assert!(sd.subscribers(inst, 1).is_empty());
        sd.subscribe(inst, 1, NodeId(11));
        assert_eq!(sd.subscribers(inst, 1), vec![NodeId(11)]);
    }

    #[test]
    fn find_async_after_stop_offer_observes_the_new_offer() {
        // SD churn regression: a find resolving after a StopOffer must
        // see the replacement offer, never the dead one.
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let inst = ServiceInstance::new(9, 1);
        sd.offer(&mut sim, inst, NodeId(1), Duration::from_secs(10));
        sd.stop_offer(&mut sim, inst);
        let hit = Rc::new(RefCell::new(None));
        let sink = hit.clone();
        sd.find_async(&mut sim, 9, ANY_INSTANCE, move |sim, offer| {
            *sink.borrow_mut() = Some((sim.now(), offer.node));
        });
        assert!(hit.borrow().is_none(), "dead offer must not resolve");
        let sd2 = sd.clone();
        sim.schedule_at(Instant::from_millis(3), move |sim| {
            sd2.offer(sim, inst, NodeId(2), Duration::from_secs(10));
        });
        sim.run_to_completion();
        assert_eq!(*hit.borrow(), Some((Instant::from_millis(3), NodeId(2))));
    }

    #[test]
    fn watch_fires_on_offer_withdrawal_and_expiry() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let primary = ServiceInstance::new(7, 1);
        let backup = ServiceInstance::new(7, 2);
        type BestLog = Vec<(Instant, Option<(u16, u16)>)>;
        let log: Rc<RefCell<BestLog>> = Rc::new(RefCell::new(Vec::new()));
        let sink = log.clone();
        sd.watch(&mut sim, 7, ANY_INSTANCE, move |sim, best| {
            sink.borrow_mut().push((
                sim.now(),
                best.map(|o| (o.instance.instance, u16::from(o.priority))),
            ));
        });
        // Initial state: nothing offered.
        assert_eq!(*log.borrow(), vec![(Instant::EPOCH, None)]);
        // Backup first, then primary takes over by priority.
        sd.offer_prioritized(&mut sim, backup, NodeId(5), Duration::from_secs(60), 1);
        sd.offer_prioritized(&mut sim, primary, NodeId(4), Duration::from_millis(10), 0);
        // Renewing the backup does not change the best: no spurious fire.
        sd.offer_prioritized(&mut sim, backup, NodeId(5), Duration::from_secs(60), 1);
        // The primary's TTL lapses without renewal: failover to the
        // backup exactly one nanosecond past the deadline.
        sim.run_until(Instant::from_secs(1));
        assert_eq!(
            *log.borrow(),
            vec![
                (Instant::EPOCH, None),
                (Instant::EPOCH, Some((2, 1))),
                (Instant::EPOCH, Some((1, 0))),
                (
                    Instant::from_millis(10) + Duration::from_nanos(1),
                    Some((2, 1))
                ),
            ]
        );
        // Expiry also wiped the dead instance's subscriptions.
        assert!(sd.subscribers(primary, 1).is_empty());
    }

    #[test]
    fn watch_renewal_keeps_the_offer_alive() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let inst = ServiceInstance::new(7, 1);
        let changes = Rc::new(RefCell::new(0u32));
        let sink = changes.clone();
        sd.watch(&mut sim, 7, ANY_INSTANCE, move |_, _| {
            *sink.borrow_mut() += 1;
        });
        sd.offer(&mut sim, inst, NodeId(3), Duration::from_millis(10));
        // Renew every 5 ms for 40 ms: the stale expiry checks fire but
        // must not withdraw the renewed offer.
        for k in 1..=8u64 {
            let sd2 = sd.clone();
            sim.schedule_at(Instant::from_millis(5 * k), move |sim| {
                sd2.offer(sim, inst, NodeId(3), Duration::from_millis(10));
            });
        }
        sim.run_until(Instant::from_millis(45));
        assert!(sd.find(&sim, 7, 1).is_some(), "renewals keep it alive");
        // 1 initial (None) + 1 first offer; renewals change nothing.
        assert_eq!(*changes.borrow(), 2);
        // Stop renewing: the last TTL lapses at 40 + 10 ms.
        sim.run_until(Instant::from_secs(1));
        assert!(sd.find(&sim, 7, 1).is_none());
        assert_eq!(*changes.borrow(), 3);
    }

    #[test]
    fn find_async_fires_on_later_offer() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        let hit = Rc::new(RefCell::new(None));
        let sink = hit.clone();
        sd.find_async(&mut sim, 9, ANY_INSTANCE, move |sim, offer| {
            *sink.borrow_mut() = Some((sim.now(), offer.node));
        });
        assert!(hit.borrow().is_none());
        let sd2 = sd.clone();
        sim.schedule_at(Instant::from_millis(5), move |sim| {
            sd2.offer(
                sim,
                ServiceInstance::new(9, 0),
                NodeId(1),
                Duration::from_secs(1),
            );
        });
        sim.run_to_completion();
        assert_eq!(*hit.borrow(), Some((Instant::from_millis(5), NodeId(1))));
    }

    #[test]
    fn find_async_fires_immediately_when_offered() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        sd.offer(
            &mut sim,
            ServiceInstance::new(9, 0),
            NodeId(1),
            Duration::from_secs(1),
        );
        let hit = Rc::new(RefCell::new(false));
        let sink = hit.clone();
        sd.find_async(&mut sim, 9, 0, move |_, _| *sink.borrow_mut() = true);
        assert!(*hit.borrow());
    }

    #[test]
    fn deterministic_choice_among_multiple_offers() {
        let mut sim = Simulation::new(0);
        let sd = SdRegistry::new();
        sd.offer(
            &mut sim,
            ServiceInstance::new(7, 2),
            NodeId(5),
            Duration::from_secs(1),
        );
        sd.offer(
            &mut sim,
            ServiceInstance::new(7, 1),
            NodeId(4),
            Duration::from_secs(1),
        );
        // Lowest instance id wins regardless of offer order.
        assert_eq!(sd.find(&sim, 7, ANY_INSTANCE).unwrap().node, NodeId(4));
    }

    #[test]
    fn subscriptions_are_idempotent_and_sorted() {
        let sd = SdRegistry::new();
        let inst = ServiceInstance::new(7, 1);
        sd.subscribe(inst, 1, NodeId(5));
        sd.subscribe(inst, 1, NodeId(2));
        sd.subscribe(inst, 1, NodeId(5));
        assert_eq!(sd.subscribers(inst, 1), vec![NodeId(2), NodeId(5)]);
        sd.unsubscribe(inst, 1, NodeId(2));
        assert_eq!(sd.subscribers(inst, 1), vec![NodeId(5)]);
        assert!(sd.subscribers(inst, 2).is_empty());
    }
}
