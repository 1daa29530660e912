//! The hierarchical RTI: a root coordinator over zone coordinators.
//!
//! Fleet-scale topology (ROADMAP north star): instead of one flat RTI
//! tracking every federate, federates register with **zone coordinators**
//! (one per vehicle, rack, or platoon segment), and the zones roll
//! per-zone floors up to a **root** that runs the very same
//! [`LbtsSolver`](crate::LbtsSolver) over zone summaries:
//!
//! ```text
//!                         ┌──────┐
//!            floor Z0..Zn │ root │ relayed upstream floors
//!               ┌────────►│      ├─────────┐
//!               │         └──▲───┘         ▼
//!          ┌────┴───┐        │         ┌────────┐
//!          │ zone 0 │   ┌────┴───┐     │ zone n │
//!          └─▲────┬─┘   │ zone 1 │     └─▲────┬─┘
//!   NET/LTC  │    │TAG  └────────┘       │    │
//!        ┌───┴────▼──┐ ...           ┌───┴────▼──┐
//!        │ federates │               │ federates │
//!        └───────────┘               └───────────┘
//! ```
//!
//! Both tiers are the same machinery. A zone is the one coordinator shell
//! (`zone.rs`) built with an uplink — the flat [`Rti`](crate::Rti) is the
//! same shell without one. The root keeps no federates, so it needs no
//! shell, only the table every level runs (`GrantTable`) with **no
//! grantable entry**: one never-granted summary entry per zone (head =
//! the zone's reported floor — exactly what a zone's proxy of an upstream
//! zone is) over the zone-level edge skeleton (the `min` delay over all
//! federate edges crossing each zone pair). Roll-ups into the root and
//! relays into a zone's proxies go through one apply function, and one
//! watchdog watches members and zones.
//!
//! The root's fixpoint yields, per zone, the least bound on tags that can
//! still arrive from each upstream zone; those **relayed floors** fan
//! back down as batched `Floor` records and feed the zones' proxy
//! entries. Every hop is change-driven and monotone (floors only rise;
//! the one retreat, a rejoined member, travels as a `Rejoin` record), so
//! the two levels converge without any global barrier — convergence lag
//! is what `dear-benchmark`'s `federation.grant_wait_us_per_tag` shows on
//! `fleet_zones_diet` against the flat fleets.
//!
//! Zero-delay cycles must stay zone-local: the root issues no
//! provisional grants, so a zero-delay cycle crossing zones would stall
//! (assign such federates to one zone, exactly like Lingua Franca keeps
//! them in one enclave).
//!
//! Liveness is scoped per shard: zones watch their members; the root
//! watches zones via the uplink heartbeat — from the moment liveness is
//! enabled, not from a zone's first roll-up — and releases a silent
//! zone's floor so sibling zones keep advancing.

use crate::rti::{
    arm_watchdog, receive_frame, Applied, FederateId, FederationError, GrantTable, RtiStats, Shell,
    MAX_FEDERATES,
};
use crate::solver::{node_floor, TAG_MAX};
use crate::zone::{
    floor_record, zone_uplink_eventgroup, Coordinator, ZoneId, COORD_ROOT_INSTANCE, MAX_ZONES,
};
use dear_core::Tag;
use dear_observe::{CounterId, HistogramId, Lane, Observe};
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    Binding, CoordBatch, CoordKind, SdRegistry, ServiceInstance, COORD_EVENT, COORD_METHOD,
    COORD_SERVICE,
};
use dear_time::Duration;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One downward relay record: `(downstream zone, upstream zone, clamped
/// floor, retreat?)` — a retreat fans down as a `Rejoin`-kind record.
type RelayRecord = (u16, u16, Tag, bool);

struct RootInner {
    binding: Binding,
    zones: Vec<Coordinator>,
    /// One never-granted summary entry per zone, table index = zone id:
    /// `head` is the floor the zone most recently rolled up (monotone
    /// max; origin until the first roll-up = "unknown, assume anything"),
    /// `upstream` the zone-level edge skeleton. The table also carries
    /// the root's counters, its watchdog deadline and the control-plane
    /// diet switch, propagated to every zone (current and future) so the
    /// whole hierarchy diets — or none of it does.
    table: GrantTable,
    /// Last floor relayed down to each zone, per `upstream` edge of its
    /// entry (relays are change-driven).
    last_relay: Vec<Vec<Option<Tag>>>,
    /// Global federate id → (zone, member table index).
    fed_map: Vec<(u16, usize)>,
    /// Zones downstream of anything the latest recompute affected
    /// (scratch).
    downstream: Vec<u16>,
    /// The recompute's output buffer, reused across rounds: ascending by
    /// downstream zone, edge order within one.
    relays: Vec<RelayRecord>,
    /// Metric slots, resolved on the first round telemetry is on.
    metrics: Option<RootMetrics>,
}

/// The root's metric slots.
#[derive(Clone, Copy)]
struct RootMetrics {
    fixpoint: CounterId,
    batch_size: HistogramId,
    relay_lag: HistogramId,
}

impl RootMetrics {
    fn resolve(observe: &Observe) -> Self {
        RootMetrics {
            fixpoint: observe.register_counter("coord/fixpoint/root"),
            batch_size: observe.register_histogram("coord/batch_size"),
            relay_lag: observe.register_histogram("coord/root_relay_lag_ns"),
        }
    }
}

/// A shared handle to the two-level coordinator (root + zones).
///
/// Cheap to clone; clones share the coordinator. See the module docs for
/// the topology; the federate-facing API mirrors [`Rti`](crate::Rti) —
/// register, connect, enable liveness — with a [`ZoneId`] picking the
/// shard a federate lives in. [`CoordinatedPlatform::new_in_zone`]
/// builds platforms against it.
///
/// [`CoordinatedPlatform::new_in_zone`]:
///     crate::CoordinatedPlatform::new_in_zone
#[derive(Clone)]
pub struct HierarchicalRti(Rc<RefCell<RootInner>>);

impl fmt::Debug for HierarchicalRti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("HierarchicalRti")
            .field("node", &inner.binding.node())
            .field("zones", &inner.zones.len())
            .field("federates", &inner.fed_map.len())
            .field("stats", &inner.table.stats)
            .finish()
    }
}

impl HierarchicalRti {
    /// Creates the root coordinator on `node` and offers the coordination
    /// service at [`COORD_ROOT_INSTANCE`]. Zones are added with
    /// [`HierarchicalRti::add_zone`].
    ///
    /// Like the flat RTI, every coordination link must deliver in order
    /// (the default for all link configs).
    #[must_use]
    pub fn new(sim: &mut Simulation, net: &NetworkHandle, sd: &SdRegistry, node: NodeId) -> Self {
        sim.observe().set_lane_name(Lane::Root, "root");
        let binding = Binding::new(net, sd, node, 0x0053);
        binding.offer(
            sim,
            ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
            Duration::from_secs(1 << 30),
        );
        let root = HierarchicalRti(Rc::new(RefCell::new(RootInner {
            binding: binding.clone(),
            zones: Vec::new(),
            table: GrantTable::new(),
            last_relay: Vec::new(),
            fed_map: Vec::new(),
            downstream: Vec::new(),
            relays: Vec::new(),
            metrics: None,
        })));
        let hook = root.clone();
        binding.register_method(COORD_SERVICE, COORD_METHOD, move |sim, req, _responder| {
            hook.on_rollup_frame(sim, &req.payload);
        });
        root
    }

    /// Adds a zone coordinator hosted on `node` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy already holds its maximum of `0x1000`
    /// zones.
    pub fn add_zone(
        &self,
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
    ) -> ZoneId {
        let (zone, liveness) = {
            let mut inner = self.0.borrow_mut();
            assert!(inner.zones.len() < MAX_ZONES, "zone capacity exhausted");
            let zone = ZoneId(inner.zones.len() as u16);
            sim.observe()
                .set_lane_name(Lane::Zone(zone.0), &zone.to_string());
            let coordinator = Coordinator::new(sim, net, sd, node, Some(zone));
            coordinator.with_table(|table| table.set_control_diet(inner.table.diet));
            inner.zones.push(coordinator);
            // Zone summaries never join; they are watched from the start.
            let index = inner.table.register("", false);
            inner.table.entries[index].connected = true;
            inner.last_relay.push(Vec::new());
            (zone, inner.table.liveness)
        };
        if let Some(deadline) = liveness {
            self.watch_zone(sim, zone, deadline);
        }
        zone
    }

    /// Registers a federate with zone `zone`. The
    /// returned id is global to the federation (grants are addressed by
    /// it), while all of the federate's control traffic stays within its
    /// zone.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownZone`] for a zone never added;
    /// [`FederationError::Full`] once the federate id space is exhausted.
    pub fn register(
        &self,
        zone: ZoneId,
        name: &str,
        external: bool,
    ) -> Result<FederateId, FederationError> {
        let mut inner = self.0.borrow_mut();
        let Some(coordinator) = inner.zones.get(usize::from(zone.0)) else {
            return Err(FederationError::UnknownZone(zone));
        };
        if inner.fed_map.len() >= MAX_FEDERATES {
            return Err(FederationError::Full {
                limit: MAX_FEDERATES,
            });
        }
        let global = inner.fed_map.len() as u16;
        let index = coordinator.register_member(Some(global), name, external)?;
        inner.fed_map.push((zone.0, index));
        inner.table.stats.federates += 1;
        Ok(FederateId(global))
    }

    /// Declares a coordination edge (see [`Rti::connect`](crate::Rti::connect)).
    /// Intra-zone edges stay inside the member's zone; a cross-zone edge
    /// materializes a proxy in the downstream zone and widens the
    /// zone-level skeleton the root solves over (keeping the `min` delay
    /// per zone pair).
    pub fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        assert!(!min_delay.is_negative(), "edge delays must be non-negative");
        let mut inner = self.0.borrow_mut();
        let (up_zone, up_index) = inner.fed_map[usize::from(upstream.0)];
        let (down_zone, down_index) = inner.fed_map[usize::from(downstream.0)];
        let down_coord = &inner.zones[usize::from(down_zone)];
        if up_zone == down_zone {
            down_coord.with_table(|table| table.connect(up_index, down_index, min_delay));
            return;
        }
        down_coord.connect_from_zone(ZoneId(up_zone), down_index, min_delay);
        // The upstream zone's floor is now consumed elsewhere: none of
        // its members may be DNET-classified as a sink (a silent member
        // would hold the shared floor down and wedge this zone).
        inner.zones[usize::from(up_zone)].mark_exported();
        let (up, down) = (usize::from(up_zone), usize::from(down_zone));
        let skeleton = &mut inner.table.entries[down].upstream;
        match skeleton.iter_mut().find(|(z, _)| *z == up_zone) {
            Some((_, d)) => *d = (*d).min(min_delay),
            None => {
                inner.table.connect(up, down, min_delay);
                inner.last_relay[down].push(None);
            }
        }
        inner.table.solver.invalidate();
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.0.borrow().zones.len()
    }

    /// Number of registered federates across all zones.
    #[must_use]
    pub fn federate_count(&self) -> usize {
        self.0.borrow().fed_map.len()
    }

    /// Root-level counters (floor records exchanged, zone deaths,
    /// relay batches).
    #[must_use]
    pub fn root_stats(&self) -> RtiStats {
        self.0.borrow().table.stats
    }

    /// One zone's counters (member NET/LTC traffic, grants, deaths).
    #[must_use]
    pub fn zone_stats(&self, zone: ZoneId) -> RtiStats {
        self.0.borrow().zones[usize::from(zone.0)].with_table(|table| table.stats)
    }

    /// Federation-wide counters: the field-wise sum of the root's and
    /// every zone's [`RtiStats`] (except `federates`, which is the
    /// global registration count).
    #[must_use]
    pub fn stats(&self) -> RtiStats {
        let inner = self.0.borrow();
        let mut total = inner.table.stats;
        for zone in &inner.zones {
            total += zone.with_table(|table| table.stats);
        }
        total.federates = inner.fed_map.len() as u64;
        total
    }

    /// Enables the coordination control-plane diet across the hierarchy:
    /// every zone (already added or added later) issues DNET suppression
    /// pushes and grant-ahead windows, and solves with the periodic fast
    /// path. Must be called before the platforms are constructed (they
    /// query it once, at build time). Opt-in, like
    /// [`Rti::enable_control_diet`](crate::Rti::enable_control_diet).
    pub fn enable_control_diet(&self) {
        let mut inner = self.0.borrow_mut();
        inner.table.set_control_diet(true);
        for zone in &inner.zones {
            zone.with_table(|table| table.set_control_diet(true));
        }
    }

    /// Whether [`HierarchicalRti::enable_control_diet`] has been called.
    #[must_use]
    pub(crate) fn control_diet_enabled(&self) -> bool {
        self.0.borrow().table.diet
    }

    /// Enables liveness end to end, scoped per shard: every zone watches
    /// its members with `deadline` (identical semantics to
    /// [`Rti::enable_liveness`](crate::Rti::enable_liveness)), sends an
    /// unconditional floor heartbeat to the root every `deadline / 2`,
    /// and the root declares a zone dead after `deadline` of uplink
    /// silence — releasing its floor so sibling zones keep advancing,
    /// counting it in [`RtiStats::deaths`] and tracing it under `"rti"`.
    pub fn enable_liveness(&self, sim: &mut Simulation, deadline: Duration) {
        assert!(deadline > Duration::ZERO, "deadline must be positive");
        self.0.borrow_mut().table.liveness = Some(deadline);
        for zone in 0..self.zone_count() {
            self.watch_zone(sim, ZoneId(zone as u16), deadline);
        }
    }

    /// Puts one zone under liveness. The root's watchdog is armed right
    /// here, not by the zone's first roll-up: a zone cut off from the
    /// start never rolls anything up, and every zone importing from it
    /// would wait on its proxy's origin head forever.
    fn watch_zone(&self, sim: &mut Simulation, zone: ZoneId, deadline: Duration) {
        let inner = self.0.borrow();
        let coordinator = &inner.zones[usize::from(zone.0)];
        coordinator.with_table(|table| table.liveness = Some(deadline));
        let heartbeat = Duration::from_nanos((deadline.as_nanos() / 2).max(1));
        coordinator.uplink_heartbeat(sim, heartbeat);
        arm_watchdog(self, sim, &inner.table, usize::from(zone.0));
    }

    /// Handles one roll-up frame from a zone: each record names the zone
    /// and moves its summary entry's head (see
    /// [`FederateEntry::apply_floor`](crate::rti::FederateEntry::apply_floor)).
    fn on_rollup_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        {
            let mut inner = self.0.borrow_mut();
            let heard = receive_frame(self, sim, &mut inner.table, payload, |table, msg| {
                let zone = usize::from(msg.federate);
                if zone >= table.entries.len() || table.relay(zone, msg) == Applied::Ignored {
                    return None;
                }
                // A heartbeat repeats the floor: proof of life, no more.
                table.stats.floor_records += 1;
                table.stats.rejoins += u64::from(msg.kind == CoordKind::Rejoin);
                Some(zone)
            });
            if !heard {
                return;
            }
        }
        self.recompute(sim);
    }

    /// Brings the zone-level fixpoint up to date with the dirty zones and
    /// relays changed upstream floors down, one batched frame per
    /// downstream zone. A relay that fell below the last one (an upstream
    /// member rejoined) fans down as a retreat, so the zone retreats its
    /// proxy head.
    fn recompute(&self, sim: &mut Simulation) {
        let observe = sim.observe();
        let (relays, binding, metrics) = {
            let mut inner = self.0.borrow_mut();
            let RootInner {
                binding,
                table,
                last_relay,
                downstream,
                relays,
                metrics,
                ..
            } = &mut *inner;
            // No entry is grantable: the round only settles the fixpoint.
            let none = table.round(0);
            table.recycle(none);
            let GrantTable {
                entries,
                solver,
                stats,
                ..
            } = table;
            // What zone `z` is told about its upstream `up` is `up`'s floor
            // under the root's fixpoint, so a relay can only be due where
            // some upstream was affected.
            downstream.clear();
            for &up in solver.affected() {
                downstream.extend_from_slice(solver.downstream(usize::from(up)));
            }
            downstream.sort_unstable();
            downstream.dedup();
            let lbts = solver.lbts();
            relays.clear();
            for &z in downstream.iter() {
                let before = relays.len();
                let edges = entries[usize::from(z)].upstream.iter();
                for (&(up, _), last) in edges.zip(&mut last_relay[usize::from(z)]) {
                    // What the downstream zone may assume about `up`:
                    // its floor under the *root's* (global) fixpoint —
                    // the same clamp the flat RTI applies through
                    // node_floor, so a zone's optimistic self-report
                    // never leaks past its own upstream constraints.
                    let relayed =
                        node_floor(&entries[usize::from(up)].view(), lbts[usize::from(up)]);
                    let prev = last.replace(relayed);
                    if prev != Some(relayed) {
                        relays.push((z, up, relayed, prev.is_some_and(|p| relayed < p)));
                    }
                }
                if relays.len() > before {
                    stats.floor_records += (relays.len() - before) as u64;
                    stats.batches_sent += 1;
                }
            }
            let metrics = observe
                .is_enabled()
                .then(|| *metrics.get_or_insert_with(|| RootMetrics::resolve(observe)));
            // Sent with the table unborrowed; the buffer goes back below.
            (std::mem::take(relays), binding.clone(), metrics)
        };
        if let Some(metrics) = metrics {
            let now = sim.now();
            observe.add(metrics.fixpoint, 1);
            observe.instant(Lane::Root, "fixpoint", now);
            // Root-level coordination lag: how far each relayed upstream
            // floor trails true time when it fans back down.
            for batch in relays.chunk_by(|a, b| a.0 == b.0) {
                observe.sample(metrics.batch_size, batch.len() as u64);
                for (_, _, floor, _) in batch {
                    if *floor < TAG_MAX {
                        observe.sample_duration(metrics.relay_lag, now - floor.time);
                    }
                }
            }
        }

        for records in relays.chunk_by(|a, b| a.0 == b.0) {
            let mut batch = CoordBatch::pooled(&binding.pool());
            for &(_, up, floor, retreat) in records {
                batch.push(&floor_record(up, floor, retreat));
            }
            binding.notify(
                sim,
                ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
                zone_uplink_eventgroup(ZoneId(records[0].0)),
                COORD_EVENT,
                batch.freeze(),
            );
        }
        self.0.borrow_mut().relays = relays;
    }
}

impl Shell for HierarchicalRti {
    fn with_table<R>(&self, f: impl FnOnce(&mut GrantTable) -> R) -> R {
        f(&mut self.0.borrow_mut().table)
    }

    fn declared_dead(&self, sim: &mut Simulation, index: usize) {
        let zone = ZoneId(index as u16);
        sim.trace_with("rti", || {
            format!("{zone} declared dead (uplink silence); releasing its floor for sibling zones")
        });
        self.recompute(sim);
    }
}
