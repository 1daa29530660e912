//! Zone coordinators: the lower tier of the hierarchical RTI.
//!
//! A zone owns the NET/LTC/fence state of its local federates and runs
//! the *same* [`LbtsSolver`](crate::LbtsSolver) the flat RTI runs — over
//! its members plus one **proxy** node per upstream zone. A proxy stands
//! in for everything beyond the zone boundary: its `head` is the floor
//! most recently relayed by the root for that upstream zone, so from the
//! solver's point of view a remote zone is just one more (never-granted)
//! federate.
//!
//! Coordination traffic is batched on every hop that can carry more than
//! one record (see `dear_someip::CoordBatch`):
//!
//! * member grants fan out as **one** frame per recompute on the zone's
//!   shared member eventgroup (refcounted zero-copy fan-out; members
//!   filter by federate id);
//! * the zone's state rolls **up** to the root as one `Floor` record —
//!   the per-zone floor, `min` over member floors — and only when it
//!   changed;
//! * the root's relayed upstream-zone floors fan **down** as one frame
//!   per zone.
//!
//! Liveness is scoped per shard: the zone watches its own members (a
//! silent member is declared dead and the zone floor rises past it), and
//! the root watches whole zones via the uplink heartbeat.

use crate::rti::{Applied, FederateEntry, FederationError, GrantTable, RtiStats, MAX_FEDERATES};
use crate::solver::{node_floor, TAG_MAX};
use dear_core::Tag;
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    visit_control_records, Binding, CoordBatch, CoordKind, CoordMsg, SdRegistry, ServiceInstance,
    COORD_EVENT, COORD_METHOD, COORD_SERVICE,
};
use dear_time::Duration;
use dear_transactors::tag_to_wire;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Identifies one zone within a hierarchical federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u16);

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone{}", self.0)
    }
}

/// The SOME/IP instance on which the **root** coordinator offers the
/// coordination service (zones roll floors up to it).
pub const COORD_ROOT_INSTANCE: u16 = 0x00FE;

/// First SOME/IP instance used by zone coordinators: zone `z` offers the
/// coordination service at `ZONE_INSTANCE_BASE + z`.
pub const ZONE_INSTANCE_BASE: u16 = 0x0100;

/// Eventgroup (on the zone's instance) carrying batched member grants.
/// Shared by all members of the zone: the batch fans out once and every
/// member filters it by federate id.
pub const ZONE_MEMBER_EVENTGROUP: u16 = 0x3F00;

/// First eventgroup (on the root's instance) carrying relayed floors:
/// zone `z` subscribes to `ZONE_UPLINK_EVENTGROUP_BASE + z`.
pub const ZONE_UPLINK_EVENTGROUP_BASE: u16 = 0x2000;

/// The most zones one hierarchy can hold (bounded by the instance and
/// eventgroup ranges carved out above).
pub const MAX_ZONES: usize = 0x1000;

/// The SOME/IP instance on which zone `zone` offers the coordination
/// service to its members.
#[must_use]
pub fn zone_instance(zone: ZoneId) -> u16 {
    ZONE_INSTANCE_BASE + zone.0
}

/// The eventgroup (on [`COORD_ROOT_INSTANCE`]) over which the root
/// relays upstream-zone floors to `zone`.
#[must_use]
pub fn zone_uplink_eventgroup(zone: ZoneId) -> u16 {
    ZONE_UPLINK_EVENTGROUP_BASE + zone.0
}

struct ZoneInner {
    zone: ZoneId,
    binding: Binding,
    /// Members first (graph index = registration order), proxies after.
    /// Proxies are plain entries that never connect, so the shared grant
    /// passes skip them by construction.
    table: GrantTable,
    member_count: usize,
    /// Graph index → global federate id, for members.
    member_ids: Vec<u16>,
    /// Global federate id → graph index.
    by_global: BTreeMap<u16, usize>,
    /// Upstream zone id → graph index of its proxy entry.
    proxy_index: BTreeMap<u16, usize>,
    /// Members heard from in the frame being handled (scratch).
    alive: Vec<u16>,
    liveness_deadline: Option<Duration>,
    /// Last floor rolled up to the root (roll-ups are change-driven,
    /// plus the unconditional uplink heartbeat).
    last_rollup: Option<Tag>,
    /// Another zone imports from this one. The zone floor is the `min`
    /// over **all** member floors, so once it is consumed elsewhere no
    /// member may be DNET-classified as a sink — a silent member would
    /// hold the floor down and wedge the importing zone.
    exported: bool,
}

/// One zone coordinator (internal: constructed through
/// [`HierarchicalRti::add_zone`](crate::HierarchicalRti::add_zone)).
#[derive(Clone)]
pub(crate) struct ZoneCoordinator(Rc<RefCell<ZoneInner>>);

impl ZoneCoordinator {
    pub(crate) fn new(
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
        zone: ZoneId,
    ) -> Self {
        sim.observe()
            .set_lane_name(dear_observe::Lane::Zone(zone.0), &zone.to_string());
        let binding = Binding::new(net, sd, node, 0x0060_u16.wrapping_add(zone.0));
        let instance = zone_instance(zone);
        binding.offer(
            sim,
            ServiceInstance::new(COORD_SERVICE, instance),
            Duration::from_secs(1 << 30),
        );
        // Relayed floors from the root arrive on the zone's uplink
        // eventgroup.
        binding.subscribe(
            ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
            zone_uplink_eventgroup(zone),
        );
        let coordinator = ZoneCoordinator(Rc::new(RefCell::new(ZoneInner {
            zone,
            binding: binding.clone(),
            table: GrantTable::new(),
            member_count: 0,
            member_ids: Vec::new(),
            by_global: BTreeMap::new(),
            proxy_index: BTreeMap::new(),
            alive: Vec::new(),
            liveness_deadline: None,
            last_rollup: None,
            exported: false,
        })));
        let hook = coordinator.clone();
        binding.register_method(COORD_SERVICE, COORD_METHOD, move |sim, req, _responder| {
            hook.on_member_frame(sim, &req.payload);
        });
        let hook = coordinator.clone();
        binding.on_event(COORD_SERVICE, COORD_EVENT, move |sim, msg| {
            hook.on_root_frame(sim, &msg.payload);
        });
        coordinator
    }

    /// Registers a member (called by the hierarchy with the global
    /// federate id it allocated). Returns the member's graph index.
    pub(crate) fn register_member(
        &self,
        global: u16,
        name: &str,
        node: NodeId,
        external: bool,
    ) -> Result<usize, FederationError> {
        let mut inner = self.0.borrow_mut();
        if inner.member_count >= MAX_FEDERATES {
            return Err(FederationError::Full {
                limit: MAX_FEDERATES,
            });
        }
        // Members precede proxies in the graph index space; inserting a
        // member after proxies exist shifts every proxy index up by one.
        let index = inner.member_count;
        if index < inner.table.entries.len() {
            for entry in &mut inner.table.entries {
                for edge in &mut entry.upstream {
                    if usize::from(edge.0) >= index {
                        edge.0 += 1;
                    }
                }
            }
            for proxy in inner.proxy_index.values_mut() {
                *proxy += 1;
            }
        }
        let mut entry = FederateEntry::new(name, node, external);
        // An exported zone's floor is consumed elsewhere: every member's
        // reports move it, so none may be suppressed as a sink.
        entry.remote_downstream = inner.exported;
        inner.table.entries.insert(index, entry);
        inner.table.solver.invalidate();
        inner.member_count += 1;
        inner.member_ids.insert(index, global);
        inner.by_global.insert(global, index);
        inner.table.stats.federates += 1;
        Ok(index)
    }

    /// Declares an intra-zone edge between member graph indices.
    pub(crate) fn connect_local(&self, upstream: usize, downstream: usize, min_delay: Duration) {
        self.0
            .borrow_mut()
            .table
            .connect(upstream, downstream, min_delay);
    }

    /// Marks this zone as exported (another zone imports from it): every
    /// current and future member's reports feed the rolled-up zone floor
    /// consumed elsewhere, so DNET sink detection is disabled for all of
    /// them — a cross-zone producer, or any member dragging the shared
    /// floor, must keep reporting.
    pub(crate) fn mark_exported(&self) {
        let mut inner = self.0.borrow_mut();
        inner.exported = true;
        let members = inner.member_count;
        for entry in inner.table.entries.iter_mut().take(members) {
            entry.remote_downstream = true;
        }
        // Sink classification changed: every member's DNET state is due.
        inner.table.solver.invalidate();
    }

    /// Propagates the hierarchy-wide control-plane diet switch.
    pub(crate) fn set_control_diet(&self, diet: bool) {
        self.0.borrow_mut().table.set_control_diet(diet);
    }

    /// Declares an edge from a remote zone into local member `downstream`,
    /// materializing the proxy entry for that zone on first use.
    pub(crate) fn connect_from_zone(
        &self,
        upstream_zone: ZoneId,
        downstream: usize,
        min_delay: Duration,
    ) {
        let mut inner = self.0.borrow_mut();
        let proxy = match inner.proxy_index.get(&upstream_zone.0) {
            Some(&p) => p,
            None => {
                // A proxy's head is the floor the root most recently
                // relayed for that zone; origin until the first relay
                // ("unknown, assume anything"), exactly like a federate
                // that has not reported yet.
                let node = inner.binding.node();
                let p = inner
                    .table
                    .register(&format!("proxy:{upstream_zone}"), node, false);
                inner.proxy_index.insert(upstream_zone.0, p);
                p
            }
        };
        inner.table.connect(proxy, downstream, min_delay);
    }

    pub(crate) fn member_name(&self, index: usize) -> String {
        self.0.borrow().table.entries[index].name.clone()
    }

    pub(crate) fn stats(&self) -> RtiStats {
        self.0.borrow().table.stats
    }

    /// Enables the per-member liveness watchdog (see
    /// [`Rti::enable_liveness`](crate::Rti::enable_liveness) — identical
    /// semantics, scoped to this shard).
    pub(crate) fn enable_member_liveness(&self, deadline: Duration) {
        assert!(deadline > Duration::ZERO, "deadline must be positive");
        self.0.borrow_mut().liveness_deadline = Some(deadline);
    }

    /// Starts the unconditional uplink heartbeat: every `interval` the
    /// zone re-sends its current floor to the root, change or not. This
    /// is what the root's zone watchdog listens for.
    pub(crate) fn enable_uplink_heartbeat(&self, sim: &mut Simulation, interval: Duration) {
        assert!(interval > Duration::ZERO, "interval must be positive");
        let zone = self.clone();
        sim.schedule_in(interval, move |sim| zone.heartbeat_tick(sim, interval));
    }

    fn heartbeat_tick(&self, sim: &mut Simulation, interval: Duration) {
        let floor = self.0.borrow().last_rollup;
        if let Some(floor) = floor {
            self.send_rollup(sim, floor, false);
        }
        let zone = self.clone();
        sim.schedule_in(interval, move |sim| zone.heartbeat_tick(sim, interval));
    }

    /// Handles one control frame from a member: a single record or a
    /// batch (LTC + NET packed by the platform). The zone recomputes
    /// once per *frame*, which is exactly the batching win — N records
    /// no longer trigger N fixpoints and N grant fan-outs.
    fn on_member_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        {
            let mut inner = self.0.borrow_mut();
            let ZoneInner {
                table,
                by_global,
                alive,
                ..
            } = &mut *inner;
            let apply = |msg: &CoordMsg| {
                let Some(&index) = by_global.get(&msg.federate) else {
                    return;
                };
                if table.control(index, msg) != Applied::Ignored && !alive.contains(&(index as u16))
                {
                    alive.push(index as u16);
                }
            };
            if visit_control_records(payload, apply).is_err() {
                return;
            }
            if inner.alive.is_empty() {
                return;
            }
            for &index in &inner.alive {
                self.arm_liveness(sim, &inner, usize::from(index));
            }
            inner.alive.clear();
        }
        self.recompute(sim);
    }

    /// Handles a relayed-floor frame from the root: each `Floor` record
    /// names an upstream zone and raises its proxy's head, and each
    /// `Rejoin` record carries the one legitimate *retreat* — an upstream
    /// zone's floor fell back because a crashed member replayed its
    /// durable log and rejoined below the bound its death had released.
    fn on_root_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        let changed = {
            let mut inner = self.0.borrow_mut();
            let mut changed = false;
            let apply = |inner: &mut ZoneInner, msg: &CoordMsg| {
                let retreat = msg.kind == CoordKind::Rejoin;
                if msg.kind != CoordKind::Floor && !retreat {
                    return false;
                }
                let Some(&proxy) = inner.proxy_index.get(&msg.federate) else {
                    return false;
                };
                let relayed = dear_transactors::wire_to_tag(msg.tag);
                let head = inner.table.entries[proxy].head;
                if relayed > head || (retreat && relayed < head) {
                    inner.table.entries[proxy].head = relayed;
                    inner.table.mark_dirty(proxy);
                    inner.table.stats.floor_records += 1;
                    true
                } else {
                    false
                }
            };
            // A malformed frame applies nothing, so `changed` stays false.
            let _ = visit_control_records(payload, |msg| changed |= apply(&mut inner, msg));
            changed
        };
        if changed {
            self.recompute(sim);
        }
    }

    /// Arms (or supersedes) the liveness check of member `index` (see
    /// `Rti::arm_liveness`).
    fn arm_liveness(&self, sim: &mut Simulation, inner: &ZoneInner, index: usize) {
        let Some(deadline) = inner.liveness_deadline else {
            return;
        };
        let entry = &inner.table.entries[index];
        if !entry.connected || entry.released() {
            return;
        }
        let (zone, generation) = (self.clone(), entry.liveness_gen);
        sim.schedule_in(deadline, move |sim| {
            zone.on_liveness_check(sim, index, generation);
        });
    }

    fn on_liveness_check(&self, sim: &mut Simulation, index: usize, generation: u64) {
        let traced = {
            let mut inner = self.0.borrow_mut();
            let Some(entry) = inner.table.entries.get_mut(index) else {
                return;
            };
            if entry.liveness_gen != generation || entry.released() {
                return; // superseded, or no longer eligible
            }
            entry.dead = true;
            let name = entry.name.clone();
            inner.table.mark_dirty(index);
            inner.table.stats.deaths += 1;
            (inner.zone, inner.member_ids[index], name)
        };
        let (zone, global, name) = traced;
        sim.trace_with("rti", || {
            format!("{zone}: federate fed{global} ({name}) declared dead; releasing its LBTS bound")
        });
        self.recompute(sim);
    }

    /// Brings the zone-local LBTS up to date with the dirty entries, fans
    /// grants out as one batched frame, and rolls the zone floor up to the
    /// root when it changed.
    fn recompute(&self, sim: &mut Simulation) {
        let (grants, rollup, binding, zone) = {
            let mut inner = self.0.borrow_mut();
            let ZoneInner {
                zone,
                binding,
                table,
                member_count,
                member_ids,
                last_rollup,
                ..
            } = &mut *inner;
            let grantable = *member_count;
            let mut grants = table.round(grantable);
            // The zone floor: what this zone as a whole promises the rest
            // of the federation. `min` over member floors; proxies are
            // the other zones' business. No floor moves in a round that
            // affected nothing.
            let mut rollup = None;
            if grantable > 0 && !table.solver.affected().is_empty() {
                let lbts = table.solver.lbts();
                let mut floor = TAG_MAX;
                for (entry, &lbts) in table.entries.iter().zip(lbts).take(grantable) {
                    floor = floor.min(node_floor(&entry.view(), lbts));
                }
                // Roll-ups are change-driven in *both* directions: a floor
                // that fell back below the last roll-up means a dead member
                // rejoined, and must travel as a `Rejoin`-kind record so the
                // root applies the retreat its monotone `Floor` path rejects.
                if *last_rollup != Some(floor) {
                    let retreat = last_rollup.is_some_and(|prev| floor < prev);
                    *last_rollup = Some(floor);
                    rollup = Some((floor, retreat));
                }
            }
            // Grants leave the zone addressed by global federate id. Sent
            // with the table unborrowed; the buffer goes back below.
            for grant in &mut grants {
                grant.0 = member_ids[usize::from(grant.0)];
            }
            (grants, rollup, binding.clone(), *zone)
        };
        let observe = sim.observe();
        if observe.is_enabled() {
            let now = sim.now();
            observe.count("coord/fixpoint/zone", 1);
            observe.record_value("coord/grants_per_round", grants.len() as u64);
            observe.instant(dear_observe::Lane::Zone(zone.0), "fixpoint", now);
            // The zone-level coordination lag: how far the floor this
            // round promised to the rest of the federation trails the
            // true time at which it was computed.
            if let Some((floor, _)) = rollup {
                if floor < TAG_MAX {
                    observe.record_duration("coord/zone_floor_lag_ns", now - floor.time);
                }
            }
        }

        if !grants.is_empty() {
            let mut batch = CoordBatch::pooled(&binding.pool());
            for &(global, kind, tag, fence) in &grants {
                batch.push(&CoordMsg {
                    kind,
                    federate: global,
                    tag: tag_to_wire(tag),
                    fence,
                });
            }
            sim.observe()
                .record_value("coord/batch_size", batch.len() as u64);
            binding.notify(
                sim,
                ServiceInstance::new(COORD_SERVICE, zone_instance(zone)),
                ZONE_MEMBER_EVENTGROUP,
                COORD_EVENT,
                batch.freeze(),
            );
        }
        {
            let mut inner = self.0.borrow_mut();
            inner.table.stats.batches_sent += u64::from(!grants.is_empty());
            inner.table.recycle(grants);
        }
        if let Some((floor, retreat)) = rollup {
            self.send_rollup(sim, floor, retreat);
        }
    }

    /// Sends the zone floor to the root as a one-record batch frame. A
    /// `retreat` roll-up (floor below the previous one — a member
    /// rejoined) travels as a `Rejoin`-kind record, the only record the
    /// root applies non-monotonically.
    fn send_rollup(&self, sim: &mut Simulation, floor: Tag, retreat: bool) {
        let (binding, zone) = {
            let inner = self.0.borrow();
            (inner.binding.clone(), inner.zone)
        };
        let kind = if retreat {
            CoordKind::Rejoin
        } else {
            CoordKind::Floor
        };
        let mut batch = CoordBatch::pooled(&binding.pool());
        batch.push(&CoordMsg::new(kind, zone.0, tag_to_wire(floor)));
        if binding
            .call_no_return(
                sim,
                COORD_SERVICE,
                COORD_ROOT_INSTANCE,
                COORD_METHOD,
                batch.freeze(),
            )
            .is_ok()
        {
            let mut inner = self.0.borrow_mut();
            inner.table.stats.floor_records += 1;
            inner.table.stats.batches_sent += 1;
        }
    }
}
