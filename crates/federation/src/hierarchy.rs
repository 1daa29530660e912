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
//! The root sees one node per zone (head = the zone's reported floor)
//! and the zone-level edge skeleton (the `min` delay over all federate
//! edges crossing each zone pair). Its fixpoint yields, per zone, the
//! least bound on tags that can still arrive from each upstream zone;
//! those **relayed floors** fan back down as batched `Floor` records and
//! feed the zones' proxy entries. Every hop is change-driven and
//! monotone (floors only rise), so the two levels converge without any
//! global barrier — convergence lag is what the `fleet_scale` bench
//! measures against the flat RTI.
//!
//! Zero-delay cycles must stay zone-local: the root issues no
//! provisional grants, so a zero-delay cycle crossing zones would stall
//! (assign such federates to one zone, exactly like Lingua Franca keeps
//! them in one enclave).
//!
//! Liveness is scoped per shard: zones watch their members; the root
//! watches zones via the uplink heartbeat and releases a silent zone's
//! floor so sibling zones keep advancing.

use crate::rti::{FederateId, FederationError, RtiStats, MAX_FEDERATES};
use crate::solver::{node_floor, LbtsGraph, LbtsSolver, NodeView, TAG_MAX};
use crate::zone::{
    zone_uplink_eventgroup, ZoneCoordinator, ZoneId, COORD_ROOT_INSTANCE, MAX_ZONES,
};
use dear_core::Tag;
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    visit_control_records, Binding, CoordBatch, CoordKind, CoordMsg, SdRegistry, ServiceInstance,
    COORD_EVENT, COORD_METHOD, COORD_SERVICE,
};
use dear_time::Duration;
use dear_transactors::{tag_to_wire, wire_to_tag};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One downward relay record: `(downstream zone, upstream zone, clamped
/// floor, retreat?)` — a retreat fans down as a `Rejoin`-kind record.
type RelayRecord = (u16, u16, Tag, bool);

struct ZoneEntry {
    /// Floor most recently rolled up by the zone (monotone max; origin
    /// until the first roll-up = "unknown, assume anything").
    floor: Tag,
    /// Declared dead by the root's zone watchdog.
    dead: bool,
    /// Generation guard for the zone watchdog, bumped per roll-up.
    liveness_gen: u64,
    /// Zone-level edge skeleton: (upstream zone, min delay over all
    /// federate edges crossing that zone pair).
    upstream: Vec<(u16, Duration)>,
    /// Last floor relayed down to this zone, per `upstream` edge (relays
    /// are change-driven).
    last_relay: Vec<Option<Tag>>,
}

impl ZoneEntry {
    fn view(&self) -> NodeView {
        NodeView {
            released: self.dead,
            external: false,
            completed: None,
            head: self.floor,
            fence: Tag::ORIGIN,
            // Zone floors aggregate many federates; the periodic fast
            // path applies inside zones, not to zone summaries.
            period: None,
        }
    }
}

/// The zone summaries as an [`LbtsGraph`]: graph index = zone id.
struct ZoneGraph<'a>(&'a [ZoneEntry]);

impl LbtsGraph for ZoneGraph<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.0[i].view()
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.0[i].upstream
    }
}

struct RootInner {
    binding: Binding,
    zones: Vec<ZoneCoordinator>,
    entries: Vec<ZoneEntry>,
    /// Global federate id → (zone, member graph index).
    fed_map: Vec<(u16, usize)>,
    solver: LbtsSolver,
    /// Zones whose floor or liveness moved since the last recompute.
    dirty: Vec<u16>,
    /// Zones heard from in the frame being handled (scratch).
    alive: Vec<u16>,
    /// Zones downstream of anything the latest recompute affected
    /// (scratch).
    downstream: Vec<u16>,
    /// The recompute's output buffer, reused across rounds: ascending by
    /// downstream zone, edge order within one.
    relays: Vec<RelayRecord>,
    stats: RtiStats,
    liveness_deadline: Option<Duration>,
    /// Control-plane diet switch, propagated to every zone (current and
    /// future) so the whole hierarchy diets — or none of it does.
    diet: bool,
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
            .field("stats", &inner.stats)
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
        sim.observe()
            .set_lane_name(dear_observe::Lane::Root, "root");
        let binding = Binding::new(net, sd, node, 0x0053);
        binding.offer(
            sim,
            ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
            Duration::from_secs(1 << 30),
        );
        let root = HierarchicalRti(Rc::new(RefCell::new(RootInner {
            binding: binding.clone(),
            zones: Vec::new(),
            entries: Vec::new(),
            fed_map: Vec::new(),
            solver: LbtsSolver::new(),
            dirty: Vec::new(),
            alive: Vec::new(),
            downstream: Vec::new(),
            relays: Vec::new(),
            stats: RtiStats::default(),
            liveness_deadline: None,
            diet: false,
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
    /// Panics if [`MAX_ZONES`] zones already exist.
    pub fn add_zone(
        &self,
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
    ) -> ZoneId {
        let mut inner = self.0.borrow_mut();
        assert!(inner.zones.len() < MAX_ZONES, "zone capacity exhausted");
        let zone = ZoneId(inner.zones.len() as u16);
        let coordinator = ZoneCoordinator::new(sim, net, sd, node, zone);
        coordinator.set_control_diet(inner.diet);
        inner.zones.push(coordinator);
        inner.entries.push(ZoneEntry {
            floor: Tag::ORIGIN,
            dead: false,
            liveness_gen: 0,
            upstream: Vec::new(),
            last_relay: Vec::new(),
        });
        inner.solver.invalidate();
        zone
    }

    /// Registers a federate hosted on `node` with zone `zone`. The
    /// returned id is global to the federation (grants are addressed by
    /// it), while all of the federate's control traffic stays within its
    /// zone.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownZone`] for a zone never added;
    /// [`FederationError::Full`] once [`MAX_FEDERATES`] federates are
    /// registered.
    pub fn register(
        &self,
        zone: ZoneId,
        name: &str,
        node: NodeId,
        external: bool,
    ) -> Result<FederateId, FederationError> {
        let (coordinator, global) = {
            let inner = self.0.borrow();
            if usize::from(zone.0) >= inner.zones.len() {
                return Err(FederationError::UnknownZone(zone));
            }
            if inner.fed_map.len() >= MAX_FEDERATES {
                return Err(FederationError::Full {
                    limit: MAX_FEDERATES,
                });
            }
            (
                inner.zones[usize::from(zone.0)].clone(),
                inner.fed_map.len() as u16,
            )
        };
        let index = coordinator.register_member(global, name, node, external)?;
        let mut inner = self.0.borrow_mut();
        inner.fed_map.push((zone.0, index));
        inner.stats.federates += 1;
        Ok(FederateId(global))
    }

    /// Declares a coordination edge (see [`Rti::connect`](crate::Rti::connect)).
    /// Intra-zone edges stay inside the member's zone; a cross-zone edge
    /// materializes a proxy in the downstream zone and widens the
    /// zone-level skeleton the root solves over (keeping the `min` delay
    /// per zone pair).
    pub fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        assert!(!min_delay.is_negative(), "edge delays must be non-negative");
        let (up_zone, up_index, down_zone, down_index, down_coord) = {
            let inner = self.0.borrow();
            let (uz, ui) = inner.fed_map[usize::from(upstream.0)];
            let (dz, di) = inner.fed_map[usize::from(downstream.0)];
            (uz, ui, dz, di, inner.zones[usize::from(dz)].clone())
        };
        if up_zone == down_zone {
            down_coord.connect_local(up_index, down_index, min_delay);
            return;
        }
        down_coord.connect_from_zone(ZoneId(up_zone), down_index, min_delay);
        // The upstream zone's floor is now consumed elsewhere: none of
        // its members may be DNET-classified as a sink (a silent member
        // would hold the shared floor down and wedge this zone).
        self.0.borrow().zones[usize::from(up_zone)].mark_exported();
        let mut inner = self.0.borrow_mut();
        let entry = &mut inner.entries[usize::from(down_zone)];
        match entry.upstream.iter_mut().find(|(z, _)| *z == up_zone) {
            Some((_, d)) => *d = (*d).min(min_delay),
            None => {
                entry.upstream.push((up_zone, min_delay));
                entry.last_relay.push(None);
            }
        }
        inner.solver.invalidate();
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

    /// The zone a federate registered with.
    #[must_use]
    pub fn zone_of(&self, fed: FederateId) -> ZoneId {
        ZoneId(self.0.borrow().fed_map[usize::from(fed.0)].0)
    }

    /// The federate's name (for reports).
    #[must_use]
    pub fn federate_name(&self, fed: FederateId) -> String {
        let (zone, index) = {
            let inner = self.0.borrow();
            let (z, i) = inner.fed_map[usize::from(fed.0)];
            (inner.zones[usize::from(z)].clone(), i)
        };
        zone.member_name(index)
    }

    /// Root-level counters (floor records exchanged, zone deaths,
    /// relay batches).
    #[must_use]
    pub fn root_stats(&self) -> RtiStats {
        self.0.borrow().stats
    }

    /// One zone's counters (member NET/LTC traffic, grants, deaths).
    #[must_use]
    pub fn zone_stats(&self, zone: ZoneId) -> RtiStats {
        self.0.borrow().zones[usize::from(zone.0)].stats()
    }

    /// Federation-wide counters: the field-wise sum of the root's and
    /// every zone's [`RtiStats`] (except `federates`, which is the
    /// global registration count).
    #[must_use]
    pub fn stats(&self) -> RtiStats {
        let inner = self.0.borrow();
        let mut total = inner.stats;
        total.federates = inner.fed_map.len() as u64;
        for zone in &inner.zones {
            let z = zone.stats();
            total.nets_received += z.nets_received;
            total.ltcs_received += z.ltcs_received;
            total.tags_issued += z.tags_issued;
            total.ptags_issued += z.ptags_issued;
            total.deaths += z.deaths;
            total.floor_records += z.floor_records;
            total.batches_sent += z.batches_sent;
            total.window_tags += z.window_tags;
            total.dnets_sent += z.dnets_sent;
            total.rejoins += z.rejoins;
        }
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
        inner.diet = true;
        for zone in &inner.zones {
            zone.set_control_diet(true);
        }
    }

    /// Whether [`HierarchicalRti::enable_control_diet`] has been called.
    #[must_use]
    pub fn control_diet_enabled(&self) -> bool {
        self.0.borrow().diet
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
        let zones = {
            let mut inner = self.0.borrow_mut();
            inner.liveness_deadline = Some(deadline);
            inner.zones.clone()
        };
        let heartbeat = Duration::from_nanos((deadline.as_nanos() / 2).max(1));
        for zone in zones {
            zone.enable_member_liveness(deadline);
            zone.enable_uplink_heartbeat(sim, heartbeat);
        }
    }

    /// Handles one roll-up frame from a zone: batched `Floor` records
    /// (monotone rises) plus `Rejoin`-kind roll-ups, the one record that
    /// may *retreat* a zone's floor — a crashed member replayed its
    /// durable log and rejoined below the bound its death had released.
    fn on_rollup_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        {
            let mut inner = self.0.borrow_mut();
            let apply = |inner: &mut RootInner, msg: &CoordMsg| {
                let retreat = msg.kind == CoordKind::Rejoin;
                if msg.kind != CoordKind::Floor && !retreat {
                    return;
                }
                let Some(entry) = inner.entries.get_mut(usize::from(msg.federate)) else {
                    return;
                };
                // Dead zones stay dead (see Rti::on_msg): a zombie's late
                // roll-up must not resurrect a released floor. The one
                // exception is a Rejoin-kind roll-up — the zone actively
                // reporting a revived member is also proof of life for
                // the zone itself. The zone→root link delivers in order,
                // so a pre-death Floor echo can never overtake it.
                if entry.dead && !retreat {
                    return;
                }
                entry.liveness_gen += 1;
                let relayed = wire_to_tag(msg.tag);
                let before = (entry.floor, entry.dead);
                if retreat {
                    entry.dead = false;
                    // Non-monotone on purpose: the rejoined member resumed
                    // below the zone's released floor.
                    entry.floor = relayed;
                    inner.stats.rejoins += 1;
                } else {
                    entry.floor = entry.floor.max(relayed);
                }
                // A heartbeat repeats the floor: proof of life, no more.
                if before != (entry.floor, entry.dead) {
                    inner.dirty.push(msg.federate);
                }
                inner.stats.floor_records += 1;
                if !inner.alive.contains(&msg.federate) {
                    inner.alive.push(msg.federate);
                }
            };
            if visit_control_records(payload, |msg| apply(&mut inner, msg)).is_err() {
                return;
            }
            if inner.alive.is_empty() {
                return;
            }
            for &zone in &inner.alive {
                self.arm_zone_liveness(sim, &inner, ZoneId(zone));
            }
            inner.alive.clear();
        }
        self.recompute(sim);
    }

    /// Arms (or supersedes) the uplink-silence check of `zone`.
    fn arm_zone_liveness(&self, sim: &mut Simulation, inner: &RootInner, zone: ZoneId) {
        let Some(deadline) = inner.liveness_deadline else {
            return;
        };
        let entry = &inner.entries[usize::from(zone.0)];
        if entry.dead {
            return;
        }
        let (root, generation) = (self.clone(), entry.liveness_gen);
        sim.schedule_in(deadline, move |sim| {
            root.on_zone_liveness_check(sim, zone, generation);
        });
    }

    fn on_zone_liveness_check(&self, sim: &mut Simulation, zone: ZoneId, generation: u64) {
        {
            let mut inner = self.0.borrow_mut();
            let Some(entry) = inner.entries.get_mut(usize::from(zone.0)) else {
                return;
            };
            if entry.liveness_gen != generation || entry.dead {
                return; // superseded, or already dead
            }
            entry.dead = true;
            inner.dirty.push(zone.0);
            inner.stats.deaths += 1;
        }
        sim.trace_with("rti", || {
            format!("{zone} declared dead (uplink silence); releasing its floor for sibling zones")
        });
        self.recompute(sim);
    }

    /// Brings the zone-level fixpoint up to date with the dirty zones and
    /// relays changed upstream floors down, one batched frame per
    /// downstream zone. A relay that fell below the last one (an upstream
    /// member rejoined) fans down as a `Rejoin`-kind record so the zone
    /// retreats its proxy head.
    fn recompute(&self, sim: &mut Simulation) {
        let (relays, binding) = {
            let mut inner = self.0.borrow_mut();
            let RootInner {
                binding,
                entries,
                solver,
                dirty,
                downstream,
                relays,
                stats,
                ..
            } = &mut *inner;
            solver.update(&ZoneGraph(entries), dirty);
            dirty.clear();
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
                for e in 0..entries[usize::from(z)].upstream.len() {
                    let (up, _) = entries[usize::from(z)].upstream[e];
                    // What the downstream zone may assume about `up`:
                    // its floor under the *root's* (global) fixpoint —
                    // the same clamp the flat RTI applies through
                    // node_floor, so a zone's optimistic self-report
                    // never leaks past its own upstream constraints.
                    let relayed =
                        node_floor(&entries[usize::from(up)].view(), lbts[usize::from(up)]);
                    let prev = entries[usize::from(z)].last_relay[e].replace(relayed);
                    if prev != Some(relayed) {
                        relays.push((z, up, relayed, prev.is_some_and(|p| relayed < p)));
                    }
                }
                if relays.len() > before {
                    stats.floor_records += (relays.len() - before) as u64;
                    stats.batches_sent += 1;
                }
            }
            // Sent with the table unborrowed; the buffer goes back below.
            (std::mem::take(relays), binding.clone())
        };
        let observe = sim.observe();
        if observe.is_enabled() {
            let now = sim.now();
            observe.count("coord/fixpoint/root", 1);
            observe.instant(dear_observe::Lane::Root, "fixpoint", now);
            // Root-level coordination lag: how far each relayed upstream
            // floor trails true time when it fans back down.
            for batch in relays.chunk_by(|a, b| a.0 == b.0) {
                observe.record_value("coord/batch_size", batch.len() as u64);
                for (_, _, floor, _) in batch {
                    if *floor < TAG_MAX {
                        observe.record_duration("coord/root_relay_lag_ns", now - floor.time);
                    }
                }
            }
        }

        for records in relays.chunk_by(|a, b| a.0 == b.0) {
            let mut batch = CoordBatch::pooled(&binding.pool());
            for &(_, up, floor, retreat) in records {
                let kind = if retreat {
                    CoordKind::Rejoin
                } else {
                    CoordKind::Floor
                };
                batch.push(&CoordMsg::new(kind, up, tag_to_wire(floor)));
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
