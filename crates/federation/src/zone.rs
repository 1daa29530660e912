//! The coordinator shell: one [`GrantTable`] with a SOME/IP binding around
//! it, at every level that has federates.
//!
//! A [`Coordinator`] owns the NET/LTC/fence state of its member federates,
//! runs the [`LbtsSolver`](crate::LbtsSolver) over them and sends out the
//! grants each round justifies. Member registration, `connect`, frame
//! decode, the liveness watchdog, the round itself, the telemetry marks
//! and the grant send-out exist once, here. What distinguishes a **zone**
//! of the hierarchy from the flat RTI is an optional [`Uplink`], fixed at
//! construction:
//!
//! * **no uplink** — the flat [`Rti`](crate::Rti): federate ids are table
//!   indices, every entry is a member, nothing is rolled up;
//! * **an uplink** — a zone of a
//!   [`HierarchicalRti`](crate::HierarchicalRti): members carry the
//!   hierarchy's global ids, and behind them the table holds one
//!   **proxy** entry per upstream zone. A proxy stands in for everything
//!   beyond the zone boundary: its `head` is the floor most recently
//!   relayed by the root for that upstream zone, so from the solver's
//!   point of view a remote zone is just one more (never-granted)
//!   federate. The zone's own state rolls **up** to the root as one
//!   `Floor` record — the per-zone floor, `min` over member floors — and
//!   only when it changed.
//!
//! The one protocol difference left between the two is how grants travel
//! (`send_grants`): the flat level sends one single-record frame per
//! grant on the federate's own eventgroup, a zone **one** batched frame
//! per round on its shared member eventgroup (refcounted zero-copy
//! fan-out; members filter by federate id — see `dear_someip::CoordBatch`).
//!
//! Liveness is scoped per shard: a coordinator watches its own members (a
//! silent member is declared dead and the zone floor rises past it — from
//! the first member frame on, even one that never joined), and the root
//! watches whole zones via the uplink heartbeat.

use crate::rti::{
    arm_unheard, receive_frame, Applied, FederateEntry, FederationError, Grant, GrantTable, Shell,
    MAX_FEDERATES,
};
use crate::solver::{node_floor, TAG_MAX};
use dear_core::Tag;
use dear_observe::{CounterId, HistogramId, Lane, Observe};
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    coord_eventgroup, Binding, CoordBatch, CoordKind, CoordMsg, SdRegistry, ServiceInstance,
    COORD_EVENT, COORD_INSTANCE, COORD_METHOD, COORD_SERVICE,
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
pub(crate) const ZONE_INSTANCE_BASE: u16 = 0x0100;

/// Eventgroup (on the zone's instance) carrying batched member grants.
/// Shared by all members of the zone: the batch fans out once and every
/// member filters it by federate id.
pub(crate) const ZONE_MEMBER_EVENTGROUP: u16 = 0x3F00;

/// First eventgroup (on the root's instance) carrying relayed floors:
/// zone `z` subscribes to `ZONE_UPLINK_EVENTGROUP_BASE + z`.
pub(crate) const ZONE_UPLINK_EVENTGROUP_BASE: u16 = 0x2000;

/// The most zones one hierarchy can hold (bounded by the instance and
/// eventgroup ranges carved out above).
pub(crate) const MAX_ZONES: usize = 0x1000;

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

/// A coordinator's place in a hierarchy — everything that makes it a
/// *zone*. The flat RTI has none.
struct Uplink {
    zone: ZoneId,
    /// Table index → global federate id, for members. **Ascending**: the
    /// hierarchy allocates global ids monotonically and members are
    /// appended, so the reverse lookup is a binary search.
    member_ids: Vec<u16>,
    /// Upstream zone id → table index of its proxy entry.
    proxy_index: BTreeMap<u16, usize>,
    /// Last floor rolled up to the root (roll-ups are change-driven,
    /// plus the unconditional uplink heartbeat).
    last_rollup: Option<Tag>,
    /// Another zone imports from this one. The zone floor is the `min`
    /// over **all** member floors, so once it is consumed elsewhere no
    /// member may be DNET-classified as a sink — a silent member would
    /// hold the floor down and wedge the importing zone.
    exported: bool,
}

struct ShellInner {
    binding: Binding,
    /// Members first (table index = registration order), proxies after.
    /// Proxies are plain entries that never connect, so the shared grant
    /// passes and the watchdog skip them by construction.
    table: GrantTable,
    member_count: usize,
    uplink: Option<Uplink>,
    /// Metric slots, resolved on the first round telemetry is on.
    metrics: Option<ShellMetrics>,
}

/// A coordinator's metric slots.
#[derive(Clone, Copy)]
struct ShellMetrics {
    fixpoint: CounterId,
    grants_per_round: HistogramId,
    /// A zone's only: the hierarchy's batched protocol.
    batch_size: HistogramId,
    floor_lag: HistogramId,
}

impl ShellMetrics {
    fn resolve(observe: &Observe, zone: Option<ZoneId>) -> Self {
        ShellMetrics {
            fixpoint: observe.register_counter(match zone {
                None => "coord/fixpoint/flat",
                Some(_) => "coord/fixpoint/zone",
            }),
            grants_per_round: observe.register_histogram("coord/grants_per_round"),
            batch_size: observe.register_histogram("coord/batch_size"),
            floor_lag: observe.register_histogram("coord/zone_floor_lag_ns"),
        }
    }
}

impl ShellInner {
    /// The uplink of a zone; the hierarchy never asks a flat shell.
    fn uplink(&mut self) -> &mut Uplink {
        self.uplink
            .as_mut()
            .expect("a zone-only call on a flat RTI")
    }
}

/// The one coordinator shell (internal: public as [`Rti`](crate::Rti),
/// or as a zone behind
/// [`HierarchicalRti::add_zone`](crate::HierarchicalRti::add_zone)).
#[derive(Clone)]
pub(crate) struct Coordinator(Rc<RefCell<ShellInner>>);

impl Coordinator {
    /// Creates the shell on `node`, offers the coordination service and
    /// starts listening. With `zone`, it is that zone of a hierarchy;
    /// without, the flat RTI.
    pub(crate) fn new(
        sim: &mut Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        node: NodeId,
        zone: Option<ZoneId>,
    ) -> Self {
        let (client, instance) = match zone {
            None => (0x0052, COORD_INSTANCE),
            Some(zone) => (0x0060_u16.wrapping_add(zone.0), zone_instance(zone)),
        };
        let binding = Binding::new(net, sd, node, client);
        binding.offer(
            sim,
            ServiceInstance::new(COORD_SERVICE, instance),
            Duration::from_secs(1 << 30),
        );
        let shell = Coordinator(Rc::new(RefCell::new(ShellInner {
            binding: binding.clone(),
            table: GrantTable::new(),
            member_count: 0,
            metrics: None,
            uplink: zone.map(|zone| Uplink {
                zone,
                member_ids: Vec::new(),
                proxy_index: BTreeMap::new(),
                last_rollup: None,
                exported: false,
            }),
        })));
        let hook = shell.clone();
        binding.register_method(COORD_SERVICE, COORD_METHOD, move |sim, req, _responder| {
            hook.on_member_frame(sim, &req.payload);
        });
        if let Some(zone) = zone {
            // Relayed floors from the root arrive on the zone's uplink
            // eventgroup.
            binding.subscribe(
                ServiceInstance::new(COORD_SERVICE, COORD_ROOT_INSTANCE),
                zone_uplink_eventgroup(zone),
            );
            let hook = shell.clone();
            binding.on_event(COORD_SERVICE, COORD_EVENT, move |sim, msg| {
                hook.on_root_frame(sim, &msg.payload);
            });
        }
        shell
    }

    /// Registers a member and returns its table index. A zone is handed
    /// the `global` federate id the hierarchy allocated; a flat shell's
    /// ids are its table indices.
    pub(crate) fn register_member(
        &self,
        global: Option<u16>,
        name: &str,
        external: bool,
    ) -> Result<usize, FederationError> {
        let mut inner = self.0.borrow_mut();
        let ShellInner {
            table,
            member_count,
            uplink,
            ..
        } = &mut *inner;
        if *member_count >= MAX_FEDERATES {
            return Err(FederationError::Full {
                limit: MAX_FEDERATES,
            });
        }
        // Members precede proxies in the table; inserting a member after
        // proxies exist shifts every proxy index up by one.
        let index = *member_count;
        if index < table.entries.len() {
            for edge in table.entries.iter_mut().flat_map(|e| &mut e.upstream) {
                if usize::from(edge.0) >= index {
                    edge.0 += 1;
                }
            }
            for proxy in uplink.iter_mut().flat_map(|u| u.proxy_index.values_mut()) {
                *proxy += 1;
            }
        }
        let mut entry = FederateEntry::new(name, external);
        if let (Some(uplink), Some(global)) = (uplink.as_mut(), global) {
            // An exported zone's floor is consumed elsewhere: every
            // member's reports move it, so none may be suppressed as a sink.
            entry.remote_downstream = uplink.exported;
            debug_assert!(uplink.member_ids.last().is_none_or(|&last| last < global));
            uplink.member_ids.push(global);
        }
        table.entries.insert(index, entry);
        table.solver.invalidate();
        table.stats.federates += 1;
        *member_count += 1;
        Ok(index)
    }

    /// Marks this zone as exported (another zone imports from it): every
    /// current and future member's reports feed the rolled-up zone floor
    /// consumed elsewhere, so DNET sink detection is disabled for all of
    /// them — a cross-zone producer, or any member dragging the shared
    /// floor, must keep reporting.
    pub(crate) fn mark_exported(&self) {
        let mut inner = self.0.borrow_mut();
        inner.uplink().exported = true;
        let members = inner.member_count;
        for entry in inner.table.entries.iter_mut().take(members) {
            entry.remote_downstream = true;
        }
        // Sink classification changed: every member's DNET state is due.
        inner.table.solver.invalidate();
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
        let proxy = match inner.uplink().proxy_index.get(&upstream_zone.0) {
            Some(&p) => p,
            None => {
                // A proxy's head is the floor the root most recently
                // relayed for that zone; origin until the first relay
                // ("unknown, assume anything"), exactly like a federate
                // that has not reported yet.
                let p = inner
                    .table
                    .register(&format!("proxy:{upstream_zone}"), false);
                inner.uplink().proxy_index.insert(upstream_zone.0, p);
                p
            }
        };
        inner.table.connect(proxy, downstream, min_delay);
    }

    /// Keeps the unconditional uplink heartbeat going: every `interval`
    /// the zone re-sends its current floor to the root, change or not.
    /// This is what the root's zone watchdog listens for. A zone that has
    /// rolled nothing up yet is alive all the same: it repeats the floor
    /// the root already assumes for it.
    pub(crate) fn uplink_heartbeat(&self, sim: &mut Simulation, interval: Duration) {
        let zone = self.clone();
        sim.schedule_in(interval, move |sim| {
            let floor = zone.0.borrow_mut().uplink().last_rollup;
            zone.send_rollup(sim, floor.unwrap_or(Tag::ORIGIN), false);
            zone.uplink_heartbeat(sim, interval);
        });
    }

    /// Handles one control frame from a member: a single record or a
    /// batch (LTC + NET packed by the platform).
    fn on_member_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        {
            let mut inner = self.0.borrow_mut();
            let ShellInner {
                table,
                member_count,
                uplink,
                ..
            } = &mut *inner;
            let heard = receive_frame(self, sim, table, payload, |table, msg| {
                let index = match uplink {
                    None => Some(usize::from(msg.federate)).filter(|&i| i < *member_count),
                    Some(uplink) => uplink.member_ids.binary_search(&msg.federate).ok(),
                }?;
                (table.control(index, msg) != Applied::Ignored).then_some(index)
            });
            arm_unheard(self, sim, table, *member_count);
            if !heard {
                return;
            }
        }
        self.recompute(sim);
    }

    /// Handles a relayed-floor frame from the root: each record names an
    /// upstream zone and moves its proxy's head (see
    /// [`FederateEntry::apply_floor`]).
    fn on_root_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        {
            let mut inner = self.0.borrow_mut();
            let ShellInner { table, uplink, .. } = &mut *inner;
            let proxies = uplink.as_ref().map(|uplink| &uplink.proxy_index);
            let changed = receive_frame(self, sim, table, payload, |table, msg| {
                let &proxy = proxies?.get(&msg.federate)?;
                if table.relay(proxy, msg) != Applied::Moved {
                    return None;
                }
                table.stats.floor_records += 1;
                Some(proxy)
            });
            if !changed {
                return;
            }
        }
        self.recompute(sim);
    }

    /// The members' round, at every level: brings the LBTS of everything
    /// downstream of the dirty entries up to date, sends out the newly
    /// justified grants, and — in a zone — rolls the zone floor up to the
    /// root when it changed.
    fn recompute(&self, sim: &mut Simulation) {
        let observe = sim.observe();
        let (grants, rollup, binding, zone, metrics) = {
            let mut inner = self.0.borrow_mut();
            let ShellInner {
                binding,
                table,
                member_count,
                uplink,
                metrics,
            } = &mut *inner;
            // Sent with the table unborrowed; the buffer goes back below.
            let mut grants = table.round(*member_count);
            let rollup = uplink.as_mut().and_then(|uplink| {
                // Grants leave a zone addressed by global federate id.
                for grant in &mut grants {
                    grant.0 = uplink.member_ids[usize::from(grant.0)];
                }
                uplink.roll_up(table, *member_count)
            });
            let zone = uplink.as_ref().map(|uplink| uplink.zone);
            let metrics = observe
                .is_enabled()
                .then(|| *metrics.get_or_insert_with(|| ShellMetrics::resolve(observe, zone)));
            (grants, rollup, binding.clone(), zone, metrics)
        };
        if let Some(metrics) = metrics {
            let now = sim.now();
            observe.add(metrics.fixpoint, 1);
            observe.sample(metrics.grants_per_round, grants.len() as u64);
            let lane = zone.map_or(Lane::Root, |zone| Lane::Zone(zone.0));
            observe.instant(lane, "fixpoint", now);
            if zone.is_some() && !grants.is_empty() {
                // One batch frame per round, one record per grant.
                observe.sample(metrics.batch_size, grants.len() as u64);
            }
            // The zone-level coordination lag: how far the floor this
            // round promised to the rest of the federation trails the
            // true time at which it was computed.
            if let Some((floor, _)) = rollup.filter(|&(floor, _)| floor < TAG_MAX) {
                observe.sample_duration(metrics.floor_lag, now - floor.time);
            }
        }

        let batches = send_grants(sim, &binding, zone, &grants);
        {
            let mut inner = self.0.borrow_mut();
            inner.table.stats.batches_sent += batches;
            inner.table.recycle(grants);
        }
        if let Some((floor, retreat)) = rollup {
            self.send_rollup(sim, floor, retreat);
        }
    }

    /// Sends the zone floor to the root as a one-record batch frame.
    fn send_rollup(&self, sim: &mut Simulation, floor: Tag, retreat: bool) {
        let (binding, zone) = {
            let mut inner = self.0.borrow_mut();
            (inner.binding.clone(), inner.uplink().zone)
        };
        let mut batch = CoordBatch::pooled(&binding.pool());
        batch.push(&floor_record(zone.0, floor, retreat));
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

impl Uplink {
    /// The zone floor after a round, if it is due at the root: what this
    /// zone as a whole promises the rest of the federation. `min` over
    /// member floors; proxies are the other zones' business. No floor
    /// moves in a round that affected nothing. Returns `(floor, retreat)`.
    fn roll_up(&mut self, table: &GrantTable, members: usize) -> Option<(Tag, bool)> {
        if members == 0 || table.solver.affected().is_empty() {
            return None;
        }
        let lbts = table.solver.lbts();
        let mut floor = TAG_MAX;
        for (entry, &lbts) in table.entries.iter().zip(lbts).take(members) {
            floor = floor.min(node_floor(&entry.view(), lbts));
        }
        // Roll-ups are change-driven in *both* directions: a floor that
        // fell back below the last roll-up means a dead member rejoined.
        if self.last_rollup == Some(floor) {
            return None;
        }
        let retreat = self
            .last_rollup
            .replace(floor)
            .is_some_and(|prev| floor < prev);
        Some((floor, retreat))
    }
}

impl Shell for Coordinator {
    fn with_table<R>(&self, f: impl FnOnce(&mut GrantTable) -> R) -> R {
        f(&mut self.0.borrow_mut().table)
    }

    fn declared_dead(&self, sim: &mut Simulation, index: usize) {
        sim.trace_with("rti", || {
            let inner = self.0.borrow();
            let name = &inner.table.entries[index].name;
            let (zone, fed) = match &inner.uplink {
                None => (String::new(), index as u16),
                Some(uplink) => (format!("{}: ", uplink.zone), uplink.member_ids[index]),
            };
            format!("{zone}federate fed{fed} ({name}) declared dead; releasing its LBTS bound")
        });
        self.recompute(sim);
    }
}

/// One coordinator → coordinator floor record about zone `zone`. A
/// `retreat` (a floor below the one last sent — a member rejoined)
/// travels as a `Rejoin`-kind record, the only one
/// [`FederateEntry::apply_floor`] applies non-monotonically.
pub(crate) fn floor_record(zone: u16, floor: Tag, retreat: bool) -> CoordMsg {
    let kind = if retreat {
        CoordKind::Rejoin
    } else {
        CoordKind::Floor
    };
    CoordMsg::new(kind, zone, tag_to_wire(floor))
}

/// Sends one round's grants to the members — the one piece of protocol
/// that still depends on the level. The flat RTI sends a single-record
/// frame per grant on the federate's own eventgroup; a zone fans all of
/// them out as one batched frame on its shared member eventgroup.
/// Returns the number of batch frames sent.
fn send_grants(
    sim: &mut Simulation,
    binding: &Binding,
    zone: Option<ZoneId>,
    grants: &[Grant],
) -> u64 {
    if grants.is_empty() {
        return 0;
    }
    let pool = binding.pool();
    let record = |&(federate, kind, tag, fence): &Grant| CoordMsg {
        kind,
        federate,
        tag: tag_to_wire(tag),
        fence,
    };
    let Some(zone) = zone else {
        for grant in grants {
            binding.notify(
                sim,
                ServiceInstance::new(COORD_SERVICE, COORD_INSTANCE),
                coord_eventgroup(grant.0),
                COORD_EVENT,
                record(grant).encode_into(&pool),
            );
        }
        return 0;
    };
    let mut batch = CoordBatch::pooled(&pool);
    grants.iter().for_each(|grant| batch.push(&record(grant)));
    binding.notify(
        sim,
        ServiceInstance::new(COORD_SERVICE, zone_instance(zone)),
        ZONE_MEMBER_EVENTGROUP,
        COORD_EVENT,
        batch.freeze(),
    );
    1
}
