//! The coordinator's **table**, and the flat [`Rti`] handle over the one
//! coordinator shell.
//!
//! A coordinator tracks, per federate, the last completed tag (LTC), the
//! earliest pending event tag plus a physical-time fence (NET), and the
//! declared inter-federate topology with per-edge minimum tag delays
//! (`D + L + E` for a DEAR transactor edge). From these it computes each
//! federate's **LBTS** (least bound on incoming tags) — a tag below which
//! no further message can possibly arrive — and grants tag advances:
//!
//! * **TAG(b)** — the federate may process all tags *strictly before* `b`;
//! * **PTAG(g)** — provisional grant for exactly tag `g`, issued to break
//!   zero-delay cycles where no strict bound can advance.
//!
//! That state is one [`GrantTable`] at **every** level: the flat RTI's
//! federates, a zone's members plus one never-granted proxy per upstream
//! zone, and the hierarchy root's never-granted zone summaries are all
//! rows of the same table, solved by the same [`LbtsSolver`], watched by
//! the same liveness generation counters. The network shell around the
//! table exists once too (`zone.rs`): [`Rti`] is that shell built
//! **without an uplink** — literally the one-zone special case of
//! [`HierarchicalRti`](crate::HierarchicalRti).
//!
//! All control traffic rides the SOME/IP coordination service defined in
//! `dear-someip::coord`; a coordinator is itself just a node with a
//! binding, so grant latency is governed by the simulated network like
//! any other message — which is exactly what `dear-benchmark`'s
//! `federation.grant_wait_us_per_tag` measures.

use crate::solver::{tag_succ, LbtsGraph, LbtsSolver, NodeView, TAG_MAX};
use crate::zone::Coordinator;
use dear_core::Tag;
use dear_sim::{NetworkHandle, NodeId, Simulation};
use dear_someip::{
    visit_control_records, CoordKind, CoordMsg, SdRegistry, WireTag, COORD_EVENTGROUP_BASE,
    DNET_NET_LATTICE, DNET_SINK, TAG_NEVER,
};
use dear_time::Duration;
use dear_transactors::{tag_to_wire, wire_to_tag};
use std::fmt;

/// The most federates one coordinator (flat RTI or hierarchical zone
/// space) can register: per-federate grant eventgroups start at
/// `COORD_EVENTGROUP_BASE`, so ids beyond this would wrap the u16
/// eventgroup space.
pub(crate) const MAX_FEDERATES: usize = (u16::MAX - COORD_EVENTGROUP_BASE) as usize;

/// How many declared periods a grant-ahead window runs past the strict
/// fixpoint bound. Large enough to amortize the TAG round-trip over a
/// burst of periodic steps, small enough that a topology change (a new
/// fault, a late joiner) is picked up within a handful of periods.
pub(crate) const GRANT_WINDOW_PERIODS: u32 = 8;

/// Identifies one federate within a federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FederateId(pub u16);

impl fmt::Display for FederateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fed{}", self.0)
    }
}

/// Errors reported by the federation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationError {
    /// The coordinator's federate table is full.
    Full {
        /// The capacity that the registration would have exceeded.
        limit: usize,
    },
    /// The referenced zone was never added to the hierarchy.
    UnknownZone(crate::ZoneId),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::Full { limit } => {
                write!(f, "federation full: at most {limit} federates can register")
            }
            FederationError::UnknownZone(zone) => {
                write!(f, "unknown zone {zone}")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// Counters describing a coordinator's activity (the flat RTI, one zone,
/// or the hierarchy root — levels that don't handle a message class
/// leave its counter at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtiStats {
    /// Registered federates.
    pub federates: u64,
    /// NET reports received.
    pub nets_received: u64,
    /// LTC reports received.
    pub ltcs_received: u64,
    /// TAG grants issued.
    pub tags_issued: u64,
    /// PTAG (provisional) grants issued.
    pub ptags_issued: u64,
    /// Federates declared dead by the liveness watchdog (NET/LTC silence
    /// past the configured deadline).
    pub deaths: u64,
    /// Floor records exchanged with the other hierarchy level (zone
    /// roll-ups sent / received at the root, relayed floors fanned back
    /// down). Always zero for a flat RTI.
    pub floor_records: u64,
    /// Batched coordination frames sent (grant fan-outs, roll-ups,
    /// floor broadcasts). Always zero for a flat RTI, which sends one
    /// record per frame.
    pub batches_sent: u64,
    /// Extra future tags covered by grant-ahead windows, beyond the
    /// windowed TAG's own strict bound. Zero unless the control diet is
    /// enabled (see [`Rti::enable_control_diet`]).
    pub window_tags: u64,
    /// DNET suppression-state records pushed to federates. Zero unless
    /// the control diet is enabled.
    pub dnets_sent: u64,
    /// Rejoin records accepted: dead federates (or zones) revived after
    /// replaying their durable log. Stale rejoins rejected by the
    /// incarnation guard are not counted.
    pub rejoins: u64,
    /// Control payloads dropped as undecodable (a truncated record or
    /// batch, an unknown kind, garbage). A rejected frame applies none of
    /// its records and is not a sign of life.
    pub frames_rejected: u64,
}

impl std::ops::AddAssign for RtiStats {
    /// Field-wise sum. Destructures exhaustively, so a counter added to
    /// the struct cannot be forgotten here.
    fn add_assign(&mut self, rhs: RtiStats) {
        let RtiStats {
            federates,
            nets_received,
            ltcs_received,
            tags_issued,
            ptags_issued,
            deaths,
            floor_records,
            batches_sent,
            window_tags,
            dnets_sent,
            rejoins,
            frames_rejected,
        } = rhs;
        self.federates += federates;
        self.nets_received += nets_received;
        self.ltcs_received += ltcs_received;
        self.tags_issued += tags_issued;
        self.ptags_issued += ptags_issued;
        self.deaths += deaths;
        self.floor_records += floor_records;
        self.batches_sent += batches_sent;
        self.window_tags += window_tags;
        self.dnets_sent += dnets_sent;
        self.rejoins += rejoins;
        self.frames_rejected += frames_rejected;
    }
}

impl fmt::Display for RtiStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "federates={} nets={} ltcs={} tags={} ptags={} deaths={} floors={} batches={} \
             windows={} dnets={} rejoins={} rejected={}",
            self.federates,
            self.nets_received,
            self.ltcs_received,
            self.tags_issued,
            self.ptags_issued,
            self.deaths,
            self.floor_records,
            self.batches_sent,
            self.window_tags,
            self.dnets_sent,
            self.rejoins,
            self.frames_rejected
        )
    }
}

/// What one control record did to a coordinator's table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// Not a sign of life (a grant or floor echo, a message to the dead):
    /// nothing changed, and the liveness watchdog must not be re-armed.
    Ignored,
    /// A genuine report that moved nothing the solver or the grant passes
    /// read — a heartbeat NET repeating the head, an LTC below the
    /// high-water mark.
    Unchanged,
    /// The entry's floor inputs or grant eligibility moved: the entry is
    /// dirty for the next [`GrantTable::round`].
    Moved,
}

/// One grant record: `(federate, kind, tag, fence)`.
pub(crate) type Grant = (u16, CoordKind, Tag, WireTag);

pub(crate) struct FederateEntry {
    pub(crate) name: String,
    /// Whether the federate takes physical inputs from outside the
    /// federation (sensors, legacy AP components). Such federates bound
    /// their future event tags by the reported fence; pure federates are
    /// bounded transitively through their upstream LBTS.
    pub(crate) external: bool,
    pub(crate) connected: bool,
    pub(crate) resigned: bool,
    /// Declared dead by the liveness watchdog: treated like a resigned
    /// federate for LBTS purposes so survivors keep advancing, but
    /// counted and traced separately.
    pub(crate) dead: bool,
    /// Generation guard for liveness wake-ups: every received control
    /// message bumps it, superseding the previously armed check.
    pub(crate) liveness_gen: u64,
    /// Last completed tag (monotone max over LTC reports).
    pub(crate) completed: Option<Tag>,
    /// Earliest pending event tag from the latest NET ([`TAG_MAX`] when
    /// idle; starts at origin = "unknown, assume anything"). For a
    /// summary entry — a zone's proxy of an upstream zone, the root's
    /// entry of a zone — the floor most recently rolled up or relayed.
    pub(crate) head: Tag,
    /// Physical-time fence from NET reports (monotone max).
    pub(crate) fence: Tag,
    /// Exclusive bound of the last TAG grant.
    pub(crate) last_granted: Option<Tag>,
    /// Tag of the last PTAG grant.
    pub(crate) last_ptag: Option<Tag>,
    /// Incoming edges: (upstream table index, minimum tag delay).
    pub(crate) upstream: Vec<(u16, Duration)>,
    /// Declared periodic event lattice (from a `Period` record): every
    /// locally originated event tag is a whole multiple of this duration
    /// at microstep zero. Only sent by platforms under the control diet.
    pub(crate) period: Option<Duration>,
    /// The federate has at least one downstream edge at this coordinator.
    pub(crate) has_downstream: bool,
    /// The federate feeds a downstream in another zone (set by the
    /// hierarchy when a cross-zone edge departs from this member).
    pub(crate) remote_downstream: bool,
    /// The DNET flag word last pushed to the federate, so suppression
    /// state is re-sent only when it changes.
    pub(crate) last_dnet: Option<u32>,
    /// Incarnation high-water mark: every accepted `Rejoin` carries an
    /// incarnation (in the record's fence microstep slot) that must
    /// exceed this, so a duplicated or stale rejoin can neither revive a
    /// federate twice nor rewind its completed tag.
    pub(crate) incarnation: u32,
}

impl FederateEntry {
    pub(crate) fn new(name: &str, external: bool) -> Self {
        FederateEntry {
            name: name.into(),
            external,
            connected: false,
            resigned: false,
            dead: false,
            liveness_gen: 0,
            completed: None,
            head: Tag::ORIGIN,
            fence: Tag::ORIGIN,
            last_granted: None,
            last_ptag: None,
            upstream: Vec::new(),
            period: None,
            has_downstream: false,
            remote_downstream: false,
            last_dnet: None,
            incarnation: 0,
        }
    }

    pub(crate) fn released(&self) -> bool {
        self.resigned || self.dead
    }

    pub(crate) fn view(&self) -> NodeView {
        NodeView {
            released: self.released(),
            external: self.external,
            completed: self.completed,
            head: self.head,
            fence: self.fence,
            // Only ever `Some` under the control diet (platforms declare
            // their lattice only when the diet is on), so the solver's
            // periodic fast path stays inert by default.
            period: self.period,
        }
    }

    /// Whether the federate constrains nothing at this coordinator: no
    /// local downstream edge and no cross-zone downstream. Its NET/LTC
    /// reports can never move any other node's LBTS.
    pub(crate) fn is_sink(&self) -> bool {
        !self.has_downstream && !self.remote_downstream
    }

    /// Applies one federate → coordinator control record, bumps the
    /// matching counters and reports what it did. [`Applied::Ignored`]
    /// records must not count as a sign of life — the liveness generation
    /// is bumped only for genuine reports, so an echo can neither disarm
    /// the armed watchdog nor revive a zombie.
    pub(crate) fn apply_control(&mut self, msg: &CoordMsg, stats: &mut RtiStats) -> Applied {
        // Rejoin is the one record the dead may send: it must be looked at
        // *before* the zombie filter below, and it alone may clear `dead`.
        if msg.kind == CoordKind::Rejoin {
            return self.apply_rejoin(msg, stats);
        }
        if self.dead {
            return Applied::Ignored;
        }
        let moved = match msg.kind {
            CoordKind::Join => !std::mem::replace(&mut self.connected, true),
            CoordKind::Net => {
                let head = wire_to_tag(msg.tag);
                let fence = self.fence.max(wire_to_tag(msg.fence));
                // The fence bounds the floor of `external` federates only.
                let moved = head != self.head || (self.external && fence != self.fence);
                self.head = head;
                self.fence = fence;
                stats.nets_received += 1;
                moved
            }
            CoordKind::Ltc => {
                let tag = wire_to_tag(msg.tag);
                let completed = Some(self.completed.map_or(tag, |c| c.max(tag)));
                stats.ltcs_received += 1;
                std::mem::replace(&mut self.completed, completed) != completed
            }
            CoordKind::Resign => !std::mem::replace(&mut self.resigned, true),
            CoordKind::Period => {
                let nanos = i64::try_from(msg.tag.nanos).unwrap_or(i64::MAX);
                let period = (nanos > 0).then(|| Duration::from_nanos(nanos));
                std::mem::replace(&mut self.period, period) != period
            }
            // Grants and DNET pushes are coordinator → federate only, and
            // floor records are coordinator ↔ coordinator only.
            CoordKind::Tag
            | CoordKind::Ptag
            | CoordKind::Floor
            | CoordKind::Dnet
            | CoordKind::Rejoin => return Applied::Ignored,
        };
        self.liveness_gen += 1;
        if moved {
            Applied::Moved
        } else {
            Applied::Unchanged
        }
    }

    /// Applies a `Rejoin` record: revives a dead federate at its replayed
    /// completed tag. The incarnation carried in the record's fence
    /// microstep must strictly exceed the stored high-water mark —
    /// duplicates and stale pre-crash echoes fall through as dead letters.
    /// Resignation stays final: a resigned federate has declared it
    /// imposes no further constraints, and nothing downstream waits on it.
    fn apply_rejoin(&mut self, msg: &CoordMsg, stats: &mut RtiStats) -> Applied {
        let incarnation = msg.fence.microstep;
        if incarnation <= self.incarnation || self.resigned {
            return Applied::Ignored;
        }
        self.incarnation = incarnation;
        self.dead = false;
        self.connected = true;
        self.liveness_gen += 1;
        // The replayed LTC high-water mark: the federate is exactly where
        // it was. The head floors back from the released TAG_MAX to the
        // conservative successor until a fresh NET report lands. The wire
        // sentinel means the federate crashed before completing any tag —
        // that is the fresh-join state, not a completed `TAG_MAX`.
        if msg.tag == TAG_NEVER {
            self.completed = None;
            self.head = Tag::ORIGIN;
        } else {
            let completed = wire_to_tag(msg.tag);
            self.completed = Some(completed);
            self.head = tag_succ(completed);
        }
        // Forget grant/suppression high-water marks so the next recompute
        // re-sends the current bound and DNET state: the recovered
        // platform restored its logged bound, and over-granting is
        // harmless (a lower re-sent bound is ignored monotonically).
        self.last_granted = None;
        self.last_ptag = None;
        self.last_dnet = None;
        stats.rejoins += 1;
        Applied::Moved
    }

    /// Applies one coordinator ↔ coordinator record to a **summary**
    /// entry, whose `head` is another coordinator's floor: a zone's proxy
    /// of an upstream zone (records relayed down by the root) or the
    /// root's entry of a zone (records rolled up by it). `Floor` raises
    /// the head monotonically; `Rejoin` carries the one legitimate
    /// *retreat* — a crashed member replayed its durable log and rejoined
    /// below the bound its death had released — and is applied as sent.
    ///
    /// The dead stay dead: a zombie's late `Floor` must not resurrect a
    /// released floor. A retreat is the exception — a zone actively
    /// reporting a revived member is also proof of life for the zone
    /// itself, and its link delivers in order, so a pre-death `Floor`
    /// echo can never overtake it. Every accepted record is a sign of
    /// life; one that repeats the head (a heartbeat) is no more than that.
    pub(crate) fn apply_floor(&mut self, msg: &CoordMsg) -> Applied {
        let retreat = match msg.kind {
            CoordKind::Floor => false,
            CoordKind::Rejoin => true,
            _ => return Applied::Ignored,
        };
        if self.dead && !retreat {
            return Applied::Ignored;
        }
        self.liveness_gen += 1;
        let floor = wire_to_tag(msg.tag);
        let before = (self.head, self.dead);
        if retreat {
            self.dead = false;
            self.head = floor;
        } else {
            self.head = self.head.max(floor);
        }
        if before == (self.head, self.dead) {
            Applied::Unchanged
        } else {
            Applied::Moved
        }
    }
}

/// A table's entries as an [`LbtsGraph`]: graph index = table index.
pub(crate) struct FederateGraph<'a>(pub(crate) &'a [FederateEntry]);

impl LbtsGraph for FederateGraph<'_> {
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

/// The grant-ahead window for federate `f` under the control diet, if one
/// is justified: the strict bound pushed out by [`GRANT_WINDOW_PERIODS`]
/// lattice periods. Requires the federate *and every direct upstream* to
/// be lattice-declared (or released) — then every tag the federate can
/// receive or originate inside the window rides the periodic lattice the
/// solver already leaps over, and the platform's own clock gate (a tag is
/// never processed before physical time reaches it, the PTIDES `D+L+E`
/// argument from the paper) keeps the free-run safe.
pub(crate) fn grant_horizon(federates: &[FederateEntry], f: usize, bound: Tag) -> Option<Tag> {
    let entry = &federates[f];
    let g = entry.period?;
    if bound >= TAG_MAX {
        return None; // already unconstrained; a window adds nothing
    }
    let lattice_ok = entry.upstream.iter().all(|&(u, _)| {
        let up = &federates[usize::from(u)];
        up.released() || up.period.is_some()
    });
    if !lattice_ok {
        return None;
    }
    let span = g.as_nanos().checked_mul(i64::from(GRANT_WINDOW_PERIODS))?;
    // Checked, clamped tag math: near the end of the timeline the horizon
    // must stay *strictly below* `TAG_MAX` — saturating into
    // `Instant::MAX` would produce a tag in the wire sentinel's reserved
    // time point (`dear_someip::TAG_NEVER`), which a platform would then
    // echo back as an LTC and corrupt the fixpoint. No window is issued
    // instead; the strict bound alone already covers such a federate.
    let horizon_ns = bound.time.as_nanos().checked_add(span.unsigned_abs())?;
    if horizon_ns >= dear_time::Instant::MAX.as_nanos() {
        return None;
    }
    Some(Tag::new(
        dear_time::Instant::from_nanos(horizon_ns),
        bound.microstep,
    ))
}

/// A coordinator's entry table together with the solver, the liveness
/// deadline and the buffers that keep a round allocation-free: everything
/// a coordinator is, minus the network around it. Every level runs one —
/// the flat RTI with every entry grantable, a zone with its proxies
/// beyond `grantable`, the root with no grantable entry at all.
///
/// Hidden from the docs but public, so the allocation test in `tests/`
/// can run ten thousand rounds without a simulation in the way.
#[doc(hidden)]
#[derive(Default)]
pub struct GrantTable {
    /// Members first, then the never-granted summary entries.
    pub(crate) entries: Vec<FederateEntry>,
    pub(crate) solver: LbtsSolver,
    /// Entries whose state moved since the last round.
    dirty: Vec<u16>,
    /// The round's output buffer, handed out and taken back.
    grants: Vec<Grant>,
    /// Entries heard from in the frame being handled (scratch).
    alive: Vec<u16>,
    pub(crate) stats: RtiStats,
    /// Control-plane diet (DNET suppression, grant-ahead windows, the
    /// periodic fast path). Opt-in so existing deployments keep their
    /// control traffic — and traces — bit for bit.
    pub(crate) diet: bool,
    /// Liveness deadline: a connected entry silent for longer than this
    /// is declared dead. `None` disables the watchdog (the default —
    /// death detection is opt-in so that fault-free scenarios schedule
    /// zero extra events).
    pub(crate) liveness: Option<Duration>,
    /// Set once [`arm_unheard`] has run (on the first member frame).
    unheard_armed: bool,
}

impl GrantTable {
    /// An empty table, diet off.
    #[must_use]
    pub fn new() -> Self {
        GrantTable::default()
    }

    /// Appends an entry and returns its index.
    pub fn register(&mut self, name: &str, external: bool) -> usize {
        self.entries.push(FederateEntry::new(name, external));
        self.solver.invalidate();
        self.entries.len() - 1
    }

    /// Declares the edge `upstream → downstream` (table indices).
    pub fn connect(&mut self, upstream: usize, downstream: usize, min_delay: Duration) {
        self.entries[downstream]
            .upstream
            .push((upstream as u16, min_delay));
        self.entries[upstream].has_downstream = true;
        self.solver.invalidate();
    }

    /// Switches the control-plane diet. Every entry's suppression state
    /// is due (or moot) afterwards, so the next round looks at them all.
    pub fn set_control_diet(&mut self, diet: bool) {
        self.diet = diet;
        self.solver.invalidate();
    }

    /// Applies one federate → coordinator record to member entry `index`
    /// and remembers the entry for the next round if anything moved.
    pub fn control(&mut self, index: usize, msg: &CoordMsg) -> Applied {
        let applied = self.entries[index].apply_control(msg, &mut self.stats);
        self.moved(index, applied)
    }

    /// Applies one coordinator ↔ coordinator record to summary entry
    /// `index` (see [`FederateEntry::apply_floor`]), likewise.
    pub(crate) fn relay(&mut self, index: usize, msg: &CoordMsg) -> Applied {
        let applied = self.entries[index].apply_floor(msg);
        self.moved(index, applied)
    }

    fn moved(&mut self, index: usize, applied: Applied) -> Applied {
        if applied == Applied::Moved {
            self.dirty.push(index as u16);
        }
        applied
    }

    /// The watchdog's verdict on entry `index`, armed at `generation`:
    /// declares it dead — released for LBTS purposes, dirty for the next
    /// round — unless a sign of life superseded the check or the entry is
    /// released already.
    pub(crate) fn expire(&mut self, index: usize, generation: u64) -> bool {
        let entry = &mut self.entries[index];
        if entry.liveness_gen != generation || entry.released() {
            return false;
        }
        entry.dead = true;
        self.dirty.push(index as u16);
        self.stats.deaths += 1;
        true
    }

    /// One round: brings the solver up to date with the entries that
    /// moved since the last one and returns the grants that justifies, in
    /// deterministic order: the TAG pass (strict bounds that advanced,
    /// ascending by index) followed by at most one PTAG (zero-delay stall
    /// breaker, minimal `(tag, index)` tie-break), followed — under the
    /// control diet — by the DNET suppression records whose flag word
    /// changed. Updates per-entry grant high-water marks and the issue
    /// counters. Only the first `grantable` entries are real members.
    ///
    /// Every round leaves each member with nothing further to be sent, so
    /// the TAG and DNET passes only look at what the solver reports
    /// [`affected`](LbtsSolver::affected): an entry whose LBTS, state and
    /// eligibility all stayed put has nothing new to be told. After a
    /// structural change that is every entry.
    ///
    /// Each record is `(federate, kind, tag, fence)`: the fence slot of
    /// the wire record carries the window horizon on a TAG and the flag
    /// word on a DNET, and stays zero otherwise. The list is the table's
    /// own buffer: hand it back through [`GrantTable::recycle`].
    pub fn round(&mut self, grantable: usize) -> Vec<Grant> {
        let GrantTable {
            entries,
            solver,
            dirty,
            grants,
            stats,
            diet,
            ..
        } = self;
        grants.clear();
        solver.update(&FederateGraph(entries), dirty);
        dirty.clear();
        let (lbts, affected) = (solver.lbts(), solver.affected());
        // `affected` is ascending, so the members in it come first.
        let affected = &affected[..affected.partition_point(|&f| usize::from(f) < grantable)];
        // TAG pass: strict bounds that advanced.
        for &f in affected {
            let (f, bound) = (usize::from(f), lbts[usize::from(f)]);
            let entry = &entries[f];
            if !entry.connected || entry.released() {
                continue;
            }
            if entry.last_granted.is_none_or(|g| bound > g) {
                let window = if *diet {
                    grant_horizon(entries, f, bound)
                } else {
                    None
                };
                match window {
                    Some(horizon) => {
                        grants.push((f as u16, CoordKind::Tag, bound, tag_to_wire(horizon)));
                        // The horizon is the new high-water mark: intermediate
                        // bounds inside the window never echo back as TAGs.
                        entries[f].last_granted = Some(horizon);
                        stats.window_tags += u64::from(GRANT_WINDOW_PERIODS);
                    }
                    None => {
                        grants.push((f as u16, CoordKind::Tag, bound, WireTag::new(0, 0)));
                        entries[f].last_granted = Some(bound);
                    }
                }
                stats.tags_issued += 1;
            }
        }
        // PTAG pass: break a zero-delay stall (see LbtsSolver::ptag_candidate).
        // Not driven by `affected`: one PTAG goes out per round, so a second
        // candidate waits for the next round whatever that round moves.
        let candidate = solver.ptag_candidate(&FederateGraph(entries), |f| {
            let entry = &entries[f];
            f < grantable && entry.connected && entry.last_ptag.is_none_or(|p| entry.head > p)
        });
        if let Some((tag, f)) = candidate {
            grants.push((f as u16, CoordKind::Ptag, tag, WireTag::new(0, 0)));
            entries[f].last_ptag = Some(tag);
            stats.ptags_issued += 1;
        }
        // DNET pass: push each member's suppression state when it changes.
        // Flags only ever *add* report traffic here to *remove* much more on
        // the federate side; a dead or resigned federate is skipped (its
        // state is moot — release already unblocks everyone downstream).
        if *diet {
            for &f in affected {
                let f = usize::from(f);
                let entry = &entries[f];
                if !entry.connected || entry.released() {
                    continue;
                }
                let mut flags = 0u32;
                if entry.period.is_some() {
                    flags |= DNET_NET_LATTICE;
                }
                if entry.is_sink() {
                    flags |= DNET_SINK;
                }
                if flags != 0 && entry.last_dnet != Some(flags) {
                    // The horizon slot: "no report before this tag can move a
                    // downstream LBTS". A sink's reports never can.
                    let horizon = if entry.is_sink() { TAG_MAX } else { lbts[f] };
                    grants.push((f as u16, CoordKind::Dnet, horizon, WireTag::new(0, flags)));
                    entries[f].last_dnet = Some(flags);
                    stats.dnets_sent += 1;
                }
            }
        }
        std::mem::take(grants)
    }

    /// Takes the list [`GrantTable::round`] handed out back as the next
    /// round's buffer.
    pub fn recycle(&mut self, grants: Vec<Grant>) {
        self.grants = grants;
    }
}

/// What the network shell around a [`GrantTable`] provides to the code
/// every level shares: the flat/zone [`Coordinator`] and the hierarchy
/// root implement it.
pub(crate) trait Shell: Clone + 'static {
    /// Runs `f` on the shell's table.
    fn with_table<R>(&self, f: impl FnOnce(&mut GrantTable) -> R) -> R;
    /// Entry `index` was just declared dead: trace it under `"rti"` and
    /// recompute, so whatever waited on it gets its bound released.
    fn declared_dead(&self, sim: &mut Simulation, index: usize);
}

/// The liveness watchdog, once for members and zones alike. Arms (or
/// supersedes) the check of entry `index`: if no further sign of life
/// bumps the entry's generation within the deadline, it is declared dead
/// at exactly `now + deadline` — a well-defined tag. Released entries are
/// not watched, nor unconnected ones once heard from (summary entries
/// never connect); `table` is the shell's own table, which the caller
/// holds borrowed.
pub(crate) fn arm_watchdog<S: Shell>(
    shell: &S,
    sim: &mut Simulation,
    table: &GrantTable,
    index: usize,
) {
    let Some(deadline) = table.liveness else {
        return;
    };
    let entry = &table.entries[index];
    if entry.released() || (!entry.connected && entry.liveness_gen > 0) {
        return;
    }
    let (shell, generation) = (shell.clone(), entry.liveness_gen);
    sim.schedule_in(deadline, move |sim| {
        if shell.with_table(|table| table.expire(index, generation)) {
            shell.declared_dead(sim, index);
        }
    });
}

/// On the first member frame a shell receives, arms every one of its
/// first `members` entries not heard from yet: a member whose `Join`
/// never arrives would otherwise never be watched, and its downstreams
/// would wait on its origin head forever. Runs once, and not at all while
/// liveness is off.
pub(crate) fn arm_unheard<S: Shell>(
    shell: &S,
    sim: &mut Simulation,
    table: &mut GrantTable,
    members: usize,
) {
    if table.liveness.is_none() || std::mem::replace(&mut table.unheard_armed, true) {
        return;
    }
    for index in 0..members {
        if table.entries[index].liveness_gen == 0 {
            arm_watchdog(shell, sim, table, index);
        }
    }
}

/// One control frame, at any level and from either direction — the single
/// decode site. Every record of `payload` (a single record or a batch)
/// goes through `apply`, which resolves the wire id to a table entry,
/// applies the record and returns the entry's index if that was a sign of
/// life worth a recompute; those entries get their watchdog re-armed. A
/// malformed payload applies nothing and counts in
/// [`RtiStats::frames_rejected`]. Returns whether any entry was heard
/// from: the shell recomputes once per *frame*, which is exactly the
/// batching win — N records no longer trigger N fixpoints.
pub(crate) fn receive_frame<S: Shell>(
    shell: &S,
    sim: &mut Simulation,
    table: &mut GrantTable,
    payload: &[u8],
    mut apply: impl FnMut(&mut GrantTable, &CoordMsg) -> Option<usize>,
) -> bool {
    // Who to re-arm only matters where there is a watchdog.
    let watched = table.liveness.is_some();
    let mut alive = std::mem::take(&mut table.alive);
    let mut heard = false;
    let decoded = visit_control_records(payload, |msg| {
        if let Some(index) = apply(table, msg).map(|index| index as u16) {
            heard = true;
            if watched && !alive.contains(&index) {
                alive.push(index);
            }
        }
    });
    table.stats.frames_rejected += u64::from(decoded.is_err());
    for index in alive.drain(..) {
        arm_watchdog(shell, sim, table, usize::from(index));
    }
    table.alive = alive;
    heard
}

/// A shared handle to the centralized coordinator: the one coordinator
/// shell, built without an uplink.
///
/// Cheap to clone; clones share the coordinator.
#[derive(Clone)]
pub struct Rti(Coordinator);

impl fmt::Debug for Rti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rti").field("stats", &self.stats()).finish()
    }
}

impl Rti {
    /// Creates the RTI on `node`, offers the coordination service and
    /// starts listening for control messages.
    ///
    /// The coordination channel must deliver messages **in order** per
    /// link (the default for every [`LinkConfig`](dear_sim::LinkConfig)
    /// constructor; the analogue of Lingua Franca's TCP connections to
    /// its RTI). NET reports carry no sequence numbers, so a link
    /// configured with `.reordering()` could deliver a stale head last
    /// and stall grants until the next report.
    #[must_use]
    pub fn new(sim: &mut Simulation, net: &NetworkHandle, sd: &SdRegistry, node: NodeId) -> Self {
        sim.observe().set_lane_name(dear_observe::Lane::Root, "rti");
        Rti(Coordinator::new(sim, net, sd, node, None))
    }

    /// Registers a federate. The coordinator need not know where it is
    /// hosted: it answers on the federate's eventgroup.
    ///
    /// `external` declares whether the federate receives physical inputs
    /// from outside the federation (see the module docs); when in doubt,
    /// `true` is always sound, merely more conservative.
    ///
    /// # Errors
    ///
    /// [`FederationError::Full`] once the federate id space is exhausted
    /// — at fleet scale an over-subscribed coordinator is a
    /// reportable deployment error, not a crash.
    pub fn register(&self, name: &str, external: bool) -> Result<FederateId, FederationError> {
        // A flat shell's federate ids are its table indices.
        let index = self.0.register_member(None, name, external)?;
        Ok(FederateId(index as u16))
    }

    /// Declares a coordination edge: messages caused by `upstream`
    /// processing tag `t` reach `downstream` with a tag of at least
    /// `edge_add(t, min_delay)`. For a DEAR transactor edge the delay is
    /// the sender deadline plus the network and clock bounds, `D + L + E`.
    pub fn connect(&self, upstream: FederateId, downstream: FederateId, min_delay: Duration) {
        assert!(!min_delay.is_negative(), "edge delays must be non-negative");
        let (upstream, downstream) = (usize::from(upstream.0), usize::from(downstream.0));
        self.0
            .with_table(|table| table.connect(upstream, downstream, min_delay));
    }

    /// Enables the coordination **control-plane diet**: DNET suppression
    /// pushes, grant-ahead windows, and the solver's periodic fast path.
    /// Must be called before the platforms are constructed (they query it
    /// once, at build time, to decide whether to declare their lattice
    /// and honour suppression). Opt-in: without this call the RTI's
    /// control traffic — and therefore every trace — is unchanged.
    pub fn enable_control_diet(&self) {
        self.0.with_table(|table| table.set_control_diet(true));
    }

    /// Whether [`Rti::enable_control_diet`] has been called.
    #[must_use]
    pub(crate) fn control_diet_enabled(&self) -> bool {
        self.0.with_table(|table| table.diet)
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RtiStats {
        self.0.with_table(|table| table.stats)
    }

    /// Enables the liveness watchdog: a connected federate that sends no
    /// control message (NET/LTC) for longer than `deadline` is declared
    /// **dead** — its LBTS contribution is released (like a resignation)
    /// so surviving federates keep advancing, the death is counted in
    /// [`RtiStats::deaths`] and recorded in the simulation trace under
    /// `"rti"`.
    ///
    /// The deadline should cover the federate's longest legitimate
    /// silence: its heartbeat period (see
    /// [`CoordinatedPlatform::enable_heartbeat`]) plus the coordination
    /// link's worst-case latency — a federate blocked on a grant reports
    /// nothing on the normal path, so pair liveness with heartbeats or
    /// blocked survivors will be declared dead too. Control messages from
    /// a dead federate are ignored, with one exception: a `Rejoin` record
    /// from a federate that replayed its durable log revives the entry at
    /// its replayed completed tag (see
    /// [`CoordinatedPlatform::recover`](crate::CoordinatedPlatform::recover)).
    ///
    /// [`CoordinatedPlatform::enable_heartbeat`]:
    ///     crate::CoordinatedPlatform::enable_heartbeat
    ///
    /// Detection is opt-in: without this call the RTI schedules no
    /// watchdog events, so fault-free scenarios keep their calendars —
    /// and therefore their traces — exactly as before.
    pub fn enable_liveness(&self, deadline: Duration) {
        assert!(deadline > Duration::ZERO, "deadline must be positive");
        self.0.with_table(|table| table.liveness = Some(deadline));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_time::Instant;

    fn lattice_entry(period_ms: i64) -> FederateEntry {
        let mut entry = FederateEntry::new("f", false);
        entry.period = Some(Duration::from_millis(period_ms));
        entry
    }

    #[test]
    fn grant_horizon_pushes_the_bound_by_the_window() {
        let feds = vec![lattice_entry(10)];
        let bound = Tag::at(Instant::from_millis(100));
        assert_eq!(
            grant_horizon(&feds, 0, bound),
            Some(Tag::at(Instant::from_millis(
                100 + 10 * u64::from(GRANT_WINDOW_PERIODS)
            )))
        );
    }

    #[test]
    fn grant_horizon_clamps_instead_of_saturating_into_the_sentinel() {
        let feds = vec![lattice_entry(10)];
        // A bound so late that `bound + 8g` overflows u64 nanoseconds: no
        // window, rather than a saturated tag at `Instant::MAX` (the wire
        // sentinel's reserved time point).
        let bound = Tag::new(Instant::from_nanos(u64::MAX - 1), 2);
        assert_eq!(grant_horizon(&feds, 0, bound), None);
        // A bound that lands *exactly* on `Instant::MAX` clamps too.
        let window_ns =
            Duration::from_millis(10).as_nanos().unsigned_abs() * u64::from(GRANT_WINDOW_PERIODS);
        let exact = Tag::new(Instant::from_nanos(u64::MAX - window_ns), 0);
        assert_eq!(grant_horizon(&feds, 0, exact), None);
        // One nanosecond earlier the window is intact and keeps the
        // bound's microstep.
        let safe = Tag::new(Instant::from_nanos(u64::MAX - window_ns - 1), 7);
        assert_eq!(
            grant_horizon(&feds, 0, safe),
            Some(Tag::new(Instant::from_nanos(u64::MAX - 1), 7))
        );
        // The unconstrained sentinel itself never gets a window.
        assert_eq!(grant_horizon(&feds, 0, TAG_MAX), None);
    }
}
