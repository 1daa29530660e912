//! The grant-stream oracle: the full-recompute `solve_grants` this crate
//! shipped before the incremental solver, kept as the reference the
//! delta-driven [`GrantTable::round`] must match **element for element**
//! after every control record, on generated graphs and generated
//! histories.
//!
//! It lives inside the crate (not under `tests/`) because it drives the
//! crate-private federate table directly; the solver-level half of the
//! oracle, which needs only the public `LbtsGraph`/`LbtsSolver` surface,
//! is `tests/incremental_oracle.rs`.

use crate::rti::{
    grant_horizon, FederateEntry, FederateGraph, Grant, GrantTable, RtiStats, GRANT_WINDOW_PERIODS,
};
use crate::solver::{LbtsSolver, TAG_MAX};
use dear_someip::{CoordKind, CoordMsg, WireTag, DNET_NET_LATTICE, DNET_SINK, TAG_NEVER};
use dear_time::Duration;
use dear_transactors::tag_to_wire;
use proptest::prelude::*;
use support::{ptag_scan, random_edge, Rng, Shape};

/// The generator and the reference PTAG pass, shared with
/// `tests/incremental_oracle.rs`.
#[path = "../tests/support/mod.rs"]
mod support;

/// The pre-incremental `solve_grants`, verbatim: a full solve, then the
/// TAG, PTAG and DNET passes over `0..grantable`.
fn solve_grants_reference(
    federates: &mut [FederateEntry],
    stats: &mut RtiStats,
    grantable: usize,
    diet: bool,
) -> Vec<Grant> {
    let lbts = LbtsSolver::new().solve(&FederateGraph(federates)).to_vec();
    let mut grants = Vec::new();
    for (f, &bound) in lbts.iter().enumerate().take(grantable) {
        let entry = &federates[f];
        if !entry.connected || entry.released() {
            continue;
        }
        if entry.last_granted.is_none_or(|g| bound > g) {
            let window = if diet {
                grant_horizon(federates, f, bound)
            } else {
                None
            };
            match window {
                Some(horizon) => {
                    grants.push((f as u16, CoordKind::Tag, bound, tag_to_wire(horizon)));
                    federates[f].last_granted = Some(horizon);
                    stats.window_tags += u64::from(GRANT_WINDOW_PERIODS);
                }
                None => {
                    grants.push((f as u16, CoordKind::Tag, bound, WireTag::new(0, 0)));
                    federates[f].last_granted = Some(bound);
                }
            }
            stats.tags_issued += 1;
        }
    }
    let candidate = ptag_scan(&lbts, &FederateGraph(federates), |f| {
        let entry = &federates[f];
        f < grantable && entry.connected && entry.last_ptag.is_none_or(|p| entry.head > p)
    });
    if let Some((tag, f)) = candidate {
        grants.push((f as u16, CoordKind::Ptag, tag, WireTag::new(0, 0)));
        federates[f].last_ptag = Some(tag);
        stats.ptags_issued += 1;
    }
    if diet {
        for f in 0..grantable {
            let entry = &federates[f];
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
                let horizon = if entry.is_sink() { TAG_MAX } else { lbts[f] };
                grants.push((f as u16, CoordKind::Dnet, horizon, WireTag::new(0, flags)));
                federates[f].last_dnet = Some(flags);
                stats.dnets_sent += 1;
            }
        }
    }
    grants
}

/// A coordinator's table twice over — `reference` recomputed from scratch
/// every round, `table` kept up to date incrementally — fed the same
/// records and compared after every one.
struct Twin {
    reference: Vec<FederateEntry>,
    reference_stats: RtiStats,
    table: GrantTable,
    /// Members; the entries beyond are zone-style proxies.
    grantable: usize,
    diet: bool,
}

impl Twin {
    /// The liveness watchdog's verdict on entry `f`, on both sides.
    fn expire(&mut self, f: usize) {
        self.reference[f].dead = true;
        self.reference_stats.deaths += 1;
        let generation = self.table.entries[f].liveness_gen;
        assert!(self.table.expire(f, generation));
    }

    /// A floor relayed into proxy `msg.federate`, on both sides.
    fn relay(&mut self, msg: &CoordMsg) {
        let f = usize::from(msg.federate);
        let expected = self.reference[f].apply_floor(msg);
        assert_eq!(self.table.relay(f, msg), expected);
    }

    fn connect(&mut self, up: usize, down: usize, delay: Duration) {
        self.reference[down].upstream.push((up as u16, delay));
        self.reference[up].has_downstream = true;
        self.table.connect(up, down, delay);
    }

    fn control(&mut self, msg: &CoordMsg) {
        let f = usize::from(msg.federate);
        let expected = self.reference[f].apply_control(msg, &mut self.reference_stats);
        assert_eq!(self.table.control(f, msg), expected);
    }

    /// One round on both sides; everything observable must agree.
    fn round(&mut self, context: &str) {
        let expected = solve_grants_reference(
            &mut self.reference,
            &mut self.reference_stats,
            self.grantable,
            self.diet,
        );
        let grants = self.table.round(self.grantable);
        assert_eq!(grants, expected, "grant stream diverged {context}");
        self.table.recycle(grants);
        assert_eq!(
            self.table.stats, self.reference_stats,
            "counters diverged {context}"
        );
        let fresh = LbtsSolver::new()
            .solve(&FederateGraph(&self.reference))
            .to_vec();
        assert_eq!(
            self.table.solver.lbts(),
            &fresh[..],
            "LBTS diverged {context}"
        );
        for (a, b) in self.table.entries.iter().zip(&self.reference) {
            assert_eq!(
                (a.last_granted, a.last_ptag, a.last_dnet),
                (b.last_granted, b.last_ptag, b.last_dnet),
                "high-water marks diverged {context}"
            );
        }
    }
}

fn run_history(seed: u64, shape: Shape, diet: bool) {
    let mut rng = Rng(seed);
    let n = 2 + rng.below(9);
    let grantable = n - rng.below(n.min(3));
    let mut twin = Twin {
        reference: Vec::new(),
        reference_stats: RtiStats::default(),
        table: GrantTable::new(),
        grantable,
        diet,
    };
    twin.table.set_control_diet(diet);
    for _ in 0..n {
        let external = rng.chance(30);
        twin.reference.push(FederateEntry::new("f", external));
        twin.table.register("f", external);
    }
    for _ in 0..rng.below(2 * n) {
        if let Some((up, down, delay)) = random_edge(&mut rng, n, shape) {
            twin.connect(up, down, delay);
        }
    }
    let mut incarnation = 0u32;
    for step in 0..120 {
        let f = rng.below(n);
        let id = f as u16;
        let what = rng.below(100);
        match what {
            // A member's reports; a proxy's relayed floor — a monotone
            // rise, or a retreat to wherever the rejoined member resumed.
            0..=34 if f >= grantable => {
                let kind = if rng.chance(50) {
                    CoordKind::Floor
                } else {
                    CoordKind::Rejoin
                };
                twin.relay(&CoordMsg::new(kind, id, tag_to_wire(rng.tag())));
            }
            0..=34 => {
                let head = if rng.chance(10) { TAG_MAX } else { rng.tag() };
                twin.control(&CoordMsg::net(
                    id,
                    tag_to_wire(head),
                    tag_to_wire(rng.tag()),
                ));
            }
            35..=59 => twin.control(&CoordMsg::new(CoordKind::Ltc, id, tag_to_wire(rng.tag()))),
            60..=69 => twin.control(&CoordMsg::new(CoordKind::Join, id, TAG_NEVER)),
            70..=74 => {
                let period = [0u64, 1_000_000, 2_000_000][rng.below(3)];
                twin.control(&CoordMsg::new(
                    CoordKind::Period,
                    id,
                    WireTag::new(period, 0),
                ));
            }
            75..=77 => twin.control(&CoordMsg::new(CoordKind::Resign, id, TAG_NEVER)),
            78..=82 if !twin.reference[f].released() => twin.expire(f),
            83..=89 => {
                // Sometimes stale on purpose: the incarnation guard must
                // reject it on both sides.
                if rng.chance(80) {
                    incarnation += 1;
                }
                let replayed = if rng.chance(20) {
                    TAG_NEVER
                } else {
                    tag_to_wire(rng.tag())
                };
                twin.control(&CoordMsg {
                    kind: CoordKind::Rejoin,
                    federate: id,
                    tag: replayed,
                    fence: WireTag::new(0, incarnation),
                });
            }
            // Echoes a coordinator must ignore.
            90..=91 => twin.control(&CoordMsg::new(CoordKind::Tag, id, tag_to_wire(rng.tag()))),
            92..=95 => {
                if let Some((up, down, delay)) = random_edge(&mut rng, n, shape) {
                    twin.connect(up, down, delay);
                }
            }
            // A round nothing provoked (a heartbeat): only a queued PTAG
            // candidate may come out of it.
            _ => {}
        }
        // A zone applies a whole batch before its one recompute.
        if rng.chance(20) {
            continue;
        }
        twin.round(&format!(
            "at step {step} (seed {seed:#x}, {shape:?}, diet {diet}, case {what})"
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After **every** round of a random history of Join/NET/LTC/Period/
    /// Resign/death/Rejoin records, proxy floor relays and interleaved
    /// `connect`s, the incremental `solve_grants` has emitted exactly the
    /// grant list of the full recompute, left the same counters and
    /// high-water marks, and holds the LBTS vector of a from-scratch
    /// solve — on DAGs, positive-delay cycles and zero-delay cycles, with
    /// `external` fences, lattice periods and proxies beyond `grantable`,
    /// diet off and on.
    #[test]
    fn incremental_grants_equal_the_full_recompute(seed in any::<u64>()) {
        for shape in Shape::ALL {
            for diet in [false, true] {
                run_history(seed, shape, diet);
            }
        }
    }
}
