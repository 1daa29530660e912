//! What the two halves of the incremental-solver oracle share: the
//! seeded generator and the pre-incremental PTAG pass they both compare
//! against. Included by `tests/incremental_oracle.rs` (public surface)
//! and, through `#[path]`, by the in-crate `src/oracle.rs`.

use dear_core::Tag;
use dear_federation::{edge_add, node_floor, LbtsGraph, TAG_MAX};
use dear_time::{Duration, Instant};

/// SplitMix64: a case's whole history derives from one printed seed.
pub(super) struct Rng(pub u64);

impl Rng {
    pub(super) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub(super) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    pub(super) fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
    /// A tag from a domain small enough that heads, floors and LBTS
    /// values collide: cut-offs and PTAGs hinge on exact equality.
    pub(super) fn tag(&mut self) -> Tag {
        Tag::new(
            Instant::from_millis(self.below(12) as u64),
            self.below(2) as u32,
        )
    }
}

/// Which edges a generated graph may contain.
#[derive(Clone, Copy, Debug)]
pub(super) enum Shape {
    /// Edges from lower to higher index only.
    Dag,
    /// Any direction, every delay positive.
    PositiveCycles,
    /// Any direction (self-loops included), zero delays allowed.
    ZeroDelayCycles,
}

impl Shape {
    pub(super) const ALL: [Shape; 3] = [Shape::Dag, Shape::PositiveCycles, Shape::ZeroDelayCycles];
}

/// An edge `(upstream, downstream, delay)` among `n` nodes; `None` where
/// the shape forbids the one drawn.
pub(super) fn random_edge(
    rng: &mut Rng,
    n: usize,
    shape: Shape,
) -> Option<(usize, usize, Duration)> {
    let (a, b) = (rng.below(n), rng.below(n));
    let delay = match rng.below(3) {
        0 if !matches!(shape, Shape::PositiveCycles) => Duration::ZERO,
        1 => Duration::from_millis(2),
        _ => Duration::from_millis(1),
    };
    match shape {
        Shape::Dag => (a != b).then(|| (a.min(b), a.max(b), delay)),
        Shape::PositiveCycles | Shape::ZeroDelayCycles => Some((a, b, delay)),
    }
}

/// The PTAG pass as it was before the zero-delay list: every node is
/// looked at.
pub(super) fn ptag_scan(
    lbts: &[Tag],
    graph: &impl LbtsGraph,
    eligible: impl Fn(usize) -> bool,
) -> Option<(Tag, usize)> {
    let mut candidate: Option<(Tag, usize)> = None;
    for f in 0..graph.len() {
        let view = graph.node(f);
        if view.released
            || graph.upstream(f).is_empty()
            || view.head >= TAG_MAX
            || view.head != lbts[f]
            || !eligible(f)
        {
            continue;
        }
        let justified = graph.upstream(f).iter().all(|&(u, d)| {
            let up = graph.node(usize::from(u));
            let uf = node_floor(&up, lbts[usize::from(u)]);
            edge_add(uf, d) > view.head || (d.is_zero() && up.head >= view.head)
        });
        if justified && candidate.is_none_or(|(t, i)| (view.head, f) < (t, i)) {
            candidate = Some((view.head, f));
        }
    }
    candidate
}
