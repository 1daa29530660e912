//! The equivalence oracle of the incremental LBTS solver, on the public
//! surface: after **every** step of a generated history over a generated
//! graph, `LbtsSolver::update` must hold exactly the vector a fresh
//! `LbtsSolver::solve` computes, must have reported every node whose
//! value moved, and `ptag_candidate` — which only looks at nodes with a
//! zero-delay upstream edge — must pick the winner of a scan over all
//! nodes.
//!
//! The grant-stream half of the oracle (incremental `GrantTable::round` ≡
//! the pre-incremental full recompute, record for record) drives the
//! crate-private federate table and therefore lives in the crate:
//! `src/oracle.rs`. Both run under the name filter `incremental`.

mod support;

use dear_core::Tag;
use dear_federation::{tag_succ, LbtsGraph, LbtsSolver, NodeView, TAG_MAX};
use dear_time::{Duration, Instant};
use proptest::prelude::*;
use support::{ptag_scan, random_edge, Rng, Shape};

struct Graph {
    nodes: Vec<NodeView>,
    edges: Vec<Vec<(u16, Duration)>>,
}

impl LbtsGraph for Graph {
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.nodes[i]
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.edges[i]
    }
}

fn run_history(seed: u64, shape: Shape) {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(14);
    let mut graph = Graph {
        nodes: (0..n)
            .map(|_| NodeView {
                released: false,
                external: rng.chance(30),
                completed: None,
                head: Tag::ORIGIN,
                fence: Tag::ORIGIN,
                period: None,
            })
            .collect(),
        edges: vec![Vec::new(); n],
    };
    for _ in 0..rng.below(2 * n + 1) {
        if let Some((up, down, delay)) = random_edge(&mut rng, n, shape) {
            graph.edges[down].push((up as u16, delay));
        }
    }
    let mut solver = LbtsSolver::new();
    let mut dirty: Vec<u16> = Vec::new();
    for step in 0..150 {
        let context = format!("at step {step} (seed {seed:#x}, {shape:?})");
        // One to three nodes move per step (a zone applies a whole batch
        // before its one recompute); sometimes none does (a heartbeat).
        dirty.clear();
        for _ in 0..[0, 1, 1, 1, 1, 2, 3][rng.below(7)] {
            let f = rng.below(n);
            let node = &mut graph.nodes[f];
            match rng.below(100) {
                // NET: a new head, a fence that only rises.
                0..=39 => {
                    node.head = if rng.chance(10) { TAG_MAX } else { rng.tag() };
                    node.fence = node.fence.max(rng.tag());
                }
                // LTC: the completed high-water mark.
                40..=64 => {
                    let tag = rng.tag();
                    node.completed = Some(node.completed.map_or(tag, |c| c.max(tag)));
                }
                // Period: declare, change or withdraw the lattice.
                65..=74 => {
                    node.period = [
                        None,
                        Some(Duration::from_millis(1)),
                        Some(Duration::from_millis(2)),
                    ][rng.below(3)];
                }
                // Resignation or death.
                75..=84 => node.released = true,
                // Rejoin: back at the replayed completed tag — the one
                // move that *lowers* floors downstream.
                85..=94 => {
                    node.released = false;
                    if rng.chance(20) {
                        (node.completed, node.head) = (None, Tag::ORIGIN);
                    } else {
                        let completed = rng.tag();
                        (node.completed, node.head) = (Some(completed), tag_succ(completed));
                    }
                }
                // connect: the shape of the graph changes.
                _ => {
                    if let Some((up, down, delay)) = random_edge(&mut rng, n, shape) {
                        graph.edges[down].push((up as u16, delay));
                        solver.invalidate();
                    }
                }
            }
            dirty.push(f as u16);
        }

        let before = solver.lbts().to_vec();
        let affected = solver.update(&graph, &dirty).to_vec();
        let fresh = LbtsSolver::new().solve(&graph).to_vec();
        assert_eq!(solver.lbts(), &fresh[..], "LBTS diverged {context}");

        assert!(
            affected.windows(2).all(|w| w[0] < w[1]),
            "affected must be strictly ascending {context}: {affected:?}"
        );
        if before.len() == n {
            for f in 0..n {
                if before[f] != fresh[f] || dirty.contains(&(f as u16)) {
                    assert!(
                        affected.contains(&(f as u16)),
                        "node {f} moved but was not reported {context}: {affected:?}"
                    );
                }
            }
        }

        // The coordinator-side eligibility is arbitrary to the solver.
        let mask = rng.next();
        let eligible = |f: usize| mask >> (f % 64) & 1 == 1;
        assert_eq!(
            solver.ptag_candidate(&graph, eligible),
            ptag_scan(&fresh, &graph, eligible),
            "PTAG candidate diverged {context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_lbts_equals_a_fresh_solve_after_every_step(seed in any::<u64>()) {
        for shape in Shape::ALL {
            run_history(seed, shape);
        }
    }
}

/// A floor raised inside a cycle must not creep up lap by lap from the
/// stale values in it (count-to-infinity): the SCC is re-solved from the
/// top. Pinned by hand because it is the case the design exists for.
#[test]
fn incremental_update_re_solves_a_raised_cycle_from_the_top() {
    let at = |ms| Tag::at(Instant::from_millis(ms));
    let node = |head| NodeView {
        released: false,
        external: false,
        completed: None,
        head,
        fence: Tag::ORIGIN,
        period: None,
    };
    // 0 → 1 ⇄ 2 with 1 ms edges; node 0 holds the cycle down at 5 ms.
    let ms = Duration::from_millis(1);
    let mut graph = Graph {
        nodes: vec![node(at(5)), node(TAG_MAX), node(TAG_MAX)],
        edges: vec![vec![], vec![(0, ms), (2, ms)], vec![(1, ms)]],
    };
    let mut solver = LbtsSolver::new();
    assert_eq!(solver.update(&graph, &[]), &[0, 1, 2]);
    assert_eq!(solver.lbts(), &[TAG_MAX, at(6), at(7)]);
    // Node 0 resigns: nothing bounds the idle cycle any more. Relaxing
    // from the stale 6/7 ms would only ever reach 8, 9, 10, ...
    graph.nodes[0].released = true;
    assert_eq!(solver.update(&graph, &[0]), &[0, 1, 2]);
    assert_eq!(solver.lbts(), &[TAG_MAX, TAG_MAX, TAG_MAX]);
    // A round that moved nothing relaxes nothing and reports nothing.
    assert_eq!(solver.update(&graph, &[]), &[] as &[u16]);
}
