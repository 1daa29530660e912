//! The LBTS solver: the Chandy–Misra-style fixpoint shared by every
//! coordination level.
//!
//! PR 2's flat [`Rti`](crate::Rti) computed LBTS inline over its federate
//! table. The hierarchical coordinator runs the **same** computation at
//! two levels — each zone solves over its members (plus proxies standing
//! in for upstream zones), the root solves over zone summaries — so the
//! fixpoint lives here, behind a small graph abstraction, and a flat
//! federation is simply the one-zone special case.
//!
//! A node's **floor** (the earliest tag it may still process or send at)
//! is `max(succ(completed), min(head, arrival_floor))`, where the arrival
//! floor is the node's own LBTS (plus, for nodes with physical inputs
//! from outside the federation, the reported fence). Floors propagate
//! along edges shifted by the edge delay until stable; values start at
//! [`TAG_MAX`] and only decrease, and simple paths bound the result, so
//! `n` rounds suffice. That sweep is [`LbtsSolver::solve`].
//!
//! A coordinator runs it once per topology. Between control messages the
//! solver keeps its vector, and [`LbtsSolver::update`] re-relaxes only the
//! downstream cone of the nodes whose state moved — in topological order
//! of the SCC condensation, so every value is computed once, from final
//! inputs, and propagation stops wherever a value comes out unchanged.
//! The result is the same greatest fixpoint the sweep finds: both are
//! exact, the oracle tests hold them equal after every step.

use dear_core::Tag;
use dear_time::{Duration, Instant};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The greatest representable tag, used as the "no constraint" sentinel.
/// Round-trips through the wire encoding as `dear_someip::TAG_NEVER`.
pub const TAG_MAX: Tag = Tag::new(Instant::MAX, u32::MAX);

/// The strict successor of a tag (saturating at [`TAG_MAX`]).
#[must_use]
pub fn tag_succ(tag: Tag) -> Tag {
    if tag >= TAG_MAX {
        TAG_MAX
    } else {
        tag.delay(Duration::ZERO)
    }
}

/// The earliest tag a message processed at `tag` can carry after an edge
/// with minimum delay `delay` (a DEAR edge preserves the microstep and
/// adds `D + L + E` to the time point; a zero-delay edge is the identity).
#[must_use]
pub fn edge_add(tag: Tag, delay: Duration) -> Tag {
    if delay.is_zero() || tag >= TAG_MAX {
        tag
    } else {
        Tag::new(tag.time.saturating_add(delay), tag.microstep)
    }
}

/// The earliest tag on the periodic lattice `g` **strictly after**
/// `completed`: the next whole multiple of `g` at microstep zero. A node
/// whose every local event source is a static timer with offsets and
/// periods that are multiples of `g` cannot originate events off this
/// lattice, so its stale head (≤ `completed`) may be leapt forward to it
/// wholesale instead of one microstep at a time.
#[must_use]
pub(crate) fn lattice_next(completed: Tag, g: Duration) -> Tag {
    let g_ns = g.as_nanos();
    if g_ns <= 0 || completed >= TAG_MAX {
        return tag_succ(completed);
    }
    let g_ns = g_ns.unsigned_abs();
    let now_ns = completed.time.as_nanos();
    // Next strict multiple of g: completing exactly on a lattice point
    // still advances a full period (the event at that point is done).
    // Overflow *or* landing exactly on `Instant::MAX` both clamp to the
    // sentinel: a tag with time `u64::MAX` but microstep zero would sit
    // between every real tag and [`TAG_MAX`], in wire-sentinel territory
    // (`dear_someip::TAG_NEVER` reserves that time point).
    match now_ns.checked_add(g_ns - now_ns % g_ns) {
        Some(next) if next < Instant::MAX.as_nanos() => Tag::at(Instant::from_nanos(next)),
        _ => TAG_MAX,
    }
}

/// The floor-relevant state of one node, as seen by the solver. A node is
/// a federate at zone level and a whole zone at root level.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// The node no longer constrains anyone (resigned or declared dead):
    /// its floor is [`TAG_MAX`].
    pub released: bool,
    /// Whether the node takes physical inputs from outside the
    /// federation; such nodes bound future tags by the reported fence.
    pub external: bool,
    /// Last completed tag, if any (LTC high-water mark).
    pub completed: Option<Tag>,
    /// Earliest pending event tag ([`TAG_MAX`] when idle; the origin
    /// means "unknown, assume anything").
    pub head: Tag,
    /// Physical-time fence (meaningful only when `external`).
    pub fence: Tag,
    /// The node's declared **periodic event lattice**, if any: every
    /// locally originated event lands on a whole multiple of this
    /// duration at microstep zero. Lets [`node_floor`] leap a stale head
    /// (≤ `completed`) to the next lattice point instead of waiting for the
    /// next NET — the periodic fast path of the control-plane diet.
    pub period: Option<Duration>,
}

/// A coordination graph the solver can run over: indexed nodes plus
/// per-node upstream edge lists `(upstream index, minimum tag delay)`.
pub trait LbtsGraph {
    /// Number of nodes.
    fn len(&self) -> usize;
    /// Whether the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The floor-relevant state of node `i`.
    fn node(&self, i: usize) -> NodeView;
    /// Incoming edges of node `i`.
    fn upstream(&self, i: usize) -> &[(u16, Duration)];
}

/// The non-transitive part of a node's floor: what its own reports
/// promise about its future processing, with `arrival` (the transitive
/// bound on its future message arrivals) plugged in.
#[must_use]
pub fn node_floor(view: &NodeView, arrival: Tag) -> Tag {
    if view.released {
        return TAG_MAX;
    }
    let arrival_floor = if view.external {
        arrival.min(view.fence)
    } else {
        arrival
    };
    // Periodic fast path: a lattice-declared node whose reported head is
    // stale (already completed past it) cannot originate anything before
    // the next lattice point, so the solver refreshes the head itself
    // instead of stalling until the node's next NET arrives.
    let head = match (view.period, view.completed) {
        (Some(g), Some(c)) if view.head <= c => lattice_next(c, g),
        _ => view.head,
    };
    let reported = head.min(arrival_floor);
    view.completed
        .map_or(reported, |c| tag_succ(c).max(reported))
}

/// `Topology::scc` flag: the SCC is waiting in the worklist.
const QUEUED: u8 = 1;
/// `Topology::scc` flag: the SCC contains a cycle (several members, or
/// one with a self-loop).
const CYCLIC: u8 = 2;

/// What the incremental path knows about the graph's *shape*: who is
/// downstream of whom, in which order SCCs must be relaxed, and which
/// nodes can ever need a provisional grant. Derived from the edge lists
/// alone, so it survives every NET/LTC and is rebuilt only after
/// [`LbtsSolver::invalidate`]. A few flat vectors, `O(nodes + edges)`.
#[derive(Debug, Default)]
struct Topology {
    /// CSR downstream adjacency: the successors of node `u` are
    /// `down[down_off[u]..down_off[u + 1]]`.
    down_off: Vec<u32>,
    down: Vec<u16>,
    /// The nodes in topological order of the SCC condensation (upstream
    /// SCCs first), the members of one SCC adjacent.
    order: Vec<u16>,
    /// Per node: the position in `order` of its SCC's first member. That
    /// position names the SCC and is its topological rank.
    rank: Vec<u16>,
    /// Per SCC (indexed by rank): [`QUEUED`] | [`CYCLIC`].
    scc: Vec<u8>,
    /// Nodes with at least one zero-delay upstream edge, ascending: the
    /// only possible PTAG candidates (see [`LbtsSolver::ptag_candidate`]).
    zero_delay: Vec<u16>,
}

impl Topology {
    /// Puts the SCCs of `u`'s successors on the worklist — all but the
    /// SCC ranked `skip`.
    fn enqueue_downstream(
        &mut self,
        queue: &mut BinaryHeap<Reverse<u16>>,
        u: u16,
        skip: Option<u16>,
    ) {
        let u = usize::from(u);
        for &w in &self.down[self.down_off[u] as usize..self.down_off[u + 1] as usize] {
            let p = self.rank[usize::from(w)];
            let scc = &mut self.scc[usize::from(p)];
            if Some(p) != skip && *scc & QUEUED == 0 {
                *scc |= QUEUED;
                queue.push(Reverse(p));
            }
        }
    }

    /// Rebuilds every table from the graph's edge lists. `stack` is
    /// borrowed scratch, left empty. Returns the number of SCCs and the
    /// size of the largest cyclic one.
    fn build(&mut self, graph: &impl LbtsGraph, stack: &mut Vec<u16>) -> (usize, usize) {
        let n = graph.len();
        self.down_off.clear();
        self.down_off.resize(n + 1, 0);
        self.zero_delay.clear();
        for f in 0..n {
            let ups = graph.upstream(f);
            for &(u, _) in ups {
                self.down_off[usize::from(u) + 1] += 1;
            }
            if ups.iter().any(|(_, d)| d.is_zero()) {
                self.zero_delay.push(f as u16);
            }
        }
        for u in 0..n {
            self.down_off[u + 1] += self.down_off[u];
        }
        // `down_off[u + 1]` is the end of `u`'s run. Filling back to front
        // walks it down to the run's start, which leaves the whole table
        // shifted by one slot; shift it back afterwards.
        let edges = self.down_off[n];
        self.down.clear();
        self.down.resize(edges as usize, 0);
        for f in (0..n).rev() {
            for &(u, _) in graph.upstream(f) {
                let slot = &mut self.down_off[usize::from(u) + 1];
                *slot -= 1;
                self.down[*slot as usize] = f as u16;
            }
        }
        self.down_off.copy_within(1.., 0);
        self.down_off[n] = edges;

        // Tarjan over the *upstream* edges: an SCC is emitted once all the
        // SCCs it depends on have been, so emission order is the order
        // relaxation needs. `visit[v]` is the DFS number (0 = unvisited,
        // MAX = already emitted, which makes the on-stack test implicit)
        // and `visit[n + v]` the low-link.
        self.order.clear();
        self.rank.clear();
        self.rank.resize(n, 0);
        self.scc.clear();
        self.scc.resize(n, 0);
        let mut visit = vec![0u32; 2 * n];
        let mut dfs: Vec<(u16, u32)> = Vec::new();
        let (mut counter, mut sccs, mut largest_cycle) = (0u32, 0, 0);
        stack.clear();
        for root in 0..n {
            if visit[root] != 0 {
                continue;
            }
            dfs.push((root as u16, 0));
            while let Some(top) = dfs.last_mut() {
                let v = usize::from(top.0);
                if top.1 == 0 {
                    counter += 1;
                    (visit[v], visit[n + v]) = (counter, counter);
                    stack.push(v as u16);
                }
                let edge = graph.upstream(v).get(top.1 as usize);
                top.1 += 1;
                if let Some(&(w, _)) = edge {
                    if visit[usize::from(w)] == 0 {
                        dfs.push((w, 0));
                    } else {
                        visit[n + v] = visit[n + v].min(visit[usize::from(w)]);
                    }
                    continue;
                }
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let parent = n + usize::from(parent);
                    visit[parent] = visit[parent].min(visit[n + v]);
                }
                if visit[n + v] != visit[v] {
                    continue;
                }
                let first = self.order.len();
                loop {
                    let w = stack.pop().expect("an SCC's root is on the stack");
                    visit[usize::from(w)] = u32::MAX;
                    self.rank[usize::from(w)] = first as u16;
                    self.order.push(w);
                    if usize::from(w) == v {
                        break;
                    }
                }
                sccs += 1;
                let size = self.order.len() - first;
                if size > 1 || graph.upstream(v).iter().any(|&(u, _)| usize::from(u) == v) {
                    self.scc[first] = CYCLIC;
                    largest_cycle = largest_cycle.max(size);
                }
            }
        }
        (sccs, largest_cycle)
    }
}

/// `lbts[f]` from the current values of `f`'s upstreams.
fn relax(graph: &impl LbtsGraph, lbts: &[Tag], f: usize) -> Tag {
    graph.upstream(f).iter().fold(TAG_MAX, |bound, &(u, d)| {
        let u = usize::from(u);
        bound.min(edge_add(node_floor(&graph.node(u), lbts[u]), d))
    })
}

/// The reusable LBTS fixpoint. Keeps the LBTS vector *between* calls, so
/// a coordinator pays a full [`LbtsSolver::solve`] once per topology and
/// an [`LbtsSolver::update`] — work proportional to what moved — per
/// control message. Owns all its buffers: on a steady topology neither
/// entry point allocates.
#[derive(Debug, Default)]
pub struct LbtsSolver {
    lbts: Vec<Tag>,
    topology: Topology,
    /// `topology` matches the graph's current edge lists.
    indexed: bool,
    /// Worklist of SCC ranks awaiting relaxation, lowest (most upstream)
    /// first, so every SCC is relaxed at most once per update and only
    /// after everything it depends on is final.
    queue: BinaryHeap<Reverse<u16>>,
    /// Result of the latest update: see [`LbtsSolver::affected`].
    affected: Vec<u16>,
    /// Scratch: a cyclic SCC's values before it is re-solved.
    before: Vec<Tag>,
}

impl LbtsSolver {
    /// Creates a solver with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        LbtsSolver::default()
    }

    /// Declares that the graph's **shape** changed (a node or an edge was
    /// added, an edge delay changed, indices shifted): the next solve
    /// rebuilds the topology tables and the next [`LbtsSolver::update`]
    /// is a full solve. Changes of node *state* never need this.
    pub fn invalidate(&mut self) {
        self.indexed = false;
    }

    /// Runs the fixpoint from scratch: `lbts[f] = min` over upstream edges
    /// `(u, d)` of `edge_add(floor(u), d)`, where `floor(u)` itself uses
    /// `lbts[u]`. Nodes without upstream edges keep the unconstrained
    /// [`TAG_MAX`]. Returns the per-node LBTS slice (valid until the next
    /// call). This is the cold-start path — the first solve of a topology
    /// — and the oracle [`LbtsSolver::update`] is tested against.
    pub fn solve(&mut self, graph: &impl LbtsGraph) -> &[Tag] {
        let n = graph.len();
        if !self.indexed || self.topology.rank.len() != n {
            let (sccs, largest_cycle) = self.topology.build(graph, &mut self.affected);
            self.queue.reserve(sccs);
            self.affected.reserve(n);
            self.before.reserve(largest_cycle);
            self.indexed = true;
        }
        self.lbts.clear();
        self.lbts.resize(n, TAG_MAX);
        for _ in 0..=n {
            let mut changed = false;
            for f in 0..n {
                let new = relax(graph, &self.lbts, f);
                if new != self.lbts[f] {
                    self.lbts[f] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        &self.lbts
    }

    /// Brings the LBTS vector of the previous solve or update up to date
    /// after the [`NodeView`]s of the `dirty` nodes changed — and nothing
    /// else did. Only the downstream cone of the dirty nodes is relaxed,
    /// SCC by SCC in topological order, stopping wherever a value comes
    /// out unchanged; the result equals [`LbtsSolver::solve`] exactly.
    ///
    /// A raised floor cannot be propagated round a cycle from the stale
    /// values in it (they would creep up one lap at a time), so a cyclic
    /// SCC that is reached is reset to [`TAG_MAX`] and iterated to its own
    /// fixpoint from its — already final — outside upstreams.
    ///
    /// Returns the affected nodes, ascending: those whose LBTS changed plus
    /// the dirty nodes themselves. After [`LbtsSolver::invalidate`],
    /// or on a solver that never solved, this *is* a full solve and every
    /// node is reported affected.
    pub fn update(&mut self, graph: &impl LbtsGraph, dirty: &[u16]) -> &[u16] {
        let n = graph.len();
        if !self.indexed || self.lbts.len() != n {
            self.solve(graph);
            self.affected.clear();
            self.affected.extend((0..n).map(|f| f as u16));
            return &self.affected;
        }
        let LbtsSolver {
            lbts,
            topology: t,
            queue,
            affected,
            before,
            ..
        } = self;
        affected.clear();
        for &v in dirty {
            affected.push(v);
            // A dirty member of a cyclic SCC has a successor inside it,
            // so this queues its own SCC too.
            t.enqueue_downstream(queue, v, None);
        }
        while let Some(Reverse(p)) = queue.pop() {
            let first = usize::from(p);
            t.scc[first] &= !QUEUED;
            if t.scc[first] & CYCLIC == 0 {
                let f = t.order[first];
                let new = relax(graph, lbts, usize::from(f));
                if new != lbts[usize::from(f)] {
                    lbts[usize::from(f)] = new;
                    affected.push(f);
                    t.enqueue_downstream(queue, f, None);
                }
                continue;
            }
            // The SCC's members sit side by side in `order`, all ranked `p`.
            let same_scc = |&&m: &&u16| t.rank[usize::from(m)] == p;
            let members = first..first + t.order[first..].iter().take_while(same_scc).count();
            before.clear();
            for &m in &t.order[members.clone()] {
                before.push(std::mem::replace(&mut lbts[usize::from(m)], TAG_MAX));
            }
            for _ in 0..=members.len() {
                let mut changed = false;
                for &m in &t.order[members.clone()] {
                    let new = relax(graph, lbts, usize::from(m));
                    if new != lbts[usize::from(m)] {
                        lbts[usize::from(m)] = new;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for (i, &old) in members.zip(before.iter()) {
                let m = t.order[i];
                if lbts[usize::from(m)] != old {
                    affected.push(m);
                    t.enqueue_downstream(queue, m, Some(p));
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// The LBTS values of the latest solve or update.
    #[must_use]
    pub fn lbts(&self) -> &[Tag] {
        &self.lbts
    }

    /// What the latest [`LbtsSolver::update`] touched, ascending and
    /// without duplicates: every node whose LBTS changed, plus the dirty
    /// nodes themselves. Anything a coordinator derives per node from the
    /// node's state and LBTS can only have changed for these.
    #[must_use]
    pub(crate) fn affected(&self) -> &[u16] {
        &self.affected
    }

    /// The nodes with an edge from `u` (one entry per edge), as of the
    /// latest solve.
    #[must_use]
    pub(crate) fn downstream(&self, u: usize) -> &[u16] {
        let t = &self.topology;
        &t.down[t.down_off[u] as usize..t.down_off[u + 1] as usize]
    }

    /// Picks the provisional-grant candidate that breaks a zero-delay
    /// stall, if any. A node whose own pending head *equals* its LBTS can
    /// never be released by a strict bound; if every binding upstream
    /// edge is zero-delay and stuck at or beyond the same tag, processing
    /// exactly the head is safe, so it may be granted provisionally. One
    /// grant per round keeps ties deterministic (minimal `(tag, index)`
    /// wins); the resulting LTC advances the rest.
    ///
    /// Only nodes with a zero-delay upstream edge are looked at: the edge
    /// that attains a node's LBTS carries exactly `head` when the two are
    /// equal, and the justification below accepts equality on a
    /// zero-delay edge only. A graph without such edges costs nothing.
    ///
    /// `eligible` supplies the caller-side conditions the solver cannot
    /// see (connected, not already granted this head, ...).
    #[must_use]
    pub fn ptag_candidate(
        &self,
        graph: &impl LbtsGraph,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<(Tag, usize)> {
        let mut candidate: Option<(Tag, usize)> = None;
        for &f in &self.topology.zero_delay {
            let f = usize::from(f);
            let view = graph.node(f);
            if view.released || view.head >= TAG_MAX || view.head != self.lbts[f] || !eligible(f) {
                continue;
            }
            let justified = graph.upstream(f).iter().all(|&(u, d)| {
                let u = usize::from(u);
                let up = graph.node(u);
                let uf = node_floor(&up, self.lbts[u]);
                edge_add(uf, d) > view.head || (d.is_zero() && up.head >= view.head)
            });
            // Ascending scan: a later node wins on a strictly smaller tag only.
            if justified && candidate.is_none_or(|(t, _)| view.head < t) {
                candidate = Some((view.head, f));
            }
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestGraph {
        nodes: Vec<NodeView>,
        edges: Vec<Vec<(u16, Duration)>>,
    }

    impl LbtsGraph for TestGraph {
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

    fn node(head_ms: u64) -> NodeView {
        NodeView {
            released: false,
            external: false,
            completed: None,
            head: Tag::at(Instant::from_millis(head_ms)),
            fence: Tag::ORIGIN,
            period: None,
        }
    }

    #[test]
    fn chain_propagates_shifted_floors() {
        // 0 --1ms--> 1 --1ms--> 2; node 0 pending at 10ms, the others
        // later, so the chain's floors are arrival-bounded.
        let mut g = TestGraph {
            nodes: vec![node(10), node(30), node(50)],
            edges: vec![
                vec![],
                vec![(0, Duration::from_millis(1))],
                vec![(1, Duration::from_millis(1))],
            ],
        };
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[0], TAG_MAX);
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(11)));
        assert_eq!(lbts[2], Tag::at(Instant::from_millis(12)));

        // Node 0 completes 10ms: its floor rises past the head.
        g.nodes[0].completed = Some(Tag::at(Instant::from_millis(10)));
        g.nodes[0].head = TAG_MAX;
        let lbts = solver.solve(&g);
        assert!(lbts[1] > Tag::at(Instant::from_millis(10)));
    }

    #[test]
    fn released_nodes_stop_constraining() {
        let mut g = TestGraph {
            nodes: vec![node(10), node(10)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].released = true;
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[1], TAG_MAX);
    }

    #[test]
    fn external_fence_bounds_the_floor() {
        let mut g = TestGraph {
            nodes: vec![node(10), node(10)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].external = true;
        g.nodes[0].head = TAG_MAX; // idle...
        g.nodes[0].fence = Tag::at(Instant::from_millis(3)); // ...but fenced at 3ms
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g);
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(4)));
    }

    #[test]
    fn zero_delay_cycle_needs_a_ptag() {
        // 0 <--0--> 1, both pending at the same tag: no strict bound can
        // advance, but the provisional candidate is justified.
        let g = TestGraph {
            nodes: vec![node(5), node(5)],
            edges: vec![vec![(1, Duration::ZERO)], vec![(0, Duration::ZERO)]],
        };
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[0], Tag::at(Instant::from_millis(5)));
        let cand = solver.ptag_candidate(&g, |_| true);
        // Deterministic tie-break: minimal (tag, index).
        assert_eq!(cand, Some((Tag::at(Instant::from_millis(5)), 0)));
        // Caller-side eligibility is honoured.
        assert_eq!(
            solver.ptag_candidate(&g, |f| f != 0),
            Some((Tag::at(Instant::from_millis(5)), 1))
        );
    }

    #[test]
    fn lattice_next_leaps_to_the_next_strict_multiple() {
        let g = Duration::from_millis(10);
        // Mid-period completion snaps up to the next lattice point.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(13)), g),
            Tag::at(Instant::from_millis(20))
        );
        // Completing exactly on a point still advances a full period.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(20)), g),
            Tag::at(Instant::from_millis(30))
        );
        // Microsteps collapse: the next lattice tag is at microstep zero.
        assert_eq!(
            lattice_next(Tag::new(Instant::from_millis(20), 3), g),
            Tag::at(Instant::from_millis(30))
        );
        // Degenerate lattice falls back to the plain successor.
        assert_eq!(
            lattice_next(Tag::at(Instant::from_millis(7)), Duration::ZERO),
            tag_succ(Tag::at(Instant::from_millis(7)))
        );
        assert_eq!(lattice_next(TAG_MAX, g), TAG_MAX);
    }

    #[test]
    fn lattice_next_clamps_at_the_sentinel_boundary() {
        let g = Duration::from_nanos(1 << 30);
        // A completion whose next lattice point would overflow u64 nanos
        // clamps to the sentinel instead of wrapping.
        let near_max = Tag::at(Instant::from_nanos(u64::MAX - 1));
        assert_eq!(lattice_next(near_max, g), TAG_MAX);
        // A next point that lands *exactly* on `Instant::MAX` is also the
        // sentinel: `(u64::MAX, 0)` would be a tag below `TAG_MAX` but in
        // TAG_NEVER's reserved time point. 5 divides `u64::MAX`, so the
        // lattice point after `u64::MAX - 5` is exactly `u64::MAX`.
        let g2 = Duration::from_nanos(5);
        let completed = Tag::at(Instant::from_nanos(u64::MAX - 5));
        assert_eq!(lattice_next(completed, g2), TAG_MAX);
        // Just below the boundary the arithmetic is untouched.
        let safe = Tag::at(Instant::from_nanos((1 << 30) + 5));
        assert_eq!(lattice_next(safe, g), Tag::at(Instant::from_nanos(2 << 30)));
    }

    #[test]
    fn periodic_lattice_refreshes_a_stale_head() {
        // Node 0 completed 20ms but its reported head is stale at 10ms.
        // Without a lattice the floor only clears succ(completed); with a
        // declared 10ms lattice the solver leaps the head to 30ms itself.
        let mut g = TestGraph {
            nodes: vec![node(10), node(50)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        g.nodes[0].completed = Some(Tag::at(Instant::from_millis(20)));
        let mut solver = LbtsSolver::new();
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::new(Instant::from_millis(21), 1));

        g.nodes[0].period = Some(Duration::from_millis(10));
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(31)));

        // A genuinely fresh head (beyond completed) is never overridden:
        // the node may know about an aperiodic message arrival.
        g.nodes[0].head = Tag::at(Instant::from_millis(25));
        let lbts = solver.solve(&g).to_vec();
        assert_eq!(lbts[1], Tag::at(Instant::from_millis(26)));
    }

    #[test]
    fn solver_reuses_its_scratch_buffer() {
        let g = TestGraph {
            nodes: vec![node(1), node(2)],
            edges: vec![vec![], vec![(0, Duration::from_millis(1))]],
        };
        let mut solver = LbtsSolver::new();
        let first = solver.solve(&g).as_ptr();
        for _ in 0..10 {
            let again = solver.solve(&g).as_ptr();
            assert_eq!(first, again, "steady-state solves must not reallocate");
        }
    }
}
