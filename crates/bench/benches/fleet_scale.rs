//! **Fleet-scale federation** — flat RTI vs the two-level hierarchical
//! coordinator on a star-of-chains fleet (PR 6 tentpole), each with and
//! without the coordination control-plane diet (PR 9: DNET suppression,
//! grant-ahead windows, periodic fast path).
//!
//! Topology: `Z` zones of `M = 10` federates each, chained inside the
//! zone (`m0 → m1 → … → m9`), with cross-zone edges from zone 0's chain
//! tail to every other zone's chain head — the "lead vehicle fans out to
//! the platoon" shape. Every federate runs a 10 ms timer; the data plane
//! is irrelevant here, coordination alone gates the tags.
//!
//! The flat RTI keeps one global LBTS fixpoint over all `N` federates; the
//! hierarchical coordinator keeps an `M`-node fixpoint per zone plus a
//! `Z`-node fixpoint at the root, and batches its control frames. Both
//! re-relax only the downstream cone of what a control message moved, so
//! neither pays for fleet size per message; the hierarchy pays an extra
//! zone→root→zone hop. The diet then shrinks the message volume
//! itself: timer-only federates declare their periodic lattice, so one
//! windowed TAG covers a run of future tags, and DNET-classified sinks
//! stop reporting. Per scale point the harness reports:
//!
//! * **grants/sec** — granted tags (plain TAG frames plus the tags
//!   covered by grant-ahead windows) per wall-clock second,
//! * **LBTS lag** — mean virtual time a federate spends blocked per
//!   received grant (the price of the extra coordination hop),
//! * **frames/grant** — control frames (reports in, grants + DNETs out)
//!   per granted tag: the diet's headline metric,
//! * control-frame counts (the batching win).
//!
//! Run with `cargo bench -p dear-bench --bench fleet_scale` (append
//! `-- --test` for a small smoke run that also checks determinism and
//! flat/hierarchical/diet equivalence, and writes the machine-readable
//! `BENCH_fleet_scale.json`). `DEAR_FLEET_MS` (default 100) sets the
//! virtual run length per point.

use dear_bench::{env_u64, header};
use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{
    CoordinatedPlatform, HierarchicalRti, LbtsGraph, LbtsSolver, NodeView, Rti, ZoneId, TAG_MAX,
};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry};
use dear_time::{Duration, Instant};
use dear_transactors::Outbox;
use std::fmt::Write as _;

const MEMBERS_PER_ZONE: usize = 10;
const SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Flat,
    Hierarchical,
}

struct Report {
    wall: std::time::Duration,
    tags_issued: u64,
    window_tags: u64,
    /// Control frames through the coordinator: reports in (NET + LTC)
    /// plus grants and DNET pushes out.
    control_frames: u64,
    grants_received: u64,
    grant_wait: Duration,
    batches: u64,
    dnets_sent: u64,
    windowed_grants: u64,
    /// FNV-1a over every federate's (processed, max tag) — the
    /// determinism witness.
    fingerprint: u64,
    processed: u64,
}

impl Report {
    /// Granted tags: plain TAG frames plus the tags covered by windowed
    /// grants (one frame standing in for a run of future tags).
    fn granted(&self) -> u64 {
        self.tags_issued + self.window_tags
    }

    fn grants_per_sec(&self) -> f64 {
        self.granted() as f64 / self.wall.as_secs_f64()
    }

    fn lag(&self) -> Duration {
        if self.grants_received == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(
                self.grant_wait.as_nanos() / i64::try_from(self.grants_received).expect("grants"),
            )
        }
    }

    /// Control frames per granted tag — what the diet is dieting.
    fn frames_per_grant(&self) -> f64 {
        if self.granted() == 0 {
            0.0
        } else {
            self.control_frames as f64 / self.granted() as f64
        }
    }
}

/// One timer-driven federate: no data plane, just tags to be granted.
/// Timer-only, so under the diet it declares a 10 ms periodic lattice.
fn fleet_member(name: &str) -> Runtime {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor(name, 0u64);
    let t = r.timer(
        "tick",
        Duration::from_millis(10),
        Some(Duration::from_millis(10)),
    );
    r.reaction("tick")
        .triggered_by(t)
        .body(|n: &mut u64, _| *n += 1);
    r.finish();
    Runtime::new(b.build().expect("fleet member builds"))
}

fn run_fleet(zones: usize, mode: Mode, diet: bool, horizon: Duration) -> Report {
    let n = zones * MEMBERS_PER_ZONE;
    let edge_delay = Duration::from_millis(1);
    let mut sim = Simulation::new(SEED);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    // Node plan: 0 = root/RTI, 1..=zones = zone coordinators, rest =
    // federates (one node each, like one ECU each). The diet must be on
    // before any platform is built — platforms query the mode once.
    let fed_node = |i: usize| NodeId((1 + zones + i) as u16);
    let (flat, hier) = match mode {
        Mode::Flat => {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            if diet {
                rti.enable_control_diet();
            }
            (Some(rti), None)
        }
        Mode::Hierarchical => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            for z in 0..zones {
                h.add_zone(&mut sim, &net, &sd, NodeId(1 + z as u16));
            }
            if diet {
                h.enable_control_diet();
            }
            (None, Some(h))
        }
    };

    let mut platforms = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("fed{i}");
        let binding = Binding::new(&net, &sd, fed_node(i), 0x1000 + i as u16);
        let runtime = fleet_member(&name);
        let rng = sim.fork_rng(&name);
        let p = match (&flat, &hier) {
            (Some(rti), None) => CoordinatedPlatform::new(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                rti,
                &binding,
                false,
            ),
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                h,
                ZoneId((i / MEMBERS_PER_ZONE) as u16),
                &binding,
                false,
            )
            .expect("register"),
            _ => unreachable!(),
        };
        platforms.push(p);
    }

    let connect = |up: usize, down: usize| {
        let (u, d) = (platforms[up].federate_id(), platforms[down].federate_id());
        match (&flat, &hier) {
            (Some(rti), None) => rti.connect(u, d, edge_delay),
            (None, Some(h)) => h.connect(u, d, edge_delay),
            _ => unreachable!(),
        }
    };
    for z in 0..zones {
        let base = z * MEMBERS_PER_ZONE;
        for m in 0..MEMBERS_PER_ZONE - 1 {
            connect(base + m, base + m + 1); // intra-zone chain
        }
        if z > 0 {
            // Zone 0's chain tail leads every other zone's chain head.
            connect(MEMBERS_PER_ZONE - 1, base);
        }
    }

    let t0 = std::time::Instant::now();
    for p in &platforms {
        p.start(&mut sim);
    }
    sim.run_until(Instant::EPOCH + horizon);
    let wall = t0.elapsed();

    let stats = match (&flat, &hier) {
        (Some(rti), None) => rti.stats(),
        (None, Some(h)) => h.stats(),
        _ => unreachable!(),
    };
    let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            fingerprint ^= u64::from(b);
            fingerprint = fingerprint.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut grants_received = 0;
    let mut grant_wait = Duration::ZERO;
    let mut batches = 0;
    let mut windowed_grants = 0;
    let mut processed = 0;
    for p in &platforms {
        let cs = p.coordination_stats();
        assert_eq!(cs.bound_breaches(), 0, "{} breached its bound", p.name());
        grants_received += cs.grants_received();
        grant_wait += cs.grant_wait();
        batches += cs.coord_batches_sent() + cs.coord_batches_received();
        windowed_grants += cs.windowed_grants();
        let tags = p.stats().processed_tags;
        processed += tags;
        let max = p.max_processed_tag().unwrap_or(Tag::ORIGIN);
        eat(tags);
        eat(max.time.as_nanos());
        eat(u64::from(max.microstep));
    }
    Report {
        wall,
        tags_issued: stats.tags_issued,
        window_tags: stats.window_tags,
        control_frames: stats.nets_received
            + stats.ltcs_received
            + stats.tags_issued
            + stats.ptags_issued
            + stats.dnets_sent,
        grants_received,
        grant_wait,
        batches,
        dnets_sent: stats.dnets_sent,
        windowed_grants,
        fingerprint,
        processed,
    }
}

/// The four variants of one scale point, in print order.
fn variants(zones: usize, horizon: Duration) -> [(&'static str, bool, Report); 4] {
    [
        ("flat", false, run_fleet(zones, Mode::Flat, false, horizon)),
        (
            "flat+diet",
            true,
            run_fleet(zones, Mode::Flat, true, horizon),
        ),
        (
            "2-level",
            false,
            run_fleet(zones, Mode::Hierarchical, false, horizon),
        ),
        (
            "2-level+diet",
            true,
            run_fleet(zones, Mode::Hierarchical, true, horizon),
        ),
    ]
}

fn scale_table(points: &[usize], horizon: Duration) -> String {
    let mut json_rows = String::new();
    println!(
        "  federates | coordinator  | grants/sec |  LBTS lag | frames/grant | control batches | processed tags"
    );
    println!(
        "------------+--------------+------------+-----------+--------------+-----------------+---------------"
    );
    for &zones in points {
        let n = zones * MEMBERS_PER_ZONE;
        let rows = variants(zones, horizon);
        for (label, _, r) in &rows {
            assert_eq!(
                rows[0].2.processed, r.processed,
                "variant {label} disagrees on processed tags at N = {n}"
            );
        }
        for (label, diet, r) in &rows {
            println!(
                "  {n:9} | {label:12} | {:10.0} | {:>9} | {:12.2} | {:15} | {:14}",
                r.grants_per_sec(),
                r.lag().to_string(),
                r.frames_per_grant(),
                r.batches,
                r.processed,
            );
            let _ = writeln!(
                json_rows,
                "    {{\"federates\": {n}, \"coordinator\": \"{label}\", \"diet\": {diet}, \
                 \"grants_per_sec\": {:.0}, \"mean_grant_wait_ns\": {}, \
                 \"frames_per_granted_tag\": {:.4}, \"granted_tags\": {}, \
                 \"windowed_tags\": {}, \"dnets_sent\": {}, \"processed_tags\": {}}},",
                r.grants_per_sec(),
                r.lag().as_nanos(),
                r.frames_per_grant(),
                r.granted(),
                r.window_tags,
                r.dnets_sent,
                r.processed,
            );
        }
        println!(
            "            | hier speedup | {:9.1}x | diet frames/grant: {:.2} -> {:.2} (flat), {:.2} -> {:.2} (2-level)",
            rows[2].2.grants_per_sec() / rows[0].2.grants_per_sec(),
            rows[0].2.frames_per_grant(),
            rows[1].2.frames_per_grant(),
            rows[2].2.frames_per_grant(),
            rows[3].2.frames_per_grant(),
        );
    }
    json_rows
}

/// The fleet's coordination graph without the fleet: node state only.
struct FleetGraph {
    nodes: Vec<NodeView>,
    upstream: Vec<Vec<(u16, Duration)>>,
}

impl LbtsGraph for FleetGraph {
    fn len(&self) -> usize {
        self.nodes.len()
    }
    fn node(&self, i: usize) -> NodeView {
        self.nodes[i]
    }
    fn upstream(&self, i: usize) -> &[(u16, Duration)] {
        &self.upstream[i]
    }
}

/// What one control message costs the solver alone, at each fleet size:
/// a from-scratch `solve` (what every message used to pay) against an
/// `update` with the one node that moved. The graph replays the fleet's
/// traffic: per 10 ms period every node completes its tag (LTC), then
/// reports the next (NET).
fn solver_cost_table(zone_counts: &[usize]) {
    println!("  federates | full solve/msg | incremental update/msg | nodes affected/msg");
    println!("------------+----------------+------------------------+-------------------");
    let edge = Duration::from_millis(1);
    let period = Duration::from_millis(10);
    for &zones in zone_counts {
        let n = zones * MEMBERS_PER_ZONE;
        let mut graph = FleetGraph {
            nodes: vec![
                NodeView {
                    released: false,
                    external: false,
                    completed: None,
                    head: Tag::at(Instant::EPOCH + period),
                    fence: TAG_MAX,
                    period: None,
                };
                n
            ],
            upstream: vec![Vec::new(); n],
        };
        for f in 0..n {
            let (zone, member) = (f / MEMBERS_PER_ZONE, f % MEMBERS_PER_ZONE);
            if member > 0 {
                graph.upstream[f].push((f as u16 - 1, edge));
            } else if zone > 0 {
                graph.upstream[f].push((MEMBERS_PER_ZONE as u16 - 1, edge));
            }
        }
        let mut solver = LbtsSolver::new();
        let mut now = Tag::at(Instant::EPOCH + period);
        let (mut messages, mut affected) = (0u64, 0u64);
        let started = std::time::Instant::now();
        while messages < 200_000 {
            for f in 0..n {
                graph.nodes[f].completed = Some(now);
                affected += solver.update(&graph, &[f as u16]).len() as u64;
                graph.nodes[f].head = now.delay(period);
                affected += solver.update(&graph, &[f as u16]).len() as u64;
            }
            now = now.delay(period);
            messages += 2 * n as u64;
        }
        let update_ns = started.elapsed().as_nanos() as f64 / messages as f64;

        let solves = (2_000_000 / n as u64).max(50);
        let started = std::time::Instant::now();
        for _ in 0..solves {
            std::hint::black_box(solver.solve(std::hint::black_box(&graph)).len());
        }
        let solve_ns = started.elapsed().as_nanos() as f64 / solves as f64;
        println!(
            "  {n:9} | {solve_ns:11.0} ns | {update_ns:19.0} ns | {:18.2}",
            affected as f64 / messages as f64
        );
    }
}

fn write_json(horizon: Duration, json_rows: &str) {
    let rows = json_rows.trim_end().trim_end_matches(',');
    let body = format!(
        "{{\n  \"bench\": \"fleet_scale\",\n  \"seed\": {SEED},\n  \"horizon_ms\": {},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        horizon.as_millis(),
    );
    let path = "BENCH_fleet_scale.json";
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let horizon = Duration::from_millis(i64::try_from(env_u64("DEAR_FLEET_MS", 100)).expect("ms"));
    header("fleet_scale — flat RTI vs hierarchical zones (star-of-chains fleet)");

    if test_mode {
        // Smoke run: small fleet, plus the determinism and equivalence
        // checks the full table only spot-checks.
        let horizon = Duration::from_millis(60);
        let a = run_fleet(6, Mode::Hierarchical, false, horizon);
        let b = run_fleet(6, Mode::Hierarchical, false, horizon);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "hierarchical run is not deterministic"
        );
        let flat = run_fleet(6, Mode::Flat, false, horizon);
        assert_eq!(flat.processed, a.processed, "coordinators disagree");
        assert!(a.batches > 0, "zone protocol must batch");
        assert_eq!(flat.batches, 0, "flat protocol must not batch");

        // The diet changes the message volume, never the outcome.
        let flat_diet = run_fleet(6, Mode::Flat, true, horizon);
        let hier_diet = run_fleet(6, Mode::Hierarchical, true, horizon);
        let hier_diet2 = run_fleet(6, Mode::Hierarchical, true, horizon);
        assert_eq!(
            hier_diet.fingerprint, hier_diet2.fingerprint,
            "diet run is not deterministic"
        );
        assert_eq!(
            flat_diet.fingerprint, flat.fingerprint,
            "flat diet diverged"
        );
        assert_eq!(
            hier_diet.fingerprint, a.fingerprint,
            "hierarchical diet diverged"
        );
        for (label, on, off) in [("flat", &flat_diet, &flat), ("2-level", &hier_diet, &a)] {
            assert!(
                on.frames_per_grant() < off.frames_per_grant(),
                "{label}: diet did not reduce control frames per granted tag \
                 ({:.2} vs {:.2})",
                on.frames_per_grant(),
                off.frames_per_grant(),
            );
            assert!(on.window_tags > 0, "{label}: no windowed tags");
            assert!(on.windowed_grants > 0, "{label}: no windowed grants seen");
            assert!(on.dnets_sent > 0, "{label}: no DNETs pushed");
            assert_eq!(off.window_tags, 0, "{label}: windows leaked into diet-off");
            assert_eq!(off.dnets_sent, 0, "{label}: DNETs leaked into diet-off");
        }

        let json_rows = scale_table(&[6], horizon);
        write_json(horizon, &json_rows);
        println!();
        println!(
            "smoke run OK: deterministic, flat == 2-level == diet, batching verified, \
             diet cuts frames/grant"
        );
        return;
    }

    println!(
        "zones of {MEMBERS_PER_ZONE} chained federates, zone 0's tail leading every other zone;"
    );
    println!(
        "{} ms virtual horizon, 10 ms timers, 1 ms edge delays, seed {SEED}",
        horizon.as_millis()
    );
    println!();
    let started = std::time::Instant::now();
    let json_rows = scale_table(&[10, 40, 100], horizon);
    write_json(horizon, &json_rows);
    println!();
    solver_cost_table(&[10, 40, 100]);
    println!();
    println!("expected shape: every coordinator keeps its LBTS vector between control");
    println!("messages and re-relaxes only the downstream cone of the node that moved,");
    println!("so the flat RTI's grants/sec no longer collapses as the fleet grows (what");
    println!("still grows is the cold-start solve and zone 0's 1-to-N fan-out). The");
    println!("hierarchy pays a zone->root->zone hop (twice the LBTS lag) and a second");
    println!("tier of frames for the same tags: it no longer wins on throughput at");
    println!("these sizes - its case is fault containment (per-shard liveness). The");
    println!("control diet then cuts the frames each granted tag costs: windowed TAGs");
    println!("cover runs of lattice tags and DNET-classified sinks stop reporting.");
    println!();
    println!("sweep in {:.1}s", started.elapsed().as_secs_f64());
}
