//! The benchmark at `--smoke` sizes (2000 frames; 60 federates × 60 ms),
//! in process. Asserts invariants, never absolute counter values, so a
//! change that lowers a counter needs no edit here.
//!
//! One `#[test]`: the allocation counters are process-wide, and exact
//! repeatability only holds while nothing else allocates.

use dear_benchmark::alloc::{counted, AllocCount};
use dear_benchmark::compare::{compare, Verdict};
use dear_benchmark::metrics::{Kind, Metric, END_TO_END, PER_LAYER};
use dear_benchmark::report::Json;
use dear_benchmark::suite::{run, Options, SuiteResult};
use dear_benchmark::workloads::{Workload, BRAKE_FINGERPRINT_2000};
use std::collections::BTreeSet;

const LAYER_BUDGET_S: f64 = 0.005;
/// Timed pass per workload: the minimum of three repetitions, in effect.
const TIMED_S: f64 = 0.05;

/// One workload under a (tiny) time budget: the driver's contract.
fn contract(options: Options, workload: Workload) -> SuiteResult {
    run(options, &[workload], TIMED_S, LAYER_BUDGET_S)
}

fn smoke(trace: bool) -> Options {
    Options {
        smoke: true,
        trace,
        ..Options::default()
    }
}

fn exact_values(result: &SuiteResult) -> Vec<(String, u64)> {
    let exact = |scope: &str, metrics: &[Metric]| {
        metrics
            .iter()
            .filter(|m| m.decl.kind == Kind::Exact)
            .map(|m| (format!("{scope}/{}", m.decl.name), m.value.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut out = exact("layers", &result.layers);
    for w in &result.workloads {
        out.extend(exact(w.workload.name(), &w.end_to_end));
        out.extend(exact(w.workload.name(), &w.per_layer));
    }
    out
}

fn names(metrics: &[Metric]) -> BTreeSet<&'static str> {
    metrics.iter().map(|m| m.decl.name).collect()
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the code
/// does, with the same units, directions and bounds.
fn manifest_matches_declarations(manifest: &Json) {
    let field = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
            .to_owned()
    };
    let declared_workloads: Vec<String> = manifest
        .get("workloads")
        .expect("workloads")
        .elements()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared_workloads, workloads);

    for (table, decls) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = manifest.get(table).expect(table).elements();
        assert_eq!(entries.len(), decls.len(), "{table}: metric count");
        for (entry, decl) in entries.iter().zip(decls) {
            assert_eq!(field(entry, "name"), decl.name, "{table}: order or name");
            assert_eq!(field(entry, "unit"), decl.unit, "{}", decl.name);
            assert_eq!(
                field(entry, "better"),
                decl.better.as_str(),
                "{}",
                decl.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                decl.bound,
                "{}",
                decl.name
            );
        }
    }
    let strings = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .expect(key)
            .elements()
            .iter()
            .map(|s| s.as_str().expect("string").to_owned())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert!(strings("command")
        .iter()
        .all(|arg| !arg.contains('/') || arg.starts_with("benchmark/")));
}

/// The counting allocator counts exactly and tracks the high-water mark.
fn allocator_counts_exactly() {
    let (len, count) = counted(|| {
        let a = vec![1u8; 4096];
        let mut b = Vec::<u64>::with_capacity(4);
        b.extend(0..64); // one realloc, 32 -> 512 bytes
        drop(a);
        let c = vec![2u8; 1024];
        b.len() + c.len()
    });
    assert_eq!(len, 64 + 1024);
    assert_eq!(
        count,
        AllocCount {
            allocs: 4,
            peak_live_bytes: 4096 + 512,
            retained_bytes: 0,
        }
    );
    let (kept, count) = counted(|| vec![3u8; 100]);
    assert_eq!(
        (kept.len(), count.retained_bytes, count.allocs),
        (100, 100, 1)
    );
    let ((), idle) = counted(|| ());
    assert_eq!(idle, AllocCount::default());
}

#[test]
fn smoke_run_is_exact_correct_and_complete() {
    allocator_counts_exactly();
    let manifest = manifest();
    manifest_matches_declarations(&manifest);

    // Two full runs: every exact metric repeats bit for bit.
    let full = || run(smoke(true), &Workload::ALL, TIMED_S, LAYER_BUDGET_S);
    let (a, b) = (full(), full());
    let (exact_a, exact_b) = (exact_values(&a), exact_values(&b));
    assert!(exact_a.len() > 100, "only {} exact values", exact_a.len());
    for (va, vb) in exact_a.iter().zip(&exact_b) {
        assert_eq!(va, vb, "an exact metric moved between identical runs");
    }
    assert_eq!(exact_a.len(), exact_b.len());

    // Nothing failed, every check passed, every variant agrees.
    assert!(a.correct(), "{}", a.render());
    assert_eq!(a.workloads.len(), Workload::ALL.len());
    let mut fleet_fingerprints = BTreeSet::new();
    for w in &a.workloads {
        assert_eq!(w.failed, 0, "{}", w.workload.name());
        assert!(
            w.attempted > 0 && w.errors.is_empty(),
            "{}",
            w.workload.name()
        );
        if w.workload.is_brake() {
            assert_eq!(
                w.fingerprint,
                BRAKE_FINGERPRINT_2000,
                "{}",
                w.workload.name()
            );
        } else {
            fleet_fingerprints.insert(w.fingerprint);
        }
        // Every declared metric is reported, and nothing undeclared.
        let e2e: BTreeSet<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names(&w.end_to_end), e2e, "{}", w.workload.name());
        let mut per_layer = names(&w.per_layer);
        per_layer.extend(names(&a.layers));
        let declared: BTreeSet<_> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(per_layer, declared, "{}", w.workload.name());
        assert_eq!(w.per_layer.len() + a.layers.len(), PER_LAYER.len());
        for m in w.end_to_end.iter() {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} is {}",
                m.decl.name,
                m.value
            );
        }
    }
    assert_eq!(fleet_fingerprints.len(), 1, "fleet variants disagree");

    // The layer the one-factor neighbours differ in shows where it should.
    let per_layer = |w: Workload, name: &str| {
        let result = a.workloads.iter().find(|r| r.workload == w).expect("ran");
        result
            .per_layer
            .iter()
            .find(|m| m.decl.name == name)
            .expect("reported")
            .value
    };
    assert_eq!(
        per_layer(
            Workload::BrakeDecentralized,
            "federation.ctrl_frames_per_tag"
        ),
        0.0
    );
    assert!(per_layer(Workload::BrakeCentralized, "federation.ctrl_frames_per_tag") > 0.0);
    assert!(per_layer(Workload::BrakeDurable, "neighbour.delta_allocs_per_unit") > 0.0);
    assert!(per_layer(Workload::BrakeObserved, "neighbour.delta_bytes_per_unit") > 0.0);
    assert!(per_layer(Workload::FleetFlat, "e2e.retained_bytes_per_unit") >= 0.0);
    assert!(per_layer(Workload::FleetFlatDiet, "federation.windowed_share") > 0.0);
    assert_eq!(
        per_layer(Workload::FleetFlat, "federation.windowed_share"),
        0.0
    );
    assert!(per_layer(Workload::FleetZonesDiet, "federation.batches_per_tag") > 0.0);
    assert_eq!(
        per_layer(Workload::FleetFlat, "neighbour.delta_ns_per_unit"),
        0.0
    );

    // The trace is valid Chrome trace JSON with the documented spans.
    let trace = a.chrome_trace.as_ref().expect("traced run").to_pretty();
    assert!(dear_observe::is_valid_json(&trace));
    for span in [
        "verify",
        "setup",
        "workload",
        "rep",
        "apd.run_det",
        "federation.start",
        "sim.run_until",
        "collect",
        "layer.transactors.hop",
        "batch",
    ] {
        assert!(
            trace.contains(&format!("\"name\": \"{span}\"")),
            "no {span} span"
        );
    }

    // Result files are valid JSON, and comparing the two runs finds every
    // exact metric identical and nothing missing.
    let (file_a, file_b) = (a.to_json(), b.to_json());
    assert!(dear_observe::is_valid_json(&file_a.to_pretty()));
    assert_eq!(Json::parse(&file_a.to_pretty()).as_ref(), Ok(&file_a));
    let comparison = compare(&file_a, &file_b);
    assert!(comparison.failures.is_empty(), "{:?}", comparison.failures);
    let bounded = comparison.rows.iter().filter(|r| r.bound.is_some()).count();
    assert_eq!(bounded, END_TO_END.len() * Workload::ALL.len());
    for row in &comparison.rows {
        let decl = dear_benchmark::metrics::decl(&row.metric).expect("declared");
        if decl.kind == Kind::Exact {
            assert_eq!(row.change, 0.0, "{} {}", row.scope, row.metric);
            assert!(matches!(row.verdict, None | Some(Verdict::WithinBound)));
        }
    }

    // The driver's contract: one workload, one line, exactly the declared
    // metrics — end-to-end without tracing, per-layer with.
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let result = contract(smoke(trace), Workload::BrakeDiet);
        let line = result.contract_line();
        assert!(
            !line.contains('\n') && dear_observe::is_valid_json(&line),
            "{line}"
        );
        let doc = Json::parse(&line).expect("contract line parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed"), Some(&Json::Uint(0)));
        assert!(
            doc.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let reported: Vec<&str> = doc
            .get("metrics")
            .expect("metrics")
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<&str> = table.iter().map(|d| d.name).collect();
        assert_eq!(reported, declared, "trace {trace}");
        for (name, metric) in doc.get("metrics").expect("metrics").members() {
            let unit = metric.get("unit").and_then(Json::as_str);
            assert_eq!(
                unit,
                Some(dear_benchmark::metrics::decl(name).expect("declared").unit)
            );
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
        }
    }

    // The verify pass has teeth: a wrong expected fingerprint fails it.
    let wrong = Options {
        expected_brake_fingerprint: BRAKE_FINGERPRINT_2000 ^ 1,
        ..smoke(false)
    };
    let result = contract(wrong, Workload::BrakeDecentralized);
    assert!(!result.correct());
    assert!(result.workloads[0]
        .errors
        .iter()
        .any(|e| e.contains("fingerprint")));
    assert!(result.contract_line().contains("\"correct\": false"));

    // A second seed, never used while the benchmark was written.
    let seed_7 = Options {
        seed: 7,
        ..smoke(false)
    };
    let other = contract(seed_7, Workload::FleetZonesDiet);
    assert!(other.correct(), "{}", other.render());
}
