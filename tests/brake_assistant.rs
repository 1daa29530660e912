//! Workspace-level integration test of the paper's headline comparison:
//! the same brake-assistant pipeline, nondeterministic under AP-style
//! coordination, deterministic under DEAR.

use dear::apd::{run_det, run_nondet, DetParams, NondetParams};

fn nd_params() -> NondetParams {
    NondetParams {
        frames: 400,
        ..NondetParams::default()
    }
}

fn det_params() -> DetParams {
    DetParams {
        frames: 400,
        ..DetParams::default()
    }
}

#[test]
fn nondet_build_exhibits_the_papers_error_modes() {
    let reports: Vec<_> = (0..10).map(|s| run_nondet(s, &nd_params())).collect();
    // At least one instance with errors, and at least two different error
    // types across the ensemble (the paper's stacked bars).
    let total: u64 = reports.iter().map(|r| r.total_errors()).sum();
    assert!(total > 0, "expected errors somewhere in the ensemble");
    let mut kinds = 0;
    if reports.iter().any(|r| r.dropped_preprocessing > 0) {
        kinds += 1;
    }
    if reports.iter().any(|r| r.dropped_cv > 0) {
        kinds += 1;
    }
    if reports.iter().any(|r| r.mismatches_cv > 0) {
        kinds += 1;
    }
    if reports.iter().any(|r| r.dropped_eba > 0) {
        kinds += 1;
    }
    assert!(kinds >= 2, "expected at least two error types, got {kinds}");
    // Content is never corrupted — errors are drops/misalignment only.
    assert!(reports.iter().all(|r| r.wrong_decisions == 0));
}

#[test]
fn det_build_is_error_free_and_seed_independent() {
    let reports: Vec<_> = (0..6).map(|s| run_det(s, &det_params())).collect();
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.decisions.len(), 400, "seed {i}: every frame decided");
        assert_eq!(r.mismatches_cv, 0, "seed {i}");
        assert_eq!(r.payloads_rejected, 0, "seed {i}");
        assert_eq!(r.stp_violations, 0, "seed {i}");
        assert_eq!(r.deadline_misses, 0, "seed {i}");
        assert_eq!(r.wrong_decisions, 0, "seed {i}");
    }
    let fp0 = reports[0].decision_fingerprint();
    assert!(
        reports.iter().all(|r| r.decision_fingerprint() == fp0),
        "decision sequences must be identical across seeds"
    );
}

#[test]
fn det_decisions_match_reference_logic_frame_by_frame() {
    let report = run_det(11, &det_params());
    for d in &report.decisions {
        assert_eq!(
            d.brake,
            dear::apd::reference_decision(d.frame_id),
            "frame {}",
            d.frame_id
        );
    }
    // In-order, gap-free.
    let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
    assert_eq!(ids, (0..400).collect::<Vec<u64>>());
}

#[test]
fn nondet_decisions_are_a_subsequence_of_the_reference() {
    // Frames may be dropped, but whatever survives is correct and ordered.
    let report = run_nondet(6, &nd_params());
    let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "decisions stay in frame order without repeats");
    for d in &report.decisions {
        assert_eq!(d.brake, dear::apd::reference_decision(d.frame_id));
    }
}

#[test]
fn det_end_to_end_latency_follows_the_deadline_sum() {
    use dear::time::Duration;
    let mut params = det_params();
    params.frames = 50;
    // Custom deadlines: latency = (Da + L) + (Dp + L) + (Dcv + L).
    params.deadlines.adapter = Duration::from_millis(4);
    params.deadlines.preprocessing = Duration::from_millis(20);
    params.deadlines.computer_vision = Duration::from_millis(22);
    let report = run_det(3, &params);
    let expected = Duration::from_millis(4 + 5 + 20 + 5 + 22 + 5);
    assert!(
        report.end_to_end.iter().all(|&l| l == expected),
        "expected constant {expected}, got {:?}",
        &report.end_to_end[..report.end_to_end.len().min(5)]
    );
}
