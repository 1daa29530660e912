//! The centralized-coordination acceptance test: the RTI-driven and the
//! decentralized PTIDES-style drivers must be *observably identical* on
//! the brake-assistant topology — byte-identical per-stage event traces
//! across multiple seeds, with the control-plane diet off and on — and
//! the centralized driver must provably never process a tag beyond its
//! last granted bound.

use dear::apd::{run_det, DetParams, DetReport};
use dear::transactors::Coordination;

fn params(coordination: Coordination) -> DetParams {
    DetParams {
        frames: 200,
        coordination,
        record_traces: true,
        ..DetParams::default()
    }
}

#[test]
fn centralized_and_decentralized_traces_are_byte_identical() {
    let reports = |r: &DetReport| r.coordination.nets_sent + r.coordination.ltcs_sent;
    for seed in [0u64, 1, 2, 42] {
        let dec = run_det(seed, &params(Coordination::Decentralized));
        let cen = run_det(seed, &params(Coordination::Centralized));
        let diet = run_det(
            seed,
            &DetParams {
                control_diet: true,
                ..params(Coordination::Centralized)
            },
        );

        for (label, r) in [("centralized", &cen), ("diet", &diet)] {
            // Same decisions, same latency profile.
            assert_eq!(
                dec.decision_fingerprint(),
                r.decision_fingerprint(),
                "seed {seed} {label}: decision sequences diverged"
            );
            assert_eq!(dec.end_to_end, r.end_to_end, "seed {seed} {label}");

            // The strong claim: every stage's runtime event trace
            // (reactions, deadline misses, STP violations, with tags) is
            // byte-identical.
            assert_eq!(dec.stage_traces.len(), 4);
            assert_eq!(
                dec.stage_traces, r.stage_traces,
                "seed {seed} {label}: stage event traces diverged"
            );
        }

        // The diet only trims the control plane.
        assert!(diet.coordination.nets_suppressed > 0, "seed {seed}");
        assert!(reports(&diet) < reports(&cen), "seed {seed}");

        // Every build stays error-free.
        for (label, r) in [
            ("decentralized", &dec),
            ("centralized", &cen),
            ("diet", &diet),
        ] {
            assert_eq!(r.decisions.len(), 200, "seed {seed} {label}");
            assert_eq!(r.mismatches_cv, 0, "seed {seed} {label}");
            assert_eq!(r.payloads_rejected, 0, "seed {seed} {label}");
            assert_eq!(r.stp_violations, 0, "seed {seed} {label}");
            assert_eq!(r.deadline_misses, 0, "seed {seed} {label}");
            assert_eq!(r.wrong_decisions, 0, "seed {seed} {label}");
        }
    }
}

#[test]
fn centralized_driver_respects_granted_bounds() {
    let report = run_det(7, &params(Coordination::Centralized));
    let coord = &report.coordination;

    // The coordination layer was genuinely exercised...
    assert!(coord.grants_received > 0, "no grants flowed: {coord:?}");
    assert!(coord.nets_sent > 0);
    assert!(coord.ltcs_sent > 0);

    // ...and never let a stage run past its bound.
    assert_eq!(coord.bound_breaches, 0, "{coord:?}");
    assert!(coord.within_bound, "{coord:?}");
}

#[test]
fn decentralized_runs_report_zero_coordination_traffic() {
    let report = run_det(7, &params(Coordination::Decentralized));
    let coord = &report.coordination;
    assert_eq!(coord.grants_received, 0);
    assert_eq!(coord.nets_sent, 0);
    assert_eq!(coord.ltcs_sent, 0);
    assert!(coord.within_bound);
}
