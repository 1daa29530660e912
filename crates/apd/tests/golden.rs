//! Golden values for the five brake configurations the benchmark runs:
//! the per-stage trace fingerprints, the decision fingerprint and the
//! coordination counters at 200 frames, seed 7, pinned as literals.
//!
//! The other identity tests compare runs with each other, so a change
//! that moves every configuration alike would pass them. These literals
//! move only when the observable execution does: a refactor of how
//! `run_det` assembles the pipeline must leave every one of them alone.

use dear_apd::{run_det, DetParams, RecoveryParams};
use dear_transactors::Coordination;

/// Every configuration runs the identical pipeline: one set of stage
/// traces for all five.
const STAGE_TRACES: [(&str, u64); 4] = [
    ("adapter", 0xdf6c_f933_37dd_eaa8),
    ("preprocessing", 0x214c_5be8_7351_bc65),
    ("computer_vision", 0x387f_3095_442f_4d3d),
    ("eba", 0xfba6_42c2_1f50_3177),
];
const DECISIONS: u64 = 0x4cbe_f151_bd09_3555;

/// `(nets_sent, ltcs_sent, grants_received, nets_suppressed,
/// windowed_grants)`.
type Counters = (u64, u64, u64, u64, u64);

/// The benchmark's five brake configurations at 200 frames, with traces,
/// and the coordination counters each must report.
fn configurations() -> [(&'static str, DetParams, Counters); 5] {
    let centralized = DetParams {
        frames: 200,
        coordination: Coordination::Centralized,
        record_traces: true,
        ..DetParams::default()
    };
    [
        (
            "decentralized",
            DetParams {
                coordination: Coordination::Decentralized,
                ..centralized.clone()
            },
            (0, 0, 0, 0, 0),
        ),
        (
            "centralized",
            centralized.clone(),
            (1604, 800, 1206, 200, 0),
        ),
        (
            "diet",
            DetParams {
                control_diet: true,
                ..centralized.clone()
            },
            (1204, 600, 1206, 800, 0),
        ),
        (
            "durable",
            DetParams {
                // The default outage: 10 ms.
                recovery: Some(RecoveryParams {
                    crash_after_frame: 100,
                    ..RecoveryParams::default()
                }),
                ..centralized.clone()
            },
            (1605, 800, 1207, 200, 0),
        ),
        (
            "observed",
            DetParams {
                observability: true,
                ..centralized
            },
            (1604, 800, 1206, 200, 0),
        ),
    ]
}

#[test]
fn brake_configurations_reproduce_the_golden_values() {
    for (name, params, counters) in configurations() {
        let r = run_det(7, &params);
        let traces: Vec<(&str, u64)> = r
            .stage_traces
            .iter()
            .map(|(stage, fp)| (stage.as_str(), *fp))
            .collect();
        assert_eq!(traces, STAGE_TRACES, "{name}: stage traces");
        assert_eq!(r.decision_fingerprint(), DECISIONS, "{name}: decisions");
        let c = &r.coordination;
        assert_eq!(
            (
                c.nets_sent,
                c.ltcs_sent,
                c.grants_received,
                c.nets_suppressed,
                c.windowed_grants
            ),
            counters,
            "{name}: coordination counters"
        );
    }
}
