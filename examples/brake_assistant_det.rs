//! The deterministic DEAR brake assistant (paper §IV.B): same pipeline and
//! logic as `brake_assistant_nondet`, coordinated by reactors and tagged
//! SOME/IP messages instead of one-slot buffers and periodic callbacks.
//!
//! One binary, four scenarios — each a `DetParams` with one field set —
//! chosen by the one positional argument (default `det`):
//!
//! * `det` — the paper's build: every seed processes every frame, in
//!   order, with zero errors, a constant 70 ms logical end-to-end latency
//!   and the published decision fingerprint; then the §IV.B deadline
//!   sweep, where lowering the preprocessing/CV deadline below the stage
//!   compute time buys latency with *observable* errors;
//! * `centralized` — the same run with an RTI granting every stage its
//!   tag advances, with the control-plane diet off and on:
//!   **byte-identical per-stage event traces** under every coordination
//!   variant, plus the NET/TAG/LTC traffic each costs;
//! * `failover` — a redundant Video Provider whose primary is killed
//!   right after frame 249, detected by a graceful StopOffer, by SD TTL
//!   expiry (400 or 800 ms) or by the event-silence watchdog (150 or
//!   300 ms): the identical decision sequence on every seed, every frame
//!   decided exactly once, replays byte-identical — while the stock AP
//!   build under the same kill hands over at a scheduling-luck instant
//!   and diverges across seeds;
//! * `rejoin` — the Computer Vision federate killed mid-run and
//!   restarted 5, 10 or 20 ms later from its durable event log
//!   (replaying every logged tag at its logged physical time,
//!   suppressing sends the dead incarnation already made, rejoining the
//!   RTI under a new incarnation number): **byte-identical to a run that
//!   never crashed**, with the control-plane diet off and on, and an
//!   outage of exactly the scheduled downtime.
//!
//! ```sh
//! cargo run --release --example brake_assistant_det [-- SCENARIO]
//! ```

use dear::apd::{
    run_det, run_nondet, DetParams, DetReport, NondetParams, RecoveryParams, RedundancyParams,
    StageDeadlines,
};
use dear::observe::ObservabilityReport;
use dear::time::Duration;
use dear::transactors::Coordination;

/// The published decision fingerprints of the pipeline at 2 000, 500 and
/// 300 frames: every build, policy and fault scenario must reproduce them.
const FINGERPRINT_2000: u64 = 0xf3e5_22a0_b4ee_1cff;
const FINGERPRINT_500: u64 = 0x62b8_beae_61f1_872d;
const FINGERPRINT_300: u64 = 0x98ec_939c_86e6_e8bb;

const SCENARIOS: [(&str, fn()); 4] = [
    ("det", det),
    ("centralized", centralized),
    ("failover", failover),
    ("rejoin", rejoin),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "det".into());
    let Some((_, scenario)) = SCENARIOS.iter().find(|(known, _)| *known == name) else {
        let known: Vec<_> = SCENARIOS.iter().map(|(known, _)| *known).collect();
        eprintln!("unknown scenario `{name}`; one of: {}", known.join(", "));
        std::process::exit(2);
    };
    scenario();
}

fn yes_no(flag: bool) -> &'static str {
    if flag {
        "YES"
    } else {
        "NO"
    }
}

/// Completeness: every frame decided exactly once — nothing lost,
/// nothing duplicated — and no safe-to-process violation on the way.
fn assert_every_frame_decided_once(r: &DetReport, frames: u64, context: &str) {
    assert_eq!(
        r.decisions.iter().map(|d| d.frame_id).collect::<Vec<_>>(),
        (0..frames).collect::<Vec<u64>>(),
        "{context}: every frame decided exactly once"
    );
    assert_eq!(r.stp_violations, 0, "{context}");
}

/// Replay determinism: the same seed reproduces the whole run — faults,
/// SD churn, re-binding, log replay, rejoin — byte for byte.
fn assert_replay_identical(params: &DetParams, context: &str) {
    let (a, b) = (run_det(0, params), run_det(0, params));
    assert_eq!(
        a.stage_traces, b.stage_traces,
        "{context}: replays must be byte-identical"
    );
    assert_eq!(a.failover, b.failover, "{context}");
    assert_eq!(a.recovery, b.recovery, "{context}");
}

fn det() {
    let params = DetParams {
        frames: 2_000,
        ..DetParams::default()
    };
    // Logical end-to-end latency: (Da + L) + (Dp + L) + (Dcv + L).
    let logical_latency = |d: &StageDeadlines| {
        let l = params.latency_bound;
        d.adapter + l + d.preprocessing + l + d.computer_vision + l
    };
    println!("deterministic brake assistant (DEAR): reactors + transactors + tagged SOME/IP");
    println!(
        "deadlines 5/25/25/5 ms, L = {}, E = {}, {} frames per instance\n",
        params.latency_bound, params.clock_error, params.frames
    );
    println!("seed | decisions | mismatches | stp | deadline misses | e2e latency | fingerprint");
    println!(
        "-----+-----------+------------+-----+-----------------+-------------+-----------------"
    );
    let mut decisions = 0usize;
    for seed in 0..8 {
        let r = run_det(seed, &params);
        let e2e = r
            .end_to_end
            .first()
            .map_or("n/a".to_string(), |l| l.to_string());
        println!(
            "{seed:4} | {:9} | {:10} | {:3} | {:15} | {:>11} | {:016x}",
            r.decisions.len(),
            r.mismatches_cv,
            r.stp_violations,
            r.deadline_misses,
            e2e,
            r.decision_fingerprint()
        );
        let context = format!("seed {seed}");
        assert_every_frame_decided_once(&r, params.frames, &context);
        assert_eq!(r.mismatches_cv, 0, "{context}");
        assert_eq!(r.payloads_rejected, 0, "{context}");
        assert_eq!(r.deadline_misses, 0, "{context}");
        assert_eq!(r.wrong_decisions, 0, "{context}");
        assert!(
            r.end_to_end.iter().all(|l| *l == Duration::from_millis(70)),
            "{context}: the logical end-to-end latency must be a constant 70 ms"
        );
        assert_eq!(r.decision_fingerprint(), FINGERPRINT_2000, "{context}");
        decisions += r.decisions.len();
    }
    println!();
    println!("every instance processes every frame, in order, with zero errors and an");
    println!("identical decision sequence (same fingerprint) — determinism at the cost of");
    println!("a fixed 70 ms logical end-to-end latency that accounts for worst-case");
    println!("compute and communication delays.");

    println!("\ndeadline sweep: preprocessing/CV deadline D, seed 42 (stage compute ~18 ms)");
    println!("  D (ms) | logical e2e | decisions | mismatches |  stp | misses");
    println!("---------+-------------+-----------+------------+------+-------");
    for d_ms in [2, 5, 8, 12, 16, 20, 25, 30] {
        let mut p = params.clone();
        p.deadlines.preprocessing = Duration::from_millis(d_ms);
        p.deadlines.computer_vision = Duration::from_millis(d_ms);
        let r = run_det(42, &p);
        let logical = logical_latency(&p.deadlines);
        println!(
            "   {d_ms:4}  | {:>11} | {:9} | {:10} | {:4} | {:6}",
            logical.to_string(),
            r.decisions.len(),
            r.mismatches_cv,
            r.stp_violations,
            r.deadline_misses,
        );
        assert!(
            r.end_to_end.iter().all(|l| *l == logical),
            "D = {d_ms} ms: every decision's latency must be (Da + L) + 2·(D + L)"
        );
        let errors = r.mismatches_cv + r.stp_violations + r.deadline_misses;
        assert_eq!(errors == 0, d_ms >= 20, "D = {d_ms} ms: {errors} errors");
    }
    println!();
    println!("latency rises linearly with D; below the stage compute time the faults");
    println!("surface as counted errors (misaligned inputs, STP violations, deadline");
    println!("misses), never as silent reordering.");
    println!();
    let mut report = ObservabilityReport::new("brake_assistant_det");
    report.line("instances", 8);
    report.line("decisions", decisions);
    report.line("errors", "mismatches=0 stp_violations=0 deadline_misses=0");
    report.line("fingerprint", format!("{FINGERPRINT_2000:016x}"));
    print!("{report}");
}

fn centralized() {
    let params = |coordination, control_diet| DetParams {
        frames: 500,
        coordination,
        control_diet,
        record_traces: true,
        ..DetParams::default()
    };
    let reports = |r: &DetReport| r.coordination.nets_sent + r.coordination.ltcs_sent;
    println!(
        "brake assistant, decentralized vs centralized coordination (diet off/on), 500 frames\n"
    );
    println!(
        "seed | strategy      | decisions | stp | misses | fingerprint      | grants | NETs | LTCs | suppressed | grant wait"
    );
    println!(
        "-----+---------------+-----------+-----+--------+------------------+--------+------+------+------------+-----------"
    );

    let mut footer = ObservabilityReport::new("brake_assistant_det centralized");
    for seed in 0..4 {
        let dec = run_det(seed, &params(Coordination::Decentralized, false));
        let cen = run_det(seed, &params(Coordination::Centralized, false));
        let diet = run_det(seed, &params(Coordination::Centralized, true));
        let runs = [
            ("decentralized", &dec),
            ("centralized", &cen),
            ("cen + diet", &diet),
        ];
        if seed == 0 {
            footer.line("decisions", cen.decisions.len());
            for (label, r) in &runs[1..] {
                let c = &r.coordination;
                footer.line(
                    format!("coord[{label}]"),
                    format!(
                        "nets={} ltcs={} grants={} ptags={} suppressed={} bound_breaches={} grant_wait={}",
                        c.nets_sent,
                        c.ltcs_sent,
                        c.grants_received,
                        c.ptags_received,
                        c.nets_suppressed,
                        c.bound_breaches,
                        c.grant_wait
                    ),
                );
            }
            footer.line(
                "fingerprint",
                format!("{:016x}", cen.decision_fingerprint()),
            );
        }
        for (label, r) in runs {
            let c = &r.coordination;
            println!(
                "{seed:4} | {label:13} | {:9} | {:3} | {:6} | {:016x} | {:6} | {:4} | {:4} | {:10} | {}",
                r.decisions.len(),
                r.stp_violations,
                r.deadline_misses,
                r.decision_fingerprint(),
                c.grants_received,
                c.nets_sent,
                c.ltcs_sent,
                c.nets_suppressed,
                c.grant_wait,
            );
        }
        for (label, r) in &runs[1..] {
            assert_eq!(
                r.stage_traces, dec.stage_traces,
                "seed {seed} {label}: per-stage event traces diverged"
            );
            assert_eq!(
                r.decision_fingerprint(),
                FINGERPRINT_500,
                "seed {seed} {label}"
            );
            assert!(
                r.coordination.within_bound && r.coordination.bound_breaches == 0,
                "seed {seed} {label}: processed a tag beyond its granted bound"
            );
        }
        assert!(
            diet.coordination.nets_suppressed > 0,
            "seed {seed}: the diet suppressed nothing"
        );
        assert!(
            reports(&diet) < reports(&cen),
            "seed {seed}: the diet did not cut NET + LTC reports"
        );
    }

    println!();
    println!("per-stage event traces byte-identical across all three variants: YES");
    println!("the RTI's grants gate every stage (zero bound breaches), yet the");
    println!("observable execution — every reaction, tag and decision — is exactly");
    println!("the one the decentralized policy produces: one driver loop, two policies.");
    println!("the diet only trims the control traffic: the sink stage stops reporting.");
    println!();
    print!("{footer}");
}

fn failover() {
    const KILL_AFTER: u64 = 249;
    let ms = Duration::from_millis;
    // (mode, graceful StopOffer, SD offer TTL, event-silence watchdog)
    let modes = [
        ("stop-offer", true, ms(400), None),
        ("ttl 400ms", false, ms(400), None),
        ("ttl 800ms", false, ms(800), None),
        ("heartbeat 150ms", false, ms(800), Some(ms(150))),
        ("heartbeat 300ms", false, ms(800), Some(ms(300))),
    ];
    println!("brake assistant with a redundant provider, primary killed after frame {KILL_AFTER}");
    println!("(500 frames; deterministic build vs stock AP build)\n");

    println!("deterministic build:");
    println!("mode            | seed | decisions | failovers | rebind tag     | failover latency | fingerprint");
    println!("----------------+------+-----------+-----------+----------------+------------------+-----------------");

    let mut det_failovers = 0u64;
    for (mode, graceful, offer_ttl, heartbeat_timeout) in modes {
        let params = DetParams {
            frames: 500,
            redundancy: Some(RedundancyParams {
                primary_dies_after: KILL_AFTER,
                graceful,
                offer_ttl,
                heartbeat_timeout,
                ..RedundancyParams::default()
            }),
            record_traces: true,
            ..DetParams::default()
        };
        for seed in 0..4 {
            let r = run_det(seed, &params);
            let fo = r.failover.expect("failover report");
            println!(
                "{mode:15} | {seed:4} | {:9} | {:9} | {:>14} | {:>16} | {:016x}",
                r.decisions.len(),
                fo.failovers,
                fo.rebound_at.map_or("n/a".into(), |t| t.to_string()),
                fo.failover_latency.map_or("n/a".into(), |l| l.to_string()),
                r.decision_fingerprint(),
            );
            let context = format!("{mode} seed {seed}");
            assert_every_frame_decided_once(&r, 500, &context);
            assert_eq!(r.decision_fingerprint(), FINGERPRINT_500, "{context}");
            assert_eq!(fo.failovers, 1, "{context}");
            let latency = fo.failover_latency.expect("backup delivered");
            match (graceful, heartbeat_timeout) {
                // About one 50 ms frame period: the standby's spin-up.
                (true, _) => assert!(latency < ms(60), "{context}"),
                // The watchdog fires before the SD deadline would.
                (false, Some(timeout)) => {
                    assert!(timeout < latency && latency < offer_ttl, "{context}");
                }
                // A silent crash is caught 1 ns past the TTL of the last
                // renewal (renewals every 150 ms).
                (false, None) => {
                    let renewal =
                        fo.rebound_at.expect("re-bound") - offer_ttl - Duration::from_nanos(1);
                    assert_eq!(renewal.as_nanos() % 150_000_000, 0, "{context}");
                }
            }
            det_failovers += fo.failovers;
        }
        assert_replay_identical(&params, mode);
    }
    println!();
    println!("decision sequences identical across all seeds and detection modes: YES");

    println!("\nstock AP build, same kill scenario:");
    println!("seed | decisions | takeover at      | fingerprint");
    println!("-----+-----------+------------------+-----------------");
    let nondet_params = NondetParams {
        frames: 500,
        redundancy: Some(RedundancyParams {
            primary_dies_after: KILL_AFTER,
            ..RedundancyParams::default()
        }),
        ..NondetParams::default()
    };
    let mut fingerprints = Vec::new();
    for seed in 0..4 {
        let r = run_nondet(seed, &nondet_params);
        println!(
            "{seed:4} | {:9} | {:>16} | {:016x}",
            r.decisions.len(),
            r.backup_takeover_at.map_or("n/a".into(), |t| t.to_string()),
            r.decision_fingerprint(),
        );
        fingerprints.push(r.decision_fingerprint());
    }
    let distinct = fingerprints
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    println!();
    println!(
        "stock build: {distinct}/4 distinct decision sequences — the handover instant is \
         scheduling luck,"
    );
    println!("and which frames are lost or duplicated around it differs run to run.");
    assert!(distinct > 1, "stock failover should diverge across seeds");
    println!();
    let mut report = ObservabilityReport::new("brake_assistant_det failover");
    report.line("det_runs", "5 modes x 4 seeds");
    report.line("det_failovers", det_failovers);
    report.line("det_sequences_identical", "YES");
    report.line("stock_distinct_sequences", format!("{distinct}/4"));
    print!("{report}");
}

fn rejoin() {
    const FRAMES: u64 = 300;
    const KILL_AFTER: u64 = 150;
    let params = |diet: bool, dead_for: Option<Duration>| DetParams {
        frames: FRAMES,
        coordination: Coordination::Centralized,
        control_diet: diet,
        record_traces: true,
        recovery: dead_for.map(|dead_for| RecoveryParams {
            crash_after_frame: KILL_AFTER,
            dead_for,
        }),
        ..DetParams::default()
    };
    println!("brake assistant with the CV federate killed after frame {KILL_AFTER},");
    println!("restarted from the durable log, rejoining the RTI");
    println!("({FRAMES} frames; crashed run vs never-crashed baseline)\n");

    println!("diet | seed | decisions | outage  | replayed tags/inputs | suppressed | resent | fingerprint      | == baseline");
    println!("-----+------+-----------+---------+----------------------+------------+--------+------------------+------------");

    let mut all_identical = true;
    let mut total_replayed = 0u64;
    for diet in [false, true] {
        for seed in 0..4 {
            let baseline = run_det(seed, &params(diet, None));
            assert_eq!(baseline.decision_fingerprint(), FINGERPRINT_300);
            for dead_for in [5, 10, 20].map(Duration::from_millis) {
                let r = run_det(seed, &params(diet, Some(dead_for)));
                let rec = r.recovery.expect("recovery report");
                let context = format!("diet={diet} seed {seed} outage {dead_for}");
                assert_every_frame_decided_once(&r, FRAMES, &context);
                // Replay fidelity: the log and the rebuilt program agreed
                // on every single replayed step.
                assert_eq!(rec.replay_mismatches, 0, "{context}");
                assert!(rec.replayed_tags > 0, "{context}");
                assert_eq!(r.mismatches_cv, 0, "{context}");
                assert_eq!(r.payloads_rejected, 0, "{context}");
                // The restart is scheduled, not detected.
                assert_eq!(rec.outage, dead_for, "{context}");

                // The claim: decisions AND per-stage event traces are
                // byte-identical to the never-crashed run.
                let identical = r.decision_fingerprint() == baseline.decision_fingerprint()
                    && r.stage_traces == baseline.stage_traces;
                all_identical &= identical;
                total_replayed += rec.replayed_tags;

                println!(
                    " {:3} | {seed:4} | {:9} | {:>7} | {:10} / {:7} | {:10} | {:6} | {:016x} | {}",
                    if diet { "on" } else { "off" },
                    r.decisions.len(),
                    rec.outage.to_string(),
                    rec.replayed_tags,
                    rec.replayed_inputs,
                    rec.suppressed_sends,
                    rec.resent_sends,
                    r.decision_fingerprint(),
                    yes_no(identical),
                );
            }
        }
    }
    println!();
    println!(
        "crashed runs byte-identical to never-crashed baselines: {}",
        yes_no(all_identical)
    );
    assert!(all_identical);
    assert_replay_identical(&params(false, Some(Duration::from_millis(10))), "rejoin");

    println!();
    let mut report = ObservabilityReport::new("brake_assistant_det rejoin");
    report.line("runs", "2 diet modes x 4 seeds x 3 outages");
    report.line("replayed_tags_total", total_replayed);
    report.line("sequences_identical", yes_no(all_identical));
    print!("{report}");
}
