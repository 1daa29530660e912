//! The deterministic DEAR brake assistant (paper §IV.B): same pipeline and
//! logic as `brake_assistant_nondet`, coordinated by reactors and tagged
//! SOME/IP messages instead of one-slot buffers and periodic callbacks.
//!
//! One binary, four scenarios — each a `DetParams` with one field set —
//! chosen by the one positional argument (default `det`):
//!
//! * `det` — the paper's build: every seed processes every frame, in
//!   order, with zero errors and an identical decision sequence;
//! * `centralized` — the same run with an RTI granting every stage its
//!   tag advances: **byte-identical per-stage event traces** under both
//!   coordination strategies, plus the NET/TAG/LTC traffic it costs;
//! * `failover` — a redundant Video Provider whose primary is killed
//!   right after frame 249, detected by a graceful StopOffer, by SD TTL
//!   expiry, or by the event-silence watchdog: the identical decision
//!   sequence on every seed, every frame decided exactly once, replays
//!   byte-identical — while the stock AP build under the same kill hands
//!   over at a scheduling-luck instant and diverges across seeds;
//! * `rejoin` — the Computer Vision federate killed mid-run and
//!   restarted 10 ms later from its durable event log (replaying every
//!   logged tag at its logged physical time, suppressing sends the dead
//!   incarnation already made, rejoining the RTI under a new incarnation
//!   number): **byte-identical to a run that never crashed**, with the
//!   control-plane diet off and on.
//!
//! ```sh
//! cargo run --release --example brake_assistant_det [-- SCENARIO]
//! ```

use dear::apd::{
    run_det, run_nondet, DetParams, DetReport, NondetParams, RecoveryParams, RedundancyParams,
};
use dear::observe::ObservabilityReport;
use dear::time::Duration;
use dear::transactors::Coordination;

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
    println!("deterministic brake assistant (DEAR): reactors + transactors + tagged SOME/IP");
    println!(
        "deadlines 5/25/25/5 ms, L = {}, E = {}, {} frames per instance\n",
        params.latency_bound, params.clock_error, params.frames
    );
    println!("seed | decisions | mismatches | stp | deadline misses | e2e latency | fingerprint");
    println!(
        "-----+-----------+------------+-----+-----------------+-------------+-----------------"
    );
    let mut totals = (0usize, 0u64, 0u64, 0u64);
    let mut fingerprint = 0u64;
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
        totals.0 += r.decisions.len();
        totals.1 += r.mismatches_cv;
        totals.2 += r.stp_violations;
        totals.3 += r.deadline_misses;
        fingerprint = r.decision_fingerprint();
    }
    println!();
    println!("every instance processes every frame, in order, with zero errors and an");
    println!("identical decision sequence (same fingerprint) — determinism at the cost of");
    println!("a fixed 70 ms logical end-to-end latency that accounts for worst-case");
    println!("compute and communication delays.");
    println!();
    let mut report = ObservabilityReport::new("brake_assistant_det");
    report.line("instances", 8);
    report.line("decisions", totals.0);
    report.line(
        "errors",
        format!(
            "mismatches={} stp_violations={} deadline_misses={}",
            totals.1, totals.2, totals.3
        ),
    );
    report.line("fingerprint", format!("{fingerprint:016x}"));
    print!("{report}");
}

fn centralized() {
    let params = |coordination| DetParams {
        frames: 500,
        coordination,
        record_traces: true,
        ..DetParams::default()
    };
    println!("brake assistant, decentralized vs centralized coordination, 500 frames\n");
    println!(
        "seed | strategy      | decisions | stp | misses | fingerprint      | grants | NETs | LTCs | grant wait"
    );
    println!(
        "-----+---------------+-----------+-----+--------+------------------+--------+------+------+-----------"
    );

    let mut all_identical = true;
    let mut footer = ObservabilityReport::new("brake_assistant_det centralized");
    for seed in 0..4 {
        let dec = run_det(seed, &params(Coordination::Decentralized));
        let cen = run_det(seed, &params(Coordination::Centralized));
        if seed == 0 {
            let c = &cen.coordination;
            footer.line("decisions", cen.decisions.len());
            footer.line(
                "coord[centralized]",
                format!(
                    "nets={} ltcs={} grants={} ptags={} bound_breaches={} grant_wait={}",
                    c.nets_sent,
                    c.ltcs_sent,
                    c.grants_received,
                    c.ptags_received,
                    c.bound_breaches,
                    c.grant_wait
                ),
            );
            footer.line(
                "fingerprint",
                format!("{:016x}", cen.decision_fingerprint()),
            );
        }
        for (label, r) in [("decentralized", &dec), ("centralized", &cen)] {
            let c = &r.coordination;
            println!(
                "{seed:4} | {label:13} | {:9} | {:3} | {:6} | {:016x} | {:6} | {:4} | {:4} | {}",
                r.decisions.len(),
                r.stp_violations,
                r.deadline_misses,
                r.decision_fingerprint(),
                c.grants_received,
                c.nets_sent,
                c.ltcs_sent,
                c.grant_wait,
            );
        }
        all_identical &= dec.stage_traces == cen.stage_traces
            && dec.decision_fingerprint() == cen.decision_fingerprint();
        assert!(
            cen.coordination.within_bound && cen.coordination.bound_breaches == 0,
            "centralized run processed a tag beyond its granted bound"
        );
    }

    println!();
    println!(
        "per-stage event traces byte-identical across strategies: {}",
        yes_no(all_identical)
    );
    println!("the RTI's grants gate every stage (zero bound breaches), yet the");
    println!("observable execution — every reaction, tag and decision — is exactly");
    println!("the one the decentralized policy produces: one driver loop, two policies.");
    assert!(all_identical);
    println!();
    print!("{footer}");
}

fn failover() {
    const KILL_AFTER: u64 = 249;
    let redundancy = |mode: &str| RedundancyParams {
        primary_dies_after: KILL_AFTER,
        graceful: mode == "stop-offer",
        heartbeat_timeout: (mode == "heartbeat").then(|| Duration::from_millis(150)),
        ..RedundancyParams::default()
    };
    println!("brake assistant with a redundant provider, primary killed after frame {KILL_AFTER}");
    println!("(500 frames; deterministic build vs stock AP build)\n");

    println!("deterministic build:");
    println!("mode        | seed | decisions | failovers | rebind tag     | failover latency | fingerprint");
    println!("------------+------+-----------+-----------+----------------+------------------+-----------------");

    let mut all_identical = true;
    let mut det_failovers = 0u64;
    for mode in ["stop-offer", "ttl-expiry", "heartbeat"] {
        let params = DetParams {
            frames: 500,
            redundancy: Some(redundancy(mode)),
            record_traces: true,
            ..DetParams::default()
        };
        let mut fingerprints = Vec::new();
        for seed in 0..4 {
            let r = run_det(seed, &params);
            let fo = r.failover.expect("failover report");
            assert_every_frame_decided_once(&r, 500, &format!("{mode} seed {seed}"));
            assert_eq!(fo.failovers, 1, "{mode} seed {seed}");
            println!(
                "{mode:11} | {seed:4} | {:9} | {:9} | {:>14} | {:>16} | {:016x}",
                r.decisions.len(),
                fo.failovers,
                fo.rebound_at.map_or("n/a".into(), |t| t.to_string()),
                fo.failover_latency.map_or("n/a".into(), |l| l.to_string()),
                r.decision_fingerprint(),
            );
            det_failovers += fo.failovers;
            fingerprints.push(r.decision_fingerprint());
        }
        all_identical &= fingerprints.iter().all(|f| *f == fingerprints[0]);
        assert_replay_identical(&params, mode);
    }
    println!();
    println!(
        "decision sequences identical across all seeds and detection modes: {}",
        yes_no(all_identical)
    );
    assert!(all_identical);

    println!("\nstock AP build, same kill scenario:");
    println!("seed | decisions | takeover at      | fingerprint");
    println!("-----+-----------+------------------+-----------------");
    let nondet_params = NondetParams {
        frames: 500,
        redundancy: Some(redundancy("ttl-expiry")),
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
    report.line("det_runs", "3 modes x 4 seeds");
    report.line("det_failovers", det_failovers);
    report.line("det_sequences_identical", yes_no(all_identical));
    report.line("stock_distinct_sequences", format!("{distinct}/4"));
    print!("{report}");
}

fn rejoin() {
    const FRAMES: u64 = 300;
    const KILL_AFTER: u64 = 150;
    let params = |diet: bool, recovery: bool| DetParams {
        frames: FRAMES,
        coordination: Coordination::Centralized,
        control_diet: diet,
        record_traces: true,
        recovery: recovery.then(|| RecoveryParams {
            crash_after_frame: KILL_AFTER,
            dead_for: Duration::from_millis(10),
            snapshot_every: 16,
        }),
        ..DetParams::default()
    };
    println!("brake assistant with the CV federate killed after frame {KILL_AFTER},");
    println!("restarted from snapshot + durable log, rejoining the RTI");
    println!("({FRAMES} frames; crashed run vs never-crashed baseline)\n");

    println!("diet | seed | decisions | outage  | replayed tags/inputs | suppressed | resent | fingerprint      | == baseline");
    println!("-----+------+-----------+---------+----------------------+------------+--------+------------------+------------");

    let mut all_identical = true;
    let mut total_replayed = 0u64;
    for diet in [false, true] {
        for seed in 0..4 {
            let baseline = run_det(seed, &params(diet, false));
            let r = run_det(seed, &params(diet, true));
            let rec = r.recovery.expect("recovery report");
            let context = format!("diet={diet} seed {seed}");
            assert_every_frame_decided_once(&r, FRAMES, &context);
            // Replay fidelity: the log and the rebuilt program agreed
            // on every single replayed step.
            assert_eq!(rec.replay_mismatches, 0, "{context}");
            assert!(rec.replayed_tags > 0, "{context}");
            assert_eq!(r.mismatches_cv, 0, "{context}");

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
    println!();
    println!(
        "crashed runs byte-identical to never-crashed baselines: {}",
        yes_no(all_identical)
    );
    assert!(all_identical);
    assert_replay_identical(&params(false, true), "rejoin");

    println!();
    let mut report = ObservabilityReport::new("brake_assistant_det rejoin");
    report.line("runs", "2 diet modes x 4 seeds");
    report.line("replayed_tags_total", total_replayed);
    report.line("sequences_identical", yes_no(all_identical));
    print!("{report}");
}
