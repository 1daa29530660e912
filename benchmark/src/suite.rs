//! The benchmark's passes and what they add up to.
//!
//! [`run`] holds one session per workload under measurement.
//! After a common **verify** pass — short runs that check correctness:
//! the published fingerprint, and equivalence of every variant to its
//! family's reference at a common small size — each workload is measured
//! in a block of its own:
//!
//! 1. **timed** — tracing off, counting allocator off, for a time budget,
//!    with batches of **set-ups** (repeated world construction) spread
//!    between its repetitions;
//! 2. **traced** — the same repetition with bench-side spans recorded
//!    (its cost against the timed pass is the tracing overhead);
//! 3. **counted** — the same repetition, twice, with the counting
//!    allocator on: the exact metrics, which must agree bit for bit.
//!
//! The **layer drivers** run last. Workloads are *not* interleaved: how
//! fast a repetition runs depends on what its process ran before. Every
//! world the stack builds is leaked today (`e2e.retained_bytes_per_unit`;
//! 1.7 KB per `brake_observed` frame), so repetitions slow down — up to
//! twofold — once a process has leaked a few hundred MiB. A workload's
//! repetitions therefore follow one another, as they do in the
//! one-workload processes the driver starts, and a full run gives every
//! workload a process of its own.
//!
//! Repetitions of one workload are the same deterministic computation, so
//! their spread is measurement noise, and it is one-sided: a host-time
//! value is computed from the **fastest** observation of each segment of
//! a repetition (see [`RepOutcome::segments`]), with the spread of whole
//! repetitions stored beside it; set-up time is the lower quartile of
//! its batches, a batch being the median of its calls.

use crate::alloc::{counted, AllocCount};
use crate::metrics::Metric;
use crate::report::{Json, Samples};
use crate::trace::Tracer;
use crate::workloads::{
    layers, run_rep, setup_once, RepOutcome, Size, Workload, BRAKE_FINGERPRINT_2000, VERIFY_FLEET,
    VERIFY_FRAMES,
};
use std::fmt::Write as _;
use std::time::Instant as HostInstant;

/// What a run of the benchmark is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Every workload's inputs are built from this.
    pub seed: u64,
    /// Run the verify-pass sizes instead of the benchmark's (for tests).
    pub smoke: bool,
    /// Record spans and produce per-layer metrics.
    pub trace: bool,
    /// The decision fingerprint every `brake_*` variant must produce at
    /// [`VERIFY_FRAMES`] frames. Anything but the published value makes
    /// the verify pass fail, which is how its teeth are tested.
    pub expected_brake_fingerprint: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            smoke: false,
            trace: false,
            expected_brake_fingerprint: BRAKE_FINGERPRINT_2000,
        }
    }
}

/// Everything measured about one workload.
#[derive(Debug)]
struct Session {
    workload: Workload,
    /// Reported, as opposed to measured only as another's neighbour.
    primary: bool,
    size: Size,
    errors: Vec<String>,
    /// One entry per set-up batch: the median of its calls.
    setup_s: Vec<f64>,
    timed: Vec<RepOutcome>,
    traced: Vec<RepOutcome>,
    counted: Vec<(RepOutcome, AllocCount)>,
}

/// The benchmark in progress.
#[derive(Debug)]
struct Suite {
    options: Options,
    sessions: Vec<Session>,
    tracer: Tracer,
    layers: Vec<Metric>,
}

/// The finished measurement of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// Size of one repetition.
    pub size: Size,
    /// Failed checks, in words; empty on a healthy stack.
    pub errors: Vec<String>,
    /// Units of work asked for, over every repetition made.
    pub attempted: u64,
    /// Units that failed any check.
    pub failed: u64,
    /// The fingerprint every repetition produced.
    pub fingerprint: u64,
    /// Timed repetitions made.
    pub reps: usize,
    /// Every end-to-end metric.
    pub end_to_end: Vec<Metric>,
    /// The workload's own per-layer metrics (traced runs only; the layer
    /// drivers' are in [`SuiteResult::layers`]).
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    /// Whether every check passed and no unit of work failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// The finished benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// The options it ran under.
    pub options: Options,
    /// One entry per primary workload, in run order.
    pub workloads: Vec<WorkloadResult>,
    /// The layer drivers' metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Chrome trace-event document of the bench-side spans (traced runs
    /// only).
    pub chrome_trace: Option<Json>,
}

/// Fewest repetitions of a timed or traced pass, however short its budget.
pub const MIN_TIMED_REPS: usize = 3;
/// Counted repetitions per workload; they must agree bit for bit.
const COUNTED_REPS: usize = 2;
/// Set-up batches per workload, spread over its timed pass.
const SETUP_BATCHES: usize = 16;

/// One set-up batch: the median of 32 one-frame runs after 5 warm-ups
/// (`brake_*`), or of 4 world constructions after one (`fleet_*`).
fn setup_batch(workload: Workload, size: Size, seed: u64) -> f64 {
    let (warmups, samples) = match size {
        Size::Frames(_) => (5, 32),
        Size::Fleet(_) => (1, 4),
    };
    let times: Vec<f64> = (0..warmups + samples)
        .map(|_| setup_once(workload, size, seed))
        .skip(warmups)
        .collect();
    Samples::of(&times).expect("finite set-up times").median
}

/// One verify-pass run: small size, per-stage traces fingerprinted.
fn verify_run(workload: Workload, seed: u64) -> RepOutcome {
    run_rep(
        workload,
        workload.size(true),
        seed,
        true,
        &mut Tracer::new(false),
    )
}

impl Suite {
    /// A suite measuring `workloads`. With tracing on, each workload's
    /// one-factor neighbour is measured too (unreported) so the
    /// difference between the two can be.
    fn new(options: Options, workloads: &[Workload]) -> Suite {
        let mut all: Vec<(Workload, bool)> = Vec::new();
        for &w in workloads {
            if let Some(n) = w.neighbour().filter(|_| options.trace) {
                if !all.iter().any(|(have, _)| *have == n) && !workloads.contains(&n) {
                    all.push((n, false));
                }
            }
            all.push((w, true));
        }
        let sessions = all
            .into_iter()
            .map(|(workload, primary)| Session {
                workload,
                primary,
                size: workload.size(options.smoke),
                errors: Vec::new(),
                setup_s: Vec::new(),
                timed: Vec::new(),
                traced: Vec::new(),
                counted: Vec::new(),
            })
            .collect();
        Suite {
            tracer: Tracer::new(options.trace),
            options,
            sessions,
            layers: Vec::new(),
        }
    }

    /// Pass 1. Every failed check lands in its workload's error list.
    fn verify(&mut self) {
        let seed = self.options.seed;
        // One reference run per family, made only if the family is present.
        let mut brake_ref: Option<RepOutcome> = None;
        let mut fleet_ref: Option<RepOutcome> = None;
        for s in &mut self.sessions {
            let w = s.workload;
            let span = self.tracer.begin("verify", w.name());
            let (family_ref, ref_workload) = if w.is_brake() {
                (&mut brake_ref, Workload::BrakeDecentralized)
            } else {
                (&mut fleet_ref, Workload::FleetFlat)
            };
            let reference = &*family_ref.get_or_insert_with(|| verify_run(ref_workload, seed));
            let own;
            let out = if w == ref_workload {
                reference
            } else {
                own = verify_run(w, seed);
                &own
            };
            if out.failed != 0 || out.units != out.attempted {
                s.errors.push(format!(
                    "verify: {} of {} units done, {} failed",
                    out.units, out.attempted, out.failed
                ));
            }
            if w.is_brake() {
                let expected = self.options.expected_brake_fingerprint;
                if out.fingerprint != expected {
                    s.errors.push(format!(
                        "verify: decision fingerprint {:016x} at {VERIFY_FRAMES} frames, expected {expected:016x}",
                        out.fingerprint
                    ));
                }
                if out.stage_traces.is_empty() || out.stage_traces != reference.stage_traces {
                    s.errors.push(format!(
                        "verify: per-stage trace fingerprints differ from {}",
                        ref_workload.name()
                    ));
                }
            } else if out.fingerprint != reference.fingerprint {
                s.errors.push(format!(
                    "verify: processed-tag fingerprint {:016x} differs from {}'s {:016x} at {VERIFY_FLEET:?}",
                    out.fingerprint,
                    ref_workload.name(),
                    reference.fingerprint
                ));
            }
            self.tracer.end(span);
        }
    }

    /// Every workload's timed, traced and counted passes, one workload
    /// after the other. A reported workload's timed pass lasts `seconds`,
    /// with the set-up batches spread over it, and its traced pass a
    /// quarter of that; a workload measured only as another's neighbour
    /// gets half of `seconds` and neither set-up nor traced pass.
    fn measure(&mut self, seconds: f64) {
        let seed = self.options.seed;

        // Repetitions into `into` until `seconds` have passed, at least
        // `MIN_TIMED_REPS`; stops early rather than start one the budget
        // has no room for. `before_rep` is told the seconds passed so far.
        fn repeat(
            (workload, size, seed): (Workload, Size, u64),
            seconds: f64,
            tracer: &mut Tracer,
            into: &mut Vec<RepOutcome>,
            mut before_rep: impl FnMut(f64),
        ) {
            let started = HostInstant::now();
            let mut fastest = f64::INFINITY;
            let first = into.len();
            loop {
                before_rep(started.elapsed().as_secs_f64());
                let rep = run_rep(workload, size, seed, false, tracer);
                fastest = fastest.min(rep.host_s());
                into.push(rep);
                if into.len() - first >= MIN_TIMED_REPS
                    && started.elapsed().as_secs_f64() + fastest > seconds
                {
                    break;
                }
            }
        }

        let mut off = Tracer::new(false);
        for s in &mut self.sessions {
            let run = (s.workload, s.size, seed);
            if s.primary {
                // One set-up batch per `SETUP_BATCHES`-th of the pass (the
                // rest afterwards, if repetitions were too few), so that
                // a bad phase of the machine cannot catch them all.
                let mut batch = || {
                    let span = self.tracer.begin("setup", s.workload.name());
                    s.setup_s.push(setup_batch(s.workload, s.size, seed));
                    self.tracer.end(span);
                };
                let mut batches = 0;
                repeat(run, seconds, &mut off, &mut s.timed, |elapsed| {
                    if batches < SETUP_BATCHES
                        && elapsed >= seconds * batches as f64 / SETUP_BATCHES as f64
                    {
                        batch();
                        batches += 1;
                    }
                });
                for _ in batches..SETUP_BATCHES {
                    batch();
                }
            } else {
                repeat(run, seconds / 2.0, &mut off, &mut s.timed, |_| ());
            }
            if s.primary && self.options.trace {
                let span = self.tracer.begin("workload", s.workload.name());
                let traced_s = seconds / 4.0;
                repeat(run, traced_s, &mut self.tracer, &mut s.traced, |_| ());
                self.tracer.end(span);
            }
            for _ in 0..COUNTED_REPS {
                s.counted.push(counted(|| {
                    run_rep(s.workload, s.size, seed, false, &mut off)
                }));
            }
        }
    }

    /// The last pass: every layer driver, each for about `budget_s`
    /// seconds.
    fn run_layers(&mut self, budget_s: f64) {
        self.layers = layers::run_all(budget_s, &mut self.tracer);
    }

    /// Cross-checks every repetition and computes the metrics.
    fn finish(mut self) -> SuiteResult {
        for s in &mut self.sessions {
            s.check_reps();
        }
        // Variants of one family at one size decide the same frames and
        // process the same tags, whatever coordinates them.
        for i in 0..self.sessions.len() {
            let (a, rest) = self.sessions[i..].split_first_mut().expect("i in range");
            for b in rest {
                let (Some(fa), Some(fb)) = (a.fingerprint(), b.fingerprint()) else {
                    continue;
                };
                if a.size == b.size && a.workload.is_brake() == b.workload.is_brake() && fa != fb {
                    let msg = format!(
                        "{} and {} disagree at equal size: {fa:016x} vs {fb:016x}",
                        a.workload.name(),
                        b.workload.name()
                    );
                    a.errors.push(msg.clone());
                    b.errors.push(msg);
                }
            }
        }
        let trace = self.options.trace;
        let workloads = self
            .sessions
            .iter()
            .filter(|s| s.primary)
            .map(|s| {
                let neighbour = s
                    .workload
                    .neighbour()
                    .and_then(|n| self.sessions.iter().find(|o| o.workload == n));
                WorkloadResult {
                    workload: s.workload,
                    size: s.size,
                    errors: s.errors.clone(),
                    attempted: s.all_reps().map(|r| r.attempted).sum(),
                    failed: s.all_reps().map(|r| r.failed).sum(),
                    fingerprint: s.fingerprint().unwrap_or(0),
                    reps: s.timed.len(),
                    end_to_end: s.end_to_end(),
                    per_layer: if trace {
                        s.per_layer(neighbour, &self.layers)
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect();
        SuiteResult {
            workloads,
            layers: self.layers,
            chrome_trace: trace.then(|| self.tracer.chrome_trace()),
            options: self.options,
        }
    }
}

/// Noise-free host seconds of one repetition, estimated from several:
/// the fastest observation of each segment, summed. Repetitions are the
/// same deterministic computation segment by segment, and interference
/// only ever adds time. With one segment per repetition (`brake_*`) this
/// is the fastest repetition.
fn best_seconds(reps: &[RepOutcome]) -> Option<f64> {
    let first = reps.first()?;
    let mut best = first.segments.clone();
    for rep in &reps[1..] {
        if rep.segments.len() != best.len() {
            return None; // flagged by `check_reps`
        }
        for (b, s) in best.iter_mut().zip(&rep.segments) {
            *b = b.min(*s);
        }
    }
    Some(best.iter().sum())
}

impl Session {
    /// Every repetition made, whatever the pass.
    fn all_reps(&self) -> impl Iterator<Item = &RepOutcome> {
        self.timed
            .iter()
            .chain(&self.traced)
            .chain(self.counted.iter().map(|(r, _)| r))
    }

    /// What every repetition has in common (checked by `check_reps`):
    /// fingerprint, units and counters.
    fn any_rep(&self) -> Option<&RepOutcome> {
        self.all_reps().next()
    }

    fn fingerprint(&self) -> Option<u64> {
        self.any_rep().map(|r| r.fingerprint)
    }

    /// Every repetition is the same deterministic computation: same
    /// fingerprint, same counters, same allocations, nothing failed.
    fn check_reps(&mut self) {
        let Some(first) = self.any_rep() else {
            return;
        };
        let mut errors = Vec::new();
        for (i, r) in self.all_reps().enumerate() {
            if r.failed != 0 || r.units != r.attempted {
                errors.push(format!(
                    "repetition {i}: {} of {} units done, {} failed",
                    r.units, r.attempted, r.failed
                ));
            }
            if r.fingerprint != first.fingerprint
                || r.counts != first.counts
                || r.segments.len() != first.segments.len()
            {
                errors.push(format!("repetition {i} is not a repeat of repetition 0"));
            }
        }
        if let Some((_, first)) = self.counted.first() {
            if self.counted.iter().any(|(_, c)| c != first) {
                errors.push("counted repetitions disagree on allocations".to_owned());
            }
        }
        self.errors.extend(errors);
    }

    fn units(&self) -> Option<f64> {
        self.any_rep().map(|r| r.units as f64)
    }

    fn ns_per_unit(&self) -> Option<f64> {
        Some(best_seconds(&self.timed)? * 1e9 / self.units()?)
    }

    /// The end-to-end metrics the passes made so far support.
    fn end_to_end(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let rates: Vec<f64> = self
            .timed
            .iter()
            .map(|r| r.units as f64 / r.host_s())
            .collect();
        if let (Some(best), Some(units)) = (best_seconds(&self.timed), self.units()) {
            out.push(Metric::new("work_per_s", units / best, Samples::of(&rates)));
        }
        // The lower quartile of the batches: interference only adds time,
        // so the quiet quarter is the measurement — but not the fastest
        // batch, because one batch in a dozen runs a third faster than
        // the rest (a `brake_centralized` set-up at 38 µs against 54).
        if let Some(samples) = Samples::of(&self.setup_s) {
            out.push(Metric::new("setup_s", samples.q1, Some(samples)));
        }
        if let (Some((_, count)), Some(units)) = (self.counted.first(), self.units()) {
            out.push(Metric::new(
                "allocs_per_unit",
                count.allocs as f64 / units,
                None,
            ));
            out.push(Metric::new(
                "peak_live_mib",
                count.peak_live_bytes as f64 / (1024.0 * 1024.0),
                None,
            ));
        }
        out
    }

    /// The workload's own per-layer metrics: protocol counters per
    /// processed tag, differences to the one-factor neighbour, how much
    /// of a frame the hop drivers explain, and what tracing cost.
    fn per_layer(&self, neighbour: Option<&Session>, layers: &[Metric]) -> Vec<Metric> {
        let Some(rep) = self.any_rep() else {
            return Vec::new();
        };
        let c = &rep.counts;
        let per_tag = |n: u64| {
            if c.processed_tags == 0 {
                0.0
            } else {
                n as f64 / c.processed_tags as f64
            }
        };
        let ns_per_unit = self.ns_per_unit().unwrap_or(0.0);
        let layer = |name: &str| layers.iter().find(|m| m.decl.name == name).map(|m| m.value);
        let exact = |name: &str, value: f64| Metric::new(name, value, None);
        // This workload minus its neighbour: the cost of the one factor
        // they differ in. Zero where there is no neighbour.
        let delta = |of: &dyn Fn(&Session) -> Option<f64>| match (of(self), neighbour.and_then(of))
        {
            (Some(own), Some(other)) => own - other,
            _ => 0.0,
        };
        let counted = |s: &Session| s.counted.first().map(|(_, count)| *count);
        let mut out = vec![
            exact("e2e.ns_per_unit", ns_per_unit),
            exact("e2e.logical_latency_ms", c.logical_e2e_ns as f64 / 1e6),
            // What a repetition allocated and never freed (its own small
            // outcome included): a leak shows here, and as repetitions
            // that slow down as a process ages.
            exact(
                "e2e.retained_bytes_per_unit",
                counted(self).map_or(0.0, |count| count.retained_bytes as f64 / rep.units as f64),
            ),
            exact("federation.ctrl_frames_per_tag", per_tag(c.ctrl_frames())),
            exact(
                "federation.grant_wait_us_per_tag",
                per_tag(c.grant_wait_ns) / 1e3,
            ),
            exact("federation.nets_per_tag", per_tag(c.nets)),
            exact("federation.ltcs_per_tag", per_tag(c.ltcs)),
            exact("federation.grants_per_tag", per_tag(c.grants)),
            exact(
                "federation.windowed_share",
                if c.grants == 0 {
                    0.0
                } else {
                    c.windowed_grants as f64 / c.grants as f64
                },
            ),
            exact("federation.batches_per_tag", per_tag(c.batches)),
            exact("sim.events_per_tag", per_tag(c.sim_events)),
            exact("neighbour.delta_ns_per_unit", delta(&Session::ns_per_unit)),
            exact(
                "neighbour.delta_allocs_per_unit",
                delta(&|s| Some(counted(s)?.allocs as f64 / s.units()?)),
            ),
            exact(
                "neighbour.delta_bytes_per_unit",
                delta(&|s| Some(counted(s)?.peak_live_bytes as f64 / s.units()?)),
            ),
        ];

        // Five hops (four tagged, one sensor) plus the application logic,
        // against the measured frame. Each hop driver pays a producer tag
        // of its own where the pipeline's stages share theirs, so this is
        // an upper bound and may exceed 1.
        let hop = if self.workload == Workload::BrakeDecentralized {
            "transactors.hop_ns_per_msg"
        } else {
            "federation.coordinated_hop_ns_per_msg"
        };
        let hops_share = match (layer(hop), layer("apd.logic_ns_per_frame")) {
            (Some(hop), Some(logic)) if self.workload.is_brake() && ns_per_unit > 0.0 => {
                (5.0 * hop + logic) / ns_per_unit
            }
            _ => 0.0,
        };
        out.push(exact("attrib.hops_share", hops_share));
        out.push(exact("attrib.residue_share", 1.0 - hops_share));

        // Against as many timed repetitions as there are traced ones, the
        // latest: the estimate improves with the number of repetitions,
        // and the traced ones follow the timed ones directly.
        let paired = &self.timed[self.timed.len().saturating_sub(self.traced.len())..];
        let overhead = match (best_seconds(&self.traced), best_seconds(paired)) {
            (Some(traced), Some(timed)) => (traced - timed) / timed,
            _ => 0.0,
        };
        out.push(exact("trace.overhead_share", overhead));
        out
    }
}

fn size_label(size: Size) -> String {
    match size {
        Size::Frames(n) => format!("{n} frames"),
        Size::Fleet(f) => format!(
            "{} federates in {} zones, {} ms virtual",
            f.federates(),
            f.zones,
            f.horizon_ms
        ),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::object(metrics.iter().map(|m| (m.decl.name, m.to_result_json())))
}

impl SuiteResult {
    /// Whether every workload passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::correct)
    }

    /// The result file: self-describing, so `compare` needs nothing else.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|w| {
            (
                w.workload.name(),
                Json::object([
                    ("size", Json::from(size_label(w.size))),
                    ("unit", Json::from(w.workload.unit())),
                    ("correct", Json::from(w.correct())),
                    (
                        "errors",
                        Json::Array(w.errors.iter().map(|e| Json::from(e.as_str())).collect()),
                    ),
                    ("attempted", Json::from(w.attempted)),
                    ("failed", Json::from(w.failed)),
                    ("fingerprint", Json::from(format!("{:016x}", w.fingerprint))),
                    ("reps", Json::from(w.reps as u64)),
                    ("end_to_end", metrics_json(&w.end_to_end)),
                    ("per_layer", metrics_json(&w.per_layer)),
                ]),
            )
        });
        Json::object([
            ("benchmark", Json::from("dear-benchmark")),
            ("seed", Json::from(self.options.seed)),
            ("smoke", Json::from(self.options.smoke)),
            (
                "threads_available",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            ("workloads", Json::object(workloads)),
            ("layers", metrics_json(&self.layers)),
        ])
    }

    /// The last line of a contract run: correctness, work attempted and
    /// failed, and every end-to-end metric (`trace` off) or every
    /// per-layer metric (`trace` on) of the one workload measured.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one workload was measured.
    #[must_use]
    pub fn contract_line(&self) -> String {
        let [w] = self.workloads.as_slice() else {
            panic!("a contract run measures exactly one workload");
        };
        let metrics: Vec<&Metric> = if self.options.trace {
            w.per_layer.iter().chain(&self.layers).collect()
        } else {
            w.end_to_end.iter().collect()
        };
        Json::object([
            ("correct", Json::from(w.correct())),
            ("attempted", Json::from(w.attempted.max(1))),
            ("failed", Json::from(w.failed)),
            (
                "metrics",
                Json::object(metrics.iter().map(|m| (m.decl.name, m.to_contract_json()))),
            ),
        ])
        .to_line()
    }

    /// Every metric by name with its unit, for people.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let row = |out: &mut String, m: &Metric| {
            let spread = m.samples.map_or(String::new(), |s| {
                format!(
                    "  n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                )
            });
            let _ = writeln!(
                out,
                "    {:<42} {:>16.6} {:<14}{spread}",
                m.decl.name, m.value, m.decl.unit
            );
        };
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "{} — {}, seed {}, {} timed repetitions, fingerprint {:016x}, {} of {} units failed: {}",
                w.workload.name(),
                size_label(w.size),
                self.options.seed,
                w.reps,
                w.fingerprint,
                w.failed,
                w.attempted,
                if w.correct() { "correct" } else { "INCORRECT" },
            );
            for e in &w.errors {
                let _ = writeln!(out, "    ERROR {e}");
            }
            for m in w.end_to_end.iter().chain(&w.per_layer) {
                row(&mut out, m);
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                out,
                "layer drivers (fastest batch; spread over batches beside it)"
            );
            for m in &self.layers {
                row(&mut out, m);
            }
        }
        out
    }
}

/// Runs the benchmark over `workloads`: verify, measure with a timed pass
/// of `seconds` per workload, and — when tracing — the layer drivers for
/// `layer_budget_s` seconds each.
#[must_use]
pub fn run(
    options: Options,
    workloads: &[Workload],
    seconds: f64,
    layer_budget_s: f64,
) -> SuiteResult {
    let trace = options.trace;
    let mut suite = Suite::new(options, workloads);
    suite.verify();
    suite.measure(seconds);
    if trace {
        suite.run_layers(layer_budget_s);
    }
    suite.finish()
}
