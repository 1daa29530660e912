//! What is done with result files: `dear-benchmark compare A.json B.json`
//! — two of them, metric by metric, A the parent and B the change — and
//! the merging of a full run's rounds into one.

use crate::report::Json;
use std::fmt::Write as _;

/// What a pair of values says about the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Improved,
    /// No worse and no better than the bound (exact metrics: identical,
    /// or moved by less than the bound).
    WithinBound,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// On either side the quarter of repetitions nearest the value lies
    /// further from it than the bound, and the two sides' ranges overlap:
    /// the machine was too noisy for these runs to tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload (or of the layer drivers), both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name, or `layers` for the layer drivers.
    pub scope: String,
    /// Metric name.
    pub metric: String,
    /// Parent's value.
    pub a: f64,
    /// Change's value.
    pub b: f64,
    /// `(b − a) / |a|`; 0 when both are 0.
    pub change: f64,
    /// The regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// The verdict, for metrics with a bound.
    pub verdict: Option<Verdict>,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// One row per metric present on both sides.
    pub rows: Vec<Row>,
    /// Reasons beyond regressed rows to reject B: a workload or metric
    /// of A missing from B, or a larger share of failed work.
    pub failures: Vec<String>,
}

struct Side {
    value: f64,
    /// `(min, max, doubt)` of the repetitions behind the value, where
    /// `doubt` is how far the value lies from the quartile of repetitions
    /// nearest to it, as a share of the value. The value is the fastest
    /// observation, so it is trustworthy to the extent that a quarter of
    /// the repetitions came close to it.
    reps: Option<(f64, f64, f64)>,
}

fn side(metric: &Json) -> Option<Side> {
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64);
    let value = num(metric, "value")?;
    let higher_is_better = metric.get("better").and_then(Json::as_str) == Some("higher");
    let reps = metric.get("samples").and_then(|s| {
        let nearest = num(s, if higher_is_better { "q3" } else { "q1" })?;
        let doubt = if value == 0.0 {
            0.0
        } else {
            ((value - nearest) / value).abs()
        };
        Some((num(s, "min")?, num(s, "max")?, doubt))
    });
    Some(Side { value, reps })
}

fn judge(metric: &Json, a: &Side, b: &Side, change: f64) -> Option<Verdict> {
    let bound = metric.get("bound").and_then(Json::as_f64)?;
    let higher_is_better = metric.get("better").and_then(Json::as_str) == Some("higher");
    let worsening = if higher_is_better { -change } else { change };
    let exact = metric.get("kind").and_then(Json::as_str) == Some("exact");
    if !exact {
        if let (Some((a_min, a_max, a_doubt)), Some((b_min, b_max, b_doubt))) = (a.reps, b.reps) {
            let overlap = a_min <= b_max && b_min <= a_max;
            if overlap && a_doubt.max(b_doubt) > bound {
                return Some(Verdict::Unresolved);
            }
        }
    }
    Some(if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    })
}

fn compare_metrics(out: &mut Comparison, scope: &str, a: Option<&Json>, b: Option<&Json>) {
    let Some(a) = a else { return };
    for (name, metric_a) in a.members() {
        let sides = b
            .and_then(|b| b.get(name))
            .and_then(side)
            .and_then(|b| Some((side(metric_a)?, b)));
        let Some((sa, sb)) = sides else {
            out.failures
                .push(format!("{scope}: {name} is missing or malformed in B"));
            continue;
        };
        let change = if sa.value == sb.value {
            0.0
        } else {
            (sb.value - sa.value) / sa.value.abs()
        };
        out.rows.push(Row {
            scope: scope.to_owned(),
            metric: name.clone(),
            a: sa.value,
            b: sb.value,
            change,
            bound: metric_a.get("bound").and_then(Json::as_f64),
            verdict: judge(metric_a, &sa, &sb, change),
        });
    }
}

/// Compares result file `b` (the change) against `a` (the parent).
#[must_use]
pub fn compare(a: &Json, b: &Json) -> Comparison {
    let mut out = Comparison::default();
    let workloads_b = b.get("workloads");
    for (name, wa) in a.get("workloads").map_or(&[][..], Json::members) {
        let Some(wb) = workloads_b.and_then(|w| w.get(name)) else {
            out.failures.push(format!("{name}: missing in B"));
            continue;
        };
        let failed_share = |w: &Json| {
            let n = |key| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        if failed_share(wb) > failed_share(wa) {
            out.failures.push(format!(
                "{name}: failed share grew from {} to {}",
                failed_share(wa),
                failed_share(wb)
            ));
        }
        for table in ["end_to_end", "per_layer"] {
            compare_metrics(&mut out, name, wa.get(table), wb.get(table));
        }
    }
    compare_metrics(&mut out, "layers", a.get("layers"), b.get("layers"));
    out
}

impl Comparison {
    /// Whether B must be rejected: any regressed row, or any failure.
    #[must_use]
    pub fn rejected(&self) -> bool {
        !self.failures.is_empty()
            || self
                .rows
                .iter()
                .any(|r| r.verdict == Some(Verdict::Regressed))
    }

    /// The comparison as a table, one row per metric.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<42} {:>16} {:>16} {:>9} {:>6}  verdict",
            "scope", "metric", "A", "B", "change", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<20} {:<42} {:>16.6} {:>16.6} {:>+8.2}% {:>6}  {}",
                r.scope,
                r.metric,
                r.a,
                r.b,
                r.change * 100.0,
                r.bound.map_or("-".to_owned(), |b| format!("{b}")),
                r.verdict.map_or("-", Verdict::as_str),
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAIL {f}");
        }
        let count = |v| self.rows.iter().filter(|r| r.verdict == Some(v)).count();
        let _ = writeln!(
            out,
            "{} improved, {} within-bound, {} regressed, {} unresolved, {} failures",
            count(Verdict::Improved),
            count(Verdict::WithinBound),
            count(Verdict::Regressed),
            count(Verdict::Unresolved),
            self.failures.len()
        );
        out
    }
}

/// One workload's entry out of the entries of its rounds: the round with
/// the highest `work_per_s` (its per-layer metrics belong together), with
/// every host-time end-to-end metric replaced by its best value over all
/// rounds — interference only ever makes a round worse. Exact metrics
/// must agree across rounds; the names of those that do not are returned.
///
/// # Panics
///
/// Panics if `rounds` is empty.
#[must_use]
pub fn merge_rounds(rounds: &[Json]) -> (Json, Vec<String>) {
    fn metric<'a>(round: &'a Json, name: &str) -> Option<&'a Json> {
        round.get("end_to_end")?.get(name)
    }
    let value = |round: &Json, name: &str| metric(round, name)?.get("value")?.as_f64();
    let best_round = |name: &str, higher_is_better: bool| {
        rounds
            .iter()
            .filter(|r| value(r, name).is_some())
            .reduce(|best, r| {
                let (b, v) = (value(best, name), value(r, name));
                if v != b && (v > b) == higher_is_better {
                    r
                } else {
                    best
                }
            })
    };
    let mut merged = best_round("work_per_s", true).unwrap_or(&rounds[0]).clone();
    let mut disagreeing = Vec::new();
    let metrics = merged
        .get("end_to_end")
        .map_or(&[][..], Json::members)
        .to_vec();
    for (name, kept) in metrics {
        let text = |key| kept.get(key).and_then(Json::as_str);
        if text("kind") == Some("exact") {
            if rounds
                .iter()
                .any(|r| value(r, &name) != value(&merged, &name))
            {
                disagreeing.push(name);
            }
            continue;
        }
        let winner = best_round(&name, text("better") == Some("higher"))
            .and_then(|r| metric(r, &name))
            .cloned();
        let slot = merged.get_mut("end_to_end").and_then(|t| t.get_mut(&name));
        if let (Some(winner), Some(slot)) = (winner, slot) {
            *slot = winner;
        }
    }
    (merged, disagreeing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, better: &str, kind: &str, reps: Option<(f64, f64, f64, f64)>) -> Json {
        let mut fields = vec![
            ("value", Json::from(value)),
            ("unit", Json::from("x")),
            ("better", Json::from(better)),
            ("kind", Json::from(kind)),
            ("bound", Json::from(0.10)),
        ];
        if let Some((min, q1, q3, max)) = reps {
            fields.push((
                "samples",
                Json::object([
                    ("n", Json::from(9u64)),
                    ("min", Json::from(min)),
                    ("q1", Json::from(q1)),
                    ("median", Json::from((q1 + q3) / 2.0)),
                    ("q3", Json::from(q3)),
                    ("max", Json::from(max)),
                ]),
            ));
        }
        Json::object(fields)
    }

    fn file(failed: u64, metrics: Vec<(&str, Json)>) -> Json {
        Json::object([(
            "workloads",
            Json::object([(
                "brake_diet",
                Json::object([
                    ("attempted", Json::from(1000u64)),
                    ("failed", Json::from(failed)),
                    ("end_to_end", Json::object(metrics)),
                ]),
            )]),
        )])
    }

    fn verdict_of(a: Json, b: Json) -> Option<Verdict> {
        let c = compare(&file(0, vec![("m", a)]), &file(0, vec![("m", b)]));
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        c.rows[0].verdict
    }

    #[test]
    fn host_metrics_follow_direction_bound_and_spread() {
        let tight = |v: f64| Some((v * 0.99, v * 0.995, v * 1.005, v * 1.01));
        let m = |v: f64| metric(v, "higher", "host", tight(v));
        assert_eq!(verdict_of(m(100.0), m(95.0)), Some(Verdict::WithinBound));
        assert_eq!(verdict_of(m(100.0), m(85.0)), Some(Verdict::Regressed));
        assert_eq!(verdict_of(m(100.0), m(120.0)), Some(Verdict::Improved));
        let lower = |v: f64| metric(v, "lower", "host", tight(v));
        assert_eq!(
            verdict_of(lower(100.0), lower(120.0)),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict_of(lower(100.0), lower(80.0)),
            Some(Verdict::Improved)
        );

        // Repetitions that mostly ran far below the value cannot resolve
        // a 15 % drop while the ranges overlap…
        let noisy = |v: f64| metric(v, "higher", "host", Some((v * 0.6, v * 0.7, v * 0.8, v)));
        assert_eq!(
            verdict_of(noisy(100.0), noisy(85.0)),
            Some(Verdict::Unresolved)
        );
        // …but ranges that do not overlap can.
        assert_eq!(
            verdict_of(noisy(100.0), noisy(50.0)),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn exact_metrics_ignore_spread_and_missing_bounds_give_no_verdict() {
        let e = |v: f64| metric(v, "lower", "exact", None);
        assert_eq!(verdict_of(e(76.0), e(76.0)), Some(Verdict::WithinBound));
        assert_eq!(verdict_of(e(76.0), e(90.0)), Some(Verdict::Regressed));
        assert_eq!(verdict_of(e(76.0), e(60.0)), Some(Verdict::Improved));
        let unbounded = Json::object([("value", Json::from(1.0))]);
        assert_eq!(verdict_of(unbounded.clone(), unbounded), None);
    }

    #[test]
    fn rejection_on_regression_missing_metric_or_more_failures() {
        let m = |v: f64| metric(v, "lower", "exact", None);
        let ok = compare(&file(0, vec![("m", m(1.0))]), &file(0, vec![("m", m(1.0))]));
        assert!(!ok.rejected(), "{}", ok.render());
        let worse = compare(&file(0, vec![("m", m(1.0))]), &file(0, vec![("m", m(2.0))]));
        assert!(worse.rejected() && worse.render().contains("regressed"));
        let missing = compare(&file(0, vec![("m", m(1.0))]), &file(0, vec![]));
        assert!(missing.rejected() && missing.rows.is_empty());
        let failing = compare(&file(0, vec![("m", m(1.0))]), &file(3, vec![("m", m(1.0))]));
        assert!(failing.rejected() && failing.render().contains("failed share grew"));
        let no_workload = compare(
            &file(0, vec![]),
            &Json::object([("workloads", Json::object::<&str>([]))]),
        );
        assert!(no_workload.rejected());
    }

    #[test]
    fn rounds_merge_to_the_best_of_each_host_metric() {
        let round = |work: f64, setup: f64, allocs: f64, tag: &str| {
            Json::object([
                ("fingerprint", Json::from(tag)),
                (
                    "end_to_end",
                    Json::object([
                        ("work_per_s", metric(work, "higher", "host", None)),
                        ("setup_s", metric(setup, "lower", "host", None)),
                        ("allocs_per_unit", metric(allocs, "lower", "exact", None)),
                    ]),
                ),
            ])
        };
        let value = |entry: &Json, name: &str| {
            entry
                .get("end_to_end")
                .and_then(|t| t.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let rounds = [
            round(90.0, 2.0, 76.0, "a"),
            round(100.0, 3.0, 76.0, "b"),
            round(95.0, 1.5, 76.0, "c"),
        ];
        let (merged, disagreeing) = merge_rounds(&rounds);
        assert!(disagreeing.is_empty());
        // The entry of the fastest round, with the best set-up of any.
        assert_eq!(merged.get("fingerprint").and_then(Json::as_str), Some("b"));
        assert_eq!(value(&merged, "work_per_s"), Some(100.0));
        assert_eq!(value(&merged, "setup_s"), Some(1.5));
        assert_eq!(value(&merged, "allocs_per_unit"), Some(76.0));

        let (_, disagreeing) =
            merge_rounds(&[round(1.0, 1.0, 76.0, "a"), round(1.0, 1.0, 77.0, "b")]);
        assert_eq!(disagreeing, ["allocs_per_unit"]);
    }
}
