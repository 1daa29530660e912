//! The metrics registry: counters, gauges, and fixed-bucket log-2
//! latency histograms with deterministic snapshots.
//!
//! Everything here is integer arithmetic over `BTreeMap`s, so a
//! [`Registry::snapshot`] is a pure function of the recorded values:
//! two runs that record the same values in any order produce
//! byte-identical snapshot text. That property is what the
//! snapshot-determinism property tests assert across executor back-ends.

use dear_time::Duration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log-2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`. 64 value buckets + the zero bucket
/// cover the whole `u64` range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log-2 histogram over `u64` samples (typically
/// nanoseconds of latency).
///
/// Fed by [`Observe::record_value`](crate::Observe::record_value) and
/// rendered into the snapshot:
///
/// ```
/// use dear_observe::Observe;
///
/// let obs = Observe::enabled();
/// for v in [1u64, 2, 3, 1000] {
///     obs.record_value("lat", v);
/// }
/// let snapshot = obs.snapshot();
/// assert!(snapshot.contains("hist lat: count=4 sum=1006"));
/// assert!(snapshot.contains("max=1000"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// The bucket index a value falls into.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of a bucket.
fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, rounded down (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// An upper bound on the `q`-th percentile (0–100): the inclusive
    /// top of the first bucket at which the cumulative count reaches
    /// `q%` of all samples. Deterministic by construction.
    #[must_use]
    pub(crate) fn percentile_bound(&self, q: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * u64::from(q.min(100))).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Renders the canonical one-line form used in snapshots.
    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "count={} sum={} mean={} p50={} p90={} p99={} max={}",
            self.count,
            self.sum,
            self.mean(),
            self.percentile_bound(50),
            self.percentile_bound(90),
            self.percentile_bound(99),
            self.max
        );
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    // Boxed: a histogram's bucket array dwarfs the scalar variants.
    Histogram(Box<Histogram>),
}

/// A keyed collection of metrics with deterministic, key-ordered
/// snapshots.
///
/// Keys are flat strings with `/`-separated scopes by convention
/// (`"coord/grant_wait_ns"`); [`Registry::snapshot_filtered`] selects a
/// scope by prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// Adds `by` to the counter `key` (creating it at zero).
    pub(crate) fn counter_add(&mut self, key: &str, by: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Counter(v)) => *v += by,
            Some(other) => *other = Metric::Counter(by),
            None => {
                self.metrics.insert(key.to_owned(), Metric::Counter(by));
            }
        }
    }

    /// Sets the counter `key` to an absolute value (for absorbing
    /// externally accumulated stats counters).
    #[cfg(test)]
    pub(crate) fn counter_set(&mut self, key: &str, value: u64) {
        self.insert(key, Metric::Counter(value));
    }

    /// Sets the gauge `key`.
    pub(crate) fn gauge_set(&mut self, key: &str, value: i64) {
        self.insert(key, Metric::Gauge(value));
    }

    /// Records a sample into the histogram `key` (creating it empty).
    pub(crate) fn histogram_record(&mut self, key: &str, value: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Histogram(h)) => h.record(value),
            _ => {
                let mut h = Histogram::default();
                h.record(value);
                self.metrics
                    .insert(key.to_owned(), Metric::Histogram(Box::new(h)));
            }
        }
    }

    fn insert(&mut self, key: &str, metric: Metric) {
        match self.metrics.get_mut(key) {
            Some(slot) => *slot = metric,
            None => {
                self.metrics.insert(key.to_owned(), metric);
            }
        }
    }

    /// The current value of a counter, if `key` names one.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn counter(&self, key: &str) -> Option<u64> {
        match self.metrics.get(key) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The current value of a gauge, if `key` names one.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn gauge(&self, key: &str) -> Option<i64> {
        match self.metrics.get(key) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A clone of the histogram at `key`, if one exists.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn histogram(&self, key: &str) -> Option<Histogram> {
        match self.metrics.get(key) {
            Some(Metric::Histogram(h)) => Some((**h).clone()),
            _ => None,
        }
    }

    /// Number of registered metrics.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metric has been registered.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders every metric, one line per key, in key order.
    ///
    /// The output is a pure function of the recorded values — the
    /// deterministic serialized form the property tests compare.
    #[must_use]
    pub(crate) fn snapshot(&self) -> String {
        self.snapshot_filtered("")
    }

    /// Like [`Registry::snapshot`], restricted to keys starting with
    /// `prefix` (per-subsystem views, e.g. `"runtime/"`).
    #[must_use]
    pub(crate) fn snapshot_filtered(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (key, metric) in &self.metrics {
            if !key.starts_with(prefix) {
                continue;
            }
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "counter {key} = {v}");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "gauge {key} = {v}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(out, "hist {key}: ");
                    h.render(&mut out);
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Converts a (possibly negative) duration to histogram nanoseconds,
/// clamping below zero.
#[must_use]
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().max(0).unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile_bound(99), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        assert_eq!(h.max(), 100);
        // p50 of 1..=100 lands in the bucket [32, 64).
        assert_eq!(h.percentile_bound(50), 63);
        // The top percentile never exceeds the recorded max.
        assert_eq!(h.percentile_bound(100), 100);
    }

    #[test]
    fn snapshot_is_key_ordered_and_deterministic() {
        let mut a = Registry::default();
        a.counter_add("z/last", 1);
        a.gauge_set("a/first", -3);
        a.histogram_record("m/mid", 7);

        let mut b = Registry::default();
        b.histogram_record("m/mid", 7);
        b.counter_add("z/last", 1);
        b.gauge_set("a/first", -3);

        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        let keys: Vec<&str> = snap.lines().collect();
        assert!(keys[0].starts_with("gauge a/first"));
        assert!(keys[1].starts_with("hist m/mid"));
        assert!(keys[2].starts_with("counter z/last"));
    }

    #[test]
    fn filtered_snapshot_selects_scope() {
        let mut r = Registry::default();
        r.counter_add("runtime/tags", 5);
        r.counter_add("coord/nets", 2);
        let s = r.snapshot_filtered("runtime/");
        assert!(s.contains("runtime/tags"));
        assert!(!s.contains("coord/nets"));
    }

    #[test]
    fn counter_accessors() {
        let mut r = Registry::default();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.counter_set("c2", 9);
        r.gauge_set("g", -1);
        r.histogram_record("h", 4);
        assert_eq!(r.counter("c"), Some(5));
        assert_eq!(r.counter("c2"), Some(9));
        assert_eq!(r.gauge("g"), Some(-1));
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        assert_eq!(r.counter("g"), None);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn duration_clamp() {
        assert_eq!(duration_nanos(Duration::from_nanos(-5)), 0);
        assert_eq!(duration_nanos(Duration::from_micros(2)), 2000);
    }
}
