//! The metrics registry: counters, gauges, and fixed-bucket log-2
//! latency histograms with deterministic snapshots.
//!
//! Every key is registered once and answered with a typed slot id
//! ([`CounterId`], [`GaugeId`], [`HistogramId`]); recording through the
//! id is an indexed update with no lookup. Everything is integer
//! arithmetic and the snapshot walks the keys in order, so
//! [`Registry::snapshot`] is a pure function of the recorded values: two
//! runs that record the same values in any order produce byte-identical
//! snapshot text. That property is what the snapshot-determinism property
//! tests assert.

use dear_arena::{Key, TypedArena};
use dear_time::Duration;
use std::borrow::Cow;
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

macro_rules! metric_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        ///
        /// A plain slot index, `Copy` and four bytes wide. It belongs to
        /// the [`Observe`](crate::Observe) that issued it (its clones
        /// included); the [`Default`] id, which a disabled handle also
        /// hands out, addresses no slot, and an enabled handle panics if
        /// asked to record through it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl Default for $name {
            fn default() -> Self {
                $name(u32::MAX)
            }
        }

        impl Key for $name {
            fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("metric slots exhausted"))
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

metric_id! {
    /// Handle of a counter, from
    /// [`Observe::register_counter`](crate::Observe::register_counter).
    CounterId
}
metric_id! {
    /// Handle of a gauge, from
    /// [`Observe::register_gauge`](crate::Observe::register_gauge).
    GaugeId
}
metric_id! {
    /// Handle of a histogram, from
    /// [`Observe::register_histogram`](crate::Observe::register_histogram).
    HistogramId
}

/// Where a key's value lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Counter(CounterId),
    Gauge(GaugeId),
    Histogram(HistogramId),
}

impl Slot {
    fn kind(self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }

    /// The panic for `key` asked for as a `wanted` it is not.
    fn mismatch(self, key: &str, wanted: &str) -> ! {
        panic!(
            "metric key `{key}` is registered as a {} and cannot also be a {wanted}",
            self.kind()
        )
    }
}

/// A keyed collection of metrics with deterministic, key-ordered
/// snapshots.
///
/// Keys are flat strings with `/`-separated scopes by convention
/// (`"coord/grant_wait_ns"`); [`Registry::snapshot_filtered`] selects a
/// scope by prefix. Each key is registered once, as one kind, and gets a
/// slot in that kind's table; recording through the slot's id is an
/// indexed update. A slot enters the snapshot once it has been recorded
/// (a counter or gauge once set, a histogram once it holds a sample), so
/// registering a key shows nothing by itself.
///
/// # Panics
///
/// Registering a key as a second kind panics: the keys are constants in
/// the instrumented code, and silently turning a counter into a
/// histogram would drop what the counter held.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    keys: BTreeMap<Cow<'static, str>, Slot>,
    counters: TypedArena<CounterId, Option<u64>>,
    gauges: TypedArena<GaugeId, Option<i64>>,
    histograms: TypedArena<HistogramId, Histogram>,
}

impl Registry {
    /// The slot of `key`, made by `make` if new (`owned` supplies the
    /// stored key then).
    fn slot(
        &mut self,
        key: &str,
        owned: impl FnOnce() -> Cow<'static, str>,
        make: impl FnOnce(&mut Self) -> Slot,
    ) -> Slot {
        if let Some(&slot) = self.keys.get(key) {
            return slot;
        }
        let slot = make(self);
        self.keys.insert(owned(), slot);
        slot
    }

    /// The counter `key`, registered if new.
    pub(crate) fn counter(
        &mut self,
        key: &str,
        owned: impl FnOnce() -> Cow<'static, str>,
    ) -> CounterId {
        match self.slot(key, owned, |r| Slot::Counter(r.counters.push(None))) {
            Slot::Counter(id) => id,
            other => other.mismatch(key, "counter"),
        }
    }

    /// The gauge `key`, registered if new.
    pub(crate) fn gauge(
        &mut self,
        key: &str,
        owned: impl FnOnce() -> Cow<'static, str>,
    ) -> GaugeId {
        match self.slot(key, owned, |r| Slot::Gauge(r.gauges.push(None))) {
            Slot::Gauge(id) => id,
            other => other.mismatch(key, "gauge"),
        }
    }

    /// The histogram `key`, registered if new.
    pub(crate) fn histogram(
        &mut self,
        key: &str,
        owned: impl FnOnce() -> Cow<'static, str>,
    ) -> HistogramId {
        let make = |r: &mut Self| Slot::Histogram(r.histograms.push(Histogram::default()));
        match self.slot(key, owned, make) {
            Slot::Histogram(id) => id,
            other => other.mismatch(key, "histogram"),
        }
    }

    /// Adds `by` to a counter (recorded from then on, even if `by` is 0).
    pub(crate) fn add(&mut self, id: CounterId, by: u64) {
        *self.counters[id].get_or_insert(0) += by;
    }

    /// Sets a gauge.
    pub(crate) fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id] = Some(value);
    }

    /// Records a sample into a histogram.
    pub(crate) fn sample(&mut self, id: HistogramId, value: u64) {
        self.histograms[id].record(value);
    }

    /// The current value of a counter, if `key` names a recorded one.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn counter_value(&self, key: &str) -> Option<u64> {
        match self.keys.get(key) {
            Some(&Slot::Counter(id)) => self.counters[id],
            _ => None,
        }
    }

    /// The current value of a gauge, if `key` names a recorded one.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn gauge_value(&self, key: &str) -> Option<i64> {
        match self.keys.get(key) {
            Some(&Slot::Gauge(id)) => self.gauges[id],
            _ => None,
        }
    }

    /// A clone of the histogram at `key`, if it holds a sample.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn histogram_of(&self, key: &str) -> Option<Histogram> {
        match self.keys.get(key) {
            Some(&Slot::Histogram(id)) if self.histograms[id].count > 0 => {
                Some(self.histograms[id].clone())
            }
            _ => None,
        }
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
        for (key, &slot) in &self.keys {
            if !key.starts_with(prefix) {
                continue;
            }
            match slot {
                Slot::Counter(id) => {
                    if let Some(v) = self.counters[id] {
                        let _ = writeln!(out, "counter {key} = {v}");
                    }
                }
                Slot::Gauge(id) => {
                    if let Some(v) = self.gauges[id] {
                        let _ = writeln!(out, "gauge {key} = {v}");
                    }
                }
                Slot::Histogram(id) => {
                    let h = &self.histograms[id];
                    if h.count > 0 {
                        let _ = write!(out, "hist {key}: ");
                        h.render(&mut out);
                        out.push('\n');
                    }
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

    fn key(key: &'static str) -> impl FnOnce() -> Cow<'static, str> {
        move || Cow::Borrowed(key)
    }

    #[test]
    fn snapshot_is_key_ordered_and_deterministic() {
        let mut a = Registry::default();
        let id = a.counter("z/last", key("z/last"));
        a.add(id, 1);
        let id = a.gauge("a/first", key("a/first"));
        a.set(id, -3);
        let id = a.histogram("m/mid", key("m/mid"));
        a.sample(id, 7);

        let mut b = Registry::default();
        let id = b.histogram("m/mid", key("m/mid"));
        b.sample(id, 7);
        let id = b.counter("z/last", key("z/last"));
        b.add(id, 1);
        let id = b.gauge("a/first", key("a/first"));
        b.set(id, -3);

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
        let id = r.counter("runtime/tags", key("runtime/tags"));
        r.add(id, 5);
        let id = r.counter("coord/nets", key("coord/nets"));
        r.add(id, 2);
        let s = r.snapshot_filtered("runtime/");
        assert!(s.contains("runtime/tags"));
        assert!(!s.contains("coord/nets"));
    }

    #[test]
    fn counter_accessors() {
        let mut r = Registry::default();
        let c = r.counter("c", key("c"));
        assert_eq!(r.counter("c", || unreachable!("already stored")), c);
        r.add(c, 2);
        r.add(c, 3);
        let g = r.gauge("g", key("g"));
        r.set(g, -1);
        let h = r.histogram("h", key("h"));
        r.sample(h, 4);
        assert_eq!(r.counter_value("c"), Some(5));
        assert_eq!(r.gauge_value("g"), Some(-1));
        assert_eq!(r.histogram_of("h").unwrap().count(), 1);
        assert_eq!(r.counter_value("g"), None);
        assert_eq!(r.keys.len(), 3);
    }

    #[test]
    fn only_recorded_slots_are_snapshotted() {
        let mut r = Registry::default();
        let c = r.counter("c", key("c"));
        r.gauge("g", key("g"));
        r.histogram("h", key("h"));
        assert_eq!(r.snapshot(), "");
        // A zero add still records the counter, as it always has.
        r.add(c, 0);
        assert_eq!(r.snapshot(), "counter c = 0\n");
    }

    #[test]
    fn duration_clamp() {
        assert_eq!(duration_nanos(Duration::from_nanos(-5)), 0);
        assert_eq!(duration_nanos(Duration::from_micros(2)), 2000);
    }
}
