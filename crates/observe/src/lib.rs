//! # dear-observe — unified deterministic telemetry
//!
//! The observability spine of the DEAR reproduction: one [`Observe`]
//! handle threaded through every layer of the stack (simulator, reactor
//! runtime, SOME/IP middleware, federation) that collects
//!
//! * **metrics** — counters, gauges and fixed-bucket log-2 latency
//!   histograms whose [`snapshot`](Observe::snapshot) is
//!   byte-deterministic (key-ordered, integer-only),
//! * **spans** — logical-time records placed on per-federate / per-zone
//!   [`Lane`]s, exportable as Chrome `trace_event` JSON via
//!   [`chrome_trace`](Observe::chrome_trace) (loadable in Perfetto), and
//! * **structured trace events** — the typed [`EventKind`] model the
//!   `Trace` fingerprint path records instead of pre-formatted strings,
//!   with a canonical rendering that keeps every fingerprint stable.
//!
//! Everything runs on virtual time from the deterministic simulation:
//! two runs with the same seed produce byte-identical snapshots, span
//! timelines, and exports. There is deliberately no wall-clock anywhere
//! in this crate.
//!
//! ## Cost model
//!
//! A **disabled** handle (the default everywhere) is an `Option::None`
//! behind the API: every recording call is one branch and allocates
//! nothing, and resolving a metric handle on it stores nothing either —
//! the root `hot_path_allocs` test asserts both. An **enabled** handle is
//! single-threaded like every runtime it observes: recording borrows a
//! `RefCell`, with no lock. Metrics are declared once: a site resolves
//! its keys to typed slot ids ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) when it attaches to the handle, and recording through
//! an id is an indexed add with no lookup and no allocation. The keyed
//! calls ([`Observe::count`] and friends) resolve, then record, through
//! the same slots: for cold sites. A span is a packed 40-byte record
//! whose name is interned, appended to fixed chunks that allocate once
//! per 4 096 records and never copy.
//!
//! # Examples
//!
//! ```
//! use dear_observe::{Lane, Observe};
//! use dear_time::{Duration, Instant};
//!
//! let obs = Observe::enabled();
//! obs.count("runtime/tags", 1);
//! obs.record_duration("coord/grant_wait_ns", Duration::from_micros(120));
//! obs.span(Lane::Federate(0), "tag", Instant::EPOCH, Instant::from_micros(5));
//! assert!(obs.snapshot().contains("coord/grant_wait_ns"));
//! assert!(obs.chrome_trace().contains("federate 0"));
//!
//! // A hot site declares its metric once and records through the id.
//! let reactions = obs.register_counter("runtime/reactions");
//! obs.add(reactions, 3);
//! assert!(obs.snapshot().contains("counter runtime/reactions = 3"));
//!
//! let off = Observe::disabled();
//! off.count("runtime/tags", 1); // one branch, nothing recorded
//! assert_eq!(off.snapshot(), "");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod event;
mod metrics;
mod report;
mod span;

pub use chrome::is_valid_json;
pub use event::{EventKind, LogicalTag};
pub use metrics::{CounterId, GaugeId, HistogramId};
pub use report::ObservabilityReport;
pub use span::Lane;

use chrome::chrome_trace_json;
use metrics::{duration_nanos, Registry};
use span::Timeline;

use dear_time::{Duration, Instant};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct Inner {
    metrics: RefCell<Registry>,
    timeline: RefCell<Timeline>,
}

/// The shared telemetry handle.
///
/// Cheap to clone (an `Rc`); all clones record into the same registry
/// and timeline. A *disabled* handle ([`Observe::disabled`], also the
/// `Default`) drops every record after a single branch.
#[derive(Clone, Default)]
pub struct Observe {
    inner: Option<Rc<Inner>>,
}

impl std::fmt::Debug for Observe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observe")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Observe {
    /// A disabled handle: every recording call is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Observe { inner: None }
    }

    /// A fresh enabled handle with an empty registry and timeline.
    #[must_use]
    pub fn enabled() -> Self {
        Observe {
            inner: Some(Rc::default()),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter `key`: registered on first use, the same id for every
    /// later call and every clone. On a disabled handle, the default id
    /// (nothing is stored). The key enters the snapshot once recorded.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a gauge or a histogram.
    #[must_use]
    pub fn register_counter(&self, key: &'static str) -> CounterId {
        self.inner
            .as_ref()
            .map_or_else(CounterId::default, |inner| {
                inner.metrics.borrow_mut().counter(key, || key.into())
            })
    }

    /// The gauge `key`, as [`register_counter`](Observe::register_counter).
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a counter or a histogram.
    #[must_use]
    pub fn register_gauge(&self, key: &'static str) -> GaugeId {
        self.inner.as_ref().map_or_else(GaugeId::default, |inner| {
            inner.metrics.borrow_mut().gauge(key, || key.into())
        })
    }

    /// The histogram `key`, as
    /// [`register_counter`](Observe::register_counter).
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a counter or a gauge.
    #[must_use]
    pub fn register_histogram(&self, key: &'static str) -> HistogramId {
        self.inner
            .as_ref()
            .map_or_else(HistogramId::default, |inner| {
                inner.metrics.borrow_mut().histogram(key, || key.into())
            })
    }

    /// Adds `by` to a registered counter.
    pub fn add(&self, counter: CounterId, by: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().add(counter, by);
        }
    }

    /// Sets a registered gauge.
    pub fn set(&self, gauge: GaugeId, value: i64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().set(gauge, value);
        }
    }

    /// Records a raw sample into a registered histogram.
    pub fn sample(&self, histogram: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.borrow_mut().sample(histogram, value);
        }
    }

    /// Records a duration (clamped below at zero) into a registered
    /// nanosecond histogram.
    pub fn sample_duration(&self, histogram: HistogramId, d: Duration) {
        self.sample(histogram, duration_nanos(d));
    }

    /// Adds `by` to the counter `key`, registering it if new.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a gauge or a histogram.
    pub fn count(&self, key: &str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut metrics = inner.metrics.borrow_mut();
            let id = metrics.counter(key, || key.to_owned().into());
            metrics.add(id, by);
        }
    }

    /// Sets the gauge `key`, registering it if new.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a counter or a histogram.
    pub fn gauge(&self, key: &str, value: i64) {
        if let Some(inner) = &self.inner {
            let mut metrics = inner.metrics.borrow_mut();
            let id = metrics.gauge(key, || key.to_owned().into());
            metrics.set(id, value);
        }
    }

    /// Records a raw sample into the histogram `key`, registering it if
    /// new.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already a counter or a gauge.
    pub fn record_value(&self, key: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut metrics = inner.metrics.borrow_mut();
            let id = metrics.histogram(key, || key.to_owned().into());
            metrics.sample(id, value);
        }
    }

    /// Records a duration (clamped below at zero) into the nanosecond
    /// histogram `key`.
    pub fn record_duration(&self, key: &str, d: Duration) {
        self.record_value(key, duration_nanos(d));
    }

    /// Records a complete span on a lane.
    pub fn span(
        &self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .timeline
                .borrow_mut()
                .span(lane, name.into(), start, end, None);
        }
    }

    /// Records a complete span carrying its logical tag.
    pub fn span_tagged(
        &self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        tag: LogicalTag,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .timeline
                .borrow_mut()
                .span(lane, name.into(), start, end, Some(tag));
        }
    }

    /// Records an instant marker on a lane.
    pub fn instant(&self, lane: Lane, name: impl Into<Cow<'static, str>>, at: Instant) {
        if let Some(inner) = &self.inner {
            inner
                .timeline
                .borrow_mut()
                .instant(lane, name.into(), at, None);
        }
    }

    /// Allocates the next unused federate lane and labels it — for
    /// drivers whose platforms carry no externally assigned federate id
    /// (the decentralized driver). Allocation order follows platform
    /// start order, which is deterministic. Returns `Lane::Federate(0)`
    /// without recording anything on a disabled handle.
    #[must_use]
    pub fn register_federate_lane(&self, name: &str) -> Lane {
        let Some(inner) = &self.inner else {
            return Lane::Federate(0);
        };
        let mut timeline = inner.timeline.borrow_mut();
        let next = timeline
            .lane_names()
            .keys()
            .filter_map(|lane| match lane {
                Lane::Federate(i) => Some(i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let lane = Lane::Federate(next);
        timeline.set_lane_name(lane, name);
        lane
    }

    /// Labels a lane for exports (e.g. with the platform name).
    pub fn set_lane_name(&self, lane: Lane, name: &str) {
        if let Some(inner) = &self.inner {
            inner.timeline.borrow_mut().set_lane_name(lane, name);
        }
    }

    /// The deterministic metrics snapshot (empty string when disabled).
    #[must_use]
    pub fn snapshot(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |inner| inner.metrics.borrow().snapshot())
    }

    /// The snapshot restricted to keys starting with `prefix`.
    #[must_use]
    pub fn snapshot_filtered(&self, prefix: &str) -> String {
        self.inner.as_ref().map_or_else(String::new, |inner| {
            inner.metrics.borrow().snapshot_filtered(prefix)
        })
    }

    /// Reads the current value of a counter.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn counter_value(&self, key: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.metrics.borrow().counter_value(key))
    }

    /// A clone of the histogram at `key`, if recorded.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn histogram_of(&self, key: &str) -> Option<metrics::Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.metrics.borrow().histogram_of(key))
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.timeline.borrow().len())
    }

    /// Exports the recorded timeline as Chrome `trace_event` JSON.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.inner.as_ref().map_or_else(
            || chrome_trace_json(&Timeline::default()),
            |inner| chrome_trace_json(&inner.timeline.borrow()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Observe::disabled();
        obs.count("a", 1);
        obs.gauge("b", 2);
        obs.record_value("c", 3);
        obs.record_duration("d", Duration::from_micros(1));
        obs.span(Lane::Sim, "s", Instant::EPOCH, Instant::from_secs(1));
        obs.instant(Lane::Root, "i", Instant::EPOCH);
        obs.set_lane_name(Lane::Sim, "x");
        assert!(!obs.is_enabled());
        assert_eq!(obs.snapshot(), "");
        assert_eq!(obs.span_count(), 0);
        assert_eq!(obs.counter_value("a"), None);
        assert!(is_valid_json(&obs.chrome_trace()));
    }

    #[test]
    fn clones_share_state() {
        let obs = Observe::enabled();
        let clone = obs.clone();
        clone.count("runtime/tags", 2);
        clone.span_tagged(
            Lane::Federate(1),
            "tag",
            Instant::EPOCH,
            Instant::from_micros(3),
            LogicalTag::at(Instant::EPOCH),
        );
        assert_eq!(obs.counter_value("runtime/tags"), Some(2));
        assert_eq!(obs.span_count(), 1);
        assert!(obs.snapshot().contains("runtime/tags"));
        assert!(obs.snapshot_filtered("coord/").is_empty());
        assert!(is_valid_json(&obs.chrome_trace()));
    }

    #[test]
    fn histograms_via_handle() {
        let obs = Observe::enabled();
        obs.record_duration("h", Duration::from_nanos(-1));
        obs.record_duration("h", Duration::from_micros(2));
        let h = obs.histogram_of("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2000);
    }

    #[test]
    fn handles_and_keys_share_one_slot() {
        let obs = Observe::enabled();
        let tags = obs.register_counter("runtime/tags");
        assert_eq!(obs.clone().register_counter("runtime/tags"), tags);
        obs.add(tags, 2);
        obs.count("runtime/tags", 1);
        let lag = obs.register_histogram("coord/tag_lag_ns");
        obs.sample_duration(lag, Duration::from_micros(2));
        obs.record_value("coord/tag_lag_ns", 1);
        let occupancy = obs.register_gauge("frame/occupancy");
        // Registered but never recorded: not in the snapshot.
        let misses = obs.register_counter("runtime/deadline_misses");
        assert_ne!(misses, tags);
        assert!(!obs.snapshot().contains("frame/occupancy"));
        obs.set(occupancy, -4);
        assert_eq!(
            obs.snapshot(),
            "hist coord/tag_lag_ns: count=2 sum=2001 mean=1000 p50=1 p90=2000 p99=2000 max=2000\n\
             gauge frame/occupancy = -4\n\
             counter runtime/tags = 3\n"
        );
    }

    #[test]
    fn disabled_handles_are_default_ids() {
        let obs = Observe::disabled();
        let tags = obs.register_counter("runtime/tags");
        assert_eq!(tags, CounterId::default());
        assert_eq!(obs.register_gauge("g"), GaugeId::default());
        assert_eq!(obs.register_histogram("h"), HistogramId::default());
        obs.add(tags, 1);
        obs.sample(HistogramId::default(), 1);
        assert_eq!(obs.snapshot(), "");
    }

    #[test]
    #[should_panic(
        expected = "metric key `k` is registered as a counter and cannot also be a histogram"
    )]
    fn a_counter_cannot_become_a_histogram() {
        let obs = Observe::enabled();
        obs.count("k", 7);
        obs.record_value("k", 5);
    }

    #[test]
    #[should_panic(
        expected = "metric key `g` is registered as a gauge and cannot also be a counter"
    )]
    fn a_gauge_cannot_become_a_counter() {
        let obs = Observe::enabled();
        obs.gauge("g", 3);
        obs.count("g", 1);
    }

    #[test]
    #[should_panic(
        expected = "metric key `h` is registered as a histogram and cannot also be a gauge"
    )]
    fn a_histogram_cannot_become_a_gauge() {
        let obs = Observe::enabled();
        let h = obs.register_histogram("h");
        obs.sample(h, 1);
        let _ = obs.register_gauge("h");
    }
}
