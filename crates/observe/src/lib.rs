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
//! behind the API: every recording call is one branch, no locks, no
//! allocation — the root `hot_path_allocs` test asserts the instrumented
//! runtime hot path stays zero-alloc per reaction with observability
//! off. An **enabled** handle takes a `Mutex` per call and may allocate
//! for new keys; that is the explicitly opted-into tracing mode.
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

pub use report::ObservabilityReport;
pub use span::Lane;

use chrome::chrome_trace_json;
use metrics::{duration_nanos, Registry};
use span::Timeline;

use dear_time::{Duration, Instant};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

struct Inner {
    metrics: Mutex<Registry>,
    timeline: Mutex<Timeline>,
}

/// The shared telemetry handle.
///
/// Cheap to clone (an `Arc`); all clones record into the same registry
/// and timeline. A *disabled* handle ([`Observe::disabled`], also the
/// `Default`) drops every record after a single branch.
#[derive(Clone, Default)]
pub struct Observe {
    inner: Option<Arc<Inner>>,
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
            inner: Some(Arc::new(Inner {
                metrics: Mutex::new(Registry::default()),
                timeline: Mutex::new(Timeline::default()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `by` to a counter.
    pub fn count(&self, key: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner
                .metrics
                .lock()
                .expect("metrics lock")
                .counter_add(key, by);
        }
    }

    /// Sets a gauge.
    pub fn gauge(&self, key: &str, value: i64) {
        if let Some(inner) = &self.inner {
            inner
                .metrics
                .lock()
                .expect("metrics lock")
                .gauge_set(key, value);
        }
    }

    /// Records a raw sample into a histogram.
    pub fn record_value(&self, key: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .metrics
                .lock()
                .expect("metrics lock")
                .histogram_record(key, value);
        }
    }

    /// Records a duration (clamped below at zero) into a nanosecond
    /// histogram.
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
                .lock()
                .expect("timeline lock")
                .span(lane, name, start, end, None);
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
                .lock()
                .expect("timeline lock")
                .span(lane, name, start, end, Some(tag));
        }
    }

    /// Records an instant marker on a lane.
    pub fn instant(&self, lane: Lane, name: impl Into<Cow<'static, str>>, at: Instant) {
        if let Some(inner) = &self.inner {
            inner
                .timeline
                .lock()
                .expect("timeline lock")
                .instant(lane, name, at, None);
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
        let mut timeline = inner.timeline.lock().expect("timeline lock");
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
            inner
                .timeline
                .lock()
                .expect("timeline lock")
                .set_lane_name(lane, name);
        }
    }

    /// The deterministic metrics snapshot (empty string when disabled).
    #[must_use]
    pub fn snapshot(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |inner| {
            inner.metrics.lock().expect("metrics lock").snapshot()
        })
    }

    /// The snapshot restricted to keys starting with `prefix`.
    #[must_use]
    pub fn snapshot_filtered(&self, prefix: &str) -> String {
        self.inner.as_ref().map_or_else(String::new, |inner| {
            inner
                .metrics
                .lock()
                .expect("metrics lock")
                .snapshot_filtered(prefix)
        })
    }

    /// Reads the current value of a counter.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn counter_value(&self, key: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.metrics.lock().expect("metrics lock").counter(key))
    }

    /// A clone of the histogram at `key`, if recorded.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn histogram_of(&self, key: &str) -> Option<metrics::Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.metrics.lock().expect("metrics lock").histogram(key))
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner.timeline.lock().expect("timeline lock").len()
        })
    }

    /// Exports the recorded timeline as Chrome `trace_event` JSON.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.inner.as_ref().map_or_else(
            || chrome_trace_json(&Timeline::default()),
            |inner| chrome_trace_json(&inner.timeline.lock().expect("timeline lock")),
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
}
