//! Span timelines: who did what, when, on which lane.
//!
//! A [`Timeline`] is an append-only list of [`SpanRecord`]s, each placed
//! on a [`Lane`] (one per federate, zone, the root coordinator, or the
//! simulator itself). Durations are *logical*: start and end are virtual
//! instants from the deterministic simulation, so two runs with the same
//! seed produce identical timelines — a trace you can diff, not just
//! look at. The Chrome `trace_event` exporter in [`crate::chrome`] maps
//! lanes to Perfetto process/thread tracks.

use crate::event::LogicalTag;
use dear_time::Instant;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The track a span is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The simulator / miscellaneous platform events.
    Sim,
    /// A federate (one reactor runtime under coordination).
    Federate(u16),
    /// A zone coordinator in the hierarchical RTI.
    Zone(u16),
    /// The root coordinator (or the flat RTI).
    Root,
}

/// Identifier of a recorded span within its timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SpanId(pub(crate) u64);

/// How a record is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanKind {
    /// A complete span with a duration.
    Complete,
    /// A zero-duration marker (Chrome "instant" event).
    Instant,
}

/// One recorded span or instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpanRecord {
    /// Identifier (index order = recording order).
    pub(crate) id: SpanId,
    /// The lane it belongs to.
    pub(crate) lane: Lane,
    /// Short name, e.g. `"tag"`, `"grant-wait"`, `"fixpoint"`.
    pub(crate) name: Cow<'static, str>,
    /// Start instant (virtual time).
    pub(crate) start: Instant,
    /// End instant; equals `start` for instants.
    pub(crate) end: Instant,
    /// Complete span or instant marker.
    pub(crate) kind: SpanKind,
    /// The logical tag the span is about, if any.
    pub(crate) tag: Option<LogicalTag>,
}

/// An append-only span log plus lane labels.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timeline {
    records: Vec<SpanRecord>,
    lane_names: BTreeMap<Lane, String>,
}

impl Timeline {
    /// Records a complete span; returns its id.
    pub(crate) fn span(
        &mut self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        tag: Option<LogicalTag>,
    ) -> SpanId {
        self.push(
            lane,
            name.into(),
            start,
            end.max(start),
            SpanKind::Complete,
            tag,
        )
    }

    /// Records an instant marker; returns its id.
    pub(crate) fn instant(
        &mut self,
        lane: Lane,
        name: impl Into<Cow<'static, str>>,
        at: Instant,
        tag: Option<LogicalTag>,
    ) -> SpanId {
        self.push(lane, name.into(), at, at, SpanKind::Instant, tag)
    }

    fn push(
        &mut self,
        lane: Lane,
        name: Cow<'static, str>,
        start: Instant,
        end: Instant,
        kind: SpanKind,
        tag: Option<LogicalTag>,
    ) -> SpanId {
        let id = SpanId(self.records.len() as u64);
        self.records.push(SpanRecord {
            id,
            lane,
            name,
            start,
            end,
            kind,
            tag,
        });
        id
    }

    /// Labels a lane for exporters (e.g. the federate's platform name).
    pub(crate) fn set_lane_name(&mut self, lane: Lane, name: impl Into<String>) {
        self.lane_names.insert(lane, name.into());
    }

    /// The label of a lane, if one was set.
    #[must_use]
    pub(crate) fn lane_name(&self, lane: Lane) -> Option<&str> {
        self.lane_names.get(&lane).map(String::as_str)
    }

    /// All lane labels, in lane order.
    #[must_use]
    pub(crate) fn lane_names(&self) -> &BTreeMap<Lane, String> {
        &self.lane_names
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub(crate) fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Number of recorded spans.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_recording_order_and_clamp_end() {
        let mut t = Timeline::default();
        let a = t.span(
            Lane::Federate(1),
            "tag",
            Instant::from_millis(2),
            Instant::from_millis(1),
            None,
        );
        let b = t.instant(Lane::Root, "fixpoint", Instant::from_millis(3), None);
        assert_eq!(a, SpanId(0));
        assert_eq!(b, SpanId(1));
        // End is clamped to start rather than going backwards.
        assert_eq!(t.records()[0].end, Instant::from_millis(2));
        assert_eq!(t.records()[1].kind, SpanKind::Instant);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lane_names() {
        let mut t = Timeline::default();
        t.set_lane_name(Lane::Federate(3), "ctrl0");
        assert_eq!(t.lane_name(Lane::Federate(3)), Some("ctrl0"));
        assert_eq!(t.lane_name(Lane::Root), None);
        assert_eq!(t.lane_names().len(), 1);
    }
}
