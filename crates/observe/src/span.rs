//! Span timelines: who did what, when, on which lane.
//!
//! A [`Timeline`] is an append-only log of spans and instants, each
//! placed on a [`Lane`] (one per federate, zone, the root coordinator, or
//! the simulator itself). Durations are *logical*: start and end are
//! virtual instants from the deterministic simulation, so two runs with
//! the same seed produce identical timelines — a trace you can diff, not
//! just look at. The Chrome `trace_event` exporter in [`crate::chrome`]
//! maps lanes to Perfetto process/thread tracks.
//!
//! A record is stored packed in 40 bytes: its name is an index into the
//! timeline's table of interned names, its tag is a time, a microstep and
//! a flag, and its id is its position. Records fill fixed-capacity chunks
//! that never reallocate: the first holds [`FIRST_CHUNK`] records, each
//! next one twice as many up to [`CHUNK`], so a short run maps little and
//! a long one allocates once per [`CHUNK`] records and never copies.
//! [`Timeline::spans`] decodes the records for the exporter.

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

/// Capacity of the first chunk of records.
pub(crate) const FIRST_CHUNK: usize = 32;
/// Capacity every chunk grows to.
pub(crate) const CHUNK: usize = 4096;

/// How a record is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanKind {
    /// A complete span with a duration.
    Complete,
    /// A zero-duration marker (Chrome "instant" event).
    Instant,
}

/// `Packed::flags` bit: an instant marker rather than a complete span.
const INSTANT: u8 = 1;
/// `Packed::flags` bit: the record carries a logical tag.
const TAGGED: u8 = 2;

/// One stored span or instant.
#[derive(Debug, Clone, Copy)]
struct Packed {
    start: Instant,
    /// Equals `start` for instants.
    end: Instant,
    /// The tag's time (meaningful when `TAGGED`).
    tag_time: Instant,
    tag_microstep: u32,
    lane: Lane,
    /// Index into `Timeline::names`.
    name: u16,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Packed>() <= 40);

/// One recorded span or instant, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span<'a> {
    /// The lane it belongs to.
    pub(crate) lane: Lane,
    /// Short name, e.g. `"tag"`, `"grant-wait"`, `"fixpoint"`.
    pub(crate) name: &'a str,
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
#[derive(Debug, Default)]
pub(crate) struct Timeline {
    chunks: Vec<Vec<Packed>>,
    /// Interned span names; a record stores its name's index.
    names: Vec<Cow<'static, str>>,
    /// Every `'static` name seen so far with its index, matched by
    /// address: the recording path finds a literal without comparing
    /// bytes, whichever crate's copy of it it is handed.
    literals: Vec<(&'static str, u16)>,
    lane_names: BTreeMap<Lane, String>,
}

impl Timeline {
    /// Records a complete span (its end clamped to its start).
    pub(crate) fn span(
        &mut self,
        lane: Lane,
        name: Cow<'static, str>,
        start: Instant,
        end: Instant,
        tag: Option<LogicalTag>,
    ) {
        self.push(lane, name, start, end.max(start), 0, tag);
    }

    /// Records an instant marker.
    pub(crate) fn instant(
        &mut self,
        lane: Lane,
        name: Cow<'static, str>,
        at: Instant,
        tag: Option<LogicalTag>,
    ) {
        self.push(lane, name, at, at, INSTANT, tag);
    }

    fn push(
        &mut self,
        lane: Lane,
        name: Cow<'static, str>,
        start: Instant,
        end: Instant,
        mut flags: u8,
        tag: Option<LogicalTag>,
    ) {
        let name = self.intern(name);
        if tag.is_some() {
            flags |= TAGGED;
        }
        let tag = tag.unwrap_or(LogicalTag::at(Instant::EPOCH));
        let record = Packed {
            start,
            end,
            tag_time: tag.time,
            tag_microstep: tag.microstep,
            lane,
            name,
            flags,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(record),
            last => {
                let capacity = last.map_or(FIRST_CHUNK, |chunk| (chunk.capacity() * 2).min(CHUNK));
                let mut chunk = Vec::with_capacity(capacity);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
    }

    /// The index of `name` in the name table, added if new.
    fn intern(&mut self, name: Cow<'static, str>) -> u16 {
        let literal = match &name {
            Cow::Borrowed(literal) => Some(*literal),
            Cow::Owned(_) => None,
        };
        let seen = literal.and_then(|literal| {
            self.literals
                .iter()
                .find(|(seen, _)| std::ptr::eq(*seen, literal))
        });
        if let Some(&(_, index)) = seen {
            return index;
        }
        let index = self
            .names
            .iter()
            .position(|known| *known == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        let index = u16::try_from(index).expect("span name table exhausted");
        if let Some(literal) = literal {
            self.literals.push((literal, index));
        }
        index
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

    /// The recorded spans, decoded, in recording order.
    pub(crate) fn spans(&self) -> impl Iterator<Item = Span<'_>> {
        self.chunks.iter().flatten().map(|r| Span {
            lane: r.lane,
            name: &self.names[usize::from(r.name)],
            start: r.start,
            end: r.end,
            kind: if r.flags & INSTANT == 0 {
                SpanKind::Complete
            } else {
                SpanKind::Instant
            },
            tag: (r.flags & TAGGED != 0).then_some(LogicalTag {
                time: r.tag_time,
                microstep: r.tag_microstep,
            }),
        })
    }

    /// Number of recorded spans.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_recording_order_and_clamp_end() {
        let mut t = Timeline::default();
        let tag = LogicalTag {
            time: Instant::from_millis(2),
            microstep: 3,
        };
        t.span(
            Lane::Federate(1),
            "tag".into(),
            Instant::from_millis(2),
            Instant::from_millis(1),
            Some(tag),
        );
        t.instant(Lane::Root, "fixpoint".into(), Instant::from_millis(3), None);
        let spans: Vec<Span<'_>> = t.spans().collect();
        // End is clamped to start rather than going backwards.
        assert_eq!(
            spans[0],
            Span {
                lane: Lane::Federate(1),
                name: "tag",
                start: Instant::from_millis(2),
                end: Instant::from_millis(2),
                kind: SpanKind::Complete,
                tag: Some(tag),
            }
        );
        assert_eq!(spans[1].kind, SpanKind::Instant);
        assert_eq!(spans[1].name, "fixpoint");
        assert_eq!(spans[1].tag, None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn names_are_interned_once_by_content() {
        let mut t = Timeline::default();
        let owned = String::from("tag");
        for name in [Cow::Borrowed("tag"), Cow::Owned(owned), Cow::Borrowed("x")] {
            t.instant(Lane::Sim, name, Instant::EPOCH, None);
        }
        t.instant(Lane::Sim, "tag".into(), Instant::EPOCH, None);
        assert_eq!(t.names, ["tag", "x"]);
        let names: Vec<&str> = t.spans().map(|s| s.name).collect();
        assert_eq!(names, ["tag", "tag", "x", "tag"]);
    }

    #[test]
    fn chunks_grow_to_the_cap_and_never_reallocate() {
        let mut t = Timeline::default();
        let n = 3 * CHUNK;
        for i in 0..n {
            let at = Instant::from_nanos(i as u64);
            t.span(Lane::Sim, "s".into(), at, at, None);
        }
        let capacities: Vec<usize> = t.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(capacities[0], FIRST_CHUNK);
        assert!(capacities.windows(2).all(|w| w[1] == (w[0] * 2).min(CHUNK)));
        assert_eq!(t.len(), n);
        assert!(t
            .spans()
            .enumerate()
            .all(|(i, s)| s.start == Instant::from_nanos(i as u64)));
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
