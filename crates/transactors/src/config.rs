//! Shared configuration and tag conversion for the DEAR layer.

use dear_core::Tag;
use dear_someip::WireTag;
use dear_time::{Duration, Instant};

/// What a transactor does with a message that carries no tag.
///
/// "The default behavior of our transactors is to fail when receiving
/// messages without an associated timestamp, but they can also be
/// configured to tag received messages with the physical time at which
/// they are received" (paper §III.B). The latter treats legacy senders
/// like sporadic sensors and enables gradual migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UntaggedPolicy {
    /// Reject (count and drop) untagged messages.
    #[default]
    Fail,
    /// Tag untagged messages with the local physical arrival time.
    PhysicalTime,
}

/// Per-deployment bounds used in the safe-to-process offset `D + L + E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DearConfig {
    /// Worst-case network latency `L` between the communicating platforms.
    pub(crate) latency_bound: Duration,
    /// Worst-case clock synchronization error `E`.
    pub(crate) clock_error: Duration,
    /// Policy for untagged messages.
    pub untagged: UntaggedPolicy,
}

impl DearConfig {
    /// Creates a configuration with the given bounds and the default
    /// (fail) untagged policy.
    #[must_use]
    pub fn new(latency_bound: Duration, clock_error: Duration) -> Self {
        DearConfig {
            latency_bound,
            clock_error,
            untagged: UntaggedPolicy::Fail,
        }
    }

    /// Switches to physical-time tagging of untagged messages.
    #[must_use]
    pub fn accept_untagged(mut self) -> Self {
        self.untagged = UntaggedPolicy::PhysicalTime;
        self
    }

    /// The safe-to-process offset `L + E` added to received tags.
    #[must_use]
    pub fn stp_offset(&self) -> Duration {
        self.latency_bound + self.clock_error
    }
}

/// Converts a reactor tag to its wire representation.
#[must_use]
pub fn tag_to_wire(tag: Tag) -> WireTag {
    WireTag::new(tag.time.as_nanos(), tag.microstep)
}

/// Converts a wire tag back to a reactor tag.
#[must_use]
pub fn wire_to_tag(wire: WireTag) -> Tag {
    Tag::new(Instant::from_nanos(wire.nanos), wire.microstep)
}

/// Addressing of one method within a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSpec {
    /// Service id.
    pub service: u16,
    /// Instance id.
    pub instance: u16,
    /// Method id.
    pub method: u16,
}

/// Addressing of one event within a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    /// Service id.
    pub service: u16,
    /// Instance id.
    pub instance: u16,
    /// Eventgroup id.
    pub eventgroup: u16,
    /// Event id.
    pub event: u16,
}

/// Addressing of one event within a *redundant provider group*: no fixed
/// instance id — the [`FailoverBinding`](crate::FailoverBinding) tracks
/// whichever provider instance is currently the best offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEventSpec {
    /// Service id.
    pub service: u16,
    /// Eventgroup id.
    pub eventgroup: u16,
    /// Event id.
    pub event: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_wire_roundtrip() {
        let tag = Tag::new(Instant::from_nanos(123_456_789), 42);
        assert_eq!(wire_to_tag(tag_to_wire(tag)), tag);
    }

    #[test]
    fn stp_offset_adds_bounds() {
        let cfg = DearConfig::new(Duration::from_millis(5), Duration::from_micros(500));
        assert_eq!(
            cfg.stp_offset(),
            Duration::from_millis(5) + Duration::from_micros(500)
        );
        assert_eq!(cfg.untagged, UntaggedPolicy::Fail);
        assert_eq!(cfg.accept_untagged().untagged, UntaggedPolicy::PhysicalTime);
    }
}
