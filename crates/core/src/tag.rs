//! Tags: the logical timestamps of the reactor model.
//!
//! Events in a reactor program are associated with *tags* (§III.A of the
//! paper). A tag is a pair of a logical time point and a *microstep* index
//! that orders rounds of zero-delay causality at the same time point.
//! Coordination in DEAR consists of ensuring all communication between
//! reactors happens in tag order.

use dear_time::{Duration, Instant};
use std::fmt;

/// A logical timestamp `(time, microstep)`.
///
/// Tags are totally ordered lexicographically, which yields the global
/// event order that makes reactor execution deterministic.
///
/// # Examples
///
/// ```
/// use dear_core::Tag;
/// use dear_time::{Duration, Instant};
///
/// let t = Tag::new(Instant::from_millis(10), 0);
/// // A zero logical delay advances only the microstep:
/// assert_eq!(t.delay(Duration::ZERO), Tag::new(Instant::from_millis(10), 1));
/// // A positive delay advances time and resets the microstep:
/// assert_eq!(
///     t.delay(Duration::from_millis(5)),
///     Tag::new(Instant::from_millis(15), 0)
/// );
/// assert!(t < t.delay(Duration::ZERO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag {
    /// The logical time point.
    pub time: Instant,
    /// Microstep index within the time point.
    pub microstep: u32,
}

impl Tag {
    /// The origin tag `(0, 0)`.
    pub const ORIGIN: Tag = Tag {
        time: Instant::EPOCH,
        microstep: 0,
    };

    /// Creates a tag from a time point and microstep.
    #[must_use]
    pub const fn new(time: Instant, microstep: u32) -> Self {
        Tag { time, microstep }
    }

    /// Creates a tag at the given time with microstep zero.
    #[must_use]
    pub const fn at(time: Instant) -> Self {
        Tag { time, microstep: 0 }
    }

    /// This tag as the telemetry layer's structural twin
    /// ([`dear_observe::LogicalTag`]); both render identically.
    #[must_use]
    pub const fn as_logical(self) -> dear_observe::LogicalTag {
        dear_observe::LogicalTag {
            time: self.time,
            microstep: self.microstep,
        }
    }

    /// The tag obtained by a logical delay.
    ///
    /// A strictly positive delay advances the time point and resets the
    /// microstep; a zero delay advances only the microstep. Either way the
    /// result is strictly greater than `self`, so scheduling with `delay`
    /// always moves forward in logical time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    #[must_use]
    pub fn delay(self, delay: Duration) -> Tag {
        assert!(!delay.is_negative(), "logical delays must be non-negative");
        if delay.is_zero() {
            Tag {
                time: self.time,
                microstep: self.microstep.checked_add(1).expect("microstep overflow"),
            }
        } else {
            Tag {
                time: self.time + delay,
                microstep: 0,
            }
        }
    }

    /// The physical lag of this tag relative to a physical clock reading:
    /// `physical - tag.time` (positive when physical time has passed the
    /// tag; deadlines compare this lag against their bound).
    #[must_use]
    pub fn lag(self, physical: Instant) -> Duration {
        physical
            .checked_duration_since(self.time)
            .expect("lag out of range")
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.time, self.microstep)
    }
}

impl From<Instant> for Tag {
    fn from(time: Instant) -> Self {
        Tag::at(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = Tag::new(Instant::from_millis(1), 5);
        let b = Tag::new(Instant::from_millis(2), 0);
        let c = Tag::new(Instant::from_millis(2), 1);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn zero_delay_bumps_microstep() {
        let t = Tag::new(Instant::from_millis(3), 7);
        let d = t.delay(Duration::ZERO);
        assert_eq!(d, Tag::new(Instant::from_millis(3), 8));
        assert!(t < d);
    }

    #[test]
    fn positive_delay_resets_microstep() {
        let t = Tag::new(Instant::from_millis(3), 7);
        let d = t.delay(Duration::from_micros(1));
        assert_eq!(
            d,
            Tag::new(Instant::from_millis(3) + Duration::from_micros(1), 0)
        );
    }

    #[test]
    fn lag_measures_physical_minus_logical() {
        let t = Tag::at(Instant::from_millis(10));
        assert_eq!(t.lag(Instant::from_millis(15)), Duration::from_millis(5));
        assert_eq!(t.lag(Instant::from_millis(5)), Duration::from_millis(-5));
    }

    #[test]
    fn display_shows_both_parts() {
        let t = Tag::new(Instant::from_secs(1), 2);
        assert_eq!(t.to_string(), "(1.000000000s, 2)");
    }

    #[test]
    fn from_instant_gives_microstep_zero() {
        let t: Tag = Instant::from_secs(3).into();
        assert_eq!(t.microstep, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let _ = Tag::ORIGIN.delay(Duration::from_nanos(-1));
    }

    proptest! {
        #[test]
        fn prop_delay_strictly_increases(
            time in 0u64..(1 << 50),
            micro in 0u32..1000,
            delay in 0i64..(1 << 40),
        ) {
            let t = Tag::new(Instant::from_nanos(time), micro);
            let d = t.delay(Duration::from_nanos(delay));
            prop_assert!(t < d);
        }

        #[test]
        fn prop_delay_monotone_in_base(
            ta in 0u64..(1 << 50),
            tb in 0u64..(1 << 50),
            delay in 1i64..(1 << 40),
        ) {
            let (a, b) = (Tag::at(Instant::from_nanos(ta)), Tag::at(Instant::from_nanos(tb)));
            let d = Duration::from_nanos(delay);
            prop_assert_eq!(a.cmp(&b), a.delay(d).cmp(&b.delay(d)));
        }

        #[test]
        fn prop_total_order(
            ta in 0u64..(1 << 40), ma in 0u32..100,
            tb in 0u64..(1 << 40), mb in 0u32..100,
        ) {
            let a = Tag::new(Instant::from_nanos(ta), ma);
            let b = Tag::new(Instant::from_nanos(tb), mb);
            // Exactly one of <, ==, > holds.
            let rels = [a < b, a == b, a > b];
            prop_assert_eq!(rels.iter().filter(|&&r| r).count(), 1);
        }
    }
}
