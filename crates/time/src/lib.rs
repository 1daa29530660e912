//! Time primitives shared by every crate in the DEAR reproduction.
//!
//! The reproduction of *Achieving Determinism in Adaptive AUTOSAR* (DATE
//! 2020) is built on a discrete notion of time with nanosecond resolution:
//!
//! * [`Instant`] — a point in time, measured in nanoseconds since an epoch.
//!   Depending on context the epoch is the start of a simulation ("true
//!   time"), the start of a platform's local clock, or the logical time
//!   origin of a reactor program.
//! * [`Duration`] — a signed span of time in nanoseconds. Durations are
//!   signed because clock offsets between platforms may be negative.
//!
//! Both types are plain newtypes over integers so that all arithmetic is
//! exact and deterministic — no floating point is involved in time keeping,
//! which matters for the bit-identical reproducibility the paper's reactor
//! semantics promises.
//!
//! # Examples
//!
//! ```
//! use dear_time::{Duration, Instant};
//!
//! let start = Instant::EPOCH + Duration::from_millis(50);
//! let period = Duration::from_millis(50);
//! let third_activation = start + period * 2;
//! assert_eq!(third_activation.as_nanos(), 150_000_000);
//! assert_eq!(third_activation - start, Duration::from_millis(100));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed span of time with nanosecond resolution.
///
/// `Duration` is a thin wrapper over an `i64` nanosecond count. The range
/// (± ~292 years) is ample for the simulations in this workspace. Arithmetic
/// panics on overflow in debug builds exactly like primitive integers;
/// checked and saturating variants are provided for the boundary cases.
///
/// # Examples
///
/// ```
/// use dear_time::Duration;
///
/// let d = Duration::from_millis(5) + Duration::from_micros(250);
/// assert_eq!(d.as_nanos(), 5_250_000);
/// assert!(d > Duration::ZERO);
/// assert_eq!(-d + d, Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(i64::MAX);
    /// The smallest (most negative) representable duration.
    #[cfg(test)]
    pub(crate) const MIN: Duration = Duration(i64::MIN);

    /// Creates a duration from a signed nanosecond count.
    #[must_use]
    pub const fn from_nanos(nanos: i64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from a signed microsecond count.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[must_use]
    pub const fn from_micros(micros: i64) -> Self {
        match micros.checked_mul(1_000) {
            Some(n) => Duration(n),
            None => panic!("duration overflow in from_micros"),
        }
    }

    /// Creates a duration from a signed millisecond count.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[must_use]
    pub const fn from_millis(millis: i64) -> Self {
        match millis.checked_mul(1_000_000) {
            Some(n) => Duration(n),
            None => panic!("duration overflow in from_millis"),
        }
    }

    /// Creates a duration from a signed second count.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[must_use]
    pub const fn from_secs(secs: i64) -> Self {
        match secs.checked_mul(1_000_000_000) {
            Some(n) => Duration(n),
            None => panic!("duration overflow in from_secs"),
        }
    }

    /// Creates a duration from seconds expressed as a float.
    ///
    /// Useful for configuration; not used on deterministic hot paths.
    ///
    /// # Panics
    ///
    /// Panics if the value is not finite or overflows the representation.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite(), "duration must be finite");
        let nanos = secs * 1e9;
        assert!(
            nanos >= i64::MIN as f64 && nanos <= i64::MAX as f64,
            "duration overflow in from_secs_f64"
        );
        Duration(nanos as i64)
    }

    /// Returns the number of whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Returns the number of whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> i64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this duration is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this duration is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Returns the absolute value of this duration.
    #[must_use]
    pub const fn abs(self) -> Self {
        Duration(self.0.abs())
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    #[cfg(test)]
    pub(crate) const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(n) => Some(Duration(n)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on overflow.
    #[must_use]
    #[cfg(test)]
    pub(crate) const fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_sub(rhs.0) {
            Some(n) => Some(Duration(n)),
            None => None,
        }
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("duration addition overflow"),
        )
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction overflow"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Neg for Duration {
    type Output = Duration;
    fn neg(self) -> Duration {
        Duration(self.0.checked_neg().expect("duration negation overflow"))
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(
            self.0
                .checked_mul(rhs)
                .expect("duration multiplication overflow"),
        )
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        let (sign, abs) = if n < 0 {
            ("-", n.unsigned_abs())
        } else {
            ("", n.unsigned_abs())
        };
        if abs == 0 {
            write!(f, "0s")
        } else if abs % 1_000_000_000 == 0 {
            write!(f, "{sign}{}s", abs / 1_000_000_000)
        } else if abs % 1_000_000 == 0 {
            write!(f, "{sign}{}ms", abs / 1_000_000)
        } else if abs % 1_000 == 0 {
            write!(f, "{sign}{}us", abs / 1_000)
        } else {
            write!(f, "{sign}{abs}ns")
        }
    }
}

/// A point in time with nanosecond resolution.
///
/// The epoch depends on context: simulation start ("true time"), a
/// platform's local clock origin, or a reactor program's logical time
/// origin. Mixing instants from different epochs is a logic error that the
/// type system cannot catch; the crates in this workspace therefore convert
/// explicitly at every boundary (see `dear-sim`'s `VirtualClock`).
///
/// # Examples
///
/// ```
/// use dear_time::{Duration, Instant};
///
/// let t0 = Instant::EPOCH;
/// let t1 = t0 + Duration::from_millis(50);
/// assert!(t1 > t0);
/// assert_eq!(t1 - t0, Duration::from_millis(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The origin of the time axis.
    pub const EPOCH: Instant = Instant(0);
    /// The largest representable instant; used as an "infinite" sentinel.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant from nanoseconds since the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant(nanos)
    }

    /// Creates an instant from microseconds since the epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Instant(micros * 1_000)
    }

    /// Creates an instant from milliseconds since the epoch.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Instant(millis * 1_000_000)
    }

    /// Creates an instant from seconds since the epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Instant(secs * 1_000_000_000)
    }

    /// Returns the nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional milliseconds since the epoch.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Checked addition of a (possibly negative) duration.
    ///
    /// Returns `None` if the result would precede the epoch or overflow.
    #[must_use]
    pub(crate) const fn checked_add(self, d: Duration) -> Option<Instant> {
        let n = d.as_nanos();
        if n >= 0 {
            match self.0.checked_add(n as u64) {
                Some(v) => Some(Instant(v)),
                None => None,
            }
        } else {
            match self.0.checked_sub(n.unsigned_abs()) {
                Some(v) => Some(Instant(v)),
                None => None,
            }
        }
    }

    /// Saturating addition of a (possibly negative) duration.
    ///
    /// Clamps at [`Instant::EPOCH`] and [`Instant::MAX`].
    #[must_use]
    pub const fn saturating_add(self, d: Duration) -> Instant {
        let n = d.as_nanos();
        if n >= 0 {
            Instant(self.0.saturating_add(n as u64))
        } else {
            Instant(self.0.saturating_sub(n.unsigned_abs()))
        }
    }

    /// Checked difference between two instants.
    ///
    /// Returns `None` if the result does not fit in a [`Duration`].
    #[must_use]
    pub fn checked_duration_since(self, earlier: Instant) -> Option<Duration> {
        let diff = self.0 as i128 - earlier.0 as i128;
        if diff >= i64::MIN as i128 && diff <= i64::MAX as i128 {
            Some(Duration::from_nanos(diff as i64))
        } else {
            None
        }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        self.checked_add(d)
            .expect("instant arithmetic out of range")
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, d: Duration) -> Instant {
        self.checked_add(-d)
            .expect("instant arithmetic out of range")
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, earlier: Instant) -> Duration {
        self.checked_duration_since(earlier)
            .expect("instant difference out of range")
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as seconds with nanosecond remainder for readability.
        let secs = self.0 / 1_000_000_000;
        let rem = self.0 % 1_000_000_000;
        if rem == 0 {
            write!(f, "{secs}.000000000s")
        } else {
            write!(f, "{secs}.{rem:09}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Duration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(5);
        let b = Duration::from_millis(3);
        assert_eq!(a + b, Duration::from_millis(8));
        assert_eq!(a - b, Duration::from_millis(2));
        assert_eq!(b - a, Duration::from_millis(-2));
        assert_eq!(a * 4, Duration::from_millis(20));
        assert_eq!(a / 5, Duration::from_millis(1));
        assert_eq!(-a, Duration::from_millis(-5));
        assert!((b - a).is_negative());
        assert_eq!((b - a).abs(), Duration::from_millis(2));
    }

    #[test]
    fn duration_min_max() {
        let a = Duration::from_millis(5);
        let b = Duration::from_millis(3);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_display_picks_units() {
        assert_eq!(Duration::ZERO.to_string(), "0s");
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(5).to_string(), "5ms");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_nanos(13).to_string(), "13ns");
        assert_eq!(Duration::from_millis(-5).to_string(), "-5ms");
        assert_eq!(Duration::from_nanos(1_500_000).to_string(), "1500us");
    }

    #[test]
    fn duration_checked_ops_detect_overflow() {
        assert!(Duration::MAX.checked_add(Duration::from_nanos(1)).is_none());
        assert!(Duration::MIN.checked_sub(Duration::from_nanos(1)).is_none());
        assert_eq!(
            Duration::MAX.saturating_add(Duration::from_secs(1)),
            Duration::MAX
        );
    }

    #[test]
    fn instant_arithmetic() {
        let t = Instant::from_millis(100);
        assert_eq!(t + Duration::from_millis(50), Instant::from_millis(150));
        assert_eq!(t - Duration::from_millis(50), Instant::from_millis(50));
        assert_eq!(Instant::from_millis(150) - t, Duration::from_millis(50));
        assert_eq!(t + Duration::from_millis(-50), Instant::from_millis(50));
    }

    #[test]
    fn instant_saturates_at_epoch() {
        let t = Instant::from_nanos(5);
        assert_eq!(t.saturating_add(Duration::from_nanos(-10)), Instant::EPOCH);
        assert_eq!(t.checked_add(Duration::from_nanos(-10)), None);
    }

    #[test]
    fn instant_display() {
        assert_eq!(Instant::from_secs(2).to_string(), "2.000000000s");
        assert_eq!(
            Instant::from_nanos(1_000_000_001).to_string(),
            "1.000000001s"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instant_underflow_panics() {
        let _ = Instant::EPOCH - Duration::from_nanos(1);
    }

    proptest! {
        #[test]
        fn prop_duration_add_commutative(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let (da, db) = (Duration::from_nanos(a), Duration::from_nanos(b));
            prop_assert_eq!(da + db, db + da);
        }

        #[test]
        fn prop_duration_add_assoc(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000, c in -1_000_000i64..1_000_000) {
            let (da, db, dc) = (Duration::from_nanos(a), Duration::from_nanos(b), Duration::from_nanos(c));
            prop_assert_eq!((da + db) + dc, da + (db + dc));
        }

        #[test]
        fn prop_instant_roundtrip(base in 0u64..1 << 60, delta in 0i64..1 << 40) {
            let t = Instant::from_nanos(base);
            let d = Duration::from_nanos(delta);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn prop_ordering_translation_invariant(a in 0u64..1 << 50, b in 0u64..1 << 50, shift in 0i64..1 << 40) {
            let (ta, tb) = (Instant::from_nanos(a), Instant::from_nanos(b));
            let d = Duration::from_nanos(shift);
            prop_assert_eq!(ta.cmp(&tb), (ta + d).cmp(&(tb + d)));
        }
    }
}
