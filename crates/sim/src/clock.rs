//! Per-platform virtual clocks with bounded skew and drift.
//!
//! AUTOSAR AP specifies synchronized time across platforms with a bounded
//! synchronization error `E` (the paper cites the AP time-sync spec and
//! uses `E` in the safe-to-process bound `t + D + L + E`). We model each
//! platform's local clock as an affine function of global "true" simulation
//! time:
//!
//! ```text
//! local(t) = t + offset + t * drift_ppb / 1e9
//! ```
//!
//! A [`VirtualClock`] is invertible, so a runtime that wants to act when its
//! *local* clock shows `g` can compute the true simulation time at which
//! that happens. [`ClockModel`] samples clocks whose offsets stay within a
//! configured error bound, mirroring a deployed time-sync daemon.

use crate::rng::SimRng;
use dear_time::{Duration, Instant};

/// An affine mapping from global (true) time to a platform-local clock.
///
/// # Examples
///
/// ```
/// use dear_sim::VirtualClock;
/// use dear_time::{Duration, Instant};
///
/// // A clock running 100µs ahead with +50ppm drift.
/// let clock = VirtualClock::new(Duration::from_micros(100), 50_000);
/// let t = Instant::from_secs(10);
/// let local = clock.local_time(t);
/// assert!(local > t);
/// // The mapping is invertible (to within 1 ns of integer rounding).
/// let back = clock.true_time_at_local(local);
/// let err = if back > t { back - t } else { t - back };
/// assert!(err <= Duration::from_nanos(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualClock {
    offset: Duration,
    drift_ppb: i64,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::ideal()
    }
}

impl VirtualClock {
    /// A perfect clock: local time equals true time.
    #[must_use]
    pub const fn ideal() -> Self {
        VirtualClock {
            offset: Duration::ZERO,
            drift_ppb: 0,
        }
    }

    /// Creates a clock with a fixed offset and a drift rate in parts
    /// per billion (ppb). Positive drift runs fast.
    ///
    /// # Panics
    ///
    /// Panics if `drift_ppb` is not in `(-10^9, 10^9)` (a clock cannot run
    /// backwards or at more than double speed in this model).
    #[must_use]
    pub fn new(offset: Duration, drift_ppb: i64) -> Self {
        assert!(
            drift_ppb > -1_000_000_000 && drift_ppb < 1_000_000_000,
            "drift out of modelled range: {drift_ppb} ppb"
        );
        VirtualClock { offset, drift_ppb }
    }

    /// Creates a clock with a fixed offset and no drift.
    #[must_use]
    pub fn with_offset(offset: Duration) -> Self {
        VirtualClock::new(offset, 0)
    }

    /// The configured offset.
    #[must_use]
    pub fn offset(&self) -> Duration {
        self.offset
    }

    /// The configured drift in parts per billion.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn drift_ppb(&self) -> i64 {
        self.drift_ppb
    }

    /// Maps true simulation time to this platform's local clock reading.
    ///
    /// # Panics
    ///
    /// Panics if the resulting local time would precede the local epoch.
    #[must_use]
    pub fn local_time(&self, true_time: Instant) -> Instant {
        let t = true_time.as_nanos() as i128;
        let drift = t * self.drift_ppb as i128 / 1_000_000_000;
        let local = t + self.offset.as_nanos() as i128 + drift;
        assert!(
            local >= 0,
            "local clock before epoch: read clocks (and start platforms) only at \
             true times later than the worst-case negative clock offset"
        );
        Instant::from_nanos(local as u64)
    }

    /// Inverse mapping: the true time at which the local clock shows `local`.
    ///
    /// Exact to within 1 ns of integer rounding, verified by property tests.
    #[must_use]
    pub fn true_time_at_local(&self, local: Instant) -> Instant {
        let l = local.as_nanos() as i128 - self.offset.as_nanos() as i128;
        // local = t * (1e9 + ppb) / 1e9 + offset  =>  t = (local-offset)*1e9/(1e9+ppb)
        let denom = 1_000_000_000i128 + self.drift_ppb as i128;
        let t = l * 1_000_000_000 / denom;
        Instant::from_nanos(t.max(0) as u64)
    }

    /// An upper bound on `|local(t) - t|` for `t` in `[0, horizon]`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn max_error_within(&self, horizon: Instant) -> Duration {
        let drift_part =
            horizon.as_nanos() as i128 * self.drift_ppb.unsigned_abs() as i128 / 1_000_000_000;
        Duration::from_nanos(self.offset.as_nanos().unsigned_abs() as i64 + drift_part as i64)
    }
}

/// A sampler for platform clocks whose error stays within a bound `E`.
///
/// This stands in for AP's synchronized time base: after time sync, every
/// platform clock is within `max_offset` of true time, with residual drift
/// below `max_drift_ppb`.
///
/// # Examples
///
/// ```
/// use dear_sim::{ClockModel, SimRng};
/// use dear_time::{Duration, Instant};
///
/// let model = ClockModel::new(Duration::from_micros(500), 10_000);
/// let mut rng = SimRng::seed_from_u64(1);
/// let clock = model.sample(&mut rng);
/// assert!(clock.offset().abs() <= Duration::from_micros(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockModel {
    max_offset: Duration,
    max_drift_ppb: i64,
}

impl ClockModel {
    /// A model in which clocks are perfect (`E = 0`).
    #[must_use]
    #[cfg(test)]
    pub(crate) const fn perfect() -> Self {
        ClockModel {
            max_offset: Duration::ZERO,
            max_drift_ppb: 0,
        }
    }

    /// Creates a model with offsets in `[-max_offset, max_offset]` and
    /// drift in `[-max_drift_ppb, max_drift_ppb]`.
    ///
    /// # Panics
    ///
    /// Panics if `max_offset` is negative.
    #[must_use]
    pub fn new(max_offset: Duration, max_drift_ppb: i64) -> Self {
        assert!(!max_offset.is_negative(), "max_offset must be non-negative");
        ClockModel {
            max_offset,
            max_drift_ppb: max_drift_ppb.abs(),
        }
    }

    /// Draws a clock satisfying the model's bounds.
    pub fn sample(&self, rng: &mut SimRng) -> VirtualClock {
        let offset = if self.max_offset.is_zero() {
            Duration::ZERO
        } else {
            rng.uniform_duration(-self.max_offset, self.max_offset)
        };
        let drift = if self.max_drift_ppb == 0 {
            0
        } else {
            rng.range_u64(0, 2 * self.max_drift_ppb as u64 + 1) as i64 - self.max_drift_ppb
        };
        VirtualClock::new(offset, drift)
    }

    /// A bound on the worst-case clock error over a horizon, i.e. the `E`
    /// to plug into the safe-to-process offset `t + D + L + E`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn error_bound(&self, horizon: Instant) -> Duration {
        let drift_part = horizon.as_nanos() as i128 * self.max_drift_ppb as i128 / 1_000_000_000;
        self.max_offset + Duration::from_nanos(drift_part as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_clock_is_identity() {
        let c = VirtualClock::ideal();
        let t = Instant::from_secs(1234);
        assert_eq!(c.local_time(t), t);
        assert_eq!(c.true_time_at_local(t), t);
    }

    #[test]
    fn offset_shifts_local_time() {
        let c = VirtualClock::with_offset(Duration::from_millis(3));
        let t = Instant::from_secs(1);
        assert_eq!(c.local_time(t), t + Duration::from_millis(3));
        assert_eq!(c.true_time_at_local(t + Duration::from_millis(3)), t);
    }

    #[test]
    fn negative_offset_shifts_back() {
        let c = VirtualClock::with_offset(Duration::from_millis(-3));
        let t = Instant::from_secs(1);
        assert_eq!(c.local_time(t), t - Duration::from_millis(3));
    }

    #[test]
    fn drift_accumulates() {
        // +1000 ppm = 1ms per second.
        let c = VirtualClock::new(Duration::ZERO, 1_000_000);
        let t = Instant::from_secs(10);
        assert_eq!(c.local_time(t), t + Duration::from_millis(10));
    }

    #[test]
    fn max_error_bound_holds() {
        let c = VirtualClock::new(Duration::from_micros(200), 500_000);
        let horizon = Instant::from_secs(100);
        let bound = c.max_error_within(horizon);
        for s in [0u64, 1, 10, 50, 100] {
            let t = Instant::from_secs(s);
            let local = c.local_time(t);
            let err = if local > t { local - t } else { t - local };
            assert!(err <= bound, "error {err} exceeds bound {bound} at {t}");
        }
    }

    #[test]
    fn model_samples_within_bounds() {
        let model = ClockModel::new(Duration::from_micros(500), 20_000);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            let c = model.sample(&mut rng);
            assert!(c.offset().abs() <= Duration::from_micros(500));
            assert!(c.drift_ppb().abs() <= 20_000);
        }
    }

    #[test]
    fn perfect_model_yields_ideal_clocks() {
        let mut rng = SimRng::seed_from_u64(3);
        let c = ClockModel::perfect().sample(&mut rng);
        assert_eq!(c, VirtualClock::ideal());
        assert_eq!(
            ClockModel::perfect().error_bound(Instant::from_secs(1000)),
            Duration::ZERO
        );
    }

    #[test]
    fn error_bound_covers_sampled_clocks() {
        let model = ClockModel::new(Duration::from_micros(100), 50_000);
        let horizon = Instant::from_secs(60);
        let bound = model.error_bound(horizon);
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            let c = model.sample(&mut rng);
            assert!(c.max_error_within(horizon) <= bound);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_within_1ns(
            offset_us in -100_000i64..100_000,
            drift in -500_000i64..500_000,
            t in 0u64..(1u64 << 45),
        ) {
            let c = VirtualClock::new(Duration::from_micros(offset_us), drift);
            let true_t = Instant::from_nanos(t + 200_000_000_000); // keep local >= 0
            let local = c.local_time(true_t);
            let back = c.true_time_at_local(local);
            let err = if back > true_t { back - true_t } else { true_t - back };
            prop_assert!(err <= Duration::from_nanos(2), "roundtrip error {}", err);
        }

        #[test]
        fn prop_local_time_monotone(
            offset_us in -100_000i64..100_000,
            drift in -500_000i64..500_000,
            a in 0u64..(1u64 << 44),
            b in 0u64..(1u64 << 44),
        ) {
            let c = VirtualClock::new(Duration::from_micros(offset_us), drift);
            let base = 200_000_000_000u64;
            let (ta, tb) = (Instant::from_nanos(base + a), Instant::from_nanos(base + b));
            if ta <= tb {
                prop_assert!(c.local_time(ta) <= c.local_time(tb));
            } else {
                prop_assert!(c.local_time(ta) >= c.local_time(tb));
            }
        }
    }
}
