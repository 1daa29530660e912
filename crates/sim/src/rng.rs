//! Deterministic pseudo-random number generation for the simulator.
//!
//! Seeded determinism is the backbone of this reproduction: every stochastic
//! quantity (network latency, thread-dispatch jitter, callback phase
//! offsets, clock skew) is drawn from a [`SimRng`] stream derived from a
//! single master seed, so an experiment instance is fully described by
//! `(seed, parameters)` and can be replayed bit-identically.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64, implemented locally (~100 lines) instead of pulling in the
//! `rand` crate so that the stream definition can never change underneath
//! the experiments.

use dear_time::Duration;

/// SplitMix64 step; used for seeding and for deriving sub-streams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to derive named sub-streams.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use dear_sim::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Named sub-streams are independent but reproducible.
/// let mut net = SimRng::seed_from_u64(42).fork("network");
/// let mut net2 = SimRng::seed_from_u64(42).fork("network");
/// assert_eq!(net.next_u64(), net2.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent, reproducible sub-stream identified by `label`.
    ///
    /// Forking is how simulation components get their own randomness without
    /// coupling their draw order: inserting an extra draw in one component
    /// does not perturb any other component's stream.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        let mixed = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ fnv1a(label.as_bytes());
        SimRng::seed_from_u64(mixed)
    }

    /// Derives an independent sub-stream identified by an index.
    #[must_use]
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let mixed = self.s[0]
            ^ self.s[2].rotate_left(29)
            ^ fnv1a(label.as_bytes())
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(mixed)
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for an unbiased result.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub(crate) fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone; compute threshold once we are in it.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64_below(hi - lo)
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub(crate) fn next_usize_below(&mut self, bound: usize) -> usize {
        self.next_u64_below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Returns a uniformly distributed duration in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_duration(&mut self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo < hi, "empty duration range");
        let span = (hi.as_nanos() - lo.as_nanos()) as u64;
        Duration::from_nanos(lo.as_nanos() + self.next_u64_below(span) as i64)
    }

    /// Returns a standard-normal sample (Box–Muller, cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        loop {
            let u1 = self.next_f64();
            let u2 = self.next_f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.gauss_spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Returns a normally distributed duration with the given mean and
    /// standard deviation, clamped below at `floor`.
    pub(crate) fn normal_duration(
        &mut self,
        mean: Duration,
        std_dev: Duration,
        floor: Duration,
    ) -> Duration {
        let sample = mean.as_nanos() as f64 + self.gaussian() * std_dev.as_nanos() as f64;
        let clamped = sample.max(floor.as_nanos() as f64);
        Duration::from_nanos(clamped as i64)
    }

    /// Returns an exponentially distributed duration with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    #[cfg(test)]
    pub(crate) fn exponential_duration(&mut self, mean: Duration) -> Duration {
        assert!(mean > Duration::ZERO, "mean must be positive");
        let u = 1.0 - self.next_f64(); // (0, 1]
        let sample = -(u.ln()) * mean.as_nanos() as f64;
        Duration::from_nanos(sample as i64)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    #[cfg(test)]
    pub(crate) fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_usize_below(i + 1);
            slice.swap(i, j);
        }
    }
}

/// A parameterized latency/jitter distribution used across the simulator.
///
/// # Examples
///
/// ```
/// use dear_sim::{LatencyModel, SimRng};
/// use dear_time::Duration;
///
/// let model = LatencyModel::uniform(Duration::from_micros(100), Duration::from_micros(500));
/// let mut rng = SimRng::seed_from_u64(7);
/// let sample = model.sample(&mut rng);
/// assert!(sample >= Duration::from_micros(100) && sample < Duration::from_micros(500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// A fixed delay.
    Constant(Duration),
    /// Uniform in `[min, max)`.
    Uniform {
        /// Inclusive lower bound.
        min: Duration,
        /// Exclusive upper bound.
        max: Duration,
    },
    /// Normal with mean/std-dev, clamped below at `min`.
    Normal {
        /// Mean of the distribution.
        mean: Duration,
        /// Standard deviation.
        std_dev: Duration,
        /// Hard lower clamp (physical delays cannot be negative).
        min: Duration,
    },
}

impl LatencyModel {
    /// Convenience constructor for a constant delay.
    #[must_use]
    pub fn constant(d: Duration) -> Self {
        LatencyModel::Constant(d)
    }

    /// Convenience constructor for a uniform delay.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`.
    #[must_use]
    pub fn uniform(min: Duration, max: Duration) -> Self {
        assert!(min < max, "uniform latency requires min < max");
        LatencyModel::Uniform { min, max }
    }

    /// Convenience constructor for a truncated-normal delay.
    #[must_use]
    pub fn normal(mean: Duration, std_dev: Duration, min: Duration) -> Self {
        LatencyModel::Normal { mean, std_dev, min }
    }

    /// Draws one sample from the model.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => rng.uniform_duration(min, max),
            LatencyModel::Normal { mean, std_dev, min } => rng.normal_duration(mean, std_dev, min),
        }
    }

    /// A conservative upper bound on samples, where one exists.
    ///
    /// For the normal model this returns mean + 5σ, which the simulator
    /// treats as the "engineering worst case" (the paper's `L` is likewise
    /// an estimated upper bound, not a hard guarantee).
    #[must_use]
    pub fn upper_bound(&self) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { max, .. } => max,
            LatencyModel::Normal { mean, std_dev, .. } => mean + std_dev * 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn forked_streams_are_reproducible_and_independent() {
        let root = SimRng::seed_from_u64(99);
        let mut f1 = root.fork("alpha");
        let mut f2 = root.fork("beta");
        let mut f1b = root.fork("alpha");
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
        let mut i0 = root.fork_indexed("swc", 0);
        let mut i1 = root.fork_indexed("swc", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_u64_below(bound) < bound);
            }
        }
        for _ in 0..200 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn bounded_draw_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_u64_below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).abs() < (expected / 10) as i64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn uniform_duration_in_range() {
        let mut rng = SimRng::seed_from_u64(17);
        let lo = Duration::from_micros(10);
        let hi = Duration::from_micros(50);
        for _ in 0..1000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d < hi);
        }
    }

    #[test]
    fn normal_duration_clamps_at_floor() {
        let mut rng = SimRng::seed_from_u64(19);
        let floor = Duration::from_micros(1);
        for _ in 0..1000 {
            let d = rng.normal_duration(Duration::from_micros(2), Duration::from_micros(50), floor);
            assert!(d >= floor);
        }
    }

    #[test]
    fn exponential_duration_mean() {
        let mut rng = SimRng::seed_from_u64(23);
        let mean = Duration::from_millis(10);
        let n = 50_000;
        let total: i64 = (0..n)
            .map(|_| rng.exponential_duration(mean).as_nanos())
            .sum();
        let observed = total / n;
        let expected = mean.as_nanos();
        assert!(
            (observed - expected).abs() < expected / 10,
            "observed mean {observed} vs expected {expected}"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn latency_models_sample_within_bounds() {
        let mut rng = SimRng::seed_from_u64(31);
        let c = LatencyModel::constant(Duration::from_millis(1));
        assert_eq!(c.sample(&mut rng), Duration::from_millis(1));
        let u = LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(2));
        for _ in 0..100 {
            let s = u.sample(&mut rng);
            assert!(s >= Duration::from_millis(1) && s < Duration::from_millis(2));
            assert!(s <= u.upper_bound());
        }
        let n = LatencyModel::normal(
            Duration::from_millis(1),
            Duration::from_micros(100),
            Duration::ZERO,
        );
        for _ in 0..100 {
            assert!(n.sample(&mut rng) >= Duration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::seed_from_u64(1).next_u64_below(0);
    }
}
