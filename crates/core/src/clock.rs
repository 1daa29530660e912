//! Physical clock abstraction.
//!
//! The runtime itself is poll-driven and clock-agnostic; drivers supply
//! physical time readings. [`PhysicalClock`] is the interface those
//! drivers use: [`RealClock`] reads the operating system's monotonic
//! clock, while the simulated drivers in `dear-transactors` derive
//! readings from a [`dear_sim::VirtualClock`] mapped over simulation time.

use dear_time::{Duration, Instant};

/// A source of physical time readings on the workspace time axis.
pub(crate) trait PhysicalClock {
    /// The current physical time.
    fn now(&self) -> Instant;
}

/// A physical clock backed by [`std::time::Instant`].
///
/// The clock is anchored at construction: the OS instant observed then is
/// defined to correspond to `origin` on the workspace time axis.
///
/// # Examples
///
/// The clock is internal: its readings reach reactions as
/// `ReactionCtx::physical_time` under a `RealTimeExecutor`, which anchors
/// it at `Instant::EPOCH`. They never go backwards, and no tag is
/// processed before they reach it.
///
/// ```
/// use dear_core::{ProgramBuilder, RealTimeExecutor};
/// use dear_time::{Duration, Instant};
///
/// let mut b = ProgramBuilder::new();
/// let mut r = b.reactor("reader", (0u32, Instant::EPOCH));
/// let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
/// r.reaction("read").triggered_by(t).body(|s: &mut (u32, Instant), ctx| {
///     let now = ctx.physical_time();
///     assert!(now >= s.1);
///     assert!(now >= ctx.logical_time());
///     s.1 = now;
///     s.0 += 1;
///     if s.0 == 3 {
///         ctx.request_shutdown();
///     }
/// });
/// r.finish();
///
/// let stats = RealTimeExecutor::new(b.build()?).run();
/// assert_eq!(stats.executed_reactions, 3);
/// # Ok::<(), dear_core::AssemblyError>(())
/// ```
#[derive(Debug, Clone)]
pub(crate) struct RealClock {
    anchor: std::time::Instant,
    origin: Instant,
}

impl RealClock {
    /// Anchors a new clock: "now" (the OS time at this call) maps to
    /// `origin`.
    #[must_use]
    pub(crate) fn starting_at(origin: Instant) -> Self {
        RealClock {
            anchor: std::time::Instant::now(),
            origin,
        }
    }

    /// The configured origin.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn origin(&self) -> Instant {
        self.origin
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::starting_at(Instant::EPOCH)
    }
}

impl PhysicalClock for RealClock {
    fn now(&self) -> Instant {
        let elapsed = self.anchor.elapsed();
        self.origin + Duration::from_nanos(i64::try_from(elapsed.as_nanos()).unwrap_or(i64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed clock for tests: always reads the same instant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct FixedClock(Instant);

    impl PhysicalClock for FixedClock {
        fn now(&self) -> Instant {
            self.0
        }
    }

    #[test]
    fn real_clock_is_monotone_and_advances() {
        let clock = RealClock::starting_at(Instant::from_secs(100));
        let a = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a);
        assert!(a >= Instant::from_secs(100));
    }

    #[test]
    fn real_clock_origin_offsets_readings() {
        let clock = RealClock::starting_at(Instant::from_secs(7));
        assert_eq!(clock.origin(), Instant::from_secs(7));
        assert!(clock.now() >= Instant::from_secs(7));
        assert!(
            clock.now() < Instant::from_secs(8),
            "reading far from origin"
        );
    }

    #[test]
    fn fixed_clock_never_moves() {
        let clock = FixedClock(Instant::from_millis(5));
        assert_eq!(clock.now(), Instant::from_millis(5));
        assert_eq!(clock.now(), Instant::from_millis(5));
    }
}
