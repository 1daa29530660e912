//! The pluggable coordination layer: the driver abstraction transactors
//! bind to, so the same scenario runs under either of DEAR's two
//! coordination strategies.
//!
//! There is **one** driver loop — [`FederatedPlatform`] — and two
//! policies plugged into it (see the [`CoordinationPolicy`] seams):
//!
//! * **Decentralized** (paper §III.A): each platform locally gates tags
//!   against its physical clock; safety comes from the `t + D + L + E`
//!   safe-to-process offset. This is the loop with the empty
//!   [`Decentralized`](crate::Decentralized) policy.
//! * **Centralized**: a run-time infrastructure (RTI) tracks every
//!   federate's next-event tag and explicitly grants tag advances
//!   (NET/TAG/PTAG/LTC). `dear-federation`'s `CoordinatedPlatform` is the
//!   same loop with the grant protocol as its policy; a grant can only
//!   delay the clock rule, so both produce bit-identical event traces.
//!
//! Transactor `bind` methods accept any [`PlatformDriver`] — anything
//! that can name the [`FederatedPlatform`] it drives — which is what
//! makes the coordination layer pluggable: scenario code chooses a
//! [`Coordination`] strategy and constructs the matching driver; nothing
//! else changes.

use crate::config::{DearConfig, UntaggedPolicy};
use crate::outbox::OutboundMsg;
use crate::platform::{CoordinationPolicy, FederatedPlatform};
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, ReactionId, Runtime, RuntimeError, RuntimeStats, Tag};
use dear_sim::{LatencyModel, Simulation};
use dear_someip::{FrameBuf, WireTag};
use std::fmt;

/// Which coordination strategy a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coordination {
    /// PTIDES-style local gating via the `t + D + L + E` offset.
    #[default]
    Decentralized,
    /// RTI-granted tag advances (NET/TAG/PTAG/LTC protocol).
    Centralized,
}

impl fmt::Display for Coordination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coordination::Decentralized => f.write_str("decentralized"),
            Coordination::Centralized => f.write_str("centralized"),
        }
    }
}

/// A platform driver a transactor can bind to.
///
/// A driver is a handle to a [`FederatedPlatform`] — the loop that owns a
/// reactor [`Runtime`] plus the platform's clock and outbox — under some
/// coordination policy, which decides *when* the runtime may process
/// tags. Everything but [`platform`](PlatformDriver::platform) is
/// provided. Handles are cheap to clone and shared.
pub trait PlatformDriver: Clone + 'static {
    /// The driver loop behind this handle.
    fn platform(&self) -> &FederatedPlatform<impl CoordinationPolicy>;

    /// The platform's name.
    fn driver_name(&self) -> String {
        self.platform().name()
    }

    /// Registers the interpreter for an outbox route.
    fn register_route(&self, route: u32, handler: impl Fn(&mut Simulation, OutboundMsg) + 'static) {
        self.platform().register_route(route, handler);
    }

    /// Attaches a modelled compute cost to a reaction.
    fn set_reaction_cost(&self, reaction: ReactionId, model: LatencyModel) {
        self.platform().set_reaction_cost(reaction, model);
    }

    /// Runs a closure with mutable access to the runtime (tracing,
    /// workers, statistics).
    fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        self.platform().with_runtime(f)
    }

    /// Runtime statistics snapshot.
    fn runtime_stats(&self) -> RuntimeStats {
        self.platform().stats()
    }

    /// Starts the runtime and arms the first wake-up.
    fn start(&self, sim: &mut Simulation) {
        self.platform().start(sim);
    }

    /// Injects a payload into a physical action at an exact tag — the
    /// PTIDES "schedule an action with tag `t + D + L + E`" step.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's error when the tag is no longer safe to
    /// process (counted by the runtime) or the runtime is not running.
    fn inject_at<T: 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), RuntimeError> {
        self.platform().inject_at(sim, action, value, tag)
    }

    /// Injects a payload tagged with the local physical arrival time.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's error when the runtime is not running.
    fn inject_now<T: 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
    ) -> Result<Tag, RuntimeError> {
        self.platform().inject_now(sim, action, value)
    }

    /// Delivers a received message to a physical action according to the
    /// DEAR rules: tagged messages are released at `wire_tag + L + E`;
    /// untagged messages follow the configured [`UntaggedPolicy`].
    fn deliver(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<FrameBuf>,
        payload: FrameBuf,
        wire_tag: Option<WireTag>,
        cfg: &DearConfig,
        stats: &TransactorStats,
    ) {
        match wire_tag {
            Some(w) => {
                let base = crate::config::wire_to_tag(w);
                let release = Tag::new(base.time + cfg.stp_offset(), base.microstep);
                if self.inject_at(sim, action, payload, release).is_err() {
                    stats.record_stp_violation();
                }
            }
            None => match cfg.untagged {
                UntaggedPolicy::Fail => stats.record_untagged_dropped(),
                UntaggedPolicy::PhysicalTime => {
                    if self.inject_now(sim, action, payload).is_err() {
                        stats.record_stp_violation();
                    }
                }
            },
        }
    }
}

impl<P: CoordinationPolicy> PlatformDriver for FederatedPlatform<P> {
    fn platform(&self) -> &FederatedPlatform<impl CoordinationPolicy> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_default_and_display() {
        assert_eq!(Coordination::default(), Coordination::Decentralized);
        assert_eq!(Coordination::Decentralized.to_string(), "decentralized");
        assert_eq!(Coordination::Centralized.to_string(), "centralized");
    }
}
