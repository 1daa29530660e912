//! # dear-federation — centralized logical-time coordination
//!
//! The DEAR transactors of `dear-transactors` coordinate a federation
//! *decentrally*: each platform releases received events at
//! `t + D + L + E` and gates processing on its local physical clock
//! (PTIDES, paper §III). The Lingua Franca ecosystem the paper builds on
//! also defines a *centralized* coordinator — an RTI that tracks every
//! federate's next-event tag and explicitly grants tag advances. This
//! crate implements that coordinator on top of the same simulated
//! SOME/IP middleware:
//!
//! * [`LbtsSolver`] — the Chandy–Misra-style LBTS fixpoint itself,
//!   shared by every coordination level over the [`LbtsGraph`] trait:
//!   solved once per topology, then kept between control messages and
//!   updated incrementally (work follows what moved, not fleet size);
//! * one coordinator **shell** around one **table**, at every level.
//!   The table (`GrantTable`: per-federate NET/LTC state, the declared
//!   topology, the solver, the TAG/PTAG/DNET passes, the liveness
//!   deadline, the counters) is what a coordinator *is*; the shell is the
//!   SOME/IP binding around it — registration, frame decode at one site,
//!   one generation-guarded watchdog, one round, one grant send-out —
//!   plus an **optional uplink** that places it in a hierarchy;
//! * [`Rti`] — the flat coordinator: that shell *without* an uplink.
//!   Every table entry is a member, federate ids are table indices, and
//!   grants (including provisional grants that break zero-delay cycles)
//!   leave one record per frame;
//! * [`HierarchicalRti`] — the fleet-scale topology: zones are the same
//!   shell *with* an uplink (global ids, one never-granted proxy entry
//!   per upstream zone, grants batched per round, the zone floor rolled
//!   up), under a root that runs the same table with no grantable entry
//!   at all — its zone summaries are what a zone's proxies are, fed
//!   through the same `Floor`/`Rejoin` apply function — and relays
//!   clamped floors back down. Liveness is per shard: a silent zone is
//!   released without stalling its siblings;
//! * [`CoordinatedPlatform`] — a drop-in [`PlatformDriver`]: the one
//!   driver loop of `dear-transactors` with the grant protocol plugged
//!   in as its coordination policy. This crate has no scheduler of its
//!   own; the policy answers the loop's five seams — which tag may be
//!   released (grant gating through the runtime's tag bound), is the
//!   process down (crash / recover), a tag was processed (LTC, durable
//!   record), a batch was drained / an input was injected (durable
//!   records), and after the step (NET, `Resign`) — with all
//!   coordination counters reported through `TransactorStats`. It
//!   speaks both the flat single-record protocol and the zones' batched
//!   protocol ([`CoordinatedPlatform::new_in_zone`]).
//!
//! Because a policy can only *delay* the loop's clock rule, a centralized
//! run produces **bit-identical event traces** to a decentralized run of
//! the same scenario — verified by `tests/federation_equivalence.rs` on
//! the brake-assistant topology.
//!
//! ## Quickstart
//!
//! ```
//! use dear_core::{ProgramBuilder, Runtime};
//! use dear_federation::{CoordinatedPlatform, Rti};
//! use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
//! use dear_someip::{Binding, SdRegistry};
//! use dear_time::{Duration, Instant};
//! use dear_transactors::Outbox;
//!
//! let mut sim = Simulation::new(7);
//! let net = NetworkHandle::new(
//!     LinkConfig::ideal(Duration::from_micros(50)),
//!     sim.fork_rng("net"),
//! );
//! let sd = SdRegistry::new();
//! let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
//!
//! let mut b = ProgramBuilder::new();
//! let mut r = b.reactor("tick", 0u32);
//! let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(10)));
//! r.reaction("count").triggered_by(t).body(|n: &mut u32, _| *n += 1);
//! r.finish();
//!
//! let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
//! let platform = CoordinatedPlatform::new(
//!     "solo",
//!     Runtime::new(b.build()?),
//!     VirtualClock::ideal(),
//!     Outbox::new(),
//!     sim.fork_rng("costs"),
//!     &rti,
//!     &binding,
//!     false,
//! );
//! platform.start(&mut sim);
//! sim.run_until(Instant::from_millis(100));
//! // A federate without upstream edges is granted an unbounded advance.
//! assert!(platform.stats().processed_tags > 5);
//! assert_eq!(platform.coordination_stats().bound_breaches(), 0);
//! # Ok::<(), dear_core::AssemblyError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// Lets the oracle's support module, shared with `tests/`, name this crate
// the way an integration test does.
#[cfg(test)]
extern crate self as dear_federation;

mod hierarchy;
#[cfg(test)]
mod oracle;
mod platform;
mod rti;
mod solver;
mod zone;

pub use hierarchy::HierarchicalRti;
pub use platform::{CoordinatedPlatform, PlatformRecovery};
#[doc(hidden)]
pub use rti::GrantTable;
pub use rti::{FederateId, FederationError, Rti, RtiStats};
pub use solver::{edge_add, node_floor, tag_succ, LbtsGraph, LbtsSolver, NodeView, TAG_MAX};
pub use zone::{zone_instance, zone_uplink_eventgroup, ZoneId, COORD_ROOT_INSTANCE};

// Re-exported so scenario code can pick a strategy without importing
// dear-transactors separately.
pub use dear_transactors::{Coordination, PlatformDriver};

// Re-exported so recovery scenarios can build and inspect durable logs
// without importing dear-durable separately.
pub use dear_durable::{EventLog, LogStats, LogStorage, MemStorage, Record as LogRecord};
