//! # dear-transactors — the DEAR integration layer
//!
//! This crate is the heart of the paper's proposal (§III.B): it connects
//! deterministic reactor programs (`dear-core`) to standard AUTOSAR AP
//! service interfaces (`dear-someip`) without breaking the
//! standard, by interposing **transactors** — special reactors that
//! "translate between the service-oriented interfaces of SWCs and the
//! event-based input and output ports of reactors".
//!
//! The pieces:
//!
//! * [`ClientMethodTransactor`] / [`ServerMethodTransactor`] — the
//!   two-way method path of Figure 3 with the full 22-step tag algebra
//!   (`tc + Dc`, `+ L + E`, `ts + Ds`, `+ L + E`);
//! * [`ClientEventTransactor`] / [`ServerEventTransactor`] — the one-way
//!   event path (the brake-assistant pipeline);
//! * [`FieldClientTransactor`] — a field as one event plus two method
//!   transactors, addressed by its [`FieldIds`];
//! * [`FederatedPlatform`] — the one platform driver loop, enforcing the
//!   PTIDES safe-to-process rule against the platform's local (skewed)
//!   clock, with modelled per-reaction compute cost so that deadlines
//!   are meaningful in simulation;
//! * [`CoordinationPolicy`] — what a coordination strategy adds to that
//!   loop, at five seams: which tag may be released, is the process
//!   down, a tag was processed, a batch was drained / an input was
//!   injected, and after the step. [`Decentralized`] (this crate) adds
//!   nothing; `dear-federation`'s RTI grant protocol is the other
//!   policy. One loop, two policies — never two loops;
//! * [`PlatformDriver`] / [`Coordination`] — what transactors bind to: a
//!   handle to the loop under either policy, so the same scenario runs
//!   decentralized or centralized unchanged;
//! * [`Outbox`] — the deterministic reaction→middleware queue;
//! * [`FailoverBinding`] — deterministic re-binding to redundant
//!   providers (priority offers, TTL heartbeats, silence watchdog);
//! * [`TransactorStats`] — observable fault counters (untagged drops,
//!   safe-to-process violations, failovers).
//!
//! See `tests/fig3_roundtrip.rs` for the full Figure 3 sequence driven
//! end to end with exact tag assertions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod driver;
mod event;
mod failover;
mod field;
mod method;
mod outbox;
mod platform;
mod stats;

pub use config::{
    tag_to_wire, wire_to_tag, DearConfig, EventSpec, FailoverEventSpec, MethodSpec, UntaggedPolicy,
};
pub use driver::{Coordination, PlatformDriver};
pub use event::{ClientEventTransactor, ServerEventTransactor};
pub use failover::FailoverBinding;
pub use field::{FieldClientTransactor, FieldIds};
pub use method::{ClientMethodTransactor, ServerMethodTransactor};
pub use outbox::{OutboundMsg, Outbox, OutboxSender};
pub use platform::{CoordinationPolicy, Decentralized, FederatedPlatform, PlatformCore};
pub use stats::TransactorStats;
