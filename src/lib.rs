//! # DEAR — Deterministic Adaptive AUTOSAR (reproduction facade)
//!
//! This crate re-exports the whole reproduction of *Achieving Determinism
//! in Adaptive AUTOSAR* (Menard et al., DATE 2020) as namespaced modules,
//! and hosts the runnable examples (`examples/`) and the workspace-level
//! integration tests (`tests/`).
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`time`] | `dear-time` | instants, durations |
//! | [`observe`] | `dear-observe` | deterministic telemetry: metrics, spans, exports |
//! | [`sim`] | `dear-sim` | seeded discrete-event platform simulator |
//! | [`reactor`] | `dear-core` | deterministic reactor runtime |
//! | [`someip`] | `dear-someip` | SOME/IP middleware + tag extension |
//! | [`transactors`] | `dear-transactors` | DEAR integration layer |
//! | [`federation`] | `dear-federation` | centralized coordinator (RTI) |
//! | [`apd`] | `dear-apd` | case studies, incl. the stock-AP (`ara::com`) foil |
//!
//! See `README.md` for the quickstart and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dear_apd as apd;
pub use dear_core as reactor;
pub use dear_federation as federation;
pub use dear_observe as observe;
pub use dear_sim as sim;
pub use dear_someip as someip;
pub use dear_time as time;
pub use dear_transactors as transactors;
