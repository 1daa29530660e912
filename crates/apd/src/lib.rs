//! # dear-apd — the Adaptive Platform Demonstrator case studies
//!
//! Executable reproductions of the paper's evaluation applications:
//!
//! * [`calculator`] — the Figure 1 client/server app whose printed value
//!   is one of {0, 1, 2, 3} depending on thread-dispatch order;
//! * [`run_nondet`] — the nondeterministic brake assistant of Figure 4,
//!   with one-slot buffers, 50 ms periodic callbacks, and the four error
//!   types of Figure 5 instrumented;
//! * [`run_det`] — the deterministic DEAR port of §IV.B (same logic,
//!   reactor coordination, tagged SOME/IP, deadlines 5/25/25/5 ms,
//!   L = 5 ms, E = 0);
//! * the shared pure stage logic ([`preprocess`], [`detect_vehicles`],
//!   [`eba_decide`]) and payload types ([`Frame`], [`VehicleList`], ...),
//!   so the two builds differ *only* in coordination.
//!
//! The stock `ara::com` runtime the two foils (Fig. 1, §IV.A) are built
//! on — software components with worker pools, proxies with one-slot
//! event buffers, skeletons dispatching through the pool (nondeterminism
//! source 1), and futures in simulated time — lives here as private
//! modules: it is the nondeterministic baseline, not part of the DEAR
//! surface.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calculator;
mod det;
// The DEAR fix for Figure 1 (concurrent calls, deterministic result):
// only its test runs it.
#[cfg(test)]
mod det_calculator;
mod logic;
mod nondet;
mod redundancy;
mod types;

// The stock `ara::com` runtime.
mod future;
mod proxy;
mod skeleton;
mod swc;
// AP fields and AP's deterministic client: only the tests use them.
#[cfg(test)]
mod detclient;
#[cfg(test)]
mod field;

pub use det::{
    run_det, CoordReport, DetParams, DetReport, FailoverReport, RecoveryParams, RedundancyParams,
    StageDeadlines,
};
pub use logic::{detect_vehicles, eba_decide, preprocess, reference_decision, StageTimings};
pub use nondet::{run_nondet, NondetParams, NondetReport};
pub use types::{BrakeDecision, Frame, LaneBox, VehicleList};
