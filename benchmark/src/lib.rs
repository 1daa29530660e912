//! # dear-benchmark — the DEAR stack's end-to-end and per-layer benchmark
//!
//! Eight named workloads run through the stack's public entry points
//! only; every layer is measured from outside, by timing and counting
//! calls into its public functions. See `README.md` beside this crate for
//! the workload and metric glossary, the noise policy, and how to run and
//! compare; `BENCHMARK.json` at the repository root declares the same
//! workloads and metrics for the driver that gates later changes.
//!
//! * [`workloads`] — the workloads and layer drivers: every call into the
//!   stack;
//! * [`suite`] — the passes (verify, set-up, timed, traced, counted,
//!   layer drivers) and the metrics computed from them;
//! * [`metrics`] — the metric declarations;
//! * [`compare`] — two result files, metric by metric;
//! * [`alloc`], [`report`], [`trace`] — the counting allocator, the
//!   `Samples` + JSON report type, and bench-side spans.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod compare;
pub mod metrics;
pub mod report;
pub mod suite;
pub mod trace;
pub mod workloads;

/// Every binary and test linking this crate allocates through the
/// counting allocator (off unless inside [`alloc::counted`]).
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
