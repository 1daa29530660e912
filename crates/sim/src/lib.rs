//! # dear-sim — seeded discrete-event platform simulator
//!
//! This crate is the hardware substitute for the reproduction of
//! *Achieving Determinism in Adaptive AUTOSAR* (DATE 2020). The paper's
//! evaluation ran on two MinnowBoard Turbot boards connected by an Ethernet
//! switch; here, platforms, their clocks, their thread pools, and the
//! network between them are simulated under a single seeded event calendar
//! so that every experiment instance is exactly reproducible from
//! `(seed, parameters)`.
//!
//! The pieces:
//!
//! * [`Simulation`] — the event calendar and virtual "true time"; hot
//!   events are `(key, token)` data fired on a registered [`Component`].
//! * [`SimRng`] / [`LatencyModel`] — deterministic randomness and the delay
//!   distributions used throughout.
//! * [`VirtualClock`] / [`ClockModel`] — per-platform clocks with bounded
//!   skew and drift (the paper's clock-sync error `E`).
//! * [`NetworkHandle`] — point-to-point links with latency, jitter, loss,
//!   and optional reordering (nondeterminism source 3).
//! * [`FaultPlan`] — deterministic fault injection: seeded,
//!   logical-time-scheduled campaigns of loss bursts, latency spikes,
//!   link kills and partitions, replayable bit-for-bit.
//! * [`TaskPool`] — worker-thread dispatch with stochastic scheduling
//!   delay (nondeterminism source 1).
//! * [`FrameBuf`] / [`FramePool`] — pooled, reference-counted frame
//!   buffers: the zero-copy payload representation every layer above
//!   (SOME/IP, transactors, federation) moves message bytes in.
//! * [`Trace`] — deterministic fingerprinting of observable behaviour.
//!
//! # Quickstart
//!
//! ```
//! use dear_sim::{Frame, LinkConfig, NetworkHandle, NodeId, Simulation};
//! use dear_time::Duration;
//!
//! let mut sim = Simulation::new(42);
//! let net = NetworkHandle::new(LinkConfig::ideal(Duration::from_micros(500)), sim.fork_rng("net"));
//! net.set_receiver(NodeId(1), |sim, frame| {
//!     println!("got {:?} at {}", frame.payload, sim.now());
//! });
//! net.send(&mut sim, Frame { src: NodeId(0), dst: NodeId(1), payload: vec![1, 2, 3].into() });
//! sim.run_to_completion();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod fault;
mod frame;
mod net;
mod pool;
mod rng;
mod sim;
mod slots;
mod trace;

pub use clock::{ClockModel, VirtualClock};
pub use fault::{FaultEvent, FaultPlan};
pub use frame::{FrameBuf, FrameMut, FramePool, FramePoolStats};
pub use net::{Frame, LinkConfig, NetStats, NetworkHandle, NodeId};
pub use pool::{PoolStats, TaskPool};
pub use rng::{LatencyModel, SimRng};
pub use sim::{Component, SimStats, Simulation};
pub use trace::{Trace, TraceEvent};
