//! # dear-core — a deterministic reactor runtime
//!
//! This crate implements the reactor model that the paper *Achieving
//! Determinism in Adaptive AUTOSAR* (DATE 2020) proposes as the programming
//! model for software components (SWCs) on the AUTOSAR Adaptive Platform.
//! It corresponds to the reactor-runtime half of the authors' DEAR
//! framework ("a C++ implementation of the reactor model ... type-safe
//! mechanisms for the definition of reactors with ports, actions and
//! reactions ... and a runtime scheduler to coordinate the execution of
//! the reactor network", §III.B) — rebuilt from scratch in Rust.
//!
//! ## Model
//!
//! * Reactors are stateful components declaring **reactions** triggered by
//!   input **ports**, **actions**, **timers**, startup and shutdown.
//! * Every event carries a [`Tag`] (logical time + microstep); reactions
//!   are logically instantaneous, so outputs inherit the triggering tag.
//! * The port topology plus intra-reactor priorities form an **acyclic
//!   precedence graph** whose levels drive scheduling; same-level
//!   reactions are independent and may execute on parallel workers with
//!   bit-identical observable behaviour.
//! * **Logical actions** are scheduled by reactions with a logical delay;
//!   **physical actions** are scheduled from outside (sensors, network
//!   interrupts) and are the model's controlled nondeterminism inlet.
//! * **Deadlines** bound the physical lag of a reaction; a violated
//!   deadline runs the handler instead of the body — faults become
//!   observable instead of silently reordering events.
//!
//! ## Quickstart
//!
//! ```
//! use dear_core::{ProgramBuilder, Runtime, Startup};
//! use dear_time::{Duration, Instant};
//!
//! let mut b = ProgramBuilder::new();
//!
//! let mut src = b.reactor("src", ());
//! let out = src.output::<u64>("out");
//! let tick = src.timer("tick", Duration::ZERO, Some(Duration::from_millis(10)));
//! src.reaction("emit")
//!     .triggered_by(tick)
//!     .effects(out)
//!     .body(move |_, ctx| {
//!         let t = ctx.logical_time().as_nanos();
//!         ctx.set(out, t);
//!     });
//! src.finish();
//!
//! let mut sink = b.reactor("sink", Vec::<u64>::new());
//! let inp = sink.input::<u64>("in");
//! sink.reaction("collect")
//!     .triggered_by(inp)
//!     .body(move |seen: &mut Vec<u64>, ctx| {
//!         seen.push(*ctx.get(inp).unwrap());
//!         if seen.len() == 3 {
//!             ctx.request_shutdown();
//!         }
//!     });
//! sink.finish();
//!
//! b.connect(out, inp)?;
//! let mut rt = Runtime::new(b.build()?);
//! rt.start(Instant::EPOCH);
//! rt.run_fast(u64::MAX);
//! assert_eq!(rt.stats().executed_reactions, 6); // 3 emits + 3 collects
//! # Ok::<(), dear_core::AssemblyError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod error;
mod handles;
mod pool;
mod program;
mod queue;
mod runtime;
mod spec;
mod tag;

pub use context::{ActionSource, ReactionCtx};
pub use error::{AssemblyError, RuntimeError};
pub use handles::{
    ActionId, LogicalAction, PhysicalAction, Port, PortId, ReactionId, ReactorId, Shutdown,
    Startup, Timer, TimerId, TriggerId, TriggerSource,
};
pub use program::{Program, ProgramBuilder, ReactionDeclaration, ReactorBuilder};
pub use runtime::{Runtime, RuntimeStats, StepOutcome, TagSummary};
pub use spec::{Reaction, ReactorSpec};
pub use tag::Tag;

/// The `#[derive(Reactor)]` authoring DSL (see [`spec`](crate::ReactorSpec)
/// and the `dear-macros` crate for the attribute reference).
pub use dear_macros::Reactor;

/// Implementation detail of `#[derive(Reactor)]` expansions — not public
/// API. Re-exports the types generated code references by absolute path so
/// user crates need no extra dependencies.
#[doc(hidden)]
pub mod __rt {
    pub use dear_time::Duration;
}
