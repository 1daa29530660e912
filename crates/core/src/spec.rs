//! The contract between `#[derive(Reactor)]` and the program builder.
//!
//! The derive macro (re-exported as [`Reactor`](crate::Reactor)) turns a
//! plain struct of [`Port`](crate::Port) / action / [`Timer`](crate::Timer)
//! fields plus `#[reaction(...)]` markers into an implementation of
//! [`ReactorSpec`]: a function that declares the reactor through the
//! existing [`ProgramBuilder`] API, in field order, with the struct's
//! methods as reaction bodies. Nothing about the runtime changes — a
//! derived reactor produces the *same* program (same element names, ids,
//! levels and replay fingerprints) as the equivalent hand-written builder
//! calls.
//!
//! ```
//! use dear_core::{Port, ProgramBuilder, Reaction, ReactionCtx, Reactor, Runtime, Timer};
//! use dear_time::{Duration, Instant};
//!
//! #[derive(Reactor)]
//! #[reactor(state = u64)]
//! struct Counter {
//!     #[timer(period = "Duration::from_millis(10)")]
//!     tick: Timer,
//!     #[output]
//!     count: Port<u64>,
//!     #[reaction(triggers(tick), effects(count))]
//!     bump: Reaction,
//! }
//!
//! impl Counter {
//!     fn bump(state: &mut u64, this: &Self, ctx: &mut ReactionCtx<'_>) {
//!         *state += 1;
//!         ctx.set(this.count, *state);
//!         if *state == 3 {
//!             ctx.request_shutdown();
//!         }
//!     }
//! }
//!
//! let mut b = ProgramBuilder::new();
//! let counter: Counter = b.declare("counter", 0u64);
//! # let _ = counter;
//! let mut rt = Runtime::new(b.build()?);
//! rt.start(Instant::EPOCH);
//! rt.run_fast(u64::MAX);
//! assert_eq!(rt.stats().executed_reactions, 3);
//! # Ok::<(), dear_core::AssemblyError>(())
//! ```

use crate::program::ProgramBuilder;

/// A reactor class that can declare instances of itself into a
/// [`ProgramBuilder`].
///
/// Implemented by `#[derive(Reactor)]`; rarely written by hand. The
/// returned value is the *handle bundle*: a `Copy` struct holding the
/// instance's port, action and timer handles for wiring with
/// [`ProgramBuilder::connect`] and friends.
pub trait ReactorSpec: Sized {
    /// The reactor's mutable state, passed to every reaction body.
    type State: 'static;

    /// Foreign handles (ports of *other* reactors, e.g. transactor event
    /// ports) the reactor's reactions reference. `()` when there are none.
    type Externals;

    /// Declares one instance named `name` into `builder` and returns its
    /// handle bundle.
    fn declare_in(
        builder: &mut ProgramBuilder,
        name: &str,
        state: Self::State,
        ext: Self::Externals,
    ) -> Self;
}

/// Marker type for `#[reaction(...)]` fields in a derived reactor struct.
///
/// The field itself carries no data — the declaration order of `Reaction`
/// fields *is* the reaction priority order, exactly like calls to
/// [`ReactorBuilder::reaction`](crate::ReactorBuilder::reaction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reaction;

impl ProgramBuilder {
    /// Declares an instance of a derived reactor class with no external
    /// handles.
    ///
    /// See [`ReactorSpec`] for the derive contract; `examples/quickstart.rs`
    /// shows a complete derived program.
    pub fn declare<R: ReactorSpec<Externals = ()>>(&mut self, name: &str, state: R::State) -> R {
        R::declare_in(self, name, state, ())
    }

    /// Declares an instance of a derived reactor class that references
    /// foreign ports (declared with `#[external]` fields).
    pub fn declare_ext<R: ReactorSpec>(
        &mut self,
        name: &str,
        state: R::State,
        ext: R::Externals,
    ) -> R {
        R::declare_in(self, name, state, ext)
    }
}
