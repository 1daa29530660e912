//! Integration across the stack through the facade crate: the module
//! re-exports resolve and present one coherent API surface.

use dear::reactor::{ProgramBuilder, Runtime, Startup, Tag};
use dear::time::Instant;

/// Workspace-wiring smoke test: the facade's module re-exports must resolve
/// under their documented paths. This is a compile-time property; the body
/// only pins a few of them as values/types so the test cannot be optimised
/// into vacuity.
#[test]
fn facade_reexports_resolve() {
    // `dear::reactor::Runtime` — reachable as a type.
    fn _takes_runtime(_: &dear::reactor::Runtime) {}
    // `dear::someip::Binding` — constructible from re-exported parts.
    let sim = dear::sim::Simulation::new(1);
    let net = dear::sim::NetworkHandle::new(
        dear::sim::LinkConfig::ideal(dear::time::Duration::from_micros(10)),
        sim.fork_rng("smoke"),
    );
    let _binding: dear::someip::Binding = dear::someip::Binding::new(
        &net,
        &dear::someip::SdRegistry::new(),
        dear::sim::NodeId(1),
        0x01,
    );
    // `dear::apd::run_det` — reachable as a function value.
    let _run_det: fn(u64, &dear::apd::DetParams) -> dear::apd::DetReport = dear::apd::run_det;
    // One symbol from each remaining facade module.
    let _ = dear::time::Instant::EPOCH;
    let _cfg: dear::transactors::DearConfig;
}

#[test]
fn startup_and_tag_zero_reach_through_facade() {
    // Sanity: the re-exported facade presents one coherent API surface.
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor("r", 0u32);
    r.reaction("go")
        .triggered_by(Startup)
        .body(|n: &mut u32, ctx| {
            *n += 1;
            assert_eq!(ctx.tag(), Tag::ORIGIN);
        });
    r.finish();
    let mut rt = Runtime::new(b.build().expect("builds"));
    rt.start(Instant::EPOCH);
    rt.run_fast(u64::MAX);
    assert_eq!(rt.stats().executed_reactions, 1);
}
