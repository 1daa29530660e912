//! The DEAR fix for the Figure 1 application.
//!
//! The paper argues that "the underlying model should allow for the
//! exploitation of concurrency in ways that preserve determinism" — the
//! client should neither serialize its calls by blocking on futures nor
//! force the server single-threaded. In the reactor version, the client
//! issues `set_value(1)`, `add(2)` and `get_value()` **at the same tag**
//! (all three in flight concurrently); the server processes the three
//! requests at one logical tag, ordered by reaction priority
//! (set → add → get). The printed value is 3 — always, by construction,
//! for every seed and any network jitter below the bound.

use crate::calculator::{CALC_INSTANCE, CALC_SERVICE, METHOD_ADD, METHOD_GET, METHOD_SET};
use dear_core::{Port, ProgramBuilder, Reaction, ReactionCtx, Reactor, Runtime, Timer};
use dear_sim::{LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, FrameBuf, PayloadReader, PayloadWriter, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientMethodTransactor, DearConfig, FederatedPlatform, MethodSpec, Outbox,
    ServerMethodTransactor,
};
use std::cell::Cell;
use std::rc::Rc;

fn encode_i64(v: i64) -> FrameBuf {
    let mut w = PayloadWriter::new();
    w.write_i64(v);
    w.into_frame()
}

fn decode_i64(bytes: &[u8]) -> i64 {
    let mut r = PayloadReader::new(bytes);
    r.read_i64().expect("calculator payload")
}

/// The server logic reactor: one reaction per method, priority order
/// (field declaration order) fixing the same-tag processing order
/// set → add → get. The transactor-owned request ports arrive as
/// `#[external]` handles at declare time.
#[derive(Reactor)]
#[reactor(state = i64)]
struct CalcServer {
    #[output]
    set_resp: Port<FrameBuf>,
    #[output]
    add_resp: Port<FrameBuf>,
    #[output]
    get_resp: Port<FrameBuf>,
    #[external]
    set_request: Port<FrameBuf>,
    #[external]
    add_request: Port<FrameBuf>,
    #[external]
    get_request: Port<FrameBuf>,
    #[reaction(triggers(set_request), effects(set_resp))]
    on_set: Reaction,
    #[reaction(triggers(add_request), effects(add_resp))]
    on_add: Reaction,
    #[reaction(triggers(get_request), effects(get_resp))]
    on_get: Reaction,
}

impl CalcServer {
    fn on_set(value: &mut i64, this: &Self, ctx: &mut ReactionCtx<'_>) {
        *value = decode_i64(ctx.get(this.set_request).unwrap());
        ctx.set(this.set_resp, encode_i64(*value));
    }

    fn on_add(value: &mut i64, this: &Self, ctx: &mut ReactionCtx<'_>) {
        *value += decode_i64(ctx.get(this.add_request).unwrap());
        ctx.set(this.add_resp, encode_i64(*value));
    }

    fn on_get(value: &mut i64, this: &Self, ctx: &mut ReactionCtx<'_>) {
        ctx.set(this.get_resp, encode_i64(*value));
    }
}

/// The client logic reactor: all three calls issued at one tag, the
/// printed value recorded in state when the `get` response arrives.
#[derive(Reactor)]
#[reactor(state = Rc<Cell<Option<i64>>>)]
struct CalcClient {
    #[output]
    set_req: Port<FrameBuf>,
    #[output]
    add_req: Port<FrameBuf>,
    #[output]
    get_req: Port<FrameBuf>,
    #[timer(offset = Duration::from_millis(10))]
    fire: Timer,
    #[external]
    get_response: Port<FrameBuf>,
    #[reaction(triggers(fire), effects(set_req, add_req, get_req))]
    invoke_all: Reaction,
    #[reaction(triggers(get_response))]
    print: Reaction,
}

impl CalcClient {
    fn invoke_all(_: &mut Rc<Cell<Option<i64>>>, this: &Self, ctx: &mut ReactionCtx<'_>) {
        // Concurrent, non-blocking, unordered in physical time —
        // yet deterministic: all three share the tag.
        ctx.set(this.set_req, encode_i64(1));
        ctx.set(this.add_req, encode_i64(2));
        ctx.set(this.get_req, FrameBuf::new());
    }

    fn print(sink: &mut Rc<Cell<Option<i64>>>, this: &Self, ctx: &mut ReactionCtx<'_>) {
        sink.set(Some(decode_i64(ctx.get(this.get_response).unwrap())));
    }
}

/// Outcome of one DEAR calculator trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DetCalcOutcome {
    /// The value the client "prints".
    printed: i64,
    /// Observed safe-to-process violations (0 when bounds hold).
    stp_violations: u64,
}

/// Runs one trial of the reactor-based calculator.
///
/// `latency_bound` is the assumed `L`; the actual simulated latency is
/// jittered up to 2 ms, so bounds of 5 ms and above are safe.
fn run_det_trial(seed: u64, latency_bound: Duration) -> DetCalcOutcome {
    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(
        LinkConfig::with_latency(LatencyModel::uniform(
            Duration::from_micros(100),
            Duration::from_millis(2),
        )),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let cfg = DearConfig::new(latency_bound, Duration::ZERO);
    let deadline = Duration::from_millis(1);
    let spec = |method: u16| MethodSpec {
        service: CALC_SERVICE,
        instance: CALC_INSTANCE,
        method,
    };

    // --- Server: a reactor with one reaction per method ------------------
    // Priority order (declaration order) fixes the same-tag processing
    // order: set, then add, then get.
    let outbox_s = Outbox::new();
    let mut bs = ProgramBuilder::new();
    let smt_set = ServerMethodTransactor::declare(&mut bs, &outbox_s, "set", deadline);
    let smt_add = ServerMethodTransactor::declare(&mut bs, &outbox_s, "add", deadline);
    let smt_get = ServerMethodTransactor::declare(&mut bs, &outbox_s, "get", deadline);
    let srv: CalcServer = bs.declare_ext(
        "calc_server",
        0i64,
        CalcServerExternals {
            set_request: smt_set.request,
            add_request: smt_add.request,
            get_request: smt_get.request,
        },
    );
    bs.connect(srv.set_resp, smt_set.response).unwrap();
    bs.connect(srv.add_resp, smt_add.response).unwrap();
    bs.connect(srv.get_resp, smt_get.response).unwrap();
    let server = FederatedPlatform::new(
        "calc-server",
        Runtime::new(bs.build().expect("server program")),
        VirtualClock::ideal(),
        outbox_s,
        sim.fork_rng("server-costs"),
    );
    let server_binding = Binding::new(&net, &sd, NodeId(1), 0x10);
    server_binding.offer(
        &mut sim,
        ServiceInstance::new(CALC_SERVICE, CALC_INSTANCE),
        Duration::from_secs(3600),
    );
    let s_set = smt_set.bind(&server, &server_binding, spec(METHOD_SET), cfg);
    let s_add = smt_add.bind(&server, &server_binding, spec(METHOD_ADD), cfg);
    let s_get = smt_get.bind(&server, &server_binding, spec(METHOD_GET), cfg);

    // --- Client: all three calls at one tag ------------------------------
    let printed: Rc<Cell<Option<i64>>> = Rc::new(Cell::new(None));
    let outbox_c = Outbox::new();
    let mut bc = ProgramBuilder::new();
    let cmt_set = ClientMethodTransactor::declare(&mut bc, &outbox_c, "set", deadline);
    let cmt_add = ClientMethodTransactor::declare(&mut bc, &outbox_c, "add", deadline);
    let cmt_get = ClientMethodTransactor::declare(&mut bc, &outbox_c, "get", deadline);
    let cli: CalcClient = bc.declare_ext(
        "calc_client",
        printed.clone(),
        CalcClientExternals {
            get_response: cmt_get.response,
        },
    );
    bc.connect(cli.set_req, cmt_set.request).unwrap();
    bc.connect(cli.add_req, cmt_add.request).unwrap();
    bc.connect(cli.get_req, cmt_get.request).unwrap();
    let client = FederatedPlatform::new(
        "calc-client",
        Runtime::new(bc.build().expect("client program")),
        VirtualClock::ideal(),
        outbox_c,
        sim.fork_rng("client-costs"),
    );
    let client_binding = Binding::new(&net, &sd, NodeId(2), 0x20);
    let c_set = cmt_set.bind(&client, &client_binding, spec(METHOD_SET), cfg);
    let c_add = cmt_add.bind(&client, &client_binding, spec(METHOD_ADD), cfg);
    let c_get = cmt_get.bind(&client, &client_binding, spec(METHOD_GET), cfg);

    server.start(&mut sim);
    client.start(&mut sim);
    sim.run_until(Instant::from_secs(1));

    let stp = server.stats().stp_violations
        + client.stats().stp_violations
        + [s_set, s_add, s_get, c_set, c_add, c_get]
            .iter()
            .map(dear_transactors::TransactorStats::stp_violations)
            .sum::<u64>();
    let printed_value = printed.get().unwrap_or(-1);
    DetCalcOutcome {
        printed: printed_value,
        stp_violations: stp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dear_calculator_always_prints_three() {
        for seed in 0..1_000 {
            let outcome = run_det_trial(seed, Duration::from_millis(5));
            assert_eq!(outcome.printed, 3, "seed {seed}");
            assert_eq!(outcome.stp_violations, 0, "seed {seed}");
        }
    }

    #[test]
    fn understated_latency_bound_is_observable_not_wrong() {
        // With L far below the real latency, the three same-tag requests
        // can arrive after the server already processed that tag: the
        // late ones are rejected as STP violations. The printed value may
        // then be missing or stale — but the fault is *counted*, never a
        // silent wrong answer presented as correct.
        let mut violated = 0;
        for seed in 0..20 {
            let outcome = run_det_trial(seed, Duration::from_micros(50));
            if outcome.stp_violations > 0 {
                violated += 1;
                assert_ne!(
                    outcome.printed, 3,
                    "seed {seed}: a violated run must not pretend to be complete"
                );
            } else {
                assert_eq!(outcome.printed, 3, "seed {seed}");
            }
        }
        assert!(
            violated > 0,
            "expected at least one observable violation with a 50µs bound"
        );
    }
}
