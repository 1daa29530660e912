//! The paper's Figure 1 client/server application.
//!
//! ```text
//! int main() {
//!     s = ServiceProxy();
//!     s.set_value(1);
//!     s.add(2);
//!     result = s.get_value();
//!     std::cout << result.get();
//! }
//! ```
//!
//! The server implements `set_value` and `add` non-blocking, and "by
//! default, the runtime environment maps each invocation to a different
//! thread, meaning the order in which the calls are handled is determined
//! purely by the thread scheduler. As a result, no order is enforced on
//! the handling of calls to set_value, add, and get_value, leading to
//! nondeterministic results" — the printed value is one of {0, 1, 2, 3}.
//!
//! [`run_trial`] executes one instance under a given seed;
//! [`distribution`] reproduces the Figure 1 histogram.

use crate::swc::{SoftwareComponent, SwcConfig};
use dear_sim::{LatencyModel, LinkConfig, NetworkHandle, NodeId, Simulation};
use dear_someip::{PayloadReader, PayloadWriter, SdRegistry};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::rc::Rc;

/// Service id of the calculator.
pub(crate) const CALC_SERVICE: u16 = 0x0C01;
/// Instance id used by the demo.
pub(crate) const CALC_INSTANCE: u16 = 1;
/// `set_value(v)` method id.
pub(crate) const METHOD_SET: u16 = 1;
/// `add(v)` method id.
pub(crate) const METHOD_ADD: u16 = 2;
/// `get_value()` method id.
pub(crate) const METHOD_GET: u16 = 3;

/// Configuration of one Figure 1 trial.
#[derive(Debug, Clone)]
pub struct CalculatorConfig {
    /// Server worker threads (paper default: one thread per invocation).
    pub server_workers: usize,
    /// Server dispatch jitter (the thread scheduler's whim).
    pub dispatch_jitter: LatencyModel,
    /// Method execution time on the server.
    pub exec_time: LatencyModel,
    /// Client↔server link.
    pub link: LinkConfig,
}

impl Default for CalculatorConfig {
    fn default() -> Self {
        CalculatorConfig {
            server_workers: 4,
            dispatch_jitter: LatencyModel::uniform(Duration::ZERO, Duration::from_micros(500)),
            exec_time: LatencyModel::constant(Duration::from_micros(50)),
            link: LinkConfig::with_latency(LatencyModel::uniform(
                Duration::from_micros(80),
                Duration::from_micros(120),
            )),
        }
    }
}

impl CalculatorConfig {
    /// The "single thread" workaround the paper mentions: serialized
    /// handling restores a deterministic result (always 3).
    #[must_use]
    pub fn single_threaded() -> Self {
        CalculatorConfig {
            server_workers: 1,
            dispatch_jitter: LatencyModel::constant(Duration::ZERO),
            ..Default::default()
        }
    }
}

fn encode_i64(v: i64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.write_i64(v);
    w.into_bytes()
}

fn decode_i64(bytes: &[u8]) -> i64 {
    let mut r = PayloadReader::new(bytes);
    r.read_i64().expect("calculator payload")
}

/// Runs one trial; returns the value the client "prints".
#[must_use]
pub fn run_trial(seed: u64, config: &CalculatorConfig) -> i64 {
    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(config.link.clone(), sim.fork_rng("net"));
    let sd = SdRegistry::new();

    // Server SWC with the AP-default multi-threaded dispatch.
    let server = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig {
            name: "calc-server".into(),
            node: NodeId(1),
            client_id: 0x10,
            workers: config.server_workers,
            dispatch_jitter: config.dispatch_jitter.clone(),
        },
    );
    let skeleton = server.skeleton(&sim, CALC_SERVICE, CALC_INSTANCE);
    let value = Rc::new(RefCell::new(0i64));
    {
        let v = value.clone();
        skeleton.provide_method(
            METHOD_SET,
            config.exec_time.clone(),
            move |_sim, payload| {
                *v.borrow_mut() = decode_i64(&payload);
                encode_i64(*v.borrow())
            },
        );
        let v = value.clone();
        skeleton.provide_method(
            METHOD_ADD,
            config.exec_time.clone(),
            move |_sim, payload| {
                let mut v = v.borrow_mut();
                *v += decode_i64(&payload);
                encode_i64(*v)
            },
        );
        let v = value.clone();
        skeleton.provide_method(
            METHOD_GET,
            config.exec_time.clone(),
            move |_sim, _payload| encode_i64(*v.borrow()),
        );
    }
    skeleton.offer(&mut sim, Duration::from_secs(3600));

    // Client SWC issuing the three calls without awaiting the futures.
    let client = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::single_threaded("calc-client", NodeId(2), 0x20),
    );
    let proxy = client.proxy(CALC_SERVICE, CALC_INSTANCE);
    let printed = Rc::new(RefCell::new(None));
    {
        let printed = printed.clone();
        sim.schedule_at(Instant::from_millis(1), move |sim| {
            let _ = proxy.call(sim, METHOD_SET, encode_i64(1));
            let _ = proxy.call(sim, METHOD_ADD, encode_i64(2));
            let sink = printed.clone();
            proxy
                .call(sim, METHOD_GET, Vec::new())
                .then(sim, move |_sim, result| {
                    *sink.borrow_mut() = Some(decode_i64(&result.expect("get_value result")));
                });
        });
    }

    sim.run_to_completion();
    let result = printed.borrow().expect("client printed a value");
    result
}

/// Runs `trials` seeded instances and returns the histogram over the
/// printed values {0, 1, 2, 3} — the Figure 1 distribution.
#[must_use]
pub fn distribution(base_seed: u64, trials: u64, config: &CalculatorConfig) -> [u64; 4] {
    let mut histogram = [0u64; 4];
    for t in 0..trials {
        let printed = run_trial(base_seed.wrapping_add(t), config);
        let idx = usize::try_from(printed).expect("printed value in 0..=3");
        assert!(idx < 4, "printed value {printed} outside {{0,1,2,3}}");
        histogram[idx] += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_value_is_always_in_range() {
        let cfg = CalculatorConfig::default();
        for seed in 0..50 {
            let v = run_trial(seed, &cfg);
            assert!((0..=3).contains(&v), "seed {seed} printed {v}");
        }
    }

    #[test]
    fn multi_threaded_server_is_nondeterministic_across_seeds() {
        let hist = distribution(0, 200, &CalculatorConfig::default());
        let distinct = hist.iter().filter(|&&c| c > 0).count();
        assert!(
            distinct >= 3,
            "expected at least 3 distinct outcomes, histogram {hist:?}"
        );
    }

    #[test]
    fn trial_is_reproducible_per_seed() {
        let cfg = CalculatorConfig::default();
        for seed in [3, 17, 99] {
            assert_eq!(run_trial(seed, &cfg), run_trial(seed, &cfg));
        }
    }

    #[test]
    fn single_threaded_server_always_prints_three() {
        let cfg = CalculatorConfig::single_threaded();
        for seed in 0..30 {
            assert_eq!(run_trial(seed, &cfg), 3, "seed {seed}");
        }
    }
}
