//! The paper's Figure 1 demo: a nondeterministic AP client/server
//! application, and the single-thread workaround.
//!
//! Asserts the figure's seeded distribution over 10 000 trials and that
//! the single-threaded server prints 3 on every one of 1 000 trials.
//!
//! ```sh
//! cargo run --release --example fig1_calculator
//! ```

use dear::apd::calculator::{distribution, run_trial, CalculatorConfig};
use dear::observe::ObservabilityReport;

fn distinct(histogram: &[u64; 4]) -> usize {
    histogram.iter().filter(|count| **count > 0).count()
}

fn main() {
    println!("Figure 1 client:");
    println!("    s.set_value(1);   // non-blocking");
    println!("    s.add(2);         // non-blocking");
    println!("    print(s.get_value().get());");
    println!();

    println!("ten runs against the default multi-threaded server:");
    let cfg = CalculatorConfig::default();
    for seed in 0..10 {
        println!("  run {seed}: printed {}", run_trial(seed, &cfg));
    }

    let trials = 10_000;
    let hist = distribution(0, trials, &cfg);
    println!();
    println!("distribution over {trials} seeded runs: {hist:?}");
    for (value, count) in hist.iter().enumerate() {
        println!(
            "  value {value}: {:5.1} %",
            *count as f64 * 100.0 / trials as f64
        );
    }
    assert_eq!(hist, [3143, 3461, 1598, 1798], "Figure 1 histogram drifted");

    println!();
    println!("same client against a single-threaded server (the workaround):");
    let st = CalculatorConfig::single_threaded();
    for seed in 0..5 {
        println!("  run {seed}: printed {}", run_trial(seed, &st));
    }
    let st_trials = 1_000;
    let st_hist = distribution(0, st_trials, &st);
    println!("distribution over {st_trials} seeded runs: {st_hist:?}");
    assert_eq!(
        st_hist,
        [0, 0, 0, st_trials],
        "single-threaded must print 3"
    );
    println!();
    println!("the multi-threaded server prints 0, 1, 2 or 3 depending on thread");
    println!("scheduling; the single-threaded one always prints 3 — but gives up");
    println!("the concurrency AP was chosen for. DEAR restores determinism without");
    println!("giving up concurrency (see the brake assistant examples).");
    println!();
    let mut report = ObservabilityReport::new("fig1_calculator");
    report.line("trials", trials);
    report.line("distinct_results[multi_threaded]", distinct(&hist));
    report.line("distinct_results[single_threaded]", distinct(&st_hist));
    print!("{report}");
}
