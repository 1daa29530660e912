//! Command line of the DEAR benchmark. Three forms:
//!
//! ```text
//! dear-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! dear-benchmark [--seed N] [--seconds S] [--trace] [--out FILE]
//! dear-benchmark compare A.json B.json
//! ```
//!
//! The first is the driver's contract: one workload, a time budget, one
//! JSON object as the last line of standard output. The second measures
//! every workload that way, three times round-robin — each time in a
//! process of its own, because every world the stack builds is leaked, so
//! a process that has run another workload is a slower machine — and
//! merges each workload's best round into one file.
//! The third compares two such files. All exit non-zero when a check
//! fails.

use dear_benchmark::compare::{compare, merge_rounds};
use dear_benchmark::report::Json;
use dear_benchmark::suite::{run, Options};
use dear_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  dear-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  dear-benchmark [--seed N] [--seconds S] [--trace] [--out FILE]
  dear-benchmark compare A.json B.json
any run: --smoke (verify-pass sizes), --results-dir DIR (default benchmark/results),
  --expect-brake-fingerprint HEX (overrides the published verify-pass fingerprint)";

/// Seconds of each workload's timed pass unless `--seconds` says otherwise
/// (what `BENCHMARK.json` asks the driver for).
const DEFAULT_SECONDS: f64 = 12.0;
/// Seconds each layer driver measures for.
const LAYER_BUDGET_S: f64 = 0.1;

struct Cli {
    options: Options,
    workload: Option<Workload>,
    seconds: f64,
    out: Option<PathBuf>,
    results_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        options: Options::default(),
        workload: None,
        seconds: DEFAULT_SECONDS,
        out: None,
        results_dir: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--seed" => {
                cli.options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--results-dir" => cli.results_dir = PathBuf::from(value("a directory")?),
            "--expect-brake-fingerprint" => {
                let hex = value("16 hex digits")?;
                cli.options.expected_brake_fingerprint = u64::from_str_radix(&hex, 16)
                    .map_err(|e| format!("--expect-brake-fingerprint: {e}"))?;
            }
            "--smoke" => cli.options.smoke = true,
            // Bare in the full-run form, `0|1` in the driver's.
            "--trace" => {
                cli.options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process: the driver's contract.
fn measure_one(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let options = cli.options.clone();
    // A traced run also measures the neighbour, traced repetitions and
    // the layer drivers, so its timed pass gets half the budget.
    let seconds = cli.seconds / if options.trace { 2.0 } else { 1.0 };
    let result = run(options, &[workload], seconds, LAYER_BUDGET_S);
    print!("{}", result.render());
    if let Some(trace) = &result.chrome_trace {
        let path = cli
            .results_dir
            .join(format!("trace-{}.json", workload.name()));
        write_file(&path, &trace.to_pretty())?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &cli.out {
        write_file(path, &result.to_json().to_pretty())?;
        println!("wrote {}", path.display());
    }
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// Rounds of a full run: every workload is measured this many times,
/// minutes apart, each time in a child process of its own.
const ROUNDS: usize = 3;

/// Every workload, [`ROUNDS`] times round-robin, each time in a child
/// process running [`measure_one`] for a share of `--seconds`. A bad
/// phase of a shared machine can slow everything in one child's window
/// (one in sixteen ran 24 % slow while this was written), which no
/// estimator inside the window can undo; it rarely returns for the same
/// workload a minute later. See [`merge_rounds`] for what is kept.
fn measure_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    // Everything but `workloads` (seed, layer drivers, …) is taken from
    // the first child: the layer drivers do not depend on the workload
    // they ran beside.
    let mut merged: Option<Vec<(String, Json)>> = None;
    let mut rounds: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    let mut all_correct = true;
    for _ in 0..ROUNDS {
        for (workload, entries) in Workload::ALL.into_iter().zip(&mut rounds) {
            let part = cli.results_dir.join(format!("{}.json", workload.name()));
            // A child that dies early must not leave an older run's file
            // to be merged in its place.
            let _ = std::fs::remove_file(&part);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &cli.options.seed.to_string()])
                .args(["--seconds", &(cli.seconds / ROUNDS as f64).to_string()])
                .args(["--trace", if cli.options.trace { "1" } else { "0" }])
                .arg("--expect-brake-fingerprint")
                .arg(format!("{:016x}", cli.options.expected_brake_fingerprint))
                .arg("--results-dir")
                .arg(&cli.results_dir)
                .arg("--out")
                .arg(&part);
            if cli.options.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let file = load(&part)?;
            let entry = file
                .get("workloads")
                .and_then(|w| w.get(workload.name()))
                .ok_or_else(|| format!("{}: no {} in it", part.display(), workload.name()))?;
            entries.push(entry.clone());
            merged.get_or_insert_with(|| file.members().to_vec());
        }
    }
    let workloads = Workload::ALL
        .into_iter()
        .zip(&rounds)
        .map(|(workload, entries)| {
            let (entry, disagreeing) = merge_rounds(entries);
            for name in disagreeing {
                eprintln!("{}: {name} differs between rounds", workload.name());
                all_correct = false;
            }
            (workload.name().to_owned(), entry)
        });
    let workloads = Json::Object(workloads.collect());
    let mut merged = Json::Object(merged.expect("there is at least one workload"));
    if let Some(slot) = merged.get_mut("workloads") {
        *slot = workloads;
    }
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| cli.results_dir.join("result.json"));
    write_file(&path, &merged.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let comparison = compare(&load(Path::new(a))?, &load(Path::new(b))?);
    print!("{}", comparison.render());
    Ok(!comparison.rejected())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        [cmd, ..] if cmd == "compare" || cmd == "--help" || cmd == "-h" => Err(USAGE.to_owned()),
        _ => parse(&args).and_then(|cli| match cli.workload {
            Some(workload) => measure_one(&cli, workload),
            None => measure_all(&cli),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
