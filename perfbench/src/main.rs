//! GRAFICS benchmark: one command per workload that sets the system up
//! from a seed, drives it only through the public functions of its
//! crates, checks the answers, and prints every metric by name and unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload query-wide --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (and writes a
//! span log under `.perfbench_out/`). Everything before that line is a
//! human-readable report: per-phase request counts, checks, metrics.

mod corpus;
mod harness;
mod ingest_durable;
mod layers;
mod loadgen;
mod query_wide;
mod stats;
mod train_large;

use harness::{Metric, Outcome};

/// The end-to-end metrics every workload reports, in order.
const E2E: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
    "micro_f",
    "macro_f",
    "train_s",
    "infer_p50_us",
    "absorb_p50_us",
    "recover_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<f64, String> {
        value(name)?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload query-wide|train-large|ingest-durable --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "query-wide" => query_wide::run(args.seed, args.seconds, args.trace),
        "train-large" => train_large::run(args.seed, args.seconds, args.trace),
        "ingest-durable" => ingest_durable::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = outcome.e2e.iter().map(|m| m.0).collect();
    assert_eq!(names, E2E, "every workload reports every end-to-end metric");

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} on {cores} cores",
        args.workload, args.seed, args.seconds, args.trace
    );
    for line in &outcome.report {
        println!("{line}");
    }
    for (name, ok, detail) in &outcome.checks {
        println!(
            "check {:<56} {}  ({detail})",
            name,
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    for (name, value, unit) in outcome
        .e2e
        .iter()
        .chain(&outcome.unsteady)
        .chain(&outcome.layers)
    {
        println!("metric {name:<32} {value:>16.6} {unit}");
    }
    let reported: Vec<&Metric> = if args.trace {
        outcome.layers.iter().chain(&outcome.unsteady).collect()
    } else {
        outcome.e2e.iter().collect()
    };
    let metrics = serde_json::JsonValue::Map(
        reported
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    serde_json::json!({ "value": value, "unit": unit }),
                )
            })
            .collect(),
    );
    let result = serde_json::json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result serializes")
    );
}
