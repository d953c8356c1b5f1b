//! The repository benchmark: host speed of the MorLog simulator and of the
//! embeddable `morlog-log` library, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_hash|sim_sps|log_commit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload on one thread until `s` seconds of
//! operations have been measured, checks every operation, and prints as the
//! last line of standard output one JSON object: whether every operation
//! passed its check, how many were attempted and failed, and either the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `README.md` beside this file says what each workload and metric is for.

mod alloc;
mod domain;
mod logbench;
mod report;
mod sim;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <sim_hash|sim_sps|log_commit> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, sim::DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let (seed, trace) = (args.seed, args.trace);
    let result = match args.workload.as_str() {
        "sim_hash" => Ok(sim::run(sim::SIM_HASH, seed, budget, trace)),
        "sim_sps" => Ok(sim::run(sim::SIM_SPS, seed, budget, trace)),
        "log_commit" => logbench::commit(seed, budget, trace),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if trace {
        outcome.print(report::PER_LAYER);
    } else {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
        outcome.print(report::END_TO_END);
    }
    ExitCode::SUCCESS
}
