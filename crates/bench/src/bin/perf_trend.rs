//! Renders the perf-history trajectory accumulated by `perf_report`.
//!
//! ```text
//! perf_trend [history.jsonl]
//! ```
//!
//! Reads the `perf_history.jsonl` file (an explicit path argument, else
//! `MORLOG_PERF_HISTORY`, else `<MORLOG_RESULTS_DIR>/perf_history.jsonl`
//! — the file `perf_report` appends to) and prints, per design×workload
//! point, the sim-rate trajectory across recorded invocations: first and
//! latest rate, the cumulative speedup factor, and the git stamps
//! bracketing the series.
//! This is the scoreboard for ROADMAP item 1's 10× engine-speed
//! campaign — run `perf_report` before and after an optimization and
//! the factor column shows what it bought.
//!
//! Exit codes: 0 on success (including an empty history, which prints a
//! hint); 2 on a missing or malformed history file, matching the
//! strict-parsing convention.

use std::collections::BTreeMap;

use morlog_bench::json;
use morlog_bench::results::{validate, PerfHistory, Value};
use morlog_sim_core::knobs;

/// One point's trajectory: `(git, unix_ms, sim_rate_cps)` per record.
type Series = Vec<(String, u64, f64)>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args.first().cloned().unwrap_or_else(knobs::perf_history);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();
    let mut records = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line = json::parse(line)
            .and_then(|doc| validate::<PerfHistory>(&doc).map(|()| PerfHistory::from_json(&doc)));
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: {path}:{}: {e}", lineno + 1);
            std::process::exit(2);
        });
        records += 1;
        for entry in line.entries {
            let point = (line.git.clone(), line.unix_ms, entry.sim_rate_cps);
            series
                .entry((entry.design, entry.workload))
                .or_default()
                .push(point);
        }
    }

    if series.is_empty() {
        println!("perf history {path} is empty — run perf_report to record a first point");
        return;
    }
    println!("perf trend over {records} recorded run(s) in {path}");
    println!(
        "{:<14} {:<12} {:>6} {:>14} {:>14} {:>9}  git first..last",
        "design", "workload", "runs", "first Mcyc/s", "last Mcyc/s", "factor"
    );
    for ((design, workload), points) in &series {
        let (first_git, _, first_rate) = points.first().expect("non-empty series");
        let (last_git, _, last_rate) = points.last().expect("non-empty series");
        let factor = if *first_rate > 0.0 {
            format!("{:>8.2}x", last_rate / first_rate)
        } else {
            format!("{:>9}", "-")
        };
        println!(
            "{:<14} {:<12} {:>6} {:>14.2} {:>14.2} {factor}  {first_git}..{last_git}",
            design,
            workload,
            points.len(),
            first_rate / 1e6,
            last_rate / 1e6,
        );
    }
}
