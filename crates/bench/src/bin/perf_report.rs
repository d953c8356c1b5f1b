//! Host-performance report: where does the engine's wall-time go?
//!
//! ```text
//! perf_report [txs]
//! ```
//!
//! A malformed transaction count exits 2 before anything runs.
//!
//! Runs every design on the hash and btree micro-benchmarks with the
//! host profiler enabled and reports, per design×workload point: the
//! headline **sim-rate** (simulated cycles per host-second — the metric
//! the ROADMAP item-1 10× campaign is measured on), the exclusive
//! per-phase wall-time breakdown, and the allocator traffic attributed
//! per phase.
//!
//! Artifacts, all under `MORLOG_RESULTS_DIR` (default `results/`):
//!
//! - `perf_report.json` — schema-v6 `host_perf` records, one per point;
//!   deterministic counters diff exactly, timing fields are gated in CI
//!   by `bench_diff`'s ratio mode.
//! - `perf_report.folded` — flamegraph-compatible folded stacks
//!   (`design;workload;phase[;phase] ns`); render with any stock
//!   `flamegraph.pl`-style tool.
//! - `perf_history.jsonl` (override the path with `MORLOG_PERF_HISTORY`)
//!   — one summary line appended per invocation, the longitudinal
//!   trajectory `perf_trend` renders.
//!
//! The profiler is force-enabled here (this *is* the profiling binary),
//! but `MORLOG_HOSTPROF` is still parsed first so a malformed value
//! fails fast with exit code 2 like every other knob. Runs execute
//! serially on one worker so per-thread profiles map one-to-one onto
//! runs; wall-times are therefore comparable across points.

use std::io::Write as _;

use morlog_bench::results::{
    git_describe, HostPerf, PerfHistory, PerfHistoryEntry, ResultSink, Value,
};
use morlog_bench::{RunSpec, SweepRunner, TimedRun};
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    // Strict-parse the env gate first (exit 2 on malformed), then force
    // profiling on regardless of its answer.
    let _ = hostprof::enabled();
    hostprof::force_enable();

    let txs = match std::env::args().nth(1) {
        Some(raw) => knobs::or_exit("transactions argument", &raw, knobs::positive),
        None => knobs::txs(1000),
    };

    // One worker: each run's thread-local profile then covers exactly
    // that run, and wall-times are not perturbed by sibling runs.
    let runner = SweepRunner::with_jobs(1);
    let mut sink = ResultSink::new("perf_report", runner.jobs());

    let rows = [WorkloadKind::Hash, WorkloadKind::BTree];
    let grid = runner.grid(&rows.map(|kind| RunSpec::new(DesignKind::FwbCrade, kind, txs)));
    let runs = grid.runs();

    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "design", "workload", "sim Mcycles", "Mcyc/s", "allocs", "alloc MB", "top phase"
    );
    let mut folded = Vec::new();
    for run in runs {
        print_row(run);
        let prefix = format!("{};{}", run.spec.design.label(), run.report.workload);
        folded.extend(run.host.folded_lines(&prefix));
        sink.push(HostPerf::from(run));
    }

    write_folded(&folded);
    append_history(runs);
    sink.finish();
}

fn print_row(run: &TimedRun) {
    let phase_ns = run.host.phase_ns();
    let top = HostPhase::ALL
        .iter()
        .max_by_key(|&&p| phase_ns[p as usize])
        .copied()
        .filter(|&p| phase_ns[p as usize] > 0);
    println!(
        "{:<14} {:<12} {:>12.2} {:>12.2} {:>8} {:>10.2} {:>10}",
        run.spec.design.label(),
        run.report.workload,
        run.report.stats.cycles as f64 / 1e6,
        run.sim_rate_cps() / 1e6,
        run.host.alloc_count_total(),
        run.host.alloc_bytes_total() as f64 / (1024.0 * 1024.0),
        top.map(|p| p.label()).unwrap_or("-"),
    );
}

fn write_folded(lines: &[String]) {
    let dir = knobs::results_dir();
    let path = std::path::Path::new(&dir).join("perf_report.folded");
    let mut text = lines.join("\n");
    text.push('\n');
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!(
            "flamegraph: wrote {} ({} stacks)",
            path.display(),
            lines.len()
        );
    }
}

/// Appends one summary line for this invocation to the perf-history
/// JSONL trajectory: the git stamp, a wall-clock timestamp, and one
/// entry per design×workload point with its headline numbers.
fn append_history(runs: &[TimedRun]) {
    let path = knobs::perf_history();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let line = PerfHistory {
        git: git_describe(),
        unix_ms,
        entries: runs
            .iter()
            .map(|run| PerfHistoryEntry {
                design: run.spec.design.label().into(),
                workload: run.report.workload.clone(),
                sim_cycles: run.report.stats.cycles,
                wall_ms: run.wall.as_secs_f64() * 1e3,
                sim_rate_cps: run.sim_rate_cps(),
                alloc_bytes: run.host.alloc_bytes_total(),
            })
            .collect(),
    };
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", line.json().to_json()));
    match appended {
        Err(e) => eprintln!("warning: could not append to {path}: {e}"),
        Ok(()) => eprintln!("perf history: appended to {path}"),
    }
}
