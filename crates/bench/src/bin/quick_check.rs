//! Quick sanity harness: per-design throughput/traffic/energy on one
//! workload.
//!
//! Usage: `quick_check [transactions] [workload] [small|large]`, default
//! `2000 hash small`. The workload is any benchmark label, in any case.
//! A malformed argument exits 2, naming it, before anything runs.
use morlog_bench::results::ResultSink;
use morlog_bench::{print_commit_latency_table, print_stall_breakdown, RunSpec, SweepRunner};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::{DatasetSize, WorkloadKind};

fn workload(raw: &str) -> Result<WorkloadKind, String> {
    let found = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(raw));
    let labels = WorkloadKind::ALL.map(WorkloadKind::label).join(", ");
    found.ok_or_else(|| format!("is not a benchmark ({labels})"))
}

fn dataset(raw: &str) -> Result<DatasetSize, String> {
    match raw {
        "small" => Ok(DatasetSize::Small),
        "large" => Ok(DatasetSize::Large),
        _ => Err("must be small or large".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(3) {
        eprintln!("error: unexpected argument {extra:?} (usage: quick_check [transactions] [workload] [small|large])");
        std::process::exit(2);
    }
    let arg = |i: usize, default: &'static str| args.get(i).map_or(default, String::as_str);
    let txs = knobs::or_exit("transactions argument", arg(0, "2000"), knobs::positive);
    let kind = knobs::or_exit("workload argument", arg(1, "hash"), workload);
    let dataset = knobs::or_exit("dataset argument", arg(2, "small"), dataset);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("quick_check", runner.jobs());
    let grid = runner.grid(&[RunSpec::new(DesignKind::FwbCrade, kind, txs).dataset(dataset)]);
    let runs = grid.runs();
    sink.push_runs(runs);
    let base = &runs[0].report;
    for t in runs {
        let stats = &t.report.stats;
        println!(
            "{:14} tput {:>8.3}x writes {:>6.3}x energy {:>6.3}x | cycles {:>10} entries {:>7} redo_cr {:>6} postc {:>6} coalesced {:>6} redo_disc {:>6} commit_stall {:>9} buf_stall {:>8} [{:?} host]",
            t.report.design.label(),
            t.report.throughput() / base.throughput(),
            stats.mem.nvmm_writes as f64 / base.stats.mem.nvmm_writes as f64,
            stats.mem.write_energy_pj / base.stats.mem.write_energy_pj,
            stats.cycles,
            stats.log.entries_written,
            stats.log.redo_created,
            stats.log.post_commit_redo,
            stats.log.coalesced,
            stats.log.redo_discarded,
            stats.log.commit_stall_cycles,
            stats.log.buffer_full_stall_cycles,
            t.wall,
        );
    }
    // Cycle-attribution breakdown (printed with tracing on or off — the
    // profiler always runs, so traced and untraced stdout stay identical).
    println!();
    let reports: Vec<_> = runs.iter().map(|t| t.report.clone()).collect();
    print_stall_breakdown(&reports);
    // Commit-latency distributions: under delay-persistence the
    // "complete" columns collapse to the commit request while the
    // "persist" columns keep the record-drain time (§III-C).
    println!();
    print_commit_latency_table(&reports);
    sink.finish();
}
