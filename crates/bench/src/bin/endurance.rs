//! Endurance view (§VI-C): hottest data line and log slot per design —
//! reducing log writes improves lifetime, and the ring levels log wear.
use morlog_bench::results::{Endurance, ResultSink, Stats};
use morlog_bench::SweepRunner;
use morlog_sim::System;
use morlog_sim_core::{knobs, DesignKind, SimStats, SystemConfig};
use morlog_workloads::{cached_generate, WorkloadConfig, WorkloadKind};

struct Row {
    design: DesignKind,
    stats: SimStats,
    max_data: u64,
    max_log: u64,
    locations: usize,
}

fn main() {
    let txs = knobs::txs(1_500);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("endurance", runner.jobs());
    println!("Endurance — max per-location program counts (Queue, {txs} txs)");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>10} {:>8}",
        "design", "max data line", "max log slot", "locations", "log writes", "growths"
    );
    // Needs `wear_summary` off the finished system, so this sweep maps the
    // raw simulation closure instead of going through `run_specs`.
    let rows = runner.map(&DesignKind::ALL, |&design| {
        let mut cfg = SystemConfig::for_design(design);
        // Frequent scans persist data (data-line wear becomes visible) and
        // a small ring forces slot reuse (log wear leveling becomes
        // visible).
        cfg.hierarchy.force_write_back_period = 20_000;
        cfg.mem.log_region_bytes = 96 * 1024;
        // Continuous (transaction-table) truncation lets the small ring
        // wrap in place, making slot reuse — and its even wear — visible.
        cfg.log.truncation = morlog_sim_core::config::TruncationPolicy::TransactionTable;
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.threads = 4;
        wl.total_transactions = txs;
        let trace = cached_generate(WorkloadKind::Queue, &wl);
        let mut sys = System::new(cfg, &trace);
        let stats = sys.run();
        let (max_data, max_log, locations) = sys.memory().wear_summary();
        Row {
            design,
            stats,
            max_data,
            max_log,
            locations,
        }
    });
    for row in &rows {
        println!(
            "{:<14} {:>14} {:>14} {:>12} {:>10} {:>8}",
            row.design.label(),
            row.max_data,
            row.max_log,
            row.locations,
            row.stats.mem.log_writes,
            row.stats.mem.log_overflow_growths
        );
        sink.push(Endurance {
            design: row.design.label().into(),
            max_data_line_programs: row.max_data,
            max_log_slot_programs: row.max_log,
            locations: row.locations as u64,
            stats: Stats::from(&row.stats),
        });
    }
    println!("\nSLDE designs issue fewer log writes for the same work, although they");
    println!("program more distinct locations; fewer writes means longer lifetime");
    println!("(§VI-C). The ring appends sequentially, so log wear is level by");
    println!("construction (max slot count stays minimal even under reuse).");
    sink.finish();
}
