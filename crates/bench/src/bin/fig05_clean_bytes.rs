//! Fig. 5: percentage of clean bytes among the data updated by transactions.
use morlog_analysis::clean_bytes::CleanByteStats;
use morlog_bench::results::{CleanBytes, ResultSink};
use morlog_bench::SweepRunner;
use morlog_sim::System;
use morlog_sim_core::{knobs, DesignKind, SystemConfig};
use morlog_workloads::{cached_generate, WorkloadConfig, WorkloadKind};

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig05_clean_bytes", runner.jobs());
    println!("Fig. 5 — clean bytes among updated data ({txs} transactions per workload)");
    println!(
        "{:<10} {:>12} {:>14}",
        "workload", "clean bytes", "silent stores"
    );
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let data_base = System::data_base(&cfg);
    let profiles = runner.map(&WorkloadKind::ALL, |&kind| {
        let wl = WorkloadConfig {
            threads: kind.default_threads(),
            total_transactions: txs,
            dataset: morlog_workloads::DatasetSize::Small,
            seed: 42,
            data_base,
        };
        let trace = cached_generate(kind, &wl);
        CleanByteStats::profile(&trace)
    });
    let mut fractions = Vec::new();
    for (kind, s) in WorkloadKind::ALL.iter().zip(&profiles) {
        fractions.push(s.clean_fraction());
        println!(
            "{:<10} {:>11.1}% {:>13.1}%",
            kind.label(),
            s.clean_fraction() * 100.0,
            s.silent_fraction() * 100.0
        );
        sink.push(CleanBytes {
            workload: kind.label().into(),
            transactions: txs as u64,
            clean_fraction: s.clean_fraction(),
            silent_fraction: s.silent_fraction(),
        });
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!("{:<10} {:>11.1}%", "average", avg * 100.0);
    println!("\npaper: 70.5% of bytes among the data updated by transactions are clean.");
    sink.finish();
}
