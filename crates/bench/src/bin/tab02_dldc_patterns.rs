//! Table II: percentage of dirty log data compressed by each DLDC pattern.
use morlog_analysis::patterns::PatternStats;
use morlog_bench::results::{DldcPatterns, ResultSink};
use morlog_bench::SweepRunner;
use morlog_encoding::dldc::DldcPattern;
use morlog_sim::System;
use morlog_sim_core::{knobs, DesignKind, SystemConfig};
use morlog_workloads::{cached_generate, WorkloadConfig, WorkloadKind};

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("tab02_dldc_patterns", runner.jobs());
    println!("Table II — DLDC data-pattern coverage of dirty log data");
    println!("(averaged over all workloads, {txs} transactions each)\n");
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
        PatternStats::profile(&trace)
    });
    let mut sums = std::collections::HashMap::new();
    let n = WorkloadKind::ALL.len() as f64;
    for (kind, s) in WorkloadKind::ALL.iter().zip(&profiles) {
        let patterns = DldcPattern::TABLE_II.iter().chain(&[DldcPattern::Raw]);
        for p in patterns.clone() {
            *sums.entry(format!("{p:?}")).or_insert(0.0) += s.fraction(*p) / n;
        }
        *sums.entry("coverage".to_string()).or_insert(0.0) += s.pattern_coverage() / n;
        sink.push(DldcPatterns {
            workload: kind.label().into(),
            transactions: txs as u64,
            patterns: patterns.map(|p| s.fraction(*p)).collect(),
            coverage: s.pattern_coverage(),
        });
    }
    let paper = [
        ("AllZero", 9.3),
        ("SignExt2PerByte", 4.5),
        ("SignExt4PerByte", 5.9),
        ("SignExt1Byte", 4.4),
        ("SignExt2Byte", 1.4),
        ("SignExt4Byte", 3.8),
        ("NibblePadded", 10.4),
        ("LsByteZero", 2.8),
    ];
    println!("{:<18} {:>9} {:>9}", "pattern", "measured", "paper");
    for (name, paper_pct) in paper {
        println!(
            "{:<18} {:>8.1}% {:>8.1}%",
            name,
            sums[name] * 100.0,
            paper_pct
        );
    }
    println!(
        "{:<18} {:>8.1}% {:>8.1}%",
        "cumulative",
        sums["coverage"] * 100.0,
        42.5
    );
    println!("{:<18} {:>8.1}%", "raw (escape)", sums["Raw"] * 100.0);
    sink.finish();
}
