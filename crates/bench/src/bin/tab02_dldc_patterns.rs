//! Table II: percentage of dirty log data compressed by each DLDC pattern.
use morlog_analysis::patterns::PatternStats;
use morlog_bench::json::Json;
use morlog_bench::results::ResultSink;
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
        let mut record_fields = vec![
            ("kind", Json::Str("dldc_patterns".into())),
            ("workload", Json::Str(kind.label().into())),
            ("transactions", Json::UInt(txs as u64)),
        ];
        let mut pattern_fields = Vec::new();
        for p in DldcPattern::TABLE_II
            .iter()
            .chain([DldcPattern::Raw].iter())
        {
            *sums.entry(format!("{p:?}")).or_insert(0.0) += s.fraction(*p) / n;
            pattern_fields.push((format!("{p:?}"), Json::Num(s.fraction(*p))));
        }
        *sums.entry("coverage".to_string()).or_insert(0.0) += s.pattern_coverage() / n;
        record_fields.push(("patterns", Json::Obj(pattern_fields)));
        record_fields.push(("coverage", Json::Num(s.pattern_coverage())));
        sink.push(Json::obj(record_fields));
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
