//! Fig. 3: distribution of write distance for writes in transactions.
use morlog_analysis::write_distance::{DistanceBucket, WriteDistanceHistogram};
use morlog_bench::results::{ResultSink, WriteDistance};
use morlog_bench::SweepRunner;
use morlog_sim::System;
use morlog_sim_core::{knobs, DesignKind, SystemConfig};
use morlog_workloads::{cached_generate, WorkloadConfig, WorkloadKind};

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig03_write_distance", runner.jobs());
    println!("Fig. 3 — write-distance distribution ({txs} transactions per workload)");
    print!("{:<10}", "workload");
    for b in DistanceBucket::ALL {
        print!(" {:>11}", b.label());
    }
    println!(" {:>8} {:>8}", ">31(nf)", "repeat");
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let data_base = System::data_base(&cfg);
    let histograms = runner.map(&WorkloadKind::ALL, |&kind| {
        let wl = WorkloadConfig {
            threads: kind.default_threads(),
            total_transactions: txs,
            dataset: morlog_workloads::DatasetSize::Small,
            seed: 42,
            data_base,
        };
        let trace = cached_generate(kind, &wl);
        WriteDistanceHistogram::profile(&trace)
    });
    for (kind, h) in WorkloadKind::ALL.iter().zip(&histograms) {
        print!("{:<10}", kind.label());
        for b in DistanceBucket::ALL {
            print!(" {:>10.1}%", h.fraction(b) * 100.0);
        }
        println!(
            " {:>7.1}% {:>7.1}%",
            h.fraction_beyond_31() * 100.0,
            h.fraction_repeat() * 100.0
        );
        sink.push(WriteDistance {
            workload: kind.label().into(),
            transactions: txs as u64,
            buckets: DistanceBucket::ALL.iter().map(|&b| h.fraction(b)).collect(),
            beyond_31_fraction: h.fraction_beyond_31(),
            repeat_fraction: h.fraction_repeat(),
        });
    }
    println!("\npaper: 44.8% of non-first writes have distance > 31; 83.1% of data");
    println!("are updated more than once in a transaction (WHISPER apps under PIN).");
    sink.finish();
}
