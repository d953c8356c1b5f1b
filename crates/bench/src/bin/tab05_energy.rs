//! Table V: NVMM write-energy reduction vs FWB-CRADE (micro-benchmark
//! average, small and large datasets).
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("tab05_energy", runner.jobs());
    println!("Table V — NVMM write-energy reduction vs FWB-CRADE (micro average)");
    println!(
        "{:<8} {:>11} {:>10} {:>13} {:>12} {:>10}",
        "dataset", "FWB-Unsafe", "FWB-SLDE", "MorLog-CRADE", "MorLog-SLDE", "MorLog-DP"
    );
    for (label, large, txs) in [
        ("Small", false, knobs::txs(2_000)),
        ("Large", true, knobs::txs(400)),
    ] {
        let specs: Vec<RunSpec> = WorkloadKind::MICRO
            .iter()
            .flat_map(|&kind| {
                DesignKind::ALL.iter().map(move |&design| {
                    let spec = RunSpec::new(design, kind, txs);
                    if large {
                        spec.large()
                    } else {
                        spec
                    }
                })
            })
            .collect();
        let runs = runner.run_specs(&specs);
        sink.push_runs(&runs);
        let mut sums = vec![0.0f64; DesignKind::ALL.len()];
        for ki in 0..WorkloadKind::MICRO.len() {
            let chunk = &runs[ki * DesignKind::ALL.len()..(ki + 1) * DesignKind::ALL.len()];
            for (d, t) in chunk.iter().enumerate() {
                sums[d] += t.report.energy_reduction_pct(&chunk[0].report)
                    / WorkloadKind::MICRO.len() as f64;
            }
        }
        println!(
            "{:<8} {:>10.1}% {:>9.1}% {:>12.1}% {:>11.1}% {:>9.1}%",
            label, sums[1], sums[2], sums[3], sums[4], sums[5]
        );
    }
    println!("\npaper:   Small: 0.6% / 39.5% / 2.1% / 43.7% / 45.9%");
    println!("         Large: 1.6% / 30.3% / 4.3% / 34.6% / 36.0%");
    sink.finish();
}
