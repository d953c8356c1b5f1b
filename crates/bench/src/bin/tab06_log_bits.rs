//! Table VI: log-bit reduction vs FWB-CRADE with expansion coding disabled
//! (expansion may increase the number of bits written, so the endurance
//! study counts raw bits).
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("tab06_log_bits", runner.jobs());
    println!("Table VI — log-bit reduction vs FWB-CRADE, expansion coding disabled");
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
                    let spec = RunSpec::new(design, kind, txs).no_expansion();
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
                sums[d] += t.report.log_bit_reduction_pct(&chunk[0].report)
                    / WorkloadKind::MICRO.len() as f64;
            }
        }
        println!(
            "{:<8} {:>10.1}% {:>9.1}% {:>12.1}% {:>11.1}% {:>9.1}%",
            label, sums[1], sums[2], sums[3], sums[4], sums[5]
        );
    }
    println!("\npaper:   Small: 10.4% / 41.6% / 16.0% / 57.1% / 59.5%");
    println!("         Large:  4.2% / 33.7% /  9.9% / 43.5% / 45.8%");
    sink.finish();
}
