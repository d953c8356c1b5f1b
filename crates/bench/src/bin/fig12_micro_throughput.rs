//! Fig. 12: transaction throughput on the micro-benchmarks, normalized to
//! FWB-CRADE, for the small (a) and large (b) dataset sizes.
use morlog_bench::results::ResultSink;
use morlog_bench::{print_design_header, print_normalized_rows, RunSpec, SweepRunner};
use morlog_sim::RunReport;
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig12_micro_throughput", runner.jobs());
    for (label, large, txs) in [
        ("(a) small dataset (64 B)", false, knobs::txs(2_000)),
        ("(b) large dataset (4 KB)", true, knobs::txs(400)),
    ] {
        println!("Fig. 12{label} — normalized transaction throughput ({txs} transactions)");
        print_design_header("workload");
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
        let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); DesignKind::ALL.len()];
        for (ki, kind) in WorkloadKind::MICRO.iter().enumerate() {
            let chunk = &runs[ki * DesignKind::ALL.len()..(ki + 1) * DesignKind::ALL.len()];
            let reports: Vec<RunReport> = chunk.iter().map(|t| t.report.clone()).collect();
            print_normalized_rows(kind.label(), &reports);
            for (d, r) in reports.iter().enumerate() {
                per_design[d].push(r.normalized_throughput(&reports[0]));
            }
        }
        print!("{:<14}", "Gmean");
        for series in &per_design {
            print!(" {:>12.3}", geometric_mean(series).unwrap_or(0.0));
        }
        println!("\n");
    }
    println!("paper: MorLog-SLDE outperforms MorLog-CRADE by 44.7% (small) / 63.4% (large);");
    println!("MorLog-DP adds up to 13.3%; overall MorLog improves on FWB-CRADE by 72.5%.");
    sink.finish();
}
