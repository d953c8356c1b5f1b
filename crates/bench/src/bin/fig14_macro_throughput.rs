//! Fig. 14: transaction throughput on the macro-benchmarks, normalized to
//! FWB-CRADE.
use morlog_bench::results::ResultSink;
use morlog_bench::{print_design_header, print_normalized_rows, RunSpec, SweepRunner};
use morlog_sim::RunReport;
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::{DatasetSize, WorkloadKind};

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig14_macro_throughput", runner.jobs());
    println!("Fig. 14 — normalized macro-benchmark throughput ({txs} transactions)");
    print_design_header("workload");
    let cases: [(WorkloadKind, DatasetSize); 5] = [
        (WorkloadKind::Echo, DatasetSize::Small),
        (WorkloadKind::Echo, DatasetSize::Large),
        (WorkloadKind::Ycsb, DatasetSize::Small),
        (WorkloadKind::Ycsb, DatasetSize::Large),
        (WorkloadKind::Tpcc, DatasetSize::Small),
    ];
    let specs: Vec<RunSpec> = cases
        .iter()
        .flat_map(|&(kind, dataset)| {
            DesignKind::ALL.iter().map(move |&design| {
                let mut spec = RunSpec::new(design, kind, txs);
                if dataset == DatasetSize::Large {
                    spec = spec.large();
                    spec.transactions = knobs::txs(600);
                }
                spec
            })
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); DesignKind::ALL.len()];
    for (ci, _) in cases.iter().enumerate() {
        let chunk = &runs[ci * DesignKind::ALL.len()..(ci + 1) * DesignKind::ALL.len()];
        let reports: Vec<RunReport> = chunk.iter().map(|t| t.report.clone()).collect();
        print_normalized_rows(&chunk[0].spec.label(), &reports);
        for (d, r) in reports.iter().enumerate() {
            per_design[d].push(r.normalized_throughput(&reports[0]));
        }
    }
    print!("{:<14}", "Gmean");
    for series in &per_design {
        print!(" {:>12.3}", geometric_mean(series).unwrap_or(0.0));
    }
    println!("\n\npaper: MorLog-CRADE outperforms FWB-CRADE by 83.8% on the macro-benchmarks;");
    println!("MorLog-SLDE adds 12.8%; MorLog-DP a further 2.1%.");
    sink.finish();
}
