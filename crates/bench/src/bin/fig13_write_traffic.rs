//! Fig. 13: NVMM write traffic on the micro-benchmarks (small dataset),
//! normalized to FWB-CRADE.
use morlog_bench::results::ResultSink;
use morlog_bench::{print_design_header, RunSpec, SweepRunner};
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig13_write_traffic", runner.jobs());
    println!("Fig. 13 — normalized NVMM write traffic, small dataset ({txs} transactions)");
    print_design_header("workload");
    let specs: Vec<RunSpec> = WorkloadKind::MICRO
        .iter()
        .flat_map(|&kind| {
            DesignKind::ALL
                .iter()
                .map(move |&design| RunSpec::new(design, kind, txs))
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); DesignKind::ALL.len()];
    for (ki, kind) in WorkloadKind::MICRO.iter().enumerate() {
        let chunk = &runs[ki * DesignKind::ALL.len()..(ki + 1) * DesignKind::ALL.len()];
        print!("{:<14}", kind.label());
        for (d, t) in chunk.iter().enumerate() {
            let v = t.report.normalized_write_traffic(&chunk[0].report);
            per_design[d].push(v);
            print!(" {:>12.3}", v);
        }
        println!();
    }
    print!("{:<14}", "Gmean");
    for series in &per_design {
        print!(" {:>12.3}", geometric_mean(series).unwrap_or(0.0));
    }
    println!("\n\npaper: MorLog-CRADE cuts NVMM writes by up to 25.6%, MorLog-SLDE by up to");
    println!("39.3% vs FWB-CRADE; delay-persistence removes a further 11.9%.");
    sink.finish();
}
