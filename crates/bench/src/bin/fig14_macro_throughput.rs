//! Fig. 14: transaction throughput on the macro-benchmarks, normalized to
//! FWB-CRADE.
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, Summary, SweepRunner, Table};
use morlog_sim::RunReport;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::{DatasetSize, WorkloadKind};

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig14_macro_throughput", runner.jobs());
    println!("Fig. 14 — normalized macro-benchmark throughput ({txs} transactions)");
    let small = |kind| RunSpec::new(DesignKind::FwbCrade, kind, txs);
    let large = |kind| {
        RunSpec::new(DesignKind::FwbCrade, kind, knobs::txs(600)).dataset(DatasetSize::Large)
    };
    let rows = [
        small(WorkloadKind::Echo),
        large(WorkloadKind::Echo),
        small(WorkloadKind::Ycsb),
        large(WorkloadKind::Ycsb),
        small(WorkloadKind::Tpcc),
    ];
    let grid = runner.grid(&rows);
    sink.push_runs(grid.runs());
    print!(
        "{}",
        Table::designs().render(
            "workload",
            &rows.map(|spec| spec.label()),
            &grid.normalized(RunReport::normalized_throughput),
            Some(("Gmean", Summary::Gmean)),
        )
    );
    println!("\npaper: MorLog-CRADE outperforms FWB-CRADE by 83.8% on the macro-benchmarks;");
    println!("MorLog-SLDE adds 12.8%; MorLog-DP a further 2.1%.");
    sink.finish();
}
