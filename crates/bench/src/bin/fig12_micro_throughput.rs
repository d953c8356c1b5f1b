//! Fig. 12: transaction throughput on the micro-benchmarks, normalized to
//! FWB-CRADE, for the small (a) and large (b) dataset sizes.
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, Summary, SweepRunner, Table};
use morlog_sim::RunReport;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::{DatasetSize, WorkloadKind};

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig12_micro_throughput", runner.jobs());
    for (label, dataset, txs) in [
        (
            "(a) small dataset (64 B)",
            DatasetSize::Small,
            knobs::txs(2_000),
        ),
        (
            "(b) large dataset (4 KB)",
            DatasetSize::Large,
            knobs::txs(400),
        ),
    ] {
        println!("Fig. 12{label} — normalized transaction throughput ({txs} transactions)");
        let rows: Vec<RunSpec> = WorkloadKind::MICRO
            .iter()
            .map(|&kind| RunSpec::new(DesignKind::FwbCrade, kind, txs).dataset(dataset))
            .collect();
        let grid = runner.grid(&rows);
        sink.push_runs(grid.runs());
        print!(
            "{}",
            Table::designs().render(
                "workload",
                &WorkloadKind::MICRO.map(WorkloadKind::label),
                &grid.normalized(RunReport::normalized_throughput),
                Some(("Gmean", Summary::Gmean)),
            )
        );
        println!();
    }
    println!("paper: MorLog-SLDE outperforms MorLog-CRADE by 44.7% (small) / 63.4% (large);");
    println!("MorLog-DP adds up to 13.3%; overall MorLog improves on FWB-CRADE by 72.5%.");
    sink.finish();
}
