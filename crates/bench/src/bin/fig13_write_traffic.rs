//! Fig. 13: NVMM write traffic on the micro-benchmarks (small dataset),
//! normalized to FWB-CRADE.
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, Summary, SweepRunner, Table};
use morlog_sim::RunReport;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let txs = knobs::txs(2_000);
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig13_write_traffic", runner.jobs());
    println!("Fig. 13 — normalized NVMM write traffic, small dataset ({txs} transactions)");
    let rows = WorkloadKind::MICRO.map(|kind| RunSpec::new(DesignKind::FwbCrade, kind, txs));
    let grid = runner.grid(&rows);
    sink.push_runs(grid.runs());
    print!(
        "{}",
        Table::designs().render(
            "workload",
            &WorkloadKind::MICRO.map(WorkloadKind::label),
            &grid.normalized(RunReport::normalized_write_traffic),
            Some(("Gmean", Summary::Gmean)),
        )
    );
    println!("\npaper: MorLog-CRADE cuts NVMM writes by up to 25.6%, MorLog-SLDE by up to");
    println!("39.3% vs FWB-CRADE; delay-persistence removes a further 11.9%.");
    sink.finish();
}
