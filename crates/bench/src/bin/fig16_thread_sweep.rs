//! Fig. 16: normalized throughput vs thread count (micro-benchmark average,
//! small and large datasets).
use morlog_bench::results::ResultSink;
use morlog_bench::{print_point_sweep, RunSpec, SweepRunner};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::{DatasetSize, WorkloadKind};

fn spec_for(kind: WorkloadKind, txs: usize, threads: usize, dataset: DatasetSize) -> RunSpec {
    let spec = RunSpec::new(DesignKind::FwbCrade, kind, txs)
        .threads(threads)
        .dataset(dataset);
    if threads > 8 {
        spec.tweak(|cfg| cfg.cores.cores = 16)
    } else {
        spec
    }
}

fn main() {
    let threads_axis = [1usize, 2, 4, 8, 16];
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig16_thread_sweep", runner.jobs());
    for (label, dataset, txs) in [
        ("(a) small dataset", DatasetSize::Small, knobs::txs(1_200)),
        ("(b) large dataset", DatasetSize::Large, knobs::txs(300)),
    ] {
        println!("Fig. 16{label} — normalized throughput vs thread count ({txs} transactions)");
        let rows: Vec<RunSpec> = threads_axis
            .iter()
            .flat_map(|&t| WorkloadKind::MICRO.map(|kind| spec_for(kind, txs, t, dataset)))
            .collect();
        // Column labels carry the *effective* thread count: a request
        // beyond the core count is clamped by the simulator, and the
        // table must say what actually ran.
        let headers = rows
            .iter()
            .step_by(WorkloadKind::MICRO.len())
            .map(|spec| format!("{}T", spec.effective_threads()));
        print_point_sweep(&runner, &mut sink, &rows, headers, 9);
        println!();
    }
    println!("paper: MorLog keeps its lead as threads scale; large-dataset gains shrink");
    println!("beyond 4 threads as log entries are evicted before they can coalesce.");
    sink.finish();
}
