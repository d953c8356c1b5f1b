//! Fig. 16: normalized throughput vs thread count (micro-benchmark average,
//! small and large datasets).
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn spec_for(
    design: DesignKind,
    kind: WorkloadKind,
    txs: usize,
    threads: usize,
    large: bool,
) -> RunSpec {
    let mut spec = RunSpec::new(design, kind, txs).threads(threads);
    if large {
        spec = spec.large();
    }
    if threads > 8 {
        spec = spec.tweak(|cfg| cfg.cores.cores = 16);
    }
    spec
}

fn main() {
    let threads_axis = [1usize, 2, 4, 8, 16];
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig16_thread_sweep", runner.jobs());
    for (label, large, txs) in [
        ("(a) small dataset", false, knobs::txs(1_200)),
        ("(b) large dataset", true, knobs::txs(300)),
    ] {
        println!("Fig. 16{label} — normalized throughput vs thread count ({txs} transactions)");
        print!("{:<14}", "design");
        for &t in &threads_axis {
            // Column labels carry the *effective* thread count: a request
            // beyond the core count is clamped by the simulator, and the
            // table must say what actually ran.
            let eff = spec_for(DesignKind::FwbCrade, WorkloadKind::BTree, txs, t, large)
                .effective_threads();
            print!(" {:>8}T", eff);
        }
        println!();
        let designs = DesignKind::ALL;
        let kinds = WorkloadKind::MICRO;
        let mut specs: Vec<RunSpec> = Vec::new();
        for &design in designs.iter() {
            for &threads in &threads_axis {
                for &kind in kinds.iter() {
                    specs.push(spec_for(design, kind, txs, threads, large));
                }
            }
        }
        let runs = runner.run_specs(&specs);
        sink.push_runs(&runs);
        let idx =
            |di: usize, ti: usize, ki: usize| (di * threads_axis.len() + ti) * kinds.len() + ki;
        for (di, design) in designs.iter().enumerate() {
            print!("{:<14}", design.label());
            for ti in 0..threads_axis.len() {
                let mut ratios = Vec::new();
                for ki in 0..kinds.len() {
                    // FWB-CRADE is designs[0]: the baseline at the same
                    // thread count and workload.
                    let r = &runs[idx(di, ti, ki)].report;
                    let b = &runs[idx(0, ti, ki)].report;
                    ratios.push(r.normalized_throughput(b));
                }
                print!(" {:>9.3}", geometric_mean(&ratios).unwrap_or(0.0));
            }
            println!();
        }
        println!();
    }
    println!("paper: MorLog keeps its lead as threads scale; large-dataset gains shrink");
    println!("beyond 4 threads as log entries are evicted before they can coalesce.");
    sink.finish();
}
