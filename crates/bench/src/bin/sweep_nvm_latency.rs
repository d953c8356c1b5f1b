//! §VI-E NVMM-latency sensitivity: normalized throughput as the cell write
//! latency scales x1..x32.
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let txs = knobs::txs(1_200);
    let scales = [1u32, 2, 8, 32];
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("sweep_nvm_latency", runner.jobs());
    println!("§VI-E — normalized throughput vs NVMM write-latency scale ({txs} transactions)");
    print!("{:<14}", "design");
    for s in scales {
        print!(" {:>9}x", s);
    }
    println!();
    let designs = DesignKind::ALL;
    let kinds = WorkloadKind::MICRO;
    // The latency scale is captured by the tweak closure (the previous
    // environment-variable plumbing would race across sweep workers).
    let mut specs: Vec<RunSpec> = Vec::new();
    for &design in designs.iter() {
        for &scale in scales.iter() {
            for &kind in kinds.iter() {
                specs.push(
                    RunSpec::new(design, kind, txs)
                        .tweak(move |cfg| cfg.mem.write_latency_scale = scale.into()),
                );
            }
        }
    }
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    let idx = |di: usize, si: usize, ki: usize| (di * scales.len() + si) * kinds.len() + ki;
    for (di, design) in designs.iter().enumerate() {
        print!("{:<14}", design.label());
        for si in 0..scales.len() {
            let mut ratios = Vec::new();
            for ki in 0..kinds.len() {
                let r = &runs[idx(di, si, ki)].report;
                let b = &runs[idx(0, si, ki)].report;
                ratios.push(r.normalized_throughput(b));
            }
            print!(" {:>10.3}", geometric_mean(&ratios).unwrap_or(0.0));
        }
        println!();
    }
    println!("\npaper: the normalized results change by less than 1.9% across x1..x32 —");
    println!("NVMM write latency has negligible effect on MorLog's relative efficiency.");
    sink.finish();
}
