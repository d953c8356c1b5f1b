//! Fig. 15: transaction throughput and NVMM write traffic vs the undo+redo
//! buffer size, for several redo-buffer sizes (Echo benchmark).
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn main() {
    let txs = knobs::txs(1_500);
    let ur_sizes = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let redo_sizes = [2usize, 8, 32, 128];
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("fig15_buffer_sweep", runner.jobs());
    println!("Fig. 15 — MorLog-SLDE on Echo vs log buffer sizes ({txs} transactions)");
    println!("normalized to Redo002 with a 1-entry undo+redo buffer\n");
    // Buffer sizes are captured by the tweak closures — no environment
    // round-trip, so sweep points are self-contained and can run on any
    // worker thread.
    let specs: Vec<RunSpec> = redo_sizes
        .iter()
        .flat_map(|&redo| {
            ur_sizes.iter().map(move |&ur| {
                RunSpec::new(DesignKind::MorLogSlde, WorkloadKind::Echo, txs).tweak(move |cfg| {
                    cfg.log.undo_redo_entries = ur;
                    cfg.log.redo_entries = redo;
                })
            })
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    let mut results: Vec<(usize, usize, f64, u64)> = Vec::new();
    for (i, t) in runs.iter().enumerate() {
        let redo = redo_sizes[i / ur_sizes.len()];
        let ur = ur_sizes[i % ur_sizes.len()];
        results.push((
            redo,
            ur,
            t.report.throughput(),
            t.report.stats.mem.nvmm_writes,
        ));
    }
    let (base_tput, base_writes) = {
        let r = results
            .iter()
            .find(|&&(redo, ur, _, _)| redo == 2 && ur == 1)
            .unwrap();
        (r.2, r.3)
    };
    println!("(a) normalized transaction throughput");
    print!("{:<10}", "ur size");
    for ur in ur_sizes {
        print!(" {:>8}", ur);
    }
    println!();
    for &redo in &redo_sizes {
        print!("Redo{redo:0>3}   ");
        for &ur in &ur_sizes {
            let r = results
                .iter()
                .find(|&&(rd, u, _, _)| rd == redo && u == ur)
                .unwrap();
            print!(" {:>8.3}", r.2 / base_tput);
        }
        println!();
    }
    println!("\n(b) normalized NVMM write traffic");
    print!("{:<10}", "ur size");
    for ur in ur_sizes {
        print!(" {:>8}", ur);
    }
    println!();
    for &redo in &redo_sizes {
        print!("Redo{redo:0>3}   ");
        for &ur in &ur_sizes {
            let r = results
                .iter()
                .find(|&&(rd, u, _, _)| rd == redo && u == ur)
                .unwrap();
            print!(" {:>8.3}", r.3 as f64 / base_writes as f64);
        }
        println!();
    }
    println!("\npaper: write traffic falls as the undo+redo buffer grows; throughput rises");
    println!("then drops (longer commit latency); 16-entry undo+redo + 32-entry redo is the");
    println!("chosen performance/hardware-cost trade-off.");
    sink.finish();
}
