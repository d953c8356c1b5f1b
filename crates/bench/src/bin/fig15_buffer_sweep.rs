//! Fig. 15: transaction throughput and NVMM write traffic vs the undo+redo
//! buffer size, for several redo-buffer sizes (Echo benchmark).
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner, Table};
use morlog_sim::RunReport;
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
    // The first point (Redo002, 1-entry undo+redo buffer) is the baseline.
    let base = &runs[0].report;
    let table = Table::new(10, ur_sizes.map(|ur| (ur.to_string(), 8)));
    let labels = redo_sizes.map(|redo| format!("Redo{redo:0>3}"));
    for (title, metric) in [
        (
            "(a) normalized transaction throughput",
            RunReport::normalized_throughput as fn(_, _) -> _,
        ),
        (
            "(b) normalized NVMM write traffic",
            RunReport::normalized_write_traffic,
        ),
    ] {
        let rows: Vec<Vec<f64>> = runs
            .chunks(ur_sizes.len())
            .map(|row| row.iter().map(|t| metric(&t.report, base)).collect())
            .collect();
        println!("{title}");
        print!("{}", table.render("ur size", &labels, &rows, None));
        println!();
    }
    println!("paper: write traffic falls as the undo+redo buffer grows; throughput rises");
    println!("then drops (longer commit latency); 16-entry undo+redo + 32-entry redo is the");
    println!("chosen performance/hardware-cost trade-off.");
    sink.finish();
}
