//! Table V: NVMM write-energy reduction vs FWB-CRADE (micro-benchmark
//! average, small and large datasets).
use morlog_bench::results::ResultSink;
use morlog_bench::{print_reduction_table, SweepRunner};
use morlog_sim::RunReport;

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("tab05_energy", runner.jobs());
    println!("Table V — NVMM write-energy reduction vs FWB-CRADE (micro average)");
    print_reduction_table(
        &runner,
        &mut sink,
        RunReport::energy_reduction_pct,
        |spec| spec,
    );
    println!("\npaper:   Small: 0.6% / 39.5% / 2.1% / 43.7% / 45.9%");
    println!("         Large: 1.6% / 30.3% / 4.3% / 34.6% / 36.0%");
    sink.finish();
}
