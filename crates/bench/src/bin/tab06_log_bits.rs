//! Table VI: log-bit reduction vs FWB-CRADE with expansion coding disabled
//! (expansion may increase the number of bits written, so the endurance
//! study counts raw bits).
use morlog_bench::results::ResultSink;
use morlog_bench::{print_reduction_table, RunSpec, SweepRunner};
use morlog_sim::RunReport;

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("tab06_log_bits", runner.jobs());
    println!("Table VI — log-bit reduction vs FWB-CRADE, expansion coding disabled");
    print_reduction_table(
        &runner,
        &mut sink,
        RunReport::log_bit_reduction_pct,
        RunSpec::no_expansion,
    );
    println!("\npaper:   Small: 10.4% / 41.6% / 16.0% / 57.1% / 59.5%");
    println!("         Large:  4.2% / 33.7% /  9.9% / 43.5% / 45.8%");
    sink.finish();
}
