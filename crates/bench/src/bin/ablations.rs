//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. secure NVMM (§IV-D): SLDE under plaintext / DEUCE / full encryption;
//! 2. the redo-discard-on-LLC-eviction rule (§III-B) on vs off;
//! 3. the eager-eviction window N of the undo+redo buffer;
//! 4. the force-write-back period (§III-F);
//! 5. centralized vs distributed logs (§III-F).
//!
//! Each section is a small sweep; all parameters are captured by tweak
//! closures so the runs are self-contained under a parallel sweep.
use morlog_bench::results::ResultSink;
use morlog_bench::{RunSpec, SweepRunner, TimedRun};
use morlog_encoding::secure::SecureMode;
use morlog_sim_core::{knobs, DesignKind};
use morlog_workloads::WorkloadKind;

fn txs() -> usize {
    knobs::txs(1_500)
}

fn main() {
    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("ablations", runner.jobs());

    // FWB-SLDE on SPS: the workload whose log data are mostly clean, so the
    // word-granularity re-encryption of DEUCE (silent words keep their
    // ciphertext, silent discarding still works) separates from whole-line
    // re-encryption (everything diffuses, nothing is discardable).
    println!(
        "Ablation 1 — secure NVMM (§IV-D), FWB-SLDE on SPS ({} txs)",
        txs()
    );
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "mode", "log bits", "write energy", "silent"
    );
    let modes = [SecureMode::None, SecureMode::Deuce, SecureMode::Full];
    let specs: Vec<RunSpec> = modes
        .iter()
        .map(|&mode| RunSpec::new(DesignKind::FwbSlde, WorkloadKind::Sps, txs()).secure(mode))
        .collect();
    let runs: Vec<TimedRun> = runner.run_specs(&specs);
    sink.push_runs(&runs);
    let base_bits = runs[0].report.stats.mem.log_bits_programmed;
    for (mode, t) in modes.iter().zip(&runs) {
        let s = &t.report.stats;
        println!(
            "{:<18} {:>11.3}x {:>13.3}uJ {:>12}",
            mode.label(),
            s.mem.log_bits_programmed as f64 / base_bits as f64,
            s.mem.write_energy_pj / 1e6,
            s.log.silent_discarded
        );
    }
    println!("(paper §IV-D: with DEUCE-style schemes SLDE still avoids logging clean data)\n");

    println!("Ablation 2 — redo discard on LLC eviction (§III-B), MorLog-SLDE on Echo");
    let cases = [("discard on", true), ("discard off", false)];
    let specs: Vec<RunSpec> = cases
        .iter()
        .map(|&(_, on)| {
            RunSpec::new(DesignKind::MorLogSlde, WorkloadKind::Echo, txs()).tweak(move |c| {
                c.log.discard_redo_on_llc_evict = on;
                // A small LLC forces evictions mid-transaction, the case the
                // discard rule exists for.
                c.hierarchy.l3.capacity_bytes = 64 * 1024;
                c.hierarchy.l2.capacity_bytes = 16 * 1024;
                c.hierarchy.l1.capacity_bytes = 8 * 1024;
            })
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    for ((label, _), t) in cases.iter().zip(&runs) {
        let s = &t.report.stats;
        println!(
            "  {:<12} NVMM writes {:>8}  log entries {:>8}  cycles {:>10}",
            label, s.mem.nvmm_writes, s.log.entries_written, s.cycles
        );
    }
    println!();

    println!("Ablation 3 — eager-eviction window N (must stay < 40-cycle traversal)");
    let windows = [4u64, 8, 16, 32];
    let specs: Vec<RunSpec> = windows
        .iter()
        .map(|&n| {
            RunSpec::new(DesignKind::MorLogSlde, WorkloadKind::Tpcc, txs())
                .tweak(move |c| c.log.eager_evict_cycles = n)
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    for (n, t) in windows.iter().zip(&runs) {
        let s = &t.report.stats;
        println!(
            "  N={:<3} entries {:>8}  coalesced {:>7}  cycles {:>10}",
            n, s.log.entries_written, s.log.coalesced, s.cycles
        );
    }
    println!();

    println!("Ablation 4 — force-write-back period (§III-F)");
    let periods = [20_000u64, 60_000, 300_000];
    let specs: Vec<RunSpec> = periods
        .iter()
        .map(|&period| {
            RunSpec::new(DesignKind::MorLogSlde, WorkloadKind::Ycsb, txs())
                .tweak(move |c| c.hierarchy.force_write_back_period = period)
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    for (period, t) in periods.iter().zip(&runs) {
        let s = &t.report.stats;
        println!(
            "  period={:<9} data writes {:>8}  cycles {:>10}",
            period, s.mem.data_writes, s.cycles
        );
    }
    println!();

    println!("Ablation 5 — centralized vs distributed logs (§III-F), MorLog-DP on TPCC");
    let slice_counts = [1usize, 4, 16];
    let specs: Vec<RunSpec> = slice_counts
        .iter()
        .map(|&slices| {
            RunSpec::new(DesignKind::MorLogDp, WorkloadKind::Tpcc, txs())
                .tweak(move |c| c.mem.log_slices = slices)
        })
        .collect();
    let runs = runner.run_specs(&specs);
    sink.push_runs(&runs);
    for (slices, t) in slice_counts.iter().zip(&runs) {
        let s = &t.report.stats;
        println!(
            "  slices={:<3} cycles {:>10}  entries {:>8}  commit records {:>6}",
            slices, s.cycles, s.log.entries_written, s.log.commit_records
        );
    }
    println!("(per-thread logs localize appends; commit order rides in the timestamps)");
    sink.finish();
}
