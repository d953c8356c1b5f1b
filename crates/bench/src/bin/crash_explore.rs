//! Crash-point model checker gate: exhaustive persist-order exploration
//! over a tiny workload for every atomic-persistence design, plus the
//! mutation self-test that proves the checker has teeth.
//!
//! For each design [`morlog_checker::check`](fn@morlog_checker::check)
//! records the reference run's persist-event schedule, prunes crash points
//! whose persist-domain hash is unchanged, and replays every surviving
//! prefix — crash, hardened recovery, oracle verification — twice per
//! point (base + torn-drain fault variant), sharded over
//! `MORLOG_CHECK_SHARDS` workers (default `MORLOG_JOBS`). The checker
//! merges outcomes in enumeration order, so the verdict table, the
//! results JSON and every counterexample are byte-identical for any shard
//! count. This binary only picks the designs, the options and the output.
//!
//! The two sabotaged variants (drop the undo→data write-ahead fence; skip
//! the DP `ulog` winner bump) must each produce a minimized counterexample
//! whose JSONL trace lands in the shared counterexample sink as
//! `crash_explore.<design>+<mutation>.jsonl` (`MORLOG_CX_DIR`, default
//! `counterexamples/`; deduplicated by persist-domain signature and capped
//! by `MORLOG_CX_MAX`) for `trace_lint` / `trace2perfetto`. A *real*
//! design failing any crash point also writes its counterexample — and,
//! like a surviving mutant, makes the gate exit non-zero.
//!
//! Env knobs: `MORLOG_CHECK_MAX_POINTS` caps exploration (a capped run is
//! reported but is no longer an exhaustiveness proof), `MORLOG_CHECK_SHARDS`
//! sets the fan-out; both exit 2 on malformed values, as does a malformed
//! `MORLOG_CX_MAX`.

use morlog_bench::cx::{verdict, CxSink, MUTANTS};
use morlog_bench::results::{CrashCheck, ResultSink};
use morlog_checker::{check, double_store_trace, CheckOptions, CheckReport};
use morlog_sim::System;
use morlog_sim_core::{knobs, CheckMutation, DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind, WorkloadTrace};

/// Smoke transactions: small enough that the exhaustive sweep stays a
/// few seconds per design, large enough to cover log growth, coalescing
/// and truncation.
const SMOKE_TXS: usize = 16;

fn smoke_trace(cfg: &SystemConfig) -> WorkloadTrace {
    let mut wl = WorkloadConfig::test_config(System::data_base(cfg));
    wl.total_transactions = SMOKE_TXS;
    generate(WorkloadKind::Hash, &wl)
}

fn print_row(label: &str, report: &CheckReport, verdict: &str) {
    let s = &report.stats;
    println!(
        "{label:>22} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {verdict:>8}",
        s.events, s.points_total, s.pruned, s.explored, s.verified, s.failures
    );
}

fn main() {
    let shards = knobs::check_shards();
    let opts = CheckOptions {
        max_points: knobs::check_max_points(),
        fault_variant: true,
        fault_seed: 0xC0FFEE,
        ..CheckOptions::default()
    };
    let base_opts = CheckOptions {
        max_points: opts.max_points,
        ..CheckOptions::default()
    };
    let mut cx_sink = CxSink::from_env("crash_explore");
    let mut sink = ResultSink::new("crash_explore", shards);
    let mut failed = false;

    println!(
        "crash explore: hash x {SMOKE_TXS} txs, {} designs + 2 mutants, torn variant on",
        DesignKind::ATOMIC.len()
    );
    println!(
        "{:>22} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>8}",
        "design", "events", "points", "pruned", "explored", "verified", "failures", "verdict"
    );

    // Every real design on the smoke workload (torn variant on), then the
    // mutation self-test: each sabotaged variant runs the crafted
    // double-store workload and must yield a minimized counterexample.
    let cases = DesignKind::ATOMIC
        .map(|design| (design, CheckMutation::None, 0))
        .into_iter()
        .chain(MUTANTS);
    for (design, mutation, fwb_period) in cases {
        let mut cfg = SystemConfig::for_design(design);
        let mutant = mutation != CheckMutation::None;
        let (label, workload, trace, opts) = if mutant {
            cfg.hierarchy.force_write_back_period = fwb_period;
            cfg.mutation = mutation;
            let label = format!("{}+{}", design.label(), mutation.label());
            (
                label,
                "double-store",
                double_store_trace(&cfg, 6),
                &base_opts,
            )
        } else {
            let trace = smoke_trace(&cfg);
            (design.label().to_string(), "hash", trace, &opts)
        };
        let report = check(&cfg, &trace, opts, shards);
        if let Some(cx) = &report.counterexample {
            cx_sink.write_cx(&label, cx);
        }
        let passed = report.counterexample.is_some() == mutant;
        let verdict = verdict(mutant, passed);
        if !passed {
            failed = true;
            match &report.counterexample {
                Some(cx) => eprintln!("FAIL: {label}: {}", cx.error),
                None => eprintln!("FAIL: mutant {label} was not caught — the checker has no teeth"),
            }
        }
        print_row(&label, &report, verdict);
        let s = &report.stats;
        sink.push(CrashCheck {
            design: design.label().into(),
            workload: workload.into(),
            mutation: mutation.label().into(),
            events: s.events,
            points_total: s.points_total,
            pruned: s.pruned,
            capped: s.capped,
            explored: s.explored,
            verified: s.verified,
            failures: s.failures,
            passed,
        });
    }

    sink.finish();
    if failed {
        std::process::exit(1);
    }
}
