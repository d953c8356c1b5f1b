//! Crash-point model checker gate: exhaustive persist-order exploration
//! over a tiny workload for every atomic-persistence design, plus the
//! mutation self-test that proves the checker has teeth.
//!
//! For each design the checker records the reference run's persist-event
//! schedule, prunes crash points whose persist-domain hash is unchanged,
//! and replays every surviving prefix — crash, hardened recovery, oracle
//! verification — twice per point (base + torn-drain fault variant). The
//! per-point replays are independent, so they fan out across the
//! `SweepRunner` worker pool; outcomes are merged back in enumeration
//! order, making the verdict table byte-identical for any shard count
//! (`MORLOG_CHECK_SHARDS`, default `MORLOG_JOBS`).
//!
//! The two sabotaged variants (drop the undo→data write-ahead fence; skip
//! the DP `ulog` winner bump) must each produce a minimized counterexample
//! whose JSONL trace lands in the shared counterexample sink
//! (`MORLOG_CX_DIR`, default `counterexamples/`; deduplicated by
//! persist-domain signature and capped by `MORLOG_CX_MAX`) for
//! `trace_lint` / `trace2perfetto`. A *real* design failing any crash
//! point also writes its counterexample — and, like a surviving mutant,
//! makes the gate exit non-zero.
//!
//! Env knobs: `MORLOG_CHECK_MAX_POINTS` caps exploration (a capped run is
//! reported but is no longer an exhaustiveness proof), `MORLOG_CHECK_SHARDS`
//! sets the fan-out; both exit 2 on malformed values, as does a malformed
//! `MORLOG_CX_MAX`.

use morlog_bench::cx::{persist_signature, CxSink};
use morlog_bench::json::Json;
use morlog_bench::results::ResultSink;
use morlog_bench::SweepRunner;
use morlog_checker::{
    assemble, double_store_trace, plan, run_point, torn_plan_for, CheckOptions, CheckPlan,
    CheckReport,
};
use morlog_sim::System;
use morlog_sim_core::{knobs, CheckMutation, DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind, WorkloadTrace};

/// The designs that guarantee atomic persistence (FWB-unsafe is excluded —
/// it cannot pass a crash sweep by construction, which is its point).
const DESIGNS: [DesignKind; 5] = [
    DesignKind::FwbCrade,
    DesignKind::FwbSlde,
    DesignKind::MorLogCrade,
    DesignKind::MorLogSlde,
    DesignKind::MorLogDp,
];

/// Smoke transactions: small enough that the exhaustive sweep stays a
/// few seconds per design, large enough to cover log growth, coalescing
/// and truncation.
const SMOKE_TXS: usize = 16;

fn smoke_trace(cfg: &SystemConfig) -> WorkloadTrace {
    let mut wl = WorkloadConfig::test_config(System::data_base(cfg));
    wl.total_transactions = SMOKE_TXS;
    generate(WorkloadKind::Hash, &wl)
}

/// Plans, fans the replays out over the worker pool, and merges in
/// enumeration order — the deterministic-sharding core of the gate.
fn explore(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    opts: &CheckOptions,
    runner: &SweepRunner,
) -> (CheckReport, CheckPlan) {
    let p = plan(cfg, trace, opts);
    let mut items: Vec<(u64, bool)> = Vec::with_capacity(p.points.len() * 2);
    for &n in &p.points {
        items.push((n, false));
        if opts.fault_variant {
            items.push((n, true));
        }
    }
    let outcomes = runner.map(&items, |&(n, torn)| {
        let fault = torn.then(|| torn_plan_for(opts.fault_seed, n));
        run_point(cfg, trace, n, fault)
    });
    let report = assemble(cfg, trace, opts, &p, outcomes);
    (report, p)
}

fn record(label: &str, workload: &str, mutation: &str, report: &CheckReport, passed: bool) -> Json {
    let s = &report.stats;
    Json::obj(vec![
        ("kind", Json::Str("crash_check".into())),
        ("design", Json::Str(label.into())),
        ("workload", Json::Str(workload.into())),
        ("mutation", Json::Str(mutation.into())),
        ("events", Json::UInt(s.events)),
        ("points_total", Json::UInt(s.points_total)),
        ("pruned", Json::UInt(s.pruned)),
        ("capped", Json::UInt(s.capped)),
        ("explored", Json::UInt(s.explored)),
        ("verified", Json::UInt(s.verified)),
        ("failures", Json::UInt(s.failures)),
        ("passed", Json::Bool(passed)),
    ])
}

fn print_row(label: &str, report: &CheckReport, verdict: &str) {
    let s = &report.stats;
    println!(
        "{label:>22} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {verdict:>8}",
        s.events, s.points_total, s.pruned, s.explored, s.verified, s.failures
    );
}

/// Routes a report's minimized counterexample into the shared sink,
/// keyed by the persist-domain signature of its crash point. Returns
/// whether the report had a counterexample at all (not whether the sink
/// admitted it — duplicates and the cap must not change the verdict).
fn sink_counterexample(sink: &mut CxSink, name: &str, report: &CheckReport, p: &CheckPlan) -> bool {
    let Some(cx) = &report.counterexample else {
        return false;
    };
    let signature = persist_signature(&p.samples, cx.point);
    sink.write(
        name,
        signature,
        &format!("point {}, {}", cx.point, cx.error),
        &cx.trace_jsonl,
    );
    true
}

fn main() {
    let runner = SweepRunner::with_jobs(knobs::check_shards());
    let opts = CheckOptions {
        max_points: knobs::check_max_points(),
        fault_variant: true,
        fault_seed: 0xC0FFEE,
        ..CheckOptions::default()
    };
    let mut cx_sink = CxSink::from_env();
    let mut sink = ResultSink::new("crash_explore", runner.jobs());
    let mut failed = false;

    println!(
        "crash explore: hash x {SMOKE_TXS} txs, {} designs + 2 mutants, torn variant on",
        DESIGNS.len()
    );
    println!(
        "{:>22} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>8}",
        "design", "events", "points", "pruned", "explored", "verified", "failures", "verdict"
    );

    for design in DESIGNS {
        let cfg = SystemConfig::for_design(design);
        let trace = smoke_trace(&cfg);
        let (report, p) = explore(&cfg, &trace, &opts, &runner);
        let passed = report.stats.failures == 0;
        if !passed {
            failed = true;
            if let Some(f) = report.failures.first() {
                eprintln!(
                    "FAIL: {} point={} torn={}: {}",
                    design.label(),
                    f.point,
                    f.torn_variant,
                    f.error.as_deref().unwrap_or("?")
                );
            }
            sink_counterexample(&mut cx_sink, design.label(), &report, &p);
        }
        print_row(design.label(), &report, if passed { "ok" } else { "FAIL" });
        sink.push(record(design.label(), "hash", "none", &report, passed));
    }

    // The mutation self-test: each sabotaged variant runs the crafted
    // double-store workload under the schedule that exposes it (see
    // crates/checker/tests/self_test.rs for why the periods differ) and
    // must yield a minimized counterexample.
    let mutants: [(DesignKind, CheckMutation, u64); 2] = [
        (DesignKind::MorLogSlde, CheckMutation::DropUndoFence, 16),
        (DesignKind::MorLogDp, CheckMutation::SkipUlogBump, 64),
    ];
    let base_opts = CheckOptions {
        max_points: opts.max_points,
        ..CheckOptions::default()
    };
    for (design, mutation, fwb_period) in mutants {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.force_write_back_period = fwb_period;
        cfg.mutation = mutation;
        let trace = double_store_trace(&cfg, 6);
        let (report, p) = explore(&cfg, &trace, &base_opts, &runner);
        let label = format!("{}+{}", design.label(), mutation.label());
        let caught =
            report.stats.failures > 0 && sink_counterexample(&mut cx_sink, &label, &report, &p);
        if !caught {
            failed = true;
            eprintln!("FAIL: mutant {label} was not caught — the checker has no teeth");
        }
        print_row(&label, &report, if caught { "caught" } else { "MISSED" });
        sink.push(record(
            design.label(),
            "double-store",
            mutation.label(),
            &report,
            caught,
        ));
    }

    sink.finish();
    if failed {
        std::process::exit(1);
    }
}
