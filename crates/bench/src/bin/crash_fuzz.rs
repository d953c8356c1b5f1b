//! Fuzz-scale crash checking gate: coverage-guided random crash+fault
//! campaigns plus differential cross-design verification.
//!
//! Where `crash_explore` exhaustively sweeps a 16-transaction workload,
//! this gate *samples* crash points on workloads an order of magnitude
//! larger. Each design runs a seeded campaign
//! ([`morlog_checker::fuzz`](fn@morlog_checker::fuzz)):
//! points are drawn uniformly over the persist-event schedule, paired with
//! a fault variant (none / torn drain / crash-time bit flip / stuck-at
//! wear), pruned when the persist-domain hash proves the point redundant,
//! and resampled around draws that light a novel `(event kind, progress
//! decile)` coverage bucket. The plan is built serially; execution fans
//! out over the `SweepRunner` pool with input-order reassembly, so the
//! verdict table and `results/crash_fuzz.json` are byte-identical for any
//! `MORLOG_CHECK_SHARDS` setting.
//!
//! Teeth: the two `crash_explore` sabotages (dropped undo→data fence,
//! skipped DP `ulog` bump) must be caught by the *random* mode on a
//! 500-transaction workload, and the redo-value skew — invisible to a
//! single design's oracle sweep here — must be pinned to the mutated
//! design by the differential mode, which crashes two designs at matched
//! persist-progress fractions and compares recovered program-visible
//! state. A real design failing any sampled point, or a mutant escaping,
//! makes the gate exit non-zero; minimized counterexamples land in the
//! shared sink (`MORLOG_CX_DIR`, deduplicated by persist-domain
//! signature, capped by `MORLOG_CX_MAX`).
//!
//! Env knobs: `MORLOG_FUZZ_POINTS` sets the base draws per campaign
//! (deterministic sizing, used by the CI smoke and shard-diff jobs);
//! `MORLOG_FUZZ_BUDGET_MS` adds wall-clock-budgeted extra rounds with
//! derived seeds (the nightly deep run — round *counts* are then
//! time-dependent, so the shard-diff comparison never sets it);
//! `MORLOG_CHECK_SHARDS` sets the fan-out. All three exit 2 on malformed
//! values, as does a malformed `MORLOG_CX_MAX`.

use morlog_bench::cx::{persist_signature, CxSink};
use morlog_bench::json::Json;
use morlog_bench::results::ResultSink;
use morlog_bench::SweepRunner;
use morlog_checker::differential::{assemble_diff, diff_plan, run_diff_pair};
use morlog_checker::fuzz::{assemble_fuzz, fuzz_plan, run_fuzz_item};
use morlog_checker::{
    double_store_trace, DiffCulprit, DiffReport, FuzzCounterexample, FuzzOptions,
};
use morlog_sim::System;
use morlog_sim_core::{knobs, CheckMutation, DesignKind, FuzzStats, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind, WorkloadTrace};
use std::time::Instant;

/// The designs that guarantee atomic persistence (FWB-unsafe is excluded —
/// it cannot pass a crash sweep by construction, which is its point).
const DESIGNS: [DesignKind; 5] = [
    DesignKind::FwbCrade,
    DesignKind::FwbSlde,
    DesignKind::MorLogCrade,
    DesignKind::MorLogSlde,
    DesignKind::MorLogDp,
];

/// Hash-workload transactions for the clean-design campaigns: an order of
/// magnitude past the exhaustive gate's 16, small enough that one replay
/// stays well under a second in release builds.
const DESIGN_TXS: usize = 200;

/// Per-thread transactions for the mutant campaigns (double-store trace,
/// two threads — a 500-transaction workload, as the teeth test in
/// `crates/checker/tests/fuzz_test.rs` pins).
const MUTANT_TXS_PER_THREAD: usize = 250;

/// Per-thread transactions for the differential runs. Each crash pair
/// replays *two* full schedules, so the differential workload stays small;
/// the redo-value skew corrupts every sync-commit redo record, which makes
/// divergence dense enough for a short trace to expose.
const DIFF_TXS_PER_THREAD: usize = 6;

/// Matched-fraction crash pairs per differential run.
const DIFF_PAIRS: u64 = 8;

/// Campaign count the wall-clock budget is split across (5 designs + 2
/// mutants; the differential runs are not round-based).
const CAMPAIGNS: u64 = 7;

fn design_trace(cfg: &SystemConfig) -> WorkloadTrace {
    let mut wl = WorkloadConfig::test_config(System::data_base(cfg));
    wl.total_transactions = DESIGN_TXS;
    generate(WorkloadKind::Hash, &wl)
}

/// A campaign's merged verdict across its budgeted rounds.
struct CampaignResult {
    stats: FuzzStats,
    coverage: u64,
    counterexample: Option<FuzzCounterexample>,
    /// Reference-run hash samples (identical every round) for
    /// counterexample signatures.
    samples: Vec<u64>,
    rounds: u64,
}

/// Runs one campaign: round 0 uses the base seed (the deterministic smoke
/// and shard-diff configuration), and — only when a wall-clock budget is
/// given — further rounds with derived seeds keep sampling until the
/// budget is spent or a counterexample appears. Stats merge across
/// rounds; coverage reports the best round (the map restarts per round).
fn run_campaign(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    base: &FuzzOptions,
    runner: &SweepRunner,
    budget_ms: Option<u64>,
) -> CampaignResult {
    let start = Instant::now();
    let mut result = CampaignResult {
        stats: FuzzStats::default(),
        coverage: 0,
        counterexample: None,
        samples: Vec::new(),
        rounds: 0,
    };
    loop {
        let opts = FuzzOptions {
            seed: base.seed ^ result.rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..base.clone()
        };
        let plan = fuzz_plan(cfg, trace, &opts);
        let outcomes = runner.map(&plan.items, |&item| {
            run_fuzz_item(cfg, trace, item, opts.fault_seed)
        });
        let report = assemble_fuzz(cfg, trace, &opts, &plan, outcomes);
        result.stats.merge(&report.stats);
        result.coverage = result.coverage.max(report.coverage);
        result.samples = plan.samples;
        if result.counterexample.is_none() {
            result.counterexample = report.counterexample;
        }
        result.rounds += 1;
        let more_budget = budget_ms.is_some_and(|ms| (start.elapsed().as_millis() as u64) < ms);
        if !more_budget || result.counterexample.is_some() {
            return result;
        }
    }
}

fn fuzz_record(
    design: &str,
    workload: &str,
    mutation: &str,
    r: &CampaignResult,
    passed: bool,
) -> Json {
    let s = &r.stats;
    Json::obj(vec![
        ("kind", Json::Str("crash_fuzz".into())),
        ("design", Json::Str(design.into())),
        ("workload", Json::Str(workload.into())),
        ("mutation", Json::Str(mutation.into())),
        ("events", Json::UInt(s.events)),
        ("sampled", Json::UInt(s.sampled)),
        ("novel", Json::UInt(s.novel)),
        ("pruned", Json::UInt(s.pruned)),
        ("executed", Json::UInt(s.executed)),
        ("verified", Json::UInt(s.verified)),
        ("failures", Json::UInt(s.failures)),
        ("coverage", Json::UInt(r.coverage)),
        ("passed", Json::Bool(passed)),
    ])
}

fn diff_record(
    design_a: &str,
    design_b: &str,
    workload: &str,
    report: &DiffReport,
    passed: bool,
) -> Json {
    let culprit = report
        .divergence
        .as_ref()
        .map_or("none", |d| d.culprit.label());
    Json::obj(vec![
        ("kind", Json::Str("crash_diff".into())),
        ("design_a", Json::Str(design_a.into())),
        ("design_b", Json::Str(design_b.into())),
        ("workload", Json::Str(workload.into())),
        ("checked", Json::UInt(report.checked)),
        ("divergences", Json::UInt(report.divergences)),
        ("culprit", Json::Str(culprit.into())),
        ("passed", Json::Bool(passed)),
    ])
}

fn print_row(label: &str, r: &CampaignResult, verdict: &str) {
    let s = &r.stats;
    println!(
        "{label:>22} {:>6} {:>7} {:>7} {:>6} {:>7} {:>8} {:>8} {:>5}/40 {verdict:>8}",
        r.rounds, s.events, s.sampled, s.novel, s.pruned, s.executed, s.failures, r.coverage
    );
}

/// Routes a campaign counterexample into the shared sink, keyed by the
/// persist-domain signature of its crash point. Returns whether there was
/// a counterexample at all (not whether the sink admitted it — duplicates
/// and the cap must not change the verdict).
fn sink_fuzz_cx(sink: &mut CxSink, name: &str, r: &CampaignResult) -> bool {
    let Some(cx) = &r.counterexample else {
        return false;
    };
    sink.write(
        name,
        persist_signature(&r.samples, cx.point),
        &format!(
            "point {}, variant {}, {}",
            cx.point,
            cx.variant.label(),
            cx.error
        ),
        &cx.trace_jsonl,
    );
    true
}

/// Runs one differential comparison, sharding the crash pairs over the
/// worker pool (plan and reassembly stay serial, so the outcome is
/// shard-count independent).
fn run_diff(
    cfg_a: &SystemConfig,
    cfg_b: &SystemConfig,
    trace: &WorkloadTrace,
    runner: &SweepRunner,
) -> DiffReport {
    let plan = diff_plan(cfg_a, cfg_b, trace, DIFF_PAIRS);
    let outcomes = runner.map(&plan.pairs, |&pair| {
        run_diff_pair(cfg_a, cfg_b, trace, &plan, pair)
    });
    assemble_diff(cfg_a, cfg_b, trace, outcomes)
}

/// Sinks a differential divergence, keyed by the culprit design's
/// persist-domain signature at its crash point (one extra reference run —
/// divergences are the rare path).
fn sink_diff_cx(
    sink: &mut CxSink,
    name: &str,
    culprit_cfg: &SystemConfig,
    trace: &WorkloadTrace,
    report: &DiffReport,
) -> bool {
    let Some(d) = &report.divergence else {
        return false;
    };
    let mut sys = System::new(culprit_cfg.clone(), trace);
    sys.enable_persist_hash();
    sys.run();
    let point = match d.culprit {
        DiffCulprit::DesignB => d.point_b,
        _ => d.point_a,
    };
    sink.write(
        name,
        persist_signature(sys.persist_hash_samples(), point),
        &format!(
            "pair a={} b={}, culprit {}, {}",
            d.point_a,
            d.point_b,
            d.culprit.label(),
            d.error
        ),
        &d.trace_jsonl,
    );
    true
}

fn main() {
    let runner = SweepRunner::with_jobs(knobs::check_shards());
    let points = knobs::fuzz_points();
    let budget_ms = knobs::fuzz_budget_ms();
    let per_campaign_ms = budget_ms.map(|ms| ms / CAMPAIGNS);
    let base = FuzzOptions {
        seed: 0x5EED_CAFE,
        points,
        fault_seed: 0xFA11,
        neighborhood: 2,
    };
    let mut cx_sink = CxSink::from_env();
    let mut sink = ResultSink::new("crash_fuzz", runner.jobs());
    let mut failed = false;

    println!(
        "crash fuzz: {points} base draws/campaign{}, {} designs + 2 mutants + differential",
        per_campaign_ms.map_or(String::new(), |ms| format!(" (+{ms}ms budget each)")),
        DESIGNS.len()
    );
    println!(
        "{:>22} {:>6} {:>7} {:>7} {:>6} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "design",
        "rounds",
        "events",
        "sampled",
        "novel",
        "pruned",
        "executed",
        "failures",
        "coverage",
        "verdict"
    );

    for design in DESIGNS {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.force_write_back_period = 16;
        let trace = design_trace(&cfg);
        let r = run_campaign(&cfg, &trace, &base, &runner, per_campaign_ms);
        let passed = r.stats.failures == 0;
        if !passed {
            failed = true;
            if let Some(cx) = &r.counterexample {
                eprintln!(
                    "FAIL: {} point={} variant={}: {}",
                    design.label(),
                    cx.point,
                    cx.variant.label(),
                    cx.error
                );
            }
            sink_fuzz_cx(&mut cx_sink, design.label(), &r);
        }
        print_row(design.label(), &r, if passed { "ok" } else { "FAIL" });
        sink.push(fuzz_record(design.label(), "hash", "none", &r, passed));
    }

    // Random-mode teeth: the exhaustive gate's two sabotages must also
    // fall to sampling at fuzz scale (see crates/checker/tests/fuzz_test.rs
    // for why the force-write-back periods differ).
    let mutants: [(DesignKind, CheckMutation, u64); 2] = [
        (DesignKind::MorLogSlde, CheckMutation::DropUndoFence, 16),
        (DesignKind::MorLogDp, CheckMutation::SkipUlogBump, 64),
    ];
    for (design, mutation, fwb_period) in mutants {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.force_write_back_period = fwb_period;
        cfg.mutation = mutation;
        let trace = double_store_trace(&cfg, MUTANT_TXS_PER_THREAD);
        let r = run_campaign(&cfg, &trace, &base, &runner, per_campaign_ms);
        let label = format!("{}+{}", design.label(), mutation.label());
        let caught = r.stats.failures > 0 && sink_fuzz_cx(&mut cx_sink, &label, &r);
        if !caught {
            failed = true;
            eprintln!("FAIL: mutant {label} escaped the random campaign");
        }
        print_row(&label, &r, if caught { "caught" } else { "MISSED" });
        sink.push(fuzz_record(
            design.label(),
            "double-store",
            mutation.label(),
            &r,
            caught,
        ));
    }

    // Differential teeth: the redo-value skew passes the skewed design's
    // own oracle at most sampled points but diverges from the clean twin's
    // recovered state — and must be pinned to the mutated side (culprit
    // "a"). Needs force-write-back 64 so ULog words form and sync commits
    // queue the redo records the skew corrupts.
    let mut skewed = SystemConfig::for_design(DesignKind::MorLogSlde);
    skewed.hierarchy.force_write_back_period = 64;
    skewed.mutation = CheckMutation::SkewRedoValue;
    let mut clean = SystemConfig::for_design(DesignKind::MorLogSlde);
    clean.hierarchy.force_write_back_period = 64;
    let trace = double_store_trace(&clean, DIFF_TXS_PER_THREAD);
    let report = run_diff(&skewed, &clean, &trace, &runner);
    let pinned = report.divergences > 0
        && report
            .divergence
            .as_ref()
            .is_some_and(|d| d.culprit == DiffCulprit::DesignA)
        && sink_diff_cx(
            &mut cx_sink,
            "morlog-slde+skew-redo-diff",
            &skewed,
            &trace,
            &report,
        );
    if !pinned {
        failed = true;
        eprintln!("FAIL: differential did not pin the redo-value skew to the mutated design");
    }
    println!(
        "{:>22} {:>6} pairs, {} divergences, culprit {:>4} {:>8}",
        "slde+skew vs slde",
        report.checked,
        report.divergences,
        report
            .divergence
            .as_ref()
            .map_or("none", |d| d.culprit.label()),
        if pinned { "caught" } else { "MISSED" }
    );
    sink.push(diff_record(
        "morlog-slde+skew-redo",
        "morlog-slde",
        "double-store",
        &report,
        pinned,
    ));

    // Cross-design sanity: two *correct* designs may legitimately differ
    // in interim replay sets, but must never diverge where the
    // cross-design invariant holds.
    let slde = {
        let mut cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
        cfg.hierarchy.force_write_back_period = 16;
        cfg
    };
    let dp = {
        let mut cfg = SystemConfig::for_design(DesignKind::MorLogDp);
        cfg.hierarchy.force_write_back_period = 16;
        cfg
    };
    let trace = double_store_trace(&slde, DIFF_TXS_PER_THREAD);
    let report = run_diff(&slde, &dp, &trace, &runner);
    let consistent = report.divergences == 0;
    if !consistent {
        failed = true;
        if let Some(d) = &report.divergence {
            eprintln!(
                "FAIL: morlog-slde vs morlog-dp diverged (culprit {}): {}",
                d.culprit.label(),
                d.error
            );
        }
        let culprit_is_b = report
            .divergence
            .as_ref()
            .is_some_and(|d| d.culprit == DiffCulprit::DesignB);
        let culprit_cfg = if culprit_is_b { &dp } else { &slde };
        sink_diff_cx(
            &mut cx_sink,
            "morlog-slde-vs-dp",
            culprit_cfg,
            &trace,
            &report,
        );
    }
    println!(
        "{:>22} {:>6} pairs, {} divergences, culprit {:>4} {:>8}",
        "slde vs dp",
        report.checked,
        report.divergences,
        report
            .divergence
            .as_ref()
            .map_or("none", |d| d.culprit.label()),
        if consistent { "ok" } else { "FAIL" }
    );
    sink.push(diff_record(
        "morlog-slde",
        "morlog-dp",
        "double-store",
        &report,
        consistent,
    ));

    sink.finish();
    if failed {
        std::process::exit(1);
    }
}
