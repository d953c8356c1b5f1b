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
//! decile)` coverage bucket. The checker shards every campaign and
//! differential run over `MORLOG_CHECK_SHARDS` workers and reassembles in
//! item order, so the verdict table, `results/crash_fuzz.json` and every
//! counterexample are byte-identical for any shard count. This binary
//! only picks the cases, runs the wall-clock round loop and prints.
//!
//! Teeth: the two `crash_explore` sabotages (dropped undo→data fence,
//! skipped DP `ulog` bump) must be caught by the *random* mode on a
//! 500-transaction workload, and the redo-value skew — invisible to a
//! single design's oracle sweep here — must be pinned to the mutated
//! design by the differential mode
//! ([`morlog_checker::diff`](fn@morlog_checker::diff)), which crashes two
//! designs at matched persist-progress fractions and compares recovered
//! program-visible state. A real design failing any sampled point, or a
//! mutant escaping, makes the gate exit non-zero; minimized
//! counterexamples land in the shared sink as
//! `crash_fuzz.<name>.jsonl` (`MORLOG_CX_DIR`, deduplicated by
//! persist-domain signature, capped by `MORLOG_CX_MAX`).
//!
//! Env knobs: `MORLOG_FUZZ_POINTS` sets the base draws per campaign
//! (deterministic sizing, used by the CI smoke and shard-diff jobs);
//! `MORLOG_FUZZ_BUDGET_MS` adds wall-clock-budgeted extra rounds with
//! derived seeds (the nightly deep run — round *counts* are then
//! time-dependent, so the shard-diff comparison never sets it);
//! `MORLOG_CHECK_SHARDS` sets the fan-out. All three exit 2 on malformed
//! values, as does a malformed `MORLOG_CX_MAX`.

use morlog_bench::cx::{verdict, CxSink, MUTANTS};
use morlog_bench::results::{CrashDiff, CrashFuzz, ResultSink};
use morlog_checker::{diff, double_store_trace, fuzz, Counterexample, DiffCulprit, FuzzOptions};
use morlog_sim::System;
use morlog_sim_core::{knobs, CheckMutation, DesignKind, FuzzStats, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind, WorkloadTrace};
use std::time::Instant;

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
    counterexample: Option<Counterexample>,
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
    shards: usize,
    budget_ms: Option<u64>,
) -> CampaignResult {
    let start = Instant::now();
    let mut result = CampaignResult {
        stats: FuzzStats::default(),
        coverage: 0,
        counterexample: None,
        rounds: 0,
    };
    loop {
        let opts = FuzzOptions {
            seed: base.seed ^ result.rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..base.clone()
        };
        let report = fuzz(cfg, trace, &opts, shards);
        result.stats.merge(&report.stats);
        result.coverage = result.coverage.max(report.coverage);
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

fn print_row(label: &str, r: &CampaignResult, verdict: &str) {
    let s = &r.stats;
    println!(
        "{label:>22} {:>6} {:>7} {:>7} {:>6} {:>7} {:>8} {:>8} {:>5}/40 {verdict:>8}",
        r.rounds, s.events, s.sampled, s.novel, s.pruned, s.executed, s.failures, r.coverage
    );
}

/// `design` with force-write-back period `fwb_period` and `mutation`
/// applied.
fn gate_cfg(design: DesignKind, fwb_period: u64, mutation: CheckMutation) -> SystemConfig {
    let mut cfg = SystemConfig::for_design(design);
    cfg.hierarchy.force_write_back_period = fwb_period;
    cfg.mutation = mutation;
    cfg
}

fn main() {
    let shards = knobs::check_shards();
    let points = knobs::fuzz_points();
    let budget_ms = knobs::fuzz_budget_ms();
    let per_campaign_ms = budget_ms.map(|ms| ms / CAMPAIGNS);
    let base = FuzzOptions {
        seed: 0x5EED_CAFE,
        points,
        fault_seed: 0xFA11,
    };
    let mut cx_sink = CxSink::from_env("crash_fuzz");
    let mut sink = ResultSink::new("crash_fuzz", shards);
    let mut failed = false;

    println!(
        "crash fuzz: {points} base draws/campaign{}, {} designs + 2 mutants + differential",
        per_campaign_ms.map_or(String::new(), |ms| format!(" (+{ms}ms budget each)")),
        DesignKind::ATOMIC.len()
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

    // Every real design on the hash workload, then random-mode teeth: the
    // exhaustive gate's two sabotages must also fall to sampling at fuzz
    // scale.
    let cases = DesignKind::ATOMIC
        .map(|design| (design, CheckMutation::None, 16))
        .into_iter()
        .chain(MUTANTS);
    for (design, mutation, fwb_period) in cases {
        let cfg = gate_cfg(design, fwb_period, mutation);
        let mutant = mutation != CheckMutation::None;
        let (label, workload, trace) = if mutant {
            let label = format!("{}+{}", design.label(), mutation.label());
            let trace = double_store_trace(&cfg, MUTANT_TXS_PER_THREAD);
            (label, "double-store", trace)
        } else {
            (design.label().to_string(), "hash", design_trace(&cfg))
        };
        let r = run_campaign(&cfg, &trace, &base, shards, per_campaign_ms);
        if let Some(cx) = &r.counterexample {
            cx_sink.write_cx(&label, cx);
        }
        let passed = r.counterexample.is_some() == mutant;
        let verdict = verdict(mutant, passed);
        if !passed {
            failed = true;
            match &r.counterexample {
                Some(cx) => eprintln!("FAIL: {label}: {}", cx.error),
                None => eprintln!("FAIL: mutant {label} escaped the random campaign"),
            }
        }
        print_row(&label, &r, verdict);
        let s = &r.stats;
        sink.push(CrashFuzz {
            design: design.label().into(),
            workload: workload.into(),
            mutation: mutation.label().into(),
            events: s.events,
            sampled: s.sampled,
            novel: s.novel,
            pruned: s.pruned,
            executed: s.executed,
            verified: s.verified,
            failures: s.failures,
            coverage: r.coverage,
            passed,
        });
    }

    // Differential teeth: the redo-value skew passes the skewed design's
    // own oracle at most sampled points but diverges from the clean twin's
    // recovered state — and must be pinned to the mutated side (culprit
    // "a"). Needs force-write-back 64 so ULog words form and sync commits
    // queue the redo records the skew corrupts. Then cross-design sanity:
    // two *correct* designs may legitimately differ in interim replay
    // sets, but must never diverge where the cross-design invariant holds.
    let slde = DesignKind::MorLogSlde;
    let diff_cases = [
        (
            "slde+skew vs slde",
            ["morlog-slde+skew-redo", "morlog-slde"],
            "morlog-slde+skew-redo-diff",
            [
                gate_cfg(slde, 64, CheckMutation::SkewRedoValue),
                gate_cfg(slde, 64, CheckMutation::None),
            ],
            Some(DiffCulprit::DesignA),
        ),
        (
            "slde vs dp",
            ["morlog-slde", "morlog-dp"],
            "morlog-slde-vs-dp",
            [
                gate_cfg(slde, 16, CheckMutation::None),
                gate_cfg(DesignKind::MorLogDp, 16, CheckMutation::None),
            ],
            None,
        ),
    ];
    for (label, [name_a, name_b], cx_name, [cfg_a, cfg_b], expected) in diff_cases {
        let trace = double_store_trace(&cfg_a, DIFF_TXS_PER_THREAD);
        let report = diff(&cfg_a, &cfg_b, &trace, DIFF_PAIRS, shards);
        let culprit = report.divergence.as_ref().map(|d| d.culprit);
        if let Some(d) = &report.divergence {
            let detail = format!(
                "pair a={} b={}, culprit {}, {}",
                d.point_a,
                d.point_b,
                d.culprit.label(),
                d.error
            );
            cx_sink.write(cx_name, d.signature, &detail, &d.trace_jsonl);
        }
        // The skew must be pinned to design A; clean designs must agree.
        let passed = culprit == expected;
        let verdict = verdict(expected.is_some(), passed);
        let culprit = culprit.map_or("none", |c| c.label());
        if !passed {
            failed = true;
            eprintln!("FAIL: {label}: culprit {culprit}, expected {expected:?}");
        }
        println!(
            "{label:>22} {:>6} pairs, {} divergences, culprit {culprit:>4} {verdict:>8}",
            report.checked, report.divergences,
        );
        let culprit = report
            .divergence
            .as_ref()
            .map_or("none", |d| d.culprit.label());
        sink.push(CrashDiff {
            design_a: name_a.into(),
            design_b: name_b.into(),
            workload: "double-store".into(),
            checked: report.checked,
            divergences: report.divergences,
            culprit: culprit.into(),
            passed,
        });
    }

    sink.finish();
    if failed {
        std::process::exit(1);
    }
}
