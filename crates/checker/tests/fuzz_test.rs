//! Fuzz-campaign, differential, and partial-order-reduction self-tests:
//! the random mode must catch both sabotaged persist orderings on a
//! large workload, the differential mode must pin a spec-divergence
//! mutant to the design carrying it, and the reduced exhaustive mode
//! must agree with the unreduced one while doing strictly less work.

use morlog_checker::differential::diff;
use morlog_checker::{check, double_store_trace, fuzz, CheckOptions, DiffCulprit, FuzzOptions};
use morlog_sim_core::{CheckMutation, DesignKind, SystemConfig};

/// Aggressive force-write-back schedule (see `self_test.rs`): the scan
/// writes freshly dirtied lines back inside the window where their undo
/// records are still buffered, which is the ordering the dropped fence
/// sabotages.
fn smoke_cfg(design: DesignKind) -> SystemConfig {
    let mut cfg = SystemConfig::for_design(design);
    cfg.hierarchy.force_write_back_period = 16;
    cfg
}

/// The ≥500-transaction campaign workload: 2 threads × 250 transactions.
const FUZZ_TXS_PER_THREAD: usize = 250;

/// Pinned campaign budget for the mutant-catching tests. The campaign is
/// deterministic, so this seed/size pair is known to land on failing
/// points for both mutations; bump `points` before reaching for a new
/// seed if a legitimate change to the persist schedule ever dodges it.
fn campaign() -> FuzzOptions {
    FuzzOptions {
        seed: 0x5EED_CAFE,
        points: 6,
        fault_seed: 0xFA11,
    }
}

#[test]
fn random_campaign_catches_dropped_undo_fence_at_scale() {
    let mut cfg = smoke_cfg(DesignKind::MorLogSlde);
    cfg.mutation = CheckMutation::DropUndoFence;
    let trace = double_store_trace(&cfg, FUZZ_TXS_PER_THREAD);
    let report = fuzz(&cfg, &trace, &campaign(), 1);
    assert!(
        report.stats.failures > 0,
        "random campaign must catch the dropped undo→data fence \
         (sampled {}, executed {})",
        report.stats.sampled,
        report.stats.executed
    );
    let cx = report.counterexample.expect("counterexample emitted");
    assert!(!cx.error.is_empty());
    assert!(
        cx.trace_jsonl.contains("\"crash\""),
        "trace must include the crash event"
    );
}

#[test]
fn random_campaign_catches_skipped_ulog_bump_at_scale() {
    let mut cfg = smoke_cfg(DesignKind::MorLogDp);
    // ULog words need the slower scan to form; see `self_test.rs`.
    cfg.hierarchy.force_write_back_period = 64;
    cfg.mutation = CheckMutation::SkipUlogBump;
    let trace = double_store_trace(&cfg, FUZZ_TXS_PER_THREAD);
    let report = fuzz(&cfg, &trace, &campaign(), 1);
    assert!(
        report.stats.failures > 0,
        "random campaign must catch the skipped ulog bump \
         (sampled {}, executed {})",
        report.stats.sampled,
        report.stats.executed
    );
    assert!(report.counterexample.is_some());
}

#[test]
fn random_campaign_clears_real_design_and_is_deterministic() {
    let cfg = smoke_cfg(DesignKind::MorLogSlde);
    let trace = double_store_trace(&cfg, 12);
    let opts = FuzzOptions {
        points: 16,
        ..campaign()
    };
    let a = fuzz(&cfg, &trace, &opts, 1);
    assert_eq!(
        a.stats.failures,
        0,
        "real design failed under fuzzing: {:?}",
        a.failures.first()
    );
    // Campaign invariants.
    assert_eq!(a.stats.executed + a.stats.pruned, a.stats.sampled);
    assert_eq!(a.stats.verified + a.stats.failures, a.stats.executed);
    assert!(a.coverage > 0, "campaign must light coverage buckets");
    assert!(a.stats.novel > 0, "first hits must register as novel");
    // Same seed, same campaign — byte for byte.
    let b = fuzz(&cfg, &trace, &opts, 1);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.coverage, b.coverage);
}

#[test]
fn differential_pins_spec_divergence_to_the_mutated_design() {
    // The slower scan lets `ULog` words form, so the sync commit path
    // queues redo records for them — the records the skew corrupts. At
    // the aggressive period the skew has almost no surface (the line is
    // written back and its word states reset between the store pairs).
    let mut skewed = smoke_cfg(DesignKind::MorLogSlde);
    skewed.hierarchy.force_write_back_period = 64;
    skewed.mutation = CheckMutation::SkewRedoValue;
    let mut clean = smoke_cfg(DesignKind::MorLogSlde);
    clean.hierarchy.force_write_back_period = 64;
    let trace = double_store_trace(&clean, 6);
    let report = diff(&skewed, &clean, &trace, 8, 1);
    assert!(
        report.divergences > 0,
        "skewed redo values must diverge from the clean design"
    );
    let d = report.divergence.expect("minimized divergence emitted");
    assert_eq!(
        d.culprit,
        DiffCulprit::DesignA,
        "the mutated design must be tagged as the culprit: {}",
        d.error
    );
    assert!(!d.trace_jsonl.is_empty());
}

#[test]
fn differential_tolerates_legitimate_cross_design_variation() {
    // Slde vs DP accept different persist schedules and legitimately lose
    // different transaction suffixes at matched fractions; that must not
    // read as divergence.
    let a = smoke_cfg(DesignKind::MorLogSlde);
    let b = smoke_cfg(DesignKind::MorLogDp);
    let trace = double_store_trace(&a, 6);
    let report = diff(&a, &b, &trace, 8, 1);
    assert_eq!(
        report.divergences,
        0,
        "clean designs must not diverge: {:?}",
        report.divergence.map(|d| d.error)
    );
    assert_eq!(report.checked, 8);
}

#[test]
fn reduction_shrinks_exhaustive_exploration_without_changing_verdicts() {
    // 32-transaction double-store workload: the reduced exploration must
    // execute strictly fewer points and reach the same verdict.
    let cfg = smoke_cfg(DesignKind::MorLogSlde);
    let trace = double_store_trace(&cfg, 16);
    let base = check(&cfg, &trace, &CheckOptions::default(), 1);
    let reduced = check(
        &cfg,
        &trace,
        &CheckOptions {
            reduce: true,
            ..CheckOptions::default()
        },
        1,
    );
    assert!(
        reduced.stats.explored < base.stats.explored,
        "reduction must skip pinned points ({} vs {})",
        reduced.stats.explored,
        base.stats.explored
    );
    assert_eq!(reduced.stats.events, base.stats.events);
    assert_eq!(
        reduced.stats.explored + reduced.stats.pruned,
        base.stats.explored + base.stats.pruned,
        "pinned points move to the pruned counter, none vanish"
    );
    assert_eq!(base.stats.failures, 0);
    assert_eq!(reduced.stats.failures, 0);
    assert!(reduced.counterexample.is_none());
}

#[test]
fn reduction_preserves_the_minimized_counterexample() {
    // On a sabotaged design the reduced exploration may skip *later*
    // failing points (each is equivalent to its predecessor) but can
    // never skip the smallest one: a pinned point's verdict equals its
    // predecessor's, so the smallest failure is always kept.
    let mut cfg = smoke_cfg(DesignKind::MorLogSlde);
    cfg.mutation = CheckMutation::DropUndoFence;
    let trace = double_store_trace(&cfg, 6);
    let base = check(&cfg, &trace, &CheckOptions::default(), 1);
    let reduced = check(
        &cfg,
        &trace,
        &CheckOptions {
            reduce: true,
            ..CheckOptions::default()
        },
        1,
    );
    assert!(base.stats.failures > 0 && reduced.stats.failures > 0);
    let (bcx, rcx) = (
        base.counterexample.expect("base counterexample"),
        reduced.counterexample.expect("reduced counterexample"),
    );
    assert_eq!(bcx.point, rcx.point, "minimized counterexample must agree");
    assert_eq!(bcx.error, rcx.error);
}
