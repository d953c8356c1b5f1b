//! Mutation self-test: the checker must flag deliberately broken designs
//! and clear every real one. This is the subsystem's teeth — a checker
//! that passes sabotaged persist orderings proves nothing.

use morlog_checker::{check, double_store_trace, CheckOptions};
use morlog_sim_core::{CheckMutation, DesignKind, SystemConfig};

/// Smoke configuration: force-write-back scans every 16 cycles. The scan
/// is two-phase (flag, then write back one period later), so a freshly
/// dirtied line reaches NVMM 17–32 cycles after its first store — inside
/// the 32-cycle window where its undo record is still buffered (eager
/// eviction persists it at age 32). That is exactly the undo→data
/// ordering window the dropped fence sabotages; with a slower scan the
/// write-back always trails the undo persist and the mutation would be
/// unobservable. Real designs must pass even under this aggressive
/// schedule.
fn smoke_cfg(design: DesignKind) -> SystemConfig {
    let mut cfg = SystemConfig::for_design(design);
    cfg.hierarchy.force_write_back_period = 16;
    cfg
}

#[test]
fn real_synchronous_design_passes_exhaustively() {
    let cfg = smoke_cfg(DesignKind::MorLogSlde);
    let trace = double_store_trace(&cfg, 6);
    let report = check(&cfg, &trace, &CheckOptions::default(), 1);
    assert!(report.stats.explored > 0);
    assert_eq!(report.stats.capped, 0, "smoke run must be exhaustive");
    assert_eq!(
        report.stats.failures,
        0,
        "real design failed: {:?}",
        report.failures.first()
    );
    assert!(report.counterexample.is_none());
}

#[test]
fn real_dp_design_passes_exhaustively() {
    let cfg = smoke_cfg(DesignKind::MorLogDp);
    let trace = double_store_trace(&cfg, 6);
    let report = check(&cfg, &trace, &CheckOptions::default(), 1);
    assert_eq!(
        report.stats.failures,
        0,
        "real DP design failed: {:?}",
        report.failures.first()
    );
}

#[test]
fn torn_drain_variant_composes_with_hardened_recovery() {
    let cfg = smoke_cfg(DesignKind::MorLogSlde);
    let trace = double_store_trace(&cfg, 4);
    let opts = CheckOptions {
        fault_variant: true,
        fault_seed: 0xC0FFEE,
        ..CheckOptions::default()
    };
    let report = check(&cfg, &trace, &opts, 1);
    // Every point ran twice: base + torn-drain variant.
    assert_eq!(report.stats.explored % 2, 0);
    assert_eq!(
        report.stats.failures,
        0,
        "hardened recovery must absorb a torn drain at every boundary: {:?}",
        report.failures.first()
    );
}

#[test]
fn drop_undo_fence_mutation_yields_minimized_counterexample() {
    let mut cfg = smoke_cfg(DesignKind::MorLogSlde);
    cfg.mutation = CheckMutation::DropUndoFence;
    let trace = double_store_trace(&cfg, 6);
    let report = check(&cfg, &trace, &CheckOptions::default(), 1);
    assert!(
        report.stats.failures > 0,
        "dropping the undo→data fence must be caught"
    );
    let cx = report.counterexample.expect("counterexample emitted");
    assert!(
        report.failures.iter().all(|f| f.point >= cx.point),
        "counterexample must be the smallest failing prefix"
    );
    assert!(!cx.error.is_empty());
    assert!(
        cx.trace_jsonl.contains("\"crash\""),
        "trace must include the crash event"
    );
    assert!(
        cx.trace_jsonl.contains("\"recovery\""),
        "trace must include recovery steps"
    );
}

#[test]
fn skip_ulog_bump_mutation_yields_minimized_counterexample() {
    let mut cfg = smoke_cfg(DesignKind::MorLogDp);
    // This mutation needs `ULog` words to form: the second store to a word
    // must land while the first store's record is persisted but the line is
    // still dirty in cache. The 16-cycle scan writes the line back between
    // the store pairs and resets the word state, so use the slower period
    // here; the dropped-fence test covers the fast-scan schedule.
    cfg.hierarchy.force_write_back_period = 64;
    cfg.mutation = CheckMutation::SkipUlogBump;
    let trace = double_store_trace(&cfg, 6);
    let report = check(&cfg, &trace, &CheckOptions::default(), 1);
    assert!(
        report.stats.failures > 0,
        "skipping the DP ulog bump must be caught"
    );
    let cx = report.counterexample.expect("counterexample emitted");
    assert!(report.failures.iter().all(|f| f.point >= cx.point));
    assert!(cx.trace_jsonl.contains("\"crash\""));
}

#[test]
fn reports_are_deterministic() {
    let cfg = smoke_cfg(DesignKind::MorLogDp);
    let trace = double_store_trace(&cfg, 3);
    let opts = CheckOptions {
        fault_variant: true,
        fault_seed: 7,
        ..CheckOptions::default()
    };
    let a = check(&cfg, &trace, &opts, 1);
    let b = check(&cfg, &trace, &opts, 1);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.failures, b.failures);
}
