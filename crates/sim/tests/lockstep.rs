//! Lockstep equivalence of next-event skipping. `run_for(1)` steps exactly
//! one cycle, so a loop of them is the reference engine: it visits every
//! cycle. A run that skips idle cycles must match it in every statistic,
//! in the clock, in the trace, and in what a crash leaves for recovery.

use morlog_sim::System;
use morlog_sim_core::config::TruncationPolicy;
use morlog_sim_core::fault::FaultPlan;
use morlog_sim_core::{Cycle, DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind};

/// A `run_for` budget no test-size workload reaches.
const UNBOUNDED: Cycle = 1 << 40;

const WORKLOADS: [WorkloadKind; 3] = [WorkloadKind::Hash, WorkloadKind::BTree, WorkloadKind::Sps];

fn system(
    cfg: SystemConfig,
    kind: WorkloadKind,
    threads: usize,
    plan: Option<FaultPlan>,
) -> System {
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.threads = threads;
    wl.total_transactions = 50 * threads;
    let trace = generate(kind, &wl);
    let mut sys = System::new(cfg, &trace);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan);
    }
    sys
}

/// Steps one cycle at a time until the workload finishes or `cycles` have
/// passed; returns whether it finished.
fn step_for(sys: &mut System, cycles: Cycle) -> bool {
    let deadline = sys.now() + cycles;
    while sys.now() < deadline {
        if sys.run_for(1) {
            return true;
        }
    }
    sys.finished()
}

/// Runs `make()` twice, stepped and skipping, for `cycles` (or to the end),
/// then crashes and recovers both. Everything observable must agree.
fn assert_lockstep(label: &str, make: impl Fn() -> System, cycles: Cycle) {
    let (mut stepped, mut skipped) = (make(), make());
    let finished = step_for(&mut stepped, cycles);
    assert_eq!(skipped.run_for(cycles), finished, "{label}: finish");
    assert_eq!(stepped.now(), skipped.now(), "{label}: clock");
    assert_eq!(stepped.stats(), skipped.stats(), "{label}: statistics");
    assert_eq!(
        stepped.persist_events(),
        skipped.persist_events(),
        "{label}: persist events"
    );
    stepped.crash();
    skipped.crash();
    let (a, b) = (stepped.recover(), skipped.recover());
    assert_eq!(a, b, "{label}: recovery report");
    assert_eq!(
        stepped.verify_recovery(&a),
        skipped.verify_recovery(&b),
        "{label}: recovery verdict"
    );
    assert_eq!(
        stepped.memory().stats(),
        skipped.memory().stats(),
        "{label}: memory statistics after recovery"
    );
    assert_eq!(
        stepped.tracer().to_jsonl(),
        skipped.tracer().to_jsonl(),
        "{label}: trace"
    );
}

#[test]
fn skipping_matches_stepping_for_every_design_and_workload() {
    for design in DesignKind::ALL {
        for kind in WORKLOADS {
            let cfg = SystemConfig::for_design(design);
            assert_lockstep(
                &format!("{design} × {kind}"),
                || system(cfg.clone(), kind, 2, None),
                UNBOUNDED,
            );
        }
    }
}

/// Eight threads on the log-heavy trace keep the write queues full, which
/// is where stalled stores and blocked write-backs are skipped.
#[test]
fn skipping_matches_stepping_under_write_queue_pressure() {
    for design in [
        DesignKind::FwbCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let cfg = SystemConfig::for_design(design);
        assert_lockstep(
            &format!("{design} × 8 threads"),
            || system(cfg.clone(), WorkloadKind::Hash, 8, None),
            UNBOUNDED,
        );
    }
}

/// Force-write-back scans every few thousand cycles put write-backs and
/// truncations inside the run, under both truncation policies.
#[test]
fn skipping_matches_stepping_with_frequent_scans_and_truncation() {
    for design in [
        DesignKind::FwbSlde,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        for truncation in [
            TruncationPolicy::ForceWriteBack,
            TruncationPolicy::TransactionTable,
        ] {
            let mut cfg = SystemConfig::for_design(design);
            cfg.hierarchy.force_write_back_period = 3_000;
            cfg.log.truncation = truncation;
            cfg.metrics.sample_cycles = 1_000;
            assert_lockstep(
                &format!("{design} {truncation:?}"),
                || system(cfg.clone(), WorkloadKind::Hash, 4, None),
                UNBOUNDED,
            );
        }
    }
}

/// Tiny caches evict constantly, so a skipped store retry that would have
/// reordered its L1 set shows up in later evictions and write-backs.
#[test]
fn skipping_matches_stepping_with_small_caches() {
    for design in [
        DesignKind::FwbSlde,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.l1.capacity_bytes = 1024;
        cfg.hierarchy.l1.ways = 4;
        cfg.hierarchy.l2.capacity_bytes = 4096;
        cfg.hierarchy.l3.capacity_bytes = 32 * 1024;
        assert_lockstep(
            &format!("{design} small caches"),
            || system(cfg.clone(), WorkloadKind::Hash, 8, None),
            UNBOUNDED,
        );
    }
}

#[test]
fn skipping_matches_stepping_under_an_active_fault_plan() {
    for design in [DesignKind::MorLogSlde, DesignKind::MorLogDp] {
        let cfg = SystemConfig::for_design(design);
        for crash in [9_000, UNBOUNDED] {
            assert_lockstep(
                &format!("{design} storm crash@{crash}"),
                || {
                    system(
                        cfg.clone(),
                        WorkloadKind::Hash,
                        4,
                        Some(FaultPlan::storm(7, 6)),
                    )
                },
                crash,
            );
        }
    }
}

#[test]
fn traced_runs_emit_byte_identical_traces() {
    for design in [
        DesignKind::FwbSlde,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.trace.enabled = true;
        for crash in [5_000, UNBOUNDED] {
            assert_lockstep(
                &format!("{design} traced crash@{crash}"),
                || system(cfg.clone(), WorkloadKind::Hash, 4, None),
                crash,
            );
        }
    }
}

#[test]
fn mid_run_crashes_recover_identically() {
    for design in DesignKind::ALL {
        for kind in WORKLOADS {
            let cfg = SystemConfig::for_design(design);
            assert_lockstep(
                &format!("{design} × {kind} crash@3001"),
                || system(cfg.clone(), kind, 2, None),
                3_001,
            );
        }
    }
}

#[test]
fn unfinished_run_for_ends_exactly_n_cycles_later() {
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let mut sys = system(cfg, WorkloadKind::Hash, 8, None);
    for n in [1, 2, 7, 100, 4096, 7_654] {
        let before = sys.now();
        assert!(!sys.run_for(n), "the workload outlasts the test");
        assert_eq!(sys.now(), before + n, "run_for({n})");
    }
}
