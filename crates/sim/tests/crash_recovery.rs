//! Crash-injection tests (Fig. 2 semantics): at arbitrary crash points,
//! after recovery every transaction must be all-there or all-gone, with
//! the surviving set consistent with commit order.

use morlog_sim::System;
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind};

fn crash_at(design: DesignKind, kind: WorkloadKind, txs: usize, crash_cycle: u64, seed: u64) {
    let cfg = SystemConfig::for_design(design);
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = txs;
    wl.seed = seed;
    let trace = generate(kind, &wl);
    let mut sys = System::new(cfg, &trace);
    let finished = sys.run_for(crash_cycle);
    sys.crash();
    let report = sys.recover();
    sys.verify_recovery(&report).unwrap_or_else(|e| {
        panic!("{design}/{kind} crash@{crash_cycle} (finished={finished}): {e}")
    });
}

#[test]
fn fwb_crade_crashes_at_many_points() {
    for crash in [500, 2_000, 5_000, 12_000, 30_000, 80_000, 200_000] {
        crash_at(DesignKind::FwbCrade, WorkloadKind::Hash, 60, crash, 1);
    }
}

#[test]
fn morlog_slde_crashes_at_many_points() {
    for crash in [500, 2_000, 5_000, 12_000, 30_000, 80_000, 200_000] {
        crash_at(DesignKind::MorLogSlde, WorkloadKind::Hash, 60, crash, 2);
    }
}

#[test]
fn morlog_dp_crashes_at_many_points() {
    for crash in [500, 2_000, 5_000, 12_000, 30_000, 80_000, 200_000] {
        crash_at(DesignKind::MorLogDp, WorkloadKind::Hash, 60, crash, 3);
    }
}

#[test]
fn crash_sweep_across_workloads() {
    for kind in [
        WorkloadKind::BTree,
        WorkloadKind::Queue,
        WorkloadKind::Tpcc,
        WorkloadKind::Sps,
    ] {
        for design in [
            DesignKind::FwbSlde,
            DesignKind::MorLogCrade,
            DesignKind::MorLogDp,
        ] {
            for crash in [1_000, 10_000, 60_000] {
                crash_at(design, kind, 40, crash, 7);
            }
        }
    }
}

#[test]
fn dense_crash_sweep_morlog_dp_tpcc() {
    // TPCC has the most intra-transaction structure; sweep densely.
    for i in 0..40 {
        crash_at(
            DesignKind::MorLogDp,
            WorkloadKind::Tpcc,
            30,
            800 + i * 977,
            11,
        );
    }
}

#[test]
fn dense_crash_sweep_morlog_slde_rbtree() {
    for i in 0..40 {
        crash_at(
            DesignKind::MorLogSlde,
            WorkloadKind::RBTree,
            30,
            600 + i * 1033,
            13,
        );
    }
}

#[test]
fn crash_after_truncation_scans() {
    // Shrink the force-write-back period so scans and log truncation run
    // during the test; recovery must stay consistent with entries gone.
    for design in [
        DesignKind::FwbCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.force_write_back_period = 15_000;
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.total_transactions = 120;
        wl.seed = 21;
        let trace = generate(WorkloadKind::Tpcc, &wl);
        let mut sys = System::new(cfg, &trace);
        for crash in [40_000u64, 70_000, 100_000] {
            // Run in stages so several scans elapse before the crash.
            if sys.run_for(crash.saturating_sub(sys.now())) {
                break;
            }
        }
        sys.crash();
        let report = sys.recover();
        sys.verify_recovery(&report)
            .unwrap_or_else(|e| panic!("{design} with truncation: {e}"));
    }
}

#[test]
fn crash_with_tiny_caches_exercises_evictions() {
    // A tiny hierarchy forces constant L1/LLC evictions mid-transaction:
    // the hardest path for the redo-discard and write-ahead rules.
    for design in [DesignKind::MorLogSlde, DesignKind::MorLogDp] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.hierarchy.l1.capacity_bytes = 1024;
        cfg.hierarchy.l1.ways = 2;
        cfg.hierarchy.l2.capacity_bytes = 2048;
        cfg.hierarchy.l2.ways = 2;
        cfg.hierarchy.l3.capacity_bytes = 4096;
        cfg.hierarchy.l3.ways = 2;
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.total_transactions = 60;
        wl.seed = 31;
        let trace = generate(WorkloadKind::BTree, &wl);
        let mut sys = System::new(cfg, &trace);
        sys.run_for(25_000);
        sys.crash();
        let report = sys.recover();
        sys.verify_recovery(&report)
            .unwrap_or_else(|e| panic!("{design} tiny caches: {e}"));
    }
}

#[test]
fn distributed_logs_crash_recovery() {
    // §III-F distributed (per-thread) logs: commit order comes from the
    // timestamps in the commit records instead of the central ring order.
    for design in [
        DesignKind::FwbCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.mem.log_slices = 4;
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.threads = 2;
        wl.total_transactions = 60;
        wl.seed = 77;
        let trace = generate(WorkloadKind::Tpcc, &wl);
        let mut sys = System::new(cfg, &trace);
        for crash in [3_000u64, 15_000, 50_000] {
            if sys.run_for(crash.saturating_sub(sys.now())) {
                break;
            }
        }
        sys.crash();
        let report = sys.recover();
        sys.verify_recovery(&report)
            .unwrap_or_else(|e| panic!("{design} distributed logs: {e}"));
    }
}

#[test]
fn distributed_logs_complete_runs_match_centralized_effects() {
    // Same workload, centralized vs distributed logs: both must commit all
    // transactions and leave identical persistent data after a clean run.
    let mut central_cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    central_cfg.mem.log_slices = 1;
    let mut dist_cfg = central_cfg.clone();
    dist_cfg.mem.log_slices = 8;
    let mut wl = WorkloadConfig::test_config(System::data_base(&central_cfg));
    wl.threads = 2;
    wl.total_transactions = 40;
    let trace = generate(WorkloadKind::Hash, &wl);
    let a = System::new(central_cfg, &trace).run();
    let b = System::new(dist_cfg, &trace).run();
    assert_eq!(a.transactions_committed, b.transactions_committed);
    assert_eq!(a.tx_stores, b.tx_stores);
}

#[test]
fn new_profiling_workloads_survive_crashes() {
    for kind in [WorkloadKind::Vacation, WorkloadKind::Ctree] {
        for design in [DesignKind::MorLogSlde, DesignKind::MorLogDp] {
            crash_at(design, kind, 40, 20_000, 5);
            crash_at(design, kind, 40, 60_000, 5);
        }
    }
}

#[test]
fn transaction_table_truncation_is_crash_safe() {
    use morlog_sim_core::config::TruncationPolicy;
    for design in [
        DesignKind::FwbCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ] {
        let mut cfg = SystemConfig::for_design(design);
        cfg.log.truncation = TruncationPolicy::TransactionTable;
        cfg.hierarchy.force_write_back_period = 15_000; // persist data often
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.total_transactions = 120;
        wl.seed = 51;
        let trace = generate(WorkloadKind::Tpcc, &wl);
        let mut sys = System::new(cfg, &trace);
        for crash in [40_000u64, 80_000, 120_000] {
            if sys.run_for(crash.saturating_sub(sys.now())) {
                break;
            }
        }
        sys.crash();
        let report = sys.recover();
        sys.verify_recovery(&report)
            .unwrap_or_else(|e| panic!("{design} with transaction-table truncation: {e}"));
    }
}

#[test]
fn transaction_table_truncates_earlier_than_fwb_horizon() {
    use morlog_sim_core::config::TruncationPolicy;
    let mk = |policy: TruncationPolicy| {
        let mut cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
        cfg.log.truncation = policy;
        cfg.hierarchy.force_write_back_period = 10_000;
        let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
        wl.total_transactions = 150;
        let trace = generate(WorkloadKind::Queue, &wl);
        let mut sys = System::new(cfg, &trace);
        sys.run_for(120_000);
        sys.memory().log_rings()[0].used_bytes()
    };
    let fwb_used = mk(TruncationPolicy::ForceWriteBack);
    let table_used = mk(TruncationPolicy::TransactionTable);
    assert!(
        table_used <= fwb_used,
        "table truncation frees the ring at least as aggressively ({table_used} vs {fwb_used})"
    );
}

#[test]
fn cache_workloads_survive_crashes() {
    for kind in [WorkloadKind::Redis, WorkloadKind::Memcached] {
        for design in [DesignKind::MorLogSlde, DesignKind::MorLogDp] {
            crash_at(design, kind, 40, 25_000, 9);
        }
    }
}
