//! Double-crash tests: power fails again in the middle of recovery's
//! replay, and a second (complete) recovery pass must still converge to
//! a verifiable state. Recovery writes absolute values from log records
//! and only truncates the ring after a full pass, so an interrupted pass
//! is idempotent — re-running it from scratch revisits every record.

use morlog_log::LogError;
use morlog_sim::System;
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind};

/// Crashes `design` mid-run, interrupts the first recovery pass after
/// `budget` replay writes, then recovers fully and verifies.
fn crash_recover_crash_recover(design: DesignKind, crash_cycle: u64, budget: usize) {
    let cfg = SystemConfig::for_design(design);
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = 40;
    wl.seed = 11;
    let trace = generate(WorkloadKind::Hash, &wl);
    let mut sys = System::new(cfg, &trace);
    sys.run_for(crash_cycle);
    sys.crash();
    let report = sys.recover_interrupted(budget).unwrap_or_else(|e| {
        assert_eq!(e, LogError::PowerLoss);
        // The second power loss wipes volatile state again; the log ring
        // survived the aborted pass.
        sys.crash();
        sys.recover()
    });
    sys.verify_recovery(&report).unwrap_or_else(|e| {
        panic!("{design} crash@{crash_cycle} + recovery crash after {budget} writes: {e}")
    });
}

#[test]
fn morlog_slde_survives_a_crash_during_recovery() {
    for crash in [2_000, 12_000, 60_000] {
        for budget in [0, 1, 3, 9, 40] {
            crash_recover_crash_recover(DesignKind::MorLogSlde, crash, budget);
        }
    }
}

#[test]
fn morlog_dp_survives_a_crash_during_recovery() {
    for crash in [2_000, 12_000, 60_000] {
        for budget in [0, 1, 3, 9, 40] {
            crash_recover_crash_recover(DesignKind::MorLogDp, crash, budget);
        }
    }
}

#[test]
fn interrupted_recovery_is_observable_and_bounded() {
    // At least one (crash, budget) pair must actually interrupt — the
    // test above would be vacuous if every budget covered the whole
    // replay. Mid-run crash points of a multi-transaction workload
    // guarantee live records for the replay to spend writes on.
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = 24;
    wl.seed = 5;
    let trace = generate(WorkloadKind::Hash, &wl);
    let mut sys = System::new(cfg.clone(), &trace);
    sys.enable_persist_hash();
    sys.run();
    let events = sys.persist_hash_samples().len() as u64;
    let mut interrupted_once = false;
    for point in [events / 3, events / 2, 2 * events / 3] {
        let mut sys = System::new(cfg.clone(), &trace);
        sys.arm_crash_at(point);
        sys.run_until_crash_point();
        sys.crash();
        let report = match sys.recover_interrupted(0) {
            Ok(outcome) => outcome,
            Err(_) => {
                interrupted_once = true;
                sys.crash();
                sys.recover()
            }
        };
        sys.verify_recovery(&report)
            .unwrap_or_else(|e| panic!("double crash at point {point}: {e}"));
    }
    assert!(
        interrupted_once,
        "a zero-write budget must interrupt at least one mid-run recovery"
    );
}
