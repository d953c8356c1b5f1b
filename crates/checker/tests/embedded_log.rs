//! Exhaustive crash sweep over the embedded log (`morlog-log`) driven
//! through the simulator-side persist domain (`SimDomain`) — the same
//! byte-budget coordinate space the checker's crash-point sweeps use for
//! the cycle-level simulator, applied to the extracted protocol engine.
//!
//! Oracle at every crash point:
//!
//! * **Durability** — every commit the program saw acknowledged is rolled
//!   forward by recovery.
//! * **Atomicity** — the recovered data region equals exactly the effect of
//!   the recovered winner set applied in commit order to a zeroed array;
//!   no partial transaction is ever visible.
//!
//! On top of the clean power-cut sweep, fault-plan variants tear the dying
//! drain's slots and flip bits of in-flight words, and the same oracle must
//! still hold.

use std::collections::HashMap;

use morlog_log::{Log, LogConfig, PersistDomain};
use morlog_nvm::domain::{FaultHook, SimDomain};
use morlog_sim_core::fault::FaultPlan;

/// One program step: `(thread, txid, word, value)` store or a commit.
#[derive(Clone, Copy)]
enum Op {
    Store(u8, u16, u64, u64),
    Commit(u8, u16),
}

fn workload() -> Vec<Op> {
    use Op::*;
    vec![
        Store(0, 0, 1, 10),
        Store(0, 0, 2, 20),
        Commit(0, 0),
        Store(1, 0, 3, 30),
        Commit(1, 0),
        Store(0, 1, 1, 11),
        Store(0, 1, 4, 40),
        Commit(0, 1),
        Store(1, 1, 2, 21), // uncommitted tail
    ]
}

/// Runs the workload until the domain dies; returns the acknowledged
/// commits in acknowledgement order.
fn drive(log: &mut Log<SimDomain>) -> Vec<(u8, u16)> {
    let mut acked = Vec::new();
    for op in workload() {
        match op {
            Op::Store(t, x, w, v) => {
                let _ = log.write(t, x, w, v);
            }
            Op::Commit(t, x) => {
                if log.commit(t, x).is_ok() {
                    acked.push((t, x));
                }
            }
        }
    }
    acked
}

/// The data region the winner set implies: winners applied in commit
/// order, stores in program order within a transaction.
fn expected_words(cfg: &LogConfig, winners: &[(u8, u16)]) -> Vec<u64> {
    let mut stores: HashMap<(u8, u16), Vec<(u64, u64)>> = HashMap::new();
    for op in workload() {
        if let Op::Store(t, x, w, v) = op {
            stores.entry((t, x)).or_default().push((w, v));
        }
    }
    let mut words = vec![0u64; cfg.data_words as usize];
    for tx in winners {
        for &(w, v) in stores.get(tx).map(Vec::as_slice).unwrap_or(&[]) {
            words[w as usize] = v;
        }
    }
    words
}

fn check_crash_point(log: &mut Log<SimDomain>, acked: &[(u8, u16)], ctx: &str) {
    log.domain_mut().restart();
    let outcome = log
        .recover()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let winners: Vec<(u8, u16)> = outcome
        .committed
        .iter()
        .map(|t| (t.thread, t.txid))
        .collect();
    for tx in acked {
        assert!(
            winners.contains(tx),
            "{ctx}: acknowledged commit {tx:?} lost (winners {winners:?})"
        );
    }
    let expect = expected_words(log.config(), &winners);
    let got: Vec<u64> = (0..log.config().data_words)
        .map(|w| log.read_word(w))
        .collect();
    assert_eq!(
        got, expect,
        "{ctx}: atomicity violated (winners {winners:?})"
    );
}

#[test]
fn exhaustive_power_cut_sweep_holds_durability_and_atomicity() {
    let cfg = LogConfig::small();
    let mut reference = Log::format(SimDomain::new(&cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference);
    let total = reference.domain().durable_bytes() - base;
    assert!(total > 300, "workload too small to be interesting: {total}");

    let mut crashed = 0u64;
    for budget in 0..=total {
        let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
        let base = log.domain().durable_bytes();
        log.domain_mut().arm_power_cut(base + budget);
        let acked = drive(&mut log);
        if log.domain().is_dead() {
            crashed += 1;
        }
        check_crash_point(&mut log, &acked, &format!("budget {budget}"));
    }
    assert!(crashed > 0, "the sweep never crashed the domain");
}

#[test]
fn torn_slot_fault_plan_holds_the_oracle() {
    let cfg = LogConfig::small();
    let mut reference = Log::format(SimDomain::new(&cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference);
    let total = reference.domain().durable_bytes() - base;

    let mut injected_total = 0u64;
    for seed in 0..8u64 {
        for budget in (0..=total).step_by(7) {
            let plan = FaultPlan::single_torn(seed);
            let mut log = Log::format(
                SimDomain::with_backing(&cfg, FaultHook { plan }),
                cfg.clone(),
            );
            let base = log.domain().durable_bytes();
            log.domain_mut().arm_power_cut(base + budget);
            let acked = drive(&mut log);
            injected_total += u64::from(log.domain().backing().plan.injected());
            check_crash_point(
                &mut log,
                &acked,
                &format!("torn seed {seed} budget {budget}"),
            );
        }
    }
    assert!(injected_total > 0, "no torn fault was ever injected");
}

#[test]
fn crash_flip_fault_plan_holds_the_oracle() {
    let cfg = LogConfig::small();
    let mut reference = Log::format(SimDomain::new(&cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference);
    let total = reference.domain().durable_bytes() - base;

    let mut injected_total = 0u64;
    for seed in 0..8u64 {
        for budget in (0..=total).step_by(7) {
            let plan = FaultPlan::single_crash_flip(seed);
            let mut log = Log::format(
                SimDomain::with_backing(&cfg, FaultHook { plan }),
                cfg.clone(),
            );
            let base = log.domain().durable_bytes();
            log.domain_mut().arm_power_cut(base + budget);
            let acked = drive(&mut log);
            injected_total += u64::from(log.domain().backing().plan.injected());
            check_crash_point(
                &mut log,
                &acked,
                &format!("flip seed {seed} budget {budget}"),
            );
        }
    }
    assert!(injected_total > 0, "no crash flip was ever injected");
}
