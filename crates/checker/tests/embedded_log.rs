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
//! still hold. Seeded programs then run at 2 and 4 slices with more
//! threads than slices, and on rings small enough that the log truncates
//! itself many times. A truncated transaction leaves no records to roll
//! forward, so there the oracle is the commit prefix: the data region
//! equals every commit that was acknowledged or rolled forward, applied in
//! commit order.

use std::collections::HashMap;

use morlog_log::{Log, LogConfig, PersistDomain};
use morlog_nvm::domain::{FaultHook, SimDomain};
use morlog_sim_core::fault::FaultPlan;
use morlog_sim_core::rng::DetRng;

/// One program step: `(thread, txid, word, value)` store or a commit.
#[derive(Clone, Copy, PartialEq, Eq)]
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

/// Appends `rounds` rounds of random steps to `program`: in each round
/// every thread of `threads` takes one step, in a shuffled order. A thread
/// commits its open transaction after two stores, or with probability
/// 1/2 after one; otherwise it stores a value no other step stores to one
/// of words 0..8 that no other open transaction has written (the
/// isolation the engine leaves to its caller), or commits if that word is
/// taken. Every third round only commits, so that chains of overlapping
/// transactions end and truncation can reclaim them.
fn random_steps(program: &mut Vec<Op>, rng: &mut DetRng, threads: &[u8], rounds: usize) {
    let open_txid = |program: &[Op], t: u8| {
        let commits = program
            .iter()
            .filter(|op| matches!(op, Op::Commit(u, _) if *u == t));
        commits.count() as u16
    };
    let mut order = threads.to_vec();
    for round in 0..rounds {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        for &t in &order {
            let txid = open_txid(program, t);
            let locked: Vec<u64> = (program.iter())
                .filter_map(|&op| match op {
                    Op::Store(u, x, w, _) if u != t && x == open_txid(program, u) => Some(w),
                    _ => None,
                })
                .collect();
            let stores = (program.iter())
                .filter(|op| matches!(op, Op::Store(u, x, ..) if *u == t && *x == txid))
                .count();
            let word = rng.gen_range(8);
            let commit_only = round % 3 == 2;
            if stores == 2
                || (stores == 1 && (commit_only || locked.contains(&word) || rng.gen_bool(0.5)))
            {
                program.push(Op::Commit(t, txid));
            } else if !commit_only && !locked.contains(&word) {
                program.push(Op::Store(t, txid, word, 1000 + program.len() as u64));
            }
        }
    }
}

/// Runs `program` until the domain dies; returns the acknowledged
/// commits in acknowledgement order.
fn drive(log: &mut Log<SimDomain>, program: &[Op]) -> Vec<(u8, u16)> {
    let mut acked = Vec::new();
    for &op in program {
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

/// The durable bytes `program` adds to a fresh log, run without a cut.
fn program_bytes(cfg: &LogConfig, program: &[Op]) -> u64 {
    let mut reference = Log::format(SimDomain::new(cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference, program);
    reference.domain().durable_bytes() - base
}

/// The data region the winner set implies: winners applied in the given
/// order, stores in program order within a transaction.
fn expected_words(cfg: &LogConfig, program: &[Op], winners: &[(u8, u16)]) -> Vec<u64> {
    let mut stores: HashMap<(u8, u16), Vec<(u64, u64)>> = HashMap::new();
    for &op in program {
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

/// Restarts and recovers the log; returns the rolled-forward commits.
fn recover(log: &mut Log<SimDomain>, ctx: &str) -> Vec<(u8, u16)> {
    log.domain_mut().restart();
    let outcome = log
        .recover()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    outcome
        .committed
        .iter()
        .map(|t| (t.thread, t.txid))
        .collect()
}

fn data_region(log: &Log<SimDomain>) -> Vec<u64> {
    (0..log.config().data_words)
        .map(|w| log.read_word(w))
        .collect()
}

fn check_crash_point(log: &mut Log<SimDomain>, program: &[Op], acked: &[(u8, u16)], ctx: &str) {
    let winners = recover(log, ctx);
    for tx in acked {
        assert!(
            winners.contains(tx),
            "{ctx}: acknowledged commit {tx:?} lost (winners {winners:?})"
        );
    }
    let expect = expected_words(log.config(), program, &winners);
    assert_eq!(
        data_region(log),
        expect,
        "{ctx}: atomicity violated (winners {winners:?})"
    );
}

/// The commit-prefix oracle for logs that truncate themselves: every
/// commit that was acknowledged or rolled forward, applied in commit
/// order, is exactly the recovered data region.
fn check_commit_prefix(log: &mut Log<SimDomain>, program: &[Op], acked: &[(u8, u16)], ctx: &str) {
    let rolled_forward = recover(log, ctx);
    let winners: Vec<(u8, u16)> = (program.iter())
        .filter_map(|&op| match op {
            Op::Commit(t, x) => Some((t, x)),
            Op::Store(..) => None,
        })
        .filter(|tx| acked.contains(tx) || rolled_forward.contains(tx))
        .collect();
    let expect = expected_words(log.config(), program, &winners);
    assert_eq!(
        data_region(log),
        expect,
        "{ctx}: not a commit prefix (acked {acked:?}, rolled forward {rolled_forward:?})"
    );
}

#[test]
fn exhaustive_power_cut_sweep_holds_durability_and_atomicity() {
    let cfg = LogConfig::small();
    let program = workload();
    let total = program_bytes(&cfg, &program);
    assert!(total > 300, "workload too small to be interesting: {total}");

    let mut crashed = 0u64;
    for budget in 0..=total {
        let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
        log.domain_mut().arm_power_cut(budget);
        let acked = drive(&mut log, &program);
        if log.domain().is_dead() {
            crashed += 1;
        }
        check_crash_point(&mut log, &program, &acked, &format!("budget {budget}"));
    }
    assert!(crashed > 0, "the sweep never crashed the domain");
}

#[test]
fn torn_slot_fault_plan_holds_the_oracle() {
    let cfg = LogConfig::small();
    let program = workload();
    let total = program_bytes(&cfg, &program);

    let mut injected_total = 0u64;
    for seed in 0..8u64 {
        for budget in (0..=total).step_by(7) {
            let plan = FaultPlan::single_torn(seed);
            let mut log = Log::format(
                SimDomain::with_backing(&cfg, FaultHook { plan }),
                cfg.clone(),
            );
            log.domain_mut().arm_power_cut(budget);
            let acked = drive(&mut log, &program);
            injected_total += u64::from(log.domain().backing().plan.injected());
            check_crash_point(
                &mut log,
                &program,
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
    let program = workload();
    let total = program_bytes(&cfg, &program);

    let mut injected_total = 0u64;
    for seed in 0..8u64 {
        for budget in (0..=total).step_by(7) {
            let plan = FaultPlan::single_crash_flip(seed);
            let mut log = Log::format(
                SimDomain::with_backing(&cfg, FaultHook { plan }),
                cfg.clone(),
            );
            log.domain_mut().arm_power_cut(budget);
            let acked = drive(&mut log, &program);
            injected_total += u64::from(log.domain().backing().plan.injected());
            check_crash_point(
                &mut log,
                &program,
                &acked,
                &format!("flip seed {seed} budget {budget}"),
            );
        }
    }
    assert!(injected_total > 0, "no crash flip was ever injected");
}

/// Seeded programs at 2 and 4 slices with more threads than slices, so
/// threads share slices and a torn slot in one slice sits beside
/// acknowledged commits of other threads in the others.
#[test]
fn multi_slice_seeded_sweep_keeps_every_acknowledged_commit() {
    for (slices, threads) in [(2, 3u8), (4, 6)] {
        let cfg = LogConfig {
            slices,
            ..LogConfig::small()
        };
        let all: Vec<u8> = (0..threads).collect();
        for seed in 0..4u64 {
            let mut program = Vec::new();
            random_steps(&mut program, &mut DetRng::new(seed), &all, 24 / all.len());
            let total = program_bytes(&cfg, &program);
            for budget in (seed..=total).step_by(2) {
                let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
                log.domain_mut().arm_power_cut(budget);
                let acked = drive(&mut log, &program);
                let ctx = format!("{slices} slices, seed {seed}, budget {budget}");
                check_crash_point(&mut log, &program, &acked, &ctx);
            }
        }
    }
}

/// A program on rings small enough that appends truncate the log many
/// times. It opens with the lost-commit pattern: T2 stays open in slice
/// 0 while T0 (slice 0) and then T1 (slice 1) commit word 1, and T2
/// commits only after other threads' commits have come and gone.
fn truncating_program(seed: u64) -> Vec<Op> {
    use Op::*;
    let mut program = vec![
        Store(2, 0, 5, 1),
        Store(0, 0, 1, 2),
        Commit(0, 0),
        Store(1, 0, 1, 3),
        Commit(1, 0),
    ];
    let mut rng = DetRng::new(seed);
    random_steps(&mut program, &mut rng, &[0, 1, 3], 2);
    program.push(Commit(2, 0));
    random_steps(&mut program, &mut rng, &[0, 1, 2, 3], 30);
    program
}

#[test]
fn truncating_sweep_recovers_a_commit_prefix() {
    let cfg = LogConfig {
        slices: 2,
        log_capacity: 384,
        data_words: 8,
        delay_persistence: false,
    };
    for seed in 0..4u64 {
        let program = truncating_program(seed);
        // The sweep is about truncation, not overflow: a clean run fits,
        // and each slice appends several rings' worth of slots.
        let mut clean = Log::format(SimDomain::new(&cfg), cfg.clone());
        let commits = program
            .iter()
            .filter(|op| matches!(op, Op::Commit(..)))
            .count();
        assert_eq!(
            drive(&mut clean, &program).len(),
            commits,
            "seed {seed} overflowed"
        );
        for slice in 0..2 {
            let appended: u64 = (program.iter())
                .map(|op| match *op {
                    Op::Store(t, ..) if t % 2 == slice => 48,
                    Op::Commit(t, _) if t % 2 == slice => 32,
                    _ => 0,
                })
                .sum();
            assert!(
                appended > 3 * cfg.log_capacity,
                "seed {seed}, slice {slice}"
            );
        }
        // Every budget of seed 0's program; a quarter of the others'.
        let total = program_bytes(&cfg, &program);
        for budget in (seed..=total).step_by(if seed == 0 { 1 } else { 4 }) {
            let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
            log.domain_mut().arm_power_cut(budget);
            let acked = drive(&mut log, &program);
            let ctx = format!("seed {seed}, budget {budget}");
            check_commit_prefix(&mut log, &program, &acked, &ctx);
        }
    }
}

/// A recovery cut short at two slices, then recovered again. Slice 1's
/// commit writes word 3 first and slice 0's overwrites it, so a second
/// recovery that found slice 1's control block stale (and slice 0's
/// cleared) would replay the older value over the newer one.
#[test]
fn a_recovery_cut_short_across_slices_recovers_the_same_state() {
    use Op::*;
    let cfg = LogConfig {
        slices: 2,
        ..LogConfig::small()
    };
    let program = [
        Store(1, 0, 3, 10),
        Commit(1, 0),
        Store(0, 0, 3, 20),
        Commit(0, 0),
    ];
    let crashed_log = || {
        let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
        assert_eq!(drive(&mut log, &program).len(), 2);
        log.domain_mut().restart();
        log
    };
    let mut reference = crashed_log();
    let base = reference.domain().durable_bytes();
    reference.recover().unwrap();
    let total = reference.domain().durable_bytes() - base;
    for budget in 0..=total {
        let mut log = crashed_log();
        log.domain_mut().arm_power_cut(budget);
        let _ = log.recover();
        let acked = [(1, 0), (0, 0)];
        check_commit_prefix(&mut log, &program, &acked, &format!("budget {budget}"));
    }
}
