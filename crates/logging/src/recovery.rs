//! The recovery routine (§III-E), hardened against damaged log slots.
//!
//! After a failure, the routine scans the log region from head to tail,
//! *classifies* every record (valid, torn by an interrupted drain, or
//! corrupt per its integrity footprint), decides which transactions
//! committed (and, under delay-persistence, which committed transactions
//! were *persisted*), then rolls winners forward with their redo data in
//! commit order and rolls losers back with their undo data in reverse
//! append order.
//!
//! Damage handling rests on two hardware invariants the controller
//! enforces:
//!
//! - A slot's metadata header (and a commit slot entirely) is one atomic
//!   row program, so every damaged record is still attributable to its
//!   thread, transaction and home address — only *data* words tear or flip.
//! - Under an active fault plan the controller gates in-place data writes
//!   behind undrained undo slots for the same line, and holds synchronous
//!   commit completion until the transaction's records have drained. A
//!   damaged record therefore always belongs to a transaction the program
//!   never observed as committed, and a damaged undo slot implies its home
//!   line was never overwritten in place.
//!
//! Roll-forward stops per thread at the first damaged record in its slice:
//! later records of that thread are dropped from winner determination and
//! replay (reported in [`RecoveryReport`]). Roll-back inspects the oldest
//! undo+redo entry per (transaction, word): a valid anchor restores the
//! pre-transaction value; a damaged anchor means the gated in-place write
//! never landed, so the word is skipped — it already holds that value.
//!
//! Winners are replayed **in commit order** (cross-transaction) and in
//! append order within a transaction; losers are undone in reverse append
//! order. With lock-based isolation (§III-A) the per-word entry order in
//! the ring matches program order, which keeps this schedule equivalent to
//! the paper's description when entries of different transactions
//! interleave in the ring.

use morlog_log::protocol::{plan_replay, ScanEntry};
use morlog_nvm::controller::MemoryController;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::ids::TxKey;
use morlog_sim_core::trace::{RecoveryStepTag, TraceEvent};
use morlog_sim_core::Addr;

/// What recovery did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed (and persisted) transactions rolled forward, commit order.
    pub redone: Vec<TxKey>,
    /// Transactions rolled back (uncommitted, committed-but-not-persisted
    /// under delay-persistence, or demoted because the crash damaged one of
    /// their records before their commit could be trusted).
    pub undone: Vec<TxKey>,
    /// Ring records scanned.
    pub records_scanned: usize,
    /// Records an interrupted drain truncated (a strict prefix of their
    /// data words persisted). Classified and excluded from replay.
    pub torn_records: usize,
    /// Records whose integrity footprint or metadata header failed to
    /// check out (escaped bit flips). Excluded from replay.
    pub corrupt_records: usize,
    /// Undamaged records dropped from roll-forward because they follow a
    /// damaged record of the same thread (replay stops at first damage).
    pub dropped_records: usize,
    /// Whether this recovery pass was cut short by a second crash
    /// ([`recover_interrupted`]): the log region is intact and another
    /// recovery pass must run before the state is trustworthy.
    pub interrupted: bool,
}

impl RecoveryReport {
    /// Whether the scan found any damaged or dropped records.
    pub fn saw_damage(&self) -> bool {
        self.torn_records > 0 || self.corrupt_records > 0 || self.dropped_records > 0
    }
}

/// Runs recovery over the controller's log region and applies the log data
/// to the in-place NVMM locations. Pass `delay_persistence = true` for
/// systems that committed with the §III-C protocol.
///
/// The log region is emptied afterwards (entries are deleted by updating
/// the head pointer once their updates are in place).
///
/// # Example
///
/// ```
/// use morlog_encoding::{cell::CellModel, slde::SldeCodec};
/// use morlog_logging::recovery::recover;
/// use morlog_nvm::controller::MemoryController;
/// use morlog_sim_core::{Frequency, MemConfig};
///
/// let mut mc = MemoryController::with_default_map(
///     MemConfig::default(),
///     Frequency::ghz(3.0),
///     SldeCodec::new(CellModel::table_iii()),
/// );
/// let report = recover(&mut mc, false);
/// assert!(report.redone.is_empty() && report.undone.is_empty());
/// assert!(!report.saw_damage());
/// ```
pub fn recover(mc: &mut MemoryController, delay_persistence: bool) -> RecoveryReport {
    recover_inner(mc, delay_persistence, None)
}

/// Runs recovery but crashes it after `apply_budget` replay writes — the
/// double-crash scenario: power is lost again while the routine is rolling
/// winners forward (or losers back). The partial pass stops mid-replay and
/// leaves the log region intact (entries are only deleted *after* every
/// update is in place), so a subsequent [`recover`] re-scans the full ring
/// and must converge to the same state an uninterrupted recovery produces.
/// Replay writes are absolute values, so re-applying them is idempotent.
///
/// The returned report carries the winner/loser determination (which is
/// complete before any replay write) with
/// [`RecoveryReport::interrupted`] set.
pub fn recover_interrupted(
    mc: &mut MemoryController,
    delay_persistence: bool,
    apply_budget: usize,
) -> RecoveryReport {
    recover_inner(mc, delay_persistence, Some(apply_budget))
}

fn recover_inner(
    mc: &mut MemoryController,
    delay_persistence: bool,
    apply_budget: Option<usize>,
) -> RecoveryReport {
    let _prof = hostprof::scope(HostPhase::Recovery);
    // Budget of replay writes before the simulated second crash; `None`
    // never interrupts.
    let mut budget = apply_budget;
    let mut spend = move || match &mut budget {
        None => true,
        Some(0) => false,
        Some(n) => {
            *n -= 1;
            true
        }
    };
    // Gather records from every log slice (one for the centralized log,
    // several for the §III-F distributed variant) and hand them to the
    // extracted protocol planner. A transaction's records all live in its
    // thread's slice, so per-slice `seq` ordering (the slot offset) is
    // enough within a transaction; commit order across slices comes from
    // the timestamps in the commit records.
    let mut entries: Vec<ScanEntry> = Vec::new();
    for (slice, ring) in mc.log_rings().iter().enumerate() {
        entries.extend(
            ring.entries()
                .map(|slot| slot.value.scan_entry(slice, slot.offset)),
        );
    }
    let tracer = mc.tracer().clone();
    let at = mc.last_tick();
    tracer.emit(at, || TraceEvent::Recovery {
        step: RecoveryStepTag::Scan,
        count: entries.len() as u64,
    });
    // Classification, per-thread damage cutoffs, winner determination (with
    // the delay-persistence ulog check) and the forward/backward replay
    // schedules all come from `morlog-log` — the same planner every byte
    // backend uses. This routine only applies the plan to the NVMM array
    // with the simulator's trace and double-crash machinery around it.
    let plan = plan_replay(&entries, delay_persistence);
    let mut report = RecoveryReport {
        redone: plan.winners.iter().map(|&t| TxKey::from(t)).collect(),
        undone: plan.undone.iter().map(|&t| TxKey::from(t)).collect(),
        records_scanned: plan.records_scanned,
        torn_records: plan.torn_records,
        corrupt_records: plan.corrupt_records,
        dropped_records: plan.dropped_records,
        interrupted: false,
    };

    tracer.emit(at, || TraceEvent::Recovery {
        step: RecoveryStepTag::Winners,
        count: plan.winners.len() as u64,
    });

    // Forward pass: winners in commit order, records in append order.
    let mut redone_words = 0u64;
    for w in &plan.forward {
        if !spend() {
            report.interrupted = true;
            break;
        }
        apply_word(mc, Addr::new(w.addr), w.value);
        redone_words += 1;
    }
    tracer.emit(at, || TraceEvent::Recovery {
        step: RecoveryStepTag::RollForward,
        count: redone_words,
    });

    // Backward pass: the globally-oldest valid undo anchor per word, in
    // reverse (slice, seq) order — the plan already resolved anchor chains
    // and skipped damaged anchors (their in-place writes were gated).
    tracer.emit(at, || TraceEvent::Recovery {
        step: RecoveryStepTag::RollBack,
        count: plan.backward.len() as u64,
    });
    for w in &plan.backward {
        if report.interrupted || !spend() {
            report.interrupted = true;
            break;
        }
        apply_word(mc, Addr::new(w.addr), w.value);
    }

    // "After that, log entries are deleted by updating the log head pointer."
    // A second crash mid-replay leaves the ring intact: entries may only be
    // deleted once every update is in place, so the next recovery pass can
    // re-derive everything the interrupted one did.
    if report.interrupted {
        tracer.emit(at, || TraceEvent::Recovery {
            step: RecoveryStepTag::Interrupted,
            count: report.undone.len() as u64,
        });
        return report;
    }
    mc.clear_log();
    tracer.emit(at, || TraceEvent::Recovery {
        step: RecoveryStepTag::Done,
        count: report.undone.len() as u64,
    });
    report
}

fn apply_word(mc: &mut MemoryController, addr: Addr, value: u64) {
    let line_addr = addr.line();
    let mut line = mc.read_line(line_addr);
    line.set_word(addr.word_index(), value);
    mc.write_line_functional(line_addr, line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_log::record::Record;
    use morlog_sim_core::{Frequency, MemConfig, ThreadId, TxId};

    fn mc() -> MemoryController {
        MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn key(t: u8, x: u16) -> TxKey {
        TxKey::new(ThreadId::new(t), TxId::new(x))
    }

    fn word_at(mc: &MemoryController, addr: Addr) -> u64 {
        mc.read_line(addr.line()).word(addr.word_index())
    }

    #[test]
    fn committed_tx_rolls_forward() {
        let mut m = mc();
        let a = m.map().data_base(); // word 0 of the first data line
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 0, 42, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), None), 0).unwrap();
        let report = recover(&mut m, false);
        assert_eq!(report.redone, vec![k]);
        assert!(report.undone.is_empty());
        assert!(!report.saw_damage());
        assert_eq!(word_at(&m, a), 42);
        assert!(m.log_ring().is_empty());
    }

    #[test]
    fn uncommitted_tx_rolls_back() {
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        // Simulate: undo+redo persisted, then in-place data updated, crash
        // before commit.
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 7, 42, 0xFF), 0)
            .unwrap();
        let mut line = m.read_line(a.line());
        line.set_word(0, 42);
        m.write_line_functional(a.line(), line);
        let report = recover(&mut m, false);
        assert_eq!(report.undone, vec![k]);
        assert_eq!(word_at(&m, a), 7, "rolled back to the undo value");
    }

    #[test]
    fn newest_redo_wins_within_a_tx() {
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 0, 1, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::redo_only(k.into(), a.as_u64(), 2, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::redo_only(k.into(), a.as_u64(), 3, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), None), 0).unwrap();
        recover(&mut m, false);
        assert_eq!(word_at(&m, a), 3);
    }

    #[test]
    fn oldest_undo_wins_for_losers() {
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        // Two undo+redo entries for the same word (line was evicted and
        // re-fetched mid-transaction): the oldest anchors the rollback.
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 10, 20, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 20, 30, 0xFF), 0)
            .unwrap();
        recover(&mut m, false);
        assert_eq!(word_at(&m, a), 10);
    }

    #[test]
    fn interleaved_txs_respect_commit_order() {
        let mut m = mc();
        let a = m.map().data_base();
        let k1 = key(0, 0);
        let k2 = key(1, 0);
        // tx1 writes 5, commits; tx2 writes 9 (undo = 5), commits.
        m.try_append_log(Record::undo_redo(k1.into(), a.as_u64(), 0, 5, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k1.into(), None), 0)
            .unwrap();
        m.try_append_log(Record::undo_redo(k2.into(), a.as_u64(), 5, 9, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k2.into(), None), 0)
            .unwrap();
        recover(&mut m, false);
        assert_eq!(word_at(&m, a), 9, "later commit replays later");
    }

    #[test]
    fn committed_then_aborted_writer_rolls_to_committed_value() {
        let mut m = mc();
        let a = m.map().data_base();
        let k1 = key(0, 0);
        let k2 = key(1, 0);
        m.try_append_log(Record::undo_redo(k1.into(), a.as_u64(), 0, 5, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k1.into(), None), 0)
            .unwrap();
        m.try_append_log(Record::undo_redo(k2.into(), a.as_u64(), 5, 9, 0xFF), 0)
            .unwrap();
        // Crash before tx2 commits; in-place holds 9.
        let mut line = m.read_line(a.line());
        line.set_word(0, 9);
        m.write_line_functional(a.line(), line);
        let report = recover(&mut m, false);
        assert_eq!(report.redone, vec![k1]);
        assert_eq!(report.undone, vec![k2]);
        assert_eq!(
            word_at(&m, a),
            5,
            "tx2 undone back to tx1's committed value"
        );
    }

    #[test]
    fn dp_persistence_cutoff_follows_commit_order() {
        let mut m = mc();
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let a2 = Addr::new(a0.as_u64() + 16);
        let (k1, k2, k3) = (key(0, 0), key(0, 1), key(0, 2));
        // tx1: complete (ulog 1, one post-commit redo entry present).
        m.try_append_log(Record::undo_redo(k1.into(), a0.as_u64(), 0, 1, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k1.into(), Some(1)), 0)
            .unwrap();
        m.try_append_log(Record::redo_only(k1.into(), a0.as_u64(), 11, 0xFF), 0)
            .unwrap();
        // tx2: claims 2 ULog words but only one redo entry made it.
        m.try_append_log(Record::undo_redo(k2.into(), a1.as_u64(), 0, 2, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k2.into(), Some(2)), 0)
            .unwrap();
        m.try_append_log(Record::redo_only(k2.into(), a1.as_u64(), 22, 0xFF), 0)
            .unwrap();
        // tx3: complete, but commits after tx2 -> still a loser.
        m.try_append_log(Record::undo_redo(k3.into(), a2.as_u64(), 0, 3, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k3.into(), Some(0)), 0)
            .unwrap();
        let report = recover(&mut m, true);
        assert_eq!(report.redone, vec![k1]);
        assert_eq!(report.undone, vec![k2, k3]);
        assert_eq!(word_at(&m, a0), 11, "tx1 rolled forward to its newest redo");
        assert_eq!(word_at(&m, a1), 0, "tx2 rolled back");
        assert_eq!(word_at(&m, a2), 0, "tx3 rolled back despite being complete");
    }

    /// Boundary: the transaction's log state persisted up to and including
    /// the commit record's acceptance, but the record itself is damaged —
    /// the `ulog` counter it carries is unreadable. Recovery must not
    /// guess: the commit is unusable, the transaction rolls back via its
    /// undo anchor, and the DP cutoff drops every later commit of the
    /// thread even if complete.
    #[test]
    fn dp_ulog_persisted_but_commit_torn_rolls_back() {
        let mut m = mc();
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let (k1, k2) = (key(0, 0), key(0, 1));
        m.try_append_log(Record::undo_redo(k1.into(), a0.as_u64(), 5, 50, 0xFF), 0)
            .unwrap();
        let commit = m
            .try_append_log(Record::commit(k1.into(), Some(1)), 0)
            .unwrap();
        m.try_append_log(Record::redo_only(k1.into(), a0.as_u64(), 51, 0xFF), 0)
            .unwrap();
        // tx2: complete with ulog 0, committing after the damaged record.
        m.try_append_log(Record::undo_redo(k2.into(), a1.as_u64(), 6, 60, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k2.into(), Some(0)), 0)
            .unwrap();
        // In-place data already carries tx1's update (DP wrote it back).
        let mut line = m.read_line(a0.line());
        line.set_word(a0.word_index(), 51);
        m.write_line_functional(a0.line(), line);
        // Tear the commit record: the stored ulog field no longer matches
        // the sealed CRC, so the scan classifies the record as corrupt.
        assert!(m.corrupt_log_record(0, commit.offset, |r| {
            r.ulog_count = Some(2);
        }));
        let report = recover(&mut m, true);
        assert_eq!(report.corrupt_records, 1);
        assert!(report.redone.is_empty());
        assert_eq!(report.undone, vec![k1, k2]);
        assert_eq!(word_at(&m, a0), 5, "tx1 rolled back via its undo anchor");
        assert_eq!(word_at(&m, a1), 6, "tx2 dropped behind the damage");
    }

    /// Boundary: the crash lands exactly after the commit record persists,
    /// with zero log writes following it. With `ulog = 0` that is the
    /// complete protocol state — the transaction wins. With `ulog > 0` the
    /// same crash point means the promised post-commit redo entries are
    /// missing, and the transaction must lose.
    #[test]
    fn dp_commit_persisted_with_zero_subsequent_writes() {
        // ulog = 0: nothing was promised after the commit; roll forward.
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 0, 1, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), Some(0)), 0)
            .unwrap();
        let report = recover(&mut m, true);
        assert_eq!(report.redone, vec![k]);
        assert!(report.undone.is_empty());
        assert_eq!(word_at(&m, a), 1);

        // ulog = 1 at the same crash point: the counter says one more redo
        // entry should follow, none did — the commit is not persisted.
        let mut m = mc();
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 7, 8, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), Some(1)), 0)
            .unwrap();
        let report = recover(&mut m, true);
        assert!(report.redone.is_empty());
        assert_eq!(report.undone, vec![k]);
        assert_eq!(word_at(&m, a), 7, "rolled back to the undo value");
    }

    #[test]
    fn non_dp_ignores_ulog_counters() {
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 0, 1, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), Some(99)), 0)
            .unwrap();
        let report = recover(&mut m, false);
        assert_eq!(report.redone, vec![k]);
        assert_eq!(word_at(&m, a), 1);
    }

    #[test]
    fn empty_log_is_a_noop() {
        let mut m = mc();
        let report = recover(&mut m, true);
        assert_eq!(report, RecoveryReport::default());
    }

    /// Double crash: recovery dies after every possible number of replay
    /// writes; a second, uninterrupted pass must land on exactly the state
    /// a single uninterrupted recovery produces.
    #[test]
    fn interrupted_recovery_converges_on_second_pass() {
        let build = || {
            let mut m = mc();
            let a0 = m.map().data_base();
            let a1 = Addr::new(a0.as_u64() + 8);
            let (k1, k2) = (key(0, 0), key(1, 0));
            // Winner k1 writes both words; loser k2 overwrote a1 in place.
            m.try_append_log(Record::undo_redo(k1.into(), a0.as_u64(), 0, 5, 0xFF), 0)
                .unwrap();
            m.try_append_log(Record::undo_redo(k1.into(), a1.as_u64(), 0, 6, 0xFF), 0)
                .unwrap();
            m.try_append_log(Record::commit(k1.into(), None), 0)
                .unwrap();
            m.try_append_log(Record::undo_redo(k2.into(), a1.as_u64(), 6, 9, 0xFF), 0)
                .unwrap();
            let mut line = m.read_line(a1.line());
            line.set_word(a1.word_index(), 9);
            m.write_line_functional(a1.line(), line);
            (m, a0, a1)
        };
        let (mut reference, a0, a1) = build();
        recover(&mut reference, false);
        let want = (word_at(&reference, a0), word_at(&reference, a1));
        assert_eq!(want, (5, 6));
        for budget in 0..3 {
            let (mut m, a0, a1) = build();
            let partial = recover_interrupted(&mut m, false, budget);
            assert!(partial.interrupted, "budget {budget} must interrupt");
            assert!(
                !m.log_ring().is_empty(),
                "interrupted recovery must not delete log entries"
            );
            let second = recover(&mut m, false);
            assert!(!second.interrupted);
            assert_eq!(second.redone, vec![key(0, 0)]);
            assert_eq!(second.undone, vec![key(1, 0)]);
            assert_eq!((word_at(&m, a0), word_at(&m, a1)), want, "budget {budget}");
            assert!(m.log_ring().is_empty());
        }
        // A budget past the total replay count no longer interrupts.
        let (mut m, _, _) = build();
        let full = recover_interrupted(&mut m, false, 64);
        assert!(!full.interrupted);
        assert!(m.log_ring().is_empty());
    }
}

#[cfg(test)]
mod damage_tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_log::record::Record;
    use morlog_sim_core::fault::FaultPlan;
    use morlog_sim_core::{Frequency, MemConfig, ThreadId, TxId};

    fn mc() -> MemoryController {
        MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn key(t: u8, x: u16) -> TxKey {
        TxKey::new(ThreadId::new(t), TxId::new(x))
    }

    fn word_at(mc: &MemoryController, addr: Addr) -> u64 {
        mc.read_line(addr.line()).word(addr.word_index())
    }

    /// A crash tears the only undo+redo slot of an uncommitted transaction
    /// whose in-place write was gated: the word keeps its pre-tx value and
    /// the record is reported torn, not replayed.
    #[test]
    fn torn_undo_anchor_is_skipped_not_applied() {
        let mut m = mc();
        let mut plan = FaultPlan::none();
        plan.torn_drain_per_mille = 1000;
        plan.fault_budget = Some(1);
        m.set_fault_plan(plan);
        let a = m.map().data_base();
        let k = key(0, 0);
        // Pre-tx value 7 in place; the undo slot never finishes draining.
        let mut line = m.read_line(a.line());
        line.set_word(0, 7);
        m.write_line_functional(a.line(), line);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 7, 42, 0xFF), 0)
            .unwrap();
        m.crash_persist();
        let report = recover(&mut m, false);
        assert_eq!(report.torn_records, 1);
        assert_eq!(
            report.undone,
            vec![k],
            "the damaged tx is still rolled back"
        );
        assert_eq!(word_at(&m, a), 7, "skipped word keeps the pre-tx value");
    }

    /// A corrupt (bit-flipped) record demotes every later record of its
    /// thread: a commit behind the damage is dropped and its transaction
    /// rolls back via the earlier, valid undo anchor.
    #[test]
    fn damage_cuts_off_later_commits_of_the_thread() {
        let mut m = mc();
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let k = key(0, 0);
        let first = m
            .try_append_log(Record::undo_redo(k.into(), a0.as_u64(), 5, 50, 0xFF), 0)
            .unwrap();
        let second = m
            .try_append_log(Record::undo_redo(k.into(), a1.as_u64(), 6, 60, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), None), 0).unwrap();
        assert!(first.offset < second.offset);
        // In-place state: a0 already carries the tx's value; a1 stayed at
        // its pre-tx value because the write-ahead gate holds a line back
        // while its undo slot is in flight (the slot about to be damaged).
        let mut line = m.read_line(a0.line());
        line.set_word(a0.word_index(), 50);
        m.write_line_functional(a0.line(), line);
        let mut line = m.read_line(a1.line());
        line.set_word(a1.word_index(), 6);
        m.write_line_functional(a1.line(), line);
        // Flip a redo bit in the second slot behind the sealed CRC's back
        // (stands in for an escaped crash-time drift flip).
        assert!(m.corrupt_log_record(0, second.offset, |r| {
            let w = r.data_word(1);
            r.set_data_word(1, w ^ (1 << 17));
        }));
        let report = recover(&mut m, false);
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(
            report.dropped_records, 1,
            "the commit behind the damage is dropped"
        );
        assert!(report.redone.is_empty());
        assert_eq!(report.undone, vec![k]);
        assert_eq!(word_at(&m, a0), 5, "valid anchor rolled back");
        assert_eq!(word_at(&m, a1), 6, "damaged anchor skipped (still pre-tx)");
    }

    /// Damage in one thread's slice must not disturb another thread's
    /// committed transaction.
    #[test]
    fn damage_is_confined_to_its_thread() {
        let mut m = mc();
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let (k0, k1) = (key(0, 0), key(1, 0));
        m.try_append_log(Record::undo_redo(k0.into(), a0.as_u64(), 0, 5, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k0.into(), None), 0)
            .unwrap();
        let victim = m
            .try_append_log(Record::undo_redo(k1.into(), a1.as_u64(), 0, 9, 0xFF), 0)
            .unwrap();
        assert!(m.corrupt_log_record(0, victim.offset, |r| {
            let w = r.data_word(0);
            r.set_data_word(0, w ^ 1);
        }));
        let report = recover(&mut m, false);
        assert_eq!(report.redone, vec![k0], "thread 0's commit survives");
        assert_eq!(report.undone, vec![k1]);
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(word_at(&m, a0), 5);
    }

    /// Under delay-persistence a damaged post-commit redo entry fails the
    /// ulog check and demotes the committed transaction to a loser.
    #[test]
    fn dp_damaged_post_commit_redo_demotes_the_commit() {
        let mut m = mc();
        let a = m.map().data_base();
        let k = key(0, 0);
        m.try_append_log(Record::undo_redo(k.into(), a.as_u64(), 3, 30, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k.into(), Some(1)), 0)
            .unwrap();
        let redo = m
            .try_append_log(Record::redo_only(k.into(), a.as_u64(), 31, 0xFF), 0)
            .unwrap();
        assert!(m.corrupt_log_record(0, redo.offset, |r| {
            let w = r.data_word(0);
            r.set_data_word(0, w ^ 2);
        }));
        let report = recover(&mut m, true);
        assert!(report.redone.is_empty());
        assert_eq!(report.undone, vec![k]);
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(word_at(&m, a), 3, "rolled back to the pre-tx value");
    }

    /// Double recovery stays idempotent with damage: the first pass clears
    /// the ring (and the torn-word map), so the second scans nothing.
    #[test]
    fn recovery_after_damage_is_idempotent() {
        let mut m = mc();
        let mut plan = FaultPlan::none();
        plan.torn_drain_per_mille = 1000;
        plan.fault_budget = Some(4);
        m.set_fault_plan(plan);
        let a = m.map().data_base();
        m.try_append_log(
            Record::undo_redo(key(0, 0).into(), a.as_u64(), 0, 1, 0xFF),
            0,
        )
        .unwrap();
        m.crash_persist();
        let first = recover(&mut m, false);
        assert!(first.saw_damage());
        let second = recover(&mut m, false);
        assert_eq!(second.records_scanned, 0);
        assert!(!second.saw_damage());
    }
}

#[cfg(test)]
mod distributed_tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_log::record::Record;
    use morlog_sim_core::{Addr, Frequency, MemConfig, ThreadId, TxId};

    fn mc_sliced(slices: usize) -> MemoryController {
        let cfg = MemConfig {
            log_slices: slices,
            ..Default::default()
        };
        MemoryController::with_default_map(
            cfg,
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn key(t: u8, x: u16) -> TxKey {
        TxKey::new(ThreadId::new(t), TxId::new(x))
    }

    fn word_at(mc: &MemoryController, addr: Addr) -> u64 {
        mc.read_line(addr.line()).word(addr.word_index())
    }

    #[test]
    fn slices_route_by_thread() {
        let mut m = mc_sliced(4);
        let a = m.map().data_base();
        for t in 0..4u8 {
            m.try_append_log(
                Record::undo_redo(key(t, 0).into(), a.as_u64(), 0, t as u64, 0xFF),
                0,
            )
            .unwrap();
        }
        for slice in 0..4 {
            assert_eq!(m.log_rings()[slice].entries().count(), 1, "slice {slice}");
        }
    }

    #[test]
    fn timestamps_define_commit_order_across_slices() {
        // Threads on different slices write the same... no — threads write
        // disjoint words; commit order still decides the DP cutoff.
        let mut m = mc_sliced(2);
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let (k0, k1) = (key(0, 0), key(1, 0));
        // Thread 1 commits FIRST (timestamp 1) but its records land in
        // slice 1; thread 0 commits second with an incomplete redo set.
        m.try_append_log(Record::undo_redo(k1.into(), a1.as_u64(), 0, 11, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k1.into(), Some(0)).with_timestamp(1), 0)
            .unwrap();
        m.try_append_log(Record::undo_redo(k0.into(), a0.as_u64(), 0, 7, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k0.into(), Some(3)).with_timestamp(2), 0)
            .unwrap();
        let report = recover(&mut m, true);
        // k1 (ts 1) persisted; k0 (ts 2) fails its ulog check and rolls back.
        assert_eq!(report.redone, vec![k1]);
        assert_eq!(report.undone, vec![k0]);
        assert_eq!(word_at(&m, a1), 11);
        assert_eq!(word_at(&m, a0), 0);
    }

    #[test]
    fn dp_cutoff_spans_slices_in_timestamp_order() {
        let mut m = mc_sliced(2);
        let a0 = m.map().data_base();
        let a1 = Addr::new(a0.as_u64() + 8);
        let (k0, k1) = (key(0, 0), key(1, 0));
        // Thread 0 commits first but NON-persisted; thread 1 commits later
        // and is complete — the cutoff must still roll thread 1 back.
        m.try_append_log(Record::undo_redo(k0.into(), a0.as_u64(), 0, 7, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k0.into(), Some(5)).with_timestamp(1), 0)
            .unwrap();
        m.try_append_log(Record::undo_redo(k1.into(), a1.as_u64(), 0, 11, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(k1.into(), Some(0)).with_timestamp(2), 0)
            .unwrap();
        let report = recover(&mut m, true);
        assert!(report.redone.is_empty());
        assert_eq!(report.undone, vec![k0, k1]);
        assert_eq!(word_at(&m, a0), 0);
        assert_eq!(
            word_at(&m, a1),
            0,
            "later commit rolled back despite being complete"
        );
    }

    #[test]
    fn clear_log_empties_every_slice() {
        let mut m = mc_sliced(3);
        let a = m.map().data_base();
        for t in 0..3u8 {
            m.try_append_log(
                Record::undo_redo(key(t, 0).into(), a.as_u64(), 0, 1, 0xFF),
                0,
            )
            .unwrap();
        }
        recover(&mut m, false);
        for r in m.log_rings() {
            assert!(r.is_empty());
        }
    }
}
