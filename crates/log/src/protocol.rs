//! The recovery planner: the protocol core shared by every backend.
//!
//! After a failure, recovery scans the log region(s) from head to tail and
//! hands the scanned slots to [`plan_replay`], which performs the entire
//! winner/loser determination of the MorLog protocol as a pure function:
//!
//! * **Classification** — every slot is valid, *torn* (a strict prefix of
//!   its data words persisted before the crash cut its drain short) or
//!   *corrupt* (its integrity footprint or metadata header fails).
//! * **Per-thread cutoffs** — the first damaged record in a thread's slice
//!   ends that thread's trustworthy region; later records of the thread are
//!   dropped from winner determination and replay.
//! * **Winners** — committed transactions, ordered by commit timestamp
//!   (ties keep scan order). Under delay-persistence a committed
//!   transaction is persisted iff the number of usable redo entries
//!   appended after its commit record equals the logged ulog counter, and
//!   the first non-persisted commit cuts off every later one.
//! * **Replay schedule** — winners roll forward in commit order (records in
//!   append order within a transaction); losers roll back through the
//!   *globally oldest* undo anchor per word, in reverse `(slice, seq)`
//!   order. A damaged anchor means the write-ahead gate kept the word's
//!   in-place update from landing, so the word is skipped — it already
//!   holds the pre-transaction value.
//!
//! The simulator's hardened recovery (`morlog-logging`) maps its scanned
//! ring records into [`ScanEntry`] values and applies exactly the plan
//! computed here; the byte backends in this crate do the same. One
//! implementation, two worlds.

use std::collections::{HashMap, HashSet};

use crate::record::{RecordKind, TxTag};

/// One scanned log slot, in the backend-neutral form the planner consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEntry {
    /// Which log slice holds the slot.
    pub slice: usize,
    /// Append sequence number within the slice (recovery applies undos in
    /// reverse sequence order and redos forward).
    pub seq: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// Owning transaction.
    pub tag: TxTag,
    /// Home word address of the logged word.
    pub addr: u64,
    /// Undo data, when the slot carries it.
    pub undo: Option<u64>,
    /// Redo data (zero for commits).
    pub redo: u64,
    /// The ulog counter carried by commit records under delay-persistence.
    pub ulog_count: Option<u32>,
    /// Commit timestamp (cross-slice commit order).
    pub timestamp: u64,
    /// Data words that persisted before the crash cut the slot's drain
    /// short (fewer than `kind.data_words()` marks the slot torn).
    pub words_persisted: usize,
    /// Whether the slot's metadata header decoded.
    pub meta_ok: bool,
    /// Whether the slot's integrity footprint checks out.
    pub crc_ok: bool,
}

/// Why a scanned record is excluded from replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// A crash cut the slot's drain short: fewer data words persisted than
    /// the record kind carries.
    Torn,
    /// The slot's contents fail their integrity footprint (or the header
    /// fields are internally inconsistent).
    Corrupt,
}

/// Classifies one scanned slot. Torn wins over corrupt: a truncated slot
/// also fails its CRC, but the distinction matters for reporting.
pub fn classify(e: &ScanEntry) -> Option<Damage> {
    if e.words_persisted < e.kind.data_words() {
        return Some(Damage::Torn);
    }
    if !e.meta_ok {
        return Some(Damage::Corrupt);
    }
    if e.kind == RecordKind::UndoRedo && e.undo.is_none() {
        return Some(Damage::Corrupt);
    }
    if !e.crc_ok {
        return Some(Damage::Corrupt);
    }
    None
}

/// One replay write: store `value` to word address `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayWrite {
    /// Home word address.
    pub addr: u64,
    /// Absolute value to store (idempotent under re-application).
    pub value: u64,
}

/// The full recovery decision for one crash state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayPlan {
    /// Committed (and persisted) transactions to roll forward, commit order.
    pub winners: Vec<TxTag>,
    /// Transactions rolled back, sorted.
    pub undone: Vec<TxTag>,
    /// Forward replay writes, in apply order (winners in commit order,
    /// records in append order within a transaction).
    pub forward: Vec<ReplayWrite>,
    /// Backward replay writes, in apply order (reverse `(slice, seq)` over
    /// the valid oldest-anchor set).
    pub backward: Vec<ReplayWrite>,
    /// Slots scanned.
    pub records_scanned: usize,
    /// Slots classified torn.
    pub torn_records: usize,
    /// Slots classified corrupt.
    pub corrupt_records: usize,
    /// Undamaged slots dropped behind a damaged record of their thread.
    pub dropped_records: usize,
}

/// Computes the complete replay plan for a scanned log state. Pass
/// `delay_persistence = true` for logs whose transactions committed with
/// the delay-persistence protocol (ulog counters in commit records).
pub fn plan_replay(entries: &[ScanEntry], delay_persistence: bool) -> ReplayPlan {
    let mut plan = ReplayPlan {
        records_scanned: entries.len(),
        ..Default::default()
    };
    let classified: Vec<(&ScanEntry, Option<Damage>)> =
        entries.iter().map(|e| (e, classify(e))).collect();
    for (_, damage) in &classified {
        match damage {
            Some(Damage::Torn) => plan.torn_records += 1,
            Some(Damage::Corrupt) => plan.corrupt_records += 1,
            None => {}
        }
    }

    // Per-thread roll-forward cutoff: the first damaged record in a
    // thread's slice ends that thread's trustworthy region. (Damaged
    // records keep a readable header, so they still name their thread.)
    let mut cutoff: HashMap<u8, u64> = HashMap::new();
    for (e, damage) in &classified {
        if damage.is_some() {
            let c = cutoff.entry(e.tag.thread).or_insert(e.seq);
            *c = (*c).min(e.seq);
        }
    }
    let usable = |e: &ScanEntry, damage: &Option<Damage>| {
        damage.is_none() && cutoff.get(&e.tag.thread).is_none_or(|&c| e.seq < c)
    };
    plan.dropped_records = classified
        .iter()
        .filter(|(e, d)| d.is_none() && !usable(e, d))
        .count();

    // Commit records ordered by timestamp (ties keep scan order, which is
    // the ring order of the centralized log).
    let mut commits: Vec<&ScanEntry> = classified
        .iter()
        .filter(|(e, d)| e.kind == RecordKind::Commit && usable(e, d))
        .map(|(e, _)| *e)
        .collect();
    commits.sort_by_key(|e| e.timestamp);

    // Which committed transactions count as winners.
    let mut winner_set: HashSet<TxTag> = HashSet::new();
    if delay_persistence {
        // A committed transaction is persisted iff the number of redo
        // entries appended after its commit record equals the logged ulog
        // counter. Only usable records count — a damaged or dropped redo
        // entry must demote its transaction. The first non-persisted
        // commit cuts off everything that committed later (persistence
        // must follow commit order).
        for commit in &commits {
            let ulog = commit.ulog_count.unwrap_or(0) as usize;
            let post_redo = classified
                .iter()
                .filter(|(e, d)| {
                    usable(e, d)
                        && e.kind == RecordKind::Redo
                        && e.tag == commit.tag
                        && e.seq > commit.seq
                })
                .count();
            if post_redo == ulog {
                plan.winners.push(commit.tag);
                winner_set.insert(commit.tag);
            } else {
                break;
            }
        }
    } else {
        for commit in &commits {
            plan.winners.push(commit.tag);
            winner_set.insert(commit.tag);
        }
    }

    // Group usable data records per transaction, preserving append order.
    let mut by_tx: HashMap<TxTag, Vec<&ScanEntry>> = HashMap::new();
    for (e, d) in &classified {
        if e.kind != RecordKind::Commit && usable(e, d) {
            by_tx.entry(e.tag).or_default().push(e);
        }
    }

    // Forward pass: winners in commit order, records in append order.
    for tag in &plan.winners {
        if let Some(recs) = by_tx.get(tag) {
            for e in recs {
                plan.forward.push(ReplayWrite {
                    addr: e.addr,
                    value: e.redo,
                });
            }
        }
    }

    // Backward pass. When several rolled-back transactions touched a word,
    // their undo values chain: each one's undo is the previous one's
    // write, so walking the whole chain in reverse lands on the undo of
    // the *globally oldest* rolled-back entry — the last value the
    // surviving winners produced. We therefore anchor each word at that
    // single oldest entry across all rolled-back transactions and apply
    // only it. A damaged anchor means the slot was still in flight at the
    // crash, so the write-ahead gate kept every later store to the word's
    // line from persisting — the in-place state (plus the forward replay
    // above) already holds the pre-rollback value and the word is skipped.
    let mut undone_set: HashSet<TxTag> = HashSet::new();
    let mut anchors: HashMap<u64, &(&ScanEntry, Option<Damage>)> = HashMap::new();
    for c in &classified {
        let e = c.0;
        if e.kind != RecordKind::UndoRedo || winner_set.contains(&e.tag) {
            continue;
        }
        undone_set.insert(e.tag);
        anchors
            .entry(e.addr)
            .and_modify(|cur| {
                if (e.slice, e.seq) < (cur.0.slice, cur.0.seq) {
                    *cur = c;
                }
            })
            .or_insert(c);
    }
    let mut undos: Vec<(usize, u64, u64, u64)> = Vec::new();
    for (&addr, (e, damage)) in &anchors {
        if damage.is_none() {
            if let Some(undo) = e.undo {
                undos.push((e.slice, e.seq, addr, undo));
            }
        }
    }
    undos.sort_by_key(|&(slice, seq, _, _)| (slice, seq));
    for &(_, _, addr, undo) in undos.iter().rev() {
        plan.backward.push(ReplayWrite { addr, value: undo });
    }

    // Committed-but-unpersisted transactions past the delay-persistence
    // cutoff — and transactions whose commit record was dropped behind a
    // damaged record — are rolled back even if only their commit record
    // names them.
    for (e, _) in &classified {
        if e.kind == RecordKind::Commit && !winner_set.contains(&e.tag) {
            undone_set.insert(e.tag);
        }
    }
    let mut undone: Vec<TxTag> = undone_set.into_iter().collect();
    undone.sort();
    plan.undone = undone;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(t: u8, x: u16) -> TxTag {
        TxTag::new(t, x)
    }

    fn valid(
        slice: usize,
        seq: u64,
        kind: RecordKind,
        t: TxTag,
        addr: u64,
        undo: Option<u64>,
        redo: u64,
    ) -> ScanEntry {
        ScanEntry {
            slice,
            seq,
            kind,
            tag: t,
            addr,
            undo,
            redo,
            ulog_count: None,
            timestamp: 0,
            words_persisted: kind.data_words(),
            meta_ok: true,
            crc_ok: true,
        }
    }

    #[test]
    fn committed_tx_rolls_forward() {
        let k = tag(0, 0);
        let entries = vec![
            valid(0, 0, RecordKind::UndoRedo, k, 0x40, Some(0), 42),
            valid(0, 1, RecordKind::Commit, k, 0, None, 0),
        ];
        let plan = plan_replay(&entries, false);
        assert_eq!(plan.winners, vec![k]);
        assert!(plan.undone.is_empty());
        assert_eq!(
            plan.forward,
            vec![ReplayWrite {
                addr: 0x40,
                value: 42
            }]
        );
        assert!(plan.backward.is_empty());
        assert_eq!(
            (
                plan.torn_records,
                plan.corrupt_records,
                plan.dropped_records
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn uncommitted_tx_rolls_back_through_oldest_anchor() {
        let k = tag(0, 0);
        let entries = vec![
            valid(0, 0, RecordKind::UndoRedo, k, 0x40, Some(10), 20),
            valid(0, 1, RecordKind::UndoRedo, k, 0x40, Some(20), 30),
        ];
        let plan = plan_replay(&entries, false);
        assert!(plan.winners.is_empty());
        assert_eq!(plan.undone, vec![k]);
        assert_eq!(
            plan.backward,
            vec![ReplayWrite {
                addr: 0x40,
                value: 10
            }],
            "oldest anchor wins"
        );
    }

    #[test]
    fn torn_record_cuts_off_later_commit_of_its_thread() {
        let k = tag(0, 0);
        let mut torn = valid(0, 1, RecordKind::UndoRedo, k, 0x48, Some(6), 60);
        torn.words_persisted = 1;
        let entries = vec![
            valid(0, 0, RecordKind::UndoRedo, k, 0x40, Some(5), 50),
            torn,
            valid(0, 2, RecordKind::Commit, k, 0, None, 0),
        ];
        let plan = plan_replay(&entries, false);
        assert_eq!(plan.torn_records, 1);
        assert_eq!(plan.dropped_records, 1, "the commit behind the damage");
        assert!(plan.winners.is_empty());
        assert_eq!(plan.undone, vec![k]);
        // The valid anchor applies; the torn anchor's word is skipped.
        assert_eq!(
            plan.backward,
            vec![ReplayWrite {
                addr: 0x40,
                value: 5
            }]
        );
    }

    #[test]
    fn dp_persistence_cutoff_follows_commit_order() {
        let (k1, k2, k3) = (tag(0, 0), tag(0, 1), tag(0, 2));
        let mut entries = vec![
            valid(0, 0, RecordKind::UndoRedo, k1, 0x00, Some(0), 1),
            valid(0, 1, RecordKind::Commit, k1, 0, None, 0),
            valid(0, 2, RecordKind::Redo, k1, 0x00, None, 11),
            valid(0, 3, RecordKind::UndoRedo, k2, 0x08, Some(0), 2),
            valid(0, 4, RecordKind::Commit, k2, 0, None, 0),
            valid(0, 5, RecordKind::Redo, k2, 0x08, None, 22),
            valid(0, 6, RecordKind::UndoRedo, k3, 0x10, Some(0), 3),
            valid(0, 7, RecordKind::Commit, k3, 0, None, 0),
        ];
        entries[1].ulog_count = Some(1);
        entries[1].timestamp = 1;
        entries[4].ulog_count = Some(2); // claims 2, only 1 arrived
        entries[4].timestamp = 2;
        entries[7].ulog_count = Some(0);
        entries[7].timestamp = 3;
        let plan = plan_replay(&entries, true);
        assert_eq!(plan.winners, vec![k1]);
        assert_eq!(plan.undone, vec![k2, k3]);
    }

    #[test]
    fn empty_scan_is_a_noop_plan() {
        assert_eq!(plan_replay(&[], true), ReplayPlan::default());
    }
}
