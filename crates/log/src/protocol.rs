//! The recovery and truncation planners: the protocol core shared by
//! every backend and by the simulator.
//!
//! After a failure, recovery scans the log region(s) from head to tail and
//! hands the scanned slots to [`plan_replay`], which performs the entire
//! winner/loser determination of the MorLog protocol as a pure function:
//!
//! * **Classification** — every slot is valid, *torn* (a strict prefix of
//!   its data words persisted before the crash cut its drain short) or
//!   *corrupt* (its integrity footprint or metadata header fails).
//! * **Per-thread cutoffs** — the first damaged record in a thread's slice
//!   ends that thread's trustworthy region in that slice; later records of
//!   the thread there are dropped from winner determination and replay.
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
//!
//! While the log runs, [`plan_truncation`] decides how far each slice's
//! head may advance (§III-F): never splitting a transaction, and never
//! deleting a commit while an earlier one keeps records. The simulator's
//! log controller and the engine both truncate with it.

use std::collections::{HashMap, HashSet};

use crate::record::{RecordKind, TxTag};
use crate::ring::{Entry, Ring};

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
    // thread's slice ends that thread's trustworthy region there. A
    // sequence number orders records within one slice only, so the cutoff
    // is keyed by slice too. A damaged header may name the wrong thread;
    // then it cuts off records of that thread in its own slice only.
    let mut cutoff: HashMap<(usize, u8), u64> = HashMap::new();
    for (e, damage) in &classified {
        if damage.is_some() {
            let c = cutoff.entry((e.slice, e.tag.thread)).or_insert(e.seq);
            *c = (*c).min(e.seq);
        }
    }
    let usable = |e: &ScanEntry, damage: &Option<Damage>| {
        damage.is_none()
            && cutoff
                .get(&(e.slice, e.tag.thread))
                .is_none_or(|&c| e.seq < c)
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

/// Plans log truncation (§III-F) over every slice at once and returns
/// each slice's new head. `tag_of` reads a slot's transaction. Each slice
/// deletes the longest prefix of its ring in which
///
/// * every transaction is `deletable`;
/// * no transaction is split: none keeps a record in any slice, so
///   recovery sees a transaction completely or not at all;
/// * no commit-order hole opens: every deleted transaction committed
///   (`commit_order`, lowest first; `None` counts as last) before every
///   transaction that keeps records. Recovery replays survivors in
///   commit order and may roll back a commit and all later ones, so it
///   must never meet an earlier commit whose later one is gone.
///
/// A cut can expose a new split or hole, so each slot a cut gives back is
/// checked in turn, once, until no cut moves. A head lands at the end of the last deleted slot, or at the
/// start of the first kept one when a rule cut the deletable run short.
pub fn plan_truncation<T>(
    rings: &[Ring<T>],
    tag_of: impl Fn(&T) -> TxTag,
    deletable: impl Fn(TxTag) -> bool,
    commit_order: impl Fn(TxTag) -> Option<u64>,
) -> Vec<u64> {
    let tag = |e: &Entry<T>| tag_of(&e.value);
    let order = |t| commit_order(t).unwrap_or(u64::MAX);
    let runs: Vec<usize> = (rings.iter())
        .map(|ring| ring.entries().take_while(|e| deletable(tag(e))).count())
        .collect();
    // Per slice, the latest commit up to each slot of its run; and each
    // transaction's first slot in each run, sorted by transaction.
    let mut latest: Vec<Vec<u64>> = Vec::with_capacity(rings.len());
    let mut firsts: Vec<(TxTag, usize, usize)> = Vec::new();
    for (slice, (ring, &run)) in rings.iter().zip(&runs).enumerate() {
        let (mut max, mut upto) = (0, Vec::with_capacity(run));
        for (i, e) in ring.entries().take(run).enumerate() {
            firsts.push((tag(e), slice, i));
            max = max.max(order(tag(e)));
            upto.push(max);
        }
        latest.push(upto);
    }
    firsts.sort_unstable();
    firsts.dedup_by_key(|&mut (t, slice, _)| (t, slice));
    // Every slot past a cut is kept: it pulls its transaction's cuts back
    // to the transaction's first slots, and it may lower the earliest kept
    // commit, which pulls back every cut past a later commit. A pulled-back
    // cut keeps more slots, each of them once, until nothing moves.
    let mut cuts = runs.clone();
    let mut kept: Vec<(usize, usize, usize)> = Vec::new();
    if runs.iter().any(|&n| n > 0) {
        kept.extend(
            (rings.iter().zip(&runs).enumerate()).map(|(s, (r, &n))| (s, n, r.entries().len())),
        );
    }
    let mut first_kept = u64::MAX;
    while let Some((slice, from, to)) = kept.pop() {
        for e in rings[slice].entries().take(to).skip(from) {
            let t = tag(e);
            first_kept = first_kept.min(order(t));
            let at = firsts.partition_point(|f| f.0 < t);
            for &(_, s, i) in firsts[at..].iter().take_while(|f| f.0 == t) {
                pull(&mut cuts, &mut kept, s, i);
            }
        }
        if kept.is_empty() {
            for (s, latest) in latest.iter().enumerate() {
                pull(
                    &mut cuts,
                    &mut kept,
                    s,
                    latest.partition_point(|&m| m <= first_kept),
                );
            }
        }
    }
    (rings.iter().zip(runs).zip(cuts))
        .map(|((ring, run), n)| {
            if n < run {
                // A rule cut the run short: the start of the first kept slot.
                ring.entries().nth(n).map_or(ring.head(), |e| e.offset)
            } else {
                // The end of the last deleted slot, before any wrap remainder.
                let last = ring.entries().take(n).next_back();
                last.map_or(ring.head(), |e| {
                    e.offset + ring.geometry().slot_bytes(e.kind)
                })
            }
        })
        .collect()
}

/// Moves slice `s`'s truncation cut back to slot `i`, if that is earlier,
/// and queues the slots it gives back as kept.
fn pull(cuts: &mut [usize], kept: &mut Vec<(usize, usize, usize)>, s: usize, i: usize) {
    if i < cuts[s] {
        kept.push((s, i, cuts[s]));
        cuts[s] = i;
    }
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

    /// A byte-slot ring holding one slot per `(tag, kind)`, in order.
    fn ring(slots: &[(TxTag, RecordKind)]) -> Ring<TxTag> {
        let mut ring = Ring::new(crate::record::BYTE_SLOTS, 4096);
        for &(t, kind) in slots {
            ring.append(kind, |_| t).unwrap();
        }
        ring
    }

    /// Plans over `rings` where the transactions in `orders` committed, in
    /// that order, and are deletable.
    fn heads(rings: &[Ring<TxTag>], orders: &[TxTag]) -> Vec<u64> {
        let order = |t| orders.iter().position(|&o| o == t).map(|i| i as u64);
        plan_truncation(rings, |&t| t, |t| order(t).is_some(), order)
    }

    #[test]
    fn truncation_deletes_the_deletable_prefix_up_to_its_last_slot() {
        use RecordKind::{Commit, UndoRedo};
        let (a, b) = (tag(0, 0), tag(0, 1));
        let rings = [ring(&[(a, UndoRedo), (a, Commit), (b, UndoRedo)])];
        assert_eq!(heads(&rings, &[a]), [80], "end of a's commit slot");
        assert_eq!(heads(&rings, &[]), [0]);
    }

    #[test]
    fn truncation_never_splits_a_transaction() {
        use RecordKind::{Commit, UndoRedo};
        let (a, b, c) = (tag(0, 0), tag(1, 0), tag(2, 0));
        // a is deletable but keeps a slot behind the open c: only b goes,
        // and the head stops at a's first slot.
        let rings = [ring(&[
            (b, Commit),
            (a, UndoRedo),
            (c, UndoRedo),
            (a, Commit),
        ])];
        assert_eq!(heads(&rings, &[b, a]), [32]);
        // Cutting a off exposes b, which keeps a slot past the cut: the
        // cuts repeat until nothing is split, and nothing goes.
        let rings = [ring(&[
            (b, UndoRedo),
            (a, UndoRedo),
            (b, Commit),
            (c, UndoRedo),
            (a, Commit),
        ])];
        assert_eq!(heads(&rings, &[b, a]), [0]);
    }

    #[test]
    fn truncation_never_deletes_a_commit_while_an_earlier_one_stays() {
        use RecordKind::{Commit, UndoRedo};
        let (open, t0, t1) = (tag(2, 0), tag(0, 0), tag(1, 0));
        // t0 committed first but waits behind the open transaction in slice
        // 0, so slice 1 must keep t1 too.
        let rings = [
            ring(&[(open, UndoRedo), (t0, UndoRedo), (t0, Commit)]),
            ring(&[(t1, UndoRedo), (t1, Commit)]),
        ];
        assert_eq!(heads(&rings, &[t0, t1]), [0, 0]);
        // Once the open transaction commits, both slices empty.
        assert_eq!(heads(&rings, &[t0, t1, open]), [128, 80]);
    }
}
