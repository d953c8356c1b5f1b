//! The volatile log FIFOs: the undo+redo buffer and the redo buffer
//! (§III-A, §III-B), and the overflow and commit-record queues the
//! controller keeps beside them — four instances of one type,
//! [`RecordFifo`], whose capacity is data.
//!
//! Both buffers are small SRAM FIFOs in the processor (Table I: 16 ×
//! 202-bit undo+redo entries, 32 × 138-bit redo entries by default).
//! Entries for the same word of the same transaction coalesce in place
//! while buffered; the undo+redo buffer evicts entries *eagerly* after a
//! fixed number of cycles (below the minimum cache-traversal latency, to
//! keep undo data ahead of updated data), while the redo buffer evicts
//! *lazily* to maximise the chance of coalescing or discarding redo data.
//! The two queues are unbounded: records forced out of the buffers by
//! events that cannot stall, and commit records waiting to append.
//!
//! Whichever FIFO a record leaves for the log ring, it leaves through one
//! controller helper, which also states which flushes report the
//! undo+redo records they persisted (see
//! [`PersistedUr`](crate::controller::PersistedUr)).
//!
//! # Per-transaction counts
//!
//! The controller asks, for every pending commit on every stepped cycle,
//! whether a transaction still has records — or undo+redo records — in a
//! FIFO. Each [`RecordFifo`] therefore counts both per transaction,
//! updated by every method that adds or removes a record, so
//! [`RecordFifo::has_tx`] and [`RecordFifo::has_undo`] answer without a
//! scan and [`RecordFifo::find_tx_front`] returns at once for a
//! transaction with nothing queued. Lookups by word or by cache line
//! still scan: the buffers hold at most a few dozen entries.

use std::collections::VecDeque;

use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_sim_core::{Addr, Cycle};

/// Index of the cache line holding a record's home word.
pub(crate) fn home_line(record: &Record) -> u64 {
    Addr::new(record.addr).line().index()
}

/// One transaction's records in one FIFO.
#[derive(Debug, Clone, Copy)]
struct TxCount {
    txid: u16,
    /// All its records.
    records: u32,
    /// Its undo+redo records.
    undo: u32,
}

/// How many records each transaction has in one FIFO, kept per thread. A
/// thread has one transaction running and at most a few committed ones
/// with records still queued, so a lookup indexes the thread and scans a
/// list of one or two.
#[derive(Debug, Clone, Default)]
struct TxCounts {
    by_thread: Vec<Vec<TxCount>>,
}

impl TxCounts {
    /// Counts `record`.
    fn add(&mut self, record: &Record) {
        let (tag, undo) = (record.tag, u32::from(record.kind == RecordKind::UndoRedo));
        let t = tag.thread as usize;
        if t >= self.by_thread.len() {
            self.by_thread.resize_with(t + 1, Vec::new);
        }
        let list = &mut self.by_thread[t];
        match list.iter_mut().find(|c| c.txid == tag.txid) {
            Some(c) => {
                c.records += 1;
                c.undo += undo;
            }
            None => list.push(TxCount {
                txid: tag.txid,
                records: 1,
                undo,
            }),
        }
    }

    /// Stops counting `record`.
    ///
    /// # Panics
    ///
    /// Panics if no record of its transaction is counted.
    fn sub(&mut self, record: &Record) {
        let list = &mut self.by_thread[record.tag.thread as usize];
        let i = list
            .iter()
            .position(|c| c.txid == record.tag.txid)
            .expect("removed a record that was never counted");
        list[i].records -= 1;
        list[i].undo -= u32::from(record.kind == RecordKind::UndoRedo);
        if list[i].records == 0 {
            list.swap_remove(i);
        }
    }

    /// The counts of `tag`, if any of its records is counted.
    fn get(&self, tag: TxTag) -> Option<&TxCount> {
        self.by_thread
            .get(tag.thread as usize)?
            .iter()
            .find(|c| c.txid == tag.txid)
    }

    /// Forgets every count.
    fn clear(&mut self) {
        self.by_thread.iter_mut().for_each(Vec::clear);
    }
}

/// A queued log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The record (coalescing mutates `redo` and `dirty_mask`).
    pub record: Record,
    /// Cycle the record was queued (age drives buffer eviction).
    pub created: Cycle,
}

/// A FIFO of log records with a capacity, by-word coalescing lookup and
/// per-transaction counts.
///
/// # Example
///
/// ```
/// use morlog_log::record::{Record, TxTag};
/// use morlog_logging::buffer::RecordFifo;
/// use morlog_sim_core::Addr;
///
/// let mut buf = RecordFifo::new(4);
/// let tag = TxTag::new(0, 0);
/// buf.try_push(Record::undo_redo(tag, 0x40, 1, 2, 0xFF), 100).unwrap();
/// assert!(buf.find_mut(tag, Addr::new(0x40)).is_some());
/// assert!(buf.has_tx(tag) && buf.has_undo(tag));
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RecordFifo {
    entries: VecDeque<Pending>,
    capacity: usize,
    per_tx: TxCounts,
    /// See [`RecordFifo::changes`].
    changes: u64,
}

/// Error returned by [`RecordFifo::try_push`] when the FIFO is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull;

impl RecordFifo {
    /// Creates an empty FIFO with room for `capacity` records (may be
    /// zero — FWB-Unsafe folds the redo buffer away).
    pub fn new(capacity: usize) -> Self {
        RecordFifo {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            per_tx: TxCounts::default(),
            changes: 0,
        }
    }

    /// Creates an empty FIFO that is never full.
    pub fn unbounded() -> Self {
        RecordFifo {
            capacity: usize::MAX,
            ..Self::new(0)
        }
    }

    /// The configured capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends `record`, queued at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFull`] when at capacity (the caller decides whether
    /// to evict the head to NVMM, queue the record elsewhere or stall).
    pub fn try_push(&mut self, record: Record, now: Cycle) -> Result<(), BufferFull> {
        if self.is_full() {
            return Err(BufferFull);
        }
        self.per_tx.add(&record);
        self.entries.push_back(Pending {
            record,
            created: now,
        });
        self.changes += 1;
        Ok(())
    }

    /// Appends `record` to a FIFO known to have room.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full.
    pub fn push(&mut self, record: Record, now: Cycle) {
        self.try_push(record, now).expect("pushed onto a full FIFO");
    }

    /// The oldest record, if any.
    pub fn front(&self) -> Option<&Pending> {
        self.entries.front()
    }

    /// The record at `pos` (0 is the oldest), if any.
    pub fn get(&self, pos: usize) -> Option<&Pending> {
        self.entries.get(pos)
    }

    /// The position of the oldest record `pred` accepts.
    pub fn position(&self, pred: impl FnMut(&Pending) -> bool) -> Option<usize> {
        self.entries.iter().position(pred)
    }

    /// The position of the record for `(tag, word address)`.
    fn position_of(&self, tag: TxTag, addr: Addr) -> Option<usize> {
        let addr = addr.word_base().as_u64();
        if !self.has_tx(tag) {
            return None;
        }
        self.position(|p| p.record.tag == tag && p.record.addr == addr)
    }

    /// Finds the record for `(tag, word address)`, for coalescing. The
    /// caller may change the record's data but not its tag, kind or
    /// address, which the counts and lookups key on.
    pub fn find_mut(&mut self, tag: TxTag, addr: Addr) -> Option<&mut Pending> {
        let pos = self.position_of(tag, addr)?;
        // The caller may change what it found.
        self.changes += 1;
        self.entries.get_mut(pos)
    }

    /// Whether a record for `(tag, word address)` is queued.
    pub fn contains(&self, tag: TxTag, addr: Addr) -> bool {
        self.position_of(tag, addr).is_some()
    }

    /// Removes and returns the record at `pos` (0 is the oldest).
    pub fn remove_at(&mut self, pos: usize) -> Option<Pending> {
        let p = self.entries.remove(pos)?;
        self.per_tx.sub(&p.record);
        self.changes += 1;
        Some(p)
    }

    /// Removes the record for `(tag, word address)` (redo-discard, §III-B).
    pub fn remove(&mut self, tag: TxTag, addr: Addr) -> Option<Pending> {
        let pos = self.position_of(tag, addr)?;
        self.remove_at(pos)
    }

    /// Keeps only the records `keep` accepts, in order; returns how many
    /// were removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&Record) -> bool) -> usize {
        let before = self.entries.len();
        let per_tx = &mut self.per_tx;
        self.entries.retain(|p| {
            let kept = keep(&p.record);
            if !kept {
                per_tx.sub(&p.record);
            }
            kept
        });
        let removed = before - self.entries.len();
        self.changes += u64::from(removed != 0);
        removed
    }

    /// Whether any record belongs to transaction `tag`.
    pub fn has_tx(&self, tag: TxTag) -> bool {
        self.per_tx.get(tag).is_some()
    }

    /// Whether any undo+redo record belongs to transaction `tag`.
    pub fn has_undo(&self, tag: TxTag) -> bool {
        self.per_tx.get(tag).is_some_and(|c| c.undo > 0)
    }

    /// The position of the oldest record of transaction `tag` (commit
    /// flush pulls a transaction's entries in FIFO order, preserving
    /// per-word undo ordering, §III-C).
    pub fn find_tx_front(&self, tag: TxTag) -> Option<usize> {
        if !self.has_tx(tag) {
            return None;
        }
        self.position(|p| p.record.tag == tag)
    }

    /// Drops everything (crash: the FIFOs are volatile SRAM).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.per_tx.clear();
        self.changes += 1;
    }

    /// A counter that moves on every change to the FIFO: every push,
    /// removal, clear and every `find_mut` that found a record. While it
    /// stays put, the FIFO holds the same records in the same order.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::rng::DetRng;

    fn key(t: u8, x: u16) -> TxTag {
        TxTag::new(t, x)
    }

    fn rec(k: TxTag, addr: u64) -> Record {
        Record::undo_redo(k, addr, 0, 1, 0xFF)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = RecordFifo::new(8);
        for i in 0..5u64 {
            b.push(rec(key(0, 0), i * 8), i);
        }
        for i in 0..5u64 {
            assert_eq!(b.remove_at(0).unwrap().record.addr, i * 8);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut b = RecordFifo::new(2);
        b.push(rec(key(0, 0), 0), 0);
        b.push(rec(key(0, 0), 8), 0);
        assert_eq!(b.try_push(rec(key(0, 0), 16), 0), Err(BufferFull));
        assert!(b.is_full());
        assert!(!RecordFifo::unbounded().is_full());
    }

    #[test]
    fn zero_capacity_always_full() {
        let mut b = RecordFifo::new(0);
        assert_eq!(b.try_push(rec(key(0, 0), 0), 0), Err(BufferFull));
    }

    #[test]
    fn coalescing_lookup_matches_key_and_word() {
        let mut b = RecordFifo::new(8);
        b.push(rec(key(0, 1), 0x40), 0);
        assert!(b.find_mut(key(0, 1), Addr::new(0x40)).is_some());
        assert!(
            b.find_mut(key(0, 1), Addr::new(0x43)).is_some(),
            "byte within word"
        );
        assert!(
            b.find_mut(key(0, 1), Addr::new(0x48)).is_none(),
            "other word"
        );
        assert!(b.find_mut(key(0, 2), Addr::new(0x40)).is_none(), "other tx");
    }

    #[test]
    fn retain_by_line_discards_whole_line() {
        let mut b = RecordFifo::new(8);
        // Words of line 1 (0x40..0x80) and one of line 2.
        b.push(rec(key(0, 0), 0x40), 0);
        b.push(rec(key(0, 0), 0x48), 0);
        b.push(rec(key(0, 0), 0x80), 0);
        assert_eq!(b.retain(|r| home_line(r) != 1), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.position(|p| home_line(&p.record) == 2), Some(0));
        assert_eq!(b.position(|p| home_line(&p.record) == 1), None);
    }

    #[test]
    fn clear_empties() {
        let mut b = RecordFifo::new(4);
        b.push(rec(key(0, 0), 0), 0);
        b.clear();
        assert!(b.is_empty());
    }

    /// Random operations on a bounded and an unbounded FIFO with both
    /// record kinds, checking after each one that the per-transaction
    /// counts answer exactly what a scan would.
    #[test]
    fn per_tx_counts_match_linear_scans() {
        let mut rng = DetRng::new(0x10B_B0FF);
        let keys: Vec<TxTag> = (0..3)
            .flat_map(|t| (0..2).map(move |x| key(t, x)))
            .collect();
        let mut fifos = [RecordFifo::new(12), RecordFifo::unbounded()];
        for step in 0..20_000 {
            let k = keys[rng.gen_range(keys.len() as u64) as usize];
            let addr = rng.gen_range(6) * 0x20;
            let b = &mut fifos[rng.gen_range(2) as usize];
            match rng.gen_range(10) {
                0..=3 => {
                    let r = if rng.gen_bool(0.5) {
                        rec(k, addr)
                    } else {
                        Record::redo_only(k, addr, 1, 0xFF)
                    };
                    let _ = b.try_push(r, step);
                }
                4 => {
                    b.remove_at(rng.gen_range(b.len() as u64 + 1) as usize);
                }
                5 => {
                    b.remove(k, Addr::new(addr));
                }
                6 if rng.gen_bool(0.5) => {
                    b.retain(|r| home_line(r) != addr / 64);
                }
                6 => {
                    b.retain(|r| r.kind != RecordKind::Redo || home_line(r) != addr / 64);
                }
                7 => {
                    if let Some(p) = b.find_mut(k, Addr::new(addr)) {
                        p.record.redo += 1;
                    }
                }
                8 => {
                    b.remove_at(0);
                }
                _ if rng.gen_range(20) == 0 => b.clear(),
                _ => {}
            }
            for b in &fifos {
                assert!(b.len() <= b.capacity());
                for &tag in &keys {
                    assert_eq!(
                        b.has_tx(tag),
                        b.entries.iter().any(|p| p.record.tag == tag),
                        "has_tx, step {step}"
                    );
                    assert_eq!(
                        b.has_undo(tag),
                        b.entries
                            .iter()
                            .any(|p| p.record.tag == tag && p.record.kind == RecordKind::UndoRedo),
                        "has_undo, step {step}"
                    );
                    assert_eq!(
                        b.find_tx_front(tag),
                        b.entries.iter().position(|p| p.record.tag == tag),
                        "find_tx_front, step {step}"
                    );
                }
            }
        }
    }
}
