//! The volatile log FIFOs: the undo+redo buffer and the redo buffer
//! (§III-A, §III-B), and the record queues the controller keeps beside
//! them.
//!
//! Both buffers are small SRAM FIFOs in the processor (Table I: 16 ×
//! 202-bit undo+redo entries, 32 × 138-bit redo entries by default).
//! Entries for the same word of the same transaction coalesce in place
//! while buffered; the undo+redo buffer evicts entries *eagerly* after a
//! fixed number of cycles (below the minimum cache-traversal latency, to
//! keep undo data ahead of updated data), while the redo buffer evicts
//! *lazily* to maximise the chance of coalescing or discarding redo data.
//!
//! # Per-transaction counts
//!
//! The controller asks, for every pending commit on every stepped cycle,
//! whether a transaction still has anything buffered or queued. Each
//! [`LogBuffer`] and each `RecordQueue` therefore keeps a count of its
//! entries per transaction, updated by every method that adds or removes
//! one, so their `has_tx` answers without a scan and
//! [`LogBuffer::find_tx_front`] returns at once for a transaction with
//! nothing buffered. Lookups by word or by cache line still scan: the
//! buffers hold at most a few dozen entries.

use std::collections::VecDeque;

use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_sim_core::{Addr, Cycle};

/// Index of the cache line holding a record's home word.
pub(crate) fn home_line(record: &Record) -> u64 {
    Addr::new(record.addr).line().index()
}

/// How many entries each transaction has in one queue: a multiset of
/// [`TxTag`]s, kept per thread. A thread has one transaction running and
/// at most a few committed ones with entries still queued, so a lookup
/// indexes the thread and scans a list of one or two.
#[derive(Debug, Clone, Default)]
struct TxCounts {
    /// `(txid, count)` pairs per thread index.
    by_thread: Vec<Vec<(u16, u32)>>,
}

impl TxCounts {
    /// Counts one more entry of `tag`.
    fn add(&mut self, tag: TxTag) {
        let t = tag.thread as usize;
        if t >= self.by_thread.len() {
            self.by_thread.resize_with(t + 1, Vec::new);
        }
        let list = &mut self.by_thread[t];
        match list.iter_mut().find(|(x, _)| *x == tag.txid) {
            Some((_, n)) => *n += 1,
            None => list.push((tag.txid, 1)),
        }
    }

    /// Counts one entry of `tag` fewer.
    ///
    /// # Panics
    ///
    /// Panics if no entry of `tag` is counted.
    fn sub(&mut self, tag: TxTag) {
        let list = &mut self.by_thread[tag.thread as usize];
        let i = list
            .iter()
            .position(|(x, _)| *x == tag.txid)
            .expect("removed an entry that was never counted");
        list[i].1 -= 1;
        if list[i].1 == 0 {
            list.swap_remove(i);
        }
    }

    /// Whether any entry of `tag` is counted.
    fn contains(&self, tag: TxTag) -> bool {
        self.by_thread
            .get(tag.thread as usize)
            .is_some_and(|list| list.iter().any(|(x, _)| *x == tag.txid))
    }

    /// Forgets every count.
    fn clear(&mut self) {
        self.by_thread.iter_mut().for_each(Vec::clear);
    }
}

/// A buffered log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The entry contents (coalescing mutates `redo` and `dirty_mask`).
    pub record: Record,
    /// Cycle the entry was created (age drives eager eviction).
    pub created: Cycle,
}

/// A fixed-capacity FIFO log buffer with by-address coalescing lookup.
///
/// # Example
///
/// ```
/// use morlog_log::record::Record;
/// use morlog_logging::buffer::LogBuffer;
/// use morlog_log::record::TxTag;
/// use morlog_sim_core::Addr;
///
/// let mut buf = LogBuffer::new(4);
/// let tag = TxTag::new(0, 0);
/// buf.push(Record::undo_redo(tag, 0x40, 1, 2, 0xFF), 100).unwrap();
/// assert!(buf.find_mut(tag, Addr::new(0x40)).is_some());
/// assert!(buf.has_tx(tag));
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogBuffer {
    entries: VecDeque<Pending>,
    capacity: usize,
    /// Entries per transaction.
    per_tx: TxCounts,
    /// See [`LogBuffer::changes`].
    changes: u64,
}

/// Error returned by [`LogBuffer::push`] when the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull;

impl LogBuffer {
    /// Creates an empty buffer with `capacity` entries (may be zero —
    /// FWB-Unsafe folds the redo buffer away).
    pub fn new(capacity: usize) -> Self {
        LogBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            per_tx: TxCounts::default(),
            changes: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFull`] when at capacity (the caller decides whether
    /// to evict the head to NVMM or stall the store).
    pub fn push(&mut self, record: Record, now: Cycle) -> Result<(), BufferFull> {
        if self.is_full() {
            return Err(BufferFull);
        }
        self.per_tx.add(record.tag);
        self.entries.push_back(Pending {
            record,
            created: now,
        });
        self.changes += 1;
        Ok(())
    }

    /// Finds the buffered entry for `(tag, word address)`, for coalescing.
    /// The caller may change the entry's data but not its tag or address,
    /// which are the lookup key.
    pub fn find_mut(&mut self, tag: TxTag, addr: Addr) -> Option<&mut Pending> {
        let addr = addr.word_base().as_u64();
        if !self.per_tx.contains(tag) {
            return None;
        }
        let found = self
            .entries
            .iter_mut()
            .find(|p| p.record.tag == tag && p.record.addr == addr);
        // The caller may change what it found.
        self.changes += u64::from(found.is_some());
        found
    }

    /// Whether an entry for `(tag, word address)` is buffered.
    pub fn contains(&self, tag: TxTag, addr: Addr) -> bool {
        let addr = addr.word_base().as_u64();
        self.per_tx.contains(tag)
            && self
                .entries
                .iter()
                .any(|p| p.record.tag == tag && p.record.addr == addr)
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&Pending> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<Pending> {
        let p = self.entries.pop_front()?;
        self.per_tx.sub(p.record.tag);
        self.changes += 1;
        Some(p)
    }

    /// Removes the entry for `(tag, word address)` (redo-discard, §III-B).
    pub fn remove(&mut self, tag: TxTag, addr: Addr) -> Option<Pending> {
        let addr = addr.word_base().as_u64();
        if !self.per_tx.contains(tag) {
            return None;
        }
        let pos = self
            .entries
            .iter()
            .position(|p| p.record.tag == tag && p.record.addr == addr)?;
        self.per_tx.sub(tag);
        self.changes += 1;
        self.entries.remove(pos)
    }

    /// Removes every entry whose word lies in cache line `line_index`
    /// (LLC-eviction discard); returns how many were removed.
    pub fn remove_line(&mut self, line_index: u64) -> usize {
        let before = self.entries.len();
        let per_tx = &mut self.per_tx;
        self.entries.retain(|p| {
            let keep = home_line(&p.record) != line_index;
            if !keep {
                per_tx.sub(p.record.tag);
            }
            keep
        });
        let removed = before - self.entries.len();
        self.changes += u64::from(removed != 0);
        removed
    }

    /// Whether any entry belongs to transaction `tag`.
    pub fn has_tx(&self, tag: TxTag) -> bool {
        self.per_tx.contains(tag)
    }

    /// The oldest entry belonging to transaction `tag` (commit flush pulls
    /// a transaction's entries in FIFO order, preserving per-word undo
    /// ordering, §III-C).
    pub fn find_tx_front(&self, tag: TxTag) -> Option<Pending> {
        if !self.per_tx.contains(tag) {
            return None;
        }
        self.entries.iter().find(|p| p.record.tag == tag).copied()
    }

    /// The oldest entry whose word lies in cache line `line_index`.
    pub fn find_line_front(&self, line_index: u64) -> Option<Pending> {
        self.entries
            .iter()
            .find(|p| home_line(&p.record) == line_index)
            .copied()
    }

    /// Whether any entry's word lies in cache line `line_index`.
    pub fn has_line(&self, line_index: u64) -> bool {
        self.entries
            .iter()
            .any(|p| home_line(&p.record) == line_index)
    }

    /// Iterates buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Pending> + '_ {
        self.entries.iter()
    }

    /// Drops everything (crash: the buffers are volatile SRAM).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.per_tx.clear();
        self.changes += 1;
    }

    /// A counter that moves on every change to the buffer: every push,
    /// removal, clear and every `find_mut` that found an entry. While it
    /// stays put, the buffer holds the same entries in the same order.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

/// Per-transaction counts of a [`RecordQueue`]: all its records, and its
/// undo+redo records.
#[derive(Debug, Clone, Default)]
struct QueueCounts {
    all: TxCounts,
    undo: TxCounts,
}

impl QueueCounts {
    fn add(&mut self, record: &Record) {
        self.all.add(record.tag);
        if record.kind == RecordKind::UndoRedo {
            self.undo.add(record.tag);
        }
    }

    fn sub(&mut self, record: &Record) {
        self.all.sub(record.tag);
        if record.kind == RecordKind::UndoRedo {
            self.undo.sub(record.tag);
        }
    }
}

/// An unbounded FIFO of log records that counts, per transaction, its
/// records and its undo+redo records. The controller keeps two: the
/// overflow queue of records forced out of the buffers, and the queue of
/// commit records waiting to append.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecordQueue {
    records: VecDeque<Record>,
    counts: QueueCounts,
    /// See [`RecordQueue::changes`].
    changes: u64,
}

impl RecordQueue {
    /// Records queued.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push_back(&mut self, record: Record) {
        self.counts.add(&record);
        self.records.push_back(record);
        self.changes += 1;
    }

    /// The oldest record, if any.
    pub fn front(&self) -> Option<&Record> {
        self.records.front()
    }

    /// Removes and returns the oldest record.
    pub fn pop_front(&mut self) -> Option<Record> {
        let record = self.records.pop_front()?;
        self.counts.sub(&record);
        self.changes += 1;
        Some(record)
    }

    /// Removes and returns the record at `pos` (0 is the oldest).
    pub fn remove(&mut self, pos: usize) -> Option<Record> {
        let record = self.records.remove(pos)?;
        self.counts.sub(&record);
        self.changes += 1;
        Some(record)
    }

    /// Keeps only the records `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Record) -> bool) {
        let counts = &mut self.counts;
        self.changes += 1;
        self.records.retain(|r| {
            let kept = keep(r);
            if !kept {
                counts.sub(r);
            }
            kept
        });
    }

    /// Iterates the queued records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Record> + '_ {
        self.records.iter()
    }

    /// The position of the oldest record `pred` accepts.
    pub fn position(&self, pred: impl FnMut(&Record) -> bool) -> Option<usize> {
        self.records.iter().position(pred)
    }

    /// Whether any record of transaction `tag` is queued.
    pub fn has_tx(&self, tag: TxTag) -> bool {
        self.counts.all.contains(tag)
    }

    /// Whether any undo+redo record of transaction `tag` is queued.
    pub fn has_undo(&self, tag: TxTag) -> bool {
        self.counts.undo.contains(tag)
    }

    /// Drops everything (crash: the queues are volatile).
    pub fn clear(&mut self) {
        self.records.clear();
        self.counts.all.clear();
        self.counts.undo.clear();
        self.changes += 1;
    }

    /// A counter that moves on every change to the queue, as
    /// [`LogBuffer::changes`] does for a buffer.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

impl std::ops::Index<usize> for RecordQueue {
    type Output = Record;

    /// The record at `pos` (0 is the oldest).
    fn index(&self, pos: usize) -> &Record {
        &self.records[pos]
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
        let mut b = LogBuffer::new(8);
        for i in 0..5u64 {
            b.push(rec(key(0, 0), i * 8), i).unwrap();
        }
        for i in 0..5u64 {
            assert_eq!(b.pop_front().unwrap().record.addr, i * 8);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut b = LogBuffer::new(2);
        b.push(rec(key(0, 0), 0), 0).unwrap();
        b.push(rec(key(0, 0), 8), 0).unwrap();
        assert_eq!(b.push(rec(key(0, 0), 16), 0), Err(BufferFull));
        assert!(b.is_full());
    }

    #[test]
    fn zero_capacity_always_full() {
        let mut b = LogBuffer::new(0);
        assert_eq!(b.push(rec(key(0, 0), 0), 0), Err(BufferFull));
    }

    #[test]
    fn coalescing_lookup_matches_key_and_word() {
        let mut b = LogBuffer::new(8);
        b.push(rec(key(0, 1), 0x40), 0).unwrap();
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
    fn remove_line_discards_whole_line() {
        let mut b = LogBuffer::new(8);
        // Words of line 1 (0x40..0x80) and one of line 2.
        b.push(rec(key(0, 0), 0x40), 0).unwrap();
        b.push(rec(key(0, 0), 0x48), 0).unwrap();
        b.push(rec(key(0, 0), 0x80), 0).unwrap();
        assert_eq!(b.remove_line(1), 2);
        assert_eq!(b.len(), 1);
        assert!(b.has_line(2));
        assert!(!b.has_line(1));
    }

    #[test]
    fn clear_empties() {
        let mut b = LogBuffer::new(4);
        b.push(rec(key(0, 0), 0), 0).unwrap();
        b.clear();
        assert!(b.is_empty());
    }

    /// Random buffer and queue operations, checking after each one that
    /// the per-transaction counts answer exactly what a scan would.
    #[test]
    fn per_tx_counts_match_linear_scans() {
        let mut rng = DetRng::new(0x10B_B0FF);
        let keys: Vec<TxTag> = (0..3)
            .flat_map(|t| (0..2).map(move |x| key(t, x)))
            .collect();
        let mut b = LogBuffer::new(12);
        let mut q = RecordQueue::default();
        for step in 0..20_000 {
            let k = keys[rng.gen_range(keys.len() as u64) as usize];
            let addr = rng.gen_range(6) * 0x20;
            match rng.gen_range(10) {
                0..=2 => {
                    let _ = b.push(rec(k, addr), step);
                }
                3 => {
                    b.pop_front();
                }
                4 => {
                    b.remove(k, Addr::new(addr));
                }
                5 => {
                    b.remove_line(addr / 64);
                }
                6 => {
                    if let Some(p) = b.find_mut(k, Addr::new(addr)) {
                        p.record.redo += 1;
                    }
                }
                7 => {
                    let r = if rng.gen_bool(0.5) {
                        rec(k, addr)
                    } else {
                        Record::redo_only(k, addr, 1, 0xFF)
                    };
                    q.push_back(r);
                }
                8 => match rng.gen_range(3) {
                    0 => {
                        q.pop_front();
                    }
                    1 => {
                        q.remove(rng.gen_range(q.len() as u64 + 1) as usize);
                    }
                    _ => q.retain(|r| home_line(r) != addr / 64),
                },
                _ if rng.gen_range(20) == 0 => {
                    b.clear();
                    q.clear();
                }
                _ => {}
            }
            for &tag in &keys {
                assert_eq!(
                    b.has_tx(tag),
                    b.iter().any(|p| p.record.tag == tag),
                    "has_tx, step {step}"
                );
                assert_eq!(
                    b.find_tx_front(tag),
                    b.iter().find(|p| p.record.tag == tag).copied(),
                    "find_tx_front, step {step}"
                );
                assert_eq!(q.has_tx(tag), q.iter().any(|r| r.tag == tag));
                assert_eq!(
                    q.has_undo(tag),
                    q.iter()
                        .any(|r| r.tag == tag && r.kind == RecordKind::UndoRedo)
                );
            }
        }
    }
}
