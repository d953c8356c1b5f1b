//! The volatile log FIFOs: the undo+redo buffer and the redo buffer
//! (§III-A, §III-B).
//!
//! Both are small SRAM FIFOs in the processor (Table I: 16 × 202-bit
//! undo+redo entries, 32 × 138-bit redo entries by default). Entries for
//! the same word of the same transaction coalesce in place while buffered;
//! the undo+redo buffer evicts entries *eagerly* after a fixed number of
//! cycles (below the minimum cache-traversal latency, to keep undo data
//! ahead of updated data), while the redo buffer evicts *lazily* to
//! maximise the chance of coalescing or discarding redo data.

use std::collections::VecDeque;

use morlog_log::record::{Record, TxTag};
use morlog_sim_core::ids::TxKey;
use morlog_sim_core::{Addr, Cycle};

/// Index of the cache line holding a record's home word.
pub(crate) fn home_line(record: &Record) -> u64 {
    Addr::new(record.addr).line().index()
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
/// use morlog_sim_core::ids::TxKey;
/// use morlog_sim_core::{Addr, ThreadId, TxId};
///
/// let mut buf = LogBuffer::new(4);
/// let key = TxKey::new(ThreadId::new(0), TxId::new(0));
/// buf.push(Record::undo_redo(key.into(), 0x40, 1, 2, 0xFF), 100).unwrap();
/// assert!(buf.find_mut(key, Addr::new(0x40)).is_some());
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogBuffer {
    entries: VecDeque<Pending>,
    capacity: usize,
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
        self.entries.push_back(Pending {
            record,
            created: now,
        });
        Ok(())
    }

    /// Finds the buffered entry for `(key, word address)`, for coalescing.
    pub fn find_mut(&mut self, key: TxKey, addr: Addr) -> Option<&mut Pending> {
        let (tag, addr) = (TxTag::from(key), addr.word_base().as_u64());
        self.entries
            .iter_mut()
            .find(|p| p.record.tag == tag && p.record.addr == addr)
    }

    /// Whether an entry for `(key, word address)` is buffered.
    pub fn contains(&self, key: TxKey, addr: Addr) -> bool {
        let (tag, addr) = (TxTag::from(key), addr.word_base().as_u64());
        self.entries
            .iter()
            .any(|p| p.record.tag == tag && p.record.addr == addr)
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&Pending> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<Pending> {
        self.entries.pop_front()
    }

    /// Removes the entry for `(key, word address)` (redo-discard, §III-B).
    pub fn remove(&mut self, key: TxKey, addr: Addr) -> Option<Pending> {
        let (tag, addr) = (TxTag::from(key), addr.word_base().as_u64());
        let pos = self
            .entries
            .iter()
            .position(|p| p.record.tag == tag && p.record.addr == addr)?;
        self.entries.remove(pos)
    }

    /// Removes every entry whose word lies in cache line `line_index`
    /// (LLC-eviction discard); returns how many were removed.
    pub fn remove_line(&mut self, line_index: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|p| home_line(&p.record) != line_index);
        before - self.entries.len()
    }

    /// Removes every entry of transaction `key` matching `pred`, returning
    /// them in FIFO order (commit flush).
    pub fn drain_tx(&mut self, key: TxKey) -> Vec<Pending> {
        let tag = TxTag::from(key);
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for p in self.entries.drain(..) {
            if p.record.tag == tag {
                taken.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.entries = kept;
        taken
    }

    /// Whether any entry belongs to transaction `key`.
    pub fn has_tx(&self, key: TxKey) -> bool {
        let tag = TxTag::from(key);
        self.entries.iter().any(|p| p.record.tag == tag)
    }

    /// The oldest entry belonging to transaction `key` (commit flush pulls
    /// a transaction's entries in FIFO order, preserving per-word undo
    /// ordering, §III-C).
    pub fn find_tx_front(&self, key: TxKey) -> Option<Pending> {
        let tag = TxTag::from(key);
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

    /// Removes and returns all entries for line `line_index`, FIFO order
    /// (forced flush before a data writeback of that line).
    pub fn drain_line(&mut self, line_index: u64) -> Vec<Pending> {
        let mut taken = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for p in self.entries.drain(..) {
            if home_line(&p.record) == line_index {
                taken.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.entries = kept;
        taken
    }

    /// Iterates buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Pending> + '_ {
        self.entries.iter()
    }

    /// Drops everything (crash: the buffers are volatile SRAM).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::{ThreadId, TxId};

    fn key(t: u8, x: u16) -> TxKey {
        TxKey::new(ThreadId::new(t), TxId::new(x))
    }

    fn rec(k: TxKey, addr: u64) -> Record {
        Record::undo_redo(k.into(), addr, 0, 1, 0xFF)
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
    fn drain_tx_keeps_other_transactions() {
        let mut b = LogBuffer::new(8);
        b.push(rec(key(0, 0), 0x00), 0).unwrap();
        b.push(rec(key(0, 1), 0x08), 1).unwrap();
        b.push(rec(key(0, 0), 0x10), 2).unwrap();
        let taken = b.drain_tx(key(0, 0));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].record.addr, 0x00);
        assert_eq!(taken[1].record.addr, 0x10);
        assert_eq!(b.len(), 1);
        assert!(b.has_tx(key(0, 1)));
    }

    #[test]
    fn drain_line_preserves_fifo_of_rest() {
        let mut b = LogBuffer::new(8);
        b.push(rec(key(0, 0), 0x40), 0).unwrap();
        b.push(rec(key(0, 0), 0x100), 1).unwrap();
        b.push(rec(key(0, 0), 0x48), 2).unwrap();
        let taken = b.drain_line(1);
        assert_eq!(taken.len(), 2);
        assert_eq!(b.front().unwrap().record.addr, 0x100);
    }

    #[test]
    fn clear_empties() {
        let mut b = LogBuffer::new(4);
        b.push(rec(key(0, 0), 0), 0).unwrap();
        b.clear();
        assert!(b.is_empty());
    }
}
