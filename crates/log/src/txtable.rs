//! The transaction-table log-management policy (§III-F of the paper).
//!
//! Each entry tracks a transaction and a counter of storage lines that
//! still hold its updated (not yet persisted) data; when the counter
//! reaches zero *and* the transaction has committed, every updated byte is
//! durable in place and its log records are dead — the log head may advance
//! past them. The table is maintained from two events: a transactional
//! store dirtying a line (attribution) and a line's data entering the
//! persist domain (release).
//!
//! It also keeps each commit's place in commit order, which
//! [`plan_truncation`](crate::protocol::plan_truncation) reads.
//!
//! This is the one implementation: the byte-backend engine and the
//! simulator's `System` both hold a [`TxTable`] directly.

use std::collections::{HashMap, HashSet};

use crate::record::TxTag;

/// The transaction table: dirty-line counters keyed by transaction.
///
/// Lines are identified by an opaque `u64` (the simulator uses cache-line
/// indices; the byte backends use word addresses).
///
/// # Example
///
/// ```
/// use morlog_log::txtable::TxTable;
/// use morlog_log::record::TxTag;
///
/// let mut t = TxTable::new();
/// let tag = TxTag::new(0, 0);
/// t.on_store(tag, 7);
/// t.on_commit(tag, 1);
/// assert!(!t.is_persisted(tag), "one line still dirty");
/// t.on_line_persisted(7);
/// assert!(t.is_deletable(tag));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxTable {
    /// Which transactions have unpersisted data in each line.
    attribution: HashMap<u64, HashSet<TxTag>>,
    /// Outstanding dirty-line count per transaction (the table's counter).
    counters: HashMap<TxTag, u32>,
    /// Transactions that committed, with their commit order (entries
    /// become deletable when committed and counter == 0).
    committed: HashMap<TxTag, u64>,
}

impl TxTable {
    /// An empty table.
    pub fn new() -> Self {
        TxTable::default()
    }

    /// A transactional store dirtied `line` on behalf of `tag`.
    pub fn on_store(&mut self, tag: TxTag, line: u64) {
        let txs = self.attribution.entry(line).or_default();
        if txs.insert(tag) {
            *self.counters.entry(tag).or_insert(0) += 1;
        }
    }

    /// The transaction committed (program-visible) at `order` on the
    /// caller's commit clock.
    pub fn on_commit(&mut self, tag: TxTag, order: u64) {
        self.committed.insert(tag, order);
    }

    /// Where the transaction committed in commit order, if it did.
    pub fn commit_order(&self, tag: TxTag) -> Option<u64> {
        self.committed.get(&tag).copied()
    }

    /// `line`'s data entered the persist domain. Decrements every
    /// attributed transaction's counter.
    pub fn on_line_persisted(&mut self, line: u64) {
        if let Some(txs) = self.attribution.remove(&line) {
            for tag in txs {
                if let Some(c) = self.counters.get_mut(&tag) {
                    *c = c.saturating_sub(1);
                }
            }
        }
    }

    /// Whether every line the transaction updated has been persisted.
    pub fn is_persisted(&self, tag: TxTag) -> bool {
        self.counters.get(&tag).copied().unwrap_or(0) == 0
    }

    /// Whether the transaction's log entries are deletable: committed and
    /// counter == 0.
    pub fn is_deletable(&self, tag: TxTag) -> bool {
        self.committed.contains_key(&tag) && self.is_persisted(tag)
    }

    /// Drops the bookkeeping of fully-deleted transactions (called after
    /// truncation removed their entries from the ring).
    pub fn forget(&mut self, tag: TxTag) {
        self.counters.remove(&tag);
        self.committed.remove(&tag);
    }

    /// Transactions currently tracked (occupied table entries; the paper's
    /// hardware table is finite — its occupancy is a cost metric).
    pub fn occupancy(&self) -> usize {
        self.counters.len()
    }

    /// Volatile on crash.
    pub fn clear(&mut self) {
        self.attribution.clear();
        self.counters.clear();
        self.committed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(x: u16) -> TxTag {
        TxTag::new(0, x)
    }

    #[test]
    fn counter_tracks_distinct_lines_only() {
        let mut t = TxTable::new();
        t.on_store(tag(0), 1);
        t.on_store(tag(0), 1); // same line twice: still one
        t.on_store(tag(0), 2);
        t.on_commit(tag(0), 0);
        assert!(!t.is_deletable(tag(0)));
        t.on_line_persisted(1);
        assert!(!t.is_deletable(tag(0)));
        t.on_line_persisted(2);
        assert!(t.is_deletable(tag(0)));
    }

    #[test]
    fn shared_line_releases_all_writers() {
        let mut t = TxTable::new();
        t.on_store(tag(0), 9);
        t.on_store(tag(1), 9);
        t.on_commit(tag(0), 0);
        t.on_commit(tag(1), 1);
        t.on_line_persisted(9);
        assert!(t.is_deletable(tag(0)));
        assert!(t.is_deletable(tag(1)));
    }

    #[test]
    fn uncommitted_is_never_deletable() {
        let mut t = TxTable::new();
        t.on_store(tag(0), 3);
        t.on_line_persisted(3);
        assert!(t.is_persisted(tag(0)));
        assert!(!t.is_deletable(tag(0)));
    }

    #[test]
    fn forget_frees_table_entries() {
        let mut t = TxTable::new();
        t.on_store(tag(0), 1);
        t.on_commit(tag(0), 0);
        assert_eq!(t.occupancy(), 1);
        t.forget(tag(0));
        assert_eq!(t.occupancy(), 0);
    }
}
