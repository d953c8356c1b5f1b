//! Hardware thread and transaction identifiers.
//!
//! The paper's log entries carry an 8-bit thread id and a 16-bit transaction
//! id (Fig. 7). The wrap-around behaviour of the 16-bit transaction id is
//! part of the design (it bounds how many transactions can be outstanding in
//! the log region), so [`TxId::next`] wraps explicitly.

use std::fmt;

use morlog_log::record::TxTag;

/// An 8-bit hardware thread identifier, as stored in log entries (Fig. 7).
///
/// # Example
///
/// ```
/// use morlog_sim_core::ThreadId;
/// let t = ThreadId::new(3);
/// assert_eq!(t.as_u8(), 3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u8);

impl ThreadId {
    /// Creates a thread id.
    pub fn new(raw: u8) -> Self {
        ThreadId(raw)
    }

    /// Returns the raw 8-bit value.
    pub fn as_u8(self) -> u8 {
        self.0
    }

    /// Returns the id as a `usize` index (for per-thread tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A 16-bit transaction identifier, as stored in log entries (Fig. 7).
///
/// Transaction ids are per-thread monotonic counters that wrap at 2^16; the
/// pair `(ThreadId, TxId)` identifies a transaction among those still present
/// in the log region.
///
/// # Example
///
/// ```
/// use morlog_sim_core::TxId;
/// let t = TxId::new(u16::MAX);
/// assert_eq!(t.next(), TxId::new(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(u16);

impl TxId {
    /// Creates a transaction id.
    pub fn new(raw: u16) -> Self {
        TxId(raw)
    }

    /// Returns the raw 16-bit value.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the next transaction id, wrapping at 2^16.
    pub fn next(self) -> TxId {
        TxId(self.0.wrapping_add(1))
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// A globally unique transaction key: the `(thread, txid)` pair used to
/// associate log entries with their transaction.
///
/// # Example
///
/// ```
/// use morlog_sim_core::ids::TxKey;
/// use morlog_sim_core::{ThreadId, TxId};
/// let k = TxKey::new(ThreadId::new(1), TxId::new(7));
/// assert_eq!(k.thread, ThreadId::new(1));
/// assert_eq!(k.txid, TxId::new(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxKey {
    /// The hardware thread that ran the transaction.
    pub thread: ThreadId,
    /// The per-thread transaction id.
    pub txid: TxId,
}

impl TxKey {
    /// Creates a transaction key.
    pub fn new(thread: ThreadId, txid: TxId) -> Self {
        TxKey { thread, txid }
    }
}

impl fmt::Display for TxKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.thread, self.txid)
    }
}

/// The log records' backend-neutral transaction tag carries the same
/// 8-bit thread and 16-bit transaction id, so both conversions are
/// lossless.
impl From<TxKey> for TxTag {
    fn from(key: TxKey) -> TxTag {
        TxTag::new(key.thread.as_u8(), key.txid.as_u16())
    }
}

impl From<TxTag> for TxKey {
    fn from(tag: TxTag) -> TxKey {
        TxKey::new(ThreadId::new(tag.thread), TxId::new(tag.txid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_wraps() {
        assert_eq!(TxId::new(0).next(), TxId::new(1));
        assert_eq!(TxId::new(u16::MAX).next(), TxId::new(0));
    }

    #[test]
    fn thread_index() {
        assert_eq!(ThreadId::new(255).index(), 255);
    }

    #[test]
    fn tx_key_and_tag_round_trip_at_the_extremes() {
        for thread in [0u8, 255] {
            for txid in [0u16, u16::MAX] {
                let key = TxKey::new(ThreadId::new(thread), TxId::new(txid));
                let tag = TxTag::from(key);
                assert_eq!((tag.thread, tag.txid), (thread, txid));
                assert_eq!(TxKey::from(tag), key);
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
        assert_eq!(TxId::new(9).to_string(), "tx9");
        assert_eq!(
            TxKey::new(ThreadId::new(2), TxId::new(9)).to_string(),
            "T2/tx9"
        );
    }
}
