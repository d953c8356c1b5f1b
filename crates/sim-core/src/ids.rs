//! Hardware thread identifiers.
//!
//! The paper's log entries carry an 8-bit thread id and a 16-bit transaction
//! id (Fig. 7). The `(thread, txid)` pair is `morlog_log`'s
//! [`TxTag`](morlog_log::record::TxTag); [`ThreadId`] is the thread half on
//! its own, the index of the simulator's per-core tables.

use std::fmt;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_index() {
        assert_eq!(ThreadId::new(255).index(), 255);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
    }
}
