//! Cache lines and the MorLog L1 extensions (Fig. 7 and Fig. 8).

use morlog_log::record::TxTag;
use morlog_sim_core::{LineAddr, LineData, WORDS_PER_LINE};

/// The 2-bit per-word log state of Fig. 8.
///
/// * `Clean` — not updated by an in-flight transaction.
/// * `Dirty` — updated; its undo+redo entry is still in the undo+redo
///   buffer (subsequent stores coalesce there).
/// * `URLog` — the undo+redo entry has been persisted; no newer redo data
///   exist.
/// * `ULog` — the oldest undo data are persisted but the newest redo data
///   (buffered in place in this line) are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WordLogState {
    /// Not updated by an in-flight transaction.
    #[default]
    Clean,
    /// Updated; undo+redo entry still buffered.
    Dirty,
    /// Undo+redo entry persisted, newest redo persisted with it.
    URLog,
    /// Undo persisted; newest redo buffered in the L1 line only.
    ULog,
}

/// The MorLog L1 cache-line extensions (Fig. 7): an 8-bit TID, a 16-bit
/// TxID, a 16-bit log-state flag (2 bits per word) and the §IV-A per-word
/// dirty flags (8 bits per word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct L1Ext {
    /// The transaction whose updates the line's log states describe.
    pub owner: TxTag,
    /// Per-word log state.
    pub word_state: [WordLogState; WORDS_PER_LINE],
    /// Per-word dirty flags, accumulated since the word's last persisted
    /// log data (used by DLDC when the redo entry is created).
    pub dirty_flags: [u8; WORDS_PER_LINE],
}

impl L1Ext {
    /// A fresh extension owned by `owner`, all words clean.
    pub fn new(owner: TxTag) -> Self {
        L1Ext {
            owner,
            ..Default::default()
        }
    }

    /// Number of words currently in `ULog` state (feeds the ulog counter of
    /// the delay-persistence commit protocol, §III-C).
    pub fn ulog_words(&self) -> u32 {
        self.word_state
            .iter()
            .filter(|&&s| s == WordLogState::ULog)
            .count() as u32
    }

    /// Resets every word to `Clean` and clears the dirty flags (after the
    /// owning transaction's log data are fully persisted).
    pub fn reset(&mut self) {
        self.word_state = [WordLogState::Clean; WORDS_PER_LINE];
        self.dirty_flags = [0; WORDS_PER_LINE];
    }
}

/// One cache line. The `ext` field is populated only while the line lives
/// in an L1 cache; lower levels drop it (the hardware state exists only in
/// the L1 arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// The line's address tag.
    pub addr: LineAddr,
    /// Current contents (the freshest copy in the hierarchy when dirty).
    pub data: LineData,
    /// Whether the line differs from memory.
    pub dirty: bool,
    /// The force-write-back scan's age flag (§III-F).
    pub fwb_flag: bool,
    /// MorLog L1 extensions, present in L1 only.
    pub ext: Option<L1Ext>,
}

impl CacheLine {
    /// A clean line filled from memory.
    pub fn clean(addr: LineAddr, data: LineData) -> Self {
        CacheLine {
            addr,
            data,
            dirty: false,
            fwb_flag: false,
            ext: None,
        }
    }

    /// Drops the L1 extensions (when the line moves below L1).
    pub fn without_ext(mut self) -> Self {
        self.ext = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_counts_ulog_words() {
        let clean = L1Ext::new(TxTag::new(0, 0));
        let mut ext = clean;
        assert_eq!(ext.ulog_words(), 0);
        ext.word_state[0] = WordLogState::ULog;
        ext.word_state[3] = WordLogState::ULog;
        ext.word_state[5] = WordLogState::Dirty;
        assert_eq!(ext.ulog_words(), 2);
        ext.reset();
        assert_eq!(ext.ulog_words(), 0);
        assert_eq!(ext, clean);
    }

    #[test]
    fn without_ext_strips_extensions() {
        let mut line = CacheLine::clean(LineAddr::from_index(1), LineData::zeroed());
        line.ext = Some(L1Ext::default());
        let below = line.without_ext();
        assert!(below.ext.is_none());
        assert_eq!(below.addr, line.addr);
    }

    #[test]
    fn default_word_state_is_clean() {
        assert_eq!(WordLogState::default(), WordLogState::Clean);
    }
}
