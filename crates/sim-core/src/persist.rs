//! Persist-event classification shared between the memory controller's
//! reference-run recording and the crash checker's coverage/reduction
//! machinery.
//!
//! A checker reference run can record, alongside the persist-domain hash
//! samples, one [`PersistEventMeta`] entry per NVMM program acceptance
//! (plus interleaved truncation markers). The fuzz campaign buckets crash
//! points by `(event kind, progress phase)` to steer sampling toward
//! never-before-seen persist behaviour, and the partial-order reduction
//! replays the stream to decide which in-place data writes are pinned by
//! live log coverage (and therefore recovery-equivalent to their
//! predecessor point).

use morlog_log::record::TxTag;

use crate::types::Addr;

/// What kind of persist-domain program a persist event was. This is the
/// event-kind axis of the fuzz campaign's coverage buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistEventKind {
    /// An in-place data-line program (LLC write-back or FWB scan).
    DataLine,
    /// An undo+redo log-slot program (§III-A write-ahead records).
    UndoRedo,
    /// A redo-only log-slot program (§III-B coalesced redo).
    Redo,
    /// A commit-record program.
    Commit,
}

impl PersistEventKind {
    /// Every kind, in a stable order (coverage-map axis).
    pub const ALL: [PersistEventKind; 4] = [
        PersistEventKind::DataLine,
        PersistEventKind::UndoRedo,
        PersistEventKind::Redo,
        PersistEventKind::Commit,
    ];

    /// Stable label for reports and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            PersistEventKind::DataLine => "data_line",
            PersistEventKind::UndoRedo => "undo_redo",
            PersistEventKind::Redo => "redo",
            PersistEventKind::Commit => "commit",
        }
    }

    /// Dense index into [`PersistEventKind::ALL`].
    pub fn index(&self) -> usize {
        match self {
            PersistEventKind::DataLine => 0,
            PersistEventKind::UndoRedo => 1,
            PersistEventKind::Redo => 2,
            PersistEventKind::Commit => 3,
        }
    }
}

/// One entry of the reference run's persist-domain event stream.
///
/// `Data` and `Log` entries correspond one-to-one, in order, with persist
/// events (program acceptances); `Truncate` entries are interleaved where
/// log truncation ran between two acceptances. A consumer walking the
/// stream reconstructs the live-record set at any crash point by applying
/// `Log` insertions and `Truncate` deletions in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEventMeta {
    /// An in-place data-line program acceptance.
    Data {
        /// Line index (line base address / 64) of the programmed line.
        line: u64,
        /// Bitmask of words whose value changed (bit `i` = word `i` of the
        /// line). A zero mask is a silent rewrite.
        changed: u8,
    },
    /// A log-slot program acceptance.
    Log {
        /// Record kind (never [`PersistEventKind::DataLine`]).
        kind: PersistEventKind,
        /// Owning transaction.
        key: TxTag,
        /// Home word address of the logged data (commit records carry the
        /// placeholder address stored in the record).
        addr: Addr,
        /// Log slice holding the slot.
        slice: usize,
        /// Logical (monotone) byte offset of the slot within its slice —
        /// the record's identity for matching against `Truncate` entries.
        offset: u64,
    },
    /// Log records left the persist domain between two acceptances.
    Truncate {
        /// Slice the records were deleted from.
        slice: usize,
        /// Logical offsets of the deleted slots.
        offsets: Vec<u64>,
    },
}

impl PersistEventMeta {
    /// The event's coverage kind; `None` for truncation markers (which are
    /// not persist events).
    pub fn kind(&self) -> Option<PersistEventKind> {
        match self {
            PersistEventMeta::Data { .. } => Some(PersistEventKind::DataLine),
            PersistEventMeta::Log { kind, .. } => Some(*kind),
            PersistEventMeta::Truncate { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_stable_labels_and_dense_indices() {
        for (i, k) in PersistEventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let labels: Vec<&str> = PersistEventKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["data_line", "undo_redo", "redo", "commit"]);
    }

    #[test]
    fn meta_kind_classifies() {
        let data = PersistEventMeta::Data {
            line: 7,
            changed: 0b11,
        };
        assert_eq!(data.kind(), Some(PersistEventKind::DataLine));
        let log = PersistEventMeta::Log {
            kind: PersistEventKind::Commit,
            key: TxTag::new(0, 1),
            addr: Addr::new(64),
            slice: 0,
            offset: 0,
        };
        assert_eq!(log.kind(), Some(PersistEventKind::Commit));
        let trunc = PersistEventMeta::Truncate {
            slice: 0,
            offsets: vec![0],
        };
        assert_eq!(trunc.kind(), None);
    }
}
