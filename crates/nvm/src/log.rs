//! The NVMM-resident log's array layout and slot contents. The ring itself
//! is `morlog-log`'s [`Ring`]; this module decides how much of the
//! simulated array each record occupies ([`ARRAY_SLOTS`],
//! [`array_slot_cells`]) and what a live slot holds ([`StoredRecord`]).
//!
//! [`Ring`]: morlog_log::ring::Ring

use morlog_log::protocol::ScanEntry;
use morlog_log::record::{unpack_meta, Record, RecordKind};
use morlog_log::ring::Geometry;

/// The simulated NVMM log's ring layout: the Fig. 7 entry bits rounded up
/// to a slot, leaving room for flags and tags (32, 24 or 16 bytes), and
/// no wrap reserve — a slot skips to the next pass only when it does not
/// fit before the wrap point itself. The byte backends' slots are larger
/// ([`RecordKind::slot_bytes`]) because they also store a CRC and a
/// trailer.
pub const ARRAY_SLOTS: Geometry = Geometry {
    undo_redo: 32,
    redo: 24,
    commit: 16,
    reserve: 0,
};

/// TLC cells backing one slot of `kind` in the NVMM module: one 24-cell
/// word sub-region per metadata or data word (2 metadata words plus 2, 1
/// or 0 data words), so 96, 72 or 48.
pub const fn array_slot_cells(kind: RecordKind) -> usize {
    match kind {
        RecordKind::UndoRedo => 96,
        RecordKind::Redo => 72,
        RecordKind::Commit => 48,
    }
}

/// What one live slot of the simulated log holds: the record, the torn bit
/// it was written with, its integrity footprint, and how much of it
/// survived the last crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// The record payload (word-aligned home address).
    pub record: Record,
    /// The pass-parity torn bit the record was written with (§III-B).
    pub torn: bool,
    /// Integrity footprint: CRC-32 over the record's metadata words,
    /// timestamp, data words and `torn`, sealed at append. Recovery
    /// recomputes it to classify records as valid or corrupt.
    pub crc: u32,
    /// Data words that reached the array: all of the kind's (at most
    /// two), unless a crash tore the slot's drain and kept only a prefix.
    pub words_persisted: u8,
}

impl StoredRecord {
    /// Seals `record` into a slot written with torn bit `torn`. The
    /// record's contents are final at append (the buffers coalesce
    /// *before* flushing, never in the ring).
    pub fn seal(record: Record, torn: bool) -> Self {
        StoredRecord {
            record,
            torn,
            crc: record.integrity_crc(torn),
            words_persisted: record.kind.data_words() as u8,
        }
    }

    /// Whether the sealed footprint still matches the record's contents
    /// and torn bit.
    pub fn crc_ok(&self) -> bool {
        self.crc == self.record.integrity_crc(self.torn)
    }

    /// The record as the recovery planner sees it: slot `seq` of `slice`.
    /// Classification (torn / corrupt / valid) happens inside
    /// [`plan_replay`] from the `words_persisted` / `meta_ok` / `crc_ok`
    /// facts recorded here.
    ///
    /// [`plan_replay`]: morlog_log::protocol::plan_replay
    pub fn scan_entry(&self, slice: usize, seq: u64) -> ScanEntry {
        let r = &self.record;
        ScanEntry {
            slice,
            seq,
            kind: r.kind,
            tag: r.tag,
            addr: r.addr,
            undo: r.undo,
            redo: r.redo,
            ulog_count: r.ulog_count,
            timestamp: r.timestamp,
            words_persisted: self.words_persisted.into(),
            meta_ok: unpack_meta(r.meta_words()).is_ok(),
            crc_ok: self.crc_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::record::TxTag;

    fn ur() -> Record {
        Record::undo_redo(TxTag::new(0, 0), 0x40, 0xAA, 0xBB, 0x0F)
    }

    #[test]
    fn seal_binds_contents_and_torn_bit() {
        let stored = StoredRecord::seal(ur(), false);
        assert_ne!(stored.crc, 0);
        assert!(stored.crc_ok());
        let flipped = StoredRecord {
            torn: !stored.torn,
            ..stored
        };
        assert!(!flipped.crc_ok(), "torn bit is bound into the footprint");
        let mut damaged = stored;
        damaged.record.set_data_word(1, 0xBB ^ 1);
        assert!(!damaged.crc_ok(), "a changed data word breaks the CRC");
        // The commit record's meta-only payload seals too.
        let commit = Record::commit(TxTag::new(0, 0), Some(3)).with_timestamp(9);
        assert!(StoredRecord::seal(commit, true).crc_ok());
    }

    #[test]
    fn array_geometry_is_one_word_per_header_or_data_word() {
        // Fig. 7: two metadata words plus 2, 1 or 0 data words, each a
        // 64-bit word backed by one 24-cell TLC sub-region.
        for kind in RecordKind::ALL {
            let words = 2 + kind.data_words();
            assert_eq!(ARRAY_SLOTS.slot_bytes(kind), 8 * words as u64);
            assert_eq!(array_slot_cells(kind), 24 * words);
        }
        assert_eq!(ARRAY_SLOTS.reserve, 0);
    }
}
