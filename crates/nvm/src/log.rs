//! The NVMM-resident log: the array slot geometry and the circular log
//! region. Records are `morlog-log`'s [`Record`]s; this module decides only
//! how much of the simulated array each one occupies.
//!
//! MorLog organises the log region as a single-consumer, single-producer
//! Lamport circular structure so it can be appended and truncated without
//! locking, with two 64-bit registers holding the head and tail pointers
//! (§III-A). Every record carries a *torn bit* whose value is constant
//! within one pass over the region and flips on the next pass, letting
//! recovery detect incompletely-written transactions (§III-B).

use std::collections::VecDeque;

use morlog_log::record::{pass_parity, Record, RecordKind};
use morlog_sim_core::Addr;

/// Bytes one record of `kind` occupies in the simulated NVMM log region
/// (the Fig. 7 entry bits rounded up to a slot, leaving room for flags and
/// tags): 32, 24 or 16. The byte backends' slots are larger
/// ([`RecordKind::slot_bytes`]) because they also store a CRC and a trailer.
pub fn array_slot_bytes(kind: RecordKind) -> u64 {
    match kind {
        RecordKind::UndoRedo => 32,
        RecordKind::Redo => 24,
        RecordKind::Commit => 16,
    }
}

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

/// A record as stored in the ring: the payload plus its location, torn bit,
/// integrity footprint and append sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// The record payload (word-aligned home address).
    pub record: Record,
    /// Monotonic byte offset of the slot (not wrapped; `offset %
    /// capacity` is the physical location).
    pub offset: u64,
    /// The pass-parity torn bit the record was written with (§III-B).
    pub torn: bool,
    /// Integrity footprint: CRC-32 over the record's metadata words,
    /// timestamp, data words and `torn`, sealed by [`LogRegion::append`].
    /// Recovery recomputes it to classify records as valid or corrupt.
    pub crc: u32,
    /// Global append sequence number (recovery applies undos in reverse
    /// sequence order and redos forward).
    pub seq: u64,
}

impl StoredRecord {
    /// Whether the sealed footprint still matches the record's contents
    /// and torn bit.
    pub fn crc_ok(&self) -> bool {
        self.crc == self.record.integrity_crc(self.torn)
    }
}

/// Error returned when the log region cannot accept a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFullError {
    /// Bytes the failed append needed.
    pub needed: u64,
    /// Bytes currently free.
    pub free: u64,
}

impl std::fmt::Display for LogFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log region full: need {} bytes, {} free",
            self.needed, self.free
        )
    }
}

impl std::error::Error for LogFullError {}

/// The circular log region.
///
/// Head and tail are monotonically increasing byte offsets; the physical
/// location of a slot is its offset modulo the capacity, and the torn bit of
/// a slot is the parity of `offset / capacity` (which pass wrote it).
///
/// # Example
///
/// ```
/// use morlog_log::record::{Record, TxTag};
/// use morlog_nvm::log::LogRegion;
/// use morlog_sim_core::Addr;
///
/// let mut ring = LogRegion::new(Addr::new(0x1000), 4096);
/// let rec = Record::undo_redo(TxTag::new(0, 0), 0x40, 1, 2, 0xFF);
/// let stored = ring.append(rec).unwrap();
/// assert_eq!(stored.offset, 0);
/// assert_eq!(ring.records().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LogRegion {
    base: Addr,
    capacity: u64,
    head: u64,
    tail: u64,
    next_seq: u64,
    records: VecDeque<StoredRecord>,
}

impl LogRegion {
    /// Creates an empty ring of `capacity` bytes based at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity cannot hold even one undo+redo slot.
    pub fn new(base: Addr, capacity: u64) -> Self {
        assert!(
            capacity >= array_slot_bytes(RecordKind::UndoRedo),
            "log region of {capacity} bytes cannot hold a single entry"
        );
        LogRegion {
            base,
            capacity,
            head: 0,
            tail: 0,
            next_seq: 0,
            records: VecDeque::new(),
        }
    }

    /// The region's base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The region's capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The head register (monotonic byte offset of the oldest live record).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The tail register (monotonic byte offset one past the newest record).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u64 {
        self.tail - self.head
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The torn bit the next append will carry.
    pub fn current_torn(&self) -> bool {
        pass_parity(self.tail, self.capacity)
    }

    /// Appends a record, returning the stored form. The record's integrity
    /// footprint is sealed here — the ring knows the slot's final torn bit
    /// (after any wrap skip), and the record's contents are final at append
    /// (the buffers coalesce *before* flushing, never in the ring).
    ///
    /// # Errors
    ///
    /// Returns [`LogFullError`] when the ring lacks space — the §III-A
    /// overflow case, which the producer handles by stalling until
    /// truncation frees space.
    pub fn append(&mut self, record: Record) -> Result<StoredRecord, LogFullError> {
        let needed = array_slot_bytes(record.kind);
        if self.free_bytes() < needed {
            return Err(LogFullError {
                needed,
                free: self.free_bytes(),
            });
        }
        // A slot never straddles the wrap point: skip the tail to the next
        // pass if the remainder of this pass is too small.
        let remain_in_pass = self.capacity - (self.tail % self.capacity);
        if remain_in_pass < needed {
            if self.free_bytes() < remain_in_pass + needed {
                return Err(LogFullError {
                    needed: remain_in_pass + needed,
                    free: self.free_bytes(),
                });
            }
            self.tail += remain_in_pass;
        }
        let torn = self.current_torn();
        let stored = StoredRecord {
            record,
            offset: self.tail,
            torn,
            crc: record.integrity_crc(torn),
            seq: self.next_seq,
        };
        self.tail += needed;
        self.next_seq += 1;
        self.records.push_back(stored);
        Ok(stored)
    }

    /// Advances the head register to `offset`, deleting all records below it
    /// (log truncation after the force-write-back scan, §III-F).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside `[head, tail]`.
    pub fn truncate_to(&mut self, offset: u64) {
        assert!(
            offset >= self.head && offset <= self.tail,
            "truncate offset {offset} outside [{}, {}]",
            self.head,
            self.tail
        );
        while let Some(front) = self.records.front() {
            if front.offset < offset {
                self.records.pop_front();
            } else {
                break;
            }
        }
        self.head = offset;
    }

    /// Extends the ring with a temporary overflow region (§III-A option 2:
    /// "allocating a temporary region when the current one is filled by an
    /// in-flight transaction"). The capacity grows by `extra` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `extra` is zero or not line-aligned.
    pub fn grow(&mut self, extra: u64) {
        assert!(
            extra > 0 && extra.is_multiple_of(64),
            "overflow region must be line-aligned"
        );
        self.capacity += extra;
    }

    /// Deletes everything (recovery completion).
    pub fn clear(&mut self) {
        self.head = self.tail;
        self.records.clear();
    }

    /// Iterates live records from head to tail (the recovery scan order).
    pub fn records(&self) -> impl DoubleEndedIterator<Item = &StoredRecord> + '_ {
        self.records.iter()
    }

    /// Mutates the stored record at `offset` in place — fault injection on
    /// the array contents. The sealed footprint is *not* updated, so any
    /// change the mutator makes is visible to recovery's CRC check.
    /// Returns `false` when no live record sits at `offset`.
    pub fn corrupt_record_at(&mut self, offset: u64, f: impl FnOnce(&mut Record)) -> bool {
        match self.records.iter_mut().find(|r| r.offset == offset) {
            Some(stored) => {
                f(&mut stored.record);
                true
            }
            None => false,
        }
    }

    /// The NVMM byte address of a stored record's slot.
    pub fn slot_addr(&self, stored: &StoredRecord) -> Addr {
        Addr::new(self.base.as_u64() + stored.offset % self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::record::TxTag;

    fn tag(t: u8, x: u16) -> TxTag {
        TxTag::new(t, x)
    }

    fn ur(t: u8, x: u16, addr: u64) -> Record {
        Record::undo_redo(tag(t, x), addr, 0xAA, 0xBB, 0x0F)
    }

    #[test]
    fn append_and_iterate_in_order() {
        let mut ring = LogRegion::new(Addr::new(0), 4096);
        for i in 0..10 {
            ring.append(ur(0, 0, i * 64)).unwrap();
        }
        let offsets: Vec<u64> = ring.records().map(|r| r.offset).collect();
        assert_eq!(offsets, (0..10).map(|i| i * 32).collect::<Vec<_>>());
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fills_and_reports_full() {
        let mut ring = LogRegion::new(Addr::new(0), 128);
        for _ in 0..4 {
            ring.append(ur(0, 0, 0)).unwrap();
        }
        let err = ring.append(ur(0, 0, 0)).unwrap_err();
        assert_eq!(err.free, 0);
        assert_eq!(ring.used_bytes(), 128);
    }

    #[test]
    fn truncation_frees_space() {
        let mut ring = LogRegion::new(Addr::new(0), 128);
        let mut stored = Vec::new();
        for _ in 0..4 {
            stored.push(ring.append(ur(0, 0, 0)).unwrap());
        }
        ring.truncate_to(stored[2].offset);
        assert_eq!(ring.records().count(), 2);
        assert_eq!(ring.free_bytes(), 64);
        ring.append(ur(0, 0, 0)).unwrap();
        ring.append(ur(0, 1, 0)).unwrap();
        assert!(ring.append(ur(0, 2, 0)).is_err());
    }

    #[test]
    fn torn_bit_flips_per_pass() {
        let mut ring = LogRegion::new(Addr::new(0), 128);
        let mut first_pass = Vec::new();
        for _ in 0..4 {
            first_pass.push(ring.append(ur(0, 0, 0)).unwrap());
        }
        assert!(first_pass.iter().all(|r| !r.torn));
        ring.truncate_to(ring.tail());
        let second = ring.append(ur(0, 1, 0)).unwrap();
        assert!(
            second.torn,
            "second pass records carry the flipped torn bit"
        );
        assert_eq!(second.offset % 128, 0, "wrapped to the physical start");
    }

    #[test]
    fn slots_never_straddle_the_wrap() {
        // Capacity 112 = 3.5 undo+redo slots: the fourth append must skip
        // the 16 dangling bytes and wait for space in the next pass.
        let mut ring = LogRegion::new(Addr::new(0), 112);
        for _ in 0..3 {
            ring.append(ur(0, 0, 0)).unwrap();
        }
        assert!(ring.append(ur(0, 0, 0)).is_err());
        ring.truncate_to(64); // free two slots
        let fourth = ring.append(ur(0, 0, 0)).unwrap();
        assert_eq!(fourth.offset, 112, "skipped the 16-byte remainder");
        assert_eq!(fourth.offset % 112, 0);
        assert!(fourth.torn);
    }

    #[test]
    fn mixed_kinds_pack_by_slot_size() {
        let mut ring = LogRegion::new(Addr::new(0), 4096);
        let a = ring
            .append(Record::redo_only(tag(0, 0), 0x40, 7, 0xFF))
            .unwrap();
        let b = ring.append(Record::commit(tag(0, 0), Some(3))).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 24);
        assert_eq!(ring.tail(), 40);
    }

    #[test]
    fn slot_addr_wraps_physically() {
        let mut ring = LogRegion::new(Addr::new(0x1000), 128);
        for _ in 0..4 {
            ring.append(ur(0, 0, 0)).unwrap();
        }
        ring.truncate_to(ring.tail());
        let r = ring.append(ur(0, 0, 0)).unwrap();
        assert_eq!(ring.slot_addr(&r).as_u64(), 0x1000);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn truncate_past_tail_panics() {
        let mut ring = LogRegion::new(Addr::new(0), 4096);
        ring.truncate_to(64);
    }

    #[test]
    fn append_seals_a_verifiable_crc() {
        let mut ring = LogRegion::new(Addr::new(0), 4096);
        let stored = ring.append(ur(0, 0, 0x40)).unwrap();
        assert_ne!(stored.crc, 0);
        assert!(stored.crc_ok());
        let flipped = StoredRecord {
            torn: !stored.torn,
            ..stored
        };
        assert!(!flipped.crc_ok(), "torn bit is bound into the footprint");
        // The commit record's meta-only payload seals too.
        let c = ring
            .append(Record::commit(tag(0, 0), Some(3)).with_timestamp(9))
            .unwrap();
        assert!(c.crc_ok());
    }

    #[test]
    fn corruption_breaks_the_crc() {
        let mut ring = LogRegion::new(Addr::new(0), 4096);
        let stored = ring.append(ur(0, 0, 0x40)).unwrap();
        assert!(ring.corrupt_record_at(stored.offset, |r| {
            let w = r.data_word(1);
            r.set_data_word(1, w ^ 1);
        }));
        let damaged = ring.records().next().unwrap();
        assert!(!damaged.crc_ok());
        assert!(
            !ring.corrupt_record_at(9999, |_| {}),
            "no record at a bogus offset"
        );
    }

    #[test]
    fn array_geometry_is_one_word_per_header_or_data_word() {
        // Fig. 7: two metadata words plus 2, 1 or 0 data words, each a
        // 64-bit word backed by one 24-cell TLC sub-region.
        for kind in RecordKind::ALL {
            let words = 2 + kind.data_words();
            assert_eq!(array_slot_bytes(kind), 8 * words as u64);
            assert_eq!(array_slot_cells(kind), 24 * words);
        }
    }
}
