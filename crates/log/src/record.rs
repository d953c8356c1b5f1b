//! The log-record wire format.
//!
//! This module is the single source of truth for the record layout the
//! whole repository uses: the simulator stores these [`Record`]s in its
//! NVMM log ring and seals them with [`seal_words`], and the byte backends
//! serialise the same records into fixed-size slots built from the same
//! words.
//!
//! A record consists of two *metadata* words (Fig. 7: home address, and a
//! packed kind/thread/txid/dirty/ulog word), a commit timestamp word, zero
//! to two *data* words (`[undo, redo]`, `[redo]` or none), and a CRC-32
//! integrity footprint sealed over all of those words **plus the slot's
//! pass-parity (torn) bit** — binding the parity in keeps a stale slot from
//! a previous pass over the ring from masquerading as current.

use crate::ring::Geometry;

/// A transaction tag: the `(thread, txid)` pair that identifies a
/// transaction among those still present in the log region (8-bit thread,
/// 16-bit per-thread transaction id — the field widths of the Fig. 7 entry
/// format). The simulator's typed `TxKey` converts to and from it
/// losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxTag {
    /// The hardware thread (or client shard) that ran the transaction.
    pub thread: u8,
    /// The per-thread transaction id (wraps at 2^16).
    pub txid: u16,
}

impl TxTag {
    /// Creates a tag.
    pub fn new(thread: u8, txid: u16) -> Self {
        TxTag { thread, txid }
    }
}

impl std::fmt::Display for TxTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}/tx{}", self.thread, self.txid)
    }
}

/// The kind of a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// Undo+redo entry: the first update to a word in a transaction.
    UndoRedo,
    /// Redo-only entry: a subsequent update to an already-logged word.
    Redo,
    /// A transaction commit record (carries the ulog counter under the
    /// delay-persistence protocol).
    Commit,
}

impl RecordKind {
    /// Every kind, in histogram order (undo+redo, redo, commit).
    pub const ALL: [RecordKind; 3] = [RecordKind::UndoRedo, RecordKind::Redo, RecordKind::Commit];

    /// Stable lower-case label used in traces and results files.
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::UndoRedo => "undo_redo",
            RecordKind::Redo => "redo",
            RecordKind::Commit => "commit",
        }
    }

    /// Data words following the record's metadata header: `[undo, redo]`,
    /// `[redo]` or none.
    pub fn data_words(self) -> usize {
        match self {
            RecordKind::UndoRedo => 2,
            RecordKind::Redo => 1,
            RecordKind::Commit => 0,
        }
    }

    /// Bytes one slot of this kind occupies in a byte-domain log region:
    /// 24 header bytes (two metadata words + timestamp), the data words,
    /// a 4-byte CRC and a 1-byte parity/magic trailer, rounded up to 8.
    pub const fn slot_bytes(self) -> u64 {
        match self {
            RecordKind::UndoRedo => 48,
            RecordKind::Redo => 40,
            RecordKind::Commit => 32,
        }
    }
}

/// The largest slot size; appends (and the recovery scan) skip to the next
/// pass whenever fewer than this many bytes remain before the wrap point,
/// so a slot never straddles the wrap.
pub const SLOT_MAX: u64 = 48;

/// The byte backends' ring layout: [`RecordKind::slot_bytes`] slots with a
/// [`SLOT_MAX`] wrap reserve, so the recovery scan finds the next slot's
/// start before it has decoded the slot's kind.
pub const BYTE_SLOTS: Geometry = Geometry {
    undo_redo: RecordKind::UndoRedo.slot_bytes(),
    redo: RecordKind::Redo.slot_bytes(),
    commit: RecordKind::Commit.slot_bytes(),
    reserve: SLOT_MAX,
};

/// The pass-parity (torn) bit of the slot at monotonic byte `offset` in a
/// ring of `capacity` bytes: which pass over the ring wrote it. The bit
/// flips on every wrap, so a stale slot from the previous pass never reads
/// as current.
///
/// # Example
///
/// ```
/// use morlog_log::record::pass_parity;
/// assert!(!pass_parity(100, 128));
/// assert!(pass_parity(128, 128));
/// assert!(!pass_parity(256, 128));
/// ```
pub fn pass_parity(offset: u64, capacity: u64) -> bool {
    (offset / capacity) % 2 == 1
}

/// One log record, as persisted in a log region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Record kind.
    pub kind: RecordKind,
    /// The transaction the record belongs to.
    pub tag: TxTag,
    /// Home word address of the logged word (48-bit; unused for commits).
    pub addr: u64,
    /// Undo data (the old value), present only in undo+redo entries.
    pub undo: Option<u64>,
    /// Redo data (the new value); zero for commit records.
    pub redo: u64,
    /// Per-byte dirty flag of the logged word.
    pub dirty_mask: u8,
    /// The ulog counter snapshot stored in commit records when the
    /// delay-persistence protocol is enabled (26 bits).
    pub ulog_count: Option<u32>,
    /// Commit timestamp: commit records carry a timestamp to define the
    /// global commit order across log slices.
    pub timestamp: u64,
}

impl Record {
    /// Builds an undo+redo entry.
    pub fn undo_redo(tag: TxTag, addr: u64, undo: u64, redo: u64, dirty_mask: u8) -> Self {
        Record {
            kind: RecordKind::UndoRedo,
            tag,
            addr: addr & ADDR_MASK,
            undo: Some(undo),
            redo,
            dirty_mask,
            ulog_count: None,
            timestamp: 0,
        }
    }

    /// Builds a redo-only entry.
    pub fn redo_only(tag: TxTag, addr: u64, redo: u64, dirty_mask: u8) -> Self {
        Record {
            kind: RecordKind::Redo,
            tag,
            addr: addr & ADDR_MASK,
            undo: None,
            redo,
            dirty_mask,
            ulog_count: None,
            timestamp: 0,
        }
    }

    /// Builds a commit record. `ulog_count` is `Some` only under the
    /// delay-persistence protocol.
    pub fn commit(tag: TxTag, ulog_count: Option<u32>) -> Self {
        Record {
            kind: RecordKind::Commit,
            tag,
            addr: 0,
            undo: None,
            redo: 0,
            dirty_mask: 0,
            ulog_count,
            timestamp: 0,
        }
    }

    /// Stamps the commit timestamp (cross-slice commit order).
    pub fn with_timestamp(mut self, timestamp: u64) -> Self {
        self.timestamp = timestamp;
        self
    }

    /// The record's `i`-th data word (`[undo, redo]`, `[redo]` or none).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.kind.data_words()`.
    pub fn data_word(&self, i: usize) -> u64 {
        match (self.kind, i) {
            (RecordKind::UndoRedo, 0) => self.undo.unwrap_or(0),
            (RecordKind::UndoRedo, 1) | (RecordKind::Redo, 0) => self.redo,
            _ => panic!("{:?} has no data word {i}", self.kind),
        }
    }

    /// Overwrites the record's `i`-th data word (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.kind.data_words()`.
    pub fn set_data_word(&mut self, i: usize, value: u64) {
        match (self.kind, i) {
            (RecordKind::UndoRedo, 0) => self.undo = Some(value),
            (RecordKind::UndoRedo, 1) | (RecordKind::Redo, 0) => self.redo = value,
            _ => panic!("{:?} has no data word {i}", self.kind),
        }
    }

    /// The metadata words of the record's header (see [`pack_meta`]).
    pub fn meta_words(&self) -> [u64; 2] {
        pack_meta(
            self.kind,
            self.tag,
            self.addr,
            self.dirty_mask,
            self.ulog_count,
        )
    }

    /// The words covered by the integrity footprint — metadata header,
    /// timestamp and data words, in slot order — in a fixed array, with
    /// the count in use.
    pub fn payload_array(&self) -> ([u64; MAX_PAYLOAD_WORDS], usize) {
        let [m0, m1] = self.meta_words();
        let mut words = [m0, m1, self.timestamp, 0, 0];
        let n = 3 + self.kind.data_words();
        for (i, w) in words[3..n].iter_mut().enumerate() {
            *w = self.data_word(i);
        }
        (words, n)
    }

    /// [`Record::payload_array`] as a `Vec`.
    pub fn payload_words(&self) -> Vec<u64> {
        let (words, n) = self.payload_array();
        words[..n].to_vec()
    }

    /// The CRC-32 the record should carry when stored in a slot whose
    /// pass-parity bit is `parity`.
    pub fn integrity_crc(&self, parity: bool) -> u32 {
        let (words, n) = self.payload_array();
        seal_words(&words[..n], parity)
    }
}

/// The most words a record's integrity footprint covers: two metadata
/// words, the timestamp and two data words.
pub const MAX_PAYLOAD_WORDS: usize = 5;

/// Mask selecting the 48 address bits stored in metadata word 0.
pub const ADDR_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;

/// Packs a record header into its two metadata words: word 0 is the 48-bit
/// home address, word 1 packs kind (2 bits), thread (8), txid (16), dirty
/// flag (8), the optional ulog counter (26) and its presence bit.
pub fn pack_meta(
    kind: RecordKind,
    tag: TxTag,
    addr: u64,
    dirty_mask: u8,
    ulog_count: Option<u32>,
) -> [u64; 2] {
    let kind_bits: u64 = match kind {
        RecordKind::UndoRedo => 0,
        RecordKind::Redo => 1,
        RecordKind::Commit => 2,
    };
    let w0 = addr & ADDR_MASK;
    let w1 = kind_bits
        | (tag.thread as u64) << 2
        | (tag.txid as u64) << 10
        | (dirty_mask as u64) << 26
        | (ulog_count.unwrap_or(0) as u64) << 34
        | (ulog_count.is_some() as u64) << 62;
    [w0, w1]
}

/// The fields recovered from a slot's metadata header by [`unpack_meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaFields {
    /// Record kind.
    pub kind: RecordKind,
    /// Owning transaction.
    pub tag: TxTag,
    /// Home address (48-bit truncated).
    pub addr: u64,
    /// Per-byte dirty flag.
    pub dirty_mask: u8,
    /// The ulog counter, when the header carries one.
    pub ulog_count: Option<u32>,
}

/// A slot's metadata header failed to decode (reserved kind bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaError {
    /// The invalid kind field.
    pub kind_bits: u8,
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid log-record kind bits {:#b}", self.kind_bits)
    }
}

impl std::error::Error for MetaError {}

/// Decodes the metadata words produced by [`pack_meta`], validating the
/// kind field.
///
/// # Errors
///
/// [`MetaError`] when the kind bits hold the reserved pattern — the slot's
/// header was corrupted in the array.
pub fn unpack_meta(meta: [u64; 2]) -> Result<MetaFields, MetaError> {
    let [w0, w1] = meta;
    let kind = match w1 & 0b11 {
        0 => RecordKind::UndoRedo,
        1 => RecordKind::Redo,
        2 => RecordKind::Commit,
        bits => {
            return Err(MetaError {
                kind_bits: bits as u8,
            })
        }
    };
    Ok(MetaFields {
        kind,
        tag: TxTag::new(((w1 >> 2) & 0xFF) as u8, ((w1 >> 10) & 0xFFFF) as u16),
        // Mask to the stored 48 bits: the upper bits of w0 are dead storage,
        // and the CRC re-seal regenerates the word with them zeroed — an
        // unmasked read would let a flip up there alter the decoded address
        // while still passing the integrity check.
        addr: w0 & ADDR_MASK,
        dirty_mask: ((w1 >> 26) & 0xFF) as u8,
        ulog_count: ((w1 >> 62) & 1 == 1).then_some(((w1 >> 34) & 0x3FF_FFFF) as u32),
    })
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// feeding byte `b` followed by `k` zero bytes into an all-zero register,
/// so one lookup per byte of a word updates the CRC a whole word at a time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        b += 1;
    }
    t
}

/// Feeds one word (its eight little-endian bytes) into the CRC register.
fn crc_word(crc: u32, word: u64) -> u32 {
    let x = word ^ crc as u64;
    let byte = |i: u32| ((x >> (8 * i)) & 0xFF) as usize;
    CRC_TABLES[7][byte(0)]
        ^ CRC_TABLES[6][byte(1)]
        ^ CRC_TABLES[5][byte(2)]
        ^ CRC_TABLES[4][byte(3)]
        ^ CRC_TABLES[3][byte(4)]
        ^ CRC_TABLES[2][byte(5)]
        ^ CRC_TABLES[1][byte(6)]
        ^ CRC_TABLES[0][byte(7)]
}

/// CRC-32 (IEEE, reflected 0xEDB88320) over a word slice, little-endian
/// byte order. This is the exact footprint function the simulator seals
/// records with; keeping a single implementation here is what makes the
/// extracted protocol and the simulated one bit-compatible.
///
/// # Example
///
/// ```
/// use morlog_log::record::crc32_words;
/// assert_eq!(crc32_words(&[]), 0);
/// assert_ne!(crc32_words(&[1, 2]), crc32_words(&[2, 1]));
/// ```
pub fn crc32_words(words: &[u64]) -> u32 {
    !words.iter().fold(!0, |crc, &w| crc_word(crc, w))
}

/// Seals a record's payload words together with the slot's pass-parity bit:
/// the CRC-32 of the payload followed by one word holding the parity.
pub fn seal_words(payload: &[u64], parity: bool) -> u32 {
    let crc = payload.iter().fold(!0, |crc, &w| crc_word(crc, w));
    !crc_word(crc, parity as u64)
}

/// High nibble of the slot trailer byte: marks a slot as fully written.
/// A slot whose trailer lacks the magic (e.g. all-zero bytes from a pass
/// that never reached it, or a prefix cut short by a power loss) is
/// classified torn.
pub const SLOT_MAGIC: u8 = 0xA0;

/// Serialises a record into its fixed-size slot for a byte-domain log
/// region written on the pass with parity `parity`. Layout: meta word 0,
/// meta word 1, timestamp, data words (all little-endian u64), CRC-32
/// (little-endian u32), trailer byte `SLOT_MAGIC | parity`, zero padding
/// up to [`RecordKind::slot_bytes`].
pub fn encode_slot(record: &Record, parity: bool) -> Vec<u8> {
    let (words, n) = record.payload_array();
    let words = &words[..n];
    let mut out = Vec::with_capacity(record.kind.slot_bytes() as usize);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&seal_words(words, parity).to_le_bytes());
    out.push(SLOT_MAGIC | parity as u8);
    out.resize(record.kind.slot_bytes() as usize, 0);
    out
}

/// The outcome of reading one slot back from a byte-domain log region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRead {
    /// The record as stored (best effort: fields are taken from the bytes
    /// even when the slot is damaged, so damage stays attributable).
    pub record: Record,
    /// Whether the metadata header decoded (valid kind bits).
    pub meta_ok: bool,
    /// Whether the trailer carries the magic and the expected pass parity —
    /// `false` means the slot was never completely written on this pass.
    pub complete: bool,
    /// Whether the stored CRC matches a re-seal over the read words and the
    /// expected parity.
    pub crc_ok: bool,
}

/// Reads a u64 (little-endian) out of a byte slice.
fn word_at(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Decodes a slot read back from offset parity `expected_parity`.
///
/// Returns `Err` with the raw second metadata word when the header's kind
/// bits are the reserved pattern — the caller cannot even size the slot,
/// so the slice scan must stop there.
///
/// # Panics
///
/// Panics if `bytes` is shorter than the 16-byte metadata header or, once
/// the kind is known, shorter than that kind's slot.
pub fn decode_slot(bytes: &[u8], expected_parity: bool) -> Result<SlotRead, MetaError> {
    let meta = [word_at(bytes, 0), word_at(bytes, 8)];
    let fields = unpack_meta(meta)?;
    let d = fields.kind.data_words();
    let timestamp = word_at(bytes, 16);
    let mut record = Record {
        kind: fields.kind,
        tag: fields.tag,
        addr: fields.addr,
        undo: None,
        redo: 0,
        dirty_mask: fields.dirty_mask,
        ulog_count: fields.ulog_count,
        timestamp,
    };
    match fields.kind {
        RecordKind::UndoRedo => {
            record.undo = Some(word_at(bytes, 24));
            record.redo = word_at(bytes, 32);
        }
        RecordKind::Redo => record.redo = word_at(bytes, 24),
        RecordKind::Commit => {}
    }
    let crc_off = 24 + 8 * d;
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&bytes[crc_off..crc_off + 4]);
    let stored_crc = u32::from_le_bytes(crc_bytes);
    let trailer = bytes[crc_off + 4];
    let complete = trailer == SLOT_MAGIC | expected_parity as u8;
    let crc_ok = complete && stored_crc == record.integrity_crc(expected_parity);
    Ok(SlotRead {
        record,
        meta_ok: true,
        complete,
        crc_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(t: u8, x: u16) -> TxTag {
        TxTag::new(t, x)
    }

    #[test]
    fn meta_round_trips_every_kind() {
        for rec in [
            Record::undo_redo(tag(3, 515), 0x1240, 0xAA, 0xBB, 0x0F),
            Record::redo_only(tag(1, 2), 0x80, 5, 0x0F),
            Record::commit(tag(2, 9), Some(77)),
            Record::commit(tag(2, 9), None),
        ] {
            let f = unpack_meta(rec.meta_words()).unwrap();
            assert_eq!(f.kind, rec.kind);
            assert_eq!(f.tag, rec.tag);
            assert_eq!(f.addr, rec.addr);
            assert_eq!(f.dirty_mask, rec.dirty_mask);
            assert_eq!(f.ulog_count, rec.ulog_count);
        }
        let err = unpack_meta([0, 0b11]).unwrap_err();
        assert_eq!(err.kind_bits, 3);
    }

    #[test]
    fn meta_words_pin_the_fig7_bit_layout() {
        let rec = Record::commit(tag(3, 515), Some(77));
        let [w0, w1] = rec.meta_words();
        assert_eq!(w0, 0);
        assert_eq!(w1 & 0b11, 2); // kind commit
        assert_eq!((w1 >> 2) & 0xFF, 3);
        assert_eq!((w1 >> 10) & 0xFFFF, 515);
        assert_eq!((w1 >> 34) & 0x3FF_FFFF, 77);
        assert_eq!((w1 >> 62) & 1, 1);
    }

    #[test]
    fn data_word_accessors_cover_each_kind() {
        let mut u = Record::undo_redo(tag(0, 0), 0x40, 0xAA, 0xBB, 0x0F);
        assert_eq!(u.kind.data_words(), 2);
        assert_eq!(u.data_word(0), 0xAA);
        assert_eq!(u.data_word(1), 0xBB);
        u.set_data_word(0, 1);
        u.set_data_word(1, 2);
        assert_eq!((u.undo, u.redo), (Some(1), 2));
        let mut r = Record::redo_only(tag(0, 0), 0x40, 7, 0xFF);
        assert_eq!(r.kind.data_words(), 1);
        assert_eq!(r.data_word(0), 7);
        r.set_data_word(0, 9);
        assert_eq!(r.redo, 9);
        assert_eq!(Record::commit(tag(0, 0), None).kind.data_words(), 0);
    }

    #[test]
    fn crc_known_vector() {
        // CRC-32("12345678") — the ASCII bytes 0x31..0x38 packed LE into
        // one word — against a table-driven reference of the same IEEE
        // 802.3 polynomial, and against the published check value.
        let table: Vec<u32> = (0..256u32)
            .map(|mut c| {
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                c
            })
            .collect();
        let mut reference: u32 = !0;
        for b in 0x31u8..=0x38 {
            reference = table[((reference ^ b as u32) & 0xFF) as usize] ^ (reference >> 8);
        }
        reference = !reference;
        assert_eq!(crc32_words(&[0x3837_3635_3433_3231]), reference);
        assert_eq!(reference, 0x9AE0_DAAF);
    }

    /// The bitwise CRC-32 the table-driven one replaced: the reference
    /// every table lookup must reproduce.
    fn bitwise_crc32(words: &[u64]) -> u32 {
        let mut crc: u32 = !0;
        for &w in words {
            for byte in w.to_le_bytes() {
                crc ^= byte as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (CRC_POLY & mask);
                }
            }
        }
        !crc
    }

    /// A xorshift64 stream: deterministic word slices for the sweeps.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        let mut next = xorshift(0x5EED_C3C3_0001);
        for case in 0..2_000 {
            let len = case % 9;
            let words: Vec<u64> = (0..len)
                .map(|i| match (case + i) % 4 {
                    0 => 0,
                    1 => next() & 0xFF,
                    2 => u64::MAX,
                    _ => next(),
                })
                .collect();
            assert_eq!(crc32_words(&words), bitwise_crc32(&words), "{words:x?}");
            for parity in [false, true] {
                let mut sealed = words.clone();
                sealed.push(parity as u64);
                assert_eq!(seal_words(&words, parity), bitwise_crc32(&sealed));
            }
        }
    }

    #[test]
    fn integrity_crc_matches_the_sealed_payload_for_every_kind() {
        let mut next = xorshift(0x1A7E_6217);
        for _ in 0..200 {
            let t = tag(next() as u8, next() as u16);
            let addr = next();
            let mut records = vec![
                Record::undo_redo(t, addr, next(), next(), next() as u8),
                Record::redo_only(t, addr, next(), next() as u8),
                Record::commit(t, Some(next() as u32 & 0x3FF_FFFF)),
                Record::commit(t, None),
            ];
            for r in &mut records {
                r.timestamp = next();
            }
            for r in records {
                let (words, n) = r.payload_array();
                assert_eq!(n, 3 + r.kind.data_words());
                assert_eq!(&words[..n], r.payload_words().as_slice());
                for parity in [false, true] {
                    let mut sealed = r.payload_words();
                    sealed.push(parity as u64);
                    assert_eq!(r.integrity_crc(parity), bitwise_crc32(&sealed));
                    assert_eq!(r.integrity_crc(parity), seal_words(&words[..n], parity));
                }
            }
        }
    }

    #[test]
    fn crc_sensitive_to_order_and_length() {
        assert_ne!(crc32_words(&[1, 2]), crc32_words(&[2, 1]));
        assert_ne!(crc32_words(&[0]), crc32_words(&[0, 0]));
    }

    #[test]
    fn slot_round_trips() {
        for parity in [false, true] {
            for rec in [
                Record::undo_redo(tag(0, 0), 0x40, 1, 2, 0xFF).with_timestamp(5),
                Record::redo_only(tag(7, 99), 0x48, 3, 0x0F),
                Record::commit(tag(1, 1), Some(4)).with_timestamp(9),
            ] {
                let bytes = encode_slot(&rec, parity);
                assert_eq!(bytes.len() as u64, rec.kind.slot_bytes());
                let read = decode_slot(&bytes, parity).unwrap();
                assert!(read.meta_ok && read.complete && read.crc_ok);
                assert_eq!(read.record, rec);
                // Read back with the wrong expected parity: stale pass.
                let stale = decode_slot(&bytes, !parity).unwrap();
                assert!(!stale.complete && !stale.crc_ok);
            }
        }
    }

    #[test]
    fn all_zero_slot_reads_as_incomplete() {
        let zeros = vec![0u8; SLOT_MAX as usize];
        let read = decode_slot(&zeros, false).unwrap();
        assert!(!read.complete, "missing magic marks the slot unwritten");
        assert!(!read.crc_ok);
    }
}
