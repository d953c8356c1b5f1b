//! Differential log-data compression (DLDC) — §IV-A and Table II of the
//! paper.
//!
//! DLDC is the encoder MorLog adds for log data. It exploits the observation
//! that *the log data for clean bits are clean*: bytes of an updated word
//! whose value did not change need not be logged at all, because the
//! corresponding bytes of the in-place data are never programmed.
//!
//! Encoding proceeds in two steps (Fig. 9):
//!
//! 1. discard the clean bytes of the word according to the per-byte dirty
//!    flag, keeping only the dirty bytes (packed LSB-first);
//! 2. compress the packed dirty bytes against the eight data patterns of
//!    Table II, falling back to storing them raw when none matches.
//!
//! A word whose dirty flag is zero is a *silent log write* and is discarded
//! entirely before reaching the encoder.

/// The Table II data patterns. Discriminants are the 3-bit pattern tags.
///
/// `N` below is the size in bits of the packed dirty bytes before
/// compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DldcPattern {
    /// All dirty bytes are zero. Compressed size 3 bits (tag only).
    AllZero = 0,
    /// Every dirty byte sign-extends from its low 2 bits. 3 + N/4 bits.
    SignExt2PerByte = 1,
    /// Every dirty byte sign-extends from its low 4 bits. 3 + N/2 bits.
    SignExt4PerByte = 2,
    /// The packed value sign-extends from its low byte. 3 + 8 bits.
    SignExt1Byte = 3,
    /// The packed value sign-extends from its low 2 bytes. 3 + 16 bits.
    SignExt2Byte = 4,
    /// The packed value sign-extends from its low 4 bytes. 3 + 32 bits.
    SignExt4Byte = 5,
    /// Every dirty byte is a high nibble padded with a zero low nibble.
    /// 3 + N/2 bits.
    NibblePadded = 6,
    /// The least-significant dirty byte is zero; the rest are stored raw.
    /// 3 + (N − 8) bits.
    LsByteZero = 7,
    /// Escape: dirty bytes stored raw, 3 + N bits. (In hardware the escape
    /// shares the entry's encoding-type flag; we model it as a ninth case.)
    Raw = 8,
}

impl DldcPattern {
    /// The pattern tag stored with the compressed bytes (3 bits; [`Raw`]
    /// is signalled through the entry's encoding-type flag).
    ///
    /// [`Raw`]: DldcPattern::Raw
    pub fn tag(self) -> u8 {
        (self as u8) & 0x7
    }

    /// Payload size in bits of this pattern's encoding of `n_dirty` dirty
    /// bytes (`n_dirty ≥ 1`).
    pub const fn payload_bits(self, n_dirty: u32) -> u32 {
        let n = n_dirty * 8;
        match self {
            DldcPattern::AllZero => 0,
            DldcPattern::SignExt2PerByte => n / 4,
            DldcPattern::SignExt4PerByte | DldcPattern::NibblePadded => n / 2,
            DldcPattern::SignExt1Byte => 8,
            DldcPattern::SignExt2Byte => 16,
            DldcPattern::SignExt4Byte => 32,
            DldcPattern::LsByteZero => n - 8,
            DldcPattern::Raw => n,
        }
    }

    /// All Table II patterns (excluding the raw escape), in tag order.
    pub const TABLE_II: [DldcPattern; 8] = [
        DldcPattern::AllZero,
        DldcPattern::SignExt2PerByte,
        DldcPattern::SignExt4PerByte,
        DldcPattern::SignExt1Byte,
        DldcPattern::SignExt2Byte,
        DldcPattern::SignExt4Byte,
        DldcPattern::NibblePadded,
        DldcPattern::LsByteZero,
    ];
}

/// Number of bits in the DLDC pattern tag.
pub const DLDC_TAG_BITS: u32 = 3;
/// Bits in the per-word dirty flag that DLDC stores alongside the data.
pub const DIRTY_FLAG_BITS: u32 = 8;

/// One log word encoded by DLDC.
///
/// # Example
///
/// ```
/// use morlog_encoding::dldc::{compress_dirty, decompress, DldcPattern};
/// // Old 0xFFFF_FFFF_ABCD_EFFF, new 0xFFFF_FFFF_ABCD_F000: bytes 0 and 1 dirty.
/// let enc = compress_dirty(0xFFFF_FFFF_ABCD_F000, 0b0000_0011).unwrap();
/// assert_eq!(enc.n_dirty, 2);
/// assert!(enc.total_bits() < 64);
/// let restored = decompress(&enc, 0xFFFF_FFFF_ABCD_EFFF);
/// assert_eq!(restored, 0xFFFF_FFFF_ABCD_F000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DldcEncoded {
    /// The matched pattern (or the raw escape).
    pub pattern: DldcPattern,
    /// Compressed payload, right-aligned.
    pub payload: u64,
    /// The per-byte dirty flag of the word.
    pub dirty_mask: u8,
    /// Number of dirty bytes (`dirty_mask.count_ones()`).
    pub n_dirty: u32,
}

impl DldcEncoded {
    /// Payload size in bits for this encoding.
    pub fn payload_bits(&self) -> u32 {
        self.pattern.payload_bits(self.n_dirty)
    }

    /// Tag + payload bits (the Table II "compressed size").
    pub fn total_bits(&self) -> u32 {
        DLDC_TAG_BITS + self.payload_bits()
    }

    /// Tag + payload + the dirty flag DLDC must store with the entry — the
    /// size SLDE compares against the FPC path (§IV-B).
    pub fn total_bits_with_flag(&self) -> u32 {
        self.total_bits() + DIRTY_FLAG_BITS
    }
}

/// Packs the dirty bytes of `word` (per `mask`, LSB-first) into a compact
/// value; returns the packed value and the byte count.
fn pack_dirty(word: u64, mask: u8) -> (u64, u32) {
    let mut packed = 0u64;
    let mut n = 0u32;
    for byte in 0..8 {
        if mask & (1 << byte) != 0 {
            packed |= ((word >> (byte * 8)) & 0xFF) << (n * 8);
            n += 1;
        }
    }
    (packed, n)
}

fn sign_extends_bytes(packed: u64, n_bytes: u32, from_bits: u32) -> bool {
    if n_bytes * 8 < from_bits {
        return false;
    }
    let total = n_bytes * 8;
    let v = ((packed as i64) << (64 - total)) >> (64 - total); // interpret as n-byte signed
    let trunc = (v << (64 - from_bits as i64)) >> (64 - from_bits as i64);
    trunc == v
}

/// Compresses the dirty bytes of `word` under the dirty flag `mask`.
///
/// Returns `None` when the mask is zero — a silent log write that the log
/// buffer discards without encoding.
///
/// The smallest applicable encoding wins; ties resolve to the lowest tag,
/// mirroring a priority encoder.
pub fn compress_dirty(word: u64, mask: u8) -> Option<DldcEncoded> {
    if mask == 0 {
        return None;
    }
    let (packed, n) = pack_dirty(word, mask);
    // Every test runs on all packed bytes at once. Bytes above the `n`
    // dirty ones are zero and pass every per-byte test, so no test needs
    // the count. Bit `i` of `flips` says whether bits `i` and `i + 1`
    // differ: a byte sign-extends from its low `k` bits when bits `k - 1`
    // to 7 agree, i.e. its `flips` bits `k - 1` to 6 are clear.
    let flips = packed ^ (packed >> 1);
    // Whether each Table II pattern applies, in tag order.
    let matches = [
        packed == 0,
        flips & bytes_of(0x7E) == 0,
        flips & bytes_of(0x78) == 0,
        n >= 2 && sign_extends_bytes(packed, n, 8),
        n >= 3 && sign_extends_bytes(packed, n, 16),
        n >= 5 && sign_extends_bytes(packed, n, 32),
        packed & bytes_of(0x0F) == 0,
        n >= 2 && packed & 0xFF == 0,
    ];
    // The smallest applicable encoding, else the raw escape; ties go to
    // the lowest tag.
    let mut pattern = DldcPattern::Raw;
    let mut best = pattern.payload_bits(n);
    for (&p, &m) in DldcPattern::TABLE_II.iter().zip(&matches) {
        let size = p.payload_bits(n);
        if m && size < best {
            (pattern, best) = (p, size);
        }
    }
    let payload = match pattern {
        DldcPattern::AllZero => 0,
        DldcPattern::SignExt2PerByte => gather_low_bits(packed, 2),
        DldcPattern::SignExt4PerByte => gather_low_bits(packed, 4),
        DldcPattern::SignExt1Byte => packed & 0xFF,
        DldcPattern::SignExt2Byte => packed & 0xFFFF,
        DldcPattern::SignExt4Byte => packed & 0xFFFF_FFFF,
        DldcPattern::NibblePadded => gather_low_bits(packed >> 4, 4),
        DldcPattern::LsByteZero => packed >> 8,
        DldcPattern::Raw => packed,
    };
    Some(DldcEncoded {
        pattern,
        payload,
        dirty_mask: mask,
        n_dirty: n,
    })
}

/// `byte` repeated in all eight bytes of a word.
const fn bytes_of(byte: u8) -> u64 {
    byte as u64 * 0x0101_0101_0101_0101
}

/// The low `k` bits (2 or 4) of each byte of `packed`, packed LSB-first
/// into `8·k` bits: byte `i`'s bits land at `i·k`.
fn gather_low_bits(packed: u64, k: u32) -> u64 {
    if k == 2 {
        let t = packed & bytes_of(0x03);
        let t = (t | t >> 6) & 0x000F_000F_000F_000F;
        let t = (t | t >> 12) & 0x0000_00FF_0000_00FF;
        (t | t >> 24) & 0xFFFF
    } else {
        let t = packed & bytes_of(0x0F);
        let t = (t | t >> 4) & 0x00FF_00FF_00FF_00FF;
        let t = (t | t >> 8) & 0x0000_FFFF_0000_FFFF;
        (t | t >> 16) & 0xFFFF_FFFF
    }
}

/// Reconstructs the new word from a DLDC encoding and the old in-place word.
///
/// The clean bytes come from `old_word`; the dirty bytes come from the
/// decompressed payload. Used by the recovery routine (§III-E).
pub fn decompress(enc: &DldcEncoded, old_word: u64) -> u64 {
    let n = enc.n_dirty;
    let packed = match enc.pattern {
        DldcPattern::AllZero => 0,
        DldcPattern::SignExt2PerByte => {
            let mut packed = 0u64;
            for i in 0..n {
                let two = ((enc.payload >> (i * 2)) & 0b11) as u8;
                let b = ((two as i8) << 6 >> 6) as u8;
                packed |= (b as u64) << (i * 8);
            }
            packed
        }
        DldcPattern::SignExt4PerByte => {
            let mut packed = 0u64;
            for i in 0..n {
                let nib = ((enc.payload >> (i * 4)) & 0xF) as u8;
                let b = ((nib as i8) << 4 >> 4) as u8;
                packed |= (b as u64) << (i * 8);
            }
            packed
        }
        DldcPattern::SignExt1Byte => sign_extend_to(enc.payload, 8, n),
        DldcPattern::SignExt2Byte => sign_extend_to(enc.payload, 16, n),
        DldcPattern::SignExt4Byte => sign_extend_to(enc.payload, 32, n),
        DldcPattern::NibblePadded => {
            let mut packed = 0u64;
            for i in 0..n {
                let nib = (enc.payload >> (i * 4)) & 0xF;
                packed |= (nib << 4) << (i * 8);
            }
            packed
        }
        DldcPattern::LsByteZero => enc.payload << 8,
        DldcPattern::Raw => enc.payload,
    };
    // Scatter packed dirty bytes over the old word.
    let mut result = old_word;
    let mut taken = 0u32;
    for byte in 0..8 {
        if enc.dirty_mask & (1 << byte) != 0 {
            let b = (packed >> (taken * 8)) & 0xFF;
            result = (result & !(0xFFu64 << (byte * 8))) | (b << (byte * 8));
            taken += 1;
        }
    }
    result
}

fn sign_extend_to(payload: u64, from_bits: u32, n_bytes: u32) -> u64 {
    let v = ((payload as i64) << (64 - from_bits)) >> (64 - from_bits);
    let total = n_bytes * 8;
    if total >= 64 {
        v as u64
    } else {
        (v as u64) & ((1u64 << total) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::types::dirty_byte_mask;

    fn round_trip(old: u64, new: u64) {
        let mask = dirty_byte_mask(old, new);
        if mask == 0 {
            assert!(compress_dirty(new, mask).is_none());
            return;
        }
        let enc = compress_dirty(new, mask).unwrap();
        assert_eq!(
            decompress(&enc, old),
            new,
            "old={old:#x} new={new:#x} enc={enc:?}"
        );
    }

    /// The per-pattern byte loops `compress_dirty` replaced: the reference
    /// its bit-parallel tests are checked against.
    fn matches_pattern(packed: u64, n: u32, pattern: DldcPattern) -> Option<u64> {
        let bytes = (0..n).map(|i| ((packed >> (i * 8)) & 0xFF) as u8);
        match pattern {
            DldcPattern::AllZero => (packed == 0).then_some(0),
            DldcPattern::SignExt2PerByte => {
                let mut payload = 0u64;
                for (i, b) in bytes.enumerate() {
                    let two = b & 0b11;
                    let ext = ((two as i8) << 6 >> 6) as u8;
                    if ext != b {
                        return None;
                    }
                    payload |= (two as u64) << (i * 2);
                }
                Some(payload)
            }
            DldcPattern::SignExt4PerByte => {
                let mut payload = 0u64;
                for (i, b) in bytes.enumerate() {
                    let nib = b & 0xF;
                    let ext = ((nib as i8) << 4 >> 4) as u8;
                    if ext != b {
                        return None;
                    }
                    payload |= (nib as u64) << (i * 4);
                }
                Some(payload)
            }
            DldcPattern::SignExt1Byte => {
                (n >= 2 && sign_extends_bytes(packed, n, 8)).then_some(packed & 0xFF)
            }
            DldcPattern::SignExt2Byte => {
                (n >= 3 && sign_extends_bytes(packed, n, 16)).then_some(packed & 0xFFFF)
            }
            DldcPattern::SignExt4Byte => {
                (n >= 5 && sign_extends_bytes(packed, n, 32)).then_some(packed & 0xFFFF_FFFF)
            }
            DldcPattern::NibblePadded => {
                let mut payload = 0u64;
                for (i, b) in bytes.enumerate() {
                    if b & 0x0F != 0 {
                        return None;
                    }
                    payload |= ((b >> 4) as u64) << (i * 4);
                }
                Some(payload)
            }
            DldcPattern::LsByteZero => (n >= 2 && packed & 0xFF == 0).then_some(packed >> 8),
            DldcPattern::Raw => Some(packed),
        }
    }

    /// The reference encoder: every candidate in tag order, raw last, the
    /// first smallest winning.
    fn reference_compress(word: u64, mask: u8) -> Option<DldcEncoded> {
        if mask == 0 {
            return None;
        }
        let (packed, n) = pack_dirty(word, mask);
        let mut best: Option<DldcEncoded> = None;
        let candidates = DldcPattern::TABLE_II
            .iter()
            .copied()
            .chain(std::iter::once(DldcPattern::Raw));
        for pattern in candidates {
            if let Some(payload) = matches_pattern(packed, n, pattern) {
                let enc = DldcEncoded {
                    pattern,
                    payload,
                    dirty_mask: mask,
                    n_dirty: n,
                };
                match &best {
                    Some(b) if b.total_bits() <= enc.total_bits() => {}
                    _ => best = Some(enc),
                }
            }
        }
        best
    }

    #[test]
    fn bit_parallel_matcher_equals_per_pattern_loops() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Words that hit every pattern: random bytes, each byte narrowed
        // to a sign-extended 2- or 4-bit value, a padded nibble, zero or
        // 0xFF, or kept raw.
        let shaped = |r: u64, mut pick: u64| {
            let mut w = 0u64;
            for i in 0..8 {
                let b = (r >> (8 * i)) as u8;
                let b = match pick % 7 {
                    0 => ((b << 6) as i8 >> 6) as u8,
                    1 => ((b << 4) as i8 >> 4) as u8,
                    2 => b & 0xF0,
                    3 => 0,
                    4 => 0xFF,
                    _ => b,
                };
                pick /= 7;
                w |= (b as u64) << (8 * i);
            }
            w
        };
        let mut seen = std::collections::HashSet::new();
        for mask in 1..=255u8 {
            for _ in 0..400 {
                let (r, pick) = (step(), step());
                for word in [r, shaped(r, pick), shaped(r, pick / 3) as i8 as u64] {
                    let got = compress_dirty(word, mask);
                    assert_eq!(
                        got,
                        reference_compress(word, mask),
                        "word {word:#x} mask {mask:#010b}"
                    );
                    seen.insert(got.unwrap().pattern);
                }
            }
        }
        assert_eq!(seen.len(), 9, "every pattern and the escape were hit");
    }

    #[test]
    fn silent_write_is_none() {
        assert!(compress_dirty(0x1234, 0).is_none());
    }

    #[test]
    fn table_ii_examples() {
        // Tag 000: all-zero dirty bytes.
        let enc = compress_dirty(0, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::AllZero);
        assert_eq!(enc.total_bits(), 3);

        // Tag 110 example 0x10203040 -> nibbles 1,2,3,4.
        let enc = compress_dirty(0x1020_3040, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::NibblePadded);
        assert_eq!(enc.payload, 0x1234 & 0xFFFF); // packed LSB-first: 0x4,0x3,0x2,0x1
        assert_eq!(enc.total_bits(), 3 + 16);

        // Tag 111 example 0x1234567800 (5 dirty bytes, LSByte zero).
        let enc = compress_dirty(0x12_3456_7800, 0x1F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::LsByteZero);
        assert_eq!(enc.total_bits(), 3 + 32);

        // Tag 101 example 0xFF80000000 (5 bytes, sign-extends from 32 bits).
        let enc = compress_dirty(0xFF_8000_0000, 0x1F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::SignExt4Byte);
        assert_eq!(enc.total_bits(), 3 + 32);
    }

    #[test]
    fn per_byte_sign_extension() {
        // 0x01F20101: bytes 01, 01, F2, 01 — wait Table II example is per-byte
        // 2-bit: 0x01 (=sext(0b01)), 0xF2? No: 0xFE sign-extends from 0b10.
        // Use bytes that genuinely 2-bit sign-extend: 0x00, 0x01, 0xFE, 0xFF.
        let word = 0x00_01_FE_FFu64;
        let enc = compress_dirty(word, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::SignExt2PerByte);
        assert_eq!(enc.total_bits(), 3 + 8);
        assert_eq!(decompress(&enc, 0), word);

        // 4-bit per byte: 0x03, 0xF9, 0x05, 0xFE (Table II example 0x03F905FE).
        let word = 0x03_F9_05_FEu64;
        let enc = compress_dirty(word, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::SignExt4PerByte);
        assert_eq!(enc.total_bits(), 3 + 16);
        assert_eq!(decompress(&enc, 0), word);
    }

    #[test]
    fn whole_value_sign_extension() {
        // Table II tag 011 example: 0xFFFFFF80 (4 bytes sign-extending from 8).
        let enc = compress_dirty(0xFFFF_FF80, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::SignExt1Byte);
        assert_eq!(enc.total_bits(), 11);
        // Tag 100 example: 0x00007FFF.
        let enc = compress_dirty(0x0000_7FFF, 0x0F).unwrap();
        assert_eq!(enc.pattern, DldcPattern::SignExt2Byte);
        assert_eq!(enc.total_bits(), 19);
    }

    #[test]
    fn raw_escape_for_incompressible() {
        let enc = compress_dirty(0xD3A1_57C2_9B64_E8F1, 0xFF).unwrap();
        assert_eq!(enc.pattern, DldcPattern::Raw);
        assert_eq!(enc.total_bits(), 3 + 64);
        assert_eq!(decompress(&enc, 0), 0xD3A1_57C2_9B64_E8F1);
    }

    #[test]
    fn sparse_masks_round_trip() {
        // Dirty bytes scattered through the word.
        round_trip(0x1111_1111_1111_1111, 0x1111_2211_1133_1111);
        round_trip(0xAAAA_AAAA_AAAA_AAAA, 0xAAAA_AAAA_AAAA_AAAB);
        round_trip(0, u64::MAX);
        round_trip(u64::MAX, 0);
        round_trip(0xFF00_FF00_FF00_FF00, 0xFF00_FF11_FF00_FF33);
    }

    #[test]
    fn fuzz_round_trip() {
        let mut x: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let old = step();
            // Bias toward partially-clean words, as real updates are.
            let keep = step();
            let new = (old & keep) | (step() & !keep);
            round_trip(old, new);
        }
    }

    #[test]
    fn clean_discard_beats_whole_word() {
        // 1 dirty byte out of 8: DLDC total must be far below 64 bits.
        let old = 0x0102_0304_0506_0708u64;
        let new = 0x0102_0304_0506_07FF;
        let mask = dirty_byte_mask(old, new);
        assert_eq!(mask, 1);
        let enc = compress_dirty(new, mask).unwrap();
        assert!(enc.total_bits_with_flag() <= 3 + 8 + 8);
    }

    #[test]
    fn tag_is_three_bits() {
        for p in DldcPattern::TABLE_II {
            assert!(p.tag() < 8);
        }
        assert_eq!(DldcPattern::Raw.tag(), 0); // escape shares tag space
    }
}
