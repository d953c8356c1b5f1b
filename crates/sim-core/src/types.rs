//! Physical addresses, cache-line geometry and raw line data.

use std::fmt;

/// Number of bytes in a cache line / NVMM write block (64 B, as in the paper).
pub const LINE_BYTES: usize = 64;
/// Number of bytes in a machine word (the paper logs at 64-bit granularity).
pub const WORD_BYTES: usize = 8;
/// Number of 64-bit words per cache line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / WORD_BYTES;

/// A byte-granularity physical address.
///
/// The paper uses 48-bit physical addresses in its log entries (Fig. 7); we
/// store the full `u64` but provide [`Addr::truncated48`] for entry layout
/// arithmetic.
///
/// # Example
///
/// ```
/// use morlog_sim_core::Addr;
/// let a = Addr::new(0x40);
/// assert_eq!(a.word_index(), 0);
/// assert_eq!(Addr::new(0x48).word_index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the address truncated to the 48 bits stored in log entries.
    pub fn truncated48(self) -> u64 {
        self.0 & 0x0000_FFFF_FFFF_FFFF
    }

    /// Returns the cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES as u64)
    }

    /// Returns the index of the 64-bit word within its cache line.
    pub fn word_index(self) -> usize {
        ((self.0 % LINE_BYTES as u64) / WORD_BYTES as u64) as usize
    }

    /// Returns the byte offset within its 64-bit word.
    pub fn byte_in_word(self) -> usize {
        (self.0 % WORD_BYTES as u64) as usize
    }

    /// Returns the address aligned down to its containing word.
    pub fn word_base(self) -> Addr {
        Addr(self.0 & !(WORD_BYTES as u64 - 1))
    }

    /// Returns the address offset by `bytes`.
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line-granularity address (byte address divided by [`LINE_BYTES`]).
///
/// # Example
///
/// ```
/// use morlog_sim_core::{Addr, LineAddr};
/// let l: LineAddr = Addr::new(0x1040).line();
/// assert_eq!(l.base(), Addr::new(0x1040));
/// assert_eq!(l.word_addr(2), Addr::new(0x1050));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line index (byte address / 64).
    pub const fn from_index(index: u64) -> Self {
        LineAddr(index)
    }

    /// Returns the line index (byte address / 64).
    pub fn index(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES as u64)
    }

    /// Returns the byte address of word `word` (0..8) within the line.
    ///
    /// # Panics
    ///
    /// Panics if `word >= WORDS_PER_LINE`.
    pub fn word_addr(self, word: usize) -> Addr {
        assert!(word < WORDS_PER_LINE, "word index {word} out of range");
        Addr(self.0 * LINE_BYTES as u64 + (word * WORD_BYTES) as u64)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// The raw 64 bytes of one cache line / NVMM block.
///
/// Provides word-granularity accessors used by the logging hardware (which
/// operates on 64-bit words) and byte-granularity accessors used by the
/// encoders (which operate on per-byte dirty flags).
///
/// # Example
///
/// ```
/// use morlog_sim_core::LineData;
/// let mut d = LineData::zeroed();
/// d.set_word(3, 0xDEAD_BEEF);
/// assert_eq!(d.word(3), 0xDEAD_BEEF);
/// assert_eq!(d.word(0), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineData([u8; LINE_BYTES]);

impl LineData {
    /// A line of all-zero bytes.
    pub fn zeroed() -> Self {
        LineData([0; LINE_BYTES])
    }

    /// Returns the raw bytes.
    pub fn bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// Reads word `index` (little-endian), `index` in `0..WORDS_PER_LINE`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= WORDS_PER_LINE`.
    pub fn word(&self, index: usize) -> u64 {
        let start = index * WORD_BYTES;
        u64::from_le_bytes(
            self.0[start..start + WORD_BYTES]
                .try_into()
                .expect("word slice"),
        )
    }

    /// Writes word `index` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if `index >= WORDS_PER_LINE`.
    pub fn set_word(&mut self, index: usize, value: u64) {
        let start = index * WORD_BYTES;
        self.0[start..start + WORD_BYTES].copy_from_slice(&value.to_le_bytes());
    }

    /// Returns an iterator over the eight words of the line.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..WORDS_PER_LINE).map(move |i| self.word(i))
    }
}

impl Default for LineData {
    fn default() -> Self {
        LineData::zeroed()
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for i in 0..WORDS_PER_LINE {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:016x}", self.word(i))?;
        }
        write!(f, "]")
    }
}

/// Computes the per-byte dirty mask between two 64-bit words.
///
/// Bit `i` of the result is set iff byte `i` (little-endian) differs between
/// `old` and `new`. This is the "dirty flag" the paper attaches to log buffer
/// entries and L1 words (§IV-A).
///
/// # Example
///
/// ```
/// use morlog_sim_core::types::dirty_byte_mask;
/// assert_eq!(dirty_byte_mask(0, 0), 0);
/// assert_eq!(dirty_byte_mask(0x00FF, 0x00FE), 0b0000_0001);
/// assert_eq!(dirty_byte_mask(0, u64::MAX), 0xFF);
/// ```
pub fn dirty_byte_mask(old: u64, new: u64) -> u8 {
    let diff = old ^ new;
    let mut mask = 0u8;
    for byte in 0..8 {
        if (diff >> (byte * 8)) & 0xFF != 0 {
            mask |= 1 << byte;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_and_word() {
        let a = Addr::new(0x1234_5678);
        assert_eq!(a.line().base().as_u64(), 0x1234_5640);
        assert_eq!(a.word_index(), 7);
        assert_eq!(a.byte_in_word(), 0);
        assert_eq!(a.word_base(), a);
        let b = Addr::new(0x43);
        assert_eq!(b.word_index(), 0);
        assert_eq!(b.byte_in_word(), 3);
        assert_eq!(b.word_base(), Addr::new(0x40));
    }

    #[test]
    fn addr_truncated48_masks_high_bits() {
        let a = Addr::new(0xFFFF_0000_0000_1234);
        assert_eq!(a.truncated48(), 0x1234);
    }

    #[test]
    fn line_addr_round_trip() {
        let l = LineAddr::from_index(42);
        assert_eq!(l.index(), 42);
        assert_eq!(l.base().as_u64(), 42 * 64);
        assert_eq!(l.base().line(), l);
        assert_eq!(l.word_addr(7).as_u64(), 42 * 64 + 56);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_addr_word_out_of_range_panics() {
        LineAddr::from_index(0).word_addr(8);
    }

    #[test]
    fn line_data_words_round_trip() {
        let mut d = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            d.set_word(i, (i as u64) << 32 | 0xABCD);
        }
        for i in 0..WORDS_PER_LINE {
            assert_eq!(d.word(i), (i as u64) << 32 | 0xABCD);
        }
        let collected: Vec<u64> = d.words().collect();
        assert_eq!(collected.len(), 8);
        assert_eq!(collected[3], 3u64 << 32 | 0xABCD);
    }

    #[test]
    fn line_data_little_endian_layout() {
        let mut d = LineData::zeroed();
        d.set_word(0, 0x0102_0304_0506_0708);
        assert_eq!(d.bytes()[0], 0x08);
        assert_eq!(d.bytes()[7], 0x01);
    }

    #[test]
    fn dirty_byte_mask_examples() {
        assert_eq!(dirty_byte_mask(0xFFFF_FFFF, 0xFFFF_FFFF), 0);
        assert_eq!(dirty_byte_mask(0x0000_0000_0000_00FF, 0), 0b1);
        assert_eq!(dirty_byte_mask(0xFF00_0000_0000_0000, 0), 0b1000_0000);
        // Paper Fig. 11: A1 -> A2 changes every byte.
        assert_eq!(
            dirty_byte_mask(0x000300F9000500FE, 0xCDEFCDEFCDEFCDEF),
            0xFF
        );
    }

    #[test]
    fn debug_impls_nonempty() {
        assert!(!format!("{:?}", Addr::new(0)).is_empty());
        assert!(!format!("{:?}", LineAddr::from_index(0)).is_empty());
        assert!(!format!("{:?}", LineData::zeroed()).is_empty());
    }
}
