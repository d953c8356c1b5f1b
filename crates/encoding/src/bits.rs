//! Little-endian bit packing used to build encoded write payloads.
//!
//! Encoders emit (tag, payload) pairs; the bit writer packs them into `u64`
//! words (one word region's stream becomes a
//! [`SegmentPayload`](crate::slde::SegmentPayload), which
//! [`dcw::program_payload`](crate::dcw::program_payload) spreads over
//! cells). The bit reader implements the decode path used during recovery.

/// Packs variable-width fields into a little-endian bit stream of at most
/// `WORDS` 64-bit words, stored inline (no heap allocation).
///
/// # Example
///
/// ```
/// use morlog_encoding::bits::{BitReader, BitWriter};
/// let mut w = BitWriter::<1>::new();
/// w.push(0b101, 3);
/// w.push(0xFF, 8);
/// let (words, bits) = w.finish();
/// assert_eq!(bits, 11);
/// let mut r = BitReader::new(&words, bits);
/// assert_eq!(r.pull(3), 0b101);
/// assert_eq!(r.pull(8), 0xFF);
/// ```
#[derive(Debug, Clone)]
pub struct BitWriter<const WORDS: usize> {
    words: [u64; WORDS],
    bits: usize,
}

impl<const WORDS: usize> Default for BitWriter<WORDS> {
    fn default() -> Self {
        BitWriter {
            words: [0; WORDS],
            bits: 0,
        }
    }
}

impl<const WORDS: usize> BitWriter<WORDS> {
    /// Creates an empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, `value` has bits above `width`, or the
    /// stream would outgrow its `WORDS` words.
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} too large");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        assert!(
            self.bits + width as usize <= WORDS * 64,
            "bit stream overflows {WORDS} words"
        );
        let word_idx = self.bits / 64;
        let bit_idx = (self.bits % 64) as u32;
        self.words[word_idx] |= value << bit_idx;
        if bit_idx + width > 64 {
            self.words[word_idx + 1] = value >> (64 - bit_idx);
        }
        self.bits += width as usize;
    }

    /// Current stream length in bits.
    pub fn len_bits(&self) -> usize {
        self.bits
    }

    /// Finishes the stream, returning the packed words (unused words are
    /// zero) and the bit count.
    pub fn finish(self) -> ([u64; WORDS], usize) {
        (self.words, self.bits)
    }
}

/// Reads fields back out of a packed bit stream.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a packed stream of `bits` valid bits.
    pub fn new(words: &'a [u64], bits: usize) -> Self {
        BitReader {
            words,
            bits,
            pos: 0,
        }
    }

    /// Reads the next `width` bits.
    ///
    /// # Panics
    ///
    /// Panics when reading past the end of the stream.
    pub fn pull(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "field width {width} too large");
        assert!(
            self.pos + width as usize <= self.bits,
            "bit stream underrun"
        );
        if width == 0 {
            return 0;
        }
        let word_idx = self.pos / 64;
        let bit_idx = (self.pos % 64) as u32;
        let mut value = self.words[word_idx] >> bit_idx;
        if bit_idx + width > 64 {
            value |= self.words[word_idx + 1] << (64 - bit_idx);
        }
        self.pos += width as usize;
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Bits remaining to be read.
    pub fn remaining(&self) -> usize {
        self.bits - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream() {
        let (words, bits) = BitWriter::<2>::new().finish();
        assert_eq!(words, [0, 0]);
        assert_eq!(bits, 0);
    }

    #[test]
    fn cross_word_boundary() {
        let mut w = BitWriter::<2>::new();
        w.push((1u64 << 60) - 1, 60);
        w.push(0b1011, 4);
        w.push(0xABCD, 16);
        let (words, bits) = w.finish();
        assert_eq!(bits, 80);
        let mut r = BitReader::new(&words, bits);
        assert_eq!(r.pull(60), (1u64 << 60) - 1);
        assert_eq!(r.pull(4), 0b1011);
        assert_eq!(r.pull(16), 0xABCD);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn full_width_fields() {
        let mut w = BitWriter::<3>::new();
        w.push(0xDEAD_BEEF_CAFE_F00D, 64);
        w.push(1, 1);
        w.push(0x0123_4567_89AB_CDEF, 64);
        let (words, bits) = w.finish();
        let mut r = BitReader::new(&words, bits);
        assert_eq!(r.pull(64), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.pull(1), 1);
        assert_eq!(r.pull(64), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn many_small_fields_round_trip() {
        let mut w = BitWriter::<10>::new();
        for i in 0..200u64 {
            w.push(i % 8, 3);
        }
        let (words, bits) = w.finish();
        assert_eq!(bits, 600);
        let mut r = BitReader::new(&words, bits);
        for i in 0..200u64 {
            assert_eq!(r.pull(3), i % 8);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::<1>::new().push(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "overflows 1 words")]
    fn overflowing_the_capacity_panics() {
        let mut w = BitWriter::<1>::new();
        w.push(0, 60);
        w.push(0, 5);
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn underrun_panics() {
        let mut w = BitWriter::<1>::new();
        w.push(3, 2);
        let (words, bits) = w.finish();
        BitReader::new(&words, bits).pull(3);
    }

    #[test]
    fn zero_width_fields_are_noops() {
        let mut w = BitWriter::<1>::new();
        w.push(0, 0);
        w.push(5, 3);
        let (words, bits) = w.finish();
        assert_eq!(bits, 3);
        let mut r = BitReader::new(&words, bits);
        assert_eq!(r.pull(0), 0);
        assert_eq!(r.pull(3), 5);
    }
}
