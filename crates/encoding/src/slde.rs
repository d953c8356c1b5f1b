//! Selective log data encoding (SLDE) — §IV-B of the paper.
//!
//! The SLDE codec sits on the write path of the NVMM module controller
//! (Fig. 10). For every write it runs the FPC encoder and, for log data, the
//! DLDC encoder in parallel, keeps the output with the least write cost,
//! expands the chosen bit stream over the region's cells with the
//! compression-ratio-aware mapping, and lets DCW program only the modified
//! cells. The decode path reverses the chosen encoder per the stored
//! encoding-type flags.
//!
//! # Per-word cell sub-regions
//!
//! Every 64-bit word owns a fixed [`WORD_REGION_CELLS`]-cell sub-region of
//! its block or log slot. Compression and expansion happen *within* the
//! word's own region, so an update that leaves a word untouched leaves its
//! cells untouched and DCW programs nothing for it — this is what makes the
//! Fig. 4(c) behaviour ("only 13 bits are programmed to update A")
//! reproducible. A stream-packed layout would dislocate every bit after the
//! first changed word and defeat DCW.
//!
//! The same type also implements the CRADE baseline \[61\] (FPC + expansion
//! coding with no DLDC path) by construction: see [`SldeCodec::crade`].

use morlog_sim_core::array_vec::ArrayVec;
use morlog_sim_core::{LineData, WORDS_PER_LINE};

use crate::bits::{BitReader, BitWriter};
use crate::cell::{CellModel, BITS_PER_CELL};
use crate::dldc::{self, DldcEncoded, DldcPattern, DIRTY_FLAG_BITS, DLDC_TAG_BITS};
use crate::expansion::{map_payload_with_mode, ExpansionMode, MappedWrite};
use crate::fpc::{self, FpcEncoded, FpcPattern, FPC_TAG_BITS};

/// Cells in the sub-region backing one 64-bit word: 24 cells = 72 bits of
/// TLC capacity, enough for the worst-case encoded word (67-bit FPC escape
/// plus a 2-bit encoding-type flag).
pub const WORD_REGION_CELLS: usize = 24;

/// Packed 64-bit words one word region's payload fits in (72 bits).
pub const SEGMENT_WORDS: usize = (WORD_REGION_CELLS * BITS_PER_CELL).div_ceil(64);

/// Most log-data words one log entry carries (`[undo, redo]`).
pub const MAX_LOG_DATA_WORDS: usize = 2;

/// The encoder choices of one log entry's data words.
pub type Choices = ArrayVec<EncodingChoice, MAX_LOG_DATA_WORDS>;

/// Cells backing one 64-byte block: eight word regions.
pub const BLOCK_CELLS: usize = WORDS_PER_LINE * WORD_REGION_CELLS;

/// Per-word encoding-type flag width (the paper stores 2–3 flag bits per
/// log entry; we carry 2 bits per log-data word).
pub const CHOICE_FLAG_BITS: u32 = 2;

/// How one log-data word ended up encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingChoice {
    /// Whole word compressed by FPC (the CRADE path).
    #[default]
    Fpc,
    /// Clean bytes discarded and dirty bytes pattern-compressed by DLDC.
    Dldc,
    /// Clean bytes discarded, dirty bytes stored raw (DLDC's escape).
    DldcRaw,
}

impl EncodingChoice {
    fn flag(self) -> u64 {
        match self {
            EncodingChoice::Fpc => 0,
            EncodingChoice::Dldc => 1,
            EncodingChoice::DldcRaw => 2,
        }
    }

    fn from_flag(flag: u64) -> Self {
        match flag {
            0 => EncodingChoice::Fpc,
            1 => EncodingChoice::Dldc,
            2 => EncodingChoice::DldcRaw,
            f => panic!("invalid encoding-type flag {f}"),
        }
    }
}

/// One log-data or metadata word presented to the codec.
///
/// # Example
///
/// ```
/// use morlog_encoding::slde::LogWordRequest;
/// let r = LogWordRequest::redo(0xAB, 0xAA); // new value, old value
/// assert!(r.log_data);
/// assert_eq!(r.dirty_mask, 0b1);
/// let m = LogWordRequest::metadata(42);
/// assert!(!m.log_data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogWordRequest {
    /// The value to store.
    pub new: u64,
    /// The per-byte dirty flag of the update this word logs. Maintained by
    /// the logging hardware (§IV-A); the codec never recomputes it.
    pub dirty_mask: u8,
    /// Whether this word is log data (DLDC-eligible) or metadata.
    pub log_data: bool,
}

impl LogWordRequest {
    /// A redo (or undo) log-data word, deriving the dirty flag from the old
    /// and new value of the update.
    pub fn redo(new: u64, old: u64) -> Self {
        LogWordRequest {
            new,
            dirty_mask: morlog_sim_core::types::dirty_byte_mask(old, new),
            log_data: true,
        }
    }

    /// A log-data word with a hardware-maintained dirty flag (redo entries
    /// carry the flag accumulated in the L1 line, not a recomputed one).
    pub fn with_mask(new: u64, dirty_mask: u8) -> Self {
        LogWordRequest {
            new,
            dirty_mask,
            log_data: true,
        }
    }

    /// A metadata word (entry header, commit record): FPC path only.
    pub fn metadata(value: u64) -> Self {
        LogWordRequest {
            new: value,
            dirty_mask: 0,
            log_data: false,
        }
    }
}

/// Summary of a single encoded log word (used by the profilers and the
/// crate-level example).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedLogWord {
    /// Which encoder won.
    pub choice: EncodingChoice,
    /// Bits the word contributes to its region (flags included).
    pub payload_bits: u32,
}

/// A fully encoded write: one mapped sub-region per word, each starting at
/// `index × WORD_REGION_CELLS` within the block or slot. Stored inline: a
/// block or a log entry has at most [`WORDS_PER_LINE`] words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRegion {
    /// Per-word mapped payloads, in word order.
    pub segments: ArrayVec<MappedWrite, WORDS_PER_LINE>,
    /// Total encoded payload bits across segments (pre-expansion).
    pub payload_bits: usize,
    /// Encoder choice per log-data word, in request order.
    pub choices: Choices,
}

/// One word region's encoded bit stream before expansion, as a
/// [`BitWriter`] packed it: `len` bits LSB-first in `bits`, every bit
/// above `len` zero. A region holds at most 72 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentPayload {
    /// The packed bits.
    pub bits: u128,
    /// Stream length in bits.
    pub len: usize,
}

impl SegmentPayload {
    /// The stream as the packed words
    /// [`map_payload_with_mode`](crate::expansion::map_payload_with_mode)
    /// reads.
    fn words(&self) -> [u64; SEGMENT_WORDS] {
        [self.bits as u64, (self.bits >> 64) as u64]
    }
}

impl From<BitWriter<SEGMENT_WORDS>> for SegmentPayload {
    fn from(w: BitWriter<SEGMENT_WORDS>) -> Self {
        let ([lo, hi], len) = w.finish();
        SegmentPayload {
            bits: u128::from(lo) | u128::from(hi) << 64,
            len,
        }
    }
}

/// A write encoded up to, not including, expansion: one
/// [`SegmentPayload`] per word region, in word order. The NVMM module
/// maps and programs these in one pass
/// ([`dcw::program_payload`](crate::dcw::program_payload));
/// [`SldeCodec::map_region`] maps them into an [`EncodedRegion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPayloads {
    /// Per-word payloads, in word order.
    pub segments: ArrayVec<SegmentPayload, WORDS_PER_LINE>,
    /// Total encoded payload bits across segments (pre-expansion).
    pub payload_bits: usize,
    /// Encoder choice per log-data word, in request order.
    pub choices: Choices,
}

/// The SLDE codec (also usable as the CRADE baseline).
///
/// # Example
///
/// ```
/// use morlog_encoding::{cell::CellModel, slde::SldeCodec};
/// let slde = SldeCodec::new(CellModel::table_iii());
/// let crade = SldeCodec::crade(CellModel::table_iii());
/// assert!(slde.dldc_enabled());
/// assert!(!crade.dldc_enabled());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SldeCodec {
    model: CellModel,
    use_dldc: bool,
    expansion: bool,
}

impl SldeCodec {
    /// Full SLDE: DLDC + FPC in parallel, expansion coding on.
    pub fn new(model: CellModel) -> Self {
        SldeCodec {
            model,
            use_dldc: true,
            expansion: true,
        }
    }

    /// The CRADE baseline: FPC + expansion coding, no DLDC path.
    pub fn crade(model: CellModel) -> Self {
        SldeCodec {
            model,
            use_dldc: false,
            expansion: true,
        }
    }

    /// Disables or enables expansion coding (Table VI disables it to count
    /// raw log bits).
    pub fn with_expansion(mut self, enabled: bool) -> Self {
        self.expansion = enabled;
        self
    }

    /// Whether the DLDC path is active.
    pub fn dldc_enabled(&self) -> bool {
        self.use_dldc
    }

    /// The cell cost model this codec programs against.
    pub fn model(&self) -> &CellModel {
        &self.model
    }

    /// The expansion mode a `payload_bits`-bit word region is mapped
    /// with: the widest that fits, or full TLC density with expansion
    /// coding off.
    pub fn expansion_mode(&self, payload_bits: usize) -> ExpansionMode {
        if self.expansion {
            ExpansionMode::for_payload(payload_bits, WORD_REGION_CELLS)
        } else {
            ExpansionMode::Tlc
        }
    }

    /// Maps each payload over its word region's cells.
    pub fn map_region(&self, payloads: EncodedPayloads) -> EncodedRegion {
        let segments = payloads
            .segments
            .iter()
            .map(|seg| map_payload_with_mode(&seg.words(), seg.len, self.expansion_mode(seg.len)))
            .collect();
        EncodedRegion {
            segments,
            payload_bits: payloads.payload_bits,
            choices: payloads.choices,
        }
    }

    /// Encodes a 64-byte in-place data block (not log data): FPC per word
    /// plus expansion coding within each word's sub-region. This is the
    /// Fig. 11 "Write C1" path where the evicted cache line A is compressed
    /// by FPC "because they are not log data".
    pub fn encode_data_block(&self, line: &LineData) -> EncodedRegion {
        self.map_region(self.data_block_payloads(line))
    }

    /// [`encode_data_block`](SldeCodec::encode_data_block) up to, not
    /// including, expansion.
    pub fn data_block_payloads(&self, line: &LineData) -> EncodedPayloads {
        let mut segments = ArrayVec::new();
        let mut payload_bits = 0;
        for i in 0..WORDS_PER_LINE {
            let seg = Self::data_word_payload(line.word(i));
            payload_bits += seg.len;
            segments.push(seg);
        }
        EncodedPayloads {
            segments,
            payload_bits,
            choices: Choices::new(),
        }
    }

    /// The FPC segment of one data word, before expansion. Segment `i` of
    /// [`data_block_payloads`](SldeCodec::data_block_payloads) is the
    /// segment of word `i` alone, so one changed word can be re-encoded
    /// without its line.
    pub fn data_word_payload(word: u64) -> SegmentPayload {
        let mut w = BitWriter::new();
        push_fpc(&mut w, fpc::compress_word(word));
        w.into()
    }

    /// Decodes a data block previously produced by [`encode_data_block`]
    /// (the read path of Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if the region does not hold eight word segments.
    ///
    /// [`encode_data_block`]: SldeCodec::encode_data_block
    pub fn decode_data_block(&self, region: &EncodedRegion) -> LineData {
        assert_eq!(
            region.segments.len(),
            WORDS_PER_LINE,
            "data block has 8 words"
        );
        let mut line = LineData::zeroed();
        for (i, seg) in region.segments.iter().enumerate() {
            let bits = seg.states.len() * seg.mode.bits_per_cell();
            let words = crate::expansion::unmap_payload(seg, bits);
            let mut r = BitReader::new(&words, bits);
            line.set_word(i, pull_fpc(&mut r));
        }
        line
    }

    /// Encodes a log entry: `meta` words through FPC, `data` words through
    /// the SLDE selector, each into its own sub-region. `dldc_budget` bounds
    /// how many data words may use DLDC (the paper never DLDC-compresses
    /// both the undo and the redo word of one entry, §IV-B).
    ///
    /// # Panics
    ///
    /// Panics if the words do not fit `region_cells`, or `data` holds more
    /// than [`MAX_LOG_DATA_WORDS`] words.
    pub fn encode_log_entry(
        &self,
        meta: &[u64],
        data: &[LogWordRequest],
        dldc_budget: usize,
        region_cells: usize,
    ) -> EncodedRegion {
        self.map_region(self.log_entry_payloads(meta, data, dldc_budget, region_cells))
    }

    /// [`encode_log_entry`](SldeCodec::encode_log_entry) up to, not
    /// including, expansion.
    ///
    /// # Panics
    ///
    /// As [`encode_log_entry`](SldeCodec::encode_log_entry).
    pub fn log_entry_payloads(
        &self,
        meta: &[u64],
        data: &[LogWordRequest],
        dldc_budget: usize,
        region_cells: usize,
    ) -> EncodedPayloads {
        assert!(
            (meta.len() + data.len()) * WORD_REGION_CELLS <= region_cells,
            "entry of {} words exceeds slot of {region_cells} cells",
            meta.len() + data.len()
        );
        assert!(
            data.len() <= MAX_LOG_DATA_WORDS,
            "entry of {} data words exceeds {MAX_LOG_DATA_WORDS}",
            data.len()
        );
        // Encode every data word once, then decide choices: rank the
        // words DLDC shrinks by their savings.
        let mut fpc_words = [None; MAX_LOG_DATA_WORDS];
        let mut dldc_words = [None; MAX_LOG_DATA_WORDS];
        let mut candidates: ArrayVec<(usize, u32), MAX_LOG_DATA_WORDS> = ArrayVec::new();
        for (i, req) in data.iter().enumerate() {
            let fpc = fpc::compress_word(req.new);
            fpc_words[i] = Some(fpc);
            if !(self.use_dldc && dldc_budget > 0 && req.log_data) {
                continue;
            }
            let fpc_bits = FPC_TAG_BITS + fpc.pattern.payload_bits();
            if let Some(enc) = dldc::compress_dirty(req.new, req.dirty_mask) {
                let dldc_bits = enc.total_bits_with_flag();
                if dldc_bits < fpc_bits {
                    dldc_words[i] = Some(enc);
                    candidates.push((i, fpc_bits - dldc_bits));
                }
            }
        }
        candidates.sort_by_key(|&(_, savings)| std::cmp::Reverse(savings));
        let mut choices: Choices = data.iter().map(|_| EncodingChoice::Fpc).collect();
        for &(i, _) in candidates.iter().take(dldc_budget) {
            choices[i] = match dldc_words[i] {
                Some(DldcEncoded {
                    pattern: DldcPattern::Raw,
                    ..
                }) => EncodingChoice::DldcRaw,
                _ => EncodingChoice::Dldc,
            };
        }
        let mut segments = ArrayVec::new();
        let mut payload_bits = 0;
        for &m in meta {
            let mut w = BitWriter::new();
            push_fpc(&mut w, fpc::compress_word(m));
            payload_bits += w.len_bits();
            segments.push(w.into());
        }
        for (i, (req, &choice)) in data.iter().zip(choices.iter()).enumerate() {
            let mut w = BitWriter::new();
            if req.log_data {
                w.push(choice.flag(), CHOICE_FLAG_BITS);
            }
            match choice {
                EncodingChoice::Fpc => push_fpc(&mut w, fpc_words[i].expect("encoded above")),
                EncodingChoice::Dldc | EncodingChoice::DldcRaw => push_dldc(
                    &mut w,
                    &dldc_words[i].expect("choice implies a DLDC encoding"),
                ),
            }
            payload_bits += w.len_bits();
            segments.push(w.into());
        }
        EncodedPayloads {
            segments,
            payload_bits,
            choices,
        }
    }

    /// Decodes a log entry produced by [`encode_log_entry`]: returns the
    /// metadata words and the data words. `old_words` supplies, per data
    /// word, the in-place word DLDC scatters dirty bytes over (§III-E).
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent with the encoded region.
    ///
    /// [`encode_log_entry`]: SldeCodec::encode_log_entry
    pub fn decode_log_entry(
        &self,
        region: &EncodedRegion,
        n_meta: usize,
        data_is_log: &[bool],
        old_words: &[u64],
    ) -> (Vec<u64>, Vec<u64>) {
        assert_eq!(data_is_log.len(), old_words.len());
        assert_eq!(region.segments.len(), n_meta + data_is_log.len());
        let read_segment = |seg: &MappedWrite| {
            let bits = seg.states.len() * seg.mode.bits_per_cell();
            (crate::expansion::unmap_payload(seg, bits), bits)
        };
        let mut meta = Vec::with_capacity(n_meta);
        for seg in &region.segments[..n_meta] {
            let (words, bits) = read_segment(seg);
            let mut r = BitReader::new(&words, bits);
            meta.push(pull_fpc(&mut r));
        }
        let mut data = Vec::with_capacity(old_words.len());
        for ((seg, &is_log), &old) in region.segments[n_meta..]
            .iter()
            .zip(data_is_log.iter())
            .zip(old_words.iter())
        {
            let (words, bits) = read_segment(seg);
            let mut r = BitReader::new(&words, bits);
            if !is_log {
                data.push(pull_fpc(&mut r));
                continue;
            }
            let choice = EncodingChoice::from_flag(r.pull(CHOICE_FLAG_BITS));
            match choice {
                EncodingChoice::Fpc => data.push(pull_fpc(&mut r)),
                EncodingChoice::Dldc | EncodingChoice::DldcRaw => {
                    let enc = pull_dldc(&mut r, choice);
                    data.push(dldc::decompress(&enc, old));
                }
            }
        }
        (meta, data)
    }

    /// Encodes a single log-data word and reports which encoder won — the
    /// per-word view used by the Table II profiler and examples.
    pub fn encode_log_word(&self, req: &LogWordRequest) -> EncodedLogWord {
        let fpc_bits = FPC_TAG_BITS + fpc::compress_word(req.new).pattern.payload_bits();
        if self.use_dldc && req.log_data {
            if let Some(enc) = dldc::compress_dirty(req.new, req.dirty_mask) {
                let dldc_bits = enc.total_bits_with_flag();
                if dldc_bits < fpc_bits {
                    let choice = if enc.pattern == DldcPattern::Raw {
                        EncodingChoice::DldcRaw
                    } else {
                        EncodingChoice::Dldc
                    };
                    return EncodedLogWord {
                        choice,
                        payload_bits: CHOICE_FLAG_BITS + dldc_bits,
                    };
                }
            }
        }
        let flag = if req.log_data { CHOICE_FLAG_BITS } else { 0 };
        EncodedLogWord {
            choice: EncodingChoice::Fpc,
            payload_bits: flag + fpc_bits,
        }
    }
}

fn push_fpc(w: &mut BitWriter<SEGMENT_WORDS>, enc: FpcEncoded) {
    w.push(enc.pattern.tag() as u64, FPC_TAG_BITS);
    w.push(enc.payload, enc.pattern.payload_bits());
}

fn pull_fpc(r: &mut BitReader<'_>) -> u64 {
    let tag = r.pull(FPC_TAG_BITS) as u8;
    let pattern = match tag {
        0 => FpcPattern::Zero,
        1 => FpcPattern::SignExt8,
        2 => FpcPattern::SignExt16,
        3 => FpcPattern::SignExt32,
        4 => FpcPattern::TwoHalfSignExt16,
        5 => FpcPattern::LowHalfZero,
        6 => FpcPattern::RepeatedByte,
        7 => FpcPattern::Uncompressed,
        _ => unreachable!("3-bit tag"),
    };
    let payload = r.pull(pattern.payload_bits());
    fpc::decompress_word(&FpcEncoded { pattern, payload })
}

fn push_dldc(w: &mut BitWriter<SEGMENT_WORDS>, enc: &DldcEncoded) {
    w.push(enc.dirty_mask as u64, DIRTY_FLAG_BITS);
    if enc.pattern != DldcPattern::Raw {
        w.push(enc.pattern.tag() as u64, DLDC_TAG_BITS);
    }
    w.push(enc.payload, enc.payload_bits());
}

fn pull_dldc(r: &mut BitReader<'_>, choice: EncodingChoice) -> DldcEncoded {
    let dirty_mask = r.pull(DIRTY_FLAG_BITS) as u8;
    let n_dirty = dirty_mask.count_ones();
    let pattern = if choice == EncodingChoice::DldcRaw {
        DldcPattern::Raw
    } else {
        match r.pull(DLDC_TAG_BITS) as u8 {
            0 => DldcPattern::AllZero,
            1 => DldcPattern::SignExt2PerByte,
            2 => DldcPattern::SignExt4PerByte,
            3 => DldcPattern::SignExt1Byte,
            4 => DldcPattern::SignExt2Byte,
            5 => DldcPattern::SignExt4Byte,
            6 => DldcPattern::NibblePadded,
            7 => DldcPattern::LsByteZero,
            _ => unreachable!("3-bit tag"),
        }
    };
    let mut probe = DldcEncoded {
        pattern,
        payload: 0,
        dirty_mask,
        n_dirty,
    };
    probe.payload = r.pull(probe.payload_bits());
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> SldeCodec {
        SldeCodec::new(CellModel::table_iii())
    }

    #[test]
    fn data_block_round_trip() {
        let mut line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            line.set_word(
                i,
                0x0101_0101u64.wrapping_mul(i as u64 + 1) ^ 0xFFFF_0000_1234,
            );
        }
        let region = codec().encode_data_block(&line);
        assert_eq!(codec().decode_data_block(&region), line);
        assert!(region.payload_bits <= 512 + 24);
        let cells: usize = region.segments.iter().map(|s| s.states.len()).sum();
        assert!(cells <= BLOCK_CELLS);
    }

    #[test]
    fn zero_block_compresses_to_idm1() {
        let region = codec().encode_data_block(&LineData::zeroed());
        assert_eq!(region.payload_bits, 24); // 8 zero tags
        for seg in &region.segments {
            assert_eq!(seg.mode, ExpansionMode::Idm1);
            assert_eq!(seg.states.len(), 3);
        }
    }

    #[test]
    fn incompressible_words_use_tlc() {
        let mut line = LineData::zeroed();
        let mut x = 0x9E37_79B9_97F4_A7C5u64;
        for i in 0..WORDS_PER_LINE {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            line.set_word(i, x | 0x8000_0000_0000_0001); // defeat sign-extension
        }
        let region = codec().encode_data_block(&line);
        for seg in &region.segments {
            assert_eq!(seg.mode, ExpansionMode::Tlc);
        }
        assert_eq!(codec().decode_data_block(&region), line);
    }

    #[test]
    fn unmodified_words_have_identical_segments() {
        // The property that makes DCW effective: only the changed word's
        // sub-region differs between consecutive encodings.
        let mut line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            line.set_word(i, 0xABCD_0000_1111_2222 + i as u64);
        }
        let before = codec().encode_data_block(&line);
        let mut line2 = line;
        line2.set_word(3, line.word(3) ^ 0x1FFF); // Fig. 4: 13 flipped bits
        let after = codec().encode_data_block(&line2);
        for i in 0..WORDS_PER_LINE {
            if i == 3 {
                assert_ne!(before.segments[i], after.segments[i]);
            } else {
                assert_eq!(before.segments[i], after.segments[i]);
            }
        }
    }

    #[test]
    fn expansion_disable_forces_tlc() {
        let c = codec().with_expansion(false);
        let region = c.encode_data_block(&LineData::zeroed());
        for seg in &region.segments {
            assert_eq!(seg.mode, ExpansionMode::Tlc);
        }
        assert_eq!(c.decode_data_block(&region), LineData::zeroed());
    }

    #[test]
    fn log_entry_round_trip_mixed_choices() {
        let c = codec();
        let meta = [0x0000_1234_5678_9ABCu64, 0x42];
        let old_a = 0x0102_0304_0506_0708u64;
        let new_a = 0x0102_0304_0506_FFFF; // 2 dirty bytes -> DLDC wins
        let old_b = 0u64;
        let new_b = 0xD3A1_57C2_9B64_E8F1; // everything dirty -> FPC escape
        let data = [
            LogWordRequest::redo(new_a, old_a),
            LogWordRequest::redo(new_b, old_b),
        ];
        let region = c.encode_log_entry(&meta, &data, 2, 96);
        let (m, d) = c.decode_log_entry(&region, 2, &[true, true], &[old_a, old_b]);
        assert_eq!(m, meta.to_vec());
        assert_eq!(d, vec![new_a, new_b]);
        assert_eq!(region.choices.len(), 2);
        assert_eq!(region.choices[0], EncodingChoice::Dldc);
    }

    #[test]
    fn dldc_budget_limits_usage() {
        let c = codec();
        let old = 0x1111_1111_1111_1111u64;
        let new = 0x1111_1111_1111_11FF; // 1 dirty byte, DLDC-friendly
        let data = [
            LogWordRequest::redo(new, old),
            LogWordRequest::redo(new, old),
        ];
        let region = c.encode_log_entry(&[], &data, 1, 96);
        let dldc_count = region
            .choices
            .iter()
            .filter(|&&ch| ch != EncodingChoice::Fpc)
            .count();
        assert_eq!(dldc_count, 1, "budget of one DLDC word per entry");
        let (_, d) = c.decode_log_entry(&region, 0, &[true, true], &[old, old]);
        assert_eq!(d, vec![new, new]);
    }

    #[test]
    fn crade_never_uses_dldc() {
        let c = SldeCodec::crade(CellModel::table_iii());
        let old = 0x1111_1111_1111_1111u64;
        let new = 0x1111_1111_1111_11FF;
        let region = c.encode_log_entry(&[], &[LogWordRequest::redo(new, old)], 1, 96);
        assert_eq!(region.choices[..], [EncodingChoice::Fpc]);
        let w = c.encode_log_word(&LogWordRequest::redo(new, old));
        assert_eq!(w.choice, EncodingChoice::Fpc);
    }

    #[test]
    fn slde_picks_cheaper_side_per_word() {
        let c = codec();
        // Nearly-clean word: DLDC wins.
        let w = c.encode_log_word(&LogWordRequest::redo(0xAA00, 0xAA01));
        assert_ne!(w.choice, EncodingChoice::Fpc);
        // FPC-friendly fully-dirty word (zero): FPC wins (3 bits vs flag+mask).
        let w = c.encode_log_word(&LogWordRequest::redo(0, 0xFFFF_FFFF_FFFF_FFFF));
        assert_eq!(w.choice, EncodingChoice::Fpc);
        assert_eq!(w.payload_bits, 2 + 3);
    }

    #[test]
    fn metadata_words_have_no_choice_flag() {
        let c = codec();
        let w = c.encode_log_word(&LogWordRequest::metadata(0));
        assert_eq!(w.payload_bits, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn oversized_entry_panics() {
        codec().encode_log_entry(&[0, 0], &[LogWordRequest::metadata(0)], 0, 48);
    }

    #[test]
    fn log_entry_fuzz_round_trip() {
        let c = codec();
        let mut x = 0xBADC_0FFE_E0DD_F00Du64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2_000 {
            let old_u = step();
            let keep = step();
            let new_u = (old_u & keep) | (step() & !keep);
            let meta = [step(), step() & 0xFFFF];
            let data = [
                LogWordRequest::redo(old_u, new_u), // undo word (old as payload)
                LogWordRequest::redo(new_u, old_u), // redo word
            ];
            let region = c.encode_log_entry(&meta, &data, 1, 96);
            let (m, d) = c.decode_log_entry(&region, 2, &[true, true], &[new_u, old_u]);
            assert_eq!(m, meta.to_vec());
            assert_eq!(d[0], old_u);
            assert_eq!(d[1], new_u);
        }
    }
}
