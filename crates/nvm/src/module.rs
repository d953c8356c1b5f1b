//! The NVMM module controller: per-block TLC cell states, the SLDE/CRADE
//! codec on the write path (Fig. 10), and DCW cost computation.
//!
//! Functional contents (raw bytes) and physical contents (cell states) are
//! tracked side by side. The codecs are verified lossless by construction
//! (round-trip unit and property tests in `morlog-encoding`), so functional
//! reads return the raw bytes while timing and energy come from the encoded
//! cell states — see `DESIGN.md` §2.

use std::hash::Hash;

use morlog_encoding::cell::{CellModel, CellState};
use morlog_encoding::dcw::{self, WriteCost};
use morlog_encoding::secure::{transform_log_word, SecureMode};
use morlog_encoding::slde::{
    Choices, EncodedPayloads, LogWordRequest, SegmentPayload, SldeCodec, BLOCK_CELLS,
    MAX_LOG_DATA_WORDS, WORD_REGION_CELLS,
};
use morlog_log::record::RecordKind;
use morlog_sim_core::array_vec::ArrayVec;
use morlog_sim_core::hash::IntHashMap;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::{Addr, LineAddr, LineData};

use crate::log::{array_slot_cells, StoredRecord};

/// Cells of the largest log slot (an undo+redo entry).
const MAX_SLOT_CELLS: usize = array_slot_cells(RecordKind::UndoRedo);

/// The key of the log slot at `physical_offset` of log slice `slice`,
/// unique across slices: the secure-mode tweak of the slot's words and the
/// slot's wear key.
pub fn log_slot_key(slice: usize, physical_offset: u64) -> u64 {
    (slice as u64) << 40 | physical_offset
}

/// Outcome of one serviced NVMM write.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicedWrite {
    /// DCW programming cost.
    pub cost: WriteCost,
    /// Encoder choices for log-data words (empty for data writes).
    pub choices: Choices,
}

/// The NVMM module: codec + cell arrays + functional backing store.
///
/// Data lines are written whole ([`write_data_line`]); an initial image is
/// stored one word segment at a time ([`preload`]), to the same end state.
///
/// [`write_data_line`]: NvmmModule::write_data_line
/// [`preload`]: NvmmModule::preload
///
/// # Example
///
/// ```
/// use morlog_encoding::{cell::CellModel, slde::SldeCodec};
/// use morlog_nvm::module::NvmmModule;
/// use morlog_sim_core::{LineAddr, LineData};
///
/// let mut m = NvmmModule::new(SldeCodec::new(CellModel::table_iii()));
/// let mut d = LineData::zeroed();
/// d.set_word(0, 42);
/// let s = m.write_data_line(LineAddr::from_index(9), d);
/// assert!(s.cost.cells_programmed > 0);
/// assert_eq!(m.read_data_line(LineAddr::from_index(9)).word(0), 42);
/// ```
///
/// Two modules compare equal when they hold the same codec, bytes, cell
/// states and program counts, with lines and slots in the same
/// first-write order.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmmModule {
    codec: SldeCodec,
    /// Stored cells and program counts per data line and per log slot.
    data_cells: CellTable<LineAddr, BLOCK_CELLS>,
    log_cells: SlotCells,
    backing: IntHashMap<LineAddr, LineData>,
    secure: SecureMode,
}

/// The cells behind one data line or log slot, stored inline so a first
/// write to a line or slot allocates nothing of its own, with the count of
/// writes that programmed any of them (wear; Table VI's endurance
/// argument).
#[derive(Debug, Clone, PartialEq)]
struct Cells<const N: usize> {
    states: [CellState; N],
    programs: u64,
}

impl<const N: usize> Default for Cells<N> {
    fn default() -> Self {
        Cells {
            states: [CellState::default(); N],
            programs: 0,
        }
    }
}

/// The [`Cells`] of every data line or every log slot written so far, kept
/// in first-write order and found through an index map. The map's entries
/// stay small, so its spare buckets cost little memory, and the cells of
/// consecutive log slots sit next to each other.
#[derive(Debug, Clone)]
struct CellTable<K, const N: usize> {
    index: IntHashMap<K, usize>,
    cells: Vec<Cells<N>>,
}

impl<K, const N: usize> Default for CellTable<K, N> {
    fn default() -> Self {
        CellTable {
            index: IntHashMap::default(),
            cells: Vec::new(),
        }
    }
}

impl<K: Hash + Eq, const N: usize> PartialEq for CellTable<K, N> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.cells == other.cells
    }
}

impl<K: Hash + Eq, const N: usize> CellTable<K, N> {
    /// The cells at `key`, erased (`000`) on first use.
    fn cells_mut(&mut self, key: K) -> &mut Cells<N> {
        let fresh = self.cells.len();
        let i = *self.index.entry(key).or_insert(fresh);
        if i == fresh {
            self.cells.push(Cells::default());
        }
        &mut self.cells[i]
    }

    /// The program count of every location.
    fn programs(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.cells.iter().map(|c| c.programs)
    }
}

/// The [`Cells`] of every log slot written so far, kept in first-write
/// order and found through a dense index per log slice. Slots are 16, 24
/// or 32 bytes, so every slot starts at a multiple of 8 bytes: entry
/// `offset / 8` of a slice's index is one more than the position of the
/// cells of the slot at that physical offset, or 0 if none was written
/// there yet. An index grows with the highest offset written, as the
/// ring does, at 4 bytes per 8 bytes of log.
#[derive(Debug, Clone, Default, PartialEq)]
struct SlotCells {
    index: Vec<Vec<u32>>,
    cells: Vec<Cells<MAX_SLOT_CELLS>>,
}

impl SlotCells {
    /// The cells of the slot at `physical_offset` of `slice`, erased
    /// (`000`) on first use.
    fn cells_mut(&mut self, slice: usize, physical_offset: u64) -> &mut Cells<MAX_SLOT_CELLS> {
        debug_assert!(
            physical_offset.is_multiple_of(8),
            "slots start on 8-byte boundaries"
        );
        if slice >= self.index.len() {
            self.index.resize_with(slice + 1, Vec::new);
        }
        let index = &mut self.index[slice];
        let at = (physical_offset / 8) as usize;
        if at >= index.len() {
            index.resize(at + 1, 0);
        }
        if index[at] == 0 {
            self.cells.push(Cells::default());
            index[at] = u32::try_from(self.cells.len()).expect("fewer than 2^32 log slots");
        }
        &mut self.cells[index[at] as usize - 1]
    }

    /// The program count of every slot.
    fn programs(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.cells.iter().map(|c| c.programs)
    }
}

impl<const N: usize> Cells<N> {
    /// Maps and programs an encoded write (one sub-region per word) under
    /// DCW, returning the combined cost, and counts it as a program unless
    /// it was silent.
    fn program(&mut self, codec: &SldeCodec, payloads: &EncodedPayloads) -> WriteCost {
        let mut total = WriteCost::silent();
        for (i, seg) in payloads.segments.iter().enumerate() {
            total.combine(&self.program_segment(codec, i, seg));
        }
        if !total.is_silent() {
            self.programs += 1;
        }
        total
    }

    /// Maps and programs segment `i` alone under DCW into cells
    /// `[i·WORD_REGION_CELLS, …)`; cells beyond the segment's footprint
    /// keep their previous states (DCW never touches them). Counts no
    /// program: that is the caller's, once per write.
    fn program_segment(&mut self, codec: &SldeCodec, i: usize, seg: &SegmentPayload) -> WriteCost {
        let cells = &mut self.states[i * WORD_REGION_CELLS..][..WORD_REGION_CELLS];
        dcw::program_payload(codec.model(), cells, seg, codec.expansion_mode(seg.len))
    }

    /// [`program`](Cells::program) without the cost: stores the encoded
    /// write's cells and counts a program when any cell changed.
    fn store(&mut self, codec: &SldeCodec, payloads: &EncodedPayloads) {
        let mut changed = false;
        for (i, seg) in payloads.segments.iter().enumerate() {
            changed |= self.store_segment(codec, i, seg);
        }
        self.programs += u64::from(changed);
    }

    /// [`program_segment`](Cells::program_segment) without the cost:
    /// stores segment `i`'s cells and returns whether any changed. Counts
    /// no program.
    fn store_segment(&mut self, codec: &SldeCodec, i: usize, seg: &SegmentPayload) -> bool {
        let cells = &mut self.states[i * WORD_REGION_CELLS..][..WORD_REGION_CELLS];
        dcw::store_payload(cells, seg, codec.expansion_mode(seg.len)) != 0
    }
}

impl NvmmModule {
    /// Creates a module with all cells in the erased `000` state and all
    /// bytes zero.
    pub fn new(codec: SldeCodec) -> Self {
        NvmmModule {
            codec,
            data_cells: CellTable::default(),
            log_cells: SlotCells::default(),
            backing: IntHashMap::default(),
            secure: SecureMode::None,
        }
    }

    /// Selects the secure-NVMM model (§IV-D): log data are transformed as
    /// the chosen encryption scheme would before they reach the encoder.
    pub fn set_secure_mode(&mut self, mode: SecureMode) {
        self.secure = mode;
    }

    /// The codec's cell cost model.
    pub fn model(&self) -> &CellModel {
        self.codec.model()
    }

    /// The codec in use.
    pub fn codec(&self) -> &SldeCodec {
        &self.codec
    }

    /// Functional read of a data line (zero if never written).
    pub fn read_data_line(&self, line: LineAddr) -> LineData {
        self.backing.get(&line).copied().unwrap_or_default()
    }

    /// Functional write applied at persist time; returns the DCW cost of the
    /// encoded write.
    pub fn write_data_line(&mut self, line: LineAddr, data: LineData) -> ServicedWrite {
        let _prof = hostprof::scope(HostPhase::Encoding);
        self.program_data_line(line, data)
    }

    /// Stores an initial image, one `(addr, value)` word at a time in
    /// order, and leaves the module exactly as a read-modify-write of each
    /// word's whole line through [`write_data_line`] would: the same bytes,
    /// cell states, program counts and first-write order. Each word's
    /// segment depends on that word alone, and DCW programs nothing for an
    /// unchanged segment, so:
    ///
    /// - a word on a line never written before writes the zero line with
    ///   that word set, from erased cells;
    /// - a word equal to the stored one changes nothing (the line rewrite
    ///   would be silent);
    /// - any other word programs its own segment only, and counts a
    ///   program on its line unless that segment was silent.
    ///
    /// The image is in place before the first simulated cycle, so no
    /// write cost is kept and none is computed: both paths run only DCW's
    /// store step ([`dcw::store_payload`]), which leaves the same cells
    /// and reports the same silence as the full program.
    ///
    /// [`write_data_line`]: NvmmModule::write_data_line
    pub fn preload(&mut self, words: impl IntoIterator<Item = (Addr, u64)>) {
        let _prof = hostprof::scope(HostPhase::Encoding);
        for (addr, value) in words {
            let (line, i) = (addr.line(), addr.word_index());
            match self.backing.get_mut(&line) {
                None => {
                    let mut data = LineData::zeroed();
                    data.set_word(i, value);
                    let payloads = self.codec.data_block_payloads(&data);
                    self.data_cells
                        .cells_mut(line)
                        .store(&self.codec, &payloads);
                    self.backing.insert(line, data);
                }
                Some(data) if data.word(i) == value => {}
                Some(data) => {
                    data.set_word(i, value);
                    let seg = SldeCodec::data_word_payload(value);
                    let cells = self.data_cells.cells_mut(line);
                    cells.programs += u64::from(cells.store_segment(&self.codec, i, &seg));
                }
            }
        }
    }

    /// [`write_data_line`](NvmmModule::write_data_line) outside any
    /// profiler scope.
    fn program_data_line(&mut self, line: LineAddr, data: LineData) -> ServicedWrite {
        let payloads = self.codec.data_block_payloads(&data);
        let cost = self
            .data_cells
            .cells_mut(line)
            .program(&self.codec, &payloads);
        self.backing.insert(line, data);
        ServicedWrite {
            cost,
            choices: payloads.choices,
        }
    }

    /// Writes one log record into its ring slot (`physical_offset` is the
    /// slot's offset within log slice `slice`, a multiple of 8). The undo
    /// and redo words go through the SLDE selector with a DLDC budget of
    /// one word per entry (§IV-B: never both undo and redo of one entry).
    pub fn write_log_record(
        &mut self,
        stored: &StoredRecord,
        slice: usize,
        physical_offset: u64,
    ) -> ServicedWrite {
        let _prof = hostprof::scope(HostPhase::Encoding);
        let rec = &stored.record;
        let meta = rec.meta_words();
        // Fold the torn bit into the metadata stream as its own word slot
        // would be overkill; it rides in the high bit of word 1.
        let meta = [meta[0], meta[1] | (stored.torn as u64) << 63];
        let key = 0x5EC0_0000 ^ log_slot_key(slice, physical_offset); // per-slot tweak, like CTR-mode IVs
        let mut data: ArrayVec<LogWordRequest, MAX_LOG_DATA_WORDS> = ArrayVec::new();
        if let Some(undo) = rec.undo {
            data.push(transform_log_word(
                &LogWordRequest::with_mask(undo, rec.dirty_mask),
                self.secure,
                key,
            ));
        }
        if rec.kind != RecordKind::Commit {
            data.push(transform_log_word(
                &LogWordRequest::with_mask(rec.redo, rec.dirty_mask),
                self.secure,
                key ^ 1,
            ));
        }
        let payloads = self
            .codec
            .log_entry_payloads(&meta, &data, 1, array_slot_cells(rec.kind));
        let cost = self
            .log_cells
            .cells_mut(slice, physical_offset)
            .program(&self.codec, &payloads);
        ServicedWrite {
            cost,
            choices: payloads.choices,
        }
    }

    /// Wear summary: `(max_data_line_writes, max_log_slot_writes,
    /// total_programmed_locations)`. Reducing the number of (log) writes
    /// improves lifetime — the §VI-C endurance argument; the log ring also
    /// levels wear by construction (sequential slot reuse).
    pub fn wear_summary(&self) -> (u64, u64, usize) {
        let data = self.data_cells.programs();
        let log = self.log_cells.programs();
        (
            data.clone().max().unwrap_or(0),
            log.clone().max().unwrap_or(0),
            data.chain(log).filter(|&p| p > 0).count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_encoding::slde::EncodingChoice;
    use morlog_log::record::{Record, TxTag};

    fn module() -> NvmmModule {
        NvmmModule::new(SldeCodec::new(CellModel::table_iii()))
    }

    fn tag() -> TxTag {
        TxTag::new(1, 2)
    }

    #[test]
    fn rewriting_same_data_is_silent() {
        let mut m = module();
        let line = LineAddr::from_index(3);
        let mut d = LineData::zeroed();
        d.set_word(2, 0x1234_5678_9ABC_DEF0);
        let first = m.write_data_line(line, d);
        assert!(!first.cost.is_silent());
        let second = m.write_data_line(line, d);
        assert!(second.cost.is_silent(), "identical data programs no cells");
    }

    #[test]
    fn single_word_update_programs_few_cells() {
        let mut m = module();
        let line = LineAddr::from_index(3);
        let mut d = LineData::zeroed();
        for i in 0..8 {
            d.set_word(i, 0x1111_1111_1111_1111 * (i as u64 + 1));
        }
        m.write_data_line(line, d);
        let full_rewrite = {
            let mut other = module();
            other.write_data_line(LineAddr::from_index(3), d).cost
        };
        let mut d2 = d;
        d2.set_word(0, d.word(0) ^ 0xFF); // one byte changes
        let delta = m.write_data_line(line, d2);
        assert!(
            delta.cost.cells_programmed < full_rewrite.cells_programmed,
            "DCW programs fewer cells for a small delta ({} vs {})",
            delta.cost.cells_programmed,
            full_rewrite.cells_programmed
        );
        assert_eq!(m.read_data_line(line), d2);
    }

    #[test]
    fn log_record_write_has_cost_and_choices() {
        let mut m = module();
        let rec = Record::undo_redo(tag(), 0x40, 0xAAAA, 0xAAAB, 0x01);
        let stored = StoredRecord::seal(rec, false);
        let s = m.write_log_record(&stored, 0, 0);
        assert!(s.cost.cells_programmed > 0);
        assert_eq!(s.choices.len(), 2); // undo + redo words
                                        // Exactly one word may use DLDC.
        let dldc = s
            .choices
            .iter()
            .filter(|&&c| c != EncodingChoice::Fpc)
            .count();
        assert!(dldc <= 1);
    }

    #[test]
    fn slot_reuse_compares_against_previous_pass() {
        let mut m = module();
        let rec = Record::undo_redo(tag(), 0x40, 0x1234, 0x5678, 0xFF);
        let stored = StoredRecord::seal(rec, false);
        let first = m.write_log_record(&stored, 0, 0);
        // Same record re-written into the same physical slot: almost
        // everything matches the stored states except the torn bit.
        let stored2 = StoredRecord::seal(rec, true);
        let second = m.write_log_record(&stored2, 0, 0);
        assert!(second.cost.cells_programmed < first.cost.cells_programmed);
    }

    #[test]
    fn commit_record_encodes_without_data_words() {
        let mut m = module();
        let rec = Record::commit(tag(), Some(5));
        let stored = StoredRecord::seal(rec, false);
        let s = m.write_log_record(&stored, 0, 64);
        assert!(s.choices.is_empty());
        assert!(s.cost.cells_programmed > 0);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let m = module();
        assert_eq!(
            m.read_data_line(LineAddr::from_index(77)),
            LineData::zeroed()
        );
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;
    use morlog_log::record::{Record, TxTag};

    #[test]
    fn wear_counts_programs_not_silent_writes() {
        let mut m = NvmmModule::new(SldeCodec::new(CellModel::table_iii()));
        let line = LineAddr::from_index(5);
        let mut d = LineData::zeroed();
        d.set_word(0, 1);
        m.write_data_line(line, d);
        m.write_data_line(line, d); // silent: no wear
        d.set_word(0, 2);
        m.write_data_line(line, d);
        let (max_data, _, _) = m.wear_summary();
        assert_eq!(max_data, 2);
    }

    #[test]
    fn log_slot_reuse_accumulates_wear() {
        let mut m = NvmmModule::new(SldeCodec::new(CellModel::table_iii()));
        for pass in 0..3u64 {
            let rec = Record::undo_redo(TxTag::new(0, 0), 0x40, pass, pass + 1, 0xFF);
            let stored = StoredRecord::seal(rec, pass % 2 == 1);
            m.write_log_record(&stored, 0, 0); // same physical slot each pass
        }
        let (_, max_log, _) = m.wear_summary();
        assert_eq!(max_log, 3, "the reused slot accumulates wear");
    }
}

#[cfg(test)]
mod slot_cell_tests {
    use super::*;
    use crate::log::ARRAY_SLOTS;
    use morlog_encoding::secure::SecureMode;
    use morlog_log::record::{Record, TxTag};
    use morlog_log::ring::Ring;
    use morlog_sim_core::rng::DetRng;

    /// The log-slot store `SlotCells` replaced: cells found through a hash
    /// index keyed by `slice << 40 | physical offset`, programmed from the
    /// mapped `EncodedRegion` with one `write_cost` per segment.
    #[derive(Default)]
    struct RefLogCells {
        table: CellTable<u64, MAX_SLOT_CELLS>,
    }

    impl RefLogCells {
        fn write(
            &mut self,
            codec: &SldeCodec,
            secure: SecureMode,
            stored: &StoredRecord,
            slice: usize,
            physical: u64,
        ) -> WriteCost {
            let slot_key = (slice as u64) << 40 | physical;
            let rec = &stored.record;
            let meta = rec.meta_words();
            let meta = [meta[0], meta[1] | (stored.torn as u64) << 63];
            let key = 0x5EC0_0000 ^ slot_key;
            let mut data: Vec<LogWordRequest> = Vec::new();
            if let Some(undo) = rec.undo {
                data.push(transform_log_word(
                    &LogWordRequest::with_mask(undo, rec.dirty_mask),
                    secure,
                    key,
                ));
            }
            if rec.kind != RecordKind::Commit {
                data.push(transform_log_word(
                    &LogWordRequest::with_mask(rec.redo, rec.dirty_mask),
                    secure,
                    key ^ 1,
                ));
            }
            let region = codec.encode_log_entry(&meta, &data, 1, array_slot_cells(rec.kind));
            let cells = self.table.cells_mut(slot_key);
            let mut total = WriteCost::silent();
            for (i, seg) in region.segments.iter().enumerate() {
                let states = &mut cells.states[i * WORD_REGION_CELLS..][..seg.states.len()];
                total.combine(&dcw::write_cost(
                    codec.model(),
                    states,
                    &seg.states,
                    seg.mode.bits_per_cell(),
                ));
                states.copy_from_slice(&seg.states);
            }
            if !total.is_silent() {
                cells.programs += 1;
            }
            total
        }

        fn wear(&self) -> (u64, usize) {
            let programs = self.table.programs();
            (
                programs.clone().max().unwrap_or(0),
                programs.filter(|&p| p > 0).count(),
            )
        }
    }

    fn random_record(rng: &mut DetRng, values: &[u64]) -> Record {
        let tag = TxTag::new(rng.gen_range(4) as u8, rng.gen_range(1 << 16) as u16);
        let addr = 0x4000 + 8 * rng.gen_range(512);
        let mut pick = || values[rng.gen_range(values.len() as u64) as usize];
        let (undo, redo) = (pick(), pick());
        let mask = morlog_sim_core::types::dirty_byte_mask(undo, redo);
        match rng.gen_range(3) {
            0 => Record::undo_redo(tag, addr, undo, redo, mask),
            1 => Record::redo_only(tag, addr, redo, mask),
            _ => Record::commit(tag, Some(rng.gen_range(9) as u32)),
        }
    }

    /// Drives the module and the reference through the same seeded slot
    /// sequence: appends of every kind to three small rings, truncations,
    /// wraps and ring growth, with few distinct values so that slots are
    /// often rewritten with what they already hold.
    fn matches_reference(codec: SldeCodec, secure: SecureMode, seed: u64) {
        let mut rng = DetRng::new(seed);
        let mut module = NvmmModule::new(codec.clone());
        module.set_secure_mode(secure);
        let mut reference = RefLogCells::default();
        let mut rings: Vec<Ring<()>> = (0..3).map(|_| Ring::new(ARRAY_SLOTS, 512)).collect();
        let values = [
            0,
            1,
            u64::MAX,
            0xFFFF_FFFF_ABCD_EFFF,
            0x1020_3040,
            0xDEAD_BEEF_0BAD_F00D,
        ];
        let mut grown = 0;
        for step in 0..6_000 {
            let slice = rng.gen_range(3) as usize;
            let ring = &mut rings[slice];
            if rng.gen_range(64) == 0 {
                ring.grow(ring.capacity());
                grown += 1;
            }
            let record = random_record(&mut rng, &values);
            let entry = loop {
                if let Some(e) = ring.append(record.kind, |_| ()) {
                    break *e;
                }
                let head = ring.head() + ring.used_bytes() / 2;
                let cut = ring
                    .entries()
                    .find(|e| e.offset >= head)
                    .map_or(ring.tail(), |e| e.offset);
                ring.truncate_to(cut);
            };
            let physical = ring.position(entry.offset);
            let stored = StoredRecord::seal(record, ring.pass_parity(entry.offset));
            let got = module.write_log_record(&stored, slice, physical);
            let want = reference.write(&codec, secure, &stored, slice, physical);
            assert_eq!(
                got.cost.energy.as_f64().to_bits(),
                want.energy.as_f64().to_bits(),
                "step {step}"
            );
            assert_eq!(
                got.cost.latency.as_f64().to_bits(),
                want.latency.as_f64().to_bits(),
                "step {step}"
            );
            assert_eq!(
                got.cost.cells_programmed, want.cells_programmed,
                "step {step}"
            );
            assert_eq!(
                got.cost.bits_programmed, want.bits_programmed,
                "step {step}"
            );
            let (_, max_log, locations) = module.wear_summary();
            assert_eq!((max_log, locations), reference.wear(), "step {step}");
        }
        assert!(grown > 0, "the rings grew");
        assert!(module.wear_summary().1 > 1, "slots were rewritten");
    }

    #[test]
    fn dense_slot_cells_match_hash_indexed_reference() {
        let model = CellModel::table_iii();
        matches_reference(SldeCodec::new(model.clone()), SecureMode::None, 0x5107);
        matches_reference(SldeCodec::crade(model.clone()), SecureMode::None, 0x5108);
        matches_reference(
            SldeCodec::new(model.clone()).with_expansion(false),
            SecureMode::None,
            0x5109,
        );
        matches_reference(SldeCodec::new(model), SecureMode::Deuce, 0x510A);
    }
}
