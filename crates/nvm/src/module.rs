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
    Choices, EncodedRegion, LogWordRequest, SldeCodec, BLOCK_CELLS, MAX_LOG_DATA_WORDS,
    WORD_REGION_CELLS,
};
use morlog_log::record::RecordKind;
use morlog_sim_core::array_vec::ArrayVec;
use morlog_sim_core::hash::IntHashMap;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::{LineAddr, LineData};

use crate::log::{array_slot_cells, StoredRecord};

/// Cells of the largest log slot (an undo+redo entry).
const MAX_SLOT_CELLS: usize = array_slot_cells(RecordKind::UndoRedo);

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
#[derive(Debug, Clone)]
pub struct NvmmModule {
    codec: SldeCodec,
    /// Stored cells and program counts per data line and per log slot.
    data_cells: CellTable<LineAddr, BLOCK_CELLS>,
    log_cells: CellTable<u64, MAX_SLOT_CELLS>,
    backing: IntHashMap<LineAddr, LineData>,
    secure: SecureMode,
}

/// The cells behind one data line or log slot, stored inline so a first
/// write to a line or slot allocates nothing of its own, with the count of
/// writes that programmed any of them (wear; Table VI's endurance
/// argument).
#[derive(Debug, Clone)]
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

impl<const N: usize> Cells<N> {
    /// Programs an encoded region (one sub-region per word) under DCW,
    /// returning the combined cost. Segment `i` occupies cells
    /// `[i·WORD_REGION_CELLS, …)`; cells beyond a segment's footprint keep
    /// their previous states (DCW never touches them).
    fn program(&mut self, model: &CellModel, region: &EncodedRegion) -> WriteCost {
        let mut total = WriteCost::silent();
        for (i, seg) in region.segments.iter().enumerate() {
            let cells = &mut self.states[i * WORD_REGION_CELLS..][..seg.states.len()];
            total.combine(&dcw::write_cost(
                model,
                cells,
                &seg.states,
                seg.mode.bits_per_cell(),
            ));
            cells.copy_from_slice(&seg.states);
        }
        if !total.is_silent() {
            self.programs += 1;
        }
        total
    }
}

impl NvmmModule {
    /// Creates a module with all cells in the erased `000` state and all
    /// bytes zero.
    pub fn new(codec: SldeCodec) -> Self {
        NvmmModule {
            codec,
            data_cells: CellTable::default(),
            log_cells: CellTable::default(),
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
        let region = self.codec.encode_data_block(&data);
        let cost = self
            .data_cells
            .cells_mut(line)
            .program(self.codec.model(), &region);
        self.backing.insert(line, data);
        ServicedWrite {
            cost,
            choices: region.choices,
        }
    }

    /// Writes one log record into its ring slot (`physical_offset` is the
    /// slot's offset within the log region). The undo and redo words go
    /// through the SLDE selector with a DLDC budget of one word per entry
    /// (§IV-B: never both undo and redo of one entry).
    pub fn write_log_record(
        &mut self,
        stored: &StoredRecord,
        physical_offset: u64,
    ) -> ServicedWrite {
        let _prof = hostprof::scope(HostPhase::Encoding);
        let rec = &stored.record;
        let meta = rec.meta_words();
        // Fold the torn bit into the metadata stream as its own word slot
        // would be overkill; it rides in the high bit of word 1.
        let meta = [meta[0], meta[1] | (stored.torn as u64) << 63];
        let key = 0x5EC0_0000 ^ physical_offset; // per-slot tweak, like CTR-mode IVs
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
        let region = self
            .codec
            .encode_log_entry(&meta, &data, 1, array_slot_cells(rec.kind));
        let cost = self
            .log_cells
            .cells_mut(physical_offset)
            .program(self.codec.model(), &region);
        ServicedWrite {
            cost,
            choices: region.choices,
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
        let s = m.write_log_record(&stored, 0);
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
        let first = m.write_log_record(&stored, 0);
        // Same record re-written into the same physical slot: almost
        // everything matches the stored states except the torn bit.
        let stored2 = StoredRecord::seal(rec, true);
        let second = m.write_log_record(&stored2, 0);
        assert!(second.cost.cells_programmed < first.cost.cells_programmed);
    }

    #[test]
    fn commit_record_encodes_without_data_words() {
        let mut m = module();
        let rec = Record::commit(tag(), Some(5));
        let stored = StoredRecord::seal(rec, false);
        let s = m.write_log_record(&stored, 64);
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
            m.write_log_record(&stored, 0); // same physical slot each pass
        }
        let (_, max_log, _) = m.wear_summary();
        assert_eq!(max_log, 3, "the reused slot accumulates wear");
    }
}
