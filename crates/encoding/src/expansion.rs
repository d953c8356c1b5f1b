//! Compression-ratio-aware expansion coding (incomplete data mapping, IDM).
//!
//! After compression, a payload of `q` bits destined for a region of `C`
//! TLC cells (capacity `3·C` bits) usually has slack. Expansion coding
//! (CompEx \[45\], IDM \[42\], CRADE \[61\]) spends that slack on *cheaper cell
//! states*: instead of packing 3 bits into each cell, the payload is spread
//! at 1 or 2 bits per cell over a mapping restricted to the states with the
//! lowest program cost (Table III is strongly asymmetric: programming `111`
//! costs 1.5 pJ/12.1 ns while `100` costs 35.6 pJ/150 ns).
//!
//! The mode is chosen per write from the compression ratio: the widest
//! expansion whose capacity still fits the payload.

use morlog_sim_core::array_vec::ArrayVec;

use crate::cell::{CellState, BITS_PER_CELL};
use crate::slde::{SEGMENT_WORDS, WORD_REGION_CELLS};

/// How payload bits are mapped onto cell states.
///
/// # Example
///
/// ```
/// use morlog_encoding::ExpansionMode;
/// assert_eq!(ExpansionMode::for_payload(100, 171), ExpansionMode::Idm1);
/// assert_eq!(ExpansionMode::for_payload(300, 171), ExpansionMode::Idm2);
/// assert_eq!(ExpansionMode::for_payload(500, 171), ExpansionMode::Tlc);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExpansionMode {
    /// 1 bit per cell over the two cheapest states (`000`, `111`).
    #[default]
    Idm1,
    /// 2 bits per cell over the four cheapest states
    /// (`111`, `000`, `001`, `110`).
    Idm2,
    /// Full 3-bits-per-cell TLC mapping (no expansion).
    Tlc,
}

impl ExpansionMode {
    /// Bits of payload stored per cell in this mode.
    pub fn bits_per_cell(self) -> usize {
        match self {
            ExpansionMode::Idm1 => 1,
            ExpansionMode::Idm2 => 2,
            ExpansionMode::Tlc => BITS_PER_CELL,
        }
    }

    /// Chooses the widest expansion that fits `payload_bits` into `cells`.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not fit even at full TLC density — callers
    /// size their regions so this cannot happen.
    pub fn for_payload(payload_bits: usize, cells: usize) -> ExpansionMode {
        if payload_bits <= cells {
            ExpansionMode::Idm1
        } else if payload_bits <= 2 * cells {
            ExpansionMode::Idm2
        } else {
            assert!(
                payload_bits <= BITS_PER_CELL * cells,
                "payload of {payload_bits} bits exceeds {cells} TLC cells"
            );
            ExpansionMode::Tlc
        }
    }

    /// Maps a chunk of payload bits (`chunk < 2^bits_per_cell`) to a cell
    /// state under this mode's incomplete mapping.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` does not fit the mode's density.
    pub fn map_chunk(self, chunk: u8) -> CellState {
        match self {
            ExpansionMode::Idm1 => {
                assert!(chunk < 2, "IDM-1 maps single bits, got {chunk}");
                // 0 -> 000 (2.0 pJ), 1 -> 111 (1.5 pJ): the two cheapest states.
                CellState::new(if chunk == 0 { 0b000 } else { 0b111 })
            }
            ExpansionMode::Idm2 => {
                assert!(chunk < 4, "IDM-2 maps bit pairs, got {chunk}");
                // The four cheapest states by energy: 111, 000, 001, 110.
                // Mapping keeps the natural 00->000, 11->111 correspondence.
                CellState::new(match chunk {
                    0b00 => 0b000,
                    0b01 => 0b001,
                    0b10 => 0b110,
                    _ => 0b111,
                })
            }
            ExpansionMode::Tlc => {
                assert!(chunk < 8, "TLC maps 3-bit groups, got {chunk}");
                CellState::new(chunk)
            }
        }
    }

    /// Inverse of [`map_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `state` is not part of this mode's restricted state set.
    ///
    /// [`map_chunk`]: ExpansionMode::map_chunk
    pub fn unmap_state(self, state: CellState) -> u8 {
        match self {
            ExpansionMode::Idm1 => match state.bits() {
                0b000 => 0,
                0b111 => 1,
                s => panic!("state {s:03b} not in the IDM-1 mapping"),
            },
            ExpansionMode::Idm2 => match state.bits() {
                0b000 => 0b00,
                0b001 => 0b01,
                0b110 => 0b10,
                0b111 => 0b11,
                s => panic!("state {s:03b} not in the IDM-2 mapping"),
            },
            ExpansionMode::Tlc => state.bits(),
        }
    }
}

/// A payload mapped onto a cell region of at most [`WORD_REGION_CELLS`]
/// cells: the target states DCW will compare against the stored states.
///
/// # Example
///
/// ```
/// use morlog_encoding::expansion::{map_payload_with_mode, ExpansionMode};
/// // 4 payload bits into 8 cells: IDM-1, one bit per cell, 4 cells used.
/// let w = map_payload_with_mode(&[0b1010], 4, ExpansionMode::for_payload(4, 8));
/// assert_eq!(w.mode.bits_per_cell(), 1);
/// assert_eq!(w.states.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappedWrite {
    /// The expansion mode chosen for the region.
    pub mode: ExpansionMode,
    /// Target state per cell actually carrying payload. Cells beyond the
    /// payload are untouched (DCW never programs them).
    pub states: ArrayVec<CellState, WORD_REGION_CELLS>,
}

/// The IDM-2 mapping of [`ExpansionMode::map_chunk`] as a table.
const IDM2_STATES: [CellState; 4] = [
    CellState::from_low_bits(0b000),
    CellState::from_low_bits(0b001),
    CellState::from_low_bits(0b110),
    CellState::from_low_bits(0b111),
];

/// Maps `payload_bits` bits onto cells using an explicitly chosen mode
/// (used when expansion coding is disabled and everything stays at full TLC
/// density, Table VI).
///
/// Produces the states [`ExpansionMode::map_chunk`] gives each cell's
/// chunk, with bits past `payload_bits` read as 0, but runs one
/// branch-free loop per mode over the payload held in one `u128` (a
/// region's payload is at most 72 bits).
///
/// # Panics
///
/// Panics if the packed words are shorter than `payload_bits`, or the
/// mapping needs more than [`WORD_REGION_CELLS`] cells.
pub fn map_payload_with_mode(
    payload: &[u64],
    payload_bits: usize,
    mode: ExpansionMode,
) -> MappedWrite {
    assert!(
        payload_bits <= payload.len() * 64,
        "payload words too short"
    );
    let bpc = mode.bits_per_cell();
    let cells_used = payload_bits.div_ceil(bpc);
    assert!(
        cells_used <= WORD_REGION_CELLS,
        "mapping needs {cells_used} cells, more than {WORD_REGION_CELLS}"
    );
    let word = |i: usize| payload.get(i).copied().unwrap_or(0) as u128;
    let bits = (word(0) | word(1) << 64) & ((1u128 << payload_bits) - 1);
    let mut cells = [CellState::default(); WORD_REGION_CELLS];
    map_cells(bits, mode, cells_used, |c, state| cells[c] = state);
    MappedWrite {
        mode,
        states: ArrayVec::from_prefix(cells, cells_used),
    }
}

/// Calls `put(c, state)` for cells `0..cells` in order, with the state
/// [`ExpansionMode::map_chunk`] gives cell `c`'s chunk of `bits` (bits
/// past the payload must be 0). One branch-free loop per mode; the
/// IDM modes carry at most 48 payload bits, so they shift a `u64`.
#[inline(always)]
pub(crate) fn map_cells(
    bits: u128,
    mode: ExpansionMode,
    cells: usize,
    mut put: impl FnMut(usize, CellState),
) {
    match mode {
        ExpansionMode::Idm1 => {
            let mut bits = bits as u64;
            for c in 0..cells {
                put(c, CellState::from_low_bits((bits as u8 & 1) * 0b111));
                bits >>= 1;
            }
        }
        ExpansionMode::Idm2 => {
            let mut bits = bits as u64;
            for c in 0..cells {
                put(c, IDM2_STATES[bits as usize & 0b11]);
                bits >>= 2;
            }
        }
        ExpansionMode::Tlc => {
            let mut bits = bits;
            for c in 0..cells {
                put(c, CellState::from_low_bits(bits as u8));
                bits >>= 3;
            }
        }
    }
}

/// Recovers the payload bits from a mapped region (the decode path).
///
/// Returns the packed payload words.
///
/// # Panics
///
/// Panics if `payload_bits` exceeds `SEGMENT_WORDS` words.
pub fn unmap_payload(write: &MappedWrite, payload_bits: usize) -> [u64; SEGMENT_WORDS] {
    assert!(
        payload_bits <= SEGMENT_WORDS * 64,
        "payload of {payload_bits} bits exceeds one word region"
    );
    let bpc = write.mode.bits_per_cell();
    let mut words = [0u64; SEGMENT_WORDS];
    for (cell, &state) in write.states.iter().enumerate() {
        let chunk = write.mode.unmap_state(state);
        for bit in 0..bpc {
            let idx = cell * bpc + bit;
            if idx < payload_bits && (chunk >> bit) & 1 == 1 {
                words[idx / 64] |= 1 << (idx % 64);
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellModel;

    /// Maps with the widest expansion that fits `region_cells` cells.
    fn map_payload(payload: &[u64], payload_bits: usize, region_cells: usize) -> MappedWrite {
        map_payload_with_mode(
            payload,
            payload_bits,
            ExpansionMode::for_payload(payload_bits, region_cells),
        )
    }

    #[test]
    fn mode_selection_boundaries() {
        assert_eq!(ExpansionMode::for_payload(0, 10), ExpansionMode::Idm1);
        assert_eq!(ExpansionMode::for_payload(10, 10), ExpansionMode::Idm1);
        assert_eq!(ExpansionMode::for_payload(11, 10), ExpansionMode::Idm2);
        assert_eq!(ExpansionMode::for_payload(20, 10), ExpansionMode::Idm2);
        assert_eq!(ExpansionMode::for_payload(21, 10), ExpansionMode::Tlc);
        assert_eq!(ExpansionMode::for_payload(30, 10), ExpansionMode::Tlc);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        ExpansionMode::for_payload(31, 10);
    }

    #[test]
    fn idm_mappings_use_cheap_states() {
        let model = CellModel::table_iii();
        let mut by_energy = CellState::all();
        by_energy.sort_by(|a, b| {
            model
                .write_energy(*a)
                .as_f64()
                .total_cmp(&model.write_energy(*b).as_f64())
        });
        let cheap4 = &by_energy[..4];
        for chunk in 0..4 {
            assert!(cheap4.contains(&ExpansionMode::Idm2.map_chunk(chunk)));
        }
        for chunk in 0..2 {
            assert!(cheap4[..2].contains(&ExpansionMode::Idm1.map_chunk(chunk)));
        }
    }

    #[test]
    fn map_unmap_round_trip() {
        let payload = [0xDEAD_BEEF_0123_4567u64, 0xFEED_FACE_CAFE_F00D];
        for bits in [1usize, 7, 24, 25, 48, 49, 64, 65, 72] {
            for cells in [WORD_REGION_CELLS, 20, 16] {
                if bits > 3 * cells {
                    continue;
                }
                let mapped = map_payload(&payload, bits, cells);
                let out = unmap_payload(&mapped, bits);
                for idx in 0..bits {
                    let want = (payload[idx / 64] >> (idx % 64)) & 1;
                    let got = (out[idx / 64] >> (idx % 64)) & 1;
                    assert_eq!(want, got, "bit {idx} with {bits} bits / {cells} cells");
                }
            }
        }
    }

    /// Reference mapping, one cell at a time: each cell's chunk through
    /// `map_chunk`, bits past `payload_bits` read as 0.
    fn map_by_chunks(payload: &[u64], payload_bits: usize, mode: ExpansionMode) -> MappedWrite {
        let bpc = mode.bits_per_cell();
        let mut states = ArrayVec::new();
        for cell in 0..payload_bits.div_ceil(bpc) {
            let idx = cell * bpc;
            let (word, shift) = (idx / 64, idx % 64);
            let valid = bpc.min(payload_bits - idx);
            let mut chunk = payload[word] >> shift;
            if shift + valid > 64 {
                chunk |= payload[word + 1] << (64 - shift);
            }
            states.push(mode.map_chunk((chunk & ((1 << valid) - 1)) as u8));
        }
        MappedWrite { mode, states }
    }

    #[test]
    fn mapping_kernels_match_map_chunk_for_every_length() {
        let mut rng = morlog_sim_core::rng::DetRng::new(72);
        for mode in [ExpansionMode::Idm1, ExpansionMode::Idm2, ExpansionMode::Tlc] {
            let max_bits = mode.bits_per_cell() * WORD_REGION_CELLS;
            for bits in 0..=72usize.min(max_bits) {
                for _ in 0..16 {
                    // Bits past `payload_bits` are set at random too: the
                    // mapping must read them as 0.
                    let payload = [rng.next_u64(), rng.next_u64()];
                    assert_eq!(
                        map_payload_with_mode(&payload, bits, mode),
                        map_by_chunks(&payload, bits, mode),
                        "{mode:?}, {bits} bits, payload {payload:x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_round_trip_all_modes() {
        for mode in [ExpansionMode::Idm1, ExpansionMode::Idm2, ExpansionMode::Tlc] {
            for chunk in 0..(1u8 << mode.bits_per_cell()) {
                assert_eq!(mode.unmap_state(mode.map_chunk(chunk)), chunk);
            }
        }
    }

    #[test]
    fn cells_used_matches_density() {
        let payload = [u64::MAX; 2];
        let c = WORD_REGION_CELLS;
        let w = map_payload(&payload, c, c); // exactly C bits -> IDM-1
        assert_eq!(w.mode, ExpansionMode::Idm1);
        assert_eq!(w.states.len(), 24);
        let w = map_payload(&payload, 2 * c, c);
        assert_eq!(w.mode, ExpansionMode::Idm2);
        assert_eq!(w.states.len(), 24);
        let w = map_payload(&payload, 2 * c + 1, c);
        assert_eq!(w.mode, ExpansionMode::Tlc);
        assert_eq!(w.states.len(), 17); // ceil(49/3)
        let w = map_payload(&payload, 3 * c, c);
        assert_eq!(w.mode, ExpansionMode::Tlc);
        assert_eq!(w.states.len(), 24);
    }

    #[test]
    #[should_panic(expected = "not in the IDM-1 mapping")]
    fn unmap_rejects_foreign_state() {
        ExpansionMode::Idm1.unmap_state(CellState::new(0b010));
    }
}
