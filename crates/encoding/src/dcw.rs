//! Data-comparison write (DCW, Yang et al. \[62\]).
//!
//! NVM writes are preceded by a read of the target cells; only cells whose
//! stored state differs from the target state are programmed. Because cells
//! are programmed in parallel, the write latency of a block is the *maximum*
//! latency over the programmed cells, while the energy is the *sum*.

use morlog_sim_core::{NanoSeconds, PicoJoules};

use crate::cell::{CellModel, CellState, BITS_PER_CELL};
use crate::expansion::{map_cells, ExpansionMode};
use crate::slde::{SegmentPayload, WORD_REGION_CELLS};

/// The outcome of programming a cell vector under DCW.
///
/// # Example
///
/// ```
/// use morlog_encoding::{cell::CellModel, dcw::write_cost, CellState};
/// let m = CellModel::table_iii();
/// let old = [CellState::new(0); 4];
/// let new = [CellState::new(0), CellState::new(7), CellState::new(0), CellState::new(7)];
/// let cost = write_cost(&m, &old, &new, 3);
/// assert_eq!(cost.cells_programmed, 2);      // two cells changed
/// assert!((cost.latency.as_f64() - 12.1).abs() < 1e-9); // programming 111
/// assert!(!cost.is_silent());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WriteCost {
    /// Program latency of the write (max over programmed cells); zero for a
    /// silent write.
    pub latency: NanoSeconds,
    /// Total program energy (sum over programmed cells).
    pub energy: PicoJoules,
    /// Number of cells whose state changed.
    pub cells_programmed: u64,
    /// Bits programmed: `cells_programmed ×` bits-per-cell of the mapping in
    /// effect. This is the metric of Table VI.
    pub bits_programmed: u64,
}

impl WriteCost {
    /// A write where DCW found no modified cell.
    pub fn silent() -> Self {
        WriteCost::default()
    }

    /// Returns `true` when no cell needs programming ("silent write").
    pub fn is_silent(&self) -> bool {
        self.cells_programmed == 0
    }

    /// Accumulates another cost into this one, as when one logical write is
    /// split across several encoded regions programmed in parallel.
    pub fn combine(&mut self, other: &WriteCost) {
        self.latency = self.latency.max(other.latency);
        self.energy += other.energy;
        self.cells_programmed += other.cells_programmed;
        self.bits_programmed += other.bits_programmed;
    }
}

/// Computes the DCW cost of replacing `old` cell states with `new` ones.
///
/// `bits_per_cell` is the density of the mapping used for these cells: 3 for
/// a full TLC mapping, 2 or 1 under incomplete data mappings. It only affects
/// the `bits_programmed` accounting; latency and energy depend solely on the
/// target states.
///
/// # Panics
///
/// Panics if the slices have different lengths or `bits_per_cell` is not in
/// `1..=3`.
pub fn write_cost(
    model: &CellModel,
    old: &[CellState],
    new: &[CellState],
    bits_per_cell: usize,
) -> WriteCost {
    assert_eq!(
        old.len(),
        new.len(),
        "DCW compares equal-length cell vectors"
    );
    assert!(
        (1..=BITS_PER_CELL).contains(&bits_per_cell),
        "bits_per_cell {bits_per_cell} out of range"
    );
    // Raw per-state table lookups: scaling the maximum latency once equals
    // taking the maximum of scaled latencies (scaling by a positive factor
    // is monotone). Each run of up to 64 cells is compared without a
    // branch into a changed-cell bitmask, and only the changed cells are
    // visited, in cell order, so the energy is the same sum of the same
    // terms in the same order as a cell-by-cell loop.
    let (latency_ns, energy_pj) = model.write_tables();
    let (mut latency, mut energy, mut programmed) = (0.0f64, 0.0f64, 0u64);
    for (old, new) in old.chunks(64).zip(new.chunks(64)) {
        let mut changed = old
            .iter()
            .zip(new)
            .enumerate()
            .fold(0u64, |mask, (i, (o, n))| mask | ((o != n) as u64) << i);
        programmed += u64::from(changed.count_ones());
        while changed != 0 {
            let s = new[changed.trailing_zeros() as usize].bits() as usize;
            changed &= changed - 1;
            latency = latency.max(latency_ns[s]);
            energy += energy_pj[s];
        }
    }
    WriteCost {
        latency: NanoSeconds::new(latency * model.write_latency_scale()),
        energy: PicoJoules::new(energy),
        cells_programmed: programmed,
        bits_programmed: programmed * bits_per_cell as u64,
    }
}

/// Maps `payload` over the leading cells of `stored` under `mode` and
/// programs them under DCW: [`store_payload`], then [`changed_cells_cost`]
/// on the cells it changed. Returns the cost [`write_cost`] reports for
/// the mapped states against the old ones, bit for bit: the changed
/// cells' energies are summed in cell order. Cells past the payload keep
/// their states.
///
/// # Panics
///
/// Panics if the payload needs more cells than `stored` holds or more
/// than one word region.
pub fn program_payload(
    model: &CellModel,
    stored: &mut [CellState],
    payload: &SegmentPayload,
    mode: ExpansionMode,
) -> WriteCost {
    let changed = store_payload(stored, payload, mode);
    changed_cells_cost(model, stored, changed, mode.bits_per_cell())
}

/// The store step of [`program_payload`]: maps `payload` over the leading
/// cells of `stored` under `mode`, compares each cell's target state with
/// its stored state and writes it back, in one pass. Returns the
/// changed-cell mask (bit `c` set when cell `c` changed; 0 for a silent
/// write). Cells past the payload keep their states. A caller that keeps
/// no cost (the initial-image preload) stops here.
///
/// # Panics
///
/// Panics if the payload needs more cells than `stored` holds or more
/// than one word region.
#[inline]
pub fn store_payload(
    stored: &mut [CellState],
    payload: &SegmentPayload,
    mode: ExpansionMode,
) -> u32 {
    let cells = payload.len.div_ceil(mode.bits_per_cell());
    assert!(
        cells <= WORD_REGION_CELLS,
        "mapping needs {cells} cells, more than {WORD_REGION_CELLS}"
    );
    let stored = &mut stored[..cells];
    let mut changed = 0u32;
    map_cells(payload.bits, mode, cells, |c, state| {
        changed |= u32::from(stored[c] != state) << c;
        stored[c] = state;
    });
    changed
}

/// The cost step of [`program_payload`]: the DCW cost of the cells set in
/// `changed`, read at their new states in `stored` (as [`store_payload`]
/// left them), under a mapping of `bits_per_cell` bits per cell. The
/// latency is the maximum and the energy the sum, in cell order.
#[inline]
pub fn changed_cells_cost(
    model: &CellModel,
    stored: &[CellState],
    mut changed: u32,
    bits_per_cell: usize,
) -> WriteCost {
    let (latency_ns, energy_pj) = model.write_tables();
    let (mut latency, mut energy) = (0.0f64, 0.0f64);
    let programmed = u64::from(changed.count_ones());
    while changed != 0 {
        let s = stored[changed.trailing_zeros() as usize].bits() as usize;
        changed &= changed - 1;
        latency = latency.max(latency_ns[s]);
        energy += energy_pj[s];
    }
    WriteCost {
        latency: NanoSeconds::new(latency * model.write_latency_scale()),
        energy: PicoJoules::new(energy),
        cells_programmed: programmed,
        bits_programmed: programmed * bits_per_cell as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u8) -> CellState {
        CellState::new(v)
    }

    #[test]
    fn identical_vectors_are_silent() {
        let m = CellModel::table_iii();
        let v = [s(1), s(2), s(3)];
        let cost = write_cost(&m, &v, &v, 3);
        assert!(cost.is_silent());
        assert_eq!(cost.bits_programmed, 0);
        assert_eq!(cost.energy, PicoJoules::zero());
    }

    #[test]
    fn latency_is_max_energy_is_sum() {
        let m = CellModel::table_iii();
        let old = [s(0), s(0), s(0)];
        let new = [s(0b100), s(0b111), s(0)]; // 150 ns/35.6 pJ and 12.1 ns/1.5 pJ
        let cost = write_cost(&m, &old, &new, 3);
        assert_eq!(cost.cells_programmed, 2);
        assert!((cost.latency.as_f64() - 150.0).abs() < 1e-9);
        assert!((cost.energy.as_f64() - 37.1).abs() < 1e-9);
        assert_eq!(cost.bits_programmed, 6);
    }

    #[test]
    fn bits_programmed_uses_mapping_density() {
        let m = CellModel::table_iii();
        let old = [s(0), s(0)];
        let new = [s(7), s(7)];
        assert_eq!(write_cost(&m, &old, &new, 1).bits_programmed, 2);
        assert_eq!(write_cost(&m, &old, &new, 2).bits_programmed, 4);
        assert_eq!(write_cost(&m, &old, &new, 3).bits_programmed, 6);
    }

    #[test]
    fn combine_takes_max_latency() {
        let m = CellModel::table_iii();
        let mut a = write_cost(&m, &[s(0)], &[s(7)], 3); // 12.1 ns
        let b = write_cost(&m, &[s(0)], &[s(3)], 3); // 143 ns
        a.combine(&b);
        assert!((a.latency.as_f64() - 143.0).abs() < 1e-9);
        assert_eq!(a.cells_programmed, 2);
        assert!((a.energy.as_f64() - (1.5 + 35.1)).abs() < 1e-9);
    }

    /// DCW as a plain cell-by-cell loop.
    fn write_cost_by_cells(model: &CellModel, old: &[CellState], new: &[CellState]) -> WriteCost {
        let (mut latency, mut energy, mut programmed) = (0.0f64, 0.0f64, 0u64);
        for (&o, &n) in old.iter().zip(new) {
            if o != n {
                latency = latency.max(model.write_latency(n).as_f64());
                energy += model.write_energy(n).as_f64();
                programmed += 1;
            }
        }
        WriteCost {
            latency: NanoSeconds::new(latency),
            energy: PicoJoules::new(energy),
            cells_programmed: programmed,
            bits_programmed: programmed * 3,
        }
    }

    #[test]
    fn write_cost_matches_cell_by_cell_loop_bit_for_bit() {
        let mut rng = morlog_sim_core::rng::DetRng::new(0xDC3);
        for model in [
            CellModel::table_iii(),
            CellModel::table_iii().with_write_latency_scale(1.7),
        ] {
            for len in [0usize, 1, 5, 24, 63, 64, 65, 96, 200] {
                for _ in 0..50 {
                    let old: Vec<CellState> = (0..len).map(|_| s(rng.gen_range(8) as u8)).collect();
                    // Mostly-equal vectors as well as random ones.
                    let keep = rng.gen_f64();
                    let new: Vec<CellState> = old
                        .iter()
                        .map(|&o| {
                            if rng.gen_bool(keep) {
                                o
                            } else {
                                s(rng.gen_range(8) as u8)
                            }
                        })
                        .collect();
                    let got = write_cost(&model, &old, &new, 3);
                    let want = write_cost_by_cells(&model, &old, &new);
                    assert_eq!(
                        got.energy.as_f64().to_bits(),
                        want.energy.as_f64().to_bits()
                    );
                    assert_eq!(
                        got.latency.as_f64().to_bits(),
                        want.latency.as_f64().to_bits()
                    );
                    assert_eq!(got.cells_programmed, want.cells_programmed);
                    assert_eq!(got.bits_programmed, want.bits_programmed);
                }
            }
        }
    }

    #[test]
    fn program_payload_matches_map_then_write_cost() {
        use crate::expansion::map_payload_with_mode;
        let mut rng = morlog_sim_core::rng::DetRng::new(0x9A7);
        let model = CellModel::table_iii().with_write_latency_scale(1.3);
        for mode in [ExpansionMode::Idm1, ExpansionMode::Idm2, ExpansionMode::Tlc] {
            for len in 0..=WORD_REGION_CELLS * mode.bits_per_cell() {
                for _ in 0..20 {
                    let mask = (1u128 << len) - 1;
                    let bits =
                        (u128::from(rng.next_u64()) | u128::from(rng.next_u64()) << 64) & mask;
                    let payload = SegmentPayload { bits, len };
                    let old: Vec<CellState> = (0..WORD_REGION_CELLS + 2)
                        .map(|_| s(rng.gen_range(8) as u8))
                        .collect();
                    let mapped =
                        map_payload_with_mode(&[bits as u64, (bits >> 64) as u64], len, mode);
                    let n = mapped.states.len();
                    let want = write_cost(&model, &old[..n], &mapped.states, mode.bits_per_cell());
                    let mut stored = old.clone();
                    let got = program_payload(&model, &mut stored, &payload, mode);
                    assert_eq!(
                        got.energy.as_f64().to_bits(),
                        want.energy.as_f64().to_bits()
                    );
                    assert_eq!(
                        got.latency.as_f64().to_bits(),
                        want.latency.as_f64().to_bits()
                    );
                    assert_eq!(got.cells_programmed, want.cells_programmed);
                    assert_eq!(got.bits_programmed, want.bits_programmed);
                    assert_eq!(&stored[..n], &mapped.states[..]);
                    assert_eq!(
                        &stored[n..],
                        &old[n..],
                        "cells past the payload keep their states"
                    );
                }
            }
        }
    }

    #[test]
    fn store_step_alone_leaves_the_cells_program_payload_leaves() {
        let mut rng = morlog_sim_core::rng::DetRng::new(0x5707);
        let model = CellModel::table_iii();
        let random_payload = |rng: &mut morlog_sim_core::rng::DetRng, mode: ExpansionMode| {
            let len = rng.gen_range((WORD_REGION_CELLS * mode.bits_per_cell() + 1) as u64) as usize;
            let bits = (u128::from(rng.next_u64()) | u128::from(rng.next_u64()) << 64)
                & ((1u128 << len) - 1);
            SegmentPayload { bits, len }
        };
        for mode in [ExpansionMode::Idm1, ExpansionMode::Idm2, ExpansionMode::Tlc] {
            for _ in 0..2000 {
                // Random prior states, then (half the time) a longer
                // payload programmed over them, so a shorter payload
                // below leaves stale cells past its footprint.
                let mut prior: Vec<CellState> = (0..WORD_REGION_CELLS + 2)
                    .map(|_| s(rng.gen_range(8) as u8))
                    .collect();
                if rng.gen_bool(0.5) {
                    let longer = random_payload(&mut rng, mode);
                    program_payload(&model, &mut prior, &longer, mode);
                }
                // Rewriting the prior cells' own payload is silent.
                let payload = if rng.gen_bool(0.1) {
                    let mut quiet = prior.clone();
                    let p = random_payload(&mut rng, mode);
                    program_payload(&model, &mut quiet, &p, mode);
                    prior = quiet;
                    p
                } else {
                    random_payload(&mut rng, mode)
                };
                let mut stored_alone = prior.clone();
                let changed = store_payload(&mut stored_alone, &payload, mode);
                let mut programmed = prior.clone();
                let cost = program_payload(&model, &mut programmed, &payload, mode);
                assert_eq!(stored_alone, programmed, "{mode:?} {payload:?}");
                assert_eq!(changed == 0, cost.is_silent(), "{mode:?} {payload:?}");
                assert_eq!(u64::from(changed.count_ones()), cost.cells_programmed);
                let footprint = payload.len.div_ceil(mode.bits_per_cell());
                assert_eq!(&stored_alone[footprint..], &prior[footprint..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let m = CellModel::table_iii();
        write_cost(&m, &[s(0)], &[s(0), s(1)], 3);
    }
}
