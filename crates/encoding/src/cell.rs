//! TLC RRAM cell-state model (Table III of the paper).
//!
//! A triple-level cell stores 3 bits in one of 8 resistance states. States
//! differ wildly in program latency (12.1–150 ns) and energy (1.5–35.6 pJ)
//! because the iterative program-and-verify loop needs different numbers of
//! pulses per target state. This asymmetry is what expansion coding and DLDC
//! exploit.

use std::fmt;

use morlog_sim_core::{NanoSeconds, PicoJoules};

/// Bits stored per TLC cell.
pub const BITS_PER_CELL: usize = 3;

/// One of the eight TLC resistance states, named by its 3-bit pattern.
///
/// # Example
///
/// ```
/// use morlog_encoding::CellState;
/// let s = CellState::new(0b101);
/// assert_eq!(s.bits(), 5);
/// assert_eq!(format!("{s}"), "101");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CellState(u8);

impl CellState {
    /// Creates a state from its 3-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 7`.
    pub fn new(bits: u8) -> Self {
        assert!(bits < 8, "TLC state {bits} out of range 0..8");
        CellState(bits)
    }

    /// The state named by the low 3 bits of `bits` (the mapping kernels'
    /// unchecked constructor).
    pub(crate) const fn from_low_bits(bits: u8) -> Self {
        CellState(bits & 0b111)
    }

    /// Returns the 3-bit value.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// All eight states in ascending bit order.
    pub fn all() -> [CellState; 8] {
        [0, 1, 2, 3, 4, 5, 6, 7].map(CellState)
    }
}

impl fmt::Display for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03b}", self.0)
    }
}

/// Per-state program latency and energy plus read latency — the device-side
/// numbers of Table III, with an optional uniform write-latency scale used by
/// the §VI-E sensitivity sweep.
///
/// # Example
///
/// ```
/// use morlog_encoding::{CellModel, CellState};
/// let m = CellModel::table_iii();
/// assert!((m.write_latency(CellState::new(0b111)).as_f64() - 12.1).abs() < 1e-9);
/// assert!((m.write_energy(CellState::new(0b100)).as_f64() - 35.6).abs() < 1e-9);
/// let slow = m.with_write_latency_scale(2.0);
/// assert!((slow.write_latency(CellState::new(0b111)).as_f64() - 24.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellModel {
    latency_ns: [f64; 8],
    energy_pj: [f64; 8],
    write_latency_scale: f64,
}

impl CellModel {
    /// The TLC RRAM parameters of Table III (also used by refs.\ 42, 45, 61 of the paper).
    pub fn table_iii() -> Self {
        CellModel {
            //           000   001   010   011   100    101    110   111
            latency_ns: [15.2, 46.8, 98.3, 143.0, 150.0, 101.0, 52.7, 12.1],
            energy_pj: [2.0, 6.7, 19.3, 35.1, 35.6, 19.6, 8.5, 1.5],
            write_latency_scale: 1.0,
        }
    }

    /// Returns a copy with all write latencies scaled by `scale` (the §VI-E
    /// NVMM-latency sensitivity study sweeps ×1..×32).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive finite number.
    pub fn with_write_latency_scale(&self, scale: f64) -> CellModel {
        assert!(
            scale.is_finite() && scale > 0.0,
            "invalid latency scale {scale}"
        );
        CellModel {
            write_latency_scale: scale,
            ..self.clone()
        }
    }

    /// The unscaled per-state program latencies (ns) and energies (pJ),
    /// indexed by state bits.
    pub(crate) fn write_tables(&self) -> (&[f64; 8], &[f64; 8]) {
        (&self.latency_ns, &self.energy_pj)
    }

    /// The factor every program latency is scaled by.
    pub(crate) fn write_latency_scale(&self) -> f64 {
        self.write_latency_scale
    }

    /// Program latency for writing `state` into a cell.
    pub fn write_latency(&self, state: CellState) -> NanoSeconds {
        NanoSeconds::new(self.latency_ns[state.bits() as usize] * self.write_latency_scale)
    }

    /// Program energy for writing `state` into a cell.
    pub fn write_energy(&self, state: CellState) -> PicoJoules {
        PicoJoules::new(self.energy_pj[state.bits() as usize])
    }
}

impl Default for CellModel {
    fn default() -> Self {
        CellModel::table_iii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let m = CellModel::table_iii();
        let lat: Vec<f64> = CellState::all()
            .iter()
            .map(|&s| m.write_latency(s).as_f64())
            .collect();
        assert_eq!(lat, vec![15.2, 46.8, 98.3, 143.0, 150.0, 101.0, 52.7, 12.1]);
        let en: Vec<f64> = CellState::all()
            .iter()
            .map(|&s| m.write_energy(s).as_f64())
            .collect();
        assert_eq!(en, vec![2.0, 6.7, 19.3, 35.1, 35.6, 19.6, 8.5, 1.5]);
        // The paper: "the averaged write energy of a TLC RRAM cell is 16.0 pJ"
        // (§IV-C).
        assert!((en.iter().sum::<f64>() / 8.0 - 16.0375).abs() < 0.05);
    }

    #[test]
    fn latency_scaling() {
        let m = CellModel::table_iii().with_write_latency_scale(32.0);
        assert!((m.write_latency(CellState::new(4)).as_f64() - 4800.0).abs() < 1e-9);
        // Energy is unaffected.
        assert!((m.write_energy(CellState::new(4)).as_f64() - 35.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn state_out_of_range_panics() {
        CellState::new(8);
    }

    #[test]
    #[should_panic(expected = "invalid latency scale")]
    fn bad_scale_panics() {
        CellModel::table_iii().with_write_latency_scale(0.0);
    }
}
