//! Simulated-time and energy units.
//!
//! The simulator counts processor cycles; device parameters (Table III) are
//! specified in nanoseconds and picojoules. [`Frequency`] converts between
//! the two domains.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A processor-cycle timestamp or duration.
pub type Cycle = u64;

/// A duration in nanoseconds (device-side timing, Table III).
///
/// # Example
///
/// ```
/// use morlog_sim_core::NanoSeconds;
/// let t = NanoSeconds::new(15.2) + NanoSeconds::new(4.8);
/// assert!((t.as_f64() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct NanoSeconds(f64);

impl NanoSeconds {
    /// Creates a duration from a floating-point nanosecond count.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn new(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns}");
        NanoSeconds(ns)
    }

    /// A zero-length duration.
    pub fn zero() -> Self {
        NanoSeconds(0.0)
    }

    /// Returns the duration as `f64` nanoseconds.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: NanoSeconds) -> NanoSeconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(self, factor: f64) -> NanoSeconds {
        NanoSeconds::new(self.0 * factor)
    }
}

impl Add for NanoSeconds {
    type Output = NanoSeconds;
    fn add(self, rhs: NanoSeconds) -> NanoSeconds {
        NanoSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for NanoSeconds {
    fn add_assign(&mut self, rhs: NanoSeconds) {
        self.0 += rhs.0;
    }
}

impl Sub for NanoSeconds {
    type Output = NanoSeconds;
    fn sub(self, rhs: NanoSeconds) -> NanoSeconds {
        NanoSeconds::new(self.0 - rhs.0)
    }
}

impl Sum for NanoSeconds {
    fn sum<I: Iterator<Item = NanoSeconds>>(iter: I) -> NanoSeconds {
        iter.fold(NanoSeconds::zero(), Add::add)
    }
}

impl fmt::Display for NanoSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}ns", self.0)
    }
}

/// An energy amount in picojoules (Table III cell energies).
///
/// # Example
///
/// ```
/// use morlog_sim_core::PicoJoules;
/// let e: PicoJoules = [PicoJoules::new(2.0), PicoJoules::new(1.5)].into_iter().sum();
/// assert!((e.as_f64() - 3.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PicoJoules(f64);

impl PicoJoules {
    /// Creates an energy amount.
    ///
    /// # Panics
    ///
    /// Panics if `pj` is negative or not finite.
    pub fn new(pj: f64) -> Self {
        assert!(pj.is_finite() && pj >= 0.0, "invalid energy: {pj}");
        PicoJoules(pj)
    }

    /// Zero energy.
    pub fn zero() -> Self {
        PicoJoules(0.0)
    }

    /// Returns the energy as `f64` picojoules.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for PicoJoules {
    type Output = PicoJoules;
    fn add(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 + rhs.0)
    }
}

impl AddAssign for PicoJoules {
    fn add_assign(&mut self, rhs: PicoJoules) {
        self.0 += rhs.0;
    }
}

impl Sum for PicoJoules {
    fn sum<I: Iterator<Item = PicoJoules>>(iter: I) -> PicoJoules {
        iter.fold(PicoJoules::zero(), Add::add)
    }
}

impl fmt::Display for PicoJoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}pJ", self.0)
    }
}

/// A core clock frequency, used to convert device nanoseconds into cycles.
///
/// # Example
///
/// ```
/// use morlog_sim_core::{Frequency, NanoSeconds};
/// let f = Frequency::ghz(3.0); // the paper's 3 GHz cores
/// assert_eq!(f.ns_to_cycles(NanoSeconds::new(25.0)), 75);
/// assert_eq!(f.ns_to_cycles(NanoSeconds::new(0.1)), 1); // rounds up
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency {
    ghz: f64,
}

impl Frequency {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not a positive finite number.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz}");
        Frequency { ghz }
    }

    /// Converts a nanosecond duration to cycles, rounding up (a device busy
    /// for a fraction of a cycle occupies the whole cycle).
    pub fn ns_to_cycles(self, ns: NanoSeconds) -> Cycle {
        (ns.as_f64() * self.ghz).ceil() as Cycle
    }

    /// Converts a cycle count to seconds (for throughput reporting).
    pub fn cycles_to_seconds(self, cycles: Cycle) -> f64 {
        cycles as f64 / (self.ghz * 1e9)
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency::ghz(3.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}GHz", self.ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_cycles_rounds_up() {
        let f = Frequency::ghz(3.0);
        assert_eq!(f.ns_to_cycles(NanoSeconds::zero()), 0);
        assert_eq!(f.ns_to_cycles(NanoSeconds::new(1.0)), 3);
        assert_eq!(f.ns_to_cycles(NanoSeconds::new(15.2)), 46); // 45.6 -> 46
        assert_eq!(f.ns_to_cycles(NanoSeconds::new(150.0)), 450);
    }

    #[test]
    fn cycles_round_trip() {
        let f = Frequency::ghz(2.0);
        assert_eq!(f.ns_to_cycles(NanoSeconds::new(50.0)), 100);
        assert!((f.cycles_to_seconds(2_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = NanoSeconds::new(10.0);
        let b = NanoSeconds::new(4.0);
        assert!(((a - b).as_f64() - 6.0).abs() < 1e-12);
        assert_eq!(a.max(b), a);
        assert!((a.scaled(3.0).as_f64() - 30.0).abs() < 1e-12);
        let mut acc = NanoSeconds::zero();
        acc += a;
        assert_eq!(acc, a);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        NanoSeconds::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn zero_frequency_panics() {
        Frequency::ghz(0.0);
    }

    #[test]
    fn energy_sums() {
        let total: PicoJoules = (0..4).map(|_| PicoJoules::new(1.5)).sum();
        assert!((total.as_f64() - 6.0).abs() < 1e-12);
    }
}
