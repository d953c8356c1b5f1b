//! A small deterministic random-number generator.
//!
//! The whole evaluation must be reproducible (crash injection replays,
//! paper-figure regeneration), so every stochastic choice in the workspace
//! goes through [`DetRng`], a SplitMix64/xorshift* hybrid seeded explicitly.
//! We deliberately do not use `rand`'s thread RNG anywhere.

/// Deterministic 64-bit RNG (SplitMix64 state advance, xorshift-style
/// output mixing). Fast, tiny state, and good enough statistical quality for
/// workload generation.
///
/// # Example
///
/// ```
/// use morlog_sim_core::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        DetRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift rejection-free mapping (Lemire). Bias is negligible
        // for the bounds used in workloads (< 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }

    /// Splits off an independent generator (for per-thread streams).
    pub fn split(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// Creates a generator for a keyed stream: the same `(seed, stream)`
    /// pair always yields the same sequence, and distinct stream keys yield
    /// independent sequences. Unlike [`split`](DetRng::split), the derived
    /// stream does not depend on draw order — fuzz campaigns key one stream
    /// per `(design, workload)` so per-campaign samples are stable however
    /// many campaigns a run interleaves.
    pub fn for_stream(seed: u64, stream: u64) -> DetRng {
        let mut keyed = DetRng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        // Burn one output so `for_stream(s, 0)` differs from `new(s)`.
        keyed.next_u64();
        keyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = DetRng::new(8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_respects_bound() {
        let mut r = DetRng::new(1);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(2);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bool_probability_roughly_honoured() {
        let mut r = DetRng::new(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn keyed_streams_are_stable_and_independent() {
        let a: Vec<u64> = {
            let mut r = DetRng::for_stream(9, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::for_stream(9, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same key, same stream");
        let c: Vec<u64> = {
            let mut r = DetRng::for_stream(9, 4);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "stream key must steer the sequence");
        let d: Vec<u64> = {
            let mut r = DetRng::new(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(
            DetRng::for_stream(9, 0).next_u64(),
            d[0],
            "stream 0 is not the raw seed stream"
        );
    }

    #[test]
    fn split_streams_diverge() {
        let mut r = DetRng::new(4);
        let mut s1 = r.split();
        let mut s2 = r.split();
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::new(0).gen_range(0);
    }
}
