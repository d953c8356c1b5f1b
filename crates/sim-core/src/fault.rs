//! Deterministic fault injection for the NVMM persist domain.
//!
//! A [`FaultPlan`] describes which device-level failure modes the memory
//! controller should inject and at what rates. Every decision is a pure
//! function of the plan's seed and a caller-supplied *site* (a stable
//! identifier of the physical event: slot offset, drain sequence number,
//! word index), so two runs with the same seed inject exactly the same
//! faults — a failed sweep is replayable from its seed alone.
//!
//! Three TLC-RRAM failure modes are modelled:
//!
//! - **Torn drains**: a crash interrupts the write queue while a multi-word
//!   log slot is being programmed, persisting only a prefix of its words.
//!   The two metadata words of a slot are programmed as one atomic unit
//!   (a single 128-bit row program), so tearing only ever truncates the
//!   *data* words — a torn record is still attributable to its thread and
//!   transaction.
//! - **Bit flips**: resistance drift flips raw bits. Drain-time flips are
//!   caught by the controller's write-verify pass and repaired by retry;
//!   crash-time flips on in-flight records escape verification and must be
//!   caught by recovery (per-record CRC). Flip probability is keyed to the
//!   TLC state being programmed: erased cells never drift, low-resistance
//!   states drift at the base rate, high-resistance states at twice it.
//! - **Stuck-at cells**: a slot whose endurance counter passes the plan's
//!   limit no longer programs; write-verify fails deterministically and the
//!   controller remaps the slot to a spare after the retry budget runs out.
//!
//! A `fault_budget` caps the number of *injected* faults (rolls that come
//! up positive), letting sweeps ask for "at most one fault per run".

/// Bits per TLC cell (three-level cell: 8 resistance states).
const TLC_BITS: u32 = 3;

/// SplitMix64 finalizer: the deterministic site-hash underlying every roll.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seed-driven fault-injection plan.
///
/// # Example
///
/// ```
/// use morlog_sim_core::fault::FaultPlan;
///
/// let mut a = FaultPlan::single_torn(7);
/// let mut b = FaultPlan::single_torn(7);
/// // Same seed, same sites: identical decisions.
/// for site in 0..100 {
///     assert_eq!(a.torn_prefix(site, 2), b.torn_prefix(site, 2));
/// }
/// assert!(a.injected() <= 1, "budget caps injection at one fault");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed from which every injection decision derives.
    pub seed: u64,
    /// Per-mille probability that a crash tears an in-flight log slot.
    pub torn_drain_per_mille: u32,
    /// Base per-cell, per-mille probability that a crash-time flush flips a
    /// bit of an in-flight word (escapes write-verify).
    pub crash_flip_per_mille: u32,
    /// Base per-cell, per-mille probability that a drained word is written
    /// corrupted (caught by write-verify).
    pub drain_flip_per_mille: u32,
    /// Writes a log slot endures before its cells stick (None = no wear-out).
    pub endurance_limit: Option<u32>,
    /// Maximum number of faults this plan may inject (None = unlimited).
    pub fault_budget: Option<u32>,
    injected: u32,
}

// Fault plans ride inside `System`s that sweep workers own and run on pool
// threads; the plan is plain owned data, audited thread-safe here.
#[allow(dead_code)]
fn _fault_plan_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FaultPlan>();
    check::<crate::SystemConfig>();
}

impl FaultPlan {
    /// A plan that injects nothing (the default for every existing test).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            torn_drain_per_mille: 0,
            crash_flip_per_mille: 0,
            drain_flip_per_mille: 0,
            endurance_limit: None,
            fault_budget: Some(0),
            injected: 0,
        }
    }

    /// At most one torn drain, site chosen by `seed`.
    pub fn single_torn(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_drain_per_mille: 350,
            crash_flip_per_mille: 0,
            drain_flip_per_mille: 0,
            endurance_limit: None,
            fault_budget: Some(1),
            injected: 0,
        }
    }

    /// At most one crash-time bit flip (escapes write-verify), site chosen
    /// by `seed`.
    pub fn single_crash_flip(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_drain_per_mille: 0,
            crash_flip_per_mille: 300,
            drain_flip_per_mille: 0,
            endurance_limit: None,
            fault_budget: Some(1),
            injected: 0,
        }
    }

    /// At most one drain-time corruption (caught and repaired by
    /// write-verify), site chosen by `seed`.
    pub fn single_drain_flip(seed: u64) -> Self {
        FaultPlan {
            seed,
            torn_drain_per_mille: 0,
            crash_flip_per_mille: 0,
            drain_flip_per_mille: 5,
            endurance_limit: None,
            fault_budget: Some(1),
            injected: 0,
        }
    }

    /// Wear-out plan: log slots stick after `limit` programs and must be
    /// remapped to spares.
    pub fn worn_slots(seed: u64, limit: u32) -> Self {
        FaultPlan {
            seed,
            torn_drain_per_mille: 0,
            crash_flip_per_mille: 0,
            drain_flip_per_mille: 0,
            endurance_limit: Some(limit),
            fault_budget: None,
            injected: 0,
        }
    }

    /// Everything at once: a torn drain, a crash flip, drain flips and
    /// early wear, capped at `budget` injected faults.
    pub fn storm(seed: u64, budget: u32) -> Self {
        FaultPlan {
            seed,
            torn_drain_per_mille: 350,
            crash_flip_per_mille: 300,
            drain_flip_per_mille: 5,
            endurance_limit: Some(48),
            fault_budget: Some(budget),
            injected: 0,
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        (self.torn_drain_per_mille > 0
            || self.crash_flip_per_mille > 0
            || self.drain_flip_per_mille > 0
            || self.endurance_limit.is_some())
            && self.fault_budget != Some(0)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u32 {
        self.injected
    }

    /// A short human-readable tag for sweep matrices.
    pub fn label(&self) -> String {
        if !self.is_active() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.torn_drain_per_mille > 0 {
            parts.push("torn".to_string());
        }
        if self.crash_flip_per_mille > 0 {
            parts.push("flip".to_string());
        }
        if self.drain_flip_per_mille > 0 {
            parts.push("drainflip".to_string());
        }
        if let Some(l) = self.endurance_limit {
            parts.push(format!("wear{l}"));
        }
        format!("{}#{}", parts.join("+"), self.seed)
    }

    fn budget_left(&self) -> bool {
        match self.fault_budget {
            Some(b) => self.injected < b,
            None => true,
        }
    }

    fn roll(&self, kind: u64, site: u64) -> u64 {
        mix(self.seed ^ kind.wrapping_mul(0xA24B_AED4_963E_E407) ^ mix(site))
    }

    /// Crash-time tear decision for an in-flight log slot with `data_words`
    /// data words following its (atomic) metadata header. Returns
    /// `Some(k)` — the number of data words that persisted (`k <
    /// data_words`) — when the slot tears, `None` when it persists whole.
    pub fn torn_prefix(&mut self, site: u64, data_words: usize) -> Option<usize> {
        if self.torn_drain_per_mille == 0 || data_words == 0 || !self.budget_left() {
            return None;
        }
        let h = self.roll(1, site);
        if h % 1000 >= self.torn_drain_per_mille as u64 {
            return None;
        }
        self.injected += 1;
        Some(((h >> 32) % data_words as u64) as usize)
    }

    /// Crash-time bit flip on an in-flight data word: returns the corrupted
    /// value if this site drifts, `None` otherwise. The per-cell rate is
    /// keyed to the TLC state being programmed (see module docs).
    pub fn crash_flip_word(&mut self, site: u64, word: u64) -> Option<u64> {
        self.flip_word(2, self.crash_flip_per_mille, site, word)
    }

    /// Drain-time bit flip on a word being programmed: returns the
    /// corrupted value the array would hold, for write-verify to catch.
    pub fn drain_flip_word(&mut self, site: u64, word: u64) -> Option<u64> {
        self.flip_word(3, self.drain_flip_per_mille, site, word)
    }

    fn flip_word(&mut self, kind: u64, per_mille: u32, site: u64, word: u64) -> Option<u64> {
        if per_mille == 0 || !self.budget_left() {
            return None;
        }
        let cells = (u64::BITS / TLC_BITS) as u64; // 21 whole cells per word
        for cell in 0..cells {
            let state = (word >> (cell * TLC_BITS as u64)) & 0b111;
            // Erased cells hold no charge to drift; high-resistance states
            // drift at twice the base rate.
            let weight = match state {
                0 => 0,
                1..=3 => 1,
                _ => 2,
            };
            if weight == 0 {
                continue;
            }
            let h = self.roll(kind, site.wrapping_mul(64) ^ cell);
            if h % 1000 < (per_mille * weight) as u64 {
                self.injected += 1;
                let bit = cell * TLC_BITS as u64 + (h >> 32) % TLC_BITS as u64;
                return Some(word ^ (1u64 << bit));
            }
        }
        None
    }

    /// Whether a log slot with `wear` lifetime programs has worn out
    /// (its cells stick and write-verify will fail until it is remapped).
    pub fn slot_is_stuck(&self, wear: u32) -> bool {
        matches!(self.endurance_limit, Some(limit) if wear >= limit)
    }
}

/// The fault families the crash checker composes with a crash point (the
/// exhaustive mode uses [`FaultVariantKind::Torn`], the fuzz mode draws
/// from all four).
///
/// Each variant derives a [`FaultPlan`] keyed to the crash point (see
/// [`FaultVariantKind::point_seed`]), so a crash item `(point, variant)`
/// is replayable from the fault seed alone — sharding and execution order
/// never change which fault lands where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultVariantKind {
    /// No fault plan: the crash alone.
    Base,
    /// One in-flight log slot loses a suffix of its data words in the ADR
    /// flush (tear forced; the roll picks *which* slot).
    Torn,
    /// One crash-time bit flip on an in-flight data word (escapes
    /// write-verify; recovery's CRC must catch it).
    CrashFlip,
    /// Early wear-out: log slots stick after a handful of programs, forcing
    /// write-verify retries and remaps before the crash.
    StuckAt,
}

impl FaultVariantKind {
    /// Every variant, in the order campaigns cycle through them.
    pub const ALL: [FaultVariantKind; 4] = [
        FaultVariantKind::Base,
        FaultVariantKind::Torn,
        FaultVariantKind::CrashFlip,
        FaultVariantKind::StuckAt,
    ];

    /// Stable label for reports and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            FaultVariantKind::Base => "base",
            FaultVariantKind::Torn => "torn",
            FaultVariantKind::CrashFlip => "flip",
            FaultVariantKind::StuckAt => "stuck",
        }
    }

    /// Dense index into [`FaultVariantKind::ALL`] (sort key for
    /// deterministic report ordering).
    pub fn index(&self) -> usize {
        match self {
            FaultVariantKind::Base => 0,
            FaultVariantKind::Torn => 1,
            FaultVariantKind::CrashFlip => 2,
            FaultVariantKind::StuckAt => 3,
        }
    }

    /// The point-keyed seed shared by every variant's plan, so a crash
    /// item `(point, variant)` replays the same faults in every checker
    /// mode and at every shard count.
    pub fn point_seed(fault_seed: u64, point: u64) -> u64 {
        fault_seed ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Builds this variant's fault plan for one crash point; `None` for
    /// [`FaultVariantKind::Base`].
    pub fn plan_for(&self, fault_seed: u64, point: u64) -> Option<FaultPlan> {
        let seed = Self::point_seed(fault_seed, point);
        match self {
            FaultVariantKind::Base => None,
            FaultVariantKind::Torn => {
                let mut plan = FaultPlan::single_torn(seed);
                // Tear unconditionally (budget still 1): the interesting
                // roll is *which* in-flight slot tears, not whether one does.
                plan.torn_drain_per_mille = 1000;
                Some(plan)
            }
            FaultVariantKind::CrashFlip => {
                let mut plan = FaultPlan::single_crash_flip(seed);
                // Flip eagerly for the same reason; per-cell TLC-state
                // weighting still decides the victim bit.
                plan.crash_flip_per_mille = 400;
                Some(plan)
            }
            FaultVariantKind::StuckAt => Some(FaultPlan::worn_slots(seed, 24)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let mut p = FaultPlan::none();
        assert!(!p.is_active());
        for site in 0..1000 {
            assert_eq!(p.torn_prefix(site, 2), None);
            assert_eq!(p.crash_flip_word(site, u64::MAX), None);
            assert_eq!(p.drain_flip_word(site, u64::MAX), None);
            assert!(!p.slot_is_stuck(u32::MAX));
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn rolls_are_deterministic_in_seed_and_site() {
        for seed in 0..20 {
            let mut a = FaultPlan::storm(seed, u32::MAX);
            let mut b = FaultPlan::storm(seed, u32::MAX);
            for site in 0..200 {
                assert_eq!(a.torn_prefix(site, 2), b.torn_prefix(site, 2));
                assert_eq!(
                    a.crash_flip_word(site, 0x5555),
                    b.crash_flip_word(site, 0x5555)
                );
            }
        }
    }

    #[test]
    fn different_seeds_pick_different_sites() {
        let site_of = |seed| {
            let mut p = FaultPlan::single_torn(seed);
            (0..10_000u64).find(|&s| p.torn_prefix(s, 2).is_some())
        };
        let first = site_of(1);
        assert!(first.is_some());
        assert!(
            (2..50).any(|seed| site_of(seed) != first),
            "seed must steer the site"
        );
    }

    #[test]
    fn budget_caps_injection() {
        let mut p = FaultPlan::single_torn(3);
        let mut hits = 0;
        for site in 0..10_000 {
            if p.torn_prefix(site, 2).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 1);
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn torn_prefix_is_a_strict_prefix() {
        let mut p = FaultPlan::storm(11, u32::MAX);
        for site in 0..2000 {
            if let Some(k) = p.torn_prefix(site, 2) {
                assert!(k < 2);
            }
        }
    }

    #[test]
    fn flips_change_exactly_one_bit_and_spare_erased_words() {
        let mut p = FaultPlan::storm(5, u32::MAX);
        for site in 0..2000 {
            assert_eq!(
                p.crash_flip_word(site, 0),
                None,
                "all-erased words never drift"
            );
            if let Some(flipped) = p.crash_flip_word(site, u64::MAX) {
                assert_eq!((flipped ^ u64::MAX).count_ones(), 1);
            }
        }
    }

    #[test]
    fn wear_out_threshold() {
        let p = FaultPlan::worn_slots(0, 100);
        assert!(!p.slot_is_stuck(99));
        assert!(p.slot_is_stuck(100));
        assert!(p.slot_is_stuck(101));
        assert!(p.is_active());
    }

    #[test]
    fn variant_plans_are_point_keyed() {
        for v in FaultVariantKind::ALL {
            let a = v.plan_for(42, 3);
            let b = v.plan_for(42, 4);
            match v {
                FaultVariantKind::Base => assert!(a.is_none() && b.is_none()),
                _ => {
                    let (a, b) = (a.unwrap(), b.unwrap());
                    assert!(a.is_active() && b.is_active());
                    assert_ne!(a.seed, b.seed, "{}", v.label());
                    if v == FaultVariantKind::Torn {
                        assert_eq!(a.fault_budget, Some(1), "exactly one slot tears");
                    }
                }
            }
        }
    }

    #[test]
    fn variant_indices_are_dense_and_labels_stable() {
        for (i, v) in FaultVariantKind::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        let labels: Vec<&str> = FaultVariantKind::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels, ["base", "torn", "flip", "stuck"]);
    }

    #[test]
    fn labels_describe_modes() {
        assert_eq!(FaultPlan::none().label(), "none");
        assert!(FaultPlan::single_torn(9).label().starts_with("torn#"));
        assert!(FaultPlan::worn_slots(2, 64).label().contains("wear64"));
        assert!(FaultPlan::storm(1, 4)
            .label()
            .contains("torn+flip+drainflip"));
    }
}
