//! `SimDomain`: the simulator-side [`PersistDomain`] backend.
//!
//! This adapter lets the fault injector and the crash/fuzz checkers drive
//! the *extracted* logging protocol (`morlog-log`'s byte engine) with the
//! exact device-fault model the cycle-level NVMM simulator uses. It wraps
//! `morlog-log`'s volatile/durable [`Image`] and, when a [`FaultPlan`] is
//! attached, consults it during **dying** drains only — the simulator's
//! invariant that write-verify repairs drain-time faults and only
//! crash-time faults escape into the array:
//!
//! * log-slice slot ranges can be *torn* ([`FaultPlan::torn_prefix`]): a
//!   prefix of the slot's data words persists, the rest — including the
//!   CRC seal and trailer — is dropped;
//! * kept words of log and control ranges can suffer crash-time bit flips
//!   ([`FaultPlan::crash_flip_word`]), keyed to the TLC state of the
//!   in-flight value;
//! * the in-place data region is never faulted in flight, matching the
//!   simulator's gating (its protection is the logging protocol itself,
//!   which the checkers verify on top of this domain).
//!
//! Fault sites are the image's monotonic flushed-range counter, so a
//! `(seed, power-cut budget)` pair replays the identical crash state every
//! time — the property the exhaustive and fuzz sweeps rely on.

use morlog_log::domain::{PersistDomain, RegionId, DATA_REGION};
use morlog_log::engine::LogConfig;
use morlog_log::image::{Image, RangeFault};
use morlog_log::record::{SLOT_HEADER, SLOT_TRAILER};
use morlog_sim_core::fault::FaultPlan;

/// A persist domain with the simulator's NVMM fault model attached.
#[derive(Debug, Clone)]
pub struct SimDomain {
    image: Image,
    plan: Option<FaultPlan>,
}

impl SimDomain {
    /// Creates a fault-free domain sized for `cfg`'s geometry.
    pub fn new(cfg: &LogConfig) -> Self {
        SimDomain {
            image: Image::new(&cfg.region_lens()),
            plan: None,
        }
    }

    /// Creates a domain that consults `plan` during dying drains.
    pub fn with_fault_plan(cfg: &LogConfig, plan: FaultPlan) -> Self {
        SimDomain {
            image: Image::new(&cfg.region_lens()),
            plan: Some(plan),
        }
    }

    /// Attaches (or replaces) the fault plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// The attached fault plan, if any (its injection counters tell tests
    /// whether a variant actually fired).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Arms a power cut: the domain dies after `budget` more bytes reach
    /// durability. The crash-point sweeps enumerate every budget in
    /// `0..=durable_bytes()` of a clean run.
    pub fn arm_power_cut(&mut self, budget: u64) {
        self.image.arm_power_cut(budget);
    }

    /// Whether an armed power cut has fired.
    pub fn is_dead(&self) -> bool {
        self.image.is_dead()
    }

    /// Total bytes flushed to durability so far — the coordinate space for
    /// exhaustive power-cut sweeps.
    pub fn durable_bytes(&self) -> u64 {
        self.image.durable_bytes()
    }
}

impl PersistDomain for SimDomain {
    fn region_len(&self, region: RegionId) -> u64 {
        self.image.region_len(region)
    }

    fn write(&mut self, region: RegionId, off: u64, bytes: &[u8]) {
        self.image.write(region, off, bytes);
    }

    fn read(&self, region: RegionId, off: u64, buf: &mut [u8]) {
        self.image.read(region, off, buf);
    }

    fn persist(&mut self, region: RegionId, off: u64, len: u64) {
        self.image.persist(region, off, len);
    }

    fn drain(&mut self) -> bool {
        let Some(plan) = self.plan.as_mut() else {
            return self.image.drain().alive;
        };
        // Snapshot the in-flight (volatile) regions so the fault hook can
        // key bit-flip probabilities to the TLC states being programmed.
        let snapshot: Vec<Vec<u8>> = (0..self.image.region_count())
            .map(|r| self.image.volatile(r as RegionId).to_vec())
            .collect();
        self.image
            .drain_with(|site, range, _| {
                let mut fault = RangeFault::default();
                if range.region == DATA_REGION {
                    return fault; // in-place data is out of fault scope
                }
                // Tear log slots: a prefix of the data words persists.
                // Slot ranges are 32/40/48 bytes (header + 0/1/2 data
                // words + trailer); control ranges carry no data words.
                if range.region > DATA_REGION && range.len >= SLOT_HEADER + SLOT_TRAILER {
                    let data_words = ((range.len - SLOT_HEADER - SLOT_TRAILER) / 8) as usize;
                    if let Some(k) = plan.torn_prefix(site, data_words) {
                        fault.keep = Some(SLOT_HEADER + 8 * k as u64);
                    }
                }
                // Crash-time bit flips on kept in-flight words.
                let vol = &snapshot[range.region as usize];
                let words = (range.len / 8) as usize;
                for w in 0..words {
                    let at = (range.off as usize) + 8 * w;
                    let value = u64::from_le_bytes(vol[at..at + 8].try_into().unwrap());
                    let word_site = site.wrapping_mul(1 << 20).wrapping_add(w as u64);
                    if let Some(flipped) = plan.crash_flip_word(word_site, value) {
                        fault.xor.push((w, value ^ flipped));
                    }
                }
                fault
            })
            .alive
    }

    fn restart(&mut self) {
        self.image.restart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::engine::{Log, LogConfig};

    #[test]
    fn behaves_like_mem_domain_without_a_plan() {
        let cfg = LogConfig::small();
        let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
        log.write(0, 0, 4, 0xDEAD).unwrap();
        log.commit(0, 0).unwrap();
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.committed.len(), 1);
        assert_eq!(log.read_word(4), 0xDEAD);
    }

    #[test]
    fn power_cut_sweep_is_deterministic() {
        let cfg = LogConfig::small();
        // Reference run to learn the total drained bytes.
        let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
        log.write(0, 0, 1, 10).unwrap();
        log.commit(0, 0).unwrap();
        let total = log.domain().durable_bytes();
        assert!(total > 0);
        // Same budget twice: identical durable state after recovery.
        let run = |budget: u64| {
            let mut log = Log::format(SimDomain::new(&cfg), cfg.clone());
            let already = log.domain().durable_bytes();
            log.domain_mut().arm_power_cut(budget + already);
            let _ = log.write(0, 0, 1, 10);
            let _ = log.commit(0, 0);
            log.domain_mut().restart();
            log.recover().unwrap();
            (log.read_word(1), log.domain().is_dead())
        };
        for budget in 0..=total {
            assert_eq!(
                run(budget),
                run(budget),
                "budget {budget} not deterministic"
            );
        }
    }

    #[test]
    fn torn_fault_plan_tears_a_dying_slot() {
        let cfg = LogConfig::small();
        // A plan that always tears; arm a cut so the drain is dying.
        let mut hit = false;
        for seed in 0..50u64 {
            let plan = FaultPlan::single_torn(seed);
            let mut log = Log::format(SimDomain::with_fault_plan(&cfg, plan), cfg.clone());
            // Commit one transaction cleanly, then cut power partway into
            // the next write's WAL drain — the dying drain then carries an
            // undo+redo slot (the only tearable range kind).
            log.write(0, 0, 2, 5).unwrap();
            log.commit(0, 0).unwrap();
            log.domain_mut().arm_power_cut(40);
            let _ = log.write(0, 1, 3, 6);
            let _ = log.commit(0, 1);
            let injected = log.domain().fault_plan().map_or(0, |p| p.injected());
            log.domain_mut().restart();
            let outcome = log.recover().unwrap();
            if injected > 0 {
                hit = true;
                assert!(outcome.torn_records + outcome.corrupt_records > 0);
            }
            // Atomicity oracle regardless of faults: word 2 is 5 iff tx0
            // won, else 0; never a mixed value.
            assert!(log.read_word(2) == 5 || log.read_word(2) == 0);
            assert!(log.read_word(3) == 6 || log.read_word(3) == 0);
        }
        assert!(hit, "no seed ever injected a tear");
    }
}
