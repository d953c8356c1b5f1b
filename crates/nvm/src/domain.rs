//! `SimDomain`: the simulator's NVMM fault model as a persist-domain
//! backend.
//!
//! This lets the fault injector and the crash/fuzz checkers drive the
//! *extracted* logging protocol (`morlog-log`'s byte engine) with the
//! exact device-fault model the cycle-level NVMM simulator uses.
//! `SimDomain` is `morlog-log`'s one persist domain, its [`Image`], with
//! a [`FaultHook`] at the drain barrier. The hook consults its
//! [`FaultPlan`] during **dying** drains only — the simulator's invariant
//! that write-verify repairs drain-time faults and only crash-time faults
//! escape into the array:
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
//! Fault sites are the image's monotonic faultable-range counter, so a
//! `(seed, power-cut budget)` pair replays the identical crash state every
//! time — the property the exhaustive and fuzz sweeps rely on.
//! `SimDomain::new(&cfg)` attaches [`FaultPlan::none`], which behaves as
//! the plain in-memory image; `SimDomain::with_backing(&cfg, FaultHook {
//! plan })` attaches a plan, and `backing().plan` reads its counters back.

use morlog_log::domain::DATA_REGION;
use morlog_log::image::{Backing, Image, PendingRange, RangeFault};
use morlog_log::record::{SLOT_HEADER, SLOT_TRAILER};
use morlog_sim_core::fault::FaultPlan;

/// A persist domain with the simulator's NVMM fault model attached.
pub type SimDomain = Image<FaultHook>;

/// The NVMM fault model as an [`Image`] drain hook.
#[derive(Debug, Clone)]
pub struct FaultHook {
    /// The plan consulted on dying drains; its injection counters tell
    /// tests whether a variant actually fired.
    pub plan: FaultPlan,
}

impl Default for FaultHook {
    /// A hook that injects nothing.
    fn default() -> Self {
        FaultHook {
            plan: FaultPlan::none(),
        }
    }
}

impl Backing for FaultHook {
    fn fault(&mut self, site: u64, range: &PendingRange, inflight: &[u8]) -> RangeFault {
        let mut fault = RangeFault::default();
        if range.region == DATA_REGION {
            return fault; // in-place data is out of fault scope
        }
        // Tear log slots: a prefix of the data words persists. Slot ranges
        // are 32/40/48 bytes (header + 0/1/2 data words + trailer); control
        // ranges carry no data words.
        if range.region > DATA_REGION && range.len >= SLOT_HEADER + SLOT_TRAILER {
            let data_words = ((range.len - SLOT_HEADER - SLOT_TRAILER) / 8) as usize;
            if let Some(k) = self.plan.torn_prefix(site, data_words) {
                fault.keep = Some(SLOT_HEADER + 8 * k as u64);
            }
        }
        // Crash-time bit flips on kept in-flight words, keyed to the TLC
        // states being programmed.
        for (w, word) in inflight.chunks_exact(8).enumerate() {
            let value = u64::from_le_bytes(word.try_into().unwrap());
            let word_site = site.wrapping_mul(1 << 20).wrapping_add(w as u64);
            if let Some(flipped) = self.plan.crash_flip_word(word_site, value) {
                fault.xor.push((w, value ^ flipped));
            }
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::engine::{Log, LogConfig};
    use morlog_log::PersistDomain;

    #[test]
    fn behaves_like_the_in_memory_image_without_a_plan() {
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
            log.domain_mut().arm_power_cut(budget);
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
            let mut log = Log::format(
                SimDomain::with_backing(&cfg, FaultHook { plan }),
                cfg.clone(),
            );
            // Commit one transaction cleanly, then cut power partway into
            // the next write's WAL drain — the dying drain then carries an
            // undo+redo slot (the only tearable range kind).
            log.write(0, 0, 2, 5).unwrap();
            log.commit(0, 0).unwrap();
            log.domain_mut().arm_power_cut(40);
            let _ = log.write(0, 1, 3, 6);
            let _ = log.commit(0, 1);
            let injected = log.domain().backing().plan.injected();
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
