//! The crash-campaign core every checker mode runs on.
//!
//! The exhaustive ([`crate::check`]), coverage-guided
//! ([`fuzz`](fn@crate::fuzz)) and differential ([`crate::diff`]) modes
//! differ only in *which* crash points they visit. Everything else is
//! shared and lives here:
//!
//! - one [`Reference`] run per design, recording the persist-domain hash
//!   samples (the pruning signal and the counterexample signature) and,
//!   when asked, the persist-event metadata stream;
//! - one [`replay`]: fresh `System` → point-keyed fault plan → freeze
//!   after the crash point's persist event → crash → hardened recovery →
//!   oracle, optionally with the event tracer on;
//! - one work item `(point, FaultVariantKind)`, one [`Outcome`] and one
//!   [`Counterexample`];
//! - one sharded execution step ([`run_items`]) that fans the replays out
//!   through [`ordered_map`], sorts failures by `(point, variant)` and
//!   re-traces the smallest into the counterexample. With one shard it
//!   runs serially on the calling thread — the reference every other
//!   shard count must match byte for byte.

use morlog_log::RecoveryOutcome;
use morlog_sim::System;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::par::ordered_map;
use morlog_sim_core::{FaultVariantKind, PersistEventMeta, SystemConfig};
use morlog_workloads::WorkloadTrace;

/// One campaign work item: the crash point (persist events completed
/// before the crash) and the fault variant composed with it.
pub(crate) type CrashItem = (u64, FaultVariantKind);

/// Verdict of replaying one crash item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Persist events completed before the crash.
    pub point: u64,
    /// Fault variant composed at this point.
    pub variant: FaultVariantKind,
    /// The oracle's description of the violation, if any.
    pub error: Option<String>,
}

/// The smallest failing crash item plus its replayable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Persist events completed before the failing crash.
    pub point: u64,
    /// Fault variant the failure needed.
    pub variant: FaultVariantKind,
    /// The oracle's description of the violation.
    pub error: String,
    /// Persist-domain signature of the crash state: the reference run's
    /// hash sample right after the point's last event (`0` for point 0).
    /// The counterexample sink deduplicates on it.
    pub signature: u64,
    /// JSONL event trace of the failing replay (crash and recovery
    /// included), consumable by `trace_lint` and `trace2perfetto`.
    pub trace_jsonl: String,
}

/// A design's uncrashed reference run: its persist-event schedule.
pub(crate) struct Reference {
    /// `samples[i]` = persist-domain hash fold right after event `i + 1`.
    samples: Vec<u64>,
    /// The persist-event metadata stream (empty unless requested).
    pub(crate) meta: Vec<PersistEventMeta>,
}

impl Reference {
    /// Runs the workload once with hash sampling (and, when `meta` is set,
    /// metadata recording) enabled.
    pub(crate) fn record(cfg: &SystemConfig, trace: &WorkloadTrace, meta: bool) -> Reference {
        let mut sys = System::new(cfg.clone(), trace);
        sys.enable_persist_hash();
        if meta {
            sys.enable_persist_meta();
        }
        sys.run();
        Reference {
            samples: sys.persist_hash_samples().to_vec(),
            meta: sys.persist_event_meta().to_vec(),
        }
    }

    /// Persist events in the schedule (crash points are `0..=events`).
    pub(crate) fn events(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Whether crash point `point` is hash-equivalent to `point - 1`:
    /// event `point` left the persist domain bit-identical, so a crash
    /// there proves nothing new. Points 0 and 1 are never silent (there is
    /// no earlier sample to compare, and a zero-delta fold at 1 could be a
    /// baseline coincidence).
    pub(crate) fn silent(&self, point: u64) -> bool {
        point >= 2 && self.samples[point as usize - 1] == self.samples[point as usize - 2]
    }

    /// The persist-domain signature of crash point `point`: the hash
    /// sample right after its last event (`0` for point 0, the empty
    /// persist domain, and for points past the schedule).
    pub(crate) fn signature(&self, point: u64) -> u64 {
        point
            .checked_sub(1)
            .and_then(|i| self.samples.get(i as usize))
            .copied()
            .unwrap_or(0)
    }
}

/// A finished replay: the crashed-and-recovered system and its verdict.
pub(crate) struct Replay {
    pub(crate) sys: System,
    /// The oracle's description of the violation, if any.
    pub(crate) error: Option<String>,
    /// What recovery rolled forward and back.
    pub(crate) outcome: RecoveryOutcome,
}

/// Replays one crash item from cycle zero: install the variant's
/// point-keyed fault plan, freeze after the `point`th persist event,
/// crash, recover, verify. `traced` turns the event tracer on for
/// counterexample evidence.
///
/// With a fault plan installed the controller's write-ahead gating changes
/// the schedule, so the armed point may lie beyond that replay's total
/// events — the run then completes and crashes post-quiesce, which is
/// still a legal (if boring) crash state.
pub(crate) fn replay(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    (point, variant): CrashItem,
    fault_seed: u64,
    traced: bool,
) -> Replay {
    let _prof = hostprof::scope(HostPhase::CheckerReplay);
    let mut cfg = cfg.clone();
    if traced {
        cfg.trace.enabled = true;
        cfg.trace.buffer_capacity = 1 << 20;
    }
    let mut sys = System::new(cfg, trace);
    if let Some(plan) = variant.plan_for(fault_seed, point) {
        sys.set_fault_plan(plan);
    }
    sys.arm_crash_at(point);
    sys.run_until_crash_point();
    sys.crash();
    let outcome = sys.recover();
    let error = sys.verify_recovery(&outcome).err();
    Replay {
        sys,
        error,
        outcome,
    }
}

/// Re-runs `item` with tracing on and packages its evidence.
pub(crate) fn counterexample(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    item: CrashItem,
    fault_seed: u64,
    reference: &Reference,
) -> Counterexample {
    let traced = replay(cfg, trace, item, fault_seed, true);
    Counterexample {
        point: item.0,
        variant: item.1,
        error: traced
            .error
            .unwrap_or_else(|| "violation did not reproduce under tracing".to_string()),
        signature: reference.signature(item.0),
        trace_jsonl: traced.sys.tracer().to_jsonl(),
    }
}

/// Replays every item across `shards` workers and assembles the verdict
/// deterministically: the failures, sorted by `(point, variant)`, and the
/// smallest one (mildest variant first) re-traced into the
/// counterexample.
pub(crate) fn run_items(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    items: &[CrashItem],
    fault_seed: u64,
    reference: &Reference,
    shards: usize,
) -> (Vec<Outcome>, Option<Counterexample>) {
    let outcomes = ordered_map(shards, items, |&(point, variant)| Outcome {
        point,
        variant,
        error: replay(cfg, trace, (point, variant), fault_seed, false).error,
    });
    let mut failures: Vec<Outcome> = outcomes.into_iter().filter(|o| o.error.is_some()).collect();
    failures.sort_by_key(|o| (o.point, o.variant.index()));
    let cx = failures
        .first()
        .map(|f| counterexample(cfg, trace, (f.point, f.variant), fault_seed, reference));
    (failures, cx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_indexes_hash_samples() {
        let r = Reference {
            samples: vec![11, 22, 33],
            meta: Vec::new(),
        };
        assert_eq!(r.signature(0), 0);
        assert_eq!(r.signature(1), 11);
        assert_eq!(r.signature(3), 33);
        assert_eq!(r.signature(9), 0, "out of range is benign");
    }

    #[test]
    fn silent_points_repeat_the_previous_sample() {
        let r = Reference {
            samples: vec![5, 5, 7, 7],
            meta: Vec::new(),
        };
        let silent: Vec<u64> = (0..=r.events()).filter(|&p| r.silent(p)).collect();
        assert_eq!(silent, vec![2, 4], "points 0 and 1 are always kept");
    }
}
