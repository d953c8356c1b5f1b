//! Crash-point model checker: exhaustive persist-order exploration with
//! equivalence pruning.
//!
//! MorLog's correctness argument rests on persist *ordering* — undo before
//! data (§III-A), coalesced redo before truncation (§III-B), and the DP
//! `ulog` counter deciding winners at recovery (§III-C). The sampled crash
//! testing in `crash_matrix` rolls seeded random crash cycles, so an
//! ordering bug that only bites at one specific persist boundary can
//! survive every run. This crate closes that gap by *enumerating* every
//! reachable crash state of a workload:
//!
//! 1. **Reference run** — execute the workload once with persist-domain
//!    hash sampling enabled, recording the total persist-event count `N`
//!    (every NVMM program acceptance; see
//!    `MemoryController::persist_events`).
//! 2. **Equivalence pruning** — crash point `n` (power loss exactly after
//!    the `n`th event) is skipped when event `n` did not change the
//!    persist-domain fold: the crash state is identical to point `n - 1`,
//!    so re-verifying it proves nothing. Silent rewrites of identical data
//!    are the common case pruned here.
//! 3. **Replay** — for every surviving point, re-run the workload from
//!    scratch, freeze the controller after exactly `n` events
//!    ([`System::arm_crash_at`]), crash, run hardened recovery, and check
//!    atomic persistence against the oracle.
//! 4. **Counterexample minimization** — because the exploration covers
//!    *all* inequivalent prefixes, the smallest failing point is the
//!    minimal counterexample by construction. It is re-run with tracing
//!    enabled to produce a JSONL trace consumable by `trace2perfetto`.
//!
//! Replays are independent, so the `bench` harness shards them across the
//! `SweepRunner` pool and reassembles with [`assemble`]; results are in
//! point order regardless of shard count, keeping reports byte-identical
//! across `MORLOG_CHECK_SHARDS` settings.
//!
//! The checker proves it has teeth via [`CheckMutation`]: deliberately
//! sabotaged variants (drop the undo→data write-ahead fence; skip the DP
//! `ulog` bump) must yield counterexamples while every real design passes.
//!
//! # Example
//!
//! ```
//! use morlog_checker::{check, double_store_trace, CheckOptions};
//! use morlog_sim_core::{DesignKind, SystemConfig};
//!
//! let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
//! let trace = double_store_trace(&cfg, 2);
//! let report = check(&cfg, &trace, &CheckOptions::default());
//! assert_eq!(report.stats.failures, 0);
//! assert!(report.counterexample.is_none());
//! ```

#![deny(missing_docs)]

pub mod coverage;
pub mod differential;
pub mod fuzz;
pub mod reduce;

pub use coverage::CoverageMap;
pub use differential::{diff, DiffCulprit, DiffDivergence, DiffOutcome, DiffReport};
pub use fuzz::{fuzz, FuzzCounterexample, FuzzItem, FuzzOptions, FuzzOutcome, FuzzReport};

use morlog_sim::System;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::{Addr, CheckStats, FaultPlan, FaultVariantKind, SystemConfig};
use morlog_workloads::{Op, ThreadTrace, Transaction, WorkloadTrace};
use std::collections::HashSet;

/// Tuning knobs for one checker invocation.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Cap on explored crash points (`None` = exhaustive). Points dropped
    /// by the cap are counted in [`CheckStats::capped`] — a capped report
    /// is *not* an exhaustiveness proof.
    pub max_points: Option<u64>,
    /// Also replay every crash point under a torn-drain fault plan
    /// ([`torn_plan_for`]): the in-flight log slot at the crash loses a
    /// suffix of its data words, exercising hardened recovery at every
    /// enumerated boundary.
    pub fault_variant: bool,
    /// Base seed for the per-point fault plans (site-keyed rolls stay
    /// deterministic per point regardless of sharding).
    pub fault_seed: u64,
    /// Partial-order reduction: additionally prune crash points whose
    /// recovery outcome is pinned to their predecessor's — in-place data
    /// writes fully covered by live undo+redo records (see
    /// [`reduce::recovery_pinned_points`]). Only honored when
    /// `fault_variant` is off: a torn covering record makes recovery skip
    /// the word, so the in-place value becomes observable and the
    /// equivalence breaks.
    pub reduce: bool,
}

/// The reference run's persist-event schedule, reduced to the set of
/// inequivalent crash points.
#[derive(Debug, Clone)]
pub struct CheckPlan {
    /// Crash points to explore, ascending (`n` = crash after the `n`th
    /// persist event; `0` = nothing persisted).
    pub points: Vec<u64>,
    /// The reference run's persist-domain hash samples (`samples[i]` =
    /// fold right after event `i + 1`) — the persist-state signature of
    /// each crash point, used downstream to deduplicate counterexamples.
    pub samples: Vec<u64>,
    /// Plan-side counters: `events`, `points_total`, `pruned`, `capped`
    /// are filled here; the replay-side counters stay zero until
    /// [`assemble`].
    pub stats: CheckStats,
}

/// Verdict of replaying one crash point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// Persist events completed before the crash.
    pub point: u64,
    /// Whether this replay ran the torn-drain fault variant.
    pub torn_variant: bool,
    /// The oracle's description of the violation, if any.
    pub error: Option<String>,
}

/// The smallest failing crash point plus its replayable evidence.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Persist events completed before the failing crash.
    pub point: u64,
    /// Whether the failure needed the torn-drain fault variant.
    pub torn_variant: bool,
    /// The oracle's description of the violation.
    pub error: String,
    /// JSONL event trace of the failing replay (crash and recovery
    /// included), consumable by `trace_lint` and `trace2perfetto`.
    pub trace_jsonl: String,
}

/// Aggregated verdict of a checker invocation.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Exploration counters (see [`CheckStats`]).
    pub stats: CheckStats,
    /// Every failing replay, ordered by (point, variant).
    pub failures: Vec<PointOutcome>,
    /// The minimized counterexample, when any replay failed.
    pub counterexample: Option<Counterexample>,
}

/// Records the reference schedule and prunes equivalent crash points.
///
/// Point `n` (for `n >= 2`) is pruned when the persist-domain hash after
/// event `n` equals the hash after event `n - 1` — the crash state is
/// bit-identical to the previous point's, so its verdict is too. Points
/// `0` and `1` are always kept (there is no earlier sample to compare
/// against, and a zero-delta fold at `n = 1` could also be a baseline
/// coincidence).
pub fn plan(cfg: &SystemConfig, trace: &WorkloadTrace, opts: &CheckOptions) -> CheckPlan {
    let mut sys = System::new(cfg.clone(), trace);
    sys.enable_persist_hash();
    let por = opts.reduce && !opts.fault_variant;
    if por {
        sys.enable_persist_meta();
    }
    sys.run();
    let samples = sys.persist_hash_samples();
    let events = samples.len() as u64;
    let pinned = if por {
        reduce::recovery_pinned_points(sys.persist_event_meta())
    } else {
        HashSet::new()
    };
    let mut points = Vec::new();
    let mut pruned = 0u64;
    for n in 0..=events {
        let silent = n >= 2 && samples[n as usize - 1] == samples[n as usize - 2];
        if silent || pinned.contains(&n) {
            pruned += 1;
        } else {
            points.push(n);
        }
    }
    let mut capped = 0u64;
    if let Some(max) = opts.max_points {
        let max = usize::try_from(max).unwrap_or(usize::MAX);
        if points.len() > max {
            capped = (points.len() - max) as u64;
            points.truncate(max);
        }
    }
    let stats = CheckStats {
        events,
        points_total: events + 1,
        pruned,
        capped,
        ..CheckStats::default()
    };
    let samples = samples.to_vec();
    CheckPlan {
        points,
        samples,
        stats,
    }
}

/// The torn-drain fault plan used for crash point `point` when
/// [`CheckOptions::fault_variant`] is on: exactly one in-flight log slot
/// (the site-keyed roll picks which) loses a suffix of its data words in
/// the ADR flush.
pub fn torn_plan_for(fault_seed: u64, point: u64) -> FaultPlan {
    FaultVariantKind::Torn
        .plan_for(fault_seed, point)
        .expect("the torn variant always composes a plan")
}

/// Replays one crash point: run to the freeze, crash, recover, verify.
///
/// With a fault plan installed the controller's write-ahead gating changes
/// the schedule, so the armed point may lie beyond that replay's total
/// events — the run then completes and crashes post-quiesce, which is
/// still a legal (if boring) crash state.
pub fn run_point(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    point: u64,
    fault: Option<FaultPlan>,
) -> PointOutcome {
    let _prof = hostprof::scope(HostPhase::CheckerReplay);
    let torn_variant = fault.is_some();
    let mut sys = System::new(cfg.clone(), trace);
    if let Some(plan) = fault {
        sys.set_fault_plan(plan);
    }
    sys.arm_crash_at(point);
    sys.run_until_crash_point();
    sys.crash();
    let report = sys.recover();
    let error = sys.verify_recovery(&report).err();
    PointOutcome {
        point,
        torn_variant,
        error,
    }
}

/// Merges replay outcomes into the final report, deterministically: the
/// outcome list is sorted by (point, variant) so any shard interleaving
/// produces the same report, and the minimized counterexample (smallest
/// failing point, base variant preferred) is re-run with tracing enabled
/// to capture its JSONL evidence.
pub fn assemble(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    opts: &CheckOptions,
    plan: &CheckPlan,
    outcomes: Vec<PointOutcome>,
) -> CheckReport {
    let mut stats = plan.stats;
    stats.explored = outcomes.len() as u64;
    let mut failures: Vec<PointOutcome> =
        outcomes.into_iter().filter(|o| o.error.is_some()).collect();
    failures.sort_by_key(|o| (o.point, o.torn_variant));
    stats.failures = failures.len() as u64;
    stats.verified = stats.explored - stats.failures;
    let counterexample = failures.first().map(|f| {
        let mut traced = cfg.clone();
        traced.trace.enabled = true;
        traced.trace.buffer_capacity = 1 << 20;
        let fault = f
            .torn_variant
            .then(|| torn_plan_for(opts.fault_seed, f.point));
        let mut sys = System::new(traced, trace);
        if let Some(plan) = fault {
            sys.set_fault_plan(plan);
        }
        sys.arm_crash_at(f.point);
        sys.run_until_crash_point();
        sys.crash();
        let report = sys.recover();
        let error = sys
            .verify_recovery(&report)
            .err()
            .unwrap_or_else(|| "violation did not reproduce under tracing".to_string());
        Counterexample {
            point: f.point,
            torn_variant: f.torn_variant,
            error,
            trace_jsonl: sys.tracer().to_jsonl(),
        }
    });
    CheckReport {
        stats,
        failures,
        counterexample,
    }
}

/// Plans and replays every crash point on the calling thread. The `bench`
/// harness shards the replay loop instead; this serial driver is the
/// reference the sharded path must match byte-for-byte.
pub fn check(cfg: &SystemConfig, trace: &WorkloadTrace, opts: &CheckOptions) -> CheckReport {
    let p = plan(cfg, trace, opts);
    let mut outcomes = Vec::with_capacity(p.points.len() * (1 + opts.fault_variant as usize));
    for &n in &p.points {
        outcomes.push(run_point(cfg, trace, n, None));
        if opts.fault_variant {
            outcomes.push(run_point(
                cfg,
                trace,
                n,
                Some(torn_plan_for(opts.fault_seed, n)),
            ));
        }
    }
    assemble(cfg, trace, opts, &p, outcomes)
}

/// A crafted workload for the mutation self-test: two threads, each
/// transaction storing *twice* to each of two words, with enough compute
/// between the store pairs for the first pair's undo+redo records to
/// persist (eager eviction takes 32 cycles). The second store then drives
/// each word through `URLog → ULog` (§III-B), giving delay-persistence
/// transactions a non-zero `ulog` count.
///
/// Every transaction writes its *own* cache line (rotating through
/// `txs_per_thread` lines per thread). This matters for the checker's
/// teeth: if consecutive transactions re-wrote the same words, a data
/// line leaked ahead of its undo records would still be healed at
/// recovery by replaying the *previous* committed transaction's redo
/// records — the crash state is consistent by accident and the dropped
/// fence stays invisible. A fresh line per transaction leaves leaked
/// words with no surviving log coverage, so the violation is observable.
pub fn double_store_trace(cfg: &SystemConfig, txs_per_thread: usize) -> WorkloadTrace {
    let base = System::data_base(cfg).as_u64();
    let threads = (0..2u64)
        .map(|t| {
            let line = |k: u64| base + (t * txs_per_thread as u64 + k) * 64;
            let transactions = (0..txs_per_thread as u64)
                .map(|k| {
                    let w0 = Addr::new(line(k));
                    let w1 = Addr::new(line(k) + 8);
                    Transaction {
                        ops: vec![
                            Op::Store(w0, 1 + t * 1_000_000 + k * 100),
                            Op::Store(w1, 2 + t * 1_000_000 + k * 100),
                            Op::Compute(48),
                            Op::Store(w0, 3 + t * 1_000_000 + k * 100),
                            Op::Store(w1, 4 + t * 1_000_000 + k * 100),
                            Op::Compute(17),
                        ],
                    }
                })
                .collect();
            let initial = (0..txs_per_thread as u64)
                .flat_map(|k| {
                    [
                        (Addr::new(line(k)), 900 + t),
                        (Addr::new(line(k) + 8), 950 + t),
                    ]
                })
                .collect();
            ThreadTrace {
                transactions,
                initial,
            }
        })
        .collect();
    WorkloadTrace {
        name: "double-store".to_string(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::DesignKind;

    #[test]
    fn pruning_skips_silent_points_and_cap_records_drops() {
        let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
        let trace = double_store_trace(&cfg, 2);
        let p = plan(&cfg, &trace, &CheckOptions::default());
        assert_eq!(p.stats.points_total, p.stats.events + 1);
        assert_eq!(p.points.len() as u64 + p.stats.pruned, p.stats.points_total);
        assert!(p.points.windows(2).all(|w| w[0] < w[1]), "ascending");
        // Cap to 3 points: the remainder must be accounted, not silently
        // dropped.
        let capped = plan(
            &cfg,
            &trace,
            &CheckOptions {
                max_points: Some(3),
                ..CheckOptions::default()
            },
        );
        assert_eq!(capped.points.len(), 3);
        assert_eq!(capped.stats.capped, p.points.len() as u64 - 3);
    }

    #[test]
    fn torn_plan_is_point_keyed_and_active() {
        let a = torn_plan_for(42, 3);
        let b = torn_plan_for(42, 4);
        assert!(a.is_active() && b.is_active());
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.fault_budget, Some(1));
    }
}
