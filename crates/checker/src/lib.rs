//! Crash-point model checker: exhaustive persist-order exploration with
//! equivalence pruning, plus coverage-guided random and differential
//! campaigns on the same core.
//!
//! MorLog's correctness argument rests on persist *ordering* — undo before
//! data (§III-A), coalesced redo before truncation (§III-B), and the DP
//! `ulog` counter deciding winners at recovery (§III-C). The sampled crash
//! testing in `crash_matrix` rolls seeded random crash cycles, so an
//! ordering bug that only bites at one specific persist boundary can
//! survive every run. This crate closes that gap by *enumerating* every
//! reachable crash state of a workload ([`check`]):
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
//! [`fuzz`](fn@fuzz) samples crash points instead of enumerating them, and
//! [`diff`] crashes two designs at matched progress and compares them.
//! All three share one reference run, one replay, one work item
//! `(point, FaultVariantKind)`, one [`Counterexample`] and one sharded
//! execution step (the private `campaign` module). Each takes a shard
//! count and fans its replays out through
//! [`ordered_map`](morlog_sim_core::par::ordered_map); results are
//! reassembled in item order and failures sorted by (point, variant), so
//! reports are byte-identical for any shard count — one shard runs
//! serially and is the reference.
//!
//! The checker proves it has teeth via
//! [`CheckMutation`](morlog_sim_core::CheckMutation): deliberately
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
//! let report = check(&cfg, &trace, &CheckOptions::default(), 1);
//! assert_eq!(report.stats.failures, 0);
//! assert!(report.counterexample.is_none());
//! ```

#![deny(missing_docs)]

mod campaign;
pub mod coverage;
pub mod differential;
pub mod fuzz;
pub mod reduce;

pub use campaign::{Counterexample, Outcome};
pub use coverage::CoverageMap;
pub use differential::{diff, DiffCulprit, DiffDivergence, DiffOutcome, DiffReport};
pub use fuzz::{fuzz, FuzzOptions, FuzzReport};

use campaign::{run_items, Reference};
use morlog_sim::System;
use morlog_sim_core::{Addr, CheckStats, FaultVariantKind, SystemConfig};
use morlog_workloads::{Op, ThreadTrace, Transaction, WorkloadTrace};
use std::collections::HashSet;

/// Tuning knobs for one checker invocation.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Cap on explored crash points (`None` = exhaustive). Points dropped
    /// by the cap are counted in [`CheckStats::capped`] — a capped report
    /// is *not* an exhaustiveness proof.
    pub max_points: Option<u64>,
    /// Also replay every crash point under [`FaultVariantKind::Torn`]:
    /// the in-flight log slot at the crash loses a suffix of its data
    /// words, exercising hardened recovery at every enumerated boundary.
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

/// Aggregated verdict of a checker invocation.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Exploration counters (see [`CheckStats`]).
    pub stats: CheckStats,
    /// Every failing replay, ordered by (point, variant).
    pub failures: Vec<Outcome>,
    /// The minimized counterexample, when any replay failed.
    pub counterexample: Option<Counterexample>,
}

/// The reference schedule reduced to the set of inequivalent crash points.
struct CheckPlan {
    reference: Reference,
    /// Crash points to explore, ascending (`n` = crash after the `n`th
    /// persist event; `0` = nothing persisted).
    points: Vec<u64>,
    /// Plan-side counters: `events`, `points_total`, `pruned`, `capped`.
    stats: CheckStats,
}

/// Records the reference schedule and prunes equivalent crash points:
/// silent ones ([`Reference::silent`]) and, with [`CheckOptions::reduce`],
/// recovery-pinned ones.
fn plan(cfg: &SystemConfig, trace: &WorkloadTrace, opts: &CheckOptions) -> CheckPlan {
    let por = opts.reduce && !opts.fault_variant;
    let reference = Reference::record(cfg, trace, por);
    let events = reference.events();
    let pinned = if por {
        reduce::recovery_pinned_points(&reference.meta)
    } else {
        HashSet::new()
    };
    let mut points: Vec<u64> = (0..=events)
        .filter(|&n| !reference.silent(n) && !pinned.contains(&n))
        .collect();
    let pruned = events + 1 - points.len() as u64;
    let max = opts
        .max_points
        .map_or(usize::MAX, |m| usize::try_from(m).unwrap_or(usize::MAX));
    let capped = points.len().saturating_sub(max) as u64;
    points.truncate(max);
    let stats = CheckStats {
        events,
        points_total: events + 1,
        pruned,
        capped,
        ..CheckStats::default()
    };
    CheckPlan {
        reference,
        points,
        stats,
    }
}

/// Explores every inequivalent crash point of `trace` under `cfg` (plus
/// its torn variant with [`CheckOptions::fault_variant`]), replaying them
/// across `shards` workers; one shard runs serially on the calling thread
/// and every shard count yields the same report.
pub fn check(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    opts: &CheckOptions,
    shards: usize,
) -> CheckReport {
    let p = plan(cfg, trace, opts);
    let variants: &[FaultVariantKind] = if opts.fault_variant {
        &[FaultVariantKind::Base, FaultVariantKind::Torn]
    } else {
        &[FaultVariantKind::Base]
    };
    let items: Vec<_> = p
        .points
        .iter()
        .flat_map(|&n| variants.iter().map(move |&v| (n, v)))
        .collect();
    let (failures, counterexample) =
        run_items(cfg, trace, &items, opts.fault_seed, &p.reference, shards);
    let mut stats = p.stats;
    stats.explored = items.len() as u64;
    stats.failures = failures.len() as u64;
    stats.verified = stats.explored - stats.failures;
    CheckReport {
        stats,
        failures,
        counterexample,
    }
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
}
