//! Coverage-guided random crash campaigns.
//!
//! Exhaustive exploration ([`crate::check`]) is the gold standard but its
//! cost is linear in persist events, which caps it at toy workloads. The
//! fuzzer trades exhaustiveness for scale: on a workload with thousands of
//! transactions it *samples* crash points with a seeded generator, prunes
//! samples the persist-domain hash proves redundant, composes a fault
//! variant (torn drain, crash-time bit flip, stuck-at wear) for a slice of
//! the samples, and feeds a [`CoverageMap`] with the (event kind, progress
//! decile) bucket of every executed point. A sample lighting a previously
//! empty bucket is *novel*: the campaign resamples its neighborhood
//! (`point ± 1..=NEIGHBORHOOD`), on the theory that a fresh kind/phase
//! combination marks a schedule region the random draws have been
//! starving.
//!
//! The whole plan is built serially from one [`DetRng`] stream, so a given
//! `(seed, points)` pair always yields the same item list; the items then
//! run on the checker's shared sharded core, so campaign reports are
//! byte-identical for any shard count.

use crate::campaign::{run_items, CrashItem, Reference};
use crate::coverage::CoverageMap;
use crate::{Counterexample, Outcome};
use morlog_sim_core::{DetRng, FaultVariantKind, FuzzStats, PersistEventMeta, SystemConfig};
use morlog_workloads::WorkloadTrace;
use std::collections::HashSet;

/// Resample radius around points that light a novel coverage bucket.
const NEIGHBORHOOD: u64 = 2;

/// Tuning knobs for one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Seed for the campaign's point draws and variant picks.
    pub seed: u64,
    /// Base crash points to draw (neighborhood resampling adds more).
    pub points: u64,
    /// Base seed for per-point fault plans (keyed via
    /// [`FaultVariantKind::point_seed`], so plans are deterministic per
    /// point regardless of sharding).
    pub fault_seed: u64,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 0x4d6f_724c_6f67_f00d,
            points: 64,
            fault_seed: 0,
        }
    }
}

/// Aggregated verdict of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Campaign counters (see [`FuzzStats`]).
    pub stats: FuzzStats,
    /// Every failing item, ordered by (point, variant).
    pub failures: Vec<Outcome>,
    /// Coverage buckets lit by the campaign (out of
    /// [`CoverageMap::total_buckets`]).
    pub coverage: u64,
    /// The minimized counterexample, when any item failed.
    pub counterexample: Option<Counterexample>,
}

/// Builds the deterministic campaign work list; returns the items in draw
/// order, the plan-side counters (`events`, `sampled`, `novel`, `pruned`)
/// and the coverage buckets lit.
///
/// Each base draw picks a point uniformly from `0..=events` and a variant
/// from [`FaultVariantKind::ALL`]; silent base-variant points are pruned,
/// novel-bucket points seed neighborhood resampling.
fn fuzz_plan(reference: &Reference, opts: &FuzzOptions) -> (Vec<CrashItem>, FuzzStats, u64) {
    let kinds: Vec<_> = reference
        .meta
        .iter()
        .filter_map(PersistEventMeta::kind)
        .collect();
    let events = reference.events();
    debug_assert_eq!(kinds.len() as u64, events, "meta/hash streams must agree");

    let mut rng = DetRng::for_stream(opts.seed, 0x6675_7a7a);
    let mut coverage = CoverageMap::new();
    let mut seen: HashSet<CrashItem> = HashSet::new();
    let mut items = Vec::new();
    let mut stats = FuzzStats {
        events,
        ..FuzzStats::default()
    };
    // Candidates pending admission; base draws push one candidate each,
    // novelty pushes the neighborhood.
    let mut queue: Vec<CrashItem> = Vec::new();
    for _ in 0..opts.points {
        let point = rng.gen_range(events + 1);
        let variant =
            FaultVariantKind::ALL[rng.gen_range(FaultVariantKind::ALL.len() as u64) as usize];
        queue.push((point, variant));
        while let Some(item) = queue.pop() {
            if !seen.insert(item) {
                continue;
            }
            stats.sampled += 1;
            let (point, variant) = item;
            // Only the base variant is prunable — fault plans are keyed by
            // the point index, so equal pre-fault states still diverge
            // post-fault.
            if variant == FaultVariantKind::Base && reference.silent(point) {
                stats.pruned += 1;
                continue;
            }
            items.push(item);
            if point >= 1 && coverage.record(kinds[point as usize - 1], point, events) {
                stats.novel += 1;
                for delta in 1..=NEIGHBORHOOD {
                    for neighbor in [point.saturating_sub(delta), point + delta] {
                        if neighbor <= events && neighbor != point {
                            queue.push((neighbor, FaultVariantKind::Base));
                        }
                    }
                }
            }
        }
    }
    (items, stats, coverage.hit_buckets())
}

/// Plans a campaign from one reference run (hash samples for pruning,
/// persist-event kinds for coverage) and replays its items across
/// `shards` workers; one shard runs serially on the calling thread and
/// every shard count yields the same report.
pub fn fuzz(
    cfg: &SystemConfig,
    trace: &WorkloadTrace,
    opts: &FuzzOptions,
    shards: usize,
) -> FuzzReport {
    let reference = Reference::record(cfg, trace, true);
    let (items, mut stats, coverage) = fuzz_plan(&reference, opts);
    let (failures, counterexample) =
        run_items(cfg, trace, &items, opts.fault_seed, &reference, shards);
    stats.executed = items.len() as u64;
    stats.failures = failures.len() as u64;
    stats.verified = stats.executed - stats.failures;
    FuzzReport {
        stats,
        failures,
        coverage,
        counterexample,
    }
}
