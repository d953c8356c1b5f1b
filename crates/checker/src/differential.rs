//! Differential cross-design crash checking.
//!
//! The oracle checks one design against the *program*; this module checks
//! two designs against *each other*. Both run the same workload; the
//! reference runs yield each design's persist-event count, and the two
//! schedules are crashed at matched persist-progress fractions (the two
//! designs accept different event streams, so absolute points are not
//! comparable — fractions of total progress are). After crash + recovery:
//!
//! 1. Each design is verified against its own oracle. A failure tags the
//!    *culprit* design — this is how a spec-divergence mutant such as
//!    [`CheckMutation::SkewRedoValue`] is pinned to the design carrying
//!    it.
//! 2. When both pass, recovered program-visible state is compared where a
//!    cross-design invariant holds:
//!    - on the **final** pair (crash after the full schedule, both
//!      designs quiesced) every workload-touched word must match exactly;
//!    - on interim pairs, when both designs rolled forward and rolled
//!      back the *same* transaction sets, words owned by exactly one
//!      redone transaction must match (both recoveries replayed the same
//!      transaction's redo values, which are program-determined).
//!
//!    Interim pairs with differing replay sets are legitimately divergent
//!    schedules and are not compared — persist progress is a per-design
//!    notion, not a spec obligation.
//!
//! A divergence is minimized to the smallest fraction exhibiting it and
//! re-run with tracing on the culprit design for replayable evidence; its
//! signature is the culprit's reference hash sample at its crash point.
//! Both designs' crashes are the checker's shared replay (base variant),
//! and the pairs are sharded like every other campaign.
//!
//! [`CheckMutation::SkewRedoValue`]: morlog_sim_core::CheckMutation::SkewRedoValue

use crate::campaign::{counterexample, replay, Reference, Replay};
use morlog_log::record::TxTag;
use morlog_sim_core::par::ordered_map;
use morlog_sim_core::{Addr, FaultVariantKind, SystemConfig};
use morlog_workloads::{Op, WorkloadTrace};
use std::collections::{BTreeMap, BTreeSet};

/// Which design a divergence is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffCulprit {
    /// Design A failed its own oracle.
    DesignA,
    /// Design B failed its own oracle.
    DesignB,
    /// Both failed, or both passed their oracles yet disagree on
    /// program-visible state (the spec cannot say which is right).
    Both,
}

impl DiffCulprit {
    /// Stable label for reports and JSON records.
    pub fn label(&self) -> &'static str {
        match self {
            DiffCulprit::DesignA => "a",
            DiffCulprit::DesignB => "b",
            DiffCulprit::Both => "both",
        }
    }
}

/// One matched-fraction crash pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffPair {
    /// Crash point in design A's schedule.
    pub point_a: u64,
    /// Crash point in design B's schedule.
    pub point_b: u64,
}

/// Verdict of one executed crash pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffOutcome {
    /// The pair that was replayed.
    pub pair: DiffPair,
    /// The divergence, if any: culprit plus description.
    pub divergence: Option<(DiffCulprit, String)>,
}

/// The smallest diverging pair plus its replayable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffDivergence {
    /// Crash point in design A's schedule.
    pub point_a: u64,
    /// Crash point in design B's schedule.
    pub point_b: u64,
    /// Which design the divergence is attributed to.
    pub culprit: DiffCulprit,
    /// Description of the divergence (from the pair's verdict).
    pub error: String,
    /// Persist-domain signature of the culprit's crash state: its
    /// reference run's hash sample at its crash point.
    pub signature: u64,
    /// JSONL event trace of the culprit's failing replay (design A when
    /// the culprit is `Both`).
    pub trace_jsonl: String,
}

/// Aggregated verdict of a differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Crash pairs executed.
    pub checked: u64,
    /// Pairs that diverged.
    pub divergences: u64,
    /// Every diverging pair, ascending fraction.
    pub failures: Vec<DiffOutcome>,
    /// The minimized divergence, when any pair diverged.
    pub divergence: Option<DiffDivergence>,
}

/// Every word the workload touches (initial images and stores), mapped
/// to the transactions that store to it.
fn word_writers(trace: &WorkloadTrace) -> BTreeMap<Addr, BTreeSet<TxTag>> {
    let mut writers: BTreeMap<Addr, BTreeSet<TxTag>> = BTreeMap::new();
    for (t, thread) in trace.threads.iter().enumerate() {
        for (addr, _) in &thread.initial {
            writers.entry(addr.word_base()).or_default();
        }
        for (x, tx) in thread.transactions.iter().enumerate() {
            let key = TxTag::new(t as u8, x as u16);
            for op in &tx.ops {
                if let Op::Store(addr, _) = op {
                    writers.entry(addr.word_base()).or_default().insert(key);
                }
            }
        }
    }
    writers
}

/// Replays one crash pair on both designs and compares the verdicts over
/// the workload's words (see [`word_writers`]).
fn run_pair(
    (cfg_a, cfg_b): (&SystemConfig, &SystemConfig),
    trace: &WorkloadTrace,
    pair: DiffPair,
    final_pair: bool,
    writers: &BTreeMap<Addr, BTreeSet<TxTag>>,
) -> DiffOutcome {
    let base = FaultVariantKind::Base;
    let a = replay(cfg_a, trace, (pair.point_a, base), 0, false);
    let b = replay(cfg_b, trace, (pair.point_b, base), 0, false);
    let divergence = match (&a.error, &b.error) {
        (Some(ea), Some(eb)) => Some((
            DiffCulprit::Both,
            format!("both designs failed their oracles: a: {ea}; b: {eb}"),
        )),
        (Some(ea), None) => Some((DiffCulprit::DesignA, ea.clone())),
        (None, Some(eb)) => Some((DiffCulprit::DesignB, eb.clone())),
        (None, None) => {
            let set = |keys: &[TxTag]| keys.iter().copied().collect::<BTreeSet<_>>();
            let redone = set(&a.outcome.committed);
            let same_replay = redone == set(&b.outcome.committed)
                && set(&a.outcome.rolled_back) == set(&b.outcome.rolled_back)
                && !redone.is_empty();
            let comparable = |w: &BTreeSet<TxTag>| {
                final_pair || same_replay && w.len() == 1 && w.iter().all(|k| redone.contains(k))
            };
            let word = |r: &Replay, addr: Addr| {
                r.sys
                    .memory()
                    .read_line(addr.line())
                    .word(addr.word_index())
            };
            writers
                .iter()
                .filter(|(_, w)| comparable(w))
                .map(|(&addr, _)| (addr, word(&a, addr), word(&b, addr)))
                .find(|(_, va, vb)| va != vb)
                .map(|(addr, va, vb)| {
                    (
                        DiffCulprit::Both,
                        format!("recovered state diverges at {addr:?}: a={va:#x}, b={vb:#x}"),
                    )
                })
        }
    };
    DiffOutcome { pair, divergence }
}

/// Crashes both designs at `pairs` matched progress fractions `i / pairs`
/// for `i` in `1..=pairs` — each rounded into the design's reference
/// schedule, the last crashing after both complete schedules — replaying
/// the pairs across `shards` workers. The minimized divergence (smallest
/// fraction) is re-traced on the culprit design. One shard runs serially
/// on the calling thread and every shard count yields the same report.
pub fn diff(
    cfg_a: &SystemConfig,
    cfg_b: &SystemConfig,
    trace: &WorkloadTrace,
    pairs: u64,
    shards: usize,
) -> DiffReport {
    let ref_a = Reference::record(cfg_a, trace, false);
    let ref_b = Reference::record(cfg_b, trace, false);
    let (events_a, events_b) = (ref_a.events(), ref_b.events());
    let pairs = pairs.max(1);
    let schedule: Vec<DiffPair> = (1..=pairs)
        .map(|i| DiffPair {
            point_a: events_a * i / pairs,
            point_b: events_b * i / pairs,
        })
        .collect();
    let writers = word_writers(trace);
    let outcomes = ordered_map(shards, &schedule, |&pair| {
        let final_pair = pair.point_a == events_a && pair.point_b == events_b;
        run_pair((cfg_a, cfg_b), trace, pair, final_pair, &writers)
    });
    let checked = outcomes.len() as u64;
    // `ordered_map` keeps the schedule's ascending-fraction order.
    let failures: Vec<DiffOutcome> = outcomes
        .into_iter()
        .filter(|o| o.divergence.is_some())
        .collect();
    let divergence = failures.first().map(|f| {
        let (culprit, error) = f.divergence.clone().expect("failures carry divergences");
        let (cfg, point, reference) = match culprit {
            DiffCulprit::DesignB => (cfg_b, f.pair.point_b, &ref_b),
            _ => (cfg_a, f.pair.point_a, &ref_a),
        };
        let cx = counterexample(cfg, trace, (point, FaultVariantKind::Base), 0, reference);
        DiffDivergence {
            point_a: f.pair.point_a,
            point_b: f.pair.point_b,
            culprit,
            error,
            signature: cx.signature,
            trace_jsonl: cx.trace_jsonl,
        }
    });
    DiffReport {
        checked,
        divergences: failures.len() as u64,
        failures,
        divergence,
    }
}
