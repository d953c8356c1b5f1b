//! Schema-aware comparison of two `results/*.json` documents — the
//! engine behind the `bench_diff` binary and the CI perf-regression
//! gate.
//!
//! Both documents are validated against the current schema, then every
//! leaf value is flattened to a `path → value` map (e.g.
//! `records[3].stats.mem.nvmm_writes`) and the maps are compared.
//! Records are matched by position: the simulation is deterministic and
//! every bench binary emits records in a fixed order, so index identity
//! is exact — a record-count mismatch is reported as a structural
//! difference rather than fuzzily matched.
//!
//! Each leaf's treatment comes from its declared [`Class`] (see
//! [`crate::results`]). *Volatile* fields that legitimately differ
//! between two runs of the same code (`git`, `jobs`) never participate.
//! *Timing* fields — host wall-clock, per-phase nanoseconds, allocation
//! volumes, sim-rates — are machine-dependent, so by default they are
//! excluded too; in **ratio mode** (`MORLOG_DIFF_RATIO` / `--ratio`)
//! they instead participate, and a move beyond a configurable
//! multiplicative factor in the worse direction fails (one in the better
//! direction, declared per field in the schema, is an improvement), which
//! is how the `host_perf` CI gate compares profiles across machines while
//! still diffing the deterministic counters exactly. Everything else,
//! including every histogram bucket and series sample, participates
//! exactly: two identical runs diff to zero, and any simulated-behaviour
//! change shows up as a per-metric percentage delta.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::results::{self, Better, Class, Field};

/// One differing metric between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened path of the metric, e.g. `records[0].stats.cycles`.
    pub path: String,
    /// Baseline value (`None` when the path only exists in the
    /// candidate).
    pub base: Option<f64>,
    /// Candidate value (`None` when the path only exists in the
    /// baseline).
    pub cand: Option<f64>,
    /// Whether this is a [`Class::Timing`] field, judged by the ratio tolerance instead of the percent threshold.
    pub timing: bool,
}

impl MetricDelta {
    /// Percentage change from baseline to candidate. Structural
    /// differences (a path present on only one side, or a non-numeric
    /// mismatch) and changes away from a zero baseline report
    /// `f64::INFINITY`, so they always exceed any threshold.
    pub fn delta_pct(&self) -> f64 {
        match (self.base, self.cand) {
            (Some(b), Some(c)) => {
                if b == c {
                    0.0
                } else if b == 0.0 {
                    f64::INFINITY
                } else {
                    (c - b) / b * 100.0
                }
            }
            _ => f64::INFINITY,
        }
    }

    /// Whether this delta exceeds a threshold in either direction.
    pub fn exceeds(&self, threshold_pct: f64) -> bool {
        self.delta_pct().abs() > threshold_pct
    }

    /// Whether base and candidate agree within a multiplicative
    /// `factor`. Equal values always agree; when one side is zero the
    /// factor doubles as an absolute slack (|other| ≤ factor), so a
    /// 0 → 3ns jitter does not trip a 10× gate while 0 → 10⁹ns still
    /// does. Structural differences never agree.
    pub fn within_ratio(&self, factor: f64) -> bool {
        match (self.base, self.cand) {
            (Some(b), Some(c)) => {
                if b == c {
                    return true;
                }
                let (lo, hi) = if b.abs() <= c.abs() {
                    (b.abs(), c.abs())
                } else {
                    (c.abs(), b.abs())
                };
                if lo == 0.0 {
                    hi <= factor
                } else {
                    hi / lo <= factor
                }
            }
            _ => false,
        }
    }

    /// How the gate judges this delta. Timing fields are judged by the
    /// ratio tolerance (a timing delta with no ratio configured is always
    /// within — it would have been skipped from the comparison): beyond
    /// the factor, a move the way the field is `better` is an
    /// improvement and any other move a regression. Everything else is
    /// judged by the percent threshold, in either direction.
    pub fn verdict(&self, threshold_pct: f64, ratio: Option<f64>, better: Better) -> Verdict {
        let beyond = if self.timing {
            ratio.is_some_and(|factor| !self.within_ratio(factor))
        } else {
            self.exceeds(threshold_pct)
        };
        let improved = match (self.base, self.cand) {
            (Some(b), Some(c)) if self.timing => match better {
                Better::Lower => c < b,
                Better::Higher => c > b,
            },
            _ => false,
        };
        match (beyond, improved) {
            (false, _) => Verdict::Within,
            (true, true) => Verdict::Improvement,
            (true, false) => Verdict::Regression,
        }
    }
}

/// How the gate judges one delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold or ratio factor.
    Within,
    /// Beyond it: fails the gate.
    Regression,
    /// A timing field beyond the ratio factor the way it is better:
    /// reported, but does not fail the gate.
    Improvement,
}

/// The outcome of diffing two documents.
#[derive(Debug, Clone, Default)]
pub struct DocumentDiff {
    /// Total number of leaf metrics compared.
    pub compared: usize,
    /// Metrics whose values differ (empty for identical runs).
    pub deltas: Vec<MetricDelta>,
    /// The paths of the differing timing fields declared better higher
    /// (rates); every other timing field is better lower.
    pub higher_is_better: BTreeSet<String>,
}

impl DocumentDiff {
    /// How the gate judges `delta`, one of this diff's deltas (see
    /// [`MetricDelta::verdict`]).
    pub fn verdict(&self, delta: &MetricDelta, threshold_pct: f64, ratio: Option<f64>) -> Verdict {
        let better = if self.higher_is_better.contains(&delta.path) {
            Better::Higher
        } else {
            Better::Lower
        };
        delta.verdict(threshold_pct, ratio, better)
    }

    /// The deltas that fail the gate: non-timing fields beyond
    /// `threshold_pct`, timing fields outside the `ratio` factor in the
    /// worse direction.
    pub fn regressions(&self, threshold_pct: f64, ratio: Option<f64>) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| self.verdict(d, threshold_pct, ratio) == Verdict::Regression)
            .collect()
    }
}

/// The compared leaves of a validated document: path → (value, field).
/// Strings, bools and nulls compare exactly: a mismatch is structural
/// (an infinite delta), never a percentage.
fn flatten(doc: &Json, include_timing: bool) -> BTreeMap<String, (Json, Field)> {
    let mut out = BTreeMap::new();
    results::walk_fields(doc, &mut |path, value, field| {
        let timing = field.class == Class::Timing;
        if field.class != Class::Volatile && (include_timing || !timing) {
            out.insert(path.to_string(), (value.clone(), field));
        }
    });
    out
}

/// Diffs two validated result documents. With `include_timing`,
/// [`Class::Timing`] fields participate and are flagged on their
/// deltas so [`DocumentDiff::regressions`] can judge them by ratio.
///
/// # Errors
///
/// Returns a message when either document fails schema validation or
/// the two documents are for different bench binaries.
pub fn diff_documents_with(
    base: &Json,
    cand: &Json,
    include_timing: bool,
) -> Result<DocumentDiff, String> {
    results::validate_document(base).map_err(|e| format!("baseline: {e}"))?;
    results::validate_document(cand).map_err(|e| format!("candidate: {e}"))?;
    let base_bench = base.get("bench").and_then(Json::as_str).unwrap_or("");
    let cand_bench = cand.get("bench").and_then(Json::as_str).unwrap_or("");
    if base_bench != cand_bench {
        return Err(format!(
            "bench mismatch: baseline is {base_bench:?} but candidate is {cand_bench:?}"
        ));
    }
    let base_map = flatten(base, include_timing);
    let cand_map = flatten(cand, include_timing);

    let mut diff = DocumentDiff::default();
    let mut compared = 0;
    let mut push = |path: &String, base: Option<&Json>, cand: Option<&Json>, field: Field| {
        let timing = field.class == Class::Timing;
        if timing && field.better == Better::Higher {
            diff.higher_is_better.insert(path.clone());
        }
        diff.deltas.push(MetricDelta {
            path: path.clone(),
            base: base.and_then(Json::as_f64),
            cand: cand.and_then(Json::as_f64),
            timing,
        });
    };
    for (path, (b, field)) in &base_map {
        let c = cand_map.get(path).map(|(c, _)| c);
        compared += usize::from(c.is_some());
        if c != Some(b) {
            push(path, Some(b), c, *field);
        }
    }
    for (path, (c, field)) in &cand_map {
        if !base_map.contains_key(path) {
            push(path, None, Some(c), *field);
        }
    }
    diff.compared = compared;
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::results::{Envelope, HardwareOverhead, Value, SCHEMA_VERSION};

    /// A minimal valid envelope with one small record whose first field
    /// carries `cycles`.
    fn doc(cycles: u64, wall: f64) -> Json {
        let record = HardwareOverhead {
            log_registers_bytes: cycles,
            l1_ext_bits_per_line: 0,
            undo_redo_buffer_bytes: 0,
            redo_buffer_bytes: 0,
            ulog_counters_bytes: 0,
        };
        Envelope {
            bench: "unit".into(),
            schema_version: SCHEMA_VERSION,
            git: "deadbeef".into(),
            jobs: 1,
            wall_ms: wall,
            records: vec![record.json()],
        }
        .json()
    }

    #[test]
    fn identical_documents_have_zero_deltas() {
        let a = doc(100, 5.0);
        let b = doc(100, 99.0); // wall_ms differs but is excluded
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
        assert!(d.compared > 0);
    }

    #[test]
    fn perturbed_document_trips_threshold() {
        let a = doc(100, 5.0);
        let b = doc(110, 5.0);
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert_eq!(d.deltas.len(), 1);
        assert!((d.deltas[0].delta_pct() - 10.0).abs() < 1e-9);
        assert!(d.deltas[0].exceeds(2.0));
        assert!(!d.deltas[0].exceeds(15.0));
    }

    #[test]
    fn zero_baseline_is_infinite_delta() {
        let a = doc(0, 5.0);
        let b = doc(1, 5.0);
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert_eq!(d.deltas.len(), 1);
        assert!(d.deltas[0].delta_pct().is_infinite());
        assert!(d.deltas[0].exceeds(1e12));
    }

    #[test]
    fn bench_mismatch_is_an_error() {
        let a = doc(1, 5.0);
        let mut b = doc(1, 5.0);
        if let Json::Obj(pairs) = &mut b {
            pairs[0].1 = Json::Str("other".into());
        }
        assert!(diff_documents_with(&a, &b, false).is_err());
    }

    #[test]
    fn record_count_mismatch_is_reported() {
        let a = doc(1, 5.0);
        let mut b = doc(1, 5.0);
        if let Json::Obj(pairs) = &mut b {
            let recs = pairs.iter_mut().find(|(k, _)| k == "records").unwrap();
            if let Json::Arr(items) = &mut recs.1 {
                let extra = items[0].clone();
                items.push(extra);
            }
        }
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert!(
            d.deltas.iter().any(|x| x.path == "records.len"),
            "{:?}",
            d.deltas
        );
    }

    #[test]
    fn ratio_mode_compares_timing_fields() {
        let a = doc(100, 5.0);
        let b = doc(100, 40.0);
        // Default mode: wall_ms excluded, so the docs are identical.
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
        // Ratio mode: wall_ms participates, flagged as timing.
        let d = diff_documents_with(&a, &b, true).unwrap();
        assert_eq!(d.deltas.len(), 1);
        let delta = &d.deltas[0];
        assert_eq!(delta.path, "wall_ms");
        assert!(delta.timing);
        // 5 → 40 is an 8× change: fine under 10×, a regression under 2×.
        assert!(delta.within_ratio(10.0));
        assert!(!delta.within_ratio(2.0));
        assert!(d.regressions(2.0, Some(10.0)).is_empty());
        assert_eq!(d.regressions(2.0, Some(2.0)).len(), 1);
    }

    #[test]
    fn ratio_mode_keeps_exact_fields_exact() {
        let a = doc(100, 5.0);
        let b = doc(110, 5.0);
        // cycles is not a timing field: the percent threshold still
        // applies even in ratio mode, so a 10% move trips a 2% gate
        // despite a sky-high ratio factor.
        let d = diff_documents_with(&a, &b, true).unwrap();
        assert_eq!(d.regressions(2.0, Some(1e9)).len(), 1);
        assert!(!d.deltas[0].timing);
    }

    #[test]
    fn ratio_zero_floor_is_absolute_slack() {
        let mk = |base, cand| MetricDelta {
            path: "x_ns".into(),
            base: Some(base),
            cand: Some(cand),
            timing: true,
        };
        assert!(mk(0.0, 0.0).within_ratio(1.0));
        assert!(mk(0.0, 3.0).within_ratio(10.0)); // small jitter from zero
        assert!(!mk(0.0, 11.0).within_ratio(10.0)); // large jump from zero
        assert!(mk(100.0, 999.0).within_ratio(10.0));
        assert!(!mk(100.0, 1001.0).within_ratio(10.0));
        // Structural (one-sided) timing deltas never pass.
        let structural = MetricDelta {
            path: "x_ns".into(),
            base: Some(1.0),
            cand: None,
            timing: true,
        };
        assert!(!structural.within_ratio(f64::MAX));
    }

    /// A document with one `host_perf` record: `sim_rate_cps` is better
    /// higher, `wall_ns` better lower.
    fn perf_doc(rate: f64, wall_ns: u64) -> Json {
        use morlog_sim_core::hostprof::{HostCounter, HostPhase, ALLOC_SLOTS};
        fn zeros<L>(n: usize) -> crate::results::Map<L, u64> {
            std::iter::repeat_n(0, n).collect()
        }
        let record = crate::results::HostPerf {
            design: "d".into(),
            workload: "w".into(),
            threads: 1,
            transactions: 1,
            seed: 1,
            sim_cycles: 1,
            wall_ns,
            sim_rate_cps: rate,
            profile_total_ns: 0,
            phase_ns: zeros(HostPhase::ALL.len()),
            counters: zeros(HostCounter::ALL.len()),
            alloc_count: zeros(ALLOC_SLOTS + 1),
            alloc_bytes: zeros(ALLOC_SLOTS + 1),
        };
        Envelope {
            bench: "unit".into(),
            schema_version: SCHEMA_VERSION,
            git: "deadbeef".into(),
            jobs: 1,
            wall_ms: 1.0,
            records: vec![record.json()],
        }
        .json()
    }

    #[test]
    fn ratio_mode_fails_a_lower_is_better_field_only_when_it_rises() {
        // wall_ms: 5 → 40 is 8× slower, 40 → 5 8× faster.
        let slower = diff_documents_with(&doc(100, 5.0), &doc(100, 40.0), true).unwrap();
        let faster = diff_documents_with(&doc(100, 40.0), &doc(100, 5.0), true).unwrap();
        let judge = |d: &DocumentDiff| d.verdict(&d.deltas[0], 2.0, Some(2.0));
        assert_eq!(judge(&slower), Verdict::Regression);
        assert_eq!(slower.regressions(2.0, Some(2.0)).len(), 1);
        assert_eq!(judge(&faster), Verdict::Improvement);
        assert!(faster.regressions(2.0, Some(2.0)).is_empty());
        // Within the factor, either way is just a delta.
        assert_eq!(
            faster.verdict(&faster.deltas[0], 2.0, Some(10.0)),
            Verdict::Within
        );
    }

    #[test]
    fn ratio_mode_fails_the_sim_rate_only_when_it_falls() {
        let base = perf_doc(1e6, 1_000);
        let faster = diff_documents_with(&base, &perf_doc(3e6, 1_000), true).unwrap();
        let slower = diff_documents_with(&base, &perf_doc(3e5, 1_000), true).unwrap();
        for d in [&faster, &slower] {
            assert_eq!(d.deltas.len(), 1, "{:?}", d.deltas);
            assert_eq!(d.deltas[0].path, "records[0].sim_rate_cps");
            assert!(d.higher_is_better.contains("records[0].sim_rate_cps"));
        }
        assert_eq!(
            faster.verdict(&faster.deltas[0], 2.0, Some(2.0)),
            Verdict::Improvement
        );
        assert!(faster.regressions(2.0, Some(2.0)).is_empty());
        assert_eq!(
            slower.verdict(&slower.deltas[0], 2.0, Some(2.0)),
            Verdict::Regression
        );
        assert_eq!(slower.regressions(2.0, Some(2.0)).len(), 1);
        // wall_ns beside it stays better lower.
        let longer = diff_documents_with(&base, &perf_doc(1e6, 5_000), true).unwrap();
        assert!(longer.higher_is_better.is_empty());
        assert_eq!(longer.regressions(2.0, Some(2.0)).len(), 1);
    }

    #[test]
    fn round_trip_through_text_stays_identical() {
        let a = doc(12345, 1.0);
        let text = a.to_json_pretty();
        let b = json::parse(&text).unwrap();
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
    }
}
