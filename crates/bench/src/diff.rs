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
//! they instead participate and must agree within a configurable
//! multiplicative factor, which is how the `host_perf` CI gate compares
//! profiles across machines while still diffing the deterministic
//! counters exactly. Everything else, including every histogram bucket
//! and series sample, participates exactly: two identical runs diff to
//! zero, and any simulated-behaviour change shows up as a per-metric
//! percentage delta.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::results::{self, Class};

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

    /// Whether this delta trips the gate: timing fields are judged by
    /// the ratio tolerance (a timing delta with no ratio configured
    /// never trips — it would have been skipped from the comparison),
    /// everything else by the percent threshold.
    pub fn trips(&self, threshold_pct: f64, ratio: Option<f64>) -> bool {
        if self.timing {
            match ratio {
                Some(factor) => !self.within_ratio(factor),
                None => false,
            }
        } else {
            self.exceeds(threshold_pct)
        }
    }
}

/// The outcome of diffing two documents.
#[derive(Debug, Clone, Default)]
pub struct DocumentDiff {
    /// Total number of leaf metrics compared.
    pub compared: usize,
    /// Metrics whose values differ (empty for identical runs).
    pub deltas: Vec<MetricDelta>,
}

impl DocumentDiff {
    /// The deltas that trip the gate: non-timing fields beyond
    /// `threshold_pct`, timing fields outside the `ratio` factor.
    pub fn regressions(&self, threshold_pct: f64, ratio: Option<f64>) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.trips(threshold_pct, ratio))
            .collect()
    }
}

/// The compared leaves of a validated document: path → (value, whether
/// it is a timing field). Strings, bools and nulls compare exactly: a
/// mismatch is structural (an infinite delta), never a percentage.
fn flatten(doc: &Json, include_timing: bool) -> BTreeMap<String, (Json, bool)> {
    let mut out = BTreeMap::new();
    results::walk(doc, &mut |path, value, class| {
        let timing = class == Class::Timing;
        if class != Class::Volatile && (include_timing || !timing) {
            out.insert(path.to_string(), (value.clone(), timing));
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

    let delta = |path: &String, base: Option<&Json>, cand: Option<&Json>, timing: bool| {
        let (base, cand) = (base.and_then(Json::as_f64), cand.and_then(Json::as_f64));
        let path = path.clone();
        MetricDelta {
            path,
            base,
            cand,
            timing,
        }
    };
    let mut diff = DocumentDiff::default();
    for (path, (b, timing)) in &base_map {
        let c = cand_map.get(path).map(|(c, _)| c);
        diff.compared += usize::from(c.is_some());
        if c != Some(b) {
            diff.deltas.push(delta(path, Some(b), c, *timing));
        }
    }
    for (path, (c, timing)) in &cand_map {
        if !base_map.contains_key(path) {
            diff.deltas.push(delta(path, None, Some(c), *timing));
        }
    }
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

    #[test]
    fn round_trip_through_text_stays_identical() {
        let a = doc(12345, 1.0);
        let text = a.to_json_pretty();
        let b = json::parse(&text).unwrap();
        let d = diff_documents_with(&a, &b, false).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
    }
}
