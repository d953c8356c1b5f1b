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
//! Volatile envelope fields that legitimately differ between two runs
//! of the same code (`git`, `jobs`) are excluded from the comparison.
//! *Timing* fields — host wall-clock, per-phase nanoseconds, allocation
//! counts, sim-rates — are machine-dependent, so by default they are
//! excluded too; in **ratio mode** (`MORLOG_DIFF_RATIO` / `--ratio`)
//! they instead participate and must agree within a configurable
//! multiplicative factor, which is how the `host_perf` CI gate compares
//! profiles across machines while still diffing the deterministic
//! counters exactly. Everything else, including every histogram bucket
//! and series sample, participates exactly: two identical runs diff to
//! zero, and any simulated-behaviour change shows up as a per-metric
//! percentage delta.

use crate::json::Json;

/// Fields excluded from comparison wherever they appear: the git stamp
/// and sweep parallelism are properties of the *run*, not of the
/// simulated behaviour the gate protects. (Host timing fields are
/// handled separately — see [`is_timing_key`].)
const SKIP_FIELDS: [&str; 2] = ["git", "jobs"];

/// Whether a field name denotes host-dependent timing data: wall-clock
/// (`wall_ms` and other `_ms`/`_ns` suffixes), sim-rates (`_cps`), and
/// allocator statistics (`alloc*`). These are skipped by default and
/// compared within a factor in ratio mode.
pub fn is_timing_key(key: &str) -> bool {
    key.ends_with("_ns")
        || key.ends_with("_ms")
        || key.ends_with("_cps")
        || key.starts_with("alloc")
}

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
    /// Whether this is a host-timing field (see [`is_timing_key`]),
    /// judged by the ratio tolerance instead of the percent threshold.
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

/// A flattened leaf value. Strings and bools are hashed into the
/// comparison as exact-match values: a mismatch is structural (reported
/// as infinite delta), never a percentage.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Text(String),
}

fn flatten(
    value: &Json,
    path: &str,
    timing: bool,
    include_timing: bool,
    out: &mut Vec<(String, (Leaf, bool))>,
) {
    match value {
        Json::Null => out.push((path.to_string(), (Leaf::Text("null".into()), timing))),
        Json::Bool(b) => out.push((path.to_string(), (Leaf::Text(b.to_string()), timing))),
        Json::UInt(n) => out.push((path.to_string(), (Leaf::Num(*n as f64), timing))),
        Json::Num(n) => out.push((path.to_string(), (Leaf::Num(*n), timing))),
        Json::Str(s) => out.push((path.to_string(), (Leaf::Text(s.clone()), timing))),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{path}[{i}]"), timing, include_timing, out);
            }
            // Lengths participate so a shorter array is a difference
            // even when every shared index matches. Array lengths are
            // structural even inside timing subtrees.
            out.push((
                format!("{path}.len"),
                (Leaf::Num(items.len() as f64), false),
            ));
        }
        Json::Obj(pairs) => {
            for (key, v) in pairs {
                if SKIP_FIELDS.contains(&key.as_str()) {
                    continue;
                }
                let sub_timing = timing || is_timing_key(key);
                if sub_timing && !include_timing {
                    continue;
                }
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(v, &sub, sub_timing, include_timing, out);
            }
        }
    }
}

/// Diffs two validated result documents with timing fields excluded
/// (the default, pre-ratio-mode behaviour).
///
/// # Errors
///
/// Returns a message when either document fails schema validation or
/// the two documents are for different bench binaries.
pub fn diff_documents(base: &Json, cand: &Json) -> Result<DocumentDiff, String> {
    diff_documents_with(base, cand, false)
}

/// Diffs two validated result documents. With `include_timing`, timing
/// fields (see [`is_timing_key`]) participate and are flagged on their
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
    crate::results::validate_document(base).map_err(|e| format!("baseline: {e}"))?;
    crate::results::validate_document(cand).map_err(|e| format!("candidate: {e}"))?;
    let base_bench = base.get("bench").and_then(Json::as_str).unwrap_or("");
    let cand_bench = cand.get("bench").and_then(Json::as_str).unwrap_or("");
    if base_bench != cand_bench {
        return Err(format!(
            "bench mismatch: baseline is {base_bench:?} but candidate is {cand_bench:?}"
        ));
    }
    let mut base_flat = Vec::new();
    let mut cand_flat = Vec::new();
    flatten(base, "", false, include_timing, &mut base_flat);
    flatten(cand, "", false, include_timing, &mut cand_flat);
    let base_map: std::collections::BTreeMap<String, (Leaf, bool)> =
        base_flat.into_iter().collect();
    let cand_map: std::collections::BTreeMap<String, (Leaf, bool)> =
        cand_flat.into_iter().collect();

    let mut diff = DocumentDiff::default();
    for (path, (b, timing)) in &base_map {
        match cand_map.get(path) {
            None => diff.deltas.push(MetricDelta {
                path: path.clone(),
                base: leaf_num(b),
                cand: None,
                timing: *timing,
            }),
            Some((c, _)) => {
                diff.compared += 1;
                match (b, c) {
                    (Leaf::Num(bn), Leaf::Num(cn)) => {
                        if bn != cn {
                            diff.deltas.push(MetricDelta {
                                path: path.clone(),
                                base: Some(*bn),
                                cand: Some(*cn),
                                timing: *timing,
                            });
                        }
                    }
                    (Leaf::Text(bt), Leaf::Text(ct)) => {
                        if bt != ct {
                            diff.deltas.push(MetricDelta {
                                path: path.clone(),
                                base: None,
                                cand: None,
                                timing: *timing,
                            });
                        }
                    }
                    _ => diff.deltas.push(MetricDelta {
                        path: path.clone(),
                        base: leaf_num(b),
                        cand: leaf_num(c),
                        timing: *timing,
                    }),
                }
            }
        }
    }
    for (path, (c, timing)) in &cand_map {
        if !base_map.contains_key(path) {
            diff.deltas.push(MetricDelta {
                path: path.clone(),
                base: None,
                cand: leaf_num(c),
                timing: *timing,
            });
        }
    }
    Ok(diff)
}

fn leaf_num(leaf: &Leaf) -> Option<f64> {
    match leaf {
        Leaf::Num(n) => Some(*n),
        Leaf::Text(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(cycles: u64, wall: f64) -> Json {
        // A minimal valid envelope with one non-"run" record (only
        // "run" records have the full stats schema enforced).
        Json::obj(vec![
            ("bench", Json::Str("unit".into())),
            ("schema_version", Json::UInt(crate::results::SCHEMA_VERSION)),
            ("git", Json::Str("deadbeef".into())),
            ("jobs", Json::UInt(1)),
            ("wall_ms", Json::Num(wall)),
            (
                "records",
                Json::Arr(vec![Json::obj(vec![
                    ("kind", Json::Str("unit_metric".into())),
                    ("cycles", Json::UInt(cycles)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_documents_have_zero_deltas() {
        let a = doc(100, 5.0);
        let b = doc(100, 99.0); // wall_ms differs but is excluded
        let d = diff_documents(&a, &b).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
        assert!(d.compared > 0);
    }

    #[test]
    fn perturbed_document_trips_threshold() {
        let a = doc(100, 5.0);
        let b = doc(110, 5.0);
        let d = diff_documents(&a, &b).unwrap();
        assert_eq!(d.deltas.len(), 1);
        assert!((d.deltas[0].delta_pct() - 10.0).abs() < 1e-9);
        assert!(d.deltas[0].exceeds(2.0));
        assert!(!d.deltas[0].exceeds(15.0));
    }

    #[test]
    fn zero_baseline_is_infinite_delta() {
        let a = doc(0, 5.0);
        let b = doc(1, 5.0);
        let d = diff_documents(&a, &b).unwrap();
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
        assert!(diff_documents(&a, &b).is_err());
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
        let d = diff_documents(&a, &b).unwrap();
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
        let d = diff_documents(&a, &b).unwrap();
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
    fn timing_key_classification() {
        assert!(is_timing_key("wall_ms"));
        assert!(is_timing_key("wall_ns"));
        assert!(is_timing_key("profile_total_ns"));
        assert!(is_timing_key("sim_rate_cps"));
        assert!(is_timing_key("alloc_bytes"));
        assert!(is_timing_key("alloc_count"));
        assert!(!is_timing_key("cycles"));
        assert!(!is_timing_key("wq_ops"));
        assert!(!is_timing_key("transactions"));
    }

    #[test]
    fn round_trip_through_text_stays_identical() {
        let a = doc(12345, 1.0);
        let text = a.to_json_pretty();
        let b = json::parse(&text).unwrap();
        let d = diff_documents(&a, &b).unwrap();
        assert!(d.deltas.is_empty(), "{:?}", d.deltas);
    }
}
