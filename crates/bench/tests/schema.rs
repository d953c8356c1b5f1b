//! Table-driven schema gates: every declared record kind (plus the
//! envelope and the `perf_history` line) rejects each dropped, retyped or
//! undeclared field at any depth and any unknown `kind`; each arithmetic
//! invariant rejects its own broken case; and the declared timing class
//! marks exactly the leaves the old name-suffix rule marked on every
//! committed `results/*.json`.

use std::collections::BTreeSet;

use morlog_bench::json::{self, Json};
use morlog_bench::results::{
    validate, validate_document, walk, Class, CleanBytes, CrashCell, CrashCheck, CrashDiff,
    CrashFuzz, DldcPatterns, Endurance, Envelope, HardwareOverhead, HostPerf, PerfHistory,
    PerfHistoryEntry, Run, SldeFlagOverhead, SldeSynthesis, Stats, Value, WriteDistance,
    RECORD_KINDS, SCHEMA_VERSION,
};
use morlog_bench::{RunSpec, SweepRunner, TimedRun};
use morlog_sim_core::DesignKind;
use morlog_workloads::WorkloadKind;

fn timed_run() -> TimedRun {
    let spec = RunSpec::new(DesignKind::MorLogSlde, WorkloadKind::Hash, 200).seed(92_001);
    SweepRunner::with_jobs(1).run_specs(&[spec]).remove(0)
}

fn envelope(records: Vec<Json>) -> Json {
    Envelope {
        bench: "schema_test".into(),
        schema_version: SCHEMA_VERSION,
        git: "deadbeef".into(),
        jobs: 1,
        wall_ms: 1.5,
        records,
    }
    .json()
}

/// One valid record of every declared kind.
fn samples(run: &TimedRun) -> Vec<Json> {
    let s = |v: &str| v.to_string();
    vec![
        Run::from(run).json(),
        HostPerf::from(run).json(),
        CrashCheck {
            design: s("MorLog-SLDE"),
            workload: s("hash"),
            mutation: s("none"),
            events: 9,
            points_total: 10,
            pruned: 4,
            capped: 0,
            explored: 7,
            verified: 6,
            failures: 1,
            passed: false,
        }
        .json(),
        CrashFuzz {
            design: s("MorLog-DP"),
            workload: s("hash"),
            mutation: s("none"),
            events: 30,
            sampled: 12,
            novel: 5,
            pruned: 2,
            executed: 10,
            verified: 10,
            failures: 0,
            coverage: 17,
            passed: true,
        }
        .json(),
        CrashDiff {
            design_a: s("MorLog-SLDE"),
            design_b: s("FWB-CRADE"),
            workload: s("double-store"),
            checked: 5,
            divergences: 1,
            culprit: s("a"),
            passed: true,
        }
        .json(),
        CrashCell {
            design: s("MorLog-DP"),
            workload: s("queue"),
            plan: s("torn"),
            crash_cycle: 5000,
            seed: 7,
            passed: false,
            injected: 2,
            damaged: true,
            error: Some(s("lost a commit")),
        }
        .json(),
        WriteDistance {
            workload: s("hash"),
            transactions: 100,
            buckets: (0..9).map(|i| f64::from(i) / 36.0).collect(),
            beyond_31_fraction: 0.4,
            repeat_fraction: 0.8,
        }
        .json(),
        CleanBytes {
            workload: s("hash"),
            transactions: 100,
            clean_fraction: 0.7,
            silent_fraction: 0.1,
        }
        .json(),
        Endurance {
            design: s("MorLog-SLDE"),
            max_data_line_programs: 3,
            max_log_slot_programs: 1,
            locations: 40,
            stats: Stats::from(&run.report.stats),
        }
        .json(),
        HardwareOverhead {
            log_registers_bytes: 96,
            l1_ext_bits_per_line: 16,
            undo_redo_buffer_bytes: 2048,
            redo_buffer_bytes: 1024,
            ulog_counters_bytes: 64,
        }
        .json(),
        SldeFlagOverhead {
            m: 2,
            undo_redo_fraction: 0.02,
            redo_fraction: 0.03,
            l1_fraction: 0.06,
        }
        .json(),
        SldeSynthesis {
            log_region_flag_fraction: 0.017,
            extra_gates: 9800.0,
            encode_latency_ns: 1.0,
            encode_energy_pj: 1.2,
            decode_energy_pj: 0.9,
        }
        .json(),
        DldcPatterns {
            workload: s("hash"),
            transactions: 100,
            patterns: (0..9).map(|i| f64::from(i) / 36.0).collect(),
            coverage: 0.42,
        }
        .json(),
    ]
}

fn history_line() -> Json {
    PerfHistory {
        git: "deadbeef".into(),
        unix_ms: 1,
        entries: vec![PerfHistoryEntry {
            design: "MorLog-SLDE".into(),
            workload: "Hash-Small".into(),
            sim_cycles: 1000,
            wall_ms: 2.5,
            sim_rate_cps: 4e5,
            alloc_bytes: 4096,
        }],
    }
    .json()
}

fn wrong_type(v: &Json) -> Json {
    match v {
        Json::Str(_) | Json::Null => Json::UInt(1),
        _ => Json::Str("wrong".into()),
    }
}

/// Every single-edit corruption of `v`, labelled: each object member
/// dropped or given the wrong type, an undeclared member added to every
/// object, recursively (arrays through their first item).
fn corruptions(v: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    match v {
        Json::Obj(pairs) => {
            let mut extra = pairs.clone();
            extra.push(("undeclared".into(), Json::UInt(0)));
            out.push(("+undeclared".into(), Json::Obj(extra)));
            for (i, (key, child)) in pairs.iter().enumerate() {
                let mut dropped = pairs.clone();
                dropped.remove(i);
                out.push((format!("-{key}"), Json::Obj(dropped)));
                let mut edits = vec![(format!("{key}: wrong type"), wrong_type(child))];
                edits.extend(
                    corruptions(child)
                        .into_iter()
                        .map(|(what, c)| (format!("{key}.{what}"), c)),
                );
                for (what, new) in edits {
                    let mut edited = pairs.clone();
                    edited[i].1 = new;
                    out.push((what, Json::Obj(edited)));
                }
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let mut edits = vec![("[0]: wrong type".to_string(), wrong_type(&items[0]))];
            edits.extend(
                corruptions(&items[0])
                    .into_iter()
                    .map(|(what, c)| (format!("[0].{what}"), c)),
            );
            for (what, new) in edits {
                let mut edited = items.clone();
                edited[0] = new;
                out.push((what, Json::Arr(edited)));
            }
        }
        _ => {}
    }
    out
}

fn assert_every_corruption_rejected(
    what: &str,
    valid: &Json,
    validate: impl Fn(&Json) -> Result<(), String>,
) {
    validate(valid).unwrap_or_else(|e| panic!("{what}: valid sample rejected: {e}"));
    let all = corruptions(valid);
    assert!(all.len() > 3, "{what}: nothing to corrupt");
    for (edit, doc) in all {
        assert!(validate(&doc).is_err(), "{what}: {edit} was accepted");
    }
}

#[test]
fn every_kind_rejects_dropped_retyped_and_undeclared_fields() {
    let run = timed_run();
    let records = samples(&run);
    let kinds: BTreeSet<_> = records
        .iter()
        .map(|r| r.get("kind").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let declared: BTreeSet<_> = RECORD_KINDS.iter().map(|k| k.kind.to_string()).collect();
    assert_eq!(kinds, declared, "one sample per declared kind");
    for record in &records {
        let kind = record.get("kind").and_then(Json::as_str).unwrap();
        let doc = envelope(vec![record.clone()]);
        assert_every_corruption_rejected(kind, &doc, validate_document);
    }
    assert_every_corruption_rejected("envelope", &envelope(Vec::new()), validate_document);
    assert_every_corruption_rejected("perf_history", &history_line(), validate::<PerfHistory>);
}

#[test]
fn nested_counters_are_required() {
    let run = timed_run();
    let doc = envelope(vec![Run::from(&run).json()]);
    for (path, field) in [("mem", "drains"), ("log", "coalesced"), ("attr", "idle")] {
        let broken = edit(&doc, &["records", "0", "stats", path], |obj| {
            let Json::Obj(pairs) = obj else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != field);
        });
        let err = validate_document(&broken).unwrap_err();
        assert!(err.contains(field), "{path}.{field}: {err}");
    }
}

#[test]
fn unknown_kinds_are_rejected() {
    let run = timed_run();
    for record in samples(&run) {
        for kind in ["unit_metric", "perf_history"] {
            let renamed = edit(&record, &["kind"], |v| *v = Json::Str(kind.into()));
            let err = validate_document(&envelope(vec![renamed])).unwrap_err();
            assert!(err.contains("kind"), "{err}");
        }
    }
}

/// A copy of `v` with `change` applied at `path` (object keys, or array
/// indices as decimal strings).
fn edit(v: &Json, path: &[&str], change: impl FnOnce(&mut Json)) -> Json {
    let mut out = v.clone();
    let mut at = &mut out;
    for step in path {
        at = match at {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).expect(step).1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("{step}: not a container"),
        };
    }
    change(at);
    out
}

fn bump(v: &mut Json) {
    *v = Json::UInt(v.as_u64().unwrap() + 1);
}

fn set(value: Json) -> impl FnOnce(&mut Json) {
    move |v| *v = value
}

#[test]
fn every_invariant_rejects_its_broken_case() {
    let run = timed_run();
    let records = samples(&run);
    let rejects = |record: &Json, path: &[&str], change: &dyn Fn(&mut Json), needle: &str| {
        let broken = edit(
            &envelope(vec![record.clone()]),
            &[&["records", "0"], path].concat(),
            change,
        );
        let err = validate_document(&broken).expect_err(needle);
        assert!(err.contains(needle), "expected {needle:?} in {err:?}");
    };
    let uint = |n: u64| move |v: &mut Json| *v = Json::UInt(n);

    let doc = envelope(Vec::new());
    let err = validate_document(&edit(&doc, &["schema_version"], set(Json::UInt(5)))).unwrap_err();
    assert!(err.contains("schema_version"), "{err}");
    let err = validate_document(&edit(&doc, &["jobs"], set(Json::UInt(0)))).unwrap_err();
    assert!(err.contains("jobs"), "{err}");

    let run_record = &records[0];
    rejects(
        run_record,
        &["stats", "attr", "busy"],
        &bump,
        "accounts sum",
    );
    rejects(
        run_record,
        &["stats", "cache"],
        &|v: &mut Json| {
            let Json::Arr(levels) = v else { unreachable!() };
            levels.pop();
        },
        "declared 3",
    );
    let hist = ["stats", "hist", "commit", "begin_to_complete"];
    assert!(run.report.stats.metrics.commit.begin_to_complete.count() > 0);
    rejects(
        run_record,
        &[&hist[..], &["count"]].concat(),
        &bump,
        "bucket counts",
    );
    rejects(
        run_record,
        &[&hist[..], &["buckets", "0", "0"]].concat(),
        &uint(65),
        "out of range",
    );
    rejects(
        run_record,
        &[&hist[..], &["p50"]].concat(),
        &uint(u64::MAX),
        "quantiles",
    );
    let series = ["stats", "series", "wq_depth"];
    rejects(
        run_record,
        &[&series[..], &["cycles"]].concat(),
        &|v: &mut Json| *v = Json::Arr(vec![Json::UInt(1)]),
        "entries",
    );
    rejects(
        run_record,
        &series,
        &|v: &mut Json| {
            let two = Json::Arr(vec![Json::UInt(5), Json::UInt(3)]);
            *v = Json::obj(vec![("cycles", two.clone()), ("values", two)]);
        },
        "backwards",
    );

    let host_perf = &records[1];
    rejects(
        host_perf,
        &["phase_ns", "core_issue"],
        &bump,
        "phase_ns sums",
    );
    rejects(
        host_perf,
        &["alloc_count", "core_issue"],
        &bump,
        "alloc slots",
    );
    rejects(host_perf, &["alloc_bytes", "total"], &bump, "alloc slots");
    rejects(
        host_perf,
        &["sim_rate_cps"],
        &|v: &mut Json| *v = Json::Num(-1.0),
        "finite",
    );
    let over_wall = edit(host_perf, &["wall_ns"], set(Json::UInt(0)));
    let over_wall = edit(&over_wall, &["profile_total_ns"], set(Json::UInt(10)));
    let over_wall = edit(&over_wall, &["phase_ns", "core_issue"], set(Json::UInt(10)));
    let over_wall = edit(&over_wall, &["phase_ns"], |v| {
        let Json::Obj(pairs) = v else { unreachable!() };
        for (k, n) in pairs.iter_mut().skip(1) {
            assert_ne!(k, "core_issue");
            *n = Json::UInt(0);
        }
    });
    rejects(&over_wall, &[], &|_: &mut Json| {}, "exceeds wall_ns");

    let crash_check = &records[2];
    rejects(crash_check, &["points_total"], &bump, "points_total");
    rejects(crash_check, &["explored"], &uint(3), "does not cover");
    rejects(crash_check, &["verified"], &bump, "!= explored");
    let crash_fuzz = &records[3];
    rejects(crash_fuzz, &["sampled"], &bump, "!= sampled");
    rejects(crash_fuzz, &["verified"], &bump, "!= executed");
    rejects(&records[4], &["divergences"], &uint(6), "divergences");

    let line = edit(
        &history_line(),
        &["entries", "0", "sim_rate_cps"],
        set(Json::Num(-2.0)),
    );
    let err = validate::<PerfHistory>(&line).unwrap_err();
    assert!(err.contains("finite"), "{err}");
}

/// The name-suffix rule `bench_diff` used before fields were classed:
/// a key ending `_ns`, `_ms` or `_cps`, or starting `alloc`, marks its
/// subtree as timing; `git` and `jobs` were skipped outright.
fn suffix_rule_timing(v: &Json, path: &str, timing: bool, out: &mut BTreeSet<String>) {
    match v {
        Json::Obj(pairs) => {
            for (key, x) in pairs.iter().filter(|(k, _)| k != "git" && k != "jobs") {
                let timing = timing
                    || key.ends_with("_ns")
                    || key.ends_with("_ms")
                    || key.ends_with("_cps")
                    || key.starts_with("alloc");
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                suffix_rule_timing(x, &sub, timing, out);
            }
        }
        Json::Arr(items) => {
            for (i, x) in items.iter().enumerate() {
                suffix_rule_timing(x, &format!("{path}[{i}]"), timing, out);
            }
        }
        _ if timing => {
            out.insert(path.to_string());
        }
        _ => {}
    }
}

#[test]
fn declared_timing_class_matches_the_suffix_rule_on_committed_results() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("results directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_document(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut by_rule = BTreeSet::new();
        suffix_rule_timing(&doc, "", false, &mut by_rule);
        let (mut timing, mut volatile) = (BTreeSet::new(), BTreeSet::new());
        walk(&doc, &mut |p, _, class| {
            match class {
                Class::Timing => timing.insert(p.to_string()),
                Class::Volatile => volatile.insert(p.to_string()),
                Class::Deterministic => false,
            };
        });
        assert!(!timing.is_empty(), "{}: wall_ms at least", path.display());
        assert_eq!(timing, by_rule, "{}", path.display());
        assert_eq!(
            volatile,
            BTreeSet::from(["git".to_string(), "jobs".to_string()])
        );
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} committed results documents");
}
