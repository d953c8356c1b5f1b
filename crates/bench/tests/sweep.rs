//! Sweep-engine gates: parallel/serial determinism, trace-cache reuse,
//! strict env parsing, clamp labelling, and the results JSON schema.

use morlog_bench::results::{validate_document, ResultSink, SCHEMA_VERSION};
use morlog_bench::{json, transpose, RunSpec, Summary, SweepRunner, Table};
use morlog_sim::RunReport;
use morlog_sim::System;
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{WorkloadConfig, WorkloadKind};

/// Seeds are unique per test so the process-global trace cache (shared by
/// concurrently running tests) keys every assertion to its own entries.
fn quick_spec(design: DesignKind, kind: WorkloadKind, seed: u64) -> RunSpec {
    RunSpec::new(design, kind, 120).seed(seed)
}

#[test]
fn parallel_sweep_matches_serial() {
    let specs: Vec<RunSpec> = DesignKind::ALL
        .iter()
        .flat_map(|&design| {
            [WorkloadKind::Hash, WorkloadKind::Sps]
                .into_iter()
                .map(move |kind| quick_spec(design, kind, 90_001))
        })
        .collect();
    let serial = SweepRunner::with_jobs(1).run_specs(&specs);
    let parallel = SweepRunner::with_jobs(4).run_specs(&specs);
    assert_eq!(serial.len(), specs.len());
    assert_eq!(parallel.len(), specs.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report.design, p.report.design);
        assert_eq!(s.report.workload, p.report.workload);
        assert_eq!(s.report.threads, p.report.threads);
        assert_eq!(
            s.report.stats, p.report.stats,
            "parallel run of {} diverged from serial",
            s.report.workload
        );
    }
}

#[test]
fn parallel_sweep_matches_serial_with_tracing_on() {
    // The observability layer must not perturb simulation or sweep
    // determinism: with the trace sink enabled per-config, a parallel
    // traced sweep is identical to a serial traced sweep, and both carry
    // the same stats as the untraced reference.
    let traced_specs: Vec<RunSpec> = DesignKind::ALL
        .iter()
        .map(|&design| {
            quick_spec(design, WorkloadKind::Hash, 90_005).tweak(|cfg| cfg.trace.enabled = true)
        })
        .collect();
    let plain_specs: Vec<RunSpec> = DesignKind::ALL
        .iter()
        .map(|&design| quick_spec(design, WorkloadKind::Hash, 90_005))
        .collect();
    let serial = SweepRunner::with_jobs(1).run_specs(&traced_specs);
    let parallel = SweepRunner::with_jobs(4).run_specs(&traced_specs);
    let plain = SweepRunner::with_jobs(1).run_specs(&plain_specs);
    for ((s, p), u) in serial.iter().zip(&parallel).zip(&plain) {
        assert_eq!(
            s.report.stats,
            p.report.stats,
            "traced parallel run of {} diverged from traced serial",
            s.report.design.label()
        );
        assert_eq!(
            s.report.stats,
            u.report.stats,
            "tracing perturbed the simulation of {}",
            s.report.design.label()
        );
    }
}

#[test]
fn map_preserves_input_order() {
    let items: Vec<u64> = (0..97).collect();
    let doubled = SweepRunner::with_jobs(8).map(&items, |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn grid_returns_paper_order() {
    let rows = [
        quick_spec(DesignKind::FwbCrade, WorkloadKind::Queue, 90_002),
        quick_spec(DesignKind::MorLogDp, WorkloadKind::Hash, 90_002),
    ];
    let grid = SweepRunner::with_jobs(3).grid(&rows);
    for (row, spec) in grid.rows().zip(&rows) {
        let designs: Vec<DesignKind> = row.iter().map(|t| t.report.design).collect();
        assert_eq!(designs, DesignKind::ALL.to_vec());
        assert!(row.iter().all(|t| t.spec.kind == spec.kind));
    }
    let by_design: Vec<(DesignKind, WorkloadKind)> = grid
        .by_design()
        .map(|t| (t.spec.design, t.spec.kind))
        .collect();
    let want: Vec<(DesignKind, WorkloadKind)> = DesignKind::ALL
        .iter()
        .flat_map(|&d| rows.iter().map(move |r| (d, r.kind)))
        .collect();
    assert_eq!(by_design, want);
    let norm = grid.normalized(RunReport::normalized_throughput);
    assert_eq!(norm.len(), rows.len());
    assert!(norm
        .iter()
        .all(|row| row.len() == DesignKind::ALL.len() && row[0] == 1.0));
}

#[test]
fn all_designs_share_one_generated_trace() {
    // Regression for the bug that regenerated the identical trace once
    // per design: across all six designs of a grid row the cache must
    // report exactly one generation for the shared key.
    let seed = 90_003;
    let spec = quick_spec(DesignKind::FwbCrade, WorkloadKind::Hash, seed);
    let grid = SweepRunner::with_jobs(2).grid(std::slice::from_ref(&spec));
    assert_eq!(grid.runs().len(), DesignKind::ALL.len());
    let cfg = SystemConfig::for_design(DesignKind::FwbCrade);
    let wl = WorkloadConfig {
        threads: spec.effective_threads(),
        total_transactions: spec.transactions,
        dataset: spec.dataset,
        seed,
        data_base: System::data_base(&cfg),
    };
    let cache = morlog_workloads::cache::global();
    assert_eq!(
        cache.generations_for(WorkloadKind::Hash, &wl),
        1,
        "six designs must share one generated trace"
    );
}

#[test]
fn empty_grid_prints_diagnostic_instead_of_panicking() {
    let grid = SweepRunner::with_jobs(1).grid(&[]);
    let rows = grid.normalized(RunReport::normalized_throughput);
    assert!(rows.is_empty());
    let text = Table::designs().render("empty", &[""; 0], &rows, Some(("Gmean", Summary::Gmean)));
    assert!(text.contains("(no runs — nothing to normalize)"), "{text}");
}

#[test]
fn tables_keep_the_published_layouts() {
    let rows = vec![
        vec![1.0, 1.25, 0.5, 2.0, 1.0, 4.0],
        vec![1.0, 1.0, 2.0, 0.5, 1.0, 1.0],
    ];
    let text = Table::designs().render(
        "workload",
        &["A", "B"],
        &rows,
        Some(("Gmean", Summary::Gmean)),
    );
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        format!(
            "{:<14}{}",
            "workload",
            DesignKind::ALL
                .map(|d| format!(" {:>12}", d.label()))
                .concat()
        )
    );
    assert_eq!(lines[1], "A                     1.000        1.250        0.500        2.000        1.000        4.000");
    assert_eq!(lines[3], "Gmean                 1.000        1.118        1.000        1.000        1.000        2.000");
    // Tables V/VI: per-column means as right-aligned percentage cells.
    let means = Summary::Mean.groups(&rows, 2);
    let headers = [
        "FWB-Unsafe",
        "FWB-SLDE",
        "MorLog-CRADE",
        "MorLog-SLDE",
        "MorLog-DP",
    ];
    let table = Table::new(8, headers.into_iter().zip([11, 10, 13, 12, 10]));
    let cells = means[0][1..].iter().map(|v| format!("{v:.1}%")).collect();
    let text = table.render_lines("dataset", [("Small", cells)]);
    assert_eq!(
        text,
        format!(
            "{:<8} {:>11} {:>10} {:>13} {:>12} {:>10}\n{:<8} {:>10.1}% {:>9.1}% {:>12.1}% {:>11.1}% {:>9.1}%\n",
            "dataset", "FWB-Unsafe", "FWB-SLDE", "MorLog-CRADE", "MorLog-SLDE", "MorLog-DP",
            "Small", 1.125, 1.25, 1.25, 1.0, 2.5
        )
    );
    assert_eq!(
        transpose(&means),
        (0..6).map(|c| vec![means[0][c]]).collect::<Vec<_>>()
    );
}

#[test]
fn thread_requests_beyond_cores_are_clamped_and_labelled() {
    let spec = quick_spec(DesignKind::FwbCrade, WorkloadKind::Sps, 90_004).threads(32);
    assert_eq!(spec.requested_threads(), 32);
    assert_eq!(spec.effective_threads(), 8, "default config has 8 cores");
    let report = morlog_bench::run(&spec);
    assert_eq!(report.threads, 8, "report must carry the effective count");

    let widened = quick_spec(DesignKind::FwbCrade, WorkloadKind::Sps, 90_005)
        .threads(16)
        .tweak(|cfg| cfg.cores.cores = 16);
    assert_eq!(widened.effective_threads(), 16);
}

#[test]
fn results_document_round_trips_and_validates() {
    let runs = SweepRunner::with_jobs(2).run_specs(&[
        quick_spec(DesignKind::FwbCrade, WorkloadKind::Queue, 90_006),
        quick_spec(DesignKind::MorLogSlde, WorkloadKind::Queue, 90_006),
    ]);
    let mut sink = ResultSink::new("schema_round_trip", 2);
    sink.push_runs(&runs);
    let doc = sink.document();
    validate_document(&doc).expect("document must satisfy the schema");

    for pretty in [false, true] {
        let text = if pretty {
            doc.to_json_pretty()
        } else {
            doc.to_json()
        };
        let parsed = json::parse(&text).expect("serialized document must parse");
        assert_eq!(parsed, doc, "round trip must be lossless (pretty={pretty})");
        validate_document(&parsed).expect("parsed document must satisfy the schema");
    }

    assert_eq!(
        doc.get("schema_version").and_then(json::Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    let records = doc.get("records").and_then(json::Json::as_arr).unwrap();
    assert_eq!(records.len(), 2);
    let rec = &records[0];
    assert_eq!(
        rec.get("design").and_then(json::Json::as_str),
        Some("FWB-CRADE")
    );
    assert_eq!(
        rec.get("stats")
            .and_then(|s| s.get("transactions_committed"))
            .and_then(json::Json::as_u64),
        Some(runs[0].report.stats.transactions_committed)
    );
}

#[test]
fn validation_rejects_broken_documents() {
    let runs = SweepRunner::with_jobs(1).run_specs(&[quick_spec(
        DesignKind::FwbCrade,
        WorkloadKind::Sps,
        90_007,
    )]);
    let mut sink = ResultSink::new("broken", 1);
    sink.push_runs(&runs);
    let doc = sink.document();

    let strip = |doc: &json::Json, field: &str| match doc {
        json::Json::Obj(pairs) => {
            json::Json::Obj(pairs.iter().filter(|(k, _)| k != field).cloned().collect())
        }
        _ => unreachable!(),
    };
    assert!(validate_document(&strip(&doc, "records")).is_err());
    assert!(validate_document(&strip(&doc, "schema_version")).is_err());

    // A run record missing its stats must be named in the error.
    if let json::Json::Obj(mut pairs) = doc.clone() {
        if let Some((_, json::Json::Arr(records))) = pairs.iter_mut().find(|(k, _)| k == "records")
        {
            records[0] = strip(&records[0], "stats");
        }
        let err = validate_document(&json::Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("stats"), "error {err:?} should name stats");
    }
}

#[test]
fn sink_finish_writes_validated_file() {
    let dir = std::env::temp_dir().join(format!("morlog-results-{}", std::process::id()));
    // The env override is read once inside finish(); no other test in this
    // binary touches MORLOG_RESULTS_DIR.
    std::env::set_var("MORLOG_RESULTS_DIR", &dir);
    let runs = SweepRunner::with_jobs(1).run_specs(&[quick_spec(
        DesignKind::MorLogDp,
        WorkloadKind::Hash,
        90_008,
    )]);
    let mut sink = ResultSink::new("sink_smoke", 1);
    sink.push_runs(&runs);
    sink.finish();
    std::env::remove_var("MORLOG_RESULTS_DIR");
    let text = std::fs::read_to_string(dir.join("sink_smoke.json")).expect("file written");
    let doc = json::parse(&text).expect("written file must parse");
    validate_document(&doc).expect("written file must satisfy the schema");
    assert_eq!(
        doc.get("bench").and_then(json::Json::as_str),
        Some("sink_smoke")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
