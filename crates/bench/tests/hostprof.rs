//! Host-profiler integration gates: the phase-sum ≤ wall invariant and
//! counter determinism on real sweeps, the disabled-path overhead budget at `quick_check 2000 hash` scale,
//! strict exit-2 parsing of `MORLOG_HOSTPROF` / `MORLOG_DIFF_RATIO` /
//! `MORLOG_SEED` and of `quick_check`'s arguments in the shipped
//! binaries, and `perf_trend` reading the
//! `MORLOG_PERF_HISTORY` file `perf_report` appends to.
//!
//! The profiler's enable flag is process-global, so every in-process
//! assertion that flips it lives in the single
//! [`profiler_invariants_and_disabled_overhead`] test (the other tests
//! here only spawn subprocesses and never touch in-process state).

use std::process::Command;
use std::time::Instant;

use morlog_bench::results::{validate, HardwareOverhead, HostPerf, Value};
use morlog_bench::{RunSpec, SweepRunner, TimedRun};
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::DesignKind;
use morlog_workloads::WorkloadKind;

fn sweep_specs(txs: usize, seed: u64) -> Vec<RunSpec> {
    DesignKind::ALL
        .iter()
        .map(|&design| RunSpec::new(design, WorkloadKind::Hash, txs).seed(seed))
        .collect()
}

fn check_run_invariants(run: &TimedRun) {
    let label = format!("{} × {}", run.spec.design.label(), run.report.workload);
    assert!(
        !run.host.is_empty(),
        "{label}: enabled run recorded no profile"
    );
    let wall_ns = run.wall.as_nanos() as u64;
    assert!(
        run.host.total_ns() <= wall_ns,
        "{label}: exclusive phase-sum {} ns exceeds run wall {} ns",
        run.host.total_ns(),
        wall_ns
    );
    assert_eq!(
        run.host.phase_ns().iter().sum::<u64>(),
        run.host.total_ns(),
        "{label}: leaf attribution must cover every recorded path"
    );
    assert!(
        run.host.counter(HostCounter::EventsSimulated) > 0,
        "{label}: a completed run stepped the system"
    );
    assert!(
        run.host.counter(HostCounter::CacheLookups) > 0,
        "{label}: a hash run performs cache lookups"
    );
    let record = HostPerf::from(run).json();
    validate::<HostPerf>(&record)
        .unwrap_or_else(|e| panic!("{label}: host_perf record rejected: {e}"));
    for line in run.host.folded_lines("design;workload") {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{label}: folded line {line:?} has no count"));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("{label}: folded count {count:?} not an integer"));
        assert!(
            !stack.is_empty() && stack.split(';').all(|f| !f.is_empty()),
            "{label}: folded stack {stack:?} has an empty frame"
        );
    }
}

/// All flag-sensitive assertions in one test (see module docs).
#[test]
fn profiler_invariants_and_disabled_overhead() {
    // --- Enabled: invariants on serial and parallel sweeps. ---
    hostprof::force_enable();
    let specs = sweep_specs(150, 91_001);
    let serial = SweepRunner::with_jobs(1).run_specs(&specs);
    let parallel = SweepRunner::with_jobs(4).run_specs(&specs);
    for run in serial.iter().chain(&parallel) {
        check_run_invariants(run);
    }

    // Hot-path counters are functions of the simulated input alone, so
    // they agree exactly across shard counts (wall-times do not).
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.host.counters(),
            p.host.counters(),
            "{}: counters diverged between 1-job and 4-job sweeps",
            s.spec.design.label()
        );
    }

    // --- Disabled-path overhead gate at `quick_check 2000 hash` scale. ---
    // The budget claim is that with MORLOG_HOSTPROF=0 every
    // instrumentation site costs one relaxed load + branch, ≤2% of the
    // run. There is no uninstrumented build to A/B against (and raw
    // wall-clock A/Bs are noise-bound), so the gate projects instead:
    // measure the real per-call cost of a disabled scope in a tight
    // loop, multiply by a generous estimate of sites executed (from the
    // enabled run's own op counters), and require the projection to
    // stay under 2% of the measured disabled wall-time.
    // Debug builds simulate ~15× slower and skip the assertion below, so
    // they run a reduced sweep; release uses the mandated 2000-tx scale.
    let gate_txs = if cfg!(debug_assertions) { 300 } else { 2000 };
    let gate_specs = sweep_specs(gate_txs, 91_002);
    let enabled = SweepRunner::with_jobs(2).run_specs(&gate_specs);

    hostprof::force_disable();
    let _ = hostprof::take();
    let disabled = SweepRunner::with_jobs(2).run_specs(&gate_specs);
    for (e, d) in enabled.iter().zip(&disabled) {
        assert!(
            d.host.is_empty(),
            "{}: disabled run must record nothing",
            d.spec.design.label()
        );
        assert_eq!(
            e.report.stats,
            d.report.stats,
            "{}: profiling perturbed the simulation",
            e.spec.design.label()
        );
    }

    let reps: u64 = 4_000_000;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _guard = hostprof::scope(HostPhase::CoreIssue);
        hostprof::count(HostCounter::EventsSimulated, 1);
    }
    let per_site_pair_ns = t0.elapsed().as_nanos() as f64 / reps as f64;

    for (e, d) in enabled.iter().zip(&disabled) {
        // Site estimate: every event steps one core scope + one count,
        // each cache lookup / WQ op / log append is a scope + count, and
        // controller ticks/encoding/logging hooks are bounded by a
        // handful of scopes per event — 8× events covers them all.
        let sites = 8 * e.host.counter(HostCounter::EventsSimulated)
            + 2 * e.host.counter(HostCounter::CacheLookups)
            + 2 * e.host.counter(HostCounter::WqOps)
            + 2 * e.host.counter(HostCounter::LogAppends);
        let projected_ns = sites as f64 * per_site_pair_ns;
        let wall_ns = d.wall.as_nanos() as f64;
        let pct = 100.0 * projected_ns / wall_ns;
        // The ≤2% budget is a property of the shipped (release) build;
        // unoptimized per-call costs are 15–30× inflated, so in debug
        // the projection is reported but not asserted.
        println!(
            "{}: projected disabled overhead {pct:.3}% ({sites} sites × {per_site_pair_ns:.2} ns \
             over {:.1} ms wall)",
            d.spec.design.label(),
            wall_ns / 1e6
        );
        if !cfg!(debug_assertions) {
            assert!(
                pct <= 2.0,
                "{}: projected disabled-profiling overhead {pct:.3}% of {:.1} ms wall \
                 ({sites} sites × {per_site_pair_ns:.2} ns) exceeds the 2% budget",
                d.spec.design.label(),
                wall_ns / 1e6
            );
        }
    }
}

#[test]
fn malformed_hostprof_env_exits_2() {
    let tmp = std::env::temp_dir();
    // perf_report strict-parses the env eagerly at startup.
    let out = Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .arg("10")
        .env("MORLOG_HOSTPROF", "bogus")
        .env("MORLOG_RESULTS_DIR", &tmp)
        .output()
        .expect("spawn perf_report");
    assert_eq!(out.status.code(), Some(2), "perf_report must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MORLOG_HOSTPROF"), "stderr: {stderr}");

    // quick_check hits the lazy parse at its first instrumented scope.
    let out = Command::new(env!("CARGO_BIN_EXE_quick_check"))
        .args(["20", "hash"])
        .env("MORLOG_HOSTPROF", "2")
        .env("MORLOG_RESULTS_DIR", &tmp)
        .output()
        .expect("spawn quick_check");
    assert_eq!(out.status.code(), Some(2), "quick_check must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MORLOG_HOSTPROF"), "stderr: {stderr}");
}

#[test]
fn malformed_crash_matrix_seed_exits_2() {
    let tmp = std::env::temp_dir();
    for (arg, env, label) in [
        (None, Some("abc"), "MORLOG_SEED"),
        (Some("abc"), None, "seed argument"),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_matrix"));
        cmd.args(arg).env("MORLOG_RESULTS_DIR", &tmp);
        match env {
            Some(raw) => cmd.env("MORLOG_SEED", raw),
            None => cmd.env_remove("MORLOG_SEED"),
        };
        let out = cmd.output().expect("spawn crash_matrix");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains(label), "stderr: {stderr}");
        // The seed is parsed before the matrix header prints or any cell runs.
        assert!(
            out.stdout.is_empty(),
            "stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn malformed_quick_check_arguments_exit_2() {
    let tmp = std::env::temp_dir();
    for (args, label) in [
        (&["5O", "hash"][..], "transactions argument"),
        (&["0"], "transactions argument"),
        (&["50", "nosuch"], "workload argument"),
        (&["50", "hash", "medium"], "dataset argument"),
        (&["50", "hash", "small", "extra"], "unexpected argument"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_quick_check"))
            .args(args)
            .env("MORLOG_RESULTS_DIR", &tmp)
            .output()
            .expect("spawn quick_check");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(label), "{args:?} stderr: {stderr}");
        // Arguments are parsed before any design runs or prints.
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    // Any benchmark label selects its workload, in any case.
    let dir = tmp.join(format!("morlog-quick-check-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_quick_check"))
        .args(["20", "rbtree", "large"])
        .env("MORLOG_RESULTS_DIR", &dir)
        .output()
        .expect("spawn quick_check");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(dir.join("quick_check.json")).expect("results written");
    assert!(doc.contains("\"RBTree-Large\""), "{doc}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn perf_trend_reads_perf_history_env() {
    let dir = std::env::temp_dir().join(format!("morlog-perf-trend-{}", std::process::id()));
    let empty_results = dir.join("results");
    std::fs::create_dir_all(&empty_results).expect("create temp dir");
    let history = dir.join("history.jsonl");
    std::fs::write(
        &history,
        "{\"kind\":\"perf_history\",\"git\":\"abc1234\",\"unix_ms\":1,\"entries\":\
         [{\"design\":\"MorLog-SLDE\",\"workload\":\"hash\",\"sim_cycles\":4000,\
         \"wall_ms\":2.0,\"sim_rate_cps\":2000000.0,\"alloc_bytes\":0}]}\n",
    )
    .expect("write history");
    // The results directory holds no history: only MORLOG_PERF_HISTORY
    // leads to the file.
    let out = Command::new(env!("CARGO_BIN_EXE_perf_trend"))
        .env("MORLOG_PERF_HISTORY", &history)
        .env("MORLOG_RESULTS_DIR", &empty_results)
        .output()
        .expect("spawn perf_trend");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(history.to_str().unwrap()),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("MorLog-SLDE"), "stdout: {stdout}");
    assert!(stdout.contains("abc1234..abc1234"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_diff_ratio_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(["a.json", "b.json"])
        .env("MORLOG_DIFF_RATIO", "0")
        .output()
        .expect("spawn bench_diff");
    assert_eq!(out.status.code(), Some(2), "bench_diff must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MORLOG_DIFF_RATIO"), "stderr: {stderr}");
}

#[test]
fn well_formed_diff_ratio_gates_identical_files() {
    let dir = std::env::temp_dir().join("morlog-hostprof-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("ratio_ok.json");
    // A minimal valid results envelope (diffing validates the schema).
    let record = HardwareOverhead {
        log_registers_bytes: 10,
        l1_ext_bits_per_line: 0,
        undo_redo_buffer_bytes: 0,
        redo_buffer_bytes: 0,
        ulog_counters_bytes: 0,
    };
    let doc = format!(
        "{{\"bench\":\"unit\",\"schema_version\":{},\"git\":\"t\",\"jobs\":1,\
         \"wall_ms\":1.5,\"records\":[{}]}}",
        morlog_bench::results::SCHEMA_VERSION,
        record.json().to_json()
    );
    std::fs::write(&file, doc).expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(&file)
        .arg(&file)
        .env("MORLOG_DIFF_RATIO", "1.5")
        .output()
        .expect("spawn bench_diff");
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical files agree within any ratio; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ratio mode"), "stderr: {stderr}");
}
