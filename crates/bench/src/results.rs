//! Machine-readable result records.
//!
//! Every bench binary, alongside its printed table, writes a JSON document
//! under `results/` (override the directory with `MORLOG_RESULTS_DIR`):
//!
//! ```json
//! {
//!   "bench": "fig14_macro_throughput",
//!   "schema_version": 3,
//!   "git": "65c28e8",
//!   "jobs": 8,
//!   "wall_ms": 1234.5,
//!   "records": [ { "kind": "run", ... }, ... ]
//! }
//! ```
//!
//! Simulation runs use the `"run"` record kind (spec + full `SimStats`
//! counters + wall-clock); binaries that only profile traces or compute
//! overhead arithmetic emit their own record kinds through
//! [`ResultSink::push`]. The envelope and every `"run"` record are
//! validated by [`validate_document`], which the schema round-trip test
//! and CI exercise.
//!
//! Schema history: version 2 added the `stats.attr` cycle-attribution
//! object (one integer account per [`StallKind`] bucket; the accounts sum
//! to `cycles * threads`). Version 3 added `trace_dropped` on `"run"`
//! records plus the telemetry layer under `stats.hist.*` (commit-latency
//! and log-entry-size histograms as `{count, sum, min, max, p50, p90,
//! p99, buckets}` with sparse `[bucket, count]` pairs, and SLDE
//! encoder-choice counts) and `stats.series.*` (cycle-sampled occupancy
//! series as parallel `cycles`/`values` arrays plus the sample
//! `period`). The validator checks that every histogram's bucket counts
//! sum to its `count`, that quantiles are ordered `p50 <= p90 <= p99 <=
//! max`, and that every per-run series is cycle-monotone with equal
//! array lengths. Version 4 added the `"crash_check"` record kind
//! emitted by `crash_explore`: one record per checked design/mutation
//! pair carrying the crash-point model checker's counters (`events`,
//! `points_total`, `pruned`, `capped`, `explored`, `verified`,
//! `failures`) and the gate verdict (`passed`). The validator checks
//! the counter arithmetic: `points_total = events + 1`,
//! `explored + pruned + capped >= points_total` (the torn-drain variant
//! can explore each point twice), and `verified + failures = explored`.
//! Version 5 added the two record kinds emitted by `crash_fuzz`:
//! `"crash_fuzz"` carries one coverage-guided random campaign's counters
//! (`events`, `sampled`, `novel`, `pruned`, `executed`, `verified`,
//! `failures`, `coverage`) and the gate verdict (`passed`); the
//! validator checks `executed + pruned = sampled` and
//! `verified + failures = executed`. `"crash_diff"` carries one
//! differential cross-design run (`design_a`, `design_b`, `checked`,
//! `divergences`, `passed`, and the culprit label when diverging); the
//! validator checks `divergences <= checked`.
//! Version 6 added the `"host_perf"` record kind emitted by
//! `perf_report`: one record per design×workload point carrying the
//! host-profiling snapshot — exclusive per-phase wall nanoseconds
//! (`phase_ns.*`, one entry per [`HostPhase`] label, summing to
//! `profile_total_ns`), deterministic hot-path op counters
//! (`counters.*`, one entry per [`HostCounter`] label), per-phase
//! allocator statistics (`alloc_count.*` / `alloc_bytes.*`, the phase
//! labels plus an `unscoped` bucket), the run's `wall_ns`, `sim_cycles`,
//! and the headline `sim_rate_cps` (simulated cycles per host-second).
//! The validator checks that the phase times sum to `profile_total_ns`,
//! that `profile_total_ns <= wall_ns` (exclusive-time attribution can
//! never exceed the run's wall-clock), and that `sim_rate_cps` is
//! non-negative. Host-timing fields are machine-dependent: `bench_diff`
//! skips them by default and compares them within a factor in ratio
//! mode (see [`crate::diff`]).
//!
//! [`StallKind`]: morlog_sim_core::stats::StallKind
//! [`HostPhase`]: morlog_sim_core::hostprof::HostPhase
//! [`HostCounter`]: morlog_sim_core::hostprof::HostCounter

use std::sync::OnceLock;
use std::time::Instant;

use morlog_sim_core::hostprof::{HostCounter, HostPhase, HostProfile, ALLOC_SLOTS};
use morlog_sim_core::metrics::{
    Histogram, MetricsSet, SeriesSet, COMMIT_LATENCY_LABELS, ENCODER_CHOICE_LABELS, LOG_KIND_LABELS,
};
use morlog_sim_core::SimStats;

use crate::json::Json;
use crate::TimedRun;

/// Version stamp of the `results/*.json` envelope and record layout.
pub const SCHEMA_VERSION: u64 = 6;

/// Collects result records for one bench binary and writes
/// `results/<bench>.json` on [`ResultSink::finish`].
pub struct ResultSink {
    bench: String,
    jobs: usize,
    records: Vec<Json>,
    started: Instant,
}

impl ResultSink {
    /// A sink for the named bench binary; `jobs` is the sweep parallelism
    /// recorded in the envelope.
    pub fn new(bench: &str, jobs: usize) -> Self {
        ResultSink {
            bench: bench.to_string(),
            jobs,
            records: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Appends an arbitrary record. It must be an object with a `"kind"`
    /// string field (enforced by [`validate_document`]).
    pub fn push(&mut self, record: Json) {
        self.records.push(record);
    }

    /// Appends one `"run"` record for a timed simulation run.
    pub fn push_run(&mut self, run: &TimedRun) {
        self.records.push(run_record(run));
    }

    /// Appends `"run"` records for a whole sweep.
    pub fn push_runs<'a>(&mut self, runs: impl IntoIterator<Item = &'a TimedRun>) {
        for run in runs {
            self.push_run(run);
        }
    }

    /// Assembles the envelope document (also used by the schema tests).
    pub fn document(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::Str(self.bench.clone())),
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("git", Json::Str(git_describe())),
            ("jobs", Json::UInt(self.jobs as u64)),
            (
                "wall_ms",
                Json::Num(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("records", Json::Arr(self.records.clone())),
        ])
    }

    /// Writes `results/<bench>.json` (directory from `MORLOG_RESULTS_DIR`,
    /// default `results/`, created if missing). Reports the path on stderr
    /// so table output on stdout stays byte-identical across runs.
    pub fn finish(self) {
        let dir = morlog_sim_core::knobs::results_dir();
        let path = std::path::Path::new(&dir).join(format!("{}.json", self.bench));
        let doc = self.document();
        debug_assert_eq!(validate_document(&doc), Ok(()));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.to_json_pretty() + "\n"))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("results: wrote {}", path.display());
        }
    }
}

/// Builds the `"run"` record for one timed simulation run.
pub fn run_record(run: &TimedRun) -> Json {
    let spec = &run.spec;
    Json::obj(vec![
        ("kind", Json::Str("run".into())),
        ("design", Json::Str(spec.design.label().into())),
        ("workload", Json::Str(run.report.workload.clone())),
        ("workload_kind", Json::Str(spec.kind.label().into())),
        ("dataset", Json::Str(spec.dataset.label().into())),
        (
            "threads_requested",
            Json::UInt(spec.requested_threads() as u64),
        ),
        ("threads", Json::UInt(run.report.threads as u64)),
        ("transactions", Json::UInt(spec.transactions as u64)),
        ("expansion", Json::Bool(spec.expansion)),
        ("secure", Json::Str(spec.secure.label().into())),
        ("seed", Json::UInt(spec.seed)),
        ("tweaked", Json::Bool(spec.tweak.is_some())),
        ("throughput_tps", Json::Num(run.report.throughput())),
        ("wall_ms", Json::Num(run.wall.as_secs_f64() * 1e3)),
        ("trace_dropped", Json::UInt(run.report.trace_dropped)),
        ("stats", stats_json(&run.report.stats)),
    ])
}

/// Builds the `"host_perf"` record for one timed run's host-profiling
/// snapshot (schema v6). `phase_ns` attributes each recorded phase
/// path's exclusive time to its leaf phase; the allocator maps carry
/// the phase labels plus the `unscoped` bucket.
pub fn host_perf_record(run: &TimedRun) -> Json {
    let spec = &run.spec;
    let profile = &run.host;
    let phase_ns = profile.phase_ns();
    let phases = HostPhase::ALL
        .iter()
        .map(|&p| (p.label(), Json::UInt(phase_ns[p as usize])))
        .collect();
    let counters = HostCounter::ALL
        .iter()
        .map(|&c| (c.label(), Json::UInt(profile.counter(c))))
        .collect();
    let alloc_map = |values: [u64; ALLOC_SLOTS]| {
        let mut fields: Vec<(&str, Json)> = (0..ALLOC_SLOTS)
            .map(|slot| {
                (
                    HostProfile::alloc_slot_label(slot),
                    Json::UInt(values[slot]),
                )
            })
            .collect();
        fields.push(("total", Json::UInt(values.iter().sum())));
        Json::obj(fields)
    };
    Json::obj(vec![
        ("kind", Json::Str("host_perf".into())),
        ("design", Json::Str(spec.design.label().into())),
        ("workload", Json::Str(run.report.workload.clone())),
        ("threads", Json::UInt(run.report.threads as u64)),
        ("transactions", Json::UInt(spec.transactions as u64)),
        ("seed", Json::UInt(spec.seed)),
        ("sim_cycles", Json::UInt(run.report.stats.cycles)),
        ("wall_ns", Json::UInt(run.wall.as_nanos() as u64)),
        ("sim_rate_cps", Json::Num(run.sim_rate_cps())),
        ("profile_total_ns", Json::UInt(profile.total_ns())),
        ("phase_ns", Json::obj(phases)),
        ("counters", Json::obj(counters)),
        ("alloc_count", alloc_map(profile.alloc_count())),
        ("alloc_bytes", alloc_map(profile.alloc_bytes())),
    ])
}

/// Serializes one histogram: summary fields plus the sparse non-empty
/// buckets as `[bucket_index, count]` pairs. The exact 128-bit sum is
/// clamped to `u64::MAX` on overflow (unreachable for cycle counts).
pub fn hist_json(h: &Histogram) -> Json {
    let buckets = h
        .nonzero_buckets()
        .map(|(i, c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(c)]))
        .collect();
    Json::obj(vec![
        ("count", Json::UInt(h.count())),
        (
            "sum",
            Json::UInt(u64::try_from(h.sum()).unwrap_or(u64::MAX)),
        ),
        ("min", Json::UInt(h.min())),
        ("max", Json::UInt(h.max())),
        ("p50", Json::UInt(h.p50())),
        ("p90", Json::UInt(h.p90())),
        ("p99", Json::UInt(h.p99())),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Serializes the `stats.hist` object: commit-latency histograms, per
/// log-record-kind entry-size histograms, and encoder-choice counts.
pub fn metrics_hist_json(m: &MetricsSet) -> Json {
    let commit = m
        .commit
        .named()
        .into_iter()
        .map(|(name, h)| (name, hist_json(h)))
        .collect();
    let entry_bits = LOG_KIND_LABELS
        .iter()
        .zip(m.log_writes.entry_bits.iter())
        .map(|(&name, h)| (name, hist_json(h)))
        .collect();
    let choices = ENCODER_CHOICE_LABELS
        .iter()
        .zip(m.log_writes.encoder_choices.iter())
        .map(|(&name, &n)| (name, Json::UInt(n)))
        .collect();
    Json::obj(vec![
        ("commit", Json::obj(commit)),
        ("log_entry_bits", Json::obj(entry_bits)),
        ("encoder_choices", Json::obj(choices)),
    ])
}

/// Serializes the `stats.series` object: the sample period plus one
/// `{cycles, values}` pair of parallel arrays per sampled series.
pub fn series_json(s: &SeriesSet) -> Json {
    let mut fields = vec![("period", Json::UInt(s.period))];
    for (name, series) in s.named() {
        fields.push((
            name,
            Json::obj(vec![
                (
                    "cycles",
                    Json::Arr(series.cycles.iter().map(|&c| Json::UInt(c)).collect()),
                ),
                (
                    "values",
                    Json::Arr(series.values.iter().map(|&v| Json::UInt(v)).collect()),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Flattens every [`SimStats`] counter into a JSON object.
pub fn stats_json(s: &SimStats) -> Json {
    let cache = s
        .cache
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("hits", Json::UInt(l.hits)),
                ("misses", Json::UInt(l.misses)),
                ("writebacks", Json::UInt(l.writebacks)),
                ("evictions", Json::UInt(l.evictions)),
            ])
        })
        .collect();
    let m = &s.mem;
    let mem = Json::obj(vec![
        ("nvmm_reads", Json::UInt(m.nvmm_reads)),
        ("nvmm_writes", Json::UInt(m.nvmm_writes)),
        ("data_writes", Json::UInt(m.data_writes)),
        ("log_writes", Json::UInt(m.log_writes)),
        ("cells_programmed", Json::UInt(m.cells_programmed)),
        ("bits_programmed", Json::UInt(m.bits_programmed)),
        ("log_bits_programmed", Json::UInt(m.log_bits_programmed)),
        ("write_energy_pj", Json::Num(m.write_energy_pj)),
        ("log_write_energy_pj", Json::Num(m.log_write_energy_pj)),
        ("wq_full_stall_cycles", Json::UInt(m.wq_full_stall_cycles)),
        ("drains", Json::UInt(m.drains)),
        (
            "reads_blocked_by_drain",
            Json::UInt(m.reads_blocked_by_drain),
        ),
        ("silent_block_writes", Json::UInt(m.silent_block_writes)),
        ("read_wait_cycles", Json::UInt(m.read_wait_cycles)),
        ("log_overflow_growths", Json::UInt(m.log_overflow_growths)),
        ("faults_torn_drains", Json::UInt(m.faults_torn_drains)),
        ("faults_bit_flips", Json::UInt(m.faults_bit_flips)),
        ("write_verify_failures", Json::UInt(m.write_verify_failures)),
        ("write_verify_retries", Json::UInt(m.write_verify_retries)),
        ("stuck_slots_remapped", Json::UInt(m.stuck_slots_remapped)),
    ]);
    let l = &s.log;
    let log = Json::obj(vec![
        ("undo_redo_created", Json::UInt(l.undo_redo_created)),
        ("redo_created", Json::UInt(l.redo_created)),
        ("coalesced", Json::UInt(l.coalesced)),
        ("silent_discarded", Json::UInt(l.silent_discarded)),
        ("redo_discarded", Json::UInt(l.redo_discarded)),
        ("entries_written", Json::UInt(l.entries_written)),
        ("commit_records", Json::UInt(l.commit_records)),
        ("commit_stall_cycles", Json::UInt(l.commit_stall_cycles)),
        (
            "buffer_full_stall_cycles",
            Json::UInt(l.buffer_full_stall_cycles),
        ),
        ("post_commit_redo", Json::UInt(l.post_commit_redo)),
        (
            "log_region_full_stalls",
            Json::UInt(l.log_region_full_stalls),
        ),
    ]);
    let a = &s.attr;
    let attr = Json::obj(vec![
        ("busy", Json::UInt(a.busy)),
        ("read_wait", Json::UInt(a.read_wait)),
        ("drain_wait", Json::UInt(a.drain_wait)),
        ("log_buffer_stall", Json::UInt(a.log_buffer_stall)),
        ("wq_stall", Json::UInt(a.wq_stall)),
        ("commit_wait", Json::UInt(a.commit_wait)),
        ("idle", Json::UInt(a.idle)),
        ("total", Json::UInt(a.total())),
    ]);
    Json::obj(vec![
        ("cycles", Json::UInt(s.cycles)),
        (
            "transactions_committed",
            Json::UInt(s.transactions_committed),
        ),
        ("tx_stores", Json::UInt(s.tx_stores)),
        ("tx_loads", Json::UInt(s.tx_loads)),
        ("cache", Json::Arr(cache)),
        ("mem", mem),
        ("log", log),
        ("attr", attr),
        ("hist", metrics_hist_json(&s.metrics)),
        ("series", series_json(&s.metrics.series)),
    ])
}

/// `git describe --always --dirty` of this crate's source tree, or
/// `"unknown"` when git is unavailable.
///
/// The subprocess is pinned to `CARGO_MANIFEST_DIR` rather than the
/// process working directory, so a bench binary launched from an
/// unrelated repository (or from no repository at all) still stamps the
/// tree the code was built from. The answer cannot change within one
/// process, so it is computed once and memoized — sweeps that stamp
/// hundreds of records no longer fork git per record.
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

fn require<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing field {key:?}"))
}

fn require_kind(
    obj: &Json,
    key: &str,
    what: &str,
    check: impl Fn(&Json) -> bool,
    ty: &str,
) -> Result<(), String> {
    let v = require(obj, key, what)?;
    if check(v) {
        Ok(())
    } else {
        Err(format!("{what}: field {key:?} is not {ty}"))
    }
}

/// Validates a whole `results/*.json` document against the envelope and
/// record schemas.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_document(doc: &Json) -> Result<(), String> {
    require_kind(
        doc,
        "bench",
        "envelope",
        |v| v.as_str().is_some(),
        "a string",
    )?;
    let version = require(doc, "schema_version", "envelope")?
        .as_u64()
        .ok_or("envelope: schema_version is not an integer")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "envelope: schema_version {version} != {SCHEMA_VERSION}"
        ));
    }
    require_kind(doc, "git", "envelope", |v| v.as_str().is_some(), "a string")?;
    let jobs = require(doc, "jobs", "envelope")?
        .as_u64()
        .ok_or("envelope: jobs is not an integer")?;
    if jobs == 0 {
        return Err("envelope: jobs must be >= 1".to_string());
    }
    require_kind(
        doc,
        "wall_ms",
        "envelope",
        |v| v.as_f64().is_some(),
        "a number",
    )?;
    let records = require(doc, "records", "envelope")?
        .as_arr()
        .ok_or("envelope: records is not an array")?;
    for (i, record) in records.iter().enumerate() {
        let kind = record
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing string field \"kind\""))?;
        if kind == "run" {
            validate_run_record(record).map_err(|e| format!("record {i}: {e}"))?;
        }
        if kind == "crash_check" {
            validate_crash_check_record(record).map_err(|e| format!("record {i}: {e}"))?;
        }
        if kind == "crash_fuzz" {
            validate_crash_fuzz_record(record).map_err(|e| format!("record {i}: {e}"))?;
        }
        if kind == "crash_diff" {
            validate_crash_diff_record(record).map_err(|e| format!("record {i}: {e}"))?;
        }
        if kind == "host_perf" {
            validate_host_perf_record(record).map_err(|e| format!("record {i}: {e}"))?;
        }
    }
    Ok(())
}

/// Validates one `"host_perf"` record (schema v6): the host-profiling
/// snapshot's fields must be present and arithmetically consistent —
/// the per-phase exclusive times sum to `profile_total_ns`, which never
/// exceeds the run's `wall_ns`, and the allocator maps carry every
/// phase label plus the `unscoped` bucket with a matching `total`.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_host_perf_record(record: &Json) -> Result<(), String> {
    for key in ["design", "workload"] {
        require_kind(
            record,
            key,
            "host_perf",
            |v| v.as_str().is_some(),
            "a string",
        )?;
    }
    let counter = |key: &str| -> Result<u64, String> {
        require(record, key, "host_perf")?
            .as_u64()
            .ok_or_else(|| format!("host_perf: field {key:?} is not an integer"))
    };
    counter("threads")?;
    counter("transactions")?;
    counter("seed")?;
    counter("sim_cycles")?;
    let wall_ns = counter("wall_ns")?;
    let profile_total_ns = counter("profile_total_ns")?;
    let rate = require(record, "sim_rate_cps", "host_perf")?
        .as_f64()
        .ok_or("host_perf: sim_rate_cps is not a number")?;
    if !rate.is_finite() || rate < 0.0 {
        return Err(format!(
            "host_perf: sim_rate_cps {rate} must be finite and >= 0"
        ));
    }
    if profile_total_ns > wall_ns {
        return Err(format!(
            "host_perf: profile_total_ns {profile_total_ns} exceeds wall_ns {wall_ns}"
        ));
    }
    let phases = require(record, "phase_ns", "host_perf")?;
    let mut phase_sum = 0u64;
    for phase in HostPhase::ALL {
        phase_sum += require(phases, phase.label(), "host_perf.phase_ns")?
            .as_u64()
            .ok_or_else(|| {
                format!(
                    "host_perf.phase_ns: field {:?} is not an integer",
                    phase.label()
                )
            })?;
    }
    if phase_sum != profile_total_ns {
        return Err(format!(
            "host_perf: phase_ns sums to {phase_sum} but profile_total_ns says {profile_total_ns}"
        ));
    }
    let counters = require(record, "counters", "host_perf")?;
    for c in HostCounter::ALL {
        require_kind(
            counters,
            c.label(),
            "host_perf.counters",
            |v| v.as_u64().is_some(),
            "an integer",
        )?;
    }
    for map_key in ["alloc_count", "alloc_bytes"] {
        let map = require(record, map_key, "host_perf")?;
        let what = format!("host_perf.{map_key}");
        let mut sum = 0u64;
        for slot in 0..ALLOC_SLOTS {
            let label = HostProfile::alloc_slot_label(slot);
            sum += require(map, label, &what)?
                .as_u64()
                .ok_or_else(|| format!("{what}: field {label:?} is not an integer"))?;
        }
        let total = require(map, "total", &what)?
            .as_u64()
            .ok_or_else(|| format!("{what}: total is not an integer"))?;
        if sum != total {
            return Err(format!("{what}: slots sum to {sum} but total says {total}"));
        }
    }
    Ok(())
}

/// Validates one `"crash_fuzz"` record (schema v5): a coverage-guided
/// random campaign's counters must be present and arithmetically
/// consistent.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_crash_fuzz_record(record: &Json) -> Result<(), String> {
    for key in ["design", "workload", "mutation"] {
        require_kind(
            record,
            key,
            "crash_fuzz",
            |v| v.as_str().is_some(),
            "a string",
        )?;
    }
    require_kind(
        record,
        "passed",
        "crash_fuzz",
        |v| matches!(v, Json::Bool(_)),
        "a bool",
    )?;
    let counter = |key: &str| -> Result<u64, String> {
        require(record, key, "crash_fuzz")?
            .as_u64()
            .ok_or_else(|| format!("crash_fuzz: field {key:?} is not an integer"))
    };
    counter("events")?;
    counter("novel")?;
    counter("coverage")?;
    let sampled = counter("sampled")?;
    let pruned = counter("pruned")?;
    let executed = counter("executed")?;
    let verified = counter("verified")?;
    let failures = counter("failures")?;
    if executed + pruned != sampled {
        return Err(format!(
            "crash_fuzz: executed {executed} + pruned {pruned} != sampled {sampled}"
        ));
    }
    if verified + failures != executed {
        return Err(format!(
            "crash_fuzz: verified {verified} + failures {failures} != executed {executed}"
        ));
    }
    Ok(())
}

/// Validates one `"crash_diff"` record (schema v5): a differential
/// cross-design run.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_crash_diff_record(record: &Json) -> Result<(), String> {
    for key in ["design_a", "design_b", "workload", "culprit"] {
        require_kind(
            record,
            key,
            "crash_diff",
            |v| v.as_str().is_some(),
            "a string",
        )?;
    }
    require_kind(
        record,
        "passed",
        "crash_diff",
        |v| matches!(v, Json::Bool(_)),
        "a bool",
    )?;
    let counter = |key: &str| -> Result<u64, String> {
        require(record, key, "crash_diff")?
            .as_u64()
            .ok_or_else(|| format!("crash_diff: field {key:?} is not an integer"))
    };
    let checked = counter("checked")?;
    let divergences = counter("divergences")?;
    if divergences > checked {
        return Err(format!(
            "crash_diff: divergences {divergences} > checked {checked}"
        ));
    }
    Ok(())
}

/// Validates one `"crash_check"` record (schema v4): the crash-point
/// model checker's per-design counters must be present and arithmetically
/// consistent.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_crash_check_record(record: &Json) -> Result<(), String> {
    for key in ["design", "workload", "mutation"] {
        require_kind(
            record,
            key,
            "crash_check",
            |v| v.as_str().is_some(),
            "a string",
        )?;
    }
    require_kind(
        record,
        "passed",
        "crash_check",
        |v| matches!(v, Json::Bool(_)),
        "a bool",
    )?;
    let counter = |key: &str| -> Result<u64, String> {
        require(record, key, "crash_check")?
            .as_u64()
            .ok_or_else(|| format!("crash_check: field {key:?} is not an integer"))
    };
    let events = counter("events")?;
    let points_total = counter("points_total")?;
    let pruned = counter("pruned")?;
    let capped = counter("capped")?;
    let explored = counter("explored")?;
    let verified = counter("verified")?;
    let failures = counter("failures")?;
    if points_total != events + 1 {
        return Err(format!(
            "crash_check: points_total {points_total} != events {events} + 1"
        ));
    }
    if explored + pruned + capped < points_total {
        return Err(format!(
            "crash_check: explored {explored} + pruned {pruned} + capped {capped} \
             does not cover points_total {points_total}"
        ));
    }
    if verified + failures != explored {
        return Err(format!(
            "crash_check: verified {verified} + failures {failures} != explored {explored}"
        ));
    }
    Ok(())
}

/// Validates one `"run"` record.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_run_record(record: &Json) -> Result<(), String> {
    for key in ["design", "workload", "workload_kind", "dataset", "secure"] {
        require_kind(record, key, "run", |v| v.as_str().is_some(), "a string")?;
    }
    for key in ["threads_requested", "threads", "transactions", "seed"] {
        require_kind(record, key, "run", |v| v.as_u64().is_some(), "an integer")?;
    }
    for key in ["expansion", "tweaked"] {
        require_kind(record, key, "run", |v| matches!(v, Json::Bool(_)), "a bool")?;
    }
    for key in ["throughput_tps", "wall_ms"] {
        require_kind(record, key, "run", |v| v.as_f64().is_some(), "a number")?;
    }
    require_kind(
        record,
        "trace_dropped",
        "run",
        |v| v.as_u64().is_some(),
        "an integer",
    )?;
    let stats = require(record, "stats", "run")?;
    for key in ["cycles", "transactions_committed", "tx_stores", "tx_loads"] {
        require_kind(
            stats,
            key,
            "run.stats",
            |v| v.as_u64().is_some(),
            "an integer",
        )?;
    }
    let cache = require(stats, "cache", "run.stats")?
        .as_arr()
        .ok_or("run.stats: cache is not an array")?;
    if cache.len() != 3 {
        return Err("run.stats: cache must have 3 levels".to_string());
    }
    for key in ["nvmm_writes", "log_writes", "bits_programmed"] {
        require_kind(
            require(stats, "mem", "run.stats")?,
            key,
            "run.stats.mem",
            |v| v.as_u64().is_some(),
            "an integer",
        )?;
    }
    require_kind(
        require(stats, "log", "run.stats")?,
        "entries_written",
        "run.stats.log",
        |v| v.as_u64().is_some(),
        "an integer",
    )?;
    let attr = require(stats, "attr", "run.stats")?;
    let mut sum = 0u64;
    for key in [
        "busy",
        "read_wait",
        "drain_wait",
        "log_buffer_stall",
        "wq_stall",
        "commit_wait",
        "idle",
    ] {
        sum += require(attr, key, "run.stats.attr")?
            .as_u64()
            .ok_or_else(|| format!("run.stats.attr: field {key:?} is not an integer"))?;
    }
    let total = require(attr, "total", "run.stats.attr")?
        .as_u64()
        .ok_or("run.stats.attr: total is not an integer")?;
    if sum != total {
        return Err(format!(
            "run.stats.attr: accounts sum to {sum} but total says {total}"
        ));
    }
    let hist = require(stats, "hist", "run.stats")?;
    let commit = require(hist, "commit", "run.stats.hist")?;
    for name in COMMIT_LATENCY_LABELS {
        let h = require(commit, name, "run.stats.hist.commit")?;
        validate_hist(h, &format!("run.stats.hist.commit.{name}"))?;
    }
    let entry_bits = require(hist, "log_entry_bits", "run.stats.hist")?;
    for name in LOG_KIND_LABELS {
        let h = require(entry_bits, name, "run.stats.hist.log_entry_bits")?;
        validate_hist(h, &format!("run.stats.hist.log_entry_bits.{name}"))?;
    }
    let choices = require(hist, "encoder_choices", "run.stats.hist")?;
    for name in ENCODER_CHOICE_LABELS {
        require_kind(
            choices,
            name,
            "run.stats.hist.encoder_choices",
            |v| v.as_u64().is_some(),
            "an integer",
        )?;
    }
    let series = require(stats, "series", "run.stats")?;
    require_kind(
        series,
        "period",
        "run.stats.series",
        |v| v.as_u64().is_some(),
        "an integer",
    )?;
    for name in morlog_sim_core::metrics::SERIES_LABELS {
        let s = require(series, name, "run.stats.series")?;
        let what = format!("run.stats.series.{name}");
        let cycles = require(s, "cycles", &what)?
            .as_arr()
            .ok_or_else(|| format!("{what}: cycles is not an array"))?;
        let values = require(s, "values", &what)?
            .as_arr()
            .ok_or_else(|| format!("{what}: values is not an array"))?;
        if cycles.len() != values.len() {
            return Err(format!(
                "{what}: cycles has {} entries but values has {}",
                cycles.len(),
                values.len()
            ));
        }
        let mut last: Option<u64> = None;
        for (i, c) in cycles.iter().enumerate() {
            let c = c
                .as_u64()
                .ok_or_else(|| format!("{what}: cycles[{i}] is not an integer"))?;
            if let Some(prev) = last {
                if c < prev {
                    return Err(format!(
                        "{what}: cycles[{i}] = {c} goes backwards from {prev}"
                    ));
                }
            }
            last = Some(c);
        }
    }
    Ok(())
}

/// Validates one serialized histogram: required summary fields, bucket
/// counts that sum to `count`, and quantile ordering
/// `p50 <= p90 <= p99 <= max`.
fn validate_hist(h: &Json, what: &str) -> Result<(), String> {
    for key in ["count", "sum", "min", "max", "p50", "p90", "p99"] {
        require_kind(h, key, what, |v| v.as_u64().is_some(), "an integer")?;
    }
    let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
    let buckets = require(h, "buckets", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: buckets is not an array"))?;
    let mut bucket_sum = 0u64;
    for (i, pair) in buckets.iter().enumerate() {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what}: buckets[{i}] is not a [bucket, count] pair"))?;
        let idx = pair[0]
            .as_u64()
            .ok_or_else(|| format!("{what}: buckets[{i}][0] is not an integer"))?;
        if idx as usize >= morlog_sim_core::metrics::HIST_BUCKETS {
            return Err(format!("{what}: buckets[{i}] index {idx} out of range"));
        }
        bucket_sum += pair[1]
            .as_u64()
            .ok_or_else(|| format!("{what}: buckets[{i}][1] is not an integer"))?;
    }
    if bucket_sum != count {
        return Err(format!(
            "{what}: bucket counts sum to {bucket_sum} but count says {count}"
        ));
    }
    let q = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
    if count > 0 && !(q("p50") <= q("p90") && q("p90") <= q("p99") && q("p99") <= q("max")) {
        return Err(format!(
            "{what}: quantiles must be ordered p50 <= p90 <= p99 <= max"
        ));
    }
    Ok(())
}
