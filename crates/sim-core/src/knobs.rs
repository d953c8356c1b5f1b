//! The environment-knob registry: every `MORLOG_*` variable the
//! repository reads, with its default and effect, parsed in one place.
//!
//! [`KNOBS`] names and documents each variable; the README's
//! "Environment variables" table is tested against it. Each knob has one
//! typed accessor below, which reads the variable through a shared value
//! grammar. An unset variable yields the knob's default; a *malformed*
//! one aborts the process with **exit code 2** and an `error:` line that
//! names the variable, so a typo never silently runs the default.
//! Command-line values that share a knob's grammar (`bench_diff
//! --threshold`, `crash_matrix`'s seed argument, `quick_check`'s
//! transaction count) go through [`or_exit`], the same exit-2 path.

use std::path::PathBuf;
use std::str::FromStr;

use morlog_log::SyncMode;

use crate::timing::Cycle;
use crate::trace::DEFAULT_TRACE_CAPACITY;

/// One documented environment variable.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The variable name.
    pub name: &'static str,
    /// What an unset variable means (README "Default" column).
    pub default: &'static str,
    /// What the variable controls (README "Effect" column).
    pub effect: &'static str,
}

/// Declares one private `Knob` const per row plus the [`KNOBS`] table
/// listing them in order.
macro_rules! knobs {
    ($($id:ident = $name:literal, $default:literal, $effect:literal;)*) => {
        $(const $id: Knob = Knob { name: $name, default: $default, effect: $effect };)*

        /// Every environment variable the repository reads, in README order.
        pub const KNOBS: [Knob; 19] = [$($id),*];
    };
}

knobs! {
    TXS = "MORLOG_TXS", "per-binary", "Transactions per workload in the sweep binaries";
    JOBS = "MORLOG_JOBS", "available parallelism",
        "Sweep worker threads (`1` = serial reference path)";
    SEED = "MORLOG_SEED", "`42`", "`crash_matrix` base seed (its first argument wins)";
    RESULTS_DIR = "MORLOG_RESULTS_DIR", "`results`", "Where `*.json` result documents are written";
    SAMPLE_CYCLES = "MORLOG_SAMPLE_CYCLES", "`8192`",
        "Occupancy-series sampling period (`0` disables)";
    TRACE = "MORLOG_TRACE", "off", "Event-trace ring capacity (`1` = default 65536)";
    TRACE_DIR = "MORLOG_TRACE_DIR", "unset (no dump)", "Where JSONL trace dumps land";
    HOSTPROF = "MORLOG_HOSTPROF", "`0`",
        "Host wall-time/allocation profiler (`1` enables; disabled path ≤2%)";
    PERF_HISTORY = "MORLOG_PERF_HISTORY", "`<results>/perf_history.jsonl`",
        "Perf-trajectory file `perf_report` appends to and `perf_trend` reads";
    DIFF_THRESHOLD = "MORLOG_DIFF_THRESHOLD", "`2`", "`bench_diff` regression threshold, percent";
    DIFF_RATIO = "MORLOG_DIFF_RATIO", "off",
        "`bench_diff` ratio mode: timing fields must agree within this factor (≥1)";
    CHECK_SHARDS = "MORLOG_CHECK_SHARDS", "`MORLOG_JOBS`", "Crash-checker replay fan-out";
    CHECK_MAX_POINTS = "MORLOG_CHECK_MAX_POINTS", "unlimited",
        "Cap on explored crash points (capped run ≠ proof)";
    FUZZ_POINTS = "MORLOG_FUZZ_POINTS", "`8`", "Base draws per fuzz campaign round";
    FUZZ_BUDGET_MS = "MORLOG_FUZZ_BUDGET_MS", "off", "Wall-clock budget for extra fuzz rounds";
    CX_DIR = "MORLOG_CX_DIR", "`counterexamples`", "Where minimized counterexample traces land";
    CX_MAX = "MORLOG_CX_MAX", "unlimited", "Cap on stored counterexample artifacts";
    LOG_DIR = "MORLOG_LOG_DIR", "OS temp dir",
        "Directory for `morlog-log`'s mmap backing file (must exist)";
    LOG_SYNC = "MORLOG_LOG_SYNC", "`always`", "`morlog-log` fsync policy: `always` or `never`";
}

// ---- value grammars -------------------------------------------------------
//
// Each returns the parsed value or a predicate ("must be ...") that
// [`or_exit`] prefixes with `NAME="raw"`. Surrounding whitespace is
// ignored everywhere except in plain paths.

/// A positive integer: `0`, signs, fractions and suffixes like `100k`
/// are rejected (`MORLOG_TXS`, `MORLOG_JOBS`, `quick_check`'s
/// transaction count).
pub fn positive<T: FromStr + Default + PartialEq>(raw: &str) -> Result<T, String> {
    match raw.trim().parse::<T>() {
        Ok(n) if n == T::default() => Err("must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => {
            Err("is not a plain positive integer (suffixes like \"100k\" are not supported)".into())
        }
    }
}

/// A non-negative integer count (`0` allowed).
fn count<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| "is not a plain non-negative integer".into())
}

/// A switch: empty, `0` or `false` is off; `1` or `true` is on.
fn switch(raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "" | "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        _ => Err("must be 0/false or 1/true".into()),
    }
}

/// `MORLOG_TRACE`'s form: a [`switch`] (on means
/// [`DEFAULT_TRACE_CAPACITY`]) or a ring capacity in records.
fn trace_capacity(raw: &str) -> Result<Option<usize>, String> {
    match switch(raw) {
        Ok(on) => Ok(on.then_some(DEFAULT_TRACE_CAPACITY)),
        Err(_) => raw
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| "must be 0/false, 1/true, or a ring capacity in records".into()),
    }
}

/// A finite number no smaller than `min`.
fn float_at_least(raw: &str, min: f64) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v >= min => Ok(v),
        _ => Err(format!("must be a finite number >= {min}")),
    }
}

/// A regression threshold in percent: a finite number ≥ 0
/// (`MORLOG_DIFF_THRESHOLD`, `bench_diff --threshold`).
pub fn threshold_pct(raw: &str) -> Result<f64, String> {
    float_at_least(raw, 0.0)
}

/// A ratio-mode tolerance factor: a finite number ≥ 1; `f` accepts
/// timing values up to `f`× apart (`MORLOG_DIFF_RATIO`, `bench_diff
/// --ratio`).
pub fn ratio_factor(raw: &str) -> Result<f64, String> {
    float_at_least(raw, 1.0)
}

/// An existing directory.
fn existing_dir(raw: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(raw.trim());
    dir.is_dir()
        .then_some(dir)
        .ok_or_else(|| "is not an existing directory".into())
}

/// A path, taken verbatim.
fn path(raw: &str) -> Result<String, String> {
    Ok(raw.to_string())
}

// ---- the one parse path -----------------------------------------------------

/// Parses `raw` with `grammar`; an error message starts with
/// `label="raw"`.
fn parse<T>(
    label: &str,
    raw: &str,
    grammar: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    grammar(raw).map_err(|e| format!("{label}={raw:?} {e}"))
}

/// Parses `raw` with `grammar`, or prints `error: label="raw" ...` and
/// exits with code 2.
pub fn or_exit<T>(label: &str, raw: &str, grammar: impl FnOnce(&str) -> Result<T, String>) -> T {
    parse(label, raw, grammar).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The knob's value, `None` when unset (or not valid Unicode).
fn read<T>(knob: &Knob, grammar: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(knob.name).ok()?;
    Some(or_exit(knob.name, &raw, grammar))
}

// ---- typed accessors --------------------------------------------------------

/// Transactions per workload: `default` unless `MORLOG_TXS` is set.
pub fn txs(default: usize) -> usize {
    read(&TXS, positive).unwrap_or(default)
}

/// Sweep worker threads (`MORLOG_JOBS`), default the machine's
/// available parallelism.
pub fn jobs() -> usize {
    read(&JOBS, positive)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `crash_matrix`'s base seed: `arg` (its first argument) when given,
/// else `MORLOG_SEED`, else 42.
pub fn seed(arg: Option<&str>) -> u64 {
    match arg {
        Some(raw) => or_exit("seed argument", raw, count),
        None => read(&SEED, count).unwrap_or(42),
    }
}

/// Directory for `results/*.json` documents (`MORLOG_RESULTS_DIR`).
pub fn results_dir() -> String {
    read(&RESULTS_DIR, path).unwrap_or_else(|| "results".into())
}

/// Occupancy-series sample period (`MORLOG_SAMPLE_CYCLES`; `0`
/// disables). `None` keeps the configured period.
pub fn sample_cycles() -> Option<Cycle> {
    read(&SAMPLE_CYCLES, count)
}

/// Event-trace ring capacity (`MORLOG_TRACE`); `None` is off.
pub fn trace() -> Option<usize> {
    read(&TRACE, trace_capacity).flatten()
}

/// Where JSONL trace dumps land (`MORLOG_TRACE_DIR`); `None` means no
/// dump.
pub fn trace_dir() -> Option<String> {
    read(&TRACE_DIR, path)
}

/// Whether the host profiler is on (`MORLOG_HOSTPROF`).
pub fn hostprof() -> bool {
    read(&HOSTPROF, switch).unwrap_or(false)
}

/// The perf-history file `perf_report` appends to and `perf_trend`
/// reads (`MORLOG_PERF_HISTORY`, default in [`results_dir`]).
pub fn perf_history() -> String {
    read(&PERF_HISTORY, path).unwrap_or_else(|| format!("{}/perf_history.jsonl", results_dir()))
}

/// `bench_diff`'s regression threshold in percent
/// (`MORLOG_DIFF_THRESHOLD`, default 2).
pub fn diff_threshold() -> f64 {
    read(&DIFF_THRESHOLD, threshold_pct).unwrap_or(2.0)
}

/// `bench_diff`'s ratio-mode factor (`MORLOG_DIFF_RATIO`); `None` skips
/// timing fields.
pub fn diff_ratio() -> Option<f64> {
    read(&DIFF_RATIO, ratio_factor)
}

/// Crash-checker replay workers (`MORLOG_CHECK_SHARDS`, default
/// [`jobs`]).
pub fn check_shards() -> usize {
    read(&CHECK_SHARDS, positive).unwrap_or_else(jobs)
}

/// Cap on explored crash points (`MORLOG_CHECK_MAX_POINTS`); `None`
/// explores exhaustively.
pub fn check_max_points() -> Option<u64> {
    read(&CHECK_MAX_POINTS, positive)
}

/// Base crash points per fuzz campaign round (`MORLOG_FUZZ_POINTS`).
/// The default 8 lets the mutant campaigns fail dense (the teeth test
/// catches both sabotages at 6) and stays cheap enough for a per-PR
/// smoke job. Equal seeds and points give byte-identical reports.
pub fn fuzz_points() -> u64 {
    read(&FUZZ_POINTS, positive).unwrap_or(8)
}

/// Wall-clock budget for extra fuzz rounds (`MORLOG_FUZZ_BUDGET_MS`);
/// `None` runs the configured rounds. A budgeted report depends on
/// machine speed, so use [`fuzz_points`] wherever determinism matters.
pub fn fuzz_budget_ms() -> Option<u64> {
    read(&FUZZ_BUDGET_MS, positive)
}

/// Where counterexample traces land (`MORLOG_CX_DIR`).
pub fn cx_dir() -> String {
    read(&CX_DIR, path).unwrap_or_else(|| "counterexamples".into())
}

/// Cap on counterexample files written per process (`MORLOG_CX_MAX`);
/// `None` is unbounded.
pub fn cx_max() -> Option<u64> {
    read(&CX_MAX, positive)
}

/// Directory for `morlog-log` backing files (`MORLOG_LOG_DIR`, default
/// the OS temp dir).
pub fn log_dir() -> PathBuf {
    read(&LOG_DIR, existing_dir).unwrap_or_else(std::env::temp_dir)
}

/// `morlog-log`'s fsync policy (`MORLOG_LOG_SYNC`, default `always`).
pub fn log_sync() -> SyncMode {
    read(&LOG_SYNC, str::parse).unwrap_or(SyncMode::Always)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Checks one input row: `want` is the parsed value, or `None` when
    /// the value must be rejected with a message naming the knob.
    fn row<T: PartialEq + Debug>(
        knob: &Knob,
        grammar: fn(&str) -> Result<T, String>,
        raw: &str,
        want: Option<T>,
    ) {
        match (parse(knob.name, raw, grammar), want) {
            (Ok(got), Some(want)) => assert_eq!(got, want, "{}={raw:?}", knob.name),
            (Err(e), None) => assert!(e.starts_with(&format!("{}=", knob.name)), "{e}"),
            (got, want) => panic!("{}={raw:?}: got {got:?}, want {want:?}", knob.name),
        }
    }

    /// `rows!(KNOB, grammar, [(raw, want), ...])`: one [`row`] per input.
    macro_rules! rows {
        ($knob:expr, $grammar:expr, [$(($raw:expr, $want:expr)),* $(,)?]) => {
            $(row(&$knob, $grammar, $raw, $want);)*
        };
    }

    /// Every accept/reject case the per-knob parsers were tested with,
    /// one input per row.
    #[test]
    fn grammar_rows() {
        let cap = Some(DEFAULT_TRACE_CAPACITY);
        let tmp = std::env::temp_dir();
        let tmp_raw = tmp.to_str().unwrap();
        rows!(
            TXS,
            positive::<usize>,
            [
                ("100k", None),
                ("1e5", None),
                ("", None),
                ("0", None),
                ("-5", None),
                (" 500 ", Some(500)),
            ]
        );
        rows!(
            JOBS,
            positive::<usize>,
            [("many", None), ("0", None), ("4", Some(4))]
        );
        rows!(
            SEED,
            count::<u64>,
            [
                ("0", Some(0)),
                (" 7 ", Some(7)),
                ("abc", None),
                ("-1", None),
                ("", None),
            ]
        );
        rows!(
            SAMPLE_CYCLES,
            count::<Cycle>,
            [
                ("0", Some(0)),
                (" 4096 ", Some(4096)),
                (" 8192 ", Some(8192)),
                ("", None),
                ("8k", None),
                ("-1", None),
                ("1.5", None),
            ]
        );
        rows!(
            TRACE,
            trace_capacity,
            [
                ("", Some(None)),
                ("0", Some(None)),
                ("false", Some(None)),
                ("1", Some(cap)),
                ("true", Some(cap)),
                ("4096", Some(Some(4096))),
                ("yes", None),
                ("64k", None),
                ("-3", None),
            ]
        );
        rows!(
            HOSTPROF,
            switch,
            [
                ("", Some(false)),
                ("0", Some(false)),
                ("false", Some(false)),
                ("1", Some(true)),
                ("true", Some(true)),
                ("yes", None),
                ("2", None),
                ("on", None),
            ]
        );
        rows!(
            DIFF_THRESHOLD,
            threshold_pct,
            [
                ("2.5", Some(2.5)),
                (" 0 ", Some(0.0)),
                ("", None),
                ("-1", None),
                ("inf", None),
                ("2%", None),
                ("nan", None),
            ]
        );
        rows!(
            DIFF_RATIO,
            ratio_factor,
            [
                ("1", Some(1.0)),
                (" 50 ", Some(50.0)),
                ("0.5", None),
                ("0", None),
                ("", None),
                ("inf", None),
                ("nan", None),
                ("10x", None),
            ]
        );
        rows!(
            CHECK_SHARDS,
            positive::<usize>,
            [
                ("4", Some(4)),
                (" 1 ", Some(1)),
                ("0", None),
                ("four", None),
                ("1.5", None),
            ]
        );
        rows!(
            CHECK_MAX_POINTS,
            positive::<u64>,
            [
                ("128", Some(128)),
                (" 7 ", Some(7)),
                ("0", None),
                ("10k", None),
                ("-3", None),
                ("", None),
            ]
        );
        rows!(
            FUZZ_POINTS,
            positive::<u64>,
            [("6", Some(6)), ("0", None), ("10k", None)]
        );
        rows!(
            FUZZ_BUDGET_MS,
            positive::<u64>,
            [("600000", Some(600_000)), ("0", None), ("5s", None),]
        );
        rows!(
            CX_MAX,
            positive::<u64>,
            [
                ("16", Some(16)),
                (" 1 ", Some(1)),
                ("0", None),
                ("10k", None),
                ("-2", None),
                ("", None),
            ]
        );
        rows!(
            LOG_DIR,
            existing_dir,
            [
                (tmp_raw, Some(tmp.clone())),
                ("", None),
                ("   ", None),
                ("/no/such/dir/for/morlog/tests", None),
            ]
        );
        rows!(
            LOG_SYNC,
            str::parse::<SyncMode>,
            [
                ("always", Some(SyncMode::Always)),
                (" never ", Some(SyncMode::Never)),
                ("yes", None),
                ("ALWAYS", None),
                ("", None),
            ]
        );
        for knob in [RESULTS_DIR, TRACE_DIR, PERF_HISTORY, CX_DIR] {
            rows!(
                knob,
                path,
                [
                    ("results-ci", Some("results-ci".into())),
                    (" a b ", Some(" a b ".into())),
                    ("", Some(String::new())),
                ]
            );
        }
    }

    /// The README's environment table is [`KNOBS`], row for row.
    #[test]
    fn readme_table_matches_registry() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).expect("read README.md");
        let rows: Vec<&str> = readme
            .lines()
            .skip_while(|l| *l != "| Variable | Default | Effect |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        let want: Vec<String> = KNOBS
            .iter()
            .map(|k| format!("| `{}` | {} | {} |", k.name, k.default, k.effect))
            .collect();
        assert_eq!(rows, want);
    }
}
