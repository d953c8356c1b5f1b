//! Schema-aware perf-regression gate over `results/*.json` documents.
//!
//! ```text
//! bench_diff <baseline> <candidate> [--threshold <pct>] [--ratio <factor>]
//! ```
//!
//! `baseline` and `candidate` are either two JSON files or two
//! directories (compared pairwise by file name over their `.json`
//! intersection). Each leaf is treated by its field's declared class
//! (`morlog_bench::results`): volatile fields (`git`, `jobs`) are
//! excluded; deterministic ones — counters, histogram buckets, series
//! samples — are compared exactly, and non-zero deltas are printed as
//! per-metric percentages.
//!
//! Timing fields (wall-clock, per-phase nanoseconds, `sim_rate_cps`,
//! allocator volumes) are machine-dependent: by default they are
//! skipped, but in **ratio mode**
//! (`--ratio <factor>` or `MORLOG_DIFF_RATIO`) they participate, and a
//! move beyond the multiplicative factor fails when it goes the worse
//! way (slower times, more allocation, a lower `sim_rate_cps`) and is
//! reported as an improvement when it goes the better way — the
//! `host_perf` CI gate runs this way so a profile's deterministic
//! counters are diffed exactly while its wall-times merely have to stay
//! within the same order of magnitude.
//!
//! The threshold defaults to 2% and can be set with `--threshold` or
//! the `MORLOG_DIFF_THRESHOLD` environment variable (the flag wins);
//! `--ratio` likewise wins over `MORLOG_DIFF_RATIO`.
//!
//! Exit codes: 0 — no delta beyond the threshold; 1 — a regression
//! tripped the threshold or the trees are structurally incomparable;
//! 2 — usage or malformed-input error (flags and variables share the
//! `morlog_sim_core::knobs` grammars).

use std::path::{Path, PathBuf};

use morlog_bench::diff::{self, DocumentDiff, MetricDelta, Verdict};
use morlog_bench::json;
use morlog_sim_core::knobs;

fn usage() -> ! {
    eprintln!("usage: bench_diff <baseline> <candidate> [--threshold <pct>] [--ratio <factor>]");
    eprintln!("  baseline/candidate: results JSON files, or directories of them");
    eprintln!("  --ratio: compare timing fields within a factor instead of skipping them");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut ratio: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--threshold" | "--ratio") => {
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("error: {flag} needs a value");
                    std::process::exit(2);
                };
                if flag == "--threshold" {
                    threshold = Some(knobs::or_exit(flag, raw, knobs::threshold_pct));
                } else {
                    ratio = Some(knobs::or_exit(flag, raw, knobs::ratio_factor));
                }
                i += 2;
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                std::process::exit(2);
            }
            path => {
                paths.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    // The env var is parsed (and a malformed value rejected) even when the
    // flag overrides it, keeping the strictness convention.
    let env_ratio = knobs::diff_ratio();
    let ratio = ratio.or(env_ratio);
    if paths.len() != 2 {
        usage();
    }
    let threshold = threshold.unwrap_or_else(knobs::diff_threshold);
    let (base, cand) = (&paths[0], &paths[1]);

    let pairs = match (base.is_dir(), cand.is_dir()) {
        (true, true) => dir_pairs(base, cand),
        (false, false) => vec![(base.clone(), cand.clone())],
        _ => {
            eprintln!(
                "error: {} and {} must both be files or both be directories",
                base.display(),
                cand.display()
            );
            std::process::exit(2);
        }
    };
    if pairs.is_empty() {
        eprintln!("error: no common *.json files to compare");
        std::process::exit(1);
    }

    if let Some(factor) = ratio {
        eprintln!("ratio mode: timing fields must agree within {factor}x");
    }
    let mut failed = false;
    let mut total_compared = 0usize;
    let mut total_deltas = 0usize;
    for (b, c) in &pairs {
        match diff_files(b, c, ratio.is_some()) {
            Err(e) => {
                println!("== {} vs {}: ERROR: {e}", b.display(), c.display());
                failed = true;
            }
            Ok(d) => {
                total_compared += d.compared;
                total_deltas += d.deltas.len();
                let regressions = d.regressions(threshold, ratio);
                println!(
                    "== {} vs {}: {} metrics compared, {} differ, {} beyond the gate",
                    b.display(),
                    c.display(),
                    d.compared,
                    d.deltas.len(),
                    regressions.len()
                );
                for delta in &d.deltas {
                    print_delta(delta, d.verdict(delta, threshold, ratio));
                }
                if !regressions.is_empty() {
                    failed = true;
                }
            }
        }
    }
    if failed {
        println!("FAIL: deltas beyond the {threshold}% threshold");
        std::process::exit(1);
    }
    println!("OK: {total_compared} metrics compared, {total_deltas} small deltas, none beyond {threshold}%");
}

fn print_delta(d: &MetricDelta, verdict: Verdict) {
    let marker = match verdict {
        Verdict::Within => "delta",
        Verdict::Regression => "REGRESSION",
        Verdict::Improvement => "improvement",
    };
    let fmt = |v: Option<f64>| match v {
        None => "-".to_string(),
        Some(x) => format!("{x}"),
    };
    let pct = d.delta_pct();
    let pct_text = if d.timing {
        // Timing fields are judged by ratio, not percent; report the
        // factor between the sides.
        match (d.base, d.cand) {
            (Some(b), Some(c)) if b != 0.0 && c != 0.0 => {
                let (lo, hi) = if b.abs() <= c.abs() { (b, c) } else { (c, b) };
                format!("{:.2}x timing", hi.abs() / lo.abs())
            }
            _ => "timing".to_string(),
        }
    } else if pct.is_infinite() {
        "structural".to_string()
    } else {
        format!("{pct:+.3}%")
    };
    println!(
        "  {marker}: {} {} -> {} ({pct_text})",
        d.path,
        fmt(d.base),
        fmt(d.cand)
    );
}

fn diff_files(base: &Path, cand: &Path, include_timing: bool) -> Result<DocumentDiff, String> {
    let read = |p: &Path| -> Result<json::Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    diff::diff_documents_with(&read(base)?, &read(cand)?, include_timing)
}

/// The `.json` files present in both directories, paired by file name
/// and sorted for deterministic output. Files present on only one side
/// are listed on stderr but do not fail the gate (bench binaries come
/// and go between baselines).
fn dir_pairs(base: &Path, cand: &Path) -> Vec<(PathBuf, PathBuf)> {
    let names = |dir: &Path| -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.ends_with(".json"))
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    };
    let base_names = names(base);
    let cand_names = names(cand);
    for n in &base_names {
        if !cand_names.contains(n) {
            eprintln!("note: {n} only in baseline {}", base.display());
        }
    }
    for n in &cand_names {
        if !base_names.contains(n) {
            eprintln!("note: {n} only in candidate {}", cand.display());
        }
    }
    base_names
        .into_iter()
        .filter(|n| cand_names.contains(n))
        .map(|n| (base.join(&n), cand.join(&n)))
        .collect()
}
