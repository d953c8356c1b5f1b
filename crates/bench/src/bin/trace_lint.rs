//! Schema checker for observability artifacts: validates JSONL event
//! traces (`MORLOG_TRACE_DIR` dumps, counterexamples) against the event
//! fields declared next to their writer (`TraceEvent::FIELDS`),
//! `perf_history` trajectories and `results/*.json` documents against
//! the declarations in `morlog_bench::results` (every field, type and
//! invariant, via `validate`).
//!
//! Usage: `trace_lint <path>...` — each path is a `.jsonl` trace (event
//! dump or `perf_history` trajectory), a `.json` results document, a
//! `.folded` flamegraph stack dump, or a directory scanned
//! (non-recursively) for all three. Exits non-zero on the first
//! malformed file, printing what was wrong; prints a per-file summary
//! otherwise. CI runs this over the committed `results/`, the
//! `quick_check` and `perf_report` artifacts, traces and counterexamples,
//! so a schema drift fails the build instead of silently shipping
//! unreadable dumps.

use morlog_bench::json::{parse, Json};
use morlog_bench::perfetto::event_fields;
use morlog_bench::results::{validate, validate_document, PerfHistory};

/// A JSONL file is either an event trace (every line carries
/// `cycle` + `event`) or a `perf_history` trajectory (every line is a
/// `kind: "perf_history"` record); the first line decides which schema
/// the rest of the file is held to.
fn lint_trace(path: &std::path::Path) -> Result<(usize, &'static str), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut last_cycle = 0u64;
    let mut count = 0usize;
    let mut history = false;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let obj = parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if obj.get("kind").and_then(Json::as_str) == Some("perf_history") {
            if count > 0 && !history {
                return Err(format!(
                    "line {n}: perf_history record inside an event trace"
                ));
            }
            history = true;
            validate::<PerfHistory>(&obj).map_err(|e| format!("line {n}: {e}"))?;
            count += 1;
            continue;
        }
        if history {
            return Err(format!(
                "line {n}: non-history record in a perf_history file"
            ));
        }
        let cycle = obj
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {n}: missing integer \"cycle\""))?;
        if cycle < last_cycle {
            return Err(format!(
                "line {n}: cycle {cycle} goes backwards (previous {last_cycle})"
            ));
        }
        last_cycle = cycle;
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing string \"event\""))?;
        event_fields(&obj, event).map_err(|e| format!("line {n}: {e}"))?;
        count += 1;
    }
    Ok((count, if history { "history records" } else { "events" }))
}

/// Flamegraph folded-stack format: every non-empty line is
/// `frame[;frame]* <count>` with non-empty frames and an integer count.
fn lint_folded(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let Some((stack, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: expected \"stack count\""));
        };
        if value.parse::<u64>().is_err() {
            return Err(format!("line {n}: count {value:?} is not an integer"));
        }
        if stack.is_empty() || stack.split(';').any(|frame| frame.trim().is_empty()) {
            return Err(format!("line {n}: empty frame in stack {stack:?}"));
        }
        count += 1;
    }
    Ok(count)
}

fn lint_results(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse(&text)?;
    validate_document(&doc)?;
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .map(<[Json]>::len)
        .unwrap_or(0);
    Ok(records)
}

fn lint_file(path: &std::path::Path) -> Result<(), String> {
    let ext = path.extension().and_then(|e| e.to_str());
    match ext {
        Some("jsonl") => {
            let (count, what) = lint_trace(path)?;
            println!("ok {} ({count} {what})", path.display());
            Ok(())
        }
        Some("json") => {
            let records = lint_results(path)?;
            println!("ok {} ({records} records)", path.display());
            Ok(())
        }
        Some("folded") => {
            let stacks = lint_folded(path)?;
            println!("ok {} ({stacks} stacks)", path.display());
            Ok(())
        }
        _ => Err(
            "expected a .jsonl trace, a .json results document, or a .folded stack dump"
                .to_string(),
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: trace_lint <trace.jsonl | results.json | stacks.folded | dir>...");
        std::process::exit(2);
    }
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for arg in &args {
        let path = std::path::PathBuf::from(arg);
        if path.is_dir() {
            let mut entries: Vec<_> = match std::fs::read_dir(&path) {
                Ok(rd) => rd
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        matches!(
                            p.extension().and_then(|e| e.to_str()),
                            Some("json" | "jsonl" | "folded")
                        )
                    })
                    .collect(),
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            entries.sort();
            if entries.is_empty() {
                eprintln!("error: {}: no .json/.jsonl/.folded files", path.display());
                std::process::exit(2);
            }
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    let mut failed = false;
    for path in &files {
        if let Err(e) = lint_file(path) {
            eprintln!("error: {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
