//! Counterexample sink shared by the crash-checking gates.
//!
//! `crash_explore` and `crash_fuzz` both produce minimized failing
//! replays as JSONL traces. This sink centralizes how they land on disk:
//!
//! - **Directory**: `MORLOG_CX_DIR` (default `counterexamples/`), one
//!   `<name>.jsonl` file per counterexample, consumable by `trace_lint`
//!   and `trace2perfetto`.
//! - **Deduplication**: a counterexample is identified by the
//!   persist-domain hash of its crash state (the reference run's fold
//!   sample at the crash point). Campaigns frequently rediscover the same
//!   crash state through different fault variants or sampling paths;
//!   only the first representative of each persist-domain signature is
//!   written.
//! - **Cap**: `MORLOG_CX_MAX` bounds the files written per process (a
//!   runaway mutant on a big campaign would otherwise flood the artifact
//!   store). Unset means unbounded.

use std::collections::HashSet;

use morlog_sim_core::knobs;

/// The persist-domain signature of a crash point: the reference run's
/// hash sample right after the point's last event (`0` for point 0 — the
/// empty persist domain).
pub fn persist_signature(samples: &[u64], point: u64) -> u64 {
    if point == 0 {
        0
    } else {
        samples.get(point as usize - 1).copied().unwrap_or(0)
    }
}

/// Deduplicating, capped writer for counterexample JSONL traces.
pub struct CxSink {
    dir: String,
    cap: Option<u64>,
    written: u64,
    duplicates: u64,
    capped: u64,
    seen: HashSet<u64>,
}

impl CxSink {
    /// A sink on an explicit directory and cap (the unit-testable core).
    pub fn new(dir: &str, cap: Option<u64>) -> CxSink {
        CxSink {
            dir: dir.to_string(),
            cap,
            written: 0,
            duplicates: 0,
            capped: 0,
            seen: HashSet::new(),
        }
    }

    /// A sink configured from `MORLOG_CX_DIR` / `MORLOG_CX_MAX`.
    pub fn from_env() -> CxSink {
        CxSink::new(&knobs::cx_dir(), knobs::cx_max())
    }

    /// Whether `signature` would be admitted (new and under the cap),
    /// without recording anything.
    pub fn admits(&self, signature: u64) -> bool {
        !self.seen.contains(&signature) && self.cap.is_none_or(|c| self.written < c)
    }

    /// Writes `<name>.jsonl` unless the signature is a duplicate or the
    /// cap is exhausted; returns whether the file was written. Filesystem
    /// errors are reported as warnings (the gate's verdict must not
    /// depend on artifact storage).
    pub fn write(&mut self, name: &str, signature: u64, detail: &str, trace_jsonl: &str) -> bool {
        if !self.seen.insert(signature) {
            self.duplicates += 1;
            eprintln!("counterexample: {name} duplicates signature {signature:#018x}, skipped");
            return false;
        }
        if let Some(cap) = self.cap {
            if self.written >= cap {
                self.capped += 1;
                eprintln!("counterexample: {name} dropped (MORLOG_CX_MAX={cap} reached)");
                return false;
            }
        }
        let path = std::path::Path::new(&self.dir).join(format!("{name}.jsonl"));
        if let Err(e) =
            std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&path, trace_jsonl))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("counterexample: {} ({detail})", path.display());
        }
        self.written += 1;
        true
    }

    /// Files written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Writes skipped as persist-domain duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Writes dropped by the `MORLOG_CX_MAX` cap.
    pub fn capped(&self) -> u64 {
        self.capped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_indexes_hash_samples() {
        let samples = [11, 22, 33];
        assert_eq!(persist_signature(&samples, 0), 0);
        assert_eq!(persist_signature(&samples, 1), 11);
        assert_eq!(persist_signature(&samples, 3), 33);
        assert_eq!(persist_signature(&samples, 9), 0, "out of range is benign");
    }

    #[test]
    fn sink_dedupes_and_caps() {
        let dir = std::env::temp_dir().join(format!("morlog-cx-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let mut sink = CxSink::new(&dir_s, Some(2));
        assert!(sink.write("a", 1, "p1", "{}\n"));
        assert!(!sink.write("a-dup", 1, "p1", "{}\n"), "same signature");
        assert!(sink.write("b", 2, "p2", "{}\n"));
        assert!(!sink.write("c", 3, "p3", "{}\n"), "cap reached");
        assert_eq!(
            (sink.written(), sink.duplicates(), sink.capped()),
            (2, 1, 1)
        );
        assert!(dir.join("a.jsonl").exists());
        assert!(dir.join("b.jsonl").exists());
        assert!(!dir.join("c.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
