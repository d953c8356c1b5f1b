//! What the crash-checking gates share: the mutation self-test's cases,
//! the verdict labels and the counterexample sink.
//!
//! `crash_explore` and `crash_fuzz` both produce minimized failing
//! replays as JSONL traces. The sink centralizes how they land on disk:
//!
//! - **Directory**: `MORLOG_CX_DIR` (default `counterexamples/`), one
//!   `<gate>.<name>.jsonl` file per counterexample (e.g.
//!   `crash_explore.MorLog-SLDE+drop-undo-fence.jsonl`), consumable by
//!   `trace_lint` and `trace2perfetto`. The gate prefix keeps the two
//!   gates from overwriting each other's files when they share a
//!   directory.
//! - **Deduplication**: a counterexample is identified by its
//!   `signature`, the persist-domain hash of its crash state (the
//!   checker's reference-run fold sample at the crash point). Campaigns
//!   frequently rediscover the same crash state through different fault
//!   variants or sampling paths; only the first representative of each
//!   persist-domain signature is written.
//! - **Cap**: `MORLOG_CX_MAX` bounds the files written per process (a
//!   runaway mutant on a big campaign would otherwise flood the artifact
//!   store). Unset means unbounded.

use std::collections::HashSet;

use morlog_checker::Counterexample;
use morlog_sim_core::{knobs, CheckMutation, DesignKind};

/// The mutation self-test's sabotaged designs, each with the
/// force-write-back period that exposes it (see
/// `crates/checker/tests/self_test.rs` for why the periods differ).
pub const MUTANTS: [(DesignKind, CheckMutation, u64); 2] = [
    (DesignKind::MorLogSlde, CheckMutation::DropUndoFence, 16),
    (DesignKind::MorLogDp, CheckMutation::SkipUlogBump, 64),
];

/// A gate row's verdict label: a real design is `ok` when it passes, a
/// mutant is `caught` when it passes (it must fail the checker).
pub fn verdict(mutant: bool, passed: bool) -> &'static str {
    match (mutant, passed) {
        (false, true) => "ok",
        (false, false) => "FAIL",
        (true, true) => "caught",
        (true, false) => "MISSED",
    }
}

/// Deduplicating, capped writer for counterexample JSONL traces.
pub struct CxSink {
    dir: String,
    gate: String,
    cap: Option<u64>,
    written: u64,
    duplicates: u64,
    capped: u64,
    seen: HashSet<u64>,
}

impl CxSink {
    /// A sink for `gate`'s counterexamples on an explicit directory and
    /// cap (the unit-testable core).
    pub fn new(dir: &str, gate: &str, cap: Option<u64>) -> CxSink {
        CxSink {
            dir: dir.to_string(),
            gate: gate.to_string(),
            cap,
            written: 0,
            duplicates: 0,
            capped: 0,
            seen: HashSet::new(),
        }
    }

    /// A sink for `gate` configured from `MORLOG_CX_DIR` / `MORLOG_CX_MAX`.
    pub fn from_env(gate: &str) -> CxSink {
        CxSink::new(&knobs::cx_dir(), gate, knobs::cx_max())
    }

    /// Writes `<gate>.<name>.jsonl` unless the signature is a duplicate or the
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
        let path = std::path::Path::new(&self.dir).join(format!("{}.{name}.jsonl", self.gate));
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

    /// [`CxSink::write`] for a checker counterexample, keyed by its
    /// signature.
    pub fn write_cx(&mut self, name: &str, cx: &Counterexample) -> bool {
        let (point, variant) = (cx.point, cx.variant.label());
        let detail = format!("point {point}, variant {variant}, {}", cx.error);
        self.write(name, cx.signature, &detail, &cx.trace_jsonl)
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
    fn sink_dedupes_and_caps() {
        let dir = std::env::temp_dir().join(format!("morlog-cx-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let mut sink = CxSink::new(&dir_s, "gate", Some(2));
        assert!(sink.write("a", 1, "p1", "{}\n"));
        assert!(!sink.write("a-dup", 1, "p1", "{}\n"), "same signature");
        assert!(sink.write("b", 2, "p2", "{}\n"));
        assert!(!sink.write("c", 3, "p3", "{}\n"), "cap reached");
        assert_eq!(
            (sink.written(), sink.duplicates(), sink.capped()),
            (2, 1, 1)
        );
        assert!(dir.join("gate.a.jsonl").exists());
        assert!(dir.join("gate.b.jsonl").exists());
        assert!(!dir.join("gate.c.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
