//! DLDC pattern-coverage profiling (Table II).
//!
//! For every *dirty* log word (a store whose value changed), the profiler
//! asks which Table II pattern DLDC would compress its dirty bytes with.
//! The paper reports that the eight patterns cumulatively cover ≈42.5 % of
//! dirty log data.

use std::collections::HashMap;

use morlog_encoding::dldc::{compress_dirty, DldcPattern};
use morlog_sim_core::types::dirty_byte_mask;
use morlog_workloads::trace::{Op, WorkloadTrace};

/// Per-pattern hit counts over a workload's dirty log words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternStats {
    counts: HashMap<DldcPattern, u64>,
    /// Dirty log words profiled (silent stores are excluded: they produce
    /// no log data at all under SLDE).
    pub dirty_words: u64,
}

impl PatternStats {
    /// Profiles a workload trace.
    pub fn profile(trace: &WorkloadTrace) -> Self {
        let mut stats = PatternStats::default();
        for thread in trace.threads.iter() {
            let mut shadow: HashMap<u64, u64> = HashMap::new();
            for &(addr, value) in &thread.initial {
                shadow.insert(addr.word_base().as_u64(), value);
            }
            for tx in &thread.transactions {
                for op in &tx.ops {
                    if let Op::Store(addr, new) = op {
                        let word = addr.word_base().as_u64();
                        let old = shadow.get(&word).copied().unwrap_or(0);
                        shadow.insert(word, *new);
                        let mask = dirty_byte_mask(old, *new);
                        if mask == 0 {
                            continue;
                        }
                        let enc = compress_dirty(*new, mask).expect("mask nonzero");
                        *stats.counts.entry(enc.pattern).or_insert(0) += 1;
                        stats.dirty_words += 1;
                    }
                }
            }
        }
        stats
    }

    /// Fraction of dirty log words compressed with `pattern` (Table II's
    /// last column).
    pub fn fraction(&self, pattern: DldcPattern) -> f64 {
        if self.dirty_words == 0 {
            return 0.0;
        }
        self.counts.get(&pattern).copied().unwrap_or(0) as f64 / self.dirty_words as f64
    }

    /// Cumulative coverage of the eight Table II patterns (everything but
    /// the raw escape) — the paper's ≈42.5 %.
    pub fn pattern_coverage(&self) -> f64 {
        DldcPattern::TABLE_II
            .iter()
            .map(|&p| self.fraction(p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::Addr;
    use morlog_workloads::trace::{ThreadTrace, Transaction};

    fn trace_of(stores: Vec<(u64, u64)>) -> WorkloadTrace {
        WorkloadTrace {
            name: "t".into(),
            threads: [ThreadTrace {
                transactions: vec![Transaction {
                    ops: stores
                        .into_iter()
                        .map(|(a, v)| Op::Store(Addr::new(a), v))
                        .collect(),
                }],
                initial: Vec::new(),
            }]
            .into(),
        }
    }

    #[test]
    fn classifies_patterns() {
        // 0 -> 0x10203040: dirty nibble-padded bytes.
        let s = PatternStats::profile(&trace_of(vec![(0, 0x1020_3040)]));
        assert_eq!(s.dirty_words, 1);
        assert!((s.fraction(DldcPattern::NibblePadded) - 1.0).abs() < 1e-12);
        assert!((s.pattern_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raw_words_are_outside_coverage() {
        let s = PatternStats::profile(&trace_of(vec![(0, 0xD3A1_57C2_9B64_E8F1)]));
        assert_eq!(s.dirty_words, 1);
        assert!((s.fraction(DldcPattern::Raw) - 1.0).abs() < 1e-12);
        assert_eq!(s.pattern_coverage(), 0.0);
    }

    #[test]
    fn silent_stores_excluded() {
        let s = PatternStats::profile(&trace_of(vec![(0, 5), (0, 5)]));
        assert_eq!(s.dirty_words, 1, "the repeat store is silent");
    }

    #[test]
    fn coverage_between_zero_and_one() {
        let cfg =
            morlog_workloads::WorkloadConfig::test_config(morlog_sim_core::Addr::new(0x1000_0000));
        let trace = morlog_workloads::generate(morlog_workloads::WorkloadKind::Tpcc, &cfg);
        let s = PatternStats::profile(&trace);
        assert!(s.dirty_words > 0);
        let c = s.pattern_coverage();
        assert!((0.0..=1.0).contains(&c), "coverage {c}");
    }
}
