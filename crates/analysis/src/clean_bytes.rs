//! Clean-byte profiling (Fig. 5).
//!
//! For every transactional store, the old and new values of the word are
//! compared byte by byte; bytes that do not change are *clean*. The paper
//! measures 70.5 % clean bytes on average, which motivates discarding clean
//! log data (§II-C, CONSEQUENCE 2).

use std::collections::HashMap;

use morlog_sim_core::types::dirty_byte_mask;
use morlog_workloads::trace::{Op, WorkloadTrace};

/// Clean/dirty byte counts over a workload's transactional stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanByteStats {
    /// Bytes whose value did not change.
    pub clean_bytes: u64,
    /// Bytes whose value changed.
    pub dirty_bytes: u64,
    /// Stores whose whole word was unchanged (silent stores).
    pub silent_stores: u64,
    /// Stores profiled.
    pub stores: u64,
}

impl CleanByteStats {
    /// Profiles a workload by replaying its stores over shadow memory
    /// (seeded from the trace's initial image).
    pub fn profile(trace: &WorkloadTrace) -> Self {
        let mut stats = CleanByteStats::default();
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
                        let mask = dirty_byte_mask(old, *new);
                        let dirty = mask.count_ones() as u64;
                        stats.dirty_bytes += dirty;
                        stats.clean_bytes += 8 - dirty;
                        stats.stores += 1;
                        if mask == 0 {
                            stats.silent_stores += 1;
                        }
                        shadow.insert(word, *new);
                    }
                }
            }
        }
        stats
    }

    /// Fraction of updated-data bytes that are clean (Fig. 5's y-axis).
    pub fn clean_fraction(&self) -> f64 {
        let total = self.clean_bytes + self.dirty_bytes;
        if total == 0 {
            0.0
        } else {
            self.clean_bytes as f64 / total as f64
        }
    }

    /// Fraction of stores that change nothing at all.
    pub fn silent_fraction(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.silent_stores as f64 / self.stores as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::Addr;
    use morlog_workloads::trace::{ThreadTrace, Transaction};

    fn trace_of(stores: Vec<(u64, u64)>, initial: Vec<(u64, u64)>) -> WorkloadTrace {
        WorkloadTrace {
            name: "t".into(),
            threads: [ThreadTrace {
                transactions: vec![Transaction {
                    ops: stores
                        .into_iter()
                        .map(|(a, v)| Op::Store(Addr::new(a), v))
                        .collect(),
                }],
                initial: initial
                    .into_iter()
                    .map(|(a, v)| (Addr::new(a), v))
                    .collect(),
            }]
            .into(),
        }
    }

    #[test]
    fn counts_clean_and_dirty() {
        // Initial 0 -> store 0xFF: 1 dirty, 7 clean.
        let s = CleanByteStats::profile(&trace_of(vec![(0, 0xFF)], vec![]));
        assert_eq!(s.dirty_bytes, 1);
        assert_eq!(s.clean_bytes, 7);
        assert!((s.clean_fraction() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn silent_store_detected() {
        let s = CleanByteStats::profile(&trace_of(vec![(0, 7), (0, 7)], vec![]));
        assert_eq!(s.silent_stores, 1);
        assert!((s.silent_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn initial_image_seeds_old_values() {
        // Initial value 0x11AA; store 0x11AB changes only the low byte.
        let s = CleanByteStats::profile(&trace_of(vec![(8, 0x11AB)], vec![(8, 0x11AA)]));
        assert_eq!(s.dirty_bytes, 1);
        assert_eq!(s.clean_bytes, 7);
    }

    #[test]
    fn sequential_stores_compare_against_latest() {
        let s = CleanByteStats::profile(&trace_of(vec![(0, 0xFF), (0, 0xFE)], vec![]));
        // Second store: only byte 0 changed (0xFF -> 0xFE).
        assert_eq!(s.dirty_bytes, 2);
        assert_eq!(s.clean_bytes, 14);
    }

    #[test]
    fn empty_trace() {
        let s = CleanByteStats::profile(&trace_of(vec![], vec![]));
        assert_eq!(s.clean_fraction(), 0.0);
        assert_eq!(s.silent_fraction(), 0.0);
    }
}
