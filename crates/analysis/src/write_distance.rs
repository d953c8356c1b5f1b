//! Write-distance profiling (Fig. 3).
//!
//! The *write distance* of a store is the number of stores between it and
//! the previous store to the same (word) address within the transaction
//! region of execution; the first store to an address is the "First Write"
//! bucket. The paper's Fig. 3 buckets distances into 0-1, 2-3, 4-7, 8-15,
//! 16-31, 32-63, 64-127 and ≥128; 44.8 % of non-first writes land above 31,
//! which is what motivates buffering redo data in the L1 (§II-B).

use std::collections::HashMap;

use morlog_workloads::trace::{Op, WorkloadTrace};

/// The Fig. 3 histogram buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistanceBucket {
    /// First store to this address.
    FirstWrite,
    /// 0–1 stores in between.
    D0To1,
    /// 2–3 stores in between.
    D2To3,
    /// 4–7 stores in between.
    D4To7,
    /// 8–15 stores in between.
    D8To15,
    /// 16–31 stores in between.
    D16To31,
    /// 32–63 stores in between.
    D32To63,
    /// 64–127 stores in between.
    D64To127,
    /// 128 or more stores in between.
    D128Plus,
}

impl DistanceBucket {
    /// All buckets in Fig. 3's legend order.
    pub const ALL: [DistanceBucket; 9] = [
        DistanceBucket::FirstWrite,
        DistanceBucket::D0To1,
        DistanceBucket::D2To3,
        DistanceBucket::D4To7,
        DistanceBucket::D8To15,
        DistanceBucket::D16To31,
        DistanceBucket::D32To63,
        DistanceBucket::D64To127,
        DistanceBucket::D128Plus,
    ];

    /// Buckets a distance (`None` = first write).
    pub fn of(distance: Option<u64>) -> DistanceBucket {
        match distance {
            None => DistanceBucket::FirstWrite,
            Some(d) if d <= 1 => DistanceBucket::D0To1,
            Some(d) if d <= 3 => DistanceBucket::D2To3,
            Some(d) if d <= 7 => DistanceBucket::D4To7,
            Some(d) if d <= 15 => DistanceBucket::D8To15,
            Some(d) if d <= 31 => DistanceBucket::D16To31,
            Some(d) if d <= 63 => DistanceBucket::D32To63,
            Some(d) if d <= 127 => DistanceBucket::D64To127,
            Some(_) => DistanceBucket::D128Plus,
        }
    }

    /// The Fig. 3 legend label.
    pub fn label(self) -> &'static str {
        match self {
            DistanceBucket::FirstWrite => "First Write",
            DistanceBucket::D0To1 => "0-1",
            DistanceBucket::D2To3 => "2-3",
            DistanceBucket::D4To7 => "4-7",
            DistanceBucket::D8To15 => "8-15",
            DistanceBucket::D16To31 => "16-31",
            DistanceBucket::D32To63 => "32-63",
            DistanceBucket::D64To127 => "64-127",
            DistanceBucket::D128Plus => ">=128",
        }
    }
}

/// The write-distance histogram of one workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteDistanceHistogram {
    counts: [u64; 9],
    total: u64,
}

impl WriteDistanceHistogram {
    /// Profiles a workload trace. Distances are measured per thread (each
    /// hardware thread sees its own store stream, as PIN does) and reset at
    /// transaction boundaries: Fig. 3 defines the distance "within the
    /// transaction region of execution", so the first store of a new
    /// transaction to an address the previous transaction also wrote is a
    /// First Write, not a repeat (log entries do not survive commit, which
    /// is why cross-transaction locality cannot be coalesced).
    pub fn profile(trace: &WorkloadTrace) -> Self {
        let mut hist = WriteDistanceHistogram::default();
        for thread in trace.threads.iter() {
            for tx in &thread.transactions {
                let mut last_store: HashMap<u64, u64> = HashMap::new();
                let mut store_idx: u64 = 0;
                for op in &tx.ops {
                    if let Op::Store(addr, _) = op {
                        let word = addr.word_base().as_u64();
                        let distance = last_store.get(&word).map(|&prev| store_idx - prev - 1);
                        hist.record(DistanceBucket::of(distance));
                        last_store.insert(word, store_idx);
                        store_idx += 1;
                    }
                }
            }
        }
        hist
    }

    fn record(&mut self, bucket: DistanceBucket) {
        let idx = DistanceBucket::ALL
            .iter()
            .position(|&b| b == bucket)
            .expect("known bucket");
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Fraction of stores in `bucket` (0 when the trace has no stores).
    pub fn fraction(&self, bucket: DistanceBucket) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = DistanceBucket::ALL
            .iter()
            .position(|&b| b == bucket)
            .expect("known bucket");
        self.counts[idx] as f64 / self.total as f64
    }

    /// Fraction of stores with distance > 31 among *non-first* writes —
    /// the paper's headline 44.8 % (§II-B measures the share of writes that
    /// a 32-entry log buffer cannot coalesce).
    pub fn fraction_beyond_31(&self) -> f64 {
        let far: u64 = [
            DistanceBucket::D32To63,
            DistanceBucket::D64To127,
            DistanceBucket::D128Plus,
        ]
        .iter()
        .map(|b| self.counts[DistanceBucket::ALL.iter().position(|x| x == b).unwrap()])
        .sum();
        let non_first = self.total - self.counts[0];
        if non_first == 0 {
            0.0
        } else {
            far as f64 / non_first as f64
        }
    }

    /// Fraction of stores that are re-writes (the paper's "83.1 % of data
    /// are updated more than once").
    pub fn fraction_repeat(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.total - self.counts[0]) as f64 / self.total as f64
    }

    /// Total stores profiled.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::Addr;
    use morlog_workloads::trace::{ThreadTrace, Transaction};

    fn trace_of(stores: &[u64]) -> WorkloadTrace {
        let ops = stores
            .iter()
            .map(|&a| Op::Store(Addr::new(a * 8), 1))
            .collect();
        WorkloadTrace {
            name: "t".into(),
            threads: [ThreadTrace {
                transactions: vec![Transaction { ops }],
                initial: Vec::new(),
            }]
            .into(),
        }
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(DistanceBucket::of(None), DistanceBucket::FirstWrite);
        assert_eq!(DistanceBucket::of(Some(0)), DistanceBucket::D0To1);
        assert_eq!(DistanceBucket::of(Some(1)), DistanceBucket::D0To1);
        assert_eq!(DistanceBucket::of(Some(2)), DistanceBucket::D2To3);
        assert_eq!(DistanceBucket::of(Some(31)), DistanceBucket::D16To31);
        assert_eq!(DistanceBucket::of(Some(32)), DistanceBucket::D32To63);
        assert_eq!(DistanceBucket::of(Some(128)), DistanceBucket::D128Plus);
    }

    #[test]
    fn distances_count_intervening_stores() {
        // Stores to words: A B A -> A's second store has distance 1.
        let h = WriteDistanceHistogram::profile(&trace_of(&[10, 11, 10]));
        assert_eq!(h.total(), 3);
        assert!((h.fraction(DistanceBucket::FirstWrite) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.fraction(DistanceBucket::D0To1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_stores_have_distance_zero() {
        let h = WriteDistanceHistogram::profile(&trace_of(&[5, 5]));
        assert!((h.fraction(DistanceBucket::D0To1) - 0.5).abs() < 1e-12);
        assert!((h.fraction_repeat() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn far_fraction_over_non_first_writes() {
        // A, 40 different words, A again: distance 40 -> bucket 32-63.
        let mut seq = vec![0u64];
        seq.extend(1..=40);
        seq.push(0);
        let h = WriteDistanceHistogram::profile(&trace_of(&seq));
        assert!(
            (h.fraction_beyond_31() - 1.0).abs() < 1e-12,
            "the only repeat is far"
        );
    }

    #[test]
    fn distances_reset_at_transaction_boundaries() {
        // Two transactions on one thread, hand-computed:
        //   tx0: A B A   -> FirstWrite, FirstWrite, D0To1 (one store between)
        //   tx1: A C     -> FirstWrite (the map reset!), FirstWrite
        // Before the per-transaction reset, tx1's store to A was wrongly
        // bucketed as a distance-1 repeat of tx0's last store to A.
        let a = Addr::new(10 * 8);
        let b = Addr::new(11 * 8);
        let c = Addr::new(12 * 8);
        let trace = WorkloadTrace {
            name: "t".into(),
            threads: [ThreadTrace {
                transactions: vec![
                    Transaction {
                        ops: vec![Op::Store(a, 1), Op::Store(b, 1), Op::Store(a, 2)],
                    },
                    Transaction {
                        ops: vec![Op::Store(a, 3), Op::Store(c, 1)],
                    },
                ],
                initial: Vec::new(),
            }]
            .into(),
        };
        let h = WriteDistanceHistogram::profile(&trace);
        assert_eq!(h.total(), 5);
        assert!(
            (h.fraction(DistanceBucket::FirstWrite) - 4.0 / 5.0).abs() < 1e-12,
            "4 of 5 stores are first writes of their transaction"
        );
        assert!((h.fraction(DistanceBucket::D0To1) - 1.0 / 5.0).abs() < 1e-12);
        assert!((h.fraction_repeat() - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zero() {
        let h = WriteDistanceHistogram::profile(&trace_of(&[]));
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_beyond_31(), 0.0);
        assert_eq!(h.fraction_repeat(), 0.0);
    }

    #[test]
    fn labels_nonempty() {
        for b in DistanceBucket::ALL {
            assert!(!b.label().is_empty());
        }
    }
}
