//! The transaction-trace format replayed by the simulator.

use morlog_sim_core::Addr;

/// One operation of a transaction (or of non-transactional glue code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A 64-bit load from a word-aligned address.
    Load(Addr),
    /// A 64-bit store of `value` to a word-aligned address.
    Store(Addr, u64),
    /// `cycles` of non-memory work (address computation, comparisons...).
    Compute(u32),
}

/// One durable transaction: the ops between `Tx_Begin` and `Tx_End`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transaction {
    /// The operations, in program order.
    pub ops: Vec<Op>,
}

impl Transaction {
    /// Number of stores in the transaction.
    pub fn stores(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Store(..)))
            .count()
    }

    /// Number of loads in the transaction.
    pub fn loads(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Load(..)))
            .count()
    }
}

/// All transactions of one thread, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The transactions.
    pub transactions: Vec<Transaction>,
    /// Setup-phase (non-transactional) word writes: the NVMM image the
    /// thread's data structures start from. Pre-loaded before simulation.
    pub initial: Vec<(Addr, u64)>,
}

/// A complete workload: one trace per thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Workload name (paper's benchmark label).
    pub name: String,
    /// Per-thread transaction streams.
    pub threads: Vec<ThreadTrace>,
}

impl WorkloadTrace {
    /// Total transactions across threads.
    pub fn total_transactions(&self) -> usize {
        self.threads.iter().map(|t| t.transactions.len()).sum()
    }

    /// Total stores across threads.
    pub fn total_stores(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| t.transactions.iter())
            .map(|tx| tx.stores())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let tx = Transaction {
            ops: vec![
                Op::Load(Addr::new(0)),
                Op::Store(Addr::new(8), 1),
                Op::Compute(3),
                Op::Store(Addr::new(16), 2),
            ],
        };
        assert_eq!(tx.stores(), 2);
        assert_eq!(tx.loads(), 1);
        let trace = WorkloadTrace {
            name: "t".into(),
            threads: vec![
                ThreadTrace {
                    transactions: vec![tx.clone()],
                    initial: Vec::new(),
                },
                ThreadTrace {
                    transactions: vec![tx.clone(), tx],
                    initial: Vec::new(),
                },
            ],
        };
        assert_eq!(trace.total_transactions(), 3);
        assert_eq!(trace.total_stores(), 6);
    }
}
