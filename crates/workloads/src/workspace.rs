//! Per-thread trace-generation context: shadow memory, persistent heap and
//! transaction recording.

use std::collections::HashMap;

use morlog_sim_core::{Addr, DetRng};

use crate::heap::PHeap;
use crate::trace::{Op, ThreadTrace, Transaction};

/// Bytes of persistent arena given to each generating thread.
pub const ARENA_BYTES: u64 = 64 << 20;

/// A per-thread workload-generation workspace.
///
/// Workloads express their logic through `load`/`store` calls; the
/// workspace keeps the shadow values (so data-structure invariants hold
/// during generation) and records the operations into the trace.
///
/// # Example
///
/// ```
/// use morlog_workloads::workspace::Workspace;
/// use morlog_sim_core::Addr;
///
/// let mut ws = Workspace::new(Addr::new(0x1000_0000), 0, 42);
/// ws.begin_tx();
/// let node = ws.pmalloc(64);
/// ws.store(node, 7);
/// assert_eq!(ws.load(node), 7);
/// ws.end_tx();
/// let trace = ws.finish();
/// assert_eq!(trace.transactions.len(), 1);
/// ```
#[derive(Debug)]
pub struct Workspace {
    heap: PHeap,
    shadow: HashMap<u64, u64>,
    ops: Vec<Op>,
    in_tx: bool,
    transactions: Vec<Transaction>,
    initial: Vec<(Addr, u64)>,
    rng: DetRng,
}

impl Workspace {
    /// Creates the workspace for `thread`, with arenas carved from
    /// `data_base` at [`ARENA_BYTES`] stride.
    pub fn new(data_base: Addr, thread: usize, seed: u64) -> Self {
        let base = Addr::new(data_base.as_u64() + thread as u64 * ARENA_BYTES);
        Workspace {
            heap: PHeap::new(base, ARENA_BYTES),
            shadow: HashMap::new(),
            ops: Vec::new(),
            in_tx: false,
            transactions: Vec::new(),
            initial: Vec::new(),
            rng: DetRng::new(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9)),
        }
    }

    /// The thread's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Allocates persistent memory (addresses only; contents are zero).
    pub fn pmalloc(&mut self, size: u64) -> Addr {
        self.heap.pmalloc(size)
    }

    /// Frees persistent memory.
    pub fn pfree(&mut self, addr: Addr, size: u64) {
        self.heap.pfree(addr, size);
    }

    /// Opens a transaction.
    ///
    /// # Panics
    ///
    /// Panics on nested transactions (unsupported, as in the paper).
    pub fn begin_tx(&mut self) {
        assert!(!self.in_tx, "nested transactions are not supported");
        self.in_tx = true;
        self.ops.clear();
    }

    /// Closes the transaction and appends it to the trace.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn end_tx(&mut self) {
        assert!(self.in_tx, "end_tx without begin_tx");
        self.in_tx = false;
        self.transactions.push(Transaction {
            ops: std::mem::take(&mut self.ops),
        });
    }

    /// Transactional 64-bit load (recorded in the trace).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn load(&mut self, addr: Addr) -> u64 {
        assert_eq!(addr.byte_in_word(), 0, "loads are word-aligned");
        if self.in_tx {
            self.ops.push(Op::Load(addr));
        }
        self.peek(addr)
    }

    /// Transactional 64-bit store (recorded in the trace).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    pub fn store(&mut self, addr: Addr, value: u64) {
        assert_eq!(addr.byte_in_word(), 0, "stores are word-aligned");
        if self.in_tx {
            self.ops.push(Op::Store(addr, value));
        } else {
            // Setup-phase stores become the pre-loaded NVMM image.
            self.initial.push((addr, value));
        }
        self.shadow.insert(addr.as_u64(), value);
    }

    /// Reads the shadow value without recording a load (generator
    /// bookkeeping, e.g. following pointers the workload already knows).
    pub fn peek(&self, addr: Addr) -> u64 {
        *self.shadow.get(&addr.as_u64()).unwrap_or(&0)
    }

    /// Records `cycles` of non-memory work.
    pub fn compute(&mut self, cycles: u32) {
        if self.in_tx {
            self.ops.push(Op::Compute(cycles));
        }
    }

    /// Finishes generation, returning the thread's trace.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    pub fn finish(self) -> ThreadTrace {
        assert!(!self.in_tx, "finish with an open transaction");
        ThreadTrace {
            transactions: self.transactions,
            initial: self.initial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> Workspace {
        Workspace::new(Addr::new(0x1000_0000), 0, 1)
    }

    #[test]
    fn records_ops_in_order() {
        let mut w = ws();
        w.begin_tx();
        let a = w.pmalloc(64);
        w.store(a, 1);
        w.compute(5);
        let v = w.load(a);
        assert_eq!(v, 1);
        w.end_tx();
        let t = w.finish();
        assert_eq!(
            t.transactions[0].ops,
            vec![Op::Store(a, 1), Op::Compute(5), Op::Load(a)]
        );
    }

    #[test]
    fn shadow_survives_across_transactions() {
        let mut w = ws();
        let a = Addr::new(0x1000_0000);
        w.begin_tx();
        w.store(a, 9);
        w.end_tx();
        w.begin_tx();
        assert_eq!(w.load(a), 9);
        w.end_tx();
        assert_eq!(w.finish().transactions.len(), 2);
    }

    #[test]
    fn arenas_do_not_overlap() {
        let w0 = Workspace::new(Addr::new(0), 0, 1);
        let mut w1 = Workspace::new(Addr::new(0), 1, 1);
        let a1 = w1.pmalloc(64);
        assert!(a1.as_u64() >= ARENA_BYTES);
        drop(w0);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_tx_panics() {
        let mut w = ws();
        w.begin_tx();
        w.begin_tx();
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_store_panics() {
        let mut w = ws();
        w.begin_tx();
        w.store(Addr::new(0x1000_0001), 0);
    }
}
