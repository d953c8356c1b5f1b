//! Per-thread trace-generation context: shadow memory, persistent heap and
//! transaction recording.

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
/// Every block a generator stores to comes from the thread's bump-allocated
/// arena, so the shadow is a dense vector of words indexed by word offset
/// in the arena, grown on store and never past the heap's break. A load or
/// peek outside the stored words reads 0 (a tree generator's null-pointer
/// peek reads address 0); a store outside the allocated arena is a
/// generator bug and panics.
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
    /// Shadow word values by word offset from the arena base.
    shadow: Vec<u64>,
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
            shadow: Vec::new(),
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

    /// Closes the transaction and appends it to the trace, at its exact
    /// size (the op buffer stays with the workspace for the next one).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn end_tx(&mut self) {
        assert!(self.in_tx, "end_tx without begin_tx");
        self.in_tx = false;
        self.transactions.push(Transaction {
            ops: self.ops.to_vec(),
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
    /// Panics if `addr` is not word-aligned or lies outside the part of
    /// the thread's arena allocated so far.
    pub fn store(&mut self, addr: Addr, value: u64) {
        assert_eq!(addr.byte_in_word(), 0, "stores are word-aligned");
        let word = self.arena_word(addr);
        if word >= self.shadow.len() {
            assert!(
                (word as u64) < self.heap.brk().div_ceil(8),
                "store to {addr:?} outside the thread's allocated arena"
            );
            self.shadow.resize(word + 1, 0);
        }
        if self.in_tx {
            self.ops.push(Op::Store(addr, value));
        } else {
            // Setup-phase stores become the pre-loaded NVMM image.
            self.initial.push((addr, value));
        }
        self.shadow[word] = value;
    }

    /// Reads the shadow value without recording a load (generator
    /// bookkeeping, e.g. following pointers the workload already knows).
    /// A word never stored reads 0.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.shadow.get(self.arena_word(addr)).copied().unwrap_or(0)
    }

    /// The shadow index of `addr`: its word offset from the arena base
    /// (an address below the base wraps far past any shadow word).
    fn arena_word(&self, addr: Addr) -> usize {
        (addr.as_u64().wrapping_sub(self.heap.base().as_u64()) / 8) as usize
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
        let a = w.pmalloc(8);
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
    fn peek_outside_the_arena_reads_zero() {
        let mut w = ws();
        let a = w.pmalloc(64);
        w.store(a, 5);
        let base = 0x1000_0000u64;
        for outside in [0, 8, base - 8, base + ARENA_BYTES, u64::MAX - 7] {
            assert_eq!(w.peek(Addr::new(outside)), 0, "{outside:#x}");
        }
        assert_eq!(w.peek(a.offset(8)), 0, "allocated but never stored");
        assert_eq!(w.peek(a), 5);
    }

    #[test]
    fn store_to_the_arenas_last_word_reads_back() {
        let mut w = ws();
        let a = w.pmalloc(ARENA_BYTES);
        let last = a.offset(ARENA_BYTES - 8);
        w.store(last, 0xFEED);
        assert_eq!(w.peek(last), 0xFEED);
        assert_eq!(w.shadow.len() as u64, ARENA_BYTES / 8);
    }

    #[test]
    fn a_high_word_written_before_a_low_one_keeps_both() {
        let mut w = ws();
        let a = w.pmalloc(4096);
        w.store(a.offset(4088), 2);
        w.store(a.offset(16), 1);
        assert_eq!(w.peek(a.offset(4088)), 2);
        assert_eq!(w.peek(a.offset(16)), 1);
        assert_eq!(w.peek(a.offset(24)), 0);
    }

    #[test]
    fn shadow_never_exceeds_the_heap_break() {
        let mut w = ws();
        let mut rng = DetRng::new(0x5AD0);
        let mut blocks = Vec::new();
        for _ in 0..500 {
            let size = 8 * (1 + rng.gen_range(40));
            let block = w.pmalloc(size);
            blocks.push((block, size));
            let words = size / 8;
            w.store(block.offset(8 * rng.gen_range(words)), rng.next_u64());
            w.store(block.offset(8 * (words - 1)), rng.next_u64());
            if rng.gen_bool(0.2) {
                let (freed, size) = blocks.swap_remove(rng.gen_range(blocks.len() as u64) as usize);
                w.pfree(freed, size);
            }
            assert!(w.shadow.len() as u64 <= w.heap.brk().div_ceil(8));
        }
    }

    #[test]
    #[should_panic(expected = "outside the thread's allocated arena")]
    fn store_past_the_break_panics() {
        let mut w = ws();
        let a = w.pmalloc(64);
        w.store(a.offset(64), 1);
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
