//! A `pmalloc`/`pfree` persistent-heap allocator.
//!
//! The paper's macro-benchmarks are modified to allocate memory with
//! `pmalloc`/`pfree` instead of `mmap` (§VI-A). This allocator hands out
//! addresses from a per-thread arena of NVMM: size-class free lists over a
//! bump pointer. It manages *addresses only*; contents live in the
//! workload's shadow memory during generation and in the simulated NVMM at
//! run time.

use morlog_sim_core::hash::IntHashMap;
use morlog_sim_core::Addr;

/// A persistent-heap arena.
///
/// # Example
///
/// ```
/// use morlog_workloads::heap::PHeap;
/// use morlog_sim_core::Addr;
/// let mut h = PHeap::new(Addr::new(0x1_0000), 4096);
/// let a = h.pmalloc(64);
/// let b = h.pmalloc(64);
/// assert_ne!(a, b);
/// h.pfree(a, 64);
/// assert_eq!(h.pmalloc(64), a, "freed block is recycled");
/// ```
#[derive(Debug, Clone)]
pub struct PHeap {
    base: Addr,
    limit: u64,
    brk: u64,
    /// Free blocks per size class, looked up by class only (never
    /// iterated), so the hasher cannot reorder a trace.
    free: IntHashMap<u64, Vec<Addr>>,
    live_bytes: u64,
}

impl PHeap {
    /// Creates an arena of `bytes` starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 64-byte aligned.
    pub fn new(base: Addr, bytes: u64) -> Self {
        assert_eq!(base.as_u64() % 64, 0, "arena base must be line-aligned");
        PHeap {
            base,
            limit: bytes,
            brk: 0,
            free: IntHashMap::default(),
            live_bytes: 0,
        }
    }

    fn class(size: u64) -> u64 {
        // Round to 8 bytes; blocks of a cache line or more are line-aligned
        // so that "64 B dataset" nodes occupy exactly one line.
        let size = size.max(8).next_multiple_of(8);
        if size >= 64 {
            size.next_multiple_of(64)
        } else {
            size
        }
    }

    /// Allocates `size` bytes of persistent memory.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted — size the arena for the workload.
    pub fn pmalloc(&mut self, size: u64) -> Addr {
        let class = Self::class(size);
        self.live_bytes += class;
        if let Some(list) = self.free.get_mut(&class) {
            if let Some(addr) = list.pop() {
                return addr;
            }
        }
        if class >= 64 {
            self.brk = self.brk.next_multiple_of(64);
        }
        assert!(
            self.brk + class <= self.limit,
            "persistent arena exhausted: brk {} + {class} > {}",
            self.brk,
            self.limit
        );
        let addr = Addr::new(self.base.as_u64() + self.brk);
        self.brk += class;
        addr
    }

    /// Returns a block to its size-class free list.
    pub fn pfree(&mut self, addr: Addr, size: u64) {
        let class = Self::class(size);
        self.live_bytes = self.live_bytes.saturating_sub(class);
        self.free.entry(class).or_default().push(addr);
    }

    /// The arena's first address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The break: bytes of the arena the bump pointer has handed out.
    /// Every block lies below `base + brk`.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Bytes currently allocated (for arena-sizing assertions in tests).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_sized_blocks_are_line_aligned() {
        let mut h = PHeap::new(Addr::new(0), 1 << 20);
        h.pmalloc(8); // misalign the bump pointer
        let a = h.pmalloc(64);
        assert_eq!(a.as_u64() % 64, 0);
        let b = h.pmalloc(4096);
        assert_eq!(b.as_u64() % 64, 0);
    }

    #[test]
    fn small_blocks_pack() {
        let mut h = PHeap::new(Addr::new(0), 1 << 20);
        let a = h.pmalloc(8);
        let b = h.pmalloc(8);
        assert_eq!(b.as_u64() - a.as_u64(), 8);
    }

    #[test]
    fn free_list_recycles_per_class() {
        let mut h = PHeap::new(Addr::new(0), 1 << 20);
        let a = h.pmalloc(100); // class 128
        let _b = h.pmalloc(100);
        h.pfree(a, 100);
        assert_eq!(h.pmalloc(128), a, "same class recycles");
    }

    #[test]
    fn live_bytes_tracks_churn() {
        let mut h = PHeap::new(Addr::new(0), 1 << 20);
        let a = h.pmalloc(64);
        assert_eq!(h.live_bytes(), 64);
        h.pfree(a, 64);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut h = PHeap::new(Addr::new(0), 128);
        h.pmalloc(64);
        h.pmalloc(64);
        h.pmalloc(64);
    }
}
