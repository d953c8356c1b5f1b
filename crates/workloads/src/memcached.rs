//! Memcached: a slab-allocated cache with per-class LRU eviction (one of
//! the paper's Fig. 3/Fig. 5 WHISPER profiling applications).
//!
//! Items live in pre-allocated slab chunks; a SET takes a chunk from the
//! free list or evicts the LRU tail; hits bump items to the LRU head.
//! Compared with `redis`, the distinguishing pattern is chunk *recycling*:
//! evicted chunks are rewritten with new items whose layout matches the old
//! one, producing the mostly-clean rewrites Fig. 5 measures.
//!
//! Chunk layout: 0 = key, 1 = hash next, 2-3 reserved (LRU order is
//! allocator metadata, kept in DRAM as real memcached does),
//! 4 = flags/size, 5.. = value words.

use morlog_sim_core::{Addr, WORD_BYTES};

use crate::registry::WorkloadConfig;
use crate::trace::ThreadTrace;
use crate::workspace::Workspace;

const BUCKETS: u64 = 512;
const CHUNKS: u64 = 512;
const KEY: u64 = 0;
const HNEXT: u64 = 8;
const FLAGS: u64 = 32;
const VALUE: u64 = 40;

fn hash(key: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 21) % BUCKETS
}

struct Slab {
    table: Addr,
    chunks: Addr,
    chunk_bytes: u64,
    /// Shadow-side free list and LRU order (allocator metadata lives in
    /// DRAM in real memcached; only item writes are transactional).
    free: Vec<u64>,
    lru: Vec<u64>, // front = most recent
}

impl Slab {
    fn find(&self, ws: &mut Workspace, key: u64) -> u64 {
        let mut cur = ws.load(self.table.offset(hash(key) * 8));
        let mut hops = 0;
        while cur != 0 && hops < 16 {
            if ws.load(Addr::new(cur + KEY)) == key {
                return cur;
            }
            cur = ws.load(Addr::new(cur + HNEXT));
            hops += 1;
        }
        0
    }

    fn unlink_hash(&self, ws: &mut Workspace, chunk: u64) {
        let key = ws.peek(Addr::new(chunk + KEY));
        let bucket = self.table.offset(hash(key) * 8);
        let mut prev = 0u64;
        let mut cur = ws.load(bucket);
        while cur != 0 {
            if cur == chunk {
                let next = ws.load(Addr::new(cur + HNEXT));
                if prev == 0 {
                    ws.store(bucket, next);
                } else {
                    ws.store(Addr::new(prev + HNEXT), next);
                }
                return;
            }
            prev = cur;
            cur = ws.load(Addr::new(cur + HNEXT));
        }
    }

    fn touch(&mut self, chunk: u64) {
        self.lru.retain(|&c| c != chunk);
        self.lru.insert(0, chunk);
    }
}

/// Generates one thread's memcached trace.
pub fn generate_thread(cfg: &WorkloadConfig, thread: usize) -> ThreadTrace {
    let mut ws = Workspace::new(cfg.data_base, thread, cfg.seed.wrapping_add(12));
    let chunk_bytes = cfg.dataset.bytes();
    let value_words = ((chunk_bytes - VALUE) / WORD_BYTES as u64).min(3);
    let mut slab = Slab {
        table: ws.pmalloc(BUCKETS * 8),
        chunks: ws.pmalloc(CHUNKS * chunk_bytes),
        chunk_bytes,
        free: (0..CHUNKS).rev().collect(),
        lru: Vec::new(),
    };
    // Pre-compute chunk addresses; free list holds indices.
    let chunk_addr = |i: u64, s: &Slab| s.chunks.offset(i * s.chunk_bytes).as_u64();
    let key_space: u64 = 2048;

    const OPS_PER_TX: usize = 6;
    for _ in 0..cfg.per_thread() {
        ws.begin_tx();
        for _ in 0..OPS_PER_TX {
            let key = 1 + ws.rng().gen_range(key_space);
            if ws.rng().gen_bool(0.6) {
                // SET.
                let found = slab.find(&mut ws, key);
                let chunk = if found != 0 {
                    found
                } else {
                    let idx = match slab.free.pop() {
                        Some(idx) => idx,
                        None => {
                            // Evict the LRU tail: unlink from its bucket;
                            // its chunk is recycled for the new item.
                            let victim = slab.lru.pop().expect("lru non-empty when full");
                            slab.unlink_hash(&mut ws, victim);
                            (victim - slab.chunks.as_u64()) / slab.chunk_bytes
                        }
                    };
                    let chunk = chunk_addr(idx, &slab);
                    ws.store(Addr::new(chunk + KEY), key);
                    let bucket = slab.table.offset(hash(key) * 8);
                    let head = ws.load(bucket);
                    ws.store(Addr::new(chunk + HNEXT), head);
                    ws.store(bucket, chunk);
                    chunk
                };
                // Items have similar layouts: recycled chunks are rewritten
                // with mostly-clean bytes (same flags, nearby values).
                ws.store(Addr::new(chunk + FLAGS), 0x10 | (value_words << 8));
                for w in 0..value_words {
                    ws.store(
                        Addr::new(chunk + VALUE + w * 8),
                        0x76_0000 | ((key + w) % 251),
                    );
                }
                slab.touch(chunk);
            } else {
                // GET.
                let found = slab.find(&mut ws, key);
                if found != 0 {
                    let _ = ws.load(Addr::new(found + VALUE));
                    slab.touch(found);
                }
            }
            ws.compute(8);
        }
        ws.end_tx();
    }
    ws.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetSize, WorkloadConfig};
    use crate::trace::Op;

    fn cfg(n: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads: 1,
            total_transactions: n,
            dataset: DatasetSize::Small,
            seed: 43,
            data_base: Addr::new(0x1000_0000),
        }
    }

    #[test]
    fn chunks_are_recycled_after_capacity() {
        // With 2048 keys and 512 chunks, evictions must recycle addresses:
        // the touched line set stays bounded by the slab.
        let t = generate_thread(&cfg(1500), 0);
        let mut lines = std::collections::HashSet::new();
        for tx in &t.transactions {
            for op in &tx.ops {
                if let Op::Store(a, _) = op {
                    lines.insert(a.line());
                }
            }
        }
        assert!(
            lines.len() <= (CHUNKS + BUCKETS / 8 + 8) as usize,
            "stores stay within the slab ({} lines)",
            lines.len()
        );
    }

    #[test]
    fn recycled_items_rewrite_mostly_clean_bytes() {
        let t = generate_thread(&cfg(1500), 0);
        // Clean-byte profile: the value/flags rewrites of recycled chunks
        // keep most bytes unchanged.
        let mut shadow = std::collections::HashMap::new();
        let (mut clean, mut total) = (0u64, 0u64);
        for tx in &t.transactions {
            for op in &tx.ops {
                if let Op::Store(a, v) = op {
                    let old = shadow.insert(a.as_u64(), *v).unwrap_or(0);
                    let dirty = morlog_sim_core::types::dirty_byte_mask(old, *v).count_ones();
                    clean += 8 - dirty as u64;
                    total += 8;
                }
            }
        }
        assert!(
            clean * 10 > total * 5,
            "majority-clean rewrites: {clean}/{total}"
        );
    }

    #[test]
    fn sets_and_gets_both_occur() {
        let t = generate_thread(&cfg(200), 0);
        assert!(t.transactions.iter().all(|tx| tx.loads() > 0));
        assert!(t.transactions.iter().filter(|tx| tx.stores() > 0).count() > 150);
    }
}
