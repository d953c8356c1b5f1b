//! Pins every workload generator's output: a 64-bit FNV-1a digest of the
//! whole trace (thread order, transaction boundaries, every op and the
//! initial image) for each of the 13 benchmarks at 4 threads, 64
//! transactions, seed 42, Small data, plus Large for Hash and SPS.
//!
//! A change to how traces are built or stored must leave these digests
//! alone; a change that means to alter a generator updates them and says
//! why. Each transaction's ops must also be stored at their exact size.

use morlog_sim_core::Addr;
use morlog_workloads::{generate, DatasetSize, Op, WorkloadConfig, WorkloadKind, WorkloadTrace};
use DatasetSize::{Large, Small};
use WorkloadKind as K;

/// FNV-1a over 64-bit words, byte by byte in little-endian order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(trace: &WorkloadTrace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.threads.len() as u64);
    for thread in trace.threads.iter() {
        h.word(thread.transactions.len() as u64);
        for tx in &thread.transactions {
            h.word(tx.ops.len() as u64);
            for op in &tx.ops {
                match *op {
                    Op::Load(a) => {
                        h.word(0);
                        h.word(a.as_u64());
                    }
                    Op::Store(a, v) => {
                        h.word(1);
                        h.word(a.as_u64());
                        h.word(v);
                    }
                    Op::Compute(c) => {
                        h.word(2);
                        h.word(u64::from(c));
                    }
                }
            }
        }
        h.word(thread.initial.len() as u64);
        for &(a, v) in &thread.initial {
            h.word(a.as_u64());
            h.word(v);
        }
    }
    h.0
}

fn config(dataset: DatasetSize) -> WorkloadConfig {
    WorkloadConfig {
        threads: 4,
        total_transactions: 64,
        dataset,
        seed: 42,
        data_base: Addr::new(0x1000_0000),
    }
}

const PINNED: [(K, DatasetSize, u64); 15] = [
    (K::BTree, Small, 0x2c19_c8c1_524c_5f67),
    (K::Hash, Small, 0x6a7a_6611_55b4_9412),
    (K::Queue, Small, 0xb968_c978_49cb_3f21),
    (K::RBTree, Small, 0x58d3_02df_f805_687c),
    (K::Sdg, Small, 0x601e_1e96_e71d_5052),
    (K::Sps, Small, 0x069e_c6da_505d_90f1),
    (K::Echo, Small, 0x459e_9d38_7195_0ff7),
    (K::Ycsb, Small, 0x2d4a_b7ee_9f83_0a6b),
    (K::Tpcc, Small, 0x6ed4_3e76_658b_2f9d),
    (K::Vacation, Small, 0xc5f1_5f3d_a003_9aa6),
    (K::Ctree, Small, 0x34f6_4ac0_bce0_1c0f),
    (K::Redis, Small, 0x4dae_a0e7_3002_b0fe),
    (K::Memcached, Small, 0xec1b_804a_31dc_e7bb),
    (K::Hash, Large, 0xf12a_9ce0_e1e7_fe37),
    (K::Sps, Large, 0x957d_d6f8_cc7e_2d31),
];

#[test]
fn every_generator_matches_its_pinned_digest() {
    for kind in WorkloadKind::ALL {
        assert!(PINNED.iter().any(|&(k, _, _)| k == kind), "{kind} unpinned");
    }
    let mut wrong = Vec::new();
    for (kind, dataset, want) in PINNED {
        let got = digest(&generate(kind, &config(dataset)));
        if got != want {
            wrong.push(format!(
                "{kind}-{}: {got:#018x}, pinned {want:#018x}",
                dataset.label()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "trace digests moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn transactions_are_stored_at_their_exact_size() {
    for (kind, dataset, _) in PINNED {
        let trace = generate(kind, &config(dataset));
        for (t, thread) in trace.threads.iter().enumerate() {
            for (i, tx) in thread.transactions.iter().enumerate() {
                assert_eq!(
                    tx.ops.capacity(),
                    tx.ops.len(),
                    "{kind}-{} thread {t} transaction {i}",
                    dataset.label()
                );
            }
        }
    }
}
