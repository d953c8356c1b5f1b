//! `System::new` shares the generated trace instead of copying it: with
//! the host profiler on (the counts `perfbench --trace 1` reports),
//! building a system over an SPS trace of 5,000 transactions allocates
//! less than 64 KiB more than building one over 500. What the build
//! allocates is the machine (caches, controllers, the NVMM image of the
//! pre-loaded words); the transactions' ops and a per-store record of them
//! are not among it.
//!
//! The profiler's enable flag is process-global, so this file holds a
//! single test.

use morlog_bench as _; // installs the counting global allocator
use morlog_sim::System;
use morlog_sim_core::hostprof;
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{generate, DatasetSize, WorkloadConfig, WorkloadKind};

/// Bytes `System::new` allocates over an SPS trace of `transactions`.
fn build_bytes(transactions: usize) -> u64 {
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let wl = WorkloadConfig {
        threads: 8,
        total_transactions: transactions,
        dataset: DatasetSize::Small,
        seed: 42,
        data_base: System::data_base(&cfg),
    };
    let trace = generate(WorkloadKind::Sps, &wl);
    let _ = hostprof::take();
    let sys = System::new(cfg, &trace);
    let profile = hostprof::take();
    drop(sys);
    profile.alloc_bytes_total()
}

#[test]
fn build_does_not_grow_with_the_trace() {
    hostprof::force_enable();
    let small = build_bytes(500);
    let large = build_bytes(5_000);
    hostprof::force_disable();
    assert!(small > 0, "the profiler counted no allocation");
    assert!(
        large < small + 64 * 1024,
        "System::new allocated {large} B for 5,000 transactions, {small} B for 500"
    );
}
