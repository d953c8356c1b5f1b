//! The core-issue path allocates nothing per access: with the host
//! profiler on (the counts `perfbench --trace 1` reports), a steady-state
//! stretch of a MorLog-SLDE SPS run makes no heap allocation in the
//! `core_issue` and `cache_hierarchy` phases per cache lookup. Eviction
//! events go through a buffer the engine reuses, cache lines stay in their
//! way slots, and the oracle only counts each transaction's executed
//! stores (it reads their values from the shared trace). What remains is
//! the amortised growth of the caches' per-set slot arenas.
//!
//! The profiler's enable flag is process-global, so this file holds a
//! single test.

use morlog_bench as _; // installs the counting global allocator
use morlog_sim::System;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{generate, DatasetSize, WorkloadConfig, WorkloadKind};

#[test]
fn core_issue_and_cache_allocate_nothing_per_lookup() {
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let wl = WorkloadConfig {
        threads: 8,
        total_transactions: 4_000,
        dataset: DatasetSize::Small,
        seed: 42,
        data_base: System::data_base(&cfg),
    };
    let trace = generate(WorkloadKind::Sps, &wl);
    hostprof::force_enable();
    let mut sys = System::new(cfg, &trace);
    // Warm up: the first stretch fills the caches' slot arenas.
    sys.run_for(20_000);
    let _ = hostprof::take();
    while !sys.run_for(4_096) {}
    let profile = hostprof::take();
    hostprof::force_disable();

    let lookups = profile.counter(HostCounter::CacheLookups);
    assert!(lookups > 20_000, "only {lookups} cache lookups measured");
    for phase in [HostPhase::CoreIssue, HostPhase::CacheHierarchy] {
        let allocs = profile.alloc_count()[phase as usize];
        assert!(
            allocs * 100 <= lookups,
            "{}: {allocs} allocations over {lookups} cache lookups",
            phase.label()
        );
    }
}
