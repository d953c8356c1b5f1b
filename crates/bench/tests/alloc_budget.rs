//! The log-append path allocates nothing per record: with the host
//! profiler on (the counts `perfbench --trace 1` reports), a steady-state
//! stretch of a MorLog-SLDE hash run makes no heap allocation in the
//! `encoding` and `mem_controller` phases per log append. What remains
//! is the amortised growth of the per-slot and per-line tables, a handful
//! of reallocations in a whole run.
//!
//! The profiler's enable flag is process-global, so this file holds a
//! single test.

use morlog_bench as _; // installs the counting global allocator
use morlog_sim::System;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{generate, DatasetSize, WorkloadConfig, WorkloadKind};

#[test]
fn log_appends_allocate_nothing_in_steady_state() {
    let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
    let wl = WorkloadConfig {
        threads: 8,
        total_transactions: 1_200,
        dataset: DatasetSize::Small,
        seed: 42,
        data_base: System::data_base(&cfg),
    };
    let trace = generate(WorkloadKind::Hash, &wl);
    hostprof::force_enable();
    let mut sys = System::new(cfg, &trace);
    // Warm up: the first stretch grows the tables to their working size.
    sys.run_for(40_000);
    let _ = hostprof::take();
    while !sys.run_for(4_096) {}
    let profile = hostprof::take();
    hostprof::force_disable();

    let appends = profile.counter(HostCounter::LogAppends);
    assert!(appends > 2_000, "only {appends} log appends measured");
    for phase in [HostPhase::Encoding, HostPhase::MemController] {
        let allocs = profile.alloc_count()[phase as usize];
        assert!(
            allocs * 100 <= appends,
            "{}: {allocs} allocations over {appends} log appends",
            phase.label()
        );
    }
}
