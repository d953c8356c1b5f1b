//! Metric counters reported by the simulator.
//!
//! All component crates write into these plain counter structs; the
//! benchmark harness reads them to regenerate the paper's tables and
//! figures. Keeping them in `sim-core` avoids cross-crate dependencies
//! between substrates.

use crate::timing::{Cycle, Frequency};

/// Per-cache-level hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed in this level.
    pub misses: u64,
    /// Dirty lines written back from this level.
    pub writebacks: u64,
    /// Lines evicted (clean or dirty).
    pub evictions: u64,
}

/// NVMM device and controller counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Read requests serviced by NVMM.
    pub nvmm_reads: u64,
    /// Write requests serviced by NVMM (data + log). This is the "NVMM write
    /// traffic" of Fig. 13.
    pub nvmm_writes: u64,
    /// Write requests that were data (in-place) writes.
    pub data_writes: u64,
    /// Write requests that were log writes.
    pub log_writes: u64,
    /// TLC cells actually programmed (after DCW).
    pub cells_programmed: u64,
    /// Bits programmed (cells × bits-per-cell of the mapping used); the
    /// "log bits" of Table VI count only log writes.
    pub bits_programmed: u64,
    /// Bits programmed by log writes only.
    pub log_bits_programmed: u64,
    /// Total NVMM write energy in picojoules.
    pub write_energy_pj: f64,
    /// Write energy spent on log writes only, in picojoules.
    pub log_write_energy_pj: f64,
    /// Cycles any core spent stalled because a write queue was full.
    pub wq_full_stall_cycles: u64,
    /// Number of write-queue drain episodes.
    pub drains: u64,
    /// Reads delayed behind an in-progress drain.
    pub reads_blocked_by_drain: u64,
    /// Writes that were dropped because DCW found zero modified cells.
    pub silent_block_writes: u64,
    /// Total cycles NVMM reads spent from enqueue to completion.
    pub read_wait_cycles: u64,
    /// Times a log slice was extended with a temporary overflow region
    /// (§III-A option 2).
    pub log_overflow_growths: u64,
    /// Crash-time torn drains injected by the fault plan (a log slot
    /// persisted only a prefix of its words).
    pub faults_torn_drains: u64,
    /// Crash-time bit flips injected by the fault plan (escaped
    /// write-verify; must be caught by recovery's CRC check).
    pub faults_bit_flips: u64,
    /// Drain-time writes whose verify pass read back a mismatch (injected
    /// corruption or a stuck slot).
    pub write_verify_failures: u64,
    /// Re-programs performed after a failed verify.
    pub write_verify_retries: u64,
    /// Log slots remapped to spares after the retry budget was exhausted
    /// (stuck-at wear-out degradation path).
    pub stuck_slots_remapped: u64,
}

impl MemStats {
    /// Whether any crash-time fault (torn drain or escaped bit flip) was
    /// injected — the damage classes recovery must detect and drop. The
    /// oracle relaxes strict durability exactly when this is set.
    pub fn crash_faults_injected(&self) -> bool {
        self.faults_torn_drains > 0 || self.faults_bit_flips > 0
    }
}

/// Logging-mechanism counters (§III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Undo+redo entries created.
    pub undo_redo_created: u64,
    /// Redo entries created.
    pub redo_created: u64,
    /// Entries coalesced into an existing buffer entry.
    pub coalesced: u64,
    /// Entries discarded as silent log writes (all bytes clean, §IV-A).
    pub silent_discarded: u64,
    /// Redo entries discarded because the line was evicted by the LLC or
    /// rewritten by the same transaction (§III-B).
    pub redo_discarded: u64,
    /// Log entries actually written to NVMM.
    pub entries_written: u64,
    /// Commit records written.
    pub commit_records: u64,
    /// Cycles transactions spent waiting at commit for log persistence.
    pub commit_stall_cycles: u64,
    /// Cycles stores stalled because a log buffer was full.
    pub buffer_full_stall_cycles: u64,
    /// Redo entries created after their transaction committed (tracked
    /// against the ulog counter by the delay-persistence protocol).
    pub post_commit_redo: u64,
    /// Times the log ring filled and appends had to wait for truncation.
    pub log_region_full_stalls: u64,
}

/// Where one core-cycle went, for the cycle-attribution profiler.
///
/// The engine classifies every core × cycle pair into exactly one of
/// these buckets, so a run's [`CycleAttribution`] accounts sum exactly
/// to `cycles × cores`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Issuing instructions: compute, cache-hit service, store retire,
    /// transaction begin — the productive bucket.
    Busy,
    /// Waiting for a memory read (cache-miss service).
    ReadWait,
    /// Waiting for a memory read while a write-queue drain was in
    /// progress (drain interference on the read path).
    DrainWait,
    /// A store stalled on on-chip log-buffer backpressure.
    LogBufferStall,
    /// A store stalled because its log flush found the NVMM write queue
    /// full.
    WqStall,
    /// Waiting for commit: log persistence at `Tx_End`, or the §III-A
    /// transaction-begin backpressure behind a commit backlog.
    CommitWait,
    /// The core finished its trace while others were still running.
    Idle,
}

/// Per-component cycle accounts: how many core-cycles each stall class
/// consumed. All fields are in **core-cycles** (8 cores running for 10
/// cycles contribute 80), so the accounts of one run sum exactly to
/// `SimStats::cycles × cores` — the profiler's invariant, checked by
/// [`CycleAttribution::total`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Core-cycles spent issuing (compute, cache hits, store retire).
    pub busy: u64,
    /// Core-cycles waiting on cache-miss read service.
    pub read_wait: u64,
    /// Core-cycles waiting on reads delayed by a write-queue drain.
    pub drain_wait: u64,
    /// Core-cycles stores stalled on log-buffer backpressure.
    pub log_buffer_stall: u64,
    /// Core-cycles stores stalled on a full NVMM write queue.
    pub wq_stall: u64,
    /// Core-cycles waiting for commit persistence or begin backpressure.
    pub commit_wait: u64,
    /// Core-cycles idle after a core retired its whole trace.
    pub idle: u64,
}

impl CycleAttribution {
    /// Stable column labels, in field order (for tables and JSON).
    pub const LABELS: [&'static str; 7] = [
        "busy",
        "read_wait",
        "drain_wait",
        "log_buffer_stall",
        "wq_stall",
        "commit_wait",
        "idle",
    ];

    /// Charges one core-cycle to `kind`.
    pub fn add(&mut self, kind: StallKind) {
        self.add_n(kind, 1);
    }

    /// Charges `n` core-cycles to `kind`.
    pub fn add_n(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::Busy => self.busy += n,
            StallKind::ReadWait => self.read_wait += n,
            StallKind::DrainWait => self.drain_wait += n,
            StallKind::LogBufferStall => self.log_buffer_stall += n,
            StallKind::WqStall => self.wq_stall += n,
            StallKind::CommitWait => self.commit_wait += n,
            StallKind::Idle => self.idle += n,
        }
    }

    /// The accounts in [`CycleAttribution::LABELS`] order.
    pub fn values(&self) -> [u64; 7] {
        [
            self.busy,
            self.read_wait,
            self.drain_wait,
            self.log_buffer_stall,
            self.wq_stall,
            self.commit_wait,
            self.idle,
        ]
    }

    /// Sum of all accounts. Equals `cycles × cores` for a completed run
    /// (the attribution invariant).
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }
}

/// Whole-run statistics for one simulated system.
///
/// # Example
///
/// ```
/// use morlog_sim_core::{Frequency, SimStats};
/// let mut s = SimStats::default();
/// s.cycles = 3_000_000_000;
/// s.transactions_committed = 600;
/// let tput = s.tx_per_second(Frequency::ghz(3.0));
/// assert!((tput - 600.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Transactions committed across all threads.
    pub transactions_committed: u64,
    /// Stores executed inside transactions.
    pub tx_stores: u64,
    /// Loads executed inside transactions.
    pub tx_loads: u64,
    /// Per-level cache counters: `[L1, L2, L3]` summed over cores.
    pub cache: [CacheLevelStats; 3],
    /// Memory-system counters.
    pub mem: MemStats,
    /// Logging counters.
    pub log: LogStats,
    /// Cycle-attribution accounts (core-cycles per stall class; sum is
    /// exactly `cycles × cores` for a completed run).
    pub attr: CycleAttribution,
    /// Telemetry: commit-latency histograms, log-write distributions
    /// and cycle-sampled occupancy series (see [`crate::metrics`]).
    pub metrics: crate::metrics::MetricsSet,
}

impl SimStats {
    /// Transaction throughput in transactions per simulated second.
    ///
    /// Returns 0 when no cycles elapsed.
    pub fn tx_per_second(&self, freq: Frequency) -> f64 {
        let secs = freq.cycles_to_seconds(self.cycles);
        if secs == 0.0 {
            0.0
        } else {
            self.transactions_committed as f64 / secs
        }
    }
}

/// Coverage counters of one crash-point model-checking sweep
/// (`crates/checker`): how many persist-point crash states the reference
/// schedule contained, how many were pruned as equivalent, and how many
/// replay-crash-recover-verify runs actually executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Persist events in the reference schedule (crash points `0..=events`).
    pub events: u64,
    /// Candidate crash points (reference events plus the initial state).
    pub points_total: u64,
    /// Points skipped because the persist-domain state hash did not change
    /// from the previous event (equivalence pruning).
    pub pruned: u64,
    /// Points dropped by an explicit `MORLOG_CHECK_MAX_POINTS` cap.
    pub capped: u64,
    /// Points actually replayed, crashed and recovered.
    pub explored: u64,
    /// Replay runs whose recovery the oracle verified (two per explored
    /// point when the torn-drain fault variant is enabled).
    pub verified: u64,
    /// Verification failures (counterexamples found).
    pub failures: u64,
}

/// Coverage counters of one coverage-guided random crash campaign
/// (`crates/checker` fuzz mode). Invariants the results validator checks:
/// `executed + pruned == sampled` and `verified + failures == executed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Persist events in the reference schedule (the sampling universe is
    /// crash points `0..=events`).
    pub events: u64,
    /// Campaign items after dedup: base draws plus the neighborhood points
    /// queued around novel-coverage hits, each paired with its fault
    /// variant.
    pub sampled: u64,
    /// Draws whose `(event kind, progress phase)` coverage bucket had never
    /// been seen before in this campaign (these trigger neighborhood
    /// resampling).
    pub novel: u64,
    /// Sampled items skipped because the persist-domain state hash did not
    /// change at their crash point (equivalence pruning, as in the
    /// exhaustive mode).
    pub pruned: u64,
    /// Items actually replayed, crashed and recovered.
    pub executed: u64,
    /// Replays whose recovery the oracle verified.
    pub verified: u64,
    /// Verification failures (counterexamples found).
    pub failures: u64,
}

impl FuzzStats {
    /// Adds another campaign's counters into this one.
    pub fn merge(&mut self, other: &FuzzStats) {
        self.events += other.events;
        self.sampled += other.sampled;
        self.novel += other.novel;
        self.pruned += other.pruned;
        self.executed += other.executed;
        self.verified += other.verified;
        self.failures += other.failures;
    }
}

/// Geometric mean of a series of ratios (the paper reports Gmean bars).
///
/// Returns `None` for an empty series or if any value is non-positive.
///
/// # Example
///
/// ```
/// use morlog_sim_core::stats::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geometric_mean(&[]).is_none());
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_accounts_add_and_total() {
        let mut a = CycleAttribution::default();
        a.add(StallKind::Busy);
        a.add(StallKind::Busy);
        a.add(StallKind::WqStall);
        a.add(StallKind::Idle);
        assert_eq!(a.busy, 2);
        assert_eq!(a.wq_stall, 1);
        assert_eq!(a.total(), 4);
        a.add(StallKind::CommitWait);
        assert_eq!(a.total(), 5);
        assert_eq!(a.values().len(), CycleAttribution::LABELS.len());
    }

    #[test]
    fn throughput_zero_when_no_cycles() {
        let s = SimStats::default();
        assert_eq!(s.tx_per_second(Frequency::ghz(3.0)), 0.0);
    }

    #[test]
    fn gmean_rejects_nonpositive() {
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
        assert!(geometric_mean(&[f64::NAN]).is_none());
    }

    #[test]
    fn gmean_of_constant_is_constant() {
        let g = geometric_mean(&[2.5, 2.5, 2.5]).unwrap();
        assert!((g - 2.5).abs() < 1e-12);
    }
}
