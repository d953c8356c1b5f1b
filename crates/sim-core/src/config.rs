//! Configuration for every simulated component.
//!
//! Defaults reproduce Table III of the paper: 8 in-order 3 GHz cores, a
//! 32 KB/256 KB/8 MB cache hierarchy, and an 8 GB TLC-RRAM main memory with
//! 4 channels × 1 rank × 8 banks behind an FRFCFS-WQF controller with a
//! 64-entry write queue and an 80 % drain watermark.

use crate::timing::{Cycle, Frequency};

/// Which hardware logging design a simulated system runs.
///
/// These are the six configurations evaluated in §VI-A of the paper.
///
/// # Example
///
/// ```
/// use morlog_sim_core::DesignKind;
/// assert!(DesignKind::MorLogSlde.is_morlog());
/// assert!(DesignKind::FwbCrade.uses_crade_only());
/// assert_eq!(DesignKind::ALL.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DesignKind {
    /// FWB undo+redo logging (Ogleari et al., HPCA'18) with the CRADE codec.
    /// This is the normalisation baseline everywhere in the evaluation.
    FwbCrade,
    /// FWB with a log buffer as large as MorLog's two buffers combined.
    /// Cannot guarantee atomic persistence (kept for the same comparison the
    /// paper makes).
    FwbUnsafe,
    /// FWB with the SLDE codec (dirty flags derived from undo vs. redo data).
    FwbSlde,
    /// Morphable logging with the CRADE codec, synchronous commit.
    MorLogCrade,
    /// Morphable logging with the SLDE codec, synchronous commit.
    MorLogSlde,
    /// Morphable logging + SLDE + the delay-persistence commit protocol.
    MorLogDp,
}

impl DesignKind {
    /// All six designs, in the order the paper's figures list them.
    pub const ALL: [DesignKind; 6] = [
        DesignKind::FwbCrade,
        DesignKind::FwbUnsafe,
        DesignKind::FwbSlde,
        DesignKind::MorLogCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ];

    /// The five designs that guarantee atomic persistence, in
    /// [`DesignKind::ALL`] order: every design but FWB-Unsafe, which
    /// cannot pass a crash sweep by construction (that is its point).
    pub const ATOMIC: [DesignKind; 5] = [
        DesignKind::FwbCrade,
        DesignKind::FwbSlde,
        DesignKind::MorLogCrade,
        DesignKind::MorLogSlde,
        DesignKind::MorLogDp,
    ];

    /// Returns `true` for the three morphable-logging designs.
    pub fn is_morlog(self) -> bool {
        matches!(
            self,
            DesignKind::MorLogCrade | DesignKind::MorLogSlde | DesignKind::MorLogDp
        )
    }

    /// Returns `true` for designs that encode log data with CRADE only
    /// (no DLDC path).
    pub fn uses_crade_only(self) -> bool {
        matches!(
            self,
            DesignKind::FwbCrade | DesignKind::FwbUnsafe | DesignKind::MorLogCrade
        )
    }

    /// Returns `true` for designs using the delay-persistence commit.
    pub fn delay_persistence(self) -> bool {
        matches!(self, DesignKind::MorLogDp)
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::FwbCrade => "FWB-CRADE",
            DesignKind::FwbUnsafe => "FWB-Unsafe",
            DesignKind::FwbSlde => "FWB-SLDE",
            DesignKind::MorLogCrade => "MorLog-CRADE",
            DesignKind::MorLogSlde => "MorLog-SLDE",
            DesignKind::MorLogDp => "MorLog-DP",
        }
    }
}

impl std::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deliberately broken design variant for the crash-point model
/// checker's mutation self-test (`crates/checker`).
///
/// The checker proves it has teeth by enabling one of these sabotages and
/// demanding a counterexample; every real design runs with
/// [`CheckMutation::None`], where the simulated hardware is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckMutation {
    /// The correct hardware (the only variant benchmarks ever run).
    #[default]
    None,
    /// Drops the undo→data ordering fence: updated data may enter the
    /// persist domain while the undo+redo entry covering them is still
    /// buffered on chip (violates the §II-B write-ahead invariant).
    DropUndoFence,
    /// Skips the delay-persistence `ulog` counter bump at commit
    /// (§III-C): the commit record under-reports how many post-commit
    /// redo entries the transaction still owes the log.
    SkipUlogBump,
    /// Skews every redo-only log entry's data word by one: the program
    /// observes correct values, but recovery rolls winners forward to a
    /// different state than a faithful implementation of the same spec.
    /// This is the seeded spec-divergence target for the differential
    /// checker — two designs crash-recovered at matched persist progress
    /// must agree on program-visible state, and this sabotage makes them
    /// disagree.
    SkewRedoValue,
}

impl CheckMutation {
    /// Short label for tables and results records.
    pub fn label(self) -> &'static str {
        match self {
            CheckMutation::None => "none",
            CheckMutation::DropUndoFence => "drop-undo-fence",
            CheckMutation::SkipUlogBump => "skip-ulog-bump",
            CheckMutation::SkewRedoValue => "skew-redo-value",
        }
    }
}

/// Core pipeline parameters (Table III: 8 in-order cores at 3 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Number of simulated cores (= maximum worker threads).
    pub cores: usize,
    /// Core clock frequency.
    pub frequency: Frequency,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            cores: 8,
            frequency: Frequency::ghz(3.0),
        }
    }
}

/// One cache level's geometry and access latency.
///
/// # Example
///
/// ```
/// use morlog_sim_core::CacheLevelConfig;
/// let l1 = CacheLevelConfig::l1_default();
/// assert_eq!(l1.sets(), 32 * 1024 / 64 / 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheLevelConfig {
    /// Table III L1: private 32 KB, 8-way, 4 cycles.
    pub fn l1_default() -> Self {
        CacheLevelConfig {
            capacity_bytes: 32 * 1024,
            ways: 8,
            latency_cycles: 4,
        }
    }

    /// Table III L2: private 256 KB, 8-way, 12 cycles.
    pub fn l2_default() -> Self {
        CacheLevelConfig {
            capacity_bytes: 256 * 1024,
            ways: 8,
            latency_cycles: 12,
        }
    }

    /// Table III L3: shared 8 MB, 16-way, 28 cycles.
    pub fn l3_default() -> Self {
        CacheLevelConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
            latency_cycles: 28,
        }
    }

    /// Number of sets implied by capacity, line size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is zero-sized.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / crate::types::LINE_BYTES;
        assert!(
            self.ways > 0 && lines > 0 && lines.is_multiple_of(self.ways),
            "invalid cache geometry: {self:?}"
        );
        lines / self.ways
    }
}

/// The three-level hierarchy of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Private per-core L1 data cache.
    pub l1: CacheLevelConfig,
    /// Private per-core L2.
    pub l2: CacheLevelConfig,
    /// Shared L3 (the LLC).
    pub l3: CacheLevelConfig,
    /// Period of the force-write-back scan in cycles (§VI-A: every 3 M
    /// cycles, used both for persistence of updated data and log truncation).
    pub force_write_back_period: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheLevelConfig::l1_default(),
            l2: CacheLevelConfig::l2_default(),
            l3: CacheLevelConfig::l3_default(),
            force_write_back_period: 3_000_000,
        }
    }
}

impl HierarchyConfig {
    /// The minimum number of cycles for a dirty line evicted from L1 to reach
    /// the memory controller (traversal of L2 + L3). Log buffers must evict
    /// entries in fewer cycles than this to preserve the undo-before-data
    /// ordering (§II-B).
    pub fn min_traversal_cycles(&self) -> u64 {
        self.l2.latency_cycles + self.l3.latency_cycles
    }
}

/// Main-memory organisation and controller policy (Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Write-queue capacity per channel (FRFCFS-WQF, 64 entries).
    pub write_queue_entries: usize,
    /// Fraction of write-queue occupancy that triggers a drain (0.8).
    pub drain_watermark: f64,
    /// Fraction of occupancy at which a drain stops (hysteresis low mark).
    pub drain_low_mark: f64,
    /// Array read latency in nanoseconds (Table III: 25 ns).
    pub read_latency_ns: f64,
    /// DRAM access latency in nanoseconds (DRAM traffic needs no encoding
    /// and no persistence; it bypasses the NVMM write queue).
    pub dram_latency_ns: f64,
    /// Multiplier applied to all cell write latencies (×1 in Table III; the
    /// §VI-E sensitivity study sweeps ×1..×32).
    pub write_latency_scale: f64,
    /// Size of the NVMM log region in bytes (per processor). The paper
    /// prevents overflow by "allocating a large-enough log region"
    /// (§III-A); truncation only advances at force-write-back scans, so the
    /// region must hold every entry between scans.
    pub log_region_bytes: usize,
    /// Number of log slices. 1 = the paper's evaluated centralized log;
    /// more = distributed (per-thread) logs, the §III-F variant where
    /// commit records carry timestamps to define the commit order.
    pub log_slices: usize,
    /// Write-verify retry budget: how many re-programs the controller
    /// attempts after a failed read-back before declaring the slot stuck
    /// and remapping it to a spare.
    pub write_retry_budget: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            channels: 4,
            ranks: 1,
            banks: 8,
            write_queue_entries: 64,
            drain_watermark: 0.8,
            drain_low_mark: 0.2,
            read_latency_ns: 25.0,
            dram_latency_ns: 15.0,
            write_latency_scale: 1.0,
            log_region_bytes: 256 * 1024 * 1024,
            log_slices: 1,
            write_retry_budget: 3,
        }
    }
}

/// How log entries of committed transactions are deleted (§III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TruncationPolicy {
    /// Entries of transactions committed before the last two
    /// force-write-back scans are deleted (simpler, less hardware).
    #[default]
    ForceWriteBack,
    /// A transaction table counts each transaction's still-dirty cache
    /// lines; entries are deleted as soon as the counter reaches zero
    /// (more flexible).
    TransactionTable,
}

/// Log-buffer sizes and logging policy (§III, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Undo+redo buffer entries (default 16). For FWB designs this is the
    /// single log buffer's size.
    pub undo_redo_entries: usize,
    /// Redo buffer entries (default 32). Unused by FWB designs, except
    /// FWB-Unsafe which folds them into its single buffer.
    pub redo_entries: usize,
    /// Cycles after which an undo+redo entry is eagerly written to NVMM.
    /// Must stay below [`HierarchyConfig::min_traversal_cycles`].
    pub eager_evict_cycles: u64,
    /// Whether redo-buffer entries are discarded when their cache line is
    /// evicted by the LLC (i.e. the updated data reached the persist domain
    /// first). On by default; an ablation switch.
    pub discard_redo_on_llc_evict: bool,
    /// The §III-F log-management option in use.
    pub truncation: TruncationPolicy,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            undo_redo_entries: 16,
            redo_entries: 32,
            eager_evict_cycles: 32,
            discard_redo_on_llc_evict: true,
            truncation: TruncationPolicy::ForceWriteBack,
        }
    }
}

/// Event-tracing configuration (see [`crate::trace`]).
///
/// Disabled by default; the `MORLOG_TRACE` environment variable can
/// force-enable tracing for a run regardless of this struct (the bench
/// harness reads it through [`crate::trace::Tracer::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether the system allocates a trace ring and emits events.
    pub enabled: bool,
    /// Ring capacity in records when enabled.
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            buffer_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Telemetry configuration (see [`crate::metrics`]).
///
/// Histograms (commit latency, log-entry sizes, encoder choices) are
/// always collected — they are plain counters with negligible cost.
/// This struct only controls the cycle-driven time-series sampler; the
/// `MORLOG_SAMPLE_CYCLES` environment variable overrides
/// `sample_cycles` for a run when set (0 disables sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Time-series sample period in cycles; 0 disables sampling.
    pub sample_cycles: Cycle,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            sample_cycles: crate::metrics::DEFAULT_SAMPLE_CYCLES,
        }
    }
}

/// Complete configuration of one simulated system.
///
/// # Example
///
/// ```
/// use morlog_sim_core::{DesignKind, SystemConfig};
/// let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.design, DesignKind::MorLogSlde);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The logging design under evaluation.
    pub design: DesignKind,
    /// Core parameters.
    pub cores: CoreConfig,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Main-memory parameters.
    pub mem: MemConfig,
    /// Logging parameters.
    pub log: LogConfig,
    /// Event-tracing parameters (off by default; zero simulation impact).
    pub trace: TraceConfig,
    /// Telemetry sampling parameters (histograms are always on).
    pub metrics: MetricsConfig,
    /// Model-checker sabotage switch ([`CheckMutation::None`] outside the
    /// checker's mutation self-test).
    pub mutation: CheckMutation,
}

impl SystemConfig {
    /// The default system (Table III) running the given design. FWB-Unsafe
    /// gets a single log buffer sized as the sum of the two MorLog buffers,
    /// exactly as §VI-A specifies.
    pub fn for_design(design: DesignKind) -> Self {
        let mut cfg = SystemConfig {
            design,
            cores: CoreConfig::default(),
            hierarchy: HierarchyConfig::default(),
            mem: MemConfig::default(),
            log: LogConfig::default(),
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
            mutation: CheckMutation::None,
        };
        if design == DesignKind::FwbUnsafe {
            cfg.log.undo_redo_entries += cfg.log.redo_entries;
            cfg.log.redo_entries = 0;
        }
        cfg
    }

    /// Checks cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a constraint is violated, e.g.
    /// when the eager eviction window would allow updated data to outrun its
    /// undo log data.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores.cores == 0 || self.cores.cores > 256 {
            return Err(format!(
                "core count {} out of range 1..=256",
                self.cores.cores
            ));
        }
        if self.log.eager_evict_cycles >= self.hierarchy.min_traversal_cycles() {
            return Err(format!(
                "eager_evict_cycles {} must be below the minimum cache traversal \
                 latency {} to preserve undo-before-data ordering",
                self.log.eager_evict_cycles,
                self.hierarchy.min_traversal_cycles()
            ));
        }
        if self.log.undo_redo_entries == 0 {
            return Err("undo+redo buffer must have at least one entry".to_string());
        }
        if !(0.0..=1.0).contains(&self.mem.drain_watermark)
            || !(0.0..=1.0).contains(&self.mem.drain_low_mark)
            || self.mem.drain_low_mark > self.mem.drain_watermark
        {
            return Err("drain watermarks must satisfy 0 <= low <= high <= 1".to_string());
        }
        if self.mem.channels == 0 || self.mem.banks == 0 || self.mem.ranks == 0 {
            return Err("memory organisation must be non-empty".to_string());
        }
        if self.mem.write_latency_scale <= 0.0 {
            return Err("write_latency_scale must be positive".to_string());
        }
        if self.mem.log_slices == 0 || self.mem.log_slices > 256 {
            return Err("log_slices must be in 1..=256".to_string());
        }
        // Exercises geometry assertions.
        let _ = self.hierarchy.l1.sets();
        let _ = self.hierarchy.l2.sets();
        let _ = self.hierarchy.l3.sets();
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::for_design(DesignKind::MorLogSlde)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.cores.cores, 8);
        assert_eq!(cfg.hierarchy.l1.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.hierarchy.l2.latency_cycles, 12);
        assert_eq!(cfg.hierarchy.l3.ways, 16);
        assert_eq!(cfg.mem.channels, 4);
        assert_eq!(cfg.mem.write_queue_entries, 64);
        assert!((cfg.mem.drain_watermark - 0.8).abs() < 1e-12);
        assert_eq!(cfg.log.undo_redo_entries, 16);
        assert_eq!(cfg.log.redo_entries, 32);
        cfg.validate().unwrap();
    }

    #[test]
    fn fwb_unsafe_gets_combined_buffer() {
        let cfg = SystemConfig::for_design(DesignKind::FwbUnsafe);
        assert_eq!(cfg.log.undo_redo_entries, 48);
        assert_eq!(cfg.log.redo_entries, 0);
    }

    #[test]
    fn validate_rejects_slow_eviction() {
        let mut cfg = SystemConfig::default();
        cfg.log.eager_evict_cycles = 100;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_watermarks() {
        let mut cfg = SystemConfig::default();
        cfg.mem.drain_low_mark = 0.9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut cfg = SystemConfig::default();
        cfg.cores.cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn design_kind_predicates() {
        assert!(DesignKind::MorLogDp.delay_persistence());
        assert!(!DesignKind::MorLogSlde.delay_persistence());
        assert!(DesignKind::FwbUnsafe.uses_crade_only());
        assert!(!DesignKind::FwbSlde.uses_crade_only());
        for d in DesignKind::ALL {
            assert!(!d.label().is_empty());
            assert_eq!(d.to_string(), d.label());
        }
    }

    #[test]
    fn min_traversal_matches_l2_plus_l3() {
        let h = HierarchyConfig::default();
        assert_eq!(h.min_traversal_cycles(), 40);
    }

    #[test]
    fn sets_arithmetic() {
        assert_eq!(CacheLevelConfig::l1_default().sets(), 64);
        assert_eq!(CacheLevelConfig::l2_default().sets(), 512);
        assert_eq!(CacheLevelConfig::l3_default().sets(), 8192);
    }
}
