//! Hardware-overhead accounting for morphable logging (Table I).

use morlog_sim_core::LogConfig;

/// Bits of one undo+redo buffer entry (Fig. 7).
pub const UNDO_REDO_ENTRY_BITS: usize = 202;
/// Bits of one redo buffer entry (Fig. 7).
pub const REDO_ENTRY_BITS: usize = 138;
/// Bits of the per-line L1 extensions: 8-bit TID + 16-bit TxID + 16-bit
/// log-state flag (2 bits × 8 words).
pub const L1_EXT_BITS_PER_LINE: usize = 8 + 16 + 16;
/// Bits of one ulog counter (§III-C).
pub const ULOG_COUNTER_BITS: usize = 10;

/// Table I, computed from a configuration.
///
/// # Example
///
/// ```
/// use morlog_logging::overhead::HardwareOverhead;
/// use morlog_sim_core::LogConfig;
/// let o = HardwareOverhead::for_config(&LogConfig::default(), 16);
/// assert_eq!(o.undo_redo_buffer_bytes, 404); // Table I
/// assert_eq!(o.redo_buffer_bytes, 552);
/// assert_eq!(o.ulog_counters_bytes, 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareOverhead {
    /// Log head and tail registers (two 64-bit registers).
    pub log_registers_bytes: usize,
    /// L1 extension bits per cache line.
    pub l1_ext_bits_per_line: usize,
    /// Undo+redo buffer SRAM.
    pub undo_redo_buffer_bytes: usize,
    /// Redo buffer SRAM.
    pub redo_buffer_bytes: usize,
    /// Ulog counters (delay-persistence only).
    pub ulog_counters_bytes: usize,
}

impl HardwareOverhead {
    /// Computes the overhead of a configuration with `hw_threads` hardware
    /// threads (the paper's Table I assumes 16).
    pub fn for_config(cfg: &LogConfig, hw_threads: usize) -> Self {
        HardwareOverhead {
            log_registers_bytes: 16,
            l1_ext_bits_per_line: L1_EXT_BITS_PER_LINE,
            undo_redo_buffer_bytes: (cfg.undo_redo_entries * UNDO_REDO_ENTRY_BITS).div_ceil(8),
            redo_buffer_bytes: (cfg.redo_entries * REDO_ENTRY_BITS).div_ceil(8),
            ulog_counters_bytes: (hw_threads * ULOG_COUNTER_BITS).div_ceil(8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let o = HardwareOverhead::for_config(&LogConfig::default(), 16);
        assert_eq!(o.log_registers_bytes, 16);
        assert_eq!(o.l1_ext_bits_per_line, 40); // "40 bits per cache line"
        assert_eq!(o.undo_redo_buffer_bytes, 404);
        assert_eq!(o.redo_buffer_bytes, 552);
        assert_eq!(o.ulog_counters_bytes, 20);
    }

    #[test]
    fn scales_with_buffer_sizes() {
        let cfg = LogConfig {
            undo_redo_entries: 32,
            redo_entries: 64,
            ..Default::default()
        };
        let o = HardwareOverhead::for_config(&cfg, 8);
        assert_eq!(o.undo_redo_buffer_bytes, 808);
        assert_eq!(o.redo_buffer_bytes, 1104);
        assert_eq!(o.ulog_counters_bytes, 10);
    }
}
