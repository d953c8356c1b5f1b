//! The physical address map of the simulated machine.
//!
//! As in §III-A, DRAM and NVMM sit on the same memory bus in a single
//! physical address space: DRAM holds data that needs no persistence, NVMM
//! holds the user's critical data, and a log region is carved out of NVMM
//! for the hardware log.

use morlog_sim_core::{Addr, LineAddr};

/// Which device an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Volatile DRAM (no persistence, no logging).
    Dram,
    /// The NVMM log region (log entries and commit records).
    NvmmLog,
    /// Persistent NVMM data (the user's heap).
    NvmmData,
}

/// The address map: `[0, dram_bytes)` is DRAM, `[nvmm_base, nvmm_base +
/// nvmm_bytes)` is NVMM with the log region at its base.
///
/// # Example
///
/// ```
/// use morlog_nvm::layout::{MemoryMap, Region};
/// use morlog_sim_core::Addr;
/// let map = MemoryMap::table_iii(4 * 1024 * 1024);
/// assert_eq!(map.region(Addr::new(0x1000)), Region::Dram);
/// assert_eq!(map.region(map.log_base()), Region::NvmmLog);
/// assert_eq!(map.region(map.data_base()), Region::NvmmData);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryMap {
    dram_bytes: u64,
    nvmm_base: u64,
    nvmm_bytes: u64,
    log_bytes: u64,
}

impl MemoryMap {
    /// The Table III machine: 8 GB of NVMM above 4 GB of DRAM, with a log
    /// region of `log_bytes` at the bottom of NVMM.
    ///
    /// # Panics
    ///
    /// Panics if `log_bytes` is zero, unaligned, or exceeds NVMM.
    pub fn table_iii(log_bytes: u64) -> Self {
        MemoryMap::new(4 << 30, 8 << 30, log_bytes)
    }

    /// Builds an arbitrary map.
    ///
    /// # Panics
    ///
    /// Panics if `log_bytes` is zero, not line-aligned, or exceeds
    /// `nvmm_bytes`, or if `dram_bytes` is not line-aligned.
    pub fn new(dram_bytes: u64, nvmm_bytes: u64, log_bytes: u64) -> Self {
        assert!(
            log_bytes > 0 && log_bytes <= nvmm_bytes,
            "log region must fit in NVMM"
        );
        assert_eq!(log_bytes % 64, 0, "log region must be line-aligned");
        assert_eq!(dram_bytes % 64, 0, "DRAM size must be line-aligned");
        MemoryMap {
            dram_bytes,
            nvmm_base: dram_bytes,
            nvmm_bytes,
            log_bytes,
        }
    }

    /// Classifies an address.
    ///
    /// # Panics
    ///
    /// Panics on addresses beyond the installed memory.
    pub fn region(&self, addr: Addr) -> Region {
        let a = addr.as_u64();
        if a < self.dram_bytes {
            Region::Dram
        } else if a < self.nvmm_base + self.log_bytes {
            Region::NvmmLog
        } else {
            assert!(
                a < self.nvmm_base + self.nvmm_bytes,
                "address {addr} beyond installed memory"
            );
            Region::NvmmData
        }
    }

    /// First byte of the log region.
    pub fn log_base(&self) -> Addr {
        Addr::new(self.nvmm_base)
    }

    /// Size of the log region in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// First byte of persistent data (the persistent heap base).
    pub fn data_base(&self) -> Addr {
        Addr::new(self.nvmm_base + self.log_bytes)
    }

    /// DRAM size in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }
}

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap::table_iii(4 * 1024 * 1024)
    }
}

/// Maps a line to its servicing channel and bank, interleaving consecutive
/// lines across channels first and banks second (the address mapping NVMain
/// calls "RK:BK:CH" with line-sized stripes).
///
/// # Example
///
/// ```
/// use morlog_nvm::layout::line_to_channel_bank;
/// use morlog_sim_core::LineAddr;
/// let (ch, bk) = line_to_channel_bank(LineAddr::from_index(5), 4, 8);
/// assert_eq!((ch, bk), (1, 1));
/// ```
pub fn line_to_channel_bank(line: LineAddr, channels: usize, banks: usize) -> (usize, usize) {
    let idx = line.index() as usize;
    (idx % channels, (idx / channels) % banks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_the_space() {
        let map = MemoryMap::new(1 << 20, 1 << 21, 4096);
        assert_eq!(map.region(Addr::new(0)), Region::Dram);
        assert_eq!(map.region(Addr::new((1 << 20) - 1)), Region::Dram);
        assert_eq!(map.region(Addr::new(1 << 20)), Region::NvmmLog);
        assert_eq!(map.region(Addr::new((1 << 20) + 4095)), Region::NvmmLog);
        assert_eq!(map.region(Addr::new((1 << 20) + 4096)), Region::NvmmData);
        assert_eq!(map.data_base().as_u64(), (1 << 20) + 4096);
        let last = Addr::new((1 << 20) + (1 << 21) - 1);
        assert_eq!(map.region(last), Region::NvmmData);
    }

    #[test]
    #[should_panic(expected = "beyond installed memory")]
    fn out_of_range_panics() {
        let map = MemoryMap::new(1 << 20, 1 << 21, 4096);
        map.region(Addr::new((1 << 20) + (1 << 21)));
    }

    #[test]
    #[should_panic(expected = "must fit in NVMM")]
    fn oversized_log_panics() {
        MemoryMap::new(1 << 20, 4096, 8192);
    }

    #[test]
    fn channel_bank_interleave() {
        // 4 channels, 8 banks: consecutive lines hit different channels.
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u64 {
            let cb = line_to_channel_bank(LineAddr::from_index(i), 4, 8);
            assert!(cb.0 < 4 && cb.1 < 8);
            seen.insert(cb);
        }
        assert_eq!(
            seen.len(),
            32,
            "32 consecutive lines span all channel×bank pairs"
        );
    }

    #[test]
    fn default_matches_table_iii() {
        let map = MemoryMap::default();
        assert_eq!(map.dram_bytes(), 4 << 30);
        assert_eq!(map.log_base().as_u64(), 4 << 30);
        assert_eq!(map.log_bytes(), 4 * 1024 * 1024);
    }
}
