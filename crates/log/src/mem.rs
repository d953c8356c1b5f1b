//! In-memory persist domain: an [`Image`] with no backing storage.
//!
//! The default backend for tests and crash-recovery exploration — cheap
//! to clone, deterministic, and with the full power-cut model available
//! through [`MemDomain::arm_power_cut`].

use crate::domain::{PersistDomain, RegionId};
use crate::engine::LogConfig;
use crate::image::Image;

/// A heap-backed persist domain. Crashes are simulated: `restart()`
/// discards the volatile view, and an armed power cut drops everything
/// past a byte budget at the next drain.
#[derive(Debug, Clone)]
pub struct MemDomain {
    image: Image,
}

impl MemDomain {
    /// Creates a zeroed domain sized for `cfg`'s geometry (control + data
    /// + one region per log slice).
    pub fn new(cfg: &LogConfig) -> Self {
        MemDomain {
            image: Image::new(&cfg.region_lens()),
        }
    }

    /// Arms a power cut: the domain dies after `budget` more bytes reach
    /// durability. See [`Image::arm_power_cut`].
    pub fn arm_power_cut(&mut self, budget: u64) {
        self.image.arm_power_cut(budget);
    }

    /// Whether an armed power cut has fired.
    pub fn is_dead(&self) -> bool {
        self.image.is_dead()
    }

    /// Total bytes flushed to durability so far — the coordinate space for
    /// exhaustive power-cut sweeps.
    pub fn durable_bytes(&self) -> u64 {
        self.image.durable_bytes()
    }
}

impl PersistDomain for MemDomain {
    fn region_len(&self, region: RegionId) -> u64 {
        self.image.region_len(region)
    }

    fn write(&mut self, region: RegionId, off: u64, bytes: &[u8]) {
        self.image.write(region, off, bytes);
    }

    fn read(&self, region: RegionId, off: u64, buf: &mut [u8]) {
        self.image.read(region, off, buf);
    }

    fn persist(&mut self, region: RegionId, off: u64, len: u64) {
        self.image.persist(region, off, len);
    }

    fn drain(&mut self) -> bool {
        self.image.drain().alive
    }

    fn restart(&mut self) {
        self.image.restart();
    }
}
