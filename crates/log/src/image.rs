//! The one persist domain: a volatile/durable byte image whose backend
//! is a hook at the drain barrier.
//!
//! An [`Image`] holds, per region, a *volatile* byte array (what reads
//! observe) and a *durable* one (what survives a crash). `persist()` only
//! queues a range; `drain()` copies queued ranges volatile→durable in
//! submission order. A **power cut** can be armed with a byte budget:
//! once the budget is exhausted mid-drain, the rest of the queue is
//! dropped — the last range may be cut partway through, which is exactly
//! how torn log slots are born. This is the "writes dropped before fsync"
//! crash simulation every backend shares.
//!
//! Backends differ only at the drain barrier, so each is only a
//! [`Backing`] hook:
//!
//! * `()` — the in-memory domain, `Image` itself: no hook, cheap to clone
//!   and deterministic; the default for tests and crash exploration.
//! * [`FileBacking`](crate::mmap::FileBacking) — the file domain
//!   ([`MmapDomain`](crate::mmap::MmapDomain)): writes every range a
//!   drain kept through to a backing file, then syncs.
//! * the NVMM fault plan — `SimDomain` in `morlog-nvm`: for each range of
//!   a *dying* drain, decides whether the range tears and which of its
//!   in-flight words flip.

use crate::domain::{PersistDomain, RegionId};
use crate::engine::LogConfig;

/// One queued persist submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRange {
    /// Target region.
    pub region: RegionId,
    /// Byte offset within the region.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A fault decision for one range of a dying drain.
#[derive(Debug, Clone, Default)]
pub struct RangeFault {
    /// Cap on the bytes kept (further truncation on top of the power-cut
    /// budget); `None` keeps whatever the budget allows.
    pub keep: Option<u64>,
    /// XOR masks applied to kept words, as `(word index within the range,
    /// mask)` pairs. Flips landing beyond the kept prefix are dropped.
    pub xor: Vec<(usize, u64)>,
}

/// What a backend adds to an [`Image`] at the drain barrier. Both hooks
/// default to doing nothing, which is the in-memory backend `()`.
pub trait Backing {
    /// The fault decision for one range of a *dying* drain (one whose
    /// power-cut budget runs out before the queue empties). `site` is the
    /// image's monotonic count of faultable ranges, so a `(seed, budget)`
    /// pair replays the same crash; `inflight` holds the range's bytes in
    /// the volatile view. Healthy drains never ask, matching hardware
    /// where write-verify repairs drain-time faults and only crash-time
    /// faults escape.
    fn fault(&mut self, _site: u64, _range: &PendingRange, _inflight: &[u8]) -> RangeFault {
        RangeFault::default()
    }

    /// Takes the non-empty ranges a drain made durable, in submission
    /// order, as `(region, offset, durable bytes)`. Returns `false` when
    /// the backend could not keep them.
    fn drained<'a>(&mut self, _kept: impl Iterator<Item = (RegionId, u64, &'a [u8])>) -> bool {
        true
    }
}

impl Backing for () {}

#[derive(Debug, Clone)]
struct Region {
    vol: Vec<u8>,
    dur: Vec<u8>,
}

/// The volatile/durable image of a persist domain's regions, drained
/// through the backend `B`.
#[derive(Debug, Clone)]
pub struct Image<B = ()> {
    regions: Vec<Region>,
    pending: Vec<PendingRange>,
    /// Remaining power-cut budget in durable bytes; `None` = no cut armed.
    cut: Option<u64>,
    dead: bool,
    /// Monotonic counter of faultable ranges — the deterministic fault site.
    site: u64,
    /// Bytes flushed to durability across the image's lifetime.
    flushed_bytes: u64,
    backing: B,
}

impl<B: Backing + Default> Image<B> {
    /// Creates a zeroed domain sized for `cfg`'s geometry (control + data
    /// + one region per log slice) with the backend's default hook.
    pub fn new(cfg: &LogConfig) -> Self {
        Image::with_backing(cfg, B::default())
    }
}

impl<B: Backing> Image<B> {
    /// Creates a zeroed domain sized for `cfg`'s geometry, drained
    /// through `backing`.
    pub fn with_backing(cfg: &LogConfig, backing: B) -> Self {
        Image::with_regions(&cfg.region_lens(), backing)
    }

    fn with_regions(region_lens: &[u64], backing: B) -> Self {
        Image {
            regions: region_lens
                .iter()
                .map(|&len| Region {
                    vol: vec![0; len as usize],
                    dur: vec![0; len as usize],
                })
                .collect(),
            pending: Vec::new(),
            cut: None,
            dead: false,
            site: 0,
            flushed_bytes: 0,
            backing,
        }
    }

    /// The backend hook (a fault plan's injection counters tell tests
    /// whether a variant actually fired).
    pub fn backing(&self) -> &B {
        &self.backing
    }

    /// Arms a power cut: after `budget` more bytes reach durability, the
    /// domain dies — later bytes (and the cut range's suffix) are dropped.
    /// A file backend writes at most those bytes through, leaving a torn
    /// slot on disk for recovery to find.
    pub fn arm_power_cut(&mut self, budget: u64) {
        self.cut = Some(budget);
    }

    /// Whether a power cut has consumed the domain.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Total bytes flushed to durability so far (across all drains) — the
    /// coordinate space for exhaustive power-cut sweeps.
    pub fn durable_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// The durable bytes of a region (what a crash preserves).
    pub fn durable(&self, region: RegionId) -> &[u8] {
        &self.regions[region as usize].dur
    }

    /// Overwrites a region's durable *and* volatile bytes (used by the
    /// file backend when loading an existing file).
    pub(crate) fn load_region(&mut self, region: RegionId, bytes: &[u8]) {
        let r = &mut self.regions[region as usize];
        r.dur.copy_from_slice(bytes);
        r.vol.copy_from_slice(bytes);
    }
}

impl<B: Backing> PersistDomain for Image<B> {
    fn region_len(&self, region: RegionId) -> u64 {
        self.regions[region as usize].vol.len() as u64
    }

    fn write(&mut self, region: RegionId, off: u64, bytes: &[u8]) {
        if self.dead {
            return;
        }
        let r = &mut self.regions[region as usize].vol;
        r[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
    }

    fn read(&self, region: RegionId, off: u64, buf: &mut [u8]) {
        let r = &self.regions[region as usize].vol;
        buf.copy_from_slice(&r[off as usize..off as usize + buf.len()]);
    }

    fn persist(&mut self, region: RegionId, off: u64, len: u64) {
        if self.dead || len == 0 {
            return;
        }
        assert!(
            off + len <= self.region_len(region),
            "persist range [{off}, {}) exceeds region {region}",
            off + len
        );
        self.pending.push(PendingRange { region, off, len });
    }

    /// Copies the pending queue volatile→durable in submission order, asks
    /// the backend's [`Backing::fault`] about each range of a dying drain,
    /// then hands the kept ranges to [`Backing::drained`].
    fn drain(&mut self) -> bool {
        if self.dead {
            self.pending.clear();
            return false;
        }
        let total: u64 = self.pending.iter().map(|p| p.len).sum();
        let dying = self.cut.is_some_and(|budget| budget < total);
        let mut reached = 0;
        for p in &mut self.pending {
            let region = &mut self.regions[p.region as usize];
            let (off, len) = (p.off as usize, p.len as usize);
            let mut keep = p.len.min(self.cut.unwrap_or(u64::MAX));
            let mut xor = Vec::new();
            if dying {
                let f = self
                    .backing
                    .fault(self.site, p, &region.vol[off..off + len]);
                self.site += 1;
                if let Some(cap) = f.keep {
                    keep = keep.min(cap);
                }
                xor = f.xor;
            }
            let kept = keep as usize;
            region.dur[off..off + kept].copy_from_slice(&region.vol[off..off + kept]);
            for (word, mask) in xor {
                let wo = off + word * 8;
                if wo + 8 <= off + kept {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&region.dur[wo..wo + 8]);
                    let flipped = u64::from_le_bytes(b) ^ mask;
                    region.dur[wo..wo + 8].copy_from_slice(&flipped.to_le_bytes());
                }
            }
            self.flushed_bytes += keep;
            if let Some(budget) = &mut self.cut {
                *budget -= keep.min(*budget);
            }
            reached += 1;
            if keep < p.len {
                // The cut landed inside this range: the domain is gone,
                // and only the kept prefix reaches the backend.
                p.len = keep;
                self.dead = true;
                break;
            }
        }
        if dying {
            // Budget may run out exactly on a range boundary with queue
            // entries left — those are dropped and the domain dies too.
            self.dead = true;
        }
        let regions = &self.regions;
        let kept = self.pending[..reached]
            .iter()
            .filter(|p| p.len > 0)
            .map(|p| {
                let (off, end) = (p.off as usize, (p.off + p.len) as usize);
                (p.region, p.off, &regions[p.region as usize].dur[off..end])
            });
        let ok = self.backing.drained(kept);
        self.pending.clear();
        ok && !self.dead
    }

    /// Models the machine coming back up: volatile state is discarded and
    /// reloaded from the durable image; pending submissions are lost; the
    /// domain accepts operations again.
    fn restart(&mut self) {
        for r in &mut self.regions {
            r.vol.copy_from_slice(&r.dur);
        }
        self.pending.clear();
        self.cut = None;
        self.dead = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_become_durable_only_at_drain() {
        let mut img = Image::with_regions(&[16], ());
        img.write(0, 0, &[1, 2, 3, 4]);
        img.persist(0, 0, 4);
        assert_eq!(img.durable(0)[..4], [0, 0, 0, 0]);
        assert!(img.drain());
        assert_eq!(img.durable(0)[..4], [1, 2, 3, 4]);
    }

    #[test]
    fn restart_drops_undrained_writes() {
        let mut img = Image::with_regions(&[8], ());
        img.write(0, 0, &[9; 8]);
        img.persist(0, 0, 8);
        img.restart();
        let mut buf = [0u8; 8];
        img.read(0, 0, &mut buf);
        assert_eq!(buf, [0; 8], "un-drained bytes are gone");
    }

    #[test]
    fn power_cut_keeps_a_prefix_and_kills_the_domain() {
        let mut img = Image::with_regions(&[32], ());
        img.write(0, 0, &[0xAA; 32]);
        img.persist(0, 0, 16);
        img.persist(0, 16, 16);
        img.arm_power_cut(20);
        assert!(!img.drain());
        assert!(img.is_dead());
        assert_eq!(img.durable(0)[..20], [0xAA; 20]);
        assert_eq!(img.durable(0)[20..], [0; 12], "suffix dropped");
        // Everything after death is a no-op.
        img.write(0, 24, &[1]);
        img.persist(0, 24, 1);
        assert!(!img.drain());
        assert_eq!(img.durable(0)[24], 0);
        // Restart revives it with only the durable prefix.
        img.restart();
        let mut buf = [0u8; 32];
        img.read(0, 0, &mut buf);
        assert_eq!(&buf[..20], &[0xAA; 20]);
        assert_eq!(&buf[20..], &[0; 12]);
    }

    /// A hook that counts its fault calls, answers each with `fault` and
    /// records what each drain kept.
    #[derive(Default)]
    struct Probe {
        calls: usize,
        fault: RangeFault,
        kept: Vec<Vec<(RegionId, u64, Vec<u8>)>>,
    }

    impl Backing for Probe {
        fn fault(&mut self, _site: u64, _range: &PendingRange, _inflight: &[u8]) -> RangeFault {
            self.calls += 1;
            self.fault.clone()
        }

        fn drained<'a>(&mut self, kept: impl Iterator<Item = (RegionId, u64, &'a [u8])>) -> bool {
            self.kept
                .push(kept.map(|(r, off, b)| (r, off, b.to_vec())).collect());
            true
        }
    }

    #[test]
    fn drained_hook_sees_each_kept_prefix_once() {
        let mut img = Image::with_regions(&[32], Probe::default());
        img.write(0, 0, &[0xAA; 32]);
        img.persist(0, 0, 16);
        img.persist(0, 16, 16);
        img.arm_power_cut(20);
        assert!(!img.drain());
        let cut = vec![(0, 0, vec![0xAA; 16]), (0, 16, vec![0xAA; 4])];
        assert_eq!(img.backing().kept, vec![cut]);
    }

    #[test]
    fn fault_hook_runs_only_on_dying_drains() {
        let mut img = Image::with_regions(&[16], Probe::default());
        img.write(0, 0, &[0xFF; 16]);
        img.persist(0, 0, 16);
        img.drain();
        assert_eq!(img.backing().calls, 0, "healthy drain: no hook");
        img.backing.fault = RangeFault {
            keep: Some(8),
            xor: vec![(0, 0x1), (1, 0x1)],
        };
        img.write(0, 0, &[0xEE; 16]);
        img.persist(0, 0, 16);
        img.arm_power_cut(8);
        img.drain();
        assert_eq!(img.backing().calls, 1);
        assert_eq!(img.durable(0)[0], 0xEF, "flip applied to kept word");
        assert_eq!(img.durable(0)[8], 0xFF, "flip past the kept prefix dropped");
    }
}
