//! File-backed persist domain with explicit flush + fsync.
//!
//! [`MmapDomain`] keeps the working [`Image`] in memory and mirrors every
//! drained range into a backing file with positioned writes, optionally
//! followed by `fsync` (see [`SyncMode`]). The file holds a CRC-sealed
//! superblock (magic + geometry) followed by the raw regions, so a process
//! that died between drains reopens to exactly the durable state — torn
//! log slots included, which the record layer's CRC seals then detect.
//!
//! The crate forbids `unsafe`, so no page is actually mapped: "mmap or
//! file" resolves to the file path, with the same two-level durability
//! semantics the in-memory backend models. Crashes can be simulated two
//! ways: drop the domain without draining and [`MmapDomain::open`] the
//! file again (the process-kill model), or arm the byte-budget power cut
//! like the in-memory backend (the torn-drain model).

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::domain::{PersistDomain, RegionId};
use crate::engine::LogConfig;
use crate::image::Image;
use crate::record::crc32_words;

/// When the backing file is fsync'd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every drain — a drain's return means on-disk durable.
    Always,
    /// Never `fsync`; drains only write through to the page cache. Fast,
    /// and still crash-consistent against process death (not power loss).
    Never,
}

impl FromStr for SyncMode {
    type Err = String;

    /// Parses `always` or `never` (case-sensitive, surrounding whitespace
    /// ignored).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim() {
            "always" => Ok(SyncMode::Always),
            "never" => Ok(SyncMode::Never),
            _ => Err("must be \"always\" or \"never\"".into()),
        }
    }
}

/// File magic: identifies a morlog-log backing file ("MORLOGv1").
const MAGIC: u64 = 0x4D4F_524C_4F47_7631;

/// On-disk format version.
const VERSION: u64 = 1;

/// Bytes reserved for the superblock at the start of the file.
const SUPERBLOCK: u64 = 512;

/// A persist domain backed by a regular file.
#[derive(Debug)]
pub struct MmapDomain {
    file: File,
    path: PathBuf,
    image: Image,
    sync: SyncMode,
    /// Byte offset of each region within the file.
    offsets: Vec<u64>,
}

fn region_offsets(cfg: &LogConfig) -> Vec<u64> {
    let mut offsets = Vec::new();
    let mut at = SUPERBLOCK;
    for len in cfg.region_lens() {
        offsets.push(at);
        at += len;
    }
    offsets
}

fn superblock_words(cfg: &LogConfig) -> [u64; 6] {
    [
        MAGIC,
        VERSION,
        cfg.slices as u64,
        cfg.log_capacity,
        cfg.data_words,
        cfg.delay_persistence as u64,
    ]
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl MmapDomain {
    /// Creates a fresh backing file at `path` (truncating any existing
    /// one), writes the sealed superblock and zeroed regions, and syncs.
    pub fn create(path: &Path, cfg: &LogConfig, sync: SyncMode) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let words = superblock_words(cfg);
        let mut block = vec![0u8; SUPERBLOCK as usize];
        for (i, w) in words.iter().enumerate() {
            block[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        let crc_off = words.len() * 8;
        block[crc_off..crc_off + 4].copy_from_slice(&crc32_words(&words).to_le_bytes());
        file.write_at(&block, 0)?;
        let offsets = region_offsets(cfg);
        let lens = cfg.region_lens();
        let total = offsets.last().unwrap() + lens.last().unwrap();
        file.set_len(total)?;
        file.sync_all()?;
        Ok(MmapDomain {
            file,
            path: path.to_path_buf(),
            image: Image::new(&lens),
            sync,
            offsets,
        })
    }

    /// Opens an existing backing file, validating its superblock against
    /// `cfg` and loading every region's durable bytes.
    ///
    /// # Errors
    ///
    /// I/O errors, plus [`io::ErrorKind::InvalidData`] when the magic, the
    /// format version or the geometry does not match.
    pub fn open(path: &Path, cfg: &LogConfig, sync: SyncMode) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut block = vec![0u8; SUPERBLOCK as usize];
        file.read_exact_at(&mut block, 0)?;
        let expect = superblock_words(cfg);
        let mut words = [0u64; 6];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
        }
        let crc_off = words.len() * 8;
        let stored_crc = u32::from_le_bytes(block[crc_off..crc_off + 4].try_into().unwrap());
        if words[0] != MAGIC {
            return Err(invalid(format!(
                "{}: not a morlog-log file",
                path.display()
            )));
        }
        if stored_crc != crc32_words(&words) {
            return Err(invalid(format!(
                "{}: superblock integrity check failed",
                path.display()
            )));
        }
        if words != expect {
            return Err(invalid(format!(
                "{}: geometry mismatch (file {:?}, config {:?})",
                path.display(),
                &words[1..],
                &expect[1..]
            )));
        }
        let offsets = region_offsets(cfg);
        let lens = cfg.region_lens();
        let mut image = Image::new(&lens);
        for (region, (&off, &len)) in offsets.iter().zip(lens.iter()).enumerate() {
            let mut bytes = vec![0u8; len as usize];
            file.read_exact_at(&mut bytes, off)?;
            image.load_region(region as RegionId, &bytes);
        }
        Ok(MmapDomain {
            file,
            path: path.to_path_buf(),
            image,
            sync,
            offsets,
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms a simulated power cut (see [`Image::arm_power_cut`]): the next
    /// drain writes at most `budget` more bytes through to the file before
    /// the domain dies — leaving a torn slot on disk for recovery to find.
    pub fn arm_power_cut(&mut self, budget: u64) {
        self.image.arm_power_cut(budget);
    }

    /// Whether an armed power cut has fired.
    pub fn is_dead(&self) -> bool {
        self.image.is_dead()
    }

    /// Total bytes drained to the file so far.
    pub fn durable_bytes(&self) -> u64 {
        self.image.durable_bytes()
    }
}

impl PersistDomain for MmapDomain {
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
        let result = self.image.drain();
        for &(region, off, len) in &result.flushed {
            let dur = self.image.durable(region);
            let bytes = &dur[off as usize..(off + len) as usize];
            let file_off = self.offsets[region as usize] + off;
            if self.file.write_at(bytes, file_off).is_err() {
                return false;
            }
        }
        if self.sync == SyncMode::Always
            && !result.flushed.is_empty()
            && self.file.sync_data().is_err()
        {
            return false;
        }
        result.alive
    }

    fn restart(&mut self) {
        self.image.restart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Log, LogConfig};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("morlog-log-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn survives_reopen_from_file() {
        let cfg = LogConfig::small();
        let path = tmp("reopen");
        let domain = MmapDomain::create(&path, &cfg, SyncMode::Always).unwrap();
        let mut log = Log::format(domain, cfg.clone());
        log.write(0, 0, 5, 41).unwrap();
        log.commit(0, 0).unwrap();
        log.write(0, 1, 5, 42).unwrap(); // uncommitted at "process death"
        drop(log);
        let reopened = MmapDomain::open(&path, &cfg, SyncMode::Always).unwrap();
        let mut log = Log::open(reopened, cfg);
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.committed.len(), 1);
        assert!(outcome.rolled_back.len() <= 1);
        assert_eq!(log.read_word(5), 41);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_geometry_and_magic() {
        let cfg = LogConfig::small();
        let path = tmp("geometry");
        MmapDomain::create(&path, &cfg, SyncMode::Never).unwrap();
        let mut other = cfg.clone();
        other.data_words += 1;
        let err = MmapDomain::open(&path, &other, SyncMode::Never).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, b"not a log at all").unwrap();
        let err = MmapDomain::open(&path, &cfg, SyncMode::Never).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn armed_power_cut_leaves_torn_state_on_disk() {
        let cfg = LogConfig::small();
        let path = tmp("cut");
        let domain = MmapDomain::create(&path, &cfg, SyncMode::Always).unwrap();
        let mut log = Log::format(domain, cfg.clone());
        log.write(0, 0, 1, 7).unwrap();
        log.commit(0, 0).unwrap();
        log.domain_mut().arm_power_cut(40); // cut inside the next drain
        let _ = log.write(0, 1, 1, 8);
        drop(log);
        let reopened = MmapDomain::open(&path, &cfg, SyncMode::Always).unwrap();
        let mut log = Log::open(reopened, cfg);
        log.recover().unwrap();
        assert_eq!(log.read_word(1), 7, "committed value wins");
        std::fs::remove_file(&path).unwrap();
    }
}
