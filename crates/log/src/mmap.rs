//! The file-backed persist domain: an [`Image`] whose drains write
//! through to a file.
//!
//! [`MmapDomain`] is `Image<FileBacking>`: the working image stays in
//! memory, and the [`FileBacking`] hook mirrors every range a drain kept
//! into a backing file with one positioned write each, then makes one
//! `fsync` (`sync_data`) call per drain that flushed anything (see
//! [`SyncMode`]). The file holds a CRC-sealed superblock (magic +
//! geometry) followed by the raw regions, so a process that died between
//! drains reopens to exactly the durable state — torn log slots included,
//! which the record layer's CRC seals then detect.
//!
//! The crate forbids `unsafe`, so no page is actually mapped: "mmap or
//! file" resolves to the file path, with the image's two-level durability
//! semantics. Crashes can be simulated two ways: drop the domain without
//! draining and [`MmapDomain::open`] the file again (the process-kill
//! model), or arm the image's byte-budget power cut (the torn-drain
//! model).

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::domain::RegionId;
use crate::engine::LogConfig;
use crate::image::{Backing, Image};
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

/// The file behind an [`MmapDomain`]: the [`Image`] hook that writes each
/// kept range through and syncs.
#[derive(Debug)]
pub struct FileBacking {
    file: File,
    path: PathBuf,
    sync: SyncMode,
    /// Byte offset of each region within the file.
    offsets: Vec<u64>,
}

/// A persist domain backed by a regular file.
pub type MmapDomain = Image<FileBacking>;

impl Backing for FileBacking {
    fn drained<'a>(&mut self, kept: impl Iterator<Item = (RegionId, u64, &'a [u8])>) -> bool {
        let mut flushed = false;
        for (region, off, bytes) in kept {
            let at = self.offsets[region as usize] + off;
            if self.file.write_all_at(bytes, at).is_err() {
                return false;
            }
            flushed = true;
        }
        !(flushed && self.sync == SyncMode::Always && self.file.sync_data().is_err())
    }
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

/// A zeroed image of `cfg`'s geometry whose drains write through to `file`.
fn file_image(file: File, path: &Path, cfg: &LogConfig, sync: SyncMode) -> MmapDomain {
    let backing = FileBacking {
        file,
        path: path.to_path_buf(),
        sync,
        offsets: region_offsets(cfg),
    };
    Image::with_backing(cfg, backing)
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
        file.write_all_at(&block, 0)?;
        file.set_len(SUPERBLOCK + cfg.region_lens().iter().sum::<u64>())?;
        file.sync_all()?;
        Ok(file_image(file, path, cfg, sync))
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
        let mut image = file_image(file, path, cfg, sync);
        for (region, len) in cfg.region_lens().into_iter().enumerate() {
            let mut bytes = vec![0u8; len as usize];
            let backing = image.backing();
            backing
                .file
                .read_exact_at(&mut bytes, backing.offsets[region])?;
            image.load_region(region as RegionId, &bytes);
        }
        Ok(image)
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.backing().path
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
