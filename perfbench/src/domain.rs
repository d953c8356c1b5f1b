//! Measuring the persist domain from outside: a pass-through
//! [`PersistDomain`] that times and counts every call the log engine makes,
//! the device-floor loop its drains are compared with, and the scratch
//! directory the backing files live in.

use std::cell::Cell;
use std::fs::{self, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use morlog_log::{PersistDomain, RegionId, CONTROL_REGION};

/// One persist submission: region, offset and length in bytes.
pub type Range = (RegionId, u64, u64);

/// Time spent in, and work done by, each kind of domain call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCalls {
    pub write_ns: u64,
    pub read_ns: u64,
    pub persist_ns: u64,
    pub drain_ns: u64,
    pub control_writes: u64,
    pub persists: u64,
    pub drains: u64,
}

impl DomainCalls {
    /// Nanoseconds spent inside the wrapped domain.
    pub fn total_ns(&self) -> u64 {
        self.write_ns + self.read_ns + self.persist_ns + self.drain_ns
    }

    /// The calls made since `earlier` was taken.
    pub fn since(&self, earlier: &DomainCalls) -> DomainCalls {
        DomainCalls {
            write_ns: self.write_ns - earlier.write_ns,
            read_ns: self.read_ns - earlier.read_ns,
            persist_ns: self.persist_ns - earlier.persist_ns,
            drain_ns: self.drain_ns - earlier.drain_ns,
            control_writes: self.control_writes - earlier.control_writes,
            persists: self.persists - earlier.persists,
            drains: self.drains - earlier.drains,
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Wraps a domain, forwarding every call unchanged while timing it. It can
/// also keep the ranges submitted before each of the first drains, for
/// [`floor`] to replay.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    calls: DomainCalls,
    /// `read` takes `&self`, so its account is kept in a cell.
    read_ns: Cell<u64>,
    pending: Vec<Range>,
    drains: Vec<Vec<Range>>,
    keep_drains: usize,
}

impl<D: PersistDomain> Timed<D> {
    /// Wraps `inner`, keeping the submitted ranges of its first
    /// `keep_drains` drains.
    pub fn new(inner: D, keep_drains: usize) -> Self {
        Timed {
            inner,
            calls: DomainCalls::default(),
            read_ns: Cell::new(0),
            pending: Vec::new(),
            drains: Vec::new(),
            keep_drains,
        }
    }

    /// The calls made so far.
    pub fn calls(&self) -> DomainCalls {
        DomainCalls {
            read_ns: self.read_ns.get(),
            ..self.calls
        }
    }

    /// The wrapped domain.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The kept drains, each as the ranges submitted before it.
    pub fn kept_drains(&self) -> &[Vec<Range>] {
        &self.drains
    }

    fn keeping(&self) -> bool {
        self.drains.len() < self.keep_drains
    }
}

impl<D: PersistDomain> PersistDomain for Timed<D> {
    fn region_len(&self, region: RegionId) -> u64 {
        self.inner.region_len(region)
    }

    fn write(&mut self, region: RegionId, off: u64, bytes: &[u8]) {
        let t = Instant::now();
        self.inner.write(region, off, bytes);
        self.calls.write_ns += ns_since(t);
        if region == CONTROL_REGION {
            self.calls.control_writes += 1;
        }
    }

    fn read(&self, region: RegionId, off: u64, buf: &mut [u8]) {
        let t = Instant::now();
        self.inner.read(region, off, buf);
        self.read_ns.set(self.read_ns.get() + ns_since(t));
    }

    fn persist(&mut self, region: RegionId, off: u64, len: u64) {
        let t = Instant::now();
        self.inner.persist(region, off, len);
        self.calls.persist_ns += ns_since(t);
        self.calls.persists += 1;
        if self.keeping() {
            self.pending.push((region, off, len));
        }
    }

    fn drain(&mut self) -> bool {
        let t = Instant::now();
        let alive = self.inner.drain();
        self.calls.drain_ns += ns_since(t);
        self.calls.drains += 1;
        if self.keeping() {
            self.drains.push(std::mem::take(&mut self.pending));
        }
        alive
    }

    fn restart(&mut self) {
        self.inner.restart();
        self.pending.clear();
    }
}

/// The device floor: replays `drains` on a fresh file at `path` the way a
/// file-backed domain writes them, with one positioned write per submitted
/// range and one `fdatasync` per drain, and nothing else. Region `r` starts
/// at the sum of the lengths of the regions before it. Stops once `budget`
/// is spent; returns the time taken and the number of drains replayed.
pub fn floor(
    path: &Path,
    region_lens: &[u64],
    drains: &[Vec<Range>],
    budget: Duration,
) -> io::Result<(Duration, usize)> {
    let mut base = Vec::with_capacity(region_lens.len());
    let mut end = 0;
    for len in region_lens {
        base.push(end);
        end += len;
    }
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.set_len(end)?;
    file.sync_all()?;
    let longest = drains.iter().flatten().map(|r| r.2).max().unwrap_or(0);
    let bytes = vec![0xA5u8; longest as usize];
    let mut spent = Duration::ZERO;
    let mut replayed = 0;
    for ranges in drains {
        if spent >= budget {
            break;
        }
        let t = Instant::now();
        for &(region, off, len) in ranges {
            file.write_all_at(&bytes[..len as usize], base[region as usize] + off)?;
        }
        if !ranges.is_empty() {
            file.sync_data()?;
        }
        spent += t.elapsed();
        replayed += 1;
    }
    drop(file);
    fs::remove_file(path)?;
    Ok((spent, replayed))
}

/// A scratch directory inside the benchmark's own directory, so every file
/// the benchmark writes stays inside its checkout. Removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `perfbench/work/<name>-<pid>`.
    pub fn new(name: &str) -> io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::{Log, LogConfig, MmapDomain, SyncMode};
    use morlog_sim_core::DetRng;

    #[test]
    fn wrapped_and_unwrapped_runs_leave_identical_files() {
        let dir = WorkDir::new("test-wrapper").unwrap();
        let cfg = LogConfig {
            slices: 2,
            log_capacity: 4096,
            data_words: 256,
            delay_persistence: false,
        };
        let (plain, wrapped) = (dir.file("plain"), dir.file("wrapped"));
        let mut a = Log::format(
            MmapDomain::create(&plain, &cfg, SyncMode::Never).unwrap(),
            cfg.clone(),
        );
        let mut b = Log::format(
            Timed::new(
                MmapDomain::create(&wrapped, &cfg, SyncMode::Never).unwrap(),
                16,
            ),
            cfg.clone(),
        );
        let mut rng = DetRng::new(7);
        // Enough transactions to wrap both rings several times, then one
        // left in flight.
        for n in 0..300u16 {
            let (thread, txid) = ((n % 2) as u8, n / 2);
            for _ in 0..4 {
                let (word, value) = (rng.gen_range(cfg.data_words), rng.next_u64());
                a.write(thread, txid, word, value).unwrap();
                b.write(thread, txid, word, value).unwrap();
            }
            if n < 299 {
                a.commit(thread, txid).unwrap();
                b.commit(thread, txid).unwrap();
            }
        }
        let calls = b.domain().calls();
        assert!(calls.drains > 1000 && calls.control_writes > 0);
        assert_eq!(b.domain().kept_drains().len(), 16);
        drop((a, b));
        let (a, b) = (fs::read(&plain).unwrap(), fs::read(&wrapped).unwrap());
        assert!(a == b, "wrapped run changed the backing file");
    }

    #[test]
    fn floor_replays_the_kept_drains() {
        let dir = WorkDir::new("test-floor").unwrap();
        let drains = vec![vec![(0, 0, 32), (2, 96, 48)], vec![], vec![(1, 8, 8)]];
        let (spent, replayed) =
            floor(&dir.file("floor"), &[64, 64, 4096], &drains, Duration::MAX).unwrap();
        assert_eq!(replayed, 3);
        assert!(spent > Duration::ZERO);
        assert!(!dir.file("floor").exists(), "floor file removed");
    }
}
