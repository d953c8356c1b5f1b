//! Seeded mutation tests for the file backend: a backing file damaged or
//! forged in any way must make `MmapDomain::open`, `Log::open` and
//! `Log::recover` return an error or complete, and never panic. The
//! cases are:
//!
//! * truncation at random lengths;
//! * bit flips in the superblock, the control region, the data region and
//!   the log slices;
//! * a resealed superblock with a wrong format version or a wrong
//!   geometry, and a file opened under a configuration it was not made
//!   with;
//! * forged control blocks and log slots that carry valid CRC seals but
//!   hostile contents (windows near `u64::MAX`, words outside the data
//!   region).
//!
//! A recovery that completes is followed by one transaction, which must
//! also return instead of panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use morlog_log::record::{crc32_words, encode_slot, pass_parity, Record, TxTag, SLOT_MAX};
use morlog_log::{Log, LogConfig, MmapDomain, SyncMode};

/// Deterministic xorshift64* generator — no external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Two small slices that the workload wraps several times.
fn config() -> LogConfig {
    LogConfig {
        slices: 2,
        log_capacity: 512,
        data_words: 16,
        delay_persistence: false,
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("morlog-log-hostile-{name}-{}", std::process::id()));
    p
}

/// The bytes of a backing file after committed, truncated and in-flight
/// transactions on both slices, left as a killed process leaves it.
fn pristine(cfg: &LogConfig, name: &str) -> Vec<u8> {
    let path = tmp(&format!("{name}-pristine"));
    let domain = MmapDomain::create(&path, cfg, SyncMode::Never).unwrap();
    let mut log = Log::format(domain, cfg.clone());
    for txid in 0..40u16 {
        let thread = (txid % 2) as u8;
        log.write(thread, txid, u64::from(txid % 16), u64::from(txid))
            .unwrap();
        log.write(
            thread,
            txid,
            u64::from((txid + 5) % 16),
            u64::from(txid) << 8,
        )
        .unwrap();
        log.commit(thread, txid).unwrap();
    }
    log.write(0, 40, 3, 0xDEAD).unwrap(); // in flight at the kill
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// The file's byte ranges `(start, len)`: the superblock, then each
/// region in id order.
fn areas(cfg: &LogConfig, file_len: usize) -> Vec<(usize, usize)> {
    let lens = cfg.region_lens();
    let mut at = file_len - lens.iter().sum::<u64>() as usize;
    let mut areas = vec![(0, at)];
    for len in lens {
        areas.push((at, len as usize));
        at += len as usize;
    }
    areas
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Writes `words` followed by their CRC seal at `at`, the layout the
/// superblock and the control blocks share.
fn seal(bytes: &mut [u8], at: usize, words: &[u64]) {
    for (i, w) in words.iter().enumerate() {
        bytes[at + 8 * i..at + 8 * i + 8].copy_from_slice(&w.to_le_bytes());
    }
    let crc = at + 8 * words.len();
    bytes[crc..crc + 4].copy_from_slice(&crc32_words(words).to_le_bytes());
}

/// Runs open → `Log::open` → recover → one transaction on `bytes`,
/// panicking with `case` if any step panics. Returns whether recovery
/// completed.
fn survives(cfg: &LogConfig, open_cfg: &LogConfig, bytes: &[u8], path: &Path, case: &str) -> bool {
    std::fs::write(path, bytes).unwrap();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let Ok(domain) = MmapDomain::open(path, open_cfg, SyncMode::Never) else {
            return false;
        };
        let mut log = Log::open(domain, open_cfg.clone());
        let recovered = log.recover().is_ok();
        if recovered {
            let _ = log.write(1, 999, cfg.data_words - 1, 7);
            let _ = log.commit(1, 999);
        }
        recovered
    }));
    run.unwrap_or_else(|_| panic!("{case}: a hostile file made the log panic"))
}

#[test]
fn truncated_files_never_panic() {
    let cfg = config();
    let bytes = pristine(&cfg, "truncate");
    let path = tmp("truncate");
    let mut state = 0x5EED_0001;
    for _ in 0..200 {
        let len = (next(&mut state) % bytes.len() as u64) as usize;
        let case = format!("truncated to {len}");
        assert!(
            !survives(&cfg, &cfg, &bytes[..len], &path, &case),
            "{case}: opened"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flips_in_every_area_never_panic() {
    let cfg = config();
    let bytes = pristine(&cfg, "flip");
    let names = ["superblock", "control", "data", "log slice", "log slice"];
    let areas = names.into_iter().zip(areas(&cfg, bytes.len()));
    let path = tmp("flip");
    let mut state = 0x5EED_0002;
    for (name, (at, len)) in areas {
        let mut recovered = 0;
        for case in 0..150 {
            let mut damaged = bytes.clone();
            for _ in 0..=next(&mut state) % 4 {
                let byte = at + (next(&mut state) % len as u64) as usize;
                damaged[byte] ^= 1 << (next(&mut state) % 8);
            }
            let case = format!("{name} flip case {case}");
            recovered += usize::from(survives(&cfg, &cfg, &damaged, &path, &case));
        }
        // The log never reads the data region, so its flips cannot stop
        // recovery; elsewhere a CRC seal refuses most flips.
        match name {
            "data" => assert_eq!(recovered, 150, "a data flip stopped recovery"),
            "control" | "log slice" => assert!(recovered > 0, "no {name} flip recovered"),
            _ => {}
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_and_geometry_are_refused() {
    let cfg = config();
    let bytes = pristine(&cfg, "geometry");
    let path = tmp("geometry");
    let words: Vec<u64> = (0..6).map(|i| word(&bytes, 8 * i)).collect();
    // Each forgery changes one superblock word and reseals it: the format
    // version, the slice count, the log capacity, the data words and the
    // delay-persistence flag.
    for (index, value) in [
        (1, 2),
        (1, 0),
        (2, 3),
        (2, 0),
        (3, 256),
        (4, 1 << 40),
        (5, 1),
    ] {
        let mut forged = bytes.clone();
        let mut w = words.clone();
        w[index] = value;
        seal(&mut forged, 0, &w);
        std::fs::write(&path, &forged).unwrap();
        let opened = MmapDomain::open(&path, &cfg, SyncMode::Never);
        assert!(
            opened.is_err(),
            "superblock word {index} = {value} accepted"
        );
    }
    // The intact file opened under other geometries.
    let mut others = Vec::new();
    for change in 0..4 {
        let mut other = cfg.clone();
        match change {
            0 => other.slices = 1,
            1 => other.log_capacity = 1024,
            2 => other.data_words = 8,
            _ => other.delay_persistence = true,
        }
        others.push(other);
    }
    for other in &others {
        std::fs::write(&path, &bytes).unwrap();
        assert!(MmapDomain::open(&path, other, SyncMode::Never).is_err());
        assert!(!survives(&cfg, other, &bytes, &path, &format!("{other:?}")));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sealed_forgeries_never_panic() {
    let cfg = config();
    let bytes = pristine(&cfg, "forge");
    let areas = areas(&cfg, bytes.len());
    let (control, _) = areas[1];
    let path = tmp("forge");
    let mut state = 0x5EED_0003;
    // Control blocks: valid seals over hostile versions and windows.
    for case in 0..300 {
        let mut forged = bytes.clone();
        let block = control + 32 * (next(&mut state) % (2 * cfg.slices as u64)) as usize;
        let near_max = u64::MAX - next(&mut state) % 4096;
        let head = match case % 4 {
            0 => next(&mut state),
            1 => near_max,
            2 => near_max - cfg.log_capacity,
            _ => next(&mut state) % 4096,
        };
        let tail = head.saturating_add(next(&mut state) % (cfg.log_capacity + 1));
        let ver = if case % 3 == 0 {
            u64::MAX
        } else {
            next(&mut state)
        };
        seal(&mut forged, block, &[ver, head, tail]);
        survives(
            &cfg,
            &cfg,
            &forged,
            &path,
            &format!("control forgery case {case}"),
        );
    }
    // Log slots: a sealed record at the first slot of a slice's window,
    // naming any word, in or out of the data region.
    let mut recovered = 0;
    for case in 0..300 {
        let mut forged = bytes.clone();
        let slice = (next(&mut state) % cfg.slices as u64) as usize;
        let blocks = [0, 1].map(|b| control + 64 * slice + 32 * b);
        let newest = *blocks.iter().max_by_key(|&&b| word(&bytes, b)).unwrap();
        let head = word(&bytes, newest + 8);
        let addr = match case % 3 {
            0 => 8 * (next(&mut state) % (2 * cfg.data_words)),
            1 => next(&mut state) & 0x0000_FFFF_FFFF_FFF8,
            _ => next(&mut state) % (8 * cfg.data_words),
        };
        let tag = TxTag::new((next(&mut state) % 2) as u8, (next(&mut state) % 64) as u16);
        let record = match next(&mut state) % 3 {
            0 => Record::undo_redo(tag, addr, next(&mut state), next(&mut state), 0xFF),
            1 => Record::redo_only(tag, addr, next(&mut state), 0xFF),
            _ => Record::commit(tag, None),
        }
        .with_timestamp(next(&mut state) % 1000);
        // The scan skips to the next pass when less than a maximal slot
        // remains before the wrap point.
        let remain = cfg.log_capacity - head % cfg.log_capacity;
        let start = if remain < SLOT_MAX {
            head + remain
        } else {
            head
        };
        let slot = encode_slot(&record, pass_parity(start, cfg.log_capacity));
        let (at, _) = areas[3 + slice];
        let pos = at + (start % cfg.log_capacity) as usize;
        forged[pos..pos + slot.len()].copy_from_slice(&slot);
        let case = format!("slot forgery case {case}");
        recovered += usize::from(survives(&cfg, &cfg, &forged, &path, &case));
    }
    assert!(
        recovered > 0,
        "no slot forgery reached a completed recovery"
    );
    std::fs::remove_file(&path).unwrap();
}
