//! The embeddable log without any simulator: append → crash → recover.
//!
//! This example drives [`morlog_log`] alone — the dependency path contains
//! zero simulator crates — against the file-backed [`MmapDomain`]. It
//! formats a log in a temp file, commits two transactions, leaves a third
//! in flight, "crashes" by dropping the handle before the tail is drained,
//! then reopens the file and runs recovery: the committed transactions
//! roll forward, the in-flight one rolls back.
//!
//! ```bash
//! cargo run --release -p morlog-log --example embedded_log
//! ```
//!
//! The backing directory and fsync policy follow `MORLOG_LOG_DIR` and
//! `MORLOG_LOG_SYNC` when set; malformed values abort with exit code 2
//! like every other knob in this repository. The bench binaries read
//! these through `morlog_sim_core::knobs`; this example parses them itself
//! so that its dependency path stays simulator-free.

use std::path::PathBuf;
use std::str::FromStr;

use morlog_log::{Log, LogConfig, MmapDomain, SyncMode};

/// The variable's parsed value, `None` when unset; exits 2 when malformed.
fn knob<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    Some(parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {name}={raw:?} {e}");
        std::process::exit(2);
    }))
}

fn main() {
    let cfg = LogConfig::small();
    let dir = knob("MORLOG_LOG_DIR", |raw| {
        let dir = PathBuf::from(raw.trim());
        dir.is_dir()
            .then_some(dir)
            .ok_or_else(|| "is not an existing directory".to_string())
    })
    .unwrap_or_else(std::env::temp_dir);
    let sync = knob("MORLOG_LOG_SYNC", SyncMode::from_str).unwrap_or(SyncMode::Always);
    let path = dir.join(format!("morlog-embedded-log-{}", std::process::id()));

    // A fresh log over a fresh backing file.
    let domain = MmapDomain::create(&path, &cfg, sync).expect("create backing file");
    let mut log = Log::format(domain, cfg.clone());
    println!("formatted {} ({sync:?})", path.display());

    // Two transactions commit; their effects are durable once commit()
    // returns (the engine drains the write-ahead log before acking).
    log.write(0, 0, 1, 0xAAAA).unwrap();
    log.write(0, 0, 2, 0xBBBB).unwrap();
    log.commit(0, 0).unwrap();
    log.write(1, 0, 3, 0xCCCC).unwrap();
    log.commit(1, 0).unwrap();
    println!("committed tx (0,0) and tx (1,0)");

    // A third transaction overwrites word 1 but never commits...
    log.write(0, 1, 1, 0xDEAD).unwrap();
    println!(
        "tx (0,1) in flight: word 1 reads {:#x} pre-crash",
        log.read_word(1)
    );

    // ...and the process "dies": dropping the handle loses everything not
    // yet drained to the file. The undo record for word 1 *was* drained
    // (write-ahead gate), so recovery can put 0xAAAA back.
    drop(log);
    println!("crash: handle dropped before the in-flight tx committed");

    // Reopen from the file and recover.
    let domain = MmapDomain::open(&path, &cfg, sync).expect("reopen backing file");
    let mut log = Log::open(domain, cfg);
    let outcome = log.recover().expect("recovery");
    println!(
        "recovered: {} committed, {} rolled back, {} records scanned ({} torn)",
        outcome.committed.len(),
        outcome.rolled_back.len(),
        outcome.records_scanned,
        outcome.torn_records,
    );

    // The committed values survived; the uncommitted overwrite did not.
    assert_eq!(
        log.read_word(1),
        0xAAAA,
        "uncommitted overwrite rolled back"
    );
    assert_eq!(log.read_word(2), 0xBBBB);
    assert_eq!(log.read_word(3), 0xCCCC);
    println!(
        "verified: word1={:#x} word2={:#x} word3={:#x}",
        log.read_word(1),
        log.read_word(2),
        log.read_word(3)
    );

    drop(log);
    std::fs::remove_file(&path).expect("remove backing file");
    println!("ok");
}
