//! End-to-end smoke bench for the embeddable log's mmap backend.
//!
//! Runs a full append → crash → recover → verify cycle against a real
//! backing file: `TXS` transactions (three stores + one commit each) are
//! appended through [`MmapDomain`], the process "crash" drops the handle
//! with one transaction still in flight, and recovery over a fresh open of
//! the file must roll every acknowledged commit forward and the in-flight
//! tail back. Throughput and recovery latency go to stdout only — this is
//! a smoke gate, not a paper figure, so no `results/*.json` document is
//! written.
//!
//! ```bash
//! cargo run --release -p morlog-bench --bin log_smoke            # 1000 txs
//! cargo run --release -p morlog-bench --bin log_smoke -- 5000
//! MORLOG_LOG_DIR=/dev/shm MORLOG_LOG_SYNC=never \
//!   cargo run --release -p morlog-bench --bin log_smoke
//! ```
//!
//! `MORLOG_LOG_DIR` picks the backing-file directory (default: the OS temp
//! dir), `MORLOG_LOG_SYNC` the fsync policy (`always`/`never`, default
//! `always`); both are strict-parsed and abort with exit code 2 when
//! malformed, like every other knob.

use std::time::Instant;

use morlog_log::{Log, LogConfig, MmapDomain};
use morlog_sim_core::knobs;

/// The data word transaction `n` targets with store `k` (0..3). Three hot
/// words shared by all transactions plus one private word, so recovery has
/// both overwrite chains and disjoint updates to get right.
fn word_of(cfg: &LogConfig, n: u64, k: u64) -> u64 {
    if k < 3 {
        k
    } else {
        3 + n % (cfg.data_words - 3)
    }
}

/// The value transaction `n` writes with store `k` — unique per (n, k).
fn value_of(n: u64, k: u64) -> u64 {
    n * 8 + k + 1
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let txs: u64 = args.get(1).map_or(1000, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: transaction count {s:?} is not a number");
            std::process::exit(2);
        })
    });
    let dir = knobs::log_dir();
    let sync = knobs::log_sync();

    let cfg = LogConfig {
        slices: 2,
        log_capacity: 64 * 1024,
        data_words: 1024,
        delay_persistence: false,
    };
    let path = dir.join(format!("morlog-log-smoke-{}", std::process::id()));
    println!(
        "log_smoke: {txs} txs, {} slices x {} B log, {} data words, {sync:?}, {}",
        cfg.slices,
        cfg.log_capacity,
        cfg.data_words,
        path.display()
    );

    // Append phase: every transaction is acknowledged before the next
    // starts, so all `txs` commits must survive the crash.
    let domain = MmapDomain::create(&path, &cfg, sync).expect("create backing file");
    let mut log = Log::format(domain, cfg.clone());
    let t0 = Instant::now();
    for n in 0..txs {
        let (thread, txid) = ((n % 2) as u8, (n / 2 % 0x10000) as u16);
        for k in 0..4 {
            log.write(thread, txid, word_of(&cfg, n, k), value_of(n, k))
                .unwrap();
        }
        log.commit(thread, txid).unwrap();
    }
    let append = t0.elapsed();

    // Crash phase: one more transaction stores but never commits, then the
    // handle is dropped — everything not yet drained to the file is lost.
    let (thread, txid) = ((txs % 2) as u8, (txs / 2 % 0x10000) as u16);
    log.write(thread, txid, 0, 0xDEAD_BEEF).unwrap();
    log.write(thread, txid, 1, 0xDEAD_BEEF).unwrap();
    drop(log);

    // Recovery phase: reopen from the file alone.
    let t1 = Instant::now();
    let domain = MmapDomain::open(&path, &cfg, sync).expect("reopen backing file");
    let mut log = Log::open(domain, cfg.clone());
    let outcome = log.recover().expect("recovery");
    let recover = t1.elapsed();

    // Verify: the in-flight tail rolled back, and every word holds the
    // value of the last committed transaction that wrote it.
    assert!(
        outcome
            .rolled_back
            .iter()
            .any(|t| t.thread == thread && t.txid == txid),
        "in-flight tx ({thread},{txid}) not rolled back: {outcome:?}"
    );
    let mut expect = vec![0u64; cfg.data_words as usize];
    for n in 0..txs {
        for k in 0..4 {
            expect[word_of(&cfg, n, k) as usize] = value_of(n, k);
        }
    }
    let mut mismatches = 0u64;
    for w in 0..cfg.data_words {
        if log.read_word(w) != expect[w as usize] {
            eprintln!(
                "word {w}: got {:#x}, want {:#x}",
                log.read_word(w),
                expect[w as usize]
            );
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "recovered data region diverges from the commit history"
    );

    println!(
        "append : {txs} txs in {append:?} ({:.0} txs/s)",
        txs as f64 / append.as_secs_f64()
    );
    println!(
        "recover: {} scanned ({} torn, {} corrupt), {} fwd / {} bwd writes in {recover:?}",
        outcome.records_scanned,
        outcome.torn_records,
        outcome.corrupt_records,
        outcome.forward_writes,
        outcome.backward_writes
    );
    drop(log);
    std::fs::remove_file(&path).expect("remove backing file");
    println!("log_smoke: ok");
}
