//! The `morlog-log` workload, `log_commit`: acknowledged transactions
//! through a file-backed log. Its traced run also recovers a torn crash
//! image, to measure the library's read path. Both draw their transactions
//! from the run's seed.

use std::collections::BTreeSet;
use std::fs::{self, OpenOptions};
use std::hint::black_box;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::{Duration, Instant};

use morlog_log::domain::log_region;
use morlog_log::record::{crc32_words, decode_slot, encode_slot, RecordKind, SLOT_MAX};
use morlog_log::{
    plan_replay, Log, LogConfig, LogError, MmapDomain, PersistDomain, Record, RecoveryOutcome,
    ScanEntry, SyncMode, TxTag,
};
use morlog_sim_core::DetRng;

use crate::domain::{floor, Timed, WorkDir};
use crate::report::{median, ms, percentile, smallest, us, Outcome};

/// Stores per transaction.
const STORES: usize = 4;
/// Payload bytes of one transaction: its stored words.
const PAYLOAD_BYTES: f64 = (STORES * 8) as f64;
const DATA_WORDS: u64 = 65_536;
/// Transactions per `log_commit` round: enough for the rings to wrap and
/// truncate many times, and for p99 to leave 20 samples beyond it.
const ROUND_TXS: usize = 2_000;
/// Rounds per untraced `log_commit` run at least.
const MIN_ROUNDS: usize = 3;
/// Transactions committed into the crash image the traced run recovers.
const RECOVER_TXS: usize = 4_000;
/// Drains the traced `log_commit` run keeps for the device floor.
const FLOOR_DRAINS: usize = 10_000;
/// Transactions whose records time the record codec.
const CODEC_TXS: usize = 4_000;
/// Passes over a fixed input when timing a pure function; the median wins.
const PASSES: usize = 7;

/// Two 64 KiB rings: small enough that auto-truncation runs in steady state.
fn commit_config() -> LogConfig {
    LogConfig {
        slices: 2,
        log_capacity: 64 << 10,
        data_words: DATA_WORDS,
        delay_persistence: false,
    }
}

/// Two 4 MiB rings: the whole crash history stays in the log, so recovery
/// scans all of it.
fn recover_config() -> LogConfig {
    LogConfig {
        slices: 2,
        log_capacity: 4 << 20,
        data_words: DATA_WORDS,
        delay_persistence: false,
    }
}

/// One transaction: its tag and its stores as `(word, value)`.
type Tx = (TxTag, [(u64, u64); STORES]);

/// The seeded transaction stream: two client threads take turns, and each
/// store writes a random value to a uniformly random word.
struct TxStream {
    rng: DetRng,
    next: u64,
}

impl TxStream {
    fn new(seed: u64) -> Self {
        TxStream {
            rng: DetRng::new(seed),
            next: 0,
        }
    }

    fn next_tx(&mut self) -> Tx {
        let n = self.next;
        self.next += 1;
        let tag = TxTag::new((n % 2) as u8, (n / 2 % 0x1_0000) as u16);
        let stores = std::array::from_fn(|_| (self.rng.gen_range(DATA_WORDS), self.rng.next_u64()));
        (tag, stores)
    }
}

fn apply<D: PersistDomain>(log: &mut Log<D>, (tag, stores): &Tx) -> Result<(), LogError> {
    for &(word, value) in stores {
        log.write(tag.thread, tag.txid, word, value)?;
    }
    log.commit(tag.thread, tag.txid)
}

/// What the data region must hold, and which operation last wrote each
/// word.
struct Model {
    words: Vec<u64>,
    writer: Vec<Option<usize>>,
}

impl Model {
    fn new() -> Self {
        Model {
            words: vec![0; DATA_WORDS as usize],
            writer: vec![None; DATA_WORDS as usize],
        }
    }

    fn apply(&mut self, op: usize, stores: &[(u64, u64)]) {
        for &(word, value) in stores {
            self.words[word as usize] = value;
            self.writer[word as usize] = Some(op);
        }
    }

    /// The operations whose stores `read` does not return; `None` stands
    /// for a word that no operation wrote.
    fn misses(&self, read: impl Fn(u64) -> u64) -> BTreeSet<Option<usize>> {
        (0..DATA_WORDS)
            .filter(|&w| read(w) != self.words[w as usize])
            .map(|w| self.writer[w as usize])
            .collect()
    }
}

/// What the commit loop measured.
struct Commits {
    /// Host time of each transaction, in microseconds.
    latencies: Vec<f64>,
    busy: Duration,
    failed: BTreeSet<Option<usize>>,
}

/// Commits transactions of `stream` until `txs` are done or `budget` of
/// operation time is spent. A transaction fails its check when the log
/// returns an error or a word it stored does not read back.
fn run_commits<D: PersistDomain>(
    log: &mut Log<D>,
    stream: &mut TxStream,
    model: &mut Model,
    txs: usize,
    budget: Duration,
) -> Commits {
    let mut run = Commits {
        latencies: Vec::new(),
        busy: Duration::ZERO,
        failed: BTreeSet::new(),
    };
    while run.latencies.len() < txs && run.busy < budget {
        let op = run.latencies.len();
        let tx = stream.next_tx();
        let t = Instant::now();
        let result = apply(log, &tx);
        let dt = t.elapsed();
        run.busy += dt;
        run.latencies.push(us(dt));
        model.apply(op, &tx.1);
        let read_back =
            tx.1.iter()
                .all(|&(w, _)| log.read_word(w) == model.words[w as usize]);
        if result.is_err() || !read_back {
            run.failed.insert(Some(op));
        }
    }
    run
}

/// After the loop, the volatile view and the backing file, reopened and
/// recovered, must both hold exactly the model.
fn check_commits<D: PersistDomain>(
    log: Log<D>,
    path: &Path,
    cfg: &LogConfig,
    model: &Model,
    failed: &mut BTreeSet<Option<usize>>,
) -> io::Result<()> {
    failed.extend(model.misses(|w| log.read_word(w)));
    drop(log);
    let mut reopened = Log::open(MmapDomain::open(path, cfg, SyncMode::Never)?, cfg.clone());
    match reopened.recover() {
        Ok(outcome) if outcome.rolled_back.is_empty() => {
            failed.extend(model.misses(|w| reopened.read_word(w)));
        }
        _ => {
            failed.insert(None);
        }
    }
    Ok(())
}

/// `log_commit`: one operation is one acknowledged transaction of four
/// stores and a commit, on a file synced at every drain.
pub fn commit(seed: u64, budget: Duration, traced: bool) -> io::Result<Outcome> {
    let cfg = commit_config();
    let dir = WorkDir::new("log_commit")?;
    let path = dir.file("log");
    let mut out = Outcome::default();
    if !traced {
        // Rounds of the same transactions on a fresh log, until the budget
        // is spent. The device's and the shared host's speed drift over
        // seconds, so each transaction, and the set-up, is timed by its
        // fastest repeat.
        let (mut rounds, mut setups) = (Vec::new(), Vec::new());
        let mut busy = Duration::ZERO;
        while busy < budget || rounds.len() < MIN_ROUNDS {
            let t = Instant::now();
            let domain = MmapDomain::create(&path, &cfg, SyncMode::Always)?;
            let mut log = Log::format(domain, cfg.clone());
            setups.push(t.elapsed().as_secs_f64());
            let (mut stream, mut model) = (TxStream::new(seed), Model::new());
            let mut run = run_commits(&mut log, &mut stream, &mut model, ROUND_TXS, Duration::MAX);
            check_commits(log, &path, &cfg, &model, &mut run.failed)?;
            out.ops(run.latencies.len() as u64, run.failed.len() as u64);
            busy += run.busy;
            rounds.push(run.latencies);
        }
        let fastest: Vec<f64> = (0..ROUND_TXS)
            .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect();
        out.set(
            "throughput",
            ROUND_TXS as f64 * 1e6 / fastest.iter().sum::<f64>(),
        );
        out.set("latency_p50_us", median(&fastest));
        out.set("latency_tail_us", percentile(&fastest, 0.99));
        out.set("setup_s", smallest(&setups));
        return Ok(out);
    }

    // Traced: one long run over the timing wrapper, then the device floor
    // on the drains it kept, then the record codec on the same mix.
    let domain = Timed::new(
        MmapDomain::create(&path, &cfg, SyncMode::Always)?,
        FLOOR_DRAINS,
    );
    let mut log = Log::format(domain, cfg.clone());
    let mut stream = TxStream::new(seed);
    let mut model = Model::new();
    let before = log.domain().calls();
    let bytes_before = log.domain().inner().durable_bytes();
    let mut run = run_commits(&mut log, &mut stream, &mut model, usize::MAX, budget / 2);
    let calls = log.domain().calls().since(&before);
    let drained = (log.domain().inner().durable_bytes() - bytes_before) as f64;
    let kept = log.domain().kept_drains().to_vec();
    check_commits(log, &path, &cfg, &model, &mut run.failed)?;
    out.ops(run.latencies.len() as u64, run.failed.len() as u64);

    let n = run.latencies.len() as f64;
    let per_commit_us = |ns: u64| ns as f64 / n / 1e3;
    out.set(
        "log.engine_self_us",
        (run.busy.as_nanos() as f64 - calls.total_ns() as f64) / n / 1e3,
    );
    out.set("log.domain_write_us", per_commit_us(calls.write_ns));
    out.set("log.domain_read_us", per_commit_us(calls.read_ns));
    out.set("log.domain_persist_us", per_commit_us(calls.persist_ns));
    out.set("log.domain_drain_us", per_commit_us(calls.drain_ns));
    let drains_per_commit = calls.drains as f64 / n;
    out.set("log.drains_per_commit", drains_per_commit);
    out.set("log.persists_per_commit", calls.persists as f64 / n);
    out.set(
        "log.control_writes_per_commit",
        calls.control_writes as f64 / n,
    );
    out.set("log.bytes_drained_per_commit", drained / n);
    out.set("log.write_amp", drained / n / PAYLOAD_BYTES);

    let (floor_time, replayed) = floor(&dir.file("floor"), &cfg.region_lens(), &kept, budget / 4)?;
    let floor_ns_per_drain = floor_time.as_nanos() as f64 / replayed as f64;
    out.set("log.floor_us", floor_ns_per_drain * drains_per_commit / 1e3);
    out.set(
        "log.floor_ratio",
        calls.drain_ns as f64 / calls.drains as f64 / floor_ns_per_drain,
    );

    let (encode_ns, crc_ns) = time_record_codec(&stream_records(seed, CODEC_TXS));
    out.set("record.encode_slot_ns", encode_ns);
    out.set("record.crc32_ns", crc_ns);
    trace_recovery(seed, budget / 4, &dir, &mut out)?;
    Ok(out)
}

/// The records the first `txs` transactions of the seed's stream log: one
/// undo+redo record per store and one commit record per transaction.
fn stream_records(seed: u64, txs: usize) -> Vec<Record> {
    let mut stream = TxStream::new(seed);
    let mut words = vec![0u64; DATA_WORDS as usize];
    let mut records = Vec::with_capacity(txs * (STORES + 1));
    for timestamp in 1..=txs as u64 {
        let (tag, stores) = stream.next_tx();
        for (word, value) in stores {
            let undo = std::mem::replace(&mut words[word as usize], value);
            records.push(Record::undo_redo(tag, word * 8, undo, value, 0xFF));
        }
        records.push(Record::commit(tag, None).with_timestamp(timestamp));
    }
    records
}

/// Host nanoseconds per record of `encode_slot`, and of `crc32_words` over
/// the words a record's seal covers, each the median of several passes.
pub fn time_record_codec(records: &[Record]) -> (f64, f64) {
    let sealed: Vec<Vec<u64>> = records
        .iter()
        .map(|r| {
            let mut words = r.payload_words();
            words.push(0); // the pass-parity bit
            words
        })
        .collect();
    let per_record = |t: Instant| t.elapsed().as_nanos() as f64 / records.len() as f64;
    let (mut encode, mut crc) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let t = Instant::now();
        for (i, r) in records.iter().enumerate() {
            black_box(encode_slot(black_box(r), i % 2 == 1));
        }
        encode.push(per_record(t));
        let t = Instant::now();
        for words in &sealed {
            black_box(crc32_words(black_box(words)));
        }
        crc.push(per_record(t));
    }
    (median(&encode), median(&crc))
}

/// A crash image, and what recovery must make of it.
struct CrashImage {
    /// The backing file after the power cut.
    bytes: Vec<u8>,
    /// Committed transactions, in commit order.
    committed: Vec<TxTag>,
    /// The transaction the power cut interrupted.
    in_flight: TxTag,
    /// The data region recovery must leave behind.
    words: Vec<u64>,
    /// Bytes appended to each slice, the torn slot included.
    tails: Vec<u64>,
}

/// Commits [`RECOVER_TXS`] transactions of the seed's stream into a fresh
/// log at `path`, then cuts the power inside the second store of one more.
fn build_crash_image(path: &Path, cfg: &LogConfig, seed: u64) -> io::Result<CrashImage> {
    let slice_of = |tag: TxTag| tag.thread as usize % cfg.slices;
    let undo_redo = RecordKind::UndoRedo.slot_bytes();
    let mut stream = TxStream::new(seed);
    // Never synced: the file's bytes are the same, and set-up time stays
    // independent of the device.
    let domain = MmapDomain::create(path, cfg, SyncMode::Never)?;
    let mut log = Log::format(domain, cfg.clone());
    let mut words = vec![0u64; DATA_WORDS as usize];
    let mut committed = Vec::with_capacity(RECOVER_TXS);
    let mut tails = vec![0u64; cfg.slices];
    for _ in 0..RECOVER_TXS {
        let tx = stream.next_tx();
        apply(&mut log, &tx).map_err(io::Error::other)?;
        for &(word, value) in &tx.1 {
            words[word as usize] = value;
        }
        committed.push(tx.0);
        tails[slice_of(tx.0)] += STORES as u64 * undo_redo + RecordKind::Commit.slot_bytes();
    }
    let (in_flight, stores) = stream.next_tx();
    log.write(in_flight.thread, in_flight.txid, stores[0].0, stores[0].1)
        .map_err(io::Error::other)?;
    // The next drain carries the first store's data word (8 bytes), the
    // control block publishing the new tail (32) and the new 48-byte slot.
    // Keeping 1..=44 bytes of the slot leaves it without its trailer: torn.
    let cut = 8 + 32 + 1 + DetRng::for_stream(seed, 1).gen_range(44);
    log.domain_mut().arm_power_cut(cut);
    let second = log.write(in_flight.thread, in_flight.txid, stores[1].0, stores[1].1);
    if second != Err(LogError::PowerLoss) {
        return Err(io::Error::other("the power cut missed the in-flight store"));
    }
    tails[slice_of(in_flight)] += 2 * undo_redo;
    drop(log);
    Ok(CrashImage {
        bytes: fs::read(path)?,
        committed,
        in_flight,
        words,
        tails,
    })
}

/// Whether recovery rebuilt exactly what the crash image holds.
fn recovered(
    outcome: &Result<RecoveryOutcome, LogError>,
    image: &CrashImage,
    read: impl Fn(u64) -> u64,
) -> bool {
    let Ok(o) = outcome else {
        return false;
    };
    o.committed == image.committed
        && o.rolled_back == [image.in_flight]
        && o.torn_records == 1
        && (0..DATA_WORDS).all(|w| read(w) == image.words[w as usize])
}

/// The read path, traced: recoveries of a seeded crash image until `budget`
/// is spent, each restored before it (untimed) and checked after it, then
/// the decode scan and the planner called directly on the same image.
fn trace_recovery(seed: u64, budget: Duration, dir: &WorkDir, out: &mut Outcome) -> io::Result<()> {
    let cfg = recover_config();
    let (source, path) = (dir.file("source"), dir.file("crash"));
    let image = build_crash_image(&source, &cfg, seed)?;
    fs::remove_file(&source)?;
    // Recovery rewrites only the control and data regions, which precede
    // the log slices in the file. Restoring that prefix is enough, and keeps
    // megabytes of unchanged log out of the page cache's write-back.
    let prefix = image.bytes.len() - cfg.slices * cfg.log_capacity as usize;
    fs::write(&path, &image.bytes)?;
    let restore = || {
        OpenOptions::new()
            .write(true)
            .open(&path)?
            .write_all_at(&image.bytes[..prefix], 0)
    };

    let mut busy = Duration::ZERO;
    let (mut open_ms, mut recover_ms) = (Vec::new(), Vec::new());
    let (mut read_ms, mut drain_ms, mut self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while busy < budget || recover_ms.len() < PASSES {
        restore()?;
        let t = Instant::now();
        let domain = MmapDomain::open(&path, &cfg, SyncMode::Never)?;
        let opened = t.elapsed();
        let mut log = Log::open(Timed::new(domain, 0), cfg.clone());
        let outcome = log.recover();
        let total = t.elapsed();
        let calls = log.domain().calls();
        let rest = total - opened;
        open_ms.push(ms(opened));
        recover_ms.push(ms(rest));
        read_ms.push(calls.read_ns as f64 / 1e6);
        drain_ms.push((calls.write_ns + calls.persist_ns + calls.drain_ns) as f64 / 1e6);
        self_ms.push((rest.as_nanos() as f64 - calls.total_ns() as f64) / 1e6);
        busy += total;
        let ok = recovered(&outcome, &image, |w| log.read_word(w));
        out.ops(1, u64::from(!ok));
        last = outcome.ok();
    }

    out.set("log.open_ms", median(&open_ms));
    out.set("log.recover_ms", median(&recover_ms));
    out.set("log.recover_read_ms", median(&read_ms));
    out.set("log.recover_drain_ms", median(&drain_ms));
    out.set("log.recover_self_ms", median(&self_ms));
    let outcome = last.unwrap_or_default();
    out.set("log.records_scanned", outcome.records_scanned as f64);
    out.set("log.forward_writes", outcome.forward_writes as f64);
    out.set("log.backward_writes", outcome.backward_writes as f64);
    out.set("log.torn_records", outcome.torn_records as f64);
    out.set(
        "log.recover_us_per_record",
        median(&recover_ms) * 1e3 / outcome.records_scanned as f64,
    );

    // The decode scan and the planner, called directly on the same image.
    restore()?;
    let domain = MmapDomain::open(&path, &cfg, SyncMode::Never)?;
    let rings: Vec<Vec<u8>> = image
        .tails
        .iter()
        .enumerate()
        .map(|(slice, &tail)| {
            let mut ring = vec![0u8; (tail + SLOT_MAX) as usize];
            domain.read(log_region(slice), 0, &mut ring);
            ring
        })
        .collect();
    let (mut decode_ms, mut plan_ms) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let t = Instant::now();
        let entries = scan(&rings, &image.tails);
        decode_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let plan = plan_replay(black_box(&entries), false);
        plan_ms.push(ms(t.elapsed()));
        let agrees = plan.winners == image.committed
            && plan.undone == [image.in_flight]
            && plan.records_scanned == outcome.records_scanned;
        out.ops(0, u64::from(!agrees));
    }
    out.set("record.decode_slot_ms", median(&decode_ms));
    out.set("protocol.plan_replay_ms", median(&plan_ms));
    Ok(())
}

/// Decodes every slot of each ring's `[0, tail)` window into planner
/// entries the way recovery's scan does. No ring of the crash image has
/// wrapped, so every slot sits on the first pass (parity `false`).
fn scan(rings: &[Vec<u8>], tails: &[u64]) -> Vec<ScanEntry> {
    let mut entries = Vec::new();
    for (slice, (ring, &tail)) in rings.iter().zip(tails).enumerate() {
        let (mut pos, mut seq) = (0u64, 0u64);
        while pos < tail {
            let at = pos as usize;
            let Ok(read) = decode_slot(&ring[at..at + SLOT_MAX as usize], false) else {
                break;
            };
            let rec = read.record;
            let complete = read.complete;
            entries.push(ScanEntry {
                slice,
                seq,
                kind: if complete { rec.kind } else { RecordKind::Redo },
                tag: rec.tag,
                addr: rec.addr,
                undo: if complete { rec.undo } else { None },
                redo: if complete { rec.redo } else { 0 },
                ulog_count: if complete { rec.ulog_count } else { None },
                timestamp: if complete { rec.timestamp } else { 0 },
                words_persisted: if complete { rec.kind.data_words() } else { 0 },
                meta_ok: true,
                crc_ok: read.crc_ok,
            });
            pos += rec.kind.slot_bytes();
            seq += 1;
        }
    }
    entries
}
