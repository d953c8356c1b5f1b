//! The transactional log engine over a [`PersistDomain`].
//!
//! [`Log`] implements the MorLog write path on byte regions: every
//! transactional store appends a CRC-sealed undo+redo slot and *drains*
//! before the in-place update is submitted (the write-ahead gate), commits
//! append a timestamped commit slot and drain again, and the ring's
//! head/tail live in dual-slot versioned control blocks so a crash can
//! never leave the registers half-written. Recovery scans the published
//! window, feeds the slots to the shared [`plan_replay`] planner, applies
//! the forward/backward schedule to the data region and truncates the log.
//!
//! Ordering rules the engine maintains (and that the crash tests sweep):
//!
//! 1. The new tail is *published* (control-block persist submitted) before
//!    the slot's bytes are — so a power cut mid-slot leaves a scannable
//!    torn slot inside the window rather than an invisible one past it.
//! 2. An undo+redo slot is fully durable (drain) before the word's
//!    in-place update is submitted — the write-ahead gate.
//! 3. A commit is acknowledged only after its slot's drain returns.

use crate::domain::{log_region, PersistDomain, RegionId, CONTROL_REGION, DATA_REGION};
use crate::protocol::{plan_replay, ScanEntry};
use crate::record::{
    crc32_words, decode_slot, encode_slot, Record, RecordKind, TxTag, BYTE_SLOTS, SLOT_MAX,
};
use crate::ring::Ring;
use crate::txtable::TxTable;

/// Geometry and protocol options of a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Number of log slices (independent ring regions).
    pub slices: usize,
    /// Ring capacity of each slice, in bytes.
    pub log_capacity: u64,
    /// Size of the in-place data region, in 8-byte words.
    pub data_words: u64,
    /// Whether recovery interprets commit records under the
    /// delay-persistence protocol (ulog counters). The engine itself
    /// always drains before acknowledging a commit, so this only matters
    /// when recovering logs written by the simulator's DP mode.
    pub delay_persistence: bool,
}

/// Bytes of one control block (ver, head, tail, crc + padding).
const CTRL_BLOCK: u64 = 32;

/// Bytes of control state per slice: two alternating blocks.
const CTRL_PER_SLICE: u64 = 2 * CTRL_BLOCK;

impl LogConfig {
    /// A small single-slice geometry for tests and examples: 4 KiB of log,
    /// 64 data words.
    pub fn small() -> Self {
        LogConfig {
            slices: 1,
            log_capacity: 4096,
            data_words: 64,
            delay_persistence: false,
        }
    }

    /// The control region's length in bytes.
    pub fn control_len(&self) -> u64 {
        self.slices as u64 * CTRL_PER_SLICE
    }

    /// The byte lengths of every region, indexed by [`RegionId`]: control,
    /// data, then one entry per log slice. Backends size themselves from
    /// this.
    pub fn region_lens(&self) -> Vec<u64> {
        let mut lens = vec![self.control_len(), self.data_words * 8];
        for _ in 0..self.slices {
            lens.push(self.log_capacity);
        }
        lens
    }

    fn validate(&self) {
        assert!(self.slices >= 1, "need at least one log slice");
        assert!(
            self.log_capacity >= 2 * SLOT_MAX,
            "log capacity must hold at least two max-size slots"
        );
        assert!(self.data_words >= 1, "need a non-empty data region");
    }
}

/// Errors from the log engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The log was opened over existing state; call [`Log::recover`] before
    /// writing.
    NeedsRecovery,
    /// The append did not fit even after truncating every deletable
    /// committed transaction.
    LogFull,
    /// A store named this data word, which lies outside the data region.
    WordOutOfRange(u64),
    /// The domain reported a (simulated) power loss mid-operation; restart
    /// the domain and recover.
    PowerLoss,
    /// The durable state is not a formatted log (or its control blocks are
    /// beyond repair).
    Corrupt(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::NeedsRecovery => write!(f, "log opened over existing state; recover first"),
            LogError::LogFull => write!(f, "log full (no deletable records to truncate)"),
            LogError::WordOutOfRange(word) => write!(f, "data word {word} out of range"),
            LogError::PowerLoss => write!(f, "persist domain lost power; restart and recover"),
            LogError::Corrupt(why) => write!(f, "log state corrupt: {why}"),
        }
    }
}

impl std::error::Error for LogError {}

/// What a [`Log::recover`] call found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Transactions rolled forward (committed and kept), in commit order.
    pub committed: Vec<TxTag>,
    /// Transactions rolled back, sorted.
    pub rolled_back: Vec<TxTag>,
    /// Log slots scanned inside the published windows.
    pub records_scanned: usize,
    /// Slots classified torn (drain cut short).
    pub torn_records: usize,
    /// Slots classified corrupt (integrity footprint failed).
    pub corrupt_records: usize,
    /// Undamaged slots dropped behind a damaged record of their thread.
    pub dropped_records: usize,
    /// Forward (redo) replay writes applied.
    pub forward_writes: usize,
    /// Backward (undo) replay writes applied.
    pub backward_writes: usize,
}

/// The transactional log engine. See the module docs for the protocol.
#[derive(Debug)]
pub struct Log<D: PersistDomain> {
    domain: D,
    cfg: LogConfig,
    /// One ring per slice; each live slot holds its record's transaction.
    rings: Vec<Ring<TxTag>>,
    /// Control-block version counter per slice (selects the dual slot).
    vers: Vec<u64>,
    /// Logical commit clock (monotonic across recoveries).
    clock: u64,
    txtable: TxTable,
    /// Data words submitted to the persist domain since the last drain;
    /// a successful drain makes them durable and releases them in the
    /// transaction table.
    submitted_words: Vec<u64>,
    needs_recovery: bool,
}

impl<D: PersistDomain> Log<D> {
    /// Formats a fresh log on `domain`: writes initial control blocks for
    /// every slice and drains. The domain's regions must match
    /// [`LogConfig::region_lens`].
    ///
    /// # Panics
    ///
    /// Panics if the domain's region geometry does not match `cfg`, or if
    /// the domain dies during the format drain.
    pub fn format(domain: D, cfg: LogConfig) -> Self {
        let mut log = Log::new(domain, cfg, false);
        for slice in 0..log.cfg.slices {
            log.publish_control(slice);
        }
        assert!(log.domain.drain(), "domain died during format");
        log
    }

    /// Opens a log over existing durable state. The log refuses writes
    /// until [`Log::recover`] has run.
    ///
    /// # Panics
    ///
    /// Panics if the domain's region geometry does not match `cfg`.
    pub fn open(domain: D, cfg: LogConfig) -> Self {
        Log::new(domain, cfg, true)
    }

    /// A log with empty rings and version-0 control state over `domain`.
    fn new(domain: D, cfg: LogConfig, needs_recovery: bool) -> Self {
        cfg.validate();
        let log = Log {
            domain,
            rings: (0..cfg.slices)
                .map(|_| Ring::new(BYTE_SLOTS, cfg.log_capacity))
                .collect(),
            vers: vec![0; cfg.slices],
            cfg,
            clock: 1,
            txtable: TxTable::new(),
            submitted_words: Vec::new(),
            needs_recovery,
        };
        log.check_geometry();
        log
    }

    fn check_geometry(&self) {
        for (region, len) in self.cfg.region_lens().iter().enumerate() {
            assert_eq!(
                self.domain.region_len(region as RegionId),
                *len,
                "domain region {region} does not match the log geometry"
            );
        }
    }

    /// The log's configuration.
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Mutable access to the persist domain (crash simulation: arm a power
    /// cut, or `restart()` after one fires).
    pub fn domain_mut(&mut self) -> &mut D {
        &mut self.domain
    }

    /// Shared access to the persist domain.
    pub fn domain(&self) -> &D {
        &self.domain
    }

    /// Consumes the log, returning the domain.
    pub fn into_domain(self) -> D {
        self.domain
    }

    /// Reads data word `word` from the volatile view.
    ///
    /// # Panics
    ///
    /// Panics if `word >= config().data_words`.
    pub fn read_word(&self, word: u64) -> u64 {
        assert!(word < self.cfg.data_words, "data word out of range");
        let mut b = [0u8; 8];
        self.domain.read(DATA_REGION, word * 8, &mut b);
        u64::from_le_bytes(b)
    }

    /// A transactional store: appends an undo+redo record for data word
    /// `word`, drains (write-ahead gate), then applies and submits the
    /// in-place update.
    ///
    /// # Errors
    ///
    /// [`LogError::WordOutOfRange`] when `word >= config().data_words`,
    /// [`LogError::NeedsRecovery`] before recovery, [`LogError::LogFull`]
    /// when the slot does not fit, [`LogError::PowerLoss`] when the domain
    /// dies at the drain.
    pub fn write(&mut self, thread: u8, txid: u16, word: u64, value: u64) -> Result<(), LogError> {
        if word >= self.cfg.data_words {
            return Err(LogError::WordOutOfRange(word));
        }
        if self.needs_recovery {
            return Err(LogError::NeedsRecovery);
        }
        let tag = TxTag::new(thread, txid);
        let addr = word * 8;
        let undo = self.read_word(word);
        let rec = Record::undo_redo(tag, addr, undo, value, 0xFF);
        self.append(tag.thread, rec)?;
        // Write-ahead gate: the undo record must be durable before the
        // in-place update can enter the persist domain.
        self.drain_released()?;
        self.domain.write(DATA_REGION, addr, &value.to_le_bytes());
        self.domain.persist(DATA_REGION, addr, 8);
        self.submitted_words.push(word);
        self.txtable.on_store(tag, word);
        Ok(())
    }

    /// Commits a transaction: appends a timestamped commit record and
    /// drains. After `commit` returns `Ok`, recovery will always roll the
    /// transaction forward.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Log::write`].
    pub fn commit(&mut self, thread: u8, txid: u16) -> Result<(), LogError> {
        if self.needs_recovery {
            return Err(LogError::NeedsRecovery);
        }
        let tag = TxTag::new(thread, txid);
        let ts = self.clock;
        self.clock += 1;
        let rec = Record::commit(tag, None).with_timestamp(ts);
        self.append(tag.thread, rec)?;
        self.drain_released()?;
        self.txtable.on_commit(tag);
        Ok(())
    }

    /// Drains the domain and, on success, releases the flushed data words
    /// in the transaction table.
    fn drain_released(&mut self) -> Result<(), LogError> {
        if !self.domain.drain() {
            self.needs_recovery = true;
            return Err(LogError::PowerLoss);
        }
        for word in self.submitted_words.drain(..) {
            self.txtable.on_line_persisted(word);
        }
        Ok(())
    }

    /// The slice a thread's records land in.
    fn slice_of(&self, thread: u8) -> usize {
        thread as usize % self.cfg.slices
    }

    /// Appends one record: reserves ring space (wrap-skip rule), writes the
    /// sealed slot, publishes the new tail, then submits the slot bytes —
    /// in that order, so a cut slot stays inside the published window.
    fn append(&mut self, thread: u8, rec: Record) -> Result<(), LogError> {
        let slice = self.slice_of(thread);
        let offset = match self.rings[slice].append(rec.kind, |_| rec.tag) {
            Some(entry) => entry.offset,
            None => {
                // Try to reclaim dead prefix records before giving up.
                self.truncate_committed();
                self.rings[slice]
                    .append(rec.kind, |_| rec.tag)
                    .ok_or(LogError::LogFull)?
                    .offset
            }
        };
        let ring = &self.rings[slice];
        let bytes = encode_slot(&rec, ring.pass_parity(offset));
        let (region, pos) = (log_region(slice), ring.position(offset));
        self.domain.write(region, pos, &bytes);
        // Publish the tail first (ordering rule 1), then the slot bytes.
        self.publish_control(slice);
        self.domain.persist(region, pos, rec.kind.slot_bytes());
        Ok(())
    }

    /// Writes and submits the next control block for `slice`, capturing the
    /// current head/tail under an incremented version.
    fn publish_control(&mut self, slice: usize) {
        self.vers[slice] += 1;
        let ver = self.vers[slice];
        let ring = &self.rings[slice];
        let words = [ver, ring.head(), ring.tail()];
        let mut block = [0u8; CTRL_BLOCK as usize];
        for (i, w) in words.iter().enumerate() {
            block[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        block[24..28].copy_from_slice(&crc32_words(&words).to_le_bytes());
        let off = slice as u64 * CTRL_PER_SLICE + (ver % 2) * CTRL_BLOCK;
        self.domain.write(CONTROL_REGION, off, &block);
        self.domain.persist(CONTROL_REGION, off, CTRL_BLOCK);
    }

    /// Reads one control block; `None` when its CRC fails.
    fn read_control_block(&self, slice: usize, which: u64) -> Option<[u64; 3]> {
        let off = slice as u64 * CTRL_PER_SLICE + which * CTRL_BLOCK;
        let mut block = [0u8; CTRL_BLOCK as usize];
        self.domain.read(CONTROL_REGION, off, &mut block);
        let mut words = [0u64; 3];
        for (i, w) in words.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&block[i * 8..i * 8 + 8]);
            *w = u64::from_le_bytes(b);
        }
        let mut crc = [0u8; 4];
        crc.copy_from_slice(&block[24..28]);
        (u32::from_le_bytes(crc) == crc32_words(&words)).then_some(words)
    }

    /// Advances each slice's head past the leading run of fully-deletable
    /// records (committed transactions whose in-place data is durable).
    /// Returns the bytes reclaimed. The new heads are submitted but not
    /// drained — a stale durable head is safe (recovery re-applies the
    /// extra records idempotently).
    pub fn truncate_committed(&mut self) -> u64 {
        let mut freed = 0;
        for slice in 0..self.cfg.slices {
            let ring = &mut self.rings[slice];
            let old_head = ring.head();
            // The new head is the first slot still needed, which also skips
            // a wrap remainder in front of it.
            let head = ring
                .entries()
                .find(|e| !self.txtable.is_deletable(e.value))
                .map_or(ring.tail(), |e| e.offset);
            // A tag's table entry is freed only once no slice still holds
            // its records; with per-thread slices a tag lives in exactly
            // one slice, so reclaiming its prefix run frees it. A tag
            // listed twice is forgotten twice, which is harmless.
            for entry in ring.truncate_to(head) {
                self.txtable.forget(entry.value);
            }
            if head != old_head {
                freed += head - old_head;
                self.publish_control(slice);
            }
        }
        freed
    }

    /// Recovers the log after a crash: reads the control blocks, scans the
    /// published windows, computes the shared [`plan_replay`] schedule,
    /// applies it to the data region, truncates the log and drains.
    ///
    /// Recovery is idempotent — recovering an already-recovered log scans
    /// an empty window and changes nothing.
    ///
    /// # Errors
    ///
    /// [`LogError::Corrupt`] when no control block of some slice validates
    /// (the domain was never formatted, or both dual slots are damaged);
    /// [`LogError::PowerLoss`] if the domain dies during recovery's own
    /// drain.
    pub fn recover(&mut self) -> Result<RecoveryOutcome, LogError> {
        // 1. Control: pick each slice's valid block with the highest
        //    version. A torn control write fails its CRC and falls back to
        //    the older snapshot, which is consistent (the slot past its
        //    tail was queued after the control write, so it never became
        //    durable either).
        for slice in 0..self.cfg.slices {
            let a = self.read_control_block(slice, 0);
            let b = self.read_control_block(slice, 1);
            let best = match (a, b) {
                (Some(x), Some(y)) => {
                    if x[0] >= y[0] {
                        x
                    } else {
                        y
                    }
                }
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => {
                    return Err(LogError::Corrupt(format!(
                        "slice {slice}: no valid control block"
                    )))
                }
            };
            let [ver, head, tail] = best;
            if head > tail || tail - head > self.cfg.log_capacity {
                return Err(LogError::Corrupt(format!(
                    "slice {slice}: control window [{head}, {tail}) is invalid"
                )));
            }
            self.vers[slice] = ver;
            self.rings[slice].reopen(head, tail);
        }

        // 2. Scan each slice's published window into planner entries.
        let mut entries: Vec<ScanEntry> = Vec::new();
        for slice in 0..self.cfg.slices {
            self.scan_slice(slice, &mut entries);
        }
        for e in &entries {
            if e.kind == RecordKind::Commit && e.crc_ok {
                self.clock = self.clock.max(e.timestamp + 1);
            }
        }

        // 3. Plan and apply.
        let plan = plan_replay(&entries, self.cfg.delay_persistence);
        for w in plan.forward.iter().chain(plan.backward.iter()) {
            self.domain
                .write(DATA_REGION, w.addr, &w.value.to_le_bytes());
            self.domain.persist(DATA_REGION, w.addr, 8);
        }

        // 4. Truncate everything (all scanned records are now applied or
        //    dead) and make the whole recovery durable.
        for slice in 0..self.cfg.slices {
            self.rings[slice].clear();
            self.publish_control(slice);
        }
        if !self.domain.drain() {
            // The heads and tails above are already rewritten in memory
            // but not durable: only another recovery may follow.
            self.needs_recovery = true;
            return Err(LogError::PowerLoss);
        }
        self.txtable.clear();
        self.submitted_words.clear();
        self.needs_recovery = false;
        Ok(RecoveryOutcome {
            committed: plan.winners.clone(),
            rolled_back: plan.undone.clone(),
            records_scanned: plan.records_scanned,
            torn_records: plan.torn_records,
            corrupt_records: plan.corrupt_records,
            dropped_records: plan.dropped_records,
            forward_writes: plan.forward.len(),
            backward_writes: plan.backward.len(),
        })
    }

    /// Scans one slice's `[head, tail)` window into [`ScanEntry`] values.
    fn scan_slice(&self, slice: usize, entries: &mut Vec<ScanEntry>) {
        let ring = &self.rings[slice];
        let region = log_region(slice);
        let mut pos = ring.head();
        while pos < ring.tail() {
            // The reserve covers every slot, so the kind the slot turns out
            // to hold does not move its start.
            pos = ring.place(pos, RecordKind::UndoRedo);
            if pos >= ring.tail() {
                break;
            }
            let mut bytes = [0u8; SLOT_MAX as usize];
            self.domain.read(region, ring.position(pos), &mut bytes);
            match decode_slot(&bytes, ring.pass_parity(pos)) {
                Ok(read) => {
                    let rec = read.record;
                    if read.complete {
                        entries.push(ScanEntry {
                            slice,
                            seq: pos,
                            kind: rec.kind,
                            tag: rec.tag,
                            addr: rec.addr,
                            undo: rec.undo,
                            redo: rec.redo,
                            ulog_count: rec.ulog_count,
                            timestamp: rec.timestamp,
                            words_persisted: rec.kind.data_words(),
                            meta_ok: true,
                            crc_ok: read.crc_ok,
                        });
                    } else {
                        // Trailer magic/parity missing: the slot never
                        // finished persisting on this pass. Classified
                        // torn, and reported as a redo-kind entry so a
                        // phantom header can never introduce an undo
                        // anchor or name a rolled-back transaction.
                        entries.push(ScanEntry {
                            slice,
                            seq: pos,
                            kind: RecordKind::Redo,
                            tag: rec.tag,
                            addr: rec.addr,
                            undo: None,
                            redo: 0,
                            ulog_count: None,
                            timestamp: 0,
                            words_persisted: 0,
                            meta_ok: true,
                            crc_ok: false,
                        });
                    }
                    pos += rec.kind.slot_bytes();
                }
                Err(_) => {
                    // Reserved kind bits: the header itself is damaged, so
                    // the slot cannot even be sized — report it corrupt
                    // (attributed to the thread bits as read) and stop
                    // scanning the slice.
                    let w1 = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                    entries.push(ScanEntry {
                        slice,
                        seq: pos,
                        kind: RecordKind::Redo,
                        tag: TxTag::new(((w1 >> 2) & 0xFF) as u8, ((w1 >> 10) & 0xFFFF) as u16),
                        addr: 0,
                        undo: None,
                        redo: 0,
                        ulog_count: None,
                        timestamp: 0,
                        words_persisted: 1,
                        meta_ok: false,
                        crc_ok: false,
                    });
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDomain;

    fn fresh(cfg: &LogConfig) -> Log<MemDomain> {
        Log::format(MemDomain::new(cfg), cfg.clone())
    }

    #[test]
    fn committed_write_survives_restart() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 3, 77).unwrap();
        log.commit(0, 0).unwrap();
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.committed, vec![TxTag::new(0, 0)]);
        assert_eq!(log.read_word(3), 77);
    }

    #[test]
    fn uncommitted_write_rolls_back() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 3, 10).unwrap();
        log.commit(0, 0).unwrap();
        log.write(0, 1, 3, 99).unwrap(); // never committed
        assert_eq!(log.read_word(3), 99, "volatile view sees the store");
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.rolled_back, vec![TxTag::new(0, 1)]);
        assert_eq!(log.read_word(3), 10, "rolled back to committed value");
    }

    #[test]
    fn open_requires_recovery_first() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 0, 1).unwrap();
        log.commit(0, 0).unwrap();
        let mut domain = log.into_domain();
        domain.restart();
        let mut reopened = Log::open(domain, cfg);
        assert_eq!(reopened.write(0, 1, 0, 2), Err(LogError::NeedsRecovery));
        reopened.recover().unwrap();
        assert_eq!(reopened.read_word(0), 1);
        reopened.write(0, 1, 0, 2).unwrap();
    }

    #[test]
    fn out_of_range_write_is_an_error() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        let formatted = log.domain().durable_bytes();
        assert_eq!(log.write(0, 0, 64, 1), Err(LogError::WordOutOfRange(64)));
        assert_eq!(log.domain().durable_bytes(), formatted, "nothing logged");
        log.write(0, 0, 63, 1).unwrap();
    }

    #[test]
    fn unformatted_domain_fails_recovery() {
        let cfg = LogConfig::small();
        let mut log = Log::open(MemDomain::new(&cfg), cfg);
        assert!(matches!(log.recover(), Err(LogError::Corrupt(_))));
    }

    #[test]
    fn log_fills_then_truncates_committed_prefix() {
        let cfg = LogConfig {
            slices: 1,
            log_capacity: 256, // room for a handful of slots
            data_words: 8,
            delay_persistence: false,
        };
        let mut log = fresh(&cfg);
        // Each committed tx costs 48 (undo+redo) + 32 (commit) bytes; after
        // enough of them the ring must reclaim its own committed prefix.
        for txid in 0..20u16 {
            log.write(0, txid, (txid % 8) as u64, txid as u64).unwrap();
            log.commit(0, txid).unwrap();
        }
        // Word w was last written by the largest txid with txid % 8 == w.
        for w in 0..8u64 {
            let last = (0..20u16).filter(|t| (*t % 8) as u64 == w).max().unwrap();
            assert_eq!(log.read_word(w), last as u64);
        }
    }

    #[test]
    fn uncommitted_tx_blocks_truncation_until_log_full() {
        let cfg = LogConfig {
            slices: 1,
            log_capacity: 192,
            data_words: 4,
            delay_persistence: false,
        };
        let mut log = fresh(&cfg);
        log.write(0, 0, 0, 1).unwrap(); // never commits: pins the head
        let mut filled = None;
        for txid in 1..10u16 {
            let r = match log.write(0, txid, 1, txid as u64) {
                Ok(()) => log.commit(0, txid),
                e => e,
            };
            if let Err(e) = r {
                filled = Some(e);
                break;
            }
        }
        assert_eq!(filled, Some(LogError::LogFull));
    }

    #[test]
    fn power_cut_during_write_reports_and_recovers() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 2, 5).unwrap();
        log.commit(0, 0).unwrap();
        // Die partway through the next write's WAL drain.
        log.domain_mut().arm_power_cut(10);
        assert_eq!(log.write(0, 1, 2, 9), Err(LogError::PowerLoss));
        assert_eq!(log.write(0, 1, 2, 9), Err(LogError::NeedsRecovery));
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert!(outcome.records_scanned >= 1);
        assert_eq!(log.read_word(2), 5);
    }

    #[test]
    fn power_cut_during_recovery_still_requires_recovery() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 1, 11).unwrap();
        log.commit(0, 0).unwrap();
        log.write(0, 1, 1, 22).unwrap();
        log.domain_mut().restart();
        log.domain_mut().arm_power_cut(4);
        assert_eq!(log.recover(), Err(LogError::PowerLoss));
        assert_eq!(log.write(0, 2, 1, 33), Err(LogError::NeedsRecovery));
        assert_eq!(log.commit(0, 2), Err(LogError::NeedsRecovery));
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.committed, vec![TxTag::new(0, 0)]);
        assert_eq!(log.read_word(1), 11);
        log.write(0, 2, 1, 33).unwrap();
    }

    #[test]
    fn recovery_is_idempotent() {
        let cfg = LogConfig::small();
        let mut log = fresh(&cfg);
        log.write(0, 0, 1, 11).unwrap();
        log.commit(0, 0).unwrap();
        log.write(0, 1, 1, 22).unwrap();
        log.domain_mut().restart();
        let first = log.recover().unwrap();
        assert_eq!(first.committed.len(), 1);
        assert_eq!(log.read_word(1), 11);
        let second = log.recover().unwrap();
        assert_eq!(second, RecoveryOutcome::default(), "second pass is a no-op");
        assert_eq!(log.read_word(1), 11);
    }

    #[test]
    fn ring_wraps_across_passes_with_parity_protection() {
        let cfg = LogConfig {
            slices: 1,
            log_capacity: 160,
            data_words: 4,
            delay_persistence: false,
        };
        let mut log = fresh(&cfg);
        // Many rounds so the ring wraps several times; stale slots from
        // prior passes must never satisfy the current pass's parity.
        for round in 0..30u16 {
            log.write(0, round, (round % 4) as u64, round as u64 + 100)
                .unwrap();
            log.commit(0, round).unwrap();
        }
        log.domain_mut().restart();
        log.recover().unwrap();
        for w in 0..4u64 {
            let last = (0..30u16).filter(|t| (*t % 4) as u64 == w).max().unwrap();
            assert_eq!(log.read_word(w), last as u64 + 100);
        }
    }
}
