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
use crate::protocol::{plan_replay, plan_truncation, ReplayPlan, ScanEntry};
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

/// Control versions and ring offsets at or above this come only from a
/// forged control block: a log would need centuries to reach them, and
/// the engine's counters would overflow past them.
const UNREACHABLE: u64 = 1 << 62;

/// The CRC of a control block's words and deletion mark. With mark 0 it
/// is the CRC of the words alone, and a nonzero mark flips at most 32
/// adjacent bits of the input, which CRC-32 always detects.
fn control_crc(words: [u64; 3], mark: u32) -> u32 {
    crc32_words(&[words[0], words[1], words[2] ^ u64::from(mark) << 32])
}

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
        // Deletion marks hold 32 bits: fewer than 2^31 commit slots.
        let bytes = (self.slices as u64).saturating_mul(self.log_capacity);
        assert!(bytes < 1 << 36, "log too large: 2^31 commit slots or more");
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

/// What a completed recovery pass found and did: the result of
/// [`Log::recover`] and of the simulator's recovery over its NVMM log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Transactions rolled forward (committed, and persisted under
    /// delay-persistence), in commit order.
    pub committed: Vec<TxTag>,
    /// Transactions rolled back, sorted: uncommitted ones, committed but
    /// not persisted ones under delay-persistence, and ones demoted because
    /// the crash damaged a record before their commit could be trusted.
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

impl RecoveryOutcome {
    /// Whether the scan found any damaged or dropped records.
    pub fn saw_damage(&self) -> bool {
        self.torn_records > 0 || self.corrupt_records > 0 || self.dropped_records > 0
    }
}

/// The outcome of a pass that applied every write of `plan`.
impl From<ReplayPlan> for RecoveryOutcome {
    fn from(plan: ReplayPlan) -> Self {
        RecoveryOutcome {
            forward_writes: plan.forward.len(),
            backward_writes: plan.backward.len(),
            committed: plan.winners,
            rolled_back: plan.undone,
            records_scanned: plan.records_scanned,
            torn_records: plan.torn_records,
            corrupt_records: plan.corrupt_records,
            dropped_records: plan.dropped_records,
        }
    }
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
    /// The newest deleted commit timestamp; control blocks carry 32 bits.
    deleted_through: u64,
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
            deleted_through: 0,
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
        let rec = Record::commit(tag, None).with_timestamp(ts);
        self.append(tag.thread, rec)?;
        // A refused commit takes no timestamp (see the deletion marks).
        self.clock += 1;
        self.drain_released()?;
        self.txtable.on_commit(tag, ts);
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
    /// current head/tail and deletion mark under an incremented version.
    fn publish_control(&mut self, slice: usize) {
        self.vers[slice] += 1;
        let ver = self.vers[slice];
        let ring = &self.rings[slice];
        let (words, mark) = ([ver, ring.head(), ring.tail()], self.deleted_through as u32);
        let mut block = [0u8; CTRL_BLOCK as usize];
        for (i, w) in words.iter().enumerate() {
            block[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        block[24..28].copy_from_slice(&control_crc(words, mark).to_le_bytes());
        block[28..32].copy_from_slice(&mark.to_le_bytes());
        let off = slice as u64 * CTRL_PER_SLICE + (ver % 2) * CTRL_BLOCK;
        self.domain.write(CONTROL_REGION, off, &block);
        self.domain.persist(CONTROL_REGION, off, CTRL_BLOCK);
    }

    /// Reads one control block's words and deletion mark; `None` when its
    /// CRC fails. A block sealed without a mark reads as mark 0.
    fn read_control_block(&self, slice: usize, which: u64) -> Option<([u64; 3], u32)> {
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
        let mut mark = [0u8; 4];
        mark.copy_from_slice(&block[28..32]);
        let (crc, mark) = (u32::from_le_bytes(crc), u32::from_le_bytes(mark));
        [mark, 0]
            .into_iter()
            .find(|&m| crc == control_crc(words, m))
            .map(|m| (words, m))
    }

    /// Advances each slice's head past the records [`plan_truncation`]
    /// may delete: committed transactions whose data are durable, in
    /// commit-timestamp order. No transaction is split, so each deleted
    /// one leaves the table too. A crash may keep some new heads and not
    /// others, so every slice publishes the new deletion mark, which
    /// [`Log::recover`] reads to skip a stale head's records.
    fn truncate_committed(&mut self) {
        let table = &self.txtable;
        let heads = plan_truncation(
            &self.rings,
            |&tag| tag,
            |tag| table.is_deletable(tag),
            |tag| table.commit_order(tag),
        );
        let mut moved = false;
        for (slice, head) in heads.into_iter().enumerate() {
            if head > self.rings[slice].head() {
                for entry in self.rings[slice].truncate_to(head) {
                    let order = self.txtable.commit_order(entry.value).unwrap_or(0);
                    self.deleted_through = self.deleted_through.max(order);
                    self.txtable.forget(entry.value);
                }
                moved = true;
            }
        }
        if moved {
            for slice in 0..self.cfg.slices {
                self.publish_control(slice);
            }
        }
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
        let mut marks = Vec::with_capacity(self.cfg.slices);
        for slice in 0..self.cfg.slices {
            let a = self.read_control_block(slice, 0);
            let b = self.read_control_block(slice, 1);
            let best = match (a, b) {
                (Some(x), Some(y)) => {
                    if x.0[0] >= y.0[0] {
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
            let ([ver, head, tail], mark) = best;
            if head > tail || tail - head > self.cfg.log_capacity {
                return Err(LogError::Corrupt(format!(
                    "slice {slice}: control window [{head}, {tail}) is invalid"
                )));
            }
            if ver.max(tail) >= UNREACHABLE {
                return Err(LogError::Corrupt(format!(
                    "slice {slice}: control version {ver} or tail {tail} is out of range"
                )));
            }
            self.vers[slice] = ver;
            self.rings[slice].reopen(head, tail);
            marks.push(mark);
        }

        // 2. Scan each slice's published window into planner entries.
        let mut entries: Vec<ScanEntry> = Vec::new();
        for slice in 0..self.cfg.slices {
            self.scan_slice(slice, &mut entries);
        }
        // 3. A commit at or below the newest deletion mark lost records in
        //    a slice whose new head landed: replaying it could undo a later
        //    commit. Marks are read against the newest commit (see validate).
        let commits = || (entries.iter()).filter(|e| e.kind == RecordKind::Commit && e.crc_ok);
        let newest = commits().map(|e| e.timestamp).max().unwrap_or(0);
        let near =
            |m: u32| newest.wrapping_add_signed((m.wrapping_sub(newest as u32) as i32).into());
        let deleted = marks.into_iter().map(near).max().unwrap_or(0);
        let mut stale: Vec<_> = commits()
            .filter(|e| e.timestamp <= deleted)
            .map(|e| e.tag)
            .collect();
        stale.sort_unstable();
        entries.retain(|e| stale.binary_search(&e.tag).is_err());
        self.clock = self.clock.max(newest + 1);

        // 4. Plan and apply.
        let plan = plan_replay(&entries, self.cfg.delay_persistence);
        for w in plan.forward.iter().chain(plan.backward.iter()) {
            self.domain
                .write(DATA_REGION, w.addr, &w.value.to_le_bytes());
            self.domain.persist(DATA_REGION, w.addr, 8);
        }

        // 5. Truncate everything (all scanned records are now applied or
        //    dead) and make the whole recovery durable.
        self.deleted_through = self.clock - 1;
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
        Ok(RecoveryOutcome::from(plan))
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
            // Reserved kind bits: the header itself is damaged, so the slot
            // cannot even be sized. It is reported as a corrupt redo entry
            // that ends the slice's scan, so its tag cuts off nothing.
            let read = decode_slot(&bytes, ring.pass_parity(pos));
            let meta_ok = read.is_ok();
            let (rec, complete, crc_ok) = read.map_or_else(
                |_| (Record::redo_only(TxTag::default(), 0, 0, 0), true, false),
                |read| (read.record, read.complete, read.crc_ok),
            );
            // A slot without its trailer magic/parity never finished
            // persisting on this pass: torn, and reported as a redo-kind
            // entry so a phantom header can never introduce an undo anchor
            // or name a rolled-back transaction.
            let sealed = complete.then_some(rec);
            // Stores check their word, so a sealed record naming one
            // outside the data region is forged: corrupt.
            let in_region = rec.kind.data_words() == 0
                || (rec.addr % 8 == 0 && rec.addr / 8 < self.cfg.data_words);
            entries.push(ScanEntry {
                slice,
                seq: pos,
                kind: sealed.map_or(RecordKind::Redo, |r| r.kind),
                tag: rec.tag,
                addr: rec.addr,
                undo: sealed.and_then(|r| r.undo),
                redo: sealed.map_or(0, |r| r.redo),
                ulog_count: sealed.and_then(|r| r.ulog_count),
                timestamp: sealed.map_or(0, |r| r.timestamp),
                words_persisted: sealed.map_or(0, |r| r.kind.data_words()),
                meta_ok,
                crc_ok: crc_ok && complete && in_region,
            });
            if !meta_ok {
                break;
            }
            pos += rec.kind.slot_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    fn fresh(cfg: &LogConfig) -> Log<Image> {
        Log::format(Image::new(cfg), cfg.clone())
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
        let mut log = Log::<Image>::open(Image::new(&cfg), cfg);
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

    /// Two slices of `capacity` bytes over 8 data words.
    fn two_slices(capacity: u64) -> LogConfig {
        LogConfig {
            slices: 2,
            log_capacity: capacity,
            data_words: 8,
            delay_persistence: false,
        }
    }

    #[test]
    fn truncation_never_deletes_a_commit_while_an_earlier_one_stays() {
        // Slice 0: T2 stays open at the head and pins T0's commit behind
        // it. Slice 1: T1 commits word 1 after T0. When T3's commit finds
        // slice 1 full, deleting T1 would leave recovery T0's redo of
        // word 1 with nothing after it, so the log must refuse instead.
        let mut log = fresh(&two_slices(144));
        log.write(2, 0, 5, 5).unwrap();
        log.write(0, 0, 1, 1).unwrap();
        log.commit(0, 0).unwrap();
        log.write(1, 0, 1, 2).unwrap();
        log.commit(1, 0).unwrap();
        log.write(3, 0, 6, 6).unwrap();
        assert_eq!(log.commit(3, 0), Err(LogError::LogFull));
        log.domain_mut().restart();
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.committed, [TxTag::new(0, 0), TxTag::new(1, 0)]);
        assert_eq!((log.read_word(1), log.read_word(5)), (2, 0));
    }

    #[test]
    fn interleaved_transactions_never_wedge_a_shared_slice() {
        // Threads (0, 2) and (1, 3) run as two pairs that take turns, and
        // each pair shares a slice at two slices (all four share it at
        // one). A pair's round is a store, b store, a store, a commit,
        // b commit: 208 bytes. Every ring here holds a round, so
        // truncation must always make room.
        let round = |a: u8, b: u8, r: u16| {
            let (wa, wb) = (u64::from(a), u64::from(b));
            [
                (a, Some((wa, r))),
                (b, Some((wb, r))),
                (a, Some((wa, r + 100))),
                (a, None),
                (b, None),
            ]
        };
        for slices in [1, 2] {
            for capacity in (224..=1192).step_by(8) {
                let cfg = LogConfig {
                    slices,
                    ..two_slices(capacity)
                };
                let mut log = fresh(&cfg);
                for r in 0..12u16 {
                    for (thread, op) in round(0, 2, r).into_iter().chain(round(1, 3, r)) {
                        let done = match op {
                            Some((word, value)) => log.write(thread, r, word, u64::from(value)),
                            None => log.commit(thread, r),
                        };
                        done.unwrap_or_else(|e| panic!("{slices} x {capacity} B, round {r}: {e}"));
                    }
                }
                log.domain_mut().restart();
                log.recover().unwrap();
                let words: Vec<u64> = (0..4).map(|w| log.read_word(w)).collect();
                assert_eq!(words, [111, 111, 11, 11], "{slices} x {capacity} B");
            }
        }
    }

    #[test]
    fn a_torn_slot_in_one_slice_keeps_the_others_acknowledged_commits() {
        // T0 commits word 1 in slice 0, then T1's first store is cut short
        // in slice 1. A torn slot whose header still reads thread 0 must
        // not cut off thread 0's records in slice 0.
        let cfg = LogConfig {
            slices: 2,
            log_capacity: 4096,
            data_words: 64,
            delay_persistence: false,
        };
        let program = |log: &mut Log<Image>| {
            let _ = log.write(0, 0, 1, 1);
            let acked = log.commit(0, 0).is_ok();
            let _ = log.write(1, 0, 2, 2);
            acked
        };
        let mut reference = fresh(&cfg);
        let base = reference.domain().durable_bytes();
        program(&mut reference);
        let total = reference.domain().durable_bytes() - base;
        for budget in 0..=total {
            let mut log = fresh(&cfg);
            log.domain_mut().arm_power_cut(budget);
            let acked = program(&mut log);
            log.domain_mut().restart();
            let outcome = log.recover().unwrap();
            if acked {
                assert_eq!(outcome.committed, [TxTag::new(0, 0)], "budget {budget}");
                assert_eq!(log.read_word(1), 1, "budget {budget}");
            }
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
