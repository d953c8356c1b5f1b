//! The hardware log controller: morphable logging (§III) and the FWB
//! undo+redo baseline (Ogleari et al., HPCA'18) behind one engine-facing
//! interface.
//!
//! # Event model
//!
//! The simulation engine drives the controller with the events the paper's
//! hardware reacts to:
//!
//! * [`tx_begin`] / [`start_commit`] — transaction boundaries
//!   (`Tx_Begin` / `Tx_End` annotations).
//! * [`on_store`] — a transactional store that already hit in L1; the
//!   controller runs the Fig. 8 word-state machine, creates or coalesces
//!   log entries, and may stall the store on buffer backpressure.
//! * [`on_l1_evict`] — an L1 line left the cache; `ULog` words emit redo
//!   entries, `Dirty` words force their undo+redo entries out first.
//! * [`on_llc_writeback`] — updated data are about to enter the persist
//!   domain; matching redo-buffer entries are discarded (their data are
//!   persisting anyway) and any still-buffered undo entries for the line
//!   are forced ahead of the data (write-ahead ordering).
//! * [`tick`] — per-cycle buffer aging: eager undo+redo eviction, lazy
//!   redo eviction, commit-record appends, overflow drain.
//!
//! Between events the engine asks [`next_event`] for the earliest cycle a
//! tick could change anything, and [`store_stall`] /
//! [`writeback_blocked`] whether a stalled store or write-back would just
//! stall again, so it can skip the cycles in between.
//!
//! [`tx_begin`]: LogController::tx_begin
//! [`start_commit`]: LogController::start_commit
//! [`on_store`]: LogController::on_store
//! [`on_l1_evict`]: LogController::on_l1_evict
//! [`on_llc_writeback`]: LogController::on_llc_writeback
//! [`tick`]: LogController::tick
//! [`next_event`]: LogController::next_event
//! [`store_stall`]: LogController::store_stall
//! [`writeback_blocked`]: LogController::writeback_blocked

use std::collections::{BTreeMap, VecDeque};

use morlog_cache::line::{CacheLine, L1Ext, WordLogState};
use morlog_encoding::secure::SecureMode;
use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_log::txtable::TxTable;
use morlog_nvm::controller::{LogAppendError, MemoryController};
use morlog_sim_core::hash::{IntHashMap, IntHashSet};
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::ids::TxKey;
use morlog_sim_core::metrics::CommitLatency;
use morlog_sim_core::stats::LogStats;
use morlog_sim_core::trace::{CommitPhaseTag, TraceEvent, Tracer, WordStateTag};
use morlog_sim_core::types::dirty_byte_mask;
use morlog_sim_core::{Addr, CheckMutation, Cycle, DesignKind, LogConfig, ThreadId, TxId};

use crate::buffer::{home_line, LogBuffer};

/// A store could not proceed this cycle, and what blocked it. The engine
/// retries the store next cycle and charges the stalled cycle to the
/// matching attribution bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreStall {
    /// On-chip log machinery backpressure: forced entries are waiting in
    /// the overflow queue, or the buffer is full and its head entry could
    /// not flush because the log ring needs truncation first.
    Buffer,
    /// The flush path found the NVMM write queue full this cycle.
    WriteQueue,
}

/// An undo+redo entry left the buffer. If it was written, the engine
/// transitions the word's L1 state `Dirty → URLog` (Fig. 8); if it was
/// discarded as a silent log write, the word returns to `Clean` — a later
/// update must create a fresh undo+redo entry, because no undo anchor for
/// this word exists in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedUr {
    /// The owning transaction.
    pub key: TxKey,
    /// The logged word's home address.
    pub addr: Addr,
    /// The entry was discarded (all-clean log data) rather than written.
    pub silent: bool,
}

impl PersistedUr {
    /// The notification for an undo+redo `record` that left the buffers
    /// with `outcome` (never [`FlushOutcome::Blocked`]).
    fn of(record: &Record, outcome: FlushOutcome) -> Self {
        PersistedUr {
            key: record.tag.into(),
            addr: record.addr.into(),
            silent: matches!(outcome, FlushOutcome::Discarded),
        }
    }
}

/// A `ULog` word reported by the engine's commit-time L1 walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UlogWord {
    /// The word's home address.
    pub addr: Addr,
    /// The newest redo value (the word's L1 contents).
    pub value: u64,
    /// The accumulated dirty flag.
    pub dirty_mask: u8,
}

#[derive(Debug, Clone, Copy)]
struct PendingCommit {
    key: TxKey,
    started: Cycle,
}

/// Phase timestamps of one in-flight transaction, resolved into the
/// commit-latency histograms once both the commit record has persisted
/// and the program has observed completion (the two arrive in either
/// order: persist-then-complete for sync designs, complete-then-persist
/// under delay-persistence).
#[derive(Debug, Clone, Copy)]
struct CommitTrack {
    begin: Cycle,
    start: Cycle,
    persisted: Option<Cycle>,
    complete: Option<Cycle>,
}

enum FlushOutcome {
    Written,
    Discarded,
    /// The append could not proceed; carries the backpressure class the
    /// engine should charge a dependent store stall to.
    Blocked(StoreStall),
}

/// The log controller.
///
/// # Example
///
/// ```
/// use morlog_logging::controller::LogController;
/// use morlog_sim_core::{DesignKind, LogConfig, ThreadId};
///
/// let mut lc = LogController::new(DesignKind::MorLogSlde, LogConfig::default());
/// let key = lc.tx_begin(ThreadId::new(0), 0);
/// assert_eq!(key.thread, ThreadId::new(0));
/// ```
#[derive(Debug)]
pub struct LogController {
    design: DesignKind,
    cfg: LogConfig,
    ur_buf: LogBuffer,
    redo_buf: LogBuffer,
    /// Records forced out of the buffers by events that cannot stall
    /// (evictions, commits); drained ahead of everything else. While
    /// non-empty, new stores stall — this is the hardware backpressure.
    overflow: VecDeque<Record>,
    next_txid: IntHashMap<ThreadId, TxId>,
    pending_commits: BTreeMap<ThreadId, PendingCommit>,
    /// Commit records awaiting a free write-queue slot (and, for gating,
    /// their transaction's undo+redo entries draining first).
    pending_records: VecDeque<Record>,
    /// Commit cycle of every transaction whose commit record persisted
    /// (drives log truncation).
    commit_cycle: IntHashMap<TxKey, Cycle>,
    stats: LogStats,
    /// Redo entries older than this are written out even without pressure.
    redo_lazy_age: Cycle,
    /// The secure-NVMM model in effect (§IV-D). Under whole-line
    /// re-encryption, even value-unchanged words produce new ciphertext, so
    /// silent log writes cannot be discarded.
    secure: SecureMode,
    /// Global commit-order counter stamped into commit records (needed to
    /// order commits across distributed log slices, §III-F).
    next_commit_ts: u64,
    /// Phase timestamps of transactions still resolving their commit.
    commit_track: IntHashMap<TxKey, CommitTrack>,
    /// Commit-latency distributions (always collected).
    latency: CommitLatency,
    /// Observability sink (disabled by default; see [`set_tracer`]).
    ///
    /// [`set_tracer`]: LogController::set_tracer
    tracer: Tracer,
    /// Deliberate sabotage selector for the checker's mutation self-test
    /// (see [`CheckMutation`]); `None` in every real configuration.
    mutation: CheckMutation,
    /// Reused by [`tick`](LogController::tick) for the pending-commit keys
    /// it walks, so a tick allocates nothing.
    commit_scratch: Vec<TxKey>,
}

impl LogController {
    /// Builds the controller for one of the six evaluated designs.
    pub fn new(design: DesignKind, cfg: LogConfig) -> Self {
        LogController {
            design,
            ur_buf: LogBuffer::new(cfg.undo_redo_entries),
            redo_buf: LogBuffer::new(cfg.redo_entries),
            overflow: VecDeque::new(),
            next_txid: IntHashMap::default(),
            pending_commits: BTreeMap::new(),
            pending_records: VecDeque::new(),
            commit_cycle: IntHashMap::default(),
            stats: LogStats::default(),
            redo_lazy_age: 4096,
            secure: SecureMode::None,
            next_commit_ts: 0,
            commit_track: IntHashMap::default(),
            latency: CommitLatency::default(),
            tracer: Tracer::disabled(),
            mutation: CheckMutation::None,
            commit_scratch: Vec::new(),
            cfg,
        }
    }

    /// Installs the sabotage selector for the checker's mutation
    /// self-test. Real designs always run with [`CheckMutation::None`].
    pub fn set_mutation(&mut self, mutation: CheckMutation) {
        self.mutation = mutation;
    }

    /// Installs the shared trace handle (see [`morlog_sim_core::trace`]).
    /// Emits word state-machine transitions and commit-protocol phases.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Selects the secure-NVMM model (§IV-D).
    pub fn set_secure_mode(&mut self, mode: SecureMode) {
        self.secure = mode;
    }

    /// The design this controller implements.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// Logging counters.
    pub fn stats(&self) -> &LogStats {
        &self.stats
    }

    fn is_morlog(&self) -> bool {
        self.design.is_morlog()
    }

    /// Whether the dirty-flag hardware of §IV-A is present (SLDE designs)
    /// and silent-log-write discarding is sound: under whole-line
    /// re-encryption every write produces fresh ciphertext, so nothing is
    /// ever silent (§IV-D; DEUCE-style schemes keep clean words' ciphertext
    /// and the optimization intact).
    fn has_dirty_flags(&self) -> bool {
        !self.design.uses_crade_only() && self.secure != SecureMode::Full
    }

    /// Starts a transaction on `thread` at cycle `now`, assigning the
    /// next 16-bit TxID. `now` seeds the commit-latency phase tracker.
    pub fn tx_begin(&mut self, thread: ThreadId, now: Cycle) -> TxKey {
        let txid = self.next_txid.entry(thread).or_insert_with(|| TxId::new(0));
        let key = TxKey::new(thread, *txid);
        *txid = txid.next();
        self.commit_track.insert(
            key,
            CommitTrack {
                begin: now,
                start: now,
                persisted: None,
                complete: None,
            },
        );
        key
    }

    /// Commit-latency distributions collected so far.
    pub fn latency(&self) -> &CommitLatency {
        &self.latency
    }

    /// Stamps one commit phase for `key`; once both RecordPersisted and
    /// Complete have been observed, resolves the transaction into the
    /// latency histograms. Completion and persistence arrive in either
    /// order (§III-C inverts them), so resolution waits for both.
    fn track_phase(&mut self, key: TxKey, phase: CommitPhaseTag, now: Cycle) {
        let Some(track) = self.commit_track.get_mut(&key) else {
            return;
        };
        match phase {
            CommitPhaseTag::Begin => track.begin = now,
            CommitPhaseTag::Start => track.start = now,
            CommitPhaseTag::RecordPersisted => track.persisted = Some(now),
            CommitPhaseTag::Complete => track.complete = Some(now),
        }
        if let (Some(persisted), Some(complete)) = (track.persisted, track.complete) {
            let (begin, start) = (track.begin, track.start);
            self.commit_track.remove(&key);
            self.latency.record_commit(
                begin,
                start,
                persisted,
                complete,
                self.design.delay_persistence(),
            );
        }
    }

    /// Handles one transactional store of `new` over `old` at `addr` (the
    /// line is resident in L1 as `line`; the engine writes the data after
    /// this call succeeds).
    ///
    /// # Errors
    ///
    /// [`StoreStall`] when log-buffer backpressure blocks the store; the
    /// engine retries next cycle.
    #[allow(clippy::too_many_arguments)]
    pub fn on_store(
        &mut self,
        key: TxKey,
        addr: Addr,
        old: u64,
        new: u64,
        line: &mut CacheLine,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<(), StoreStall> {
        let _prof = hostprof::scope(HostPhase::Logging);
        if !self.overflow.is_empty() {
            return Err(StoreStall::Buffer);
        }
        let addr = addr.word_base();
        if !self.is_morlog() {
            return self.fwb_store(key, addr, old, new, now, mc);
        }
        // Residue of a previous transaction on this line: flush it first
        // (the line's single TID/TxID tag pair can describe one transaction).
        let needs_reset = line.ext.as_ref().is_some_and(|e| e.owner != key);
        if needs_reset {
            let ext = line.ext.expect("checked above");
            self.flush_residue(&ext, line, now, mc);
        }
        let ext = line.ext.get_or_insert_with(|| L1Ext::new(key));
        if needs_reset {
            *ext = L1Ext::new(key);
        }
        let w = addr.word_index();
        let delta = dirty_byte_mask(old, new);
        match ext.word_state[w] {
            WordLogState::Clean => {
                if delta == 0 && self.has_dirty_flags() {
                    // Fig. 11 "Write C1": the dirty-flag comparators (§IV-A)
                    // see an unchanged value; stay Clean and log nothing.
                    // Without SLDE's dirty-flag hardware the store is logged
                    // like any other.
                    return Ok(());
                }
                // §III-B: a stale redo entry for this word from the same
                // transaction (created when the line was evicted earlier)
                // must be discarded — the new undo+redo entry supersedes it.
                if self.redo_buf.remove(key, addr).is_some() {
                    self.stats.redo_discarded += 1;
                }
                if self.ur_buf.is_full() {
                    self.evict_ur_front(now, mc)?;
                }
                let ext = line.ext.as_mut().expect("ext installed above");
                self.ur_buf
                    .push(
                        Record::undo_redo(key.into(), addr.as_u64(), old, new, delta),
                        now,
                    )
                    .expect("room ensured");
                self.stats.undo_redo_created += 1;
                ext.word_state[w] = WordLogState::Dirty;
                ext.dirty_flags[w] = delta;
                self.tracer.emit(now, || TraceEvent::WordTransition {
                    key,
                    addr: addr.as_u64(),
                    from: WordStateTag::Clean,
                    to: WordStateTag::Dirty,
                });
            }
            WordLogState::Dirty => {
                if let Some(p) = self.ur_buf.find_mut(key, addr) {
                    let undo = p.record.undo.expect("undo+redo entry");
                    p.record.redo = new;
                    p.record.dirty_mask = dirty_byte_mask(undo, new);
                    let mask = p.record.dirty_mask;
                    let ext = line.ext.as_mut().expect("ext installed above");
                    ext.dirty_flags[w] = mask;
                    self.stats.coalesced += 1;
                } else {
                    // The entry left the buffer before its persist
                    // notification arrived (forced flush or same-cycle
                    // eviction). Conservatively start over with a fresh
                    // undo+redo entry: its undo (the current value) chains
                    // correctly behind whatever the flushed entry logged —
                    // and if that entry was discarded as silent, this one
                    // provides the rollback anchor the word needs.
                    if self.ur_buf.is_full() {
                        self.evict_ur_front(now, mc)?;
                    }
                    self.ur_buf
                        .push(
                            Record::undo_redo(key.into(), addr.as_u64(), old, new, delta),
                            now,
                        )
                        .expect("room ensured");
                    self.stats.undo_redo_created += 1;
                    let ext = line.ext.as_mut().expect("ext installed above");
                    ext.word_state[w] = WordLogState::Dirty;
                    ext.dirty_flags[w] = delta;
                }
            }
            WordLogState::URLog => {
                if delta != 0 || !self.has_dirty_flags() {
                    let ext = line.ext.as_mut().expect("ext installed above");
                    Self::enter_ulog(ext, w, delta);
                    self.tracer.emit(now, || TraceEvent::WordTransition {
                        key,
                        addr: addr.as_u64(),
                        from: WordStateTag::URLog,
                        to: WordStateTag::ULog,
                    });
                }
            }
            WordLogState::ULog => {
                let ext = line.ext.as_mut().expect("ext installed above");
                ext.dirty_flags[w] |= delta;
            }
        }
        Ok(())
    }

    fn enter_ulog(ext: &mut L1Ext, w: usize, delta: u8) {
        ext.word_state[w] = WordLogState::ULog;
        ext.dirty_flags[w] = delta;
    }

    fn fwb_store(
        &mut self,
        key: TxKey,
        addr: Addr,
        old: u64,
        new: u64,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<(), StoreStall> {
        // FWB: every store creates (or coalesces into) an undo+redo entry in
        // the single log buffer; no value comparison is performed.
        if let Some(p) = self.ur_buf.find_mut(key, addr) {
            let undo = p.record.undo.expect("undo+redo entry");
            p.record.redo = new;
            p.record.dirty_mask = dirty_byte_mask(undo, new);
            self.stats.coalesced += 1;
            return Ok(());
        }
        if self.ur_buf.is_full() {
            self.evict_ur_front(now, mc)?;
        }
        self.ur_buf
            .push(
                Record::undo_redo(
                    key.into(),
                    addr.as_u64(),
                    old,
                    new,
                    dirty_byte_mask(old, new),
                ),
                now,
            )
            .expect("room ensured");
        self.stats.undo_redo_created += 1;
        Ok(())
    }

    /// Flushes the redo data of a previous transaction still described by a
    /// line's extensions (triggered by a write from a new transaction,
    /// Fig. 8).
    fn flush_residue(
        &mut self,
        ext: &L1Ext,
        line: &CacheLine,
        now: Cycle,
        mc: &mut MemoryController,
    ) {
        for w in 0..morlog_sim_core::WORDS_PER_LINE {
            if ext.word_state[w] == WordLogState::ULog {
                self.queue_redo_with_evict(
                    Record::redo_only(
                        ext.owner.into(),
                        line.addr.word_addr(w).as_u64(),
                        line.data.word(w),
                        ext.dirty_flags[w],
                    ),
                    now,
                    mc,
                );
            }
            // Dirty words: their undo+redo entries are still in the FIFO and
            // carry the newest redo; they flush by age in order.
        }
    }

    fn queue_redo(&mut self, mut record: Record, now: Cycle) {
        // Sabotage for the differential checker's spec-divergence test: the
        // logged redo value is off by one. The program observes correct
        // values all the way to the crash, but recovery rolls winners
        // forward to a state a faithful design never reaches — exactly the
        // cross-design disagreement the differential mode must catch.
        if self.mutation == CheckMutation::SkewRedoValue {
            record.redo = record.redo.wrapping_add(1);
        }
        self.stats.redo_created += 1;
        let key = TxKey::from(record.tag);
        if self.commit_cycle.contains_key(&key)
            || self.pending_commits.values().any(|p| p.key == key)
            || self.pending_records.iter().any(|r| r.tag == record.tag)
        {
            self.stats.post_commit_redo += 1;
        }
        if self.redo_buf.push(record, now).is_err() {
            self.overflow.push_back(record);
        }
    }

    /// Queues a redo record, making room by writing the oldest redo entry
    /// out if needed; falls back to the overflow queue (which stalls
    /// stores) only when the write queue is also full.
    fn queue_redo_with_evict(&mut self, record: Record, now: Cycle, mc: &mut MemoryController) {
        if self.redo_buf.is_full() {
            if let Some(front) = self.redo_buf.front() {
                let oldest = front.record;
                if !matches!(
                    self.flush_to_ring(oldest, now, mc),
                    FlushOutcome::Blocked(_)
                ) {
                    self.redo_buf.pop_front();
                }
            }
        }
        self.queue_redo(record, now);
    }

    /// An L1 line was evicted (capacity or back-invalidation): `ULog` words
    /// emit redo entries; `Dirty` words force their undo+redo entries into
    /// the overflow queue so they persist ahead of the data (§III-B).
    pub fn on_l1_evict(&mut self, line: &CacheLine, now: Cycle) {
        if !self.is_morlog() {
            return;
        }
        let Some(ext) = line.ext else { return };
        for w in 0..morlog_sim_core::WORDS_PER_LINE {
            match ext.word_state[w] {
                WordLogState::ULog => {
                    self.queue_redo(
                        Record::redo_only(
                            ext.owner.into(),
                            line.addr.word_addr(w).as_u64(),
                            line.data.word(w),
                            ext.dirty_flags[w],
                        ),
                        now,
                    );
                }
                WordLogState::Dirty => {
                    let addr = line.addr.word_addr(w);
                    if let Some(p) = self.ur_buf.remove(ext.owner, addr) {
                        self.overflow.push_back(p.record);
                    }
                }
                WordLogState::Clean | WordLogState::URLog => {}
            }
        }
    }

    /// Updated data for `line_index` are about to enter the persist domain
    /// (LLC eviction or force-write-back). Discards matching redo-buffer
    /// entries (morphable logging, §III-B) and forces any still-buffered
    /// undo+redo entries for the line out first (write-ahead ordering).
    ///
    /// Returns `false` when the forced entries could not be persisted this
    /// cycle — the caller must delay the data write and retry.
    pub fn on_llc_writeback(
        &mut self,
        line_index: u64,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> bool {
        let _prof = hostprof::scope(HostPhase::Logging);
        if self.discards_redo_on_writeback(mc) {
            let n = self.redo_buf.remove_line(line_index);
            self.stats.redo_discarded += n as u64;
            let before = self.overflow.len();
            self.overflow
                .retain(|r| r.kind != RecordKind::Redo || home_line(r) != line_index);
            self.stats.redo_discarded += (before - self.overflow.len()) as u64;
        }
        // Sabotage for the mutation self-test: let the data line go durable
        // without first persisting its buffered undo entries. A crash in
        // the window between this write-back and the entries' eventual
        // eager eviction leaves in-place data with no undo to roll back.
        if self.mutation == CheckMutation::DropUndoFence {
            return true;
        }
        // Write-ahead: undo entries for this line must persist before it.
        while let Some(p) = self.ur_buf.find_line_front(line_index) {
            match self.flush_to_ring(p.record, now, mc) {
                FlushOutcome::Blocked(_) => return false,
                _ => {
                    self.ur_buf
                        .remove(p.record.tag.into(), p.record.addr.into());
                }
            }
        }
        while let Some(pos) = self
            .overflow
            .iter()
            .position(|r| home_line(r) == line_index && r.kind == RecordKind::UndoRedo)
        {
            let record = self.overflow[pos];
            match self.flush_to_ring(record, now, mc) {
                FlushOutcome::Blocked(_) => return false,
                _ => {
                    self.overflow.remove(pos);
                }
            }
        }
        true
    }

    /// Whether an LLC write-back discards the line's buffered redo entries.
    /// Under an active fault plan the discard is suppressed: recovery may
    /// need a committed winner's redo entries to re-apply words whose
    /// in-place data the crash left behind a gated (undrained-undo) write,
    /// and a damaged record must never be the only copy of a word.
    fn discards_redo_on_writeback(&self, mc: &MemoryController) -> bool {
        self.is_morlog() && self.cfg.discard_redo_on_llc_evict && !mc.fault_active()
    }

    /// Begins committing `key`. For the synchronous protocols the engine
    /// passes the `ULog` words found in the committing core's L1 (their redo
    /// entries are created now); under delay-persistence it passes the ulog
    /// counter instead and the commit completes instantly (§III-C).
    pub fn start_commit(
        &mut self,
        key: TxKey,
        ulog_words: Vec<UlogWord>,
        ulog_count: u32,
        now: Cycle,
    ) {
        let _prof = hostprof::scope(HostPhase::Logging);
        self.tracer.emit(now, || TraceEvent::CommitPhase {
            key,
            phase: CommitPhaseTag::Start,
        });
        self.track_phase(key, CommitPhaseTag::Start, now);
        if self.design.delay_persistence() {
            // Instant commit: only the commit record (with the ulog counter)
            // is queued; it appends once the transaction's undo+redo entries
            // have drained, preserving the §III-C recovery invariant.
            self.next_commit_ts += 1;
            self.pending_records.push_back(
                Record::commit(key.into(), Some(ulog_count)).with_timestamp(self.next_commit_ts),
            );
            self.tracer.emit(now, || TraceEvent::CommitPhase {
                key,
                phase: CommitPhaseTag::Complete,
            });
            self.track_phase(key, CommitPhaseTag::Complete, now);
            return;
        }
        for wordinfo in ulog_words {
            self.queue_redo(
                Record::redo_only(
                    key.into(),
                    wordinfo.addr.word_base().as_u64(),
                    wordinfo.value,
                    wordinfo.dirty_mask,
                ),
                now,
            );
        }
        self.pending_commits
            .insert(key.thread, PendingCommit { key, started: now });
    }

    /// Whether `thread`'s synchronous commit is still draining log data.
    pub fn is_commit_pending(&self, thread: ThreadId) -> bool {
        self.pending_commits.contains_key(&thread)
    }

    /// Commit records queued but not yet persisted. The engine applies
    /// transaction-begin backpressure when this grows (a full log region
    /// must drain before more transactions pile up, §III-A overflow).
    pub fn commit_backlog(&self) -> usize {
        self.pending_records.len()
    }

    /// Per-cycle maintenance. Refills `persisted` with the undo+redo
    /// entries that reached the persist domain this cycle (the engine
    /// transitions their words `Dirty → URLog`).
    pub fn tick(
        &mut self,
        now: Cycle,
        mc: &mut MemoryController,
        persisted: &mut Vec<PersistedUr>,
    ) {
        let _prof = hostprof::scope(HostPhase::Logging);
        persisted.clear();
        // 1. Overflow drains first (forced entries, eviction redo data).
        while let Some(&record) = self.overflow.front() {
            match self.flush_to_ring(record, now, mc) {
                FlushOutcome::Blocked(_) => break,
                outcome => {
                    self.overflow.pop_front();
                    if record.kind == RecordKind::UndoRedo {
                        persisted.push(PersistedUr::of(&record, outcome));
                    }
                }
            }
        }
        // 2. Eager undo+redo aging (§III-B: entries leave after N cycles,
        // N below the minimum cache-traversal latency).
        while let Some(front) = self.ur_buf.front() {
            if now < front.created + self.cfg.eager_evict_cycles {
                break;
            }
            let record = front.record;
            match self.flush_to_ring(record, now, mc) {
                FlushOutcome::Blocked(_) => break,
                outcome => {
                    self.ur_buf.pop_front();
                    persisted.push(PersistedUr::of(&record, outcome));
                }
            }
        }
        // 3. Synchronous commits pull their transaction's entries out.
        let mut commits = std::mem::take(&mut self.commit_scratch);
        commits.clear();
        commits.extend(self.pending_commits.values().map(|p| p.key));
        for &key in &commits {
            loop {
                let next = self
                    .ur_buf
                    .find_tx_front(key)
                    .map(|p| (true, p.record))
                    .or_else(|| self.redo_buf.find_tx_front(key).map(|p| (false, p.record)));
                let Some((is_ur, record)) = next else { break };
                match self.flush_to_ring(record, now, mc) {
                    FlushOutcome::Blocked(_) => break,
                    outcome => {
                        if is_ur {
                            self.ur_buf.remove(record.tag.into(), record.addr.into());
                            persisted.push(PersistedUr::of(&record, outcome));
                        } else {
                            self.redo_buf.remove(record.tag.into(), record.addr.into());
                        }
                    }
                }
            }
        }
        // 4. Lazy redo eviction: only under pressure or old age (§III-B).
        while let Some(front) = self.redo_buf.front() {
            let old = now >= front.created + self.redo_lazy_age;
            if !(self.redo_under_pressure() || old) {
                break;
            }
            let record = front.record;
            match self.flush_to_ring(record, now, mc) {
                FlushOutcome::Blocked(_) => break,
                _ => {
                    self.redo_buf.pop_front();
                }
            }
        }
        // 5. Commit records append once their transaction's undo+redo
        // entries are in the log (write-ahead completeness for recovery).
        // The head record's entries are pulled out actively rather than
        // waiting for the aging timer.
        while let Some(record) = self.pending_records.front().copied() {
            let key = TxKey::from(record.tag);
            while let Some(p) = self.ur_buf.find_tx_front(key) {
                match self.flush_to_ring(p.record, now, mc) {
                    FlushOutcome::Blocked(_) => break,
                    outcome => {
                        self.ur_buf
                            .remove(p.record.tag.into(), p.record.addr.into());
                        persisted.push(PersistedUr::of(&p.record, outcome));
                    }
                }
            }
            if self.tx_has_buffered_undo(key) {
                break;
            }
            match mc.try_append_log(record, now) {
                Ok(_) => {
                    self.pending_records.pop_front();
                    self.stats.commit_records += 1;
                    self.commit_cycle.insert(key, now);
                    self.tracer.emit(now, || TraceEvent::CommitPhase {
                        key,
                        phase: CommitPhaseTag::RecordPersisted,
                    });
                    self.track_phase(key, CommitPhaseTag::RecordPersisted, now);
                }
                Err(LogAppendError::WqFull) => break,
                Err(LogAppendError::RingFull) => {
                    self.stats.log_region_full_stalls += 1;
                    break;
                }
            }
        }
        // 6. Synchronous commits complete when nothing of theirs is left
        // and their commit record persisted.
        commits.clear();
        commits.extend(
            self.pending_commits
                .values()
                .filter(|p| !self.tx_has_buffered_entries(p.key))
                .map(|p| p.key),
        );
        for &key in &commits {
            let thread = key.thread;
            let p = self.pending_commits[&thread];
            if !self.commit_cycle.contains_key(&p.key)
                && !self
                    .pending_records
                    .iter()
                    .any(|r| r.tag == TxTag::from(p.key))
            {
                self.next_commit_ts += 1;
                self.pending_records.push_back(
                    Record::commit(p.key.into(), None).with_timestamp(self.next_commit_ts),
                );
                continue; // record appends on a later tick pass
            }
            if self.commit_cycle.contains_key(&p.key) {
                // Under an active fault plan, hold completion until every
                // record of the transaction has fully drained: the program
                // must not observe a commit whose log entries a crash could
                // still tear in the write queue.
                if mc.fault_active() && mc.tx_has_undrained_records(p.key) {
                    continue;
                }
                self.stats.commit_stall_cycles += now.saturating_sub(p.started);
                self.pending_commits.remove(&thread);
                self.tracer.emit(now, || TraceEvent::CommitPhase {
                    key: p.key,
                    phase: CommitPhaseTag::Complete,
                });
                self.track_phase(p.key, CommitPhaseTag::Complete, now);
            }
        }
        self.commit_scratch = commits;
    }

    /// Whether any of `key`'s entries is still buffered or queued for the
    /// overflow drain.
    fn tx_has_buffered_entries(&self, key: TxKey) -> bool {
        self.ur_buf.has_tx(key)
            || self.redo_buf.has_tx(key)
            || self.overflow.iter().any(|r| r.tag == TxTag::from(key))
    }

    /// Whether the redo buffer is at least three quarters full, which
    /// evicts its head regardless of age (§III-B).
    fn redo_under_pressure(&self) -> bool {
        self.redo_buf.capacity() > 0 && self.redo_buf.len() * 4 >= self.redo_buf.capacity() * 3
    }

    fn tx_has_buffered_undo(&self, key: TxKey) -> bool {
        let tag = TxTag::from(key);
        self.ur_buf.has_tx(key)
            || self
                .overflow
                .iter()
                .any(|r| r.tag == tag && r.kind == RecordKind::UndoRedo)
    }

    fn evict_ur_front(
        &mut self,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<PersistedUr, StoreStall> {
        let front = self.ur_buf.front().ok_or(StoreStall::Buffer)?;
        let record = front.record;
        match self.flush_to_ring(record, now, mc) {
            FlushOutcome::Blocked(why) => Err(why),
            outcome => {
                self.ur_buf.pop_front();
                Ok(PersistedUr::of(&record, outcome))
            }
        }
    }

    fn flush_to_ring(
        &mut self,
        record: Record,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> FlushOutcome {
        if self.is_silent(&record) {
            self.stats.silent_discarded += 1;
            return FlushOutcome::Discarded;
        }
        match mc.try_append_log(record, now) {
            Ok(_) => {
                self.stats.entries_written += 1;
                FlushOutcome::Written
            }
            Err(LogAppendError::WqFull) => FlushOutcome::Blocked(StoreStall::WriteQueue),
            Err(LogAppendError::RingFull) => {
                self.stats.log_region_full_stalls += 1;
                FlushOutcome::Blocked(StoreStall::Buffer)
            }
        }
    }

    /// Silent log writes: with dirty-flag hardware, completely clean log
    /// data are discarded instead of written (§IV-A).
    fn is_silent(&self, record: &Record) -> bool {
        self.has_dirty_flags() && record.kind != RecordKind::Commit && record.dirty_mask == 0
    }

    /// Whether [`flush_to_ring`](Self::flush_to_ring) on `record` would
    /// be blocked with no side effect (see
    /// [`MemoryController::log_append_blocked`]).
    fn flush_blocked(&self, record: &Record, mc: &MemoryController) -> bool {
        !self.is_silent(record) && mc.log_append_blocked(record)
    }

    /// The stall [`evict_ur_front`](Self::evict_ur_front) would return
    /// without touching anything: the undo+redo buffer is full and its
    /// head cannot leave it. `None` if the eviction could proceed.
    fn ur_front_stall(&self, mc: &MemoryController) -> Option<StoreStall> {
        if !self.ur_buf.is_full() {
            return None;
        }
        match self.ur_buf.front() {
            None => Some(StoreStall::Buffer),
            Some(front) if self.flush_blocked(&front.record, mc) => Some(StoreStall::WriteQueue),
            Some(_) => None,
        }
    }

    /// The earliest cycle `>= now` at which [`tick`](LogController::tick)
    /// could change anything, assuming no other component acts first:
    /// an eager undo+redo or lazy redo age deadline, or `now` for work
    /// that could proceed (or would bump a counter) right away. Work
    /// blocked on a full write queue waits for the memory controller's
    /// next issue, which the caller takes from
    /// [`MemoryController::next_event`]. `Cycle::MAX` when nothing is
    /// pending.
    ///
    /// This is a lower bound: waking early is harmless, waking late
    /// would skip real work. `now` is the answer whenever unsure.
    pub fn next_event(&self, now: Cycle, mc: &MemoryController) -> Cycle {
        let mut next = Cycle::MAX;
        // 1. Overflow drain.
        if self
            .overflow
            .front()
            .is_some_and(|r| !self.flush_blocked(r, mc))
        {
            return now;
        }
        // 2. Eager undo+redo aging.
        if let Some(front) = self.ur_buf.front() {
            let due = front.created + self.cfg.eager_evict_cycles;
            if due > now {
                next = next.min(due);
            } else if !self.flush_blocked(&front.record, mc) {
                return now;
            }
        }
        // 3. Synchronous commits pulling their entries.
        for p in self.pending_commits.values() {
            let head = self
                .ur_buf
                .find_tx_front(p.key)
                .or_else(|| self.redo_buf.find_tx_front(p.key));
            if head.is_some_and(|h| !self.flush_blocked(&h.record, mc)) {
                return now;
            }
        }
        // 4. Lazy redo eviction.
        if let Some(front) = self.redo_buf.front() {
            let due = if self.redo_under_pressure() {
                now
            } else {
                front.created + self.redo_lazy_age
            };
            if due > now {
                next = next.min(due);
            } else if !self.flush_blocked(&front.record, mc) {
                return now;
            }
        }
        // 5. The head commit record.
        if let Some(record) = self.pending_records.front() {
            let key = TxKey::from(record.tag);
            match self.ur_buf.find_tx_front(key) {
                Some(p) => {
                    if !self.flush_blocked(&p.record, mc) {
                        return now;
                    }
                }
                None => {
                    if !self.tx_has_buffered_undo(key) && !mc.log_append_blocked(record) {
                        return now;
                    }
                }
            }
        }
        // 6. Synchronous commit completion.
        for p in self.pending_commits.values() {
            if self.tx_has_buffered_entries(p.key) {
                continue;
            }
            let ready = if self.commit_cycle.contains_key(&p.key) {
                !(mc.fault_active() && mc.tx_has_undrained_records(p.key))
            } else {
                // Queues its commit record unless one is already pending.
                !self
                    .pending_records
                    .iter()
                    .any(|r| r.tag == TxTag::from(p.key))
            };
            if ready {
                return now;
            }
        }
        next
    }

    /// The [`StoreStall`] that [`on_store`](LogController::on_store) with
    /// these arguments would return while changing nothing, as it keeps
    /// doing until [`next_event`](LogController::next_event) or the memory
    /// controller's next event. `None` if the store could proceed or
    /// touch state, and whenever unsure.
    pub fn store_stall(
        &self,
        key: TxKey,
        addr: Addr,
        old: u64,
        new: u64,
        line: &CacheLine,
        mc: &MemoryController,
    ) -> Option<StoreStall> {
        if !self.overflow.is_empty() {
            return Some(StoreStall::Buffer);
        }
        let addr = addr.word_base();
        if !self.is_morlog() {
            if self.ur_buf.contains(key, addr) {
                return None;
            }
            return self.ur_front_stall(mc);
        }
        // A missing or foreign extension is (re)installed first.
        let ext = line.ext.as_ref().filter(|e| e.owner == key)?;
        let needs_entry = match ext.word_state[addr.word_index()] {
            WordLogState::Clean => {
                let silent = dirty_byte_mask(old, new) == 0 && self.has_dirty_flags();
                !silent && !self.redo_buf.contains(key, addr)
            }
            WordLogState::Dirty => !self.ur_buf.contains(key, addr),
            WordLogState::URLog | WordLogState::ULog => false,
        };
        if needs_entry {
            self.ur_front_stall(mc)
        } else {
            None
        }
    }

    /// Whether [`on_llc_writeback`](LogController::on_llc_writeback) for
    /// `line_index` would return `false` and change nothing, and keep
    /// doing so until the next controller or memory event. `false`
    /// whenever unsure.
    pub fn writeback_blocked(&self, line_index: u64, mc: &MemoryController) -> bool {
        if self.discards_redo_on_writeback(mc)
            && (self.redo_buf.has_line(line_index)
                || self
                    .overflow
                    .iter()
                    .any(|r| r.kind == RecordKind::Redo && home_line(r) == line_index))
        {
            return false;
        }
        if self.mutation == CheckMutation::DropUndoFence {
            return false;
        }
        if let Some(p) = self.ur_buf.find_line_front(line_index) {
            return self.flush_blocked(&p.record, mc);
        }
        self.overflow
            .iter()
            .find(|r| home_line(r) == line_index && r.kind == RecordKind::UndoRedo)
            .is_some_and(|r| self.flush_blocked(r, mc))
    }

    /// Log truncation (§III-F): drops ring records whose transactions
    /// committed at or before `horizon` (the force-write-back scheduler's
    /// safe commit horizon — their updated data have survived two scans).
    pub fn truncate(&mut self, horizon: Cycle, mc: &mut MemoryController) {
        let held = &self.pending_commits;
        Self::truncate_by(&self.commit_cycle, mc, |key, cc| {
            !Self::is_held(held, key) && cc.get(key).map(|&c| c <= horizon).unwrap_or(false)
        });
    }

    /// Log truncation driven by the §III-F transaction table: entries of
    /// committed transactions whose updated cache lines have all been
    /// persisted are deleted immediately, without waiting for the
    /// force-write-back horizon.
    pub fn truncate_with_table(&mut self, table: &TxTable, mc: &mut MemoryController) {
        let held = &self.pending_commits;
        Self::truncate_by(&self.commit_cycle, mc, |key, cc| {
            !Self::is_held(held, key) && cc.contains_key(key) && table.is_deletable((*key).into())
        });
    }

    /// Whether `key`'s commit record may have persisted while its
    /// program-visible completion is still pending (the fault-plan drain
    /// gate holds it). Such a transaction's log entries must survive
    /// truncation: a crash inside the hold window would otherwise find a
    /// transaction the program never saw commit fully durable with no log
    /// evidence left for recovery to classify it — an unrecoverable,
    /// checker-visible state. (Without an active fault plan, completion
    /// lands the same tick the record persists, before any truncation
    /// pass, so nothing is held.)
    fn is_held(pending_commits: &BTreeMap<ThreadId, PendingCommit>, key: &TxKey) -> bool {
        pending_commits
            .get(&key.thread)
            .is_some_and(|p| p.key == *key)
    }

    /// Shared truncation walk: deletes the ring prefix of records whose
    /// transactions satisfy `deletable`, subject to the no-split rule and
    /// the commit-order-prefix rule (see the `truncate` docs).
    fn truncate_by(
        commit_cycle: &IntHashMap<TxKey, Cycle>,
        mc: &mut MemoryController,
        deletable: impl Fn(&TxKey, &IntHashMap<TxKey, Cycle>) -> bool,
    ) {
        let rings = mc.log_rings();
        // Pass 1 per slice: naive committed-prefix walk, then the no-split
        // rule (recovery must see a transaction completely or not at all).
        let mut new_heads: Vec<u64> = Vec::with_capacity(rings.len());
        for ring in rings {
            let head = ring.head();
            let mut new_head = head;
            for slot in ring.entries() {
                if deletable(&slot.value.record.tag.into(), commit_cycle) {
                    new_head = slot.offset + ring.geometry().slot_bytes(slot.kind);
                } else {
                    break;
                }
            }
            if new_head > head {
                let split_keys: IntHashSet<_> = ring
                    .entries()
                    .filter(|r| r.offset >= new_head)
                    .map(|r| r.value.record.tag)
                    .collect();
                for slot in ring.entries() {
                    if slot.offset >= new_head {
                        break;
                    }
                    if split_keys.contains(&slot.value.record.tag) {
                        new_head = new_head.min(slot.offset);
                    }
                }
            }
            new_heads.push(new_head);
        }
        // Pass 2, global: never leave a commit-order hole. Under
        // delay-persistence, recovery may roll back a committed transaction
        // and everything that committed after it; a later-committed
        // transaction must therefore never be deleted while an
        // earlier-committed one still has ring records — across all slices.
        let mut removed: IntHashSet<TxTag> = IntHashSet::default();
        for (ring, &head) in rings.iter().zip(&new_heads) {
            for r in ring.entries().take_while(|r| r.offset < head) {
                removed.insert(r.value.record.tag);
            }
        }
        let mut c_lim = Cycle::MAX;
        for r in rings.iter().flat_map(|ring| ring.entries()) {
            let tag = r.value.record.tag;
            if !removed.contains(&tag) {
                if let Some(&c) = commit_cycle.get(&tag.into()) {
                    c_lim = c_lim.min(c);
                }
            }
        }
        for (slice, slice_head) in new_heads.into_iter().enumerate() {
            let ring = &mc.log_rings()[slice];
            let head = ring.head();
            let mut new_head = slice_head;
            for slot in ring.entries() {
                if slot.offset >= new_head {
                    break;
                }
                let c = commit_cycle
                    .get(&slot.value.record.tag.into())
                    .copied()
                    .unwrap_or(Cycle::MAX);
                if c > c_lim {
                    new_head = new_head.min(slot.offset);
                }
            }
            if new_head > head {
                mc.truncate_log_slice(slice, new_head);
            }
        }
    }

    /// Crash injection: the buffers and registers are volatile SRAM.
    /// In-flight commit-phase trackers die with them (their transactions
    /// never resolve); already-recorded latency histograms survive as
    /// host-side statistics.
    pub fn on_crash(&mut self) {
        self.ur_buf.clear();
        self.redo_buf.clear();
        self.overflow.clear();
        self.pending_commits.clear();
        self.pending_records.clear();
        self.commit_track.clear();
    }

    /// Whether any log state is still in flight (used by the engine to
    /// quiesce at the end of a run).
    pub fn is_quiescent(&self) -> bool {
        self.ur_buf.is_empty()
            && self.redo_buf.is_empty()
            && self.overflow.is_empty()
            && self.pending_commits.is_empty()
            && self.pending_records.is_empty()
    }

    /// Occupancy snapshot `(undo+redo, redo, overflow)` for tests and
    /// debugging.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.ur_buf.len(), self.redo_buf.len(), self.overflow.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_sim_core::{Frequency, LineAddr, LineData, MemConfig};

    fn mc() -> MemoryController {
        MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn data_line(mc: &MemoryController) -> CacheLine {
        let line_addr = mc.map().data_base().line();
        CacheLine::clean(line_addr, LineData::zeroed())
    }

    /// One tick, returning the undo+redo entries it persisted.
    pub(super) fn tick(
        lc: &mut LogController,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Vec<PersistedUr> {
        let mut persisted = Vec::new();
        lc.tick(now, mc, &mut persisted);
        persisted
    }

    /// Applies the engine's Dirty -> URLog transitions for persisted entries.
    fn apply_persisted(line: &mut CacheLine, persisted: &[PersistedUr]) {
        if let Some(ext) = line.ext.as_mut() {
            for p in persisted {
                if p.key == ext.owner && p.addr.line() == line.addr {
                    let w = p.addr.word_index();
                    if ext.word_state[w] == WordLogState::Dirty {
                        ext.word_state[w] = WordLogState::URLog;
                    }
                }
            }
        }
    }

    #[test]
    fn morlog_first_store_creates_undo_redo_and_dirty_state() {
        let mut lc = LogController::new(DesignKind::MorLogSlde, LogConfig::default());
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(0);
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        assert_eq!(lc.stats().undo_redo_created, 1);
        let ext = line.ext.unwrap();
        assert_eq!(ext.word_state[0], WordLogState::Dirty);
        assert_eq!(ext.dirty_flags[0], 0b1);
        assert_eq!(lc.occupancy(), (1, 0, 0));
    }

    #[test]
    fn morlog_coalesces_while_dirty() {
        let mut lc = LogController::new(DesignKind::MorLogSlde, LogConfig::default());
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(0);
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        lc.on_store(key, addr, 42, 7, &mut line, 1, &mut m).unwrap();
        assert_eq!(lc.stats().coalesced, 1);
        assert_eq!(lc.occupancy(), (1, 0, 0), "still one buffered entry");
        // The buffered entry carries the oldest undo and the newest redo.
        let p = lc.ur_buf.front().unwrap();
        assert_eq!(p.record.undo, Some(0));
        assert_eq!(p.record.redo, 7);
    }

    #[test]
    fn morlog_silent_store_stays_clean_and_logs_nothing() {
        let mut lc = LogController::new(DesignKind::MorLogSlde, LogConfig::default());
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(2);
        // Fig. 11 Write C1: the value is unchanged.
        lc.on_store(key, addr, 0, 0, &mut line, 0, &mut m).unwrap();
        assert_eq!(lc.stats().undo_redo_created, 0);
        assert_eq!(line.ext.unwrap().word_state[2], WordLogState::Clean);
    }

    #[test]
    fn fwb_logs_even_unchanged_values() {
        let mut lc = LogController::new(DesignKind::FwbCrade, LogConfig::default());
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        lc.on_store(key, line.addr.word_addr(0), 5, 5, &mut line, 0, &mut m)
            .unwrap();
        assert_eq!(
            lc.stats().undo_redo_created,
            1,
            "FWB does not compare values"
        );
        assert!(line.ext.is_none(), "FWB has no L1 extensions");
    }

    #[test]
    fn eager_eviction_after_n_cycles() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        lc.on_store(key, line.addr.word_addr(0), 0, 42, &mut line, 100, &mut m)
            .unwrap();
        assert!(tick(&mut lc, 100 + cfg.eager_evict_cycles - 1, &mut m).is_empty());
        let persisted = tick(&mut lc, 100 + cfg.eager_evict_cycles, &mut m);
        assert_eq!(persisted.len(), 1);
        assert_eq!(m.log_ring().entries().count(), 1);
        apply_persisted(&mut line, &persisted);
        assert_eq!(line.ext.unwrap().word_state[0], WordLogState::URLog);
    }

    #[test]
    fn urlog_store_moves_to_ulog_and_evict_creates_redo() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(0);
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        let persisted = tick(&mut lc, cfg.eager_evict_cycles, &mut m);
        apply_persisted(&mut line, &persisted);
        // Store again: URLog -> ULog, redo buffered in the line itself.
        lc.on_store(key, addr, 42, 99, &mut line, 40, &mut m)
            .unwrap();
        line.data.set_word(0, 99);
        assert_eq!(line.ext.unwrap().word_state[0], WordLogState::ULog);
        assert_eq!(lc.occupancy(), (0, 0, 0), "no new entry for the ULog store");
        // Eviction emits the redo entry with the newest value.
        lc.on_l1_evict(&line, 50);
        assert_eq!(lc.stats().redo_created, 1);
        let (_, redo_len, _) = lc.occupancy();
        assert_eq!(redo_len, 1);
        assert_eq!(lc.redo_buf.front().unwrap().record.redo, 99);
        assert_eq!(lc.redo_buf.front().unwrap().record.kind, RecordKind::Redo);
    }

    #[test]
    fn llc_writeback_discards_redo_and_forces_undo() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(0);
        // Build a ULog word, evict it so a redo entry is buffered.
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        let persisted = tick(&mut lc, cfg.eager_evict_cycles, &mut m);
        apply_persisted(&mut line, &persisted);
        lc.on_store(key, addr, 42, 99, &mut line, 40, &mut m)
            .unwrap();
        line.data.set_word(0, 99);
        lc.on_l1_evict(&line, 50);
        assert_eq!(lc.occupancy().1, 1);
        // Also leave an un-persisted undo+redo entry for another word.
        let mut line2 = line;
        line2.ext = None;
        let addr2 = line.addr.word_addr(1);
        lc.on_store(key, addr2, 0, 5, &mut line2, 51, &mut m)
            .unwrap();
        let written_before = m.log_ring().entries().count();
        assert!(lc.on_llc_writeback(line.addr.index(), 52, &mut m));
        assert_eq!(
            lc.stats().redo_discarded,
            1,
            "redo entry dropped: data persisted"
        );
        assert_eq!(lc.occupancy(), (0, 0, 0));
        // The undo+redo entry was forced out ahead of the data.
        assert_eq!(m.log_ring().entries().count(), written_before + 1);
    }

    #[test]
    fn sync_commit_drains_and_appends_record() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        lc.on_store(key, line.addr.word_addr(0), 0, 42, &mut line, 0, &mut m)
            .unwrap();
        line.data.set_word(0, 42);
        lc.start_commit(
            key,
            vec![UlogWord {
                addr: line.addr.word_addr(3),
                value: 7,
                dirty_mask: 0xFF,
            }],
            0,
            1,
        );
        assert!(lc.is_commit_pending(ThreadId::new(0)));
        let mut now = 1;
        while lc.is_commit_pending(ThreadId::new(0)) {
            m.tick(now);
            tick(&mut lc, now, &mut m);
            now += 1;
            assert!(now < 10_000, "commit must complete");
        }
        let kinds: Vec<RecordKind> = m.log_ring().entries().map(|r| r.kind).collect();
        assert!(kinds.contains(&RecordKind::UndoRedo));
        assert!(kinds.contains(&RecordKind::Redo));
        assert_eq!(*kinds.last().unwrap(), RecordKind::Commit);
        assert!(lc.stats().commit_records == 1);
    }

    #[test]
    fn dp_commit_is_instant_and_record_follows_undo() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogDp, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        lc.on_store(key, line.addr.word_addr(0), 0, 42, &mut line, 0, &mut m)
            .unwrap();
        lc.start_commit(key, Vec::new(), 3, 1);
        assert!(
            !lc.is_commit_pending(ThreadId::new(0)),
            "DP commit is instant"
        );
        // The pending commit record pulls the transaction's undo+redo entry
        // into the log ahead of itself (write-ahead completeness: a commit
        // record in the ring implies every undo+redo entry is too).
        tick(&mut lc, 1, &mut m);
        let records: Vec<_> = m.log_ring().entries().collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, RecordKind::UndoRedo);
        assert_eq!(records[1].kind, RecordKind::Commit);
        assert_eq!(records[1].value.record.ulog_count, Some(3));
    }

    #[test]
    fn slde_discards_silent_entries_crade_writes_them() {
        for (design, expect_silent) in [
            (DesignKind::MorLogSlde, 1u64),
            (DesignKind::MorLogCrade, 0u64),
        ] {
            let cfg = LogConfig::default();
            let mut lc = LogController::new(design, cfg);
            let mut m = mc();
            let mut line = data_line(&m);
            let key = lc.tx_begin(ThreadId::new(0), 0);
            let addr = line.addr.word_addr(0);
            // Write 42 then write 0 back: the coalesced entry is silent.
            lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
            line.data.set_word(0, 42);
            lc.on_store(key, addr, 42, 0, &mut line, 1, &mut m).unwrap();
            line.data.set_word(0, 0);
            tick(&mut lc, cfg.eager_evict_cycles + 1, &mut m);
            assert_eq!(lc.stats().silent_discarded, expect_silent, "{design}");
            let written = m.log_ring().entries().count();
            assert_eq!(written, if expect_silent == 1 { 0 } else { 1 }, "{design}");
        }
    }

    #[test]
    fn same_tx_rewrite_discards_stale_redo_entry() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line.addr.word_addr(0);
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        let persisted = tick(&mut lc, cfg.eager_evict_cycles, &mut m);
        apply_persisted(&mut line, &persisted);
        lc.on_store(key, addr, 42, 99, &mut line, 40, &mut m)
            .unwrap();
        line.data.set_word(0, 99);
        lc.on_l1_evict(&line, 50); // redo entry (99) buffered
                                   // Line refetched clean; the same tx writes the word again.
        let mut refetched = CacheLine::clean(line.addr, line.data);
        lc.on_store(key, addr, 99, 123, &mut refetched, 60, &mut m)
            .unwrap();
        assert_eq!(
            lc.stats().redo_discarded,
            1,
            "stale redo superseded by new entry"
        );
        assert_eq!(lc.occupancy().1, 0);
    }

    #[test]
    fn residue_of_previous_tx_flushes_on_new_tx_write() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogDp, cfg);
        let mut m = mc();
        let mut line = data_line(&m);
        let t = ThreadId::new(0);
        let key1 = lc.tx_begin(t, 0);
        let addr = line.addr.word_addr(0);
        lc.on_store(key1, addr, 0, 42, &mut line, 0, &mut m)
            .unwrap();
        line.data.set_word(0, 42);
        let persisted = tick(&mut lc, cfg.eager_evict_cycles, &mut m);
        apply_persisted(&mut line, &persisted);
        lc.on_store(key1, addr, 42, 99, &mut line, 40, &mut m)
            .unwrap();
        line.data.set_word(0, 99);
        lc.start_commit(key1, Vec::new(), 1, 41); // DP: word stays ULog
                                                  // New transaction writes another word of the same line.
        let key2 = lc.tx_begin(t, 0);
        lc.on_store(key2, line.addr.word_addr(1), 0, 5, &mut line, 50, &mut m)
            .unwrap();
        assert_eq!(
            lc.stats().redo_created,
            1,
            "key1's ULog word flushed as redo"
        );
        assert_eq!(lc.stats().post_commit_redo, 1);
        let ext = line.ext.unwrap();
        assert_eq!(ext.owner, key2);
        assert_eq!(ext.word_state[0], WordLogState::Clean);
        assert_eq!(ext.word_state[1], WordLogState::Dirty);
    }

    #[test]
    fn buffer_full_stalls_store_when_wq_full() {
        let memcfg = MemConfig {
            write_queue_entries: 1,
            ..Default::default()
        };
        let mut m = MemoryController::with_default_map(
            memcfg,
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        );
        let cfg = LogConfig {
            undo_redo_entries: 2,
            ..Default::default()
        };
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let base = m.map().data_base().line();
        // Each store to a new line; fill the buffer, then the WQ blocks.
        let mut stalled = false;
        for i in 0..16u64 {
            let line_addr = LineAddr::from_index(base.index() + i * 4); // same channel
            let mut line = CacheLine::clean(line_addr, LineData::zeroed());
            if lc
                .on_store(key, line_addr.word_addr(0), 0, i + 1, &mut line, 0, &mut m)
                .is_err()
            {
                stalled = true;
                break;
            }
        }
        assert!(
            stalled,
            "store must stall once buffer and write queue are full"
        );
    }

    #[test]
    fn truncation_drops_only_old_committed_records() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let t = ThreadId::new(0);
        let mut line = data_line(&m);
        // tx1 commits at ~cycle 100.
        let key1 = lc.tx_begin(t, 0);
        lc.on_store(key1, line.addr.word_addr(0), 0, 1, &mut line, 0, &mut m)
            .unwrap();
        line.data.set_word(0, 1);
        lc.start_commit(key1, Vec::new(), 0, 100);
        let mut now = 100;
        while lc.is_commit_pending(t) {
            m.tick(now);
            tick(&mut lc, now, &mut m);
            now += 1;
        }
        // tx2 starts but does not commit.
        let key2 = lc.tx_begin(t, 0);
        let line2_addr = LineAddr::from_index(line.addr.index() + 1);
        let mut line2 = CacheLine::clean(line2_addr, LineData::zeroed());
        lc.on_store(key2, line2_addr.word_addr(0), 0, 2, &mut line2, now, &mut m)
            .unwrap();
        tick(&mut lc, now + cfg.eager_evict_cycles, &mut m);
        let before = m.log_ring().entries().count();
        assert_eq!(before, 3); // tx1 entry + commit, tx2 entry
        lc.truncate(now + 1000, &mut m);
        let remaining: Vec<_> = m
            .log_ring()
            .entries()
            .map(|r| TxKey::from(r.value.record.tag))
            .collect();
        assert_eq!(
            remaining,
            vec![key2],
            "only the live transaction's entry remains"
        );
    }
}

#[cfg(test)]
mod silent_anchor_tests {
    use super::tests::tick;
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_sim_core::{Frequency, LineData, MemConfig};

    /// The silent-anchor scenario: a word's undo+redo entry coalesces back
    /// to its original value (silent), is discarded at flush, and the word
    /// is then modified again. The discard notification must send the word
    /// back to Clean so the next store creates a fresh undo anchor.
    #[test]
    fn silent_discard_restores_clean_and_later_write_gets_an_anchor() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        );
        let line_addr = m.map().data_base().line();
        let mut line = CacheLine::clean(line_addr, LineData::zeroed());
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line_addr.word_addr(0);
        // Write 42, then write 0 back: the entry becomes silent.
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        lc.on_store(key, addr, 42, 0, &mut line, 1, &mut m).unwrap();
        line.data.set_word(0, 0);
        let persisted = tick(&mut lc, cfg.eager_evict_cycles + 1, &mut m);
        assert_eq!(persisted.len(), 1);
        assert!(
            persisted[0].silent,
            "coalesced-to-silent entry is discarded"
        );
        assert_eq!(m.log_ring().entries().count(), 0, "nothing written");
        // The engine sends the word back to Clean on a silent notification;
        // a later write must create a fresh undo+redo entry (not a redo).
        line.ext.as_mut().unwrap().word_state[0] = WordLogState::Clean;
        line.ext.as_mut().unwrap().dirty_flags[0] = 0;
        lc.on_store(key, addr, 0, 7, &mut line, 50, &mut m).unwrap();
        assert_eq!(lc.stats().undo_redo_created, 2);
        let p = lc.ur_buf.front().unwrap();
        assert_eq!(p.record.undo, Some(0), "the rollback anchor exists");
        assert_eq!(p.record.redo, 7);
    }

    /// A store that finds its word Dirty but its entry already flushed
    /// (forced out) must create a fresh entry whose undo chains correctly.
    #[test]
    fn forced_flush_then_store_creates_chained_entry() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        );
        let line_addr = m.map().data_base().line();
        let mut line = CacheLine::clean(line_addr, LineData::zeroed());
        let key = lc.tx_begin(ThreadId::new(0), 0);
        let addr = line_addr.word_addr(0);
        lc.on_store(key, addr, 0, 42, &mut line, 0, &mut m).unwrap();
        line.data.set_word(0, 42);
        // Force the entry out via the write-ahead path (LLC writeback).
        assert!(lc.on_llc_writeback(line_addr.index(), 1, &mut m));
        assert_eq!(m.log_ring().entries().count(), 1);
        // Word still marked Dirty (no notification went to the engine);
        // the next store opens a new entry with undo = 42.
        lc.on_store(key, addr, 42, 99, &mut line, 2, &mut m)
            .unwrap();
        assert_eq!(lc.stats().undo_redo_created, 2);
        let p = lc.ur_buf.front().unwrap();
        assert_eq!(p.record.undo, Some(42));
        assert_eq!(p.record.redo, 99);
    }
}
