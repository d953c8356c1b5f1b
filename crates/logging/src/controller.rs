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
//! # Per-cycle cost
//!
//! `tick` and `next_event` run on every stepped cycle and ask, for each
//! pending commit, whether its transaction still has entries buffered,
//! undo+redo records in the overflow queue, or a commit record queued.
//! None of these questions scans: the four record FIFOs keep
//! per-transaction counts (see [`crate::buffer`]), the pending commits sit
//! in one slot per thread, and each pending commit remembers whether its
//! commit record has persisted. An append blocked on a full write queue
//! fails before any side effect (see
//! [`MemoryController::log_append_blocked`]), so a blocked flush changes
//! nothing and is simply tried again on a later tick.
//!
//! Every buffered record that leaves for the log ring leaves through one
//! helper, `flush_while`, which also holds the one rule for which flushes
//! report their undo+redo records as [`PersistedUr`].
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

use morlog_cache::line::{CacheLine, L1Ext, WordLogState};
use morlog_encoding::secure::SecureMode;
use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_nvm::controller::{LogAppendError, MemoryController};
use morlog_sim_core::hash::{IntHashMap, IntHashSet};
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::metrics::CommitLatency;
use morlog_sim_core::stats::LogStats;
use morlog_sim_core::trace::{CommitPhaseTag, TraceEvent, Tracer, WordStateTag};
use morlog_sim_core::types::dirty_byte_mask;
use morlog_sim_core::{Addr, CheckMutation, Cycle, DesignKind, LogConfig, ThreadId};

use crate::buffer::{home_line, Pending, RecordFifo};

/// Whether `record` is an undo+redo record whose word lies in cache line
/// `line_index` (write-ahead: it must persist before the line does).
fn is_line_undo(record: &Record, line_index: u64) -> bool {
    record.kind == RecordKind::UndoRedo && home_line(record) == line_index
}

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
    pub key: TxTag,
    /// The logged word's home address.
    pub addr: Addr,
    /// The entry was discarded (all-clean log data) rather than written.
    pub silent: bool,
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
    key: TxTag,
    started: Cycle,
    /// Whether `commit_cycle` holds `key`: its commit record persisted
    /// (or, after a TxID wrap, an earlier one under the same key did).
    /// Kept here so the per-tick checks need no map lookup.
    recorded: bool,
}

/// The synchronous commits in flight, at most one per thread, in a slot
/// per thread: lookups need no search, and iteration runs in thread order.
#[derive(Debug, Default)]
struct PendingCommits {
    by_thread: Vec<Option<PendingCommit>>,
}

impl PendingCommits {
    fn get(&self, thread: u8) -> Option<&PendingCommit> {
        self.by_thread.get(thread as usize)?.as_ref()
    }

    /// Whether `key` is its thread's commit in flight.
    fn holds(&self, key: TxTag) -> bool {
        self.get(key.thread).is_some_and(|p| p.key == key)
    }

    fn get_mut(&mut self, thread: u8) -> Option<&mut PendingCommit> {
        self.by_thread.get_mut(thread as usize)?.as_mut()
    }

    /// Records `p` as its thread's commit in flight.
    fn insert(&mut self, p: PendingCommit) {
        let t = p.key.thread as usize;
        if t >= self.by_thread.len() {
            self.by_thread.resize(t + 1, None);
        }
        self.by_thread[t] = Some(p);
    }

    fn remove(&mut self, thread: u8) {
        if let Some(slot) = self.by_thread.get_mut(thread as usize) {
            *slot = None;
        }
    }

    /// One past the highest thread slot ever used: the slots
    /// `0..slots()`, in thread order, hold every commit in flight.
    fn slots(&self) -> usize {
        self.by_thread.len()
    }

    /// The commit in flight in thread slot `slot`, if any.
    fn at(&self, slot: usize) -> Option<PendingCommit> {
        self.by_thread[slot]
    }

    /// The commits in flight, in thread order.
    fn values(&self) -> impl Iterator<Item = &PendingCommit> + '_ {
        self.by_thread.iter().flatten()
    }

    fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }

    fn clear(&mut self) {
        self.by_thread.fill(None);
    }
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

/// The FIFOs a record can leave for the log ring through
/// [`LogController::flush_while`].
#[derive(Debug, Clone, Copy)]
enum Fifo {
    UndoRedo,
    Redo,
    Overflow,
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
/// assert_eq!(key.thread, 0);
/// ```
#[derive(Debug)]
pub struct LogController {
    design: DesignKind,
    cfg: LogConfig,
    ur_buf: RecordFifo,
    redo_buf: RecordFifo,
    /// Records forced out of the buffers by events that cannot stall
    /// (evictions, commits); drained ahead of everything else. While
    /// non-empty, new stores stall — this is the hardware backpressure.
    overflow: RecordFifo,
    next_txid: IntHashMap<ThreadId, u16>,
    pending_commits: PendingCommits,
    /// Commit records awaiting a free write-queue slot (and, for gating,
    /// their transaction's undo+redo entries draining first).
    pending_records: RecordFifo,
    /// Commit cycle of every transaction whose commit record persisted
    /// (drives log truncation).
    commit_cycle: IntHashMap<TxTag, Cycle>,
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
    commit_track: IntHashMap<TxTag, CommitTrack>,
    /// Commit-latency distributions (always collected).
    latency: CommitLatency,
    /// Observability sink (disabled by default; see [`set_tracer`]).
    ///
    /// [`set_tracer`]: LogController::set_tracer
    tracer: Tracer,
    /// Deliberate sabotage selector for the checker's mutation self-test
    /// (see [`CheckMutation`]); `None` in every real configuration.
    mutation: CheckMutation,
}

impl LogController {
    /// Builds the controller for one of the six evaluated designs.
    pub fn new(design: DesignKind, cfg: LogConfig) -> Self {
        LogController {
            design,
            ur_buf: RecordFifo::new(cfg.undo_redo_entries),
            redo_buf: RecordFifo::new(cfg.redo_entries),
            overflow: RecordFifo::unbounded(),
            next_txid: IntHashMap::default(),
            pending_commits: PendingCommits::default(),
            pending_records: RecordFifo::unbounded(),
            commit_cycle: IntHashMap::default(),
            stats: LogStats::default(),
            redo_lazy_age: 4096,
            secure: SecureMode::None,
            next_commit_ts: 0,
            commit_track: IntHashMap::default(),
            latency: CommitLatency::default(),
            tracer: Tracer::disabled(),
            mutation: CheckMutation::None,
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
    pub fn tx_begin(&mut self, thread: ThreadId, now: Cycle) -> TxTag {
        let txid = self.next_txid.entry(thread).or_insert(0);
        let key = TxTag::new(thread.as_u8(), *txid);
        *txid = txid.wrapping_add(1);
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
    fn track_phase(&mut self, key: TxTag, phase: CommitPhaseTag, now: Cycle) {
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
        key: TxTag,
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
                self.log_undo_redo(key, addr, old, new, now, mc)?;
                let ext = line.ext.as_mut().expect("ext installed above");
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
                if let Some(mask) = self.coalesce(key, addr, new) {
                    let ext = line.ext.as_mut().expect("ext installed above");
                    ext.dirty_flags[w] = mask;
                } else {
                    // The entry left the buffer before its persist
                    // notification arrived (forced flush or same-cycle
                    // eviction). Conservatively start over with a fresh
                    // undo+redo entry: its undo (the current value) chains
                    // correctly behind whatever the flushed entry logged —
                    // and if that entry was discarded as silent, this one
                    // provides the rollback anchor the word needs.
                    self.log_undo_redo(key, addr, old, new, now, mc)?;
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
        key: TxTag,
        addr: Addr,
        old: u64,
        new: u64,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<(), StoreStall> {
        // FWB: every store creates (or coalesces into) an undo+redo entry in
        // the single log buffer; no value comparison is performed.
        if self.coalesce(key, addr, new).is_none() {
            self.log_undo_redo(key, addr, old, new, now, mc)?;
        }
        Ok(())
    }

    /// Coalesces a store of `new` into `key`'s buffered undo+redo entry for
    /// `addr`: the entry keeps its undo and takes the newest redo. Returns
    /// the entry's new dirty mask, or `None` if no entry is buffered.
    fn coalesce(&mut self, key: TxTag, addr: Addr, new: u64) -> Option<u8> {
        let p = self.ur_buf.find_mut(key, addr)?;
        p.record.redo = new;
        p.record.dirty_mask = dirty_byte_mask(p.record.undo.expect("undo+redo entry"), new);
        self.stats.coalesced += 1;
        Some(p.record.dirty_mask)
    }

    /// Buffers a new undo+redo entry for a store of `new` over `old`,
    /// first flushing the buffer's head if the buffer is full.
    fn log_undo_redo(
        &mut self,
        key: TxTag,
        addr: Addr,
        old: u64,
        new: u64,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<(), StoreStall> {
        self.flush_while(now, mc, None, |lc| {
            lc.ur_buf.is_full().then_some((Fifo::UndoRedo, 0))
        })?;
        let record = Record::undo_redo(key, addr.as_u64(), old, new, dirty_byte_mask(old, new));
        self.ur_buf.push(record, now);
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
                        ext.owner,
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
        let key = record.tag;
        if self.commit_cycle.contains_key(&key)
            || self.pending_commits.holds(key)
            || self.pending_records.has_tx(key)
        {
            self.stats.post_commit_redo += 1;
        }
        if self.redo_buf.try_push(record, now).is_err() {
            self.overflow.push(record, now);
        }
    }

    /// Queues a redo record, making room by writing the oldest redo entry
    /// out if needed; falls back to the overflow queue (which stalls
    /// stores) only when the write queue is also full.
    fn queue_redo_with_evict(&mut self, record: Record, now: Cycle, mc: &mut MemoryController) {
        // Blocked or nothing to evict: the record overflows instead.
        let _ = self.flush_while(now, mc, None, |lc| {
            lc.redo_buf.is_full().then_some((Fifo::Redo, 0))
        });
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
                            ext.owner,
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
                        self.overflow.push(p.record, now);
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
            let keep = |r: &Record| r.kind != RecordKind::Redo || home_line(r) != line_index;
            let n = self.redo_buf.retain(keep) + self.overflow.retain(keep);
            self.stats.redo_discarded += n as u64;
        }
        // Sabotage for the mutation self-test: let the data line go durable
        // without first persisting its buffered undo entries. A crash in
        // the window between this write-back and the entries' eventual
        // eager eviction leaves in-place data with no undo to roll back.
        if self.mutation == CheckMutation::DropUndoFence {
            return true;
        }
        // Write-ahead: undo entries for this line must persist before it.
        let line_undo = |fifo: &RecordFifo| fifo.position(|p| is_line_undo(&p.record, line_index));
        self.flush_while(now, mc, None, |lc| {
            (line_undo(&lc.ur_buf).map(|pos| (Fifo::UndoRedo, pos)))
                .or_else(|| line_undo(&lc.overflow).map(|pos| (Fifo::Overflow, pos)))
        })
        .is_ok()
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
        key: TxTag,
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
            self.pending_records.push(
                Record::commit(key, Some(ulog_count)).with_timestamp(self.next_commit_ts),
                now,
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
                    key,
                    wordinfo.addr.word_base().as_u64(),
                    wordinfo.value,
                    wordinfo.dirty_mask,
                ),
                now,
            );
        }
        self.pending_commits.insert(PendingCommit {
            key,
            started: now,
            recorded: self.commit_cycle.contains_key(&key),
        });
    }

    /// Whether `thread`'s synchronous commit is still draining log data.
    pub fn is_commit_pending(&self, thread: ThreadId) -> bool {
        self.pending_commits.get(thread.as_u8()).is_some()
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
        let _ = self.flush_while(now, mc, Some(&mut *persisted), |lc| {
            lc.overflow.front().map(|_| (Fifo::Overflow, 0))
        });
        // 2. Eager undo+redo aging (§III-B: entries leave after N cycles,
        // N below the minimum cache-traversal latency).
        let _ = self.flush_while(now, mc, Some(&mut *persisted), |lc| {
            let front = lc.ur_buf.front()?;
            (now >= front.created + lc.cfg.eager_evict_cycles).then_some((Fifo::UndoRedo, 0))
        });
        // 3. Synchronous commits pull their transaction's entries out.
        for slot in 0..self.pending_commits.slots() {
            let Some(PendingCommit { key, .. }) = self.pending_commits.at(slot) else {
                continue;
            };
            let _ = self.flush_while(now, mc, Some(&mut *persisted), |lc| {
                lc.buffered_tx_front(key)
            });
        }
        // 4. Lazy redo eviction: only under pressure or old age (§III-B).
        let _ = self.flush_while(now, mc, Some(&mut *persisted), |lc| {
            let front = lc.redo_buf.front()?;
            let old = now >= front.created + lc.redo_lazy_age;
            (lc.redo_under_pressure() || old).then_some((Fifo::Redo, 0))
        });
        // 5. Commit records append once their transaction's undo+redo
        // entries are in the log (write-ahead completeness for recovery).
        // The head record's entries are pulled out actively rather than
        // waiting for the aging timer.
        while let Some(record) = self.pending_records.front().map(|p| p.record) {
            let key = record.tag;
            let _ = self.flush_while(now, mc, Some(&mut *persisted), |lc| {
                lc.ur_buf
                    .find_tx_front(key)
                    .map(|pos| (Fifo::UndoRedo, pos))
            });
            if self.tx_has_buffered_undo(key) {
                break;
            }
            // A blocked append fails with `WqFull` before any side effect.
            match mc.try_append_log(record, now) {
                Ok(_) => {
                    self.pending_records.remove_at(0);
                    self.stats.commit_records += 1;
                    self.commit_cycle.insert(key, now);
                    if let Some(p) = self.pending_commits.get_mut(key.thread) {
                        p.recorded |= p.key == key;
                    }
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
        for slot in 0..self.pending_commits.slots() {
            let Some(p) = self.pending_commits.at(slot) else {
                continue;
            };
            if self.tx_has_buffered_entries(p.key) {
                continue;
            }
            if !p.recorded && !self.pending_records.has_tx(p.key) {
                self.next_commit_ts += 1;
                let record = Record::commit(p.key, None).with_timestamp(self.next_commit_ts);
                self.pending_records.push(record, now);
                continue; // record appends on a later tick pass
            }
            if p.recorded {
                // Under an active fault plan, hold completion until every
                // record of the transaction has fully drained: the program
                // must not observe a commit whose log entries a crash could
                // still tear in the write queue.
                if mc.fault_active() && mc.tx_has_undrained_records(p.key) {
                    continue;
                }
                self.stats.commit_stall_cycles += now.saturating_sub(p.started);
                self.pending_commits.remove(p.key.thread);
                self.tracer.emit(now, || TraceEvent::CommitPhase {
                    key: p.key,
                    phase: CommitPhaseTag::Complete,
                });
                self.track_phase(p.key, CommitPhaseTag::Complete, now);
            }
        }
    }

    /// Whether any of `key`'s entries is still buffered or queued for the
    /// overflow drain.
    fn tx_has_buffered_entries(&self, key: TxTag) -> bool {
        self.ur_buf.has_tx(key) || self.redo_buf.has_tx(key) || self.overflow.has_tx(key)
    }

    /// Whether the redo buffer is at least three quarters full, which
    /// evicts its head regardless of age (§III-B).
    fn redo_under_pressure(&self) -> bool {
        self.redo_buf.capacity() > 0 && self.redo_buf.len() * 4 >= self.redo_buf.capacity() * 3
    }

    /// Whether any of `key`'s undo+redo entries is still buffered or
    /// queued for the overflow drain.
    fn tx_has_buffered_undo(&self, key: TxTag) -> bool {
        self.ur_buf.has_tx(key) || self.overflow.has_undo(key)
    }

    /// The buffered entry of `key` that leaves first: its oldest undo+redo
    /// entry, else its oldest redo entry.
    fn buffered_tx_front(&self, key: TxTag) -> Option<(Fifo, usize)> {
        let ur = self
            .ur_buf
            .find_tx_front(key)
            .map(|pos| (Fifo::UndoRedo, pos));
        ur.or_else(|| {
            self.redo_buf
                .find_tx_front(key)
                .map(|pos| (Fifo::Redo, pos))
        })
    }

    /// The FIFO `fifo` names.
    fn fifo(&self, fifo: Fifo) -> &RecordFifo {
        match fifo {
            Fifo::UndoRedo => &self.ur_buf,
            Fifo::Redo => &self.redo_buf,
            Fifo::Overflow => &self.overflow,
        }
    }

    /// Moves records to the log ring — or discards them as silent log
    /// writes — one at a time from the FIFO position `next` picks, until
    /// it picks none or an append is blocked. Every record that leaves a
    /// FIFO for the ring leaves here, except commit records, which `tick`
    /// appends itself.
    ///
    /// The one [`PersistedUr`] rule: an undo+redo record that leaves is
    /// reported in `persisted` when the caller passes one. `tick` does;
    /// the forced flushes of a store finding the undo+redo buffer full
    /// and of [`on_llc_writeback`](LogController::on_llc_writeback)'s
    /// write-ahead pass `None`, so their words stay `Dirty` in L1 and a
    /// later store of the same transaction logs a fresh undo+redo entry.
    ///
    /// # Errors
    ///
    /// The [`StoreStall`] a dependent store would be charged when an
    /// append is blocked (that record stays where it is), or
    /// [`StoreStall::Buffer`] when `next` picks a position holding no
    /// record (the head of an empty, zero-capacity buffer).
    fn flush_while(
        &mut self,
        now: Cycle,
        mc: &mut MemoryController,
        mut persisted: Option<&mut Vec<PersistedUr>>,
        next: impl Fn(&Self) -> Option<(Fifo, usize)>,
    ) -> Result<(), StoreStall> {
        while let Some((fifo, pos)) = next(self) {
            let record = self.fifo(fifo).get(pos).ok_or(StoreStall::Buffer)?.record;
            let silent = self.is_silent(&record);
            if silent {
                self.stats.silent_discarded += 1;
            } else {
                // A blocked append (see `MemoryController::log_append_blocked`)
                // fails with `WqFull` before any side effect.
                match mc.try_append_log(record, now) {
                    Ok(_) => self.stats.entries_written += 1,
                    Err(LogAppendError::WqFull) => return Err(StoreStall::WriteQueue),
                    Err(LogAppendError::RingFull) => {
                        self.stats.log_region_full_stalls += 1;
                        return Err(StoreStall::Buffer);
                    }
                }
            }
            match fifo {
                Fifo::UndoRedo => self.ur_buf.remove_at(pos),
                Fifo::Redo => self.redo_buf.remove_at(pos),
                Fifo::Overflow => self.overflow.remove_at(pos),
            };
            if let Some(persisted) = persisted
                .as_deref_mut()
                .filter(|_| record.kind == RecordKind::UndoRedo)
            {
                persisted.push(PersistedUr {
                    key: record.tag,
                    addr: record.addr.into(),
                    silent,
                });
            }
        }
        Ok(())
    }

    /// Silent log writes: with dirty-flag hardware, completely clean log
    /// data are discarded instead of written (§IV-A).
    fn is_silent(&self, record: &Record) -> bool {
        self.has_dirty_flags() && record.kind != RecordKind::Commit && record.dirty_mask == 0
    }

    /// Whether [`flush_while`](Self::flush_while) of `record` would be blocked with no
    /// side effect (see [`MemoryController::log_append_blocked`]).
    fn flush_blocked(&self, record: &Record, mc: &MemoryController) -> bool {
        !self.is_silent(record) && mc.log_append_blocked(record)
    }

    /// The stall [`log_undo_redo`](Self::log_undo_redo) would return
    /// without touching anything: the undo+redo buffer is full and its
    /// head cannot leave it. `None` if it would make room.
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
            .is_some_and(|p| !self.flush_blocked(&p.record, mc))
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
            if let Some((fifo, pos)) = self.buffered_tx_front(p.key) {
                if !self.flush_blocked(&self.fifo(fifo)[pos].record, mc) {
                    return now;
                }
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
        if let Some(Pending { record, .. }) = self.pending_records.front() {
            let key = record.tag;
            match self.ur_buf.find_tx_front(key) {
                Some(pos) => {
                    if !self.flush_blocked(&self.ur_buf[pos].record, mc) {
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
            let ready = if p.recorded {
                !(mc.fault_active() && mc.tx_has_undrained_records(p.key))
            } else {
                // Queues its commit record unless one is already pending.
                !self.pending_records.has_tx(p.key)
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
        key: TxTag,
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

    /// A counter that moves whenever anything
    /// [`store_stall`](LogController::store_stall) reads of this
    /// controller may have changed: the undo+redo and redo buffers and the
    /// overflow queue. While it and the memory controller's
    /// [`state_version`](MemoryController::state_version) stay put, so
    /// does every `store_stall` answer over an unchanged line.
    pub fn state_version(&self) -> u64 {
        self.ur_buf.changes() + self.redo_buf.changes() + self.overflow.changes()
    }

    /// Whether [`on_llc_writeback`](LogController::on_llc_writeback) for
    /// `line_index` would return `false` and change nothing, and keep
    /// doing so until the next controller or memory event. `false`
    /// whenever unsure.
    pub fn writeback_blocked(&self, line_index: u64, mc: &MemoryController) -> bool {
        let line_redo =
            |p: &Pending| p.record.kind == RecordKind::Redo && home_line(&p.record) == line_index;
        if self.discards_redo_on_writeback(mc)
            && self
                .redo_buf
                .iter()
                .chain(self.overflow.iter())
                .any(line_redo)
        {
            return false;
        }
        if self.mutation == CheckMutation::DropUndoFence {
            return false;
        }
        (self.ur_buf.iter().chain(self.overflow.iter()))
            .find(|p| is_line_undo(&p.record, line_index))
            .is_some_and(|p| self.flush_blocked(&p.record, mc))
    }

    /// Log truncation (§III-F): deletes the ring prefix of records whose
    /// transactions `deletable(tag, commit_cycle)` accepts. The caller's
    /// policy decides: the force-write-back scheduler's safe commit
    /// horizon (their updated data have survived two scans) or the
    /// transaction table (all their updated lines have persisted).
    ///
    /// Only transactions whose commit record persisted are offered, and
    /// not one whose program-visible completion is still pending (the
    /// fault-plan drain gate holds it): a crash inside the hold window
    /// would otherwise find a transaction the program never saw commit
    /// fully durable with no log evidence left for recovery to classify
    /// it — an unrecoverable, checker-visible state. (Without an active
    /// fault plan, completion lands the same tick the record persists,
    /// before any truncation pass, so nothing is held.) The deleted
    /// prefix then shrinks so that no transaction is split and no
    /// commit-order hole opens.
    pub fn truncate(
        &mut self,
        deletable: impl Fn(TxTag, Cycle) -> bool,
        mc: &mut MemoryController,
    ) {
        let (commit_cycle, held) = (&self.commit_cycle, &self.pending_commits);
        let deletable = |tag: &TxTag| {
            !held.holds(*tag) && commit_cycle.get(tag).is_some_and(|&c| deletable(*tag, c))
        };
        let rings = mc.log_rings();
        // Pass 1 per slice: naive committed-prefix walk, then the no-split
        // rule (recovery must see a transaction completely or not at all).
        let mut new_heads: Vec<u64> = Vec::with_capacity(rings.len());
        for ring in rings {
            let head = ring.head();
            let mut new_head = head;
            for slot in ring.entries() {
                if deletable(&slot.value.record.tag) {
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
                if let Some(&c) = commit_cycle.get(&tag) {
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
                    .get(&slot.value.record.tag)
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

    /// TxIDs are 16-bit per-thread counters (Fig. 7): the 65,537th begin
    /// on one thread reuses txid 0, and other threads count on their own.
    #[test]
    fn txid_wraps_at_sixteen_bits_per_thread() {
        let mut lc = LogController::new(DesignKind::MorLogSlde, LogConfig::default());
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        assert_eq!(lc.tx_begin(t1, 0), TxTag::new(1, 0));
        for txid in 0..=u16::MAX {
            assert_eq!(lc.tx_begin(t0, 0), TxTag::new(0, txid));
        }
        assert_eq!(lc.tx_begin(t0, 0), TxTag::new(0, 0));
        assert_eq!(lc.tx_begin(t1, 0), TxTag::new(1, 1));
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
        lc.truncate(|_, committed| committed <= now + 1000, &mut m);
        let remaining: Vec<_> = m.log_ring().entries().map(|r| r.value.record.tag).collect();
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
