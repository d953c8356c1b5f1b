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
//! * [`tick`] — buffer aging: eager undo+redo eviction, lazy redo
//!   eviction, commit-record appends, overflow drain.
//!
//! # One rule set, and a wake
//!
//! The rules live in `tick` alone. Each step leaves in a stored wake why
//! it stopped: an age deadline, or an append refused while the write
//! queue was full or the controller was frozen at a crash point.
//! [`next_event`] reads the wake: `now` once an event has moved
//! [`state_version`], or the memory controller's `state_version` has
//! moved and one [`MemoryController::log_append_blocked`] check finds a
//! refused append free; else the next deadline. The engine skips `tick`
//! before then. A stalled store asks [`store_stall`] whether its retry
//! would just stall again.
//!
//! # Per-cycle cost
//!
//! A `tick` asks, for each pending commit, whether its transaction still
//! has records in a FIFO; none of these questions scans (see
//! [`crate::buffer`]). A refused append changes nothing, and while its
//! refusal stands, an append of the same log slice and record kind is
//! refused again without asking the memory controller.
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
//! [`state_version`]: LogController::state_version

use morlog_cache::line::{CacheLine, L1Ext, WordLogState};
use morlog_encoding::secure::SecureMode;
use morlog_log::protocol::plan_truncation;
use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_nvm::controller::{LogAppendError, MemoryController};
use morlog_sim_core::hash::IntHashMap;
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::metrics::CommitLatency;
use morlog_sim_core::stats::LogStats;
use morlog_sim_core::trace::{CommitPhaseTag, TraceEvent, Tracer, WordStateTag};
use morlog_sim_core::types::dirty_byte_mask;
use morlog_sim_core::{Addr, CheckMutation, Cycle, DesignKind, LogConfig, ThreadId};

use crate::buffer::{home_line, RecordFifo};

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
    /// Indexed by thread; `tick` walks the slots in thread order.
    by_thread: Vec<Option<PendingCommit>>,
    /// Moves on every insert, removal and clear, like
    /// [`RecordFifo::changes`].
    changes: u64,
}

impl PendingCommits {
    fn get(&self, thread: u8) -> Option<&PendingCommit> {
        self.by_thread.get(thread as usize)?.as_ref()
    }

    /// Whether `key` is its thread's commit in flight.
    fn holds(&self, key: TxTag) -> bool {
        self.get(key.thread).is_some_and(|p| p.key == key)
    }

    /// Records `p` as its thread's commit in flight.
    fn insert(&mut self, p: PendingCommit) {
        let t = p.key.thread as usize;
        if t >= self.by_thread.len() {
            self.by_thread.resize(t + 1, None);
        }
        self.by_thread[t] = Some(p);
        self.changes += 1;
    }

    fn remove(&mut self, thread: u8) {
        self.by_thread[thread as usize] = None;
        self.changes += 1;
    }

    fn is_empty(&self) -> bool {
        self.by_thread.iter().all(Option::is_none)
    }

    fn clear(&mut self) {
        self.by_thread.fill(None);
        self.changes += 1;
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

/// An append refused while its write queue was full or the memory
/// controller was frozen at a crash point. Refusal depends only on the
/// record's log slice and kind, so it speaks for every such record.
#[derive(Debug, Clone, Copy)]
struct Refusal {
    record: Record,
    /// The memory controller's `state_version` under which the append is
    /// known refused; `None` until checked.
    version: Option<u64>,
    /// Met again since the current or last `tick` began.
    renewed: bool,
}

impl Refusal {
    /// Whether the refusal stands. When the memory controller's version
    /// has moved, one [`MemoryController::log_append_blocked`] check
    /// decides, and a refusal that stands is restamped.
    fn stands(&mut self, mc: &MemoryController) -> bool {
        let version = Some(mc.state_version());
        if self.version != version && !mc.log_append_blocked(&self.record) {
            return false;
        }
        self.version = version;
        true
    }
}

/// When `tick` can next act, as the last `tick` left it (see
/// [`LogController::next_event`]).
#[derive(Debug, Default)]
struct Wake {
    /// The next age deadline, or the next cycle after a `RingFull`
    /// refusal or while the fault-plan drain gate holds a commit;
    /// `Cycle::MAX` when none.
    at: Cycle,
    /// The controller's [`LogController::state_version`] when `tick` left.
    version: u64,
    /// The appends `tick` waits on.
    refused: Vec<Refusal>,
}

impl Wake {
    /// The refusal that speaks for appending `record`, if any.
    fn refusal(&mut self, record: &Record, mc: &MemoryController) -> Option<&mut Refusal> {
        let slice = mc.log_slice_of(record.tag.thread);
        (self.refused.iter_mut())
            .find(|r| r.record.kind == record.kind && mc.log_slice_of(r.record.tag.thread) == slice)
    }

    /// Notes that appending `record` is refused under memory version
    /// `version`, or with `None`, that it is the next append to try.
    fn refuse(&mut self, record: Record, version: Option<u64>, mc: &MemoryController) {
        let refusal = Refusal {
            record,
            version,
            renewed: true,
        };
        match self.refusal(&record, mc) {
            Some(r) => *r = refusal,
            None => self.refused.push(refusal),
        }
    }
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
    /// When `tick` can next act (see [`next_event`]).
    ///
    /// [`next_event`]: LogController::next_event
    wake: Wake,
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
            wake: Wake::default(),
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
            // FWB: every store creates (or coalesces into) an undo+redo
            // entry in the single log buffer; no value comparison is made.
            if self.coalesce(key, addr, new).is_none() {
                self.log_undo_redo(key, addr, old, new, now, mc)?;
            }
            return Ok(());
        }
        // Residue of a previous transaction on this line: flush it first
        // (the line's single TID/TxID tag pair can describe one transaction).
        if let Some(ext) = line.ext.filter(|e| e.owner != key) {
            self.flush_residue(&ext, line, now, mc);
            line.ext = None;
        }
        let ext = line.ext.get_or_insert_with(|| L1Ext::new(key));
        let w = addr.word_index();
        let delta = dirty_byte_mask(old, new);
        let from = match ext.word_state[w] {
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
                Some(WordStateTag::Clean)
            }
            WordLogState::Dirty => {
                if let Some(mask) = self.coalesce(key, addr, new) {
                    ext.dirty_flags[w] = mask;
                    return Ok(());
                }
                // The entry left the buffer before its persist notification
                // arrived (forced flush or same-cycle eviction).
                // Conservatively start over with a fresh undo+redo entry:
                // its undo (the current value) chains correctly behind
                // whatever the flushed entry logged — and if that entry was
                // discarded as silent, this one provides the rollback anchor
                // the word needs.
                None
            }
            WordLogState::URLog => {
                if delta != 0 || !self.has_dirty_flags() {
                    ext.word_state[w] = WordLogState::ULog;
                    ext.dirty_flags[w] = delta;
                    self.tracer.emit(now, || TraceEvent::WordTransition {
                        key,
                        addr: addr.as_u64(),
                        from: WordStateTag::URLog,
                        to: WordStateTag::ULog,
                    });
                }
                return Ok(());
            }
            WordLogState::ULog => {
                ext.dirty_flags[w] |= delta;
                return Ok(());
            }
        };
        self.log_undo_redo(key, addr, old, new, now, mc)?;
        let ext = line.ext.as_mut().expect("ext installed above");
        ext.word_state[w] = WordLogState::Dirty;
        ext.dirty_flags[w] = delta;
        if let Some(from) = from {
            self.tracer.emit(now, || TraceEvent::WordTransition {
                key,
                addr: addr.as_u64(),
                from,
                to: WordStateTag::Dirty,
            });
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
                // Make room by writing the oldest redo entry out; if that
                // is blocked, the record overflows (stalling stores).
                let _ = self.flush_while(now, mc, None, |lc| {
                    lc.redo_buf.is_full().then_some((Fifo::Redo, 0))
                });
                let addr = line.addr.word_addr(w).as_u64();
                let record =
                    Record::redo_only(ext.owner, addr, line.data.word(w), ext.dirty_flags[w]);
                self.queue_redo(record, now);
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
        let line_undo = |fifo: &RecordFifo| {
            fifo.position(|p| {
                p.record.kind == RecordKind::UndoRedo && home_line(&p.record) == line_index
            })
        };
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
    /// counter instead and the commit completes instantly (§III-C). `mc`
    /// tells the wake which appends the commit waits on.
    pub fn start_commit(
        &mut self,
        key: TxTag,
        ulog_words: Vec<UlogWord>,
        ulog_count: u32,
        now: Cycle,
        mc: &MemoryController,
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
        // What the queued redo records could change for steps 1 and 4.
        let heads = |lc: &Self| {
            (
                lc.redo_buf.is_empty(),
                lc.redo_under_pressure(),
                lc.overflow.len(),
            )
        };
        let (fresh, before) = (self.state_version() == self.wake.version, heads(self));
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
        // Fold the commit into the wake when all it changes for `tick` is
        // step 3's pull of the transaction's entries, whose first append
        // is then one to try. Otherwise the wake is stale and `tick` runs.
        let fresh = fresh && heads(self) == before;
        let first = (self.buffered_tx_front(key))
            .and_then(|(fifo, pos)| self.fifo(fifo).get(pos).map(|p| p.record));
        if let Some(record) = first.filter(|r| fresh && !self.is_silent(r)) {
            self.wake.refuse(record, None, mc);
            self.wake.version = self.state_version();
        }
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

    /// One cycle of buffer maintenance, in six steps. Refills `persisted`
    /// with the undo+redo entries that reached the persist domain this
    /// cycle (the engine transitions their words `Dirty → URLog`).
    ///
    /// Each step leaves in the wake why it stopped: an age deadline or a
    /// refused append. [`next_event`](LogController::next_event) reads
    /// it, and a tick before the cycle it names would change nothing.
    pub fn tick(
        &mut self,
        now: Cycle,
        mc: &mut MemoryController,
        persisted: &mut Vec<PersistedUr>,
    ) {
        let _prof = hostprof::scope(HostPhase::Logging);
        persisted.clear();
        self.wake.at = Cycle::MAX;
        self.wake.refused.iter_mut().for_each(|r| r.renewed = false);
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
        for slot in 0..self.pending_commits.by_thread.len() {
            let Some(PendingCommit { key, .. }) = self.pending_commits.by_thread[slot] else {
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
            if self.tx_has_buffered_undo(key) || self.append(record, now, mc).is_err() {
                break;
            }
            self.pending_records.remove_at(0);
            self.stats.commit_records += 1;
            self.commit_cycle.insert(key, now);
            if let Some(Some(p)) = self.pending_commits.by_thread.get_mut(key.thread as usize) {
                p.recorded |= p.key == key;
            }
            self.tracer.emit(now, || TraceEvent::CommitPhase {
                key,
                phase: CommitPhaseTag::RecordPersisted,
            });
            self.track_phase(key, CommitPhaseTag::RecordPersisted, now);
        }
        // 6. Synchronous commits complete when nothing of theirs is left
        // and their commit record persisted.
        for slot in 0..self.pending_commits.by_thread.len() {
            let Some(p) = self.pending_commits.by_thread[slot] else {
                continue;
            };
            if self.tx_has_buffered_entries(p.key) {
                continue;
            }
            if !p.recorded && !self.pending_records.has_tx(p.key) {
                self.next_commit_ts += 1;
                let record = Record::commit(p.key, None).with_timestamp(self.next_commit_ts);
                self.pending_records.push(record, now);
                // The record appends on a later tick pass; at the head,
                // it is the next append to try.
                if self.pending_records.len() == 1 {
                    self.wake.refuse(record, None, mc);
                }
                continue;
            }
            if p.recorded {
                // Under an active fault plan, hold completion until every
                // record of the transaction has fully drained: the program
                // must not observe a commit whose log entries a crash could
                // still tear in the write queue.
                // An issue that drains them need not move the memory
                // controller's `state_version`, so the gate is checked
                // again on the next cycle.
                if mc.fault_active() && mc.tx_has_undrained_records(p.key) {
                    self.wake.at = self.wake.at.min(now + 1);
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
        // The buffers' heads leave at their age deadlines; a head already
        // due is still here only because its append was refused.
        let eager = (self.ur_buf.front()).map(|p| p.created + self.cfg.eager_evict_cycles);
        let lazy = (self
            .redo_buf
            .front()
            .filter(|_| !self.redo_under_pressure()))
        .map(|p| p.created + self.redo_lazy_age);
        let due = eager.into_iter().chain(lazy).filter(|&t| t > now);
        self.wake.at = due.fold(self.wake.at, Cycle::min);
        self.wake.refused.retain(|r| r.renewed);
        self.wake.version = self.state_version();
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
    fn fifo(&mut self, fifo: Fifo) -> &mut RecordFifo {
        match fifo {
            Fifo::UndoRedo => &mut self.ur_buf,
            Fifo::Redo => &mut self.redo_buf,
            Fifo::Overflow => &mut self.overflow,
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
                self.append(record, now, mc)?;
                self.stats.entries_written += 1;
            }
            self.fifo(fifo).remove_at(pos);
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

    /// Appends `record` to the log ring, or returns the stall a dependent
    /// store is charged and notes the refusal or `RingFull` in the wake.
    /// An append a standing refusal speaks for is refused again without
    /// asking the memory controller.
    fn append(
        &mut self,
        record: Record,
        now: Cycle,
        mc: &mut MemoryController,
    ) -> Result<(), StoreStall> {
        let appended = if self.wake.refusal(&record, mc).is_some_and(|r| r.stands(mc)) {
            Err(LogAppendError::WqFull)
        } else {
            mc.try_append_log(record, now).map(drop)
        };
        appended.map_err(|e| match e {
            LogAppendError::WqFull => {
                self.wake.refuse(record, Some(mc.state_version()), mc);
                StoreStall::WriteQueue
            }
            LogAppendError::RingFull => {
                // Every tick counts the stall again.
                self.stats.log_region_full_stalls += 1;
                self.wake.at = self.wake.at.min(now + 1);
                StoreStall::Buffer
            }
        })
    }

    /// Silent log writes: with dirty-flag hardware, completely clean log
    /// data are discarded instead of written (§IV-A).
    fn is_silent(&self, record: &Record) -> bool {
        self.has_dirty_flags() && record.kind != RecordKind::Commit && record.dirty_mask == 0
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
            Some(front)
                if !self.is_silent(&front.record) && mc.log_append_blocked(&front.record) =>
            {
                Some(StoreStall::WriteQueue)
            }
            Some(_) => None,
        }
    }

    /// The earliest cycle `>= now` at which [`tick`](LogController::tick)
    /// could change anything, read from the wake the last tick left:
    /// `now` once [`state_version`](LogController::state_version) has
    /// moved (an event changed what `tick` reads) or a refusal no longer
    /// stands, else the next age deadline (`Cycle::MAX` when none). This
    /// is a lower bound: waking early is harmless, waking late would
    /// skip real work.
    pub fn next_event(&mut self, now: Cycle, mc: &MemoryController) -> Cycle {
        let moved = self.state_version() != self.wake.version;
        if moved || !self.wake.refused.iter_mut().all(|r| r.stands(mc)) {
            return now;
        }
        self.wake.at.max(now)
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

    /// A counter that moves on every change to the four record FIFOs
    /// and the pending commits: everything `tick`, [`store_stall`] and
    /// [`on_llc_writeback`] read of this controller.
    ///
    /// [`store_stall`]: LogController::store_stall
    /// [`on_llc_writeback`]: LogController::on_llc_writeback
    pub fn state_version(&self) -> u64 {
        self.ur_buf.changes()
            + self.redo_buf.changes()
            + self.overflow.changes()
            + self.pending_records.changes()
            + self.pending_commits.changes
    }

    /// Log truncation (§III-F): deletes the ring prefix of records whose
    /// transactions `deletable(tag, commit_cycle)` accepts, as far as
    /// [`plan_truncation`] allows in commit-cycle order. The caller's
    /// policy decides: the force-write-back scheduler's safe commit horizon
    /// (their updated data have survived two scans) or the transaction
    /// table (all their updated lines have persisted).
    ///
    /// Only transactions whose commit record persisted are offered, and
    /// not one whose program-visible completion is still pending (the
    /// fault-plan drain gate holds it): a crash inside the hold window
    /// would otherwise find a transaction the program never saw commit
    /// fully durable with no log evidence left for recovery to classify
    /// it — an unrecoverable, checker-visible state. (Without an active
    /// fault plan, completion lands the same tick the record persists,
    /// before any truncation pass, so nothing is held.)
    pub fn truncate(
        &mut self,
        deletable: impl Fn(TxTag, Cycle) -> bool,
        mc: &mut MemoryController,
    ) {
        let (commit_cycle, held) = (&self.commit_cycle, &self.pending_commits);
        let heads = plan_truncation(
            mc.log_rings(),
            |slot| slot.record.tag,
            |tag| !held.holds(tag) && commit_cycle.get(&tag).is_some_and(|&c| deletable(tag, c)),
            |tag| commit_cycle.get(&tag).copied(),
        );
        for (slice, head) in heads.into_iter().enumerate() {
            if head > mc.log_rings()[slice].head() {
                mc.truncate_log_slice(slice, head);
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
    pub(super) fn apply_persisted(line: &mut CacheLine, persisted: &[PersistedUr]) {
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
        assert_eq!(m.log_rings()[0].entries().count(), 1);
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
        let written_before = m.log_rings()[0].entries().count();
        assert!(lc.on_llc_writeback(line.addr.index(), 52, &mut m));
        assert_eq!(
            lc.stats().redo_discarded,
            1,
            "redo entry dropped: data persisted"
        );
        assert_eq!(lc.occupancy(), (0, 0, 0));
        // The undo+redo entry was forced out ahead of the data.
        assert_eq!(m.log_rings()[0].entries().count(), written_before + 1);
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
            &m,
        );
        assert!(lc.is_commit_pending(ThreadId::new(0)));
        let mut now = 1;
        while lc.is_commit_pending(ThreadId::new(0)) {
            m.tick(now);
            tick(&mut lc, now, &mut m);
            now += 1;
            assert!(now < 10_000, "commit must complete");
        }
        let kinds: Vec<RecordKind> = m.log_rings()[0].entries().map(|r| r.kind).collect();
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
        lc.start_commit(key, Vec::new(), 3, 1, &m);
        assert!(
            !lc.is_commit_pending(ThreadId::new(0)),
            "DP commit is instant"
        );
        // The pending commit record pulls the transaction's undo+redo entry
        // into the log ahead of itself (write-ahead completeness: a commit
        // record in the ring implies every undo+redo entry is too).
        tick(&mut lc, 1, &mut m);
        let records: Vec<_> = m.log_rings()[0].entries().collect();
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
            let written = m.log_rings()[0].entries().count();
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
        lc.start_commit(key1, Vec::new(), 1, 41, &m); // DP: word stays ULog
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
        lc.start_commit(key1, Vec::new(), 0, 100, &m);
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
        let before = m.log_rings()[0].entries().count();
        assert_eq!(before, 3); // tx1 entry + commit, tx2 entry
        lc.truncate(|_, committed| committed <= now + 1000, &mut m);
        let remaining: Vec<_> = m.log_rings()[0]
            .entries()
            .map(|r| r.value.record.tag)
            .collect();
        assert_eq!(
            remaining,
            vec![key2],
            "only the live transaction's entry remains"
        );
    }

    /// Three threads share the one slice: b stores, a stores, b commits,
    /// c stores and stays open, a commits. a keeps a record behind c, so a
    /// stays; b's commit then lies behind a's kept store, so b stays too.
    #[test]
    fn truncation_never_splits_a_transaction_in_a_shared_slice() {
        let cfg = LogConfig::default();
        let mut lc = LogController::new(DesignKind::MorLogSlde, cfg);
        let mut m = mc();
        let base = data_line(&m).addr.index();
        let mut now = 0;
        let store = |lc: &mut LogController, m: &mut MemoryController, key, i, now: &mut Cycle| {
            let mut line = CacheLine::clean(LineAddr::from_index(base + i), LineData::zeroed());
            lc.on_store(key, line.addr.word_addr(0), 0, 1, &mut line, *now, m)
                .unwrap();
            *now += cfg.eager_evict_cycles;
            tick(lc, *now, m);
        };
        let commit =
            |lc: &mut LogController, m: &mut MemoryController, key: TxTag, now: &mut Cycle| {
                lc.start_commit(key, Vec::new(), 0, *now, m);
                while lc.is_commit_pending(ThreadId::new(key.thread)) {
                    m.tick(*now);
                    tick(lc, *now, m);
                    *now += 1;
                }
            };
        let (a, b, c) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        let (a, b, c) = (lc.tx_begin(a, 0), lc.tx_begin(b, 0), lc.tx_begin(c, 0));
        store(&mut lc, &mut m, b, 1, &mut now);
        store(&mut lc, &mut m, a, 2, &mut now);
        commit(&mut lc, &mut m, b, &mut now);
        store(&mut lc, &mut m, c, 3, &mut now);
        commit(&mut lc, &mut m, a, &mut now);
        let tags = |m: &MemoryController| -> Vec<TxTag> {
            (m.log_rings()[0].entries())
                .map(|r| r.value.record.tag)
                .collect()
        };
        assert_eq!(tags(&m), [b, a, b, c, a]);
        lc.truncate(|_, _| true, &mut m);
        assert_eq!(tags(&m), [b, a, b, c, a], "deleting b's store splits b");
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
        assert_eq!(m.log_rings()[0].entries().count(), 0, "nothing written");
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
        assert_eq!(m.log_rings()[0].entries().count(), 1);
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

#[cfg(test)]
mod wake_tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_nvm::log::StoredRecord;
    use morlog_sim_core::fault::FaultPlan;
    use morlog_sim_core::{Frequency, LineAddr, LineData, MemConfig};
    use std::ops::Range;

    /// A scripted run's events: what the engine does at a cycle after
    /// the ticks, over the run's cache lines.
    type Script = dyn Fn(Cycle, &mut LogController, &mut MemoryController, &mut [CacheLine]);

    /// What a run leaves: every cycle at which the log controller
    /// persisted an undo+redo entry or the memory controller accepted a
    /// write (with the entries and the persist-event count), the
    /// logging counters and the log ring.
    type Outcome = (
        Vec<(Cycle, Vec<PersistedUr>, u64)>,
        LogStats,
        Vec<(u64, StoredRecord)>,
    );

    /// Runs `script` for `cycles` over a one-channel memory controller
    /// with a four-entry write queue, which does not tick (so its queue
    /// stays as full as it is) during `held`. The log controller ticks on
    /// every cycle, or with `skip` only where `next_event` says so; the
    /// second value is how many ticks were skipped.
    fn run(
        design: DesignKind,
        plan: FaultPlan,
        held: Range<Cycle>,
        cycles: Cycle,
        skip: bool,
        script: &Script,
    ) -> (Outcome, usize) {
        let memcfg = MemConfig {
            channels: 1,
            write_queue_entries: 4,
            ..Default::default()
        };
        let codec = SldeCodec::new(CellModel::table_iii());
        let mut mc = MemoryController::with_default_map(memcfg, Frequency::ghz(3.0), codec);
        mc.set_fault_plan(plan);
        let mut lc = LogController::new(design, LogConfig::default());
        let base = mc.map().data_base().line().index();
        let mut lines: Vec<CacheLine> = (0..4)
            .map(|i| CacheLine::clean(LineAddr::from_index(base + i), LineData::zeroed()))
            .collect();
        let (mut timeline, mut persisted, mut skipped) = (Vec::new(), Vec::new(), 0);
        for now in 0..cycles {
            let events = mc.persist_events();
            if !held.contains(&now) {
                mc.tick(now);
            }
            if !skip || lc.next_event(now, &mc) <= now {
                lc.tick(now, &mut mc, &mut persisted);
            } else {
                persisted.clear();
                skipped += 1;
            }
            for line in &mut lines {
                super::tests::apply_persisted(line, &persisted);
            }
            script(now, &mut lc, &mut mc, &mut lines);
            if !persisted.is_empty() || mc.persist_events() != events {
                timeline.push((now, persisted.clone(), mc.persist_events()));
            }
        }
        let ring = mc.log_rings()[0]
            .entries()
            .map(|e| (e.offset, e.value))
            .collect();
        ((timeline, *lc.stats(), ring), skipped)
    }

    /// Runs `script` ticking every cycle and ticking only when due, and
    /// requires the same outcome from both. Returns the outcome.
    fn same_with_skipping(
        design: DesignKind,
        plan: FaultPlan,
        held: Range<Cycle>,
        cycles: Cycle,
        script: &Script,
    ) -> Outcome {
        let (every, _) = run(design, plan.clone(), held.clone(), cycles, false, script);
        let (skipping, skipped) = run(design, plan, held, cycles, true, script);
        assert_eq!(every.0, skipping.0, "{design}: what persisted, and when");
        assert_eq!(every.1, skipping.1, "{design}: logging counters");
        assert_eq!(every.2, skipping.2, "{design}: log ring");
        assert!(
            skipped as Cycle > cycles / 4,
            "{design}: only {skipped} of {cycles} ticks skipped"
        );
        every
    }

    /// A store the script expects to proceed; the data write follows.
    fn store(
        lc: &mut LogController,
        mc: &mut MemoryController,
        line: &mut CacheLine,
        key: TxTag,
        (w, value): (usize, u64),
        now: Cycle,
    ) {
        let old = line.data.word(w);
        lc.on_store(key, line.addr.word_addr(w), old, value, line, now, mc)
            .expect("scripted store proceeds");
        line.data.set_word(w, value);
    }

    /// MorLog-DP: eager and lazy age deadlines, a write queue held full
    /// while the undo+redo buffer ages, a delay-persistence commit record
    /// waiting on its transaction's undo+redo entry behind refused
    /// appends, and a crash point that freezes the controller.
    #[test]
    fn skipped_ticks_match_every_tick_through_deadlines_full_queue_and_crash_point() {
        let (a, b) = (TxTag::new(0, 0), TxTag::new(1, 0));
        let script = move |now: Cycle,
                           lc: &mut LogController,
                           mc: &mut MemoryController,
                           lines: &mut [CacheLine]| match now {
            0 => {
                lc.tx_begin(ThreadId::new(0), now);
                lc.tx_begin(ThreadId::new(1), now);
            }
            // Eager deadlines at 33 and 34.
            1 | 2 => store(lc, mc, &mut lines[0], a, (now as usize - 1, now), now),
            // URLog -> ULog, then the eviction queues a redo entry whose
            // lazy deadline is 50 + 4096.
            40 => store(lc, mc, &mut lines[0], a, (0, 5), now),
            50 => {
                lc.on_l1_evict(&lines[0], now);
                lines[0].ext = None;
            }
            // The queue is held from 100: four appends fill it, and the
            // rest of these entries are refused until 400.
            100..=107 => store(lc, mc, &mut lines[2], b, (now as usize - 100, now), now),
            115 => store(lc, mc, &mut lines[1], a, (0, 9), now),
            120 => lc.start_commit(a, Vec::new(), 1, now, mc),
            5000 => mc.arm_crash_at(mc.persist_events() + 2),
            5001..=5004 => store(lc, mc, &mut lines[3], b, (now as usize - 5001, now), now),
            _ => {}
        };
        let (timeline, stats, ring) = same_with_skipping(
            DesignKind::MorLogDp,
            FaultPlan::none(),
            100..400,
            5200,
            &script,
        );
        let cycles: Vec<Cycle> = timeline.iter().map(|t| t.0).collect();
        assert!(cycles.contains(&33) && cycles.contains(&4146), "{cycles:?}");
        assert!(cycles.iter().any(|c| (400..410).contains(c)), "{cycles:?}");
        assert_eq!(stats.commit_records, 1);
        // a's two undo+redo entries, b's eight, a's third, a's commit
        // record and redo entry, and two of b's last four: the freeze
        // refuses the rest.
        assert_eq!(ring.len(), 2 + 8 + 1 + 1 + 1 + 2);
    }

    /// MorLog-SLDE under an active fault plan: a synchronous commit is
    /// held by the drain gate while its records wait in a held write
    /// queue, and completes once they drain.
    #[test]
    fn skipped_ticks_match_every_tick_through_the_drain_gate() {
        let key = TxTag::new(0, 0);
        let script = move |now: Cycle,
                           lc: &mut LogController,
                           mc: &mut MemoryController,
                           lines: &mut [CacheLine]| match now {
            0 => {
                lc.tx_begin(ThreadId::new(0), now);
            }
            1..=3 => store(lc, mc, &mut lines[0], key, (now as usize, now), now),
            10 => {
                let ulog = UlogWord {
                    addr: lines[1].addr.word_addr(0),
                    value: 7,
                    dirty_mask: 0xFF,
                };
                lc.start_commit(key, vec![ulog], 0, now, mc);
            }
            _ => {}
        };
        let (_, stats, ring) = same_with_skipping(
            DesignKind::MorLogSlde,
            FaultPlan::single_torn(7),
            12..300,
            3000,
            &script,
        );
        assert_eq!(stats.commit_records, 1);
        assert!(stats.commit_stall_cycles >= 300 - 10, "{stats:?}");
        assert_eq!(ring.len(), 3 + 1 + 1);
    }
}
