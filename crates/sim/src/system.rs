//! The simulated system: cores + caches + log controller + memory
//! controller, and the cycle engine that drives them.
//!
//! The engine steps a cycle, then jumps `now` to the next cycle at which
//! any component could act (see `System::next_event`), charging the
//! skipped cycles in bulk. Every skipped cycle is one in which stepping
//! would only have charged each core's attribution account and retried a
//! stalled store, so the simulated numbers equal those of stepping every
//! cycle — which is what `run_for(1)` still does.

use std::collections::VecDeque;
use std::sync::Arc;

use morlog_cache::fwb::FwbScheduler;
use morlog_cache::hierarchy::{AccessOutcome, EvictionEvent, Hierarchy};
use morlog_cache::line::{CacheLine, L1Ext, WordLogState};
use morlog_encoding::cell::CellModel;
use morlog_encoding::slde::SldeCodec;
use morlog_log::record::TxTag;
use morlog_log::txtable::TxTable;
use morlog_log::{LogError, RecoveryOutcome};
use morlog_logging::controller::{LogController, PersistedUr, StoreStall, UlogWord};
use morlog_logging::recovery::{recover, recover_interrupted};
use morlog_nvm::controller::{MemoryController, ReadTicket};
use morlog_nvm::layout::MemoryMap;
use morlog_sim_core::fault::FaultPlan;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::metrics::{MetricsSet, SeriesSet};
use morlog_sim_core::stats::{CycleAttribution, StallKind};
use morlog_sim_core::trace::{CommitPhaseTag, TraceEvent, Tracer, WordStateTag};
use morlog_sim_core::{Addr, Cycle, LineAddr, LineData, SimStats, SystemConfig, ThreadId};
use morlog_workloads::trace::{Op, ThreadTrace, WorkloadTrace};

use crate::oracle::Oracle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Ready,
    BusyUntil(Cycle),
    WaitRead(ReadTicket, LineAddr),
    WaitCommit,
    Done,
}

#[derive(Debug)]
struct Core {
    thread: ThreadId,
    tx_idx: usize,
    op_idx: usize,
    /// The open transaction's ops, copied from the trace when it begins:
    /// one burst of reads then, instead of a cache miss on the trace
    /// every few ops while it runs.
    ops: Vec<Op>,
    phase: Phase,
    key: Option<TxTag>,
    tx_began: bool,
    /// What a `BusyUntil` wait is charged to in the cycle-attribution
    /// accounts: `Busy` for pipeline latency, `CommitWait` for log
    /// backpressure at transaction begin.
    busy_kind: StallKind,
    /// The L1 sets that may hold a line a commit walk would change.
    ext_sets: SetMask,
    /// The done cycle of the read a `WaitRead` core waits on, held from
    /// the first step that finds it issued.
    read_done: Option<Cycle>,
    /// The last store-retry prediction, while it may still hold.
    retry: Option<RetryPrediction>,
}

/// A store-retry prediction and the state it was made in: the log
/// controller's and the memory controller's state versions and the
/// core's L1 change count. A core's own state changes only when it
/// issues, which drops its prediction, so the prediction holds for as
/// long as the three counts stay put.
#[derive(Debug, Clone, Copy)]
struct RetryPrediction {
    versions: [u64; 3],
    stall: Option<StoreStall>,
}

/// A set of L1 set indices, one bit each.
///
/// A core's commit walks only act on lines whose MorLog extension has a
/// non-Clean word, so each core keeps the sets that may hold one: a set
/// joins whenever a store installs or changes an extension in it, and
/// leaves only when a walk finds every line in it inert. The mask may hold
/// more sets than needed, never fewer, and the walks still check each
/// line's owner, so visiting only its sets, in ascending order, changes
/// the same lines in the same order as visiting the whole L1.
#[derive(Debug, Clone)]
struct SetMask {
    words: Vec<u64>,
}

impl SetMask {
    fn new(sets: usize) -> Self {
        SetMask {
            words: vec![0; sets.div_ceil(64)],
        }
    }

    fn insert(&mut self, set: usize) {
        self.words[set / 64] |= 1 << (set % 64);
    }

    fn remove(&mut self, set: usize) {
        self.words[set / 64] &= !(1 << (set % 64));
    }

    fn contains(&self, set: usize) -> bool {
        self.words[set / 64] & (1 << (set % 64)) != 0
    }
}

/// Whether no commit walk could change `line`: it has no MorLog extension,
/// or one whose words are all Clean with no dirty flags.
fn walk_inert(line: &CacheLine) -> bool {
    line.ext.is_none_or(|e| e == L1Ext::new(e.owner))
}

/// One simulated machine running one workload under one design.
///
/// # Example
///
/// ```
/// use morlog_sim::System;
/// use morlog_sim_core::{Addr, DesignKind, SystemConfig};
/// use morlog_workloads::{generate, WorkloadConfig, WorkloadKind};
///
/// let cfg = SystemConfig::for_design(DesignKind::MorLogSlde);
/// let data_base = System::data_base(&cfg);
/// let mut wl = WorkloadConfig::test_config(data_base);
/// wl.total_transactions = 20;
/// let trace = generate(WorkloadKind::Sps, &wl);
/// let mut sys = System::new(cfg, &trace);
/// let stats = sys.run();
/// assert_eq!(stats.transactions_committed, 20);
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    hierarchy: Hierarchy,
    mc: MemoryController,
    lc: LogController,
    fwb: FwbScheduler,
    cores: Vec<Core>,
    /// The replayed trace, shared with the caller and the oracle.
    threads: Arc<[ThreadTrace]>,
    pending_writebacks: VecDeque<(LineAddr, LineData)>,
    /// A truncation horizon waiting for the scan's writebacks to reach the
    /// persist domain (log entries must outlive their updated data's path
    /// to NVMM).
    pending_truncation: Option<Cycle>,
    /// The §III-F transaction table, keyed by cache-line index (populated
    /// only under `TruncationPolicy::TransactionTable`).
    tx_table: TxTable,
    now: Cycle,
    committed: u64,
    tx_stores: u64,
    tx_loads: u64,
    store_stall_cycles: u64,
    /// Cycle at which the last transaction committed (the throughput
    /// clock stops here; the quiesce tail drains buffers for the traffic
    /// and energy accounting but is not execution time — under
    /// delay-persistence, persistence intentionally trails commit).
    finish_cycle: Option<Cycle>,
    oracle: Oracle,
    /// Shared observability sink (see [`morlog_sim_core::trace`]); the same
    /// handle is installed in the memory controller, log controller and
    /// cache hierarchy so events from every component land in one stream.
    tracer: Tracer,
    /// Per-component cycle accounts. For every simulated cycle before
    /// `finish_cycle`, each core contributes exactly one unit to exactly
    /// one account, so `attr.total() == cycles * cores`.
    attr: CycleAttribution,
    /// Time-series sample period in cycles (0 disables sampling);
    /// `MORLOG_SAMPLE_CYCLES` overrides the configured value.
    sample_period: Cycle,
    /// The next cycle whose step takes an occupancy sample: the next
    /// multiple of `sample_period`, or `Cycle::MAX` with sampling off.
    next_sample: Cycle,
    /// Cycle-sampled occupancy series (write queue, log buffers, live
    /// log bytes, outstanding DP commits, pending writebacks).
    series: SeriesSet,
    /// Reused buffer for the undo+redo entries the log controller
    /// persisted this cycle.
    persisted: Vec<PersistedUr>,
    /// The versions (see [`System::writeback_versions`]) under which the
    /// log controller last refused the front write-back.
    writeback_refused: Option<[u64; 2]>,
    /// Reused buffer for the eviction events of one hierarchy access or
    /// fill, in the order the hierarchy produced them.
    events: Vec<EvictionEvent>,
    /// The account each core is charged for a skipped cycle, filled by
    /// [`System::next_event`] whenever it finds a cycle to skip to.
    skip_kinds: Vec<StallKind>,
}

impl System {
    /// Builds the codec a design uses (SLDE vs. CRADE; expansion coding can
    /// be disabled for the Table VI study).
    pub fn codec_for(cfg: &SystemConfig, expansion: bool) -> SldeCodec {
        let model = CellModel::table_iii().with_write_latency_scale(cfg.mem.write_latency_scale);
        let codec = if cfg.design.uses_crade_only() {
            SldeCodec::crade(model)
        } else {
            SldeCodec::new(model)
        };
        codec.with_expansion(expansion)
    }

    /// The persistent-heap base for a configuration (where workload arenas
    /// start).
    pub fn data_base(cfg: &SystemConfig) -> Addr {
        MemoryMap::table_iii(cfg.mem.log_region_bytes as u64).data_base()
    }

    /// Constructs the system and pre-loads each thread's initial NVMM
    /// image.
    ///
    /// The system and its oracle keep an O(1) clone of `trace`'s shared
    /// thread traces and replay them in place: building copies no
    /// transaction, whatever the trace's length.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace needs more
    /// threads than the system has cores.
    pub fn new(cfg: SystemConfig, trace: &WorkloadTrace) -> Self {
        Self::with_expansion(cfg, trace, true)
    }

    /// [`System::new`] with control over expansion coding (Table VI).
    pub fn with_expansion(cfg: SystemConfig, trace: &WorkloadTrace, expansion: bool) -> Self {
        Self::with_options(
            cfg,
            trace,
            expansion,
            morlog_encoding::secure::SecureMode::None,
        )
    }

    /// Full-option constructor: expansion coding (Table VI) and the
    /// secure-NVMM model (§IV-D).
    ///
    /// Each thread's initial image is stored with one
    /// [`MemoryController::preload`] call, before the first cycle and
    /// outside the timing model. It encodes and programs only the changed
    /// word's segment of a line already written, and ends in the state
    /// that a read-modify-write of the whole line per word would.
    pub fn with_options(
        cfg: SystemConfig,
        trace: &WorkloadTrace,
        expansion: bool,
        secure: morlog_encoding::secure::SecureMode,
    ) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert!(
            trace.threads.len() <= cfg.cores.cores,
            "trace needs {} threads but the system has {} cores",
            trace.threads.len(),
            cfg.cores.cores
        );
        let codec = Self::codec_for(&cfg, expansion);
        let map = MemoryMap::table_iii(cfg.mem.log_region_bytes as u64);
        let tracer = if cfg.trace.enabled {
            Tracer::with_capacity(cfg.trace.buffer_capacity)
        } else {
            Tracer::from_env()
        };
        let sample_period =
            morlog_sim_core::knobs::sample_cycles().unwrap_or(cfg.metrics.sample_cycles);
        let mut mc = MemoryController::new(cfg.mem, cfg.cores.frequency, map, codec);
        mc.set_secure_mode(secure);
        mc.set_tracer(tracer.clone());
        let mut lc = LogController::new(cfg.design, cfg.log);
        lc.set_secure_mode(secure);
        lc.set_tracer(tracer.clone());
        lc.set_mutation(cfg.mutation);
        let threads = Arc::clone(&trace.threads);
        for thread in threads.iter() {
            mc.preload(&thread.initial);
        }
        let mut hierarchy = Hierarchy::new(&cfg.hierarchy, cfg.cores.cores);
        hierarchy.set_tracer(tracer.clone());
        let cores = (0..threads.len())
            .map(|i| Core {
                thread: ThreadId::new(i as u8),
                tx_idx: 0,
                op_idx: 0,
                ops: Vec::new(),
                phase: Phase::Ready,
                key: None,
                tx_began: false,
                busy_kind: StallKind::Busy,
                ext_sets: SetMask::new(hierarchy.l1_sets()),
                read_done: None,
                retry: None,
            })
            .collect();
        System {
            hierarchy,
            lc,
            fwb: FwbScheduler::new(cfg.hierarchy.force_write_back_period),
            cores,
            skip_kinds: vec![StallKind::Idle; threads.len()],
            oracle: Oracle::new(Arc::clone(&threads)),
            threads,
            pending_writebacks: VecDeque::new(),
            pending_truncation: None,
            tx_table: TxTable::new(),
            now: 0,
            committed: 0,
            tx_stores: 0,
            tx_loads: 0,
            store_stall_cycles: 0,
            finish_cycle: None,
            tracer,
            attr: CycleAttribution::default(),
            sample_period,
            next_sample: if sample_period == 0 { Cycle::MAX } else { 0 },
            series: SeriesSet::with_period(sample_period),
            persisted: Vec::new(),
            writeback_refused: None,
            events: Vec::new(),
            mc,
            cfg,
        }
    }

    /// The shared trace handle (disabled unless the configuration or the
    /// `MORLOG_TRACE` environment variable enabled it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory controller (for recovery-oriented inspection).
    pub fn memory(&self) -> &MemoryController {
        &self.mc
    }

    /// Transactions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Whether every core has retired its whole trace.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(|c| c.phase == Phase::Done)
    }

    /// Runs to completion (plus quiescing the log buffers) and returns the
    /// collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the system stops making progress (an engine bug, surfaced
    /// loudly rather than hanging).
    pub fn run(&mut self) -> SimStats {
        const WATCHDOG_PERIOD: Cycle = 4_000_000;
        let mut last_progress = (0u64, 0usize, self.now);
        let mut next_check = self.now + WATCHDOG_PERIOD;
        while !self.finished() {
            // Skips stop at the check, so a stalled engine cannot jump
            // past it.
            self.advance(next_check, |s| !s.finished());
            // Watchdog: commits or retired ops must advance.
            if self.now >= next_check {
                let ops: usize = self.cores.iter().map(|c| c.tx_idx * 1000 + c.op_idx).sum();
                let progress = (self.committed, ops, self.now);
                assert!(
                    (progress.0, progress.1) != (last_progress.0, last_progress.1),
                    "no progress between cycle {} and {}: cores {:?}",
                    last_progress.2,
                    self.now,
                    self.cores.iter().map(|c| c.phase).collect::<Vec<_>>()
                );
                last_progress = progress;
                next_check += WATCHDOG_PERIOD;
            }
        }
        self.finish_cycle = Some(self.now);
        debug_assert_eq!(
            self.attr.total(),
            self.now * self.cores.len() as u64,
            "cycle attribution must account every core-cycle exactly once"
        );
        self.quiesce();
        self.stats()
    }

    /// Runs at most `cycles` more cycles; returns `true` if the workload
    /// finished within them. Unless it finished, [`now`](System::now) ends
    /// exactly `cycles` later.
    ///
    /// Only cycles in which some component could act are stepped; the
    /// rest are skipped and charged in bulk, with results identical to
    /// stepping each one. `run_for(1)` steps exactly one cycle, so a loop
    /// of `run_for(1)` calls is the reference engine the skipping is
    /// tested against.
    pub fn run_for(&mut self, cycles: Cycle) -> bool {
        let deadline = self.now + cycles;
        while !self.finished() && self.now < deadline {
            self.advance(deadline, |s| !s.finished());
        }
        self.finished()
    }

    fn quiesce(&mut self) {
        let deadline = self.now + 50_000_000;
        while !self.log_quiescent() {
            self.advance(deadline, |s| !s.log_quiescent());
            assert!(self.now < deadline, "log controller failed to quiesce");
        }
        // Let the write queues drain for the energy/traffic accounting.
        let end = self.now + 100_000;
        while self.now < end && self.mc.write_queue_occupancy() != 0 {
            self.mc.tick(self.now);
            self.now += 1;
            if self.mc.write_queue_occupancy() != 0 {
                let next = self.mc.next_event(self.now).min(end);
                if next > self.now {
                    self.mc.skip_idle_ticks(next - 1);
                    self.now = next;
                }
            }
        }
    }

    /// Whether no log data or write-back is left in flight.
    fn log_quiescent(&self) -> bool {
        self.lc.is_quiescent() && self.pending_writebacks.is_empty()
    }

    /// Steps the current cycle; then, if `more` says the caller would step
    /// again, skips to the next cycle at which anything could happen,
    /// never past `limit`.
    fn advance(&mut self, limit: Cycle, more: impl Fn(&Self) -> bool) {
        self.step_cycle();
        if !more(self) {
            return;
        }
        let next = self.next_event().min(limit);
        if next <= self.now {
            return;
        }
        // Each skipped cycle would have charged every core the account its
        // waiting step returns, retried every stalled store, and done
        // nothing else.
        let span = next - self.now;
        for (core, &kind) in self.cores.iter().zip(&self.skip_kinds) {
            if core.phase == Phase::Ready {
                self.store_stall_cycles += span;
            }
            if self.finish_cycle.is_none() {
                self.attr.add_n(kind, span);
            }
        }
        self.mc.skip_idle_ticks(next - 1);
        self.now = next;
    }

    /// The earliest cycle `>= now` at which stepping could do more than
    /// charge attribution and retry stalled stores. A lower bound: every
    /// component answers `now` when unsure, and waking early only steps a
    /// cycle that changes nothing. When the answer is later than `now`,
    /// `skip_kinds` holds the account each core's skipped cycles go to.
    fn next_event(&mut self) -> Cycle {
        let now = self.now;
        let mut next = Cycle::MAX;
        // The cores first: most calls end here. No check changes simulated
        // state, so their order cannot change the answer.
        for i in 0..self.cores.len() {
            let core = &self.cores[i];
            let (ready, kind) = match core.phase {
                Phase::Done => (Cycle::MAX, StallKind::Idle),
                Phase::BusyUntil(t) => (t, core.busy_kind),
                // An unissued read completes only after a controller event.
                Phase::WaitRead(ticket, _) => (
                    self.read_done(i, ticket).unwrap_or(Cycle::MAX),
                    self.read_wait_kind(),
                ),
                Phase::WaitCommit if self.lc.is_commit_pending(core.thread) => {
                    (Cycle::MAX, StallKind::CommitWait)
                }
                Phase::WaitCommit => return now,
                Phase::Ready => match self.store_retry_stall(i) {
                    Some(why) => (Cycle::MAX, stall_kind(why)),
                    None => return now,
                },
            };
            if ready <= now {
                return now;
            }
            self.skip_kinds[i] = kind;
            next = next.min(ready);
        }
        if self.pending_truncation.is_some() && self.pending_writebacks.is_empty() {
            return now;
        }
        // A write-back that gets past the log controller either enters the
        // write queue or counts a write-queue stall.
        if !self.pending_writebacks.is_empty()
            && self.writeback_refused != Some(self.writeback_versions())
        {
            return now;
        }
        next = next.min(self.fwb.next_scan());
        if self.finish_cycle.is_none() {
            next = next.min(self.next_sample);
        }
        if self.cfg.log.truncation == morlog_sim_core::config::TruncationPolicy::TransactionTable {
            next = next.min(now.next_multiple_of(4096));
        }
        next.min(self.lc.next_event(now, &self.mc))
            .min(self.mc.next_event(now))
            .max(now)
    }

    /// The done cycle of core `i`'s read `ticket`, once the memory
    /// controller has issued it. The core keeps it from the first call
    /// that finds it, so the controller's map is read again only when the
    /// read completes.
    fn read_done(&mut self, i: usize, ticket: ReadTicket) -> Option<Cycle> {
        if self.cores[i].read_done.is_none() {
            self.cores[i].read_done = self.mc.read_done_at(ticket);
        }
        self.cores[i].read_done
    }

    /// The stall of core `i`'s store retry, if the core sits on a
    /// stalled store whose retry would stall again without touching
    /// anything, LRU order included. Reuses the core's last prediction
    /// while the state it was made in stays put.
    fn store_retry_stall(&mut self, i: usize) -> Option<StoreStall> {
        let versions = [
            self.lc.state_version(),
            self.mc.state_version(),
            self.hierarchy.l1_changes(i),
        ];
        if let Some(p) = self.cores[i].retry.filter(|p| p.versions == versions) {
            return p.stall;
        }
        let stall = self.predict_store_retry(i);
        self.cores[i].retry = Some(RetryPrediction { versions, stall });
        stall
    }

    /// [`store_retry_stall`](System::store_retry_stall) from scratch.
    fn predict_store_retry(&self, i: usize) -> Option<StoreStall> {
        let core = &self.cores[i];
        let key = core.key.filter(|_| core.tx_began)?;
        let &Op::Store(addr, value) = core.ops.get(core.op_idx)? else {
            return None;
        };
        let line = self.hierarchy.l1_mru_line(i, addr.line())?;
        let old = line.data.word(addr.word_index());
        self.lc.store_stall(key, addr, old, value, line, &self.mc)
    }

    /// The account a core waiting on a read is charged to: a read held
    /// behind a write-queue drain is charged to the drain, not to plain
    /// read latency.
    fn read_wait_kind(&self) -> StallKind {
        if self.mc.any_channel_draining() {
            StallKind::DrainWait
        } else {
            StallKind::ReadWait
        }
    }

    /// Assembles the run's statistics. `cycles` is the execution time up
    /// to the last commit; buffer-drain tails after completion are
    /// excluded (see `finish_cycle`).
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.finish_cycle.unwrap_or(self.now),
            transactions_committed: self.committed,
            tx_stores: self.tx_stores,
            tx_loads: self.tx_loads,
            cache: *self.hierarchy.stats(),
            mem: *self.mc.stats(),
            log: {
                let mut l = *self.lc.stats();
                l.buffer_full_stall_cycles += self.store_stall_cycles;
                l
            },
            attr: self.attr,
            metrics: MetricsSet {
                commit: self.lc.latency().clone(),
                log_writes: self.mc.log_metrics().clone(),
                series: self.series.clone(),
            },
        }
    }

    fn step_cycle(&mut self) {
        hostprof::count(HostCounter::EventsSimulated, 1);
        // Occupancy sampling runs on the execution clock only — the
        // quiesce tail after the last commit is excluded, like `attr`.
        if self.now == self.next_sample && self.finish_cycle.is_none() {
            // Skips stop at `next_sample`, so every sampled cycle steps.
            self.next_sample += self.sample_period;
            let _prof = hostprof::scope(HostPhase::TraceOverhead);
            let (ur, redo, _) = self.lc.occupancy();
            self.series.push_sample(
                self.now,
                self.mc.write_queue_occupancy() as u64,
                redo as u64,
                ur as u64,
                self.mc.log_used_bytes(),
                self.lc.commit_backlog() as u64,
                self.pending_writebacks.len() as u64,
            );
        }
        self.hierarchy.set_now(self.now);
        self.mc.tick(self.now);
        // The log controller sleeps until its wake. Debug builds tick it
        // anyway and check that the tick changed nothing, as they do for
        // a predicted store retry.
        if self.lc.next_event(self.now, &self.mc) <= self.now {
            self.lc.tick(self.now, &mut self.mc, &mut self.persisted);
        } else {
            self.persisted.clear();
            if cfg!(debug_assertions) {
                self.check_skipped_tick();
            }
        }
        for p in &self.persisted {
            if let Some((_, line)) = self.hierarchy.find_l1(p.addr.line()) {
                if let Some(ext) = line.ext.as_mut() {
                    let w = p.addr.word_index();
                    if ext.owner == p.key && ext.word_state[w] == WordLogState::Dirty {
                        let to = if p.silent {
                            // Silent log write discarded: no undo anchor in
                            // the log, so the word must restart from Clean.
                            ext.word_state[w] = WordLogState::Clean;
                            ext.dirty_flags[w] = 0;
                            WordStateTag::Clean
                        } else {
                            ext.word_state[w] = WordLogState::URLog;
                            WordStateTag::URLog
                        };
                        self.tracer.emit(self.now, || TraceEvent::WordTransition {
                            key: p.key,
                            addr: p.addr.as_u64(),
                            from: WordStateTag::Dirty,
                            to,
                        });
                    }
                }
            }
        }
        self.drain_writebacks();
        if self.pending_writebacks.is_empty() {
            if let Some(horizon) = self.pending_truncation.take() {
                // All scan writebacks are in the persist domain: entries of
                // transactions committed before the horizon are now safe to
                // delete.
                self.lc
                    .truncate(|_, committed| committed <= horizon, &mut self.mc);
            }
        }
        if self.fwb.due(self.now) {
            let wbs = self.hierarchy.force_write_back_scan();
            self.pending_writebacks.extend(wbs);
            self.fwb.record_scan(self.now);
            if self.cfg.log.truncation == morlog_sim_core::config::TruncationPolicy::ForceWriteBack
            {
                if let Some(horizon) = self.fwb.safe_commit_horizon() {
                    self.pending_truncation = Some(horizon);
                }
            }
        }
        // Table-based truncation runs continuously (here: every 4096
        // cycles) — a committed transaction's entries are deleted as soon
        // as its last dirty line persists (§III-F option 2).
        if self.cfg.log.truncation == morlog_sim_core::config::TruncationPolicy::TransactionTable
            && self.now.is_multiple_of(4096)
            && self.pending_writebacks.is_empty()
        {
            let table = &self.tx_table;
            self.lc
                .truncate(|tag, _| table.is_deletable(tag), &mut self.mc);
        }
        // One scope for the whole core loop: the cache, logging and memory
        // scopes it opens still charge their own time.
        let _prof = hostprof::scope(HostPhase::CoreIssue);
        for i in 0..self.cores.len() {
            let kind = self.step_core(i);
            // The attribution clock stops with the throughput clock: the
            // quiesce tail after the last commit is not execution time.
            if self.finish_cycle.is_none() {
                self.attr.add(kind);
            }
        }
        self.now += 1;
    }

    /// Debug builds: runs the log-controller tick that the wake let
    /// `step_cycle` skip, and checks that it changed nothing. Both sides of
    /// `lockstep.rs` skip the same ticks, so only this check catches a
    /// late wake.
    fn check_skipped_tick(&mut self) {
        let seen = |s: &Self| {
            (
                *s.lc.stats(),
                s.lc.state_version(),
                s.mc.persist_events(),
                s.mc.state_version(),
            )
        };
        let before = seen(self);
        self.lc.tick(self.now, &mut self.mc, &mut self.persisted);
        assert!(
            self.persisted.is_empty() && seen(self) == before,
            "the log controller slept through cycle {}, where its tick acts",
            self.now
        );
    }

    /// The state the log controller refuses a write-back under: its own
    /// and the memory controller's `state_version`.
    fn writeback_versions(&self) -> [u64; 2] {
        [self.lc.state_version(), self.mc.state_version()]
    }

    /// Offers the queued write-backs, in order, to the log controller and
    /// then the write queue. A write-back the log controller refused is
    /// offered again only once the versions it was refused under move:
    /// until then the offer would change nothing.
    fn drain_writebacks(&mut self) {
        if self.writeback_refused == Some(self.writeback_versions()) {
            return;
        }
        self.writeback_refused = None;
        while let Some(&(addr, data)) = self.pending_writebacks.front() {
            if !self
                .lc
                .on_llc_writeback(addr.index(), self.now, &mut self.mc)
            {
                self.writeback_refused = Some(self.writeback_versions());
                break;
            }
            if !self.mc.try_write_data(addr, data, self.now) {
                self.mc.note_wq_stall();
                break;
            }
            if self.cfg.log.truncation
                == morlog_sim_core::config::TruncationPolicy::TransactionTable
            {
                self.tx_table.on_line_persisted(addr.index());
            }
            self.pending_writebacks.pop_front();
        }
    }

    /// Hands the buffered eviction events to the log controller and the
    /// write-back queue, in order, and empties the buffer.
    fn handle_events(&mut self) {
        for ev in self.events.drain(..) {
            match ev {
                EvictionEvent::L1Evicted(line) => self.lc.on_l1_evict(&line, self.now),
                EvictionEvent::MemoryWriteback { addr, data } => {
                    self.pending_writebacks.push_back((addr, data));
                }
            }
        }
    }

    /// Advances one core by one cycle and reports which attribution
    /// account the cycle belongs to (exactly one per core per cycle).
    fn step_core(&mut self, i: usize) -> StallKind {
        match self.cores[i].phase {
            Phase::Done => StallKind::Idle,
            Phase::BusyUntil(t) => {
                if self.now >= t {
                    self.cores[i].phase = Phase::Ready;
                    self.issue(i)
                } else {
                    self.cores[i].busy_kind
                }
            }
            Phase::WaitRead(ticket, line) => {
                if self
                    .read_done(i, ticket)
                    .is_some_and(|done| done <= self.now)
                {
                    let taken = self.mc.take_if_done(ticket, self.now);
                    debug_assert!(taken, "a read done by now completes");
                    self.cores[i].read_done = None;
                    let data = self.mc.read_line(line);
                    self.hierarchy.fill(i, line, data, &mut self.events);
                    self.handle_events();
                    // Retry the op next cycle with the line resident.
                    self.cores[i].busy_kind = StallKind::Busy;
                    self.cores[i].phase = Phase::BusyUntil(self.now + 1);
                }
                self.read_wait_kind()
            }
            Phase::WaitCommit => {
                if !self.lc.is_commit_pending(self.cores[i].thread) {
                    self.finish_commit(i);
                }
                StallKind::CommitWait
            }
            Phase::Ready => {
                // A store retry predicted to stall again, changing nothing,
                // is charged without running it. Debug builds run it anyway
                // and check the prediction, so `run_for(1)` stays the
                // reference the skipping engine is tested against.
                let predicted = self.store_retry_stall(i);
                match predicted {
                    Some(why) if !cfg!(debug_assertions) => {
                        self.store_stall_cycles += 1;
                        stall_kind(why)
                    }
                    _ => {
                        let kind = self.issue(i);
                        if let Some(why) = predicted {
                            debug_assert_eq!(kind, stall_kind(why), "store retry prediction");
                        }
                        kind
                    }
                }
            }
        }
    }

    fn issue(&mut self, i: usize) -> StallKind {
        // Issuing may change the core's state, which its prediction does
        // not track.
        self.cores[i].retry = None;
        let thread = self.cores[i].thread;
        let tx_idx = self.cores[i].tx_idx;
        if tx_idx >= self.threads[i].transactions.len() {
            self.cores[i].phase = Phase::Done;
            return StallKind::Idle;
        }
        if !self.cores[i].tx_began {
            // Log backpressure: do not open new transactions while commit
            // records are piling up behind a full log region (§III-A).
            if self.lc.commit_backlog() > 4 * self.cores.len() {
                self.cores[i].busy_kind = StallKind::CommitWait;
                self.cores[i].phase = Phase::BusyUntil(self.now + 16);
                return StallKind::CommitWait;
            }
            let key = self.lc.tx_begin(thread, self.now);
            self.oracle.begin(key, tx_idx);
            self.tracer.emit(self.now, || TraceEvent::CommitPhase {
                key,
                phase: CommitPhaseTag::Begin,
            });
            let ops = &self.threads[i].transactions[tx_idx].ops;
            self.cores[i].ops.clear();
            self.cores[i].ops.extend_from_slice(ops);
            self.cores[i].key = Some(key);
            self.cores[i].tx_began = true;
            self.cores[i].busy_kind = StallKind::Busy;
            self.cores[i].phase = Phase::BusyUntil(self.now + 1);
            return StallKind::Busy;
        }
        let Some(&op) = self.cores[i].ops.get(self.cores[i].op_idx) else {
            return self.start_commit(i);
        };
        match op {
            Op::Compute(cycles) => {
                self.cores[i].op_idx += 1;
                self.cores[i].busy_kind = StallKind::Busy;
                self.cores[i].phase = Phase::BusyUntil(self.now + cycles as Cycle);
                StallKind::Busy
            }
            Op::Load(addr) => {
                let outcome = self.hierarchy.access(i, addr.line(), &mut self.events);
                self.handle_events();
                match outcome {
                    AccessOutcome::Miss => {
                        let ticket = self.mc.enqueue_read(addr.line(), self.now);
                        self.cores[i].phase = Phase::WaitRead(ticket, addr.line());
                        StallKind::ReadWait
                    }
                    hit => {
                        self.tx_loads += 1;
                        self.cores[i].op_idx += 1;
                        self.cores[i].busy_kind = StallKind::Busy;
                        self.cores[i].phase =
                            Phase::BusyUntil(self.now + hit.latency(&self.cfg.hierarchy));
                        StallKind::Busy
                    }
                }
            }
            Op::Store(addr, value) => self.issue_store(i, addr, value),
        }
    }

    fn issue_store(&mut self, i: usize, addr: Addr, value: u64) -> StallKind {
        let key = self.cores[i].key.expect("store inside a transaction");
        let line_addr = addr.line();
        let set = self.hierarchy.l1_set_index(line_addr);
        // One L1 lookup: the store, its log-state change and the data write
        // all act on this line in place.
        let Some(line) = self.hierarchy.l1_line_mut(i, line_addr) else {
            // Write-allocate: bring the line into L1 first.
            let outcome = self.hierarchy.access(i, line_addr, &mut self.events);
            self.handle_events();
            match outcome {
                AccessOutcome::Miss => {
                    let ticket = self.mc.enqueue_read(line_addr, self.now);
                    self.cores[i].phase = Phase::WaitRead(ticket, line_addr);
                    return StallKind::ReadWait;
                }
                hit => {
                    // Line is now resident; perform the store after the
                    // lookup latency.
                    self.cores[i].busy_kind = StallKind::Busy;
                    self.cores[i].phase =
                        Phase::BusyUntil(self.now + hit.latency(&self.cfg.hierarchy));
                    return StallKind::Busy;
                }
            }
        };
        let w = addr.word_index();
        let old = line.data.word(w);
        let stored = self
            .lc
            .on_store(key, addr, old, value, line, self.now, &mut self.mc);
        // The store may have installed or changed the line's extension.
        self.cores[i].ext_sets.insert(set);
        match stored {
            Err(why) => {
                // Buffer backpressure: retry next cycle.
                self.store_stall_cycles += 1;
                stall_kind(why)
            }
            Ok(()) => {
                if self.cfg.log.truncation
                    == morlog_sim_core::config::TruncationPolicy::TransactionTable
                {
                    self.tx_table.on_store(key, line_addr.index());
                }
                line.data.set_word(w, value);
                // Stores do not clear the force-write-back age flag: a line
                // flagged at scan k is written back at scan k+1 even if it
                // keeps being re-dirtied, which is what makes "committed
                // before the last two scans" a safe truncation horizon.
                line.dirty = true;
                self.tx_stores += 1;
                self.oracle.record_write(key);
                self.cores[i].op_idx += 1;
                // Stores retire through the store buffer at one per cycle
                // when the line is resident; misses block (write-allocate).
                self.cores[i].busy_kind = StallKind::Busy;
                self.cores[i].phase = Phase::BusyUntil(self.now + 1);
                StallKind::Busy
            }
        }
    }

    fn start_commit(&mut self, i: usize) -> StallKind {
        let key = self.cores[i].key.expect("commit inside a transaction");
        let dp = self.cfg.design.delay_persistence();
        let mut ulog_words = Vec::new();
        let mut ulog_count = 0u32;
        if self.cfg.design.is_morlog() {
            self.walk_ext_sets(i, |s, set| {
                s.hierarchy.l1_set_for_each_mut(i, set, |line| {
                    let addr = line.addr;
                    let data = line.data;
                    let Some(ext) = line.ext.as_mut().filter(|e| e.owner == key) else {
                        return;
                    };
                    for w in 0..morlog_sim_core::WORDS_PER_LINE {
                        if ext.word_state[w] != WordLogState::ULog {
                            continue;
                        }
                        if dp {
                            // §III-C: redo data stay in the L1 line; the
                            // ulog counter goes into the commit record.
                            // (SkipUlogBump sabotages exactly this bump
                            // for the checker's mutation self-test.)
                            if s.cfg.mutation != morlog_sim_core::CheckMutation::SkipUlogBump {
                                ulog_count += 1;
                            }
                        } else {
                            ulog_words.push(UlogWord {
                                addr: addr.word_addr(w),
                                value: data.word(w),
                                dirty_mask: ext.dirty_flags[w],
                            });
                            ext.word_state[w] = WordLogState::URLog;
                            s.tracer.emit(s.now, || TraceEvent::WordTransition {
                                key,
                                addr: addr.word_addr(w).as_u64(),
                                from: WordStateTag::ULog,
                                to: WordStateTag::URLog,
                            });
                        }
                    }
                });
            });
        }
        self.lc
            .start_commit(key, ulog_words, ulog_count, self.now, &self.mc);
        if dp {
            // Instant commit (§III-C).
            self.finish_commit(i);
            StallKind::Busy
        } else {
            self.cores[i].phase = Phase::WaitCommit;
            StallKind::CommitWait
        }
    }

    fn finish_commit(&mut self, i: usize) {
        let key = self.cores[i].key.expect("commit inside a transaction");
        let dp = self.cfg.design.delay_persistence();
        if self.cfg.design.is_morlog() {
            let trace_on = self.tracer.is_enabled();
            self.walk_ext_sets(i, |s, set| {
                s.hierarchy.l1_set_for_each_mut(i, set, |line| {
                    let addr = line.addr;
                    let Some(ext) = line.ext.as_mut().filter(|e| e.owner == key) else {
                        return;
                    };
                    if dp {
                        // ULog words keep buffering redo data after commit;
                        // fully-persisted words go back to Clean.
                        for w in 0..morlog_sim_core::WORDS_PER_LINE {
                            if ext.word_state[w] != WordLogState::ULog
                                && ext.word_state[w] != WordLogState::Dirty
                            {
                                if trace_on && ext.word_state[w] == WordLogState::URLog {
                                    s.tracer.emit(s.now, || TraceEvent::WordTransition {
                                        key,
                                        addr: addr.word_addr(w).as_u64(),
                                        from: WordStateTag::URLog,
                                        to: WordStateTag::Clean,
                                    });
                                }
                                ext.word_state[w] = WordLogState::Clean;
                                ext.dirty_flags[w] = 0;
                            }
                        }
                    } else {
                        if trace_on {
                            for w in 0..morlog_sim_core::WORDS_PER_LINE {
                                if ext.word_state[w] == WordLogState::URLog {
                                    s.tracer.emit(s.now, || TraceEvent::WordTransition {
                                        key,
                                        addr: addr.word_addr(w).as_u64(),
                                        from: WordStateTag::URLog,
                                        to: WordStateTag::Clean,
                                    });
                                }
                            }
                        }
                        ext.reset();
                    }
                });
            });
        }
        if self.cfg.log.truncation == morlog_sim_core::config::TruncationPolicy::TransactionTable {
            self.tx_table.on_commit(key, self.now);
        }
        self.oracle.mark_committed(key);
        self.committed += 1;
        self.cores[i].tx_idx += 1;
        self.cores[i].op_idx = 0;
        self.cores[i].tx_began = false;
        self.cores[i].phase = Phase::BusyUntil(self.now + 1);
    }

    /// A commit walk over core `i`'s L1: calls `visit` on each set in the
    /// core's [`SetMask`], in ascending order, and drops from the mask
    /// every visited set whose lines `visit` left inert. Visiting the
    /// other sets would change nothing, which debug builds check.
    fn walk_ext_sets(&mut self, i: usize, mut visit: impl FnMut(&mut Self, usize)) {
        debug_assert!(
            (0..self.hierarchy.l1_sets()).all(|set| self.cores[i].ext_sets.contains(set)
                || self.hierarchy.l1_set(i, set).all(walk_inert)),
            "core {i}'s L1 holds log state outside its commit-walk mask"
        );
        for word in 0..self.cores[i].ext_sets.words.len() {
            let mut bits = self.cores[i].ext_sets.words[word];
            while bits != 0 {
                let set = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(self, set);
                if self.hierarchy.l1_set(i, set).all(walk_inert) {
                    self.cores[i].ext_sets.remove(set);
                }
            }
        }
    }

    /// Installs a fault-injection plan on the memory controller (see
    /// [`FaultPlan`]). Must be set before the run so the controller tracks
    /// in-flight write payloads from the first write on.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.mc.set_fault_plan(plan);
    }

    /// Monotone persist-event count: NVMM program acceptances so far (see
    /// [`MemoryController::persist_events`]).
    ///
    /// [`MemoryController::persist_events`]: morlog_nvm::controller::MemoryController::persist_events
    pub fn persist_events(&self) -> u64 {
        self.mc.persist_events()
    }

    /// Starts persist-domain hash sampling (the checker's reference run).
    /// Call before [`run`](System::run).
    pub fn enable_persist_hash(&mut self) {
        self.mc.enable_persist_hash();
    }

    /// Persist-domain hash samples: entry `i` is the fold right after
    /// persist event `i + 1` (empty unless sampling was enabled).
    pub fn persist_hash_samples(&self) -> &[u64] {
        self.mc.persist_hash_samples()
    }

    /// Starts persist-event metadata recording (the checker's
    /// partial-order-reduction reference run). Call before
    /// [`run`](System::run).
    pub fn enable_persist_meta(&mut self) {
        self.mc.enable_persist_meta();
    }

    /// Recorded persist-event metadata stream (empty unless recording was
    /// enabled via [`enable_persist_meta`](System::enable_persist_meta)).
    pub fn persist_event_meta(&self) -> &[morlog_sim_core::persist::PersistEventMeta] {
        self.mc.persist_event_meta()
    }

    /// Arms a persist-event crash point (see
    /// [`MemoryController::arm_crash_at`]); drive the run with
    /// [`run_until_crash_point`](System::run_until_crash_point).
    ///
    /// [`MemoryController::arm_crash_at`]: morlog_nvm::controller::MemoryController::arm_crash_at
    pub fn arm_crash_at(&mut self, n: u64) {
        self.mc.arm_crash_at(n);
    }

    /// Advances the system until an armed crash point freezes the
    /// controller, returning `true` — or until the workload finishes and
    /// quiesces without ever reaching it, returning `false` (the crash
    /// point lies beyond the run's total persist events).
    ///
    /// [`run`](System::run) cannot be used here: its progress watchdog
    /// would (correctly) trip on the deliberate stall a frozen controller
    /// induces. The post-completion drain is stepped too, because the
    /// reference schedule includes quiesce-time persist events.
    ///
    /// # Panics
    ///
    /// Panics if the system stops making progress with the crash point
    /// still unreached (an engine bug, surfaced loudly).
    pub fn run_until_crash_point(&mut self) -> bool {
        let deadline = self.now + 200_000_000;
        while !self.finished() {
            if self.mc.crash_point_reached() {
                return true;
            }
            self.advance(deadline, |s| !s.finished() && !s.mc.crash_point_reached());
            assert!(
                self.now < deadline,
                "crash-point replay stalled without reaching its target"
            );
        }
        while !self.log_quiescent() {
            if self.mc.crash_point_reached() {
                return true;
            }
            self.advance(deadline, |s| {
                !s.log_quiescent() && !s.mc.crash_point_reached()
            });
            assert!(
                self.now < deadline,
                "crash-point replay failed to quiesce past the last event"
            );
        }
        self.mc.crash_point_reached()
    }

    /// Crash injection: volatile state (caches, log buffers, in-flight
    /// commits) vanishes; the NVMM image and the log ring — including the
    /// ADR-protected write queue, flushed by the ADR circuitry — survive.
    /// An active fault plan may damage in-flight log slots during that
    /// flush (torn drains, escaped bit flips); see
    /// [`MemoryController::crash_persist`].
    ///
    /// [`MemoryController::crash_persist`]: morlog_nvm::controller::MemoryController::crash_persist
    pub fn crash(&mut self) {
        self.mc.crash_persist();
        self.hierarchy.invalidate_all();
        self.lc.on_crash();
        self.tx_table.clear();
        self.pending_writebacks.clear();
        self.writeback_refused = None;
        for core in &mut self.cores {
            core.phase = Phase::Done;
        }
    }

    /// Runs the §III-E recovery routine over the surviving log ring.
    pub fn recover(&mut self) -> RecoveryOutcome {
        recover(&mut self.mc, self.cfg.design.delay_persistence())
    }

    /// Runs recovery but loses power again after `apply_budget` replay
    /// writes (double-crash modelling). The log survives an interrupted
    /// pass, so a later [`recover`](System::recover) can finish the job.
    ///
    /// # Errors
    ///
    /// [`LogError::PowerLoss`] when the budget runs out before the last
    /// replay write.
    pub fn recover_interrupted(
        &mut self,
        apply_budget: usize,
    ) -> Result<RecoveryOutcome, LogError> {
        recover_interrupted(
            &mut self.mc,
            self.cfg.design.delay_persistence(),
            apply_budget,
        )
    }

    /// Checks atomic persistence against the oracle after crash+recovery.
    ///
    /// Strict durability (every program-observed commit survives) is
    /// asserted for the synchronous designs — unless a crash-time fault
    /// was injected, in which case recovery may soundly demote damaged
    /// transactions and the oracle only requires a consistent prefix.
    ///
    /// # Errors
    ///
    /// Returns the oracle's description of the first violated word.
    pub fn verify_recovery(&self, report: &RecoveryOutcome) -> Result<(), String> {
        let strict =
            !self.cfg.design.delay_persistence() && !self.mc.stats().crash_faults_injected();
        self.oracle.verify(&self.mc, report, strict)
    }
}

/// The attribution account of a stalled store.
fn stall_kind(why: StoreStall) -> StallKind {
    match why {
        StoreStall::Buffer => StallKind::LogBufferStall,
        StoreStall::WriteQueue => StallKind::WqStall,
    }
}
