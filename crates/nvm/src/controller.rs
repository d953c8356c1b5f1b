//! The FRFCFS-WQF memory controller of Table III.
//!
//! Four channels, eight banks each, a 64-entry write queue per channel with
//! an 80 % drain watermark: reads have priority until the write queue
//! crosses the watermark, then the channel drains writes (blocking reads)
//! until occupancy falls to the low mark. Bank service times come from the
//! NVMM module's DCW cost for writes and the flat Table III array latency
//! for reads; there is no row-buffer model because the paper's device table
//! specifies flat latencies.
//!
//! The write queue is the ADR persist-domain boundary (§III-A): writes are
//! applied to the functional store at *acceptance*, and queue/bank state
//! models timing only.

use std::collections::VecDeque;

use morlog_encoding::slde::{EncodingChoice, SldeCodec};
use morlog_log::record::{Record, RecordKind, TxTag};
use morlog_log::ring::{Entry, Ring};
use morlog_sim_core::fault::FaultPlan;
use morlog_sim_core::hash::IntHashMap;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::metrics::LogWriteMetrics;
use morlog_sim_core::persist::{PersistEventKind, PersistEventMeta};
use morlog_sim_core::stats::MemStats;
use morlog_sim_core::trace::{TraceEvent, Tracer};
use morlog_sim_core::{Addr, Cycle, Frequency, LineAddr, LineData, MemConfig};

use crate::layout::{line_to_channel_bank, MemoryMap, Region};
use crate::log::{StoredRecord, ARRAY_SLOTS};
use crate::module::{log_slot_key, NvmmModule, ServicedWrite};

/// Identifies an outstanding read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadTicket(u64);

/// Why a log append could not be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogAppendError {
    /// The target channel's write queue is full; retry next cycle.
    WqFull,
    /// The log ring is out of space; truncation must run first (§III-A
    /// overflow handling).
    RingFull,
}

#[derive(Debug, Clone)]
struct PendingWrite {
    service_cycles: Cycle,
    /// Global acceptance order — the deterministic fault-injection site.
    accept_seq: u64,
    payload: WritePayload,
}

/// What an in-flight write carries, for the fault model. Tracked only while
/// a fault plan is active; plain timing runs queue [`WritePayload::Untracked`]
/// entries and behave exactly as before.
#[derive(Debug, Clone)]
enum WritePayload {
    /// No fault plan: the queue entry models timing only.
    Untracked,
    /// An in-place data-line write (drain-verified, never torn: a data line
    /// is one atomic row program under the ADR flush circuitry).
    Data { data: LineData },
    /// A log-slot write: the slot's words, for drain-verify read-back and
    /// crash-time damage rolls.
    Log {
        slice: usize,
        offset: u64,
        key: TxTag,
        /// Home line of the logged word (write-ahead gating).
        data_line: LineAddr,
        /// Whether the slot carries undo data the home line depends on.
        is_undo: bool,
        data_words: usize,
        slot_key: u64,
        /// Slot words in program order: `[meta0, meta1, timestamp, data...]`.
        words: [u64; 5],
        nwords: u8,
    },
}

/// Incremental persist-domain state hash, maintained only while the
/// crash-point model checker's reference run records its schedule.
///
/// `state` is an XOR-fold over persist-domain locations (data lines and
/// live log slots): a functional mutation updates it in O(1) by XORing
/// out the location's old hash and XORing in the new one. Because XOR
/// deltas commute, the fold is exact relative to its enable-time baseline
/// — two samples are equal iff nothing in the persist domain changed
/// between them (modulo 64-bit collisions). Log truncation between
/// persist events XORs the deleted slots out, so a crash point after a
/// truncation is never pruned as equivalent to one before it.
#[derive(Debug, Clone, Default)]
struct HashTrace {
    /// Current XOR-fold of the persist domain.
    state: u64,
    /// `samples[i]` = `state` immediately after persist event `i + 1`.
    samples: Vec<u64>,
}

/// SplitMix64 finalizer: the bijective mixer used to hash persist-domain
/// locations (independent of the fault plan's site rolls).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Location hash of one data line's contents.
fn hash_line(line: LineAddr, data: &LineData) -> u64 {
    let mut h = mix64(line.index() ^ 0xD1B5_4A32_D192_ED03);
    for i in 0..morlog_sim_core::WORDS_PER_LINE {
        h = mix64(h ^ data.word(i).wrapping_add(i as u64));
    }
    h
}

/// Location hash of one live log slot.
fn hash_record(slice: usize, slot: &Entry<StoredRecord>) -> u64 {
    let mut h = mix64((slice as u64) << 48 ^ slot.offset ^ 0x2545_F491_4F6C_DD1D);
    let (words, n) = slot.value.record.payload_array();
    for w in &words[..n] {
        h = mix64(h ^ w);
    }
    h
}

#[derive(Debug, Clone)]
struct PendingRead {
    ticket: ReadTicket,
    enqueued: Cycle,
}

/// A channel's read or write queue, held as one FIFO per bank. Every
/// entry carries its arrival number, and every entry of a bank waits on
/// the same bank timers, so the first entry in queue order whose bank is
/// free is the lowest-numbered head of a free bank: issue and
/// [`Channel::next_issue`] look at one head per bank instead of scanning
/// the queue.
#[derive(Debug, Clone)]
struct BankQueues<T> {
    banks: Vec<VecDeque<(u64, T)>>,
    /// Arrival number of each bank's head; `u64::MAX` for an empty bank.
    heads: Vec<u64>,
    next_seq: u64,
    len: usize,
}

impl<T> BankQueues<T> {
    fn new(banks: usize) -> Self {
        BankQueues {
            banks: (0..banks).map(|_| VecDeque::new()).collect(),
            heads: vec![u64::MAX; banks],
            next_seq: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, bank: usize, entry: T) {
        let q = &mut self.banks[bank];
        if q.is_empty() {
            self.heads[bank] = self.next_seq;
        }
        q.push_back((self.next_seq, entry));
        self.next_seq += 1;
        self.len += 1;
    }

    /// Removes the first entry in queue order whose bank `free` accepts,
    /// with its bank.
    fn pop_first_free(&mut self, free: impl Fn(usize) -> bool) -> Option<(usize, T)> {
        if self.len == 0 {
            return None;
        }
        let (mut first, mut at) = (u64::MAX, 0);
        for (bank, &seq) in self.heads.iter().enumerate() {
            if seq < first && free(bank) {
                (first, at) = (seq, bank);
            }
        }
        if first == u64::MAX {
            return None;
        }
        let q = &mut self.banks[at];
        let (_, entry) = q.pop_front()?;
        self.heads[at] = q.front().map_or(u64::MAX, |&(seq, _)| seq);
        self.len -= 1;
        Some((at, entry))
    }

    /// The least `at(bank)` over the banks with a queued entry;
    /// `Cycle::MAX` when the queue is empty.
    fn min_over_banks(&self, at: impl Fn(usize) -> Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        if self.len == 0 {
            return next;
        }
        for (bank, &seq) in self.heads.iter().enumerate() {
            if seq != u64::MAX {
                next = next.min(at(bank));
            }
        }
        next
    }

    /// Every queued entry, bank by bank.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.banks.iter().flatten().map(|(_, entry)| entry)
    }

    /// Empties the queue, appending its entries to `out` in queue order.
    fn drain_into(&mut self, out: &mut Vec<T>) {
        let mut all: Vec<(u64, T)> = self.banks.iter_mut().flat_map(|q| q.drain(..)).collect();
        all.sort_unstable_by_key(|&(seq, _)| seq);
        out.extend(all.into_iter().map(|(_, entry)| entry));
        self.heads.fill(u64::MAX);
        self.len = 0;
    }
}

#[derive(Debug, Clone)]
struct Channel {
    read_q: BankQueues<PendingRead>,
    write_q: BankQueues<PendingWrite>,
    /// When each bank finishes its current *read* occupancy.
    read_busy_until: Vec<Cycle>,
    /// When each bank finishes its current write (extends when paused).
    write_busy_until: Vec<Cycle>,
    draining: bool,
    /// The earliest cycle at which a queued request finds its bank free:
    /// any queued read, and the queued writes when they may issue (the
    /// channel drains or has no reads waiting). `Cycle::MAX` when nothing
    /// can issue. Kept current by every change to the queues, the bank
    /// timers and `draining`, so neither [`MemoryController::tick`] nor
    /// [`MemoryController::next_event`] rescans the queues.
    next_issue: Cycle,
}

impl Channel {
    fn new(banks: usize) -> Self {
        Channel {
            read_q: BankQueues::new(banks),
            write_q: BankQueues::new(banks),
            read_busy_until: vec![0; banks],
            write_busy_until: vec![0; banks],
            draining: false,
            next_issue: Cycle::MAX,
        }
    }

    /// Whether queued writes may issue: reads have priority unless the
    /// channel drains.
    fn writes_eligible(&self) -> bool {
        self.draining || self.read_q.is_empty()
    }

    /// The cycle `bank` is free for a write: no write or read occupies it.
    fn write_free_at(&self, bank: usize) -> Cycle {
        self.write_busy_until[bank].max(self.read_busy_until[bank])
    }

    /// Recomputes [`Channel::next_issue`] from the bank heads.
    fn refresh_next_issue(&mut self) {
        let mut next = self
            .read_q
            .min_over_banks(|bank| self.read_busy_until[bank]);
        if self.writes_eligible() {
            next = next.min(self.write_q.min_over_banks(|bank| self.write_free_at(bank)));
        }
        self.next_issue = next;
    }

    fn push_read(&mut self, bank: usize, read: PendingRead) {
        self.read_q.push(bank, read);
        // A first waiting read also holds back the queued writes.
        self.refresh_next_issue();
    }

    fn push_write(&mut self, bank: usize, write: PendingWrite) {
        if self.writes_eligible() {
            self.next_issue = self.next_issue.min(self.write_free_at(bank));
        }
        self.write_q.push(bank, write);
    }

    /// Issues every request that finds its bank free at `now`, first-ready
    /// in queue order: a read whenever one is ready (write pausing lets it
    /// preempt an in-progress write on its bank, which slips by
    /// `read_cycles + pause_cycles`), and writes during drains or when no
    /// read waits. Reports each issued read with its done cycle and each
    /// issued write, in issue order.
    fn issue(
        &mut self,
        now: Cycle,
        read_cycles: Cycle,
        pause_cycles: Cycle,
        mut on_read: impl FnMut(PendingRead, Cycle),
        mut on_write: impl FnMut(PendingWrite),
    ) {
        loop {
            let mut issued = false;
            let read_busy = &self.read_busy_until;
            if let Some((bank, r)) = self.read_q.pop_first_free(|bank| read_busy[bank] <= now) {
                let done = now + read_cycles;
                self.read_busy_until[bank] = done;
                if self.write_busy_until[bank] > now {
                    // Pause the write: it resumes after the read.
                    self.write_busy_until[bank] += read_cycles + pause_cycles;
                }
                on_read(r, done);
                issued = true;
            }
            if self.writes_eligible() {
                let (read_busy, write_busy) = (&self.read_busy_until, &self.write_busy_until);
                let free = |bank: usize| write_busy[bank] <= now && read_busy[bank] <= now;
                if let Some((bank, w)) = self.write_q.pop_first_free(free) {
                    self.write_busy_until[bank] = now + w.service_cycles;
                    on_write(w);
                    issued = true;
                }
            }
            if !issued {
                break;
            }
        }
        self.refresh_next_issue();
    }
}

/// Service time charged to a bank for a write DCW found fully silent
/// (command/bus occupancy only), in nanoseconds.
const SILENT_WRITE_NS: f64 = 4.0;

/// Ring headroom kept free for commit records: data entries stop being
/// accepted below this margin so that commit records — which truncation
/// progress depends on — can always append (prevents the §III-A overflow
/// case from livelocking commit↔truncation).
const COMMIT_RESERVE_BYTES: u64 = 2048;

/// Overhead of pausing an in-progress iterative write to service a read
/// (write pausing, Qureshi et al. HPCA'10; modelled by NVMain), in
/// nanoseconds.
const WRITE_PAUSE_NS: f64 = 4.0;

/// The memory controller plus the devices behind it.
///
/// # Example
///
/// ```
/// use morlog_encoding::{cell::CellModel, slde::SldeCodec};
/// use morlog_nvm::controller::MemoryController;
/// use morlog_nvm::layout::MemoryMap;
/// use morlog_sim_core::{Frequency, LineData, MemConfig};
///
/// let cfg = MemConfig::default();
/// let map = MemoryMap::table_iii(cfg.log_region_bytes as u64);
/// let codec = SldeCodec::new(CellModel::table_iii());
/// let mut mc = MemoryController::new(cfg, Frequency::ghz(3.0), map, codec);
/// let line = map.data_base().line();
/// assert!(mc.try_write_data(line, LineData::zeroed(), 0));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: MemConfig,
    freq: Frequency,
    map: MemoryMap,
    module: NvmmModule,
    dram: IntHashMap<LineAddr, LineData>,
    /// Log slices: one for the paper's centralized log, several for the
    /// §III-F distributed (per-thread) variant.
    logs: Vec<Ring<StoredRecord>>,
    /// Bytes between the NVMM start addresses of consecutive slices.
    log_slice_stride: u64,
    /// Channel and bank of the slot each slice appends next; recomputed
    /// whenever the slice's tail or capacity moves.
    tail_place: Vec<(usize, usize)>,
    channels: Vec<Channel>,
    /// How many channels drain: kept wherever a channel's `draining` flips
    /// (the hysteresis in `tick`, and `crash_persist`), so
    /// [`any_channel_draining`](MemoryController::any_channel_draining)
    /// reads one count instead of scanning the channels.
    draining_channels: usize,
    /// NVMM read latency, DRAM read latency and the write-pause overhead,
    /// converted to cycles once at construction.
    read_cycles: Cycle,
    dram_read_cycles: Cycle,
    pause_cycles: Cycle,
    /// Reused buffer for the writes one [`tick`](MemoryController::tick)
    /// issues under an active fault plan (their write-verify pass runs
    /// after the issue loop).
    issued_writes: Vec<PendingWrite>,
    next_ticket: u64,
    done_reads: IntHashMap<ReadTicket, Cycle>,
    stats: MemStats,
    high_mark: usize,
    low_mark: usize,
    /// Fault-injection plan (inactive by default).
    fault_plan: FaultPlan,
    /// Monotonic write-acceptance counter: the fault site of each write.
    accept_seq: u64,
    /// Lifetime program count per log slot (keyed by slot_key), for the
    /// stuck-at wear-out model. Reset when a slot is remapped to a spare.
    wear: IntHashMap<u64, u32>,
    /// Observability sink (disabled by default; see [`set_tracer`]).
    ///
    /// [`set_tracer`]: MemoryController::set_tracer
    tracer: Tracer,
    /// Cycle of the most recent [`tick`], used to stamp trace events from
    /// un-timed entry points (truncation, crash).
    ///
    /// [`tick`]: MemoryController::tick
    last_tick: Cycle,
    /// Per-kind log-entry size histograms and SLDE encoder-choice counts
    /// (always collected; see [`morlog_sim_core::metrics`]).
    log_metrics: LogWriteMetrics,
    /// Armed crash point: once `accept_seq` reaches this persist-event
    /// count the controller freezes — further accepts are refused through
    /// the ordinary backpressure paths (`false` / `WqFull`), pinning the
    /// persist domain to exactly the first `n` events. See
    /// [`arm_crash_at`](MemoryController::arm_crash_at).
    crash_at: Option<u64>,
    /// Persist-domain hash sampling (checker reference runs only).
    hash_trace: Option<HashTrace>,
    /// Persist-event metadata stream (checker reference runs only): one
    /// entry per acceptance, with truncation markers interleaved. Feeds
    /// the fuzz campaign's coverage buckets and the exhaustive mode's
    /// partial-order reduction.
    meta_trace: Option<Vec<PersistEventMeta>>,
    /// See [`state_version`](MemoryController::state_version).
    state_version: u64,
}

impl MemoryController {
    /// Builds the controller, devices and log ring for the given map.
    pub fn new(cfg: MemConfig, freq: Frequency, map: MemoryMap, codec: SldeCodec) -> Self {
        let banks = cfg.banks * cfg.ranks;
        let high_mark = ((cfg.write_queue_entries as f64) * cfg.drain_watermark).ceil() as usize;
        let low_mark = ((cfg.write_queue_entries as f64) * cfg.drain_low_mark).floor() as usize;
        let slices = cfg.log_slices.max(1) as u64;
        let slice_bytes = (map.log_bytes() / slices).next_multiple_of(64).max(64);
        let logs = (0..slices)
            .map(|i| {
                Ring::new(
                    ARRAY_SLOTS,
                    slice_bytes.min(map.log_bytes() - i * slice_bytes),
                )
            })
            .collect();
        let cycles = |ns| freq.ns_to_cycles(morlog_sim_core::NanoSeconds::new(ns));
        let mut mc = MemoryController {
            channels: (0..cfg.channels).map(|_| Channel::new(banks)).collect(),
            draining_channels: 0,
            read_cycles: cycles(cfg.read_latency_ns),
            dram_read_cycles: cycles(cfg.dram_latency_ns),
            pause_cycles: cycles(WRITE_PAUSE_NS),
            issued_writes: Vec::new(),
            module: NvmmModule::new(codec),
            dram: IntHashMap::default(),
            logs,
            log_slice_stride: slice_bytes,
            tail_place: Vec::new(),
            next_ticket: 0,
            done_reads: IntHashMap::default(),
            stats: MemStats::default(),
            high_mark,
            low_mark,
            fault_plan: FaultPlan::none(),
            accept_seq: 0,
            wear: IntHashMap::default(),
            tracer: Tracer::disabled(),
            last_tick: 0,
            log_metrics: LogWriteMetrics::default(),
            crash_at: None,
            hash_trace: None,
            meta_trace: None,
            state_version: 0,
            cfg,
            freq,
            map,
        };
        mc.tail_place = (0..mc.logs.len()).map(|s| mc.place_log_tail(s)).collect();
        mc
    }

    /// Installs the shared trace handle (see [`morlog_sim_core::trace`]).
    /// Emits write-queue accept/drain events, log appends and truncations.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The trace handle in effect (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cycle stamp of the most recent [`tick`](MemoryController::tick).
    /// Untimed entry points (truncation, crash, recovery) use it to stamp
    /// their trace events with the last simulated instant.
    pub fn last_tick(&self) -> Cycle {
        self.last_tick
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]). With the default
    /// [`FaultPlan::none`] the controller's behavior is bit-identical to the
    /// fault-free model.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The fault plan in effect.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether an active fault plan is installed.
    pub fn fault_active(&self) -> bool {
        self.fault_plan.is_active()
    }

    /// The address map in effect.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// Selects the secure-NVMM model (§IV-D) for log-data encoding.
    pub fn set_secure_mode(&mut self, mode: morlog_encoding::secure::SecureMode) {
        self.module.set_secure_mode(mode);
    }

    /// Device wear summary (see [`NvmmModule::wear_summary`]).
    pub fn wear_summary(&self) -> (u64, u64, usize) {
        self.module.wear_summary()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// All log slices (1 for the centralized log), one ring each.
    pub fn log_rings(&self) -> &[Ring<StoredRecord>] {
        &self.logs
    }

    /// The slice a thread's records go to.
    ///
    /// With `threads > log_slices` (the fig. 16 regime), several threads
    /// **share** one slice. This is safe despite the ring's
    /// single-producer design because the cycle engine serializes all
    /// appends through this controller — a slice sees one append at a
    /// time, in a deterministic global order, and recovery orders commits
    /// across slices by the commit-record timestamp rather than by ring
    /// position (§III-F). The 16-threads × 4-slices regression test in
    /// `morlog-sim` pins this down.
    pub fn log_slice_of(&self, thread: u8) -> usize {
        thread as usize % self.logs.len()
    }

    /// Functional read of any line (DRAM or NVMM). Recovery and the caches
    /// use this; timing is modelled separately by [`enqueue_read`].
    ///
    /// [`enqueue_read`]: MemoryController::enqueue_read
    pub fn read_line(&self, line: LineAddr) -> LineData {
        match self.map.region(line.base()) {
            Region::Dram => self.dram.get(&line).copied().unwrap_or_default(),
            Region::NvmmLog | Region::NvmmData => self.module.read_data_line(line),
        }
    }

    /// Stores an initial image (bypasses queues and timing), word by word
    /// in order: NVMM words through [`NvmmModule::preload`], to the state
    /// that [`read_line`], `set_word` and [`write_line_functional`] per
    /// word would leave.
    ///
    /// [`read_line`]: MemoryController::read_line
    /// [`write_line_functional`]: MemoryController::write_line_functional
    pub fn preload(&mut self, words: &[(Addr, u64)]) {
        if words.is_empty() {
            return; // no profiler scope for an empty image
        }
        let map = self.map;
        let in_dram = |addr: Addr| map.region(addr) == Region::Dram;
        for &(addr, value) in words.iter().filter(|&&(addr, _)| in_dram(addr)) {
            let line = self.dram.entry(addr.line()).or_default();
            line.set_word(addr.word_index(), value);
        }
        let nvmm = words.iter().copied().filter(|&(addr, _)| !in_dram(addr));
        self.module.preload(nvmm);
    }

    /// Functional write used by recovery (bypasses queues and timing).
    pub fn write_line_functional(&mut self, line: LineAddr, data: LineData) {
        match self.map.region(line.base()) {
            Region::Dram => {
                self.dram.insert(line, data);
            }
            Region::NvmmLog | Region::NvmmData => {
                self.module.write_data_line(line, data);
            }
        }
    }

    /// Starts a timed read of `line`; poll with [`take_if_done`].
    ///
    /// [`take_if_done`]: MemoryController::take_if_done
    pub fn enqueue_read(&mut self, line: LineAddr, now: Cycle) -> ReadTicket {
        let _prof = hostprof::scope(HostPhase::MemController);
        let ticket = ReadTicket(self.next_ticket);
        self.next_ticket += 1;
        match self.map.region(line.base()) {
            Region::Dram => {
                self.done_reads.insert(ticket, now + self.dram_read_cycles);
            }
            Region::NvmmLog | Region::NvmmData => {
                self.stats.nvmm_reads += 1;
                let (ch, bank) = self.place(line);
                if self.channels[ch].draining {
                    self.stats.reads_blocked_by_drain += 1;
                }
                self.channels[ch].push_read(
                    bank,
                    PendingRead {
                        ticket,
                        enqueued: now,
                    },
                );
            }
        }
        ticket
    }

    /// The cycle an issued read completes; `None` while it still waits in
    /// a read queue (or once its ticket was consumed).
    pub fn read_done_at(&self, ticket: ReadTicket) -> Option<Cycle> {
        self.done_reads.get(&ticket).copied()
    }

    /// Returns `true` (consuming the ticket) once the read has completed.
    pub fn take_if_done(&mut self, ticket: ReadTicket, now: Cycle) -> bool {
        match self.done_reads.get(&ticket) {
            Some(&cycle) if cycle <= now => {
                self.done_reads.remove(&ticket);
                true
            }
            _ => false,
        }
    }

    /// Attempts to accept a 64-byte data write. DRAM writes always succeed;
    /// NVMM writes fail (`false`) when the channel's write queue is full.
    pub fn try_write_data(&mut self, line: LineAddr, data: LineData, now: Cycle) -> bool {
        let _prof = hostprof::scope(HostPhase::MemController);
        match self.map.region(line.base()) {
            Region::Dram => {
                self.dram.insert(line, data);
                true
            }
            Region::NvmmLog | Region::NvmmData => {
                if self.crash_point_reached() {
                    // Armed crash point hit: the persist domain is frozen.
                    // Refuse through the ordinary backpressure path so the
                    // caller stalls exactly as on a full queue.
                    return false;
                }
                let (ch, bank) = self.place(line);
                if self.channels[ch].write_q.len() >= self.cfg.write_queue_entries {
                    return false;
                }
                // Write-ahead enforcement under fault injection: while an
                // undo-carrying slot for this line is still in some write
                // queue, a crash could tear it — so the in-place write the
                // undo protects must not become durable first. The caller
                // retries, exactly as for a full queue.
                if self.fault_plan.is_active() && self.line_has_undrained_undo(line) {
                    return false;
                }
                if let Some(ht) = &mut self.hash_trace {
                    let old = self.module.read_data_line(line);
                    ht.state ^= hash_line(line, &old) ^ hash_line(line, &data);
                }
                if self.meta_trace.is_some() {
                    let old = self.module.read_data_line(line);
                    let mut changed = 0u8;
                    for i in 0..morlog_sim_core::WORDS_PER_LINE {
                        if old.word(i) != data.word(i) {
                            changed |= 1 << i;
                        }
                    }
                    if let Some(mt) = &mut self.meta_trace {
                        mt.push(PersistEventMeta::Data {
                            line: line.index(),
                            changed,
                        });
                    }
                }
                let serviced = self.module.write_data_line(line, data);
                let occ = self.accept_write((ch, bank), &serviced, false, now, || {
                    WritePayload::Data { data }
                });
                if occ >= self.cfg.write_queue_entries {
                    self.state_version += 1; // the queue filled up
                }
                true
            }
        }
    }

    /// Attempts to append and persist a log record. On success the record is
    /// durable (it entered the ADR domain) and its NVMM write is queued.
    ///
    /// # Errors
    ///
    /// [`LogAppendError::WqFull`] when the slot's channel has no queue space;
    /// [`LogAppendError::RingFull`] when the ring needs truncation first.
    pub fn try_append_log(
        &mut self,
        record: Record,
        now: Cycle,
    ) -> Result<Entry<StoredRecord>, LogAppendError> {
        // Callers retry a refused append on every stepped cycle, so the
        // refusals are checked before the profiler scope opens: an active
        // scope costs more than the checks.
        if self.crash_point_reached() {
            // Armed crash point hit: freeze before any side effect (even
            // the overflow pre-grow), surfacing ordinary backpressure.
            return Err(LogAppendError::WqFull);
        }
        let key = record.tag;
        let slice = self.log_slice_of(key.thread);
        if self.needs_pre_grow(slice, record.kind) {
            let _prof = hostprof::scope(HostPhase::MemController);
            self.grow_log_slice(slice);
        }
        let (ch, bank) = self.tail_place[slice];
        if self.channels[ch].write_q.len() >= self.cfg.write_queue_entries {
            return Err(LogAppendError::WqFull);
        }
        let _prof = hostprof::scope(HostPhase::MemController);
        let kind = record.kind;
        let seal = |torn| StoredRecord::seal(record, torn);
        let slot = match self.logs[slice].append(kind, seal) {
            Some(slot) => *slot,
            None => {
                self.grow_log_slice(slice);
                *self.logs[slice]
                    .append(kind, seal)
                    .ok_or(LogAppendError::RingFull)?
            }
        };
        self.tail_place[slice] = self.place_log_tail(slice);
        let home = Addr::new(record.addr);
        if let Some(ht) = &mut self.hash_trace {
            ht.state ^= hash_record(slice, &slot);
        }
        if let Some(mt) = &mut self.meta_trace {
            mt.push(PersistEventMeta::Log {
                kind: match kind {
                    RecordKind::UndoRedo => PersistEventKind::UndoRedo,
                    RecordKind::Redo => PersistEventKind::Redo,
                    RecordKind::Commit => PersistEventKind::Commit,
                },
                key,
                addr: home,
                slice,
                offset: slot.offset,
            });
        }
        self.state_version += 1; // the ring changed
        let physical = self.logs[slice].position(slot.offset);
        let slot_key = log_slot_key(slice, physical);
        let serviced = self.module.write_log_record(&slot.value, slice, physical);
        self.log_metrics.entry_bits[LogWriteMetrics::kind_index(kind)]
            .record(serviced.cost.bits_programmed);
        self.accept_write((ch, bank), &serviced, true, now, || {
            let (words, nwords) = record.payload_array();
            WritePayload::Log {
                slice,
                offset: slot.offset,
                key,
                data_line: home.line(),
                is_undo: kind == RecordKind::UndoRedo,
                data_words: kind.data_words(),
                slot_key,
                words,
                nwords: nwords as u8,
            }
        });
        hostprof::count(HostCounter::LogAppends, 1);
        self.tracer.emit(now, || TraceEvent::LogAppend {
            slice: slice as u32,
            offset: slot.offset,
            kind,
            key,
        });
        Ok(slot)
    }

    /// Whether [`try_append_log`](MemoryController::try_append_log) would
    /// return [`LogAppendError::WqFull`] for `record` without touching any
    /// state: the controller is frozen at a crash point, or the slot's
    /// channel queue is full and no overflow pre-grow runs first. The
    /// answer holds until the next event [`next_event`] predicts, because
    /// only an issue frees queue space.
    ///
    /// [`next_event`]: MemoryController::next_event
    pub fn log_append_blocked(&self, record: &Record) -> bool {
        if self.crash_point_reached() {
            return true;
        }
        let slice = self.log_slice_of(record.tag.thread);
        if self.needs_pre_grow(slice, record.kind) {
            return false;
        }
        let (ch, _) = self.tail_place[slice];
        self.channels[ch].write_q.len() >= self.cfg.write_queue_entries
    }

    /// A counter that moves whenever anything
    /// [`log_append_blocked`](MemoryController::log_append_blocked) reads
    /// may have changed: which write queues are full, the log rings, and
    /// the armed crash point with the persist-event count it watches.
    /// While it stays put, so does every answer of `log_append_blocked`.
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    /// Whether a `kind` record appended to `slice` first grows the slice:
    /// data entries stop short of the commit-record reserve.
    fn needs_pre_grow(&self, slice: usize, kind: RecordKind) -> bool {
        kind != RecordKind::Commit
            && self.logs[slice].free_bytes() < COMMIT_RESERVE_BYTES + ARRAY_SLOTS.slot_bytes(kind)
    }

    /// Channel and bank of the next slot appended to `slice`, computed
    /// from the ring (callers read the cached `tail_place`).
    fn place_log_tail(&self, slice: usize) -> (usize, usize) {
        let log = &self.logs[slice];
        let offset = log.tail(); // close enough for placement (wrap skip shifts by <1 slot)
        let base = self.map.log_base().as_u64() + slice as u64 * self.log_slice_stride;
        self.place(Addr::new(base + log.position(offset)).line())
    }

    /// §III-A overflow prevention, option 2: extends `slice` with a
    /// temporary region instead of wedging the commit/truncation pipeline
    /// behind a full ring.
    fn grow_log_slice(&mut self, slice: usize) {
        let extra = self.logs[slice].capacity().max(4096);
        self.logs[slice].grow(extra);
        self.state_version += 1;
        self.tail_place[slice] = self.place_log_tail(slice);
        self.stats.log_overflow_growths += 1;
    }

    /// Accepts a serviced write into the write queue of `(channel, bank)`:
    /// accounts its cost, queues it with its recovery payload (built only
    /// while a fault plan is active) and emits `WqAccept`. Returns the
    /// queue's occupancy after the push.
    fn accept_write(
        &mut self,
        (ch, bank): (usize, usize),
        serviced: &ServicedWrite,
        is_log: bool,
        now: Cycle,
        payload: impl FnOnce() -> WritePayload,
    ) -> usize {
        self.account_write(&serviced.cost, is_log, &serviced.choices);
        let service_cycles = self.write_service_cycles(&serviced.cost);
        let payload = if self.fault_plan.is_active() {
            payload()
        } else {
            WritePayload::Untracked
        };
        let accept_seq = self.bump_accept_seq();
        self.channels[ch].push_write(
            bank,
            PendingWrite {
                service_cycles,
                accept_seq,
                payload,
            },
        );
        hostprof::count(HostCounter::WqOps, 1);
        let occ = self.channels[ch].write_q.len();
        self.tracer.emit(now, || TraceEvent::WqAccept {
            channel: ch as u32,
            occupancy: occ as u32,
            is_log,
        });
        occ
    }

    fn bump_accept_seq(&mut self) -> u64 {
        let seq = self.accept_seq;
        self.accept_seq += 1;
        if self.crash_at.is_some() {
            self.state_version += 1;
        }
        if let Some(ht) = &mut self.hash_trace {
            ht.samples.push(ht.state);
        }
        seq
    }

    /// Monotone count of persist events: NVMM program acceptances (data
    /// lines and log slots; DRAM writes are volatile and excluded). This
    /// is the event axis of the crash-point model checker.
    pub fn persist_events(&self) -> u64 {
        self.accept_seq
    }

    /// Arms a crash point: once [`persist_events`] reaches `n` the
    /// controller freezes — [`try_write_data`] returns `false` and
    /// [`try_append_log`] returns [`LogAppendError::WqFull`] *before* any
    /// functional apply, so the persist domain holds exactly the first
    /// `n` events. Poll [`crash_point_reached`], then call
    /// [`crash_persist`] to take the crash.
    ///
    /// [`persist_events`]: MemoryController::persist_events
    /// [`try_write_data`]: MemoryController::try_write_data
    /// [`try_append_log`]: MemoryController::try_append_log
    /// [`crash_point_reached`]: MemoryController::crash_point_reached
    /// [`crash_persist`]: MemoryController::crash_persist
    pub fn arm_crash_at(&mut self, n: u64) {
        self.crash_at = Some(n);
        self.state_version += 1;
    }

    /// Whether an armed crash point has been reached (the controller is
    /// frozen; see [`arm_crash_at`](MemoryController::arm_crash_at)).
    pub fn crash_point_reached(&self) -> bool {
        self.crash_at.is_some_and(|n| self.accept_seq >= n)
    }

    /// Starts persist-domain hash sampling (checker reference runs). The
    /// fold baseline is the enable-time state; deltas keep sample
    /// *equality* exact regardless of the baseline, which is all the
    /// equivalence pruning compares.
    pub fn enable_persist_hash(&mut self) {
        self.hash_trace = Some(HashTrace::default());
    }

    /// Persist-domain hash samples: entry `i` is the state hash right
    /// after persist event `i + 1`. Empty unless
    /// [`enable_persist_hash`](MemoryController::enable_persist_hash)
    /// was called.
    pub fn persist_hash_samples(&self) -> &[u64] {
        self.hash_trace.as_ref().map_or(&[], |ht| &ht.samples)
    }

    /// Starts persist-event metadata recording (checker reference runs):
    /// one [`PersistEventMeta`] entry per acceptance, with truncation
    /// markers interleaved where log records left the persist domain.
    pub fn enable_persist_meta(&mut self) {
        self.meta_trace = Some(Vec::new());
    }

    /// The recorded persist-event metadata stream. Empty unless
    /// [`enable_persist_meta`](MemoryController::enable_persist_meta) was
    /// called.
    pub fn persist_event_meta(&self) -> &[PersistEventMeta] {
        self.meta_trace.as_deref().unwrap_or(&[])
    }

    /// Whether any accepted-but-undrained undo-carrying log write covers
    /// `line` (see the gate in [`try_write_data`]).
    ///
    /// [`try_write_data`]: MemoryController::try_write_data
    fn line_has_undrained_undo(&self, line: LineAddr) -> bool {
        self.channels
            .iter()
            .flat_map(|c| c.write_q.iter())
            .any(|w| {
                matches!(
                    &w.payload,
                    WritePayload::Log { is_undo: true, data_line, .. } if *data_line == line
                )
            })
    }

    /// Whether any of `key`'s log records sit accepted-but-undrained in a
    /// write queue. Under an active fault plan the logging controller holds
    /// a synchronous commit's completion on this — otherwise a crash could
    /// tear a record of a transaction the program already saw commit.
    pub fn tx_has_undrained_records(&self, key: TxTag) -> bool {
        self.channels
            .iter()
            .flat_map(|c| c.write_q.iter())
            .any(|w| matches!(&w.payload, WritePayload::Log { key: k, .. } if *k == key))
    }

    /// Simulates the ADR flush at power loss. Every accepted write reaches
    /// the array, but an active fault plan may damage in-flight *log*
    /// slots: a torn drain persists only a prefix of a slot's data words
    /// (the truncated words read back erased), and escaped resistance
    /// drift flips a bit in a data word. Slot metadata headers and data
    /// lines are single atomic row programs and always land whole. With an
    /// inactive plan this only empties the queues — writes were applied
    /// functionally at acceptance.
    pub fn crash_persist(&mut self) {
        self.tracer.emit(self.last_tick, || TraceEvent::Crash);
        self.state_version += 1;
        let mut inflight = Vec::new();
        for ch in &mut self.channels {
            ch.write_q.drain_into(&mut inflight);
            ch.draining = false;
            ch.refresh_next_issue();
        }
        self.draining_channels = 0;
        if !self.fault_plan.is_active() {
            return;
        }
        for w in inflight {
            let WritePayload::Log {
                slice,
                offset,
                data_words,
                words,
                ..
            } = w.payload
            else {
                continue;
            };
            if data_words == 0 {
                continue;
            }
            if let Some(k) = self.fault_plan.torn_prefix(w.accept_seq, data_words) {
                if let Some(slot) = self.logs[slice].entry_mut(offset) {
                    slot.value.words_persisted = k as u8;
                    for i in k..data_words {
                        slot.value.record.set_data_word(i, 0);
                    }
                }
                self.stats.faults_torn_drains += 1;
                continue;
            }
            for i in 0..data_words {
                let j = 3 + i; // data words follow [meta0, meta1, timestamp]
                let site = w.accept_seq * 16 + j as u64;
                if let Some(flipped) = self.fault_plan.crash_flip_word(site, words[j]) {
                    self.corrupt_log_record(slice, offset, |r| r.set_data_word(i, flipped));
                    self.stats.faults_bit_flips += 1;
                }
            }
        }
    }

    /// Mutates a stored log record in place — array-level fault injection
    /// for tests and tooling. The sealed CRC is left stale, so recovery's
    /// integrity check sees whatever the mutator changed. Returns `false`
    /// when no live record sits at `offset` in `slice`.
    pub fn corrupt_log_record(
        &mut self,
        slice: usize,
        offset: u64,
        f: impl FnOnce(&mut Record),
    ) -> bool {
        let slot = self.logs[slice].entry_mut(offset);
        slot.map(|slot| f(&mut slot.value.record)).is_some()
    }

    /// Truncates one log slice up to `offset` (exclusive).
    pub fn truncate_log_slice(&mut self, slice: usize, offset: u64) {
        let old_head = self.logs[slice].head();
        self.drop_log_prefix(slice, offset);
        if offset != old_head {
            self.tracer
                .emit(self.last_tick, || TraceEvent::LogTruncate {
                    slice: slice as u32,
                    old_head,
                    new_head: offset,
                });
        }
    }

    /// Empties every log slice (end of recovery: all entries deleted by
    /// advancing the head pointers to the tails).
    pub fn clear_log(&mut self) {
        for slice in 0..self.logs.len() {
            self.drop_log_prefix(slice, self.logs[slice].tail());
        }
    }

    /// Moves `slice`'s head to `offset`. The deleted slots leave the
    /// persist-domain hash, so a crash point after the truncation is not
    /// pruned as equivalent to one before it, and the checker's metadata
    /// stream gets a `Truncate` marker naming them.
    fn drop_log_prefix(&mut self, slice: usize, offset: u64) {
        self.state_version += 1;
        let mut offsets = Vec::new();
        for slot in self.logs[slice].truncate_to(offset) {
            if let Some(ht) = &mut self.hash_trace {
                ht.state ^= hash_record(slice, &slot);
            }
            if self.meta_trace.is_some() {
                offsets.push(slot.offset);
            }
        }
        match &mut self.meta_trace {
            Some(mt) if !offsets.is_empty() => {
                mt.push(PersistEventMeta::Truncate { slice, offsets })
            }
            _ => {}
        }
    }

    /// Whether any channel's write queue is at or above the drain watermark.
    pub fn any_channel_draining(&self) -> bool {
        debug_assert_eq!(
            self.draining_channels,
            self.channels.iter().filter(|c| c.draining).count(),
            "draining-channel count"
        );
        self.draining_channels > 0
    }

    /// Total outstanding write-queue occupancy across channels.
    pub fn write_queue_occupancy(&self) -> usize {
        self.channels.iter().map(|c| c.write_q.len()).sum()
    }

    /// Per-kind log-entry size histograms and encoder-choice counts.
    pub fn log_metrics(&self) -> &LogWriteMetrics {
        &self.log_metrics
    }

    /// Bytes of live (un-truncated) log summed across all slices.
    pub fn log_used_bytes(&self) -> u64 {
        self.logs.iter().map(|l| l.used_bytes()).sum()
    }

    /// Records one cycle of a core stalled on a full write queue.
    pub fn note_wq_stall(&mut self) {
        self.stats.wq_full_stall_cycles += 1;
    }

    /// The earliest cycle `>= now` at which [`tick`] could do more than
    /// restamp [`last_tick`]: a channel's drain state flips, or a queued
    /// read or write finds its bank free. `Cycle::MAX` when every queue is
    /// empty.
    ///
    /// This is a lower bound, valid until something else enqueues work:
    /// the tick at the returned cycle may still issue nothing (a read
    /// issued first can pause the write that was due), but no earlier tick
    /// changes anything.
    ///
    /// [`tick`]: MemoryController::tick
    /// [`last_tick`]: MemoryController::last_tick
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for ch in &self.channels {
            if self.drain_flip_due(ch) {
                return now;
            }
            next = next.min(ch.next_issue);
        }
        next.max(now)
    }

    /// Whether `ch`'s write-queue occupancy has crossed the drain
    /// hysteresis mark its current state watches for.
    fn drain_flip_due(&self, ch: &Channel) -> bool {
        let occupancy = ch.write_q.len();
        (!ch.draining && occupancy >= self.high_mark) || (ch.draining && occupancy <= self.low_mark)
    }

    /// Accounts for ticks skipped up to and including `cycle`: by
    /// [`next_event`](MemoryController::next_event) they would have
    /// changed nothing but the [`last_tick`](MemoryController::last_tick)
    /// stamp.
    pub fn skip_idle_ticks(&mut self, cycle: Cycle) {
        self.last_tick = cycle;
    }

    /// Advances the controller by one cycle: updates drain state and issues
    /// ready requests to free banks.
    ///
    /// Reads may *pause* an in-progress write on their bank (write pausing:
    /// the iterative program-and-verify loop of PCM/RRAM can be suspended
    /// between iterations); the paused write's completion slips by the read
    /// duration plus a small resume overhead.
    pub fn tick(&mut self, now: Cycle) {
        let _prof = hostprof::scope(HostPhase::MemController);
        self.last_tick = now;
        let (read_cycles, pause_cycles) = (self.read_cycles, self.pause_cycles);
        let fault_active = self.fault_plan.is_active();
        for (ci, ch) in self.channels.iter_mut().enumerate() {
            // WQF drain hysteresis.
            let draining = ch.draining;
            if !ch.draining && ch.write_q.len() >= self.high_mark {
                ch.draining = true;
                self.stats.drains += 1;
                let occ = ch.write_q.len() as u32;
                self.tracer.emit(now, || TraceEvent::WqDrainStart {
                    channel: ci as u32,
                    occupancy: occ,
                });
            } else if ch.draining && ch.write_q.len() <= self.low_mark {
                ch.draining = false;
                let occ = ch.write_q.len() as u32;
                self.tracer.emit(now, || TraceEvent::WqDrainEnd {
                    channel: ci as u32,
                    occupancy: occ,
                });
            }
            if ch.draining != draining {
                ch.refresh_next_issue();
                if ch.draining {
                    self.draining_channels += 1;
                } else {
                    self.draining_channels -= 1;
                }
            }
            if ch.next_issue > now {
                continue; // no queued request finds its bank free yet
            }
            let (done_reads, stats, issued_writes) = (
                &mut self.done_reads,
                &mut self.stats,
                &mut self.issued_writes,
            );
            let was_full = ch.write_q.len() >= self.cfg.write_queue_entries;
            ch.issue(
                now,
                read_cycles,
                pause_cycles,
                |r, done| {
                    done_reads.insert(r.ticket, done);
                    stats.read_wait_cycles += done - r.enqueued;
                },
                |w| {
                    if fault_active {
                        issued_writes.push(w);
                    }
                },
            );
            self.state_version +=
                u64::from(was_full && ch.write_q.len() < self.cfg.write_queue_entries);
        }
        let mut issued_writes = std::mem::take(&mut self.issued_writes);
        for w in issued_writes.drain(..) {
            self.verify_issued_write(&w);
        }
        self.issued_writes = issued_writes;
    }

    /// The write-verify pass run as each write drains to its bank: read the
    /// words back, compare, and re-program on mismatch. Transient program
    /// disturb (a drain-time drift flip) is repaired by one retry; a worn
    /// slot whose cells stick fails every retry and is remapped to a spare,
    /// resetting its endurance counter. Verified writes therefore never
    /// leave damage behind — only *crash-time* faults on in-flight writes
    /// escape to recovery.
    fn verify_issued_write(&mut self, w: &PendingWrite) {
        match &w.payload {
            WritePayload::Untracked => {}
            WritePayload::Data { data } => {
                for i in 0..morlog_sim_core::WORDS_PER_LINE {
                    let site = w.accept_seq * 16 + i as u64;
                    if self
                        .fault_plan
                        .drain_flip_word(site, data.word(i))
                        .is_some()
                    {
                        self.stats.write_verify_failures += 1;
                        self.stats.write_verify_retries += 1;
                    }
                }
            }
            WritePayload::Log {
                slot_key,
                words,
                nwords,
                ..
            } => {
                let wear = {
                    let w = self.wear.entry(*slot_key).or_insert(0);
                    *w += 1;
                    *w
                };
                let stuck = self.fault_plan.slot_is_stuck(wear);
                let mut flipped = false;
                if !stuck {
                    for (i, &word) in words.iter().take(*nwords as usize).enumerate() {
                        let site = w.accept_seq * 16 + i as u64;
                        if self.fault_plan.drain_flip_word(site, word).is_some() {
                            flipped = true;
                            break;
                        }
                    }
                }
                if stuck {
                    self.stats.write_verify_failures += 1;
                    self.stats.write_verify_retries += self.cfg.write_retry_budget as u64;
                    self.stats.stuck_slots_remapped += 1;
                    self.wear.insert(*slot_key, 0);
                } else if flipped {
                    self.stats.write_verify_failures += 1;
                    self.stats.write_verify_retries += 1;
                }
            }
        }
    }

    fn place(&self, line: LineAddr) -> (usize, usize) {
        line_to_channel_bank(line, self.cfg.channels, self.cfg.banks * self.cfg.ranks)
    }

    fn write_service_cycles(&self, cost: &morlog_encoding::dcw::WriteCost) -> Cycle {
        let ns = if cost.is_silent() {
            morlog_sim_core::NanoSeconds::new(SILENT_WRITE_NS)
        } else {
            cost.latency
        };
        self.freq.ns_to_cycles(ns).max(1)
    }

    fn account_write(
        &mut self,
        cost: &morlog_encoding::dcw::WriteCost,
        is_log: bool,
        choices: &[EncodingChoice],
    ) {
        for choice in choices {
            let idx = match choice {
                EncodingChoice::Fpc => 0,
                EncodingChoice::Dldc => 1,
                EncodingChoice::DldcRaw => 2,
            };
            self.log_metrics.encoder_choices[idx] += 1;
        }
        self.stats.nvmm_writes += 1;
        if is_log {
            self.stats.log_writes += 1;
            self.stats.log_bits_programmed += cost.bits_programmed;
            self.stats.log_write_energy_pj += cost.energy.as_f64();
        } else {
            self.stats.data_writes += 1;
        }
        self.stats.cells_programmed += cost.cells_programmed;
        self.stats.bits_programmed += cost.bits_programmed;
        self.stats.write_energy_pj += cost.energy.as_f64();
        if cost.is_silent() {
            self.stats.silent_block_writes += 1;
        }
    }

    /// Builds a controller with the default map for `cfg` and the given
    /// codec (convenience for tests and the simulator).
    pub fn with_default_map(cfg: MemConfig, freq: Frequency, codec: SldeCodec) -> Self {
        let map = MemoryMap::table_iii(cfg.log_region_bytes as u64);
        MemoryController::new(cfg, freq, map, codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_encoding::cell::CellModel;

    fn mc() -> MemoryController {
        MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn tag() -> TxTag {
        TxTag::new(0, 0)
    }

    #[test]
    fn dram_reads_complete_quickly() {
        let mut m = mc();
        let t = m.enqueue_read(LineAddr::from_index(1), 0);
        assert!(!m.take_if_done(t, 10));
        assert!(m.take_if_done(t, 45)); // 15 ns at 3 GHz
        assert!(!m.take_if_done(t, 100), "ticket consumed");
    }

    #[test]
    fn nvmm_reads_need_a_tick() {
        let mut m = mc();
        let line = m.map().data_base().line();
        let t = m.enqueue_read(line, 0);
        m.tick(0);
        assert!(!m.take_if_done(t, 74));
        assert!(m.take_if_done(t, 75)); // 25 ns at 3 GHz
        assert_eq!(m.stats().nvmm_reads, 1);
    }

    #[test]
    fn writes_apply_functionally_at_acceptance() {
        let mut m = mc();
        let line = m.map().data_base().line();
        let mut d = LineData::zeroed();
        d.set_word(0, 99);
        assert!(m.try_write_data(line, d, 0));
        assert_eq!(m.read_line(line).word(0), 99, "ADR: durable at WQ accept");
        assert_eq!(m.stats().data_writes, 1);
    }

    #[test]
    fn write_queue_backpressure() {
        let mut m = mc();
        // Fill one channel's write queue without ticking.
        let base = m.map().data_base().line().index();
        let mut accepted = 0;
        let mut d = LineData::zeroed();
        for i in 0.. {
            d.set_word(0, i);
            // Same channel: stride by the channel count.
            let line = LineAddr::from_index(base + i * 4);
            if !m.try_write_data(line, d, 0) {
                break;
            }
            accepted += 1;
            assert!(accepted <= 64, "queue must cap at 64");
        }
        assert_eq!(accepted, 64);
        // Draining for a while frees space.
        for now in 0..100_000 {
            m.tick(now);
        }
        assert!(m.try_write_data(LineAddr::from_index(base), d, 100_000));
        assert!(m.stats().drains >= 1);
    }

    #[test]
    fn log_append_persists_and_costs() {
        let mut m = mc();
        let rec = Record::undo_redo(tag(), 0x40, 1, 2, 0xFF);
        let stored = m.try_append_log(rec, 0).unwrap();
        assert_eq!(stored.offset, 0);
        assert_eq!(m.stats().log_writes, 1);
        assert!(m.stats().log_bits_programmed > 0);
        assert_eq!(m.log_rings()[0].entries().count(), 1);
    }

    #[test]
    fn log_ring_full_surfaces_error() {
        // A filled slice grows a temporary overflow region (§III-A option 2)
        // instead of erroring; the growth is counted.
        // 64 log-region bytes = two undo+redo slots.
        let cfg = MemConfig {
            log_region_bytes: 64,
            ..Default::default()
        };
        let map = MemoryMap::new(1 << 20, 1 << 21, 64);
        let mut m = MemoryController::new(
            cfg,
            Frequency::ghz(3.0),
            map,
            SldeCodec::new(CellModel::table_iii()),
        );
        let rec = Record::undo_redo(tag(), 0x40, 1, 2, 0xFF);
        for _ in 0..8 {
            m.try_append_log(rec, 0).unwrap();
        }
        assert!(
            m.stats().log_overflow_growths >= 1,
            "slice grew under pressure"
        );
        assert_eq!(m.log_rings()[0].entries().count(), 8);
        // Truncation still works over the grown region.
        let head_target = m.log_rings()[0].entries().nth(2).unwrap().offset;
        m.truncate_log_slice(0, head_target);
        assert_eq!(m.log_rings()[0].entries().count(), 6);
    }

    #[test]
    fn drain_blocks_reads_until_low_mark() {
        let mut m = mc();
        let base = m.map().data_base().line().index();
        let mut d = LineData::zeroed();
        // Push the queue over the watermark (52 of 64).
        for i in 0..55 {
            d.set_word(0, i);
            assert!(m.try_write_data(LineAddr::from_index(base + i * 4), d, 0));
        }
        m.tick(0);
        assert!(m.any_channel_draining());
        let t = m.enqueue_read(LineAddr::from_index(base), 1);
        assert_eq!(m.stats().reads_blocked_by_drain, 1);
        // The read eventually completes once the drain ends.
        let mut done_at = None;
        for now in 1..2_000_000 {
            m.tick(now);
            if m.take_if_done(t, now) {
                done_at = Some(now);
                break;
            }
        }
        let done_at = done_at.expect("read must complete");
        assert!(
            done_at > 75,
            "read was delayed behind the drain, done at {done_at}"
        );
    }

    #[test]
    fn silent_data_write_counts_and_costs_little() {
        let mut m = mc();
        let line = m.map().data_base().line();
        let mut d = LineData::zeroed();
        d.set_word(3, 0xABCD);
        assert!(m.try_write_data(line, d, 0));
        assert!(m.try_write_data(line, d, 0)); // identical: silent
        assert_eq!(m.stats().silent_block_writes, 1);
        assert_eq!(m.stats().nvmm_writes, 2);
    }

    /// What slice 0's oldest live slot holds.
    fn first_slot(m: &MemoryController) -> StoredRecord {
        m.log_rings()[0].entries().next().unwrap().value
    }

    /// An always-active plan that injects nothing (huge endurance limit):
    /// turns the fault-mode bookkeeping on without damaging anything.
    fn inert_active_plan() -> FaultPlan {
        FaultPlan::worn_slots(0, u32::MAX)
    }

    #[test]
    fn fault_mode_gates_data_writes_behind_inflight_undo() {
        let mut m = mc();
        m.set_fault_plan(inert_active_plan());
        let line = LineAddr::from_index(m.map().data_base().line().index() + 8);
        let rec = Record::undo_redo(tag(), line.base().as_u64(), 1, 2, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        let mut d = LineData::zeroed();
        d.set_word(0, 2);
        assert!(
            !m.try_write_data(line, d, 0),
            "home-line write must wait for the in-flight undo slot"
        );
        // Another line is unaffected.
        assert!(m.try_write_data(LineAddr::from_index(line.index() + 16), d, 0));
        // Once the undo slot drains, the write goes through.
        for now in 0..200_000 {
            m.tick(now);
        }
        assert!(!m.tx_has_undrained_records(tag()));
        assert!(m.try_write_data(line, d, 200_000));
    }

    #[test]
    fn crash_persist_tears_only_data_words_of_inflight_slots() {
        let mut m = mc();
        let mut plan = FaultPlan::none();
        plan.torn_drain_per_mille = 1000; // every in-flight slot tears
        plan.fault_budget = Some(1);
        m.set_fault_plan(plan);
        let rec = Record::undo_redo(tag(), 0x40, 0xAA, 0xBB, 0xFF);
        let stored = m.try_append_log(rec, 0).unwrap();
        let commit = m.try_append_log(Record::commit(tag(), None), 0).unwrap();
        m.crash_persist();
        assert_eq!(m.stats().faults_torn_drains, 1);
        let [torn, c] = [stored, commit].map(|slot| {
            let live = m.log_rings()[0].entries().find(|s| s.offset == slot.offset);
            live.unwrap().value
        });
        assert!(torn.words_persisted < 2, "a tear keeps a strict prefix");
        assert!(!torn.crc_ok(), "truncated words break the CRC");
        assert_eq!(
            c.words_persisted, 0,
            "commit slots have no data words to tear"
        );
        assert!(c.crc_ok(), "meta-only slots land atomically");
    }

    #[test]
    fn crash_persist_flips_break_the_crc() {
        let mut m = mc();
        let mut plan = FaultPlan::none();
        plan.crash_flip_per_mille = 1000;
        plan.fault_budget = Some(1);
        m.set_fault_plan(plan);
        let rec = Record::undo_redo(tag(), 0x40, 0xAA, 0xBB, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        m.crash_persist();
        assert_eq!(m.stats().faults_bit_flips, 1);
        let slot = first_slot(&m);
        assert_eq!(slot.words_persisted, 2, "a flip is not a tear");
        assert!(!slot.crc_ok());
    }

    #[test]
    fn crash_persist_without_plan_changes_nothing() {
        let mut m = mc();
        let rec = Record::undo_redo(tag(), 0x40, 0xAA, 0xBB, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        m.crash_persist();
        assert_eq!(m.stats().faults_torn_drains, 0);
        let slot = first_slot(&m);
        assert_eq!(slot.words_persisted, 2);
        assert!(slot.crc_ok());
        assert_eq!(
            m.write_queue_occupancy(),
            0,
            "queues are emptied by the ADR flush"
        );
    }

    #[test]
    fn drain_flip_is_caught_and_repaired_by_write_verify() {
        let mut m = mc();
        let mut plan = FaultPlan::none();
        plan.drain_flip_per_mille = 1000;
        plan.fault_budget = Some(1);
        m.set_fault_plan(plan);
        let rec = Record::undo_redo(tag(), 0x40, 0xAA, 0xBB, 0xFF);
        let stored = m.try_append_log(rec, 0).unwrap();
        for now in 0..200_000 {
            m.tick(now);
        }
        assert_eq!(m.stats().write_verify_failures, 1);
        assert_eq!(m.stats().write_verify_retries, 1);
        assert_eq!(m.stats().stuck_slots_remapped, 0);
        // The repaired slot is undamaged.
        assert_eq!(first_slot(&m), stored.value);
        assert!(stored.value.crc_ok());
        assert_eq!(stored.value.words_persisted, 2);
    }

    #[test]
    fn worn_slot_burns_the_retry_budget_and_remaps() {
        let mut m = mc();
        m.set_fault_plan(FaultPlan::worn_slots(0, 1)); // every program sticks
        let rec = Record::undo_redo(tag(), 0x40, 0xAA, 0xBB, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        for now in 0..200_000 {
            m.tick(now);
        }
        assert_eq!(m.stats().write_verify_failures, 1);
        assert_eq!(
            m.stats().write_verify_retries,
            MemConfig::default().write_retry_budget as u64
        );
        assert_eq!(m.stats().stuck_slots_remapped, 1);
    }

    #[test]
    fn crash_point_freezes_persist_domain() {
        let mut m = mc();
        let base = m.map().data_base().line().index();
        let mut d = LineData::zeroed();
        d.set_word(0, 7);
        m.arm_crash_at(2);
        assert!(!m.crash_point_reached());
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        let rec = Record::undo_redo(tag(), 0x40, 1, 2, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        assert_eq!(m.persist_events(), 2);
        assert!(m.crash_point_reached());
        // Frozen: both accept paths refuse via ordinary backpressure, and
        // neither the array nor the log changes functionally.
        d.set_word(0, 99);
        assert!(!m.try_write_data(LineAddr::from_index(base), d, 1));
        assert!(matches!(
            m.try_append_log(rec, 1),
            Err(LogAppendError::WqFull)
        ));
        assert_eq!(m.persist_events(), 2);
        assert_eq!(m.read_line(LineAddr::from_index(base)).word(0), 7);
        assert_eq!(m.log_rings()[0].entries().count(), 1);
        // DRAM (volatile) writes stay unaffected and count no events.
        assert!(m.try_write_data(LineAddr::from_index(1), d, 1));
        assert_eq!(m.persist_events(), 2);
    }

    #[test]
    fn persist_hash_detects_real_changes_only() {
        let mut m = mc();
        m.enable_persist_hash();
        let base = m.map().data_base().line().index();
        let mut d = LineData::zeroed();
        d.set_word(0, 7);
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        // Rewriting identical data is a persist event with no state change:
        // the fold must repeat, flagging the point as prunable.
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        d.set_word(1, 8);
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        let s = m.persist_hash_samples().to_vec();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], s[1], "identical rewrite leaves hash unchanged");
        assert_ne!(s[1], s[2], "real change moves the hash");
    }

    #[test]
    fn persist_hash_sees_log_truncation() {
        let mut m = mc();
        m.enable_persist_hash();
        let rec = Record::undo_redo(tag(), 0x40, 1, 2, 0xFF);
        m.try_append_log(rec, 0).unwrap();
        let after_append = *m.persist_hash_samples().last().unwrap();
        let cut = m.log_rings()[0].tail();
        m.truncate_log_slice(0, cut);
        // Append an identical-content record at a new offset: distinct slot,
        // so the fold must differ from the pre-truncation state even though
        // the record payload repeats.
        m.try_append_log(rec, 0).unwrap();
        let after_requeue = *m.persist_hash_samples().last().unwrap();
        assert_ne!(after_append, after_requeue);
        // Clearing the log after the crash XORs everything back out.
        m.clear_log();
        assert_eq!(m.log_rings()[0].entries().count(), 0);
    }

    /// Regression guard for the checker's equivalence pruning: two
    /// consecutive persist events that would sample identically (a silent
    /// data rewrite) must NOT sample identically when a log truncation ran
    /// between them — the crash states straddle a head-pointer move, so
    /// pruning the later point would skip a genuinely new recovery input.
    #[test]
    fn truncation_between_identical_samples_blocks_pruning() {
        let mut m = mc();
        m.enable_persist_hash();
        let base = m.map().data_base().line().index();
        let mut d = LineData::zeroed();
        d.set_word(0, 7);
        m.try_append_log(Record::undo_redo(tag(), 0x40, 1, 2, 0xFF), 0)
            .unwrap();
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        // Control: a silent rewrite with no intervening truncation repeats
        // the sample (this is the pair pruning exists for).
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        let s = m.persist_hash_samples().to_vec();
        assert_eq!(s[1], s[2], "silent rewrite repeats the sample");
        // Now truncate the log, then rewrite silently again: the samples
        // bracketing the truncation must differ even though the data-line
        // event itself changed nothing.
        m.truncate_log_slice(0, m.log_rings()[0].tail());
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        let s = m.persist_hash_samples().to_vec();
        assert_ne!(
            s[2], s[3],
            "a truncation between identical samples must block pruning"
        );
    }

    #[test]
    fn persist_meta_records_kinds_changes_and_truncations() {
        let mut m = mc();
        m.enable_persist_meta();
        let base = m.map().data_base().line().index();
        let mut d = LineData::zeroed();
        d.set_word(0, 7);
        d.set_word(3, 9);
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        assert!(m.try_write_data(LineAddr::from_index(base), d, 0));
        let ur = m
            .try_append_log(Record::undo_redo(tag(), 0x40, 1, 2, 0xFF), 0)
            .unwrap();
        m.try_append_log(Record::commit(tag(), Some(1)), 0).unwrap();
        m.truncate_log_slice(0, m.log_rings()[0].tail());
        let meta = m.persist_event_meta().to_vec();
        assert_eq!(meta.len(), 5);
        assert!(
            matches!(meta[0], PersistEventMeta::Data { changed, .. } if changed == 0b0000_1001),
            "changed-word mask tracks the diff: {:?}",
            meta[0]
        );
        assert!(
            matches!(meta[1], PersistEventMeta::Data { changed: 0, .. }),
            "silent rewrite records an empty mask: {:?}",
            meta[1]
        );
        assert_eq!(meta[2].kind(), Some(PersistEventKind::UndoRedo));
        assert_eq!(meta[3].kind(), Some(PersistEventKind::Commit));
        match &meta[4] {
            PersistEventMeta::Truncate { slice: 0, offsets } => {
                assert!(offsets.contains(&ur.offset));
                assert_eq!(offsets.len(), 2);
            }
            other => panic!("expected truncation marker, got {other:?}"),
        }
        // DRAM writes are volatile: no meta entry.
        assert!(m.try_write_data(LineAddr::from_index(1), d, 1));
        assert_eq!(m.persist_event_meta().len(), 5);
    }
}

#[cfg(test)]
mod bank_queue_tests {
    use super::*;
    use morlog_sim_core::rng::DetRng;

    /// The channel the per-bank queues replaced: one FIFO per queue, each
    /// issue and each `next_issue` scanning it in order.
    struct RefChannel {
        read_q: VecDeque<(usize, PendingRead)>,
        write_q: VecDeque<(usize, PendingWrite)>,
        read_busy_until: Vec<Cycle>,
        write_busy_until: Vec<Cycle>,
        draining: bool,
    }

    impl RefChannel {
        fn writes_eligible(&self) -> bool {
            self.draining || self.read_q.is_empty()
        }

        fn next_issue(&self) -> Cycle {
            let mut next = Cycle::MAX;
            for (bank, _) in &self.read_q {
                next = next.min(self.read_busy_until[*bank]);
            }
            if self.writes_eligible() {
                for (bank, _) in &self.write_q {
                    next = next.min(self.write_busy_until[*bank].max(self.read_busy_until[*bank]));
                }
            }
            next
        }

        fn issue(
            &mut self,
            now: Cycle,
            read_cycles: Cycle,
            pause_cycles: Cycle,
        ) -> Vec<(u64, Cycle)> {
            let mut issued = Vec::new();
            loop {
                let mut any = false;
                let pos = self
                    .read_q
                    .iter()
                    .position(|(b, _)| self.read_busy_until[*b] <= now);
                if let Some((bank, r)) = pos.and_then(|pos| self.read_q.remove(pos)) {
                    let done = now + read_cycles;
                    self.read_busy_until[bank] = done;
                    if self.write_busy_until[bank] > now {
                        self.write_busy_until[bank] += read_cycles + pause_cycles;
                    }
                    issued.push((r.ticket.0, done));
                    any = true;
                }
                if self.writes_eligible() {
                    let pos = self.write_q.iter().position(|(b, _)| {
                        self.write_busy_until[*b] <= now && self.read_busy_until[*b] <= now
                    });
                    if let Some((bank, w)) = pos.and_then(|pos| self.write_q.remove(pos)) {
                        self.write_busy_until[bank] = now + w.service_cycles;
                        issued.push((u64::MAX - w.accept_seq, now + w.service_cycles));
                        any = true;
                    }
                }
                if !any {
                    return issued;
                }
            }
        }
    }

    fn write(accept_seq: u64, service_cycles: Cycle) -> PendingWrite {
        PendingWrite {
            service_cycles,
            accept_seq,
            payload: WritePayload::Untracked,
        }
    }

    /// Seeded pushes, drain flips and issue rounds on both channels: the
    /// same requests issue in the same order at the same cycles, and
    /// `next_issue` agrees after every step.
    fn matches_reference(banks: usize, seed: u64) {
        let mut rng = DetRng::new(seed);
        let mut ch = Channel::new(banks);
        let mut reference = RefChannel {
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            read_busy_until: vec![0; banks],
            write_busy_until: vec![0; banks],
            draining: false,
        };
        let (mut now, mut seq, mut issued) = (0, 0, 0);
        for step in 0..20_000 {
            match rng.gen_range(10) {
                0..=2 => {
                    let bank = rng.gen_range(banks as u64) as usize;
                    let read = PendingRead {
                        ticket: ReadTicket(seq),
                        enqueued: now,
                    };
                    seq += 1;
                    reference.read_q.push_back((bank, read.clone()));
                    ch.push_read(bank, read);
                }
                3..=6 => {
                    let bank = rng.gen_range(banks as u64) as usize;
                    let service = 1 + rng.gen_range(300);
                    reference.write_q.push_back((bank, write(seq, service)));
                    ch.push_write(bank, write(seq, service));
                    seq += 1;
                }
                7 => {
                    ch.draining = !ch.draining;
                    reference.draining = ch.draining;
                    ch.refresh_next_issue();
                }
                _ => {
                    now += rng.gen_range(120);
                    let want = reference.issue(now, 75, 12);
                    let got = std::cell::RefCell::new(Vec::new());
                    if ch.next_issue <= now {
                        ch.issue(
                            now,
                            75,
                            12,
                            |r, done| got.borrow_mut().push((r.ticket.0, done)),
                            |w| {
                                let done = now + w.service_cycles;
                                got.borrow_mut().push((u64::MAX - w.accept_seq, done));
                            },
                        );
                    }
                    assert_eq!(got.into_inner(), want, "issue order at step {step}");
                    issued += want.len();
                }
            }
            assert_eq!(
                ch.next_issue,
                reference.next_issue(),
                "next_issue at step {step}"
            );
            assert_eq!(ch.read_busy_until, reference.read_busy_until, "step {step}");
            assert_eq!(
                ch.write_busy_until, reference.write_busy_until,
                "step {step}"
            );
            assert_eq!(ch.read_q.len(), reference.read_q.len());
            assert_eq!(ch.write_q.len(), reference.write_q.len());
        }
        assert!(issued > 1000, "the queues issued ({issued})");
        let mut drained = Vec::new();
        ch.write_q.drain_into(&mut drained);
        let order: Vec<u64> = drained.iter().map(|w| w.accept_seq).collect();
        let want: Vec<u64> = reference
            .write_q
            .iter()
            .map(|(_, w)| w.accept_seq)
            .collect();
        assert_eq!(order, want, "a crash drains the write queue in queue order");
        assert!(ch.write_q.is_empty() && ch.write_q.min_over_banks(|_| 0) == Cycle::MAX);
    }

    #[test]
    fn per_bank_heads_match_linear_scan() {
        matches_reference(8, 0xBA4C);
        matches_reference(1, 0xBA4D);
        matches_reference(3, 0xBA4E);
    }
}
