//! Host-performance profiler: RAII-scoped wall-time phases, hot-path op
//! counters, and per-phase allocation attribution.
//!
//! The cycle engine's raw host speed is the main scaling constraint for the
//! reproduction (ROADMAP item 1), but the simulator's own metrics only
//! attribute *simulated* cycles.  This module measures where *host*
//! wall-time goes.  Components wrap their hot sections in [`scope`] guards
//! tagged with a fixed [`HostPhase`]; the profiler charges elapsed
//! wall-time exclusively to the innermost active phase, so the sum over all
//! recorded phase paths never exceeds the total wall-time of the enclosing
//! run.  Nested scopes produce hierarchical paths (for example
//! `checker_replay;core_issue;cache_hierarchy`), which export directly as
//! flamegraph-compatible folded stacks.
//!
//! # Gating
//!
//! Profiling is controlled by the `MORLOG_HOSTPROF` environment variable,
//! read through [`crate::knobs`] on first use (malformed values terminate
//! the process with exit code 2, like every other knob).  When
//! disabled — the default — every instrumentation site costs a single
//! relaxed atomic load and a branch, keeping the overhead within the same
//! ≤2% budget the tracer obeys.  Benchmarks that always profile (the
//! `perf_report` bin) call [`force_enable`] after the strict parse.
//!
//! # Allocator integration
//!
//! [`note_alloc`] is designed to be callable from a `#[global_allocator]`
//! implementation: it touches only const-initialised `Cell` thread-locals
//! (no lazy initialisation, no destructors, no interior allocation), so it
//! can never recurse into the allocator or poison a `RefCell`.  Allocations
//! are attributed to the phase current on the allocating thread, or to the
//! `unscoped` bucket when no scope is active.
//!
//! # Harvesting
//!
//! [`take`] drains the calling thread's accumulated profile into a
//! [`HostProfile`] and resets the thread-local state.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Number of distinct [`HostPhase`] values.
pub const HOST_PHASE_COUNT: usize = 8;

/// Number of allocation-attribution slots: one per phase plus the
/// `unscoped` bucket for allocations made outside any scope.
pub const ALLOC_SLOTS: usize = HOST_PHASE_COUNT + 1;

/// Maximum scope-nesting depth recorded in a phase path.  Deeper nesting is
/// truncated to the first `MAX_PATH_DEPTH` frames (time is still charged).
pub const MAX_PATH_DEPTH: usize = 8;

/// Number of distinct [`HostCounter`] values.
pub const HOST_COUNTER_COUNT: usize = 4;

/// Label used for the allocation slot that collects allocations made while
/// no profiling scope is active on the thread.
pub const UNSCOPED_LABEL: &str = "unscoped";

/// A fixed taxonomy of host-side work phases.
///
/// Each phase names one component's hot section; the enum is closed on
/// purpose so that phase tables, folded stacks, and the `host_perf` result
/// schema stay stable across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HostPhase {
    /// Per-core instruction issue in the system stepping loop.
    CoreIssue = 0,
    /// Cache-hierarchy lookups, fills, and forced write-back scans.
    CacheHierarchy = 1,
    /// Memory-controller ticks and write-queue traffic.
    MemController = 2,
    /// Logging-controller work: store interception, write-backs, commits.
    Logging = 3,
    /// Log-entry and data-block encoding in the NVM module codec.
    Encoding = 4,
    /// Post-crash log replay and recovery.
    Recovery = 5,
    /// Crash-point replay driven by the model checker / fuzzer.
    CheckerReplay = 6,
    /// Trace emission and periodic metric sampling overhead.
    TraceOverhead = 7,
}

impl HostPhase {
    /// All phases, in stable schema order.
    pub const ALL: [HostPhase; HOST_PHASE_COUNT] = [
        HostPhase::CoreIssue,
        HostPhase::CacheHierarchy,
        HostPhase::MemController,
        HostPhase::Logging,
        HostPhase::Encoding,
        HostPhase::Recovery,
        HostPhase::CheckerReplay,
        HostPhase::TraceOverhead,
    ];

    /// Stable snake_case label used in result schemas and folded stacks.
    pub fn label(self) -> &'static str {
        match self {
            HostPhase::CoreIssue => "core_issue",
            HostPhase::CacheHierarchy => "cache_hierarchy",
            HostPhase::MemController => "mem_controller",
            HostPhase::Logging => "logging",
            HostPhase::Encoding => "encoding",
            HostPhase::Recovery => "recovery",
            HostPhase::CheckerReplay => "checker_replay",
            HostPhase::TraceOverhead => "trace_overhead",
        }
    }

    fn from_index(idx: u8) -> Option<HostPhase> {
        HostPhase::ALL.get(idx as usize).copied()
    }
}

/// Hot-path operation counters incremented alongside the phase scopes.
///
/// These are deterministic for a given simulation input (unlike wall
/// times), so they diff exactly across machines and shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HostCounter {
    /// Cycles the engine stepped. Cycles that next-event skipping jumps
    /// over are not counted, so this is at most the simulated cycle count.
    EventsSimulated = 0,
    /// Write-queue entries accepted by the memory controller (data + log).
    WqOps = 1,
    /// Cache-hierarchy lookups issued by the cores.
    CacheLookups = 2,
    /// Log-entry appends accepted by the memory controller.
    LogAppends = 3,
}

impl HostCounter {
    /// All counters, in stable schema order.
    pub const ALL: [HostCounter; HOST_COUNTER_COUNT] = [
        HostCounter::EventsSimulated,
        HostCounter::WqOps,
        HostCounter::CacheLookups,
        HostCounter::LogAppends,
    ];

    /// Stable snake_case label used in result schemas.
    pub fn label(self) -> &'static str {
        match self {
            HostCounter::EventsSimulated => "events_simulated",
            HostCounter::WqOps => "wq_ops",
            HostCounter::CacheLookups => "cache_lookups",
            HostCounter::LogAppends => "log_appends",
        }
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

const NO_PHASE: u8 = u8::MAX;

struct AllocCells {
    count: [Cell<u64>; ALLOC_SLOTS],
    bytes: [Cell<u64>; ALLOC_SLOTS],
}

thread_local! {
    // Const-initialised, destructor-free thread-locals: safe to touch from
    // inside a global allocator without risking lazy-init recursion.
    static CUR_PHASE: Cell<u8> = const { Cell::new(NO_PHASE) };
    static ALLOC_TL: AllocCells = const {
        AllocCells {
            count: [const { Cell::new(0) }; ALLOC_SLOTS],
            bytes: [const { Cell::new(0) }; ALLOC_SLOTS],
        }
    };
    static SCOPES: RefCell<ScopeState> = RefCell::new(ScopeState::new());
}

struct ScopeState {
    /// Stack of (phase index, instant of last charge) for active scopes.
    stack: Vec<(u8, Instant)>,
    /// Exclusive nanoseconds charged per phase path.
    paths: BTreeMap<[u8; MAX_PATH_DEPTH], u64>,
    counters: [u64; HOST_COUNTER_COUNT],
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            stack: Vec::new(),
            paths: BTreeMap::new(),
            counters: [0; HOST_COUNTER_COUNT],
        }
    }

    fn path_key(&self) -> [u8; MAX_PATH_DEPTH] {
        let mut key = [NO_PHASE; MAX_PATH_DEPTH];
        for (i, (phase, _)) in self.stack.iter().take(MAX_PATH_DEPTH).enumerate() {
            key[i] = *phase;
        }
        key
    }

    fn charge(&mut self, ns: u64) {
        if ns == 0 {
            return;
        }
        let key = self.path_key();
        *self.paths.entry(key).or_insert(0) += ns;
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = crate::knobs::hostprof();
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether host profiling is enabled, initialising from the environment on
/// first call.  Malformed `MORLOG_HOSTPROF` values terminate the process
/// with exit code 2.  The steady-state cost is one relaxed load and a
/// branch.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_OFF => false,
        STATE_ON => true,
        _ => init_from_env(),
    }
}

/// Non-initialising fast check used by the global allocator.  Returns
/// `false` until the state has been resolved by [`enabled`] or
/// [`force_enable`], guaranteeing the allocator can never trigger the
/// (allocating) environment lookup from inside an allocation.
#[inline]
pub fn enabled_fast() -> bool {
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Enable profiling regardless of the environment (used by `perf_report`
/// and tests).  Call [`enabled`] first if strict env validation is wanted.
pub fn force_enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Disable profiling regardless of the environment (test hook).
pub fn force_disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// RAII guard for a profiling scope; created by [`scope`].
///
/// While the guard is live, wall-time on the current thread is charged to
/// this phase (and allocations are attributed to it).  Dropping the guard
/// charges the elapsed time to the full phase path and resumes the parent
/// scope.  Guards must be dropped in LIFO order, which Rust's drop order
/// provides naturally; they are `!Send` so a scope cannot migrate threads.
pub struct ScopeGuard {
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a profiling scope for `phase` on the current thread.
///
/// When profiling is disabled this is a single branch and returns an inert
/// guard.  Entering a nested scope charges the parent's elapsed time to the
/// parent path first, so recorded times are *exclusive* per path.
#[inline]
pub fn scope(phase: HostPhase) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard {
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    scope_slow(phase)
}

#[cold]
fn scope_slow(phase: HostPhase) -> ScopeGuard {
    let entered = SCOPES
        .try_with(|s| {
            let mut st = s.borrow_mut();
            let now = Instant::now();
            if let Some((_, since)) = st.stack.last().copied() {
                let ns = now.duration_since(since).as_nanos() as u64;
                st.charge(ns);
                if let Some(top) = st.stack.last_mut() {
                    top.1 = now;
                }
            }
            st.stack.push((phase as u8, now));
        })
        .is_ok();
    if entered {
        let _ = CUR_PHASE.try_with(|c| c.set(phase as u8));
    }
    ScopeGuard {
        active: entered,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopeGuard {
    /// Inlined, so an inert guard's drop is one branch and no call.
    #[inline]
    fn drop(&mut self) {
        if self.active {
            close_scope();
        }
    }
}

/// Closes the innermost active scope: the out-of-line half of
/// [`ScopeGuard`]'s drop.
#[cold]
fn close_scope() {
    let _ = SCOPES.try_with(|s| {
        let mut st = s.borrow_mut();
        let now = Instant::now();
        // Charge the closing scope with the full path (including its own
        // frame) before popping it.
        if let Some((_, since)) = st.stack.last().copied() {
            let ns = now.duration_since(since).as_nanos() as u64;
            st.charge(ns);
        }
        st.stack.pop();
        let parent = st.stack.last_mut().map(|top| {
            top.1 = now;
            top.0
        });
        let _ = CUR_PHASE.try_with(|c| c.set(parent.unwrap_or(NO_PHASE)));
    });
}

/// Increment a hot-path operation counter by `n`.  One branch when
/// profiling is disabled.
#[inline]
pub fn count(counter: HostCounter, n: u64) {
    if !enabled() {
        return;
    }
    let _ = SCOPES.try_with(|s| s.borrow_mut().counters[counter as usize] += n);
}

/// Record an allocation of `bytes` against the current phase.
///
/// Safe to call from a `#[global_allocator]`: touches only const-initialised
/// `Cell` thread-locals, never allocates, and tolerates thread-teardown.
#[inline]
pub fn note_alloc(bytes: usize) {
    if !enabled_fast() {
        return;
    }
    let slot = match CUR_PHASE.try_with(Cell::get) {
        Ok(NO_PHASE) | Err(_) => ALLOC_SLOTS - 1,
        Ok(phase) => phase as usize,
    };
    let _ = ALLOC_TL.try_with(|a| {
        a.count[slot].set(a.count[slot].get() + 1);
        a.bytes[slot].set(a.bytes[slot].get() + bytes as u64);
    });
}

/// Drain the calling thread's accumulated profile, resetting the
/// thread-local state.
///
/// Time accumulated since the last charge point of any *still-open* scope
/// is not included; harvest between top-level runs (with no scopes active)
/// for exact attribution.
pub fn take() -> HostProfile {
    let (paths, counters) = SCOPES.with(|s| {
        let mut st = s.borrow_mut();
        // Flush in-progress scopes up to now so long-lived outer scopes do
        // not silently lose time, then restart their charge clocks.
        let now = Instant::now();
        if let Some((_, since)) = st.stack.last().copied() {
            let ns = now.duration_since(since).as_nanos() as u64;
            st.charge(ns);
            if let Some(top) = st.stack.last_mut() {
                top.1 = now;
            }
        }
        (
            std::mem::take(&mut st.paths),
            std::mem::take(&mut st.counters),
        )
    });
    let (alloc_count, alloc_bytes) = ALLOC_TL.with(|a| {
        let mut count = [0u64; ALLOC_SLOTS];
        let mut bytes = [0u64; ALLOC_SLOTS];
        for i in 0..ALLOC_SLOTS {
            count[i] = a.count[i].replace(0);
            bytes[i] = a.bytes[i].replace(0);
        }
        (count, bytes)
    });
    HostProfile {
        paths,
        counters,
        alloc_count,
        alloc_bytes,
    }
}

/// An immutable snapshot of one thread's host-profiling state, produced by
/// [`take`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    paths: BTreeMap<[u8; MAX_PATH_DEPTH], u64>,
    counters: [u64; HOST_COUNTER_COUNT],
    alloc_count: [u64; ALLOC_SLOTS],
    alloc_bytes: [u64; ALLOC_SLOTS],
}

impl HostProfile {
    /// True when no time, counters, or allocations were recorded.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
            && self.counters.iter().all(|&c| c == 0)
            && self.alloc_count.iter().all(|&c| c == 0)
            && self.alloc_bytes.iter().all(|&c| c == 0)
    }

    /// Total profiled wall-time in nanoseconds (sum over all phase paths).
    ///
    /// Because charges are exclusive, this never exceeds the wall-time of
    /// the enclosing run on a single thread.
    pub fn total_ns(&self) -> u64 {
        self.paths.values().sum()
    }

    /// Exclusive nanoseconds per phase, attributing each path's time to its
    /// innermost (leaf) phase.  Sums to [`total_ns`](HostProfile::total_ns).
    pub fn phase_ns(&self) -> [u64; HOST_PHASE_COUNT] {
        let mut out = [0u64; HOST_PHASE_COUNT];
        for (key, ns) in &self.paths {
            let leaf = key.iter().take_while(|&&p| p != NO_PHASE).last();
            if let Some(&leaf) = leaf {
                if (leaf as usize) < HOST_PHASE_COUNT {
                    out[leaf as usize] += ns;
                }
            }
        }
        out
    }

    /// Value of one hot-path counter.
    pub fn counter(&self, counter: HostCounter) -> u64 {
        self.counters[counter as usize]
    }

    /// All hot-path counters in [`HostCounter::ALL`] order.
    pub fn counters(&self) -> [u64; HOST_COUNTER_COUNT] {
        self.counters
    }

    /// Allocation counts per slot: [`HostPhase::ALL`] order, then the
    /// `unscoped` bucket last.
    pub fn alloc_count(&self) -> [u64; ALLOC_SLOTS] {
        self.alloc_count
    }

    /// Allocated bytes per slot: [`HostPhase::ALL`] order, then the
    /// `unscoped` bucket last.
    pub fn alloc_bytes(&self) -> [u64; ALLOC_SLOTS] {
        self.alloc_bytes
    }

    /// Label for allocation slot `slot` (a phase label or
    /// [`UNSCOPED_LABEL`]).
    pub fn alloc_slot_label(slot: usize) -> &'static str {
        HostPhase::ALL
            .get(slot)
            .map(|p| p.label())
            .unwrap_or(UNSCOPED_LABEL)
    }

    /// Total allocations across all slots.
    pub fn alloc_count_total(&self) -> u64 {
        self.alloc_count.iter().sum()
    }

    /// Total allocated bytes across all slots.
    pub fn alloc_bytes_total(&self) -> u64 {
        self.alloc_bytes.iter().sum()
    }

    /// Render the phase paths as flamegraph-folded lines:
    /// `prefix;phase[;phase...] <ns>` (or without the `prefix;` part when
    /// `prefix` is empty).  One line per recorded path, in stable order;
    /// counts are exclusive nanoseconds.
    pub fn folded_lines(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::with_capacity(self.paths.len());
        for (key, ns) in &self.paths {
            let mut stack = String::new();
            if !prefix.is_empty() {
                stack.push_str(prefix);
            }
            for &idx in key.iter().take_while(|&&p| p != NO_PHASE) {
                if let Some(phase) = HostPhase::from_index(idx) {
                    if !stack.is_empty() {
                        stack.push(';');
                    }
                    stack.push_str(phase.label());
                }
            }
            if stack.is_empty() {
                continue;
            }
            out.push(format!("{stack} {ns}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_unique() {
        let mut labels: Vec<&str> = HostPhase::ALL.iter().map(|p| p.label()).collect();
        labels.extend(HostCounter::ALL.iter().map(|c| c.label()));
        labels.push(UNSCOPED_LABEL);
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len(), "duplicate phase/counter label");
    }

    #[test]
    fn folded_lines_render_paths() {
        let mut p = HostProfile::default();
        let mut key = [NO_PHASE; MAX_PATH_DEPTH];
        key[0] = HostPhase::CheckerReplay as u8;
        p.paths.insert(key, 500);
        key[1] = HostPhase::CoreIssue as u8;
        p.paths.insert(key, 250);
        let lines = p.folded_lines("morlog;hash");
        // Nested path sorts first: its second frame (0) precedes the
        // NO_PHASE terminator (255) of the bare path.
        assert_eq!(
            lines,
            vec![
                "morlog;hash;checker_replay;core_issue 250".to_string(),
                "morlog;hash;checker_replay 500".to_string(),
            ]
        );
        let bare = p.folded_lines("");
        assert_eq!(bare[0], "checker_replay;core_issue 250");
    }
}
