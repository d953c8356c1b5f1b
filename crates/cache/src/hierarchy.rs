//! The three-level hierarchy of Table III: private L1/L2 per core, shared
//! inclusive L3.
//!
//! Design notes (documented deviations are in `DESIGN.md` §6):
//!
//! * A line has at most one private (L1/L2) copy at a time; an access from
//!   another core migrates it. The paper's workloads partition writable
//!   data between threads (isolation comes from software locking, §III-A),
//!   so migrations are rare and a directory protocol would add nothing the
//!   evaluation measures.
//! * The L3 is inclusive: evicting an L3 line back-invalidates the private
//!   copies, surfacing the freshest data for the memory writeback. This is
//!   the "evicted by the LLC" event morphable logging listens to when it
//!   discards redo-buffer entries (§III-B).
//! * Evictions are reported as ordered [`EvictionEvent`]s so the logging
//!   controller can act on an L1 eviction (create/flush log entries)
//!   *before* the corresponding memory writeback is enqueued. Accesses and
//!   fills push them into a buffer the caller owns and reuses, so the
//!   access path allocates nothing.
//! * Lines stay in the slots they were filled into ([`Cache`]); the L1
//!   accessors hand out lines in place, and the commit walks visit a set's
//!   lines MRU first, the order of the recency list, without touching it.

use morlog_sim_core::hash::IntHashSet;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase};
use morlog_sim_core::stats::CacheLevelStats;
use morlog_sim_core::trace::{TraceEvent, Tracer};
use morlog_sim_core::{Cycle, HierarchyConfig, LineAddr, LineData};

use crate::cache::Cache;
use crate::line::CacheLine;

/// Where an access hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the core's L1.
    L1Hit,
    /// Hit in the core's L2 (line promoted to L1).
    L2Hit,
    /// Hit in the shared L3 or migrated from another core's private caches.
    L3Hit,
    /// Missed everywhere; the caller must fetch memory and call
    /// [`Hierarchy::fill`].
    Miss,
}

impl AccessOutcome {
    /// Lookup latency in cycles for this outcome under `cfg` (the miss
    /// latency is the full traversal; memory time comes on top).
    pub fn latency(self, cfg: &HierarchyConfig) -> u64 {
        match self {
            AccessOutcome::L1Hit => cfg.l1.latency_cycles,
            AccessOutcome::L2Hit => cfg.l1.latency_cycles + cfg.l2.latency_cycles,
            AccessOutcome::L3Hit | AccessOutcome::Miss => {
                cfg.l1.latency_cycles + cfg.l2.latency_cycles + cfg.l3.latency_cycles
            }
        }
    }
}

/// An ordered eviction event produced by an access, fill or scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionEvent {
    /// A line left an L1 cache (capacity eviction or back-invalidation).
    /// Carries the line *with* its MorLog extensions so the logging
    /// controller can create redo entries for `ULog` words and flush
    /// pending undo+redo entries for `Dirty` words.
    L1Evicted(CacheLine),
    /// A dirty line left the LLC and must be written to memory. Morphable
    /// logging discards matching redo-buffer entries on this event.
    MemoryWriteback {
        /// The line's address.
        addr: LineAddr,
        /// The freshest data among the invalidated copies.
        data: LineData,
    },
}

/// The cache hierarchy.
///
/// # Example
///
/// ```
/// use morlog_cache::hierarchy::{AccessOutcome, Hierarchy};
/// use morlog_sim_core::{HierarchyConfig, LineAddr, LineData};
///
/// let mut h = Hierarchy::new(&HierarchyConfig::default(), 2);
/// let mut events = Vec::new();
/// let line = LineAddr::from_index(100);
/// assert_eq!(h.access(0, line, &mut events), AccessOutcome::Miss);
/// h.fill(0, line, LineData::zeroed(), &mut events);
/// assert_eq!(h.access(0, line, &mut events), AccessOutcome::L1Hit);
/// assert!(events.is_empty(), "nothing was evicted");
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    stats: [CacheLevelStats; 3],
    /// Observability sink (disabled by default; see [`set_tracer`]).
    ///
    /// [`set_tracer`]: Hierarchy::set_tracer
    tracer: Tracer,
    /// Cycle stamp for emitted events; the hierarchy itself is untimed, so
    /// the engine refreshes this via [`set_now`](Hierarchy::set_now).
    now: Cycle,
}

impl Hierarchy {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cfg: &HierarchyConfig, cores: usize) -> Self {
        assert!(cores > 0, "hierarchy needs at least one core");
        Hierarchy {
            cfg: *cfg,
            l1: (0..cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
            stats: [CacheLevelStats::default(); 3],
            tracer: Tracer::disabled(),
            now: 0,
        }
    }

    /// Installs the shared trace handle (see [`morlog_sim_core::trace`]).
    /// Emits memory-writeback and force-write-back scan events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Refreshes the cycle stamp used for emitted events. The engine calls
    /// this once per simulated cycle before driving hierarchy operations.
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// The geometry in effect.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Per-level counters (`[L1, L2, L3]`, summed over cores).
    pub fn stats(&self) -> &[CacheLevelStats; 3] {
        &self.stats
    }

    /// Number of cores the hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Accesses `addr` from `core`, promoting the line into the core's L1
    /// and appending the evictions this causes to `events`, in order. On
    /// [`AccessOutcome::Miss`] the line is *not* resident; fetch memory and
    /// call [`fill`].
    ///
    /// [`fill`]: Hierarchy::fill
    pub fn access(
        &mut self,
        core: usize,
        addr: LineAddr,
        events: &mut Vec<EvictionEvent>,
    ) -> AccessOutcome {
        hostprof::count(HostCounter::CacheLookups, 1);
        let _prof = hostprof::scope(HostPhase::CacheHierarchy);
        if self.l1[core].get_mut(addr).is_some() {
            self.stats[0].hits += 1;
            return AccessOutcome::L1Hit;
        }
        self.stats[0].misses += 1;
        if let Some(line) = self.l2[core].remove(addr) {
            self.stats[1].hits += 1;
            self.insert_l1(core, line, events);
            return AccessOutcome::L2Hit;
        }
        self.stats[1].misses += 1;
        // Another core's private copy? Migrate it (freshest data travels).
        for other in 0..self.l1.len() {
            if other == core {
                continue;
            }
            let migrated = self.l1[other]
                .remove(addr)
                .map(|l| (true, l))
                .or_else(|| self.l2[other].remove(addr).map(|l| (false, l)));
            if let Some((from_l1, line)) = migrated {
                self.stats[2].hits += 1;
                if from_l1 {
                    events.push(EvictionEvent::L1Evicted(line));
                }
                self.insert_l1(core, line.without_ext(), events);
                return AccessOutcome::L3Hit;
            }
        }
        if let Some(l3_line) = self.l3.get_mut(addr) {
            // Inclusive L3 keeps its copy; a clean copy is promoted.
            let promoted = CacheLine {
                ext: None,
                ..*l3_line
            };
            self.stats[2].hits += 1;
            self.insert_l1(core, promoted, events);
            return AccessOutcome::L3Hit;
        }
        self.stats[2].misses += 1;
        AccessOutcome::Miss
    }

    /// Installs a line fetched from memory into L3 and the core's L1,
    /// appending the evictions this causes to `events`, in order.
    pub fn fill(
        &mut self,
        core: usize,
        addr: LineAddr,
        data: LineData,
        events: &mut Vec<EvictionEvent>,
    ) {
        let _prof = hostprof::scope(HostPhase::CacheHierarchy);
        self.insert_l3(CacheLine::clean(addr, data), events);
        self.insert_l1(core, CacheLine::clean(addr, data), events);
    }

    /// Mutable view of a resident L1 line (for stores and log-state
    /// transitions). Returns `None` when the line is not in the core's L1.
    pub fn l1_line_mut(&mut self, core: usize, addr: LineAddr) -> Option<&mut CacheLine> {
        self.l1[core].get_mut(addr)
    }

    /// A resident L1 line that is already its set's MRU way: the lookup
    /// [`l1_line_mut`](Hierarchy::l1_line_mut) would make on it changes
    /// nothing. `None` otherwise.
    pub fn l1_mru_line(&self, core: usize, addr: LineAddr) -> Option<&CacheLine> {
        self.l1[core].peek_mru(addr)
    }

    /// The [`Cache::changes`] counter of `core`'s L1: while it stays put,
    /// so does every line [`l1_mru_line`](Hierarchy::l1_mru_line) returns.
    pub fn l1_changes(&self, core: usize) -> u64 {
        self.l1[core].changes()
    }

    /// Finds the L1 copy of `addr` across cores, promoting it to MRU in
    /// its set (one tag scan per core).
    pub fn find_l1(&mut self, addr: LineAddr) -> Option<(usize, &mut CacheLine)> {
        self.l1
            .iter_mut()
            .enumerate()
            .find_map(|(core, l1)| Some((core, l1.get_mut(addr)?)))
    }

    /// Number of sets in each L1 (every core's L1 has the same geometry).
    pub fn l1_sets(&self) -> usize {
        self.l1[0].sets()
    }

    /// The L1 set `addr` maps to.
    pub fn l1_set_index(&self, addr: LineAddr) -> usize {
        self.l1[0].set_index(addr)
    }

    /// The lines of one L1 set of one core, MRU first.
    pub fn l1_set(&self, core: usize, set: usize) -> impl Iterator<Item = &CacheLine> + '_ {
        self.l1[core].set_lines(set)
    }

    /// Calls `visit` on each line of one L1 set of one core mutably, MRU
    /// first, without touching LRU order (commit-time walks visit sets in
    /// ascending order, so their visit order is the L1's set/way order).
    pub fn l1_set_for_each_mut(
        &mut self,
        core: usize,
        set: usize,
        visit: impl FnMut(&mut CacheLine),
    ) {
        self.l1[core].for_each_set_line_mut(set, visit);
    }

    /// The force-write-back scan (§III-F): pass one sets the age flag on
    /// dirty lines; pass two (next scan) writes flagged dirty lines back
    /// without invalidating them. Returns the writebacks, freshest copy per
    /// address, L1-resident lines first.
    pub fn force_write_back_scan(&mut self) -> Vec<(LineAddr, LineData)> {
        let _prof = hostprof::scope(HostPhase::CacheHierarchy);
        let mut written = Vec::new();
        let mut seen = IntHashSet::default();
        let Hierarchy {
            l1,
            l2,
            l3,
            stats,
            tracer,
            now,
            ..
        } = self;
        let levels = [
            l1.as_mut_slice(),
            l2.as_mut_slice(),
            std::slice::from_mut(l3),
        ];
        for (level, caches) in levels.into_iter().enumerate() {
            for cache in caches {
                cache.for_each_line_mut(|line| {
                    if !line.dirty {
                        return;
                    }
                    if seen.contains(&line.addr) {
                        // A fresher copy was already written back; this
                        // stale copy is now clean with respect to memory.
                        line.dirty = false;
                        line.fwb_flag = false;
                        return;
                    }
                    if line.fwb_flag {
                        written.push((line.addr, line.data));
                        seen.insert(line.addr);
                        line.dirty = false;
                        line.fwb_flag = false;
                        stats[level].writebacks += 1;
                        let addr = line.addr.base().as_u64();
                        tracer.emit(*now, || TraceEvent::CacheWriteback {
                            level: level as u32,
                            line: addr,
                        });
                    } else {
                        line.fwb_flag = true;
                    }
                });
            }
        }
        let count = written.len() as u64;
        self.tracer
            .emit(self.now, || TraceEvent::FwbScan { writebacks: count });
        written
    }

    /// Drops all cached state (crash injection: SRAM is volatile).
    pub fn invalidate_all(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.l3.clear();
    }

    fn insert_l1(&mut self, core: usize, line: CacheLine, events: &mut Vec<EvictionEvent>) {
        if let Some(victim) = self.l1[core].insert(line) {
            if victim.addr != line.addr {
                self.stats[0].evictions += 1;
                events.push(EvictionEvent::L1Evicted(victim));
                self.insert_l2(core, victim.without_ext(), events);
            }
        }
    }

    fn insert_l2(&mut self, core: usize, line: CacheLine, events: &mut Vec<EvictionEvent>) {
        if let Some(victim) = self.l2[core].insert(line) {
            if victim.addr != line.addr {
                self.stats[1].evictions += 1;
                self.insert_l3(victim, events);
            } else if victim.dirty && !line.dirty {
                // Replaced a dirty stale copy with a clean one: keep dirty.
                self.l2[core]
                    .get_mut(line.addr)
                    .expect("just inserted")
                    .dirty = true;
            }
        }
    }

    fn insert_l3(&mut self, line: CacheLine, events: &mut Vec<EvictionEvent>) {
        if let Some(victim) = self.l3.insert(line.without_ext()) {
            if victim.addr == line.addr {
                if victim.dirty && !line.dirty {
                    self.l3.get_mut(line.addr).expect("just inserted").dirty = true;
                }
                return;
            }
            self.stats[2].evictions += 1;
            // Inclusive back-invalidation: gather the freshest copy.
            let mut freshest = victim;
            for core in 0..self.l1.len() {
                if let Some(l1_copy) = self.l1[core].remove(victim.addr) {
                    self.stats[0].evictions += 1;
                    events.push(EvictionEvent::L1Evicted(l1_copy));
                    if l1_copy.dirty {
                        freshest = l1_copy;
                    }
                }
                if let Some(l2_copy) = self.l2[core].remove(victim.addr) {
                    self.stats[1].evictions += 1;
                    if l2_copy.dirty && !freshest.dirty {
                        freshest = l2_copy;
                    }
                }
            }
            if freshest.dirty {
                self.stats[2].writebacks += 1;
                let addr = victim.addr.base().as_u64();
                self.tracer.emit(self.now, || TraceEvent::CacheWriteback {
                    level: 2,
                    line: addr,
                });
                events.push(EvictionEvent::MemoryWriteback {
                    addr: victim.addr,
                    data: freshest.data,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::CacheLevelConfig;

    fn tiny_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheLevelConfig {
                capacity_bytes: 256,
                ways: 2,
                latency_cycles: 4,
            },
            l2: CacheLevelConfig {
                capacity_bytes: 512,
                ways: 2,
                latency_cycles: 12,
            },
            l3: CacheLevelConfig {
                capacity_bytes: 1024,
                ways: 2,
                latency_cycles: 28,
            },
            force_write_back_period: 1000,
        }
    }

    /// Accesses `addr`, returning the outcome and the evictions.
    fn access(
        h: &mut Hierarchy,
        core: usize,
        addr: LineAddr,
    ) -> (AccessOutcome, Vec<EvictionEvent>) {
        let mut events = Vec::new();
        let outcome = h.access(core, addr, &mut events);
        (outcome, events)
    }

    /// Fills `addr`, returning the evictions.
    fn fill(h: &mut Hierarchy, core: usize, addr: LineAddr, data: LineData) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        h.fill(core, addr, data, &mut events);
        events
    }

    fn data(v: u64) -> LineData {
        let mut d = LineData::zeroed();
        d.set_word(0, v);
        d
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        let a = LineAddr::from_index(10);
        assert_eq!(access(&mut h, 0, a).0, AccessOutcome::Miss);
        fill(&mut h, 0, a, data(7));
        assert_eq!(access(&mut h, 0, a).0, AccessOutcome::L1Hit);
        assert_eq!(h.l1_line_mut(0, a).unwrap().data.word(0), 7);
    }

    #[test]
    fn latency_accumulates_by_level() {
        let cfg = tiny_cfg();
        assert_eq!(AccessOutcome::L1Hit.latency(&cfg), 4);
        assert_eq!(AccessOutcome::L2Hit.latency(&cfg), 16);
        assert_eq!(AccessOutcome::L3Hit.latency(&cfg), 44);
        assert_eq!(AccessOutcome::Miss.latency(&cfg), 44);
    }

    #[test]
    fn capacity_eviction_cascades_to_l2() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        // L1: 2 ways × 2 sets. Fill set 0 with lines 0, 2, then 4 evicts 0.
        for idx in [0u64, 2, 4] {
            fill(&mut h, 0, LineAddr::from_index(idx), data(idx));
        }
        let (outcome, _) = access(&mut h, 0, LineAddr::from_index(0));
        assert_eq!(outcome, AccessOutcome::L2Hit, "victim landed in L2");
    }

    #[test]
    fn eviction_events_are_ordered_l1_before_writeback() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        // Dirty a line, then overflow every level so it reaches memory.
        let a = LineAddr::from_index(0);
        fill(&mut h, 0, a, data(1));
        {
            let line = h.l1_line_mut(0, a).unwrap();
            line.dirty = true;
            line.data.set_word(0, 99);
        }
        let mut all_events = Vec::new();
        // L3: 2 ways × 8 sets; push many same-set lines (stride 8).
        for i in 1..=12u64 {
            let addr = LineAddr::from_index(i * 8);
            let (o, e) = access(&mut h, 0, addr);
            all_events.extend(e);
            if o == AccessOutcome::Miss {
                all_events.extend(fill(&mut h, 0, addr, data(0)));
            }
        }
        let l1_pos = all_events
            .iter()
            .position(|e| matches!(e, EvictionEvent::L1Evicted(l) if l.addr == a));
        let wb_pos = all_events.iter().position(|e| {
            matches!(e, EvictionEvent::MemoryWriteback { addr, data } if *addr == a && data.word(0) == 99)
        });
        let (l1_pos, wb_pos) = (
            l1_pos.expect("L1 eviction event for the dirty line"),
            wb_pos.expect("memory writeback with the freshest data"),
        );
        assert!(
            l1_pos < wb_pos,
            "L1 event {l1_pos} precedes writeback {wb_pos}"
        );
    }

    #[test]
    fn migration_between_cores_preserves_data() {
        let mut h = Hierarchy::new(&tiny_cfg(), 2);
        let a = LineAddr::from_index(5);
        fill(&mut h, 0, a, data(0));
        {
            let line = h.l1_line_mut(0, a).unwrap();
            line.dirty = true;
            line.data.set_word(0, 123);
        }
        let (outcome, events) = access(&mut h, 1, a);
        assert_eq!(outcome, AccessOutcome::L3Hit);
        assert!(matches!(&events[0], EvictionEvent::L1Evicted(l) if l.addr == a));
        assert_eq!(h.l1_line_mut(1, a).unwrap().data.word(0), 123);
        assert!(h.l1_line_mut(0, a).is_none());
    }

    #[test]
    fn force_write_back_is_two_phase() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        let a = LineAddr::from_index(3);
        fill(&mut h, 0, a, data(0));
        {
            let line = h.l1_line_mut(0, a).unwrap();
            line.dirty = true;
            line.data.set_word(0, 42);
        }
        assert!(
            h.force_write_back_scan().is_empty(),
            "first scan only flags"
        );
        let written = h.force_write_back_scan();
        assert_eq!(written, vec![(a, data(42))]);
        // Line remains resident and clean.
        let line = h.l1_line_mut(0, a).unwrap();
        assert!(!line.dirty);
        assert_eq!(line.data.word(0), 42);
        assert!(h.force_write_back_scan().is_empty(), "nothing left dirty");
    }

    #[test]
    fn fwb_redirty_restarts_aging() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        let a = LineAddr::from_index(3);
        fill(&mut h, 0, a, data(0));
        h.l1_line_mut(0, a).unwrap().dirty = true;
        h.force_write_back_scan(); // flags
        h.force_write_back_scan(); // writes back
        let line = h.l1_line_mut(0, a).unwrap();
        line.dirty = true; // new store re-dirties; flag was cleared
        line.fwb_flag = false;
        assert!(h.force_write_back_scan().is_empty(), "must age again first");
        assert_eq!(h.force_write_back_scan().len(), 1);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        fill(&mut h, 0, LineAddr::from_index(9), data(9));
        h.invalidate_all();
        assert_eq!(
            access(&mut h, 0, LineAddr::from_index(9)).0,
            AccessOutcome::Miss
        );
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut h = Hierarchy::new(&tiny_cfg(), 1);
        let a = LineAddr::from_index(1);
        access(&mut h, 0, a);
        fill(&mut h, 0, a, data(0));
        access(&mut h, 0, a);
        assert_eq!(h.stats()[0].hits, 1);
        assert_eq!(h.stats()[0].misses, 1);
        assert_eq!(h.stats()[2].misses, 1);
    }
}
