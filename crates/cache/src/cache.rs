//! A generic set-associative, write-back, LRU cache whose lines stay put.
//!
//! A filled line keeps its slot until it is evicted or removed. LRU order
//! lives beside the slots, as a per-set recency list of way indices, MRU
//! first: a hit scans the set's tags and rotates at most `ways` bytes of
//! that list, and an insert writes one slot, instead of moving whole
//! lines.
//!
//! Storage grows with use. A set's tags and recency list are allocated on
//! its first fill, in blocks of `ways` appended to one arena, so a large,
//! sparsely used level (the 12.6 MB of L3 slots) costs only the sets a run
//! touches. A way's line slot is appended to the line arena on the way's
//! first fill, and a freed way is refilled before a fresh one, so each set
//! holds as many line slots as it ever held lines at once: the private L2s
//! of an SPS run hold one or two lines in most sets, and a full block of
//! slots per set would cost more than the per-set `Vec`s this layout
//! replaced.

use morlog_sim_core::{CacheLevelConfig, LineAddr};

use crate::line::CacheLine;

/// The tag of a free way. No byte address maps to this line index, so no
/// resident line has it.
const FREE: LineAddr = LineAddr::from_index(u64::MAX);

/// The block of a set, or the line slot of a way, not yet allocated.
const NONE: u32 = u32::MAX;

/// How many sets' ways the first fill reserves room for at once (a whole
/// Table III L1), sparing the arenas their smallest doublings.
const FIRST_SETS: usize = 64;

/// Where one set's ways live.
#[derive(Debug, Clone, Copy)]
struct SetBlock {
    /// The set's block in the arenas, or [`NONE`].
    block: u32,
    /// How many ways hold a line.
    len: u32,
}

impl SetBlock {
    /// A set never filled since the cache was built or cleared.
    const EMPTY: SetBlock = SetBlock {
        block: NONE,
        len: 0,
    };
}

/// One set-associative cache level. A line stays in the slot it was filled
/// into; each set keeps its occupied ways in a recency list, MRU first, and
/// insertion beyond the associativity evicts the LRU way.
///
/// # Example
///
/// ```
/// use morlog_cache::cache::Cache;
/// use morlog_cache::line::CacheLine;
/// use morlog_sim_core::{CacheLevelConfig, LineAddr, LineData};
///
/// let mut c = Cache::new(CacheLevelConfig::l1_default());
/// let line = CacheLine::clean(LineAddr::from_index(7), LineData::zeroed());
/// assert!(c.insert(line).is_none());
/// assert!(c.get_mut(LineAddr::from_index(7)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheLevelConfig,
    set_mask: u64,
    sets: Vec<SetBlock>,
    /// Way tags, `ways` per block; a free way holds [`FREE`].
    tags: Vec<LineAddr>,
    /// Recency lists, `ways` way indices per block: the first `len` are
    /// the occupied ways, MRU first, the rest the free ways, the most
    /// recently freed first.
    order: Vec<u8>,
    /// Line slots, `ways` per block: each way's index in `lines`, or
    /// [`NONE`] until the way is first filled.
    slots: Vec<u32>,
    /// The lines (a free way's line is stale).
    lines: Vec<CacheLine>,
    /// See [`Cache::changes`].
    changes: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry. No storage is
    /// allocated until a set is first filled.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (hardware indexing)
    /// or the associativity exceeds 256 ways.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(cfg.ways <= 256, "{} ways exceed 256", cfg.ways);
        Cache {
            cfg,
            set_mask: sets as u64 - 1,
            sets: vec![SetBlock::EMPTY; sets],
            tags: Vec::new(),
            order: Vec::new(),
            slots: Vec::new(),
            lines: Vec::new(),
            changes: 0,
        }
    }

    /// The geometry of this level.
    pub fn config(&self) -> &CacheLevelConfig {
        &self.cfg
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// The set `addr` maps to.
    pub fn set_index(&self, addr: LineAddr) -> usize {
        (addr.index() & self.set_mask) as usize
    }

    /// The arena offset of set `set`'s block and its occupied-way count
    /// (offset 0 and no ways before the set's first fill).
    fn block(&self, set: usize) -> (usize, usize) {
        match self.sets[set] {
            SetBlock { block: NONE, .. } => (0, 0),
            SetBlock { block, len } => (block as usize * self.cfg.ways, len as usize),
        }
    }

    /// The arena offset of the block holding `addr`, and its way (one tag
    /// scan).
    fn find(&self, addr: LineAddr) -> Option<(usize, usize)> {
        let (base, len) = self.block(self.set_index(addr));
        if len == 0 {
            return None;
        }
        let way = self.tags[base..base + self.cfg.ways]
            .iter()
            .position(|&t| t == addr)?;
        Some((base, way))
    }

    /// The line of the occupied way at arena offset `at`.
    fn line(&self, at: usize) -> &CacheLine {
        &self.lines[self.slots[at] as usize]
    }

    /// The line of the occupied way at arena offset `at`, mutably.
    fn line_mut(&mut self, at: usize) -> &mut CacheLine {
        &mut self.lines[self.slots[at] as usize]
    }

    /// Moves occupied `way` of the block at `base` to the front of its
    /// recency list.
    fn promote(&mut self, base: usize, way: usize) {
        let way = way as u8;
        let order = &mut self.order[base..base + self.cfg.ways];
        if order[0] != way {
            let pos = order
                .iter()
                .position(|&w| w == way)
                .expect("an occupied way is in its recency list");
            order[..=pos].rotate_right(1);
        }
    }

    /// Appends a block of free ways for set `set`; returns its offset.
    fn allocate(&mut self, set: usize) -> usize {
        let ways = self.cfg.ways;
        if self.tags.capacity() == 0 {
            let room = self.sets.len().min(FIRST_SETS) * ways;
            self.tags.reserve_exact(room);
            self.order.reserve_exact(room);
            self.slots.reserve_exact(room);
            self.lines.reserve_exact(room);
        }
        let base = self.tags.len();
        self.sets[set].block = u32::try_from(base / ways).expect("block count fits in u32");
        self.tags.resize(base + ways, FREE);
        self.order.extend((0..ways).map(|w| w as u8));
        self.slots.resize(base + ways, NONE);
        base
    }

    /// The lines of set `set`, MRU first (does not touch LRU order).
    pub fn set_lines(&self, set: usize) -> impl Iterator<Item = &CacheLine> + '_ {
        let (base, len) = self.block(set);
        self.order[base..base + len]
            .iter()
            .map(move |&w| self.line(base + w as usize))
    }

    /// Calls `visit` on each line of set `set` mutably, MRU first (does not
    /// touch LRU order).
    pub fn for_each_set_line_mut(&mut self, set: usize, mut visit: impl FnMut(&mut CacheLine)) {
        self.changes += 1;
        let (base, len) = self.block(set);
        for &w in &self.order[base..base + len] {
            visit(&mut self.lines[self.slots[base + w as usize] as usize]);
        }
    }

    /// Whether the line is present (does not touch LRU order).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Looks up a line, promoting it to MRU on hit.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        let (base, way) = self.find(addr)?;
        self.promote(base, way);
        self.changes += 1;
        Some(self.line_mut(base + way))
    }

    /// The line if it is its set's MRU way, so that a
    /// [`get_mut`](Cache::get_mut) would leave the LRU order as it is.
    pub fn peek_mru(&self, addr: LineAddr) -> Option<&CacheLine> {
        let (base, len) = self.block(self.set_index(addr));
        if len == 0 {
            return None;
        }
        let mru = base + self.order[base] as usize;
        (self.tags[mru] == addr).then(|| self.line(mru))
    }

    /// Looks up a line without changing LRU order.
    pub fn peek(&self, addr: LineAddr) -> Option<&CacheLine> {
        let (base, way) = self.find(addr)?;
        Some(self.line(base + way))
    }

    /// Inserts a line as MRU; returns the evicted LRU victim if the set was
    /// full. Replaces (and returns) an existing line with the same address.
    pub fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        debug_assert_ne!(line.addr, FREE, "the free-way tag is not an address");
        self.changes += 1;
        if let Some((base, way)) = self.find(line.addr) {
            self.promote(base, way);
            return Some(std::mem::replace(self.line_mut(base + way), line));
        }
        let set = self.set_index(line.addr);
        let ways = self.cfg.ways;
        let base = match self.sets[set].block {
            NONE => self.allocate(set),
            block => block as usize * ways,
        };
        let len = self.sets[set].len as usize;
        let order = &mut self.order[base..base + ways];
        let (at, victim) = if len < ways {
            // The first free way becomes the MRU one.
            let at = base + order[len] as usize;
            order[..=len].rotate_right(1);
            self.sets[set].len += 1;
            (at, None)
        } else {
            // The LRU way is refilled and becomes the MRU one.
            let at = base + order[ways - 1] as usize;
            order.rotate_right(1);
            (at, Some(*self.line(at)))
        };
        self.tags[at] = line.addr;
        if self.slots[at] == NONE {
            self.slots[at] = u32::try_from(self.lines.len()).expect("line count fits in u32");
            self.lines.push(line);
        } else {
            *self.line_mut(at) = line;
        }
        victim
    }

    /// Removes and returns a line (back-invalidation).
    pub fn remove(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let (base, way) = self.find(addr)?;
        self.changes += 1;
        let set = self.set_index(addr);
        let len = self.sets[set].len as usize;
        let order = &mut self.order[base..base + len];
        let pos = order
            .iter()
            .position(|&w| w as usize == way)
            .expect("an occupied way is in its recency list");
        // The freed way moves to the head of the free ways.
        order[pos..].rotate_left(1);
        self.sets[set].len -= 1;
        self.tags[base + way] = FREE;
        Some(*self.line(base + way))
    }

    /// Iterates all resident lines: sets in ascending order, each set's
    /// ways MRU first.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> + '_ {
        (0..self.sets.len()).flat_map(move |set| self.set_lines(set))
    }

    /// Calls `visit` on every resident line mutably, in
    /// [`iter`](Cache::iter) order.
    pub fn for_each_line_mut(&mut self, mut visit: impl FnMut(&mut CacheLine)) {
        for set in 0..self.sets.len() {
            self.for_each_set_line_mut(set, &mut visit);
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len as usize).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every line (crash injection: volatile caches lose state). The
    /// arenas keep their capacity for the sets filled afterwards.
    pub fn clear(&mut self) {
        self.sets.fill(SetBlock::EMPTY);
        self.tags.clear();
        self.order.clear();
        self.slots.clear();
        self.lines.clear();
        self.changes += 1;
    }

    /// A counter that moves on every change to the cache: every
    /// `get_mut` hit (it promotes the line and may change it), insert,
    /// removal, mutable walk and clear. While it stays put, so do the
    /// cache's lines, their contents and their recency order.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_sim_core::rng::DetRng;
    use morlog_sim_core::LineData;

    fn tiny() -> Cache {
        // 2 ways × 4 sets of 64-byte lines.
        Cache::new(CacheLevelConfig {
            capacity_bytes: 512,
            ways: 2,
            latency_cycles: 1,
        })
    }

    fn line(idx: u64) -> CacheLine {
        CacheLine::clean(LineAddr::from_index(idx), LineData::zeroed())
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny();
        assert!(c.insert(line(0)).is_none());
        assert!(c.contains(LineAddr::from_index(0)));
        assert!(!c.contains(LineAddr::from_index(4)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.insert(line(0));
        c.insert(line(4));
        c.get_mut(LineAddr::from_index(0)); // touch 0 -> MRU
        let victim = c.insert(line(8)).expect("set overflows");
        assert_eq!(victim.addr, LineAddr::from_index(4));
        assert!(c.contains(LineAddr::from_index(0)));
        assert!(c.contains(LineAddr::from_index(8)));
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = tiny();
        c.insert(line(0));
        let mut updated = line(0);
        updated.dirty = true;
        let old = c
            .insert(updated)
            .expect("same-address replacement returns old");
        assert!(!old.dirty);
        assert_eq!(c.len(), 1);
        assert!(c.peek(LineAddr::from_index(0)).unwrap().dirty);
    }

    #[test]
    fn remove_returns_line() {
        let mut c = tiny();
        c.insert(line(3));
        assert!(c.remove(LineAddr::from_index(3)).is_some());
        assert!(c.remove(LineAddr::from_index(3)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn sets_partition_addresses() {
        let mut c = tiny();
        // 8 lines with distinct sets: no evictions.
        for i in 0..8 {
            assert!(c.insert(line(i)).is_none(), "line {i}");
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.insert(line(1));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn storage_grows_with_use() {
        let mut c = Cache::new(CacheLevelConfig::l3_default());
        assert!(
            c.tags.capacity() == 0 && c.lines.capacity() == 0,
            "nothing before the first fill"
        );
        let sets = c.sets() as u64;
        let same_set = |k: u64| LineAddr::from_index(k * sets);
        c.insert(line(0));
        c.insert(CacheLine::clean(same_set(1), LineData::zeroed()));
        assert_eq!(c.tags.len(), 16, "one block of 16 ways");
        assert_eq!(c.lines.len(), 2, "one line slot per filled way");
        c.remove(same_set(1));
        c.insert(CacheLine::clean(same_set(2), LineData::zeroed()));
        assert_eq!(c.lines.len(), 2, "a freed way is refilled first");
        c.insert(line(1));
        assert_eq!(
            (c.tags.len(), c.lines.len()),
            (32, 3),
            "a second set, a second block"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        Cache::new(CacheLevelConfig {
            capacity_bytes: 3 * 64 * 2,
            ways: 2,
            latency_cycles: 1,
        });
    }

    /// The reference model: each set a `Vec` of lines kept MRU first,
    /// which moves whole lines on every promotion.
    struct RefCache {
        ways: usize,
        sets: Vec<Vec<CacheLine>>,
    }

    impl RefCache {
        fn new(cfg: CacheLevelConfig) -> Self {
            RefCache {
                ways: cfg.ways,
                sets: vec![Vec::new(); cfg.sets()],
            }
        }

        fn set_index(&self, addr: LineAddr) -> usize {
            (addr.index() as usize) & (self.sets.len() - 1)
        }

        fn contains(&self, addr: LineAddr) -> bool {
            self.sets[self.set_index(addr)]
                .iter()
                .any(|l| l.addr == addr)
        }

        fn get_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
            let set_idx = self.set_index(addr);
            let set = &mut self.sets[set_idx];
            let pos = set.iter().position(|l| l.addr == addr)?;
            let line = set.remove(pos);
            set.insert(0, line);
            Some(&mut set[0])
        }

        fn peek_mru(&self, addr: LineAddr) -> Option<&CacheLine> {
            self.sets[self.set_index(addr)]
                .first()
                .filter(|l| l.addr == addr)
        }

        fn peek(&self, addr: LineAddr) -> Option<&CacheLine> {
            self.sets[self.set_index(addr)]
                .iter()
                .find(|l| l.addr == addr)
        }

        fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
            let set_idx = self.set_index(line.addr);
            let ways = self.ways;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|l| l.addr == line.addr) {
                let old = set.remove(pos);
                set.insert(0, line);
                return Some(old);
            }
            set.insert(0, line);
            if set.len() > ways {
                set.pop()
            } else {
                None
            }
        }

        fn remove(&mut self, addr: LineAddr) -> Option<CacheLine> {
            let set_idx = self.set_index(addr);
            let set = &mut self.sets[set_idx];
            let pos = set.iter().position(|l| l.addr == addr)?;
            Some(set.remove(pos))
        }

        fn clear(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }
    }

    /// Drives the cache and the reference model with the same seeded
    /// operations, addresses drawn from a few sets with more tags than
    /// ways, and requires equal answers, victims and per-set visit order.
    fn matches_reference(cfg: CacheLevelConfig, seed: u64) {
        let mut rng = DetRng::new(seed);
        let mut c = Cache::new(cfg);
        let mut r = RefCache::new(cfg);
        let sets = cfg.sets() as u64;
        let hot_sets = [0, 1, sets / 2, sets - 1];
        let tags = cfg.ways as u64 + cfg.ways as u64 / 2 + 2;
        for step in 0..20_000u64 {
            let set = hot_sets[rng.gen_range(hot_sets.len() as u64) as usize];
            let addr = LineAddr::from_index(set + sets * rng.gen_range(tags));
            let mut fresh = CacheLine::clean(addr, LineData::zeroed());
            fresh.data.set_word(0, step);
            fresh.dirty = rng.gen_bool(0.5);
            match rng.gen_range(100) {
                0..=29 => {
                    let got = c.get_mut(addr).map(|l| {
                        l.data.set_word(1, step);
                        *l
                    });
                    let want = r.get_mut(addr).map(|l| {
                        l.data.set_word(1, step);
                        *l
                    });
                    assert_eq!(got, want, "get_mut at step {step}");
                }
                30..=64 => assert_eq!(c.insert(fresh), r.insert(fresh), "insert at {step}"),
                65..=79 => assert_eq!(c.remove(addr), r.remove(addr), "remove at {step}"),
                80..=86 => assert_eq!(c.peek(addr), r.peek(addr), "peek at {step}"),
                87..=93 => assert_eq!(c.peek_mru(addr), r.peek_mru(addr), "peek_mru at {step}"),
                94..=98 => assert_eq!(c.contains(addr), r.contains(addr), "contains at {step}"),
                _ if rng.gen_range(20) == 0 => {
                    c.clear();
                    r.clear();
                }
                _ => {
                    // A mutable walk of the set sees the reference's order.
                    let s = set as usize;
                    let mut seen = Vec::new();
                    c.for_each_set_line_mut(s, |l| {
                        l.fwb_flag = !l.fwb_flag;
                        seen.push(*l);
                    });
                    for l in &mut r.sets[s] {
                        l.fwb_flag = !l.fwb_flag;
                    }
                    assert_eq!(seen, r.sets[s], "set walk at {step}");
                }
            }
            let s = set as usize;
            assert_eq!(
                c.set_lines(s).copied().collect::<Vec<_>>(),
                r.sets[s],
                "set {s} order after step {step}"
            );
            assert_eq!(c.len(), r.sets.iter().map(Vec::len).sum::<usize>());
        }
        let flat: Vec<CacheLine> = r.sets.iter().flatten().copied().collect();
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), flat, "iter order");
        let mut walked = Vec::new();
        c.for_each_line_mut(|l| walked.push(*l));
        assert_eq!(walked, flat, "for_each_line_mut order");
    }

    #[test]
    fn matches_reference_l1_8_way() {
        matches_reference(CacheLevelConfig::l1_default(), 0x11);
    }

    #[test]
    fn matches_reference_l3_16_way() {
        matches_reference(CacheLevelConfig::l3_default(), 0x33);
    }

    #[test]
    fn matches_reference_2_way() {
        let cfg = CacheLevelConfig {
            capacity_bytes: 512,
            ways: 2,
            latency_cycles: 1,
        };
        matches_reference(cfg, 0x22);
    }
}
