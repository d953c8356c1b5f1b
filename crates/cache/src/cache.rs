//! A generic set-associative, write-back, LRU cache.

use morlog_sim_core::{CacheLevelConfig, LineAddr};

use crate::line::CacheLine;

/// One set-associative cache level. Each set keeps its ways in MRU-first
/// order; insertion beyond the associativity evicts the LRU way.
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
    sets: Vec<Vec<CacheLine>>,
    set_mask: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (hardware indexing).
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Cache {
            cfg,
            sets: vec![Vec::new(); sets],
            set_mask: sets as u64 - 1,
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

    /// The lines of set `set`, MRU first (does not touch LRU order).
    pub fn set_lines(&self, set: usize) -> &[CacheLine] {
        &self.sets[set]
    }

    /// The lines of set `set` mutably, MRU first (does not touch LRU
    /// order).
    pub fn set_lines_mut(&mut self, set: usize) -> &mut [CacheLine] {
        &mut self.sets[set]
    }

    /// Whether the line is present (does not touch LRU order).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.sets[self.set_index(addr)]
            .iter()
            .any(|l| l.addr == addr)
    }

    /// Looks up a line, promoting it to MRU on hit.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        let set_idx = self.set_index(addr);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|l| l.addr == addr)?;
        let line = set.remove(pos);
        set.insert(0, line);
        Some(&mut set[0])
    }

    /// The line if it is its set's MRU way, so that a
    /// [`get_mut`](Cache::get_mut) would leave the LRU order as it is.
    pub fn peek_mru(&self, addr: LineAddr) -> Option<&CacheLine> {
        self.sets[self.set_index(addr)]
            .first()
            .filter(|l| l.addr == addr)
    }

    /// Looks up a line without changing LRU order.
    pub fn peek(&self, addr: LineAddr) -> Option<&CacheLine> {
        self.sets[self.set_index(addr)]
            .iter()
            .find(|l| l.addr == addr)
    }

    /// Inserts a line as MRU; returns the evicted LRU victim if the set was
    /// full. Replaces (and returns) an existing line with the same address.
    pub fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        let set_idx = self.set_index(line.addr);
        let ways = self.cfg.ways;
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

    /// Removes and returns a line (back-invalidation).
    pub fn remove(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let set_idx = self.set_index(addr);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|l| l.addr == addr)?;
        Some(set.remove(pos))
    }

    /// Iterates all resident lines: sets in ascending order, each set's
    /// ways MRU first.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> + '_ {
        self.sets.iter().flatten()
    }

    /// Iterates all resident lines mutably, in [`iter`](Cache::iter)
    /// order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> + '_ {
        self.sets.iter_mut().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every line (crash injection: volatile caches lose state).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        Cache::new(CacheLevelConfig {
            capacity_bytes: 3 * 64 * 2,
            ways: 2,
            latency_cycles: 1,
        });
    }
}
