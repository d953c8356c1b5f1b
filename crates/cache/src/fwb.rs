//! Scheduling of the periodic force-write-back scan (§III-F, §VI-A).
//!
//! The paper performs the force-write-back mechanism every three million
//! cycles, both to bound how long updated data linger in the volatile
//! caches and to let log truncation advance (entries of transactions that
//! committed before the last two scans are safe to delete).

use morlog_sim_core::Cycle;

/// Tracks when force-write-back scans are due and how many have completed.
///
/// # Example
///
/// ```
/// use morlog_cache::fwb::FwbScheduler;
/// let mut s = FwbScheduler::new(1000);
/// assert!(!s.due(999));
/// assert!(s.due(1000));
/// s.record_scan(1000);
/// assert!(!s.due(1500));
/// assert!(s.due(2000));
/// ```
#[derive(Debug, Clone)]
pub struct FwbScheduler {
    period: Cycle,
    next_scan: Cycle,
    scans_completed: u64,
    /// Cycle of each of the last two completed scans (for the truncation
    /// rule "committed before the last two scans").
    last_two: [Option<Cycle>; 2],
}

impl FwbScheduler {
    /// Creates a scheduler with the given period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: Cycle) -> Self {
        assert!(period > 0, "scan period must be positive");
        FwbScheduler {
            period,
            next_scan: period,
            scans_completed: 0,
            last_two: [None, None],
        }
    }

    /// Whether a scan is due at `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_scan
    }

    /// The cycle the next scan is due.
    pub fn next_scan(&self) -> Cycle {
        self.next_scan
    }

    /// Records a completed scan at `now` and schedules the next one.
    pub fn record_scan(&mut self, now: Cycle) {
        self.scans_completed += 1;
        self.last_two = [self.last_two[1], Some(now)];
        self.next_scan = now + self.period;
    }

    /// Number of completed scans.
    pub fn scans_completed(&self) -> u64 {
        self.scans_completed
    }

    /// Transactions that committed at or before this cycle are fully
    /// persistent: their dirty data have survived two whole scans
    /// (§III-F). `None` until two scans have happened.
    pub fn safe_commit_horizon(&self) -> Option<Cycle> {
        self.last_two[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_requires_two_scans() {
        let mut s = FwbScheduler::new(100);
        assert_eq!(s.safe_commit_horizon(), None);
        s.record_scan(100);
        assert_eq!(s.safe_commit_horizon(), None);
        s.record_scan(200);
        assert_eq!(s.safe_commit_horizon(), Some(100));
        s.record_scan(300);
        assert_eq!(s.safe_commit_horizon(), Some(200));
    }

    #[test]
    fn due_follows_period() {
        let mut s = FwbScheduler::new(100);
        assert!(s.due(100));
        s.record_scan(150); // scans can slip; period restarts from the scan
        assert!(!s.due(249));
        assert!(s.due(250));
    }

    #[test]
    fn counts_scans() {
        let mut s = FwbScheduler::new(10);
        for i in 1..=5 {
            s.record_scan(i * 10);
        }
        assert_eq!(s.scans_completed(), 5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_panics() {
        FwbScheduler::new(0);
    }
}
