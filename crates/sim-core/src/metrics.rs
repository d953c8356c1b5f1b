//! Deterministic telemetry primitives: log2-bucketed histograms,
//! cycle-driven time series, and the aggregate metric set attached to
//! [`crate::SimStats`].
//!
//! Everything here is integer-exact, so a parallel sweep produces
//! byte-identical JSON to a serial sweep. Quantile extraction uses pure
//! integer arithmetic (no floating point) for the same reason.
//!
//! Time-series sampling is driven by the engine clock at a configurable
//! period (`MORLOG_SAMPLE_CYCLES`, default [`DEFAULT_SAMPLE_CYCLES`];
//! `0` disables sampling). Per-run series are cycle-monotone and the
//! results validator checks that invariant on every emitted record.

use crate::timing::Cycle;
use morlog_log::record::RecordKind;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`, and bucket 64 holds
/// `[2^63, u64::MAX]`.
pub const HIST_BUCKETS: usize = 65;

/// Default sample period when `MORLOG_SAMPLE_CYCLES` is unset: one
/// sample every 8192 cycles keeps series small (a 2000-transaction
/// `quick_check` run yields a few hundred points per design) while
/// still resolving write-queue and log-occupancy trends.
pub const DEFAULT_SAMPLE_CYCLES: Cycle = 8192;

/// A deterministic log2-bucketed histogram over `u64` samples.
///
/// Records are O(1) (a `leading_zeros` and two adds); quantiles are
/// extracted by walking the cumulative bucket counts and returning the
/// bucket's upper bound clamped to the observed `[min, max]` range, so
/// reported quantiles never exceed any actually-recorded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket.
    pub fn bucket_upper(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact; internally 128-bit).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets as `(index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }

    /// Quantile at `permille / 1000` using pure integer arithmetic:
    /// the sample with rank `ceil(permille · count / 1000)` determines
    /// the bucket, and the estimate is that bucket's upper bound
    /// clamped to the observed `[min, max]` range. Returns 0 when
    /// empty.
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank_num = u128::from(permille) * u128::from(self.count);
        let rank = rank_num.div_ceil(1000).max(1);
        let mut cum: u128 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += u128::from(c);
            if cum >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`Histogram::quantile_permille`]).
    pub fn p50(&self) -> u64 {
        self.quantile_permille(500)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile_permille(900)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile_permille(990)
    }
}

/// A cycle-stamped time series: two parallel vectors of sample cycles
/// and sampled values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Series {
    /// Cycle at which each sample was taken (monotone within one run).
    pub cycles: Vec<Cycle>,
    /// Sampled value at the corresponding cycle.
    pub values: Vec<u64>,
}

impl Series {
    /// Append one sample.
    pub fn push(&mut self, cycle: Cycle, value: u64) {
        self.cycles.push(cycle);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// The fixed set of engine-sampled time series plus the sample period
/// that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSet {
    /// Sample period in cycles; 0 means sampling was disabled.
    pub period: Cycle,
    /// NVM write-queue depth summed over channels.
    pub wq_depth: Series,
    /// Redo-buffer occupancy (lines) in the logging controller.
    pub redo_buf: Series,
    /// Undo+redo (CRADE) buffer occupancy in the logging controller.
    pub ur_buf: Series,
    /// Bytes of live log across all log slices (tail − head).
    pub log_bytes: Series,
    /// Delay-persistence transactions committed but not yet persisted.
    pub dp_outstanding: Series,
    /// Writebacks drained from the hierarchy but not yet issued to NVM.
    pub pending_writebacks: Series,
}

/// Display labels for the series in [`SeriesSet`], in field order.
pub const SERIES_LABELS: [&str; 6] = [
    "wq_depth",
    "redo_buf",
    "ur_buf",
    "log_bytes",
    "dp_outstanding",
    "pending_writebacks",
];

impl SeriesSet {
    /// An empty set with the given sample period.
    pub fn with_period(period: Cycle) -> Self {
        SeriesSet {
            period,
            ..Self::default()
        }
    }

    /// Label → series pairs in [`SERIES_LABELS`] order.
    pub fn named(&self) -> [(&'static str, &Series); 6] {
        [
            (SERIES_LABELS[0], &self.wq_depth),
            (SERIES_LABELS[1], &self.redo_buf),
            (SERIES_LABELS[2], &self.ur_buf),
            (SERIES_LABELS[3], &self.log_bytes),
            (SERIES_LABELS[4], &self.dp_outstanding),
            (SERIES_LABELS[5], &self.pending_writebacks),
        ]
    }

    /// Record one sample across every series at the same cycle.
    #[allow(clippy::too_many_arguments)]
    pub fn push_sample(
        &mut self,
        cycle: Cycle,
        wq_depth: u64,
        redo_buf: u64,
        ur_buf: u64,
        log_bytes: u64,
        dp_outstanding: u64,
        pending_writebacks: u64,
    ) {
        self.wq_depth.push(cycle, wq_depth);
        self.redo_buf.push(cycle, redo_buf);
        self.ur_buf.push(cycle, ur_buf);
        self.log_bytes.push(cycle, log_bytes);
        self.dp_outstanding.push(cycle, dp_outstanding);
        self.pending_writebacks.push(cycle, pending_writebacks);
    }
}

/// Per-transaction commit-latency distributions, split by commit
/// phase. Phase timestamps come from the logging controller's commit
/// pipeline (the same points the tracer tags as `CommitPhaseTag`).
///
/// Two headline numbers deliberately coexist: `begin_to_complete`
/// measures when the *program* observes the commit (instant for
/// delay-persistence designs), while `begin_to_persist` measures when
/// the commit record is durable in NVM. For sync designs they track
/// each other; for DP designs the gap is the persistence lag that
/// §III-C trades for commit latency, reported in `dp_persist_lag`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitLatency {
    /// Begin → Start: transaction body execution until commit request.
    pub begin_to_start: Histogram,
    /// Start → RecordPersisted: commit-record drain to NVM.
    pub start_to_persist: Histogram,
    /// RecordPersisted → Complete: post-persist completion (0 for DP,
    /// where Complete precedes RecordPersisted).
    pub persist_to_complete: Histogram,
    /// Begin → RecordPersisted: time until the commit is durable.
    pub begin_to_persist: Histogram,
    /// Begin → Complete: time until the program observes the commit.
    pub begin_to_complete: Histogram,
    /// Complete → RecordPersisted: DP persistence lag (recorded only
    /// for delay-persistence designs).
    pub dp_persist_lag: Histogram,
}

/// Display labels for the histograms in [`CommitLatency`], in field
/// order.
pub const COMMIT_LATENCY_LABELS: [&str; 6] = [
    "begin_to_start",
    "start_to_persist",
    "persist_to_complete",
    "begin_to_persist",
    "begin_to_complete",
    "dp_persist_lag",
];

impl CommitLatency {
    /// Label → histogram pairs in [`COMMIT_LATENCY_LABELS`] order.
    pub fn named(&self) -> [(&'static str, &Histogram); 6] {
        [
            (COMMIT_LATENCY_LABELS[0], &self.begin_to_start),
            (COMMIT_LATENCY_LABELS[1], &self.start_to_persist),
            (COMMIT_LATENCY_LABELS[2], &self.persist_to_complete),
            (COMMIT_LATENCY_LABELS[3], &self.begin_to_persist),
            (COMMIT_LATENCY_LABELS[4], &self.begin_to_complete),
            (COMMIT_LATENCY_LABELS[5], &self.dp_persist_lag),
        ]
    }

    /// Record one fully-resolved transaction from its four phase
    /// timestamps. `delay_persistence` selects whether the lag
    /// histogram applies (Complete precedes RecordPersisted under DP,
    /// so all deltas saturate at zero rather than wrapping).
    pub fn record_commit(
        &mut self,
        begin: Cycle,
        start: Cycle,
        persisted: Cycle,
        complete: Cycle,
        delay_persistence: bool,
    ) {
        self.begin_to_start.record(start.saturating_sub(begin));
        self.start_to_persist
            .record(persisted.saturating_sub(start));
        self.persist_to_complete
            .record(complete.saturating_sub(persisted));
        self.begin_to_persist
            .record(persisted.saturating_sub(begin));
        self.begin_to_complete
            .record(complete.saturating_sub(begin));
        if delay_persistence {
            self.dp_persist_lag
                .record(persisted.saturating_sub(complete));
        }
    }
}

/// Display labels for the per-kind log-entry histograms, in
/// [`RecordKind::ALL`] order (each is the kind's [`RecordKind::label`]).
pub const LOG_KIND_LABELS: [&str; 3] = ["undo_redo", "redo", "commit"];

/// Display labels for the SLDE encoder-choice counters.
pub const ENCODER_CHOICE_LABELS: [&str; 3] = ["fpc", "dldc", "dldc_raw"];

/// Per-write log metrics collected at the NVM controller's log-append
/// path: programmed-bit distributions split by record kind, and counts
/// of which SLDE encoder each encoded log-data word chose.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogWriteMetrics {
    /// Bits programmed per appended log entry, indexed by
    /// [`LOG_KIND_LABELS`] ([`RecordKind::ALL`] order).
    pub entry_bits: [Histogram; 3],
    /// SLDE encoder choices per encoded log-data word, indexed by
    /// [`ENCODER_CHOICE_LABELS`].
    pub encoder_choices: [u64; 3],
}

impl LogWriteMetrics {
    /// Index into [`LogWriteMetrics::entry_bits`] for a record kind.
    pub fn kind_index(kind: RecordKind) -> usize {
        match kind {
            RecordKind::UndoRedo => 0,
            RecordKind::Redo => 1,
            RecordKind::Commit => 2,
        }
    }
}

/// The full telemetry set attached to [`crate::SimStats`]: commit
/// latency histograms, log-write metrics, and sampled time series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSet {
    /// Per-transaction commit-latency distributions.
    pub commit: CommitLatency,
    /// Log-append size distributions and encoder-choice counts.
    pub log_writes: LogWriteMetrics,
    /// Cycle-sampled occupancy series.
    pub series: SeriesSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, Tracer};
    use morlog_log::record::TxTag;

    #[test]
    fn histogram_labels_match_trace_labels() {
        let t = Tracer::with_capacity(RecordKind::ALL.len());
        for (i, kind) in RecordKind::ALL.into_iter().enumerate() {
            assert_eq!(LogWriteMetrics::kind_index(kind), i);
            t.emit(0, || TraceEvent::LogAppend {
                slice: 0,
                offset: 0,
                kind,
                key: TxTag::new(0, 0),
            });
        }
        let jsonl = t.to_jsonl();
        for (kind, line) in RecordKind::ALL.into_iter().zip(jsonl.lines()) {
            let label = LOG_KIND_LABELS[LogWriteMetrics::kind_index(kind)];
            assert_eq!(label, kind.label());
            assert!(line.contains(&format!("\"kind\":\"{label}\"")), "{line}");
        }
    }

    #[test]
    fn bucket_boundaries_cover_u64_extremes() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of((1 << 20) - 1), 20);
        assert_eq!(Histogram::bucket_of(1 << 20), 21);
        assert_eq!(Histogram::bucket_of((1u64 << 63) - 1), 63);
        assert_eq!(Histogram::bucket_of(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let lower = b
                .checked_sub(1)
                .map_or(0, |a| Histogram::bucket_upper(a) + 1);
            assert_eq!(Histogram::bucket_of(lower), b);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_upper(b)), b);
        }
    }

    #[test]
    fn extremes_do_not_overflow_and_quantiles_clamp() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.quantile_permille(1), 0);
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Rank 50 lands in bucket 6 ([32, 63]); upper bound 63 is
        // within the observed range so it is reported as-is.
        assert_eq!(h.p50(), 63);
        // Rank 99 lands in bucket 7 ([64, 127]); its upper bound 127
        // exceeds the observed max 100 and is clamped.
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile_permille(1000), 100);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn push_sample_appends_to_every_series() {
        let mut set = SeriesSet::with_period(64);
        set.push_sample(0, 1, 2, 3, 4, 5, 6);
        set.push_sample(64, 7, 8, 9, 10, 11, 12);
        assert_eq!(set.wq_depth.cycles, vec![0, 64]);
        assert_eq!(set.wq_depth.values, vec![1, 7]);
        assert_eq!(set.pending_writebacks.values, vec![6, 12]);
        for (name, s) in set.named() {
            assert_eq!(s.len(), 2, "{name}");
        }
    }

    #[test]
    fn commit_latency_saturates_for_dp_inversion() {
        let mut c = CommitLatency::default();
        // DP: Complete (cycle 12) precedes RecordPersisted (cycle 40).
        c.record_commit(10, 11, 40, 12, true);
        assert_eq!(c.persist_to_complete.max(), 0);
        assert_eq!(c.begin_to_complete.max(), 2);
        assert_eq!(c.begin_to_persist.max(), 30);
        assert_eq!(c.dp_persist_lag.max(), 28);
        // Sync: no lag sample is recorded.
        c.record_commit(0, 5, 20, 21, false);
        assert_eq!(c.dp_persist_lag.count(), 1);
        assert_eq!(c.persist_to_complete.max(), 1);
    }
}
