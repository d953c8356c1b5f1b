//! Structured event tracing for the simulator (the observability layer).
//!
//! Every component of the simulated machine can emit typed
//! [`TraceEvent`]s through a shared [`Tracer`] handle: log appends and
//! truncations, Fig. 8 word state-machine transitions, write-queue
//! accept/drain/watermark crossings, commit-protocol phases, and
//! crash/recovery steps. Events land in a bounded ring buffer
//! ([`TraceBuffer`]) and can be serialized to JSON Lines for offline
//! analysis.
//!
//! Tracing is **disabled by default** and costs one branch per
//! instrumentation site when off: [`Tracer::emit`] takes a closure, so
//! event construction is never executed on the disabled path. Enable it
//! per run via [`crate::config::TraceConfig`] or globally with the
//! `MORLOG_TRACE` environment variable (`1`/`true` for the default
//! buffer capacity, a number for a custom capacity, `0`/unset for off).
//!
//! # Example
//!
//! ```
//! use morlog_sim_core::trace::{TraceEvent, Tracer};
//!
//! let tracer = Tracer::with_capacity(16);
//! tracer.emit(42, || TraceEvent::WqAccept { channel: 0, occupancy: 1, is_log: false });
//! let records = tracer.records();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].cycle, 42);
//! assert!(tracer.to_jsonl().contains("\"event\":\"wq_accept\""));
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use morlog_log::record::{RecordKind, TxTag};

use crate::timing::Cycle;

/// Default ring capacity when tracing is enabled without an explicit size.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A word's position in the Fig. 8 logging state machine, as seen by the
/// trace stream. Mirrors the cache crate's `WordLogState` without a
/// dependency (sim-core is the leaf crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordStateTag {
    /// Not modified by the owning transaction.
    Clean,
    /// Modified; its undo+redo entry is still buffered on-chip.
    Dirty,
    /// Its undo+redo entry persisted in the log.
    URLog,
    /// Re-modified after `URLog`; the line buffers the newest redo data.
    ULog,
}

impl WordStateTag {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            WordStateTag::Clean => "clean",
            WordStateTag::Dirty => "dirty",
            WordStateTag::URLog => "urlog",
            WordStateTag::ULog => "ulog",
        }
    }
}

/// A commit-protocol milestone (§III-A synchronous / §III-C
/// delay-persistence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhaseTag {
    /// `Tx_Begin`: the transaction opened.
    Begin,
    /// `Tx_End` reached: the commit protocol started.
    Start,
    /// The commit record persisted in the log ring.
    RecordPersisted,
    /// The program observes the transaction as committed.
    Complete,
}

impl CommitPhaseTag {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            CommitPhaseTag::Begin => "begin",
            CommitPhaseTag::Start => "start",
            CommitPhaseTag::RecordPersisted => "record_persisted",
            CommitPhaseTag::Complete => "complete",
        }
    }
}

/// A step of the §III-E recovery routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStepTag {
    /// The log scan completed; the payload counts scanned records.
    Scan,
    /// Winner determination finished; the payload counts winners.
    Winners,
    /// Roll-forward applied; the payload counts redone transactions.
    RollForward,
    /// Roll-back applied; the payload counts undone transactions.
    RollBack,
    /// Recovery finished and the log was cleared.
    Done,
    /// Recovery was cut short by a second crash mid-replay; the log region
    /// is intact and another pass must run.
    Interrupted,
}

impl RecoveryStepTag {
    /// Stable lower-case label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStepTag::Scan => "scan",
            RecoveryStepTag::Winners => "winners",
            RecoveryStepTag::RollForward => "roll_forward",
            RecoveryStepTag::RollBack => "roll_back",
            RecoveryStepTag::Done => "done",
            RecoveryStepTag::Interrupted => "interrupted",
        }
    }
}

/// One typed simulator event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A log record was accepted into a slice's ring (and the ADR domain).
    LogAppend {
        /// The log slice appended to.
        slice: u32,
        /// Byte offset of the new slot in the ring.
        offset: u64,
        /// What the slot carries.
        kind: RecordKind,
        /// The owning transaction.
        key: TxTag,
    },
    /// A slice's head advanced, deleting records of committed transactions.
    LogTruncate {
        /// The truncated slice.
        slice: u32,
        /// Head before the truncation.
        old_head: u64,
        /// Head after the truncation.
        new_head: u64,
    },
    /// A word moved in the Fig. 8 state machine.
    WordTransition {
        /// The owning transaction.
        key: TxTag,
        /// The word's home address.
        addr: u64,
        /// State before the event.
        from: WordStateTag,
        /// State after the event.
        to: WordStateTag,
    },
    /// A write entered a channel's write queue (the persist domain).
    WqAccept {
        /// The channel accepting the write.
        channel: u32,
        /// Queue occupancy after acceptance.
        occupancy: u32,
        /// Whether the write targets the log region.
        is_log: bool,
    },
    /// A channel's write queue crossed the high watermark and began
    /// draining (reads blocked).
    WqDrainStart {
        /// The draining channel.
        channel: u32,
        /// Queue occupancy at the crossing.
        occupancy: u32,
    },
    /// A draining channel fell to the low mark and resumed read priority.
    WqDrainEnd {
        /// The channel that stopped draining.
        channel: u32,
        /// Queue occupancy at the crossing.
        occupancy: u32,
    },
    /// The commit protocol reached a milestone for a transaction.
    CommitPhase {
        /// The committing transaction.
        key: TxTag,
        /// Which milestone.
        phase: CommitPhaseTag,
    },
    /// A dirty line left a cache level toward the persist domain.
    CacheWriteback {
        /// Cache level the line left (1 = L1, 3 = LLC).
        level: u32,
        /// The line's index.
        line: u64,
    },
    /// A force-write-back scan ran; the payload counts scheduled
    /// writebacks.
    FwbScan {
        /// Dirty lines the scan queued for writeback.
        writebacks: u64,
    },
    /// A crash was injected: volatile state vanished, the ADR flush ran.
    Crash,
    /// The recovery routine completed one of its steps.
    Recovery {
        /// Which step.
        step: RecoveryStepTag,
        /// Step-specific count (records scanned, transactions redone, …).
        count: u64,
    },
}

impl TraceEvent {
    /// Every event label with the fields its JSONL line carries after
    /// `cycle` and `event`, in written order and in variant order: the
    /// one declaration of the event schema, which
    /// [`TraceRecord::to_json`] writes and `trace_lint` checks.
    pub const FIELDS: [(&'static str, &'static [&'static str]); 11] = [
        ("log_append", &["slice", "offset", "kind", "thread", "txid"]),
        ("log_truncate", &["slice", "old_head", "new_head"]),
        ("word_transition", &["thread", "txid", "addr", "from", "to"]),
        ("wq_accept", &["channel", "occupancy", "is_log"]),
        ("wq_drain_start", &["channel", "occupancy"]),
        ("wq_drain_end", &["channel", "occupancy"]),
        ("commit_phase", &["thread", "txid", "phase"]),
        ("cache_writeback", &["level", "line"]),
        ("fwb_scan", &["writebacks"]),
        ("crash", &[]),
        ("recovery", &["step", "count"]),
    ];

    /// This variant's row in [`TraceEvent::FIELDS`].
    fn index(&self) -> usize {
        match self {
            TraceEvent::LogAppend { .. } => 0,
            TraceEvent::LogTruncate { .. } => 1,
            TraceEvent::WordTransition { .. } => 2,
            TraceEvent::WqAccept { .. } => 3,
            TraceEvent::WqDrainStart { .. } => 4,
            TraceEvent::WqDrainEnd { .. } => 5,
            TraceEvent::CommitPhase { .. } => 6,
            TraceEvent::CacheWriteback { .. } => 7,
            TraceEvent::FwbScan { .. } => 8,
            TraceEvent::Crash => 9,
            TraceEvent::Recovery { .. } => 10,
        }
    }

    /// Stable lower-case label naming the event type in the JSONL stream.
    pub fn label(&self) -> &'static str {
        Self::FIELDS[self.index()].0
    }

    /// Writes `,"name":value` for each of this event's declared fields.
    fn write_fields(&self, out: &mut String) {
        use std::fmt::{Display, Write};
        let names = Self::FIELDS[self.index()].1;
        let mut fields = |values: &[&dyn Display]| {
            debug_assert_eq!(names.len(), values.len(), "{}", self.label());
            for (name, value) in names.iter().zip(values) {
                let _ = write!(out, ",\"{name}\":{value}");
            }
        };
        match *self {
            TraceEvent::LogAppend {
                slice,
                offset,
                kind,
                key,
            } => fields(&[
                &slice,
                &offset,
                &Quoted(kind.label()),
                &key.thread,
                &key.txid,
            ]),
            TraceEvent::LogTruncate {
                slice,
                old_head,
                new_head,
            } => fields(&[&slice, &old_head, &new_head]),
            TraceEvent::WordTransition {
                key,
                addr,
                from,
                to,
            } => fields(&[
                &key.thread,
                &key.txid,
                &addr,
                &Quoted(from.label()),
                &Quoted(to.label()),
            ]),
            TraceEvent::WqAccept {
                channel,
                occupancy,
                is_log,
            } => fields(&[&channel, &occupancy, &is_log]),
            TraceEvent::WqDrainStart { channel, occupancy }
            | TraceEvent::WqDrainEnd { channel, occupancy } => fields(&[&channel, &occupancy]),
            TraceEvent::CommitPhase { key, phase } => {
                fields(&[&key.thread, &key.txid, &Quoted(phase.label())])
            }
            TraceEvent::CacheWriteback { level, line } => fields(&[&level, &line]),
            TraceEvent::FwbScan { writebacks } => fields(&[&writebacks]),
            TraceEvent::Crash => fields(&[]),
            TraceEvent::Recovery { step, count } => fields(&[&Quoted(step.label()), &count]),
        }
    }
}

/// A label written as a JSON string (labels never need escaping).
struct Quoted(&'static str);

impl std::fmt::Display for Quoted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "\"{}\"", self.0)
    }
}

/// One event with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated cycle at which the event happened.
    pub cycle: Cycle,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Serializes the record as one JSON object (one JSONL line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"cycle\":{},\"event\":\"{}\"",
            self.cycle,
            self.event.label()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// Bounded event ring: the newest `capacity` records are kept; older
/// records are dropped (and counted) when the ring wraps.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            ring: VecDeque::with_capacity(capacity.clamp(1, 1 << 20)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Cloneable handle to a shared trace ring.
///
/// All components of one simulated [`System`] hold clones of the same
/// handle; a disabled handle carries no buffer and [`Tracer::emit`] is a
/// single branch.
///
/// [`System`]: ../../morlog_sim/struct.System.html
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<Mutex<TraceBuffer>>>,
}

impl Tracer {
    /// A disabled handle (the default): emits are no-ops.
    pub fn disabled() -> Self {
        Tracer { buf: None }
    }

    /// An enabled handle with a ring of `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            buf: Some(Arc::new(Mutex::new(TraceBuffer::new(capacity)))),
        }
    }

    /// Builds a handle from the `MORLOG_TRACE` knob
    /// ([`crate::knobs::trace`]): disabled when unset or off, else
    /// enabled with the knob's ring capacity.
    pub fn from_env() -> Self {
        crate::knobs::trace().map_or_else(Tracer::disabled, Tracer::with_capacity)
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records an event. The closure only runs when tracing is enabled,
    /// so instrumentation sites cost one branch when tracing is off.
    #[inline]
    pub fn emit(&self, cycle: Cycle, event: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.buf {
            let record = TraceRecord {
                cycle,
                event: event(),
            };
            buf.lock().expect("trace buffer poisoned").push(record);
        }
    }

    /// Snapshot of the retained records, oldest first (empty when
    /// disabled).
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.buf {
            None => Vec::new(),
            Some(buf) => buf
                .lock()
                .expect("trace buffer poisoned")
                .records()
                .copied()
                .collect(),
        }
    }

    /// Retained record count (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.buf {
            None => 0,
            Some(buf) => buf.lock().expect("trace buffer poisoned").len(),
        }
    }

    /// Whether no records are retained (always `true` when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring wrapped (0 when disabled).
    pub fn dropped(&self) -> u64 {
        match &self.buf {
            None => 0,
            Some(buf) => buf.lock().expect("trace buffer poisoned").dropped(),
        }
    }

    /// Serializes the retained records as JSON Lines (one event object
    /// per line, oldest first; empty string when disabled).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> TxTag {
        TxTag::new(2, 7)
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.emit(1, || {
            ran = true;
            TraceEvent::Crash
        });
        assert!(!ran, "closure must not run when disabled");
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn clones_share_one_ring() {
        let t = Tracer::with_capacity(8);
        let c = t.clone();
        c.emit(5, || TraceEvent::Crash);
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].cycle, 5);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.emit(i, || TraceEvent::FwbScan { writebacks: i });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 4], "newest records are retained");
    }

    #[test]
    fn jsonl_shapes_are_stable() {
        let t = Tracer::with_capacity(32);
        t.emit(1, || TraceEvent::LogAppend {
            slice: 0,
            offset: 64,
            kind: RecordKind::UndoRedo,
            key: key(),
        });
        t.emit(2, || TraceEvent::WordTransition {
            key: key(),
            addr: 4096,
            from: WordStateTag::Dirty,
            to: WordStateTag::URLog,
        });
        t.emit(3, || TraceEvent::WqDrainStart {
            channel: 1,
            occupancy: 52,
        });
        t.emit(4, || TraceEvent::CommitPhase {
            key: key(),
            phase: CommitPhaseTag::RecordPersisted,
        });
        t.emit(5, || TraceEvent::Recovery {
            step: RecoveryStepTag::Scan,
            count: 12,
        });
        let lines: Vec<String> = t.to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"cycle\":1,\"event\":\"log_append\",\"slice\":0,\"offset\":64,\
             \"kind\":\"undo_redo\",\"thread\":2,\"txid\":7}"
        );
        assert_eq!(
            lines[1],
            "{\"cycle\":2,\"event\":\"word_transition\",\"thread\":2,\"txid\":7,\
             \"addr\":4096,\"from\":\"dirty\",\"to\":\"urlog\"}"
        );
        assert_eq!(
            lines[2],
            "{\"cycle\":3,\"event\":\"wq_drain_start\",\"channel\":1,\"occupancy\":52}"
        );
        assert_eq!(
            lines[3],
            "{\"cycle\":4,\"event\":\"commit_phase\",\"thread\":2,\"txid\":7,\
             \"phase\":\"record_persisted\"}"
        );
        assert_eq!(
            lines[4],
            "{\"cycle\":5,\"event\":\"recovery\",\"step\":\"scan\",\"count\":12}"
        );
    }

    #[test]
    fn every_variant_writes_exactly_its_declared_fields() {
        let events = [
            TraceEvent::LogAppend {
                slice: 1,
                offset: 64,
                kind: RecordKind::Commit,
                key: key(),
            },
            TraceEvent::LogTruncate {
                slice: 0,
                old_head: 0,
                new_head: 128,
            },
            TraceEvent::WordTransition {
                key: key(),
                addr: 8,
                from: WordStateTag::Clean,
                to: WordStateTag::Dirty,
            },
            TraceEvent::WqAccept {
                channel: 0,
                occupancy: 3,
                is_log: true,
            },
            TraceEvent::WqDrainStart {
                channel: 1,
                occupancy: 52,
            },
            TraceEvent::WqDrainEnd {
                channel: 1,
                occupancy: 16,
            },
            TraceEvent::CommitPhase {
                key: key(),
                phase: CommitPhaseTag::Begin,
            },
            TraceEvent::CacheWriteback { level: 3, line: 99 },
            TraceEvent::FwbScan { writebacks: 4 },
            TraceEvent::Crash,
            TraceEvent::Recovery {
                step: RecoveryStepTag::Done,
                count: 2,
            },
        ];
        assert_eq!(events.len(), TraceEvent::FIELDS.len());
        for (event, (label, fields)) in events.iter().zip(TraceEvent::FIELDS) {
            assert_eq!(event.label(), label);
            let line = TraceRecord {
                cycle: 7,
                event: *event,
            }
            .to_json();
            // Labels and numbers never contain ',' or ':', so splitting
            // the object body recovers the keys in written order.
            let body = &line[1..line.len() - 1];
            let keys: Vec<&str> = body
                .split(',')
                .map(|pair| pair.split(':').next().unwrap().trim_matches('"'))
                .collect();
            let mut expected = vec!["cycle", "event"];
            expected.extend_from_slice(fields);
            assert_eq!(keys, expected, "{line}");
        }
    }

    #[test]
    fn env_parsing() {
        // Uses explicit constructors; the MORLOG_TRACE grammar is tested
        // in knobs.rs (environment mutation is racy in tests).
        assert!(!Tracer::default().is_enabled());
        assert!(Tracer::with_capacity(1).is_enabled());
    }
}
