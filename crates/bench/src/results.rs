//! Machine-readable result records.
//!
//! Every bench binary, alongside its printed table, writes a JSON document
//! under `results/` (override the directory with `MORLOG_RESULTS_DIR`):
//!
//! ```json
//! {
//!   "bench": "fig14_macro_throughput",
//!   "schema_version": 6,
//!   "git": "65c28e8",
//!   "jobs": 8,
//!   "wall_ms": 1234.5,
//!   "records": [ { "kind": "run", ... }, ... ]
//! }
//! ```
//!
//! The `schema!` block below is the one declaration of this format: each
//! object is a list of `name, ...: Type [Class];` rows and expands into a
//! typed struct whose [`Value`] impl writes, reads back, checks and walks
//! exactly those fields. Everything else derives from it:
//!
//! - the writers build the typed structs ([`Run::from`],
//!   [`HostPerf::from`], the record literals in the bench binaries);
//! - [`validate`] accepts a document iff reading it through its
//!   declaration and writing it back reproduces it exactly — every
//!   declared field, in order, with its declared type, and no other —
//!   and every declared invariant holds; a record's `kind` must be one of
//!   [`RECORD_KINDS`];
//! - [`walk`] gives `bench_diff` (see [`crate::diff`]) each leaf with its
//!   declared [`Class`];
//! - `trace_lint` checks `.json` documents with [`validate_document`] and
//!   `perf_history` lines with `validate::<PerfHistory>`.
//!
//! [`ResultSink::finish`] validates before writing, in every build, and
//! exits non-zero on a document that breaks its declaration.

use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

use morlog_analysis::DistanceBucket;
use morlog_encoding::dldc::DldcPattern;
use morlog_sim_core::hostprof::{HostCounter, HostPhase, HostProfile, ALLOC_SLOTS};
use morlog_sim_core::metrics::{
    Histogram, COMMIT_LATENCY_LABELS, ENCODER_CHOICE_LABELS, HIST_BUCKETS, LOG_KIND_LABELS,
    SERIES_LABELS,
};
use morlog_sim_core::stats::{CacheLevelStats, CycleAttribution, LogStats, MemStats};
use morlog_sim_core::{Series, SimStats};

use crate::json::Json;
use crate::TimedRun;

/// Version stamp of the `results/*.json` envelope and record layout.
pub const SCHEMA_VERSION: u64 = 6;

/// How `bench_diff` treats a field (and everything under it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A function of the simulated input alone: diffed exactly.
    Deterministic,
    /// Host wall-clock, rates and allocator volumes: machine-dependent,
    /// skipped by default and compared within a factor in ratio mode.
    Timing,
    /// A property of the invocation (`git`, `jobs`, timestamps): never
    /// compared.
    Volatile,
}

/// Which way a [`Class::Timing`] field improves; `bench_diff`'s ratio
/// mode fails only a move the other way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times and allocator volumes.
    Lower,
    /// Rates.
    Higher,
}

/// How `bench_diff` treats a field: its class and which way it improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The field's class.
    pub class: Class,
    /// Which way it improves (meaningful for timing fields).
    pub better: Better,
}

impl Field {
    const DETERMINISTIC: Field = Field::lower(Class::Deterministic);

    const fn lower(class: Class) -> Field {
        Field {
            class,
            better: Better::Lower,
        }
    }

    /// This field as declared under `parent`: a parent's class covers
    /// everything under it, so the stronger class wins, with its
    /// direction.
    fn under(self, parent: Field) -> Field {
        if self.class >= parent.class {
            self
        } else {
            parent
        }
    }
}

/// Receives each leaf of a [`Value::visit`]: path, value, treatment.
type Visitor<'a> = dyn FnMut(&str, &Json, Field) + 'a;

/// A value with a declared JSON form.
pub trait Value: Sized {
    /// Serializes the value.
    fn json(&self) -> Json;
    /// Reads a value back; anything missing or mistyped reads as a
    /// default, which [`validate`] then reports as a difference.
    fn from_json(v: &Json) -> Self;
    /// Appends this value to an object's members under `name`.
    fn put(&self, name: &str, out: &mut Vec<(String, Json)>) {
        out.push((name.to_string(), self.json()));
    }
    /// Reads this value from the object that holds it under `name`.
    fn take(obj: &Json, name: &str) -> Self {
        Self::from_json(obj.get(name).unwrap_or(&Json::Null))
    }
    /// The path of this value when held under `name` by the object at
    /// `path`.
    fn at(path: &str, name: &str) -> String {
        join(path, name)
    }
    /// Checks the declared invariants of this value and everything in it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path of the first broken invariant.
    fn check(&self, _path: &str) -> Result<(), String> {
        Ok(())
    }
    /// Calls `leaf` with the path, value and class of every scalar.
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        leaf(path, &self.json(), field);
    }
}

/// A declared record kind: what [`ResultSink::push`] accepts.
pub trait Record: Value {
    /// The `"kind"` the record is written with.
    const KIND: &'static str;
}

macro_rules! scalar {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl Value for $ty {
            fn json(&self) -> Json {
                $to(self)
            }
            fn from_json(v: &Json) -> Self {
                $from(v)
            }
        }
    )*};
}

scalar! {
    String: |s: &String| Json::Str(s.clone()), |v: &Json| v.as_str().unwrap_or("").to_string();
    Option<String>: |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str),
        |v: &Json| v.as_str().map(str::to_string);
    u64: |n: &u64| Json::UInt(*n), |v: &Json| v.as_u64().unwrap_or(0);
    f64: |n: &f64| Json::Num(*n), |v: &Json| if let Json::Num(n) = v { *n } else { 0.0 };
    bool: |b: &bool| Json::Bool(*b), |v: &Json| matches!(v, Json::Bool(true));
}

fn visit_items<'a, T: Value + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    path: &str,
    field: Field,
    leaf: &mut Visitor<'_>,
) {
    let len = Json::UInt(items.len() as u64);
    for (i, item) in items.enumerate() {
        item.visit(&format!("{path}[{i}]"), field, leaf);
    }
    leaf(&join(path, "len"), &len, Field::DETERMINISTIC);
}

impl<T: Value> Value for Vec<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(Value::json).collect())
    }
    fn from_json(v: &Json) -> Self {
        v.as_arr().unwrap_or(&[]).iter().map(T::from_json).collect()
    }
    fn check(&self, path: &str) -> Result<(), String> {
        let mut items = self.iter().enumerate();
        items.try_for_each(|(i, item)| item.check(&format!("{path}[{i}]")))
    }
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        visit_items(self.iter(), path, field, leaf);
    }
}

impl<T: Value, const N: usize> Value for [T; N] {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(Value::json).collect())
    }
    fn from_json(v: &Json) -> Self {
        let items = v.as_arr().unwrap_or(&[]);
        std::array::from_fn(|i| T::from_json(items.get(i).unwrap_or(&Json::Null)))
    }
    fn check(&self, path: &str) -> Result<(), String> {
        let mut items = self.iter().enumerate();
        items.try_for_each(|(i, item)| item.check(&format!("{path}[{i}]")))
    }
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        visit_items(self.iter(), path, field, leaf);
    }
}

/// A record of any kind in [`RECORD_KINDS`], already serialized; checked
/// and walked as the kind its `"kind"` names.
impl Value for Json {
    fn json(&self) -> Json {
        self.clone()
    }
    fn from_json(v: &Json) -> Self {
        v.clone()
    }
    fn check(&self, path: &str) -> Result<(), String> {
        (record_kind(self, path)?.check)(self, path)
    }
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        if let Ok(kind) = record_kind(self, path) {
            (kind.visit)(self, path, field, leaf);
        }
    }
}

/// A label list that keys a [`Map`].
pub trait Labels {
    /// The keys, in written order.
    fn labels() -> Vec<String>;
}

/// An object keyed by `L`'s labels, its values in label order.
#[derive(Debug, Clone, PartialEq)]
pub struct Map<L, V> {
    /// One value per label.
    pub(crate) values: Vec<V>,
    keys: PhantomData<L>,
}

impl<L, V> FromIterator<V> for Map<L, V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Map {
            values: iter.into_iter().collect(),
            keys: PhantomData,
        }
    }
}

impl<L: Labels, V: Value> Map<L, V> {
    fn entries(&self) -> impl Iterator<Item = (String, &V)> {
        L::labels().into_iter().zip(&self.values)
    }
}

impl<L: Labels, V: Value> Value for Map<L, V> {
    fn json(&self) -> Json {
        Json::Obj(self.entries().map(|(key, v)| (key, v.json())).collect())
    }
    fn from_json(v: &Json) -> Self {
        L::labels().iter().map(|key| V::take(v, key)).collect()
    }
    fn check(&self, path: &str) -> Result<(), String> {
        self.entries()
            .try_for_each(|(key, v)| v.check(&join(path, &key)))
    }
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        for (key, v) in self.entries() {
            v.visit(&join(path, &key), field, leaf);
        }
    }
}

/// A [`Map`] whose entries sit directly in the enclosing object.
#[derive(Debug, Clone, PartialEq)]
pub struct Inline<L, V>(pub Map<L, V>);

impl<L: Labels, V: Value> Value for Inline<L, V> {
    fn json(&self) -> Json {
        self.0.json()
    }
    fn from_json(v: &Json) -> Self {
        Inline(Map::from_json(v))
    }
    fn put(&self, _name: &str, out: &mut Vec<(String, Json)>) {
        out.extend(self.0.entries().map(|(key, v)| (key, v.json())));
    }
    fn take(obj: &Json, _name: &str) -> Self {
        Inline(Map::from_json(obj))
    }
    fn at(path: &str, _name: &str) -> String {
        path.to_string()
    }
    fn check(&self, path: &str) -> Result<(), String> {
        self.0.check(path)
    }
    fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
        self.0.visit(path, field, leaf);
    }
}

macro_rules! labels {
    ($($(#[$doc:meta])* $name:ident => $labels:expr;)*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name;

        impl Labels for $name {
            fn labels() -> Vec<String> {
                $labels.into_iter().map(|label| label.to_string()).collect()
            }
        }
    )*};
}

labels! {
    /// [`HostPhase`] labels.
    PhaseKeys => HostPhase::ALL.map(HostPhase::label);
    /// [`HostCounter`] labels.
    CounterKeys => HostCounter::ALL.map(HostCounter::label);
    /// Allocator slots (the phases, then `unscoped`), then their `total`.
    AllocKeys => (0..ALLOC_SLOTS).map(HostProfile::alloc_slot_label).chain(["total"]);
    /// Commit-latency histograms ([`COMMIT_LATENCY_LABELS`]).
    CommitKeys => COMMIT_LATENCY_LABELS;
    /// Log-record kinds ([`LOG_KIND_LABELS`]).
    LogKindKeys => LOG_KIND_LABELS;
    /// SLDE encoder choices ([`ENCODER_CHOICE_LABELS`]).
    EncoderKeys => ENCODER_CHOICE_LABELS;
    /// Sampled series ([`SERIES_LABELS`]).
    SeriesKeys => SERIES_LABELS;
    /// Fig. 3 write-distance buckets.
    DistanceKeys => DistanceBucket::ALL.map(DistanceBucket::label);
    /// Table II patterns, then the raw escape.
    PatternKeys => DldcPattern::TABLE_II.iter().chain(&[DldcPattern::Raw]).map(|p| format!("{p:?}"));
}

/// Declares objects. `Name [= "kind"] [from Source] [where invariant]
/// { name, ...: Type [Class [Better]]; ... }` expands into a struct with
/// those fields (all of class `Deterministic` unless marked, and better
/// `Lower` unless marked `Higher`) and its [`Value`]
/// impl; `= "kind"` makes it a [`Record`], `from Source` adds
/// `From<&Source>` for a source with the same field names and types, and
/// `where invariant` names a `fn(&Name) -> Result<(), String>`.
macro_rules! schema {
    (@field) => { Field::DETERMINISTIC };
    (@field $class:ident) => { Field::lower(Class::$class) };
    (@field $class:ident $better:ident) => {
        Field { class: Class::$class, better: Better::$better }
    };
    (@record $name:ident) => {};
    (@record $name:ident $kind:literal) => {
        impl Record for $name {
            const KIND: &'static str = $kind;
        }
    };
    (@from [] $($rest:tt)*) => {};
    (@from [$src:ty] $name:ident { $($field:ident)* }) => {
        impl From<&$src> for $name {
            #[allow(clippy::clone_on_copy)]
            fn from(s: &$src) -> Self {
                $name { $($field: s.$field.clone(),)* }
            }
        }
    };
    ($(
        $(#[$doc:meta])*
        $name:ident $(= $kind:literal)? $(from $src:ty)? $(where $invariant:ident)? {
            $($($field:ident),+: $ty:ty $([$class:ident $($better:ident)?])?;)*
        }
    )*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)]
        pub struct $name {
            $($(pub $field: $ty,)+)*
        }

        impl Value for $name {
            fn json(&self) -> Json {
                let mut out = Vec::new();
                $(out.push(("kind".to_string(), Json::Str($kind.to_string())));)?
                $($(self.$field.put(stringify!($field), &mut out);)+)*
                Json::Obj(out)
            }
            fn from_json(v: &Json) -> Self {
                $name { $($($field: <$ty as Value>::take(v, stringify!($field)),)+)* }
            }
            fn check(&self, path: &str) -> Result<(), String> {
                $($(self.$field.check(&<$ty as Value>::at(path, stringify!($field)))?;)+)*
                $($invariant(self).map_err(|e| format!("{}: {e}", at(path)))?;)?
                Ok(())
            }
            fn visit(&self, path: &str, field: Field, leaf: &mut Visitor<'_>) {
                $(leaf(&join(path, "kind"), &Json::Str($kind.to_string()), field);)?
                $(
                    let declared = schema!(@field $($class $($better)?)?).under(field);
                    $(self.$field.visit(&<$ty as Value>::at(path, stringify!($field)), declared, leaf);)+
                )*
            }
        }

        schema!(@record $name $($kind)?);
        schema!(@from [$($src)?] $name { $($($field)+)* });
    )*};
}

schema! {
    /// The `results/<bench>.json` envelope.
    Envelope where envelope_invariants {
        bench: String;
        schema_version: u64;
        git: String [Volatile];
        jobs: u64 [Volatile];
        wall_ms: f64 [Timing];
        records: Vec<Json>;
    }

    /// `"run"`: one timed simulation run — its spec, throughput, host
    /// wall-clock, dropped trace events and every [`SimStats`] counter.
    Run = "run" {
        design, workload, workload_kind, dataset: String;
        threads_requested, threads, transactions: u64;
        expansion: bool;
        secure: String;
        seed: u64;
        tweaked: bool;
        throughput_tps: f64;
        wall_ms: f64 [Timing];
        trace_dropped: u64;
        stats: Stats;
    }

    /// A run's [`SimStats`], with one `cache` entry per level (L1, L2, LLC).
    Stats {
        cycles, transactions_committed, tx_stores, tx_loads: u64;
        cache: [CacheLevel; 3];
        mem: Mem;
        log: Log;
        attr: Attr;
        hist: StatsHist;
        series: StatsSeries;
    }

    /// One cache level's counters.
    CacheLevel from CacheLevelStats {
        hits, misses, writebacks, evictions: u64;
    }

    /// Memory-controller and NVM counters.
    Mem from MemStats {
        nvmm_reads, nvmm_writes, data_writes, log_writes: u64;
        cells_programmed, bits_programmed, log_bits_programmed: u64;
        write_energy_pj, log_write_energy_pj: f64;
        wq_full_stall_cycles, drains, reads_blocked_by_drain, silent_block_writes: u64;
        read_wait_cycles, log_overflow_growths, faults_torn_drains, faults_bit_flips: u64;
        write_verify_failures, write_verify_retries, stuck_slots_remapped: u64;
    }

    /// Log-controller counters.
    Log from LogStats {
        undo_redo_created, redo_created, coalesced, silent_discarded, redo_discarded: u64;
        entries_written, commit_records, commit_stall_cycles, buffer_full_stall_cycles: u64;
        post_commit_redo, log_region_full_stalls: u64;
    }

    /// Cycle attribution: one account per stall bucket, summing to
    /// `total` (`cycles * threads`).
    Attr where attr_invariants {
        busy, read_wait, drain_wait, log_buffer_stall, wq_stall, commit_wait, idle, total: u64;
    }

    /// Commit-latency and log-entry-size histograms, encoder choices.
    StatsHist {
        commit: Map<CommitKeys, Hist>;
        log_entry_bits: Map<LogKindKeys, Hist>;
        encoder_choices: Map<EncoderKeys, u64>;
    }

    /// One log2-bucketed histogram; `buckets` holds the non-empty
    /// `[bucket, count]` pairs.
    Hist where hist_invariants {
        count, sum, min, max, p50, p90, p99: u64;
        buckets: Vec<[u64; 2]>;
    }

    /// The sample period, then one entry per sampled series.
    StatsSeries {
        period: u64;
        series: Inline<SeriesKeys, SeriesSamples>;
    }

    /// One cycle-sampled series as parallel arrays.
    SeriesSamples from Series where series_invariants {
        cycles, values: Vec<u64>;
    }

    /// `"host_perf"`: one run's host-profiling snapshot — exclusive wall
    /// time per [`HostPhase`], deterministic [`HostCounter`]s, per-phase
    /// allocator statistics and the headline sim-rate.
    HostPerf = "host_perf" where host_perf_invariants {
        design, workload: String;
        threads, transactions, seed, sim_cycles: u64;
        wall_ns: u64 [Timing];
        sim_rate_cps: f64 [Timing Higher];
        profile_total_ns: u64 [Timing];
        phase_ns: Map<PhaseKeys, u64> [Timing];
        counters: Map<CounterKeys, u64>;
        alloc_count, alloc_bytes: Map<AllocKeys, u64> [Timing];
    }

    /// `"crash_check"`: one exhaustive crash-point campaign
    /// (`crash_explore`) and its gate verdict.
    CrashCheck = "crash_check" where crash_check_invariants {
        design, workload, mutation: String;
        events, points_total, pruned, capped, explored, verified, failures: u64;
        passed: bool;
    }

    /// `"crash_fuzz"`: one coverage-guided random campaign (`crash_fuzz`)
    /// and its gate verdict.
    CrashFuzz = "crash_fuzz" where crash_fuzz_invariants {
        design, workload, mutation: String;
        events, sampled, novel, pruned, executed, verified, failures, coverage: u64;
        passed: bool;
    }

    /// `"crash_diff"`: one differential cross-design run (`crash_fuzz`);
    /// `culprit` is `"none"` unless the designs diverged.
    CrashDiff = "crash_diff" where crash_diff_invariants {
        design_a, design_b, workload: String;
        checked, divergences: u64;
        culprit: String;
        passed: bool;
    }

    /// `"crash_cell"`: one fault-injection cell of `crash_matrix`.
    CrashCell = "crash_cell" {
        design, workload, plan: String;
        crash_cycle, seed: u64;
        passed: bool;
        injected: u64;
        damaged: bool;
        error: Option<String>;
    }

    /// `"write_distance"`: one workload's Fig. 3 profile.
    WriteDistance = "write_distance" {
        workload: String;
        transactions: u64;
        buckets: Map<DistanceKeys, f64>;
        beyond_31_fraction, repeat_fraction: f64;
    }

    /// `"clean_bytes"`: one workload's Fig. 5 profile.
    CleanBytes = "clean_bytes" {
        workload: String;
        transactions: u64;
        clean_fraction, silent_fraction: f64;
    }

    /// `"endurance"`: one design's wear summary and run counters.
    Endurance = "endurance" {
        design: String;
        max_data_line_programs, max_log_slot_programs, locations: u64;
        stats: Stats;
    }

    /// `"hardware_overhead"`: Table I storage overheads.
    HardwareOverhead = "hardware_overhead" {
        log_registers_bytes, l1_ext_bits_per_line, undo_redo_buffer_bytes: u64;
        redo_buffer_bytes, ulog_counters_bytes: u64;
    }

    /// `"slde_flag_overhead"`: dirty-flag capacity overheads at `m`
    /// bytes per flag bit.
    SldeFlagOverhead = "slde_flag_overhead" {
        m: u64;
        undo_redo_fraction, redo_fraction, l1_fraction: f64;
    }

    /// `"slde_synthesis"`: the paper's SLDE codec synthesis constants
    /// (`encode_latency_ns` is a paper figure, not host time).
    SldeSynthesis = "slde_synthesis" {
        log_region_flag_fraction, extra_gates, encode_latency_ns: f64;
        encode_energy_pj, decode_energy_pj: f64;
    }

    /// `"dldc_patterns"`: one workload's Table II pattern fractions.
    DldcPatterns = "dldc_patterns" {
        workload: String;
        transactions: u64;
        patterns: Map<PatternKeys, f64>;
        coverage: f64;
    }

    /// One `perf_history.jsonl` line (appended by `perf_report`; not a
    /// results-document record).
    PerfHistory = "perf_history" {
        git: String [Volatile];
        unix_ms: u64 [Volatile];
        entries: Vec<PerfHistoryEntry>;
    }

    /// One design×workload point of a [`PerfHistory`] line.
    PerfHistoryEntry where perf_history_invariants {
        design, workload: String;
        sim_cycles: u64;
        wall_ms: f64 [Timing];
        sim_rate_cps: f64 [Timing Higher];
        alloc_bytes: u64 [Timing];
    }
}

/// A record kind's entry points, for records held as [`Json`].
pub struct RecordKind {
    /// The `"kind"` it is written with.
    pub kind: &'static str,
    check: fn(&Json, &str) -> Result<(), String>,
    visit: fn(&Json, &str, Field, &mut Visitor<'_>),
}

macro_rules! record_kinds {
    ($($name:ident),*) => {
        [$(RecordKind { kind: $name::KIND, check: check_as::<$name>, visit: visit_as::<$name> },)*]
    };
}

/// Every record kind a results document may hold.
///
/// Schema history: version 2 added `stats.attr`; version 3 added
/// `trace_dropped`, `stats.hist` and `stats.series` to `"run"` records;
/// version 4 added `"crash_check"`; version 5 added `"crash_fuzz"` and
/// `"crash_diff"`; version 6 added `"host_perf"`.
pub const RECORD_KINDS: [RecordKind; 13] = record_kinds! {
    Run, HostPerf, CrashCheck, CrashFuzz, CrashDiff, CrashCell, WriteDistance, CleanBytes,
    Endurance, HardwareOverhead, SldeFlagOverhead, SldeSynthesis, DldcPatterns
};

fn record_kind(record: &Json, path: &str) -> Result<&'static RecordKind, String> {
    let kind = record.get("kind").and_then(Json::as_str);
    RECORD_KINDS
        .iter()
        .find(|k| Some(k.kind) == kind)
        .ok_or_else(|| format!("{}: unknown record kind {kind:?}", at(path)))
}

impl From<&TimedRun> for Run {
    fn from(run: &TimedRun) -> Self {
        let spec = &run.spec;
        Run {
            design: spec.design.label().into(),
            workload: run.report.workload.clone(),
            workload_kind: spec.kind.label().into(),
            dataset: spec.dataset.label().into(),
            threads_requested: spec.requested_threads() as u64,
            threads: run.report.threads as u64,
            transactions: spec.transactions as u64,
            expansion: spec.expansion,
            secure: spec.secure.label().into(),
            seed: spec.seed,
            tweaked: spec.tweak.is_some(),
            throughput_tps: run.report.throughput(),
            wall_ms: run.wall.as_secs_f64() * 1e3,
            trace_dropped: run.report.trace_dropped,
            stats: Stats::from(&run.report.stats),
        }
    }
}

impl From<&SimStats> for Stats {
    fn from(s: &SimStats) -> Self {
        let (log_writes, series) = (&s.metrics.log_writes, &s.metrics.series);
        let commit = s.metrics.commit.named().map(|(_, h)| Hist::from(h));
        let samples = series
            .named()
            .map(|(_, samples)| SeriesSamples::from(samples));
        Stats {
            cycles: s.cycles,
            transactions_committed: s.transactions_committed,
            tx_stores: s.tx_stores,
            tx_loads: s.tx_loads,
            cache: s.cache.each_ref().map(CacheLevel::from),
            mem: Mem::from(&s.mem),
            log: Log::from(&s.log),
            attr: Attr::from(&s.attr),
            hist: StatsHist {
                commit: commit.into_iter().collect(),
                log_entry_bits: log_writes.entry_bits.iter().map(Hist::from).collect(),
                encoder_choices: log_writes.encoder_choices.into_iter().collect(),
            },
            series: StatsSeries {
                period: series.period,
                series: Inline(samples.into_iter().collect()),
            },
        }
    }
}

impl From<&CycleAttribution> for Attr {
    fn from(a: &CycleAttribution) -> Self {
        Attr {
            busy: a.busy,
            read_wait: a.read_wait,
            drain_wait: a.drain_wait,
            log_buffer_stall: a.log_buffer_stall,
            wq_stall: a.wq_stall,
            commit_wait: a.commit_wait,
            idle: a.idle,
            total: a.total(),
        }
    }
}

impl From<&Histogram> for Hist {
    /// The exact 128-bit sum is clamped to `u64::MAX` on overflow
    /// (unreachable for cycle counts).
    fn from(h: &Histogram) -> Self {
        Hist {
            count: h.count(),
            sum: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            buckets: h.nonzero_buckets().map(|(i, c)| [i as u64, c]).collect(),
        }
    }
}

impl From<&TimedRun> for HostPerf {
    fn from(run: &TimedRun) -> Self {
        let profile = &run.host;
        let alloc = |slots: [u64; ALLOC_SLOTS]| {
            let total = slots.iter().sum();
            slots.into_iter().chain([total]).collect()
        };
        HostPerf {
            design: run.spec.design.label().into(),
            workload: run.report.workload.clone(),
            threads: run.report.threads as u64,
            transactions: run.spec.transactions as u64,
            seed: run.spec.seed,
            sim_cycles: run.report.stats.cycles,
            wall_ns: run.wall.as_nanos() as u64,
            sim_rate_cps: run.sim_rate_cps(),
            profile_total_ns: profile.total_ns(),
            phase_ns: profile.phase_ns().into_iter().collect(),
            counters: profile.counters().into_iter().collect(),
            alloc_count: alloc(profile.alloc_count()),
            alloc_bytes: alloc(profile.alloc_bytes()),
        }
    }
}

fn envelope_invariants(e: &Envelope) -> Result<(), String> {
    let version = e.schema_version;
    if version != SCHEMA_VERSION {
        Err(format!("schema_version {version} != {SCHEMA_VERSION}"))
    } else if e.jobs == 0 {
        Err("jobs must be >= 1".into())
    } else {
        Ok(())
    }
}

fn attr_invariants(a: &Attr) -> Result<(), String> {
    let stalls = a.read_wait + a.drain_wait + a.log_buffer_stall + a.wq_stall + a.commit_wait;
    let (sum, total) = (a.busy + stalls + a.idle, a.total);
    if sum != total {
        return Err(format!("accounts sum to {sum} but total says {total}"));
    }
    Ok(())
}

fn hist_invariants(h: &Hist) -> Result<(), String> {
    let sum: u64 = h.buckets.iter().map(|[_, n]| n).sum();
    let count = h.count;
    if let Some([bucket, _]) = h.buckets.iter().find(|[b, _]| *b >= HIST_BUCKETS as u64) {
        Err(format!("bucket index {bucket} out of range"))
    } else if sum != count {
        Err(format!("bucket counts sum to {sum} but count says {count}"))
    } else if count > 0 && !(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max) {
        Err("quantiles must be ordered p50 <= p90 <= p99 <= max".into())
    } else {
        Ok(())
    }
}

fn series_invariants(s: &SeriesSamples) -> Result<(), String> {
    let (cycles, values) = (s.cycles.len(), s.values.len());
    if cycles != values {
        Err(format!(
            "cycles has {cycles} entries but values has {values}"
        ))
    } else if let Some(i) = s.cycles.windows(2).position(|w| w[1] < w[0]) {
        Err(format!("cycles[{}] goes backwards", i + 1))
    } else {
        Ok(())
    }
}

fn rate_invariant(rate: f64) -> Result<(), String> {
    if !rate.is_finite() || rate < 0.0 {
        return Err(format!("sim_rate_cps {rate} must be finite and >= 0"));
    }
    Ok(())
}

fn host_perf_invariants(r: &HostPerf) -> Result<(), String> {
    rate_invariant(r.sim_rate_cps)?;
    let (total, wall) = (r.profile_total_ns, r.wall_ns);
    let phases: u64 = r.phase_ns.values.iter().sum();
    if total > wall {
        return Err(format!("profile_total_ns {total} exceeds wall_ns {wall}"));
    } else if phases != total {
        return Err(format!(
            "phase_ns sums to {phases} but profile_total_ns says {total}"
        ));
    }
    for map in [&r.alloc_count, &r.alloc_bytes] {
        let (total, slots) = map.values.split_last().unwrap_or((&0, &[]));
        let sum: u64 = slots.iter().sum();
        if sum != *total {
            return Err(format!("alloc slots sum to {sum} but total says {total}"));
        }
    }
    Ok(())
}

fn crash_check_invariants(r: &CrashCheck) -> Result<(), String> {
    let (events, points, explored) = (r.events, r.points_total, r.explored);
    let (verified, failures) = (r.verified, r.failures);
    if points != events + 1 {
        Err(format!("points_total {points} != events {events} + 1"))
    } else if explored + r.pruned + r.capped < points {
        // Not `!=`: the torn-drain variant can explore a point twice.
        Err(format!(
            "explored + pruned + capped does not cover points_total {points}"
        ))
    } else if verified + failures != explored {
        Err(format!(
            "verified {verified} + failures {failures} != explored {explored}"
        ))
    } else {
        Ok(())
    }
}

fn crash_fuzz_invariants(r: &CrashFuzz) -> Result<(), String> {
    let (executed, pruned, sampled) = (r.executed, r.pruned, r.sampled);
    let (verified, failures) = (r.verified, r.failures);
    if executed + pruned != sampled {
        Err(format!(
            "executed {executed} + pruned {pruned} != sampled {sampled}"
        ))
    } else if verified + failures != executed {
        Err(format!(
            "verified {verified} + failures {failures} != executed {executed}"
        ))
    } else {
        Ok(())
    }
}

fn crash_diff_invariants(r: &CrashDiff) -> Result<(), String> {
    let (divergences, checked) = (r.divergences, r.checked);
    if divergences > checked {
        return Err(format!("divergences {divergences} > checked {checked}"));
    }
    Ok(())
}

fn perf_history_invariants(e: &PerfHistoryEntry) -> Result<(), String> {
    rate_invariant(e.sim_rate_cps)
}

/// Collects result records for one bench binary and writes
/// `results/<bench>.json` on [`ResultSink::finish`].
pub struct ResultSink {
    bench: String,
    jobs: usize,
    records: Vec<Json>,
    started: Instant,
}

impl ResultSink {
    /// A sink for the named bench binary; `jobs` is the sweep parallelism
    /// recorded in the envelope.
    pub fn new(bench: &str, jobs: usize) -> Self {
        ResultSink {
            bench: bench.to_string(),
            jobs,
            records: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Appends one record of a declared kind.
    pub fn push(&mut self, record: impl Record) {
        self.records.push(record.json());
    }

    /// Appends one `"run"` record for a timed simulation run.
    pub fn push_run(&mut self, run: &TimedRun) {
        self.push(Run::from(run));
    }

    /// Appends `"run"` records for a whole sweep.
    pub fn push_runs<'a>(&mut self, runs: impl IntoIterator<Item = &'a TimedRun>) {
        for run in runs {
            self.push_run(run);
        }
    }

    /// Assembles the envelope document (also used by the schema tests).
    pub fn document(&self) -> Json {
        Envelope {
            bench: self.bench.clone(),
            schema_version: SCHEMA_VERSION,
            git: git_describe(),
            jobs: self.jobs as u64,
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            records: self.records.clone(),
        }
        .json()
    }

    /// Writes `results/<bench>.json` (directory from `MORLOG_RESULTS_DIR`,
    /// default `results/`, created if missing). Reports the path on stderr
    /// so table output on stdout stays byte-identical across runs.
    ///
    /// A document that breaks its declaration is not written: the error
    /// goes to stderr and the process exits with status 1.
    pub fn finish(self) {
        let dir = morlog_sim_core::knobs::results_dir();
        let path = std::path::Path::new(&dir).join(format!("{}.json", self.bench));
        let doc = self.document();
        if let Err(e) = validate_document(&doc) {
            eprintln!("error: {} breaks its declared schema: {e}", path.display());
            std::process::exit(1);
        }
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.to_json_pretty() + "\n"))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("results: wrote {}", path.display());
        }
    }
}

/// `git describe --always --dirty` of this crate's source tree, or
/// `"unknown"` when git is unavailable.
///
/// The subprocess is pinned to `CARGO_MANIFEST_DIR` rather than the
/// process working directory, so a bench binary launched from an
/// unrelated repository (or from no repository at all) still stamps the
/// tree the code was built from. The answer cannot change within one
/// process, so it is computed once and memoized — sweeps that stamp
/// hundreds of records no longer fork git per record.
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn at(path: &str) -> &str {
    if path.is_empty() {
        "document"
    } else {
        path
    }
}

/// Where `got` first departs from `want`, its re-serialization through
/// the declaration: an undeclared, missing or reordered field, a wrong
/// item count, or a value of the wrong type.
fn first_difference(got: &Json, want: &Json, path: &str) -> Option<String> {
    let at = at(path);
    match (got, want) {
        (Json::Obj(got), Json::Obj(want)) => {
            let declared = |key: &String| want.iter().any(|(name, _)| name == key);
            if let Some((key, _)) = got.iter().find(|(key, _)| !declared(key)) {
                return Some(format!("{at}: undeclared field {key:?}"));
            }
            for (i, (name, w)) in want.iter().enumerate() {
                match got.get(i) {
                    Some((key, g)) if key == name => {
                        let d = first_difference(g, w, &join(path, name));
                        if d.is_some() {
                            return d;
                        }
                    }
                    _ if got.iter().any(|(key, _)| key == name) => {
                        return Some(format!("{at}: field {name:?} is out of declared order"));
                    }
                    _ => return Some(format!("{at}: missing field {name:?}")),
                }
            }
            (got.len() > want.len()).then(|| format!("{at}: duplicate field"))
        }
        (Json::Arr(got), Json::Arr(want)) if got.len() == want.len() => {
            let mut items = got.iter().zip(want).enumerate();
            items.find_map(|(i, (g, w))| first_difference(g, w, &format!("{path}[{i}]")))
        }
        (Json::Arr(got), Json::Arr(want)) => Some(format!(
            "{at}: {} items, declared {}",
            got.len(),
            want.len()
        )),
        _ if got == want => None,
        _ => Some(format!(
            "{at}: {} reads back as {}",
            got.to_json(),
            want.to_json()
        )),
    }
}

fn check_as<T: Value>(v: &Json, path: &str) -> Result<(), String> {
    let typed = T::from_json(v);
    match first_difference(v, &typed.json(), path) {
        Some(e) => Err(e),
        None => typed.check(path),
    }
}

fn visit_as<T: Value>(v: &Json, path: &str, field: Field, leaf: &mut Visitor<'_>) {
    T::from_json(v).visit(path, field, leaf);
}

/// Validates `v` as a `T`: reading it through `T`'s declaration and
/// writing it back must reproduce it exactly (every declared field, in
/// order, with its declared type, and nothing else), and every declared
/// invariant must hold.
///
/// # Errors
///
/// Returns a message naming the path of the first offending field.
pub fn validate<T: Value>(v: &Json) -> Result<(), String> {
    check_as::<T>(v, "")
}

/// Validates a whole `results/*.json` document (an [`Envelope`]).
///
/// # Errors
///
/// Returns a message naming the path of the first offending field.
pub fn validate_document(doc: &Json) -> Result<(), String> {
    validate::<Envelope>(doc)
}

/// Calls `leaf` with the path (e.g. `records[3].stats.mem.drains`), value
/// and declared [`Class`] of every scalar of a document that passed
/// [`validate_document`]. A field's class covers everything under it;
/// every array also yields its length as `<path>.len`, always
/// deterministic.
pub fn walk(doc: &Json, leaf: &mut dyn FnMut(&str, &Json, Class)) {
    walk_fields(doc, &mut |path, value, field| {
        leaf(path, value, field.class)
    });
}

/// [`walk`] with each scalar's whole [`Field`]: its class and which way
/// it improves.
pub fn walk_fields(doc: &Json, leaf: &mut dyn FnMut(&str, &Json, Field)) {
    Envelope::from_json(doc).visit("", Field::DETERMINISTIC, leaf);
}
