//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§VI). Each `src/bin/*` binary prints one table/figure; this
//! library holds the common runner.
//!
//! Run sizes default to values that complete in minutes on a laptop and can
//! be scaled with the `MORLOG_TXS` environment variable (the paper runs
//! 100 K transactions per workload; the shapes are stable well below that).
//!
//! The design space is embarrassingly parallel across
//! (design × workload × seed) points, so sweeps fan out across a
//! [`SweepRunner`] thread pool sized by `MORLOG_JOBS` (default: available
//! parallelism). Each per-run simulation stays single-threaded and
//! deterministic; results are returned **in spec order**, independent of
//! completion order, so parallel sweeps print byte-identical tables to
//! serial ones. Workload traces are generated once per distinct
//! `(kind, dataset, threads, transactions, seed)` key through the
//! [`morlog_workloads::cache`] trace cache and shared immutably across
//! designs and worker threads. Alongside the printed tables, every binary
//! records machine-readable JSON results under `results/` (see
//! [`results`]).

#![deny(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use morlog_encoding::secure::SecureMode;
use morlog_sim::{RunReport, System};
use morlog_sim_core::hostprof::{self, HostProfile};
use morlog_sim_core::stats::CycleAttribution;
use morlog_sim_core::trace::Tracer;
use morlog_sim_core::{knobs, par};
use morlog_sim_core::{DesignKind, SystemConfig};
use morlog_workloads::{cached_generate, DatasetSize, WorkloadConfig, WorkloadKind};

pub mod alloc;
pub mod cx;
pub mod diff;
pub mod json;
pub mod perfetto;
pub mod results;

/// Every bench binary (and test) runs under the counting allocator so
/// `MORLOG_HOSTPROF=1` / `perf_report` can attribute heap traffic per
/// phase. While profiling is disabled the hook is one relaxed load and a
/// branch per allocation.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// A configuration tweak applied after design defaults. `Arc<dyn Fn>`
/// (rather than a bare `fn` pointer) so sweep points can capture their
/// parameters instead of smuggling them through environment variables,
/// which would race under a parallel sweep.
pub type Tweak = Arc<dyn Fn(&mut SystemConfig) + Send + Sync>;

/// Parameters of one simulated run.
#[derive(Clone)]
pub struct RunSpec {
    /// Logging design.
    pub design: DesignKind,
    /// Benchmark.
    pub kind: WorkloadKind,
    /// Dataset size.
    pub dataset: DatasetSize,
    /// Worker threads (0 = the paper's default for the benchmark).
    pub threads: usize,
    /// Total transactions.
    pub transactions: usize,
    /// Expansion coding enabled (Table VI turns it off).
    pub expansion: bool,
    /// Secure-NVMM mode (§IV-D ablations; plaintext by default).
    pub secure: SecureMode,
    /// Workload RNG seed (42 everywhere in the paper's evaluation).
    pub seed: u64,
    /// System-configuration tweak applied after defaults.
    pub tweak: Option<Tweak>,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("design", &self.design)
            .field("kind", &self.kind)
            .field("dataset", &self.dataset)
            .field("threads", &self.threads)
            .field("transactions", &self.transactions)
            .field("expansion", &self.expansion)
            .field("secure", &self.secure)
            .field("seed", &self.seed)
            .field("tweak", &self.tweak.as_ref().map(|_| "..."))
            .finish()
    }
}

impl RunSpec {
    /// A paper-default run of `kind` under `design`.
    pub fn new(design: DesignKind, kind: WorkloadKind, transactions: usize) -> Self {
        RunSpec {
            design,
            kind,
            dataset: DatasetSize::Small,
            threads: 0,
            transactions,
            expansion: true,
            secure: SecureMode::None,
            seed: 42,
            tweak: None,
        }
    }

    /// Selects the large (4 KB) dataset.
    pub fn large(mut self) -> Self {
        self.dataset = DatasetSize::Large;
        self
    }

    /// Overrides the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Disables expansion coding.
    pub fn no_expansion(mut self) -> Self {
        self.expansion = false;
        self
    }

    /// Selects a secure-NVMM mode.
    pub fn secure(mut self, mode: SecureMode) -> Self {
        self.secure = mode;
        self
    }

    /// Overrides the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies a configuration tweak (buffer sizes, latency scale, ...).
    /// Closures may capture their sweep parameters.
    pub fn tweak(mut self, f: impl Fn(&mut SystemConfig) + Send + Sync + 'static) -> Self {
        self.tweak = Some(Arc::new(f));
        self
    }

    /// Workload label with the dataset suffix (Fig. 14 style).
    pub fn label(&self) -> String {
        if self.kind == WorkloadKind::Tpcc {
            self.kind.label().to_string()
        } else {
            format!("{}-{}", self.kind.label(), self.dataset.label())
        }
    }

    /// The design-default configuration with this spec's tweak applied.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::for_design(self.design);
        if let Some(tweak) = &self.tweak {
            tweak(&mut cfg);
        }
        cfg
    }

    /// The thread count this spec asks for (0 resolves to the paper's
    /// default for the benchmark).
    pub fn requested_threads(&self) -> usize {
        if self.threads == 0 {
            self.kind.default_threads()
        } else {
            self.threads
        }
    }

    /// The thread count that actually runs: the request clamped to the
    /// configuration's core count. Rows must be labelled with this.
    pub fn effective_threads(&self) -> usize {
        self.requested_threads().min(self.config().cores.cores)
    }
}

/// Executes one run and returns its report.
pub fn run(spec: &RunSpec) -> RunReport {
    let cfg = spec.config();
    let requested = spec.requested_threads();
    let threads = requested.min(cfg.cores.cores);
    if threads < requested {
        eprintln!(
            "warning: {} requests {requested} threads but the configuration has only {} \
             cores; simulating {threads} threads (rows are labelled with the effective count)",
            spec.label(),
            cfg.cores.cores
        );
    }
    let wl = WorkloadConfig {
        threads,
        total_transactions: spec.transactions,
        dataset: spec.dataset,
        seed: spec.seed,
        data_base: System::data_base(&cfg),
    };
    let trace = cached_generate(spec.kind, &wl);
    let mut sys = System::with_options(cfg.clone(), &trace, spec.expansion, spec.secure);
    let stats = sys.run();
    let trace_dropped = sys.tracer().dropped();
    if trace_dropped > 0 {
        eprintln!(
            "warning: {}: trace ring evicted {trace_dropped} events — the trace is \
             truncated at the front; raise the MORLOG_TRACE capacity to keep it whole",
            spec.label()
        );
    }
    maybe_dump_trace(spec, sys.tracer());
    RunReport {
        design: spec.design,
        workload: spec.label(),
        threads,
        stats,
        frequency: cfg.cores.frequency,
        trace_dropped,
    }
}

/// Runs all six designs on one spec, returning reports in
/// [`DesignKind::ALL`] order (index 0 is the FWB-CRADE baseline).
///
/// The workload trace is generated **once** and shared across the designs
/// through the trace cache: the memory map (and therefore `data_base`) is
/// identical for every design, so all six runs replay the same trace.
pub fn run_all_designs(base: &RunSpec) -> Vec<RunReport> {
    DesignKind::ALL
        .iter()
        .map(|&design| {
            let mut spec = base.clone();
            spec.design = design;
            run(&spec)
        })
        .collect()
}

/// One sweep result: the spec, its report and the host wall-clock the run
/// took (simulated time lives in `report.stats.cycles`).
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// The spec that ran.
    pub spec: RunSpec,
    /// Its report.
    pub report: RunReport,
    /// Host wall-clock spent simulating (excludes queueing).
    pub wall: Duration,
    /// Host-profiling snapshot for this run (empty when `MORLOG_HOSTPROF`
    /// is off).
    pub host: HostProfile,
}

impl TimedRun {
    /// Headline host-speed metric: simulated cycles per host-second.
    /// Returns 0 when the wall-clock rounded to zero.
    pub fn sim_rate_cps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.report.stats.cycles as f64 / secs
        }
    }
}

/// A bounded worker pool that fans independent sweep points out across
/// threads and returns results **in input order** (through
/// [`morlog_sim_core::par::ordered_map`]), so a parallel sweep is
/// byte-identical to a serial one. With `jobs == 1` everything executes
/// on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner sized by `MORLOG_JOBS` (default: available parallelism).
    pub fn from_env() -> Self {
        Self::with_jobs(knobs::jobs())
    }

    /// A runner with an explicit worker count (>= 1 enforced).
    pub fn with_jobs(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel across the pool, returning
    /// results in item order regardless of completion order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the sweep aborts; no partial table is
    /// printed with holes in it).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        par::ordered_map(self.jobs, items, f)
    }

    /// Runs a list of specs through the pool, timing each, with results in
    /// spec order.
    pub fn run_specs(&self, specs: &[RunSpec]) -> Vec<TimedRun> {
        self.map(specs, |spec| {
            // Drop whatever the worker thread accumulated before this run so
            // the harvested profile covers exactly one simulation.
            let _ = hostprof::take();
            let t0 = std::time::Instant::now();
            let report = run(spec);
            let wall = t0.elapsed();
            let host = hostprof::take();
            TimedRun {
                spec: spec.clone(),
                report,
                wall,
                host,
            }
        })
    }

    /// [`run_all_designs`] through the pool: all six designs on one base
    /// spec, in [`DesignKind::ALL`] order.
    pub fn run_designs(&self, base: &RunSpec) -> Vec<TimedRun> {
        let specs: Vec<RunSpec> = DesignKind::ALL
            .iter()
            .map(|&design| {
                let mut spec = base.clone();
                spec.design = design;
                spec
            })
            .collect();
        self.run_specs(&specs)
    }
}

/// Prints a normalized-metric table row per design (Fig. 12/13/14 bars).
/// An empty report slice (every run filtered or skipped) prints a
/// diagnostic instead of panicking on the missing baseline.
pub fn print_normalized_rows(workload: &str, reports: &[RunReport]) {
    let Some(baseline) = reports.first() else {
        println!("{workload:<14} (no runs — nothing to normalize)");
        return;
    };
    print!("{workload:<14}");
    for r in reports {
        print!(" {:>12.3}", r.normalized_throughput(baseline));
    }
    println!();
}

/// Prints the header line for design columns.
pub fn print_design_header(first_col: &str) {
    print!("{first_col:<14}");
    for d in DesignKind::ALL {
        print!(" {:>12}", d.label());
    }
    println!();
}

/// Prints the per-design cycle-attribution breakdown: what fraction of the
/// run's core-cycles each stall account consumed. The accounts come from
/// the simulator's profiler and sum exactly to the run's execution cycles
/// times its cores, so the percentages of a row always total 100.
pub fn print_stall_breakdown(reports: &[RunReport]) {
    if reports.is_empty() {
        return;
    }
    print!("{:<14}", "cycle %");
    for label in CycleAttribution::LABELS {
        print!(" {label:>16}");
    }
    println!();
    for r in reports {
        print!("{:<14}", r.design.label());
        let total = r.stats.attr.total();
        for v in r.stats.attr.values() {
            if total == 0 {
                print!(" {:>16}", "-");
            } else {
                print!(" {:>15.1}%", 100.0 * v as f64 / total as f64);
            }
        }
        println!();
    }
}

/// Prints the per-design commit-latency table: p50/p99 of
/// Begin→RecordPersisted (when the commit is durable in NVM) and of
/// Begin→Complete (when the program observes the commit). For the sync
/// protocols the two track each other; under delay-persistence the
/// Complete column collapses to the commit request itself while the
/// persist column keeps the drain time — that gap is the §III-C
/// persistence lag, whose p99 is printed in the last column for DP
/// designs (`-` elsewhere). Quantiles come from the deterministic
/// log2-bucketed histograms, so the table is byte-identical across
/// serial/parallel sweeps and with tracing on or off.
pub fn print_commit_latency_table(reports: &[RunReport]) {
    if reports.is_empty() {
        return;
    }
    println!(
        "{:<14} {:>14} {:>10} {:>14} {:>10} {:>12}",
        "commit cycles", "persist p50", "p99", "complete p50", "p99", "dp lag p99"
    );
    for r in reports {
        let c = &r.stats.metrics.commit;
        let lag = if c.dp_persist_lag.is_empty() {
            "-".to_string()
        } else {
            c.dp_persist_lag.p99().to_string()
        };
        println!(
            "{:<14} {:>14} {:>10} {:>14} {:>10} {:>12}",
            r.design.label(),
            c.begin_to_persist.p50(),
            c.begin_to_persist.p99(),
            c.begin_to_complete.p50(),
            c.begin_to_complete.p99(),
            lag
        );
    }
}

/// Writes a finished run's event trace as JSONL when tracing is enabled
/// **and** `MORLOG_TRACE_DIR` names a dump directory. The file is
/// `<design>_<workload>_t<threads>_s<seed>.jsonl`, one event object per
/// line, so parallel sweep points land in distinct files. Diagnostics go
/// to stderr; stdout tables stay byte-identical with tracing on or off.
fn maybe_dump_trace(spec: &RunSpec, tracer: &Tracer) {
    if !tracer.is_enabled() {
        return;
    }
    let Some(dir) = knobs::trace_dir() else {
        return;
    };
    let name = format!(
        "{}_{}_t{}_s{}.jsonl",
        spec.design.label(),
        spec.label(),
        spec.effective_threads(),
        spec.seed
    );
    let path = std::path::Path::new(&dir).join(name);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("warning: could not write trace {}: {e}", path.display());
    } else {
        eprintln!(
            "trace: wrote {} ({} events, {} dropped)",
            path.display(),
            tracer.len(),
            tracer.dropped()
        );
    }
}
