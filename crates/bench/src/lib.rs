//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§VI). Each `src/bin/*` binary prints one table/figure; this
//! library holds the common runner, the six-design [`Grid`] every
//! FWB-CRADE-normalized comparison runs through, and the one [`Table`]
//! printer.
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
use morlog_sim_core::stats::{geometric_mean, CycleAttribution};
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

    /// Selects the dataset size.
    pub fn dataset(mut self, dataset: DatasetSize) -> Self {
        self.dataset = dataset;
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

    /// Runs every row spec under each design of [`DesignKind::ALL`] (the
    /// row's own design is replaced), as one batch through the pool.
    pub fn grid(&self, rows: &[RunSpec]) -> Grid {
        let specs: Vec<RunSpec> = rows
            .iter()
            .flat_map(|row| {
                DesignKind::ALL.iter().map(move |&design| RunSpec {
                    design,
                    ..row.clone()
                })
            })
            .collect();
        Grid {
            runs: self.run_specs(&specs),
        }
    }
}

/// The six-design comparison behind Figs. 12–14 and 16, Tables V–VI and
/// the §VI-E sweep: each row spec run under every design, in
/// [`DesignKind::ALL`] order, so design 0 (FWB-CRADE) is each row's
/// baseline.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Row-major: the six designs of row 0, then of row 1, ...
    runs: Vec<TimedRun>,
}

impl Grid {
    /// Every run, row by row.
    pub fn runs(&self) -> &[TimedRun] {
        &self.runs
    }

    /// The rows, each holding its runs in [`DesignKind::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = &[TimedRun]> {
        self.runs.chunks_exact(DesignKind::ALL.len())
    }

    /// Every run, design by design (all rows of FWB-CRADE first) — the
    /// record order of the sweeps whose tables have one line per design.
    pub fn by_design(&self) -> impl Iterator<Item = &TimedRun> {
        (0..DesignKind::ALL.len()).flat_map(move |d| self.rows().map(move |row| &row[d]))
    }

    /// `metric(run, baseline)` for every run, indexed `[row][design]`,
    /// with each row's design 0 as the baseline (e.g.
    /// [`RunReport::normalized_throughput`]).
    pub fn normalized(&self, metric: impl Fn(&RunReport, &RunReport) -> f64) -> Vec<Vec<f64>> {
        self.rows()
            .map(|row| {
                row.iter()
                    .map(|t| metric(&t.report, &row[0].report))
                    .collect()
            })
            .collect()
    }
}

/// How a table column folds its values into one summary cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// Geometric mean, 0 when undefined (Figs. 12–14 and 16, §VI-E).
    Gmean,
    /// Arithmetic mean (Tables V and VI).
    Mean,
}

impl Summary {
    /// One summary per column of `rows` (`rows[row][column]`).
    pub fn columns(self, rows: &[Vec<f64>]) -> Vec<f64> {
        let fold = |column: &Vec<f64>| match self {
            Summary::Gmean => geometric_mean(column).unwrap_or(0.0),
            // Summed as v/n term by term, so the printed decimals match
            // the tables as first published.
            Summary::Mean => column
                .iter()
                .fold(0.0, |acc, v| acc + v / column.len() as f64),
        };
        transpose(rows).iter().map(fold).collect()
    }

    /// [`Summary::columns`] of each run of `group` consecutive rows: a
    /// `[point][column]` table from rows grouped by sweep point.
    pub fn groups(self, rows: &[Vec<f64>], group: usize) -> Vec<Vec<f64>> {
        rows.chunks(group).map(|g| self.columns(g)).collect()
    }
}

/// `rows[i][j]` as `[j][i]`, e.g. design columns turned into design rows.
pub fn transpose(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let width = rows.first().map_or(0, Vec::len);
    (0..width)
        .map(|c| rows.iter().map(|row| row[c]).collect())
        .collect()
}

/// A fixed-width text table: a left-aligned label column, then one
/// right-aligned column per design or sweep point, each after one space.
#[derive(Debug, Clone)]
pub struct Table {
    label_width: usize,
    columns: Vec<(String, usize)>,
}

impl Table {
    /// Columns with the given headers and widths.
    pub fn new<H: Into<String>>(
        label_width: usize,
        columns: impl IntoIterator<Item = (H, usize)>,
    ) -> Self {
        let columns = columns.into_iter().map(|(h, w)| (h.into(), w)).collect();
        Table {
            label_width,
            columns,
        }
    }

    /// One 12-wide column per design after a 14-wide label (Figs. 12–14).
    pub fn designs() -> Self {
        Table::new(14, DesignKind::ALL.map(|d| (d.label(), 12)))
    }

    /// The header line, then one line per `(label, cells)`.
    pub fn render_lines<L: AsRef<str>>(
        &self,
        corner: &str,
        lines: impl IntoIterator<Item = (L, Vec<String>)>,
    ) -> String {
        use std::fmt::Write;
        let w = self.label_width;
        let mut out = format!("{corner:<w$}");
        for (header, width) in &self.columns {
            let _ = write!(out, " {header:>width$}");
        }
        for (label, cells) in lines {
            let _ = write!(out, "\n{:<w$}", label.as_ref());
            for (cell, (_, width)) in cells.iter().zip(&self.columns) {
                let _ = write!(out, " {cell:>width$}");
            }
        }
        out + "\n"
    }

    /// `rows[i]`, labelled `labels[i]`, to three decimals, then an optional
    /// `(label, summary)` line over the rows' columns. An empty table
    /// renders a diagnostic instead of a summary of nothing.
    pub fn render(
        &self,
        corner: &str,
        labels: &[impl AsRef<str>],
        rows: &[Vec<f64>],
        summary: Option<(&str, Summary)>,
    ) -> String {
        if rows.is_empty() {
            let w = self.label_width;
            let none = format!("{:<w$} (no runs — nothing to normalize)", "");
            return self.render_lines(corner, [(none, vec![])]);
        }
        let summary = summary.map(|(label, s)| (label, s.columns(rows)));
        let lines = labels.iter().map(AsRef::as_ref).zip(rows);
        let lines = lines.chain(summary.as_ref().map(|(label, cells)| (*label, cells)));
        self.render_lines(
            corner,
            lines.map(|(label, cells)| (label, cells.iter().map(|v| format!("{v:.3}")).collect())),
        )
    }
}

/// Tables V and VI: per dataset size, each design's reduction vs
/// FWB-CRADE (`metric`, e.g. [`RunReport::energy_reduction_pct`]) averaged
/// over the micro-benchmarks, every run passed through `adjust` first.
pub fn print_reduction_table(
    runner: &SweepRunner,
    sink: &mut results::ResultSink,
    metric: fn(&RunReport, &RunReport) -> f64,
    adjust: fn(RunSpec) -> RunSpec,
) {
    let datasets = [
        (DatasetSize::Small, knobs::txs(2_000)),
        (DatasetSize::Large, knobs::txs(400)),
    ];
    let rows: Vec<RunSpec> = datasets
        .iter()
        .flat_map(|&(dataset, txs)| {
            WorkloadKind::MICRO
                .map(|kind| adjust(RunSpec::new(DesignKind::FwbCrade, kind, txs).dataset(dataset)))
        })
        .collect();
    let grid = runner.grid(&rows);
    sink.push_runs(grid.runs());
    let means = Summary::Mean.groups(&grid.normalized(metric), WorkloadKind::MICRO.len());
    // FWB-CRADE's own column (all zeros) is left out.
    let others = DesignKind::ALL[1..].iter().zip([11, 10, 13, 12, 10]);
    let table = Table::new(8, others.map(|(d, w)| (d.label(), w)));
    let lines = datasets.iter().zip(&means).map(|((dataset, _), row)| {
        (
            dataset.label(),
            row[1..].iter().map(|v| format!("{v:.1}%")).collect(),
        )
    });
    print!("{}", table.render_lines("dataset", lines));
}

/// Fig. 16 and §VI-E: one line per design and one `width`-wide column
/// per sweep point (`headers`), each cell the design's Gmean over the
/// micro-benchmarks of its throughput normalized to FWB-CRADE at the same
/// point. `rows` holds, point by point, one spec per micro-benchmark.
/// Records reach `sink` design by design, the order these sweeps' JSON
/// has always had (`bench_diff` matches records by position).
pub fn print_point_sweep(
    runner: &SweepRunner,
    sink: &mut results::ResultSink,
    rows: &[RunSpec],
    headers: impl IntoIterator<Item = String>,
    width: usize,
) {
    let grid = runner.grid(rows);
    sink.push_runs(grid.by_design());
    let norm = grid.normalized(RunReport::normalized_throughput);
    let per_point = Summary::Gmean.groups(&norm, WorkloadKind::MICRO.len());
    let table = Table::new(14, headers.into_iter().map(|h| (h, width)));
    let designs = DesignKind::ALL.map(DesignKind::label);
    print!(
        "{}",
        table.render("design", &designs, &transpose(&per_point), None)
    );
}

/// Prints the per-design cycle-attribution breakdown: what fraction of the
/// run's core-cycles each stall account consumed. The accounts come from
/// the simulator's profiler and sum exactly to the run's execution cycles
/// times its cores, so the percentages of a row always total 100.
pub fn print_stall_breakdown(reports: &[RunReport]) {
    let table = Table::new(14, CycleAttribution::LABELS.map(|l| (l, 16)));
    let lines = reports.iter().map(|r| {
        let total = r.stats.attr.total();
        let share = |v: u64| match total {
            0 => "-".to_string(),
            _ => format!("{:.1}%", 100.0 * v as f64 / total as f64),
        };
        (r.design.label(), r.stats.attr.values().map(share).to_vec())
    });
    print!("{}", table.render_lines("cycle %", lines));
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
    let columns = [
        ("persist p50", 14),
        ("p99", 10),
        ("complete p50", 14),
        ("p99", 10),
        ("dp lag p99", 12),
    ];
    let table = Table::new(14, columns);
    let lines = reports.iter().map(|r| {
        let c = &r.stats.metrics.commit;
        let lag = if c.dp_persist_lag.is_empty() {
            "-".to_string()
        } else {
            c.dp_persist_lag.p99().to_string()
        };
        let (persist, complete) = (&c.begin_to_persist, &c.begin_to_complete);
        let cells = [persist.p50(), persist.p99(), complete.p50(), complete.p99()];
        let mut cells: Vec<String> = cells.iter().map(u64::to_string).collect();
        cells.push(lag);
        (r.design.label(), cells)
    });
    print!("{}", table.render_lines("commit cycles", lines));
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
