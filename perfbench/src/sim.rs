//! The simulator workloads: MorLog-SLDE replaying a Table IV trace on eight
//! simulated cores.
//!
//! A *round* generates the trace and builds the system (the set-up), runs
//! the system to completion one operation at a time, where an operation is
//! one `System::run_for` call over [`QUANTUM`] simulated cycles, and then
//! checks the result, untimed: every requested transaction committed, and a
//! crash followed by recovery verifies against the oracle. Every round of a
//! run uses the run's seed, so every round must reproduce the first round's
//! simulated counts, and at [`DEFAULT_SEED`] they must match [`REFERENCE`].
//! A traced round runs with the host profiler on; its simulated counts must
//! equal the untraced rounds'.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morlog_log::record::{Record, TxTag};
use morlog_sim::System;
use morlog_sim_core::hostprof::{self, HostCounter, HostPhase, HostProfile};
use morlog_sim_core::{DesignKind, SimStats, SystemConfig};
use morlog_workloads::{generate, DatasetSize, Op, WorkloadConfig, WorkloadKind, WorkloadTrace};

use crate::logbench::time_record_codec;
use crate::report::{median, ms, percentile, us, Outcome};

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// The workload's name in `BENCHMARK.json`.
    pub name: &'static str,
    kind: WorkloadKind,
    /// Transactions per round, shared evenly by the simulated threads.
    transactions: usize,
}

/// Hash-Small: the log-heavy trace.
pub const SIM_HASH: SimWorkload = SimWorkload {
    name: "sim_hash",
    kind: WorkloadKind::Hash,
    transactions: 8_000,
};

/// SPS-Small: the codec- and issue-heavy trace, with almost no logging.
pub const SIM_SPS: SimWorkload = SimWorkload {
    name: "sim_sps",
    kind: WorkloadKind::Sps,
    transactions: 40_000,
};

const DESIGN: DesignKind = DesignKind::MorLogSlde;
const THREADS: usize = 8;
/// Simulated cycles per operation: small enough that a round has over 100
/// operations, so p90 has at least ten beyond it.
const QUANTUM: u64 = 4096;
/// Untraced rounds per run at least, so every timing has several repeats.
const MIN_ROUNDS: usize = 3;
/// The seed used when none is given, and the one [`REFERENCE`] pins.
pub const DEFAULT_SEED: u64 = 42;
/// Records of the trace's own mix put through the record codec.
const CODEC_RECORDS: usize = 20_000;

/// What one round measured.
struct Round {
    generate: Duration,
    build: Duration,
    /// Host time of each operation.
    ops: Vec<Duration>,
    stats: SimStats,
    /// The host profiles of a traced round: its build, and its operations.
    build_profile: Option<HostProfile>,
    profile: Option<HostProfile>,
    /// Whether every transaction committed and recovery verified.
    ok: bool,
}

impl Round {
    fn busy(&self) -> Duration {
        self.ops.iter().sum()
    }

    fn profile(&self) -> &HostProfile {
        self.profile.as_ref().expect("traced round")
    }

    fn build_profile(&self) -> &HostProfile {
        self.build_profile.as_ref().expect("traced round")
    }
}

/// The simulated counts no host-only change may move.
fn counts(s: &SimStats) -> Vec<u64> {
    let mut v = vec![
        s.cycles,
        s.transactions_committed,
        s.mem.nvmm_writes,
        s.log.entries_written,
        s.mem.bits_programmed,
    ];
    v.extend(s.attr.values());
    v
}

/// The statistics fingerprint [`REFERENCE`] pins.
fn fingerprint(s: &SimStats) -> String {
    format!(
        "cycles={} nvmm_writes={} entries_written={} bits_programmed={}",
        s.cycles, s.mem.nvmm_writes, s.log.entries_written, s.mem.bits_programmed
    )
}

/// The fingerprint of each workload at [`DEFAULT_SEED`]. Simulated results
/// must not depend on the host, so a change that moves one is a bug, and
/// it shows up here as failed operations.
const REFERENCE: &[(&str, &str)] = &[
    (
        "sim_hash",
        "cycles=693712 nvmm_writes=52894 entries_written=44894 bits_programmed=2310779",
    ),
    (
        "sim_sps",
        "cycles=603549 nvmm_writes=41712 entries_written=1712 bits_programmed=676551",
    ),
];

/// The pinned fingerprint of workload `name` at [`DEFAULT_SEED`].
fn reference(name: &str) -> Option<&'static str> {
    REFERENCE.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

fn configs(w: SimWorkload, seed: u64) -> (SystemConfig, WorkloadConfig) {
    let cfg = SystemConfig::for_design(DESIGN);
    let wl = WorkloadConfig {
        threads: THREADS,
        total_transactions: w.transactions,
        dataset: DatasetSize::Small,
        seed,
        data_base: System::data_base(&cfg),
    };
    (cfg, wl)
}

fn run_round(w: SimWorkload, seed: u64, traced: bool) -> Round {
    let (cfg, wl) = configs(w, seed);
    let t = Instant::now();
    let trace = generate(w.kind, &wl);
    let generate = t.elapsed();
    if traced {
        hostprof::force_enable();
        let _ = hostprof::take();
    }
    let t = Instant::now();
    let mut sys = System::new(cfg, &trace);
    let build = t.elapsed();
    let build_profile = traced.then(hostprof::take);

    let mut ops = Vec::new();
    loop {
        let t = Instant::now();
        let done = sys.run_for(QUANTUM);
        ops.push(t.elapsed());
        if done {
            break;
        }
    }
    let profile = traced.then(|| {
        let profile = hostprof::take();
        hostprof::force_disable();
        profile
    });

    let stats = sys.stats();
    let requested = trace.total_transactions() as u64;
    let committed = stats.transactions_committed == requested;
    if !committed {
        eprintln!(
            "{}: committed {} of {requested} transactions",
            w.name, stats.transactions_committed
        );
    }
    sys.crash();
    let report = sys.recover();
    let recovered = sys.verify_recovery(&report);
    if let Err(e) = &recovered {
        eprintln!("{}: recovery does not verify: {e}", w.name);
    }
    Round {
        generate,
        build,
        ops,
        stats,
        build_profile,
        profile,
        ok: committed && recovered.is_ok(),
    }
}

/// Runs rounds until `budget` of operation time is measured. A traced run
/// alternates untraced and traced rounds of the same seed.
pub fn run(w: SimWorkload, seed: u64, budget: Duration, traced: bool) -> Outcome {
    hostprof::force_disable();
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    while spent < budget || plain.len() < if traced { 1 } else { MIN_ROUNDS } {
        let round = run_round(w, seed, false);
        eprintln!(
            "{} round {}: generate {:.1} ms, build {:.1} ms, {} ops in {:.1} ms",
            w.name,
            plain.len(),
            ms(round.generate),
            ms(round.build),
            round.ops.len(),
            ms(round.busy())
        );
        spent += round.busy();
        plain.push(round);
        if traced {
            let round = run_round(w, seed, true);
            spent += round.busy();
            profiled.push(round);
        }
    }

    let mut out = Outcome::default();
    let first = counts(&plain[0].stats);
    eprintln!("{} seed {seed}: {}", w.name, fingerprint(&plain[0].stats));
    let pinned = (seed == DEFAULT_SEED).then(|| reference(w.name));
    let counters = profiled.first().map(|r: &Round| r.profile().counters());
    for r in plain.iter().chain(&profiled) {
        let mut ok = r.ok && counts(&r.stats) == first;
        if let Some(pinned) = pinned {
            ok &= pinned == Some(fingerprint(&r.stats).as_str());
        }
        if let Some(p) = &r.profile {
            ok &= Some(p.counters()) == counters;
        }
        let n = r.ops.len() as u64;
        out.ops(n, if ok { 0 } else { n });
    }

    let busy_s = |r: &Round| r.busy().as_secs_f64();
    let med = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    // Every round repeats the same set-up, like its operations.
    let fastest_setup = |f: &dyn Fn(&Round) -> Duration| plain.iter().map(f).min().unwrap();
    if !traced {
        // The shared host's speed drifts by up to 1.6x over seconds. Every
        // round repeats the same operations, so each operation, and the
        // set-up, is timed by its fastest repeat, which filters that drift
        // out.
        let fastest: Vec<Duration> = (0..plain[0].ops.len())
            .map(|i| plain.iter().filter_map(|r| r.ops.get(i)).min().copied())
            .map(|d| d.expect("every round has the first round's operations"))
            .collect();
        let latencies: Vec<f64> = fastest.iter().map(|&d| us(d)).collect();
        let busy: Duration = fastest.iter().sum();
        out.set(
            "throughput",
            plain[0].stats.cycles as f64 / busy.as_secs_f64(),
        );
        out.set("latency_p50_us", median(&latencies));
        out.set("latency_tail_us", percentile(&latencies, 0.9));
        out.set(
            "setup_s",
            fastest_setup(&|r| r.generate + r.build).as_secs_f64(),
        );
        return out;
    }

    out.set("workloads.generate_ms", ms(fastest_setup(&|r| r.generate)));
    out.set("sim.build_ms", ms(fastest_setup(&|r| r.build)));
    let phase_ms = |phase: HostPhase| {
        med(&profiled, &|r| {
            r.profile().phase_ns()[phase as usize] as f64 / 1e6
        })
    };
    let allocs = |phase: HostPhase| {
        med(&profiled, &|r| {
            r.profile().alloc_count()[phase as usize] as f64
        })
    };
    let counter = |c: HostCounter| profiled[0].profile().counter(c) as f64;
    out.set("sim.core_issue_ms", phase_ms(HostPhase::CoreIssue));
    out.set("sim.core_issue_allocs", allocs(HostPhase::CoreIssue));
    out.set("sim.events", counter(HostCounter::EventsSimulated));
    out.set(
        "sim.host_ns_per_event",
        med(&plain, &|r| r.busy().as_nanos() as f64) / counter(HostCounter::EventsSimulated),
    );
    out.set(
        "sim.trace_overhead_pct",
        (med(&profiled, &busy_s) / med(&plain, &busy_s) - 1.0) * 100.0,
    );
    let s = &plain[0].stats;
    let pct = |v: u64| v as f64 * 100.0 / s.attr.total() as f64;
    out.set("sim.attr_busy_pct", pct(s.attr.busy));
    out.set("sim.attr_commit_wait_pct", pct(s.attr.commit_wait));
    out.set("sim.attr_wq_stall_pct", pct(s.attr.wq_stall));
    out.set("sim.attr_read_wait_pct", pct(s.attr.read_wait));
    out.set("sim.cycles", s.cycles as f64);
    out.set("sim.committed", s.transactions_committed as f64);
    out.set("cache.hierarchy_ms", phase_ms(HostPhase::CacheHierarchy));
    out.set("cache.allocs", allocs(HostPhase::CacheHierarchy));
    out.set("cache.lookups", counter(HostCounter::CacheLookups));
    out.set("nvm.mem_controller_ms", phase_ms(HostPhase::MemController));
    out.set("nvm.allocs", allocs(HostPhase::MemController));
    out.set("nvm.wq_ops", counter(HostCounter::WqOps));
    out.set("nvm.log_appends", counter(HostCounter::LogAppends));
    out.set("logging.controller_ms", phase_ms(HostPhase::Logging));
    out.set("logging.allocs", allocs(HostPhase::Logging));
    out.set("logging.entries_written", s.log.entries_written as f64);
    out.set("encoding.codec_ms", phase_ms(HostPhase::Encoding));
    out.set("encoding.allocs", allocs(HostPhase::Encoding));
    out.set("encoding.bits_programmed", s.mem.bits_programmed as f64);
    // The preload in `System::new` writes the initial image through the
    // codec; that is set-up work, so it is kept out of `encoding.codec_ms`.
    out.set(
        "encoding.preload_ms",
        med(&profiled, &|r| {
            r.build_profile().phase_ns()[HostPhase::Encoding as usize] as f64 / 1e6
        }),
    );

    let trace = generate(w.kind, &configs(w, seed).1);
    let (encode_ns, crc_ns) = time_record_codec(&trace_records(&trace, CODEC_RECORDS));
    out.set("record.encode_slot_ns", encode_ns);
    out.set("record.crc32_ns", crc_ns);
    out
}

/// The undo+redo record of every store and the commit record of every
/// transaction, thread by thread, up to `limit` records: the record mix the
/// trace's transactions log.
fn trace_records(trace: &WorkloadTrace, limit: usize) -> Vec<Record> {
    let mut memory: HashMap<u64, u64> = HashMap::new();
    let mut records = Vec::with_capacity(limit + 64);
    let mut timestamp = 0;
    for (t, thread) in trace.threads.iter().enumerate() {
        memory.extend(thread.initial.iter().map(|&(addr, v)| (addr.as_u64(), v)));
        for (i, tx) in thread.transactions.iter().enumerate() {
            let tag = TxTag::new(t as u8, i as u16);
            for op in &tx.ops {
                if let &Op::Store(addr, value) = op {
                    let addr = addr.as_u64();
                    let undo = memory.insert(addr, value).unwrap_or(0);
                    records.push(Record::undo_redo(tag, addr, undo, value, 0xFF));
                }
            }
            timestamp += 1;
            records.push(Record::commit(tag, None).with_timestamp(timestamp));
            if records.len() >= limit {
                return records;
            }
        }
    }
    records
}
