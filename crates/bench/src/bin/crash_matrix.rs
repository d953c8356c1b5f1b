//! Crash-consistency matrix: every atomic-persistence design crossed with
//! workloads, fault plans and crash points. Each cell runs the workload
//! under an injected-fault plan, crashes mid-flight, recovers and checks
//! the oracle's prefix invariant — the whole sweep is deterministic in the
//! base seed (first CLI argument, else `MORLOG_SEED`, else 42; a malformed
//! seed exits 2 before any cell runs).
//!
//! Cells are independent, so the matrix fans out across the `MORLOG_JOBS`
//! worker pool; cell seeds are assigned by enumeration order before the
//! fan-out, and results print in that same order, so the verdict table is
//! byte-identical to a serial run.
//!
//! Exits non-zero if any combination fails, so the matrix doubles as a
//! robustness gate.

use morlog_bench::results::{CrashCell, ResultSink};
use morlog_bench::SweepRunner;
use morlog_sim::System;
use morlog_sim_core::fault::FaultPlan;
use morlog_sim_core::{knobs, DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind};

const WORKLOADS: [WorkloadKind; 3] = [WorkloadKind::Hash, WorkloadKind::Tpcc, WorkloadKind::Queue];

const CRASH_POINTS: [u64; 2] = [5_000, 12_000];

const PLAN_LABELS: [&str; 5] = ["none", "torn", "flip", "drainflip", "storm"];

fn plans(seed: u64) -> [FaultPlan; 5] {
    [
        FaultPlan::none(),
        FaultPlan::single_torn(seed),
        FaultPlan::single_crash_flip(seed.wrapping_add(101)),
        FaultPlan::single_drain_flip(seed.wrapping_add(202)),
        FaultPlan::storm(seed.wrapping_add(303), 3),
    ]
}

/// One matrix point, fixed before the fan-out so seeds and ordering are
/// independent of which worker runs it.
struct CellSpec {
    design: DesignKind,
    kind: WorkloadKind,
    plan_idx: usize,
    crash_cycle: u64,
    seed: u64,
}

struct Cell {
    passed: bool,
    injected: u32,
    damaged: bool,
    error: Option<String>,
}

fn run_cell(spec: &CellSpec) -> Cell {
    let cfg = SystemConfig::for_design(spec.design);
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = 40;
    wl.seed = spec.seed;
    // Every cell has a unique seed, so these one-shot traces bypass the
    // trace cache rather than filling it with entries used exactly once.
    let trace = generate(spec.kind, &wl);
    let mut sys = System::new(cfg, &trace);
    sys.set_fault_plan(plans(spec.seed)[spec.plan_idx].clone());
    sys.run_for(spec.crash_cycle);
    sys.crash();
    let report = sys.recover();
    let error = sys.verify_recovery(&report).err();
    Cell {
        passed: error.is_none(),
        injected: sys.memory().fault_plan().injected(),
        damaged: report.saw_damage(),
        error,
    }
}

fn main() {
    let base_seed = knobs::seed(std::env::args().nth(1).as_deref());

    println!(
        "crash matrix: {} designs x {} workloads x {} plans x {} crash points (seed {base_seed})",
        DesignKind::ATOMIC.len(),
        WORKLOADS.len(),
        PLAN_LABELS.len(),
        CRASH_POINTS.len()
    );
    print!("{:>14} {:>6}", "design", "wload");
    for label in &PLAN_LABELS {
        for crash in CRASH_POINTS {
            print!(" {:>14}", format!("{label}@{}k", crash / 1000));
        }
    }
    println!();

    // Enumerate cells in table order; each gets its own deterministic seed
    // so plans hit different in-flight slots across the matrix.
    let mut cells: Vec<CellSpec> = Vec::new();
    for design in DesignKind::ATOMIC {
        for kind in WORKLOADS {
            for plan_idx in 0..PLAN_LABELS.len() {
                for crash_cycle in CRASH_POINTS {
                    let combo = cells.len() as u64;
                    let seed = base_seed
                        .wrapping_mul(31)
                        .wrapping_add(combo)
                        .wrapping_mul(2_654_435_761);
                    cells.push(CellSpec {
                        design,
                        kind,
                        plan_idx,
                        crash_cycle,
                        seed,
                    });
                }
            }
        }
    }

    let runner = SweepRunner::from_env();
    let mut sink = ResultSink::new("crash_matrix", runner.jobs());
    let results = runner.map(&cells, run_cell);

    let mut failures: Vec<String> = Vec::new();
    let mut injected_total = 0u64;
    let mut damaged_cells = 0usize;
    let row_len = PLAN_LABELS.len() * CRASH_POINTS.len();
    for (row, row_cells) in cells.chunks(row_len).zip(results.chunks(row_len)) {
        print!(
            "{:>14} {:>6}",
            row[0].design.label(),
            format!("{}", row[0].kind)
        );
        for (spec, cell) in row.iter().zip(row_cells) {
            injected_total += u64::from(cell.injected);
            damaged_cells += usize::from(cell.damaged);
            let mark = match (cell.passed, cell.injected > 0) {
                (true, true) => format!("ok({})", cell.injected),
                (true, false) => "ok".to_string(),
                (false, _) => "FAIL".to_string(),
            };
            print!(" {mark:>14}");
            if let Some(e) = &cell.error {
                failures.push(format!(
                    "{}/{} plan={} crash@{} seed={}: {e}",
                    spec.design, spec.kind, PLAN_LABELS[spec.plan_idx], spec.crash_cycle, spec.seed
                ));
            }
            sink.push(CrashCell {
                design: spec.design.label().into(),
                workload: spec.kind.label().into(),
                plan: PLAN_LABELS[spec.plan_idx].into(),
                crash_cycle: spec.crash_cycle,
                seed: spec.seed,
                passed: cell.passed,
                injected: u64::from(cell.injected),
                damaged: cell.damaged,
                error: cell.error.clone(),
            });
        }
        println!();
    }

    println!();
    println!(
        "{} combos, {} faults injected, {} cells saw classified damage, {} failures",
        cells.len(),
        injected_total,
        damaged_cells,
        failures.len()
    );
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    sink.finish();
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
