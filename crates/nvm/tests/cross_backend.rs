//! Cross-backend equivalence: the same operation sequence cut at the same
//! power-cut byte budget must recover to the same logical state on the
//! simulator-side domain (`SimDomain`) and the file-backed domain
//! (`MmapDomain`). The two backends share the protocol engine and the
//! volatile/durable image, so any divergence means one of them broke an
//! ordering rule.

use std::path::PathBuf;

use morlog_log::{Log, LogConfig, MmapDomain, PersistDomain, RecoveryOutcome, SyncMode};
use morlog_nvm::domain::{FaultHook, SimDomain};
use morlog_sim_core::fault::FaultPlan;

/// A simulator-side domain that consults `plan` on dying drains.
fn sim_with_plan(cfg: &LogConfig, plan: FaultPlan) -> SimDomain {
    SimDomain::with_backing(cfg, FaultHook { plan })
}

/// Faults the domain's plan has injected so far.
fn injected(domain: &SimDomain) -> u32 {
    domain.backing().plan.injected()
}

/// The shared workload; after the armed cut fires every call degrades into
/// an error, so results are ignored.
fn drive<D: PersistDomain>(log: &mut Log<D>) {
    let _ = log.write(0, 0, 1, 10);
    let _ = log.write(0, 0, 2, 20);
    let _ = log.commit(0, 0);
    let _ = log.write(1, 0, 3, 30);
    let _ = log.commit(1, 0);
    let _ = log.write(0, 1, 1, 11);
    let _ = log.commit(0, 1);
    let _ = log.write(1, 1, 2, 21); // left uncommitted
}

fn data<D: PersistDomain>(log: &Log<D>) -> Vec<u64> {
    (0..log.config().data_words)
        .map(|w| log.read_word(w))
        .collect()
}

fn run_sim(cfg: &LogConfig, budget: u64) -> (RecoveryOutcome, Vec<u64>) {
    let mut log = Log::format(SimDomain::new(cfg), cfg.clone());
    log.domain_mut().arm_power_cut(budget);
    drive(&mut log);
    log.domain_mut().restart();
    let outcome = log.recover().unwrap();
    let words = data(&log);
    (outcome, words)
}

fn run_mmap(cfg: &LogConfig, budget: u64, path: &PathBuf) -> (RecoveryOutcome, Vec<u64>) {
    let domain = MmapDomain::create(path, cfg, SyncMode::Always).unwrap();
    let mut log = Log::format(domain, cfg.clone());
    log.domain_mut().arm_power_cut(budget);
    drive(&mut log);
    // Machine death: reopen from the file rather than restarting in place,
    // so the file write-through path is part of what the sweep checks.
    drop(log);
    let mut log = Log::open(
        MmapDomain::open(path, cfg, SyncMode::Always).unwrap(),
        cfg.clone(),
    );
    let outcome = log.recover().unwrap();
    let words = data(&log);
    std::fs::remove_file(path).unwrap();
    (outcome, words)
}

#[test]
fn sim_and_mmap_agree_at_every_power_cut_budget() {
    let cfg = LogConfig::small();
    // Reference run to learn the post-format byte span of the workload.
    let mut reference = Log::format(SimDomain::new(&cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference);
    let total = reference.domain().durable_bytes() - base;
    assert!(total > 0);

    let mut path = std::env::temp_dir();
    path.push(format!("morlog-log-xbackend-{}", std::process::id()));
    for budget in 0..=total {
        let (sim_outcome, sim_words) = run_sim(&cfg, budget);
        let (mmap_outcome, mmap_words) = run_mmap(&cfg, budget, &path);
        assert_eq!(
            sim_outcome, mmap_outcome,
            "recovery outcome diverges at budget {budget}"
        );
        assert_eq!(
            sim_words, mmap_words,
            "recovered data diverges at budget {budget}"
        );
    }
    // Sanity at the extremes: budget 0 recovers an empty prefix, a huge
    // budget never cuts and all three commits win.
    let (none, _) = run_sim(&cfg, 0);
    assert!(none.committed.is_empty());
    let (all, words) = run_sim(&cfg, total + 1);
    assert_eq!(all.committed.len(), 3);
    assert_eq!(&words[1..4], &[11, 20, 30]);
}

/// Folds `bytes` into a 64-bit FNV-1a digest.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_outcome(digest: &mut u64, outcome: &RecoveryOutcome) {
    for list in [&outcome.committed, &outcome.rolled_back] {
        fnv(digest, &(list.len() as u64).to_le_bytes());
        for tag in list.iter() {
            fnv(digest, &[tag.thread]);
            fnv(digest, &tag.txid.to_le_bytes());
        }
    }
    for count in [
        outcome.records_scanned,
        outcome.torn_records,
        outcome.corrupt_records,
        outcome.dropped_records,
        outcome.forward_writes,
        outcome.backward_writes,
    ] {
        fnv(digest, &(count as u64).to_le_bytes());
    }
}

/// Pins the NVMM fault model on the embedded log: every power-cut budget
/// of `drive` under a single torn slot and a single crash-time bit flip,
/// at fixed seeds. Each run folds the crash image (every region's durable
/// bytes), the plan's injection count and the recovery result into one
/// digest, so any change to which bytes a dying drain keeps or flips
/// moves it.
#[test]
fn fault_plan_crash_images_match_the_pinned_digest() {
    let cfg = LogConfig::small();
    let mut reference = Log::format(SimDomain::new(&cfg), cfg.clone());
    let base = reference.domain().durable_bytes();
    drive(&mut reference);
    let total = reference.domain().durable_bytes() - base;

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut injected_total = 0u64;
    let plans: [fn(u64) -> FaultPlan; 2] = [FaultPlan::single_torn, FaultPlan::single_crash_flip];
    for plan in plans {
        for seed in [0u64, 1, 7, 42] {
            for budget in 0..=total {
                let mut log = Log::format(sim_with_plan(&cfg, plan(seed)), cfg.clone());
                log.domain_mut().arm_power_cut(budget);
                drive(&mut log);
                log.domain_mut().restart();
                // After a restart the volatile view is the durable image.
                for (region, len) in cfg.region_lens().into_iter().enumerate() {
                    let mut bytes = vec![0u8; len as usize];
                    log.domain().read(region as u32, 0, &mut bytes);
                    fnv(&mut digest, &bytes);
                }
                let faults = injected(log.domain());
                injected_total += u64::from(faults);
                fnv(&mut digest, &faults.to_le_bytes());
                match log.recover() {
                    Ok(outcome) => fold_outcome(&mut digest, &outcome),
                    Err(e) => fnv(&mut digest, format!("{e:?}").as_bytes()),
                }
            }
        }
    }
    assert!(injected_total > 0, "no fault was ever injected");
    assert_eq!(
        digest, 0x86B0_B35A_1A30_38C5,
        "fault-plan crash images moved: digest {digest:#018x}"
    );
}
