//! Recovery idempotence on both in-crate backends: recovering an
//! already-recovered log scans an empty window, applies nothing and leaves
//! the data region untouched — whether the second pass runs in the same
//! process (in-memory backend) or after a reopen from the backing file.

use morlog_log::{Image, Log, LogConfig, MmapDomain, PersistDomain, RecoveryOutcome, SyncMode};

fn snapshot<D: PersistDomain>(log: &Log<D>) -> Vec<u64> {
    (0..log.config().data_words)
        .map(|w| log.read_word(w))
        .collect()
}

/// A mixed workload: two committed transactions, one left in flight.
fn drive<D: PersistDomain>(log: &mut Log<D>) {
    log.write(0, 0, 1, 11).unwrap();
    log.write(0, 0, 2, 22).unwrap();
    log.commit(0, 0).unwrap();
    log.write(1, 0, 3, 33).unwrap();
    log.commit(1, 0).unwrap();
    log.write(0, 1, 1, 99).unwrap(); // uncommitted at the crash
}

fn assert_noop_recovery(outcome: &RecoveryOutcome) {
    assert_eq!(outcome.records_scanned, 0, "nothing left to scan");
    assert_eq!(outcome.forward_writes + outcome.backward_writes, 0);
    assert!(outcome.committed.is_empty() && outcome.rolled_back.is_empty());
    assert_eq!(
        outcome.torn_records + outcome.corrupt_records + outcome.dropped_records,
        0
    );
}

#[test]
fn second_recover_is_a_noop_on_the_memory_backend() {
    let cfg = LogConfig::small();
    let mut log: Log<Image> = Log::format(Image::new(&cfg), cfg.clone());
    drive(&mut log);
    log.domain_mut().restart();
    let first = log.recover().unwrap();
    assert_eq!(first.committed.len(), 2);
    assert_eq!(first.rolled_back.len(), 1);
    let after_first = snapshot(&log);
    assert_eq!(after_first[1], 11, "uncommitted overwrite rolled back");

    let second = log.recover().unwrap();
    assert_noop_recovery(&second);
    assert_eq!(snapshot(&log), after_first);
}

#[test]
fn second_recover_is_a_noop_on_the_mmap_backend() {
    let cfg = LogConfig::small();
    let mut path = std::env::temp_dir();
    path.push(format!("morlog-log-idem-{}", std::process::id()));
    let domain = MmapDomain::create(&path, &cfg, SyncMode::Always).unwrap();
    let mut log = Log::format(domain, cfg.clone());
    drive(&mut log);
    // Process death: the un-drained tail of tx (0,1) never reaches the file.
    drop(log);

    let mut log = Log::open(
        MmapDomain::open(&path, &cfg, SyncMode::Always).unwrap(),
        cfg.clone(),
    );
    let first = log.recover().unwrap();
    assert_eq!(first.committed.len(), 2);
    let after_first = snapshot(&log);
    assert_eq!(&after_first[1..4], &[11, 22, 33]);

    // Second pass in-process.
    let second = log.recover().unwrap();
    assert_noop_recovery(&second);
    assert_eq!(snapshot(&log), after_first);

    // Third pass after another full reopen from the file.
    drop(log);
    let mut log = Log::open(
        MmapDomain::open(&path, &cfg, SyncMode::Always).unwrap(),
        cfg,
    );
    let third = log.recover().unwrap();
    assert_noop_recovery(&third);
    assert_eq!(snapshot(&log), after_first);
    std::fs::remove_file(&path).unwrap();
}
