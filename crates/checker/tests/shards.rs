//! Shard independence: every checker mode's report — counters, failure
//! list and minimized counterexample, signature and trace bytes included
//! — is the same whether its replays run serially or across 3 shards.

use morlog_checker::{
    check, diff, double_store_trace, fuzz, CheckOptions, DiffCulprit, FuzzOptions,
};
use morlog_sim::System;
use morlog_sim_core::{CheckMutation, DesignKind, SystemConfig};

fn cfg(design: DesignKind, fwb_period: u64, mutation: CheckMutation) -> SystemConfig {
    let mut cfg = SystemConfig::for_design(design);
    cfg.hierarchy.force_write_back_period = fwb_period;
    cfg.mutation = mutation;
    cfg
}

#[test]
fn reports_do_not_depend_on_the_shard_count() {
    // Exhaustive with the torn variant, and a coverage-guided campaign,
    // both on the dropped-fence mutant so there are failures to order.
    let fence = cfg(DesignKind::MorLogSlde, 16, CheckMutation::DropUndoFence);
    let trace = double_store_trace(&fence, 3);
    let opts = CheckOptions {
        fault_variant: true,
        fault_seed: 0xC0FFEE,
        ..CheckOptions::default()
    };
    let (serial, sharded) = (
        check(&fence, &trace, &opts, 1),
        check(&fence, &trace, &opts, 3),
    );
    assert!(serial.stats.failures > 0, "the mutant must fail somewhere");
    assert_eq!(serial.stats, sharded.stats);
    assert_eq!(serial.failures, sharded.failures);
    assert!(serial.counterexample.is_some());
    assert_eq!(serial.counterexample, sharded.counterexample);

    let opts = FuzzOptions {
        seed: 0x5EED_CAFE,
        points: 8,
        fault_seed: 0xFA11,
    };
    let (serial, sharded) = (
        fuzz(&fence, &trace, &opts, 1),
        fuzz(&fence, &trace, &opts, 3),
    );
    assert!(serial.stats.failures > 0, "the mutant must fail somewhere");
    assert_eq!(serial.stats, sharded.stats);
    assert_eq!(serial.coverage, sharded.coverage);
    assert_eq!(serial.failures, sharded.failures);
    assert!(serial.counterexample.is_some());
    assert_eq!(serial.counterexample, sharded.counterexample);

    // Differential, with the redo-value skew on design A.
    let skewed = cfg(DesignKind::MorLogSlde, 64, CheckMutation::SkewRedoValue);
    let clean = cfg(DesignKind::MorLogSlde, 64, CheckMutation::None);
    let trace = double_store_trace(&clean, 6);
    let (serial, sharded) = (
        diff(&skewed, &clean, &trace, 8, 1),
        diff(&skewed, &clean, &trace, 8, 3),
    );
    assert_eq!(serial.checked, sharded.checked);
    assert_eq!(serial.divergences, sharded.divergences);
    assert_eq!(serial.failures, sharded.failures);
    assert_eq!(serial.divergence, sharded.divergence);

    // The divergence's signature is the culprit's reference hash sample
    // at the culprit's crash point.
    let d = serial.divergence.expect("the skew must diverge");
    assert_eq!(d.culprit, DiffCulprit::DesignA);
    let mut reference = System::new(skewed, &trace);
    reference.enable_persist_hash();
    reference.run();
    assert!(d.point_a >= 1);
    assert_eq!(
        d.signature,
        reference.persist_hash_samples()[d.point_a as usize - 1]
    );
}
