//! `NvmmModule::preload` must leave the module exactly as the per-word
//! read-modify-write it replaces: for each word, read its line, set the
//! word and write the whole line through `write_data_line`. "Exactly"
//! means equal modules (backing bytes, every line's cell states and
//! program count, first-write order) and an equal `wear_summary`.
//!
//! Checked under the SLDE codec, the CRADE codec and with expansion
//! coding off, on every generator's initial image and on seeded random
//! word sequences that mix fresh lines, changed words, identical rewrites
//! and zero values with whole-line writes.

use std::collections::HashSet;

use morlog_encoding::cell::CellModel;
use morlog_encoding::slde::SldeCodec;
use morlog_nvm::module::NvmmModule;
use morlog_sim_core::rng::DetRng;
use morlog_sim_core::{Addr, LineAddr, LineData};
use morlog_workloads::{generate, DatasetSize, WorkloadConfig, WorkloadKind};

fn codecs() -> [(&'static str, SldeCodec); 3] {
    let model = CellModel::table_iii();
    [
        ("SLDE", SldeCodec::new(model.clone())),
        ("CRADE", SldeCodec::crade(model.clone())),
        ("no expansion", SldeCodec::new(model).with_expansion(false)),
    ]
}

/// The reference: one whole-line read-modify-write per word.
fn store_by_line(m: &mut NvmmModule, words: &[(Addr, u64)]) {
    for &(addr, value) in words {
        let mut line = m.read_data_line(addr.line());
        line.set_word(addr.word_index(), value);
        m.write_data_line(addr.line(), line);
    }
}

fn assert_same(preloaded: &NvmmModule, by_line: &NvmmModule, what: &str) {
    assert_eq!(
        preloaded.wear_summary(),
        by_line.wear_summary(),
        "{what}: wear"
    );
    assert!(preloaded == by_line, "{what}: module state differs");
}

#[test]
fn preload_matches_per_word_line_writes_on_every_initial_image() {
    let mut images = Vec::new();
    for kind in WorkloadKind::ALL {
        images.push((kind, DatasetSize::Small));
    }
    images.push((WorkloadKind::Hash, DatasetSize::Large));
    images.push((WorkloadKind::Sps, DatasetSize::Large));
    let mut stored = 0;
    for (kind, dataset) in images {
        let trace = generate(
            kind,
            &WorkloadConfig {
                threads: 4,
                total_transactions: 64,
                dataset,
                seed: 42,
                data_base: Addr::new(0x1000_0000),
            },
        );
        for (name, codec) in codecs() {
            let what = format!("{kind}-{} under {name}", dataset.label());
            let mut preloaded = NvmmModule::new(codec.clone());
            let mut by_line = NvmmModule::new(codec);
            for thread in trace.threads.iter() {
                preloaded.preload(thread.initial.iter().copied());
                store_by_line(&mut by_line, &thread.initial);
            }
            assert_same(&preloaded, &by_line, &what);
            stored += by_line.wear_summary().2;
        }
    }
    // Most generators build their structures in transactions and start
    // from an empty image; SPS, YCSB, TPC-C, Vacation and BTree do not.
    assert!(stored > 0, "no generator has an initial image");
}

/// How often each preload case came up in the random sequences.
#[derive(Default)]
struct Cases {
    fresh: usize,
    same: usize,
    changed: usize,
    zero: usize,
}

#[test]
fn preload_matches_per_word_line_writes_on_random_sequences() {
    // Few lines and few values, so that lines are revisited, words are
    // rewritten with what they hold, and zeroes are stored over data.
    let values = [
        0,
        1,
        0xFF,
        u64::MAX,
        0x8000_0000_0000_0000,
        0x0000_1234_0000_5678,
        0xDEAD_BEEF_0BAD_F00D,
    ];
    for (seed, (name, codec)) in codecs().into_iter().enumerate() {
        let mut rng = DetRng::new(0x9E10_AD00 + seed as u64);
        let mut preloaded = NvmmModule::new(codec.clone());
        let mut by_line = NvmmModule::new(codec);
        let mut written: HashSet<LineAddr> = HashSet::new();
        let mut cases = Cases::default();
        for step in 0..400 {
            let line = |rng: &mut DetRng| LineAddr::from_index(0x4_0000 + rng.gen_range(24));
            if rng.gen_range(8) == 0 {
                // A whole-line write between preloads: the preload must
                // also hold over cells that other writes left behind.
                let at = line(&mut rng);
                let mut data = LineData::zeroed();
                for i in 0..8 {
                    data.set_word(i, values[rng.gen_range(values.len() as u64) as usize]);
                }
                preloaded.write_data_line(at, data);
                by_line.write_data_line(at, data);
                written.insert(at);
                continue;
            }
            let batch: Vec<(Addr, u64)> = (0..1 + rng.gen_range(40))
                .map(|_| {
                    let at = line(&mut rng);
                    let word = rng.gen_range(8) as usize;
                    let value = values[rng.gen_range(values.len() as u64) as usize];
                    (Addr::new(at.base().as_u64() + 8 * word as u64), value)
                })
                .collect();
            for &(addr, value) in &batch {
                if written.insert(addr.line()) {
                    cases.fresh += 1;
                } else if by_line.read_data_line(addr.line()).word(addr.word_index()) == value {
                    cases.same += 1;
                } else {
                    cases.changed += 1;
                    cases.zero += usize::from(value == 0);
                }
                store_by_line(&mut by_line, &[(addr, value)]);
            }
            preloaded.preload(batch.iter().copied());
            assert_same(&preloaded, &by_line, &format!("{name}, step {step}"));
        }
        assert!(
            cases.fresh > 10 && cases.same > 100 && cases.changed > 100 && cases.zero > 10,
            "{name}: cases {} fresh, {} same, {} changed ({} to zero)",
            cases.fresh,
            cases.same,
            cases.changed,
            cases.zero
        );
    }
}
