//! Randomized property tests on the core data structures and invariants:
//! codecs are lossless, the bit stream is exact, the log ring and buffers
//! preserve their structural invariants, and the DCW cost model is monotone
//! in the obvious ways.
//!
//! These use the workspace's own deterministic `DetRng` (no external
//! property-testing framework): each test draws a few thousand cases from a
//! fixed seed, so failures are exactly reproducible.

use morlog_repro::core::types::dirty_byte_mask;
use morlog_repro::core::{DetRng, LineData, TxId};
use morlog_repro::encoding::bits::{BitReader, BitWriter};
use morlog_repro::encoding::cell::{CellModel, CellState};
use morlog_repro::encoding::dcw;
use morlog_repro::encoding::dldc;
use morlog_repro::encoding::expansion::{map_payload, unmap_payload};
use morlog_repro::encoding::fpc;
use morlog_repro::encoding::slde::{LogWordRequest, SldeCodec, SEGMENT_WORDS, WORD_REGION_CELLS};
use morlog_repro::log::record::{RecordKind, BYTE_SLOTS};
use morlog_repro::log::ring::Ring;
use morlog_repro::nvm::log::ARRAY_SLOTS;

const CASES: usize = 2_000;

/// Draws a word from a mix of FPC-relevant shapes (small, sign-extended,
/// sparse, random) so the encoders see their interesting classes.
fn shaped_word(rng: &mut DetRng) -> u64 {
    match rng.gen_range(4) {
        0 => rng.gen_range(1 << 16),
        1 => (rng.next_u64() as i32) as i64 as u64,
        2 => rng.next_u64() & 0xFF00_FF00_FF00_FF00,
        _ => rng.next_u64(),
    }
}

#[test]
fn fpc_round_trips_any_word() {
    let mut rng = DetRng::new(0xF9C0);
    for _ in 0..CASES {
        let word = shaped_word(&mut rng);
        let enc = fpc::compress_word(word);
        assert_eq!(fpc::decompress_word(&enc), word);
        assert!(enc.total_bits() <= 67);
    }
}

#[test]
fn dldc_round_trips_any_update() {
    let mut rng = DetRng::new(0xD1DC);
    for _ in 0..CASES {
        let old = shaped_word(&mut rng);
        // Bias towards few-byte diffs, plus occasional fully-random pairs.
        let new = if rng.gen_bool(0.5) {
            old ^ (rng.next_u64() & 0xFFFF)
        } else {
            shaped_word(&mut rng)
        };
        let mask = dirty_byte_mask(old, new);
        match dldc::compress_dirty(new, mask) {
            None => assert_eq!(old, new, "only silent updates are None"),
            Some(enc) => {
                assert_eq!(dldc::decompress(&enc, old), new);
                // DLDC never stores more than the raw dirty bytes plus tag.
                assert!(enc.total_bits() <= 3 + 8 * mask.count_ones());
            }
        }
    }
}

#[test]
fn dldc_recovers_over_either_old_or_new_base() {
    // At recovery the in-place word may hold the old OR the new value;
    // scattering dirty bytes over either must yield the new value.
    let mut rng = DetRng::new(0xD1DD);
    for _ in 0..CASES {
        let old = shaped_word(&mut rng);
        let new = shaped_word(&mut rng);
        let mask = dirty_byte_mask(old, new);
        if let Some(enc) = dldc::compress_dirty(new, mask) {
            assert_eq!(dldc::decompress(&enc, old), new);
            assert_eq!(dldc::decompress(&enc, new), new);
        }
    }
}

#[test]
fn bit_stream_round_trips() {
    let mut rng = DetRng::new(0xB175);
    for _ in 0..500 {
        let n = 1 + rng.gen_range(49) as usize;
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let width = 1 + rng.gen_range(64) as u32;
            let value = rng.next_u64();
            let masked = if width == 64 {
                value
            } else {
                value & ((1u64 << width) - 1)
            };
            fields.push((masked, width));
        }
        let mut w = BitWriter::<49>::new();
        for &(value, width) in &fields {
            w.push(value, width);
        }
        let total: usize = fields.iter().map(|&(_, w)| w as usize).sum();
        let (words, bits) = w.finish();
        assert_eq!(bits, total);
        let mut r = BitReader::new(&words, bits);
        for (value, width) in fields {
            assert_eq!(r.pull(width), value);
        }
    }
}

#[test]
fn expansion_round_trips() {
    // Every mapped write fills one word region: at most 24 TLC cells, so
    // at most 72 payload bits in two words.
    let mut rng = DetRng::new(0xE9A);
    for _ in 0..500 {
        let len = 1 + rng.gen_range(SEGMENT_WORDS as u64) as usize;
        let payload: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let capacity = 3 * WORD_REGION_CELLS;
        let bits = (1 + rng.gen_range(capacity as u64) as usize).min(payload.len() * 64);
        let mapped = map_payload(&payload, bits, WORD_REGION_CELLS);
        let out = unmap_payload(&mapped, bits);
        for idx in 0..bits {
            assert_eq!(
                (payload[idx / 64] >> (idx % 64)) & 1,
                (out[idx / 64] >> (idx % 64)) & 1,
                "bit {idx} of {bits}"
            );
        }
    }
}

#[test]
fn data_block_codec_round_trips() {
    let codec = SldeCodec::new(CellModel::table_iii());
    let mut rng = DetRng::new(0xDA7A);
    for _ in 0..500 {
        let mut line = LineData::zeroed();
        for i in 0..8 {
            line.set_word(i, shaped_word(&mut rng));
        }
        let region = codec.encode_data_block(&line);
        assert_eq!(codec.decode_data_block(&region), line);
    }
}

#[test]
fn log_entry_codec_round_trips() {
    let codec = SldeCodec::new(CellModel::table_iii());
    let mut rng = DetRng::new(0x109E);
    for _ in 0..500 {
        let meta = vec![rng.next_u64(), rng.next_u64()];
        let old = shaped_word(&mut rng);
        let new = shaped_word(&mut rng);
        if old == new {
            continue;
        }
        let data = [
            LogWordRequest::redo(old, new), // undo word
            LogWordRequest::redo(new, old), // redo word
        ];
        let region = codec.encode_log_entry(&meta, &data, 1, 96);
        let (m, d) = codec.decode_log_entry(&region, 2, &[true, true], &[new, old]);
        assert_eq!(m, meta);
        assert_eq!(d, vec![old, new]);
    }
}

#[test]
fn dcw_is_silent_iff_states_equal() {
    let model = CellModel::table_iii();
    let mut rng = DetRng::new(0xDC3);
    for _ in 0..CASES {
        let n = 1 + rng.gen_range(63) as usize;
        let v: Vec<CellState> = (0..n)
            .map(|_| CellState::new(rng.gen_range(8) as u8))
            .collect();
        let cost = dcw::write_cost(&model, &v, &v, 3);
        assert!(cost.is_silent());
        // Flip one cell: no longer silent, and exactly one cell programs.
        let mut v2 = v.clone();
        let flipped = (v2[0].bits() + 1) % 8;
        v2[0] = CellState::new(flipped);
        let cost = dcw::write_cost(&model, &v, &v2, 3);
        assert_eq!(cost.cells_programmed, 1);
        assert!(!cost.is_silent());
    }
}

#[test]
fn dirty_mask_is_symmetric_and_zero_iff_equal() {
    let mut rng = DetRng::new(0xD197);
    for _ in 0..CASES {
        let a = shaped_word(&mut rng);
        let b = if rng.gen_bool(0.1) {
            a
        } else {
            shaped_word(&mut rng)
        };
        assert_eq!(dirty_byte_mask(a, b), dirty_byte_mask(b, a));
        assert_eq!(dirty_byte_mask(a, b) == 0, a == b);
    }
}

#[test]
fn log_ring_preserves_fifo_and_capacity() {
    let mut rng = DetRng::new(0xF1F0);
    // The simulator's array slots (reserve 0) and the engine's byte slots
    // (reserve SLOT_MAX), over the same random operation streams.
    for geometry in [ARRAY_SLOTS, BYTE_SLOTS] {
        for _ in 0..100 {
            let mut ring: Ring<(u64, bool)> = Ring::new(geometry, 1024);
            let mut live: u64 = 0;
            let mut appended: u64 = 0;
            let ops = 1 + rng.gen_range(199) as usize;
            for _ in 0..ops {
                if rng.gen_bool(0.5) {
                    let kind = RecordKind::ALL[rng.gen_range(3) as usize];
                    if ring.append(kind, |parity| (appended, parity)).is_some() {
                        live += 1;
                        appended += 1;
                    }
                } else {
                    let cut = ring
                        .entries()
                        .next()
                        .map(|f| f.offset + geometry.slot_bytes(f.kind));
                    if let Some(cut) = cut {
                        assert_eq!(ring.truncate_to(cut).count(), 1);
                        live -= 1;
                    }
                }
                assert_eq!(ring.entries().count() as u64, live);
                assert!(ring.used_bytes() <= ring.capacity());
                // Slots remain in append order, never straddle the wrap and
                // carry their pass's parity.
                let values: Vec<u64> = ring.entries().map(|e| e.value.0).collect();
                assert_eq!(values, (appended - live..appended).collect::<Vec<_>>());
                for e in ring.entries() {
                    let end = ring.position(e.offset) + geometry.slot_bytes(e.kind);
                    assert!(end <= ring.capacity());
                    assert_eq!(e.value.1, ring.pass_parity(e.offset));
                    assert!(e.offset >= ring.head() && e.offset < ring.tail());
                }
            }
        }
    }
}

mod cache_props {
    use super::*;
    use morlog_repro::cache::cache::Cache;
    use morlog_repro::cache::line::CacheLine;
    use morlog_repro::core::CacheLevelConfig;
    use morlog_repro::core::LineAddr;

    /// LRU cache invariants under arbitrary access/insert/remove sequences:
    /// occupancy never exceeds sets × ways, a just-inserted line is
    /// resident, and a removed line is gone.
    #[test]
    fn cache_structural_invariants() {
        let mut rng = DetRng::new(0xCAC4E);
        for _ in 0..50 {
            let cfg = CacheLevelConfig {
                capacity_bytes: 16 * 64,
                ways: 2,
                latency_cycles: 1,
            };
            let mut c = Cache::new(cfg);
            let capacity = cfg.sets() * cfg.ways;
            let ops = 1 + rng.gen_range(299) as usize;
            for _ in 0..ops {
                let addr = LineAddr::from_index(rng.gen_range(64));
                match rng.gen_range(3) {
                    0 => {
                        c.insert(CacheLine::clean(addr, LineData::zeroed()));
                        assert!(c.contains(addr), "inserted line resident");
                    }
                    1 => {
                        let _ = c.get_mut(addr);
                    }
                    _ => {
                        c.remove(addr);
                        assert!(!c.contains(addr), "removed line gone");
                    }
                }
                assert!(c.len() <= capacity, "occupancy bounded");
            }
        }
    }

    /// A line inserted and then re-accessed any number of times (< ways)
    /// within its set is never evicted (LRU keeps the MRU line).
    #[test]
    fn mru_line_survives_one_conflict() {
        for fill in 0u64..8 {
            let cfg = CacheLevelConfig {
                capacity_bytes: 4 * 64,
                ways: 2,
                latency_cycles: 1,
            };
            let mut c = Cache::new(cfg); // 2 sets x 2 ways
            let hot = LineAddr::from_index(0);
            c.insert(CacheLine::clean(hot, LineData::zeroed()));
            // One conflicting line in the same set (even indices -> set 0).
            let other = LineAddr::from_index(2 + 2 * (fill % 4));
            c.get_mut(hot);
            c.insert(CacheLine::clean(other, LineData::zeroed()));
            assert!(c.contains(hot));
        }
    }
}

mod id_props {
    use super::*;

    /// TxId::next wraps like a 16-bit hardware counter.
    #[test]
    fn txid_next_is_wrapping_increment() {
        let mut rng = DetRng::new(0x771D);
        for _ in 0..CASES {
            let raw = rng.next_u64() as u16;
            assert_eq!(TxId::new(raw).next(), TxId::new(raw.wrapping_add(1)));
        }
    }
}
