//! Partial-order reduction: recovery-pinned write elision.
//!
//! Crash state at point `n` is a pure function of the accepted prefix
//! (the crash drains every accepted program), so two *different* prefixes
//! are never bit-identical and classic permutation pruning has nothing to
//! merge. What the exhaustive explorer can still skip is a point whose
//! *recovery outcome* is forced to match its predecessor's: if event `n`
//! is an in-place data program and every word it changed is covered by a
//! live undo+redo record, then recovery at point `n` overwrites each of
//! those words regardless of the in-place value — a winner's records are
//! rolled forward (redo replay writes absolute values), a loser's are
//! rolled back (oldest-anchor undo writes absolute values), and recovery
//! control flow reads only the log, which event `n` did not touch. Both
//! points recover to the same state and verdict; exploring `n` proves
//! nothing `n - 1` does not.
//!
//! Two guards keep this sound:
//!
//! - **No adjacent truncation.** Replays freeze *acceptances* but let the
//!   cycle containing the crash point finish, so a truncation bordering
//!   event `n` lands in one replay's crash state and possibly not the
//!   other's — the two points would then recover from *different* logs.
//!   A data event with a `Truncate` marker on either side is never
//!   pinned.
//! - **No fault variants.** A torn or corrupted covering record is
//!   excluded from replay, recovery skips the word, and the in-place
//!   value shows through — so the caller only applies the reduction when
//!   no fault plan is composed ([`crate::CheckOptions::reduce`] is
//!   ignored when `fault_variant` is set).

use morlog_sim_core::{PersistEventKind, PersistEventMeta, WORDS_PER_LINE};
use std::collections::{HashMap, HashSet};

/// Crash points (`n >= 2`) provably recovery-equivalent to their
/// predecessor, derived by replaying the reference run's persist-event
/// metadata stream.
pub fn recovery_pinned_points(meta: &[PersistEventMeta]) -> HashSet<u64> {
    let mut pinned = HashSet::new();
    // Live undo+redo records by identity, and per-word live-record counts.
    let mut live: HashMap<(usize, u64), u64> = HashMap::new();
    let mut covered: HashMap<u64, u32> = HashMap::new();
    let mut event = 0u64;
    // A data event judged pinned stays provisional until the next
    // acceptance: a Truncate marker arriving first retracts it (the
    // truncation may share the crash cycle, changing the log the replay
    // recovers from).
    let mut provisional: Option<u64> = None;
    for m in meta {
        match m {
            PersistEventMeta::Data { line, changed } => {
                event += 1;
                if let Some(p) = provisional.take() {
                    pinned.insert(p);
                }
                // A zero mask is a silent rewrite — the hash pruning
                // already elides it; only claim points it cannot.
                if event >= 2 && *changed != 0 {
                    let all_covered = (0..WORDS_PER_LINE)
                        .filter(|w| (*changed >> w) & 1 != 0)
                        .all(|w| {
                            let word_addr = line * 64 + w as u64 * 8;
                            covered.get(&word_addr).copied().unwrap_or(0) > 0
                        });
                    if all_covered {
                        provisional = Some(event);
                    }
                }
            }
            PersistEventMeta::Log {
                kind,
                addr,
                slice,
                offset,
                ..
            } => {
                event += 1;
                if let Some(p) = provisional.take() {
                    pinned.insert(p);
                }
                if *kind == PersistEventKind::UndoRedo {
                    let word = addr.word_base().as_u64();
                    if live.insert((*slice, *offset), word).is_none() {
                        *covered.entry(word).or_insert(0) += 1;
                    }
                }
            }
            PersistEventMeta::Truncate { slice, offsets } => {
                // Retract the provisional pin (truncation borders it) and
                // drop the deleted records' coverage.
                provisional = None;
                for off in offsets {
                    if let Some(word) = live.remove(&(*slice, *off)) {
                        if let Some(c) = covered.get_mut(&word) {
                            *c = c.saturating_sub(1);
                        }
                    }
                }
            }
        }
    }
    if let Some(p) = provisional {
        pinned.insert(p);
    }
    pinned
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_log::record::TxTag;
    use morlog_sim_core::Addr;

    fn undo(line: u64, word: usize, offset: u64) -> PersistEventMeta {
        PersistEventMeta::Log {
            kind: PersistEventKind::UndoRedo,
            key: TxTag::new(0, 0),
            addr: Addr::new(line * 64 + word as u64 * 8),
            slice: 0,
            offset,
        }
    }

    fn data(line: u64, changed: u8) -> PersistEventMeta {
        PersistEventMeta::Data { line, changed }
    }

    #[test]
    fn covered_write_is_pinned_and_uncovered_is_not() {
        // Events: undo(word 0), undo(word 1), data{0,1} covered, data{2}
        // uncovered.
        let meta = vec![
            undo(5, 0, 0),
            undo(5, 1, 64),
            data(5, 0b011),
            data(5, 0b100),
        ];
        assert_eq!(recovery_pinned_points(&meta), HashSet::from([3]));
    }

    #[test]
    fn truncation_retracts_coverage_and_adjacent_pins() {
        // Coverage deleted before the write: not pinned.
        let dead = vec![
            undo(5, 0, 0),
            PersistEventMeta::Truncate {
                slice: 0,
                offsets: vec![0],
            },
            data(5, 0b001),
        ];
        assert!(recovery_pinned_points(&dead).is_empty());
        // Truncation immediately *after* an otherwise pinnable write: the
        // marker may share the crash cycle, so the pin is retracted.
        let bordered = vec![
            undo(5, 0, 0),
            undo(6, 0, 64),
            data(5, 0b001),
            PersistEventMeta::Truncate {
                slice: 0,
                offsets: vec![0],
            },
            data(6, 0b001),
        ];
        assert_eq!(recovery_pinned_points(&bordered), HashSet::from([4]));
    }

    #[test]
    fn early_points_are_never_pinned() {
        // Event 1 covered or not, points 0 and 1 stay in the explorer's
        // always-keep set.
        let meta = vec![data(5, 0b001)];
        assert!(recovery_pinned_points(&meta).is_empty());
    }
}
