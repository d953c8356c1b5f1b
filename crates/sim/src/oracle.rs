//! The transaction oracle: ground truth for crash/recovery verification.
//!
//! The oracle knows the program-order writes of every transaction and
//! which transactions committed from the program's point of view. It reads
//! the writes from the replayed trace itself, which it shares with the
//! [`System`] (an O(1) clone): per transaction it keeps only where the
//! transaction sits in its thread's trace, how many of its stores have
//! executed, and whether it committed. After a
//! crash and recovery, [`Oracle::verify`] checks *atomic persistence*: for
//! every thread, the post-recovery NVMM image must equal the replay of a
//! **prefix** of that thread's transactions — every transaction is
//! all-there or all-gone, and survival follows commit order.
//!
//! Under the synchronous commit protocols the surviving prefix must cover
//! every transaction the program saw commit (durability at commit). Under
//! delay-persistence (§III-C) commit guarantees atomicity only: the most
//! recently committed transactions may be rolled back, so the prefix may
//! end earlier — but it must still be a prefix, and it must contain every
//! transaction recovery claims to have rolled forward and none it rolled
//! back.
//!
//! Injected crash-time faults (torn drains, escaped bit flips) get the
//! same relaxation: hardened recovery may soundly demote a transaction
//! whose log records were damaged, so the surviving prefix may stop short
//! of the last program-observed commit — but non-prefix survival (a later
//! transaction persisting while an earlier one is lost) and partial
//! transactions remain violations. [`System::verify_recovery`] passes
//! `strict_durability = false` exactly when the controller reports a
//! crash-time fault.
//!
//! [`System`]: crate::system::System
//! [`System::verify_recovery`]: crate::system::System::verify_recovery

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use morlog_log::record::TxTag;
use morlog_log::RecoveryOutcome;
use morlog_nvm::controller::MemoryController;
use morlog_sim_core::{Addr, ThreadId};
use morlog_workloads::trace::{Op, ThreadTrace};

#[derive(Debug, Clone, Copy)]
struct OracleTx {
    key: TxTag,
    /// The transaction's index in its thread's trace.
    index: u32,
    /// Its stores executed so far: the first `stores` of its trace stores.
    stores: u32,
    committed: bool,
}

/// Ground-truth recorder for atomicity verification.
///
/// A transaction runs its trace's ops in program order, so the writes it
/// has made are the first stores of its trace transaction: recording a
/// write is one increment.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The replayed per-thread traces, indexed by `TxTag::thread`.
    threads: Arc<[ThreadTrace]>,
    txs: Vec<OracleTx>,
    /// Index in `txs` of each thread's latest transaction.
    open: Vec<Option<usize>>,
}

impl Oracle {
    /// An oracle for a run of `threads`, whose initial images are the
    /// pre-loaded NVMM state.
    pub fn new(threads: Arc<[ThreadTrace]>) -> Self {
        Oracle {
            open: vec![None; threads.len()],
            threads,
            txs: Vec::new(),
        }
    }

    /// Transaction `index` of `key`'s thread began; it is its thread's open
    /// transaction until the thread begins the next one.
    pub fn begin(&mut self, key: TxTag, index: usize) {
        self.open[key.thread as usize] = Some(self.txs.len());
        self.txs.push(OracleTx {
            key,
            index: index as u32,
            stores: 0,
            committed: false,
        });
    }

    /// The open transaction of `key`'s thread, which must be `key`.
    fn open_tx(&mut self, key: TxTag) -> &mut OracleTx {
        let idx = self
            .open
            .get(key.thread as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("{key}: no transaction open on its thread"));
        let tx = &mut self.txs[idx];
        assert_eq!(tx.key, key, "{key} is not its thread's open transaction");
        tx
    }

    /// The open transaction's next store executed (program order).
    pub fn record_write(&mut self, key: TxTag) {
        self.open_tx(key).stores += 1;
    }

    /// The transaction committed (program-visible commit).
    pub fn mark_committed(&mut self, key: TxTag) {
        self.open_tx(key).committed = true;
    }

    /// The writes of `tx` so far, in program order.
    fn writes(&self, tx: &OracleTx) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.threads[tx.key.thread as usize].transactions[tx.index as usize]
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::Store(addr, value) => Some((addr.word_base(), value)),
                _ => None,
            })
            .take(tx.stores as usize)
    }

    /// Transactions recorded so far.
    pub fn transactions(&self) -> usize {
        self.txs.len()
    }

    /// Verifies atomic persistence of the post-recovery NVMM image.
    ///
    /// `strict_durability` should be `true` for the synchronous commit
    /// protocols (a program-visible commit implies persistence) and `false`
    /// under delay-persistence.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation: no surviving prefix matches
    /// the NVMM image, or the surviving prefix is inconsistent with the
    /// recovery report or the durability contract.
    pub fn verify(
        &self,
        mc: &MemoryController,
        report: &RecoveryOutcome,
        strict_durability: bool,
    ) -> Result<(), String> {
        let redone: HashSet<TxTag> = report.committed.iter().copied().collect();
        let undone: HashSet<TxTag> = report.rolled_back.iter().copied().collect();

        // Group transactions per thread, preserving program order. Threads
        // write disjoint addresses (isolation via partitioning, §III-A), so
        // each thread verifies independently. Ordered map: when several
        // threads are violated, the reported one must not depend on hash
        // iteration order (counterexample details are diffed across runs).
        let mut per_thread: BTreeMap<ThreadId, Vec<&OracleTx>> = BTreeMap::new();
        for tx in &self.txs {
            per_thread
                .entry(ThreadId::new(tx.key.thread))
                .or_default()
                .push(tx);
        }
        let initial: HashMap<u64, u64> = self
            .threads
            .iter()
            .flat_map(|t| &t.initial)
            .map(|&(a, v)| (a.word_base().as_u64(), v))
            .collect();

        for (thread, txs) in per_thread {
            // Addresses this thread ever touches.
            let mut touched: HashSet<u64> = HashSet::new();
            for tx in &txs {
                for (a, _) in self.writes(tx) {
                    touched.insert(a.as_u64());
                }
            }
            // Also include the thread's own initial image words.
            // (Initial entries are global; including extra words is fine —
            // other threads never write them.)
            // Allowed prefix lengths.
            let mut lo = 0usize;
            let mut hi = txs.len();
            for (i, tx) in txs.iter().enumerate() {
                if redone.contains(&tx.key) {
                    lo = lo.max(i + 1);
                }
                if undone.contains(&tx.key) {
                    hi = hi.min(i);
                }
                if strict_durability && tx.committed {
                    lo = lo.max(i + 1);
                }
                // A transaction that never committed (and that recovery did
                // not roll forward from a persisted commit record) must not
                // survive.
                if !tx.committed && !redone.contains(&tx.key) {
                    hi = hi.min(i);
                }
            }
            if lo > hi {
                return Err(format!(
                    "{thread}: recovery report inconsistent — surviving prefix must \
                     include at least {lo} transactions but at most {hi}"
                ));
            }
            // Committed transactions are a prefix of program order (commits
            // are in order per thread); the surviving prefix must not
            // include uncommitted transactions unless recovery redid them
            // (their commit record persisted just before the crash).
            for (i, tx) in txs.iter().enumerate() {
                if i < lo && !tx.committed && !redone.contains(&tx.key) {
                    return Err(format!(
                        "{thread}: transaction {} must survive but never committed",
                        tx.key
                    ));
                }
            }

            // Try every allowed prefix length, replaying incrementally.
            let mut expected: HashMap<u64, u64> = touched
                .iter()
                .map(|&a| (a, initial.get(&a).copied().unwrap_or(0)))
                .collect();
            for tx in &txs[..lo] {
                for (a, v) in self.writes(tx) {
                    expected.insert(a.as_u64(), v);
                }
            }
            let mut k = lo;
            let mut matched = false;
            loop {
                if state_matches(mc, &expected) {
                    matched = true;
                    break;
                }
                if k >= hi {
                    break;
                }
                for (a, v) in self.writes(txs[k]) {
                    expected.insert(a.as_u64(), v);
                }
                k += 1;
            }
            if !matched {
                // Produce a diagnostic against the largest allowed prefix.
                let mismatch = first_mismatch(mc, &expected);
                return Err(format!(
                    "{thread}: no surviving prefix in [{lo}, {hi}] matches NVMM \
                     (at the {hi}-prefix, first mismatch: {mismatch})"
                ));
            }
        }
        Ok(())
    }
}

fn state_matches(mc: &MemoryController, expected: &HashMap<u64, u64>) -> bool {
    expected.iter().all(|(&a, &want)| {
        let addr = Addr::new(a);
        mc.read_line(addr.line()).word(addr.word_index()) == want
    })
}

fn first_mismatch(mc: &MemoryController, expected: &HashMap<u64, u64>) -> String {
    let mut keys: Vec<&u64> = expected.keys().collect();
    keys.sort();
    for &&a in &keys {
        let addr = Addr::new(a);
        let got = mc.read_line(addr.line()).word(addr.word_index());
        let want = expected[&a];
        if got != want {
            return format!("{addr}: NVMM holds {got:#x}, expected {want:#x}");
        }
    }
    "none".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use morlog_encoding::cell::CellModel;
    use morlog_encoding::slde::SldeCodec;
    use morlog_sim_core::{Frequency, MemConfig};
    use morlog_workloads::trace::Transaction;

    fn mc() -> MemoryController {
        MemoryController::with_default_map(
            MemConfig::default(),
            Frequency::ghz(3.0),
            SldeCodec::new(CellModel::table_iii()),
        )
    }

    fn key(x: u16) -> TxTag {
        TxTag::new(0, x)
    }

    fn set_word(m: &mut MemoryController, a: Addr, v: u64) {
        let mut line = m.read_line(a.line());
        line.set_word(a.word_index(), v);
        m.write_line_functional(a.line(), line);
    }

    /// An oracle over one thread whose transaction `i` runs `txs[i]`.
    fn oracle(initial: &[(Addr, u64)], txs: Vec<Vec<Op>>) -> Oracle {
        let thread = ThreadTrace {
            transactions: txs.into_iter().map(|ops| Transaction { ops }).collect(),
            initial: initial.to_vec(),
        };
        Oracle::new(vec![thread].into())
    }

    /// [`oracle`] over transactions of stores, each of which ran all its
    /// stores and committed.
    fn committed(txs: &[&[(Addr, u64)]]) -> Oracle {
        let ops = txs
            .iter()
            .map(|w| w.iter().map(|&(a, v)| Op::Store(a, v)).collect())
            .collect();
        let mut o = oracle(&[], ops);
        for (i, writes) in txs.iter().enumerate() {
            o.begin(key(i as u16), i);
            for _ in writes.iter() {
                o.record_write(key(i as u16));
            }
            o.mark_committed(key(i as u16));
        }
        o
    }

    #[test]
    fn committed_tx_must_be_visible_under_strict_durability() {
        let mut m = mc();
        let a = m.map().data_base();
        let o = committed(&[&[(a, 5)]]);
        let report = RecoveryOutcome::default();
        assert!(o.verify(&m, &report, true).is_err(), "NVMM still zero");
        set_word(&mut m, a, 5);
        assert!(o.verify(&m, &report, true).is_ok());
    }

    #[test]
    fn dp_may_lose_recent_commits_but_only_as_a_suffix() {
        let mut m = mc();
        let a = m.map().data_base();
        let b = Addr::new(a.as_u64() + 8);
        let o = committed(&[&[(a, 1)], &[(b, 2)]]);
        let report = RecoveryOutcome::default();
        // Nothing persisted: acceptable under DP (prefix length 0)...
        assert!(o.verify(&m, &report, false).is_ok());
        // ...but a strict protocol must reject it.
        assert!(o.verify(&m, &report, true).is_err());
        // tx1 persisted, tx0 lost: NOT a prefix — reject even under DP.
        set_word(&mut m, b, 2);
        assert!(o.verify(&m, &report, false).is_err());
        // Both persisted: fine.
        set_word(&mut m, a, 1);
        assert!(o.verify(&m, &report, false).is_ok());
    }

    #[test]
    fn undone_tx_must_be_invisible() {
        let mut m = mc();
        let a = m.map().data_base();
        let o = committed(&[&[(a, 5)]]);
        let report = RecoveryOutcome {
            rolled_back: vec![key(0)],
            ..Default::default()
        };
        assert!(
            o.verify(&m, &report, false).is_ok(),
            "rolled-back tx leaves zeros"
        );
        set_word(&mut m, a, 5);
        assert!(
            o.verify(&m, &report, false).is_err(),
            "undone tx must not persist"
        );
    }

    #[test]
    fn redone_tx_must_be_visible_even_under_dp() {
        let mut m = mc();
        let a = m.map().data_base();
        let o = committed(&[&[(a, 5)]]);
        let report = RecoveryOutcome {
            committed: vec![key(0)],
            ..Default::default()
        };
        assert!(o.verify(&m, &report, false).is_err(), "redone but absent");
        set_word(&mut m, a, 5);
        assert!(o.verify(&m, &report, false).is_ok());
    }

    #[test]
    fn partial_visibility_is_a_violation() {
        let mut m = mc();
        let a = m.map().data_base();
        let b = Addr::new(a.as_u64() + 8);
        let o = committed(&[&[(a, 1), (b, 2)]]);
        set_word(&mut m, a, 1); // only half the transaction applied
        assert!(o.verify(&m, &RecoveryOutcome::default(), false).is_err());
    }

    #[test]
    fn inconsistent_report_is_rejected() {
        let m = mc();
        let a = m.map().data_base();
        let o = committed(&[&[(a, 1)], &[(a, 2)]]);
        // Recovery claims tx1 redone but tx0 undone: not a prefix.
        let report = RecoveryOutcome {
            committed: vec![key(1)],
            rolled_back: vec![key(0)],
            ..Default::default()
        };
        assert!(o.verify(&m, &report, false).is_err());
    }

    #[test]
    fn fault_demoted_commit_passes_only_in_relaxed_mode() {
        // A crash-time fault damaged the commit's log records: hardened
        // recovery rolled the (program-observed) committed tx back. The
        // relaxed check accepts the shorter prefix; strict must reject it,
        // and even relaxed rejects a half-applied transaction.
        let mut m = mc();
        let a = m.map().data_base();
        let b = Addr::new(a.as_u64() + 8);
        let o = committed(&[&[(a, 1), (b, 2)]]);
        let report = RecoveryOutcome {
            rolled_back: vec![key(0)],
            torn_records: 1,
            ..Default::default()
        };
        assert!(
            o.verify(&m, &report, false).is_ok(),
            "demotion is a valid shorter prefix"
        );
        assert!(
            o.verify(&m, &report, true).is_err(),
            "strict durability still fails"
        );
        set_word(&mut m, a, 1); // half the tx leaked through: never acceptable
        assert!(o.verify(&m, &report, false).is_err());
    }

    #[test]
    fn initial_image_is_the_baseline() {
        let mut m = mc();
        let a = m.map().data_base();
        let mut o = oracle(&[(a, 77)], vec![vec![Op::Store(a, 78)]]);
        o.begin(key(0), 0);
        o.record_write(key(0));
        // Uncommitted: the initial value must remain.
        set_word(&mut m, a, 77);
        assert!(o.verify(&m, &RecoveryOutcome::default(), true).is_ok());
    }

    #[test]
    fn writes_are_the_executed_stores_of_the_trace() {
        // tx1 ran its first store (to the byte address inside `b`'s word)
        // and crashed before its second, so only `a` and `b` are checked.
        let mut m = mc();
        let a = m.map().data_base();
        let b = Addr::new(a.as_u64() + 8);
        let c = Addr::new(a.as_u64() + 16);
        let mut o = oracle(
            &[],
            vec![
                vec![Op::Load(c), Op::Store(a, 1), Op::Compute(4)],
                vec![Op::Store(Addr::new(b.as_u64() + 3), 2), Op::Store(c, 3)],
            ],
        );
        o.begin(key(0), 0);
        o.record_write(key(0));
        o.mark_committed(key(0));
        o.begin(key(1), 1);
        o.record_write(key(1));
        assert_eq!(o.transactions(), 2);
        set_word(&mut m, c, 9);
        assert!(
            o.verify(&m, &RecoveryOutcome::default(), true).is_err(),
            "committed tx0 lost"
        );
        set_word(&mut m, a, 1);
        assert!(o.verify(&m, &RecoveryOutcome::default(), true).is_ok());
        set_word(&mut m, b, 2);
        assert!(
            o.verify(&m, &RecoveryOutcome::default(), true).is_err(),
            "uncommitted tx1 survived"
        );
    }
}
