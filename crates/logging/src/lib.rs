//! The MorLog paper's primary contribution: morphable hardware logging for
//! atomic persistence, plus the FWB undo+redo baseline it is evaluated
//! against.
//!
//! * [`buffer`] — the volatile undo+redo and redo FIFOs (Table I).
//! * [`controller`] — the log controller: the Fig. 8 word-state machine,
//!   eager-undo/lazy-redo writeback (§III-B), commit protocols including
//!   delay-persistence (§III-C), silent-log-write discarding (§IV-A), and
//!   log truncation (§III-F).
//! * [`recovery`] — the §III-E recovery routine for both commit protocols.
//! * [`overhead`] — the Table I hardware-overhead arithmetic.
//!
//! The simulation engine in `morlog-sim` wires a [`controller::LogController`]
//! between the cache hierarchy (`morlog-cache`) and the memory controller
//! (`morlog-nvm`). Log records, their kinds, their `(thread, txid)` tags,
//! the §III-F transaction table and the recovery result are `morlog-log`'s
//! types (`Record`, `RecordKind`, `TxTag`, `TxTable`, `RecoveryOutcome`).

#![deny(missing_docs)]

pub mod buffer;
pub mod controller;
pub mod overhead;
pub mod recovery;

pub use controller::{LogController, PersistedUr, StoreStall, UlogWord};
pub use recovery::recover;
