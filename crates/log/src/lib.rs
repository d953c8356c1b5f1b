//! The MorLog logging protocol as an embeddable library.
//!
//! This crate lifts the commit/recovery protocol of the MorLog reproduction
//! (CRC-sealed undo/redo log records, pass-parity torn-write detection,
//! per-thread damage cutoffs, commit-order roll-forward and oldest-anchor
//! roll-back) out of the cycle-level simulator so that real storage clients
//! can use it. It has **no dependencies** — not even on the simulator
//! crates; the simulator depends on *it*.
//!
//! The crate is organised around a small trait boundary:
//!
//! * [`record`] — the log-record wire format: the Fig. 7 metadata packing,
//!   the CRC-32 integrity footprint that binds in the pass-parity (torn)
//!   bit, and a fixed-slot byte codec for storage backends.
//! * [`ring`] — the Lamport single-producer/single-consumer log ring:
//!   head/tail offsets, slot placement with its wrap skip, pass parity,
//!   truncation and the live window, over a caller-chosen slot
//!   [`Geometry`](ring::Geometry).
//! * [`protocol`] — the pure recovery planner shared by every backend *and*
//!   by the simulator: classify scanned slots (valid / torn / corrupt),
//!   compute per-thread damage cutoffs, pick winners (with the optional
//!   delay-persistence ulog check) and emit the exact forward/backward
//!   replay schedule.
//! * [`txtable`] — the §III-F transaction table (dirty-line counters that
//!   decide when a committed transaction's records are deletable).
//! * [`domain`] — the [`PersistDomain`] trait: byte regions with explicit
//!   `persist()` ordering points and a `drain()` barrier.
//! * [`image`] — the shared volatile/durable byte-image that backs the
//!   concrete domains, including the *power-cut* model ("writes dropped
//!   before fsync") used to simulate crashes without killing the process.
//! * [`mem`] — [`MemDomain`], a purely in-memory backend for tests.
//! * [`mmap`] — [`MmapDomain`], an mmap-or-file backend with explicit
//!   flush + fsync that can actually serve clients.
//! * [`engine`] — [`Log`], the transactional log engine: write-ahead
//!   undo+redo append, commit records with cross-slice timestamps, log
//!   truncation and full crash recovery over any [`PersistDomain`].
//!
//! The simulator shares this crate's record, kind and transaction-table
//! types, its recovery planner and its [`Ring`](ring::Ring): the engine
//! steps one ring per slice over [`BYTE_SLOTS`](record::BYTE_SLOTS), and
//! the simulator's memory controller one per slice over the Fig. 7 array
//! slots (`morlog_nvm::log::ARRAY_SLOTS`). The simulator still keeps its
//! slots as structured records rather than bytes. Its NVMM fault model
//! implements [`PersistDomain`] in the `morlog-nvm` crate (`SimDomain`);
//! only tests drive [`Log`] over it.
//!
//! # Example
//!
//! ```
//! use morlog_log::{engine::{Log, LogConfig}, mem::MemDomain, PersistDomain};
//!
//! let cfg = LogConfig::small();
//! let mut log = Log::format(MemDomain::new(&cfg), cfg.clone());
//! log.write(0, 0, 7, 0xAB).unwrap();
//! log.commit(0, 0).unwrap();
//! // Simulated power loss: un-drained writes are dropped, then recover.
//! log.domain_mut().restart();
//! let outcome = log.recover().unwrap();
//! assert_eq!(outcome.committed.len(), 1);
//! assert_eq!(log.read_word(7), 0xAB);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod engine;
pub mod image;
pub mod mem;
pub mod mmap;
pub mod protocol;
pub mod record;
pub mod ring;
pub mod txtable;

pub use domain::{PersistDomain, RegionId, CONTROL_REGION, DATA_REGION};
pub use engine::{Log, LogConfig, LogError, RecoveryOutcome};
pub use mem::MemDomain;
pub use mmap::{MmapDomain, SyncMode};
pub use protocol::{plan_replay, Damage, ReplayPlan, ScanEntry};
pub use record::{Record, RecordKind, TxTag};
