//! Non-volatile main-memory subsystem: the substrate the MorLog paper runs
//! on (Gem5 + NVMain in the original; built from scratch here).
//!
//! * [`layout`] — the physical address map: DRAM and NVMM on one bus, with
//!   the log region carved out of NVMM (§III-A failure model).
//! * [`log`] — the NVMM-resident log's array layout: the Fig. 7 slot
//!   geometry the memory controller passes to `morlog-log`'s Lamport
//!   single-producer/single-consumer ring (head/tail registers, per-pass
//!   torn bits; §III-A, §III-B), and the sealed record each slot holds.
//! * [`module`] — the NVMM module controller: hosts the SLDE/CRADE codec,
//!   tracks per-block TLC cell states, and computes DCW write costs.
//! * [`controller`] — the FRFCFS-WQF memory controller of Table III:
//!   per-channel read/write queues (64-entry write queue, 80 % drain
//!   watermark), bank timing, and the ADR persist domain boundary.
//!
//! # Persist-domain semantics (ADR)
//!
//! Following §III-A, the memory controller's write queue belongs to the
//! persistence domain: a write is durable the moment it is *accepted* into
//! the write queue, because ADR flushes the queue on power loss. The
//! controller therefore applies writes to the functional backing store at
//! acceptance time, while the queues and banks model timing and contention
//! only. Crash injection keeps exactly this boundary.

#![deny(missing_docs)]

pub mod controller;
pub mod domain;
pub mod layout;
pub mod log;
pub mod module;

pub use controller::{MemoryController, ReadTicket, WriteRequest};
pub use layout::{MemoryMap, Region};
pub use module::NvmmModule;
