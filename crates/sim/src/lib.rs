//! The full-system simulator: in-order cores replaying workload traces over
//! the cache hierarchy, the log controller and the FRFCFS-WQF memory
//! controller — the role Gem5 + NVMain play in the paper's methodology
//! (§VI-A), built from scratch.
//!
//! * [`system`] — the [`system::System`]: construction for each of the six
//!   evaluated designs, the cycle engine, commit handling, crash injection
//!   and recovery.
//! * [`oracle`] — a transaction oracle that reads every transactional
//!   write from the shared trace so crash/recovery tests can verify
//!   atomic persistence end-to-end.
//! * [`report`] — assembling [`morlog_sim_core::SimStats`] and the
//!   normalized metrics the paper's figures report.

#![deny(missing_docs)]

pub mod oracle;
pub mod report;
pub mod system;

pub use oracle::Oracle;
pub use report::RunReport;
pub use system::System;

// Sweep workers build and run whole `System`s on pool threads; this is the
// compile-time audit that a system (and everything it owns — controller,
// fault plan, oracle, stats) can move to / be shared by worker threads.
#[allow(dead_code)]
fn _system_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<System>();
    check::<RunReport>();
    check::<morlog_sim_core::SimStats>();
}
