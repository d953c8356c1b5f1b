//! Three-level write-back cache hierarchy with the MorLog L1 extensions.
//!
//! * [`mod@line`] — cache lines, and the per-word L1 extensions of Fig. 7:
//!   thread/transaction tags, the 2-bit log-state machine of Fig. 8
//!   (`Clean → Dirty → URLog → ULog`), and the per-word dirty flags of
//!   §IV-A.
//! * [`cache`] — a generic set-associative LRU write-back cache whose
//!   lines stay in the slots they were filled into; LRU order is a per-set
//!   recency list of way indices, and storage grows with the sets and ways
//!   a run fills.
//! * [`hierarchy`] — private L1/L2 per core and a shared inclusive L3
//!   (Table III geometry), with eviction cascades that surface the events
//!   the logging hardware reacts to (L1 evictions carry their extensions
//!   out; LLC evictions produce memory writebacks).
//! * [`fwb`] — the force-write-back scan (§III-F): a periodic two-phase
//!   sweep that writes back aged dirty lines without invalidating them,
//!   enabling log truncation.

#![deny(missing_docs)]

pub mod cache;
pub mod fwb;
pub mod hierarchy;
pub mod line;

pub use cache::Cache;
pub use hierarchy::{AccessOutcome, EvictionEvent, Hierarchy};
pub use line::{CacheLine, L1Ext, WordLogState};
