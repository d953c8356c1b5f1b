//! Shared foundation types for the MorLog reproduction.
//!
//! This crate holds the vocabulary used by every other crate in the
//! workspace: physical addresses and cache-line geometry, simulated-time
//! units, thread/transaction identifiers, configuration structures for each
//! simulated component, a deterministic random-number generator, and the
//! metric counters that the benchmark harness reports.
//!
//! Nothing in this crate models behaviour; it only defines the shared
//! language so that the substrate crates (`morlog-encoding`, `morlog-nvm`,
//! `morlog-cache`, `morlog-logging`, `morlog-sim`) can interoperate without
//! depending on each other.
//!
//! # Example
//!
//! ```
//! use morlog_sim_core::{Addr, WORDS_PER_LINE};
//!
//! let addr = Addr::new(0x1234_5678);
//! let line = addr.line();
//! assert_eq!(line.base().as_u64(), 0x1234_5640);
//! assert!(addr.word_index() < WORDS_PER_LINE);
//! ```

#![deny(missing_docs)]

pub mod array_vec;
pub mod config;
pub mod fault;
pub mod hash;
pub mod hostprof;
pub mod ids;
pub mod knobs;
pub mod metrics;
pub mod par;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod types;

pub use config::{
    CacheLevelConfig, CheckMutation, CoreConfig, DesignKind, HierarchyConfig, LogConfig, MemConfig,
    MetricsConfig, SystemConfig, TraceConfig,
};
pub use fault::{FaultPlan, FaultVariantKind};
pub use hostprof::{HostCounter, HostPhase, HostProfile};
pub use ids::ThreadId;
pub use metrics::{CommitLatency, Histogram, LogWriteMetrics, MetricsSet, Series, SeriesSet};
pub use persist::{PersistEventKind, PersistEventMeta};
pub use rng::DetRng;
pub use stats::{CheckStats, FuzzStats, SimStats};
pub use timing::{Cycle, Frequency, NanoSeconds, PicoJoules};
pub use types::{Addr, LineAddr, LineData, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
