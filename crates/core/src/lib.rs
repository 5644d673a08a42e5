//! # tempopr-core
//!
//! The postmortem temporal PageRank engine — the primary contribution of
//! Hossain & Saule, *Postmortem Computation of Pagerank on Temporal Graphs*
//! (ICPP '22) — plus the offline baseline it is compared against.
//!
//! Quick start:
//!
//! ```
//! use tempopr_core::{PostmortemConfig, PostmortemEngine};
//! use tempopr_graph::{Event, EventLog, WindowSpec};
//!
//! let events = (0..100u32)
//!     .map(|i| Event::new(i % 10, (i * 3 + 1) % 10, i as i64))
//!     .collect();
//! let log = EventLog::from_unsorted(events, 10).unwrap();
//! let spec = WindowSpec::covering(&log, 30, 10).unwrap();
//! let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
//! let out = engine.run();
//! assert_eq!(out.windows.len(), spec.count);
//! let top = out.windows[0].ranks.as_ref().unwrap().top().unwrap();
//! println!("most central vertex of window 0: {} (rank {:.4})", top.0, top.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod advisor;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod exec;
pub mod observe;
pub mod offline;
pub mod query;
pub mod result;
pub mod storage;

pub use advisor::{auto_multiwindows, suggest, suggest_for_profile, WorkloadProfile};
pub use checkpoint::{
    corrupt_manifest, resume_scan, CheckpointError, CheckpointOptions, CheckpointRecord,
    CheckpointSink, CorruptionKind, ManifestHeader, ResumeState,
};
pub use config::{
    FaultPlan, InitMode, KernelKind, ParallelMode, PostmortemConfig, RetainMode, WindowFault,
};
pub use engine::{PostmortemEngine, WorkerCap};
pub use error::{EngineError, Phase};
pub use exec::{Prefetcher, RecoveryPolicy, WindowExecutor, WindowSource, MAX_ORACLE_ACTIVE};
pub use observe::TelemetryKernelBridge;
pub use offline::{run_offline, run_offline_durable, run_offline_traced, OfflineConfig};
pub use query::{EngineQuery, QueryOutput, QueryRunOutput};
pub use result::{
    rank_fingerprint, RecoveryKind, RunOutput, SparseRanks, WindowOutput, WindowRanks, WindowStatus,
};
pub use storage::{PartRef, StorageBackend, TcsrStorage};

/// Locks `m`, recovering from poison: a panicking window is isolated and
/// reported by the execution layer, and every mutex here (the checkpoint
/// sink, the shard cache, the offline prefetch slot, the engine's sink
/// slot) holds state that is consistent between operations.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
