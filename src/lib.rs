//! # tempopr — Postmortem Computation of PageRank on Temporal Graphs
//!
//! A from-scratch Rust reproduction of Hossain & Saule, *Postmortem
//! Computation of Pagerank on Temporal Graphs* (ICPP '22): compute
//! PageRank on every window of a sliding-window temporal graph, given the
//! whole event history up front.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`graph`]: event logs, sliding windows, temporal CSR, multi-window
//!   graphs;
//! - [`kernel`]: SpMV / SpMM PageRank kernels and TBB-style partitioners
//!   over one scoped-thread scheduler;
//! - [`core`]: the postmortem engine (partial initialization,
//!   window/application/nested parallelism) and the offline baseline;
//! - [`stream`]: the STINGER-like streaming baseline with incremental
//!   PageRank;
//! - [`datagen`]: synthetic stand-ins for the paper's seven datasets;
//! - [`telemetry`]: run-level observability — phase timers, counters,
//!   and deterministic convergence traces.
//!
//! ## Quick start
//!
//! ```
//! use tempopr::prelude::*;
//!
//! // A temporal graph: (u, v, t) relational events.
//! let events = (0..200u32)
//!     .map(|i| Event::new(i % 16, (i * 7 + 3) % 16, i as i64))
//!     .collect();
//! let log = EventLog::from_unsorted(events, 16).unwrap();
//!
//! // Slide a width-60 window by 20 time units per step.
//! let spec = WindowSpec::covering(&log, 60, 20).unwrap();
//!
//! // Postmortem PageRank on every window.
//! let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
//! let out = engine.run();
//! for w in &out.windows {
//!     let (v, r) = w.ranks.as_ref().unwrap().top().unwrap();
//!     println!("window {}: top vertex {v} (rank {r:.4})", w.window);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tempopr_core as core;
pub use tempopr_datagen as datagen;
pub use tempopr_graph as graph;
pub use tempopr_kernel as kernel;
pub use tempopr_stream as stream;
pub use tempopr_telemetry as telemetry;

/// The most commonly used items in one import.
pub mod prelude {
    pub use tempopr_core::{
        corrupt_manifest, resume_scan, run_offline, run_offline_durable, run_offline_traced,
        suggest, CheckpointError, CheckpointOptions, CorruptionKind, EngineError, EngineQuery,
        FaultPlan, InitMode, KernelKind, OfflineConfig, ParallelMode, PostmortemConfig,
        PostmortemEngine, QueryOutput, QueryRunOutput, RecoveryKind, RecoveryPolicy, RetainMode,
        RunOutput, SparseRanks, StorageBackend, WindowFault, WindowOutput, WindowStatus, WorkerCap,
    };
    pub use tempopr_datagen::{Dataset, DatasetSpec, DAY};
    pub use tempopr_graph::{Event, EventLog, IngestReport, ParseMode, TimeRange, WindowSpec};
    pub use tempopr_kernel::{
        Balance, FaultKind, GuardConfig, Init, NumericPolicy, Partitioner, PrConfig, Scheduler,
        SimdPolicy,
    };
    pub use tempopr_stream::{
        run_streaming, run_streaming_durable, run_streaming_traced, IncrementalMode,
        StreamingConfig,
    };
    pub use tempopr_telemetry::{RunReport, Telemetry};
}
