//! # tempopr-graph
//!
//! Temporal graph representations for postmortem analysis, reproducing the
//! data layer of Hossain & Saule, *Postmortem Computation of Pagerank on
//! Temporal Graphs* (ICPP '22).
//!
//! A temporal graph is defined by an [`events::EventLog`] — a time-sorted
//! set of `(u, v, t)` relational events — observed through a
//! [`window::WindowSpec`] sliding-window model. The postmortem
//! representation is the [`tcsr::TemporalCsr`] (CSR with one entry per
//! event plus a timestamp array, Fig. 3 of the paper), partitioned into
//! [`multiwindow::MultiWindowGraph`]s so per-window work stays proportional
//! to per-window edges (§4.1). The static [`csr::Csr`] is what the offline
//! baseline rebuilds per window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod csr;
pub mod error;
pub mod events;
pub mod io;
pub mod multiwindow;
pub mod storage;
pub mod tcsr;
pub mod window;
pub mod windowindex;

pub use csr::Csr;
pub use error::GraphError;
pub use events::{Event, EventLog, Timestamp, VertexId};
pub use io::{IngestReport, IoError, ParseMode};
pub use multiwindow::{
    parts_for_memory_budget, MultiWindowGraph, MultiWindowSet, PartitionStrategy, VisitError,
};
pub use storage::{
    plan_partition, plan_parts_for_budget, BudgetError, CompressedPart, DecodeScratch,
    EncodedPartition, PartMeta, PartitionPlan, PlanStats, StorageError, StorageProfile, TcsrFile,
    TcsrFileWriter,
};
pub use tcsr::{NeighborRun, TemporalCsr};
pub use window::{TimeRange, WindowSpec};
pub use windowindex::{WindowIndex, WindowIndexView};
