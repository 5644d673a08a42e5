//! # tempopr-kernel
//!
//! PageRank computation kernels for postmortem temporal graph analysis
//! (Hossain & Saule, ICPP '22, §2.2 and §4.3-4.4):
//!
//! - [`pagerank`]: pull-style SpMV power iteration over one window of a
//!   temporal CSR, with uniform / provided / partial (Eq. 4)
//!   initialization;
//! - [`spmm`]: the SpMM-inspired batched kernel computing many windows of
//!   one multi-window graph simultaneously on interleaved rank vectors —
//!   and the crate's one lane-batched round loop, generic over a lane rule;
//! - [`scheduler`]: the TBB partitioner analogues (auto / simple / static,
//!   with a grain size) for window-level and row-level loops, plus
//!   [`overlap`] and [`worker_pool`] — the one module that starts threads,
//!   each inheriting the thread budget its caller installed;
//! - [`linear_system`]: exact dense solution of the paper's Eq. 2 (the
//!   validation oracle for every iterative kernel);
//! - [`personalized`]: windowed personalized PageRank (seed-relative
//!   importance);
//! - [`query`]: the (window × query) generalization of the SpMM batch —
//!   many personalized seeds / (alpha, beta) grid points / Katz sweeps
//!   sharing one traversal per iteration: query validation, lane layout
//!   and the affine lane rule, run by [`spmm`]'s loop;
//! - [`simd`]: the runtime-dispatched whole-stride row walk of that loop
//!   (the only module allowed `unsafe`);
//! - [`mod@reference`]: the slow, obvious implementation every kernel is
//!   tested against.
//!
//! Every window kernel decides membership through a
//! [`tempopr_graph::WindowIndex`], and has two entries. The `_indexed` one
//! reads views of an index the caller holds — the engine passes its part's
//! cached index — and takes an observation carrier in its `_obs` form (the
//! query batch, as an argument). The plain one takes time ranges:
//! [`pagerank_window`] filters each run by its timestamps, the batches
//! build an index over their own ranges for the call. The plain entries
//! are the reference the indexed ones are tested against, bit for bit.
//!
//! All kernels return `Result<_, `[`KernelError`]`>` and run under
//! per-iteration numeric-health guards (see [`GuardConfig`] /
//! [`NumericPolicy`]); deterministic faults can be injected via
//! [`PrConfig::fault`] for recovery testing.

// `deny`, not `forbid`: the one sanctioned exception is the runtime-
// dispatched SIMD module, which opts back in with a scoped allow (and CI
// greps that the keyword never appears anywhere else in the crate).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
mod katz;
pub mod linear_system;
pub mod observe;
pub mod pagerank;
pub mod personalized;
pub mod query;
pub mod reference;
pub mod scheduler;
pub mod simd;
pub mod spmm;

pub use error::{FaultKind, KernelError, NumericFault};
pub use linear_system::solve_pagerank_exact;
pub use observe::{BatchObs, KernelObserver, Obs};
pub use pagerank::{
    pagerank_csr, pagerank_csr_obs, pagerank_window, pagerank_window_indexed,
    pagerank_window_indexed_obs, pagerank_window_vec, GuardConfig, Init, NumericPolicy, PrConfig,
    PrHealth, PrStats, PrWorkspace, MAX_RENORMALIZATIONS, MAX_RESTARTS,
};
pub use personalized::{pagerank_window_personalized, PersonalizedStats};
pub use query::{
    pagerank_query_batch, pagerank_query_batch_indexed, QueryBatch, QueryBatchOutcome, QueryInit,
    QuerySpec, QueryWorkspace,
};
pub use reference::reference_pagerank;
pub use scheduler::{
    overlap, thread_pool, worker_pool, Balance, Partitioner, Scheduler, WorkQueue,
};
pub use simd::{SimdDispatch, SimdPolicy};
pub use spmm::{
    pagerank_batch, pagerank_batch_indexed, pagerank_batch_indexed_obs, SpmmWorkspace, MAX_LANES,
};
