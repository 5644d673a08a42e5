//! # tempopr-stream
//!
//! The *streaming* execution-model baseline of the paper (§3.3.2): a
//! STINGER-like in-memory streaming graph ([`store::StreamingGraph`] —
//! per-vertex chains of fixed-size edge blocks with O(1) amortized
//! insert/delete), incremental warm-restart PageRank (after Riedy 2016),
//! and a sliding-window [`driver::run_streaming`] that replays the window
//! sequence as insert/delete batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod driver;
pub mod pagerank;
pub mod store;

pub use driver::{
    run_streaming, run_streaming_durable, run_streaming_traced, IncrementalMode, StreamingConfig,
};
pub use pagerank::{streaming_pagerank, streaming_pagerank_obs};
pub use store::{StreamingGraph, BLOCK_SIZE};
