//! One adapter file per module: each calls the public entry point of its
//! module that the engine's default path uses, inside spans, and returns
//! raw measurements. A later benchmark issue re-points a layer by editing
//! its one file; `trace.rs` turns the measurements into metrics.

pub mod core_checkpoint;
pub mod core_engine;
pub mod core_offline;
pub mod core_storage;
pub mod graph_io;
pub mod graph_multiwindow;
pub mod graph_storage;
pub mod graph_tcsr;
pub mod graph_windowindex;
pub mod kernel_pagerank;
pub mod kernel_query;
pub mod kernel_scheduler;
pub mod kernel_spmm;
pub mod stream_driver;
pub mod telemetry;
