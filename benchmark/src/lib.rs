//! # tempopr-benchmark
//!
//! The repo's benchmark: four workloads, end-to-end numbers from the
//! fastest of many short untraced passes in child processes, per-layer
//! numbers from a separate traced run.
//! `README.md` beside this crate defines every workload and metric;
//! `BENCHMARK.json` at the repo root is the contract a driver runs it by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod cli;
pub mod e2e;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// The benchmark's own directory (`benchmark/` in the checkout it was
/// built in).
fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    let dir = benchmark_dir();
    dir.parent().map(PathBuf::from).unwrap_or(dir)
}

/// Where runs keep their event files, spill files, checkpoints and
/// `trace.json`: `benchmark/work/`, ignored by git. Everything the
/// benchmark writes goes here (or where `--out` / `--trace-out` say).
pub fn work_root() -> PathBuf {
    benchmark_dir().join("work")
}
