//! `core::engine` (and `core::exec` under it): building an engine and
//! running every window, under whichever configuration the caller varies.

use crate::e2e::query_grid;
use crate::spans::Spans;
use crate::workloads::Kind;
use std::hint::black_box;
use std::path::Path;
use tempopr::core::{CheckpointOptions, PostmortemConfig, PostmortemEngine};
use tempopr::graph::{EventLog, WindowSpec};
use tempopr::telemetry::Telemetry;

/// Builds an engine recording into `tele`.
pub fn build(
    spans: &Spans,
    log: &EventLog,
    spec: WindowSpec,
    cfg: PostmortemConfig,
    tele: Telemetry,
) -> Result<PostmortemEngine, String> {
    let (engine, _) = spans.time("core.engine.new", || {
        PostmortemEngine::with_telemetry(log, spec, cfg, tele)
    });
    engine.map_err(|e| format!("engine build: {e}"))
}

/// One run of every window (or cell): seconds and total iterations.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun {
    /// Wall time of the run call.
    pub secs: f64,
    /// Power iterations over all windows or cells (exact).
    pub iterations: u64,
}

/// Runs `engine` the way the workload's kind does end to end: `run`,
/// `run_durable` into `checkpoint` when given, or `run_queries` over the
/// query grid.
pub fn run(
    spans: &Spans,
    engine: &PostmortemEngine,
    kind: Kind,
    checkpoint: Option<&Path>,
) -> Result<EngineRun, String> {
    match kind {
        Kind::Queries => {
            let queries = query_grid(engine.num_global_vertices());
            let (out, secs) =
                spans.time("core.engine.run_queries", || engine.run_queries(&queries));
            let out = out.map_err(|e| format!("query run: {e}"))?;
            let iterations = out.total_iterations() as u64;
            drop(black_box(out));
            Ok(EngineRun { secs, iterations })
        }
        _ => {
            let (out, secs) = match checkpoint {
                Some(dir) => {
                    let opts = CheckpointOptions {
                        dir: Some(dir.to_path_buf()),
                        every: 1,
                        resume: None,
                    };
                    let (out, secs) =
                        spans.time("core.engine.run_durable", || engine.run_durable(&opts));
                    (out.map_err(|e| format!("durable run: {e}"))?, secs)
                }
                None => spans.time("core.engine.run", || engine.run()),
            };
            if out.degraded {
                return Err(format!("replayed run degraded: {}", out.status_summary()));
            }
            let iterations = out.total_iterations() as u64;
            drop(black_box(out));
            Ok(EngineRun { secs, iterations })
        }
    }
}
