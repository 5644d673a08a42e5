//! `core::offline`: the rebuild-per-window baseline.

use crate::layers::core_engine::EngineRun;
use crate::spans::Spans;
use std::hint::black_box;
use tempopr::core::{run_offline, OfflineConfig};
use tempopr::graph::{EventLog, WindowSpec};

/// `run_offline` with its defaults at `threads`.
pub fn run(
    spans: &Spans,
    log: &EventLog,
    spec: WindowSpec,
    threads: usize,
) -> Result<EngineRun, String> {
    let cfg = OfflineConfig {
        threads,
        ..Default::default()
    };
    let (out, secs) = spans.time("core.offline.run_offline", || run_offline(log, spec, &cfg));
    let out = out.map_err(|e| format!("offline run: {e}"))?;
    let iterations = out.total_iterations() as u64;
    drop(black_box(out));
    Ok(EngineRun { secs, iterations })
}
