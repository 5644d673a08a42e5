//! `stream`: the streaming baseline.

use crate::layers::core_engine::EngineRun;
use crate::spans::Spans;
use std::hint::black_box;
use tempopr::graph::{EventLog, WindowSpec};
use tempopr::stream::{run_streaming, StreamingConfig};

/// `run_streaming` with its defaults at `threads`.
pub fn run(
    spans: &Spans,
    log: &EventLog,
    spec: WindowSpec,
    threads: usize,
) -> Result<EngineRun, String> {
    let cfg = StreamingConfig {
        threads,
        ..Default::default()
    };
    let (out, secs) = spans.time("stream.driver.run_streaming", || {
        run_streaming(log, spec, &cfg)
    });
    let out = out.map_err(|e| format!("streaming run: {e}"))?;
    let iterations = out.total_iterations() as u64;
    drop(black_box(out));
    Ok(EngineRun { secs, iterations })
}
