//! `graph::io`: reading the event file.

use crate::spans::Spans;
use std::path::Path;
use tempopr::graph::io::read_binary_file;
use tempopr::graph::EventLog;

/// Reads the event file; returns the log and the seconds it took.
pub fn ingest(spans: &Spans, path: &Path) -> Result<(EventLog, f64), String> {
    let (log, secs) = spans.time("graph.io.read_binary_file", || read_binary_file(path));
    Ok((log.map_err(|e| format!("reading events: {e}"))?, secs))
}
