//! `graph::multiwindow`: partitioning into multi-window parts.

use crate::spans::Spans;
use tempopr::graph::{EventLog, MultiWindowSet, PartitionStrategy, WindowSpec};

/// Builds the resident parts at the engine's part count; returns the set
/// and the seconds it took.
pub fn build(
    spans: &Spans,
    log: &EventLog,
    spec: WindowSpec,
    parts: usize,
) -> Result<(MultiWindowSet, f64), String> {
    let (set, secs) = spans.time("graph.multiwindow.build", || {
        MultiWindowSet::build(log, spec, parts, true, PartitionStrategy::EqualWindows)
    });
    Ok((set.map_err(|e| format!("multi-window build: {e}"))?, secs))
}
