//! `graph::windowindex`: the per-window activity/degree index.

use crate::spans::Spans;
use tempopr::graph::MultiWindowSet;

/// Forces the lazy index of every part of a freshly built set; returns
/// the summed seconds and the summed index bytes.
pub fn build_all(spans: &Spans, set: &MultiWindowSet) -> (f64, usize) {
    let mut secs = 0.0;
    let mut bytes = 0;
    for part in set.graphs() {
        debug_assert!(part.window_index_built().is_none());
        let (index, s) = spans.time("graph.windowindex.build", || part.window_index());
        secs += s;
        bytes += index.memory_bytes();
    }
    (secs, bytes)
}
