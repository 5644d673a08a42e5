//! `graph::tcsr`: the temporal CSR over the whole log.

use crate::spans::Spans;
use std::hint::black_box;
use tempopr::graph::{EventLog, TemporalCsr};

/// Builds the symmetric temporal CSR of `log`; returns the seconds.
pub fn from_log(spans: &Spans, log: &EventLog) -> f64 {
    let (tcsr, secs) = spans.time("graph.tcsr.from_log", || TemporalCsr::from_log(log, true));
    drop(black_box(tcsr));
    secs
}
