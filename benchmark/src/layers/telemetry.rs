//! `telemetry`: the sink of the traced pass and what it counted.

use tempopr::core::PostmortemEngine;
use tempopr::telemetry::Telemetry;

/// The sink the traced postmortem pass records into.
pub fn enabled() -> Telemetry {
    Telemetry::enabled()
}

/// The sink of every other pass.
pub fn noop() -> Telemetry {
    Telemetry::noop()
}

/// The run's `storage.*` counters: `(decodes, evictions, cache_hits)`.
pub fn storage_counters(engine: &PostmortemEngine) -> (u64, u64, u64) {
    let report = engine.telemetry().report();
    (
        report.counter("storage.decodes"),
        report.counter("storage.shards_evicted"),
        report.counter("storage.cache_hits"),
    )
}
