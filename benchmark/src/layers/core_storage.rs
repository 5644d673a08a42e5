//! `core::storage`: fetching parts through the storage backend.

use crate::spans::Spans;
use tempopr::core::PostmortemEngine;

/// Fetches every part of a freshly built engine once, cold; returns the
/// summed seconds.
pub fn cold_fetch(spans: &Spans, engine: &PostmortemEngine) -> Result<f64, String> {
    let mut secs = 0.0;
    for p in 0..engine.num_parts() {
        let (part, s) = spans.time("core.storage.part", || {
            engine.part(p).map(|part| part.num_windows())
        });
        part.map_err(|e| format!("fetching part {p}: {e}"))?;
        secs += s;
    }
    Ok(secs)
}

/// Peak resident bytes of the engine's part storage so far.
pub fn peak_resident_bytes(engine: &PostmortemEngine) -> usize {
    engine.storage().peak_resident_bytes()
}
