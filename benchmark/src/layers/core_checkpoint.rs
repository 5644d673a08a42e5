//! `core::checkpoint`: what the manifest costs to write and to resume.

use crate::spans::Spans;
use std::hint::black_box;
use std::path::Path;
use tempopr::core::{CheckpointOptions, PostmortemEngine};

/// Total bytes of the files in a checkpoint directory (exact).
pub fn manifest_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Resumes from the finished manifest in `dir` (every window restored,
/// none recomputed); returns the seconds.
pub fn resume(spans: &Spans, engine: &PostmortemEngine, dir: &Path) -> Result<f64, String> {
    let opts = CheckpointOptions {
        dir: None,
        every: 1,
        resume: Some(dir.to_path_buf()),
    };
    let (out, secs) = spans.time("core.checkpoint.resume", || engine.run_durable(&opts));
    drop(black_box(out.map_err(|e| format!("resume: {e}"))?));
    Ok(secs)
}
