//! Figures 7, 9, 10: postmortem speedup over streaming, swept over
//! partitioner × granularity × parallelization level × SpMV/SpMM, on
//! wiki-talk with a fixed window count.

use crate::common::{time_postmortem, time_streaming, workload_with_count, Opts, GRANULARITIES};
use tempopr_core::{KernelKind, ParallelMode, PostmortemConfig};
use tempopr_datagen::{Dataset, DAY};
use tempopr_kernel::{Partitioner, Scheduler};

/// One of the three sweep figures.
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Figure number (7, 9, or 10).
    pub figure: u32,
    /// Sliding offset in seconds.
    pub sw: i64,
    /// Window size in seconds.
    pub delta: i64,
    /// Fixed window count.
    pub windows: usize,
    /// SpMM lanes ("SpMM load 16 Pagerank vectors").
    pub lanes: usize,
}

/// Fig. 7: sw = 43 200 s, δ = 90 d, 256 windows.
pub fn fig7() -> SweepParams {
    SweepParams {
        figure: 7,
        sw: DAY / 2,
        delta: 90 * DAY,
        windows: 256,
        lanes: 16,
    }
}

/// Fig. 9: sw = 43 200 s, δ = 10 d, 6 windows.
pub fn fig9() -> SweepParams {
    SweepParams {
        figure: 9,
        sw: DAY / 2,
        delta: 10 * DAY,
        windows: 6,
        lanes: 16,
    }
}

/// Fig. 10: sw = 86 400 s, δ = 90 d, 1 024 windows.
pub fn fig10() -> SweepParams {
    SweepParams {
        figure: 10,
        sw: DAY,
        delta: 90 * DAY,
        windows: 1024,
        lanes: 16,
    }
}

/// Runs the sweep and prints one row per configuration:
/// partitioner, level, kernel, granularity, time, speedup over streaming.
pub fn run(p: SweepParams, opts: &Opts) {
    let (log, spec) = workload_with_count(Dataset::WikiTalk, p.sw, p.delta, p.windows, opts);
    println!(
        "# Figure {}: wiki-talk sweep, sw={}, delta={}d, windows={} (scale = {}, simd = {:?}, compaction = {}, balance = {})",
        p.figure,
        p.sw,
        p.delta / DAY,
        spec.count,
        opts.scale,
        opts.simd,
        opts.compaction,
        if opts.edge_balance { "edge" } else { "vertex" }
    );
    let (_, t_str) = time_streaming(&log, spec, opts);
    println!("# streaming baseline: {:.3}s", t_str.as_secs_f64());
    println!(
        "{:<8} {:<18} {:<6} {:>12} {:>10} {:>9}",
        "part", "level", "kernel", "granularity", "time_s", "speedup"
    );
    let multiwindows = 0; // automatic (engine sizes parts per kernel)
    for partitioner in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
        for mode in [
            ParallelMode::Nested,
            ParallelMode::ApplicationLevel,
            ParallelMode::WindowLevel,
        ] {
            for kernel in [KernelKind::SpMM { lanes: p.lanes }, KernelKind::SpMV] {
                for &g in GRANULARITIES.iter() {
                    let cfg = PostmortemConfig {
                        mode,
                        kernel,
                        scheduler: Scheduler::new(partitioner, g),
                        num_multiwindows: multiwindows,
                        ..Default::default()
                    };
                    let (_, t) = time_postmortem(&log, spec, cfg, opts);
                    println!(
                        "{:<8} {:<18} {:<6} {:>12} {:>10.3} {:>8.1}x",
                        label_part(partitioner),
                        label_mode(mode),
                        kernel.name(),
                        g,
                        t.as_secs_f64(),
                        t_str.as_secs_f64() / t.as_secs_f64().max(1e-9)
                    );
                }
            }
        }
    }
}

pub(crate) fn label_part(p: Partitioner) -> &'static str {
    match p {
        Partitioner::Auto => "auto",
        Partitioner::Simple => "simple",
        Partitioner::Static => "static",
    }
}

pub(crate) fn label_mode(m: ParallelMode) -> &'static str {
    match m {
        ParallelMode::Sequential => "sequential",
        ParallelMode::WindowLevel => "window-level",
        ParallelMode::ApplicationLevel => "pr-level",
        ParallelMode::Nested => "nested",
    }
}
