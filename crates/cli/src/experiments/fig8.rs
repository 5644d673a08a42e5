//! Figure 8: impact of the number of multi-window graphs.

use crate::common::{time_postmortem, time_streaming, workload_with_count, Opts, GRANULARITIES};
use crate::experiments::sweep::label_mode;
use tempopr_core::{KernelKind, ParallelMode, PostmortemConfig};
use tempopr_datagen::{Dataset, DAY};
use tempopr_kernel::{Partitioner, Scheduler};

/// wiki-talk, auto partitioner, sweeping the multi-window count over
/// {6, 32, 256, 512, 1024} for the three parallelization levels. Uses the
/// SpMV kernel: more parts shrink each SpMV's traversal (the effect the
/// paper's Fig. 8 shows saturating once parts are "large enough"), whereas
/// under SpMM more parts *starve the lanes*.
pub fn run(opts: &Opts) {
    let (log, spec) = workload_with_count(Dataset::WikiTalk, DAY / 2, 90 * DAY, 256, opts);
    println!(
        "# Figure 8: multi-window count sweep, wiki-talk, windows={} (scale = {})",
        spec.count, opts.scale
    );
    let (_, t_str) = time_streaming(&log, spec, opts);
    println!("# streaming baseline: {:.3}s", t_str.as_secs_f64());
    println!(
        "{:<18} {:>13} {:>12} {:>10} {:>9}",
        "level", "multiwindows", "granularity", "time_s", "speedup"
    );
    for mode in [
        ParallelMode::ApplicationLevel,
        ParallelMode::WindowLevel,
        ParallelMode::Nested,
    ] {
        for &mw in &[6usize, 32, 256, 512, 1024] {
            for &g in GRANULARITIES.iter().step_by(3) {
                let cfg = PostmortemConfig {
                    mode,
                    kernel: KernelKind::SpMV,
                    scheduler: Scheduler::new(Partitioner::Auto, g),
                    num_multiwindows: mw,
                    ..Default::default()
                };
                let (_, t) = time_postmortem(&log, spec, cfg, opts);
                println!(
                    "{:<18} {:>13} {:>12} {:>10.3} {:>8.1}x",
                    label_mode(mode),
                    mw,
                    g,
                    t.as_secs_f64(),
                    t_str.as_secs_f64() / t.as_secs_f64().max(1e-9)
                );
            }
        }
    }
}
