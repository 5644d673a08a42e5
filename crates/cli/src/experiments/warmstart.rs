//! Warm-start overlap sweep: iteration counts under full / partial / warm
//! initialization as the window overlap ratio grows.
//!
//! Overlap is set through the slide: `sw = delta * (1 - overlap)`, so at
//! 0% consecutive windows are disjoint (warm must fall back to full
//! seeding) and at 95% almost the whole window carries over. The sweep is
//! the committed-numbers source for the EXPERIMENTS.md warm-start table.

use crate::common::{time_postmortem_traced, workload, Opts};
use tempopr_core::{InitMode, KernelKind, ParallelMode, PostmortemConfig};
use tempopr_datagen::{Dataset, DAY};
use tempopr_telemetry::Telemetry;

/// The overlap ratios the sweep visits (fraction of each window shared
/// with its predecessor).
pub const OVERLAPS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.95];

fn median(mut xs: Vec<usize>) -> usize {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs the sweep on wiki-talk for SpMV and a batched SpMM, printing per
/// (overlap, mode): window count, total and median iterations, the number
/// of boundary windows warm-start seeded or declared degenerate, and wall
/// time. `--init-mode` narrows the sweep to one mode.
pub fn run(opts: &Opts) {
    println!("# Warm-start overlap sweep (scale = {})", opts.scale);
    println!(
        "{:<10} {:>8} {:>9} {:>8} {:<8} {:>11} {:>12} {:>7} {:>11} {:>9}",
        "kernel",
        "overlap",
        "sw_days",
        "windows",
        "mode",
        "iters_total",
        "iters_median",
        "seeded",
        "degenerate",
        "time_s"
    );
    let modes: Vec<InitMode> = match opts.init_mode {
        Some(m) => vec![m],
        None => vec![InitMode::Full, InitMode::Partial, InitMode::Warm],
    };
    let delta = 20 * DAY;
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 8 }] {
        for overlap in OVERLAPS {
            let sw = ((delta as f64) * (1.0 - overlap)).round().max(1.0) as i64;
            let (log, spec) = workload(Dataset::WikiTalk, sw, delta, opts);
            for &init_mode in &modes {
                let tele = Telemetry::enabled();
                // A user-supplied `--init-mode` already narrowed `modes`
                // to that one value, so the override in
                // `time_postmortem_traced` can only re-apply what the
                // sweep chose here.
                let cfg = PostmortemConfig {
                    kernel,
                    mode: ParallelMode::ApplicationLevel,
                    init_mode,
                    ..Default::default()
                };
                let (out, t) = time_postmortem_traced(&log, spec, cfg, opts, tele.clone());
                let report = tele.report();
                // `--init-mode auto` is labelled with the mode it resolved
                // to, read back from the engine's `init.mode` gauge.
                let ran = [InitMode::Full, InitMode::Partial, InitMode::Warm]
                    .into_iter()
                    .find(|&m| report.gauge("init.mode") == Some(f64::from(m as u8)))
                    .unwrap_or(init_mode);
                println!(
                    "{:<10} {:>7.0}% {:>9.2} {:>8} {:<8} {:>11} {:>12} {:>7} {:>11} {:>9.3}",
                    match kernel {
                        KernelKind::SpMM { lanes } => format!("spmm{lanes}"),
                        other => other.name().to_string(),
                    },
                    overlap * 100.0,
                    sw as f64 / DAY as f64,
                    spec.count,
                    ran.name(),
                    out.total_iterations(),
                    median(out.windows.iter().map(|w| w.stats.iterations).collect()),
                    report.counter("warmstart.seeded_windows"),
                    report.counter("warmstart.degenerate_windows"),
                    t.as_secs_f64(),
                );
            }
        }
    }
}
