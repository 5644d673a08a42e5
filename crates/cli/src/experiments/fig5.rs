//! Figure 5: performance of Offline, Streaming, and Postmortem PageRank.
//!
//! Postmortem runs the paper's "bare-bone" configuration: partial
//! initialization, 6 multi-window graphs, application-level parallelism,
//! static scheduler — deliberately untuned. The `default_s` column runs
//! the library's `PostmortemConfig::default()` on the same windows.

use crate::common::{
    secs, time_offline, time_postmortem, time_postmortem_traced, time_streaming, workload,
    write_metrics, Opts,
};
use tempopr_core::PostmortemConfig;
use tempopr_datagen::{Dataset, DAY};
use tempopr_telemetry::Telemetry;

/// The paper's four panels: (dataset, sw, window sizes).
fn panels() -> Vec<(Dataset, i64, Vec<i64>)> {
    vec![
        (Dataset::Enron, 2 * DAY, vec![730 * DAY, 1460 * DAY]),
        (Dataset::Youtube, DAY, vec![60 * DAY, 90 * DAY]),
        (Dataset::Epinions, DAY, vec![60 * DAY, 90 * DAY]),
        (
            Dataset::WikiTalk,
            3 * DAY,
            vec![10 * DAY, 15 * DAY, 90 * DAY, 180 * DAY],
        ),
    ]
}

/// Runs all three models on the four panels and prints their wall times.
pub fn run(opts: &Opts) {
    println!(
        "# Figure 5: Offline vs Streaming vs Postmortem (scale = {})",
        opts.scale
    );
    println!(
        "{:<24} {:>8} {:>12} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "dataset",
        "sw_days",
        "delta_days",
        "windows",
        "offline_s",
        "streaming_s",
        "postmortem_s",
        "pm_vs_str",
        "pm_vs_off",
        "default_s"
    );
    // One sink accumulates across every panel's postmortem run; enabling
    // it is opt-in via --metrics-out (observation is bit-identical but
    // costs trace memory).
    let tele = if opts.metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::noop()
    };
    for (dataset, sw, deltas) in panels() {
        for delta in deltas {
            let (log, spec) = workload(dataset, sw, delta, opts);
            let (_, t_off) = time_offline(&log, spec, opts);
            let (_, t_str) = time_streaming(&log, spec, opts);
            let (_, t_pm) = time_postmortem_traced(
                &log,
                spec,
                PostmortemConfig::bare_bone(),
                opts,
                tele.clone(),
            );
            let (_, t_def) = time_postmortem(&log, spec, PostmortemConfig::default(), opts);
            println!(
                "{:<24} {:>8} {:>12} {:>8} {:>12} {:>12} {:>12} {:>9.1}x {:>9.1}x {:>10}",
                dataset.name(),
                sw / DAY,
                delta / DAY,
                spec.count,
                secs(t_off),
                secs(t_str),
                secs(t_pm),
                t_str.as_secs_f64() / t_pm.as_secs_f64().max(1e-9),
                t_off.as_secs_f64() / t_pm.as_secs_f64().max(1e-9),
                secs(t_def),
            );
        }
    }
    if let Some(path) = &opts.metrics_out {
        println!("\n## Postmortem phase breakdown (all panels)");
        println!("{}", tele.report().summary_table());
        write_metrics(path, &tele);
    }
}
