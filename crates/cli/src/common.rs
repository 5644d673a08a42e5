//! Shared plumbing for the experiment harness: workload construction,
//! model runners, and timing.

use std::time::{Duration, Instant};
use tempopr_core::{
    run_offline, InitMode, OfflineConfig, PostmortemConfig, PostmortemEngine, RetainMode, RunOutput,
};
use tempopr_datagen::Dataset;
use tempopr_graph::{EventLog, WindowSpec};
use tempopr_kernel::{Balance, PrConfig, SimdPolicy};
use tempopr_stream::{run_streaming, StreamingConfig};
use tempopr_telemetry::Telemetry;

/// Prints a one-line diagnostic to stderr and exits nonzero — the
/// harness's uniform failure path (it never panics on bad input or a
/// failed run).
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Warns on stderr when a run completed degraded (some windows failed).
pub fn warn_if_degraded(what: &str, out: &RunOutput) {
    if out.degraded {
        eprintln!("warning: {what} run degraded: {}", out.status_summary());
    }
}

/// Experiment-wide options from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Dataset scale factor relative to the paper's full sizes.
    pub scale: f64,
    /// RNG seed for dataset synthesis.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Cap on the number of windows per configuration (0 = uncapped);
    /// keeps the big sweeps affordable at small scales.
    pub max_windows: usize,
    /// Write run telemetry (`tempopr.metrics.v1` JSON) to this path;
    /// experiments that support it also print a phase-breakdown summary.
    pub metrics_out: Option<String>,
    /// Prefetch the next part (its decode or page-in, then its window
    /// index) under the whole of the current part's compute in the
    /// postmortem runs' walks over parts.
    pub pipeline: bool,
    /// SpMM inner-loop implementation (`--simd auto|scalar|bitwalk`);
    /// ablation axis for the vectorized hot path.
    pub simd: SimdPolicy,
    /// Disable converged-lane compaction (`--no-compaction`); ablation
    /// axis.
    pub compaction: bool,
    /// Edge-balanced parallel chunks (`--edge-balance`); applied to every
    /// scheduler an experiment constructs.
    pub edge_balance: bool,
    /// Override the window-seeding mode of every postmortem run
    /// (`--init-mode full|partial|auto`); `None` keeps each
    /// experiment's own choice.
    pub init_mode: Option<InitMode>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 0.01,
            seed: 42,
            threads: 0,
            max_windows: 0,
            metrics_out: None,
            pipeline: false,
            simd: SimdPolicy::Auto,
            compaction: true,
            edge_balance: false,
            init_mode: None,
        }
    }
}

/// PageRank parameters shared by every experiment (the defaults of the
/// library; tolerance loose enough that iteration counts resemble
/// practice).
pub fn pr_config() -> PrConfig {
    PrConfig::default()
}

/// Generates a dataset and the window spec for `(sw, delta)`, optionally
/// capping the window count.
pub fn workload(dataset: Dataset, sw: i64, delta: i64, opts: &Opts) -> (EventLog, WindowSpec) {
    let log = dataset.spec().generate(opts.scale, opts.seed);
    let mut spec =
        WindowSpec::covering(&log, delta, sw).unwrap_or_else(|e| fail(format!("window spec: {e}")));
    if opts.max_windows > 0 && spec.count > opts.max_windows {
        spec.count = opts.max_windows;
    }
    (log, spec)
}

/// Builds a window spec with an explicit target window count (Figs. 7-10
/// fix the count: 256, 6, 1024), within [`workload`]'s capped spec.
pub fn workload_with_count(
    dataset: Dataset,
    sw: i64,
    delta: i64,
    count: usize,
    opts: &Opts,
) -> (EventLog, WindowSpec) {
    let (log, capped) = workload(dataset, sw, delta, opts);
    let spec = WindowSpec::new(capped.t0, delta, sw, count.min(capped.count))
        .unwrap_or_else(|e| fail(format!("window spec: {e}")));
    (log, spec)
}

/// Times one closure invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs the streaming model (summary retention) and reports wall time.
pub fn time_streaming(log: &EventLog, spec: WindowSpec, opts: &Opts) -> (RunOutput, Duration) {
    let cfg = StreamingConfig {
        pr: pr_config(),
        retain: RetainMode::Summary,
        threads: opts.threads,
        ..Default::default()
    };
    let (out, d) = time(|| {
        run_streaming(log, spec, &cfg).unwrap_or_else(|e| fail(format!("streaming run: {e}")))
    });
    warn_if_degraded("streaming", &out);
    (out, d)
}

/// Runs the offline model (summary retention) and reports wall time.
pub fn time_offline(log: &EventLog, spec: WindowSpec, opts: &Opts) -> (RunOutput, Duration) {
    let cfg = OfflineConfig {
        pr: pr_config(),
        retain: RetainMode::Summary,
        threads: opts.threads,
        ..Default::default()
    };
    let (out, d) =
        time(|| run_offline(log, spec, &cfg).unwrap_or_else(|e| fail(format!("offline run: {e}"))));
    warn_if_degraded("offline", &out);
    (out, d)
}

/// Runs the postmortem model with `cfg` (forced to summary retention and
/// the harness thread count) and reports wall time *including* the one-time
/// representation build — the honest end-to-end comparison.
pub fn time_postmortem(
    log: &EventLog,
    spec: WindowSpec,
    cfg: PostmortemConfig,
    opts: &Opts,
) -> (RunOutput, Duration) {
    time_postmortem_traced(log, spec, cfg, opts, Telemetry::noop())
}

/// [`time_postmortem`] recording phase times, counters, and the
/// convergence trace into `tele`.
pub fn time_postmortem_traced(
    log: &EventLog,
    spec: WindowSpec,
    mut cfg: PostmortemConfig,
    opts: &Opts,
    tele: Telemetry,
) -> (RunOutput, Duration) {
    cfg.retain = RetainMode::Summary;
    cfg.threads = opts.threads;
    cfg.pr = pr_config();
    cfg.pipeline = cfg.pipeline || opts.pipeline;
    // Ablation axes land after the pr_config() reset so they survive it.
    cfg.pr.simd = opts.simd;
    cfg.pr.compaction = opts.compaction;
    if opts.edge_balance {
        cfg.scheduler = cfg.scheduler.with_balance(Balance::Edge);
    }
    if let Some(init_mode) = opts.init_mode {
        cfg.init_mode = init_mode;
    }
    let (out, d) = time(|| {
        let engine = PostmortemEngine::with_telemetry(log, spec, cfg, tele)
            .unwrap_or_else(|e| fail(format!("engine build: {e}")));
        engine.run()
    });
    warn_if_degraded("postmortem", &out);
    (out, d)
}

/// Writes a metrics report to `path` (uniform failure path on error).
pub fn write_metrics(path: &str, tele: &Telemetry) {
    let json = tele.report().to_json();
    std::fs::write(path, json).unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
    eprintln!("metrics written to {path}");
}

/// Formats a `Duration` in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The granularity axis of Figs. 7-10.
pub const GRANULARITIES: [usize; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Parses a dataset name (paper spelling or shorthand).
pub fn parse_dataset(s: &str) -> Option<Dataset> {
    let t = s.to_ascii_lowercase();
    Some(match t.as_str() {
        "enron" | "ia-enron-email" => Dataset::Enron,
        "epinions" | "epinions-user-ratings" => Dataset::Epinions,
        "hepth" | "ca-cit-hepth" => Dataset::HepTh,
        "youtube" | "youtube-growth" => Dataset::Youtube,
        "wikitalk" | "wiki-talk" => Dataset::WikiTalk,
        "stackoverflow" => Dataset::StackOverflow,
        "askubuntu" => Dataset::AskUbuntu,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep;

    #[test]
    fn max_windows_caps_a_fixed_count_sweep() {
        let p = sweep::fig10();
        let opts = Opts {
            scale: 0.001,
            max_windows: 8,
            ..Opts::default()
        };
        let (_, spec) = workload_with_count(Dataset::WikiTalk, p.sw, p.delta, p.windows, &opts);
        assert_eq!(spec.count, 8);
    }
}
