//! Shared setup for the criterion benches: the microbenches and ablations
//! no other harness measures. Each table and figure of the paper is
//! reproduced by the CLI (`tempopr <figN>`, `tempopr all`), and end-to-end
//! and per-layer timings come from the repo's benchmark (`BENCHMARK.json`).
//! Workloads are generated at a small scale so the suite runs in minutes.

use tempopr_core::{PostmortemConfig, PostmortemEngine, RetainMode, RunOutput};
use tempopr_datagen::Dataset;
use tempopr_graph::{EventLog, WindowSpec};

/// Scale used by all bench workloads.
pub const BENCH_SCALE: f64 = 0.001;

/// Seed used by all bench workloads.
pub const BENCH_SEED: u64 = 42;

/// Generates a bench workload: dataset at [`BENCH_SCALE`] with a window
/// spec of `windows` windows covering the span (width = 4 sliding
/// offsets' worth of overlap).
pub fn bench_workload(dataset: Dataset, windows: usize) -> (EventLog, WindowSpec) {
    let log = dataset.spec().generate(BENCH_SCALE, BENCH_SEED);
    let span = log.last_time() - log.first_time();
    let sw = (span / windows as i64).max(1);
    let delta = (sw * 4).max(2);
    let natural = WindowSpec::covering(&log, delta, sw).expect("spec");
    let spec = WindowSpec::new(natural.t0, delta, sw, windows.min(natural.count)).expect("spec");
    (log, spec)
}

/// Runs the postmortem engine with summary retention.
pub fn postmortem(log: &EventLog, spec: WindowSpec, mut cfg: PostmortemConfig) -> RunOutput {
    cfg.retain = RetainMode::Summary;
    PostmortemEngine::new(log, spec, cfg).expect("engine").run()
}
