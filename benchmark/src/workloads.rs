//! The four workloads: what is generated, at what size, and why.
//!
//! Sizes are fixed. They are never scaled to the host or to elapsed time;
//! only `--smoke` shortens a run, by capping the window count at a tenth.
//! Each is sized so that one postmortem pass lasts 15 to 25 ms on one
//! thread: on the shared host this benchmark has to be steady on, only a
//! pass that short is ever seen at the program's own speed, whatever the
//! neighbours do (README, "Sizes"). What a size keeps is the workload's
//! regime — which costs do the work — not the scale of a production run.
//! The paper's seven real datasets are not in the repository, so every
//! workload is a `datagen` preset; real-data workloads wait until those
//! files are checked in.

use tempopr::datagen::Dataset;

/// Which engine entry point a workload drives end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `PostmortemEngine::run` with the default configuration.
    Windows,
    /// `PostmortemEngine::run_durable`: on-disk parts under a memory
    /// budget, pipeline, a checkpoint per window.
    Durable,
    /// `PostmortemEngine::run_queries`: a (window × query) batch.
    Queries,
}

/// Counts a workload generates at seed 42, pinned so that a change to the
/// generator, the window model or the part planner cannot silently turn
/// the benchmark into a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Events in the generated log.
    pub events: usize,
    /// Size of the vertex universe.
    pub vertices: usize,
    /// Sliding windows covering the log.
    pub windows: usize,
    /// Multi-window parts the engine settles on.
    pub parts: usize,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name later issues refer to.
    pub name: &'static str,
    /// Why it exists (one line; `BENCHMARK.json` carries the same text).
    pub why: &'static str,
    /// Engine entry point.
    pub kind: Kind,
    /// The `datagen` preset.
    pub dataset: Dataset,
    /// Scale relative to the paper's dataset.
    pub scale: f64,
    /// Window length δ in days.
    pub delta_days: i64,
    /// Sliding offset in days.
    pub sw_days: i64,
    /// Whether the streaming driver is timed too (it grows superlinearly
    /// with window size, so only the small-window workload affords it).
    pub streaming: bool,
    /// Counts at seed 42.
    pub at_seed_42: Counts,
}

/// Seed-42 counts are checked only at this seed: window and part counts
/// follow the first and last generated timestamp.
pub const PINNED_SEED: u64 = 42;

/// Memory budget of `out-of-core-durable`. Resident parts at the planned
/// count need more than this, so the run really pages.
pub const DURABLE_BUDGET_BYTES: usize = 512 << 10;

/// Personalized seeds × alphas of `batch-query` (the grid of `tempopr
/// batch-query`, a quarter as many seeds).
pub const QUERY_SEEDS: usize = 4;
/// Teleport probabilities of the query grid.
pub const QUERY_ALPHAS: [f64; 4] = [0.10, 0.15, 0.20, 0.25];

/// Ranks may differ from the reference arm by this much in L∞ before a
/// window counts as failed. Each arm stops at an L1 residual of 1e-6,
/// which leaves it within (1 − α)/α · 1e-6 ≈ 5.7e-6 of the fixed point at
/// α = 0.15, so two correct arms can sit 1.13e-5 apart. Observed: up to
/// 1.3e-6 on `few-large-windows` (partial against uniform initialization),
/// 1.5e-7 elsewhere.
pub const RANK_TOLERANCE: f64 = 1.2e-5;

/// All workloads, in the order they run.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "many-small-windows",
        why: "64 windows of 5 to 45 events over 1 200 vertices: arithmetic is negligible, so per-window and per-iteration fixed costs (window setup, scheduling, convergence checks) do the work; streaming runs here",
        kind: Kind::Windows,
        dataset: Dataset::WikiTalk,
        scale: 0.0005,
        delta_days: 15,
        sw_days: 30,
        streaming: true,
        at_seed_42: Counts {
            events: 3_050,
            vertices: 1_200,
            windows: 64,
            parts: 2,
        },
    },
    Workload {
        name: "few-large-windows",
        why: "8 windows, each a quarter of a 53 k-event history (some 13 k events, 500 times a small window): time is edge traversal in the SpMM kernel, and the build is a measurable quarter of the run",
        kind: Kind::Windows,
        dataset: Dataset::HepTh,
        scale: 0.02,
        delta_days: 730,
        sw_days: 365,
        streaming: false,
        at_seed_42: Counts {
            events: 53_462,
            vertices: 458,
            windows: 8,
            parts: 1,
        },
    },
    Workload {
        name: "out-of-core-durable",
        why: "8 windows from on-disk parts under a 512 KiB budget, with the prefetch pipeline and a checkpoint per window: storage both ways, checkpoint and the SpMV kernel, end to end",
        kind: Kind::Durable,
        dataset: Dataset::StackOverflow,
        scale: 0.0005,
        delta_days: 90,
        sw_days: 360,
        streaming: false,
        at_seed_42: Counts {
            events: 23_951,
            vertices: 1_300,
            windows: 8,
            parts: 4,
        },
    },
    Workload {
        name: "batch-query",
        why: "16 personalized queries (4 seeds x 4 alphas) x 12 windows on the lane axis: a lane-layout change that helps windows and hurts queries shows here, and loop dispatch does no work",
        kind: Kind::Queries,
        dataset: Dataset::WikiTalk,
        scale: 0.0005,
        delta_days: 20,
        sw_days: 160,
        streaming: false,
        at_seed_42: Counts {
            events: 3_050,
            vertices: 1_200,
            windows: 12,
            parts: 1,
        },
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
