//! The end-to-end passes: event file on disk → ranks of every window.
//!
//! This file names only engine-level API — `graph::io::read_binary_file`,
//! `WindowSpec::covering`, `PostmortemEngine::{new, run, run_durable,
//! run_queries}`, `run_offline`, `run_streaming` — and, per workload, the
//! configuration fields the workload is defined by; everything else is
//! `..Default::default()`, so pruning the configuration cannot break it.
//! No telemetry sink, no spans: these are the untraced runs every
//! end-to-end number comes from.
//!
//! A pass is one whole run, file to ranks. An arm is what one child
//! process does: a first pass on a cold heap, then timed passes of the same
//! thing until its share of the measuring time is used up (`run_arm`).

use crate::workloads::{Kind, Workload, DURABLE_BUDGET_BYTES, QUERY_ALPHAS, QUERY_SEEDS};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tempopr::core::{
    run_offline, CheckpointOptions, EngineQuery, InitMode, KernelKind, OfflineConfig, ParallelMode,
    PostmortemConfig, PostmortemEngine, QueryRunOutput, RunOutput, SparseRanks, StorageBackend,
    WindowStatus,
};
use tempopr::datagen::DAY;
use tempopr::graph::io::read_binary_file;
use tempopr::graph::{EventLog, WindowSpec};
use tempopr::kernel::MAX_LANES;
use tempopr::stream::{run_streaming, StreamingConfig};

/// Which side of the comparison a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The postmortem engine — the system under test.
    Postmortem,
    /// The baseline: `run_offline` on the window workloads, the same
    /// engine looping single-query `run_queries` on `batch-query`.
    Baseline,
    /// `run_streaming` (small-window workload only).
    Streaming,
}

impl Arm {
    /// Name used in child arguments, file names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Postmortem => "postmortem",
            Arm::Baseline => "baseline",
            Arm::Streaming => "streaming",
        }
    }

    /// Parses [`Arm::name`].
    pub fn parse(s: &str) -> Option<Arm> {
        [Arm::Postmortem, Arm::Baseline, Arm::Streaming]
            .into_iter()
            .find(|a| a.name() == s)
    }
}

/// What a pass reads and where it may write.
#[derive(Debug, Clone)]
pub struct PassInput {
    /// The event file (`write_binary_file` format).
    pub events: PathBuf,
    /// Worker threads for every arm.
    pub threads: usize,
    /// `--smoke`: cap on the window count.
    pub window_cap: Option<usize>,
    /// A directory for spill and checkpoint files; every pass works in a
    /// fresh subdirectory of it.
    pub scratch: PathBuf,
}

/// One (window, query) cell of a pass — the unit `failed_share` counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Global window index.
    pub window: u32,
    /// Query index (0 on the window workloads).
    pub query: u32,
    /// Status `Ok` (window workloads) / produced at all (queries).
    pub ok: bool,
    /// Reached the tolerance within the iteration cap.
    pub converged: bool,
    /// Power iterations spent.
    pub iterations: u32,
    /// Bits of the rank fingerprint.
    pub fingerprint: u64,
    /// Full sparse ranks (window workloads; empty on `batch-query`, which
    /// is checked bitwise through the fingerprint).
    pub ranks: SparseRanks,
}

/// What one pass measured and produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Wall time from just before `read_binary_file` to after the last
    /// window's ranks are folded into the checksum.
    pub e2e_s: f64,
    /// The part of `e2e_s` before the run call.
    pub setup_s: f64,
    /// Windows in the spec.
    pub windows: usize,
    /// Multi-window parts (0 for the offline and streaming drivers).
    pub parts: usize,
    /// `storage().peak_resident_bytes()` on the durable workload, else 0.
    pub peak_resident_bytes: usize,
    /// Cells that a resume from this pass's finished manifest failed to
    /// restore bit-identically (durable workload, and only when asked to
    /// verify).
    pub resume_mismatches: usize,
    /// Every cell, sorted by `(window, query)`.
    pub cells: Vec<Cell>,
}

/// What one arm measured: the cold first pass, then the timed passes.
#[derive(Debug, Clone, Default)]
pub struct ArmOutput {
    /// `e2e_s` of the first pass, on the child's cold heap — what a
    /// user's one CLI run pays. Printed, never a sample.
    pub cold_e2e_s: f64,
    /// `e2e_s` of every timed pass.
    pub e2e_s: Vec<f64>,
    /// `setup_s` of every timed pass.
    pub setup_s: Vec<f64>,
    /// `VmHWM` in KiB when the first pass ended: the peak of one whole
    /// run, before repetition can fragment the heap.
    pub peak_rss_kib: u64,
    /// Windows in the spec.
    pub windows: usize,
    /// Multi-window parts (0 for the offline and streaming drivers).
    pub parts: usize,
    /// Largest `peak_resident_bytes` of any pass.
    pub peak_resident_bytes: usize,
    /// `resume_mismatches` of the first pass.
    pub resume_mismatches: usize,
    /// Cells of timed passes that differ from the first pass's.
    pub repeat_mismatches: usize,
    /// The first pass's cells, sorted by `(window, query)`.
    pub cells: Vec<Cell>,
}

/// The postmortem configuration a workload is defined by.
pub fn postmortem_config(w: &Workload, threads: usize, scratch: &Path) -> PostmortemConfig {
    match w.kind {
        Kind::Windows => PostmortemConfig {
            threads,
            ..Default::default()
        },
        Kind::Durable => PostmortemConfig {
            mode: ParallelMode::ApplicationLevel,
            kernel: KernelKind::SpMV,
            storage: StorageBackend::OnDisk {
                dir: scratch.join("spill"),
            },
            memory_budget: Some(DURABLE_BUDGET_BYTES),
            storage_workers: 1,
            pipeline: true,
            threads,
            ..Default::default()
        },
        Kind::Queries => PostmortemConfig {
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMM { lanes: MAX_LANES },
            init_mode: InitMode::Full,
            ..Default::default()
        },
    }
}

/// The query grid of `batch-query`: seeds `(s*13+2) % n` × four alphas.
pub fn query_grid(num_vertices: usize) -> Vec<EngineQuery> {
    let mut queries = Vec::with_capacity(QUERY_SEEDS * QUERY_ALPHAS.len());
    for s in 0..QUERY_SEEDS {
        let seed = ((s * 13 + 2) % num_vertices.max(1)) as u32;
        for alpha in QUERY_ALPHAS {
            queries.push(EngineQuery::seeded(seed, num_vertices, alpha));
        }
    }
    queries
}

/// The workload's windows over `log`; `--smoke` caps their count.
pub fn window_spec(
    w: &Workload,
    log: &EventLog,
    window_cap: Option<usize>,
) -> Result<WindowSpec, String> {
    let mut spec = WindowSpec::covering(log, w.delta_days * DAY, w.sw_days * DAY)
        .map_err(|e| format!("window spec: {e}"))?;
    if let Some(cap) = window_cap {
        spec.count = spec.count.min(cap.max(1));
    }
    Ok(spec)
}

/// Ingest + window spec: the part of setup every arm shares.
fn ingest(w: &Workload, input: &PassInput) -> Result<(EventLog, WindowSpec), String> {
    let log = read_binary_file(&input.events).map_err(|e| format!("reading events: {e}"))?;
    let spec = window_spec(w, &log, input.window_cap)?;
    Ok((log, spec))
}

/// Ingest + spec + `PostmortemEngine::new` — what `setup_s` times.
fn setup_postmortem(
    w: &Workload,
    input: &PassInput,
) -> Result<(EventLog, PostmortemEngine), String> {
    let (log, spec) = ingest(w, input)?;
    let cfg = postmortem_config(w, input.threads, &input.scratch);
    let engine =
        PostmortemEngine::new(&log, spec, cfg).map_err(|e| format!("engine build: {e}"))?;
    Ok((log, engine))
}

fn window_cells(out: RunOutput) -> Vec<Cell> {
    out.windows
        .into_iter()
        .map(|o| Cell {
            window: o.window as u32,
            query: 0,
            ok: o.status == WindowStatus::Ok,
            converged: o.stats.converged,
            iterations: o.stats.iterations as u32,
            fingerprint: o.fingerprint.to_bits(),
            ranks: o.ranks.unwrap_or_default(),
        })
        .collect()
}

fn query_cells(out: QueryRunOutput, query_offset: usize, into: &mut Vec<Cell>) {
    into.extend(out.outputs.into_iter().map(|o| Cell {
        window: o.window as u32,
        query: (o.query + query_offset) as u32,
        ok: true,
        converged: o.stats.converged,
        iterations: o.stats.iterations as u32,
        fingerprint: o.fingerprint.to_bits(),
        ranks: SparseRanks::default(),
    }));
}

/// Folds every rank into one number the optimizer cannot drop (part of
/// the timed section: a user's run ends when the ranks have been read, not
/// when they exist).
fn fold_ranks<'a>(ranks: impl Iterator<Item = &'a Option<SparseRanks>>) {
    let sum: f64 = ranks.flatten().flat_map(|r| r.values.iter()).sum();
    black_box(sum);
}

fn fold_runs(out: &RunOutput) {
    fold_ranks(out.windows.iter().map(|w| &w.ranks));
}

fn fold_queries(out: &QueryRunOutput) {
    fold_ranks(out.outputs.iter().map(|o| &o.ranks));
}

/// Runs one pass of `arm` in `input.scratch` and returns its timings and
/// cells. `verify` adds the untimed checks only the first pass of an arm
/// makes.
pub fn run_pass(
    w: &Workload,
    arm: Arm,
    input: &PassInput,
    verify: bool,
) -> Result<PassOutput, String> {
    match (arm, w.kind) {
        (Arm::Postmortem, _) => postmortem_pass(w, input, verify),
        (Arm::Baseline, Kind::Queries) => looped_query_pass(w, input),
        (Arm::Baseline, _) => offline_pass(w, input),
        (Arm::Streaming, _) => streaming_pass(w, input),
    }
}

/// Runs one arm: a first pass on the cold heap (its cells, peak memory and
/// untimed checks are the arm's), then timed passes until `seconds` have
/// gone by — at least one, which is all `--smoke` asks for. Every cell of
/// every timed pass must be the first pass's bit for bit: on one thread
/// nothing may reorder a sum.
pub fn run_arm(
    w: &Workload,
    arm: Arm,
    input: &PassInput,
    seconds: f64,
) -> Result<ArmOutput, String> {
    let mut passes = 0;
    let mut pass = |verify: bool| -> Result<PassOutput, String> {
        passes += 1;
        let scratch = input.scratch.join(format!("pass{passes}"));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("creating pass dir: {e}"))?;
        let out = run_pass(
            w,
            arm,
            &PassInput {
                scratch: scratch.clone(),
                ..input.clone()
            },
            verify,
        );
        // Spill files and checkpoints are dead weight now.
        let _ = std::fs::remove_dir_all(&scratch);
        out
    };
    let first = pass(true)?;
    let mut out = ArmOutput {
        cold_e2e_s: first.e2e_s,
        peak_rss_kib: crate::host::vm_hwm_kib(),
        windows: first.windows,
        parts: first.parts,
        peak_resident_bytes: first.peak_resident_bytes,
        resume_mismatches: first.resume_mismatches,
        ..Default::default()
    };
    let started = Instant::now();
    loop {
        let again = pass(false)?;
        out.e2e_s.push(again.e2e_s);
        out.setup_s.push(again.setup_s);
        out.peak_resident_bytes = out.peak_resident_bytes.max(again.peak_resident_bytes);
        out.repeat_mismatches += first
            .cells
            .iter()
            .zip(&again.cells)
            .filter(|(a, b)| a != b)
            .count()
            + first.cells.len().abs_diff(again.cells.len());
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.cells = first.cells;
    Ok(out)
}

fn postmortem_pass(w: &Workload, input: &PassInput, verify: bool) -> Result<PassOutput, String> {
    let ckpt_dir = input.scratch.join("ckpt");
    let t0 = Instant::now();
    let (log, engine) = setup_postmortem(w, input)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let cells = match w.kind {
        Kind::Windows => {
            let out = engine.run();
            fold_runs(&out);
            window_cells(out)
        }
        Kind::Durable => {
            let out = engine
                .run_durable(&CheckpointOptions {
                    dir: Some(ckpt_dir.clone()),
                    every: 1,
                    resume: None,
                })
                .map_err(|e| format!("durable run: {e}"))?;
            fold_runs(&out);
            window_cells(out)
        }
        Kind::Queries => {
            let queries = query_grid(log.num_vertices());
            let out = engine
                .run_queries(&queries)
                .map_err(|e| format!("batched query run: {e}"))?;
            fold_queries(&out);
            let mut cells = Vec::new();
            query_cells(out, 0, &mut cells);
            cells
        }
    };
    let e2e_s = t0.elapsed().as_secs_f64();

    // Untimed from here on: correctness of the durable path.
    let mut resume_mismatches = 0;
    let mut peak_resident_bytes = 0;
    if w.kind == Kind::Durable {
        peak_resident_bytes = engine.storage().peak_resident_bytes();
    }
    if w.kind == Kind::Durable && verify {
        let restored = engine
            .run_durable(&CheckpointOptions {
                dir: None,
                every: 1,
                resume: Some(ckpt_dir),
            })
            .map_err(|e| format!("resume from the finished manifest: {e}"))?;
        let restored = window_cells(restored);
        resume_mismatches = cells.iter().zip(&restored).filter(|(a, b)| a != b).count()
            + cells.len().abs_diff(restored.len());
    }
    Ok(PassOutput {
        e2e_s,
        setup_s,
        windows: engine.spec().count,
        parts: engine.num_parts(),
        peak_resident_bytes,
        resume_mismatches,
        cells,
    })
}

/// The `batch-query` baseline: one engine, `run_queries(&[q])` per query.
fn looped_query_pass(w: &Workload, input: &PassInput) -> Result<PassOutput, String> {
    let t0 = Instant::now();
    let (log, engine) = setup_postmortem(w, input)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let queries = query_grid(log.num_vertices());
    let mut cells = Vec::new();
    for (q, query) in queries.iter().enumerate() {
        let out = engine
            .run_queries(std::slice::from_ref(query))
            .map_err(|e| format!("looped query {q}: {e}"))?;
        fold_queries(&out);
        query_cells(out, q, &mut cells);
    }
    let e2e_s = t0.elapsed().as_secs_f64();
    cells.sort_by_key(|c| (c.window, c.query));
    Ok(PassOutput {
        e2e_s,
        setup_s,
        windows: engine.spec().count,
        parts: engine.num_parts(),
        cells,
        ..Default::default()
    })
}

/// A driver without an engine to build: ingest, then `run` over the log.
fn driver_pass(
    w: &Workload,
    input: &PassInput,
    run: impl FnOnce(&EventLog, WindowSpec) -> Result<RunOutput, String>,
) -> Result<PassOutput, String> {
    let t0 = Instant::now();
    let (log, spec) = ingest(w, input)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let out = run(&log, spec)?;
    fold_runs(&out);
    let e2e_s = t0.elapsed().as_secs_f64();
    Ok(PassOutput {
        e2e_s,
        setup_s,
        windows: spec.count,
        cells: window_cells(out),
        ..Default::default()
    })
}

fn offline_pass(w: &Workload, input: &PassInput) -> Result<PassOutput, String> {
    let cfg = OfflineConfig {
        threads: input.threads,
        ..Default::default()
    };
    driver_pass(w, input, |log, spec| {
        run_offline(log, spec, &cfg).map_err(|e| format!("offline run: {e}"))
    })
}

fn streaming_pass(w: &Workload, input: &PassInput) -> Result<PassOutput, String> {
    let cfg = StreamingConfig {
        threads: input.threads,
        ..Default::default()
    };
    driver_pass(w, input, |log, spec| {
        run_streaming(log, spec, &cfg).map_err(|e| format!("streaming run: {e}"))
    })
}
