//! The postmortem PageRank engine (paper §4).
//!
//! [`PostmortemEngine::new`] builds the multi-window representation once
//! (§4.1); [`PostmortemEngine::run`] then computes PageRank for every
//! window under the configured parallelization level (§4.3), kernel
//! (SpMV or SpMM, §4.4), and partial-initialization policy (§4.2). A
//! kernel or init mode left `Auto` is resolved first, from the measured
//! window overlap ([`crate::advisor::resolve`]); the engine keeps only
//! the resolved values.
//!
//! ## How the paper's mechanisms map onto the run loop
//! - **Window-level parallelism** schedules *window indices* through the
//!   configured [`Scheduler`]; a grain of consecutive windows is processed
//!   in order on one thread, so partial initialization applies within the
//!   grain exactly as §4.3.1 describes for TBB work-stealing chunks.
//! - **Application-level parallelism** walks windows in order and hands the
//!   scheduler to the SpMV/SpMM kernel instead.
//! - **Nested** does both under one thread budget, whose threads every
//!   nested loop inherits ([`tempopr_kernel::scheduler`]).
//! - **One walk over parts** (§4.1: the multi-window graphs are built once
//!   and processed one part at a time). The in-order modes walk parts in
//!   order on one thread, or on the shard pool with more than one shard
//!   worker; no state passes from one part to the next, so both walks give
//!   the same bits. Either way each part step fetches and pins its part,
//!   then, under `pipeline`, prefetches the next part while the whole part
//!   computes. Both kernels supply only the step: SpMV walks the part's
//!   windows one by one, SpMM in region batches.
//! - **SpMM region scheduling** (§4.4, `Regions`) splits each part's
//!   windows into contiguous regions and batches the `j`-th window of every
//!   region, each batch partially initialized from the previous one. The
//!   window walk and the query walk ([`crate::query`]) share it.
//! - Under [`InitMode::Partial`] reuse never crosses a multi-window
//!   boundary (§4.2): vertex numberings differ between parts, so each
//!   part's first window (and every lane of its first SpMM batch) starts
//!   from the uniform distribution.
//!
//! ## Failure semantics
//! Every window runs to a terminal [`WindowStatus`]; the ladder itself
//! lives in the shared execution layer ([`crate::exec`]) under the full
//! [`RecoveryPolicy::ladder`](crate::exec::RecoveryPolicy::ladder). A
//! kernel that errors or fails to converge escalates through the recovery
//! ladder — full-init retry for warm-started windows, then the dense Eq. 2
//! oracle for small windows — and a kernel that *panics* is caught and
//! isolated by [`crate::exec::isolate`]: the poisoned window reports
//! `Failed` with a diagnostic, its workspace is discarded, and every other
//! window completes normally. The run output carries a `degraded` flag; no
//! failure is silent and no failure aborts the run.

use crate::advisor::{self, auto_multiwindows, WorkloadProfile};
use crate::checkpoint::{self, CheckpointError, CheckpointOptions, CheckpointSink, DurableRun};
use crate::config::{InitMode, KernelKind, PostmortemConfig};
use crate::error::EngineError;
use crate::exec::{classify_converged, isolate, oracle_for, WindowExecutor};
use crate::lock;
use crate::observe::TelemetryKernelBridge;
use crate::result::{RunOutput, WindowOutput, WindowRanks, WindowStatus};
use crate::storage::{PartRef, StorageBackend, TcsrStorage};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use tempopr_graph::{
    plan_partition, EventLog, MultiWindowGraph, StorageError, VertexId, WindowSpec,
};
use tempopr_kernel::{
    overlap, pagerank_batch_indexed_obs, pagerank_window_indexed_obs, scheduler::ThreadPool,
    thread_pool, worker_pool, BatchObs, Init, Obs, PrConfig, PrStats, PrWorkspace, Scheduler,
    SpmmWorkspace,
};
use tempopr_telemetry::{Phase as RunPhase, Telemetry};

pub use crate::exec::MAX_ORACLE_ACTIVE;

/// A ready-to-run postmortem analysis: the multi-window representation plus
/// the execution configuration.
pub struct PostmortemEngine {
    store: TcsrStorage,
    cfg: PostmortemConfig,
    pool: Option<ThreadPool>,
    tele: Telemetry,
    /// Event-log fingerprint, fixed at build time for the checkpoint
    /// manifest header (the engine does not retain the log itself).
    log_fp: u64,
    /// Whether lanes of different windows gain nothing from one batch
    /// ([`advisor::batching_shares_nothing`]), which the region walk's
    /// lane budget reads.
    unshared: bool,
    /// Run-scoped durable sink, held for the span of one run from its
    /// [`DurableRun`]; `executor()` attaches it so every finalized window
    /// is persisted without threading a parameter through the kernel
    /// walks.
    ckpt: Mutex<Option<Arc<CheckpointSink>>>,
}

/// Where a (possibly resumed) run starts and how its first window is
/// seeded: `seed` holds the part-local ranks of the last durable window
/// when that window is in `start`'s part and ranks are reused — the seed
/// an uninterrupted walk would hand window `start`.
#[derive(Debug, Clone)]
struct RunPlan {
    start: usize,
    seed: Option<Vec<f64>>,
}

/// A kernel's part step ([`PostmortemEngine::walk_parts`]): given the
/// fetched part, the windows of it to compute and the seed of the first
/// of them (a mid-part resume's, else `None`), it pushes those windows'
/// outputs.
type PartStep<'a> =
    dyn Fn(&MultiWindowGraph, Range<usize>, Option<Vec<f64>>, &mut Vec<WindowOutput>) + Sync + 'a;

impl PostmortemEngine {
    /// Builds the multi-window representation for `log` under `spec`.
    ///
    /// This is the postmortem model's one-time graph construction — the
    /// cost the offline model pays per window and the streaming model pays
    /// per update batch.
    pub fn new(
        log: &EventLog,
        spec: WindowSpec,
        cfg: PostmortemConfig,
    ) -> Result<Self, EngineError> {
        Self::with_telemetry(log, spec, cfg, Telemetry::noop())
    }

    /// [`PostmortemEngine::new`] with a telemetry sink: the build phase is
    /// timed, and [`PostmortemEngine::run`] records phase times, counters,
    /// and the convergence trace into `tele`. Passing
    /// [`Telemetry::noop()`] is exactly [`PostmortemEngine::new`].
    pub fn with_telemetry(
        log: &EventLog,
        spec: WindowSpec,
        mut cfg: PostmortemConfig,
        tele: Telemetry,
    ) -> Result<Self, EngineError> {
        let build = tele.phase(RunPhase::Build);
        // Fields left automatic are resolved before anything reads them:
        // the shard-worker rule, the part rule, the walks and the config
        // hash only ever see concrete values. Parts keep the rule of the
        // kernel as configured (`Auto` has its own).
        let profile = WorkloadProfile::measure(log, &spec, cfg.threads);
        let part_rule = cfg.kernel;
        let auto_fields = advisor::resolve(&mut cfg, &profile);
        let lanes = match cfg.kernel {
            KernelKind::SpMM { lanes } => lanes,
            _ => 0,
        };
        tele.set_gauge("plan.kernel_lanes", lanes as f64);
        tele.set_gauge("plan.mean_overlap", profile.mean_overlap);
        tele.set_gauge("plan.auto_fields", auto_fields as f64);
        // The shard cache holds one decoded part per planned worker plus
        // one prefetch slot when the decode/compute pipeline is on; the
        // budget planner charges exactly that many simultaneously-resident
        // decoded parts.
        let (workers, _) = shard_workers(&cfg, None, false);
        let slots = workers + usize::from(cfg.pipeline);
        // A memory budget overrides the explicit part count: the planner
        // picks the smallest feasible partitioning under the backend's
        // footprint rule, or reports the minimal feasible budget. What it
        // weighed, ruled out from counts and had to build goes on record,
        // and a partition it built is the store's to keep.
        let (parts, planned) = if let Some(budget) = cfg.memory_budget {
            let (stats, plan) = plan_partition(
                log,
                &spec,
                budget,
                cfg.partition,
                cfg.storage.profile(),
                slots,
            );
            tele.add("storage.plan.candidates", stats.candidates as u64);
            tele.add(
                "storage.plan.rejected_by_bound",
                stats.rejected_by_bound as u64,
            );
            tele.add("storage.plan.trial_builds", stats.trial_builds as u64);
            tele.set_gauge("storage.plan.budget_bytes", budget as f64);
            let plan = plan?;
            tele.set_gauge("storage.plan.parts", plan.parts as f64);
            tele.set_gauge("storage.plan.footprint_bytes", plan.footprint as f64);
            // Bumped by the store when it takes `plan.encoded` over.
            tele.add("storage.plan.reused", 0);
            (plan.parts, plan.encoded)
        } else if cfg.num_multiwindows == 0 {
            (auto_multiwindows(&spec, part_rule), None)
        } else {
            (cfg.num_multiwindows, None)
        };
        let mut store = TcsrStorage::build(
            log,
            spec,
            parts,
            planned,
            cfg.partition,
            &cfg.storage,
            slots,
            tele.clone(),
        )?;
        if !cfg.faults.fetch_failures.is_empty() {
            store.inject_fetch_failures(&cfg.faults.fetch_failures);
        }
        drop(build);
        tele.set_gauge("run.multiwindows", store.num_parts() as f64);
        let pool = (cfg.threads > 0).then(|| {
            let Ok(pool) = thread_pool(cfg.threads);
            pool
        });
        let log_fp = checkpoint::log_fingerprint(log);
        let unshared = advisor::batching_shares_nothing(&cfg, &profile);
        Ok(PostmortemEngine {
            store,
            cfg,
            pool,
            tele,
            log_fp,
            unshared,
            ckpt: Mutex::new(None),
        })
    }

    /// The telemetry sink this engine records into (noop by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// The storage layer serving the multi-window parts.
    pub fn storage(&self) -> &TcsrStorage {
        &self.store
    }

    /// Number of multi-window parts.
    pub fn num_parts(&self) -> usize {
        self.store.num_parts()
    }

    /// Size of the global vertex universe.
    pub fn num_global_vertices(&self) -> usize {
        self.store.num_global_vertices()
    }

    /// Fetches multi-window part `p` through the configured storage
    /// backend: a borrow when resident, a cache-shared decode otherwise.
    pub fn part(&self, p: usize) -> Result<PartRef<'_>, EngineError> {
        self.store.part(p).map_err(|e| EngineError::storage(p, e))
    }

    /// The window spec covered.
    pub fn spec(&self) -> &WindowSpec {
        self.store.spec()
    }

    /// The configuration in effect, with every `Auto` field resolved.
    pub fn config(&self) -> &PostmortemConfig {
        &self.cfg
    }

    /// The engine-owned thread pool, for sibling drivers (the query-batch
    /// runner) that must install it exactly like [`PostmortemEngine::run`].
    pub(crate) fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }

    /// Computes PageRank for every window and returns the per-window
    /// outputs in window order.
    ///
    /// This never fails as a whole: windows that cannot produce valid
    /// ranks (even through the recovery ladder) are reported as
    /// [`WindowStatus::Failed`] and the output's `degraded` flag is set.
    pub fn run(&self) -> RunOutput {
        self.run_with(DurableRun::transient(self.spec().count, &self.tele))
    }

    /// [`PostmortemEngine::run`] with durability: when `opts` names a
    /// checkpoint directory, every finalized window is persisted as a
    /// `tempopr.ckpt.v2` record ([`crate::checkpoint`]); when it names a
    /// resume source, the manifest's valid prefix is verified against this
    /// engine's config hash and event-log fingerprint, completed windows
    /// are restored instead of recomputed, and the in-order walk is
    /// re-seeded from the last durable window so the combined output is
    /// bit-identical to an uninterrupted run.
    ///
    /// Resuming a non-empty prefix requires an in-order mode
    /// ([`ParallelMode::Sequential`](crate::config::ParallelMode::Sequential)
    /// or [`ParallelMode::ApplicationLevel`](crate::config::ParallelMode::ApplicationLevel)):
    /// the part-parallel modes chain seeds per scheduler grain, which a
    /// trimmed window range cannot reproduce. Checkpoint *writing* works
    /// under every mode (records are reordered into window order before
    /// hitting disk). With the SpMM kernel the resume point is clipped
    /// down to the start of the part containing the first missing window —
    /// region scheduling interleaves a part's windows, so a partial part
    /// is recomputed whole (deterministically, yielding the same records).
    pub fn run_durable(&self, opts: &CheckpointOptions) -> Result<RunOutput, EngineError> {
        if opts.is_noop() {
            return Ok(self.run());
        }
        let durable = DurableRun::open(
            opts,
            checkpoint::DRIVER_POSTMORTEM,
            self.spec(),
            || (self.config_hash(), self.log_fp),
            |k| self.resume_point(k),
            self.cfg.faults.crash_after_checkpoint,
            &self.tele,
        )?;
        Ok(self.run_with(durable))
    }

    /// Where a resume of a `k`-window prefix restarts: `k` itself, or under
    /// SpMM the first window of the part holding window `k`. Refused
    /// outside the in-order modes.
    fn resume_point(&self, k: usize) -> Result<usize, CheckpointError> {
        if !self.cfg.mode.in_order() {
            return Err(CheckpointError::Unsupported(
                "postmortem resume needs an in-order mode (sequential or \
                 application-level); part-parallel grain chains are not \
                 reproducible from a trimmed window range"
                    .into(),
            ));
        }
        if matches!(self.cfg.kernel, KernelKind::SpMM { .. }) && k < self.spec().count {
            return Ok(self.store.part_windows(self.part_index_of(k)).start);
        }
        Ok(k)
    }

    /// The compatibility hash of this run's configuration: FNV-1a over the
    /// config's `Debug` rendering with crash injection masked out (the
    /// crashed run and its resume differ exactly there). The storage
    /// backend and memory budget are masked too — decoded parts are
    /// bit-identical to resident ones, so a checkpoint taken under one
    /// backend resumes under any other — with the *resolved* part count
    /// hashed in their place (partitioning does shape the in-order walk).
    /// The shard-worker count and `pipeline` are masked for the same
    /// reason: pooled parts produce the serial walk's ranks bit for bit,
    /// and a prefetch only moves wall-clock work.
    fn config_hash(&self) -> u64 {
        let mut c = self.cfg.clone();
        c.faults.crash_after_checkpoint = None;
        c.storage = StorageBackend::Resident;
        c.memory_budget = None;
        c.storage_workers = 1;
        c.pipeline = false;
        c.num_multiwindows = self.store.num_parts();
        checkpoint::hash_config(&format!("{c:?}"))
    }

    /// Runs windows `durable.start()..count`, seeded from the last durable
    /// window's ranks mapped into its part, and completes the output
    /// through `durable`.
    pub(crate) fn run_with(&self, durable: DurableRun) -> RunOutput {
        let start = durable.start();
        let seed = durable.seed().and_then(|(w, ranks)| {
            let p = self.part_index_of(w);
            let in_part = self.reuse_ranks() && p == self.part_index_of(start);
            in_part.then(|| ranks.to_local(self.store.vertex_map(p)))
        });
        let plan = RunPlan { start, seed };
        *lock(&self.ckpt) = durable.sink().cloned();
        self.tele
            .set_gauge("init.mode", f64::from(self.cfg.init_mode as u8));
        let parts = Some(self.store.num_parts());
        let (workers, cap) = shard_workers(&self.cfg, parts, plan.start > 0);
        self.tele.set_gauge("storage.workers", workers as f64);
        if cap.is_some() {
            self.tele.add("storage.workers_capped", 1);
        }
        let out = durable.run(self.cfg.retain, |_| match &self.pool {
            Some(p) => p.install(|| self.run_inner(&plan, workers)),
            None => self.run_inner(&plan, workers),
        });
        *lock(&self.ckpt) = None;
        // Measured after the run so lazily-built window indexes count.
        self.tele
            .set_gauge("memory.multiwindow_bytes", self.store.memory_bytes() as f64);
        // Storage-owned residency: the high-water mark is what the memory
        // budget is judged against; compressed_bytes is the at-rest size.
        self.tele.set_gauge(
            "storage.resident_bytes",
            self.store.peak_resident_bytes() as f64,
        );
        self.tele.set_gauge(
            "storage.compressed_bytes",
            self.store.compressed_bytes() as f64,
        );
        out
    }

    fn run_inner(&self, plan: &RunPlan, workers: usize) -> Vec<WindowOutput> {
        match self.cfg.kernel {
            KernelKind::SpMM { lanes } => self.run_spmm(lanes, plan, workers),
            // SpMV: a built engine holds no `Auto`.
            _ => self.run_spmv(plan, workers),
        }
    }

    /// Whether windows are seeded from their predecessor (`Partial`).
    fn reuse_ranks(&self) -> bool {
        self.cfg.init_mode != InitMode::Full
    }

    /// The region walk of one part's `nw` windows under a lane `budget`
    /// split into `chains` lanes per window slot, for this run's init mode,
    /// measured overlap and scheduler ([`Regions::new`]).
    pub(crate) fn regions(&self, budget: usize, chains: usize, nw: usize) -> Regions {
        Regions::new(budget, chains, nw, self.reuse_ranks(), self.unshared)
    }

    /// The scheduler handed *into* each kernel
    /// ([`crate::config::ParallelMode::parallel_kernel`]).
    pub(crate) fn inner_scheduler(&self) -> Option<&Scheduler> {
        self.cfg
            .mode
            .parallel_kernel()
            .then_some(&self.cfg.scheduler)
    }

    // --- Shard worker pool ------------------------------------------------

    /// The shard-worker count a plain [`PostmortemEngine::run`] will use,
    /// plus the reason it was capped below the request (if it was). Ranks
    /// are bit-identical at every count: a configuration the pool cannot
    /// run bit for bit runs serial instead of silently changing results,
    /// and this is where callers learn why.
    pub fn storage_worker_plan(&self) -> (usize, Option<WorkerCap>) {
        shard_workers(&self.cfg, Some(self.store.num_parts()), false)
    }

    // --- The part walk -----------------------------------------------------

    /// The one walk over parts, of both kernels: `step` computes the
    /// windows of one fetched part that fall in `windows` and pushes their
    /// outputs. Only the first part step gets `seed`; no state passes from
    /// one part to the next. With one worker the parts run in order on this
    /// thread; with more they run on the shard pool (the worker plan gives a
    /// seeded walk one worker), so the concatenated outputs are the
    /// in-order walk's bit for bit.
    ///
    /// Each part step fetches and pins its part first — a prefetch's
    /// eviction can then never take it — and, when `pipeline` is on and
    /// the next part is not ready, overlaps that part's prefetch
    /// ([`PostmortemEngine::prefetch_part`]) with the whole of this part's
    /// compute. The part-parallel modes' grains walk without prefetch. A
    /// part that cannot be fetched fails its windows.
    fn walk_parts(
        &self,
        windows: Range<usize>,
        mut seed: Option<Vec<f64>>,
        workers: usize,
        step: &PartStep,
    ) -> Vec<WindowOutput> {
        if windows.is_empty() {
            return Vec::new();
        }
        let pipeline = self.cfg.pipeline && self.cfg.mode.in_order();
        let parts = self.part_index_of(windows.start)..self.part_index_of(windows.end - 1) + 1;
        let part_step =
            |p: usize, next: Option<usize>, seed: Option<Vec<f64>>, out: &mut Vec<WindowOutput>| {
                let range = self.store.part_windows(p);
                let range = range.start.max(windows.start)..range.end.min(windows.end);
                out.reserve(range.len());
                let part = match self.store.part(p) {
                    Ok(part) => part,
                    Err(e) => {
                        out.extend(range.map(|w| self.fetch_failed_output(w, p, &e)));
                        return;
                    }
                };
                let compute = || step(&part, range, seed, out);
                match next.filter(|&n| pipeline && !self.store.part_ready(n)) {
                    Some(n) => {
                        let (_, (), stall) = overlap(|| self.prefetch_part(n), compute);
                        self.tele.add_phase_ns(
                            RunPhase::PipelineStall,
                            u64::try_from(stall.as_nanos()).unwrap_or(u64::MAX),
                        );
                        self.tele.add("pipeline.prefetches", 1);
                    }
                    None => compute(),
                }
            };
        if workers > 1 {
            let at = |i: usize| parts.start + i;
            let results = worker_pool(workers, parts.len(), |i, q| {
                let mut out = Vec::new();
                part_step(at(i), q.peek().map(at), None, &mut out);
                out
            });
            return results.into_iter().flatten().collect();
        }
        let mut out = Vec::with_capacity(windows.len());
        for p in parts.clone() {
            let next = (p + 1 < parts.end).then_some(p + 1);
            part_step(p, next, seed.take(), &mut out);
        }
        out
    }

    /// The one next-part prefetch, of [`PostmortemEngine::walk_parts`]: the
    /// non-resident backends decode part `p` into a *free* cache slot (the
    /// prefetch slot the budget was charged for) and decline when none is
    /// available, so a prefetch never overshoots the certified bound; then
    /// the part's window index is built off the critical path.
    /// A declined or failed prefetch is dropped: the walk's own fetch of
    /// the part surfaces any error.
    fn prefetch_part(&self, p: usize) {
        let available =
            matches!(self.store.backend(), StorageBackend::Resident) || self.store.prefetch(p);
        if available {
            if let Ok(part) = self.store.part(p) {
                let _ = part.window_index();
            }
        }
    }

    // --- Execution-layer adapters -----------------------------------------

    /// The engine's [`WindowExecutor`]: the configured recovery policy
    /// (the full ladder by default — this is the postmortem driver)
    /// recording into the run's telemetry sink, with the run-scoped
    /// checkpoint sink attached when durability is on.
    fn executor(&self) -> WindowExecutor<'_> {
        WindowExecutor::new(&self.tele, &self.cfg.pr, self.cfg.recovery, self.cfg.retain)
            .with_checkpoint(lock(&self.ckpt).clone())
    }

    /// The one per-window driver: computes window `w` with the SpMV kernel
    /// through the full recovery ladder — every window of the SpMV walk,
    /// and every SpMM window that leaves its batch. `prev` is the vector
    /// that seeds it (`None` for a cold start). Returns the finalized
    /// output and, when the window is valid, its local ranks, read in place
    /// from `ws` unless recovery replaced them: the next window's seed,
    /// which a caller copies out only when ranks are reused. After a failed
    /// window the next one starts cold.
    fn single_window<'w>(
        &self,
        part: &MultiWindowGraph,
        w: usize,
        prev: Option<&[f64]>,
        ws: &'w mut PrWorkspace,
    ) -> (WindowOutput, Option<Cow<'w, [f64]>>) {
        let range = self.spec().window(w);
        let inner = self.inner_scheduler();
        let t = part.tcsr();
        let prcfg = PrConfig {
            fault: self.cfg.faults.fault_for(w),
            ..self.cfg.pr
        };
        let n_local = t.num_vertices();
        let warm = prev.is_some();
        // Each kernel invocation is a new recovery attempt; the bridge is
        // rebuilt per call so trace events carry the attempt label.
        let attempt_no = Cell::new(0u16);
        let (stats, status, override_ranks, attempts) = {
            let ws = &mut *ws;
            let attempt_no = &attempt_no;
            let kernel = move |uniform: bool| {
                let init = match prev {
                    Some(p) if !uniform => Init::Partial(p),
                    _ => Init::Uniform,
                };
                attempt_no.set(attempt_no.get() + 1);
                let bridge = TelemetryKernelBridge::new(&self.tele, attempt_no.get());
                let obs = if self.tele.is_enabled() {
                    Obs::new(&bridge, w as u32)
                } else {
                    Obs::off()
                };
                let view = part.index_view(w);
                pagerank_window_indexed_obs(t, t, &view, init, &prcfg, inner, ws, obs)
            };
            let oracle = || oracle_for(t, range, &self.cfg.pr, MAX_ORACLE_ACTIVE);
            self.executor()
                .drive(w as u32, warm, n_local, kernel, oracle)
        };
        if !status.is_valid() {
            // A panic may have left the workspace inconsistent.
            *ws = PrWorkspace::default();
        }
        // The kernel's ranks are zero off the window's active vertices, so
        // the output walks those; a recovery override is walked whole.
        let active = override_ranks
            .is_none()
            .then(|| part.index_view(w).vertices);
        let ranks = match override_ranks {
            Some(x) => Cow::Owned(x),
            None => Cow::Borrowed(ws.ranks()),
        };
        let valid = status.is_valid();
        let local = WindowRanks::local(&ranks, part.vertex_map(), active);
        let output = self.executor().finalize(w, local, stats, status, attempts);
        (output, valid.then_some(ranks))
    }

    // --- SpMV path ------------------------------------------------------

    fn run_spmv(&self, plan: &RunPlan, workers: usize) -> Vec<WindowOutput> {
        let count = self.spec().count;
        let step: &PartStep = &|part, windows, seed, out| self.spmv_chunk(part, windows, seed, out);
        if self.cfg.mode.in_order() {
            return self.walk_parts(plan.start..count, plan.seed.clone(), workers, step);
        }
        // Resume never reaches the part-parallel modes (run_durable rejects
        // them with a non-empty prefix), so plan is trivial; a grain walks
        // its windows in order, across parts.
        let grain = |r| self.walk_parts(r, None, 1, step);
        self.cfg
            .scheduler
            .map_reduce_range(count, Vec::new(), grain, concat)
    }

    /// Finalizes one window as `Failed` because its part could not be
    /// fetched from storage (decode error, i/o failure). Mirrors the
    /// recovery ladder's contract: the failure is contained, the walk
    /// continues.
    fn fetch_failed_output(&self, w: usize, part_idx: usize, err: &StorageError) -> WindowOutput {
        self.tele.add("storage.fetch_failures", 1);
        // No ranks: an empty window of the part.
        let none = WindowRanks::local(&[], self.store.vertex_map(part_idx), Some(&[]));
        self.executor().finalize(
            w,
            none,
            PrStats::empty(),
            WindowStatus::Failed {
                diagnostic: format!("storage fetch failed: {err}"),
            },
            1,
        )
    }

    /// Computes `windows` of one part in order on the current thread,
    /// threading partial initialization through consecutive windows: the
    /// SpMV walk's part step. `seed` is the previous window's local ranks
    /// under a mid-part resume (absent if that window failed, so the first
    /// window cold-starts exactly as the uninterrupted walk would after an
    /// invalid window); a part's first window starts cold.
    fn spmv_chunk(
        &self,
        part: &MultiWindowGraph,
        windows: Range<usize>,
        seed: Option<Vec<f64>>,
        out: &mut Vec<WindowOutput>,
    ) {
        let mut ws = PrWorkspace::default();
        let mut prev = seed;
        out.extend(windows.map(|w| {
            let (output, ranks) = self.single_window(part, w, prev.as_deref(), &mut ws);
            // Keep this window's ranks as the next window's previous
            // vector, in the last one's allocation; after a failed window
            // the next one starts cold.
            match ranks.filter(|_| self.reuse_ranks()) {
                Some(r) => {
                    let p = prev.get_or_insert_with(Vec::new);
                    p.clear();
                    p.extend_from_slice(&r);
                }
                None => prev = None,
            }
            output
        }));
    }

    // --- SpMM path ------------------------------------------------------

    fn run_spmm(&self, lanes: usize, plan: &RunPlan, workers: usize) -> Vec<WindowOutput> {
        // An SpMM resume restarts at its part's first window
        // (`resume_point`), so the walk hands it no seed.
        let step: &PartStep = &|part, _, _, out| self.spmm_part(part, lanes, out);
        if self.cfg.mode.in_order() {
            let windows = plan.start..self.spec().count;
            return self.walk_parts(windows, None, workers, step);
        }
        // The part-parallel modes walk every part on its own.
        let grain = |r: Range<usize>| {
            r.flat_map(|p| self.walk_parts(self.store.part_windows(p), None, 1, step))
                .collect()
        };
        self.cfg
            .scheduler
            .map_reduce_range(self.store.num_parts(), Vec::new(), grain, concat)
    }

    /// Computes every window of one multi-window graph with the batched
    /// kernel over the part's region schedule ([`Regions`], one chain per
    /// window slot): batch `j` processes the `j`-th window of each region,
    /// partially initialized from batch `j-1`.
    ///
    /// Windows with a planned fault are routed through the per-window
    /// SpMV path instead (the batch kernel cannot target a fault at one
    /// window), and lanes that fail or stall inside a batch escalate
    /// individually — a poisoned lane never drags its batch-mates down.
    /// Batch 0 starts cold. Pushes the outputs, in batch order.
    fn spmm_part(&self, part: &MultiWindowGraph, lanes: usize, out: &mut Vec<WindowOutput>) {
        let inner = self.inner_scheduler();
        let w0 = part.windows().start;
        let mut regions = self.regions(lanes, 1, part.num_windows());
        let mut ws = SpmmWorkspace::default();
        let mut pr_ws = PrWorkspace::default();
        // One deinterleave buffer for the whole part: every converged lane
        // is copied out through it instead of allocating a fresh vector per
        // lane per batch.
        let mut lane_buf = LaneBuf::default();
        for j in 0..regions.batches() {
            // Faulted windows leave the batch and run individually through
            // the full recovery ladder.
            let (clean, faulted): (Vec<usize>, Vec<usize>) = regions
                .batch(j)
                .partition(|&lw| self.cfg.faults.fault_for(w0 + lw).is_none());
            for &lw in &faulted {
                out.push(self.solo_lane(part, lw, &mut regions, &mut pr_ws));
            }
            if clean.is_empty() {
                continue;
            }
            // Lane → global-window map so batched observations land on the
            // right trace rows; a whole batch is always attempt 1 (lane
            // escalation reruns through `single_window`).
            let win_ids: Vec<u32> = clean.iter().map(|&lw| (w0 + lw) as u32).collect();
            let bridge = TelemetryKernelBridge::new(&self.tele, 1);
            let batch = {
                let inits: Vec<Init<'_>> = clean
                    .iter()
                    .map(|&lw| regions.seed(lw, 0).map_or(Init::Uniform, Init::Partial))
                    .collect();
                let t = part.tcsr();
                let obs = if self.tele.is_enabled() {
                    BatchObs::new(&bridge, &win_ids)
                } else {
                    BatchObs::off()
                };
                isolate(|| {
                    let index = part.window_index();
                    let views: Vec<_> = clean.iter().map(|&lw| index.view(lw)).collect();
                    pagerank_batch_indexed_obs(
                        t,
                        t,
                        &views,
                        &inits,
                        &self.cfg.pr,
                        inner,
                        &mut ws,
                        obs,
                    )
                })
            };
            let nlanes = clean.len();
            match batch {
                Ok(Ok(stats)) => {
                    let index = part.window_index();
                    for (i, &lw) in clean.iter().enumerate() {
                        let st = stats[i];
                        if st.converged || self.cfg.pr.max_iters == 0 {
                            let status = classify_converged(&st);
                            let active = index.view(lw).vertices;
                            lane_buf.with_lane(&ws.x, i, nlanes, active, |ranks| {
                                let local =
                                    WindowRanks::local(ranks, part.vertex_map(), Some(active));
                                out.push(self.executor().finalize(w0 + lw, local, st, status, 1));
                                regions.keep(lw, 0, ranks);
                            });
                        } else {
                            // Per-lane escalation: recompute this window
                            // alone through the recovery ladder.
                            out.push(self.solo_lane(part, lw, &mut regions, &mut pr_ws));
                        }
                    }
                }
                // The whole batch failed (kernel error or panic): isolate
                // by recomputing every window individually.
                batch_failure => {
                    if batch_failure.is_err() {
                        ws = SpmmWorkspace::default();
                    }
                    for &lw in &clean {
                        out.push(self.solo_lane(part, lw, &mut regions, &mut pr_ws));
                    }
                }
            }
        }
    }

    /// Part-local window `lw` of an SpMM part solved alone — a faulted
    /// lane, an escalated lane, or every lane of a failed batch: seeded
    /// from its region's chain, which it then continues (a failed window
    /// breaks it, so the region's next batch starts cold).
    fn solo_lane(
        &self,
        part: &MultiWindowGraph,
        lw: usize,
        regions: &mut Regions,
        ws: &mut PrWorkspace,
    ) -> WindowOutput {
        let w = part.windows().start + lw;
        let (output, ranks) = self.single_window(part, w, regions.seed(lw, 0), ws);
        match ranks {
            Some(ranks) => regions.keep(lw, 0, &ranks),
            None => regions.break_chain(lw, 0),
        }
        output
    }

    // --- Shared helpers ---------------------------------------------------

    fn part_index_of(&self, window: usize) -> usize {
        self.store.part_index_of(window)
    }
}

/// Why the effective shard-worker count was capped below the configured
/// [`PostmortemConfig::storage_workers`] request. Every cap exists to keep
/// ranks bit-identical to the serial walk — the alternative would be
/// silently different results at different worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerCap {
    /// Resuming a checkpoint prefix replays in-order walk state that a
    /// part pool cannot reproduce.
    Resume,
    /// The parallel mode already parallelizes across parts/windows on the
    /// kernel scheduler; stacking a shard pool on top would double-book
    /// cores without a defined seeding order.
    PartParallelMode,
    /// Fewer independent parts than requested workers.
    Parts,
}

impl std::fmt::Display for WorkerCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkerCap::Resume => {
                "resuming mid-run is an in-order replay; shard workers capped at 1"
            }
            WorkerCap::PartParallelMode => {
                "the parallel mode already runs parts concurrently; shard workers capped at 1"
            }
            WorkerCap::Parts => "fewer independent parts than requested shard workers",
        };
        f.write_str(s)
    }
}

/// The one shard-worker rule: the [`PostmortemConfig::storage_workers`]
/// request (`0` = the run's thread budget: `threads`, or every core when
/// that is `0` too) and the reason it was capped, if it was.
/// The caps apply in order — a request of at most one, then
/// [`WorkerCap::PartParallelMode`], [`WorkerCap::Parts`] (when the part
/// count is known) and [`WorkerCap::Resume`] — so engine construction
/// (cache slots and budget charge, before the store exists),
/// [`PostmortemEngine::storage_worker_plan`] and the run plan each apply
/// what they know.
pub(crate) fn shard_workers(
    cfg: &PostmortemConfig,
    parts: Option<usize>,
    resumed: bool,
) -> (usize, Option<WorkerCap>) {
    let requested = match (cfg.storage_workers, cfg.threads) {
        (0, 0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        (0, threads) => threads,
        (n, _) => n,
    };
    if requested <= 1 {
        return (1, None);
    }
    if !cfg.mode.in_order() {
        return (1, Some(WorkerCap::PartParallelMode));
    }
    let (workers, cap) = match parts {
        Some(parts) if requested > parts => (parts.max(1), Some(WorkerCap::Parts)),
        _ => (requested, None),
    };
    if workers > 1 && resumed {
        return (1, Some(WorkerCap::Resume));
    }
    (workers, cap)
}

/// The paper's region scheduling (§4.4) over one part's `nw` windows, for
/// both lane-batched walks: the window walk runs one chain per window slot,
/// the query walk `nq` (lane `k = w·nq + q`). The windows split into
/// `slots` contiguous regions; batch `j` holds the `j`-th window of every
/// region, and each (slot, chain) keeps its last valid ranks — the next
/// batch's partial initialization.
pub(crate) struct Regions {
    nw: usize,
    len: usize,
    chains: usize,
    reuse: bool,
    prev: Vec<Option<Vec<f64>>>,
}

impl Regions {
    /// `⌊budget / chains⌋` window slots, at least one and at most `nw`.
    /// When ranks are reused, regions must span at least two windows or
    /// there is only one batch and nothing ever gets partially initialized
    /// — the paper's warning that a high vector length erodes the partial
    /// initialization benefit, resolved in favor of partial init.
    ///
    /// When lanes of different windows gain nothing from one batch
    /// (`unshared`, [`advisor::batching_shares_nothing`]: the windows share
    /// no edge and the kernel runs unthreaded) and nothing is reused, the
    /// budget is cut to `max(AUTO_LANES, chains)`: a query batch holds one
    /// window's queries, a window batch [`advisor::AUTO_LANES`] windows.
    /// Under `Full` init every lane's arithmetic is independent of who
    /// shares its batch, so the cut moves no bit.
    pub(crate) fn new(
        budget: usize,
        chains: usize,
        nw: usize,
        reuse: bool,
        unshared: bool,
    ) -> Self {
        let mut budget = budget.clamp(1, tempopr_kernel::MAX_LANES);
        if unshared && !reuse {
            budget = budget.min(advisor::AUTO_LANES.max(chains));
        }
        let mut slots = (budget / chains).max(1).min(nw);
        if reuse {
            slots = slots.min((nw / 2).max(1));
        }
        Regions {
            nw,
            len: nw.div_ceil(slots),
            chains,
            reuse,
            prev: vec![None; slots * chains],
        }
    }

    /// How many batches walk the part (the region length).
    pub(crate) fn batches(&self) -> usize {
        self.len
    }

    /// Window slots per batch (`plan.query_slots` on the query walk).
    pub(crate) fn slots(&self) -> usize {
        self.prev.len() / self.chains
    }

    /// Batch `j`'s part-local windows, in slot order.
    pub(crate) fn batch(&self, j: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        (j..self.nw).step_by(self.len)
    }

    /// Where (window `lw`, `chain`) keeps its chain.
    fn slot(&self, lw: usize, chain: usize) -> usize {
        lw / self.len * self.chains + chain
    }

    /// The vector seeding (window `lw`, `chain`), if its chain holds one.
    pub(crate) fn seed(&self, lw: usize, chain: usize) -> Option<&[f64]> {
        self.prev[self.slot(lw, chain)].as_deref()
    }

    /// Keeps a converged lane's `ranks` as its chain's next seed, reusing
    /// the slot's allocation; nothing is kept when ranks are not reused.
    pub(crate) fn keep(&mut self, lw: usize, chain: usize, ranks: &[f64]) {
        if !self.reuse {
            return;
        }
        let s = self.slot(lw, chain);
        match &mut self.prev[s] {
            Some(v) if v.len() == ranks.len() => v.copy_from_slice(ranks),
            slot => *slot = Some(ranks.to_vec()),
        }
    }

    /// Breaks (window `lw`, `chain`)'s chain: its region's next window
    /// starts cold rather than from a poisoned seed.
    pub(crate) fn break_chain(&mut self, lw: usize, chain: usize) {
        let s = self.slot(lw, chain);
        self.prev[s] = None;
    }
}

/// The deinterleave buffer of a lane-batched walk: one lane of a finished
/// batch at a time, over its part's local vertices. The buffer is zero
/// between uses and a lane writes only its active vertices, so a lane costs
/// its active set, not the part's vertex range, and the vector a use sees
/// is dense-correct for [`Regions::keep`]. Both walks reuse one buffer
/// across lanes and batches; the query walk across parts too.
#[derive(Debug, Default)]
pub(crate) struct LaneBuf(Vec<f64>);

impl LaneBuf {
    /// Calls `f` with lane `k` of the interleaved `x` (stride `vl`), one
    /// entry per row of `x`: the lane's cells at its `active` vertices,
    /// zero elsewhere. Zeroes those cells again afterwards.
    pub(crate) fn with_lane<R>(
        &mut self,
        x: &[f64],
        k: usize,
        vl: usize,
        active: &[VertexId],
        f: impl FnOnce(&[f64]) -> R,
    ) -> R {
        self.0.resize(x.len() / vl, 0.0);
        for &v in active {
            self.0[v as usize] = x[v as usize * vl + k];
        }
        let out = f(&self.0);
        for &v in active {
            self.0[v as usize] = 0.0;
        }
        out
    }
}

fn concat(mut a: Vec<WindowOutput>, mut b: Vec<WindowOutput>) -> Vec<WindowOutput> {
    a.append(&mut b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InitMode, KernelKind, ParallelMode, PostmortemConfig, RetainMode};
    use crate::result::SparseRanks;
    use tempopr_graph::Event;
    use tempopr_kernel::{pagerank_window, Partitioner, PrConfig, MAX_LANES};

    fn test_log() -> EventLog {
        let mut events = Vec::new();
        for i in 0..400u32 {
            let u = (i * 13 + 2) % 30;
            let v = (i * 7 + 5) % 30;
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        EventLog::from_unsorted(events, 30).unwrap()
    }

    fn tight_cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    fn reference_run(log: &EventLog, spec: WindowSpec) -> Vec<SparseRanks> {
        // Offline brute force: per window, dedup edges, reference PageRank.
        use tempopr_kernel::reference_pagerank;
        (0..spec.count)
            .map(|w| {
                let r = spec.window(w);
                let mut edges = Vec::new();
                for e in log.events() {
                    if r.contains(e.t) {
                        edges.push((e.u, e.v));
                        if e.u != e.v {
                            edges.push((e.v, e.u));
                        }
                    }
                }
                let dense = reference_pagerank(log.num_vertices(), &edges, &tight_cfg());
                SparseRanks::from_dense(&dense)
            })
            .collect()
    }

    fn check_against_reference(cfg: PostmortemConfig) {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let expect = reference_run(&log, spec);
        let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
        let out = engine.run();
        assert_eq!(out.windows.len(), spec.count);
        for (w, wo) in out.windows.iter().enumerate() {
            let got = wo.ranks.as_ref().expect("full retention");
            let d = got.linf_distance(&expect[w]);
            assert!(d < 1e-7, "window {w}: linf {d}");
            assert!((wo.fingerprint - expect[w].fingerprint()).abs() < 1e-9);
        }
    }

    #[test]
    fn spmv_sequential_matches_reference() {
        check_against_reference(PostmortemConfig {
            kernel: KernelKind::SpMV,
            mode: ParallelMode::Sequential,
            pr: tight_cfg(),
            num_multiwindows: 3,
            ..Default::default()
        });
    }

    #[test]
    fn spmv_all_modes_match_reference() {
        for mode in [
            ParallelMode::WindowLevel,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ] {
            check_against_reference(PostmortemConfig {
                kernel: KernelKind::SpMV,
                mode,
                pr: tight_cfg(),
                num_multiwindows: 4,
                ..Default::default()
            });
        }
    }

    #[test]
    fn spmm_all_modes_match_reference() {
        for mode in [
            ParallelMode::Sequential,
            ParallelMode::WindowLevel,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ] {
            check_against_reference(PostmortemConfig {
                kernel: KernelKind::SpMM { lanes: 4 },
                mode,
                pr: tight_cfg(),
                num_multiwindows: 3,
                ..Default::default()
            });
        }
    }

    #[test]
    fn init_mode_does_not_change_results() {
        for init_mode in [InitMode::Full, InitMode::Partial] {
            check_against_reference(PostmortemConfig {
                kernel: KernelKind::SpMV,
                mode: ParallelMode::ApplicationLevel,
                init_mode,
                pr: tight_cfg(),
                ..Default::default()
            });
        }
    }

    #[test]
    fn partial_init_saves_iterations_on_overlapping_windows() {
        // Hub-heavy graph: the stationary distribution is far from uniform,
        // so a warm start from the (similar) previous window pays off.
        let mut events = Vec::new();
        for i in 0..600u32 {
            let (u, v) = if i % 3 != 0 {
                (0, 1 + i % 29)
            } else {
                (1 + (i * 7) % 29, 1 + (i * 13) % 29)
            };
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        let log = EventLog::from_unsorted(events, 30).unwrap();
        let spec = WindowSpec::covering(&log, 200, 25).unwrap(); // heavy overlap
        let mk = |init_mode| PostmortemConfig {
            kernel: KernelKind::SpMV,
            mode: ParallelMode::Sequential,
            init_mode,
            num_multiwindows: 2,
            pr: PrConfig {
                tol: 1e-10,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = |m| PostmortemEngine::new(&log, spec, mk(m)).unwrap().run();
        let partial = run(InitMode::Partial).total_iterations();
        let full = run(InitMode::Full).total_iterations();
        assert!(partial < full, "partial {partial} vs full {full}");
    }

    #[test]
    fn spmv_windows_bit_match_the_timestamp_scan_reference() {
        // Every engine window reads its part's window index; the unindexed
        // `pagerank_window`, walked over the same part's temporal CSR with
        // the same in-part seed chain, filters by timestamp instead. Local
        // ranks and stats must match bit for bit.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        for init_mode in [InitMode::Full, InitMode::Partial] {
            let cfg = PostmortemConfig {
                kernel: KernelKind::SpMV,
                mode: ParallelMode::Sequential,
                threads: 1,
                init_mode,
                pr: tight_cfg(),
                num_multiwindows: 3,
                ..Default::default()
            };
            let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
            let out = engine.run();
            let mut ws = PrWorkspace::default();
            for p in 0..engine.num_parts() {
                let part = engine.part(p).unwrap();
                let mut prev: Option<Vec<f64>> = None;
                for w in part.windows() {
                    let init = match &prev {
                        Some(x) if init_mode == InitMode::Partial => Init::Partial(x),
                        _ => Init::Uniform,
                    };
                    let t = part.tcsr();
                    let stats =
                        pagerank_window(t, t, spec.window(w), init, &tight_cfg(), None, &mut ws)
                            .unwrap();
                    let got = &out.windows[w];
                    let what = format!("{init_mode:?} window {w}");
                    assert_eq!(
                        (&got.status, got.attempts),
                        (&WindowStatus::Ok, 1),
                        "{what}"
                    );
                    assert_eq!(got.stats, stats, "{what}");
                    let expect = SparseRanks::from_local(ws.ranks(), part.vertex_map());
                    let ranks = got.ranks.as_ref().unwrap();
                    assert_eq!(ranks.vertices, expect.vertices, "{what}");
                    let bits = |r: &SparseRanks| -> Vec<u64> {
                        r.values.iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(ranks), bits(&expect), "{what}");
                    prev = Some(ws.ranks().to_vec());
                }
            }
        }
    }

    #[test]
    fn regions_reproduce_the_parents_two_region_walks() {
        // The oracle: the formulas of the two hand-written region walks
        // `Regions` replaced, one per walk — the window walk's slot count
        // (`spmm_part`) and the query walk's (`run_queries_inner`, whose
        // budget arrived clamped). They hold whenever batching shares
        // something or ranks are reused; when it shares nothing under full
        // init the budget they split is first cut to `max(AUTO_LANES,
        // chains)`.
        let window_slots = |lanes: usize, nw: usize| lanes.clamp(1, MAX_LANES).min(nw);
        let query_slots = |budget: usize, gnq: usize, nw: usize| (budget / gnq).max(1).min(nw);
        // Batch membership and every window's seed slot depend on the grid
        // point only through (nw, slots, chains): walked once per shape.
        let mut walked = std::collections::HashSet::new();
        for nw in 1..=130 {
            for budget in 1..=64 {
                for chains in 1..=64 {
                    for (reuse, unshared) in
                        [(false, false), (true, false), (true, true), (false, true)]
                    {
                        let parents = reuse || !unshared;
                        let split = if parents {
                            budget
                        } else {
                            budget.min(advisor::AUTO_LANES.max(chains))
                        };
                        let mut vl = query_slots(split.clamp(1, MAX_LANES), chains, nw);
                        if chains == 1 && parents {
                            assert_eq!(vl, window_slots(budget, nw));
                        }
                        if reuse {
                            vl = vl.min((nw / 2).max(1));
                        }
                        let region = nw.div_ceil(vl);
                        let r = Regions::new(budget, chains, nw, reuse, unshared);
                        assert_eq!(r.slots(), vl);
                        assert_eq!(r.batches(), region);
                        let last = (nw - 1) / region * chains;
                        assert_eq!(r.slot(nw - 1, chains - 1), last + chains - 1);
                        let heads = (0..vl).filter(|s| s * region < nw).count();
                        assert_eq!(r.batch(0).count(), heads);
                        if !walked.insert((nw, vl, chains)) {
                            continue;
                        }
                        let mut seen = vec![0u8; nw];
                        for j in 0..region {
                            let parent = (0..vl).map(|s| s * region + j).filter(|&lw| lw < nw);
                            assert!(r.batch(j).eq(parent), "nw {nw} vl {vl} batch {j}");
                            for lw in r.batch(j) {
                                seen[lw] += 1;
                                for c in [0, chains - 1] {
                                    assert_eq!(r.slot(lw, c), (lw / region) * chains + c);
                                }
                            }
                        }
                        assert!(seen.iter().all(|&n| n == 1), "nw {nw} vl {vl}");
                    }
                }
            }
        }
        // `batch-query`'s shape: 16 queries on 12 disjoint windows under
        // full init on an unthreaded kernel run 12 batches of one window;
        // overlapping windows or a threaded kernel keep the parent's 3
        // batches of 4, and so does any reuse.
        assert_eq!(Regions::new(64, 16, 12, false, true).batches(), 12);
        assert_eq!(Regions::new(64, 16, 12, false, false).batches(), 3);
        assert_eq!(Regions::new(64, 16, 12, true, true).batches(), 3);
    }

    #[test]
    fn one_shard_worker_rule_equals_the_parents_six_functions() {
        // The oracle: the six functions `shard_workers` replaced.
        fn resolve_worker_request(requested: usize) -> usize {
            if requested == 0 {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            } else {
                requested
            }
        }
        fn planned_workers(cfg: &PostmortemConfig) -> (usize, Option<WorkerCap>) {
            let requested = resolve_worker_request(cfg.storage_workers);
            if requested <= 1 {
                return (1, None);
            }
            match cfg.mode {
                ParallelMode::Sequential | ParallelMode::ApplicationLevel => {}
                _ => return (1, Some(WorkerCap::PartParallelMode)),
            }
            (requested, None)
        }
        fn storage_worker_plan(cfg: &PostmortemConfig, parts: usize) -> (usize, Option<WorkerCap>) {
            let (w, cap) = planned_workers(cfg);
            if w > parts {
                return (parts.max(1), Some(WorkerCap::Parts));
            }
            (w, cap)
        }
        fn runtime_worker_plan(
            cfg: &PostmortemConfig,
            parts: usize,
            resumed: bool,
        ) -> (usize, Option<WorkerCap>) {
            let (w, cap) = storage_worker_plan(cfg, parts);
            if w > 1 && resumed {
                return (1, Some(WorkerCap::Resume));
            }
            (w, cap)
        }
        let mut rows = 0;
        for mode in [
            ParallelMode::Sequential,
            ParallelMode::WindowLevel,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ] {
            for init_mode in [InitMode::Full, InitMode::Partial] {
                for storage_workers in [0, 1, 2, 4] {
                    let cfg = PostmortemConfig {
                        mode,
                        init_mode,
                        storage_workers,
                        ..Default::default()
                    };
                    assert_eq!(shard_workers(&cfg, None, false), planned_workers(&cfg));
                    for parts in [1, 2, 5] {
                        let plan = storage_worker_plan(&cfg, parts);
                        assert_eq!(shard_workers(&cfg, Some(parts), false), plan);
                        for resumed in [false, true] {
                            let (w, cap) = runtime_worker_plan(&cfg, parts, resumed);
                            assert_eq!(shard_workers(&cfg, Some(parts), resumed), (w, cap));
                            // `storage.workers_capped` used to test
                            // `cap && w < requested`; a cap alone says it.
                            let capped = w < resolve_worker_request(storage_workers);
                            assert_eq!(cap.is_some(), cap.is_some() && capped);
                            rows += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(rows, 4 * 2 * 4 * 3 * 2);
    }

    #[test]
    fn pooled_prefetch_builds_the_next_parts_window_index() {
        // A pooled, pipelined run prefetches the next part and builds its
        // window index off the critical path. Cached parts are checked
        // after the run, so this holds under every claim order.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let dir = std::env::temp_dir().join(format!("tempopr_engine_pf_{}", std::process::id()));
        for storage in [
            StorageBackend::Compressed,
            StorageBackend::OnDisk { dir: dir.clone() },
        ] {
            let cfg = PostmortemConfig {
                mode: ParallelMode::Sequential,
                storage: storage.clone(),
                storage_workers: 2,
                pipeline: true,
                num_multiwindows: 4,
                pr: tight_cfg(),
                ..Default::default()
            };
            let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
            assert_eq!(engine.storage_worker_plan(), (2, None));
            assert!(!engine.run().degraded);
            let parts = engine.num_parts();
            let indexed = (0..parts).filter(|&p| engine.store.part_ready(p)).count();
            assert!(indexed > 0, "{storage} indexed {indexed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_in_order_walks_prefetch_every_next_part_and_decode_each_once() {
        // Both kernels walk parts in order through one part step: with the
        // pipeline on, every part but the last has its successor prefetched
        // under it, and since the walk pins its own part before the
        // prefetch evicts, every part is decoded exactly once.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let dir = std::env::temp_dir().join(format!("tempopr_engine_walk_{}", std::process::id()));
        let run = |kernel, storage: &StorageBackend, pipeline| {
            let cfg = PostmortemConfig {
                kernel,
                mode: ParallelMode::Sequential,
                init_mode: InitMode::Partial,
                threads: 1,
                storage: storage.clone(),
                pipeline,
                num_multiwindows: 4,
                pr: tight_cfg(),
                ..Default::default()
            };
            let tele = Telemetry::enabled();
            let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone()).unwrap();
            let out = engine.run();
            (engine.num_parts() as u64, out, tele.report())
        };
        let summary = |out: &RunOutput| -> Vec<_> {
            let w = out.windows.iter();
            w.map(|w| {
                (
                    w.status.clone(),
                    w.stats.iterations,
                    w.fingerprint.to_bits(),
                )
            })
            .collect()
        };
        for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
            for storage in [
                StorageBackend::Compressed,
                StorageBackend::OnDisk { dir: dir.clone() },
            ] {
                let what = format!("{kernel:?} {storage}");
                let (_, serial, _) = run(kernel, &storage, false);
                for _ in 0..10 {
                    let (parts, out, report) = run(kernel, &storage, true);
                    assert!(parts >= 3, "{what}: {parts} parts");
                    assert_eq!(report.counter("pipeline.prefetches"), parts - 1, "{what}");
                    assert_eq!(report.counter("storage.decodes"), parts, "{what}");
                    assert_eq!(summary(&out), summary(&serial), "{what}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_storage_workers_means_the_runs_thread_budget() {
        // `storage_workers: 0` asks for the run's thread budget, not every
        // core: one thread, one shard worker.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let cfg = PostmortemConfig {
            mode: ParallelMode::ApplicationLevel,
            init_mode: InitMode::Full,
            threads: 1,
            storage_workers: 0,
            num_multiwindows: 4,
            ..Default::default()
        };
        let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
        assert!(engine.num_parts() >= 2);
        assert_eq!(engine.storage_worker_plan(), (1, None));
    }

    #[test]
    fn auto_runs_the_explicit_plan_it_resolves_to_bit_for_bit() {
        // δ 20 / sw 40 leaves every window disjoint from the next; δ 60 /
        // sw 25 shares more than half of each window with its successor.
        let log = test_log();
        let spmm16 = KernelKind::SpMM { lanes: 16 };
        for (delta, sw, kernel, init_mode) in [
            (20, 40, KernelKind::SpMV, InitMode::Full),
            (60, 25, spmm16, InitMode::Partial),
        ] {
            let spec = WindowSpec::covering(&log, delta, sw).unwrap();
            let build = |cfg: PostmortemConfig| {
                let tele = Telemetry::enabled();
                let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone());
                let engine = engine.unwrap();
                let out = engine.run();
                assert!(!out.degraded);
                (
                    engine.config().clone(),
                    engine.num_parts(),
                    out,
                    tele.report(),
                )
            };
            // One thread: on more, a disjoint log keeps SpMM (the kernel
            // would get a multi-threaded scheduler).
            let (auto_cfg, auto_parts, auto, report) = build(PostmortemConfig {
                threads: 1,
                pr: tight_cfg(),
                ..Default::default()
            });
            let (explicit_cfg, explicit_parts, explicit, explicit_report) =
                build(PostmortemConfig {
                    kernel,
                    init_mode,
                    // The part count an `Auto` kernel keeps: SpMM{16}'s.
                    num_multiwindows: auto_multiwindows(&spec, spmm16),
                    threads: 1,
                    pr: tight_cfg(),
                    ..Default::default()
                });
            assert_eq!((auto_cfg.kernel, auto_cfg.init_mode), (kernel, init_mode));
            assert_eq!(explicit_cfg.kernel, kernel);
            assert_eq!(auto_parts, explicit_parts);
            assert_eq!(auto.windows.len(), spec.count);
            for (a, e) in auto.windows.iter().zip(&explicit.windows) {
                assert_eq!(a, e, "delta {delta} sw {sw} window {}", a.window);
                assert_eq!(a.fingerprint.to_bits(), e.fingerprint.to_bits());
            }
            let lanes = if kernel == KernelKind::SpMV {
                0.0
            } else {
                16.0
            };
            assert_eq!(report.gauge("plan.kernel_lanes"), Some(lanes));
            assert_eq!(report.gauge("plan.auto_fields"), Some(2.0));
            assert_eq!(explicit_report.gauge("plan.auto_fields"), Some(0.0));
            assert_eq!(report.gauge("init.mode"), Some(f64::from(init_mode as u8)));
            let overlap = report.gauge("plan.mean_overlap").unwrap();
            assert_eq!(
                overlap < advisor::OVERLAP_FULL_BELOW,
                kernel == KernelKind::SpMV
            );
        }
    }

    #[test]
    fn many_multiwindows_match_few() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let mk = |y| PostmortemConfig {
            num_multiwindows: y,
            pr: tight_cfg(),
            ..Default::default()
        };
        let a = PostmortemEngine::new(&log, spec, mk(1)).unwrap().run();
        let b = PostmortemEngine::new(&log, spec, mk(spec.count))
            .unwrap()
            .run();
        for (x, y) in a.windows.iter().zip(b.windows.iter()) {
            let d = x
                .ranks
                .as_ref()
                .unwrap()
                .linf_distance(y.ranks.as_ref().unwrap());
            assert!(d < 1e-7, "window {}: {d}", x.window);
        }
    }

    #[test]
    fn all_partitioners_produce_identical_rankings() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let base = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                pr: tight_cfg(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        for part in [Partitioner::Simple, Partitioner::Static] {
            for g in [1, 4, 64] {
                let cfg = PostmortemConfig {
                    scheduler: Scheduler::new(part, g),
                    pr: tight_cfg(),
                    ..Default::default()
                };
                let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
                for (x, y) in base.windows.iter().zip(out.windows.iter()) {
                    assert!((x.fingerprint - y.fingerprint).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn summary_retention_drops_vectors_but_keeps_fingerprint() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let full = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                pr: tight_cfg(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        let summary = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                retain: RetainMode::Summary,
                pr: tight_cfg(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        for (f, s) in full.windows.iter().zip(summary.windows.iter()) {
            assert!(s.ranks.is_none());
            assert!(f.ranks.is_some());
            assert!((f.fingerprint - s.fingerprint).abs() < 1e-9);
        }
    }

    #[test]
    fn explicit_thread_count_works() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let cfg = PostmortemConfig {
            threads: 2,
            pr: tight_cfg(),
            ..Default::default()
        };
        let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
        assert_eq!(out.windows.len(), spec.count);
    }

    #[test]
    fn equal_events_partitioning_matches_equal_windows() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let a = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                pr: tight_cfg(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        let b = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                partition: tempopr_graph::PartitionStrategy::EqualEvents,
                pr: tight_cfg(),
                ..Default::default()
            },
        )
        .unwrap()
        .run();
        for (x, y) in a.windows.iter().zip(b.windows.iter()) {
            assert!(
                (x.fingerprint - y.fingerprint).abs() < 1e-9,
                "window {}",
                x.window
            );
        }
    }
}
