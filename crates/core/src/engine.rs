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
//! - **Nested** does both on one rayon pool.
//! - **SpMM region scheduling** (§4.4, `Regions`) splits each part's
//!   windows into contiguous regions and batches the `j`-th window of every
//!   region, each batch partially initialized from the previous one. The
//!   window walk and the query walk ([`crate::query`]) share it.
//! - Under [`InitMode::Partial`] reuse never crosses a multi-window
//!   boundary (§4.2): vertex numberings differ between parts. Under
//!   [`InitMode::Warm`] the in-order walks carry the last converged vector
//!   across the boundary by remapping it through the two parts' vertex
//!   maps ([`crate::warmstart`]), and the SpMM path additionally seeds
//!   every lane of a part's *first* batch from the carried vector — the
//!   two places a cold start previously survived despite heavy overlap.
//!   Part-parallel modes (window-level, nested SpMM over parts) have no
//!   previous part on-thread and keep their boundary cold starts.
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
use crate::checkpoint::{
    self, CheckpointError, CheckpointOptions, CheckpointRecord, CheckpointSink,
};
use crate::config::{InitMode, KernelKind, ParallelMode, PostmortemConfig};
use crate::error::EngineError;
use crate::exec::{
    classify_converged, isolate, oracle_for, run_windows, Prefetcher, ShardedSource, WindowExecutor,
};
use crate::observe::TelemetryKernelBridge;
use crate::result::{RunOutput, WindowOutput, WindowStatus};
use crate::storage::{PartRef, StorageBackend, TcsrStorage};
use crate::warmstart;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use tempopr_graph::{plan_partition, EventLog, MultiWindowGraph, StorageError, WindowSpec};
use tempopr_kernel::{
    overlap, pagerank_batch_indexed_obs, pagerank_batch_obs, pagerank_window_indexed_obs,
    pagerank_window_obs, thread_pool, worker_pool, BatchObs, Init, Obs, PrConfig, PrStats,
    PrWorkspace, Scheduler, SpmmWorkspace,
};
use tempopr_telemetry::{Phase as RunPhase, Telemetry};

pub use crate::exec::MAX_ORACLE_ACTIVE;

/// A ready-to-run postmortem analysis: the multi-window representation plus
/// the execution configuration.
pub struct PostmortemEngine {
    store: TcsrStorage,
    cfg: PostmortemConfig,
    pool: Option<rayon::ThreadPool>,
    tele: Telemetry,
    /// Event-log fingerprint, fixed at build time for the checkpoint
    /// manifest header (the engine does not retain the log itself).
    log_fp: u64,
    /// Whether lanes of different windows gain nothing from one batch
    /// ([`advisor::batching_shares_nothing`]), which the region walk's
    /// lane budget reads.
    unshared: bool,
    /// Run-scoped durable sink, set only inside
    /// [`PostmortemEngine::run_durable`]; `executor()` attaches it so
    /// every finalized window is persisted without threading a parameter
    /// through the kernel walks.
    ckpt: Mutex<Option<Arc<CheckpointSink>>>,
}

/// Where a (possibly resumed) run starts and how its first window is
/// seeded: `seed` holds the part index and part-local ranks of the last
/// durable window, reproducing the in-order walk state an uninterrupted
/// run would have at `start`.
#[derive(Debug, Clone, Default)]
struct RunPlan {
    start: usize,
    seed: Option<(usize, Vec<f64>)>,
}

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
                cfg.symmetric,
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
            cfg.symmetric,
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
        let pool = if cfg.threads > 0 {
            Some(thread_pool(cfg.threads)?)
        } else {
            None
        };
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
    pub(crate) fn pool(&self) -> Option<&rayon::ThreadPool> {
        self.pool.as_ref()
    }

    /// Computes PageRank for every window and returns the per-window
    /// outputs in window order.
    ///
    /// This never fails as a whole: windows that cannot produce valid
    /// ranks (even through the recovery ladder) are reported as
    /// [`WindowStatus::Failed`] and the output's `degraded` flag is set.
    pub fn run(&self) -> RunOutput {
        self.run_with_plan(RunPlan::default(), Vec::new())
    }

    /// [`PostmortemEngine::run`] with durability: when `opts` names a
    /// checkpoint directory, every finalized window is persisted as a
    /// `tempopr.ckpt.v1` record ([`crate::checkpoint`]); when it names a
    /// resume source, the manifest's valid prefix is verified against this
    /// engine's config hash and event-log fingerprint, completed windows
    /// are restored instead of recomputed, and the in-order walk is
    /// re-seeded from the last durable window so the combined output is
    /// bit-identical to an uninterrupted run.
    ///
    /// Resuming a non-empty prefix requires an in-order mode
    /// ([`ParallelMode::Sequential`] or [`ParallelMode::ApplicationLevel`]):
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
        let header = checkpoint::ManifestHeader::new(
            checkpoint::DRIVER_POSTMORTEM,
            self.config_hash(),
            self.log_fp,
            self.spec(),
        );
        let count = self.spec().count;
        let mut prefix: Vec<CheckpointRecord> = Vec::new();
        if let Some(from) = &opts.resume {
            let scan = {
                let _t = self.tele.phase(RunPhase::ResumeScan);
                checkpoint::resume_scan(from, &header)?
            };
            self.tele
                .add("checkpoint.corrupt_discarded", scan.corrupt_discarded);
            prefix = scan.records;
            prefix.truncate(count);
            if !prefix.is_empty() {
                match self.cfg.mode {
                    ParallelMode::Sequential | ParallelMode::ApplicationLevel => {}
                    _ => {
                        return Err(CheckpointError::Unsupported(
                            "postmortem resume needs an in-order mode (sequential or \
                             application-level); part-parallel grain chains are not \
                             reproducible from a trimmed window range"
                                .into(),
                        )
                        .into())
                    }
                }
                if matches!(self.cfg.kernel, KernelKind::SpMM { .. }) && prefix.len() < count {
                    let boundary = self
                        .store
                        .part_windows(self.part_index_of(prefix.len()))
                        .start;
                    prefix.truncate(boundary);
                }
            }
        }
        let k = prefix.len();
        self.tele.add("checkpoint.resume_skipped", k as u64);
        let seed = (k > 0 && k < count)
            .then(|| {
                let last = &prefix[k - 1];
                last.status.is_valid().then(|| {
                    let p = self.part_index_of(k - 1);
                    (p, last.ranks.to_local(self.store.vertex_map(p)))
                })
            })
            .flatten();
        let restored: Vec<WindowOutput> = prefix
            .iter()
            .map(|r| r.to_output(self.cfg.retain))
            .collect();
        if let Some(dir) = &opts.dir {
            let sink = CheckpointSink::create(
                dir,
                &header,
                &prefix,
                opts.every,
                self.cfg.faults.crash_after_checkpoint,
                self.tele.clone(),
            )?;
            *lock(&self.ckpt) = Some(Arc::new(sink));
        }
        let out = self.run_with_plan(RunPlan { start: k, seed }, restored);
        if let Some(sink) = lock(&self.ckpt).take() {
            sink.finish();
        }
        Ok(out)
    }

    /// The compatibility hash of this run's configuration: FNV-1a over the
    /// config's `Debug` rendering with crash injection masked out (the
    /// crashed run and its resume differ exactly there). The storage
    /// backend and memory budget are masked too — decoded parts are
    /// bit-identical to resident ones, so a checkpoint taken under one
    /// backend resumes under any other — with the *resolved* part count
    /// hashed in their place (partitioning does shape the in-order walk).
    /// The shard-worker count is masked for the same reason: pooled parts
    /// produce the serial walk's ranks bit for bit.
    fn config_hash(&self) -> u64 {
        let mut c = self.cfg.clone();
        c.faults.crash_after_checkpoint = None;
        c.storage = StorageBackend::Resident;
        c.memory_budget = None;
        c.storage_workers = 1;
        c.num_multiwindows = self.store.num_parts();
        checkpoint::hash_config(&format!("{c:?}"))
    }

    fn run_with_plan(&self, plan: RunPlan, mut restored: Vec<WindowOutput>) -> RunOutput {
        self.tele
            .set_gauge("init.mode", f64::from(self.cfg.init_mode as u8));
        let parts = Some(self.store.num_parts());
        let (workers, cap) = shard_workers(&self.cfg, parts, plan.start > 0 || plan.seed.is_some());
        self.tele.set_gauge("storage.workers", workers as f64);
        if cap.is_some() {
            self.tele.add("storage.workers_capped", 1);
        }
        let mut out = match &self.pool {
            Some(p) => p.install(|| self.run_inner(&plan, workers)),
            None => self.run_inner(&plan, workers),
        };
        out.windows.append(&mut restored);
        out.windows.sort_by_key(|w| w.window);
        out.finalize_status();
        out.assert_complete(self.spec().count);
        self.tele.add("windows.total", out.windows.len() as u64);
        self.tele
            .set_gauge("run.degraded", f64::from(u8::from(out.degraded)));
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

    fn run_inner(&self, plan: &RunPlan, workers: usize) -> RunOutput {
        let windows = match self.cfg.kernel {
            KernelKind::SpMM { lanes } => self.run_spmm(lanes, plan, workers),
            // SpMV: a built engine holds no `Auto`.
            _ => self.run_spmv(plan, workers),
        };
        RunOutput {
            windows,
            degraded: false, // recomputed by finalize_status
        }
    }

    /// Whether any previous-rank seeding is enabled (`Partial` or `Warm`).
    fn reuse_ranks(&self) -> bool {
        self.cfg.init_mode != InitMode::Full
    }

    /// The region walk of one part's `nw` windows under a lane `budget`
    /// split into `chains` lanes per window slot, for this run's init mode,
    /// measured overlap and scheduler ([`Regions::new`]).
    pub(crate) fn regions(&self, budget: usize, chains: usize, nw: usize) -> Regions {
        Regions::new(budget, chains, nw, self.reuse_ranks(), self.unshared)
    }

    /// Whether cross-boundary carry is enabled.
    fn warm(&self) -> bool {
        self.cfg.init_mode == InitMode::Warm
    }

    /// Decides how the next window of an in-order walk is seeded, given
    /// which part produced the previous valid vector. A same-part
    /// predecessor is used directly (the Eq. 4 path); under
    /// [`InitMode::Warm`] a cross-part predecessor is remapped into
    /// `carry_buf`, falling back to a cold start (and counting the
    /// degenerate carry) when no usable mass survives the boundary.
    fn seed_for(
        &self,
        part_idx: usize,
        prev_part: Option<usize>,
        prev: &[f64],
        carry_buf: &mut Vec<f64>,
    ) -> Seed {
        match prev_part {
            Some(p) if p == part_idx && self.reuse_ranks() => Seed::InPart,
            Some(p) if p != part_idx && self.warm() => {
                if self.carry_across(p, prev, part_idx, carry_buf) {
                    self.tele.add("warmstart.seeded_windows", 1);
                    Seed::Carried
                } else {
                    Seed::Cold
                }
            }
            _ => Seed::Cold,
        }
    }

    /// The one cross-part carry, of the in-order window walks and the query
    /// walk: remaps `ranks` (local to part `from`) into part `to`'s vertex
    /// space. `false` — counted as a degenerate carry, `out` unusable —
    /// when no usable mass survives the boundary; the caller starts cold.
    pub(crate) fn carry_across(
        &self,
        from: usize,
        ranks: &[f64],
        to: usize,
        out: &mut Vec<f64>,
    ) -> bool {
        let (from, to) = (self.store.vertex_map(from), self.store.vertex_map(to));
        let carried = warmstart::carry_ranks(from, ranks, to, out).is_some();
        if !carried {
            self.tele.add("warmstart.degenerate_windows", 1);
        }
        carried
    }

    /// The scheduler handed *into* each kernel
    /// ([`ParallelMode::parallel_kernel`]).
    pub(crate) fn inner_scheduler(&self) -> Option<&Scheduler> {
        self.cfg
            .mode
            .parallel_kernel()
            .then_some(&self.cfg.scheduler)
    }

    // --- Shard worker pool ------------------------------------------------

    /// The shard-worker count a plain [`PostmortemEngine::run`] will use,
    /// plus the reason it was capped below the request (if it was). Ranks
    /// are bit-identical at every count: configurations whose seeding
    /// crosses part boundaries in order run serial instead of silently
    /// changing results, and this is where callers learn why.
    pub fn storage_worker_plan(&self) -> (usize, Option<WorkerCap>) {
        shard_workers(&self.cfg, Some(self.store.num_parts()), false)
    }

    /// Runs the per-part computation over independent parts on the shard
    /// worker pool: each worker claims the next unprocessed part from a
    /// shared queue, and — when the pipeline is on — prefetches the part
    /// after it ([`PostmortemEngine::prefetch_part`]) while its own part
    /// computes. Only reached by configurations whose seeding never
    /// crosses part boundaries, so the concatenated outputs are
    /// bit-identical to the serial in-order walk.
    fn pooled_parts<F>(&self, workers: usize, compute: F) -> Vec<WindowOutput>
    where
        F: Fn(usize) -> Vec<WindowOutput> + Sync,
    {
        let results = worker_pool(workers, self.store.num_parts(), |p, q| {
            if self.cfg.pipeline {
                let next = q.peek();
                let (_bg, out, stall) =
                    overlap(|| next.map(|n| self.prefetch_part(n)), || compute(p));
                self.tele.add_phase_ns(
                    RunPhase::PipelineStall,
                    u64::try_from(stall.as_nanos()).unwrap_or(u64::MAX),
                );
                self.tele.add("pipeline.prefetches", 1);
                out
            } else {
                compute(p)
            }
        });
        results.into_iter().flatten().collect()
    }

    /// The one next-part prefetch, of the in-order prefetcher and the shard
    /// pool: the non-resident backends decode part `p` into a *free* cache
    /// slot (the prefetch slot the budget was charged for) and decline when
    /// none is available, so a prefetch never overshoots the certified
    /// bound; then, when the run is indexed, the part's window index is
    /// built off the critical path. A declined or failed prefetch is
    /// dropped: the walk's own fetch of the part surfaces any error.
    fn prefetch_part(&self, p: usize) {
        let available =
            matches!(self.store.backend(), StorageBackend::Resident) || self.store.prefetch(p);
        if available && self.cfg.use_window_index {
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
    /// behind `seed` (`None` for a cold start). Returns the finalized
    /// output and, when the window is valid, its local ranks: the next
    /// window's seed. After a failed window the next one starts cold.
    fn single_window(
        &self,
        part: &MultiWindowGraph,
        w: usize,
        seed: Seed,
        prev: Option<&[f64]>,
        ws: &mut PrWorkspace,
        meter: &mut SavingsMeter,
    ) -> (WindowOutput, Option<Vec<f64>>) {
        let range = self.spec().window(w);
        let inner = self.inner_scheduler();
        let (pull, push) = (part.pull_tcsr(), part.tcsr());
        let prcfg = PrConfig {
            fault: self.cfg.faults.fault_for(w),
            ..self.cfg.pr
        };
        let n_local = pull.num_vertices();
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
                if self.cfg.use_window_index {
                    let view = part.index_view(w);
                    pagerank_window_indexed_obs(pull, push, &view, init, &prcfg, inner, ws, obs)
                } else {
                    pagerank_window_obs(pull, push, range, init, &prcfg, inner, ws, obs)
                }
            };
            let oracle = || oracle_for(pull, push, range, &self.cfg.pr, MAX_ORACLE_ACTIVE);
            self.executor()
                .drive(w as u32, warm, n_local, kernel, oracle)
        };
        if !status.is_valid() {
            // A panic may have left the workspace inconsistent.
            *ws = PrWorkspace::default();
        }
        let ranks = match override_ranks {
            Some(x) => x,
            None => ws.ranks().to_vec(),
        };
        let valid = status.is_valid();
        meter.record(&self.tele, seed, valid, stats.iterations);
        let output = self.make_output(w, part, stats, &ranks, status, attempts);
        (output, valid.then_some(ranks))
    }

    // --- SpMV path ------------------------------------------------------

    fn run_spmv(&self, plan: &RunPlan, workers: usize) -> Vec<WindowOutput> {
        let count = self.spec().count;
        let sched = &self.cfg.scheduler;
        if workers > 1 {
            // Pool eligibility (in-order mode, no warm carry, no resume)
            // was checked by the worker plan: every part cold-starts its
            // first window exactly as the serial walk would.
            return self.pooled_parts(workers, |p| {
                self.spmv_chunk(self.store.part_windows(p), None, None)
            });
        }
        let pf = self.prefetcher();
        let pf = pf.as_ref().map(|p| p as &dyn Prefetcher);
        match self.cfg.mode {
            ParallelMode::Sequential | ParallelMode::ApplicationLevel => {
                self.spmv_chunk(plan.start..count, pf, plan.seed.clone())
            }
            // Resume never reaches the part-parallel modes (run_durable
            // rejects them with a non-empty prefix), so plan is trivial.
            ParallelMode::WindowLevel | ParallelMode::Nested => sched.map_reduce_range(
                count,
                Vec::new(),
                |r| self.spmv_chunk(r, None, None),
                concat,
            ),
        }
    }

    /// The window-index prefetcher, when the in-order walks should overlap
    /// the next part's setup (decode-on-touch for the non-resident
    /// backends, then index construction) with the current kernel.
    fn prefetcher(&self) -> Option<PartIndexPrefetcher<'_>> {
        (self.cfg.pipeline && self.cfg.use_window_index && self.store.num_parts() > 1)
            .then_some(PartIndexPrefetcher { engine: self })
    }

    /// Finalizes one window as `Failed` because its part could not be
    /// fetched from storage (decode error, i/o failure). Mirrors the
    /// recovery ladder's contract: the failure is contained, the walk
    /// continues.
    fn fetch_failed_output(&self, w: usize, part_idx: usize, err: &StorageError) -> WindowOutput {
        self.tele.add("storage.fetch_failures", 1);
        let map = self.store.vertex_map(part_idx);
        let zeros = vec![0.0; map.len()];
        self.executor().finalize(
            w,
            Some(map),
            PrStats::empty(),
            &zeros,
            WindowStatus::Failed {
                diagnostic: format!("storage fetch failed: {err}"),
            },
            1,
        )
    }

    /// [`PostmortemEngine::fetch_failed_output`] for a whole part (the
    /// batched SpMM walk fetches per part, not per window).
    fn failed_part_outputs(&self, part_idx: usize, err: &StorageError) -> Vec<WindowOutput> {
        self.store
            .part_windows(part_idx)
            .map(|w| self.fetch_failed_output(w, part_idx, err))
            .collect()
    }

    /// Processes a contiguous run of windows in order on the current
    /// thread, threading partial initialization through consecutive windows
    /// of the same multi-window graph.
    fn spmv_chunk(
        &self,
        windows: std::ops::Range<usize>,
        prefetcher: Option<&dyn Prefetcher>,
        resume: Option<(usize, Vec<f64>)>,
    ) -> Vec<WindowOutput> {
        let mut ws = PrWorkspace::default();
        // A resume seed replays the walk state as of the first window: the
        // last durable window's part and local ranks (absent if it failed,
        // so the first recomputed window cold-starts exactly as the
        // uninterrupted walk would after an invalid window).
        let (mut prev, mut prev_part): (Vec<f64>, Option<usize>) = match resume {
            Some((p, ranks)) => (ranks, Some(p)),
            None => (Vec::new(), None),
        };
        let mut carry_buf: Vec<f64> = Vec::new();
        let mut meter = SavingsMeter::default();
        let mut source = ShardedSource::new(&self.store);
        run_windows(
            &mut source,
            windows,
            prefetcher,
            &self.tele,
            |_, w, (part_idx, fetched)| {
                let part_idx = *part_idx;
                let part: &MultiWindowGraph = match fetched {
                    Ok(p) => p,
                    Err(e) => {
                        // A lost shard breaks the warm chain like any
                        // other failed window.
                        prev_part = None;
                        return self.fetch_failed_output(w, part_idx, e);
                    }
                };
                let seed = self.seed_for(part_idx, prev_part, &prev, &mut carry_buf);
                let seed_ref = match seed {
                    Seed::Cold => None,
                    Seed::InPart => Some(prev.as_slice()),
                    Seed::Carried => Some(carry_buf.as_slice()),
                };
                let (output, ranks) =
                    self.single_window(part, w, seed, seed_ref, &mut ws, &mut meter);
                // Keep this window's ranks as the next window's previous
                // vector; after a failed window the next one starts cold.
                prev_part = ranks.is_some().then_some(part_idx);
                if let Some(ranks) = ranks {
                    prev = ranks;
                }
                output
            },
        )
    }

    // --- SpMM path ------------------------------------------------------

    fn run_spmm(&self, lanes: usize, plan: &RunPlan, workers: usize) -> Vec<WindowOutput> {
        let parts = self.store.num_parts();
        let sched = &self.cfg.scheduler;
        // A part walked with no carry in: what the pool and the
        // part-parallel modes run.
        let cold_part = |p| {
            self.spmm_part(p, lanes, None, &mut SavingsMeter::default())
                .0
        };
        if workers > 1 {
            // No carry reaches a pooled part (the worker plan already
            // excluded warm mode), so each part's batches are exactly the
            // serial walk's.
            return self.pooled_parts(workers, cold_part);
        }
        // The part-parallel modes cannot carry across parts (each part may
        // start before its predecessor finished); the carry chain belongs
        // to the in-order modes, mirroring the SpMV grain semantics.
        match self.cfg.mode {
            ParallelMode::Sequential | ParallelMode::ApplicationLevel => {
                self.spmm_in_order(lanes, plan)
            }
            ParallelMode::WindowLevel | ParallelMode::Nested => sched.map_reduce_range(
                parts,
                Vec::new(),
                |r| r.flat_map(cold_part).collect(),
                concat,
            ),
        }
    }

    /// The in-order SpMM walk over parts, threading the cross-part carry:
    /// each part's last converged window seeds the next part's first batch
    /// (remapped between local vertex spaces) under [`InitMode::Warm`].
    fn spmm_in_order(&self, lanes: usize, plan: &RunPlan) -> Vec<WindowOutput> {
        let mut out: Vec<WindowOutput> = Vec::new();
        let mut meter = SavingsMeter::default();
        // The previous part's final local ranks, and which part they're in.
        // A resume plan starts at a part boundary with exactly that shape:
        // the preceding part's last durable window as the incoming carry.
        let mut carry: Option<(usize, Vec<f64>)> = plan.seed.clone();
        let mut mapped: Vec<f64> = Vec::new();
        let start_part = self.part_index_of(plan.start);
        for p in start_part..self.store.num_parts() {
            let seed: Option<&[f64]> = match &carry {
                Some((q, ranks)) if self.warm() && self.carry_across(*q, ranks, p, &mut mapped) => {
                    Some(mapped.as_slice())
                }
                _ => None,
            };
            let (mut w_out, carry_out) = self.spmm_part(p, lanes, seed, &mut meter);
            out.append(&mut w_out);
            // A part whose last window failed breaks the chain: the next
            // part starts cold rather than reusing a poisoned seed.
            carry = carry_out.map(|ranks| (p, ranks));
        }
        out
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
    ///
    /// `carry` is the previous part's final converged vector, already
    /// remapped into this part's local vertex space: when present it seeds
    /// the first window of *every* region, closing the hole where batch 0
    /// always cold-started (and where a vector length of `nw` made every
    /// window batch-0, silently erasing partial init entirely). Returns
    /// the outputs plus the part's own carry-out — the last window's local
    /// ranks, `None` if that window failed (a poisoned seed must not
    /// escape) or when warm carry is off.
    fn spmm_part(
        &self,
        part_idx: usize,
        lanes: usize,
        carry: Option<&[f64]>,
        meter: &mut SavingsMeter,
    ) -> (Vec<WindowOutput>, Option<Vec<f64>>) {
        let inner = self.inner_scheduler();
        let fetched = match self.store.part(part_idx) {
            Ok(p) => p,
            Err(e) => return (self.failed_part_outputs(part_idx, &e), None),
        };
        let part: &MultiWindowGraph = &fetched;
        let w0 = part.windows().start;
        let mut regions = self.regions(lanes, 1, part.num_windows());
        if let Some(seed) = carry {
            self.tele
                .add("warmstart.seeded_windows", regions.seed_heads(0, seed));
        }
        let mut ws = SpmmWorkspace::default();
        let mut pr_ws = PrWorkspace::default();
        // One deinterleave buffer for the whole partition: every converged
        // lane is copied out through it instead of allocating a fresh
        // vector per lane per batch.
        let mut lane_buf: Vec<f64> = Vec::new();
        let mut out: Vec<WindowOutput> = Vec::with_capacity(part.num_windows());
        for j in 0..regions.batches() {
            // Faulted windows leave the batch and run individually through
            // the full recovery ladder.
            let (clean, faulted): (Vec<usize>, Vec<usize>) = regions
                .batch(j)
                .partition(|&lw| self.cfg.faults.fault_for(w0 + lw).is_none());
            for &lw in &faulted {
                out.push(self.solo_lane(part, j, lw, &mut regions, &mut pr_ws, meter));
            }
            if clean.is_empty() {
                continue;
            }
            let ranges: Vec<_> = clean
                .iter()
                .map(|&lw| self.spec().window(w0 + lw))
                .collect();
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
                let (pull, push) = (part.pull_tcsr(), part.tcsr());
                let obs = if self.tele.is_enabled() {
                    BatchObs::new(&bridge, &win_ids)
                } else {
                    BatchObs::off()
                };
                isolate(|| {
                    if self.cfg.use_window_index {
                        let index = part.window_index();
                        let views: Vec<_> = clean.iter().map(|&lw| index.view(lw)).collect();
                        pagerank_batch_indexed_obs(
                            pull,
                            push,
                            &views,
                            &inits,
                            &self.cfg.pr,
                            inner,
                            &mut ws,
                            obs,
                        )
                    } else {
                        pagerank_batch_obs(
                            pull,
                            push,
                            &ranges,
                            &inits,
                            &self.cfg.pr,
                            inner,
                            &mut ws,
                            obs,
                        )
                    }
                })
            };
            let nlanes = clean.len();
            match batch {
                Ok(Ok(stats)) => {
                    lane_buf.resize(ws.x.len() / nlanes, 0.0);
                    for (i, &lw) in clean.iter().enumerate() {
                        let st = stats[i];
                        if st.converged || self.cfg.pr.max_iters == 0 {
                            let status = classify_converged(&st);
                            ws.copy_lane_into(i, nlanes, &mut lane_buf);
                            let kind = seed_kind(&regions, j, lw);
                            meter.record(&self.tele, kind, true, st.iterations);
                            out.push(self.make_output(w0 + lw, part, st, &lane_buf, status, 1));
                            regions.keep(lw, 0, &lane_buf);
                        } else {
                            // Per-lane escalation: recompute this window
                            // alone through the recovery ladder.
                            out.push(self.solo_lane(part, j, lw, &mut regions, &mut pr_ws, meter));
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
                        out.push(self.solo_lane(part, j, lw, &mut regions, &mut pr_ws, meter));
                    }
                }
            }
        }
        // The part's own carry: its last window's converged local ranks (a
        // failed final window broke its chain, so the next part starts cold).
        let carry_out = if self.warm() {
            regions.carry_out(0)
        } else {
            None
        };
        (out, carry_out)
    }

    /// Part-local window `lw` of batch `j` of an SpMM part solved alone — a
    /// faulted lane, an escalated lane, or every lane of a failed batch:
    /// seeded from its region's chain, which it then continues (a failed
    /// window breaks it, so the region's next batch starts cold).
    fn solo_lane(
        &self,
        part: &MultiWindowGraph,
        j: usize,
        lw: usize,
        regions: &mut Regions,
        ws: &mut PrWorkspace,
        meter: &mut SavingsMeter,
    ) -> WindowOutput {
        let (w, seed) = (part.windows().start + lw, seed_kind(regions, j, lw));
        let (output, ranks) = self.single_window(part, w, seed, regions.seed(lw, 0), ws, meter);
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

    /// Terminal output assembly, delegated to the shared execution layer
    /// with this part's local→global vertex map.
    fn make_output(
        &self,
        window: usize,
        part: &MultiWindowGraph,
        stats: PrStats,
        local_ranks: &[f64],
        status: WindowStatus,
        attempts: u16,
    ) -> WindowOutput {
        self.executor().finalize(
            window,
            Some(part.vertex_map()),
            stats,
            local_ranks,
            status,
            attempts,
        )
    }
}

/// [`Prefetcher`] overlapping the *next* part's setup — decode-on-touch
/// for the non-resident backends, then the lazy window-index construction
/// — with the current window's kernel. The index sits behind a `OnceLock`,
/// the shard cache behind a mutex, and neither records trace events, so
/// prefetching is invisible to ranks and deterministic traces — it only
/// moves setup time off the critical path.
struct PartIndexPrefetcher<'a> {
    engine: &'a PostmortemEngine,
}

impl Prefetcher for PartIndexPrefetcher<'_> {
    fn next_after(&self, window: usize) -> Option<usize> {
        let next = window + 1;
        if next >= self.engine.spec().count {
            return None;
        }
        let p = self.engine.part_index_of(next);
        if p == self.engine.part_index_of(window) {
            // Same part: its setup is already (being) done by this window.
            return None;
        }
        (!self.engine.store.part_ready(p)).then_some(next)
    }

    fn prefetch(&self, window: usize) {
        self.engine.prefetch_part(self.engine.part_index_of(window));
    }
}

/// Why the effective shard-worker count was capped below the configured
/// [`PostmortemConfig::storage_workers`] request. Every cap exists to keep
/// ranks bit-identical to the serial walk — the alternative would be
/// silently different results at different worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerCap {
    /// [`InitMode::Warm`] carries converged ranks across part boundaries
    /// in order; independent part workers have no predecessor to carry
    /// from.
    WarmCarry,
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
            WorkerCap::WarmCarry => {
                "warm-start carry chains parts in order; shard workers capped at 1"
            }
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
/// request (`0` = one per core) and the reason it was capped, if it was.
/// The caps apply in order — a request of at most one, then
/// [`WorkerCap::PartParallelMode`], [`WorkerCap::WarmCarry`],
/// [`WorkerCap::Parts`] (when the part count is known) and
/// [`WorkerCap::Resume`] — so engine construction (cache slots and budget
/// charge, before the store exists), [`PostmortemEngine::storage_worker_plan`],
/// the run plan and the `Auto` init resolution ([`advisor::resolve`]) each
/// apply what they know.
pub(crate) fn shard_workers(
    cfg: &PostmortemConfig,
    parts: Option<usize>,
    resumed: bool,
) -> (usize, Option<WorkerCap>) {
    let requested = match cfg.storage_workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    if requested <= 1 {
        return (1, None);
    }
    if !matches!(
        cfg.mode,
        ParallelMode::Sequential | ParallelMode::ApplicationLevel
    ) {
        return (1, Some(WorkerCap::PartParallelMode));
    }
    if cfg.init_mode == InitMode::Warm {
        return (1, Some(WorkerCap::WarmCarry));
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

/// How one window's rank vector was seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seed {
    /// Uniform start (full init, a chain break, or a degenerate carry).
    Cold,
    /// Eq. 4 partial init from a same-part predecessor.
    InPart,
    /// Cross-boundary carry remapped through the vertex maps.
    Carried,
}

/// How window `lw` of SpMM batch `j` is seeded: batch 0 only ever holds the
/// cross-part carry; later batches hold in-part chains.
fn seed_kind(regions: &Regions, j: usize, lw: usize) -> Seed {
    match regions.seed(lw, 0) {
        None => Seed::Cold,
        Some(_) if j == 0 => Seed::Carried,
        Some(_) => Seed::InPart,
    }
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

    /// Seeds `chain` at every region head from a vector carried across the
    /// part boundary; returns the windows seeded (`warmstart.seeded_windows`).
    pub(crate) fn seed_heads(&mut self, chain: usize, carried: &[f64]) -> u64 {
        let mut seeded = 0;
        for lw in self.batch(0) {
            let s = self.slot(lw, chain);
            self.prev[s] = Some(carried.to_vec());
            seeded += 1;
        }
        seeded
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

    /// `chain`'s carry-out: the part's last window's ranks, `None` if that
    /// window broke its chain.
    pub(crate) fn carry_out(&mut self, chain: usize) -> Option<Vec<f64>> {
        let s = self.slot(self.nw - 1, chain);
        self.prev[s].take()
    }
}

/// Running estimate behind the `warmstart.iterations_saved` counter: each
/// carried window is credited with the difference between the chain's most
/// recent *cold* window's iteration count and its own. It is an estimate —
/// the honest number would re-run every carried window cold — but cold
/// windows under the same configuration are the natural yardstick, and the
/// counter lives outside the deterministic trace projection.
#[derive(Debug, Default)]
struct SavingsMeter {
    cold_baseline: Option<u64>,
}

impl SavingsMeter {
    fn record(&mut self, tele: &Telemetry, seed: Seed, valid: bool, iterations: usize) {
        if !valid {
            return;
        }
        match seed {
            Seed::Cold => self.cold_baseline = Some(iterations as u64),
            Seed::Carried => {
                if let Some(base) = self.cold_baseline {
                    tele.add(
                        "warmstart.iterations_saved",
                        base.saturating_sub(iterations as u64),
                    );
                }
            }
            Seed::InPart => {}
        }
    }
}

/// Poison-tolerant lock (a panicked window is already isolated and
/// reported; the sink slot itself is always in a consistent state).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
    use tempopr_kernel::{Partitioner, PrConfig, MAX_LANES};

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
        for init_mode in [InitMode::Full, InitMode::Partial, InitMode::Warm] {
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
        let warm = run(InitMode::Warm).total_iterations();
        let partial = run(InitMode::Partial).total_iterations();
        let full = run(InitMode::Full).total_iterations();
        assert!(partial < full, "partial {partial} vs full {full}");
        // Warm additionally seeds the part-boundary window.
        assert!(warm < partial, "warm {warm} vs partial {partial}");
    }

    #[test]
    fn indexed_and_unindexed_runs_are_identical() {
        // The window index must not change a single bit of the output:
        // fingerprints, iteration counts, and rank vectors all match across
        // every kernel and parallel mode.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
            for mode in [
                ParallelMode::Sequential,
                ParallelMode::WindowLevel,
                ParallelMode::ApplicationLevel,
                ParallelMode::Nested,
            ] {
                let mk = |use_window_index| PostmortemConfig {
                    kernel,
                    mode,
                    use_window_index,
                    pr: tight_cfg(),
                    num_multiwindows: 3,
                    ..Default::default()
                };
                let indexed = PostmortemEngine::new(&log, spec, mk(true)).unwrap().run();
                let plain = PostmortemEngine::new(&log, spec, mk(false)).unwrap().run();
                for (x, y) in indexed.windows.iter().zip(plain.windows.iter()) {
                    assert_eq!(x.window, y.window);
                    assert_eq!(x.stats, y.stats, "{kernel:?} {mode:?} window {}", x.window);
                    assert_eq!(
                        x.fingerprint, y.fingerprint,
                        "{kernel:?} {mode:?} window {}",
                        x.window
                    );
                }
            }
        }
    }

    /// Three parts of `per_part` disjoint-in-time windows each. Parts 0 and
    /// 1 share vertices 0..4 (an overlapping boundary: the carry seeds);
    /// part 2 lives on 8..12 (a disjoint boundary: degenerate, cold).
    fn boundary_log(per_part: u32) -> (EventLog, WindowSpec) {
        let mut events = Vec::new();
        for w in 0..3 * per_part {
            let (base, n) = [(0, 4), (0, 6), (8, 4)][(w / per_part) as usize];
            for i in 0..40u32 {
                let (u, v) = (base + i % n, base + (i + 1 + i % 2) % n);
                if u != v {
                    events.push(Event::new(u, v, i64::from(w * 100 + i)));
                }
            }
        }
        let log = EventLog::from_unsorted(events, 12).unwrap();
        (
            log,
            WindowSpec::new(0, 50, 100, 3 * per_part as usize).unwrap(),
        )
    }

    #[test]
    fn both_in_order_walks_share_one_cross_part_carry() {
        let (log, spec) = boundary_log(2);
        let run = |kernel| {
            let tele = Telemetry::enabled();
            let cfg = PostmortemConfig {
                kernel,
                mode: ParallelMode::Sequential,
                init_mode: InitMode::Warm,
                num_multiwindows: 3,
                pr: tight_cfg(),
                ..Default::default()
            };
            let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone()).unwrap();
            let out = engine.run();
            assert!(!out.degraded);
            (engine, tele.report(), out)
        };
        let (spmv, spmv_report, out) = run(KernelKind::SpMV);
        // One lane: one region per part, so one seeded window per carry.
        let (spmm, spmm_report, _) = run(KernelKind::SpMM { lanes: 1 });
        assert_eq!(spmv.store.part_windows(1), 2..4);
        for (name, expect) in [
            ("warmstart.seeded_windows", 1),
            ("warmstart.degenerate_windows", 1),
        ] {
            assert_eq!(spmv_report.counter(name), expect, "spmv {name}");
            assert_eq!(spmm_report.counter(name), expect, "spmm {name}");
        }
        // Both walks hand the next part the same carried vector.
        let local = |p: usize, w: usize| {
            let ranks = out.windows[w].ranks.as_ref().expect("full retention");
            ranks.to_local(spmv.store.vertex_map(p))
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(spmv.carry_across(0, &local(0, 1), 1, &mut a));
        assert!(spmm.carry_across(0, &local(0, 1), 1, &mut b));
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a[..4].iter().all(|&r| r > 0.0) && a[4..] == [0.0, 0.0]);
        assert!(!spmv.carry_across(1, &local(1, 3), 2, &mut a));
        assert!(!spmm.carry_across(1, &local(1, 3), 2, &mut b));
    }

    #[test]
    fn query_walk_shares_the_window_walks_cross_part_carry() {
        // Four windows a part and two lanes: two regions, so a carry seeds
        // two heads. One query on the same parts must count what the
        // window walk counts — the carry and its bookkeeping are one code.
        let (log, spec) = boundary_log(4);
        let cfg = PostmortemConfig {
            kernel: KernelKind::SpMM { lanes: 2 },
            mode: ParallelMode::Sequential,
            init_mode: InitMode::Warm,
            num_multiwindows: 3,
            pr: tight_cfg(),
            ..Default::default()
        };
        let (windows, queries) = (Telemetry::enabled(), Telemetry::enabled());
        let engine = PostmortemEngine::with_telemetry(&log, spec, cfg.clone(), windows.clone());
        assert!(!engine.unwrap().run().degraded);
        let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, queries.clone()).unwrap();
        let query = crate::query::EngineQuery::seeded(0, 12, 0.15);
        assert!(engine.run_queries(&[query]).unwrap().all_converged());
        for (name, expect) in [
            ("warmstart.seeded_windows", 2),
            ("warmstart.degenerate_windows", 1),
        ] {
            assert_eq!(windows.report().counter(name), expect, "windows {name}");
            assert_eq!(queries.report().counter(name), expect, "queries {name}");
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
                        let mut r = Regions::new(budget, chains, nw, reuse, unshared);
                        assert_eq!(r.slots(), vl);
                        assert_eq!(r.batches(), region);
                        let last = (nw - 1) / region * chains;
                        assert_eq!(r.slot(nw - 1, chains - 1), last + chains - 1);
                        let heads = (0..vl).filter(|s| s * region < nw).count();
                        assert_eq!(r.seed_heads(chains - 1, &[]), heads as u64);
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
            if cfg.init_mode == InitMode::Warm {
                return (1, Some(WorkerCap::WarmCarry));
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
            for init_mode in [InitMode::Full, InitMode::Partial, InitMode::Warm] {
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
        assert_eq!(rows, 4 * 3 * 4 * 3 * 2);
    }

    #[test]
    fn pooled_prefetch_builds_window_indexes_only_for_indexed_runs() {
        // A pooled, pipelined run prefetches the next part; an unindexed
        // run must not build an index nothing reads (and the budget never
        // charged). Cached parts are checked after the run, so this holds
        // under every claim order.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let dir = std::env::temp_dir().join(format!("tempopr_engine_pf_{}", std::process::id()));
        for storage in [
            StorageBackend::Compressed,
            StorageBackend::OnDisk { dir: dir.clone() },
        ] {
            for use_window_index in [false, true] {
                let cfg = PostmortemConfig {
                    mode: ParallelMode::Sequential,
                    storage: storage.clone(),
                    storage_workers: 2,
                    pipeline: true,
                    use_window_index,
                    num_multiwindows: 4,
                    pr: tight_cfg(),
                    ..Default::default()
                };
                let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
                assert_eq!(engine.storage_worker_plan(), (2, None));
                assert!(!engine.run().degraded);
                let parts = engine.num_parts();
                let indexed = (0..parts).filter(|&p| engine.store.part_ready(p)).count();
                assert_eq!(indexed > 0, use_window_index, "{storage} indexed {indexed}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_runs_the_explicit_plan_it_resolves_to_bit_for_bit() {
        // δ 20 / sw 40 leaves every window disjoint from the next; δ 60 /
        // sw 25 shares more than half of each window with its successor.
        let log = test_log();
        let spmm16 = KernelKind::SpMM { lanes: 16 };
        for (delta, sw, kernel, init_mode) in [
            (20, 40, KernelKind::SpMV, InitMode::Full),
            (60, 25, spmm16, InitMode::Warm),
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
