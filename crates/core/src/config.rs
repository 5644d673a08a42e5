//! Configuration of a postmortem analysis run.

use crate::storage::StorageBackend;
use tempopr_graph::multiwindow::PartitionStrategy;
use tempopr_kernel::{FaultKind, PrConfig, Scheduler};

/// A deterministic fault targeted at one window of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFault {
    /// Global window index the fault fires in.
    pub window: usize,
    /// What goes wrong inside that window's kernel.
    pub fault: FaultKind,
}

/// A seeded, reproducible set of injected faults (empty by default and
/// zero-cost when empty): each entry poisons exactly one window, and the
/// same plan against the same input reproduces the same failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults, at most one per window (later entries for the
    /// same window are ignored).
    pub faults: Vec<WindowFault>,
    /// Process-level crash injection: abort the process immediately after
    /// the checkpoint record for this window becomes durable (a
    /// deterministic stand-in for `kill -9` at window *k*). Only effective
    /// on the durable entry points; ignored — like any fault — by the
    /// checkpoint compatibility hash, so a resumed run (which clears it)
    /// still matches the crashed run's manifest.
    pub crash_after_checkpoint: Option<usize>,
    /// Storage fault injection: every fetch of these *part* indices fails
    /// with a synthetic i/o error (a deterministic stand-in for a decode
    /// or page-in fault mid-run). The engine surfaces each as a typed
    /// [`crate::error::EngineError::Storage`] carrying the part index;
    /// windows of healthy parts still complete. No effect on the resident
    /// backend, which never fetches.
    pub fetch_failures: Vec<usize>,
}

impl FaultPlan {
    /// A plan with a single fault.
    pub fn single(window: usize, fault: FaultKind) -> Self {
        FaultPlan {
            faults: vec![WindowFault { window, fault }],
            crash_after_checkpoint: None,
            fetch_failures: Vec::new(),
        }
    }

    /// Whether no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
            && self.crash_after_checkpoint.is_none()
            && self.fetch_failures.is_empty()
    }

    /// The fault targeted at `window`, if any.
    pub fn fault_for(&self, window: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.window == window)
            .map(|f| f.fault)
    }
}

/// Which level(s) of parallelism drive the run (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// No parallelism at all (reference / debugging).
    Sequential,
    /// Parallel across windows; each PageRank runs sequentially
    /// (§4.3.1). Consecutive windows inside one grain stay on one thread,
    /// preserving partial initialization within the grain.
    WindowLevel,
    /// Windows in order; parallelism inside each PageRank (§4.3.2). The
    /// paper also calls this "PR-level" parallelization.
    ApplicationLevel,
    /// Both at once, under one thread budget (§4.3.3): each window-level
    /// thread starts its own threads for every row loop.
    #[default]
    Nested,
}

impl ParallelMode {
    /// Whether each PageRank kernel is handed the scheduler (parallelism
    /// inside a PageRank): the application-level and nested modes.
    pub fn parallel_kernel(self) -> bool {
        matches!(self, ParallelMode::ApplicationLevel | ParallelMode::Nested)
    }

    /// Whether windows run in order on one walk (the sequential and
    /// application-level modes): the modes that resume, prefetch and run
    /// a shard pool.
    pub(crate) fn in_order(self) -> bool {
        matches!(
            self,
            ParallelMode::Sequential | ParallelMode::ApplicationLevel
        )
    }
}

/// Which kernel computes each window (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Chosen at engine construction from what the windows share
    /// ([`crate::advisor::resolve`]): SpMV when consecutive windows have
    /// (almost) no events in common and the kernel gets no multi-threaded
    /// scheduler, SpMM with 16 lanes otherwise. A built engine never holds
    /// it.
    #[default]
    Auto,
    /// One SpMV-style power iteration per window.
    SpMV,
    /// SpMM-inspired batching: `lanes` windows of one multi-window graph
    /// iterate together on interleaved rank vectors (paper uses 8 or 16).
    SpMM {
        /// Number of simultaneous rank vectors (1..=64).
        lanes: usize,
    },
}

impl KernelKind {
    /// Short label: `auto`, `spmv` or `spmm` (the lane count left out).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::SpMV => "spmv",
            KernelKind::SpMM { .. } => "spmm",
        }
    }
}

/// How each window's rank vector is seeded before iterating (§4.2). The
/// discriminant is the `init.mode` gauge's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMode {
    /// Every window starts from the uniform distribution (no reuse; the
    /// paper's full-initialization baseline).
    Full = 0,
    /// Eq. 4 partial initialization wherever the previous window's ranks
    /// are already on-thread in the *same* multi-window part: consecutive
    /// windows of an SpMV grain, and SpMM batches after the first.
    /// Part and batch boundaries still start cold. The paper's default.
    Partial = 1,
    /// Chosen at engine construction from the measured window overlap by
    /// the advisor's decision table ([`crate::advisor::resolve`]). A built
    /// engine never holds it.
    #[default]
    Auto = 3,
}

impl InitMode {
    /// The `--init-mode` spelling: `full`, `partial` or `auto`.
    pub fn name(self) -> &'static str {
        match self {
            InitMode::Full => "full",
            InitMode::Partial => "partial",
            InitMode::Auto => "auto",
        }
    }
}

/// How much output each window retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetainMode {
    /// Keep the full (sparse) rank vector of every window.
    #[default]
    Full,
    /// Keep only statistics and a rank fingerprint — what the benchmark
    /// harness uses so hundreds of windows don't hold hundreds of vectors.
    Summary,
}

/// Full configuration of a postmortem run.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemConfig {
    /// Number of multi-window graphs `Y` (clamped to the window count).
    /// `0` selects automatically from the window-overlap ratio and the
    /// kernel: parts sized so one SpMV traverses about twice the window's
    /// own events, or wide enough to feed all SpMM lanes (see
    /// [`crate::advisor::auto_multiwindows`]; a kernel left
    /// [`KernelKind::Auto`] keeps the 16-lane SpMM rule).
    pub num_multiwindows: usize,
    /// How windows are grouped into multi-window graphs.
    pub partition: PartitionStrategy,
    /// PageRank parameters.
    pub pr: PrConfig,
    /// Parallelization level.
    pub mode: ParallelMode,
    /// SpMV or SpMM kernel; [`KernelKind::Auto`] (the default) resolves
    /// from the measured window overlap.
    pub kernel: KernelKind,
    /// Partitioner + grain size for every parallel loop.
    pub scheduler: Scheduler,
    /// How windows are seeded: full (uniform) or partial (Eq. 4 within a
    /// part); [`InitMode::Auto`] (the default) resolves from the measured window
    /// overlap.
    pub init_mode: InitMode,
    /// Worker threads (0 = every core).
    pub threads: usize,
    /// Output retention.
    pub retain: RetainMode,
    /// Deterministic fault injection plan (testing only). Empty by
    /// default; when empty, the run takes exactly the fault-free code
    /// paths and ranks are unchanged bit for bit.
    pub faults: FaultPlan,
    /// What the executor may attempt when a window's kernel fails
    /// ([`crate::exec::RecoveryPolicy`]). The postmortem engine's
    /// historical behavior is the full ladder; `fail_only` surfaces every
    /// failure as a `Failed` window instead (CLI `--recovery fail-only`).
    pub recovery: crate::exec::RecoveryPolicy,
    /// Prefetch the next multi-window part — its decode or page-in under
    /// the non-resident backends, then its window index — under the whole
    /// of the current part's compute, in every walk over parts: the
    /// in-order walk and the shard pool, of either kernel. The
    /// part-parallel modes' grains ignore it. Ranks and deterministic
    /// traces are unchanged — the prefetch only moves wall-clock setup
    /// work off the critical path. Off by default.
    pub pipeline: bool,
    /// Where the multi-window parts rest between touches
    /// ([`crate::storage::TcsrStorage`]): fully resident (default),
    /// delta-varint compressed with decode-on-touch, or paged in from a
    /// `tempopr.tcsr.v1` file. Ranks are bit-identical across backends.
    pub storage: StorageBackend,
    /// Resident-memory budget in bytes for the part storage. When set, it
    /// overrides `num_multiwindows`: the planner picks the smallest part
    /// count whose footprint under the selected backend fits
    /// ([`tempopr_graph::plan_partition`]), and engine construction
    /// fails with [`crate::error::EngineError::BudgetInfeasible`] — naming
    /// the minimal feasible budget — when nothing fits.
    pub memory_budget: Option<usize>,
    /// Shard workers for the out-of-core backends: up to this many
    /// independent multi-window parts execute concurrently, each worker
    /// double-buffering the decode/page-in of its next part behind the
    /// current part's compute. `1` (the default) is the historical serial
    /// walk; `0` asks for one worker per thread of the run's budget
    /// (`threads`, or every available core when that is `0` too). The budget
    /// planner charges `workers + prefetch depth` simultaneously-resident
    /// decoded parts against `memory_budget`. Ranks stay bit-identical:
    /// a mid-part resume, whose seed crosses windows in order, caps the
    /// effective count at 1 with a typed [`crate::engine::WorkerCap`]
    /// reason rather than silently changing results.
    pub storage_workers: usize,
}

impl Default for PostmortemConfig {
    fn default() -> Self {
        PostmortemConfig {
            num_multiwindows: 0,
            partition: PartitionStrategy::EqualWindows,
            pr: PrConfig::default(),
            mode: ParallelMode::Nested,
            kernel: KernelKind::default(),
            scheduler: Scheduler::default(),
            init_mode: InitMode::default(),
            threads: 0,
            retain: RetainMode::Full,
            faults: FaultPlan::default(),
            recovery: crate::exec::RecoveryPolicy::ladder(),
            pipeline: false,
            storage: StorageBackend::Resident,
            memory_budget: None,
            storage_workers: 1,
        }
    }
}

impl PostmortemConfig {
    /// The paper's "bare-bone" configuration used in the Fig. 5 model
    /// comparison: partial initialization, 6 multi-window graphs,
    /// application-level parallelism, static partitioner, SpMV.
    pub fn bare_bone() -> Self {
        PostmortemConfig {
            num_multiwindows: 6,
            mode: ParallelMode::ApplicationLevel,
            kernel: KernelKind::SpMV,
            scheduler: Scheduler::new(tempopr_kernel::Partitioner::Static, 1),
            init_mode: InitMode::Partial,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_kernel::Partitioner;

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = PostmortemConfig::default();
        assert_eq!(c.mode, ParallelMode::Nested);
        // Kernel and init are chosen per workload at engine construction.
        assert_eq!(c.kernel, KernelKind::Auto);
        assert_eq!(c.init_mode, InitMode::Auto);
        assert_eq!(c.scheduler.partitioner, Partitioner::Auto);
    }

    #[test]
    fn bare_bone_matches_fig5_setup() {
        let c = PostmortemConfig::bare_bone();
        assert_eq!(c.num_multiwindows, 6);
        assert_eq!(c.mode, ParallelMode::ApplicationLevel);
        assert_eq!(c.kernel, KernelKind::SpMV);
        assert_eq!(c.scheduler.partitioner, Partitioner::Static);
        assert_eq!(c.init_mode, InitMode::Partial);
    }
}
