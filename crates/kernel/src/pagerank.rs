//! Window PageRank by pull-style SpMV over the temporal CSR (paper §2.2,
//! §4.1).
//!
//! A window's membership is decided once: before the first iteration one
//! pass over the active rows' stored entries tests each neighbor run
//! against the window's time range and keeps the in-window neighbors in a
//! compact list ([`PrWorkspace::pull_nbr`]). An iteration is then a
//! gather-sum over that list, so a window costs one `Θ(entries)` filter
//! pass plus `iterations × in-window runs` — the paper's `Θ(entries)` per
//! SpMV is paid once per window instead of once per iteration. The indexed
//! kernel reads no timestamp at all: its filter keeps the runs of the
//! part's [`WindowIndex`](tempopr_graph::WindowIndex) run list that carry
//! the window's bit, the part's membership having been decided once for
//! every window it serves. The engine runs the indexed kernel;
//! [`pagerank_window`], which reads timestamps, is the reference it is
//! tested against. The kernel supports three initializations: uniform, a
//! caller-provided vector, and the paper's *partial initialization* (Eq. 4)
//! from the previous window's ranks.
//!
//! ## Shared semantics
//! All PageRank implementations in this workspace agree on:
//! - simple-graph semantics (duplicate events in a window count once);
//! - the active set `V_i` = vertices with at least one in-window edge;
//!   `n = |V_i|`; inactive vertices hold rank 0;
//! - teleport `α` (default 0.15) paid to active vertices only;
//! - window graphs are symmetric: every active vertex has an in-window
//!   edge to pass its rank along, so no rank mass is left over to
//!   redistribute (the `(pull, push)` pair each entry takes must be one
//!   structure, passed twice; [`KernelError::NotSymmetric`] otherwise);
//! - convergence when the L1 difference of successive iterates < `tol`.
//!
//! ## Numeric health
//! Power iteration preserves rank mass exactly in exact arithmetic
//! (teleport + damped edge mass always sum to one), so `Σx ≈ 1` is an
//! invariant every iteration can be checked against almost for free: the
//! mass sum folds into the same reduction that already computes the L1
//! diff. With [`GuardConfig::enabled`] (the default) each iteration
//! verifies the iterate is finite and the mass has not drifted beyond
//! [`GuardConfig::mass_epsilon`]; violations recover
//! per [`NumericPolicy`] and are tallied in [`PrStats::health`], never
//! silently dropped. The guards only *observe* the iterate — ranks on
//! healthy inputs are bit-identical with guards on or off.

use crate::error::{FaultKind, KernelError, NumericFault};
use crate::observe::Obs;
use crate::scheduler::Scheduler;
use crate::simd::SimdPolicy;
use std::time::Instant;
use tempopr_graph::{Csr, TemporalCsr, TimeRange, VertexId, WindowIndexView};

/// What to do when a numeric-health guard trips (NaN/Inf in the iterate or
/// rank-mass drift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericPolicy {
    /// Surface the fault immediately as [`KernelError::Numeric`].
    Fail,
    /// Mass drift: rescale the iterate back to unit mass and continue (up
    /// to [`MAX_RENORMALIZATIONS`] times). Non-finite values: restart from
    /// a uniform iterate (up to [`MAX_RESTARTS`] times). Escalate to
    /// [`KernelError::Numeric`] when the budget is spent.
    #[default]
    RenormalizeRetry,
    /// Any fault: restart from a uniform iterate over the active set (up
    /// to [`MAX_RESTARTS`] times), then escalate.
    FallbackFullInit,
}

/// Renormalizations a single kernel invocation may perform before
/// escalating — persistent drift (e.g. a corrupted degree reciprocal)
/// renormalizes every iteration and must not spin to `max_iters`.
pub const MAX_RENORMALIZATIONS: u32 = 3;

/// Uniform restarts a single kernel invocation may perform before
/// escalating.
pub const MAX_RESTARTS: u32 = 1;

/// Per-iteration numeric-health checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Check each iteration for NaN/Inf and rank-mass drift. On healthy
    /// inputs the checks are read-only: ranks are bit-identical either
    /// way.
    pub enabled: bool,
    /// Allowed drift of the rank mass from 1. The default 1e-6 sits far
    /// above f64 summation noise (≈ `n · 1e-16`) and far below any real
    /// corruption (a doubled reciprocal drifts mass by `Θ(x_v)` per
    /// iteration).
    pub mass_epsilon: f64,
    /// Recovery policy when a guard trips.
    pub policy: NumericPolicy,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: true,
            mass_epsilon: 1e-6,
            policy: NumericPolicy::RenormalizeRetry,
        }
    }
}

impl GuardConfig {
    /// Guards disabled (for overhead measurement; production runs keep the
    /// default on).
    pub fn off() -> Self {
        GuardConfig {
            enabled: false,
            ..GuardConfig::default()
        }
    }
}

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrConfig {
    /// Teleportation probability `α` in Eq. 1 (damping factor is `1 - α`).
    pub alpha: f64,
    /// L1 convergence tolerance. The default 1e-6 converges in well under
    /// the 100-iteration cap at the default damping (L1 error decays as
    /// `(1-α)^k ≈ 0.85^k`); much tighter tolerances would hit the cap and
    /// mask warm-start savings.
    pub tol: f64,
    /// Iteration cap (implementations "execute a fixed number of iterations
    /// at most", §2.2).
    pub max_iters: usize,
    /// Numeric-health guard settings.
    pub guard: GuardConfig,
    /// Deterministic fault to inject into this invocation (testing only;
    /// `None`, the default, costs one predictable branch per iteration).
    pub fault: Option<FaultKind>,
    /// Inner-loop implementation for the batched (SpMM) kernel: runtime
    /// ISA dispatch by default, forceable to the portable scalar path or
    /// the pre-vectorization mask walk (see [`crate::simd`]). Ranks are
    /// bit-identical under every policy; SpMV kernels ignore this.
    pub simd: SimdPolicy,
    /// Repack converged lanes out of the batched iteration so late rounds
    /// stop paying for dead lanes (see [`crate::spmm`]). Bit-identical on
    /// or off; SpMV kernels ignore this.
    pub compaction: bool,
}

impl Default for PrConfig {
    fn default() -> Self {
        PrConfig {
            alpha: 0.15,
            tol: 1e-6,
            max_iters: 100,
            guard: GuardConfig::default(),
            fault: None,
            simd: SimdPolicy::Auto,
            compaction: true,
        }
    }
}

/// Numeric-health events observed during one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrHealth {
    /// Iterations whose drifted mass was rescaled back to 1.
    pub renormalizations: u32,
    /// Restarts from a uniform iterate after a non-finite value.
    pub restarts: u32,
}

impl PrHealth {
    /// No guard ever tripped.
    pub fn is_clean(&self) -> bool {
        self.renormalizations == 0 && self.restarts == 0
    }

    /// Folds another invocation's health events into this one.
    pub fn merge(&mut self, other: &PrHealth) {
        self.renormalizations += other.renormalizations;
        self.restarts += other.restarts;
    }
}

/// Outcome of one window's PageRank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached within `max_iters`.
    pub converged: bool,
    /// `|V_i|`: vertices active in the window.
    pub active_vertices: usize,
    /// Numeric-health events (all zero on a healthy run).
    pub health: PrHealth,
}

impl PrStats {
    /// Stats for an empty window: zero iterations, trivially converged.
    pub fn empty() -> Self {
        PrStats {
            iterations: 0,
            converged: true,
            active_vertices: 0,
            health: PrHealth::default(),
        }
    }
}

/// How the rank vector is initialized before iterating.
#[derive(Debug, Clone, Copy)]
pub enum Init<'a> {
    /// `1/|V_i|` on every active vertex (§4.2 "the most common
    /// initialization").
    Uniform,
    /// A caller-supplied distribution; masked to the active set and
    /// renormalized (falls back to uniform if the masked sum vanishes).
    Provided(&'a [f64]),
    /// Partial initialization from the previous window's ranks (Eq. 4):
    /// vertices present in both windows keep their scaled previous rank,
    /// newcomers get the uniform share. Membership in `V_{i-1}` is inferred
    /// from a strictly positive previous rank.
    Partial(&'a [f64]),
}

/// Reusable buffers so per-window PageRank makes no heap allocations in
/// steady state (perf-book: workhorse collections).
///
/// Between calls every kernel leaves `deg_out`, `inv_deg` and `x` zero off
/// `active_list`, the rows it wrote, so [`PrWorkspace::ensure`]
/// clears only those when the vertex count is unchanged: a window's setup
/// costs its active vertices, not the part. A workspace a call panicked out
/// of may break that rule and must be replaced (`PrWorkspace::default()`).
#[derive(Debug, Default, Clone)]
pub struct PrWorkspace {
    /// Degree of each vertex in the current window.
    pub deg_out: Vec<u32>,
    /// `1/deg_out`, or 0 where the vertex is inactive.
    pub inv_deg: Vec<f64>,
    /// The active vertices, ascending — power iterations loop over this
    /// compact list so a window's cost is `Θ(|V_i| + edges scanned)`, not
    /// `Θ(V)` per iteration.
    pub active_list: Vec<u32>,
    /// Current iterate; holds the result after a call.
    pub x: Vec<f64>,
    /// Scratch for the next iterate, indexed by active-list position.
    pub y: Vec<f64>,
    /// The window's pull adjacency, filtered once per window by the
    /// temporal kernels: the in-window in-neighbors of active-list
    /// position `i` are `pull_nbr[pull_off[i]..pull_off[i + 1]]`.
    pub pull_off: Vec<usize>,
    /// In-window in-neighbors, row after row, in stored order.
    pub pull_nbr: Vec<VertexId>,
}

impl PrWorkspace {
    /// Readies every buffer for `n` vertices, all zero and the active list
    /// empty: the rows the last call wrote are cleared when it ran on `n`
    /// vertices too, every buffer is refilled otherwise. `y` is only sized;
    /// no kernel reads a cell of it before writing it.
    pub fn ensure(&mut self, n: usize) {
        if [self.deg_out.len(), self.inv_deg.len(), self.x.len()] == [n; 3] {
            for &v in &self.active_list {
                let v = v as usize;
                self.deg_out[v] = 0;
                self.inv_deg[v] = 0.0;
                self.x[v] = 0.0;
            }
        } else {
            self.deg_out.clear();
            self.deg_out.resize(n, 0);
            self.inv_deg.clear();
            self.inv_deg.resize(n, 0.0);
            self.x.clear();
            self.x.resize(n, 0.0);
        }
        self.active_list.clear();
        self.y.resize(n, 0.0);
    }

    /// The rank vector computed by the last call.
    pub fn ranks(&self) -> &[f64] {
        &self.x
    }
}

/// The pull sum for one destination vertex: Σ over its in-neighbors of
/// `x[u] · inv_deg[u]`, in the order given.
#[inline]
fn pull_sum(in_nbrs: &[VertexId], x: &[f64], inv_deg: &[f64]) -> f64 {
    let mut s = 0.0;
    for &u in in_nbrs {
        s += x[u as usize] * inv_deg[u as usize];
    }
    s
}

/// The one structure a kernel entry reads: window graphs are symmetric, so
/// the `(pull, push)` pair every entry takes must be one structure passed
/// twice.
pub(crate) fn one_structure<'a, T>(pull: &'a T, push: &T) -> Result<&'a T, KernelError> {
    if std::ptr::eq(pull, push) {
        Ok(pull)
    } else {
        Err(KernelError::NotSymmetric)
    }
}

/// Computes PageRank for one window of a temporal CSR.
///
/// Pass the part's symmetric CSR as both `pull` and `push`
/// ([`KernelError::NotSymmetric`] otherwise). If `sched` is `Some`, the
/// degree pass and every SpMV run in parallel under that scheduler (the
/// paper's application-level parallelism); otherwise everything is
/// sequential (the inner kernel of window-level parallelism).
///
/// The result lands in `ws.x` (see [`PrWorkspace::ranks`]). This entry
/// decides the window by timestamp and is the reference the indexed entry
/// ([`pagerank_window_indexed`], which the engine runs) is tested against.
pub fn pagerank_window(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    range: TimeRange,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
) -> Result<PrStats, KernelError> {
    let t = one_structure(pull, push)?;
    ws.ensure(t.num_vertices());
    degree_pass(|v| t.active_degree(v, range), sched, ws);
    power_iterate_window(
        t.row_offsets(),
        |v, nbr| nbr.extend(t.active_neighbors(v, range)),
        init,
        cfg,
        sched,
        ws,
        Obs::off(),
        None,
    )
}

/// The unindexed degree/activity pass of [`pagerank_window`],
/// [`pagerank_csr`] and the personalized kernel: fills `deg_out` through
/// the scheduler as a row loop, then builds the active list (the vertices
/// with an edge) and the reciprocals in one order-dependent sequential
/// sweep. Monomorphized per caller over the
/// degree lookup; the caller must have run [`PrWorkspace::ensure`].
pub(crate) fn degree_pass<D>(degree: D, sched: Option<&Scheduler>, ws: &mut PrWorkspace)
where
    D: Fn(VertexId) -> usize + Sync,
{
    let fill = |off: usize, slice: &mut [u32]| {
        for (i, d) in slice.iter_mut().enumerate() {
            *d = degree((off + i) as VertexId) as u32;
        }
    };
    match sched {
        Some(s) => s.map_reduce_slice_mut(&mut ws.deg_out, (), fill, |_, _| ()),
        None => fill(0, &mut ws.deg_out),
    }
    for (v, &d) in ws.deg_out.iter().enumerate() {
        if d > 0 {
            ws.active_list.push(v as u32);
            ws.inv_deg[v] = 1.0 / d as f64;
        }
    }
}

/// [`pagerank_window`] with the window decided by a precomputed
/// [`WindowIndexView`] instead of a scan of the CSR: the degree/activity
/// phase is an `O(|V_w active|)` copy, and the filter pass keeps the runs
/// of the index's run list that carry the window's bit, reading no
/// timestamp. The kept neighbours and the iteration are the unindexed
/// kernel's, so ranks match it bit-for-bit.
pub fn pagerank_window_indexed(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    view: &WindowIndexView<'_>,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
) -> Result<PrStats, KernelError> {
    pagerank_window_indexed_obs(pull, push, view, init, cfg, sched, ws, Obs::off())
}

/// [`pagerank_window_indexed`] with an observation carrier (see
/// [`crate::observe`]).
#[allow(clippy::too_many_arguments)]
pub fn pagerank_window_indexed_obs(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    view: &WindowIndexView<'_>,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
    obs: Obs<'_>,
) -> Result<PrStats, KernelError> {
    let n = one_structure(pull, push)?.num_vertices();
    if view.runs.row.len() != n + 1 {
        return Err(KernelError::ForeignIndexViews);
    }
    ws.ensure(n);
    let t_setup = obs.now();
    setup_from_index(view, ws);
    let (runs, window) = (view.runs, view.window);
    power_iterate_window(
        runs.row,
        |v, nbr| nbr.extend(runs.neighbors_in(v, window)),
        init,
        cfg,
        sched,
        ws,
        obs,
        t_setup,
    )
}

/// Fills the workspace's degree/activity buffers from an index view in
/// `O(|V_w active|)`. The caller must have run [`PrWorkspace::ensure`]
/// already.
fn setup_from_index(view: &WindowIndexView<'_>, ws: &mut PrWorkspace) {
    for (i, &v) in view.vertices.iter().enumerate() {
        let v = v as usize;
        ws.deg_out[v] = view.deg_out[i];
        ws.inv_deg[v] = view.inv_deg[i];
    }
    ws.active_list.extend_from_slice(view.vertices);
}

/// What the faulted iteration should do next, as decided by
/// [`guard_check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum GuardAction {
    /// No fault: scatter the iterate and test convergence as usual.
    Proceed,
    /// Mass drifted: scatter the iterate scaled by `scale`, skip the
    /// convergence test this iteration.
    Renormalize {
        /// `1/mass` of the drifted iterate.
        scale: f64,
    },
    /// Non-finite values: throw the iterate away and restart from a
    /// uniform distribution over the active set.
    Restart,
}

/// The shared guard decision: inspects one iteration's `(diff, mass)`
/// reduction and either clears it, prescribes a recovery per the
/// configured [`NumericPolicy`], or escalates to [`KernelError::Numeric`].
/// `lane` is only for diagnostics (batched kernels).
pub(crate) fn guard_check(
    diff: f64,
    mass: f64,
    lane: usize,
    iteration: usize,
    cfg: &PrConfig,
    health: &mut PrHealth,
) -> Result<GuardAction, KernelError> {
    if !cfg.guard.enabled {
        return Ok(GuardAction::Proceed);
    }
    let fault = if !mass.is_finite() || !diff.is_finite() {
        NumericFault::NonFinite { lane }
    } else if (mass - 1.0).abs() > cfg.guard.mass_epsilon {
        NumericFault::MassDrift {
            lane,
            mass,
            epsilon: cfg.guard.mass_epsilon,
        }
    } else {
        return Ok(GuardAction::Proceed);
    };
    let escalate = Err(KernelError::Numeric { iteration, fault });
    match cfg.guard.policy {
        NumericPolicy::Fail => escalate,
        NumericPolicy::RenormalizeRetry => match fault {
            NumericFault::MassDrift { mass, .. }
                if health.renormalizations < MAX_RENORMALIZATIONS =>
            {
                health.renormalizations += 1;
                Ok(GuardAction::Renormalize { scale: 1.0 / mass })
            }
            NumericFault::NonFinite { .. } if health.restarts < MAX_RESTARTS => {
                health.restarts += 1;
                Ok(GuardAction::Restart)
            }
            _ => escalate,
        },
        NumericPolicy::FallbackFullInit => {
            if health.restarts < MAX_RESTARTS {
                health.restarts += 1;
                Ok(GuardAction::Restart)
            } else {
                escalate
            }
        }
    }
}

/// The shared tail of [`pagerank_window`] and [`pagerank_window_indexed`]:
/// the window's one filter pass ([`build_pull_list`] with `filter`, the
/// last step of the setup that began at `t_setup`; `read` holds the row
/// offsets of the entries it reads), then initialization plus damped power
/// iteration over the active list already present in `ws`, each pull sum a
/// gather over the filtered list.
#[allow(clippy::too_many_arguments)]
fn power_iterate_window<F>(
    read: &[usize],
    filter: F,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
    obs: Obs<'_>,
    t_setup: Option<Instant>,
) -> Result<PrStats, KernelError>
where
    F: Fn(VertexId, &mut Vec<VertexId>) + Sync,
{
    build_pull_list(filter, sched, ws);
    obs.setup(ws.active_list.len(), t_setup);
    obs.window_runs(|| {
        let entries = |&v: &u32| (read[v as usize + 1] - read[v as usize]) as u64;
        (
            ws.active_list.iter().map(entries).sum(),
            ws.pull_nbr.len() as u64,
        )
    });
    // The iteration borrows the workspace mutably; the list sits beside it
    // for the duration and goes back for the next window to reuse.
    let (off, nbr) = (
        std::mem::take(&mut ws.pull_off),
        std::mem::take(&mut ws.pull_nbr),
    );
    let stats = iterate_guarded(
        |x, inv_deg, i, _| pull_sum(&nbr[off[i]..off[i + 1]], x, inv_deg),
        init,
        cfg,
        sched,
        ws,
        obs,
    );
    ws.pull_off = off;
    ws.pull_nbr = nbr;
    stats
}

/// Filters the window's pull adjacency into `ws.pull_off` / `ws.pull_nbr`:
/// `filter(v, nbr)` appends, in stored order, the in-window neighbours of
/// each active row `v` — a window's membership is decided here once, and
/// the power iterations gather over the list. A row loop under a scheduler
/// (tasks fold in row order, so the list is the sequential one); a
/// one-task plan fills the workspace's list in place.
fn build_pull_list<F>(filter: F, sched: Option<&Scheduler>, ws: &mut PrWorkspace)
where
    F: Fn(VertexId, &mut Vec<VertexId>) + Sync,
{
    let list = &ws.active_list;
    ws.pull_off.clear();
    ws.pull_off.resize(list.len() + 1, 0);
    ws.pull_nbr.clear();
    let counts = &mut ws.pull_off[1..];
    let walk = |rows: &[u32], counts: &mut [usize], nbr: &mut Vec<VertexId>| {
        for (&v, count) in rows.iter().zip(counts) {
            let before = nbr.len();
            filter(v, nbr);
            *count = nbr.len() - before;
        }
    };
    match sched.map(|s| (s, s.row_chunks(list.len()))) {
        Some((s, chunks)) if chunks.len() > 1 => {
            ws.pull_nbr = s.map_reduce_rows_chunked_mut(
                counts,
                1,
                &chunks,
                Vec::new(),
                |off, counts| {
                    let mut nbr = Vec::new();
                    walk(&list[off..off + counts.len()], counts, &mut nbr);
                    nbr
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
        }
        _ => walk(list, counts, &mut ws.pull_nbr),
    }
    let mut end = 0;
    for o in &mut ws.pull_off[1..] {
        end += *o;
        *o = end;
    }
}

/// The guarded damped power iteration shared by the temporal and static
/// pull kernels: `pull_contrib(x, inv_deg, i, v)` supplies the pull sum for
/// the destination `v` at active-list position `i`. Monomorphized per
/// caller, so the hot loop is identical to a hand-inlined version.
#[allow(clippy::too_many_arguments)]
fn iterate_guarded<PS>(
    pull_contrib: PS,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
    obs: Obs<'_>,
) -> Result<PrStats, KernelError>
where
    PS: Fn(&[f64], &[f64], usize, VertexId) -> f64 + Sync,
{
    let n_act = ws.active_list.len();
    if n_act == 0 {
        return Ok(PrStats::empty());
    }
    let n_act_f = n_act as f64;

    // --- Initialization ---------------------------------------------------
    initialize(init, &ws.active_list, &mut ws.x)?;
    if let Some(FaultKind::CorruptReciprocal) = cfg.fault {
        corrupt_first_reciprocal(&ws.active_list, &mut ws.inv_deg);
    }

    // --- Power iteration ---------------------------------------------------
    // Iterations loop over the compact active list; inactive vertices keep
    // their initial 0 forever. The new iterate lands in `y` by list
    // position and is scattered back into `x` after each pass. Alongside
    // the L1 diff the reduction carries the iterate's total mass, which the
    // guard checks against the Σx = 1 invariant — an extra add per vertex,
    // never an extra pass.
    let alpha = cfg.alpha;
    let damp = 1.0 - alpha;
    // The row-task plan depends on the list and the scheduler alone, so it
    // is made once for every iteration.
    let chunks = sched.map_or_else(Vec::new, |s| s.row_chunks(n_act));
    let mut iterations = 0;
    let mut converged = false;
    let mut health = PrHealth::default();
    while iterations < cfg.max_iters {
        iterations += 1;
        match cfg.fault {
            Some(FaultKind::InjectNan { at_iter }) if at_iter == iterations => {
                let v = ws.active_list[0] as usize;
                ws.x[v] = f64::NAN;
            }
            Some(FaultKind::PanicInKernel) if iterations == 1 => {
                // Intentional: models a latent kernel bug for the driver's
                // panic-isolation path.
                panic!("fault injection: panic inside SpMV kernel");
            }
            _ => {}
        }
        let t_iter = obs.now();
        let list = &ws.active_list;
        let base = alpha / n_act_f;
        let x = &ws.x;
        let inv_deg = &ws.inv_deg;
        let compact = &mut ws.y[..n_act];
        let body = |off: usize, slice: &mut [f64]| {
            let mut d = 0.0;
            let mut m = 0.0;
            for (i, yv) in slice.iter_mut().enumerate() {
                let v = list[off + i];
                let val = base + damp * pull_contrib(x, inv_deg, off + i, v);
                d += (val - x[v as usize]).abs();
                m += val;
                *yv = val;
            }
            (d, m)
        };
        let (diff, mass) = match sched {
            Some(s) => s.map_reduce_rows_chunked_mut(
                compact,
                1,
                &chunks,
                (0.0f64, 0.0f64),
                body,
                |a, b| (a.0 + b.0, a.1 + b.1),
            ),
            None => body(0, compact),
        };
        let t_mid = obs.now();
        match guard_check(diff, mass, 0, iterations, cfg, &mut health)? {
            GuardAction::Proceed => {
                for (i, &v) in ws.active_list.iter().enumerate() {
                    ws.x[v as usize] = ws.y[i];
                }
                if diff < cfg.tol && cfg.fault != Some(FaultKind::ForceNonConvergence) {
                    converged = true;
                }
            }
            GuardAction::Renormalize { scale } => {
                for (i, &v) in ws.active_list.iter().enumerate() {
                    ws.x[v as usize] = ws.y[i] * scale;
                }
                obs.guard(iterations, false);
            }
            GuardAction::Restart => {
                for &v in &ws.active_list {
                    ws.x[v as usize] = 1.0 / n_act_f;
                }
                obs.guard(iterations, true);
            }
        }
        obs.iteration(iterations, diff, mass, t_iter, t_mid);
        if converged {
            break;
        }
    }
    Ok(PrStats {
        iterations,
        converged,
        active_vertices: n_act,
        health,
    })
}

/// Applies the [`FaultKind::CorruptReciprocal`] fault: multiplies the
/// first active vertex's `1/outdeg` by 1000.
pub fn corrupt_first_reciprocal(active_list: &[u32], inv_deg: &mut [f64]) {
    if let Some(&v) = active_list.first() {
        inv_deg[v as usize] *= 1000.0;
    }
}

/// Computes PageRank on a static CSR graph — the kernel of the *offline*
/// execution model, which rebuilds a fresh [`Csr`] per window (§3.3.1).
///
/// Pass the window's CSR as both `pull` and `push`, as for
/// [`pagerank_window`], whose semantics it shares.
pub fn pagerank_csr(
    pull: &Csr,
    push: &Csr,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
) -> Result<PrStats, KernelError> {
    pagerank_csr_obs(pull, push, init, cfg, sched, ws, Obs::off())
}

/// [`pagerank_csr`] with an observation carrier (see [`crate::observe`]).
pub fn pagerank_csr_obs(
    pull: &Csr,
    push: &Csr,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
    obs: Obs<'_>,
) -> Result<PrStats, KernelError> {
    let g = one_structure(pull, push)?;
    ws.ensure(g.num_vertices());
    let t_setup = obs.now();
    degree_pass(|v| g.degree(v), sched, ws);
    obs.setup(ws.active_list.len(), t_setup);
    iterate_guarded(
        |x, inv_deg, _, v| pull_sum(g.neighbors(v), x, inv_deg),
        init,
        cfg,
        sched,
        ws,
        obs,
    )
}

/// Convenience wrapper allocating a fresh workspace and returning the rank
/// vector.
///
/// ```
/// use tempopr_graph::{Event, TemporalCsr, TimeRange};
/// use tempopr_kernel::{pagerank_window_vec, Init, PrConfig};
/// let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 1), Event::new(1, 2, 2)]);
/// let (ranks, stats) = pagerank_window_vec(
///     &t, &t, TimeRange::new(0, 10), Init::Uniform, &PrConfig::default(), None,
/// ).unwrap();
/// assert!(stats.converged);
/// assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6);
/// assert!(ranks[1] > ranks[0], "the middle vertex is most central");
/// ```
pub fn pagerank_window_vec(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    range: TimeRange,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
) -> Result<(Vec<f64>, PrStats), KernelError> {
    let mut ws = PrWorkspace::default();
    let stats = pagerank_window(pull, push, range, init, cfg, sched, &mut ws)?;
    Ok((ws.x, stats))
}

/// Fills `x` according to `init` over `active`, the active vertices in
/// ascending order: the shared initialization semantics (uniform /
/// provided / partial Eq. 4) used by every kernel in the workspace,
/// including the streaming baseline. Only the active rows are written, so
/// `x` must be zero elsewhere (as [`PrWorkspace::ensure`] leaves it); the
/// sums walk the vertices in ascending order, as a walk of the whole
/// vertex range would.
pub fn initialize(init: Init<'_>, active: &[u32], x: &mut [f64]) -> Result<(), KernelError> {
    let (n, n_act) = (x.len(), active.len() as f64);
    match init {
        Init::Uniform => {
            for &v in active {
                x[v as usize] = 1.0 / n_act;
            }
        }
        Init::Provided(p) => {
            if p.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "provided init",
                    expected: n,
                    got: p.len(),
                });
            }
            let mut sum = 0.0;
            for &v in active {
                if p[v as usize] > 0.0 {
                    sum += p[v as usize];
                }
            }
            if sum <= 0.0 {
                return initialize(Init::Uniform, active, x);
            }
            for &v in active {
                let p = p[v as usize];
                x[v as usize] = if p > 0.0 { p / sum } else { 0.0 };
            }
        }
        Init::Partial(prev) => {
            if prev.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "previous ranks",
                    expected: n,
                    got: prev.len(),
                });
            }
            // Eq. 4: shared vertices keep their scaled rank so the shared
            // mass is |Vi ∩ Vi-1| / |Vi|; newcomers take the uniform share.
            let mut shared = 0usize;
            let mut shared_sum = 0.0f64;
            for &v in active {
                if prev[v as usize] > 0.0 {
                    shared += 1;
                    shared_sum += prev[v as usize];
                }
            }
            if shared == 0 || shared_sum <= 0.0 {
                return initialize(Init::Uniform, active, x);
            }
            let factor = (shared as f64 / n_act) / shared_sum;
            for &v in active {
                let p = prev[v as usize];
                x[v as usize] = if p > 0.0 { p * factor } else { 1.0 / n_act };
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_pagerank;
    use crate::scheduler::{Partitioner, Scheduler};
    use tempopr_graph::{Event, TemporalCsr};

    fn cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    /// Brute-force edge list of a window: both directions of each event.
    fn window_edges(events: &[Event], range: TimeRange) -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for ev in events {
            if range.contains(ev.t) {
                e.push((ev.u, ev.v));
                if ev.u != ev.v {
                    e.push((ev.v, ev.u));
                }
            }
        }
        e.sort_unstable();
        e.dedup();
        e
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(0, 1, 0),
            Event::new(1, 2, 5),
            Event::new(2, 3, 10),
            Event::new(3, 0, 15),
            Event::new(1, 3, 20),
            Event::new(0, 1, 25),
            Event::new(4, 5, 30),
            Event::new(2, 4, 35),
        ]
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_on_symmetric_window() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        for range in [
            TimeRange::new(0, 15),
            TimeRange::new(10, 30),
            TimeRange::new(0, 40),
            TimeRange::new(26, 40),
        ] {
            let (x, stats) =
                pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
            let edges = window_edges(&events, range);
            let r = reference_pagerank(6, &edges, &cfg());
            assert_close(&x, &r, 1e-9);
            assert!(stats.converged);
            assert!(stats.health.is_clean());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let range = TimeRange::new(0, 40);
        let (seq, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            for g in [1, 2, 64] {
                let s = Scheduler::new(part, g);
                let (par, _) =
                    pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), Some(&s)).unwrap();
                assert_close(&seq, &par, 1e-9);
            }
        }
    }

    #[test]
    fn empty_window_returns_zero() {
        let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)]);
        let (x, stats) =
            pagerank_window_vec(&t, &t, TimeRange::new(10, 20), Init::Uniform, &cfg(), None)
                .unwrap();
        assert_eq!(x, vec![0.0; 3]);
        assert_eq!(stats.active_vertices, 0);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn mismatched_universes_is_an_error() {
        // Two structures are refused whatever they hold: the kernels read
        // one symmetric structure, passed as both pull and push.
        let a = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)]);
        let b = TemporalCsr::from_events(4, &[Event::new(0, 1, 5)]);
        let err = pagerank_window_vec(&a, &b, TimeRange::new(0, 10), Init::Uniform, &cfg(), None)
            .unwrap_err();
        assert_eq!(err, KernelError::NotSymmetric);
    }

    #[test]
    fn ranks_form_distribution_over_active_set() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let range = TimeRange::new(0, 20); // vertices 4,5 inactive
        let (x, stats) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        assert_eq!(stats.active_vertices, 4);
        assert_eq!(x[4], 0.0);
        assert_eq!(x[5], 0.0);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_init_reaches_same_fixed_point() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let r0 = TimeRange::new(0, 20);
        let r1 = TimeRange::new(10, 35);
        let (prev, _) = pagerank_window_vec(&t, &t, r0, Init::Uniform, &cfg(), None).unwrap();
        let (full, _) = pagerank_window_vec(&t, &t, r1, Init::Uniform, &cfg(), None).unwrap();
        let (part, _) =
            pagerank_window_vec(&t, &t, r1, Init::Partial(&prev), &cfg(), None).unwrap();
        assert_close(&full, &part, 1e-8);
    }

    #[test]
    fn partial_init_converges_no_slower_on_overlapping_windows() {
        // Build a chain-heavy graph with many events so windows overlap a lot.
        let mut events = Vec::new();
        for i in 0..200u32 {
            events.push(Event::new(i % 40, (i * 7 + 1) % 40, i as i64));
        }
        let t = TemporalCsr::from_events(40, &events);
        let r0 = TimeRange::new(0, 150);
        let r1 = TimeRange::new(10, 160);
        let c = PrConfig {
            alpha: 0.15,
            tol: 1e-10,
            max_iters: 200,
            ..PrConfig::default()
        };
        let (prev, _) = pagerank_window_vec(&t, &t, r0, Init::Uniform, &c, None).unwrap();
        let (_, full) = pagerank_window_vec(&t, &t, r1, Init::Uniform, &c, None).unwrap();
        let (_, part) = pagerank_window_vec(&t, &t, r1, Init::Partial(&prev), &c, None).unwrap();
        assert!(
            part.iterations <= full.iterations,
            "partial {} vs full {}",
            part.iterations,
            full.iterations
        );
    }

    #[test]
    fn partial_init_mass_split_matches_eq4() {
        // V_i = {0,1,2}, V_{i-1} = {0,1}: shared mass should be 2/3.
        let active = [0, 1, 2];
        let prev = vec![0.7, 0.3, 0.0, 0.0];
        let mut x = vec![0.0; 4];
        initialize(Init::Partial(&prev), &active, &mut x).unwrap();
        assert!((x[0] + x[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((x[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(x[3], 0.0);
        // Relative order within shared vertices preserved.
        assert!(x[0] > x[1]);
    }

    #[test]
    fn partial_init_with_disjoint_sets_falls_back_to_uniform() {
        let active = [2, 3];
        let prev = vec![0.5, 0.5, 0.0, 0.0];
        let mut x = vec![0.0; 4];
        initialize(Init::Partial(&prev), &active, &mut x).unwrap();
        assert_eq!(x, vec![0.0, 0.0, 0.5, 0.5]);
    }

    #[test]
    fn provided_init_is_masked_and_normalized() {
        let active = [0, 1];
        let p = vec![3.0, 1.0, 5.0];
        let mut x = vec![0.0; 3];
        initialize(Init::Provided(&p), &active, &mut x).unwrap();
        assert!((x[0] - 0.75).abs() < 1e-12);
        assert!((x[1] - 0.25).abs() < 1e-12);
        assert_eq!(x[2], 0.0);
    }

    #[test]
    fn wrong_length_init_is_an_error() {
        let active = [0, 1];
        let p = vec![1.0];
        let mut x = vec![0.0; 2];
        assert!(matches!(
            initialize(Init::Provided(&p), &active, &mut x),
            Err(KernelError::BadVectorLength { .. })
        ));
        assert!(matches!(
            initialize(Init::Partial(&p), &active, &mut x),
            Err(KernelError::BadVectorLength { .. })
        ));
    }

    #[test]
    fn max_iters_caps_work() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            alpha: 0.15,
            tol: 0.0, // unreachable tolerance
            max_iters: 7,
            ..PrConfig::default()
        };
        let (_, stats) =
            pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None).unwrap();
        assert_eq!(stats.iterations, 7);
        assert!(!stats.converged);
    }

    #[test]
    fn duplicate_events_within_window_do_not_skew_ranks() {
        // Same edge observed 3 times in the window vs once: identical ranks.
        let once = TemporalCsr::from_events(3, &[Event::new(0, 1, 1), Event::new(1, 2, 2)]);
        let thrice = TemporalCsr::from_events(
            3,
            &[
                Event::new(0, 1, 1),
                Event::new(0, 1, 2),
                Event::new(0, 1, 3),
                Event::new(1, 2, 2),
            ],
        );
        let r = TimeRange::new(0, 5);
        let (a, _) = pagerank_window_vec(&once, &once, r, Init::Uniform, &cfg(), None).unwrap();
        let (b, _) = pagerank_window_vec(&thrice, &thrice, r, Init::Uniform, &cfg(), None).unwrap();
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        // Setup clears only the rows the last window wrote, so a reused
        // workspace must give every window the stats and bits of a fresh
        // one: across parts of different sizes, through both entries,
        // along partial-initialization chains, and after a window that
        // failed, whether the caller then replaces the workspace (as the
        // engine does after a failed window) or retries on it (as its
        // recovery ladder does after a kernel error).
        use tempopr_graph::WindowIndex;
        let spans = |s: &[(i64, i64)]| -> Vec<TimeRange> {
            s.iter().map(|&(a, b)| TimeRange::new(a, b)).collect()
        };
        let big = TemporalCsr::from_events(10, &three_era_events());
        let small = TemporalCsr::from_events(6, &sample_events());
        let big_ranges = spans(&[(0, 60), (40, 160), (100, 199), (150, 320), (240, 260)]);
        let small_ranges = spans(&[(0, 14), (8, 22), (16, 30), (24, 38), (26, 40)]);
        let parts = [
            (&big, WindowIndex::build(&big, &big_ranges), &big_ranges),
            (
                &small,
                WindowIndex::build(&small, &small_ranges),
                &small_ranges,
            ),
        ];
        // The ranks, and the degrees and reciprocals beside them (zero off
        // the window), bit for bit.
        let state = |ws: &PrWorkspace| {
            let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
            (bits(&ws.x), ws.deg_out.clone(), bits(&ws.inv_deg))
        };
        let fresh = |t: &TemporalCsr, idx: &WindowIndex, j: usize, init: Init<'_>| {
            let mut ws = PrWorkspace::default();
            let stats = pagerank_window_indexed(t, t, &idx.view(j), init, &cfg(), None, &mut ws);
            (stats, state(&ws))
        };
        let failing = PrConfig {
            fault: Some(FaultKind::InjectNan { at_iter: 1 }),
            guard: GuardConfig {
                policy: NumericPolicy::Fail,
                ..GuardConfig::default()
            },
            ..cfg()
        };
        let mut ws = PrWorkspace::default();
        for replace_after_failure in [false, true] {
            for (t, idx, ranges) in &parts {
                let mut prev: Option<Vec<f64>> = None;
                for (j, &range) in ranges.iter().enumerate() {
                    let init = prev.as_deref().map_or(Init::Uniform, Init::Partial);
                    let expect = fresh(t, idx, j, init);
                    if j == 2 {
                        let view = idx.view(j);
                        let failed =
                            pagerank_window_indexed(t, t, &view, init, &failing, None, &mut ws);
                        assert!(failed.is_err(), "window {j} must fail");
                        if replace_after_failure {
                            ws = PrWorkspace::default();
                        }
                    }
                    let got =
                        pagerank_window_indexed(t, t, &idx.view(j), init, &cfg(), None, &mut ws);
                    assert_eq!((got, state(&ws)), expect, "indexed, window {j}");
                    let got = pagerank_window(t, t, range, init, &cfg(), None, &mut ws);
                    assert_eq!((got, state(&ws)), expect, "unindexed, window {j}");
                    prev = Some(ws.ranks().to_vec());
                }
            }
        }
    }

    #[test]
    fn indexed_window_kernel_is_bit_identical() {
        use tempopr_graph::WindowIndex;
        let events = sample_events();
        let ranges: Vec<TimeRange> = (0..5).map(|k| TimeRange::new(k * 8, k * 8 + 14)).collect();
        let t = TemporalCsr::from_events(6, &events);
        let idx = WindowIndex::build(&t, &ranges);
        let s = Scheduler::new(Partitioner::Simple, 2);
        for sched in [None, Some(&s)] {
            for (j, &range) in ranges.iter().enumerate() {
                let (plain, ps) =
                    pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), sched).unwrap();
                let mut ws = PrWorkspace::default();
                let is = pagerank_window_indexed(
                    &t,
                    &t,
                    &idx.view(j),
                    Init::Uniform,
                    &cfg(),
                    sched,
                    &mut ws,
                )
                .unwrap();
                assert_eq!(ps, is, "window {j}");
                assert_eq!(plain, ws.x, "window {j} ranks must be bit-identical");
            }
        }
        // A view over another vertex universe is refused, not indexed out
        // of bounds.
        let small = TemporalCsr::from_events(3, &[Event::new(0, 1, 3)]);
        let foreign = WindowIndex::build(&small, &ranges);
        let mut ws = PrWorkspace::default();
        let err = pagerank_window_indexed(
            &t,
            &t,
            &foreign.view(0),
            Init::Uniform,
            &cfg(),
            None,
            &mut ws,
        );
        assert_eq!(err.unwrap_err(), KernelError::ForeignIndexViews);
    }

    /// Events before, inside and after the window `[100, 199]`, chosen so
    /// that the window holds a hub (vertex 0) and a vertex (9) whose every
    /// in-window run comes from the chain, and so that stored runs mix
    /// in-window and out-of-window timestamps.
    fn three_era_events() -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..10u32 {
            // Before the window: a ring, also among window vertices.
            events.push(Event::new(i, (i + 1) % 10, i as i64));
            // After it: chords.
            events.push(Event::new(i, (i + 3) % 10, 250 + i as i64));
        }
        // Inside: 0 sends to 1..=5 and receives nothing; 9 only receives;
        // 1..=5 form a chain whose pairs also met before and after.
        for i in 1..=5u32 {
            events.push(Event::new(0, i, 100 + i as i64));
            events.push(Event::new(i, i % 5 + 1, 120 + i as i64));
            events.push(Event::new(i, 9, 150 + i as i64));
        }
        // A pair with one event in each era: one run, three timestamps.
        for t in [50, 160, 300] {
            events.push(Event::new(6, 7, t));
        }
        events
    }

    #[test]
    fn pull_list_is_the_same_from_every_entry_point_and_schedule() {
        use tempopr_graph::WindowIndex;
        let events = three_era_events();
        let range = TimeRange::new(100, 199);
        let pool = crate::scheduler::thread_pool(4).unwrap();
        let t = TemporalCsr::from_events(10, &events);
        let idx = WindowIndex::build(&t, &[range]);
        let mut plain = PrWorkspace::default();
        let stats =
            pagerank_window(&t, &t, range, Init::Uniform, &cfg(), None, &mut plain).unwrap();
        assert!(stats.converged && stats.iterations > 1);
        // The list is the window's pull adjacency: per active row, the
        // neighbours of its in-window runs in stored order.
        let expect: Vec<Vec<VertexId>> = plain
            .active_list
            .iter()
            .map(|&v| t.active_neighbors(v, range).collect())
            .collect();
        assert_eq!(plain.pull_off.len(), plain.active_list.len() + 1);
        for (i, nbrs) in expect.iter().enumerate() {
            assert_eq!(
                &plain.pull_nbr[plain.pull_off[i]..plain.pull_off[i + 1]],
                nbrs.as_slice(),
                "row {}",
                plain.active_list[i]
            );
        }
        let stored: usize = plain
            .active_list
            .iter()
            .map(|&v| t.entries(v).0.len())
            .sum();
        assert!(
            plain.pull_nbr.len() < stored,
            "entries outside the window must be filtered out"
        );
        let scheds = [
            None,
            Some(Scheduler::new(Partitioner::Auto, 1)),
            Some(Scheduler::new(Partitioner::Simple, 3)),
            Some(Scheduler::new(Partitioner::Static, 1)),
        ];
        for sched in &scheds {
            for indexed in [false, true] {
                let mut ws = PrWorkspace::default();
                let st = pool
                    .install(|| {
                        if indexed {
                            pagerank_window_indexed(
                                &t,
                                &t,
                                &idx.view(0),
                                Init::Uniform,
                                &cfg(),
                                sched.as_ref(),
                                &mut ws,
                            )
                        } else {
                            pagerank_window(
                                &t,
                                &t,
                                range,
                                Init::Uniform,
                                &cfg(),
                                sched.as_ref(),
                                &mut ws,
                            )
                        }
                    })
                    .unwrap();
                let what = format!("indexed={indexed} {sched:?}");
                assert_eq!(ws.pull_off, plain.pull_off, "{what}");
                assert_eq!(ws.pull_nbr, plain.pull_nbr, "{what}");
                // A row's value never depends on the task it falls in
                // (only the residual's grouping does), so equal
                // iteration counts mean equal bits.
                assert_eq!(st, stats, "{what}");
                assert_eq!(ws.x, plain.x, "{what}");
            }
        }
    }

    #[test]
    fn pull_list_iteration_matches_the_per_iteration_scan_bitwise() {
        // The kernel this one replaced tested every stored run against the
        // window in every iteration; gathering over the filtered list must
        // give the same products in the same order.
        let events = three_era_events();
        let range = TimeRange::new(100, 199);
        let t = TemporalCsr::from_events(10, &events);
        let mut ws = PrWorkspace::default();
        let stats = pagerank_window(&t, &t, range, Init::Uniform, &cfg(), None, &mut ws).unwrap();
        let mut scan = PrWorkspace::default();
        pagerank_window(
            &t,
            &t,
            range,
            Init::Uniform,
            &PrConfig {
                max_iters: 0,
                ..cfg()
            },
            None,
            &mut scan,
        )
        .unwrap();
        let scanned = iterate_guarded(
            |x, inv_deg, _, v| {
                let mut s = 0.0;
                for run in t.runs(v) {
                    if run.active_in(range) {
                        let u = run.neighbor as usize;
                        s += x[u] * inv_deg[u];
                    }
                }
                s
            },
            Init::Uniform,
            &cfg(),
            None,
            &mut scan,
            Obs::off(),
        )
        .unwrap();
        assert_eq!(scanned, stats);
        assert_eq!(scan.x, ws.x);
    }

    #[test]
    fn csr_kernel_matches_reference() {
        use tempopr_graph::Csr;
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 1), (0, 3)];
        let g = Csr::from_edges(5, edges.clone());
        let mut ws = PrWorkspace::default();
        let stats =
            crate::pagerank::pagerank_csr(&g, &g, Init::Uniform, &cfg(), None, &mut ws).unwrap();
        let mut sym = Vec::new();
        for &(u, v) in &edges {
            sym.push((u, v));
            sym.push((v, u));
        }
        let r = reference_pagerank(5, &sym, &cfg());
        assert_close(ws.ranks(), &r, 1e-9);
        assert!(stats.converged);
    }

    #[test]
    fn csr_kernel_parallel_matches_sequential() {
        use tempopr_graph::Csr;
        let edges: Vec<(u32, u32)> = (0..60)
            .map(|i| ((i * 13 + 1) % 20, (i * 7 + 3) % 20))
            .collect();
        let g = Csr::from_edges(20, edges);
        let mut seq = PrWorkspace::default();
        crate::pagerank::pagerank_csr(&g, &g, Init::Uniform, &cfg(), None, &mut seq).unwrap();
        let s = Scheduler::new(Partitioner::Simple, 3);
        let mut par = PrWorkspace::default();
        crate::pagerank::pagerank_csr(&g, &g, Init::Uniform, &cfg(), Some(&s), &mut par).unwrap();
        assert_close(seq.ranks(), par.ranks(), 1e-9);
    }

    // --- Numeric-health guards and fault injection -----------------------

    #[test]
    fn guards_do_not_change_healthy_ranks() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let range = TimeRange::new(0, 40);
        let on = cfg();
        let off = PrConfig {
            guard: GuardConfig::off(),
            ..cfg()
        };
        let (xon, son) = pagerank_window_vec(&t, &t, range, Init::Uniform, &on, None).unwrap();
        let (xoff, soff) = pagerank_window_vec(&t, &t, range, Init::Uniform, &off, None).unwrap();
        assert_eq!(xon, xoff, "guards must be read-only observers");
        assert_eq!(son, soff);
    }

    #[test]
    fn injected_nan_recovers_via_restart() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let range = TimeRange::new(0, 40);
        let c = PrConfig {
            fault: Some(FaultKind::InjectNan { at_iter: 3 }),
            ..cfg()
        };
        let (x, stats) = pagerank_window_vec(&t, &t, range, Init::Uniform, &c, None).unwrap();
        assert_eq!(stats.health.restarts, 1);
        assert!(stats.converged);
        let (clean, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        assert_close(&x, &clean, 1e-9);
    }

    #[test]
    fn injected_nan_fails_under_fail_policy() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            guard: GuardConfig {
                policy: NumericPolicy::Fail,
                ..GuardConfig::default()
            },
            fault: Some(FaultKind::InjectNan { at_iter: 2 }),
            ..cfg()
        };
        let err = pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None)
            .unwrap_err();
        assert!(matches!(
            err,
            KernelError::Numeric {
                iteration: 2,
                fault: NumericFault::NonFinite { .. }
            }
        ));
    }

    #[test]
    fn corrupted_reciprocal_is_detected() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            fault: Some(FaultKind::CorruptReciprocal),
            ..cfg()
        };
        // Persistent drift exhausts the renormalization budget and
        // escalates instead of spinning silently.
        let err = pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None)
            .unwrap_err();
        assert!(matches!(
            err,
            KernelError::Numeric {
                fault: NumericFault::MassDrift { .. },
                ..
            }
        ));
    }

    #[test]
    fn guards_off_lets_nan_through_silently() {
        // The contrast case justifying the guards: without them the kernel
        // runs to the cap and hands back a poisoned vector.
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            guard: GuardConfig::off(),
            fault: Some(FaultKind::InjectNan { at_iter: 2 }),
            max_iters: 10,
            ..cfg()
        };
        let (x, stats) =
            pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None).unwrap();
        assert!(!stats.converged);
        assert!(x.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn forced_non_convergence_runs_to_cap() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            fault: Some(FaultKind::ForceNonConvergence),
            max_iters: 12,
            ..cfg()
        };
        let (_, stats) =
            pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None).unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 12);
    }

    #[test]
    fn injected_panic_unwinds() {
        let events = sample_events();
        let t = TemporalCsr::from_events(6, &events);
        let c = PrConfig {
            fault: Some(FaultKind::PanicInKernel),
            ..cfg()
        };
        let r = std::panic::catch_unwind(|| {
            pagerank_window_vec(&t, &t, TimeRange::new(0, 40), Init::Uniform, &c, None)
        });
        assert!(r.is_err());
    }
}
