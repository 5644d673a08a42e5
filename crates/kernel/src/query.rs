//! Query-batched PageRank: (window × query) SpMM lanes.
//!
//! The batched SpMM kernel (paper §4.4, [`crate::spmm`]) amortizes one
//! traversal of the temporal CSR across `vl` *windows*. A serving workload
//! wants the same amortization across *queries*: many personalized seed
//! vectors, an (alpha, beta) parameter grid, a Katz sweep — all over the
//! same few windows. This module generalizes the lane axis from "window"
//! to "(window, query)": lane `k = w·nq + q` computes query `q` on window
//! `w`, every lane sharing the single run-mask read of the matrix and the
//! per-iteration pull walk.
//!
//! Per lane the row update is the affine form
//!
//! ```text
//! y[v,k] = factor[k] · tele[v,k] + scale[k] · acc[k]
//! ```
//!
//! - **Personalized PageRank** (`factor = alpha`, `scale = damp = 1 − alpha`,
//!   `tele` = the normalized preference):
//!   exactly the single-query update of
//!   [`crate::pagerank_window_personalized`].
//! - **Katz centrality** (`factor = 1`, `scale = alpha`, `tele[v] = beta`
//!   on active vertices, unit edge weights): exactly the Jacobi update
//!   `x = beta + alpha·Aᵀx` of [`crate::reference::katz_window`],
//!   generalized to any `beta` (at `beta = 1` it reproduces the classic
//!   form bit-for-bit, since `1.0 · tele` is exact).
//!
//! `factor`/`scale`/`tele` are per lane, so a multi-alpha grid shares one
//! batch without any cross-lane leakage — every lane's arithmetic is the
//! exact scalar sequence of its single-query kernel, which is what the
//! differential suites (`tests/prop_query_batch.rs`,
//! `tests/query_batch_edge_cases.rs`) pin down bit-for-bit.
//!
//! This module holds no iteration of its own. It owns the query axis —
//! [`QuerySpec`] / [`QueryBatch`] validation, the lane layout, each lane's
//! parameters and teleport column, [`QueryInit`] seeding, the outcome —
//! and hands all of it to the one lane-batched round loop,
//! [`crate::spmm`]'s `batch_iterate`, as a lane rule (`AffineTeleport`
//! here, beside the window batch's uniform rule there). Query lanes
//! therefore run the same live-row list, density-chosen row walk,
//! cell-sparse finalize, health guards, fault hooks and converged-lane
//! **compaction** as window lanes: finished queries retire early (their
//! columns parked, teleport and per-lane parameters repacked alongside the
//! rank matrix), so a grid whose easy points finish in 10 iterations stops
//! paying for them while the hard points run on.
//!
//! Window membership comes from a [`WindowIndex`].
//! [`pagerank_query_batch_indexed`], the entry the engine runs, reads views
//! of an index the caller already holds — the part's cached one — and
//! walks that index's run list in place, or copies out its held runs where
//! a quarter of the list is runs no lane holds, as the indexed window batch
//! does. [`pagerank_query_batch`] takes time ranges instead, builds an
//! index over them for the call and keeps the runs its lanes hold: the
//! reference the indexed entry is tested against, and the entry for
//! callers that hold no index. Both give the same bits.

use crate::error::KernelError;
use crate::observe::BatchObs;
use crate::pagerank::{one_structure, PrConfig, PrStats};
use crate::scheduler::Scheduler;
use crate::spmm::{
    batch_iterate, compress_bits, lanes_from_views, repack_columns, Affine, LaneRule,
    SpmmWorkspace, MAX_LANES,
};
use std::time::Instant;
use tempopr_graph::{LiveRuns, TemporalCsr, TimeRange, VertexId, WindowIndex, WindowIndexView};

/// One query to evaluate on every window of the batch.
#[derive(Debug, Clone, Copy)]
pub enum QuerySpec<'a> {
    /// Personalized PageRank: teleport to `preference` (finite, non-negative,
    /// any scale, length = vertex count) with damping `1 − alpha`.
    Personalized {
        /// Preference weighting over the vertex space.
        preference: &'a [f64],
        /// Teleport probability, in `[0, 1]`.
        alpha: f64,
    },
    /// Katz centrality `x = beta + alpha·Aᵀx` with per-window
    /// `alpha = alpha_fraction / (max_active_degree + 1)`.
    Katz {
        /// Fraction of the convergence bound `1/(max_deg + 1)`, in `(0, 1)`.
        alpha_fraction: f64,
        /// Baseline score every active vertex starts with (`1.0` is the
        /// classic formulation).
        beta: f64,
        /// Convergence threshold on the L∞ iterate difference.
        tol: f64,
    },
}

impl QuerySpec<'_> {
    fn validate(&self, index: usize) -> Result<(), KernelError> {
        match *self {
            QuerySpec::Personalized { alpha, .. } => {
                if !(alpha.is_finite() && (0.0..=1.0).contains(&alpha)) {
                    return Err(KernelError::BadQuery {
                        index,
                        what: "alpha must be finite and in [0, 1]",
                    });
                }
            }
            QuerySpec::Katz {
                alpha_fraction,
                beta,
                tol,
            } => {
                if !(alpha_fraction.is_finite() && alpha_fraction > 0.0 && alpha_fraction < 1.0) {
                    return Err(KernelError::BadQuery {
                        index,
                        what: "alpha_fraction must be in (0, 1)",
                    });
                }
                if !(beta.is_finite() && beta > 0.0) {
                    return Err(KernelError::BadQuery {
                        index,
                        what: "beta must be finite and positive",
                    });
                }
                if !(tol.is_finite() && tol > 0.0) {
                    return Err(KernelError::BadQuery {
                        index,
                        what: "tol must be finite and positive",
                    });
                }
            }
        }
        Ok(())
    }

    fn is_katz(&self) -> bool {
        matches!(self, QuerySpec::Katz { .. })
    }
}

/// A validated, non-empty list of queries — the query axis of a
/// (window × query) batch.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    queries: Vec<QuerySpec<'a>>,
}

impl<'a> QueryBatch<'a> {
    /// Validates parameter ranges and rejects an empty list with the typed
    /// [`KernelError::EmptyBatch`].
    pub fn new(queries: Vec<QuerySpec<'a>>) -> Result<Self, KernelError> {
        if queries.is_empty() {
            return Err(KernelError::EmptyBatch);
        }
        for (i, q) in queries.iter().enumerate() {
            q.validate(i)?;
        }
        Ok(QueryBatch { queries })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Always `false` — [`QueryBatch::new`] rejects empty batches.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in lane order.
    pub fn queries(&self) -> &[QuerySpec<'a>] {
        &self.queries
    }
}

/// Per-lane initialization for a query batch.
#[derive(Debug, Clone, Copy, Default)]
pub enum QueryInit<'a> {
    /// The query's canonical start: the teleport distribution for
    /// personalized lanes, `beta` on active vertices for Katz lanes. This
    /// is exactly what the single-query kernels start from, so fresh
    /// batched runs are bit-comparable to them.
    #[default]
    Fresh,
    /// Warm start from a previous window's converged ranks for the *same*
    /// query (length = vertex count). Personalized lanes renormalize the
    /// positive overlap into a distribution (falling back to `Fresh` when
    /// no mass survives); Katz lanes reuse positive scores directly and
    /// backfill `beta`.
    Warm(&'a [f64]),
}

/// Reusable buffers for the query-batched kernel: the SpMM workspace plus
/// the interleaved per-lane teleport matrix.
#[derive(Debug, Default, Clone)]
pub struct QueryWorkspace {
    /// Rank matrix, masks and run-compressed adjacency (`x` holds the
    /// result, interleaved `n × vl`).
    pub base: SpmmWorkspace,
    /// Interleaved teleport / baseline matrix, `n × vl`.
    pub tele: Vec<f64>,
}

impl QueryWorkspace {
    /// Copies lane `k` of the result into `out` (length `n`).
    pub fn copy_lane_into(&self, k: usize, vl: usize, out: &mut [f64]) {
        self.base.copy_lane_into(k, vl, out);
    }
}

/// What one query-batched call produced, per lane `k = w·nq + q`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatchOutcome {
    /// Iteration statistics per lane.
    pub stats: Vec<PrStats>,
    /// Per lane: did a personalized query fall back to the uniform
    /// teleport because its preference had no mass on that window's active
    /// set? (Always `false` for Katz lanes — same flag as
    /// [`crate::PersonalizedStats::uniform_fallback`].)
    pub uniform_fallback: Vec<bool>,
    /// Per lane: the effective Katz attenuation
    /// `alpha_fraction / (max_active_degree + 1)` (0 for personalized
    /// lanes and for empty windows).
    pub katz_alpha: Vec<f64>,
    /// Lanes retired early by converged-lane compaction.
    pub lanes_retired: usize,
    /// Iterations the per-lane convergence masking saved versus running
    /// every lane to the slowest lane's count.
    pub iterations_saved: u64,
}

/// Runs up to [`MAX_LANES`] (window × query) PageRank/Katz lanes over one
/// traversal of the temporal CSR.
///
/// Lane `k = w·nq + q` evaluates `batch.queries()[q]` on `ranges[w]`;
/// `inits[k]` seeds it (see [`QueryInit`]). `pull`/`push` as in
/// [`crate::pagerank::pagerank_window`]: one structure, passed twice.
/// Results are interleaved in `ws.base.x`
/// ([`QueryWorkspace::copy_lane_into`]). `cfg.tol` governs personalized
/// lanes; Katz lanes use their own [`QuerySpec::Katz::tol`]. Window
/// membership is decided by a [`WindowIndex`] over `ranges`, built for the
/// call; [`pagerank_query_batch_indexed`], which the engine runs, reads one
/// the caller holds.
#[allow(clippy::too_many_arguments)]
pub fn pagerank_query_batch(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    ranges: &[TimeRange],
    batch: &QueryBatch<'_>,
    inits: &[QueryInit<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut QueryWorkspace,
) -> Result<QueryBatchOutcome, KernelError> {
    let n = check_queries(pull, push, ranges.len(), batch, inits.len())?;
    let index = WindowIndex::build(pull, ranges);
    let views: Vec<_> = (0..ranges.len()).map(|j| index.view(j)).collect();
    let off = BatchObs::off();
    query_batch(&views, n, true, batch, inits, cfg, sched, ws, off, None)
}

/// [`pagerank_query_batch`] with every window decided by the part's
/// [`WindowIndex`]: lane `k = w·nq + q` evaluates `batch.queries()[q]` on
/// `views[w]`'s window, and no index is built for the call. The batch walks
/// the index's run list in place unless runs no lane holds make up a
/// quarter of it, when it copies out the runs it holds
/// ([`crate::pagerank_batch_indexed`]'s rule). All views must come from one
/// index over `pull`'s vertices ([`KernelError::ForeignIndexViews`]
/// otherwise). Ranks, stats, `uniform_fallback`, `katz_alpha` and
/// `lanes_retired` match [`pagerank_query_batch`] over the views' ranges bit
/// for bit. Observation through `obs` (see [`crate::observe`]) is
/// read-only: ranks are bit-identical with any sink attached.
#[allow(clippy::too_many_arguments)]
pub fn pagerank_query_batch_indexed(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    views: &[WindowIndexView<'_>],
    batch: &QueryBatch<'_>,
    inits: &[QueryInit<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut QueryWorkspace,
    obs: BatchObs<'_>,
) -> Result<QueryBatchOutcome, KernelError> {
    let n = check_queries(pull, push, views.len(), batch, inits.len())?;
    let t_setup = obs.now();
    query_batch(views, n, false, batch, inits, cfg, sched, ws, obs, t_setup)
}

/// One (window × query) batch over `views` of one index on `n` vertices,
/// after the argument checks: the setup of [`query_lanes`] (`own` as in
/// `spmm::lanes_from_views`), the round loop and the outcome.
#[allow(clippy::too_many_arguments)]
fn query_batch(
    views: &[WindowIndexView<'_>],
    n: usize,
    own: bool,
    batch: &QueryBatch<'_>,
    inits: &[QueryInit<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut QueryWorkspace,
    obs: BatchObs<'_>,
    t_setup: Option<Instant>,
) -> Result<QueryBatchOutcome, KernelError> {
    let QueryWorkspace { base, tele } = ws;
    let (mut rule, runs) = query_lanes(views, n, own, batch, inits, cfg, base, tele)?;
    let nq = batch.len();
    let lane_verts: Vec<&[VertexId]> = (0..views.len() * nq)
        .map(|k| views[k / nq].vertices)
        .collect();
    let stats = batch_iterate(&lane_verts, runs, &mut rule, cfg, sched, base, obs, t_setup)?;
    let it_max = stats.iter().map(|s| s.iterations).max().unwrap_or(0) as u64;
    let iterations_saved: u64 = stats.iter().map(|s| it_max - s.iterations as u64).sum();
    Ok(QueryBatchOutcome {
        stats,
        uniform_fallback: rule.uniform_fallback,
        katz_alpha: rule.katz_alpha,
        lanes_retired: rule.lanes_retired,
        iterations_saved,
    })
}

/// The argument checks of a (window × query) batch: at least one window,
/// at most [`MAX_LANES`] lanes, one init per lane, one structure, and
/// preferences that span it with finite non-negative weights (parameter
/// ranges were checked by [`QueryBatch::new`]). Returns the universe size.
fn check_queries(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    nw: usize,
    batch: &QueryBatch<'_>,
    inits: usize,
) -> Result<usize, KernelError> {
    if nw == 0 {
        return Err(KernelError::EmptyBatch);
    }
    let vl = nw * batch.len();
    if vl > MAX_LANES {
        return Err(KernelError::BadLaneCount { got: vl });
    }
    if inits != vl {
        return Err(KernelError::LaneMismatch {
            lanes: vl,
            args: inits,
        });
    }
    let n = one_structure(pull, push)?.num_vertices();
    for (index, spec) in batch.queries().iter().enumerate() {
        if let QuerySpec::Personalized { preference, .. } = spec {
            if preference.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "preference",
                    expected: n,
                    got: preference.len(),
                });
            }
            if !preference.iter().all(|&p| p.is_finite() && p >= 0.0) {
                return Err(KernelError::BadQuery {
                    index,
                    what: "preference weights must be finite and non-negative",
                });
            }
        }
    }
    Ok(n)
}

/// Everything of a (window × query) batch that precedes the round loop,
/// over `views` of one index on `n` vertices: the indexed setup of `base`
/// with each window's bit copied to its `nq` lanes `k = w·nq + q` (so a
/// run live in a window is live in all of its queries, which is what puts
/// query batches on the whole-stride row walk more often than window
/// batches), and the per-lane parameters and teleport matrix that make up
/// the batch's [`LaneRule`]. Returns the rule and the index's run list.
#[allow(clippy::too_many_arguments)]
fn query_lanes<'a, 'i>(
    views: &[WindowIndexView<'i>],
    n: usize,
    own: bool,
    batch: &QueryBatch<'_>,
    inits: &'a [QueryInit<'a>],
    cfg: &PrConfig,
    base: &mut SpmmWorkspace,
    tele: &'a mut Vec<f64>,
) -> Result<(AffineTeleport<'a>, LiveRuns<'i>), KernelError> {
    let nq = batch.len();
    let vl = views.len() * nq;
    let runs = lanes_from_views(views, nq, n, own, base)?;
    let max_pull_deg = if batch.queries().iter().any(|q| q.is_katz()) {
        max_pull_degrees(runs, views)
    } else {
        Vec::new()
    };

    // Per-lane parameters — `alpha`, `scale` (damp for PPR, attenuation for
    // Katz), tolerance, the Katz lane set — and the teleport / baseline
    // matrix. Katz lanes also flatten their edge weights to 1.
    let mut rule = AffineTeleport {
        tele,
        inits,
        alpha: vec![0.0; vl],
        scale: vec![0.0; vl],
        tol: vec![cfg.tol; vl],
        katz: 0,
        uniform_fallback: vec![false; vl],
        katz_alpha: vec![0.0; vl],
        lanes_retired: 0,
    };
    // Every cell of `tele` a round reads, a lane's at its active vertices,
    // is written below; the rest keep whatever earlier batches left.
    rule.tele.resize(n * vl, 0.0);
    for k in 0..vl {
        let verts = views[k / nq].vertices;
        let ids = || verts.iter().map(|&v| v as usize);
        match batch.queries()[k % nq] {
            QuerySpec::Personalized { preference, alpha } => {
                rule.alpha[k] = alpha;
                rule.scale[k] = 1.0 - alpha;
                if verts.is_empty() {
                    continue;
                }
                // Same rule (and the same ascending summation order, so the
                // same floating-point mass) as the single-query kernel.
                let mut mass = 0.0f64;
                for v in ids() {
                    mass += preference[v];
                }
                if mass > 0.0 {
                    for v in ids() {
                        rule.tele[v * vl + k] = preference[v] / mass;
                    }
                } else {
                    rule.uniform_fallback[k] = true;
                    let u = 1.0 / verts.len() as f64;
                    for v in ids() {
                        rule.tele[v * vl + k] = u;
                    }
                }
            }
            QuerySpec::Katz {
                alpha_fraction,
                beta,
                tol,
            } => {
                rule.katz |= 1u64 << k;
                rule.tol[k] = tol;
                if !verts.is_empty() {
                    let a = alpha_fraction / (max_pull_deg[k / nq] + 1) as f64;
                    rule.katz_alpha[k] = a;
                    rule.scale[k] = a;
                    for v in ids() {
                        rule.tele[v * vl + k] = beta;
                    }
                }
                // Unit edge weights: the Katz sum is Σ x[u], not Σ x[u]/deg.
                // A run the lane holds starts at a vertex active in its
                // window, so those are the only weights it reads.
                for v in ids() {
                    base.inv_deg[v * vl + k] = 1.0;
                }
            }
        }
    }
    Ok((rule, runs))
}

/// Each view's largest in-window pull degree — the most runs of one row
/// its window holds — the bound a Katz lane's attenuation is a fraction of.
fn max_pull_degrees(runs: LiveRuns<'_>, views: &[WindowIndexView<'_>]) -> Vec<u32> {
    views
        .iter()
        .map(|view| {
            let held = |r: &[usize]| (r[0]..r[1]).filter(|&i| runs.holds(i, view.window)).count();
            runs.row.windows(2).map(held).max().unwrap_or(0) as u32
        })
        .collect()
}

/// The lane rule of a (window × query) batch: per lane the affine update
/// `factor·tele[v] + scale·acc` of the module docs, with the lane's own
/// tolerance, on the L1 residual for personalized lanes and the L∞ one for
/// Katz lanes. Per-lane state is held in compact-slot order and repacked
/// with the rank matrix; the outcome fields stay in original lane order.
struct AffineTeleport<'a> {
    /// Interleaved teleport / baseline matrix at the current stride.
    tele: &'a mut Vec<f64>,
    inits: &'a [QueryInit<'a>],
    alpha: Vec<f64>,
    scale: Vec<f64>,
    tol: Vec<f64>,
    /// Slots holding Katz lanes.
    katz: u64,
    uniform_fallback: Vec<bool>,
    katz_alpha: Vec<f64>,
    lanes_retired: usize,
}

impl AffineTeleport<'_> {
    fn is_katz(&self, k: usize) -> bool {
        self.katz & (1u64 << k) != 0
    }
}

impl LaneRule for AffineTeleport<'_> {
    /// See [`QueryInit`]. A preference may be zero on an active vertex, so
    /// "carries teleport mass" stands in for "active" here exactly as it
    /// did in the lanes' single-query form.
    fn seed(
        &self,
        k: usize,
        vl: usize,
        verts: &[VertexId],
        n: usize,
        x: &mut [f64],
    ) -> Result<(), KernelError> {
        let QueryInit::Warm(prev) = self.inits[k] else {
            self.restart(k, vl, verts, x);
            return Ok(());
        };
        if prev.len() != n {
            return Err(KernelError::BadVectorLength {
                what: "previous ranks",
                expected: n,
                got: prev.len(),
            });
        }
        let tele = &self.tele[..];
        let slots = || verts.iter().map(|&v| (v as usize, v as usize * vl + k));
        if self.is_katz(k) {
            // Scores are unnormalized; carry positive overlap, backfill
            // the baseline on newly-active vertices.
            for (v, s) in slots() {
                x[s] = if tele[s] != 0.0 && prev[v] > 0.0 {
                    prev[v]
                } else {
                    tele[s]
                };
            }
        } else {
            // Renormalize the positive overlap with the lane's active
            // set into a distribution; no overlap → canonical start.
            let mut sum = 0.0f64;
            for (v, s) in slots() {
                if tele[s] != 0.0 && prev[v] > 0.0 {
                    sum += prev[v];
                }
            }
            if sum <= 0.0 {
                self.restart(k, vl, verts, x);
                return Ok(());
            }
            for (v, s) in slots() {
                x[s] = if tele[s] != 0.0 && prev[v] > 0.0 {
                    prev[v] / sum
                } else {
                    0.0
                };
            }
        }
        Ok(())
    }

    /// The query's canonical start — the teleport distribution, or `beta`
    /// on a Katz lane — which is what the single-query kernels restart
    /// from.
    fn restart(&self, k: usize, vl: usize, verts: &[VertexId], x: &mut [f64]) {
        for &v in verts {
            x[v as usize * vl + k] = self.tele[v as usize * vl + k];
        }
    }

    /// Personalized lanes teleport `alpha`; Katz lanes add `beta` whole.
    #[inline]
    fn coefficient(&self, k: usize, _n_act: usize) -> f64 {
        if self.is_katz(k) {
            1.0
        } else {
            self.alpha[k]
        }
    }

    /// `factor·tele[v] + scale·acc`, on the L1 residual for personalized
    /// lanes and the L∞ one for Katz lanes.
    fn affine(&self) -> Affine<'_> {
        Affine {
            scale: &self.scale,
            tele: Some(self.tele),
            linf: self.katz,
        }
    }

    fn tolerance(&self, k: usize) -> f64 {
        self.tol[k]
    }

    /// Katz lanes have no conserved mass, so they are guarded for
    /// finiteness only (mass pinned to 1).
    fn guard_mass(&self, k: usize, mass: f64) -> f64 {
        if self.is_katz(k) {
            1.0
        } else {
            mass
        }
    }

    fn compact(&mut self, keep: &[usize], vl: usize, rows: &[u32]) {
        self.lanes_retired += vl - keep.len();
        repack_columns(self.tele, rows, vl, keep);
        self.katz = compress_bits(self.katz, keep);
        for p in [&mut self.alpha, &mut self.scale, &mut self.tol] {
            *p = keep.iter().map(|&j| p[j]).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{PrConfig, PrWorkspace};
    use crate::personalized::pagerank_window_personalized;
    use crate::reference::{katz_window, KatzConfig};
    use crate::scheduler::{Partitioner, Scheduler};
    use tempopr_graph::Event;

    fn cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    fn sample_events() -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..120u32 {
            let u = (i * 13 + 2) % 25;
            let v = (i * 7 + 5) % 25;
            if u != v {
                events.push(Event::new(u, v, (i * 3) as i64));
            }
        }
        events
    }

    fn seed_pref(n: usize, seeds: &[(usize, f64)]) -> Vec<f64> {
        let mut p = vec![0.0; n];
        for &(v, w) in seeds {
            p[v] = w;
        }
        p
    }

    fn lane_of(ws: &QueryWorkspace, k: usize, vl: usize) -> Vec<f64> {
        let mut out = vec![0.0; ws.base.x.len() / vl];
        ws.copy_lane_into(k, vl, &mut out);
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn ppr_lanes_bit_match_single_query_kernel() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = vec![TimeRange::new(0, 150), TimeRange::new(80, 300)];
        let prefs = [
            seed_pref(25, &[(3, 1.0)]),
            seed_pref(25, &[(7, 2.0), (11, 1.0)]),
            vec![1.0; 25],
        ];
        let alphas = [0.15, 0.25, 0.05];
        let batch = QueryBatch::new(
            prefs
                .iter()
                .zip(alphas)
                .map(|(p, alpha)| QuerySpec::Personalized {
                    preference: p,
                    alpha,
                })
                .collect(),
        )
        .unwrap();
        let vl = ranges.len() * batch.len();
        let inits = vec![QueryInit::Fresh; vl];
        let mut qws = QueryWorkspace::default();
        let out =
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), None, &mut qws).unwrap();
        for (w, &range) in ranges.iter().enumerate() {
            for (q, (p, alpha)) in prefs.iter().zip(alphas).enumerate() {
                let k = w * batch.len() + q;
                let c = PrConfig { alpha, ..cfg() };
                let mut ws = PrWorkspace::default();
                let st = pagerank_window_personalized(&t, &t, range, p, &c, None, &mut ws).unwrap();
                assert_eq!(
                    bits(&lane_of(&qws, k, vl)),
                    bits(&ws.x),
                    "lane {k} (window {w}, query {q}) must be bit-identical"
                );
                assert_eq!(out.stats[k].iterations, st.pr.iterations, "lane {k}");
                assert_eq!(out.stats[k].converged, st.pr.converged);
                assert_eq!(out.uniform_fallback[k], st.uniform_fallback);
            }
        }
    }

    #[test]
    fn katz_lane_bit_matches_reference() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = vec![TimeRange::new(0, 200)];
        let batch = QueryBatch::new(vec![
            QuerySpec::Katz {
                alpha_fraction: 0.85,
                beta: 1.0,
                tol: 1e-12,
            },
            QuerySpec::Personalized {
                preference: &[1.0; 25],
                alpha: 0.15,
            },
        ])
        .unwrap();
        let inits = vec![QueryInit::Fresh; 2];
        let mut qws = QueryWorkspace::default();
        let out =
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), None, &mut qws).unwrap();
        let expect = katz_window(
            &t,
            ranges[0],
            &KatzConfig {
                alpha_fraction: 0.85,
                tol: 1e-12,
                max_iters: cfg().max_iters,
            },
        );
        assert_eq!(
            bits(&lane_of(&qws, 0, 2)),
            bits(&expect.score),
            "katz lane must be bit-identical to the Jacobi reference"
        );
        assert!(out.katz_alpha[0] > 0.0);
        assert_eq!(out.katz_alpha[1], 0.0);
    }

    #[test]
    fn indexed_entry_bit_matches_the_unindexed_one() {
        // Views of one index over eight disjoint windows against
        // `pagerank_query_batch` over the same ranges: personalized and
        // Katz lanes, and subsets of the
        // windows on both sides of the copy rule — the whole index and all
        // but one window walk it in place, half of it or one window copy
        // out their held runs.
        use crate::spmm::EMPTY_RUN_SHARE;
        let mut seed = 11u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let n = 25;
        let events: Vec<Event> = (0..300)
            .map(|_| Event::new(next(25) as u32, next(25) as u32, next(360) as i64))
            .filter(|e| e.u != e.v)
            .collect();
        let ranges: Vec<TimeRange> = (0..8)
            .map(|k| TimeRange::new(k * 45, k * 45 + 44))
            .collect();
        let (sparse, dense) = (
            seed_pref(n, &[(3, 1.0)]),
            seed_pref(n, &[(7, 2.0), (11, 1.0)]),
        );
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &sparse,
                alpha: 0.15,
            },
            QuerySpec::Personalized {
                preference: &dense,
                alpha: 0.3,
            },
            QuerySpec::Katz {
                alpha_fraction: 0.85,
                beta: 1.0,
                tol: 1e-11,
            },
        ])
        .unwrap();
        let nq = batch.len();
        let mut retired = 0;
        let t = TemporalCsr::from_events(n, &events);
        let index = WindowIndex::build(&t, &ranges);
        let total = index.live_runs().nbr.len();
        for (windows, copies) in [
            ((0..8).collect::<Vec<_>>(), false),
            ((0..7).collect(), false),
            (vec![6, 4, 2, 0], true),
            (vec![5], true),
        ] {
            let what = format!("windows={windows:?}");
            let views: Vec<_> = windows.iter().map(|&j| index.view(j)).collect();
            let own: Vec<_> = windows.iter().map(|&j| ranges[j]).collect();
            let inits = vec![QueryInit::Fresh; windows.len() * nq];
            let mut plain = QueryWorkspace::default();
            let expect =
                pagerank_query_batch(&t, &t, &own, &batch, &inits, &cfg(), None, &mut plain)
                    .unwrap();
            let mut ixd = QueryWorkspace::default();
            let got = pagerank_query_batch_indexed(
                &t,
                &t,
                &views,
                &batch,
                &inits,
                &cfg(),
                None,
                &mut ixd,
                BatchObs::off(),
            )
            .unwrap();
            assert_eq!(got, expect, "{what}");
            retired += got.lanes_retired;
            assert_eq!(bits(&ixd.base.x), bits(&plain.base.x), "{what}: ranks");
            let empty = total - plain.base.run_nbr.len();
            assert_eq!(
                empty * EMPTY_RUN_SHARE >= total,
                copies,
                "{what}: {empty} of {total}"
            );
            if copies {
                assert_eq!(ixd.base.run_row, plain.base.run_row, "{what}");
                assert_eq!(ixd.base.run_nbr, plain.base.run_nbr, "{what}");
            } else {
                assert!(
                    ixd.base.run_nbr.is_empty(),
                    "{what}: walks the index in place"
                );
                assert_eq!(ixd.base.run_mask.len(), total, "{what}");
            }
        }
        assert!(retired > 0, "compaction must fire somewhere");
        // Views must come from one index over the batch's vertices.
        let (a, b) = (
            WindowIndex::build(&t, &ranges),
            WindowIndex::build(&t, &ranges),
        );
        let small = TemporalCsr::from_events(5, &[Event::new(0, 1, 3)]);
        let other = WindowIndex::build(&small, &ranges);
        let inits = vec![QueryInit::Fresh; 2 * nq];
        for views in [[a.view(0), b.view(1)], [other.view(0), other.view(1)]] {
            let err = pagerank_query_batch_indexed(
                &t,
                &t,
                &views,
                &batch,
                &inits,
                &cfg(),
                None,
                &mut QueryWorkspace::default(),
                BatchObs::off(),
            );
            assert_eq!(err.unwrap_err(), KernelError::ForeignIndexViews);
        }
    }

    #[test]
    fn scheduler_and_simd_policies_agree_with_sequential() {
        use crate::simd::SimdPolicy;
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = vec![TimeRange::new(0, 150), TimeRange::new(60, 240)];
        let pref = seed_pref(25, &[(2, 1.0), (9, 3.0)]);
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.15,
            },
            QuerySpec::Katz {
                alpha_fraction: 0.7,
                beta: 1.0,
                tol: 1e-12,
            },
        ])
        .unwrap();
        let inits = vec![QueryInit::Fresh; 4];
        let mut seq = QueryWorkspace::default();
        pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), None, &mut seq).unwrap();
        for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
            let c = PrConfig { simd, ..cfg() };
            let mut w = QueryWorkspace::default();
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &c, None, &mut w).unwrap();
            assert_eq!(bits(&seq.base.x), bits(&w.base.x), "{simd:?}");
        }
        let s = Scheduler::new(Partitioner::Simple, 4);
        let mut par = QueryWorkspace::default();
        pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), Some(&s), &mut par).unwrap();
        for k in 0..4 {
            let a = lane_of(&seq, k, 4);
            let b = lane_of(&par, k, 4);
            for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!((x - y).abs() <= 1e-12, "lane {k} vertex {v}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn compaction_is_bit_identical_and_counts_retirees() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        // Many staggered windows × 2 queries: short lanes retire early.
        let ranges: Vec<TimeRange> = (0..8).map(|k| TimeRange::new(0, 30 + k * 25)).collect();
        let pref = seed_pref(25, &[(5, 1.0)]);
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.15,
            },
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.45,
            },
        ])
        .unwrap();
        let inits = vec![QueryInit::Fresh; 16];
        let on = cfg();
        let off = PrConfig {
            compaction: false,
            ..cfg()
        };
        let mut won = QueryWorkspace::default();
        let son =
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &on, None, &mut won).unwrap();
        let mut woff = QueryWorkspace::default();
        let soff =
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &off, None, &mut woff).unwrap();
        assert_eq!(son.stats, soff.stats);
        assert_eq!(bits(&won.base.x), bits(&woff.base.x));
        assert!(
            son.lanes_retired > 0,
            "staggered windows must retire some queries early"
        );
        assert_eq!(soff.lanes_retired, 0);
    }

    #[test]
    fn empty_batch_and_empty_windows_rejected() {
        assert_eq!(
            QueryBatch::new(vec![]).unwrap_err(),
            KernelError::EmptyBatch
        );
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)]);
        let pref = [1.0, 0.0];
        let batch = QueryBatch::new(vec![QuerySpec::Personalized {
            preference: &pref,
            alpha: 0.15,
        }])
        .unwrap();
        let mut qws = QueryWorkspace::default();
        let err =
            pagerank_query_batch(&t, &t, &[], &batch, &[], &cfg(), None, &mut qws).unwrap_err();
        assert_eq!(err, KernelError::EmptyBatch);
    }

    #[test]
    fn invalid_query_parameters_rejected() {
        let p = [1.0, 0.0];
        let bad_alpha = QueryBatch::new(vec![QuerySpec::Personalized {
            preference: &p,
            alpha: 1.5,
        }]);
        assert!(matches!(
            bad_alpha,
            Err(KernelError::BadQuery { index: 0, .. })
        ));
        let bad_af = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &p,
                alpha: 0.15,
            },
            QuerySpec::Katz {
                alpha_fraction: 1.0,
                beta: 1.0,
                tol: 1e-9,
            },
        ]);
        assert!(matches!(
            bad_af,
            Err(KernelError::BadQuery { index: 1, .. })
        ));
        // Only the kernel call sees the weights: a negative, NaN or
        // infinite one is a bad query, not a length error or a numeric
        // fault after a wasted restart.
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)]);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let weights = [1.0, bad];
            let batch = QueryBatch::new(vec![
                QuerySpec::Personalized {
                    preference: &p,
                    alpha: 0.15,
                },
                QuerySpec::Personalized {
                    preference: &weights,
                    alpha: 0.15,
                },
            ])
            .unwrap();
            let err = pagerank_query_batch(
                &t,
                &t,
                &[TimeRange::new(0, 1)],
                &batch,
                &[QueryInit::Fresh; 2],
                &cfg(),
                None,
                &mut QueryWorkspace::default(),
            )
            .unwrap_err();
            assert!(
                matches!(err, KernelError::BadQuery { index: 1, .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn too_many_window_query_lanes_rejected() {
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)]);
        let pref = [1.0, 0.0];
        let specs: Vec<QuerySpec<'_>> = (0..13)
            .map(|_| QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.15,
            })
            .collect();
        let batch = QueryBatch::new(specs).unwrap();
        let ranges = vec![TimeRange::new(0, 1); 5]; // 5 × 13 = 65 lanes
        let inits = vec![QueryInit::Fresh; 65];
        let mut qws = QueryWorkspace::default();
        let err = pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), None, &mut qws)
            .unwrap_err();
        assert_eq!(err, KernelError::BadLaneCount { got: 65 });
    }

    #[test]
    fn warm_init_reaches_same_fixed_point() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let r0 = TimeRange::new(0, 150);
        let r1 = TimeRange::new(60, 240);
        let pref = seed_pref(25, &[(3, 1.0)]);
        let batch = QueryBatch::new(vec![QuerySpec::Personalized {
            preference: &pref,
            alpha: 0.15,
        }])
        .unwrap();
        // Fresh pass over r0 to get a carry vector.
        let mut qws = QueryWorkspace::default();
        pagerank_query_batch(
            &t,
            &t,
            &[r0],
            &batch,
            &[QueryInit::Fresh],
            &cfg(),
            None,
            &mut qws,
        )
        .unwrap();
        let carry = lane_of(&qws, 0, 1);
        // Warm vs fresh on r1: same fixed point within tolerance.
        let mut warm = QueryWorkspace::default();
        let sw = pagerank_query_batch(
            &t,
            &t,
            &[r1],
            &batch,
            &[QueryInit::Warm(&carry)],
            &cfg(),
            None,
            &mut warm,
        )
        .unwrap();
        let mut fresh = QueryWorkspace::default();
        let sf = pagerank_query_batch(
            &t,
            &t,
            &[r1],
            &batch,
            &[QueryInit::Fresh],
            &cfg(),
            None,
            &mut fresh,
        )
        .unwrap();
        assert!(sw.stats[0].converged && sf.stats[0].converged);
        for (v, (a, b)) in lane_of(&warm, 0, 1)
            .iter()
            .zip(lane_of(&fresh, 0, 1).iter())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn duplicate_queries_produce_identical_columns() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = vec![TimeRange::new(0, 200)];
        let pref = seed_pref(25, &[(4, 1.0), (17, 0.5)]);
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.2,
            },
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.2,
            },
        ])
        .unwrap();
        let inits = vec![QueryInit::Fresh; 2];
        let mut qws = QueryWorkspace::default();
        let out =
            pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg(), None, &mut qws).unwrap();
        assert_eq!(bits(&lane_of(&qws, 0, 2)), bits(&lane_of(&qws, 1, 2)));
        assert_eq!(out.stats[0], out.stats[1]);
    }

    #[test]
    fn a_reused_workspace_gives_every_batch_the_bits_of_a_fresh_one() {
        // Setup clears only the rows the previous batch wrote, so a batch
        // on a used workspace must see what a fresh one holds: every cell
        // of the result, zeros off the lanes' active sets included, across
        // vertex counts, strides, compaction, Katz lanes (unit weights
        // only on their own vertices) and a batch that failed after a
        // compaction left the rank matrix at a narrower stride.
        use crate::pagerank::{GuardConfig, NumericPolicy};
        use crate::spmm::pagerank_batch;
        use crate::{FaultKind, Init};
        let events = sample_events();
        let small: Vec<Event> = events
            .iter()
            .copied()
            .filter(|e| e.u < 12 && e.v < 12)
            .collect();
        let (t25, t12) = (
            TemporalCsr::from_events(25, &events),
            TemporalCsr::from_events(12, &small),
        );
        let spans = |s: &[(i64, i64)]| s.iter().map(|&(a, b)| TimeRange::new(a, b)).collect();
        let four: Vec<TimeRange> = spans(&[(0, 60), (40, 160), (150, 230), (200, 360)]);
        let pref = seed_pref(25, &[(5, 1.0), (12, 2.0), (20, 1.0)]);
        let ppr_katz = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.15,
            },
            QuerySpec::Katz {
                alpha_fraction: 0.6,
                beta: 1.5,
                tol: 1e-10,
            },
        ])
        .unwrap();
        let katz = QueryBatch::new(vec![QuerySpec::Katz {
            alpha_fraction: 0.85,
            beta: 1.0,
            tol: 1e-11,
        }])
        .unwrap();
        let c = PrConfig {
            compaction: true,
            ..cfg()
        };
        let query = |ws: &mut QueryWorkspace, ranges: &[TimeRange], batch: &QueryBatch<'_>| {
            let inits = vec![QueryInit::Fresh; ranges.len() * batch.len()];
            let out = pagerank_query_batch(&t25, &t25, ranges, batch, &inits, &c, None, ws);
            (out.unwrap().stats, bits(&ws.base.x))
        };
        let window = |ws: &mut SpmmWorkspace, t: &TemporalCsr, ranges: &[TimeRange], c| {
            let inits = vec![Init::Uniform; ranges.len()];
            pagerank_batch(t, t, ranges, &inits, c, None, ws).map(|s| (s, bits(&ws.x)))
        };
        let fresh_query =
            |ranges: &[TimeRange], batch| query(&mut QueryWorkspace::default(), ranges, batch);
        let fresh_window =
            |t, ranges: &[TimeRange]| window(&mut SpmmWorkspace::default(), t, ranges, &c);

        // On this part the long windows converge in one round and the
        // short ones take a hundred and more: half the lanes retire after
        // the first round and compaction halves the stride, so a NaN put
        // into lane 0 in round 3 fails the batch at the narrower stride.
        let eight: Vec<TimeRange> = spans(&[
            (0, 30),
            (0, 360),
            (0, 100),
            (0, 200),
            (100, 300),
            (40, 90),
            (200, 260),
            (300, 360),
        ]);
        let clean = fresh_window(&t25, &eight).unwrap();
        let its: Vec<usize> = clean.0.iter().map(|s| s.iterations).collect();
        assert!(its[1..5].iter().all(|&i| i == 1) && its[0] > 3, "{its:?}");
        let failing = PrConfig {
            fault: Some(FaultKind::InjectNan { at_iter: 3 }),
            guard: GuardConfig {
                policy: NumericPolicy::Fail,
                ..c.guard
            },
            ..c
        };

        let mut ws = QueryWorkspace::default();
        let two = &four[1..3];
        assert_eq!(
            query(&mut ws, &four, &ppr_katz),
            fresh_query(&four, &ppr_katz)
        );
        let got = window(&mut ws.base, &t12, two, &c).unwrap();
        assert_eq!(got, fresh_window(&t12, two).unwrap());
        assert_eq!(query(&mut ws, two, &katz), fresh_query(two, &katz));
        assert!(window(&mut ws.base, &t25, &eight, &failing).is_err());
        assert_eq!(
            query(&mut ws, &four, &ppr_katz),
            fresh_query(&four, &ppr_katz)
        );
        assert_eq!(window(&mut ws.base, &t25, &eight, &c).unwrap(), clean);
    }

    #[test]
    fn a_reused_workspace_matches_fresh_across_compacting_query_batches() {
        // The batch-query shape: four seeds × four alphas on each of a
        // part's windows, two windows a batch, one workspace for the
        // whole walk. The fast alphas converge first, so every batch
        // compacts, and its first compaction repacks into the narrow
        // matrix the previous batch left in the workspace, uncleared, at
        // another length when a batch on a smaller part comes between.
        let events = sample_events();
        let small: Vec<Event> = events
            .iter()
            .copied()
            .filter(|e| e.u < 14 && e.v < 14)
            .collect();
        let (t25, t14) = (
            TemporalCsr::from_events(25, &events),
            TemporalCsr::from_events(14, &small),
        );
        let prefs: Vec<Vec<f64>> = [3, 7, 11, 12]
            .iter()
            .map(|&v| seed_pref(25, &[(v, 1.0), ((v + 5) % 14, 0.5)]))
            .collect();
        let queries = |n: usize| {
            let specs = prefs
                .iter()
                .flat_map(|p| {
                    [0.1, 0.15, 0.3, 0.5].map(|alpha| QuerySpec::Personalized {
                        preference: &p[..n],
                        alpha,
                    })
                })
                .collect();
            QueryBatch::new(specs).unwrap()
        };
        let (q25, q14) = (queries(25), queries(14));
        let c = PrConfig {
            compaction: true,
            ..cfg()
        };
        let run =
            |ws: &mut QueryWorkspace, t: &TemporalCsr, q: &QueryBatch<'_>, ranges: &[TimeRange]| {
                let inits = vec![QueryInit::Fresh; 2 * q.len()];
                let out = pagerank_query_batch(t, t, ranges, q, &inits, &c, None, ws).unwrap();
                (out, bits(&ws.base.x))
            };
        let mut ws = QueryWorkspace::default();
        let mut compacted = 0;
        for lo in (0..300).step_by(60) {
            let ranges = [
                TimeRange::new(lo, lo + 90),
                TimeRange::new(lo + 30, lo + 120),
            ];
            let (t, q) = if lo == 120 {
                (&t14, &q14)
            } else {
                (&t25, &q25)
            };
            let got = run(&mut ws, t, q, &ranges);
            let fresh = run(&mut QueryWorkspace::default(), t, q, &ranges);
            assert_eq!(got, fresh, "batch at {lo}");
            compacted += usize::from(got.0.lanes_retired > 0);
        }
        assert!(compacted >= 4, "only {compacted} batches compacted");
    }

    /// Seeds as `R` does, then poisons every cell of the lane *off* its
    /// active vertices with a NaN: a round that read or wrote one would
    /// show in the ranks or lose the poison.
    struct Poisoned<R>(R);

    impl<R: LaneRule> LaneRule for Poisoned<R> {
        fn seed(
            &self,
            k: usize,
            vl: usize,
            verts: &[VertexId],
            n: usize,
            x: &mut [f64],
        ) -> Result<(), KernelError> {
            self.0.seed(k, vl, verts, n, x)?;
            for v in (0..n).filter(|&v| !verts.contains(&(v as VertexId))) {
                x[v * vl + k] = f64::NAN;
            }
            Ok(())
        }
        fn restart(&self, k: usize, vl: usize, verts: &[VertexId], x: &mut [f64]) {
            self.0.restart(k, vl, verts, x);
        }
        fn coefficient(&self, k: usize, n_act: usize) -> f64 {
            self.0.coefficient(k, n_act)
        }
        fn affine(&self) -> Affine<'_> {
            self.0.affine()
        }
        fn tolerance(&self, k: usize) -> f64 {
            self.0.tolerance(k)
        }
        fn guard_mass(&self, k: usize, mass: f64) -> f64 {
            self.0.guard_mass(k, mass)
        }
        fn compact(&mut self, keep: &[usize], vl: usize, rows: &[u32]) {
            self.0.compact(keep, vl, rows);
        }
    }

    #[test]
    fn rounds_never_touch_inactive_or_converged_cells() {
        // What the cell-sparse finalize rests on, for the affine rule and
        // both of its norms: a round neither reads nor writes a lane a row
        // is not active in, and a lane that has converged holds its value
        // while its siblings run on. Four staggered windows × (personalized,
        // Katz) = 8 lanes, so compaction fires when it is on. Every row a
        // round visits here is active in each window: its only idle cells
        // are converged lanes.
        assert_eq!(
            rounds_touch_only_live_cells([(0, 60), (40, 160), (150, 230), (200, 360)]),
            0
        );
    }

    #[test]
    fn rounds_never_write_a_live_lane_a_visited_row_is_inactive_in() {
        // The sibling batch mixes short windows with one that spans the
        // log, so the first round visits rows that are inactive in lanes
        // still live: a scatter that wrote such a row's whole stride back
        // would overwrite their poison.
        assert!(rounds_touch_only_live_cells([(0, 30), (0, 360), (100, 130), (300, 330)]) > 0);
    }

    /// Runs [`Poisoned`] lanes of four windows × (personalized, Katz) over
    /// the sample part and checks every cell against a plain batch. Returns
    /// how many (row, window) pairs join a row the first round visits to a
    /// non-empty window the row is inactive in: idle cells of live lanes.
    fn rounds_touch_only_live_cells(spans: [(i64, i64); 4]) -> usize {
        let events = sample_events();
        let n = 25;
        let t = TemporalCsr::from_events(n, &events);
        let ranges: Vec<TimeRange> = spans.map(|(a, b)| TimeRange::new(a, b)).to_vec();
        let pref = seed_pref(n, &[(5, 1.0), (12, 2.0), (20, 1.0)]);
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized {
                preference: &pref,
                alpha: 0.15,
            },
            QuerySpec::Katz {
                alpha_fraction: 0.6,
                beta: 1.5,
                tol: 1e-10,
            },
        ])
        .unwrap();
        let vl = 8;
        let inits = vec![QueryInit::Fresh; vl];
        for compaction in [false, true] {
            let c = PrConfig {
                compaction,
                ..cfg()
            };
            let mut plain = QueryWorkspace::default();
            let out = pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &c, None, &mut plain)
                .unwrap();
            assert!(out.stats.iter().all(|s| s.converged));
            assert_eq!(out.lanes_retired > 0, compaction);

            let mut ws = QueryWorkspace::default();
            let QueryWorkspace { base, tele } = &mut ws;
            let index = WindowIndex::build(&t, &ranges);
            let views: Vec<_> = (0..4).map(|j| index.view(j)).collect();
            let (rule, runs) =
                query_lanes(&views, n, true, &batch, &inits, &c, base, tele).unwrap();
            let verts: Vec<&[VertexId]> = (0..vl).map(|k| views[k / 2].vertices).collect();
            let mut rule = Poisoned(rule);
            let stats = batch_iterate(
                &verts,
                runs,
                &mut rule,
                &c,
                None,
                base,
                BatchObs::off(),
                None,
            )
            .unwrap();
            assert_eq!(stats, out.stats, "compaction={compaction}");
            let mut inactive = 0;
            for v in 0..n {
                for (k, lane) in verts.iter().enumerate() {
                    let got = ws.base.x[v * vl + k];
                    if lane.contains(&(v as VertexId)) {
                        assert_eq!(got.to_bits(), plain.base.x[v * vl + k].to_bits());
                    } else {
                        assert!(got.is_nan(), "cell ({v}, {k}) was written: {got}");
                        inactive += 1;
                    }
                }
            }
            assert!(inactive > 0, "some row must be inactive in some lane");

            let last = out.stats.iter().map(|s| s.iterations).max().unwrap();
            let mut early = 0;
            for (k, s) in out.stats.iter().enumerate() {
                if s.iterations == last {
                    continue;
                }
                // Stop the whole batch at the round lane k converged in.
                let stop = PrConfig {
                    max_iters: s.iterations,
                    ..c
                };
                let mut w = QueryWorkspace::default();
                pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &stop, None, &mut w).unwrap();
                assert_eq!(
                    bits(&lane_of(&w, k, vl)),
                    bits(&lane_of(&plain, k, vl)),
                    "lane {k} moved after it converged (compaction={compaction})"
                );
                early += 1;
            }
            assert!(early >= 2, "lanes must converge at different rounds");
        }
        let index = WindowIndex::build(&t, &ranges);
        let verts: Vec<&[VertexId]> = (0..4).map(|j| index.view(j).vertices).collect();
        let idle = |v: VertexId| {
            verts
                .iter()
                .filter(move |l| !l.is_empty() && !l.contains(&v))
        };
        let visited = (0..n as VertexId).filter(|v| verts.iter().any(|l| l.contains(v)));
        visited.map(|v| idle(v).count()).sum()
    }
}
