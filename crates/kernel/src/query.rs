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
//! - **Personalized PageRank** (`factor = alpha + damp·dangling`,
//!   `scale = damp = 1 − alpha`, `tele` = the normalized preference):
//!   exactly the single-query update of
//!   [`crate::pagerank_window_personalized`].
//! - **Katz centrality** (`factor = 1`, `scale = alpha`, `tele[v] = beta`
//!   on active vertices, unit edge weights): exactly the Jacobi update
//!   `x = beta + alpha·Aᵀx` of `tempopr-analytics`, generalized to any
//!   `beta` (at `beta = 1` it reproduces the classic form bit-for-bit,
//!   since `1.0 · tele` is exact).
//!
//! `factor`/`scale`/`tele` are per lane, so a multi-alpha grid broadcasts
//! straight into the SIMD dense-accumulate path ([`SimdDispatch::affine`])
//! without any cross-lane leakage — every lane's arithmetic is the exact
//! scalar sequence of its single-query kernel, which is what the
//! differential suites (`tests/prop_query_batch.rs`,
//! `tests/query_batch_edge_cases.rs`) pin down bit-for-bit.
//!
//! Queries converge independently; converged-lane **compaction** retires
//! finished queries early (parking their columns, repacking teleport and
//! per-lane parameters alongside the rank matrix), so a grid whose easy
//! points finish in 10 iterations stops paying for them while the hard
//! points run on.

use crate::error::{FaultKind, KernelError};
use crate::observe::BatchObs;
use crate::pagerank::{guard_check, GuardAction, PrConfig, PrHealth, PrStats};
use crate::scheduler::{Balance, Scheduler};
use crate::simd::SimdDispatch;
use crate::spmm::{build_run_masks, compress_bits, lane_mask_all, SpmmWorkspace, MAX_LANES};
use tempopr_graph::{TemporalCsr, TimeRange, VertexId};

/// One query to evaluate on every window of the batch.
#[derive(Debug, Clone, Copy)]
pub enum QuerySpec<'a> {
    /// Personalized PageRank: teleport to `preference` (non-negative, any
    /// scale, length = vertex count) with damping `1 − alpha`.
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
/// [`crate::pagerank::pagerank_window`] (same reference for symmetric
/// builds). Results are interleaved in `ws.base.x`
/// ([`QueryWorkspace::copy_lane_into`]). `cfg.tol` governs personalized
/// lanes; Katz lanes use their own [`QuerySpec::Katz::tol`].
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
    pagerank_query_batch_obs(
        pull,
        push,
        ranges,
        batch,
        inits,
        cfg,
        sched,
        ws,
        BatchObs::off(),
    )
}

/// [`pagerank_query_batch`] with an observation carrier (see
/// [`crate::observe`]). Observation is read-only; ranks are bit-identical
/// with any sink attached.
#[allow(clippy::too_many_arguments)]
pub fn pagerank_query_batch_obs(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    ranges: &[TimeRange],
    batch: &QueryBatch<'_>,
    inits: &[QueryInit<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut QueryWorkspace,
    obs: BatchObs<'_>,
) -> Result<QueryBatchOutcome, KernelError> {
    let nq = batch.len();
    let nw = ranges.len();
    if nw == 0 {
        return Err(KernelError::EmptyBatch);
    }
    let vl = nw * nq;
    if vl > MAX_LANES {
        return Err(KernelError::BadLaneCount { got: vl });
    }
    if inits.len() != vl {
        return Err(KernelError::LaneMismatch {
            lanes: vl,
            args: inits.len(),
        });
    }
    let n = pull.num_vertices();
    if push.num_vertices() != n {
        return Err(KernelError::MismatchedUniverses {
            pull: n,
            push: push.num_vertices(),
        });
    }
    for (q, spec) in batch.queries().iter().enumerate() {
        spec.validate(q)?;
        if let QuerySpec::Personalized { preference, .. } = spec {
            if preference.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "preference",
                    expected: n,
                    got: preference.len(),
                });
            }
            if !preference.iter().all(|&p| p >= 0.0) {
                return Err(KernelError::BadVectorLength {
                    what: "preference (negative weight)",
                    expected: n,
                    got: preference.len(),
                });
            }
        }
    }
    let directed = !std::ptr::eq(pull, push);
    let has_katz = batch.queries().iter().any(|q| q.is_katz());

    // --- Per-batch precompute: masks, degrees, per-lane parameters -------
    let t_setup = obs.now();
    // Lane k = w·nq + q shares window w's range across all nq queries, so
    // run masks repeat their bit pattern per window — which is exactly what
    // makes full-mask (dense SIMD) runs *more* common than in the
    // window-only batch.
    let lane_ranges: Vec<TimeRange> = (0..vl).map(|k| ranges[k / nq]).collect();
    build_run_masks(pull, &lane_ranges, 0..n, &mut ws.base);
    let base = &mut ws.base;
    base.inv_deg.clear();
    base.inv_deg.resize(n * vl, 0.0);
    base.active_mask.clear();
    base.active_mask.resize(n, 0);
    base.dangling_mask.clear();
    base.dangling_mask.resize(n, 0);
    let mut out_deg = vec![0u32; vl]; // per-vertex scratch
    let mut pull_deg = vec![0u32; vl]; // per-vertex scratch (Katz degree)
    let mut max_pull_deg = vec![0u32; vl];
    for v in 0..n {
        out_deg.iter_mut().for_each(|d| *d = 0);
        let mut in_mask = 0u64;
        if directed {
            for run in push.runs(v as VertexId) {
                for (k, r) in lane_ranges.iter().enumerate() {
                    if run.active_in(*r) {
                        out_deg[k] += 1;
                    }
                }
            }
            for i in base.run_row[v]..base.run_row[v + 1] {
                in_mask |= base.run_mask[i];
            }
        } else {
            for i in base.run_row[v]..base.run_row[v + 1] {
                let m = base.run_mask[i];
                in_mask |= m;
                let mut mm = m;
                while mm != 0 {
                    let k = mm.trailing_zeros() as usize;
                    out_deg[k] += 1;
                    mm &= mm - 1;
                }
            }
        }
        if has_katz {
            // Katz attenuation needs each lane's max active degree over the
            // pull structure (for symmetric builds this is the active
            // degree the analytics kernel uses).
            pull_deg.iter_mut().for_each(|d| *d = 0);
            for i in base.run_row[v]..base.run_row[v + 1] {
                let mut mm = base.run_mask[i];
                while mm != 0 {
                    let k = mm.trailing_zeros() as usize;
                    pull_deg[k] += 1;
                    mm &= mm - 1;
                }
            }
            for (k, &d) in pull_deg.iter().enumerate() {
                max_pull_deg[k] = max_pull_deg[k].max(d);
            }
        }
        let mut active = in_mask;
        let mut dangling = 0u64;
        for (k, &d) in out_deg.iter().enumerate() {
            if d > 0 {
                active |= 1 << k;
                base.inv_deg[v * vl + k] = 1.0 / d as f64;
            } else if active & (1 << k) != 0 {
                dangling |= 1 << k;
            }
        }
        base.active_mask[v] = active;
        base.dangling_mask[v] = dangling;
    }

    base.active_list.clear();
    let mut n_act = vec![0usize; vl];
    for v in 0..n {
        let mut m = base.active_mask[v];
        if m != 0 {
            base.active_list.push(v as u32);
        }
        while m != 0 {
            n_act[m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }

    // Per-lane parameters: `scale` (damp for PPR, attenuation for Katz),
    // `alpha`, per-lane tolerance, the Katz lane set, and the teleport /
    // baseline matrix. Katz lanes also flatten their edge weights to 1.
    let mut p_alpha = vec![0.0f64; vl];
    let mut p_scale = vec![0.0f64; vl];
    let mut p_tol = vec![cfg.tol; vl];
    let mut katz_mask = 0u64;
    let mut katz_alpha = vec![0.0f64; vl];
    let mut uniform_fallback = vec![false; vl];
    ws.tele.clear();
    ws.tele.resize(n * vl, 0.0);
    for k in 0..vl {
        let q = k % nq;
        let bit = 1u64 << k;
        match batch.queries()[q] {
            QuerySpec::Personalized { preference, alpha } => {
                p_alpha[k] = alpha;
                p_scale[k] = 1.0 - alpha;
                if n_act[k] == 0 {
                    continue;
                }
                // Same rule (and the same ascending summation order, so the
                // same floating-point mass) as the single-query kernel.
                let mut mass = 0.0f64;
                for &v in &base.active_list {
                    if base.active_mask[v as usize] & bit != 0 {
                        mass += preference[v as usize];
                    }
                }
                if mass > 0.0 {
                    for &v in &base.active_list {
                        let v = v as usize;
                        if base.active_mask[v] & bit != 0 {
                            ws.tele[v * vl + k] = preference[v] / mass;
                        }
                    }
                } else {
                    uniform_fallback[k] = true;
                    let u = 1.0 / n_act[k] as f64;
                    for &v in &base.active_list {
                        let v = v as usize;
                        if base.active_mask[v] & bit != 0 {
                            ws.tele[v * vl + k] = u;
                        }
                    }
                }
            }
            QuerySpec::Katz {
                alpha_fraction,
                beta,
                tol,
            } => {
                katz_mask |= bit;
                p_tol[k] = tol;
                if n_act[k] > 0 {
                    let a = alpha_fraction / (max_pull_deg[k] + 1) as f64;
                    katz_alpha[k] = a;
                    p_scale[k] = a;
                    let u = beta;
                    for &v in &base.active_list {
                        let v = v as usize;
                        if base.active_mask[v] & bit != 0 {
                            ws.tele[v * vl + k] = u;
                        }
                    }
                }
                // Unit edge weights: the Katz sum is Σ x[u], not Σ x[u]/deg.
                // Inactive neighbors hold x = 0, so blanket 1s are safe.
                for v in 0..n {
                    base.inv_deg[v * vl + k] = 1.0;
                }
            }
        }
    }
    obs.setup(&n_act, t_setup);

    // --- Initialization ---------------------------------------------------
    base.x.clear();
    base.x.resize(n * vl, 0.0);
    base.y.clear();
    base.y.resize(n * vl, 0.0);
    for k in 0..vl {
        if n_act[k] == 0 {
            continue; // column stays zero and the lane starts converged
        }
        init_query_lane(inits[k], k, vl, n, katz_mask, &ws.tele, &mut base.x)?;
    }
    if let Some(FaultKind::CorruptReciprocal) = cfg.fault {
        if let Some(&v) = base
            .active_list
            .iter()
            .find(|&&v| base.inv_deg[v as usize * vl] > 0.0)
        {
            base.inv_deg[v as usize * vl] *= 1000.0;
        }
    }

    let dispatch = SimdDispatch::select(cfg.simd);
    let dense = dispatch.dense();
    obs.dispatch(dispatch.isa(), vl);

    // Edge-balanced chunk plan (as in the window batch: row counts are
    // lane-width independent, so one plan serves all iterations).
    let edge_chunks: Option<Vec<std::ops::Range<usize>>> = match sched {
        Some(s) if s.balance == Balance::Edge => {
            let mut prefix = Vec::with_capacity(base.active_list.len() + 1);
            let mut acc = 0usize;
            prefix.push(0);
            for &v in &base.active_list {
                let v = v as usize;
                acc += base.run_row[v + 1] - base.run_row[v] + 1;
                prefix.push(acc);
            }
            Some(s.chunks_weighted(&prefix))
        }
        _ => None,
    };
    let edges_per_round: u64 = base
        .active_list
        .iter()
        .map(|&v| (base.run_row[v as usize + 1] - base.run_row[v as usize]) as u64)
        .sum();

    // --- Batched power / Jacobi iteration ---------------------------------
    let has_dangling = base.dangling_mask.iter().any(|&m| m != 0);
    let mut stats: Vec<PrStats> = (0..vl)
        .map(|k| PrStats {
            iterations: 0,
            converged: n_act[k] == 0,
            active_vertices: n_act[k],
            health: PrHealth::default(),
        })
        .collect();

    // Compact lane state (see `spmm::batch_iterate`): `vl_c` is the
    // current effective width, `lane_map[j]` the original lane in compact
    // slot `j`; per-lane parameter arrays are repacked alongside the rank,
    // weight, and teleport matrices. Retired queries are parked at their
    // original positions (stride `vl`).
    let vl0 = vl;
    let mut vl_c = vl;
    let mut lane_map: Vec<usize> = (0..vl).collect();
    let mut alpha_c = p_alpha.clone();
    let mut scale_c = p_scale.clone();
    let mut tol_c = p_tol.clone();
    let mut katz_c = katz_mask;
    let mut parked: Vec<f64> = Vec::new();
    let mut lanes_retired = 0usize;

    let mut done: u64 = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.converged)
        .fold(0u64, |m, (k, _)| m | (1 << k));
    let mut all_done = lane_mask_all(vl_c);

    let mut iter = 0usize;
    while done != all_done && iter < cfg.max_iters {
        iter += 1;
        match cfg.fault {
            Some(FaultKind::InjectNan { at_iter }) if at_iter == iter => {
                if let Some(&v) = base.active_list.first() {
                    match lane_map.iter().position(|&orig| orig == 0) {
                        Some(j) => base.x[v as usize * vl_c + j] = f64::NAN,
                        None => parked[v as usize * vl0] = f64::NAN,
                    }
                }
            }
            Some(FaultKind::PanicInKernel) if iter == 1 => {
                // Intentional: models a latent kernel bug for the driver's
                // panic-isolation path.
                panic!("fault injection: panic inside query-batch kernel");
            }
            _ => {}
        }
        let t_round = obs.now();
        let live = !done & all_done;
        // Per-lane dangling mass (personalized lanes only — symmetric Katz
        // windows have no dangling active vertices, and Katz redistributes
        // nothing), then the per-iteration affine factor.
        let mut factor = [1.0f64; MAX_LANES];
        if has_dangling {
            let mut dang = [0.0f64; MAX_LANES];
            for &v in &base.active_list {
                let v = v as usize;
                let mut m = base.dangling_mask[v] & live & !katz_c;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    dang[k] += base.x[v * vl_c + k];
                    m &= m - 1;
                }
            }
            for k in 0..vl_c {
                if katz_c & (1 << k) == 0 {
                    factor[k] = alpha_c[k] + (1.0 - alpha_c[k]) * dang[k];
                }
            }
        } else {
            for k in 0..vl_c {
                if katz_c & (1 << k) == 0 {
                    factor[k] = alpha_c[k];
                }
            }
        }

        let n_active = base.active_list.len();
        let list = &base.active_list;
        let x = &base.x;
        let weights = &base.inv_deg;
        let tele = &ws.tele;
        let active_mask = &base.active_mask;
        let run_row = &base.run_row;
        let run_nbr = &base.run_nbr;
        let run_mask = &base.run_mask;
        let vlc = vl_c;
        let kz = katz_c;
        let scale_ref = &scale_c;
        let factor_ref = &factor;
        let compact = &mut base.y[..n_active * vlc];
        let body = |r0: usize, rows: &mut [f64]| -> ([f64; MAX_LANES], [f64; MAX_LANES]) {
            let mut diff = [0.0f64; MAX_LANES];
            let mut mass = [0.0f64; MAX_LANES];
            let nrows = rows.len() / vlc;
            let mut acc = [0.0f64; MAX_LANES];
            for r in 0..nrows {
                let v = list[r0 + r] as usize;
                let am = active_mask[v];
                let row = &mut rows[r * vlc..(r + 1) * vlc];
                acc[..vlc].iter_mut().for_each(|a| *a = 0.0);
                for i in run_row[v]..run_row[v + 1] {
                    let u = run_nbr[i] as usize;
                    let rm = run_mask[i];
                    if dense && rm & live == live {
                        dispatch.accumulate(
                            &mut acc[..vlc],
                            &x[u * vlc..(u + 1) * vlc],
                            &weights[u * vlc..(u + 1) * vlc],
                        );
                    } else {
                        let mut m = rm & live;
                        while m != 0 {
                            let k = m.trailing_zeros() as usize;
                            acc[k] += x[u * vlc + k] * weights[u * vlc + k];
                            m &= m - 1;
                        }
                    }
                }
                if dense && live == all_done && am & all_done == all_done {
                    // Every lane live and active: broadcast the whole
                    // per-lane (factor, scale) grid through the SIMD affine
                    // update. Identical rounding to the scalar branch below
                    // (two multiplies, one add — never fused).
                    dispatch.affine(
                        row,
                        &factor_ref[..vlc],
                        &tele[v * vlc..(v + 1) * vlc],
                        &scale_ref[..vlc],
                        &acc[..vlc],
                    );
                    for (k, y) in row.iter().enumerate() {
                        let d = (*y - x[v * vlc + k]).abs();
                        if kz & (1u64 << k) != 0 {
                            diff[k] = nan_max(diff[k], d);
                        } else {
                            diff[k] += d;
                            mass[k] += *y;
                        }
                    }
                } else {
                    for (k, y) in row.iter_mut().enumerate() {
                        let bit = 1u64 << k;
                        let val = if live & bit == 0 {
                            x[v * vlc + k] // converged lane: hold its value
                        } else if am & bit != 0 {
                            factor_ref[k] * tele[v * vlc + k] + scale_ref[k] * acc[k]
                        } else {
                            0.0
                        };
                        let d = (val - x[v * vlc + k]).abs();
                        if kz & bit != 0 {
                            diff[k] = nan_max(diff[k], d);
                        } else {
                            diff[k] += d;
                            mass[k] += val;
                        }
                        *y = val;
                    }
                }
            }
            (diff, mass)
        };
        let reduce = |mut a: ([f64; MAX_LANES], [f64; MAX_LANES]),
                      b: ([f64; MAX_LANES], [f64; MAX_LANES])| {
            for k in 0..MAX_LANES {
                if k < vlc && kz & (1u64 << k) != 0 {
                    a.0[k] = nan_max(a.0[k], b.0[k]);
                } else {
                    a.0[k] += b.0[k];
                }
                a.1[k] += b.1[k];
            }
            a
        };
        let (diff, mass) = match (sched, &edge_chunks) {
            (Some(s), Some(chunks)) => s.map_reduce_rows_chunked_mut(
                compact,
                vlc,
                chunks,
                ([0.0; MAX_LANES], [0.0; MAX_LANES]),
                body,
                reduce,
            ),
            (Some(s), None) => s.map_reduce_rows_mut(
                compact,
                vlc,
                ([0.0; MAX_LANES], [0.0; MAX_LANES]),
                body,
                reduce,
            ),
            (None, _) => body(0, compact),
        };
        let t_mid = obs.now();
        for (r, &v) in base.active_list.iter().enumerate() {
            let v = v as usize;
            base.x[v * vl_c..(v + 1) * vl_c].copy_from_slice(&base.y[r * vl_c..(r + 1) * vl_c]);
        }
        // Per-lane health check and recovery. Katz lanes have no conserved
        // mass, so they are guarded for finiteness only (mass pinned to 1).
        let mut faulted = 0u64;
        if cfg.guard.enabled {
            let mut m = live;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                let lane = lane_map[k];
                let g_mass = if katz_c & (1 << k) != 0 { 1.0 } else { mass[k] };
                match guard_check(diff[k], g_mass, lane, iter, cfg, &mut stats[lane].health)? {
                    GuardAction::Proceed => {}
                    GuardAction::Renormalize { scale } => {
                        for &v in &base.active_list {
                            base.x[v as usize * vl_c + k] *= scale;
                        }
                        faulted |= 1 << k;
                        obs.lane_guard(lane, iter, false);
                    }
                    GuardAction::Restart => {
                        // Restart from the lane's canonical start (exactly
                        // what the single-query kernels do).
                        init_query_lane(
                            QueryInit::Fresh,
                            k,
                            vl_c,
                            n,
                            katz_c,
                            &ws.tele,
                            &mut base.x,
                        )?;
                        faulted |= 1 << k;
                        obs.lane_guard(lane, iter, true);
                    }
                }
            }
        }
        let force = cfg.fault == Some(FaultKind::ForceNonConvergence);
        for k in 0..vl_c {
            if done & (1 << k) != 0 {
                continue;
            }
            let lane = lane_map[k];
            stats[lane].iterations = iter;
            if faulted & (1 << k) != 0 {
                continue;
            }
            if diff[k] < tol_c[k] && !force {
                stats[lane].converged = true;
                done |= 1 << k;
            }
        }
        if obs.is_on() {
            let mut m = live;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                obs.lane_iteration(lane_map[k], iter, diff[k], mass[k]);
            }
            obs.round(
                iter,
                live.count_ones(),
                vl0,
                edges_per_round,
                t_round,
                t_mid,
            );
        }

        // Converged-query compaction: identical trigger to the window
        // batch, but the repack also carries the teleport matrix and the
        // per-lane (alpha, scale, tol, katz) parameters so retired queries
        // take their whole state with them.
        let lc = (!done & all_done).count_ones() as usize;
        if cfg.compaction && lc > 0 && vl_c >= 8 && lc <= vl_c / 2 {
            let keep: Vec<usize> = (0..vl_c).filter(|j| done & (1u64 << j) == 0).collect();
            let vl_new = keep.len();
            lanes_retired += vl_c - vl_new;
            if parked.is_empty() {
                parked.resize(n * vl0, 0.0);
            }
            let mut tmp = [0.0f64; MAX_LANES];
            for v in 0..n {
                tmp[..vl_c].copy_from_slice(&base.x[v * vl_c..(v + 1) * vl_c]);
                let mut m = done;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    parked[v * vl0 + lane_map[j]] = tmp[j];
                    m &= m - 1;
                }
                for (jn, &j) in keep.iter().enumerate() {
                    base.x[v * vl_new + jn] = tmp[j];
                }
                tmp[..vl_c].copy_from_slice(&base.inv_deg[v * vl_c..(v + 1) * vl_c]);
                for (jn, &j) in keep.iter().enumerate() {
                    base.inv_deg[v * vl_new + jn] = tmp[j];
                }
                tmp[..vl_c].copy_from_slice(&ws.tele[v * vl_c..(v + 1) * vl_c]);
                for (jn, &j) in keep.iter().enumerate() {
                    ws.tele[v * vl_new + jn] = tmp[j];
                }
            }
            for m in base.active_mask.iter_mut() {
                *m = compress_bits(*m, &keep);
            }
            for m in base.dangling_mask.iter_mut() {
                *m = compress_bits(*m, &keep);
            }
            for m in base.run_mask.iter_mut() {
                *m = compress_bits(*m, &keep);
            }
            katz_c = compress_bits(katz_c, &keep);
            lane_map = keep.iter().map(|&j| lane_map[j]).collect();
            alpha_c = keep.iter().map(|&j| alpha_c[j]).collect();
            scale_c = keep.iter().map(|&j| scale_c[j]).collect();
            tol_c = keep.iter().map(|&j| tol_c[j]).collect();
            obs.compaction(vl_c, vl_new);
            vl_c = vl_new;
            done = 0;
            all_done = lane_mask_all(vl_c);
        }
    }
    // Merge the still-compact columns back over the parked ones.
    if vl_c != vl0 {
        for v in 0..n {
            for (j, &orig) in lane_map.iter().enumerate() {
                parked[v * vl0 + orig] = base.x[v * vl_c + j];
            }
        }
        std::mem::swap(&mut base.x, &mut parked);
    }
    let it_max = stats.iter().map(|s| s.iterations).max().unwrap_or(0) as u64;
    let iterations_saved: u64 = stats.iter().map(|s| it_max - s.iterations as u64).sum();
    Ok(QueryBatchOutcome {
        stats,
        uniform_fallback,
        katz_alpha,
        lanes_retired,
        iterations_saved,
    })
}

/// NaN-propagating max: the Katz L∞ reduction must not let `f64::max`
/// swallow a NaN iterate (the health guard detects non-finite lanes
/// through the diff).
#[inline]
fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if b > a {
        b
    } else {
        a
    }
}

/// Initializes compact lane `k` of the rank matrix from `inits` semantics
/// (see [`QueryInit`]). `tele` must already be in the same compact layout.
fn init_query_lane(
    init: QueryInit<'_>,
    k: usize,
    vl: usize,
    n: usize,
    katz_mask: u64,
    tele: &[f64],
    x: &mut [f64],
) -> Result<(), KernelError> {
    let is_katz = katz_mask & (1u64 << k) != 0;
    match init {
        QueryInit::Fresh => {
            for v in 0..n {
                x[v * vl + k] = tele[v * vl + k];
            }
        }
        QueryInit::Warm(prev) => {
            if prev.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "previous ranks",
                    expected: n,
                    got: prev.len(),
                });
            }
            if is_katz {
                // Scores are unnormalized; carry positive overlap, backfill
                // the baseline on newly-active vertices.
                for v in 0..n {
                    let t = tele[v * vl + k];
                    x[v * vl + k] = if t != 0.0 && prev[v] > 0.0 {
                        prev[v]
                    } else {
                        t
                    };
                }
            } else {
                // Renormalize the positive overlap with the lane's active
                // set into a distribution; no overlap → canonical start.
                let mut sum = 0.0f64;
                for v in 0..n {
                    if tele[v * vl + k] != 0.0 && prev[v] > 0.0 {
                        sum += prev[v];
                    }
                }
                if sum <= 0.0 {
                    return init_query_lane(QueryInit::Fresh, k, vl, n, katz_mask, tele, x);
                }
                for v in 0..n {
                    x[v * vl + k] = if tele[v * vl + k] != 0.0 && prev[v] > 0.0 {
                        prev[v] / sum
                    } else {
                        0.0
                    };
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{PrConfig, PrWorkspace};
    use crate::personalized::pagerank_window_personalized;
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

    /// Reference Katz (the analytics formulation, restated here because
    /// the kernel crate cannot depend on `tempopr-analytics`).
    fn ref_katz(t: &TemporalCsr, range: TimeRange, af: f64, beta: f64, tol: f64) -> Vec<f64> {
        let n = t.num_vertices();
        let mut deg = vec![0u32; n];
        t.active_degrees(range, &mut deg);
        let max_deg = deg.iter().copied().max().unwrap_or(0);
        let actives: Vec<usize> = (0..n).filter(|&v| deg[v] > 0).collect();
        let mut x = vec![0.0; n];
        if actives.is_empty() {
            return x;
        }
        let alpha = af / (max_deg + 1) as f64;
        for &v in &actives {
            x[v] = beta;
        }
        let mut y = vec![0.0; n];
        for _ in 0..500 {
            let mut diff = 0.0f64;
            for &v in &actives {
                let mut s = 0.0;
                for u in t.active_neighbors(v as VertexId, range) {
                    s += x[u as usize];
                }
                let val = beta + alpha * s;
                diff = diff.max((val - x[v]).abs());
                y[v] = val;
            }
            for &v in &actives {
                x[v] = y[v];
            }
            if diff < tol {
                break;
            }
        }
        x
    }

    #[test]
    fn ppr_lanes_bit_match_single_query_kernel() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events, true);
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
        let t = TemporalCsr::from_events(25, &events, true);
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
        let expect = ref_katz(&t, ranges[0], 0.85, 1.0, 1e-12);
        assert_eq!(
            bits(&lane_of(&qws, 0, 2)),
            bits(&expect),
            "katz lane must be bit-identical to the Jacobi reference"
        );
        assert!(out.katz_alpha[0] > 0.0);
        assert_eq!(out.katz_alpha[1], 0.0);
    }

    #[test]
    fn scheduler_and_simd_policies_agree_with_sequential() {
        use crate::simd::SimdPolicy;
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events, true);
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
        let t = TemporalCsr::from_events(25, &events, true);
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
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)], true);
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
    }

    #[test]
    fn too_many_window_query_lanes_rejected() {
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)], true);
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
        let t = TemporalCsr::from_events(25, &events, true);
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
        let t = TemporalCsr::from_events(25, &events, true);
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
}
