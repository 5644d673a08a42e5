//! SpMM-inspired batched PageRank (paper §4.4).
//!
//! The SpMV kernel reads the whole multi-window temporal CSR once per
//! iteration per window. When several windows live in the *same*
//! multi-window graph, the matrix can be read once for all of them: keep
//! `vl` ("vector length", 8 or 16 in the paper) rank vectors interleaved
//! column-major (`x[v*vl + k]`) and update every lane while each neighbor
//! run is hot in cache. The formerly random accesses to one rank vector
//! become `vl`-wide regular accesses — the access-pattern transformation
//! SpMM is prized for.
//!
//! Window membership per run is folded into a per-run **lane bitmask**,
//! decided before the first round and then reused by every iteration, so
//! the per-iteration inner loop is pure arithmetic: over whole strides with
//! the mask applied as an AND where runs are live in enough of the stride
//! ([`SimdDispatch::accumulate_row`]), over the mask's set bits where they
//! are not ([`VECTOR_ROW_RULE`]). No batch reads a timestamp: a
//! [`WindowIndex`] decided every run's windows once, and the batch turns
//! each view's window bit into its lane through one 256-entry table per
//! mask byte (`LaneTable`). An indexed batch, the one the engine runs,
//! walks its part's index in place while most runs of the index are ones
//! it holds, and copies out the runs it holds otherwise; the unindexed
//! entries build an index over their own windows and keep its runs.
//!
//! There is one round loop, `batch_iterate`, for every lane batch in the
//! crate. What a lane *is* — a window under the uniform teleport here, a
//! (window, query) pair under a personalized or Katz update in
//! [`crate::query`] — reaches it as a `LaneRule`, a handful of per-lane
//! hooks the loop is generic over; the live-row list, both row walks, the
//! cell-sparse finalize (a whole-stride update on rows whose every lane is
//! live, [`SimdDispatch::finalize_row`]), the health guards, the fault
//! hooks and converged-lane compaction are written once and serve both.

use crate::error::{FaultKind, KernelError};
use crate::observe::BatchObs;
use crate::pagerank::{guard_check, one_structure, GuardAction, PrHealth};
use crate::pagerank::{Init, PrConfig, PrStats};
use crate::scheduler::{Balance, Scheduler};
use crate::simd::{fold_residual, SimdDispatch};
use std::ops::Range;
use std::time::Instant;
use tempopr_graph::{LiveRuns, TemporalCsr, TimeRange, VertexId, WindowIndex, WindowIndexView};

/// Maximum lanes per batch (masks are `u64`).
pub const MAX_LANES: usize = 64;

/// Reusable buffers for batched PageRank.
#[derive(Debug, Default, Clone)]
pub struct SpmmWorkspace {
    /// Interleaved rank matrix, `n * vl`, current iterate.
    pub x: Vec<f64>,
    /// Next iterate.
    pub y: Vec<f64>,
    /// Interleaved `1/outdeg` (0 where inactive).
    pub inv_deg: Vec<f64>,
    /// Per-vertex lane bitmask: bit `k` set iff the vertex is active in
    /// window `k`.
    pub active_mask: Vec<u64>,
    /// Always empty: no batch writes it, since every vertex active in a
    /// symmetric window has an out-edge. It stays because the benchmark
    /// reads its `len()` when it sizes a batch's bytes.
    pub dangling_mask: Vec<u64>,
    /// Vertices active in at least one lane, ascending — iterations loop
    /// over this compact list instead of the whole vertex space.
    pub active_list: Vec<u32>,
    /// The batch's own run-compressed pull adjacency, the runs some lane
    /// holds: offsets per vertex (`n+1`). An unindexed batch always keeps
    /// one; an indexed batch only when it did not walk its index's run list
    /// in place, and leaves this and `run_nbr` empty when it did — so a
    /// reader that sizes the batch by `run_nbr` reads 0 for such a batch.
    pub run_row: Vec<usize>,
    /// Neighbor per run of the batch's own list (see `run_row`).
    pub run_nbr: Vec<VertexId>,
    /// In-window lane bitmask per run of the list the batch walked: its own
    /// list, or the index's with an empty mask on runs no lane holds.
    pub run_mask: Vec<u64>,
    /// The narrow rank matrix a batch's first converged-lane compaction
    /// repacks the live columns into, kept for the next batch's. Only the
    /// active rows' cells are ever read, and those the compaction writes,
    /// so it is resized, never cleared.
    narrow: Vec<f64>,
}

impl SpmmWorkspace {
    /// Zeroes what the last batch left in `x` and the masks, the rows of
    /// its union active list (at the batch's full stride, which `x` holds
    /// again however its rounds ended), and empties that list. No other
    /// cell was written, so all of them are zero after, in `x.len() / n`
    /// cells a row for the last batch's `n`.
    fn clear_rows_written(&mut self) {
        let n = self.active_mask.len();
        match self.x.len().checked_div(n) {
            Some(vl) if vl * n == self.x.len() => {
                for &v in &self.active_list {
                    self.x[v as usize * vl..(v as usize + 1) * vl].fill(0.0);
                }
            }
            _ => self.x.clear(),
        }
        for &v in &self.active_list {
            self.active_mask[v as usize] = 0;
        }
        self.active_list.clear();
    }

    /// Copies lane `k` into `out` (length `n`).
    pub fn copy_lane_into(&self, k: usize, vl: usize, out: &mut [f64]) {
        assert!(k < vl);
        let n = self.x.len() / vl;
        assert_eq!(out.len(), n);
        for (v, o) in out.iter_mut().enumerate() {
            *o = self.x[v * vl + k];
        }
    }
}

/// A run-compressed pull adjacency as the round loop reads it: row `v`'s
/// runs are `row[v]..row[v + 1]` of `nbr`, and `SpmmWorkspace::run_mask`
/// holds their lane masks. [`batch_iterate`] borrows it: the index's list,
/// or the workspace's own copy of the runs the batch holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunRows<'a> {
    pub(crate) row: &'a [usize],
    pub(crate) nbr: &'a [VertexId],
}

impl RunRows<'_> {
    #[inline]
    fn of(&self, v: usize) -> Range<usize> {
        self.row[v]..self.row[v + 1]
    }
}

/// An indexed batch copies out the runs its lanes hold once at least
/// `1 / EMPTY_RUN_SHARE` of its index's run list is runs no lane holds;
/// below that it walks the list in place. Every round pays for every run
/// it walks, and a batch runs many rounds per copy; but the copy costs a
/// neighbour per held run and a row offset per vertex that the in-place
/// walk does not keep. Batches of consecutive overlapping windows hold all
/// but a few runs of their part (`few-large-windows`: 8 %, in place); a
/// batch of every other window of a part whose windows barely overlap
/// misses about half (43–54 % on `many-small-windows` and on a δ = sw
/// HepTh grid, where the in-place walk made `run()` 1.5× slower), and
/// copies.
pub(crate) const EMPTY_RUN_SHARE: usize = 4;

/// Window bits to lane masks: one 256-entry table per byte of window bits
/// that holds a window the batch uses, so a run's lane mask is one lookup
/// per such byte, whatever the number of lanes or of windows.
struct LaneTable {
    /// `(byte position, lanes of every value of that byte)`.
    tables: Vec<(usize, [u64; 256])>,
}

impl LaneTable {
    /// The table spreading window `j` to `lanes` for every `(j, lanes)`
    /// given; windows not given select no lane.
    fn new(windows: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut bits: Vec<(usize, [u64; 8])> = Vec::new();
        for (j, lanes) in windows {
            let slot = match bits.iter().position(|&(b, _)| b == j / 8) {
                Some(i) => i,
                None => {
                    bits.push((j / 8, [0; 8]));
                    bits.len() - 1
                }
            };
            bits[slot].1[j % 8] |= lanes;
        }
        let tables = bits
            .into_iter()
            .map(|(b, per_bit)| {
                let mut t = [0u64; 256];
                for x in 1..256usize {
                    t[x] = t[x & (x - 1)] | per_bit[x.trailing_zeros() as usize];
                }
                (b, t)
            })
            .collect();
        LaneTable { tables }
    }

    /// Appends to `out` the lanes of every run of `bits`, `bytes` bytes per
    /// run.
    fn gather(&self, bits: &[u8], bytes: usize, out: &mut Vec<u64>) {
        match self.tables.as_slice() {
            // Every window of the batch in one byte: one lookup per run.
            [(b, t)] => out.extend(bits.chunks_exact(bytes).map(|r| t[r[*b] as usize])),
            tables => out.extend(
                bits.chunks_exact(bytes)
                    .map(|r| tables.iter().fold(0, |m, (b, t)| m | t[r[*b] as usize])),
            ),
        }
    }
}

/// Runs PageRank simultaneously on up to [`MAX_LANES`] windows of the same
/// temporal CSR.
///
/// `ranges[k]` is lane `k`'s window (any order); `inits[k]` its
/// initialization (see [`Init`]). `pull`/`push` as in
/// [`crate::pagerank::pagerank_window`]: one structure, passed twice.
/// Lanes converge independently; iteration stops when
/// every lane has converged (or at `cfg.max_iters`). Results are
/// interleaved in `ws.x` (use [`SpmmWorkspace::copy_lane_into`]). Window
/// membership is decided by a [`WindowIndex`] over `ranges`, built for the
/// call; the runs it keeps stay in `ws.run_row` / `ws.run_nbr`. It is the
/// reference that [`pagerank_batch_indexed`], the entry the engine runs, is
/// tested against.
pub fn pagerank_batch(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    ranges: &[TimeRange],
    inits: &[Init<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
) -> Result<Vec<PrStats>, KernelError> {
    let n = check_lanes(pull, push, ranges.len(), inits.len())?;
    let index = WindowIndex::build(pull, ranges);
    let views: Vec<_> = (0..ranges.len()).map(|j| index.view(j)).collect();
    let off = BatchObs::off();
    window_batch(&views, inits, n, true, cfg, sched, ws, off, None)
}

/// [`pagerank_batch`] with every window decided by the part's
/// [`WindowIndex`]: per-lane degrees and activity are copied out of the
/// [`WindowIndexView`]s and each run's lane mask is gathered from its
/// window bits through a `LaneTable` — no timestamp is read. The batch
/// walks the index's run list in place, a run no lane holds with an empty
/// mask, unless such runs are common enough that it copies out the runs it
/// holds instead (`EMPTY_RUN_SHARE`). All views must come from one index
/// over `pull`'s vertices. Ranks match [`pagerank_batch`] bit-for-bit.
pub fn pagerank_batch_indexed(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    views: &[WindowIndexView<'_>],
    inits: &[Init<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
) -> Result<Vec<PrStats>, KernelError> {
    pagerank_batch_indexed_obs(pull, push, views, inits, cfg, sched, ws, BatchObs::off())
}

/// [`pagerank_batch_indexed`] with an observation carrier (see
/// [`crate::observe`]).
#[allow(clippy::too_many_arguments)]
pub fn pagerank_batch_indexed_obs(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    views: &[WindowIndexView<'_>],
    inits: &[Init<'_>],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
    obs: BatchObs<'_>,
) -> Result<Vec<PrStats>, KernelError> {
    let n = check_lanes(pull, push, views.len(), inits.len())?;
    let t_setup = obs.now();
    window_batch(views, inits, n, false, cfg, sched, ws, obs, t_setup)
}

/// The argument checks both window batches share: `1..=MAX_LANES` lanes,
/// one init per lane, one structure. Returns its vertex count.
fn check_lanes(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    vl: usize,
    inits: usize,
) -> Result<usize, KernelError> {
    if vl == 0 || vl > MAX_LANES {
        return Err(KernelError::BadLaneCount { got: vl });
    }
    if inits != vl {
        return Err(KernelError::LaneMismatch {
            lanes: vl,
            args: inits,
        });
    }
    Ok(one_structure(pull, push)?.num_vertices())
}

/// One window per lane over `views`, under the uniform teleport.
#[allow(clippy::too_many_arguments)]
fn window_batch(
    views: &[WindowIndexView<'_>],
    inits: &[Init<'_>],
    n: usize,
    own: bool,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
    obs: BatchObs<'_>,
    t_setup: Option<Instant>,
) -> Result<Vec<PrStats>, KernelError> {
    let runs = lanes_from_views(views, 1, n, own, ws)?;
    let lane_verts: Vec<&[VertexId]> = views.iter().map(|v| v.vertices).collect();
    let mut rule = UniformTeleport::new(cfg, inits);
    batch_iterate(&lane_verts, runs, &mut rule, cfg, sched, ws, obs, t_setup)
}

/// The per-batch setup of every lane batch in the crate, read off one
/// [`WindowIndex`] over `n` vertices: lane `k = w·nq + q` is query `q` on
/// `views[w]`'s window (`nq = 1`: one window per lane), so each view's
/// `1/outdeg` and activity are copied to its `nq` lanes,
/// and each run's lane mask is gathered from its window bits through one
/// [`LaneTable`]. Fills every mask and the union active list of `ws` and
/// returns the index's run list. The batch walks that list in place unless
/// `own` asks for its held runs in `ws.run_row` / `ws.run_nbr` (the
/// unindexed entries, whose index does not outlive the call) or runs no
/// lane holds make up `1 / EMPTY_RUN_SHARE` of it.
pub(crate) fn lanes_from_views<'a>(
    views: &[WindowIndexView<'a>],
    nq: usize,
    n: usize,
    own: bool,
    ws: &mut SpmmWorkspace,
) -> Result<LiveRuns<'a>, KernelError> {
    let runs = views[0].runs;
    let shared = |v: &WindowIndexView<'_>| {
        std::ptr::eq(v.runs.row, runs.row) && std::ptr::eq(v.runs.bits, runs.bits)
    };
    if runs.row.len() != n + 1 || !views.iter().all(shared) {
        return Err(KernelError::ForeignIndexViews);
    }
    let vl = views.len() * nq;
    let queries = lane_mask_all(nq);
    ws.clear_rows_written();
    // No cell of `inv_deg` a lane reads is left unwritten below; the rest
    // keep bytes of earlier batches, finite and non-negative like every
    // value it is ever given (see the `crate::simd` module docs).
    ws.inv_deg.resize(n * vl, 0.0);
    ws.active_mask.resize(n, 0);
    for (w, view) in views.iter().enumerate() {
        let lanes = queries << (w * nq);
        for (&v, &inv) in view.vertices.iter().zip(view.inv_deg) {
            let v = v as usize;
            if ws.active_mask[v] == 0 {
                ws.active_list.push(v as u32);
            }
            ws.active_mask[v] |= lanes;
            ws.inv_deg[v * vl + w * nq..v * vl + (w + 1) * nq].fill(inv);
        }
    }
    ws.active_list.sort_unstable();
    let table = LaneTable::new(
        views
            .iter()
            .enumerate()
            .map(|(w, v)| (v.window, queries << (w * nq))),
    );
    ws.run_mask.clear();
    table.gather(runs.bits, runs.bytes, &mut ws.run_mask);
    ws.run_row.clear();
    ws.run_nbr.clear();
    let empty = ws.run_mask.iter().filter(|&&m| m == 0).count();
    if own || (empty > 0 && empty * EMPTY_RUN_SHARE >= ws.run_mask.len()) {
        // Keep the held runs, their masks moved down in place.
        ws.run_row.reserve(n + 1);
        ws.run_row.push(0);
        let mut kept = 0;
        for row in runs.row.windows(2) {
            for i in row[0]..row[1] {
                let m = ws.run_mask[i];
                if m != 0 {
                    ws.run_mask[kept] = m;
                    ws.run_nbr.push(runs.nbr[i]);
                    kept += 1;
                }
            }
            ws.run_row.push(kept);
        }
        ws.run_mask.truncate(kept);
    }
    Ok(runs)
}

/// What the callers of [`batch_iterate`] differ in, and nothing else: how
/// a lane is seeded, the cell update and its per-round coefficient, the
/// residual norm with its tolerance, the mass the health guard checks, and
/// the per-lane state that compaction has to repack beside the rank
/// matrix. The loop is generic over the rule (static dispatch), so each
/// instantiation compiles to its own round loop with the rule inlined.
///
/// The cell update and the norms are data, not code: both rules hand the
/// round their [`Affine`] form. There are two roundings in it: the uniform
/// teleport folds its `1/n` into the coefficient before the add
/// (`base + damp·acc`, [`UniformTeleport`], which has no teleport matrix
/// and multiplies `base` by 1), the query rule multiplies a per-cell
/// teleport entry in the round (`factor·tele + scale·acc`,
/// `kernel::query`). The bit-identity suites pin each to its own
/// single-lane kernel, so neither can be rewritten as the other.
///
/// Methods take the lane's *compact slot* `k` at the current effective
/// stride `vl`; until the first compaction that is the original lane.
pub(crate) trait LaneRule: Sync {
    /// Seeds slot `k` of the zeroed interleaved `x` over `verts`, the
    /// lane's active vertices (non-empty, ascending). `n` is the vertex
    /// universe a caller-provided vector must span.
    fn seed(
        &self,
        k: usize,
        vl: usize,
        verts: &[VertexId],
        n: usize,
        x: &mut [f64],
    ) -> Result<(), KernelError>;

    /// Puts slot `k` back on the lane's canonical start after the health
    /// guard asked for a restart.
    fn restart(&self, k: usize, vl: usize, verts: &[VertexId], x: &mut [f64]);

    /// This round's coefficient of slot `k`, from the lane's active-vertex
    /// count.
    fn coefficient(&self, k: usize, n_act: usize) -> f64;

    /// The cell update and the residual norms, at the current stride (see
    /// [`Affine`]).
    fn affine(&self) -> Affine<'_>;

    /// The residual below which slot `k` has converged.
    fn tolerance(&self, k: usize) -> f64;

    /// The rank mass the health guard holds slot `k` to, given the
    /// iterate's sum `mass`.
    fn guard_mass(&self, k: usize, mass: f64) -> f64;

    /// Compaction is narrowing the stride from `vl` to the slots `keep`
    /// (ascending) over the batch's active `rows` (ascending): repack
    /// whatever per-lane state the rule owns the same way
    /// ([`repack_columns`] for a matrix).
    fn compact(&mut self, keep: &[usize], vl: usize, rows: &[u32]);
}

/// The affine form both rules share, as a round reads it off its rule:
/// cell `(v, k)` becomes `c·tele[v·vl + k] + scale[k]·acc`, `c` being slot
/// `k`'s coefficient this round and `acc` the row's pull sum, and its
/// `|new − old|` joins slot `k`'s residual on the L1 norm, or on the L∞
/// norm for the slots of `linf` (`simd::fold_residual`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Affine<'a> {
    /// Multiplier of the pull sum per slot, at least `vl` of them.
    pub(crate) scale: &'a [f64],
    /// The interleaved teleport matrix at the current stride; `None` for
    /// a rule whose teleport is all in `c`, which reads a row of ones.
    pub(crate) tele: Option<&'a [f64]>,
    /// Slots whose residual is the L∞ norm.
    pub(crate) linf: u64,
}

impl Affine<'_> {
    /// Row `v`'s teleport entries at stride `vl`: its row of the matrix,
    /// or `vl` ones. `c·1` is `c` bit for bit, so a rule without a matrix
    /// gets `c + scale·acc` from the same update.
    #[inline]
    fn tele_row(&self, v: usize, vl: usize) -> &[f64] {
        const ONES: [f64; MAX_LANES] = [1.0; MAX_LANES];
        match self.tele {
            Some(tele) => &tele[v * vl..(v + 1) * vl],
            None => &ONES[..vl],
        }
    }
}

/// The lane rule of the window batch: every lane teleports uniformly over
/// its own active set with the batch's one `alpha`, converges on the L1
/// residual against the batch's one tolerance, and conserves unit mass.
/// Its affine form has no teleport matrix: the `1/n` is folded into the
/// coefficient, and every slot's `scale` is the damping `1 − alpha`.
struct UniformTeleport<'a> {
    alpha: f64,
    /// The damping `1 − alpha` in every slot: the affine form's `scale`.
    scale: [f64; MAX_LANES],
    tol: f64,
    inits: &'a [Init<'a>],
}

impl<'a> UniformTeleport<'a> {
    fn new(cfg: &PrConfig, inits: &'a [Init<'a>]) -> Self {
        UniformTeleport {
            alpha: cfg.alpha,
            scale: [1.0 - cfg.alpha; MAX_LANES],
            tol: cfg.tol,
            inits,
        }
    }
}

impl LaneRule for UniformTeleport<'_> {
    fn seed(
        &self,
        k: usize,
        vl: usize,
        verts: &[VertexId],
        n: usize,
        x: &mut [f64],
    ) -> Result<(), KernelError> {
        initialize_lane(self.inits[k], k, vl, verts, n, x)
    }

    fn restart(&self, k: usize, vl: usize, verts: &[VertexId], x: &mut [f64]) {
        seed_uniform(k, vl, verts, x);
    }

    #[inline]
    fn coefficient(&self, _k: usize, n_act: usize) -> f64 {
        self.alpha / n_act as f64
    }

    fn affine(&self) -> Affine<'_> {
        Affine {
            scale: &self.scale,
            tele: None,
            linf: 0,
        }
    }

    fn tolerance(&self, _k: usize) -> f64 {
        self.tol
    }

    fn guard_mass(&self, _k: usize, mass: f64) -> f64 {
        mass
    }

    fn compact(&mut self, _keep: &[usize], _vl: usize, _rows: &[u32]) {}
}

/// The one lane-batched round loop, run after [`lanes_from_views`] filled
/// `ws`: over the runs that setup kept in `ws.run_row` / `ws.run_nbr` when
/// it kept any, and over the index's run list `index` otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn batch_iterate<R: LaneRule>(
    lane_verts: &[&[VertexId]],
    index: LiveRuns<'_>,
    rule: &mut R,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
    obs: BatchObs<'_>,
    t_setup: Option<Instant>,
) -> Result<Vec<PrStats>, KernelError> {
    // The own list is lent out of `ws` for the rounds and handed back.
    let (row, nbr) = (
        std::mem::take(&mut ws.run_row),
        std::mem::take(&mut ws.run_nbr),
    );
    let runs = if row.is_empty() {
        RunRows {
            row: index.row,
            nbr: index.nbr,
        }
    } else {
        RunRows {
            row: &row,
            nbr: &nbr,
        }
    };
    let out = rounds(lane_verts, runs, rule, cfg, sched, ws, obs, t_setup);
    (ws.run_row, ws.run_nbr) = (row, nbr);
    out
}

/// Lane seeding plus the masked batched iteration over the run-compressed
/// adjacency `runs` (whose lane masks, like the activity masks, are
/// already in `ws`), with everything a caller may vary supplied by `rule`
/// (see [`LaneRule`]). `lane_verts[k]` lists lane `k`'s active vertices,
/// ascending; `t_setup` is when the caller's setup began (reported to the
/// observer once the lane sizes are known).
///
/// A round costs what its live cells cost. It is driven from the
/// [`LiveRows`] list — the rows active in at least one lane that has not
/// converged — and within a row only the lanes in `active_mask[v] & live`
/// are finalized and scattered back. Everything skipped is either a held
/// value (a converged lane) or a `+0.0` term into a non-negative sum (a
/// lane the row is not active in), so each lane's ranks, residuals and
/// iteration count are those of the full sweep, bit for bit. A row whose
/// cells are the whole effective stride — most rows of a query batch — is
/// finalized by [`SimdDispatch::finalize_row`] in one pass over the stride
/// (the rule's [`Affine`] form) and scattered back by one slice copy; the
/// other rows, and every row under [`crate::SimdPolicy::BitWalk`], walk
/// their cells one by one.
///
/// Three further optimizations live here; the first two are bit-identical
/// per lane to the plain masked walk (locked in by
/// `tests/prop_simd_parity.rs`):
///
/// - **Row walk by mask density**: the pull walk of a row is one of two
///   loops, chosen per [`LiveRows`] rebuild from what the masks hold
///   ([`VECTOR_ROW_RULE`]). Where an average run is live in a fair share
///   of the stride, [`SimdDispatch::accumulate_row`] applies every run to
///   the whole stride with the lanes outside `run_mask & live` ANDed to
///   `+0.0` terms (AVX2 or portable per [`PrConfig::simd`]) — no branch on
///   the mask; where runs are sparse in the stride (many disjoint windows)
///   the bit walk touches only the cells that exist. A masked-off lane adds
///   `+0.0` to a non-negative sum, so both give every lane the same bits.
/// - **Converged-lane compaction** ([`PrConfig::compaction`]): once at
///   most half of at least 8 effective lanes are still live, the
///   interleaved state is repacked to the live lanes, shrinking the
///   effective `vl`. The first compaction sets the full-stride `x` aside
///   as the park, where converged columns stay at their original
///   positions, and the live columns move to a narrow matrix; after the
///   loop they are merged back. Compaction and the merge walk the batch's
///   union active rows (`ws.active_list`) only, so they cost what the
///   batch's windows hold, not the part's vertex range; no other row holds
///   a cell any lane reads or writes. Each lane's summation sequence is
///   unchanged, so ranks stay bit-identical.
/// - **Edge-balanced chunking** ([`Balance::Edge`] on the scheduler):
///   parallel chunk boundaries follow the run-count prefix sum instead of
///   row counts. Like a grain-size change, moving chunk boundaries moves
///   reduction grouping, so this is *not* bit-identical to
///   vertex-balanced runs (each configuration is itself deterministic).
///
/// The per-lane residual reduction also carries each lane's rank mass, so
/// the numeric-health guards check every live lane per iteration at the
/// cost of one extra add per live cell. Recovery (renormalize/restart per
/// [`crate::NumericPolicy`]) is per lane — healthy lanes are unaffected by
/// a faulting sibling. Injected faults (`cfg.fault`) target original lane
/// 0 at its first active vertex, wherever compaction has moved the lane.
#[allow(clippy::too_many_arguments)]
fn rounds<R: LaneRule>(
    lane_verts: &[&[VertexId]],
    runs: RunRows<'_>,
    rule: &mut R,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut SpmmWorkspace,
    obs: BatchObs<'_>,
    t_setup: Option<Instant>,
) -> Result<Vec<PrStats>, KernelError> {
    let vl0 = lane_verts.len();
    let n = ws.active_mask.len();
    let n_act: Vec<usize> = lane_verts.iter().map(|l| l.len()).collect();
    obs.setup(&n_act, t_setup);

    // --- Initialization ---------------------------------------------------
    // Setup zeroed `x`; no cell of `y` is read before a round writes it.
    ws.x.resize(n * vl0, 0.0);
    ws.y.resize(n * vl0, 0.0);
    for (k, verts) in lane_verts.iter().enumerate() {
        // An empty lane's column stays zero and the lane starts converged.
        if !verts.is_empty() {
            rule.seed(k, vl0, verts, n, &mut ws.x)?;
        }
    }
    if let Some(FaultKind::CorruptReciprocal) = cfg.fault {
        if let Some(&v) = lane_verts[0]
            .iter()
            .find(|&&v| ws.inv_deg[v as usize * vl0] > 0.0)
        {
            ws.inv_deg[v as usize * vl0] *= 1000.0;
        }
    }

    let dispatch = SimdDispatch::select(cfg.simd);
    obs.dispatch(dispatch.isa(), vl0);

    // --- Batched iteration --------------------------------------------------
    let mut stats: Vec<PrStats> = (0..vl0)
        .map(|k| PrStats {
            iterations: 0,
            converged: n_act[k] == 0,
            active_vertices: n_act[k],
            health: PrHealth::default(),
        })
        .collect();

    // Compact lane state: `vl` is the current effective width and
    // `lane_map[j]` the original lane occupying compact slot `j`. `done`
    // and `all_done` live in compact space, as does whatever the rule
    // keeps per lane; `stats`, `n_act` and `lane_verts` stay in original
    // lane order. Converged columns stay at their original positions
    // (stride `vl0`) in `parked`, the full-stride `x` the first
    // compaction set aside.
    let mut vl = vl0;
    let mut lane_map: Vec<usize> = (0..vl0).collect();
    let mut parked: Vec<f64> = Vec::new();

    let mut done: u64 = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.converged)
        .fold(0u64, |m, (k, _)| m | (1 << k));
    let mut all_done = lane_mask_all(vl);

    // Rebuilt when a lane converges or compaction changes the stride: the
    // rows, their live cells and the walk chosen from them hold until then.
    let mut live_rows = LiveRows::default();
    let mut live_rows_stale = true;

    // A guard that escalates ends the rounds, and the batch returns its
    // error once `x` is back at the full stride.
    let mut failure = None;
    let mut iter = 0usize;
    'rounds: while done != all_done && iter < cfg.max_iters {
        iter += 1;
        match cfg.fault {
            Some(FaultKind::InjectNan { at_iter }) if at_iter == iter => {
                if let Some(&v) = lane_verts[0].first() {
                    // Faults target *original* lane 0, which compaction may
                    // have moved to another slot — or parked entirely.
                    match lane_map.iter().position(|&orig| orig == 0) {
                        Some(j) => ws.x[v as usize * vl + j] = f64::NAN,
                        None => parked[v as usize * vl0] = f64::NAN,
                    }
                }
            }
            Some(FaultKind::PanicInKernel) if iter == 1 => {
                // Intentional: models a latent kernel bug for the driver's
                // panic-isolation path.
                panic!("fault injection: panic inside SpMM kernel");
            }
            _ => {}
        }
        let t_round = obs.now();
        // Lanes that already converged are masked out of the round and
        // keep their current values; only live lanes pay for it.
        let live = !done & all_done;
        if live_rows_stale {
            live_rows.rebuild(ws, runs, live, vl, dispatch.dense(), sched);
            live_rows_stale = false;
            obs.live_rows(live_rows.edges, live_rows.cells, vl, live_rows.vector);
        }
        let mut coef = [0.0f64; MAX_LANES];
        for k in lanes(live) {
            coef[k] = rule.coefficient(k, n_act[lane_map[k]]);
        }

        let affine = rule.affine();
        let dense = dispatch.dense();
        let list = &live_rows.rows;
        let vector_rows = live_rows.vector;
        let x = &ws.x;
        let inv_deg = &ws.inv_deg;
        let active_mask = &ws.active_mask;
        let run_nbr = runs.nbr;
        let run_mask = &ws.run_mask;
        // Compact next-iterate matrix: row r of `ws.y` belongs to
        // live_rows.rows[r]; its live cells are scattered back into `ws.x`
        // after the pass (the other slots of the row are never read).
        let compact = &mut ws.y[..list.len() * vl];
        let body = |r0: usize, rows: &mut [f64]| -> ([f64; MAX_LANES], [f64; MAX_LANES]) {
            let mut diff = [0.0f64; MAX_LANES];
            let mut mass = [0.0f64; MAX_LANES];
            let mut acc = [0.0f64; MAX_LANES];
            for (r, row) in rows.chunks_exact_mut(vl).enumerate() {
                let v = list[r0 + r] as usize;
                acc[..vl].iter_mut().for_each(|a| *a = 0.0);
                let row_runs = runs.of(v);
                if vector_rows {
                    dispatch.accumulate_row(
                        &mut acc[..vl],
                        &run_nbr[row_runs.clone()],
                        &run_mask[row_runs],
                        live,
                        x,
                        inv_deg,
                    );
                } else {
                    for i in row_runs {
                        let u = run_nbr[i] as usize;
                        for k in lanes(run_mask[i] & live) {
                            acc[k] += x[u * vl + k] * inv_deg[u * vl + k];
                        }
                    }
                }
                let old = &x[v * vl..(v + 1) * vl];
                let tele = affine.tele_row(v, vl);
                let cells = active_mask[v] & live;
                if dense && cells == all_done {
                    dispatch.finalize_row(
                        row,
                        old,
                        &acc[..vl],
                        &coef[..vl],
                        tele,
                        &affine.scale[..vl],
                        affine.linf,
                        &mut diff[..vl],
                        &mut mass[..vl],
                    );
                } else {
                    for_each_cell(cells, all_done, |k| {
                        let val = coef[k] * tele[k] + affine.scale[k] * acc[k];
                        let linf = (affine.linf >> k) & 1 == 1;
                        diff[k] = fold_residual(linf, diff[k], (val - old[k]).abs());
                        mass[k] += val;
                        row[k] = val;
                    });
                }
            }
            (diff, mass)
        };
        let reduce = |mut a: ([f64; MAX_LANES], [f64; MAX_LANES]),
                      b: ([f64; MAX_LANES], [f64; MAX_LANES])| {
            for k in 0..MAX_LANES {
                a.0[k] = fold_residual((affine.linf >> k) & 1 == 1, a.0[k], b.0[k]);
                a.1[k] += b.1[k];
            }
            a
        };
        let (diff, mass) = match sched {
            Some(s) => s.map_reduce_rows_chunked_mut(
                compact,
                vl,
                &live_rows.chunks,
                ([0.0; MAX_LANES], [0.0; MAX_LANES]),
                body,
                reduce,
            ),
            None => body(0, compact),
        };
        let t_mid = obs.now();
        for (r, &v) in live_rows.rows.iter().enumerate() {
            let v = v as usize;
            let (new, old) = (&ws.y[r * vl..(r + 1) * vl], &mut ws.x[v * vl..(v + 1) * vl]);
            let cells = ws.active_mask[v] & live;
            if dense && cells == all_done {
                old.copy_from_slice(new);
            } else {
                for_each_cell(cells, all_done, |k| old[k] = new[k]);
            }
        }
        // Per-lane health check and recovery; a faulted lane skips this
        // iteration's convergence test (its residual reflects the
        // pre-recovery iterate).
        let mut faulted = 0u64;
        if cfg.guard.enabled {
            for k in lanes(live) {
                let lane = lane_map[k];
                let guarded = rule.guard_mass(k, mass[k]);
                match guard_check(diff[k], guarded, lane, iter, cfg, &mut stats[lane].health) {
                    Err(e) => {
                        failure = Some(e);
                        break 'rounds;
                    }
                    Ok(GuardAction::Proceed) => {}
                    Ok(GuardAction::Renormalize { scale }) => {
                        for &v in lane_verts[lane] {
                            ws.x[v as usize * vl + k] *= scale;
                        }
                        faulted |= 1 << k;
                        obs.lane_guard(lane, iter, false);
                    }
                    Ok(GuardAction::Restart) => {
                        rule.restart(k, vl, lane_verts[lane], &mut ws.x);
                        faulted |= 1 << k;
                        obs.lane_guard(lane, iter, true);
                    }
                }
            }
        }
        let force = cfg.fault == Some(FaultKind::ForceNonConvergence);
        for k in lanes(live) {
            let lane = lane_map[k];
            stats[lane].iterations = iter;
            if faulted & (1 << k) != 0 {
                continue;
            }
            if diff[k] < rule.tolerance(k) && !force {
                stats[lane].converged = true;
                done |= 1 << k;
                live_rows_stale = true;
            }
        }
        if obs.is_on() {
            for k in lanes(live) {
                obs.lane_iteration(lane_map[k], iter, diff[k], mass[k]);
            }
            obs.round(
                iter,
                live.count_ones(),
                vl0,
                live_rows.edges,
                t_round,
                t_mid,
            );
            obs.row_walk(live_rows.vector);
        }

        // Converged-lane compaction: once at most half of at least 8
        // effective lanes are still live, repack so the row walk, scatter
        // and guards touch only live columns.
        let lc = (!done & all_done).count_ones() as usize;
        if cfg.compaction && lc > 0 && vl >= 8 && lc <= vl / 2 {
            let vl_new = compact_lanes(ws, rule, runs, vl, vl0, done, &mut lane_map, &mut parked);
            obs.compaction(vl, vl_new, ws.active_list.len());
            vl = vl_new;
            done = 0;
            all_done = lane_mask_all(vl);
            // The narrower stride moves the density the walk was chosen on.
            live_rows_stale = true;
        }
    }
    // Merge the still-compact columns of the active rows back into the
    // park, the full-stride `x` the first compaction set aside, and hand
    // it back: every other cell of it already holds its final value. The
    // narrow matrix goes back to the workspace for the next batch.
    if vl != vl0 {
        for &v in &ws.active_list {
            let v = v as usize;
            for (j, &orig) in lane_map.iter().enumerate() {
                parked[v * vl0 + orig] = ws.x[v * vl + j];
            }
        }
        ws.narrow = std::mem::replace(&mut ws.x, parked);
    }
    failure.map_or(Ok(stats), Err)
}

/// When a batch's rounds take the whole-stride row walk
/// ([`SimdDispatch::accumulate_row`]) instead of the bit walk: an average
/// run of the live rows must be live in at least `1 / VECTOR_ROW_RULE` of
/// the effective stride, `cells · VECTOR_ROW_RULE ≥ runs · vl`. The bit
/// walk costs by the cell (5–21 ns per run as cells per run grow), the row
/// walk by the stride (1.4–5.4 ns per run, growing with `vl / 4` only) plus
/// a per-row cost that rows of one or two runs do not amortize; 8 keeps
/// the benchmark's sparse 16-lane batches (1.0 cells per run) on the walk
/// and puts all but one point of the measured `vl` × overlap sweep on its
/// faster side (DESIGN §8.1; the sweep is recorded in EXPERIMENTS.md,
/// "Window membership decided once").
pub const VECTOR_ROW_RULE: u64 = 8;

/// The rows a round of a lane batch still has to visit, with what the
/// round derives from them. Rebuilt when the live-lane set loses a lane or
/// compaction narrows the stride, never per round.
#[derive(Debug, Default)]
pub(crate) struct LiveRows {
    /// Rows of the union active list that are active in at least one live
    /// lane, ascending.
    pub(crate) rows: Vec<u32>,
    /// The row-task plan over `rows`: a function of the list and the
    /// scheduler alone, never of the effective lane width, so SIMD policy
    /// and compaction cannot move the reduction grouping. Empty without a
    /// scheduler.
    pub(crate) chunks: Vec<Range<usize>>,
    /// Run entries one pull walk over `rows` visits (reported per round),
    /// runs with an empty lane mask included.
    pub(crate) edges: u64,
    /// Live (run, lane) cells among them: `Σ popcount(run_mask & live)`.
    pub(crate) cells: u64,
    /// Whether rounds walk rows with [`SimdDispatch::accumulate_row`]
    /// (see [`VECTOR_ROW_RULE`]) or bit by bit.
    pub(crate) vector: bool,
}

impl LiveRows {
    /// Recomputes the list for the `live` lane mask (in the bit numbering
    /// `ws.active_mask` currently uses, over `vl` effective lanes) and,
    /// from it and the batch's `runs`, the run and live-cell counts, the
    /// walk they select
    /// (`dense` is whether the SIMD policy allows the row walk at all) and
    /// the task plan: even rows under [`Balance::Vertex`], degree-weighted
    /// boundaries under [`Balance::Edge`] (weight = run count + 1 so
    /// runless rows still carry their finalize cost).
    pub(crate) fn rebuild(
        &mut self,
        ws: &SpmmWorkspace,
        runs: RunRows<'_>,
        live: u64,
        vl: usize,
        dense: bool,
        sched: Option<&Scheduler>,
    ) {
        self.rows.clear();
        self.rows.extend(
            ws.active_list
                .iter()
                .filter(|&&v| ws.active_mask[v as usize] & live != 0),
        );
        (self.edges, self.cells) = (0, 0);
        for &v in &self.rows {
            let masks = &ws.run_mask[runs.of(v as usize)];
            self.edges += masks.len() as u64;
            self.cells += masks
                .iter()
                .map(|&m| u64::from((m & live).count_ones()))
                .sum::<u64>();
        }
        self.vector = dense && self.cells * VECTOR_ROW_RULE >= self.edges * vl as u64;
        self.chunks = match sched {
            Some(s) if s.balance == Balance::Edge => {
                let mut prefix = Vec::with_capacity(self.rows.len() + 1);
                let mut acc = 0usize;
                prefix.push(0);
                for &v in &self.rows {
                    acc += runs.of(v as usize).len() + 1;
                    prefix.push(acc);
                }
                s.chunks_weighted(&prefix)
            }
            Some(s) => s.row_chunks(self.rows.len()),
            None => Vec::new(),
        };
    }
}

/// Calls `f` on every lane of `cells`, ascending: the cells of one row a
/// round has to touch. When they are the whole effective stride `all`
/// (every lane live, the row active in each) this is a counted loop the
/// compiler can vectorize; otherwise a bit walk.
#[inline]
pub(crate) fn for_each_cell(cells: u64, all: u64, f: impl FnMut(usize)) {
    if cells == all {
        (0..all.count_ones() as usize).for_each(f);
    } else {
        lanes(cells).for_each(f);
    }
}

/// The set bits of `m`, ascending: the lanes a mask selects.
#[inline]
pub(crate) fn lanes(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            k
        })
    })
}

/// The all-lanes-done mask for an effective width.
pub(crate) fn lane_mask_all(vl: usize) -> u64 {
    if vl >= 64 {
        u64::MAX
    } else {
        (1u64 << vl) - 1
    }
}

/// Repacks the interleaved batch state from `vl` columns down to the lanes
/// still live in `done`, over the batch's union active rows
/// (`ws.active_list`) alone: no other row holds a cell a lane reads or
/// writes. The first compaction (`vl == vl0`) makes the full-stride `x`
/// itself the park, since it already holds every converged column and every
/// row no lane holds at their original positions, and moves only the live
/// columns of the active rows into the workspace's narrow matrix, resized
/// but not cleared (its other cells keep stale bytes no lane reads, and the
/// whole-stride walk ANDs to `+0.0` whatever it meets there); a later one
/// parks its newly converged columns there (stride `vl0`) and repacks in
/// place.
/// `inv_deg`, the masks and the rule's per-lane state are repacked in
/// place, so rows outside the batch keep stale but finite `inv_deg` copies
/// (see the `crate::simd` module docs for why the whole-stride walk may
/// read them). Returns the new effective width.
#[allow(clippy::too_many_arguments)]
fn compact_lanes<R: LaneRule>(
    ws: &mut SpmmWorkspace,
    rule: &mut R,
    runs: RunRows<'_>,
    vl: usize,
    vl0: usize,
    done: u64,
    lane_map: &mut Vec<usize>,
    parked: &mut Vec<f64>,
) -> usize {
    let n = ws.active_mask.len();
    let keep: Vec<usize> = (0..vl).filter(|j| done & (1u64 << j) == 0).collect();
    let rows = &ws.active_list;
    if vl == vl0 {
        let vl_new = keep.len();
        let mut narrow = std::mem::take(&mut ws.narrow);
        narrow.resize(n * vl_new, 0.0);
        for &v in rows {
            let v = v as usize;
            for (jn, &j) in keep.iter().enumerate() {
                narrow[v * vl_new + jn] = ws.x[v * vl + j];
            }
        }
        *parked = std::mem::replace(&mut ws.x, narrow);
    } else {
        for &v in rows {
            let v = v as usize;
            for j in lanes(done) {
                parked[v * vl0 + lane_map[j]] = ws.x[v * vl + j];
            }
        }
        repack_columns(&mut ws.x, rows, vl, &keep);
    }
    repack_columns(&mut ws.inv_deg, rows, vl, &keep);
    rule.compact(&keep, vl, rows);
    for &v in rows {
        let v = v as usize;
        ws.active_mask[v] = compress_bits(ws.active_mask[v], &keep);
        for m in &mut ws.run_mask[runs.of(v)] {
            *m = compress_bits(*m, &keep);
        }
    }
    *lane_map = keep.iter().map(|&j| lane_map[j]).collect();
    keep.len()
}

/// Repacks the rows `rows` (ascending) of the interleaved matrix `m` in
/// place from stride `vl` to the columns `keep` (ascending), stride
/// `keep.len()`; every other row is left as it is.
///
/// In place is safe row-ascending: row `v`'s destination ends at
/// `(v + 1) * keep.len() - 1 < (v + 1) * vl`, so writes never reach the
/// source of a later row, and the row's own source is staged through a
/// stack buffer first.
pub(crate) fn repack_columns(m: &mut [f64], rows: &[u32], vl: usize, keep: &[usize]) {
    let vl_new = keep.len();
    let mut tmp = [0.0f64; MAX_LANES];
    for &v in rows {
        let v = v as usize;
        tmp[..vl].copy_from_slice(&m[v * vl..(v + 1) * vl]);
        for (jn, &j) in keep.iter().enumerate() {
            m[v * vl_new + jn] = tmp[j];
        }
    }
}

/// Bit `jn` of the result is bit `keep[jn]` of `m`.
pub(crate) fn compress_bits(m: u64, keep: &[usize]) -> u64 {
    let mut out = 0u64;
    for (jn, &j) in keep.iter().enumerate() {
        out |= ((m >> j) & 1) << jn;
    }
    out
}

/// Seeds lane `k` of the interleaved `x` (stride `vl`) over `verts`, the
/// lane's active vertices (non-empty, ascending): the per-lane version of
/// [`crate::pagerank::initialize`]. Slots off `verts` are left as they are
/// — zero, since nothing ever writes a lane outside its active set. `n` is
/// the vertex universe a caller-provided vector must span.
fn initialize_lane(
    init: Init<'_>,
    k: usize,
    vl: usize,
    verts: &[VertexId],
    n: usize,
    x: &mut [f64],
) -> Result<(), KernelError> {
    let n_act_f = verts.len() as f64;
    let ids = || verts.iter().map(|&v| v as usize);
    match init {
        Init::Uniform => seed_uniform(k, vl, verts, x),
        Init::Provided(p) => {
            if p.len() != n {
                return Err(KernelError::BadVectorLength {
                    what: "provided init",
                    expected: n,
                    got: p.len(),
                });
            }
            let mut sum = 0.0;
            for v in ids() {
                if p[v] > 0.0 {
                    sum += p[v];
                }
            }
            if sum <= 0.0 {
                seed_uniform(k, vl, verts, x);
                return Ok(());
            }
            for v in ids() {
                x[v * vl + k] = if p[v] > 0.0 { p[v] / sum } else { 0.0 };
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
            let mut shared = 0usize;
            let mut shared_sum = 0.0;
            for v in ids() {
                if prev[v] > 0.0 {
                    shared += 1;
                    shared_sum += prev[v];
                }
            }
            if shared == 0 || shared_sum <= 0.0 {
                seed_uniform(k, vl, verts, x);
                return Ok(());
            }
            let factor = (shared as f64 / n_act_f) / shared_sum;
            for v in ids() {
                x[v * vl + k] = if prev[v] > 0.0 {
                    prev[v] * factor
                } else {
                    1.0 / n_act_f
                };
            }
        }
    }
    Ok(())
}

/// The uniform start of lane `k`: `1/|verts|` on each of its vertices.
fn seed_uniform(k: usize, vl: usize, verts: &[VertexId], x: &mut [f64]) {
    let u = 1.0 / verts.len() as f64;
    for &v in verts {
        x[v as usize * vl + k] = u;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_window_vec, PrConfig};
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

    #[test]
    fn a_batch_failing_past_a_compaction_leaves_no_stale_narrow_cells() {
        // The narrow matrix a first compaction repacks into is kept from
        // batch to batch and never cleared, so the rows an earlier batch
        // wrote in it are stale for a later one. A ring (0..10, regular, so
        // its full window converges in the first round) beside a star
        // (10..20, which takes many). Batch `a` compacts with star rows in
        // its narrow matrix; batch `b` compacts over ring rows only and
        // then fails; batch `c`, star windows only, must see the cells a
        // fresh workspace holds, the ring rows' zeros included.
        use crate::pagerank::{GuardConfig, NumericPolicy};
        use crate::FaultKind;
        let mut events: Vec<Event> = (0..10u32)
            .map(|i| Event::new(i, (i + 1) % 10, i64::from(i)))
            .collect();
        events.extend((11..20u32).map(|j| Event::new(10, j, 100 + i64::from(j))));
        events.extend((11..19u32).map(|j| Event::new(j, j + 1, 120 + i64::from(j))));
        let t = TemporalCsr::from_events(20, &events);
        let spans = |s: &[(i64, i64)]| -> Vec<TimeRange> {
            s.iter().map(|&(a, b)| TimeRange::new(a, b)).collect()
        };
        let ring = (0, 9);
        let a = spans(&[
            (100, 140),
            ring,
            (110, 135),
            ring,
            (100, 125),
            ring,
            (115, 140),
            ring,
        ]);
        let b = spans(&[(0, 4), ring, (2, 6), ring, (3, 8), ring, (1, 5), ring]);
        let c = spans(&[
            (100, 140),
            (110, 135),
            (100, 125),
            (115, 140),
            (100, 130),
            (105, 139),
            (111, 128),
            (100, 119),
        ]);
        let c_ok = cfg();
        let failing = PrConfig {
            fault: Some(FaultKind::InjectNan { at_iter: 3 }),
            guard: GuardConfig {
                policy: NumericPolicy::Fail,
                ..GuardConfig::default()
            },
            ..cfg()
        };
        let batch = |ws: &mut SpmmWorkspace, ranges: &[TimeRange], c: &PrConfig| {
            let inits = vec![Init::Uniform; ranges.len()];
            let out = pagerank_batch(&t, &t, ranges, &inits, c, None, ws);
            let bits: Vec<u64> = ws.x.iter().map(|v| v.to_bits()).collect();
            (out, bits)
        };
        let mut ws = SpmmWorkspace::default();
        let (out, _) = batch(&mut ws, &a, &c_ok);
        let iters: Vec<usize> = out.unwrap().iter().map(|s| s.iterations).collect();
        assert!(
            iters.iter().skip(1).step_by(2).all(|&i| i == 1),
            "{iters:?}"
        );
        assert!(iters.iter().step_by(2).all(|&i| i > 3), "{iters:?}");
        assert!(batch(&mut ws, &b, &failing).0.is_err());
        assert_eq!(
            batch(&mut ws, &c, &c_ok),
            batch(&mut SpmmWorkspace::default(), &c, &c_ok)
        );
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    /// Lane `k` as an owned vector (tests only; production callers reuse a
    /// buffer through [`SpmmWorkspace::copy_lane_into`]).
    fn lane_of(ws: &SpmmWorkspace, k: usize, vl: usize) -> Vec<f64> {
        let mut out = vec![0.0; ws.x.len() / vl];
        ws.copy_lane_into(k, vl, &mut out);
        out
    }

    /// The run list an unindexed batch left in `ws`.
    fn own(ws: &SpmmWorkspace) -> RunRows<'_> {
        RunRows {
            row: &ws.run_row,
            nbr: &ws.run_nbr,
        }
    }

    #[test]
    fn batch_matches_per_window_spmv() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..8)
            .map(|k| TimeRange::new(k * 40, k * 40 + 120))
            .collect();
        let inits = vec![Init::Uniform; 8];
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        for (k, r) in ranges.iter().enumerate() {
            let (expect, es) =
                pagerank_window_vec(&t, &t, *r, Init::Uniform, &cfg(), None).unwrap();
            let got = lane_of(&ws, k, 8);
            assert_close(&got, &expect, 1e-9);
            assert_eq!(stats[k].active_vertices, es.active_vertices, "lane {k}");
        }
    }

    #[test]
    fn batch_parallel_matches_sequential() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..16)
            .map(|k| TimeRange::new(k * 20, k * 20 + 90))
            .collect();
        let inits = vec![Init::Uniform; 16];
        let mut seq = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut seq).unwrap();
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 4);
            let mut par = SpmmWorkspace::default();
            pagerank_batch(&t, &t, &ranges, &inits, &cfg(), Some(&s), &mut par).unwrap();
            for k in 0..16 {
                assert_close(&lane_of(&seq, k, 16), &lane_of(&par, k, 16), 1e-9);
            }
        }
    }

    #[test]
    fn empty_lane_is_all_zero_and_converged() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = vec![TimeRange::new(0, 100), TimeRange::new(5000, 6000)];
        let inits = vec![Init::Uniform; 2];
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        assert_eq!(stats[1].active_vertices, 0);
        assert!(stats[1].converged);
        assert!(lane_of(&ws, 1, 2).iter().all(|&x| x == 0.0));
        // Lane 0 unaffected by the dead lane.
        let (expect, _) =
            pagerank_window_vec(&t, &t, ranges[0], Init::Uniform, &cfg(), None).unwrap();
        assert_close(&lane_of(&ws, 0, 2), &expect, 1e-9);
    }

    #[test]
    fn partial_init_lane_matches_spmv_partial() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let r0 = TimeRange::new(0, 150);
        let r1 = TimeRange::new(50, 200);
        let (prev, _) = pagerank_window_vec(&t, &t, r0, Init::Uniform, &cfg(), None).unwrap();
        let ranges = vec![r1];
        let inits = vec![Init::Partial(&prev)];
        let mut ws = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        let (expect, _) =
            pagerank_window_vec(&t, &t, r1, Init::Partial(&prev), &cfg(), None).unwrap();
        assert_close(&lane_of(&ws, 0, 1), &expect, 1e-9);
    }

    #[test]
    fn per_lane_iteration_counts_are_tracked() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        // One trivial lane (tiny graph converges fast) and one full lane.
        let ranges = vec![TimeRange::new(0, 3), TimeRange::new(0, 360)];
        let inits = vec![Init::Uniform; 2];
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        assert!(stats[0].converged && stats[1].converged);
        assert!(stats[0].iterations <= stats[1].iterations);
    }

    #[test]
    fn lanes_sum_to_one_each() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..4)
            .map(|k| TimeRange::new(k * 50, k * 50 + 150))
            .collect();
        let inits = vec![Init::Uniform; 4];
        let mut ws = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        for k in 0..4 {
            let s: f64 = lane_of(&ws, k, 4).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "lane {k} sums to {s}");
        }
    }

    #[test]
    fn indexed_batch_is_bit_identical() {
        use tempopr_graph::WindowIndex;
        let events = sample_events();
        let ranges: Vec<TimeRange> = (0..8)
            .map(|k| TimeRange::new(k * 40, k * 40 + 120))
            .collect();
        let inits = vec![Init::Uniform; 8];
        let t = TemporalCsr::from_events(25, &events);
        let idx = WindowIndex::build(&t, &ranges);
        let views: Vec<_> = (0..8).map(|j| idx.view(j)).collect();
        let mut plain = SpmmWorkspace::default();
        let ps = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut plain).unwrap();
        let mut ixd = SpmmWorkspace::default();
        let is = pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), None, &mut ixd).unwrap();
        assert_eq!(ps, is);
        assert_eq!(plain.x, ixd.x, "ranks must be bit-identical");
        // The indexed batch walks the index's run list in place: its lane
        // masks, with the empty ones of runs no lane holds dropped, are the
        // unindexed batch's, run for run.
        assert!(ixd.run_row.is_empty() && ixd.run_nbr.is_empty());
        let runs = idx.live_runs();
        let kept: Vec<(VertexId, u64)> = (0..25)
            .flat_map(|v| runs.row[v]..runs.row[v + 1])
            .map(|i| (runs.nbr[i], ixd.run_mask[i]))
            .filter(|&(_, m)| m != 0)
            .collect();
        let want: Vec<(VertexId, u64)> = plain
            .run_nbr
            .iter()
            .copied()
            .zip(plain.run_mask.iter().copied())
            .collect();
        assert_eq!(kept, want);
        // With a scheduler.
        let s = Scheduler::new(Partitioner::Simple, 3);
        let mut splain = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), Some(&s), &mut splain).unwrap();
        let mut sixd = SpmmWorkspace::default();
        pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), Some(&s), &mut sixd).unwrap();
        assert_eq!(
            splain.x, sixd.x,
            "ranks must be bit-identical under a scheduler"
        );
    }

    #[test]
    fn indexed_batch_copies_its_runs_where_the_index_holds_many_it_does_not() {
        use tempopr_graph::WindowIndex;
        // Eight disjoint windows: all of them, or seven, hold most of the
        // index's runs and walk it in place; every other one (the engine's
        // region batches) holds about half and copies out its own. Few
        // events per vertex pair, so most runs live in one window.
        let mut seed = 3u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let events: Vec<Event> = (0..150)
            .map(|_| Event::new(next(25) as u32, next(25) as u32, next(360) as i64))
            .filter(|e| e.u != e.v)
            .collect();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..8)
            .map(|k| TimeRange::new(k * 45, k * 45 + 44))
            .collect();
        let idx = WindowIndex::build(&t, &ranges);
        let total = idx.live_runs().nbr.len();
        for lanes in [
            (0..8).collect::<Vec<_>>(),
            (0..7).collect(),
            vec![0, 2, 4, 6],
            vec![7, 5, 3, 1],
        ] {
            let views: Vec<_> = lanes.iter().map(|&j| idx.view(j)).collect();
            let lane_ranges: Vec<_> = lanes.iter().map(|&j| ranges[j]).collect();
            let inits = vec![Init::Uniform; lanes.len()];
            let mut plain = SpmmWorkspace::default();
            let ps =
                pagerank_batch(&t, &t, &lane_ranges, &inits, &cfg(), None, &mut plain).unwrap();
            let mut ixd = SpmmWorkspace::default();
            let is =
                pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), None, &mut ixd).unwrap();
            assert_eq!(ps, is, "lanes {lanes:?}");
            assert_eq!(
                plain.x, ixd.x,
                "lanes {lanes:?}: ranks must be bit-identical"
            );
            let empty = total - plain.run_nbr.len();
            let copies = empty * EMPTY_RUN_SHARE >= total;
            assert_eq!(
                copies,
                lanes.len() == 4,
                "lanes {lanes:?}: {empty} of {total}"
            );
            if copies {
                // The held runs alone, as the unindexed batch keeps them.
                assert_eq!(ixd.run_row, plain.run_row, "lanes {lanes:?}");
                assert_eq!(ixd.run_nbr, plain.run_nbr, "lanes {lanes:?}");
                assert_eq!(ixd.run_mask, plain.run_mask, "lanes {lanes:?}");
            } else {
                assert!(ixd.run_row.is_empty() && ixd.run_nbr.is_empty());
                assert_eq!(ixd.run_mask.len(), total);
            }
        }
    }

    #[test]
    fn indexed_batch_is_bit_identical_on_unordered_ranges() {
        use tempopr_graph::WindowIndex;
        // Neither ascending nor consistently nested, as a public caller may
        // hand them: lanes take any subset of the index's windows in any
        // order.
        let ranges = [
            TimeRange::new(700, 720),
            TimeRange::new(0, 10),
            TimeRange::new(300, 305),
            TimeRange::new(100, 900),
            TimeRange::new(500, 501),
        ];
        let mut seed = 7u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let events: Vec<Event> = (0..400)
            .map(|_| Event::new(next(20) as u32, next(20) as u32, next(1000) as i64))
            .filter(|e| e.u != e.v)
            .collect();
        let t = TemporalCsr::from_events(20, &events);
        let idx = WindowIndex::build(&t, &ranges);
        for lanes in [vec![0, 1, 2, 3, 4], vec![3, 1, 4], vec![4, 0]] {
            let views: Vec<_> = lanes.iter().map(|&j| idx.view(j)).collect();
            let lane_ranges: Vec<_> = lanes.iter().map(|&j| ranges[j]).collect();
            let inits = vec![Init::Uniform; lanes.len()];
            let mut plain = SpmmWorkspace::default();
            let ps =
                pagerank_batch(&t, &t, &lane_ranges, &inits, &cfg(), None, &mut plain).unwrap();
            let mut ixd = SpmmWorkspace::default();
            let is =
                pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), None, &mut ixd).unwrap();
            let what = format!("lanes={lanes:?}");
            assert_eq!(ps, is, "{what}");
            assert_eq!(plain.x, ixd.x, "{what}: ranks must be bit-identical");
            for (k, &j) in lanes.iter().enumerate() {
                let (expect, _) =
                    pagerank_window_vec(&t, &t, ranges[j], Init::Uniform, &cfg(), None).unwrap();
                assert_close(&lane_of(&ixd, k, lanes.len()), &expect, 1e-9);
            }
        }
    }

    #[test]
    fn foreign_index_views_are_refused() {
        use tempopr_graph::WindowIndex;
        let t = TemporalCsr::from_events(25, &sample_events());
        let small = TemporalCsr::from_events(5, &[Event::new(0, 1, 3)]);
        let ranges = [TimeRange::new(0, 100), TimeRange::new(50, 200)];
        let (a, b) = (
            WindowIndex::build(&t, &ranges),
            WindowIndex::build(&t, &ranges),
        );
        let inits = vec![Init::Uniform; 2];
        let mut ws = SpmmWorkspace::default();
        let mixed = [a.view(0), b.view(1)];
        let err = pagerank_batch_indexed(&t, &t, &mixed, &inits, &cfg(), None, &mut ws);
        assert_eq!(err.unwrap_err(), KernelError::ForeignIndexViews);
        let other = WindowIndex::build(&small, &ranges);
        let views = [other.view(0), other.view(1)];
        let err = pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), None, &mut ws);
        assert_eq!(err.unwrap_err(), KernelError::ForeignIndexViews);
    }

    #[test]
    fn too_many_lanes_rejected() {
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 0)]);
        let ranges = vec![TimeRange::new(0, 1); 65];
        let inits = vec![Init::Uniform; 65];
        let mut ws = SpmmWorkspace::default();
        let err = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap_err();
        assert_eq!(err, KernelError::BadLaneCount { got: 65 });
        let inits1 = vec![Init::Uniform; 2];
        let ranges1 = vec![TimeRange::new(0, 1); 3];
        let err = pagerank_batch(&t, &t, &ranges1, &inits1, &cfg(), None, &mut ws).unwrap_err();
        assert_eq!(err, KernelError::LaneMismatch { lanes: 3, args: 2 });
    }

    #[test]
    fn lane_fault_recovery_is_isolated() {
        // A NaN injected into lane 0 restarts only that lane; lane 1 must
        // converge to the same ranks as a clean run. The graph must be
        // degree-skewed: on a regular symmetric graph uniform init is the
        // exact fixed point and lane 0 would converge before the injection
        // at iteration 3 ever fires.
        let mut events = Vec::new();
        for i in 1..20u32 {
            events.push(Event::new(0, i, (i * 15) as i64));
            events.push(Event::new(i, (i % 7) + 1, (i * 14) as i64));
        }
        let t = TemporalCsr::from_events(20, &events);
        let ranges = vec![TimeRange::new(0, 150), TimeRange::new(100, 300)];
        let inits = vec![Init::Uniform; 2];
        let c = PrConfig {
            fault: Some(crate::FaultKind::InjectNan { at_iter: 3 }),
            ..cfg()
        };
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &c, None, &mut ws).unwrap();
        assert_eq!(stats[0].health.restarts, 1);
        assert!(stats[1].health.is_clean());
        assert!(stats[0].converged && stats[1].converged);
        for (k, &range) in ranges.iter().enumerate() {
            let (expect, _) =
                pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
            for (v, (a, b)) in expect.iter().zip(lane_of(&ws, k, 2).iter()).enumerate() {
                assert!((a - b).abs() < 1e-9, "lane {k} vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batch_guards_do_not_change_healthy_ranks() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..8)
            .map(|k| TimeRange::new(k * 40, k * 40 + 120))
            .collect();
        let inits = vec![Init::Uniform; 8];
        let off = PrConfig {
            guard: crate::GuardConfig::off(),
            ..cfg()
        };
        let mut won = SpmmWorkspace::default();
        let son = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut won).unwrap();
        let mut woff = SpmmWorkspace::default();
        let soff = pagerank_batch(&t, &t, &ranges, &inits, &off, None, &mut woff).unwrap();
        assert_eq!(won.x, woff.x, "guards must be read-only observers");
        assert_eq!(son, soff);
    }

    #[test]
    fn max_lanes_64_supported() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges: Vec<TimeRange> = (0..64).map(|k| TimeRange::new(k * 5, k * 5 + 60)).collect();
        let inits = vec![Init::Uniform; 64];
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        assert_eq!(stats.len(), 64);
        let (expect, _) =
            pagerank_window_vec(&t, &t, ranges[63], Init::Uniform, &cfg(), None).unwrap();
        assert_close(&lane_of(&ws, 63, 64), &expect, 1e-9);
    }

    /// Staggered windows over the same origin: short lanes converge early,
    /// so dense full-mask runs dominate at first and compaction fires as
    /// the batch drains.
    fn staggered_ranges(vl: usize) -> Vec<TimeRange> {
        (0..vl as i64)
            .map(|k| TimeRange::new(0, 40 + k * 20))
            .collect()
    }

    #[test]
    fn simd_policies_and_compaction_are_bit_identical() {
        use crate::simd::SimdPolicy;
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = staggered_ranges(16);
        let inits = vec![Init::Uniform; 16];
        // Reference: the pre-vectorization kernel — mask walk, no
        // compaction.
        let base = PrConfig {
            simd: SimdPolicy::BitWalk,
            compaction: false,
            ..cfg()
        };
        let mut rws = SpmmWorkspace::default();
        let rstats = pagerank_batch(&t, &t, &ranges, &inits, &base, None, &mut rws).unwrap();
        for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let c = PrConfig {
                    simd,
                    compaction,
                    ..cfg()
                };
                let mut w = SpmmWorkspace::default();
                let s = pagerank_batch(&t, &t, &ranges, &inits, &c, None, &mut w).unwrap();
                assert_eq!(s, rstats, "{simd:?} compaction={compaction}");
                assert_eq!(
                    w.x, rws.x,
                    "{simd:?} compaction={compaction}: ranks must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn compaction_is_bit_identical_under_scheduler() {
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = staggered_ranges(16);
        let inits = vec![Init::Uniform; 16];
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 3);
            let off = PrConfig {
                compaction: false,
                ..cfg()
            };
            let mut woff = SpmmWorkspace::default();
            let soff = pagerank_batch(&t, &t, &ranges, &inits, &off, Some(&s), &mut woff).unwrap();
            let mut won = SpmmWorkspace::default();
            let son = pagerank_batch(&t, &t, &ranges, &inits, &cfg(), Some(&s), &mut won).unwrap();
            assert_eq!(son, soff, "{part:?}");
            assert_eq!(won.x, woff.x, "{part:?}: compaction must not change ranks");
        }
    }

    #[test]
    fn edge_balanced_scheduler_matches_sequential() {
        use crate::scheduler::Balance;
        // Degree-skewed graph: vertex 0 is a hub touching everyone.
        let mut events = Vec::new();
        for i in 1..30u32 {
            events.push(Event::new(0, i, (i * 3) as i64));
            events.push(Event::new(i, (i % 9) + 1, (i * 5) as i64));
        }
        let t = TemporalCsr::from_events(30, &events);
        let ranges: Vec<TimeRange> = (0..8).map(|k| TimeRange::new(k * 10, 150)).collect();
        let inits = vec![Init::Uniform; 8];
        let mut seq = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut seq).unwrap();
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 4).with_balance(Balance::Edge);
            let mut par = SpmmWorkspace::default();
            pagerank_batch(&t, &t, &ranges, &inits, &cfg(), Some(&s), &mut par).unwrap();
            for k in 0..8 {
                assert_close(&lane_of(&seq, k, 8), &lane_of(&par, k, 8), 1e-9);
            }
        }
    }

    #[test]
    fn fault_injection_targets_lane_zero_after_compaction() {
        // 12 trivially-converging lanes park at iteration 1 (16 -> 4
        // effective lanes); the NaN injected at iteration 3 must land on
        // original lane 0 — now at compact slot 0 of 4 — and restart only
        // that lane.
        let mut events = Vec::new();
        for i in 1..20u32 {
            events.push(Event::new(0, i, (i * 15) as i64));
            events.push(Event::new(i, (i % 7) + 1, (i * 14) as i64));
        }
        let t = TemporalCsr::from_events(20, &events);
        let mut ranges = vec![TimeRange::new(0, 150)];
        ranges.extend(std::iter::repeat_n(TimeRange::new(0, 15), 12));
        ranges.extend(std::iter::repeat_n(TimeRange::new(100, 300), 3));
        let inits = vec![Init::Uniform; 16];
        let c = PrConfig {
            fault: Some(crate::FaultKind::InjectNan { at_iter: 3 }),
            ..cfg()
        };
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &c, None, &mut ws).unwrap();
        assert_eq!(stats[0].health.restarts, 1);
        for (k, s) in stats.iter().enumerate().skip(1) {
            assert!(s.health.is_clean(), "lane {k} must be untouched");
        }
        assert!(stats.iter().all(|s| s.converged));
        let (expect, _) =
            pagerank_window_vec(&t, &t, ranges[0], Init::Uniform, &cfg(), None).unwrap();
        assert_close(&lane_of(&ws, 0, 16), &expect, 1e-9);
    }

    /// Three vertex-disjoint communities, one per time slice, each a
    /// degree-skewed hub-and-ring of a different size so the three windows
    /// converge at different rounds; vertex 0 belongs to the *last* slice,
    /// so the union's first row is inactive in lane 0.
    fn disjoint_community_events() -> (usize, Vec<Event>, Vec<TimeRange>) {
        let mut events = Vec::new();
        // Lane 0: vertices 1..=6, t in 0..100.
        for i in 2..=6u32 {
            events.push(Event::new(1, i, i as i64));
            events.push(Event::new(i, 2 + (i % 3), 10 + i as i64));
        }
        // Lane 1: vertices 7..=20, t in 100..200.
        for i in 8..=20u32 {
            events.push(Event::new(7, i, 100 + i as i64));
            events.push(Event::new(i, 8 + (i * 5) % 13, 130 + i as i64));
        }
        // Lane 2: vertices 0 and 21..=29, t in 200..300.
        for i in 21..=29u32 {
            events.push(Event::new(0, i, 200 + i as i64));
            events.push(Event::new(i, 21 + (i * 2) % 9, 230 + i as i64));
        }
        let ranges = vec![
            TimeRange::new(0, 100),
            TimeRange::new(100, 200),
            TimeRange::new(200, 300),
        ];
        (30, events, ranges)
    }

    #[test]
    fn faults_target_the_first_vertex_active_in_lane_zero() {
        // Vertex 0, the union's first row, is not active in lane 0: a fault
        // planted there would sit in a cell no round reads.
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let inits = vec![Init::Uniform; 3];
        let nan = PrConfig {
            fault: Some(crate::FaultKind::InjectNan { at_iter: 2 }),
            ..cfg()
        };
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &nan, None, &mut ws).unwrap();
        assert_eq!(stats[0].health.restarts, 1, "the injection must fire");
        assert!(stats[1].health.is_clean() && stats[2].health.is_clean());
        assert!(stats.iter().all(|s| s.converged));
        let (expect, _) =
            pagerank_window_vec(&t, &t, ranges[0], Init::Uniform, &cfg(), None).unwrap();
        assert_close(&lane_of(&ws, 0, 3), &expect, 1e-9);

        let corrupt = PrConfig {
            fault: Some(crate::FaultKind::CorruptReciprocal),
            ..cfg()
        };
        let err = pagerank_batch(&t, &t, &ranges, &inits, &corrupt, None, &mut ws).unwrap_err();
        assert!(
            matches!(
                err,
                KernelError::Numeric {
                    fault: crate::NumericFault::MassDrift { lane: 0, .. },
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// Which lane rule a fault-table batch runs under, and with it what
    /// lane 0 is: a window, a personalized query or a Katz query.
    #[derive(Debug, Clone, Copy)]
    enum FaultRule {
        Uniform,
        Affine { katz_first: bool },
    }

    /// One batch over `ranges` under `rule`: per-lane stats and rank bits.
    /// The affine batches put two queries on every window (lanes
    /// `2w`, `2w + 1`), a seeded personalized one and a Katz one.
    fn fault_batch(
        rule: FaultRule,
        t: &TemporalCsr,
        ranges: &[TimeRange],
        c: &PrConfig,
    ) -> Result<(Vec<PrStats>, Vec<Vec<u64>>), KernelError> {
        use crate::query::{
            pagerank_query_batch, QueryBatch, QueryInit, QuerySpec, QueryWorkspace,
        };
        let n = t.num_vertices();
        let lane_bits = |ws: &SpmmWorkspace, vl: usize| -> Vec<Vec<u64>> {
            (0..vl)
                .map(|k| lane_of(ws, k, vl).into_iter().map(f64::to_bits).collect())
                .collect()
        };
        match rule {
            FaultRule::Uniform => {
                let inits = vec![Init::Uniform; ranges.len()];
                let mut ws = SpmmWorkspace::default();
                let stats = pagerank_batch(t, t, ranges, &inits, c, None, &mut ws)?;
                Ok((stats, lane_bits(&ws, ranges.len())))
            }
            FaultRule::Affine { katz_first } => {
                // Mass on every community, so no lane falls back.
                let preference: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
                let mut specs = vec![
                    QuerySpec::Personalized {
                        preference: &preference,
                        alpha: 0.2,
                    },
                    QuerySpec::Katz {
                        alpha_fraction: 0.8,
                        beta: 1.0,
                        tol: 1e-12,
                    },
                ];
                if katz_first {
                    specs.swap(0, 1);
                }
                let batch = QueryBatch::new(specs).unwrap();
                let vl = 2 * ranges.len();
                let inits = vec![QueryInit::Fresh; vl];
                let mut ws = QueryWorkspace::default();
                let out = pagerank_query_batch(t, t, ranges, &batch, &inits, c, None, &mut ws)?;
                Ok((out.stats, lane_bits(&ws.base, vl)))
            }
        }
    }

    #[test]
    fn fault_hooks_hit_lane_zero_under_both_rules() {
        // Vertex 0 is the union's first row and is not active in lane 0,
        // whatever lane 0 is: every hook has to find the lane's own first
        // vertex. `moved` appends five empty windows, so at least half of
        // at least eight lanes are done after round 1 and compaction has
        // narrowed the stride — lane 0's cells sit elsewhere — before the
        // NaN of round 2 is planted.
        let (n, events, live_ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let fault = |fault| PrConfig {
            fault: Some(fault),
            ..cfg()
        };
        for rule in [
            FaultRule::Uniform,
            FaultRule::Affine { katz_first: false },
            FaultRule::Affine { katz_first: true },
        ] {
            for moved in [false, true] {
                let what = format!("{rule:?} moved={moved}");
                let mut ranges = live_ranges.clone();
                if moved {
                    ranges.extend((0..5).map(|i| TimeRange::new(1000 + i * 10, 1009 + i * 10)));
                }
                let (clean, clean_bits) = fault_batch(rule, &t, &ranges, &cfg()).unwrap();
                assert!(clean.iter().all(|s| s.converged && s.health.is_clean()));
                assert!(
                    clean[0].iterations > 2,
                    "{what}: lane 0 must outlast the fault"
                );

                let nan = fault(crate::FaultKind::InjectNan { at_iter: 2 });
                let (stats, bits) = fault_batch(rule, &t, &ranges, &nan).unwrap();
                assert_eq!(
                    stats[0].health.restarts, 1,
                    "{what}: the NaN must be noticed"
                );
                assert!(stats[0].converged, "{what}");
                for k in 1..stats.len() {
                    assert_eq!(stats[k], clean[k], "{what}: sibling lane {k}");
                    assert_eq!(bits[k], clean_bits[k], "{what}: sibling lane {k}");
                }
                for (v, (&a, &b)) in bits[0].iter().zip(&clean_bits[0]).enumerate() {
                    let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{what}: lane 0 vertex {v}: {a} vs {b}"
                    );
                }

                let force = fault(crate::FaultKind::ForceNonConvergence);
                let (stats, _) = fault_batch(rule, &t, &ranges, &force).unwrap();
                for (k, s) in stats.iter().enumerate() {
                    let empty = s.active_vertices == 0;
                    assert_eq!(s.converged, empty, "{what}: lane {k}");
                    let expect = if empty { 0 } else { cfg().max_iters };
                    assert_eq!(s.iterations, expect, "{what}: lane {k}");
                }

                let panic = fault(crate::FaultKind::PanicInKernel);
                let caught = std::panic::catch_unwind(|| fault_batch(rule, &t, &ranges, &panic));
                assert!(caught.is_err(), "{what}: the kernel must panic");
            }
        }
    }

    #[test]
    fn corrupt_reciprocal_hits_lane_zero_under_the_affine_rule() {
        // The query-axis half of `faults_target_the_first_vertex_active_in_
        // lane_zero`: the thousandfold reciprocal lands on a vertex lane 0
        // pulls from, so a personalized lane 0 gains mass and the guard
        // escalates; a Katz lane 0 has no conserved mass to drift, and its
        // siblings keep their bits.
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let corrupt = PrConfig {
            fault: Some(crate::FaultKind::CorruptReciprocal),
            ..cfg()
        };
        let rule = FaultRule::Affine { katz_first: false };
        let err = fault_batch(rule, &t, &ranges, &corrupt).unwrap_err();
        assert!(
            matches!(
                err,
                KernelError::Numeric {
                    fault: crate::NumericFault::MassDrift { lane: 0, .. },
                    ..
                }
            ),
            "{err:?}"
        );
        let rule = FaultRule::Affine { katz_first: true };
        let (clean, clean_bits) = fault_batch(rule, &t, &ranges, &cfg()).unwrap();
        let (stats, bits) = fault_batch(rule, &t, &ranges, &corrupt).unwrap();
        assert_ne!(bits[0], clean_bits[0], "the corruption must reach lane 0");
        for k in 1..stats.len() {
            assert_eq!(stats[k], clean[k], "sibling lane {k}");
            assert_eq!(bits[k], clean_bits[k], "sibling lane {k}");
        }
    }

    #[test]
    fn edge_balance_follows_the_live_rows_as_lanes_converge() {
        use crate::scheduler::Balance;
        use tempopr_graph::WindowIndex;
        // The three lanes converge at three different rounds, and each
        // takes its rows out of the live list as it goes; a weight prefix
        // left over from the full union would no longer tile the rows.
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let idx = WindowIndex::build(&t, &ranges);
        let views: Vec<_> = (0..3).map(|j| idx.view(j)).collect();
        let inits = vec![Init::Uniform; 3];
        let mut seq = SpmmWorkspace::default();
        let sstats =
            pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), None, &mut seq).unwrap();
        let mut rounds: Vec<usize> = sstats.iter().map(|s| s.iterations).collect();
        rounds.dedup();
        assert_eq!(rounds.len(), 3, "lanes must converge apart: {sstats:?}");
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            for g in [1, 2, 5] {
                let s = Scheduler::new(part, g).with_balance(Balance::Edge);
                let mut par = SpmmWorkspace::default();
                let pstats =
                    pagerank_batch_indexed(&t, &t, &views, &inits, &cfg(), Some(&s), &mut par)
                        .unwrap();
                // Rows are finalized alone; only the residual's grouping
                // moves, and it stays clear of the tolerance here.
                assert_eq!(pstats, sstats, "{part:?} g={g}");
                assert_eq!(par.x, seq.x, "{part:?} g={g}");
            }
        }
    }

    #[test]
    fn live_rows_track_the_live_lanes() {
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let inits = vec![Init::Uniform; 3];
        let mut ws = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &cfg(), None, &mut ws).unwrap();
        let runs_of = |rows: &[u32]| -> u64 {
            rows.iter()
                .map(|&v| (ws.run_row[v as usize + 1] - ws.run_row[v as usize]) as u64)
                .sum()
        };
        let s = Scheduler::new(Partitioner::Simple, 4);
        let mut live = LiveRows::default();
        live.rebuild(&ws, own(&ws), 0b111, 3, true, Some(&s));
        assert_eq!(live.rows, ws.active_list);
        assert_eq!(live.edges, ws.run_nbr.len() as u64);
        assert_eq!(live.chunks, s.row_chunks(30));
        // Lane 1 alone: vertices 7..=20 and nothing else.
        live.rebuild(&ws, own(&ws), 0b010, 3, true, Some(&s));
        assert_eq!(live.rows, (7..=20).collect::<Vec<u32>>());
        assert_eq!(live.edges, runs_of(&live.rows));
        assert_eq!(live.chunks, s.row_chunks(14));
        let edge = s.with_balance(crate::scheduler::Balance::Edge);
        live.rebuild(&ws, own(&ws), 0b101, 3, true, Some(&edge));
        assert_eq!(live.rows.len(), 16);
        assert_eq!(live.chunks.len(), s.row_chunks(16).len());
        assert_eq!(live.chunks.last().map(|c| c.end), Some(16));
        live.rebuild(&ws, own(&ws), 0b101, 3, true, None);
        assert!(live.chunks.is_empty());
    }

    #[test]
    fn the_row_walk_follows_the_density_of_live_cells() {
        // Disjoint lanes, so every run is live in exactly one of them:
        // `cells == runs`, and the rule `cells * 8 >= runs * vl` holds up to
        // a stride of 8 lanes and fails above it.
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let mut ws = SpmmWorkspace::default();
        let idx = tempopr_graph::WindowIndex::build(&t, &ranges);
        let views: Vec<_> = (0..3).map(|j| idx.view(j)).collect();
        lanes_from_views(&views, 1, n, true, &mut ws).unwrap();
        ws.active_list = (0..n as u32).collect();
        ws.active_mask = vec![0b111; n];
        let mut live = LiveRows::default();
        for (vl, vector) in [(3, true), (8, true), (9, false), (16, false)] {
            live.rebuild(&ws, own(&ws), 0b111, vl, true, None);
            assert_eq!(live.cells, live.edges);
            assert_eq!(live.vector, vector, "vl={vl}");
            live.rebuild(&ws, own(&ws), 0b111, vl, false, None);
            assert!(!live.vector, "BitWalk pins the bit walk, vl={vl}");
        }
        // Cells are counted under `live`: with lane 1 converged its runs
        // stay in the rows' ranges but hold no live cell.
        live.rebuild(&ws, own(&ws), 0b101, 3, true, None);
        assert_eq!(live.edges, ws.run_nbr.len() as u64);
        let lane1 = ws.run_mask.iter().filter(|&&m| m == 0b010).count() as u64;
        assert!(lane1 > 0);
        assert_eq!(live.cells, live.edges - lane1);
    }

    #[test]
    fn observed_edges_per_round_shrink_with_the_live_rows() {
        use crate::observe::KernelObserver;
        use std::sync::Mutex;
        #[derive(Default)]
        struct Rounds(Mutex<Vec<(u32, u64)>>);
        impl KernelObserver for Rounds {
            fn on_batch_round(
                &self,
                _it: u32,
                live: u32,
                _total: u32,
                edges: u64,
                _s: u64,
                _c: u64,
            ) {
                self.0.lock().unwrap().push((live, edges));
            }
        }
        let (n, events, ranges) = disjoint_community_events();
        let t = TemporalCsr::from_events(n, &events);
        let inits = vec![Init::Uniform; 3];
        let rec = Rounds::default();
        let mut ws = SpmmWorkspace::default();
        let index = WindowIndex::build(&t, &ranges);
        let views: Vec<_> = (0..ranges.len()).map(|j| index.view(j)).collect();
        pagerank_batch_indexed_obs(
            &t,
            &t,
            &views,
            &inits,
            &cfg(),
            None,
            &mut ws,
            BatchObs::new(&rec, &[]),
        )
        .unwrap();
        let rounds = rec.0.lock().unwrap().clone();
        // Disjoint lanes: a round walks exactly the runs of its live lanes.
        let lane_runs: Vec<u64> = (0..3)
            .map(|k| ws.run_mask.iter().filter(|&&m| m & (1 << k) != 0).count() as u64)
            .collect();
        assert_eq!(rounds[0], (3, lane_runs.iter().sum::<u64>()));
        let mut per_live: Vec<(u32, u64)> = rounds.clone();
        per_live.dedup();
        assert_eq!(per_live.len(), 3, "three live-lane counts: {rounds:?}");
        for pair in per_live.windows(2) {
            assert!(pair[1].0 < pair[0].0 && pair[1].1 < pair[0].1, "{rounds:?}");
        }
        assert!(lane_runs.contains(&per_live[2].1), "{rounds:?}");
    }

    #[test]
    fn lanes_walks_set_bits_ascending() {
        assert_eq!(lanes(0).count(), 0);
        assert_eq!(lanes(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(
            lanes(u64::MAX).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
        assert_eq!(lanes(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn dispatch_and_compaction_are_observed() {
        use crate::observe::KernelObserver;
        use std::sync::Mutex;
        #[derive(Default)]
        struct Rec {
            dispatches: Mutex<Vec<(&'static str, u32)>>,
            compactions: Mutex<Vec<(u32, u32, u64)>>,
        }
        impl KernelObserver for Rec {
            fn on_batch_dispatch(&self, isa: &'static str, lanes: u32) {
                self.dispatches.lock().unwrap().push((isa, lanes));
            }
            fn on_batch_compaction(&self, from: u32, to: u32, rows: u64) {
                self.compactions.lock().unwrap().push((from, to, rows));
            }
        }
        let events = sample_events();
        let t = TemporalCsr::from_events(25, &events);
        let ranges = staggered_ranges(16);
        let inits = vec![Init::Uniform; 16];
        let rec = Rec::default();
        let mut ws = SpmmWorkspace::default();
        let index = WindowIndex::build(&t, &ranges);
        let views: Vec<_> = (0..ranges.len()).map(|j| index.view(j)).collect();
        pagerank_batch_indexed_obs(
            &t,
            &t,
            &views,
            &inits,
            &cfg(),
            None,
            &mut ws,
            BatchObs::new(&rec, &[]),
        )
        .unwrap();
        let dispatches = rec.dispatches.lock().unwrap().clone();
        assert_eq!(dispatches.len(), 1);
        assert_eq!(dispatches[0].1, 16);
        assert!(["avx2", "scalar", "bitwalk"].contains(&dispatches[0].0));
        let compactions = rec.compactions.lock().unwrap().clone();
        assert!(
            !compactions.is_empty(),
            "staggered convergence must trigger at least one compaction"
        );
        for &(from, to, rows) in &compactions {
            assert!(to < from, "compaction must shrink: {from} -> {to}");
            assert!(to as usize <= from as usize / 2);
            // Compaction walks the batch's active rows, not all 25.
            assert_eq!(rows, ws.active_list.len() as u64);
        }
    }

    #[test]
    fn compress_bits_compacts_kept_positions() {
        assert_eq!(compress_bits(0b1001_0101, &[0, 2, 4, 5, 7]), 0b10111);
        assert_eq!(compress_bits(u64::MAX, &[63]), 1);
        assert_eq!(compress_bits(0, &[1, 2, 3]), 0);
    }
}
