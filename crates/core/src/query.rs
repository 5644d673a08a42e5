//! Engine-level (window × query) batch runs.
//!
//! [`tempopr_kernel::pagerank_query_batch_indexed`] amortizes one traversal
//! of a part's temporal CSR across up to [`MAX_LANES`] (window, query)
//! lanes. This module is the driver above it: it walks the multi-window
//! parts in order, remaps each personalized preference from the global
//! vertex space into every part's local numbering, builds the query batch,
//! and lays its lanes out over the engine's region walk — one chain per
//! query in every window slot, which chains per-query warm starts within a
//! part. Every batch reads the part's cached window index, the one the
//! window walk builds.
//!
//! The batched results are the single-query kernels' results: the kernel
//! guarantees bit-identity per lane (see `crates/kernel/src/query.rs` and
//! the differential suites `tests/prop_query_batch.rs` /
//! `tests/query_batch_edge_cases.rs`), and this driver only adds routing.

use crate::config::{KernelKind, RetainMode};
use crate::engine::{LaneBuf, PostmortemEngine};
use crate::error::{EngineError, Phase};
use crate::observe::TelemetryKernelBridge;
use crate::result::{SparseRanks, WindowRanks};
use tempopr_kernel::{
    pagerank_query_batch_indexed, BatchObs, KernelError, KernelObserver, PrStats, QueryBatch,
    QueryInit, QuerySpec, QueryWorkspace, MAX_LANES,
};

/// One query to evaluate on every window of the run, in the *global*
/// vertex space (the engine remaps it into each part's local numbering).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineQuery {
    /// Personalized PageRank: teleport to `preference` (non-negative,
    /// any scale, length = global vertex count) with damping `1 − alpha`.
    Personalized {
        /// Preference weighting over the global vertex space.
        preference: Vec<f64>,
        /// Teleport probability, in `[0, 1]`.
        alpha: f64,
    },
    /// Katz centrality `x = beta + alpha·Aᵀx` with per-window
    /// `alpha = alpha_fraction / (max_active_degree + 1)`.
    Katz {
        /// Fraction of the convergence bound `1/(max_deg + 1)`, in `(0, 1)`.
        alpha_fraction: f64,
        /// Baseline score of every active vertex.
        beta: f64,
        /// L∞ convergence tolerance.
        tol: f64,
    },
}

impl EngineQuery {
    /// A single-vertex personalized seed: all preference mass on `seed`.
    pub fn seeded(seed: u32, num_vertices: usize, alpha: f64) -> Self {
        let mut preference = vec![0.0; num_vertices];
        if let Some(p) = preference.get_mut(seed as usize) {
            *p = 1.0;
        }
        EngineQuery::Personalized { preference, alpha }
    }
}

/// One (window, query) cell of a batched query run.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Global window index.
    pub window: usize,
    /// Index into the `queries` slice passed to
    /// [`PostmortemEngine::run_queries`].
    pub query: usize,
    /// Kernel iteration statistics for this lane.
    pub stats: PrStats,
    /// Did a personalized query fall back to the uniform teleport because
    /// its preference had no mass on this window's active set? (Always
    /// `false` for Katz queries.)
    pub uniform_fallback: bool,
    /// The effective Katz attenuation (0 for personalized queries and
    /// empty windows).
    pub katz_alpha: f64,
    /// Order-independent fingerprint of the global-space rank vector —
    /// the bit-identity currency of the differential tests.
    pub fingerprint: f64,
    /// Global-space ranks (`None` under [`RetainMode::Summary`]).
    pub ranks: Option<SparseRanks>,
}

/// What [`PostmortemEngine::run_queries`] produced: one [`QueryOutput`]
/// per (window, query) cell, sorted by `(window, query)`.
#[derive(Debug, Clone, Default)]
pub struct QueryRunOutput {
    /// All cells, sorted by `(window, query)`.
    pub outputs: Vec<QueryOutput>,
    /// Lanes retired early by converged-query compaction, summed over
    /// every batched kernel call.
    pub lanes_retired: usize,
    /// Iterations saved by per-lane convergence masking versus running
    /// every lane to its batch's slowest lane.
    pub iterations_saved: u64,
}

impl QueryRunOutput {
    /// The cell for `(window, query)`, if present.
    pub fn get(&self, window: usize, query: usize) -> Option<&QueryOutput> {
        self.outputs
            .binary_search_by_key(&(window, query), |o| (o.window, o.query))
            .ok()
            .map(|i| &self.outputs[i])
    }

    /// Total kernel iterations across all cells.
    pub fn total_iterations(&self) -> usize {
        self.outputs.iter().map(|o| o.stats.iterations).sum()
    }

    /// Whether every cell converged.
    pub fn all_converged(&self) -> bool {
        self.outputs.iter().all(|o| o.stats.converged)
    }
}

impl PostmortemEngine {
    /// Evaluates every query on every window with the (window × query)
    /// batched kernel, sharing one traversal of each part's temporal CSR
    /// across all lanes of a batch.
    ///
    /// Planning: the lane budget (the SpMM `lanes` setting, or
    /// [`MAX_LANES`] under other kernels) is split into `⌊budget/nq⌋`
    /// window slots × `nq` queries; query lists wider than the budget are
    /// chunked. Under [`crate::InitMode::Full`] on windows that share no
    /// events (the engine's measured overlap), with a kernel that runs
    /// unthreaded, the budget is first cut to `max(AUTO_LANES, nq)`, so a
    /// batch holds one window's queries instead of lanes that share no
    /// edge. Window slots follow the same region scheduling as the
    /// window-only SpMM walk, so under [`crate::InitMode::Partial`] each
    /// query chains its own warm starts inside a part. Parts are always
    /// walked in order ([`crate::ParallelMode`] only selects the *inner*
    /// scheduler). Every batch reads the part's cached window index, the
    /// one the window walk builds.
    ///
    /// Unlike [`PostmortemEngine::run`] there is no per-window recovery
    /// ladder: a kernel error aborts the run with the failing window and
    /// part attached, and a non-converged lane is reported in its
    /// [`QueryOutput::stats`] (it simply breaks that query's warm chain).
    ///
    /// Telemetry: `query.batches` (kernel calls), `query.batched` (lanes
    /// computed), `query.retired` (lanes compaction retired early),
    /// `query.iterations_saved`, the gauge `plan.query_slots` (window
    /// slots of the widest batch), and the kernel's compaction counters
    /// (`spmm.compactions`, `spmm.lanes_compacted`, and
    /// `spmm.compaction_rows`, the rows compaction walked).
    ///
    /// Every output is read off its window's active vertices: the lane's
    /// cells there, its fingerprint and its sparse ranks cost what the
    /// window holds, not the part's vertex range.
    pub fn run_queries(&self, queries: &[EngineQuery]) -> Result<QueryRunOutput, EngineError> {
        if queries.is_empty() {
            return Err(EngineError::kernel(
                None,
                None,
                Phase::Setup,
                KernelError::EmptyBatch,
            ));
        }
        let n_global = self.num_global_vertices();
        for (index, q) in queries.iter().enumerate() {
            if let EngineQuery::Personalized { preference, .. } = q {
                let what = if preference.len() != n_global {
                    "preference length must equal the global vertex count"
                } else if preference.iter().any(|p| !p.is_finite() || *p < 0.0) {
                    "preference entries must be finite and non-negative"
                } else {
                    continue;
                };
                let bad = KernelError::BadQuery { index, what };
                return Err(EngineError::kernel(None, None, Phase::Setup, bad));
            }
        }
        match self.pool() {
            Some(p) => p.install(|| self.run_queries_inner(queries)),
            None => self.run_queries_inner(queries),
        }
    }

    fn run_queries_inner(&self, queries: &[EngineQuery]) -> Result<QueryRunOutput, EngineError> {
        let cfg = self.config();
        let budget = match cfg.kernel {
            KernelKind::SpMM { lanes } => lanes.clamp(1, MAX_LANES),
            _ => MAX_LANES,
        };
        let inner = self.inner_scheduler();
        // The widest query batch's window slots (`plan.query_slots`).
        let mut slots = 0;
        let mut out = QueryRunOutput::default();
        let mut ws = QueryWorkspace::default();
        let mut lane_buf = LaneBuf::default();
        let bridge = TelemetryKernelBridge::new(self.telemetry(), 1);
        let compactions = Compactions(&bridge);
        let obs = if self.telemetry().is_enabled() {
            BatchObs::new(&compactions, &[])
        } else {
            BatchObs::off()
        };
        for p in 0..self.num_parts() {
            let fetched = self.part(p)?;
            let part = &*fetched;
            let (w0, vmap) = (part.windows().start, part.vertex_map());
            // Query chunks of at most `budget` queries per kernel call.
            for (c, qs) in queries.chunks(budget).enumerate() {
                let q0 = c * budget;
                // Personalized preferences in this part's local vertex
                // space; Katz queries carry no vector.
                let local: Vec<Vec<f64>> = qs
                    .iter()
                    .map(|q| match q {
                        EngineQuery::Personalized { preference, .. } => {
                            vmap.iter().map(|&g| preference[g as usize]).collect()
                        }
                        EngineQuery::Katz { .. } => Vec::new(),
                    })
                    .collect();
                let specs = qs.iter().zip(&local).map(|(q, preference)| match *q {
                    EngineQuery::Personalized { alpha, .. } => {
                        QuerySpec::Personalized { preference, alpha }
                    }
                    EngineQuery::Katz {
                        alpha_fraction,
                        beta,
                        tol,
                    } => QuerySpec::Katz {
                        alpha_fraction,
                        beta,
                        tol,
                    },
                });
                let batch = QueryBatch::new(specs.collect())
                    .map_err(|e| EngineError::kernel(None, Some(p), Phase::Setup, e))?;
                // One chain per query in every window slot.
                let mut regions = self.regions(budget, qs.len(), part.num_windows());
                slots = slots.max(regions.slots());
                for j in 0..regions.batches() {
                    let wslots: Vec<usize> = regions.batch(j).collect();
                    // Lane k = w·nq + q: (window slot, query) pairs in
                    // kernel lane order.
                    let lanes: Vec<(usize, usize)> = wslots
                        .iter()
                        .flat_map(|&lw| (0..qs.len()).map(move |i| (lw, i)))
                        .collect();
                    let inits: Vec<QueryInit<'_>> = lanes
                        .iter()
                        .map(|&(lw, i)| {
                            regions
                                .seed(lw, i)
                                .map_or(QueryInit::Fresh, QueryInit::Warm)
                        })
                        .collect();
                    let (t, index) = (part.tcsr(), part.window_index());
                    let views: Vec<_> = wslots.iter().map(|&lw| index.view(lw)).collect();
                    let res = pagerank_query_batch_indexed(
                        t, t, &views, &batch, &inits, &cfg.pr, inner, &mut ws, obs,
                    )
                    .map_err(|e| {
                        EngineError::kernel(Some(w0 + wslots[0]), Some(p), Phase::Iterate, e)
                    })?;
                    for (k, &(lw, i)) in lanes.iter().enumerate() {
                        let st = res.stats[k];
                        let active = views[k / qs.len()].vertices;
                        lane_buf.with_lane(&ws.base.x, k, lanes.len(), active, |ranks| {
                            let (fingerprint, sparse) =
                                WindowRanks::local(ranks, vmap, Some(active))
                                    .output(cfg.retain == RetainMode::Full);
                            out.outputs.push(QueryOutput {
                                window: w0 + lw,
                                query: q0 + i,
                                stats: st,
                                uniform_fallback: res.uniform_fallback[k],
                                katz_alpha: res.katz_alpha[k],
                                fingerprint,
                                ranks: sparse,
                            });
                            // A non-converged lane breaks its query's warm
                            // chain rather than poisoning the next window.
                            if st.converged || cfg.pr.max_iters == 0 {
                                regions.keep(lw, i, ranks);
                            } else {
                                regions.break_chain(lw, i);
                            }
                        });
                    }
                    self.telemetry().add("query.batches", 1);
                    self.telemetry().add("query.batched", lanes.len() as u64);
                    self.telemetry()
                        .add("query.retired", res.lanes_retired as u64);
                    self.telemetry()
                        .add("query.iterations_saved", res.iterations_saved);
                    out.lanes_retired += res.lanes_retired;
                    out.iterations_saved += res.iterations_saved;
                }
            }
        }
        self.telemetry().set_gauge("plan.query_slots", slots as f64);
        out.outputs.sort_by_key(|o| (o.window, o.query));
        Ok(out)
    }
}

/// The one observation a query batch reports: its compactions (the
/// `spmm.compactions`, `spmm.lanes_compacted` and `spmm.compaction_rows`
/// counters). The rest of the bridge stays off the query walk, whose lanes
/// are (window, query) cells rather than windows.
struct Compactions<'a>(&'a TelemetryKernelBridge<'a>);

impl KernelObserver for Compactions<'_> {
    fn on_batch_compaction(&self, from_lanes: u32, to_lanes: u32, rows: u64) {
        self.0.on_batch_compaction(from_lanes, to_lanes, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor;
    use crate::config::{InitMode, ParallelMode, PostmortemConfig};
    use crate::result::rank_fingerprint;
    use tempopr_graph::{Event, EventLog, WindowSpec};
    use tempopr_kernel::{pagerank_window_personalized, PrConfig, PrWorkspace};
    use tempopr_telemetry::Telemetry;

    fn sample_log(n: u32, events: usize) -> EventLog {
        let evs: Vec<Event> = (0..events as u32)
            .map(|i| Event::new((i * 13 + 2) % n, (i * 7 + 5) % n, (i * 3) as i64))
            .filter(|e| e.u != e.v)
            .collect();
        EventLog::from_unsorted(evs, n as usize).unwrap()
    }

    fn tight() -> PrConfig {
        PrConfig {
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    fn sample_queries(n: usize) -> Vec<EngineQuery> {
        vec![
            EngineQuery::seeded(2, n, 0.15),
            EngineQuery::Personalized {
                preference: (0..n).map(|v| (v % 3) as f64).collect(),
                alpha: 0.25,
            },
            EngineQuery::Katz {
                alpha_fraction: 0.85,
                beta: 1.0,
                tol: 1e-12,
            },
        ]
    }

    #[test]
    fn covers_every_window_query_cell_in_order() {
        let log = sample_log(25, 120);
        let spec = WindowSpec::covering(&log, 100, 40).unwrap();
        let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
        let queries = sample_queries(25);
        let out = engine.run_queries(&queries).unwrap();
        assert_eq!(out.outputs.len(), spec.count * queries.len());
        let cells: Vec<(usize, usize)> = out.outputs.iter().map(|o| (o.window, o.query)).collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        assert_eq!(cells, sorted);
        assert!(out.all_converged());
        for w in 0..spec.count {
            for q in 0..queries.len() {
                let cell = out.get(w, q).unwrap();
                assert!(cell.fingerprint.is_finite());
                assert!(cell.ranks.is_some());
            }
        }
    }

    #[test]
    fn full_init_single_part_bit_matches_single_query_kernel() {
        let log = sample_log(25, 120);
        let spec = WindowSpec::covering(&log, 100, 40).unwrap();
        let cfg = PostmortemConfig {
            pr: tight(),
            init_mode: InitMode::Full,
            mode: ParallelMode::Sequential,
            num_multiwindows: 1,
            ..PostmortemConfig::default()
        };
        let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
        let queries = sample_queries(25);
        let out = engine.run_queries(&queries).unwrap();
        let fetched = engine.part(0).unwrap();
        let part = &*fetched;
        let vmap = part.vertex_map();
        let mut ws = PrWorkspace::default();
        for (q, query) in queries.iter().enumerate() {
            let EngineQuery::Personalized { preference, alpha } = query else {
                continue;
            };
            let local: Vec<f64> = vmap.iter().map(|&g| preference[g as usize]).collect();
            let pr = PrConfig {
                alpha: *alpha,
                ..tight()
            };
            for w in 0..spec.count {
                let ps = pagerank_window_personalized(
                    part.tcsr(),
                    part.tcsr(),
                    spec.window(w),
                    &local,
                    &pr,
                    None,
                    &mut ws,
                )
                .unwrap();
                let fp = rank_fingerprint(&ws.x, Some(vmap));
                let cell = out.get(w, q).unwrap();
                assert_eq!(
                    cell.fingerprint.to_bits(),
                    fp.to_bits(),
                    "window {w} query {q}: batched engine run must be bit-identical"
                );
                assert_eq!(cell.stats.iterations, ps.pr.iterations);
                assert_eq!(cell.uniform_fallback, ps.uniform_fallback);
            }
        }
    }

    #[test]
    fn batched_and_looped_runs_are_bit_identical_under_full_init() {
        // One `run_queries` call against one call per query, on a disjoint
        // log (batches of one region cut to `AUTO_LANES`) and an
        // overlapping one (the full 64-lane budget), in both orderings of
        // the kernel's reduction that are sequential.
        let log = sample_log(25, 160);
        let queries = sample_queries(25);
        let nq = queries.len();
        for (delta, sw, budget) in [(20, 40, advisor::AUTO_LANES), (100, 40, MAX_LANES)] {
            let spec = WindowSpec::covering(&log, delta, sw).unwrap();
            for mode in [ParallelMode::Sequential, ParallelMode::Nested] {
                let run = |qs: &[EngineQuery]| {
                    let cfg = PostmortemConfig {
                        kernel: KernelKind::SpMM { lanes: MAX_LANES },
                        init_mode: InitMode::Full,
                        mode,
                        threads: 1,
                        num_multiwindows: 1,
                        pr: tight(),
                        ..PostmortemConfig::default()
                    };
                    let tele = Telemetry::enabled();
                    let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone());
                    (engine.unwrap().run_queries(qs).unwrap(), tele.report())
                };
                let (batched, report) = run(&queries);
                let what = format!("delta {delta} sw {sw} {mode:?}");
                let slots = (budget / nq).min(spec.count);
                assert_eq!(
                    report.gauge("plan.query_slots"),
                    Some(slots as f64),
                    "{what}"
                );
                assert_eq!(
                    report.counter("query.batches"),
                    spec.count.div_ceil(slots) as u64,
                    "{what}"
                );
                assert_eq!(batched.outputs.len(), spec.count * nq, "{what}");
                for (q, query) in queries.iter().enumerate() {
                    let (looped, _) = run(std::slice::from_ref(query));
                    for (w, b) in looped.outputs.iter().enumerate() {
                        let a = batched.get(w, q).unwrap();
                        assert_eq!(a.window, b.window, "{what}");
                        assert_eq!(a.stats, b.stats, "{what} window {w}");
                        assert_eq!(a.uniform_fallback, b.uniform_fallback, "{what}");
                        assert_eq!(a.katz_alpha.to_bits(), b.katz_alpha.to_bits(), "{what}");
                        assert_eq!(a.fingerprint.to_bits(), b.fingerprint.to_bits(), "{what}");
                        assert_eq!(a.ranks, b.ranks, "{what} window {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_threaded_kernel_keeps_the_whole_lane_budget_on_disjoint_windows() {
        // Wide batches amortize a threaded kernel's per-row-loop dispatch,
        // so the disjoint log's budget is cut only where the kernel runs
        // unthreaded.
        let log = sample_log(25, 160);
        let spec = WindowSpec::covering(&log, 20, 40).unwrap();
        let queries = sample_queries(25);
        for (mode, threads, budget) in [
            (ParallelMode::Nested, 2, MAX_LANES),
            (ParallelMode::ApplicationLevel, 2, MAX_LANES),
            (ParallelMode::Sequential, 2, advisor::AUTO_LANES),
            (ParallelMode::Nested, 1, advisor::AUTO_LANES),
        ] {
            let cfg = PostmortemConfig {
                kernel: KernelKind::SpMM { lanes: MAX_LANES },
                init_mode: InitMode::Full,
                mode,
                threads,
                num_multiwindows: 1,
                ..PostmortemConfig::default()
            };
            let tele = Telemetry::enabled();
            let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone()).unwrap();
            engine.run_queries(&queries).unwrap();
            let slots = (budget / queries.len()).min(spec.count);
            assert_eq!(
                tele.report().gauge("plan.query_slots"),
                Some(slots as f64),
                "{mode:?} on {threads} threads"
            );
        }
    }

    #[test]
    fn empty_query_list_is_a_typed_error() {
        let log = sample_log(10, 40);
        let spec = WindowSpec::covering(&log, 60, 30).unwrap();
        let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
        let err = engine.run_queries(&[]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Kernel {
                source: KernelError::EmptyBatch,
                ..
            }
        ));
    }

    #[test]
    fn bad_preference_length_is_rejected_up_front() {
        let log = sample_log(10, 40);
        let spec = WindowSpec::covering(&log, 60, 30).unwrap();
        let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
        let err = engine
            .run_queries(&[EngineQuery::Personalized {
                preference: vec![1.0; 3],
                alpha: 0.15,
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Kernel {
                source: KernelError::BadQuery { index: 0, .. },
                ..
            }
        ));
    }

    #[test]
    fn summary_retention_drops_ranks_but_keeps_fingerprints() {
        let log = sample_log(12, 60);
        let spec = WindowSpec::covering(&log, 60, 30).unwrap();
        let cfg = PostmortemConfig {
            retain: RetainMode::Summary,
            ..PostmortemConfig::default()
        };
        let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
        let out = engine
            .run_queries(&[EngineQuery::seeded(1, 12, 0.15)])
            .unwrap();
        assert!(out.outputs.iter().all(|o| o.ranks.is_none()));
        assert!(out.outputs.iter().all(|o| o.fingerprint.is_finite()));
    }

    #[test]
    fn more_queries_than_lane_budget_are_chunked() {
        let log = sample_log(16, 80);
        let spec = WindowSpec::covering(&log, 60, 30).unwrap();
        let cfg = PostmortemConfig {
            kernel: KernelKind::SpMM { lanes: 4 },
            pr: tight(),
            init_mode: InitMode::Full,
            mode: ParallelMode::Sequential,
            ..PostmortemConfig::default()
        };
        let engine = PostmortemEngine::new(&log, spec, cfg).unwrap();
        let queries: Vec<EngineQuery> = (0..9u32)
            .map(|s| EngineQuery::seeded(s, 16, 0.15))
            .collect();
        let out = engine.run_queries(&queries).unwrap();
        assert_eq!(out.outputs.len(), spec.count * 9);
        assert!(out.all_converged());
        // Chunking must not change results: the same batch through the
        // default (wide) budget is bit-identical per cell (full init +
        // sequential scheduling, so every lane is self-contained).
        let wide = PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                pr: tight(),
                init_mode: InitMode::Full,
                mode: ParallelMode::Sequential,
                ..PostmortemConfig::default()
            },
        )
        .unwrap();
        let wide_out = wide.run_queries(&queries).unwrap();
        for (a, b) in out.outputs.iter().zip(wide_out.outputs.iter()) {
            assert_eq!(a.fingerprint.to_bits(), b.fingerprint.to_bits());
        }
    }
}
