//! PageRank over the streaming store, including the incremental
//! warm restart used by the streaming execution model (paper §3.3.2,
//! Eq. 2-3).
//!
//! STINGER's streaming PageRank [Riedy 2016] keeps the previous rank
//! vector and, after a batch of edge updates, solves for the *change* in
//! ranks instead of recomputing from scratch. Here that is
//! [`streaming_pagerank`] with a warm [`Init`] — power iteration started
//! from the previous vector (masked to the new active set) and iterated to
//! tolerance. The benefit is fewer iterations, exactly the effect the
//! Δ-system of Eq. 3 buys.

use crate::store::StreamingGraph;
use tempopr_kernel::{
    FaultKind, Init, KernelError, NumericFault, Obs, PrConfig, PrStats, PrWorkspace, Scheduler,
};

/// Computes PageRank on the current streaming graph.
///
/// Semantics match the rest of the workspace (active set, rank 0 for
/// inactive vertices, L1 convergence). The graph is symmetric, so there is
/// no dangling mass. Pass `Init::Provided(prev)` for the incremental
/// warm restart.
pub fn streaming_pagerank(
    g: &StreamingGraph,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
) -> Result<PrStats, KernelError> {
    streaming_pagerank_obs(g, init, cfg, sched, ws, Obs::off())
}

/// [`streaming_pagerank`] with an observation carrier: reports setup,
/// per-iteration residual/mass, and honors the same [`FaultKind`]
/// injection hooks as the static kernels so the driver's failure paths are
/// testable. The observer is read-only — the mass reduction only runs when
/// a sink is attached, and the computed ranks are bit-identical either way.
pub fn streaming_pagerank_obs(
    g: &StreamingGraph,
    init: Init<'_>,
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
    obs: Obs<'_>,
) -> Result<PrStats, KernelError> {
    let t_setup = obs.now();
    let n = g.num_vertices();
    ws.ensure(n);
    for v in 0..n {
        let d = g.degree(v as u32);
        ws.deg_out[v] = d;
        if d > 0 {
            ws.active_list.push(v as u32);
            ws.inv_deg[v] = 1.0 / d as f64;
        }
    }
    let n_act = ws.active_list.len();
    if n_act == 0 {
        obs.setup(0, t_setup);
        return Ok(PrStats::empty());
    }
    let n_act_f = n_act as f64;
    tempopr_kernel::pagerank::initialize(init, &ws.active_list, &mut ws.x)?;
    if let Some(FaultKind::CorruptReciprocal) = cfg.fault {
        tempopr_kernel::pagerank::corrupt_first_reciprocal(&ws.active_list, &mut ws.inv_deg);
    }
    obs.setup(n_act, t_setup);

    let alpha = cfg.alpha;
    let damp = 1.0 - alpha;
    let base = alpha / n_act_f;
    let chunks = sched.map_or_else(Vec::new, |s| s.row_chunks(n_act));
    let mut iterations = 0;
    let mut converged = false;
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
                panic!("fault injection: panic inside streaming kernel");
            }
            _ => {}
        }
        let t_iter = obs.now();
        let list = &ws.active_list;
        let x = &ws.x;
        let inv_deg = &ws.inv_deg;
        let compact = &mut ws.y[..n_act];
        let body = |off: usize, slice: &mut [f64]| {
            let mut d = 0.0;
            for (i, yv) in slice.iter_mut().enumerate() {
                let v = list[off + i];
                let mut s = 0.0;
                for (u, _, _) in g.neighbors(v) {
                    s += x[u as usize] * inv_deg[u as usize];
                }
                let val = base + damp * s;
                d += (val - x[v as usize]).abs();
                *yv = val;
            }
            d
        };
        let diff = match sched {
            Some(s) => {
                s.map_reduce_rows_chunked_mut(compact, 1, &chunks, 0.0f64, body, |a, b| a + b)
            }
            None => body(0, compact),
        };
        let t_mid = obs.now();
        if !diff.is_finite() {
            return Err(KernelError::Numeric {
                iteration: iterations,
                fault: NumericFault::NonFinite { lane: 0 },
            });
        }
        for (i, &v) in ws.active_list.iter().enumerate() {
            ws.x[v as usize] = ws.y[i];
        }
        if obs.is_on() {
            let mass: f64 = ws.y[..n_act].iter().sum();
            obs.iteration(iterations, diff, mass, t_iter, t_mid);
        }
        if diff < cfg.tol && cfg.fault != Some(FaultKind::ForceNonConvergence) {
            converged = true;
            break;
        }
    }
    Ok(PrStats {
        iterations,
        converged,
        active_vertices: n_act,
        ..PrStats::empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_kernel::reference_pagerank;

    fn cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    fn build(n: usize, pairs: &[(u32, u32)]) -> StreamingGraph {
        let mut g = StreamingGraph::new(n);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            g.insert_event(u, v, i as i64);
        }
        g
    }

    fn sym_edges(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for &(u, v) in pairs {
            e.push((u, v));
            if u != v {
                e.push((v, u));
            }
        }
        e
    }

    #[test]
    fn matches_reference() {
        let pairs = vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4)];
        let g = build(5, &pairs);
        let mut ws = PrWorkspace::default();
        let stats = streaming_pagerank(&g, Init::Uniform, &cfg(), None, &mut ws).unwrap();
        let r = reference_pagerank(5, &sym_edges(&pairs), &cfg());
        for (a, b) in ws.ranks().iter().zip(r.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(stats.converged);
        assert_eq!(stats.active_vertices, 5);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pairs: Vec<(u32, u32)> = (0..80)
            .map(|i| ((i * 13 + 1) % 20, (i * 7 + 3) % 20))
            .collect();
        let g = build(20, &pairs);
        let mut seq = PrWorkspace::default();
        streaming_pagerank(&g, Init::Uniform, &cfg(), None, &mut seq).unwrap();
        let s = Scheduler::default();
        let mut par = PrWorkspace::default();
        streaming_pagerank(&g, Init::Uniform, &cfg(), Some(&s), &mut par).unwrap();
        for (a, b) in seq.ranks().iter().zip(par.ranks().iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_restart_reaches_same_fixed_point_faster() {
        // Hub-heavy graph, then a small perturbation.
        let mut pairs: Vec<(u32, u32)> = (1..25).map(|v| (0, v)).collect();
        pairs.extend((1..12).map(|v| (v, v + 1)));
        let g0 = build(30, &pairs);
        let mut ws = PrWorkspace::default();
        streaming_pagerank(&g0, Init::Uniform, &cfg(), None, &mut ws).unwrap();
        let prev = ws.ranks().to_vec();
        let mut g1 = g0.clone();
        g1.insert_event(25, 26, 99);
        g1.insert_event(3, 9, 100);
        let mut cold_ws = PrWorkspace::default();
        let cold = streaming_pagerank(&g1, Init::Uniform, &cfg(), None, &mut cold_ws).unwrap();
        let warm = streaming_pagerank(&g1, Init::Partial(&prev), &cfg(), None, &mut ws).unwrap();
        for (a, b) in ws.ranks().iter().zip(cold_ws.ranks().iter()) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn a_reused_workspace_gives_every_window_the_bits_of_a_fresh_one() {
        // `run_streaming` keeps one workspace across its windows, whose setup
        // clears only the rows the last window wrote: edges that leave
        // must take their vertices out of the next window's active set,
        // and a graph over another universe must start clean.
        let bits = |ws: &PrWorkspace| {
            let b = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
            (b(&ws.x), ws.deg_out.clone(), b(&ws.inv_deg))
        };
        let mut g = build(
            12,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7)],
        );
        let other = build(7, &[(0, 1), (1, 2), (2, 0), (5, 6)]);
        let mut ws = PrWorkspace::default();
        let mut prev: Option<Vec<f64>> = None;
        for step in 0..6 {
            match step {
                0 => g.insert_event(8, 9, 100),
                1 => assert!(g.delete_event(6, 7)),
                3 => g.insert_event(11, 8, 103),
                5 => assert!(g.delete_event(8, 9)),
                _ => {}
            }
            let graph = if step == 4 { &other } else { &g };
            let init = match &prev {
                Some(p) if p.len() == graph.num_vertices() => Init::Partial(p),
                _ => Init::Uniform,
            };
            let mut fresh = PrWorkspace::default();
            let expect = streaming_pagerank(graph, init, &cfg(), None, &mut fresh).unwrap();
            let got = streaming_pagerank(graph, init, &cfg(), None, &mut ws).unwrap();
            assert_eq!((got, bits(&ws)), (expect, bits(&fresh)), "step {step}");
            prev = Some(ws.ranks().to_vec());
        }
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = StreamingGraph::new(5);
        let mut ws = PrWorkspace::default();
        let stats = streaming_pagerank(&g, Init::Uniform, &cfg(), None, &mut ws).unwrap();
        assert_eq!(stats.active_vertices, 0);
        assert!(ws.ranks().iter().all(|&x| x == 0.0));
    }
}
