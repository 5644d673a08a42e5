//! Personalized PageRank on a window (an extension beyond the paper):
//! teleportation lands on a preference distribution instead of uniformly,
//! turning the per-window ranking into "importance relative to these seed
//! vertices" — the natural tool for the paper's §3.2 use cases (tracking
//! specific actors through an organizational crisis).

use crate::error::KernelError;
use crate::pagerank::{
    degree_pass, guard_check, one_structure, GuardAction, PrConfig, PrHealth, PrStats, PrWorkspace,
};
use crate::scheduler::Scheduler;
use tempopr_graph::{TemporalCsr, TimeRange};

/// Outcome of one personalized-PageRank window: the usual iteration stats
/// plus whether the window fell back to the uniform teleport because no
/// active vertex carried preference mass. The fallback used to be silent;
/// callers (and the batched query kernel, which reuses the same rule) can
/// now tell "ranks relative to your seeds" apart from "your seeds were
/// inactive here — this is plain PageRank".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersonalizedStats {
    /// Iteration statistics (as for the standard kernel).
    pub pr: PrStats,
    /// `true` iff the preference had zero mass over the window's active
    /// set and teleportation reverted to uniform.
    pub uniform_fallback: bool,
}

/// Computes personalized PageRank for one window.
///
/// `preference` is a finite, non-negative weighting over the vertex space
/// (any scale); it is masked to the window's active set and normalized. If no
/// active vertex carries preference mass, the call falls back to the
/// uniform teleport (= standard PageRank) and reports it via
/// [`PersonalizedStats::uniform_fallback`]. Semantics otherwise match
/// [`crate::pagerank::pagerank_window`]; the result lands in `ws.x`.
pub fn pagerank_window_personalized(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    range: TimeRange,
    preference: &[f64],
    cfg: &PrConfig,
    sched: Option<&Scheduler>,
    ws: &mut PrWorkspace,
) -> Result<PersonalizedStats, KernelError> {
    let t = one_structure(pull, push)?;
    let n = t.num_vertices();
    if preference.len() != n {
        return Err(KernelError::BadVectorLength {
            what: "preference",
            expected: n,
            got: preference.len(),
        });
    }
    if !preference.iter().all(|&p| p.is_finite() && p >= 0.0) {
        return Err(KernelError::BadQuery {
            index: 0,
            what: "preference weights must be finite and non-negative",
        });
    }
    ws.ensure(n);
    degree_pass(|v| t.active_degree(v, range), sched, ws);
    let n_act = ws.active_list.len();
    if n_act == 0 {
        return Ok(PersonalizedStats {
            pr: PrStats::empty(),
            uniform_fallback: false,
        });
    }
    let n_act_f = n_act as f64;

    // Normalized teleport vector over the active set.
    let mut tele = vec![0.0f64; n];
    let mass: f64 = ws.active_list.iter().map(|&v| preference[v as usize]).sum();
    let uniform_fallback = mass <= 0.0;
    if mass > 0.0 {
        for &v in &ws.active_list {
            tele[v as usize] = preference[v as usize] / mass;
        }
    } else {
        for &v in &ws.active_list {
            tele[v as usize] = 1.0 / n_act_f;
        }
    }

    // Start from the teleport distribution (the PPR analogue of uniform
    // init; it is already a distribution over the active set).
    ws.x.copy_from_slice(&tele);

    let alpha = cfg.alpha;
    let damp = 1.0 - alpha;
    let chunks = sched.map_or_else(Vec::new, |s| s.row_chunks(n_act));
    let mut iterations = 0;
    let mut converged = false;
    let mut health = PrHealth::default();
    while iterations < cfg.max_iters {
        iterations += 1;
        let list = &ws.active_list;
        let x = &ws.x;
        let inv_deg = &ws.inv_deg;
        let tele_ref = &tele;
        let compact = &mut ws.y[..n_act];
        let body = |off: usize, slice: &mut [f64]| {
            let mut d = 0.0;
            let mut m = 0.0;
            for (i, yv) in slice.iter_mut().enumerate() {
                let v = list[off + i];
                let mut s = 0.0;
                for run in t.runs(v) {
                    if run.active_in(range) {
                        let u = run.neighbor as usize;
                        s += x[u] * inv_deg[u];
                    }
                }
                let val = alpha * tele_ref[v as usize] + damp * s;
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
        match guard_check(diff, mass, 0, iterations, cfg, &mut health)? {
            GuardAction::Proceed => {}
            GuardAction::Renormalize { scale } => {
                for (i, &v) in ws.active_list.iter().enumerate() {
                    ws.x[v as usize] = ws.y[i] * scale;
                }
                continue;
            }
            GuardAction::Restart => {
                // Restart from the teleport distribution (the PPR analogue
                // of the uniform restart).
                ws.x.copy_from_slice(&tele);
                continue;
            }
        }
        for (i, &v) in ws.active_list.iter().enumerate() {
            ws.x[v as usize] = ws.y[i];
        }
        if diff < cfg.tol {
            converged = true;
            break;
        }
    }
    Ok(PersonalizedStats {
        pr: PrStats {
            iterations,
            converged,
            active_vertices: n_act,
            health,
        },
        uniform_fallback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_window_vec, Init};
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
        for i in 0..150u32 {
            let u = (i * 13 + 2) % 30;
            let v = (i * 7 + 5) % 30;
            if u != v {
                events.push(Event::new(u, v, (i * 2) as i64));
            }
        }
        events
    }

    /// Dense personalized reference by long power iteration.
    fn dense_ppr(n: usize, edges: &[(u32, u32)], pref: &[f64], alpha: f64) -> Vec<f64> {
        let mut edges: Vec<(u32, u32)> = edges.to_vec();
        edges.sort_unstable();
        edges.dedup();
        let mut outdeg = vec![0usize; n];
        let mut active = vec![false; n];
        for &(u, v) in &edges {
            outdeg[u as usize] += 1;
            active[u as usize] = true;
            active[v as usize] = true;
        }
        let mass: f64 = (0..n).filter(|&v| active[v]).map(|v| pref[v]).sum();
        let n_act = active.iter().filter(|&&a| a).count();
        let tele: Vec<f64> = (0..n)
            .map(|v| {
                if !active[v] {
                    0.0
                } else if mass > 0.0 {
                    pref[v] / mass
                } else {
                    1.0 / n_act as f64
                }
            })
            .collect();
        let mut x = tele.clone();
        let damp = 1.0 - alpha;
        for _ in 0..2000 {
            let dangling: f64 = (0..n)
                .filter(|&v| active[v] && outdeg[v] == 0)
                .map(|v| x[v])
                .sum();
            let mut y: Vec<f64> = (0..n)
                .map(|v| (alpha + damp * dangling) * tele[v])
                .collect();
            for &(u, v) in &edges {
                y[v as usize] += damp * x[u as usize] / outdeg[u as usize] as f64;
            }
            x = y;
        }
        x
    }

    fn sym(events: &[Event], range: TimeRange) -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for ev in events {
            if range.contains(ev.t) {
                e.push((ev.u, ev.v));
                if ev.u != ev.v {
                    e.push((ev.v, ev.u));
                }
            }
        }
        e
    }

    #[test]
    fn uniform_preference_equals_standard_pagerank() {
        let events = sample_events();
        let t = TemporalCsr::from_events(30, &events);
        let range = TimeRange::new(0, 200);
        let (std_pr, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        let pref = vec![1.0; 30];
        let mut ws = PrWorkspace::default();
        let stats =
            pagerank_window_personalized(&t, &t, range, &pref, &cfg(), None, &mut ws).unwrap();
        assert!(stats.pr.converged);
        assert!(
            !stats.uniform_fallback,
            "uniform pref has mass — no fallback"
        );
        for (v, (a, b)) in std_pr.iter().zip(ws.x.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn matches_dense_reference_with_seed_set() {
        let events = sample_events();
        let t = TemporalCsr::from_events(30, &events);
        let range = TimeRange::new(50, 250);
        let mut pref = vec![0.0; 30];
        pref[3] = 2.0;
        pref[7] = 1.0;
        let mut ws = PrWorkspace::default();
        let stats =
            pagerank_window_personalized(&t, &t, range, &pref, &cfg(), None, &mut ws).unwrap();
        assert!(!stats.uniform_fallback);
        let expect = dense_ppr(30, &sym(&events, range), &pref, 0.15);
        for (v, (a, b)) in ws.x.iter().zip(expect.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "vertex {v}: {a} vs {b}");
        }
        // Mass concentrates near the seeds.
        let sum: f64 = ws.x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(ws.x[3] > 1.0 / 30.0, "seed outranks uniform share");
    }

    #[test]
    fn seeds_outside_active_set_fall_back_to_uniform() {
        let events = vec![Event::new(0, 1, 5), Event::new(1, 2, 6)];
        let t = TemporalCsr::from_events(5, &events);
        let range = TimeRange::new(0, 10);
        let mut pref = vec![0.0; 5];
        pref[4] = 1.0; // vertex 4 is inactive in this window
        let mut ws = PrWorkspace::default();
        let stats =
            pagerank_window_personalized(&t, &t, range, &pref, &cfg(), None, &mut ws).unwrap();
        assert!(
            stats.uniform_fallback,
            "zero mass over the active set must be reported"
        );
        let (std_pr, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        for (a, b) in ws.x.iter().zip(std_pr.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn all_zero_preference_also_falls_back_and_is_flagged() {
        let events = sample_events();
        let t = TemporalCsr::from_events(30, &events);
        let range = TimeRange::new(0, 200);
        let pref = vec![0.0; 30];
        let mut ws = PrWorkspace::default();
        let stats =
            pagerank_window_personalized(&t, &t, range, &pref, &cfg(), None, &mut ws).unwrap();
        assert!(stats.uniform_fallback);
        assert!(stats.pr.converged);
        let (std_pr, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
        for (a, b) in ws.x.iter().zip(std_pr.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let events = sample_events();
        let t = TemporalCsr::from_events(30, &events);
        let range = TimeRange::new(0, 300);
        let mut pref = vec![0.0; 30];
        pref[0] = 1.0;
        let mut seq = PrWorkspace::default();
        pagerank_window_personalized(&t, &t, range, &pref, &cfg(), None, &mut seq).unwrap();
        let sched = Scheduler::new(crate::scheduler::Partitioner::Simple, 4);
        let mut par = PrWorkspace::default();
        pagerank_window_personalized(&t, &t, range, &pref, &cfg(), Some(&sched), &mut par).unwrap();
        for (a, b) in seq.x.iter().zip(par.x.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_nan_and_infinite_preference_rejected_as_bad_query() {
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 1)]);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut ws = PrWorkspace::default();
            let r = pagerank_window_personalized(
                &t,
                &t,
                TimeRange::new(0, 10),
                &[1.0, bad],
                &cfg(),
                None,
                &mut ws,
            );
            assert!(
                matches!(r, Err(KernelError::BadQuery { index: 0, .. })),
                "{bad}: {r:?}"
            );
        }
    }

    #[test]
    fn empty_window_is_zero() {
        let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)]);
        let mut ws = PrWorkspace::default();
        let stats = pagerank_window_personalized(
            &t,
            &t,
            TimeRange::new(50, 60),
            &[1.0, 1.0, 1.0],
            &cfg(),
            None,
            &mut ws,
        )
        .unwrap();
        assert_eq!(stats.pr.active_vertices, 0);
        assert!(!stats.uniform_fallback);
    }
}
