//! Reference Katz centrality on one window, re-exported as
//! [`crate::reference::katz_window`].
//!
//! Katz centrality solves `x = α·A·x + 1` (attenuation `α` strictly below
//! the inverse spectral radius), weighting walks of length `k` by `α^k`.
//! The query batch's Katz lanes ([`crate::QuerySpec::Katz`]) are tested
//! against [`katz_window`] bit for bit.

use tempopr_graph::{TemporalCsr, TimeRange, VertexId};

/// Katz parameters of [`katz_window`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KatzConfig {
    /// Attenuation as a fraction of the per-window convergence bound
    /// `1 / (max_degree + 1)`; must be in `(0, 1)`.
    pub alpha_fraction: f64,
    /// L∞ convergence tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for KatzConfig {
    fn default() -> Self {
        KatzConfig {
            alpha_fraction: 0.85,
            tol: 1e-9,
            max_iters: 200,
        }
    }
}

/// Katz scores of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct KatzScores {
    /// Katz centrality per vertex (0 for inactive vertices; active
    /// vertices score at least 1).
    pub score: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// The attenuation actually used for this window.
    pub alpha: f64,
}

/// Computes Katz centrality of the window `range`.
///
/// Solves `x = α·A·x + 1` over the window's active adjacency by Jacobi
/// iteration, weighting walks of length `k` by `α^k`. `α` is chosen per
/// window as `alpha_fraction / (max_degree + 1)`, which guarantees
/// convergence since the spectral radius is at most the maximum degree.
///
/// # Panics
///
/// If `cfg.alpha_fraction` is not in `(0, 1)`.
pub fn katz_window(tcsr: &TemporalCsr, range: TimeRange, cfg: &KatzConfig) -> KatzScores {
    assert!(
        cfg.alpha_fraction > 0.0 && cfg.alpha_fraction < 1.0,
        "alpha_fraction must be in (0, 1)"
    );
    let n = tcsr.num_vertices();
    let mut deg = vec![0u32; n];
    tcsr.active_degrees(range, &mut deg);
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    let actives: Vec<u32> = (0..n as u32).filter(|&v| deg[v as usize] > 0).collect();
    if actives.is_empty() {
        return KatzScores {
            score: vec![0.0; n],
            iterations: 0,
            converged: true,
            alpha: 0.0,
        };
    }
    let alpha = cfg.alpha_fraction / (max_deg as f64 + 1.0);
    let mut x = vec![0.0f64; n];
    for &v in &actives {
        x[v as usize] = 1.0;
    }
    let mut y = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iters {
        iterations += 1;
        let mut diff = 0.0f64;
        for &v in &actives {
            let mut s = 0.0;
            for u in tcsr.active_neighbors(v as VertexId, range) {
                s += x[u as usize];
            }
            let val = 1.0 + alpha * s;
            diff = diff.max((val - x[v as usize]).abs());
            y[v as usize] = val;
        }
        for &v in &actives {
            x[v as usize] = y[v as usize];
        }
        if diff < cfg.tol {
            converged = true;
            break;
        }
    }
    KatzScores {
        score: x,
        iterations,
        converged,
        alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_graph::Event;

    fn ev(u: u32, v: u32, t: i64) -> Event {
        Event::new(u, v, t)
    }

    fn katz_cfg() -> KatzConfig {
        KatzConfig {
            alpha_fraction: 0.85,
            tol: 1e-12,
            max_iters: 2000,
        }
    }

    /// Dense reference: solve x = αAx + 1 by long Jacobi iteration on an
    /// explicit matrix.
    fn dense_katz(n: usize, edges: &[(u32, u32)], alpha: f64) -> Vec<f64> {
        let mut adj = vec![vec![false; n]; n];
        let mut active = vec![false; n];
        for &(u, v) in edges {
            adj[u as usize][v as usize] = true;
            adj[v as usize][u as usize] = true;
            active[u as usize] = true;
            active[v as usize] = true;
        }
        let mut x = vec![0.0; n];
        for v in 0..n {
            if active[v] {
                x[v] = 1.0;
            }
        }
        for _ in 0..5000 {
            let mut y = vec![0.0; n];
            for v in 0..n {
                if !active[v] {
                    continue;
                }
                let s: f64 = (0..n).filter(|&u| adj[v][u]).map(|u| x[u]).sum();
                y[v] = 1.0 + alpha * s;
            }
            x = y;
        }
        x
    }

    #[test]
    fn star_center_scores_highest() {
        let events: Vec<Event> = (1..6).map(|v| ev(0, v, 1)).collect();
        let t = TemporalCsr::from_events(6, &events);
        let k = katz_window(&t, TimeRange::new(0, 10), &katz_cfg());
        assert!(k.converged);
        for leaf in 1..6 {
            assert!(k.score[0] > k.score[leaf]);
            assert!(k.score[leaf] >= 1.0);
        }
    }

    #[test]
    fn matches_dense_reference() {
        let mut events = Vec::new();
        for i in 0..80u32 {
            let u = (i * 13 + 1) % 15;
            let v = (i * 7 + 5) % 15;
            if u != v {
                events.push(ev(u, v, 1));
            }
        }
        let t = TemporalCsr::from_events(15, &events);
        let range = TimeRange::new(0, 10);
        let k = katz_window(&t, range, &katz_cfg());
        let edges: Vec<(u32, u32)> = events.iter().map(|e| (e.u, e.v)).collect();
        let expect = dense_katz(15, &edges, k.alpha);
        for (v, (g, e)) in k.score.iter().zip(expect.iter()).enumerate() {
            assert!((g - e).abs() < 1e-8, "vertex {v}: {g} vs {e}");
        }
    }

    #[test]
    fn window_filtering_applies() {
        let t = TemporalCsr::from_events(3, &[ev(0, 1, 1), ev(1, 2, 100)]);
        let early = katz_window(&t, TimeRange::new(0, 10), &katz_cfg());
        assert_eq!(early.score[2], 0.0);
        assert!(early.score[0] > 1.0);
        let late = katz_window(&t, TimeRange::new(0, 200), &katz_cfg());
        assert!(late.score[2] > 1.0);
        assert!(late.score[1] > late.score[0], "middle vertex leads");
    }

    #[test]
    fn empty_window() {
        let t = TemporalCsr::from_events(2, &[ev(0, 1, 5)]);
        let k = katz_window(&t, TimeRange::new(50, 60), &katz_cfg());
        assert!(k.converged);
        assert_eq!(k.score, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "alpha_fraction")]
    fn invalid_alpha_rejected() {
        let t = TemporalCsr::from_events(2, &[ev(0, 1, 5)]);
        katz_window(
            &t,
            TimeRange::new(0, 10),
            &KatzConfig {
                alpha_fraction: 1.5,
                ..Default::default()
            },
        );
    }
}
