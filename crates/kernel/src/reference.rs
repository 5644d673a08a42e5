//! Reference PageRank on an explicit edge list, and reference Katz
//! centrality on one window.
//!
//! [`reference_pagerank`] is the executable specification every optimized
//! kernel in the workspace is tested against: a direct, allocation-happy
//! implementation of the paper's Eq. 1 with the shared semantics
//! documented in [`crate::pagerank`] (active vertex set, simple-graph
//! dedup). It stays general over directed edge lists, redistributing the
//! mass of vertices without out-edges, which a symmetric window never
//! has. It is deliberately slow and obvious.
//!
//! [`katz_window`] is the single-window Jacobi iteration the query batch's
//! Katz lanes ([`crate::QuerySpec::Katz`]) are tested against bit for bit.

pub use crate::katz::{katz_window, KatzConfig, KatzScores};
use crate::pagerank::PrConfig;

/// Runs PageRank by power iteration over a directed edge list.
///
/// Semantics (shared by all kernels in this workspace):
/// - edges are deduplicated (simple graph);
/// - the *active* set `A` is every vertex with at least one incident edge
///   (in or out); `n = |A|`;
/// - inactive vertices get rank 0; active ones start at `1/n`;
/// - each iteration: `y[v] = α/n + (1-α)·(Σ_{u→v} x[u]/outdeg(u) + D/n)`
///   where `D` is the rank mass of active vertices with out-degree 0;
/// - stop when the L1 difference drops below `cfg.tol` or after
///   `cfg.max_iters` iterations.
///
/// Returns the rank vector (length `num_vertices`).
pub fn reference_pagerank(num_vertices: usize, edges: &[(u32, u32)], cfg: &PrConfig) -> Vec<f64> {
    let mut edges: Vec<(u32, u32)> = edges.to_vec();
    edges.sort_unstable();
    edges.dedup();
    let mut outdeg = vec![0usize; num_vertices];
    let mut active = vec![false; num_vertices];
    for &(u, v) in &edges {
        outdeg[u as usize] += 1;
        active[u as usize] = true;
        active[v as usize] = true;
    }
    let n_active = active.iter().filter(|&&a| a).count();
    if n_active == 0 {
        return vec![0.0; num_vertices];
    }
    let n = n_active as f64;
    let alpha = cfg.alpha;
    let damp = 1.0 - alpha;
    let mut x = vec![0.0f64; num_vertices];
    for v in 0..num_vertices {
        if active[v] {
            x[v] = 1.0 / n;
        }
    }
    let mut y = vec![0.0f64; num_vertices];
    for _ in 0..cfg.max_iters {
        let dangling: f64 = (0..num_vertices)
            .filter(|&v| active[v] && outdeg[v] == 0)
            .map(|v| x[v])
            .sum();
        let base = alpha / n + damp * dangling / n;
        for v in 0..num_vertices {
            y[v] = if active[v] { base } else { 0.0 };
        }
        for &(u, v) in &edges {
            y[v as usize] += damp * x[u as usize] / outdeg[u as usize] as f64;
        }
        let diff: f64 = x.iter().zip(y.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut x, &mut y);
        if diff < cfg.tol {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-12,
            max_iters: 500,
            ..PrConfig::default()
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let edges = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)];
        let x = reference_pagerank(4, &edges, &cfg());
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn symmetric_pair_has_equal_ranks() {
        let edges = vec![(0, 1), (1, 0)];
        let x = reference_pagerank(2, &edges, &cfg());
        assert!((x[0] - 0.5).abs() < 1e-9);
        assert!((x[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inactive_vertices_get_zero() {
        let edges = vec![(0, 1), (1, 0)];
        let x = reference_pagerank(5, &edges, &cfg());
        assert_eq!(x[2], 0.0);
        assert_eq!(x[3], 0.0);
        assert_eq!(x[4], 0.0);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dangling_mass_redistributed() {
        // 0 -> 1, 1 has no out-edges: dangling. Sum must still be 1.
        let edges = vec![(0, 1)];
        let x = reference_pagerank(2, &edges, &cfg());
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // 1 receives everything 0 sends, so rank(1) > rank(0).
        assert!(x[1] > x[0]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let a = reference_pagerank(3, &[(0, 1), (0, 1), (1, 2), (2, 0)], &cfg());
        let b = reference_pagerank(3, &[(0, 1), (1, 2), (2, 0)], &cfg());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn star_center_ranks_highest() {
        // Undirected star: center 0 with leaves 1..=4.
        let mut edges = Vec::new();
        for leaf in 1..5u32 {
            edges.push((0, leaf));
            edges.push((leaf, 0));
        }
        let x = reference_pagerank(5, &edges, &cfg());
        for leaf in 1..5 {
            assert!(x[0] > x[leaf]);
            assert!((x[1] - x[leaf]).abs() < 1e-9);
        }
    }

    #[test]
    fn known_two_node_directed_chain_values() {
        // 0 -> 1 with dangling redistribution has a closed form:
        // x0 = a/n + d*D/n, x1 = x0 + d*x0 where D = x1 (dangling).
        // Verify fixed point numerically: x satisfies the equations.
        let c = cfg();
        let x = reference_pagerank(2, &[(0, 1)], &c);
        let n = 2.0;
        let a = c.alpha;
        let d = 1.0 - a;
        let dang = x[1];
        let x0 = a / n + d * dang / n;
        let x1 = a / n + d * (dang / n + x[0]);
        assert!((x[0] - x0).abs() < 1e-9);
        assert!((x[1] - x1).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_all_zero() {
        let x = reference_pagerank(3, &[], &cfg());
        assert_eq!(x, vec![0.0; 3]);
    }
}
