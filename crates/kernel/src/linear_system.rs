//! Direct solution of the PageRank linear system (paper Eq. 2):
//!
//! ```text
//! (I - (1-α)·Aᵀ·D⁻¹) x = α·v
//! ```
//!
//! (in this crate's convention `α` is the teleport weight, so the damping
//! factor multiplying the transition matrix is `1-α`; the paper writes the
//! same system with its `α` denoting the damping factor). Dangling columns
//! are replaced by the uniform teleport column, as
//! [`crate::reference_pagerank`] redistributes dangling mass. The solver
//! stays general over a `(pull, push)` pair; the kernels it checks read
//! symmetric windows, which have no dangling column.
//!
//! The solver is dense Gaussian elimination with partial pivoting —
//! `O(n³)`, intended for validation and for exact answers on small
//! windows, not production. Tests use it to pin every iterative kernel to
//! the true fixed point at machine precision.

use crate::error::KernelError;
use crate::pagerank::PrConfig;
use tempopr_graph::{TemporalCsr, TimeRange, VertexId};

/// Solves the PageRank system of one window exactly.
///
/// Builds the dense `n_act × n_act` system over the window's active set
/// and eliminates. Returns the rank vector over the full vertex space
/// (0 for inactive vertices). Fails with
/// [`KernelError::ActiveSetTooLarge`] if the active set exceeds
/// `max_active` (guard against accidentally cubing a huge window) and
/// with [`KernelError::SingularSystem`] if elimination hits a vanishing
/// pivot (impossible for a well-formed PageRank system, but a corrupted
/// graph must not panic the solver).
pub fn solve_pagerank_exact(
    pull: &TemporalCsr,
    push: &TemporalCsr,
    range: TimeRange,
    cfg: &PrConfig,
    max_active: usize,
) -> Result<Vec<f64>, KernelError> {
    let n = pull.num_vertices();
    if push.num_vertices() != n {
        return Err(KernelError::MismatchedUniverses {
            pull: n,
            push: push.num_vertices(),
        });
    }
    let directed = !std::ptr::eq(pull, push);
    // Active set and out-degrees.
    let mut active_list: Vec<u32> = Vec::new();
    let mut slot = vec![usize::MAX; n];
    let mut outdeg = vec![0u32; n];
    for v in 0..n {
        let out = push.active_degree(v as VertexId, range) as u32;
        let act = out > 0 || (directed && pull.active_degree(v as VertexId, range) > 0);
        outdeg[v] = out;
        if act {
            slot[v] = active_list.len();
            active_list.push(v as u32);
        }
    }
    let m = active_list.len();
    if m == 0 {
        return Ok(vec![0.0; n]);
    }
    if m > max_active {
        return Err(KernelError::ActiveSetTooLarge {
            active: m,
            max_active,
        });
    }
    let alpha = cfg.alpha;
    let damp = 1.0 - alpha;
    // System matrix M = I - damp * P, where P[i][j] = 1/outdeg(j) if j -> i
    // (column-stochastic over the active set), dangling columns uniform.
    let mut a = vec![vec![0.0f64; m + 1]; m];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = 1.0;
        row[m] = alpha / m as f64; // right-hand side α·v
    }
    for (i, &v) in active_list.iter().enumerate() {
        // In-edges of v: pull adjacency.
        for run in pull.runs(v) {
            if run.active_in(range) {
                let u = run.neighbor as usize;
                debug_assert_ne!(slot[u], usize::MAX);
                a[i][slot[u]] -= damp / outdeg[u] as f64;
            }
        }
    }
    // Dangling columns: j with outdeg 0 contributes uniformly to every row.
    for (j, &v) in active_list.iter().enumerate() {
        if outdeg[v as usize] == 0 {
            for row in a.iter_mut() {
                row[j] -= damp / m as f64;
            }
        }
    }
    // Gaussian elimination with partial pivoting on the augmented matrix.
    for col in 0..m {
        let mut pivot = col;
        let mut best = a[col][col].abs();
        for (r, row) in a.iter().enumerate().skip(col + 1) {
            let mag = row[col].abs();
            if mag > best {
                best = mag;
                pivot = r;
            }
        }
        a.swap(col, pivot);
        let p = a[col][col];
        if !p.is_finite() || p.abs() <= 1e-12 {
            return Err(KernelError::SingularSystem);
        }
        // Copy the pivot row's tail once per column (borrow-splitting).
        let pivot_row: Vec<f64> = a[col][col..].to_vec();
        for (r, row) in a.iter_mut().enumerate() {
            if r == col {
                continue;
            }
            let f = row[col] / p;
            if f == 0.0 {
                continue;
            }
            for (k, &pv) in pivot_row.iter().enumerate() {
                row[col + k] -= f * pv;
            }
        }
    }
    let mut x = vec![0.0f64; n];
    for (i, &v) in active_list.iter().enumerate() {
        x[v as usize] = a[i][m] / a[i][i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_window_vec, Init};
    use tempopr_graph::Event;

    fn cfg() -> PrConfig {
        PrConfig {
            alpha: 0.15,
            tol: 1e-14,
            max_iters: 3000,
            ..PrConfig::default()
        }
    }

    #[test]
    fn exact_solution_matches_power_iteration_symmetric() {
        let mut events = Vec::new();
        for i in 0..80u32 {
            let u = (i * 13 + 2) % 18;
            let v = (i * 7 + 5) % 18;
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        let t = TemporalCsr::from_events(18, &events);
        for range in [TimeRange::new(0, 60), TimeRange::new(30, 120)] {
            let exact = solve_pagerank_exact(&t, &t, range, &cfg(), 100).unwrap();
            let (iter, _) =
                pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
            for v in 0..18 {
                assert!(
                    (exact[v] - iter[v]).abs() < 1e-10,
                    "vertex {v}: {} vs {}",
                    exact[v],
                    iter[v]
                );
            }
            let sum: f64 = exact.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn two_vertex_closed_form() {
        // Symmetric pair: exact solution is (1/2, 1/2).
        let t = TemporalCsr::from_events(2, &[Event::new(0, 1, 1)]);
        let x = solve_pagerank_exact(&t, &t, TimeRange::new(0, 10), &cfg(), 10).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!((x[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)]);
        let x = solve_pagerank_exact(&t, &t, TimeRange::new(50, 60), &cfg(), 10).unwrap();
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    fn size_guard_trips() {
        let events: Vec<Event> = (0..20).map(|i| Event::new(i, (i + 1) % 20, 1)).collect();
        let t = TemporalCsr::from_events(20, &events);
        let err = solve_pagerank_exact(&t, &t, TimeRange::new(0, 10), &cfg(), 5).unwrap_err();
        assert_eq!(
            err,
            KernelError::ActiveSetTooLarge {
                active: 20,
                max_active: 5
            }
        );
    }
}
