//! Per-window outputs shared by the postmortem, offline, and streaming
//! drivers, in a compact sparse form so hundreds of windows stay cheap.

use tempopr_kernel::PrStats;

/// Ranks of one window over the *global* vertex space, stored sparsely:
/// only active vertices (rank > 0 domain) appear, sorted by vertex id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseRanks {
    /// Global vertex ids, strictly increasing.
    pub vertices: Vec<u32>,
    /// Rank per vertex in `vertices`.
    pub values: Vec<f64>,
}

impl SparseRanks {
    /// Builds from a dense global vector, keeping strictly positive entries.
    pub fn from_dense(dense: &[f64]) -> Self {
        WindowRanks::dense(dense).sparse()
    }

    /// Builds from local ranks plus a sorted local→global vertex map,
    /// keeping strictly positive entries. The map being sorted keeps the
    /// output sorted without extra work.
    pub fn from_local(local: &[f64], vertex_map: &[u32]) -> Self {
        debug_assert_eq!(local.len(), vertex_map.len());
        WindowRanks::local(local, vertex_map, None).sparse()
    }

    /// Reconstructs the dense global vector this was built from. Exact,
    /// not approximate: `from_dense` keeps every strictly positive entry
    /// and ranks are non-negative, so absent entries were exactly `0.0`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for (&v, &x) in self.vertices.iter().zip(self.values.iter()) {
            if let Some(slot) = out.get_mut(v as usize) {
                *slot = x;
            }
        }
        out
    }

    /// Reconstructs the part-local vector this was built from via
    /// `from_local` with the same sorted local→global `vertex_map`. Exact
    /// for the same reason as [`SparseRanks::to_dense`]; a single
    /// merge-join since both id sequences are sorted.
    pub fn to_local(&self, vertex_map: &[u32]) -> Vec<f64> {
        let mut out = vec![0.0; vertex_map.len()];
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.vertices.len() && j < vertex_map.len() {
            match self.vertices[i].cmp(&vertex_map[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out[j] = self.values[i];
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Number of ranked (active) vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether no vertex is ranked.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The rank of `vertex`, or 0 if unranked.
    pub fn rank_of(&self, vertex: u32) -> f64 {
        match self.vertices.binary_search(&vertex) {
            Ok(i) => self.values[i],
            Err(_) => 0.0,
        }
    }

    /// Sum of all ranks (≈ 1 for a non-empty window).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The highest-ranked vertex, if any.
    pub fn top(&self) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (&v, &x) in self.vertices.iter().zip(self.values.iter()) {
            if best.is_none_or(|(_, bx)| x > bx) {
                best = Some((v, x));
            }
        }
        best
    }

    /// Maximum absolute rank difference against another sparse vector
    /// (over the union of supports).
    pub fn linf_distance(&self, other: &SparseRanks) -> f64 {
        let mut d: f64 = 0.0;
        for (&v, &x) in self.vertices.iter().zip(self.values.iter()) {
            d = d.max((x - other.rank_of(v)).abs());
        }
        for (&v, &x) in other.vertices.iter().zip(other.values.iter()) {
            d = d.max((x - self.rank_of(v)).abs());
        }
        d
    }

    /// Order-sensitive fingerprint: `Σ rank(v) · h(v)` with `h` a SplitMix64
    /// hash mapped to `[0, 1)`. Two models computing the same ranks agree on
    /// the fingerprint regardless of internal vertex numbering. Delegates to
    /// the canonical [`rank_fingerprint`] helper.
    pub fn fingerprint(&self) -> f64 {
        rank_fingerprint(&self.values, Some(&self.vertices))
    }
}

/// Canonical rank fingerprint: `Σ rank(v) · h(v)` over strictly positive
/// entries of a local rank vector, in local-index order. With a
/// local→global `vertex_map` the hash is taken over global ids (so two
/// models with different internal numberings agree); without one the local
/// index *is* the global id (dense vectors). All three drivers and
/// [`SparseRanks::fingerprint`] sum through [`WindowRanks`], the one
/// implementation — the summation order is part of the bit-identity
/// contract between the drivers and the golden traces.
pub fn rank_fingerprint(local: &[f64], vertex_map: Option<&[u32]>) -> f64 {
    if let Some(map) = vertex_map {
        debug_assert_eq!(local.len(), map.len());
    }
    WindowRanks {
        local,
        vertex_map,
        active: None,
    }
    .fingerprint()
}

/// A window's final rank vector as its outputs read it: the ranks by local
/// index, whose ids those indices are, and where the vector can be
/// nonzero. Its fingerprint and sparse form walk the positive entries in
/// local-index order, so with an `active` list they cost what the window
/// holds, not the vector's length, and carry the bits the dense walk
/// gives.
#[derive(Debug, Clone, Copy)]
pub struct WindowRanks<'a> {
    /// Ranks by local index.
    pub local: &'a [f64],
    /// Sorted local→global vertex map; `None` when the local index is the
    /// global id.
    pub vertex_map: Option<&'a [u32]>,
    /// Local indices, ascending, off which `local` is zero (a window's
    /// active vertices); `None` for every index.
    pub active: Option<&'a [u32]>,
}

impl<'a> WindowRanks<'a> {
    /// A vector over the global vertex space (offline, streaming).
    pub fn dense(local: &'a [f64]) -> Self {
        WindowRanks {
            local,
            vertex_map: None,
            active: None,
        }
    }

    /// A part-local vector renumbered through `vertex_map`, zero off
    /// `active` when given.
    pub fn local(local: &'a [f64], vertex_map: &'a [u32], active: Option<&'a [u32]>) -> Self {
        WindowRanks {
            local,
            vertex_map: Some(vertex_map),
            active,
        }
    }

    /// `(global id, rank)` of every strictly positive entry among
    /// `indices`, in their order.
    fn ranked<'s>(
        &'s self,
        indices: impl Iterator<Item = usize> + 's,
    ) -> impl Iterator<Item = (u32, f64)> + 's {
        indices
            .filter(|&l| self.local[l] > 0.0)
            .map(|l| (self.vertex_map.map_or(l as u32, |m| m[l]), self.local[l]))
    }

    /// The canonical fingerprint (see [`rank_fingerprint`]), over `active`
    /// when given and every index otherwise. An empty window sums no term,
    /// which is `Iterator::sum`'s empty value, exactly as the dense walk
    /// over an all-zero vector gives.
    pub fn fingerprint(&self) -> f64 {
        let term = |(v, x): (u32, f64)| x * hash01(v);
        match self.active {
            Some(active) => self
                .ranked(active.iter().map(|&l| l as usize))
                .map(term)
                .sum(),
            None => self.ranked(0..self.local.len()).map(term).sum(),
        }
    }

    /// The strictly positive entries, by global id.
    pub fn sparse(&self) -> SparseRanks {
        let (vertices, values) = match self.active {
            Some(active) => self.ranked(active.iter().map(|&l| l as usize)).unzip(),
            None => self.ranked(0..self.local.len()).unzip(),
        };
        SparseRanks { vertices, values }
    }

    /// The fingerprint and, when `sparse`, the sparse form. Either way the
    /// vector is walked once: with the sparse form the fingerprint sums
    /// over its entries, which are the same terms in the same order.
    pub fn output(&self, sparse: bool) -> (f64, Option<SparseRanks>) {
        if sparse {
            let ranks = self.sparse();
            (ranks.fingerprint(), Some(ranks))
        } else {
            (self.fingerprint(), None)
        }
    }
}

/// SplitMix64-based hash of a vertex id into `[0, 1)`.
pub fn hash01(v: u32) -> f64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// How the engine recovered a window that did not complete cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The kernel's in-iteration guards intervened (renormalization or
    /// uniform restart) and the window still converged.
    GuardIntervention,
    /// A warm-started window was recomputed from full (uniform)
    /// initialization.
    FullInitRetry,
    /// The window was solved exactly by the dense Eq. 2 oracle.
    DenseOracle,
}

impl std::fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecoveryKind::GuardIntervention => "guard intervention",
            RecoveryKind::FullInitRetry => "full-init retry",
            RecoveryKind::DenseOracle => "dense oracle",
        };
        f.write_str(s)
    }
}

/// Terminal state of one window's computation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WindowStatus {
    /// Converged with no intervention of any kind.
    #[default]
    Ok,
    /// Valid ranks were produced, but only after recovery.
    Recovered {
        /// What saved the window.
        via: RecoveryKind,
    },
    /// No valid ranks for this window; the rest of the run is intact.
    Failed {
        /// Human-readable description of what went wrong.
        diagnostic: String,
    },
}

impl WindowStatus {
    /// Whether valid ranks were produced (possibly after recovery).
    pub fn is_valid(&self) -> bool {
        !matches!(self, WindowStatus::Failed { .. })
    }
}

/// One window's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutput {
    /// Global window index.
    pub window: usize,
    /// PageRank statistics.
    pub stats: PrStats,
    /// Rank fingerprint (always present, cheap; 0 for failed windows).
    pub fingerprint: f64,
    /// Full sparse ranks when retention is `Full` (empty for failed
    /// windows).
    pub ranks: Option<SparseRanks>,
    /// Terminal state: ok, recovered, or failed.
    pub status: WindowStatus,
    /// Highest recovery rung reached: 1 = the configured attempt only,
    /// 2 = full-init retry, 3 = dense oracle. Failed windows report the
    /// last rung tried, so a failed-then-recovered window is
    /// distinguishable from a first-attempt success in exports even though
    /// `stats` only describes the final attempt (the per-attempt residual
    /// history lives in the run trace).
    pub attempts: u16,
}

/// Outcome of a whole run: one output per window, in window order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOutput {
    /// Per-window outputs, sorted by window index.
    pub windows: Vec<WindowOutput>,
    /// True when at least one window failed: the run completed, but its
    /// output is incomplete (the degraded-run contract — see DESIGN.md).
    pub degraded: bool,
}

impl RunOutput {
    /// Total PageRank iterations across all windows — the work metric the
    /// partial-initialization experiment (Fig. 6) reports on.
    pub fn total_iterations(&self) -> usize {
        self.windows.iter().map(|w| w.stats.iterations).sum()
    }

    /// Window indices that produced no valid ranks.
    pub fn failed_windows(&self) -> Vec<usize> {
        self.windows
            .iter()
            .filter(|w| !w.status.is_valid())
            .map(|w| w.window)
            .collect()
    }

    /// Recomputes the `degraded` flag from per-window statuses.
    /// Recomputes the `degraded` flag from the per-window statuses. Run
    /// drivers call this once after assembling `windows`.
    pub fn finalize_status(&mut self) {
        self.degraded = self.windows.iter().any(|w| !w.status.is_valid());
    }

    /// One-line per-status summary: `"N ok, N recovered, N failed"` plus
    /// the failed window ids when any.
    pub fn status_summary(&self) -> String {
        let mut ok = 0usize;
        let mut recovered = 0usize;
        let mut failed = Vec::new();
        for w in &self.windows {
            match &w.status {
                WindowStatus::Ok => ok += 1,
                WindowStatus::Recovered { .. } => recovered += 1,
                WindowStatus::Failed { .. } => failed.push(w.window),
            }
        }
        if failed.is_empty() {
            format!("{ok} ok, {recovered} recovered, 0 failed")
        } else {
            format!(
                "{ok} ok, {recovered} recovered, {} failed (windows {failed:?})",
                failed.len()
            )
        }
    }

    /// Panics unless windows are exactly `0..n` in order.
    pub fn assert_complete(&self, n: usize) {
        assert_eq!(self.windows.len(), n, "missing window outputs");
        for (i, w) in self.windows.iter().enumerate() {
            assert_eq!(w.window, i, "window outputs out of order");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_keeps_positive_entries_sorted() {
        let s = SparseRanks::from_dense(&[0.0, 0.5, 0.0, 0.25, 0.25]);
        assert_eq!(s.vertices, vec![1, 3, 4]);
        assert_eq!(s.values, vec![0.5, 0.25, 0.25]);
        assert_eq!(s.len(), 3);
        assert!((s.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_local_maps_to_global() {
        let s = SparseRanks::from_local(&[0.4, 0.0, 0.6], &[2, 5, 9]);
        assert_eq!(s.vertices, vec![2, 9]);
        assert_eq!(s.rank_of(9), 0.6);
        assert_eq!(s.rank_of(5), 0.0);
        assert_eq!(s.rank_of(7), 0.0);
    }

    #[test]
    fn top_finds_max() {
        let s = SparseRanks::from_dense(&[0.1, 0.7, 0.2]);
        assert_eq!(s.top(), Some((1, 0.7)));
        assert_eq!(SparseRanks::default().top(), None);
    }

    #[test]
    fn linf_distance_over_union_support() {
        let a = SparseRanks::from_dense(&[0.5, 0.5, 0.0]);
        let b = SparseRanks::from_dense(&[0.5, 0.0, 0.5]);
        assert!((a.linf_distance(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.linf_distance(&a), 0.0);
    }

    #[test]
    fn fingerprint_is_numbering_independent() {
        // Same global ranks expressed via different local numberings.
        let a = SparseRanks::from_local(&[0.3, 0.7], &[4, 8]);
        let b = SparseRanks::from_dense(&{
            let mut d = vec![0.0; 9];
            d[4] = 0.3;
            d[8] = 0.7;
            d
        });
        assert!((a.fingerprint() - b.fingerprint()).abs() < 1e-15);
        // And differs when ranks differ.
        let c = SparseRanks::from_local(&[0.7, 0.3], &[4, 8]);
        assert!((a.fingerprint() - c.fingerprint()).abs() > 1e-6);
    }

    #[test]
    fn rank_fingerprint_matches_sparse_forms() {
        let local = [0.3, 0.0, 0.7];
        let map = [4u32, 6, 8];
        let via_helper = rank_fingerprint(&local, Some(&map));
        let via_sparse = SparseRanks::from_local(&local, &map).fingerprint();
        assert_eq!(via_helper.to_bits(), via_sparse.to_bits());

        let dense = [0.0, 0.25, 0.0, 0.75];
        let via_dense_helper = rank_fingerprint(&dense, None);
        let via_dense_sparse = SparseRanks::from_dense(&dense).fingerprint();
        assert_eq!(via_dense_helper.to_bits(), via_dense_sparse.to_bits());

        // The active-list walk: same entries, same order, same bits, and
        // the same sparse vector, whether or not it is asked for.
        let local = [0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0];
        let map = [1u32, 4, 6, 9, 11, 12, 20];
        let active = [1u32, 3, 4, 5];
        let walk = WindowRanks::local(&local, &map, Some(&active));
        let (fp, sparse) = walk.output(true);
        assert_eq!(fp.to_bits(), rank_fingerprint(&local, Some(&map)).to_bits());
        assert_eq!(walk.output(false), (fp, None));
        assert_eq!(sparse, Some(SparseRanks::from_local(&local, &map)));

        // An empty window: no active vertex and an all-zero vector. Both
        // walks sum no term, so both give `Iterator::sum`'s empty value
        // (`-0.0` on current toolchains), bit for bit; an accumulator
        // started at `0.0` would flip the sign bit.
        let zeros = [0.0; 4];
        let empty = WindowRanks::local(&zeros, &map[..4], Some(&[]));
        let dense_fp = rank_fingerprint(&zeros, Some(&map[..4]));
        let none: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(dense_fp.to_bits(), none.to_bits());
        assert_eq!(empty.fingerprint().to_bits(), dense_fp.to_bits());
        let (fp, sparse) = empty.output(true);
        assert_eq!(fp.to_bits(), dense_fp.to_bits());
        assert_eq!(sparse, Some(SparseRanks::default()));
        assert_eq!(
            SparseRanks::default().fingerprint().to_bits(),
            dense_fp.to_bits()
        );
    }

    #[test]
    fn hash01_in_unit_interval() {
        for v in [0u32, 1, 17, u32::MAX] {
            let h = hash01(v);
            assert!((0.0..1.0).contains(&h));
        }
        assert_ne!(hash01(1), hash01(2));
    }

    #[test]
    fn run_output_totals_and_completeness() {
        use tempopr_kernel::{PrHealth, PrStats};
        let mk = |w, it| WindowOutput {
            window: w,
            stats: PrStats {
                iterations: it,
                converged: true,
                active_vertices: 1,
                health: PrHealth::default(),
            },
            fingerprint: 0.0,
            ranks: None,
            status: WindowStatus::Ok,
            attempts: 1,
        };
        let out = RunOutput {
            windows: vec![mk(0, 3), mk(1, 5)],
            ..Default::default()
        };
        assert_eq!(out.total_iterations(), 8);
        out.assert_complete(2);
        assert_eq!(out.status_summary(), "2 ok, 0 recovered, 0 failed");
        assert!(out.failed_windows().is_empty());
    }

    #[test]
    fn status_summary_reports_failures() {
        use tempopr_kernel::PrStats;
        let mk = |w, status| WindowOutput {
            window: w,
            stats: PrStats::empty(),
            fingerprint: 0.0,
            ranks: None,
            status,
            attempts: 1,
        };
        let mut out = RunOutput {
            windows: vec![
                mk(0, WindowStatus::Ok),
                mk(
                    1,
                    WindowStatus::Recovered {
                        via: RecoveryKind::DenseOracle,
                    },
                ),
                mk(
                    2,
                    WindowStatus::Failed {
                        diagnostic: "kernel panicked".into(),
                    },
                ),
            ],
            ..Default::default()
        };
        out.finalize_status();
        assert!(out.degraded);
        assert_eq!(out.failed_windows(), vec![2]);
        let s = out.status_summary();
        assert!(s.contains("1 ok") && s.contains("1 recovered"), "{s}");
        assert!(s.contains("windows [2]"), "{s}");
    }

    #[test]
    #[should_panic(expected = "missing window outputs")]
    fn incomplete_output_panics() {
        RunOutput::default().assert_complete(1);
    }
}
