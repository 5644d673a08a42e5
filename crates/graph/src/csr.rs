//! Static CSR graphs, as rebuilt per-window by the *offline* execution model
//! (paper §3.3.1).
//!
//! The offline model extracts each window's events, deduplicates them into a
//! simple graph, and builds a fresh CSR before every PageRank run. The cost
//! of this construction is exactly what the postmortem representation
//! amortizes away, so the builder here is deliberately the natural,
//! well-optimized implementation (counting sort + per-row dedup) rather than
//! a strawman.

use crate::events::{Event, VertexId};

/// A compressed-sparse-row adjacency structure over `num_vertices` vertices.
///
/// `row` has `V + 1` entries; vertex `v`'s neighbors are
/// `col[row[v]..row[v+1]]`, sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_vertices: usize,
    row: Vec<usize>,
    col: Vec<VertexId>,
}

impl Csr {
    /// Builds a simple (deduplicated) CSR from edge pairs, each contributing
    /// both directions: the paper's treatment of event graphs (Fig. 3 stores
    /// both `(1,2)` and `(2,1)` for event `(1,2)`).
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for (u, v) in edges {
            debug_assert!((u as usize) < num_vertices && (v as usize) < num_vertices);
            pairs.push((u, v));
            if u != v {
                pairs.push((v, u));
            }
        }
        Self::from_pairs(num_vertices, pairs)
    }

    /// Builds a simple CSR from a window of events (offline model's
    /// per-window construction).
    pub fn from_events(num_vertices: usize, events: &[Event]) -> Self {
        let mut csr = Csr {
            num_vertices: 0,
            row: Vec::new(),
            col: Vec::new(),
        };
        csr.rebuild_from_events(num_vertices, events);
        csr
    }

    /// Rebuilds this CSR in place from a new window of events, reusing the
    /// row and column allocations of the previous window.
    ///
    /// Produces exactly the graph [`Csr::from_events`] would (bit-identical
    /// arrays), but a driver walking many same-universe windows reaches a
    /// steady state with zero allocations per rebuild — the adjacency of
    /// consecutive sliding windows has roughly constant size, so the
    /// buffers stop growing after the first few windows.
    pub fn rebuild_from_events(&mut self, num_vertices: usize, events: &[Event]) {
        self.num_vertices = num_vertices;
        let row = &mut self.row;
        row.clear();
        row.resize(num_vertices + 1, 0);
        for e in events {
            debug_assert!((e.u as usize) < num_vertices && (e.v as usize) < num_vertices);
            row[e.u as usize + 1] += 1;
            if e.u != e.v {
                row[e.v as usize + 1] += 1;
            }
        }
        for i in 0..num_vertices {
            row[i + 1] += row[i];
        }
        let total = row[num_vertices];
        self.col.clear();
        self.col.resize(total, 0);
        // Scatter, advancing row[v] from the start of v's range to its end
        // (afterwards row[v] holds v's end == v+1's start).
        for e in events {
            let c = &mut row[e.u as usize];
            self.col[*c] = e.v;
            *c += 1;
            if e.u != e.v {
                let c = &mut row[e.v as usize];
                self.col[*c] = e.u;
                *c += 1;
            }
        }
        // Sort and dedup each row in place, compacting col and restoring
        // row[v] to v's (post-dedup) start offset. `write <= start` always,
        // so compaction never overtakes the unread portion.
        let mut write = 0usize;
        let mut start = 0usize;
        for r in row.iter_mut().take(num_vertices) {
            let end = *r;
            self.col[start..end].sort_unstable();
            *r = write;
            let mut prev: Option<VertexId> = None;
            for i in start..end {
                let n = self.col[i];
                if prev != Some(n) {
                    self.col[write] = n;
                    write += 1;
                    prev = Some(n);
                }
            }
            start = end;
        }
        row[num_vertices] = write;
        self.col.truncate(write);
    }

    fn from_pairs(num_vertices: usize, mut pairs: Vec<(VertexId, VertexId)>) -> Self {
        // Counting sort by source, then sort+dedup each row. This is the
        // standard O(E log d) CSR build the offline model pays per window.
        let mut counts = vec![0usize; num_vertices + 1];
        for &(u, _) in &pairs {
            counts[u as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            counts[i + 1] += counts[i];
        }
        let mut col = vec![0 as VertexId; pairs.len()];
        let mut cursor = counts.clone();
        for &(u, v) in &pairs {
            let c = &mut cursor[u as usize];
            col[*c] = v;
            *c += 1;
        }
        pairs.clear();
        // Sort and dedup each row in place, compacting the col array.
        let mut row = vec![0usize; num_vertices + 1];
        let mut write = 0usize;
        for v in 0..num_vertices {
            let (lo, hi) = (counts[v], counts[v + 1]);
            let slice = &mut col[lo..hi];
            slice.sort_unstable();
            row[v] = write;
            let mut prev: Option<VertexId> = None;
            for i in lo..hi {
                let n = col[i];
                if prev != Some(n) {
                    col[write] = n;
                    write += 1;
                    prev = Some(n);
                }
            }
        }
        row[num_vertices] = write;
        col.truncate(write);
        Csr {
            num_vertices,
            row,
            col,
        }
    }

    /// Number of vertices in the universe (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (directed) edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// The sorted, deduplicated neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.col[self.row[v as usize]..self.row[v as usize + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.row[v as usize + 1] - self.row[v as usize]
    }

    /// The row-offsets array (`V + 1` entries).
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row
    }

    /// The concatenated adjacency array.
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col
    }

    /// Number of vertices with at least one incident stored edge.
    pub fn active_vertex_count(&self) -> usize {
        (0..self.num_vertices)
            .filter(|&v| self.row[v + 1] > self.row[v])
            .count()
    }

    /// Heap bytes held by the row/column arrays — the per-window
    /// construction cost the offline model's memory accounting reports.
    pub fn memory_bytes(&self) -> usize {
        self.row.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dedups_and_sorts() {
        let g = Csr::from_edges(5, vec![(0, 2), (0, 1), (0, 2), (3, 0), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn symmetric_build_adds_reverse() {
        let g = Csr::from_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn symmetric_self_loop_counted_once() {
        let g = Csr::from_edges(2, vec![(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn from_events_matches_from_edges() {
        let events = vec![
            Event::new(0, 1, 5),
            Event::new(0, 1, 9),
            Event::new(2, 0, 7),
        ];
        let g = Csr::from_events(3, &events);
        assert_eq!(g, Csr::from_edges(3, vec![(0, 1), (2, 0)]));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn active_vertex_count_ignores_isolated() {
        let g = Csr::from_edges(5, vec![(0, 1)]);
        assert_eq!(g.active_vertex_count(), 2);
    }

    #[test]
    fn rebuild_matches_fresh_build_and_reuses_buffers() {
        let windows: [&[Event]; 3] = [
            &[
                Event::new(0, 1, 1),
                Event::new(2, 3, 2),
                Event::new(0, 1, 3),
                Event::new(4, 0, 4),
            ],
            &[Event::new(3, 3, 5), Event::new(1, 2, 6)],
            &[],
        ];
        let mut csr = Csr::from_events(5, windows[0]);
        for events in &windows[1..] {
            let cap = (csr.row.capacity(), csr.col.capacity());
            csr.rebuild_from_events(5, events);
            assert_eq!(csr, Csr::from_events(5, events));
            // Later, no-larger windows reuse the existing allocations.
            assert_eq!(csr.row.capacity(), cap.0);
            assert_eq!(csr.col.capacity(), cap.1);
        }
    }

    #[test]
    fn empty_edge_list_yields_isolated_graph() {
        let g = Csr::from_edges(3, Vec::<(u32, u32)>::new());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.active_vertex_count(), 0);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
    }
}
