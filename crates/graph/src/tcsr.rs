//! The temporal CSR representation (paper §4.1, Fig. 3).
//!
//! A [`TemporalCsr`] is a CSR whose adjacency array carries one entry per
//! *event* rather than per edge, plus a parallel `timeA` array of
//! timestamps. Each vertex's entries are sorted by `(neighbor, time)`, so
//! the (possibly many) events between the same pair of vertices form a
//! contiguous *run* with ascending timestamps. An edge exists in window
//! `[Ts, Te]` iff its run contains a timestamp in that range, which a short
//! forward scan decides with early exit.
//!
//! Which runs a window holds is decided once per part: the part's
//! [`WindowIndex`](crate::WindowIndex) reads every stored timestamp in one
//! pass and keeps, for every run some window holds, its neighbor and the
//! bits of the windows holding it. The kernels read those bits (the SpMV
//! kernel filters the run list by its window's bit, the batched kernel
//! turns each window's bit into its lane), so a power iteration costs the
//! in-window runs, not the stored entries. The one pass still grows with
//! everything stored — which is why the representation is partitioned into
//! [multi-window graphs](crate::multiwindow) when the full log is much
//! larger than any single window.

use crate::events::{Event, EventLog, Timestamp, VertexId};
use crate::window::TimeRange;

/// Temporal CSR: `row` (V+1 offsets), `col` (event neighbor per entry),
/// `time` (event timestamp per entry), entries per vertex sorted by
/// `(neighbor, time)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalCsr {
    num_vertices: usize,
    row: Box<[usize]>,
    col: Box<[VertexId]>,
    time: Box<[Timestamp]>,
    /// Per-vertex `(min, max)` event timestamp — `(i64::MAX, i64::MIN)` for
    /// isolated vertices. Lets window passes skip vertices whose whole
    /// history misses the window without touching their adjacency.
    bounds: Box<[(Timestamp, Timestamp)]>,
}

/// A maximal group of consecutive entries of one vertex that share the same
/// neighbor: all the events ever observed between the pair, timestamps
/// ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborRun<'a> {
    /// The neighbor vertex.
    pub neighbor: VertexId,
    /// Event timestamps for this pair, ascending.
    pub times: &'a [Timestamp],
}

impl<'a> NeighborRun<'a> {
    /// Whether the edge exists in `range`: some event timestamp falls in
    /// `[range.start, range.end]`. Runs are short in practice, so a forward
    /// scan with early exit beats binary search and keeps the memory access
    /// pattern streaming.
    #[inline]
    pub fn active_in(&self, range: TimeRange) -> bool {
        run_active(self.times, range)
    }
}

/// Scan a sorted timestamp run for membership in `range`.
#[inline]
pub(crate) fn run_active(times: &[Timestamp], range: TimeRange) -> bool {
    for &t in times {
        if t > range.end {
            return false;
        }
        if t >= range.start {
            return true;
        }
    }
    false
}

/// Iterator over the neighbor runs of one vertex.
pub struct RunIter<'a> {
    col: &'a [VertexId],
    time: &'a [Timestamp],
    pos: usize,
}

impl<'a> Iterator for RunIter<'a> {
    type Item = NeighborRun<'a>;

    #[inline]
    fn next(&mut self) -> Option<NeighborRun<'a>> {
        if self.pos >= self.col.len() {
            return None;
        }
        let start = self.pos;
        let neighbor = self.col[start];
        let mut end = start + 1;
        while end < self.col.len() && self.col[end] == neighbor {
            end += 1;
        }
        self.pos = end;
        Some(NeighborRun {
            neighbor,
            times: &self.time[start..end],
        })
    }
}

/// Turns a histogram shifted by one (`hist[k + 1]` counts key `k`) into a
/// counting scatter's offsets (`hist[k]` = entries with a key below `k`).
fn prefix_sums(hist: &mut [usize]) {
    for i in 1..hist.len() {
        hist[i] += hist[i - 1];
    }
}

impl TemporalCsr {
    /// Builds the temporal CSR from an event log: each event `(u, v, t)`
    /// stores entries in both `u`'s and `v`'s adjacency (the paper's
    /// symmetrized window graphs, Fig. 3); a self-loop stores one.
    ///
    /// # Panics
    /// Panics if `symmetric` is `false`: every build is symmetric, and the
    /// flag stays only so that existing callers keep compiling.
    pub fn from_log(log: &EventLog, symmetric: bool) -> Self {
        assert!(symmetric, "temporal CSRs are symmetric-only");
        Self::from_time_sorted(log.num_vertices(), log.events(), |v| v)
    }

    /// Builds the temporal CSR from a raw slice of events in any order (one
    /// not in time order is copied and sorted in front of the one build path).
    ///
    /// ```
    /// use tempopr_graph::{Event, TemporalCsr, TimeRange};
    /// let t = TemporalCsr::from_events(
    ///     3,
    ///     &[Event::new(0, 1, 5), Event::new(0, 1, 50), Event::new(1, 2, 60)],
    /// );
    /// // Edge (0,1) exists in any window containing t=5 or t=50.
    /// assert_eq!(t.active_degree(0, TimeRange::new(0, 10)), 1);
    /// assert_eq!(t.active_degree(0, TimeRange::new(10, 40)), 0);
    /// // Within one window, the two (0,1) events count as one edge.
    /// assert_eq!(t.active_degree(0, TimeRange::new(0, 100)), 1);
    /// ```
    pub fn from_events(num_vertices: usize, events: &[Event]) -> Self {
        if events.windows(2).all(|w| w[0].t <= w[1].t) {
            return Self::from_time_sorted(num_vertices, events, |v| v);
        }
        let mut sorted = events.to_vec();
        sorted.sort_by_key(|e| e.t);
        Self::from_time_sorted(num_vertices, &sorted, |v| v)
    }

    /// The build: an LSD radix sort of the stored entries on `(source,
    /// neighbor)`, as two stable counting scatters over events in time
    /// order — by neighbor, then by source. Stability carries the time
    /// order through both, so rows come out sorted by `(neighbor, time)`
    /// with no comparison; what the scatters cannot order are equal
    /// `(u, v, t)` triples, which are indistinguishable. `local` renames
    /// vertex ids on the fly (a part's global -> local map). The
    /// intermediate is one 4-byte tag per entry: the event's index and, in
    /// the low bit, whether the entry is its mirror `(v -> u)`.
    ///
    /// # Panics
    /// Panics if `events` holds more than `2^31 - 1` events.
    pub(crate) fn from_time_sorted(
        num_vertices: usize,
        events: &[Event],
        local: impl Fn(VertexId) -> VertexId,
    ) -> Self {
        assert!(events.len() < 1 << 31, "event index must fit a 31-bit tag");
        let ends = |e: &Event| {
            let (u, v) = (local(e.u) as usize, local(e.v) as usize);
            debug_assert!(u.max(v) < num_vertices, "event vertex out of range");
            (u, v, u != v)
        };
        let mut row = vec![0usize; num_vertices + 1];
        let mut cursor = vec![0usize; num_vertices + 1];
        for e in events {
            let (u, v, mirrored) = ends(e);
            row[u + 1] += 1;
            cursor[v + 1] += 1;
            if mirrored {
                row[v + 1] += 1;
                cursor[u + 1] += 1;
            }
        }
        prefix_sums(&mut row);
        prefix_sums(&mut cursor);
        let total = row[num_vertices];
        let mut by_neighbor = vec![0u32; total];
        let mut place = |key: usize, tag: u32| {
            by_neighbor[cursor[key]] = tag;
            cursor[key] += 1;
        };
        for (i, e) in events.iter().enumerate() {
            let (u, v, mirrored) = ends(e);
            place(v, (i as u32) << 1);
            if mirrored {
                place(u, ((i as u32) << 1) | 1);
            }
        }
        cursor.copy_from_slice(&row);
        let mut col = vec![0 as VertexId; total];
        let mut time = vec![0 as Timestamp; total];
        for &tag in &by_neighbor {
            let e = &events[(tag >> 1) as usize];
            let (u, v, _) = ends(e);
            let (src, dst) = if tag & 1 == 0 { (u, v) } else { (v, u) };
            col[cursor[src]] = dst as VertexId;
            time[cursor[src]] = e.t;
            cursor[src] += 1;
        }
        Self::from_raw(num_vertices, row, col, time)
    }

    /// Assembles a CSR from its arrays — the last step of the build and
    /// the storage codec's constructor — computing the per-vertex time
    /// bounds in the one min/max pass both share, so a decoded CSR whose
    /// arrays match a built one is indistinguishable from it.
    pub(crate) fn from_raw(
        num_vertices: usize,
        row: Vec<usize>,
        col: Vec<VertexId>,
        time: Vec<Timestamp>,
    ) -> Self {
        debug_assert_eq!(row.len(), num_vertices + 1);
        debug_assert_eq!(col.len(), time.len());
        let mut bounds = vec![(Timestamp::MAX, Timestamp::MIN); num_vertices];
        for v in 0..num_vertices {
            for &t in &time[row[v]..row[v + 1]] {
                let b = &mut bounds[v];
                b.0 = b.0.min(t);
                b.1 = b.1.max(t);
            }
        }
        TemporalCsr {
            num_vertices,
            row: row.into_boxed_slice(),
            col: col.into_boxed_slice(),
            time: time.into_boxed_slice(),
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of stored entries (= twice the events, less one per
    /// self-loop).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.col.len()
    }

    /// Row offsets (`V + 1` entries) — the paper's `rowA`.
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row
    }

    /// Neighbor per entry — the paper's `colA`.
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col
    }

    /// Timestamp per entry — the paper's `timeA`.
    #[inline]
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.time
    }

    /// Iterates over the neighbor runs of vertex `v`.
    #[inline]
    pub fn runs(&self, v: VertexId) -> RunIter<'_> {
        let (lo, hi) = (self.row[v as usize], self.row[v as usize + 1]);
        RunIter {
            col: &self.col[lo..hi],
            time: &self.time[lo..hi],
            pos: 0,
        }
    }

    /// The raw `(col, time)` entry slices of vertex `v`.
    #[inline]
    pub fn entries(&self, v: VertexId) -> (&[VertexId], &[Timestamp]) {
        let (lo, hi) = (self.row[v as usize], self.row[v as usize + 1]);
        (&self.col[lo..hi], &self.time[lo..hi])
    }

    /// Iterates over the neighbors of `v` active in `range` (deduplicated:
    /// one yield per run with at least one in-window event).
    pub fn active_neighbors<'a>(
        &'a self,
        v: VertexId,
        range: TimeRange,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.runs(v)
            .filter(move |r| r.active_in(range))
            .map(|r| r.neighbor)
    }

    /// Whether `v` has *any* event whose timestamp could fall in `range`
    /// (constant-time pre-check from per-vertex time bounds; a `true` is
    /// necessary but not sufficient for window membership).
    #[inline]
    pub fn vertex_may_be_active(&self, v: VertexId, range: TimeRange) -> bool {
        let (lo, hi) = self.bounds[v as usize];
        lo <= range.end && hi >= range.start
    }

    /// Degree of `v` in the window `range` (distinct active neighbors).
    #[inline]
    pub fn active_degree(&self, v: VertexId, range: TimeRange) -> usize {
        if !self.vertex_may_be_active(v, range) {
            return 0;
        }
        self.runs(v).filter(|r| r.active_in(range)).count()
    }

    /// Fills `deg[v]` with the active degree of every vertex for `range`.
    /// `deg` must have `num_vertices` entries.
    pub fn active_degrees(&self, range: TimeRange, deg: &mut [u32]) {
        assert_eq!(deg.len(), self.num_vertices);
        for (v, d) in deg.iter_mut().enumerate() {
            *d = self.active_degree(v as VertexId, range) as u32;
        }
    }

    /// Total number of directed active edges in `range`
    /// (= Σ_v active_degree(v)).
    pub fn active_edge_count(&self, range: TimeRange) -> usize {
        (0..self.num_vertices)
            .map(|v| self.active_degree(v as VertexId, range))
            .sum()
    }

    /// Number of vertices with at least one active edge in `range` — the
    /// paper's per-window vertex set `|V_i|`.
    pub fn active_vertex_count(&self, range: TimeRange) -> usize {
        (0..self.num_vertices)
            .filter(|&v| {
                self.vertex_may_be_active(v as VertexId, range)
                    && self.runs(v as VertexId).any(|r| r.active_in(range))
            })
            .count()
    }

    /// Approximate heap footprint in bytes: `8*(V+1) + (4+8)*entries` plus
    /// the 16-byte per-vertex time bounds (the paper's
    /// `encoding * (V + 2E)` with mixed 32/64-bit encoding).
    pub fn memory_bytes(&self) -> usize {
        self.row.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<VertexId>()
            + self.time.len() * std::mem::size_of::<Timestamp>()
            + self.bounds.len() * std::mem::size_of::<(Timestamp, Timestamp)>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ev(u: u32, v: u32, t: i64) -> Event {
        Event::new(u, v, t)
    }

    /// The build the counting scatters replaced, kept as their oracle:
    /// scatter by source in input order, then comparison-sort every row by
    /// `(neighbor, time)`.
    pub(crate) fn comparison_sort_build(num_vertices: usize, events: &[Event]) -> TemporalCsr {
        let mut rows: Vec<Vec<(VertexId, Timestamp)>> = vec![Vec::new(); num_vertices];
        for e in events {
            rows[e.u as usize].push((e.v, e.t));
            if e.u != e.v {
                rows[e.v as usize].push((e.u, e.t));
            }
        }
        let mut row = vec![0usize];
        let (mut col, mut time) = (Vec::new(), Vec::new());
        for r in &mut rows {
            r.sort_unstable();
            col.extend(r.iter().map(|&(c, _)| c));
            time.extend(r.iter().map(|&(_, t)| t));
            row.push(col.len());
        }
        TemporalCsr::from_raw(num_vertices, row, col, time)
    }

    #[test]
    fn build_equals_comparison_sort_oracle_in_any_input_order() {
        // Self-loops, repeated triples, ties in time, an isolated vertex.
        let mut events = paper_example();
        events.extend([ev(3, 3, 20), ev(0, 1, 0), ev(0, 1, 0), ev(5, 2, 20)]);
        let reversed: Vec<Event> = events.iter().rev().copied().collect();
        let oracle = comparison_sort_build(9, &events);
        assert_eq!(TemporalCsr::from_events(9, &events), oracle);
        assert_eq!(TemporalCsr::from_events(9, &reversed), oracle);
        let log = EventLog::from_unsorted(events.clone(), 9).unwrap();
        assert_eq!(TemporalCsr::from_log(&log, true), oracle);
        assert_eq!(
            TemporalCsr::from_events(0, &[]),
            comparison_sort_build(0, &[])
        );
    }

    /// The 7-vertex example of the paper's Fig. 2/3, with vertex ids shifted
    /// to 0-based and dates mapped to day numbers (06/21 -> 0, etc.).
    fn paper_example() -> Vec<Event> {
        vec![
            ev(0, 1, 0),   // 06/21
            ev(2, 4, 4),   // 06/25
            ev(3, 5, 20),  // 07/11
            ev(1, 2, 41),  // 08/01
            ev(1, 3, 51),  // 08/11
            ev(4, 5, 84),  // 09/13
            ev(1, 6, 103), // 10/02
            ev(3, 6, 106), // 10/05
            ev(4, 6, 107), // 10/06
            ev(5, 6, 110), // 10/09
            ev(0, 1, 137), // 11/05
            ev(0, 2, 138), // 11/06
            ev(1, 4, 141), // 11/09
            ev(2, 4, 144), // 11/12
        ]
    }

    #[test]
    fn build_sorts_runs_by_neighbor_then_time() {
        let t = TemporalCsr::from_events(7, &paper_example());
        // Vertex 0 (paper's vertex 1): neighbors 1 (t=0,137) and 2 (t=138).
        let runs: Vec<(u32, Vec<i64>)> =
            t.runs(0).map(|r| (r.neighbor, r.times.to_vec())).collect();
        assert_eq!(runs, vec![(1, vec![0, 137]), (2, vec![138])]);
        // Vertex 1 (paper's vertex 2) has 6 entries: 0(x2), 2, 3, 4, 6.
        let runs: Vec<u32> = t.runs(1).map(|r| r.neighbor).collect();
        assert_eq!(runs, vec![0, 2, 3, 4, 6]);
        assert_eq!(t.entries(1).0.len(), 6);
    }

    #[test]
    fn entry_count_is_twice_events_for_symmetric() {
        let events = paper_example();
        let t = TemporalCsr::from_events(7, &events);
        assert_eq!(t.num_entries(), 2 * events.len());
    }

    #[test]
    fn self_loops_stored_once_in_symmetric_build() {
        let t = TemporalCsr::from_events(2, &[ev(0, 0, 3), ev(0, 1, 4)]);
        assert_eq!(t.num_entries(), 3);
        let runs: Vec<u32> = t.runs(0).map(|r| r.neighbor).collect();
        assert_eq!(runs, vec![0, 1]);
    }

    #[test]
    fn run_active_scans_inclusive() {
        let r = TimeRange::new(10, 20);
        assert!(run_active(&[10], r));
        assert!(run_active(&[20], r));
        assert!(run_active(&[1, 15, 99], r));
        assert!(!run_active(&[1, 9, 21, 99], r));
        assert!(!run_active(&[], r));
    }

    #[test]
    fn window_membership_matches_paper_intervals() {
        // Paper Fig. 2a: T1 = days [-20, 86] approx (6/1 - 9/15). With our
        // day numbering (06/21 = 0), T1 ≈ [-20, 86], T2 ≈ [10, 116],
        // T3 ≈ [41, 208].
        let t = TemporalCsr::from_events(7, &paper_example());
        let t1 = TimeRange::new(-20, 86);
        let t2 = TimeRange::new(10, 116);
        let t3 = TimeRange::new(41, 208);
        // Edge (1,2) [paper (2,3)] arrives 08/01 = day 41: active in all.
        assert!(t.runs(1).find(|r| r.neighbor == 2).unwrap().active_in(t1));
        assert!(t.runs(1).find(|r| r.neighbor == 2).unwrap().active_in(t2));
        assert!(t.runs(1).find(|r| r.neighbor == 2).unwrap().active_in(t3));
        // Edge (0,1) [paper (1,2)] arrives day 0 and day 137: active in T1
        // and T3 but *not* T2.
        let run_presence = |range| {
            t.runs(0)
                .find(|r| r.neighbor == 1)
                .unwrap()
                .active_in(range)
        };
        assert!(run_presence(t1));
        assert!(!run_presence(t2));
        assert!(run_presence(t3));
        // Edge (1,6) [paper (2,7)] arrives 10/02 = day 103: T2 and T3 only.
        let run_presence = |range| {
            t.runs(1)
                .find(|r| r.neighbor == 6)
                .unwrap()
                .active_in(range)
        };
        assert!(!run_presence(t1));
        assert!(run_presence(t2));
        assert!(run_presence(t3));
    }

    #[test]
    fn active_degree_dedups_multi_events() {
        // Two events on the same pair within the window: degree counts 1.
        let t = TemporalCsr::from_events(2, &[ev(0, 1, 5), ev(0, 1, 7)]);
        assert_eq!(t.active_degree(0, TimeRange::new(0, 10)), 1);
        assert_eq!(t.active_degree(0, TimeRange::new(6, 10)), 1);
        assert_eq!(t.active_degree(0, TimeRange::new(8, 10)), 0);
    }

    #[test]
    fn active_counts_and_vertex_sets() {
        let t = TemporalCsr::from_events(7, &paper_example());
        let t1 = TimeRange::new(-20, 86);
        // T1 active edges (paper Fig. 2a): (1,2),(3,5),(4,6),(2,3),(2,4),(5,6)
        // in 1-based ids = 6 undirected edges = 12 directed.
        assert_eq!(t.active_edge_count(t1), 12);
        assert_eq!(t.active_vertex_count(t1), 6); // vertex 7 (0-based 6) absent
    }

    #[test]
    fn active_degrees_bulk_matches_single() {
        let t = TemporalCsr::from_events(7, &paper_example());
        let range = TimeRange::new(10, 116);
        let mut deg = vec![0u32; 7];
        t.active_degrees(range, &mut deg);
        for v in 0..7u32 {
            assert_eq!(deg[v as usize] as usize, t.active_degree(v, range));
        }
    }

    #[test]
    fn from_log_equals_from_events() {
        let events = paper_example();
        let log = EventLog::from_unsorted(events.clone(), 7).unwrap();
        let a = TemporalCsr::from_log(&log, true);
        let b = TemporalCsr::from_events(7, &events);
        assert_eq!(a, b);
    }

    #[test]
    fn time_bounds_prune_correctly() {
        let events = [ev(0, 1, 10), ev(2, 3, 100)];
        let t = TemporalCsr::from_events(4, &events);
        // Vertex 0's only event is at t=10.
        assert!(t.vertex_may_be_active(0, TimeRange::new(0, 20)));
        assert!(!t.vertex_may_be_active(0, TimeRange::new(50, 200)));
        assert!(t.vertex_may_be_active(2, TimeRange::new(50, 200)));
        // The pruned degree equals a brute-force count over the events.
        for v in 0..4u32 {
            for range in [
                TimeRange::new(0, 20),
                TimeRange::new(50, 200),
                TimeRange::new(0, 5),
            ] {
                let brute = events
                    .iter()
                    .filter(|e| range.contains(e.t) && (e.u == v || e.v == v))
                    .count();
                assert_eq!(
                    t.active_degree(v, range),
                    brute,
                    "vertex {v} range {range:?}"
                );
            }
        }
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let t = TemporalCsr::from_events(2, &[ev(0, 1, 5)]);
        // row: 3*8, col: 2*4, time: 2*8, bounds: 2*16
        assert_eq!(t.memory_bytes(), 24 + 8 + 16 + 32);
    }
}
