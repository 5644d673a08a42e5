//! Multi-window graphs (paper §4.1).
//!
//! When the analysis spans many windows, the full temporal CSR stores every
//! event, so a single SpMV costs `Θ(|Events|)` regardless of how few edges a
//! particular window has. The fix is to partition the window sequence into
//! `Y` *multi-window graphs*, each a temporal CSR over only the events whose
//! timestamps fall in its group's time span, with vertices renumbered to a
//! dense local id space. SpMV for a window then costs `Θ(|E_w|)` of its
//! multi-window, at the price of duplicating events that straddle group
//! boundaries (`Σ_w |E_w| >= |Events|`).

use crate::error::GraphError;
use crate::events::{Event, EventLog, VertexId};
use crate::tcsr::TemporalCsr;
use crate::window::{TimeRange, WindowSpec};
use crate::windowindex::{WindowIndex, WindowIndexView};
use std::ops::Range;
use std::sync::OnceLock;

/// How windows are grouped into multi-window graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Equal number of windows per group — the paper's scheme
    /// ("we distribute the graphs uniformly to the multi-window graphs").
    #[default]
    EqualWindows,
    /// Group boundaries chosen so groups hold roughly equal numbers of
    /// events — the balanced decomposition the paper's §7 leaves as future
    /// work.
    EqualEvents,
}

/// One multi-window graph: a contiguous group of windows plus the temporal
/// CSR of the events in their joint time span, over a local vertex space.
#[derive(Debug)]
pub struct MultiWindowGraph {
    windows: Range<usize>,
    span: TimeRange,
    /// Sorted map local id -> global id.
    vertices: Box<[VertexId]>,
    tcsr: TemporalCsr,
    /// In-edge transpose, present only for directed builds (symmetric
    /// builds pull and push from the same structure).
    transpose: Option<TemporalCsr>,
    /// Time range of each served window, aligned with `windows`.
    ranges: Box<[TimeRange]>,
    /// Per-window activity/degree index, built lazily on first use.
    index: OnceLock<WindowIndex>,
}

impl Clone for MultiWindowGraph {
    fn clone(&self) -> Self {
        // OnceLock is not Clone; carry over an already-built index so a
        // clone doesn't silently lose the precomputation.
        let index = OnceLock::new();
        if let Some(built) = self.index.get() {
            let _ = index.set(built.clone());
        }
        MultiWindowGraph {
            windows: self.windows.clone(),
            span: self.span,
            vertices: self.vertices.clone(),
            tcsr: self.tcsr.clone(),
            transpose: self.transpose.clone(),
            ranges: self.ranges.clone(),
            index,
        }
    }
}

impl MultiWindowGraph {
    /// Global indices of the windows this graph serves.
    #[inline]
    pub fn windows(&self) -> Range<usize> {
        self.windows.clone()
    }

    /// Number of windows served.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// Whether global window `i` belongs to this graph.
    #[inline]
    pub fn contains_window(&self, i: usize) -> bool {
        self.windows.contains(&i)
    }

    /// The joint time span of all served windows.
    #[inline]
    pub fn span(&self) -> TimeRange {
        self.span
    }

    /// The local temporal CSR of out-edges (vertex ids are local).
    #[inline]
    pub fn tcsr(&self) -> &TemporalCsr {
        &self.tcsr
    }

    /// The in-edge structure for pull-style kernels: the stored transpose
    /// for a directed build, the out-structure itself for a symmetric one.
    #[inline]
    pub fn pull_tcsr(&self) -> &TemporalCsr {
        self.transpose.as_ref().unwrap_or(&self.tcsr)
    }

    /// Number of local vertices `|V_w|` (vertices appearing in the span).
    #[inline]
    pub fn num_local_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Maps a local vertex id back to its global id.
    #[inline]
    pub fn global_id(&self, local: VertexId) -> VertexId {
        self.vertices[local as usize]
    }

    /// The sorted local -> global vertex map.
    #[inline]
    pub fn vertex_map(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Maps a global vertex id to its local id, if present in this graph.
    pub fn local_id(&self, global: VertexId) -> Option<VertexId> {
        self.vertices
            .binary_search(&global)
            .ok()
            .map(|i| i as VertexId)
    }

    /// The time range of each served window, aligned with [`Self::windows`].
    #[inline]
    pub fn window_ranges(&self) -> &[TimeRange] {
        &self.ranges
    }

    /// The window index, building it on first use.
    ///
    /// The build is a single pass over this part's pull runs deciding every
    /// served window's runs (a directed part adds a pass over its push runs
    /// for out-degrees); afterwards a kernel reads window bits instead of
    /// timestamps, and its degree/activity setup for window `w` is an
    /// `O(|V_w active|)` copy out of [`Self::index_view`]. Thread-safe:
    /// concurrent callers block on one build.
    pub fn window_index(&self) -> &WindowIndex {
        self.index
            .get_or_init(|| WindowIndex::build(&self.tcsr, self.transpose.as_ref(), &self.ranges))
    }

    /// The index if it has already been built (e.g. for memory accounting
    /// without forcing a build).
    #[inline]
    pub fn window_index_built(&self) -> Option<&WindowIndex> {
        self.index.get()
    }

    /// The index view of **global** window `i`, building the index on
    /// first use.
    ///
    /// # Panics
    /// Panics if this graph does not serve window `i`.
    pub fn index_view(&self, window: usize) -> WindowIndexView<'_> {
        assert!(
            self.contains_window(window),
            "window {window} not served by part covering {:?}",
            self.windows
        );
        self.window_index().view(window - self.windows.start)
    }

    /// Approximate heap footprint in bytes (vertex map + temporal CSR(s) +
    /// window ranges + the activity index if built).
    pub fn memory_bytes(&self) -> usize {
        self.storage_bytes() + self.index.get().map_or(0, |i| i.memory_bytes())
    }

    /// The array-only footprint (vertex map + temporal CSR(s) + window
    /// ranges), excluding the lazily built activity index. This is the
    /// deterministic "decoded part" cost the storage backends budget
    /// against: it is the same number whether the part was just built or
    /// just decoded, while [`Self::memory_bytes`] grows once the index is
    /// forced.
    pub fn storage_bytes(&self) -> usize {
        self.vertices.len() * std::mem::size_of::<VertexId>()
            + self.tcsr.memory_bytes()
            + self.transpose.as_ref().map_or(0, |t| t.memory_bytes())
            + self.ranges.len() * std::mem::size_of::<TimeRange>()
    }

    /// The stored transpose, when this is a directed build (`pull_tcsr`
    /// hides the distinction; the storage codec must preserve it).
    pub(crate) fn transpose_tcsr(&self) -> Option<&TemporalCsr> {
        self.transpose.as_ref()
    }

    /// Reassembles a part from decoded components (the storage codec's
    /// constructor; invariants — sorted vertex map, per-row sorted CSR —
    /// are the encoder's responsibility and hold for any payload that
    /// passed decode validation).
    pub(crate) fn from_raw_parts(
        windows: Range<usize>,
        span: TimeRange,
        vertices: Box<[VertexId]>,
        tcsr: TemporalCsr,
        transpose: Option<TemporalCsr>,
        ranges: Box<[TimeRange]>,
    ) -> MultiWindowGraph {
        MultiWindowGraph {
            windows,
            span,
            vertices,
            tcsr,
            transpose,
            ranges,
            index: OnceLock::new(),
        }
    }
}

/// Error from [`MultiWindowSet::visit_parts`]: either the partition could
/// not be formed at all, or the visitor bailed on some part.
#[derive(Debug)]
pub enum VisitError<E> {
    /// The partition itself is invalid (e.g. zero parts requested).
    Graph(GraphError),
    /// The visitor returned an error for one part.
    Visitor(E),
}

/// The complete postmortem representation: the window spec plus the
/// multi-window graphs covering it.
#[derive(Debug, Clone)]
pub struct MultiWindowSet {
    spec: WindowSpec,
    graphs: Vec<MultiWindowGraph>,
    num_global_vertices: usize,
}

impl MultiWindowSet {
    /// Partitions `spec`'s windows into (at most) `num_parts` groups and
    /// builds one [`MultiWindowGraph`] per group.
    ///
    /// `num_parts` is clamped to the window count. Events outside every
    /// window's span are dropped.
    pub fn build(
        log: &EventLog,
        spec: WindowSpec,
        num_parts: usize,
        symmetric: bool,
        strategy: PartitionStrategy,
    ) -> Result<Self, GraphError> {
        let mut graphs = Vec::new();
        Self::visit_parts::<std::convert::Infallible>(
            log,
            spec,
            num_parts,
            symmetric,
            strategy,
            |g| {
                graphs.push(g);
                Ok(())
            },
        )
        .map_err(|e| match e {
            VisitError::Graph(g) => g,
            VisitError::Visitor(i) => match i {},
        })?;
        Ok(MultiWindowSet {
            spec,
            graphs,
            num_global_vertices: log.num_vertices(),
        })
    }

    /// Streaming variant of [`MultiWindowSet::build`]: builds the parts
    /// one at a time and hands each to `f`, so a caller that encodes or
    /// spills parts (the compressed and on-disk storage backends) never
    /// holds more than one resident part. Returns the effective part count
    /// (`num_parts` clamped to the window count).
    pub fn visit_parts<E>(
        log: &EventLog,
        spec: WindowSpec,
        num_parts: usize,
        symmetric: bool,
        strategy: PartitionStrategy,
        mut f: impl FnMut(MultiWindowGraph) -> Result<(), E>,
    ) -> Result<usize, VisitError<E>> {
        let boundaries =
            part_boundaries(log, &spec, num_parts, strategy).map_err(VisitError::Graph)?;
        // Reusable global -> local scratch map (u32::MAX = absent).
        let mut local_of = vec![VertexId::MAX; log.num_vertices()];
        for b in boundaries.windows(2) {
            let windows = b[0]..b[1];
            let span = spec.span_of(windows.clone());
            let events = log.slice_by_time(span.start, span.end);
            let ranges: Vec<TimeRange> = windows.clone().map(|w| spec.window(w)).collect();
            let part = build_part(windows, span, ranges, events, symmetric, &mut local_of);
            f(part).map_err(VisitError::Visitor)?;
        }
        Ok(boundaries.len() - 1)
    }

    /// The window spec this set covers.
    #[inline]
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Number of multi-window graphs `Y`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.graphs.len()
    }

    /// Size of the global vertex universe.
    #[inline]
    pub fn num_global_vertices(&self) -> usize {
        self.num_global_vertices
    }

    /// All multi-window graphs, in window order.
    #[inline]
    pub fn graphs(&self) -> &[MultiWindowGraph] {
        &self.graphs
    }

    /// Consumes the set, yielding its graphs in window order.
    #[inline]
    pub fn into_graphs(self) -> Vec<MultiWindowGraph> {
        self.graphs
    }

    /// Total stored entries across all parts (>= entries of the single
    /// temporal CSR, because straddling events are duplicated).
    pub fn total_entries(&self) -> usize {
        self.graphs.iter().map(|g| g.tcsr().num_entries()).sum()
    }

    /// Approximate total heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.graphs.iter().map(|g| g.memory_bytes()).sum()
    }
}

/// The paper's memory rule (§4.1) — "a window graph should be accommodated
/// by the system memory when computing Pagerank" — generalized over the
/// storage backends. Returns the smallest part count whose resident
/// footprint under `profile` fits `budget_bytes`: the footprint of the
/// *actual* built parts and their actual encoded sizes, which a candidate
/// is built for only when its per-part counts cannot already rule it out
/// ([`crate::storage::plan_partition`]).
///
/// An infeasible budget — even one part per window does not fit — is a
/// typed [`crate::storage::BudgetError`] carrying the minimal feasible
/// budget.
pub fn parts_for_memory_budget(
    log: &EventLog,
    spec: &WindowSpec,
    budget_bytes: usize,
    symmetric: bool,
    profile: crate::storage::StorageProfile,
) -> Result<usize, crate::storage::BudgetError> {
    crate::storage::plan_parts_for_budget(
        log,
        spec,
        budget_bytes,
        symmetric,
        PartitionStrategy::EqualWindows,
        profile,
        1,
    )
}

/// The window fenceposts of the partition into `num_parts` groups (clamped
/// to the window count): part `p` serves windows `b[p]..b[p + 1]`. Shared
/// by the build and the budget planner's counting pass.
pub(crate) fn part_boundaries(
    log: &EventLog,
    spec: &WindowSpec,
    num_parts: usize,
    strategy: PartitionStrategy,
) -> Result<Vec<usize>, GraphError> {
    if num_parts == 0 {
        return Err(GraphError::ZeroMultiWindows);
    }
    let parts = num_parts.min(spec.count);
    let boundaries = match strategy {
        PartitionStrategy::EqualWindows => equal_window_boundaries(spec.count, parts),
        PartitionStrategy::EqualEvents => equal_event_boundaries(log, spec, parts),
    };
    debug_assert_eq!(boundaries.len(), parts + 1);
    Ok(boundaries)
}

/// Equal-count window boundaries: `parts + 1` fenceposts, first group(s)
/// take the ceiling share.
fn equal_window_boundaries(count: usize, parts: usize) -> Vec<usize> {
    let mut b = Vec::with_capacity(parts + 1);
    for p in 0..=parts {
        // Balanced split: part p starts at floor(p * count / parts).
        b.push(p * count / parts);
    }
    b
}

/// Boundaries chosen so each group's span holds roughly `total/parts`
/// events, while every group keeps at least one window.
///
/// Window ends are nondecreasing in `w`, so a single forward cursor over
/// the time-sorted event list tracks how many events fall at or before the
/// current candidate window's end — `O(W + E)` total, instead of one
/// `O(log E)` binary search per candidate window per boundary (which
/// degraded to `Θ(W · log E)` on heavily skewed logs where the cursor
/// barely advances between boundaries).
fn equal_event_boundaries(log: &EventLog, spec: &WindowSpec, parts: usize) -> Vec<usize> {
    let total = log.len();
    let events = log.events();
    let mut b = Vec::with_capacity(parts + 1);
    b.push(0usize);
    let mut w = 0usize;
    // Events with `t <= spec.window(w).end` seen so far; only ever moves
    // forward because window ends are nondecreasing.
    let mut consumed = 0usize;
    for p in 1..parts {
        let target = p * total / parts;
        // Advance w until the events at or before window w's end reach the
        // target, but leave at least one window per remaining group.
        let max_w = spec.count - (parts - p);
        while w + 1 < max_w {
            let end = spec.window(w).end;
            while consumed < total && events[consumed].t <= end {
                consumed += 1;
            }
            if consumed >= target {
                break;
            }
            w += 1;
        }
        w = (w + 1).min(max_w);
        b.push(w);
    }
    b.push(spec.count);
    b
}

fn build_part(
    windows: Range<usize>,
    span: TimeRange,
    ranges: Vec<TimeRange>,
    events: &[Event],
    symmetric: bool,
    local_of: &mut [VertexId],
) -> MultiWindowGraph {
    // Collect the distinct vertices of this span, sorted for binary-search
    // lookup of global ids later.
    let mut vertices: Vec<VertexId> = Vec::new();
    for e in events {
        for x in [e.u, e.v] {
            if local_of[x as usize] == VertexId::MAX {
                local_of[x as usize] = 0; // mark seen
                vertices.push(x);
            }
        }
    }
    vertices.sort_unstable();
    for (i, &g) in vertices.iter().enumerate() {
        local_of[g as usize] = i as VertexId;
    }
    // Build the local temporal CSR, renaming to local ids as entries are
    // scattered (the log's slice is already in time order).
    let local = |g: VertexId| local_of[g as usize];
    let tcsr = TemporalCsr::from_time_sorted(vertices.len(), events, symmetric, local);
    let transpose = (!symmetric).then(|| tcsr.transpose());
    // Reset the scratch map for the next part.
    for &g in &vertices {
        local_of[g as usize] = VertexId::MAX;
    }
    MultiWindowGraph {
        windows,
        span,
        vertices: vertices.into_boxed_slice(),
        tcsr,
        transpose,
        ranges: ranges.into_boxed_slice(),
        index: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(u: u32, v: u32, t: i64) -> Event {
        Event::new(u, v, t)
    }

    fn log() -> EventLog {
        EventLog::from_sorted(
            vec![
                ev(0, 1, 0),
                ev(1, 2, 10),
                ev(2, 3, 20),
                ev(3, 4, 30),
                ev(4, 5, 40),
                ev(5, 6, 50),
                ev(6, 7, 60),
                ev(7, 0, 70),
            ],
            8,
        )
        .unwrap()
    }

    #[test]
    fn equal_window_boundaries_are_balanced() {
        assert_eq!(equal_window_boundaries(8, 2), vec![0, 4, 8]);
        assert_eq!(equal_window_boundaries(7, 3), vec![0, 2, 4, 7]);
        assert_eq!(equal_window_boundaries(3, 3), vec![0, 1, 2, 3]);
        assert_eq!(equal_window_boundaries(5, 1), vec![0, 5]);
    }

    #[test]
    fn build_covers_all_windows_contiguously() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap(); // 8 windows
        let set =
            MultiWindowSet::build(&log, spec, 3, true, PartitionStrategy::EqualWindows).unwrap();
        assert_eq!(set.num_parts(), 3);
        let mut next = 0;
        for g in set.graphs() {
            assert_eq!(g.windows().start, next);
            next = g.windows().end;
        }
        assert_eq!(next, spec.count);
    }

    #[test]
    fn parts_clamped_to_window_count() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 40).unwrap(); // 2 windows
        let set =
            MultiWindowSet::build(&log, spec, 10, true, PartitionStrategy::EqualWindows).unwrap();
        assert_eq!(set.num_parts(), 2);
    }

    #[test]
    fn zero_parts_rejected() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        assert_eq!(
            MultiWindowSet::build(&log, spec, 0, true, PartitionStrategy::EqualWindows)
                .unwrap_err(),
            GraphError::ZeroMultiWindows
        );
    }

    #[test]
    fn local_vertex_maps_roundtrip() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 4, true, PartitionStrategy::EqualWindows).unwrap();
        for g in set.graphs() {
            for local in 0..g.num_local_vertices() as u32 {
                let global = g.global_id(local);
                assert_eq!(g.local_id(global), Some(local));
            }
            // A vertex absent from the span maps to None. Part 0 spans
            // windows near t=0 and must not contain vertex 7's id unless an
            // event in span references it.
        }
    }

    #[test]
    fn straddling_events_are_duplicated() {
        let log = log();
        let spec = WindowSpec::covering(&log, 25, 10).unwrap(); // overlapping windows
        let set =
            MultiWindowSet::build(&log, spec, 4, true, PartitionStrategy::EqualWindows).unwrap();
        // Entries across parts exceed the single-CSR entry count because
        // overlapping spans duplicate events.
        let single = TemporalCsr::from_log(&log, true);
        assert!(set.total_entries() >= single.num_entries());
    }

    #[test]
    fn per_part_edges_match_bruteforce() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 3, true, PartitionStrategy::EqualWindows).unwrap();
        // For every window, the set of active edges (in global ids) equals
        // the brute-force filter of the event list.
        for (w, g) in set
            .graphs()
            .iter()
            .flat_map(|g| g.windows().map(move |w| (w, g)))
        {
            let range = spec.window(w);
            let mut got: Vec<(u32, u32)> = Vec::new();
            for lv in 0..g.num_local_vertices() as u32 {
                for n in g.tcsr().active_neighbors(lv, range) {
                    got.push((g.global_id(lv), g.global_id(n)));
                }
            }
            got.sort_unstable();
            let mut expect: Vec<(u32, u32)> = Vec::new();
            for e in log.events() {
                if range.contains(e.t) {
                    expect.push((e.u, e.v));
                    expect.push((e.v, e.u));
                }
            }
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(got, expect, "window {w}");
        }
    }

    #[test]
    fn equal_events_boundaries_cover_and_are_monotonic() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        for parts in 1..=4 {
            let b = equal_event_boundaries(&log, &spec, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), spec.count);
            for w in b.windows(2) {
                assert!(w[0] < w[1], "boundaries must strictly increase: {b:?}");
            }
        }
    }

    #[test]
    fn equal_events_strategy_builds_valid_set() {
        // Skewed log: most events early.
        let mut events = Vec::new();
        for i in 0..50 {
            events.push(ev(i % 5, (i + 1) % 5, (i / 10) as i64));
        }
        events.push(ev(0, 1, 100));
        events.push(ev(1, 2, 200));
        let log = EventLog::from_unsorted(events, 5).unwrap();
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 4, true, PartitionStrategy::EqualEvents).unwrap();
        let mut next = 0;
        for g in set.graphs() {
            assert_eq!(g.windows().start, next);
            assert!(!g.windows().is_empty());
            next = g.windows().end;
        }
        assert_eq!(next, spec.count);
    }

    #[test]
    fn memory_budget_rule_picks_feasible_minimum() {
        use crate::storage::StorageProfile;
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        // A huge budget needs only one part.
        assert_eq!(
            parts_for_memory_budget(&log, &spec, usize::MAX, true, StorageProfile::Resident)
                .unwrap(),
            1
        );
        // A tiny budget is infeasible even at one part per window: typed
        // error carrying the minimal feasible budget, not a silent
        // fallback.
        let err =
            parts_for_memory_budget(&log, &spec, 1, true, StorageProfile::Resident).unwrap_err();
        assert_eq!(err.budget, 1);
        assert!(err.required > 1);
        // A middling budget: the chosen count is feasible on the actual
        // build (the rule now measures real parts, so this is exact).
        let set1 =
            MultiWindowSet::build(&log, spec, 1, true, PartitionStrategy::EqualWindows).unwrap();
        let budget = set1.graphs()[0].storage_bytes() / 2;
        let parts =
            parts_for_memory_budget(&log, &spec, budget, true, StorageProfile::Resident).unwrap();
        assert!(parts >= 2);
        let set = MultiWindowSet::build(&log, spec, parts, true, PartitionStrategy::EqualWindows)
            .unwrap();
        let worst = set
            .graphs()
            .iter()
            .map(|g| g.storage_bytes())
            .max()
            .unwrap();
        assert!(
            worst <= budget,
            "worst part {worst} exceeds budget {budget}"
        );
    }

    #[test]
    fn visit_parts_streams_the_same_parts_build_collects() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 3, false, PartitionStrategy::EqualWindows).unwrap();
        let mut seen = 0usize;
        let n = MultiWindowSet::visit_parts::<std::convert::Infallible>(
            &log,
            spec,
            3,
            false,
            PartitionStrategy::EqualWindows,
            |g| {
                assert_eq!(g.windows(), set.graphs()[seen].windows());
                assert_eq!(g.vertex_map(), set.graphs()[seen].vertex_map());
                assert_eq!(
                    g.tcsr().col_indices(),
                    set.graphs()[seen].tcsr().col_indices()
                );
                seen += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(seen, set.num_parts());
    }

    #[test]
    fn visit_parts_propagates_visitor_errors() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let r = MultiWindowSet::visit_parts::<&'static str>(
            &log,
            spec,
            2,
            true,
            PartitionStrategy::EqualWindows,
            |_| Err("bail"),
        );
        assert!(matches!(r, Err(VisitError::Visitor("bail"))));
    }

    /// Reference implementation of [`equal_event_boundaries`]: the original
    /// per-candidate binary-search formulation, kept only to pin the
    /// incremental-cursor rewrite's output.
    fn equal_event_boundaries_reference(
        log: &EventLog,
        spec: &WindowSpec,
        parts: usize,
    ) -> Vec<usize> {
        let total = log.len();
        let mut b = vec![0usize];
        let mut w = 0usize;
        for p in 1..parts {
            let target = p * total / parts;
            let max_w = spec.count - (parts - p);
            while w + 1 < max_w {
                let end = spec.window(w).end;
                let consumed = log.index_range_by_time(log.first_time(), end).end;
                if consumed >= target {
                    break;
                }
                w += 1;
            }
            w += 1;
            b.push(w.min(max_w));
            w = *b.last().unwrap();
        }
        b.push(spec.count);
        b
    }

    #[test]
    fn equal_events_incremental_cursor_matches_reference_on_skewed_logs() {
        // Heavily skewed logs are the regression case: almost all events in
        // a tiny time slice, then a long sparse tail of windows the cursor
        // must walk through without re-searching the dense prefix.
        let skews: [Vec<Event>; 3] = [
            // Dense burst at the start, sparse tail.
            (0..400)
                .map(|i| {
                    ev(
                        i % 7,
                        (i + 3) % 7,
                        if i < 380 { (i % 5) as i64 } else { i as i64 },
                    )
                })
                .collect(),
            // Dense burst at the end.
            (0..400)
                .map(|i| ev(i % 7, (i + 3) % 7, if i < 20 { i as i64 } else { 395 }))
                .collect(),
            // Dense burst in the middle.
            (0..400)
                .map(|i| {
                    ev(
                        i % 7,
                        (i + 3) % 7,
                        if (180..220).contains(&i) {
                            200
                        } else {
                            i as i64
                        },
                    )
                })
                .collect(),
        ];
        for events in skews {
            let log = EventLog::from_unsorted(events, 7).unwrap();
            for (delta, sw) in [(10, 5), (25, 10), (5, 20)] {
                let spec = WindowSpec::covering(&log, delta, sw).unwrap();
                for parts in 1..=spec.count.min(9) {
                    assert_eq!(
                        equal_event_boundaries(&log, &spec, parts),
                        equal_event_boundaries_reference(&log, &spec, parts),
                        "delta={delta} sw={sw} parts={parts}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_ranges_match_spec() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 3, true, PartitionStrategy::EqualWindows).unwrap();
        for g in set.graphs() {
            let ranges = g.window_ranges();
            assert_eq!(ranges.len(), g.num_windows());
            for (j, w) in g.windows().enumerate() {
                assert_eq!(ranges[j], spec.window(w));
            }
        }
    }

    #[test]
    fn window_index_lazy_build_and_clone_carryover() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 2, true, PartitionStrategy::EqualWindows).unwrap();
        let g = &set.graphs()[0];
        assert!(g.window_index_built().is_none());
        let before = g.memory_bytes();
        let idx = g.window_index();
        assert_eq!(idx.num_windows(), g.num_windows());
        // Memory accounting includes the built index.
        assert!(g.memory_bytes() > before);
        // Cloning preserves an already-built index; cloning an unbuilt one
        // stays unbuilt.
        let cloned = g.clone();
        assert_eq!(cloned.window_index_built(), Some(idx));
        let unbuilt = &set.graphs()[1];
        assert!(unbuilt.clone().window_index_built().is_none());
    }

    #[test]
    fn index_view_matches_tcsr_bruteforce_per_window() {
        let log = log();
        let spec = WindowSpec::covering(&log, 25, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 3, true, PartitionStrategy::EqualWindows).unwrap();
        for (w, g) in set
            .graphs()
            .iter()
            .flat_map(|g| g.windows().map(move |w| (w, g)))
        {
            let view = g.index_view(w);
            assert_eq!(view.range, spec.window(w));
            for lv in 0..g.num_local_vertices() as u32 {
                let deg = g.tcsr().active_degree(lv, view.range) as u32;
                match view.vertices.binary_search(&lv) {
                    Ok(i) => assert_eq!(view.deg_out[i], deg, "window {w} vertex {lv}"),
                    Err(_) => assert_eq!(deg, 0, "window {w} vertex {lv} missing from index"),
                }
            }
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let log = log();
        let spec = WindowSpec::covering(&log, 15, 10).unwrap();
        let set =
            MultiWindowSet::build(&log, spec, 2, true, PartitionStrategy::EqualWindows).unwrap();
        assert!(set.memory_bytes() > 0);
        assert_eq!(
            set.memory_bytes(),
            set.graphs().iter().map(|g| g.memory_bytes()).sum::<usize>()
        );
    }
}
