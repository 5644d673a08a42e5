//! Window membership of a multi-window graph's runs, decided once per part.
//!
//! Every PageRank kernel needs, per window: the pull runs the window holds,
//! the active vertex set, the out-degree (and its reciprocal) of each
//! active vertex, and the dangling vertices. A [`WindowIndex`] decides all
//! of it for every window a [`MultiWindowGraph`](crate::MultiWindowGraph)
//! serves in **one** pass over the part's pull runs — the only place the
//! indexed kernels, and every lane batch, read timestamps (the unindexed
//! batch entries build an index over their own windows). For every run
//! live in at least one window the pass stores the neighbour once and a
//! bitset of `⌈nw/8⌉` bytes naming the windows that hold it
//! ([`LiveRuns`]); the active lists,
//! degrees and dangling sets are derived from those bits. A directed part
//! adds one pass over its push runs for out-degrees and keeps no bits from
//! it. The kernels then read the bits: the SpMV kernel filters the run list
//! by its window's bit, the batched kernel turns each view's bit into its
//! lane, and a window's degree/activity setup is an `O(|V_w active|)` copy
//! out of [`WindowIndexView`].
//!
//! ## The pass
//! `WindowSegments` cuts the time axis at every window's start and at
//! every end + 1; each piece (segment) carries the bitset of the windows
//! that hold all of it. A run's windows are the OR of the segments its
//! timestamps fall in. A timestamp finds its segment in a table of equal
//! time buckets, one lookup unless a cut falls inside its bucket, so a run
//! costs its timestamps plus one OR per segment it enters. A segment's bits
//! are [`TimeRange::contains`] of each window, so for windows in any order
//! — nested, repeated or empty — a run's bit `j` is
//! [`NeighborRun::active_in`] of window `j`.
//!
//! The index is not charged to a part's memory budget: the planner's
//! footprint is [`MultiWindowGraph::storage_bytes`](crate::MultiWindowGraph::storage_bytes),
//! and the index adds what [`WindowIndex::memory_bytes`] reports on top.
//!
//! [`NeighborRun::active_in`]: crate::NeighborRun::active_in

use crate::events::{Timestamp, VertexId};
use crate::tcsr::TemporalCsr;
use crate::window::TimeRange;

/// The time axis cut at every window's start and every end + 1, each
/// segment with the bitset of the windows that hold it: what decides which
/// windows hold a run, for window ranges in any order.
///
/// A timestamp finds its segment through a table of equal time buckets
/// over the cuts, each holding the segment its first timestamp lies in. The
/// table has at least 16 buckets per cut, so most buckets hold no cut and
/// answer with one lookup; the others finish with a binary search over the
/// few cuts inside them.
#[derive(Debug, Clone)]
pub(crate) struct WindowSegments {
    /// Segment starts, ascending and distinct: segment `s > 0` is
    /// `[bounds[s - 1], bounds[s])` (the last one unbounded above), and
    /// segment 0 lies before every window.
    bounds: Vec<Timestamp>,
    /// [`Self::words`] words of window bits per segment, segment-major.
    bits: Vec<u64>,
    /// `⌈windows / 64⌉`.
    words: usize,
    /// Bucket `b` spans `2^shift` timestamps from `bounds[0] + b·2^shift`.
    shift: u32,
    /// The segment of bucket `b`'s first timestamp, per bucket and one
    /// past the last: bucket `b` holds the cuts `first[b]..first[b + 1]`.
    first: Vec<u32>,
}

/// Buckets per cut the table aims at, and the most it ever has.
const BUCKETS_PER_CUT: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

impl WindowSegments {
    /// Cuts the axis for `ranges`; bit `j` of a segment is set iff
    /// `ranges[j]` holds it. Empty ranges hold no segment.
    pub(crate) fn new(ranges: &[TimeRange]) -> Self {
        let words = ranges.len().div_ceil(64);
        // (time, window, enters): window `j` is entered at its start and
        // left at end + 1 (never, for an end at the axis' maximum).
        let mut edges: Vec<(Timestamp, usize, bool)> = Vec::with_capacity(2 * ranges.len());
        for (j, r) in ranges.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            edges.push((r.start, j, true));
            if let Some(out) = r.end.checked_add(1) {
                edges.push((out, j, false));
            }
        }
        edges.sort_unstable_by_key(|e| e.0);
        let mut bounds = Vec::new();
        let mut bits = vec![0u64; words];
        let mut cur = vec![0u64; words];
        let mut i = 0;
        while i < edges.len() {
            let t = edges[i].0;
            // A window's start lies before its end + 1, so the edges of one
            // timestamp belong to distinct windows and commute.
            while i < edges.len() && edges[i].0 == t {
                let (_, j, enters) = edges[i];
                if enters {
                    cur[j / 64] |= 1 << (j % 64);
                } else {
                    cur[j / 64] &= !(1 << (j % 64));
                }
                i += 1;
            }
            bounds.push(t);
            bits.extend_from_slice(&cur);
        }

        let (mut shift, mut first) = (0, Vec::new());
        if let (Some(&lo), Some(&hi)) = (bounds.first(), bounds.last()) {
            let span = hi.wrapping_sub(lo) as u64;
            let target = (BUCKETS_PER_CUT * bounds.len()).min(MAX_BUCKETS) as u64;
            while (span >> shift) >= target {
                shift += 1;
            }
            let buckets = (span >> shift) as usize + 1;
            first = (0..=buckets)
                .map(|b| {
                    let start = i128::from(lo) + ((b as i128) << shift);
                    bounds.partition_point(|&x| i128::from(x) <= start) as u32
                })
                .collect();
        }
        WindowSegments {
            bounds,
            bits,
            words,
            shift,
            first,
        }
    }

    /// Words of window bits a run's set takes: `⌈windows / 64⌉`.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The segment holding `t`.
    #[inline]
    fn segment(&self, t: Timestamp) -> usize {
        let Some(&lo) = self.bounds.first() else {
            return 0;
        };
        if t < lo {
            return 0;
        }
        let b = (t.wrapping_sub(lo) as u64 >> self.shift) as usize;
        match self.first.get(b..b + 2) {
            Some(&[a, z]) if a == z => a as usize,
            Some(&[a, z]) => {
                let (a, z) = (a as usize, z as usize);
                a + self.bounds[a..z].partition_point(|&x| x <= t)
            }
            // Past the last bucket: after every cut.
            _ => self.bounds.len(),
        }
    }

    /// ORs into `acc` ([`Self::words`] words) the windows holding any of
    /// `times` (a run's timestamps): bit `j` is
    /// [`NeighborRun::active_in`](crate::NeighborRun::active_in) of window `j`.
    #[inline]
    pub(crate) fn run_windows(&self, times: &[Timestamp], acc: &mut [u64]) {
        let mut last = usize::MAX;
        for &t in times {
            let s = self.segment(t);
            if s != last {
                self.or_segment(s, acc);
                last = s;
            }
        }
    }

    /// The windows (at most 64) holding any of `times` (a run's
    /// timestamps), as one mask: bit `j` is
    /// [`NeighborRun::active_in`](crate::NeighborRun::active_in) of window `j`.
    #[cfg(test)]
    fn run_mask(&self, times: &[Timestamp]) -> u64 {
        debug_assert!(self.words <= 1, "a mask holds 64 windows");
        let mut acc = [0u64];
        self.run_windows(times, &mut acc);
        acc[0]
    }

    #[inline]
    fn or_segment(&self, s: usize, acc: &mut [u64]) {
        let seg = &self.bits[s * self.words..(s + 1) * self.words];
        for (a, &b) in acc.iter_mut().zip(seg) {
            *a |= b;
        }
    }
}

/// Calls `f(j)` for every set bit `j` of the multi-word bitset `words`,
/// ascending.
#[inline]
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (i, &w) in words.iter().enumerate() {
        let mut m = w;
        while m != 0 {
            f(i * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// The window bits of one run or one vertex while the index's pass decides
/// them: one word for at most 64 windows, where the pass spends its time
/// on most parts, and words beyond.
trait Bits {
    fn zero(words: usize) -> Self;
    fn words(&self) -> &[u64];
    fn words_mut(&mut self) -> &mut [u64];
}

impl Bits for u64 {
    fn zero(_: usize) -> Self {
        0
    }
    #[inline]
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl Bits for Vec<u64> {
    fn zero(words: usize) -> Self {
        vec![0; words]
    }
    #[inline]
    fn words(&self) -> &[u64] {
        self
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// The pull runs of a part that at least one indexed window holds, with
/// the bits of the windows that hold each: the index's run list, which
/// every view of one index shares.
#[derive(Debug, Clone, Copy)]
pub struct LiveRuns<'a> {
    /// Per vertex, the range of its runs: `row[v]..row[v + 1]` (`V + 1`
    /// offsets).
    pub row: &'a [usize],
    /// Neighbour per run, in stored (ascending) order within a row.
    pub nbr: &'a [VertexId],
    /// [`Self::bytes`] bytes per run: bit `j % 8` of byte `j / 8` is set iff
    /// window `j` holds the run.
    pub bits: &'a [u8],
    /// Bytes of window bits per run, `⌈windows / 8⌉`.
    pub bytes: usize,
}

impl<'a> LiveRuns<'a> {
    /// Whether window `j` holds run `i`.
    #[inline]
    pub fn holds(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.bytes + j / 8] & (1 << (j % 8)) != 0
    }

    /// The neighbours of `v`'s runs that window `j` holds, in stored order:
    /// [`TemporalCsr::active_neighbors`] of window `j`, read from the bits.
    pub fn neighbors_in(&self, v: VertexId, j: usize) -> impl Iterator<Item = VertexId> + 'a {
        let runs = *self;
        (runs.row[v as usize]..runs.row[v as usize + 1])
            .filter(move |&i| runs.holds(i, j))
            .map(move |i| runs.nbr[i])
    }
}

/// Precomputed per-window run membership, active lists, degrees and
/// dangling sets for all windows served by one multi-window graph. Vertex
/// ids are the part's local ids (the same space its [`TemporalCsr`] uses).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowIndex {
    /// The time range of each indexed window, in window order.
    ranges: Box<[TimeRange]>,
    /// Offsets into the aligned per-active-vertex arrays (`W + 1` entries).
    off: Box<[usize]>,
    /// Active vertices per window, ascending within each window.
    vertex: Box<[VertexId]>,
    /// Out-degree aligned with `vertex` (0 for dangling vertices).
    deg_out: Box<[u32]>,
    /// `1 / deg_out` aligned with `vertex` (0.0 for dangling vertices).
    inv_deg: Box<[f64]>,
    /// Offsets into `dangling` (`W + 1` entries).
    dang_off: Box<[usize]>,
    /// Dangling vertices (active with zero out-degree) per window, ascending.
    dangling: Box<[VertexId]>,
    /// [`LiveRuns::row`].
    run_row: Box<[usize]>,
    /// [`LiveRuns::nbr`].
    run_nbr: Box<[VertexId]>,
    /// [`LiveRuns::bits`].
    run_bits: Box<[u8]>,
}

/// Borrowed slices of one window's index data — everything a kernel's
/// setup phase needs, sized by the window's active set, plus the part's
/// run list the window's bit selects from.
#[derive(Debug, Clone, Copy)]
pub struct WindowIndexView<'a> {
    /// The window's time range.
    pub range: TimeRange,
    /// The window's position among the index's windows: its bit in `runs`.
    pub window: usize,
    /// Vertices active in the window (local ids, ascending).
    pub vertices: &'a [VertexId],
    /// Out-degree per active vertex, aligned with `vertices`.
    pub deg_out: &'a [u32],
    /// Reciprocal out-degree per active vertex (0.0 where dangling).
    pub inv_deg: &'a [f64],
    /// Active vertices with zero out-degree, ascending.
    pub dangling: &'a [VertexId],
    /// The part's live pull runs, shared by every view of the index.
    pub runs: LiveRuns<'a>,
}

impl WindowIndexView<'_> {
    /// `|V_w|`: number of active vertices in the window.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.vertices.len()
    }
}

/// Decides the windows holding a run's `times` into `run`, ORs them into
/// the vertex's `active` windows and, for an out-edge, counts them into its
/// degrees `deg`. Returns whether any window holds the run.
#[inline]
fn decide<B: Bits>(
    segments: &WindowSegments,
    times: &[Timestamp],
    run: &mut B,
    active: &mut B,
    deg: Option<&mut [u32]>,
) -> bool {
    let acc = run.words_mut();
    acc.fill(0);
    segments.run_windows(times, acc);
    for (a, &w) in active.words_mut().iter_mut().zip(acc.iter()) {
        *a |= w;
    }
    if let Some(deg) = deg {
        for_each_bit(acc, |j| deg[j] += 1);
    }
    acc.iter().any(|&w| w != 0)
}

/// Counting-sorts `(window, vertex, degree)` tuples into window-major
/// order, keeping the per-window vertex order (ascending, because
/// generation is vertex-major). Returns `W + 1` offsets.
fn sort_by_window(
    entries: &[(u32, VertexId, u32)],
    num_windows: usize,
) -> (Vec<usize>, Vec<(VertexId, u32)>) {
    let mut off = vec![0usize; num_windows + 1];
    for &(w, _, _) in entries {
        off[w as usize + 1] += 1;
    }
    for j in 0..num_windows {
        off[j + 1] += off[j];
    }
    let mut sorted = vec![(0, 0); entries.len()];
    let mut cursor = off[..num_windows].to_vec();
    for &(w, v, x) in entries {
        let c = &mut cursor[w as usize];
        sorted[*c] = (v, x);
        *c += 1;
    }
    (off, sorted)
}

impl WindowIndex {
    /// Builds the index over `ranges` (any order) for a part whose
    /// out-edges live in `push`. For directed builds, `pull` must be the
    /// in-edge transpose so vertices that only *receive* edges still join
    /// the active set; pass `None` for symmetric builds (out-activity is all
    /// activity there, and the pull runs are the push runs).
    pub fn build(push: &TemporalCsr, pull: Option<&TemporalCsr>, ranges: &[TimeRange]) -> Self {
        let segments = WindowSegments::new(ranges);
        if segments.words() <= 1 {
            Self::build_with::<u64>(push, pull, ranges, &segments)
        } else {
            Self::build_with::<Vec<u64>>(push, pull, ranges, &segments)
        }
    }

    /// [`Self::build`] with the pass's window bits held as `B`.
    fn build_with<B: Bits>(
        push: &TemporalCsr,
        pull: Option<&TemporalCsr>,
        ranges: &[TimeRange],
        segments: &WindowSegments,
    ) -> Self {
        let nw = ranges.len();
        let bytes = nw.div_ceil(8);
        let pull_runs = pull.unwrap_or(push);
        let n = pull_runs.num_vertices();
        debug_assert_eq!(push.num_vertices(), n);

        // A run holds at least one entry, so the stored entries bound the
        // live runs; capacity the pass never writes is never resident.
        let mut run_row = Vec::with_capacity(n + 1);
        let mut run_nbr = Vec::with_capacity(pull_runs.num_entries());
        let mut run_bits = Vec::with_capacity(pull_runs.num_entries() * bytes);
        run_row.push(0);
        // (window, vertex, out-degree) of every active (window, vertex).
        let mut entries: Vec<(u32, VertexId, u32)> = Vec::new();
        let mut deg = vec![0u32; nw];
        let mut run = B::zero(segments.words());
        let mut active = B::zero(segments.words());
        for v in 0..n as VertexId {
            active.words_mut().fill(0);
            for r in pull_runs.runs(v) {
                let out = pull.is_none().then_some(&mut deg[..]);
                if decide(segments, r.times, &mut run, &mut active, out) {
                    run_nbr.push(r.neighbor);
                    let acc = run.words();
                    for b in 0..bytes {
                        run_bits.push((acc[b / 8] >> (8 * (b % 8))) as u8);
                    }
                }
            }
            run_row.push(run_nbr.len());
            if pull.is_some() {
                for r in push.runs(v) {
                    decide(segments, r.times, &mut run, &mut active, Some(&mut deg));
                }
            }
            for_each_bit(active.words(), |j| {
                entries.push((j as u32, v, deg[j]));
                deg[j] = 0;
            });
        }
        let (off, sorted) = sort_by_window(&entries, nw);
        drop(entries);

        let mut vertex = Vec::with_capacity(sorted.len());
        let mut deg_out = Vec::with_capacity(sorted.len());
        let mut inv_deg = Vec::with_capacity(sorted.len());
        let mut dang_off = Vec::with_capacity(nw + 1);
        let mut dangling = Vec::new();
        dang_off.push(0);
        for j in 0..nw {
            for &(v, d) in &sorted[off[j]..off[j + 1]] {
                vertex.push(v);
                deg_out.push(d);
                if d > 0 {
                    inv_deg.push(1.0 / d as f64);
                } else {
                    inv_deg.push(0.0);
                    dangling.push(v);
                }
            }
            dang_off.push(dangling.len());
        }

        WindowIndex {
            ranges: ranges.to_vec().into_boxed_slice(),
            off: off.into_boxed_slice(),
            vertex: vertex.into_boxed_slice(),
            deg_out: deg_out.into_boxed_slice(),
            inv_deg: inv_deg.into_boxed_slice(),
            dang_off: dang_off.into_boxed_slice(),
            dangling: dangling.into_boxed_slice(),
            run_row: run_row.into_boxed_slice(),
            run_nbr: run_nbr.into_boxed_slice(),
            run_bits: run_bits.into_boxed_slice(),
        }
    }

    /// Number of indexed windows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.ranges.len()
    }

    /// The indexed windows' time ranges, in order.
    #[inline]
    pub fn ranges(&self) -> &[TimeRange] {
        &self.ranges
    }

    /// The part's live pull runs with their window bits.
    #[inline]
    pub fn live_runs(&self) -> LiveRuns<'_> {
        LiveRuns {
            row: &self.run_row,
            nbr: &self.run_nbr,
            bits: &self.run_bits,
            bytes: self.ranges.len().div_ceil(8),
        }
    }

    /// The view of local window `j`.
    ///
    /// # Panics
    /// Panics if `j >= num_windows()`.
    #[inline]
    pub fn view(&self, j: usize) -> WindowIndexView<'_> {
        let (lo, hi) = (self.off[j], self.off[j + 1]);
        WindowIndexView {
            range: self.ranges[j],
            window: j,
            vertices: &self.vertex[lo..hi],
            deg_out: &self.deg_out[lo..hi],
            inv_deg: &self.inv_deg[lo..hi],
            dangling: &self.dangling[self.dang_off[j]..self.dang_off[j + 1]],
            runs: self.live_runs(),
        }
    }

    /// Total active-list entries across all windows (`Σ_w |V_w active|`).
    #[inline]
    pub fn total_active_entries(&self) -> usize {
        self.vertex.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ranges.len() * std::mem::size_of::<TimeRange>()
            + (self.off.len() + self.dang_off.len() + self.run_row.len())
                * std::mem::size_of::<usize>()
            + (self.vertex.len() + self.dangling.len() + self.run_nbr.len())
                * std::mem::size_of::<VertexId>()
            + self.deg_out.len() * std::mem::size_of::<u32>()
            + self.inv_deg.len() * std::mem::size_of::<f64>()
            + self.run_bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn spec_ranges(t0: Timestamp, delta: Timestamp, sw: Timestamp, count: usize) -> Vec<TimeRange> {
        (0..count)
            .map(|i| {
                let s = t0 + i as Timestamp * sw;
                TimeRange::new(s, s + delta)
            })
            .collect()
    }

    /// Brute-force index check against `TemporalCsr::active_degree` and,
    /// for the run list, `NeighborRun::active_in`.
    fn check_against_bruteforce(
        push: &TemporalCsr,
        pull: Option<&TemporalCsr>,
        ranges: &[TimeRange],
    ) {
        let idx = WindowIndex::build(push, pull, ranges);
        assert_eq!(idx.num_windows(), ranges.len());
        for (j, &range) in ranges.iter().enumerate() {
            let view = idx.view(j);
            assert_eq!(view.range, range);
            assert_eq!(view.window, j);
            let mut expect: Vec<(VertexId, u32)> = Vec::new();
            for v in 0..push.num_vertices() as VertexId {
                let d = push.active_degree(v, range) as u32;
                let active = d > 0 || pull.is_some_and(|p| p.active_degree(v, range) > 0);
                if active {
                    expect.push((v, d));
                }
            }
            let got: Vec<(VertexId, u32)> = view
                .vertices
                .iter()
                .copied()
                .zip(view.deg_out.iter().copied())
                .collect();
            assert_eq!(got, expect, "window {j}");
            let expect_dangling: Vec<VertexId> = expect
                .iter()
                .filter(|&&(_, d)| d == 0)
                .map(|&(v, _)| v)
                .collect();
            assert_eq!(view.dangling, &expect_dangling[..], "window {j} dangling");
            for (i, &v) in view.vertices.iter().enumerate() {
                let d = view.deg_out[i];
                if d > 0 {
                    assert!(
                        (view.inv_deg[i] - 1.0 / d as f64).abs() < 1e-15,
                        "vertex {v}"
                    );
                } else {
                    assert_eq!(view.inv_deg[i], 0.0);
                }
            }
        }
        // The run list: every pull run some window holds, with exactly the
        // windows `active_in` names, and no other run.
        let pull = pull.unwrap_or(push);
        let runs = idx.live_runs();
        let mut i = 0;
        for v in 0..pull.num_vertices() as VertexId {
            assert_eq!(runs.row[v as usize], i, "vertex {v}");
            for run in pull.runs(v) {
                let live: Vec<bool> = ranges.iter().map(|&r| run.active_in(r)).collect();
                if !live.contains(&true) {
                    continue;
                }
                assert_eq!(runs.nbr[i], run.neighbor, "vertex {v}");
                for (j, &l) in live.iter().enumerate() {
                    assert_eq!(runs.holds(i, j), l, "vertex {v} run {i} window {j}");
                }
                i += 1;
            }
            for (j, &range) in ranges.iter().enumerate() {
                let got: Vec<VertexId> = runs.neighbors_in(v, j).collect();
                let want: Vec<VertexId> = pull.active_neighbors(v, range).collect();
                assert_eq!(got, want, "vertex {v} window {j}");
            }
        }
        assert_eq!(runs.nbr.len(), i);
        assert_eq!(runs.bits.len(), i * ranges.len().div_ceil(8));
    }

    fn sample_events() -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..150u32 {
            let u = (i * 13 + 2) % 20;
            let v = (i * 7 + 5) % 20;
            if u != v {
                events.push(Event::new(u, v, (i * 3) as i64));
            }
        }
        // A burst of repeated events on one pair, to exercise run merging.
        for t in 100..120 {
            events.push(Event::new(1, 2, t));
        }
        events
    }

    #[test]
    fn symmetric_index_matches_bruteforce() {
        let t = TemporalCsr::from_events(20, &sample_events(), true);
        let ranges = spec_ranges(0, 90, 40, 11);
        check_against_bruteforce(&t, None, &ranges);
    }

    #[test]
    fn directed_index_matches_bruteforce() {
        let out = TemporalCsr::from_events(20, &sample_events(), false);
        let pull = out.transpose();
        let ranges = spec_ranges(0, 90, 40, 11);
        check_against_bruteforce(&out, Some(&pull), &ranges);
    }

    #[test]
    fn overlapping_and_disjoint_grids() {
        let t = TemporalCsr::from_events(20, &sample_events(), true);
        // Heavy overlap (delta >> sw), no overlap, and sparse coverage.
        for (delta, sw) in [(200, 10), (30, 30), (10, 120)] {
            let count = (460 / sw + 1) as usize;
            check_against_bruteforce(&t, None, &spec_ranges(0, delta, sw, count));
        }
    }

    #[test]
    fn single_window() {
        let t = TemporalCsr::from_events(20, &sample_events(), true);
        check_against_bruteforce(&t, None, &spec_ranges(50, 100, 1, 1));
    }

    #[test]
    fn negative_origin_grid() {
        let events = vec![
            Event::new(0, 1, -50),
            Event::new(1, 2, -10),
            Event::new(2, 3, 25),
        ];
        let t = TemporalCsr::from_events(4, &events, true);
        check_against_bruteforce(&t, None, &spec_ranges(-60, 40, 25, 5));
    }

    #[test]
    fn ranges_in_any_order_nested_repeated_or_empty() {
        // Out of order and nested (the index's `build` is public, so no
        // order can be assumed), a repeat, an empty range and one reaching
        // the end of the time axis.
        let ranges = [
            TimeRange::new(300, 320),
            TimeRange::new(0, 10),
            TimeRange::new(150, 155),
            TimeRange::new(100, 400),
            TimeRange::new(150, 155),
            TimeRange::new(90, 80),
            TimeRange::new(440, Timestamp::MAX),
        ];
        for symmetric in [true, false] {
            let out = TemporalCsr::from_events(20, &sample_events(), symmetric);
            let pull = (!symmetric).then(|| out.transpose());
            check_against_bruteforce(&out, pull.as_ref(), &ranges);
        }
    }

    /// `count` events over 20 vertices at pseudo-random times in `0..1000`.
    fn random_events(count: usize, mut seed: u64) -> Vec<Event> {
        let mut next = move |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        (0..count)
            .map(|_| Event::new(next(20) as u32, next(20) as u32, next(1000) as i64))
            .filter(|e| e.u != e.v)
            .collect()
    }

    #[test]
    fn unordered_ranges_regression() {
        // Release builds of the range-sorted build answered 3 of these 5
        // windows wrongly on a random log: the ranges neither ascend nor
        // nest consistently, which only a debug assertion used to catch.
        let ranges = [
            TimeRange::new(700, 720),
            TimeRange::new(0, 10),
            TimeRange::new(300, 305),
            TimeRange::new(100, 900),
            TimeRange::new(500, 501),
        ];
        for seed in 0..8 {
            let events = random_events(400, seed);
            for symmetric in [true, false] {
                let out = TemporalCsr::from_events(20, &events, symmetric);
                let pull = (!symmetric).then(|| out.transpose());
                check_against_bruteforce(&out, pull.as_ref(), &ranges);
            }
        }
    }

    #[test]
    fn window_counts_past_one_byte_and_one_word() {
        let t = TemporalCsr::from_events(20, &sample_events(), true);
        for count in [8, 9, 64, 65, 130] {
            check_against_bruteforce(&t, None, &spec_ranges(-5, 30, 4, count));
        }
    }

    #[test]
    fn empty_windows_have_empty_views() {
        let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)], true);
        let ranges = spec_ranges(100, 10, 10, 3);
        let idx = WindowIndex::build(&t, None, &ranges);
        for j in 0..3 {
            assert_eq!(idx.view(j).active_count(), 0);
            assert!(idx.view(j).dangling.is_empty());
        }
        assert_eq!(idx.total_active_entries(), 0);
        assert!(idx.live_runs().nbr.is_empty());
        let none = WindowIndex::build(&t, None, &[]);
        assert_eq!(none.num_windows(), 0);
        assert!(none.live_runs().nbr.is_empty());
    }

    #[test]
    fn memory_bytes_positive_and_scales() {
        let t = TemporalCsr::from_events(20, &sample_events(), true);
        let small = WindowIndex::build(&t, None, &spec_ranges(0, 50, 100, 2));
        let large = WindowIndex::build(&t, None, &spec_ranges(0, 200, 20, 20));
        assert!(small.memory_bytes() > 0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn segments_agree_with_contains() {
        let ranges = [
            TimeRange::new(-7, 26),
            TimeRange::new(5, 5),
            TimeRange::new(-20, 100),
            TimeRange::new(30, 20),
            TimeRange::new(12, 40),
        ];
        let seg = WindowSegments::new(&ranges);
        for t in -60..160 {
            let expect = (0..ranges.len())
                .filter(|&j| ranges[j].contains(t))
                .fold(0u64, |m, j| m | 1 << j);
            assert_eq!(seg.run_mask(&[t]), expect, "t={t}");
        }
        // A run's mask is the union over its timestamps.
        assert_eq!(seg.run_mask(&[-10, 5, 35]), 0b10111);
        assert_eq!(seg.run_mask(&[]), 0);
        assert_eq!(WindowSegments::new(&[]).run_mask(&[3]), 0);
    }

    #[test]
    fn segments_span_the_whole_time_axis() {
        // Cuts at both ends of the axis make the buckets as wide as they
        // get, and a cluster of cuts shares one bucket.
        let (min, max) = (Timestamp::MIN, Timestamp::MAX);
        let ranges = [
            TimeRange::new(min, -5),
            TimeRange::new(0, max),
            TimeRange::new(3, 3),
            TimeRange::new(max, max),
            TimeRange::new(-(1 << 62), 1 << 62),
            TimeRange::new(4, 9),
            TimeRange::new(6, 7),
        ];
        let seg = WindowSegments::new(&ranges);
        let probes = [min, min + 1, -(1 << 62) - 1, -(1 << 62), -6, -5, -4, -1, 0]
            .into_iter()
            .chain(1..12)
            .chain([(1 << 62) - 1, 1 << 62, (1 << 62) + 1, max - 1, max]);
        for t in probes {
            let expect = (0..ranges.len())
                .filter(|&j| ranges[j].contains(t))
                .fold(0u64, |m, j| m | 1 << j);
            assert_eq!(seg.run_mask(&[t]), expect, "t={t}");
        }
    }
}
