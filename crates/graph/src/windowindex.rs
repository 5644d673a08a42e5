//! Window membership of a multi-window graph's runs, decided once per part.
//!
//! Every PageRank kernel needs, per window: the runs the window holds, the
//! active vertex set, and the degree (and its reciprocal) of each active
//! vertex. A [`WindowIndex`] decides all of it for every window a
//! [`MultiWindowGraph`](crate::MultiWindowGraph) serves in **one** pass
//! over the part's runs — the only place the indexed kernels, and every
//! lane batch, read timestamps (the unindexed batch entries build an index
//! over their own windows). For every run live in at least one window the
//! pass stores the neighbour once and a bitset of `⌈nw/8⌉` bytes naming the
//! windows that hold it ([`LiveRuns`]); the active lists and degrees are
//! derived from those bits. Parts are symmetric, so a run is both an in-
//! and an out-edge, and every vertex a window holds has a degree of at
//! least one. The kernels then read the bits: the SpMV kernel filters the
//! run list by its window's bit, the batched kernel turns each view's bit
//! into its lane, and a window's degree/activity setup is an
//! `O(|V_w active|)` copy out of [`WindowIndexView`].
//!
//! ## The pass
//! `WindowSegments` cuts the time axis at every window's start and at
//! every end + 1; each piece (segment) carries the bitset of the windows
//! that hold all of it. A run's windows are the OR of the segments its
//! timestamps fall in. A timestamp finds its segment in a table of equal
//! time buckets: one lookup and two comparisons against the next two cuts,
//! unless more than two cuts fall inside its bucket (a binary search over
//! them then). A segment's bits are [`TimeRange::contains`] of each window,
//! so for windows in any order — nested, repeated or empty — a run's bit
//! `j` is [`NeighborRun::active_in`] of window `j`.
//!
//! The pass walks each row's entries in one flat loop, not run by run:
//! every entry ORs its timestamp's segment mask into its run's accumulator,
//! the next one wherever the neighbour changes, and into the row's windows,
//! in scratch one row wide. The row's runs are then packed into the run
//! list: each is written at a cursor that advances past it only if a window
//! holds it. Its degrees come from each run's mask a byte at a time, through
//! a 256-entry table that spreads the byte's bits into eight byte-lane
//! counters. Neither the walk nor the pack branches on where a run ends or
//! on which windows hold it. A stored entry costs a bucket lookup, an OR
//! into its run and a store, and a run a pack and a table add per mask
//! byte: about 6 ns an entry on `few-large-windows`' part (8 windows, 107 k
//! entries, 58 k live runs, one 2-vCPU Xeon guest), where the run-by-run
//! pass took 14–16 ns. Masks of up to 64 windows stay in one word, and
//! wider ones in words, through the same code.
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
/// table has at least 16 buckets per cut, so most buckets hold no cut; a
/// bucket with up to two (a window's end + 1 next to a later one's start is
/// two) answers with two comparisons and no branch, and one with more
/// finishes with a binary search over them.
#[derive(Debug, Clone)]
pub(crate) struct WindowSegments {
    /// Segment starts (cuts), ascending and distinct: segment `s > 0` is
    /// `[bounds[s - 1], bounds[s])` (the last one unbounded above), and
    /// segment 0 lies before every window. Two `Timestamp::MAX` follow the
    /// last cut, so the two cuts after any cut can be read.
    bounds: Vec<Timestamp>,
    /// How many cuts `bounds` holds.
    cuts: usize,
    /// [`Self::words`] words of window bits per segment, segment-major.
    bits: Vec<u64>,
    /// `⌈windows / 64⌉`, at least one.
    words: usize,
    /// The first cut (`Timestamp::MAX` without one): every timestamp below
    /// it lies in segment 0.
    origin: Timestamp,
    /// Bucket `b` spans `2^shift` timestamps from `origin + b·2^shift`.
    shift: u32,
    /// The segment of bucket `b`'s first timestamp, per bucket and two
    /// past the last: bucket `b` holds the cuts `first[b]..first[b + 1]`,
    /// and the last bucket, which every timestamp past the table falls
    /// in, holds none.
    first: Vec<u32>,
}

/// Buckets per cut the table aims at, and the most it ever has.
const BUCKETS_PER_CUT: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

impl WindowSegments {
    /// Cuts the axis for `ranges`; bit `j` of a segment is set iff
    /// `ranges[j]` holds it. Empty ranges hold no segment.
    pub(crate) fn new(ranges: &[TimeRange]) -> Self {
        let words = ranges.len().div_ceil(64).max(1);
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

        let (mut origin, mut shift, mut first) = (Timestamp::MAX, 0, vec![0, 0]);
        if let (Some(&lo), Some(&hi)) = (bounds.first(), bounds.last()) {
            let span = hi.wrapping_sub(lo) as u64;
            let target = (BUCKETS_PER_CUT * bounds.len()).min(MAX_BUCKETS) as u64;
            while (span >> shift) >= target {
                shift += 1;
            }
            // Bucket `buckets` starts past `hi`, so it and its sentinel
            // hold no cut.
            let buckets = (span >> shift) as usize + 1;
            first = (0..=buckets)
                .map(|b| {
                    let start = i128::from(lo) + ((b as i128) << shift);
                    bounds.partition_point(|&x| i128::from(x) <= start) as u32
                })
                .chain([bounds.len() as u32])
                .collect();
            origin = lo;
        }
        let cuts = bounds.len();
        bounds.extend([Timestamp::MAX; 2]);
        WindowSegments {
            bounds,
            cuts,
            bits,
            words,
            origin,
            shift,
            first,
        }
    }

    /// Words of window bits a run's set takes: `⌈windows / 64⌉`, at least
    /// one.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The segment holding `t`.
    #[inline(always)]
    fn segment(&self, t: Timestamp) -> usize {
        if t < self.origin {
            return 0;
        }
        // `t - origin` as an unsigned offset cannot wrap; a bucket past the
        // table is the last one, which holds no cut.
        let last = self.first.len() - 2;
        let b = ((t.wrapping_sub(self.origin) as u64 >> self.shift) as usize).min(last);
        let (a, z) = (self.first[b] as usize, self.first[b + 1] as usize);
        if z - a > 2 {
            return self.search(a, z, t);
        }
        // At most two cuts lie past the bucket's start, and `bounds[a]` is
        // the first: count those `t` reached. Only `t = Timestamp::MAX`
        // reaches the padding, and it lies past every cut.
        let past = usize::from(self.bounds[a] <= t) + usize::from(self.bounds[a + 1] <= t);
        (a + past).min(self.cuts)
    }

    /// The segment holding `t`, whose bucket holds the cuts `a..z`.
    #[cold]
    #[inline(never)]
    fn search(&self, a: usize, z: usize, t: Timestamp) -> usize {
        a + self.bounds[a..z].partition_point(|&x| x <= t)
    }

    /// The bits of the windows holding `t`: [`Self::words`] words.
    #[inline(always)]
    fn mask(&self, t: Timestamp) -> &[u64] {
        let s = self.segment(t) * self.words;
        &self.bits[s..s + self.words]
    }

    /// The windows (at most 64) holding any of `times` (a run's
    /// timestamps), as one mask: bit `j` is
    /// [`NeighborRun::active_in`](crate::NeighborRun::active_in) of window `j`.
    #[cfg(test)]
    fn run_mask(&self, times: &[Timestamp]) -> u64 {
        debug_assert_eq!(self.words, 1, "a mask holds 64 windows");
        times.iter().fold(0, |m, &t| m | self.mask(t)[0])
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

/// The windows of one row while the index's pass walks it: one word for at
/// most 64 windows, where the pass spends its time on most parts, and words
/// beyond. The type fixes how many words the pass's loops take per mask, so
/// one-word parts run them unrolled.
trait Bits: Default {
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

/// Byte lane `i` of `SPREAD[b]` is bit `i` of `b`: adding it counts a run
/// into the byte-lane counters of the eight windows one mask byte names.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            t[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    t
};

/// One row's runs while the pass walks it: scratch one row wide, and the
/// row's per-window run counts.
struct RowScratch<B> {
    /// Neighbour of each of the row's runs.
    nbr: Vec<VertexId>,
    /// Window bits of each of the row's runs, `words` words a run.
    acc: Vec<u64>,
    /// The row's windows: every entry's.
    active: B,
    /// Bytes of window bits per run, `⌈windows / 8⌉`.
    bytes: usize,
    /// Byte lane `j % 8` of `lanes[j / 8]` counts the runs holding window
    /// `j` since the last spill; a lane holds 255.
    lanes: Vec<u64>,
    /// Per window, the runs spilled out of its lane.
    spilled: Vec<u32>,
}

impl<B: Bits> RowScratch<B> {
    fn new(width: usize, words: usize, bytes: usize) -> Self {
        RowScratch {
            nbr: vec![0; width],
            acc: vec![0; width * words],
            active: B::zero(words),
            bytes,
            lanes: vec![0; bytes],
            spilled: vec![0; 8 * bytes],
        }
    }

    /// Walks one row's entries (`col`, `time`), sorted by neighbour, in
    /// one flat loop: each entry ORs its timestamp's segment mask into its
    /// run's accumulator and into the row's windows, and an entry whose
    /// neighbour differs from the last one's opens the next accumulator.
    /// Returns the row's runs; no branch depends on where a run ends.
    #[inline]
    fn walk(&mut self, segments: &WindowSegments, col: &[VertexId], time: &[Timestamp]) -> usize {
        let words = self.active.words().len();
        self.acc[..col.len() * words].fill(0);
        // Held in a local while the row is walked, so one word stays in a
        // register.
        let mut active = std::mem::take(&mut self.active);
        let mut prev = col.first().copied().unwrap_or(0);
        let mut run = 0;
        for (&nbr, &t) in col.iter().zip(time) {
            let mask = segments.mask(t);
            run += usize::from(nbr != prev);
            let acc = &mut self.acc[run * words..(run + 1) * words];
            for (k, v) in active.words_mut().iter_mut().enumerate() {
                acc[k] |= mask[k];
                *v |= mask[k];
            }
            self.nbr[run] = nbr;
            prev = nbr;
        }
        self.active = active;
        run + usize::from(!col.is_empty())
    }

    /// Appends the live runs among the first `runs` to the run list
    /// (`nbr`, `bits`): each run is written at the cursor, which advances
    /// past it only if a window holds it. A run's words are stored whole,
    /// each at its byte offset, so `bits` has room for the last one's
    /// 8-byte overhang while the row is packed; the next run overwrites it.
    fn pack(&self, runs: usize, nbr: &mut Vec<VertexId>, bits: &mut Vec<u8>) {
        let (words, bytes) = (self.active.words().len(), self.bytes);
        let base = nbr.len();
        nbr.resize(base + runs, 0);
        bits.resize((base + runs) * bytes + 8, 0);
        let mut cursor = base;
        for (&n, acc) in self.nbr[..runs].iter().zip(self.acc.chunks_exact(words)) {
            nbr[cursor] = n;
            for (k, a) in acc.iter().enumerate() {
                let at = cursor * bytes + 8 * k;
                bits[at..at + 8].copy_from_slice(&a.to_le_bytes());
            }
            cursor += usize::from(acc.iter().any(|&a| a != 0));
        }
        nbr.truncate(cursor);
        bits.truncate(cursor * bytes);
    }

    /// Counts the first `runs` runs (one row's, so `lanes` starts empty)
    /// into their windows' byte lanes, one mask byte and one table lookup
    /// at a time, and spills the lanes every 255 runs.
    fn count(&mut self, runs: usize) {
        const FULL: usize = u8::MAX as usize;
        let words = self.active.words().len();
        for chunk in self.acc[..runs * words].chunks(FULL * words) {
            for acc in chunk.chunks_exact(words) {
                for (p, lane) in self.lanes.iter_mut().enumerate() {
                    *lane += SPREAD[(acc[p / 8] >> (8 * (p % 8))) as usize & 0xff];
                }
            }
            if chunk.len() == FULL * words {
                for (lane, out) in self.lanes.iter_mut().zip(self.spilled.chunks_exact_mut(8)) {
                    for (i, d) in out.iter_mut().enumerate() {
                        *d += (*lane >> (8 * i)) as u32 & 0xff;
                    }
                    *lane = 0;
                }
            }
        }
    }

    /// Calls `f(j, runs)` for every window `j` of the row, ascending, with
    /// the row's runs counted into `j`, and clears the row for the next.
    fn finish_row(&mut self, mut f: impl FnMut(usize, u32)) {
        let (lanes, spilled) = (&self.lanes, &mut self.spilled);
        for_each_bit(self.active.words(), |j| {
            let lane = (lanes[j / 8] >> (8 * (j % 8))) as u32 & 0xff;
            f(j, std::mem::take(&mut spilled[j]) + lane);
        });
        self.active.words_mut().fill(0);
        self.lanes.fill(0);
    }
}

/// The runs of a part that at least one indexed window holds, with
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

/// Precomputed per-window run membership, active lists and degrees for all
/// windows served by one multi-window graph. Vertex ids are the part's
/// local ids (the same space its [`TemporalCsr`] uses).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowIndex {
    /// The time range of each indexed window, in window order.
    ranges: Box<[TimeRange]>,
    /// Offsets into the aligned per-active-vertex arrays (`W + 1` entries).
    off: Box<[usize]>,
    /// Active vertices per window, ascending within each window.
    vertex: Box<[VertexId]>,
    /// Degree aligned with `vertex`, at least one.
    deg_out: Box<[u32]>,
    /// `1 / deg_out` aligned with `vertex`.
    inv_deg: Box<[f64]>,
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
    /// Degree per active vertex, aligned with `vertices`: at least one.
    pub deg_out: &'a [u32],
    /// Reciprocal degree per active vertex.
    pub inv_deg: &'a [f64],
    /// The part's live runs, shared by every view of the index.
    pub runs: LiveRuns<'a>,
}

impl WindowIndexView<'_> {
    /// `|V_w|`: number of active vertices in the window.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.vertices.len()
    }
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
    /// Builds the index over `ranges` (any order) for a part's symmetric
    /// temporal CSR.
    pub fn build(tcsr: &TemporalCsr, ranges: &[TimeRange]) -> Self {
        let segments = WindowSegments::new(ranges);
        if segments.words() == 1 {
            Self::build_with::<u64>(tcsr, ranges, &segments)
        } else {
            Self::build_with::<Vec<u64>>(tcsr, ranges, &segments)
        }
    }

    /// [`Self::build`] with the pass's window bits held as `B`.
    fn build_with<B: Bits>(
        tcsr: &TemporalCsr,
        ranges: &[TimeRange],
        segments: &WindowSegments,
    ) -> Self {
        let nw = ranges.len();
        let bytes = nw.div_ceil(8);
        let words = segments.words();
        let n = tcsr.num_vertices();

        // A run holds at least one entry, so the stored entries bound the
        // runs a row is packed over (plus the bits' 8-byte overhang), and
        // the list never reallocates; capacity the pass never writes is
        // never resident.
        let mut run_row = Vec::with_capacity(n + 1);
        let mut run_nbr = Vec::with_capacity(tcsr.num_entries());
        let mut run_bits = Vec::with_capacity(tcsr.num_entries() * bytes + 8);
        run_row.push(0);
        // (window, vertex, degree) of every active (window, vertex).
        let mut entries: Vec<(u32, VertexId, u32)> = Vec::new();
        let width = (tcsr.row_offsets().windows(2))
            .map(|r| r[1] - r[0])
            .max()
            .unwrap_or(0);
        let mut row = RowScratch::<B>::new(width, words, bytes);
        for v in 0..n as VertexId {
            let (col, time) = tcsr.entries(v);
            let runs = row.walk(segments, col, time);
            row.pack(runs, &mut run_nbr, &mut run_bits);
            run_row.push(run_nbr.len());
            row.count(runs);
            row.finish_row(|j, deg| entries.push((j as u32, v, deg)));
        }
        let (off, sorted) = sort_by_window(&entries, nw);
        drop(entries);

        let vertex = sorted.iter().map(|&(v, _)| v).collect();
        let deg_out = sorted.iter().map(|&(_, d)| d).collect();
        let inv_deg = sorted.iter().map(|&(_, d)| 1.0 / d as f64).collect();
        WindowIndex {
            ranges: ranges.into(),
            off: off.into_boxed_slice(),
            vertex,
            deg_out,
            inv_deg,
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

    /// The part's live runs with their window bits.
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
            + (self.off.len() + self.run_row.len()) * std::mem::size_of::<usize>()
            + (self.vertex.len() + self.run_nbr.len()) * std::mem::size_of::<VertexId>()
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
    fn check_against_bruteforce(t: &TemporalCsr, ranges: &[TimeRange]) {
        let idx = WindowIndex::build(t, ranges);
        assert_eq!(idx.num_windows(), ranges.len());
        for (j, &range) in ranges.iter().enumerate() {
            let view = idx.view(j);
            assert_eq!(view.range, range);
            assert_eq!(view.window, j);
            let expect: Vec<(VertexId, u32)> = (0..t.num_vertices() as VertexId)
                .map(|v| (v, t.active_degree(v, range) as u32))
                .filter(|&(_, d)| d > 0)
                .collect();
            let got: Vec<(VertexId, u32)> = view
                .vertices
                .iter()
                .copied()
                .zip(view.deg_out.iter().copied())
                .collect();
            assert_eq!(got, expect, "window {j}");
            for (i, &v) in view.vertices.iter().enumerate() {
                let d = view.deg_out[i];
                assert_eq!(view.inv_deg[i], 1.0 / d as f64, "vertex {v}");
            }
        }
        // The run list: every run some window holds, with exactly the
        // windows `active_in` names, and no other run.
        let runs = idx.live_runs();
        let mut i = 0;
        for v in 0..t.num_vertices() as VertexId {
            assert_eq!(runs.row[v as usize], i, "vertex {v}");
            for run in t.runs(v) {
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
                let want: Vec<VertexId> = t.active_neighbors(v, range).collect();
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
        let t = TemporalCsr::from_events(20, &sample_events());
        let ranges = spec_ranges(0, 90, 40, 11);
        check_against_bruteforce(&t, &ranges);
    }

    #[test]
    fn overlapping_and_disjoint_grids() {
        let t = TemporalCsr::from_events(20, &sample_events());
        // Heavy overlap (delta >> sw), no overlap, and sparse coverage.
        for (delta, sw) in [(200, 10), (30, 30), (10, 120)] {
            let count = (460 / sw + 1) as usize;
            check_against_bruteforce(&t, &spec_ranges(0, delta, sw, count));
        }
    }

    #[test]
    fn single_window() {
        let t = TemporalCsr::from_events(20, &sample_events());
        check_against_bruteforce(&t, &spec_ranges(50, 100, 1, 1));
    }

    #[test]
    fn negative_origin_grid() {
        let events = vec![
            Event::new(0, 1, -50),
            Event::new(1, 2, -10),
            Event::new(2, 3, 25),
        ];
        let t = TemporalCsr::from_events(4, &events);
        check_against_bruteforce(&t, &spec_ranges(-60, 40, 25, 5));
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
        let t = TemporalCsr::from_events(20, &sample_events());
        check_against_bruteforce(&t, &ranges);
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
            let t = TemporalCsr::from_events(20, &random_events(400, seed));
            check_against_bruteforce(&t, &ranges);
        }
    }

    #[test]
    fn window_counts_past_one_byte_and_one_word() {
        let t = TemporalCsr::from_events(20, &sample_events());
        for count in [8, 9, 64, 65, 130] {
            check_against_bruteforce(&t, &spec_ranges(-5, 30, 4, count));
        }
    }

    #[test]
    fn timestamps_at_both_ends_of_the_axis() {
        // A timestamp a whole axis past the bucket table's origin lands in
        // its last bucket, on every build.
        let (min, max) = (Timestamp::MIN, Timestamp::MAX);
        let events = [Event::new(0, 1, min), Event::new(0, 1, max)];
        let t = TemporalCsr::from_events(2, &events);
        for ranges in [
            vec![TimeRange::new(min, min + 5)],
            vec![TimeRange::new(max - 5, max)],
            vec![TimeRange::new(min + 1, max - 1)],
            vec![TimeRange::new(min, min), TimeRange::new(max, max)],
        ] {
            check_against_bruteforce(&t, &ranges);
        }
    }

    #[test]
    fn degrees_past_a_byte_lane() {
        // A hub with 600 neighbours, each met twice: its per-window degree
        // outgrows the 255 runs a byte lane counts.
        let events: Vec<Event> = (1..=600u32)
            .flat_map(|v| [Event::new(0, v, v as i64), Event::new(0, v, 700 - v as i64)])
            .collect();
        let t = TemporalCsr::from_events(601, &events);
        for count in [3, 9, 70] {
            check_against_bruteforce(&t, &spec_ranges(-50, 400, 10, count));
        }
    }

    #[test]
    fn empty_windows_have_empty_views() {
        let t = TemporalCsr::from_events(3, &[Event::new(0, 1, 5)]);
        let ranges = spec_ranges(100, 10, 10, 3);
        let idx = WindowIndex::build(&t, &ranges);
        for j in 0..3 {
            assert_eq!(idx.view(j).active_count(), 0);
        }
        assert_eq!(idx.total_active_entries(), 0);
        assert!(idx.live_runs().nbr.is_empty());
        let none = WindowIndex::build(&t, &[]);
        assert_eq!(none.num_windows(), 0);
        assert!(none.live_runs().nbr.is_empty());
    }

    #[test]
    fn memory_bytes_positive_and_scales() {
        let t = TemporalCsr::from_events(20, &sample_events());
        let small = WindowIndex::build(&t, &spec_ranges(0, 50, 100, 2));
        let large = WindowIndex::build(&t, &spec_ranges(0, 200, 20, 20));
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
