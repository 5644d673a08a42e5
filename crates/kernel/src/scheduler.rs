//! Partitioner-aware parallel scheduling (paper §4.3, §6.3.2).
//!
//! The paper drives both window-level and vertex-level loops through Intel
//! TBB, comparing `auto_partitioner`, `simple_partitioner`, and
//! `static_partitioner` at many grain sizes. This workspace runs on the
//! vendored `shims/rayon`, which has no work stealing and no adaptive
//! splitter: a parallel call hands its tasks, in order, to at most one
//! freshly scoped thread per pool thread as contiguous blocks, runs them
//! inline when the pool has one thread or there is one task, and folds the
//! per-task results left to right from the identity (`with_max_len` is
//! ignored). So a [`Partitioner`] decides exactly one thing here: where the
//! task boundaries fall — which fixes how much per-task setup a loop pays
//! and how its floating-point reduction is grouped. There are two kinds of
//! loop, and the partitioners mean different things on each.
//!
//! **Window- and part-level loops** ([`Scheduler::for_each_range`],
//! [`Scheduler::map_reduce_range`], [`Scheduler::for_each_range_seq`], all
//! over [`Scheduler::chunks`]). The grain is semantic: consecutive windows
//! of one grain run in order on one thread, which is what chains partial
//! initialization and pins iteration totals.
//!
//! - [`Partitioner::Auto`] and [`Partitioner::Simple`]: one task per
//!   `granularity` consecutive indices.
//! - [`Partitioner::Static`]: one even piece per pool thread; the grain is
//!   ignored, as TBB ignores it when the even split already exceeds it.
//!
//! **Row-level loops** ([`Scheduler::map_reduce_slice_mut`],
//! [`Scheduler::map_reduce_rows_mut`] and
//! [`Scheduler::map_reduce_rows_chunked_mut`], all over
//! [`Scheduler::row_chunks`]; shared by the SpMV, SpMM, query and streaming
//! kernels). Rows are independent, so the grain is only a lower bound on a
//! task's size.
//!
//! - [`Partitioner::Auto`]: like TBB's `auto_partitioner`, as few tasks as
//!   keep the pool busy — even pieces of at least `granularity` rows, at
//!   most [`AUTO_TASKS_PER_THREAD`] per pool thread, and a single inline
//!   call (the sequential reduction order) on a one-thread pool.
//! - [`Partitioner::Simple`]: one task per `granularity` rows however many
//!   that makes, like TBB's `simple_partitioner` — the curve of Fig. 7.
//! - [`Partitioner::Static`]: one even piece per pool thread, as above.

use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// TBB partitioner analogue selecting how an index range is split (see
/// the module docs for what each does on window loops and on row loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioner {
    /// As few tasks as keep the pool busy (TBB `auto_partitioner`).
    #[default]
    Auto,
    /// Eager splitting down to grain-sized chunks (TBB `simple_partitioner`).
    Simple,
    /// Even per-thread pre-split, no stealing (TBB `static_partitioner`).
    Static,
}

/// Most row tasks per pool thread under [`Partitioner::Auto`]: enough
/// pieces for a stealing pool to even out skewed rows, few enough that
/// per-task setup (the SpMM body zeroes and folds `3 × 64` accumulators)
/// stays invisible beside the rows themselves.
pub const AUTO_TASKS_PER_THREAD: usize = 4;

/// How chunk boundaries weigh the work they enclose.
///
/// Vertex-balanced chunks give every task the same number of *rows*; on
/// skewed (power-law) graphs a task that draws the hub vertices owns far
/// more edge work than its siblings and the whole pass waits on it.
/// Edge-balanced chunks place the same number of boundaries at ~equal
/// cumulative *edge* positions instead (prefix sum over the adjacency
/// offsets), which is the imbalance fix the paper's §4.3 partitioner study
/// is sensitive to. Only loops that supply a weight prefix (the SpMM
/// kernel) honor this; unweighted loops always split by index count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Balance {
    /// Equal index (vertex) counts per chunk.
    #[default]
    Vertex,
    /// Equal cumulative weight (edge work) per chunk.
    Edge,
}

/// A partitioner plus grain size ("WS granularity size" in Figs. 7-10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    /// Which partitioner to emulate.
    pub partitioner: Partitioner,
    /// Grain size: the minimum number of consecutive indices a task
    /// processes (clamped to at least 1).
    pub granularity: usize,
    /// How weighted loops place their chunk boundaries.
    pub balance: Balance,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler {
            partitioner: Partitioner::Auto,
            granularity: 1,
            balance: Balance::Vertex,
        }
    }
}

impl Scheduler {
    /// Creates a scheduler; granularity is clamped to at least 1.
    pub fn new(partitioner: Partitioner, granularity: usize) -> Self {
        Scheduler {
            partitioner,
            granularity: granularity.max(1),
            balance: Balance::Vertex,
        }
    }

    /// This scheduler with a different [`Balance`].
    pub fn with_balance(mut self, balance: Balance) -> Self {
        self.balance = balance;
        self
    }

    /// The chunk boundaries of a window- or part-level loop over `n`
    /// items, one `Range` per task: `granularity` consecutive indices under
    /// `Auto` and `Simple`, one even piece per thread under `Static`.
    pub fn chunks(&self, n: usize) -> Vec<Range<usize>> {
        let g = self.granularity.max(1);
        let chunk = match self.partitioner {
            Partitioner::Auto | Partitioner::Simple => g,
            Partitioner::Static => {
                let t = rayon::current_num_threads().max(1);
                n.div_ceil(t).max(1)
            }
        };
        let mut out = Vec::with_capacity(n.div_ceil(chunk));
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            out.push(lo..hi);
            lo = hi;
        }
        out
    }

    /// The task boundaries of a row-level loop over `n` rows. `Simple` and
    /// `Static` split as [`Scheduler::chunks`] does. `Auto` makes even
    /// pieces of at least `granularity` rows, at most
    /// [`AUTO_TASKS_PER_THREAD`] per pool thread and exactly one on a
    /// one-thread pool (only `n < granularity` makes a shorter piece).
    pub fn row_chunks(&self, n: usize) -> Vec<Range<usize>> {
        if self.partitioner != Partitioner::Auto {
            return self.chunks(n);
        }
        if n == 0 {
            return Vec::new();
        }
        let threads = rayon::current_num_threads();
        let cap = if threads <= 1 {
            1
        } else {
            AUTO_TASKS_PER_THREAD * threads
        };
        let k = (n / self.granularity.max(1)).clamp(1, cap);
        (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
    }

    /// Degree-weighted row-task boundaries: the same *number* of chunks as
    /// [`Scheduler::row_chunks`] would produce for `prefix.len() - 1` rows,
    /// but with boundaries placed at ~equal cumulative weight, so each
    /// task owns about the same amount of enclosed work instead of the
    /// same row count.
    ///
    /// `prefix` is a non-decreasing prefix sum with `prefix[i]` the total
    /// weight of items `0..i` (so `prefix` has one more entry than there
    /// are items). Every chunk is non-empty and the chunks exactly cover
    /// `0..n`; with a constant per-item weight this degenerates to the
    /// unweighted chunking's balance (boundaries may shift by at most a
    /// rounding row). All-zero weights fall back to unweighted chunks.
    pub fn chunks_weighted(&self, prefix: &[usize]) -> Vec<Range<usize>> {
        let n = prefix.len().saturating_sub(1);
        if n == 0 {
            return Vec::new();
        }
        let total = prefix[n] - prefix[0];
        let unweighted = self.row_chunks(n);
        let k = unweighted.len();
        if k <= 1 || total == 0 {
            return unweighted;
        }
        let mut out = Vec::with_capacity(k);
        let mut lo = 0usize;
        for i in 1..k {
            // Ideal boundary: cumulative weight i/k of the total. u128
            // keeps `total * i` exact for any realistic edge count.
            let target = prefix[0] + ((total as u128 * i as u128) / k as u128) as usize;
            let cut = prefix.partition_point(|&p| p < target);
            // Clamp so every chunk (including the ones still to come)
            // keeps at least one item.
            let cut = cut.clamp(lo + 1, n - (k - i));
            out.push(lo..cut);
            lo = cut;
        }
        out.push(lo..n);
        out
    }

    /// Runs `f` over every index chunk of `0..n` in parallel according to
    /// the partitioner. `f` receives contiguous index ranges; consecutive
    /// indices within a grain always land in the same invocation (this is
    /// what lets window-level parallelism keep partial initialization:
    /// consecutive windows in a grain run on one thread, in order).
    pub fn for_each_range<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let chunks = self.chunks(n);
        match self.partitioner {
            // A splitting pool may merge neighboring chunks into one task
            // (the shim runs them as given).
            Partitioner::Auto => {
                chunks.into_par_iter().for_each(&f);
            }
            // Eager: force one task per chunk.
            Partitioner::Simple => {
                chunks.into_par_iter().with_max_len(1).for_each(&f);
            }
            // Static: chunks are already one-per-thread; forbid merging.
            Partitioner::Static => {
                chunks.into_par_iter().with_max_len(1).for_each(&f);
            }
        }
    }

    /// Parallel map-reduce over index chunks: `map` produces a partial
    /// value per chunk, folded with `reduce` from `identity`.
    pub fn map_reduce_range<T, M, R>(&self, n: usize, identity: T, map: M, reduce: R) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T + Sync + Send,
    {
        if n == 0 {
            return identity;
        }
        let chunks = self.chunks(n);
        let iter = chunks.into_par_iter();
        match self.partitioner {
            Partitioner::Auto => iter.map(&map).reduce(|| identity.clone(), &reduce),
            Partitioner::Simple | Partitioner::Static => iter
                .with_max_len(1)
                .map(&map)
                .reduce(|| identity.clone(), &reduce),
        }
    }

    /// Parallel pass over disjoint mutable chunks of `data` (cut by
    /// [`Scheduler::row_chunks`]), each paired with its offset, reducing
    /// the per-chunk results. This is the shape of a PageRank iteration:
    /// write `y[chunk]` while returning the chunk's L1-difference
    /// contribution.
    pub fn map_reduce_slice_mut<T, A, M, R>(
        &self,
        data: &mut [T],
        identity: A,
        map: M,
        reduce: R,
    ) -> A
    where
        T: Send,
        A: Send + Sync + Clone,
        M: Fn(usize, &mut [T]) -> A + Sync,
        R: Fn(A, A) -> A + Sync + Send,
    {
        self.map_reduce_rows_mut(data, 1, identity, map, reduce)
    }

    /// Like [`Scheduler::map_reduce_slice_mut`] but for row-major data with
    /// `width` elements per row: chunking happens over *rows*, so a chunk's
    /// slice is always row-aligned. Used by the query kernel, whose rank
    /// matrix stores `vl` lanes per vertex.
    pub fn map_reduce_rows_mut<T, A, M, R>(
        &self,
        data: &mut [T],
        width: usize,
        identity: A,
        map: M,
        reduce: R,
    ) -> A
    where
        T: Send,
        A: Send + Sync + Clone,
        M: Fn(usize, &mut [T]) -> A + Sync,
        R: Fn(A, A) -> A + Sync + Send,
    {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "non-rectangular data"
        );
        let chunks = self.row_chunks(data.len() / width);
        self.map_reduce_rows_chunked_mut(data, width, &chunks, identity, map, reduce)
    }

    /// [`Scheduler::map_reduce_rows_mut`] with caller-supplied chunk
    /// boundaries (from [`Scheduler::row_chunks`], or from
    /// [`Scheduler::chunks_weighted`] for edge-balanced tasks; the SpMM
    /// kernel caches its plan across rounds). `chunks` must be non-empty
    /// ranges exactly covering `0..rows` in order. A one-task plan is a
    /// plain call of `map` on the calling thread; otherwise the per-task
    /// results are folded in task order from `identity`, which must be
    /// neutral under `reduce`.
    pub fn map_reduce_rows_chunked_mut<T, A, M, R>(
        &self,
        data: &mut [T],
        width: usize,
        chunks: &[Range<usize>],
        identity: A,
        map: M,
        reduce: R,
    ) -> A
    where
        T: Send,
        A: Send + Sync + Clone,
        M: Fn(usize, &mut [T]) -> A + Sync,
        R: Fn(A, A) -> A + Sync + Send,
    {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "non-rectangular data"
        );
        let rows = data.len() / width;
        if rows == 0 {
            return identity;
        }
        if let [only] = chunks {
            assert!(*only == (0..rows), "chunks must tile rows");
            return map(0, data);
        }
        let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(chunks.len());
        let mut rest = data;
        let mut row = 0usize;
        for c in chunks {
            assert!(c.start == row && c.end > c.start, "chunks must tile rows");
            let (head, tail) = rest.split_at_mut(c.len() * width);
            parts.push((row, head));
            rest = tail;
            row = c.end;
        }
        assert_eq!(row, rows, "chunks must cover every row");
        let iter = parts.into_par_iter();
        match self.partitioner {
            Partitioner::Auto => iter
                .map(|(r, s)| map(r, s))
                .reduce(|| identity.clone(), &reduce),
            Partitioner::Simple | Partitioner::Static => iter
                .with_max_len(1)
                .map(|(r, s)| map(r, s))
                .reduce(|| identity.clone(), &reduce),
        }
    }

    /// Sequential fallback with identical chunking, used by the
    /// application-level mode's outer window loop.
    pub fn for_each_range_seq<F>(&self, n: usize, mut f: F)
    where
        F: FnMut(Range<usize>),
    {
        for r in self.chunks(n) {
            f(r);
        }
    }
}

/// Runs `background` on a scoped helper thread while `foreground` runs on
/// the calling thread, returning both results plus how long the caller had
/// to *wait* for the background task after its own work finished (the
/// pipeline stall). The scope guarantees the helper joined before this
/// returns, so both closures may borrow from the caller's stack.
///
/// This is the primitive behind the executor's setup/compute overlap: the
/// next window's setup runs as `background` while the current window's
/// kernel runs as `foreground`.
pub fn overlap<RA, RB, FA, FB>(background: FA, foreground: FB) -> (RA, RB, std::time::Duration)
where
    RA: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB,
{
    std::thread::scope(|s| {
        let handle = s.spawn(background);
        let fg = foreground();
        let wait_start = std::time::Instant::now();
        let bg = match handle.join() {
            Ok(v) => v,
            // Propagate a background panic on the calling thread so the
            // driver's own isolation (if any) sees it; overlap itself adds
            // no swallowing.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (bg, fg, wait_start.elapsed())
    })
}

/// A lock-free claim ticket over `0..n`: each [`WorkQueue::claim`] hands
/// out the next unclaimed index exactly once across threads. Workers use
/// it to pull independent shard-parts dynamically (no static striping, so
/// a slow part never idles the other workers), and [`WorkQueue::peek`]
/// lets a worker see what it would claim next — the hook for prefetching
/// part k+1 while part k computes.
pub struct WorkQueue {
    next: AtomicUsize,
    n: usize,
}

impl WorkQueue {
    /// A queue over the indices `0..n`.
    pub fn new(n: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            n,
        }
    }

    /// Claims the next unclaimed index, or `None` when the range is
    /// exhausted. Each index is handed out exactly once.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// The index the next `claim` would return (racy by nature — a hint
    /// for speculative prefetch, never for ownership).
    pub fn peek(&self) -> Option<usize> {
        let i = self.next.load(Ordering::Relaxed);
        (i < self.n).then_some(i)
    }
}

/// Runs `work` over the indices `0..n` on up to `workers` scoped threads
/// pulling from a shared [`WorkQueue`], returning the per-index results in
/// index order. `work` receives the claimed index and the queue (so it can
/// `peek` ahead); with `workers <= 1` or a single item everything runs
/// inline on the caller with zero thread overhead. Worker panics propagate
/// on the calling thread after the scope joins, mirroring [`overlap`].
pub fn worker_pool<T, F>(workers: usize, n: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &WorkQueue) -> T + Sync,
{
    let queue = WorkQueue::new(n);
    if workers <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        while let Some(i) = queue.claim() {
            out.push(work(i, &queue));
        }
        return out;
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(|| {
                    // Claimed results ride home with the worker: each index
                    // is claimed exactly once, so no slot is written twice.
                    let mut got: Vec<(usize, T)> = Vec::new();
                    while let Some(i) = queue.claim() {
                        got.push((i, work(i, &queue)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(got) => {
                    for (i, r) in got {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let out: Vec<T> = slots.into_iter().flatten().collect();
    assert_eq!(out.len(), n, "worker pool lost results");
    out
}

/// Builds a rayon thread pool with `threads` workers (0 = rayon default,
/// i.e. all cores). Experiments use dedicated pools so thread count is an
/// explicit experimental variable instead of global state.
pub fn thread_pool(threads: usize) -> Result<rayon::ThreadPool, crate::KernelError> {
    let mut b = rayon::ThreadPoolBuilder::new();
    if threads > 0 {
        b = b.num_threads(threads);
    }
    b.build()
        .map_err(|e| crate::KernelError::ThreadPool(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn chunks_cover_range_exactly() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            for g in [1usize, 3, 7, 100] {
                let s = Scheduler::new(part, g);
                for n in [0usize, 1, 5, 17, 64] {
                    let chunks = s.chunks(n);
                    let mut next = 0;
                    for c in &chunks {
                        assert_eq!(c.start, next);
                        assert!(c.end > c.start);
                        next = c.end;
                    }
                    assert_eq!(next, n, "partitioner {part:?} g={g} n={n}");
                }
            }
        }
    }

    #[test]
    fn auto_and_simple_respect_granularity() {
        let s = Scheduler::new(Partitioner::Simple, 4);
        let chunks = s.chunks(10);
        assert_eq!(chunks, vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn static_splits_by_thread_count() {
        let s = Scheduler::new(Partitioner::Static, 1);
        let t = rayon::current_num_threads().max(1);
        let chunks = s.chunks(10 * t);
        assert_eq!(chunks.len(), t);
    }

    #[test]
    fn granularity_clamped_to_one() {
        let s = Scheduler::new(Partitioner::Auto, 0);
        assert_eq!(s.granularity, 1);
        assert_eq!(s.chunks(3).len(), 3);
    }

    /// Asserts `chunks` are non-empty ranges covering `0..n` in order.
    fn assert_tiles(chunks: &[Range<usize>], n: usize, what: &str) {
        let mut next = 0;
        for c in chunks {
            assert_eq!(c.start, next, "{what}");
            assert!(c.end > c.start, "{what}");
            next = c.end;
        }
        assert_eq!(next, n, "{what}");
    }

    #[test]
    fn auto_row_plan_is_bounded_in_size_and_count() {
        for threads in [1usize, 2, 3, 8] {
            let pool = thread_pool(threads).unwrap();
            for g in [1usize, 7, 256] {
                let s = Scheduler::new(Partitioner::Auto, g);
                for n in [0usize, 1, 5, 6, 7, 100, 1000, 4097] {
                    let what = format!("threads={threads} g={g} n={n}");
                    let chunks = pool.install(|| s.row_chunks(n));
                    assert_tiles(&chunks, n, &what);
                    // Only a loop shorter than one grain makes a short task.
                    assert!(chunks.iter().all(|c| c.len() >= g.min(n)), "{what}");
                    if threads == 1 {
                        assert_eq!(chunks.len(), usize::from(n > 0), "{what}");
                    } else {
                        // Never above the cap, and not below it once there
                        // are enough grains to fill it.
                        assert_eq!(
                            chunks.len(),
                            (n / g).clamp(usize::from(n > 0), AUTO_TASKS_PER_THREAD * threads),
                            "{what}"
                        );
                        let (lo, hi) = chunks.iter().fold((usize::MAX, 0), |(lo, hi), c| {
                            (lo.min(c.len()), hi.max(c.len()))
                        });
                        assert!(n == 0 || hi - lo <= 1, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn simple_and_static_row_plans_are_the_window_plans() {
        let pool = thread_pool(3).unwrap();
        for g in [1usize, 3, 8] {
            let simple = Scheduler::new(Partitioner::Simple, g);
            let fixed = Scheduler::new(Partitioner::Static, g);
            for n in [0usize, 1, 10, 100] {
                let chunks = pool.install(|| simple.row_chunks(n));
                assert_eq!(chunks.len(), n.div_ceil(g), "Simple g={g} n={n}");
                assert_eq!(chunks, simple.chunks(n));
                pool.install(|| assert_eq!(fixed.row_chunks(n), fixed.chunks(n)));
            }
        }
    }

    #[test]
    fn auto_row_loop_on_one_thread_is_one_call() {
        let pool = thread_pool(1).unwrap();
        let s = Scheduler::new(Partitioner::Auto, 1);
        let calls = AtomicUsize::new(0);
        let mut data = vec![1.0f64; 300];
        // A reduce that would betray any extra fold step.
        let sum = pool.install(|| {
            s.map_reduce_rows_mut(
                &mut data,
                3,
                f64::NAN,
                |row0, slice| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert_eq!((row0, slice.len()), (0, 300));
                    slice.iter().sum::<f64>()
                },
                |_, _| unreachable!("one task needs no reduction"),
            )
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(sum, 300.0);
        // The grain-per-task partitioner still makes every call.
        let simple = Scheduler::new(Partitioner::Simple, 1);
        let calls = AtomicUsize::new(0);
        pool.install(|| {
            simple.map_reduce_slice_mut(
                &mut data,
                (),
                |_, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                },
                |_, _| (),
            )
        });
        assert_eq!(calls.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn for_each_range_visits_every_index_once() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 3);
            let n = 1000;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            s.for_each_range(n, |r| {
                for i in r {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{part:?}"
            );
        }
    }

    #[test]
    fn map_reduce_sums_correctly() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 7);
            let total = s.map_reduce_range(100, 0usize, |r| r.sum::<usize>(), |a, b| a + b);
            assert_eq!(total, 99 * 100 / 2, "{part:?}");
        }
    }

    #[test]
    fn map_reduce_empty_returns_identity() {
        let s = Scheduler::default();
        assert_eq!(s.map_reduce_range(0, 42usize, |_| 0, |a, b| a + b), 42);
    }

    #[test]
    fn sequential_fallback_is_ordered() {
        let s = Scheduler::new(Partitioner::Auto, 4);
        let seen = Mutex::new(Vec::new());
        s.for_each_range_seq(10, |r| seen.lock().unwrap().push(r));
        assert_eq!(*seen.lock().unwrap(), vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn map_reduce_slice_mut_writes_and_reduces() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 3);
            let mut data = vec![0usize; 20];
            let sum = s.map_reduce_slice_mut(
                &mut data,
                0usize,
                |off, slice| {
                    let mut acc = 0;
                    for (i, x) in slice.iter_mut().enumerate() {
                        *x = off + i;
                        acc += *x;
                    }
                    acc
                },
                |a, b| a + b,
            );
            assert_eq!(sum, 19 * 20 / 2, "{part:?}");
            let expect: Vec<usize> = (0..20).collect();
            assert_eq!(data, expect, "{part:?}");
        }
    }

    #[test]
    fn map_reduce_slice_mut_empty() {
        let s = Scheduler::default();
        let mut data: Vec<u8> = vec![];
        let r = s.map_reduce_slice_mut(&mut data, 7u32, |_, _| 0, |a, b| a + b);
        assert_eq!(r, 7);
    }

    #[test]
    fn map_reduce_rows_mut_is_row_aligned() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 2);
            let width = 3;
            let mut data = vec![0usize; 7 * width];
            let total = s.map_reduce_rows_mut(
                &mut data,
                width,
                0usize,
                |row0, slice| {
                    assert_eq!(slice.len() % width, 0);
                    let mut acc = 0;
                    for (i, x) in slice.iter_mut().enumerate() {
                        let row = row0 + i / width;
                        *x = row;
                        acc += row;
                    }
                    acc
                },
                |a, b| a + b,
            );
            assert_eq!(total, (0..7).map(|r| r * width).sum::<usize>(), "{part:?}");
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i / width);
            }
        }
    }

    /// Prefix sum of `weights` with a leading 0.
    fn prefix_of(weights: &[usize]) -> Vec<usize> {
        let mut p = Vec::with_capacity(weights.len() + 1);
        p.push(0);
        let mut acc = 0;
        for &w in weights {
            acc += w;
            p.push(acc);
        }
        p
    }

    #[test]
    fn weighted_chunks_tile_and_match_unweighted_count() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            for g in [1usize, 3, 8] {
                let s = Scheduler::new(part, g);
                // Heavy head: vertex-balanced chunks would overload task 0.
                let weights: Vec<usize> = (0..30).map(|i| if i < 3 { 100 } else { 1 }).collect();
                let prefix = prefix_of(&weights);
                let chunks = s.chunks_weighted(&prefix);
                assert_eq!(chunks.len(), s.row_chunks(30).len(), "{part:?} g={g}");
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next);
                    assert!(c.end > c.start);
                    next = c.end;
                }
                assert_eq!(next, 30);
            }
        }
    }

    #[test]
    fn weighted_chunks_balance_edges_not_rows() {
        // 4 hub rows with weight 50, then 46 rows of weight 1. With grain 5
        // the unweighted plan holds all four hubs (200 of 246 total) in its
        // first chunk; the weighted plan must spread them out.
        let s = Scheduler::new(Partitioner::Simple, 5);
        let weights: Vec<usize> = (0..50).map(|i| if i < 4 { 50 } else { 1 }).collect();
        let prefix = prefix_of(&weights);
        let chunks = s.chunks_weighted(&prefix);
        let total: usize = weights.iter().sum();
        let ideal = total / chunks.len();
        let max_load = chunks
            .iter()
            .map(|c| prefix[c.end] - prefix[c.start])
            .max()
            .unwrap();
        // Each chunk's load stays within one max item weight of ideal.
        assert!(
            max_load <= ideal + 50,
            "max {max_load} vs ideal {ideal} over {} chunks",
            chunks.len()
        );
        // And the hub rows did not all land in one chunk.
        let hubs_in_first = chunks[0].clone().filter(|&r| r < 4).count();
        assert!(hubs_in_first < 4, "hubs must be split across chunks");
    }

    #[test]
    fn weighted_chunks_degenerate_cases() {
        let s = Scheduler::new(Partitioner::Simple, 4);
        assert!(s.chunks_weighted(&[0]).is_empty(), "no items");
        assert!(s.chunks_weighted(&[]).is_empty(), "empty prefix");
        // All-zero weights fall back to unweighted chunking.
        assert_eq!(s.chunks_weighted(&[0, 0, 0, 0, 0, 0]), s.chunks(5));
        // One chunk: everything in it.
        assert_eq!(s.chunks_weighted(&[0, 1, 2, 3]), vec![0..3]);
    }

    #[test]
    fn map_reduce_rows_chunked_matches_unchunked() {
        for part in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            let s = Scheduler::new(part, 2);
            let width = 3;
            let rows = 9;
            let weights: Vec<usize> = (0..rows).map(|i| 1 + (i % 4) * 10).collect();
            let prefix = prefix_of(&weights);
            let chunks = s.chunks_weighted(&prefix);
            let mut data = vec![0usize; rows * width];
            let total = s.map_reduce_rows_chunked_mut(
                &mut data,
                width,
                &chunks,
                0usize,
                |row0, slice| {
                    let mut acc = 0;
                    for (i, x) in slice.iter_mut().enumerate() {
                        let row = row0 + i / width;
                        *x = row;
                        acc += row;
                    }
                    acc
                },
                |a, b| a + b,
            );
            assert_eq!(
                total,
                (0..rows).map(|r| r * width).sum::<usize>(),
                "{part:?}"
            );
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i / width);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunks must tile rows")]
    fn map_reduce_rows_chunked_rejects_gaps() {
        let s = Scheduler::default();
        let mut data = vec![0u8; 12];
        s.map_reduce_rows_chunked_mut(&mut data, 3, &[0..1, 2..4], (), |_, _| (), |_, _| ());
    }

    #[test]
    fn with_balance_builder() {
        let s = Scheduler::new(Partitioner::Auto, 4).with_balance(Balance::Edge);
        assert_eq!(s.balance, Balance::Edge);
        assert_eq!(Scheduler::default().balance, Balance::Vertex);
    }

    #[test]
    #[should_panic(expected = "non-rectangular")]
    fn map_reduce_rows_mut_rejects_ragged() {
        let s = Scheduler::default();
        let mut data = vec![0u8; 7];
        s.map_reduce_rows_mut(&mut data, 3, (), |_, _| (), |_, _| ());
    }

    #[test]
    fn overlap_runs_both_and_joins() {
        let mut touched = 0u32;
        let data = [1u64, 2, 3];
        let (bg, fg, stall) = overlap(
            || data.iter().sum::<u64>(),
            || {
                touched += 1;
                touched
            },
        );
        assert_eq!(bg, 6);
        assert_eq!(fg, 1);
        assert!(stall.as_nanos() < u128::MAX);
    }

    #[test]
    fn overlap_propagates_background_panic() {
        let r = std::panic::catch_unwind(|| {
            overlap(|| panic!("boom"), || 7u8);
        });
        assert!(r.is_err());
    }

    #[test]
    fn custom_thread_pool_runs_work() {
        let pool = thread_pool(2).unwrap();
        let s = Scheduler::new(Partitioner::Auto, 1);
        let sum = pool.install(|| s.map_reduce_range(10, 0usize, |r| r.sum(), |a, b| a + b));
        assert_eq!(sum, 45);
    }

    #[test]
    fn work_queue_hands_each_index_out_once() {
        let q = WorkQueue::new(100);
        let claimed: Vec<Mutex<Vec<usize>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for slot in &claimed {
                s.spawn(|| {
                    while let Some(i) = q.claim() {
                        slot.lock().unwrap().push(i);
                    }
                });
            }
        });
        let mut all: Vec<usize> = claimed
            .iter()
            .flat_map(|m| m.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        assert_eq!(q.claim(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn worker_pool_returns_results_in_index_order() {
        for workers in [0usize, 1, 2, 4, 9] {
            let got = worker_pool(workers, 7, |i, _q| i * i);
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36], "workers={workers}");
        }
        // Empty range: no work, no threads.
        assert!(worker_pool(4, 0, |i, _q| i).is_empty());
    }

    #[test]
    fn worker_pool_peek_never_returns_a_claimed_index() {
        let seen = AtomicUsize::new(0);
        worker_pool(3, 50, |i, q| {
            if let Some(next) = q.peek() {
                // `peek` is a prefetch hint: it may lag, but it must never
                // point at an index some worker already claimed and
                // finished out from under us — monotonicity suffices.
                assert!(next > i || next >= seen.load(Ordering::Relaxed));
            }
            seen.fetch_max(i, Ordering::Relaxed);
        });
    }

    #[test]
    fn worker_pool_propagates_worker_panic() {
        let r = std::panic::catch_unwind(|| {
            worker_pool(2, 8, |i, _q| {
                if i == 5 {
                    panic!("boom");
                }
                i
            });
        });
        assert!(r.is_err());
    }
}
