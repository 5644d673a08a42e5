//! `kernel::pagerank`: the SpMV power iteration, one window at a time.

use crate::spans::Spans;
use tempopr::graph::MultiWindowSet;
use tempopr::kernel::{
    pagerank_window_indexed, thread_pool, Init, PrConfig, PrWorkspace, Scheduler,
};

/// Raw measurements of the SpMV replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct PagerankReplay {
    /// Every window, `sched = None`.
    pub seq_s: f64,
    /// Every window again under the default scheduler in a pool.
    pub par_s: f64,
    /// Power iterations, summed over the windows (exact).
    pub iterations: u64,
    /// Σ iterations × the part's pull entries: what the kernel walks,
    /// computed from array sizes (exact).
    pub scanned_entries: u64,
    /// Σ iterations × the entries whose timestamp is in the window.
    pub useful_entries: u64,
}

/// One walk over every window of `set` under `sched`; its seconds land
/// in `seq_s`.
fn walk(
    spans: &Spans,
    set: &MultiWindowSet,
    pr: &PrConfig,
    sched: Option<&Scheduler>,
) -> Result<PagerankReplay, String> {
    let name = if sched.is_none() {
        "kernel.pagerank.window_indexed.seq"
    } else {
        "kernel.pagerank.window_indexed.par"
    };
    let mut r = PagerankReplay::default();
    let mut ws = PrWorkspace::default();
    for part in set.graphs() {
        let (pull, push) = (part.pull_tcsr(), part.tcsr());
        for w in part.windows() {
            let view = part.index_view(w);
            let (stats, secs) = spans.time(name, || {
                pagerank_window_indexed(pull, push, &view, Init::Uniform, pr, sched, &mut ws)
            });
            let stats = stats.map_err(|e| format!("SpMV replay, window {w}: {e}"))?;
            let range = set.spec().window(w);
            let iters = stats.iterations as u64;
            let active = pull
                .timestamps()
                .iter()
                .filter(|&&t| range.contains(t))
                .count();
            r.seq_s += secs;
            r.iterations += iters;
            r.scanned_entries += iters * pull.num_entries() as u64;
            r.useful_entries += iters * active as u64;
        }
    }
    Ok(r)
}

/// Replays `pagerank_window_indexed` from a uniform start over every
/// window of `set` (indexes already built), sequentially and then in
/// parallel inside `thread_pool(threads)`.
pub fn replay(
    spans: &Spans,
    set: &MultiWindowSet,
    pr: &PrConfig,
    threads: usize,
) -> Result<PagerankReplay, String> {
    let mut r = walk(spans, set, pr, None)?;
    let pool = thread_pool(threads).map_err(|e| format!("thread pool: {e}"))?;
    let sched = Scheduler::default();
    r.par_s = pool.install(|| walk(spans, set, pr, Some(&sched)))?.seq_s;
    Ok(r)
}
