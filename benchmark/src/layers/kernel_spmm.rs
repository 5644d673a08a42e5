//! `kernel::spmm`: the lane-batched power iteration.

use crate::spans::Spans;
use tempopr::graph::MultiWindowSet;
use tempopr::kernel::{
    pagerank_batch_indexed, thread_pool, Init, PrConfig, Scheduler, SpmmWorkspace,
};

/// Windows per replayed batch (the engine's default lane count).
pub const LANES: usize = 16;

/// Raw measurements of the SpMM replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmmReplay {
    /// Every batch, `sched = None`.
    pub seq_s: f64,
    /// Every batch again under the default scheduler in a pool.
    pub par_s: f64,
    /// Σ over batches and lanes of the lane's iterations (exact).
    pub lane_iterations: u64,
    /// Σ over batches of lane iterations × run-compressed pull entries of
    /// the batch: the lane-entries the kernel accumulates (computed).
    pub lane_entries: u64,
    /// Σ over batches of (slowest lane's iterations × bytes of the arrays
    /// one iteration reads and writes), from array sizes (computed).
    pub computed_bytes: u64,
}

/// One walk over every batch of `set` under `sched`; its seconds land in
/// `seq_s`.
fn walk(
    spans: &Spans,
    set: &MultiWindowSet,
    pr: &PrConfig,
    sched: Option<&Scheduler>,
) -> Result<SpmmReplay, String> {
    let name = if sched.is_none() {
        "kernel.spmm.batch_indexed.seq"
    } else {
        "kernel.spmm.batch_indexed.par"
    };
    let mut r = SpmmReplay::default();
    let mut ws = SpmmWorkspace::default();
    for part in set.graphs() {
        let (pull, push) = (part.pull_tcsr(), part.tcsr());
        let index = part.window_index();
        let nw = part.num_windows();
        for lo in (0..nw).step_by(LANES) {
            let views: Vec<_> = (lo..(lo + LANES).min(nw))
                .map(|lw| index.view(lw))
                .collect();
            let inits = vec![Init::Uniform; views.len()];
            let (stats, secs) = spans.time(name, || {
                pagerank_batch_indexed(pull, push, &views, &inits, pr, sched, &mut ws)
            });
            let stats = stats.map_err(|e| format!("SpMM replay, part batch {lo}: {e}"))?;
            let lane_iters: u64 = stats.iter().map(|s| s.iterations as u64).sum();
            let slowest = stats.iter().map(|s| s.iterations as u64).max().unwrap_or(0);
            // One iteration reads the run arrays, the masks, x and
            // inv_deg, and writes y.
            let bytes = 4 * ws.run_nbr.len()
                + 8 * (ws.run_mask.len() + ws.run_row.len())
                + 8 * (ws.x.len() + ws.y.len() + ws.inv_deg.len())
                + 8 * (ws.active_mask.len() + ws.dangling_mask.len())
                + 4 * ws.active_list.len();
            r.seq_s += secs;
            r.lane_iterations += lane_iters;
            r.lane_entries += lane_iters * ws.run_nbr.len() as u64;
            r.computed_bytes += slowest * bytes as u64;
        }
    }
    Ok(r)
}

/// Replays `pagerank_batch_indexed` from uniform starts over every part
/// of `set` (indexes already built), 16 consecutive windows per call,
/// sequentially and then in parallel inside `thread_pool(threads)`.
pub fn replay(
    spans: &Spans,
    set: &MultiWindowSet,
    pr: &PrConfig,
    threads: usize,
) -> Result<SpmmReplay, String> {
    let mut r = walk(spans, set, pr, None)?;
    let pool = thread_pool(threads).map_err(|e| format!("thread pool: {e}"))?;
    let sched = Scheduler::default();
    r.par_s = pool.install(|| walk(spans, set, pr, Some(&sched)))?.seq_s;
    Ok(r)
}
