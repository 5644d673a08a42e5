//! `kernel::query`: the (window × query) lane batch.

use crate::spans::Spans;
use tempopr::core::EngineQuery;
use tempopr::graph::{MultiWindowSet, TimeRange};
use tempopr::kernel::{
    pagerank_query_batch, PrConfig, QueryBatch, QueryInit, QuerySpec, QueryWorkspace, MAX_LANES,
};

/// Raw measurements of the query replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryReplay {
    /// Every batch, `sched = None`.
    pub seq_s: f64,
    /// Σ over cells of the cell's iterations (exact).
    pub cell_iterations: u64,
    /// Σ over batches of cell iterations × run-compressed pull entries.
    pub lane_entries: u64,
    /// Lanes computed.
    pub lanes: u64,
    /// Lanes compaction retired before their batch ended.
    pub lanes_retired: u64,
}

/// Replays `pagerank_query_batch` over the (window × query) batches the
/// engine forms under full initialization: per part, `MAX_LANES / nq`
/// window slots striding the part's windows, fresh starts.
pub fn replay(
    spans: &Spans,
    set: &MultiWindowSet,
    queries: &[EngineQuery],
    pr: &PrConfig,
) -> Result<QueryReplay, String> {
    let mut r = QueryReplay::default();
    let mut ws = QueryWorkspace::default();
    let nq = queries.len();
    for part in set.graphs() {
        let vmap = part.vertex_map();
        let nw = part.num_windows();
        let w0 = part.windows().start;
        // Preferences in the part's local vertex space.
        let local: Vec<(Vec<f64>, f64)> = queries
            .iter()
            .map(|q| match q {
                EngineQuery::Personalized { preference, alpha } => Ok((
                    vmap.iter().map(|&g| preference[g as usize]).collect(),
                    *alpha,
                )),
                EngineQuery::Katz { .. } => Err("the query replay takes personalized queries"),
            })
            .collect::<Result<_, _>>()?;
        let specs = local
            .iter()
            .map(|(preference, alpha)| QuerySpec::Personalized {
                preference,
                alpha: *alpha,
            })
            .collect();
        let batch = QueryBatch::new(specs).map_err(|e| format!("query batch: {e}"))?;
        let slots = (MAX_LANES / nq).max(1).min(nw);
        let region = nw.div_ceil(slots);
        for j in 0..region {
            let ranges: Vec<TimeRange> = (0..slots)
                .map(|s| s * region + j)
                .filter(|&lw| lw < nw)
                .map(|lw| set.spec().window(w0 + lw))
                .collect();
            let inits = vec![QueryInit::Fresh; ranges.len() * nq];
            let (out, s) = spans.time("kernel.query.pagerank_query_batch", || {
                pagerank_query_batch(
                    part.pull_tcsr(),
                    part.tcsr(),
                    &ranges,
                    &batch,
                    &inits,
                    pr,
                    None,
                    &mut ws,
                )
            });
            let out = out.map_err(|e| format!("query replay, batch {j}: {e}"))?;
            let iters: u64 = out.stats.iter().map(|s| s.iterations as u64).sum();
            r.seq_s += s;
            r.cell_iterations += iters;
            r.lane_entries += iters * ws.base.run_nbr.len() as u64;
            r.lanes += out.stats.len() as u64;
            r.lanes_retired += out.lanes_retired as u64;
        }
    }
    Ok(r)
}
