//! Batched-query throughput: N personalized queries in one (window ×
//! query) batched run versus the looped single-query kernel.
//!
//! The query batch generalizes the paper's SpMM lane axis from "windows"
//! to "(window, query)": an alpha grid × seed-vertex grid shares one
//! traversal of each part's temporal CSR per iteration instead of
//! re-reading it once per query. Both sides run full initialization and
//! sequential scheduling, so every cell is bit-identical between them —
//! the experiment checks that before it reports a single number. The
//! committed-numbers source for the EXPERIMENTS.md batched-query table.

use crate::common::{fail, pr_config, time, workload, write_metrics, Opts};
use tempopr_core::{
    rank_fingerprint, EngineQuery, InitMode, KernelKind, ParallelMode, PostmortemConfig,
    PostmortemEngine, RetainMode,
};
use tempopr_datagen::{Dataset, DAY};
use tempopr_kernel::{pagerank_window_personalized, PrConfig, PrWorkspace};
use tempopr_telemetry::Telemetry;

/// The alpha grid of the query batch (each combined with every seed).
pub const ALPHAS: [f64; 4] = [0.10, 0.15, 0.20, 0.25];

/// Builds the N = `seeds × ALPHAS` personalized query grid.
pub fn query_grid(num_vertices: usize, seeds: usize) -> Vec<EngineQuery> {
    let mut queries = Vec::with_capacity(seeds * ALPHAS.len());
    for s in 0..seeds {
        let seed = ((s * 13 + 2) % num_vertices.max(1)) as u32;
        for alpha in ALPHAS {
            queries.push(EngineQuery::seeded(seed, num_vertices, alpha));
        }
    }
    queries
}

/// The looped baseline: every query recomputed window by window with the
/// single-query personalized kernel over the same multi-window parts.
/// Returns per-(window, query) fingerprints in `(window, query)` order.
fn looped_baseline(engine: &PostmortemEngine, queries: &[EngineQuery], pr: &PrConfig) -> Vec<f64> {
    let spec = *engine.spec();
    let mut fps = vec![0.0f64; spec.count * queries.len()];
    let mut ws = PrWorkspace::default();
    for p in 0..engine.num_parts() {
        let fetched = engine
            .part(p)
            .unwrap_or_else(|e| fail(format!("looped fetch of part {p}: {e}")));
        let part = &*fetched;
        let vmap = part.vertex_map();
        for (q, query) in queries.iter().enumerate() {
            let EngineQuery::Personalized { preference, alpha } = query else {
                continue;
            };
            let local: Vec<f64> = vmap.iter().map(|&g| preference[g as usize]).collect();
            let pr_q = PrConfig {
                alpha: *alpha,
                ..*pr
            };
            for w in part.windows() {
                pagerank_window_personalized(
                    part.tcsr(),
                    part.tcsr(),
                    spec.window(w),
                    &local,
                    &pr_q,
                    None,
                    &mut ws,
                )
                .unwrap_or_else(|e| fail(format!("looped query {q} window {w}: {e}")));
                fps[w * queries.len() + q] = rank_fingerprint(&ws.x, Some(vmap));
            }
        }
    }
    fps
}

/// Runs the throughput comparison at N = 64 queries (16 seeds × 4 alphas)
/// on wiki-talk, printing both wall times, the throughput ratio, and the
/// compaction counters — after verifying batched == looped bit-for-bit.
pub fn run(opts: &Opts) {
    println!("# Batched-query throughput (scale = {})", opts.scale);
    let (log, spec) = workload(Dataset::WikiTalk, 5 * DAY, 20 * DAY, opts);
    let queries = query_grid(log.num_vertices(), 16);
    let nq = queries.len();
    let tele = Telemetry::enabled();
    let mut pr = pr_config();
    pr.simd = opts.simd;
    pr.compaction = opts.compaction;
    // Full init + sequential scheduling on both sides: the comparison is
    // pure traversal amortization, and every cell stays bit-identical.
    let cfg = PostmortemConfig {
        kernel: KernelKind::SpMM {
            lanes: tempopr_kernel::MAX_LANES,
        },
        mode: ParallelMode::Sequential,
        init_mode: opts.init_mode.unwrap_or(InitMode::Full),
        retain: RetainMode::Summary,
        threads: opts.threads,
        pr,
        ..Default::default()
    };
    let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
        .unwrap_or_else(|e| fail(format!("engine build: {e}")));
    let bitwise = engine.config().init_mode == InitMode::Full;
    let (batched, t_batched) = time(|| {
        engine
            .run_queries(&queries)
            .unwrap_or_else(|e| fail(format!("batched query run: {e}")))
    });
    let (looped_fps, t_looped) = time(|| looped_baseline(&engine, &queries, &pr));
    let mut mismatched = 0usize;
    for o in &batched.outputs {
        if o.fingerprint.to_bits() != looped_fps[o.window * nq + o.query].to_bits() {
            mismatched += 1;
        }
    }
    if bitwise && mismatched > 0 {
        fail(format!(
            "{mismatched} of {} cells differ from the looped baseline",
            batched.outputs.len()
        ));
    }
    let report = tele.report();
    let cells = batched.outputs.len();
    let ratio = t_looped.as_secs_f64() / t_batched.as_secs_f64().max(1e-12);
    println!(
        "{:>8} {:>8} {:>7} {:>11} {:>10} {:>9} {:>9} {:>12} {:>8}",
        "queries",
        "windows",
        "cells",
        "batched_s",
        "looped_s",
        "speedup",
        "retired",
        "iters_saved",
        "parity"
    );
    println!(
        "{:>8} {:>8} {:>7} {:>11.3} {:>10.3} {:>8.2}x {:>9} {:>12} {:>8}",
        nq,
        spec.count,
        cells,
        t_batched.as_secs_f64(),
        t_looped.as_secs_f64(),
        ratio,
        report.counter("query.retired"),
        report.counter("query.iterations_saved"),
        if bitwise { "bitwise" } else { "n/a" },
    );
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &tele);
    }
}
