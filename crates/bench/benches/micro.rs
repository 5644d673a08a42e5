//! Micro-benchmarks of the data structures underlying the experiments:
//! temporal-CSR construction and traversal, static CSR rebuilds (the
//! offline model's inner loop), and streaming-store update throughput (the
//! streaming model's inner loop).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tempopr_bench::{BENCH_SCALE, BENCH_SEED};
use tempopr_core::TelemetryKernelBridge;
use tempopr_datagen::Dataset;
use tempopr_graph::{Csr, TemporalCsr, TimeRange, WindowIndex};
use tempopr_kernel::{
    pagerank_batch, pagerank_query_batch, pagerank_window, pagerank_window_indexed,
    pagerank_window_obs, pagerank_window_personalized, Balance, GuardConfig, Init, Obs,
    Partitioner, PrConfig, PrWorkspace, QueryBatch, QueryInit, QuerySpec, QueryWorkspace,
    Scheduler, SimdPolicy, SpmmWorkspace,
};
use tempopr_stream::StreamingGraph;
use tempopr_telemetry::Telemetry;

fn bench(c: &mut Criterion) {
    let log = Dataset::WikiTalk.spec().generate(BENCH_SCALE, BENCH_SEED);
    let span = log.last_time() - log.first_time();
    let window = TimeRange::new(log.first_time() + span / 4, log.first_time() + span / 2);

    let mut g = c.benchmark_group("micro");

    g.bench_function("tcsr_build", |b| {
        b.iter(|| std::hint::black_box(TemporalCsr::from_log(&log, true).num_entries()))
    });

    let tcsr = TemporalCsr::from_log(&log, true);
    g.bench_function("tcsr_window_degree_pass", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in 0..tcsr.num_vertices() as u32 {
                total += tcsr.active_degree(v, window);
            }
            std::hint::black_box(total)
        })
    });

    // --- WindowIndex: setup cost vs part size ---------------------------
    // A 16-window uniform grid over the log's span; the benched window is
    // one of them. The unindexed per-window degree/activity phase scans
    // every stored entry of the part, so it shrinks when the part does; the
    // indexed setup copies the window's active list and is invariant to how
    // many entries the part holds (the acceptance check for the index).
    let sw = (span / 16).max(1);
    let grid: Vec<TimeRange> = (0..16)
        .map(|i| {
            let s = log.first_time() + i * sw;
            TimeRange::new(s, s + 2 * sw)
        })
        .collect();
    let j = 6usize;
    let bench_window = grid[j];
    g.bench_function("window_index_build_16_windows", |b| {
        b.iter(|| std::hint::black_box(WindowIndex::build(&tcsr, None, &grid).memory_bytes()))
    });
    // max_iters = 0 isolates the setup (degree/activity + init) phase.
    let setup_cfg = PrConfig {
        max_iters: 0,
        ..Default::default()
    };
    let index_full = WindowIndex::build(&tcsr, None, &grid);
    let small_events = log.slice_by_time(bench_window.start, bench_window.end);
    let tcsr_small = TemporalCsr::from_events(log.num_vertices(), small_events, true);
    let index_small = WindowIndex::build(&tcsr_small, None, &grid[j..j + 1]);
    let mut ws = PrWorkspace::default();
    g.bench_function("pr_setup_unindexed_full_part", |b| {
        b.iter(|| {
            pagerank_window(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &setup_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("pr_setup_unindexed_window_part", |b| {
        b.iter(|| {
            pagerank_window(
                &tcsr_small,
                &tcsr_small,
                bench_window,
                Init::Uniform,
                &setup_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("pr_setup_indexed_full_part", |b| {
        b.iter(|| {
            pagerank_window_indexed(
                &tcsr,
                &tcsr,
                &index_full.view(j),
                Init::Uniform,
                &setup_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("pr_setup_indexed_window_part", |b| {
        b.iter(|| {
            pagerank_window_indexed(
                &tcsr_small,
                &tcsr_small,
                &index_small.view(0),
                Init::Uniform,
                &setup_cfg,
                None,
                &mut ws,
            )
        })
    });

    g.bench_function("csr_rebuild_per_window", |b| {
        let events = log.slice_by_time(window.start, window.end);
        b.iter(|| {
            std::hint::black_box(Csr::from_events(log.num_vertices(), events, true).num_edges())
        })
    });

    // Same construction, but recycling the previous window's row/col
    // buffers (the offline driver's finalize-stage workspace reuse): the
    // delta vs `csr_rebuild_per_window` is the pure allocation cost the
    // exec-layer source recycles away in steady state.
    g.bench_function("csr_rebuild_per_window_reused", |b| {
        let events = log.slice_by_time(window.start, window.end);
        let mut csr = Csr::from_events(log.num_vertices(), events, true);
        b.iter(|| {
            csr.rebuild_from_events(log.num_vertices(), events, true);
            std::hint::black_box(csr.num_edges())
        })
    });

    g.bench_function("streaming_insert_delete_cycle", |b| {
        b.iter(|| {
            let mut sg = StreamingGraph::new(log.num_vertices());
            for e in log.slice_by_time(window.start, window.end) {
                sg.insert_event(e.u, e.v, e.t);
            }
            for e in log.slice_by_time(window.start, window.end) {
                let _ = sg.delete_event(e.u, e.v);
            }
            std::hint::black_box(sg.num_edges())
        })
    });

    // --- guards_overhead: numeric-health checks on the SpMV hot loop -----
    // The per-iteration NaN/mass-drift guard piggybacks on the convergence
    // reduction (one extra add per vertex), so the healthy-path cost should
    // be noise (<2%). Full power iterations to convergence, same window,
    // guard on vs off.
    let full_cfg = PrConfig::default();
    let unguarded_cfg = PrConfig {
        guard: GuardConfig::off(),
        ..PrConfig::default()
    };
    g.bench_function("guards_overhead/on", |b| {
        b.iter(|| {
            pagerank_window(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &full_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("guards_overhead/off", |b| {
        b.iter(|| {
            pagerank_window(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &unguarded_cfg,
                None,
                &mut ws,
            )
        })
    });

    // --- telemetry_overhead: observation hooks on the SpMV hot loop ------
    // A disabled carrier is a branch on a None reference per observation
    // site, so `off` must track the plain entry point (<1%); `on` measures
    // the full price of recording (timestamps, trace events, counters) —
    // unbounded, but kept honest here. A fresh sink per invocation bounds
    // trace memory during the measurement.
    g.bench_function("telemetry_overhead/baseline", |b| {
        b.iter(|| {
            pagerank_window(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &full_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("telemetry_overhead/off", |b| {
        b.iter(|| {
            pagerank_window_obs(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &full_cfg,
                None,
                &mut ws,
                Obs::off(),
            )
        })
    });
    g.bench_function("telemetry_overhead/on", |b| {
        b.iter(|| {
            let tele = Telemetry::enabled();
            let bridge = TelemetryKernelBridge::new(&tele, 1);
            pagerank_window_obs(
                &tcsr,
                &tcsr,
                bench_window,
                Init::Uniform,
                &full_cfg,
                None,
                &mut ws,
                Obs::new(&bridge, 0),
            )
        })
    });

    // --- spmm_inner: the row walks against mask density ------------------
    // The batch kernel walks a row's runs over whole strides or bit by bit,
    // by how many of a run's lanes are live (`spmm::VECTOR_ROW_RULE`). The
    // sweep lays `vl` windows `slide` apart, each `ratio` slides long, so
    // an event lies in about `ratio` lanes: ratio 1 is the disjoint batch
    // (one live cell per run), ratio >= vl the all-lanes-overlap one. Each
    // point runs pinned to the bit walk and under `Auto`, which follows the
    // rule (row walk iff cells per run >= vl / 8), and prints the live cells
    // per run it was measured at — where `auto` is the slower arm the
    // constant is on the wrong side on this host. Compaction is off so the
    // stride stays `vl` throughout.
    let mut sws = SpmmWorkspace::default();
    for vl in [4usize, 8, 16] {
        for ratio in [1usize, 2, 4, 8] {
            let slide = span / (vl + ratio) as i64;
            let ranges: Vec<TimeRange> = (0..vl as i64)
                .map(|k| {
                    let s = log.first_time() + k * slide;
                    TimeRange::new(s, s + ratio as i64 * slide - 1)
                })
                .collect();
            let inits = vec![Init::Uniform; vl];
            for (name, simd) in [("bitwalk", SimdPolicy::BitWalk), ("auto", SimdPolicy::Auto)] {
                let cfg = PrConfig {
                    simd,
                    compaction: false,
                    ..PrConfig::default()
                };
                g.bench_function(format!("spmm_inner_vl{vl}_ratio{ratio}/{name}"), |b| {
                    b.iter(|| pagerank_batch(&tcsr, &tcsr, &ranges, &inits, &cfg, None, &mut sws))
                });
            }
            let (runs, cells) = (
                sws.run_mask.len(),
                sws.run_mask.iter().map(|m| m.count_ones()).sum::<u32>(),
            );
            println!(
                "spmm_inner_vl{vl}_ratio{ratio}: {runs} runs, {:.2} live cells per run at the start",
                f64::from(cells) / runs.max(1) as f64,
            );
        }
    }

    // --- spmm_compaction: converged-lane repacking -----------------------
    // Staggered window sizes converge at very different iterations; with
    // compaction on, the batch repacks x/inv_deg/masks to a smaller
    // effective vl as lanes finish instead of dragging dead columns
    // through every remaining row.
    let staggered: Vec<TimeRange> = (0..16i64)
        .map(|k| TimeRange::new(window.start, window.start + (span / 64) * (k + 1)))
        .collect();
    let stag_inits = vec![Init::Uniform; staggered.len()];
    for (name, compaction) in [("off", false), ("on", true)] {
        let cfg = PrConfig {
            compaction,
            ..PrConfig::default()
        };
        g.bench_function(format!("spmm_compaction/{name}"), |b| {
            b.iter(|| pagerank_batch(&tcsr, &tcsr, &staggered, &stag_inits, &cfg, None, &mut sws))
        });
    }

    // --- batch_query_throughput: (window × query) lanes vs a query loop --
    // The tentpole claim: N personalized queries over W windows amortize
    // one traversal of the window's stored runs across all N columns, so
    // the batched kernel must beat N separate single-query solves on the
    // same windows. Staggered alphas make the lanes converge at different
    // iterations, which is where per-query retirement (compaction) pays.
    let qn = log.num_vertices();
    let q_windows: Vec<TimeRange> = (0..4i64)
        .map(|k| {
            let s = log.first_time() + k * (span / 8);
            TimeRange::new(s, s + span / 4)
        })
        .collect();
    let q_prefs: Vec<Vec<f64>> = (0..4usize)
        .map(|s| {
            let mut p = vec![0.0f64; qn];
            p[(s * 13 + 2) % qn] = 1.0;
            p
        })
        .collect();
    let q_alphas = [0.10, 0.15, 0.20, 0.25];
    let q_specs: Vec<QuerySpec<'_>> = q_prefs
        .iter()
        .flat_map(|p| {
            q_alphas.iter().map(|&alpha| QuerySpec::Personalized {
                preference: p,
                alpha,
            })
        })
        .collect();
    // 4 seeds × 4 alphas = 16 queries; × 4 windows = 64 lanes (MAX_LANES).
    let q_batch = QueryBatch::new(q_specs.clone()).unwrap();
    let q_inits = vec![QueryInit::Fresh; q_windows.len() * q_batch.len()];
    let q_cfg = PrConfig::default();
    let mut q_ws = QueryWorkspace::default();
    g.bench_function("batch_query_throughput/batched", |b| {
        b.iter(|| {
            pagerank_query_batch(
                &tcsr, &tcsr, &q_windows, &q_batch, &q_inits, &q_cfg, None, &mut q_ws,
            )
            .unwrap()
            .stats
            .len()
        })
    });
    g.bench_function("batch_query_throughput/looped", |b| {
        b.iter(|| {
            let mut iters = 0usize;
            for &range in &q_windows {
                for p in &q_prefs {
                    for &alpha in &q_alphas {
                        let cfg = PrConfig { alpha, ..q_cfg };
                        let out = pagerank_window_personalized(
                            &tcsr, &tcsr, range, p, &cfg, None, &mut ws,
                        )
                        .unwrap();
                        iters += out.pr.iterations;
                    }
                }
            }
            std::hint::black_box(iters)
        })
    });

    // --- spmm_balance: vertex- vs edge-balanced parallel chunks ----------
    // wiki-talk's degree distribution is heavily skewed, so equal-row
    // static chunks hand one thread the hubs; degree-weighted boundaries
    // equalize the enclosed work instead.
    let bal_ranges = vec![bench_window; 16];
    let bal_inits = vec![Init::Uniform; 16];
    for (name, balance) in [("vertex", Balance::Vertex), ("edge", Balance::Edge)] {
        let sched = Scheduler::new(Partitioner::Static, 1).with_balance(balance);
        let cfg = PrConfig::default();
        g.bench_function(format!("spmm_balance/{name}"), |b| {
            b.iter(|| {
                pagerank_batch(
                    &tcsr,
                    &tcsr,
                    &bal_ranges,
                    &bal_inits,
                    &cfg,
                    Some(&sched),
                    &mut sws,
                )
            })
        });
    }

    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
