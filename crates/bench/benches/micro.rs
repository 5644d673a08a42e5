//! Microbenchmarks no other harness measures: the per-window setup phase
//! (indexed vs unindexed, full vs window-sized part), the cost of the
//! numeric-health guards and of the telemetry hooks on the SpMV hot loop,
//! and the SpMM row walks against mask density (`spmm_inner`, which
//! re-derives `spmm::VECTOR_ROW_RULE` on a new host).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tempopr_bench::{BENCH_SCALE, BENCH_SEED};
use tempopr_core::TelemetryKernelBridge;
use tempopr_datagen::Dataset;
use tempopr_graph::{TemporalCsr, TimeRange, WindowIndex};
use tempopr_kernel::{
    pagerank_batch, pagerank_window, pagerank_window_indexed, pagerank_window_indexed_obs,
    GuardConfig, Init, Obs, PrConfig, PrWorkspace, SimdPolicy, SpmmWorkspace,
};
use tempopr_telemetry::Telemetry;

fn bench(c: &mut Criterion) {
    let log = Dataset::WikiTalk.spec().generate(BENCH_SCALE, BENCH_SEED);
    let span = log.last_time() - log.first_time();
    let tcsr = TemporalCsr::from_log(&log, true);

    let mut g = c.benchmark_group("micro");

    // --- pr_setup: per-window setup cost vs part size --------------------
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
    // On the indexed entry, the one the engine runs. A disabled carrier is
    // a branch on a None reference per observation site, so `off` must
    // track the plain entry point (<1%); `on` measures the full price of
    // recording (timestamps, trace events, counters) — unbounded, but kept
    // honest here. A fresh sink per invocation bounds trace memory during
    // the measurement.
    g.bench_function("telemetry_overhead/baseline", |b| {
        b.iter(|| {
            pagerank_window_indexed(
                &tcsr,
                &tcsr,
                &index_full.view(j),
                Init::Uniform,
                &full_cfg,
                None,
                &mut ws,
            )
        })
    });
    g.bench_function("telemetry_overhead/off", |b| {
        b.iter(|| {
            pagerank_window_indexed_obs(
                &tcsr,
                &tcsr,
                &index_full.view(j),
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
            pagerank_window_indexed_obs(
                &tcsr,
                &tcsr,
                &index_full.view(j),
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
