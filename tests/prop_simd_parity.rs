//! Property-based parity tests for the vectorized SpMM hot path: the
//! whole-stride row walk (auto-detected AVX2 or forced scalar), chosen per
//! batch by mask density, and converged-lane compaction must produce
//! **byte-identical** rank fingerprints to the pre-vectorization mask-walk
//! kernel, across arbitrary event logs, vector lengths, partitioners, grain
//! sizes, and pipeline modes — and the run masks both walks read must be
//! the ones a lane-by-lane scan of every run gives.
//!
//! Edge-balanced chunking is checked separately and only for numerical
//! closeness: like a grain-size change, moving chunk boundaries moves the
//! floating-point reduction grouping, so it is deterministic but not
//! bit-identical to vertex-balanced runs.
//!
//! Lane independence is the property the work-proportional round rests
//! on: a round visits only the rows with a live lane and, within a row,
//! only the lanes the row is active in, so what a lane computes must not
//! depend on which other lanes share its batch or when they converge.

use proptest::prelude::*;
use tempopr::graph::{Event, EventLog, TemporalCsr, WindowIndex, WindowSpec};
use tempopr::kernel::{
    pagerank_batch, pagerank_batch_indexed, thread_pool, PrStats, SpmmWorkspace,
};
use tempopr::prelude::*;
use tempopr::telemetry::Telemetry;

mod sparse_part;
use sparse_part::{arb_sparse_part, in_place_and_copied_batches, sparse_part_ranges, HUBS};

const MAX_V: u32 = 24;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..200,
    )
}

/// Every window's rank fingerprint as raw bits — equality means the ranks
/// agree to the last ulp on every window.
fn fingerprint_bits(log: &EventLog, spec: WindowSpec, cfg: PostmortemConfig) -> Vec<u64> {
    PostmortemEngine::new(log, spec, cfg)
        .unwrap()
        .run()
        .windows
        .iter()
        .map(|w| w.fingerprint.to_bits())
        .collect()
}

/// Events in four time slices that share no vertex pair across slices:
/// `[0, 100)` among vertices 0..12, `[100, 200)` among 12..24, `[200, 300)`
/// a star out of vertex 3 (directed: every edge lands on a dangling leaf),
/// and `[300, 400)` with nothing at all.
fn arb_sliced_events() -> impl Strategy<Value = Vec<Event>> {
    let edges = |lo: u32, t0: i64| {
        prop::collection::vec(
            (lo..lo + 12, lo..lo + 12, t0..t0 + 100).prop_map(|(u, v, t)| Event::new(u, v, t)),
            1..60,
        )
    };
    let star = prop::collection::vec(
        (16..MAX_V, 200i64..300).prop_map(|(leaf, t)| Event::new(3, leaf, t)),
        1..8,
    );
    (edges(0, 0), edges(12, 100), star).prop_map(|(mut a, b, c)| {
        a.extend(b);
        a.extend(c);
        a
    })
}

/// Windows over the slices of [`arb_sliced_events`]: disjoint (0, 1, 6),
/// overlapping (2, 5, 7), dangling-only when directed (3) and empty (4).
const LANE_WINDOWS: [(i64, i64); 8] = [
    (0, 99),
    (100, 199),
    (50, 149),
    (200, 299),
    (300, 399),
    (0, 399),
    (0, 49),
    (150, 260),
];

/// Lane `k` of an interleaved `vl`-lane rank matrix, as raw bits.
fn lane_bits(ws: &SpmmWorkspace, k: usize, vl: usize) -> Vec<u64> {
    let mut out = vec![0.0; ws.x.len() / vl];
    ws.copy_lane_into(k, vl, &mut out);
    out.into_iter().map(f64::to_bits).collect()
}

/// 600 events over 40 vertices, one per time unit: windows of 12 units
/// every 25 share no event, windows of 100 every 25 share three quarters.
fn one_event_per_tick_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..600u32 {
        let (u, v) = ((i * 7 + 3) % 40, (i * 13 + i / 40 + 1) % 40);
        events.push(Event::new(u, v, i64::from(i)));
    }
    EventLog::from_unsorted(events, 40).unwrap()
}

#[test]
fn nested_on_one_thread_is_sequential_bitwise_on_disjoint_windows() {
    // sw > delta: no two windows share an event, so the lanes of a batch
    // have disjoint rows and drop out of the live-row list one by one. On
    // one thread the default scheduler makes one row task, which is the
    // sequential reduction order — so the default mode must reproduce
    // `Sequential` to the bit, iteration counts included.
    let log = one_event_per_tick_log();
    let spec = WindowSpec::covering(&log, 12, 25).unwrap();
    assert!(spec.count >= 20, "{} windows", spec.count);
    let run = |mode: ParallelMode, lanes: usize| -> Vec<(u64, usize)> {
        let cfg = PostmortemConfig {
            threads: 1,
            mode,
            kernel: KernelKind::SpMM { lanes },
            init_mode: InitMode::Partial,
            ..PostmortemConfig::default()
        };
        let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
        assert!(!out.degraded, "{}", out.status_summary());
        out.windows
            .iter()
            .map(|w| (w.fingerprint.to_bits(), w.stats.iterations))
            .collect()
    };
    for lanes in [4usize, 16] {
        let nested = run(ParallelMode::Nested, lanes);
        assert!(nested.iter().any(|&(_, it)| it > 1));
        assert_eq!(
            nested,
            run(ParallelMode::Sequential, lanes),
            "lanes={lanes}"
        );
    }
}

#[test]
fn both_row_walks_run_and_agree_on_overlapping_windows() {
    // sw < delta, the twin of the disjoint log above: every event lies in
    // four windows, so a 16-lane batch starts above the density rule (the
    // whole-stride walk), falls below it as lanes converge and their cells
    // die (the bit walk), and crosses back when compaction narrows the
    // stride. Whatever the rounds ran, every policy must land on the mask
    // walk's bits.
    let log = one_event_per_tick_log();
    let overlapping = WindowSpec::covering(&log, 100, 25).unwrap();
    let disjoint = WindowSpec::covering(&log, 12, 25).unwrap();
    assert!(overlapping.count >= 20, "{} windows", overlapping.count);
    // (fingerprints, iterations) per window and (vector, walk) round counts.
    type Run = (Vec<(u64, usize)>, (u64, u64));
    let run = |spec: WindowSpec, sched: Scheduler, simd: SimdPolicy, compaction: bool| -> Run {
        let cfg = PostmortemConfig {
            threads: 2,
            kernel: KernelKind::SpMM { lanes: 16 },
            init_mode: InitMode::Partial,
            scheduler: sched,
            pr: PrConfig {
                simd,
                compaction,
                ..PrConfig::default()
            },
            ..PostmortemConfig::default()
        };
        let tele = Telemetry::enabled();
        let out = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
            .unwrap()
            .run();
        assert!(!out.degraded, "{}", out.status_summary());
        let report = tele.report();
        let rounds = (
            report.counter("spmm.rounds_vector"),
            report.counter("spmm.rounds_walk"),
        );
        assert_eq!(rounds.0 + rounds.1, report.counter("spmm.rounds"));
        let cells = out
            .windows
            .iter()
            .map(|w| (w.fingerprint.to_bits(), w.stats.iterations))
            .collect();
        (cells, rounds)
    };
    let env = std::env::var("TEMPOPR_SIMD").ok();
    let auto_is_bitwalk = env.as_deref().map(str::trim) == Some("bitwalk");
    for sched in [
        Scheduler::new(Partitioner::Auto, 1),
        Scheduler::new(Partitioner::Simple, 3),
        Scheduler::new(Partitioner::Static, 1),
    ] {
        let (reference, (vector, walk)) = run(overlapping, sched, SimdPolicy::BitWalk, false);
        assert!(reference.iter().any(|&(_, it)| it > 1));
        assert!(
            vector == 0 && walk > 0,
            "BitWalk pins the walk: {vector}/{walk}"
        );
        for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let (got, (vector, walk)) = run(overlapping, sched, simd, compaction);
                assert_eq!(got, reference, "{simd:?} compaction={compaction} {sched:?}");
                let walks_only =
                    simd == SimdPolicy::BitWalk || (simd == SimdPolicy::Auto && auto_is_bitwalk);
                if walks_only {
                    assert_eq!(vector, 0, "{simd:?} compaction={compaction}");
                } else {
                    assert!(
                        vector > 0 && walk > 0,
                        "{simd:?} compaction={compaction} {sched:?}: both walks must run, \
                         got {vector} vector and {walk} bit-walk rounds"
                    );
                }
            }
        }
        // One live cell per run in 16 lanes: without compaction the
        // disjoint log never reaches the rule, with it only once the
        // stride has shrunk to 8.
        let (_, (vector, walk)) = run(disjoint, sched, SimdPolicy::Scalar, false);
        assert!(vector == 0 && walk > 0, "disjoint: {vector}/{walk}");
    }
}

#[test]
fn query_batch_lanes_run_both_row_walks_and_agree() {
    // The query-axis twin of the test above, at the kernel: lane
    // `k = 2w + q` puts a personalized and a Katz query on each of 16
    // windows, 32 lanes. A run is live in both queries of every window
    // that holds it, so the overlapping windows start on the whole-stride
    // walk, while the disjoint ones (2 live cells per run in 32 lanes)
    // stay on the bit walk until compaction has narrowed the stride. Both
    // lane rules' lanes must land on the mask walk's bits either way.
    use tempopr::core::TelemetryKernelBridge;
    use tempopr::graph::WindowIndex;
    use tempopr::kernel::{
        pagerank_query_batch_indexed, BatchObs, QueryBatch, QueryInit, QuerySpec, QueryWorkspace,
    };
    let log = one_event_per_tick_log();
    let n = log.num_vertices();
    let t = TemporalCsr::from_events(n, log.events());
    let preference: Vec<f64> = (0..n).map(|v| (v % 4) as f64).collect();
    let batch = QueryBatch::new(vec![
        QuerySpec::Personalized {
            preference: &preference,
            alpha: 0.2,
        },
        QuerySpec::Katz {
            alpha_fraction: 0.85,
            beta: 2.0,
            tol: 1e-9,
        },
    ])
    .unwrap();
    let windows = |delta: i64| -> Vec<TimeRange> {
        let spec = WindowSpec::covering(&log, delta, 25).unwrap();
        (0..16).map(|w| spec.window(w)).collect()
    };
    let (overlapping, disjoint) = (windows(100), windows(12));
    let vl = 32;
    let inits = vec![QueryInit::Fresh; vl];
    let pool = thread_pool(2).unwrap();
    // (rank bits, iterations) per lane and (vector, walk) round counts.
    type Run = (Vec<(Vec<u64>, usize)>, (u64, u64));
    let run = |ranges: &[TimeRange], sched: Option<&Scheduler>, simd, compaction| -> Run {
        let cfg = PrConfig {
            simd,
            compaction,
            ..PrConfig::default()
        };
        let tele = Telemetry::enabled();
        let bridge = TelemetryKernelBridge::new(&tele, 1);
        let mut ws = QueryWorkspace::default();
        let index = WindowIndex::build(&t, ranges);
        let views: Vec<_> = (0..ranges.len()).map(|j| index.view(j)).collect();
        let out = pool
            .install(|| {
                let obs = BatchObs::new(&bridge, &[]);
                pagerank_query_batch_indexed(
                    &t, &t, &views, &batch, &inits, &cfg, sched, &mut ws, obs,
                )
            })
            .unwrap();
        assert!(out.stats.iter().all(|s| s.converged));
        let report = tele.report();
        let rounds = (
            report.counter("spmm.rounds_vector"),
            report.counter("spmm.rounds_walk"),
        );
        let lanes = (0..vl)
            .map(|k| (lane_bits(&ws.base, k, vl), out.stats[k].iterations))
            .collect();
        (lanes, rounds)
    };
    let env = std::env::var("TEMPOPR_SIMD").ok();
    let auto_is_bitwalk = env.as_deref().map(str::trim) == Some("bitwalk");
    for sched in [
        None,
        Some(Scheduler::new(Partitioner::Auto, 1)),
        Some(Scheduler::new(Partitioner::Simple, 3)),
        Some(Scheduler::new(Partitioner::Static, 1)),
    ] {
        let sched = sched.as_ref();
        for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let what = format!("{simd:?} compaction={compaction} {sched:?}");
                let (mut vector, mut walk) = (0, 0);
                for ranges in [&overlapping, &disjoint] {
                    let (reference, pinned) = run(ranges, sched, SimdPolicy::BitWalk, false);
                    assert!(reference.iter().any(|&(_, it)| it > 1));
                    assert_eq!(pinned.0, 0, "BitWalk pins the walk");
                    let (got, rounds) = run(ranges, sched, simd, compaction);
                    assert_eq!(got, reference, "{what}");
                    vector += rounds.0;
                    walk += rounds.1;
                }
                if simd == SimdPolicy::BitWalk || (simd == SimdPolicy::Auto && auto_is_bitwalk) {
                    assert_eq!(vector, 0, "{what}");
                } else {
                    assert!(
                        vector > 0 && walk > 0,
                        "{what}: both walks must run across the two logs, got {vector} vector \
                         and {walk} bit-walk rounds"
                    );
                }
            }
        }
    }
}

proptest! {
    // Each case runs 60 configurations over up to 12 lanes.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_lane_matches_its_own_one_lane_batch(
        events in arb_sliced_events(),
        picks in prop::collection::vec(0usize..LANE_WINDOWS.len(), 2..13),
    ) {
        let ranges: Vec<TimeRange> = picks
            .iter()
            .map(|&i| TimeRange::new(LANE_WINDOWS[i].0, LANE_WINDOWS[i].1))
            .collect();
        let vl = ranges.len();
        let inits = vec![Init::Uniform; vl];
        let n = MAX_V as usize;
        // Three threads, so `Auto` makes several tasks (12 at grain 1, 3 at
        // grain 7) and `Static` three, whatever the host has.
        let pool = thread_pool(3).unwrap();
        let scheds = [
            None,
            Some(Scheduler::new(Partitioner::Auto, 1)),
            Some(Scheduler::new(Partitioner::Auto, 7)),
            Some(Scheduler::new(Partitioner::Simple, 3)),
            Some(Scheduler::new(Partitioner::Static, 1)),
        ];
        let t = TemporalCsr::from_events(n, &events);
        // Each lane alone, on the plain mask walk.
        let alone = PrConfig {
            simd: SimdPolicy::BitWalk,
            compaction: false,
            ..PrConfig::default()
        };
        let expect: Vec<(Vec<u64>, PrStats)> = ranges
            .iter()
            .map(|r| {
                let mut ws = SpmmWorkspace::default();
                let st = pagerank_batch(&t, &t, &[*r], &inits[..1], &alone, None, &mut ws)
                    .unwrap();
                (lane_bits(&ws, 0, 1), st[0])
            })
            .collect();
        let mut ws = SpmmWorkspace::default();
        for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let cfg = PrConfig { simd, compaction, ..PrConfig::default() };
                for sched in &scheds {
                    let stats = pool
                        .install(|| {
                            pagerank_batch(
                                &t, &t, &ranges, &inits, &cfg, sched.as_ref(), &mut ws,
                            )
                        })
                        .unwrap();
                    for k in 0..vl {
                        prop_assert_eq!(
                            stats[k], expect[k].1,
                            "lane {} of {:?}: {:?} compaction={} {:?}",
                            k, picks, simd, compaction, sched
                        );
                        prop_assert_eq!(
                            &lane_bits(&ws, k, vl), &expect[k].0,
                            "lane {} of {:?}: {:?} compaction={} {:?}",
                            k, picks, simd, compaction, sched
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_and_compaction_are_bit_identical_to_mask_walk(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        lanes in prop::sample::select(vec![2usize, 4, 8, 16]),
        partitioner in prop::sample::select(vec![
            Partitioner::Auto,
            Partitioner::Simple,
            Partitioner::Static,
        ]),
        granularity in 1usize..8,
        pipeline in any::<bool>(),
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        // Reference: the pre-vectorization kernel (mask walk, no
        // compaction) at the same scheduler configuration.
        let base = PostmortemConfig {
            kernel: KernelKind::SpMM { lanes },
            init_mode: InitMode::Partial,
            mode: ParallelMode::Nested,
            scheduler: Scheduler::new(partitioner, granularity),
            pipeline,
            pr: PrConfig {
                simd: SimdPolicy::BitWalk,
                compaction: false,
                ..PrConfig::default()
            },
            ..PostmortemConfig::default()
        };
        let reference = fingerprint_bits(&log, spec, base.clone());
        for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let cfg = PostmortemConfig {
                    pr: PrConfig {
                        simd,
                        compaction,
                        ..PrConfig::default()
                    },
                    ..base.clone()
                };
                let got = fingerprint_bits(&log, spec, cfg);
                prop_assert_eq!(
                    &got, &reference,
                    "{:?} compaction={} lanes={} {:?} g={} pipeline={}",
                    simd, compaction, lanes, partitioner, granularity, pipeline
                );
            }
        }
    }

    #[test]
    fn query_batch_simd_and_compaction_are_bit_identical(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        lanes in prop::sample::select(vec![4usize, 8, 16, 64]),
        partitioner in prop::sample::select(vec![
            Partitioner::Auto,
            Partitioner::Simple,
            Partitioner::Static,
        ]),
        granularity in 1usize..8,
        seed in 0..MAX_V,
        alpha_pct in 5u32..90,
    ) {
        use tempopr::core::EngineQuery;
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let n = MAX_V as usize;
        let alpha = f64::from(alpha_pct) / 100.0;
        let queries = vec![
            EngineQuery::seeded(seed, n, alpha),
            EngineQuery::Personalized {
                preference: (0..n).map(|v| (v % 3) as f64).collect(),
                alpha: 0.15,
            },
            EngineQuery::Katz { alpha_fraction: 0.85, beta: 2.0, tol: 1e-9 },
        ];
        let run = |simd: SimdPolicy, compaction: bool| -> Vec<u64> {
            let cfg = PostmortemConfig {
                kernel: KernelKind::SpMM { lanes },
                init_mode: InitMode::Partial,
                mode: ParallelMode::Nested,
                scheduler: Scheduler::new(partitioner, granularity),
                pr: PrConfig { simd, compaction, ..PrConfig::default() },
                ..PostmortemConfig::default()
            };
            PostmortemEngine::new(&log, spec, cfg)
                .unwrap()
                .run_queries(&queries)
                .unwrap()
                .outputs
                .iter()
                .map(|o| o.fingerprint.to_bits())
                .collect()
        };
        let reference = run(SimdPolicy::BitWalk, false);
        prop_assert_eq!(reference.len(), spec.count * queries.len());
        for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let got = run(simd, compaction);
                prop_assert_eq!(
                    &got, &reference,
                    "query batch {:?} compaction={} lanes={} {:?} g={}",
                    simd, compaction, lanes, partitioner, granularity
                );
            }
        }
    }

    #[test]
    fn edge_balanced_scheduling_matches_vertex_balanced_closely(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        lanes in prop::sample::select(vec![4usize, 8, 16]),
        granularity in 1usize..8,
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let cfg = |balance: Balance| PostmortemConfig {
            kernel: KernelKind::SpMM { lanes },
            init_mode: InitMode::Partial,
            mode: ParallelMode::Nested,
            scheduler: Scheduler::new(Partitioner::Simple, granularity).with_balance(balance),
            ..PostmortemConfig::default()
        };
        let run = |c: PostmortemConfig| -> Vec<f64> {
            PostmortemEngine::new(&log, spec, c)
                .unwrap()
                .run()
                .windows
                .iter()
                .map(|w| w.fingerprint)
                .collect()
        };
        let vertex = run(cfg(Balance::Vertex));
        let edge = run(cfg(Balance::Edge));
        prop_assert_eq!(vertex.len(), edge.len());
        for (w, (a, b)) in vertex.iter().zip(edge.iter()).enumerate() {
            prop_assert!((a - b).abs() < 1e-7, "window {}: {} vs {}", w, a, b);
        }
    }
}

proptest! {
    // Each case runs 14 batches of up to 15 lanes on each orientation.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Window lanes over small windows of a large part: the twin of the
    /// query suite's case. Fifteen of sixteen windows walk the index in
    /// place, so once compaction has narrowed the stride enough for the
    /// whole-stride walk, the hub rows' runs of the left-out window read
    /// rows outside the batch, which hold stale `inv_deg` bytes after the
    /// repack; eight windows copy their runs out. Every SIMD policy, with
    /// compaction on and off, must give the compaction-off mask walk's
    /// ranks and stats.
    #[test]
    fn small_windows_of_a_large_part_keep_their_bits(
        part in arb_sparse_part(16),
    ) {
        let (events, n) = part;
        let t = TemporalCsr::from_events(n, &events);
        let index = WindowIndex::build(&t, &sparse_part_ranges(16));
        let [most, fewest] = in_place_and_copied_batches(&index, 8);
        let on_hubs: Vec<f64> = (0..n).map(|v| f64::from(u8::from(v < HUBS as usize))).collect();
        for (chosen, in_place) in [(most, true), (fewest, false)] {
            let views: Vec<_> = chosen.iter().map(|&w| index.view(w)).collect();
            // Every other lane starts with all its mass on the hubs, so
            // lanes converge rounds apart and compaction fires.
            let inits: Vec<Init<'_>> = (0..chosen.len())
                .map(|k| if k % 2 == 0 { Init::Uniform } else { Init::Provided(&on_hubs) })
                .collect();
            let run = |simd, compaction| {
                let cfg = PrConfig { simd, compaction, max_iters: 500, ..PrConfig::default() };
                let mut ws = SpmmWorkspace::default();
                let stats =
                    pagerank_batch_indexed(&t, &t, &views, &inits, &cfg, None, &mut ws)
                        .unwrap();
                let bits: Vec<u64> = ws.x.iter().map(|x| x.to_bits()).collect();
                (stats, bits, ws.run_nbr.is_empty())
            };
            let (stats, bits, walked) = run(SimdPolicy::BitWalk, false);
            prop_assert_eq!(walked, in_place, "batch {:?}", chosen);
            for v in &views {
                prop_assert!(v.vertices.len() * 8 <= n, "{} of {} vertices", v.vertices.len(), n);
            }
            for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
                for compaction in [false, true] {
                    let got = run(simd, compaction);
                    let what = format!("{simd:?} compaction={compaction} {chosen:?}");
                    prop_assert_eq!(&got.0, &stats, "{}", what);
                    prop_assert_eq!(&got.1, &bits, "{}", what);
                }
            }
        }
    }
}

/// Lane ranges for the run-mask property, by `shape`: 0–2 four, sixteen
/// and sixty-four lanes ascending in start and in end (sixty-four starts
/// and ends drawn apart and paired in order, so gaps, nesting, shared
/// bounds and inverted — empty — ranges all occur; every subsequence of the
/// pairing still ascends), 3 the same with every range repeated (the query
/// axis), 4 one lane, 5 a slice that does not ascend.
fn mask_ranges(shape: usize, mut starts: Vec<i64>, mut ends: Vec<i64>) -> Vec<TimeRange> {
    starts.sort_unstable();
    ends.sort_unstable();
    let ascending = starts
        .iter()
        .zip(&ends)
        .map(|(&s, &e)| TimeRange::new(s, e));
    match shape {
        3 => ascending
            .step_by(4)
            .flat_map(|r| std::iter::repeat_n(r, 4))
            .collect(),
        4 => ascending.take(1).collect(),
        5 => {
            // The later lane starts first and the earlier one ends last:
            // no interval of the lane order holds a timestamp's lanes.
            let mut r = vec![TimeRange::new(30, 59), TimeRange::new(0, 29)];
            r.extend(ascending.rev().step_by(5));
            r
        }
        // 4, 16 and 64 lanes.
        0 => ascending.step_by(16).collect(),
        1 => ascending.step_by(4).collect(),
        _ => ascending.collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_masks_match_the_per_lane_scan(
        // Few vertices and a short time axis: long runs, and timestamps
        // that land on range starts and ends; events reach past the
        // ranges' span on both sides.
        events in prop::collection::vec(
            (0u32..8, 0u32..8, -20i64..80).prop_map(|(u, v, t)| Event::new(u, v, t)),
            1..120,
        ),
        starts in prop::collection::vec(0i64..60, 64..65),
        ends in prop::collection::vec(0i64..60, 64..65),
        shape in 0usize..6,
    ) {
        let ranges = mask_ranges(shape, starts, ends);
        let ascends = ranges
            .windows(2)
            .all(|w| w[0].start <= w[1].start && w[0].end <= w[1].end);
        prop_assert_eq!(ascends, shape != 5, "shape {}: {:?}", shape, ranges);
        let t = TemporalCsr::from_events(8, &events);
        // No iterations: the workspace keeps the batch's setup as built.
        let setup_only = PrConfig { max_iters: 0, ..PrConfig::default() };
        let inits = vec![Init::Uniform; ranges.len()];
        let mut ws = SpmmWorkspace::default();
        pagerank_batch(&t, &t, &ranges, &inits, &setup_only, None, &mut ws).unwrap();
        let (mut row, mut nbr, mut mask) = (vec![0usize], Vec::new(), Vec::new());
        for v in 0..8u32 {
            for run in t.runs(v) {
                let m = ranges
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| run.active_in(**r))
                    .fold(0u64, |m, (k, _)| m | 1 << k);
                if m != 0 {
                    nbr.push(run.neighbor);
                    mask.push(m);
                }
            }
            row.push(nbr.len());
        }
        prop_assert_eq!(&ws.run_row, &row, "shape {}: {:?}", shape, ranges);
        prop_assert_eq!(&ws.run_nbr, &nbr, "shape {}: {:?}", shape, ranges);
        prop_assert_eq!(&ws.run_mask, &mask, "shape {}: {:?}", shape, ranges);
    }
}
