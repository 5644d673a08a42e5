//! Property-based differential testing for the (window × query) batched
//! kernel: a batched run must be **bit-identical** to looping the existing
//! single-query kernels — `pagerank_window_personalized` per (window,
//! query) cell and the reference `katz_window` per window — across
//! arbitrary event logs, window layouts, seed sparsities, alpha values,
//! SIMD policies, and compaction settings (DESIGN.md §11 derives why the
//! sequential batched lane performs the exact scalar arithmetic of its
//! single-query kernel). The indexed entry, over views of an index the
//! caller holds, must be bit for bit the unindexed one.
//!
//! The engine-level driver is checked the same way: under full
//! initialization and sequential scheduling every cell of
//! `PostmortemEngine::run_queries` carries the same fingerprint bits as
//! the hand-rolled loop over the parts; under partial seeding the
//! fixed points must still agree to 1e-8 (seeding moves starting points,
//! never answers).

use proptest::prelude::*;
use tempopr::core::EngineQuery;
use tempopr::graph::{Event, EventLog, TemporalCsr, TimeRange, WindowIndex, WindowSpec};
use tempopr::kernel::reference::{katz_window, KatzConfig};
use tempopr::kernel::{
    pagerank_query_batch, pagerank_query_batch_indexed, pagerank_window_personalized, BatchObs,
    PrWorkspace, QueryBatch, QueryInit, QuerySpec, QueryWorkspace,
};
use tempopr::prelude::*;

mod sparse_part;
use sparse_part::{
    arb_sparse_part, in_place_and_copied_batches, sparse_part_ranges, CLUSTER, HUBS,
};

const MAX_V: u32 = 20;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..400).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..160,
    )
}

fn tight_pr(simd: SimdPolicy, compaction: bool) -> PrConfig {
    PrConfig {
        tol: 1e-12,
        max_iters: 500,
        simd,
        compaction,
        ..PrConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel level: batched personalized + Katz lanes, fresh inits,
    /// sequential schedule — every lane's ranks, iteration count, and
    /// uniform-fallback flag must be bit-for-bit the single-query kernel's.
    #[test]
    fn batched_lanes_bit_match_looped_single_query_kernels(
        events in arb_events(),
        windows in 1usize..5,
        width in 20i64..200,
        stride in 10i64..120,
        seed in 0..MAX_V,
        alpha_pct in 1u32..99,
        pref_weights in prop::collection::vec(0u32..4, MAX_V as usize..(MAX_V as usize + 1)),
        simd in prop::sample::select(vec![
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::BitWalk,
        ]),
        compaction in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let t = TemporalCsr::from_events(n, &events);
        let ranges: Vec<TimeRange> = (0..windows)
            .map(|w| TimeRange::new(w as i64 * stride, w as i64 * stride + width))
            .collect();
        let alpha = f64::from(alpha_pct) / 100.0;
        let mut sparse = vec![0.0f64; n];
        sparse[seed as usize] = 1.0;
        // `pref_weights` may be all-zero on a window's active set (or
        // everywhere): the uniform-fallback path must agree too.
        let dense: Vec<f64> = pref_weights.iter().map(|&w| f64::from(w)).collect();
        let katz_tol = 1e-11;
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized { preference: &sparse, alpha },
            QuerySpec::Personalized { preference: &dense, alpha: 0.15 },
            QuerySpec::Katz { alpha_fraction: 0.85, beta: 1.0, tol: katz_tol },
        ]).unwrap();
        let nq = batch.len();
        let cfg = tight_pr(simd, compaction);
        let inits = vec![QueryInit::Fresh; windows * nq];
        let mut ws = QueryWorkspace::default();
        let res = pagerank_query_batch(&t, &t, &ranges, &batch, &inits, &cfg, None, &mut ws)
            .unwrap();
        let mut lane = vec![0.0f64; n];
        let mut pr_ws = PrWorkspace::default();
        for (w, &range) in ranges.iter().enumerate() {
            for (q, pref) in [&sparse, &dense].into_iter().enumerate() {
                let k = w * nq + q;
                ws.copy_lane_into(k, windows * nq, &mut lane);
                let pr_q = PrConfig { alpha: if q == 0 { alpha } else { 0.15 }, ..cfg };
                let single = pagerank_window_personalized(
                    &t, &t, range, pref, &pr_q, None, &mut pr_ws,
                ).unwrap();
                let a: Vec<u64> = lane.iter().map(|x| x.to_bits()).collect();
                let b: Vec<u64> = pr_ws.x.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(a, b, "window {} query {}: ranks", w, q);
                prop_assert_eq!(res.stats[k].iterations, single.pr.iterations);
                prop_assert_eq!(res.stats[k].converged, single.pr.converged);
                prop_assert_eq!(
                    res.uniform_fallback[k], single.uniform_fallback,
                    "window {} query {}: fallback flag", w, q
                );
            }
            let k = w * nq + 2;
            ws.copy_lane_into(k, windows * nq, &mut lane);
            let kz = katz_window(&t, range, &KatzConfig {
                alpha_fraction: 0.85,
                tol: katz_tol,
                max_iters: cfg.max_iters,
            });
            let a: Vec<u64> = lane.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = kz.score.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(a, b, "window {}: katz scores", w);
            prop_assert_eq!(res.stats[k].iterations, kz.iterations);
            prop_assert_eq!(res.katz_alpha[k], kz.alpha);
        }
    }

    /// The Katz oracle itself: converged, at least 1 on active vertices,
    /// 0 on inactive ones, and within the geometric bound
    /// `1 / (1 − alpha·max_degree)`.
    #[test]
    fn katz_bounds_hold(events in arb_events(), start in 0i64..400, width in 1i64..300) {
        let n = MAX_V as usize;
        let t = TemporalCsr::from_events(n, &events);
        let range = TimeRange::new(start, start + width);
        let k = katz_window(&t, range, &KatzConfig::default());
        prop_assert!(k.converged);
        let mut deg = vec![0u32; n];
        t.active_degrees(range, &mut deg);
        let max_deg = deg.iter().copied().max().unwrap() as f64;
        let bound = 1.0 / (1.0 - k.alpha * max_deg);
        for (v, (&d, &score)) in deg.iter().zip(&k.score).enumerate() {
            if d > 0 {
                prop_assert!(score >= 1.0 - 1e-9, "active vertex {}", v);
                prop_assert!(score <= bound + 1e-6, "vertex {}: {} > {}", v, score, bound);
            } else {
                prop_assert_eq!(score, 0.0);
            }
        }
    }

    /// Kernel level, indexed entry: a batch over views of one index — any
    /// non-empty subset of its windows, in any order — is bit for bit the
    /// unindexed batch over the same ranges: ranks, stats, fallback flags,
    /// Katz attenuations and retired lanes, whether it walks the index in
    /// place or copies its runs out.
    #[test]
    fn indexed_batch_bit_matches_the_unindexed_batch(
        events in arb_events(),
        windows in 1usize..7,
        width in 5i64..150,
        stride in 10i64..120,
        pick in 1u32..64,
        reverse in any::<bool>(),
        seed in 0..MAX_V,
        simd in prop::sample::select(vec![
            SimdPolicy::Auto,
            SimdPolicy::Scalar,
            SimdPolicy::BitWalk,
        ]),
        compaction in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let t = TemporalCsr::from_events(n, &events);
        let ranges: Vec<TimeRange> = (0..windows)
            .map(|w| TimeRange::new(w as i64 * stride, w as i64 * stride + width))
            .collect();
        let index = WindowIndex::build(&t, &ranges);
        let mut chosen: Vec<usize> = (0..windows).filter(|&w| pick & (1 << w) != 0).collect();
        if chosen.is_empty() {
            chosen.push(pick as usize % windows);
        }
        if reverse {
            chosen.reverse();
        }
        let mut pref = vec![0.0f64; n];
        pref[seed as usize] = 1.0;
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized { preference: &pref, alpha: 0.2 },
            QuerySpec::Katz { alpha_fraction: 0.7, beta: 1.0, tol: 1e-11 },
        ]).unwrap();
        let cfg = tight_pr(simd, compaction);
        let inits = vec![QueryInit::Fresh; chosen.len() * batch.len()];
        let own: Vec<TimeRange> = chosen.iter().map(|&w| ranges[w]).collect();
        let mut plain = QueryWorkspace::default();
        let expect = pagerank_query_batch(&t, &t, &own, &batch, &inits, &cfg, None, &mut plain)
            .unwrap();
        let views: Vec<_> = chosen.iter().map(|&w| index.view(w)).collect();
        let mut ixd = QueryWorkspace::default();
        let got = pagerank_query_batch_indexed(
            &t, &t, &views, &batch, &inits, &cfg, None, &mut ixd, BatchObs::off(),
        ).unwrap();
        prop_assert_eq!(got, expect);
        let a: Vec<u64> = ixd.base.x.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = plain.base.x.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Engine level: `run_queries` against a hand-rolled loop over the
    /// multi-window parts, across partitioner and init-mode. Full init is
    /// bit-identical to the loop; partial seeding must converge to
    /// the same fixed points (1e-8) with no cell lost.
    #[test]
    fn engine_run_queries_matches_looped_parts_across_modes(
        events in arb_events(),
        delta in 20i64..200,
        sw in 5i64..100,
        parts in 1usize..4,
        lanes in prop::sample::select(vec![4usize, 16, 64]),
        partitioner in prop::sample::select(vec![
            Partitioner::Auto,
            Partitioner::Simple,
            Partitioner::Static,
        ]),
        init_mode in prop::sample::select(vec![InitMode::Full, InitMode::Partial]),
        seed in 0..MAX_V,
        compaction in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let log = EventLog::from_unsorted(events, n).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let queries = vec![
            EngineQuery::seeded(seed, n, 0.2),
            EngineQuery::Personalized {
                preference: (0..n).map(|v| (v % 2) as f64).collect(),
                alpha: 0.15,
            },
        ];
        let cfg = PostmortemConfig {
            kernel: KernelKind::SpMM { lanes },
            mode: ParallelMode::Sequential,
            scheduler: Scheduler::new(partitioner, 2),
            init_mode,
            num_multiwindows: parts,
            pr: tight_pr(SimdPolicy::Auto, compaction),
            ..PostmortemConfig::default()
        };
        let engine = PostmortemEngine::new(&log, spec, cfg.clone()).unwrap();
        let out = engine.run_queries(&queries).unwrap();
        prop_assert_eq!(out.outputs.len(), spec.count * queries.len());
        let mut pr_ws = PrWorkspace::default();
        for p in 0..engine.num_parts() {
            let fetched = engine.part(p).unwrap();
            let part = &*fetched;
            let vmap = part.vertex_map();
            for (q, query) in queries.iter().enumerate() {
                let EngineQuery::Personalized { preference, alpha } = query else {
                    continue;
                };
                let local: Vec<f64> = vmap.iter().map(|&g| preference[g as usize]).collect();
                let pr_q = PrConfig { alpha: *alpha, ..cfg.pr };
                for w in part.windows() {
                    pagerank_window_personalized(
                        part.tcsr(), part.tcsr(), spec.window(w),
                        &local, &pr_q, None, &mut pr_ws,
                    ).unwrap();
                    let fp = tempopr::core::rank_fingerprint(&pr_ws.x, Some(vmap));
                    let cell = out.get(w, q).unwrap();
                    if init_mode == InitMode::Full {
                        prop_assert_eq!(
                            cell.fingerprint.to_bits(), fp.to_bits(),
                            "window {} query {}: full init must be bit-identical", w, q
                        );
                    } else {
                        prop_assert!(cell.stats.converged);
                        prop_assert!(
                            (cell.fingerprint - fp).abs() < 1e-8,
                            "window {} query {} under {:?}: {} vs {}",
                            w, q, init_mode, cell.fingerprint, fp
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case runs 14 batches over up to 28 lanes.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel level, small windows of a large part: each window holds at
    /// most an eighth of its part's vertices, so compaction and the lane
    /// merge walk far fewer rows than the part has, and a batch of all but
    /// one window walks the index in place, reading rows of the left-out
    /// window through runs no lane holds after compaction left stale
    /// `inv_deg` bytes there. Every SIMD policy, with compaction on and
    /// off, must give the ranks and stats of the compaction-off mask walk
    /// on both run-list walks, in place and copied out.
    #[test]
    fn small_windows_of_a_large_part_keep_their_bits(
        part in arb_sparse_part(8),
        seed in 0..HUBS + 8 * CLUSTER,
    ) {
        let (events, n) = part;
        let t = TemporalCsr::from_events(n, &events);
        let index = WindowIndex::build(&t, &sparse_part_ranges(8));
        let mut pref = vec![0.0f64; n];
        pref[seed as usize] = 1.0;
        let weights: Vec<f64> = (0..n).map(|v| (v % 3) as f64).collect();
        let batch = QueryBatch::new(vec![
            QuerySpec::Personalized { preference: &pref, alpha: 0.1 },
            QuerySpec::Personalized { preference: &weights, alpha: 0.3 },
            QuerySpec::Katz { alpha_fraction: 0.5, beta: 1.0, tol: 1e-11 },
            QuerySpec::Katz { alpha_fraction: 0.9, beta: 2.0, tol: 1e-11 },
        ]).unwrap();
        let [most, fewest] = in_place_and_copied_batches(&index, 2);
        for (chosen, in_place) in [(most, true), (fewest, false)] {
            let views: Vec<_> = chosen.iter().map(|&w| index.view(w)).collect();
            let inits = vec![QueryInit::Fresh; chosen.len() * batch.len()];
            let run = |simd, compaction| {
                let cfg = tight_pr(simd, compaction);
                let mut ws = QueryWorkspace::default();
                let out = pagerank_query_batch_indexed(
                    &t, &t, &views, &batch, &inits, &cfg, None, &mut ws, BatchObs::off(),
                ).unwrap();
                let bits: Vec<u64> = ws.base.x.iter().map(|x| x.to_bits()).collect();
                (out.stats, bits, ws.base.run_nbr.is_empty())
            };
            let (stats, bits, walked) = run(SimdPolicy::BitWalk, false);
            prop_assert_eq!(walked, in_place, "batch {:?}", chosen);
            for v in &views {
                prop_assert!(v.vertices.len() * 8 <= n, "{} of {} vertices", v.vertices.len(), n);
            }
            for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
                for compaction in [false, true] {
                    let got = run(simd, compaction);
                    prop_assert_eq!(&got.0, &stats, "{:?} compaction={} {:?}", simd, compaction, chosen);
                    prop_assert_eq!(&got.1, &bits, "{:?} compaction={} {:?}", simd, compaction, chosen);
                }
            }
        }
    }
}
