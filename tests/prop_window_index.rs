//! Property-based tests of the window index: for arbitrary event logs,
//! window grids, and partitionings, every [`WindowIndexView`] must agree
//! with a brute-force scan of the part's temporal CSR, the index's run list
//! must hold exactly the runs some window holds with exactly the windows
//! [`NeighborRun::active_in`] names, the indexed kernels must produce the
//! unindexed ones' results bit for bit, and so must every engine window
//! (which reads its part's index) against the unindexed SpMV kernel walked
//! over the same part.

use proptest::prelude::*;
use tempopr::graph::{
    Event, EventLog, MultiWindowGraph, MultiWindowSet, PartitionStrategy, TimeRange, WindowSpec,
};
use tempopr::kernel::{
    pagerank_batch, pagerank_batch_indexed, pagerank_window, pagerank_window_indexed, Init,
    PrConfig, PrWorkspace, SimdPolicy, SpmmWorkspace,
};
use tempopr::prelude::*;

const MAX_V: u32 = 24;

/// Windows per part the run list's bitsets are checked at: one byte, one
/// past it, one word, one past it, and past the SpMM part rule's 64 lanes.
const WINDOW_COUNTS: [usize; 6] = [1, 8, 9, 64, 65, 200];

/// `(delta, sw)` in one of three regimes: windows shorter than their
/// stride (gaps between them), far longer (`δ ≫ sw`), or anything.
fn arb_grid() -> impl Strategy<Value = (i64, i64)> {
    (0usize..3, 1i64..40, 1i64..40, 16i64..64).prop_map(|(regime, a, b, k)| match regime {
        0 => (a.min(b).max(1), a.max(b) + 1),
        1 => {
            let sw = 1 + a % 5;
            (sw * k, sw)
        }
        _ => (a, b),
    })
}

/// The one part of a single-part build over `count` windows.
fn one_part(
    events: Vec<Event>,
    grid: (i64, i64),
    t0: i64,
    count: usize,
    directed: bool,
) -> MultiWindowSet {
    let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
    let spec = WindowSpec::new(t0, grid.0, grid.1, count).unwrap();
    MultiWindowSet::build(&log, spec, 1, !directed, PartitionStrategy::EqualWindows).unwrap()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The index's run list against the definition: every pull run some window
/// holds appears once, in stored order, with bit `j` set iff window `j`
/// holds it, and no other run appears.
fn check_live_runs(part: &MultiWindowGraph) {
    let pull = part.pull_tcsr();
    let ranges = part.window_ranges();
    let runs = part.window_index().live_runs();
    let n = part.num_local_vertices();
    prop_assert_eq!(runs.row.len(), n + 1);
    let mut i = 0;
    for v in 0..n as u32 {
        prop_assert_eq!(runs.row[v as usize], i, "vertex {}", v);
        for run in pull.runs(v) {
            let live: Vec<bool> = ranges.iter().map(|&r| run.active_in(r)).collect();
            if !live.contains(&true) {
                continue;
            }
            prop_assert_eq!(runs.nbr[i], run.neighbor, "vertex {} run {}", v, i);
            for (j, &l) in live.iter().enumerate() {
                prop_assert_eq!(runs.holds(i, j), l, "vertex {} run {} window {}", v, i, j);
            }
            i += 1;
        }
    }
    prop_assert_eq!(runs.row[n], i);
    prop_assert_eq!(runs.nbr.len(), i);
    prop_assert_eq!(runs.bits.len(), i * ranges.len().div_ceil(8));
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..200,
    )
}

/// Brute-force reference for one window of one part: out-degrees from the
/// part's (push) temporal CSR, in-activity from the same CSR's forward
/// edges, active set as their union (out-only for symmetric parts).
fn check_view_against_bruteforce(
    part: &tempopr::graph::MultiWindowGraph,
    window: usize,
    range: TimeRange,
    directed: bool,
) {
    let t = part.tcsr();
    let n = part.num_local_vertices();
    let mut deg = vec![0u32; n];
    t.active_degrees(range, &mut deg);
    let mut in_active = vec![false; n];
    if directed {
        for u in 0..n as u32 {
            for nb in t.active_neighbors(u, range) {
                in_active[nb as usize] = true;
            }
        }
    }
    let expect_active: Vec<u32> = (0..n as u32)
        .filter(|&v| deg[v as usize] > 0 || in_active[v as usize])
        .collect();

    let view = part.index_view(window);
    prop_assert_eq!(view.range, range);
    prop_assert_eq!(view.vertices, &expect_active[..], "window {}", window);
    for (i, &v) in view.vertices.iter().enumerate() {
        let d = deg[v as usize];
        prop_assert_eq!(view.deg_out[i], d, "window {} vertex {}", window, v);
        let inv = if d > 0 { 1.0 / d as f64 } else { 0.0 };
        prop_assert_eq!(view.inv_deg[i], inv, "window {} vertex {}", window, v);
    }
    let expect_dangling: Vec<u32> = expect_active
        .iter()
        .copied()
        .filter(|&v| deg[v as usize] == 0)
        .collect();
    prop_assert_eq!(view.dangling, &expect_dangling[..], "window {}", window);
}

/// Runs `cfg` (SpMV, `Sequential`) and checks every window's stats and
/// local ranks against [`pagerank_window`] walked over its part's temporal
/// CSR, in order, each window seeded as the engine seeds it: uniformly
/// under full init, from the part's previous window under partial init.
fn check_engine_against_scan(log: &EventLog, spec: WindowSpec, cfg: PostmortemConfig) {
    let partial = cfg.init_mode == InitMode::Partial;
    let pr = cfg.pr;
    let engine = PostmortemEngine::new(log, spec, cfg).unwrap();
    let out = engine.run();
    let mut ws = PrWorkspace::default();
    for p in 0..engine.num_parts() {
        let part = engine.part(p).unwrap();
        let mut prev: Option<Vec<f64>> = None;
        for w in part.windows() {
            let init = match &prev {
                Some(x) if partial => Init::Partial(x),
                _ => Init::Uniform,
            };
            let (pull, push) = (part.pull_tcsr(), part.tcsr());
            let stats =
                pagerank_window(pull, push, spec.window(w), init, &pr, None, &mut ws).unwrap();
            let got = &out.windows[w];
            prop_assert_eq!(
                (&got.status, got.attempts),
                (&WindowStatus::Ok, 1),
                "window {}",
                w
            );
            prop_assert_eq!(got.stats, stats, "window {}", w);
            let ranks = got.ranks.as_ref().unwrap();
            let expect = SparseRanks::from_local(ws.ranks(), part.vertex_map());
            prop_assert_eq!(&ranks.vertices, &expect.vertices, "window {}", w);
            prop_assert_eq!(bits(&ranks.values), bits(&expect.values), "window {}", w);
            prev = Some(ws.ranks().to_vec());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_index_matches_bruteforce(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..8,
        directed in any::<bool>(),
        strategy_equal_events in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let log = EventLog::from_unsorted(events, n).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let strategy = if strategy_equal_events {
            PartitionStrategy::EqualEvents
        } else {
            PartitionStrategy::EqualWindows
        };
        let set = MultiWindowSet::build(&log, spec, parts, !directed, strategy).unwrap();
        for (w, part) in set.graphs().iter().flat_map(|g| g.windows().map(move |w| (w, g))) {
            check_view_against_bruteforce(part, w, spec.window(w), directed);
        }
        for part in set.graphs() {
            check_live_runs(part);
        }
    }

    #[test]
    fn run_bits_match_active_in_at_every_window_count(
        events in arb_events(),
        grid in arb_grid(),
        t0 in -50i64..50,
        count in prop::sample::select(WINDOW_COUNTS.to_vec()),
        directed in any::<bool>(),
    ) {
        let set = one_part(events, grid, t0, count, directed);
        let part = &set.graphs()[0];
        prop_assert_eq!(part.num_windows(), count);
        check_live_runs(part);
        for (j, &range) in part.window_ranges().iter().enumerate() {
            check_view_against_bruteforce(part, j, range, directed);
        }
    }

    #[test]
    fn region_batches_are_bit_identical_indexed_or_not(
        events in arb_events(),
        grid in arb_grid(),
        t0 in -50i64..50,
        count in prop::sample::select(WINDOW_COUNTS.to_vec()),
        slots in 1usize..17,
        directed in any::<bool>(),
    ) {
        // Batches as the engine's regions cut them: region length
        // `r = ⌈nw / slots⌉`, batch `j` holding windows `j, j + r, …`.
        let set = one_part(events, grid, t0, count, directed);
        let part = &set.graphs()[0];
        let (pull, push) = (part.pull_tcsr(), part.tcsr());
        let index = part.window_index();
        let ranges = part.window_ranges();
        let r = count.div_ceil(slots.min(count));
        for simd in [SimdPolicy::Scalar, SimdPolicy::Auto] {
            for compaction in [false, true] {
                let cfg = PrConfig { simd, compaction, ..PrConfig::default() };
                for j in 0..r {
                    let lanes: Vec<usize> = (j..count).step_by(r).collect();
                    let views: Vec<_> = lanes.iter().map(|&w| index.view(w)).collect();
                    let lane_ranges: Vec<TimeRange> = lanes.iter().map(|&w| ranges[w]).collect();
                    let inits = vec![Init::Uniform; lanes.len()];
                    let mut plain = SpmmWorkspace::default();
                    let ps = pagerank_batch(pull, push, &lane_ranges, &inits, &cfg, None, &mut plain)
                        .unwrap();
                    let mut ixd = SpmmWorkspace::default();
                    let is = pagerank_batch_indexed(pull, push, &views, &inits, &cfg, None, &mut ixd)
                        .unwrap();
                    prop_assert_eq!(&ps, &is, "{:?} compaction={} batch {}", simd, compaction, j);
                    prop_assert_eq!(bits(&plain.x), bits(&ixd.x), "{:?} compaction={} batch {}", simd, compaction, j);
                    // The indexed batch walked the index's list in place, or
                    // copied out exactly the runs the unindexed batch keeps.
                    if ixd.run_row.is_empty() {
                        prop_assert_eq!(ixd.run_mask.len(), index.live_runs().nbr.len());
                    } else {
                        prop_assert_eq!(&ixd.run_row, &plain.run_row, "batch {}", j);
                        prop_assert_eq!(&ixd.run_nbr, &plain.run_nbr, "batch {}", j);
                        prop_assert_eq!(&ixd.run_mask, &plain.run_mask, "batch {}", j);
                    }
                }
            }
        }
        // The SpMV kernel filters the same run list by each window's bit.
        let cfg = PrConfig::default();
        for (w, &range) in ranges.iter().enumerate() {
            let mut plain = PrWorkspace::default();
            let ps = pagerank_window(pull, push, range, Init::Uniform, &cfg, None, &mut plain).unwrap();
            let mut ixd = PrWorkspace::default();
            let is = pagerank_window_indexed(pull, push, &index.view(w), Init::Uniform, &cfg, None, &mut ixd)
                .unwrap();
            prop_assert_eq!(ps, is, "window {}", w);
            prop_assert_eq!(bits(plain.ranks()), bits(ixd.ranks()), "window {}", w);
        }
    }

    #[test]
    fn engine_spmv_windows_bit_match_the_timestamp_scan_reference(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..6,
        symmetric in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let log = EventLog::from_unsorted(events, n).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        for init_mode in [InitMode::Full, InitMode::Partial] {
            let cfg = PostmortemConfig {
                num_multiwindows: parts,
                kernel: KernelKind::SpMV,
                init_mode,
                mode: ParallelMode::Sequential,
                threads: 1,
                symmetric,
                pr: PrConfig { max_iters: 500, ..PrConfig::default() },
                ..Default::default()
            };
            check_engine_against_scan(&log, spec, cfg);
        }
    }
}
