//! Property-based tests of the per-window activity/degree index: for
//! arbitrary event logs, window grids, and partitionings, every
//! [`WindowIndexView`] must agree with a brute-force scan of the part's
//! temporal CSR, and the engine must produce bit-identical results with
//! the index on and off.

use proptest::prelude::*;
use tempopr::graph::{Event, EventLog, MultiWindowSet, PartitionStrategy, TimeRange, WindowSpec};
use tempopr::prelude::*;

const MAX_V: u32 = 24;

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

fn fingerprints(log: &EventLog, spec: WindowSpec, cfg: PostmortemConfig) -> Vec<f64> {
    PostmortemEngine::new(log, spec, cfg)
        .unwrap()
        .run()
        .windows
        .iter()
        .map(|w| w.fingerprint)
        .collect()
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
        for w in 0..spec.count {
            let part = set.part_of(w);
            check_view_against_bruteforce(part, w, spec.window(w), directed);
        }
    }

    #[test]
    fn engine_fingerprints_identical_with_and_without_index(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..6,
        symmetric in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let log = EventLog::from_unsorted(events, n).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        for kernel in [
            KernelKind::SpMV,
            KernelKind::SpMM { lanes: 4 },
        ] {
            for mode in [ParallelMode::Sequential, ParallelMode::Nested] {
                let cfg = PostmortemConfig {
                    num_multiwindows: parts,
                    kernel,
                    init_mode: InitMode::Partial,
                    mode,
                    symmetric,
                    ..Default::default()
                };
                let indexed = fingerprints(&log, spec, cfg.clone());
                let unindexed = fingerprints(
                    &log,
                    spec,
                    PostmortemConfig {
                        use_window_index: false,
                        ..cfg
                    },
                );
                // Bit-identical, not approximately equal: the index feeds
                // the same degree/activity inputs to the same iteration.
                prop_assert_eq!(indexed, unindexed, "{:?}/{:?}", kernel, mode);
            }
        }
    }
}
