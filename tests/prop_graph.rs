//! Property-based tests of the graph layer: the temporal CSR and the
//! multi-window partition must present exactly the same per-window edges as
//! a brute-force filter of the event list, for arbitrary events and window
//! parameters.

use proptest::prelude::*;
use tempopr::graph::{
    Event, EventLog, MultiWindowSet, PartitionStrategy, TemporalCsr, TimeRange, WindowSpec,
};

const MAX_V: u32 = 24;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..200,
    )
}

/// Brute-force symmetric directed edge set of a window.
fn brute_edges(events: &[Event], start: i64, end: i64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for e in events {
        if e.t >= start && e.t <= end {
            out.push((e.u, e.v));
            if e.u != e.v {
                out.push((e.v, e.u));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Folds raw draws into a build input that leans on the degenerate shapes:
/// a universe of `n` vertices whose top third never appears (isolated),
/// timestamps below `times` (1: all equal; 4: ties abound and `(u, v, t)`
/// triples repeat), self-loops wherever `u == v` is drawn, no event at all
/// when `n == 0`.
fn build_input(n: usize, times: i64, raw: &[(u32, u32, i64)]) -> Vec<Event> {
    let used = (n - n / 3).max(1) as u32;
    let event = |&(u, v, t): &(u32, u32, i64)| Event::new(u % used, v % used, t % times);
    raw.iter()
        .take(if n == 0 { 0 } else { raw.len() })
        .map(event)
        .collect()
}

/// The comparison-sort build the temporal CSR's counting scatters replaced:
/// scatter by source in input order, `sort_unstable` each row by
/// `(neighbor, time)`. Returns `(row_offsets, col_indices, timestamps)`.
fn comparison_sort_oracle(n: usize, events: &[Event]) -> (Vec<usize>, Vec<u32>, Vec<i64>) {
    let mut rows: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
    for e in events {
        rows[e.u as usize].push((e.v, e.t));
        if e.u != e.v {
            rows[e.v as usize].push((e.u, e.t));
        }
    }
    let mut row = vec![0usize];
    let (mut col, mut time) = (Vec::new(), Vec::new());
    for r in &mut rows {
        r.sort_unstable();
        col.extend(r.iter().map(|&(c, _)| c));
        time.extend(r.iter().map(|&(_, t)| t));
        row.push(col.len());
    }
    (row, col, time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The radix build is the comparison-sort build, array for array, on
    /// time-sorted and shuffled input alike.
    #[test]
    fn radix_build_equals_comparison_sort_oracle(
        n in 0usize..25,
        times in prop::sample::select(vec![1i64, 4, 500]),
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 0i64..500), 0..150),
        time_sorted in any::<bool>(),
    ) {
        let mut events = build_input(n, times, &raw);
        if time_sorted {
            events.sort_by_key(|e| e.t);
        }
        let t = TemporalCsr::from_events(n, &events);
        let (row, col, time) = comparison_sort_oracle(n, &events);
        prop_assert_eq!(t.num_vertices(), n);
        prop_assert_eq!(t.row_offsets(), &row[..]);
        prop_assert_eq!(t.col_indices(), &col[..]);
        prop_assert_eq!(t.timestamps(), &time[..]);
        // Per-vertex time bounds: tight around the row's timestamps, and
        // never active for an isolated vertex.
        for v in 0..n {
            let times = &time[row[v]..row[v + 1]];
            let may = |lo, hi| t.vertex_may_be_active(v as u32, TimeRange::new(lo, hi));
            match (times.iter().min(), times.iter().max()) {
                (Some(&lo), Some(&hi)) => {
                    prop_assert!(may(lo, lo) && may(hi, hi), "vertex {}", v);
                    prop_assert!(!may(-1000, lo - 1) && !may(hi + 1, 1000), "vertex {}", v);
                }
                _ => prop_assert!(!may(-1000, 1000), "isolated vertex {}", v),
            }
        }
    }

    #[test]
    fn tcsr_window_edges_match_bruteforce(events in arb_events(), start in 0i64..500, width in 1i64..300) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let range = tempopr::graph::TimeRange::new(start, start + width);
        let mut got = Vec::new();
        for v in 0..MAX_V {
            for n in t.active_neighbors(v, range) {
                got.push((v, n));
            }
        }
        got.sort_unstable();
        let expect = brute_edges(&events, range.start, range.end);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn tcsr_degrees_and_counts_consistent(events in arb_events(), start in 0i64..500, width in 1i64..300) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let range = tempopr::graph::TimeRange::new(start, start + width);
        let mut deg = vec![0u32; MAX_V as usize];
        t.active_degrees(range, &mut deg);
        let total: usize = deg.iter().map(|&d| d as usize).sum();
        prop_assert_eq!(total, t.active_edge_count(range));
        let active = deg.iter().filter(|&&d| d > 0).count();
        prop_assert_eq!(active, t.active_vertex_count(range));
        // Degrees match brute force.
        let edges = brute_edges(&events, range.start, range.end);
        for (v, &d) in deg.iter().enumerate() {
            let expect = edges.iter().filter(|&&(u, _)| u == v as u32).count();
            prop_assert_eq!(d as usize, expect, "vertex {}", v);
        }
    }

    #[test]
    fn multiwindow_presents_same_edges_as_single_tcsr(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..8,
        strategy_equal_events in any::<bool>(),
    ) {
        let n = MAX_V as usize;
        let log = EventLog::from_unsorted(events.clone(), n).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let strategy = if strategy_equal_events {
            PartitionStrategy::EqualEvents
        } else {
            PartitionStrategy::EqualWindows
        };
        let set = MultiWindowSet::build(&log, spec, parts, true, strategy).unwrap();
        for (w, part) in set.graphs().iter().flat_map(|g| g.windows().map(move |w| (w, g))) {
            let range = spec.window(w);
            let mut got = Vec::new();
            for lv in 0..part.num_local_vertices() as u32 {
                for ln in part.tcsr().active_neighbors(lv, range) {
                    got.push((part.global_id(lv), part.global_id(ln)));
                }
            }
            got.sort_unstable();
            let expect = brute_edges(log.events(), range.start, range.end);
            prop_assert_eq!(got, expect, "window {}", w);
        }
    }

    #[test]
    fn event_log_slices_match_filter(events in arb_events(), start in -50i64..550, width in 0i64..600) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let got = log.slice_by_time(start, start + width);
        let expect: Vec<Event> = log
            .events()
            .iter()
            .copied()
            .filter(|e| e.t >= start && e.t <= start + width)
            .collect();
        prop_assert_eq!(got, &expect[..]);
    }

    #[test]
    fn window_spec_covers_all_events(events in arb_events(), delta in 1i64..300, sw in 1i64..150) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        // Every window starts within the data.
        prop_assert!(spec.window(spec.count - 1).start <= log.last_time());
        // A further window would start past the data.
        let next_start = spec.t0 + spec.count as i64 * spec.sw;
        prop_assert!(next_start > log.last_time());
        // The first window starts exactly at the first event.
        prop_assert_eq!(spec.window(0).start, log.first_time());
    }
}
