//! Property-based tests of the PageRank kernels: for arbitrary temporal
//! graphs and windows, every kernel agrees with the reference solver, rank
//! vectors are distributions over the active set, and the SpMM batch
//! equals per-window SpMV.

use proptest::prelude::*;
use tempopr::graph::{Csr, Event, TemporalCsr, TimeRange};
use tempopr::kernel::{
    pagerank_batch, pagerank_csr, pagerank_window, pagerank_window_vec, reference_pagerank, Init,
    Partitioner, PrConfig, PrWorkspace, Scheduler, SpmmWorkspace,
};

const MAX_V: u32 = 20;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..300).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..150,
    )
}

fn tight() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-12,
        max_iters: 400,
        ..PrConfig::default()
    }
}

fn window_edges(events: &[Event], range: TimeRange) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for e in events {
        if range.contains(e.t) {
            out.push((e.u, e.v));
            if e.u != e.v {
                out.push((e.v, e.u));
            }
        }
    }
    out
}

/// The unindexed temporal kernel on `range` and the static kernel on that
/// window's own CSR share one degree/activity pass: under every scheduler
/// they must produce the same degrees, active list, reciprocals, stats and
/// rank bits.
fn assert_window_matches_its_static_csr(events: &[Event], range: TimeRange) {
    let n = MAX_V as usize;
    let in_window: Vec<Event> = events
        .iter()
        .filter(|e| range.contains(e.t))
        .copied()
        .collect();
    let t = TemporalCsr::from_events(n, events);
    let c = Csr::from_events(n, &in_window);
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for sched in [
        None,
        Some(Scheduler::new(Partitioner::Auto, 1)),
        Some(Scheduler::new(Partitioner::Static, 4)),
    ] {
        let sched = sched.as_ref();
        let (mut tw, mut cw) = (PrWorkspace::default(), PrWorkspace::default());
        let ts = pagerank_window(&t, &t, range, Init::Uniform, &tight(), sched, &mut tw).unwrap();
        let cs = pagerank_csr(&c, &c, Init::Uniform, &tight(), sched, &mut cw).unwrap();
        assert_eq!(ts, cs, "stats under {:?}", sched);
        assert_eq!(&tw.deg_out, &cw.deg_out);
        assert_eq!(&tw.active_list, &cw.active_list);
        assert_eq!(bits(&tw.inv_deg), bits(&cw.inv_deg));
        assert_eq!(bits(&tw.x), bits(&cw.x), "rank bits under {:?}", sched);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unindexed_window_matches_its_static_csr(
        events in arb_events(),
        start in 0i64..300,
        width in 1i64..200,
    ) {
        assert_window_matches_its_static_csr(&events, TimeRange::new(start, start + width));
    }

    #[test]
    fn spmv_matches_reference(events in arb_events(), start in 0i64..300, width in 1i64..200) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let range = TimeRange::new(start, start + width);
        let (x, stats) = pagerank_window_vec(&t, &t, range, Init::Uniform, &tight(), None).unwrap();
        let r = reference_pagerank(MAX_V as usize, &window_edges(&events, range), &tight());
        for v in 0..MAX_V as usize {
            prop_assert!((x[v] - r[v]).abs() < 1e-8, "vertex {}: {} vs {}", v, x[v], r[v]);
        }
        if stats.active_vertices > 0 {
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn parallel_spmv_matches_sequential(events in arb_events(), g in 1usize..32) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let range = TimeRange::new(0, 300);
        let (seq, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &tight(), None).unwrap();
        let sched = Scheduler::new(tempopr::kernel::Partitioner::Simple, g);
        let (par, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &tight(), Some(&sched)).unwrap();
        for v in 0..MAX_V as usize {
            prop_assert!((seq[v] - par[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn spmm_batch_equals_spmv_lanes(
        events in arb_events(),
        starts in prop::collection::vec(0i64..250, 1..9),
        width in 5i64..150,
    ) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let ranges: Vec<TimeRange> = starts.iter().map(|&s| TimeRange::new(s, s + width)).collect();
        let inits = vec![Init::Uniform; ranges.len()];
        let mut ws = SpmmWorkspace::default();
        let stats = pagerank_batch(&t, &t, &ranges, &inits, &tight(), None, &mut ws).unwrap();
        for (k, &range) in ranges.iter().enumerate() {
            let (expect, es) = pagerank_window_vec(&t, &t, range, Init::Uniform, &tight(), None).unwrap();
            let mut got = vec![0.0; MAX_V as usize];
            ws.copy_lane_into(k, ranges.len(), &mut got);
            for v in 0..MAX_V as usize {
                prop_assert!((got[v] - expect[v]).abs() < 1e-8, "lane {} vertex {}", k, v);
            }
            prop_assert_eq!(stats[k].active_vertices, es.active_vertices);
        }
    }

    #[test]
    fn partial_init_converges_to_same_fixed_point(
        events in arb_events(),
        s0 in 0i64..150,
        shift in 1i64..80,
        width in 20i64..200,
    ) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let r0 = TimeRange::new(s0, s0 + width);
        let r1 = TimeRange::new(s0 + shift, s0 + shift + width);
        let (prev, _) = pagerank_window_vec(&t, &t, r0, Init::Uniform, &tight(), None).unwrap();
        let (uniform, _) = pagerank_window_vec(&t, &t, r1, Init::Uniform, &tight(), None).unwrap();
        let (partial, _) = pagerank_window_vec(&t, &t, r1, Init::Partial(&prev), &tight(), None).unwrap();
        for v in 0..MAX_V as usize {
            prop_assert!((uniform[v] - partial[v]).abs() < 1e-7, "vertex {}", v);
        }
    }

    #[test]
    fn ranks_are_nonnegative_and_zero_off_active_set(
        events in arb_events(),
        start in 0i64..300,
        width in 1i64..100,
    ) {
        let t = TemporalCsr::from_events(MAX_V as usize, &events);
        let range = TimeRange::new(start, start + width);
        let (x, _) = pagerank_window_vec(&t, &t, range, Init::Uniform, &tight(), None).unwrap();
        let mut deg = vec![0u32; MAX_V as usize];
        t.active_degrees(range, &mut deg);
        for v in 0..MAX_V as usize {
            prop_assert!(x[v] >= 0.0);
            if deg[v] == 0 {
                prop_assert_eq!(x[v], 0.0, "inactive vertex {} has rank", v);
            } else {
                prop_assert!(x[v] > 0.0, "active vertex {} has zero rank", v);
            }
        }
    }
}
