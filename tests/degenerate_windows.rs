//! Degenerate windows through every kernel: empty active sets, a single
//! self-loop vertex, and graphs whose fixed point is the uniform start
//! (convergence at iteration 1).
//! None of these may panic, return NaN, or leak rank mass.

use tempopr::graph::TemporalCsr;
use tempopr::kernel::{pagerank_batch, pagerank_window_vec, Init, PrConfig, SpmmWorkspace};
use tempopr::prelude::*;

fn cfg() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 300,
        ..PrConfig::default()
    }
}

/// Runs both kernels on one window of `t` and returns their rank vectors
/// (asserted to agree with each other along the way).
fn all_kernels(t: &TemporalCsr, range: TimeRange) -> Vec<f64> {
    let (spmv, s1) = pagerank_window_vec(t, t, range, Init::Uniform, &cfg(), None).unwrap();
    let mut mws = SpmmWorkspace::default();
    let s3 = pagerank_batch(t, t, &[range], &[Init::Uniform], &cfg(), None, &mut mws).unwrap();
    assert_eq!(s1.active_vertices, s3[0].active_vertices);
    let mut lane = vec![0.0; spmv.len()];
    mws.copy_lane_into(0, 1, &mut lane);
    for v in 0..spmv.len() {
        assert!(
            (spmv[v] - lane[v]).abs() < 1e-9,
            "spmm disagrees at vertex {v}"
        );
    }
    spmv
}

fn assert_is_distribution(x: &[f64], expect_active: bool) {
    let sum: f64 = x.iter().sum();
    for (v, &r) in x.iter().enumerate() {
        assert!(r.is_finite(), "vertex {v} rank not finite: {r}");
        assert!(r >= 0.0, "vertex {v} rank negative: {r}");
    }
    if expect_active {
        assert!((sum - 1.0).abs() < 1e-8, "mass leaked: Σ = {sum}");
    } else {
        assert_eq!(sum, 0.0, "empty window has nonzero mass");
    }
}

#[test]
fn window_with_no_events_is_all_zero() {
    let events: Vec<Event> = (0..20)
        .map(|i| Event::new(i % 5, (i + 1) % 5, 100))
        .collect();
    let t = TemporalCsr::from_events(5, &events);
    let x = all_kernels(&t, TimeRange::new(0, 50));
    assert_is_distribution(&x, false);
}

#[test]
fn window_with_a_single_self_loop_vertex() {
    // Vertex 3 talks only to itself inside the window; everything else is
    // outside. The active set is {3} and it must hold all the mass.
    let mut events = vec![Event::new(3, 3, 10)];
    for i in 0..20 {
        events.push(Event::new(i % 7, (i + 2) % 7, 500 + i as i64));
    }
    let t = TemporalCsr::from_events(7, &events);
    let x = all_kernels(&t, TimeRange::new(0, 100));
    assert_is_distribution(&x, true);
    assert!((x[3] - 1.0).abs() < 1e-9, "lone vertex rank {}", x[3]);
}

#[test]
fn regular_graph_converges_at_iteration_one() {
    // A 6-cycle (symmetric, degree-regular): the uniform start is the
    // exact fixed point, so every kernel must converge immediately and
    // report healthy stats.
    let events: Vec<Event> = (0..6).map(|i| Event::new(i, (i + 1) % 6, 10)).collect();
    let t = TemporalCsr::from_events(6, &events);
    let range = TimeRange::new(0, 100);
    let (x, stats) = pagerank_window_vec(&t, &t, range, Init::Uniform, &cfg(), None).unwrap();
    assert!(stats.converged);
    assert_eq!(stats.iterations, 1);
    assert!(stats.health.is_clean());
    assert_is_distribution(&x, true);
    for &r in &x {
        assert!((r - 1.0 / 6.0).abs() < 1e-12);
    }
    let y = all_kernels(&t, range);
    assert_is_distribution(&y, true);
}

#[test]
fn zero_iteration_budget_returns_the_init() {
    // max_iters = 0 is a legal "just set up the window" request: no
    // iteration runs, nothing converges, nothing panics.
    let events: Vec<Event> = (0..12)
        .map(|i| Event::new(i % 4, (i + 1) % 4, 10))
        .collect();
    let t = TemporalCsr::from_events(4, &events);
    let zero = PrConfig {
        max_iters: 0,
        ..cfg()
    };
    let (x, stats) =
        pagerank_window_vec(&t, &t, TimeRange::new(0, 100), Init::Uniform, &zero, None).unwrap();
    assert!(!stats.converged);
    assert_eq!(stats.iterations, 0);
    assert_is_distribution(&x, true);
}

#[test]
fn engine_handles_spec_with_every_window_empty() {
    // The engine-level analogue: a window spec that misses the data
    // entirely must produce a complete, non-degraded run of empty windows.
    let events: Vec<Event> = (0..30)
        .map(|i| Event::new(i % 6, (i + 1) % 6, 1000))
        .collect();
    let log = EventLog::from_unsorted(events, 6).unwrap();
    let spec = WindowSpec::new(0, 10, 20, 5).unwrap();
    let out = PostmortemEngine::new(&log, spec, PostmortemConfig::default())
        .unwrap()
        .run();
    assert!(!out.degraded);
    assert_eq!(out.windows.len(), 5);
    for w in &out.windows {
        assert_eq!(w.status, WindowStatus::Ok);
        assert_eq!(w.stats.active_vertices, 0);
        assert!(w.ranks.as_ref().unwrap().is_empty());
    }
}
