//! Degenerate inputs to the (window × query) batched kernel and its
//! engine driver: all-zero preferences (uniform fallback, flagged),
//! single-vertex seeds, the alpha extremes, `beta = 1` Katz parity,
//! duplicate queries sharing one batch, and empty batches rejected with
//! typed errors at both layers.

use tempopr::core::EngineQuery;
use tempopr::graph::{Event, EventLog, TemporalCsr, TimeRange, WindowSpec};
use tempopr::kernel::reference::{katz_window, KatzConfig};
use tempopr::kernel::{
    pagerank_query_batch, pagerank_window, pagerank_window_personalized, KernelError, PrWorkspace,
    QueryBatch, QueryInit, QuerySpec, QueryWorkspace,
};
use tempopr::prelude::*;

const N: usize = 18;

fn sample_csr() -> TemporalCsr {
    let events: Vec<Event> = (0..110u32)
        .map(|i| {
            Event::new(
                (i * 13 + 2) % N as u32,
                (i * 7 + 5) % N as u32,
                (i * 3) as i64,
            )
        })
        .filter(|e| e.u != e.v)
        .collect();
    TemporalCsr::from_events(N, &events)
}

fn tight_pr() -> PrConfig {
    PrConfig {
        tol: 1e-12,
        max_iters: 500,
        ..PrConfig::default()
    }
}

fn run_one(
    t: &TemporalCsr,
    ranges: &[TimeRange],
    specs: Vec<QuerySpec<'_>>,
    ws: &mut QueryWorkspace,
) -> tempopr::kernel::QueryBatchOutcome {
    let batch = QueryBatch::new(specs).unwrap();
    let inits = vec![QueryInit::Fresh; ranges.len() * batch.len()];
    pagerank_query_batch(t, t, ranges, &batch, &inits, &tight_pr(), None, ws).unwrap()
}

fn lane(ws: &QueryWorkspace, k: usize, vl: usize) -> Vec<f64> {
    let mut out = vec![0.0; N];
    ws.copy_lane_into(k, vl, &mut out);
    out
}

// --- All-zero preference: uniform fallback, recorded ----------------------

#[test]
fn all_zero_preference_falls_back_to_uniform_and_is_flagged() {
    let t = sample_csr();
    let range = TimeRange::new(0, 200);
    let zero = vec![0.0f64; N];
    let mut ws = QueryWorkspace::default();
    let res = run_one(
        &t,
        &[range],
        vec![QuerySpec::Personalized {
            preference: &zero,
            alpha: 0.15,
        }],
        &mut ws,
    );
    assert!(res.uniform_fallback[0], "fallback must be recorded");
    assert!(res.stats[0].converged);
    // Parity with the single-query kernel (bit-for-bit, same fallback) …
    let mut pr_ws = PrWorkspace::default();
    let single =
        pagerank_window_personalized(&t, &t, range, &zero, &tight_pr(), None, &mut pr_ws).unwrap();
    assert!(single.uniform_fallback);
    let batched = lane(&ws, 0, 1);
    let a: Vec<u64> = batched.iter().map(|x| x.to_bits()).collect();
    let b: Vec<u64> = pr_ws.x.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b);
    // … and with plain (uniform-teleport) PageRank up to rounding-order
    // noise: the fallback teleport *is* the uniform vector.
    let uniform =
        pagerank_window(&t, &t, range, Init::Uniform, &tight_pr(), None, &mut pr_ws).unwrap();
    assert!(uniform.converged);
    for (v, (x, y)) in batched.iter().zip(pr_ws.x.iter()).enumerate() {
        assert!(
            (x - y).abs() < 1e-9,
            "vertex {v}: fallback {x} vs uniform pagerank {y}"
        );
    }
}

#[test]
fn preference_with_no_mass_on_the_window_falls_back_too() {
    // Vertex 17 never appears in the early window: positive preference
    // globally, zero mass on the active set.
    let t = TemporalCsr::from_events(
        N,
        &[
            Event::new(0, 1, 1),
            Event::new(1, 2, 2),
            Event::new(16, 17, 900),
        ],
    );
    let mut pref = vec![0.0f64; N];
    pref[17] = 5.0;
    let mut ws = QueryWorkspace::default();
    let res = run_one(
        &t,
        &[TimeRange::new(0, 10), TimeRange::new(800, 1000)],
        vec![QuerySpec::Personalized {
            preference: &pref,
            alpha: 0.15,
        }],
        &mut ws,
    );
    assert!(res.uniform_fallback[0], "window 0 has no preference mass");
    assert!(!res.uniform_fallback[1], "window 1 does");
}

// --- Single-vertex seed ----------------------------------------------------

#[test]
fn single_vertex_seed_concentrates_rank_on_the_seed() {
    let t = sample_csr();
    let mut pref = vec![0.0f64; N];
    pref[4] = 1.0;
    let mut ws = QueryWorkspace::default();
    let res = run_one(
        &t,
        &[TimeRange::new(0, 200)],
        vec![QuerySpec::Personalized {
            preference: &pref,
            alpha: 0.3,
        }],
        &mut ws,
    );
    assert!(res.stats[0].converged && !res.uniform_fallback[0]);
    let x = lane(&ws, 0, 1);
    let max = x.iter().cloned().fold(0.0f64, f64::max);
    assert_eq!(x[4], max, "the seed holds the top personalized rank");
    assert!(x[4] > 0.2, "seed rank {} too diffuse", x[4]);
}

// --- Alpha extremes --------------------------------------------------------

#[test]
fn alpha_extremes_bit_match_the_single_query_kernel() {
    let t = sample_csr();
    let range = TimeRange::new(0, 250);
    let mut pref = vec![0.0f64; N];
    pref[2] = 1.0;
    pref[7] = 2.0;
    let mut ws = QueryWorkspace::default();
    let mut pr_ws = PrWorkspace::default();
    // alpha = 1 teleports every step (x == tele exactly); alpha = 0 is a
    // pure random walk with no restart mass; near-1 is the stiff extreme.
    for alpha in [0.0, 1.0, 0.999_999] {
        let res = run_one(
            &t,
            &[range],
            vec![QuerySpec::Personalized {
                preference: &pref,
                alpha,
            }],
            &mut ws,
        );
        let single = pagerank_window_personalized(
            &t,
            &t,
            range,
            &pref,
            &PrConfig {
                alpha,
                ..tight_pr()
            },
            None,
            &mut pr_ws,
        )
        .unwrap();
        let a: Vec<u64> = lane(&ws, 0, 1).iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = pr_ws.x.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b, "alpha = {alpha}");
        assert_eq!(
            res.stats[0].iterations, single.pr.iterations,
            "alpha = {alpha}"
        );
        assert_eq!(
            res.stats[0].converged, single.pr.converged,
            "alpha = {alpha}"
        );
    }
    // Out of range is a typed, indexed error.
    let err = QueryBatch::new(vec![QuerySpec::Personalized {
        preference: &pref,
        alpha: 1.5,
    }])
    .unwrap_err();
    assert!(
        matches!(err, KernelError::BadQuery { index: 0, .. }),
        "{err:?}"
    );
}

// --- Katz: beta = 1 parity and exact beta scaling --------------------------

#[test]
fn katz_beta_one_bit_matches_the_reference_kernel() {
    let t = sample_csr();
    let ranges = [TimeRange::new(0, 120), TimeRange::new(100, 330)];
    let mut ws = QueryWorkspace::default();
    let res = run_one(
        &t,
        &ranges,
        vec![QuerySpec::Katz {
            alpha_fraction: 0.85,
            beta: 1.0,
            tol: 1e-11,
        }],
        &mut ws,
    );
    for (w, &range) in ranges.iter().enumerate() {
        let kz = katz_window(
            &t,
            range,
            &KatzConfig {
                alpha_fraction: 0.85,
                tol: 1e-11,
                max_iters: 500,
            },
        );
        let a: Vec<u64> = lane(&ws, w, ranges.len())
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = kz.score.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b, "window {w}");
        assert_eq!(res.katz_alpha[w], kz.alpha);
    }
}

#[test]
fn katz_beta_scales_linearly() {
    // Katz is linear in beta; with beta = 2 every float operation is an
    // exact power-of-two scaling of the beta = 1 run, so the scores agree
    // to far below the tolerance.
    let t = sample_csr();
    let range = TimeRange::new(0, 250);
    let mut ws = QueryWorkspace::default();
    run_one(
        &t,
        &[range],
        vec![
            QuerySpec::Katz {
                alpha_fraction: 0.85,
                beta: 1.0,
                tol: 1e-11,
            },
            QuerySpec::Katz {
                alpha_fraction: 0.85,
                beta: 2.0,
                tol: 1e-11,
            },
        ],
        &mut ws,
    );
    let one = lane(&ws, 0, 2);
    let two = lane(&ws, 1, 2);
    for (v, (a, b)) in one.iter().zip(two.iter()).enumerate() {
        assert!((2.0 * a - b).abs() < 1e-9, "vertex {v}: 2·{a} vs {b}");
    }
    // beta must be positive and finite.
    for beta in [0.0, -1.0, f64::NAN] {
        let err = QueryBatch::new(vec![QuerySpec::Katz {
            alpha_fraction: 0.85,
            beta,
            tol: 1e-11,
        }])
        .unwrap_err();
        assert!(
            matches!(err, KernelError::BadQuery { index: 0, .. }),
            "beta = {beta}"
        );
    }
}

// --- Duplicate queries -----------------------------------------------------

#[test]
fn duplicate_queries_in_one_batch_produce_identical_columns() {
    let t = sample_csr();
    let ranges = [TimeRange::new(0, 150), TimeRange::new(60, 260)];
    let mut pref = vec![0.0f64; N];
    pref[3] = 1.0;
    let spec = QuerySpec::Personalized {
        preference: &pref,
        alpha: 0.15,
    };
    let mut ws = QueryWorkspace::default();
    let res = run_one(&t, &ranges, vec![spec, spec, spec], &mut ws);
    for w in 0..ranges.len() {
        let first: Vec<u64> = lane(&ws, w * 3, 6).iter().map(|x| x.to_bits()).collect();
        for dup in 1..3 {
            let other: Vec<u64> = lane(&ws, w * 3 + dup, 6)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(&first, &other, "window {w} duplicate {dup}");
            assert_eq!(
                res.stats[w * 3].iterations,
                res.stats[w * 3 + dup].iterations
            );
        }
    }
}

// --- Empty batches: typed errors at both layers ----------------------------

#[test]
fn empty_batches_are_typed_errors_at_kernel_and_engine_level() {
    // No queries.
    assert_eq!(
        QueryBatch::new(vec![]).unwrap_err(),
        KernelError::EmptyBatch
    );
    // No windows.
    let t = sample_csr();
    let pref = vec![1.0f64; N];
    let batch = QueryBatch::new(vec![QuerySpec::Personalized {
        preference: &pref,
        alpha: 0.15,
    }])
    .unwrap();
    let mut ws = QueryWorkspace::default();
    let err =
        pagerank_query_batch(&t, &t, &[], &batch, &[], &tight_pr(), None, &mut ws).unwrap_err();
    assert_eq!(err, KernelError::EmptyBatch);
    // Engine layer wraps the same typed error.
    let events: Vec<Event> = (0..40u32)
        .map(|i| Event::new(i % 8, (i * 3 + 1) % 8, i as i64))
        .collect();
    let log = EventLog::from_unsorted(events, 8).unwrap();
    let spec = WindowSpec::covering(&log, 20, 10).unwrap();
    let engine = PostmortemEngine::new(&log, spec, PostmortemConfig::default()).unwrap();
    let err = engine.run_queries(&[]).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Kernel {
            source: KernelError::EmptyBatch,
            ..
        }
    ));
    // And a malformed engine query is indexed.
    let err = engine
        .run_queries(&[
            EngineQuery::seeded(0, 8, 0.15),
            EngineQuery::Katz {
                alpha_fraction: 2.0,
                beta: 1.0,
                tol: 1e-9,
            },
        ])
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Kernel {
            source: KernelError::BadQuery { index: 1, .. },
            ..
        }
    ));
}
