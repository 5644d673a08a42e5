//! Partial initialization (Eq. 4): seeding window w+1 from window w's
//! converged ranks inside one multi-window part. Covers the execution
//! matrix (init mode x partitioner x pipeline x lane count), the
//! degenerate disjoint-window fallback, the batched SpMM seeding and its
//! cold part boundaries, per-query chains in query batches, and
//! poisoned-seed protection after a fault.

use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 400,
        ..PrConfig::default()
    }
}

/// A stationary hub-heavy workload: the event pattern repeats every 40
/// ticks, so every window of the same width sees the same graph and the
/// converged ranks of consecutive overlapping windows are nearly equal —
/// the regime where a seed from the previous window is most valuable.
fn stationary_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..4000u32 {
        let (u, v) = if i % 2 == 0 {
            (0, 1 + i % 40)
        } else {
            (1 + (i * 7) % 40, 1 + (i * 13) % 40)
        };
        if u != v {
            events.push(Event::new(u, v, i as i64));
        }
    }
    EventLog::from_unsorted(events, 41).unwrap()
}

/// `stationary_log` windowed at a given overlap ratio: `sw = delta * (1 -
/// overlap)`.
fn spec_at_overlap(log: &EventLog, overlap: f64) -> WindowSpec {
    let delta = 400i64;
    let sw = ((delta as f64) * (1.0 - overlap)).round().max(1.0) as i64;
    WindowSpec::covering(log, delta, sw).unwrap()
}

fn run_with(log: &EventLog, spec: WindowSpec, cfg: PostmortemConfig) -> RunOutput {
    PostmortemEngine::new(log, spec, cfg).unwrap().run()
}

fn fingerprints(out: &RunOutput) -> Vec<f64> {
    out.windows.iter().map(|w| w.fingerprint).collect()
}

// --- Matrix: partial results match full init everywhere ------------------

#[test]
fn partial_matches_full_across_partitioner_pipeline_and_lanes() {
    let log = stationary_log();
    let spec = spec_at_overlap(&log, 0.5);
    let baseline = run_with(
        &log,
        spec,
        PostmortemConfig {
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Full,
            pr: tight_pr(),
            num_multiwindows: 2,
            ..Default::default()
        },
    );
    let base_fp = fingerprints(&baseline);
    for init_mode in [InitMode::Full, InitMode::Partial] {
        for partitioner in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
            for pipeline in [false, true] {
                for kernel in [
                    KernelKind::SpMV,
                    KernelKind::SpMM { lanes: 4 },
                    KernelKind::SpMM { lanes: 16 },
                ] {
                    let out = run_with(
                        &log,
                        spec,
                        PostmortemConfig {
                            mode: ParallelMode::ApplicationLevel,
                            kernel,
                            init_mode,
                            scheduler: Scheduler::new(partitioner, 2),
                            pipeline,
                            pr: tight_pr(),
                            num_multiwindows: 2,
                            ..Default::default()
                        },
                    );
                    assert!(!out.degraded);
                    for (w, (a, b)) in base_fp.iter().zip(fingerprints(&out)).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-8,
                            "window {w} differs under \
                             {init_mode:?}/{partitioner:?}/pipeline={pipeline}/{kernel:?}: \
                             {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

// --- Degenerate: disjoint windows fall back to full, bit-identically ------

/// Eight windows, each on its own block of four vertices: no window shares
/// an active vertex with its predecessor.
fn disjoint_era_log() -> (EventLog, WindowSpec) {
    let mut events = Vec::new();
    for w in 0..8u32 {
        let base = 4 * w;
        for i in 0..40u32 {
            let u = base + i % 4;
            let v = base + (i + 1 + i % 2) % 4;
            if u != v {
                events.push(Event::new(u, v, (w as i64) * 100 + (i as i64) % 100));
            }
        }
    }
    let log = EventLog::from_unsorted(events, 32).unwrap();
    let spec = WindowSpec::new(0, 100, 100, 8).unwrap();
    (log, spec)
}

#[test]
fn disjoint_windows_fall_back_to_full_init_bit_identically() {
    let (log, spec) = disjoint_era_log();
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        let run = |init_mode| {
            run_with(
                &log,
                spec,
                PostmortemConfig {
                    mode: ParallelMode::Sequential,
                    kernel,
                    init_mode,
                    num_multiwindows: 2,
                    pr: tight_pr(),
                    ..Default::default()
                },
            )
        };
        let full = run(InitMode::Full);
        let partial = run(InitMode::Partial);
        assert!(!partial.degraded);
        for (a, b) in full.windows.iter().zip(partial.windows.iter()) {
            assert!(
                a.fingerprint.to_bits() == b.fingerprint.to_bits(),
                "{kernel:?}: window {} fingerprint {} vs {} — a seed with \
                 no shared vertex must be a bit-exact full-init fallback",
                a.window,
                a.fingerprint,
                b.fingerprint
            );
            assert!(a.fingerprint.is_finite());
        }
        // Same iteration counts too: nothing was seeded.
        assert_eq!(
            full.total_iterations(),
            partial.total_iterations(),
            "{kernel:?}"
        );
    }
}

// --- Batched SpMM: seeds chain inside a part, each part starts cold ------

#[test]
fn spmm_iteration_counts_are_pinned() {
    // Regression pin for the batched-SpMM seeding path: these totals are
    // deterministic (sequential in-order walk, fixed workload). A change
    // means the seeding behavior changed — re-derive, don't just re-bless.
    let log = stationary_log();
    let spec = spec_at_overlap(&log, 0.5);
    let [full, partial] = [InitMode::Full, InitMode::Partial].map(|init_mode| {
        run_with(
            &log,
            spec,
            PostmortemConfig {
                mode: ParallelMode::Sequential,
                kernel: KernelKind::SpMM { lanes: 8 },
                init_mode,
                num_multiwindows: 2,
                ..Default::default()
            },
        )
    });
    assert_eq!(
        [full.total_iterations(), partial.total_iterations()],
        [1700, 860],
        "full/partial totals moved"
    );
    // The second part's first window opens batch 0 of a new lane layout:
    // nothing crosses the part boundary, so it starts cold.
    let boundary = spec.count / 2;
    assert_eq!(
        partial.windows[boundary].stats.iterations, full.windows[boundary].stats.iterations,
        "partial must cold-start the part boundary"
    );
}

// --- Query batches: per-query chains --------------------------------------

fn sample_queries(n: usize) -> Vec<tempopr::core::EngineQuery> {
    use tempopr::core::EngineQuery;
    vec![
        EngineQuery::seeded(0, n, 0.15),
        EngineQuery::seeded(3, n, 0.10),
        EngineQuery::Personalized {
            preference: (0..n).map(|v| 1.0 + (v % 5) as f64).collect(),
            alpha: 0.25,
        },
        EngineQuery::Katz {
            alpha_fraction: 0.85,
            beta: 1.0,
            tol: 1e-11,
        },
    ]
}

#[test]
fn query_batch_partial_chains_save_iterations_per_query() {
    // The stationary workload again: each query's converged vector on
    // window w is a near-perfect seed for the same query on window w+1,
    // so per-query chains must save iterations without moving any fixed
    // point.
    let log = stationary_log();
    let spec = spec_at_overlap(&log, 0.75);
    let queries = sample_queries(41);
    let run = |init_mode| {
        let cfg = PostmortemConfig {
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMM { lanes: 16 },
            init_mode,
            num_multiwindows: 2,
            pr: tight_pr(),
            ..Default::default()
        };
        PostmortemEngine::new(&log, spec, cfg)
            .unwrap()
            .run_queries(&queries)
            .unwrap()
    };
    let full = run(InitMode::Full);
    let partial = run(InitMode::Partial);
    assert!(full.all_converged() && partial.all_converged());
    assert!(
        partial.total_iterations() < full.total_iterations(),
        "partial {} !< full {}",
        partial.total_iterations(),
        full.total_iterations()
    );
    // Seeding is a starting point, never an answer: every cell's fixed
    // point agrees across both modes.
    for (f, p) in full.outputs.iter().zip(partial.outputs.iter()) {
        assert_eq!((f.window, f.query), (p.window, p.query));
        assert!(
            (f.fingerprint - p.fingerprint).abs() < 1e-8,
            "window {} query {}: fixed points moved under seeding",
            f.window,
            f.query
        );
    }
}

#[test]
fn query_batch_compaction_remaps_per_query_state_bit_identically() {
    // Converged-lane compaction repacks each retired query's column,
    // teleport vector, and (alpha, scale, tol) parameters; with chained
    // seeds in play the repack must still be invisible bit-for-bit.
    let log = stationary_log();
    let spec = spec_at_overlap(&log, 0.5);
    let queries = sample_queries(41);
    let run = |compaction| {
        let cfg = PostmortemConfig {
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMM { lanes: 64 },
            init_mode: InitMode::Partial,
            num_multiwindows: 2,
            pr: PrConfig {
                compaction,
                ..tight_pr()
            },
            ..Default::default()
        };
        PostmortemEngine::new(&log, spec, cfg)
            .unwrap()
            .run_queries(&queries)
            .unwrap()
    };
    let on = run(true);
    let off = run(false);
    assert!(
        on.lanes_retired > 0,
        "the alpha grid must retire some lanes early"
    );
    assert_eq!(off.lanes_retired, 0);
    assert_eq!(on.outputs.len(), off.outputs.len());
    for (a, b) in on.outputs.iter().zip(off.outputs.iter()) {
        assert_eq!(
            a.fingerprint.to_bits(),
            b.fingerprint.to_bits(),
            "window {} query {}: compaction changed bits",
            a.window,
            a.query
        );
        assert_eq!(a.stats.iterations, b.stats.iterations);
    }
}

// --- Faults: a poisoned seed is never reused ------------------------------

#[test]
fn failed_window_does_not_poison_the_next_seed() {
    let log = stationary_log();
    let spec = spec_at_overlap(&log, 0.5);
    let part = spec.count / 2;
    // Fault the last window of part 1 and the middle of part 2: the next
    // part starts cold after the first, and the in-part seed must skip the
    // failed ranks after the second.
    for faulted in [part - 1, part + 1] {
        for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 8 }] {
            let clean = run_with(
                &log,
                spec,
                PostmortemConfig {
                    mode: ParallelMode::Sequential,
                    kernel,
                    init_mode: InitMode::Full,
                    num_multiwindows: 2,
                    pr: tight_pr(),
                    ..Default::default()
                },
            );
            let out = run_with(
                &log,
                spec,
                PostmortemConfig {
                    mode: ParallelMode::Sequential,
                    kernel,
                    init_mode: InitMode::Partial,
                    num_multiwindows: 2,
                    pr: tight_pr(),
                    faults: FaultPlan::single(faulted, FaultKind::PanicInKernel),
                    ..Default::default()
                },
            );
            assert!(out.degraded);
            assert_eq!(out.failed_windows(), vec![faulted], "{kernel:?}");
            for (c, w) in clean.windows.iter().zip(out.windows.iter()) {
                if w.window == faulted {
                    continue;
                }
                assert!(w.status.is_valid(), "{kernel:?}: window {}", w.window);
                assert!(
                    (c.fingerprint - w.fingerprint).abs() < 1e-7,
                    "{kernel:?}: window {} fingerprint {} vs clean {}",
                    w.window,
                    w.fingerprint,
                    c.fingerprint
                );
                for &r in &w.ranks.as_ref().unwrap().values {
                    assert!(r.is_finite(), "{kernel:?}: window {} rank {r}", w.window);
                }
            }
        }
    }
}
