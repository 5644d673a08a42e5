//! Execution-configuration matrix: every combination of parallelization
//! level, kernel, partitioner, init mode, and multi-window count must
//! produce the same rankings — the paper's execution knobs change cost,
//! never results.

use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 400,
        ..PrConfig::default()
    }
}

fn workload() -> (EventLog, WindowSpec) {
    let log = Dataset::HepTh.spec().generate(0.0015, 77);
    let span = log.last_time() - log.first_time();
    let spec = WindowSpec::covering(&log, span / 4, span / 20).unwrap();
    (log, spec)
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

#[test]
fn full_execution_matrix_agrees() {
    let (log, spec) = workload();
    let baseline = fingerprints(
        &log,
        spec,
        PostmortemConfig {
            mode: ParallelMode::Sequential,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Partial,
            pr: tight_pr(),
            ..Default::default()
        },
    );
    let mut configs_checked = 0;
    for mode in [
        ParallelMode::Sequential,
        ParallelMode::WindowLevel,
        ParallelMode::ApplicationLevel,
        ParallelMode::Nested,
    ] {
        for kernel in [
            KernelKind::SpMV,
            KernelKind::SpMM { lanes: 4 },
            KernelKind::SpMM { lanes: 16 },
        ] {
            for partitioner in [Partitioner::Auto, Partitioner::Simple, Partitioner::Static] {
                for granularity in [1usize, 7, 64] {
                    for init_mode in [InitMode::Full, InitMode::Partial] {
                        for mw in [1usize, 4, 16] {
                            let cfg = PostmortemConfig {
                                mode,
                                kernel,
                                scheduler: Scheduler::new(partitioner, granularity),
                                init_mode,
                                num_multiwindows: mw,
                                pr: tight_pr(),
                                ..Default::default()
                            };
                            let got = fingerprints(&log, spec, cfg);
                            for (w, (a, b)) in baseline.iter().zip(got.iter()).enumerate() {
                                assert!(
                                    (a - b).abs() < 1e-8,
                                    "window {w} differs under {mode:?}/{kernel:?}/{partitioner:?}/g{granularity}/{init_mode:?}/mw{mw}: {a} vs {b}"
                                );
                            }
                            configs_checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(configs_checked, 4 * 3 * 3 * 3 * 2 * 3);
}

#[test]
fn partition_strategies_agree() {
    let (log, spec) = workload();
    let a = fingerprints(
        &log,
        spec,
        PostmortemConfig {
            partition: tempopr::graph::PartitionStrategy::EqualWindows,
            pr: tight_pr(),
            ..Default::default()
        },
    );
    let b = fingerprints(
        &log,
        spec,
        PostmortemConfig {
            partition: tempopr::graph::PartitionStrategy::EqualEvents,
            pr: tight_pr(),
            ..Default::default()
        },
    );
    for (w, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((x - y).abs() < 1e-8, "window {w}");
    }
}

#[test]
fn iteration_counts_drop_with_partial_init_under_all_kernels() {
    // A strongly hub-dominated workload with heavy window overlap, where
    // partial initialization must pay off for both SpMV and SpMM.
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
    let log = EventLog::from_unsorted(events, 41).unwrap();
    let spec = WindowSpec::covering(&log, 1600, 50).unwrap();
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 8 }] {
        let run = |init_mode| {
            PostmortemEngine::new(
                &log,
                spec,
                PostmortemConfig {
                    kernel,
                    mode: ParallelMode::Sequential,
                    init_mode,
                    num_multiwindows: 2,
                    ..Default::default()
                },
            )
            .unwrap()
            .run()
            .total_iterations()
        };
        let full = run(InitMode::Full);
        let partial = run(InitMode::Partial);
        assert!(
            partial < full,
            "{kernel:?}: partial {partial} >= full {full}"
        );
    }
}
