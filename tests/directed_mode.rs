//! Directed-mode integration tests: with `symmetric = false` events keep
//! their direction, pull kernels use the stored transpose, and dangling
//! vertices redistribute their mass — across all execution models and
//! kernels.

use tempopr::kernel::reference_pagerank;
use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 500,
        ..PrConfig::default()
    }
}

fn directed_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..400u32 {
        let u = (i * 13 + 2) % 28;
        let v = (i * 7 + 5) % 28;
        if u != v {
            events.push(Event::new(u, v, i as i64));
        }
    }
    EventLog::from_unsorted(events, 28).unwrap()
}

fn reference_directed(log: &EventLog, spec: WindowSpec) -> Vec<SparseRanks> {
    (0..spec.count)
        .map(|w| {
            let r = spec.window(w);
            let edges: Vec<(u32, u32)> = log
                .events()
                .iter()
                .filter(|e| r.contains(e.t))
                .map(|e| (e.u, e.v))
                .collect();
            SparseRanks::from_dense(&reference_pagerank(log.num_vertices(), &edges, &tight_pr()))
        })
        .collect()
}

#[test]
fn directed_engine_matches_reference_all_kernels() {
    let log = directed_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    let expect = reference_directed(&log, spec);
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        let cfg = PostmortemConfig {
            symmetric: false,
            kernel,
            init_mode: InitMode::Partial,
            pr: tight_pr(),
            ..Default::default()
        };
        let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
        for (w, wo) in out.windows.iter().enumerate() {
            let d = wo.ranks.as_ref().unwrap().linf_distance(&expect[w]);
            assert!(d < 1e-7, "{kernel:?} window {w}: linf {d}");
        }
    }
}

#[test]
fn directed_offline_matches_reference() {
    let log = directed_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    let expect = reference_directed(&log, spec);
    let out = run_offline(
        &log,
        spec,
        &OfflineConfig {
            symmetric: false,
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .expect("offline run");
    for (w, wo) in out.windows.iter().enumerate() {
        let d = wo.ranks.as_ref().unwrap().linf_distance(&expect[w]);
        assert!(d < 1e-7, "window {w}: linf {d}");
    }
}

#[test]
fn directed_ranks_differ_from_symmetric() {
    // Sanity: direction must matter. A pure sink vertex outranks its
    // symmetric self.
    let log = directed_log();
    let spec = WindowSpec::covering(&log, 200, 100).unwrap();
    let run = |symmetric| {
        PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                symmetric,
                pr: tight_pr(),
                ..Default::default()
            },
        )
        .unwrap()
        .run()
    };
    let dir = run(false);
    let sym = run(true);
    let d = dir.windows[0]
        .ranks
        .as_ref()
        .unwrap()
        .linf_distance(sym.windows[0].ranks.as_ref().unwrap());
    assert!(
        d > 1e-4,
        "directed and symmetric ranks should differ, got {d}"
    );
}

#[test]
fn directed_partial_init_still_exact() {
    let log = directed_log();
    let spec = WindowSpec::covering(&log, 150, 30).unwrap();
    let run = |init_mode| {
        PostmortemEngine::new(
            &log,
            spec,
            PostmortemConfig {
                symmetric: false,
                init_mode,
                pr: tight_pr(),
                ..Default::default()
            },
        )
        .unwrap()
        .run()
    };
    let a = run(InitMode::Partial);
    let b = run(InitMode::Full);
    for (x, y) in a.windows.iter().zip(b.windows.iter()) {
        assert!(
            (x.fingerprint - y.fingerprint).abs() < 1e-8,
            "window {}",
            x.window
        );
    }
}
