//! Telemetry is observation-only: attaching an enabled sink must not
//! perturb the computation. Every driver (postmortem engine, offline
//! baseline, streaming baseline) is run twice on the same workload — once
//! with a noop sink, once recording — and the PageRank outputs must be
//! *bit-identical*, across every kernel × parallel-mode combination.
//!
//! This is a strong claim and it holds because the observation hooks sit
//! outside the numeric path (they read residuals/masses already computed
//! for convergence) and the schedulers reduce over a fixed chunk
//! structure regardless of work stealing.

use tempopr::core::run_offline_traced;
use tempopr::prelude::*;
use tempopr::stream::run_streaming_traced;

/// Hub-skewed temporal graph: far-from-uniform stationary distribution,
/// so every window iterates several times and the trace is non-trivial.
fn skewed_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..600u32 {
        let (u, v) = if i % 3 != 0 {
            (0, 1 + i % 29)
        } else {
            (1 + (i * 7) % 29, 1 + (i * 13) % 29)
        };
        if u != v {
            events.push(Event::new(u, v, i as i64));
        }
    }
    EventLog::from_unsorted(events, 30).unwrap()
}

fn spec_for(log: &EventLog) -> WindowSpec {
    WindowSpec::covering(log, 200, 50).unwrap()
}

fn base_cfg(kernel: KernelKind, mode: ParallelMode) -> PostmortemConfig {
    PostmortemConfig {
        kernel,
        mode,
        init_mode: InitMode::Partial,
        num_multiwindows: 2,
        retain: RetainMode::Full,
        ..Default::default()
    }
}

/// Asserts two runs are the same computation to the last bit: same
/// statuses, same iteration counts, same fingerprints, same rank vectors.
fn assert_bit_identical(noop: &RunOutput, traced: &RunOutput, what: &str) {
    assert_eq!(noop.windows.len(), traced.windows.len(), "{what}: windows");
    for (x, y) in noop.windows.iter().zip(&traced.windows) {
        assert_eq!(x.status, y.status, "{what}: status of window {}", x.window);
        assert_eq!(
            x.stats.iterations, y.stats.iterations,
            "{what}: iterations of window {}",
            x.window
        );
        assert_eq!(
            x.fingerprint.to_bits(),
            y.fingerprint.to_bits(),
            "{what}: fingerprint of window {}",
            x.window
        );
        assert_eq!(x.ranks, y.ranks, "{what}: ranks of window {}", x.window);
    }
}

#[test]
fn postmortem_enabled_vs_noop_bit_identical() {
    let log = skewed_log();
    let spec = spec_for(&log);
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        for mode in [
            ParallelMode::Sequential,
            ParallelMode::WindowLevel,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ] {
            let cfg = base_cfg(kernel, mode);
            let noop = PostmortemEngine::new(&log, spec, cfg.clone())
                .unwrap()
                .run();
            let tele = Telemetry::enabled();
            let traced = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
                .unwrap()
                .run();
            assert_bit_identical(&noop, &traced, &format!("{kernel:?}/{mode:?}"));
            let report = tele.report();
            assert_eq!(report.counter("windows.total"), spec.count as u64);
            assert!(report.counter("iterations.total") > 0);
        }
    }
}

#[test]
fn offline_enabled_vs_noop_bit_identical() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let cfg = OfflineConfig {
        retain: RetainMode::Full,
        ..Default::default()
    };
    let noop = run_offline(&log, spec, &cfg).unwrap();
    let tele = Telemetry::enabled();
    let traced = run_offline_traced(&log, spec, &cfg, &tele).unwrap();
    assert_bit_identical(&noop, &traced, "offline");
    let report = tele.report();
    assert_eq!(report.counter("windows.total"), spec.count as u64);
    assert!(report.counter("iterations.total") > 0);
}

#[test]
fn streaming_enabled_vs_noop_bit_identical() {
    let log = skewed_log();
    let spec = spec_for(&log);
    for incremental in [IncrementalMode::Recompute, IncrementalMode::WarmRestart] {
        let cfg = StreamingConfig {
            incremental,
            retain: RetainMode::Full,
            ..Default::default()
        };
        let noop = run_streaming(&log, spec, &cfg).unwrap();
        let tele = Telemetry::enabled();
        let traced = run_streaming_traced(&log, spec, &cfg, &tele).unwrap();
        assert_bit_identical(&noop, &traced, &format!("streaming/{incremental:?}"));
        assert_eq!(tele.report().counter("windows.total"), spec.count as u64);
    }
}

#[test]
fn report_and_trace_carry_schema_and_accounting() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let tele = Telemetry::enabled();
    let cfg = base_cfg(KernelKind::SpMV, ParallelMode::WindowLevel);
    let out = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
        .unwrap()
        .run();
    assert!(!out.degraded);

    let report = tele.report();
    // Status counters reconcile with the window count.
    let terminal = report.counter("windows.ok")
        + report.counter("windows.recovered")
        + report.counter("windows.failed");
    assert_eq!(terminal, spec.count as u64);
    assert_eq!(report.counter("windows.total"), spec.count as u64);
    // Phase timers actually accumulated wall time.
    assert!(report.phase_ns_total() > 0);
    // Memory accounting is present and plausible.
    let bytes = report.gauge("memory.multiwindow_bytes").unwrap();
    assert!(bytes > 0.0);
    assert_eq!(report.gauge("run.degraded"), Some(0.0));

    // Versioned schemas on both exports.
    assert!(report.to_json().contains("tempopr.metrics.v1"));
    assert!(tele
        .trace()
        .deterministic_json()
        .contains("tempopr.trace.v1"));

    // A noop sink records nothing and exports empty-but-valid documents.
    let off = Telemetry::noop();
    assert!(!off.is_enabled());
    assert_eq!(off.report().counter("windows.total"), 0);
    assert!(off.report().to_json().contains("tempopr.metrics.v1"));
}
