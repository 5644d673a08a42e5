//! Deterministic fault injection through the whole engine stack: every
//! planned fault must be detected, recovered (or contained), and reported —
//! and every window the fault did *not* touch must still produce valid
//! ranks.
//!
//! The graph is deliberately degree-skewed: on a degree-regular symmetric
//! graph the uniform start is already the fixed point, the kernel converges
//! at iteration 1, and an injection targeting iteration k never fires.

use tempopr::prelude::*;

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-11,
        max_iters: 500,
        ..PrConfig::default()
    }
}

/// Hub-skewed temporal graph (vertex 0 touches everything): far-from-uniform
/// stationary distribution, so every window iterates several times.
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
        // Pinned, not resolved: the healthy-window bit checks compare runs
        // whose part boundaries start cold.
        init_mode: InitMode::Partial,
        pr: tight_pr(),
        num_multiwindows: 2,
        ..Default::default()
    }
}

fn run(log: &EventLog, spec: WindowSpec, cfg: PostmortemConfig) -> RunOutput {
    PostmortemEngine::new(log, spec, cfg).unwrap().run()
}

/// Asserts every window except `faulted` carries valid ranks within `tol`
/// of the fault-free run (windows recovered from a fault may legitimately
/// differ by the convergence tolerance; the rest must agree too because
/// they converged to the same fixed points).
fn assert_clean_windows_match(clean: &RunOutput, faulty: &RunOutput, faulted: usize, tol: f64) {
    assert_eq!(clean.windows.len(), faulty.windows.len());
    for (c, f) in clean.windows.iter().zip(faulty.windows.iter()) {
        if c.window == faulted {
            continue;
        }
        assert!(
            f.status.is_valid(),
            "window {} poisoned by fault in window {faulted}: {:?}",
            c.window,
            f.status
        );
        let d = c
            .ranks
            .as_ref()
            .unwrap()
            .linf_distance(f.ranks.as_ref().unwrap());
        assert!(d < tol, "window {}: linf {d} vs fault-free run", c.window);
    }
}

// --- Path 1: injected NaN -> guard detects -> uniform restart ------------

#[test]
fn nan_injection_recovers_via_guard_restart() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let clean = run(
        &log,
        spec,
        base_cfg(KernelKind::SpMV, ParallelMode::Sequential),
    );
    let mut cfg = base_cfg(KernelKind::SpMV, ParallelMode::Sequential);
    // Iteration 1 always runs, even for warm-started windows that converge
    // immediately; a later target could silently miss the window.
    cfg.faults = FaultPlan::single(2, FaultKind::InjectNan { at_iter: 1 });
    let out = run(&log, spec, cfg);

    assert!(!out.degraded, "guard recovery must not degrade the run");
    let w = &out.windows[2];
    assert_eq!(
        w.status,
        WindowStatus::Recovered {
            via: RecoveryKind::GuardIntervention
        }
    );
    assert!(w.stats.health.restarts >= 1, "restart must be recorded");
    assert!(w.stats.converged);
    let d = clean.windows[2]
        .ranks
        .as_ref()
        .unwrap()
        .linf_distance(w.ranks.as_ref().unwrap());
    assert!(d < 1e-7, "recovered ranks drifted: linf {d}");
    assert_clean_windows_match(&clean, &out, 2, 1e-7);
}

// --- Path 2: forced non-convergence -> full-init retry -> dense oracle ---

#[test]
fn forced_nonconvergence_escalates_to_dense_oracle() {
    let log = skewed_log();
    let spec = spec_for(&log);
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        let clean = run(&log, spec, base_cfg(kernel, ParallelMode::Sequential));
        let mut cfg = base_cfg(kernel, ParallelMode::Sequential);
        cfg.faults = FaultPlan::single(2, FaultKind::ForceNonConvergence);
        let out = run(&log, spec, cfg);

        assert!(
            !out.degraded,
            "{kernel:?}: oracle recovery must not degrade"
        );
        let w = &out.windows[2];
        // The fault persists across the full-init retry, so the ladder must
        // walk all the way down to the exact Eq. 2 solve.
        assert_eq!(
            w.status,
            WindowStatus::Recovered {
                via: RecoveryKind::DenseOracle
            },
            "{kernel:?}"
        );
        let d = clean.windows[2]
            .ranks
            .as_ref()
            .unwrap()
            .linf_distance(w.ranks.as_ref().unwrap());
        assert!(d < 1e-6, "{kernel:?}: oracle ranks drifted: linf {d}");
        assert_clean_windows_match(&clean, &out, 2, 1e-7);
    }
}

// --- Path 3: corrupted degree reciprocal -> mass drift detected ----------

#[test]
fn corrupt_reciprocal_is_detected_and_recovered() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let clean = run(
        &log,
        spec,
        base_cfg(KernelKind::SpMV, ParallelMode::Sequential),
    );
    let mut cfg = base_cfg(KernelKind::SpMV, ParallelMode::Sequential);
    cfg.faults = FaultPlan::single(1, FaultKind::CorruptReciprocal);
    let out = run(&log, spec, cfg);

    // Renormalization cannot cure a persistently corrupt reciprocal; the
    // kernel escalates and the oracle (which recomputes degrees itself)
    // produces the exact ranks.
    let w = &out.windows[1];
    assert_eq!(
        w.status,
        WindowStatus::Recovered {
            via: RecoveryKind::DenseOracle
        }
    );
    assert!(!out.degraded);
    let d = clean.windows[1]
        .ranks
        .as_ref()
        .unwrap()
        .linf_distance(w.ranks.as_ref().unwrap());
    assert!(d < 1e-6, "oracle ranks drifted: linf {d}");
    assert_clean_windows_match(&clean, &out, 1, 1e-7);
}

#[test]
fn corrupt_reciprocal_under_fail_policy_fails_loudly() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let mut cfg = base_cfg(KernelKind::SpMV, ParallelMode::Sequential);
    cfg.pr.guard.policy = NumericPolicy::Fail;
    cfg.faults = FaultPlan::single(1, FaultKind::CorruptReciprocal);
    let out = run(&log, spec, cfg);

    // Under Fail no recovery ladder runs: the window fails, the run is
    // flagged degraded, and the diagnostic is preserved.
    assert!(out.degraded);
    assert_eq!(out.failed_windows(), vec![1]);
    match &out.windows[1].status {
        WindowStatus::Failed { diagnostic } => {
            assert!(!diagnostic.is_empty(), "diagnostic must not be silent");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // Every other window still completed.
    for w in &out.windows {
        if w.window != 1 {
            assert!(w.status.is_valid());
        }
    }
}

// --- Path 4: kernel panic -> isolated, run completes degraded ------------

#[test]
fn injected_panic_is_isolated_per_window() {
    let log = skewed_log();
    let spec = spec_for(&log);
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        for mode in [ParallelMode::Sequential, ParallelMode::Nested] {
            let clean = run(&log, spec, base_cfg(kernel, mode));
            let mut cfg = base_cfg(kernel, mode);
            cfg.faults = FaultPlan::single(2, FaultKind::PanicInKernel);
            let out = run(&log, spec, cfg);

            assert!(out.degraded, "{kernel:?}/{mode:?}: panic must degrade");
            assert_eq!(out.failed_windows(), vec![2], "{kernel:?}/{mode:?}");
            match &out.windows[2].status {
                WindowStatus::Failed { diagnostic } => assert!(
                    diagnostic.contains("panic"),
                    "{kernel:?}/{mode:?}: diagnostic {diagnostic:?}"
                ),
                other => panic!("{kernel:?}/{mode:?}: expected Failed, got {other:?}"),
            }
            assert_clean_windows_match(&clean, &out, 2, 1e-7);
            let summary = out.status_summary();
            assert!(summary.contains("1 failed"), "summary: {summary}");
        }
    }
}

// --- Streaming and offline models contain panics too ---------------------

#[test]
fn offline_and_streaming_survive_empty_inputs_and_report_status() {
    // Sanity for the shared status plumbing on the baseline models: a
    // healthy run is all-Ok, not degraded, and summarizes as such.
    let log = skewed_log();
    let spec = spec_for(&log);
    let off = run_offline(
        &log,
        spec,
        &OfflineConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!off.degraded);
    assert!(off.windows.iter().all(|w| w.status.is_valid()));
    let st = run_streaming(
        &log,
        spec,
        &StreamingConfig {
            pr: tight_pr(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!st.degraded);
    assert!(st.windows.iter().all(|w| w.status.is_valid()));
}

// --- Zero-cost contract: guards and an empty plan change nothing ---------

#[test]
fn healthy_ranks_bit_identical_with_guards_on_and_off() {
    let log = skewed_log();
    let spec = spec_for(&log);
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        for mode in [
            ParallelMode::Sequential,
            ParallelMode::WindowLevel,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ] {
            let mut on = base_cfg(kernel, mode);
            on.pr.guard = GuardConfig::default();
            let mut off = base_cfg(kernel, mode);
            off.pr.guard = GuardConfig::off();
            let a = run(&log, spec, on);
            let b = run(&log, spec, off);
            for (x, y) in a.windows.iter().zip(b.windows.iter()) {
                // Bit-identical, not approximately equal: the guards are
                // read-only observers on healthy inputs.
                assert_eq!(
                    x.fingerprint, y.fingerprint,
                    "{kernel:?}/{mode:?} window {}",
                    x.window
                );
                assert_eq!(x.stats.iterations, y.stats.iterations);
                assert_eq!(x.status, WindowStatus::Ok);
            }
        }
    }
}

// --- Cross-driver parity: one exec layer, one failure story ---------------
//
// The recovery ladder, panic isolation, and status classification live in
// exactly one place (`tempopr::core::exec`), so the same events and the
// same fault plan must yield the same per-window status sequence, the same
// attempt counts, and the same recovery-rung counters through all three
// drivers when they run the same policy.

/// Runs the same log + fault plan through all three drivers with the full
/// recovery ladder enabled, each under an enabled telemetry sink, and
/// returns `(driver name, output, report)` triples.
fn parity_runs(fault: FaultKind, faulted: usize) -> Vec<(&'static str, RunOutput, RunReport)> {
    let log = skewed_log();
    let spec = spec_for(&log);
    let plan = FaultPlan::single(faulted, fault);

    // Postmortem: cold sequential SpMV so `was_partial` is false for every
    // window, matching the other two drivers' attempt sequences.
    let pm_tele = Telemetry::enabled();
    let pm_cfg = PostmortemConfig {
        kernel: KernelKind::SpMV,
        mode: ParallelMode::Sequential,
        pr: tight_pr(),
        num_multiwindows: 1,
        init_mode: InitMode::Full,
        faults: plan.clone(),
        ..Default::default()
    };
    let engine =
        tempopr::core::PostmortemEngine::with_telemetry(&log, spec, pm_cfg, pm_tele).unwrap();
    let pm_out = engine.run();
    let pm_report = engine.telemetry().report();

    let off_tele = Telemetry::enabled();
    let off_cfg = OfflineConfig {
        pr: tight_pr(),
        faults: plan.clone(),
        recovery: RecoveryPolicy::ladder(),
        ..Default::default()
    };
    let off_out = run_offline_traced(&log, spec, &off_cfg, &off_tele).unwrap();

    let st_tele = Telemetry::enabled();
    let st_cfg = StreamingConfig {
        pr: tight_pr(),
        incremental: IncrementalMode::Recompute,
        faults: plan,
        recovery: RecoveryPolicy::ladder(),
        ..Default::default()
    };
    let st_out = run_streaming_traced(&log, spec, &st_cfg, &st_tele).unwrap();

    vec![
        ("postmortem", pm_out, pm_report),
        ("offline", off_out, off_tele.report()),
        ("streaming", st_out, st_tele.report()),
    ]
}

#[test]
fn drivers_agree_on_oracle_recovery() {
    let runs = parity_runs(FaultKind::ForceNonConvergence, 2);
    for (name, out, report) in &runs {
        assert!(!out.degraded, "{name}: oracle recovery must not degrade");
        for w in &out.windows {
            if w.window == 2 {
                assert_eq!(
                    w.status,
                    WindowStatus::Recovered {
                        via: RecoveryKind::DenseOracle
                    },
                    "{name}"
                );
                assert_eq!(w.attempts, 3, "{name}: ladder must reach rung 3");
            } else {
                assert_eq!(w.status, WindowStatus::Ok, "{name} window {}", w.window);
                assert_eq!(w.attempts, 1, "{name} window {}", w.window);
            }
        }
        // Every cold driver walks the identical ladder: the full-init rung
        // is skipped (nothing was warm-started), the oracle fires once.
        assert_eq!(report.counter("recovery.full_init_retry"), 0, "{name}");
        assert_eq!(report.counter("recovery.dense_oracle"), 1, "{name}");
        assert_eq!(report.counter("windows.recovered"), 1, "{name}");
    }
    // The oracle solves Eq. 2 exactly from the same events regardless of
    // driver, so even the recovered window's ranks agree across drivers.
    let (_, reference, _) = &runs[0];
    for (name, out, _) in &runs[1..] {
        for (a, b) in reference.windows.iter().zip(out.windows.iter()) {
            let d = a
                .ranks
                .as_ref()
                .unwrap()
                .linf_distance(b.ranks.as_ref().unwrap());
            assert!(
                d < 1e-8,
                "postmortem vs {name}, window {}: linf {d}",
                a.window
            );
        }
    }
}

#[test]
fn drivers_agree_on_panic_containment() {
    for (name, out, report) in parity_runs(FaultKind::PanicInKernel, 2) {
        assert!(out.degraded, "{name}: a panicked window must degrade");
        assert_eq!(out.failed_windows(), vec![2], "{name}");
        let w = &out.windows[2];
        match &w.status {
            WindowStatus::Failed { diagnostic } => assert!(
                diagnostic.contains("panic"),
                "{name}: diagnostic {diagnostic:?}"
            ),
            other => panic!("{name}: expected Failed, got {other:?}"),
        }
        // A panic is terminal on attempt 1 — no recovery rung may run on a
        // workspace that is no longer trustworthy.
        assert_eq!(w.attempts, 1, "{name}");
        assert_eq!(report.counter("recovery.full_init_retry"), 0, "{name}");
        assert_eq!(report.counter("recovery.dense_oracle"), 0, "{name}");
        assert_eq!(report.counter("windows.failed"), 1, "{name}");
        for w in &out.windows {
            if w.window != 2 {
                assert_eq!(w.status, WindowStatus::Ok, "{name} window {}", w.window);
            }
        }
    }
}

#[test]
fn empty_fault_plan_is_a_noop() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let mut with_empty_plan = base_cfg(KernelKind::SpMM { lanes: 4 }, ParallelMode::Nested);
    with_empty_plan.faults = FaultPlan::default();
    let a = run(&log, spec, with_empty_plan);
    let b = run(
        &log,
        spec,
        base_cfg(KernelKind::SpMM { lanes: 4 }, ParallelMode::Nested),
    );
    for (x, y) in a.windows.iter().zip(b.windows.iter()) {
        assert_eq!(x.fingerprint, y.fingerprint, "window {}", x.window);
        assert_eq!(x.stats, y.stats);
    }
}

/// A storage fetch fault mid-run is contained per part: at the API surface
/// it is the typed `EngineError::Storage` carrying the part index; through
/// the run, every window of the poisoned part fails loudly with the part
/// in its diagnostic while every other window completes bit-identically to
/// the clean run — serial and shard-parallel alike.
#[test]
fn injected_fetch_failure_is_contained_per_part() {
    let log = skewed_log();
    let spec = spec_for(&log);
    let cfg_for = |workers: usize, failures: Vec<usize>| {
        let mut cfg = base_cfg(KernelKind::SpMV, ParallelMode::ApplicationLevel);
        cfg.num_multiwindows = 3;
        cfg.storage = StorageBackend::Compressed;
        cfg.storage_workers = workers;
        cfg.faults.fetch_failures = failures;
        cfg
    };
    let clean = run(&log, spec, cfg_for(1, Vec::new()));
    for workers in [1usize, 2] {
        let tele = Telemetry::enabled();
        let engine =
            PostmortemEngine::with_telemetry(&log, spec, cfg_for(workers, vec![1]), tele.clone())
                .unwrap();
        let err = match engine.part(1) {
            Err(e) => e,
            Ok(_) => panic!("poisoned part must not decode"),
        };
        assert!(
            matches!(err, EngineError::Storage { part: Some(1), .. }),
            "workers={workers}: expected Storage {{ part: Some(1) }}, got {err:?}"
        );
        assert!(
            err.to_string().contains("part 1"),
            "workers={workers}: part context missing from {err}"
        );
        let out = engine.run();
        let mut failed = 0u64;
        for (w, cw) in out.windows.iter().zip(clean.windows.iter()) {
            match &w.status {
                WindowStatus::Failed { diagnostic } => {
                    failed += 1;
                    assert!(
                        diagnostic.contains("injected fetch failure for part 1"),
                        "workers={workers} window {}: diagnostic {diagnostic:?}",
                        w.window
                    );
                }
                status => {
                    assert_eq!(*status, WindowStatus::Ok, "workers={workers}");
                    assert_eq!(
                        w.fingerprint.to_bits(),
                        cw.fingerprint.to_bits(),
                        "workers={workers} window {}: healthy window diverges",
                        w.window
                    );
                }
            }
        }
        assert!(
            failed > 0 && (failed as usize) < out.windows.len(),
            "workers={workers}: {failed} of {} windows failed",
            out.windows.len()
        );
        assert_eq!(
            tele.report().counter("storage.fetch_failures"),
            failed,
            "workers={workers}"
        );
    }
}
