//! The three part-storage backends (resident / compressed / on-disk) are
//! pure layout choices: across kernels, init modes, parallel modes,
//! pipelining, and checkpoint/resume, every window's rank fingerprint
//! must be **bit-identical** to the resident reference. Plus the two
//! budget contracts: an infeasible `memory_budget` fails with a typed
//! error naming the minimal feasible budget, and a feasible one bounds
//! the measured resident high-water mark while the workload's
//! uncompressed footprint exceeds it.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tempopr::core::checkpoint::MANIFEST_NAME;
use tempopr::graph::{MultiWindowSet, PartitionStrategy};
use tempopr::prelude::*;

const MAX_V: u32 = 24;

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..MAX_V, 0..MAX_V, 0i64..500).prop_map(|(u, v, t)| Event::new(u, v, t)),
        1..200,
    )
}

/// A unique scratch directory (tests and proptest cases share a process).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tempopr_sbp_{tag}_{}_{n}", std::process::id()))
}

/// The three backends, the on-disk one spilling under a fresh directory.
fn backends(tag: &str) -> Vec<(&'static str, StorageBackend, Option<PathBuf>)> {
    let dir = scratch_dir(tag);
    vec![
        ("resident", StorageBackend::Resident, None),
        ("compressed", StorageBackend::Compressed, None),
        (
            "ondisk",
            StorageBackend::OnDisk { dir: dir.clone() },
            Some(dir),
        ),
    ]
}

fn fingerprints(out: &RunOutput) -> Vec<u64> {
    out.windows
        .iter()
        .map(|w| w.fingerprint.to_bits())
        .collect()
}

fn dense_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..2000u32 {
        let u = (i * 11 + 1) % 40;
        let v = (i * 7 + 3) % 40;
        if u != v {
            events.push(Event::new(u, v, (i % 900) as i64));
        }
    }
    EventLog::from_unsorted(events, 40).unwrap()
}

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-10,
        max_iters: 500,
        ..PrConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernel × init-mode × parallel-mode × pipeline × backend: ranks are
    /// bit-identical to the resident reference in every cell. And SpMV is
    /// the one-lane SpMM: on one thread, under either init mode, either
    /// in-memory backend, every SIMD policy and both in-order modes,
    /// `SpMV` and `SpMM { lanes: 1 }` agree on every window's fingerprint
    /// bits and iteration count.
    #[test]
    fn backends_are_bit_identical_across_engine_matrix(
        events in arb_events(),
        delta in 5i64..200,
        sw in 1i64..100,
        parts in 1usize..6,
        kernel in prop::sample::select(vec![
            KernelKind::SpMV,
            KernelKind::SpMM { lanes: 4 },
            KernelKind::SpMM { lanes: 16 },
        ]),
        init_mode in prop::sample::select(vec![InitMode::Full, InitMode::Partial]),
        mode in prop::sample::select(vec![
            ParallelMode::Sequential,
            ParallelMode::ApplicationLevel,
            ParallelMode::Nested,
        ]),
        pipeline in any::<bool>(),
        symmetric in any::<bool>(),
    ) {
        let log = EventLog::from_unsorted(events, MAX_V as usize).unwrap();
        let spec = WindowSpec::covering(&log, delta, sw).unwrap();
        let mut reference: Option<Vec<u64>> = None;
        for (name, backend, dir) in backends("matrix") {
            let cfg = PostmortemConfig {
                num_multiwindows: parts,
                kernel,
                init_mode,
                mode,
                pipeline,
                symmetric,
                storage: backend,
                pr: tight_pr(),
                ..PostmortemConfig::default()
            };
            let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
            let got = fingerprints(&out);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert_eq!(
                    &got, want,
                    "{} diverges from resident: {:?} {:?} {:?} parts={} pipeline={}",
                    name, kernel, init_mode, mode, parts, pipeline
                ),
            }
        }
        let one_thread = |kernel, init_mode, storage, simd, mode| {
            let cfg = PostmortemConfig {
                num_multiwindows: parts,
                kernel,
                init_mode,
                mode,
                threads: 1,
                pipeline,
                symmetric,
                storage,
                pr: PrConfig { simd, ..tight_pr() },
                ..PostmortemConfig::default()
            };
            let out = PostmortemEngine::new(&log, spec, cfg).unwrap().run();
            let iterations: Vec<usize> = out.windows.iter().map(|w| w.stats.iterations).collect();
            (fingerprints(&out), iterations)
        };
        for init_mode in [InitMode::Full, InitMode::Partial] {
            for storage in [StorageBackend::Resident, StorageBackend::Compressed] {
                for simd in [SimdPolicy::BitWalk, SimdPolicy::Scalar, SimdPolicy::Auto] {
                    for mode in [ParallelMode::Sequential, ParallelMode::ApplicationLevel] {
                        let at = |kernel| one_thread(kernel, init_mode, storage.clone(), simd, mode);
                        prop_assert_eq!(
                            at(KernelKind::SpMV),
                            at(KernelKind::SpMM { lanes: 1 }),
                            "SpMV vs SpMM{{1}}: {:?} {} {:?} {:?} parts={} pipeline={}",
                            init_mode, storage, simd, mode, parts, pipeline
                        );
                    }
                }
            }
        }
    }
}

/// Checkpoint on one backend, tear the manifest, resume on another — all
/// nine (write × resume) backend pairs reproduce the uninterrupted
/// resident run bit for bit. The compatibility hash deliberately masks
/// the storage choice (same partition, same ranks), so a spill file is
/// never a resume barrier; and it masks `pipeline`, so every resume flips
/// the write's prefetch setting.
#[test]
fn checkpoint_resume_is_backend_agnostic() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    assert!(
        spec.count >= 8,
        "workload too small: {} windows",
        spec.count
    );
    let cfg_for = |backend: StorageBackend, pipeline: bool| PostmortemConfig {
        num_multiwindows: 3,
        mode: ParallelMode::ApplicationLevel,
        kernel: KernelKind::SpMV,
        init_mode: InitMode::Partial,
        pr: tight_pr(),
        storage: backend,
        pipeline,
        ..PostmortemConfig::default()
    };
    let baseline = PostmortemEngine::new(&log, spec, cfg_for(StorageBackend::Resident, false))
        .unwrap()
        .run_durable(&CheckpointOptions::default())
        .unwrap();
    for (i, (wname, wbackend, wdir)) in backends("ck_write").into_iter().enumerate() {
        for (j, (rname, rbackend, rdir)) in backends("ck_resume").into_iter().enumerate() {
            // Both directions: half the pairs write pipelined.
            let pipelined = (i + j) % 2 == 0;
            let ckdir = scratch_dir("ck_manifest");
            std::fs::create_dir_all(&ckdir).unwrap();
            let write_opts = CheckpointOptions {
                dir: Some(ckdir.clone()),
                every: 1,
                resume: None,
            };
            PostmortemEngine::new(&log, spec, cfg_for(wbackend.clone(), pipelined))
                .unwrap()
                .run_durable(&write_opts)
                .unwrap();
            // Tear the tail off the manifest: resume recovers the longest
            // valid prefix and recomputes the rest.
            let len = std::fs::metadata(ckdir.join(MANIFEST_NAME)).unwrap().len() as usize;
            corrupt_manifest(&ckdir, CorruptionKind::Truncate { len: len * 2 / 3 }).unwrap();
            let resume_opts = CheckpointOptions {
                dir: Some(ckdir.clone()),
                every: 1,
                resume: Some(ckdir.clone()),
            };
            let resumed = PostmortemEngine::new(&log, spec, cfg_for(rbackend.clone(), !pipelined))
                .unwrap()
                .run_durable(&resume_opts)
                .unwrap();
            assert_eq!(
                fingerprints(&baseline),
                fingerprints(&resumed),
                "write={wname} resume={rname}: resumed ranks diverge"
            );
            assert!(
                resumed.windows.iter().all(|w| w.status == WindowStatus::Ok),
                "write={wname} resume={rname}: degraded windows"
            );
            let _ = std::fs::remove_dir_all(&ckdir);
            if let Some(d) = rdir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        if let Some(d) = wdir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// An impossible budget fails loudly with the minimal feasible budget in
/// the typed error — and that reported budget really is feasible.
#[test]
fn infeasible_budget_reports_minimal_feasible() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    for (name, backend, dir) in backends("budget") {
        let cfg = PostmortemConfig {
            storage: backend.clone(),
            memory_budget: Some(8),
            mode: ParallelMode::ApplicationLevel,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Partial,
            pr: tight_pr(),
            ..PostmortemConfig::default()
        };
        let err = match PostmortemEngine::new(&log, spec, cfg.clone()) {
            Err(e) => e,
            Ok(_) => panic!("{name}: an 8-byte budget should be infeasible"),
        };
        let required = match err {
            EngineError::BudgetInfeasible { required, budget } => {
                assert_eq!(budget, 8, "{name}");
                assert!(required > budget, "{name}");
                assert!(
                    err.to_string().contains("minimal feasible budget"),
                    "{name}: {err}"
                );
                required
            }
            other => panic!("{name}: expected BudgetInfeasible, got {other}"),
        };
        let feasible = PostmortemConfig {
            memory_budget: Some(required),
            ..cfg
        };
        let engine = PostmortemEngine::new(&log, spec, feasible)
            .unwrap_or_else(|e| panic!("{name}: reported budget {required} infeasible: {e}"));
        engine.run().windows.iter().for_each(|w| {
            assert_eq!(w.status, WindowStatus::Ok, "{name}: window {}", w.window);
        });
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The build phase puts the planner's decision on record: how many
/// candidate part counts it weighed, how many its counting pass ruled out
/// unbuilt, how many it had to build, whether the store took the winner
/// over, and the plan against the budget — in the metrics a
/// `--metrics-out` file carries, on the failing path too.
#[test]
fn build_phase_reports_what_the_planner_did() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    for (name, backend, dir) in backends("planrecord") {
        let resident = backend == StorageBackend::Resident;
        let cfg = |budget| PostmortemConfig {
            storage: backend.clone(),
            memory_budget: Some(budget),
            mode: ParallelMode::ApplicationLevel,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Partial,
            pr: tight_pr(),
            ..PostmortemConfig::default()
        };
        // Infeasible: the tally survives the typed error, and a budget
        // this small never needs a build to be refused.
        let tele = Telemetry::enabled();
        let required = match PostmortemEngine::with_telemetry(&log, spec, cfg(8), tele.clone()) {
            Err(EngineError::BudgetInfeasible { required, .. }) => required,
            Err(other) => panic!("{name}: unexpected error {other}"),
            Ok(_) => panic!("{name}: an 8-byte budget should be infeasible"),
        };
        let refused = tele.report();
        let candidates = refused.counter("storage.plan.candidates");
        assert!(candidates >= 2, "{name}: a ladder, not one probe");
        assert_eq!(
            refused.counter("storage.plan.rejected_by_bound"),
            candidates,
            "{name}"
        );
        assert_eq!(refused.counter("storage.plan.trial_builds"), 0, "{name}");
        assert_eq!(
            refused.gauge("storage.plan.budget_bytes"),
            Some(8.0),
            "{name}"
        );
        assert_eq!(refused.gauge("storage.plan.parts"), None, "{name}");
        // Feasible, on the edge: the record matches the engine built.
        let tele = Telemetry::enabled();
        let engine = PostmortemEngine::with_telemetry(&log, spec, cfg(required), tele.clone())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = tele.report();
        let builds = report.counter("storage.plan.trial_builds");
        let ruled_out = report.counter("storage.plan.rejected_by_bound");
        assert!(
            ruled_out + builds <= report.counter("storage.plan.candidates"),
            "{name}"
        );
        assert_eq!(builds == 0, resident, "{name}: {builds} trial builds");
        assert_eq!(
            report.counter("storage.plan.reused"),
            u64::from(!resident),
            "{name}"
        );
        assert_eq!(
            report.gauge("storage.plan.parts"),
            Some(engine.num_parts() as f64),
            "{name}"
        );
        assert_eq!(
            report.gauge("storage.plan.budget_bytes"),
            Some(required as f64),
            "{name}"
        );
        // At most the budget (the bisection may land on a count between
        // two ladder rungs that is cheaper than either).
        let footprint = report.gauge("storage.plan.footprint_bytes");
        assert!(
            footprint.is_some_and(|f| f > 0.0 && f <= required as f64),
            "{name}: {footprint:?}"
        );
        let json = report.to_json();
        for key in [
            "storage.plan.candidates",
            "storage.plan.reused",
            "storage.plan.parts",
        ] {
            assert!(
                json.contains(key),
                "{name}: {key} missing from the metrics JSON"
            );
        }
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The shard worker pool is a pure scheduling choice: for every backend ×
/// kernel × worker count, the pooled run's fingerprints are bit-identical
/// to a serial one-worker run over the same partition, and the measured
/// resident high-water mark stays within the budget the slot-charged
/// planner certified for that worker count.
#[test]
fn worker_pool_is_bit_identical_and_budget_bounded() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    let kernels = [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }];
    // Serial references keyed by (kernel, partition): the pool cold-starts
    // at part boundaries exactly like the serial walk, so the partition —
    // not the worker count — is what determines the ranks.
    let mut references: std::collections::HashMap<(usize, usize), Vec<u64>> =
        std::collections::HashMap::new();
    for (ki, kernel) in kernels.iter().enumerate() {
        for (name, backend, dir) in backends("workers") {
            for workers in [1usize, 2, 4] {
                // Each worker count gets its own minimal feasible budget:
                // more simultaneously-pinned slots charge more, so the
                // certified floor grows with the pool.
                let probe = PostmortemConfig {
                    storage: backend.clone(),
                    memory_budget: Some(1),
                    storage_workers: workers,
                    mode: ParallelMode::ApplicationLevel,
                    kernel: *kernel,
                    init_mode: InitMode::Partial,
                    pr: tight_pr(),
                    retain: RetainMode::Summary,
                    ..PostmortemConfig::default()
                };
                let required = match PostmortemEngine::new(&log, spec, probe.clone()) {
                    Err(EngineError::BudgetInfeasible { required, .. }) => required,
                    Err(other) => panic!("{name} w={workers}: probe: unexpected error {other}"),
                    Ok(_) => panic!("{name} w={workers}: a 1-byte budget should be infeasible"),
                };
                let cfg = PostmortemConfig {
                    memory_budget: Some(required),
                    ..probe
                };
                let tele = Telemetry::enabled();
                let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
                    .unwrap_or_else(|e| {
                        panic!("{name} w={workers}: build at budget {required}: {e}")
                    });
                let parts = engine.num_parts();
                let (planned, _) = engine.storage_worker_plan();
                assert!(
                    planned >= 1 && planned <= workers,
                    "{name} w={workers}: planned {planned}"
                );
                let out = engine.run();
                assert!(
                    out.windows.iter().all(|w| w.status == WindowStatus::Ok),
                    "{name} w={workers}: degraded windows"
                );
                let report = tele.report();
                if backend != StorageBackend::Resident {
                    let peak = report.gauge("storage.resident_bytes").unwrap_or(f64::NAN);
                    assert!(
                        peak <= required as f64,
                        "{name} w={workers}: peak resident {peak} exceeds budget {required}"
                    );
                }
                assert_eq!(
                    report.gauge("storage.workers"),
                    Some(planned as f64),
                    "{name} w={workers}"
                );
                let got = fingerprints(&out);
                let want = references.entry((ki, parts)).or_insert_with(|| {
                    let serial = PostmortemConfig {
                        num_multiwindows: parts,
                        mode: ParallelMode::ApplicationLevel,
                        kernel: *kernel,
                        init_mode: InitMode::Partial,
                        pr: tight_pr(),
                        retain: RetainMode::Summary,
                        ..PostmortemConfig::default()
                    };
                    fingerprints(&PostmortemEngine::new(&log, spec, serial).unwrap().run())
                });
                assert_eq!(
                    &got, want,
                    "{name} {:?} w={workers} parts={parts}: pooled ranks diverge from serial",
                    kernel
                );
            }
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }
}

/// The shard pool under a one-thread budget: each of two workers runs its
/// parts' row loops inside `threads: 1`, and the ranks are bit-identical
/// to the one-worker walk over the same partition.
#[test]
fn worker_pool_under_one_thread_is_bit_identical() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        let run = |workers: usize| {
            let cfg = PostmortemConfig {
                threads: 1,
                storage_workers: workers,
                num_multiwindows: 4,
                mode: ParallelMode::ApplicationLevel,
                kernel,
                init_mode: InitMode::Partial,
                pr: tight_pr(),
                retain: RetainMode::Summary,
                ..PostmortemConfig::default()
            };
            let tele = Telemetry::enabled();
            let out = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
                .unwrap()
                .run();
            assert!(out.windows.iter().all(|w| w.status == WindowStatus::Ok));
            assert_eq!(
                tele.report().gauge("storage.workers"),
                Some(workers as f64),
                "{kernel:?}"
            );
            fingerprints(&out)
        };
        assert_eq!(run(2), run(1), "{kernel:?}: two workers diverge from one");
    }
}

/// The out-of-core contract end to end: under a budget smaller than the
/// workload's uncompressed footprint, the compressed and on-disk backends
/// complete the run, evict shards along the way, and keep the measured
/// resident high-water mark within the budget.
#[test]
fn sharded_run_stays_within_budget() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    for (name, backend, dir) in backends("shard") {
        if backend == StorageBackend::Resident {
            continue;
        }
        // The minimal feasible budget for this backend (reported by the
        // typed error) is exactly the regime the planner certifies.
        let probe = PostmortemConfig {
            storage: backend.clone(),
            memory_budget: Some(1),
            mode: ParallelMode::ApplicationLevel,
            kernel: KernelKind::SpMV,
            init_mode: InitMode::Partial,
            pr: tight_pr(),
            retain: RetainMode::Summary,
            ..PostmortemConfig::default()
        };
        let required = match PostmortemEngine::new(&log, spec, probe.clone()) {
            Err(EngineError::BudgetInfeasible { required, .. }) => required,
            Err(other) => panic!("{name}: probe: unexpected error {other}"),
            Ok(_) => panic!("{name}: a 1-byte budget should be infeasible"),
        };
        let cfg = PostmortemConfig {
            memory_budget: Some(required),
            ..probe
        };
        let tele = Telemetry::enabled();
        let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
            .unwrap_or_else(|e| panic!("{name}: build at budget {required}: {e}"));
        let parts = engine.num_parts();
        assert!(parts >= 2, "{name}: want a multi-shard run, got {parts}");
        // Independent measurement of the uncompressed footprint at the
        // same partition: the workload genuinely does not fit resident.
        let uncompressed: usize =
            MultiWindowSet::build(&log, spec, parts, true, PartitionStrategy::EqualWindows)
                .unwrap()
                .graphs()
                .iter()
                .map(|g| g.storage_bytes())
                .sum();
        assert!(
            uncompressed > required,
            "{name}: uncompressed {uncompressed} fits the {required}-byte budget"
        );
        let out = engine.run();
        assert!(
            out.windows.iter().all(|w| w.status == WindowStatus::Ok),
            "{name}: degraded windows under budget"
        );
        let report = tele.report();
        let peak = report.gauge("storage.resident_bytes").unwrap_or(f64::NAN);
        assert!(
            peak <= required as f64,
            "{name}: peak resident {peak} exceeds budget {required}"
        );
        assert!(
            report.counter("storage.shards_evicted") > 0,
            "{name}: no shard was ever evicted"
        );
        assert_eq!(
            report.counter("storage.decodes"),
            parts as u64,
            "{name}: in-order walk should decode each shard exactly once"
        );
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// A log over the same 40 vertices as `dense_log` but with other edges, so
/// its spill file's bytes differ.
fn other_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..1500u32 {
        let u = (i * 13 + 5) % 40;
        let v = (i * 3 + 2) % 40;
        if u != v {
            events.push(Event::new(u, v, (i % 700) as i64));
        }
    }
    EventLog::from_unsorted(events, 40).unwrap()
}

/// The engine configuration of the spill-file tests, on `storage`.
fn spill_cfg(storage: StorageBackend) -> PostmortemConfig {
    PostmortemConfig {
        num_multiwindows: 3,
        mode: ParallelMode::ApplicationLevel,
        kernel: KernelKind::SpMV,
        init_mode: InitMode::Partial,
        pr: tight_pr(),
        storage,
        ..PostmortemConfig::default()
    }
}

fn assert_all_ok(out: &RunOutput, what: &str) {
    let bad: Vec<_> = out
        .windows
        .iter()
        .filter(|w| w.status != WindowStatus::Ok)
        .map(|w| (w.window, w.status.clone()))
        .collect();
    assert!(bad.is_empty(), "{what}: degraded windows {bad:?}");
}

/// Two engines built over one spill directory: the second build replaces
/// the `parts.tcsr` name, never the file the first engine pages from, so
/// the first engine's run after it is still bit-identical to resident.
#[test]
fn a_second_engine_over_the_same_spill_dir_leaves_the_first_alone() {
    let dir = scratch_dir("shared");
    let ondisk = || StorageBackend::OnDisk { dir: dir.clone() };
    let (log_a, log_b) = (dense_log(), other_log());
    let spec_a = WindowSpec::covering(&log_a, 120, 40).unwrap();
    let spec_b = WindowSpec::covering(&log_b, 90, 30).unwrap();
    let want_a = fingerprints(
        &PostmortemEngine::new(&log_a, spec_a, spill_cfg(StorageBackend::Resident))
            .unwrap()
            .run(),
    );
    let want_b = fingerprints(
        &PostmortemEngine::new(&log_b, spec_b, spill_cfg(StorageBackend::Resident))
            .unwrap()
            .run(),
    );
    let a = PostmortemEngine::new(&log_a, spec_a, spill_cfg(ondisk())).unwrap();
    let b = PostmortemEngine::new(&log_b, spec_b, spill_cfg(ondisk())).unwrap();
    let out_a = a.run();
    assert_all_ok(&out_a, "engine A");
    assert_eq!(
        fingerprints(&out_a),
        want_a,
        "engine A diverges from resident"
    );
    let out_b = b.run();
    assert_all_ok(&out_b, "engine B");
    assert_eq!(
        fingerprints(&out_b),
        want_b,
        "engine B diverges from resident"
    );
    // Both builds renamed their file into place; neither left a temp file.
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["parts.tcsr"], "spill dir after two builds");
    let _ = std::fs::remove_dir_all(&dir);
}

/// No engine reads a spill file it did not write: a `parts.tcsr` already
/// in the directory, whether garbage or another engine's file cut short
/// (what an unsynced crash can leave), does not change a single bit of
/// the run.
#[test]
fn an_ondisk_engine_never_reads_a_spill_file_it_did_not_write() {
    let log = dense_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    let want = fingerprints(
        &PostmortemEngine::new(&log, spec, spill_cfg(StorageBackend::Resident))
            .unwrap()
            .run(),
    );
    let other = scratch_dir("other");
    let other_spec = WindowSpec::covering(&other_log(), 90, 30).unwrap();
    drop(
        PostmortemEngine::new(
            &other_log(),
            other_spec,
            spill_cfg(StorageBackend::OnDisk { dir: other.clone() }),
        )
        .unwrap(),
    );
    let foreign = std::fs::read(other.join("parts.tcsr")).unwrap();
    let _ = std::fs::remove_dir_all(&other);
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let seeds = [
        ("garbage", garbage),
        ("torn", foreign[..foreign.len() * 2 / 3].to_vec()),
    ];
    for (name, bytes) in seeds {
        let dir = scratch_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("parts.tcsr"), &bytes).unwrap();
        let out = PostmortemEngine::new(
            &log,
            spec,
            spill_cfg(StorageBackend::OnDisk { dir: dir.clone() }),
        )
        .unwrap()
        .run();
        assert_all_ok(&out, name);
        assert_eq!(fingerprints(&out), want, "{name}: diverges from resident");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
