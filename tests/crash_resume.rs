//! Crash-fault injection and corruption-tolerant resume, end to end, for
//! all three drivers.
//!
//! The crash tests re-execute this test binary as a subprocess
//! (`crash_helper`, driven by `TEMPOPR_CRASH_*` env vars) with
//! `FaultPlan::crash_after_checkpoint` armed: the child aborts — a
//! deterministic `kill -9` — right after window *k*'s checkpoint record
//! becomes durable. The parent then resumes from the surviving manifest
//! in-process and requires the combined output to be *bit-identical*
//! (fingerprints compared as `f64::to_bits`) to an uninterrupted run of
//! the same configuration.
//!
//! The corruption tests damage a completed manifest in place (bit flips,
//! torn tails, stale version headers) and require recovery to fall back to
//! the longest valid prefix — never panicking, never producing different
//! ranks — or to refuse loudly when the header itself is unusable.

use std::path::{Path, PathBuf};
use tempopr::core::checkpoint::{CheckpointError, MANIFEST_NAME};
use tempopr::prelude::*;

fn test_log() -> EventLog {
    let mut events = Vec::new();
    for i in 0..500u32 {
        let u = (i * 11 + 1) % 26;
        let v = (i * 5 + 7) % 26;
        if u != v {
            events.push(Event::new(u, v, i as i64));
        }
    }
    EventLog::from_unsorted(events, 26).unwrap()
}

fn tight_pr() -> PrConfig {
    PrConfig {
        alpha: 0.15,
        tol: 1e-10,
        max_iters: 500,
        ..PrConfig::default()
    }
}

/// Runs one named driver configuration under the given checkpoint options.
/// The crash run and its resume must build configs through this single
/// function so their compatibility hashes agree.
fn run_case(
    case: &str,
    opts: &CheckpointOptions,
    crash_at: Option<usize>,
) -> Result<RunOutput, EngineError> {
    let log = test_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    assert!(
        spec.count >= 8,
        "workload too small: {} windows",
        spec.count
    );
    match case {
        "pm" | "pm_warm_pipe" | "pm_spmm_warm" => {
            let mut cfg = PostmortemConfig {
                num_multiwindows: 3,
                mode: ParallelMode::ApplicationLevel,
                kernel: KernelKind::SpMV,
                // Pinned, not resolved: "pm" is the crash/resume run under
                // partial init (this log's overlap would resolve to warm).
                init_mode: InitMode::Partial,
                pr: tight_pr(),
                ..PostmortemConfig::default()
            };
            match case {
                "pm_warm_pipe" => {
                    cfg.init_mode = InitMode::Warm;
                    cfg.pipeline = true;
                }
                "pm_spmm_warm" => {
                    cfg.mode = ParallelMode::Sequential;
                    cfg.kernel = KernelKind::SpMM { lanes: 4 };
                    cfg.init_mode = InitMode::Warm;
                }
                _ => {}
            }
            cfg.faults.crash_after_checkpoint = crash_at;
            let engine = PostmortemEngine::new(&log, spec, cfg)?;
            engine.run_durable(opts)
        }
        "offline" => {
            let mut cfg = OfflineConfig {
                pr: tight_pr(),
                ..OfflineConfig::default()
            };
            cfg.faults.crash_after_checkpoint = crash_at;
            run_offline_durable(&log, spec, &cfg, opts, &Telemetry::noop())
        }
        "streaming" => {
            // One injected non-convergence: the run carries a Failed
            // window and a cold restart, both of which must survive the
            // checkpoint round-trip.
            let mut cfg = StreamingConfig {
                pr: tight_pr(),
                faults: FaultPlan::single(1, FaultKind::ForceNonConvergence),
                ..StreamingConfig::default()
            };
            cfg.faults.crash_after_checkpoint = crash_at;
            run_streaming_durable(&log, spec, &cfg, opts, &Telemetry::noop())
        }
        other => panic!("unknown case {other}"),
    }
}

/// Re-executed entry point: runs a case with crash injection armed and
/// must die doing it. A no-op without the env vars (the normal test run).
#[test]
fn crash_helper() {
    let Ok(dir) = std::env::var("TEMPOPR_CRASH_DIR") else {
        return;
    };
    let case = std::env::var("TEMPOPR_CRASH_CASE").unwrap();
    let at: usize = std::env::var("TEMPOPR_CRASH_AT").unwrap().parse().unwrap();
    let every: usize = std::env::var("TEMPOPR_CRASH_EVERY")
        .unwrap()
        .parse()
        .unwrap();
    let opts = CheckpointOptions {
        dir: Some(PathBuf::from(dir)),
        every,
        resume: None,
    };
    let _ = run_case(&case, &opts, Some(at));
    unreachable!("crash injection at window {at} did not fire");
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempopr_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_crash(case: &str, dir: &Path, at: usize, every: usize) {
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["crash_helper", "--exact", "--nocapture"])
        .env("TEMPOPR_CRASH_DIR", dir)
        .env("TEMPOPR_CRASH_CASE", case)
        .env("TEMPOPR_CRASH_AT", at.to_string())
        .env("TEMPOPR_CRASH_EVERY", every.to_string())
        .status()
        .unwrap();
    assert!(
        !status.success(),
        "{case}: the crash-injected child exited cleanly"
    );
}

fn fingerprints(out: &RunOutput) -> Vec<u64> {
    out.windows
        .iter()
        .map(|w| w.fingerprint.to_bits())
        .collect()
}

fn assert_bit_identical(case: &str, baseline: &RunOutput, resumed: &RunOutput) {
    assert_eq!(
        fingerprints(baseline),
        fingerprints(resumed),
        "{case}: resumed fingerprints diverge from the uninterrupted run"
    );
    for (a, b) in baseline.windows.iter().zip(resumed.windows.iter()) {
        assert_eq!(a.window, b.window);
        assert_eq!(a.status, b.status, "{case}: window {} status", a.window);
        assert_eq!(a.ranks, b.ranks, "{case}: window {} ranks", a.window);
    }
    assert_eq!(baseline.degraded, resumed.degraded);
}

/// Kill at window `at`, resume, compare against uninterrupted — the core
/// acceptance loop, shared by the per-driver tests below.
fn crash_resume_roundtrip(case: &str, at: usize, every: usize) {
    let dir = tmp_dir(case);
    let baseline = run_case(case, &CheckpointOptions::default(), None).unwrap();
    spawn_crash(case, &dir, at, every);
    let manifest = dir.join(MANIFEST_NAME);
    assert!(
        std::fs::metadata(&manifest).unwrap().len() > 60,
        "{case}: no records survived the crash"
    );
    // Resume writing into the same directory (the realistic restart), so
    // the manifest is left complete for the second, skip-everything pass.
    let resumed = run_case(
        case,
        &CheckpointOptions {
            dir: Some(dir.clone()),
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap();
    assert_bit_identical(case, &baseline, &resumed);
    // Resuming the now-complete manifest recomputes nothing and must still
    // reproduce the run record-for-record.
    let restored = run_case(
        case,
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap();
    assert_bit_identical(case, &baseline, &restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn postmortem_crash_resume_is_bit_identical() {
    crash_resume_roundtrip("pm", 2, 1);
}

#[test]
fn postmortem_warm_pipelined_crash_resume_is_bit_identical() {
    crash_resume_roundtrip("pm_warm_pipe", 3, 1);
}

#[test]
fn postmortem_spmm_resume_clips_to_part_boundary() {
    // Window 4 sits mid-part (3 parts over >= 8 windows): resume must clip
    // the prefix down to the part boundary and recompute the partial part
    // whole, still bit-identically.
    crash_resume_roundtrip("pm_spmm_warm", 4, 1);
}

#[test]
fn offline_crash_resume_is_bit_identical_batched() {
    // every=8 exercises the batched flush: the crash loses the buffered
    // tail beyond the forced flush, and resume recomputes it.
    crash_resume_roundtrip("offline", 3, 8);
}

#[test]
fn streaming_crash_resume_replays_store_and_failure_chain() {
    // Crash two windows after the injected failure: the resumed run must
    // reproduce the Failed window, the cold restart, and the warm-start
    // chain from the store replay alone.
    crash_resume_roundtrip("streaming", 3, 1);
}

/// Writes a complete manifest for `case` and returns (dir, baseline).
fn completed_manifest(case: &str, name: &str) -> (PathBuf, RunOutput) {
    let dir = tmp_dir(name);
    let baseline = run_case(
        case,
        &CheckpointOptions {
            dir: Some(dir.clone()),
            every: 1,
            resume: None,
        },
        None,
    )
    .unwrap();
    (dir, baseline)
}

#[test]
fn bit_flip_in_records_falls_back_to_valid_prefix() {
    let (dir, baseline) = completed_manifest("offline", "bitflip");
    let len = std::fs::metadata(dir.join(MANIFEST_NAME)).unwrap().len() as usize;
    // Flip a bit inside the last record's payload: the CRC walk must
    // discard that record (and only resume the shorter prefix).
    corrupt_manifest(&dir, CorruptionKind::BitFlip { offset: len - 9 }).unwrap();
    let resumed = run_case(
        "offline",
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap();
    assert_bit_identical("bitflip", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_falls_back_to_valid_prefix() {
    let (dir, baseline) = completed_manifest("streaming", "torn");
    let len = std::fs::metadata(dir.join(MANIFEST_NAME)).unwrap().len() as usize;
    corrupt_manifest(&dir, CorruptionKind::Truncate { len: len - 5 }).unwrap();
    let resumed = run_case(
        "streaming",
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap();
    assert_bit_identical("torn", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_header_is_refused_as_incompatible() {
    let (dir, _) = completed_manifest("pm", "stale");
    corrupt_manifest(&dir, CorruptionKind::StaleVersion).unwrap();
    let err = run_case(
        "pm",
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Checkpoint(CheckpointError::Incompatible(_))
        ),
        "expected Incompatible, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_header_is_refused_not_resumed() {
    let (dir, _) = completed_manifest("pm", "hdrflip");
    // Offset 10 lands in the header's config-hash field: the header CRC
    // must reject the whole manifest (no torn-tail tolerance there).
    corrupt_manifest(&dir, CorruptionKind::BitFlip { offset: 10 }).unwrap();
    let err = run_case(
        "pm",
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::Checkpoint(CheckpointError::Corrupt(_))),
        "expected Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_driver_manifest_is_incompatible() {
    // A manifest written by the offline driver must not seed a streaming
    // resume: the identity check names the driver field.
    let (dir, _) = completed_manifest("offline", "crossdriver");
    let err = run_case(
        "streaming",
        &CheckpointOptions {
            dir: None,
            every: 1,
            resume: Some(dir.clone()),
        },
        None,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Checkpoint(CheckpointError::Incompatible(_))
        ),
        "expected Incompatible, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
