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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tempopr::core::checkpoint::{
    crc32, CheckpointError, CheckpointRecord, DurableRun, ManifestHeader, MANIFEST_NAME,
};
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
        "pm" | "pm_pipe" | "pm_spmm" | "pm_ondisk" => {
            let mut cfg = PostmortemConfig {
                num_multiwindows: 3,
                mode: ParallelMode::ApplicationLevel,
                kernel: KernelKind::SpMV,
                // Pinned, not resolved: every case is a crash/resume run
                // under partial init.
                init_mode: InitMode::Partial,
                pr: tight_pr(),
                ..PostmortemConfig::default()
            };
            match case {
                "pm_pipe" => cfg.pipeline = true,
                "pm_spmm" => {
                    cfg.mode = ParallelMode::Sequential;
                    cfg.kernel = KernelKind::SpMM { lanes: 4 };
                }
                "pm_ondisk" => {
                    // Spills beside the manifest, so the crashed run and
                    // its resumes share one spill directory. The
                    // uninterrupted run has no directory and stays
                    // resident: the config hash masks the storage choice.
                    if let Some(dir) = opts.resume.as_ref().or(opts.dir.as_ref()) {
                        cfg.storage = StorageBackend::OnDisk {
                            dir: dir.join("spill"),
                        };
                    }
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
fn postmortem_pipelined_crash_resume_is_bit_identical() {
    crash_resume_roundtrip("pm_pipe", 3, 1);
}

#[test]
fn postmortem_spmm_resume_clips_to_part_boundary() {
    // Window 4 sits mid-part (3 parts over >= 8 windows): resume must clip
    // the prefix down to the part boundary and recompute the partial part
    // whole, still bit-identically.
    crash_resume_roundtrip("pm_spmm", 4, 1);
}

#[test]
fn postmortem_ondisk_crash_resume_rebuilds_its_own_spill_file() {
    // The crashed process left a spill file behind; the resumed process
    // builds over the same spill directory and pages only from the file it
    // wrote itself.
    crash_resume_roundtrip("pm_ondisk", 2, 1);
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

// ---------------------------------------------------------------------------
// The manifest bytes, pinned, and every bit flip and cut of them
// ---------------------------------------------------------------------------

const DRIVERS: [&str; 3] = ["postmortem", "offline", "streaming"];

/// Length and CRC32 of each driver's manifest for [`run_small`]: a change
/// to the record layout, the header, the flush order or the ranks shows
/// here, in a test that reads bytes rather than round-tripping them.
const MANIFEST_PINS: [(&str, usize, u32); 3] = [
    ("postmortem", 711, 0x66F6_037F),
    ("offline", 711, 0x74B1_7008),
    ("streaming", 716, 0x83F5_6D9F),
];

/// The header CRC (bytes 56..60) of each driver's small manifest. The
/// whole-file CRC above cannot see the header: a CRC run over a message
/// followed by that message's own CRC always ends in the same state, so
/// every byte before 60 cancels out of it. This pin covers the format
/// version, driver id, config hash, log fingerprint and window spec.
const HEADER_CRC_PINS: [(&str, u32); 3] = [
    ("postmortem", 0xAE5D_73F1),
    ("offline", 0xE964_0E23),
    ("streaming", 0x5EC7_3EE3),
];

/// Six vertices, 75 time steps, five windows: small enough to damage
/// every bit of the manifest.
fn small_log() -> EventLog {
    let events = (0..75u32)
        .map(|i| ((i * 5 + 1) % 6, (i * i + 3) % 6, i))
        .filter(|(u, v, _)| u != v)
        .map(|(u, v, t)| Event::new(u, v, t as i64))
        .collect();
    EventLog::from_unsorted(events, 6).unwrap()
}

/// A kernel panic fails window 1; forced non-convergence at window 3 is
/// rescued by the recovery ladder; every other window is `Ok`.
fn small_faults() -> FaultPlan {
    FaultPlan {
        faults: vec![
            WindowFault {
                window: 1,
                fault: FaultKind::PanicInKernel,
            },
            WindowFault {
                window: 3,
                fault: FaultKind::ForceNonConvergence,
            },
        ],
        ..FaultPlan::default()
    }
}

/// One single-threaded durable pass of `driver` over [`small_log`].
fn run_small(
    driver: &str,
    opts: &CheckpointOptions,
    tele: &Telemetry,
) -> Result<RunOutput, EngineError> {
    let log = small_log();
    let spec = WindowSpec::covering(&log, 30, 15).unwrap();
    match driver {
        "postmortem" => {
            let cfg = PostmortemConfig {
                num_multiwindows: 2,
                mode: ParallelMode::Sequential,
                kernel: KernelKind::SpMV,
                init_mode: InitMode::Partial,
                threads: 1,
                pr: tight_pr(),
                faults: small_faults(),
                ..PostmortemConfig::default()
            };
            PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())?.run_durable(opts)
        }
        "offline" => {
            let cfg = OfflineConfig {
                threads: 1,
                pr: tight_pr(),
                faults: small_faults(),
                recovery: RecoveryPolicy::ladder(),
                ..OfflineConfig::default()
            };
            run_offline_durable(&log, spec, &cfg, opts, tele)
        }
        "streaming" => {
            let cfg = StreamingConfig {
                threads: 1,
                pr: tight_pr(),
                faults: small_faults(),
                recovery: RecoveryPolicy::ladder(),
                ..StreamingConfig::default()
            };
            run_streaming_durable(&log, spec, &cfg, opts, tele)
        }
        other => panic!("unknown driver {other}"),
    }
}

/// Writes `driver`'s small manifest into a fresh directory and returns
/// the directory, the manifest bytes and the run that wrote them.
fn small_manifest(driver: &str, name: &str) -> (PathBuf, Vec<u8>, RunOutput) {
    let dir = tmp_dir(name);
    let opts = CheckpointOptions {
        dir: Some(dir.clone()),
        every: 1,
        resume: None,
    };
    let out = run_small(driver, &opts, &Telemetry::noop()).unwrap();
    let statuses: Vec<&WindowStatus> = out.windows.iter().map(|w| &w.status).collect();
    let pattern = statuses.iter().enumerate().all(|(w, s)| match w {
        1 => matches!(s, WindowStatus::Failed { .. }),
        3 => matches!(s, WindowStatus::Recovered { .. }),
        _ => **s == WindowStatus::Ok,
    });
    assert!(pattern, "{driver}: statuses {statuses:?}");
    let bytes = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    (dir, bytes, out)
}

#[test]
fn small_manifests_are_byte_pinned() {
    for (driver, len, crc) in MANIFEST_PINS {
        let (dir, bytes, _) = small_manifest(driver, &format!("pin_{driver}"));
        assert_eq!(
            (bytes.len(), crc32(&bytes)),
            (len, crc),
            "{driver}: manifest bytes moved"
        );
        let header_crc = HEADER_CRC_PINS.iter().find(|p| p.0 == driver).unwrap().1;
        assert_eq!(crc32(&bytes[..56]), header_crc, "{driver}: header moved");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The identity a resume of `bytes` is checked against: the undamaged
/// header's own fields (60 bytes; `tempopr.ckpt.v2`).
fn header_of(bytes: &[u8]) -> ManifestHeader {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    ManifestHeader {
        driver: bytes[6],
        config_hash: word(8),
        log_fingerprint: word(16),
        t0: word(24) as i64,
        delta: word(32) as i64,
        sw: word(40) as i64,
        count: word(48),
    }
}

/// The offset one past each record frame (`payload_len u32 | crc u32 |
/// payload`) of an undamaged manifest.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 60;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        ends.push(at);
    }
    assert_eq!(at, bytes.len(), "records do not tile the manifest");
    ends
}

/// Every single-bit flip and every truncation of each driver's small
/// manifest. Damage to the 60-byte header is refused with a typed error
/// (`Incompatible` for the version field, which is read before the
/// checksum; `Corrupt` everywhere else); damage to record `r` resumes
/// from the `r` records before it, counts one discard (none when a cut
/// falls exactly between records) and reproduces the undamaged run's
/// bits. Every case is read by `resume_scan`, and every header case and
/// every distinct record outcome also resumes through the driver.
#[test]
fn every_bit_flip_and_truncation_of_a_small_manifest_is_handled() {
    std::thread::scope(|s| {
        for driver in DRIVERS {
            s.spawn(move || mutate_small_manifest(driver));
        }
    });
}

fn mutate_small_manifest(driver: &str) {
    let (dir, pristine, baseline) = small_manifest(driver, &format!("mutate_{driver}"));
    let path = dir.join(MANIFEST_NAME);
    let expect = header_of(&pristine);
    let ends = record_ends(&pristine);
    let resume_only = CheckpointOptions {
        dir: None,
        every: 1,
        resume: Some(dir.clone()),
    };
    let flips = (0..pristine.len() * 8).map(|i| {
        let mut bytes = pristine.clone();
        bytes[i / 8] ^= 1 << (i % 8);
        (
            format!("flip byte {} bit {}", i / 8, i % 8),
            bytes,
            Some(i / 8),
        )
    });
    let cuts =
        (0..pristine.len()).map(|len| (format!("cut at {len}"), pristine[..len].to_vec(), None));
    // (records kept, discards) -> one damaged manifest giving it.
    let mut outcomes: BTreeMap<(usize, u64), Vec<u8>> = BTreeMap::new();
    for (what, bytes, flipped) in flips.chain(cuts) {
        std::fs::write(&path, &bytes).unwrap();
        let damaged_at = flipped.unwrap_or(bytes.len());
        if damaged_at < 60 {
            let version_field = flipped.is_some_and(|off| (4..6).contains(&off));
            let err = run_small(driver, &resume_only, &Telemetry::noop()).unwrap_err();
            let typed = match err {
                EngineError::Checkpoint(CheckpointError::Incompatible(_)) => version_field,
                EngineError::Checkpoint(CheckpointError::Corrupt(_)) => !version_field,
                _ => false,
            };
            assert!(typed, "{driver}, {what}: refused with {err:?}");
            continue;
        }
        let scan = resume_scan(&dir, &expect).unwrap();
        let kept = ends.iter().filter(|&&e| e <= damaged_at).count();
        let torn = flipped.is_some() || !(damaged_at == 60 || ends.contains(&damaged_at));
        assert_eq!(
            (scan.records.len(), scan.corrupt_discarded),
            (kept, u64::from(torn)),
            "{driver}, {what}: resumable prefix"
        );
        assert!(kept < ends.len(), "{driver}, {what}: prefix not shorter");
        outcomes.entry((kept, u64::from(torn))).or_insert(bytes);
    }
    for ((kept, discarded), bytes) in outcomes {
        std::fs::write(&path, &bytes).unwrap();
        let tele = Telemetry::enabled();
        let resumed = run_small(driver, &resume_only, &tele).unwrap();
        let case = format!("{driver}, {kept} records kept");
        assert_bit_identical(&case, &baseline, &resumed);
        let report = tele.report();
        assert_eq!(
            report.counter("checkpoint.resume_skipped"),
            kept as u64,
            "{case}"
        );
        assert_eq!(
            report.counter("checkpoint.corrupt_discarded"),
            discarded,
            "{case}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The drainer: a panicking compute, and group commit moving no byte
// ---------------------------------------------------------------------------

/// A driver's compute that offers windows 0..3 out of order and then
/// panics: the panic reaches the caller with its own payload, nothing
/// hangs (a watchdog bounds the wait), and the manifest is byte for byte
/// the pinned offline manifest's first three records.
#[test]
fn a_panicking_compute_resurfaces_and_keeps_a_durable_prefix() {
    let (pinned_dir, pristine, out) = small_manifest("offline", "panic_pinned");
    let _ = std::fs::remove_dir_all(&pinned_dir);
    let header = header_of(&pristine);
    let records: Vec<CheckpointRecord> = out
        .windows
        .iter()
        .map(|w| CheckpointRecord {
            window: w.window,
            status: w.status.clone(),
            attempts: w.attempts,
            stats: w.stats,
            fingerprint: w.fingerprint,
            ranks: w.ranks.clone().unwrap(),
        })
        .collect();
    let dir = tmp_dir("panic_compute");
    let opts = CheckpointOptions {
        dir: Some(dir.clone()),
        every: 1,
        resume: None,
    };
    let log = small_log();
    let spec = WindowSpec::covering(&log, 30, 15).unwrap();
    let identity = || (header.config_hash, header.log_fingerprint);
    let tele = Telemetry::noop();
    let durable = DurableRun::open(&opts, header.driver, &spec, identity, Ok, None, &tele).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            durable.run(RetainMode::Full, |durable| {
                let sink = durable.sink().unwrap();
                for w in [2, 0, 1] {
                    sink.offer(&records[w]);
                }
                std::panic::panic_any("compute failed at window 3")
            })
        }));
        let payload = caught.err().and_then(|p| p.downcast::<&str>().ok());
        let _ = tx.send(payload.map(|p| *p));
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the drainer hung the run");
    assert_eq!(payload, Some("compute failed at window 3"));
    let bytes = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    assert_eq!(bytes, pristine[..record_ends(&pristine)[2]]);
    assert_eq!(resume_scan(&dir, &header).unwrap().records.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit moves no byte. Under full init the manifest's records are
/// equal across SpMV / SpMM{4} × `Sequential` / `WindowLevel` × threads
/// {1, 2} — the window-level modes finish windows out of order — and the
/// whole manifest across `every` {1, 3, 8}. Every window is
/// written once, and the drainer's data syncs are at least one and at
/// most one per hand-over of `every` records.
#[test]
fn manifest_bytes_do_not_depend_on_sync_batching_or_completion_order() {
    let log = test_log();
    let spec = WindowSpec::covering(&log, 120, 40).unwrap();
    let mut reference: Option<Vec<u8>> = None;
    for kernel in [KernelKind::SpMV, KernelKind::SpMM { lanes: 4 }] {
        for mode in [ParallelMode::Sequential, ParallelMode::WindowLevel] {
            for threads in [1, 2] {
                let cfg = PostmortemConfig {
                    num_multiwindows: 3,
                    mode,
                    kernel,
                    init_mode: InitMode::Full,
                    threads,
                    pr: tight_pr(),
                    ..PostmortemConfig::default()
                };
                let mut whole: Option<Vec<u8>> = None;
                for every in [1, 3, 8] {
                    let case = format!("{kernel:?} {mode:?} threads {threads} every {every}");
                    let dir = tmp_dir("group_commit");
                    let tele = Telemetry::enabled();
                    PostmortemEngine::with_telemetry(&log, spec, cfg.clone(), tele.clone())
                        .unwrap()
                        .run_durable(&CheckpointOptions {
                            dir: Some(dir.clone()),
                            every,
                            resume: None,
                        })
                        .unwrap();
                    let bytes = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
                    let _ = std::fs::remove_dir_all(&dir);
                    let report = tele.report();
                    let writes = report.counter("checkpoint.writes");
                    let syncs = report.counter("checkpoint.syncs");
                    assert_eq!(writes, spec.count as u64, "{case}: records written");
                    assert!(
                        (1..=writes.div_ceil(every as u64)).contains(&syncs),
                        "{case}: {syncs} syncs for {writes} records"
                    );
                    assert_eq!(record_ends(&bytes).len(), spec.count, "{case}");
                    match &whole {
                        Some(w) => assert_eq!(&bytes, w, "{case}: manifest moved"),
                        None => whole = Some(bytes.clone()),
                    }
                    match &reference {
                        Some(r) => assert_eq!(&bytes[60..], &r[..], "{case}: records moved"),
                        None => reference = Some(bytes[60..].to_vec()),
                    }
                }
            }
        }
    }
}
