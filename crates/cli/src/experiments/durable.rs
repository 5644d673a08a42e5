//! `tempopr run` — the durable window runner: execute any of the three
//! drivers over a synthetic workload with checkpoint/resume
//! ([`tempopr_core::checkpoint`]), crash injection for testing, and an
//! exit code that distinguishes clean, degraded-but-recovered, and failed
//! runs.
//!
//! This is the harness the `crash-resume` CI job drives: kill a run at
//! window *k* (`--crash-at`), resume it (`--resume`), and diff the printed
//! per-window fingerprints against an uninterrupted run.

use crate::common::{fail, parse_dataset, pr_config, workload, Opts};
use tempopr_core::{
    CheckpointOptions, OfflineConfig, PostmortemConfig, PostmortemEngine, RecoveryPolicy,
    RetainMode, RunOutput, StorageBackend, WindowStatus,
};
use tempopr_datagen::{Dataset, DAY};
use tempopr_stream::{run_streaming_durable, StreamingConfig};
use tempopr_telemetry::Telemetry;

/// Which execution model `tempopr run` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Driver {
    /// The postmortem engine (in-order bare-bone configuration, so resume
    /// is supported).
    #[default]
    Postmortem,
    /// The offline rebuild-per-window baseline.
    Offline,
    /// The streaming store-replay baseline.
    Streaming,
}

impl Driver {
    /// Parses a `--driver` value.
    pub fn parse(s: &str) -> Option<Driver> {
        Some(match s {
            "postmortem" => Driver::Postmortem,
            "offline" => Driver::Offline,
            "streaming" => Driver::Streaming,
            _ => return None,
        })
    }
}

/// Which part-storage backend `--storage` selects. The on-disk choice
/// resolves its spill directory at run time (a per-process temp dir,
/// removed after the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageChoice {
    /// Fully resident arrays (the default).
    #[default]
    Resident,
    /// Delta-varint compressed parts, decode-on-touch.
    Compressed,
    /// Parts paged in from a `tempopr.tcsr.v1` file.
    OnDisk,
}

impl StorageChoice {
    /// Parses a `--storage` value.
    pub fn parse(s: &str) -> Option<StorageChoice> {
        Some(match s {
            "resident" => StorageChoice::Resident,
            "compressed" => StorageChoice::Compressed,
            "ondisk" => StorageChoice::OnDisk,
            _ => return None,
        })
    }
}

/// Durability/recovery arguments of `tempopr run` (parsed in `main`).
#[derive(Debug, Clone, Default)]
pub struct DurableArgs {
    /// Execution model to run.
    pub driver: Driver,
    /// Checkpoint directory to write (`--checkpoint-dir`).
    pub checkpoint_dir: Option<String>,
    /// Records per hand-over to the checkpoint drainer, so at most one
    /// sync per that many windows (`--checkpoint-every`, default 1).
    pub checkpoint_every: usize,
    /// Checkpoint directory to resume from (`--resume`).
    pub resume: Option<String>,
    /// Recovery rungs: `Some(true)` = full ladder, `Some(false)` =
    /// fail-only, `None` = the driver's default.
    pub recovery_ladder: Option<bool>,
    /// Abort the process after window k's record is durable
    /// (`--crash-at`; testing).
    pub crash_at: Option<usize>,
    /// Part-storage backend (`--storage`; postmortem driver only).
    pub storage: StorageChoice,
    /// Resident-memory budget in bytes (`--memory-budget`; postmortem
    /// driver only — overrides the part count).
    pub memory_budget: Option<usize>,
    /// Shard workers over independent parts (`--storage-workers`;
    /// postmortem driver only — 1 = serial walk, 0 = one per core).
    pub storage_workers: Option<usize>,
}

/// Process exit code for a completed run: 0 clean, 3 degraded but every
/// window recovered, 4 at least one window failed.
pub fn exit_code(out: &RunOutput) -> i32 {
    let mut code = 0;
    for w in &out.windows {
        match w.status {
            WindowStatus::Ok => {}
            WindowStatus::Recovered { .. } => code = code.max(3),
            WindowStatus::Failed { .. } => code = code.max(4),
        }
    }
    code
}

/// Runs one driver durably and exits with [`exit_code`].
pub fn run(opts: &Opts, dataset: Option<&str>, args: &DurableArgs, sw_days: i64, delta_days: i64) {
    let ds = match dataset {
        Some(name) => {
            parse_dataset(name).unwrap_or_else(|| fail(format!("unknown dataset '{name}'")))
        }
        None => Dataset::Enron,
    };
    let (log, spec) = workload(ds, sw_days * DAY, delta_days * DAY, opts);
    let ckpt = CheckpointOptions {
        dir: args.checkpoint_dir.clone().map(Into::into),
        every: args.checkpoint_every.max(1),
        resume: args.resume.clone().map(Into::into),
    };
    let tele = if opts.metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::noop()
    };
    if args.driver != Driver::Postmortem
        && (args.storage != StorageChoice::Resident
            || args.memory_budget.is_some()
            || args.storage_workers.is_some())
    {
        fail("--storage / --memory-budget / --storage-workers apply to the postmortem driver only");
    }
    // The on-disk backend spills into a per-process temp dir, removed once
    // the run's output has been printed.
    let spill_dir = std::env::temp_dir().join(format!("tempopr_tcsr_{}", std::process::id()));
    let out = match args.driver {
        Driver::Postmortem => {
            let mut cfg = PostmortemConfig::bare_bone();
            cfg.retain = RetainMode::Summary;
            cfg.threads = opts.threads;
            cfg.pr = pr_config();
            cfg.pr.simd = opts.simd;
            cfg.pr.compaction = opts.compaction;
            cfg.pipeline = opts.pipeline;
            cfg.storage = match args.storage {
                StorageChoice::Resident => StorageBackend::Resident,
                StorageChoice::Compressed => StorageBackend::Compressed,
                StorageChoice::OnDisk => StorageBackend::OnDisk {
                    dir: spill_dir.clone(),
                },
            };
            cfg.memory_budget = args.memory_budget;
            if let Some(workers) = args.storage_workers {
                cfg.storage_workers = workers;
            }
            if let Some(init_mode) = opts.init_mode {
                cfg.init_mode = init_mode;
            }
            if let Some(ladder) = args.recovery_ladder {
                cfg.recovery = recovery(ladder);
            }
            cfg.faults.crash_after_checkpoint = args.crash_at;
            let engine = PostmortemEngine::with_telemetry(&log, spec, cfg, tele.clone())
                .unwrap_or_else(|e| fail(format!("engine build: {e}")));
            if let (workers, Some(cap)) = engine.storage_worker_plan() {
                if args.storage_workers.is_some_and(|w| w != 1) {
                    eprintln!("warning: shard workers capped at {workers}: {cap}");
                }
            }
            engine
                .run_durable(&ckpt)
                .unwrap_or_else(|e| fail(format!("postmortem run: {e}")))
        }
        Driver::Offline => {
            let mut cfg = OfflineConfig {
                pr: pr_config(),
                retain: RetainMode::Summary,
                threads: opts.threads,
                ..Default::default()
            };
            if let Some(ladder) = args.recovery_ladder {
                cfg.recovery = recovery(ladder);
            }
            cfg.faults.crash_after_checkpoint = args.crash_at;
            tempopr_core::run_offline_durable(&log, spec, &cfg, &ckpt, &tele)
                .unwrap_or_else(|e| fail(format!("offline run: {e}")))
        }
        Driver::Streaming => {
            let mut cfg = StreamingConfig {
                pr: pr_config(),
                retain: RetainMode::Summary,
                threads: opts.threads,
                ..Default::default()
            };
            if let Some(ladder) = args.recovery_ladder {
                cfg.recovery = recovery(ladder);
            }
            cfg.faults.crash_after_checkpoint = args.crash_at;
            run_streaming_durable(&log, spec, &cfg, &ckpt, &tele)
                .unwrap_or_else(|e| fail(format!("streaming run: {e}")))
        }
    };
    println!(
        "# run: driver={:?} dataset={} windows={} storage={:?} budget={} workers={} resumed_from={}",
        args.driver,
        ds.name(),
        spec.count,
        args.storage,
        args.memory_budget.map_or("-".into(), |b| b.to_string()),
        args.storage_workers.map_or("-".into(), |w| w.to_string()),
        args.resume.as_deref().unwrap_or("-"),
    );
    println!("{:>8} {:>10} {:>18}", "window", "status", "fingerprint");
    for w in &out.windows {
        let status = match &w.status {
            WindowStatus::Ok => "ok",
            WindowStatus::Recovered { .. } => "recovered",
            WindowStatus::Failed { .. } => "failed",
        };
        println!(
            "{:>8} {:>10} {:>18}",
            w.window,
            status,
            format!("{:016x}", w.fingerprint.to_bits())
        );
    }
    if let Some(path) = &opts.metrics_out {
        crate::common::write_metrics(path, &tele);
    }
    if args.storage == StorageChoice::OnDisk {
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
    std::process::exit(exit_code(&out));
}

/// Maps the `--recovery` choice onto a policy.
fn recovery(ladder: bool) -> RecoveryPolicy {
    if ladder {
        RecoveryPolicy::ladder()
    } else {
        RecoveryPolicy::fail_only()
    }
}
