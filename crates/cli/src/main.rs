//! `tempopr` — experiment harness regenerating every table and figure of
//! Hossain & Saule, *Postmortem Computation of Pagerank on Temporal
//! Graphs* (ICPP '22).
//!
//! ```text
//! tempopr <experiment> [--scale F] [--seed N] [--threads N]
//!                      [--max-windows N] [--dataset NAME]
//!
//! experiments:
//!   table1   dataset inventory and parameter grids
//!   fig4     temporal edge distribution
//!   fig5     offline vs streaming vs postmortem
//!   fig6     partial-initialization speedup
//!   fig7     partitioner/granularity sweep (256 windows)
//!   fig8     multi-window count sweep
//!   fig9     partitioner/granularity sweep (6 windows)
//!   fig10    partitioner/granularity sweep (1024 windows)
//!   fig11    best speedup heatmaps, all datasets
//!   fig12    suggested parameters on wiki-talk
//!   batch-query  N personalized queries batched vs looped single-query
//!   all      every paper figure above, in order
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod common;
mod experiments;

use common::Opts;
use experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_help();
        return;
    }
    let cmd = args[0].clone();
    if cmd == "convert" {
        let lenient = args[1..].iter().any(|a| a == "--lenient");
        let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
        if paths.len() != 2 || args.len() - 1 != paths.len() + usize::from(lenient) {
            eprintln!("usage: tempopr convert <input> <output> [--lenient]");
            std::process::exit(2);
        }
        tools::convert(paths[0], paths[1], lenient);
        return;
    }
    let (opts, dataset, extra) = match parse_flags(&args[1..]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    run_experiment(&cmd, &opts, dataset.as_deref(), &extra);
}

/// Flags specific to the tool subcommands.
struct ToolFlags {
    delta_days: i64,
    sw_days: i64,
    top: usize,
    lenient: bool,
    durable: durable::DurableArgs,
}

impl Default for ToolFlags {
    fn default() -> Self {
        ToolFlags {
            delta_days: 90,
            sw_days: 30,
            top: 3,
            lenient: false,
            durable: durable::DurableArgs {
                checkpoint_every: 1,
                ..Default::default()
            },
        }
    }
}

fn run_experiment(cmd: &str, opts: &Opts, dataset: Option<&str>, extra: &ToolFlags) {
    match cmd {
        "table1" => table1::run(opts),
        "fig4" => fig4::run(opts, dataset),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => sweep::run(sweep::fig7(), opts),
        "fig8" => fig8::run(opts),
        "fig9" => sweep::run(sweep::fig9(), opts),
        "fig10" => sweep::run(sweep::fig10(), opts),
        "fig11" => fig11::run(opts, dataset),
        "fig12" => fig12::run(opts),
        "batch-query" => batchquery::run(opts),
        "run" => durable::run(
            opts,
            dataset,
            &extra.durable,
            extra.sw_days,
            extra.delta_days,
        ),
        "pagerank" => {
            let src = dataset.unwrap_or("wikitalk");
            tools::pagerank(
                src,
                extra.delta_days,
                extra.sw_days,
                extra.top,
                extra.lenient,
                opts,
            );
        }
        "all" => {
            for c in [
                "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            ] {
                run_experiment(c, opts, dataset, extra);
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            print_help();
            std::process::exit(2);
        }
    }
}

fn parse_flags(args: &[String]) -> Result<(Opts, Option<String>, ToolFlags), String> {
    let mut opts = Opts::default();
    let mut dataset = None;
    let mut extra = ToolFlags::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--scale" => {
                opts.scale = value(i)?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                i += 2;
            }
            "--seed" => {
                opts.seed = value(i)?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                i += 2;
            }
            "--threads" => {
                opts.threads = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                i += 2;
            }
            "--max-windows" => {
                opts.max_windows = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --max-windows: {e}"))?;
                i += 2;
            }
            "--dataset" | "--source" => {
                dataset = Some(value(i)?.clone());
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(value(i)?.clone());
                i += 2;
            }
            "--delta-days" => {
                extra.delta_days = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --delta-days: {e}"))?;
                i += 2;
            }
            "--sw-days" => {
                extra.sw_days = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --sw-days: {e}"))?;
                i += 2;
            }
            "--top" => {
                extra.top = value(i)?.parse().map_err(|e| format!("bad --top: {e}"))?;
                i += 2;
            }
            "--lenient" => {
                extra.lenient = true;
                i += 1;
            }
            "--pipeline" => {
                opts.pipeline = true;
                i += 1;
            }
            "--simd" => {
                opts.simd = match value(i)?.as_str() {
                    "auto" => tempopr_kernel::SimdPolicy::Auto,
                    "scalar" => tempopr_kernel::SimdPolicy::Scalar,
                    "bitwalk" => tempopr_kernel::SimdPolicy::BitWalk,
                    other => return Err(format!("bad --simd '{other}' (auto|scalar|bitwalk)")),
                };
                i += 2;
            }
            "--no-compaction" => {
                opts.compaction = false;
                i += 1;
            }
            "--init-mode" => {
                opts.init_mode = Some(match value(i)?.as_str() {
                    "full" => tempopr_core::InitMode::Full,
                    "partial" => tempopr_core::InitMode::Partial,
                    "auto" => tempopr_core::InitMode::Auto,
                    other => return Err(format!("bad --init-mode '{other}' (full|partial|auto)")),
                });
                i += 2;
            }
            "--edge-balance" => {
                opts.edge_balance = true;
                i += 1;
            }
            "--driver" => {
                extra.durable.driver = durable::Driver::parse(value(i)?)
                    .ok_or_else(|| "bad --driver (postmortem|offline|streaming)".to_string())?;
                i += 2;
            }
            "--checkpoint-dir" => {
                extra.durable.checkpoint_dir = Some(value(i)?.clone());
                i += 2;
            }
            "--checkpoint-every" => {
                extra.durable.checkpoint_every = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                i += 2;
            }
            "--resume" => {
                extra.durable.resume = Some(value(i)?.clone());
                i += 2;
            }
            "--recovery" => {
                extra.durable.recovery_ladder = Some(match value(i)?.as_str() {
                    "ladder" => true,
                    "fail-only" => false,
                    other => return Err(format!("bad --recovery '{other}' (ladder|fail-only)")),
                });
                i += 2;
            }
            "--crash-at" => {
                extra.durable.crash_at = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("bad --crash-at: {e}"))?,
                );
                i += 2;
            }
            "--storage" => {
                extra.durable.storage = durable::StorageChoice::parse(value(i)?)
                    .ok_or_else(|| "bad --storage (resident|compressed|ondisk)".to_string())?;
                i += 2;
            }
            "--memory-budget" => {
                extra.durable.memory_budget = Some(parse_bytes(value(i)?)?);
                i += 2;
            }
            "--storage-workers" => {
                extra.durable.storage_workers = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("bad --storage-workers: {e}"))?,
                );
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.scale <= 0.0 || opts.scale.is_nan() {
        return Err("--scale must be positive".into());
    }
    if extra.delta_days <= 0 || extra.sw_days <= 0 {
        return Err("--delta-days and --sw-days must be positive".into());
    }
    if extra.durable.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if extra.durable.crash_at.is_some() && extra.durable.checkpoint_dir.is_none() {
        return Err("--crash-at needs --checkpoint-dir".into());
    }
    Ok((opts, dataset, extra))
}

/// Parses a byte count with an optional binary suffix: `393216`,
/// `384KiB`, `16MiB`, `1GiB` (case-insensitive; `K`/`M`/`G` accepted).
fn parse_bytes(s: &str) -> Result<usize, String> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("kib").or(lower.strip_suffix("k")) {
        (d, 1usize << 10)
    } else if let Some(d) = lower.strip_suffix("mib").or(lower.strip_suffix("m")) {
        (d, 1 << 20)
    } else if let Some(d) = lower.strip_suffix("gib").or(lower.strip_suffix("g")) {
        (d, 1 << 30)
    } else {
        (lower.as_str(), 1)
    };
    let n: usize = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad byte count '{s}': {e}"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte count '{s}' overflows"))
}

fn print_help() {
    println!(
        "tempopr — regenerate the tables and figures of 'Postmortem Computation of \
         Pagerank on Temporal Graphs' (ICPP '22)\n\n\
         usage: tempopr <experiment> [--scale F] [--seed N] [--threads N] \
         [--max-windows N] [--dataset NAME] [--metrics-out PATH]\n\n\
         experiments: table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
         batch-query all\n\
         tools:       pagerank  (--source <file-or-dataset> \
         --delta-days D --sw-days S [--top K] [--lenient]); convert <in> <out> [--lenient]\n\
         run:         durable window runner — --driver postmortem|offline|streaming \
         [--checkpoint-dir D] [--checkpoint-every N] [--resume D] \
         [--recovery ladder|fail-only] [--crash-at K] \
         [--storage resident|compressed|ondisk] [--memory-budget BYTES] \
         [--storage-workers N]; \
         prints per-window fingerprints; exit 0 clean, 3 recovered, 4 failed\n\
         datasets:    enron epinions hepth youtube wikitalk stackoverflow askubuntu\n\n\
         --scale      dataset size relative to the paper's (default 0.01)\n\
         --seed       synthesis seed (default 42)\n\
         --threads    worker threads (default: all cores)\n\
         --max-windows  cap windows per configuration (default: uncapped)\n\
         --dataset    restrict fig4/fig11 to one dataset\n\
         --metrics-out  write run telemetry JSON (fig5 also prints a \
         phase breakdown)\n\
         --pipeline   prefetch the next part (its decode or page-in, then \
         its window index) under the whole of the current part's compute \
         (postmortem runs)\n\
         --simd       SpMM inner loop: auto (detect, default) | scalar | \
         bitwalk (pre-vectorization mask walk)\n\
         --no-compaction  disable converged-lane compaction in the SpMM \
         kernel\n\
         --init-mode  window seeding: full (uniform) | partial (Eq. 4 \
         within a part) | auto (from the measured window overlap); default: each \
         experiment's own choice\n\
         --edge-balance   edge-balanced parallel chunks (degree-weighted \
         boundaries) instead of vertex-balanced\n\
         --storage    where multi-window parts rest between touches \
         (postmortem runs): resident (default) | compressed (delta-varint, \
         decode-on-touch) | ondisk (paged from a tempopr.tcsr.v1 spill \
         file); ranks are bit-identical across backends\n\
         --memory-budget  resident-bytes budget for part storage; picks \
         the smallest part count that fits under the selected backend, \
         or fails with the minimal feasible budget; accepts KiB/MiB/GiB \
         suffixes\n\
         --storage-workers  shard workers over independent parts \
         (postmortem runs): 1 = serial walk (default), 0 = one per \
         thread of the run (--threads, or every core); \
         the budget is charged one decoded part per worker (plus the \
         pipeline's prefetch slot) and ranks stay bit-identical at every \
         count"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<(Opts, Option<String>, ToolFlags), String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_flags(&v)
    }

    #[test]
    fn defaults_when_no_flags() {
        let (opts, dataset, extra) = flags(&[]).unwrap();
        assert_eq!(opts.scale, 0.01);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.max_windows, 0);
        assert!(opts.metrics_out.is_none());
        assert!(!opts.pipeline);
        assert!(dataset.is_none());
        assert_eq!(extra.delta_days, 90);
        assert_eq!(extra.sw_days, 30);
        assert_eq!(extra.top, 3);
        assert!(!extra.lenient);
    }

    #[test]
    fn lenient_flag_parses() {
        let (_, _, extra) = flags(&["--lenient"]).unwrap();
        assert!(extra.lenient);
    }

    #[test]
    fn pipeline_flag_parses() {
        let (opts, _, _) = flags(&["--pipeline"]).unwrap();
        assert!(opts.pipeline);
    }

    #[test]
    fn simd_ablation_flags_parse() {
        use tempopr_kernel::SimdPolicy;
        let (opts, _, _) = flags(&[]).unwrap();
        assert_eq!(opts.simd, SimdPolicy::Auto);
        assert!(opts.compaction);
        assert!(!opts.edge_balance);
        let (opts, _, _) =
            flags(&["--simd", "bitwalk", "--no-compaction", "--edge-balance"]).unwrap();
        assert_eq!(opts.simd, SimdPolicy::BitWalk);
        assert!(!opts.compaction);
        assert!(opts.edge_balance);
        let (opts, _, _) = flags(&["--simd", "scalar"]).unwrap();
        assert_eq!(opts.simd, SimdPolicy::Scalar);
        assert!(flags(&["--simd", "avx512"]).is_err(), "unknown simd value");
        assert!(flags(&["--simd"]).is_err(), "missing simd value");
    }

    #[test]
    fn init_mode_flag_parses() {
        use tempopr_core::InitMode;
        let (opts, _, _) = flags(&[]).unwrap();
        assert!(opts.init_mode.is_none());
        for (arg, mode) in [
            ("full", InitMode::Full),
            ("partial", InitMode::Partial),
            ("auto", InitMode::Auto),
        ] {
            let (opts, _, _) = flags(&["--init-mode", arg]).unwrap();
            assert_eq!(opts.init_mode, Some(mode));
        }
        assert!(flags(&["--init-mode", "hot"]).is_err(), "unknown mode");
        // The deleted cross-part carry mode is refused, naming the values
        // that remain.
        let err = flags(&["--init-mode", "warm"]).err();
        assert_eq!(
            err.as_deref(),
            Some("bad --init-mode 'warm' (full|partial|auto)")
        );
        assert!(flags(&["--init-mode"]).is_err(), "missing value");
    }

    #[test]
    fn all_flags_parse() {
        let (opts, dataset, extra) = flags(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--threads",
            "2",
            "--max-windows",
            "10",
            "--dataset",
            "enron",
            "--delta-days",
            "30",
            "--sw-days",
            "5",
            "--top",
            "8",
            "--metrics-out",
            "metrics.json",
        ])
        .unwrap();
        assert_eq!(opts.scale, 0.5);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.max_windows, 10);
        assert_eq!(opts.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(dataset.as_deref(), Some("enron"));
        assert_eq!(extra.delta_days, 30);
        assert_eq!(extra.sw_days, 5);
        assert_eq!(extra.top, 8);
    }

    #[test]
    fn durable_flags_parse() {
        let (_, _, extra) = flags(&[]).unwrap();
        assert_eq!(extra.durable.driver, durable::Driver::Postmortem);
        assert_eq!(extra.durable.checkpoint_every, 1);
        assert!(extra.durable.checkpoint_dir.is_none());
        assert!(extra.durable.resume.is_none());
        assert!(extra.durable.recovery_ladder.is_none());
        assert!(extra.durable.crash_at.is_none());
        let (_, _, extra) = flags(&[
            "--driver",
            "streaming",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "8",
            "--resume",
            "/tmp/ck",
            "--recovery",
            "ladder",
            "--crash-at",
            "3",
        ])
        .unwrap();
        assert_eq!(extra.durable.driver, durable::Driver::Streaming);
        assert_eq!(extra.durable.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(extra.durable.checkpoint_every, 8);
        assert_eq!(extra.durable.resume.as_deref(), Some("/tmp/ck"));
        assert_eq!(extra.durable.recovery_ladder, Some(true));
        assert_eq!(extra.durable.crash_at, Some(3));
        let (_, _, extra) = flags(&["--recovery", "fail-only"]).unwrap();
        assert_eq!(extra.durable.recovery_ladder, Some(false));
        assert!(flags(&["--driver", "bogus"]).is_err(), "unknown driver");
        assert!(flags(&["--checkpoint-every", "0"]).is_err(), "zero cadence");
        assert!(
            flags(&["--crash-at", "2"]).is_err(),
            "crash needs a checkpoint dir"
        );
        assert!(flags(&["--recovery", "maybe"]).is_err(), "unknown policy");
    }

    #[test]
    fn storage_flags_parse() {
        use durable::StorageChoice;
        let (_, _, extra) = flags(&[]).unwrap();
        assert_eq!(extra.durable.storage, StorageChoice::Resident);
        assert!(extra.durable.memory_budget.is_none());
        for (arg, choice) in [
            ("resident", StorageChoice::Resident),
            ("compressed", StorageChoice::Compressed),
            ("ondisk", StorageChoice::OnDisk),
        ] {
            let (_, _, extra) = flags(&["--storage", arg]).unwrap();
            assert_eq!(extra.durable.storage, choice);
        }
        let (_, _, extra) = flags(&["--memory-budget", "65536"]).unwrap();
        assert_eq!(extra.durable.memory_budget, Some(65536));
        assert!(flags(&["--storage", "mmap2"]).is_err(), "unknown backend");
        assert!(flags(&["--storage"]).is_err(), "missing backend");
        assert!(flags(&["--memory-budget", "many"]).is_err(), "bad budget");
    }

    #[test]
    fn worker_and_byte_suffix_flags_parse() {
        let (_, _, extra) = flags(&[]).unwrap();
        assert!(extra.durable.storage_workers.is_none());
        let (_, _, extra) = flags(&["--storage-workers", "4"]).unwrap();
        assert_eq!(extra.durable.storage_workers, Some(4));
        let (_, _, extra) = flags(&["--storage-workers", "0"]).unwrap();
        assert_eq!(extra.durable.storage_workers, Some(0));
        assert!(flags(&["--storage-workers", "two"]).is_err(), "bad count");
        // --memory-budget understands binary suffixes.
        let (_, _, extra) = flags(&["--memory-budget", "384KiB"]).unwrap();
        assert_eq!(extra.durable.memory_budget, Some(384 * 1024));
        let (_, _, extra) = flags(&["--memory-budget", "16MiB"]).unwrap();
        assert_eq!(extra.durable.memory_budget, Some(16 << 20));
        let (_, _, extra) = flags(&["--memory-budget", "1g"]).unwrap();
        assert_eq!(extra.durable.memory_budget, Some(1 << 30));
        assert!(flags(&["--memory-budget", "4TiB"]).is_err(), "bad suffix");
    }

    #[test]
    fn source_is_alias_for_dataset() {
        let (_, dataset, _) = flags(&["--source", "events.txt"]).unwrap();
        assert_eq!(dataset.as_deref(), Some("events.txt"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(flags(&["--scale"]).is_err(), "missing value");
        assert!(flags(&["--scale", "x"]).is_err(), "bad float");
        assert!(flags(&["--scale", "0"]).is_err(), "non-positive scale");
        assert!(flags(&["--scale", "NaN"]).is_err(), "NaN scale");
        assert!(flags(&["--delta-days", "-1"]).is_err(), "negative delta");
        assert!(flags(&["--bogus"]).is_err(), "unknown flag");
    }
}
