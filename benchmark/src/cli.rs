//! Command line: `run` (what people and drivers call) and `child` (what
//! `run` calls on its own executable for every timed pass).

use crate::e2e::{run_arm, Arm, PassInput};
use crate::json::{self, Value};
use crate::protocol::{run_workload, E2eReport, RunSettings, E2E_THREADS, ROUNDS};
use crate::report::{out_document, trace_document};
use crate::workloads::{self, Workload};
use crate::{cells, host, trace};
use std::path::PathBuf;

const USAGE: &str = "\
usage: tempopr-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                             [--smoke] [--agree] [--out F] [--trace-out F]

  --workload W   one of many-small-windows, few-large-windows, out-of-core-durable,
                 batch-query (default: all four, in that order)
  --seed N       workload seed (default 42; the same seed gives the same inputs)
  --seconds S    time to measure per workload: end to end it is shared among the arms
                 and rounds, and a child repeats its pass until its share is used up;
                 traced, the layer replays repeat until it is (default 20)
  --trace [0|1]  1 (or no value): the traced run, which prints the 54 per-layer metrics
                 (medians over its repetitions) and writes the first repetition's
                 spans to trace.json; 0 (default): the end-to-end run
  --smoke        a tenth of the windows, one round of one timed pass per arm: a
                 plumbing check, not a measurement
  --agree        two end-to-end sets back to back; prints both medians, their relative
                 difference and the bound per workload and metric, and fails when a
                 difference exceeds its bound
  --out F        also write every number as JSON to F
  --trace-out F  where the traced run writes its spans (default benchmark/work/trace.json)

Each workload's report ends in one line of JSON: correct, attempted, failed, metrics.";

/// Seconds measured per workload unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: workloads::ALL.iter().collect(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::by_name(&name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
                a.workloads = vec![w];
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                // `--trace` alone means 1; a driver passes `--trace 0|1`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--agree" => a.agree = true,
            "--out" => a.out = Some(value("a path")?.into()),
            "--trace-out" => a.trace_out = Some(value("a path")?.into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.agree && a.trace {
        return Err("--agree compares end-to-end sets; it does not take --trace".into());
    }
    Ok(a)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The gated end-to-end metrics' bounds, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()
                })
        })
        .collect()
}

/// `--agree`: two sets back to back, compared against the bounds.
fn agree(a: &RunArgs, settings: &RunSettings) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets: Vec<Vec<E2eReport>> = Vec::new();
    for round in 1..=2 {
        println!("# set {round} of 2");
        let mut set = Vec::new();
        for &w in &a.workloads {
            let report = run_workload(w, settings)?;
            report.print();
            set.push(report);
        }
        sets.push(set);
    }
    println!("# agreement of the two sets (relative difference of the medians against the bound)");
    println!(
        "  {:<22} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut all_within = true;
    for (first, second) in sets[0].iter().zip(&sets[1]) {
        for (name, bound) in &bounds {
            let (Some(x), Some(y)) = (first.metric(name), second.metric(name)) else {
                continue;
            };
            let diff = (y.value() - x.value()) / x.value();
            let within = diff.abs() <= *bound;
            all_within &= within;
            println!(
                "  {:<22} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                first.stamp.workload.name,
                name,
                x.value(),
                y.value(),
                diff * 100.0,
                bound * 100.0,
                if within { "within" } else { "EXCEEDS" }
            );
        }
        println!(
            "  {:<22} failed {} + {} of {} + {}, passes_retried {} + {}",
            first.stamp.workload.name,
            first.failed,
            second.failed,
            first.attempted,
            second.attempted,
            first.passes_retried,
            second.passes_retried
        );
        all_within &= first.correct() && second.correct();
    }
    Ok(all_within)
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    let settings = RunSettings {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        threads: if a.trace {
            host::threads()
        } else {
            E2E_THREADS
        },
    };
    let host = host::stamp(&crate::repo_root());
    println!(
        "# tempopr-benchmark: {} run, seed {}, threads {} ({}), {}",
        if a.trace { "traced" } else { "end-to-end" },
        a.seed,
        settings.threads,
        if a.trace {
            "min(nproc, 4)"
        } else {
            "every arm; the traced run scales"
        },
        match (a.smoke, a.trace) {
            (true, _) => "smoke".to_string(),
            (false, true) => format!(
                "one pass per layer, repeated for {} s per workload",
                a.seconds
            ),
            (false, false) => format!(
                "{} s measured per workload in {ROUNDS} rounds of one process per arm",
                a.seconds
            ),
        }
    );
    println!("# host: {}", host.to_json());
    if a.agree {
        return agree(&a, &settings);
    }
    let mut ok = true;
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    for &w in &a.workloads {
        if a.trace {
            let mut report = trace::run_workload(w, &settings)?;
            report.print();
            ok &= report.correct();
            runs.push(report.to_json());
            spans.append(&mut report.spans);
        } else {
            let report = run_workload(w, &settings)?;
            report.print();
            ok &= report.correct();
            runs.push(report.to_json());
        }
    }
    if a.trace {
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| crate::work_root().join("trace.json"));
        write_file(&path, &trace_document(spans))?;
        eprintln!("spans written to {}", path.display());
    }
    if let Some(path) = &a.out {
        write_file(path, &(out_document(host, runs).to_json() + "\n"))?;
    }
    Ok(ok)
}

/// One arm in a process of its own; the parent reads `--result`.
fn child(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut arm = None;
    let mut events = None;
    let mut threads = None;
    let mut seconds = None;
    let mut scratch = None;
    let mut result = None;
    let mut window_cap = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = workloads::by_name(value),
            "--arm" => arm = Arm::parse(value),
            "--events" => events = Some(PathBuf::from(value)),
            "--threads" => threads = value.parse::<usize>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok(),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--result" => result = Some(PathBuf::from(value)),
            "--window-cap" => window_cap = value.parse::<usize>().ok(),
            other => return Err(format!("child: unknown flag '{other}'")),
        }
    }
    let (
        Some(w),
        Some(arm),
        Some(events),
        Some(threads),
        Some(seconds),
        Some(scratch),
        Some(result),
    ) = (workload, arm, events, threads, seconds, scratch, result)
    else {
        return Err(
            "child: --workload --arm --events --threads --seconds --scratch --result are required"
                .into(),
        );
    };
    let input = PassInput {
        events,
        threads,
        window_cap,
        scratch,
    };
    let out = run_arm(w, arm, &input, seconds)?;
    cells::write(&result, &out).map_err(|e| format!("writing {}: {e}", result.display()))
}

/// Runs the command line; returns the process exit code: 0 when every
/// output was correct, 1 when a check or the run itself failed, 2 on a
/// usage error.
pub fn main_with_args(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("child") => child(&args[1..]).map(|()| true),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return 0;
        }
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("error: a correctness check, a budget or an agreement bound failed (see the report)");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
