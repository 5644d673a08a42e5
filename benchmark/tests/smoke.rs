//! Runs the benchmark's `--smoke` mode (all four workloads at a tenth of
//! the window count, one pass per arm) and holds three sets together: the
//! names `BENCHMARK.json` declares, the names the crate's tables declare,
//! and the names a run prints. Also checks that nothing fails, that every
//! span has a parent link, and that the exact counts of the traced run
//! repeat across two runs of one seed.
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml` (the dev
//! profile works too, more slowly).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use tempopr_benchmark::json::{self, Value};
use tempopr_benchmark::metrics::{is_exact_count, END_TO_END, PER_LAYER};
use tempopr_benchmark::{repo_root, work_root, workloads};

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(String::from))
        .collect()
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs the benchmark with `args`; returns per workload (in print order)
/// its parsed result line.
fn run(args: &[&str]) -> Vec<(String, Value)> {
    let out = Command::new(env!("CARGO_BIN_EXE_tempopr-benchmark"))
        .arg("run")
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark {args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut results = Vec::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(name) = line.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            current = Some(name.to_string());
        } else if line.starts_with('{') {
            let workload = current
                .take()
                .expect("a result line follows a workload header");
            results.push((
                workload,
                json::parse(line).expect("the result line is JSON"),
            ));
        }
    }
    results
}

fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            assert!(unit.is_some(), "{name} has a unit");
            (
                name.clone(),
                value.unwrap_or_else(|| panic!("{name} has a value")),
            )
        })
        .collect()
}

fn assert_result_shape(result: &Value) {
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
}

#[test]
fn tables_match_benchmark_json() {
    let doc = benchmark_json();
    let table = |t: &[(&str, &str)]| {
        t.iter()
            .map(|(n, _)| n.to_string())
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(names(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), table(&PER_LAYER));
    assert_eq!(
        names(&doc, "workloads"),
        workloads::ALL.iter().map(|w| w.name.to_string()).collect()
    );
    // Units agree too, and every `why` is the workload's own.
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).map(Value::items).unwrap_or_default() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            let ours = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == name)
                .unwrap()
                .1;
            assert_eq!(unit, ours, "unit of {name}");
        }
    }
    for w in doc.get("workloads").map(Value::items).unwrap_or_default() {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert_eq!(why, workloads::by_name(name).unwrap().why, "why of {name}");
    }
}

// One test, not three: the runs share the two cores, and the traced runs
// must not overlap anything if their counts are to be compared.
#[test]
fn smoke_runs_print_the_declared_names_and_exact_counts_repeat() {
    let doc = benchmark_json();
    let declared_workloads = names(&doc, "workloads");

    let e2e = run(&["--smoke", "--seed", "42"]);
    assert_eq!(
        e2e.iter().map(|(w, _)| w.clone()).collect::<BTreeSet<_>>(),
        declared_workloads
    );
    for (workload, result) in &e2e {
        assert_result_shape(result);
        let printed: BTreeSet<String> = metric_values(result).into_keys().collect();
        assert_eq!(printed, names(&doc, "end_to_end"), "{workload}");
        for (name, value) in metric_values(result) {
            assert!(
                value > 0.0,
                "{workload}: {name} is {value}; end-to-end metrics are never 0"
            );
        }
    }

    let trace_path = |i: usize| -> PathBuf {
        work_root().join(format!("smoke-trace-{}-{i}.json", std::process::id()))
    };
    let traced: Vec<Vec<(String, Value)>> = (0..2)
        .map(|i| {
            let path = trace_path(i);
            run(&[
                "--smoke",
                "--seed",
                "42",
                "--trace",
                "--trace-out",
                path.to_str().unwrap(),
            ])
        })
        .collect();
    for (workload, result) in &traced[0] {
        assert_result_shape(result);
        let printed: BTreeSet<String> = metric_values(result).into_keys().collect();
        assert_eq!(printed, names(&doc, "per_layer"), "{workload}");
    }
    assert_eq!(
        traced[0]
            .iter()
            .map(|(w, _)| w.clone())
            .collect::<BTreeSet<_>>(),
        declared_workloads
    );
    for ((workload, first), (_, second)) in traced[0].iter().zip(&traced[1]) {
        let (first, second) = (metric_values(first), metric_values(second));
        let mut exact = 0;
        for (name, value) in &first {
            if is_exact_count(name) {
                assert_eq!(
                    Some(value),
                    second.get(name),
                    "{workload}: {name} must repeat exactly"
                );
                exact += 1;
            }
        }
        assert!(
            exact >= 10,
            "{workload}: only {exact} exact counts compared"
        );
    }

    // trace.json: a parent link on every span, one root per workload.
    let text = std::fs::read_to_string(trace_path(0)).expect("trace.json was written");
    let trace = json::parse(&text).expect("trace.json is JSON");
    let spans = trace.get("spans").map(Value::items).unwrap_or_default();
    assert!(spans.len() > 100);
    let mut roots = 0;
    for span in spans {
        for key in [
            "id", "name", "start_ns", "end_ns", "self_ns", "parent", "workload", "pass",
        ] {
            assert!(
                span.get(key).is_some(),
                "span lacks {key}: {}",
                span.to_json()
            );
        }
        roots += usize::from(span.get("parent") == Some(&Value::Null));
    }
    assert_eq!(roots, declared_workloads.len());
    for i in 0..2 {
        let _ = std::fs::remove_file(trace_path(i));
    }
}
