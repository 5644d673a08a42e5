//! What a run prints and writes: the human-readable report, the one-line
//! result a driver reads, and the `--out` / `trace.json` documents.

use crate::json::{count, n, obj, s, Value};
use crate::metrics::{Metric, END_TO_END};
use crate::protocol::{probe_lines, E2eReport};
use crate::trace::TraceReport;
use crate::workloads::RANK_TOLERANCE;

/// The one-line result: `correct`, `attempted`, `failed` and the metrics
/// by name with value and unit.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", count(attempted)),
        ("failed", count(failed)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.result_entry()))
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

fn full_metrics(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.full_entry()))
            .collect(),
    )
}

impl E2eReport {
    /// Prints the report; its last line is the result line with the gated
    /// end-to-end metrics.
    pub fn print(&self) {
        println!("{}", self.stamp.header());
        println!(
            "  passes_retried {}, attempted {}, failed {}, max L-inf to the reference {:.3e} \
             (tolerance {:.0e}), wall {:.1} s",
            self.passes_retried,
            self.attempted,
            self.failed,
            self.max_linf,
            RANK_TOLERANCE,
            self.wall_s
        );
        for m in &self.metrics {
            println!("{}", m.line());
        }
        println!(
            "  ({} timed postmortem passes after a cold first one of {:.6} s; a timed metric is its \
             fastest pass, which is what a shared host leaves steady)",
            self.stamp.reps, self.cold_e2e_s
        );
        for line in probe_lines(&self.probes) {
            println!("{line}");
        }
        if !self.budget_held() {
            println!(
                "  FAILED: peak resident part bytes {} exceed the budget",
                self.peak_resident_bytes
            );
        }
        let gated: Vec<&Metric> = END_TO_END
            .iter()
            .filter_map(|(name, _)| self.metric(name))
            .collect();
        println!(
            "{}",
            result_line(self.correct(), self.attempted, self.failed, &gated)
        );
    }

    /// The record of this run for `--out`.
    pub fn to_json(&self) -> Value {
        obj([
            ("stamp", self.stamp.to_json()),
            ("correct", Value::Bool(self.correct())),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("max_linf", n(self.max_linf)),
            ("passes_retried", count(self.passes_retried as u64)),
            (
                "peak_resident_bytes",
                count(self.peak_resident_bytes as u64),
            ),
            ("wall_s", n(self.wall_s)),
            ("cold_e2e_s", n(self.cold_e2e_s)),
            (
                "probes",
                Value::Arr(
                    self.probes
                        .iter()
                        .map(|p| {
                            obj([
                                ("host.stream_gb_per_s", n(p.stream_gb_per_s)),
                                ("host.spawn_us", n(p.spawn_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", full_metrics(&self.metrics)),
        ])
    }
}

impl TraceReport {
    /// Prints the report; its last line is the result line with every
    /// per-layer metric.
    pub fn print(&self) {
        println!("{}", self.stamp.header());
        println!(
            "  traced run: {} repetitions, {} spans each, wall {:.1} s; a value is the median over the \
             repetitions, times are diagnostic, counts are exact; 0 = the layer is not on this \
             workload's path",
            self.stamp.reps,
            self.spans.len(),
            self.wall_s
        );
        for m in &self.metrics {
            println!("{}", m.line());
        }
        let all: Vec<&Metric> = self.metrics.iter().collect();
        // The traced run's checks: tracing left the iterations alone, and
        // the exact counts repeated. (The ranks themselves are checked by
        // the end-to-end run.)
        if !self.iterations_agree {
            println!("  FAILED: the traced pass spent other iterations than the untraced one");
        }
        if !self.counts_repeat {
            println!("  FAILED: an exact count differed between two repetitions");
        }
        let attempted = self.stamp.reps as u64;
        let failed = u64::from(!self.correct());
        println!("{}", result_line(self.correct(), attempted, failed, &all));
    }

    /// The record of this run for `--out`.
    pub fn to_json(&self) -> Value {
        obj([
            ("stamp", self.stamp.to_json()),
            ("wall_s", n(self.wall_s)),
            ("spans", count(self.spans.len() as u64)),
            ("per_layer", full_metrics(&self.metrics)),
        ])
    }
}

/// The `--out` document of a whole invocation.
pub fn out_document(host: Value, runs: Vec<Value>) -> Value {
    obj([
        ("schema", s("tempopr.benchmark.v1")),
        ("host", host),
        ("runs", Value::Arr(runs)),
    ])
}

/// The `trace.json` document: every span of every workload traced.
pub fn trace_document(spans: Vec<Value>) -> String {
    // One span per line keeps a multi-thousand-span file greppable.
    let mut out = String::from("{\"schema\": \"tempopr.benchmark.trace.v1\", \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        out.push_str(&sp.to_json());
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}
