//! The metric names and units — the vocabulary later issues use. The set
//! here, the set printed and the set in `BENCHMARK.json` are the same set
//! (`tests/smoke.rs` holds them together).

use crate::json::{n, obj, s, Value};
use crate::stats;

/// End-to-end metrics the driver gates, reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("e2e_s", "s"),
    ("setup_s", "s"),
    ("baseline_e2e_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end numbers printed beside the gated ones but absent from
/// `BENCHMARK.json`, whose end-to-end metrics must exist on every workload
/// and never be 0: the streaming arm runs on one workload only, and the
/// failed share is 0 on a correct run (the result line carries it as
/// `failed` / `attempted`).
pub const END_TO_END_UNGATED: [(&str, &str); 3] = [
    ("streaming_e2e_s", "s"),
    ("failed_share", "ratio"),
    ("speedup_vs_baseline", "ratio"),
];

/// The 54 per-layer metrics of the traced run, grouped by module. A
/// workload whose configuration does not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("graph.io.ingest_s", "s"),
    ("graph.io.ingest_mb_per_s", "MB/s"),
    ("graph.tcsr.build_meps", "Mevents/s"),
    ("graph.multiwindow.build_s", "s"),
    ("graph.multiwindow.parts", "count"),
    ("graph.multiwindow.replication", "ratio"),
    ("graph.multiwindow.memory_mib", "MiB"),
    ("graph.windowindex.build_s", "s"),
    ("graph.windowindex.memory_mib", "MiB"),
    ("graph.storage.plan_s", "s"),
    ("graph.storage.encode_s", "s"),
    ("graph.storage.compression_ratio", "ratio"),
    ("graph.storage.decode_mb_per_s", "MB/s"),
    ("graph.storage.file_write_s", "s"),
    ("graph.storage.file_read_mb_per_s", "MB/s"),
    ("kernel.pagerank.seq_s", "s"),
    ("kernel.pagerank.iterations", "count"),
    ("kernel.pagerank.scanned_entries", "count"),
    ("kernel.pagerank.ns_per_entry", "ns"),
    ("kernel.pagerank.useful_share", "ratio"),
    ("kernel.pagerank.par_speedup", "ratio"),
    ("kernel.spmm.seq_s", "s"),
    ("kernel.spmm.lane_iterations", "count"),
    ("kernel.spmm.ns_per_lane_entry", "ns"),
    ("kernel.spmm.computed_bytes_per_entry", "B"),
    ("kernel.spmm.par_speedup", "ratio"),
    ("kernel.scheduler.dispatch_us", "us"),
    ("kernel.scheduler.dispatch_p99_us", "us"),
    ("kernel.query.seq_s", "s"),
    ("kernel.query.cell_iterations", "count"),
    ("kernel.query.ns_per_lane_entry", "ns"),
    ("kernel.query.retired_share", "ratio"),
    ("core.engine.run_s", "s"),
    ("core.engine.iterations", "count"),
    ("core.engine.iters_saved_share", "ratio"),
    ("core.engine.t1_run_s", "s"),
    ("core.engine.seq_run_s", "s"),
    ("core.engine.scaling_eff", "ratio"),
    ("core.engine.mode_overhead", "ratio"),
    ("core.engine.orchestration_share", "ratio"),
    ("core.storage.fetch_s", "s"),
    ("core.storage.decodes", "count"),
    ("core.storage.evictions", "count"),
    ("core.storage.cache_hit_share", "ratio"),
    ("core.storage.peak_resident_mib", "MiB"),
    ("core.storage.budget_fill", "ratio"),
    ("core.checkpoint.write_s", "s"),
    ("core.checkpoint.bytes", "count"),
    ("core.checkpoint.resume_s", "s"),
    ("core.offline.run_s", "s"),
    ("core.offline.iterations", "count"),
    ("stream.driver.run_s", "s"),
    ("stream.driver.iterations", "count"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Whether a per-layer metric is an exact count that must repeat from run
/// to run of one seed.
pub fn is_exact_count(name: &str) -> bool {
    name.ends_with("iterations")
        || name.ends_with(".scanned_entries")
        || name.ends_with(".parts")
        || name == "core.storage.decodes"
        || name == "core.checkpoint.bytes"
}

/// How a metric's samples become the one value reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The fastest pass. On the shared host this was sized on, a core's
    /// speed flips between two levels some 1.8x apart every few tens of
    /// milliseconds, and the share of slow time drifts between a tenth and
    /// a half over minutes: the mean and the median of a run's passes drift
    /// with it by 10 to 20 %, whatever the run's length, while the fastest
    /// of dozens of passes a few tenths of a second long — one that fell
    /// into a quiet gap — stays within a few percent (README, "Why the
    /// fastest pass"). Nothing on a shared machine makes a pass faster than
    /// the program is. Used for every time.
    Min,
    /// The median: for sizes, and for values measured once.
    Median,
}

/// One reported metric: its samples and the value that stands for them.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the tables above.
    pub name: &'static str,
    /// Unit from the tables above.
    pub unit: &'static str,
    /// One value per pass or repetition (a single value for per-layer
    /// metrics and derived ratios).
    pub samples: Vec<f64>,
    /// How the samples are summarized.
    pub estimator: Estimator,
}

impl Metric {
    /// A metric with the unit the tables give `name`.
    ///
    /// # Panics
    /// If `name` is in none of the tables — a typo in this crate.
    pub fn new(name: &'static str, estimator: Estimator, samples: Vec<f64>) -> Metric {
        let unit = END_TO_END
            .iter()
            .chain(&END_TO_END_UNGATED)
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
            .1;
        Metric {
            name,
            unit,
            samples,
            estimator,
        }
    }

    /// A metric measured once.
    pub fn single(name: &'static str, value: f64) -> Metric {
        Metric::new(name, Estimator::Median, vec![value])
    }

    /// The value reported.
    pub fn value(&self) -> f64 {
        match self.estimator {
            Estimator::Min => stats::min(&self.samples),
            Estimator::Median => stats::median(&self.samples),
        }
    }

    /// `name value unit (how; the other order statistics)` for the
    /// human-readable report.
    pub fn line(&self) -> String {
        let head = format!(
            "  {:<38} {:>16.6} {:<10}",
            self.name,
            self.value(),
            self.unit
        );
        let n = self.samples.len();
        match (n, self.estimator) {
            (1, _) => format!("{head} (one value)"),
            (_, Estimator::Min) => format!(
                "{head} (fastest of {n} passes; median {:.6}, max {:.6})",
                stats::median(&self.samples),
                stats::max(&self.samples),
            ),
            (_, Estimator::Median) => format!(
                "{head} (median of {n}; min {:.6}, max {:.6})",
                stats::min(&self.samples),
                stats::max(&self.samples),
            ),
        }
    }

    /// `{"value": .., "unit": ..}` as the result line wants it.
    pub fn result_entry(&self) -> Value {
        obj([("value", n(self.value())), ("unit", s(self.unit))])
    }

    /// The full record for `--out`.
    pub fn full_entry(&self) -> Value {
        obj([
            ("value", n(self.value())),
            ("unit", s(self.unit)),
            (
                "estimator",
                s(match self.estimator {
                    Estimator::Min => "min",
                    Estimator::Median => "median",
                }),
            ),
            ("min", n(stats::min(&self.samples))),
            ("median", n(stats::median(&self.samples))),
            ("max", n(stats::max(&self.samples))),
            (
                "samples",
                Value::Arr(self.samples.iter().map(|x| n(*x)).collect()),
            ),
        ])
    }
}
