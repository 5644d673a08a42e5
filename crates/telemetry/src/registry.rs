//! Metric primitives: named counters, gauges, and fixed-bucket histograms,
//! plus per-phase wall-time accumulators.
//!
//! Names are `&'static str` dot-paths (`"recovery.dense_oracle"`,
//! `"mem.multiwindow_set_bytes"`); the registry stores them in `BTreeMap`s
//! so every export iterates in a stable order. Counters and histogram
//! counts are deterministic for a deterministic run; phase timers and
//! anything under the `time.` prefix are wall-clock and are excluded from
//! the deterministic projection (see [`crate::trace`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Execution phases timed by the RAII [`crate::PhaseGuard`]s.
///
/// The variants mirror the paper's cost breakdown: graph/partition
/// construction, per-window setup (degree + activity pass, initialization),
/// the SpMV/SpMM inner loop, the convergence + health check, and the
/// recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Temporal-CSR / multi-window / per-window CSR construction.
    Build,
    /// Per-window degree/activity pass and rank initialization.
    WindowSetup,
    /// The pull-based rank-update inner loop (SpMV, SpMM).
    Spmv,
    /// Per-iteration convergence reduction, numeric guard, and scatter.
    ConvergenceCheck,
    /// Recovery ladder work: full-init retries, dense oracle, cold restarts.
    Recovery,
    /// Time the pipelined executor spent waiting for an overlapped
    /// window-setup prefetch that had not finished when the kernel did.
    PipelineStall,
    /// Durable checkpoint appends: record encoding, `write_all`, fsync.
    CheckpointWrite,
    /// Resume-time manifest scan: header verification plus the
    /// longest-valid-prefix record walk.
    ResumeScan,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 8] = [
        Phase::Build,
        Phase::WindowSetup,
        Phase::Spmv,
        Phase::ConvergenceCheck,
        Phase::Recovery,
        Phase::PipelineStall,
        Phase::CheckpointWrite,
        Phase::ResumeScan,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::WindowSetup => "window_setup",
            Phase::Spmv => "spmv",
            Phase::ConvergenceCheck => "convergence_check",
            Phase::Recovery => "recovery",
            Phase::PipelineStall => "pipeline_stall",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::ResumeScan => "resume_scan",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Build => 0,
            Phase::WindowSetup => 1,
            Phase::Spmv => 2,
            Phase::ConvergenceCheck => 3,
            Phase::Recovery => 4,
            Phase::PipelineStall => 5,
            Phase::CheckpointWrite => 6,
            Phase::ResumeScan => 7,
        }
    }
}

/// Upper bucket bounds for histograms: powers of two up to 2^30, plus a
/// catch-all overflow bucket. Fixed at compile time so two runs always
/// agree on the bucket layout.
pub const BUCKET_BOUNDS: [f64; 16] = [
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    8388608.0,
    134217728.0,
    1073741824.0,
];

/// A fixed-bucket histogram over [`BUCKET_BOUNDS`].
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `counts[i]` counts samples `<= BUCKET_BOUNDS[i]` (first matching
    /// bucket); the final slot counts overflows.
    pub counts: [u64; BUCKET_BOUNDS.len() + 1],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample seen (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample seen (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        let slot = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Wall-time totals for one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotal {
    /// Accumulated nanoseconds across all guards/spans for this phase.
    pub ns: u64,
    /// Number of spans that contributed.
    pub calls: u64,
}

/// Named counters, gauges, and histograms plus per-phase time accumulators.
///
/// All methods take `&self`; maps sit behind mutexes (cold paths: per
/// window or per recovery event, never per iteration) and the phase
/// accumulators are atomics so kernel workers can report concurrently.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_calls: [AtomicU64; Phase::COUNT],
}

/// Locks a mutex, recovering the data from a poisoned lock rather than
/// panicking (telemetry must never take a run down).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_default() += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        lock(&self.gauges).insert(name, value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        lock(&self.histograms)
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Adds `ns` nanoseconds (one span) to a phase's wall-time total.
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
        self.phase_calls[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lock(&self.gauges).get(name).copied()
    }

    /// Wall-time total for a phase.
    pub fn phase_total(&self, phase: Phase) -> PhaseTotal {
        PhaseTotal {
            ns: self.phase_ns[phase.index()].load(Ordering::Relaxed),
            calls: self.phase_calls[phase.index()].load(Ordering::Relaxed),
        }
    }

    /// Snapshot of all counters in name order.
    pub fn counters_snapshot(&self) -> Vec<(&'static str, u64)> {
        lock(&self.counters).iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Snapshot of all gauges in name order.
    pub fn gauges_snapshot(&self) -> Vec<(&'static str, f64)> {
        lock(&self.gauges).iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Snapshot of all histograms in name order.
    pub fn histograms_snapshot(&self) -> Vec<(&'static str, Histogram)> {
        lock(&self.histograms)
            .iter()
            .map(|(&k, v)| (k, v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.add("a.b", 2);
        r.add("a.b", 3);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        r.set_gauge("g", 1.0);
        r.set_gauge("g", 7.5);
        assert_eq!(r.gauge("g"), Some(7.5));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = MetricsRegistry::new();
        for v in [0.5, 1.0, 3.0, 1e12] {
            r.observe("h", v);
        }
        let snap = r.histograms_snapshot();
        assert_eq!(snap.len(), 1);
        let h = &snap[0].1;
        assert_eq!(h.count, 4);
        assert_eq!(h.counts[0], 2); // <= 1.0
        assert_eq!(h.counts[2], 1); // <= 4.0
        assert_eq!(h.counts[BUCKET_BOUNDS.len()], 1); // overflow
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e12);
    }

    #[test]
    fn phase_totals_accumulate() {
        let r = MetricsRegistry::new();
        r.add_phase_ns(Phase::Spmv, 10);
        r.add_phase_ns(Phase::Spmv, 5);
        let t = r.phase_total(Phase::Spmv);
        assert_eq!((t.ns, t.calls), (15, 2));
        assert_eq!(r.phase_total(Phase::Build).ns, 0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "build",
                "window_setup",
                "spmv",
                "convergence_check",
                "recovery",
                "pipeline_stall",
                "checkpoint_write",
                "resume_scan"
            ]
        );
    }
}
