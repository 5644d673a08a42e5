//! Run-level observability for the temporal-PageRank engine: a
//! zero-external-dependency metrics layer ([`MetricsRegistry`]), RAII
//! phase timers ([`PhaseGuard`]), and a structured convergence trace
//! ([`RunTrace`]) with wall-clock fields segregated from deterministic
//! ones.
//!
//! The entry point is the [`Telemetry`] handle. [`Telemetry::noop()`] —
//! the default everywhere — holds no allocation at all: every hook
//! branches on a `None` inner pointer and returns, so a disabled run pays
//! one predictable branch per observation site. Observation is strictly
//! read-only: enabling telemetry must never change a single bit of the
//! computed ranks, a contract locked in by
//! `tests/telemetry_observation.rs`.
//!
//! ```
//! use tempopr_telemetry::{Phase, Telemetry, TraceEvent, TraceKind};
//!
//! let tele = Telemetry::enabled();
//! {
//!     let _t = tele.phase(Phase::Build);
//!     // ... build the graph ...
//! }
//! tele.add("windows.total", 1);
//! tele.record(TraceEvent::iteration(0, 1, 1, 1e-3, 1.0));
//! let report = tele.report();
//! assert_eq!(report.counter("windows.total"), 1);
//! assert!(report.to_json().contains("\"schema\": \"tempopr.metrics.v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod registry;
pub mod report;
pub mod trace;

pub use registry::{Histogram, MetricsRegistry, Phase, PhaseTotal, BUCKET_BOUNDS};
pub use report::RunReport;
pub use trace::{RunTrace, TraceEvent, TraceKind};

use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    trace: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
}

/// Cheap, cloneable handle to a run's telemetry sink.
///
/// A handle is either *enabled* (shared `Arc` to a registry + trace) or a
/// *noop* (`None`; the default). All recording methods are `&self` and
/// thread-safe; the engine, kernels, and drivers share one handle per run.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// RAII span: adds its elapsed wall time to one [`Phase`] on drop.
#[derive(Debug)]
#[must_use = "a phase guard times the span it is alive for"]
pub struct PhaseGuard<'a> {
    live: Option<(&'a Inner, Phase, Instant)>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.registry.add_phase_ns(phase, ns);
        }
    }
}

impl Telemetry {
    /// The disabled handle: every observation is a branch-and-return.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled sink.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                trace: Mutex::new(Vec::new()),
                epoch: Instant::now(),
            })),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Starts an RAII timer attributing its span to `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            live: self.inner.as_deref().map(|i| (i, phase, Instant::now())),
        }
    }

    /// Adds `ns` externally-measured nanoseconds to a phase (used by the
    /// kernels, which time sub-iteration sections themselves).
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.registry.add_phase_ns(phase, ns);
        }
    }

    /// Adds `delta` to a named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.registry.add(name, delta);
        }
    }

    /// Sets a named gauge.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if let Some(i) = self.inner.as_deref() {
            i.registry.set_gauge(name, value);
        }
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(i) = self.inner.as_deref() {
            i.registry.observe(name, value);
        }
    }

    /// Appends a trace event, stamping its `wall_ns` with the time since
    /// this handle was created.
    pub fn record(&self, mut event: TraceEvent) {
        if let Some(i) = self.inner.as_deref() {
            event.wall_ns = u64::try_from(i.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            i.trace
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(event);
        }
    }

    /// Snapshot of the trace in canonical order (empty for noop handles).
    pub fn trace(&self) -> RunTrace {
        match self.inner.as_deref() {
            Some(i) => RunTrace::from_events(
                i.trace
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
            None => RunTrace::default(),
        }
    }

    /// Full snapshot: phases, counters, gauges, histograms, and the
    /// canonical-ordered trace. A noop handle yields an empty report.
    pub fn report(&self) -> RunReport {
        match self.inner.as_deref() {
            Some(i) => RunReport {
                phases: Phase::ALL
                    .iter()
                    .map(|&p| (p.name(), i.registry.phase_total(p)))
                    .collect(),
                counters: i.registry.counters_snapshot(),
                gauges: i.registry.gauges_snapshot(),
                histograms: i.registry.histograms_snapshot(),
                trace: self.trace(),
            },
            None => RunReport {
                phases: Phase::ALL
                    .iter()
                    .map(|&p| (p.name(), PhaseTotal::default()))
                    .collect(),
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                trace: RunTrace::default(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let t = Telemetry::noop();
        assert!(!t.is_enabled());
        t.add("c", 1);
        t.set_gauge("g", 1.0);
        t.observe("h", 1.0);
        t.record(TraceEvent::marker(TraceKind::WindowOk, 0, 1, 0));
        {
            let _g = t.phase(Phase::Build);
        }
        let r = t.report();
        assert!(r.counters.is_empty());
        assert!(r.trace.is_empty());
        assert_eq!(r.phase_ns_total(), 0);
    }

    #[test]
    fn default_is_noop() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn phase_guard_accumulates_on_drop() {
        let t = Telemetry::enabled();
        {
            let _g = t.phase(Phase::Spmv);
            std::hint::black_box(0u64);
        }
        let total = t.registry().unwrap().phase_total(Phase::Spmv);
        assert_eq!(total.calls, 1);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.add("shared", 2);
        t.add("shared", 3);
        assert_eq!(t.report().counter("shared"), 5);
    }

    #[test]
    fn record_stamps_wall_time_monotonically() {
        let t = Telemetry::enabled();
        t.record(TraceEvent::iteration(0, 1, 1, 0.1, 1.0));
        t.record(TraceEvent::iteration(0, 1, 2, 0.01, 1.0));
        let tr = t.trace();
        assert_eq!(tr.len(), 2);
        assert!(tr.events[0].wall_ns <= tr.events[1].wall_ns);
    }
}
