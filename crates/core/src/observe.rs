//! The bridge between the kernel crate's observation hooks and a
//! [`Telemetry`] sink.
//!
//! The kernel crate stays dependency-free by defining only the
//! [`tempopr_kernel::KernelObserver`] trait; this module supplies the one
//! implementation the drivers use. One bridge is constructed per kernel
//! *attempt* — the kernel closures handed to
//! [`crate::exec::WindowExecutor::drive`] build a fresh one each time the
//! executor re-invokes them — so every forwarded trace event carries the
//! recovery-attempt label (1 = configured run, 2 = full-init retry)
//! without interior mutability; the bridge itself is a pair of plain
//! references and is trivially `Sync` for the scheduler's thread pool.

use tempopr_kernel::KernelObserver;
use tempopr_telemetry::{Phase, Telemetry, TraceEvent, TraceKind};

/// Forwards kernel observations into a telemetry sink, labeling trace
/// events with a fixed recovery-attempt number.
pub struct TelemetryKernelBridge<'a> {
    tele: &'a Telemetry,
    attempt: u16,
}

impl<'a> TelemetryKernelBridge<'a> {
    /// A bridge recording into `tele` under recovery attempt `attempt`.
    pub fn new(tele: &'a Telemetry, attempt: u16) -> Self {
        TelemetryKernelBridge { tele, attempt }
    }
}

impl KernelObserver for TelemetryKernelBridge<'_> {
    fn on_setup(&self, window: u32, active_vertices: usize, ns: u64) {
        self.tele.add_phase_ns(Phase::WindowSetup, ns);
        self.tele
            .observe("setup.active_vertices", active_vertices as f64);
        self.tele.record(TraceEvent::marker(
            TraceKind::Setup,
            window,
            self.attempt,
            0,
        ));
    }

    fn on_iteration(
        &self,
        window: u32,
        iteration: u32,
        residual: f64,
        mass: f64,
        spmv_ns: u64,
        check_ns: u64,
    ) {
        self.tele.add_phase_ns(Phase::Spmv, spmv_ns);
        self.tele.add_phase_ns(Phase::ConvergenceCheck, check_ns);
        self.tele.add("iterations.total", 1);
        self.tele.record(TraceEvent::iteration(
            window,
            self.attempt,
            iteration,
            residual,
            mass,
        ));
    }

    fn on_guard(&self, window: u32, iteration: u32, restart: bool) {
        let (kind, counter) = if restart {
            (TraceKind::GuardRestart, "guard.restart")
        } else {
            (TraceKind::GuardRenormalize, "guard.renormalize")
        };
        self.tele.add(counter, 1);
        self.tele
            .record(TraceEvent::marker(kind, window, self.attempt, iteration));
    }

    fn on_batch_round(
        &self,
        _iteration: u32,
        lanes_live: u32,
        lanes_total: u32,
        edges: u64,
        spmv_ns: u64,
        check_ns: u64,
    ) {
        self.tele.add_phase_ns(Phase::Spmv, spmv_ns);
        self.tele.add_phase_ns(Phase::ConvergenceCheck, check_ns);
        self.tele.add("spmm.rounds", 1);
        self.tele.add("spmm.edges_processed", edges);
        self.tele.observe("spmm.lanes_live", f64::from(lanes_live));
        self.tele.set_gauge("spmm.lanes", f64::from(lanes_total));
    }

    fn on_batch_dispatch(&self, isa: &'static str, lanes: u32) {
        // Counters and gauges never enter the deterministic trace
        // projection, so this machine-dependent value cannot perturb the
        // golden-trace tests.
        let code = match isa {
            "bitwalk" => 0.0,
            "scalar" => 1.0,
            _ => 2.0, // avx2 (and any wider future ISA)
        };
        self.tele.set_gauge("kernel.isa", code);
        match isa {
            "bitwalk" => self.tele.add("kernel.isa.bitwalk", 1),
            "scalar" => self.tele.add("kernel.isa.scalar", 1),
            _ => self.tele.add("kernel.isa.avx2", 1),
        }
        self.tele.observe("spmm.batch_lanes", f64::from(lanes));
    }

    fn on_batch_compaction(&self, from_lanes: u32, to_lanes: u32, rows: u64) {
        self.tele.add("spmm.compactions", 1);
        self.tele.add("spmm.compaction_rows", rows);
        self.tele.add(
            "spmm.lanes_compacted",
            u64::from(from_lanes.saturating_sub(to_lanes)),
        );
    }

    fn on_batch_live_rows(&self, runs: u64, live_cells: u64, lanes: u32, _vector: bool) {
        // The evidence the row-walk rule decides on (the decision itself is
        // counted per round below): counters and a histogram only, so the
        // automatic choice stays outside the deterministic trace projection.
        self.tele.add("spmm.live_rows_rebuilds", 1);
        self.tele.add("spmm.live_runs", runs);
        self.tele.add("spmm.live_cells", live_cells);
        if runs > 0 {
            // What the rule compares with 1/8: live cells per run-lane slot.
            let slots = runs as f64 * f64::from(lanes.max(1));
            self.tele
                .observe("spmm.stride_density", live_cells as f64 / slots);
        }
    }

    fn on_batch_row_walk(&self, vector: bool) {
        let counter = if vector {
            "spmm.rounds_vector"
        } else {
            "spmm.rounds_walk"
        };
        self.tele.add(counter, 1);
    }

    fn on_window_runs(&self, _window: u32, filter_entries: u64, window_runs: u64) {
        self.tele.add("spmv.filter_entries", filter_entries);
        self.tele.add("spmv.window_runs", window_runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_forwards_into_sink() {
        let tele = Telemetry::enabled();
        let b = TelemetryKernelBridge::new(&tele, 1);
        b.on_setup(3, 17, 500);
        b.on_iteration(3, 1, 0.25, 1.0, 100, 50);
        b.on_guard(3, 1, true);
        b.on_batch_round(1, 2, 4, 120, 10, 5);
        b.on_batch_dispatch("avx2", 4);
        b.on_batch_compaction(4, 1, 37);
        b.on_batch_live_rows(120, 300, 4, true);
        b.on_batch_row_walk(true);
        b.on_batch_row_walk(true);
        b.on_batch_row_walk(false);
        b.on_window_runs(3, 1000, 170);
        let report = tele.report();
        assert_eq!(report.counter("iterations.total"), 1);
        assert_eq!(report.counter("guard.restart"), 1);
        assert_eq!(report.counter("spmm.rounds"), 1);
        assert_eq!(report.counter("spmm.edges_processed"), 120);
        assert_eq!(report.counter("kernel.isa.avx2"), 1);
        assert_eq!(report.counter("spmm.compactions"), 1);
        assert_eq!(report.counter("spmm.lanes_compacted"), 3);
        assert_eq!(report.counter("spmm.compaction_rows"), 37);
        assert_eq!(report.counter("spmm.live_rows_rebuilds"), 1);
        assert_eq!(report.counter("spmm.live_runs"), 120);
        assert_eq!(report.counter("spmm.live_cells"), 300);
        assert_eq!(report.counter("spmm.rounds_vector"), 2);
        assert_eq!(report.counter("spmm.rounds_walk"), 1);
        assert_eq!(report.counter("spmv.filter_entries"), 1000);
        assert_eq!(report.counter("spmv.window_runs"), 170);
        assert_eq!(report.phase_ns(Phase::WindowSetup), 500);
        assert_eq!(report.phase_ns(Phase::Spmv), 110);
        assert_eq!(report.phase_ns(Phase::ConvergenceCheck), 55);
        let trace = tele.trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events[0].kind, TraceKind::Setup);
        assert_eq!(trace.events[1].kind, TraceKind::Iteration);
        assert_eq!(trace.events[2].kind, TraceKind::GuardRestart);
        assert!(trace.events.iter().all(|e| e.attempt == 1));
    }

    #[test]
    fn bridge_on_noop_sink_records_nothing() {
        let tele = Telemetry::noop();
        let b = TelemetryKernelBridge::new(&tele, 1);
        b.on_iteration(0, 1, 0.5, 1.0, 10, 10);
        assert!(tele.trace().is_empty());
    }
}
