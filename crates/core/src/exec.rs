//! The driver-agnostic window-execution layer.
//!
//! All three computation models of the paper — postmortem (§4), offline
//! rebuild-per-window (§3.3.1), and streaming incremental (§3.3.2) — share
//! the same per-window lifecycle: *setup* (build or update the graph view),
//! *compute* (run a kernel to a terminal [`WindowStatus`], escalating
//! through the recovery ladder on failure), and *finalize* (assemble the
//! [`WindowOutput`], record terminal telemetry, recycle buffers). This
//! module owns the single copy of that lifecycle:
//!
//! - [`WindowExecutor`] holds the recovery ladder ([`WindowExecutor::drive`]),
//!   panic isolation ([`isolate`]), `NumericPolicy` escalation, and the
//!   terminal status/output assembly ([`WindowExecutor::finalize`]). Every
//!   `Failed`/`Recovered`/`Ok` classification in the workspace funnels
//!   through here.
//! - [`WindowSource`] is the per-driver adapter producing one work item per
//!   window (a freshly built CSR, a mutated streaming store) and recycling
//!   it afterwards.
//! - [`run_windows`] walks a window range through setup → compute →
//!   finalize for the offline and streaming drivers, optionally overlapping
//!   the *next* window's setup (via a [`Prefetcher`]) with the current
//!   window's kernel on a helper thread. The time the kernel finishes
//!   *before* the prefetch is recorded under the `pipeline_stall` phase.
//!   The postmortem engine walks parts instead, with its own part walk
//!   ([`crate::engine`]), and calls [`WindowExecutor`] per window.
//!
//! Deterministic-trace contract: per window this module emits the recovery
//! counter+marker pairs from `drive`, then `WindowStart` and the terminal
//! marker from `finalize`, and a prefetch emits nothing, so the
//! `tempopr.trace.v1` projection is the same with pipelining on or off.

use crate::checkpoint::{CheckpointRecord, CheckpointSink};
use crate::config::RetainMode;
use crate::result::{RecoveryKind, WindowOutput, WindowRanks, WindowStatus};
use std::ops::Range;
use std::sync::Arc;
use tempopr_graph::{Event, TemporalCsr, TimeRange};
use tempopr_kernel::{
    overlap, solve_pagerank_exact, KernelError, NumericPolicy, PrConfig, PrHealth, PrStats,
};
use tempopr_telemetry::{Phase as RunPhase, Telemetry, TraceEvent, TraceKind};

/// Largest active set the dense Eq. 2 oracle accepts as a recovery
/// fallback — the solve is `O(n³)`, so it only rescues small windows.
pub const MAX_ORACLE_ACTIVE: usize = 512;

/// Which rungs of the recovery ladder a driver enables.
///
/// The postmortem engine runs the full [`RecoveryPolicy::ladder`]; the
/// offline and streaming baselines default to [`RecoveryPolicy::fail_only`]
/// (a window that cannot converge as configured simply fails — their
/// historical behavior), but accept the full ladder for parity testing.
/// [`NumericPolicy::Fail`] on the kernel guard overrides everything: no
/// recovery of any kind is attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rung 2: recompute a warm-started window from full (uniform)
    /// initialization. Only fires for windows that were partially
    /// initialized — a cold start already was fully initialized.
    pub full_init_retry: bool,
    /// Rung 3: solve the window exactly with the dense Eq. 2 oracle.
    pub dense_oracle: bool,
    /// Active-set cap for the dense oracle (its solve is `O(n³)`).
    pub max_oracle_active: usize,
}

impl RecoveryPolicy {
    /// The full ladder: full-init retry, then the dense oracle.
    pub fn ladder() -> Self {
        RecoveryPolicy {
            full_init_retry: true,
            dense_oracle: true,
            max_oracle_active: MAX_ORACLE_ACTIVE,
        }
    }

    /// No recovery rungs: the first failed attempt is terminal.
    pub fn fail_only() -> Self {
        RecoveryPolicy {
            full_init_retry: false,
            dense_oracle: false,
            max_oracle_active: MAX_ORACLE_ACTIVE,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::fail_only()
    }
}

/// The single owner of per-window failure semantics: recovery ladder,
/// panic isolation, status classification, and terminal output assembly.
///
/// Drivers construct one per run (it is a bundle of references, free to
/// copy around) and route every window through [`WindowExecutor::drive`] +
/// [`WindowExecutor::finalize`].
pub struct WindowExecutor<'a> {
    tele: &'a Telemetry,
    pr: &'a PrConfig,
    /// Enabled recovery rungs (public so drivers can consult the oracle cap).
    pub recovery: RecoveryPolicy,
    retain: RetainMode,
    /// Durable checkpoint sink; when set, every finalized window is
    /// offered as a [`crate::checkpoint::CheckpointRecord`] — this single
    /// hook is how all three drivers inherit checkpointing.
    ckpt: Option<Arc<CheckpointSink>>,
}

impl<'a> WindowExecutor<'a> {
    /// An executor recording into `tele`, with `pr` as the base kernel
    /// configuration (its guard policy decides fail-fast), `recovery`
    /// gating the ladder, and `retain` deciding output retention.
    pub fn new(
        tele: &'a Telemetry,
        pr: &'a PrConfig,
        recovery: RecoveryPolicy,
        retain: RetainMode,
    ) -> Self {
        WindowExecutor {
            tele,
            pr,
            recovery,
            retain,
            ckpt: None,
        }
    }

    /// Attaches (or detaches) a durable checkpoint sink; finalized windows
    /// are then persisted through it regardless of the retention mode.
    pub fn with_checkpoint(mut self, sink: Option<Arc<CheckpointSink>>) -> Self {
        self.ckpt = sink;
        self
    }

    /// Drives one window's kernel attempts to a terminal status.
    ///
    /// `kernel(false)` runs as configured, `kernel(true)` forces uniform
    /// initialization; `oracle()` solves the window exactly (or `None`
    /// when it is too large). Returns the stats, the terminal status,
    /// `Some(ranks)` when the final ranks did *not* come from the kernel
    /// workspace (oracle recovery, or zeros for a failed window), and the
    /// highest recovery rung reached (1..=3).
    ///
    /// Ladder: converged → done (status from the kernel's health record);
    /// error / non-convergence → full-init retry (warm starts only) →
    /// dense oracle → `Failed`, with each rung subject to the
    /// [`RecoveryPolicy`]. A caught panic fails immediately — the
    /// workspace is not trustworthy afterwards, so the caller must discard
    /// it whenever the returned status is `Failed`. Under
    /// [`NumericPolicy::Fail`] no recovery is attempted at all.
    pub fn drive<F, O>(
        &self,
        window: u32,
        was_partial: bool,
        n_local: usize,
        mut kernel: F,
        oracle: O,
    ) -> (PrStats, WindowStatus, Option<Vec<f64>>, u16)
    where
        F: FnMut(bool) -> Result<PrStats, KernelError>,
        O: FnOnce() -> Option<Result<Vec<f64>, KernelError>>,
    {
        let max_iters = self.pr.max_iters;
        let fail_fast = self.pr.guard.policy == NumericPolicy::Fail;
        let settle = |stats: PrStats, via: Option<RecoveryKind>, attempts: u16| {
            let status = match via {
                Some(v) => WindowStatus::Recovered { via: v },
                None => classify_converged(&stats),
            };
            (stats, status, None, attempts)
        };
        // Attempt 1: as configured.
        let mut diagnostic = match isolate(|| kernel(false)) {
            Ok(Ok(stats)) if stats.converged || max_iters == 0 => return settle(stats, None, 1),
            Ok(Ok(_)) => format!("did not converge within {max_iters} iterations"),
            Ok(Err(e)) => e.to_string(),
            Err(msg) => {
                return (
                    PrStats::empty(),
                    WindowStatus::Failed {
                        diagnostic: format!("kernel panicked: {msg}"),
                    },
                    Some(vec![0.0; n_local]),
                    1,
                );
            }
        };
        let mut attempts: u16 = 1;
        let rungs = !fail_fast && (self.recovery.dense_oracle || self.recovery.full_init_retry);
        if rungs {
            // Rungs 2-3 are attributed to the recovery phase; the kernel's
            // own SpMV/check timers keep running inside the span, so phase
            // totals overlap by design (see DESIGN.md §6).
            let _recovery = self.tele.phase(RunPhase::Recovery);
            // Attempt 2: recompute from full initialization (warm starts
            // only — a cold start already was fully initialized).
            if self.recovery.full_init_retry && was_partial {
                attempts = 2;
                self.tele.add("recovery.full_init_retry", 1);
                self.tele.record(TraceEvent::marker(
                    TraceKind::RecoveryFullInitRetry,
                    window,
                    2,
                    0,
                ));
                match isolate(|| kernel(true)) {
                    Ok(Ok(stats)) if stats.converged => {
                        return settle(stats, Some(RecoveryKind::FullInitRetry), 2);
                    }
                    Ok(Ok(_)) => {
                        diagnostic = format!("{diagnostic}; full-init retry did not converge");
                    }
                    Ok(Err(e)) => diagnostic = format!("{diagnostic}; full-init retry: {e}"),
                    Err(msg) => {
                        return (
                            PrStats::empty(),
                            WindowStatus::Failed {
                                diagnostic: format!(
                                    "{diagnostic}; full-init retry panicked: {msg}"
                                ),
                            },
                            Some(vec![0.0; n_local]),
                            2,
                        );
                    }
                }
            }
            // Attempt 3: the dense Eq. 2 oracle, immune to iteration-level
            // faults (it recomputes degrees and does not iterate).
            if self.recovery.dense_oracle {
                attempts = 3;
                self.tele.add("recovery.dense_oracle", 1);
                self.tele.record(TraceEvent::marker(
                    TraceKind::RecoveryDenseOracle,
                    window,
                    3,
                    0,
                ));
                match oracle() {
                    Some(Ok(x)) => {
                        let active = x.iter().filter(|&&v| v > 0.0).count();
                        let stats = PrStats {
                            iterations: 0,
                            converged: true,
                            active_vertices: active,
                            health: PrHealth::default(),
                        };
                        return (
                            stats,
                            WindowStatus::Recovered {
                                via: RecoveryKind::DenseOracle,
                            },
                            Some(x),
                            3,
                        );
                    }
                    Some(Err(e)) => diagnostic = format!("{diagnostic}; dense oracle: {e}"),
                    None => {
                        diagnostic = format!("{diagnostic}; window too large for the dense oracle");
                    }
                }
            }
        }
        (
            PrStats::empty(),
            WindowStatus::Failed { diagnostic },
            Some(vec![0.0; n_local]),
            attempts,
        )
    }

    /// Assembles one window's terminal [`WindowOutput`]: terminal counters
    /// and trace markers, the canonical rank fingerprint, and retention.
    ///
    /// `ranks` is the window's final rank vector (see [`WindowRanks`]):
    /// renumbered through its part's vertex map on multi-window parts, and
    /// walked over the window's active vertices when it names them, dense
    /// over the global universe otherwise (offline/streaming). Failed
    /// windows pass no ranks (an all-zero vector, or an empty active
    /// list), yielding an empty sparse vector and a zero fingerprint.
    pub fn finalize(
        &self,
        window: usize,
        ranks: WindowRanks<'_>,
        stats: PrStats,
        status: WindowStatus,
        attempts: u16,
    ) -> WindowOutput {
        let w32 = window as u32;
        let (kind, counter) = match &status {
            WindowStatus::Ok => (TraceKind::WindowOk, "windows.ok"),
            WindowStatus::Recovered { .. } => (TraceKind::WindowRecovered, "windows.recovered"),
            WindowStatus::Failed { .. } => (TraceKind::WindowFailed, "windows.failed"),
        };
        self.tele.add(counter, 1);
        self.tele
            .observe("window.iterations", stats.iterations as f64);
        self.tele
            .record(TraceEvent::marker(TraceKind::WindowStart, w32, 1, 0));
        self.tele.record(TraceEvent::marker(
            kind,
            w32,
            attempts,
            stats.iterations as u32,
        ));
        // The sparse vector is built whenever either consumer needs it; a
        // checkpoint record always carries it (resume re-seeding needs the
        // ranks even under summary retention).
        let (fingerprint, mut sparse) =
            ranks.output(self.ckpt.is_some() || self.retain == RetainMode::Full);
        if let Some(sink) = &self.ckpt {
            let ranks = if self.retain == RetainMode::Full {
                sparse.clone().unwrap_or_default()
            } else {
                sparse.take().unwrap_or_default()
            };
            sink.offer(&CheckpointRecord {
                window,
                status: status.clone(),
                attempts,
                stats,
                fingerprint,
                ranks,
            });
        }
        let ranks = match self.retain {
            RetainMode::Full => sparse,
            RetainMode::Summary => None,
        };
        WindowOutput {
            window,
            stats,
            fingerprint,
            ranks,
            status,
            attempts,
        }
    }
}

/// Classifies a converged kernel attempt from its health record: clean →
/// [`WindowStatus::Ok`], guard interventions → recovered. The one place
/// this judgment is made (the batched SpMM path and the ladder both call
/// it).
pub fn classify_converged(stats: &PrStats) -> WindowStatus {
    if stats.health.is_clean() {
        WindowStatus::Ok
    } else {
        WindowStatus::Recovered {
            via: RecoveryKind::GuardIntervention,
        }
    }
}

/// Runs `f` with panic isolation: a panicking kernel yields
/// `Err(message)` instead of unwinding through the driver, so one poisoned
/// window never takes the run down. This is the workspace's only
/// unwind-catching site.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    // `as_ref` matters: a bare `&p` would unsize-coerce the Box itself
    // into `dyn Any` and every downcast of the payload would miss.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Best-effort human-readable panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Exact-solve fallback for one window of `tcsr`, or `None` when its
/// active set exceeds `max_active` (the dense solve is `O(n³)`).
pub fn oracle_for(
    tcsr: &TemporalCsr,
    range: TimeRange,
    cfg: &PrConfig,
    max_active: usize,
) -> Option<Result<Vec<f64>, KernelError>> {
    match solve_pagerank_exact(tcsr, tcsr, range, cfg, max_active) {
        Err(KernelError::ActiveSetTooLarge { .. }) => None,
        r => Some(r),
    }
}

/// [`oracle_for`] for drivers that hold only raw events (offline,
/// streaming): builds the window's temporal CSR on the spot.
pub fn oracle_from_events(
    num_vertices: usize,
    events: &[Event],
    range: TimeRange,
    cfg: &PrConfig,
    max_active: usize,
) -> Option<Result<Vec<f64>, KernelError>> {
    let tcsr = TemporalCsr::from_events(num_vertices, events);
    oracle_for(&tcsr, range, cfg, max_active)
}

/// A driver adapter yielding one work item per window.
///
/// `setup` performs the per-window preparation (CSR build, streaming
/// update batch) and is the stage [`run_windows`] can overlap
/// with the previous window's kernel; `finalize` takes the item back after
/// compute so buffers can be recycled across windows.
pub trait WindowSource {
    /// The per-window work item handed to the compute stage.
    type Item;

    /// Prepares window `window` and returns its work item.
    fn setup(&mut self, window: usize) -> Self::Item;

    /// Returns `window`'s item after compute (default: drop it). Sources
    /// that recycle buffers (the offline CSR rebuilder) reclaim them here.
    fn finalize(&mut self, window: usize, item: Self::Item) {
        let _ = (window, item);
    }
}

/// Overlapped-setup hook for [`run_windows`]: names the window whose setup
/// may run concurrently with the current window's kernel, and performs it.
///
/// `prefetch` runs on a helper thread while the driver's kernel runs, so it
/// must only touch thread-safe state (lazily-built indexes behind
/// `OnceLock`, a mutex-guarded build cache) and must not emit trace events
/// (wall-clock phase time is fine; deterministic trace order is not
/// negotiable).
pub trait Prefetcher: Sync {
    /// The window whose setup should be prefetched while `window`
    /// computes, or `None` when there is nothing worth overlapping.
    fn next_after(&self, window: usize) -> Option<usize>;

    /// Performs window `window`'s setup ahead of time.
    fn prefetch(&self, window: usize);
}

/// Walks `windows` through the setup → compute → finalize pipeline.
///
/// For every window the source's item is prepared, `compute` produces the
/// terminal [`WindowOutput`], and the item is returned to the source. With
/// a [`Prefetcher`], the next window's setup runs on a scoped helper
/// thread *while* `compute` runs; any time `compute` finishes first is
/// recorded under the `pipeline_stall` phase. Without one, this is a plain
/// in-order loop; the deterministic trace is the same either way.
pub fn run_windows<S, F>(
    source: &mut S,
    windows: Range<usize>,
    prefetcher: Option<&dyn Prefetcher>,
    tele: &Telemetry,
    mut compute: F,
) -> Vec<WindowOutput>
where
    S: WindowSource,
    F: FnMut(&mut S, usize, &S::Item) -> WindowOutput,
{
    let mut out = Vec::with_capacity(windows.len());
    for w in windows {
        let item = source.setup(w);
        let output = match prefetcher.and_then(|p| p.next_after(w).map(|t| (p, t))) {
            Some((p, t)) => {
                let (_bg, fg, stall) = overlap(|| p.prefetch(t), || compute(source, w, &item));
                tele.add_phase_ns(
                    RunPhase::PipelineStall,
                    u64::try_from(stall.as_nanos()).unwrap_or(u64::MAX),
                );
                tele.add("pipeline.prefetches", 1);
                fg
            }
            None => compute(source, w, &item),
        };
        source.finalize(w, item);
        out.push(output);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_kernel::GuardConfig;

    fn stats_ok() -> PrStats {
        PrStats {
            iterations: 5,
            converged: true,
            active_vertices: 3,
            health: PrHealth::default(),
        }
    }

    fn stats_stalled() -> PrStats {
        PrStats {
            iterations: 50,
            converged: false,
            active_vertices: 3,
            health: PrHealth::default(),
        }
    }

    fn pr() -> PrConfig {
        PrConfig {
            max_iters: 50,
            ..PrConfig::default()
        }
    }

    #[test]
    fn drive_settles_clean_convergence_on_attempt_one() {
        let tele = Telemetry::noop();
        let pr = pr();
        let exec = WindowExecutor::new(&tele, &pr, RecoveryPolicy::ladder(), RetainMode::Full);
        let (stats, status, over, attempts) = exec.drive(
            0,
            false,
            3,
            |_| Ok(stats_ok()),
            || panic!("oracle must not run"),
        );
        assert_eq!(status, WindowStatus::Ok);
        assert!(over.is_none());
        assert_eq!(attempts, 1);
        assert_eq!(stats.iterations, 5);
    }

    #[test]
    fn drive_fail_only_policy_fails_without_rungs() {
        let tele = Telemetry::noop();
        let pr = pr();
        let exec = WindowExecutor::new(&tele, &pr, RecoveryPolicy::fail_only(), RetainMode::Full);
        let (stats, status, over, attempts) = exec.drive(
            0,
            true,
            4,
            |_| Ok(stats_stalled()),
            || panic!("oracle must not run under fail_only"),
        );
        assert!(matches!(status, WindowStatus::Failed { .. }));
        assert_eq!(over.as_deref(), Some(&[0.0; 4][..]));
        assert_eq!(attempts, 1);
        assert_eq!(stats, PrStats::empty());
    }

    #[test]
    fn drive_walks_retry_then_oracle() {
        let tele = Telemetry::enabled();
        let pr = pr();
        let exec = WindowExecutor::new(&tele, &pr, RecoveryPolicy::ladder(), RetainMode::Full);
        let (_, status, over, attempts) = exec.drive(
            7,
            true,
            2,
            |_| Ok(stats_stalled()),
            || Some(Ok(vec![0.5, 0.5])),
        );
        assert_eq!(
            status,
            WindowStatus::Recovered {
                via: RecoveryKind::DenseOracle
            }
        );
        assert_eq!(over, Some(vec![0.5, 0.5]));
        assert_eq!(attempts, 3);
        let report = tele.report();
        assert_eq!(report.counter("recovery.full_init_retry"), 1);
        assert_eq!(report.counter("recovery.dense_oracle"), 1);
    }

    #[test]
    fn drive_numeric_fail_policy_overrides_ladder() {
        let tele = Telemetry::noop();
        let pr = PrConfig {
            guard: GuardConfig {
                policy: NumericPolicy::Fail,
                ..GuardConfig::default()
            },
            ..pr()
        };
        let exec = WindowExecutor::new(&tele, &pr, RecoveryPolicy::ladder(), RetainMode::Full);
        let (_, status, _, attempts) = exec.drive(
            0,
            true,
            1,
            |_| Ok(stats_stalled()),
            || panic!("oracle must not run under NumericPolicy::Fail"),
        );
        assert!(matches!(status, WindowStatus::Failed { .. }));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn drive_isolates_panicking_kernels() {
        let tele = Telemetry::noop();
        let pr = pr();
        let exec = WindowExecutor::new(&tele, &pr, RecoveryPolicy::ladder(), RetainMode::Full);
        let (_, status, over, attempts) = exec.drive(0, false, 2, |_| panic!("injected"), || None);
        match status {
            WindowStatus::Failed { diagnostic } => {
                assert!(diagnostic.contains("panicked"), "{diagnostic}");
                assert!(diagnostic.contains("injected"), "{diagnostic}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(over.as_deref(), Some(&[0.0; 2][..]));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn classify_reads_health() {
        assert_eq!(classify_converged(&stats_ok()), WindowStatus::Ok);
        let mut dirty = stats_ok();
        dirty.health.restarts = 1;
        assert_eq!(
            classify_converged(&dirty),
            WindowStatus::Recovered {
                via: RecoveryKind::GuardIntervention
            }
        );
    }

    #[test]
    fn isolate_returns_value_or_panic_message() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        assert_eq!(isolate(|| -> u8 { panic!("boom") }), Err("boom".into()));
    }

    struct RecordingSource {
        calls: Vec<String>,
    }

    impl WindowSource for RecordingSource {
        type Item = usize;
        fn setup(&mut self, window: usize) -> usize {
            self.calls.push(format!("setup {window}"));
            window * 10
        }
        fn finalize(&mut self, window: usize, item: usize) {
            self.calls.push(format!("finalize {window} item {item}"));
        }
    }

    fn dummy_output(window: usize) -> WindowOutput {
        WindowOutput {
            window,
            stats: stats_ok(),
            fingerprint: 0.0,
            ranks: None,
            status: WindowStatus::Ok,
            attempts: 1,
        }
    }

    #[test]
    fn run_windows_orders_setup_compute_finalize() {
        let tele = Telemetry::noop();
        let mut src = RecordingSource { calls: Vec::new() };
        let out = run_windows(&mut src, 0..3, None, &tele, |s, w, &item| {
            s.calls.push(format!("compute {w} item {item}"));
            dummy_output(w)
        });
        assert_eq!(out.len(), 3);
        assert_eq!(
            src.calls,
            vec![
                "setup 0",
                "compute 0 item 0",
                "finalize 0 item 0",
                "setup 1",
                "compute 1 item 10",
                "finalize 1 item 10",
                "setup 2",
                "compute 2 item 20",
                "finalize 2 item 20",
            ]
        );
    }

    struct CountingPrefetcher {
        count: usize,
        seen: std::sync::Mutex<Vec<usize>>,
    }

    impl Prefetcher for CountingPrefetcher {
        fn next_after(&self, window: usize) -> Option<usize> {
            (window + 1 < self.count).then_some(window + 1)
        }
        fn prefetch(&self, window: usize) {
            self.seen.lock().unwrap().push(window);
        }
    }

    #[test]
    fn run_windows_prefetches_every_successor_and_times_stalls() {
        let tele = Telemetry::enabled();
        let mut src = RecordingSource { calls: Vec::new() };
        let pf = CountingPrefetcher {
            count: 4,
            seen: std::sync::Mutex::new(Vec::new()),
        };
        let out = run_windows(&mut src, 0..4, Some(&pf), &tele, |_, w, _| dummy_output(w));
        assert_eq!(out.len(), 4);
        assert_eq!(*pf.seen.lock().unwrap(), vec![1, 2, 3]);
        let report = tele.report();
        assert_eq!(report.counter("pipeline.prefetches"), 3);
    }
}
