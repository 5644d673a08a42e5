//! The *offline* execution model (paper §3.3.1): rebuild a fresh static
//! graph for every window and run PageRank from scratch.
//!
//! The model's defining property is that its cost is dominated by repeated
//! graph construction, but it is massively parallel across windows (every
//! window is independent — no partial initialization is possible). The
//! builder here is the natural optimized one: the time-sorted event log is
//! sliced by binary search, then deduplicated into a CSR — rebuilt *in
//! place* into the previous window's buffers, so the steady-state walk
//! allocates nothing per window.
//!
//! The per-window lifecycle (setup → kernel → terminal status → output)
//! runs on the shared execution layer ([`crate::exec`]): the
//! [`WindowSource`] here is the CSR rebuilder, and the in-order walk can
//! overlap the next window's CSR construction with the current kernel when
//! [`OfflineConfig::pipeline`] is set.

use crate::checkpoint::{self, CheckpointOptions, CheckpointSink, DurableRun};
use crate::config::{FaultPlan, RetainMode};
use crate::error::EngineError;
use crate::exec::{
    oracle_from_events, run_windows, Prefetcher, RecoveryPolicy, WindowExecutor, WindowSource,
};
use crate::lock;
use crate::observe::TelemetryKernelBridge;
use crate::result::{RunOutput, WindowOutput, WindowRanks};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use tempopr_graph::{Csr, EventLog, WindowSpec};
use tempopr_kernel::{pagerank_csr_obs, thread_pool, Init, Obs, PrConfig, PrWorkspace, Scheduler};
use tempopr_telemetry::{Phase as RunPhase, Telemetry};

/// Configuration of an offline run.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineConfig {
    /// PageRank parameters.
    pub pr: PrConfig,
    /// Process windows in parallel (the model's natural parallelism).
    pub parallel_windows: bool,
    /// Scheduler for the across-window loop (and, when
    /// `parallel_windows` is false, for inside-PageRank parallelism).
    pub scheduler: Scheduler,
    /// Worker threads (0 = every core).
    pub threads: usize,
    /// Output retention.
    pub retain: RetainMode,
    /// Deterministic fault injection plan (testing only; empty by default).
    pub faults: FaultPlan,
    /// Recovery rungs for failed windows. Defaults to
    /// [`RecoveryPolicy::fail_only`] — the offline baseline historically
    /// reports a window that cannot converge as `Failed` — but accepts the
    /// full ladder for cross-driver parity testing.
    pub recovery: RecoveryPolicy,
    /// Overlap the next window's CSR construction with the current
    /// window's kernel (sequential walks only). Ranks are identical either
    /// way; only wall-clock build time moves off the critical path. Off by
    /// default.
    pub pipeline: bool,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            pr: PrConfig::default(),
            parallel_windows: true,
            scheduler: Scheduler::default(),
            threads: 0,
            retain: RetainMode::Full,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::fail_only(),
            pipeline: false,
        }
    }
}

/// Runs the offline model: for each window, slice the event log, build a
/// fresh CSR over the full vertex universe, and run uniformly-initialized
/// PageRank.
///
/// ```
/// use tempopr_core::{run_offline, OfflineConfig};
/// use tempopr_graph::{Event, EventLog, WindowSpec};
/// let log = EventLog::from_unsorted(
///     (0..60u32).map(|i| Event::new(i % 8, (i * 3 + 1) % 8, i as i64)).collect(),
///     8,
/// ).unwrap();
/// let spec = WindowSpec::covering(&log, 20, 10).unwrap();
/// let out = run_offline(&log, spec, &OfflineConfig::default()).unwrap();
/// assert_eq!(out.windows.len(), spec.count);
/// ```
///
/// Errors only on setup (an unbuildable thread pool); per-window kernel
/// failures are contained as
/// [`WindowStatus::Failed`](crate::result::WindowStatus::Failed) entries
/// and set the output's `degraded` flag, exactly like the postmortem
/// engine.
pub fn run_offline(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &OfflineConfig,
) -> Result<RunOutput, EngineError> {
    run_offline_traced(log, spec, cfg, &Telemetry::noop())
}

/// [`run_offline`] recording into a telemetry sink: per-window CSR builds
/// count toward the build phase (the offline model's defining cost),
/// kernels report SpMV/check time and the convergence trace, and CSR sizes
/// land in the `memory.csr_bytes` histogram. A noop sink is exactly
/// [`run_offline`].
pub fn run_offline_traced(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &OfflineConfig,
    tele: &Telemetry,
) -> Result<RunOutput, EngineError> {
    run_offline_durable(log, spec, cfg, &CheckpointOptions::default(), tele)
}

/// [`run_offline_traced`] with durability ([`crate::checkpoint`]): finalized
/// windows are persisted as `tempopr.ckpt.v2` records when `opts` names a
/// checkpoint directory, and a resume source's valid prefix is restored
/// instead of recomputed. Offline windows are independent and always start
/// from uniform init, so resume is a pure prefix skip — bit-identical under
/// any scheduling, including `parallel_windows` (records are reordered into
/// window order before hitting disk).
pub fn run_offline_durable(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &OfflineConfig,
    opts: &CheckpointOptions,
    tele: &Telemetry,
) -> Result<RunOutput, EngineError> {
    let durable = DurableRun::open(
        opts,
        checkpoint::DRIVER_OFFLINE,
        &spec,
        || (offline_config_hash(cfg), checkpoint::log_fingerprint(log)),
        Ok,
        cfg.faults.crash_after_checkpoint,
        tele,
    )?;
    Ok(durable.run(cfg.retain, |durable| {
        let inner = || run_offline_inner(log, spec, cfg, durable.start(), durable.sink(), tele);
        if cfg.threads > 0 {
            let Ok(pool) = thread_pool(cfg.threads);
            pool.install(inner)
        } else {
            inner()
        }
    }))
}

/// Compatibility hash of an offline configuration: FNV-1a over the config's
/// `Debug` rendering with crash injection masked out (the crashed run and
/// its resume differ exactly there).
fn offline_config_hash(cfg: &OfflineConfig) -> u64 {
    let mut c = cfg.clone();
    c.faults.crash_after_checkpoint = None;
    checkpoint::hash_config(&format!("{c:?}"))
}

/// One window's symmetric CSR over the whole vertex universe: the
/// per-window construction the offline model pays for, rebuilt into
/// `spare`'s buffers when a recycled CSR is at hand.
#[derive(Clone, Copy)]
struct WindowCsrs<'a> {
    log: &'a EventLog,
    spec: WindowSpec,
    tele: &'a Telemetry,
}

impl WindowCsrs<'_> {
    fn build(&self, window: usize, spare: Option<Csr>) -> Csr {
        let range = self.spec.window(window);
        let _build = self.tele.phase(RunPhase::Build);
        let events = self.log.slice_by_time(range.start, range.end);
        let n = self.log.num_vertices();
        match spare {
            Some(mut csr) => {
                csr.rebuild_from_events(n, events);
                csr
            }
            None => Csr::from_events(n, events),
        }
    }
}

/// [`WindowSource`] of the offline model: (re)builds one CSR per window,
/// recycling the previous window's arrays. With a prefetch cache
/// attached, a CSR built ahead of time by the [`OfflinePrefetcher`] is
/// claimed instead of rebuilt.
struct OfflineSource<'a> {
    csrs: WindowCsrs<'a>,
    cache: Option<&'a Mutex<Option<(usize, Csr)>>>,
    spare: Option<Csr>,
}

impl WindowSource for OfflineSource<'_> {
    type Item = Csr;

    fn setup(&mut self, window: usize) -> Csr {
        if let Some(cache) = self.cache {
            let mut slot = lock(cache);
            if matches!(*slot, Some((w, _)) if w == window) {
                if let Some((_, csr)) = slot.take() {
                    return csr;
                }
            }
        }
        self.csrs.build(window, self.spare.take())
    }

    fn finalize(&mut self, _window: usize, csr: Csr) {
        self.spare = Some(csr);
    }
}

/// Builds window `w+1`'s CSR into a shared cache slot while window `w`'s
/// kernel runs. Construction records only wall-clock build time (no trace
/// events), so the overlapped run's deterministic trace is unchanged.
struct OfflinePrefetcher<'a> {
    csrs: WindowCsrs<'a>,
    cache: &'a Mutex<Option<(usize, Csr)>>,
}

impl Prefetcher for OfflinePrefetcher<'_> {
    fn next_after(&self, window: usize) -> Option<usize> {
        let next = window + 1;
        (next < self.csrs.spec.count).then_some(next)
    }

    fn prefetch(&self, window: usize) {
        let spare = lock(self.cache).take().map(|(_, csr)| csr);
        let csr = self.csrs.build(window, spare);
        *lock(self.cache) = Some((window, csr));
    }
}

fn run_offline_inner(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &OfflineConfig,
    start: usize,
    ckpt: Option<&Arc<CheckpointSink>>,
    tele: &Telemetry,
) -> Vec<WindowOutput> {
    let csrs = WindowCsrs { log, spec, tele };
    if cfg.parallel_windows {
        cfg.scheduler.map_reduce_range(
            spec.count - start,
            Vec::new(),
            |r| {
                let mut ws = PrWorkspace::default();
                let mut source = OfflineSource {
                    csrs,
                    cache: None,
                    spare: None,
                };
                run_windows(
                    &mut source,
                    r.start + start..r.end + start,
                    None,
                    tele,
                    |_, w, csr| offline_compute(log, spec, cfg, w, csr, None, ckpt, &mut ws, tele),
                )
            },
            |mut a: Vec<WindowOutput>, mut b| {
                a.append(&mut b);
                a
            },
        )
    } else {
        let cache = Mutex::new(None);
        let prefetcher = cfg.pipeline.then_some(OfflinePrefetcher {
            csrs,
            cache: &cache,
        });
        let prefetcher = prefetcher.as_ref().map(|p| p as &dyn Prefetcher);
        let mut ws = PrWorkspace::default();
        let mut source = OfflineSource {
            csrs,
            cache: cfg.pipeline.then_some(&cache),
            spare: None,
        };
        run_windows(
            &mut source,
            start..spec.count,
            prefetcher,
            tele,
            |_, w, csr| {
                offline_compute(
                    log,
                    spec,
                    cfg,
                    w,
                    csr,
                    Some(&cfg.scheduler),
                    ckpt,
                    &mut ws,
                    tele,
                )
            },
        )
    }
}

/// Runs one prepared window through the shared executor and assembles its
/// terminal output.
#[allow(clippy::too_many_arguments)]
fn offline_compute(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &OfflineConfig,
    w: usize,
    csr: &Csr,
    inner: Option<&Scheduler>,
    ckpt: Option<&Arc<CheckpointSink>>,
    ws: &mut PrWorkspace,
    tele: &Telemetry,
) -> WindowOutput {
    tele.observe("memory.csr_bytes", csr.memory_bytes() as f64);
    let executor =
        WindowExecutor::new(tele, &cfg.pr, cfg.recovery, cfg.retain).with_checkpoint(ckpt.cloned());
    let prcfg = PrConfig {
        fault: cfg.faults.fault_for(w).or(cfg.pr.fault),
        ..cfg.pr
    };
    let range = spec.window(w);
    let attempt_no = Cell::new(0u16);
    // Offline windows always start from uniform init, so the `uniform`
    // retry flag changes nothing — every attempt is a cold recompute.
    let kernel = |_uniform: bool| {
        attempt_no.set(attempt_no.get() + 1);
        let bridge = TelemetryKernelBridge::new(tele, attempt_no.get());
        let obs = if tele.is_enabled() {
            Obs::new(&bridge, w as u32)
        } else {
            Obs::off()
        };
        pagerank_csr_obs(csr, csr, Init::Uniform, &prcfg, inner, ws, obs)
    };
    let oracle = || {
        let events = log.slice_by_time(range.start, range.end);
        oracle_from_events(
            log.num_vertices(),
            events,
            range,
            &cfg.pr,
            cfg.recovery.max_oracle_active,
        )
    };
    let (stats, status, override_ranks, attempts) =
        executor.drive(w as u32, false, log.num_vertices(), kernel, oracle);
    if !status.is_valid() {
        // A failed attempt may have left partial state behind.
        *ws = PrWorkspace::default();
    }
    let local: &[f64] = match &override_ranks {
        Some(x) => x,
        None => ws.ranks(),
    };
    executor.finalize(w, WindowRanks::dense(local), stats, status, attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::SparseRanks;
    use tempopr_graph::Event;

    fn test_log() -> EventLog {
        let mut events = Vec::new();
        for i in 0..300u32 {
            let u = (i * 11 + 1) % 24;
            let v = (i * 5 + 7) % 24;
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        EventLog::from_unsorted(events, 24).unwrap()
    }

    fn tight() -> OfflineConfig {
        OfflineConfig {
            pr: PrConfig {
                alpha: 0.15,
                tol: 1e-12,
                max_iters: 500,
                ..PrConfig::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn offline_matches_reference() {
        use tempopr_kernel::reference_pagerank;
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 30).unwrap();
        let out = run_offline(&log, spec, &tight()).unwrap();
        for w in 0..spec.count {
            let range = spec.window(w);
            let mut edges = Vec::new();
            for e in log.events() {
                if range.contains(e.t) {
                    edges.push((e.u, e.v));
                    edges.push((e.v, e.u));
                }
            }
            let dense = reference_pagerank(24, &edges, &tight().pr);
            let expect = SparseRanks::from_dense(&dense);
            let got = out.windows[w].ranks.as_ref().unwrap();
            assert!(got.linf_distance(&expect) < 1e-8, "window {w}");
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 30).unwrap();
        let par = run_offline(&log, spec, &tight()).unwrap();
        let seq = run_offline(
            &log,
            spec,
            &OfflineConfig {
                parallel_windows: false,
                ..tight()
            },
        )
        .unwrap();
        for (a, b) in par.windows.iter().zip(seq.windows.iter()) {
            assert!((a.fingerprint - b.fingerprint).abs() < 1e-9);
            assert_eq!(a.stats.active_vertices, b.stats.active_vertices);
        }
    }

    #[test]
    fn pipelined_run_is_bit_identical() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 30).unwrap();
        let mk = |pipeline| OfflineConfig {
            parallel_windows: false,
            pipeline,
            ..tight()
        };
        let plain = run_offline(&log, spec, &mk(false)).unwrap();
        let piped = run_offline(&log, spec, &mk(true)).unwrap();
        for (a, b) in plain.windows.iter().zip(piped.windows.iter()) {
            assert_eq!(a.fingerprint.to_bits(), b.fingerprint.to_bits());
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.status, b.status);
        }
    }

    #[test]
    fn summary_retention_has_no_vectors() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 30).unwrap();
        let out = run_offline(
            &log,
            spec,
            &OfflineConfig {
                retain: RetainMode::Summary,
                ..tight()
            },
        )
        .unwrap();
        assert!(out.windows.iter().all(|w| w.ranks.is_none()));
        assert!(out.windows.iter().any(|w| w.fingerprint != 0.0));
    }

    #[test]
    fn explicit_threads_work() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 30).unwrap();
        let out = run_offline(
            &log,
            spec,
            &OfflineConfig {
                threads: 2,
                ..tight()
            },
        )
        .unwrap();
        assert_eq!(out.windows.len(), spec.count);
    }
}
