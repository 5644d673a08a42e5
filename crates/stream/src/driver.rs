//! The streaming execution model driver (paper §3.3.2, §5.1).
//!
//! Replays the sliding-window sequence against the STINGER-like store: for
//! each step the events entering the window are inserted and the events
//! leaving it are deleted — "updates in batches equivalent to the
//! postmortem code", as the paper configured STINGER for fairness — and the
//! analysis is recomputed incrementally from the previous window's ranks.
//! Only one version of the graph exists at a time, so the model has no
//! across-window parallelism: parallelism is limited to inside the kernel
//! and the update batches.
//!
//! The per-window lifecycle runs on the shared execution layer
//! ([`tempopr_core::exec`]): the [`WindowSource`] here is the mutating
//! store replay, and failure handling (panic isolation, the recovery
//! ladder under [`StreamingConfig::recovery`], terminal status assembly)
//! is the same single implementation the postmortem and offline drivers
//! use.

use crate::pagerank::streaming_pagerank_obs;
use crate::store::StreamingGraph;
use std::cell::Cell;
use std::sync::Arc;
use tempopr_core::checkpoint::{self, CheckpointOptions, CheckpointSink, DurableRun};
use tempopr_core::exec::{
    oracle_from_events, run_windows, RecoveryPolicy, WindowExecutor, WindowSource,
};
use tempopr_core::{EngineError, RunOutput, WindowOutput, WindowRanks};
use tempopr_core::{FaultPlan, RetainMode, TelemetryKernelBridge};
use tempopr_graph::{EventLog, WindowSpec};
use tempopr_kernel::{thread_pool, Init, Obs, PrConfig, PrWorkspace, Scheduler};
use tempopr_telemetry::{Phase as RunPhase, Telemetry, TraceEvent, TraceKind};

/// How ranks are updated after each window's batch of edge updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncrementalMode {
    /// Recompute from a uniform start every window (no incrementality;
    /// isolates the cost of the streaming data structure).
    Recompute,
    /// Warm-restart power iteration from the previous ranks (the robust
    /// realization of STINGER's incremental PageRank).
    #[default]
    WarmRestart,
}

/// Configuration of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// PageRank parameters.
    pub pr: PrConfig,
    /// Incremental update strategy.
    pub incremental: IncrementalMode,
    /// Scheduler for in-kernel parallelism (the model's only parallelism).
    pub scheduler: Scheduler,
    /// Use in-kernel parallelism at all.
    pub parallel_kernel: bool,
    /// Worker threads (0 = every core).
    pub threads: usize,
    /// Output retention.
    pub retain: RetainMode,
    /// Deterministic fault injection plan (testing only). Empty by
    /// default; when empty, the run takes exactly the fault-free code
    /// path. Mirrors the postmortem engine's plan so the driver's
    /// failure/cold-restart path is testable.
    pub faults: FaultPlan,
    /// Recovery rungs for failed windows. Defaults to
    /// [`RecoveryPolicy::fail_only`] — the streaming baseline historically
    /// reports a window that cannot converge as `Failed` and cold-restarts
    /// the next — but accepts the full ladder for cross-driver parity
    /// testing.
    pub recovery: RecoveryPolicy,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            pr: PrConfig::default(),
            incremental: IncrementalMode::WarmRestart,
            scheduler: Scheduler::default(),
            parallel_kernel: true,
            threads: 0,
            retain: RetainMode::Full,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::fail_only(),
        }
    }
}

/// Runs the streaming model over the whole window sequence.
///
/// ```
/// use tempopr_graph::{Event, EventLog, WindowSpec};
/// use tempopr_stream::{run_streaming, StreamingConfig};
/// let log = EventLog::from_unsorted(
///     (0..60u32).map(|i| Event::new(i % 8, (i * 3 + 1) % 8, i as i64)).collect(),
///     8,
/// ).unwrap();
/// let spec = WindowSpec::covering(&log, 20, 10).unwrap();
/// let out = run_streaming(&log, spec, &StreamingConfig::default()).unwrap();
/// assert_eq!(out.windows.len(), spec.count);
/// ```
///
/// Errors only on setup (an unbuildable thread pool); a window whose
/// kernel errors or panics is reported as
/// [`WindowStatus::Failed`](tempopr_core::WindowStatus::Failed) — the
/// replay continues with the next window from a cold start and the output
/// is flagged degraded.
pub fn run_streaming(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &StreamingConfig,
) -> Result<RunOutput, EngineError> {
    run_streaming_traced(log, spec, cfg, &Telemetry::noop())
}

/// [`run_streaming`] recording into a telemetry sink: update batches count
/// toward the window-setup phase (the streaming model's defining cost),
/// kernels report residual traces, cold restarts after a failed window are
/// counted under `recovery.cold_restart`, and the store's resident bytes
/// land in the `memory.stream_bytes` gauge. A noop sink is exactly
/// [`run_streaming`].
pub fn run_streaming_traced(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &StreamingConfig,
    tele: &Telemetry,
) -> Result<RunOutput, EngineError> {
    run_streaming_durable(log, spec, cfg, &CheckpointOptions::default(), tele)
}

/// [`run_streaming_traced`] with durability ([`tempopr_core::checkpoint`]):
/// finalized windows are persisted as `tempopr.ckpt.v2` records when `opts`
/// names a checkpoint directory, and a resume source's valid prefix is
/// restored instead of recomputed.
///
/// The streaming store is stateful, so resume replays the skipped windows'
/// insert/delete batches — without running any kernel — to rebuild the one
/// live graph operation-for-operation, then seeds the warm-start chain from
/// the last checkpointed ranks. The replay reproduces the store bit-exactly
/// (batches are a pure function of the event log and window spec), so the
/// combined output is bit-identical to an uninterrupted run; if the last
/// durable window had failed, the chain restarts cold exactly as the
/// uninterrupted run would.
pub fn run_streaming_durable(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &StreamingConfig,
    opts: &CheckpointOptions,
    tele: &Telemetry,
) -> Result<RunOutput, EngineError> {
    let durable = DurableRun::open(
        opts,
        checkpoint::DRIVER_STREAMING,
        &spec,
        || (streaming_config_hash(cfg), checkpoint::log_fingerprint(log)),
        Ok,
        cfg.faults.crash_after_checkpoint,
        tele,
    )?;
    // The warm-start seed: the last durable window's ranks, if it was
    // valid. An invalid tail record leaves `seed` empty and the first
    // recomputed window cold-restarts, like the uninterrupted run.
    let seed = durable
        .seed()
        .map(|(_, ranks)| ranks.to_dense(log.num_vertices()));
    Ok(durable.run(cfg.retain, |durable| {
        let inner =
            || run_streaming_inner(log, spec, cfg, durable.start(), seed, durable.sink(), tele);
        if cfg.threads > 0 {
            let Ok(pool) = thread_pool(cfg.threads);
            pool.install(inner)
        } else {
            inner()
        }
    }))
}

/// Compatibility hash of a streaming configuration: FNV-1a over the
/// config's `Debug` rendering with crash injection masked out (the crashed
/// run and its resume differ exactly there).
fn streaming_config_hash(cfg: &StreamingConfig) -> u64 {
    let mut c = cfg.clone();
    c.faults.crash_after_checkpoint = None;
    checkpoint::hash_config(&format!("{c:?}"))
}

/// [`WindowSource`] of the streaming model: applies each window's update
/// batch (inserts of entering events, deletes of leaving ones) to the one
/// live version of the graph. The work item is the mutated store itself,
/// accessed through the source.
struct StreamSource<'a> {
    log: &'a EventLog,
    spec: WindowSpec,
    tele: &'a Telemetry,
    graph: StreamingGraph,
}

impl WindowSource for StreamSource<'_> {
    type Item = ();

    fn setup(&mut self, w: usize) {
        let range = self.spec.window(w);
        // The update batch is the streaming model's per-window setup cost.
        let setup = self.tele.phase(RunPhase::WindowSetup);
        // Insert events that entered the window.
        let ins_lo = if w == 0 {
            range.start
        } else {
            // Events up to the previous window's end are already present.
            (self.spec.window(w - 1).end + 1).max(range.start)
        };
        for e in self.log.slice_by_time(ins_lo, range.end) {
            self.graph.insert_event(e.u, e.v, e.t);
        }
        // Delete events that left the window.
        if w > 0 {
            let prev_range = self.spec.window(w - 1);
            let del_hi = (range.start - 1).min(prev_range.end);
            for e in self.log.slice_by_time(prev_range.start, del_hi) {
                let removed = self.graph.delete_event(e.u, e.v);
                debug_assert!(removed, "window {w}: deleting an event never inserted");
            }
        }
        drop(setup);
    }
}

fn run_streaming_inner(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &StreamingConfig,
    start: usize,
    seed: Option<Vec<f64>>,
    ckpt: Option<&Arc<CheckpointSink>>,
    tele: &Telemetry,
) -> Vec<WindowOutput> {
    let n = log.num_vertices();
    let mut ws = PrWorkspace::default();
    let (mut prev, mut have_prev) = match seed {
        Some(s) => (s, true),
        None => (vec![0.0; n], false),
    };
    let sched = cfg.parallel_kernel.then_some(&cfg.scheduler);
    let executor =
        WindowExecutor::new(tele, &cfg.pr, cfg.recovery, cfg.retain).with_checkpoint(ckpt.cloned());
    let mut source = StreamSource {
        log,
        spec,
        tele,
        graph: StreamingGraph::new(n),
    };
    // Resume replay: re-apply the skipped windows' insert/delete batches —
    // kernels stay off — so the one live store reaches window `start - 1`'s
    // exact state before recomputation begins.
    for w in 0..start {
        source.setup(w);
    }

    let windows = run_windows(&mut source, start..spec.count, None, tele, |src, w, _| {
        let range = spec.window(w);
        // A broken warm-start chain is the streaming model's baseline
        // recovery story: the window after a failure recomputes from a
        // cold uniform start.
        if w > 0 && !have_prev {
            tele.add("recovery.cold_restart", 1);
            tele.record(TraceEvent::marker(
                TraceKind::RecoveryColdRestart,
                w as u32,
                1,
                0,
            ));
        }
        let prcfg = PrConfig {
            fault: cfg.faults.fault_for(w).or(cfg.pr.fault),
            ..cfg.pr
        };
        let was_partial = have_prev && cfg.incremental != IncrementalMode::Recompute;
        if was_partial {
            // Every window seeded from the previous one counts here: the
            // streaming model's reuse rate.
            tele.add("warmstart.seeded_windows", 1);
        }
        let attempt_no = Cell::new(0u16);
        // The kernels never mutate the store, so an error or panic poisons
        // only this window: the replay continues, but the warm-start chain
        // is broken (the workspace is discarded and the next window starts
        // cold) unless a recovery rung rescues the window first.
        let (stats, status, override_ranks, attempts) = {
            let graph = &src.graph;
            let ws = &mut ws;
            let prev_ref = &prev;
            let attempt_no = &attempt_no;
            let kernel = move |uniform: bool| {
                attempt_no.set(attempt_no.get() + 1);
                let bridge = TelemetryKernelBridge::new(tele, attempt_no.get());
                let obs = if tele.is_enabled() {
                    Obs::new(&bridge, w as u32)
                } else {
                    Obs::off()
                };
                match cfg.incremental {
                    IncrementalMode::Recompute => {
                        streaming_pagerank_obs(graph, Init::Uniform, &prcfg, sched, ws, obs)
                    }
                    IncrementalMode::WarmRestart => {
                        // Eq. 4-style warm start: shared vertices keep
                        // scaled previous ranks, newcomers take the uniform
                        // share (a plain masked restart leaves newcomers at
                        // 0, which converges slowly for weakly-coupled new
                        // components).
                        let init = if have_prev && !uniform {
                            Init::Partial(prev_ref)
                        } else {
                            Init::Uniform
                        };
                        streaming_pagerank_obs(graph, init, &prcfg, sched, ws, obs)
                    }
                }
            };
            let oracle = || {
                let events = log.slice_by_time(range.start, range.end);
                oracle_from_events(
                    n,
                    events,
                    true,
                    range,
                    &cfg.pr,
                    cfg.recovery.max_oracle_active,
                )
            };
            executor.drive(w as u32, was_partial, n, kernel, oracle)
        };
        let valid = status.is_valid();
        if !valid {
            ws = PrWorkspace::default();
        }
        let local: &[f64] = match &override_ranks {
            Some(x) => x,
            None => ws.ranks(),
        };
        let output = executor.finalize(w, WindowRanks::dense(local), stats, status, attempts);
        // The next window warm-starts from this window's *final* ranks —
        // including oracle-recovered ones — or cold-starts after a failure.
        if valid {
            prev.copy_from_slice(local);
            have_prev = true;
        } else {
            have_prev = false;
        }
        output
    });
    tele.set_gauge("memory.stream_bytes", source.graph.memory_bytes() as f64);
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_core::{run_offline, OfflineConfig};
    use tempopr_graph::Event;

    fn test_log() -> EventLog {
        let mut events = Vec::new();
        for i in 0..500u32 {
            let u = (i * 11 + 1) % 26;
            let v = (i * 5 + 7) % 26;
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        EventLog::from_unsorted(events, 26).unwrap()
    }

    fn tight() -> StreamingConfig {
        StreamingConfig {
            pr: PrConfig {
                alpha: 0.15,
                tol: 1e-12,
                max_iters: 500,
                ..PrConfig::default()
            },
            ..Default::default()
        }
    }

    fn offline_tight() -> OfflineConfig {
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
    fn streaming_matches_offline_overlapping_windows() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 120, 40).unwrap();
        let s = run_streaming(&log, spec, &tight()).unwrap();
        let o = run_offline(&log, spec, &offline_tight()).unwrap();
        for (a, b) in s.windows.iter().zip(o.windows.iter()) {
            let d = a
                .ranks
                .as_ref()
                .unwrap()
                .linf_distance(b.ranks.as_ref().unwrap());
            assert!(d < 1e-8, "window {}: linf {d}", a.window);
            assert_eq!(a.stats.active_vertices, b.stats.active_vertices);
        }
    }

    #[test]
    fn streaming_matches_offline_disjoint_windows() {
        // sw > delta: windows do not overlap; gap events must be skipped.
        let log = test_log();
        let spec = WindowSpec::covering(&log, 50, 90).unwrap();
        let s = run_streaming(&log, spec, &tight()).unwrap();
        let o = run_offline(&log, spec, &offline_tight()).unwrap();
        for (a, b) in s.windows.iter().zip(o.windows.iter()) {
            let d = a
                .ranks
                .as_ref()
                .unwrap()
                .linf_distance(b.ranks.as_ref().unwrap());
            assert!(d < 1e-8, "window {}: linf {d}", a.window);
        }
    }

    #[test]
    fn all_incremental_modes_agree_roughly() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 120, 40).unwrap();
        let warm = run_streaming(&log, spec, &tight()).unwrap();
        let cold = run_streaming(
            &log,
            spec,
            &StreamingConfig {
                incremental: IncrementalMode::Recompute,
                ..tight()
            },
        )
        .unwrap();
        for w in 0..spec.count {
            let a = warm.windows[w].ranks.as_ref().unwrap();
            let b = cold.windows[w].ranks.as_ref().unwrap();
            assert!(a.linf_distance(b) < 1e-8, "warm vs cold, window {w}");
        }
    }

    #[test]
    fn warm_restart_saves_iterations() {
        // Hub-heavy temporal graph: consecutive windows are similar.
        let mut events = Vec::new();
        for i in 0..600u32 {
            let (u, v) = if i % 3 != 0 {
                (0, 1 + i % 29)
            } else {
                (1 + (i * 7) % 29, 1 + (i * 13) % 29)
            };
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        let log = EventLog::from_unsorted(events, 30).unwrap();
        let spec = WindowSpec::covering(&log, 200, 25).unwrap();
        let warm = run_streaming(&log, spec, &tight()).unwrap();
        let cold = run_streaming(
            &log,
            spec,
            &StreamingConfig {
                incremental: IncrementalMode::Recompute,
                ..tight()
            },
        )
        .unwrap();
        assert!(
            warm.total_iterations() < cold.total_iterations(),
            "warm {} vs cold {}",
            warm.total_iterations(),
            cold.total_iterations()
        );
    }

    #[test]
    fn summary_retention_and_threads() {
        let log = test_log();
        let spec = WindowSpec::covering(&log, 120, 40).unwrap();
        let out = run_streaming(
            &log,
            spec,
            &StreamingConfig {
                retain: RetainMode::Summary,
                threads: 2,
                ..tight()
            },
        )
        .unwrap();
        assert!(out.windows.iter().all(|w| w.ranks.is_none()));
        assert_eq!(out.windows.len(), spec.count);
    }
}
