//! The traced run: where the per-layer numbers come from.
//!
//! The layer replays first — they also warm the heap, so that no engine
//! pass pays the first-touch page faults the others do not — then one
//! untraced and one traced postmortem pass (`Telemetry::enabled()`; their
//! ratio is the tracing overhead), engines differing only in `threads` or
//! `mode`, and the baselines. Every call into a layer is wrapped in a span
//! by the adapters in `layers/`. That sequence is one repetition; it lasts
//! a fraction of a second, so it is repeated until `--seconds` are used up
//! and a metric's value is the median over the repetitions. Counts are
//! exact: a count that differs between two repetitions fails the run.
//! Times are diagnostic, never gated. A workload whose configuration does
//! not reach a layer leaves that layer's metrics at 0.

use crate::e2e::{postmortem_config, query_grid, window_spec};
use crate::json::Value;
use crate::layers::core_engine::EngineRun;
use crate::layers::{
    core_checkpoint, core_engine, core_offline, core_storage, graph_io, graph_multiwindow,
    graph_storage, graph_tcsr, graph_windowindex, kernel_pagerank, kernel_query, kernel_scheduler,
    kernel_spmm, stream_driver, telemetry,
};
use crate::metrics::{is_exact_count, Metric, PER_LAYER};
use crate::protocol::{check_pinned_counts, generate, RunSettings, Stamp, WorkDir};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Counts, Kind, Workload, DURABLE_BUDGET_BYTES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tempopr::core::{ParallelMode, PostmortemConfig, PostmortemEngine};
use tempopr::graph::{EventLog, MultiWindowSet, WindowSpec};
use tempopr::kernel::PrConfig;

const MIB: f64 = (1 << 20) as f64;

/// What one workload's traced run produced.
pub struct TraceReport {
    /// What ran: workload, settings, generated counts.
    pub stamp: Stamp,
    /// All 54 per-layer metrics, in table order, one sample a repetition.
    pub metrics: Vec<Metric>,
    /// Whether the traced pass spent exactly the untraced pass's
    /// iterations: observation must not change the computation.
    pub iterations_agree: bool,
    /// Whether every exact count read the same in every repetition.
    pub counts_repeat: bool,
    /// Every span of the first repetition.
    pub spans: Vec<Value>,
    /// Whole wall time of this workload's traced run.
    pub wall_s: f64,
}

impl TraceReport {
    /// Whether the run's checks held.
    pub fn correct(&self) -> bool {
        self.iterations_agree && self.counts_repeat
    }
}

/// Per-layer values by name; a name never set reports 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, _)| Metric::single(name, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What every pass of one traced run shares.
struct Run<'a> {
    w: &'static Workload,
    spans: &'a Spans,
    log: &'a EventLog,
    spec: WindowSpec,
    threads: usize,
    dir: &'a Path,
}

impl Run<'_> {
    /// The workload's configuration, spilling under `dir/<tag>`.
    fn config(&self, tag: &str) -> PostmortemConfig {
        postmortem_config(self.w, self.threads, &self.dir.join(tag))
    }

    fn build(&self, cfg: PostmortemConfig, traced: bool) -> Result<PostmortemEngine, String> {
        let tele = if traced {
            telemetry::enabled()
        } else {
            telemetry::noop()
        };
        core_engine::build(self.spans, self.log, self.spec, cfg, tele)
    }

    /// Where pass `tag` writes its checkpoint manifest.
    fn checkpoint_dir(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}-ckpt"))
    }

    /// Runs `engine` the way the workload does end to end; the durable
    /// workload checkpoints into [`Run::checkpoint_dir`] unless told not to.
    fn run(
        &self,
        tag: &str,
        engine: &PostmortemEngine,
        checkpoint: bool,
    ) -> Result<EngineRun, String> {
        let dir = self.checkpoint_dir(tag);
        let dir = (checkpoint && self.w.kind == Kind::Durable).then_some(dir.as_path());
        core_engine::run(self.spans, engine, self.w.kind, dir)
    }

    /// One pass: build an engine from `cfg` and run it.
    fn engine_pass(
        &self,
        tag: &str,
        cfg: PostmortemConfig,
        checkpoint: bool,
        traced: bool,
    ) -> Result<(PostmortemEngine, EngineRun), String> {
        self.spans.pass(tag, || {
            let engine = self.build(cfg, traced)?;
            let run = self.run(tag, &engine, checkpoint)?;
            Ok((engine, run))
        })
    }
}

/// graph::{tcsr, multiwindow, windowindex, storage}: rebuilds the parts at
/// the engine's part count. Returns them, indexes built, with the seconds
/// the indexes took.
fn graph_replays(
    run: &Run<'_>,
    parts: usize,
    v: &mut Values,
) -> Result<(MultiWindowSet, f64), String> {
    let (spans, log) = (run.spans, run.log);
    let tcsr_s = graph_tcsr::from_log(spans, log);
    v.set(
        "graph.tcsr.build_meps",
        ratio(log.len() as f64 / 1e6, tcsr_s),
    );
    let (set, build_s) = graph_multiwindow::build(spans, log, run.spec, parts)?;
    v.set("graph.multiwindow.build_s", build_s);
    v.set("graph.multiwindow.parts", set.num_parts() as f64);
    v.set(
        "graph.multiwindow.replication",
        ratio(set.total_entries() as f64, 2.0 * log.len() as f64),
    );
    v.set(
        "graph.multiwindow.memory_mib",
        set.memory_bytes() as f64 / MIB,
    );
    let (index_s, index_bytes) = graph_windowindex::build_all(spans, &set);
    v.set("graph.windowindex.build_s", index_s);
    v.set("graph.windowindex.memory_mib", index_bytes as f64 / MIB);
    if run.w.kind == Kind::Durable {
        // One shard worker plus the pipeline's prefetch slot: what the
        // engine charges the budget for.
        let slots = 2;
        let r = graph_storage::replay(
            spans,
            log,
            &run.spec,
            &set,
            DURABLE_BUDGET_BYTES,
            slots,
            &run.dir.join("storage-replay"),
        )?;
        v.set("graph.storage.plan_s", r.plan_s);
        v.set("graph.storage.encode_s", r.encode_s);
        v.set(
            "graph.storage.compression_ratio",
            ratio(r.resident_bytes as f64, r.encoded_bytes as f64),
        );
        v.set(
            "graph.storage.decode_mb_per_s",
            ratio(r.resident_bytes as f64 / 1e6, r.decode_s),
        );
        v.set("graph.storage.file_write_s", r.file_write_s);
        v.set(
            "graph.storage.file_read_mb_per_s",
            ratio(r.encoded_bytes as f64 / 1e6, r.file_read_s),
        );
    }
    Ok((set, index_s))
}

/// kernel::scheduler, then the kernel the workload's configuration
/// reaches. Returns that kernel's sequential seconds.
fn kernel_replays(run: &Run<'_>, set: &MultiWindowSet, v: &mut Values) -> Result<f64, String> {
    let (spans, threads) = (run.spans, run.threads);
    let pr = PrConfig::default();
    let calls = kernel_scheduler::dispatch(spans, threads)?;
    v.set("kernel.scheduler.dispatch_us", stats::median(&calls) * 1e6);
    v.set(
        "kernel.scheduler.dispatch_p99_us",
        stats::quantile(&calls, 0.99) * 1e6,
    );
    match run.w.kind {
        Kind::Windows => {
            let r = kernel_spmm::replay(spans, set, &pr, threads)?;
            v.set("kernel.spmm.seq_s", r.seq_s);
            v.set("kernel.spmm.lane_iterations", r.lane_iterations as f64);
            v.set(
                "kernel.spmm.ns_per_lane_entry",
                ratio(r.seq_s * 1e9, r.lane_entries as f64),
            );
            v.set(
                "kernel.spmm.computed_bytes_per_entry",
                ratio(r.computed_bytes as f64, r.lane_entries as f64),
            );
            v.set("kernel.spmm.par_speedup", ratio(r.seq_s, r.par_s));
            Ok(r.seq_s)
        }
        Kind::Durable => {
            let r = kernel_pagerank::replay(spans, set, &pr, threads)?;
            v.set("kernel.pagerank.seq_s", r.seq_s);
            v.set("kernel.pagerank.iterations", r.iterations as f64);
            v.set("kernel.pagerank.scanned_entries", r.scanned_entries as f64);
            v.set(
                "kernel.pagerank.ns_per_entry",
                ratio(r.seq_s * 1e9, r.scanned_entries as f64),
            );
            v.set(
                "kernel.pagerank.useful_share",
                ratio(r.useful_entries as f64, r.scanned_entries as f64),
            );
            v.set("kernel.pagerank.par_speedup", ratio(r.seq_s, r.par_s));
            Ok(r.seq_s)
        }
        Kind::Queries => {
            let queries = query_grid(run.log.num_vertices());
            let r = kernel_query::replay(spans, set, &queries, &pr)?;
            v.set("kernel.query.seq_s", r.seq_s);
            v.set("kernel.query.cell_iterations", r.cell_iterations as f64);
            v.set(
                "kernel.query.ns_per_lane_entry",
                ratio(r.seq_s * 1e9, r.lane_entries as f64),
            );
            v.set(
                "kernel.query.retired_share",
                ratio(r.lanes_retired as f64, r.lanes as f64),
            );
            Ok(r.seq_s)
        }
    }
}

/// core::checkpoint and core::storage, which only the durable workload
/// reaches. `with_checkpoint` is the untraced pass; its manifest is resumed.
fn durable_replays(
    run: &Run<'_>,
    with_checkpoint: EngineRun,
    v: &mut Values,
) -> Result<(), String> {
    let (_, plain) = run.engine_pass("no-checkpoint", run.config("no-checkpoint"), false, false)?;
    // A difference of two single passes: on a noisy host it can read
    // below zero.
    v.set("core.checkpoint.write_s", with_checkpoint.secs - plain.secs);
    let manifest = run.checkpoint_dir("untraced");
    v.set(
        "core.checkpoint.bytes",
        core_checkpoint::manifest_bytes(&manifest) as f64,
    );
    let (fetch_s, resume_s) = run.spans.pass("cold-fetch-and-resume", || {
        let engine = run.build(run.config("resume"), false)?;
        let fetch_s = core_storage::cold_fetch(run.spans, &engine)?;
        let resume_s = core_checkpoint::resume(run.spans, &engine, &manifest)?;
        Ok::<_, String>((fetch_s, resume_s))
    })?;
    v.set("core.storage.fetch_s", fetch_s);
    v.set("core.checkpoint.resume_s", resume_s);
    Ok(())
}

/// Runs one workload's traced run: repetitions of [`run_once`] until
/// `settings.seconds` are used up (one under `--smoke`), merged.
pub fn run_workload(w: &'static Workload, settings: &RunSettings) -> Result<TraceReport, String> {
    let wall = Instant::now();
    let mut report = run_once(w, settings)?;
    while !settings.smoke && wall.elapsed().as_secs_f64() < settings.seconds {
        let again = run_once(w, settings)?;
        report.iterations_agree &= again.iterations_agree;
        for (m, a) in report.metrics.iter_mut().zip(&again.metrics) {
            report.counts_repeat &= !is_exact_count(m.name) || m.samples[0] == a.samples[0];
            m.samples.extend(&a.samples);
        }
    }
    report.stamp.reps = report.metrics[0].samples.len();
    report.wall_s = wall.elapsed().as_secs_f64();
    Ok(report)
}

/// One repetition of the traced run.
fn run_once(w: &'static Workload, settings: &RunSettings) -> Result<TraceReport, String> {
    let wall = Instant::now();
    let dir = WorkDir::create(&format!("trace-{}", w.name))?;
    let generated = generate(w, settings.seed, dir.path())?;
    let threads = settings.threads;
    let spans = Spans::new(w.name);
    let mut v = Values::default();

    // graph::io, plus the spec every later pass shares.
    let (log, ingest_s) = spans.pass("ingest", || graph_io::ingest(&spans, &generated.events))?;
    v.set("graph.io.ingest_s", ingest_s);
    v.set(
        "graph.io.ingest_mb_per_s",
        ratio(generated.event_file_bytes as f64 / 1e6, ingest_s),
    );
    let run = Run {
        w,
        spans: &spans,
        log: &log,
        spec: window_spec(w, &log, settings.window_cap(w))?,
        threads,
        dir: dir.path(),
    };

    // The engine of the untraced pass is built first: its part count is
    // the one the replays rebuild the parts at.
    let engine = spans.pass("untraced-build", || {
        run.build(run.config("untraced"), false)
    })?;
    let counts = Counts {
        events: generated.events_len,
        vertices: generated.vertices,
        windows: run.spec.count,
        parts: engine.num_parts(),
    };
    check_pinned_counts(w, settings.seed, settings.smoke, counts)?;
    let (set, index_s) =
        spans.pass("graph-replay", || graph_replays(&run, counts.parts, &mut v))?;
    let kernel_seq_s = spans.pass("kernel-replay", || kernel_replays(&run, &set, &mut v))?;
    drop(set);

    // core::engine: the untraced pass, then the traced one.
    let untraced = spans.pass("untraced-run", || run.run("untraced", &engine, true))?;
    v.set("core.engine.run_s", untraced.secs);
    v.set("core.engine.iterations", untraced.iterations as f64);
    drop(engine);
    let (engine, traced) = run.engine_pass("traced", run.config("traced"), true, true)?;
    v.set(
        "telemetry.overhead_ratio",
        ratio(traced.secs, untraced.secs),
    );
    if w.kind == Kind::Durable {
        let (decodes, evictions, hits) = telemetry::storage_counters(&engine);
        let peak = core_storage::peak_resident_bytes(&engine);
        v.set("core.storage.decodes", decodes as f64);
        v.set("core.storage.evictions", evictions as f64);
        v.set(
            "core.storage.cache_hit_share",
            ratio(hits as f64, (hits + decodes) as f64),
        );
        v.set("core.storage.peak_resident_mib", peak as f64 / MIB);
        v.set(
            "core.storage.budget_fill",
            peak as f64 / DURABLE_BUDGET_BYTES as f64,
        );
    }
    drop(engine);

    // Engines differing only in `threads` or `mode`.
    let t1_cfg = PostmortemConfig {
        threads: 1,
        ..run.config("threads-1")
    };
    let (_, t1) = run.engine_pass("threads-1", t1_cfg, true, false)?;
    let seq_cfg = PostmortemConfig {
        mode: ParallelMode::Sequential,
        ..run.config("sequential")
    };
    let seq = if seq_cfg == run.config("sequential") {
        // Already sequential: the untraced pass is that engine.
        untraced
    } else {
        run.engine_pass("sequential", seq_cfg, true, false)?.1
    };
    v.set("core.engine.t1_run_s", t1.secs);
    v.set("core.engine.seq_run_s", seq.secs);
    v.set(
        "core.engine.scaling_eff",
        ratio(t1.secs, threads as f64 * untraced.secs),
    );
    v.set("core.engine.mode_overhead", ratio(t1.secs, seq.secs));
    v.set(
        "core.engine.orchestration_share",
        1.0 - ratio(kernel_seq_s + index_s, seq.secs),
    );
    if w.kind == Kind::Durable {
        durable_replays(&run, untraced, &mut v)?;
    }

    // The baselines. `batch-query`'s baseline is the looped engine, whose
    // iteration count under full initialization is the batched one's, so
    // the offline driver stays off its path and the saved share is 0.
    if w.kind != Kind::Queries {
        let offline = spans.pass("offline", || {
            core_offline::run(&spans, &log, run.spec, threads)
        })?;
        v.set("core.offline.run_s", offline.secs);
        v.set("core.offline.iterations", offline.iterations as f64);
        v.set(
            "core.engine.iters_saved_share",
            1.0 - ratio(untraced.iterations as f64, offline.iterations as f64),
        );
    }
    if w.streaming {
        let stream = spans.pass("streaming", || {
            stream_driver::run(&spans, &log, run.spec, threads)
        })?;
        v.set("stream.driver.run_s", stream.secs);
        v.set("stream.driver.iterations", stream.iterations as f64);
    }

    Ok(TraceReport {
        stamp: Stamp {
            workload: w,
            settings: settings.clone(),
            counts,
            fingerprint: generated.fingerprint,
            reps: 1,
        },
        metrics: v.into_metrics(),
        iterations_agree: traced.iterations == untraced.iterations,
        counts_repeat: true,
        spans: spans.finish(),
        wall_s: wall.elapsed().as_secs_f64(),
    })
}
