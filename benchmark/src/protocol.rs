//! The run protocol of the end-to-end numbers.
//!
//! The parent generates the event log from the seed, writes it with
//! `write_binary_file` into a fresh work directory, then measures in
//! [`ROUNDS`] rounds. A round runs every arm once, each as a child process
//! of the parent's own executable — one child at a time while the parent
//! blocks. A child makes one pass on its cold heap, like a user's CLI run
//! (its ranks are the ones checked, its peak memory the one reported),
//! then repeats the pass until its share of `--seconds` is used up. A pass
//! lasts some 20 ms on one thread, so a run collects several hundred per
//! arm, in as many processes as there are rounds; a timed metric's value is
//! the fastest pass of them all, with the median and the maximum printed
//! beside it. `metrics::Estimator` and the README say why each of these —
//! short passes, one thread, many processes, the minimum — is what this
//! shared host needs. A fixed probe runs between rounds, and when the two
//! probes around a round both read a memory bandwidth more than 15 % off
//! the run's median probe, one more round is run (at most one per run) —
//! the decision never looks at a pass's own time.

use crate::e2e::{Arm, ArmOutput, Cell};
use crate::host::{Probe, ProbeReading};
use crate::json::{count, n, obj, s, Value};
use crate::metrics::{Estimator, Metric};
use crate::workloads::{Counts, Kind, Workload, DURABLE_BUDGET_BYTES, PINNED_SEED, RANK_TOLERANCE};
use crate::{cells, stats};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use tempopr::core::checkpoint::log_fingerprint;
use tempopr::graph::io::write_binary_file;

/// Threads of every arm of the end-to-end run. One, because a pass on two
/// threads is only as fast as the program when both cores are left alone
/// at the same moment, which on a busy shared host does not happen often
/// enough to be found (README, "Why one thread"). The traced run uses
/// `host::threads()` and reports the scaling.
pub const E2E_THREADS: usize = 1;

/// Rounds of a run: each arm runs in this many processes, spread over the
/// whole run. A process keeps the address layout it was dealt — with it a
/// floor of its own, a few percent off its neighbour's — so the fastest
/// pass is looked for in several.
pub const ROUNDS: usize = 6;

/// How `--seconds` is shared among the arms of a run. The postmortem arm
/// is the system under test and gets half; the baseline gets the rest, less
/// what the streaming arm takes on the one workload that has it.
const POSTMORTEM_SHARE: f64 = 0.5;
/// The streaming arm's share (it is reported, not gated).
const STREAMING_SHARE: f64 = 0.1;

/// A round is flagged when both probes around it deviate this much from
/// the run's median probe.
const PROBE_TOLERANCE: f64 = 0.15;

/// At most this many rounds are added per run (for the first flagged):
/// when the host's speed shifts in the middle of a run, half its probes
/// sit off the median, and the run has a time cap to keep.
const MAX_RETRIES: usize = 1;

/// `--smoke` keeps this share of the windows.
const SMOKE_WINDOW_DIVISOR: usize = 10;

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, shared among the arms and rounds (a child makes
    /// at least one timed pass, however small its share).
    pub seconds: f64,
    /// One round of one timed pass per arm over a tenth of the windows.
    pub smoke: bool,
    /// Worker threads: [`E2E_THREADS`] end to end, `host::threads()` traced.
    pub threads: usize,
}

impl RunSettings {
    /// The cap `--smoke` puts on `w`'s window count.
    pub fn window_cap(&self, w: &Workload) -> Option<usize> {
        self.smoke
            .then(|| (w.at_seed_42.windows / SMOKE_WINDOW_DIVISOR).max(2))
    }

    /// Rounds of this run.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    /// The share of `--seconds` that one child of `arm` of `w` measures
    /// for (none under `--smoke`, which makes its one timed pass and stops).
    pub fn child_seconds(&self, w: &Workload, arm: Arm) -> f64 {
        if self.smoke {
            return 0.0;
        }
        let streaming = if w.streaming { STREAMING_SHARE } else { 0.0 };
        let share = match arm {
            Arm::Postmortem => POSTMORTEM_SHARE,
            Arm::Baseline => 1.0 - POSTMORTEM_SHARE - streaming,
            Arm::Streaming => streaming,
        };
        self.seconds * share / ROUNDS as f64
    }
}

/// A work directory under `benchmark/work`, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `benchmark/work/<label>-<pid>-<nanos>`.
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = crate::work_root().join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The generated input of one workload run.
pub struct Input {
    /// Where the event file was written.
    pub events: PathBuf,
    /// Size of the event file.
    pub event_file_bytes: u64,
    /// Events and vertices generated.
    pub events_len: usize,
    /// Vertex universe.
    pub vertices: usize,
    /// `log_fingerprint` of the generated log.
    pub fingerprint: u64,
}

/// Generates the workload's event log from `seed` and writes it into `dir`.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Input, String> {
    let log = w.dataset.spec().generate(w.scale, seed);
    let events = dir.join("events.bin");
    write_binary_file(&log, &events).map_err(|e| format!("writing the event file: {e}"))?;
    let event_file_bytes = std::fs::metadata(&events).map_or(0, |m| m.len());
    Ok(Input {
        events,
        event_file_bytes,
        events_len: log.len(),
        vertices: log.num_vertices(),
        fingerprint: log_fingerprint(&log),
    })
}

/// Fails when a seed-42 run generated other counts than the pinned ones
/// (a smoke run caps the windows, so only events and vertices are pinned
/// there).
pub fn check_pinned_counts(
    w: &Workload,
    seed: u64,
    smoke: bool,
    got: Counts,
) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    let want = if smoke {
        Counts {
            windows: got.windows,
            parts: got.parts,
            ..w.at_seed_42
        }
    } else {
        w.at_seed_42
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: seed {PINNED_SEED} generated {got:?}, the pinned counts are {want:?}",
            w.name
        ))
    }
}

/// What one workload's end-to-end run produced.
pub struct E2eReport {
    /// What ran: workload, settings, generated counts, passes.
    pub stamp: Stamp,
    /// Timed passes of the round the noise guard added (0 when it added
    /// none).
    pub passes_retried: usize,
    /// Every probe reading, in order.
    pub probes: Vec<ProbeReading>,
    /// Gated end-to-end metrics, then the ungated ones.
    pub metrics: Vec<Metric>,
    /// Cells checked (every window or cell of every pass of every arm).
    pub attempted: u64,
    /// The cold first pass of a postmortem child, in seconds (median over
    /// the children).
    pub cold_e2e_s: f64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Largest L∞ distance to the reference arm seen on any window.
    pub max_linf: f64,
    /// Peak resident part bytes over the postmortem passes (durable only).
    pub peak_resident_bytes: usize,
    /// Whole wall time of this workload's run, generation included.
    pub wall_s: f64,
}

impl E2eReport {
    /// Whether every output was correct and the budget held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.budget_held()
    }

    /// Whether resident part bytes stayed within the durable budget.
    pub fn budget_held(&self) -> bool {
        self.stamp.workload.kind != Kind::Durable
            || self.peak_resident_bytes <= DURABLE_BUDGET_BYTES
    }

    /// The gated metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

struct Runner<'a> {
    w: &'static Workload,
    settings: &'a RunSettings,
    input: &'a Input,
    dir: &'a Path,
    probe: Probe,
    probes: Vec<ProbeReading>,
    spawned: usize,
    /// What every child of every arm measured, in the order they ran.
    children: Vec<(Arm, ArmOutput)>,
}

impl Runner<'_> {
    /// Runs one arm in a child of its own.
    fn child(&mut self, arm: Arm) -> Result<(), String> {
        self.spawned += 1;
        let scratch = self.dir.join(format!("child{}", self.spawned));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("creating child dir: {e}"))?;
        let result = scratch.join("result.bin");
        let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("child")
            .args(["--workload", self.w.name, "--arm", arm.name()])
            .arg("--events")
            .arg(&self.input.events)
            .args(["--threads", &self.settings.threads.to_string()])
            .args([
                "--seconds",
                &self.settings.child_seconds(self.w, arm).to_string(),
            ])
            .arg("--scratch")
            .arg(&scratch)
            .arg("--result")
            .arg(&result)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(cap) = self.settings.window_cap(self.w) {
            cmd.args(["--window-cap", &cap.to_string()]);
        }
        // `status` blocks until the child has ended.
        let status = cmd.status().map_err(|e| format!("spawning a child: {e}"))?;
        if !status.success() {
            return Err(format!(
                "{} child of {} failed ({status})",
                arm.name(),
                self.w.name
            ));
        }
        let out = cells::read(&result).map_err(|e| format!("reading a child's result: {e}"))?;
        let _ = std::fs::remove_dir_all(&scratch);
        self.children.push((arm, out));
        Ok(())
    }

    /// Runs every arm once, with a probe on either side of the round (the
    /// one before is the previous round's). Returns the passes it timed.
    fn round(&mut self) -> Result<usize, String> {
        if self.probes.is_empty() {
            self.probes.push(self.probe.read());
        }
        let before = self.children.len();
        self.child(Arm::Postmortem)?;
        self.child(Arm::Baseline)?;
        if self.w.streaming {
            self.child(Arm::Streaming)?;
        }
        self.probes.push(self.probe.read());
        Ok(self.children[before..]
            .iter()
            .map(|(_, out)| out.e2e_s.len())
            .sum())
    }
}

/// Checks one pass against the reference arm's cells and returns
/// `(attempted, failed, max_linf)`.
fn check_pass(w: &Workload, pass: &[Cell], reference: &[Cell]) -> (u64, u64, f64) {
    let mut failed = 0u64;
    let mut max_linf = 0f64;
    for (i, c) in pass.iter().enumerate() {
        let r = reference
            .get(i)
            .filter(|r| (r.window, r.query) == (c.window, c.query));
        let good = match (r, w.kind) {
            (None, _) => false,
            // Bitwise against the looped arm. Convergence is compared, not
            // required: at alpha = 0.10 the residual after the 100
            // iterations the default configuration allows is 0.9^100 ≈
            // 2.7e-5, above the 1e-6 tolerance, in both arms alike.
            (Some(r), Kind::Queries) => {
                c.converged == r.converged && c.fingerprint == r.fingerprint
            }
            (Some(r), _) => {
                let d = c.ranks.linf_distance(&r.ranks);
                max_linf = max_linf.max(d);
                c.ok && c.converged && d <= RANK_TOLERANCE
            }
        };
        failed += u64::from(!good);
    }
    // A pass that lost cells fails the ones it lost.
    let missing = reference.len().saturating_sub(pass.len()) as u64;
    (pass.len() as u64 + missing, failed + missing, max_linf)
}

/// Runs one workload end to end under the protocol above.
pub fn run_workload(w: &'static Workload, settings: &RunSettings) -> Result<E2eReport, String> {
    let wall = Instant::now();
    let dir = WorkDir::create(w.name)?;
    let input = generate(w, settings.seed, dir.path())?;
    let mut runner = Runner {
        w,
        settings,
        input: &input,
        dir: dir.path(),
        probe: Probe::default(),
        probes: Vec::new(),
        spawned: 0,
        children: Vec::new(),
    };
    for _ in 0..settings.rounds() {
        runner.round()?;
    }

    // The noise guard: the probes alone decide whether a round is added.
    // Round `r` ran between probes `r` and `r + 1`.
    let mut passes_retried = 0;
    if !settings.smoke {
        let readings: Vec<f64> = runner.probes.iter().map(|p| p.stream_gb_per_s).collect();
        let median = stats::median(&readings);
        let noisy = |i: usize| (readings[i] / median - 1.0).abs() > PROBE_TOLERANCE;
        let flagged = (0..ROUNDS).filter(|&r| noisy(r) && noisy(r + 1)).count();
        for _ in 0..flagged.min(MAX_RETRIES) {
            passes_retried += runner.round()?;
        }
    }

    // Correctness: every cell of every child's first pass against the
    // first baseline child's, and every cell of every timed pass against
    // its own child's first pass (the child counted those).
    let of_arm = |arm: Arm| {
        runner
            .children
            .iter()
            .filter(move |(a, _)| *a == arm)
            .map(|(_, out)| out)
    };
    let reference = &of_arm(Arm::Baseline)
        .next()
        .ok_or("no baseline child ran")?
        .cells;
    let (mut attempted, mut failed, mut max_linf) = (0u64, 0u64, 0f64);
    for (arm, out) in &runner.children {
        let (n, f, d) = check_pass(w, &out.cells, reference);
        let cells = out.cells.len() as u64;
        attempted += n + cells * out.e2e_s.len() as u64;
        failed += f + out.repeat_mismatches as u64;
        max_linf = max_linf.max(d);
        if w.kind == Kind::Durable && *arm == Arm::Postmortem {
            // Each window the resume from the finished manifest must restore.
            attempted += cells;
            failed += out.resume_mismatches as u64;
        }
    }

    let fastest = |name, samples: Vec<f64>| Metric::new(name, Estimator::Min, samples);
    let times = |arm: Arm| of_arm(arm).flat_map(|o| o.e2e_s.iter().copied()).collect();
    let e2e = fastest("e2e_s", times(Arm::Postmortem));
    let baseline = fastest("baseline_e2e_s", times(Arm::Baseline));
    let speedup = baseline.value() / e2e.value();
    let reps = e2e.samples.len();
    let mut metrics = vec![
        e2e,
        fastest(
            "setup_s",
            of_arm(Arm::Postmortem)
                .flat_map(|o| o.setup_s.iter().copied())
                .collect(),
        ),
        baseline,
        Metric::new(
            "peak_rss_mib",
            Estimator::Median,
            of_arm(Arm::Postmortem)
                .map(|o| o.peak_rss_kib as f64 / 1024.0)
                .collect(),
        ),
    ];
    if w.streaming {
        metrics.push(fastest("streaming_e2e_s", times(Arm::Streaming)));
    }
    metrics.push(Metric::single(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
    ));
    metrics.push(Metric::single("speedup_vs_baseline", speedup));

    let post = of_arm(Arm::Postmortem)
        .next()
        .ok_or("no postmortem child ran")?;
    let counts = Counts {
        events: input.events_len,
        vertices: input.vertices,
        windows: post.windows,
        parts: post.parts,
    };
    check_pinned_counts(w, settings.seed, settings.smoke, counts)?;
    Ok(E2eReport {
        stamp: Stamp {
            workload: w,
            settings: settings.clone(),
            counts,
            fingerprint: input.fingerprint,
            reps,
        },
        passes_retried,
        peak_resident_bytes: of_arm(Arm::Postmortem)
            .map(|o| o.peak_resident_bytes)
            .max()
            .unwrap_or(0),
        cold_e2e_s: stats::median(
            &of_arm(Arm::Postmortem)
                .map(|o| o.cold_e2e_s)
                .collect::<Vec<f64>>(),
        ),
        probes: runner.probes,
        metrics,
        attempted,
        failed,
        max_linf,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// The stamp of one workload run: what was generated and how it was run.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed, threads, smoke.
    pub settings: RunSettings,
    /// Generated counts (parts from the postmortem engine).
    pub counts: Counts,
    /// `log_fingerprint` of the event file.
    pub fingerprint: u64,
    /// Timed postmortem passes (repetitions in a traced run).
    pub reps: usize,
}

impl Stamp {
    /// The stamp as it goes into `--out`.
    pub fn to_json(&self) -> Value {
        let (w, c) = (self.workload, self.counts);
        obj([
            ("workload", s(w.name)),
            ("dataset", s(w.dataset.name())),
            ("scale", n(w.scale)),
            ("delta_days", count(w.delta_days as u64)),
            ("sw_days", count(w.sw_days as u64)),
            ("seed", count(self.settings.seed)),
            ("threads", count(self.settings.threads as u64)),
            ("reps", count(self.reps as u64)),
            ("smoke", Value::Bool(self.settings.smoke)),
            ("events", count(c.events as u64)),
            ("vertices", count(c.vertices as u64)),
            ("windows", count(c.windows as u64)),
            ("parts", count(c.parts as u64)),
            ("log_fingerprint", s(format!("{:016x}", self.fingerprint))),
        ])
    }

    /// The stamp as the head of a workload's printed report.
    pub fn header(&self) -> String {
        let (w, c) = (self.workload, self.counts);
        format!(
            "== {} ==\n  why: {}\n  input: {} scale {}, delta {} d, sw {} d -> {} events, {} vertices, \
             {} windows, {} parts; log_fingerprint {:016x}\n  seed {}, threads {}, reps {}{}",
            w.name,
            w.why,
            w.dataset.name(),
            w.scale,
            w.delta_days,
            w.sw_days,
            c.events,
            c.vertices,
            c.windows,
            c.parts,
            self.fingerprint,
            self.settings.seed,
            self.settings.threads,
            self.reps,
            if self.settings.smoke {
                " (smoke: a tenth of the windows)"
            } else {
                ""
            },
        )
    }
}

/// Prints the probe summary lines (`host.*`) of one run.
pub fn probe_lines(probes: &[ProbeReading]) -> Vec<String> {
    let series = |f: fn(&ProbeReading) -> f64| probes.iter().map(f).collect::<Vec<_>>();
    let line = |name: &str, unit: &str, v: Vec<f64>| {
        format!(
            "  {:<38} {:>16.6} {:<10} (median of {} probes; min {:.6}, max {:.6})",
            name,
            stats::median(&v),
            unit,
            v.len(),
            stats::min(&v),
            stats::max(&v)
        )
    };
    vec![
        line(
            "host.stream_gb_per_s",
            "GB/s",
            series(|p| p.stream_gb_per_s),
        ),
        line("host.spawn_us", "us", series(|p| p.spawn_us)),
    ]
}
