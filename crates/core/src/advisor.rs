//! Parameter recommendation (paper §6.3.6) and the resolver behind the
//! configuration's `Auto` fields.
//!
//! The paper distills its sweeps into simple rules for users who will not
//! tune: *auto_partitioner with granularity under 4*; pick the
//! parallelization level from the balance of per-window work —
//! application-level when a couple of windows dominate or there are very
//! few windows, window-level when windows are many but individually small,
//! nested otherwise. [`suggest`] encodes those rules and Fig. 12 evaluates
//! them.
//!
//! The paper also calls SpMM "never a bad choice". Measured here, it is
//! one when consecutive windows share no events: the lanes of a batch then
//! have no edge in common, so the shared traversal saves nothing and the
//! lane bookkeeping is pure overhead. On the benchmark's
//! `many-small-windows` input (δ 15 d, sw 30 d, mean overlap 0) only
//! 10.4 % of SpMM{16}'s row-lane slots hold a live cell, and a one-thread
//! `new` + `run` takes 3.32 ms with SpMM{16} against 1.66 ms with SpMV
//! (EXPERIMENTS.md, "Kernel by overlap"). It stays the better choice when
//! the kernel is handed a scheduler on more than one thread: every row
//! loop of every iteration then dispatches to the worker threads, and
//! SpMM makes one sixteenth of SpMV's calls (13.6 against 154 ms on the
//! same input, two threads, `Nested`). [`resolve`] is the one rule set
//! for what a configuration leaves [`KernelKind::Auto`] or
//! [`InitMode::Auto`]; [`crate::PostmortemEngine::new`] calls it on every
//! configuration, and [`suggest_for_profile`] on its own.

use crate::config::{InitMode, KernelKind, ParallelMode, PostmortemConfig};
use tempopr_graph::{EventLog, WindowSpec};
use tempopr_kernel::{Partitioner, Scheduler};

/// Mean event overlap below which seeding from the previous window is
/// pure overhead: nearly nothing carries over, so every window should
/// start from the uniform distribution — and below which batching windows
/// into SpMM lanes shares no traversal, so `Auto` picks SpMV unless the
/// kernel runs on a multi-threaded scheduler ([`resolve`]).
pub const OVERLAP_FULL_BELOW: f64 = 0.05;

/// Mean event overlap a *dominated* (spiky) workload must reach before
/// partial initialization is suggested at all: its consecutive windows
/// differ too much for a stale seed to help below this.
pub const OVERLAP_DOMINATED_PARTIAL: f64 = 0.25;

/// SpMM lanes [`KernelKind::Auto`] resolves to when windows overlap (the
/// paper's 16 rank vectors). An `Auto` kernel also sizes automatic parts
/// by this lane width ([`auto_multiwindows`]), whichever kernel it
/// resolves to.
pub const AUTO_LANES: usize = 16;

/// Workload measurements the rules are based on.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Number of windows.
    pub windows: usize,
    /// Events per window (cheap proxy for per-window edge work).
    pub events_per_window: Vec<usize>,
    /// Share of total work carried by the single heaviest window.
    pub max_share: f64,
    /// Mean fraction of a window's events shared with its predecessor
    /// (0 for a single window): how much a previous-window seed can carry.
    pub mean_overlap: f64,
    /// Worker threads as asked for, 0 meaning all cores; read through
    /// [`WorkloadProfile::threads`], which counts the cores only when a rule
    /// asks. The engine measures on every build, and the count reads cgroup
    /// files (≈ 14 µs on a 2-vCPU host).
    threads: usize,
}

impl WorkloadProfile {
    /// Measures `log` under `spec`. `threads = 0` means "all cores".
    pub fn measure(log: &EventLog, spec: &WindowSpec, threads: usize) -> Self {
        let events_per_window: Vec<usize> = (0..spec.count)
            .map(|w| {
                let r = spec.window(w);
                log.index_range_by_time(r.start, r.end).len()
            })
            .collect();
        let total: usize = events_per_window.iter().sum();
        let max = events_per_window.iter().copied().max().unwrap_or(0);
        let max_share = if total > 0 {
            max as f64 / total as f64
        } else {
            0.0
        };
        // Shared events between consecutive windows: the window ranges
        // intersect in time, so the shared count is one more indexed range
        // lookup per boundary — same cost model as the per-window counts.
        let mut overlap_sum = 0.0;
        let mut boundaries = 0usize;
        for (w, &events) in events_per_window.iter().enumerate().skip(1) {
            let prev = spec.window(w - 1);
            let cur = spec.window(w);
            let (lo, hi) = (cur.start.max(prev.start), cur.end.min(prev.end));
            let shared = if lo <= hi {
                log.index_range_by_time(lo, hi).len()
            } else {
                0
            };
            overlap_sum += shared as f64 / events.max(1) as f64;
            boundaries += 1;
        }
        let mean_overlap = if boundaries > 0 {
            overlap_sum / boundaries as f64
        } else {
            0.0
        };
        WorkloadProfile {
            windows: spec.count,
            events_per_window,
            max_share,
            mean_overlap,
            threads,
        }
    }

    /// Worker threads the run will use.
    pub fn threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Whether a couple of windows dominate the workload (the spiky Enron /
    /// Epinions / HepTh regime of Fig. 4).
    pub fn is_dominated(&self) -> bool {
        self.max_share > 0.4
    }

    /// The initialization mode the measured overlap justifies — see the
    /// decision table in DESIGN.md §9. Dominated workloads face a higher
    /// bar: their windows are spiky, so even moderate *mean* overlap hides
    /// boundaries where the seed is stale.
    pub fn suggested_init_mode(&self) -> InitMode {
        if self.mean_overlap < OVERLAP_FULL_BELOW
            || (self.is_dominated() && self.mean_overlap < OVERLAP_DOMINATED_PARTIAL)
        {
            InitMode::Full
        } else {
            InitMode::Partial
        }
    }
}

/// Automatic multi-window count (used when `num_multiwindows == 0`).
///
/// A part spanning `w` consecutive windows makes one window's SpMV
/// traverse roughly `((w-1)·sw + δ) / δ` times the window's own events, so
/// for the SpMV kernel parts hold about `δ/sw` windows (≈ 2x traversal
/// overhead, ≈ 2x event duplication — the paper's memory/performance
/// tradeoff of §4.1 resolved at its knee). The SpMM kernel shares each
/// traversal across its lanes, so parts are kept wide enough to feed every
/// lane with two regions (preserving partial initialization, §4.4).
/// [`KernelKind::Auto`] keeps the rule of the [`AUTO_LANES`]-lane SpMM
/// default it replaced, whichever kernel it resolves to, so resolving the
/// kernel moves no default run's part count.
pub fn auto_multiwindows(spec: &WindowSpec, kernel: KernelKind) -> usize {
    let ratio = (spec.delta / spec.sw).max(1) as usize;
    let windows_per_part = match kernel {
        KernelKind::SpMV => ratio.clamp(2, 64),
        KernelKind::SpMM { lanes } => ratio.max(2 * lanes.max(1)).clamp(2, 256),
        KernelKind::Auto => return auto_multiwindows(spec, KernelKind::SpMM { lanes: AUTO_LANES }),
    };
    spec.count.div_ceil(windows_per_part).max(1)
}

/// Resolves every `Auto` field of `cfg` from the measured workload and
/// returns how many there were; explicit values are never touched.
///
/// - [`KernelKind::Auto`] becomes SpMV when consecutive windows share less
///   than [`OVERLAP_FULL_BELOW`] of their events (the lanes of a batch
///   would share no traversal) and the kernel gets no multi-threaded
///   scheduler — one worker thread, or a mode that hands the kernel none
///   (`Sequential`, `WindowLevel`): with one, every row loop of every
///   iteration dispatches to the threads, and batching 16 windows per
///   loop is what keeps that affordable. SpMM with [`AUTO_LANES`] lanes
///   otherwise. The cores are counted (for `threads: 0`) only in the case
///   they decide.
/// - [`InitMode::Auto`] becomes [`WorkloadProfile::suggested_init_mode`].
pub fn resolve(cfg: &mut PostmortemConfig, profile: &WorkloadProfile) -> usize {
    let mut auto_fields = 0;
    if cfg.kernel == KernelKind::Auto {
        cfg.kernel = if batching_shares_nothing(cfg, profile) {
            KernelKind::SpMV
        } else {
            KernelKind::SpMM { lanes: AUTO_LANES }
        };
        auto_fields += 1;
    }
    if cfg.init_mode == InitMode::Auto {
        cfg.init_mode = profile.suggested_init_mode();
        auto_fields += 1;
    }
    auto_fields
}

/// Whether lanes of different windows gain nothing from one batch:
/// consecutive windows share less than [`OVERLAP_FULL_BELOW`] of their
/// events, and the kernel gets no multi-threaded scheduler to dispatch
/// each batch's row loops to. `Auto` then resolves to SpMV ([`resolve`]),
/// and a `Full` region walk cuts its lane budget
/// (`engine::Regions::new`).
pub(crate) fn batching_shares_nothing(cfg: &PostmortemConfig, profile: &WorkloadProfile) -> bool {
    profile.mean_overlap < OVERLAP_FULL_BELOW
        && !(cfg.mode.parallel_kernel() && profile.threads() > 1)
}

/// Applies §6.3.6's rules to a measured workload; kernel and init mode
/// come from [`resolve`].
pub fn suggest_for_profile(profile: &WorkloadProfile) -> PostmortemConfig {
    let mode = if profile.is_dominated() || profile.windows < 2 * profile.threads() {
        // A few windows carry the load (or there are too few windows to
        // feed the cores): parallelize inside the kernel.
        ParallelMode::ApplicationLevel
    } else {
        ParallelMode::Nested
    };
    let mut cfg = PostmortemConfig {
        // 0 = automatic: `auto_multiwindows` sizes parts for the resolved
        // kernel.
        num_multiwindows: 0,
        scheduler: Scheduler::new(Partitioner::Auto, 2),
        mode,
        ..Default::default()
    };
    resolve(&mut cfg, profile);
    cfg
}

/// Measures the workload and applies the rules in one step.
pub fn suggest(log: &EventLog, spec: &WindowSpec, threads: usize) -> PostmortemConfig {
    suggest_for_profile(&WorkloadProfile::measure(log, spec, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_graph::Event;

    fn uniform_log(windows_worth: i64) -> EventLog {
        let mut events = Vec::new();
        for t in 0..windows_worth * 10 {
            events.push(Event::new((t % 10) as u32, ((t + 1) % 10) as u32, t));
        }
        EventLog::from_unsorted(events, 10).unwrap()
    }

    #[test]
    fn profile_measures_distribution() {
        let log = uniform_log(40);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let p = WorkloadProfile::measure(&log, &spec, 4);
        assert_eq!(p.windows, spec.count);
        assert_eq!(p.events_per_window.len(), spec.count);
        assert!(p.max_share > 0.0 && p.max_share <= 1.0);
        assert!(!p.is_dominated());
        // delta = 20, sw = 10: half of each window's events carry over.
        assert!(
            (p.mean_overlap - 0.5).abs() < 0.1,
            "mean overlap {}",
            p.mean_overlap
        );
    }

    #[test]
    fn spiky_workload_detected_as_dominated() {
        // Nearly all events inside one window's span.
        let mut events: Vec<Event> = (0..1000)
            .map(|i| Event::new((i % 20) as u32, ((i + 3) % 20) as u32, 100 + (i % 5) as i64))
            .collect();
        events.push(Event::new(0, 1, 0));
        events.push(Event::new(0, 1, 1000));
        let log = EventLog::from_unsorted(events, 20).unwrap();
        let spec = WindowSpec::covering(&log, 50, 100).unwrap();
        let p = WorkloadProfile::measure(&log, &spec, 4);
        assert!(p.is_dominated(), "max share {}", p.max_share);
        let cfg = suggest_for_profile(&p);
        assert_eq!(cfg.mode, ParallelMode::ApplicationLevel);
        // sw > delta: the windows are disjoint, so seeding from the
        // previous window cannot help — the old unconditional
        // `partial_init: true` was wrong exactly here.
        assert!(p.mean_overlap < OVERLAP_FULL_BELOW);
        assert_eq!(cfg.init_mode, InitMode::Full);
    }

    #[test]
    fn balanced_many_window_workload_gets_nested() {
        let log = uniform_log(400);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let mut p = WorkloadProfile::measure(&log, &spec, 4);
        p.threads = 4;
        assert!(p.windows >= 8);
        let cfg = suggest_for_profile(&p);
        assert_eq!(cfg.mode, ParallelMode::Nested);
        assert_eq!(cfg.kernel, KernelKind::SpMM { lanes: 16 });
        assert_eq!(cfg.scheduler.partitioner, Partitioner::Auto);
        assert!(cfg.scheduler.granularity < 4);
        // ~50% of each window carries over: partial initialization.
        assert_eq!(cfg.init_mode, InitMode::Partial);
    }

    #[test]
    fn init_mode_follows_the_overlap_decision_table() {
        let mut p = profile(0.0, 1.0 / 40.0);
        assert_eq!(p.suggested_init_mode(), InitMode::Full);
        p.mean_overlap = 0.2;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
        p.mean_overlap = 0.8;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
        // A dominated workload needs more overlap before seeding pays.
        p.max_share = 0.6;
        p.mean_overlap = 0.2;
        assert_eq!(p.suggested_init_mode(), InitMode::Full);
        p.mean_overlap = 0.3;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
        p.mean_overlap = 0.8;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
    }

    #[test]
    fn few_windows_get_application_level() {
        let log = uniform_log(4);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let mut p = WorkloadProfile::measure(&log, &spec, 64);
        p.threads = 64; // few windows vs many threads
        assert_eq!(suggest_for_profile(&p).mode, ParallelMode::ApplicationLevel);
    }

    fn profile(mean_overlap: f64, max_share: f64) -> WorkloadProfile {
        WorkloadProfile {
            windows: 40,
            events_per_window: vec![100; 40],
            max_share,
            mean_overlap,
            threads: 1,
        }
    }

    /// `resolve` on the default configuration.
    fn resolved(p: &WorkloadProfile) -> (KernelKind, InitMode, usize) {
        let mut cfg = PostmortemConfig::default();
        let auto_fields = resolve(&mut cfg, p);
        (cfg.kernel, cfg.init_mode, auto_fields)
    }

    const SPMM16: KernelKind = KernelKind::SpMM { lanes: 16 };

    #[test]
    fn disjoint_windows_resolve_to_spmv_and_full_init() {
        for overlap in [0.0, 0.01, OVERLAP_FULL_BELOW - 1e-9] {
            for max_share in [1.0 / 40.0, 0.6] {
                let p = profile(overlap, max_share);
                assert_eq!(resolved(&p), (KernelKind::SpMV, InitMode::Full, 2));
            }
        }
    }

    #[test]
    fn disjoint_windows_keep_spmm16_where_the_kernel_gets_threads() {
        let mut p = profile(0.0, 1.0 / 40.0);
        for threads in [1, 2, 4] {
            p.threads = threads;
            for mode in [
                ParallelMode::Sequential,
                ParallelMode::WindowLevel,
                ParallelMode::ApplicationLevel,
                ParallelMode::Nested,
            ] {
                let mut cfg = PostmortemConfig {
                    mode,
                    ..Default::default()
                };
                assert_eq!(resolve(&mut cfg, &p), 2);
                let threaded = threads > 1
                    && matches!(mode, ParallelMode::ApplicationLevel | ParallelMode::Nested);
                let kernel = if threaded { SPMM16 } else { KernelKind::SpMV };
                assert_eq!(cfg.kernel, kernel, "{mode:?} on {threads} threads");
                assert_eq!(cfg.init_mode, InitMode::Full);
            }
        }
    }

    #[test]
    fn overlapping_windows_resolve_to_spmm16_and_the_tables_init() {
        for (overlap, init) in [
            (OVERLAP_FULL_BELOW, InitMode::Partial),
            (0.2, InitMode::Partial),
            (0.3, InitMode::Partial),
            (0.5, InitMode::Partial),
            (0.8, InitMode::Partial),
        ] {
            let p = profile(overlap, 1.0 / 40.0);
            assert_eq!(p.suggested_init_mode(), init);
            assert_eq!(resolved(&p), (SPMM16, init, 2), "overlap {overlap}");
        }
    }

    #[test]
    fn dominated_workloads_keep_spmm_but_need_more_overlap_to_seed() {
        // The kernel follows the overlap alone; the init row is the
        // dominated one of the decision table.
        for (overlap, init) in [
            (0.1, InitMode::Full),
            (OVERLAP_DOMINATED_PARTIAL - 1e-9, InitMode::Full),
            (OVERLAP_DOMINATED_PARTIAL, InitMode::Partial),
            (0.8, InitMode::Partial),
        ] {
            let p = profile(overlap, 0.6);
            assert!(p.is_dominated());
            assert_eq!(resolved(&p), (SPMM16, init, 2), "overlap {overlap}");
        }
    }

    #[test]
    fn explicit_kernels_and_init_modes_pass_through_untouched() {
        let kernels = [
            KernelKind::SpMV,
            KernelKind::SpMM { lanes: 1 },
            KernelKind::SpMM { lanes: 8 },
            SPMM16,
            KernelKind::SpMM { lanes: 64 },
        ];
        let inits = [InitMode::Full, InitMode::Partial];
        for p in [profile(0.0, 0.6), profile(0.2, 0.025), profile(0.9, 0.025)] {
            for workers in [0, 1, 4] {
                for kernel in kernels {
                    for init_mode in inits {
                        let explicit = PostmortemConfig {
                            kernel,
                            init_mode,
                            storage_workers: workers,
                            ..Default::default()
                        };
                        let mut cfg = explicit.clone();
                        assert_eq!(resolve(&mut cfg, &p), 0);
                        assert_eq!(cfg, explicit);
                    }
                    // One field left automatic resolves alone.
                    let mut cfg = PostmortemConfig {
                        kernel,
                        storage_workers: workers,
                        ..Default::default()
                    };
                    assert_eq!(resolve(&mut cfg, &p), 1);
                    assert_eq!(cfg.kernel, kernel);
                    assert_ne!(cfg.init_mode, InitMode::Auto);
                }
                for init_mode in inits {
                    let mut cfg = PostmortemConfig {
                        init_mode,
                        storage_workers: workers,
                        ..Default::default()
                    };
                    assert_eq!(resolve(&mut cfg, &p), 1);
                    assert_eq!(cfg.init_mode, init_mode);
                    assert_ne!(cfg.kernel, KernelKind::Auto);
                }
            }
        }
    }

    #[test]
    fn auto_kernel_keeps_the_spmm16_part_rule() {
        let log = uniform_log(400);
        for (delta, sw) in [(10, 20), (20, 10), (200, 10), (10, 10)] {
            let spec = WindowSpec::covering(&log, delta, sw).unwrap();
            assert_eq!(
                auto_multiwindows(&spec, KernelKind::Auto),
                auto_multiwindows(&spec, SPMM16),
                "delta {delta} sw {sw}"
            );
        }
    }

    #[test]
    fn suggest_end_to_end() {
        let log = uniform_log(100);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let cfg = suggest(&log, &spec, 0);
        assert!(matches!(cfg.kernel, KernelKind::SpMM { lanes: 16 }));
        // "All cores" is counted when read.
        let p = WorkloadProfile::measure(&log, &spec, 0);
        assert_eq!(p.threads, 0);
        assert!(p.threads() >= 1);
    }
}
