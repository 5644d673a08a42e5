//! Parameter recommendation (paper §6.3.6).
//!
//! The paper distills its sweeps into simple rules for users who will not
//! tune: *SpMM is never a bad choice*; *auto_partitioner with granularity
//! under 4*; pick the parallelization level from the balance of per-window
//! work — application-level when a couple of windows dominate or there are
//! very few windows, window-level when windows are many but individually
//! small, nested otherwise. [`suggest`] encodes those rules and Fig. 12
//! evaluates them.

use crate::config::{InitMode, KernelKind, ParallelMode, PostmortemConfig};
use tempopr_graph::{EventLog, WindowSpec};
use tempopr_kernel::{Partitioner, Scheduler};

/// Mean event overlap below which seeding from the previous window is
/// pure overhead: nearly nothing carries over, so every window should
/// start from the uniform distribution.
pub const OVERLAP_FULL_BELOW: f64 = 0.05;

/// Mean event overlap a *dominated* (spiky) workload must reach before
/// partial initialization is suggested at all: its consecutive windows
/// differ too much for a stale seed to help below this.
pub const OVERLAP_DOMINATED_PARTIAL: f64 = 0.25;

/// Mean event overlap from which cross-boundary warm-start pays: enough
/// of each window survives into the next that even the part- and
/// batch-boundary seeds land close to the converged distribution.
pub const OVERLAP_WARM_FROM: f64 = 0.5;

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
    /// Worker threads the run will use.
    pub threads: usize,
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
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        WorkloadProfile {
            windows: spec.count,
            events_per_window,
            max_share,
            mean_overlap,
            threads,
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
        } else if self.mean_overlap >= OVERLAP_WARM_FROM {
            InitMode::Warm
        } else {
            InitMode::Partial
        }
    }
}

/// The paper's suggested number of multi-window graphs: "large enough" that
/// out-of-window traversal stops mattering, without wasting memory — we use
/// one part per ~8 windows, at least 6, capped by the window count.
pub fn suggested_multiwindows(windows: usize) -> usize {
    (windows / 8).max(6).min(windows.max(1))
}

/// Applies §6.3.6's rules to a measured workload.
pub fn suggest_for_profile(profile: &WorkloadProfile) -> PostmortemConfig {
    let mode = if profile.is_dominated() || profile.windows < 2 * profile.threads {
        // A few windows carry the load (or there are too few windows to
        // feed the cores): parallelize inside the kernel.
        ParallelMode::ApplicationLevel
    } else {
        ParallelMode::Nested
    };
    PostmortemConfig {
        // 0 = automatic: `engine::auto_multiwindows` sizes parts at about
        // δ/sw windows for SpMV (≈2x traversal overhead, clamped to
        // 2..=64 windows per part) and widens them to give every SpMM lane
        // at least two regions (clamped to 2..=256).
        num_multiwindows: 0,
        kernel: KernelKind::SpMM { lanes: 16 },
        scheduler: Scheduler::new(Partitioner::Auto, 2),
        mode,
        init_mode: profile.suggested_init_mode(),
        ..Default::default()
    }
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
        // ~50% of each window carries over: warm-start territory.
        assert_eq!(cfg.init_mode, InitMode::Warm);
    }

    #[test]
    fn init_mode_follows_the_overlap_decision_table() {
        let mut p = WorkloadProfile {
            windows: 40,
            events_per_window: vec![100; 40],
            max_share: 1.0 / 40.0,
            mean_overlap: 0.0,
            threads: 4,
        };
        assert_eq!(p.suggested_init_mode(), InitMode::Full);
        p.mean_overlap = 0.2;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
        p.mean_overlap = 0.8;
        assert_eq!(p.suggested_init_mode(), InitMode::Warm);
        // A dominated workload needs more overlap before seeding pays.
        p.max_share = 0.6;
        p.mean_overlap = 0.2;
        assert_eq!(p.suggested_init_mode(), InitMode::Full);
        p.mean_overlap = 0.3;
        assert_eq!(p.suggested_init_mode(), InitMode::Partial);
        p.mean_overlap = 0.8;
        assert_eq!(p.suggested_init_mode(), InitMode::Warm);
    }

    #[test]
    fn few_windows_get_application_level() {
        let log = uniform_log(4);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let mut p = WorkloadProfile::measure(&log, &spec, 64);
        p.threads = 64; // few windows vs many threads
        assert_eq!(suggest_for_profile(&p).mode, ParallelMode::ApplicationLevel);
    }

    #[test]
    fn suggested_multiwindow_counts() {
        assert_eq!(suggested_multiwindows(1), 1);
        assert_eq!(suggested_multiwindows(6), 6);
        assert_eq!(suggested_multiwindows(48), 6);
        assert_eq!(suggested_multiwindows(80), 10);
        assert_eq!(suggested_multiwindows(1024), 128);
    }

    #[test]
    fn suggest_end_to_end() {
        let log = uniform_log(100);
        let spec = WindowSpec::covering(&log, 20, 10).unwrap();
        let cfg = suggest(&log, &spec, 0);
        assert!(matches!(cfg.kernel, KernelKind::SpMM { lanes: 16 }));
    }
}
