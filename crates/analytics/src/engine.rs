//! The postmortem structure engine: runs the non-PageRank kernels over
//! every window of the sliding-window sequence, reusing the same
//! multi-window representation as the PageRank engine (paper §3.1: "the
//! temporal graph constructed this way could be analyzed ... using other
//! kernels").

use crate::components::components_window;
use crate::degree::degree_stats;
use crate::kcore::kcore_window;
use crate::triangles::triangles_window;
use tempopr_graph::{EventLog, GraphError, MultiWindowSet, PartitionStrategy, WindowSpec};
use tempopr_kernel::scheduler::{current_threads, worker_pool};

/// Which structure metrics to compute per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureConfig {
    /// Connected components (count + largest size).
    pub components: bool,
    /// k-core decomposition (degeneracy).
    pub kcore: bool,
    /// Triangle count.
    pub triangles: bool,
    /// Process windows in parallel.
    pub parallel: bool,
    /// Multi-window graphs (0 = one part per ~16 windows).
    pub num_multiwindows: usize,
}

impl Default for StructureConfig {
    fn default() -> Self {
        StructureConfig {
            components: true,
            kcore: true,
            triangles: true,
            parallel: true,
            num_multiwindows: 0,
        }
    }
}

/// Structure metrics of one window. Degree statistics are always present;
/// the optional analyses are `None` when disabled in the config.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureSummary {
    /// Global window index.
    pub window: usize,
    /// Active vertices `|V_i|`.
    pub active_vertices: usize,
    /// Undirected active edges.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: u32,
    /// Mean degree over active vertices.
    pub mean_degree: f64,
    /// Number of connected components.
    pub components: Option<usize>,
    /// Size of the largest component.
    pub largest_component: Option<usize>,
    /// Degeneracy (maximum core number).
    pub degeneracy: Option<u32>,
    /// Triangle count.
    pub triangles: Option<u64>,
}

/// Runs the configured structure analyses on every window.
///
/// ```
/// use tempopr_analytics::{temporal_structure, StructureConfig};
/// use tempopr_graph::{Event, EventLog, WindowSpec};
/// let log = EventLog::from_unsorted(
///     (0..60u32).map(|i| Event::new(i % 8, (i * 3 + 1) % 8, i as i64)).collect(),
///     8,
/// ).unwrap();
/// let spec = WindowSpec::covering(&log, 20, 10).unwrap();
/// let out = temporal_structure(&log, spec, &StructureConfig::default()).unwrap();
/// assert_eq!(out.len(), spec.count);
/// assert!(out[0].components.unwrap() >= 1);
/// ```
pub fn temporal_structure(
    log: &EventLog,
    spec: WindowSpec,
    cfg: &StructureConfig,
) -> Result<Vec<StructureSummary>, GraphError> {
    let parts = if cfg.num_multiwindows == 0 {
        spec.count.div_ceil(16).max(1)
    } else {
        cfg.num_multiwindows
    };
    let set = MultiWindowSet::build(log, spec, parts, true, PartitionStrategy::EqualWindows)?;
    let one = |w: usize| summarize_window(&set, w, cfg);
    let out = if cfg.parallel {
        worker_pool(current_threads(), spec.count, |w, _| one(w))
    } else {
        (0..spec.count).map(one).collect()
    };
    Ok(out)
}

fn summarize_window(set: &MultiWindowSet, w: usize, cfg: &StructureConfig) -> StructureSummary {
    let range = set.spec().window(w);
    let part = set.part_of(w);
    let tcsr = part.tcsr();
    let deg = degree_stats(tcsr, range);
    let (components, largest_component) = if cfg.components {
        let c = components_window(tcsr, range);
        (Some(c.count), Some(c.largest))
    } else {
        (None, None)
    };
    let degeneracy = cfg.kcore.then(|| kcore_window(tcsr, range).degeneracy);
    let triangles = cfg.triangles.then(|| triangles_window(tcsr, range));
    StructureSummary {
        window: w,
        active_vertices: deg.active_vertices,
        edges: deg.directed_edges / 2,
        max_degree: deg.max_degree,
        mean_degree: deg.mean_degree,
        components,
        largest_component,
        degeneracy,
        triangles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempopr_graph::Event;

    fn log() -> EventLog {
        let mut events = Vec::new();
        for i in 0..300u32 {
            let u = (i * 13 + 1) % 30;
            let v = (i * 7 + 5) % 30;
            if u != v {
                events.push(Event::new(u, v, i as i64));
            }
        }
        EventLog::from_unsorted(events, 30).unwrap()
    }

    #[test]
    fn summaries_cover_all_windows_in_order() {
        let log = log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let out = temporal_structure(&log, spec, &StructureConfig::default()).unwrap();
        assert_eq!(out.len(), spec.count);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.window, i);
            assert!(s.components.is_some());
            assert!(s.degeneracy.is_some());
            assert!(s.triangles.is_some());
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let log = log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let par = temporal_structure(&log, spec, &StructureConfig::default()).unwrap();
        let seq = temporal_structure(
            &log,
            spec,
            &StructureConfig {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn multiwindow_count_does_not_change_results() {
        let log = log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let a = temporal_structure(
            &log,
            spec,
            &StructureConfig {
                num_multiwindows: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = temporal_structure(
            &log,
            spec,
            &StructureConfig {
                num_multiwindows: spec.count,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_analyses_are_none() {
        let log = log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let out = temporal_structure(
            &log,
            spec,
            &StructureConfig {
                components: false,
                kcore: false,
                triangles: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.iter().all(|s| {
            s.components.is_none() && s.degeneracy.is_none() && s.triangles.is_none()
        }));
        // Degree stats are always there.
        assert!(out.iter().any(|s| s.active_vertices > 0));
    }

    #[test]
    fn consistency_invariants_hold() {
        let log = log();
        let spec = WindowSpec::covering(&log, 60, 25).unwrap();
        let out = temporal_structure(&log, spec, &StructureConfig::default()).unwrap();
        for s in &out {
            if s.active_vertices > 0 {
                let comp = s.components.unwrap();
                assert!(comp >= 1);
                assert!(s.largest_component.unwrap() <= s.active_vertices);
                assert!(comp <= s.active_vertices);
                assert!(s.degeneracy.unwrap() as usize <= s.active_vertices);
                assert!((s.max_degree as f64) >= s.mean_degree);
            }
        }
    }
}
