//! Synthetic stand-ins for the paper's seven datasets (Table 1, Fig. 4).
//!
//! The real datasets (SNAP / network-repository / DIMACS) are not shipped;
//! each preset reproduces the properties the paper's conclusions rest on:
//! the *temporal shape* of event arrivals (Fig. 4), power-law degree
//! imbalance (§6.3.2), bipartiteness where applicable, the event/vertex
//! ratio, and the (sw, δ) parameter grids of Table 1 / Fig. 11. Absolute
//! sizes scale with a `scale` factor so the same presets serve unit tests
//! (`scale ≈ 0.001`), the CLI's default runs (`≈ 0.01`), and full
//! experiments (`1.0`).

use crate::profiles::ArrivalProfile;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tempopr_graph::{Event, EventLog};

/// Seconds per day, the unit of Table 1's window sizes.
pub const DAY: i64 = 86_400;

/// The seven datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// `ia-enron-email`: corporate email with the 2001 scandal spike.
    Enron,
    /// `epinions-user-ratings`: bipartite user→product reviews, 2001 peak.
    Epinions,
    /// `ca-cit-HepTh`: physics citations, irregular bursts.
    HepTh,
    /// `Youtube-Growth`: bursty by moments, steady in general.
    Youtube,
    /// `wiki-talk`: smoothly growing talk-page edits.
    WikiTalk,
    /// `stackoverflow`: the largest, smoothly growing Q&A graph.
    StackOverflow,
    /// `askubuntu`: the smallest growing Q&A graph.
    AskUbuntu,
}

impl Dataset {
    /// All seven, in the paper's Table 1 order.
    pub fn all() -> [Dataset; 7] {
        [
            Dataset::HepTh,
            Dataset::StackOverflow,
            Dataset::AskUbuntu,
            Dataset::Youtube,
            Dataset::Epinions,
            Dataset::Enron,
            Dataset::WikiTalk,
        ]
    }

    /// The dataset's display name (matching the paper).
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Enron => "ia-enron-email",
            Dataset::Epinions => "epinions-user-ratings",
            Dataset::HepTh => "ca-cit-HepTh",
            Dataset::Youtube => "Youtube-Growth",
            Dataset::WikiTalk => "wiki-talk",
            Dataset::StackOverflow => "stackoverflow",
            Dataset::AskUbuntu => "askubuntu",
        }
    }

    /// The generator spec for this dataset.
    pub fn spec(&self) -> DatasetSpec {
        let d = |days: &[i64]| days.iter().map(|&x| x * DAY).collect::<Vec<_>>();
        match self {
            Dataset::Enron => DatasetSpec {
                dataset: *self,
                full_vertices: 87_000,
                full_events: 1_134_990,
                span_days: 3_650.0,
                profile: ArrivalProfile::Spike {
                    center: 0.55,
                    width: 0.05,
                    share: 0.65,
                },
                topology: Topology::PowerLaw { skew: 2.5 },
                growth_universe: false,
                sliding_offsets: vec![DAY, 2 * DAY],
                window_sizes: d(&[730, 1460]),
            },
            Dataset::Epinions => DatasetSpec {
                dataset: *self,
                full_vertices: 876_000,
                full_events: 13_668_281,
                span_days: 430.0,
                profile: ArrivalProfile::Spike {
                    center: 0.35,
                    width: 0.08,
                    share: 0.7,
                },
                topology: Topology::Bipartite {
                    left_frac: 0.14,
                    skew: 2.2,
                },
                growth_universe: false,
                sliding_offsets: vec![DAY / 2, DAY],
                window_sizes: d(&[60, 90]),
            },
            Dataset::HepTh => DatasetSpec {
                dataset: *self,
                full_vertices: 22_900,
                full_events: 2_673_133,
                span_days: 2_900.0,
                profile: ArrivalProfile::IrregularBursts {
                    bursts: 6,
                    share: 0.5,
                },
                topology: Topology::PowerLaw { skew: 2.5 },
                growth_universe: false,
                sliding_offsets: vec![DAY / 2, DAY, 2 * DAY],
                window_sizes: d(&[10, 15, 90, 180, 730, 1460]),
            },
            Dataset::Youtube => DatasetSpec {
                dataset: *self,
                full_vertices: 3_200_000,
                full_events: 12_223_774,
                span_days: 210.0,
                profile: ArrivalProfile::SteadyBursty {
                    bursts: 6,
                    share: 0.35,
                },
                topology: Topology::PowerLaw { skew: 2.3 },
                growth_universe: true,
                sliding_offsets: vec![DAY / 2, DAY],
                window_sizes: d(&[60, 90]),
            },
            Dataset::WikiTalk => DatasetSpec {
                dataset: *self,
                full_vertices: 2_400_000,
                full_events: 6_100_538,
                span_days: 1_900.0,
                profile: ArrivalProfile::LinearGrowth { ratio: 8.0 },
                topology: Topology::PowerLaw { skew: 2.6 },
                growth_universe: true,
                sliding_offsets: vec![DAY / 2, DAY, 2 * DAY, 3 * DAY],
                window_sizes: d(&[10, 15, 90, 180]),
            },
            Dataset::StackOverflow => DatasetSpec {
                dataset: *self,
                full_vertices: 2_600_000,
                full_events: 47_903_266,
                span_days: 2_550.0,
                profile: ArrivalProfile::LinearGrowth { ratio: 6.0 },
                topology: Topology::PowerLaw { skew: 2.4 },
                growth_universe: true,
                sliding_offsets: vec![DAY / 2, DAY],
                window_sizes: d(&[10, 15, 90, 180, 730]),
            },
            Dataset::AskUbuntu => DatasetSpec {
                dataset: *self,
                full_vertices: 159_000,
                full_events: 726_661,
                span_days: 2_500.0,
                profile: ArrivalProfile::LinearGrowth { ratio: 10.0 },
                topology: Topology::PowerLaw { skew: 2.5 },
                growth_universe: true,
                sliding_offsets: vec![DAY, 2 * DAY],
                window_sizes: d(&[90, 180]),
            },
        }
    }
}

/// Everything needed to synthesize one dataset at any scale.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which dataset this spec models.
    pub dataset: Dataset,
    /// Vertex count of the real dataset.
    pub full_vertices: usize,
    /// Event count of the real dataset (Table 1).
    pub full_events: usize,
    /// Time span in days (from Fig. 4's x-axes).
    pub span_days: f64,
    /// Temporal arrival shape (Fig. 4).
    pub profile: ArrivalProfile,
    /// Endpoint/degree structure.
    pub topology: Topology,
    /// Whether the active vertex universe widens over time (growth
    /// datasets: later events reach vertices unseen earlier).
    pub growth_universe: bool,
    /// Table 1 / Fig. 11 sliding offsets, in seconds.
    pub sliding_offsets: Vec<i64>,
    /// Table 1 / Fig. 11 window sizes, in seconds.
    pub window_sizes: Vec<i64>,
}

impl DatasetSpec {
    /// Event count at `scale` (at least 1 000).
    pub fn scaled_events(&self, scale: f64) -> usize {
        ((self.full_events as f64 * scale) as usize).max(1_000)
    }

    /// Vertex count at `scale` (at least 200).
    pub fn scaled_vertices(&self, scale: f64) -> usize {
        ((self.full_vertices as f64 * scale) as usize).max(200)
    }

    /// The span in seconds.
    pub fn span_seconds(&self) -> i64 {
        (self.span_days * DAY as f64) as i64
    }

    /// The full (sw, δ) grid, in seconds.
    pub fn param_grid(&self) -> Vec<(i64, i64)> {
        let mut grid = Vec::new();
        for &sw in &self.sliding_offsets {
            for &delta in &self.window_sizes {
                grid.push((sw, delta));
            }
        }
        grid
    }

    /// Synthesizes the dataset at `scale` with a deterministic `seed`.
    pub fn generate(&self, scale: f64, seed: u64) -> EventLog {
        let n = self.scaled_vertices(scale);
        let m = self.scaled_events(scale);
        let span = self.span_seconds();
        let mut rng = StdRng::seed_from_u64(seed ^ fxmix(self.dataset as u64));
        let centers = self.profile.burst_centers(&mut rng);
        let mut events = Vec::with_capacity(m);
        for _ in 0..m {
            let pos = self.profile.sample(&mut rng, &centers);
            let t = (pos * span as f64) as i64;
            let n_eff = if self.growth_universe {
                ((n as f64) * (0.15 + 0.85 * pos)) as usize
            } else {
                n
            };
            let (u, v) = self.topology.sample(&mut rng, n_eff.max(2));
            events.push(Event::new(u, v, t));
        }
        EventLog::from_unsorted(events, n).expect("generator produced invalid log")
    }
}

/// Cheap 64-bit mixer for per-dataset seed derivation.
fn fxmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate_valid_logs() {
        for d in Dataset::all() {
            let spec = d.spec();
            let log = spec.generate(0.002, 1);
            assert!(log.len() >= 1_000, "{}", d.name());
            assert!(log.num_vertices() >= 200);
            assert!(log.first_time() >= 0);
            assert!(log.last_time() <= spec.span_seconds());
            // Sorted by construction.
            for w in log.events().windows(2) {
                assert!(w[0].t <= w[1].t);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = Dataset::WikiTalk.spec();
        let a = spec.generate(0.001, 9);
        let b = spec.generate(0.001, 9);
        assert_eq!(a, b);
        let c = spec.generate(0.001, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn different_datasets_differ_for_same_seed() {
        let a = Dataset::Enron.spec().generate(0.01, 5);
        let b = Dataset::HepTh.spec().generate(0.01, 5);
        assert_ne!(a.events()[..50], b.events()[..50]);
    }

    #[test]
    fn scaled_sizes_track_scale() {
        let spec = Dataset::StackOverflow.spec();
        assert_eq!(spec.scaled_events(1.0), 47_903_266);
        assert!(spec.scaled_events(0.01) >= 470_000);
        assert_eq!(spec.scaled_events(1e-9), 1_000);
        assert_eq!(spec.scaled_vertices(1e-9), 200);
    }

    #[test]
    fn epinions_is_bipartite() {
        let spec = Dataset::Epinions.spec();
        let log = spec.generate(0.001, 3);
        let left = (log.num_vertices() as f64 * 0.14) as u32;
        for e in log.events() {
            assert!(e.u < left, "source {} must be a user", e.u);
            assert!(e.v >= left, "dest {} must be a product", e.v);
        }
    }

    #[test]
    fn enron_spike_shows_in_distribution() {
        let spec = Dataset::Enron.spec();
        let log = spec.generate(0.02, 4);
        let span = spec.span_seconds() as f64;
        let near = log
            .events()
            .iter()
            .filter(|e| ((e.t as f64 / span) - 0.55).abs() < 0.1)
            .count();
        assert!(
            near as f64 > 0.55 * log.len() as f64,
            "spike mass {near} of {}",
            log.len()
        );
    }

    #[test]
    fn wikitalk_grows_over_time() {
        let spec = Dataset::WikiTalk.spec();
        let log = spec.generate(0.002, 4);
        let half = spec.span_seconds() / 2;
        let late = log.events().iter().filter(|e| e.t > half).count();
        assert!(late as f64 > 2.0 * (log.len() - late) as f64);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let spec = Dataset::WikiTalk.spec();
        let log = spec.generate(0.005, 4);
        let mut deg = vec![0usize; log.num_vertices()];
        for e in log.events() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = deg[..deg.len() / 100].iter().sum();
        let total: usize = deg.iter().sum();
        assert!(
            top1pct as f64 > 0.2 * total as f64,
            "top 1% holds {top1pct} of {total}"
        );
    }

    #[test]
    fn param_grids_match_table1() {
        assert_eq!(Dataset::WikiTalk.spec().param_grid().len(), 16);
        assert_eq!(Dataset::Enron.spec().param_grid().len(), 4);
        assert_eq!(Dataset::HepTh.spec().param_grid().len(), 18);
        // All positive.
        for d in Dataset::all() {
            for (sw, delta) in d.spec().param_grid() {
                assert!(sw > 0 && delta > 0);
            }
        }
    }
}
