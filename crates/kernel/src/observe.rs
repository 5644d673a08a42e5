//! Read-only observation hooks for the PageRank kernels.
//!
//! The kernel crate stays dependency-free: it defines the
//! [`KernelObserver`] trait and the [`Obs`]/[`BatchObs`] carriers, and the
//! driver layer (tempopr-core's observe module, invoked from the kernel
//! closures its execution layer drives) supplies an implementation that
//! forwards to its telemetry sink. The entries the drivers run take a
//! carrier: `pagerank_window_indexed`, `pagerank_batch_indexed` and
//! `pagerank_csr` through an `_obs` twin (the plain names delegate with
//! [`Obs::off`] / [`BatchObs::off`]), and `pagerank_query_batch_indexed`
//! as an argument. The unindexed references the tests compare against
//! (`pagerank_window`, `pagerank_batch`, `pagerank_query_batch`) and the
//! remaining entries have no carrier. Observation is strictly opt-in.
//!
//! # Contract
//!
//! Observers are **read-only**: a kernel hands them values it already
//! computed (residuals, masses, guard decisions) and never reads anything
//! back. Enabling observation must not change a single bit of the
//! computed ranks — `tests/telemetry_observation.rs` locks this in, the
//! same way `guards_do_not_change_healthy_ranks` does for the numeric
//! guards. A disabled carrier costs one branch on a `None` reference per
//! observation site (enforced by the `telemetry_overhead` micro bench).

use std::time::Instant;

/// Callbacks a kernel invocation reports into. All methods have empty
/// defaults so implementors only override what they consume; `Sync`
/// because the SpMV body runs under the scheduler's thread pool.
pub trait KernelObserver: Sync {
    /// The per-window degree/activity/init setup finished.
    fn on_setup(&self, window: u32, active_vertices: usize, ns: u64) {
        let _ = (window, active_vertices, ns);
    }

    /// One power/push iteration finished: `residual` is the L1 step
    /// difference, `mass` the iterate's total rank mass, `spmv_ns` the
    /// wall time of the pull pass and `check_ns` of the
    /// guard/scatter/convergence tail (both 0 for batched lanes, which
    /// report round-level time via [`KernelObserver::on_batch_round`]).
    fn on_iteration(
        &self,
        window: u32,
        iteration: u32,
        residual: f64,
        mass: f64,
        spmv_ns: u64,
        check_ns: u64,
    ) {
        let _ = (window, iteration, residual, mass, spmv_ns, check_ns);
    }

    /// A numeric guard intervened: `restart` distinguishes a uniform
    /// restart from an in-place renormalization.
    fn on_guard(&self, window: u32, iteration: u32, restart: bool) {
        let _ = (window, iteration, restart);
    }

    /// One SpMM round finished: how many lanes were still live, how many
    /// run entries the pull pass walked (`edges`), and the round's
    /// pull/check wall time (shared by all lanes).
    fn on_batch_round(
        &self,
        iteration: u32,
        lanes_live: u32,
        lanes_total: u32,
        edges: u64,
        spmv_ns: u64,
        check_ns: u64,
    ) {
        let _ = (iteration, lanes_live, lanes_total, edges, spmv_ns, check_ns);
    }

    /// The batched kernel resolved its inner-loop implementation for a
    /// batch of `lanes` windows (`isa` is `"avx2"`, `"scalar"`, or
    /// `"bitwalk"` — see `tempopr_kernel::simd`).
    fn on_batch_dispatch(&self, isa: &'static str, lanes: u32) {
        let _ = (isa, lanes);
    }

    /// Converged-lane compaction repacked the batch from `from_lanes` to
    /// `to_lanes` effective lanes, walking `rows` rows: the batch's union
    /// active rows, not its part's vertex range.
    fn on_batch_compaction(&self, from_lanes: u32, to_lanes: u32, rows: u64) {
        let _ = (from_lanes, to_lanes, rows);
    }

    /// The window batch rebuilt its live-row list (a lane converged or
    /// compaction narrowed the stride) and chose the row walk of the
    /// rounds until the next rebuild: `runs` run entries and `live_cells`
    /// live (run, lane) cells over the rows that still have a live lane,
    /// at `lanes` effective lanes; `vector` is the whole-stride walk,
    /// otherwise the bit walk (see `tempopr_kernel::spmm::VECTOR_ROW_RULE`).
    fn on_batch_live_rows(&self, runs: u64, live_cells: u64, lanes: u32, vector: bool) {
        let _ = (runs, live_cells, lanes, vector);
    }

    /// One round of the window batch walked its rows with the loop the
    /// last [`KernelObserver::on_batch_live_rows`] announced.
    fn on_batch_row_walk(&self, vector: bool) {
        let _ = vector;
    }

    /// The SpMV kernel filtered a window's pull adjacency, once, before
    /// its first iteration: `filter_entries` stored entries scanned over
    /// the active rows, `window_runs` in-window runs kept — what every
    /// power iteration then gathers over.
    fn on_window_runs(&self, window: u32, filter_entries: u64, window_runs: u64) {
        let _ = (window, filter_entries, window_runs);
    }
}

/// Nanoseconds of `d`, saturating.
fn dur_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Observation carrier for the single-window kernels: an optional sink
/// plus the global window id the invocation computes. `Copy` so threading
/// it through call chains costs nothing.
#[derive(Clone, Copy, Default)]
pub struct Obs<'a> {
    sink: Option<&'a dyn KernelObserver>,
    window: u32,
}

impl<'a> Obs<'a> {
    /// The disabled carrier: every hook is a branch-and-return.
    pub fn off() -> Obs<'static> {
        Obs {
            sink: None,
            window: 0,
        }
    }

    /// A carrier forwarding to `sink`, labeling events with `window`.
    pub fn new(sink: &'a dyn KernelObserver, window: u32) -> Obs<'a> {
        Obs {
            sink: Some(sink),
            window,
        }
    }

    /// True when a sink is attached.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// A timestamp, taken only when observing (timing must cost nothing
    /// when disabled).
    pub fn now(&self) -> Option<Instant> {
        self.sink.map(|_| Instant::now())
    }

    /// Reports the setup phase: active-set size plus time since `t0`.
    pub fn setup(&self, active_vertices: usize, t0: Option<Instant>) {
        if let Some(sink) = self.sink {
            let ns = t0.map(|t| dur_ns(t.elapsed())).unwrap_or(0);
            sink.on_setup(self.window, active_vertices, ns);
        }
    }

    /// Reports one iteration; `t0`/`t_mid` bracket the pull pass.
    pub fn iteration(
        &self,
        iteration: usize,
        residual: f64,
        mass: f64,
        t0: Option<Instant>,
        t_mid: Option<Instant>,
    ) {
        if let Some(sink) = self.sink {
            let (spmv_ns, check_ns) = match (t0, t_mid) {
                (Some(a), Some(b)) => (dur_ns(b.duration_since(a)), dur_ns(b.elapsed())),
                _ => (0, 0),
            };
            sink.on_iteration(
                self.window,
                iteration as u32,
                residual,
                mass,
                spmv_ns,
                check_ns,
            );
        }
    }

    /// Reports a guard intervention.
    pub fn guard(&self, iteration: usize, restart: bool) {
        if let Some(sink) = self.sink {
            sink.on_guard(self.window, iteration as u32, restart);
        }
    }

    /// Reports the window's one filter pass; the counts are only taken
    /// when observing.
    pub(crate) fn window_runs(&self, counts: impl FnOnce() -> (u64, u64)) {
        if let Some(sink) = self.sink {
            let (filter_entries, window_runs) = counts();
            sink.on_window_runs(self.window, filter_entries, window_runs);
        }
    }
}

/// Observation carrier for the batched (SpMM) kernels: an optional sink
/// plus the lane → global-window-id map. With an empty map, lane `k`
/// reports as window `k`.
#[derive(Clone, Copy, Default)]
pub struct BatchObs<'a> {
    sink: Option<&'a dyn KernelObserver>,
    windows: &'a [u32],
}

impl<'a> BatchObs<'a> {
    /// The disabled carrier.
    pub fn off() -> BatchObs<'static> {
        BatchObs {
            sink: None,
            windows: &[],
        }
    }

    /// A carrier forwarding to `sink`; `windows[k]` is lane `k`'s global
    /// window id.
    pub fn new(sink: &'a dyn KernelObserver, windows: &'a [u32]) -> BatchObs<'a> {
        BatchObs {
            sink: Some(sink),
            windows,
        }
    }

    /// True when a sink is attached.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Lane `k`'s global window id (`k` itself without a map).
    pub(crate) fn lane_window(&self, k: usize) -> u32 {
        self.windows.get(k).copied().unwrap_or(k as u32)
    }

    /// See [`Obs::now`].
    pub(crate) fn now(&self) -> Option<Instant> {
        self.sink.map(|_| Instant::now())
    }

    /// Reports the batch setup: per-lane active counts, with the shared
    /// setup wall time split evenly across lanes so phase totals add up.
    pub(crate) fn setup(&self, n_act: &[usize], t0: Option<Instant>) {
        if let Some(sink) = self.sink {
            let ns = t0.map(|t| dur_ns(t.elapsed())).unwrap_or(0);
            let share = ns / n_act.len().max(1) as u64;
            for (k, &a) in n_act.iter().enumerate() {
                sink.on_setup(self.lane_window(k), a, share);
            }
        }
    }

    /// Reports one round's timing, live-lane count, and edge work.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round(
        &self,
        iteration: usize,
        lanes_live: u32,
        lanes_total: usize,
        edges: u64,
        t0: Option<Instant>,
        t_mid: Option<Instant>,
    ) {
        if let Some(sink) = self.sink {
            let (spmv_ns, check_ns) = match (t0, t_mid) {
                (Some(a), Some(b)) => (dur_ns(b.duration_since(a)), dur_ns(b.elapsed())),
                _ => (0, 0),
            };
            sink.on_batch_round(
                iteration as u32,
                lanes_live,
                lanes_total as u32,
                edges,
                spmv_ns,
                check_ns,
            );
        }
    }

    /// Reports the batch's resolved inner-loop implementation.
    pub(crate) fn dispatch(&self, isa: &'static str, lanes: usize) {
        if let Some(sink) = self.sink {
            sink.on_batch_dispatch(isa, lanes as u32);
        }
    }

    /// Reports a converged-lane compaction over `rows` rows.
    pub(crate) fn compaction(&self, from_lanes: usize, to_lanes: usize, rows: usize) {
        if let Some(sink) = self.sink {
            sink.on_batch_compaction(from_lanes as u32, to_lanes as u32, rows as u64);
        }
    }

    /// Reports a live-row rebuild and the row walk chosen from it.
    pub(crate) fn live_rows(&self, runs: u64, live_cells: u64, lanes: usize, vector: bool) {
        if let Some(sink) = self.sink {
            sink.on_batch_live_rows(runs, live_cells, lanes as u32, vector);
        }
    }

    /// Reports which row walk a round ran.
    pub(crate) fn row_walk(&self, vector: bool) {
        if let Some(sink) = self.sink {
            sink.on_batch_row_walk(vector);
        }
    }

    /// Reports one live lane's iteration measurements (round-level time is
    /// carried by [`BatchObs::round`], so per-lane ns are 0).
    pub(crate) fn lane_iteration(&self, k: usize, iteration: usize, residual: f64, mass: f64) {
        if let Some(sink) = self.sink {
            sink.on_iteration(self.lane_window(k), iteration as u32, residual, mass, 0, 0);
        }
    }

    /// Reports a guard intervention on lane `k`.
    pub(crate) fn lane_guard(&self, k: usize, iteration: usize, restart: bool) {
        if let Some(sink) = self.sink {
            sink.on_guard(self.lane_window(k), iteration as u32, restart);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<String>>,
    }

    impl KernelObserver for Recorder {
        fn on_setup(&self, window: u32, active: usize, _ns: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("setup w{window} a{active}"));
        }
        fn on_iteration(&self, window: u32, it: u32, r: f64, _m: f64, _s: u64, _c: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("iter w{window} i{it} r{r}"));
        }
        fn on_guard(&self, window: u32, it: u32, restart: bool) {
            self.events
                .lock()
                .unwrap()
                .push(format!("guard w{window} i{it} restart={restart}"));
        }
        fn on_batch_round(&self, it: u32, live: u32, total: u32, edges: u64, _s: u64, _c: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("round i{it} live{live}/{total} e{edges}"));
        }
        fn on_batch_dispatch(&self, isa: &'static str, lanes: u32) {
            self.events
                .lock()
                .unwrap()
                .push(format!("dispatch {isa} l{lanes}"));
        }
        fn on_batch_compaction(&self, from: u32, to: u32, rows: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("compact {from}->{to} r{rows}"));
        }
        fn on_batch_live_rows(&self, runs: u64, cells: u64, lanes: u32, vector: bool) {
            self.events
                .lock()
                .unwrap()
                .push(format!("rows r{runs} c{cells} l{lanes} vector={vector}"));
        }
        fn on_batch_row_walk(&self, vector: bool) {
            self.events
                .lock()
                .unwrap()
                .push(format!("walk vector={vector}"));
        }
        fn on_window_runs(&self, window: u32, entries: u64, runs: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("runs w{window} e{entries} r{runs}"));
        }
    }

    #[test]
    fn off_carriers_do_nothing() {
        let obs = Obs::off();
        assert!(!obs.is_on());
        assert!(obs.now().is_none());
        obs.setup(5, None);
        obs.iteration(1, 0.5, 1.0, None, None);
        obs.guard(1, true);
        obs.window_runs(|| unreachable!("counts are taken only when observing"));
        let b = BatchObs::off();
        assert!(!b.is_on());
        b.setup(&[1, 2], None);
        b.round(1, 2, 2, 10, None, None);
        b.dispatch("scalar", 2);
        b.compaction(2, 1, 5);
        b.live_rows(10, 12, 2, true);
        b.row_walk(true);
        b.lane_iteration(0, 1, 0.5, 1.0);
        b.lane_guard(1, 1, false);
    }

    #[test]
    fn obs_forwards_with_window_label() {
        let rec = Recorder::default();
        let obs = Obs::new(&rec, 7);
        assert!(obs.is_on());
        obs.setup(3, obs.now());
        obs.iteration(2, 0.25, 1.0, None, None);
        obs.guard(2, true);
        obs.window_runs(|| (40, 9));
        let got = rec.events.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                "setup w7 a3",
                "iter w7 i2 r0.25",
                "guard w7 i2 restart=true",
                "runs w7 e40 r9"
            ]
        );
    }

    #[test]
    fn batch_obs_maps_lanes_to_windows() {
        let rec = Recorder::default();
        let map = [10u32, 20u32];
        let b = BatchObs::new(&rec, &map);
        b.lane_iteration(1, 3, 0.5, 1.0);
        b.lane_guard(0, 3, false);
        b.setup(&[4, 6], None);
        let got = rec.events.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                "iter w20 i3 r0.5",
                "guard w10 i3 restart=false",
                "setup w10 a4",
                "setup w20 a6",
            ]
        );
        // Out-of-range lane falls back to the lane index.
        assert_eq!(b.lane_window(5), 5);
    }

    #[test]
    fn batch_obs_forwards_dispatch_round_and_compaction() {
        let rec = Recorder::default();
        let b = BatchObs::new(&rec, &[]);
        b.dispatch("avx2", 8);
        b.round(2, 5, 8, 1234, None, None);
        b.compaction(8, 3, 17);
        b.live_rows(1234, 2000, 3, true);
        b.row_walk(false);
        let got = rec.events.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                "dispatch avx2 l8",
                "round i2 live5/8 e1234",
                "compact 8->3 r17",
                "rows r1234 c2000 l3 vector=true",
                "walk vector=false"
            ]
        );
    }
}
