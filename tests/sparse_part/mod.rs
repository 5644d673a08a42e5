//! One input shape the property suites share: lane batches whose windows
//! hold a small share of a large part, as the paper's sliding windows do
//! when the slide is much longer than the window. Compaction, the lane
//! merge and the output copy-out walk the batch's active rows, so most of
//! such a part's rows are never written by a batch, and an in-place walk
//! of the part's index still reads some of them through runs no lane
//! holds.

use proptest::prelude::*;
use tempopr::graph::{Event, TimeRange, WindowIndex};

/// Hub vertices every window of [`arb_sparse_part`] may touch.
pub const HUBS: u32 = 4;
/// Vertices of each window's own cluster.
pub const CLUSTER: u32 = 24;
/// Vertices whose events all fall between the windows.
pub const BACKGROUND: u32 = 40;
/// Events per window.
pub const PER_WINDOW: usize = 24;

/// A part most of whose vertices no window holds, as `windows` windows
/// `[100w, 100w + 60)`: each of `PER_WINDOW` events among its own
/// `CLUSTER` vertices and the `HUBS` hubs (never hub to hub; the first
/// joins hub `w % HUBS` to the cluster), so the windows share rows only
/// through the hubs and share no run, and the
/// `BACKGROUND` vertices only have events between the windows. Returns
/// the events and the vertex count.
pub fn arb_sparse_part(windows: usize) -> impl Strategy<Value = (Vec<Event>, usize)> {
    let n = (HUBS + windows as u32 * CLUSTER + BACKGROUND) as usize;
    let events = windows * PER_WINDOW;
    let picks = prop::collection::vec(
        (0..CLUSTER + HUBS, 0..CLUSTER - 1, 0i64..60),
        events..events + 1,
    );
    let first = n as u32 - BACKGROUND;
    let background = prop::collection::vec(
        (
            first..n as u32,
            first..n as u32,
            0..windows as i64,
            60i64..100,
        ),
        0..40,
    );
    (picks, background).prop_map(move |(picks, background)| {
        let mut events: Vec<Event> = picks
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, t))| {
                let w = (i / PER_WINDOW) as u32;
                let (base, t) = (HUBS + w * CLUSTER, 100 * i64::from(w) + t);
                if i % PER_WINDOW == 0 {
                    // Every window reaches a hub, which other windows hold.
                    Event::new(w % HUBS, base + b, t)
                } else if a < HUBS {
                    Event::new(a, base + b, t)
                } else {
                    let c = a - HUBS;
                    Event::new(base + c, base + (c + 1 + b) % CLUSTER, t)
                }
            })
            .collect();
        events.extend(
            background
                .into_iter()
                .map(|(u, v, w, t)| Event::new(u, v, 100 * w + t)),
        );
        (events, n)
    })
}

/// The windows of [`arb_sparse_part`].
pub fn sparse_part_ranges(windows: usize) -> Vec<TimeRange> {
    (0..windows as i64)
        .map(|w| TimeRange::new(100 * w, 100 * w + 59))
        .collect()
}

/// Two batches over views of `index`, the index of all windows: every
/// window but the one holding the fewest runs (at most `1 / windows` of the
/// run list is runs no lane holds, so the batch walks the index in place)
/// and the `few` windows holding the fewest (runs of the other windows make
/// up most of the list, so it copies its runs out). Windows share no run.
pub fn in_place_and_copied_batches(index: &WindowIndex, few: usize) -> [Vec<usize>; 2] {
    let runs = index.live_runs();
    let nw = index.num_windows();
    let held = |j: usize| (0..runs.nbr.len()).filter(|&i| runs.holds(i, j)).count();
    let mut by_runs: Vec<usize> = (0..nw).collect();
    by_runs.sort_by_key(|&j| (held(j), j));
    let mut most: Vec<usize> = by_runs[1..].to_vec();
    most.sort_unstable();
    let mut fewest = by_runs[..few].to_vec();
    fewest.sort_unstable();
    [most, fewest]
}
