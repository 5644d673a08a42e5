//! `kernel::scheduler` (and the rayon shim under it): what one parallel
//! loop costs before it does any work.

use crate::spans::Spans;
use tempopr::kernel::{thread_pool, Scheduler};

/// Empty parallel loops timed.
pub const CALLS: usize = 2000;

/// Seconds of each of [`CALLS`] calls of `for_each_range(4·threads, no-op)`
/// under the default scheduler inside `thread_pool(threads)`.
pub fn dispatch(spans: &Spans, threads: usize) -> Result<Vec<f64>, String> {
    let pool = thread_pool(threads).map_err(|e| format!("thread pool: {e}"))?;
    let sched = Scheduler::default();
    Ok(pool.install(|| {
        (0..CALLS)
            .map(|_| {
                spans
                    .time("kernel.scheduler.for_each_range", || {
                        sched.for_each_range(4 * threads, |r| {
                            std::hint::black_box(r);
                        })
                    })
                    .1
            })
            .collect()
    }))
}
