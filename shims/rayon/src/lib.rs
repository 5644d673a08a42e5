//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the *subset* of rayon's API it actually uses, implemented on
//! `std::thread::scope`. Semantics match rayon where the workspace relies
//! on them:
//!
//! - [`prelude::IntoParallelIterator`] on `Vec<T>` and `Range<usize>`,
//!   with `for_each`, `map`, `reduce`, and `collect` (order-preserving);
//! - [`ThreadPool`] / [`ThreadPoolBuilder`] where `install` scopes the
//!   thread count seen by [`current_num_threads`] (and by parallel calls
//!   issued inside the closure) to the pool's size;
//! - panics in worker closures propagate to the caller.
//!
//! Scheduling is static (contiguous chunks, one per worker) rather than
//! work-stealing. Every consumer in this workspace pre-chunks work through
//! `tempopr_kernel::Scheduler`, so the difference only affects load
//! balancing, never results.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;

thread_local! {
    /// Thread count installed by the innermost enclosing `ThreadPool::install`.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads the current scope would use.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|p| p.get())
        .unwrap_or_else(default_threads)
}

/// Restores the ambient thread count when a scope ends (including on panic).
struct ThreadCountGuard {
    prev: Option<usize>,
}

impl ThreadCountGuard {
    fn set(threads: usize) -> Self {
        let prev = POOL_THREADS.with(|p| p.replace(Some(threads)));
        ThreadCountGuard { prev }
    }
}

impl Drop for ThreadCountGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        POOL_THREADS.with(|p| p.set(prev));
    }
}

/// A fixed-size logical thread pool. Work submitted through parallel
/// iterators inside [`ThreadPool::install`] runs on freshly scoped threads
/// capped at the pool's size.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count installed.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _guard = ThreadCountGuard::set(self.threads);
        op()
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (infallible here,
/// kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (all-cores) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// Runs `f` over `items` on up to `current_num_threads()` scoped threads,
/// returning the per-item results in input order. Worker panics resurface
/// on the calling thread.
fn run_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().max(1);
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    // Nested parallel calls in workers see the same budget.
                    let _guard = ThreadCountGuard::set(threads);
                    c.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Parallel-iterator types (see [`prelude`]).
pub mod iter {
    use super::run_parallel;
    use std::ops::Range;

    /// Conversion into a parallel iterator (subset of rayon's trait).
    pub trait IntoParallelIterator {
        /// The element type.
        type Item: Send;
        /// Converts `self` into a [`ParIter`].
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    impl IntoParallelIterator for Range<usize> {
        type Item = usize;
        fn into_par_iter(self) -> ParIter<usize> {
            ParIter {
                items: self.collect(),
            }
        }
    }

    /// A materialized parallel iterator over owned items.
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParIter<T> {
        /// Consumes every item in parallel.
        pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
            run_parallel(self.items, f);
        }

        /// Maps items through `f`, deferring execution to the terminal call.
        pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> MapParIter<T, F> {
            MapParIter {
                items: self.items,
                f,
            }
        }
    }

    /// A parallel iterator with a pending `map` stage.
    pub struct MapParIter<T, F> {
        items: Vec<T>,
        f: F,
    }

    impl<T: Send, R: Send, F: Fn(T) -> R + Sync> MapParIter<T, F> {
        /// Maps in parallel and folds the results with `op` from `identity`.
        pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
        where
            ID: Fn() -> R + Sync,
            OP: Fn(R, R) -> R + Sync,
        {
            let f = self.f;
            run_parallel(self.items, f).into_iter().fold(identity(), op)
        }

        /// Maps in parallel and collects results in input order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let f = self.f;
            run_parallel(self.items, f).into_iter().collect()
        }
    }
}

/// The usual glob-import surface: `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, MapParIter, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_visits_everything() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let idx: Vec<usize> = (0..100).collect();
        idx.into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..50usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_reduce_sums() {
        let s = (0..101usize)
            .into_par_iter()
            .map(|i| i)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                assert!(i < 10, "boom {i}");
            });
        });
        assert!(r.is_err());
    }
}
