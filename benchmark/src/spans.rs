//! In-memory spans for the traced run.
//!
//! The benchmark's own code records a span around each call into a layer's
//! public functions — nothing is instrumented inside any crate. A span
//! holds its name, start, end, the span that caused it, the workload and
//! the pass it belongs to; all spans stay in memory and are written to
//! `trace.json` when the run ends. A span's self time is its duration
//! minus the part its child spans cover.

use crate::json::{count, obj, s, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: Cow<'static, str>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    pass: usize,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// Index of the pass span currently open (0 = the run itself).
    pass: usize,
}

/// The span recorder of one workload's traced run. Layers are called from
/// one thread, so interior mutability through a `RefCell` suffices.
#[derive(Debug)]
pub struct Spans {
    workload: &'static str,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Spans {
    /// A recorder whose root span (`trace-run`, the only one without a
    /// parent) opens now and closes in [`Spans::finish`].
    pub fn new(workload: &'static str) -> Spans {
        let spans = Spans {
            workload,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                pass: 0,
            }),
        };
        spans.open(Cow::Borrowed("trace-run"));
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: Cow<'static, str>) -> usize {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: inner.stack.last().copied(),
            pass: inner.pass,
        };
        inner.spans.push(span);
        inner.stack.push(id);
        id
    }

    fn close(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut inner.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration in seconds — the number per-layer timings use.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(Cow::Borrowed(name));
        let r = f();
        (r, self.close(id))
    }

    /// Runs `f` as one pass: a span under the root whose index is the pass
    /// id of every span opened inside it.
    pub fn pass<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(Cow::Owned(format!("pass:{name}")));
        let outer = std::mem::replace(&mut self.inner.borrow_mut().pass, id);
        let r = f();
        self.inner.borrow_mut().pass = outer;
        self.close(id);
        r
    }

    /// Closes the root span and returns every span as JSON objects with
    /// `id`, `name`, `start_ns`, `end_ns`, `self_ns`, `parent`, `workload`
    /// and `pass`.
    pub fn finish(self) -> Vec<Value> {
        self.close(0);
        let inner = self.inner.into_inner();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for sp in &inner.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.end_ns - sp.start_ns;
            }
        }
        inner
            .spans
            .iter()
            .enumerate()
            .map(|(id, sp)| {
                obj([
                    ("id", count(id as u64)),
                    ("name", s(sp.name.as_ref())),
                    ("start_ns", count(sp.start_ns)),
                    ("end_ns", count(sp.end_ns)),
                    (
                        "self_ns",
                        count((sp.end_ns - sp.start_ns).saturating_sub(child_ns[id])),
                    ),
                    ("parent", sp.parent.map_or(Value::Null, |p| count(p as u64))),
                    ("workload", s(self.workload)),
                    ("pass", count(sp.pass as u64)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let spans = Spans::new("w");
        spans.pass("p", || {
            spans.time("outer", || {
                spans.time("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let out = spans.finish();
        assert_eq!(out.len(), 4);
        let get = |i: usize, k: &str| out[i].get(k).cloned().unwrap();
        assert_eq!(get(0, "parent"), Value::Null);
        assert_eq!(get(1, "parent"), count(0));
        assert_eq!(get(2, "parent"), count(1));
        assert_eq!(get(3, "parent"), count(2));
        assert_eq!(get(3, "pass"), count(1));
        let dur =
            |i: usize| get(i, "end_ns").as_f64().unwrap() - get(i, "start_ns").as_f64().unwrap();
        assert!(dur(3) >= 2e6);
        assert_eq!(get(2, "self_ns").as_f64().unwrap(), dur(2) - dur(3));
    }
}
