//! Temporal event sets: the raw input of a postmortem analysis.
//!
//! An *event* is a triple `(u, v, t)` recording that a relation between
//! vertices `u` and `v` was observed at integer timestamp `t` (paper §2.1).
//! The whole analysis input is an [`EventLog`]: a sequence of events sorted
//! by non-decreasing timestamp. In the postmortem model the entire log is
//! known up front, which is what lets us build time-indexed representations
//! such as the temporal CSR ([`crate::tcsr::TemporalCsr`]).

use crate::error::GraphError;

/// Vertex identifier. 32 bits keeps adjacency arrays compact (perf-book:
/// smaller integers for indices); the paper's largest dataset has ~48M
/// events and far fewer vertices.
pub type VertexId = u32;

/// Integer timestamp (e.g. seconds since an epoch). The unit is up to the
/// application; sliding offsets and window widths use the same unit.
pub type Timestamp = i64;

/// A single temporal relational event `(u, v, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Source vertex.
    pub u: VertexId,
    /// Destination vertex.
    pub v: VertexId,
    /// Arrival timestamp.
    pub t: Timestamp,
}

impl Event {
    /// Convenience constructor.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, t: Timestamp) -> Self {
        Event { u, v, t }
    }
}

/// A validated, time-sorted temporal edge set.
///
/// Invariants maintained by every constructor:
/// - at least one event;
/// - events sorted by non-decreasing timestamp;
/// - every vertex id is `< num_vertices`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
    num_vertices: usize,
}

impl EventLog {
    /// Builds a log from events already sorted by non-decreasing time.
    ///
    /// `num_vertices` declares the universe `V` (paper: "the elements of V
    /// known because of offline behavior"). Returns an error if the list is
    /// empty, unsorted, or references an out-of-range vertex.
    pub fn from_sorted(events: Vec<Event>, num_vertices: usize) -> Result<Self, GraphError> {
        if events.is_empty() {
            return Err(GraphError::EmptyEvents);
        }
        for w in events.windows(2) {
            if w[0].t > w[1].t {
                return Err(GraphError::InvalidWindowSpec(format!(
                    "events not sorted by time: {} before {}",
                    w[0].t, w[1].t
                )));
            }
        }
        Self::validate_vertices(&events, num_vertices)?;
        Ok(EventLog {
            events,
            num_vertices,
        })
    }

    /// Builds a log from events in arbitrary order, sorting them by time.
    ///
    /// The sort is stable so events with equal timestamps keep their input
    /// order, which keeps downstream representations deterministic. Input
    /// already in time order (the common case: every file this crate
    /// writes) costs one ordered pass and no sort.
    ///
    /// ```
    /// use tempopr_graph::{Event, EventLog};
    /// let log = EventLog::from_unsorted(
    ///     vec![Event::new(0, 1, 9), Event::new(1, 2, 3)],
    ///     3,
    /// ).unwrap();
    /// assert_eq!(log.first_time(), 3);
    /// assert_eq!(log.len(), 2);
    /// ```
    pub fn from_unsorted(mut events: Vec<Event>, num_vertices: usize) -> Result<Self, GraphError> {
        if events.is_empty() {
            return Err(GraphError::EmptyEvents);
        }
        Self::validate_vertices(&events, num_vertices)?;
        if !events.is_sorted_by_key(|e| e.t) {
            events.sort_by_key(|e| e.t);
        }
        Ok(EventLog {
            events,
            num_vertices,
        })
    }

    /// Builds a log inferring `num_vertices` as `max(id) + 1`.
    pub fn from_unsorted_auto(events: Vec<Event>) -> Result<Self, GraphError> {
        let n = events
            .iter()
            .map(|e| e.u.max(e.v) as usize + 1)
            .max()
            .ok_or(GraphError::EmptyEvents)?;
        Self::from_unsorted(events, n)
    }

    fn validate_vertices(events: &[Event], num_vertices: usize) -> Result<(), GraphError> {
        for e in events {
            let m = e.u.max(e.v);
            if m as usize >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: m,
                    num_vertices,
                });
            }
        }
        Ok(())
    }

    /// Number of events `|Events|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty (never true for a constructed log).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Size of the vertex universe `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// All events, sorted by non-decreasing timestamp.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Timestamp of the first (earliest) event.
    #[inline]
    pub fn first_time(&self) -> Timestamp {
        self.events[0].t
    }

    /// Timestamp of the last (latest) event.
    #[inline]
    pub fn last_time(&self) -> Timestamp {
        self.events[self.events.len() - 1].t
    }

    /// The contiguous slice of events with timestamps in `[start, end]`
    /// (both inclusive, matching the paper's `Ts <= t <= Te`).
    ///
    /// Because the log is time-sorted this is two binary searches, so the
    /// offline model can extract any window in `O(log |Events| + k)`.
    pub fn slice_by_time(&self, start: Timestamp, end: Timestamp) -> &[Event] {
        if start > end {
            return &[];
        }
        let lo = self.events.partition_point(|e| e.t < start);
        let hi = self.events.partition_point(|e| e.t <= end);
        &self.events[lo..hi]
    }

    /// Index range of events with timestamps in `[start, end]`.
    pub fn index_range_by_time(&self, start: Timestamp, end: Timestamp) -> std::ops::Range<usize> {
        if start > end {
            return 0..0;
        }
        let lo = self.events.partition_point(|e| e.t < start);
        let hi = self.events.partition_point(|e| e.t <= end);
        lo..hi
    }

    /// Consumes the log and returns its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(u: u32, v: u32, t: i64) -> Event {
        Event::new(u, v, t)
    }

    #[test]
    fn from_sorted_accepts_sorted() {
        let log = EventLog::from_sorted(vec![ev(0, 1, 1), ev(1, 2, 2), ev(0, 2, 2)], 3).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.num_vertices(), 3);
        assert_eq!(log.first_time(), 1);
        assert_eq!(log.last_time(), 2);
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let err = EventLog::from_sorted(vec![ev(0, 1, 5), ev(1, 2, 2)], 3).unwrap_err();
        assert!(matches!(err, GraphError::InvalidWindowSpec(_)));
    }

    #[test]
    fn from_unsorted_sorts() {
        let log = EventLog::from_unsorted(vec![ev(0, 1, 9), ev(1, 2, 2), ev(2, 0, 5)], 3).unwrap();
        let ts: Vec<i64> = log.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 5, 9]);
    }

    #[test]
    fn from_unsorted_is_stable_on_ties() {
        let log =
            EventLog::from_unsorted(vec![ev(0, 1, 2), ev(1, 2, 1), ev(2, 3, 2), ev(3, 4, 2)], 5)
                .unwrap();
        let pairs: Vec<(u32, u32)> = log.events().iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(pairs, vec![(1, 2), (0, 1), (2, 3), (3, 4)]);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            EventLog::from_sorted(vec![], 3).unwrap_err(),
            GraphError::EmptyEvents
        );
        assert_eq!(
            EventLog::from_unsorted(vec![], 3).unwrap_err(),
            GraphError::EmptyEvents
        );
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        let err = EventLog::from_sorted(vec![ev(0, 7, 1)], 3).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 3
            }
        );
    }

    #[test]
    fn auto_vertex_count() {
        let log = EventLog::from_unsorted_auto(vec![ev(0, 4, 1), ev(2, 1, 0)]).unwrap();
        assert_eq!(log.num_vertices(), 5);
    }

    #[test]
    fn slice_by_time_inclusive_bounds() {
        let log = EventLog::from_sorted(
            vec![ev(0, 1, 10), ev(1, 2, 20), ev(2, 3, 20), ev(3, 4, 30)],
            5,
        )
        .unwrap();
        assert_eq!(log.slice_by_time(10, 20).len(), 3);
        assert_eq!(log.slice_by_time(11, 19).len(), 0);
        assert_eq!(log.slice_by_time(20, 20).len(), 2);
        assert_eq!(log.slice_by_time(0, 100).len(), 4);
        assert_eq!(log.slice_by_time(31, 100).len(), 0);
        assert_eq!(log.slice_by_time(30, 10).len(), 0);
    }

    #[test]
    fn index_range_matches_slice() {
        let log = EventLog::from_sorted(
            vec![ev(0, 1, 10), ev(1, 2, 20), ev(2, 3, 20), ev(3, 4, 30)],
            5,
        )
        .unwrap();
        let r = log.index_range_by_time(15, 25);
        assert_eq!(&log.events()[r], log.slice_by_time(15, 25));
    }
}
