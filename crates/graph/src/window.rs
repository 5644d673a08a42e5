//! The sliding-window model (paper §2.1, Fig. 1).
//!
//! A temporal analysis looks at the sequence of graphs
//! `G_i = G(T_i, T_i + δ)` with `T_i = T_0 + i·sw`: a window of fixed width
//! `δ` slid forward by `sw` time units per step. [`WindowSpec`] captures the
//! parameters, [`TimeRange`] a single window's `[start, end]` span.

use crate::error::GraphError;
use crate::events::{EventLog, Timestamp};

/// An inclusive time interval `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive lower bound `Ts`.
    pub start: Timestamp,
    /// Inclusive upper bound `Te`.
    pub end: Timestamp,
}

impl TimeRange {
    /// Constructs a range; `start` may exceed `end`, yielding an empty range.
    #[inline]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeRange { start, end }
    }

    /// Whether `t` falls inside the window (`Ts <= t <= Te`).
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the range contains no timestamps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start > self.end
    }

    /// The smallest range covering both `self` and `other`.
    #[inline]
    pub fn hull(&self, other: &TimeRange) -> TimeRange {
        TimeRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Whether the two ranges share at least one timestamp.
    #[inline]
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start <= other.end && other.start <= self.end
    }
}

/// Parameters of the sliding-window sequence: origin `T0`, window width `δ`,
/// sliding offset `sw`, and the number of windows `m + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Start time of the first window (`T0`).
    pub t0: Timestamp,
    /// Window width `δ` (time units).
    pub delta: Timestamp,
    /// Sliding offset `sw` (time units).
    pub sw: Timestamp,
    /// Number of windows in the sequence (`m + 1`).
    pub count: usize,
}

impl WindowSpec {
    /// Builds a spec with an explicit window count.
    pub fn new(
        t0: Timestamp,
        delta: Timestamp,
        sw: Timestamp,
        count: usize,
    ) -> Result<Self, GraphError> {
        if delta <= 0 {
            return Err(GraphError::InvalidWindowSpec(format!(
                "window width delta must be positive, got {delta}"
            )));
        }
        if sw <= 0 {
            return Err(GraphError::InvalidWindowSpec(format!(
                "sliding offset sw must be positive, got {sw}"
            )));
        }
        if count == 0 {
            return Err(GraphError::InvalidWindowSpec(
                "window count must be at least 1".into(),
            ));
        }
        // The last window's end, `t0 + (count - 1)·sw + δ`, bounds every
        // start and end `window(i)` computes.
        let last_end = i128::from(t0) + (count as i128 - 1) * i128::from(sw) + i128::from(delta);
        if last_end > i128::from(Timestamp::MAX) {
            return Err(GraphError::InvalidWindowSpec(format!(
                "the last of {count} windows (t0 {t0}, sw {sw}, delta {delta}) ends past \
                 the largest timestamp"
            )));
        }
        Ok(WindowSpec {
            t0,
            delta,
            sw,
            count,
        })
    }

    /// Builds the spec covering an event log: `T0` is the first event's
    /// timestamp and windows are generated while the window start does not
    /// exceed the last event's timestamp (paper: "`T0` is set by the
    /// beginning of the dataset").
    ///
    /// ```
    /// use tempopr_graph::{Event, EventLog, WindowSpec};
    /// let log = EventLog::from_unsorted(
    ///     (0..10).map(|i| Event::new(i, (i + 1) % 10, i as i64 * 10)).collect(),
    ///     10,
    /// ).unwrap();
    /// // Width-30 windows sliding by 20: starts at 0, 20, 40, 60, 80.
    /// let spec = WindowSpec::covering(&log, 30, 20).unwrap();
    /// assert_eq!(spec.count, 5);
    /// assert_eq!(spec.window(1).start, 20);
    /// assert_eq!(spec.window(1).end, 50);
    /// ```
    pub fn covering(log: &EventLog, delta: Timestamp, sw: Timestamp) -> Result<Self, GraphError> {
        let t0 = log.first_time();
        let t_last = log.last_time();
        // Validate before the division below; Self::new re-checks and
        // produces the error messages.
        if delta <= 0 || sw <= 0 {
            return Self::new(t0, delta, sw, 1);
        }
        let Some(span) = t_last.checked_sub(t0) else {
            return Err(GraphError::InvalidWindowSpec(format!(
                "the log's time span {t0}..={t_last} exceeds the largest timestamp"
            )));
        };
        Self::new(t0, delta, sw, (span / sw) as usize + 1)
    }

    /// The `i`-th window `[T0 + i*sw, T0 + i*sw + δ]`.
    ///
    /// Exact for every spec [`Self::new`] accepts, even where `i*sw` alone
    /// leaves the time axis; fields set by hand past the axis saturate at
    /// its ends.
    ///
    /// # Panics
    /// Panics if `i >= count`.
    #[inline]
    pub fn window(&self, i: usize) -> TimeRange {
        assert!(
            i < self.count,
            "window index {i} out of range {}",
            self.count
        );
        let start = i128::from(self.t0) + i as i128 * i128::from(self.sw);
        let on_axis = |t: i128| t.clamp(Timestamp::MIN.into(), Timestamp::MAX.into()) as Timestamp;
        TimeRange::new(on_axis(start), on_axis(start + i128::from(self.delta)))
    }

    /// Iterates over all windows in order.
    pub fn windows(&self) -> impl Iterator<Item = TimeRange> + '_ {
        (0..self.count).map(move |i| self.window(i))
    }

    /// The hull `[T0, T0 + (count-1)*sw + δ]` spanning every window.
    pub fn span(&self) -> TimeRange {
        self.window(0).hull(&self.window(self.count - 1))
    }

    /// The hull spanning windows `range.start..range.end` (used by
    /// multi-window graphs).
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn span_of(&self, range: std::ops::Range<usize>) -> TimeRange {
        assert!(
            range.start < range.end && range.end <= self.count,
            "invalid window range {range:?} for {} windows",
            self.count
        );
        self.window(range.start).hull(&self.window(range.end - 1))
    }

    /// Whether consecutive windows overlap (`sw < δ`), i.e. each graph
    /// shares edges with its predecessor — the regime where partial
    /// initialization pays off.
    #[inline]
    pub fn overlapping(&self) -> bool {
        self.sw < self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn small_log() -> EventLog {
        EventLog::from_sorted(
            vec![
                Event::new(0, 1, 100),
                Event::new(1, 2, 150),
                Event::new(2, 3, 260),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn time_range_contains_is_inclusive() {
        let r = TimeRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
        assert!(!r.is_empty());
        assert!(TimeRange::new(5, 4).is_empty());
    }

    #[test]
    fn hull_and_overlap() {
        let a = TimeRange::new(0, 10);
        let b = TimeRange::new(5, 20);
        let c = TimeRange::new(11, 12);
        assert_eq!(a.hull(&b), TimeRange::new(0, 20));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::new(0, 0, 1, 1).is_err());
        assert!(WindowSpec::new(0, 1, 0, 1).is_err());
        assert!(WindowSpec::new(0, 1, 1, 0).is_err());
        assert!(WindowSpec::new(0, 1, 1, 1).is_ok());
    }

    #[test]
    fn covering_counts_windows() {
        let log = small_log();
        // t0 = 100, last = 260, sw = 50 => m = 3 => 4 windows.
        let spec = WindowSpec::covering(&log, 80, 50).unwrap();
        assert_eq!(spec.t0, 100);
        assert_eq!(spec.count, 4);
        assert_eq!(spec.window(0), TimeRange::new(100, 180));
        assert_eq!(spec.window(3), TimeRange::new(250, 330));
        // Last window start (250) <= last event (260); a 5th would start at
        // 300 > 260.
    }

    #[test]
    fn covering_refuses_a_span_past_the_time_axis() {
        let log = EventLog::from_sorted(
            vec![
                Event::new(0, 1, Timestamp::MIN),
                Event::new(1, 2, Timestamp::MAX),
            ],
            3,
        )
        .unwrap();
        assert!(matches!(
            WindowSpec::covering(&log, 10, 5),
            Err(GraphError::InvalidWindowSpec(_))
        ));
        // The widest span that fits still covers.
        let log = EventLog::from_sorted(
            vec![Event::new(0, 1, -1), Event::new(1, 2, Timestamp::MAX - 1)],
            3,
        )
        .unwrap();
        let spec = WindowSpec::covering(&log, 1, Timestamp::MAX).unwrap();
        assert_eq!(spec.count, 2);
        assert_eq!(
            spec.window(1),
            TimeRange::new(Timestamp::MAX - 1, Timestamp::MAX)
        );
    }

    #[test]
    fn new_refuses_a_last_window_past_the_time_axis() {
        let max = Timestamp::MAX;
        for (t0, delta, sw, count) in [
            (max - 10, 11, 1, 1),
            (0, 2, max / 2, 3),
            (0, 1, 1, usize::MAX),
            (Timestamp::MIN, max, max, 3),
            (Timestamp::MIN, 2, max, 3),
        ] {
            assert!(
                matches!(
                    WindowSpec::new(t0, delta, sw, count),
                    Err(GraphError::InvalidWindowSpec(_))
                ),
                "{t0} {delta} {sw} {count}"
            );
        }
        // The last window may end at the largest timestamp, and every
        // window of such a spec is computed, even where `i·sw` alone leaves
        // the axis.
        for (t0, delta, sw, count) in [
            (max - 10, 10, 1, 1),
            (Timestamp::MIN + 1, max, max, 2),
            (Timestamp::MIN, 1, max, 3),
        ] {
            let spec = WindowSpec::new(t0, delta, sw, count).unwrap();
            assert_eq!(spec.window(count - 1).end, max);
            assert_eq!(spec.span().end, max);
        }
    }

    #[test]
    fn covering_single_window_when_sw_large() {
        let log = small_log();
        let spec = WindowSpec::covering(&log, 10, 1000).unwrap();
        assert_eq!(spec.count, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_index_out_of_range_panics() {
        let spec = WindowSpec::new(0, 10, 5, 3).unwrap();
        let _ = spec.window(3);
    }

    #[test]
    fn span_and_span_of() {
        let spec = WindowSpec::new(0, 10, 5, 4).unwrap();
        assert_eq!(spec.span(), TimeRange::new(0, 25));
        assert_eq!(spec.span_of(1..3), TimeRange::new(5, 20));
    }

    #[test]
    fn overlapping_flag() {
        assert!(WindowSpec::new(0, 10, 5, 2).unwrap().overlapping());
        assert!(!WindowSpec::new(0, 5, 10, 2).unwrap().overlapping());
    }

    #[test]
    fn windows_iterator_matches_indexing() {
        let spec = WindowSpec::new(7, 9, 4, 5).unwrap();
        let via_iter: Vec<_> = spec.windows().collect();
        let via_index: Vec<_> = (0..5).map(|i| spec.window(i)).collect();
        assert_eq!(via_iter, via_index);
    }
}
