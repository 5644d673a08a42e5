//! Error types for temporal graph construction.

use std::fmt;

/// Errors produced while validating events or building graph representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The event log contains no events.
    EmptyEvents,
    /// An event references a vertex id outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The declared number of vertices.
        num_vertices: usize,
    },
    /// A window specification is degenerate (non-positive width or offset,
    /// or zero windows).
    InvalidWindowSpec(String),
    /// A multi-window partition was requested with zero parts.
    ZeroMultiWindows,
    /// A directed (`symmetric: false`) build was requested: every window
    /// graph is symmetric.
    NotSymmetric,
    /// A self-loop event `(u, u, t)` was encountered where disallowed.
    SelfLoop {
        /// The vertex looping onto itself.
        vertex: u32,
        /// The event timestamp.
        time: i64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyEvents => write!(f, "event log is empty"),
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::InvalidWindowSpec(msg) => write!(f, "invalid window spec: {msg}"),
            GraphError::ZeroMultiWindows => {
                write!(f, "multi-window partition requires at least one part")
            }
            GraphError::NotSymmetric => {
                write!(
                    f,
                    "window graphs are symmetric-only; a directed build is refused"
                )
            }
            GraphError::SelfLoop { vertex, time } => {
                write!(f, "self-loop on vertex {vertex} at time {time}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(GraphError::EmptyEvents.to_string(), "event log is empty");
        let e = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4,
        };
        assert!(e.to_string().contains("vertex 9"));
        assert!(e.to_string().contains("4 vertices"));
        let e = GraphError::InvalidWindowSpec("sw must be positive".into());
        assert!(e.to_string().contains("sw must be positive"));
        let e = GraphError::SelfLoop { vertex: 3, time: 7 };
        assert!(e.to_string().contains("vertex 3"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&GraphError::EmptyEvents);
    }
}
