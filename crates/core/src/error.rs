//! Unified error taxonomy for the execution layer.
//!
//! Every failure that can stop a run is an [`EngineError`]; failures that
//! the engine *contains* (a single poisoned window) never surface here —
//! they become [`crate::result::WindowStatus::Failed`] entries in an
//! otherwise-complete [`crate::result::RunOutput`].

use tempopr_graph::io::IoError;
use tempopr_graph::{BudgetError, GraphError, StorageError};
use tempopr_kernel::KernelError;

/// Which phase of a run an error belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reading / parsing input events.
    Ingest,
    /// Building the multi-window representation.
    Build,
    /// Thread-pool or kernel setup.
    Setup,
    /// Power iteration of one window.
    Iterate,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Ingest => "ingest",
            Phase::Build => "build",
            Phase::Setup => "setup",
            Phase::Iterate => "iterate",
        };
        f.write_str(s)
    }
}

/// Any failure that can abort an execution-layer entry point.
#[derive(Debug)]
pub enum EngineError {
    /// Event-set or window-spec validation failed.
    Graph(GraphError),
    /// Reading an event file failed.
    Io(IoError),
    /// A kernel failed, with the run context attached.
    Kernel {
        /// Global window index, when the failure is window-scoped.
        window: Option<usize>,
        /// Multi-window part index, when part-scoped.
        part: Option<usize>,
        /// Phase of the run.
        phase: Phase,
        /// The underlying kernel error.
        source: KernelError,
    },
    /// A durable run could not write or resume from its checkpoint
    /// manifest (resume-time incompatibility or corruption; write-time
    /// failures after startup only degrade durability, never the run).
    Checkpoint(crate::checkpoint::CheckpointError),
    /// The storage backend failed to build or serve a part (i/o failure,
    /// corrupted payload, malformed `tempopr.tcsr.v1` file).
    Storage {
        /// Multi-window part index, when the failure is a part fetch.
        part: Option<usize>,
        /// The underlying storage error.
        source: StorageError,
    },
    /// The configured memory budget cannot hold even the cheapest
    /// partitioning under the selected storage backend. `required` is the
    /// minimal feasible budget — rerun with at least that many bytes.
    BudgetInfeasible {
        /// Minimal feasible budget among the evaluated partitions, bytes.
        required: usize,
        /// The budget that was requested, bytes.
        budget: usize,
    },
}

impl EngineError {
    /// Wraps a storage error with the part it was fetching.
    pub fn storage(part: usize, source: StorageError) -> Self {
        EngineError::Storage {
            part: Some(part),
            source,
        }
    }

    /// Wraps a kernel error with window/part/phase context.
    pub fn kernel(
        window: Option<usize>,
        part: Option<usize>,
        phase: Phase,
        source: KernelError,
    ) -> Self {
        EngineError::Kernel {
            window,
            part,
            phase,
            source,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Graph(e) => write!(f, "graph error: {e}"),
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::Kernel {
                window,
                part,
                phase,
                source,
            } => {
                write!(f, "kernel error ({phase}")?;
                if let Some(w) = window {
                    write!(f, ", window {w}")?;
                }
                if let Some(p) = part {
                    write!(f, ", part {p}")?;
                }
                write!(f, "): {source}")
            }
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EngineError::Storage { part, source } => {
                f.write_str("storage")?;
                if let Some(p) = part {
                    write!(f, " (part {p})")?;
                }
                write!(f, ": {source}")
            }
            EngineError::BudgetInfeasible { required, budget } => write!(
                f,
                "memory budget of {budget} bytes is infeasible even at one part per \
                 window; the minimal feasible budget is {required} bytes"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Graph(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Kernel { source, .. } => Some(source),
            EngineError::Checkpoint(e) => Some(e),
            EngineError::Storage { source, .. } => Some(source),
            EngineError::BudgetInfeasible { .. } => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage {
            part: None,
            source: e,
        }
    }
}

impl From<BudgetError> for EngineError {
    fn from(e: BudgetError) -> Self {
        EngineError::BudgetInfeasible {
            required: e.required,
            budget: e.budget,
        }
    }
}

impl From<crate::checkpoint::CheckpointError> for EngineError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<IoError> for EngineError {
    fn from(e: IoError) -> Self {
        EngineError::Io(e)
    }
}

impl From<KernelError> for EngineError {
    fn from(e: KernelError) -> Self {
        EngineError::Kernel {
            window: None,
            part: None,
            phase: Phase::Setup,
            source: e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = EngineError::kernel(
            Some(7),
            Some(1),
            Phase::Iterate,
            KernelError::SingularSystem,
        );
        let s = e.to_string();
        assert!(s.contains("window 7"), "{s}");
        assert!(s.contains("part 1"), "{s}");
        assert!(s.contains("iterate"), "{s}");
    }

    #[test]
    fn conversions_and_source_chain() {
        let e: EngineError = GraphError::EmptyEvents.into();
        assert!(matches!(e, EngineError::Graph(_)));
        let e: EngineError = KernelError::SingularSystem.into();
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
