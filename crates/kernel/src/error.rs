//! Structured kernel failures.
//!
//! Every kernel entry point returns `Result<_, KernelError>` instead of
//! panicking: setup mismatches (caller bugs) and numeric faults (data or
//! hardware pathologies caught by the health guards) are both reported as
//! values so a driver can isolate the failing window and keep going.

use std::fmt;

/// A numeric-health violation detected by the per-iteration guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericFault {
    /// A NaN or ±Inf appeared in the iterate (lane index for batched
    /// kernels, 0 otherwise).
    NonFinite {
        /// Lane in which the non-finite value appeared.
        lane: usize,
    },
    /// The rank mass left `1 ± epsilon` (power iteration preserves mass
    /// exactly in exact arithmetic, so drift indicates corrupted degrees,
    /// broken reductions, or bit flips).
    MassDrift {
        /// Lane whose mass drifted.
        lane: usize,
        /// The observed rank mass.
        mass: f64,
        /// The configured tolerance it violated.
        epsilon: f64,
    },
}

impl fmt::Display for NumericFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericFault::NonFinite { lane } => {
                write!(f, "non-finite rank value (lane {lane})")
            }
            NumericFault::MassDrift {
                lane,
                mass,
                epsilon,
            } => write!(
                f,
                "rank mass {mass} drifted more than {epsilon} from 1 (lane {lane})"
            ),
        }
    }
}

/// Errors from the PageRank kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// `pull` and `push` structures cover different vertex universes (the
    /// dense oracle, which still takes a directed pair).
    MismatchedUniverses {
        /// Vertices in the pull structure.
        pull: usize,
        /// Vertices in the push structure.
        push: usize,
    },
    /// The batched kernel was given zero or more than `MAX_LANES` lanes.
    BadLaneCount {
        /// The offending lane count.
        got: usize,
    },
    /// A per-lane argument list does not match the lane count.
    LaneMismatch {
        /// Number of lanes (window ranges / views).
        lanes: usize,
        /// Number of per-lane arguments supplied.
        args: usize,
    },
    /// A caller-provided vector has the wrong length for the vertex
    /// universe.
    BadVectorLength {
        /// What the vector was for.
        what: &'static str,
        /// Expected length (vertex count).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A numeric fault survived the configured recovery policy (or the
    /// policy was [`crate::NumericPolicy::Fail`]).
    Numeric {
        /// Iteration at which the unrecoverable fault was detected.
        iteration: usize,
        /// The fault itself.
        fault: NumericFault,
    },
    /// The dense solver was asked for a window whose active set exceeds
    /// its guard (the solve is `O(n³)`).
    ActiveSetTooLarge {
        /// Active vertices in the window.
        active: usize,
        /// The configured cap.
        max_active: usize,
    },
    /// The dense PageRank system was numerically singular.
    SingularSystem,
    /// A query batch contained no queries (or was given no windows) — a
    /// batched run over nothing is a caller bug, not an empty result.
    EmptyBatch,
    /// A kernel was given two structures as `pull` and `push`: window
    /// graphs are symmetric, and an entry takes one structure twice.
    NotSymmetric,
    /// A window-index view is not over the kernel's vertex universe, or a
    /// batch's views do not all come from one index (their run lists
    /// differ).
    ForeignIndexViews,
    /// A query specification is invalid (parameter out of range).
    BadQuery {
        /// Index of the offending query within its batch.
        index: usize,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::MismatchedUniverses { pull, push } => write!(
                f,
                "pull/push vertex universes differ ({pull} vs {push} vertices)"
            ),
            KernelError::BadLaneCount { got } => {
                write!(f, "1..=64 lanes required, got {got}")
            }
            KernelError::LaneMismatch { lanes, args } => {
                write!(
                    f,
                    "one argument per lane required ({lanes} lanes, {args} given)"
                )
            }
            KernelError::BadVectorLength {
                what,
                expected,
                got,
            } => write!(f, "{what} has wrong length: expected {expected}, got {got}"),
            KernelError::Numeric { iteration, fault } => {
                write!(f, "numeric fault at iteration {iteration}: {fault}")
            }
            KernelError::ActiveSetTooLarge { active, max_active } => write!(
                f,
                "active set {active} exceeds max_active {max_active} (dense solve is O(n^3))"
            ),
            KernelError::SingularSystem => write!(f, "singular PageRank system"),
            KernelError::EmptyBatch => {
                write!(f, "query batch is empty (no queries or no windows)")
            }
            KernelError::NotSymmetric => write!(
                f,
                "pull and push must be one symmetric structure, passed twice"
            ),
            KernelError::ForeignIndexViews => write!(
                f,
                "index views must come from one window index over the kernel's vertices"
            ),
            KernelError::BadQuery { index, what } => {
                write!(f, "query {index} is invalid: {what}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A deterministic fault to inject into one kernel invocation — the
/// instrument the fault-injection test suite uses to drive every recovery
/// path. `None` in [`crate::PrConfig::fault`] (the default) is zero-cost:
/// the hooks are a branch on a register-resident `Option`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one active vertex's rank with NaN at the start of the
    /// given (1-based) iteration.
    InjectNan {
        /// Iteration at which the NaN appears.
        at_iter: usize,
    },
    /// Suppress the convergence test so the kernel runs to `max_iters` and
    /// reports `converged: false`.
    ForceNonConvergence,
    /// Multiply one active vertex's `1/outdeg` by 1000 after setup —
    /// modeling a corrupted reciprocal that makes rank mass grow.
    CorruptReciprocal,
    /// Panic at the first iteration (exercises driver panic isolation).
    PanicInKernel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = KernelError::MismatchedUniverses { pull: 3, push: 5 };
        assert!(e.to_string().contains("3 vs 5"));
        let e = KernelError::Numeric {
            iteration: 7,
            fault: NumericFault::MassDrift {
                lane: 2,
                mass: 1.5,
                epsilon: 1e-6,
            },
        };
        let s = e.to_string();
        assert!(s.contains("iteration 7") && s.contains("lane 2"), "{s}");
        let e = KernelError::BadVectorLength {
            what: "preference",
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("preference"));
        let e = KernelError::EmptyBatch;
        assert!(e.to_string().contains("empty"));
        let e = KernelError::BadQuery {
            index: 3,
            what: "alpha must be in [0, 1]",
        };
        let s = e.to_string();
        assert!(s.contains("query 3") && s.contains("alpha"), "{s}");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&KernelError::SingularSystem);
    }
}
