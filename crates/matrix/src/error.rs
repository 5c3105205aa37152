//! Error type shared by all matrix kernels.

use std::fmt;

/// Result alias for matrix operations.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// Errors raised by matrix kernels. Kernels validate shapes up front so that
/// the runtime can surface script-level errors instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        op: &'static str,
        lhs: (usize, usize),
        rhs: (usize, usize),
    },
    /// An index or range fell outside the matrix bounds.
    IndexOutOfBounds {
        op: &'static str,
        index: usize,
        bound: usize,
    },
    /// A numerically singular (or non-positive-definite) system was given to a
    /// direct solver.
    Singular(&'static str),
    /// The iterative kernel failed to converge within its iteration budget.
    NoConvergence(&'static str),
    /// Catch-all for invalid arguments (bad probability, empty matrix, ...).
    InvalidArgument(String),
    /// A parallel kernel worker thread panicked. Surfaced as a typed error so
    /// the runtime can fail the script instead of aborting the process.
    WorkerPanic(String),
}

impl MatrixError {
    /// `op` got operands of shapes `lhs` and `rhs` that do not fit.
    pub fn mismatch(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Self {
        MatrixError::DimensionMismatch { op, lhs, rhs }
    }

    /// An argument the kernel cannot take, as `msg` says.
    pub fn invalid(msg: impl Into<String>) -> Self {
        MatrixError::InvalidArgument(msg.into())
    }

    /// `op` got an `index` that is not below `bound`.
    pub fn out_of_bounds(op: &'static str, index: usize, bound: usize) -> Self {
        MatrixError::IndexOutOfBounds { op, index, bound }
    }
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds (<{bound})")
            }
            MatrixError::Singular(op) => write!(f, "{op}: matrix is singular"),
            MatrixError::NoConvergence(op) => write!(f, "{op}: did not converge"),
            MatrixError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MatrixError::WorkerPanic(msg) => write!(f, "kernel worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = MatrixError::DimensionMismatch {
            op: "mm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "mm: dimension mismatch 2x3 vs 4x5");
        let e = MatrixError::IndexOutOfBounds {
            op: "slice",
            index: 9,
            bound: 4,
        };
        assert!(e.to_string().contains("index 9"));
        assert!(MatrixError::Singular("solve")
            .to_string()
            .contains("singular"));
        assert!(MatrixError::NoConvergence("eigen")
            .to_string()
            .contains("converge"));
        assert!(MatrixError::InvalidArgument("x".into())
            .to_string()
            .contains("x"));
    }
}
