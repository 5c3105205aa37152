//! Runtime error type.

use lima_matrix::MatrixError;
use std::fmt;

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors raised while executing a LIMA program.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// A matrix kernel failed (shape mismatch, singular system, ...).
    Kernel(MatrixError),
    /// A variable was read before being defined.
    UndefinedVariable(String),
    /// A function call could not be resolved.
    UndefinedFunction(String),
    /// Wrong number / type of operands for an instruction.
    BadOperands { op: String, msg: String },
    /// A `read` referenced a dataset that was never registered.
    UnknownDataset(String),
    /// Type error at script level (e.g. matrix used as predicate).
    TypeError(String),
    /// Reconstruction from lineage hit an unsupported item.
    Reconstruct(String),
    /// I/O failure (write instruction, lineage log).
    Io(String),
    /// A parfor worker panicked; the panic was isolated to the worker and
    /// surfaced here with its payload message instead of aborting the process.
    WorkerPanic(String),
    /// The session's deadline passed; execution stopped at a cooperative
    /// checkpoint (instruction boundary, parfor iteration, kernel row chunk,
    /// or cache placeholder wait).
    DeadlineExceeded,
    /// The session's `CancelToken` was cancelled.
    Cancelled,
    /// The resource governor rejected an admission (degradation ladder L4).
    ResourceExhausted(String),
}

impl RuntimeError {
    /// `op` got operands it cannot run on.
    pub fn bad_operands(op: impl Into<String>, msg: impl Into<String>) -> Self {
        RuntimeError::BadOperands {
            op: op.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Kernel(e) => write!(f, "kernel error: {e}"),
            RuntimeError::UndefinedVariable(v) => write!(f, "undefined variable '{v}'"),
            RuntimeError::UndefinedFunction(v) => write!(f, "undefined function '{v}'"),
            RuntimeError::BadOperands { op, msg } => write!(f, "bad operands for {op}: {msg}"),
            RuntimeError::UnknownDataset(p) => write!(f, "unknown dataset '{p}'"),
            RuntimeError::TypeError(m) => write!(f, "type error: {m}"),
            RuntimeError::Reconstruct(m) => write!(f, "reconstruct: {m}"),
            RuntimeError::Io(m) => write!(f, "i/o error: {m}"),
            RuntimeError::WorkerPanic(m) => write!(f, "parfor worker panicked: {m}"),
            RuntimeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RuntimeError::Cancelled => write!(f, "session cancelled"),
            RuntimeError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
        }
    }
}

impl From<lima_core::InterruptKind> for RuntimeError {
    fn from(kind: lima_core::InterruptKind) -> Self {
        match kind {
            lima_core::InterruptKind::Cancelled => RuntimeError::Cancelled,
            lima_core::InterruptKind::DeadlineExceeded => RuntimeError::DeadlineExceeded,
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MatrixError> for RuntimeError {
    fn from(e: MatrixError) -> Self {
        match e {
            // A panicking kernel worker is an execution fault, not a shape
            // error: route it to the same typed path as parfor worker panics
            // so sessions fail the script instead of aborting the process.
            MatrixError::WorkerPanic(msg) => RuntimeError::WorkerPanic(msg),
            other => RuntimeError::Kernel(other),
        }
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e: RuntimeError = MatrixError::Singular("solve").into();
        assert!(e.to_string().contains("solve"));
        assert!(RuntimeError::UndefinedVariable("x".into())
            .to_string()
            .contains("'x'"));
        assert!(RuntimeError::UnknownDataset("d".into())
            .to_string()
            .contains("'d'"));
        assert!(RuntimeError::WorkerPanic("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RuntimeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(RuntimeError::Cancelled.to_string().contains("cancelled"));
        assert!(RuntimeError::ResourceExhausted("L4".into())
            .to_string()
            .contains("L4"));
    }

    #[test]
    fn interrupt_kinds_map_to_typed_errors() {
        use lima_core::InterruptKind;
        assert!(matches!(
            RuntimeError::from(InterruptKind::Cancelled),
            RuntimeError::Cancelled
        ));
        assert!(matches!(
            RuntimeError::from(InterruptKind::DeadlineExceeded),
            RuntimeError::DeadlineExceeded
        ));
    }
}
