//! # lima-matrix
//!
//! Dense and sparse linear-algebra substrate for the LIMA reproduction.
//!
//! This crate plays the role of SystemDS' local matrix runtime: it provides the
//! operator kernels that the LIMA runtime instructions dispatch to, plus the
//! [`Value`] type stored in symbol tables and in the lineage reuse cache.
//!
//! Everything is `f64`; matrices are row-major and immutable once shared (they
//! are handed around as `Arc<DenseMatrix>`), which matches the copy-on-write
//! discipline LIMA relies on ("immutable files/RDDs", paper §3.4).

pub mod backend;
pub mod codec;
pub mod dense;
pub mod error;
pub mod io;
pub mod ops;
pub mod pool;
pub mod rand_gen;
pub mod sparse;
pub mod value;

pub use backend::{BackendKind, KernelBackend};
pub use dense::DenseMatrix;
pub use error::{MatrixError, Result};
pub use sparse::CsrMatrix;
pub use value::{ScalarValue, Value};

/// Convenient alias used throughout the workspace: matrices are shared
/// immutably between the symbol table and the lineage cache.
pub type MatrixRef = std::sync::Arc<DenseMatrix>;
