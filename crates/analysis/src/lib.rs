//! Static analyses for LIMA (paper §4.1/§4.3): the determinism &
//! cache-eligibility lattice with call-graph propagation, affine dependence
//! machinery for `parfor` result writes, and lineage DAG verification /
//! lineage-log linting (the `lima-lint` CLI).
//!
//! This crate depends only on `lima-core`: the runtime lowers its own IR
//! (instructions, blocks, functions) into the IR-agnostic inputs these passes
//! consume, and `lima-lint` operates on serialized lineage logs directly.

pub mod affine;
pub mod determinism;
pub mod parfor;
pub mod verify;

pub use affine::Affine;
pub use determinism::{solve_call_graph, ClassSource};
pub use parfor::{check_parfor_writes, ParforViolation, ResultWrite};
pub use verify::{lint_log, LintDiagnostic};
