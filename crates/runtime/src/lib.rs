//! # lima-runtime
//!
//! A miniature ML-system runtime in the style of SystemDS (paper §2.2):
//! programs are hierarchies of program blocks whose leaves are sequences of
//! opcode instructions, executed by an interpreter over a symbol table of
//! live variables.
//!
//! LIMA integrates here exactly as in the paper: lineage is traced in
//! `preprocess` *before* each instruction executes, which is what enables
//! probing the reuse cache and skipping the computation entirely; loops and
//! functions drive lineage deduplication; `parfor` runs worker-local tracing
//! against the shared thread-safe cache; fused operators expand compile-time
//! lineage patches.

pub mod compiler;
pub mod context;
pub mod error;
pub mod fused;
pub mod governor;
pub mod instr;
pub mod interp;
pub mod kernels;
pub mod lva;
pub mod parfor;
pub mod program;
pub mod reconstruct;
pub mod repair;
pub mod session;

pub use context::{DataRegistry, ExecutionContext, Symtab};
pub use error::{Result, RuntimeError};
pub use governor::SessionUsage;
pub use instr::{Instr, Op, Operand};
pub use interp::execute_program;
pub use program::{Block, ExprProg, Function, Program};
pub use repair::lineage_repairer;
pub use session::{SessionCtl, SessionOptions, SessionOutcome, SessionPool};
