//! # lima-lang
//!
//! A DML-subset scripting language (R-like syntax, paper §2.1) compiled to
//! `lima-runtime` programs: lexer, recursive-descent parser, and a
//! block/instruction compiler. This is the substrate that makes the paper's
//! Example-1-style pipelines (`gridSearch('lm', ...)`) expressible as scripts.
//!
//! ```
//! use lima_lang::compile_script;
//! use lima_core::LimaConfig;
//! use lima_runtime::{execute_program, ExecutionContext};
//!
//! let mut program = compile_script(
//!     "X = rand(rows=4, cols=4, seed=7);
//!      s = sum(X %*% t(X));
//!      print(s);",
//!     &LimaConfig::lima(),
//! ).unwrap();
//! let mut ctx = ExecutionContext::new(LimaConfig::lima());
//! execute_program(&program, &mut ctx).unwrap();
//! assert_eq!(ctx.stdout.len(), 1);
//! ```

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod lint;
pub mod parser;

pub use compile::{compile_script, compile_script_uncompiled, lower_script, CompileError};
pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use lint::lint_script;
pub use parser::{parse, ParseError, MAX_CHAIN, MAX_NESTING, SCRIPT_STACK_BYTES};
