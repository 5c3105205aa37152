//! # lima
//!
//! A from-scratch Rust reproduction of **LIMA: Fine-grained Lineage Tracing
//! and Reuse in Machine Learning Systems** (Phani, Rath, Boehm — SIGMOD 2021).
//!
//! The workspace implements a miniature SystemDS-style ML system (matrix
//! kernels, an R-like scripting language, a program-block interpreter) with
//! the paper's contribution layered inside it: fine-grained lineage tracing
//! with deduplication, and a lineage-keyed reuse cache with multi-level full
//! reuse, partial-reuse rewrites, and cost-based eviction.
//!
//! ## Crates
//!
//! * [`lima_matrix`] — dense/sparse linear algebra and the runtime `Value`.
//! * [`lima_core`] — lineage DAGs, dedup, and the reuse cache (the paper).
//! * [`lima_runtime`] — instructions, program blocks, interpreter, parfor.
//! * [`lima_lang`] — the DML-subset language front-end.
//! * [`lima_algos`] — script-level builtins (`lm`, `pca`, ...), datasets,
//!   and end-to-end pipelines.
//! * [`lima_client`] — the `limad` wire protocol and a retrying,
//!   deadline-aware client.
//! * [`limad`] — the fault-tolerant multi-tenant lineage-cache service
//!   (sharded session pools, overload shedding, `/metrics`).
//!
//! ## Quickstart
//!
//! ```
//! use lima::prelude::*;
//!
//! let config = LimaConfig::lima();
//! let result = run_script(
//!     "G = t(X) %*% X;          # traced as tsmm(X)
//!      H = t(X) %*% X;          # full reuse: served from the lineage cache
//!      s = sum(G - H);",
//!     &config,
//!     &[("X", Value::matrix(DenseMatrix::filled(100, 10, 1.5)))],
//! ).unwrap();
//! assert_eq!(result.value("s").as_f64().unwrap(), 0.0);
//! assert_eq!(LimaStats::get(&result.ctx.stats.full_hits), 1);
//! ```

pub use lima_algos;
pub use lima_client;
pub use lima_core;
pub use lima_lang;
pub use lima_matrix;
pub use lima_runtime;
pub use limad;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use lima_algos::runner::{run_script, run_script_with_cache, RunResult};
    pub use lima_algos::{datasets, pipelines, scripts};
    pub use lima_client::{
        ClientOptions, ClientStats, ErrorCode, LimadClient, MemberStats, SubmitOptions,
    };
    pub use lima_core::faults::{FaultInjector, FaultSite};
    pub use lima_core::lineage::serialize::{
        deserialize_lineage, serialize_lineage, LineageParseError,
    };
    pub use lima_core::obs::{parse_json, validate_chrome_trace};
    pub use lima_core::{
        CancelToken, Event, EventKind, EvictionPolicy, ItemCost, LimaConfig, LimaStats,
        LineageCache, Obs, PressureLevel, ResourceGovernor, ReuseMode,
    };
    pub use lima_lang::compile_script;
    pub use lima_matrix::{BackendKind, DenseMatrix, KernelBackend, ScalarValue, Value};
    pub use lima_runtime::reconstruct::{recompute, reconstruct};
    pub use lima_runtime::{
        execute_program, ExecutionContext, RuntimeError, SessionOptions, SessionOutcome,
        SessionPool,
    };
    pub use limad::{LimadConfig, ReplOptions, ReplicaGroup, Server, ShardState};
}
