//! Resource-governed concurrent sessions over one shared reuse cache.
//!
//! A [`SessionPool`] executes compiled programs against a single
//! [`LineageCache`], so lineage-keyed entries computed by one session are
//! reused by its peers (the paper's process-wide cache sharing across script
//! invocations, §4.4 — made explicit and failure-safe here).
//!
//! A session runs on the thread that calls [`SessionPool::run`]: the pool
//! owns no threads. Concurrency is the caller's — `limad` calls `run` from
//! each connection thread, tests from `std::thread::scope` — and a caller
//! that wants to cancel a running session hands its own [`CancelToken`] in
//! through [`SessionOptions::with_token`]. A panic inside a session is caught
//! at the `run` boundary and returned as [`RuntimeError::WorkerPanic`]; the
//! calling thread and the pool stay usable.
//!
//! Every session carries a [`CancelToken`] plus an optional deadline. Both
//! are checked *cooperatively*: at instruction boundaries, at parfor
//! iteration boundaries, between row chunks of long kernels, and while
//! blocked on another session's placeholder entry (the wait is sliced so a
//! cancelled waiter recovers in milliseconds instead of burning
//! `placeholder_timeout_ms`). A cancelled or expired session surfaces as a
//! typed [`RuntimeError::Cancelled`] / [`RuntimeError::DeadlineExceeded`] and
//! unwinds through the interpreter's normal error paths, which abort any
//! in-flight placeholder reservations — peer sessions blocked on them wake
//! immediately and take over the computation.
//!
//! When the pool's configuration enables the
//! [`lima_core::ResourceGovernor`] (`governor_budget_bytes > 0`), each
//! session additionally reports its live-variable footprint, and session
//! admission is refused with a typed [`RuntimeError::ResourceExhausted`] at
//! pressure level L4.

use crate::context::{DataRegistry, ExecutionContext, Symtab};
use crate::error::{Result, RuntimeError};
use crate::governor::SessionUsage;
use crate::interp::execute_program;
use crate::program::Program;
use lima_core::interrupt::{CancelToken, Interrupt, InterruptKind};
use lima_core::{EventKind, LimaConfig, LimaStats, LineageCache, ResourceGovernor};
use lima_matrix::pool::panic_message;
use lima_matrix::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative interrupt state carried by an executing session's context.
/// Cloned into parfor worker contexts so workers observe the same token and
/// deadline as the session that spawned them.
#[derive(Debug, Clone)]
pub struct SessionCtl {
    /// Token always present. Held in the form cache waits take, so the
    /// per-instruction checkpoint and every probe borrow it as it is.
    interrupt: Interrupt,
}

impl SessionCtl {
    /// Control block from a token and an optional absolute deadline.
    pub fn new(token: Arc<CancelToken>, deadline: Option<Instant>) -> Self {
        SessionCtl {
            interrupt: Interrupt {
                token: Some(token),
                deadline,
            },
        }
    }

    /// Installs (or replaces) the absolute deadline.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.interrupt.deadline = Some(deadline);
    }

    /// The interrupt view handed to cache waits.
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Cooperative checkpoint: `Err` once cancelled or past the deadline.
    pub fn check(&self) -> std::result::Result<(), InterruptKind> {
        self.interrupt.check()
    }
}

/// Per-session options for [`SessionPool::run`].
#[derive(Default)]
pub struct SessionOptions {
    /// Relative deadline; the session fails with
    /// [`RuntimeError::DeadlineExceeded`] at its next checkpoint past it.
    pub timeout: Option<Duration>,
    /// External cancellation token; one is created when absent. Cancelling it
    /// fails the session with [`RuntimeError::Cancelled`].
    pub token: Option<Arc<CancelToken>>,
    /// Variables bound (and datasets registered) before execution.
    pub inputs: Vec<(String, Value)>,
    /// System-seed base for reproducible `rand`/`sample`.
    pub seed: Option<u64>,
}

impl SessionOptions {
    /// Empty options: no deadline, fresh token, no inputs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a relative deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches an external cancellation token.
    pub fn with_token(mut self, token: Arc<CancelToken>) -> Self {
        self.token = Some(token);
        self
    }

    /// Binds an input variable (also registered as a `read` dataset).
    pub fn with_input(mut self, name: impl Into<String>, value: Value) -> Self {
        self.inputs.push((name.into(), value));
        self
    }
}

/// Result of a completed session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Pool-unique session id.
    pub id: u64,
    /// Final symbol table.
    pub values: Symtab,
    /// Collected `print` output.
    pub stdout: Vec<String>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl SessionOutcome {
    /// Convenience accessor for a result variable.
    pub fn value(&self, var: &str) -> &Value {
        &self.values[var]
    }
}

/// Executes compiled programs as sessions over one shared cache, data
/// registry, and statistics block. See the module docs.
pub struct SessionPool {
    config: LimaConfig,
    cache: Option<Arc<LineageCache>>,
    data: Arc<DataRegistry>,
    stats: Arc<LimaStats>,
    next_id: AtomicU64,
}

impl SessionPool {
    /// A pool over `config`. The shared cache is created exactly when a
    /// solo [`ExecutionContext::new`] would create one (tracing + reuse).
    /// Persistent caches get the lineage-driven repair hook installed
    /// automatically unless the config already carries one.
    pub fn new(config: LimaConfig) -> Self {
        // Repairs recompute against the pool's shared registry, so datasets
        // registered by any session serve `read` leaves during repair.
        let data = Arc::new(DataRegistry::new());
        let config = crate::repair::with_default_repair(config, &data);
        let cache = if config.tracing && config.reuse.any() {
            Some(LineageCache::new(config.clone()))
        } else {
            None
        };
        let stats = match &cache {
            Some(c) => c.stats_arc(),
            None => Arc::new(LimaStats::new()),
        };
        SessionPool {
            config,
            cache,
            data,
            stats,
            next_id: AtomicU64::new(1),
        }
    }

    /// The shared reuse cache (None when the configuration disables reuse).
    pub fn cache(&self) -> Option<Arc<LineageCache>> {
        self.cache.clone()
    }

    /// The shared memory-pressure governor, when configured.
    pub fn governor(&self) -> Option<Arc<ResourceGovernor>> {
        self.cache.as_ref().and_then(|c| c.governor())
    }

    /// Shared statistics (same instance the cache reports into).
    pub fn stats(&self) -> Arc<LimaStats> {
        Arc::clone(&self.stats)
    }

    /// Shared dataset registry backing `read` across all sessions.
    pub fn data(&self) -> Arc<DataRegistry> {
        Arc::clone(&self.data)
    }

    /// Admits a session and executes it on the calling thread. Fails
    /// immediately with [`RuntimeError::ResourceExhausted`] when the governor
    /// sits at L4; a panic inside the session surfaces as
    /// [`RuntimeError::WorkerPanic`], never an unwinding caller.
    pub fn run(&self, program: &Program, opts: SessionOptions) -> Result<SessionOutcome> {
        if let Some(g) = self.governor() {
            if !g.sessions_enabled() {
                LimaStats::bump(&self.stats.sessions_rejected);
                return Err(RuntimeError::ResourceExhausted(format!(
                    "session admission rejected at pressure level {}",
                    g.level().as_str()
                )));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ctl = SessionCtl::new(
            opts.token.unwrap_or_default(),
            opts.timeout.map(|t| Instant::now() + t),
        );
        LimaStats::bump(&self.stats.sessions_started);
        // The context is built and dropped inside the guarded call, so an
        // unwinding session releases its placeholder reservations exactly as
        // a failing one does.
        catch_unwind(AssertUnwindSafe(|| {
            self.run_session(id, program, opts.inputs, opts.seed, ctl)
        }))
        .unwrap_or_else(|payload| Err(RuntimeError::WorkerPanic(panic_message(payload.as_ref()))))
    }

    fn run_session(
        &self,
        id: u64,
        program: &Program,
        inputs: Vec<(String, Value)>,
        seed: Option<u64>,
        ctl: SessionCtl,
    ) -> Result<SessionOutcome> {
        let t0 = Instant::now();
        let mut ctx = ExecutionContext::with_cache(self.config.clone(), self.cache.clone());
        ctx.data = Arc::clone(&self.data);
        ctx.stats = Arc::clone(&self.stats);
        ctx.session = Some(ctl);
        ctx.usage = ctx
            .cache
            .as_ref()
            .and_then(|c| c.governor())
            .map(SessionUsage::new);
        if let Some(s) = seed {
            ctx.reset_seed_counter(s);
        }
        for (name, value) in inputs {
            ctx.data.register(name.clone(), value.clone());
            ctx.set(name, value);
        }
        let obs = ctx.config.obs.clone().filter(|o| o.enabled());
        let obs_t0 = obs.as_ref().map(|o| {
            o.record_instant(EventKind::SessionStart, "session", 0, id, 0);
            o.now_ns()
        });
        let result = execute_program(program, &mut ctx);
        match &result {
            Ok(()) => LimaStats::bump(&self.stats.sessions_completed),
            Err(RuntimeError::Cancelled) => LimaStats::bump(&self.stats.sessions_cancelled),
            Err(RuntimeError::DeadlineExceeded) => {
                LimaStats::bump(&self.stats.sessions_deadline_exceeded)
            }
            Err(_) => {}
        }
        if let (Some(o), Some(t0)) = (&obs, obs_t0) {
            let outcome = match &result {
                Ok(()) => "completed",
                Err(RuntimeError::Cancelled) => "cancelled",
                Err(RuntimeError::DeadlineExceeded) => "deadline",
                Err(_) => "failed",
            };
            o.record_span(EventKind::SessionEnd, outcome, 0, t0, id, 0);
        }
        result?;
        Ok(SessionOutcome {
            id,
            values: std::mem::take(&mut ctx.symtab),
            stdout: std::mem::take(&mut ctx.stdout),
            elapsed: t0.elapsed(),
        })
    }
}

// Pool behaviour is exercised in `crates/runtime/tests/sessions.rs`: unit
// tests here cannot compile scripts because the `lima-lang` dev-dependency
// cycle links a second copy of this crate whose `Program` type does not
// unify with `crate::Program`.
