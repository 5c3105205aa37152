//! Execution context: symbol table, lineage map, cache handle, data registry,
//! seed generation, and dedup state. One context per thread of execution
//! (parfor workers get their own, paper §3.3).

use crate::error::{Result, RuntimeError};
use crate::governor::SessionUsage;
use crate::session::SessionCtl;
use lima_core::interrupt::{CancelToken, Interrupt};
use lima_core::lineage::dedup::{DedupRegistry, PathTracer};
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::opcodes as oc;
use lima_core::{Frame, LimaConfig, LimaStats, LineageCache, LineageMap, Slots};
use lima_matrix::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Registry of named datasets served to `read` instructions. The paper
/// assumes immutable input files (§3.4); registering a dataset under a path
/// models exactly that.
#[derive(Debug, Default)]
pub struct DataRegistry {
    inner: Mutex<HashMap<String, Value>>,
}

impl DataRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a dataset.
    pub fn register(&self, path: impl Into<String>, value: Value) {
        self.inner.lock().insert(path.into(), value);
    }

    /// Fetches a dataset.
    pub fn get(&self, path: &str) -> Option<Value> {
        self.inner.lock().get(path).cloned()
    }
}

/// State while tracing a dedup-managed loop/function iteration.
#[derive(Debug)]
pub struct DedupTrace {
    /// Placeholder slots used by the body inputs (live-ins + index).
    pub base_inputs: u32,
    /// Next placeholder slot to hand to a seed capture.
    pub next_seed_slot: u32,
}

/// Live variables of the current frame, by slot; `symtab["x"]` and
/// `symtab.get("x")` resolve the name through the frame.
pub type Symtab = Slots<Value>;

/// Per-thread execution context.
pub struct ExecutionContext {
    /// Live variables.
    pub symtab: Symtab,
    /// Lineage of live variables (thread- and function-local, paper §3.1).
    pub lineage: LineageMap,
    /// LIMA configuration.
    pub config: LimaConfig,
    /// Reuse cache (present when tracing is enabled; reuse flags inside the
    /// config decide whether it is probed).
    pub cache: Option<Arc<LineageCache>>,
    /// Statistics (shared with the cache when present).
    pub stats: Arc<LimaStats>,
    /// Dataset registry backing `read`.
    pub data: Arc<DataRegistry>,
    /// System seed source for `rand`/`sample` without explicit seeds.
    seed_counter: Arc<AtomicU64>,
    /// Dedup patch registries keyed by `fingerprint:block_id`.
    pub dedup_registries: Arc<Mutex<HashMap<String, Arc<DedupRegistry>>>>,
    /// Set while executing inside a dedup-managed body in *tracing* mode.
    pub dedup_trace: Option<DedupTrace>,
    /// Taken-path / seed tracer, set inside dedup-managed bodies.
    pub path_tracer: Option<PathTracer>,
    /// Suppresses per-instruction tracing (dedup lightweight mode).
    pub suppress_tracing: bool,
    /// Collected `print` output.
    pub stdout: Vec<String>,
    /// Operand values of the instruction executing now (empty between
    /// instructions; kept so an instruction allocates no operand list).
    pub(crate) operands: Vec<Value>,
    /// Script fingerprint (stable cache keys for block-level reuse).
    pub fingerprint: u64,
    /// Recursion depth guard for function calls.
    pub call_depth: usize,
    /// Cooperative interrupt state (cancellation token + deadline) when this
    /// context executes inside a session; checked at instruction/iteration
    /// boundaries and threaded into cache placeholder waits.
    pub session: Option<SessionCtl>,
    /// Live-variable byte accounting against the memory governor. Not shared
    /// with forked workers (their footprint is transient and merged back).
    pub usage: Option<SessionUsage>,
    /// Incremental structural verifier asserting lineage DAG invariants
    /// after every block (debug builds only).
    #[cfg(debug_assertions)]
    pub verifier: lima_core::lineage::verify::Verifier,
}

impl ExecutionContext {
    /// Fresh context. A cache is created automatically when the configuration
    /// enables reuse.
    pub fn new(config: LimaConfig) -> Self {
        // The repair hook closes over this context's registry, so `read`
        // leaves in repaired lineage are served with the live datasets.
        let data = Arc::new(DataRegistry::new());
        let config = crate::repair::with_default_repair(config, &data);
        let reusing = config.tracing && config.reuse.any();
        let cache = reusing.then(|| LineageCache::new(config.clone()));
        let mut ctx = Self::with_cache(config, cache);
        ctx.data = data;
        ctx
    }

    /// Context sharing an existing cache (parfor workers, multi-script reuse).
    pub fn with_cache(config: LimaConfig, cache: Option<Arc<LineageCache>>) -> Self {
        // Share the cache's stats when present so hits/puts land in one place.
        let stats = match &cache {
            Some(c) => c.stats_arc(),
            None => Arc::new(LimaStats::new()),
        };
        ExecutionContext {
            symtab: Symtab::default(),
            lineage: LineageMap::new(),
            config,
            cache,
            stats,
            data: Arc::new(DataRegistry::new()),
            seed_counter: Arc::new(AtomicU64::new(0xC0FFEE)),
            dedup_registries: Arc::new(Mutex::new(HashMap::new())),
            dedup_trace: None,
            path_tracer: None,
            suppress_tracing: false,
            stdout: Vec::new(),
            operands: Vec::new(),
            fingerprint: 0,
            call_depth: 0,
            session: None,
            usage: None,
            #[cfg(debug_assertions)]
            verifier: Default::default(),
        }
    }

    /// A worker context sharing cache, data, seeds, and dedup registries, but
    /// with its own symbol table / lineage map (paper §3.3: "we trace lineage
    /// in a worker-local manner, but individual lineage graphs share their
    /// common input lineage").
    pub fn fork_worker(&self) -> Self {
        self.fork(self.symtab.clone(), self.lineage.fork(), self.call_depth)
    }

    /// A callee context for a function call: same shared infrastructure,
    /// fresh symbol table and lineage map on the function's frame.
    pub fn fork_function(&self, frame: &Arc<Frame>) -> Self {
        let lineage = LineageMap::with_frame(Arc::clone(frame));
        self.fork(Symtab::new(Arc::clone(frame)), lineage, self.call_depth + 1)
    }

    /// Enters a program's frame: the symbol table and the lineage map move
    /// onto it together, every binding into its slot by name (inputs bound
    /// before the program runs), and a name the program does not mention
    /// keeps a slot after the program's. Free when the context's frame
    /// starts with `frame`'s names already.
    pub fn enter_frame(&mut self, frame: &Arc<Frame>) {
        let old = Arc::clone(self.symtab.frame());
        let keep = old
            .iter()
            .zip(frame.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if keep == frame.len() {
            return;
        }
        let mut next = Frame::clone(frame);
        let mut moves = Vec::new();
        for (slot, name) in (keep as u32..).zip(&old[keep..]) {
            if self.symtab.at(slot).is_none() && self.lineage.at(slot).is_none() {
                continue;
            }
            let to = next.iter().position(|n| n == name).unwrap_or_else(|| {
                next.push(Arc::clone(name));
                next.len() - 1
            });
            moves.push((slot, to as u32));
        }
        let next = match next.len() == frame.len() {
            true => Arc::clone(frame),
            false => Arc::new(next),
        };
        self.symtab.move_to(&next, keep, &moves);
        self.lineage.vars_mut().move_to(&next, keep, &moves);
    }

    fn fork(&self, symtab: Symtab, lineage: LineageMap, call_depth: usize) -> Self {
        ExecutionContext {
            symtab,
            lineage,
            config: self.config.clone(),
            cache: self.cache.clone(),
            stats: Arc::clone(&self.stats),
            data: Arc::clone(&self.data),
            seed_counter: Arc::clone(&self.seed_counter),
            dedup_registries: Arc::clone(&self.dedup_registries),
            dedup_trace: None,
            path_tracer: None,
            suppress_tracing: self.suppress_tracing,
            stdout: Vec::new(),
            operands: Vec::new(),
            fingerprint: self.fingerprint,
            call_depth,
            session: self.session.clone(),
            usage: None,
            #[cfg(debug_assertions)]
            verifier: Default::default(),
        }
    }

    /// True when per-instruction lineage tracing is active right now.
    pub fn tracing(&self) -> bool {
        self.config.tracing && !self.suppress_tracing
    }

    /// Cooperative checkpoint: `Err` with the typed runtime error once the
    /// session is cancelled or past its deadline; free when no session is
    /// attached (the common single-script case).
    pub fn check_interrupt(&self) -> Result<()> {
        match &self.session {
            Some(s) => s.check().map_err(RuntimeError::from),
            None => Ok(()),
        }
    }

    /// The interrupt view for cache placeholder waits, when armed.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        self.session.as_ref().map(SessionCtl::interrupt)
    }

    /// Arms (or tightens) an execution deadline relative to now, creating a
    /// session control block with a fresh token when none exists (the
    /// `limac --timeout-ms` path).
    pub fn arm_deadline(&mut self, timeout: std::time::Duration) {
        let deadline = std::time::Instant::now() + timeout;
        match &mut self.session {
            Some(s) => s.set_deadline(deadline),
            None => self.session = Some(SessionCtl::new(CancelToken::new(), Some(deadline))),
        }
    }

    /// Re-reports this context's live-variable footprint to the governor.
    /// Called at block boundaries; a no-op without governed usage tracking.
    pub fn refresh_usage(&mut self) {
        if let Some(u) = &mut self.usage {
            let bytes: usize = self.symtab.values().map(Value::size_in_bytes).sum();
            u.update(bytes);
        }
    }

    /// Generates a system seed (captured in lineage, paper §3.1).
    pub fn next_system_seed(&self) -> i64 {
        self.seed_counter.fetch_add(1, Ordering::Relaxed) as i64
    }

    /// Resets the seed counter (reproducible benchmark runs).
    pub fn reset_seed_counter(&self, base: u64) {
        self.seed_counter.store(base, Ordering::Relaxed);
    }

    /// Binds a variable value by name (an input bound before the program
    /// runs, a test); the interpreter binds by slot. A name the frame lacks
    /// gets a slot after the frame's.
    pub fn set(&mut self, var: impl AsRef<str>, value: Value) {
        let var = var.as_ref();
        let slot = self.symtab.slot(var).unwrap_or_else(|| {
            let mut frame = Frame::clone(self.symtab.frame());
            frame.push(var.into());
            self.enter_frame(&Arc::new(frame));
            self.symtab.slot_count() as u32 - 1
        });
        self.symtab.put(slot, value);
    }

    /// Lineage of the variable in `slot`, synthesizing a `read var:<name>`
    /// leaf for externally bound inputs (e.g. matrices preloaded by a
    /// harness).
    pub fn lineage_of_slot(&mut self, slot: u32) -> LinRef {
        if let Some(item) = self.lineage.at(slot) {
            return item.clone();
        }
        let name = &self.symtab.frame()[slot as usize];
        let data = Some(format!("var:{name}").into());
        let leaf = LineageItem::resolved(oc::READ.into(), oc::DN, data, []);
        if let Some(Value::Matrix(m)) = self.symtab.at(slot) {
            leaf.set_shape(m.rows(), m.cols());
        }
        self.lineage.put(slot, leaf.clone());
        leaf
    }

    /// Dedup registry for a block, created on first use.
    pub fn dedup_registry(&self, block_key: &str, num_branches: u32) -> Arc<DedupRegistry> {
        let mut map = self.dedup_registries.lock();
        map.entry(block_key.to_string())
            .or_insert_with(|| Arc::new(DedupRegistry::new(block_key, num_branches)))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_matrix::DenseMatrix;

    #[test]
    fn data_registry_round_trip() {
        let reg = DataRegistry::new();
        assert!(reg.get("x").is_none());
        reg.register("x", Value::f64(2.0));
        assert_eq!(reg.get("x").unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn context_creates_cache_only_when_reuse_enabled() {
        assert!(ExecutionContext::new(LimaConfig::base()).cache.is_none());
        assert!(ExecutionContext::new(LimaConfig::tracing_only())
            .cache
            .is_none());
        assert!(ExecutionContext::new(LimaConfig::lima()).cache.is_some());
    }

    #[test]
    fn system_seeds_are_unique_and_resettable() {
        let ctx = ExecutionContext::new(LimaConfig::base());
        let a = ctx.next_system_seed();
        let b = ctx.next_system_seed();
        assert_ne!(a, b);
        ctx.reset_seed_counter(7);
        assert_eq!(ctx.next_system_seed(), 7);
    }

    #[test]
    fn lineage_of_external_input_synthesizes_leaf_with_shape() {
        let mut ctx = ExecutionContext::new(LimaConfig::lima());
        ctx.set("X", Value::matrix(DenseMatrix::zeros(3, 4)));
        let slot = ctx.symtab.slot("X").unwrap();
        let lin = ctx.lineage_of_slot(slot);
        assert_eq!(lin.opcode(), "read");
        assert_eq!(lin.data(), Some("var:X"));
        assert_eq!(lin.shape(), Some((3, 4)));
        // Stable across calls.
        assert!(std::sync::Arc::ptr_eq(&ctx.lineage_of_slot(slot), &lin));
        assert!(ctx.symtab.slot("nope").is_none());
    }

    #[test]
    fn fork_worker_shares_cache_and_seeds() {
        let mut ctx = ExecutionContext::new(LimaConfig::lima());
        ctx.set("X", Value::f64(1.0));
        ctx.lineage_of_slot(0);
        let w = ctx.fork_worker();
        assert!(w.symtab.contains_key("X"));
        assert!(w.lineage.get("X").is_some());
        assert!(Arc::ptr_eq(
            w.cache.as_ref().unwrap(),
            ctx.cache.as_ref().unwrap()
        ));
        let _ = ctx.next_system_seed();
        let s1 = w.next_system_seed();
        let s2 = ctx.next_system_seed();
        assert_ne!(s1, s2);
    }

    #[test]
    fn fork_function_starts_clean() {
        let mut ctx = ExecutionContext::new(LimaConfig::lima());
        ctx.set("X", Value::f64(1.0));
        let frame: Arc<Frame> = Arc::new(vec!["a".into(), "b".into()]);
        let f = ctx.fork_function(&frame);
        assert!(f.symtab.is_empty());
        assert_eq!(f.symtab.slot_count(), 2);
        assert_eq!(f.lineage.vars().slot_count(), 2);
        assert_eq!(f.call_depth, 1);
    }

    #[test]
    fn dedup_registry_is_shared_per_key() {
        let ctx = ExecutionContext::new(LimaConfig::lima());
        let a = ctx.dedup_registry("0:loop1", 2);
        let b = ctx.dedup_registry("0:loop1", 2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.dedup_registry("0:loop2", 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
