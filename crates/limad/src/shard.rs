//! Lineage-hash-partitioned cache shards.
//!
//! Each [`CacheShard`] owns a complete, independent LIMA stack: its own
//! [`SessionPool`], [`LineageCache`], [`ResourceGovernor`], statistics block,
//! and (when persistence is enabled) its own WAL directory
//! `<persist_root>/shard-<i>`. Nothing is shared between shards except the
//! fault injector threaded through the configuration template — so a shard
//! that trips its persist breaker, fails WAL recovery, or degrades under
//! memory pressure cannot drag a sibling with it.
//!
//! Routing is deterministic: submits hash the script *text* (so identical
//! scripts from different tenants land on the same shard and cross-tenant
//! lineage reuse works), probes and fetches hash the lineage trace itself.
//!
//! The same script hash keys the shard's program cache
//! ([`CacheShard::program`]): a compiled program is a function of its source
//! and the shard's fixed configuration, so a script seen before is not
//! compiled again.

use lima_core::lineage::LinRef;
use lima_core::{LimaConfig, LimaStats, LineageCache, ResourceGovernor};
use lima_lang::{compile_script, CompileError};
use lima_matrix::codec::fnv1a;
use lima_runtime::{Program, SessionPool};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Bytes one retained instruction stands for, measured with a counting
/// allocator charging 16 B per allocation: a full `with_builtins` program is
/// ≈ 126 KB for ≈ 252 instructions (500 B each, 27× its 4.7 KB source); the
/// pruned `serve_zipf` shapes keep 6–17 instructions at 280–400 B each.
const BYTES_PER_INSTR: usize = 512;

/// Weight cap of one shard's program cache, in retained instructions (at
/// 512 B each, 8 MiB). Script text, kept for the equality check, is charged
/// at its byte-equivalent.
pub const PROGRAM_CACHE_CAP: usize = 16 * 1024;

struct CachedProgram {
    script: Box<str>,
    program: Arc<Program>,
    weight: usize,
    last_used: u64,
}

/// Compiled programs by script hash, least recently used out first. One
/// entry per hash: a lookup compares the text, so two scripts sharing a hash
/// never alias — the later one takes the slot.
#[derive(Default)]
struct ProgramCache {
    entries: HashMap<u64, CachedProgram>,
    weight: usize,
    clock: u64,
}

impl ProgramCache {
    fn get(&mut self, hash: u64, script: &str) -> Option<Arc<Program>> {
        let hit = self.entries.get_mut(&hash)?;
        if &*hit.script != script {
            return None;
        }
        self.clock += 1;
        hit.last_used = self.clock;
        Some(Arc::clone(&hit.program))
    }

    fn remove(&mut self, hash: u64) -> u64 {
        let gone = self.entries.remove(&hash);
        self.weight -= gone.as_ref().map_or(0, |c| c.weight);
        u64::from(gone.is_some())
    }

    /// Stores a program as the most recently used, evicting whatever holds
    /// its slot and then the least recently used entries until it fits under
    /// the cap; returns how many were evicted.
    fn insert(&mut self, hash: u64, script: &str, program: Arc<Program>, weight: usize) -> u64 {
        let mut evicted = self.remove(hash);
        while self.weight + weight > PROGRAM_CACHE_CAP {
            let oldest = self.entries.iter().min_by_key(|(_, c)| c.last_used);
            let Some((&oldest, _)) = oldest else { break };
            evicted += self.remove(oldest);
        }
        self.clock += 1;
        self.weight += weight;
        let entry = CachedProgram {
            script: script.into(),
            program,
            weight,
            last_used: self.clock,
        };
        self.entries.insert(hash, entry);
        evicted
    }
}

/// Persistence posture of one shard, derived from its cache after startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Persistence is on and at least one entry was recovered from a prior
    /// process (`persist_recovered > 0`).
    Warm,
    /// Serving normally with nothing recovered (fresh start or persistence
    /// disabled by configuration).
    Cold,
    /// Persistence was requested but is not active — the WAL directory was
    /// unusable at startup or the persist breaker latched after repeated
    /// failures. The shard keeps serving from memory.
    Degraded,
}

impl ShardState {
    /// Numeric encoding used by the `limad_shard_state` metrics gauge.
    pub fn as_gauge(self) -> u8 {
        match self {
            ShardState::Cold => 0,
            ShardState::Warm => 1,
            ShardState::Degraded => 2,
        }
    }

    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Warm => "warm",
            ShardState::Cold => "cold",
            ShardState::Degraded => "degraded",
        }
    }
}

/// One shard: an isolated session pool plus its configuration.
pub struct CacheShard {
    index: usize,
    config: LimaConfig,
    pool: SessionPool,
    programs: Mutex<ProgramCache>,
}

impl CacheShard {
    /// Builds shard `index` from the template. When `persist_root` is given
    /// the shard persists under its own `shard-<index>` subdirectory (with
    /// the template's other persistence settings); an unusable directory
    /// degrades the shard to memory-only (observable via [`CacheShard::state`]), never an error.
    pub fn new(index: usize, template: &LimaConfig, persist_root: Option<&Path>) -> Self {
        let mut config = template.clone();
        if let Some(root) = persist_root {
            config = config.with_persistence(root.join(format!("shard-{index}")));
        }
        let pool = SessionPool::new(config.clone());
        CacheShard {
            index,
            config,
            pool,
            programs: Mutex::default(),
        }
    }

    /// The shard's position in the ring.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The configuration this shard runs with.
    pub fn config(&self) -> &LimaConfig {
        &self.config
    }

    /// The shard's session pool.
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// The shard's reuse cache (None only if the template disables reuse).
    pub fn cache(&self) -> Option<Arc<LineageCache>> {
        self.pool.cache()
    }

    /// The shard's memory-pressure governor, when configured.
    pub fn governor(&self) -> Option<Arc<ResourceGovernor>> {
        self.pool.governor()
    }

    /// The shard's statistics block.
    pub fn stats(&self) -> Arc<LimaStats> {
        self.pool.stats()
    }

    /// The compiled form of `script`, from the program cache when this shard
    /// has compiled the same text before. `hash` is the routing hash of
    /// `script` ([`ShardSet::route_script`] returns it). A miss compiles
    /// outside the lock — concurrent first submits of one script may each
    /// compile it, and the first to finish is the copy everyone keeps — and
    /// caches the program with every function its body cannot call dropped:
    /// a script ships the whole builtin library and calls one function of it
    /// or none, so an unpruned program is ≈ 27× its source. Compile errors
    /// and programs heavier than the whole cap are returned uncached.
    pub fn program(&self, hash: u64, script: &str) -> Result<Arc<Program>, CompileError> {
        let stats = self.stats();
        let hit = self.programs.lock().get(hash, script);
        if let Some(program) = hit {
            LimaStats::bump(&stats.program_cache_hits);
            return Ok(program);
        }
        LimaStats::bump(&stats.program_cache_misses);
        let mut program = compile_script(script, &self.config)?;
        program.retain_reachable();
        let program = Arc::new(program);
        let weight = program.instr_count() + script.len().div_ceil(BYTES_PER_INSTR);
        if weight > PROGRAM_CACHE_CAP {
            return Ok(program);
        }
        let mut cache = self.programs.lock();
        if let Some(first) = cache.get(hash, script) {
            return Ok(first);
        }
        let evicted = cache.insert(hash, script, Arc::clone(&program), weight);
        LimaStats::add(&stats.program_cache_evictions, evicted);
        Ok(program)
    }

    /// Weight the program cache holds right now, in retained instructions.
    pub fn program_cache_weight(&self) -> usize {
        self.programs.lock().weight
    }

    /// Current persistence posture; see [`ShardState`].
    pub fn state(&self) -> ShardState {
        let Some(cache) = self.cache() else {
            return ShardState::Cold;
        };
        if self.config.persist.is_none() {
            return ShardState::Cold;
        }
        if !cache.persist_active() {
            return ShardState::Degraded;
        }
        if LimaStats::get(&self.stats().persist_recovered) > 0 {
            ShardState::Warm
        } else {
            ShardState::Cold
        }
    }
}

impl std::fmt::Debug for CacheShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheShard")
            .field("index", &self.index)
            .field("state", &self.state())
            .finish()
    }
}

/// The fixed ring of shards plus the routing functions.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Arc<CacheShard>>,
}

impl ShardSet {
    /// Builds `n` shards (at least one) from the template.
    pub fn new(n: usize, template: &LimaConfig, persist_root: Option<&Path>) -> Self {
        let n = n.max(1);
        ShardSet {
            shards: (0..n)
                .map(|i| Arc::new(CacheShard::new(i, template, persist_root)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the ring is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All shards, ring order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<CacheShard>> {
        self.shards.iter()
    }

    /// Shard `i`, if it exists.
    pub fn get(&self, i: usize) -> Option<&Arc<CacheShard>> {
        self.shards.get(i)
    }

    /// Routes a submit by script text, so identical scripts share a shard
    /// (and therefore a cache) regardless of tenant. Also returns the script
    /// hash, which keys [`CacheShard::program`].
    pub fn route_script(&self, script: &str) -> (&Arc<CacheShard>, u64) {
        let hash = fnv1a(script.as_bytes());
        (
            &self.shards[(hash % self.shards.len() as u64) as usize],
            hash,
        )
    }

    /// Routes a probe/fetch by the lineage trace's own hash.
    pub fn route_lineage(&self, root: &LinRef) -> &Arc<CacheShard> {
        let i = (root.hash_value() % self.shards.len() as u64) as usize;
        &self.shards[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let set = ShardSet::new(4, &LimaConfig::lima(), None);
        let (a, hash_a) = set.route_script("X = rand(rows=2, cols=2, seed=1);");
        let (b, hash_b) = set.route_script("X = rand(rows=2, cols=2, seed=1);");
        assert_eq!((a.index(), hash_a), (b.index(), hash_b));
        assert!(a.index() < 4);
        // Different scripts spread over shards eventually.
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| set.route_script(&format!("s = {i};")).0.index())
            .collect();
        assert!(spread.len() > 1, "64 scripts all routed to one shard");
    }

    fn shard() -> CacheShard {
        CacheShard::new(0, &LimaConfig::lima(), None)
    }

    fn counts(shard: &CacheShard) -> (u64, u64, u64) {
        let s = shard.stats();
        (
            LimaStats::get(&s.program_cache_hits),
            LimaStats::get(&s.program_cache_misses),
            LimaStats::get(&s.program_cache_evictions),
        )
    }

    /// A script of `n` statements distinguished by `salt`.
    fn script_of(n: usize, salt: usize) -> String {
        (0..n).map(|i| format!("v{i} = {salt} + {i};\n")).collect()
    }

    #[test]
    fn concurrent_first_submits_agree_and_later_ones_compile_nothing() {
        const THREADS: usize = 8;
        let shard = shard();
        let script = "X = matrix(3, 20, 4);\ns = sum(t(X) %*% X);\n";
        let hash = fnv1a(script.as_bytes());
        let barrier = std::sync::Barrier::new(THREADS);
        let sums: Vec<f64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let program = shard.program(hash, script).expect("compiles");
                        let run = shard.pool().run(&program, Default::default());
                        run.expect("runs").value("s").as_f64().expect("scalar")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(sums, [20.0 * 9.0 * 16.0; THREADS]);
        let (hits, misses, _) = counts(&shard);
        assert_eq!(hits + misses, THREADS as u64);
        assert!(misses >= 1);

        // Whoever compiled, one copy was kept and everyone now shares it.
        let kept = shard.program(hash, script).unwrap();
        for _ in 0..THREADS {
            assert!(Arc::ptr_eq(&kept, &shard.program(hash, script).unwrap()));
        }
        assert_eq!(counts(&shard), (hits + 1 + THREADS as u64, misses, 0));
    }

    #[test]
    fn two_texts_on_one_hash_never_alias() {
        let shard = shard();
        let (a, b) = ("s = 1;", "s = 2;");
        let value = |script| {
            let program = shard.program(42, script).expect("compiles");
            let run = shard.pool().run(&program, Default::default()).unwrap();
            run.value("s").as_f64().unwrap()
        };
        assert_eq!(
            [value(a), value(b), value(a), value(b)],
            [1.0, 2.0, 1.0, 2.0]
        );
        // Each took the slot from the other: four compiles, three evictions.
        assert_eq!(counts(&shard), (0, 4, 3));
        assert_eq!(value(b), 2.0);
        assert_eq!(counts(&shard), (1, 4, 3));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let shard = shard();
        for _ in 0..2 {
            assert!(shard.program(7, "this is not DML ((").is_err());
        }
        assert_eq!(counts(&shard), (0, 2, 0));
        assert_eq!(shard.program_cache_weight(), 0);
    }

    #[test]
    fn a_flood_stays_under_the_cap_and_evicts_least_recently_used_first() {
        let shard = shard();
        let per_script = 400;
        let flood = 2 * PROGRAM_CACHE_CAP / per_script;
        let program = |salt: usize| {
            let script = script_of(per_script, salt);
            shard.program(fnv1a(script.as_bytes()), &script).unwrap()
        };
        let first = program(0);
        for salt in 1..flood {
            // Script 0 is touched before every insert, so it is never the
            // least recently used and must survive the whole flood.
            assert!(
                Arc::ptr_eq(&first, &program(0)),
                "script 0 evicted at {salt}"
            );
            program(salt);
            assert!(shard.program_cache_weight() <= PROGRAM_CACHE_CAP);
        }
        let (hits, misses, evictions) = counts(&shard);
        assert_eq!((hits, misses), (flood as u64 - 1, flood as u64));
        assert!(evictions >= flood as u64 / 2 - 1, "{evictions} evictions");
        assert!(shard.program_cache_weight() > PROGRAM_CACHE_CAP - 2 * per_script);

        // The newest scripts are resident, the oldest (after 0) are gone.
        program(flood - 1);
        assert_eq!(counts(&shard).0, hits + 1);
        program(1);
        assert_eq!(counts(&shard).1, misses + 1);
    }

    #[test]
    fn a_script_heavier_than_the_cap_runs_uncached() {
        let shard = shard();
        let script = script_of(PROGRAM_CACHE_CAP + 1, 0);
        let hash = fnv1a(script.as_bytes());
        for _ in 0..2 {
            let program = shard.program(hash, &script).expect("compiles");
            let run = shard.pool().run(&program, Default::default()).unwrap();
            assert_eq!(run.value("v3").as_f64().unwrap(), 3.0);
        }
        assert_eq!(counts(&shard), (0, 2, 0));
        assert_eq!(shard.program_cache_weight(), 0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let set = ShardSet::new(0, &LimaConfig::lima(), None);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn memory_only_shards_report_cold() {
        let set = ShardSet::new(2, &LimaConfig::lima(), None);
        for shard in set.iter() {
            assert_eq!(shard.state(), ShardState::Cold);
        }
    }

    #[test]
    fn state_gauges_are_distinct() {
        assert_eq!(ShardState::Cold.as_gauge(), 0);
        assert_eq!(ShardState::Warm.as_gauge(), 1);
        assert_eq!(ShardState::Degraded.as_gauge(), 2);
        assert_ne!(ShardState::Warm.as_str(), ShardState::Degraded.as_str());
    }
}
