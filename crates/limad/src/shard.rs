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

use lima_core::lineage::LinRef;
use lima_core::{LimaConfig, LimaStats, LineageCache, ResourceGovernor};
use lima_matrix::codec::fnv1a;
use lima_runtime::SessionPool;
use std::path::Path;
use std::sync::Arc;

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
}

impl CacheShard {
    /// Builds shard `index` from the template. When `persist_root` is given
    /// and the template enables persistence, the shard persists under its own
    /// `shard-<index>` subdirectory; an unusable directory degrades the shard
    /// to memory-only (observable via [`CacheShard::state`]), never an error.
    pub fn new(index: usize, template: &LimaConfig, persist_root: Option<&Path>) -> Self {
        let mut config = template.clone();
        if let Some(root) = persist_root {
            config.persist_dir = Some(root.join(format!("shard-{index}")));
        }
        let pool = SessionPool::new(config.clone());
        CacheShard {
            index,
            config,
            pool,
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

    /// Current persistence posture; see [`ShardState`].
    pub fn state(&self) -> ShardState {
        let Some(cache) = self.cache() else {
            return ShardState::Cold;
        };
        if self.config.persist_dir.is_none() {
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
    /// (and therefore a cache) regardless of tenant.
    pub fn route_script(&self, script: &str) -> &Arc<CacheShard> {
        let i = (fnv1a(script.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[i]
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
        let a = set
            .route_script("X = rand(rows=2, cols=2, seed=1);")
            .index();
        let b = set
            .route_script("X = rand(rows=2, cols=2, seed=1);")
            .index();
        assert_eq!(a, b);
        assert!(a < 4);
        // Different scripts spread over shards eventually.
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| set.route_script(&format!("s = {i};")).index())
            .collect();
        assert!(spread.len() > 1, "64 scripts all routed to one shard");
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
