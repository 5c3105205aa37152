//! Lineage-cache entries and their metadata (paper §4.1/§4.3): data value or
//! placeholder, cache status, measured computation time, access statistics,
//! and the lineage-trace height used by the DAG-Height policy.

use crate::cache::eviction::QueueKey;
use crate::lineage::item::LinKey;
use lima_matrix::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// Address of an entry in the cache's slab (`cache::books`): a slot number
/// and the generation of the slot's tenant. A slot is reused
/// after its entry leaves, under the next generation, so an id that outlived
/// its entry (a reservation whose placeholder was cleared away) resolves to
/// nothing instead of to the new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EntryId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// Which file holds an evicted value. A cached value has at most one on-disk
/// copy: an entry the persistent store already wrote is never spilled again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskCopy {
    /// A file this process spilled to its scratch directory; a restore (or a
    /// superseding put) deletes it.
    Scratch(PathBuf),
    /// The persistent store's `values/v<id>.val`; a restore leaves it in
    /// place.
    Durable(u64),
}

/// Lifecycle state of a cache entry.
#[derive(Debug, Clone)]
pub enum EntryState {
    /// Placeholder: some thread is computing the value; others block
    /// (paper §4.1, task-parallel loops).
    Computing,
    /// Value resident in memory.
    Cached(Value),
    /// Value evicted from memory with a copy on disk; restorable. `bytes`
    /// is what a restore reads: the scratch file's length, or the value's
    /// in-memory size for a durable copy.
    Spilled { copy: DiskCopy, bytes: usize },
    /// Shell: value dropped, statistics retained so future misses can raise
    /// the entry's eviction score again (paper Fig 8(a): P2 entries get
    /// evicted, their scores increase due to misses, and they get reused).
    Evicted,
}

/// A cache entry: one slab slot, found through the key map or directly by
/// the id a reservation, a queue or a parent entry holds.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Where the slab holds this entry; assigned on insertion, and what both
    /// queues of the eviction index file it as.
    pub id: EntryId,
    /// The lineage trace this entry caches (the key map holds a clone); its
    /// item id breaks queue-position ties.
    pub key: LinKey,
    /// Where the books currently file this entry (resident queue or shell
    /// queue); `None` when unfiled. Owned by the books — nothing else writes
    /// it.
    pub slot: Option<QueueKey>,
    /// Current state.
    pub state: EntryState,
    /// Measured computation time of the cached object in nanoseconds.
    pub compute_ns: u64,
    /// Height of the lineage trace (distance from leaves).
    pub height: u32,
    /// Logical timestamp of the last access.
    pub last_access: u64,
    /// Reuse hits against this entry.
    pub hits: u64,
    /// Probes that missed because the value was absent/evicted.
    pub misses: u64,
    /// True once the key was seen again after its first sighting: a hit, a
    /// probe of its shell or its ghost, or a probe that waited on its
    /// placeholder. Until then admission may refuse its value, leaving the
    /// key a ghost. Owned by the books (`Books::seen_again`).
    pub seen_again: bool,
    /// In-memory size of the value in bytes (0 while Computing/Evicted).
    pub size: usize,
    /// Entry-group tag: entries caching the *same object* at different
    /// levels (operation vs. function) share this pointer tag, so spilling
    /// can be deferred until the whole group is evicted (paper §4.3).
    pub group: usize,
    /// Manifest ID in the persistent cache store, when the entry has been
    /// durably written (or was recovered from disk).
    pub persist_id: Option<u64>,
    /// True when the entry was repopulated from a prior process by startup
    /// recovery; hits against it count as `persist_hits`.
    pub from_persist: bool,
    /// True once this entry has contributed to `saved_compute_ns` (directly
    /// on its first hit, or transitively when an enclosing composite entry
    /// was hit). Savings attribution credits each entry at most once.
    pub credited: bool,
    /// Nanoseconds this entry actually credited to `saved_compute_ns` when
    /// it was first hit (0 if never hit, or if a composite hit absorbed it).
    pub credited_ns: u64,
    /// For composite (function/block) entries: the entries fulfilled within
    /// this entry's computation window on the same thread. Their compute
    /// time is a subset of this entry's `compute_ns`, which is what lets a
    /// composite hit credit only the not-yet-credited remainder. A child
    /// that has left the cache since resolves to nothing and is skipped.
    pub children: Vec<EntryId>,
}

impl CacheEntry {
    /// New placeholder entry for `key`.
    pub fn computing(key: LinKey, now: u64) -> Self {
        let height = key.0.height();
        CacheEntry {
            id: EntryId::default(),
            key,
            slot: None,
            state: EntryState::Computing,
            compute_ns: 0,
            height,
            last_access: now,
            hits: 0,
            misses: 1, // the probe that created the placeholder missed
            seen_again: false,
            size: 0,
            group: 0,
            persist_id: None,
            from_persist: false,
            credited: false,
            credited_ns: 0,
            children: Vec::new(),
        }
    }

    /// Makes `value` this entry's resident value: state, size and group tag.
    pub fn install(&mut self, value: &Value) {
        self.size = value.size_in_bytes();
        self.group = value_group(value);
        self.state = EntryState::Cached(value.clone());
    }

    /// True when a value is immediately available in memory.
    pub fn is_resident(&self) -> bool {
        matches!(self.state, EntryState::Cached(_))
    }

    /// True while a placeholder is pending.
    pub fn is_computing(&self) -> bool {
        matches!(self.state, EntryState::Computing)
    }

    /// True when the value lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self.state, EntryState::Spilled { .. })
    }
}

/// Identity tag grouping entries that cache the same underlying object
/// (multi-level entries). 0 means "untagged".
fn value_group(v: &Value) -> usize {
    match v {
        Value::Matrix(m) => Arc::as_ptr(m) as usize,
        Value::List(l) => Arc::as_ptr(l) as usize,
        Value::Scalar(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;

    /// Placeholder for a chain of `height` unary ops over a literal.
    fn computing(height: u32, now: u64) -> CacheEntry {
        let mut item = LineageItem::literal("f:0");
        for _ in 0..height {
            item = LineageItem::op("exp", vec![item]);
        }
        CacheEntry::computing(LinKey(item), now)
    }

    #[test]
    fn placeholder_lifecycle_flags() {
        let e = computing(3, 17);
        assert!(e.is_computing());
        assert!(!e.is_resident());
        assert!(!e.is_spilled());
        assert!(e.slot.is_none());
        assert_eq!(e.misses, 1);
        assert_eq!(e.height, 3);
        assert_eq!(e.last_access, 17);
    }

    fn cost_size_score(e: &CacheEntry) -> f64 {
        crate::cache::eviction::score(crate::EvictionPolicy::CostSize, e)
    }

    #[test]
    fn cost_size_score_prefers_expensive_small_hot_entries() {
        let mut cheap_big = computing(1, 0);
        cheap_big.state = EntryState::Cached(Value::f64(0.0));
        cheap_big.compute_ns = 1_000;
        cheap_big.size = 1_000_000;
        let mut costly_small = cheap_big.clone();
        costly_small.compute_ns = 1_000_000;
        costly_small.size = 1_000;
        assert!(cost_size_score(&costly_small) > cost_size_score(&cheap_big));
        // More references raise the score.
        let mut hot = cheap_big.clone();
        hot.hits = 10;
        assert!(cost_size_score(&hot) > cost_size_score(&cheap_big));
    }

    #[test]
    fn score_handles_zero_size() {
        let e = computing(0, 0);
        assert!(cost_size_score(&e).is_finite());
    }
}
