//! Eviction policies and scoring functions (paper §4.3, Table 1).
//!
//! | Policy      | Scoring function (evict argmin)            |
//! |-------------|--------------------------------------------|
//! | LRU         | `Ta(o) / θ` — normalized last access        |
//! | DAG-Height  | `1 / h(o)` — deep traces evicted first      |
//! | Cost & Size | `(r_h + r_m) · c(o) / s(o)`                 |
//!
//! Victims come from the cache's books (`cache::books`), which keep resident
//! entries in score order as they change; the scan-based [`pick_victim`]
//! remains as the oracle they are tested against.

use crate::cache::entry::CacheEntry;
use crate::config::EvictionPolicy;

/// Eviction score of an entry under a policy; the entry with the **lowest**
/// score is evicted first.
pub fn score(policy: EvictionPolicy, entry: &CacheEntry) -> f64 {
    match policy {
        EvictionPolicy::Lru => entry.last_access as f64,
        EvictionPolicy::DagHeight => 1.0 / f64::from(entry.height.max(1)),
        EvictionPolicy::CostSize => {
            let references = (entry.hits + entry.misses) as f64;
            references * entry.compute_ns as f64 / entry.size.max(1) as f64
        }
    }
}

/// Picks the victim among `(index, entry)` candidates: minimal score, ties
/// broken by older access for determinism.
pub fn pick_victim<'a, K>(
    policy: EvictionPolicy,
    candidates: impl Iterator<Item = (K, &'a CacheEntry)>,
) -> Option<K> {
    let mut best: Option<(K, f64, u64)> = None;
    for (key, entry) in candidates {
        let s = score(policy, entry);
        let replace = match &best {
            None => true,
            Some((_, bs, ba)) => s < *bs || (s == *bs && entry.last_access < *ba),
        };
        if replace {
            best = Some((key, s, entry.last_access));
        }
    }
    best.map(|(k, _, _)| k)
}

/// Position of an entry in one of the books' two ordered queues: by `score`
/// (the Table 1 score as order-preserving bits; 0 in the shell queue), then
/// older `last_access`, then the id of the entry's own key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueueKey {
    pub(super) score: u64,
    pub(super) last_access: u64,
    id: u64,
}

impl QueueKey {
    /// `e`'s position in the resident queue under `policy`, or (without one)
    /// in the shell queue. Scores are finite and non-negative, where
    /// IEEE-754 bit patterns order like the numbers.
    pub(super) fn of(policy: Option<EvictionPolicy>, e: &CacheEntry) -> QueueKey {
        QueueKey {
            score: policy.map_or(0, |p| score(p, e).max(0.0).to_bits()),
            last_access: e.last_access,
            id: e.key.0.id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::entry::{EntryId, EntryState};
    use crate::lineage::item::{LinKey, LineageItem};
    use lima_matrix::Value;

    fn entry(compute_ns: u64, size: usize, height: u32, last_access: u64, refs: u64) -> CacheEntry {
        CacheEntry {
            id: EntryId::default(),
            key: LinKey(LineageItem::literal("f:0")),
            slot: None,
            state: EntryState::Cached(Value::f64(0.0)),
            compute_ns,
            height,
            last_access,
            hits: refs,
            misses: 0,
            seen_again: false,
            size,
            group: 0,
            persist_id: None,
            from_persist: false,
            credited: false,
            credited_ns: 0,
            outputs: None,
            children: Vec::new(),
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let old = entry(1, 1, 1, 5, 0);
        let new = entry(1, 1, 1, 9, 0);
        let victim = pick_victim(
            EvictionPolicy::Lru,
            vec![("old", &old), ("new", &new)].into_iter(),
        );
        assert_eq!(victim, Some("old"));
    }

    #[test]
    fn dag_height_evicts_deepest() {
        let shallow = entry(1, 1, 2, 0, 0);
        let deep = entry(1, 1, 100, 0, 0);
        let victim = pick_victim(
            EvictionPolicy::DagHeight,
            vec![("shallow", &shallow), ("deep", &deep)].into_iter(),
        );
        assert_eq!(victim, Some("deep"));
        // Height 0 does not divide by zero.
        assert!(score(EvictionPolicy::DagHeight, &entry(1, 1, 0, 0, 0)).is_finite());
    }

    #[test]
    fn cost_size_evicts_cheap_large_cold_entries() {
        let cheap_big = entry(1_000, 1_000_000, 1, 0, 1);
        let costly_small = entry(1_000_000, 1_000, 1, 0, 1);
        let victim = pick_victim(
            EvictionPolicy::CostSize,
            vec![("cheap_big", &cheap_big), ("costly_small", &costly_small)].into_iter(),
        );
        assert_eq!(victim, Some("cheap_big"));
    }

    #[test]
    fn ties_break_by_age() {
        let a = entry(10, 10, 1, 3, 1);
        let b = entry(10, 10, 1, 7, 1);
        let victim = pick_victim(
            EvictionPolicy::CostSize,
            vec![("a", &a), ("b", &b)].into_iter(),
        );
        assert_eq!(victim, Some("a"));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let v: Option<&str> = pick_victim(
            EvictionPolicy::Lru,
            std::iter::empty::<(&str, &CacheEntry)>(),
        );
        assert!(v.is_none());
    }
}
