//! Eviction policies and scoring functions (paper §4.3, Table 1).
//!
//! | Policy      | Scoring function (evict argmin)            |
//! |-------------|--------------------------------------------|
//! | LRU         | `Ta(o) / θ` — normalized last access        |
//! | DAG-Height  | `1 / h(o)` — deep traces evicted first      |
//! | Cost & Size | `(r_h + r_m) · c(o) / s(o)`                 |
//!
//! Victims come from the [`EvictionIndex`], which keeps resident entries in
//! score order as they change; the scan-based [`pick_victim`] remains as the
//! oracle the index is tested against.

use crate::cache::entry::{CacheEntry, DiskCopy, EntryState};
use crate::config::EvictionPolicy;
use crate::lineage::item::{FxBuildHasher, LinKey};
use std::collections::{BTreeMap, HashMap};

/// Eviction score of an entry under a policy; the entry with the **lowest**
/// score is evicted first.
pub fn score(policy: EvictionPolicy, entry: &CacheEntry) -> f64 {
    match policy {
        EvictionPolicy::Lru => entry.last_access as f64,
        EvictionPolicy::DagHeight => 1.0 / f64::from(entry.height.max(1)),
        EvictionPolicy::CostSize => entry.cost_size_score(),
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

/// Position of an entry in one of the index's two ordered queues: by `score`
/// (the Table 1 score as order-preserving bits; 0 in the shell queue), then
/// older `last_access`, then the id of the entry's own key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueueKey {
    score: u64,
    last_access: u64,
    id: u64,
}

impl QueueKey {
    fn of(score: u64, e: &CacheEntry) -> QueueKey {
        QueueKey {
            score,
            last_access: e.last_access,
            id: e.key.0.id(),
        }
    }
}

/// Table 1 score as bits that order like the score. Scores are finite and
/// non-negative, where IEEE-754 bit patterns are monotone.
fn score_bits(policy: EvictionPolicy, e: &CacheEntry) -> u64 {
    score(policy, e).max(0.0).to_bits()
}

/// Incrementally maintained bookkeeping over the cache's entry map, so that
/// neither choosing a victim nor any counter needs a scan of the map.
///
/// Invariants (checked by [`EvictionIndex::verify`]), for every map entry
/// `e` whenever the cache lock is released:
///
/// * `e` is in the resident queue iff it is `Cached` with `size > 0`, filed
///   under its current score, `last_access` and key id; `e` is in the shell
///   queue iff it is `Evicted`, filed under its `last_access`; `e.slot` is
///   that queue key, `None` otherwise.
/// * `resident_bytes` / `spilled_bytes` are the sums of `size` over `Cached`
///   and of scratch-file bytes over `Spilled` entries (a durable copy is the
///   persistent store's, not spill space); `live` counts both states.
/// * `groups[g]` is the number of `Cached` entries tagged `g != 0`.
///
/// They hold because every change to an entry's state or to a score input
/// (`hits`, `misses`, `compute_ns`, `size`, `last_access`) happens inside
/// [`EvictionIndex::update`] or [`EvictionIndex::touch`].
#[derive(Debug)]
pub struct EvictionIndex {
    policy: EvictionPolicy,
    resident: BTreeMap<QueueKey, LinKey>,
    shells: BTreeMap<QueueKey, LinKey>,
    groups: HashMap<usize, usize, FxBuildHasher>,
    resident_bytes: usize,
    spilled_bytes: usize,
    live: usize,
}

impl EvictionIndex {
    /// Empty index ordering resident entries by `policy`.
    pub fn new(policy: EvictionPolicy) -> Self {
        EvictionIndex {
            policy,
            resident: BTreeMap::new(),
            shells: BTreeMap::new(),
            groups: HashMap::default(),
            resident_bytes: 0,
            spilled_bytes: 0,
            live: 0,
        }
    }

    /// Applies `f` to `e` — any change of state, size, group or statistics —
    /// taking the entry out of the books first and entering it again after.
    pub fn update(&mut self, e: &mut CacheEntry, f: impl FnOnce(&mut CacheEntry)) {
        self.remove(e);
        f(e);
        self.add(e);
    }

    /// [`Self::update`] for changes that leave state, size and group alone
    /// (a hit: `hits`, `last_access`): only the queue position moves.
    pub fn touch(&mut self, e: &mut CacheEntry, f: impl FnOnce(&mut CacheEntry)) {
        self.unfile(e);
        f(e);
        self.file(e);
    }

    /// Enters `e` into the books under its current state.
    pub fn add(&mut self, e: &mut CacheEntry) {
        match &e.state {
            EntryState::Cached(_) => {
                self.live += 1;
                self.resident_bytes += e.size;
                if e.group != 0 {
                    *self.groups.entry(e.group).or_default() += 1;
                }
            }
            EntryState::Spilled { copy, bytes } => {
                self.live += 1;
                if let DiskCopy::Scratch(_) = copy {
                    self.spilled_bytes += bytes;
                }
            }
            EntryState::Computing | EntryState::Evicted => {}
        }
        self.file(e);
    }

    /// Takes `e` out of the books (before it changes or leaves the map).
    pub fn remove(&mut self, e: &mut CacheEntry) {
        self.unfile(e);
        match &e.state {
            EntryState::Cached(_) => {
                self.live = self.live.saturating_sub(1);
                self.resident_bytes = self.resident_bytes.saturating_sub(e.size);
                if let Some(n) = self.groups.get_mut(&e.group) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        self.groups.remove(&e.group);
                    }
                }
            }
            EntryState::Spilled { copy, bytes } => {
                self.live = self.live.saturating_sub(1);
                if let DiskCopy::Scratch(_) = copy {
                    self.spilled_bytes = self.spilled_bytes.saturating_sub(*bytes);
                }
            }
            EntryState::Computing | EntryState::Evicted => {}
        }
    }

    fn file(&mut self, e: &mut CacheEntry) {
        let (queue, score) = match &e.state {
            EntryState::Cached(_) if e.size > 0 => (&mut self.resident, score_bits(self.policy, e)),
            EntryState::Evicted => (&mut self.shells, 0),
            _ => return,
        };
        let slot = QueueKey::of(score, e);
        queue.insert(slot, e.key.clone());
        e.slot = Some(slot);
    }

    fn unfile(&mut self, e: &mut CacheEntry) {
        if let Some(slot) = e.slot.take() {
            match e.state {
                EntryState::Evicted => self.shells.remove(&slot),
                _ => self.resident.remove(&slot),
            };
        }
    }

    /// The resident entry with the lowest score (ties: oldest access), in
    /// O(log n).
    pub fn victim(&self) -> Option<&LinKey> {
        self.resident.first_key_value().map(|(_, k)| k)
    }

    /// The least recently accessed evicted shell.
    pub fn oldest_shell(&self) -> Option<&LinKey> {
        self.shells.first_key_value().map(|(_, k)| k)
    }

    /// Number of evicted shells.
    pub fn shell_count(&self) -> usize {
        self.shells.len()
    }

    /// Number of entries holding a resident or spilled value.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Bytes of values resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Bytes held in scratch spill files.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes
    }

    /// Number of resident entries caching the object tagged `group`.
    pub fn group_size(&self, group: usize) -> usize {
        self.groups.get(&group).copied().unwrap_or(0)
    }

    /// Recomputes everything the index maintains by scanning `entries` (the
    /// whole map) and compares, including the head of the resident queue
    /// against [`pick_victim`]. For tests and diagnostics only.
    pub fn verify<'a>(
        &self,
        entries: impl Iterator<Item = &'a CacheEntry> + Clone,
    ) -> Result<(), String> {
        let mut want = EvictionIndex::new(self.policy);
        for e in entries.clone() {
            let mut copy = e.clone();
            copy.slot = None;
            want.add(&mut copy);
            if copy.slot != e.slot {
                return Err(format!(
                    "entry {:?} is filed under {:?}, its fields say {:?}",
                    e.key.0, e.slot, copy.slot
                ));
            }
        }
        if !self.resident.keys().eq(want.resident.keys()) {
            return Err("resident queue does not match the resident entries".into());
        }
        if !self.shells.keys().eq(want.shells.keys()) {
            return Err("shell queue does not match the evicted entries".into());
        }
        if self.groups != want.groups {
            return Err(format!(
                "group counts {:?}, entries say {:?}",
                self.groups, want.groups
            ));
        }
        let counters = |i: &EvictionIndex| (i.resident_bytes, i.spilled_bytes, i.live);
        if counters(self) != counters(&want) {
            return Err(format!(
                "(resident_bytes, spilled_bytes, live) = {:?}, entries say {:?}",
                counters(self),
                counters(&want)
            ));
        }
        let position = |e: &CacheEntry| (score_bits(self.policy, e), e.last_access);
        let oracle = pick_victim(
            self.policy,
            entries
                .filter(|e| e.is_resident() && e.size > 0)
                .map(|e| (position(e), e)),
        );
        let head = self
            .resident
            .keys()
            .next()
            .map(|s| (s.score, s.last_access));
        if head != oracle {
            return Err(format!(
                "index victim {head:?}, pick_victim says {oracle:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;
    use lima_matrix::Value;

    fn entry(compute_ns: u64, size: usize, height: u32, last_access: u64, refs: u64) -> CacheEntry {
        CacheEntry {
            key: LinKey(LineageItem::literal("f:0")),
            slot: None,
            state: EntryState::Cached(Value::f64(0.0)),
            compute_ns,
            height,
            last_access,
            hits: refs,
            misses: 0,
            size,
            group: 0,
            persist_id: None,
            from_persist: false,
            credited: false,
            credited_ns: 0,
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

    /// A resident entry with its own key (the index files entries by key).
    fn keyed(tag: &str, compute_ns: u64, last_access: u64) -> CacheEntry {
        let mut e = entry(compute_ns, 100, 1, last_access, 1);
        e.key = LinKey(LineageItem::op_with_data("read", tag, vec![]));
        e
    }

    #[test]
    fn index_follows_entries_through_update_and_touch() {
        let mut index = EvictionIndex::new(EvictionPolicy::CostSize);
        let mut cheap = keyed("cheap", 10, 1);
        let mut costly = keyed("costly", 1_000, 2);
        index.add(&mut cheap);
        index.add(&mut costly);
        assert_eq!(index.victim(), Some(&cheap.key));
        assert_eq!(index.resident_bytes(), 200);
        assert_eq!(index.live_entries(), 2);
        index.verify([&cheap, &costly].into_iter()).unwrap();
        // Hits raise the cheap entry's score past the costly one's.
        index.touch(&mut cheap, |e| {
            e.hits += 1_000;
            e.last_access = 3;
        });
        assert_eq!(index.victim(), Some(&costly.key));
        index.verify([&cheap, &costly].into_iter()).unwrap();
        // Eviction moves an entry from the resident queue to the shell queue.
        index.update(&mut costly, |e| {
            e.state = EntryState::Evicted;
            e.size = 0;
        });
        assert_eq!(index.victim(), Some(&cheap.key));
        assert_eq!(index.oldest_shell(), Some(&costly.key));
        assert_eq!((index.shell_count(), index.live_entries()), (1, 1));
        assert_eq!(index.resident_bytes(), 100);
        index.verify([&cheap, &costly].into_iter()).unwrap();
        // Leaving the map takes the entry out of every book.
        index.remove(&mut cheap);
        index.remove(&mut costly);
        assert_eq!(index.victim(), None);
        assert_eq!(index.oldest_shell(), None);
        assert_eq!((index.resident_bytes(), index.live_entries()), (0, 0));
    }

    #[test]
    fn verify_reports_changes_that_bypassed_the_index() {
        let mut index = EvictionIndex::new(EvictionPolicy::Lru);
        let mut a = keyed("a", 10, 1);
        let mut b = keyed("b", 10, 2);
        index.add(&mut a);
        index.add(&mut b);
        index.verify([&a, &b].into_iter()).unwrap();
        a.last_access = 9; // not through `touch`: the queue still says 1
        assert!(index.verify([&a, &b].into_iter()).is_err());
    }

    #[test]
    fn groups_count_resident_members_only() {
        let mut index = EvictionIndex::new(EvictionPolicy::Lru);
        let mut a = keyed("a", 10, 1);
        let mut b = keyed("b", 10, 2);
        a.group = 7;
        b.group = 7;
        index.add(&mut a);
        index.add(&mut b);
        assert_eq!(index.group_size(7), 2);
        index.update(&mut a, |e| e.state = EntryState::Evicted);
        assert_eq!(index.group_size(7), 1);
        index.update(&mut b, |e| e.state = EntryState::Evicted);
        assert_eq!(index.group_size(7), 0);
        index.verify([&a, &b].into_iter()).unwrap();
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
