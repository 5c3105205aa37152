//! The cache's books: which entries exist, where they are, and in what order
//! they leave. Data structure only — no I/O, statistics or observability;
//! [`crate::cache::LineageCache`] keeps them under its state lock.
//!
//! Entries live in a slab, addressed by a small generation-checked
//! [`EntryId`]. The key map is `LinKey → EntryId` — sixteen bytes a bucket,
//! so the one hash lookup a probe makes stays in cache where the entries
//! (an order of magnitude larger) would not. Whatever meets an entry again
//! holds its id and looks nothing up: the reservation that will fulfil it,
//! both eviction queues, a composite's children, the durable-copy map.
//! A key on its first sighting gets no entry, only its hash in [`Sightings`]:
//! one eight-byte slot, also the placeholder while its value is computed.

use crate::cache::entry::{CacheEntry, DiskCopy, EntryId, EntryState};
use crate::cache::eviction::{pick_victim, QueueKey};
use crate::config::EvictionPolicy;
use crate::lineage::item::{FxBuildHasher, LinKey};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::Arc;

/// A sightings slot's low bits (the key hash fills the rest; 0 is empty): a
/// *ghost* was seen once, not booked; a first sighting is *computing*, then
/// *waited* once a probe blocks on it.
const GHOST: u64 = 1;
const COMPUTING: u64 = 2;
const WAITED: u64 = 3;
const STATE: u64 = 3;
/// Slots per bucket: a key may sit in any slot of its bucket.
const WAYS: usize = 4;

/// Slots to remember the `max(4 × others, 4096)` keys the refusal shells
/// were capped at, with the table at most half full.
fn sightings_capacity(others: usize) -> usize {
    (8 * others.max(1024)).next_power_of_two()
}

fn tag_of(key: &LinKey) -> u64 {
    key.0.hash_value() & !STATE
}

/// A bucket's slots, on one 32-byte line.
#[derive(Debug, Default)]
#[repr(align(32))]
struct Bucket([AtomicU64; WAYS]);

/// Keys the books remember without an entry (TinyLFU's *doorkeeper*,
/// Einziger et al., ACM ToS 2017) and the recurrence counters. Written under
/// the cache lock; a first sighting's holder reads the counters and settles
/// its slot by compare-and-swap without it. A key is in one slot, unmapped.
#[derive(Debug)]
pub struct Sightings {
    buckets: Box<[Bucket]>,
    /// `64 - log2(buckets)`: a bucket is the top bits of the hash times the
    /// golden ratio, so growing never overflows a bucket.
    shift: u32,
    keys: AtomicU64,
    recurred: AtomicU64,
    /// How many times the books were cleared before this table was made: a
    /// grown table keeps its predecessor's, a cleared one starts the next.
    clears: u64,
}

impl Sightings {
    fn new(slots: usize, (recurred, keys): (u64, u64), clears: u64) -> Self {
        let buckets = slots / WAYS;
        Sightings {
            buckets: (0..buckets).map(|_| Bucket::default()).collect(),
            shift: 64 - buckets.trailing_zeros(),
            keys: AtomicU64::new(keys),
            recurred: AtomicU64::new(recurred),
            clears,
        }
    }

    /// `tag`'s slot and what it holds, else a slot it may take: empty, or
    /// another key's ghost (the tag picks which), if any.
    fn scan(&self, tag: u64) -> Result<(&AtomicU64, u64), Option<&AtomicU64>> {
        let at = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift;
        let bucket = &self.buckets[at as usize].0;
        let (mut empty, mut ghost) = (None, None);
        for i in 0..WAYS {
            let slot = &bucket[(tag as usize >> 2).wrapping_add(i) % WAYS];
            match slot.load(Acquire) {
                0 => empty = empty.or(Some(slot)),
                held if held & !STATE == tag => return Ok((slot, held)),
                held if held & STATE == GHOST => ghost = ghost.or(Some(slot)),
                _ => {}
            }
        }
        Err(empty.or(ghost))
    }

    /// `(keys seen again, keys)` since the books were last cleared.
    pub fn recurrence(&self) -> (u64, u64) {
        let load = |c: &AtomicU64| c.load(Relaxed);
        (load(&self.recurred), load(&self.keys))
    }

    /// Adds one to a counter; only ever under the cache lock.
    fn count(counter: &AtomicU64) {
        counter.store(counter.load(Relaxed) + 1, Relaxed);
    }

    /// Makes `key`'s first sighting a ghost without the lock; false if a
    /// probe waits on it or it moved (the holder then settles under the lock).
    pub fn release(&self, key: &LinKey) -> bool {
        let tag = tag_of(key);
        match self.scan(tag) {
            Ok((slot, held)) if held == tag | COMPUTING => slot
                .compare_exchange(held, tag | GHOST, AcqRel, Relaxed)
                .is_ok(),
            _ => false,
        }
    }

    /// Empties every slot into `keep`: a first sighting's release then fails.
    fn drain(&self, mut keep: impl FnMut(u64)) {
        let slots = self.buckets.iter().flat_map(|b| &b.0);
        slots
            .map(|s| s.swap(0, AcqRel))
            .filter(|held| *held != 0)
            .for_each(&mut keep);
    }
}

/// What a probe finds in the sightings for a key the map lacks.
#[derive(Debug)]
pub enum Sighting {
    /// Nothing: the key, a new one, now has a slot (in this table) computing.
    First(Arc<Sightings>),
    /// Its ghost: this is the key's second sighting.
    Again,
    /// Its first sighting, being computed; the slot is now marked waited.
    Pending,
    /// Every slot of its bucket computes another key.
    Busy,
}

/// One slab slot. `generation` counts the tenants the slot has had; an id
/// resolves only while it names the current one.
#[derive(Debug)]
struct Slot {
    generation: u32,
    entry: Option<CacheEntry>,
}

/// Key map, entry slab, eviction queues and counters, kept in step, so that
/// neither a victim nor any counter needs a scan. Invariants (checked by
/// [`Books::verify`]) whenever the cache lock is released, for every entry:
///
/// * its key maps to its slot, which holds it under its id; every occupied
///   slot is some key's and every vacant one is on the free list once;
///   `durable` maps exactly the `persist_id`s back to their entries;
/// * `e` is in the resident queue iff it is `Cached` with `size > 0`, filed
///   under its current score, `last_access` and key id; in the shell queue
///   iff it is `Evicted`, filed under its `last_access`; `e.slot` is that
///   queue key, `None` otherwise;
/// * `resident_bytes` / `spilled_bytes` are the sums of `size` over `Cached`
///   and of scratch-file bytes over `Spilled` entries (a durable copy is the
///   persistent store's, not spill space); `live` counts both states, and
///   `groups[g]` the `Cached` entries tagged `g != 0`.
///
/// They hold because an entry's state and score inputs (`hits`, `misses`,
/// `compute_ns`, `size`, `last_access`) change only inside [`Books::update`],
/// [`Books::touch`] and [`Books::update_victim`].
///
/// Beside them run the [`Sightings`], counting keys sighted since `clear()`
/// and those seen again ([`Books::seen_again`]): keys, not entries, so a
/// pruned shell or a forgotten ghost leaves them alone.
#[derive(Debug)]
pub struct Books {
    map: HashMap<LinKey, EntryId, FxBuildHasher>,
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Manifest ID → the entry whose `persist_id` it is, so IDs the
    /// persistent store reports gone are un-mapped without a scan.
    durable: HashMap<u64, EntryId>,
    queues: Queues,
    sightings: Arc<Sightings>,
}

/// The eviction queues (of slab ids: filing an entry copies eight bytes and
/// touches no reference count) and the counters over them.
#[derive(Debug, PartialEq)]
struct Queues {
    policy: EvictionPolicy,
    resident: BTreeMap<QueueKey, EntryId>,
    shells: BTreeMap<QueueKey, EntryId>,
    groups: HashMap<usize, usize, FxBuildHasher>,
    resident_bytes: usize,
    spilled_bytes: usize,
    live: usize,
}

impl Queues {
    fn new(policy: EvictionPolicy) -> Self {
        Queues {
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
    fn update(&mut self, e: &mut CacheEntry, f: impl FnOnce(&mut CacheEntry)) {
        self.unfile(e);
        self.count(e, false);
        f(e);
        self.count(e, true);
        self.file(e);
    }

    /// Adds `e` to the counters under its current state, or takes it out.
    fn count(&mut self, e: &CacheEntry, enter: bool) {
        let step = |n: &mut usize, by: usize| {
            *n = if enter { *n + by } else { n.saturating_sub(by) };
        };
        match &e.state {
            EntryState::Cached(_) => {
                step(&mut self.live, 1);
                step(&mut self.resident_bytes, e.size);
                if e.group != 0 {
                    let members = self.groups.entry(e.group).or_default();
                    step(members, 1);
                    if *members == 0 {
                        self.groups.remove(&e.group);
                    }
                }
            }
            EntryState::Spilled { copy, bytes } => {
                step(&mut self.live, 1);
                if let DiskCopy::Scratch(_) = copy {
                    step(&mut self.spilled_bytes, *bytes);
                }
            }
            EntryState::Computing | EntryState::Evicted => {}
        }
    }

    fn file(&mut self, e: &mut CacheEntry) {
        let (queue, policy) = match &e.state {
            EntryState::Cached(_) if e.size > 0 => (&mut self.resident, Some(self.policy)),
            EntryState::Evicted => (&mut self.shells, None),
            _ => return,
        };
        let slot = QueueKey::of(policy, e);
        queue.insert(slot, e.id);
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
}

impl Books {
    /// Empty books whose resident queue orders by `policy`.
    pub fn new(policy: EvictionPolicy) -> Self {
        Books {
            map: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            durable: HashMap::new(),
            queues: Queues::new(policy),
            sightings: Arc::new(Sightings::new(sightings_capacity(0), (0, 0), 0)),
        }
    }

    /// `(keys seen again, keys)` since the books were last cleared.
    pub fn recurrence(&self) -> (u64, u64) {
        self.sightings.recurrence()
    }

    /// Notes that the key of `id` was seen again: the first time counts it
    /// among the recurred keys. No queue or counter of the eviction index
    /// reads the flag.
    pub fn seen_again(&mut self, id: EntryId) {
        let slot = self.slab.get_mut(id.slot as usize);
        let current = slot.filter(|s| s.generation == id.generation);
        if let Some(e) = current.and_then(|s| s.entry.as_mut()) {
            if !std::mem::replace(&mut e.seen_again, true) {
                Sightings::count(&self.sightings.recurred);
            }
        }
    }

    /// Looks `key`, which the map lacks, up in the sightings, first moving
    /// them to a larger table if the entries call for one.
    pub fn sight(&mut self, key: &LinKey) -> Sighting {
        let wanted = sightings_capacity(self.map.len() - self.queues.shells.len());
        if self.sightings.buckets.len() * WAYS < wanted {
            let grown = Sightings::new(wanted, self.recurrence(), self.sightings.clears);
            self.sightings.drain(|held| {
                if let Err(Some(slot)) = grown.scan(held & !STATE) {
                    slot.store(held, Relaxed);
                }
            });
            self.sightings = Arc::new(grown);
        }
        let (tag, table) = (tag_of(key), &self.sightings);
        loop {
            return match table.scan(tag) {
                Ok((_, held)) if held & STATE == GHOST => Sighting::Again,
                Ok((_, held)) if held & STATE == WAITED => Sighting::Pending,
                Ok((slot, held)) => {
                    match slot.compare_exchange(held, tag | WAITED, AcqRel, Acquire) {
                        Ok(_) => Sighting::Pending,
                        Err(_) => continue, // released meanwhile: a ghost now
                    }
                }
                Err(Some(slot)) => {
                    slot.store(tag | COMPUTING, Release);
                    Sightings::count(&table.keys);
                    Sighting::First(Arc::clone(table))
                }
                Err(None) => Sighting::Busy,
            };
        }
    }

    /// The placeholder of a ghost's key, where its shell would stand: one
    /// miss more, and seen again.
    pub fn reserve_again(&mut self, key: LinKey, now: u64) -> EntryId {
        let (id, _) = self.find_or_reserve(key, now);
        self.update(id, |e| e.misses += 1);
        self.seen_again(id);
        id
    }

    /// Where `key`'s first sighting, made in the table `made_in`, stands for
    /// its holder under the lock: `Some(waited)` while computing, `None` once
    /// taken over or cleared. Growth moves the slot to the current table; a
    /// clear drops it, and the key's next first sighting is not this holder's.
    pub fn settle(&self, key: &LinKey, made_in: Option<&Sightings>) -> Option<bool> {
        if made_in.is_some_and(|t| t.clears != self.sightings.clears) {
            return None;
        }
        let state = self.sightings.scan(tag_of(key)).ok()?.1 & STATE;
        (state >= COMPUTING).then_some(state == WAITED)
    }

    /// Remembers `key` as a ghost, if its bucket has room.
    pub fn ghost(&mut self, key: &LinKey) {
        let tag = tag_of(key);
        let slot = self.sightings.scan(tag).map(|(slot, _)| Some(slot));
        if let Some(slot) = slot.unwrap_or_else(|vacancy| vacancy) {
            slot.store(tag | GHOST, Release);
        }
    }

    /// Number of entries, shells and placeholders included.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Number of evicted shells.
    pub fn shell_count(&self) -> usize {
        self.queues.shells.len()
    }

    /// Number of entries holding a resident or spilled value.
    pub fn live_entries(&self) -> usize {
        self.queues.live
    }

    /// Bytes of values resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.queues.resident_bytes
    }

    /// Bytes held in scratch spill files.
    pub fn spilled_bytes(&self) -> usize {
        self.queues.spilled_bytes
    }

    /// The entry cached under `key`, if any: the one hash lookup of a probe.
    pub fn lookup(&self, key: &LinKey) -> Option<EntryId> {
        self.map.get(key).copied()
    }

    /// The entry cached under `key`, created as a placeholder (and `true`)
    /// when there is none — one hash lookup either way. A sighted key leaves
    /// the sightings for it, and is no new key.
    pub fn find_or_reserve(&mut self, key: LinKey, now: u64) -> (EntryId, bool) {
        let vacant = match self.map.entry(key) {
            Entry::Occupied(found) => return (*found.get(), false),
            Entry::Vacant(vacant) => vacant,
        };
        let mut entry = CacheEntry::computing(vacant.key().clone(), now);
        match self.sightings.scan(tag_of(&entry.key)) {
            Ok((slot, _)) => slot.store(0, Release),
            Err(_) => Sightings::count(&self.sightings.keys),
        }
        let vacancy = self.free.pop().map(|slot| slot as usize);
        let at = match vacancy.filter(|at| *at < self.slab.len()) {
            Some(at) => at,
            None => {
                self.slab.push(Slot {
                    generation: 0,
                    entry: None,
                });
                self.slab.len() - 1
            }
        };
        let home = &mut self.slab[at];
        // Slots are numbered in 32 bits: memory runs out long before they do.
        entry.id = EntryId {
            slot: at as u32,
            generation: home.generation,
        };
        // A placeholder is in no queue and no counter: nothing to book yet.
        let id = *vacant.insert(entry.id);
        home.entry = Some(entry);
        (id, true)
    }

    /// The entry `id` names, unless it has left the cache since.
    pub fn get(&self, id: EntryId) -> Option<&CacheEntry> {
        let slot = self.slab.get(id.slot as usize)?;
        let current = slot.generation == id.generation;
        slot.entry.as_ref().filter(|_| current)
    }

    fn entry_and_queues(&mut self, id: EntryId) -> Option<(&mut CacheEntry, &mut Queues)> {
        let slot = self.slab.get_mut(id.slot as usize)?;
        let current = slot.generation == id.generation;
        Some((slot.entry.as_mut().filter(|_| current)?, &mut self.queues))
    }

    /// Applies `f` to the entry — any change of state, size, group or
    /// statistics — un-booking it first and booking it again after. `None`
    /// (and `f` not run) when `id` is stale.
    pub fn update<R>(&mut self, id: EntryId, f: impl FnOnce(&mut CacheEntry) -> R) -> Option<R> {
        let (e, queues) = self.entry_and_queues(id)?;
        let mut out = None;
        queues.update(e, |e| out = Some(f(e)));
        out
    }

    /// [`Self::update`] for changes that leave state, size and group alone
    /// (a hit: `hits`, `last_access`): only the queue position moves.
    pub fn touch<R>(&mut self, id: EntryId, f: impl FnOnce(&mut CacheEntry) -> R) -> Option<R> {
        let (e, queues) = self.entry_and_queues(id)?;
        queues.unfile(e);
        let out = f(e);
        queues.file(e);
        Some(out)
    }

    /// Changes fields no queue or counter reads (`credited`, `children`, a
    /// peek's `misses` on a shell). Not for state, size, group, `hits`,
    /// `compute_ns`, `last_access`, or `persist_id` ([`Self::set_durable`]).
    pub fn annotate<R>(&mut self, id: EntryId, f: impl FnOnce(&mut CacheEntry) -> R) -> Option<R> {
        self.entry_and_queues(id).map(|(e, _)| f(e))
    }

    /// Applies `f` to the head of the resident queue — the lowest score,
    /// ties the oldest access — with the number of resident entries sharing
    /// its value (itself included; 0 when untagged). The victim is popped,
    /// not looked up and then unfiled, and re-filed by what `f` leaves.
    /// False when nothing is resident.
    pub fn update_victim(&mut self, f: impl FnOnce(&mut CacheEntry, usize)) -> bool {
        let Some((_, id)) = self.queues.resident.pop_first() else {
            return false;
        };
        if let Some((e, queues)) = self.entry_and_queues(id) {
            e.slot = None;
            let sharing = queues.groups.get(&e.group).copied().unwrap_or(0);
            queues.update(e, |e| f(e, sharing));
        }
        true
    }

    /// Takes a first sighting's entry out of the books, leaving its key (which
    /// it returns) a ghost.
    pub fn refuse(&mut self, id: EntryId) -> Option<LinKey> {
        let key = self.remove(id)?;
        self.ghost(&key);
        Some(key)
    }

    /// Drops the least recently accessed shell from the books altogether.
    /// False when there is no shell.
    pub fn drop_oldest_shell(&mut self) -> bool {
        let Some((_, id)) = self.queues.shells.pop_first() else {
            return false;
        };
        self.annotate(id, |e| e.slot = None);
        self.remove(id);
        true
    }

    /// Takes the entry out of every book and frees its slot for the next
    /// generation; returns its key.
    pub fn remove(&mut self, id: EntryId) -> Option<LinKey> {
        let slot = self.slab.get_mut(id.slot as usize)?;
        let current = slot.generation == id.generation;
        let mut entry = slot.entry.take_if(|_| current)?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.queues.unfile(&mut entry);
        self.queues.count(&entry, false);
        self.map.remove(&entry.key);
        if let Some(pid) = entry.persist_id {
            self.durable.remove(&pid);
        }
        Some(entry.key)
    }

    /// Records (or clears) the entry's durable copy, keeping `durable` in
    /// step. False when `id` is stale.
    pub fn set_durable(&mut self, id: EntryId, persist_id: Option<u64>) -> bool {
        let Some(old) = self.annotate(id, |e| std::mem::replace(&mut e.persist_id, persist_id))
        else {
            return false;
        };
        if let Some(old) = old {
            self.durable.remove(&old);
        }
        if let Some(new) = persist_id {
            self.durable.insert(new, id);
        }
        true
    }

    /// Un-maps durable copies the persistent store no longer has. A value
    /// still in memory stays valid, and with the ID cleared a later fulfill
    /// persists it again; an entry whose only copy was the durable file
    /// becomes a shell.
    pub fn forget_durable(&mut self, persist_ids: &[u64]) {
        for pid in persist_ids {
            let Some(id) = self.durable.remove(pid) else {
                continue;
            };
            self.update(id, |e| {
                if e.persist_id != Some(*pid) {
                    return; // a later durable write superseded this ID
                }
                e.persist_id = None;
                e.from_persist = false;
                if let EntryState::Spilled {
                    copy: DiskCopy::Durable(_),
                    ..
                } = e.state
                {
                    e.state = EntryState::Evicted;
                }
            });
        }
    }

    /// Every entry, in slab order.
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> + Clone {
        self.slab.iter().filter_map(|slot| slot.entry.as_ref())
    }

    /// Drops every entry. Slots move on to their next generation, so ids
    /// handed out before resolve to nothing afterwards.
    pub fn clear(&mut self) {
        self.map.clear();
        self.durable.clear();
        self.free.clear();
        for (at, slot) in self.slab.iter_mut().enumerate() {
            if slot.entry.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
            }
            self.free.push(at as u32);
        }
        self.queues = Queues::new(self.queues.policy);
        self.sightings.drain(|_| {});
        let clears = self.sightings.clears + 1;
        self.sightings = Arc::new(Sightings::new(sightings_capacity(0), (0, 0), clears));
    }

    /// Re-derives everything the books maintain from a scan of the slab,
    /// including the head of the resident queue against [`pick_victim`], and
    /// reports the first disagreement. For tests and diagnostics only.
    pub fn verify(&self) -> Result<(), String> {
        let mut want = Queues::new(self.queues.policy);
        let mut free: Vec<u32> = Vec::new();
        let mut durable = 0;
        for (at, slot) in (0u32..).zip(&self.slab) {
            let Some(e) = &slot.entry else {
                free.push(at);
                continue;
            };
            let here = EntryId {
                slot: at,
                generation: slot.generation,
            };
            let mapped = self.map.get_key_value(&e.key);
            if self.sightings.scan(tag_of(&e.key)).is_ok() {
                return Err(format!("{:?} is mapped and sighted", e.key.0));
            }
            if e.id != here || mapped.map(|(_, id)| *id) != Some(here) {
                return Err(format!(
                    "{:?} in slot {at} is mapped as {mapped:?}",
                    e.key.0
                ));
            }
            if e.persist_id
                .is_some_and(|pid| self.durable.get(&pid) != Some(&here))
            {
                return Err(format!("the persist id of {:?} is not mapped", e.key.0));
            }
            durable += usize::from(e.persist_id.is_some());
            let mut copy = e.clone();
            copy.slot = None;
            want.count(&copy, true);
            want.file(&mut copy);
            if copy.slot != e.slot {
                return Err(format!("{:?} is filed under {:?}", e.key.0, e.slot));
            }
        }
        let mut listed = self.free.clone();
        listed.sort_unstable();
        if listed != free || self.map.len() + free.len() != self.slab.len() {
            return Err("key map, slab and free list disagree".into());
        }
        if durable != self.durable.len() {
            return Err("a persist id is mapped to an entry that does not carry it".into());
        }
        let seen = self.entries().filter(|e| e.seen_again).count() as u64;
        let (recurred, keys) = self.recurrence();
        if seen > recurred || recurred > keys || self.len() as u64 > keys {
            return Err(format!(
                "{} entries ({seen} seen again), but {recurred} of {keys} keys recurred",
                self.len(),
            ));
        }
        // The sightings grow only with the entries, never more than keys.
        let slots = self.sightings.buckets.len() * WAYS;
        if slots > sightings_capacity(keys as usize) {
            return Err(format!("{slots} sighting slots for {keys} keys"));
        }
        if self.queues != want {
            return Err(format!("books say {:?}, entries say {want:?}", self.queues));
        }
        let residents = self.entries().filter(|e| e.is_resident() && e.size > 0);
        let oracle = pick_victim(
            self.queues.policy,
            residents.map(|e| ((e.slot.map(|s| s.score), e.last_access), e)),
        );
        let head = self.queues.resident.keys().next();
        if head.map(|s| (Some(s.score), s.last_access)) != oracle {
            return Err(format!("queue head {head:?}, pick_victim says {oracle:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;
    use lima_matrix::{DenseMatrix, Value};

    fn key(tag: &str) -> LinKey {
        LinKey(LineageItem::op_with_data("read", tag, vec![]))
    }

    /// Books holding resident 2×2 matrices `tags`, in that order of access
    /// and with `compute_ns` 10, 1 000, ... (so Cost&Size ranks them too).
    fn resident(policy: EvictionPolicy, tags: &[&str]) -> (Books, Vec<EntryId>) {
        let mut b = Books::new(policy);
        let mut ids = Vec::new();
        for (t, tag) in (0u64..).zip(tags) {
            let (id, _) = b.find_or_reserve(key(tag), t);
            b.update(id, |e| {
                e.install(&Value::matrix(DenseMatrix::zeros(2, 2)));
                e.compute_ns = 10 * 100u64.pow(t as u32);
            });
            ids.push(id);
        }
        (b, ids)
    }

    fn evict(e: &mut CacheEntry, _sharing: usize) {
        e.state = EntryState::Evicted;
        e.size = 0;
    }

    fn victim(b: &Books) -> Option<EntryId> {
        b.queues.resident.values().next().copied()
    }

    #[test]
    fn one_slot_per_key_found_again_by_key_and_by_id() {
        let mut b = Books::new(EvictionPolicy::Lru);
        let (a, fresh) = b.find_or_reserve(key("a"), 1);
        assert!(fresh);
        assert_eq!(b.find_or_reserve(key("a"), 2), (a, false));
        assert_eq!(b.lookup(&key("a")), Some(a));
        assert_eq!(b.lookup(&key("b")), None);
        assert!(b.get(a).is_some_and(|e| e.is_computing() && e.id == a));
        assert_eq!(b.len(), 1);
        b.verify().unwrap();
    }

    #[test]
    fn a_recycled_slot_does_not_answer_to_its_old_id() {
        let mut b = Books::new(EvictionPolicy::Lru);
        let (old, _) = b.find_or_reserve(key("old"), 1);
        b.remove(old);
        assert!(b.get(old).is_none() && b.len() == 0);
        let (new, _) = b.find_or_reserve(key("new"), 2);
        assert_eq!(new.slot, old.slot, "the slot is reused");
        assert_ne!(new, old);
        // The stale id changes nothing, least of all the new tenant.
        assert_eq!(b.update(old, |e| e.state = EntryState::Evicted), None);
        assert_eq!(b.touch(old, |e| e.hits += 1), None);
        assert!(!b.set_durable(old, Some(7)));
        b.remove(old);
        assert!(b.get(new).is_some_and(|e| e.is_computing() && e.hits == 0));
        b.verify().unwrap();
    }

    #[test]
    fn clear_retires_every_id() {
        let (mut b, ids) = resident(EvictionPolicy::Lru, &["a", "b", "c"]);
        b.clear();
        assert!(b.len() == 0 && ids.iter().all(|id| b.get(*id).is_none()));
        assert_eq!((b.live_entries(), b.resident_bytes()), (0, 0));
        b.verify().unwrap();
        let (again, fresh) = b.find_or_reserve(key("a"), 2);
        assert!(fresh && !ids.contains(&again));
        b.verify().unwrap();
    }

    #[test]
    fn books_follow_entries_through_update_touch_and_eviction() {
        let (mut b, ids) = resident(EvictionPolicy::CostSize, &["cheap", "costly"]);
        let (cheap, costly) = (ids[0], ids[1]);
        let size = b.get(cheap).map_or(0, |e| e.size);
        assert_eq!(victim(&b), Some(cheap));
        assert_eq!((b.resident_bytes(), b.live_entries()), (2 * size, 2));
        b.verify().unwrap();
        // Hits raise the cheap entry's score past the costly one's.
        b.touch(cheap, |e| {
            e.hits += 1_000;
            e.last_access = 3;
        });
        assert_eq!(victim(&b), Some(costly));
        b.verify().unwrap();
        // Eviction moves the head from the resident queue to the shell queue.
        assert!(b.update_victim(evict));
        assert_eq!(victim(&b), Some(cheap));
        assert_eq!((b.shell_count(), b.live_entries()), (1, 1));
        assert_eq!(b.resident_bytes(), size);
        b.verify().unwrap();
        // Shells leave oldest first, and with them their keys.
        assert!(b.update_victim(evict) && !b.update_victim(evict));
        assert!(b.drop_oldest_shell());
        assert!(b.get(costly).is_none() && b.lookup(&key("costly")).is_none());
        assert!(b.get(cheap).is_some());
        b.verify().unwrap();
        assert!(b.drop_oldest_shell() && !b.drop_oldest_shell());
        assert_eq!((b.len(), b.shell_count(), b.live_entries()), (0, 0, 0));
        b.verify().unwrap();
    }

    #[test]
    fn verify_reports_changes_that_bypassed_the_books() {
        let (mut b, ids) = resident(EvictionPolicy::Lru, &["a", "b"]);
        b.verify().unwrap();
        // Not through `touch`: the queue still says 0.
        b.annotate(ids[0], |e| e.last_access = 9);
        assert!(b.verify().is_err());
    }

    #[test]
    fn groups_count_resident_members_only() {
        let (mut b, ids) = resident(EvictionPolicy::Lru, &["a", "b"]);
        for id in &ids {
            b.update(*id, |e| e.group = 7);
        }
        let mut seen = Vec::new();
        for _ in 0..2 {
            assert!(b.update_victim(|e, sharing| {
                seen.push(sharing);
                evict(e, sharing);
            }));
        }
        assert_eq!(seen, [2, 1]);
        assert!(b.queues.groups.is_empty());
        b.verify().unwrap();
    }

    #[test]
    fn recurrence_counts_keys_once_and_outlives_their_entries() {
        let (mut b, ids) = resident(EvictionPolicy::Lru, &["a", "b", "c", "d"]);
        assert_eq!(b.recurrence(), (0, 4));
        b.seen_again(ids[0]);
        b.seen_again(ids[0]);
        b.seen_again(ids[1]);
        assert_eq!(b.recurrence(), (2, 4));
        assert!(b.get(ids[0]).is_some_and(|e| e.seen_again));
        b.verify().unwrap();
        // A key that leaves stays counted; its id is stale now.
        b.remove(ids[0]);
        b.seen_again(ids[0]);
        assert_eq!(b.recurrence(), (2, 4));
        b.verify().unwrap();
        // Coming back, it is a new key on its first sighting.
        let (again, fresh) = b.find_or_reserve(key("a"), 9);
        assert!(fresh && b.get(again).is_some_and(|e| !e.seen_again));
        assert_eq!(b.recurrence(), (2, 5));
        b.clear();
        assert_eq!(b.recurrence(), (0, 0));
        b.verify().unwrap();
    }

    #[test]
    fn a_first_sighting_is_a_slot_until_its_key_is_booked() {
        let mut b = Books::new(EvictionPolicy::Lru);
        assert!(matches!(b.sight(&key("a")), Sighting::First(_)));
        assert_eq!((b.len(), b.recurrence()), (0, (0, 1)));
        // A probe that finds it computing marks it waited, and the holder's
        // release without the lock fails: it settles under the lock.
        assert!(matches!(b.sight(&key("a")), Sighting::Pending));
        assert!(!b.sightings.release(&key("a")));
        assert_eq!(b.settle(&key("a"), None), Some(true));
        b.ghost(&key("a"));
        assert_eq!(b.settle(&key("a"), None), None);
        assert!(matches!(b.sight(&key("a")), Sighting::Again));
        b.verify().unwrap();
        // Its entry takes it out of the table; it is not a new key.
        let (id, fresh) = b.find_or_reserve(key("a"), 1);
        assert!(fresh && b.get(id).is_some_and(|e| e.misses == 1));
        assert_eq!(b.recurrence(), (0, 1));
        b.verify().unwrap();
        // A released first sighting is a ghost at once.
        assert!(matches!(b.sight(&key("b")), Sighting::First(_)));
        assert!(b.sightings.release(&key("b")));
        assert!(matches!(b.sight(&key("b")), Sighting::Again));
        // A refused entry leaves a ghost and no entry.
        assert_eq!(b.refuse(id).map(|k| k.0.data() == Some("a")), Some(true));
        assert_eq!(b.len(), 0);
        assert!(matches!(b.sight(&key("a")), Sighting::Again));
        b.verify().unwrap();
    }

    #[test]
    fn verify_reports_a_key_both_mapped_and_sighted() {
        let mut b = Books::new(EvictionPolicy::Lru);
        b.find_or_reserve(key("a"), 1);
        b.verify().unwrap();
        b.ghost(&key("a"));
        assert!(b.verify().is_err());
    }

    #[test]
    fn first_sightings_move_with_a_growing_table_and_go_with_a_clear() {
        let mut b = Books::new(EvictionPolicy::Lru);
        assert!(matches!(b.sight(&key("held")), Sighting::First(_)));
        let small = Arc::clone(&b.sightings);
        // Enough entries for a larger table, which the next sighting makes.
        for n in 0..2_000 {
            b.find_or_reserve(key(&format!("e{n}")), n);
        }
        assert!(matches!(b.sight(&key("other")), Sighting::First(_)));
        assert!(b.sightings.buckets.len() > small.buckets.len());
        assert_eq!(b.recurrence(), (0, 2_002));
        // The holder's release fails on the table it holds; it settles in
        // the one its slot moved to.
        assert!(!small.release(&key("held")));
        assert_eq!(b.settle(&key("held"), Some(&small)), Some(false));
        b.verify().unwrap();
        let grown = Arc::clone(&b.sightings);
        b.clear();
        assert!(!grown.release(&key("held")));
        assert_eq!(b.settle(&key("held"), Some(&small)), None);
        assert_eq!(b.recurrence(), (0, 0));
        b.verify().unwrap();
        // The key's next first sighting is not the stale holder's to settle,
        // whichever table that holder made its sighting in.
        assert!(matches!(b.sight(&key("held")), Sighting::First(_)));
        assert_eq!(b.settle(&key("held"), Some(&small)), None);
        assert_eq!(b.settle(&key("held"), Some(&grown)), None);
        let current = Arc::clone(&b.sightings);
        assert_eq!(b.settle(&key("held"), Some(&current)), Some(false));
    }

    #[test]
    fn durable_ids_follow_their_entries() {
        let mut b = Books::new(EvictionPolicy::Lru);
        let (a, _) = b.find_or_reserve(key("a"), 1);
        b.update(a, |e| {
            e.state = EntryState::Spilled {
                copy: DiskCopy::Durable(5),
                bytes: 8,
            }
        });
        assert!(b.set_durable(a, Some(5)));
        b.verify().unwrap();
        // Superseded: 5 is forgotten by the map, not by way of the entry.
        assert!(b.set_durable(a, Some(6)));
        b.forget_durable(&[5]);
        assert_eq!(b.get(a).and_then(|e| e.persist_id), Some(6));
        b.forget_durable(&[6]);
        assert!(b
            .get(a)
            .is_some_and(|e| e.persist_id.is_none() && matches!(e.state, EntryState::Evicted)));
        b.verify().unwrap();
    }
}
