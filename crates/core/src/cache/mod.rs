//! The lineage reuse cache (paper §4): a thread-safe map from lineage traces
//! to cached values, with placeholder blocking for task parallelism, multi-
//! level entries, cost-based eviction, disk spilling, and partial-reuse
//! rewrites.

mod books;
pub mod costs;
pub mod entry;
pub mod eviction;
pub mod persist;
pub mod rewrites;
pub mod spill;

use crate::config::{LimaConfig, ReuseMode};
use crate::governor::ResourceGovernor;
use crate::interrupt::{Interrupt, InterruptKind};
use crate::lineage::item::{LinKey, LinRef};
use crate::obs::{EventKind, Obs};
use crate::resilience::{Attempt, CircuitBreaker, RetryPolicy};
use crate::stats::LimaStats;
use books::{Books, Sighting, Sightings};
use costs::IoCostModel;
use entry::{CacheEntry, DiskCopy, EntryId, EntryState, OutputLineage};
use lima_matrix::Value;
use parking_lot::{Condvar, Mutex, MutexGuard};
use persist::PersistentCacheStore;
use spill::SpillStore;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded retries (jittered exponential backoff from [`PERSIST_RETRY_BASE_MS`],
/// doubling per retry) for a transient durable-write error before it counts
/// against the persist breaker.
const PERSIST_RETRY_ATTEMPTS: u32 = 2;
const PERSIST_RETRY_BASE_MS: u64 = 1;

/// The spill and persist circuit breakers open after this many
/// *consecutive* write failures (evictions then degrade to deletes, durable
/// writes are skipped) and, once open, let one probe attempt through per
/// [`BREAKER_COOLDOWN_MS`] window; a successful probe closes them again.
const BREAKER_FAILURES: u32 = 3;
const BREAKER_COOLDOWN_MS: u64 = 5_000;

/// Wait-slice granularity while blocked on a placeholder with an interrupt
/// armed: cancellation/deadline is noticed within this bound even when no
/// notify arrives.
const INTERRUPT_WAIT_SLICE: Duration = Duration::from_millis(25);

/// True for multi-level (function/block) cache keys, whose measured cost
/// *contains* the cost of constituent entries fulfilled within their window.
fn is_composite(op: &str) -> bool {
    op.starts_with(crate::opcodes::FCALL) || op.starts_with(crate::opcodes::BCALL)
}

/// One open composite (function/block) reservation on the current thread.
/// Entries fulfilled while a frame is open are that composite's children:
/// their compute time is a subset of the composite's measured cost.
struct CompositeFrame {
    /// Identity of the owning cache (distinct caches may interleave on one
    /// thread in tests).
    cache: usize,
    id: EntryId,
    children: Vec<EntryId>,
}

thread_local! {
    /// Stack of open composite reservations made by this thread. Composite
    /// bodies execute on the reserving thread, so this suffices to attribute
    /// constituent fulfills to their enclosing function/block entry (the
    /// basis of at-most-once `saved_compute_ns` accounting).
    static COMPOSITE_STACK: RefCell<Vec<CompositeFrame>> = const { RefCell::new(Vec::new()) };
}

/// Outcome of a full-reuse probe.
pub enum Probe<'a> {
    /// The value was reused from the cache, with the lineage of its outputs
    /// when it was fulfilled with one (composites).
    Hit(Value, Option<OutputLineage>),
    /// The caller must compute the value and fulfil (or abort) the
    /// reservation; concurrent probes for the same trace block meanwhile.
    Reserved(Reservation<'a>),
}

/// An outstanding placeholder created by [`LineageCache::acquire`]. Dropping
/// it without [`Reservation::fulfill`] aborts the placeholder and wakes
/// waiting threads. It names its entry by slab id, or a first sighting's
/// slot, so neither end looks anything up; should the placeholder be gone by
/// then (a `clear()` in between), fulfilling or aborting changes nothing.
pub struct Reservation<'a> {
    cache: &'a LineageCache,
    hold: Hold,
    done: bool,
    /// For a composite: the lineage of its outputs, stored with the value.
    outputs: Option<OutputLineage>,
}

/// What a reservation holds its placeholder by.
enum Hold {
    /// A placeholder entry in the books, and whether it is a composite's.
    Entry(EntryId, bool),
    /// The key's slot in the sightings, marked computing: no entry.
    Sighting(Arc<Sightings>, LinKey),
}

impl Reservation<'_> {
    /// Stores the computed value with its measured computation time.
    pub fn fulfill(mut self, value: &Value, compute_ns: u64) {
        self.done = true;
        let outputs = self.outputs.take();
        self.cache
            .fulfill(Admission::Reserved(&self.hold), value, outputs, compute_ns);
    }

    /// For a composite: the lineage its outputs were computed with, which
    /// [`Self::fulfill`] stores beside the value and every hit hands back.
    pub fn with_outputs(mut self, outputs: Option<OutputLineage>) -> Self {
        self.outputs = outputs;
        self
    }

    /// Abandons the placeholder (e.g. the computation failed): what dropping
    /// an unfulfilled reservation does.
    pub fn abort(self) {}
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.abort(&self.hold);
        }
    }
}

/// One row of the per-lineage-item cost-attribution report
/// ([`LineageCache::cost_report`]): the cache's `compute_ns` bookkeeping fed
/// back to users, keyed by the same lineage item id that obs trace events
/// carry in `args.lineage_id`.
#[derive(Debug, Clone)]
pub struct ItemCost {
    /// Lineage item id (process-unique; matches trace `args.lineage_id`).
    pub lineage_id: u64,
    /// Opcode of the cached item (`fcall:*` / `bcall` for composites).
    pub opcode: String,
    /// Lineage DAG height.
    pub height: u32,
    /// Measured nanoseconds to compute the value once.
    pub compute_ns: u64,
    /// Reuse hits served by this entry.
    pub hits: u64,
    /// Probes that missed (including the one creating the entry).
    pub misses: u64,
    /// Nanoseconds this entry credited to `saved_compute_ns` (at-most-once
    /// semantics: composites credit their cost net of constituents).
    pub saved_ns: u64,
    /// Whether the value is currently resident in memory.
    pub resident: bool,
}

impl ItemCost {
    /// One-line human rendering used by `limac run --cost-top`.
    pub fn render(&self) -> String {
        format!(
            "#{:<6} {:<12} h={} compute={:.3}ms hits={} misses={} saved={:.3}ms{}",
            self.lineage_id,
            self.opcode,
            self.height,
            self.compute_ns as f64 / 1e6,
            self.hits,
            self.misses,
            self.saved_ns as f64 / 1e6,
            if self.resident { " [resident]" } else { "" },
        )
    }
}

/// Everything the state lock guards: the books, and who is waiting on or
/// watching them.
struct CacheState {
    /// Entries, key map and eviction index (see [`Books`] for the
    /// invariants).
    books: Books,
    /// Probes currently blocked on a placeholder. Checked under the lock by
    /// whoever resolves a placeholder, so the `notify_all` futex call is
    /// only paid when somebody is actually waiting.
    waiters: usize,
    /// Observer invoked (outside the cache lock) after each locally computed
    /// value is offered — see [`PutWatcher`].
    put_watcher: Option<PutWatcher>,
}

/// Where a value handed to [`LineageCache::fulfill`] comes from, and with
/// that how its entry is found.
#[derive(Clone, Copy)]
enum Admission<'a> {
    /// The holder of a [`Reservation`] computed it: no lookup.
    Reserved(&'a Hold),
    /// A direct put: found by key, created if absent. `watched` is false
    /// for [`LineageCache::put_replicated`], which skips the put watcher.
    Put { item: &'a LinRef, watched: bool },
}

/// What [`LineageCache::fulfill`] does with a value: book it in an entry (a
/// shell if it does not fit), refuse it (its key now a ghost), or nothing.
enum Verdict {
    Entry(EntryId),
    Refuse(Option<LinKey>),
    Stale,
}

/// The LIMA lineage cache. Cheap to share (`Arc`); all methods are
/// thread-safe.
///
/// ```
/// use lima_core::{LimaConfig, LineageCache};
/// use lima_core::cache::Probe;
/// use lima_core::lineage::item::LineageItem;
/// use lima_matrix::{DenseMatrix, Value};
///
/// let cache = LineageCache::new(LimaConfig::lima());
/// let x = LineageItem::op_with_data("read", "X.csv", vec![]);
/// let gram = LineageItem::op_with_data("tsmm", "LEFT", vec![x]);
///
/// // First probe misses: compute and fulfil the reservation.
/// match cache.acquire(&gram).expect("tsmm is cacheable") {
///     Probe::Reserved(r) => r.fulfill(&Value::matrix(DenseMatrix::identity(3)), 1_000),
///     Probe::Hit(..) => unreachable!("fresh cache"),
/// }
/// // A structurally equal trace hits, even though it is a different object.
/// let x2 = LineageItem::op_with_data("read", "X.csv", vec![]);
/// let gram2 = LineageItem::op_with_data("tsmm", "LEFT", vec![x2]);
/// assert!(matches!(cache.acquire(&gram2), Some(Probe::Hit(..))));
/// ```
pub struct LineageCache {
    config: LimaConfig,
    stats: Arc<LimaStats>,
    io: IoCostModel,
    spill_store: Option<SpillStore>,
    state: Mutex<CacheState>,
    cond: Condvar,
    clock: AtomicU64,
    /// Half-open circuit breaker over spill writes (see [`BREAKER_FAILURES`]).
    spill_breaker: CircuitBreaker,
    /// Crash-safe durable store; present when `config.persist` is set and
    /// the directory was usable.
    persist_store: Option<PersistentCacheStore>,
    /// Half-open breaker over durable writes.
    persist_breaker: CircuitBreaker,
    /// Latch so a disk-full/fsync degrade is counted exactly once.
    disk_full_noted: AtomicBool,
    /// A put watcher is installed (read by a first sighting's lock-free fulfil).
    watched: AtomicBool,
    /// Memory-pressure governor; present when `config.governor_budget_bytes`
    /// is non-zero. Gates admissions, rewrites, and spilling by pressure
    /// level and is kept in sync with resident/spilled byte counts.
    governor: Option<Arc<ResourceGovernor>>,
}

/// Callback fired after a locally computed `(lineage, value, compute_ns)`
/// record that fits the budget is offered to the cache, whether admission
/// booked or refused it ([`LineageCache::contains`] tells which). Not
/// fired for startup-recovered entries or values applied via
/// [`LineageCache::put_replicated`], so replicas never echo records back.
/// Must be cheap and non-blocking: it runs on the session hot path.
pub type PutWatcher = Arc<dyn Fn(&LinRef, &Value, u64) + Send + Sync>;

impl std::fmt::Debug for LineageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "LineageCache {{ entries: {}, live: {}, resident_bytes: {}, book_ns: {:.0} }}",
            st.books.len(),
            st.books.live_entries(),
            st.books.resident_bytes(),
            self.io.book_ns()
        )
    }
}

impl LineageCache {
    /// Creates a cache for the given configuration. With persistence enabled
    /// this runs the startup recovery pass: entries a prior process durably
    /// committed are validated and repopulated as warm cache entries. An
    /// unusable persist directory degrades to a memory-only cache.
    pub fn new(config: LimaConfig) -> Arc<Self> {
        let spill_store = match config.spill {
            true => SpillStore::with_faults(config.faults.clone()).ok(),
            false => None,
        };
        let mut recovered = Vec::new();
        let persist_store = config.persist.as_ref().and_then(|opts| {
            PersistentCacheStore::open_with(&opts.dir, opts.clone()).map(
                |(store, entries, report)| {
                    recovered = entries;
                    (store.with_faults(config.faults.clone()), report)
                },
            )
        });
        let stats = Arc::new(LimaStats::new());
        let governor = (config.governor_budget_bytes > 0).then(|| {
            let g = ResourceGovernor::new(
                config.governor_budget_bytes,
                Arc::clone(&stats),
                config.faults.clone(),
            );
            if let Some(obs) = &config.obs {
                g.attach_obs(Arc::clone(obs));
            }
            g
        });
        let books = Books::new(config.policy);
        let mut cache = LineageCache {
            config,
            stats,
            io: IoCostModel::new(),
            spill_store,
            state: Mutex::new(CacheState {
                books,
                waiters: 0,
                put_watcher: None,
            }),
            cond: Condvar::new(),
            clock: AtomicU64::new(1),
            spill_breaker: CircuitBreaker::new(BREAKER_FAILURES, BREAKER_COOLDOWN_MS),
            persist_store: None,
            persist_breaker: CircuitBreaker::new(BREAKER_FAILURES, BREAKER_COOLDOWN_MS),
            disk_full_noted: AtomicBool::new(false),
            watched: AtomicBool::new(false),
            governor,
        };
        if let Some((store, report)) = persist_store {
            LimaStats::add(&cache.stats.persist_recovered, report.recovered);
            LimaStats::add(&cache.stats.persist_dropped, report.dropped);
            if report.torn_tail_truncated {
                LimaStats::bump(&cache.stats.persist_torn_truncations);
            }
            LimaStats::add(&cache.stats.persist_orphans_gcd, report.orphans_gcd);
            LimaStats::add(&cache.stats.persist_repairs, report.repaired);
            LimaStats::add(&cache.stats.persist_repair_failures, report.repair_failures);
            LimaStats::add(&cache.stats.scrub_quarantined, report.quarantined);
            cache.persist_store = Some(store);
            let mut st = cache.state.lock();
            for e in recovered {
                let size = e.value.size_in_bytes();
                if size > cache.config.budget_bytes {
                    continue; // respect the memory budget; stays on disk
                }
                let (id, _) = st
                    .books
                    .find_or_reserve(LinKey(e.root.clone()), cache.tick());
                st.books.update(id, |entry| {
                    entry.install(&e.value);
                    entry.misses = 0;
                    entry.compute_ns = e.compute_ns;
                    entry.from_persist = true;
                });
                st.books.set_durable(id, Some(e.persist_id));
            }
            cache.enforce_budget(&mut st);
            drop(st);
        }
        Arc::new(cache)
    }

    /// The configuration this cache was created with.
    pub fn config(&self) -> &LimaConfig {
        &self.config
    }

    /// Shared statistics.
    pub fn stats(&self) -> &LimaStats {
        &self.stats
    }

    /// Shared statistics handle (same counters as [`Self::stats`]).
    pub fn stats_arc(&self) -> Arc<LimaStats> {
        Arc::clone(&self.stats)
    }

    /// The memory-pressure governor, when `config.governor_budget_bytes > 0`.
    pub fn governor(&self) -> Option<Arc<ResourceGovernor>> {
        self.governor.as_ref().map(Arc::clone)
    }

    /// Effective cache budget: the configured budget, shrunk by the governor
    /// under pressure (L1+ halves it).
    fn effective_budget(&self) -> usize {
        let budget = self.config.budget_bytes;
        let governor = self.governor.as_ref();
        governor.map_or(budget, |g| g.effective_cache_budget(budget))
    }

    /// True while the governor (if any) still admits new cache entries.
    fn admissions_open(&self) -> bool {
        let governor = self.governor.as_ref();
        governor.is_none_or(|g| g.admissions_enabled())
    }

    /// Pushes current byte accounting into the governor (no-op without one).
    fn sync_governor(&self, st: &CacheState) {
        if let Some(g) = &self.governor {
            g.set_cache_bytes(st.books.resident_bytes());
            g.set_spill_bytes(st.books.spilled_bytes());
        }
    }

    /// Releases the state lock and wakes the probes blocked on a
    /// placeholder, if there are any. The waiter count is read under the
    /// lock: a probe that starts waiting later sees the resolved entry.
    fn unlock_and_wake(&self, st: MutexGuard<'_, CacheState>) {
        let waiting = st.waiters > 0;
        drop(st);
        if waiting {
            self.cond.notify_all();
        }
    }

    /// Number of entries currently holding a resident or spilled value.
    pub fn live_entries(&self) -> usize {
        self.state.lock().books.live_entries()
    }

    /// Bytes of values resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().books.resident_bytes()
    }

    /// Diagnostic self-check (tests, tooling): recomputes by a full scan of
    /// the entry slab what the books maintain incrementally — key map, free
    /// list, durable-copy map, queues, counters, and the next victim against
    /// the scan-based [`eviction::pick_victim`]; reports the first mismatch.
    pub fn verify_index(&self) -> Result<(), String> {
        self.state.lock().books.verify()
    }

    /// Per-lineage-item cost attribution: the `top_k` most expensive entries
    /// the cache has seen (by measured `compute_ns`, ties broken by savings
    /// then id), with their reuse savings under the at-most-once accounting.
    /// Includes evicted shells — attribution outlives residency — but not a
    /// value refused on its key's first sighting, which never had an entry.
    pub fn cost_report(&self, top_k: usize) -> Vec<ItemCost> {
        let st = self.state.lock();
        let mut rows: Vec<ItemCost> = st
            .books
            .entries()
            .map(|e| ItemCost {
                lineage_id: e.key.0.id(),
                opcode: e.key.0.opcode().to_string(),
                height: e.height,
                compute_ns: e.compute_ns,
                hits: e.hits,
                misses: e.misses,
                saved_ns: e.credited_ns,
                resident: e.is_resident(),
            })
            .collect();
        drop(st);
        rows.sort_by(|a, b| {
            b.compute_ns
                .cmp(&a.compute_ns)
                .then(b.saved_ns.cmp(&a.saved_ns))
                .then(a.lineage_id.cmp(&b.lineage_id))
        });
        rows.truncate(top_k);
        rows
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Observability hub, already gated: `Some` only when attached *and*
    /// enabled, so call sites pay a single branch when tracing is off.
    #[inline]
    fn obs(&self) -> Option<&Arc<Obs>> {
        self.config.obs.as_ref().filter(|o| o.enabled())
    }

    /// Counts a probe's hit by kind (and as a persist hit when the entry was
    /// recovered from disk), credits `credit_ns` (from [`hit_credit`]: each
    /// computed nanosecond at most once) to `saved_compute_ns`, and records
    /// it for an observer.
    fn count_hit(&self, item: &LinRef, credit_ns: u64, from_persist: bool) {
        if from_persist {
            LimaStats::bump(&self.stats.persist_hits);
        }
        if is_composite(item.opcode()) {
            LimaStats::bump(&self.stats.multilevel_hits);
        } else {
            LimaStats::bump(&self.stats.full_hits);
        }
        LimaStats::add(&self.stats.saved_compute_ns, credit_ns);
        if let Some(o) = self.obs() {
            o.record_instant(EventKind::CacheHit, item.opcode(), item.id(), credit_ns, 0);
        }
    }

    /// Builds the reservation for `item`'s placeholder; a composite's goes on
    /// this thread's attribution stack, to tie constituent fulfills to it.
    fn reserve(&self, item: &LinRef, hold: Hold) -> Probe<'_> {
        if let Some(o) = self.obs() {
            o.record_instant(EventKind::CacheMiss, item.opcode(), item.id(), 0, 0);
        }
        if let Hold::Entry(id, true) = hold {
            let me = self as *const Self as usize;
            COMPOSITE_STACK.with(|s| {
                s.borrow_mut().push(CompositeFrame {
                    cache: me,
                    id,
                    children: Vec::new(),
                });
            });
        }
        Probe::Reserved(Reservation {
            cache: self,
            hold,
            done: false,
            outputs: None,
        })
    }

    /// Attribution bookkeeping when the placeholder `id` resolves. What was
    /// computed while a composite frame of this cache is open on the thread
    /// is that composite's child (its compute happened within the
    /// composite's measured window). A composite closes its own frame —
    /// with every frame above it (abandoned reservations), folded in rather
    /// than leaked — and the children collected are returned for its entry
    /// when it was fulfilled, handed to the enclosing frame when it aborted:
    /// the constituents remain cached though the composite itself failed.
    fn close_frame(&self, id: EntryId, composite: bool, fulfilled: bool) -> Vec<EntryId> {
        let me = self as *const Self as usize;
        COMPOSITE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let mut children = Vec::new();
            if composite {
                let Some(pos) = stack.iter().rposition(|f| f.cache == me && f.id == id) else {
                    return children; // reserved on another thread: not tracked
                };
                for f in stack.drain(pos..) {
                    children.extend(f.children);
                }
            } else if !fulfilled {
                return children;
            }
            if let Some(parent) = stack.last_mut().filter(|p| p.cache == me) {
                if fulfilled {
                    parent.children.push(id);
                } else {
                    parent.children.append(&mut children);
                }
            }
            children
        })
    }

    /// Full-reuse probe (paper §4.1). Returns `None` when the opcode does not
    /// qualify for caching or reuse is disabled — the caller then executes
    /// normally without touching the cache.
    ///
    /// Failure semantics: a spilled entry whose restore fails degrades to a
    /// miss (the caller recomputes), and a placeholder whose fulfiller never
    /// finishes within `config.placeholder_timeout_ms` is taken over by the
    /// waiting probe instead of blocking forever.
    pub fn acquire(&self, item: &LinRef) -> Option<Probe<'_>> {
        // Without an interrupt the Err branch is unreachable; flatten it.
        self.acquire_interruptible(item, None).unwrap_or(None)
    }

    /// [`Self::acquire`] with a session interrupt: a probe blocked on another
    /// session's placeholder re-checks cancellation/deadline every
    /// [`INTERRUPT_WAIT_SLICE`] and returns `Err` instead of waiting out
    /// `placeholder_timeout_ms`. Under governor pressure level L3+
    /// (no-admission), misses return `Ok(None)` instead of reserving a
    /// placeholder, so the caller computes without touching the cache.
    pub fn acquire_interruptible(
        &self,
        item: &LinRef,
        interrupt: Option<&Interrupt>,
    ) -> Result<Option<Probe<'_>>, InterruptKind> {
        if !self.reusable(item) {
            return Ok(None);
        }
        LimaStats::bump(&self.stats.probes);
        // Total placeholder-wait bound for this probe: armed on the first
        // Computing encounter and not reset by wake-ups for other entries.
        let mut wait_deadline: Option<Instant> = None;
        // `placeholder_waits` counts probes that blocked, not wait slices.
        let mut counted_wait = false;
        let interrupt = interrupt.filter(|i| i.is_armed());
        let composite = is_composite(item.opcode());
        let mut guard = self.state.lock();
        loop {
            let st = &mut *guard;
            let key = LinKey(item.clone());
            let open = self.admissions_open();
            // Once a key has recurred, a key the map lacks is sighted first;
            // else one hash lookup finds the entry or books its placeholder.
            let sighted = open && !composite && st.books.recurrence().0 > 0;
            // The key's entry; `None` while its first sighting is computed.
            let found = if open && !sighted {
                let (id, fresh) = st.books.find_or_reserve(key, self.tick());
                if fresh {
                    drop(guard);
                    return Ok(Some(self.reserve(item, Hold::Entry(id, composite))));
                }
                Some(id)
            } else if let Some(id) = st.books.lookup(&key) {
                Some(id)
            } else if !open {
                LimaStats::bump(&self.stats.governor_admission_rejects);
                return Ok(None);
            } else {
                let placeholder = match st.books.sight(&key) {
                    Sighting::First(sightings) => {
                        drop(guard);
                        return Ok(Some(self.reserve(item, Hold::Sighting(sightings, key))));
                    }
                    // An entry's, as before sightings.
                    Sighting::Busy => Some(st.books.find_or_reserve(key, self.tick()).0),
                    // A ghost's key: its placeholder stands where its shell would.
                    Sighting::Again => Some(st.books.reserve_again(key, self.tick())),
                    Sighting::Pending => None,
                };
                if let Some(id) = placeholder {
                    drop(guard);
                    return Ok(Some(self.reserve(item, Hold::Entry(id, composite))));
                }
                None
            };
            if let Some(id) = found {
                let now = self.tick();
                let Some(e) = st.books.get(id) else {
                    return Ok(None); // the key map never names a vacant slot
                };
                match &e.state {
                    EntryState::Cached(v) => {
                        let (value, from_persist) = (v.clone(), e.from_persist);
                        let outputs = e.outputs.clone();
                        st.books.touch(id, |e| {
                            e.hits += 1;
                            e.last_access = now;
                        });
                        st.books.seen_again(id);
                        let credit = hit_credit(&mut st.books, id);
                        drop(guard);
                        self.count_hit(item, credit, from_persist);
                        return Ok(Some(Probe::Hit(value, outputs)));
                    }
                    EntryState::Spilled { .. } => {
                        st.books.seen_again(id);
                        let (relocked, restored) = self.restore(guard, id);
                        guard = relocked;
                        let Some(value) = restored else {
                            // Degraded to a miss: wake those who waited on
                            // the restore; the next turn reserves.
                            if guard.waiters > 0 {
                                self.cond.notify_all();
                            }
                            continue;
                        };
                        let (from_persist, outputs) = match guard.books.get(id) {
                            Some(e) => (e.from_persist, e.outputs.clone()),
                            None => (false, None),
                        };
                        let credit = hit_credit(&mut guard.books, id);
                        self.unlock_and_wake(guard);
                        self.count_hit(item, credit, from_persist);
                        return Ok(Some(Probe::Hit(value, outputs)));
                    }
                    // Waiting is wanting the value: the holder books it.
                    EntryState::Computing => st.books.seen_again(id),
                    EntryState::Evicted => {
                        // Evicted shell: misses raise the entry's future
                        // score, and the value computed now is booked.
                        st.books.update(id, |e| {
                            e.misses += 1;
                            e.last_access = now;
                            if open {
                                e.state = EntryState::Computing;
                            }
                        });
                        st.books.seen_again(id);
                        if !open {
                            LimaStats::bump(&self.stats.governor_admission_rejects);
                            return Ok(None);
                        }
                        drop(guard);
                        return Ok(Some(self.reserve(item, Hold::Entry(id, composite))));
                    }
                }
            }
            // A placeholder: its holder books the value a probe waits for.
            if !counted_wait {
                LimaStats::bump(&self.stats.placeholder_waits);
                counted_wait = true;
            }
            if let Some(intr) = interrupt {
                intr.check()?;
            }
            let timeout = Duration::from_millis(self.config.placeholder_timeout_ms);
            let deadline = (!timeout.is_zero())
                .then(|| *wait_deadline.get_or_insert_with(|| Instant::now() + timeout));
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            // With an interrupt armed, wait in short slices so a cancelled or
            // expired session stops blocking promptly even when no notify
            // ever arrives for this placeholder.
            let slice = match (interrupt.is_some(), remaining) {
                (true, Some(r)) => Some(r.min(INTERRUPT_WAIT_SLICE)),
                (true, None) => Some(INTERRUPT_WAIT_SLICE),
                (false, r) => r,
            };
            guard.waiters += 1;
            if let Some(d) = slice {
                let _ = self.cond.wait_for(&mut guard, d);
            } else {
                self.cond.wait(&mut guard);
            }
            guard.waiters -= 1;
            if let Some(intr) = interrupt {
                intr.check()?;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Still computing: the holder is presumed dead, its placeholder
                // a shell or ghost the next turn takes over (should it fulfil
                // after all, its value replaces the takeover's: benign).
                let books = &mut guard.books;
                let dead = match found {
                    Some(id) => books.update(id, |e| {
                        let computing = e.is_computing();
                        if computing {
                            e.state = EntryState::Evicted;
                        }
                        computing
                    }),
                    None => {
                        let key = LinKey(item.clone());
                        let computing = books.settle(&key, None).is_some();
                        if computing {
                            books.ghost(&key);
                        }
                        Some(computing)
                    }
                };
                if dead == Some(true) {
                    LimaStats::bump(&self.stats.placeholder_timeouts);
                }
                wait_deadline = None; // for a later placeholder of this probe
            }
        }
    }

    /// Brings the spilled entry `id` back into memory — the one restore
    /// path, shared by [`Self::acquire`] and [`Self::peek`]. The file is read
    /// outside the lock under a placeholder, so concurrent probes wait
    /// instead of double-reading it, and the measured read time feeds the
    /// I/O model. On success the entry is resident again with the hit booked
    /// and the budget re-enforced. On failure (missing, corrupt or
    /// unreadable file) it is a shell with a miss booked, so the caller
    /// degrades to a miss and the value is recomputed; a durable copy that
    /// failed is un-mapped, so the recomputed value persists again. Returns
    /// the re-taken lock; `None` also when `id` is not spilled (any more).
    fn restore<'a>(
        &'a self,
        mut guard: MutexGuard<'a, CacheState>,
        id: EntryId,
    ) -> (MutexGuard<'a, CacheState>, Option<Value>) {
        let Some(EntryState::Spilled { copy, bytes }) =
            guard.books.get(id).map(|e| e.state.clone())
        else {
            return (guard, None);
        };
        guard.books.update(id, |e| e.state = EntryState::Computing);
        drop(guard);

        let span_t0 = self.obs().map(|o| o.now_ns());
        let t0 = Instant::now();
        let restored = match (&copy, &self.spill_store, &self.persist_store) {
            (DiskCopy::Scratch(path), Some(store), _) => store.restore(path),
            (DiskCopy::Durable(pid), _, Some(store)) => store.read(*pid),
            _ => Err(std::io::ErrorKind::NotFound.into()),
        };
        self.io.observe_read(bytes, t0.elapsed().as_nanos() as u64);

        let mut guard = self.state.lock();
        let st = &mut *guard;
        LimaStats::bump(match restored {
            Ok(_) => &self.stats.restores,
            Err(_) => &self.stats.restore_failures,
        });
        let Ok(value) = restored else {
            if let DiskCopy::Durable(pid) = copy {
                st.books.forget_durable(&[pid]);
            }
            st.books.update(id, |e| {
                e.state = EntryState::Evicted;
                e.misses += 1;
            });
            self.sync_governor(st);
            return (guard, None);
        };
        let installed = st.books.update(id, |e| {
            e.install(&value);
            e.hits += 1;
            e.last_access = self.tick();
        });
        // Entry vanished (a concurrent clear): a miss.
        if installed.is_none() {
            return (guard, None);
        }
        self.enforce_budget(st);
        if let (Some(o), Some(t0), Some(e)) = (self.obs(), span_t0, st.books.get(id)) {
            o.record_span(
                EventKind::SpillRestore,
                e.key.0.opcode(),
                e.key.0.id(),
                t0,
                bytes as u64,
                0,
            );
        }
        (guard, Some(value))
    }

    /// True when this item's output qualifies for cache interaction.
    pub fn reusable(&self, item: &LinRef) -> bool {
        self.config.reuse.any() && item.cacheable()
    }

    /// Whether full (operation-level) reuse is active.
    pub fn full_reuse(&self) -> bool {
        matches!(self.config.reuse, ReuseMode::Full | ReuseMode::Hybrid)
    }

    /// Whether partial-reuse rewrites are active. Paused by the governor at
    /// pressure level L2+ (rewrites speculatively materialize new values).
    pub fn partial_reuse(&self) -> bool {
        matches!(self.config.reuse, ReuseMode::Partial | ReuseMode::Hybrid)
            && self.rewrites_enabled()
    }

    /// Whether multilevel (function/block) caching and partial-reuse
    /// rewrites are allowed under current memory pressure (false at L2+).
    pub fn rewrites_enabled(&self) -> bool {
        let governor = self.governor.as_ref();
        governor.is_none_or(|g| g.rewrites_enabled())
    }

    /// Non-blocking lookup used by partial-reuse rewrites to fetch component
    /// values: hits count, misses on shells raise scores, placeholders are
    /// *not* created and computing entries are not waited on.
    pub fn peek(&self, item: &LinRef) -> Option<Value> {
        let mut guard = self.state.lock();
        let now = self.tick();
        let st = &mut *guard;
        let id = st.books.lookup(&LinKey(item.clone()))?;
        match &st.books.get(id)?.state {
            EntryState::Cached(v) => {
                let value = v.clone();
                let from_persist = st.books.touch(id, |e| {
                    e.hits += 1;
                    e.last_access = now;
                    e.from_persist
                });
                st.books.seen_again(id);
                if from_persist == Some(true) {
                    LimaStats::bump(&self.stats.persist_hits);
                }
                Some(value)
            }
            EntryState::Spilled { .. } => {
                st.books.seen_again(id);
                let (guard, restored) = self.restore(guard, id);
                self.unlock_and_wake(guard);
                restored
            }
            EntryState::Computing | EntryState::Evicted => {
                // Not a queue input: shells queue by `last_access` alone.
                st.books.annotate(id, |e| e.misses += 1);
                None
            }
        }
    }

    /// Directly stores a value (used by compensation plans that want their
    /// probe item cached after partial reuse, and by tests).
    pub fn put(&self, item: &LinRef, value: &Value, compute_ns: u64) {
        self.put_inner(item, true, value, compute_ns);
    }

    /// [`Self::put`] for values received from a replica peer: identical
    /// admission, but the put watcher is *not* fired, so applied records are
    /// never re-enqueued for replication (no echo loops between members).
    pub fn put_replicated(&self, item: &LinRef, value: &Value, compute_ns: u64) {
        self.put_inner(item, false, value, compute_ns);
    }

    fn put_inner(&self, item: &LinRef, watched: bool, value: &Value, compute_ns: u64) {
        if !self.reusable(item) {
            LimaStats::bump(&self.stats.rejected_puts);
            return;
        }
        self.fulfill(Admission::Put { item, watched }, value, None, compute_ns);
    }

    /// Installs (or clears) the observer of offered values. Replaces any
    /// previous watcher; recovered-at-startup entries never fire it.
    pub fn set_put_watcher(&self, watcher: Option<PutWatcher>) {
        let mut st = self.state.lock();
        self.watched.store(watcher.is_some(), Ordering::Relaxed);
        st.put_watcher = watcher;
    }

    /// True when the cache holds `item`'s value, resident or spilled.
    /// Side-effect free: no hit/miss accounting, no placeholder creation —
    /// the replication apply path uses this to skip records it already has.
    pub fn contains(&self, item: &LinRef) -> bool {
        let st = self.state.lock();
        let entry = st
            .books
            .lookup(&LinKey(item.clone()))
            .and_then(|id| st.books.get(id));
        entry.is_some_and(|e| e.is_resident() || e.is_spilled())
    }

    /// Lineage hashes of every entry this member can vouch for (resident or
    /// spilled values; composite/list values that cannot cross the wire are
    /// excluded). The anti-entropy digest and convergence checks are built
    /// from exactly this set.
    pub fn replica_hashes(&self) -> Vec<u64> {
        let st = self.state.lock();
        st.books
            .entries()
            .filter(|e| match &e.state {
                EntryState::Cached(v) => !matches!(v, Value::List(_)),
                EntryState::Spilled { .. } => true,
                _ => false,
            })
            .map(|e| e.key.0.hash_value())
            .collect()
    }

    /// Clones the resident entries whose scrambled lineage hash lands in
    /// `bucket` (of `nbuckets`), capped at `max_entries` and ~`max_bytes` of
    /// value payload. Serving side of the anti-entropy `K_REPL_PULL` op;
    /// serialization happens outside the lock.
    pub fn export_bucket(
        &self,
        bucket: u64,
        nbuckets: u64,
        max_entries: usize,
        max_bytes: usize,
    ) -> Vec<(LinRef, Value, u64)> {
        let nbuckets = nbuckets.max(1);
        let st = self.state.lock();
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for e in st.books.entries() {
            if out.len() >= max_entries || bytes >= max_bytes {
                break;
            }
            let EntryState::Cached(v) = &e.state else {
                continue;
            };
            if matches!(v, Value::List(_)) {
                continue;
            }
            if crate::faults::mix(e.key.0.hash_value()) % nbuckets != bucket {
                continue;
            }
            bytes += e.size;
            out.push((e.key.0.clone(), v.clone(), e.compute_ns));
        }
        out
    }

    /// Installs a computed value in one critical section: statistics,
    /// admission, eviction down to the budget, and the wake-up of probes
    /// blocked on the placeholder (gone for good if it left the cache).
    /// A value that fits is booked unless it is a first sighting's and not
    /// worth booking ([`IoCostModel::worth_booking`] as the counts stand):
    /// then it leaves no entry, bytes, eviction or disk write, only a ghost —
    /// without the lock if nobody waits for it and no put watcher is set.
    fn fulfill(
        &self,
        how: Admission<'_>,
        value: &Value,
        outputs: Option<OutputLineage>,
        compute_ns: u64,
    ) {
        let size = value.size_in_bytes();
        let fits = size <= self.effective_budget() && self.governor_admits(size);
        if let Admission::Reserved(Hold::Sighting(sightings, key)) = how {
            let (recurred, keys) = sightings.recurrence();
            let pays = fits && self.io.worth_booking(compute_ns, recurred, keys);
            if !pays && !self.watched.load(Ordering::Relaxed) && sightings.release(key) {
                LimaStats::bump(&self.stats.rejected_puts);
                self.record_fulfill(&key.0, compute_ns, false);
                return;
            }
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let now = self.tick();
        let (recurred, keys) = st.books.recurrence();
        let pays = fits && self.io.worth_booking(compute_ns, recurred, keys);
        let (verdict, composite, watched) = match how {
            Admission::Reserved(&Hold::Entry(id, composite)) => {
                let verdict = match st.books.get(id).map(|e| !composite && !e.seen_again) {
                    None => Verdict::Stale,
                    Some(true) if fits && !pays => Verdict::Refuse(st.books.refuse(id)),
                    Some(_) => Verdict::Entry(id),
                };
                (verdict, composite, true)
            }
            Admission::Put { item, watched } => {
                let (id, _) = st.books.find_or_reserve(LinKey(item.clone()), now);
                (Verdict::Entry(id), is_composite(item.opcode()), watched)
            }
            Admission::Reserved(Hold::Sighting(t, key)) => match st.books.settle(key, Some(t)) {
                None => (Verdict::Stale, false, true),
                Some(waited) if fits && (waited || pays) => {
                    let (id, _) = st.books.find_or_reserve(key.clone(), now);
                    if waited {
                        st.books.seen_again(id);
                    }
                    (Verdict::Entry(id), false, true)
                }
                Some(_) => {
                    st.books.ghost(key);
                    (Verdict::Refuse(Some(key.clone())), false, true)
                }
            },
        };
        let children = match (how, &verdict) {
            (Admission::Reserved(&Hold::Entry(id, _)), _) | (_, &Verdict::Entry(id)) => {
                self.close_frame(id, composite, true)
            }
            _ => Vec::new(),
        };
        let watcher = st.put_watcher.as_ref().filter(|_| fits && watched).cloned();
        // The lineage is copied out of the entry only for whoever reads it
        // once the lock is gone: an observer, the watcher, the durable store.
        let wants_key = watcher.is_some() || self.obs().is_some() || self.persist_store.is_some();
        let admitted = fits && matches!(verdict, Verdict::Entry(_));
        let (key, persist) = match verdict {
            Verdict::Stale => return self.unlock_and_wake(guard),
            Verdict::Refuse(key) => {
                LimaStats::bump(&self.stats.rejected_puts);
                (key.filter(|_| wants_key), None)
            }
            Verdict::Entry(id) => {
                // What a booking costs is measured on each one made: install
                // plus the evictions it forces.
                let booking = fits.then(Instant::now);
                let booked = st.books.update(id, |e| {
                    // An entry that already holds a value (a put on a
                    // resident key, a replicated put racing a local one, a
                    // late fulfiller after a placeholder takeover) has it
                    // replaced: `update` takes the old value out of the byte
                    // counts, and its scratch spill file goes with it.
                    self.discard_scratch(&e.state);
                    e.compute_ns = e.compute_ns.max(compute_ns);
                    e.last_access = now;
                    e.outputs = outputs;
                    for c in children {
                        if !e.children.contains(&c) {
                            e.children.push(c);
                        }
                    }
                    if fits {
                        e.install(value);
                    } else {
                        e.state = EntryState::Evicted;
                        e.size = 0;
                    }
                    (e.persist_id.is_none(), wants_key.then(|| e.key.clone()))
                });
                if let Some(t0) = booking {
                    LimaStats::bump(&self.stats.puts);
                    self.enforce_budget(st);
                    self.io.observe_booking(t0.elapsed().as_nanos() as u64);
                } else {
                    LimaStats::bump(&self.stats.rejected_puts);
                    self.prune_shells(st);
                }
                let (unpersisted, key) = booked.unwrap_or((false, None));
                (key, (fits && unpersisted).then_some(id))
            }
        };
        self.sync_governor(st);
        self.unlock_and_wake(guard);
        let Some(key) = key else {
            return;
        };
        self.record_fulfill(&key.0, compute_ns, admitted);
        if let Some(id) = persist {
            self.persist_entry(id, &key, value, compute_ns);
        }
        if let Some(w) = watcher {
            w(&key.0, value, compute_ns);
        }
    }

    /// Records a fulfil for an observer: `admitted` when the value was booked.
    fn record_fulfill(&self, key: &LinRef, ns: u64, admitted: bool) {
        if let Some(o) = self.obs() {
            o.record_instant(
                EventKind::CacheFulfill,
                key.opcode(),
                key.id(),
                ns,
                admitted.into(),
            );
        }
    }

    /// Deletes the scratch spill file of a value that is being replaced or
    /// dropped (a durable copy is the persistent store's to keep).
    fn discard_scratch(&self, state: &EntryState) {
        let (EntryState::Spilled { copy, .. }, Some(store)) = (state, &self.spill_store) else {
            return;
        };
        if let DiskCopy::Scratch(path) = copy {
            store.discard(path);
        }
    }

    /// Asks the governor (if any) to account a new entry of `bytes`: false
    /// when admissions are paused (L3+) or the allocation attempt failed
    /// (injected `AllocFail` / synthetic pressure).
    fn governor_admits(&self, bytes: usize) -> bool {
        let Some(g) = &self.governor else { return true };
        if !g.admissions_enabled() {
            LimaStats::bump(&self.stats.governor_admission_rejects);
            return false;
        }
        g.try_alloc(bytes)
    }

    /// Durably writes a freshly fulfilled entry to the persistent store (when
    /// configured). Runs outside the cache lock: the disk write must not block
    /// concurrent probes. Failures leave the entry memory-only and feed the
    /// persistence circuit breaker.
    fn persist_entry(&self, id: EntryId, key: &LinKey, value: &Value, compute_ns: u64) {
        // Multi-level entries alias values cached at operation level and
        // cannot be reconstructed from their lineage; persist only entries
        // whose recovery invariant (reconstruct == cached value) is checkable.
        let Some(store) = &self.persist_store else {
            return;
        };
        if !store.usable() || is_composite(key.0.opcode()) {
            return;
        }
        match self.persist_breaker.allow() {
            Attempt::Rejected => return,
            Attempt::Probe => LimaStats::bump(&self.stats.breaker_probes),
            Attempt::Allowed => {}
        }
        // Transient I/O errors get bounded jittered-backoff retries before
        // they count against the breaker; injected crash points latch
        // `crashed()` and are never retried.
        let policy = RetryPolicy::new(PERSIST_RETRY_ATTEMPTS, PERSIST_RETRY_BASE_MS, self.tick());
        let persist_t0 = self.obs().map(|o| o.now_ns());
        let (result, retries) = policy.run(
            |_| store.usable(),
            || store.persist(&key.0, value, compute_ns),
        );
        if retries > 0 {
            LimaStats::add(&self.stats.persist_retries, u64::from(retries));
        }
        match result {
            Ok(Some(outcome)) => {
                self.persist_breaker.record_success();
                LimaStats::bump(&self.stats.persist_writes);
                LimaStats::add(&self.stats.persist_bytes, outcome.bytes);
                LimaStats::add(
                    &self.stats.persist_tombstones,
                    outcome.evicted_ids.len() as u64,
                );
                if let (Some(o), Some(t0)) = (self.obs(), persist_t0) {
                    o.record_span(
                        EventKind::PersistWrite,
                        key.0.opcode(),
                        key.0.id(),
                        t0,
                        outcome.bytes,
                        0,
                    );
                }
                let mut st = self.state.lock();
                st.books.set_durable(id, Some(outcome.id));
                // Files tombstoned to fit the disk budget are gone: their
                // entries must persist again once recomputed.
                st.books.forget_durable(&outcome.evicted_ids);
            }
            Ok(None) => {} // value kind not persisted (lists)
            Err(_) => {
                LimaStats::bump(&self.stats.persist_failures);
                // A write failure that latched the store into degraded mode
                // (ENOSPC / failed fsync) is counted once: the cache is now
                // memory-only with a typed reason.
                if store.degrade_reason().is_some()
                    && !self.disk_full_noted.swap(true, Ordering::Relaxed)
                {
                    LimaStats::bump(&self.stats.persist_disk_full);
                }
                self.persist_breaker.record_failure();
            }
        }
        self.drain_compaction_counters();
    }

    /// True when a durable store backs this cache and is still writable
    /// (i.e. the configured persist directory opened successfully, no crash
    /// point has latched, and no write failure degraded it). `false` under a
    /// persistence-enabled configuration means the cache degraded to
    /// memory-only.
    pub fn persist_active(&self) -> bool {
        self.persist_store.as_ref().is_some_and(|s| s.usable())
    }

    /// Rewrites the persistent manifest WAL into a fresh generation,
    /// reclaiming tombstone and superseded-put space. Returns `None` without
    /// a usable store (or when the compaction itself failed — the store then
    /// reports why via [`LineageCache::persist_active`]).
    pub fn compact_persist(&self) -> Option<persist::CompactOutcome> {
        let store = self.persist_store.as_ref()?;
        let out = store.compact().ok();
        self.drain_compaction_counters();
        out
    }

    /// One cooperative step of the background integrity scrubber: re-verifies
    /// up to `max_bytes` of persisted value files (0 = the rest of the pass),
    /// and, when a pass completes, the WAL's own framing. Corruption is
    /// repaired from lineage where a repair hook is configured, otherwise the
    /// entry is tombstoned and moved to `quarantine/`.
    ///
    /// The scrubber is the lowest-priority disk consumer: at governor
    /// pressure L2+ (the same rung that pauses partial-reuse rewrites) the
    /// step performs no I/O, bumps `scrub_pauses`, and returns `None` until
    /// pressure recovers to L1 or below.
    pub fn scrub_step(&self, max_bytes: u64) -> Option<persist::ScrubOutcome> {
        let store = self.persist_store.as_ref()?;
        if !store.usable() {
            return None;
        }
        if let Some(g) = &self.governor {
            if !g.rewrites_enabled() {
                LimaStats::bump(&self.stats.scrub_pauses);
                return None;
            }
        }
        let out = store.scrub_chunk(max_bytes).ok()?;
        LimaStats::add(&self.stats.scrub_bytes, out.bytes);
        LimaStats::add(&self.stats.scrub_entries, out.entries);
        LimaStats::add(&self.stats.scrub_corruptions, out.corrupt);
        LimaStats::add(&self.stats.persist_repairs, out.repaired);
        LimaStats::add(&self.stats.persist_repair_failures, out.repair_failures);
        LimaStats::add(&self.stats.scrub_quarantined, out.quarantined);
        if out.wrapped {
            LimaStats::bump(&self.stats.scrub_passes);
        }
        if !out.quarantined_ids.is_empty() {
            self.state.lock().books.forget_durable(&out.quarantined_ids);
        }
        self.drain_compaction_counters();
        Some(out)
    }

    /// Folds the store's compaction counters (auto- or explicit) into stats.
    fn drain_compaction_counters(&self) {
        if let Some(store) = &self.persist_store {
            let (n, reclaimed) = store.take_compaction_counters();
            LimaStats::add(&self.stats.persist_compactions, n);
            LimaStats::add(&self.stats.persist_compact_reclaimed, reclaimed);
        }
    }

    /// Abandons a placeholder: an entry's becomes a shell, a first sighting's
    /// a ghost (without the lock if nobody waits on it).
    fn abort(&self, hold: &Hold) {
        let guard = match hold {
            Hold::Entry(id, composite) => {
                self.close_frame(*id, *composite, false);
                let mut guard = self.state.lock();
                if guard.books.get(*id).is_some_and(CacheEntry::is_computing) {
                    guard.books.update(*id, |e| e.state = EntryState::Evicted);
                }
                guard
            }
            Hold::Sighting(sightings, key) => {
                if sightings.release(key) {
                    return;
                }
                let mut guard = self.state.lock();
                if guard.books.settle(key, Some(sightings)).is_some() {
                    guard.books.ghost(key);
                }
                guard
            }
        };
        self.unlock_and_wake(guard);
    }

    /// Evicts (spill or delete) the lowest-scoring resident entry under the
    /// active policy (paper Table 1), one at a time, until the resident size
    /// fits the budget. Each victim comes off the head of the eviction index
    /// in O(log n), with no hash lookup.
    fn enforce_budget(&self, st: &mut CacheState) {
        let budget = self.effective_budget();
        while st.books.resident_bytes() > budget {
            if !st.books.update_victim(|e, sharing| self.evict(e, sharing)) {
                break; // nothing resident after all: never spin under the lock
            }
        }
        self.prune_shells(st);
        self.sync_governor(st);
    }

    /// Takes the victim's value out of memory: left to its one on-disk copy
    /// when restoring that pays off (the durable file if the entry has one,
    /// else a scratch spill file written now), otherwise dropped, leaving a
    /// shell. `sharing` is how many resident entries cache this same object.
    fn evict(&self, e: &mut CacheEntry, sharing: usize) {
        let EntryState::Cached(value) = &e.state else {
            return;
        };
        // Entries caching the same object defer spilling until the last of
        // the group leaves (paper §4.3). At governor level L3+ eviction
        // degrades to delete-only: spill files are themselves governed
        // memory/disk pressure.
        let on_disk = if sharing <= 1 && self.admissions_open() {
            self.try_spill(e, value)
        } else {
            None
        };
        // `spills` counts scratch writes; everything else left memory
        // without one.
        if !matches!(on_disk, Some((DiskCopy::Scratch(_), _))) {
            LimaStats::bump(&self.stats.evictions);
        }
        e.state = match on_disk {
            Some((copy, bytes)) => EntryState::Spilled { copy, bytes },
            None => EntryState::Evicted,
        };
        e.size = 0;
    }

    /// Decides whether an eviction victim keeps an on-disk copy: spilling is
    /// on, the value is a matrix, and recomputing it would cost more than
    /// reading it back. A victim the persistent store already holds is left
    /// to that file and nothing is written — a value has at most one on-disk
    /// copy; any other is written to the spill store when the spill circuit
    /// breaker lets the write through.
    fn try_spill(&self, e: &CacheEntry, value: &Value) -> Option<(DiskCopy, usize)> {
        let store = self.spill_store.as_ref()?;
        if !matches!(value, Value::Matrix(_)) || !self.io.worth_spilling(e.size, e.compute_ns) {
            return None;
        }
        if let Some(id) = e.persist_id {
            return Some((DiskCopy::Durable(id), e.size));
        }
        match self.spill_breaker.allow() {
            Attempt::Rejected => return None,
            Attempt::Probe => LimaStats::bump(&self.stats.breaker_probes),
            Attempt::Allowed => {}
        }
        let t0 = Instant::now();
        let spill_t0 = self.obs().map(|o| o.now_ns());
        match store.spill(value) {
            Ok(Some((path, bytes))) => {
                self.spill_breaker.record_success();
                self.io.observe_write(bytes, t0.elapsed().as_nanos() as u64);
                LimaStats::bump(&self.stats.spills);
                LimaStats::add(&self.stats.spill_bytes, bytes as u64);
                if let (Some(o), Some(ot0)) = (self.obs(), spill_t0) {
                    let key = &e.key.0;
                    o.record_span(
                        EventKind::SpillWrite,
                        key.opcode(),
                        key.id(),
                        ot0,
                        bytes as u64,
                        0,
                    );
                }
                Some((DiskCopy::Scratch(path), bytes))
            }
            Ok(None) => None,
            // Write failure: fall back to delete-eviction and feed the
            // circuit breaker.
            Err(_) => {
                LimaStats::bump(&self.stats.spill_failures);
                self.spill_breaker.record_failure();
                None
            }
        }
    }

    /// Bounds bookkeeping growth: evicted shells retain reuse statistics
    /// (their misses can raise scores, Fig 8a), but are kept to at most 4×
    /// the number of other entries (and at least 4096), dropping the
    /// least-recently-accessed shells off the head of the shell queue.
    fn prune_shells(&self, st: &mut CacheState) {
        loop {
            let shells = st.books.shell_count();
            let max_shells = ((st.books.len() - shells) * 4).max(4096);
            if shells <= max_shells || !st.books.drop_oldest_shell() {
                return;
            }
        }
    }

    /// Drops every entry (tests and phase boundaries in benchmarks). With
    /// persistence enabled, each durable entry gets an eviction tombstone so
    /// a later process does not recover cleared state.
    pub fn clear(&self) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        for e in st.books.entries() {
            self.discard_scratch(&e.state);
            if let (Some(id), Some(store)) = (e.persist_id, &self.persist_store) {
                if store.tombstone(id).unwrap_or(false) {
                    LimaStats::bump(&self.stats.persist_tombstones);
                }
            }
        }
        st.books.clear();
        self.sync_governor(st);
        self.unlock_and_wake(guard);
        self.drain_compaction_counters();
    }
}

/// First-hit savings credit (the `saved_compute_ns` at-most-once rule):
/// returns the nanoseconds this hit may add to the savings counter.
///
/// An entry credits only on its first hit. A composite (function/block)
/// entry credits its measured cost minus whatever its transitive children
/// (entries computed within its window) already credited, and marks the
/// whole subtree credited so constituent hits cannot credit the same
/// nanoseconds again later. Conversely, a constituent hit before the
/// composite's first hit credits its own cost, which the composite then
/// subtracts. Must run under the cache state lock.
fn hit_credit(books: &mut Books, id: EntryId) -> u64 {
    let first_hit = books.annotate(id, |e| {
        let first = !e.credited;
        e.credited = true;
        first.then(|| (e.compute_ns, e.children.clone()))
    });
    let Some(Some((compute_ns, mut queue))) = first_hit else {
        return 0;
    };
    let mut already_credited = 0u64;
    let mut seen: std::collections::HashSet<EntryId> = std::collections::HashSet::new();
    while let Some(child) = queue.pop() {
        if !seen.insert(child) {
            continue;
        }
        books.annotate(child, |e| {
            if e.credited {
                already_credited = already_credited.saturating_add(e.credited_ns);
            }
            e.credited = true;
            queue.extend(e.children.iter().copied());
        });
    }
    let credit = compute_ns.saturating_sub(already_credited);
    books.annotate(id, |e| e.credited_ns = credit);
    credit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;
    use lima_matrix::DenseMatrix;
    use std::path::Path;

    fn cfg(budget: usize) -> LimaConfig {
        LimaConfig {
            budget_bytes: budget,
            spill: false,
            ..LimaConfig::default()
        }
    }

    fn mk_item(op: &'static str, seed: &str) -> LinRef {
        LineageItem::op(op, vec![LineageItem::op_with_data("read", seed, vec![])])
    }

    fn mat(n: usize) -> Value {
        Value::matrix(DenseMatrix::filled(n, n, 1.0))
    }

    /// A composite fulfilled with its outputs' lineage hands the same items
    /// back on every hit, a probe that waited on its placeholder included;
    /// a bare put stores none.
    #[test]
    fn composite_hits_hand_back_the_lineage_they_were_fulfilled_with() {
        let cache = LineageCache::new(cfg(1 << 20));
        let call = mk_item("fcall:f", "X");
        let body: OutputLineage = Arc::from([mk_item("tsmm", "X"), mk_item("r'", "X")]);
        let Some(Probe::Reserved(r)) = cache.acquire(&call) else {
            panic!("a new composite misses");
        };
        let c2 = Arc::clone(&cache);
        let probe = Arc::clone(&call);
        let waiter = std::thread::spawn(move || match c2.acquire(&probe) {
            Some(Probe::Hit(_, outputs)) => outputs,
            _ => panic!("the waiter must be served"),
        });
        while LimaStats::get(&cache.stats().placeholder_waits) == 0 {
            std::thread::yield_now();
        }
        let r = r.with_outputs(Some(Arc::clone(&body)));
        r.fulfill(&Value::list(vec![mat(2), mat(3)]), 1_000);
        let same = |got: Option<OutputLineage>| {
            got.is_some_and(|got| got.iter().zip(body.iter()).all(|(a, b)| Arc::ptr_eq(a, b)))
        };
        assert!(same(waiter.join().unwrap()), "the waiter's lineage");
        let Some(Probe::Hit(_, outputs)) = cache.acquire(&call) else {
            panic!("a fulfilled composite hits");
        };
        assert!(same(outputs), "a later probe's lineage");
        let put = mk_item("fcall:g", "X");
        cache.put(&put, &mat(2), 1_000);
        assert!(matches!(cache.acquire(&put), Some(Probe::Hit(_, None))));
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let v = mat(10);
        match cache.acquire(&item).unwrap() {
            Probe::Hit(..) => panic!("expected miss"),
            Probe::Reserved(r) => r.fulfill(&v, 1_000),
        }
        // Structurally equal item probes hit.
        let item2 = mk_item("ba+*", "X");
        match cache.acquire(&item2).unwrap() {
            Probe::Hit(got, _) => assert!(got.approx_eq(&v, 0.0)),
            Probe::Reserved(_) => panic!("expected hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 1);
        assert_eq!(LimaStats::get(&cache.stats().puts), 1);
    }

    #[test]
    fn non_cacheable_opcodes_bypass_the_cache() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("print", "X");
        assert!(cache.acquire(&item).is_none());
        let disabled = LineageCache::new(LimaConfig::tracing_only());
        assert!(disabled.acquire(&mk_item("ba+*", "X")).is_none());
    }

    #[test]
    fn aborted_reservations_allow_retry() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.abort(),
            _ => panic!(),
        }
        // Next probe must get a reservation again, not deadlock.
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(2), 10),
            _ => panic!("expected reservation after abort"),
        }
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(..)));
    }

    #[test]
    fn dropped_reservation_aborts() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        {
            let _r = match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r,
                _ => panic!(),
            };
            // dropped here without fulfill
        }
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn eviction_respects_budget() {
        // Budget fits roughly two of the three 100x100 matrices (80kB each).
        let cache = LineageCache::new(cfg(170_000));
        for i in 0..3 {
            let item = mk_item("ba+*", &format!("X{i}"));
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), 1_000 * (i as u64 + 1)),
                _ => panic!(),
            }
        }
        assert!(cache.resident_bytes() <= 170_000);
        assert!(LimaStats::get(&cache.stats().evictions) >= 1);
        // The cheapest entry (X0) was evicted under Cost&Size.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X0")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn oversized_values_are_rejected_not_cached() {
        let cache = LineageCache::new(cfg(1_000));
        let item = mk_item("ba+*", "big");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        // Shell remains; next probe reserves again.
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn placeholder_blocks_concurrent_probes() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let c2 = Arc::clone(&cache);
        let item2 = mk_item("ba+*", "X");
        let waiter = std::thread::spawn(move || match c2.acquire(&item2).unwrap() {
            Probe::Hit(v, _) => v,
            Probe::Reserved(_) => panic!("waiter should get the computed value"),
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        r.fulfill(&mat(4), 123);
        let got = waiter.join().unwrap();
        assert!(got.approx_eq(&mat(4), 0.0));
        assert_eq!(LimaStats::get(&cache.stats().placeholder_waits), 1);
    }

    #[test]
    fn spilled_entries_restore_on_hit() {
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        // Expensive-to-compute entry (so spilling pays off), then push it out
        // with an entry whose Cost&Size score is even higher.
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        match cache.acquire(&mk_item("ba+*", "hot")).unwrap() {
            Probe::Hit(v, _) => assert!(v.approx_eq(&mat(100), 0.0)),
            Probe::Reserved(_) => panic!("expected restore hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().restores), 1);
    }

    #[test]
    fn peek_does_not_create_placeholders() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        assert!(cache.peek(&item).is_none());
        // No placeholder was created: acquire gets a fresh reservation and
        // nobody deadlocks.
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(3), 5),
            _ => panic!(),
        }
        assert!(cache.peek(&item).is_some());
    }

    #[test]
    fn misses_on_shells_raise_costsize_score() {
        // Budget fits only one 100x100 matrix (~80kB) at a time.
        let cache = LineageCache::new(cfg(100_000));
        let a = mk_item("ba+*", "A");
        match cache.acquire(&a).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 100_000),
            _ => panic!(),
        }
        // Push A out with a more valuable entry (higher compute cost).
        let b = mk_item("ba+*", "B");
        match cache.acquire(&b).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000_000),
            _ => panic!(),
        }
        // A's shell accumulates misses...
        for _ in 0..100 {
            assert!(cache.peek(&a).is_none());
        }
        // ...so once re-cached, A survives the next budget squeeze over B.
        match cache.acquire(&a).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 100_000),
            _ => panic!(),
        }
        assert!(matches!(cache.acquire(&a).unwrap(), Probe::Hit(..)));
        assert!(matches!(cache.acquire(&b).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn aborted_reservation_wakes_all_blocked_waiters() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let t0 = Instant::now();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&cache);
                let it = mk_item("ba+*", "X");
                std::thread::spawn(move || match c.acquire(&it).unwrap() {
                    Probe::Hit(..) => "hit",
                    Probe::Reserved(r) => {
                        r.fulfill(&mat(4), 10);
                        "reserved"
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        drop(r); // implicit abort
        let outcomes: Vec<&str> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        // Exactly one waiter takes over the computation; the rest reuse it.
        assert_eq!(outcomes.iter().filter(|o| **o == "reserved").count(), 1);
        assert_eq!(outcomes.iter().filter(|o| **o == "hit").count(), 2);
        // All waiters woke well within the placeholder timeout (60 s default).
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn placeholder_timeout_converts_waiter_into_takeover() {
        let config = LimaConfig {
            placeholder_timeout_ms: 100,
            ..cfg(1 << 20)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        // Simulate a fulfiller dying without aborting: leak the reservation
        // so no notify ever arrives for this placeholder.
        std::mem::forget(r);
        let c = Arc::clone(&cache);
        let it = mk_item("ba+*", "X");
        let waiter = std::thread::spawn(move || match c.acquire(&it).unwrap() {
            Probe::Reserved(r) => {
                r.fulfill(&mat(3), 10);
                true
            }
            Probe::Hit(..) => false,
        });
        assert!(
            waiter.join().unwrap(),
            "waiter must take the placeholder over"
        );
        assert!(LimaStats::get(&cache.stats().placeholder_timeouts) >= 1);
        // The takeover's value is now served normally.
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(..)));
    }

    #[test]
    fn spill_write_failure_falls_back_to_delete_evict() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillWrite, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(inj.injected(FaultSite::SpillWrite) >= 1);
        assert!(LimaStats::get(&cache.stats().spill_failures) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().spills), 0);
        assert!(LimaStats::get(&cache.stats().evictions) >= 1);
        // The victim is a graceful miss, not an error.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "hot")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn spill_circuit_breaker_stops_attempts_after_limit() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillWrite, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        for i in 0..7 {
            let item = mk_item("ba+*", &format!("X{i}"));
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
                _ => panic!(),
            }
        }
        // Three consecutive failures opened the breaker; later evictions
        // never reached the spill store again.
        assert!(cache.spill_breaker.is_open());
        let limit = u64::from(BREAKER_FAILURES);
        assert_eq!(inj.occurrences(FaultSite::SpillWrite), limit);
        assert_eq!(LimaStats::get(&cache.stats().spill_failures), limit);
        assert!(LimaStats::get(&cache.stats().evictions) >= 5);
    }

    #[test]
    fn corrupted_spill_degrades_to_miss_and_recomputes() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillCorrupt, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            faults: Some(inj),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        // The corrupted file fails its checksum on restore: graceful miss.
        match cache.acquire(&mk_item("ba+*", "hot")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            Probe::Hit(..) => panic!("corrupt restore must not produce a value"),
        }
        assert!(LimaStats::get(&cache.stats().restore_failures) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().restores), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(5), 5),
            _ => panic!(),
        }
        assert_eq!(cache.live_entries(), 1);
        cache.clear();
        assert_eq!(cache.live_entries(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// The entry cached under `item`, as it stands.
    fn entry_of(cache: &LineageCache, item: &LinRef) -> Option<CacheEntry> {
        let st = cache.state.lock();
        let id = st.books.lookup(&LinKey(item.clone()))?;
        st.books.get(id).cloned()
    }

    /// Sum of `size` over resident entries, by scanning the slab.
    fn scanned_resident_bytes(cache: &LineageCache) -> usize {
        let st = cache.state.lock();
        st.books
            .entries()
            .filter(|e| e.is_resident())
            .map(|e| e.size)
            .sum()
    }

    /// Regression: fulfilling an entry that already held a value added the
    /// new size on top of the old one, so `resident_bytes` drifted upward
    /// with every repeated put and the cache evicted early.
    #[test]
    fn repeated_puts_on_one_key_replace_instead_of_accumulating() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        for n in [10, 20, 10] {
            cache.put(&item, &mat(n), 1_000);
            assert_eq!(cache.resident_bytes(), mat(n).size_in_bytes());
            assert_eq!(cache.resident_bytes(), scanned_resident_bytes(&cache));
            cache.verify_index().unwrap();
        }
        assert_eq!(cache.live_entries(), 1);
        assert_eq!(LimaStats::get(&cache.stats().puts), 3);
        assert_eq!(LimaStats::get(&cache.stats().evictions), 0);
        // A replicated put racing the local one lands on the same entry.
        cache.put_replicated(&mk_item("ba+*", "X"), &mat(10), 1_000);
        assert_eq!(cache.resident_bytes(), scanned_resident_bytes(&cache));
        assert_eq!(cache.live_entries(), 1);
    }

    #[test]
    fn late_fulfiller_after_takeover_replaces_the_takeover_value() {
        let config = LimaConfig {
            placeholder_timeout_ms: 20,
            ..cfg(1 << 20)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("ba+*", "X");
        let slow = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        // The second probe times out on the placeholder and takes over.
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(8), 10),
            Probe::Hit(..) => panic!("placeholder cannot hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().placeholder_timeouts), 1);
        // The presumed-dead fulfiller finishes after all.
        slow.fulfill(&mat(8), 10);
        assert_eq!(cache.resident_bytes(), mat(8).size_in_bytes());
        assert_eq!(cache.live_entries(), 1);
        cache.verify_index().unwrap();
    }

    /// A 100 kB cache in which the costly `hot` entry has just been pushed
    /// out of memory by an even costlier one; durable when `persist` names
    /// a directory.
    fn cache_with_hot_on_disk(persist: Option<&Path>) -> (Arc<LineageCache>, LinRef) {
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(match persist {
            Some(dir) => config.with_persistence(dir),
            None => config,
        });
        let hot = mk_item("ba+*", "hot");
        cache.put(&hot, &mat(100), 60_000_000_000);
        cache.put(&mk_item("ba+*", "filler"), &mat(90), 120_000_000_000);
        (cache, hot)
    }

    /// Where `item`'s evicted value lives on disk.
    fn disk_copy(cache: &LineageCache, item: &LinRef) -> DiskCopy {
        match entry_of(cache, item).map(|e| e.state) {
            Some(EntryState::Spilled { copy, .. }) => copy,
            other => panic!("expected a spilled entry, found {other:?}"),
        }
    }

    fn spill_dir_files(cache: &LineageCache) -> usize {
        let dir = cache.spill_store.as_ref().unwrap().dir();
        std::fs::read_dir(dir).unwrap().count()
    }

    #[test]
    fn put_over_a_spilled_entry_discards_the_spill_file() {
        let (cache, hot) = cache_with_hot_on_disk(None);
        assert_eq!(LimaStats::get(&cache.stats().spills), 1);
        assert!(cache.state.lock().books.spilled_bytes() > 0);
        let DiskCopy::Scratch(spill_file) = disk_copy(&cache, &hot) else {
            panic!("without persistence the copy is a scratch file");
        };
        assert!(spill_file.exists());
        // A fresh value for the spilled key supersedes the file.
        cache.put(&hot, &mat(20), 60_000_000_000);
        assert!(!spill_file.exists());
        assert_eq!(cache.state.lock().books.spilled_bytes(), 0);
        assert_eq!(cache.resident_bytes(), scanned_resident_bytes(&cache));
        assert_eq!(LimaStats::get(&cache.stats().restores), 0);
        cache.verify_index().unwrap();

        // The durable copy of an entry is the store's: a re-put leaves it.
        let dir = persist_dir("reput");
        let (cache, hot) = cache_with_hot_on_disk(Some(&dir));
        let DiskCopy::Durable(id) = disk_copy(&cache, &hot) else {
            panic!("a persisted entry is left to its durable file");
        };
        let value_file = dir.join("values").join(format!("v{id}.val"));
        cache.put(&hot, &mat(20), 60_000_000_000);
        assert!(value_file.exists());
        assert_eq!(cache.resident_bytes(), scanned_resident_bytes(&cache));
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 2);
        cache.verify_index().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_entries_are_never_spilled_and_restore_from_their_value_file() {
        let dir = persist_dir("onecopy");
        let (cache, hot) = cache_with_hot_on_disk(Some(&dir));
        // Evicting the durable entry wrote nothing.
        let DiskCopy::Durable(id) = disk_copy(&cache, &hot) else {
            panic!("a persisted entry is left to its durable file");
        };
        assert_eq!(LimaStats::get(&cache.stats().spills), 0);
        assert_eq!(LimaStats::get(&cache.stats().spill_bytes), 0);
        assert_eq!(LimaStats::get(&cache.stats().evictions), 1);
        assert_eq!(spill_dir_files(&cache), 0);
        assert_eq!(cache.state.lock().books.spilled_bytes(), 0);
        assert_eq!(cache.live_entries(), 2);
        cache.verify_index().unwrap();
        // A hit reads `values/v<id>.val` and leaves it in place.
        let value_file = dir.join("values").join(format!("v{id}.val"));
        match cache.acquire(&hot).unwrap() {
            Probe::Hit(v, _) => assert!(v.approx_eq(&mat(100), 0.0)),
            Probe::Reserved(_) => panic!("expected a restore hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().restores), 1);
        assert!(value_file.exists());
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 2);
        cache.verify_index().unwrap();
        drop(cache);

        // The same after a restart: recovery reads both values, evicts down
        // to the budget, and the overflow stays where it already is.
        let cache = LineageCache::new(LimaConfig {
            budget_bytes: 100_000,
            ..LimaConfig::default().with_persistence(&dir)
        });
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 2);
        assert_eq!(cache.live_entries(), 2);
        assert_eq!(LimaStats::get(&cache.stats().spills), 0);
        assert_eq!(spill_dir_files(&cache), 0);
        for (tag, n) in [("hot", 100), ("filler", 90)] {
            match cache.acquire(&mk_item("ba+*", tag)).unwrap() {
                Probe::Hit(v, _) => assert!(v.approx_eq(&mat(n), 0.0)),
                Probe::Reserved(_) => panic!("{tag} must hit after the restart"),
            }
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_hits), 2);
        assert!(LimaStats::get(&cache.stats().restores) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 0);
        assert!(value_file.exists());
        cache.verify_index().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lost_or_damaged_durable_copy_degrades_to_a_miss_and_persists_again() {
        for damage in ["deleted", "bit-flipped", "quarantined"] {
            let dir = persist_dir(damage);
            let (cache, hot) = cache_with_hot_on_disk(Some(&dir));
            let DiskCopy::Durable(id) = disk_copy(&cache, &hot) else {
                panic!("a persisted entry is left to its durable file");
            };
            let value_file = dir.join("values").join(format!("v{id}.val"));
            if damage == "deleted" {
                std::fs::remove_file(&value_file).unwrap();
            } else {
                spill::corrupt_file(&value_file, 7).unwrap();
            }
            // A scrub pass that finds the damage first un-maps the entry, so
            // the probe below never attempts the read.
            let failed_reads = if damage == "quarantined" {
                assert_eq!(cache.scrub_step(0).unwrap().quarantined_ids, vec![id]);
                assert_eq!(cache.live_entries(), 1);
                0
            } else {
                1
            };
            match cache.acquire(&hot).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
                Probe::Hit(..) => panic!("{damage}: a lost copy must not produce a value"),
            }
            assert_eq!(
                LimaStats::get(&cache.stats().restore_failures),
                failed_reads
            );
            assert_eq!(LimaStats::get(&cache.stats().restores), 0);
            // The recomputed value went to disk again, under a new id.
            assert_eq!(LimaStats::get(&cache.stats().persist_writes), 3);
            let new_id = entry_of(&cache, &hot).and_then(|e| e.persist_id);
            assert!(new_id.is_some_and(|n| n != id), "{damage}: {new_id:?}");
            cache.verify_index().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn shells_are_pruned_oldest_first_past_the_cap() {
        // Every put is rejected (larger than the budget), leaving a shell.
        let cache = LineageCache::new(cfg(64));
        let first = mk_item("ba+*", "s0");
        for i in 0..4_200 {
            cache.put(&mk_item("ba+*", &format!("s{i}")), &mat(4), 10);
        }
        let st = cache.state.lock();
        assert_eq!(st.books.shell_count(), 4_096);
        assert_eq!(st.books.len(), 4_096);
        assert!(st.books.lookup(&LinKey(first)).is_none());
        assert!(st.books.lookup(&LinKey(mk_item("ba+*", "s4199"))).is_some());
        st.books.verify().unwrap();
    }

    #[test]
    fn counters_answer_live_entries_and_debug_without_a_scan() {
        let cache = LineageCache::new(cfg(170_000));
        for i in 0..3 {
            cache.put(
                &mk_item("ba+*", &format!("X{i}")),
                &mat(100),
                1_000 * (i + 1),
            );
        }
        // Two fit; the third put evicted the cheapest to a shell.
        assert_eq!(cache.live_entries(), 2);
        let shown = format!("{cache:?}");
        assert!(shown.contains("entries: 3"), "{shown}");
        assert!(shown.contains("live: 2"), "{shown}");
        assert!(shown.contains(&format!("resident_bytes: {}", cache.resident_bytes())));
        cache.verify_index().unwrap();
    }

    #[test]
    fn no_notify_is_needed_when_nobody_waits_and_waiters_are_counted() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        assert_eq!(cache.state.lock().waiters, 0);
        let c2 = Arc::clone(&cache);
        let it = mk_item("ba+*", "X");
        let waiter = std::thread::spawn(move || matches!(c2.acquire(&it), Some(Probe::Hit(..))));
        // The waiter registers under the lock before it parks.
        while cache.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        r.fulfill(&mat(4), 10);
        assert!(waiter.join().unwrap());
        assert_eq!(cache.state.lock().waiters, 0);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("lima-cache-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn warm_restart_recovers_entries_and_counts_persist_hits() {
        let dir = persist_dir("warm");
        let mkcfg = || LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        };
        let v = mat(6);
        {
            // "First process": compute and durably persist one entry.
            let cache = LineageCache::new(mkcfg());
            match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
                Probe::Reserved(r) => r.fulfill(&v, 7_000),
                Probe::Hit(..) => panic!("fresh cache"),
            }
            assert_eq!(LimaStats::get(&cache.stats().persist_writes), 1);
            assert!(LimaStats::get(&cache.stats().persist_bytes) > 0);
        }
        // "Second process": recovery repopulates the entry; the first probe
        // hits without any fulfil in this lifetime.
        let cache = LineageCache::new(mkcfg());
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 1);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Hit(got, _) => {
                assert!(got.approx_eq(&v, 0.0));
            }
            Probe::Reserved(_) => panic!("expected warm-restart hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_hits), 1);
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 1);
        // The recovered entry keeps its persist ID: no duplicate durable
        // write when it is fulfilled again after an eviction.
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_tombstones_persisted_entries() {
        let dir = persist_dir("clear");
        let mkcfg = || LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        };
        {
            let cache = LineageCache::new(mkcfg());
            match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
            cache.clear();
            assert_eq!(LimaStats::get(&cache.stats().persist_tombstones), 1);
        }
        let cache = LineageCache::new(mkcfg());
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 0);
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X")).unwrap(),
            Probe::Reserved(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multilevel_entries_are_not_persisted() {
        let dir = persist_dir("ml");
        {
            let cache = LineageCache::new(LimaConfig {
                spill: false,
                ..LimaConfig::lima().with_persistence(&dir)
            });
            let item = LineageItem::op_with_data(
                format!("{}f", crate::opcodes::FCALL),
                "args",
                vec![mk_item("ba+*", "X")],
            );
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
            assert_eq!(LimaStats::get(&cache.stats().persist_writes), 0);
        }
        let cache = LineageCache::new(LimaConfig::lima().with_persistence(&dir));
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn governor_pressure_walks_ladder_and_gates_cache_admissions() {
        use crate::governor::PressureLevel;
        // Governor budget far below the cache budget: resident bytes alone
        // drive the ladder (mat(100) ≈ 80 kB).
        let cache = LineageCache::new(cfg(1 << 20).with_governor(100_000));
        let g = cache.governor().unwrap();
        assert_eq!(g.level(), PressureLevel::Normal);
        assert!(cache.partial_reuse() && cache.rewrites_enabled());

        match cache.acquire(&mk_item("ba+*", "A")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        // 80 kB / 100 kB = 0.80 → L2: rewrites paused, admissions still open.
        assert_eq!(g.level(), PressureLevel::NoRewrites);
        assert!(!cache.partial_reuse());
        assert!(!cache.rewrites_enabled());

        match cache.acquire(&mk_item("ba+*", "B")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(50), 1_000),
            _ => panic!(),
        }
        // 100 kB / 100 kB → L4; misses no longer create placeholders.
        assert_eq!(g.level(), PressureLevel::RejectSessions);
        assert!(cache.acquire(&mk_item("ba+*", "C")).is_none());
        assert!(LimaStats::get(&cache.stats().governor_admission_rejects) >= 1);
        // Existing entries still serve hits at L3+.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "A")).unwrap(),
            Probe::Hit(..)
        ));
        // Pressure release re-arms every level and counts the recoveries.
        cache.clear();
        assert_eq!(g.level(), PressureLevel::Normal);
        assert_eq!(LimaStats::get(&cache.stats().governor_degrades), 4);
        assert_eq!(LimaStats::get(&cache.stats().governor_recovers), 4);
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "C")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn scrubber_yields_under_pressure_and_resumes_after_recovery() {
        use crate::governor::PressureLevel;
        let dir = persist_dir("scrubpause");
        let cache = LineageCache::new(LimaConfig {
            spill: false,
            ..LimaConfig::lima()
                .with_persistence(&dir)
                .with_governor(100_000)
        });
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(10), 1_000),
            _ => panic!(),
        }
        // Baseline: scrubbing progresses at L0/L1.
        assert!(cache.scrub_step(0).is_some());
        let bytes_before = LimaStats::get(&cache.stats().scrub_bytes);
        assert!(bytes_before > 0);
        // Drive the governor to L2 (mat(100) ≈ 80 kB of the 100 kB budget).
        match cache.acquire(&mk_item("ba+*", "P")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        assert_eq!(cache.governor().unwrap().level(), PressureLevel::NoRewrites);
        // Scrub I/O pauses: no scrub_bytes progress until pressure recovers.
        for _ in 0..3 {
            assert!(cache.scrub_step(0).is_none());
        }
        assert_eq!(LimaStats::get(&cache.stats().scrub_bytes), bytes_before);
        assert_eq!(LimaStats::get(&cache.stats().scrub_pauses), 3);
        // Pressure release to ≤L1 resumes scrubbing.
        cache.clear();
        assert_eq!(cache.governor().unwrap().level(), PressureLevel::Normal);
        assert!(cache.scrub_step(0).is_some());
        assert!(LimaStats::get(&cache.stats().scrub_bytes) > bytes_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_step_repairs_corruption_via_config_hook() {
        let dir = persist_dir("scrubhook");
        let good = mat(6);
        let hook_v = good.clone();
        let config = LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        }
        .with_repair(persist::RepairHook::new(move |_root| Ok(hook_v.clone())));
        let cache = LineageCache::new(config);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&good, 1_000),
            _ => panic!(),
        }
        // Bit-flip the persisted value file.
        let victim = std::fs::read_dir(dir.join("values"))
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".val"))
            .unwrap()
            .path();
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&victim, &raw).unwrap();
        let out = cache.scrub_step(0).unwrap();
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.repaired, 1);
        assert_eq!(out.quarantined, 0);
        assert_eq!(LimaStats::get(&cache.stats().persist_repairs), 1);
        assert_eq!(LimaStats::get(&cache.stats().scrub_corruptions), 1);
        assert_eq!(LimaStats::get(&cache.stats().persist_repair_failures), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_full_degrades_cache_to_memory_only_and_counts_once() {
        use crate::faults::{FaultInjector, FaultSite};
        let dir = persist_dir("diskfull");
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::DiskFull, 1));
        let config = LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        }
        .with_faults(inj);
        let cache = LineageCache::new(config);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 100),
            _ => panic!(),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_disk_full), 1);
        assert!(!cache.persist_active());
        assert_eq!(
            cache
                .persist_store
                .as_ref()
                .and_then(|s| s.degrade_reason()),
            Some(persist::DegradeReason::DiskFull)
        );
        // The cache keeps serving from memory, and the degrade is counted
        // exactly once even as later fulfills skip persistence.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X")).unwrap(),
            Probe::Hit(..)
        ));
        match cache.acquire(&mk_item("ba+*", "Y")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 100),
            _ => panic!(),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_disk_full), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_persist_reclaims_cleared_entries() {
        let dir = persist_dir("compactcache");
        let cache = LineageCache::new(LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        });
        for s in ["A", "B", "C"] {
            match cache.acquire(&mk_item("ba+*", s)).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
        }
        cache.clear(); // tombstones all three durable entries
        let out = cache.compact_persist().unwrap();
        assert!(out.wal_bytes_after < out.wal_bytes_before);
        assert!(LimaStats::get(&cache.stats().persist_compactions) >= 1);
        assert!(LimaStats::get(&cache.stats().persist_compact_reclaimed) > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_waiter_unblocks_long_before_placeholder_timeout() {
        use crate::interrupt::{CancelToken, Interrupt, InterruptKind};
        let config = LimaConfig {
            placeholder_timeout_ms: 60_000,
            ..cfg(1 << 20)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let token = CancelToken::new();
        let intr = Interrupt {
            token: Some(Arc::clone(&token)),
            deadline: None,
        };
        let c = Arc::clone(&cache);
        let it = mk_item("ba+*", "X");
        let t0 = Instant::now();
        let waiter = std::thread::spawn(move || c.acquire_interruptible(&it, Some(&intr)).err());
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        assert_eq!(waiter.join().unwrap(), Some(InterruptKind::Cancelled));
        // Recovered in ~one wait slice, not the 60 s placeholder timeout.
        assert!(t0.elapsed() < Duration::from_secs(5));
        // The placeholder is still owned by `r`; fulfilling works normally.
        r.fulfill(&mat(3), 10);
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(..)));
    }

    #[test]
    fn expired_deadline_fails_probe_instead_of_blocking() {
        use crate::interrupt::{Interrupt, InterruptKind};
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let _r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let intr = Interrupt {
            token: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        assert_eq!(
            cache.acquire_interruptible(&item, Some(&intr)).err(),
            Some(InterruptKind::DeadlineExceeded)
        );
    }

    #[test]
    fn spill_breaker_half_opens_and_recovers_after_cooldown() {
        use crate::faults::{FaultInjector, FaultSite};
        // The first three spill writes fail, which opens the breaker.
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::SpillWrite, &[0, 1, 2]));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let mut cache = LineageCache::new(config);
        // The cache's own breaker limit with a 50 ms cooldown, so the test
        // need not wait out the 5 s one.
        Arc::get_mut(&mut cache).expect("sole owner").spill_breaker =
            CircuitBreaker::new(BREAKER_FAILURES, 50);
        let fill = |tag: &str, ns: u64| {
            let item = mk_item("ba+*", tag);
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), ns),
                _ => panic!("fresh key"),
            }
        };
        // Exactly one entry overflows per fill, so the fourth overflow is the
        // post-cooldown probe.
        fill("a", 60_000_000_000);
        fill("b", 120_000_000_000); // evicts "a" → injected failure
        fill("c", 240_000_000_000); // evicts "b" → injected failure
        fill("d", 480_000_000_000); // evicts "c" → injected failure → open
        assert!(cache.spill_breaker.is_open());
        assert_eq!(LimaStats::get(&cache.stats().spill_failures), 3);
        // After the cooldown the next eviction is allowed through as a probe
        // and succeeds, closing the breaker again.
        std::thread::sleep(Duration::from_millis(60));
        fill("e", 960_000_000_000);
        assert!(!cache.spill_breaker.is_open());
        assert!(LimaStats::get(&cache.stats().breaker_probes) >= 1);
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        assert!(inj.occurrences(FaultSite::SpillWrite) >= 4);
    }

    /// Fulfils the composite-then-constituent shape of a function call:
    /// the op entry is computed *inside* the composite's window.
    fn fulfill_composite_with_child(
        cache: &Arc<LineageCache>,
        f_item: &LinRef,
        op_item: &LinRef,
        op_ns: u64,
        f_ns: u64,
    ) {
        let rf = match cache.acquire(f_item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!("composite should miss"),
        };
        let ro = match cache.acquire(op_item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!("op should miss"),
        };
        ro.fulfill(&mat(4), op_ns);
        rf.fulfill(&mat(4), f_ns);
    }

    /// Regression (savings double-count): a multilevel hit used to credit
    /// the composite's full `compute_ns` on every probe, *and* constituent
    /// hits credited their (already included) cost again. Savings must now
    /// count each computed nanosecond at most once, in either hit order.
    #[test]
    fn saved_compute_credits_each_nanosecond_at_most_once() {
        // Composite hit first: credits its full cost (nothing credited yet),
        // then the constituent hit credits nothing more.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        fulfill_composite_with_child(&cache, &f, &op, 2_000, 5_000);
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 0);
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        // Repeat hits stay flat (first-hit-only crediting).
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(..))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        // Hit-kind counters still classify by level.
        assert_eq!(LimaStats::get(&cache.stats().multilevel_hits), 2);
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 2);
    }

    #[test]
    fn saved_compute_constituent_first_then_composite_nets_out() {
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        fulfill_composite_with_child(&cache, &f, &op, 2_000, 5_000);
        // Constituent hit first: credits its own 2µs...
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 2_000);
        // ...and the composite then credits only the 3µs remainder.
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
    }

    #[test]
    fn saved_compute_handles_nested_composites() {
        // g(X) nested inside f(X): f { g { op } }. Marking must recurse so a
        // later grandchild hit cannot re-credit time f already claimed.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let g = mk_item("fcall:g", "X");
        let op = mk_item("tsmm", "X");
        let rf = match cache.acquire(&f).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let rg = match cache.acquire(&g).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let ro = match cache.acquire(&op).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        ro.fulfill(&mat(4), 1_000);
        rg.fulfill(&mat(4), 3_000);
        rf.fulfill(&mat(4), 9_000);
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 9_000);
        assert!(matches!(cache.acquire(&g), Some(Probe::Hit(..))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 9_000);
    }

    #[test]
    fn aborted_composite_reparents_children() {
        // f fails after its constituent was cached: the constituent's cost
        // must still be attributed (to the outer scope), and its own hits
        // credit normally, once.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        let rf = match cache.acquire(&f).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let ro = match cache.acquire(&op).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        ro.fulfill(&mat(4), 2_000);
        rf.abort();
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(..))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 2_000);
    }

    #[test]
    fn cost_report_ranks_by_compute_and_carries_lineage_ids() {
        let cache = LineageCache::new(cfg(1 << 24));
        let cheap = mk_item("ba+*", "cheap");
        let costly = mk_item("tsmm", "costly");
        for (item, ns) in [(&cheap, 1_000u64), (&costly, 50_000)] {
            match cache.acquire(item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), ns),
                _ => panic!(),
            }
        }
        assert!(matches!(cache.acquire(&costly), Some(Probe::Hit(..))));
        let report = cache.cost_report(10);
        // read leaves are not cached, so exactly the two op entries appear.
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].opcode, "tsmm");
        assert_eq!(report[0].compute_ns, 50_000);
        assert_eq!(report[0].hits, 1);
        assert_eq!(report[0].saved_ns, 50_000);
        assert_eq!(report[0].lineage_id, costly.id());
        assert!(report[0].resident);
        assert_eq!(report[1].opcode, "ba+*");
        assert_eq!(report[1].saved_ns, 0);
        let top1 = cache.cost_report(1);
        assert_eq!(top1.len(), 1);
        assert!(top1[0].render().contains("tsmm"));
    }

    /// Probes `item`, which must miss, and fulfils it with `compute_ns`.
    fn fulfil(cache: &LineageCache, item: &LinRef, value: &Value, compute_ns: u64) {
        match cache.acquire(item).unwrap() {
            Probe::Reserved(r) => r.fulfill(value, compute_ns),
            Probe::Hit(..) => panic!("{} should miss", item.opcode()),
        }
    }

    /// A cache in which one key was booked and seen again: it has a
    /// recurrence estimate, so a first sighting now has to pay for its
    /// booking — and one computed in 0 ns never does.
    fn cache_with_recurrence(config: LimaConfig) -> Arc<LineageCache> {
        let cache = LineageCache::new(config);
        let seen = mk_item("ba+*", "seen");
        fulfil(&cache, &seen, &mat(4), 1_000);
        assert!(matches!(cache.acquire(&seen), Some(Probe::Hit(..))));
        cache
    }

    #[test]
    fn a_fresh_cache_books_everything_until_a_key_recurs() {
        let cache = LineageCache::new(cfg(1 << 20));
        for i in 0..20 {
            fulfil(&cache, &mk_item("ba+*", &format!("X{i}")), &mat(4), 0);
        }
        assert_eq!(LimaStats::get(&cache.stats().puts), 20);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 0);
        // X0 recurs: from now on a free value is not worth its booking.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X0")),
            Some(Probe::Hit(..))
        ));
        fulfil(&cache, &mk_item("ba+*", "Y"), &mat(4), 0);
        assert_eq!(LimaStats::get(&cache.stats().puts), 20);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        cache.verify_index().unwrap();
    }

    #[test]
    fn a_refused_first_sighting_leaves_a_ghost_that_its_next_probe_books() {
        let obs = Arc::new(Obs::new());
        let cache = cache_with_recurrence(LimaConfig {
            obs: Some(Arc::clone(&obs)),
            ..cfg(1 << 20)
        });
        let offered = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&offered);
        cache.set_put_watcher(Some(Arc::new(move |_, _, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        })));
        let resident = cache.resident_bytes();
        let item = mk_item("ba+*", "cheap");
        let admitted = || {
            let events = obs.events();
            let fulfils = events
                .iter()
                .filter(|(_, e)| e.kind == EventKind::CacheFulfill && e.lineage_id == item.id());
            fulfils.map(|(_, e)| e.b).collect::<Vec<_>>()
        };
        fulfil(&cache, &item, &mat(8), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        assert_eq!(LimaStats::get(&cache.stats().puts), 1);
        assert_eq!(cache.resident_bytes(), resident, "a ghost holds no bytes");
        assert!(!cache.contains(&item));
        assert!(entry_of(&cache, &item).is_none(), "and no entry");
        assert_eq!(cache.state.lock().books.len(), 1);
        assert_eq!(
            offered.load(Ordering::Relaxed),
            1,
            "the watcher sees offers"
        );
        assert_eq!(admitted(), [0]);
        cache.verify_index().unwrap();
        // The second sighting finds the ghost and books the value, however
        // cheap.
        fulfil(&cache, &item, &mat(8), 0);
        assert_eq!(LimaStats::get(&cache.stats().puts), 2);
        assert!(cache.contains(&item));
        assert_eq!(entry_of(&cache, &item).map(|e| e.misses), Some(2));
        assert!(matches!(cache.acquire(&item), Some(Probe::Hit(..))));
        assert_eq!(offered.load(Ordering::Relaxed), 2);
        assert_eq!(admitted(), [0, 1]);
        cache.verify_index().unwrap();
    }

    #[test]
    fn a_refused_first_sighting_takes_no_slot_holds_no_key_and_locks_once() {
        let cache = cache_with_recurrence(cfg(1 << 20));
        let item = mk_item("ba+*", "cheap");
        let Some(Probe::Reserved(r)) = cache.acquire(&item) else {
            panic!("a new key misses");
        };
        // With the state lock held elsewhere, the refusal still completes.
        let st = cache.state.lock();
        let slots = st.books.entries().count();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                r.fulfill(&mat(8), 0);
                done.send(()).unwrap();
            });
            let settled = finished.recv_timeout(Duration::from_secs(10));
            assert!(st.books.entries().count() == slots, "no slab slot");
            drop(st);
            assert!(settled.is_ok(), "the refusal waited for the state lock");
        });
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        assert_eq!(Arc::strong_count(&item), 1, "the cache holds no key");
        cache.verify_index().unwrap();
    }

    #[test]
    fn a_reservation_from_before_a_clear_leaves_the_keys_next_sighting_alone() {
        let cache = cache_with_recurrence(cfg(1 << 20));
        let item = mk_item("ba+*", "k");
        let Some(Probe::Reserved(stale)) = cache.acquire(&item) else {
            panic!("a new key misses");
        };
        cache.clear();
        let seen = mk_item("ba+*", "seen");
        fulfil(&cache, &seen, &mat(4), 1_000);
        assert!(matches!(cache.acquire(&seen), Some(Probe::Hit(..))));
        let Some(Probe::Reserved(fresh)) = cache.acquire(&item) else {
            panic!("the cleared key misses again");
        };
        // The stale holder neither refuses nor books the new sighting.
        stale.fulfill(&mat(4), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 0);
        assert!(!cache.contains(&item));
        cache.verify_index().unwrap();
        fresh.fulfill(&mat(4), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        cache.verify_index().unwrap();
    }

    #[test]
    fn a_probe_that_waited_on_the_placeholder_is_a_second_sighting() {
        let cache = cache_with_recurrence(cfg(1 << 20));
        let item = mk_item("ba+*", "waited");
        let Some(Probe::Reserved(r)) = cache.acquire(&item) else {
            panic!("a new key misses");
        };
        let c2 = Arc::clone(&cache);
        let it = mk_item("ba+*", "waited");
        let waiter = std::thread::spawn(move || matches!(c2.acquire(&it), Some(Probe::Hit(..))));
        while cache.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        r.fulfill(&mat(4), 0);
        assert!(
            waiter.join().unwrap(),
            "the waiter is served, not sent back"
        );
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 0);
        assert_eq!(LimaStats::get(&cache.stats().puts), 2);
    }

    #[test]
    fn composites_and_direct_puts_are_booked_however_cheap() {
        let cache = cache_with_recurrence(cfg(1 << 24));
        let (put, replica) = (mk_item("ba+*", "put"), mk_item("ba+*", "replica"));
        let composite = mk_item("fcall:f", "X");
        cache.put(&put, &mat(4), 0);
        cache.put_replicated(&replica, &mat(4), 0);
        fulfil(&cache, &composite, &mat(4), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 0);
        assert_eq!(LimaStats::get(&cache.stats().puts), 4);
        assert!([put, replica, composite].iter().all(|i| cache.contains(i)));
    }

    #[test]
    fn a_refused_miss_evicts_nothing_and_writes_nothing_to_disk() {
        let dir = persist_dir("refused");
        let cache = cache_with_recurrence(LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            ..LimaConfig::default().with_persistence(&dir)
        });
        cache.put(&mk_item("ba+*", "filler"), &mat(100), 60_000_000_000);
        let counters = |c: &LineageCache| {
            let s = c.stats();
            [&s.evictions, &s.spills, &s.persist_writes].map(LimaStats::get)
        };
        let (before, resident) = (counters(&cache), cache.resident_bytes());
        // Booking it would push the filler out to disk.
        fulfil(&cache, &mk_item("ba+*", "big"), &mat(90), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        assert_eq!(counters(&cache), before);
        assert_eq!(cache.resident_bytes(), resident);
        assert_eq!(spill_dir_files(&cache), 0);
        cache.verify_index().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_emits_obs_events_with_lineage_ids() {
        use crate::obs::EventKind;
        let obs = Arc::new(Obs::new());
        let config = LimaConfig {
            obs: Some(Arc::clone(&obs)),
            ..cfg(1 << 24)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("tsmm", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 7_000),
            _ => panic!(),
        }
        assert!(matches!(cache.acquire(&item), Some(Probe::Hit(..))));
        let events = obs.events();
        let kinds: Vec<EventKind> = events.iter().map(|(_, e)| e.kind).collect();
        assert!(kinds.contains(&EventKind::CacheMiss));
        assert!(kinds.contains(&EventKind::CacheFulfill));
        assert!(kinds.contains(&EventKind::CacheHit));
        for (_, e) in &events {
            assert_eq!(e.lineage_id, item.id());
            assert_eq!(e.name.as_str(), "tsmm");
        }
        let hit = events
            .iter()
            .find(|(_, e)| e.kind == EventKind::CacheHit)
            .unwrap();
        assert_eq!(hit.1.a, 7_000); // first hit credited the full cost
    }
}
