//! Differential property tests for the cache's books: the entry slab, the
//! key map and the incrementally maintained eviction index.
//!
//! 1. Over random put / hit / shell-miss / peek / restore / clear sequences
//!    under LRU, DAG-Height and Cost&Size, `LineageCache::verify_index` must
//!    hold after every step: it rebuilds key map, free list, queues, counters
//!    and group counts by scanning the slab and checks the index's victim
//!    against the scan-based `eviction::pick_victim` (which production code
//!    no longer uses for these policies). The budget must hold after every
//!    step too. Reservations are also *held* across later steps and resolved
//!    out of order: one whose entry a `clear()` took away in between is
//!    stale, and fulfilling or aborting it must change nothing — least of
//!    all the entry that moved into its slab slot since.
//!    Each history starts with a key booked and seen again, so the cache has
//!    a recurrence estimate and a first sighting that does not pay for its
//!    booking (cost class 0) is refused — until a `clear()` returns the cache
//!    to its cold start. A first sighting has no entry, only a slot in the
//!    sightings table: steps that refuse or abort one must leave the number
//!    of entries as it was, and the probe after a refusal, the key's second
//!    sighting, books a placeholder whose value is booked however cheap.
//! 2. The same for the other way an entry leaves under a live reservation:
//!    taken over by a waiter, evicted, pruned as a shell, slot recycled.
//! 3. Entries caching one shared object defer spilling until the last of the
//!    group leaves memory.
//! 4. A fixed history of refusals, shell probes that book, direct puts and
//!    evictions keeps the books in step under every policy.

use lima_core::cache::{Probe, Reservation};
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::{EvictionPolicy, LimaConfig, LimaStats, LineageCache};
use lima_matrix::{DenseMatrix, Value};
use proptest::collection::vec;
use proptest::prelude::*;

const KEYS: usize = 16;
const BUDGET: usize = 40_000;

/// Key `k`: a chain of `k % 5 + 1` ops, so DAG-Height has heights to order.
/// Built fresh per call — probes are structurally equal to, not the same
/// objects as, the cached keys.
fn key(k: usize) -> LinRef {
    let mut item = LineageItem::op_with_data("read", format!("X{k}"), vec![]);
    for _ in 0..=(k % 5) {
        item = LineageItem::op("exp", vec![item]);
    }
    item
}

/// 520 B .. 8 KB: a handful fit the budget, so most puts evict.
fn value(size_class: usize) -> Value {
    let n = [8, 16, 24, 32][size_class % 4];
    Value::matrix(DenseMatrix::filled(n, n, 1.0))
}

/// The last cost makes an entry worth spilling, so later probes restore it.
fn cost(cost_class: usize) -> u64 {
    [0, 1_000, 1_000_000, 60_000_000_000][cost_class % 4]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Probe; on a miss either fulfil or abort (a shell miss).
    Probe {
        k: usize,
        size: usize,
        cost: usize,
        abort: bool,
    },
    /// Direct put, possibly over a resident or spilled entry.
    Put {
        k: usize,
        size: usize,
        cost: usize,
    },
    Peek(usize),
    Clear,
    /// Probe; on a miss keep the reservation for a later `Resolve`.
    Hold(usize),
    /// Fulfil or abort the oldest held reservation.
    Resolve {
        size: usize,
        cost: usize,
        abort: bool,
    },
    /// Probe; a first sighting is refused (a free value) or aborted.
    FirstSighting {
        k: usize,
        abort: bool,
    },
    /// A refused first sighting, then the key's second sighting.
    SecondSighting {
        k: usize,
        size: usize,
    },
}

/// Probes, puts and peeks as before, reservations held and resolved later,
/// first and second sightings, and a rare clear.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..60, 0..KEYS, 0usize..4, 0usize..4, any::<bool>()).prop_map(
        |(kind, k, size, cost, abort)| match kind {
            0..=19 => Op::Probe {
                k,
                size,
                cost,
                abort,
            },
            20..=29 => Op::Put { k, size, cost },
            30..=38 => Op::Peek(k),
            39..=44 => Op::Hold(k),
            45..=50 => Op::Resolve { size, cost, abort },
            51..=54 => Op::FirstSighting { k, abort },
            55..=58 => Op::SecondSighting { k, size },
            _ => Op::Clear,
        },
    )
}

/// Everything the books say, entry by entry: what a no-op must leave alone.
fn books_snapshot(cache: &LineageCache) -> String {
    let mut rows = cache.cost_report(usize::MAX);
    rows.sort_by_key(|row| row.lineage_id);
    format!(
        "{rows:?} live={} resident={} puts={} rejected={}",
        cache.live_entries(),
        cache.resident_bytes(),
        LimaStats::get(&cache.stats().puts),
        LimaStats::get(&cache.stats().rejected_puts),
    )
}

/// Entries in the books, shells and placeholders included.
fn entries(cache: &LineageCache) -> usize {
    cache.cost_report(usize::MAX).len()
}

/// Probes key `k`. On a miss, the reservation, and whether it is a first
/// sighting: a probe that left the books as they were (probing a shell or
/// reserving a placeholder entry changes them).
fn probe_for_sighting(cache: &LineageCache, k: usize) -> Option<(Reservation<'_>, bool)> {
    let before = books_snapshot(cache);
    match cache.acquire(&key(k)) {
        Some(Probe::Reserved(r)) => Some((r, books_snapshot(cache) == before)),
        _ => None,
    }
}

fn arb_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::DagHeight),
        Just(EvictionPolicy::CostSize),
    ]
}

/// Books a key outside `0..KEYS` and hits it: the cache now has a recurrence
/// estimate.
fn seed_recurrence(cache: &LineageCache) {
    let seen = key(KEYS);
    cache.put(&seen, &Value::f64(1.0), 1_000);
    assert!(matches!(cache.acquire(&seen), Some(Probe::Hit(..))));
}

#[test]
fn refusals_keep_the_books_in_step_under_every_policy() {
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::DagHeight,
        EvictionPolicy::CostSize,
    ] {
        let cache = LineageCache::new(LimaConfig {
            policy,
            budget_bytes: BUDGET,
            spill: false,
            ..LimaConfig::lima()
        });
        let check = |step: &str| {
            if let Err(why) = cache.verify_index() {
                panic!("{policy:?}, {step}: {why}");
            }
            assert!(cache.resident_bytes() <= BUDGET, "{policy:?}, {step}");
        };
        seed_recurrence(&cache);
        check("seeded");
        for round in 0..3 {
            for k in 0..KEYS {
                let offer = |cost_class| match cache.acquire(&key(k)) {
                    Some(Probe::Reserved(r)) => r.fulfill(&value(k), cost(cost_class)),
                    Some(Probe::Hit(..)) => {}
                    None => panic!("exp is cacheable"),
                };
                // Round 0 is every key's first sighting: a free value is
                // refused, a costly one (class 3) books and evicts.
                offer(if k % 4 == 3 { 3 } else { 0 });
                check(&format!("round {round}, key {k}"));
                if k % 3 == 0 {
                    cache.put(&key(k), &value(k + 1), cost(1));
                    check(&format!("round {round}, put {k}"));
                }
            }
        }
        let stats = cache.stats();
        let refused = LimaStats::get(&stats.rejected_puts);
        // Round 0 refuses the 12 free first sightings; rounds 1 and 2 find
        // a shell, and book it, or a value.
        assert_eq!(refused, 12, "{policy:?}");
        assert!(LimaStats::get(&stats.evictions) > 0, "{policy:?}");
        assert!(LimaStats::get(&stats.full_hits) > 0, "{policy:?}");
        cache.clear();
        check("cleared");
        // A cleared cache is a fresh one: it books everything again.
        match cache.acquire(&key(1)) {
            Some(Probe::Reserved(r)) => r.fulfill(&value(1), 0),
            _ => panic!("a cleared cache misses"),
        }
        assert_eq!(LimaStats::get(&stats.rejected_puts), refused);
        assert!(cache.contains(&key(1)));
    }
}

/// A reservation can also outlive its entry without a `clear()`: a waiter
/// takes the computation over, the value it books is evicted, the shell is
/// pruned and the slot goes to somebody else.
#[test]
fn a_reservation_that_outlived_its_entry_leaves_the_slots_new_tenant_alone() {
    let policies = [
        EvictionPolicy::Lru,
        EvictionPolicy::DagHeight,
        EvictionPolicy::CostSize,
    ];
    for (policy, fulfil) in policies.into_iter().flat_map(|p| [(p, true), (p, false)]) {
        // Matrices are over the budget (every put of one leaves a shell);
        // scalars fit.
        let cache = LineageCache::new(LimaConfig {
            policy,
            budget_bytes: 256,
            spill: false,
            placeholder_timeout_ms: 10,
            ..LimaConfig::lima()
        });
        let Some(Probe::Reserved(late)) = cache.acquire(&key(0)) else {
            panic!("a fresh cache reserves");
        };
        // A second probe waits out the placeholder timeout, takes the
        // computation over and books a shell.
        match cache.acquire(&key(0)) {
            Some(Probe::Reserved(takeover)) => takeover.fulfill(&value(0), 5),
            _ => panic!("the waiter takes over"),
        }
        assert_eq!(LimaStats::get(&cache.stats().placeholder_timeouts), 1);
        // 4 200 younger shells push that one (and 104 more) off the shell
        // queue; their slots are free.
        for n in 0..4_200 {
            let shell = LineageItem::op_with_data("read", format!("shell{n}"), vec![]);
            cache.put(&LineageItem::op("exp", vec![shell]), &value(0), 5);
        }
        let taken_over = |cache: &LineageCache| {
            let rows = cache.cost_report(usize::MAX);
            rows.iter().any(|row| row.misses == 2)
        };
        assert!(!taken_over(&cache), "{policy:?}: the shell was not pruned");
        // Resident tenants move into every freed slot.
        for n in 0..200 {
            let tenant = LineageItem::op_with_data("read", format!("tenant{n}"), vec![]);
            cache.put(
                &LineageItem::op("exp", vec![tenant]),
                &Value::f64(n as f64),
                7,
            );
        }
        cache.verify_index().unwrap();
        let before = books_snapshot(&cache);
        if fulfil {
            late.fulfill(&Value::f64(-1.0), 1_000_000);
        } else {
            late.abort();
        }
        assert_eq!(
            before,
            books_snapshot(&cache),
            "{policy:?}, fulfil {fulfil}"
        );
        cache.verify_index().unwrap();
        assert!(!cache.contains(&key(0)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_agrees_with_a_full_scan_after_every_step(
        policy in arb_policy(),
        ops in vec(arb_op(), 1..120),
    ) {
        let cache = LineageCache::new(LimaConfig {
            policy,
            budget_bytes: BUDGET,
            spill: true,
            ..LimaConfig::lima()
        });
        // Held reservations with their key and the `clear()` epoch they were
        // made in; one from an earlier epoch is stale.
        let mut held: std::collections::VecDeque<(Reservation<'_>, usize, u32)> = Default::default();
        let mut epoch = 0u32;
        seed_recurrence(&cache);
        for (step, op) in ops.iter().enumerate() {
            // A probe of a key whose placeholder this very thread holds
            // would wait for itself.
            let pending = |k: usize| held.iter().any(|(_, hk, e)| *hk == k && *e == epoch);
            match *op {
                Op::Probe { k, .. } | Op::Hold(k) if pending(k) => {}
                Op::FirstSighting { k, .. } | Op::SecondSighting { k, .. } if pending(k) => {}
                Op::Probe { k, size, cost: c, abort } => match cache.acquire(&key(k)) {
                    Some(Probe::Hit(..)) => {}
                    Some(Probe::Reserved(r)) if abort => r.abort(),
                    Some(Probe::Reserved(r)) => r.fulfill(&value(size), cost(c)),
                    None => prop_assert!(false, "exp is cacheable"),
                },
                Op::Put { k, size, cost: c } => cache.put(&key(k), &value(size), cost(c)),
                Op::Peek(k) => drop(cache.peek(&key(k))),
                Op::Clear => {
                    cache.clear();
                    epoch += 1;
                }
                Op::Hold(k) => {
                    if let Some(Probe::Reserved(r)) = cache.acquire(&key(k)) {
                        held.push_back((r, k, epoch));
                    }
                }
                Op::FirstSighting { k, abort } => {
                    if let Some((r, true)) = probe_for_sighting(&cache, k) {
                        let stats = cache.stats();
                        let (n, refused) = (entries(&cache), LimaStats::get(&stats.rejected_puts));
                        if abort {
                            r.abort();
                        } else {
                            r.fulfill(&value(0), cost(0));
                        }
                        prop_assert_eq!(entries(&cache), n, "step {}: a first sighting took an entry", step);
                        prop_assert_eq!(LimaStats::get(&stats.rejected_puts), refused + u64::from(!abort));
                    }
                }
                Op::SecondSighting { k, size } => {
                    if let Some((r, true)) = probe_for_sighting(&cache, k) {
                        r.fulfill(&value(size), cost(0));
                        let (n, puts) = (entries(&cache), LimaStats::get(&cache.stats().puts));
                        match cache.acquire(&key(k)) {
                            Some(Probe::Reserved(r)) => {
                                prop_assert_eq!(entries(&cache), n + 1, "step {}: no placeholder", step);
                                r.fulfill(&value(size), cost(0));
                                prop_assert_eq!(LimaStats::get(&cache.stats().puts), puts + 1);
                            }
                            _ => prop_assert!(false, "step {}: the ghost was not probed", step),
                        }
                    }
                }
                Op::Resolve { size, cost: c, abort } => {
                    if let Some((r, _, made_in)) = held.pop_front() {
                        let before = (made_in != epoch).then(|| books_snapshot(&cache));
                        if abort {
                            r.abort();
                        } else {
                            r.fulfill(&value(size), cost(c));
                        }
                        if let Some(before) = before {
                            prop_assert_eq!(
                                before, books_snapshot(&cache),
                                "{:?}, step {}: a stale reservation changed the books", policy, step
                            );
                        }
                    }
                }
            }
            if let Err(why) = cache.verify_index() {
                prop_assert!(false, "{:?}, step {} ({:?}): {}", policy, step, op, why);
            }
            prop_assert!(
                cache.resident_bytes() <= BUDGET,
                "{:?}, step {} ({:?}): {} resident bytes over the budget",
                policy, step, op, cache.resident_bytes()
            );
        }
    }

    #[test]
    fn a_group_spills_only_when_its_last_member_leaves(
        policy in arb_policy(),
        members in 2usize..6,
    ) {
        // One matrix cached under `members` keys (an operation and the
        // functions returning it), each worth spilling on its own.
        let shared = Value::matrix(DenseMatrix::filled(40, 40, 1.0));
        let size = shared.size_in_bytes();
        let cache = LineageCache::new(LimaConfig {
            policy,
            budget_bytes: members * size + size / 2,
            spill: true,
            ..LimaConfig::lima()
        });
        let group: Vec<LinRef> = (0..members).map(|m| key(4 + 5 * m)).collect();
        for item in &group {
            cache.put(item, &shared, 60_000_000_000);
        }
        prop_assert_eq!(cache.live_entries(), members);
        let group_ids: Vec<u64> = group.iter().map(|i| i.id()).collect();
        let resident_members = || {
            cache
                .cost_report(usize::MAX)
                .iter()
                .filter(|row| row.resident && group_ids.contains(&row.lineage_id))
                .count()
        };
        // Fillers outrank the group under every policy (newer, shallower,
        // costlier) and are strings, which the spill store does not take.
        let filler = Value::str(&"x".repeat(size));
        let mut spills_before = 0;
        for f in 0..(2 * members) {
            let item = LineageItem::op_with_data("read", format!("filler{f}"), vec![]);
            cache.put(&LineageItem::op("exp", vec![item]), &filler, u64::MAX / 4);
            let spills = LimaStats::get(&cache.stats().spills);
            if spills > spills_before {
                prop_assert_eq!(resident_members(), 0, "spilled with members still resident");
            }
            spills_before = spills;
            prop_assert!(cache.verify_index().is_ok());
        }
        prop_assert_eq!(resident_members(), 0);
        prop_assert_eq!(LimaStats::get(&cache.stats().spills), 1);
    }
}
