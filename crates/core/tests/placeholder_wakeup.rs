//! Lost-wakeup stress for the waiter-counted `notify_all`.
//!
//! Whoever resolves a placeholder (fulfil or abort) only pays the condvar
//! notify when the waiter count it reads under the cache lock is non-zero.
//! A lost wakeup would leave a probe parked until `placeholder_timeout_ms`,
//! set here to a minute; every round must instead finish in a fraction of
//! that, with no placeholder timeout counted.
//!
//! Per round the holder resolves the placeholder once `parked` of the
//! waiters are provably blocked (`placeholder_waits` is bumped under the same
//! lock hold that registers and parks a waiter), so both interleavings are
//! forced: waiters parked before the notify, and waiters arriving after it.
//! The seed matrix is `LIMA_FAULT_SEEDS` (comma-separated), as elsewhere.
//!
//! Once some key has recurred, a key's first sighting has no entry: its
//! placeholder is a slot in the books' sightings table. The last three tests
//! prime that state and check that the slot still makes a second probe wait
//! for the value, hands the key over when the computation fails, and that a
//! key whose every slot computes another key falls back to an entry.

use lima_core::cache::Probe;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::{LimaConfig, LimaStats, LineageCache};
use lima_matrix::{DenseMatrix, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const WAITERS: u64 = 6;
const ROUNDS: u64 = 150;

fn seeds() -> Vec<u64> {
    std::env::var("LIMA_FAULT_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![0, 7, 42])
}

fn item(tag: &str) -> LinRef {
    LineageItem::op("ba+*", vec![LineageItem::op_with_data("read", tag, vec![])])
}

/// A compute time that pays for its booking at any recurrence rate: a value
/// fulfilled before any waiter arrived is booked all the same, so a waiter
/// that comes late hits instead of taking the work over.
const PAYS: u64 = 1_000_000_000;

fn value() -> Value {
    Value::matrix(DenseMatrix::filled(4, 4, 1.0))
}

#[test]
fn every_waiter_wakes_whether_the_holder_fulfils_or_aborts() {
    for seed in seeds() {
        let cache = LineageCache::new(LimaConfig {
            placeholder_timeout_ms: 60_000,
            ..LimaConfig::lima()
        });
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for round in 0..ROUNDS {
            let tag = format!("s{seed}-r{round}");
            let (parked, abort, delay_us) = (next(WAITERS + 1), next(2) == 0, next(300));
            let holder = match cache.acquire(&item(&tag)) {
                Some(Probe::Reserved(r)) => r,
                _ => panic!("fresh key must reserve"),
            };
            let waits_before = LimaStats::get(&cache.stats().placeholder_waits);
            let takeovers = AtomicUsize::new(0);
            let started = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..WAITERS {
                    s.spawn(|| match cache.acquire(&item(&tag)) {
                        Some(Probe::Hit(..)) => {}
                        // After an abort exactly one waiter inherits the work.
                        Some(Probe::Reserved(r)) => {
                            takeovers.fetch_add(1, Ordering::SeqCst);
                            r.fulfill(&value(), PAYS);
                        }
                        None => panic!("ba+* is cacheable"),
                    });
                }
                while LimaStats::get(&cache.stats().placeholder_waits) < waits_before + parked {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_micros(delay_us));
                if abort {
                    holder.abort();
                } else {
                    holder.fulfill(&value(), PAYS);
                }
            });
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "seed {seed} round {round}: a waiter slept towards the placeholder timeout"
            );
            assert_eq!(takeovers.load(Ordering::SeqCst), usize::from(abort));
        }
        assert_eq!(LimaStats::get(&cache.stats().placeholder_timeouts), 0);
        assert_eq!(LimaStats::get(&cache.stats().puts), ROUNDS);
    }
}

/// A cache in which one key was booked and hit: some key has recurred, so a
/// new key's first sighting is a slot in the sightings table, not an entry.
fn primed() -> std::sync::Arc<LineageCache> {
    let cache = LineageCache::new(LimaConfig {
        placeholder_timeout_ms: 60_000,
        ..LimaConfig::lima()
    });
    cache.put(&item("seen"), &value(), PAYS);
    assert!(matches!(cache.acquire(&item("seen")), Some(Probe::Hit(..))));
    cache
}

/// Entries in the books, placeholders and shells included.
fn entries(cache: &LineageCache) -> usize {
    let shown = format!("{cache:?}");
    let n = shown
        .split("entries: ")
        .nth(1)
        .and_then(|s| s.split(',').next());
    n.and_then(|n| n.parse().ok())
        .expect("Debug shows the entry count")
}

/// Blocks until `n` probes in all have waited on a placeholder.
fn until_waits(cache: &LineageCache, n: u64) {
    while LimaStats::get(&cache.stats().placeholder_waits) < n {
        std::thread::yield_now();
    }
}

#[test]
fn a_probe_of_a_first_sighting_being_computed_waits_for_its_value() {
    let cache = primed();
    let before = entries(&cache);
    let Some(Probe::Reserved(a)) = cache.acquire(&item("K")) else {
        panic!("a new key misses");
    };
    assert_eq!(entries(&cache), before, "a first sighting has no entry");
    let computed = Value::matrix(DenseMatrix::filled(3, 3, 7.0));
    std::thread::scope(|s| {
        let b = s.spawn(|| match cache.acquire(&item("K")) {
            Some(Probe::Hit(v, _)) => v,
            _ => panic!("B must be served A's value"),
        });
        until_waits(&cache, 1);
        // Computed in no time: booked only because B waited for it.
        a.fulfill(&computed, 0);
        assert!(b.join().unwrap().approx_eq(&computed, 0.0));
    });
    let stats = cache.stats();
    assert_eq!(LimaStats::get(&stats.placeholder_waits), 1);
    assert_eq!(LimaStats::get(&stats.rejected_puts), 0);
    assert!(cache.contains(&item("K")));
    cache.verify_index().unwrap();
}

#[test]
fn a_failed_first_sighting_hands_the_key_to_its_waiter() {
    let cache = primed();
    let Some(Probe::Reserved(a)) = cache.acquire(&item("K")) else {
        panic!("a new key misses");
    };
    let started = Instant::now();
    std::thread::scope(|s| {
        let b = s.spawn(|| match cache.acquire(&item("K")) {
            Some(Probe::Reserved(r)) => r.fulfill(&value(), 0),
            _ => panic!("B must compute K itself"),
        });
        until_waits(&cache, 1);
        a.abort();
        b.join().unwrap();
    });
    assert!(started.elapsed() < Duration::from_secs(10), "B slept");
    let stats = cache.stats();
    assert_eq!(LimaStats::get(&stats.placeholder_timeouts), 0);
    // B's probe was K's second sighting: its value is booked however cheap.
    assert!(cache.contains(&item("K")));
    cache.verify_index().unwrap();
}

#[test]
fn a_first_sighting_whose_slots_compute_other_keys_gets_an_entry() {
    let cache = primed();
    let before = entries(&cache);
    // First sightings are held until some key finds every slot it may take
    // computing another key: its probe is the one that books an entry.
    let mut held = Vec::new();
    let (tag, k) = loop {
        let tag = format!("K{}", held.len());
        match cache.acquire(&item(&tag)) {
            Some(Probe::Reserved(r)) if entries(&cache) > before => break (tag, r),
            Some(Probe::Reserved(r)) => held.push(r),
            _ => panic!("{tag} is new"),
        }
        assert!(held.len() < 100_000, "no key ran out of slots");
    };
    assert_eq!(entries(&cache), before + 1);
    // The entry is a placeholder like any other: a second probe waits on it.
    std::thread::scope(|s| {
        let b = s.spawn(|| matches!(cache.acquire(&item(&tag)), Some(Probe::Hit(..))));
        until_waits(&cache, 1);
        k.fulfill(&value(), PAYS);
        assert!(b.join().unwrap(), "B must be served K's value");
    });
    let others = held.len() as u64;
    for r in held {
        r.fulfill(&value(), PAYS);
    }
    let stats = cache.stats();
    let (puts, rejected) = (&stats.puts, &stats.rejected_puts);
    let (puts, rejected) = (LimaStats::get(puts), LimaStats::get(rejected));
    assert_eq!(puts, others + 2, "rejected_puts {rejected}, {cache:?}");
    cache.verify_index().unwrap();
}
