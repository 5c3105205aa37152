//! Concurrency stress tests for the lineage cache: the placeholder protocol
//! (paper §4.1, task-parallel loops) must serialize redundant computation
//! without deadlocks, lost wakeups, or duplicate work, even under heavy
//! contention and eviction pressure.

use lima_core::cache::Probe;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::{LimaConfig, LimaStats, LineageCache};
use lima_matrix::{DenseMatrix, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A compute time that pays for its booking at any recurrence rate, so
/// admission never leaves one of these values a shell and the counts below
/// stay about placeholders alone.
const PAYS: u64 = 1_000_000_000;

fn item(tag: &str) -> LinRef {
    LineageItem::op("ba+*", vec![LineageItem::op_with_data("read", tag, vec![])])
}

#[test]
fn contended_key_computes_exactly_once() {
    let cache = LineageCache::new(LimaConfig::lima());
    let computed = Arc::new(AtomicUsize::new(0));
    let threads = 8;
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            s.spawn(move |_| {
                for round in 0..50 {
                    let key = item(&format!("k{}", round % 5));
                    match cache.acquire(&key).expect("cacheable") {
                        Probe::Hit(v) => {
                            assert_eq!(v.as_matrix().unwrap().shape(), (8, 8));
                        }
                        Probe::Reserved(r) => {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Simulate compute time to widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            r.fulfill(&Value::matrix(DenseMatrix::filled(8, 8, 1.0)), PAYS);
                        }
                    }
                }
            });
        }
    })
    .expect("no worker panicked");
    // 5 distinct keys → exactly 5 computations across 400 probes.
    assert_eq!(computed.load(Ordering::SeqCst), 5);
    assert_eq!(LimaStats::get(&cache.stats().puts), 5);
    assert_eq!(LimaStats::get(&cache.stats().probes), (threads * 50) as u64);
}

#[test]
fn aborts_under_contention_do_not_deadlock() {
    let cache = LineageCache::new(LimaConfig::lima());
    let successes = Arc::new(AtomicUsize::new(0));
    crossbeam::thread::scope(|s| {
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            let successes = Arc::clone(&successes);
            s.spawn(move |_| {
                for round in 0..40 {
                    let key = item(&format!("a{}", round % 3));
                    match cache.acquire(&key).expect("cacheable") {
                        Probe::Hit(_) => {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        Probe::Reserved(r) => {
                            // Odd threads fail their computation; even threads
                            // succeed. Waiters must always make progress.
                            if t % 2 == 1 {
                                r.abort();
                            } else {
                                r.fulfill(&Value::matrix(DenseMatrix::zeros(4, 4)), 10);
                                successes.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("no deadlock");
    assert!(successes.load(Ordering::SeqCst) > 0);
}

#[test]
fn eviction_pressure_with_concurrent_probes_is_safe() {
    let cache = LineageCache::new(LimaConfig {
        budget_bytes: 200_000, // a handful of 50x50 matrices
        spill: false,
        ..LimaConfig::lima()
    });
    crossbeam::thread::scope(|s| {
        for t in 0..6 {
            let cache = Arc::clone(&cache);
            s.spawn(move |_| {
                for round in 0..100 {
                    let key = item(&format!("e{}-{}", t, round % 20));
                    match cache.acquire(&key).expect("cacheable") {
                        Probe::Hit(v) => {
                            assert_eq!(v.as_matrix().unwrap().get(0, 0), 2.0);
                        }
                        Probe::Reserved(r) => {
                            r.fulfill(&Value::matrix(DenseMatrix::filled(50, 50, 2.0)), 5_000)
                        }
                    }
                }
            });
        }
    })
    .expect("no worker panicked");
    assert!(cache.resident_bytes() <= 200_000);
    assert!(LimaStats::get(&cache.stats().evictions) > 0);
}

#[test]
fn peeks_race_with_puts_without_poisoning() {
    let cache = LineageCache::new(LimaConfig::lima());
    let stop = Arc::new(AtomicUsize::new(0));
    crossbeam::thread::scope(|s| {
        // Writer thread fills keys; reader threads peek continuously.
        {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            s.spawn(move |_| {
                for i in 0..200 {
                    let key = item(&format!("p{i}"));
                    if let Some(Probe::Reserved(r)) = cache.acquire(&key) {
                        r.fulfill(&Value::matrix(DenseMatrix::zeros(3, 3)), PAYS);
                    }
                }
                stop.store(1, Ordering::SeqCst);
            });
        }
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut i = 0usize;
                while stop.load(Ordering::SeqCst) == 0 {
                    let key = item(&format!("p{}", (i * 7 + t) % 200));
                    let _ = cache.peek(&key);
                    i += 1;
                }
            });
        }
    })
    .expect("no worker panicked");
    assert_eq!(cache.live_entries(), 200);
}
