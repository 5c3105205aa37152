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
                        Some(Probe::Hit(_)) => {}
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
