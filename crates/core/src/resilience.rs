//! Shared resilience primitives: bounded jittered-backoff retries, retry
//! budgets, and half-open circuit breakers.
//!
//! These started life buried in the persistence path (`cache/persist` used a
//! private retry loop, `cache/breaker` guarded spill/persist I/O). The
//! `limad` service and the `lima-client` crate need the exact same machinery
//! for wire I/O, so the pair lives here as the single implementation:
//!
//! * [`RetryPolicy`] — a bounded schedule of exponentially growing,
//!   deterministically jittered delays (full jitter over `[d/2, d]`, derived
//!   from a splitmix64 hash so runs replay identically). Generic over the
//!   error type; only errors the caller marks retryable are retried.
//! * [`RetryBudget`] — a process-wide token bucket capping the *total*
//!   retries in flight across many calls. Without a budget, a hard outage
//!   turns every caller's bounded backoff into a coordinated retry storm;
//!   with one, sustained failure exhausts the bucket and later calls fail
//!   fast until successes refill it.
//! * [`CircuitBreaker`] — consecutive-failure breaker with a half-open
//!   probe-per-cooldown-window third state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cap on a single backoff delay so bounded attempts stay bounded in time.
const MAX_DELAY_MS: u64 = 250;

/// A bounded jittered-exponential-backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try exactly once).
    pub attempts: u32,
    /// Base delay before the first retry; doubles per retry.
    pub base_delay_ms: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `attempts` retries starting at `base_delay_ms`.
    pub const fn new(attempts: u32, base_delay_ms: u64, seed: u64) -> Self {
        RetryPolicy {
            attempts,
            base_delay_ms,
            seed,
        }
    }

    /// The jittered delay before retry number `retry` (0-based): full jitter
    /// over `[d/2, d]` where `d = base · 2^retry`, capped at [`MAX_DELAY_MS`].
    pub fn delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.min(16))
            .min(MAX_DELAY_MS);
        if exp == 0 {
            return Duration::ZERO;
        }
        let h = crate::faults::mix(self.seed ^ (u64::from(retry) + 1).wrapping_mul(0x9E37));
        Duration::from_millis(exp / 2 + h % (exp - exp / 2 + 1))
    }

    /// Runs `op`, retrying on errors for which `retryable` holds, sleeping
    /// the backoff delay between attempts. Returns the final result plus the
    /// number of retries performed (for stats accounting).
    pub fn run<T, E>(
        &self,
        retryable: impl FnMut(&E) -> bool,
        op: impl FnMut() -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        self.run_budgeted(None, retryable, op)
    }

    /// [`Self::run`] drawing each retry from a shared [`RetryBudget`]: once
    /// the budget is exhausted, further errors return immediately even if the
    /// per-call attempt count has headroom. Successes refill the budget.
    pub fn run_budgeted<T, E>(
        &self,
        budget: Option<&RetryBudget>,
        mut retryable: impl FnMut(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => {
                    if let Some(b) = budget {
                        b.record_success();
                    }
                    return (Ok(v), retries);
                }
                Err(e)
                    if retries < self.attempts
                        && retryable(&e)
                        && budget.is_none_or(|b| b.try_spend()) =>
                {
                    let delay = self.delay(retries);
                    retries += 1;
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

/// How many successes refill one retry token (see [`RetryBudget`]).
const REFILL_SUCCESSES: u64 = 10;

/// A shared token bucket bounding total retries across many concurrent
/// calls. Each retry spends one token; every [`REFILL_SUCCESSES`] recorded
/// successes deposit one token back (up to the cap). All-atomic, so clients
/// and server shards can share one budget without locking.
#[derive(Debug)]
pub struct RetryBudget {
    tokens: AtomicU64,
    cap: u64,
    successes: AtomicU64,
}

impl RetryBudget {
    /// A full bucket holding `cap` retry tokens (`cap == 0` disables
    /// retrying entirely for budgeted callers).
    pub fn new(cap: u64) -> Self {
        RetryBudget {
            tokens: AtomicU64::new(cap),
            cap,
            successes: AtomicU64::new(0),
        }
    }

    /// Tokens currently available.
    pub fn remaining(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed)
    }

    /// Withdraws one token; `false` means the budget is exhausted and the
    /// caller must fail fast instead of retrying.
    pub fn try_spend(&self) -> bool {
        self.tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
            .is_ok()
    }

    /// Records a successful operation; every [`REFILL_SUCCESSES`]-th success
    /// deposits one token back up to the cap.
    pub fn record_success(&self) {
        let n = self.successes.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(REFILL_SUCCESSES) {
            let _ = self
                .tokens
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                    (t < self.cap).then_some(t + 1)
                });
        }
    }
}

/// Verdict for one attempt gated by a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// Breaker closed: proceed normally.
    Allowed,
    /// Breaker half-open: this is the single probe for the current cooldown
    /// window — the caller must report the outcome via `record_*`.
    Probe,
    /// Breaker open: skip the operation.
    Rejected,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// Consecutive-failure breaker with half-open probing.
///
/// After `limit` consecutive failures the breaker opens; once a cooldown
/// window elapses, one *probe* attempt is allowed through — success closes
/// the breaker again, failure re-opens it for a fresh window.
///
/// `limit == 0` disables the breaker entirely (every attempt allowed);
/// `cooldown_ms == 0` latches open forever once tripped.
#[derive(Debug)]
pub struct CircuitBreaker {
    limit: u32,
    cooldown: Duration,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker opening after `limit` consecutive failures and
    /// probing once per `cooldown_ms` window.
    pub fn new(limit: u32, cooldown_ms: u64) -> Self {
        CircuitBreaker {
            limit,
            cooldown: Duration::from_millis(cooldown_ms),
            state: Mutex::new(State::Closed { failures: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // The breaker holds no invariants a panicked holder could break:
        // recover the poisoned guard rather than propagate.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Gate one attempt. `Probe` grants exactly one in-flight attempt per
    /// cooldown window; concurrent callers see `Rejected` until the probe
    /// outcome is recorded.
    pub fn allow(&self) -> Attempt {
        if self.limit == 0 {
            return Attempt::Allowed;
        }
        let mut st = self.lock();
        match *st {
            State::Closed { .. } => Attempt::Allowed,
            State::Open { since }
                if !self.cooldown.is_zero() && since.elapsed() >= self.cooldown =>
            {
                *st = State::HalfOpen;
                Attempt::Probe
            }
            State::Open { .. } | State::HalfOpen => Attempt::Rejected,
        }
    }

    /// Reports success: closes the breaker and resets the failure count.
    pub fn record_success(&self) {
        if self.limit == 0 {
            return;
        }
        *self.lock() = State::Closed { failures: 0 };
    }

    /// Reports a failure: increments toward the limit, or re-opens a fresh
    /// cooldown window after a failed probe.
    pub fn record_failure(&self) {
        if self.limit == 0 {
            return;
        }
        let mut st = self.lock();
        *st = match *st {
            State::Closed { failures } if failures + 1 >= self.limit => State::Open {
                since: Instant::now(),
            },
            State::Closed { failures } => State::Closed {
                failures: failures + 1,
            },
            State::Open { .. } | State::HalfOpen => State::Open {
                since: Instant::now(),
            },
        };
    }

    /// True while the breaker is open or probing (i.e. not fully closed).
    pub fn is_open(&self) -> bool {
        if self.limit == 0 {
            return false;
        }
        !matches!(*self.lock(), State::Closed { .. })
    }
}

/// A small streaming quantile estimator over a sliding window of the most
/// recent samples (e.g. per-request latencies in milliseconds).
///
/// Hedged reads need "the observed p99" cheaply and without unbounded
/// memory: a fixed-capacity ring keeps the last `capacity` samples, and
/// [`Self::quantile`] sorts a snapshot on demand (the window is small — a
/// few hundred entries — so the sort is microseconds and only paid by the
/// reader, never the recording hot path). Thread-safe; entirely
/// deterministic given the same sample sequence.
#[derive(Debug)]
pub struct LatencyWindow {
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<u64>,
    next: usize,
    filled: usize,
}

impl LatencyWindow {
    /// A window retaining the most recent `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LatencyWindow {
            ring: Mutex::new(Ring {
                buf: vec![0; capacity],
                next: 0,
                filled: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records one sample, evicting the oldest once the window is full.
    pub fn record(&self, sample: u64) {
        let mut r = self.lock();
        let cap = r.buf.len();
        let at = r.next;
        r.buf[at] = sample;
        r.next = (at + 1) % cap;
        r.filled = (r.filled + 1).min(cap);
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.lock().filled
    }

    /// True until the first sample is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the current window via
    /// nearest-rank on a sorted snapshot, or `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let r = self.lock();
        if r.filled == 0 {
            return None;
        }
        let mut snap: Vec<u64> = r.buf[..r.filled].to_vec();
        drop(r);
        snap.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = ((snap.len() as f64 - 1.0) * q).round() as usize;
        Some(snap[idx.min(snap.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn policy() -> RetryPolicy {
        RetryPolicy::new(3, 0, 42) // zero base delay: tests don't sleep
    }

    #[test]
    fn succeeds_without_retry() {
        let (res, retries) = policy().run(|_| true, || Ok::<_, io::Error>(7));
        assert_eq!(res.ok(), Some(7));
        assert_eq!(retries, 0);
    }

    #[test]
    fn retries_transient_errors_until_success() {
        let mut fails = 2;
        let (res, retries) = policy().run(
            |_| true,
            || {
                if fails > 0 {
                    fails -= 1;
                    Err(io::Error::other("transient"))
                } else {
                    Ok(5)
                }
            },
        );
        assert_eq!(res.ok(), Some(5));
        assert_eq!(retries, 2);
    }

    #[test]
    fn gives_up_after_bounded_attempts() {
        let mut calls = 0u32;
        let (res, retries) = policy().run(
            |_| true,
            || {
                calls += 1;
                Err::<(), _>(io::Error::other("always"))
            },
        );
        assert!(res.is_err());
        assert_eq!(retries, 3);
        assert_eq!(calls, 4); // 1 attempt + 3 retries
    }

    #[test]
    fn non_retryable_errors_stop_immediately() {
        let mut calls = 0u32;
        let (res, retries) = policy().run(
            |_| false,
            || {
                calls += 1;
                Err::<(), _>(io::Error::other("fatal"))
            },
        );
        assert!(res.is_err());
        assert_eq!(retries, 0);
        assert_eq!(calls, 1);
    }

    #[test]
    fn works_over_non_io_error_types() {
        let mut fails = 1;
        let (res, retries) = policy().run(
            |e: &String| e.contains("transient"),
            || {
                if fails > 0 {
                    fails -= 1;
                    Err("transient blip".to_string())
                } else {
                    Ok(1u8)
                }
            },
        );
        assert_eq!(res.ok(), Some(1));
        assert_eq!(retries, 1);
    }

    #[test]
    fn delays_are_deterministic_jittered_and_capped() {
        let p = RetryPolicy::new(8, 10, 9);
        let q = RetryPolicy::new(8, 10, 9);
        for r in 0..8 {
            let d = p.delay(r);
            assert_eq!(d, q.delay(r), "same seed → same delay");
            let exp = (10u64 << r.min(16)).min(250);
            assert!(d.as_millis() as u64 >= exp / 2);
            assert!(d.as_millis() as u64 <= exp);
        }
        // Different seeds shift the jitter.
        let other = RetryPolicy::new(8, 10, 10);
        assert!((0..8).any(|r| p.delay(r) != other.delay(r)));
    }

    #[test]
    fn budget_exhaustion_stops_retries_across_calls() {
        let budget = RetryBudget::new(3);
        let mut calls = 0u32;
        // First call burns the whole budget (policy allows 3 retries).
        let (res, retries) = policy().run_budgeted(
            Some(&budget),
            |_| true,
            || {
                calls += 1;
                Err::<(), _>(io::Error::other("down"))
            },
        );
        assert!(res.is_err());
        assert_eq!(retries, 3);
        assert_eq!(budget.remaining(), 0);
        // Later calls fail fast: no tokens left, so zero retries.
        let (res, retries) = policy().run_budgeted(
            Some(&budget),
            |_| true,
            || Err::<(), _>(io::Error::other("still down")),
        );
        assert!(res.is_err());
        assert_eq!(retries, 0);
    }

    #[test]
    fn budget_refills_on_successes() {
        let budget = RetryBudget::new(2);
        while budget.try_spend() {}
        assert_eq!(budget.remaining(), 0);
        for _ in 0..10 {
            budget.record_success();
        }
        assert_eq!(budget.remaining(), 1);
        // Refill never exceeds the cap.
        for _ in 0..100 {
            budget.record_success();
        }
        assert!(budget.remaining() <= 2);
    }

    #[test]
    fn zero_cap_budget_disables_retrying() {
        let budget = RetryBudget::new(0);
        let (res, retries) = policy().run_budgeted(
            Some(&budget),
            |_| true,
            || Err::<(), _>(io::Error::other("x")),
        );
        assert!(res.is_err());
        assert_eq!(retries, 0);
    }

    #[test]
    fn opens_after_consecutive_failures_and_success_resets() {
        let b = CircuitBreaker::new(3, 60_000);
        assert_eq!(b.allow(), Attempt::Allowed);
        b.record_failure();
        b.record_failure();
        b.record_success(); // streak broken
        b.record_failure();
        b.record_failure();
        assert_eq!(b.allow(), Attempt::Allowed);
        b.record_failure(); // third consecutive → open
        assert_eq!(b.allow(), Attempt::Rejected);
        assert!(b.is_open());
    }

    #[test]
    fn half_open_grants_single_probe_per_window() {
        let b = CircuitBreaker::new(1, 10);
        b.record_failure();
        assert_eq!(b.allow(), Attempt::Rejected);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.allow(), Attempt::Probe);
        // Concurrent attempts during the probe are rejected.
        assert_eq!(b.allow(), Attempt::Rejected);
        b.record_success();
        assert_eq!(b.allow(), Attempt::Allowed);
        assert!(!b.is_open());
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_window() {
        let b = CircuitBreaker::new(1, 10);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.allow(), Attempt::Probe);
        b.record_failure();
        assert_eq!(b.allow(), Attempt::Rejected);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.allow(), Attempt::Probe);
    }

    #[test]
    fn zero_limit_disables_breaker() {
        let b = CircuitBreaker::new(0, 10);
        for _ in 0..10 {
            b.record_failure();
        }
        assert_eq!(b.allow(), Attempt::Allowed);
        assert!(!b.is_open());
    }

    #[test]
    fn zero_cooldown_latches_open_forever() {
        let b = CircuitBreaker::new(1, 0);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(b.allow(), Attempt::Rejected);
    }

    #[test]
    fn latency_window_quantiles_track_recent_samples() {
        let w = LatencyWindow::new(100);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.99), None);
        for v in 1..=100u64 {
            w.record(v);
        }
        assert_eq!(w.len(), 100);
        assert_eq!(w.quantile(0.0), Some(1));
        assert_eq!(w.quantile(0.5), Some(51)); // nearest-rank on 1..=100
        assert_eq!(w.quantile(1.0), Some(100));
        assert_eq!(w.quantile(0.99), Some(99));
    }

    #[test]
    fn latency_window_evicts_oldest_at_capacity() {
        let w = LatencyWindow::new(4);
        for v in [1000, 1, 2, 3, 4] {
            w.record(v);
        }
        // The 1000 fell out of the 4-slot window.
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(1.0), Some(4));
        assert_eq!(w.quantile(0.0), Some(1));
    }

    #[test]
    fn latency_window_zero_capacity_clamps_to_one() {
        let w = LatencyWindow::new(0);
        w.record(7);
        w.record(9);
        assert_eq!(w.len(), 1);
        assert_eq!(w.quantile(0.5), Some(9));
    }
}
