//! Retrying, deadline-aware, replica-set client for `limad`.
//!
//! The client holds one lazily-(re)connected TCP connection *per replica
//! member*. Idempotent requests (probe, fetch, cancel, metrics, ping) are
//! retried through the shared [`RetryPolicy`] with jittered exponential
//! backoff; each retry spends a token from a client-wide [`RetryBudget`] so a
//! flapping server cannot trigger an unbounded retry storm. Submits are *not*
//! retried on transport failure by default (the script may have executed),
//! but `Overloaded` responses are always safely retryable because the server
//! sheds before executing anything.
//!
//! With more than one member configured, three resilience layers activate:
//!
//! * **Health-gated failover** — each member carries a consecutive-failure
//!   [`CircuitBreaker`]; transport failures fail over to a healthy sibling
//!   immediately, *without* spending the retry budget or sleeping a backoff,
//!   so a dead member costs one connect attempt instead of the whole
//!   schedule. Open breakers steer subsequent calls away until a half-open
//!   probe succeeds.
//! * **Hedged reads** — a fetch that has not answered within the hedge delay
//!   (configurable; default: the observed p99 of recent fetches via a
//!   [`LatencyWindow`]) fires a second request at another member and takes
//!   the first success, bounding tail latency under a slow shard.
//! * **Typed deadlines** — each call computes its absolute deadline once,
//!   every (re)encoded request carries the *remaining* milliseconds, socket
//!   timeouts are clamped to that remainder plus a small grace, and a retry
//!   loop that would sleep past the deadline returns the typed
//!   `DeadlineExceeded` (exit code 4) instead of burning budget past it.
//!
//! [`ClientStats`] snapshots the resilience counters (retries, failovers,
//! hedges fired/won, per-member breaker state) so harnesses can assert the
//! behavior instead of inferring it from timing.

use crate::proto::{read_frame, write_frame, ErrorCode, Request, Response, ServiceError};
use lima_core::resilience::{Attempt, CircuitBreaker, LatencyWindow, RetryBudget, RetryPolicy};
use lima_matrix::Value;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Extra socket-timeout slack beyond the request deadline, giving the server
/// room to deliver its typed `DeadlineExceeded` response.
const SOCKET_GRACE: Duration = Duration::from_millis(250);

/// Floor for socket timeouts (`set_read_timeout(Some(ZERO))` is an error).
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(10);

/// Hedge delay used before the latency window has any samples to estimate
/// a p99 from.
const DEFAULT_HEDGE_DELAY_MS: u64 = 25;

/// Samples retained by the adaptive hedge-delay estimator.
const LATENCY_WINDOW: usize = 256;

/// TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap of the client-wide retry token bucket.
const RETRY_BUDGET_CAP: u64 = 64;

/// Client-side failure taxonomy.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write) after any retries.
    Io(std::io::Error),
    /// The peer spoke, but not the protocol (bad frame, wrong request id).
    Protocol(String),
    /// A typed error from the service — including client-side deadline
    /// expiry, which is reported as [`ErrorCode::DeadlineExceeded`] so both
    /// ends share one exit-code mapping.
    Service(ServiceError),
}

impl ClientError {
    /// The machine-readable error code, when one exists.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Service(e) => Some(e.code),
            _ => None,
        }
    }

    /// Process exit code: the service code's mapping, or 1 for transport
    /// and protocol failures.
    pub fn exit_code(&self) -> u8 {
        self.code().map_or(1, ErrorCode::exit_code)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn deadline_error(msg: &str) -> ClientError {
    ClientError::Service(ServiceError::new(ErrorCode::DeadlineExceeded, 0, msg))
}

/// Tunables for a [`LimadClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Deadline applied when a call does not specify one.
    pub default_deadline: Duration,
    /// Backoff schedule shared by transport retries and overload retries.
    pub retry: RetryPolicy,
    /// Retry submits on transport failure. Off by default: a torn connection
    /// after the request was written may mean the script already ran.
    pub retry_submits: bool,
    /// Fixed delay before a fetch hedges against a second replica; `None`
    /// adapts to the observed fetch p99 (falling back to
    /// [`DEFAULT_HEDGE_DELAY_MS`] until samples accumulate).
    pub hedge_delay: Option<Duration>,
    /// Consecutive transport failures before a member's breaker opens
    /// (0 disables per-member health gating).
    pub breaker_failures: u32,
    /// Cooldown before an open member breaker grants a half-open probe.
    pub breaker_cooldown_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            default_deadline: Duration::from_secs(30),
            retry: RetryPolicy::new(4, 10, 0x11AD),
            retry_submits: false,
            hedge_delay: None,
            breaker_failures: 3,
            breaker_cooldown_ms: 200,
        }
    }
}

/// Per-submit knobs.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// System-seed base for reproducible `rand`/`sample` in the script.
    pub seed: Option<u64>,
    /// Output variables to return.
    pub outputs: Vec<String>,
    /// Overrides the client's default deadline for this call.
    pub deadline: Option<Duration>,
}

/// A completed submit.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// Server-assigned session id (target for [`LimadClient::cancel`]).
    pub session: u64,
    /// Requested output variables and their values.
    pub values: Vec<(String, Value)>,
    /// Collected `print` output.
    pub stdout: Vec<String>,
}

impl Submitted {
    /// The value of a named output, if returned.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }
}

/// Point-in-time snapshot of a client's resilience counters.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Budgeted retries performed (backoff sleeps, transport or overload).
    pub retries: u64,
    /// Calls moved to a different member (dead-member or overload failover).
    pub failovers: u64,
    /// Hedged secondary fetches fired after the hedge delay elapsed.
    pub hedges_fired: u64,
    /// Hedged fetches where the secondary answered first.
    pub hedges_won: u64,
    /// Per-member health, index-aligned with the configured replica list.
    pub members: Vec<MemberStats>,
}

/// Health counters for one replica member.
#[derive(Debug, Clone)]
pub struct MemberStats {
    /// The member's address as configured.
    pub addr: String,
    /// Transport failures attributed to this member.
    pub transport_failures: u64,
    /// Times this member's breaker transitioned closed → open.
    pub breaker_opens: u64,
    /// True while the breaker is open or half-open (member suspect).
    pub breaker_open: bool,
}

#[derive(Debug, Default)]
struct SharedCounters {
    retries: AtomicU64,
    failovers: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
}

/// Member state shared with hedge threads: address, breaker, counters.
#[derive(Debug)]
struct MemberShared {
    addr: String,
    breaker: CircuitBreaker,
    transport_failures: AtomicU64,
    breaker_opens: AtomicU64,
}

impl MemberShared {
    fn note_failure(&self) {
        self.transport_failures.fetch_add(1, Ordering::Relaxed);
        let was_open = self.breaker.is_open();
        self.breaker.record_failure();
        if !was_open && self.breaker.is_open() {
            self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct Member {
    shared: Arc<MemberShared>,
    conn: Option<TcpStream>,
}

/// A connection to a `limad` replica set (one or more members) on behalf of
/// one tenant.
#[derive(Debug)]
pub struct LimadClient {
    tenant: String,
    opts: ClientOptions,
    budget: RetryBudget,
    members: Vec<Member>,
    preferred: usize,
    stats: Arc<SharedCounters>,
    latency: Arc<LatencyWindow>,
    next_id: u64,
}

impl LimadClient {
    /// A client for a single server `addr` (e.g. `"127.0.0.1:7461"`)
    /// identifying as `tenant`. Connects lazily on the first call.
    pub fn new(addr: &str, tenant: &str, opts: ClientOptions) -> Self {
        Self::new_replicated(&[addr.to_string()], tenant, opts)
    }

    /// A client for a replica set. `addrs[0]` is the initially preferred
    /// member; calls fail over to healthy siblings and fetches hedge across
    /// members. An empty list is treated as a single unresolvable member so
    /// every call fails with a clear error instead of panicking.
    pub fn new_replicated(addrs: &[String], tenant: &str, opts: ClientOptions) -> Self {
        let budget = RetryBudget::new(RETRY_BUDGET_CAP);
        let mut members: Vec<Member> = addrs
            .iter()
            .map(|addr| Member {
                shared: Arc::new(MemberShared {
                    addr: addr.clone(),
                    breaker: CircuitBreaker::new(opts.breaker_failures, opts.breaker_cooldown_ms),
                    transport_failures: AtomicU64::new(0),
                    breaker_opens: AtomicU64::new(0),
                }),
                conn: None,
            })
            .collect();
        if members.is_empty() {
            members.push(Member {
                shared: Arc::new(MemberShared {
                    addr: "<no replica addresses>".to_string(),
                    breaker: CircuitBreaker::new(0, 0),
                    transport_failures: AtomicU64::new(0),
                    breaker_opens: AtomicU64::new(0),
                }),
                conn: None,
            });
        }
        LimadClient {
            tenant: tenant.to_string(),
            opts,
            budget,
            members,
            preferred: 0,
            stats: Arc::new(SharedCounters::default()),
            latency: Arc::new(LatencyWindow::new(LATENCY_WINDOW)),
            next_id: 0,
        }
    }

    /// Pins the initially tried member for subsequent calls (clamped to the
    /// member list). Chaos harnesses use this to steer load.
    pub fn set_preferred(&mut self, member: usize) {
        self.preferred = member.min(self.members.len() - 1);
    }

    /// Snapshot of the resilience counters.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            retries: self.stats.retries.load(Ordering::Relaxed),
            failovers: self.stats.failovers.load(Ordering::Relaxed),
            hedges_fired: self.stats.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.stats.hedges_won.load(Ordering::Relaxed),
            members: self
                .members
                .iter()
                .map(|m| MemberStats {
                    addr: m.shared.addr.clone(),
                    transport_failures: m.shared.transport_failures.load(Ordering::Relaxed),
                    breaker_opens: m.shared.breaker_opens.load(Ordering::Relaxed),
                    breaker_open: m.shared.breaker.is_open(),
                })
                .collect(),
        }
    }

    /// Runs a script and returns the requested outputs.
    pub fn submit(&mut self, script: &str, sub: &SubmitOptions) -> Result<Submitted, ClientError> {
        let deadline = self.deadline(sub.deadline);
        let tenant = self.tenant.clone();
        let script = script.to_string();
        let seed = sub.seed;
        let outputs = sub.outputs.clone();
        let resp = self.call(self.opts.retry_submits, deadline, move |deadline_ms| {
            Request::Submit {
                tenant: tenant.clone(),
                script: script.clone(),
                seed,
                outputs: outputs.clone(),
                deadline_ms,
            }
        })?;
        match resp {
            Response::Submitted {
                session,
                values,
                stdout,
            } => Ok(Submitted {
                session,
                values,
                stdout,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Does the routed shard hold a cached value for this serialized lineage?
    pub fn probe(&mut self, lineage: &str) -> Result<bool, ClientError> {
        let deadline = self.deadline(None);
        let tenant = self.tenant.clone();
        let lineage = lineage.to_string();
        let resp = self.call(true, deadline, move |deadline_ms| Request::Probe {
            tenant: tenant.clone(),
            lineage: lineage.clone(),
            deadline_ms,
        })?;
        match resp {
            Response::Probed { hit } => Ok(hit),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the cached value for this serialized lineage, if any. With
    /// multiple members and hedging enabled, a fetch that has not answered
    /// within the hedge delay races a second member; the first success wins.
    pub fn fetch(&mut self, lineage: &str) -> Result<Option<Value>, ClientError> {
        let deadline = self.deadline(None);
        let started = Instant::now();
        let res = if self.members.len() > 1 {
            self.fetch_hedged(lineage, deadline)
        } else {
            self.fetch_plain(lineage, deadline)
        };
        if res.is_ok() {
            self.latency
                .record((started.elapsed().as_millis() as u64).max(1));
        }
        res
    }

    /// Cancels a running session; `Ok(false)` means it was not found (it may
    /// have already finished).
    pub fn cancel(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.call(true, self.deadline(None), move |_| Request::Cancel {
            session,
        })? {
            Response::Cancelled { found } => Ok(found),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the aggregated Prometheus metrics text over the wire protocol
    /// (the server also exposes the same text as HTTP `GET /metrics`).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(true, self.deadline(None), |_| Request::Metrics)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: runs one full integrity-scrub pass over every shard's
    /// persistent store, returning per-shard findings. Idempotent — a scrub
    /// repairs or quarantines, never invents state — so it retries like the
    /// other read-side calls.
    pub fn scrub(&mut self) -> Result<Vec<crate::proto::ShardScrub>, ClientError> {
        match self.call(true, self.deadline(None), |_| Request::Scrub)? {
            Response::Scrubbed(reports) => Ok(reports),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(true, self.deadline(None), |_| Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    fn deadline(&self, per_call: Option<Duration>) -> Instant {
        Instant::now() + per_call.unwrap_or(self.opts.default_deadline)
    }

    /// First member from `start` on, other than `not`, whose breaker admits
    /// an attempt.
    fn admitted_from(&self, start: usize, not: Option<usize>) -> Option<usize> {
        let n = self.members.len();
        let admits = |&idx: &usize| {
            Some(idx) != not && self.members[idx].shared.breaker.allow() != Attempt::Rejected
        };
        (0..n).map(|off| (start + off) % n).find(admits)
    }

    /// First member from `start` whose breaker admits an attempt; falls back
    /// to `start` itself when every breaker is open (some member must be
    /// tried, and a rejected breaker only means "probably down").
    fn pick_member(&self, start: usize) -> usize {
        let start = start % self.members.len();
        self.admitted_from(start, None).unwrap_or(start)
    }

    /// A healthy member other than `not`, scanning from the preferred one.
    fn sibling_of(&self, not: usize) -> Option<usize> {
        self.admitted_from(self.preferred, Some(not))
    }

    /// The retry loop: re-encodes the request each attempt with the shrunken
    /// remaining deadline, fails over to healthy members after transport
    /// failures (free of budget for the first pass over the set), honors
    /// server `retry_after_ms` hints for overload responses, and returns the
    /// typed `DeadlineExceeded` rather than sleeping past the deadline.
    fn call(
        &mut self,
        idempotent: bool,
        deadline: Instant,
        make: impl Fn(u64) -> Request,
    ) -> Result<Response, ClientError> {
        let mut retries = 0u32;
        let max_retries = self.opts.retry.attempts;
        let mut member = self.pick_member(self.preferred);
        // One free (no token, no sleep) failover per sibling: a dead member
        // must not consume the whole backoff schedule before a healthy one
        // is even tried.
        let mut free_failovers = self.members.len().saturating_sub(1);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(deadline_error(
                    "deadline elapsed before the request was sent",
                ));
            }
            let remaining = deadline - now;
            let req = make((remaining.as_millis() as u64).max(1));
            match self.attempt_on(member, &req, remaining) {
                Ok(Response::Error(e)) if e.code.retryable() => {
                    // The member answered: healthy but shedding.
                    self.members[member].shared.breaker.record_success();
                    if !(retries < max_retries && self.budget.try_spend()) {
                        return Err(ClientError::Service(e));
                    }
                    let delay = self
                        .opts
                        .retry
                        .delay(retries)
                        .max(Duration::from_millis(e.retry_after_ms));
                    retries += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    if Instant::now() + delay >= deadline {
                        return Err(ClientError::Service(e));
                    }
                    std::thread::sleep(delay);
                    // Prefer a sibling for the retry: it may not be shedding.
                    if let Some(next) = self.sibling_of(member) {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        member = next;
                    }
                }
                Ok(Response::Error(e)) => {
                    self.members[member].shared.breaker.record_success();
                    return Err(ClientError::Service(e));
                }
                Ok(resp) => {
                    self.budget.record_success();
                    self.members[member].shared.breaker.record_success();
                    return Ok(resp);
                }
                Err(err) => {
                    // The connection is suspect after any failure; rebuild it
                    // on the next attempt.
                    self.members[member].conn = None;
                    let transient = matches!(&err, ClientError::Io(_));
                    if transient {
                        self.members[member].shared.note_failure();
                    }
                    if !transient || !idempotent {
                        return Err(err);
                    }
                    if free_failovers > 0 {
                        if let Some(next) = self.sibling_of(member) {
                            free_failovers -= 1;
                            self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                            member = next;
                            continue;
                        }
                    }
                    if !(retries < max_retries && self.budget.try_spend()) {
                        return Err(err);
                    }
                    let delay = self.opts.retry.delay(retries);
                    retries += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    if Instant::now() + delay >= deadline {
                        return Err(deadline_error(
                            "request deadline reached during transport retries",
                        ));
                    }
                    std::thread::sleep(delay);
                    member = self.pick_member(member);
                }
            }
        }
    }

    /// One wire round-trip to member `idx` within `remaining` time.
    fn attempt_on(
        &mut self,
        idx: usize,
        req: &Request,
        remaining: Duration,
    ) -> Result<Response, ClientError> {
        let member = &mut self.members[idx];
        if member.conn.is_none() {
            member.conn = Some(connect(&member.shared.addr)?);
        }
        let stream = member.conn.as_mut().ok_or_else(|| {
            ClientError::Protocol("connection vanished between connect and use".into())
        })?;
        self.next_id += 1;
        exchange(stream, req, self.next_id, remaining)
    }

    fn fetch_plain(
        &mut self,
        lineage: &str,
        deadline: Instant,
    ) -> Result<Option<Value>, ClientError> {
        let tenant = self.tenant.clone();
        let lineage = lineage.to_string();
        let resp = self.call(true, deadline, move |deadline_ms| Request::Fetch {
            tenant: tenant.clone(),
            lineage: lineage.clone(),
            deadline_ms,
        })?;
        match resp {
            Response::Fetched(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Hedged fetch: race the primary against the hedge timer; when the
    /// timer fires first (or the primary fails), fire the same fetch at a
    /// sibling and take the first success. Both legs run on one-shot
    /// connections so a slow loser can be abandoned without poisoning the
    /// pooled connections. Total failure falls back to the plain budgeted
    /// retry loop.
    fn fetch_hedged(
        &mut self,
        lineage: &str,
        deadline: Instant,
    ) -> Result<Option<Value>, ClientError> {
        let primary = self.pick_member(self.preferred);
        let Some(secondary) = self.sibling_of(primary) else {
            return self.fetch_plain(lineage, deadline);
        };
        let hedge_delay = self.opts.hedge_delay.unwrap_or_else(|| {
            Duration::from_millis(
                self.latency
                    .quantile(0.99)
                    .unwrap_or(DEFAULT_HEDGE_DELAY_MS)
                    .max(1),
            )
        });

        let (tx, rx) = mpsc::channel::<(usize, Result<Response, ClientError>)>();
        self.spawn_leg(primary, 0, lineage, deadline, tx.clone());
        let mut pending = 1usize;
        let mut fired = false;
        let mut hedged = false; // fired due to the timer (vs primary failure)
        let mut failure: Option<ClientError> = None;

        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = if fired {
                deadline - now
            } else {
                hedge_delay.min(deadline - now)
            };
            match rx.recv_timeout(wait) {
                Ok((leg, Ok(Response::Fetched(v)))) => {
                    if leg == 1 && hedged {
                        self.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
                    }
                    self.budget.record_success();
                    return Ok(v);
                }
                Ok((_, Ok(Response::Error(e)))) if !e.code.retryable() => {
                    // Authoritative verdict (bad lineage, cancelled, ...).
                    return Err(ClientError::Service(e));
                }
                Ok((_, Ok(other))) => {
                    pending -= 1;
                    failure.get_or_insert(unexpected(&other));
                }
                Ok((_, Err(e))) => {
                    pending -= 1;
                    failure.get_or_insert(e);
                }
                Err(mpsc::RecvTimeoutError::Timeout) if !fired => {
                    // The hedge timer elapsed with the primary still silent.
                }
                Err(_) => break,
            }
            if !fired {
                fired = true;
                hedged = pending > 0; // timer-fired hedge, not a failover
                if hedged {
                    self.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                }
                self.spawn_leg(secondary, 1, lineage, deadline, tx.clone());
                pending += 1;
            }
            if pending == 0 {
                break;
            }
        }
        drop(tx);
        // Both legs failed (or the deadline is gone): one plain budgeted
        // pass decides the final answer with the usual typed errors.
        match failure {
            Some(ClientError::Service(e)) => Err(ClientError::Service(e)),
            _ => self.fetch_plain(lineage, deadline),
        }
    }

    fn spawn_leg(
        &self,
        idx: usize,
        leg: usize,
        lineage: &str,
        deadline: Instant,
        tx: mpsc::Sender<(usize, Result<Response, ClientError>)>,
    ) {
        let shared = Arc::clone(&self.members[idx].shared);
        let remaining = deadline.saturating_duration_since(Instant::now());
        let req = Request::Fetch {
            tenant: self.tenant.clone(),
            lineage: lineage.to_string(),
            deadline_ms: (remaining.as_millis() as u64).max(1),
        };
        // One self-contained fetch on a fresh connection.
        std::thread::spawn(move || {
            let res = if remaining.is_zero() {
                Err(deadline_error("deadline elapsed before the hedged fetch"))
            } else {
                connect(&shared.addr)
                    .and_then(|mut stream| exchange(&mut stream, &req, 1, remaining))
            };
            match &res {
                Ok(_) => shared.breaker.record_success(),
                Err(ClientError::Io(_)) => shared.note_failure(),
                Err(_) => {}
            }
            let _ = tx.send((leg, res));
        });
    }
}

/// A no-delay connection to `addr`.
fn connect(addr: &str) -> Result<TcpStream, ClientError> {
    let mut socks = addr.to_socket_addrs().map_err(ClientError::Io)?;
    let unresolvable = || ClientError::Protocol(format!("unresolvable addr {addr}"));
    let sock = socks.next().ok_or_else(unresolvable)?;
    let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT).map_err(ClientError::Io)?;
    stream.set_nodelay(true).map_err(ClientError::Io)?;
    Ok(stream)
}

/// One request as frame `id` and its response, within `remaining` time.
fn exchange(
    stream: &mut TcpStream,
    req: &Request,
    id: u64,
    remaining: Duration,
) -> Result<Response, ClientError> {
    let timeout = Some((remaining + SOCKET_GRACE).max(MIN_SOCKET_TIMEOUT));
    stream.set_read_timeout(timeout).map_err(ClientError::Io)?;
    stream.set_write_timeout(timeout).map_err(ClientError::Io)?;
    let (kind, payload) = req.encode();
    write_frame(stream, kind, id, &payload).map_err(|e| map_io(e, remaining))?;
    let (rkind, rid, rpayload) = read_frame(stream).map_err(|e| map_io(e, remaining))?;
    if rid != id {
        return Err(ClientError::Protocol(format!(
            "response id {rid} does not match request id {id}"
        )));
    }
    Response::decode(rkind, &rpayload)
        .ok_or_else(|| ClientError::Protocol(format!("undecodable response kind {rkind:#x}")))
}

/// A socket timeout while the deadline budget is gone is a deadline, not a
/// transport flake — report it with the shared typed code.
fn map_io(e: std::io::Error, remaining: Duration) -> ClientError {
    let timed_out = matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    );
    if timed_out && remaining <= SOCKET_GRACE + MIN_SOCKET_TIMEOUT {
        deadline_error("timed out waiting for the server response")
    } else if timed_out {
        deadline_error("socket timeout at the request deadline")
    } else {
        ClientError::Io(e)
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response variant: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn options(attempts: u32) -> ClientOptions {
        ClientOptions {
            retry: RetryPolicy::new(attempts, 1, 9),
            default_deadline: Duration::from_secs(5),
            ..ClientOptions::default()
        }
    }

    /// A one-shot server thread that answers `n` connections with the given
    /// behaviour and then exits.
    fn serve(
        listener: TcpListener,
        conns: usize,
        behave: impl Fn(usize, TcpStream) + Send + 'static,
    ) {
        std::thread::spawn(move || {
            for i in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                behave(i, stream);
            }
        });
    }

    fn answer(mut stream: TcpStream, resp: &Response) {
        let (kind, id, _payload) = read_frame(&mut stream).unwrap();
        assert!(Request::decode(kind, &_payload).is_some());
        let (rkind, rpayload) = resp.encode();
        write_frame(&mut stream, rkind, id, &rpayload).unwrap();
    }

    /// Serves every connection on a thread of its own (hedge legs open
    /// fresh connections concurrently).
    fn serve_each(listener: TcpListener, behave: impl Fn(TcpStream) + Send + Sync + 'static) {
        let behave = Arc::new(behave);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let behave = Arc::clone(&behave);
                std::thread::spawn(move || behave(stream));
            }
        });
    }

    #[test]
    fn ping_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve(listener, 1, |_, stream| answer(stream, &Response::Pong));
        let mut client = LimadClient::new(&addr, "t", options(0));
        client.ping().unwrap();
    }

    #[test]
    fn idempotent_calls_reconnect_after_connection_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // First connection: read the request, then drop without answering.
        serve(listener, 2, |i, mut stream| {
            if i == 0 {
                let mut buf = [0u8; 64];
                let _ = stream.read(&mut buf);
                drop(stream);
            } else {
                answer(stream, &Response::Probed { hit: true });
            }
        });
        let mut client = LimadClient::new(&addr, "t", options(3));
        assert!(client.probe("(1) L f:1").unwrap());
    }

    #[test]
    fn submits_do_not_retry_transport_failures_by_default() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve(listener, 1, |_, mut stream| {
            let mut buf = [0u8; 64];
            let _ = stream.read(&mut buf);
            drop(stream);
        });
        let mut client = LimadClient::new(&addr, "t", options(3));
        let err = client
            .submit("s = 1;", &SubmitOptions::default())
            .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
    }

    #[test]
    fn overloaded_responses_are_retried_with_hint() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let overloaded = Response::Error(ServiceError::new(ErrorCode::Overloaded, 5, "shedding"));
        serve(listener, 1, move |_, mut stream| {
            // Same connection: shed twice, then accept.
            for round in 0..3 {
                let (kind, id, payload) = read_frame(&mut stream).unwrap();
                assert!(Request::decode(kind, &payload).is_some());
                let resp = if round < 2 {
                    overloaded.clone()
                } else {
                    Response::Probed { hit: false }
                };
                let (rkind, rpayload) = resp.encode();
                write_frame(&mut stream, rkind, id, &rpayload).unwrap();
            }
        });
        let mut client = LimadClient::new(&addr, "t", options(3));
        assert!(!client.probe("(1) L f:1").unwrap());
        assert!(
            client.budget.remaining() < 64,
            "retries should spend budget"
        );
        assert_eq!(client.stats().retries, 2);
    }

    #[test]
    fn typed_server_errors_are_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve(listener, 1, |_, stream| {
            answer(
                stream,
                &Response::Error(ServiceError::new(ErrorCode::Cancelled, 0, "cancelled")),
            );
        });
        let mut client = LimadClient::new(&addr, "t", options(3));
        let err = client.probe("(1) L f:1").unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Cancelled));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn malformed_response_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve(listener, 1, |_, mut stream| {
            let (_, _, _) = read_frame(&mut stream).unwrap();
            let _ = stream.write_all(b"this is not a frame at all, sorry!!!");
        });
        let mut client = LimadClient::new(&addr, "t", options(0));
        let err = client.ping().unwrap_err();
        assert!(
            matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn client_side_deadline_maps_to_typed_code() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Server accepts but never answers.
        serve(listener, 1, |_, stream| {
            std::thread::sleep(Duration::from_millis(900));
            drop(stream);
        });
        let mut opts = options(0);
        opts.default_deadline = Duration::from_millis(120);
        let mut client = LimadClient::new(&addr, "t", opts);
        let err = client.ping().unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
        assert_eq!(err.exit_code(), 4);
    }

    /// Satellite: transport-error retries must re-check the remaining
    /// deadline before sleeping and surface the typed `deadline` (exit 4)
    /// instead of burning the backoff schedule past it.
    #[test]
    fn transport_retries_respect_deadline() {
        // A listener that accepts and instantly drops every connection: each
        // attempt fails fast with a transport error, so only the backoff
        // schedule can eat the clock.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        serve(listener, 64, |_, mut stream| {
            let mut buf = [0u8; 8];
            let _ = stream.read(&mut buf);
            drop(stream);
        });
        let mut opts = ClientOptions {
            // Backoff far larger than the deadline: the first retry's sleep
            // would sail past it.
            retry: RetryPolicy::new(8, 400, 9),
            default_deadline: Duration::from_millis(150),
            ..ClientOptions::default()
        };
        opts.breaker_failures = 0; // keep every attempt on the one member
        let mut client = LimadClient::new(&addr, "t", opts);
        let started = Instant::now();
        let err = client.probe("(1) L f:1").unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded), "got {err:?}");
        assert_eq!(err.exit_code(), 4);
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "retries slept past the deadline: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn failover_reaches_healthy_sibling_without_spending_budget() {
        // Member 0: a bound-then-dropped port (connection refused).
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        // Member 1: answers.
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap().to_string();
        serve(live, 1, |_, stream| {
            answer(stream, &Response::Probed { hit: true })
        });
        let mut client = LimadClient::new_replicated(&[dead_addr, live_addr], "t", options(3));
        assert!(client.probe("(1) L f:1").unwrap());
        let stats = client.stats();
        assert!(stats.failovers >= 1, "stats: {stats:?}");
        assert_eq!(stats.retries, 0, "failover must not spend retries");
        assert_eq!(
            client.budget.remaining(),
            64,
            "failover must not spend budget"
        );
        assert!(stats.members[0].transport_failures >= 1);
        assert_eq!(stats.members[1].transport_failures, 0);
    }

    #[test]
    fn open_breaker_steers_calls_away_from_dead_member() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap().to_string();
        serve(live, 16, |_, stream| {
            answer(stream, &Response::Probed { hit: false })
        });
        let mut opts = options(3);
        opts.breaker_failures = 2;
        opts.breaker_cooldown_ms = 60_000; // stays open for the test
        let mut client = LimadClient::new_replicated(&[dead_addr, live_addr], "t", opts);
        for _ in 0..6 {
            assert!(!client.probe("(1) L f:1").unwrap());
        }
        let stats = client.stats();
        assert!(stats.members[0].breaker_open, "stats: {stats:?}");
        assert_eq!(stats.members[0].breaker_opens, 1);
        // Once open, later calls go straight to the healthy member: the dead
        // one saw only the failures needed to trip the breaker.
        assert!(stats.members[0].transport_failures <= 2);
    }

    #[test]
    fn hedged_fetch_wins_on_slow_primary() {
        let fetched = Response::Fetched(Some(Value::f64(6.5)));
        // Primary: answers correctly but only after a long stall.
        let slow = TcpListener::bind("127.0.0.1:0").unwrap();
        let slow_addr = slow.local_addr().unwrap().to_string();
        let slow_resp = fetched.clone();
        serve_each(slow, move |mut stream| {
            let Ok((_, id, _)) = read_frame(&mut stream) else {
                return;
            };
            std::thread::sleep(Duration::from_millis(600));
            let (rkind, rpayload) = slow_resp.encode();
            let _ = write_frame(&mut stream, rkind, id, &rpayload);
        });
        // Secondary: answers immediately.
        let fast = TcpListener::bind("127.0.0.1:0").unwrap();
        let fast_addr = fast.local_addr().unwrap().to_string();
        let fast_resp = fetched.clone();
        serve_each(fast, move |mut stream| {
            let Ok((_, id, _)) = read_frame(&mut stream) else {
                return;
            };
            let (rkind, rpayload) = fast_resp.encode();
            let _ = write_frame(&mut stream, rkind, id, &rpayload);
        });
        let mut opts = options(0);
        opts.hedge_delay = Some(Duration::from_millis(30));
        let mut client = LimadClient::new_replicated(&[slow_addr, fast_addr], "t", opts);
        let started = Instant::now();
        let v = client.fetch("(1) L f:1").unwrap();
        assert_eq!(v, Some(Value::f64(6.5)));
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "hedge did not bound the slow primary: {:?}",
            started.elapsed()
        );
        let stats = client.stats();
        assert_eq!(stats.hedges_fired, 1, "stats: {stats:?}");
        assert_eq!(stats.hedges_won, 1, "stats: {stats:?}");
    }

    #[test]
    fn stats_snapshot_is_zero_for_untouched_client() {
        let client = LimadClient::new("127.0.0.1:1", "t", options(0));
        let stats = client.stats();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.hedges_fired, 0);
        assert_eq!(stats.hedges_won, 0);
        assert_eq!(stats.members.len(), 1);
        assert!(!stats.members[0].breaker_open);
    }
}
