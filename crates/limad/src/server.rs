//! The `limad` TCP server: thread-per-connection frame loop, request
//! dispatch, tenant quotas, and overload shedding.
//!
//! Failure semantics, in one place:
//!
//! * **Malformed frames** (bad magic, checksum mismatch, oversized payload,
//!   undecodable payloads) earn a typed `BadRequest` response and close
//!   *that connection only* — the shard behind it is untouched.
//! * **Overload** is shed before execution: a submit routed to a shard whose
//!   governor sits at L3 (`NoAdmission`) or above is answered with a typed
//!   `Overloaded` error carrying a retry-after hint. A session admission
//!   rejected by the pool at L4 maps to the same code. The server never
//!   hangs or aborts under pressure.
//! * **Tenant quotas** bound concurrent in-flight submits per tenant;
//!   excess earns `ResourceExhausted` (a client bug or abuse, distinct from
//!   `Overloaded` which is the server's own state).
//! * **Deadlines** propagate from the wire into the session's cooperative
//!   deadline; an expired session returns `DeadlineExceeded`, a cancelled
//!   one `Cancelled`.
//! * **Sessions run on their connection's thread**, on a program taken from
//!   the shard's program cache (compiled on first sight only). A session
//!   that panics is caught by the pool and answered as a typed `Runtime`
//!   error; the connection serves its next request.
//! * **Chaos hooks**: the configured fault injector's `ConnDrop` site tears
//!   the connection instead of writing a response; `SlowShard` (keyed by
//!   shard index) stalls one shard's dispatch so tail-latency and
//!   sibling-isolation assertions have a deterministic target.

use crate::metrics::{metrics_text, serve_metrics};
use crate::repl::{ReplOptions, Replicator};
use crate::shard::{CacheShard, ShardSet};
use lima_client::proto::{
    read_frame, write_frame, ErrorCode, Request, Response, ServiceError, ShardScrub,
};
use lima_core::faults::{FaultSite, SLOW_SHARD_DELAY_MS};
use lima_core::interrupt::CancelToken;
use lima_core::{LimaConfig, LimaStats, PressureLevel};
use lima_runtime::{RuntimeError, SessionOptions};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked accept/read loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Read timeout applied while receiving the body of a frame whose first byte
/// has arrived; a peer stalling longer mid-frame is treated as torn.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Retry-after hint attached to `Overloaded` responses.
const RETRY_AFTER_MS: u64 = 50;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct LimadConfig {
    /// Wire-protocol listen address (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Metrics (HTTP `GET /metrics`) listen address.
    pub metrics_listen: String,
    /// Number of cache shards.
    pub shards: usize,
    /// Per-shard LIMA configuration template (faults ride along here).
    pub template: LimaConfig,
    /// Root directory for per-shard persistence (`shard-<i>` subdirs);
    /// `None` runs memory-only.
    pub persist_root: Option<PathBuf>,
    /// Concurrent in-flight submits allowed per tenant; 0 = unlimited.
    pub tenant_max_sessions: usize,
    /// Deadline applied to submits that carry `deadline_ms == 0`.
    pub default_deadline_ms: u64,
    /// Delay between background integrity-scrub chunks per shard; 0 disables
    /// the background scrubber (admin `Scrub` requests still work).
    pub scrub_interval_ms: u64,
    /// Byte budget handed to each background scrub chunk.
    pub scrub_chunk_bytes: u64,
    /// Replication tuning; `None` runs the member standalone (replication
    /// wire ops still answer, so a standalone member can seed a new group).
    pub repl: Option<ReplOptions>,
}

impl Default for LimadConfig {
    fn default() -> Self {
        LimadConfig {
            listen: "127.0.0.1:0".into(),
            metrics_listen: "127.0.0.1:0".into(),
            shards: 4,
            template: LimaConfig::lima(),
            persist_root: None,
            tenant_max_sessions: 8,
            default_deadline_ms: 30_000,
            scrub_interval_ms: 500,
            scrub_chunk_bytes: 4 * 1024 * 1024,
            repl: None,
        }
    }
}

/// State shared by every connection thread.
pub(crate) struct Inner {
    pub(crate) cfg: LimadConfig,
    pub(crate) shards: ShardSet,
    /// Server-level counters (`srv_*`, `repl_*`, `ae_*`); shard counters
    /// live in each shard. Shared with the replicator's background threads.
    pub(crate) stats: Arc<LimaStats>,
    /// Replication state when this member runs in a replica group.
    pub(crate) repl: Option<Arc<Replicator>>,
    /// In-flight submit count per tenant.
    tenants: Mutex<HashMap<String, usize>>,
    /// Cancel tokens of running sessions, by server-assigned id.
    sessions: Mutex<HashMap<u64, Arc<CancelToken>>>,
    next_session: AtomicU64,
    pub(crate) shutdown: AtomicBool,
}

/// Decrements a tenant's in-flight count on drop, so every submit exit path
/// (success, typed error, panic unwind) releases its quota slot.
struct QuotaSlot<'a> {
    inner: &'a Inner,
    tenant: &'a str,
}

impl Drop for QuotaSlot<'_> {
    fn drop(&mut self) {
        let mut tenants = self.inner.tenants.lock();
        if let Some(count) = tenants.get_mut(self.tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                tenants.remove(self.tenant);
            }
        }
    }
}

/// Removes a session's cancel token from the registry on drop.
struct SessionSlot<'a> {
    inner: &'a Inner,
    id: u64,
}

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        self.inner.sessions.lock().remove(&self.id);
    }
}

fn err(code: ErrorCode, msg: impl Into<String>) -> Response {
    Response::Error(ServiceError::new(code, 0, msg))
}

/// A compile failure with its source-anchored diagnostics attached, so the
/// client can render caret snippets against the script it submitted.
fn compile_err(e: &lima_lang::CompileError) -> Response {
    Response::Error(ServiceError {
        code: ErrorCode::Compile,
        retry_after_ms: 0,
        msg: e.to_string(),
        diagnostics: e.diagnostics(),
    })
}

impl Inner {
    fn overloaded(&self, msg: impl Into<String>) -> Response {
        Response::Error(ServiceError::new(
            ErrorCode::Overloaded,
            RETRY_AFTER_MS,
            msg,
        ))
    }

    /// Injected per-shard stall (chaos `SlowShard` site, keyed by index).
    fn maybe_stall(&self, shard: &CacheShard) {
        if let Some(faults) = &self.cfg.template.faults {
            if faults.should_fail_at(FaultSite::SlowShard, shard.index() as u64) {
                std::thread::sleep(Duration::from_millis(SLOW_SHARD_DELAY_MS));
            }
        }
    }

    fn dispatch(&self, req: Request) -> Response {
        match req {
            Request::Submit {
                tenant,
                script,
                seed,
                outputs,
                deadline_ms,
            } => self.submit(&tenant, &script, seed, &outputs, deadline_ms),
            Request::Probe { ref lineage, .. } | Request::Fetch { ref lineage, .. } => {
                match lima_core::lineage::deserialize_lineage(lineage) {
                    Err(e) => err(ErrorCode::BadRequest, format!("unparseable lineage: {e}")),
                    Ok(root) => match (self.lookup(&root), req) {
                        (found, Request::Probe { .. }) => Response::Probed {
                            hit: found.is_some(),
                        },
                        (found, _) => Response::Fetched(found),
                    },
                }
            }
            Request::Cancel { session } => {
                let found = self.sessions.lock().get(&session).map(|t| t.cancel());
                Response::Cancelled {
                    found: found.is_some(),
                }
            }
            Request::Metrics => Response::MetricsText(metrics_text(self)),
            Request::Ping => Response::Pong,
            Request::Scrub => Response::Scrubbed(self.scrub_all()),
            // Replication ops are served whether or not this member runs a
            // replicator of its own: a standalone member can always be read
            // from (digest/pull) or written to (put) by a peer.
            Request::ReplPut { records } => {
                let applied = records
                    .iter()
                    .filter(|rec| crate::repl::apply_record(self, rec, false))
                    .count() as u32;
                let rejected = records.len() as u32 - applied;
                Response::ReplAck { applied, rejected }
            }
            Request::ReplDigest { buckets } => {
                Response::ReplDigests(crate::repl::local_digests(&self.shards, buckets))
            }
            Request::ReplPull { bucket, buckets } => {
                Response::ReplEntries(crate::repl::export_entries(&self.shards, bucket, buckets))
            }
        }
    }

    /// One synchronous, full integrity pass over every shard (admin `Scrub`
    /// wire op). Each shard's pass drives `scrub_step` until the cursor
    /// wraps; a shard paused by its governor (or without an active store)
    /// reports `completed: false` rather than blocking the connection.
    fn scrub_all(&self) -> Vec<ShardScrub> {
        self.shards
            .iter()
            .map(|shard| scrub_shard_pass(shard, self.cfg.scrub_chunk_bytes))
            .collect()
    }

    /// Cache lookup for one lineage trace. Submits route by *script* hash,
    /// so an entry lives on whichever shard ran the creating script; the
    /// lineage-routed shard is checked first (the stable address for
    /// entries fetched repeatedly), then the peers.
    fn lookup(&self, root: &lima_core::lineage::LinRef) -> Option<lima_matrix::Value> {
        let preferred = self.shards.route_lineage(root);
        self.maybe_stall(preferred);
        if let Some(v) = preferred.cache().and_then(|c| c.peek(root)) {
            return Some(v);
        }
        self.shards
            .iter()
            .filter(|s| s.index() != preferred.index())
            .find_map(|s| s.cache().and_then(|c| c.peek(root)))
    }

    fn submit(
        &self,
        tenant: &str,
        script: &str,
        seed: Option<u64>,
        outputs: &[String],
        deadline_ms: u64,
    ) -> Response {
        // Tenant quota first: cheap, and abuse must not reach a shard.
        let _slot = {
            let max = self.cfg.tenant_max_sessions;
            let mut tenants = self.tenants.lock();
            let count = tenants.entry(tenant.to_string()).or_insert(0);
            if max > 0 && *count >= max {
                drop(tenants);
                LimaStats::bump(&self.stats.srv_quota_rejects);
                return err(
                    ErrorCode::ResourceExhausted,
                    format!("tenant '{tenant}' at its quota of {max} concurrent sessions"),
                );
            }
            *count += 1;
            drop(tenants);
            QuotaSlot {
                inner: self,
                tenant,
            }
        };

        let (shard, script_hash) = self.shards.route_script(script);
        self.maybe_stall(shard);

        // Shed before compiling: at L3 the shard's cache admits nothing new,
        // so running more sessions only deepens the pressure.
        if let Some(g) = shard.governor() {
            if g.level() >= PressureLevel::NoAdmission {
                LimaStats::bump(&self.stats.srv_sheds);
                return self.overloaded(format!(
                    "shard {} shedding at {}",
                    shard.index(),
                    g.level().as_str()
                ));
            }
        }

        let program = match shard.program(script_hash, script) {
            Ok(p) => p,
            Err(e) => return compile_err(&e),
        };

        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let token = Arc::new(CancelToken::default());
        self.sessions.lock().insert(id, Arc::clone(&token));
        let _session_slot = SessionSlot { inner: self, id };

        let deadline = if deadline_ms > 0 {
            deadline_ms
        } else {
            self.cfg.default_deadline_ms
        };
        let mut opts = SessionOptions::new()
            .with_token(token)
            .with_timeout(Duration::from_millis(deadline));
        opts.seed = seed;

        match shard.pool().run(&program, opts) {
            Ok(outcome) => {
                let mut values = Vec::with_capacity(outputs.len());
                for name in outputs {
                    match outcome.values.get(name.as_str()) {
                        Some(v) => values.push((name.clone(), v.clone())),
                        None => {
                            return err(
                                ErrorCode::Runtime,
                                format!("requested output '{name}' was not produced"),
                            )
                        }
                    }
                }
                Response::Submitted {
                    session: id,
                    values,
                    stdout: outcome.stdout,
                }
            }
            Err(e) => self.map_runtime_error(e),
        }
    }

    /// Maps the runtime's typed errors to wire codes. Governor rejections
    /// become `Overloaded` (server state, retryable); everything else keeps
    /// its own identity.
    fn map_runtime_error(&self, e: RuntimeError) -> Response {
        match e {
            RuntimeError::DeadlineExceeded => err(ErrorCode::DeadlineExceeded, e.to_string()),
            RuntimeError::Cancelled => err(ErrorCode::Cancelled, e.to_string()),
            RuntimeError::ResourceExhausted(msg) => {
                LimaStats::bump(&self.stats.srv_sheds);
                self.overloaded(msg)
            }
            other => err(ErrorCode::Runtime, other.to_string()),
        }
    }
}

/// Cap on chunks per synchronous scrub pass, so a store that keeps growing
/// mid-pass cannot wedge an admin connection.
const MAX_SCRUB_CHUNKS: u32 = 100_000;

/// Drives one shard's scrub cursor through a complete wrap. Returns early
/// (with `completed: false`) when the governor pauses scrubbing or the
/// shard has no active persistent store.
fn scrub_shard_pass(shard: &CacheShard, chunk_bytes: u64) -> ShardScrub {
    let mut report = ShardScrub {
        shard: shard.index() as u32,
        ..ShardScrub::default()
    };
    let Some(cache) = shard.cache() else {
        return report;
    };
    for _ in 0..MAX_SCRUB_CHUNKS {
        match cache.scrub_step(chunk_bytes) {
            Some(out) => {
                report.bytes += out.bytes;
                report.entries += out.entries;
                report.corrupt += out.corrupt;
                report.repaired += out.repaired;
                report.repair_failures += out.repair_failures;
                report.quarantined += out.quarantined;
                if out.wrapped {
                    report.completed = true;
                    break;
                }
            }
            None => break,
        }
    }
    report
}

/// A running `limad` server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loops, cancels in-flight
/// sessions, and joins the listener threads; connection threads drain on
/// their next poll tick.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    metrics: Option<std::thread::JoinHandle<()>>,
    scrubbers: Vec<std::thread::JoinHandle<()>>,
    repl_threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds both listeners and starts serving.
    pub fn start(cfg: LimadConfig) -> std::io::Result<Server> {
        // std sets `SO_REUSEADDR` on Unix, so a restarted replica member
        // rebinds its port while its old connections sit in TIME_WAIT.
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = TcpListener::bind(&cfg.metrics_listen)?;
        metrics_listener.set_nonblocking(true)?;
        let metrics_addr = metrics_listener.local_addr()?;

        let shards = ShardSet::new(cfg.shards, &cfg.template, cfg.persist_root.as_deref());
        let stats = Arc::new(LimaStats::new());
        let repl = cfg
            .repl
            .clone()
            .map(|opts| Arc::new(Replicator::new(opts, Arc::clone(&stats))));
        let inner = Arc::new(Inner {
            cfg,
            shards,
            stats,
            repl,
            tenants: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });

        // Replication: hang a put-watcher on every shard's cache so each
        // entry the cache kept (admission may refuse an offered value)
        // is queued for forwarding. The watcher drops (and counts) under
        // governor pressure instead of queueing — replication must never add
        // pressure to a shard that is already shedding.
        if let Some(repl) = inner.repl.as_ref() {
            for shard in inner.shards.iter() {
                let Some(cache) = shard.cache() else { continue };
                let repl = Arc::clone(repl);
                let governor = shard.governor();
                let kept = Arc::downgrade(&cache);
                cache.set_put_watcher(Some(Arc::new(move |root, value, compute_ns| {
                    if matches!(value, lima_matrix::Value::List(_))
                        || !kept.upgrade().is_some_and(|c| c.contains(root))
                    {
                        return; // not wire-transportable, or not kept
                    }
                    if let Some(g) = &governor {
                        if g.level() >= PressureLevel::NoRewrites {
                            LimaStats::bump(&repl.stats.repl_queue_drops);
                            return;
                        }
                    }
                    repl.enqueue(root.clone(), value.clone(), compute_ns);
                })));
            }
        }

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("limad-accept".into())
            .spawn(move || accept_loop(&listener, &accept_inner))?;
        let metrics_inner = Arc::clone(&inner);
        let metrics = std::thread::Builder::new()
            .name("limad-metrics".into())
            .spawn(move || serve_metrics(&metrics_listener, &metrics_inner))?;

        // One background scrubber per shard: each re-verifies its own store
        // at the configured cadence, pausing automatically under governor
        // pressure (scrub_step refuses I/O at L2+).
        let mut scrubbers = Vec::new();
        if inner.cfg.scrub_interval_ms > 0 && inner.cfg.persist_root.is_some() {
            for i in 0..inner.shards.len() {
                let scrub_inner = Arc::clone(&inner);
                scrubbers.push(
                    std::thread::Builder::new()
                        .name(format!("limad-scrub-{i}"))
                        .spawn(move || scrub_loop(&scrub_inner, i))?,
                );
            }
        }

        // Replication background threads: the batch sender (it also drains
        // queue entries accumulated while peers are away) and the
        // anti-entropy loop.
        let mut repl_threads = Vec::new();
        if inner.repl.is_some() {
            let sender_inner = Arc::clone(&inner);
            repl_threads.push(
                std::thread::Builder::new()
                    .name("limad-repl-send".into())
                    .spawn(move || crate::repl::sender_loop(&sender_inner))?,
            );
            let ae_inner = Arc::clone(&inner);
            repl_threads.push(
                std::thread::Builder::new()
                    .name("limad-repl-ae".into())
                    .spawn(move || crate::repl::ae_loop(&ae_inner))?,
            );
        }

        Ok(Server {
            inner,
            addr,
            metrics_addr,
            accept: Some(accept),
            metrics: Some(metrics),
            scrubbers,
            repl_threads,
        })
    }

    /// The bound wire-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics (HTTP) address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The shard ring (test observability).
    pub fn shards(&self) -> &ShardSet {
        &self.inner.shards
    }

    /// Server-level `srv_*` counters (test observability).
    pub fn server_stats(&self) -> &LimaStats {
        &self.inner.stats
    }

    /// The aggregated metrics text also served at `GET /metrics`.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.inner)
    }

    /// This member's replicator, when replication is configured.
    pub fn replicator(&self) -> Option<Arc<Replicator>> {
        self.inner.repl.clone()
    }

    /// Points this member's replicator at its peers (no-op standalone).
    pub fn connect_peers(&self, addrs: Vec<String>) {
        if let Some(repl) = self.inner.repl.as_ref() {
            repl.set_peers(addrs);
        }
    }

    /// Sorted, deduplicated hashes of every replicable resident entry across
    /// all shards (the same lineage can be resident in several shards when
    /// overlapping scripts route to different shards) — two members
    /// converged iff their keyspace hashes are equal.
    pub fn keyspace_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self
            .inner
            .shards
            .iter()
            .filter_map(|s| s.cache())
            .flat_map(|c| c.replica_hashes())
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    }

    /// Stops accepting, cancels in-flight sessions, joins listener threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for token in self.inner.sessions.lock().values() {
            token.cancel();
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics.take() {
            let _ = t.join();
        }
        for t in self.scrubbers.drain(..) {
            let _ = t.join();
        }
        for t in self.repl_threads.drain(..) {
            let _ = t.join();
        }
        // Watchers hold the replicator (stats + queue only — no cycle back
        // to Inner), but clearing them makes teardown order obvious.
        for shard in self.inner.shards.iter() {
            if let Some(cache) = shard.cache() {
                cache.set_put_watcher(None);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Background scrubber for shard `index`: one byte-budgeted chunk per
/// interval, shutdown-responsive between chunks.
fn scrub_loop(inner: &Arc<Inner>, index: usize) {
    let interval = Duration::from_millis(inner.cfg.scrub_interval_ms);
    while !inner.shutdown.load(Ordering::SeqCst) {
        let mut waited = Duration::ZERO;
        while waited < interval && !inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
            waited += POLL;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(cache) = inner.shards.get(index).and_then(|s| s.cache()) {
            let _ = cache.scrub_step(inner.cfg.scrub_chunk_bytes);
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name("limad-conn".into())
                    .spawn(move || handle_connection(stream, &conn_inner));
                // Thread exhaustion sheds the connection, not the server.
                drop(spawned);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One connection's frame loop. Returns (closing the connection) on EOF,
/// torn frames, malformed input, injected connection drops, and shutdown.
fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    while !inner.shutdown.load(Ordering::SeqCst) {
        // Poll for the first byte so shutdown stays responsive, then switch
        // to the frame timeout for the remainder of the frame.
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let mut first = [0u8; 1];
        match Read::read(&mut stream, &mut first) {
            Ok(0) => return, // clean EOF at a frame boundary
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        if stream.set_read_timeout(Some(FRAME_TIMEOUT)).is_err() {
            return;
        }
        let frame = {
            let mut chained = (&first[..]).chain(&stream);
            read_frame(&mut chained)
        };
        let (kind, id, payload) = match frame {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Malformed frame: answer with a typed error, then isolate
                // by closing this connection. Framing is unrecoverable.
                LimaStats::bump(&inner.stats.srv_malformed);
                let resp = err(ErrorCode::BadRequest, e.to_string());
                let (rkind, rpayload) = resp.encode();
                let _ = write_frame(&mut stream, rkind, 0, &rpayload);
                return;
            }
            Err(_) => return, // torn mid-frame or timed out
        };

        // Shutdown may have flipped while we were blocked reading the frame;
        // drop the connection instead of serving one last request on a
        // half-torn-down server (the client's failover handles the close).
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        LimaStats::bump(&inner.stats.srv_requests);
        let resp = match Request::decode(kind, &payload) {
            Some(req) => inner.dispatch(req),
            None => {
                LimaStats::bump(&inner.stats.srv_malformed);
                err(
                    ErrorCode::BadRequest,
                    format!("undecodable request kind {kind:#x}"),
                )
            }
        };
        let close_after = matches!(
            &resp,
            Response::Error(e) if e.code == ErrorCode::BadRequest
        );

        // Chaos hook: tear the connection instead of responding.
        if let Some(faults) = &inner.cfg.template.faults {
            if faults.should_fail(FaultSite::ConnDrop) {
                LimaStats::bump(&inner.stats.srv_conn_drops);
                return;
            }
        }

        let (rkind, rpayload) = resp.encode();
        if write_frame(&mut stream, rkind, id, &rpayload).is_err() || close_after {
            return;
        }
    }
}
