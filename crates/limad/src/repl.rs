//! Asynchronous write replication and lineage-verified anti-entropy repair.
//!
//! Each `limad` member can be wired to a set of *peers* (the other members
//! of its replica group). Two mechanisms keep the members' caches close:
//!
//! * **Write replication** — a put-watcher on every shard's cache enqueues
//!   committed `(lineage, value)` pairs onto a bounded queue; a background
//!   sender batches them into `ReplPut` frames and forwards them to every
//!   peer. The queue *drops and counts* when full or when the shard's
//!   governor is shedding — replication is strictly best-effort and must
//!   never block or slow the submit hot path.
//! * **Anti-entropy** — a background loop periodically exchanges per-bucket
//!   digests (`ReplDigest`) of the resident keyspace with each peer and
//!   pulls (`ReplPull`) the buckets that differ, healing whatever the
//!   best-effort sender dropped (including everything missed while a member
//!   was down).
//!
//! Convergence is safe without any consensus because entries are
//! content-addressed by their deterministic lineage hash: two members can
//! only ever disagree about *presence*, never about the value bound to a
//! lineage. Applying a replicated record is therefore idempotent, and
//! "last write wins" degenerates to "any write wins".
//!
//! Incoming records are never trusted blindly: the lineage must parse, its
//! DAG must verify, and the value bytes must match the record's checksum.
//! A record whose bytes are damaged but whose lineage is intact is *repaired
//! locally* — the value is recomputed from the lineage via the same
//! [`lima_runtime::repair`] hook the persistence scrubber uses. The lineage
//! log is the authoritative replica; the shipped bytes are an optimization.

use crate::server::Inner;
use crate::shard::ShardSet;
use lima_client::proto::{read_frame, write_frame, BucketDigest, ReplRecord, Request, Response};
use lima_core::faults::mix;
use lima_core::lineage::{deserialize_lineage, serialize_lineage, verify_dag, LinRef};
use lima_core::resilience::{Attempt, CircuitBreaker};
use lima_core::LimaStats;
use lima_matrix::Value;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Ceiling on entries returned by one `ReplPull` response across all shards.
const PULL_MAX_ENTRIES: usize = 512;

/// Ceiling on approximate value bytes in one `ReplPull` response.
const PULL_MAX_BYTES: usize = 4 * 1024 * 1024;

/// How long the sender waits on an empty queue before re-checking shutdown.
const SENDER_IDLE: Duration = Duration::from_millis(50);

/// Max records batched into one `ReplPut` frame.
const BATCH: usize = 64;

/// Anti-entropy round interval.
const AE_INTERVAL: Duration = Duration::from_millis(250);

/// Digest buckets exchanged per anti-entropy round (`1..=MAX_REPL_BUCKETS`).
const AE_BUCKETS: u32 = 64;

/// TCP connect timeout towards peers.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A peer's breaker opens after this many consecutive failures and grants a
/// half-open probe after [`PEER_BREAKER_COOLDOWN_MS`].
const PEER_BREAKER_FAILURES: u32 = 3;
const PEER_BREAKER_COOLDOWN_MS: u64 = 500;

/// Replication tuning for one member.
#[derive(Debug, Clone)]
pub struct ReplOptions {
    /// This member's index within its replica group (labels metrics/logs).
    pub member: usize,
    /// Bounded replication queue length; overflow drops (and counts).
    pub queue_cap: usize,
    /// Read/write timeout for peer round-trips.
    pub io_timeout_ms: u64,
}

impl Default for ReplOptions {
    fn default() -> Self {
        ReplOptions {
            member: 0,
            queue_cap: 4096,
            io_timeout_ms: 2000,
        }
    }
}

/// One committed cache entry waiting to be forwarded.
struct QueuedRecord {
    root: LinRef,
    value: Value,
    compute_ns: u64,
}

/// A peer member: address, health breaker, and one cached connection.
struct Peer {
    addr: String,
    breaker: CircuitBreaker,
    conn: Mutex<Option<TcpStream>>,
}

/// Passive replication state shared by the watchers, the sender thread, the
/// AE thread, and the dispatch path. Owns no threads itself (the server
/// spawns and joins them) and holds no reference back to the server, so
/// there is no `Arc` cycle through the shard caches' put-watchers.
pub struct Replicator {
    opts: ReplOptions,
    /// The server's stats block (repl_*/ae_* counters live there).
    pub(crate) stats: Arc<LimaStats>,
    queue: Mutex<VecDeque<QueuedRecord>>,
    queued: Condvar,
    peers: Mutex<Vec<Arc<Peer>>>,
    /// Chaos hook: a paused replicator drops outbound batches and skips AE
    /// rounds, simulating a network partition without touching sockets.
    paused: AtomicBool,
}

impl Replicator {
    pub(crate) fn new(opts: ReplOptions, stats: Arc<LimaStats>) -> Replicator {
        Replicator {
            opts,
            stats,
            queue: Mutex::new(VecDeque::new()),
            queued: Condvar::new(),
            peers: Mutex::new(Vec::new()),
            paused: AtomicBool::new(false),
        }
    }

    /// The configured tuning.
    pub fn options(&self) -> &ReplOptions {
        &self.opts
    }

    /// Replaces the peer list (fresh breakers, fresh connections).
    pub fn set_peers(&self, addrs: Vec<String>) {
        let peers = addrs
            .into_iter()
            .map(|addr| {
                Arc::new(Peer {
                    addr,
                    breaker: CircuitBreaker::new(PEER_BREAKER_FAILURES, PEER_BREAKER_COOLDOWN_MS),
                    conn: Mutex::new(None),
                })
            })
            .collect();
        *self.peers.lock() = peers;
    }

    /// `(addr, healthy)` per peer; healthy = breaker not open.
    pub fn peer_states(&self) -> Vec<(String, bool)> {
        self.peers
            .lock()
            .iter()
            .map(|p| (p.addr.clone(), !p.breaker.is_open()))
            .collect()
    }

    /// Entries currently waiting in the replication queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().len()
    }

    /// Pauses (true) or resumes (false) outbound replication and AE.
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    /// True while outbound replication is paused.
    pub fn paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Enqueues one committed entry for forwarding. Never blocks: a full
    /// queue drops the record and counts the drop.
    pub(crate) fn enqueue(&self, root: LinRef, value: Value, compute_ns: u64) {
        let mut queue = self.queue.lock();
        if queue.len() >= self.opts.queue_cap {
            drop(queue);
            LimaStats::bump(&self.stats.repl_queue_drops);
            return;
        }
        queue.push_back(QueuedRecord {
            root,
            value,
            compute_ns,
        });
        drop(queue);
        LimaStats::bump(&self.stats.repl_enqueued);
        self.queued.notify_one();
    }

    /// Pops up to [`BATCH`] queued records, waiting up to `idle` when empty.
    fn take_batch(&self, idle: Duration) -> Vec<QueuedRecord> {
        let mut queue = self.queue.lock();
        if queue.is_empty() {
            let _ = self.queued.wait_for(&mut queue, idle);
        }
        let n = queue.len().min(BATCH);
        queue.drain(..n).collect()
    }

    fn peers_snapshot(&self) -> Vec<Arc<Peer>> {
        self.peers.lock().clone()
    }
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("member", &self.opts.member)
            .field("queue_depth", &self.queue_depth())
            .field("paused", &self.paused())
            .finish()
    }
}

/// One framed request/response round-trip to a peer over its cached
/// connection; any failure tears the cached connection down so the next
/// call reconnects.
fn peer_call(peer: &Peer, req: &Request, opts: &ReplOptions) -> std::io::Result<Response> {
    let mut slot = peer.conn.lock();
    if slot.is_none() {
        let addr = peer
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable peer {}", peer.addr)))?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        *slot = Some(stream);
    }
    let result = (|| {
        let stream = slot.as_mut().expect("connection just ensured");
        let timeout = Duration::from_millis(opts.io_timeout_ms.max(1));
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let (kind, payload) = req.encode();
        write_frame(stream, kind, 1, &payload)?;
        let (rkind, _, rpayload) = read_frame(stream)?;
        Response::decode(rkind, &rpayload)
            .ok_or_else(|| std::io::Error::other("undecodable peer response"))
    })();
    if result.is_err() {
        *slot = None;
    }
    result
}

/// Per-bucket digests of the member's resident keyspace: every shard's
/// replicable entry hashes, scrambled through [`mix`] and folded into
/// `buckets` (count, xor) pairs. The same lineage can be resident in
/// several shards (submits route by script, so overlapping scripts cache
/// shared sub-lineages independently); digests are over the deduplicated
/// *set* of hashes, since that is what the member can vouch for. Two
/// members hold the same resident keyspace iff their digest vectors match.
/// `buckets` is at least 1: the wire refuses 0, and AE uses [`AE_BUCKETS`].
pub(crate) fn local_digests(shards: &ShardSet, buckets: u32) -> Vec<BucketDigest> {
    let mut out = vec![BucketDigest::default(); buckets as usize];
    let mut seen = std::collections::HashSet::new();
    for shard in shards.iter() {
        if let Some(cache) = shard.cache() {
            for h in cache.replica_hashes() {
                if !seen.insert(h) {
                    continue;
                }
                let m = mix(h);
                let b = (m % u64::from(buckets)) as usize;
                out[b].count += 1;
                out[b].xor ^= m;
            }
        }
    }
    out
}

/// Serializes every resident entry of one digest bucket, capped by entry
/// count and approximate bytes so one pull cannot balloon into an
/// arbitrarily large frame.
pub(crate) fn export_entries(shards: &ShardSet, bucket: u32, buckets: u32) -> Vec<ReplRecord> {
    let mut out = Vec::new();
    let mut budget_entries = PULL_MAX_ENTRIES;
    let mut budget_bytes = PULL_MAX_BYTES;
    let mut seen = std::collections::HashSet::new();
    for shard in shards.iter() {
        if budget_entries == 0 || budget_bytes == 0 {
            break;
        }
        let Some(cache) = shard.cache() else { continue };
        for (root, value, compute_ns) in
            cache.export_bucket(bucket as u64, buckets as u64, budget_entries, budget_bytes)
        {
            // A lineage resident in several shards exports once.
            if !seen.insert(root.hash_value()) {
                continue;
            }
            let approx = match &value {
                Value::Matrix(m) => m.rows() * m.cols() * 8,
                _ => 64,
            };
            budget_entries = budget_entries.saturating_sub(1);
            budget_bytes = budget_bytes.saturating_sub(approx);
            out.push(ReplRecord::new(serialize_lineage(&root), value, compute_ns));
        }
    }
    out
}

/// Validates and applies one replicated record. Returns true when the entry
/// is present locally afterwards (freshly applied, repaired, or already
/// held), false when the record was rejected.
///
/// Trust boundary: the lineage must deserialize, its DAG must verify, and
/// the value must be wire-transportable. Damaged value bytes fall back to
/// recomputing from the (verified) lineage.
pub(crate) fn apply_record(inner: &Inner, rec: &ReplRecord, via_ae: bool) -> bool {
    let stats = &inner.stats;
    let Ok(root) = deserialize_lineage(&rec.lineage) else {
        LimaStats::bump(&stats.repl_rejected);
        return false;
    };
    if verify_dag(&root).is_err() {
        LimaStats::bump(&stats.repl_rejected);
        return false;
    }
    let shard = inner.shards.route_lineage(&root);
    let Some(cache) = shard.cache() else {
        LimaStats::bump(&stats.repl_rejected);
        return false;
    };
    if cache.contains(&root) {
        // Idempotent duplicate: already resident, nothing to do.
        return true;
    }
    if matches!(rec.value, Value::List(_)) {
        LimaStats::bump(&stats.repl_rejected);
        return false;
    }
    let value = if rec.verify_bytes() {
        rec.value.clone()
    } else {
        // The lineage checked out but the bytes did not: recompute locally.
        // The lineage log is the replica of record; shipped bytes are only
        // a shortcut.
        match lima_runtime::repair::registry_repairer(shard.pool().data()).repair(&root) {
            Ok(v) => {
                LimaStats::bump(&stats.repl_repaired);
                v
            }
            Err(_) => {
                LimaStats::bump(&stats.repl_rejected);
                return false;
            }
        }
    };
    cache.put_replicated(&root, &value, rec.compute_ns);
    LimaStats::bump(&stats.repl_applied);
    if via_ae {
        LimaStats::bump(&stats.ae_pulled);
    }
    true
}

/// Background sender: drains the queue in batches and forwards each batch
/// to every reachable peer. Runs until the server's shutdown flag flips.
pub(crate) fn sender_loop(inner: &Arc<Inner>) {
    let Some(repl) = inner.repl.as_ref() else {
        return;
    };
    while !inner.shutdown.load(Ordering::SeqCst) {
        let batch = repl.take_batch(SENDER_IDLE);
        if batch.is_empty() {
            continue;
        }
        if repl.paused() {
            // Partition chaos: the records are lost to the sender; AE will
            // heal the gap after the partition lifts.
            LimaStats::add(&repl.stats.repl_send_failures, batch.len() as u64);
            continue;
        }
        let records: Vec<ReplRecord> = batch
            .iter()
            .filter(|q| !matches!(q.value, Value::List(_)))
            .map(|q| ReplRecord::new(serialize_lineage(&q.root), q.value.clone(), q.compute_ns))
            .collect();
        if records.is_empty() {
            continue;
        }
        let req = Request::ReplPut {
            records: records.clone(),
        };
        for peer in repl.peers_snapshot() {
            if peer.breaker.allow() == Attempt::Rejected {
                LimaStats::add(&repl.stats.repl_send_failures, records.len() as u64);
                continue;
            }
            match peer_call(&peer, &req, &repl.opts) {
                Ok(Response::ReplAck { .. }) => {
                    peer.breaker.record_success();
                    LimaStats::add(&repl.stats.repl_sent, records.len() as u64);
                }
                _ => {
                    peer.breaker.record_failure();
                    LimaStats::add(&repl.stats.repl_send_failures, records.len() as u64);
                }
            }
        }
    }
}

/// Background anti-entropy loop: digest exchange plus bucket pulls against
/// every reachable peer, at the configured cadence.
pub(crate) fn ae_loop(inner: &Arc<Inner>) {
    let Some(repl) = inner.repl.as_ref() else {
        return;
    };
    let tick = Duration::from_millis(25);
    while !inner.shutdown.load(Ordering::SeqCst) {
        let mut waited = Duration::ZERO;
        while waited < AE_INTERVAL && !inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(tick);
            waited += tick;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if repl.paused() {
            continue;
        }
        for peer in repl.peers_snapshot() {
            if peer.breaker.allow() == Attempt::Rejected {
                continue;
            }
            if ae_round(inner, repl, &peer) {
                peer.breaker.record_success();
                LimaStats::bump(&repl.stats.ae_rounds);
            } else {
                peer.breaker.record_failure();
            }
        }
    }
}

/// One digest exchange + pull pass against one peer. Returns false on any
/// transport or protocol failure (the caller feeds the peer's breaker).
fn ae_round(inner: &Arc<Inner>, repl: &Replicator, peer: &Peer) -> bool {
    let buckets = AE_BUCKETS;
    let local = local_digests(&inner.shards, buckets);
    let remote = match peer_call(peer, &Request::ReplDigest { buckets }, &repl.opts) {
        Ok(Response::ReplDigests(d)) if d.len() == buckets as usize => d,
        _ => return false,
    };
    for b in 0..buckets as usize {
        if local[b] == remote[b] || remote[b].count == 0 {
            // Identical bucket, or the peer has nothing here: any surplus
            // *we* hold flows to the peer through its own AE loop.
            continue;
        }
        let req = Request::ReplPull {
            bucket: b as u32,
            buckets,
        };
        let entries = match peer_call(peer, &req, &repl.opts) {
            Ok(Response::ReplEntries(entries)) => entries,
            _ => return false,
        };
        for rec in &entries {
            apply_record(inner, rec, true);
        }
    }
    true
}
