//! The `limad` wire protocol: compact length-framed, checksummed messages.
//!
//! Every message is one frame:
//!
//! ```text
//! +-------+------+--------+-------------+---------+----------+
//! | magic | kind | req id | payload len | payload | checksum |
//! |  u32  |  u8  |  u64   |     u32     |  bytes  |   u64    |
//! +-------+------+--------+-------------+---------+----------+
//! ```
//!
//! The trailing [`checksum`] (word-parallel, `lima_matrix::codec`) covers
//! everything before it: a change inside any one aligned 8-byte word of the
//! frame, so any single-byte flip, is always detected at the receiver, which
//! checks header and payload in place. A torn or damaged frame isolates to
//! that one connection — never the shard behind it. The magic names the
//! checksum: `LMD1` peers (FNV-1a frames) are refused by it. Payloads larger
//! than the receiver's frame cap are rejected *before* allocation.
//!
//! Every request carries a relative deadline (`deadline_ms`, 0 = server
//! default) and every response is a typed result: either the
//! request-specific success variant or a [`ServiceError`] with a machine
//! [`ErrorCode`] and an optional retry-after hint.

use bytes::{Buf, BufMut};
use lima_core::{Diagnostic, Label, Severity, Span};
pub use lima_matrix::codec::fnv1a;
use lima_matrix::codec::{checksum, decode_body, encode_body, read_bytes, read_u32, read_u64};
use lima_matrix::codec::{read_u8, Checksum};
use lima_matrix::Value;
use std::io::{Read, Write};

/// Frame magic: `"LMD2"` (frames guarded by [`checksum`]).
pub const MAGIC: u32 = 0x4C4D_4432;
/// Fixed frame header size (magic + kind + request id + payload length).
pub const HEADER_BYTES: usize = 4 + 1 + 8 + 4;
/// Trailing checksum size.
pub const TRAILER_BYTES: usize = 8;
/// Cap on a frame payload; an oversized frame is refused with a typed error
/// on its header alone, before any allocation or read of its body.
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Typed failure classes carried in error responses. The same codes drive
/// `limac`/`limad` process exit codes, so scripts and CI can distinguish a
/// deadline from a cancellation from resource exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame or request payload (isolated to the connection).
    /// The wire byte of a code is its position from 1.
    BadRequest = 1,
    /// The submitted script failed to compile.
    Compile,
    /// The script failed at runtime (kernel error, undefined variable, ...).
    Runtime,
    /// The request's deadline passed before completion.
    DeadlineExceeded,
    /// The session was cancelled via its token.
    Cancelled,
    /// A quota or the resource governor rejected the admission.
    ResourceExhausted,
    /// The shard is shedding load (governor ladder L3/L4); retry after the
    /// hinted delay.
    Overloaded,
    /// Probe/fetch/cancel target not found.
    NotFound,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Stable machine-readable name (used in stderr lines and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Compile => "compile_error",
            ErrorCode::Runtime => "runtime_error",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::ResourceExhausted => "resource_exhausted",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Internal => "internal",
        }
    }

    /// Process exit code for CLI surfaces (`limac run`, chaos drivers):
    /// distinct nonzero codes for the interrupt family, generic `1`
    /// otherwise (`2` stays reserved for usage errors).
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Cancelled => 5,
            ErrorCode::ResourceExhausted => 6,
            ErrorCode::Overloaded => 7,
            _ => 1,
        }
    }

    /// True when retrying the same request later may succeed without any
    /// side effect having happened (the server sheds *before* executing).
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }

    fn as_u8(self) -> u8 {
        self as u8
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        use ErrorCode::*;
        let mut all = [BadRequest, Compile, Runtime, DeadlineExceeded, Cancelled]
            .into_iter()
            .chain([ResourceExhausted, Overloaded, NotFound, Internal]);
        all.find(|c| c.as_u8() == v)
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Suggested delay before retrying (0 = no hint). Set on `Overloaded`.
    pub retry_after_ms: u64,
    /// Human-readable detail.
    pub msg: String,
    /// Source-anchored diagnostics (code, span, labels); populated on
    /// `Compile` errors so clients can render caret snippets against the
    /// script they submitted. Empty for other error classes.
    pub diagnostics: Vec<Diagnostic>,
}

impl ServiceError {
    /// An error with no attached diagnostics (every class except `Compile`).
    pub fn new(code: ErrorCode, retry_after_ms: u64, msg: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            retry_after_ms,
            msg: msg.into(),
            diagnostics: Vec::new(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.msg)
    }
}

/// Client → server messages. All execution requests carry a relative
/// `deadline_ms` propagated into the server-side session deadline.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile and execute a script; respond with the named output values.
    Submit {
        /// Tenant identity for quota accounting.
        tenant: String,
        /// Script source (DML subset).
        script: String,
        /// System-seed base for reproducible `rand`/`sample`.
        seed: Option<u64>,
        /// Variables to return; empty returns every scalar output.
        outputs: Vec<String>,
        /// Relative deadline in milliseconds (0 = server default).
        deadline_ms: u64,
    },
    /// Does the routed shard hold a cached value for this lineage trace?
    Probe {
        tenant: String,
        /// Serialized lineage log (`serialize_lineage` output).
        lineage: String,
        deadline_ms: u64,
    },
    /// Fetch the cached value for this lineage trace, if any.
    Fetch {
        tenant: String,
        lineage: String,
        deadline_ms: u64,
    },
    /// Cooperatively cancel a running session by server-assigned id.
    Cancel {
        /// Session id returned by a prior `Submitted` response.
        session: u64,
    },
    /// Fetch the aggregated Prometheus metrics text.
    Metrics,
    /// Liveness check.
    Ping,
    /// Admin: run one full integrity-scrub pass over every shard's
    /// persistent store, repairing or quarantining what it finds.
    Scrub,
    /// Replication: apply a batch of committed records forwarded by a peer
    /// member (best-effort write replication).
    ReplPut {
        /// The forwarded records, each individually verified on receipt.
        records: Vec<ReplRecord>,
    },
    /// Replication: return per-bucket digests of this member's replicable
    /// lineage-hash keyspace, split into `buckets` buckets.
    ReplDigest {
        /// Bucket count (`1..=MAX_REPL_BUCKETS`); both sides must use the
        /// same count for digests to be comparable.
        buckets: u32,
    },
    /// Replication: return the records whose scrambled lineage hash lands in
    /// `bucket` so the requester can repair a digest mismatch.
    ReplPull {
        /// Bucket index (`< buckets`).
        bucket: u32,
        /// Bucket count the index is relative to.
        buckets: u32,
    },
}

const K_SUBMIT: u8 = 1;
const K_PROBE: u8 = 2;
const K_FETCH: u8 = 3;
const K_CANCEL: u8 = 4;
const K_METRICS: u8 = 5;
const K_PING: u8 = 6;
const K_SCRUB: u8 = 7;
const K_REPL_PUT: u8 = 8;
const K_REPL_DIGEST: u8 = 9;
const K_REPL_PULL: u8 = 10;
const K_RESP: u8 = 0x80;
const K_ERROR: u8 = 0xFF;

/// Upper bound on the anti-entropy bucket count a peer may request; a
/// digest request outside `1..=MAX_REPL_BUCKETS` is a structural violation.
pub const MAX_REPL_BUCKETS: u32 = 4096;

/// One replicated cache record: a serialized lineage trace, the value it
/// names, and the measured compute cost (for eviction scoring on the
/// receiver). `check` is an end-to-end [`checksum`] over the canonical encoding of
/// `(lineage, value)` — it survives beyond the frame checksum so a receiver
/// can detect payload corruption introduced *before* framing (a buggy peer,
/// a bit flip in the replication queue) and fall back to lineage-driven
/// recompute instead of caching bad bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplRecord {
    /// `serialize_lineage` output for the value's root item.
    pub lineage: String,
    /// The cached value (matrices and scalars; lists never replicate).
    pub value: Value,
    /// Nanoseconds the value originally took to compute.
    pub compute_ns: u64,
    /// [`checksum`] over the encoded `(lineage, value)` pair.
    pub check: u64,
}

impl ReplRecord {
    /// A record with its integrity checksum computed from the payload.
    pub fn new(lineage: String, value: Value, compute_ns: u64) -> ReplRecord {
        let check = ReplRecord::checksum(&lineage, &value);
        ReplRecord {
            lineage,
            value,
            compute_ns,
            check,
        }
    }

    /// The canonical content checksum a receiver re-derives to verify bytes.
    pub fn checksum(lineage: &str, value: &Value) -> u64 {
        let mut sum = Checksum::default();
        put_str(&mut sum, lineage);
        encode_body(&mut sum, value);
        sum.finish()
    }

    /// True when the carried bytes still match their checksum.
    pub fn verify_bytes(&self) -> bool {
        ReplRecord::checksum(&self.lineage, &self.value) == self.check
    }
}

/// Summary of one anti-entropy bucket: how many lineage hashes landed in it
/// and their order-independent XOR fingerprint. Two members whose buckets
/// carry equal `(count, xor)` pairs hold the same keys with overwhelming
/// probability; a mismatch names exactly which bucket to pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketDigest {
    /// Number of replicable entries hashing into this bucket.
    pub count: u64,
    /// XOR of the scrambled lineage hashes in this bucket.
    pub xor: u64,
}

/// Per-shard result of an admin [`Request::Scrub`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardScrub {
    /// Shard index.
    pub shard: u32,
    /// Bytes re-verified during this pass.
    pub bytes: u64,
    /// Entries whose checksums were re-verified.
    pub entries: u64,
    /// Corruptions detected.
    pub corrupt: u64,
    /// Corrupt entries recomputed from lineage and re-persisted.
    pub repaired: u64,
    /// Repair attempts that failed (the entry was quarantined instead).
    pub repair_failures: u64,
    /// Entries tombstoned and moved to `quarantine/`.
    pub quarantined: u64,
    /// True when the pass covered the whole store (false = cut short by
    /// memory pressure or a degraded/disabled store).
    pub completed: bool,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Script ran to completion.
    Submitted {
        /// Server-assigned session id (target for `Cancel`).
        session: u64,
        /// Requested output variables and their values.
        values: Vec<(String, Value)>,
        /// Collected `print` output.
        stdout: Vec<String>,
    },
    /// Probe verdict.
    Probed {
        /// True when the routed shard holds a cached value.
        hit: bool,
    },
    /// Fetched value (`None` = cache miss).
    Fetched(Option<Value>),
    /// Cancellation verdict (`false` = no such live session).
    Cancelled {
        /// True when the session was found and its token cancelled.
        found: bool,
    },
    /// Aggregated Prometheus text exposition.
    MetricsText(String),
    /// Liveness response.
    Pong,
    /// Per-shard scrub results for an admin `Scrub` request.
    Scrubbed(Vec<ShardScrub>),
    /// Replication verdict for a `ReplPut` batch.
    ReplAck {
        /// Records applied into (or already present in) the local cache.
        applied: u32,
        /// Records rejected (bad lineage, failed verification, unrepairable).
        rejected: u32,
    },
    /// Per-bucket keyspace digests for a `ReplDigest` request.
    ReplDigests(Vec<BucketDigest>),
    /// Records served for a `ReplPull` request (size-capped; a large bucket
    /// converges over successive anti-entropy rounds).
    ReplEntries(Vec<ReplRecord>),
    /// Typed failure.
    Error(ServiceError),
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// A `u32` count, then each item as `put` writes it.
fn put_vec<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    buf.put_u32(items.len() as u32);
    items.iter().for_each(|item| put(buf, item));
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    let len = read_u32(buf)? as usize;
    Some(std::str::from_utf8(read_bytes(buf, len)?).ok()?.to_string())
}

/// A `u32` count, then that many items (capacity capped at `cap` until the
/// items are really there).
fn get_vec<T>(
    buf: &mut &[u8],
    cap: usize,
    mut item: impl FnMut(&mut &[u8]) -> Option<T>,
) -> Option<Vec<T>> {
    let n = read_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(cap));
    for _ in 0..n {
        out.push(item(buf)?);
    }
    Some(out)
}

fn put_span(buf: &mut Vec<u8>, span: Option<Span>) {
    match span {
        Some(s) => {
            buf.put_u8(1);
            buf.put_u32(s.start);
            buf.put_u32(s.end);
        }
        None => buf.put_u8(0),
    }
}

fn get_span(buf: &mut &[u8]) -> Option<Option<Span>> {
    match read_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(Span::new(read_u32(buf)?, read_u32(buf)?))),
        _ => None,
    }
}

fn put_diag(buf: &mut Vec<u8>, d: &Diagnostic) {
    buf.put_u8(d.severity.as_u8());
    put_str(buf, &d.code);
    put_str(buf, &d.message);
    put_span(buf, d.primary);
    put_vec(buf, &d.labels, |buf, l| {
        buf.put_u32(l.span.start);
        buf.put_u32(l.span.end);
        put_str(buf, &l.message);
    });
    match &d.help {
        Some(h) => {
            buf.put_u8(1);
            put_str(buf, h);
        }
        None => buf.put_u8(0),
    }
}

fn get_diag(buf: &mut &[u8]) -> Option<Diagnostic> {
    let severity = Severity::from_u8(read_u8(buf)?)?;
    let code = get_str(buf)?;
    let message = get_str(buf)?;
    let primary = get_span(buf)?;
    let labels = get_vec(buf, 16, |buf| {
        let span = Span::new(read_u32(buf)?, read_u32(buf)?);
        let message = get_str(buf)?;
        Some(Label { span, message })
    })?;
    let help = match read_u8(buf)? {
        0 => None,
        1 => Some(get_str(buf)?),
        _ => return None,
    };
    Some(Diagnostic {
        severity,
        code,
        message,
        primary,
        labels,
        help,
    })
}

fn put_record(buf: &mut Vec<u8>, r: &ReplRecord) {
    put_str(buf, &r.lineage);
    encode_body(buf, &r.value);
    buf.put_u64(r.compute_ns);
    buf.put_u64(r.check);
}

fn get_record(buf: &mut &[u8]) -> Option<ReplRecord> {
    let lineage = get_str(buf)?;
    // Tag-2 (list/absent) values never replicate: structural violation here.
    let value = decode_body(buf)??;
    let compute_ns = read_u64(buf)?;
    let check = read_u64(buf)?;
    Some(ReplRecord {
        lineage,
        value,
        compute_ns,
        check,
    })
}

fn get_bucket_count(buf: &mut &[u8]) -> Option<u32> {
    let n = read_u32(buf)?;
    (1..=MAX_REPL_BUCKETS).contains(&n).then_some(n)
}

/// Bytes `records` take on the wire, near enough to size a buffer.
fn records_hint(records: &[ReplRecord]) -> usize {
    let record = |r: &ReplRecord| r.lineage.len() + r.value.size_in_bytes() + 32;
    records.iter().map(record).sum()
}

impl Request {
    /// Frame kind byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::with_capacity(match self {
            Request::Submit { script, .. } => 64 + script.len(),
            Request::ReplPut { records } => 64 + records_hint(records),
            _ => 64,
        });
        let kind = match self {
            Request::Submit {
                tenant,
                script,
                seed,
                outputs,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                match seed {
                    Some(s) => {
                        buf.put_u8(1);
                        buf.put_u64(*s);
                    }
                    None => buf.put_u8(0),
                }
                put_str(&mut buf, script);
                put_vec(&mut buf, outputs, |b, x| put_str(b, x));
                K_SUBMIT
            }
            Request::Probe {
                tenant,
                lineage,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                put_str(&mut buf, lineage);
                K_PROBE
            }
            Request::Fetch {
                tenant,
                lineage,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                put_str(&mut buf, lineage);
                K_FETCH
            }
            Request::Cancel { session } => {
                buf.put_u64(*session);
                K_CANCEL
            }
            Request::Metrics => K_METRICS,
            Request::Ping => K_PING,
            Request::Scrub => K_SCRUB,
            Request::ReplPut { records } => {
                put_vec(&mut buf, records, put_record);
                K_REPL_PUT
            }
            Request::ReplDigest { buckets } => {
                buf.put_u32(*buckets);
                K_REPL_DIGEST
            }
            Request::ReplPull { bucket, buckets } => {
                buf.put_u32(*bucket);
                buf.put_u32(*buckets);
                K_REPL_PULL
            }
        };
        (kind, buf)
    }

    /// Decodes a request payload; `None` on any structural violation (the
    /// server answers `BadRequest` and keeps only that connection affected).
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Request> {
        let mut p = payload;
        let req = match kind {
            K_SUBMIT => {
                let tenant = get_str(&mut p)?;
                let deadline_ms = read_u64(&mut p)?;
                let seed = match read_u8(&mut p)? {
                    0 => None,
                    1 => Some(read_u64(&mut p)?),
                    _ => return None,
                };
                let script = get_str(&mut p)?;
                let outputs = get_vec(&mut p, 64, get_str)?;
                Request::Submit {
                    tenant,
                    script,
                    seed,
                    outputs,
                    deadline_ms,
                }
            }
            K_PROBE | K_FETCH => {
                let tenant = get_str(&mut p)?;
                let deadline_ms = read_u64(&mut p)?;
                let lineage = get_str(&mut p)?;
                if kind == K_PROBE {
                    Request::Probe {
                        tenant,
                        lineage,
                        deadline_ms,
                    }
                } else {
                    Request::Fetch {
                        tenant,
                        lineage,
                        deadline_ms,
                    }
                }
            }
            K_CANCEL => Request::Cancel {
                session: read_u64(&mut p)?,
            },
            K_METRICS => Request::Metrics,
            K_PING => Request::Ping,
            K_SCRUB => Request::Scrub,
            K_REPL_PUT => Request::ReplPut {
                records: get_vec(&mut p, 256, get_record)?,
            },
            K_REPL_DIGEST => Request::ReplDigest {
                buckets: get_bucket_count(&mut p)?,
            },
            K_REPL_PULL => {
                let bucket = read_u32(&mut p)?;
                let buckets = get_bucket_count(&mut p)?;
                if bucket >= buckets {
                    return None;
                }
                Request::ReplPull { bucket, buckets }
            }
            _ => return None,
        };
        (p.remaining() == 0).then_some(req)
    }
}

impl Response {
    /// Frame kind byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let hint = match self {
            Response::Submitted { values, .. } => {
                values.iter().map(|(_, v)| v.size_in_bytes()).sum()
            }
            Response::Fetched(Some(v)) => v.size_in_bytes(),
            Response::ReplEntries(records) => records_hint(records),
            _ => 0,
        };
        let mut buf = Vec::with_capacity(256 + hint);
        let kind = match self {
            Response::Submitted {
                session,
                values,
                stdout,
            } => {
                buf.put_u64(*session);
                put_vec(&mut buf, values, |buf, (name, value)| {
                    put_str(buf, name);
                    encode_body(buf, value);
                });
                put_vec(&mut buf, stdout, |b, x| put_str(b, x));
                K_RESP | K_SUBMIT
            }
            Response::Probed { hit } => {
                buf.put_u8(u8::from(*hit));
                K_RESP | K_PROBE
            }
            Response::Fetched(value) => {
                match value {
                    Some(v) => {
                        buf.put_u8(1);
                        encode_body(&mut buf, v);
                    }
                    None => buf.put_u8(0),
                }
                K_RESP | K_FETCH
            }
            Response::Cancelled { found } => {
                buf.put_u8(u8::from(*found));
                K_RESP | K_CANCEL
            }
            Response::MetricsText(text) => {
                put_str(&mut buf, text);
                K_RESP | K_METRICS
            }
            Response::Pong => K_RESP | K_PING,
            Response::Scrubbed(reports) => {
                put_vec(&mut buf, reports, |buf, r| {
                    buf.put_u32(r.shard);
                    buf.put_u64(r.bytes);
                    buf.put_u64(r.entries);
                    buf.put_u64(r.corrupt);
                    buf.put_u64(r.repaired);
                    buf.put_u64(r.repair_failures);
                    buf.put_u64(r.quarantined);
                    buf.put_u8(u8::from(r.completed));
                });
                K_RESP | K_SCRUB
            }
            Response::ReplAck { applied, rejected } => {
                buf.put_u32(*applied);
                buf.put_u32(*rejected);
                K_RESP | K_REPL_PUT
            }
            Response::ReplDigests(digests) => {
                put_vec(&mut buf, digests, |buf, d| {
                    buf.put_u64(d.count);
                    buf.put_u64(d.xor);
                });
                K_RESP | K_REPL_DIGEST
            }
            Response::ReplEntries(records) => {
                put_vec(&mut buf, records, put_record);
                K_RESP | K_REPL_PULL
            }
            Response::Error(e) => {
                buf.put_u8(e.code.as_u8());
                buf.put_u64(e.retry_after_ms);
                put_str(&mut buf, &e.msg);
                put_vec(&mut buf, &e.diagnostics, put_diag);
                K_ERROR
            }
        };
        (kind, buf)
    }

    /// Decodes a response payload; `None` on any structural violation.
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Response> {
        let mut p = payload;
        let resp = match kind {
            k if k == K_RESP | K_SUBMIT => {
                let session = read_u64(&mut p)?;
                let values = get_vec(&mut p, 64, |p| Some((get_str(p)?, decode_body(p)?)))?;
                // Tag-2 (non-transportable) outputs decode as absent and are
                // skipped rather than failing the whole response.
                let values = values
                    .into_iter()
                    .filter_map(|(name, v)| Some((name, v?)))
                    .collect();
                let stdout = get_vec(&mut p, 64, get_str)?;
                Response::Submitted {
                    session,
                    values,
                    stdout,
                }
            }
            k if k == K_RESP | K_PROBE => Response::Probed {
                hit: read_u8(&mut p)? != 0,
            },
            k if k == K_RESP | K_FETCH => match read_u8(&mut p)? {
                0 => Response::Fetched(None),
                1 => Response::Fetched(decode_body(&mut p)?),
                _ => return None,
            },
            k if k == K_RESP | K_CANCEL => Response::Cancelled {
                found: read_u8(&mut p)? != 0,
            },
            k if k == K_RESP | K_METRICS => Response::MetricsText(get_str(&mut p)?),
            k if k == K_RESP | K_PING => Response::Pong,
            k if k == K_RESP | K_SCRUB => Response::Scrubbed(get_vec(&mut p, 64, |p| {
                Some(ShardScrub {
                    shard: read_u32(p)?,
                    bytes: read_u64(p)?,
                    entries: read_u64(p)?,
                    corrupt: read_u64(p)?,
                    repaired: read_u64(p)?,
                    repair_failures: read_u64(p)?,
                    quarantined: read_u64(p)?,
                    completed: read_u8(p)? != 0,
                })
            })?),
            k if k == K_RESP | K_REPL_PUT => Response::ReplAck {
                applied: read_u32(&mut p)?,
                rejected: read_u32(&mut p)?,
            },
            k if k == K_RESP | K_REPL_DIGEST => {
                let mut head = p;
                if read_u32(&mut head)? > MAX_REPL_BUCKETS {
                    return None;
                }
                Response::ReplDigests(get_vec(&mut p, 256, |p| {
                    let (count, xor) = (read_u64(p)?, read_u64(p)?);
                    Some(BucketDigest { count, xor })
                })?)
            }
            k if k == K_RESP | K_REPL_PULL => {
                Response::ReplEntries(get_vec(&mut p, 256, get_record)?)
            }
            K_ERROR => {
                let code = ErrorCode::from_u8(read_u8(&mut p)?)?;
                let retry_after_ms = read_u64(&mut p)?;
                let msg = get_str(&mut p)?;
                let diagnostics = get_vec(&mut p, 16, get_diag)?;
                Response::Error(ServiceError {
                    code,
                    retry_after_ms,
                    msg,
                    diagnostics,
                })
            }
            _ => return None,
        };
        (p.remaining() == 0).then_some(resp)
    }
}

/// Writes one frame. The caller is responsible for socket timeouts.
pub fn write_frame(
    w: &mut impl Write,
    kind: u8,
    req_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    buf.put_u32(MAGIC);
    buf.put_u8(kind);
    buf.put_u64(req_id);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    buf.put_u64(checksum(&buf));
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME_BYTES`] *before* allocating the
/// body. Malformed frames (bad magic, oversized, checksum mismatch) return
/// `InvalidData`; a cleanly closed peer returns `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let mut h = &header[..];
    if h.get_u32() != MAGIC {
        return Err(bad("bad frame magic"));
    }
    let kind = h.get_u8();
    let req_id = h.get_u64();
    let len = h.get_u32() as usize;
    if len > MAX_FRAME_BYTES {
        return Err(bad(&format!(
            "frame payload {len} exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; TRAILER_BYTES];
    r.read_exact(&mut trailer)?;
    let mut sum = Checksum::default();
    sum.put_slice(&header);
    sum.put_slice(&payload);
    if sum.finish() != u64::from_be_bytes(trailer) {
        return Err(bad("frame checksum mismatch"));
    }
    Ok((kind, req_id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_matrix::DenseMatrix;

    fn round_trip_req(req: Request) {
        let (kind, payload) = req.encode();
        assert_eq!(Request::decode(kind, &payload), Some(req));
    }

    fn round_trip_resp(resp: Response) {
        let (kind, payload) = resp.encode();
        assert_eq!(Response::decode(kind, &payload), Some(resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Submit {
            tenant: "t0".into(),
            script: "s = sum(X);".into(),
            seed: Some(7),
            outputs: vec!["s".into(), "X".into()],
            deadline_ms: 1500,
        });
        round_trip_req(Request::Submit {
            tenant: String::new(),
            script: String::new(),
            seed: None,
            outputs: vec![],
            deadline_ms: 0,
        });
        round_trip_req(Request::Probe {
            tenant: "a".into(),
            lineage: "(1) L f:2".into(),
            deadline_ms: 9,
        });
        round_trip_req(Request::Fetch {
            tenant: "a".into(),
            lineage: "(1) L f:2".into(),
            deadline_ms: 9,
        });
        round_trip_req(Request::Cancel { session: 42 });
        round_trip_req(Request::Metrics);
        round_trip_req(Request::Ping);
        round_trip_req(Request::Scrub);
        round_trip_req(Request::ReplPut {
            records: vec![
                ReplRecord::new("(1) L f:1".into(), Value::f64(2.5), 1234),
                ReplRecord::new(
                    "(2) L f:2".into(),
                    Value::matrix(DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64)),
                    0,
                ),
            ],
        });
        round_trip_req(Request::ReplPut { records: vec![] });
        round_trip_req(Request::ReplDigest { buckets: 64 });
        round_trip_req(Request::ReplDigest { buckets: 1 });
        round_trip_req(Request::ReplPull {
            bucket: 63,
            buckets: 64,
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Submitted {
            session: 3,
            values: vec![
                ("s".into(), Value::f64(4.25)),
                (
                    "M".into(),
                    Value::matrix(DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64)),
                ),
            ],
            stdout: vec!["hello".into()],
        });
        round_trip_resp(Response::Probed { hit: true });
        round_trip_resp(Response::Fetched(Some(Value::f64(1.5))));
        round_trip_resp(Response::Fetched(None));
        round_trip_resp(Response::Cancelled { found: false });
        round_trip_resp(Response::MetricsText("lima_probes 0\n".into()));
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::Scrubbed(vec![]));
        round_trip_resp(Response::Scrubbed(vec![
            ShardScrub {
                shard: 0,
                bytes: 4096,
                entries: 12,
                corrupt: 1,
                repaired: 1,
                repair_failures: 0,
                quarantined: 0,
                completed: true,
            },
            ShardScrub {
                shard: 3,
                bytes: 0,
                entries: 0,
                corrupt: 0,
                repaired: 0,
                repair_failures: 0,
                quarantined: 0,
                completed: false,
            },
        ]));
        round_trip_resp(Response::ReplAck {
            applied: 7,
            rejected: 1,
        });
        round_trip_resp(Response::ReplDigests(vec![
            BucketDigest { count: 0, xor: 0 },
            BucketDigest {
                count: 3,
                xor: 0xDEAD_BEEF,
            },
        ]));
        round_trip_resp(Response::ReplEntries(vec![ReplRecord::new(
            "(9) L f:9".into(),
            Value::f64(-1.25),
            55,
        )]));
        round_trip_resp(Response::ReplEntries(vec![]));
        round_trip_resp(Response::Error(ServiceError::new(
            ErrorCode::Overloaded,
            250,
            "shard 2 at L4",
        )));
        // Compile errors carry full source-anchored diagnostics.
        round_trip_resp(Response::Error(ServiceError {
            code: ErrorCode::Compile,
            retry_after_ms: 0,
            msg: "compile failed".into(),
            diagnostics: vec![
                Diagnostic::error("L0100", "parfor cannot run in parallel")
                    .with_span(Span::of(10, 32))
                    .with_label(Span::of(10, 16), "written here")
                    .with_help("use a plain `for` loop"),
                Diagnostic::warning("L0203", "dead store"),
            ],
        }));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        let digit = |i: usize| u8::from_str_radix(&text[i..i + 2], 16).unwrap();
        (0..text.len()).step_by(2).map(digit).collect()
    }

    fn frame(kind: u8, req_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, req_id, payload).unwrap();
        wire
    }

    fn golden_submit() -> Request {
        Request::Submit {
            tenant: "t0".into(),
            script: "s = sum(X);".into(),
            seed: Some(7),
            outputs: vec!["s".into()],
            deadline_ms: 1500,
        }
    }

    /// 7×5 cells: 280 payload bytes, so the frame spans two checksum blocks
    /// and a tail. Holds −0.0, a NaN with a payload and a subnormal.
    fn golden_matrix() -> DenseMatrix {
        let mut cells: Vec<f64> = (0..35).map(|k| k as f64 * 0.75 - 9.0).collect();
        cells[3] = -0.0;
        cells[17] = f64::from_bits(0x7ff4_dead_beef_0001);
        cells[29] = f64::from_bits(1);
        DenseMatrix::new(7, 5, cells).unwrap()
    }

    /// `golden_submit()` as frame 41, byte for byte.
    const GOLDEN_SUBMIT: &str = concat!(
        "4c4d4432",                       // magic "LMD2"
        "01",                             // kind: submit
        "0000000000000029",               // request id 41
        "0000002f",                       // payload length 47
        "000000027430",                   // tenant "t0"
        "00000000000005dc",               // deadline 1500 ms
        "010000000000000007",             // seed 7
        "0000000b73203d2073756d2858293b", // script "s = sum(X);"
        "000000010000000173",             // outputs ["s"]
        "f2acd889af89ac08",               // checksum
    );

    /// `Response::Fetched(Some(golden_matrix()))` as frame 42.
    const GOLDEN_FETCHED: &str = concat!(
        "4c4d4432",         // magic "LMD2"
        "83",               // kind: fetch response
        "000000000000002a", // request id 42
        "0000012a",         // payload length 298
        "01",               // present
        "00",               // tag: matrix
        "0000000000000007", // rows 7
        "0000000000000005", // cols 5
        "c022000000000000c020800000000000c01e0000000000008000000000000000c018000000000000", // row 0
        "c015000000000000c012000000000000c00e000000000000c008000000000000c002000000000000", // row 1
        "bff8000000000000bfe800000000000000000000000000003fe80000000000003ff8000000000000", // row 2
        "400200000000000040080000000000007ff4deadbeef000140120000000000004015000000000000", // row 3
        "4018000000000000401b000000000000401e00000000000040208000000000004022000000000000", // row 4
        "40238000000000004025000000000000402680000000000040280000000000000000000000000001", // row 5
        "402b000000000000402c800000000000402e000000000000402f8000000000004030800000000000", // row 6
        "3a819be2c1b5eb89", // checksum
    );

    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        let (kind, payload) = golden_submit().encode();
        assert_eq!(hex(&frame(kind, 41, &payload)), GOLDEN_SUBMIT);
        let (kind, payload) = Response::Fetched(Some(Value::matrix(golden_matrix()))).encode();
        assert_eq!(hex(&frame(kind, 42, &payload)), GOLDEN_FETCHED);

        // The committed bytes read back to the same request, bit for bit.
        let wire = unhex(GOLDEN_SUBMIT);
        let (kind, id, payload) = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(id, 41);
        assert_eq!(Request::decode(kind, &payload), Some(golden_submit()));
        let wire = unhex(GOLDEN_FETCHED);
        let (kind, id, payload) = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(id, 42);
        let Some(Response::Fetched(Some(Value::Matrix(m)))) = Response::decode(kind, &payload)
        else {
            panic!("the golden frame is a fetched matrix");
        };
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(m.shape(), (7, 5));
        assert_eq!(bits(&m), bits(&golden_matrix()));
    }

    #[test]
    fn every_byte_flip_of_a_frame_is_detected() {
        let wire = unhex(GOLDEN_FETCHED);
        assert!(read_frame(&mut &wire[..]).is_ok());
        for i in 0..wire.len() {
            for mask in 1..=255u8 {
                let mut bent = wire.clone();
                bent[i] ^= mask;
                let r = read_frame(&mut &bent[..]);
                assert!(r.is_err(), "flip {mask:#04x} at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        // The cap leaves room for the values the tests and harness move.
        const { assert!(MAX_FRAME_BYTES >= 1024 * 1024) };
        // A bare header announcing one byte over the cap, with no payload:
        // the refusal comes from the header alone, never from a short read.
        let mut wire = Vec::new();
        wire.put_u32(MAGIC);
        wire.put_u8(K_PING);
        wire.put_u64(1);
        wire.put_u32(MAX_FRAME_BYTES as u32 + 1);
        assert_eq!(wire.len(), HEADER_BYTES);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"));
    }

    #[test]
    fn truncated_frames_are_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, K_PING, 1, b"abc").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_decodes_to_none_not_panic() {
        for kind in 0u8..=255 {
            let _ = Request::decode(kind, b"\x01\x02\x03");
            let _ = Response::decode(kind, b"\xFF\xFE");
        }
        assert_eq!(Request::decode(K_SUBMIT, b""), None);
        assert_eq!(
            Response::decode(K_ERROR, b"\x63\0\0\0\0\0\0\0\0\0\0\0\0"),
            None
        );
    }

    #[test]
    fn repl_payload_structural_violations_decode_to_none() {
        // Out-of-range bucket counts are rejected outright.
        assert_eq!(Request::decode(K_REPL_DIGEST, &0u32.to_be_bytes()), None);
        assert_eq!(
            Request::decode(K_REPL_DIGEST, &(MAX_REPL_BUCKETS + 1).to_be_bytes()),
            None
        );
        // A pull whose bucket index is outside the bucket count is malformed.
        let mut bad = Vec::new();
        bad.extend_from_slice(&64u32.to_be_bytes());
        bad.extend_from_slice(&64u32.to_be_bytes());
        assert_eq!(Request::decode(K_REPL_PULL, &bad), None);
        // Truncated and trailing-garbage records fail the whole frame.
        let (kind, good) = Request::ReplPut {
            records: vec![ReplRecord::new("(1) L f:1".into(), Value::f64(3.0), 9)],
        }
        .encode();
        assert_eq!(Request::decode(kind, &good[..good.len() - 1]), None);
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(Request::decode(kind, &padded), None);
        // A record carrying a non-transportable (tag-2) value is malformed.
        let mut listy = Vec::new();
        listy.put_u32(1);
        put_str(&mut listy, "(1) L f:1");
        listy.put_u8(2); // list tag
        listy.put_u64(0);
        listy.put_u64(0);
        assert_eq!(Request::decode(K_REPL_PUT, &listy), None);
    }

    #[test]
    fn repl_record_checksum_detects_payload_corruption() {
        let rec = ReplRecord::new("(4) L f:4".into(), Value::f64(8.5), 77);
        assert!(rec.verify_bytes());
        let mut bent = rec.clone();
        bent.value = Value::f64(8.5000001);
        assert!(!bent.verify_bytes());
        let mut bent = rec.clone();
        bent.lineage.push('x');
        assert!(!bent.verify_bytes());
        // compute_ns is metadata, not covered content.
        let mut meta = rec.clone();
        meta.compute_ns = 1;
        assert!(meta.verify_bytes());
    }

    #[test]
    fn error_codes_map_to_distinct_exit_codes() {
        assert_eq!(ErrorCode::DeadlineExceeded.exit_code(), 4);
        assert_eq!(ErrorCode::Cancelled.exit_code(), 5);
        assert_eq!(ErrorCode::ResourceExhausted.exit_code(), 6);
        assert_eq!(ErrorCode::Overloaded.exit_code(), 7);
        assert_eq!(ErrorCode::Runtime.exit_code(), 1);
        // Round-trip every code through the wire byte.
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Compile,
            ErrorCode::Runtime,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::ResourceExhausted,
            ErrorCode::Overloaded,
            ErrorCode::NotFound,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.as_str().is_empty());
        }
    }
}
