//! lima-obs: lineage-aware, low-overhead runtime tracing (§5.1 tooling).
//!
//! A lock-free, per-thread ring-buffer event log with structured spans for
//! instruction execution, cache probe outcomes (hit/miss) and fulfills,
//! partial-rewrite application, spill/persist IO, governor ladder
//! transitions, parfor workers, and session lifecycle. Every [`Event`]
//! carries the lineage item id of the DAG node it concerns, so cost
//! attributes back to the lineage graph rather than to anonymous wall-clock.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** The runtime holds an
//!    `Option<Arc<Obs>>`; the common path is a single `Option` branch, and
//!    an *attached but disabled* `Obs` costs one relaxed atomic load
//!    ([`Obs::enabled`]). The CI `obs` job guards that an attached-disabled
//!    `Obs` stays within 1% of no-`Obs` on a kernel-heavy workload.
//! 2. **Enabled must not serialize threads.** Each thread writes to its own
//!    fixed-capacity ring with a seqlock per slot (odd sequence = write in
//!    progress). Writers never take a lock and never allocate after their
//!    ring exists; the global registry mutex is touched once per
//!    thread×`Obs` pair and at export.
//! 3. **Bounded memory.** Rings overwrite their oldest events; the exporter
//!    reports how many were dropped instead of stalling the workload.
//!
//! Exporters: [`Obs::chrome_trace`] emits Chrome `trace_event` JSON (load
//! in Perfetto / `chrome://tracing`); [`validate_chrome_trace`] +
//! [`check_span_nesting`] parse it back with a dependency-free JSON reader
//! so tests, `lima-lint trace` and limabench can verify traces without serde.

use crate::json;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-thread ring capacity (events). Power of two keeps the
/// modulo cheap; 64Ki events ≈ 4.5 MiB per active thread.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Inline event-name capacity; longer names are truncated at a UTF-8
/// boundary. 23 bytes covers every opcode plus `fcall:`-prefixed names.
pub const MAX_NAME_BYTES: usize = 23;

/// What an [`Event`] describes. Kinds map onto Chrome trace categories via
/// [`EventKind::cat`]; high-frequency kinds are subject to sampling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub enum EventKind {
    /// One interpreted instruction (span; resolve→probe→execute→bind).
    #[default]
    Instr,
    /// Kernel execution proper, nested inside its instruction span.
    Kernel,
    /// Function-level multi-level reuse unit (span over probe or body).
    FCall,
    /// Block-level multi-level reuse unit (`a`: 1 = served from cache).
    BlockReuse,
    /// Cache probe that found a reusable value (instant).
    CacheHit,
    /// Cache probe that reserved a placeholder (instant).
    CacheMiss,
    /// A reservation fulfilled with a computed value (instant; `a` =
    /// compute nanoseconds, `b` = 1 when admitted).
    CacheFulfill,
    /// Partial-reuse rewrite applied instead of a full computation (span).
    PartialRewrite,
    /// Cache entry spilled to disk (span; `a` = bytes).
    SpillWrite,
    /// Spilled entry restored from disk (span; `a` = bytes).
    SpillRestore,
    /// Entry persisted to the crash-safe store (span; `a` = bytes).
    PersistWrite,
    /// Governor ladder transition (instant; `a` = from level, `b` = to).
    GovernorShift,
    /// Session admitted and started (instant; `a` = session id).
    SessionStart,
    /// Session finished (span over its whole life; `a` = session id,
    /// name = outcome).
    SessionEnd,
    /// One parfor worker's slice of iterations (span; `a` = worker index,
    /// `b` = iterations executed).
    ParforWorker,
}

impl EventKind {
    /// Chrome trace category string.
    pub fn cat(self) -> &'static str {
        match self {
            EventKind::Instr => "instr",
            EventKind::Kernel => "kernel",
            EventKind::FCall | EventKind::BlockReuse => "multilevel",
            EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheFulfill => "cache",
            EventKind::PartialRewrite => "rewrite",
            EventKind::SpillWrite | EventKind::SpillRestore | EventKind::PersistWrite => "io",
            EventKind::GovernorShift => "governor",
            EventKind::SessionStart | EventKind::SessionEnd => "session",
            EventKind::ParforWorker => "parfor",
        }
    }

    /// Kinds emitted once (or more) per instruction; these honour
    /// [`Obs::set_sample_every`] so long runs can trade resolution for
    /// ring lifetime. Rare structural events are always recorded.
    pub fn high_freq(self) -> bool {
        matches!(self.cat(), "instr" | "kernel" | "cache")
    }
}

/// Fixed-capacity inline string so [`Event`] stays `Copy` and ring writes
/// never allocate. Construction truncates at a character boundary.
#[derive(Clone, Copy, Default)]
pub struct SmallName {
    len: u8,
    buf: [u8; MAX_NAME_BYTES],
}

impl SmallName {
    /// Inline copy of `s`, truncated to [`MAX_NAME_BYTES`] at a UTF-8
    /// boundary.
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(MAX_NAME_BYTES);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; MAX_NAME_BYTES];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallName {
            len: end as u8,
            buf,
        }
    }

    /// The stored prefix.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl fmt::Debug for SmallName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for SmallName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One trace event. `Copy` + fixed-size by construction so seqlock slots
/// can be written without allocation or drop glue.
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Display name (opcode, outcome, ...).
    pub name: SmallName,
    /// Start time, nanoseconds since the owning [`Obs`] epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 marks an instant event.
    pub dur_ns: u64,
    /// Lineage item id this event attributes to (0 = none).
    pub lineage_id: u64,
    /// Kind-specific payload (bytes, level, worker index, ...).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

struct Slot {
    /// Seqlock: `2*n + 1` while slot `n` (mod capacity) is being written,
    /// `2*n + 2` once it holds a complete event for logical index `n`.
    seq: AtomicU64,
    ev: UnsafeCell<Event>,
}

/// A single-producer ring of [`Event`]s owned by one thread. Readers
/// (exporters on any thread) take lock-free snapshots and skip slots that
/// are mid-write or already overwritten — a torn read is detected by the
/// per-slot sequence, never returned.
pub struct ThreadRing {
    tid: u64,
    cap: usize,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: the only mutation is `push`, called exclusively by the owning
// thread (rings are handed out through a thread-local, one per
// thread×`Obs`). Concurrent `snapshot` readers validate the slot sequence
// before and after copying and discard torn values; the copy itself uses a
// volatile read so a racing write cannot be miscompiled around.
unsafe impl Send for ThreadRing {}
unsafe impl Sync for ThreadRing {}

impl ThreadRing {
    fn new(tid: u64, cap: usize) -> Self {
        let cap = cap.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ev: UnsafeCell::new(Event::default()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ThreadRing {
            tid,
            cap,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Stable per-`Obs` thread id used as the trace `tid`.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Appends one event, overwriting the oldest when full. Must only be
    /// called by the owning thread (enforced by the thread-local handout).
    fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (self.cap - 1)];
        slot.seq.store(2 * h + 1, Ordering::Release);
        // SAFETY: single writer (owning thread); readers detect this write
        // via the odd sequence and discard their copy.
        unsafe { std::ptr::write_volatile(slot.ev.get(), ev) };
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events ever pushed (monotone; exceeds capacity once wrapped).
    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Lock-free snapshot of the currently retained events, oldest first.
    /// Slots being overwritten during the scan are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let retained = head.min(self.cap as u64);
        let mut out = Vec::with_capacity(retained as usize);
        for i in (head - retained)..head {
            let slot = &self.slots[(i as usize) & (self.cap - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * i + 2 {
                continue; // mid-write or already lapped
            }
            // SAFETY: volatile copy; validated by re-reading the sequence.
            let ev = unsafe { std::ptr::read_volatile(slot.ev.get()) };
            let s2 = slot.seq.load(Ordering::Acquire);
            if s2 == s1 {
                out.push(ev);
            }
        }
        out
    }
}

struct TlsEntry {
    obs_id: u64,
    ring: Arc<ThreadRing>,
    sample_ctr: u64,
}

thread_local! {
    /// Rings this thread writes to, one per live `Obs` it has recorded
    /// into. Tiny (almost always length 1), so linear scan beats hashing.
    static TLS_RINGS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

/// The observability hub: owns the clock epoch, the enable gate, the
/// sampling knob, and the registry of per-thread rings. Cheap to share
/// (`Arc<Obs>` rides inside `LimaConfig`); all hot-path cost is behind
/// [`Obs::enabled`].
pub struct Obs {
    id: u64,
    epoch: Instant,
    enabled: AtomicBool,
    sample_every: AtomicU64,
    ring_capacity: usize,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("id", &self.id)
            .field("enabled", &self.enabled())
            .field("sample_every", &self.sample_every.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// An enabled collector with the default ring capacity.
    pub fn new() -> Self {
        Obs::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled collector whose per-thread rings retain `ring_capacity`
    /// events (rounded up to a power of two).
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Obs {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            sample_every: AtomicU64::new(1),
            ring_capacity,
            next_tid: AtomicU64::new(1),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// An attached-but-disabled collector: the shape the overhead guard
    /// measures (tracing compiled in and wired, gate closed).
    pub fn disabled() -> Self {
        let o = Obs::new();
        o.set_enabled(false);
        o
    }

    /// The one-branch hot-path gate. Instrumentation sites check this (or
    /// the enclosing `Option`) before doing any formatting or clock work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens or closes the gate at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Keep only every `n`-th high-frequency event per thread (1 = keep
    /// all). Structural events (sessions, governor shifts, IO) are always
    /// kept.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// Nanoseconds since this collector's epoch (monotonic, shared by all
    /// threads so cross-thread spans line up in one timeline).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ring_for_current_thread(&self) -> Arc<ThreadRing> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(ThreadRing::new(tid, self.ring_capacity));
        self.rings.lock().push(Arc::clone(&ring));
        ring
    }

    /// Records one event into the calling thread's ring. No-op while the
    /// gate is closed; may drop high-frequency events under sampling.
    pub fn record(&self, ev: Event) {
        if !self.enabled() {
            return;
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        TLS_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            let idx = match rings.iter().position(|e| e.obs_id == self.id) {
                Some(i) => i,
                None => {
                    // A thread can outlive many hubs (the worker pool's
                    // threads never exit): drop the rings of hubs gone since.
                    rings.retain(|e| Arc::strong_count(&e.ring) > 1);
                    rings.push(TlsEntry {
                        obs_id: self.id,
                        ring: self.ring_for_current_thread(),
                        sample_ctr: 0,
                    });
                    rings.len() - 1
                }
            };
            let entry = &mut rings[idx];
            if every > 1 && ev.kind.high_freq() {
                entry.sample_ctr += 1;
                if entry.sample_ctr % every != 0 {
                    return;
                }
            }
            entry.ring.push(ev);
        });
    }

    /// Records a span from `start_ns` (a prior [`Obs::now_ns`]) to now.
    /// Durations are clamped to ≥1ns so spans stay distinguishable from
    /// instants in the export.
    pub fn record_span(
        &self,
        kind: EventKind,
        name: &str,
        lineage_id: u64,
        start_ns: u64,
        a: u64,
        b: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let now = self.now_ns();
        self.record(Event {
            kind,
            name: SmallName::new(name),
            ts_ns: start_ns,
            dur_ns: now.saturating_sub(start_ns).max(1),
            lineage_id,
            a,
            b,
        });
    }

    /// Records a zero-duration instant event stamped now.
    pub fn record_instant(&self, kind: EventKind, name: &str, lineage_id: u64, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.record(Event {
            kind,
            name: SmallName::new(name),
            ts_ns: self.now_ns(),
            dur_ns: 0,
            lineage_id,
            a,
            b,
        });
    }

    /// Total events overwritten before export (ring wrap), across threads.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .iter()
            .map(|r| r.pushed().saturating_sub(r.cap as u64))
            .sum()
    }

    /// Snapshot of all retained events as `(tid, event)`, globally sorted
    /// by start time.
    pub fn events(&self) -> Vec<(u64, Event)> {
        let rings: Vec<Arc<ThreadRing>> = self.rings.lock().clone();
        let mut out = Vec::new();
        for ring in rings {
            for ev in ring.snapshot() {
                out.push((ring.tid(), ev));
            }
        }
        out.sort_by_key(|(_, e)| e.ts_ns);
        out
    }

    /// Chrome `trace_event` JSON for the retained events. Load the file in
    /// Perfetto or `chrome://tracing`; spans carry `args.lineage_id` so
    /// slices attribute back to the lineage DAG.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 140 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, (tid, ev)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, ev.name.as_str());
            let ph = if ev.dur_ns > 0 { 'X' } else { 'i' };
            let ts = ev.ts_ns as f64 / 1000.0;
            let tail = match ev.dur_ns {
                0 => ",\"s\":\"t\"".to_string(),
                d => format!(",\"dur\":{:.3}", d as f64 / 1000.0),
            };
            let cat = ev.kind.cat();
            out.push_str(&format!(
                ",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3}{tail}"
            ));
            out.push_str(&format!(
                ",\"args\":{{\"lineage_id\":{},\"a\":{},\"b\":{}}}}}",
                ev.lineage_id, ev.a, ev.b
            ));
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Trace validation: the Chrome-trace checker over `crate::json`, shared by
// the exporter tests, `lima-lint trace` and limabench.
// ---------------------------------------------------------------------------

pub use crate::json::{parse as parse_json, Json};

/// One complete (`ph == "X"`) span from a validated trace.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Event name.
    pub name: String,
    /// Chrome category.
    pub cat: String,
    /// Thread lane.
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// `args.lineage_id` (0 when absent).
    pub lineage_id: u64,
}

/// Structural summary returned by [`validate_chrome_trace`].
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// All events (spans + instants).
    pub total_events: usize,
    /// Instant (`ph == "i"`) events.
    pub instants: usize,
    /// Events carrying a non-zero `args.lineage_id`.
    pub with_lineage: usize,
    /// Distinct thread lanes.
    pub tids: usize,
    /// The complete spans, in file order.
    pub spans: Vec<TraceSpan>,
}

/// Parses `text` as Chrome `trace_event` JSON and checks every event has
/// the fields Perfetto requires (`name`/`cat`/`ph`/`pid`/`tid`/`ts`, plus
/// `dur` for `"X"` events). Returns a structural summary for further
/// checks.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse_json(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        total_events: events.len(),
        ..TraceSummary::default()
    };
    let mut tids = std::collections::HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i}: missing '{k}'"));
        let not_a = |k: &str, what: &str| format!("event {i}: '{k}' not a {what}");
        let text = |k: &'static str| field(k)?.as_str().ok_or_else(|| not_a(k, "string"));
        let num = |k: &'static str| field(k)?.as_f64().ok_or_else(|| not_a(k, "number"));
        let (name, cat) = (text("name")?.to_string(), text("cat")?.to_string());
        let ph = text("ph")?;
        num("pid")?;
        let tid = num("tid")? as u64;
        let ts = num("ts")?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        tids.insert(tid);
        let lineage_id = ev
            .get("args")
            .and_then(|a| a.get("lineage_id"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        if lineage_id != 0 {
            summary.with_lineage += 1;
        }
        match ph {
            "X" => {
                let dur = num("dur")?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                summary.spans.push(TraceSpan {
                    name,
                    cat,
                    tid,
                    ts_us: ts,
                    dur_us: dur,
                    lineage_id,
                });
            }
            "i" => summary.instants += 1,
            other => return Err(format!("event {i}: unexpected ph '{other}'")),
        }
    }
    summary.tids = tids.len();
    Ok(summary)
}

/// Checks that spans within each thread lane are properly nested: any two
/// spans on one `tid` must be disjoint or contained (±1.5ns tolerance for
/// the exporter's microsecond rounding). This is what makes the trace
/// render as sensible flame stacks.
pub fn check_span_nesting(summary: &TraceSummary) -> Result<(), String> {
    const EPS: f64 = 0.0015; // µs; export rounds to 0.001 µs
    let mut by_tid: std::collections::HashMap<u64, Vec<&TraceSpan>> =
        std::collections::HashMap::new();
    for s in &summary.spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by(|x, y| {
            (x.ts_us, y.dur_us)
                .partial_cmp(&(y.ts_us, x.dur_us))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut stack: Vec<f64> = Vec::new(); // open span end times
        for s in spans {
            while let Some(&end) = stack.last() {
                if s.ts_us >= end - EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                let s_end = s.ts_us + s.dur_us;
                if s_end > end + EPS {
                    return Err(format!(
                        "tid {tid}: span '{}' [{:.3}..{:.3}] overlaps enclosing span ending {:.3}",
                        s.name, s.ts_us, s_end, end
                    ));
                }
            }
            stack.push(s.ts_us + s.dur_us);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, ts: u64, dur: u64, lid: u64) -> Event {
        Event {
            kind,
            name: SmallName::new(name),
            ts_ns: ts,
            dur_ns: dur,
            lineage_id: lid,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn small_name_truncates_at_char_boundary() {
        let s = "é".repeat(20); // 40 bytes
        let n = SmallName::new(&s);
        assert!(n.as_str().len() <= MAX_NAME_BYTES);
        assert!(n.as_str().chars().all(|c| c == 'é'));
        assert_eq!(SmallName::new("tsmm").as_str(), "tsmm");
    }

    #[test]
    fn ring_retains_newest_on_wrap() {
        let ring = ThreadRing::new(1, 8);
        for i in 0..20u64 {
            ring.push(ev(EventKind::Instr, "op", i, 1, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap[0].ts_ns, 12);
        assert_eq!(snap[7].ts_ns, 19);
        assert_eq!(ring.pushed(), 20);
    }

    #[test]
    fn record_respects_gate_and_sampling() {
        let obs = Obs::with_capacity(1 << 10);
        obs.set_enabled(false);
        obs.record(ev(EventKind::Instr, "op", 1, 1, 1));
        assert!(obs.events().is_empty());
        obs.set_enabled(true);
        obs.set_sample_every(4);
        for i in 0..16 {
            obs.record(ev(EventKind::Instr, "op", i, 1, 1));
        }
        // Sampled 1-in-4.
        assert_eq!(obs.events().len(), 4);
        // Structural events bypass sampling.
        obs.record(ev(EventKind::GovernorShift, "L1", 99, 0, 0));
        assert_eq!(obs.events().len(), 5);
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let obs = Obs::with_capacity(256);
        obs.record(ev(EventKind::Instr, "ba+*", 1000, 5000, 42));
        obs.record(ev(EventKind::Kernel, "ba+*", 2000, 2000, 42));
        obs.record(ev(EventKind::CacheMiss, "quote\"name", 1500, 0, 42));
        let json = obs.chrome_trace();
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.total_events, 3);
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.with_lineage, 3);
        check_span_nesting(&summary).unwrap();
    }

    /// Regression: string scanning re-validated the rest of the input as
    /// UTF-8 for every character, so a 1 MB trace took seconds to validate.
    #[test]
    fn large_trace_validates_in_linear_time() {
        let obs = Obs::with_capacity(8_192);
        for i in 0..7_000u64 {
            obs.record(ev(EventKind::Instr, "ba+*·µs", 10 * i, 5, i + 1));
        }
        let json = obs.chrome_trace();
        assert!(json.len() > 500_000);
        let t0 = std::time::Instant::now();
        let summary = validate_chrome_trace(&json).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(summary.total_events, 7_000);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "7 000 events took {elapsed:?} to validate"
        );
    }

    #[test]
    fn nesting_check_rejects_overlap() {
        let summary = TraceSummary {
            total_events: 2,
            spans: vec![
                TraceSpan {
                    name: "a".into(),
                    cat: "instr".into(),
                    tid: 1,
                    ts_us: 0.0,
                    dur_us: 10.0,
                    lineage_id: 0,
                },
                TraceSpan {
                    name: "b".into(),
                    cat: "instr".into(),
                    tid: 1,
                    ts_us: 5.0,
                    dur_us: 10.0,
                    lineage_id: 0,
                },
            ],
            ..TraceSummary::default()
        };
        assert!(check_span_nesting(&summary).is_err());
    }

    #[test]
    fn concurrent_writers_and_reader_do_not_tear() {
        let obs = Arc::new(Obs::with_capacity(1 << 10));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let o = Arc::clone(&obs);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    o.record(ev(EventKind::Instr, "op", i, 1, t + 1));
                }
            }));
        }
        for _ in 0..50 {
            for (_, e) in obs.events() {
                assert!(e.lineage_id >= 1 && e.lineage_id <= 4);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let evs = obs.events();
        assert_eq!(evs.len(), 4 * 1024);
        assert_eq!(obs.dropped(), 4 * (5_000 - 1024));
    }
}
