//! Crash-safe, self-healing persistent reuse cache (durable lineage + values).
//!
//! The paper's lineage log is designed for serialization and full
//! reconstruction of intermediates (§3); this module makes the reuse cache
//! itself survive process death *and at-rest corruption*. A
//! [`PersistentCacheStore`] pairs a generational *manifest WAL* with a
//! directory of checksummed *value files* (the file form of
//! [`lima_matrix::codec`], which the spill store and the wire share):
//!
//! ```text
//! <persist_dir>/manifest.<gen>.wal      append-only record log (active = highest gen)
//! <persist_dir>/manifest.<gen>.wal.tmp  in-flight compaction output (GC'd on recovery)
//! <persist_dir>/values/v<id>.val        one committed value per entry
//! <persist_dir>/values/v<id>.tmp        in-flight value write (GC'd on recovery)
//! <persist_dir>/quarantine/v<id>.val    corrupt files preserved for forensics
//! ```
//!
//! **Commit protocol** (per entry): (1) the value is written to `v<id>.tmp`
//! and fsynced, (2) the temp file is atomically renamed to `v<id>.val`,
//! (3) a `Put` record — serialized lineage via
//! [`crate::lineage::serialize::serialize_lineage`] plus metadata — is
//! appended to the active WAL and fsynced. *The WAL append is the commit
//! point*: a value file without a WAL record is an orphan and is
//! garbage-collected; a WAL record whose value file is missing or corrupt is
//! repaired from lineage or quarantined.
//!
//! **Compaction** bounds WAL growth: tombstones and superseded puts would
//! otherwise replay forever. When the WAL exceeds the live-record footprint
//! by [`PersistOptions::compact_factor`], every live entry is rewritten into
//! `manifest.<gen+1>.wal.tmp`, fsynced, and renamed to `manifest.<gen+1>.wal`
//! — *the rename is the commit point for the generation switch*. Recovery
//! always selects the highest on-disk generation and deletes lower ones, so a
//! crash on either side of the rename lands on a consistent generation
//! (old before, new after). [`FaultSite::PersistCompactWrite`] (torn
//! compaction output) and [`FaultSite::PersistCompactSwitch`] (consulted
//! before *and* after the rename) exercise every interleaving.
//!
//! **Scrubbing** ([`PersistentCacheStore::scrub_chunk`]) re-verifies value
//! checksums and WAL framing at a caller-controlled byte rate. A corrupt
//! entry is not simply dropped: its serialized lineage is the replica, so the
//! store first asks the configured [`RepairHook`] to recompute the value and
//! re-persists it atomically; only unrepairable entries are tombstoned and
//! moved to `quarantine/`. A damaged WAL is repaired wholesale by compacting
//! the in-memory live set into a fresh generation.
//!
//! **Recovery** scans the active WAL front to back, truncates a torn tail at
//! the last valid record, replays tombstones, validates every surviving
//! value file (FNV-1a-64 checksum), repairs or quarantines failures,
//! garbage-collects orphans / stale compaction temps / aged quarantine
//! files, and returns the consistent subset of entries. Dropped entries are
//! tombstoned so the next recovery does not re-attempt them. An unusable
//! directory degrades to an empty store — recovery never errors.
//!
//! **Write-failure posture**: after a failed fsync the kernel may have
//! dropped dirty pages, so the durability of *everything previously written*
//! is unknown — the store does not retry on the same file handle. Any fsync
//! failure or `ENOSPC` latches the store into a degraded, memory-only
//! posture ([`PersistentCacheStore::degrade_reason`]); the data already on
//! disk is revalidated by the next recovery. [`FaultSite::DiskFull`] and
//! [`FaultSite::FsyncFail`] inject both paths.
//!
//! **Crash points** ([`crate::faults::PERSIST_CRASH_POINTS`]) simulate
//! process death at every step of the commit protocols. Once a crash point
//! fires the store refuses all further writes, so the on-disk state observed
//! by the next recovery is exactly the state at the moment of the simulated
//! crash.

use crate::faults::{FaultInjector, FaultSite};
use crate::lineage::item::LinRef;
use crate::lineage::serialize::{deserialize_lineage, serialize_lineage};
use crate::resilience::{RetryBudget, RetryPolicy};
use bytes::{Buf, BufMut, BytesMut};
use lima_matrix::codec::{self, fnv1a, read_u32, read_u64, read_u8};
use lima_matrix::Value;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// WAL record kinds.
const REC_PUT: u8 = 1;
const REC_TOMBSTONE: u8 = 2;
/// Upper bound on a single WAL record payload; anything larger is treated as
/// a torn/garbage tail during recovery.
const MAX_RECORD_BYTES: usize = 256 * 1024 * 1024;
/// Framing overhead of a put record beyond the lineage text: u32 length
/// prefix + (kind u8, id u64, compute_ns u64, value_bytes u64, lin_len u32)
/// + u64 checksum trailer.
const PUT_RECORD_OVERHEAD: u64 = 4 + 29 + 8;

/// Path of generation `generation`'s manifest under `dir`.
fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("manifest.{generation}.wal"))
}

/// Recomputes a corrupt or missing persisted value from its serialized
/// lineage — the LIMA take on replication: the lineage log *is* the replica.
///
/// The hook receives the deserialized lineage root and returns the
/// recomputed value, or a human-readable reason why the lineage cannot be
/// replayed (unregistered data sources, multi-level items, placeholders).
#[derive(Clone)]
pub struct RepairHook(Arc<RepairFn>);

/// Boxed signature of a repair function (see [`RepairHook::new`]).
type RepairFn = dyn Fn(&LinRef) -> Result<Value, String> + Send + Sync;

impl RepairHook {
    /// Wraps a repair function.
    pub fn new(f: impl Fn(&LinRef) -> Result<Value, String> + Send + Sync + 'static) -> Self {
        RepairHook(Arc::new(f))
    }

    /// Attempts to recompute the value for `root`.
    pub fn repair(&self, root: &LinRef) -> Result<Value, String> {
        (self.0)(root)
    }
}

impl std::fmt::Debug for RepairHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RepairHook(..)")
    }
}

/// Why a store latched into memory-only degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// A write returned `ENOSPC`; the disk (or quota) is full.
    DiskFull,
    /// An fsync failed; durability of previously written pages is unknown.
    FsyncFailed,
}

impl DegradeReason {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::DiskFull => "disk-full",
            DegradeReason::FsyncFailed => "fsync-failed",
        }
    }
}

/// Retry schedule for one repair: 2 retries, 1 ms base backoff.
const REPAIR_RETRY: RetryPolicy = RetryPolicy::new(2, 1, 0);

/// Store-wide repair token budget (see [`RetryBudget`]); bounds how much
/// recompute work a flaky disk can trigger.
const REPAIR_BUDGET: u64 = 64;

/// Settings of a [`PersistentCacheStore`]; as `LimaConfig::persist` they
/// enable the persistent reuse cache.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the manifest WAL and value files.
    pub dir: PathBuf,
    /// Disk budget for value files; the oldest entries are tombstoned once
    /// the total exceeds it. 0 = unbounded.
    pub budget_bytes: u64,
    /// WAL size below which auto-compaction never triggers.
    pub compact_min_bytes: u64,
    /// Auto-compact when the WAL exceeds the live-record footprint by this
    /// factor; 0 disables auto-compaction (explicit `compact()` still works).
    pub compact_factor: u64,
    /// Quarantined files older than this are GC'd at recovery; 0 keeps them
    /// forever.
    pub quarantine_max_age_secs: u64,
    /// Recomputes corrupt values from lineage; `None` disables repair
    /// (corrupt entries are quarantined directly). The runtime installs its
    /// reconstruction-based hook when it builds a context.
    pub repair: Option<RepairHook>,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            dir: PathBuf::new(),
            budget_bytes: 1 << 30,
            compact_min_bytes: 64 * 1024,
            compact_factor: 4,
            quarantine_max_age_secs: 86_400,
            repair: None,
        }
    }
}

/// One entry recovered from disk on startup.
pub struct RecoveredEntry {
    /// Deserialized lineage root (the cache key).
    pub root: LinRef,
    /// Validated value.
    pub value: Value,
    /// Measured computation time persisted with the entry.
    pub compute_ns: u64,
    /// Manifest ID of the entry (stable across restarts).
    pub persist_id: u64,
}

/// What startup recovery found and repaired.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries whose lineage parsed and whose value file verified (or was
    /// repaired from lineage).
    pub recovered: u64,
    /// Committed entries dropped (missing/corrupt value file that could not
    /// be repaired, or unparseable lineage).
    pub dropped: u64,
    /// Entries whose value file was recomputed from lineage and re-persisted.
    pub repaired: u64,
    /// Entries a repair hook was asked to rebuild but could not.
    pub repair_failures: u64,
    /// Corrupt files moved to `quarantine/` instead of being served.
    pub quarantined: u64,
    /// Aged quarantine files garbage-collected.
    pub quarantine_gcd: u64,
    /// Whether a torn WAL tail was truncated at the last valid record.
    pub torn_tail_truncated: bool,
    /// Orphaned value/temp files garbage-collected.
    pub orphans_gcd: u64,
    /// In-flight compaction temps (`manifest.*.wal.tmp`) garbage-collected.
    pub stale_tmp_gcd: u64,
    /// Superseded manifest generations removed.
    pub stale_generations_removed: u64,
    /// The active manifest generation after recovery.
    pub generation: u64,
}

/// Outcome of a successful [`PersistentCacheStore::persist`] call.
#[derive(Debug, Clone)]
pub struct PersistOutcome {
    /// Manifest ID assigned to the entry.
    pub id: u64,
    /// Bytes written to the value file.
    pub bytes: u64,
    /// Manifest IDs tombstoned to keep the store inside its disk budget
    /// (callers un-map their cache entries, as for
    /// [`ScrubOutcome::quarantined_ids`]).
    pub evicted_ids: Vec<u64>,
}

/// Outcome of a WAL compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactOutcome {
    /// The new active generation.
    pub generation: u64,
    /// WAL size before the rewrite.
    pub wal_bytes_before: u64,
    /// WAL size after the rewrite (live records only).
    pub wal_bytes_after: u64,
    /// Live entries carried into the new generation.
    pub live_entries: u64,
}

/// Outcome of one [`PersistentCacheStore::scrub_chunk`] call.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Bytes of value files (and, on wrap, WAL) re-verified.
    pub bytes: u64,
    /// Value files re-verified.
    pub entries: u64,
    /// Corruptions detected (value files + WAL).
    pub corrupt: u64,
    /// Corruptions healed (lineage recompute or WAL compaction).
    pub repaired: u64,
    /// Corrupt entries a repair hook failed to rebuild.
    pub repair_failures: u64,
    /// Entries tombstoned and moved to `quarantine/`.
    pub quarantined: u64,
    /// Manifest IDs of quarantined entries (callers un-map their cache
    /// entries so the values can be re-persisted after recompute).
    pub quarantined_ids: Vec<u64>,
    /// Whether a damaged WAL was rebuilt via compaction.
    pub wal_repaired: bool,
    /// Whether this chunk finished a full pass (cursor wrapped to start).
    pub wrapped: bool,
}

/// One live entry's in-memory bookkeeping. Keeping the serialized lineage
/// resident lets compaction rewrite the WAL without re-reading it and lets
/// scrubbing repair entries without trusting on-disk metadata.
struct LiveRec {
    value_bytes: u64,
    compute_ns: u64,
    lineage: Arc<str>,
}

struct StoreState {
    wal: fs::File,
    /// Active manifest generation (`manifest.<gen>.wal`).
    generation: u64,
    /// Bytes appended to the active WAL so far.
    wal_bytes: u64,
    /// Live entries: manifest ID → record (insertion order = ID order, which
    /// is the FIFO used by disk-budget eviction).
    live: BTreeMap<u64, LiveRec>,
    /// Sum of framed put-record sizes for live entries — the WAL size a
    /// compaction would produce.
    live_record_bytes: u64,
    total_bytes: u64,
    /// Next manifest ID the scrubber will examine.
    scrub_cursor: u64,
}

/// Durable store for reuse-cache entries. All writes go through the commit
/// protocols described in the module docs; all methods are thread-safe.
pub struct PersistentCacheStore {
    values_dir: PathBuf,
    quarantine_dir: PathBuf,
    state: Mutex<StoreState>,
    next_id: AtomicU64,
    opts: PersistOptions,
    /// Crash-point and write-failure injection (see
    /// [`PersistentCacheStore::with_faults`]).
    faults: Option<Arc<FaultInjector>>,
    /// Token budget shared by all repair attempts (recovery + scrub).
    repair_budget: RetryBudget,
    /// Set when a crash point fires: the simulated process is dead and no
    /// further bytes may reach disk.
    crashed: AtomicBool,
    /// Set when a write failure makes on-disk durability unknown; the store
    /// refuses further writes but the process keeps serving from memory.
    degraded: Mutex<Option<DegradeReason>>,
    /// Lifetime compactions (drained by the cache layer into stats).
    compactions: AtomicU64,
    /// Lifetime WAL bytes reclaimed by compaction.
    compact_reclaimed: AtomicU64,
}

impl std::fmt::Debug for PersistentCacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "PersistentCacheStore {{ gen: {}, entries: {}, bytes: {}, wal_bytes: {} }}",
            st.generation,
            st.live.len(),
            st.total_bytes,
            st.wal_bytes
        )
    }
}

impl PersistentCacheStore {
    /// Opens (or creates) the store rooted at `dir` (which replaces
    /// `opts.dir`), running the recovery pass: [`examine`] the directory
    /// read-only, then apply what it found. Returns `None` when the directory
    /// is unusable — the caller degrades to a memory-only cache, never an
    /// error.
    pub fn open_with(
        dir: &Path,
        opts: PersistOptions,
    ) -> Option<(Self, Vec<RecoveredEntry>, RecoveryReport)> {
        let opts = PersistOptions {
            dir: dir.to_path_buf(),
            ..opts
        };
        let values_dir = dir.join("values");
        let quarantine_dir = dir.join("quarantine");
        fs::create_dir_all(&values_dir).ok()?;
        fs::create_dir_all(&quarantine_dir).ok()?;
        let mut report = RecoveryReport::default();

        let mut entries = Vec::new();
        let exam = examine(dir, |e| entries.push(e));
        let generation = exam.generation.unwrap_or(0);
        let manifest = manifest_path(dir, generation);
        let legacy = dir.join("manifest.wal");
        if exam.generation.is_none() && legacy.exists() {
            // Migrate a pre-generational store in place.
            fs::rename(&legacy, &manifest).ok()?;
        }
        report.generation = generation;

        // Directory-level findings. In-flight compaction temps were never
        // committed (single-writer store), so they are always safe to
        // delete; of the committed generations only the highest is live —
        // the rename that created it was the commit point, and anything
        // lower (including a pre-generational `manifest.wal`) is a
        // superseded snapshot whose entries the new generation carries.
        // Quarantined files age out so a crash loop cannot leak disk.
        let quarantine_cutoff = match opts.quarantine_max_age_secs {
            0 => None,
            secs => std::time::SystemTime::now().checked_sub(Duration::from_secs(secs)),
        };
        let gc = |path: &Path, gcd: &mut u64| {
            if fs::remove_file(path).is_ok() {
                *gcd += 1;
            }
        };
        for finding in &exam.findings {
            match finding {
                FsckFinding::StaleTmp { name } => gc(&dir.join(name), &mut report.stale_tmp_gcd),
                FsckFinding::StaleGeneration { generation } => gc(
                    &manifest_path(dir, *generation),
                    &mut report.stale_generations_removed,
                ),
                FsckFinding::StaleLegacyManifest => {
                    gc(&legacy, &mut report.stale_generations_removed)
                }
                // Truncate the torn tail so no partially written record is
                // ever visible to a later scan (or appended over mid-record).
                FsckFinding::TornTail { offset } => {
                    report.torn_tail_truncated = true;
                    let f = fs::OpenOptions::new().write(true).open(&manifest).ok()?;
                    f.set_len(*offset).ok()?;
                    let _ = f.sync_all();
                }
                // Temp files and value files with no committed record.
                FsckFinding::OrphanFile { name } => {
                    gc(&values_dir.join(name), &mut report.orphans_gcd)
                }
                FsckFinding::Quarantined { name } => {
                    let path = quarantine_dir.join(name);
                    let aged = quarantine_cutoff.is_some_and(|cutoff| {
                        fs::metadata(&path)
                            .and_then(|m| m.modified())
                            .is_ok_and(|t| t <= cutoff)
                    });
                    if aged {
                        gc(&path, &mut report.quarantine_gcd);
                    }
                }
                // Per-entry findings are applied through the verdicts below.
                FsckFinding::MissingValue { .. }
                | FsckFinding::CorruptValue { .. }
                | FsckFinding::BadLineage { .. } => {}
            }
        }

        // Per-entry verdicts. An entry without a verified root is dropped: a
        // structurally invalid DAG would poison cache probes (its hash can
        // collide with a legitimate trace without ever comparing equal). A
        // value that fails verification is not lost — its lineage is the
        // replica, and the repair hook recomputes it; only unrepairable
        // entries are quarantined and tombstoned.
        let repair_budget = RetryBudget::new(REPAIR_BUDGET);
        let mut recovered = Vec::new();
        let mut live: BTreeMap<u64, LiveRec> = BTreeMap::new();
        let mut total_bytes = 0u64;
        let mut live_record_bytes = 0u64;
        let mut drop_ids: Vec<u64> = Vec::new();
        for e in entries {
            let (id, rec) = (e.id, e.rec);
            let path = values_dir.join(format!("v{id}.val"));
            let kept = match (e.root, e.value) {
                (Some(root), Some(value)) => Some((root, value, rec.value_bytes)),
                (Some(root), None) => {
                    let fixed = attempt_repair(&opts, &repair_budget, &root, &path);
                    match fixed {
                        Some(_) => report.repaired += 1,
                        None if opts.repair.is_some() => report.repair_failures += 1,
                        None => {}
                    }
                    fixed.map(|(value, bytes)| (root, value, bytes))
                }
                (None, _) => None,
            };
            let Some((root, value, value_bytes)) = kept else {
                report.dropped += 1;
                if quarantine_file(&quarantine_dir, &path).is_some() {
                    report.quarantined += 1;
                }
                drop_ids.push(id);
                continue;
            };
            live_record_bytes += rec_len(&rec.lineage);
            total_bytes += value_bytes;
            live.insert(
                id,
                LiveRec {
                    value_bytes,
                    compute_ns: rec.compute_ns,
                    lineage: rec.lineage.into(),
                },
            );
            recovered.push(RecoveredEntry {
                root,
                value,
                compute_ns: rec.compute_ns,
                persist_id: id,
            });
        }
        report.recovered = recovered.len() as u64;

        let mut wal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest)
            .ok()?;
        // Tombstone dropped entries so the next recovery does not re-scan,
        // re-repair, or re-quarantine them.
        for id in drop_ids {
            let _ = wal.write_all(&tombstone_record(id));
        }
        let _ = wal.sync_data();
        let wal_bytes = fs::metadata(&manifest).map(|m| m.len()).unwrap_or(0);

        Some((
            PersistentCacheStore {
                values_dir,
                quarantine_dir,
                state: Mutex::new(StoreState {
                    wal,
                    generation,
                    wal_bytes,
                    live,
                    live_record_bytes,
                    total_bytes,
                    scrub_cursor: 0,
                }),
                next_id: AtomicU64::new(exam.max_id + 1),
                opts,
                faults: None,
                repair_budget,
                crashed: AtomicBool::new(false),
                degraded: Mutex::new(None),
                compactions: AtomicU64::new(0),
                compact_reclaimed: AtomicU64::new(0),
            },
            recovered,
            report,
        ))
    }

    /// Routes the store's crash points and write failures through `faults`
    /// (the cache hands over its configured injector).
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    /// True once a crash point has fired; every later write is refused.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Why the store degraded to memory-only, if it has.
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        *self.degraded.lock()
    }

    /// True while the store accepts writes (neither crashed nor degraded).
    pub fn usable(&self) -> bool {
        !self.crashed() && self.degraded.lock().is_none()
    }

    /// Number of live (committed, not tombstoned) entries.
    pub fn live_entries(&self) -> usize {
        self.state.lock().live.len()
    }

    /// Bytes appended to the active WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.state.lock().wal_bytes
    }

    /// The active manifest generation.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Drains the (compactions, reclaimed bytes) counters accumulated since
    /// the last call; the cache layer translates them into stats.
    pub fn take_compaction_counters(&self) -> (u64, u64) {
        (
            self.compactions.swap(0, Ordering::Relaxed),
            self.compact_reclaimed.swap(0, Ordering::Relaxed),
        )
    }

    fn value_path(&self, id: u64) -> PathBuf {
        self.values_dir.join(format!("v{id}.val"))
    }

    fn crash_here(&self, site: FaultSite) -> std::io::Result<()> {
        if let Some(f) = &self.faults {
            if f.should_fail(site) {
                self.crashed.store(true, Ordering::Relaxed);
                return Err(std::io::Error::other(format!("injected crash: {site:?}")));
            }
        }
        Ok(())
    }

    fn dead(&self) -> std::io::Result<()> {
        if self.crashed() {
            return Err(std::io::Error::other("store crashed"));
        }
        if let Some(r) = *self.degraded.lock() {
            return Err(std::io::Error::other(format!(
                "store degraded: {}",
                r.as_str()
            )));
        }
        Ok(())
    }

    /// Latches the store into degraded, memory-only mode (first reason wins).
    fn poison(&self, reason: DegradeReason) {
        let mut g = self.degraded.lock();
        if g.is_none() {
            *g = Some(reason);
        }
    }

    /// Writes through the disk-full fault site; a real or injected `ENOSPC`
    /// degrades the store.
    fn guarded_write(&self, f: &mut fs::File, buf: &[u8]) -> std::io::Result<()> {
        if let Some(fi) = &self.faults {
            if fi.should_fail(FaultSite::DiskFull) {
                self.poison(DegradeReason::DiskFull);
                return Err(std::io::Error::from_raw_os_error(28));
            }
        }
        f.write_all(buf).inspect_err(|e| {
            if e.raw_os_error() == Some(28) {
                self.poison(DegradeReason::DiskFull);
            }
        })
    }

    /// Syncs through the fsync-failure fault site. After *any* fsync failure
    /// the durability of previously written pages is unknown (the kernel may
    /// have dropped them), so the store degrades rather than retrying.
    fn guarded_sync(&self, f: &fs::File, all: bool) -> std::io::Result<()> {
        if let Some(fi) = &self.faults {
            if fi.should_fail(FaultSite::FsyncFail) {
                self.poison(DegradeReason::FsyncFailed);
                return Err(std::io::Error::other("injected fsync failure"));
            }
        }
        let res = if all { f.sync_all() } else { f.sync_data() };
        res.inspect_err(|_| self.poison(DegradeReason::FsyncFailed))
    }

    /// Durably persists one cache entry. Returns `Ok(None)` for values the
    /// store does not persist (lists). Errors leave the on-disk state
    /// recoverable: at worst an orphan value/temp file or a torn WAL tail,
    /// both repaired by the next recovery pass.
    pub fn persist(
        &self,
        root: &LinRef,
        value: &Value,
        compute_ns: u64,
    ) -> std::io::Result<Option<PersistOutcome>> {
        self.dead()?;
        let Some(encoded) = codec::encode_file(value) else {
            return Ok(None);
        };
        let lineage = serialize_lineage(root);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();

        // Step 1: value file to <id>.tmp, fsynced.
        let tmp = self.values_dir.join(format!("v{id}.tmp"));
        let fin = self.value_path(id);
        let mut f = fs::File::create(&tmp)?;
        self.guarded_write(&mut f, &encoded)?;
        self.guarded_sync(&f, true)?;
        drop(f);

        // Crash point: process dies before the rename — only the temp file
        // exists; recovery GCs it.
        self.crash_here(FaultSite::PersistRename)?;

        // Step 2: atomic rename to the committed name.
        fs::rename(&tmp, &fin)?;

        // Crash point: value committed, manifest record never written — the
        // value file is an orphan; recovery GCs it.
        self.crash_here(FaultSite::PersistCommit)?;

        // Step 3: manifest append (the commit point).
        let record = put_record(id, compute_ns, encoded.len() as u64, &lineage);

        // Crash point: process dies mid-append — a prefix of the record
        // reaches disk; recovery truncates the torn tail.
        if let Some(fi) = &self.faults {
            if fi.should_fail(FaultSite::PersistWalAppend) {
                self.crashed.store(true, Ordering::Relaxed);
                let torn = &record[..record.len() / 2];
                let _ = st.wal.write_all(torn);
                let _ = st.wal.sync_data();
                return Err(std::io::Error::other("injected crash: PersistWalAppend"));
            }
        }
        self.guarded_write(&mut st.wal, &record)?;
        self.guarded_sync(&st.wal, false)?;
        st.wal_bytes += record.len() as u64;
        st.live_record_bytes += record.len() as u64;

        st.live.insert(
            id,
            LiveRec {
                value_bytes: encoded.len() as u64,
                compute_ns,
                lineage: lineage.into(),
            },
        );
        st.total_bytes += encoded.len() as u64;

        // Disk budget: tombstone the oldest entries (FIFO by manifest ID)
        // until the new entry fits.
        let mut evicted_ids = Vec::new();
        if self.opts.budget_bytes > 0 {
            while st.total_bytes > self.opts.budget_bytes && st.live.len() > 1 {
                let (old, bytes, lin) = {
                    let Some((&old, rec)) = st.live.iter().next() else {
                        break;
                    };
                    (old, rec.value_bytes, Arc::clone(&rec.lineage))
                };
                if old == id {
                    break;
                }
                self.append_tombstone(&mut st, old)?;
                st.live.remove(&old);
                st.total_bytes -= bytes;
                st.live_record_bytes = st.live_record_bytes.saturating_sub(rec_len(&lin));
                let _ = fs::remove_file(self.value_path(old));
                evicted_ids.push(old);
            }
        }

        self.maybe_compact(&mut st)?;

        Ok(Some(PersistOutcome {
            id,
            bytes: encoded.len() as u64,
            evicted_ids,
        }))
    }

    /// Reads entry `id`'s committed value file, verifying its checksum. The
    /// file stays in place: it is the entry's one on-disk copy. A file that
    /// was tombstoned, quarantined or damaged since reads as an error.
    pub fn read(&self, id: u64) -> std::io::Result<Value> {
        codec::read_file(&self.value_path(id))
    }

    /// Appends an eviction tombstone for `id` and deletes its value file.
    /// Unknown/already-tombstoned IDs are a no-op.
    pub fn tombstone(&self, id: u64) -> std::io::Result<bool> {
        self.dead()?;
        let mut st = self.state.lock();
        let Some(rec) = st.live.remove(&id) else {
            return Ok(false);
        };
        st.total_bytes -= rec.value_bytes;
        st.live_record_bytes = st.live_record_bytes.saturating_sub(rec_len(&rec.lineage));
        self.append_tombstone(&mut st, id)?;
        let _ = fs::remove_file(self.value_path(id));
        self.maybe_compact(&mut st)?;
        Ok(true)
    }

    fn append_tombstone(&self, st: &mut StoreState, id: u64) -> std::io::Result<()> {
        let record = tombstone_record(id);
        self.guarded_write(&mut st.wal, &record)?;
        self.guarded_sync(&st.wal, false)?;
        st.wal_bytes += record.len() as u64;
        Ok(())
    }

    /// Rewrites the live set into a fresh WAL generation, reclaiming
    /// tombstone and superseded-put space. The generation-file rename is the
    /// commit point; recovery from a crash on either side of it lands on a
    /// consistent generation.
    pub fn compact(&self) -> std::io::Result<CompactOutcome> {
        self.dead()?;
        let mut st = self.state.lock();
        self.compact_locked(&mut st)
    }

    /// Auto-compaction trigger: the WAL is past the floor and exceeds the
    /// live-record footprint by the configured factor.
    fn maybe_compact(&self, st: &mut StoreState) -> std::io::Result<()> {
        if self.opts.compact_factor == 0
            || st.wal_bytes < self.opts.compact_min_bytes
            || st.wal_bytes
                <= st
                    .live_record_bytes
                    .saturating_mul(self.opts.compact_factor)
        {
            return Ok(());
        }
        self.compact_locked(st).map(|_| ())
    }

    fn compact_locked(&self, st: &mut StoreState) -> std::io::Result<CompactOutcome> {
        let before = st.wal_bytes;
        let new_gen = st.generation + 1;
        let tmp = self.opts.dir.join(format!("manifest.{new_gen}.wal.tmp"));
        let fin = manifest_path(&self.opts.dir, new_gen);
        let mut buf = Vec::with_capacity(st.live_record_bytes as usize);
        for (id, rec) in &st.live {
            buf.extend_from_slice(&put_record(
                *id,
                rec.compute_ns,
                rec.value_bytes,
                &rec.lineage,
            ));
        }

        // Crash point: process dies mid-write of the compacted generation —
        // a torn `manifest.<gen>.wal.tmp` is left behind; recovery GCs it and
        // keeps serving the old generation.
        if let Some(fi) = &self.faults {
            if fi.should_fail(FaultSite::PersistCompactWrite) {
                self.crashed.store(true, Ordering::Relaxed);
                let _ = fs::write(&tmp, &buf[..buf.len() / 2]);
                return Err(std::io::Error::other("injected crash: PersistCompactWrite"));
            }
        }
        let mut f = fs::File::create(&tmp)?;
        self.guarded_write(&mut f, &buf)?;
        self.guarded_sync(&f, true)?;
        drop(f);

        // Crash point (pre-rename): the compacted generation is complete but
        // uncommitted; recovery GCs the tmp and keeps the old generation.
        self.crash_here(FaultSite::PersistCompactSwitch)?;

        // The commit point: after this rename the new generation wins.
        fs::rename(&tmp, &fin)?;

        // Crash point (post-rename): both generations exist; recovery picks
        // the higher one and removes the stale file.
        self.crash_here(FaultSite::PersistCompactSwitch)?;

        let _ = fs::remove_file(manifest_path(&self.opts.dir, st.generation));
        st.wal = fs::OpenOptions::new().append(true).open(&fin)?;
        st.generation = new_gen;
        st.wal_bytes = buf.len() as u64;
        st.live_record_bytes = buf.len() as u64;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compact_reclaimed
            .fetch_add(before.saturating_sub(buf.len() as u64), Ordering::Relaxed);
        Ok(CompactOutcome {
            generation: new_gen,
            wal_bytes_before: before,
            wal_bytes_after: buf.len() as u64,
            live_entries: st.live.len() as u64,
        })
    }

    /// Re-verifies up to `max_bytes` of value files (0 = unbounded), picking
    /// up where the previous chunk left off; when the value pass completes,
    /// also re-verifies the WAL's own framing and wraps the cursor. Corrupt
    /// values are repaired from lineage where possible, otherwise
    /// quarantined and tombstoned; a damaged WAL is rebuilt by compaction.
    pub fn scrub_chunk(&self, max_bytes: u64) -> std::io::Result<ScrubOutcome> {
        self.dead()?;
        let mut st = self.state.lock();
        let mut out = ScrubOutcome::default();
        let ids: Vec<u64> = st
            .live
            .range(st.scrub_cursor..)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if max_bytes > 0 && out.bytes >= max_bytes {
                st.scrub_cursor = id;
                return Ok(out);
            }
            let Some(rec) = st.live.get(&id) else {
                continue;
            };
            let (vb, lineage) = (rec.value_bytes, Arc::clone(&rec.lineage));
            let path = self.value_path(id);
            out.entries += 1;
            out.bytes += vb;
            if codec::read_file(&path).is_ok() {
                continue;
            }
            out.corrupt += 1;
            // The lineage is the replica: recompute and rewrite in place.
            if let Some(nb) = self.repair_in_place(&lineage, &path) {
                out.repaired += 1;
                if nb != vb {
                    if let Some(r) = st.live.get_mut(&id) {
                        r.value_bytes = nb;
                    }
                    st.total_bytes = st.total_bytes.saturating_sub(vb) + nb;
                }
                continue;
            }
            if self.opts.repair.is_some() {
                out.repair_failures += 1;
            }
            self.quarantine_locked(&mut st, id)?;
            out.quarantined += 1;
            out.quarantined_ids.push(id);
        }

        // Value pass complete: verify the WAL's own framing. Any bad frame
        // in a healthy running store is at-rest damage (torn tails are
        // truncated at open, and appends are whole frames); every live
        // record is resident, so compacting into a fresh generation is a
        // full repair.
        let scan = scan_manifest(&manifest_path(&self.opts.dir, st.generation));
        out.bytes += scan.bytes;
        if scan.torn.is_some() {
            out.corrupt += 1;
            self.compact_locked(&mut st)?;
            out.wal_repaired = true;
            out.repaired += 1;
        }
        st.scrub_cursor = 0;
        out.wrapped = true;
        Ok(out)
    }

    /// Recomputes the value for `lineage` via the repair hook and atomically
    /// rewrites `path`. Returns the encoded size on success.
    fn repair_in_place(&self, lineage: &str, path: &Path) -> Option<u64> {
        let root = deserialize_lineage(lineage).ok()?;
        attempt_repair(&self.opts, &self.repair_budget, &root, path).map(|(_, nb)| nb)
    }

    /// Moves `id`'s value file to `quarantine/`, tombstones it, and drops it
    /// from the live set.
    fn quarantine_locked(&self, st: &mut StoreState, id: u64) -> std::io::Result<()> {
        let _ = quarantine_file(&self.quarantine_dir, &self.value_path(id));
        if let Some(rec) = st.live.remove(&id) {
            st.total_bytes = st.total_bytes.saturating_sub(rec.value_bytes);
            st.live_record_bytes = st.live_record_bytes.saturating_sub(rec_len(&rec.lineage));
            self.append_tombstone(st, id)?;
        }
        Ok(())
    }
}

/// Runs the repair hook (bounded by the retry policy and global budget) and
/// atomically rewrites the value file. Returns the value and encoded size.
fn attempt_repair(
    opts: &PersistOptions,
    budget: &RetryBudget,
    root: &LinRef,
    path: &Path,
) -> Option<(Value, u64)> {
    let hook = opts.repair.as_ref()?;
    let (res, _retries) =
        REPAIR_RETRY.run_budgeted(Some(budget), |_e: &String| true, || hook.repair(root));
    let value = res.ok()?;
    let encoded = codec::encode_file(&value)?;
    write_value_atomic(path, &encoded).ok()?;
    Some((value, encoded.len() as u64))
}

/// Writes `encoded` to `path` via tmp + fsync + rename.
fn write_value_atomic(path: &Path, encoded: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(encoded)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Moves a file into the quarantine directory, preserving its name. Returns
/// `None` when there was nothing to move (or the file had to be deleted
/// because the move failed).
fn quarantine_file(quarantine_dir: &Path, path: &Path) -> Option<()> {
    if !path.exists() {
        return None;
    }
    let name = path.file_name()?;
    let dest = quarantine_dir.join(name);
    if fs::rename(path, &dest).is_err() {
        // Cross-device or permission trouble: delete rather than serve.
        let _ = fs::remove_file(path);
        return None;
    }
    Some(())
}

/// Frames a payload as `len ∥ payload ∥ fnv1a(payload)`.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = BytesMut::with_capacity(payload.len() + 12);
    rec.put_u32(payload.len() as u32);
    rec.put_slice(payload);
    rec.put_u64(fnv1a(payload));
    rec.to_vec()
}

/// Builds a framed `Put` record.
fn put_record(id: u64, compute_ns: u64, value_bytes: u64, lineage: &str) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(REC_PUT);
    payload.put_u64(id);
    payload.put_u64(compute_ns);
    payload.put_u64(value_bytes);
    payload.put_u32(lineage.len() as u32);
    payload.put_slice(lineage.as_bytes());
    frame_record(&payload)
}

/// Builds a framed `Tombstone` record.
fn tombstone_record(id: u64) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(REC_TOMBSTONE);
    payload.put_u64(id);
    frame_record(&payload)
}

/// Size a framed `Put` record for `lineage` occupies in the WAL.
fn rec_len(lineage: &str) -> u64 {
    PUT_RECORD_OVERHEAD + lineage.len() as u64
}

struct PutRec {
    compute_ns: u64,
    value_bytes: u64,
    lineage: String,
}

/// One front-to-back walk of a manifest file.
struct ManifestScan {
    /// Surviving puts (tombstones applied).
    puts: BTreeMap<u64, PutRec>,
    /// Offset of the first frame that is partial, fails its checksum or does
    /// not parse; `None` when the file ends exactly on a frame boundary.
    torn: Option<u64>,
    /// Highest manifest ID seen.
    max_id: u64,
    /// Size of the file.
    bytes: u64,
}

/// The one WAL frame walker: recovery and `fsck` read its puts and torn
/// offset through [`examine`]; the scrubber asks only whether `torn` is set.
fn scan_manifest(path: &Path) -> ManifestScan {
    let raw = fs::read(path).unwrap_or_default();
    let mut scan = ManifestScan {
        puts: BTreeMap::new(),
        torn: None,
        max_id: 0,
        bytes: raw.len() as u64,
    };
    let mut off = 0usize;
    while off < raw.len() {
        let frame = raw.get(off..).and_then(|rest| {
            let len = u32::from_be_bytes(*rest.first_chunk::<4>()?) as usize;
            if len > MAX_RECORD_BYTES {
                return None;
            }
            let payload = rest.get(4..4 + len)?;
            let mut trailer = rest.get(4 + len..4 + len + 8)?;
            if fnv1a(payload) != trailer.get_u64() {
                return None;
            }
            // Checksummed but semantically malformed (unknown kind, bad
            // lengths) means a future or corrupted writer: stop there too.
            Some((parse_payload(payload)?, 4 + len + 8))
        });
        let Some((rec, frame_len)) = frame else {
            scan.torn = Some(off as u64);
            break;
        };
        match rec {
            Record::Put { id, rec } => {
                scan.max_id = scan.max_id.max(id);
                scan.puts.insert(id, rec);
            }
            Record::Tombstone { id } => {
                scan.max_id = scan.max_id.max(id);
                scan.puts.remove(&id);
            }
        }
        off += frame_len;
    }
    scan
}

enum Record {
    Put { id: u64, rec: PutRec },
    Tombstone { id: u64 },
}

fn parse_payload(mut p: &[u8]) -> Option<Record> {
    let kind = read_u8(&mut p)?;
    let id = read_u64(&mut p)?;
    match kind {
        REC_PUT => {
            let compute_ns = read_u64(&mut p)?;
            let value_bytes = read_u64(&mut p)?;
            let lin_len = read_u32(&mut p)? as usize;
            if p.len() != lin_len {
                return None;
            }
            let lineage = String::from_utf8(p.to_vec()).ok()?;
            Some(Record::Put {
                id,
                rec: PutRec {
                    compute_ns,
                    value_bytes,
                    lineage,
                },
            })
        }
        REC_TOMBSTONE => {
            if p.remaining() != 0 {
                return None;
            }
            Some(Record::Tombstone { id })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Offline verification (`lima-lint fsck`)
// ---------------------------------------------------------------------------

/// One finding from an offline [`fsck`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckFinding {
    /// The WAL ends in a partial or corrupt frame at `offset`.
    TornTail {
        /// Byte offset of the first bad frame.
        offset: u64,
    },
    /// A committed entry's value file does not exist.
    MissingValue {
        /// Manifest ID.
        id: u64,
    },
    /// A committed entry's value file fails verification.
    CorruptValue {
        /// Manifest ID.
        id: u64,
        /// Human-readable failure.
        detail: String,
    },
    /// A committed entry's serialized lineage does not parse or violates the
    /// DAG invariants.
    BadLineage {
        /// Manifest ID.
        id: u64,
        /// Human-readable failure.
        detail: String,
    },
    /// A file in `values/` with no committed manifest record.
    OrphanFile {
        /// File name.
        name: String,
    },
    /// An in-flight compaction temp (`manifest.*.wal.tmp`).
    StaleTmp {
        /// File name.
        name: String,
    },
    /// A manifest generation superseded by a higher one.
    StaleGeneration {
        /// The superseded generation.
        generation: u64,
    },
    /// A pre-generational `manifest.wal` superseded by a committed
    /// generation.
    StaleLegacyManifest,
    /// A file previously quarantined by the scrubber (informational).
    Quarantined {
        /// File name.
        name: String,
    },
}

impl FsckFinding {
    /// True for findings that mean committed data is damaged or lost;
    /// debris findings (orphans, stale temps/generations, quarantine
    /// contents) are informational — startup recovery GCs them.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            FsckFinding::TornTail { .. }
                | FsckFinding::MissingValue { .. }
                | FsckFinding::CorruptValue { .. }
                | FsckFinding::BadLineage { .. }
        )
    }

    /// One-line human-readable rendering.
    pub fn render(&self) -> String {
        match self {
            FsckFinding::TornTail { offset } => {
                format!("torn-tail: WAL frame at byte {offset} is partial or corrupt")
            }
            FsckFinding::MissingValue { id } => {
                format!("missing-value: committed entry v{id}.val does not exist")
            }
            FsckFinding::CorruptValue { id, detail } => {
                format!("corrupt-value: v{id}.val fails verification ({detail})")
            }
            FsckFinding::BadLineage { id, detail } => {
                format!("bad-lineage: entry {id} has invalid lineage ({detail})")
            }
            FsckFinding::OrphanFile { name } => {
                format!("orphan-file: values/{name} has no committed manifest record")
            }
            FsckFinding::StaleTmp { name } => {
                format!("stale-tmp: {name} is an uncommitted compaction output")
            }
            FsckFinding::StaleGeneration { generation } => {
                format!("stale-generation: manifest.{generation}.wal is superseded")
            }
            FsckFinding::StaleLegacyManifest => {
                "stale-generation: manifest.wal is superseded".to_string()
            }
            FsckFinding::Quarantined { name } => {
                format!("quarantined: quarantine/{name}")
            }
        }
    }
}

/// Offline [`fsck`] summary.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Active manifest generation; `None` for a fresh or pre-generational
    /// (un-migrated) directory.
    pub generation: Option<u64>,
    /// Entries whose lineage and value file both verify.
    pub live_entries: u64,
    /// Bytes of verified value files.
    pub live_bytes: u64,
    /// Everything wrong or noteworthy, in scan order.
    pub findings: Vec<FsckFinding>,
}

impl FsckReport {
    /// True when any finding indicates damaged or lost committed data.
    pub fn has_corruption(&self) -> bool {
        self.findings.iter().any(|f| f.is_corruption())
    }
}

/// Read-only offline verification of a persist directory: [`examine`]'s
/// findings plus a count of the entries that verify. Never writes; safe to
/// run against a live store's directory (results may be stale) or a cold one.
pub fn fsck(dir: &Path) -> FsckReport {
    let values_dir = dir.join("values");
    let (mut live_entries, mut live_bytes) = (0u64, 0u64);
    let exam = examine(dir, |e| {
        if e.root.is_some() && e.value.is_some() {
            live_entries += 1;
            live_bytes += fs::metadata(values_dir.join(format!("v{}.val", e.id)))
                .map(|m| m.len())
                .unwrap_or(0);
        }
    });
    FsckReport {
        generation: exam.generation,
        live_entries,
        live_bytes,
        findings: exam.findings,
    }
}

// ---------------------------------------------------------------------------
// The store examiner: what a healthy directory looks like, defined once.
// Recovery applies its findings, `fsck` renders them.
// ---------------------------------------------------------------------------

/// One committed entry as [`examine`] found it.
struct Examined {
    id: u64,
    rec: PutRec,
    /// The parsed lineage root; `None` under a `BadLineage` finding.
    root: Option<LinRef>,
    /// The verified value; `None` under a `MissingValue` or `CorruptValue`
    /// finding.
    value: Option<Value>,
}

/// Directory-level result of [`examine`].
struct Examination {
    /// Highest committed generation; `None` for a fresh or pre-generational
    /// directory, whose manifest (if any) is `manifest.wal`.
    generation: Option<u64>,
    /// Highest manifest ID in the active WAL.
    max_id: u64,
    /// Everything wrong or noteworthy, in scan order.
    findings: Vec<FsckFinding>,
}

/// Examines a persist directory without writing to it: generation
/// discovery, the active WAL's framing, every committed entry's lineage
/// (parse + DAG invariants, scoped per entry: distinct programs sharing a
/// store may reuse block keys, which must not read as cross-entry patch
/// conflicts) and value file (checksum), then debris in `values/` and the
/// contents of `quarantine/`. Each committed entry is handed to `visit`
/// with its verdict as soon as it is checked, so a caller that only counts
/// never holds more than one value.
fn examine(dir: &Path, mut visit: impl FnMut(Examined)) -> Examination {
    let mut findings = Vec::new();
    let values_dir = dir.join("values");

    let mut gens: Vec<u64> = Vec::new();
    let mut legacy = false;
    for name in file_names(dir) {
        if name == "manifest.wal" {
            legacy = true;
        } else if name.starts_with("manifest.") && name.ends_with(".wal.tmp") {
            findings.push(FsckFinding::StaleTmp { name });
        } else if let Some(g) = name
            .strip_prefix("manifest.")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push(g);
        }
    }
    gens.sort_unstable();
    let generation = gens.pop();
    findings.extend(
        gens.iter()
            .map(|&generation| FsckFinding::StaleGeneration { generation }),
    );
    let manifest = match generation {
        Some(active) => {
            if legacy {
                findings.push(FsckFinding::StaleLegacyManifest);
            }
            manifest_path(dir, active)
        }
        None => dir.join("manifest.wal"),
    };

    let scan = scan_manifest(&manifest);
    if let Some(offset) = scan.torn {
        findings.push(FsckFinding::TornTail { offset });
    }
    let committed: Vec<u64> = scan.puts.keys().copied().collect();
    for (id, rec) in scan.puts {
        let root = match verified_root(&rec.lineage) {
            Ok(root) => Some(root),
            Err(detail) => {
                findings.push(FsckFinding::BadLineage { id, detail });
                None
            }
        };
        let path = values_dir.join(format!("v{id}.val"));
        let value = if !path.exists() {
            findings.push(FsckFinding::MissingValue { id });
            None
        } else {
            match codec::read_file(&path) {
                Ok(value) => Some(value),
                Err(e) => {
                    let detail = e.to_string();
                    findings.push(FsckFinding::CorruptValue { id, detail });
                    None
                }
            }
        };
        visit(Examined {
            id,
            rec,
            root,
            value,
        });
    }

    for name in file_names(&values_dir) {
        let is_committed = name
            .strip_prefix('v')
            .and_then(|s| s.strip_suffix(".val"))
            .and_then(|s| s.parse::<u64>().ok())
            .is_some_and(|id| committed.binary_search(&id).is_ok());
        if !is_committed {
            findings.push(FsckFinding::OrphanFile { name });
        }
    }
    findings.extend(
        file_names(&dir.join("quarantine"))
            .into_iter()
            .map(|name| FsckFinding::Quarantined { name }),
    );
    Examination {
        generation,
        max_id: scan.max_id,
        findings,
    }
}

/// Parses a serialized lineage and checks the DAG invariants.
fn verified_root(lineage: &str) -> Result<LinRef, String> {
    let root = deserialize_lineage(lineage).map_err(|e| e.to_string())?;
    crate::lineage::verify::verify_dag(&root).map_err(|e| e.to_string())?;
    Ok(root)
}

/// File names directly under `dir` (empty when it cannot be read).
fn file_names(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::{lineage_eq, LineageItem};
    use lima_matrix::DenseMatrix;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "lima-persist-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn item(seed: &str) -> LinRef {
        LineageItem::op(
            "ba+*",
            vec![LineageItem::op_with_data("read", seed, vec![])],
        )
    }

    fn mat(n: usize) -> Value {
        Value::matrix(DenseMatrix::from_fn(n, n, |i, j| (i * n + j) as f64 * 0.5))
    }

    type Opened = (PersistentCacheStore, Vec<RecoveredEntry>, RecoveryReport);

    /// Opens `dir` and checks examiner ≡ recovery on the way: `fsck` taken
    /// *before* recovery predicts the [`RecoveryReport`] finding for
    /// finding, and `fsck` taken *after* sees a directory with no damage and
    /// no debris left. Every test in this module that reopens a store —
    /// healthy, torn, corrupted, crashed mid-protocol — goes through here.
    fn open_opts(dir: &Path, opts: PersistOptions) -> Opened {
        let before = fsck(dir);
        let opened = PersistentCacheStore::open_with(dir, opts).expect("store opens");
        let rep = &opened.2;
        let count = |pred: fn(&FsckFinding) -> bool| {
            before.findings.iter().filter(|f| pred(f)).count() as u64
        };
        assert_eq!(
            rep.torn_tail_truncated,
            count(|f| matches!(f, FsckFinding::TornTail { .. })) == 1
        );
        assert_eq!(
            rep.orphans_gcd,
            count(|f| matches!(f, FsckFinding::OrphanFile { .. }))
        );
        assert_eq!(
            rep.stale_tmp_gcd,
            count(|f| matches!(f, FsckFinding::StaleTmp { .. }))
        );
        assert_eq!(
            rep.stale_generations_removed,
            count(|f| matches!(
                f,
                FsckFinding::StaleGeneration { .. } | FsckFinding::StaleLegacyManifest
            ))
        );
        let damaged: std::collections::BTreeSet<u64> = before
            .findings
            .iter()
            .filter_map(|f| match f {
                FsckFinding::BadLineage { id, .. }
                | FsckFinding::CorruptValue { id, .. }
                | FsckFinding::MissingValue { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(rep.dropped + rep.repaired, damaged.len() as u64);
        assert_eq!(
            rep.recovered + rep.dropped,
            before.live_entries + damaged.len() as u64
        );
        assert_eq!(rep.generation, before.generation.unwrap_or(0));

        let after = fsck(dir);
        assert_eq!(after.generation, Some(rep.generation));
        assert_eq!(after.live_entries, rep.recovered);
        let leftover: Vec<_> = after
            .findings
            .iter()
            .filter(|f| !matches!(f, FsckFinding::Quarantined { .. }))
            .collect();
        assert!(leftover.is_empty(), "recovery left behind: {leftover:?}");
        opened
    }

    fn open(dir: &Path) -> Opened {
        open_opts(dir, PersistOptions::default())
    }

    fn open_faulty(dir: &Path, faults: Arc<FaultInjector>) -> Opened {
        let (store, entries, report) = open(dir);
        (store.with_faults(Some(faults)), entries, report)
    }

    /// Flips one byte near the middle of a file.
    fn flip_byte(path: &Path) {
        let mut raw = fs::read(path).unwrap();
        let pos = raw.len() / 2;
        raw[pos] ^= 0x40;
        fs::write(path, &raw).unwrap();
    }

    #[test]
    fn persist_then_recover_round_trips() {
        let dir = tmp_dir("roundtrip");
        {
            let (store, rec, rep) = open(&dir);
            assert!(rec.is_empty());
            assert_eq!(rep, RecoveryReport::default());
            store.persist(&item("X"), &mat(4), 1_000).unwrap().unwrap();
            store
                .persist(&item("Y"), &Value::f64(2.5), 2_000)
                .unwrap()
                .unwrap();
            // Lists are not persisted.
            assert!(store
                .persist(&item("L"), &Value::list(vec![]), 1)
                .unwrap()
                .is_none());
        }
        let (_store, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 2);
        assert_eq!(rep.dropped, 0);
        assert!(!rep.torn_tail_truncated);
        assert_eq!(rep.orphans_gcd, 0);
        assert_eq!(rep.generation, 0);
        let x = rec
            .iter()
            .find(|e| lineage_eq(&e.root, &item("X")))
            .unwrap();
        assert!(x.value.approx_eq(&mat(4), 0.0));
        assert_eq!(x.compute_ns, 1_000);
        let y = rec
            .iter()
            .find(|e| lineage_eq(&e.root, &item("Y")))
            .unwrap();
        assert_eq!(y.value.as_f64().unwrap(), 2.5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstoned_entries_do_not_recover() {
        let dir = tmp_dir("tombstone");
        let id = {
            let (store, _, _) = open(&dir);
            let a = store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
            assert!(store.tombstone(a.id).unwrap());
            assert!(!store.tombstone(a.id).unwrap(), "double tombstone no-ops");
            a.id
        };
        let (store, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert!(lineage_eq(&rec[0].root, &item("B")));
        assert!(rec.iter().all(|e| e.persist_id != id));
        assert_eq!(store.live_entries(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_earlier_records_survive() {
        let dir = tmp_dir("torn");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
        }
        // Append garbage prefix of a record (torn tail).
        let manifest = dir.join("manifest.0.wal");
        let clean_len = fs::metadata(&manifest).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&manifest).unwrap();
        f.write_all(&[0, 0, 0, 99, 1, 2, 3]).unwrap();
        drop(f);
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 2);
        assert!(rep.torn_tail_truncated);
        assert_eq!(fs::metadata(&manifest).unwrap().len(), clean_len);
        assert_eq!(rec.len(), 2);
        // A second recovery is clean (truncation is durable).
        let (_s, _rec, rep2) = open(&dir);
        assert!(!rep2.torn_tail_truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_value_files_are_quarantined_not_served() {
        let dir = tmp_dir("corruptval");
        let id = {
            let (store, _, _) = open(&dir);
            let o = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(4), 20).unwrap().unwrap();
            o.id
        };
        let victim = dir.join("values").join(format!("v{id}.val"));
        flip_byte(&victim);
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.dropped, 1);
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.repaired, 0, "no hook, no repair");
        assert!(lineage_eq(&rec[0].root, &item("B")));
        assert!(!victim.exists(), "corrupt value file left values/");
        assert!(
            dir.join("quarantine").join(format!("v{id}.val")).exists(),
            "corrupt value file preserved in quarantine/"
        );
        // The drop was tombstoned: a second recovery is clean.
        let (_s, rec2, rep2) = open(&dir);
        assert_eq!(rep2.recovered, 1);
        assert_eq!(rep2.dropped, 0);
        assert_eq!(rec2.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_value_files_are_dropped() {
        let dir = tmp_dir("missingval");
        let id = {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(4), 10).unwrap().unwrap().id
        };
        fs::remove_file(dir.join("values").join(format!("v{id}.val"))).unwrap();
        let (_s, rec, rep) = open(&dir);
        assert!(rec.is_empty());
        assert_eq!(rep.dropped, 1);
        assert_eq!(rep.quarantined, 0, "nothing on disk to quarantine");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_value_and_temp_files_are_garbage_collected() {
        let dir = tmp_dir("orphans");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        }
        let values = dir.join("values");
        fs::write(values.join("v999.val"), b"orphan").unwrap();
        fs::write(values.join("v1000.tmp"), b"in-flight").unwrap();
        fs::write(values.join("junk.bin"), b"noise").unwrap();
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rec.len(), 1);
        assert_eq!(rep.orphans_gcd, 3);
        assert!(!values.join("v999.val").exists());
        assert!(!values.join("v1000.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unparseable_lineage_is_dropped() {
        let dir = tmp_dir("badlineage");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        }
        // Hand-craft a put record with garbage lineage but a valid frame.
        {
            let mut payload = BytesMut::new();
            payload.put_u8(REC_PUT);
            payload.put_u64(7777);
            payload.put_u64(0);
            payload.put_u64(0);
            let lin = b"not a lineage log";
            payload.put_u32(lin.len() as u32);
            payload.put_slice(lin);
            let rec = frame_record(&payload);
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("manifest.0.wal"))
                .unwrap();
            f.write_all(&rec).unwrap();
        }
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.dropped, 1);
        assert_eq!(rec.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn structurally_invalid_lineage_is_dropped() {
        let dir = tmp_dir("invalidlineage");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        }
        // A record whose lineage parses but violates the DAG invariants:
        // a placeholder leaf outside any patch body.
        {
            let mut payload = BytesMut::new();
            payload.put_u8(REC_PUT);
            payload.put_u64(7778);
            payload.put_u64(0);
            payload.put_u64(0);
            let lin = b"(1) P 0\n::out (1)\n";
            payload.put_u32(lin.len() as u32);
            payload.put_slice(lin);
            let rec = frame_record(&payload);
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("manifest.0.wal"))
                .unwrap();
            f.write_all(&rec).unwrap();
        }
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.dropped, 1);
        assert_eq!(rec.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_budget_evicts_oldest_with_tombstones() {
        let dir = tmp_dir("budget");
        // Each 8x8 matrix encodes to 9 + 16 + 512 + 8 = 545 bytes; a budget
        // of 1200 holds two.
        let opts = PersistOptions {
            budget_bytes: 1200,
            ..PersistOptions::default()
        };
        let (store, _, _) = open_opts(&dir, opts);
        let a = store.persist(&item("A"), &mat(8), 10).unwrap().unwrap();
        assert!(a.evicted_ids.is_empty());
        let b = store.persist(&item("B"), &mat(8), 20).unwrap().unwrap();
        assert!(b.evicted_ids.is_empty());
        let c = store.persist(&item("C"), &mat(8), 30).unwrap().unwrap();
        assert_eq!(
            c.evicted_ids,
            vec![a.id],
            "oldest entry tombstoned to fit the budget"
        );
        assert!(store.read(a.id).is_err(), "a tombstoned file is gone");
        assert!(store.read(b.id).unwrap().approx_eq(&mat(8), 0.0));
        assert_eq!(store.live_entries(), 2);
        drop(store);
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 2);
        assert!(rec.iter().all(|e| !lineage_eq(&e.root, &item("A"))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_wal_append_leaves_recoverable_torn_tail() {
        let dir = tmp_dir("crashwal");
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistWalAppend, &[1]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            assert!(store.persist(&item("B"), &mat(3), 20).is_err());
            assert!(store.crashed());
            assert!(!store.usable());
            // Dead process: later writes refuse without touching disk.
            assert!(store.persist(&item("C"), &mat(3), 30).is_err());
        }
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1, "only the committed entry survives");
        assert!(rep.torn_tail_truncated);
        assert!(lineage_eq(&rec[0].root, &item("A")));
        // B's committed value file became an orphan of the torn record.
        assert_eq!(rep.orphans_gcd, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_value_commit_and_manifest_append_gcs_orphan() {
        let dir = tmp_dir("crashcommit");
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistCommit, &[1]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            assert!(store.persist(&item("B"), &mat(3), 20).is_err());
        }
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert!(!rep.torn_tail_truncated);
        assert_eq!(rep.orphans_gcd, 1, "orphan value file GC'd");
        assert!(lineage_eq(&rec[0].root, &item("A")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_rename_gcs_temp_file() {
        let dir = tmp_dir("crashrename");
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistRename, &[0]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            assert!(store.persist(&item("A"), &mat(3), 10).is_err());
        }
        let (_s, rec, rep) = open(&dir);
        assert!(rec.is_empty());
        assert_eq!(rep.orphans_gcd, 1, "temp file GC'd");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unusable_directory_degrades_to_none() {
        // A file where the directory should be.
        let path = tmp_dir("notadir");
        fs::write(&path, b"file").unwrap();
        assert!(PersistentCacheStore::open_with(&path, PersistOptions::default()).is_none());
        fs::remove_file(&path).unwrap();
    }

    // -- compaction ---------------------------------------------------------

    #[test]
    fn compaction_drops_dead_records_and_switches_generation() {
        let dir = tmp_dir("compact");
        {
            let (store, _, _) = open(&dir);
            let a = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
            let b = store.persist(&item("B"), &mat(4), 20).unwrap().unwrap();
            store.persist(&item("C"), &mat(4), 30).unwrap().unwrap();
            store.tombstone(a.id).unwrap();
            store.tombstone(b.id).unwrap();
            let before = store.wal_bytes();
            let out = store.compact().unwrap();
            assert_eq!(out.generation, 1);
            assert_eq!(out.wal_bytes_before, before);
            assert!(
                out.wal_bytes_after < out.wal_bytes_before,
                "tombstone-heavy WAL must shrink: {} -> {}",
                out.wal_bytes_before,
                out.wal_bytes_after
            );
            assert_eq!(out.live_entries, 1);
            assert_eq!(store.generation(), 1);
            assert!(dir.join("manifest.1.wal").exists());
            assert!(
                !dir.join("manifest.0.wal").exists(),
                "old generation removed"
            );
            let (n, reclaimed) = store.take_compaction_counters();
            assert_eq!(n, 1);
            assert_eq!(reclaimed, before - out.wal_bytes_after);
            // The store stays writable in the new generation.
            store.persist(&item("D"), &mat(4), 40).unwrap().unwrap();
        }
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.generation, 1);
        assert_eq!(rep.recovered, 2);
        assert!(rec.iter().any(|e| lineage_eq(&e.root, &item("C"))));
        assert!(rec.iter().any(|e| lineage_eq(&e.root, &item("D"))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_tombstone_heavy_wal() {
        let dir = tmp_dir("autocompact");
        let opts = PersistOptions {
            compact_min_bytes: 256,
            compact_factor: 2,
            ..PersistOptions::default()
        };
        let (store, _, _) = open_opts(&dir, opts);
        let mut ids = Vec::new();
        for i in 0..12 {
            let o = store
                .persist(&item(&format!("E{i}")), &mat(4), i)
                .unwrap()
                .unwrap();
            ids.push(o.id);
        }
        // Tombstone all but the last entry; the WAL is now mostly dead
        // records and must auto-compact.
        for &id in &ids[..11] {
            store.tombstone(id).unwrap();
        }
        let (n, reclaimed) = store.take_compaction_counters();
        assert!(n >= 1, "auto-compaction never fired");
        assert!(reclaimed > 0);
        assert!(store.generation() >= 1);
        assert_eq!(store.live_entries(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_compact_write_keeps_old_generation() {
        let dir = tmp_dir("crashcompactwrite");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
        }
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistCompactWrite, &[0]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            assert!(store.compact().is_err());
            assert!(store.crashed());
        }
        assert!(
            dir.join("manifest.1.wal.tmp").exists(),
            "torn tmp left behind"
        );
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.generation, 0, "old generation still active");
        assert_eq!(rep.recovered, 2);
        assert_eq!(rep.stale_tmp_gcd, 1, "torn compaction tmp GC'd");
        assert_eq!(rec.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_generation_switch_keeps_old_generation() {
        let dir = tmp_dir("crashswitchpre");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
        }
        // Occurrence 0 = the pre-rename consult: the compacted generation is
        // complete but never committed.
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistCompactSwitch, &[0]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            assert!(store.compact().is_err());
        }
        assert!(dir.join("manifest.1.wal.tmp").exists());
        assert!(!dir.join("manifest.1.wal").exists());
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.generation, 0);
        assert_eq!(rep.recovered, 2);
        assert_eq!(rep.stale_tmp_gcd, 1);
        assert_eq!(rec.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_generation_switch_promotes_new_generation() {
        let dir = tmp_dir("crashswitchpost");
        {
            let (store, _, _) = open(&dir);
            let a = store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
            store.tombstone(a.id).unwrap();
        }
        // Occurrence 1 = the post-rename consult: both generations exist on
        // disk at the moment of death.
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::PersistCompactSwitch, &[1]));
        {
            let (store, _, _) = open_faulty(&dir, inj);
            assert!(store.compact().is_err());
        }
        assert!(
            dir.join("manifest.0.wal").exists(),
            "old generation on disk"
        );
        assert!(
            dir.join("manifest.1.wal").exists(),
            "new generation on disk"
        );
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.generation, 1, "committed switch wins");
        assert_eq!(rep.stale_generations_removed, 1);
        assert!(!dir.join("manifest.0.wal").exists());
        assert_eq!(rep.recovered, 1);
        assert!(lineage_eq(&rec[0].root, &item("B")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_manifest_migrates_to_generation_zero() {
        let dir = tmp_dir("legacy");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        }
        // Simulate a store written before generational manifests.
        fs::rename(dir.join("manifest.0.wal"), dir.join("manifest.wal")).unwrap();
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.generation, 0);
        assert!(dir.join("manifest.0.wal").exists(), "migrated in place");
        assert!(!dir.join("manifest.wal").exists());
        assert!(lineage_eq(&rec[0].root, &item("A")));
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- write-failure degrade ---------------------------------------------

    #[test]
    fn disk_full_degrades_store_to_memory_only() {
        let dir = tmp_dir("diskfull");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        }
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::DiskFull, &[0]));
        let (store, rec, _) = open_faulty(&dir, inj);
        assert_eq!(rec.len(), 1);
        let err = store.persist(&item("B"), &mat(3), 20).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "surfaces as ENOSPC");
        assert_eq!(store.degrade_reason(), Some(DegradeReason::DiskFull));
        assert!(!store.usable());
        assert!(!store.crashed(), "degraded is not crashed");
        // Every later write refuses without touching disk.
        assert!(store.persist(&item("C"), &mat(3), 30).is_err());
        assert!(store.tombstone(0).is_err());
        assert!(store.scrub_chunk(0).is_err());
        drop(store);
        // The data already committed is intact.
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert!(lineage_eq(&rec[0].root, &item("A")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_degrades_store_to_memory_only() {
        let dir = tmp_dir("fsyncfail");
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::FsyncFail, &[0]));
        let (store, _, _) = open_faulty(&dir, inj);
        assert!(store.persist(&item("A"), &mat(3), 10).is_err());
        assert_eq!(store.degrade_reason(), Some(DegradeReason::FsyncFailed));
        assert!(!store.usable());
        assert!(store.persist(&item("B"), &mat(3), 20).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- scrubbing & repair -------------------------------------------------

    #[test]
    fn scrub_quarantines_corrupt_value_without_hook() {
        let dir = tmp_dir("scrubquarantine");
        let (store, _, _) = open(&dir);
        let a = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
        store.persist(&item("B"), &mat(4), 20).unwrap().unwrap();
        let victim = dir.join("values").join(format!("v{}.val", a.id));
        flip_byte(&victim);
        let out = store.scrub_chunk(0).unwrap();
        assert!(out.wrapped);
        assert_eq!(out.entries, 2);
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.repaired, 0);
        assert_eq!(out.repair_failures, 0, "no hook, no attempted repair");
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.quarantined_ids, vec![a.id]);
        assert!(!victim.exists());
        assert!(dir
            .join("quarantine")
            .join(format!("v{}.val", a.id))
            .exists());
        assert_eq!(store.live_entries(), 1);
        drop(store);
        // The quarantined entry was tombstoned: recovery is clean.
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.dropped, 0);
        assert!(lineage_eq(&rec[0].root, &item("B")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_repairs_corrupt_value_from_lineage() {
        let dir = tmp_dir("scrubrepair");
        let opts = PersistOptions {
            repair: Some(RepairHook::new(|_root| Ok(mat(4)))),
            ..PersistOptions::default()
        };
        let (store, _, _) = open_opts(&dir, opts);
        let a = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
        let victim = dir.join("values").join(format!("v{}.val", a.id));
        flip_byte(&victim);
        let out = store.scrub_chunk(0).unwrap();
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.repaired, 1);
        assert_eq!(out.quarantined, 0);
        assert!(codec::read_file(&victim).unwrap().approx_eq(&mat(4), 0.0));
        assert_eq!(store.live_entries(), 1);
        // A clean follow-up pass finds nothing.
        let out2 = store.scrub_chunk(0).unwrap();
        assert_eq!(out2.corrupt, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_counts_repair_failure_then_quarantines() {
        let dir = tmp_dir("scrubrepairfail");
        let opts = PersistOptions {
            repair: Some(RepairHook::new(|_root| Err("no data source".to_string()))),
            ..PersistOptions::default()
        };
        let (store, _, _) = open_opts(&dir, opts);
        let a = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
        flip_byte(&dir.join("values").join(format!("v{}.val", a.id)));
        let out = store.scrub_chunk(0).unwrap();
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.repaired, 0);
        assert_eq!(out.repair_failures, 1);
        assert_eq!(out.quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_chunk_respects_byte_budget_and_resumes() {
        let dir = tmp_dir("scrubbudget");
        let (store, _, _) = open(&dir);
        for i in 0..3 {
            store
                .persist(&item(&format!("S{i}")), &mat(4), i)
                .unwrap()
                .unwrap();
        }
        // Each 4x4 matrix file is 161 bytes; a 1-byte budget scans exactly
        // one entry per chunk.
        let c1 = store.scrub_chunk(1).unwrap();
        assert_eq!(c1.entries, 1);
        assert!(!c1.wrapped);
        let c2 = store.scrub_chunk(1).unwrap();
        assert_eq!(c2.entries, 1);
        assert!(!c2.wrapped);
        let c3 = store.scrub_chunk(1).unwrap();
        assert_eq!(c3.entries, 1);
        assert!(c3.wrapped, "last chunk finishes the pass");
        let total: u64 = c1.entries + c2.entries + c3.entries;
        assert_eq!(total, 3, "every entry scanned exactly once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_rebuilds_damaged_wal_by_compaction() {
        let dir = tmp_dir("scrubwal");
        let (store, _, _) = open(&dir);
        store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
        store.persist(&item("B"), &mat(3), 20).unwrap().unwrap();
        // At-rest damage: garbage appended to the active WAL.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("manifest.0.wal"))
                .unwrap();
            f.write_all(&[9, 9, 9, 9, 9]).unwrap();
        }
        let out = store.scrub_chunk(0).unwrap();
        assert!(out.wal_repaired, "WAL damage repaired via compaction");
        assert_eq!(store.generation(), 1);
        drop(store);
        let (_s, rec, rep) = open(&dir);
        assert_eq!(rep.generation, 1);
        assert_eq!(rep.recovered, 2);
        assert!(!rep.torn_tail_truncated, "rebuilt WAL is clean");
        assert_eq!(rec.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_repairs_missing_value_with_hook() {
        let dir = tmp_dir("recoverrepair");
        let id = {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(4), 10).unwrap().unwrap().id
        };
        let path = dir.join("values").join(format!("v{id}.val"));
        fs::remove_file(&path).unwrap();
        let opts = PersistOptions {
            repair: Some(RepairHook::new(|_root| Ok(mat(4)))),
            ..PersistOptions::default()
        };
        let (_s, rec, rep) = open_opts(&dir, opts);
        assert_eq!(rep.recovered, 1);
        assert_eq!(rep.repaired, 1);
        assert_eq!(rep.dropped, 0);
        assert!(rec[0].value.approx_eq(&mat(4), 0.0));
        assert!(path.exists(), "repaired value re-persisted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_counts_repair_failures() {
        let dir = tmp_dir("recoverrepairfail");
        let id = {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(4), 10).unwrap().unwrap().id
        };
        flip_byte(&dir.join("values").join(format!("v{id}.val")));
        let opts = PersistOptions {
            repair: Some(RepairHook::new(|_root| Err("unreplayable".to_string()))),
            ..PersistOptions::default()
        };
        let (_s, rec, rep) = open_opts(&dir, opts);
        assert!(rec.is_empty());
        assert_eq!(rep.dropped, 1);
        assert_eq!(rep.repair_failures, 1);
        assert_eq!(rep.quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_ages_out_on_recovery() {
        let dir = tmp_dir("quarantineage");
        {
            let (_store, _, _) = open(&dir);
        }
        let qfile = dir.join("quarantine").join("v42.val");
        fs::write(&qfile, b"preserved corpse").unwrap();
        // Age 0 = keep forever.
        let opts = PersistOptions {
            quarantine_max_age_secs: 0,
            ..PersistOptions::default()
        };
        let (_s, _, rep) = open_opts(&dir, opts);
        assert_eq!(rep.quarantine_gcd, 0);
        assert!(qfile.exists());
        // A 1-second horizon collects it once it has aged past that.
        std::thread::sleep(Duration::from_millis(1_200));
        let opts = PersistOptions {
            quarantine_max_age_secs: 1,
            ..PersistOptions::default()
        };
        let (_s, _, rep) = open_opts(&dir, opts);
        assert_eq!(rep.quarantine_gcd, 1);
        assert!(!qfile.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- fsck ----------------------------------------------------------------

    #[test]
    fn fsck_clean_store_has_no_corruption() {
        let dir = tmp_dir("fsckclean");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
            store
                .persist(&item("B"), &Value::f64(1.5), 20)
                .unwrap()
                .unwrap();
        }
        let rep = fsck(&dir);
        assert_eq!(rep.generation, Some(0));
        assert_eq!(rep.live_entries, 2);
        assert!(rep.live_bytes > 0);
        assert!(rep.findings.is_empty(), "findings: {:?}", rep.findings);
        assert!(!rep.has_corruption());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_typed_findings() {
        let dir = tmp_dir("fsckdirty");
        let (a, b) = {
            let (store, _, _) = open(&dir);
            let a = store.persist(&item("A"), &mat(4), 10).unwrap().unwrap();
            let b = store.persist(&item("B"), &mat(4), 20).unwrap().unwrap();
            store.persist(&item("C"), &mat(4), 30).unwrap().unwrap();
            (a.id, b.id)
        };
        // Corrupt one value, delete another, plant debris of every kind.
        flip_byte(&dir.join("values").join(format!("v{a}.val")));
        fs::remove_file(dir.join("values").join(format!("v{b}.val"))).unwrap();
        fs::write(dir.join("values").join("v777.val"), b"orphan").unwrap();
        fs::write(dir.join("manifest.9.wal.tmp"), b"inflight").unwrap();
        fs::write(dir.join("quarantine").join("v5.val"), b"old corpse").unwrap();
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("manifest.0.wal"))
                .unwrap();
            f.write_all(&[0, 0, 0, 50, 1]).unwrap();
        }
        let rep = fsck(&dir);
        assert!(rep.has_corruption());
        assert_eq!(rep.live_entries, 1, "only C verifies");
        let has = |f: &dyn Fn(&FsckFinding) -> bool| rep.findings.iter().any(f);
        assert!(has(
            &|f| matches!(f, FsckFinding::CorruptValue { id, .. } if *id == a)
        ));
        assert!(has(
            &|f| matches!(f, FsckFinding::MissingValue { id } if *id == b)
        ));
        assert!(has(
            &|f| matches!(f, FsckFinding::OrphanFile { name } if name == "v777.val")
        ));
        assert!(has(&|f| matches!(f, FsckFinding::StaleTmp { .. })));
        assert!(has(&|f| matches!(f, FsckFinding::Quarantined { .. })));
        assert!(has(&|f| matches!(f, FsckFinding::TornTail { .. })));
        for f in &rep.findings {
            assert!(!f.render().is_empty());
        }
        // fsck is read-only: a second pass sees the same state.
        assert_eq!(fsck(&dir).findings, rep.findings);
        // Recovery applies exactly what fsck reported (checked by `open`).
        let (_s, rec, recovery) = open(&dir);
        assert_eq!(rec.len(), 1);
        assert_eq!((recovery.dropped, recovery.quarantined), (2, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_flags_stale_generation_and_bad_lineage() {
        let dir = tmp_dir("fsckgen");
        {
            let (store, _, _) = open(&dir);
            store.persist(&item("A"), &mat(3), 10).unwrap().unwrap();
            store.compact().unwrap();
        }
        // Resurrect a stale generation file and a pre-generational manifest
        // alongside the committed one.
        fs::write(dir.join("manifest.0.wal"), b"").unwrap();
        fs::write(dir.join("manifest.wal"), b"").unwrap();
        // Append a bad-lineage record to the active generation.
        {
            let mut payload = BytesMut::new();
            payload.put_u8(REC_PUT);
            payload.put_u64(500);
            payload.put_u64(0);
            payload.put_u64(0);
            let lin = b"garbage";
            payload.put_u32(lin.len() as u32);
            payload.put_slice(lin);
            let rec = frame_record(&payload);
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("manifest.1.wal"))
                .unwrap();
            f.write_all(&rec).unwrap();
        }
        let rep = fsck(&dir);
        assert_eq!(rep.generation, Some(1));
        assert!(rep
            .findings
            .iter()
            .any(|f| matches!(f, FsckFinding::StaleGeneration { generation: 0 })));
        assert!(rep.findings.contains(&FsckFinding::StaleLegacyManifest));
        assert!(rep
            .findings
            .iter()
            .any(|f| matches!(f, FsckFinding::BadLineage { id: 500, .. })));
        assert!(rep.has_corruption());
        let (_s, rec, recovery) = open(&dir);
        assert_eq!(rec.len(), 1);
        assert_eq!(recovery.stale_generations_removed, 2);
        assert!(!dir.join("manifest.wal").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
