//! Property tests for the self-healing persistence layer.
//!
//! Three families:
//! 1. **Compaction equivalence**: for a random WAL history (puts, tombstones,
//!    optionally a torn tail), compacting and then recovering yields exactly
//!    the same live set as replaying the original uncompacted WAL.
//! 2. **Scrub precision**: over a store whose value files are randomly
//!    bit-flipped, a full scrub pass (with repair disabled) quarantines
//!    exactly the flipped entries — no false positives, no survivors.
//! 3. **Examiner ≡ recovery**: every reopen in this file checks that `fsck`
//!    taken before recovery predicts the recovery report and that `fsck`
//!    taken after finds nothing left to do; a dedicated property drives that
//!    over random combinations of at-rest damage and debris.

use lima_core::cache::persist::{PersistOptions, PersistentCacheStore};
use lima_core::lineage::item::{lineage_eq, LinRef, LineageItem};
use lima_core::{fsck, FsckFinding};
use lima_matrix::Value;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per proptest case (cases run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lima-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A unique, replay-independent lineage root per (index, value) pair.
fn root_for(index: usize, v: f64) -> LinRef {
    let a = LineageItem::literal(format!("f:{v}"));
    let b = LineageItem::literal(format!("f:{index}"));
    LineageItem::op("+", vec![a, b])
}

/// Recovered live set keyed by `compute_ns` — unique per entry in these
/// tests (the put index), so it identifies entries across restarts even
/// though lineage intern IDs differ per deserialization.
fn open_plain(dir: &Path) -> (PersistentCacheStore, BTreeMap<u64, (LinRef, f64)>) {
    let before = fsck(dir);
    let (store, entries, report) = PersistentCacheStore::open_with(
        dir,
        PersistOptions {
            compact_factor: 0, // only explicit compact() in these tests
            ..PersistOptions::default()
        },
    )
    .expect("store must open");

    // Examiner ≡ recovery: what fsck saw is what recovery did, and nothing
    // is left for a second look.
    let count =
        |pred: fn(&FsckFinding) -> bool| before.findings.iter().filter(|f| pred(f)).count() as u64;
    assert_eq!(
        report.torn_tail_truncated,
        count(|f| matches!(f, FsckFinding::TornTail { .. })) == 1
    );
    assert_eq!(
        report.orphans_gcd,
        count(|f| matches!(f, FsckFinding::OrphanFile { .. }))
    );
    assert_eq!(
        report.stale_tmp_gcd,
        count(|f| matches!(f, FsckFinding::StaleTmp { .. }))
    );
    assert_eq!(
        report.stale_generations_removed,
        count(|f| matches!(
            f,
            FsckFinding::StaleGeneration { .. } | FsckFinding::StaleLegacyManifest
        ))
    );
    let damaged: BTreeSet<u64> = before
        .findings
        .iter()
        .filter_map(|f| match f {
            FsckFinding::BadLineage { id, .. }
            | FsckFinding::CorruptValue { id, .. }
            | FsckFinding::MissingValue { id } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(report.dropped + report.repaired, damaged.len() as u64);
    assert_eq!(report.recovered, before.live_entries + report.repaired);
    let after = fsck(dir);
    assert!(!after.has_corruption(), "after: {:?}", after.findings);
    assert_eq!(after.live_entries, report.recovered);
    assert!(after
        .findings
        .iter()
        .all(|f| matches!(f, FsckFinding::Quarantined { .. })));

    let live: BTreeMap<u64, (LinRef, f64)> = entries
        .iter()
        .map(|e| {
            (
                e.compute_ns,
                (e.root.clone(), e.value.as_f64().expect("scalar entry")),
            )
        })
        .collect();
    (store, live)
}

/// Structural equality of two recovered live sets: same keys, equal values,
/// and lineage that matches node-for-node (intern IDs are ignored —
/// [`lineage_eq`] compares structure).
fn assert_same_live(a: &BTreeMap<u64, (LinRef, f64)>, b: &BTreeMap<u64, (LinRef, f64)>) {
    let keys_a: Vec<&u64> = a.keys().collect();
    let keys_b: Vec<&u64> = b.keys().collect();
    prop_assert_eq!(keys_a, keys_b);
    for (key, (root_a, value_a)) in a {
        let (root_b, value_b) = &b[key];
        prop_assert_eq!(value_a, value_b, "value diverged for entry {}", key);
        prop_assert!(
            lineage_eq(root_a, root_b),
            "lineage diverged for entry {}",
            key
        );
    }
}

/// Recursive copy of a persist directory (manifest generations + values +
/// quarantine).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir").flatten() {
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            std::fs::copy(&from, &to).expect("copy");
        }
    }
}

/// Path of the active (highest-generation) manifest under `dir`.
fn active_manifest(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(g) = name
            .strip_prefix("manifest.")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(bg, _)| g > *bg) {
                best = Some((g, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
        .unwrap_or_else(|| dir.join("manifest.wal"))
}

/// One step of a random WAL history: persist a fresh entry, or tombstone a
/// previously persisted one (picked by index modulo the puts so far).
#[derive(Debug, Clone, Copy)]
enum HistoryOp {
    Put(u32),
    Tomb(usize),
}

fn arb_history() -> impl Strategy<Value = Vec<HistoryOp>> {
    let put = || (0u32..1000).prop_map(HistoryOp::Put);
    let tomb = (0usize..64).prop_map(HistoryOp::Tomb);
    // Two put arms against one tombstone arm: histories lean towards puts.
    vec(prop_oneof![put(), put(), tomb], 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compacting a random WAL history is observationally identical to
    /// replaying the original: recovery over the compacted directory yields
    /// exactly the live set recovery finds in the uncompacted one.
    #[test]
    fn compaction_is_equivalent_to_replaying_the_original_wal(
        history in arb_history(),
        torn in any::<bool>(),
    ) {
        let dir = scratch("compact");
        {
            let (store, _) = open_plain(&dir);
            let mut ids: Vec<u64> = Vec::new();
            for (i, op) in history.iter().enumerate() {
                match op {
                    HistoryOp::Put(raw) => {
                        let v = f64::from(*raw) / 8.0;
                        let out = store
                            .persist(&root_for(i, v), &Value::f64(v), i as u64)
                            .expect("persist")
                            .expect("scalars are persistable");
                        ids.push(out.id);
                    }
                    HistoryOp::Tomb(pick) if !ids.is_empty() => {
                        store.tombstone(ids[pick % ids.len()]).expect("tombstone");
                    }
                    HistoryOp::Tomb(_) => {}
                }
            }
        }
        if torn {
            // A torn tail must not change the equivalence: both sides
            // truncate it at recovery.
            use std::io::Write as _;
            let mut wal = std::fs::OpenOptions::new()
                .append(true)
                .open(active_manifest(&dir))
                .expect("open wal");
            wal.write_all(b"torn-frame-prefix").expect("append");
        }

        let compacted = scratch("compact-b");
        copy_dir(&dir, &compacted);

        let (_store, original) = open_plain(&dir);
        {
            let (store, _) = open_plain(&compacted);
            store.compact().expect("compact");
        }
        let (_store, after) = open_plain(&compacted);

        assert_same_live(&original, &after);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&compacted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With repair disabled, a full scrub pass over randomly bit-flipped
    /// value files quarantines exactly the flipped entries: every corrupted
    /// file is caught and tombstoned, every intact entry survives recovery.
    #[test]
    fn scrub_quarantines_exactly_the_flipped_entries(
        values in vec(0u32..1000, 2..12),
        flips in vec(any::<bool>(), 12),
        byte_pick in any::<usize>(),
        bit in 0u8..8,
    ) {
        let dir = scratch("scrub");
        let mut by_id: BTreeMap<u64, (u64, LinRef)> = BTreeMap::new();
        let (store, _) = open_plain(&dir);
        for (i, raw) in values.iter().enumerate() {
            let v = f64::from(*raw) / 8.0;
            let root = root_for(i, v);
            let out = store
                .persist(&root, &Value::f64(v), i as u64)
                .expect("persist")
                .expect("scalars are persistable");
            by_id.insert(out.id, (i as u64, root));
        }

        let mut flipped: BTreeSet<u64> = BTreeSet::new();
        for (i, (&id, _)) in by_id.iter().enumerate() {
            if !flips[i % flips.len()] {
                continue;
            }
            let path = dir.join("values").join(format!("v{id}.val"));
            let mut raw = std::fs::read(&path).expect("read value file");
            prop_assert!(!raw.is_empty());
            let at = byte_pick % raw.len();
            raw[at] ^= 1 << bit;
            std::fs::write(&path, &raw).expect("rewrite value file");
            flipped.insert(id);
        }

        // One full pass: unbounded chunks until the cursor wraps.
        let mut total = lima_core::ScrubOutcome::default();
        loop {
            let out = store.scrub_chunk(0).expect("scrub");
            total.entries += out.entries;
            total.corrupt += out.corrupt;
            total.repaired += out.repaired;
            total.quarantined += out.quarantined;
            total.quarantined_ids.extend(out.quarantined_ids.iter().copied());
            if out.wrapped {
                break;
            }
        }

        let quarantined: BTreeSet<u64> = total.quarantined_ids.iter().copied().collect();
        prop_assert_eq!(&quarantined, &flipped);
        prop_assert_eq!(total.corrupt, flipped.len() as u64);
        prop_assert_eq!(total.quarantined, flipped.len() as u64);
        prop_assert_eq!(total.repaired, 0);
        for id in &flipped {
            prop_assert!(dir.join("quarantine").join(format!("v{id}.val")).exists());
        }

        // Recovery over the scrubbed directory serves exactly the intact set.
        drop(store);
        let (_store, live) = open_plain(&dir);
        let expected: BTreeMap<u64, &LinRef> = by_id
            .iter()
            .filter(|(id, _)| !flipped.contains(id))
            .map(|(_, (i, root))| (*i, root))
            .collect();
        let got: Vec<&u64> = live.keys().collect();
        prop_assert_eq!(got, expected.keys().collect::<Vec<_>>());
        for (i, (recovered_root, _)) in &live {
            prop_assert!(lineage_eq(recovered_root, expected[i]));
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What happens to one committed entry's value file before the reopen.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    Flip,
    Delete,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over any mix of at-rest damage (flipped and deleted value files, a
    /// torn WAL tail) and debris (orphan values, in-flight temps, a stale
    /// generation), `fsck` before recovery predicts the recovery report and
    /// recovery serves exactly the undamaged entries — `open_plain` asserts
    /// the former, this body the latter.
    #[test]
    fn fsck_predicts_recovery_over_random_damage(
        values in vec(0u32..1000, 1..10),
        damage in vec(prop_oneof![
            Just(Damage::None), Just(Damage::None), Just(Damage::Flip), Just(Damage::Delete)
        ], 10),
        torn in any::<bool>(),
        debris in any::<bool>(),
        compacted in any::<bool>(),
    ) {
        let dir = scratch("examine");
        let mut ids = Vec::new();
        {
            let (store, _) = open_plain(&dir);
            for (i, raw) in values.iter().enumerate() {
                let v = f64::from(*raw) / 8.0;
                let out = store
                    .persist(&root_for(i, v), &Value::f64(v), i as u64)
                    .expect("persist")
                    .expect("scalars are persistable");
                ids.push(out.id);
            }
            if compacted {
                store.compact().expect("compact");
            }
        }

        let mut intact: Vec<u64> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let path = dir.join("values").join(format!("v{id}.val"));
            match damage[i] {
                Damage::None => intact.push(i as u64),
                Damage::Flip => {
                    let mut raw = std::fs::read(&path).expect("read value file");
                    let at = raw.len() / 2;
                    raw[at] ^= 0x10;
                    std::fs::write(&path, &raw).expect("rewrite value file");
                }
                Damage::Delete => std::fs::remove_file(&path).expect("delete value file"),
            }
        }
        if torn {
            use std::io::Write as _;
            let mut wal = std::fs::OpenOptions::new()
                .append(true)
                .open(active_manifest(&dir))
                .expect("open wal");
            wal.write_all(&[0, 0, 0, 40, 1, 2]).expect("append");
        }
        if debris {
            std::fs::write(dir.join("values").join("v9999.val"), b"orphan").expect("orphan");
            std::fs::write(dir.join("values").join("v9998.tmp"), b"in-flight").expect("tmp");
            std::fs::write(dir.join("manifest.77.wal.tmp"), b"torn compaction").expect("tmp");
            if compacted {
                std::fs::write(dir.join("manifest.0.wal"), b"").expect("stale generation");
            }
        }

        let (_store, live) = open_plain(&dir);
        prop_assert_eq!(live.keys().copied().collect::<Vec<u64>>(), intact);
        // A second reopen finds a clean directory (and `open_plain` checks
        // that fsck agrees).
        let (_store, again) = open_plain(&dir);
        prop_assert_eq!(again.len(), live.len());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
