//! Pins the persist on-disk format against a directory written by the parent
//! commit's binary (`tests/fixtures/persist_parent`, see its README): `fsck`
//! and recovery — the two consumers of the one store examiner — agree on it,
//! and replaying the same history with today's code produces the same bytes.
//!
//! One test function on purpose: serialized lineage carries process-wide
//! item ids, so the byte comparison needs this process to create the items
//! in the order the fixture's writer did, with nothing else creating any.

use lima_core::cache::persist::{PersistOptions, PersistentCacheStore};
use lima_core::lineage::item::{lineage_eq, LineageItem};
use lima_core::{cache::persist::RecoveryReport, fsck};
use lima_matrix::{DenseMatrix, Value};
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/persist_parent")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lima-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const FILES: [&str; 3] = ["manifest.0.wal", "values/v1.val", "values/v3.val"];

#[test]
fn parent_written_store_recovers_and_today_writes_the_same_bytes() {
    // The history the fixture's writer ran, item creation order included.
    let x = LineageItem::op_with_data("read", "X.csv", vec![]);
    let gram = LineageItem::op("tsmm", vec![x.clone()]);
    let total = LineageItem::op("uak+", vec![gram.clone()]);
    let scaled = LineageItem::op("*", vec![gram.clone(), LineageItem::literal("f:0.5")]);
    let m = DenseMatrix::new(2, 3, vec![1.0, -2.5, 3.25, 0.0, 1e-3, 7.0]).unwrap();
    let zeros = DenseMatrix::zeros(1, 2);

    // Today's writer, same history: same bytes in every file.
    let fresh = scratch("fresh");
    {
        let (store, _, _) =
            PersistentCacheStore::open_with(&fresh, PersistOptions::default()).expect("open");
        let a = store
            .persist(&gram, &Value::matrix(m.clone()), 1_500)
            .unwrap()
            .unwrap();
        let b = store
            .persist(&total, &Value::f64(9.25), 42)
            .unwrap()
            .unwrap();
        let c = store
            .persist(&scaled, &Value::matrix(zeros.clone()), 7)
            .unwrap()
            .unwrap();
        assert_eq!((a.id, b.id, c.id), (1, 2, 3));
        assert!(store.tombstone(b.id).unwrap());
    }
    for file in FILES {
        assert_eq!(
            std::fs::read(fresh.join(file)).unwrap(),
            std::fs::read(fixture().join(file)).unwrap(),
            "{file} differs from what the parent commit wrote"
        );
    }
    assert!(!fresh.join("values/v2.val").exists());

    // The parent's directory, read both ways (on a copy: recovery writes).
    let old = scratch("old");
    std::fs::create_dir_all(old.join("values")).unwrap();
    for file in FILES {
        std::fs::copy(fixture().join(file), old.join(file)).unwrap();
    }
    let report = fsck(&old);
    assert_eq!(report.generation, Some(0));
    assert_eq!(report.live_entries, 2);
    assert_eq!(report.live_bytes, 81 + 49);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    let (store, entries, recovery) =
        PersistentCacheStore::open_with(&old, PersistOptions::default()).expect("open");
    assert_eq!(
        recovery,
        RecoveryReport {
            recovered: 2,
            ..RecoveryReport::default()
        }
    );
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].persist_id, 1);
    assert_eq!(entries[0].compute_ns, 1_500);
    assert!(lineage_eq(&entries[0].root, &gram));
    assert_eq!(entries[0].value.as_matrix().unwrap().data(), m.data());
    assert_eq!(entries[1].persist_id, 3);
    assert_eq!(entries[1].compute_ns, 7);
    assert!(lineage_eq(&entries[1].root, &scaled));
    assert_eq!(entries[1].value.as_matrix().unwrap().shape(), (1, 2));
    // The tombstoned id is remembered: the next entry does not reuse it.
    let next = store
        .persist(&total, &Value::f64(9.25), 1)
        .unwrap()
        .unwrap();
    assert_eq!(next.id, 4);
    // Recovery of a healthy directory rewrote nothing it had read.
    assert_eq!(
        std::fs::read(old.join("values/v1.val")).unwrap(),
        std::fs::read(fixture().join("values/v1.val")).unwrap()
    );
    assert!(!fsck(&old).has_corruption());

    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&old);
}
