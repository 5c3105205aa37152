//! Crash-recovery harness for the persistent reuse cache.
//!
//! Simulates process death at every named crash point of the persistence
//! commit protocol ([`lima_core::faults::PERSIST_CRASH_POINTS`]), reopens
//! the store, and asserts the recovery invariant:
//!
//! * the crashed run still computes baseline-equal results (persistence
//!   failures degrade durability, never answers);
//! * the recovered store is a *consistent subset* — every recovered entry,
//!   reconstructed from its persisted lineage via the runtime's
//!   [`recompute`], equals the value on disk (i.e. the reuse-off baseline
//!   computation of that lineage);
//! * no torn or orphaned record is ever served;
//! * a warm-restart run of gridsearch-LM over the same persist directory
//!   records persistent-cache hits in `LimaStats`.
//!
//! The seed matrix is controlled by `LIMA_FAULT_SEEDS` (comma-separated
//! u64s); CI runs several seeds so the crash schedule varies per PR.

use lima::prelude::*;
use lima_core::cache::persist::{PersistOptions, PersistentCacheStore};
use lima_core::faults::{FaultInjector, FaultSite, PERSIST_CRASH_POINTS};
use lima_matrix::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "lima-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Reconstructs a recovered entry's lineage with the reuse-off baseline
/// executor and compares against the value recovered from disk.
fn assert_reconstructs_to_baseline(
    entries: &[lima_core::cache::persist::RecoveredEntry],
    inputs: &[(&str, Value)],
    what: &str,
) {
    for e in entries {
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        for (name, v) in inputs {
            // Serve both script-level `read <name>` leaves and the synthetic
            // `read var:<name>` leaves minted for live input variables.
            ctx.data.register(*name, v.clone());
            ctx.data.register(format!("var:{name}"), v.clone());
        }
        // Values computed through a function call carry the lineage of the
        // call's body, not the call item, so every one replays.
        let recomputed = match recompute(&e.root, &mut ctx) {
            Ok(v) => v,
            Err(err) => panic!("{what}: recovered lineage must reconstruct: {err}"),
        };
        assert!(
            recomputed.approx_eq(&e.value, 1e-9),
            "{what}: recovered value diverges from its lineage reconstruction"
        );
    }
}

/// Crash at every named crash point, at several occurrence indices, across
/// the seed matrix: the crashed run stays correct, and recovery yields a
/// consistent, reconstructable subset.
#[test]
fn crash_at_every_point_recovers_consistent_reconstructable_subset() {
    let grid = pipelines::hyperparameter_grid(2, 2, 1);
    for seed in seeds() {
        // Serial gridsearch-LM keeps the persist-attempt order (and with it
        // the crash schedule) deterministic per seed.
        let p = pipelines::hlm(40, 8, 2, 4, &grid, false, seed);
        let inputs = p.input_refs();
        let baseline = run_script(&p.script, &LimaConfig::base(), &inputs).unwrap();

        for site in PERSIST_CRASH_POINTS {
            for occ in [0u64, 2, 5] {
                let dir = tmp_dir("crash");
                let inj = Arc::new(FaultInjector::new(seed).fail_at(site, &[occ]));
                let config = LimaConfig::lima()
                    .with_persistence(&dir)
                    .with_faults(Arc::clone(&inj));
                let run = run_script(&p.script, &config, &inputs).unwrap();

                // A persistence crash must never change answers.
                let tag = format!("seed={seed} site={site:?} occ={occ}");
                assert!(
                    run.value("best").approx_eq(baseline.value("best"), 1e-9),
                    "{tag}: best loss diverged from the reuse-off baseline"
                );
                assert!(
                    run.value("L").approx_eq(baseline.value("L"), 1e-9),
                    "{tag}: loss matrix diverged from the reuse-off baseline"
                );
                let crashed = inj.injected(site) > 0;
                if crashed {
                    assert!(
                        LimaStats::get(&run.ctx.stats.persist_failures) >= 1,
                        "{tag}: crash fired but persist_failures stayed 0"
                    );
                }
                drop(run);

                // "Next process": recovery must hand back a consistent
                // subset, repairing whatever the crash left behind.
                let (store, recovered, report) =
                    PersistentCacheStore::open_with(&dir, PersistOptions::default())
                        .expect("dir is usable");
                assert_eq!(
                    store.live_entries(),
                    recovered.len(),
                    "{tag}: live entries disagree with recovered list"
                );
                match site {
                    // Torn WAL tails only arise from mid-append crashes.
                    FaultSite::PersistWalAppend => {}
                    _ => assert!(!report.torn_tail_truncated, "{tag}: unexpected torn tail"),
                }
                if crashed {
                    // Every crash point leaves debris (a temp file, an
                    // orphaned value file, a torn record + orphan, or — for
                    // compaction crashes — a stale WAL temp/generation) that
                    // recovery must have repaired, not served.
                    assert!(
                        report.orphans_gcd >= 1
                            || report.torn_tail_truncated
                            || report.stale_tmp_gcd >= 1
                            || report.stale_generations_removed >= 1,
                        "{tag}: crash left no repaired debris? report: {report:?}"
                    );
                }
                assert_reconstructs_to_baseline(&recovered, &inputs, &tag);
                drop(store);

                // Recovery is idempotent: a second reopen finds a clean store
                // with the same entry count and nothing left to repair.
                let (_s2, recovered2, report2) =
                    PersistentCacheStore::open_with(&dir, PersistOptions::default())
                        .expect("dir is usable");
                assert_eq!(recovered2.len(), recovered.len(), "{tag}: not idempotent");
                assert!(!report2.torn_tail_truncated, "{tag}: torn tail resurfaced");
                assert_eq!(report2.orphans_gcd, 0, "{tag}: orphans resurfaced");
                assert_eq!(report2.dropped, 0, "{tag}: drops resurfaced");
                assert_eq!(report2.stale_tmp_gcd, 0, "{tag}: stale tmps resurfaced");
                assert_eq!(
                    report2.stale_generations_removed, 0,
                    "{tag}: stale generations resurfaced"
                );

                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Tombstone-heavy compaction under crash injection: a small persist budget
/// forces evictions (tombstones), auto-compaction rewrites the WAL, and a
/// crash at either compaction crash point (mid-rewrite, or around the
/// generation switch) must land recovery on a consistent generation whose
/// entries still reconstruct to the reuse-off baseline. A fault-free control
/// proves compaction strictly shrinks the WAL for the same workload.
/// Holds one or two of the workload's values, so that even the few values
/// admission books on their first sighting overflow it.
const PERSIST_BUDGET: u64 = 4 * 1024;

#[test]
fn compaction_crash_matrix_recovers_and_strictly_reclaims() {
    let grid = pipelines::hyperparameter_grid(2, 2, 1);
    for seed in seeds() {
        let p = pipelines::hlm(40, 8, 2, 4, &grid, false, seed);
        let inputs = p.input_refs();
        let baseline = run_script(&p.script, &LimaConfig::base(), &inputs).unwrap();

        // Control: same tombstone-heavy workload, auto-compaction disabled,
        // then one explicit compaction — the WAL must strictly shrink.
        let dir = tmp_dir("compact-ctl");
        let ctl = LimaConfig {
            persist: Some(PersistOptions {
                dir: dir.clone(),
                budget_bytes: PERSIST_BUDGET,
                compact_factor: 0,
                ..PersistOptions::default()
            }),
            ..LimaConfig::lima()
        };
        let run = run_script(&p.script, &ctl, &inputs).unwrap();
        assert!(run.value("best").approx_eq(baseline.value("best"), 1e-9));
        let out = run
            .ctx
            .cache
            .as_ref()
            .and_then(|c| c.compact_persist())
            .expect("persistent store must be compactable");
        assert!(
            out.wal_bytes_after < out.wal_bytes_before,
            "seed={seed}: compaction must strictly shrink a tombstone-heavy \
             WAL ({} -> {} bytes)",
            out.wal_bytes_before,
            out.wal_bytes_after
        );
        assert!(
            LimaStats::get(&run.ctx.stats.persist_compactions) >= 1
                && LimaStats::get(&run.ctx.stats.persist_compact_reclaimed) >= 1,
            "seed={seed}: compaction counters not recorded"
        );
        drop(run);
        let _ = std::fs::remove_dir_all(&dir);

        // Crash matrix over the compaction-specific crash points, with
        // auto-compaction armed aggressively so it fires mid-run.
        for site in [
            FaultSite::PersistCompactWrite,
            FaultSite::PersistCompactSwitch,
        ] {
            for occ in [0u64, 1, 3] {
                let dir = tmp_dir("compact-crash");
                let inj = Arc::new(FaultInjector::new(seed).fail_at(site, &[occ]));
                let config = LimaConfig {
                    persist: Some(PersistOptions {
                        dir: dir.clone(),
                        budget_bytes: PERSIST_BUDGET,
                        compact_min_bytes: 1024,
                        compact_factor: 1,
                        ..PersistOptions::default()
                    }),
                    ..LimaConfig::lima().with_faults(Arc::clone(&inj))
                };
                let run = run_script(&p.script, &config, &inputs).unwrap();
                let tag = format!("seed={seed} site={site:?} occ={occ}");
                assert!(
                    run.value("best").approx_eq(baseline.value("best"), 1e-9),
                    "{tag}: best loss diverged from the reuse-off baseline"
                );
                assert!(
                    run.value("L").approx_eq(baseline.value("L"), 1e-9),
                    "{tag}: loss matrix diverged from the reuse-off baseline"
                );
                let crashed = inj.injected(site) > 0;
                drop(run);

                let (store, recovered, report) =
                    PersistentCacheStore::open_with(&dir, PersistOptions::default())
                        .expect("dir is usable");
                assert_eq!(
                    store.live_entries(),
                    recovered.len(),
                    "{tag}: live entries disagree with recovered list"
                );
                if crashed {
                    assert!(
                        report.stale_tmp_gcd >= 1
                            || report.stale_generations_removed >= 1
                            || report.orphans_gcd >= 1,
                        "{tag}: compaction crash left no repaired debris? {report:?}"
                    );
                }
                assert_reconstructs_to_baseline(&recovered, &inputs, &tag);
                drop(store);

                let (_s2, recovered2, report2) =
                    PersistentCacheStore::open_with(&dir, PersistOptions::default())
                        .expect("dir is usable");
                assert_eq!(recovered2.len(), recovered.len(), "{tag}: not idempotent");
                assert_eq!(report2.stale_tmp_gcd, 0, "{tag}: stale tmps resurfaced");
                assert_eq!(
                    report2.stale_generations_removed, 0,
                    "{tag}: stale generations resurfaced"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// At-rest corruption across every persisted value file is repaired — not
/// dropped — on restart when the repair hook can serve the workload's
/// inputs: recovery recomputes each corrupt entry from its lineage, the
/// restarted run still takes warm hits, and answers stay baseline-equal.
#[test]
fn corrupt_at_rest_values_are_repaired_from_lineage_on_restart() {
    let dir = tmp_dir("repair");
    let grid = pipelines::hyperparameter_grid(2, 2, 1);
    let p = pipelines::hlm(40, 8, 2, 4, &grid, false, 11);
    let inputs = p.input_refs();
    let baseline = run_script(&p.script, &LimaConfig::base(), &inputs).unwrap();

    // Multi-level tracing mints opaque `fcall` lineage items that cannot be
    // replayed; with it disabled every persisted lineage is repairable.
    let mkcfg = || LimaConfig {
        multilevel: false,
        ..LimaConfig::lima().with_persistence(&dir)
    };
    let r1 = run_script(&p.script, &mkcfg(), &inputs).unwrap();
    let recovered_target = LimaStats::get(&r1.ctx.stats.persist_writes);
    assert!(recovered_target >= 1, "first run persisted nothing");
    drop(r1);

    // Flip one bit in the middle of every persisted value file.
    let mut corrupted = 0u64;
    for e in std::fs::read_dir(dir.join("values")).unwrap().flatten() {
        let path = e.path();
        if path.extension().is_some_and(|x| x == "val") {
            let mut raw = std::fs::read(&path).unwrap();
            let mid = raw.len() / 2;
            raw[mid] ^= 0x01;
            std::fs::write(&path, &raw).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "no value files on disk to corrupt");

    // Restart with a repair hook that serves the workload inputs: every
    // corrupt entry is recomputed from lineage instead of dropped.
    let data = Arc::new(lima_runtime::DataRegistry::new());
    for (name, v) in &inputs {
        data.register(*name, v.clone());
        data.register(format!("var:{name}"), v.clone());
    }
    let config = mkcfg().with_repair(lima_runtime::repair::registry_repairer(data));
    let r2 = run_script(&p.script, &config, &inputs).unwrap();
    let s2 = &r2.ctx.stats;
    assert_eq!(
        LimaStats::get(&s2.persist_repairs),
        corrupted,
        "every corrupt value must be repaired from lineage"
    );
    assert_eq!(
        LimaStats::get(&s2.persist_repair_failures),
        0,
        "no repair may fail with inputs served"
    );
    assert!(
        LimaStats::get(&s2.persist_recovered) >= corrupted,
        "repaired entries must be recovered, not dropped"
    );
    assert!(
        LimaStats::get(&s2.persist_hits) >= 1,
        "repaired store must still serve warm hits"
    );
    assert!(r2.value("best").approx_eq(baseline.value("best"), 1e-9));
    assert!(r2.value("L").approx_eq(baseline.value("L"), 1e-9));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A second process pointed at the same persist directory warm-starts: the
/// recovered entries serve hits (counted as `persist_hits`) and the results
/// still equal the reuse-off baseline.
#[test]
fn warm_restart_gridsearch_lm_records_persistent_cache_hits() {
    let dir = tmp_dir("warm");
    let grid = pipelines::hyperparameter_grid(3, 2, 2);
    let p = pipelines::hlm(60, 12, 2, 6, &grid, true, 7);
    let inputs = p.input_refs();
    let baseline = run_script(&p.script, &LimaConfig::base(), &inputs).unwrap();

    // First process: cold cache, entries durably persisted as they are
    // computed.
    let r1 = run_script(
        &p.script,
        &LimaConfig::lima().with_persistence(&dir),
        &inputs,
    )
    .unwrap();
    assert!(r1.value("best").approx_eq(baseline.value("best"), 1e-9));
    assert!(r1.value("L").approx_eq(baseline.value("L"), 1e-9));
    let s1 = &r1.ctx.stats;
    assert!(
        LimaStats::get(&s1.persist_writes) >= 1,
        "first run persisted nothing"
    );
    assert_eq!(LimaStats::get(&s1.persist_hits), 0, "cold start cannot hit");
    drop(r1);

    // Second process: a fresh cache over the same directory recovers the
    // manifest and serves warm hits without recomputing.
    let r2 = run_script(
        &p.script,
        &LimaConfig::lima().with_persistence(&dir),
        &inputs,
    )
    .unwrap();
    let s2 = &r2.ctx.stats;
    assert!(
        LimaStats::get(&s2.persist_recovered) >= 1,
        "second run recovered nothing"
    );
    assert!(
        LimaStats::get(&s2.persist_hits) >= 1,
        "warm restart must serve at least one persistent-cache hit"
    );
    assert!(r2.value("best").approx_eq(baseline.value("best"), 1e-9));
    assert!(r2.value("L").approx_eq(baseline.value("L"), 1e-9));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Probabilistic mixed-crash sweep driven by the seed matrix: whatever
/// combination of crash points fires first, the run stays baseline-equal and
/// recovery stays consistent.
#[test]
fn probabilistic_crash_schedule_stays_consistent() {
    let grid = pipelines::hyperparameter_grid(2, 2, 1);
    for seed in seeds() {
        let p = pipelines::hlm(40, 8, 2, 4, &grid, false, seed);
        let inputs = p.input_refs();
        let baseline = run_script(&p.script, &LimaConfig::base(), &inputs).unwrap();

        let dir = tmp_dir("prob");
        let mut inj = FaultInjector::new(seed);
        for site in PERSIST_CRASH_POINTS {
            inj = inj.fail_with_probability(site, 0.25);
        }
        let inj = Arc::new(inj);
        let config = LimaConfig::lima()
            .with_persistence(&dir)
            .with_faults(Arc::clone(&inj));
        let run = run_script(&p.script, &config, &inputs).unwrap();
        assert!(run.value("best").approx_eq(baseline.value("best"), 1e-9));
        assert!(run.value("L").approx_eq(baseline.value("L"), 1e-9));
        drop(run);

        let (_store, recovered, _report) =
            PersistentCacheStore::open_with(&dir, PersistOptions::default())
                .expect("dir is usable");
        assert_reconstructs_to_baseline(&recovered, &inputs, &format!("prob seed={seed}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression (stale durable id): when the store tombstones its oldest value
/// files to fit `PersistOptions::budget_bytes`, the owning cache entries must forget
/// their `persist_id` — otherwise, once evicted and recomputed, they are never
/// written again and are missing after the next restart.
#[test]
fn entry_tombstoned_by_the_disk_budget_persists_again_when_recomputed() {
    use lima_core::cache::Probe;
    use lima_core::lineage::item::LineageItem;

    let dir = tmp_dir("stale-id");
    let item = |seed: &str| {
        LineageItem::op(
            "ba+*",
            vec![LineageItem::op_with_data("read", seed, vec![])],
        )
    };
    let value = Value::matrix(DenseMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64));
    let config = LimaConfig {
        // Memory holds three values, evicted oldest-first; the disk holds
        // two (an 8x8 value file is 545 bytes).
        policy: EvictionPolicy::Lru,
        budget_bytes: 3 * value.size_in_bytes(),
        persist: Some(PersistOptions {
            dir: dir.clone(),
            budget_bytes: 1200,
            ..PersistOptions::default()
        }),
        ..LimaConfig::lima()
    };
    {
        let cache = LineageCache::new(config.clone());
        // The third put tombstones A's value file; the fourth evicts A from
        // memory (too cheap to be worth a spill file).
        for seed in ["A", "B", "C", "D"] {
            cache.put(&item(seed), &value, 100);
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 4);
        assert_eq!(LimaStats::get(&cache.stats().persist_tombstones), 2);
        match cache.acquire(&item("A")).expect("cacheable") {
            Probe::Reserved(r) => r.fulfill(&value, 100),
            Probe::Hit(..) => panic!("A was evicted"),
        }
        assert_eq!(
            LimaStats::get(&cache.stats().persist_writes),
            5,
            "the recomputed A must be written again"
        );
    }
    let cache = LineageCache::new(config);
    assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 2);
    match cache.acquire(&item("A")).expect("cacheable") {
        Probe::Hit(v, _) => assert!(v.approx_eq(&value, 0.0)),
        Probe::Reserved(_) => panic!("A must be recovered after the restart"),
    }
    assert_eq!(LimaStats::get(&cache.stats().persist_hits), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
