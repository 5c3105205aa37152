//! Failure-hardening integration tests: with faults injected into the spill,
//! cache-placeholder, and parfor layers, pipelines still produce the same
//! results as a reuse-disabled baseline — degraded performance, never
//! degraded answers — and the failures are observable through `LimaStats`.

use lima::prelude::*;
use lima_core::cache::spill::SpillStore;
use lima_core::faults::{FaultInjector, FaultSite};
use lima_runtime::RuntimeError;
use proptest::prelude::*;
use std::sync::Arc;

/// Gridsearch-LM (HLM-P, parfor over the hyper-parameter grid) under spill
/// write/read/corruption faults and fulfiller death: results must match the
/// reuse-off baseline exactly up to float tolerance.
#[test]
fn gridsearch_lm_matches_baseline_under_injected_faults() {
    let grid = pipelines::hyperparameter_grid(3, 2, 2);
    let p = pipelines::hlm(60, 12, 2, 6, &grid, true, 7);

    let baseline = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();

    let inj = Arc::new(
        FaultInjector::new(42)
            .fail_every(FaultSite::SpillWrite, 3)
            .fail_every(FaultSite::SpillCorrupt, 2)
            .fail_every(FaultSite::SpillRead, 5)
            .fail_every(FaultSite::FulfillerDeath, 7),
    );
    let config = LimaConfig {
        // Small budget so eviction (and with it the spill fault sites) is
        // actually exercised.
        budget_bytes: 64 * 1024,
        placeholder_timeout_ms: 300,
        ..LimaConfig::lima()
    }
    .with_faults(Arc::clone(&inj));
    let faulted = run_script(&p.script, &config, &p.input_refs()).unwrap();

    assert!(
        faulted
            .value("best")
            .approx_eq(baseline.value("best"), 1e-9),
        "best loss must match the reuse-off baseline"
    );
    assert!(
        faulted.value("L").approx_eq(baseline.value("L"), 1e-9),
        "full loss matrix must match the reuse-off baseline"
    );
    // The harness did fire, and its effects are observable via LimaStats.
    assert!(
        inj.injected(FaultSite::FulfillerDeath) >= 1,
        "expected at least one fulfiller death: {} reservations consulted",
        inj.occurrences(FaultSite::FulfillerDeath)
    );
    let stats = &faulted.ctx.stats;
    assert!(LimaStats::get(&stats.probes) > 0, "cache was in play");
    // Every injected spill failure must be accounted for in the counters.
    assert_eq!(
        inj.injected(FaultSite::SpillWrite),
        LimaStats::get(&stats.spill_failures)
    );
    // Every injected read failure surfaced as a counted restore failure.
    // (Corrupted files only count when someone actually restores them.)
    assert!(LimaStats::get(&stats.restore_failures) >= inj.injected(FaultSite::SpillRead));
}

/// Cross-validation (HCV-P, parfor over folds) under restore failures and
/// fulfiller death.
#[test]
fn parfor_cv_matches_baseline_under_injected_faults() {
    let p = pipelines::hcv(48, 6, 4, 4, true, 11);

    let baseline = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();

    let inj = Arc::new(
        FaultInjector::new(7)
            .fail_every(FaultSite::SpillRead, 2)
            .fail_every(FaultSite::FulfillerDeath, 5),
    );
    let config = LimaConfig {
        budget_bytes: 64 * 1024,
        placeholder_timeout_ms: 300,
        ..LimaConfig::lima()
    }
    .with_faults(Arc::clone(&inj));
    let faulted = run_script(&p.script, &config, &p.input_refs()).unwrap();

    assert!(faulted
        .value("best")
        .approx_eq(baseline.value("best"), 1e-9));
    assert!(faulted.value("L").approx_eq(baseline.value("L"), 1e-9));
    assert!(inj.injected(FaultSite::FulfillerDeath) >= 1);
}

/// An injected worker panic surfaces as `RuntimeError::WorkerPanic` — the
/// process stays alive and the shared cache has no deadlocked placeholders:
/// the same cache serves a clean rerun afterwards.
#[test]
fn worker_panic_surfaces_as_error_and_cache_stays_usable() {
    let src = scripts::with_builtins(
        "
        R = matrix(0, 8, 1);
        parfor (i in 1:8) {
          R[i, 1] = as.matrix(i * 2);
        }
        t = sum(R);
        ",
    );
    let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::WorkerPanic, &[3]));
    let config = LimaConfig {
        placeholder_timeout_ms: 500,
        ..LimaConfig::lima()
    }
    .with_faults(Arc::clone(&inj));
    let cache = LineageCache::new(config.clone());

    let err = match run_script_with_cache(&src, &config, &[], Some(Arc::clone(&cache))) {
        Err(e) => e,
        Ok(_) => panic!("the injected worker panic must fail the run"),
    };
    match err {
        lima_algos::runner::RunError::Runtime(RuntimeError::WorkerPanic(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected payload: {msg}");
        }
        other => panic!("expected WorkerPanic, got: {other}"),
    }
    assert_eq!(inj.injected(FaultSite::WorkerPanic), 1);
    assert!(LimaStats::get(&cache.stats().worker_panics) >= 1);

    // The panic left no deadlocked placeholders: a clean configuration
    // sharing the same cache completes and computes the right answer.
    let clean = LimaConfig::lima();
    let ok = run_script_with_cache(&src, &clean, &[], Some(cache)).unwrap();
    assert_eq!(ok.value("t").as_f64().unwrap(), 72.0);
}

/// A worker panic in the degenerate serial path (a single iteration runs
/// in-place on the caller's thread) is isolated the same way, and the loop
/// variable does not leak into the parent scope.
#[test]
fn serial_parfor_panic_is_isolated_and_loop_var_scoped() {
    let src = scripts::with_builtins(
        "
        R = matrix(0, 1, 1);
        parfor (i in 1:1) {
          R[1, 1] = as.matrix(i + 4);
        }
        t = sum(R);
        ",
    );
    // Clean run: loop variable must not survive the parfor.
    let ok = run_script(&src, &LimaConfig::lima(), &[]).unwrap();
    assert_eq!(ok.value("t").as_f64().unwrap(), 5.0);
    assert!(
        !ok.ctx.symtab.contains_key("i"),
        "parfor loop variable leaked into the parent scope"
    );

    let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::WorkerPanic, &[1]));
    let config = LimaConfig::lima().with_faults(inj);
    let err = match run_script(&src, &config, &[]) {
        Err(e) => e,
        Ok(_) => panic!("the injected worker panic must fail the run"),
    };
    assert!(
        matches!(
            err,
            lima_algos::runner::RunError::Runtime(RuntimeError::WorkerPanic(_))
        ),
        "expected WorkerPanic, got: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spill a matrix, flip one arbitrary byte of the file, restore through
    /// the store: always a clean error, never a panic. (That *every* flip of
    /// the file form is caught is the codec's own property test.)
    #[test]
    fn single_byte_spill_corruption_always_yields_clean_error(
        (rows, cols) in (1usize..9, 1usize..9),
        seed in 0u64..1000,
        pos_sel in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let m = DenseMatrix::from_fn(rows, cols, |i, j| {
            ((seed as usize + i * cols + j) % 97) as f64 * 0.375 - 18.0
        });
        let store = SpillStore::new().unwrap();
        let (path, bytes) = store.spill(&Value::matrix(m)).unwrap().unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        prop_assert_eq!(raw.len(), bytes);
        let pos = pos_sel % raw.len();
        raw[pos] ^= mask;
        std::fs::write(&path, &raw).unwrap();
        prop_assert!(store.restore(&path).is_err());
    }
}
