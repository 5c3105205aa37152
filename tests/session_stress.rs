//! Session-pool stress harness: N concurrent sessions over one shared reuse
//! cache under an injected fault matrix (worker panics, fulfiller death,
//! allocation failures, slow spills), plus cooperative-cancellation and
//! memory-governor scenarios.
//!
//! Invariants asserted throughout:
//!
//! * no deadlock — every session either completes or fails with a *typed*
//!   error, inside an explicit wall-clock bound;
//! * completed sessions compute results equal to a reuse-disabled baseline
//!   (faults degrade performance, never answers);
//! * a cancelled or deadline-expired session never poisons the shared cache:
//!   its in-flight placeholders are aborted, so peers recover immediately
//!   instead of burning `placeholder_timeout_ms`;
//! * under injected `AllocFail` pressure the governor walks the degradation
//!   ladder down *and back up* (observable in `LimaStats`) and the process
//!   never aborts.
//!
//! The seed matrix is controlled by `LIMA_FAULT_SEEDS` (comma-separated
//! u64s), mirroring the crash-recovery harness; CI runs several seeds.

use lima::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn input(rows: usize, cols: usize, seed: u64) -> Value {
    Value::matrix(DenseMatrix::from_fn(rows, cols, |i, j| {
        (((i as u64 * 31 + j as u64 * 17 + seed) % 23) as f64) / 23.0 - 0.5
    }))
}

/// A parfor pipeline with per-iteration work plus an iteration-invariant
/// `tsmm` — the latter exercises placeholder contention inside a session and
/// full reuse across sessions.
fn grid_script() -> String {
    lima_algos::scripts::with_builtins(
        "
        R = matrix(0, 12, 1);
        parfor (i in 1:12) {
          G = X * i;
          R[i, 1] = as.matrix(sum(G) + sum(t(X) %*% X));
        }
        s = sum(R);
        ",
    )
}

fn compile(src: &str, config: &LimaConfig) -> lima_runtime::Program {
    compile_script(src, config).expect("script compiles")
}

/// `n` sessions of `program` at once, one scoped thread each (the pool owns
/// no threads), joined in order.
fn run_concurrently(
    pool: &SessionPool,
    program: &lima_runtime::Program,
    n: usize,
    opts: impl Fn() -> SessionOptions + Sync,
) -> Vec<Result<SessionOutcome, RuntimeError>> {
    std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..n)
            .map(|_| scope.spawn(|| pool.run(program, opts())))
            .collect();
        sessions
            .into_iter()
            .map(|s| s.join().expect("run catches session panics"))
            .collect()
    })
}

/// Cross-counter consistency: the derived hit total equals the sum of the
/// per-kind counters and never exceeds the probe count, and savings never
/// exceed what a hit could have credited. Checked after every concurrent
/// scenario because these are exactly the invariants racy double-counting
/// would break.
fn assert_stats_consistent(stats: &LimaStats, label: &str) {
    let full = LimaStats::get(&stats.full_hits);
    let multi = LimaStats::get(&stats.multilevel_hits);
    let partial = LimaStats::get(&stats.partial_hits);
    assert_eq!(
        stats.total_hits(),
        full + multi + partial,
        "{label}: total_hits() drifted from the per-kind counters"
    );
    assert!(
        full + multi <= LimaStats::get(&stats.probes),
        "{label}: more full/multilevel hits than probes"
    );
}

/// Monotonicity: every counter in `after` is >= its value in `before`.
/// Counters only ever accumulate; a decrease means a lost or re-zeroed
/// update somewhere in the concurrent paths.
fn assert_counters_monotone(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
    label: &str,
) {
    assert_eq!(before.len(), after.len(), "{label}: counter set changed");
    for ((name_b, b), (name_a, a)) in before.iter().zip(after) {
        assert_eq!(name_b, name_a, "{label}: counter order changed");
        assert!(
            a >= b,
            "{label}: counter {name_a} went backwards ({b} -> {a})"
        );
    }
}

/// The core matrix: for every seed, four concurrent sessions run the grid
/// pipeline over one shared cache while fulfiller death, slow spills, and
/// allocation failures fire. All sessions must complete with baseline-equal
/// results, with cross-session reuse observable, inside a wall-clock bound.
#[test]
fn concurrent_sessions_match_baseline_under_fault_matrix() {
    let src = grid_script();
    for seed in seeds() {
        let x = input(40, 10, seed);
        let baseline = run_script(&src, &LimaConfig::base(), &[("X", x.clone())]).unwrap();
        let expect = baseline.value("s").as_f64().unwrap();

        let inj = Arc::new(
            FaultInjector::new(seed)
                .fail_every(FaultSite::FulfillerDeath, 5)
                .fail_every(FaultSite::SlowSpill, 3)
                .fail_every(FaultSite::AllocFail, 6),
        );
        let config = LimaConfig {
            budget_bytes: 64 * 1024,
            placeholder_timeout_ms: 2_000,
            ..LimaConfig::lima()
        }
        .with_governor(2 * 1024 * 1024)
        .with_faults(Arc::clone(&inj));

        let pool = SessionPool::new(config.clone());
        let program = compile(&src, &config);
        let t0 = Instant::now();
        let outcomes = run_concurrently(&pool, &program, 4, || {
            SessionOptions::new().with_input("X", x.clone())
        });
        for outcome in outcomes {
            let out = outcome.unwrap_or_else(|e| {
                panic!("seed {seed}: session must complete under faults, got: {e}")
            });
            let got = out.value("s").as_f64().unwrap();
            assert!(
                (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "seed {seed}: session result {got} diverges from baseline {expect}"
            );
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "seed {seed}: sessions took suspiciously long (deadlock?)"
        );
        let stats = pool.stats();
        assert_eq!(LimaStats::get(&stats.sessions_completed), 4);
        assert!(
            LimaStats::get(&stats.full_hits) >= 1,
            "seed {seed}: cross-session reuse expected"
        );
        assert!(
            inj.total_injected() >= 1,
            "seed {seed}: the fault matrix never fired"
        );
        assert_stats_consistent(&stats, &format!("seed {seed}"));

        // Persist/spill/hit counters must be monotone: re-running the same
        // workload on the same pool may add to any counter but can never
        // subtract (lost updates under the fault matrix would show up here).
        let before = stats.snapshot();
        pool.run(&program, SessionOptions::new().with_input("X", x.clone()))
            .unwrap_or_else(|e| panic!("seed {seed}: rerun on warmed pool failed: {e}"));
        let after = stats.snapshot();
        assert_counters_monotone(&before, &after, &format!("seed {seed}"));
        assert_stats_consistent(&stats, &format!("seed {seed} (rerun)"));
    }
}

/// Injected parfor worker panics fail their sessions with a typed
/// `WorkerPanic` — never a pool-wide abort — and leave the shared cache
/// usable: a follow-up session completes promptly even though the
/// placeholder timeout is far longer than the bound we assert.
#[test]
fn worker_panics_fail_typed_and_leave_the_pool_usable() {
    for seed in seeds() {
        let panic_iter = 1 + seed % 8;
        let src = lima_algos::scripts::with_builtins(
            "
            R = matrix(0, 8, 1);
            parfor (i in 1:8) {
              R[i, 1] = as.matrix(sum(X * i));
            }
            s = sum(R);
            ",
        );
        let inj = Arc::new(FaultInjector::new(seed).fail_at(FaultSite::WorkerPanic, &[panic_iter]));
        let config = LimaConfig {
            placeholder_timeout_ms: 30_000,
            ..LimaConfig::lima()
        }
        .with_faults(Arc::clone(&inj));
        let pool = SessionPool::new(config.clone());
        let program = compile(&src, &config);

        let outcomes = run_concurrently(&pool, &program, 3, || {
            SessionOptions::new().with_input("X", input(20, 6, seed))
        });
        for outcome in outcomes {
            match outcome {
                Err(RuntimeError::WorkerPanic(msg)) => {
                    assert!(msg.contains("injected fault"), "seed {seed}: {msg}")
                }
                other => panic!("seed {seed}: expected WorkerPanic, got {other:?}"),
            }
        }

        // The panics dropped their reservations; a panic-free script over the
        // same pool completes well inside the 30s placeholder timeout.
        let clean = compile("t = sum(X) + sum(t(X) %*% X);", &config);
        let t0 = Instant::now();
        let ok = pool
            .run(
                &clean,
                SessionOptions::new().with_input("X", input(20, 6, seed)),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: clean session must pass: {e}"));
        assert!(ok.value("t").as_f64().is_ok());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "seed {seed}: clean session burned the placeholder timeout"
        );
        assert!(LimaStats::get(&pool.stats().worker_panics) >= 3);
        assert_stats_consistent(&pool.stats(), &format!("seed {seed} after panics"));
    }
}

/// A session hitting its deadline mid-kernel aborts its placeholder, and a
/// peer blocked on that placeholder recovers immediately — far faster than
/// the deliberately huge 60s placeholder timeout — and computes the right
/// answer itself.
#[test]
fn expired_session_mid_kernel_frees_placeholders_for_peers() {
    let src = "Y = X %*% X; s = sum(Y);";
    // The 1600³ multiply takes ≈ 0.4 s on two cores of a 2020s Xeon: more
    // than ten times the 30ms deadline.
    let x = input(1600, 1600, 3);
    let baseline = run_script(src, &LimaConfig::base(), &[("X", x.clone())]).unwrap();
    let expect = baseline.value("s").as_f64().unwrap();

    let config = LimaConfig {
        placeholder_timeout_ms: 60_000,
        ..LimaConfig::lima()
    };
    let pool = SessionPool::new(config.clone());
    let program = compile(src, &config);

    let t0 = Instant::now();
    let (doomed, peer) = std::thread::scope(|scope| {
        let doomed = scope.spawn(|| {
            pool.run(
                &program,
                SessionOptions::new()
                    .with_input("X", x.clone())
                    .with_timeout(Duration::from_millis(30)),
            )
        });
        let peer = pool.run(&program, SessionOptions::new().with_input("X", x.clone()));
        (doomed.join().expect("run catches session panics"), peer)
    });

    match doomed {
        Err(RuntimeError::DeadlineExceeded) => {}
        Ok(_) => panic!("the 30ms deadline must fire inside the 1600x1600 matmult"),
        Err(other) => panic!("expected DeadlineExceeded, got {other}"),
    }
    let out = peer.expect("peer session must complete");
    let got = out.value("s").as_f64().unwrap();
    assert!(
        (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
        "peer result {got} diverges from baseline {expect}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "peer waited on a dead placeholder instead of recovering"
    );
    assert_eq!(LimaStats::get(&pool.stats().sessions_deadline_exceeded), 1);
}

/// Injected allocation failures drive the governor down the ladder
/// (synthetic pressure), and successful allocations decay it back up — both
/// directions observable in `LimaStats` — while results stay baseline-equal
/// and the process never aborts.
#[test]
fn governor_walks_the_ladder_down_and_back_up_under_alloc_faults() {
    let src = lima_algos::scripts::with_builtins(
        "
        R = matrix(0, 16, 1);
        parfor (i in 1:16) {
          R[i, 1] = as.matrix(sum(X * i));
        }
        s = sum(R);
        ",
    );
    let x = input(20, 10, 9);
    let baseline = run_script(&src, &LimaConfig::base(), &[("X", x.clone())]).unwrap();
    let expect = baseline.value("s").as_f64().unwrap();

    // The first three admissions fail: +3/4 of the budget in synthetic
    // pressure, guaranteed past the L1 watermark. Every later admission
    // succeeds and decays an eighth of the budget, re-arming the ladder.
    let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::AllocFail, &[0, 1, 2]));
    let config = LimaConfig {
        reuse: ReuseMode::Hybrid,
        ..LimaConfig::lima()
    }
    .with_governor(256 * 1024)
    .with_faults(Arc::clone(&inj));
    let pool = SessionPool::new(config.clone());
    let program = compile(&src, &config);

    let out = pool
        .run(&program, SessionOptions::new().with_input("X", x.clone()))
        .expect("the governor degrades, it does not abort");
    let got = out.value("s").as_f64().unwrap();
    assert!(
        (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
        "governed result {got} diverges from baseline {expect}"
    );

    let stats = pool.stats();
    assert_eq!(LimaStats::get(&stats.alloc_failures), 3);
    assert!(
        LimaStats::get(&stats.governor_degrades) >= 1,
        "synthetic pressure must walk the ladder down"
    );
    assert!(
        LimaStats::get(&stats.governor_recovers) >= 1,
        "decayed pressure must walk the ladder back up"
    );

    // Pressure has drained: admissions (including sessions) work again.
    let again = pool
        .run(&program, SessionOptions::new().with_input("X", x))
        .expect("recovered pool admits sessions");
    assert!(again.value("s").as_f64().is_ok());
    assert_stats_consistent(&stats, "governor ladder");
}

/// Deadline enforcement keeps working while eviction spills crawl
/// (`SlowSpill` latency injection): the slow session fails typed, and a
/// deadline-free peer on the same pool still completes with baseline-equal
/// results.
#[test]
fn deadline_under_slow_spill_fails_typed_and_peers_complete() {
    // Each 480x480 matmult result is ~1.8MB and takes ≈ 13ms to compute, about
    // five times what the I/O model expects writing and reading it back to
    // cost: it fits the 2.5MB budget alone, but admitting the second one
    // evicts the first, and for an entry that costly the model chooses spill
    // over delete — so the injected SlowSpill latency fires. The doomed
    // session's 20ms deadline fires inside the 25ms injected spill stall (or
    // earlier, between kernel row chunks).
    let src = "B = X %*% X; C = X %*% t(X); s = sum(B) + sum(C);";
    let x = input(480, 480, 5);
    let baseline = run_script(src, &LimaConfig::base(), &[("X", x.clone())]).unwrap();
    let expect = baseline.value("s").as_f64().unwrap();

    let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SlowSpill, 1));
    let config = LimaConfig {
        budget_bytes: 2560 * 1024,
        ..LimaConfig::lima()
    }
    .with_faults(Arc::clone(&inj));
    let pool = SessionPool::new(config.clone());
    let program = compile(src, &config);

    let err = pool
        .run(
            &program,
            SessionOptions::new()
                .with_input("X", x.clone())
                .with_timeout(Duration::from_millis(20)),
        )
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::DeadlineExceeded),
        "expected DeadlineExceeded under SlowSpill, got {err}"
    );

    let ok = pool
        .run(&program, SessionOptions::new().with_input("X", x))
        .expect("deadline-free peer completes despite slow spills");
    assert!(
        inj.injected(FaultSite::SlowSpill) >= 1,
        "the latency injection never fired"
    );
    let got = ok.value("s").as_f64().unwrap();
    assert!(
        (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
        "peer result {got} diverges from baseline {expect}"
    );
    assert_eq!(LimaStats::get(&pool.stats().sessions_deadline_exceeded), 1);
}
