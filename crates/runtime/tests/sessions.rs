//! SessionPool integration tests: pool-wide reuse, typed cancellation and
//! deadline errors, and governor-gated admission. These live as integration
//! tests (not unit tests in `session.rs`) because `lima-lang` is a
//! dev-dependency of `lima-runtime` and its `Program` type only unifies with
//! the library build, not the unit-test build.

use lima_core::{CancelToken, LimaConfig, LimaStats, ReuseMode};
use lima_matrix::{DenseMatrix, Value};
use lima_runtime::{Program, RuntimeError, SessionOptions, SessionPool};
use std::sync::Arc;
use std::time::Duration;

fn compile(src: &str, config: &LimaConfig) -> Program {
    lima_lang::compile_script(src, config).expect("compile")
}

fn x(rows: usize, cols: usize) -> Value {
    Value::matrix(DenseMatrix::from_fn(rows, cols, |i, j| {
        (i * cols + j) as f64 * 0.01
    }))
}

#[test]
fn sessions_share_reuse_across_the_pool() {
    let config = LimaConfig::lima();
    let pool = SessionPool::new(config.clone());
    let p = compile("G = t(X) %*% X; s = sum(G);", &config);
    let r1 = pool
        .run(&p, SessionOptions::new().with_input("X", x(40, 8)))
        .unwrap();
    let r2 = pool
        .run(&p, SessionOptions::new().with_input("X", x(40, 8)))
        .unwrap();
    assert_eq!(
        r1.value("s").as_f64().unwrap(),
        r2.value("s").as_f64().unwrap()
    );
    let stats = pool.stats();
    assert!(LimaStats::get(&stats.full_hits) >= 1, "peer reuse expected");
    assert_eq!(LimaStats::get(&stats.sessions_started), 2);
    assert_eq!(LimaStats::get(&stats.sessions_completed), 2);
}

#[test]
fn pre_cancelled_session_fails_typed_without_poisoning_peers() {
    let config = LimaConfig::lima();
    let pool = SessionPool::new(config.clone());
    let p = compile("G = t(X) %*% X; s = sum(G);", &config);
    let token = CancelToken::new();
    token.cancel();
    let err = pool
        .run(
            &p,
            SessionOptions::new()
                .with_token(token)
                .with_input("X", x(40, 8)),
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Cancelled), "got {err}");
    assert_eq!(LimaStats::get(&pool.stats().sessions_cancelled), 1);
    // The shared cache stays fully usable for peers.
    let ok = pool
        .run(&p, SessionOptions::new().with_input("X", x(40, 8)))
        .unwrap();
    assert!(ok.value("s").as_f64().unwrap() > 0.0);
}

#[test]
fn expired_deadline_fails_typed() {
    let config = LimaConfig::lima();
    let pool = SessionPool::new(config.clone());
    // Enough instructions that at least one deadline checkpoint runs after
    // the (already expired) zero timeout.
    let p = compile(
        "acc = 0; for (i in 1:50) { acc = acc + i; } s = acc;",
        &config,
    );
    let err = pool
        .run(&p, SessionOptions::new().with_timeout(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::DeadlineExceeded), "got {err}");
    assert_eq!(LimaStats::get(&pool.stats().sessions_deadline_exceeded), 1);
}

#[test]
fn governor_at_l4_rejects_admission_with_typed_error() {
    let config = LimaConfig {
        reuse: ReuseMode::Hybrid,
        ..LimaConfig::lima()
    }
    .with_governor(1000);
    let pool = SessionPool::new(config.clone());
    let g = pool.governor().expect("governor configured");
    g.adjust_session_bytes(2000); // pressure 2.0 → L4
    let p = compile("s = 1;", &config);
    let err = pool.run(&p, SessionOptions::new()).unwrap_err();
    match err {
        RuntimeError::ResourceExhausted(msg) => assert!(msg.contains("L4"), "msg: {msg}"),
        other => panic!("expected ResourceExhausted, got {other}"),
    }
    assert_eq!(LimaStats::get(&pool.stats().sessions_rejected), 1);
    assert_eq!(
        LimaStats::get(&pool.stats().sessions_started),
        0,
        "a refused admission is not a started session"
    );
    // Pressure drains → admissions resume.
    g.adjust_session_bytes(-2000);
    let p = compile("s = 1;", &config);
    assert!(pool.run(&p, SessionOptions::new()).is_ok());
}

#[test]
fn no_reuse_pool_still_runs_sessions() {
    let config = LimaConfig::base();
    let pool = SessionPool::new(config.clone());
    assert!(pool.cache().is_none());
    let p = compile("s = sum(X);", &config);
    let r = pool
        .run(&p, SessionOptions::new().with_input("X", x(3, 3)))
        .unwrap();
    assert!(r.value("s").as_f64().unwrap() > 0.0);
    assert_eq!(LimaStats::get(&pool.stats().sessions_completed), 1);
}

#[test]
fn cancelling_a_running_session_recovers_quickly() {
    let config = LimaConfig::lima();
    let pool = SessionPool::new(config.clone());
    // A long loop of cheap work: plenty of instruction-boundary checkpoints.
    let p = compile(
        "acc = 0; for (i in 1:2000000) { acc = acc + i; } s = acc;",
        &config,
    );
    let token = CancelToken::new();
    let err = std::thread::scope(|scope| {
        let session =
            scope.spawn(|| pool.run(&p, SessionOptions::new().with_token(Arc::clone(&token))));
        // Cancel only once the session is certainly executing.
        while LimaStats::get(&pool.stats().sessions_started) == 0 {
            std::thread::yield_now();
        }
        token.cancel();
        session.join().expect("run never unwinds").unwrap_err()
    });
    assert!(matches!(err, RuntimeError::Cancelled), "got {err}");
    assert_eq!(LimaStats::get(&pool.stats().sessions_cancelled), 1);
}

/// A session runs on its caller's thread, so a panic inside it (here: the
/// cache's put watcher, which fires on the session's own stack) must stop at
/// `run`: typed error, caller alive, pool and cache usable.
#[test]
fn a_panicking_session_returns_worker_panic_to_its_caller() {
    let config = LimaConfig::lima();
    let pool = SessionPool::new(config.clone());
    let cache = pool.cache().expect("LIMA pools have a cache");
    cache.set_put_watcher(Some(Arc::new(|_, _, _| panic!("watcher boom"))));
    let p = compile("G = t(X) %*% X; s = sum(G);", &config);
    let err = pool
        .run(&p, SessionOptions::new().with_input("X", x(40, 8)))
        .unwrap_err();
    match err {
        RuntimeError::WorkerPanic(msg) => assert!(msg.contains("watcher boom"), "msg: {msg}"),
        other => panic!("expected WorkerPanic, got {other}"),
    }

    cache.set_put_watcher(None);
    let ok = pool
        .run(&p, SessionOptions::new().with_input("X", x(40, 8)))
        .expect("the pool outlives a panicked session");
    assert!(ok.value("s").as_f64().unwrap() > 0.0);
    let stats = pool.stats();
    assert_eq!(LimaStats::get(&stats.sessions_started), 2);
    assert_eq!(LimaStats::get(&stats.sessions_completed), 1);
}

/// A session computes `t(X) %*% X` in the bits a plain run does: its
/// interruptible kernel folds the fixed row blocks `tsmm` folds, with a
/// cancellation checkpoint between them.
/// A session runs `tsmm` and GEMM on its own thread, checking for a cancel
/// before each row panel or block; a plain run splits the same panels over
/// the pool. The bits are the same.
#[test]
fn session_products_have_the_bits_of_a_plain_run() {
    let config = LimaConfig::base();
    let pool = SessionPool::new(config.clone());
    let products = [
        (2_000, "G = t(X) %*% X;"),
        (20_000, "G = t(X) %*% X;"),
        (2_000, "B = rand(rows=30, cols=7, seed=4); G = X %*% B;"),
        (2_000, "B = rand(rows=30, cols=1, seed=4); G = X %*% B;"),
        (
            2_000,
            "B = rand(rows=2000, cols=7, seed=4); G = t(X) %*% B;",
        ),
    ];
    for (rows, product) in products {
        let src = format!("X = rand(rows={rows}, cols=30, seed=3); {product}");
        let session = pool
            .run(&compile(&src, &config), SessionOptions::new())
            .unwrap();
        let plain = lima_algos::runner::run_script(&src, &config, &[]).expect("script runs");
        let bits = |v: &Value| -> Vec<u64> {
            let m = v.as_matrix().expect("G is a matrix");
            m.data().iter().map(|x| x.to_bits()).collect()
        };
        let (got, want) = (bits(session.value("G")), bits(plain.value("G")));
        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(
            differ,
            0,
            "{rows}x30 {product}: {differ} of {} cells differ",
            want.len()
        );
    }
}
