//! The worker pool starts nothing until a kernel needs it: not at process
//! start, and never for the shapes of `trace_dense` (an 8-row mini-batch of
//! 78 columns), `serve_zipf` (scripts of at most 400×50) or
//! `lineage_replay` (at most 64×64), which all stay below every parallel
//! threshold. One test in its own binary, so no other test starts a thread
//! meanwhile.

use lima::prelude::*;
use lima_matrix::pool::threads_started;

#[test]
fn no_pool_thread_starts_for_small_shapes() {
    assert_eq!(threads_started(), 0, "a thread started with the process");

    let p = pipelines::minibatch_micro(3200, 78, 8, 5);
    run_script(&p.script, &LimaConfig::lima(), &p.input_refs()).expect("minibatch runs");
    assert_eq!(threads_started(), 0, "minibatch_micro(3200, 78, 8)");

    // The three script shapes `serve_zipf` submits, at their largest.
    let scripts = [
        "X = rand(rows=400, cols=50, min=0, max=1, seed=1);
         y = rand(rows=400, cols=1, min=0, max=1, seed=2);
         G = t(X) %*% X;
         beta = lmDS(X, y, 0, 0.001);
         s = sum(beta);"
            .to_string(),
        "X = rand(rows=200, cols=50, min=0, max=1, seed=3);
         A = (X + 1.5) * 2.5;
         B = A / 3 - X;
         C = B * B + A;
         D = sqrt(abs(C)) + B;
         s = sum(D);"
            .to_string(),
        "a = 1.5;\ns = 0;\nfor (i in 1:6) {\n  s = s + (a * i) / (i + 1);\n}\n".to_string(),
    ];
    for body in &scripts {
        let src = scripts::with_builtins(body);
        run_script(&src, &LimaConfig::lima(), &[]).expect("serve_zipf script runs");
        assert_eq!(threads_started(), 0, "serve_zipf script {body}");
    }

    // A deduplicated 64×64 chain, serialized, parsed and replayed.
    let chain = "X = rand(rows=64, cols=64, min=0, max=1, seed=1);
                 p = rand(rows=64, cols=64, min=0, max=1, seed=2);
                 for (i in 1:40) {
                   q = X %*% p;
                   p = q * 0.0125 + p * 0.4;
                 }";
    let run = run_script(chain, &LimaConfig::tracing_dedup(), &[]).expect("chain runs");
    let log = serialize_lineage(run.ctx.lineage.get("p").expect("p is traced"));
    let parsed = deserialize_lineage(&log).expect("log parses");
    let mut replay = ExecutionContext::new(LimaConfig::base());
    let value = recompute(&parsed, &mut replay).expect("chain replays");
    assert!(value.approx_eq(run.value("p"), 1e-12));
    assert_eq!(threads_started(), 0, "64×64 dedup chain replay");

    // The first product above a threshold starts the pool (on a host with
    // more than one core).
    let x = DenseMatrix::from_fn(2_000, 300, |i, j| ((i * 7 + j) % 13) as f64);
    let w = DenseMatrix::from_fn(300, 40, |i, j| ((i + 3 * j) % 5) as f64);
    lima_matrix::ops::matmult(&x, &w).expect("gemm");
    assert_eq!(
        threads_started() > 0,
        lima_matrix::ops::kernel_threads() > 1
    );
}
