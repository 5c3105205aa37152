//! `parfor` on the worker pool: every worker of a loop runs at once, so
//! iterations that wait on each other's cache placeholders never wait on a
//! worker queued behind them, and a parallel kernel inside a worker joins
//! the same pool.

use lima::prelude::*;
use lima_runtime::program::Block;

/// Compiles `src` and gives its `parfor` blocks `degree` workers.
fn compile_with_degree(src: &str, config: &LimaConfig, workers: usize) -> lima_runtime::Program {
    let mut program = compile_script(src, config).expect("script compiles");
    for block in &mut program.body {
        if let Block::ParFor { degree, .. } = block {
            *degree = Some(workers);
        }
    }
    program
}

fn run(program: &lima_runtime::Program, config: &LimaConfig) -> ExecutionContext {
    let mut ctx = ExecutionContext::new(config.clone());
    execute_program(program, &mut ctx).expect("program runs");
    ctx
}

#[test]
fn a_parallel_gemm_inside_a_parfor_worker_completes() {
    // 2 000×300 · 300×40 is above the GEMM thresholds: each worker's product
    // asks the pool for helpers while the pool's threads run the workers.
    let src = "X = rand(rows=2000, cols=300, min=0, max=1, seed=3);
               R = matrix(0, 4, 1);
               parfor (i in 1:4) {
                 W = rand(rows=300, cols=40, min=0, max=1, seed=i);
                 R[i, 1] = as.matrix(sum(X %*% W));
               }";
    let config = LimaConfig::base();
    let parallel = run(&compile_with_degree(src, &config, 4), &config);
    let serial = run_script(&src.replace("parfor", "for"), &config, &[]).expect("for runs");
    assert!(parallel.symtab["R"].approx_eq(serial.value("R"), 0.0));
}

#[test]
fn parfor_with_more_workers_than_cores_shares_one_key_without_timeouts() {
    // Every iteration computes the same `t(X) %*% X`: one worker reserves it
    // and the others wait on its placeholder. Eight workers run at once
    // whatever the core count, so no waiter times out behind a worker that
    // has not started.
    let src = "X = rand(rows=3000, cols=40, min=0, max=1, seed=7);
               R = matrix(0, 8, 1);
               parfor (i in 1:8) {
                 G = t(X) %*% X;
                 R[i, 1] = as.matrix(sum(G) + i);
               }";
    let config = LimaConfig {
        placeholder_timeout_ms: 2_000,
        ..LimaConfig::lima()
    };
    let workers = 4 * lima_matrix::ops::kernel_threads();
    let ctx = run(&compile_with_degree(src, &config, workers.max(8)), &config);
    assert_eq!(LimaStats::get(&ctx.stats.placeholder_timeouts), 0);
    assert!(
        LimaStats::get(&ctx.stats.full_hits) + LimaStats::get(&ctx.stats.placeholder_waits) > 0
    );
    let serial =
        run_script(&src.replace("parfor", "for"), &LimaConfig::base(), &[]).expect("for runs");
    assert!(ctx.symtab["R"].approx_eq(serial.value("R"), 1e-9));
}
