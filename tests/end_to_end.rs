//! Cross-crate integration tests: scripts through the language front-end,
//! the interpreter, lineage tracing, and the reuse cache, checking the
//! paper's core guarantees end to end.

use lima::prelude::*;
use lima_core::lineage::item::lineage_eq;
use std::sync::Arc;

fn standardize_script() -> String {
    lima_algos::scripts::with_builtins(
        "
        Y = scaleAndShift(X);
        G = t(Y) %*% Y;
        s = sum(G);
        ",
    )
}

#[test]
fn lineage_identifies_intermediates_across_runs() {
    let x = Value::matrix(DenseMatrix::from_fn(50, 6, |i, j| (i * 6 + j) as f64));
    let script = standardize_script();
    let r1 = run_script(&script, &LimaConfig::lima(), &[("X", x.clone())]).unwrap();
    let r2 = run_script(&script, &LimaConfig::lima(), &[("X", x)]).unwrap();
    // Same program, same inputs → structurally equal lineage with equal hashes.
    let l1 = r1.ctx.lineage.get("G").unwrap();
    let l2 = r2.ctx.lineage.get("G").unwrap();
    assert_eq!(l1.hash_value(), l2.hash_value());
    assert!(lineage_eq(l1, l2));
}

#[test]
fn lineage_log_round_trips_through_text() {
    let x = Value::matrix(DenseMatrix::from_fn(30, 4, |i, j| (i + j) as f64 * 0.25));
    let r = run_script(&standardize_script(), &LimaConfig::lima(), &[("X", x)]).unwrap();
    let lin = r.ctx.lineage.get("G").unwrap().clone();
    let log = serialize_lineage(&lin);
    let back = deserialize_lineage(&log).unwrap();
    assert!(lineage_eq(&lin, &back));
    // And serializing the round-tripped DAG is stable.
    let log2 = serialize_lineage(&back);
    let back2 = deserialize_lineage(&log2).unwrap();
    assert!(lineage_eq(&back, &back2));
}

#[test]
fn recomputation_from_lineage_reproduces_results() {
    let xm = DenseMatrix::from_fn(40, 5, |i, j| ((i * 5 + j) % 13) as f64 / 13.0);
    let r = run_script(
        &standardize_script(),
        &LimaConfig {
            multilevel: false, // op-level lineage reconstructs directly
            ..LimaConfig::lima()
        },
        &[("X", Value::matrix(xm.clone()))],
    )
    .unwrap();
    let lin = r.ctx.lineage.get("G").unwrap().clone();
    let mut ctx = ExecutionContext::new(LimaConfig::base());
    ctx.data.register("var:X", Value::matrix(xm));
    let recomputed = recompute(&lin, &mut ctx).unwrap();
    assert!(recomputed.approx_eq(r.value("G"), 1e-12));
}

#[test]
fn reuse_cache_is_shared_across_script_invocations() {
    // Process-wide cache sharing (paper §4.4): a second script invocation
    // reuses the first one's intermediates.
    let cache = LineageCache::new(LimaConfig::lima());
    let x = Value::matrix(DenseMatrix::from_fn(200, 20, |i, j| ((i + j) % 7) as f64));
    let script = standardize_script();
    let r1 = run_script_with_cache(
        &script,
        &LimaConfig::lima(),
        &[("X", x.clone())],
        Some(Arc::clone(&cache)),
    )
    .unwrap();
    let before =
        LimaStats::get(&cache.stats().full_hits) + LimaStats::get(&cache.stats().multilevel_hits);
    let r2 = run_script_with_cache(
        &script,
        &LimaConfig::lima(),
        &[("X", x)],
        Some(Arc::clone(&cache)),
    )
    .unwrap();
    let after =
        LimaStats::get(&cache.stats().full_hits) + LimaStats::get(&cache.stats().multilevel_hits);
    assert!(after > before, "second invocation must hit the cache");
    assert!(r1.value("s").approx_eq(r2.value("s"), 1e-12));
}

#[test]
fn parfor_workers_share_the_cache_safely() {
    // Many parallel workers computing overlapping work: placeholders must
    // serialize redundant computation without deadlock, and results must
    // match the serial run.
    let script = lima_algos::scripts::with_builtins(
        "
        B = matrix(0, 16, 1);
        parfor (i in 1:16) {
          G = t(X) %*% X;        # identical across workers -> placeholder
          B[i, 1] = as.matrix(sum(G) + i);
        }
        total = sum(B);
        ",
    );
    let x = Value::matrix(DenseMatrix::from_fn(300, 12, |i, j| {
        ((i * j) % 17) as f64 * 0.1
    }));
    let lima = run_script(&script, &LimaConfig::lima(), &[("X", x.clone())]).unwrap();
    let base = run_script(&script, &LimaConfig::base(), &[("X", x)]).unwrap();
    assert!(lima.value("total").approx_eq(base.value("total"), 1e-9));
}

#[test]
fn eviction_under_pressure_preserves_correctness() {
    let mut config = LimaConfig::lima();
    config.budget_bytes = 64 * 1024; // absurdly small: constant eviction
    let p = lima_algos::pipelines::pcalm(400, 12, &[2, 4, 6], 3);
    let base = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
    let lima = run_script(&p.script, &config, &p.input_refs()).unwrap();
    assert!(base.value("best").approx_eq(lima.value("best"), 1e-9));
}

#[test]
fn every_eviction_policy_is_correct() {
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::DagHeight,
        EvictionPolicy::CostSize,
    ] {
        let mut config = LimaConfig::lima();
        config.policy = policy;
        config.budget_bytes = 256 * 1024;
        let p = lima_algos::pipelines::steplm_core(200, 10, 8, 8, 3);
        let base = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
        let lima = run_script(&p.script, &config, &p.input_refs()).unwrap();
        assert!(
            base.value("total").approx_eq(lima.value("total"), 1e-9),
            "policy {policy:?} broke correctness"
        );
    }
}

#[test]
fn dedup_and_reuse_compose() {
    // Dedup for loop tracing plus reuse outside the loop.
    let mut config = LimaConfig::lima();
    config.dedup = true;
    let p = lima_algos::pipelines::pagerank_pipeline(60, 12, 3);
    let base = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
    let lima = run_script(&p.script, &config, &p.input_refs()).unwrap();
    assert!(base.value("p").approx_eq(lima.value("p"), 1e-9));
    assert!(LimaStats::get(&lima.ctx.stats.dedup_items) > 0);
}

#[test]
fn partial_reuse_statistics_fire_in_steplm() {
    let mut config = LimaConfig::lima();
    config.compiler_assist = false; // keep the runtime rewrite path
    let p = lima_algos::pipelines::steplm_core(300, 12, 10, 10, 5);
    let r = run_script(&p.script, &config, &p.input_refs()).unwrap();
    assert!(
        LimaStats::get(&r.ctx.stats.partial_hits) >= 9,
        "tsmm(cbind) rewrite should fire once per iteration after the first"
    );
}

#[test]
fn compiler_assistance_eliminates_the_cbind() {
    // With compiler assistance the cbind+tsmm pair is rewritten, so the
    // expensive cbind never executes after compilation (Fig 7a, LIMA-CA).
    let p = lima_algos::pipelines::steplm_core(300, 12, 10, 10, 5);
    let ca = run_script(&p.script, &LimaConfig::lima(), &p.input_refs()).unwrap();
    let noca = {
        let mut c = LimaConfig::lima();
        c.compiler_assist = false;
        run_script(&p.script, &c, &p.input_refs()).unwrap()
    };
    assert!(ca.value("total").approx_eq(noca.value("total"), 1e-9));
    // The CA variant replaces partial rewrites with plain full reuse.
    assert!(LimaStats::get(&ca.ctx.stats.full_hits) > 0);
}

#[test]
fn grid_search_results_are_invariant_across_all_configs() {
    let grid = lima_algos::pipelines::hyperparameter_grid(2, 2, 2);
    let p = lima_algos::pipelines::hlm(120, 10, 2, 5, &grid, false, 9);
    let base = run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
    for config in [
        LimaConfig::tracing_only(),
        LimaConfig::tracing_dedup(),
        LimaConfig {
            reuse: ReuseMode::Full,
            ..LimaConfig::lima()
        },
        LimaConfig {
            reuse: ReuseMode::Partial,
            ..LimaConfig::lima()
        },
        LimaConfig::lima(),
    ] {
        let r = run_script(&p.script, &config, &p.input_refs()).unwrap();
        assert!(
            base.value("best").approx_eq(r.value("best"), 1e-6),
            "config {config:?} diverged"
        );
    }
}

#[test]
fn fused_operator_traces_match_unfused_reuse() {
    // A fused cellwise chain must produce lineage that matches the unfused
    // trace, enabling reuse across fused/unfused plans (paper §3.3).
    use lima_matrix::ops::BinOp;
    use lima_runtime::fused::{FusedArg, FusedSpec, FusedStep};
    use lima_runtime::{Block, Instr, Op, Operand, Program};

    let spec = FusedSpec::cellwise(
        "e2e",
        2,
        vec![
            FusedStep {
                op: BinOp::Add,
                lhs: FusedArg::Input(0),
                rhs: FusedArg::Input(0),
            },
            FusedStep {
                op: BinOp::Mul,
                lhs: FusedArg::Acc,
                rhs: FusedArg::Input(1),
            },
        ],
    )
    .unwrap();
    // Program 1: unfused (X+X)*k; Program 2: fused. Shared cache.
    let cache = LineageCache::new(LimaConfig::lima());
    let x = DenseMatrix::filled(50, 5, 2.0);

    let mut p1 = Program::new(vec![Block::basic(vec![
        Instr::new(Op::Read, vec![Operand::str("X")], "X"),
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("X"), Operand::var("X")],
            "t",
        ),
        Instr::new(
            Op::Binary(BinOp::Mul),
            vec![Operand::var("t"), Operand::f64(3.0)],
            "Y",
        ),
    ])]);
    lima_runtime::compiler::compile(&mut p1, &LimaConfig::lima()).expect("compiles");
    let mut ctx1 = ExecutionContext::with_cache(LimaConfig::lima(), Some(Arc::clone(&cache)));
    ctx1.data.register("X", Value::matrix(x.clone()));
    execute_program(&p1, &mut ctx1).unwrap();

    let mut p2 = Program::new(vec![Block::basic(vec![
        Instr::new(Op::Read, vec![Operand::str("X")], "X"),
        Instr::new(
            Op::Fused(spec),
            vec![Operand::var("X"), Operand::f64(3.0)],
            "Y",
        ),
    ])]);
    lima_runtime::compiler::compile(&mut p2, &LimaConfig::lima()).expect("compiles");
    let mut ctx2 = ExecutionContext::with_cache(LimaConfig::lima(), Some(Arc::clone(&cache)));
    ctx2.data.register("X", Value::matrix(x));
    execute_program(&p2, &mut ctx2).unwrap();

    // The fused op's expanded lineage matched the unfused trace → reuse.
    assert!(LimaStats::get(&cache.stats().full_hits) >= 1);
    assert!(ctx1.symtab["Y"].approx_eq(&ctx2.symtab["Y"], 1e-12));
}

#[test]
fn stdout_is_identical_regardless_of_reuse() {
    let script = lima_algos::scripts::with_builtins(
        "
        for (i in 1:3) {
          B = lmDS(X, y, 0, 0.001);
          print('loss ' + toString(sum((X %*% B - y)^2)));
        }
        ",
    );
    let (x, y) = lima_algos::datasets::synthetic_regression(60, 4, 3);
    let inputs = [("X", Value::matrix(x)), ("y", Value::matrix(y))];
    let base = run_script(&script, &LimaConfig::base(), &inputs).unwrap();
    let lima = run_script(&script, &LimaConfig::lima(), &inputs).unwrap();
    assert_eq!(base.ctx.stdout, lima.ctx.stdout);
    assert_eq!(base.ctx.stdout.len(), 3);
}

#[test]
fn racy_parfor_script_fails_compilation() {
    // Every iteration writes the same cell: a write-write race the parfor
    // dependence checker must reject at compile time.
    let err = compile_script(
        "R = matrix(0, 4, 1);
         parfor (i in 1:4) {
           R[1, 1] = as.matrix(i);
         }",
        &LimaConfig::lima(),
    )
    .expect_err("racy parfor must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("parfor") && msg.contains("cannot run in parallel"),
        "unexpected error message: {msg}"
    );
    // The structured diagnostic anchors the race on the offending write.
    let diag = err.diagnostic();
    assert_eq!(diag.code, "L0100");
    assert!(diag.primary.is_some(), "parfor dependence carries a span");

    // The disjoint variant of the same script compiles and runs correctly.
    let ok = lima_algos::runner::run_script(
        "R = matrix(0, 4, 1);
         parfor (i in 1:4) {
           R[i, 1] = as.matrix(2 * i);
         }
         s = sum(R);",
        &LimaConfig::lima(),
        &[],
    )
    .expect("disjoint parfor runs");
    assert!(ok.value("s").approx_eq(&Value::f64(20.0), 1e-12));
}
