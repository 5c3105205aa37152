//! Error-path and failure-injection tests: the runtime must fail cleanly
//! (no poisoned cache placeholders, no partial bindings) and reuse must stay
//! correct under injected faults.

use lima_core::{LimaConfig, LimaStats};
use lima_matrix::ops::{BinOp, TsmmSide};
use lima_matrix::{DenseMatrix, Value};
use lima_runtime::compiler::compile;
use lima_runtime::{
    execute_program, Block, ExecutionContext, ExprProg, Function, Instr, Op, Operand, Program,
    RuntimeError,
};

fn run(
    mut p: Program,
    config: LimaConfig,
    data: &[(&str, Value)],
) -> Result<ExecutionContext, RuntimeError> {
    compile(&mut p, &config).expect("program compiles");
    let mut ctx = ExecutionContext::new(config);
    for (k, v) in data {
        ctx.data.register(*k, v.clone());
    }
    execute_program(&p, &mut ctx).map(|()| ctx)
}

#[test]
fn undefined_variable_is_reported() {
    let p = Program::new(vec![Block::basic(vec![Instr::new(
        Op::Binary(BinOp::Add),
        vec![Operand::var("missing"), Operand::f64(1.0)],
        "x",
    )])]);
    match run(p, LimaConfig::lima(), &[]) {
        Err(RuntimeError::UndefinedVariable(v)) => assert_eq!(v, "missing"),
        Err(other) => panic!("expected undefined variable, got {other:?}"),
        Ok(_) => panic!("expected undefined variable, got success"),
    }
}

#[test]
fn undefined_function_is_reported() {
    let p = Program::new(vec![Block::basic(vec![Instr::multi(
        Op::FCall("ghost".into()),
        vec![],
        vec!["y".into()],
    )])]);
    assert!(matches!(
        run(p, LimaConfig::lima(), &[]),
        Err(RuntimeError::UndefinedFunction(_))
    ));
}

#[test]
fn fcall_arity_mismatch_is_reported() {
    let mut p = Program::new(vec![Block::basic(vec![Instr::multi(
        Op::FCall("f".into()),
        vec![Operand::f64(1.0), Operand::f64(2.0)],
        vec!["y".into()],
    )])]);
    p.add_function(Function::new(
        "f",
        vec!["a".into()],
        vec!["a".into()],
        vec![],
    ));
    assert!(matches!(
        run(p, LimaConfig::lima(), &[]),
        Err(RuntimeError::BadOperands { .. })
    ));
}

#[test]
fn failed_kernel_aborts_reservation_cleanly() {
    // A singular solve fails after a reservation was taken; re-running the
    // same trace must not deadlock on an orphaned placeholder.
    let a = DenseMatrix::new(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
    let b = DenseMatrix::new(2, 1, vec![1.0, 2.0]).unwrap();
    let build = || {
        Program::new(vec![Block::basic(vec![
            Instr::new(Op::Read, vec![Operand::str("A")], "A"),
            Instr::new(Op::Read, vec![Operand::str("b")], "b"),
            Instr::new(Op::Solve, vec![Operand::var("A"), Operand::var("b")], "x"),
        ])])
    };
    let config = LimaConfig::lima();
    let mut p = build();
    compile(&mut p, &config).expect("program compiles");
    let mut ctx = ExecutionContext::new(config.clone());
    ctx.data.register("A", Value::matrix(a.clone()));
    ctx.data.register("b", Value::matrix(b.clone()));
    assert!(matches!(
        execute_program(&p, &mut ctx),
        Err(RuntimeError::Kernel(_))
    ));
    // Same cache, same trace: must not hang, must fail the same way.
    let cache = ctx.cache.clone();
    let mut ctx2 = ExecutionContext::with_cache(config, cache);
    ctx2.data.register("A", Value::matrix(a));
    ctx2.data.register("b", Value::matrix(b));
    assert!(matches!(
        execute_program(&p, &mut ctx2),
        Err(RuntimeError::Kernel(_))
    ));
}

#[test]
fn error_inside_loop_body_propagates() {
    // Shape error appears on the third iteration via a growing rbind chain
    // fed into a solve.
    let body = vec![Block::basic(vec![
        Instr::new(
            Op::RightIndex,
            vec![
                Operand::var("X"),
                Operand::var("i"),
                Operand::var("i"),
                Operand::i64(1),
                Operand::i64(0),
            ],
            "row",
        ),
        Instr::new(
            Op::Solve,
            vec![Operand::var("row"), Operand::var("row")],
            "bad",
        ),
    ])];
    let p = Program::new(vec![
        Block::basic(vec![Instr::new(Op::Read, vec![Operand::str("X")], "X")]),
        Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        ),
    ]);
    let x = Value::matrix(DenseMatrix::filled(3, 4, 1.0));
    assert!(run(p, LimaConfig::lima(), &[("X", x)]).is_err());
}

#[test]
fn reuse_with_spilling_disabled_still_correct_under_tiny_budget() {
    let mut config = LimaConfig::lima();
    config.budget_bytes = 4_096;
    config.spill = false;
    let p = lima_algos::pipelines::pcalm(200, 10, &[2, 3], 3);
    let base = lima_algos::run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
    let lima = lima_algos::run_script(&p.script, &config, &p.input_refs()).unwrap();
    assert!(base.value("best").approx_eq(lima.value("best"), 1e-9));
}

#[test]
fn spilled_entries_survive_and_restore_through_pipelines() {
    // Force spilling with an expensive entry and verify correctness of a
    // pipeline that re-probes it later.
    let mut config = LimaConfig::lima();
    config.budget_bytes = 512 * 1024;
    let p = lima_algos::pipelines::eviction_phases(128, 6, 4, 8, 4);
    let base = lima_algos::run_script(&p.script, &LimaConfig::base(), &p.input_refs()).unwrap();
    let lima = lima_algos::run_script(&p.script, &config, &p.input_refs()).unwrap();
    for out in ["s1", "s2", "s3"] {
        assert!(
            base.value(out).approx_eq(lima.value(out), 1e-9),
            "{out} diverged"
        );
    }
}

#[test]
fn recursion_depth_is_bounded() {
    let mut p = Program::new(vec![Block::basic(vec![Instr::multi(
        Op::FCall("rec".into()),
        vec![Operand::f64(1.0)],
        vec!["y".into()],
    )])]);
    p.add_function(Function::new(
        "rec",
        vec!["a".into()],
        vec!["y".into()],
        vec![Block::basic(vec![Instr::multi(
            Op::FCall("rec".into()),
            vec![Operand::var("a")],
            vec!["y".into()],
        )])],
    ));
    assert!(matches!(
        run(p, LimaConfig::lima(), &[]),
        Err(RuntimeError::TypeError(_))
    ));
}

#[test]
fn nested_function_calls_compose_with_reuse() {
    // outer calls inner twice; inner is deterministic — reuse at both levels.
    let mut p = Program::new(vec![Block::basic(vec![
        Instr::new(Op::Read, vec![Operand::str("X")], "X"),
        Instr::multi(
            Op::FCall("outer".into()),
            vec![Operand::var("X")],
            vec!["r1".into()],
        ),
        Instr::multi(
            Op::FCall("outer".into()),
            vec![Operand::var("X")],
            vec!["r2".into()],
        ),
    ])]);
    p.add_function(Function::new(
        "inner",
        vec!["A".into()],
        vec!["G".into()],
        vec![Block::basic(vec![Instr::new(
            Op::Tsmm(TsmmSide::Left),
            vec![Operand::var("A")],
            "G",
        )])],
    ));
    p.add_function(Function::new(
        "outer",
        vec!["A".into()],
        vec!["S".into()],
        vec![Block::basic(vec![
            Instr::multi(
                Op::FCall("inner".into()),
                vec![Operand::var("A")],
                vec!["G1".into()],
            ),
            Instr::multi(
                Op::FCall("inner".into()),
                vec![Operand::var("A")],
                vec!["G2".into()],
            ),
            Instr::new(
                Op::Binary(BinOp::Add),
                vec![Operand::var("G1"), Operand::var("G2")],
                "S",
            ),
        ])],
    ));
    let x = Value::matrix(DenseMatrix::from_fn(20, 5, |i, j| (i + j) as f64 * 0.1));
    let ctx = run(p, LimaConfig::lima(), &[("X", x)]).unwrap();
    assert_eq!(ctx.symtab["r1"], ctx.symtab["r2"]);
    // inner reused within outer, outer reused across calls.
    assert!(LimaStats::get(&ctx.stats.multilevel_hits) >= 2);
}

#[test]
fn zero_iteration_loops_are_sound() {
    let p = Program::new(vec![
        Block::basic(vec![Instr::new(Op::Assign, vec![Operand::f64(7.0)], "x")]),
        Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(5)),
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(1)),
            vec![Block::basic(vec![Instr::new(
                Op::Assign,
                vec![Operand::f64(0.0)],
                "x",
            )])],
        ),
    ]);
    let ctx = run(p, LimaConfig::lima(), &[]).unwrap();
    assert_eq!(ctx.symtab["x"].as_f64().unwrap(), 7.0);
}

#[test]
fn for_step_of_zero_is_rejected() {
    let p = Program::new(vec![Block::for_loop(
        "i",
        ExprProg::lit(Operand::i64(1)),
        ExprProg::lit(Operand::i64(3)),
        ExprProg::lit(Operand::i64(0)),
        vec![],
    )]);
    assert!(run(p, LimaConfig::lima(), &[]).is_err());
}

#[test]
fn negative_step_loops_run_backwards() {
    let body = vec![Block::basic(vec![Instr::new(
        Op::Binary(BinOp::Add),
        vec![Operand::var("s"), Operand::var("i")],
        "s",
    )])];
    let p = Program::new(vec![
        Block::basic(vec![Instr::new(Op::Assign, vec![Operand::f64(0.0)], "s")]),
        Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(5)),
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(-2)),
            body,
        ),
    ]);
    let ctx = run(p, LimaConfig::lima(), &[]).unwrap();
    assert_eq!(ctx.symtab["s"].as_f64().unwrap(), 9.0); // 5 + 3 + 1
}

#[test]
fn parfor_error_in_worker_propagates() {
    let body = vec![Block::basic(vec![Instr::new(
        Op::Binary(BinOp::Add),
        vec![Operand::var("nope"), Operand::var("i")],
        "x",
    )])];
    let p = Program::new(vec![Block::parfor(
        "i",
        ExprProg::lit(Operand::i64(1)),
        ExprProg::lit(Operand::i64(8)),
        ExprProg::lit(Operand::i64(1)),
        body,
    )]);
    assert!(matches!(
        run(p, LimaConfig::lima(), &[]),
        Err(RuntimeError::UndefinedVariable(_))
    ));
}

#[test]
fn rmvar_and_mvvar_bookkeeping() {
    let p = Program::new(vec![Block::basic(vec![
        Instr::new(Op::Assign, vec![Operand::f64(1.0)], "tmp1"),
        Instr::new(Op::Mvvar, vec![Operand::var("tmp1")], "beta"),
        Instr::new(Op::Assign, vec![Operand::f64(2.0)], "tmp2"),
        Instr::effect(Op::Rmvar, vec![Operand::var("tmp2")]),
    ])]);
    let ctx = run(p, LimaConfig::lima(), &[]).unwrap();
    assert!(ctx.symtab.contains_key("beta"));
    assert!(!ctx.symtab.contains_key("tmp1"));
    assert!(!ctx.symtab.contains_key("tmp2"));
}

/// A lineage log is outside input (`limac recompute`, scrub repair and
/// anti-entropy repair replay logs a peer or an editor wrote): an item whose
/// data payload is empty, short, over-long or not numeric must come back as
/// `RuntimeError::Reconstruct`, whatever the opcode — never as a panic.
#[test]
fn malformed_data_payloads_are_reconstruct_errors() {
    use lima_core::lineage::LineageItem;
    use lima_core::opcodes as oc;
    use lima_runtime::reconstruct::recompute;

    let x = || LineageItem::op_with_data(oc::READ, "X", vec![]);
    let seed = || LineageItem::literal("i:7");
    let list = || LineageItem::op(oc::LIST, vec![x()]);
    // (opcode, lineage inputs, a well-formed payload, malformed payloads)
    type Case = (
        &'static str,
        Vec<lima_core::LinRef>,
        &'static str,
        &'static [&'static str],
    );
    let cases: Vec<Case> = vec![
        (
            oc::MATRIX_FILL,
            vec![],
            "1.5 2 2",
            &["", "1.5 2", "a 2 2", "1 2 3 4"],
        ),
        (
            oc::RAND,
            vec![seed()],
            "2 2 uniform 0 1 1",
            &[
                "",
                "2 2 uniform 0 1",
                "2 2 cauchy 0 1 1",
                "x 2 uniform 0 1 1",
            ],
        ),
        (
            oc::SAMPLE,
            vec![seed()],
            "4 2",
            &["", "4", "four 2", "4 2 1"],
        ),
        (oc::SEQ, vec![], "1 4 1", &["", "1 4", "1 to 4", "1 4 1 1"]),
        (
            oc::RIGHT_INDEX,
            vec![x()],
            "0 1 0 1",
            &["", "0 1 0", "0 1 0 b", "0 1 0 1 0"],
        ),
        (
            oc::LEFT_INDEX,
            vec![x(), x()],
            "0 0",
            &["", "0", "0 z", "0 0 0"],
        ),
        (oc::RESHAPE, vec![x()], "1 4", &["", "4", "1 four", "1 2 2"]),
        (oc::LIST_GET, vec![list()], "0", &["", "zero", "0 0", "1e3"]),
    ];
    let recompute_with = |opcode: &'static str, inputs: &[lima_core::LinRef], data: &str| {
        let root = LineageItem::op_with_data(opcode, data, inputs.to_vec());
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        ctx.data
            .register("X", Value::matrix(DenseMatrix::filled(2, 2, 1.0)));
        recompute(&root, &mut ctx)
    };
    for (opcode, inputs, good, malformed) in &cases {
        if let Err(e) = recompute_with(opcode, inputs, good) {
            panic!("{opcode} with '{good}' must replay: {e}");
        }
        for data in *malformed {
            match recompute_with(opcode, inputs, data) {
                Err(RuntimeError::Reconstruct(_)) => {}
                Err(other) => panic!("{opcode} with '{data}': expected Reconstruct, got {other:?}"),
                Ok(_) => panic!("{opcode} with '{data}' must not replay"),
            }
        }
        // The payload names its lineage inputs by position: one too few is
        // an error as well, not an out-of-range index.
        if let Some((_, fewer)) = inputs.split_last() {
            assert!(
                matches!(
                    recompute_with(opcode, fewer, good),
                    Err(RuntimeError::Reconstruct(_))
                ),
                "{opcode} with an input missing"
            );
        }
    }
}
