//! Integration tests for the interpreter: tracing, reuse, dedup, parfor,
//! multi-level reuse, and reconstruction over hand-built programs.

use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};
use lima_core::{LimaConfig, LimaStats, ReuseMode};
use lima_matrix::ops::{BinOp, TsmmSide};
use lima_matrix::{DenseMatrix, Value};
use lima_runtime::compiler::compile;
use lima_runtime::reconstruct::recompute;
use lima_runtime::{
    execute_program, Block, ExecutionContext, ExprProg, Function, Instr, Op, Operand, Program,
};

fn mk_matrix(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        (((i as u64 * 31 + j as u64 * 17 + salt) % 19) as f64) / 19.0 - 0.5
    })
}

fn run(program: &mut Program, config: LimaConfig, data: &[(&str, Value)]) -> ExecutionContext {
    compile(program, &config).expect("program compiles");
    let mut ctx = ExecutionContext::new(config);
    for (k, v) in data {
        ctx.data.register(*k, v.clone());
    }
    execute_program(program, &mut ctx).expect("program runs");
    ctx
}

fn read(path: &str, out: &str) -> Instr {
    Instr::new(Op::Read, vec![Operand::str(path)], out)
}

fn mm(a: &str, b: &str, out: &str) -> Instr {
    Instr::new(Op::MatMult, vec![Operand::var(a), Operand::var(b)], out)
}

#[test]
fn straight_line_program_computes_and_traces() {
    // Z = (X %*% Y) ; s = sum(Z)
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        read("Y", "Y"),
        mm("X", "Y", "Z"),
        Instr::new(
            Op::FullAgg(lima_matrix::ops::AggFn::Sum),
            vec![Operand::var("Z")],
            "s",
        ),
    ])]);
    let x = mk_matrix(6, 4, 1);
    let y = mk_matrix(4, 3, 2);
    let ctx = run(
        &mut p,
        LimaConfig::lima(),
        &[
            ("X", Value::matrix(x.clone())),
            ("Y", Value::matrix(y.clone())),
        ],
    );
    let expect = lima_matrix::ops::matmult(&x, &y).unwrap();
    assert!(ctx.symtab["Z"]
        .as_matrix()
        .unwrap()
        .approx_eq(&expect, 1e-12));
    let s = ctx.symtab["s"].as_f64().unwrap();
    assert!((s - lima_matrix::ops::full_agg(&expect, lima_matrix::ops::AggFn::Sum)).abs() < 1e-9);
    // Lineage exists for Z and records the matmult.
    let z_lin = ctx.lineage.get("Z").unwrap();
    assert_eq!(z_lin.opcode(), "ba+*");
    assert_eq!(z_lin.shape(), Some((6, 3)));
}

#[test]
fn repeated_operations_hit_the_cache() {
    // Two identical matmults; the second must be a full-reuse hit.
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        read("Y", "Y"),
        mm("X", "Y", "Z1"),
        mm("X", "Y", "Z2"),
    ])]);
    let ctx = run(
        &mut p,
        LimaConfig::lima(),
        &[
            ("X", Value::matrix(mk_matrix(5, 4, 1))),
            ("Y", Value::matrix(mk_matrix(4, 2, 2))),
        ],
    );
    assert_eq!(LimaStats::get(&ctx.stats.full_hits), 1);
    assert_eq!(ctx.symtab["Z1"], ctx.symtab["Z2"]);
}

#[test]
fn results_identical_with_and_without_reuse() {
    // A small pipeline with branches and a loop; the global invariant:
    // reuse on == reuse off.
    let build = || {
        let body = vec![Block::basic(vec![
            Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("X")], "G"),
            Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::var("G"), Operand::var("i")],
                "Gi",
            ),
            Instr::new(
                Op::Binary(BinOp::Add),
                vec![Operand::var("acc"), Operand::var("Gi")],
                "acc",
            ),
        ])];
        Program::new(vec![
            Block::basic(vec![
                read("X", "X"),
                Instr::new(
                    Op::Fill,
                    vec![Operand::f64(0.0), Operand::i64(4), Operand::i64(4)],
                    "acc",
                ),
            ]),
            Block::for_loop(
                "i",
                ExprProg::lit(Operand::i64(1)),
                ExprProg::lit(Operand::i64(5)),
                ExprProg::lit(Operand::i64(1)),
                body,
            ),
        ])
    };
    let x = Value::matrix(mk_matrix(10, 4, 3));
    let base = run(&mut build(), LimaConfig::base(), &[("X", x.clone())]);
    let lima = run(&mut build(), LimaConfig::lima(), &[("X", x)]);
    assert!(base.symtab["acc"].approx_eq(&lima.symtab["acc"], 1e-12));
    // The tsmm is loop-invariant: reused in 4 of 5 iterations.
    assert!(LimaStats::get(&lima.stats.full_hits) >= 4);
}

#[test]
fn partial_reuse_fires_for_tsmm_cbind() {
    // ts = tsmm(X); Z = cbind(X, d); W = tsmm(Z) — W assembled partially.
    let mut config = LimaConfig::lima();
    config.compiler_assist = false; // keep the cbind (exercise the runtime rewrite)
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        read("d", "d"),
        Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("X")], "ts"),
        Instr::new(Op::Cbind, vec![Operand::var("X"), Operand::var("d")], "Z"),
        Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("Z")], "W"),
    ])]);
    let x = mk_matrix(20, 5, 1);
    let d = mk_matrix(20, 1, 2);
    let ctx = run(
        &mut p,
        config,
        &[
            ("X", Value::matrix(x.clone())),
            ("d", Value::matrix(d.clone())),
        ],
    );
    assert_eq!(LimaStats::get(&ctx.stats.partial_hits), 1);
    let z = lima_matrix::ops::cbind(&x, &d).unwrap();
    let expect = lima_matrix::ops::tsmm(&z, TsmmSide::Left).unwrap();
    assert!(ctx.symtab["W"].as_matrix().unwrap().rel_eq(&expect, 1e-12));
}

#[test]
fn dedup_compresses_loop_lineage() {
    // PageRank-style loop, deduplicated.
    let body = vec![Block::basic(vec![
        mm("G", "p", "t1"),
        Instr::new(
            Op::Binary(BinOp::Mul),
            vec![Operand::var("t1"), Operand::f64(0.85)],
            "t2",
        ),
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("t2"), Operand::var("p")],
            "p",
        ),
    ])];
    let build = |dedup: bool| {
        let p = Program::new(vec![
            Block::basic(vec![read("G", "G"), read("p0", "p")]),
            Block::for_loop(
                "i",
                ExprProg::lit(Operand::i64(1)),
                ExprProg::lit(Operand::i64(10)),
                ExprProg::lit(Operand::i64(1)),
                body.clone(),
            ),
        ]);
        let mut config = if dedup {
            LimaConfig::tracing_dedup()
        } else {
            LimaConfig::tracing_only()
        };
        config.compiler_assist = false;
        (p, config)
    };
    let g = Value::matrix(mk_matrix(6, 6, 1));
    let p0 = Value::matrix(mk_matrix(6, 1, 2));
    let (mut prog_d, cfg_d) = build(true);
    let ctx_d = run(&mut prog_d, cfg_d, &[("G", g.clone()), ("p0", p0.clone())]);
    let (mut prog_p, cfg_p) = build(false);
    let ctx_p = run(&mut prog_p, cfg_p, &[("G", g), ("p0", p0)]);
    // Same values.
    assert!(ctx_d.symtab["p"].approx_eq(&ctx_p.symtab["p"], 1e-12));
    // Deduplicated and plain lineage compare equal...
    let ld = ctx_d.lineage.get("p").unwrap();
    let lp = ctx_p.lineage.get("p").unwrap();
    assert!(lima_core::lineage::item::lineage_eq(ld, lp));
    // ...but the deduplicated DAG is much smaller.
    assert!(
        ld.dag_size() < lp.dag_size(),
        "{} vs {}",
        ld.dag_size(),
        lp.dag_size()
    );
    assert_eq!(LimaStats::get(&ctx_d.stats.dedup_patches), 1);
    assert!(LimaStats::get(&ctx_d.stats.dedup_items) >= 10);
    // Dedup traces serialize compactly and round-trip.
    let log = serialize_lineage(ld);
    let back = deserialize_lineage(&log).unwrap();
    assert!(lima_core::lineage::item::lineage_eq(&back, lp));
}

#[test]
fn dedup_with_branches_traces_each_path_once() {
    // Loop with a branch on i: two control paths, two patches.
    let body = vec![
        Block::basic(vec![Instr::new(
            Op::Binary(BinOp::Le),
            vec![Operand::var("i"), Operand::i64(3)],
            "c",
        )]),
        Block::if_else(
            ExprProg::var("c"),
            vec![Block::basic(vec![Instr::new(
                Op::Binary(BinOp::Add),
                vec![Operand::var("x"), Operand::f64(1.0)],
                "x",
            )])],
            vec![Block::basic(vec![Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::var("x"), Operand::f64(2.0)],
                "x",
            )])],
        ),
    ];
    let mut p = Program::new(vec![
        Block::basic(vec![read("x0", "x")]),
        Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(6)),
            ExprProg::lit(Operand::i64(1)),
            body,
        ),
    ]);
    let mut cfg = LimaConfig::tracing_dedup();
    cfg.compiler_assist = false;
    let x0 = Value::matrix(DenseMatrix::filled(2, 2, 1.0));
    let ctx = run(&mut p, cfg, &[("x0", x0)]);
    // (1+1+1+1)*2*2*2 = wait: 3 adds then 3 muls: ((1+3) * 8) = 32
    let expect = DenseMatrix::filled(2, 2, 32.0);
    assert!(ctx.symtab["x"]
        .as_matrix()
        .unwrap()
        .approx_eq(&expect, 1e-12));
    assert_eq!(LimaStats::get(&ctx.stats.dedup_patches), 2);
}

#[test]
fn dedup_captures_seeds_of_nondeterministic_ops() {
    // Loop body draws a random matrix each iteration; the seed becomes a
    // dedup input, so lineage reconstruction reproduces the values.
    let body = vec![Block::basic(vec![
        Instr::new(
            Op::Rand(lima_runtime::instr::RandDistKind::Uniform),
            vec![
                Operand::i64(3),
                Operand::i64(3),
                Operand::f64(0.0),
                Operand::f64(1.0),
                Operand::f64(1.0),
                Operand::i64(-1),
            ],
            "R",
        ),
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("acc"), Operand::var("R")],
            "acc",
        ),
    ])];
    let mut p = Program::new(vec![
        Block::basic(vec![Instr::new(
            Op::Fill,
            vec![Operand::f64(0.0), Operand::i64(3), Operand::i64(3)],
            "acc",
        )]),
        Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(4)),
            ExprProg::lit(Operand::i64(1)),
            body,
        ),
    ]);
    let mut cfg = LimaConfig::tracing_dedup();
    cfg.compiler_assist = false;
    let ctx = run(&mut p, cfg, &[]);
    let lin = ctx.lineage.get("acc").unwrap().clone();
    // Recompute from lineage and compare.
    let mut rctx = ExecutionContext::new(LimaConfig::base());
    let recomputed = recompute(&lin, &mut rctx).expect("recompute");
    assert!(recomputed.approx_eq(&ctx.symtab["acc"], 1e-12));
}

#[test]
fn parfor_matches_serial_for() {
    // parfor writing row slices into a result matrix.
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
            Op::Binary(BinOp::Mul),
            vec![Operand::var("row"), Operand::f64(2.0)],
            "row2",
        ),
        Instr::new(
            Op::LeftIndex,
            vec![
                Operand::var("B"),
                Operand::var("row2"),
                Operand::var("i"),
                Operand::i64(1),
            ],
            "B",
        ),
    ])];
    let build = |parallel: bool| {
        let loop_block = if parallel {
            Block::parfor(
                "i",
                ExprProg::lit(Operand::i64(1)),
                ExprProg::lit(Operand::i64(16)),
                ExprProg::lit(Operand::i64(1)),
                body.clone(),
            )
        } else {
            Block::for_loop(
                "i",
                ExprProg::lit(Operand::i64(1)),
                ExprProg::lit(Operand::i64(16)),
                ExprProg::lit(Operand::i64(1)),
                body.clone(),
            )
        };
        Program::new(vec![
            Block::basic(vec![
                read("X", "X"),
                Instr::new(
                    Op::Fill,
                    vec![Operand::f64(0.0), Operand::i64(16), Operand::i64(3)],
                    "B",
                ),
            ]),
            loop_block,
        ])
    };
    let x = Value::matrix(mk_matrix(16, 3, 7));
    let serial = run(&mut build(false), LimaConfig::lima(), &[("X", x.clone())]);
    let parallel = run(&mut build(true), LimaConfig::lima(), &[("X", x)]);
    assert!(serial.symtab["B"].approx_eq(&parallel.symtab["B"], 1e-12));
    // Parfor merges lineage.
    assert!(parallel.lineage.get("B").is_some());
}

#[test]
fn function_calls_and_multilevel_reuse() {
    // f(X) = tsmm(X); called twice with the same input → second call reused
    // at function level.
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        Instr::multi(
            Op::FCall("gram".into()),
            vec![Operand::var("X")],
            vec!["G1".into()],
        ),
        Instr::multi(
            Op::FCall("gram".into()),
            vec![Operand::var("X")],
            vec!["G2".into()],
        ),
    ])]);
    p.add_function(Function::new(
        "gram",
        vec!["A".into()],
        vec!["G".into()],
        vec![Block::basic(vec![Instr::new(
            Op::Tsmm(TsmmSide::Left),
            vec![Operand::var("A")],
            "G",
        )])],
    ));
    let x = mk_matrix(12, 4, 5);
    let ctx = run(
        &mut p,
        LimaConfig::lima(),
        &[("X", Value::matrix(x.clone()))],
    );
    assert_eq!(ctx.symtab["G1"], ctx.symtab["G2"]);
    assert_eq!(LimaStats::get(&ctx.stats.multilevel_hits), 1);
    let expect = lima_matrix::ops::tsmm(&x, TsmmSide::Left).unwrap();
    assert!(ctx.symtab["G1"].as_matrix().unwrap().rel_eq(&expect, 1e-12));
}

#[test]
fn nondeterministic_functions_are_not_memoized() {
    let mut p = Program::new(vec![Block::basic(vec![
        Instr::multi(Op::FCall("draw".into()), vec![], vec!["R1".into()]),
        Instr::multi(Op::FCall("draw".into()), vec![], vec!["R2".into()]),
    ])]);
    p.add_function(Function::new(
        "draw",
        vec![],
        vec!["R".into()],
        vec![Block::basic(vec![Instr::new(
            Op::Rand(lima_runtime::instr::RandDistKind::Uniform),
            vec![
                Operand::i64(4),
                Operand::i64(4),
                Operand::f64(0.0),
                Operand::f64(1.0),
                Operand::f64(1.0),
                Operand::i64(-1),
            ],
            "R",
        )])],
    ));
    let ctx = run(&mut p, LimaConfig::lima(), &[]);
    assert_ne!(ctx.symtab["R1"], ctx.symtab["R2"]);
    assert_eq!(LimaStats::get(&ctx.stats.multilevel_hits), 0);
}

#[test]
fn while_loop_and_predicates() {
    // s = 1; while (s < 100) s = s * 2  → 128
    let mut p = Program::new(vec![
        Block::basic(vec![Instr::new(Op::Assign, vec![Operand::f64(1.0)], "s")]),
        Block::while_loop(
            ExprProg::new(
                vec![Instr::new(
                    Op::Binary(BinOp::Lt),
                    vec![Operand::var("s"), Operand::f64(100.0)],
                    "__c",
                )],
                Operand::var("__c"),
            ),
            vec![Block::basic(vec![Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::var("s"), Operand::f64(2.0)],
                "s",
            )])],
        ),
    ]);
    let ctx = run(&mut p, LimaConfig::lima(), &[]);
    assert_eq!(ctx.symtab["s"].as_f64().unwrap(), 128.0);
}

#[test]
fn write_emits_lineage_log() {
    let dir = std::env::temp_dir().join(format!("lima-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.csv");
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("X"), Operand::var("X")],
            "Y",
        ),
        Instr::effect(
            Op::Write,
            vec![Operand::var("Y"), Operand::str(path.to_str().unwrap())],
        ),
    ])]);
    let x = mk_matrix(3, 3, 9);
    let _ctx = run(&mut p, LimaConfig::lima(), &[("X", Value::matrix(x))]);
    assert!(path.exists());
    let lineage_path = format!("{}.lineage", path.display());
    let log = std::fs::read_to_string(&lineage_path).unwrap();
    let back = deserialize_lineage(&log).unwrap();
    assert_eq!(back.opcode(), "+");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn eigen_multi_output_binding() {
    let mut p = Program::new(vec![Block::basic(vec![
        read("C", "C"),
        Instr::multi(
            Op::Eigen,
            vec![Operand::var("C")],
            vec!["evals".into(), "evects".into()],
        ),
    ])]);
    let c = DenseMatrix::new(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
    let ctx = run(&mut p, LimaConfig::lima(), &[("C", Value::matrix(c))]);
    assert_eq!(ctx.symtab["evals"].as_matrix().unwrap().shape(), (2, 1));
    assert_eq!(ctx.symtab["evects"].as_matrix().unwrap().shape(), (2, 2));
    // Distinct lineage per output.
    let l1 = ctx.lineage.get("evals").unwrap();
    let l2 = ctx.lineage.get("evects").unwrap();
    assert!(!lima_core::lineage::item::lineage_eq(l1, l2));
}

#[test]
fn reconstruction_reproduces_traced_intermediate() {
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("X")], "G"),
        Instr::new(
            Op::Binary(BinOp::Mul),
            vec![Operand::var("G"), Operand::f64(0.5)],
            "H",
        ),
    ])]);
    let x = mk_matrix(8, 3, 11);
    let ctx = run(
        &mut p,
        LimaConfig::lima(),
        &[("X", Value::matrix(x.clone()))],
    );
    let lin = ctx.lineage.get("H").unwrap().clone();
    let mut rctx = ExecutionContext::new(LimaConfig::base());
    rctx.data.register("X", Value::matrix(x));
    let recomputed = recompute(&lin, &mut rctx).unwrap();
    assert!(recomputed.approx_eq(&ctx.symtab["H"], 1e-12));
}

#[test]
fn partial_only_mode_rewrites_without_full_reuse() {
    let mut config = LimaConfig::lima();
    config.reuse = ReuseMode::Partial;
    config.compiler_assist = false;
    let mut p = Program::new(vec![Block::basic(vec![
        read("X", "X"),
        read("d", "d"),
        Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("X")], "ts"),
        Instr::new(Op::Cbind, vec![Operand::var("X"), Operand::var("d")], "Z"),
        Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("Z")], "W"),
    ])]);
    let x = mk_matrix(20, 5, 1);
    let d = mk_matrix(20, 1, 2);
    let ctx = run(
        &mut p,
        config,
        &[
            ("X", Value::matrix(x.clone())),
            ("d", Value::matrix(d.clone())),
        ],
    );
    // Partial mode still caches values for rewrite lookups via put-on-compute?
    // No: partial-only relies on previously cached values. Without full
    // reuse, nothing was cached, so the rewrite cannot fire and results are
    // still correct.
    let z = lima_matrix::ops::cbind(&x, &d).unwrap();
    let expect = lima_matrix::ops::tsmm(&z, TsmmSide::Left).unwrap();
    assert!(ctx.symtab["W"].as_matrix().unwrap().rel_eq(&expect, 1e-12));
}

#[test]
fn print_collects_output() {
    let mut p = Program::new(vec![Block::basic(vec![
        Instr::new(Op::Assign, vec![Operand::f64(3.5)], "x"),
        Instr::new(
            Op::Concat,
            vec![Operand::str("x is "), Operand::var("x")],
            "msg",
        ),
        Instr::effect(Op::Print, vec![Operand::var("msg")]),
    ])]);
    let ctx = run(&mut p, LimaConfig::lima(), &[]);
    assert_eq!(ctx.stdout, vec!["x is 3.5"]);
}

/// A program whose inner `for (i in 1:4)` loop runs `body` once per outer
/// iteration (three of them), each time with the same live-in lineage: what
/// block-level reuse keys on.
fn repeated_inner_loop(body: Vec<Block>) -> Program {
    let inner = Block::for_loop(
        "i",
        ExprProg::lit(Operand::i64(1)),
        ExprProg::lit(Operand::i64(4)),
        ExprProg::lit(Operand::i64(1)),
        body,
    );
    let outer_body = vec![
        Block::basic(vec![Instr::new(
            Op::Fill,
            vec![Operand::f64(0.0), Operand::i64(4), Operand::i64(4)],
            "acc",
        )]),
        inner,
    ];
    Program::new(vec![
        Block::basic(vec![read("X", "X")]),
        Block::for_loop(
            "r",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            outer_body,
        ),
    ])
}

/// Runs `p` under `LIMA` (compiler assistance off, so the loop bodies stay
/// cacheable as written) and counts its block-level (`bcall`) hits.
fn block_hits(p: &mut Program) -> (u64, ExecutionContext) {
    let obs = std::sync::Arc::new(lima_core::obs::Obs::new());
    let mut config = LimaConfig::lima().with_obs(std::sync::Arc::clone(&obs));
    config.compiler_assist = false;
    let ctx = run(p, config, &[("X", Value::matrix(mk_matrix(10, 4, 3)))]);
    let hits = obs
        .events()
        .iter()
        .filter(|(_, e)| e.kind == lima_core::obs::EventKind::BlockReuse)
        .count();
    (hits as u64, ctx)
}

/// `acc = acc + G * i`: a body whose only live-ins are `acc`, `G` and `i`.
fn accumulate(g: &str) -> Vec<Instr> {
    vec![
        Instr::new(
            Op::Binary(BinOp::Mul),
            vec![Operand::var(g), Operand::var("i")],
            "Gi",
        ),
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("acc"), Operand::var("Gi")],
            "acc",
        ),
    ]
}

#[test]
fn block_level_reuse_memoizes_last_level_loops() {
    // A deterministic last-level loop executed twice with identical live-in
    // lineage: the second execution is served as a block-level (bcall) hit.
    let mut body = vec![Instr::new(
        Op::Tsmm(TsmmSide::Left),
        vec![Operand::var("X")],
        "G",
    )];
    body.extend(accumulate("G"));
    let (hits, ctx) = block_hits(&mut repeated_inner_loop(vec![Block::basic(body)]));
    assert!(
        hits >= 1 && LimaStats::get(&ctx.stats.multilevel_hits) >= hits,
        "expected a block-level hit: {}",
        ctx.stats.report()
    );
}

#[test]
fn block_level_reuse_skips_loops_that_are_not_deterministic_or_last_level() {
    let unseeded_rand = Instr::new(
        Op::Rand(lima_runtime::instr::RandDistKind::Uniform),
        vec![
            Operand::i64(4),
            Operand::i64(4),
            Operand::f64(0.0),
            Operand::f64(1.0),
            Operand::f64(1.0),
            Operand::i64(-1),
        ],
        "G",
    );
    let gram = || Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("X")], "G");
    let print = Instr::effect(Op::Print, vec![Operand::var("i")]);
    let call = Instr::multi(
        Op::FCall("gram".into()),
        vec![Operand::var("X")],
        vec!["G".into()],
    );
    for (case, first) in [
        ("unseeded rand", vec![unseeded_rand]),
        ("print", vec![gram(), print]),
        ("function call", vec![call]),
    ] {
        let mut body = first;
        body.extend(accumulate("G"));
        let mut p = repeated_inner_loop(vec![Block::basic(body)]);
        p.add_function(Function::new(
            "gram",
            vec!["A".into()],
            vec!["G".into()],
            vec![Block::basic(vec![Instr::new(
                Op::Tsmm(TsmmSide::Left),
                vec![Operand::var("A")],
                "G",
            )])],
        ));
        let (hits, ctx) = block_hits(&mut p);
        assert_eq!(hits, 0, "{case}: no block-level hit");
        if case == "print" {
            assert_eq!(ctx.stdout.len(), 12, "every iteration prints");
        }
    }
}

/// Runs `scripts` in order on one shared `LIMA` cache, the way a `limad`
/// shard runs its tenants' submits, and checks that `var` of every run has
/// the bits a fresh `Base` run of the same script computes.
fn shared_cache_matches_base(scripts: &[&str], var: &str) {
    use lima_algos::runner::{run_script, run_script_with_cache};
    let cache = lima_core::LineageCache::new(LimaConfig::lima());
    for (k, src) in scripts.iter().enumerate() {
        let base = run_script(src, &LimaConfig::base(), &[]).expect("Base runs");
        let lima = run_script_with_cache(src, &LimaConfig::lima(), &[], Some(cache.clone()))
            .unwrap_or_else(|e| panic!("run {k} under LIMA: {e}"));
        let (want, got) = (base.value(var), lima.value(var));
        let bits = |v: &Value| v.as_f64().expect("scalar").to_bits();
        assert_eq!(
            bits(got),
            bits(want),
            "run {k}: LIMA gives {got:?}, Base {want:?}\n{src}"
        );
    }
}

#[test]
fn scripts_defining_one_function_name_differently_do_not_share_its_entries() {
    let script = |body: &str| {
        format!(
            "f = function(X) return (Y) {{ {body} }}\n\
             s = sum(f(rand(rows=20, cols=20, seed=7)));\n"
        )
    };
    let (plus, times) = (script("Y = X + 1;"), script("Y = X * 2;"));
    shared_cache_matches_base(&[&plus, &times], "s");
}

#[test]
fn a_call_bound_to_fewer_targets_than_outputs_reuses_at_the_function_width() {
    let src = "f = function(X) return (P, Q) { P = X + 1; Q = X * 2; }\n\
               X = rand(rows=20, cols=20, seed=7);\n\
               [P, Q] = f(X);\n\
               R = f(X);\n\
               s = sum(R) + sum(Q);\n";
    shared_cache_matches_base(&[src], "s");
}

#[test]
fn a_loop_that_runs_no_iteration_serves_no_stale_value() {
    let src = "X = rand(rows=5, cols=5, seed=7);\nn = 0;\ns = 0;\n\
               for (j in 1:2) {\n  Y = X * j;\n  for (i in 1:n) {\n    Y = X + 1;\n  }\n  \
               s = s + sum(Y);\n}\n";
    shared_cache_matches_base(&[src], "s");
}

#[test]
fn a_reused_loop_binds_its_index() {
    let src = "X = rand(rows=5, cols=5, seed=7);\nY = X;\n\
               for (i in 1:4) {\n  Y = Y + 1;\n}\ns = sum(Y) + i;\n";
    shared_cache_matches_base(&[src, src], "s");
}

#[test]
fn a_reused_loop_binds_the_lineage_its_body_computed() {
    use lima_algos::runner::run_script_with_cache;
    let src = "X = rand(rows=5, cols=5, seed=7);\nY = X;\n\
               for (i in 1:4) {\n  Y = Y + 1;\n}\n";
    let cache = lima_core::LineageCache::new(LimaConfig::lima());
    let mut logs = Vec::new();
    for _ in 0..2 {
        let r = run_script_with_cache(src, &LimaConfig::lima(), &[], Some(cache.clone()))
            .expect("LIMA runs");
        logs.push(serialize_lineage(r.ctx.lineage.get("Y").expect("Y traced")));
    }
    assert_eq!(LimaStats::get(&cache.stats().multilevel_hits), 1);
    assert_eq!(
        logs[1], logs[0],
        "a hit binds the stored lineage, not bcall"
    );
}
