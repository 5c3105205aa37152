//! Variables are bound by slot in per-frame vectors; names survive in each
//! frame's registry. These tests pin the name API on top of that — values
//! and lineage read by name for preloaded inputs, function outputs, parfor
//! results, removed variables and names a program never mentions, and
//! `limac --lineage VAR` — and bound every context's vectors by its own
//! frame's slot count, however many other programs the process has run.

use lima::lima_runtime::{execute_program, Block, ExecutionContext, Instr, Op, Operand, Program};
use lima::prelude::*;

const SCRIPT: &str = "
scale = function(A, k) return (B) { B = A * k; }
Y = scale(X, 2);
R = matrix(0, 4, 1);
parfor (i in 1:4) {
  R[i, 1] = as.matrix(sum(X[i, ]) * i);
}
s = sum(Y) + sum(R);
";

fn input() -> Value {
    Value::matrix(DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5))
}

#[test]
fn names_read_values_and_lineage_through_the_frame() {
    let config = LimaConfig::tracing_only();
    let program = compile_script(SCRIPT, &config).expect("compiles");
    let mut ctx = ExecutionContext::new(config);
    ctx.set("X", input());
    ctx.set("unused", Value::f64(7.0));
    // Bound by name before the program runs: readable by name right away.
    assert_eq!(ctx.symtab.get("X"), Some(&input()));
    execute_program(&program, &mut ctx).expect("runs");

    // A preloaded input moved into its slot; its lineage is its `read` leaf.
    assert_eq!(ctx.symtab["X"], input());
    let x = ctx.lineage.get("X").expect("X is traced where it is read");
    assert_eq!((x.opcode(), x.data()), ("read", Some("var:X")));
    // A preloaded name the program never mentions keeps its value.
    assert_eq!(ctx.symtab["unused"].as_f64().unwrap(), 7.0);
    // A name nobody bound reads as nothing.
    assert!(ctx.symtab.get("nowhere").is_none());
    assert!(ctx.lineage.get("nowhere").is_none());
    assert!(!ctx.symtab.contains_key("nowhere"));

    // A function output, bound by the caller's slot, with the body's lineage.
    let y = ctx.symtab["Y"].as_matrix().unwrap().clone();
    assert_eq!(y.get(3, 2), input().as_matrix().unwrap().get(3, 2) * 2.0);
    assert_eq!(ctx.lineage.get("Y").expect("Y is traced").opcode(), "*");
    // The callee's variables stay in the callee's frame.
    assert!(ctx.symtab.get("B").is_none() && ctx.symtab.get("A").is_none());

    // A parfor result: merged value, merge lineage, no loop index left.
    let r = ctx.symtab["R"].as_matrix().unwrap().clone();
    for i in 0..4 {
        let row: f64 = (0..3).map(|j| input().as_matrix().unwrap().get(i, j)).sum();
        assert_eq!(r.get(i, 0), row * (i + 1) as f64);
    }
    assert!(ctx.lineage.get("R").is_some());
    assert!(ctx.symtab.get("i").is_none() && ctx.lineage.get("i").is_none());

    // `ctx.set` after the run binds the program's slot.
    ctx.set("s", Value::f64(1.0));
    assert_eq!(ctx.symtab["s"].as_f64().unwrap(), 1.0);
    let names: Vec<&str> = ctx.symtab.keys().collect();
    for n in ["X", "Y", "R", "s", "unused"] {
        assert!(names.contains(&n), "{n} missing from {names:?}");
    }
}

#[test]
fn rmvar_unbinds_the_slot_and_mvvar_moves_it() {
    let x = |name: &str| Operand::var(name);
    let program = Program::new(vec![Block::basic(vec![
        Instr::new(
            Op::Binary(lima::lima_matrix::ops::BinOp::Add),
            vec![x("X"), x("X")],
            "t1",
        ),
        Instr::new(Op::Mvvar, vec![x("t1")], "Z"),
        Instr::new(
            Op::Unary(lima::lima_matrix::ops::UnOp::Neg),
            vec![x("Z")],
            "t2",
        ),
        Instr::effect(Op::Rmvar, vec![x("t2"), x("X")]),
    ])]);
    let mut ctx = ExecutionContext::new(LimaConfig::tracing_only());
    ctx.set("X", input());
    execute_program(&program, &mut ctx).expect("runs");
    for gone in ["t1", "t2", "X"] {
        assert!(ctx.symtab.get(gone).is_none(), "{gone} is still bound");
        assert!(ctx.lineage.get(gone).is_none(), "{gone} still has lineage");
    }
    assert_eq!(
        ctx.symtab["Z"].as_matrix().unwrap().get(1, 1),
        4.0 * 2.0 * 0.5
    );
    assert_eq!(ctx.lineage.get("Z").expect("Z is traced").opcode(), "+");
}

#[test]
fn limac_prints_a_variables_lineage_by_name() {
    let dir = std::env::temp_dir().join(format!("lima-frames-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("g.dml");
    std::fs::write(
        &script,
        "f = function(A) return (B) { B = t(A) %*% A; }\nX = rand(rows=6, cols=3, seed=5);\nG = f(X);\n",
    )
    .unwrap();
    let run = |var: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_limac"))
            .args([
                "run",
                script.to_str().unwrap(),
                "--config",
                "lt",
                "--lineage",
                var,
            ])
            .output()
            .expect("limac runs")
    };
    let out = run("G");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8(out.stdout).unwrap();
    assert!(log.contains("tsmm") && log.contains("rand"), "{log}");
    // The callee's names are not the caller's.
    let out = run("B");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no lineage for variable 'B'"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A context's symbol table and lineage map are as long as its program's
/// frame, never as long as every name the process has seen.
#[test]
fn frames_stay_as_long_as_their_own_slot_count() {
    let config = LimaConfig::lima();
    for k in 0..1_000 {
        // Every script names variables no other one does.
        let src = format!("a{k} = 2 * {k}; b{k} = a{k} + 1; c{k}x = b{k} * a{k};");
        let program = compile_script(&src, &config).expect("compiles");
        let mut ctx = ExecutionContext::new(config.clone());
        execute_program(&program, &mut ctx).expect("runs");
        let slots = program.frame.len();
        assert!(slots <= 8, "script {k}: {slots} slots");
        assert_eq!(ctx.symtab.slot_count(), slots, "script {k}: symbol table");
        assert_eq!(
            ctx.lineage.vars().slot_count(),
            slots,
            "script {k}: lineage map"
        );
        let a = 2.0 * k as f64;
        let c = ctx.symtab.get(&format!("c{k}x")).expect("c is bound");
        assert_eq!(c.as_f64().unwrap(), (a + 1.0) * a);
    }
}

/// The log text of a parfor's merged result (a format change, pinned here):
/// `rmerge` reads the value before the loop first, then each worker's value,
/// and its data names the variable and counts the workers.
#[test]
fn golden_parfor_merge_item() {
    use lima::lima_runtime::Block as B;
    let src = "R = matrix(0, 4, 1);\nparfor (i in 1:4) {\n  R[i, 1] = as.matrix(i * 2);\n}\n";
    let config = LimaConfig::tracing_only();
    let mut program = compile_script(src, &config).expect("compiles");
    for b in &mut program.body {
        if let B::ParFor { degree, .. } = b {
            *degree = Some(2);
        }
    }
    let mut ctx = ExecutionContext::new(config);
    execute_program(&program, &mut ctx).expect("runs");
    let log = serialize_lineage(ctx.lineage.get("R").expect("R is traced"));
    let id = |line: &str| line.split(' ').next().unwrap_or("").to_string();
    let fill = log
        .lines()
        .find(|l| l.contains(" I matrix "))
        .map(id)
        .expect("fill");
    let merge = log
        .lines()
        .find(|l| l.contains(" I rmerge "))
        .expect("merge item");
    let fields: Vec<&str> = merge.split(' ').collect();
    assert_eq!(fields[1..3], ["I", "rmerge"], "{merge}");
    assert_eq!(
        fields[3], fill,
        "the value before the loop comes first: {log}"
    );
    assert_eq!(fields.len(), 7, "two workers: {merge}");
    assert_eq!(fields[6], ";R\\s2", "{merge}");
    let replayed = recompute(
        &deserialize_lineage(&log).unwrap(),
        &mut ExecutionContext::new(LimaConfig::base()),
    );
    let want = ctx.symtab["R"].as_matrix().unwrap().data().to_vec();
    assert_eq!(
        replayed.expect("replays").as_matrix().unwrap().data(),
        &want[..]
    );
}
