//! Instruction kernels: pure mapping from resolved operand values to output
//! values, dispatching into `lima-matrix`. Control-flow, tracing, caching,
//! and side effects live in the interpreter.

use crate::context::ExecutionContext;
use crate::error::{Result, RuntimeError};
use crate::instr::Op;
use lima_matrix::ops::{self, BinOp, Split};
use lima_matrix::{DenseMatrix, ScalarValue, Value};

fn bad(op: &Op, msg: impl Into<String>) -> RuntimeError {
    RuntimeError::bad_operands(op.opcode(), msg)
}

/// `op` expected a `what` operand and got `got`.
fn expected(op: &Op, what: &str, got: &Value) -> RuntimeError {
    bad(op, format!("expected {what}, got {}", got.type_name()))
}

fn need(inputs: &[Value], n: usize, op: &Op) -> Result<()> {
    match inputs.len() {
        got if got != n => Err(bad(op, format!("expected {n} operands, got {got}"))),
        _ => Ok(()),
    }
}

fn mat<'a>(v: &'a Value, op: &Op) -> Result<&'a DenseMatrix> {
    match v {
        Value::Matrix(m) => Ok(m),
        other => Err(expected(op, "matrix", other)),
    }
}

/// The one operand of `op`, a matrix.
fn mat1<'a>(inputs: &'a [Value], op: &Op) -> Result<&'a DenseMatrix> {
    need(inputs, 1, op)?;
    mat(&inputs[0], op)
}

/// The two operands of `op`, matrices.
fn mat2<'a>(inputs: &'a [Value], op: &Op) -> Result<(&'a DenseMatrix, &'a DenseMatrix)> {
    need(inputs, 2, op)?;
    Ok((mat(&inputs[0], op)?, mat(&inputs[1], op)?))
}

fn num(v: &Value, op: &Op) -> Result<f64> {
    v.as_f64().map_err(|e| bad(op, e.to_string()))
}

fn int(v: &Value, op: &Op) -> Result<i64> {
    match v {
        Value::Scalar(s) => s.as_i64().map_err(|e| bad(op, e.to_string())),
        Value::Matrix(m) if m.shape() == (1, 1) => match m.get(0, 0) {
            f if f.fract() == 0.0 => Ok(f as i64),
            f => Err(bad(op, format!("{f} is not an integer"))),
        },
        other => Err(expected(op, "integer", other)),
    }
}

fn usize_arg(v: &Value, op: &Op) -> Result<usize> {
    let i = int(v, op)?;
    usize::try_from(i).map_err(|_| bad(op, format!("expected non-negative, got {i}")))
}

/// Converts a 1-based index (scalar position or column vector of positions,
/// as DML's `X[, s]` syntax covers both) into 0-based usize indices.
fn index_vector(v: &Value, op: &Op) -> Result<Vec<usize>> {
    let conv = |x: f64| match x {
        x if x >= 1.0 && x.fract() == 0.0 => Ok(x as usize - 1),
        x => Err(bad(op, format!("bad 1-based index {x}"))),
    };
    match v {
        Value::Matrix(m) => {
            if m.cols() != 1 {
                return Err(bad(op, "index vector must be a column vector"));
            }
            m.data().iter().map(|&x| conv(x)).collect()
        }
        Value::Scalar(s) => {
            let x = s.as_f64().map_err(|e| bad(op, e.to_string()))?;
            Ok(vec![conv(x)?])
        }
        other => Err(expected(op, "index", other)),
    }
}

/// Resolves DML-style 1-based inclusive bounds (0 = "to the end") into
/// 0-based inclusive bounds. Shared by the kernel and the lineage tracer so
/// the traced data string matches the executed slice.
pub fn resolve_bounds(
    (rows, cols): (usize, usize),
    [rl, ru, cl, cu]: [i64; 4],
) -> Result<(usize, usize, usize, usize)> {
    let conv = |v: i64, max: usize, name: &str| match v {
        0 => Ok(max),
        1.. if v as usize <= max => Ok(v as usize),
        _ => Err(RuntimeError::bad_operands(
            "rightIndex",
            format!("{name} bound {v} out of 1..={max}"),
        )),
    };
    let rl = conv(rl.max(1), rows, "row")?;
    let ru = conv(ru, rows, "row")?;
    let cl = conv(cl.max(1), cols, "col")?;
    let cu = conv(cu, cols, "col")?;
    Ok((rl - 1, ru - 1, cl - 1, cu - 1))
}

/// Runs a row-panel kernel (GEMM, `t(A) %*% B`, `tsmm`) on the pool; in a
/// session each thread checks for a cancel or a deadline before each panel
/// it takes. No bit depends on the split. Kept out of line: inlined three
/// times, it grew the dispatch of every cell-wise instruction.
#[inline(never)]
fn split_kernel(
    ctx: &ExecutionContext,
    kernel: impl FnOnce(&Split) -> lima_matrix::Result<DenseMatrix>,
) -> Result<Vec<Value>> {
    let threads = ops::kernel_threads();
    let out = match ctx.interrupt() {
        None => kernel(&Split::Threads(threads)),
        Some(interrupt) => kernel(&Split::Checked(threads, &|| interrupt.check().is_err())),
    };
    // A cancel or a deadline that stopped the kernel is still set.
    ctx.check_interrupt()?;
    Ok(vec![Value::matrix(out?)])
}

/// Executes a pure instruction kernel. `Rand`/`Sample` expect their seed
/// operand already resolved to a concrete value by the interpreter.
///
/// With an observability hub attached and enabled, successful executions are
/// recorded as `Kernel` spans nested inside the interpreter's `Instr` span.
pub fn execute_kernel(op: &Op, inputs: &[Value], ctx: &ExecutionContext) -> Result<Vec<Value>> {
    let obs = ctx.config.obs.as_ref().filter(|o| o.enabled());
    let t0 = obs.map(|o| o.now_ns());
    let out = execute_kernel_inner(op, inputs, ctx)?;
    if let (Some(o), Some(t0)) = (obs, t0) {
        o.record_span(lima_core::EventKind::Kernel, &op.opcode(), 0, t0, 0, 0);
    }
    Ok(out)
}

fn execute_kernel_inner(op: &Op, inputs: &[Value], ctx: &ExecutionContext) -> Result<Vec<Value>> {
    let out = match op {
        Op::Binary(b) => {
            need(inputs, 2, op)?;
            vec![exec_binary(*b, &inputs[0], &inputs[1], op)?]
        }
        Op::Unary(u) => {
            need(inputs, 1, op)?;
            match &inputs[0] {
                Value::Matrix(m) => vec![Value::matrix(ops::ew_unary(*u, m))],
                s => vec![Value::f64(u.apply(num(s, op)?))],
            }
        }
        Op::MatMult => {
            let (a, b) = mat2(inputs, op)?;
            split_kernel(ctx, |s| ops::matmult_split(a, b, s))?
        }
        Op::TMatMult => {
            let (a, b) = mat2(inputs, op)?;
            split_kernel(ctx, |s| ops::matmult_tn_split(a, b, s))?
        }
        Op::Tsmm(side) => {
            let x = mat1(inputs, op)?;
            split_kernel(ctx, |s| ops::tsmm_split(x, *side, s))?
        }
        Op::Transpose => vec![Value::matrix(ops::transpose(mat1(inputs, op)?))],
        Op::Cbind | Op::Rbind | Op::Solve | Op::Table => {
            let (a, b) = mat2(inputs, op)?;
            let kernel = match op {
                Op::Cbind => ops::cbind,
                Op::Rbind => ops::rbind,
                Op::Solve => ops::solve,
                _ => ops::table2,
            };
            vec![Value::matrix(kernel(a, b)?)]
        }
        Op::RightIndex => {
            need(inputs, 5, op)?;
            let x = mat(&inputs[0], op)?;
            let b = |k: usize| int(&inputs[k], op);
            let (rl, ru, cl, cu) = resolve_bounds(x.shape(), [b(1)?, b(2)?, b(3)?, b(4)?])?;
            vec![Value::matrix(ops::slice(x, rl, ru, cl, cu)?)]
        }
        Op::LeftIndex => {
            need(inputs, 4, op)?;
            let (x, s) = (mat(&inputs[0], op)?, mat(&inputs[1], op)?);
            let (rl, cl) = (usize_arg(&inputs[2], op)?, usize_arg(&inputs[3], op)?);
            if rl == 0 || cl == 0 {
                return Err(bad(op, "leftIndex offsets are 1-based"));
            }
            vec![Value::matrix(ops::left_index(x, s, rl - 1, cl - 1)?)]
        }
        Op::SelectCols | Op::SelectRows => {
            need(inputs, 2, op)?;
            let (x, idx) = (mat(&inputs[0], op)?, index_vector(&inputs[1], op)?);
            let select = match op {
                Op::SelectCols => ops::select_cols,
                _ => ops::select_rows,
            };
            vec![Value::matrix(select(x, &idx)?)]
        }
        Op::Fill => {
            need(inputs, 3, op)?;
            let (rows, cols) = (usize_arg(&inputs[1], op)?, usize_arg(&inputs[2], op)?);
            let v = num(&inputs[0], op)?;
            vec![Value::matrix(DenseMatrix::filled(rows, cols, v))]
        }
        Op::Rand(kind) => {
            need(inputs, 6, op)?;
            let (rows, cols) = (usize_arg(&inputs[0], op)?, usize_arg(&inputs[1], op)?);
            let dist = kind.dist(num(&inputs[2], op)?, num(&inputs[3], op)?);
            let (sparsity, seed) = (num(&inputs[4], op)?, int(&inputs[5], op)? as u64);
            let out = lima_matrix::rand_gen::rand_matrix(rows, cols, dist, sparsity, seed)?;
            vec![Value::matrix(out)]
        }
        Op::Sample => {
            need(inputs, 3, op)?;
            let (range, size) = (usize_arg(&inputs[0], op)?, usize_arg(&inputs[1], op)?);
            let seed = int(&inputs[2], op)? as u64;
            let out = lima_matrix::rand_gen::sample_without_replacement(range, size, seed)?;
            vec![Value::matrix(out)]
        }
        Op::Seq => {
            need(inputs, 3, op)?;
            let (from, to) = (num(&inputs[0], op)?, num(&inputs[1], op)?);
            vec![Value::matrix(ops::seq(from, to, num(&inputs[2], op)?)?)]
        }
        Op::Read => {
            need(inputs, 1, op)?;
            let path = match &inputs[0] {
                Value::Scalar(ScalarValue::Str(s)) => s.to_string(),
                other => return Err(expected(op, "path", other)),
            };
            match ctx.data.get(&path) {
                Some(v) => vec![v],
                // Registry miss: fall back to a matrix text/CSV file on disk
                // (the paper's immutable input files, §3.4).
                None => {
                    let p = std::path::Path::new(&path);
                    if p.is_file() {
                        vec![Value::matrix(
                            lima_matrix::io::read_matrix_text(p)
                                .map_err(|e| RuntimeError::Io(format!("{path}: {e}")))?,
                        )]
                    } else {
                        return Err(RuntimeError::UnknownDataset(path));
                    }
                }
            }
        }
        Op::FullAgg(f) => vec![Value::f64(ops::full_agg(mat1(inputs, op)?, *f))],
        Op::ColAgg(f) => vec![Value::matrix(ops::col_agg(mat1(inputs, op)?, *f))],
        Op::RowAgg(f) => vec![Value::matrix(ops::row_agg(mat1(inputs, op)?, *f))],
        Op::RowIndexMax => vec![Value::matrix(ops::row_index_max(mat1(inputs, op)?)?)],
        Op::Diag => vec![Value::matrix(ops::diag(mat1(inputs, op)?)?)],
        Op::Eigen => {
            let r = ops::eigen_symmetric(mat1(inputs, op)?)?;
            vec![Value::matrix(r.values), Value::matrix(r.vectors)]
        }
        Op::Order => {
            need(inputs, 2, op)?;
            let v = mat(&inputs[0], op)?;
            let dec = match &inputs[1] {
                Value::Scalar(s) => s.as_bool().map_err(|e| bad(op, e.to_string()))?,
                other => return Err(expected(op, "bool", other)),
            };
            vec![Value::matrix(ops::order_index(v, dec)?)]
        }
        Op::Rev => vec![Value::matrix(ops::rev(mat1(inputs, op)?))],
        Op::Nrow => vec![Value::i64(mat1(inputs, op)?.rows() as i64)],
        Op::Ncol => vec![Value::i64(mat1(inputs, op)?.cols() as i64)],
        Op::CastScalar => {
            let m = mat1(inputs, op)?;
            let (r, c) = m.shape();
            if (r, c) != (1, 1) {
                return Err(bad(op, format!("as.scalar on {r}x{c} matrix")));
            }
            vec![Value::f64(m.get(0, 0))]
        }
        Op::CastMatrix => {
            need(inputs, 1, op)?;
            let v = num(&inputs[0], op)?;
            vec![Value::matrix(DenseMatrix::filled(1, 1, v))]
        }
        Op::Reshape => {
            need(inputs, 3, op)?;
            let x = mat(&inputs[0], op)?;
            let (rows, cols) = (usize_arg(&inputs[1], op)?, usize_arg(&inputs[2], op)?);
            if rows * cols != x.len() {
                let msg = format!("cannot reshape {} cells to {rows}x{cols}", x.len());
                return Err(bad(op, msg));
            }
            let out = DenseMatrix::new(rows, cols, x.data().to_vec())?;
            vec![Value::matrix(out)]
        }
        Op::ListNew => vec![Value::list(inputs.to_vec())],
        Op::ListGet => {
            need(inputs, 2, op)?;
            let list = inputs[0].as_list().map_err(|e| bad(op, e.to_string()))?;
            let idx = usize_arg(&inputs[1], op)?;
            let n = list.len();
            if idx == 0 || idx > n {
                return Err(bad(op, format!("list index {idx} out of 1..={n}")));
            }
            vec![list[idx - 1].clone()]
        }
        Op::Assign => {
            need(inputs, 1, op)?;
            vec![inputs[0].clone()]
        }
        Op::Concat => {
            need(inputs, 2, op)?;
            let s = format!("{}{}", display(&inputs[0]), display(&inputs[1]));
            vec![Value::str(&s)]
        }
        Op::Fused(spec) => vec![Value::matrix(spec.execute(inputs)?)],
        Op::ResultMerge => {
            let Some((init, workers)) = inputs.split_first() else {
                return Err(bad(op, "needs the value before the loop"));
            };
            match crate::parfor::merge_results(Some(init), workers) {
                Some(merged) => vec![merged],
                None => return Err(bad(op, "nothing to merge")),
            }
        }
        Op::Print | Op::Write | Op::Rmvar | Op::Mvvar | Op::FCall(_) | Op::LineageOf => {
            return Err(bad(op, "handled by the interpreter, not a kernel"));
        }
    };
    Ok(out)
}

/// Human-readable rendering used by `print`/`concat`.
pub fn display(v: &Value) -> String {
    match v {
        Value::Scalar(s) => s.to_string(),
        Value::Matrix(m) if m.shape() == (1, 1) => format!("{}", m.get(0, 0)),
        Value::Matrix(m) => {
            let mut out = String::new();
            for i in 0..m.rows().min(10) {
                let row: Vec<String> = m
                    .row(i)
                    .iter()
                    .take(10)
                    .map(|v| format!("{v:.4}"))
                    .collect();
                out.push_str(&row.join(" "));
                out.push('\n');
            }
            out
        }
        Value::List(items) => {
            let parts: Vec<String> = items.iter().map(display).collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn exec_binary(b: BinOp, lhs: &Value, rhs: &Value, op: &Op) -> Result<Value> {
    // DML `+` concatenates when either side is a string.
    if b == BinOp::Add {
        let is_str = |v: &Value| matches!(v, Value::Scalar(ScalarValue::Str(_)));
        if is_str(lhs) || is_str(rhs) {
            return Ok(Value::str(&format!("{}{}", display(lhs), display(rhs))));
        }
    }
    Ok(match (lhs, rhs) {
        (Value::Matrix(a), Value::Matrix(c)) => Value::matrix(ops::ew_matrix_matrix(b, a, c)?),
        (Value::Matrix(a), s) => Value::matrix(ops::ew_matrix_scalar(b, a, num(s, op)?)),
        (s, Value::Matrix(c)) => Value::matrix(ops::ew_scalar_matrix(b, num(s, op)?, c)),
        (s, t) => Value::f64(b.apply(num(s, op)?, num(t, op)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::RandDistKind;
    use lima_core::LimaConfig;

    fn ctx() -> ExecutionContext {
        ExecutionContext::new(LimaConfig::base())
    }

    fn m(rows: usize, cols: usize, v: &[f64]) -> Value {
        Value::matrix(DenseMatrix::new(rows, cols, v.to_vec()).unwrap())
    }

    #[test]
    fn binary_dispatch_covers_all_type_pairs() {
        let c = ctx();
        let op = Op::Binary(BinOp::Add);
        let mm = execute_kernel(&op, &[m(1, 2, &[1.0, 2.0]), m(1, 2, &[3.0, 4.0])], &c).unwrap();
        assert_eq!(mm[0].as_matrix().unwrap().data(), &[4.0, 6.0]);
        let ms = execute_kernel(&op, &[m(1, 2, &[1.0, 2.0]), Value::f64(1.0)], &c).unwrap();
        assert_eq!(ms[0].as_matrix().unwrap().data(), &[2.0, 3.0]);
        let sm = execute_kernel(
            &Op::Binary(BinOp::Sub),
            &[Value::f64(1.0), m(1, 1, &[3.0])],
            &c,
        )
        .unwrap();
        assert_eq!(sm[0].as_matrix().unwrap().get(0, 0), -2.0);
        let ss = execute_kernel(&op, &[Value::f64(1.0), Value::f64(2.0)], &c).unwrap();
        assert_eq!(ss[0].as_f64().unwrap(), 3.0);
    }

    #[test]
    fn right_index_uses_one_based_inclusive_bounds() {
        let c = ctx();
        let x = m(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let out = execute_kernel(
            &Op::RightIndex,
            &[
                x.clone(),
                Value::i64(2),
                Value::i64(3),
                Value::i64(1),
                Value::i64(2),
            ],
            &c,
        )
        .unwrap();
        assert_eq!(out[0].as_matrix().unwrap().data(), &[4.0, 5.0, 7.0, 8.0]);
        // 0 means "to the end".
        let out = execute_kernel(
            &Op::RightIndex,
            &[
                x,
                Value::i64(1),
                Value::i64(0),
                Value::i64(3),
                Value::i64(0),
            ],
            &c,
        )
        .unwrap();
        assert_eq!(out[0].as_matrix().unwrap().data(), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn left_index_is_one_based() {
        let c = ctx();
        let x = m(3, 3, &[0.0; 9]);
        let s = m(1, 2, &[7.0, 8.0]);
        let out =
            execute_kernel(&Op::LeftIndex, &[x, s, Value::i64(2), Value::i64(2)], &c).unwrap();
        let om = out[0].as_matrix().unwrap();
        assert_eq!(om.get(1, 1), 7.0);
        assert_eq!(om.get(1, 2), 8.0);
    }

    #[test]
    fn select_cols_uses_one_based_index_vector() {
        let c = ctx();
        let x = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let idx = m(2, 1, &[3.0, 1.0]);
        let out = execute_kernel(&Op::SelectCols, &[x, idx], &c).unwrap();
        assert_eq!(out[0].as_matrix().unwrap().data(), &[3.0, 1.0, 6.0, 4.0]);
    }

    #[test]
    fn rand_and_sample_use_the_resolved_seed() {
        let c = ctx();
        let args = |seed: i64| {
            vec![
                Value::i64(3),
                Value::i64(4),
                Value::f64(0.0),
                Value::f64(1.0),
                Value::f64(1.0),
                Value::i64(seed),
            ]
        };
        let a = execute_kernel(&Op::Rand(RandDistKind::Uniform), &args(7), &c).unwrap();
        let b = execute_kernel(&Op::Rand(RandDistKind::Uniform), &args(7), &c).unwrap();
        assert_eq!(a[0], b[0]);
        let s = execute_kernel(
            &Op::Sample,
            &[Value::i64(10), Value::i64(5), Value::i64(3)],
            &c,
        )
        .unwrap();
        assert_eq!(s[0].as_matrix().unwrap().rows(), 5);
    }

    #[test]
    fn read_resolves_registered_datasets() {
        let c = ctx();
        c.data
            .register("data/X.csv", m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let out = execute_kernel(&Op::Read, &[Value::str("data/X.csv")], &c).unwrap();
        assert_eq!(out[0].as_matrix().unwrap().get(1, 1), 4.0);
        assert!(matches!(
            execute_kernel(&Op::Read, &[Value::str("missing")], &c),
            Err(RuntimeError::UnknownDataset(_))
        ));
    }

    #[test]
    fn eigen_returns_two_outputs() {
        let c = ctx();
        let x = m(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let out = execute_kernel(&Op::Eigen, &[x], &c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_matrix().unwrap().shape(), (2, 1));
        assert_eq!(out[1].as_matrix().unwrap().shape(), (2, 2));
    }

    #[test]
    fn casts_and_dims() {
        let c = ctx();
        assert_eq!(
            execute_kernel(&Op::Nrow, &[m(3, 2, &[0.0; 6])], &c).unwrap()[0]
                .as_f64()
                .unwrap(),
            3.0
        );
        assert_eq!(
            execute_kernel(&Op::Ncol, &[m(3, 2, &[0.0; 6])], &c).unwrap()[0]
                .as_f64()
                .unwrap(),
            2.0
        );
        assert_eq!(
            execute_kernel(&Op::CastScalar, &[m(1, 1, &[5.0])], &c).unwrap()[0]
                .as_f64()
                .unwrap(),
            5.0
        );
        assert!(execute_kernel(&Op::CastScalar, &[m(2, 1, &[5.0, 6.0])], &c).is_err());
        let cm = execute_kernel(&Op::CastMatrix, &[Value::f64(2.0)], &c).unwrap();
        assert_eq!(cm[0].as_matrix().unwrap().shape(), (1, 1));
    }

    #[test]
    fn reshape_preserves_row_major_order() {
        let c = ctx();
        let x = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out =
            execute_kernel(&Op::Reshape, &[x.clone(), Value::i64(3), Value::i64(2)], &c).unwrap();
        assert_eq!(
            out[0].as_matrix().unwrap().data(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert!(execute_kernel(&Op::Reshape, &[x, Value::i64(4), Value::i64(2)], &c).is_err());
    }

    #[test]
    fn lists_and_concat() {
        let c = ctx();
        let l = execute_kernel(&Op::ListNew, &[Value::f64(1.0), Value::str("a")], &c).unwrap();
        let got = execute_kernel(&Op::ListGet, &[l[0].clone(), Value::i64(2)], &c).unwrap();
        assert_eq!(got[0], Value::str("a"));
        assert!(execute_kernel(&Op::ListGet, &[l[0].clone(), Value::i64(3)], &c).is_err());
        let s = execute_kernel(&Op::Concat, &[Value::str("x="), Value::f64(2.0)], &c).unwrap();
        assert_eq!(s[0], Value::str("x=2"));
    }

    #[test]
    fn interpreter_only_ops_are_rejected() {
        let c = ctx();
        assert!(execute_kernel(&Op::Print, &[Value::f64(1.0)], &c).is_err());
        assert!(execute_kernel(&Op::FCall("f".into()), &[], &c).is_err());
    }

    #[test]
    fn arity_is_validated() {
        let c = ctx();
        assert!(execute_kernel(&Op::MatMult, &[m(1, 1, &[1.0])], &c).is_err());
        assert!(execute_kernel(&Op::Solve, &[], &c).is_err());
    }
}
