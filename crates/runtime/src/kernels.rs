//! Instruction kernels: pure mapping from resolved operand values to output
//! values, dispatching into `lima-matrix`. Control-flow, tracing, caching,
//! and side effects live in the interpreter.

use crate::context::ExecutionContext;
use crate::error::{Result, RuntimeError};
use crate::instr::Op;
use lima_matrix::ops::{self, BinOp};
use lima_matrix::{DenseMatrix, ScalarValue, Value};

fn bad(op: &Op, msg: impl Into<String>) -> RuntimeError {
    RuntimeError::BadOperands {
        op: op.opcode().into_owned(),
        msg: msg.into(),
    }
}

fn need(inputs: &[Value], n: usize, op: &Op) -> Result<()> {
    if inputs.len() != n {
        return Err(bad(
            op,
            format!("expected {n} operands, got {}", inputs.len()),
        ));
    }
    Ok(())
}

fn mat<'a>(v: &'a Value, op: &Op) -> Result<&'a DenseMatrix> {
    match v {
        Value::Matrix(m) => Ok(m),
        other => Err(bad(
            op,
            format!("expected matrix, got {}", other.type_name()),
        )),
    }
}

fn num(v: &Value, op: &Op) -> Result<f64> {
    v.as_f64().map_err(|e| bad(op, e.to_string()))
}

fn int(v: &Value, op: &Op) -> Result<i64> {
    match v {
        Value::Scalar(s) => s.as_i64().map_err(|e| bad(op, e.to_string())),
        Value::Matrix(m) if m.shape() == (1, 1) => {
            let f = m.get(0, 0);
            if f.fract() == 0.0 {
                Ok(f as i64)
            } else {
                Err(bad(op, format!("{f} is not an integer")))
            }
        }
        other => Err(bad(
            op,
            format!("expected integer, got {}", other.type_name()),
        )),
    }
}

fn usize_arg(v: &Value, op: &Op) -> Result<usize> {
    let i = int(v, op)?;
    usize::try_from(i).map_err(|_| bad(op, format!("expected non-negative, got {i}")))
}

/// Converts a 1-based index (scalar position or column vector of positions,
/// as DML's `X[, s]` syntax covers both) into 0-based usize indices.
fn index_vector(v: &Value, op: &Op) -> Result<Vec<usize>> {
    let conv = |x: f64| -> Result<usize> {
        if x >= 1.0 && x.fract() == 0.0 {
            Ok(x as usize - 1)
        } else {
            Err(bad(op, format!("bad 1-based index {x}")))
        }
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
        other => Err(bad(
            op,
            format!("expected index, got {}", other.type_name()),
        )),
    }
}

/// Resolves DML-style 1-based inclusive bounds (0 = "to the end") into
/// 0-based inclusive bounds. Shared by the kernel and the lineage tracer so
/// the traced data string matches the executed slice.
pub fn resolve_bounds(
    shape: (usize, usize),
    rl: i64,
    ru: i64,
    cl: i64,
    cu: i64,
) -> Result<(usize, usize, usize, usize)> {
    let (rows, cols) = shape;
    let conv = |v: i64, max: usize, name: &str| -> Result<usize> {
        if v == 0 {
            Ok(max)
        } else if v >= 1 && (v as usize) <= max {
            Ok(v as usize)
        } else {
            Err(RuntimeError::BadOperands {
                op: "rightIndex".into(),
                msg: format!("{name} bound {v} out of 1..={max}"),
            })
        }
    };
    let rl = conv(rl.max(1), rows, "row")?;
    let ru = conv(ru, rows, "row")?;
    let cl = conv(cl.max(1), cols, "col")?;
    let cu = conv(cu, cols, "col")?;
    Ok((rl - 1, ru - 1, cl - 1, cu - 1))
}

/// Rows per chunk in session-interruptible kernels: a deadline or
/// cancellation lands within one chunk's worth of work even inside a single
/// large matrix multiply.
const KERNEL_CHUNK_ROWS: usize = 128;

/// Row-chunked matrix multiply with a cooperative interrupt checkpoint
/// between chunks. Bit-exact with `ops::matmult`: the row partition leaves
/// every output element's k-ascending accumulation order unchanged (the
/// parallel kernel splits rows the same way).
fn matmult_checkpointed(
    a: &DenseMatrix,
    b: &DenseMatrix,
    ctx: &ExecutionContext,
) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        // Canonical dimension error from the uncut kernel.
        return Ok(ops::matmult(a, b)?);
    }
    let (m, n) = (a.rows(), b.cols());
    let mut data = Vec::with_capacity(m * n);
    let mut r0 = 0;
    while r0 < m {
        ctx.check_interrupt()?;
        let r1 = (r0 + KERNEL_CHUNK_ROWS).min(m);
        let chunk = ops::slice(a, r0, r1 - 1, 0, a.cols() - 1)?;
        let out = ops::matmult(&chunk, b)?;
        data.extend_from_slice(out.data());
        r0 = r1;
    }
    Ok(DenseMatrix::new(m, n, data)?)
}

/// Row-chunked `t(X) %*% X` with interrupt checkpoints: the Gram matrices of
/// row stripes sum to the full Gram matrix. The stripe-sum order differs
/// from the fused kernel's accumulation, so results agree to FP tolerance
/// rather than bit-exactly (the parallel tsmm kernel already reorders the
/// same way).
fn tsmm_left_checkpointed(x: &DenseMatrix, ctx: &ExecutionContext) -> Result<DenseMatrix> {
    let n = x.cols();
    let mut acc = DenseMatrix::zeros(n, n);
    let mut r0 = 0;
    while r0 < x.rows() {
        ctx.check_interrupt()?;
        let r1 = (r0 + KERNEL_CHUNK_ROWS).min(x.rows());
        let stripe = ops::slice(x, r0, r1 - 1, 0, n - 1)?;
        let partial = ops::tsmm(&stripe, ops::TsmmSide::Left)?;
        acc = ops::ew_matrix_matrix(BinOp::Add, &acc, &partial)?;
        r0 = r1;
    }
    Ok(acc)
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
            need(inputs, 2, op)?;
            let a = mat(&inputs[0], op)?;
            let b = mat(&inputs[1], op)?;
            if ctx.session.is_some() && a.rows() > KERNEL_CHUNK_ROWS && a.cols() > 0 {
                vec![Value::matrix(matmult_checkpointed(a, b, ctx)?)]
            } else {
                vec![Value::matrix(ops::matmult(a, b)?)]
            }
        }
        Op::TMatMult => {
            need(inputs, 2, op)?;
            let a = mat(&inputs[0], op)?;
            let b = mat(&inputs[1], op)?;
            if ctx.session.is_some() && a.cols() > KERNEL_CHUNK_ROWS && a.rows() > 0 {
                // Checkpoints cut the rows of `t(A)`, as for the unfused pair.
                let at = ops::transpose(a);
                vec![Value::matrix(matmult_checkpointed(&at, b, ctx)?)]
            } else {
                vec![Value::matrix(ops::matmult_tn(a, b)?)]
            }
        }
        Op::Tsmm(side) => {
            need(inputs, 1, op)?;
            let x = mat(&inputs[0], op)?;
            if ctx.session.is_some()
                && *side == ops::TsmmSide::Left
                && x.rows() > KERNEL_CHUNK_ROWS
                && x.cols() > 0
            {
                vec![Value::matrix(tsmm_left_checkpointed(x, ctx)?)]
            } else {
                vec![Value::matrix(ops::tsmm(x, *side)?)]
            }
        }
        Op::Transpose => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::transpose(mat(&inputs[0], op)?))]
        }
        Op::Cbind => {
            need(inputs, 2, op)?;
            vec![Value::matrix(ops::cbind(
                mat(&inputs[0], op)?,
                mat(&inputs[1], op)?,
            )?)]
        }
        Op::Rbind => {
            need(inputs, 2, op)?;
            vec![Value::matrix(ops::rbind(
                mat(&inputs[0], op)?,
                mat(&inputs[1], op)?,
            )?)]
        }
        Op::RightIndex => {
            need(inputs, 5, op)?;
            let x = mat(&inputs[0], op)?;
            let (rl, ru, cl, cu) = resolve_bounds(
                x.shape(),
                int(&inputs[1], op)?,
                int(&inputs[2], op)?,
                int(&inputs[3], op)?,
                int(&inputs[4], op)?,
            )?;
            vec![Value::matrix(ops::slice(x, rl, ru, cl, cu)?)]
        }
        Op::LeftIndex => {
            need(inputs, 4, op)?;
            let x = mat(&inputs[0], op)?;
            let s = mat(&inputs[1], op)?;
            let rl = usize_arg(&inputs[2], op)?;
            let cl = usize_arg(&inputs[3], op)?;
            if rl == 0 || cl == 0 {
                return Err(bad(op, "leftIndex offsets are 1-based"));
            }
            vec![Value::matrix(ops::left_index(x, s, rl - 1, cl - 1)?)]
        }
        Op::SelectCols => {
            need(inputs, 2, op)?;
            let x = mat(&inputs[0], op)?;
            let idx = index_vector(&inputs[1], op)?;
            vec![Value::matrix(ops::select_cols(x, &idx)?)]
        }
        Op::SelectRows => {
            need(inputs, 2, op)?;
            let x = mat(&inputs[0], op)?;
            let idx = index_vector(&inputs[1], op)?;
            vec![Value::matrix(ops::select_rows(x, &idx)?)]
        }
        Op::Fill => {
            need(inputs, 3, op)?;
            let v = num(&inputs[0], op)?;
            let rows = usize_arg(&inputs[1], op)?;
            let cols = usize_arg(&inputs[2], op)?;
            vec![Value::matrix(DenseMatrix::filled(rows, cols, v))]
        }
        Op::Rand(kind) => {
            need(inputs, 6, op)?;
            let rows = usize_arg(&inputs[0], op)?;
            let cols = usize_arg(&inputs[1], op)?;
            let p1 = num(&inputs[2], op)?;
            let p2 = num(&inputs[3], op)?;
            let sparsity = num(&inputs[4], op)?;
            let seed = int(&inputs[5], op)?;
            vec![Value::matrix(lima_matrix::rand_gen::rand_matrix(
                rows,
                cols,
                kind.dist(p1, p2),
                sparsity,
                seed as u64,
            )?)]
        }
        Op::Sample => {
            need(inputs, 3, op)?;
            let range = usize_arg(&inputs[0], op)?;
            let size = usize_arg(&inputs[1], op)?;
            let seed = int(&inputs[2], op)?;
            vec![Value::matrix(
                lima_matrix::rand_gen::sample_without_replacement(range, size, seed as u64)?,
            )]
        }
        Op::Seq => {
            need(inputs, 3, op)?;
            vec![Value::matrix(ops::seq(
                num(&inputs[0], op)?,
                num(&inputs[1], op)?,
                num(&inputs[2], op)?,
            )?)]
        }
        Op::Read => {
            need(inputs, 1, op)?;
            let path = match &inputs[0] {
                Value::Scalar(ScalarValue::Str(s)) => s.to_string(),
                other => return Err(bad(op, format!("expected path, got {}", other.type_name()))),
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
        Op::FullAgg(f) => {
            need(inputs, 1, op)?;
            vec![Value::f64(ops::full_agg(mat(&inputs[0], op)?, *f))]
        }
        Op::ColAgg(f) => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::col_agg(mat(&inputs[0], op)?, *f))]
        }
        Op::RowAgg(f) => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::row_agg(mat(&inputs[0], op)?, *f))]
        }
        Op::RowIndexMax => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::row_index_max(mat(&inputs[0], op)?)?)]
        }
        Op::Solve => {
            need(inputs, 2, op)?;
            vec![Value::matrix(ops::solve(
                mat(&inputs[0], op)?,
                mat(&inputs[1], op)?,
            )?)]
        }
        Op::Diag => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::diag(mat(&inputs[0], op)?)?)]
        }
        Op::Eigen => {
            need(inputs, 1, op)?;
            let r = ops::eigen_symmetric(mat(&inputs[0], op)?)?;
            vec![Value::matrix(r.values), Value::matrix(r.vectors)]
        }
        Op::Order => {
            need(inputs, 2, op)?;
            let v = mat(&inputs[0], op)?;
            let dec = match &inputs[1] {
                Value::Scalar(s) => s.as_bool().map_err(|e| bad(op, e.to_string()))?,
                other => return Err(bad(op, format!("expected bool, got {}", other.type_name()))),
            };
            vec![Value::matrix(ops::order_index(v, dec)?)]
        }
        Op::Rev => {
            need(inputs, 1, op)?;
            vec![Value::matrix(ops::rev(mat(&inputs[0], op)?))]
        }
        Op::Table => {
            need(inputs, 2, op)?;
            vec![Value::matrix(ops::table2(
                mat(&inputs[0], op)?,
                mat(&inputs[1], op)?,
            )?)]
        }
        Op::Nrow => {
            need(inputs, 1, op)?;
            vec![Value::i64(mat(&inputs[0], op)?.rows() as i64)]
        }
        Op::Ncol => {
            need(inputs, 1, op)?;
            vec![Value::i64(mat(&inputs[0], op)?.cols() as i64)]
        }
        Op::CastScalar => {
            need(inputs, 1, op)?;
            let m = mat(&inputs[0], op)?;
            if m.shape() != (1, 1) {
                return Err(bad(
                    op,
                    format!("as.scalar on {}x{} matrix", m.rows(), m.cols()),
                ));
            }
            vec![Value::f64(m.get(0, 0))]
        }
        Op::CastMatrix => {
            need(inputs, 1, op)?;
            vec![Value::matrix(DenseMatrix::filled(
                1,
                1,
                num(&inputs[0], op)?,
            ))]
        }
        Op::Reshape => {
            need(inputs, 3, op)?;
            let x = mat(&inputs[0], op)?;
            let rows = usize_arg(&inputs[1], op)?;
            let cols = usize_arg(&inputs[2], op)?;
            if rows * cols != x.len() {
                return Err(bad(
                    op,
                    format!("cannot reshape {} cells to {rows}x{cols}", x.len()),
                ));
            }
            vec![Value::matrix(DenseMatrix::new(
                rows,
                cols,
                x.data().to_vec(),
            )?)]
        }
        Op::ListNew => {
            vec![Value::list(inputs.to_vec())]
        }
        Op::ListGet => {
            need(inputs, 2, op)?;
            let list = inputs[0].as_list().map_err(|e| bad(op, e.to_string()))?;
            let idx = usize_arg(&inputs[1], op)?;
            if idx == 0 || idx > list.len() {
                return Err(bad(
                    op,
                    format!("list index {idx} out of 1..={}", list.len()),
                ));
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
        Op::Fused(spec) => {
            vec![Value::matrix(spec.execute(inputs)?)]
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
