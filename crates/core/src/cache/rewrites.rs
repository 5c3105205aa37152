//! Partial-reuse rewrites (paper §4.2).
//!
//! When a full-reuse probe misses, LIMA pattern-matches the *about-to-execute*
//! lineage item against a list of source→target rewrites. If a component of
//! the target pattern is found in the cache, the output is assembled from the
//! cached intermediate plus an inexpensive compensation computed with the
//! matrix kernels (semantically the paper's "compile and execute actual
//! runtime instructions").
//!
//! Implemented meta-rewrites (each with internal variants):
//!
//! 1.  `rbind(X,ΔX) %*% Y            → rbind(X%*%Y, ΔX%*%Y)`
//! 2.  `X %*% cbind(Y,ΔY)            → cbind(X%*%Y, X%*%ΔY)`
//! 3.  `X %*% cbind(Y,1)             → cbind(X%*%Y, rowSums(X))` (variant of 2)
//! 4.  `X %*% Y[,1:k]                → (X%*%Y)[,1:k]`
//! 5.  `tsmm(rbind(X,ΔX))            → tsmm(X) + tsmm(ΔX)`
//! 6.  `tsmm(cbind(X,ΔX))            → [[tsmm(X), XᵀΔX],[ΔXᵀX, tsmm(ΔX)]]`
//! 7.  `tsmm(cbind(X,1))             → augment with colSums(X), nrow(X)` (variant of 6)
//! 8.  `cbind(X,ΔX) ⊙ cbind(Y,ΔY)    → cbind(X⊙Y, ΔX⊙ΔY)`
//! 9.  `colAgg(cbind(X,ΔX))          → cbind(colAgg(X), colAgg(ΔX))`
//! 10. `t(rbind(Xa,Xb)) %*% rbind(Ya,Yb) → t(Xa)%*%Ya + t(Xb)%*%Yb`
//! 11. `rowAgg(rbind(X,ΔX))          → rbind(rowAgg(X), rowAgg(ΔX))`
//! 12. `t(cbind(X,ΔX))               → rbind(t(X), t(ΔX))`
//! 13. `fullAgg(cbind/rbind(X,ΔX))   → combine(fullAgg(X), fullAgg(ΔX))`
//!     (sum/sumsq/min/max)
//! 14. `rbind(X,ΔX) ⊙ rbind(Y,ΔY)    → rbind(X⊙Y, ΔX⊙ΔY)`
//!
//! Shapes needed to size the compensations come from the shape metadata the
//! runtime registers on lineage items, or from cached component shapes.

use crate::cache::LineageCache;
use crate::lineage::item::{LinRef, LineageItem};
use crate::opcodes as op;
use crate::stats::LimaStats;
use lima_matrix::ops::{
    agg, cbind, col_agg, ew_matrix_matrix, matmult, rbind, row_agg, slice, transpose, tsmm, AggFn,
    BinOp, TsmmSide,
};
use lima_matrix::{DenseMatrix, MatrixRef, Value};

/// Result of a successful partial reuse.
#[derive(Debug)]
pub struct PartialHit {
    /// The assembled output value.
    pub value: Value,
    /// Name of the rewrite that fired (for statistics / tests).
    pub rewrite: &'static str,
}

/// Attempts all partial-reuse rewrites for `item`, whose immediate input
/// values are `input_values` (same order as `item.inputs()`). The caller
/// times a rewrite that fires (`compensation_ns`) from the clock reading its
/// miss started with, which also times the kernel when none fires.
pub fn try_partial_reuse(
    cache: &LineageCache,
    item: &LinRef,
    input_values: &[Value],
) -> Option<PartialHit> {
    if !cache.partial_reuse() {
        return None;
    }
    let hit = dispatch(cache, item, input_values)?;
    LimaStats::bump(&cache.stats().partial_hits);
    Some(hit)
}

fn dispatch(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    match item.opcode() {
        op::MATMULT => try_mm_rewrites(cache, item, vals),
        op::TSMM => try_tsmm_rewrites(cache, item, vals),
        op::TRANSPOSE => try_transpose_cbind(cache, item, vals),
        o if BinOp::from_opcode(o).is_some() => {
            try_ew_cbind(cache, item, vals).or_else(|| try_ew_rbind(cache, item, vals))
        }
        o if o.starts_with(op::COL_AGG_PREFIX) => try_colagg_cbind(cache, item, vals),
        o if o.starts_with(op::ROW_AGG_PREFIX) => try_rowagg_rbind(cache, item, vals),
        o if o.starts_with(op::FULL_AGG_PREFIX) => try_fullagg_concat(cache, item, vals),
        _ => None,
    }
}

/// Peeks a matrix value for a probe lineage item.
fn peek_matrix(cache: &LineageCache, probe: &LinRef) -> Option<MatrixRef> {
    match cache.peek(probe) {
        Some(Value::Matrix(m)) => Some(m),
        _ => None,
    }
}

fn as_matrix(v: &Value) -> Option<&MatrixRef> {
    match v {
        Value::Matrix(m) => Some(m),
        _ => None,
    }
}

/// True if `lin` denotes a constant fill of `value` with a single column
/// (the appended intercept column `matrix(1, nrow(X), 1)`).
fn is_const_col(lin: &LinRef, value: f64) -> bool {
    if lin.opcode() != op::MATRIX_FILL {
        return false;
    }
    // Fill data format: "value rows cols" (see runtime tracing).
    let Some(data) = lin.data() else { return false };
    let mut parts = data.split(' ');
    let v: f64 = match parts.next().and_then(|s| s.parse().ok()) {
        Some(v) => v,
        None => return false,
    };
    let _rows = parts.next();
    let cols: usize = match parts.next().and_then(|s| s.parse().ok()) {
        Some(c) => c,
        None => return false,
    };
    v == value && cols == 1
}

fn probe_mm(a: &LinRef, b: &LinRef) -> LinRef {
    LineageItem::op(op::MATMULT, [a.clone(), b.clone()])
}

fn probe_tsmm(x: &LinRef) -> LinRef {
    LineageItem::op_with_data(op::TSMM, "LEFT", [x.clone()])
}

/// Rewrites 1–4 and 10: matrix-multiply patterns.
fn try_mm_rewrites(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let [a_lin, b_lin] = item.inputs() else {
        return None;
    };
    let av = as_matrix(vals.first()?)?;
    let bv = as_matrix(vals.get(1)?)?;

    // (10) t(rbind(Xa,Xb)) %*% rbind(Ya,Yb) → t(Xa)%*%Ya + t(Xb)%*%Yb
    if a_lin.opcode() == op::TRANSPOSE && b_lin.opcode() == op::RBIND {
        if let [inner] = a_lin.inputs() {
            if inner.opcode() == op::RBIND {
                let [xa, _xb] = inner.inputs() else {
                    return None;
                };
                let [ya, _yb] = b_lin.inputs() else {
                    return None;
                };
                let probe = probe_mm(&LineageItem::op(op::TRANSPOSE, [xa.clone()]), &ya.clone());
                if let Some(head) = peek_matrix(cache, &probe) {
                    let na = xa.shape().map(|(r, _)| r).or(ya.shape().map(|(r, _)| r))?;
                    if na < bv.rows() && na < av.cols() {
                        // av is already t(rbind(Xa,Xb)): k × (na+nb)
                        let t_tail = slice(av, 0, av.rows() - 1, na, av.cols() - 1).ok()?;
                        let y_tail = slice(bv, na, bv.rows() - 1, 0, bv.cols() - 1).ok()?;
                        let comp = matmult(&t_tail, &y_tail).ok()?;
                        let sum = ew_matrix_matrix(BinOp::Add, &head, &comp).ok()?;
                        return Some(PartialHit {
                            value: Value::matrix(sum),
                            rewrite: "mm-t-rbind-pair",
                        });
                    }
                }
            }
        }
    }

    // (1) rbind(X,ΔX) %*% Y → rbind(X%*%Y, ΔX%*%Y)
    if a_lin.opcode() == op::RBIND {
        let [x, _dx] = a_lin.inputs() else {
            return None;
        };
        if let Some(xy) = peek_matrix(cache, &probe_mm(x, b_lin)) {
            let nx = xy.rows();
            if nx < av.rows() && xy.cols() == bv.cols() {
                let dxv = slice(av, nx, av.rows() - 1, 0, av.cols() - 1).ok()?;
                let comp = matmult(&dxv, bv).ok()?;
                let out = rbind(&xy, &comp).ok()?;
                return Some(PartialHit {
                    value: Value::matrix(out),
                    rewrite: "mm-rbind-left",
                });
            }
        }
    }

    // (2)/(3) X %*% cbind(Y,ΔY) → cbind(X%*%Y, X%*%ΔY | rowSums(X))
    if b_lin.opcode() == op::CBIND {
        let [y, dy] = b_lin.inputs() else { return None };
        if let Some(xy) = peek_matrix(cache, &probe_mm(a_lin, y)) {
            let ky = xy.cols();
            if ky < bv.cols() && xy.rows() == av.rows() {
                let comp = if is_const_col(dy, 1.0) && bv.cols() - ky == 1 {
                    row_agg(av, AggFn::Sum)
                } else {
                    let dyv = slice(bv, 0, bv.rows() - 1, ky, bv.cols() - 1).ok()?;
                    matmult(av, &dyv).ok()?
                };
                let out = cbind(&xy, &comp).ok()?;
                return Some(PartialHit {
                    value: Value::matrix(out),
                    rewrite: if is_const_col(dy, 1.0) {
                        "mm-cbind-ones"
                    } else {
                        "mm-cbind-right"
                    },
                });
            }
        }
    }

    // (4) X %*% (Y[,1:k]) → (X%*%Y)[,1:k]
    if b_lin.opcode() == op::RIGHT_INDEX {
        let [y] = b_lin.inputs() else { return None };
        let bounds: Vec<usize> = b_lin
            .data()?
            .split(' ')
            .filter_map(|s| s.parse().ok())
            .collect();
        let [rl, ru, cl, cu] = bounds[..] else {
            return None;
        };
        // Full row range required.
        let (y_rows, _) = y.shape()?;
        if rl == 0 && ru == y_rows - 1 {
            if let Some(xy) = peek_matrix(cache, &probe_mm(a_lin, y)) {
                if cu < xy.cols() {
                    let out = slice(&xy, 0, xy.rows() - 1, cl, cu).ok()?;
                    return Some(PartialHit {
                        value: Value::matrix(out),
                        rewrite: "mm-indexed-right",
                    });
                }
            }
        }
    }

    None
}

/// Rewrites 5–7: tsmm patterns (`dsyrk` in the paper's notation).
fn try_tsmm_rewrites(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    if item.data() != Some("LEFT") {
        return None;
    }
    let [c_lin] = item.inputs() else { return None };
    let cv = as_matrix(vals.first()?)?;

    // (5) tsmm(rbind(X,ΔX)) → tsmm(X) + tsmm(ΔX)
    if c_lin.opcode() == op::RBIND {
        let [x, _dx] = c_lin.inputs() else {
            return None;
        };
        if let Some(ts) = peek_matrix(cache, &probe_tsmm(x)) {
            let nx = x.shape().map(|(r, _)| r)?;
            if nx < cv.rows() && ts.cols() == cv.cols() {
                let dxv = slice(cv, nx, cv.rows() - 1, 0, cv.cols() - 1).ok()?;
                let comp = tsmm(&dxv, TsmmSide::Left).ok()?;
                let out = ew_matrix_matrix(BinOp::Add, &ts, &comp).ok()?;
                return Some(PartialHit {
                    value: Value::matrix(out),
                    rewrite: "tsmm-rbind",
                });
            }
        }
    }

    // (6)/(7) tsmm(cbind(X,ΔX)) → blocked assembly
    if c_lin.opcode() == op::CBIND {
        let [x, dx] = c_lin.inputs() else { return None };
        if let Some(ts) = peek_matrix(cache, &probe_tsmm(x)) {
            let kx = ts.cols();
            if kx >= cv.cols() {
                return None;
            }
            let xv = slice(cv, 0, cv.rows() - 1, 0, kx - 1).ok()?;
            if is_const_col(dx, 1.0) && cv.cols() - kx == 1 {
                // tsmm(cbind(X,1)) = [[XᵀX, colSums(X)ᵀ],[colSums(X), n]]
                let cs = col_agg(&xv, AggFn::Sum); // 1 × kx
                let cs_t = transpose(&cs); // kx × 1
                let n = DenseMatrix::filled(1, 1, cv.rows() as f64);
                let top = cbind(&ts, &cs_t).ok()?;
                let bottom = cbind(&cs, &n).ok()?;
                let out = rbind(&top, &bottom).ok()?;
                return Some(PartialHit {
                    value: Value::matrix(out),
                    rewrite: "tsmm-cbind-ones",
                });
            }
            let dxv = slice(cv, 0, cv.rows() - 1, kx, cv.cols() - 1).ok()?;
            let xtdx = matmult(&transpose(&xv), &dxv).ok()?;
            let dxtx = transpose(&xtdx);
            let dxtdx = tsmm(&dxv, TsmmSide::Left).ok()?;
            let top = cbind(&ts, &xtdx).ok()?;
            let bottom = cbind(&dxtx, &dxtdx).ok()?;
            let out = rbind(&top, &bottom).ok()?;
            return Some(PartialHit {
                value: Value::matrix(out),
                rewrite: "tsmm-cbind",
            });
        }
    }

    None
}

/// Rewrite 8: `cbind(X,ΔX) ⊙ cbind(Y,ΔY) → cbind(X⊙Y, ΔX⊙ΔY)`.
fn try_ew_cbind(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let bin = BinOp::from_opcode(item.opcode())?;
    let [a_lin, b_lin] = item.inputs() else {
        return None;
    };
    if a_lin.opcode() != op::CBIND || b_lin.opcode() != op::CBIND {
        return None;
    }
    let av = as_matrix(vals.first()?)?;
    let bv = as_matrix(vals.get(1)?)?;
    if av.shape() != bv.shape() {
        return None;
    }
    let [x, _dx] = a_lin.inputs() else {
        return None;
    };
    let [y, _dy] = b_lin.inputs() else {
        return None;
    };
    let probe = LineageItem::op(item.opcode_shared(), [x.clone(), y.clone()]);
    let head = peek_matrix(cache, &probe)?;
    let k = head.cols();
    // The splits must align for the rewrite to be sound.
    let kx = x.shape().map(|(_, c)| c)?;
    let ky = y.shape().map(|(_, c)| c)?;
    if kx != ky || kx != k || k >= av.cols() || head.rows() != av.rows() {
        return None;
    }
    let dxv = slice(av, 0, av.rows() - 1, k, av.cols() - 1).ok()?;
    let dyv = slice(bv, 0, bv.rows() - 1, k, bv.cols() - 1).ok()?;
    let comp = ew_matrix_matrix(bin, &dxv, &dyv).ok()?;
    let out = cbind(&head, &comp).ok()?;
    Some(PartialHit {
        value: Value::matrix(out),
        rewrite: "ew-cbind-pair",
    })
}

/// Rewrite 9: `colAgg(cbind(X,ΔX)) → cbind(colAgg(X), colAgg(ΔX))`.
/// Sound for sum/min/max/mean/sumsq/var — column aggregates are per-column.
fn try_colagg_cbind(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let fname = item.opcode().strip_prefix(op::COL_AGG_PREFIX)?;
    let f = AggFn::from_name(fname)?;
    let [c_lin] = item.inputs() else { return None };
    if c_lin.opcode() != op::CBIND {
        return None;
    }
    let cv = as_matrix(vals.first()?)?;
    let [x, _dx] = c_lin.inputs() else {
        return None;
    };
    let probe = LineageItem::op(item.opcode_shared(), [x.clone()]);
    let head = peek_matrix(cache, &probe)?;
    let k = head.cols();
    if k >= cv.cols() || head.rows() != 1 {
        return None;
    }
    let dxv = slice(cv, 0, cv.rows() - 1, k, cv.cols() - 1).ok()?;
    let comp = col_agg(&dxv, f);
    let out = cbind(&head, &comp).ok()?;
    Some(PartialHit {
        value: Value::matrix(out),
        rewrite: "colagg-cbind",
    })
}

/// Row-aggregate variant of rewrite 9 for `rbind`:
/// `rowAgg(rbind(X,ΔX)) → rbind(rowAgg(X), rowAgg(ΔX))`.
fn try_rowagg_rbind(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let fname = item.opcode().strip_prefix(op::ROW_AGG_PREFIX)?;
    let f = AggFn::from_name(fname)?;
    let [r_lin] = item.inputs() else { return None };
    if r_lin.opcode() != op::RBIND {
        return None;
    }
    let rv = as_matrix(vals.first()?)?;
    let [x, _dx] = r_lin.inputs() else {
        return None;
    };
    let probe = LineageItem::op(item.opcode_shared(), [x.clone()]);
    let head = peek_matrix(cache, &probe)?;
    let n = head.rows();
    if n >= rv.rows() || head.cols() != 1 {
        return None;
    }
    let dxv = slice(rv, n, rv.rows() - 1, 0, rv.cols() - 1).ok()?;
    let comp = agg::row_agg(&dxv, f);
    let out = rbind(&head, &comp).ok()?;
    Some(PartialHit {
        value: Value::matrix(out),
        rewrite: "rowagg-rbind",
    })
}

/// Rewrite 12: `t(cbind(X,ΔX)) → rbind(t(X), t(ΔX))` with cached `t(X)`.
fn try_transpose_cbind(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let [c_lin] = item.inputs() else { return None };
    if c_lin.opcode() != op::CBIND {
        return None;
    }
    let cv = as_matrix(vals.first()?)?;
    let [x, _dx] = c_lin.inputs() else {
        return None;
    };
    let head = peek_matrix(cache, &LineageItem::op(op::TRANSPOSE, [x.clone()]))?;
    let k = head.rows(); // t(X) is k × m
    if k >= cv.cols() || head.cols() != cv.rows() {
        return None;
    }
    let dxv = slice(cv, 0, cv.rows() - 1, k, cv.cols() - 1).ok()?;
    let out = rbind(&head, &transpose(&dxv)).ok()?;
    Some(PartialHit {
        value: Value::matrix(out),
        rewrite: "transpose-cbind",
    })
}

/// Rewrite 14: `rbind(X,ΔX) ⊙ rbind(Y,ΔY) → rbind(X⊙Y, ΔX⊙ΔY)`.
fn try_ew_rbind(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let bin = BinOp::from_opcode(item.opcode())?;
    let [a_lin, b_lin] = item.inputs() else {
        return None;
    };
    if a_lin.opcode() != op::RBIND || b_lin.opcode() != op::RBIND {
        return None;
    }
    let av = as_matrix(vals.first()?)?;
    let bv = as_matrix(vals.get(1)?)?;
    if av.shape() != bv.shape() {
        return None;
    }
    let [x, _dx] = a_lin.inputs() else {
        return None;
    };
    let [y, _dy] = b_lin.inputs() else {
        return None;
    };
    let probe = LineageItem::op(item.opcode_shared(), [x.clone(), y.clone()]);
    let head = peek_matrix(cache, &probe)?;
    let n = head.rows();
    let nx = x.shape().map(|(r, _)| r)?;
    let ny = y.shape().map(|(r, _)| r)?;
    if nx != ny || nx != n || n >= av.rows() || head.cols() != av.cols() {
        return None;
    }
    let dxv = slice(av, n, av.rows() - 1, 0, av.cols() - 1).ok()?;
    let dyv = slice(bv, n, bv.rows() - 1, 0, bv.cols() - 1).ok()?;
    let comp = ew_matrix_matrix(bin, &dxv, &dyv).ok()?;
    let out = rbind(&head, &comp).ok()?;
    Some(PartialHit {
        value: Value::matrix(out),
        rewrite: "ew-rbind-pair",
    })
}

/// Rewrite 13: decomposable full aggregates over concatenations —
/// `sum(cbind(X,ΔX)) = sum(X) + sum(ΔX)`, `min/max` via the combiner.
fn try_fullagg_concat(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    let fname = item.opcode().strip_prefix(op::FULL_AGG_PREFIX)?;
    let f = AggFn::from_name(fname)?;
    // Mean/variance do not decompose without cardinality bookkeeping.
    if !matches!(f, AggFn::Sum | AggFn::SumSq | AggFn::Min | AggFn::Max) {
        return None;
    }
    let [c_lin] = item.inputs() else { return None };
    let concat_cols = match c_lin.opcode() {
        o if o == op::CBIND => true,
        o if o == op::RBIND => false,
        _ => return None,
    };
    let cv = as_matrix(vals.first()?)?;
    let [x, _dx] = c_lin.inputs() else {
        return None;
    };
    let probe = LineageItem::op(item.opcode_shared(), [x.clone()]);
    let head = match cache.peek(&probe) {
        Some(Value::Scalar(s)) => s.as_f64().ok()?,
        _ => return None,
    };
    let (xr, xc) = x.shape()?;
    let delta = if concat_cols {
        if xr != cv.rows() || xc >= cv.cols() {
            return None;
        }
        slice(cv, 0, cv.rows() - 1, xc, cv.cols() - 1).ok()?
    } else {
        if xc != cv.cols() || xr >= cv.rows() {
            return None;
        }
        slice(cv, xr, cv.rows() - 1, 0, cv.cols() - 1).ok()?
    };
    let tail = agg::full_agg(&delta, f);
    let combined = match f {
        AggFn::Sum | AggFn::SumSq => head + tail,
        AggFn::Min => head.min(tail),
        AggFn::Max => head.max(tail),
        _ => unreachable!("filtered above"),
    };
    Some(PartialHit {
        value: Value::f64(combined),
        rewrite: "fullagg-concat",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LimaConfig;
    use std::sync::Arc;

    fn cache() -> Arc<LineageCache> {
        LineageCache::new(LimaConfig::default())
    }

    fn leaf(name: &str, rows: usize, cols: usize) -> LinRef {
        let l = LineageItem::op_with_data("read", name, vec![]);
        l.set_shape(rows, cols);
        l
    }

    fn mat(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| {
            (((i as u64 * 31 + j as u64 * 7 + salt) % 13) as f64) - 6.0
        })
    }

    #[test]
    fn mm_rbind_left_assembles_from_cached_head() {
        let c = cache();
        let (x, dx, y) = (leaf("X", 6, 4), leaf("dX", 2, 4), leaf("Y", 4, 3));
        let (xv, dxv, yv) = (mat(6, 4, 1), mat(2, 4, 2), mat(4, 3, 3));
        let xy = matmult(&xv, &yv).unwrap();
        c.put(&probe_mm(&x, &y), &Value::matrix(xy), 1_000);

        let rb = LineageItem::op(op::RBIND, vec![x, dx]);
        rb.set_shape(8, 4);
        let item = probe_mm(&rb, &y);
        let rv = rbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(rv.clone()), Value::matrix(yv.clone())],
        )
        .expect("rewrite fires");
        assert_eq!(hit.rewrite, "mm-rbind-left");
        let expect = matmult(&rv, &yv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
        assert_eq!(LimaStats::get(&c.stats().partial_hits), 1);
    }

    #[test]
    fn mm_cbind_right_and_ones_variant() {
        let c = cache();
        let (x, y) = (leaf("X", 5, 4), leaf("Y", 4, 3));
        let (xv, yv) = (mat(5, 4, 1), mat(4, 3, 2));
        let xy = matmult(&xv, &yv).unwrap();
        c.put(&probe_mm(&x, &y), &Value::matrix(xy), 1_000);

        // Generic ΔY.
        let dy = leaf("dY", 4, 2);
        let dyv = mat(4, 2, 3);
        let cb = LineageItem::op(op::CBIND, vec![y.clone(), dy]);
        let item = probe_mm(&x, &cb);
        let cv = cbind(&yv, &dyv).unwrap();
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(xv.clone()), Value::matrix(cv.clone())],
        )
        .expect("rewrite fires");
        assert_eq!(hit.rewrite, "mm-cbind-right");
        let expect = matmult(&xv, &cv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));

        // Ones variant: ΔY = matrix(1, 4, 1).
        let ones_lin = LineageItem::op_with_data(op::MATRIX_FILL, "1 4 1", vec![]);
        ones_lin.set_shape(4, 1);
        let cb1 = LineageItem::op(op::CBIND, vec![y.clone(), ones_lin]);
        let item = probe_mm(&x, &cb1);
        let ones = DenseMatrix::filled(4, 1, 1.0);
        let cv1 = cbind(&yv, &ones).unwrap();
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(xv.clone()), Value::matrix(cv1.clone())],
        )
        .expect("ones rewrite fires");
        assert_eq!(hit.rewrite, "mm-cbind-ones");
        let expect = matmult(&xv, &cv1).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn mm_indexed_right_slices_cached_product() {
        let c = cache();
        let (x, y) = (leaf("X", 5, 4), leaf("Y", 4, 6));
        let (xv, yv) = (mat(5, 4, 1), mat(4, 6, 2));
        let xy = matmult(&xv, &yv).unwrap();
        c.put(&probe_mm(&x, &y), &Value::matrix(xy.clone()), 1_000);

        let sl = LineageItem::op_with_data(op::RIGHT_INDEX, "0 3 0 2", vec![y.clone()]);
        let item = probe_mm(&x, &sl);
        let yk = slice(&yv, 0, 3, 0, 2).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(xv), Value::matrix(yk.clone())])
            .expect("rewrite fires");
        assert_eq!(hit.rewrite, "mm-indexed-right");
        let expect = slice(&xy, 0, 4, 0, 2).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn tsmm_rbind_adds_delta_gram() {
        let c = cache();
        let (x, dx) = (leaf("X", 6, 3), leaf("dX", 2, 3));
        let (xv, dxv) = (mat(6, 3, 1), mat(2, 3, 2));
        c.put(
            &probe_tsmm(&x),
            &Value::matrix(tsmm(&xv, TsmmSide::Left).unwrap()),
            1_000,
        );

        let rb = LineageItem::op(op::RBIND, vec![x, dx]);
        let item = probe_tsmm(&rb);
        let rv = rbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(rv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "tsmm-rbind");
        let expect = tsmm(&rv, TsmmSide::Left).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn tsmm_cbind_blocked_assembly() {
        let c = cache();
        let (x, dx) = (leaf("X", 8, 3), leaf("dX", 8, 2));
        let (xv, dxv) = (mat(8, 3, 1), mat(8, 2, 2));
        c.put(
            &probe_tsmm(&x),
            &Value::matrix(tsmm(&xv, TsmmSide::Left).unwrap()),
            1_000,
        );

        let cb = LineageItem::op(op::CBIND, vec![x, dx]);
        let item = probe_tsmm(&cb);
        let cv = cbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "tsmm-cbind");
        let expect = tsmm(&cv, TsmmSide::Left).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn tsmm_cbind_ones_uses_colsums_augmentation() {
        let c = cache();
        let x = leaf("X", 9, 4);
        let xv = mat(9, 4, 5);
        c.put(
            &probe_tsmm(&x),
            &Value::matrix(tsmm(&xv, TsmmSide::Left).unwrap()),
            1_000,
        );

        let ones_lin = LineageItem::op_with_data(op::MATRIX_FILL, "1 9 1", vec![]);
        ones_lin.set_shape(9, 1);
        let cb = LineageItem::op(op::CBIND, vec![x, ones_lin]);
        let item = probe_tsmm(&cb);
        let cv = cbind(&xv, &DenseMatrix::filled(9, 1, 1.0)).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "tsmm-cbind-ones");
        let expect = tsmm(&cv, TsmmSide::Left).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn ew_cbind_pair_splits_elementwise_ops() {
        let c = cache();
        let (x, y) = (leaf("X", 4, 3), leaf("Y", 4, 3));
        let (xv, yv) = (mat(4, 3, 1), mat(4, 3, 2));
        let head = ew_matrix_matrix(BinOp::Mul, &xv, &yv).unwrap();
        let probe = LineageItem::op("*", vec![x.clone(), y.clone()]);
        c.put(&probe, &Value::matrix(head), 1_000);

        let (dx, dy) = (leaf("dX", 4, 2), leaf("dY", 4, 2));
        let (dxv, dyv) = (mat(4, 2, 3), mat(4, 2, 4));
        let ca = LineageItem::op(op::CBIND, vec![x, dx]);
        let cb = LineageItem::op(op::CBIND, vec![y, dy]);
        let item = LineageItem::op("*", vec![ca, cb]);
        let av = cbind(&xv, &dxv).unwrap();
        let bv = cbind(&yv, &dyv).unwrap();
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(av.clone()), Value::matrix(bv.clone())],
        )
        .expect("fires");
        assert_eq!(hit.rewrite, "ew-cbind-pair");
        let expect = ew_matrix_matrix(BinOp::Mul, &av, &bv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn colagg_cbind_appends_delta_aggregate() {
        let c = cache();
        let x = leaf("X", 5, 3);
        let xv = mat(5, 3, 1);
        let probe = LineageItem::op(op::col_agg("sum"), vec![x.clone()]);
        c.put(&probe, &Value::matrix(col_agg(&xv, AggFn::Sum)), 1_000);

        let dx = leaf("dX", 5, 2);
        let dxv = mat(5, 2, 2);
        let cb = LineageItem::op(op::CBIND, vec![x, dx]);
        let item = LineageItem::op(op::col_agg("sum"), vec![cb]);
        let cv = cbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "colagg-cbind");
        let expect = col_agg(&cv, AggFn::Sum);
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn rowagg_rbind_appends_delta_aggregate() {
        let c = cache();
        let x = leaf("X", 4, 3);
        let xv = mat(4, 3, 1);
        let probe = LineageItem::op(op::row_agg("sum"), vec![x.clone()]);
        c.put(&probe, &Value::matrix(agg::row_agg(&xv, AggFn::Sum)), 1_000);

        let dx = leaf("dX", 2, 3);
        let dxv = mat(2, 3, 2);
        let rb = LineageItem::op(op::RBIND, vec![x, dx]);
        let item = LineageItem::op(op::row_agg("sum"), vec![rb]);
        let rv = rbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(rv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "rowagg-rbind");
        let expect = agg::row_agg(&rv, AggFn::Sum);
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn mm_t_rbind_pair_for_cross_validation() {
        let c = cache();
        let (xa, xb) = (leaf("Xa", 5, 3), leaf("Xb", 4, 3));
        let (ya, yb) = (leaf("ya", 5, 1), leaf("yb", 4, 1));
        let (xav, xbv) = (mat(5, 3, 1), mat(4, 3, 2));
        let (yav, ybv) = (mat(5, 1, 3), mat(4, 1, 4));
        let head = matmult(&transpose(&xav), &yav).unwrap();
        let probe = probe_mm(&LineageItem::op(op::TRANSPOSE, vec![xa.clone()]), &ya);
        c.put(&probe, &Value::matrix(head), 1_000);

        let rx = LineageItem::op(op::RBIND, vec![xa, xb]);
        let t = LineageItem::op(op::TRANSPOSE, vec![rx]);
        let ry = LineageItem::op(op::RBIND, vec![ya, yb]);
        let item = probe_mm(&t, &ry);
        let xv = rbind(&xav, &xbv).unwrap();
        let yv = rbind(&yav, &ybv).unwrap();
        let tv = transpose(&xv);
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(tv.clone()), Value::matrix(yv.clone())],
        )
        .expect("fires");
        assert_eq!(hit.rewrite, "mm-t-rbind-pair");
        let expect = matmult(&tv, &yv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn transpose_cbind_reuses_cached_transpose() {
        let c = cache();
        let x = leaf("X", 6, 3);
        let xv = mat(6, 3, 1);
        let probe = LineageItem::op(op::TRANSPOSE, vec![x.clone()]);
        c.put(&probe, &Value::matrix(transpose(&xv)), 1_000);

        let dx = leaf("dX", 6, 2);
        let dxv = mat(6, 2, 2);
        let cb = LineageItem::op(op::CBIND, vec![x, dx]);
        let item = LineageItem::op(op::TRANSPOSE, vec![cb]);
        let cv = cbind(&xv, &dxv).unwrap();
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())]).expect("fires");
        assert_eq!(hit.rewrite, "transpose-cbind");
        assert!(hit
            .value
            .as_matrix()
            .unwrap()
            .rel_eq(&transpose(&cv), 1e-12));
    }

    #[test]
    fn ew_rbind_pair_splits_elementwise_ops() {
        let c = cache();
        let (x, y) = (leaf("X", 3, 4), leaf("Y", 3, 4));
        let (xv, yv) = (mat(3, 4, 1), mat(3, 4, 2));
        let head = ew_matrix_matrix(BinOp::Add, &xv, &yv).unwrap();
        let probe = LineageItem::op("+", vec![x.clone(), y.clone()]);
        c.put(&probe, &Value::matrix(head), 1_000);

        let (dx, dy) = (leaf("dX", 2, 4), leaf("dY", 2, 4));
        let (dxv, dyv) = (mat(2, 4, 3), mat(2, 4, 4));
        let ra = LineageItem::op(op::RBIND, vec![x, dx]);
        let rb2 = LineageItem::op(op::RBIND, vec![y, dy]);
        let item = LineageItem::op("+", vec![ra, rb2]);
        let av = rbind(&xv, &dxv).unwrap();
        let bv = rbind(&yv, &dyv).unwrap();
        let hit = try_partial_reuse(
            &c,
            &item,
            &[Value::matrix(av.clone()), Value::matrix(bv.clone())],
        )
        .expect("fires");
        assert_eq!(hit.rewrite, "ew-rbind-pair");
        let expect = ew_matrix_matrix(BinOp::Add, &av, &bv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn fullagg_concat_combines_scalars() {
        let c = cache();
        let x = leaf("X", 4, 3);
        let xv = mat(4, 3, 1);
        for (fname, f) in [
            ("sum", AggFn::Sum),
            ("max", AggFn::Max),
            ("min", AggFn::Min),
        ] {
            let probe = LineageItem::op(op::full_agg(fname), vec![x.clone()]);
            c.put(&probe, &Value::f64(agg::full_agg(&xv, f)), 1_000);
        }
        let dx = leaf("dX", 4, 2);
        let dxv = mat(4, 2, 2);
        let cb = LineageItem::op(op::CBIND, vec![x.clone(), dx]);
        let cv = cbind(&xv, &dxv).unwrap();
        for (fname, f) in [
            ("sum", AggFn::Sum),
            ("max", AggFn::Max),
            ("min", AggFn::Min),
        ] {
            let item = LineageItem::op(op::full_agg(fname), vec![cb.clone()]);
            let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())])
                .unwrap_or_else(|| panic!("{fname} fires"));
            assert_eq!(hit.rewrite, "fullagg-concat");
            let expect = agg::full_agg(&cv, f);
            assert!((hit.value.as_f64().unwrap() - expect).abs() < 1e-9);
        }
        // Mean does not decompose: no rewrite.
        let item = LineageItem::op(op::full_agg("mean"), vec![cb]);
        assert!(try_partial_reuse(&c, &item, &[Value::matrix(cv)]).is_none());
    }

    #[test]
    fn no_rewrite_without_cached_component() {
        let c = cache();
        let (x, dx, y) = (leaf("X", 6, 4), leaf("dX", 2, 4), leaf("Y", 4, 3));
        let rb = LineageItem::op(op::RBIND, vec![x, dx]);
        let item = probe_mm(&rb, &y);
        let rv = mat(8, 4, 1);
        let yv = mat(4, 3, 2);
        assert!(try_partial_reuse(&c, &item, &[Value::matrix(rv), Value::matrix(yv)]).is_none());
    }

    #[test]
    fn partial_reuse_respects_config() {
        let cfg = LimaConfig {
            reuse: crate::config::ReuseMode::Full, // no partial
            ..LimaConfig::default()
        };
        let c = LineageCache::new(cfg);
        let (x, dx) = (leaf("X", 6, 3), leaf("dX", 2, 3));
        let xv = mat(6, 3, 1);
        c.put(
            &probe_tsmm(&x),
            &Value::matrix(tsmm(&xv, TsmmSide::Left).unwrap()),
            1_000,
        );
        let rb = LineageItem::op(op::RBIND, vec![x, dx]);
        let item = probe_tsmm(&rb);
        let rv = mat(8, 3, 1);
        assert!(try_partial_reuse(&c, &item, &[Value::matrix(rv)]).is_none());
    }
}
