//! Partial-reuse rewrites (paper §4.2).
//!
//! When a full-reuse probe misses, LIMA pattern-matches the *about-to-execute*
//! lineage item against a list of source→target rewrites. If a component of
//! the target pattern is found in the cache, the output is assembled from the
//! cached intermediate plus an inexpensive compensation computed with the
//! matrix kernels (semantically the paper's "compile and execute actual
//! runtime instructions").
//!
//! Implemented meta-rewrites, keeping the numbers of the earlier, longer list:
//!
//! 2.  `X %*% cbind(Y,ΔY)            → cbind(X%*%Y, X%*%ΔY)`
//! 3.  `X %*% cbind(Y,1)             → cbind(X%*%Y, rowSums(X))` (variant of 2)
//! 6.  `tsmm(cbind(X,ΔX))            → [[tsmm(X), XᵀΔX],[ΔXᵀX, tsmm(ΔX)]]`
//! 7.  `tsmm(cbind(X,1))             → augment with colSums(X), nrow(X)` (variant of 6)
//! 10. `t(rbind(Xa,Xb)) %*% rbind(Ya,Yb) → t(Xa)%*%Ya + t(Xb)%*%Yb`
//!
//! 6 and 7 are what stepLm's `tsmm(cbind(X, Y[,i]))` (Fig 7(a)) and the
//! intercept column of `lm` hit; 2, 3 and 10 serve a product whose left
//! operand is the fused `t(A)`, which hands them the value of `A`: their
//! compensations read it as `t(A)` without making it. The others of the set
//! (`rbind` products, indexing push-down, `tsmm(rbind)`, element-wise and
//! aggregate splits) fired on no benchmark workload and no `lima-algos`
//! pipeline, and were removed. 3 and 7 give the bits of the instruction they
//! replace (for finite values; 3's `rowSums` keeps the sign of a row of
//! `-0.0`s, the product's does not), and so does 2; 6 and 10 reassociate a
//! sum.
//!
//! Shapes needed to size the compensations come from the shape metadata the
//! runtime registers on lineage items, or from cached component shapes.

use crate::cache::LineageCache;
use crate::lineage::item::{LinRef, LineageItem};
use crate::opcodes as op;
use crate::stats::LimaStats;
use lima_matrix::ops::{
    cbind, ew_matrix_matrix, matmult, matmult_tn, rbind, row_agg, slice, transpose, tsmm,
    tsmm_block_rows, AggFn, BinOp, TsmmSide,
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
/// values are `input_values` (same order as `item.inputs()`), except that
/// with `fused_t` the item is `ba+*(r'(A), B)` computed without `t(A)` and
/// the first value is `A`. The caller times a rewrite that fires
/// (`compensation_ns`) from the clock reading its miss started with, which
/// also times the kernel when none fires.
pub fn try_partial_reuse(
    cache: &LineageCache,
    item: &LinRef,
    input_values: &[Value],
    fused_t: bool,
) -> Option<PartialHit> {
    if !cache.partial_reuse() {
        return None;
    }
    let hit = dispatch(cache, item, input_values, fused_t)?;
    LimaStats::bump(&cache.stats().partial_hits);
    Some(hit)
}

fn dispatch(
    cache: &LineageCache,
    item: &LinRef,
    vals: &[Value],
    fused_t: bool,
) -> Option<PartialHit> {
    match item.opcode() {
        op::MATMULT => try_mm_rewrites(cache, item, vals, fused_t),
        op::TSMM => try_tsmm_rewrites(cache, item, vals),
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

/// The left operand of a product: its value, or with `.1` (the fused
/// `t(A) %*% B`) the value of `A`, so that `t(A)` is never made. Each
/// compensation gives the same bits either way.
struct Left<'a>(&'a DenseMatrix, bool);

impl Left<'_> {
    fn shape(&self) -> (usize, usize) {
        let (m, n) = self.0.shape();
        if self.1 {
            (n, m)
        } else {
            (m, n)
        }
    }

    fn times(&self, b: &DenseMatrix) -> Option<DenseMatrix> {
        let product = if self.1 { matmult_tn } else { matmult };
        product(self.0, b).ok()
    }

    /// `rowSums`; of `t(A)` the column sums of `A`, each one chain in
    /// ascending rows from `-0.0`, where `row_agg`'s sum starts.
    fn row_sums(&self) -> DenseMatrix {
        if !self.1 {
            return row_agg(self.0, AggFn::Sum);
        }
        let mut sums = vec![-0.0; self.0.cols()];
        for i in 0..self.0.rows() {
            sums.iter_mut()
                .zip(self.0.row(i))
                .for_each(|(s, v)| *s += v);
        }
        DenseMatrix::from_fn(sums.len(), 1, |j, _| sums[j])
    }
}

/// Rewrites 2, 3 and 10: matrix-multiply patterns.
fn try_mm_rewrites(
    cache: &LineageCache,
    item: &LinRef,
    vals: &[Value],
    fused_t: bool,
) -> Option<PartialHit> {
    let [a_lin, b_lin] = item.inputs() else {
        return None;
    };
    let av = as_matrix(vals.first()?)?;
    let bv = as_matrix(vals.get(1)?)?;
    let left = Left(av, fused_t);

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
                    if na < bv.rows() && na < left.shape().1 {
                        // The left operand is t(rbind(Xa,Xb)), k × (na+nb):
                        // its tail is t(Xb), or Xb's rows of rbind(Xa,Xb).
                        let (m, n) = av.shape();
                        let tail = match fused_t {
                            true => slice(av, na, m - 1, 0, n - 1),
                            false => slice(av, 0, m - 1, na, n - 1),
                        };
                        let y_tail = slice(bv, na, bv.rows() - 1, 0, bv.cols() - 1).ok()?;
                        let comp = Left(&tail.ok()?, fused_t).times(&y_tail)?;
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

    // (2)/(3) X %*% cbind(Y,ΔY) → cbind(X%*%Y, X%*%ΔY | rowSums(X))
    if b_lin.opcode() == op::CBIND {
        let [y, dy] = b_lin.inputs() else { return None };
        if let Some(xy) = peek_matrix(cache, &probe_mm(a_lin, y)) {
            let ky = xy.cols();
            if ky < bv.cols() && xy.rows() == left.shape().0 {
                let comp = if is_const_col(dy, 1.0) && bv.cols() - ky == 1 {
                    left.row_sums()
                } else {
                    let dyv = slice(bv, 0, bv.rows() - 1, ky, bv.cols() - 1).ok()?;
                    left.times(&dyv)?
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

    None
}

/// Rewrites 6 and 7: tsmm patterns (`dsyrk` in the paper's notation).
fn try_tsmm_rewrites(cache: &LineageCache, item: &LinRef, vals: &[Value]) -> Option<PartialHit> {
    if item.data() != Some("LEFT") {
        return None;
    }
    let [c_lin] = item.inputs() else { return None };
    let cv = as_matrix(vals.first()?)?;

    // (6)/(7) tsmm(cbind(X,ΔX)) → blocked assembly
    if c_lin.opcode() == op::CBIND {
        let [x, dx] = c_lin.inputs() else { return None };
        if let Some(ts) = peek_matrix(cache, &probe_tsmm(x)) {
            let kx = ts.cols();
            if kx >= cv.cols() {
                return None;
            }
            let m = cv.rows();
            if is_const_col(dx, 1.0) && cv.cols() - kx == 1 {
                // tsmm(cbind(X,1)) = [[XᵀX, colSums(X)ᵀ],[colSums(X), n]],
                // with tsmm's bits: the column sums are summed in its row
                // blocks, each from zero, folded in block order, and XᵀX is
                // reused only where its blocks are the same.
                let rows = tsmm_block_rows(m, kx + 1);
                if rows != tsmm_block_rows(m, kx) {
                    return None;
                }
                let mut sums = vec![0.0; kx];
                for r0 in (0..m).step_by(rows) {
                    let mut part = vec![0.0; kx];
                    for r in r0..(r0 + rows).min(m) {
                        part.iter_mut().zip(cv.row(r)).for_each(|(p, v)| *p += v);
                    }
                    sums.iter_mut().zip(part).for_each(|(s, p)| *s += p);
                }
                let cs = DenseMatrix::from_fn(1, kx, |_, j| sums[j]);
                let cs_t = transpose(&cs); // kx × 1
                let n = DenseMatrix::filled(1, 1, m as f64);
                let top = cbind(&ts, &cs_t).ok()?;
                let bottom = cbind(&cs, &n).ok()?;
                let out = rbind(&top, &bottom).ok()?;
                return Some(PartialHit {
                    value: Value::matrix(out),
                    rewrite: "tsmm-cbind-ones",
                });
            }
            let xv = slice(cv, 0, m - 1, 0, kx - 1).ok()?;
            let dxv = slice(cv, 0, m - 1, kx, cv.cols() - 1).ok()?;
            let xtdx = matmult_tn(&xv, &dxv).ok()?;
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
            false,
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
            false,
        )
        .expect("ones rewrite fires");
        assert_eq!(hit.rewrite, "mm-cbind-ones");
        let expect = matmult(&xv, &cv1).unwrap();
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
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())], false).expect("fires");
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
        let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())], false).expect("fires");
        assert_eq!(hit.rewrite, "tsmm-cbind-ones");
        let expect = tsmm(&cv, TsmmSide::Left).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    /// Rewrite 7 keeps `tsmm`'s bits: its column sums run in `tsmm`'s row
    /// blocks, and where `XᵀX` and `tsmm(cbind(X,1))` are cut into different
    /// blocks it does not fire.
    #[test]
    fn tsmm_cbind_ones_keeps_tsmm_bits_across_row_blocks() {
        for (m, k, fires) in [(5_000, 4, true), (700, 4, true), (600, 256, false)] {
            let c = cache();
            let x = leaf("X", m, k);
            let xv =
                DenseMatrix::from_fn(m, k, |i, j| ((i * 37 + j * 11) % 101) as f64 * 0.013 - 0.6);
            let ts = tsmm(&xv, TsmmSide::Left).unwrap();
            c.put(&probe_tsmm(&x), &Value::matrix(ts), 1_000);
            let ones_lin = LineageItem::op_with_data(op::MATRIX_FILL, format!("1 {m} 1"), vec![]);
            ones_lin.set_shape(m, 1);
            let item = probe_tsmm(&LineageItem::op(op::CBIND, vec![x, ones_lin]));
            let cv = cbind(&xv, &DenseMatrix::filled(m, 1, 1.0)).unwrap();
            let hit = try_partial_reuse(&c, &item, &[Value::matrix(cv.clone())], false);
            assert_eq!(hit.is_some(), fires, "{m}x{k}");
            if let Some(hit) = hit {
                let want = tsmm(&cv, TsmmSide::Left).unwrap();
                assert_bits(hit.value.as_matrix().unwrap(), &want, &format!("{m}x{k}"));
            }
        }
    }

    fn assert_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        let same = got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: bits differ");
    }

    /// A fused `t(A) %*% B` hands rewrites 2, 3 and 10 the value of `A`, not
    /// of `t(A)`: each gives the bits it gives on the unfused operands, for a
    /// dense and a sparse `A` and a column of `-0.0` (the sign `rowSums`
    /// keeps).
    #[test]
    fn fused_left_operand_gives_the_unfused_bits() {
        for (m, p, density) in [(9usize, 5usize, 1.0), (80, 70, 0.05)] {
            let av = DenseMatrix::from_fn(m, p, |i, j| match (i * 7 + j * 3) % 100 {
                _ if j == 1 => -0.0,
                r if (r as f64) < density * 100.0 => r as f64 * 0.37 - 9.0,
                _ => 0.0,
            });
            let tv = transpose(&av);
            let a = leaf("A", m, p);
            let at = LineageItem::op(op::TRANSPOSE, vec![a.clone()]);
            at.set_shape(p, m);
            let both = |c: &LineageCache, item: &LinRef, b: &DenseMatrix, name: &str| {
                let unfused = [Value::matrix(tv.clone()), Value::matrix(b.clone())];
                let fused = [Value::matrix(av.clone()), Value::matrix(b.clone())];
                let want = try_partial_reuse(c, item, &unfused, false).expect("unfused fires");
                let got = try_partial_reuse(c, item, &fused, true).expect("fused fires");
                assert_eq!((got.rewrite, want.rewrite), (name, name));
                let what = format!("{name} with A {m}x{p}");
                assert_bits(
                    got.value.as_matrix().unwrap(),
                    want.value.as_matrix().unwrap(),
                    &what,
                );
            };

            // (2) and (3): t(A) %*% cbind(Y, dY | 1).
            let c = cache();
            let (y, yv) = (leaf("Y", m, 3), mat(m, 3, 2));
            c.put(
                &probe_mm(&at, &y),
                &Value::matrix(matmult(&tv, &yv).unwrap()),
                1_000,
            );
            let (dy, dyv) = (leaf("dY", m, 2), mat(m, 2, 3));
            let item = probe_mm(&at, &LineageItem::op(op::CBIND, vec![y.clone(), dy]));
            both(&c, &item, &cbind(&yv, &dyv).unwrap(), "mm-cbind-right");
            let ones = LineageItem::op_with_data(op::MATRIX_FILL, format!("1 {m} 1"), vec![]);
            ones.set_shape(m, 1);
            let item = probe_mm(&at, &LineageItem::op(op::CBIND, vec![y, ones]));
            let cv1 = cbind(&yv, &DenseMatrix::filled(m, 1, 1.0)).unwrap();
            both(&c, &item, &cv1, "mm-cbind-ones");

            // (10): t(rbind(Xa, Xb)) %*% rbind(ya, yb), with A = rbind(Xa, Xb).
            let c = cache();
            let na = m / 2;
            let (xa, ya) = (leaf("Xa", na, p), leaf("ya", na, 1));
            let yv = mat(m, 1, 4);
            let xav = slice(&av, 0, na - 1, 0, p - 1).unwrap();
            let yav = slice(&yv, 0, na - 1, 0, 0).unwrap();
            let head = matmult(&transpose(&xav), &yav).unwrap();
            let xat = LineageItem::op(op::TRANSPOSE, vec![xa.clone()]);
            c.put(&probe_mm(&xat, &ya), &Value::matrix(head), 1_000);
            let rx = LineageItem::op(op::RBIND, vec![xa, leaf("Xb", m - na, p)]);
            let ry = LineageItem::op(op::RBIND, vec![ya, leaf("yb", m - na, 1)]);
            let item = probe_mm(&LineageItem::op(op::TRANSPOSE, vec![rx]), &ry);
            both(&c, &item, &yv, "mm-t-rbind-pair");
        }
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
            false,
        )
        .expect("fires");
        assert_eq!(hit.rewrite, "mm-t-rbind-pair");
        let expect = matmult(&tv, &yv).unwrap();
        assert!(hit.value.as_matrix().unwrap().rel_eq(&expect, 1e-12));
    }

    #[test]
    fn no_rewrite_without_cached_component() {
        let c = cache();
        let (x, y, dy) = (leaf("X", 5, 4), leaf("Y", 4, 3), leaf("dY", 4, 2));
        let item = probe_mm(&x, &LineageItem::op(op::CBIND, vec![y, dy]));
        let (xv, cv) = (mat(5, 4, 1), mat(4, 5, 2));
        assert!(
            try_partial_reuse(&c, &item, &[Value::matrix(xv), Value::matrix(cv)], false).is_none()
        );
    }

    #[test]
    fn partial_reuse_respects_config() {
        let cfg = LimaConfig {
            reuse: crate::config::ReuseMode::Full, // no partial
            ..LimaConfig::default()
        };
        let c = LineageCache::new(cfg);
        let (x, dx) = (leaf("X", 6, 3), leaf("dX", 6, 2));
        let xv = mat(6, 3, 1);
        c.put(
            &probe_tsmm(&x),
            &Value::matrix(tsmm(&xv, TsmmSide::Left).unwrap()),
            1_000,
        );
        let item = probe_tsmm(&LineageItem::op(op::CBIND, vec![x, dx]));
        let cv = cbind(&xv, &mat(6, 2, 2)).unwrap();
        assert!(try_partial_reuse(&c, &item, &[Value::matrix(cv)], false).is_none());
    }
}
