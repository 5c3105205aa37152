//! Reorganisation kernels: cbind/rbind, slicing, diag, table, seq, order.
//!
//! These operators are central to LIMA's *partial reuse* rewrites (paper §4.2),
//! which all revolve around `rbind`, `cbind`, and right-indexing.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::ops::matmult::{fill_rows, kernel_threads, Split, PAR_CELLS};
use std::mem::MaybeUninit;

/// The copy kernels' driver: every output cell is written once, without a
/// zero-fill first, on the pool from [`PAR_CELLS`] cells on. A copy is
/// bit-exact whoever writes which row.
fn copy_rows(
    shape: (usize, usize),
    fill: impl Fn(&mut [MaybeUninit<f64>], usize) + Sync,
) -> Result<DenseMatrix> {
    let parallel = shape.0 * shape.1 >= PAR_CELLS;
    fill_rows(shape, parallel, &Split::Threads(kernel_threads()), fill)
}

/// Horizontal concatenation `cbind(A, B)`.
pub fn cbind(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        return Err(MatrixError::mismatch("cbind", a.shape(), b.shape()));
    }
    let (na, n) = (a.cols(), a.cols() + b.cols());
    copy_rows((a.rows(), n), |panel, row0| {
        for (i, row) in panel.chunks_exact_mut(n).enumerate() {
            let (left, right) = row.split_at_mut(na);
            left.write_copy_of_slice(a.row(row0 + i));
            right.write_copy_of_slice(b.row(row0 + i));
        }
    })
}

/// Vertical concatenation `rbind(A, B)`.
pub fn rbind(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.cols() {
        return Err(MatrixError::mismatch("rbind", a.shape(), b.shape()));
    }
    let (a_cells, n) = (a.len(), a.cols());
    copy_rows((a.rows() + b.rows(), n), |panel, row0| {
        // The panel's cells `c0..c0 + len` of the output: those below
        // `a_cells` come from A, the rest from B.
        let c0 = row0 * n;
        let (top, bottom) = panel.split_at_mut(a_cells.saturating_sub(c0).min(panel.len()));
        top.write_copy_of_slice(&a.data()[c0.min(a_cells)..][..top.len()]);
        let b0 = (c0 + top.len()).saturating_sub(a_cells);
        bottom.write_copy_of_slice(&b.data()[b0..b0 + bottom.len()]);
    })
}

/// Right-indexing `X[rl:ru, cl:cu]` with *inclusive*, 0-based bounds
/// (the language front-end converts from 1-based script indices).
pub fn slice(a: &DenseMatrix, rl: usize, ru: usize, cl: usize, cu: usize) -> Result<DenseMatrix> {
    if ru >= a.rows() || rl > ru {
        return Err(MatrixError::out_of_bounds("rightIndex", ru, a.rows()));
    }
    if cu >= a.cols() || cl > cu {
        return Err(MatrixError::out_of_bounds("rightIndex", cu, a.cols()));
    }
    let n = cu - cl + 1;
    copy_rows((ru - rl + 1, n), |panel, row0| {
        if n == a.cols() {
            // Whole rows: one contiguous run of A.
            let c0 = (rl + row0) * n;
            panel.write_copy_of_slice(&a.data()[c0..c0 + panel.len()]);
            return;
        }
        for (i, row) in panel.chunks_exact_mut(n).enumerate() {
            row.write_copy_of_slice(&a.row(rl + row0 + i)[cl..=cu]);
        }
    })
}

/// Column projection by an explicit 0-based column index list
/// (`X[, s]` with a vector of column positions, as in Example 1's `sample`).
pub fn select_cols(a: &DenseMatrix, cols: &[usize]) -> Result<DenseMatrix> {
    if let Some(&c) = cols.iter().find(|&&c| c >= a.cols()) {
        return Err(MatrixError::out_of_bounds("selectCols", c, a.cols()));
    }
    copy_rows((a.rows(), cols.len()), |panel, row0| {
        for (i, row) in panel.chunks_exact_mut(cols.len()).enumerate() {
            let src = a.row(row0 + i);
            for (cell, &c) in row.iter_mut().zip(cols) {
                cell.write(src[c]);
            }
        }
    })
}

/// Row projection by an explicit 0-based row index list.
pub fn select_rows(a: &DenseMatrix, rows: &[usize]) -> Result<DenseMatrix> {
    if let Some(&r) = rows.iter().find(|&&r| r >= a.rows()) {
        return Err(MatrixError::out_of_bounds("selectRows", r, a.rows()));
    }
    let n = a.cols();
    copy_rows((rows.len(), n), |panel, row0| {
        for (row, &r) in panel.chunks_exact_mut(n).zip(&rows[row0..]) {
            row.write_copy_of_slice(a.row(r));
        }
    })
}

/// Left-indexing `X[rl:ru, cl:cu] = S`: returns a fresh matrix with the
/// sub-block replaced (inputs stay immutable, preserving lineage semantics).
pub fn left_index(a: &DenseMatrix, s: &DenseMatrix, rl: usize, cl: usize) -> Result<DenseMatrix> {
    if rl + s.rows() > a.rows() || cl + s.cols() > a.cols() {
        return Err(MatrixError::mismatch("leftIndex", a.shape(), s.shape()));
    }
    let mut out = a.clone();
    for i in 0..s.rows() {
        let dst = &mut out.row_mut(rl + i)[cl..cl + s.cols()];
        dst.copy_from_slice(s.row(i));
    }
    Ok(out)
}

/// `diag(V)`: a column vector becomes a diagonal matrix; a square matrix
/// yields its diagonal as a column vector (R semantics used by `lmDS`).
pub fn diag(a: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() == 1 {
        let n = a.rows();
        let mut out = DenseMatrix::zeros(n, n);
        for i in 0..n {
            out.set(i, i, a.get(i, 0));
        }
        Ok(out)
    } else if a.rows() == a.cols() {
        Ok(DenseMatrix::from_fn(a.rows(), 1, |i, _| a.get(i, i)))
    } else {
        Err(MatrixError::mismatch("rdiag", a.shape(), a.shape()))
    }
}

/// `seq(from, to, by)` as a column vector.
pub fn seq(from: f64, to: f64, by: f64) -> Result<DenseMatrix> {
    if by == 0.0 {
        return Err(MatrixError::invalid("seq step must be nonzero"));
    }
    let n = if (by > 0.0 && from > to) || (by < 0.0 && from < to) {
        0
    } else {
        ((to - from) / by).floor() as usize + 1
    };
    Ok(DenseMatrix::from_fn(n, 1, |i, _| from + by * i as f64))
}

/// General 2-arg `table(a, b)` contingency matrix: counts co-occurrences of
/// the (1-based, integral) codes in `a` and `b`. Used by one-hot encoding.
pub fn table2(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.shape() != b.shape() || a.cols() != 1 {
        return Err(MatrixError::mismatch("table", a.shape(), b.shape()));
    }
    let to_idx = |v: f64, what: &str| -> Result<usize> {
        if v < 1.0 || v.fract() != 0.0 {
            return Err(MatrixError::invalid(format!(
                "table: {what} value {v} is not a positive integer"
            )));
        }
        Ok(v as usize)
    };
    let mut max_a = 0usize;
    let mut max_b = 0usize;
    for i in 0..a.rows() {
        max_a = max_a.max(to_idx(a.get(i, 0), "row")?);
        max_b = max_b.max(to_idx(b.get(i, 0), "col")?);
    }
    let mut out = DenseMatrix::zeros(max_a, max_b);
    for i in 0..a.rows() {
        let r = a.get(i, 0) as usize - 1;
        let c = b.get(i, 0) as usize - 1;
        out.set(r, c, out.get(r, c) + 1.0);
    }
    Ok(out)
}

/// Sort order of a column vector. Returns the 1-based permutation indices
/// (`order(V, decreasing, index.return=TRUE)` in DML).
pub fn order_index(v: &DenseMatrix, decreasing: bool) -> Result<DenseMatrix> {
    if v.cols() != 1 {
        return Err(MatrixError::invalid("order: expected a column vector"));
    }
    let mut idx: Vec<usize> = (0..v.rows()).collect();
    idx.sort_by(|&a, &b| {
        let (x, y) = (v.get(a, 0), v.get(b, 0));
        let ord = x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
        if decreasing {
            ord.reverse()
        } else {
            ord
        }
    });
    Ok(DenseMatrix::from_fn(v.rows(), 1, |i, _| {
        (idx[i] + 1) as f64
    }))
}

/// Reverses the rows of a matrix (`rev`).
pub fn rev(a: &DenseMatrix) -> DenseMatrix {
    let m = a.rows();
    DenseMatrix::from_fn(m, a.cols(), |i, j| a.get(m - 1 - i, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::new(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn cbind_concatenates_columns() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let c = cbind(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        assert!(cbind(&a, &m(3, 1, &[0.0; 3])).is_err());
    }

    #[test]
    fn rbind_concatenates_rows() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = rbind(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(rbind(&a, &m(1, 3, &[0.0; 3])).is_err());
    }

    #[test]
    fn slice_is_inclusive() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = slice(&a, 1, 2, 1, 3).unwrap();
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.data(), &[5.0, 6.0, 7.0, 9.0, 10.0, 11.0]);
        assert!(slice(&a, 0, 4, 0, 0).is_err());
        assert!(slice(&a, 2, 1, 0, 0).is_err());
    }

    #[test]
    fn select_cols_projects_in_order() {
        let a = DenseMatrix::from_fn(2, 4, |i, j| (i * 10 + j) as f64);
        let s = select_cols(&a, &[3, 0]).unwrap();
        assert_eq!(s.data(), &[3.0, 0.0, 13.0, 10.0]);
        assert!(select_cols(&a, &[4]).is_err());
    }

    #[test]
    fn select_rows_projects_in_order() {
        let a = DenseMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        let s = select_rows(&a, &[2, 0]).unwrap();
        assert_eq!(s.data(), &[20.0, 21.0, 0.0, 1.0]);
        assert!(select_rows(&a, &[3]).is_err());
    }

    #[test]
    fn left_index_replaces_block_immutably() {
        let a = DenseMatrix::zeros(3, 3);
        let s = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let out = left_index(&a, &s, 1, 1).unwrap();
        assert_eq!(out.get(1, 1), 1.0);
        assert_eq!(out.get(2, 2), 4.0);
        assert_eq!(a.get(1, 1), 0.0); // original untouched
        assert!(left_index(&a, &s, 2, 2).is_err());
    }

    #[test]
    fn diag_both_directions() {
        let v = m(3, 1, &[1.0, 2.0, 3.0]);
        let d = diag(&v).unwrap();
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let back = diag(&d).unwrap();
        assert_eq!(back.data(), v.data());
        assert!(diag(&m(2, 3, &[0.0; 6])).is_err());
    }

    #[test]
    fn seq_generates_inclusive_ranges() {
        assert_eq!(
            seq(1.0, 5.0, 1.0).unwrap().data(),
            &[1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(seq(5.0, 1.0, -2.0).unwrap().data(), &[5.0, 3.0, 1.0]);
        assert_eq!(seq(1.0, 0.0, 1.0).unwrap().rows(), 0);
        assert!(seq(0.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn table2_counts_cooccurrences() {
        let a = m(4, 1, &[1.0, 2.0, 1.0, 2.0]);
        let b = m(4, 1, &[1.0, 1.0, 2.0, 1.0]);
        let t = table2(&a, &b).unwrap();
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.get(1, 1), 0.0);
        assert!(table2(&a, &m(1, 1, &[1.0])).is_err());
    }

    #[test]
    fn order_index_sorts_both_ways() {
        let v = m(4, 1, &[3.0, 1.0, 4.0, 2.0]);
        assert_eq!(
            order_index(&v, false).unwrap().data(),
            &[2.0, 4.0, 1.0, 3.0]
        );
        assert_eq!(order_index(&v, true).unwrap().data(), &[3.0, 1.0, 4.0, 2.0]);
        assert!(order_index(&m(1, 2, &[0.0, 0.0]), false).is_err());
    }

    #[test]
    fn rev_reverses_rows() {
        let a = m(3, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(rev(&a).data(), &[3.0, 2.0, 1.0]);
    }
}
