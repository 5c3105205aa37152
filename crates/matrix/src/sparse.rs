//! Compressed-sparse-row matrix, used for graph workloads (PageRank in the
//! paper's deduplication example operates on a sparse link matrix).

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// A CSR sparse `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Converts a dense matrix into CSR form.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(d.rows() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..d.rows() {
            for (j, &v) in d.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: d.rows(),
            cols: d.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.set(r, self.col_idx[k], self.values[k]);
            }
        }
        out
    }

    /// Sparse-matrix × dense-matrix product.
    pub fn matmult_dense(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows() {
            let lhs = (self.rows, self.cols);
            return Err(MatrixError::mismatch("spmm", lhs, b.shape()));
        }
        let n = b.cols();
        let mut out = DenseMatrix::zeros(self.rows, n);
        for r in 0..self.rows {
            let orow = out.row_mut(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let v = self.values[k];
                let brow = b.row(self.col_idx[k]);
                for j in 0..n {
                    orow[j] += v * brow[j];
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmult::matmult;

    #[test]
    fn dense_round_trips_through_csr() {
        let mut d = DenseMatrix::zeros(3, 3);
        for (r, c, v) in [(0, 1, 2.0), (2, 0, 5.0), (1, 1, -1.0)] {
            d.set(r, c, v);
        }
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn spmm_matches_dense_matmult() {
        let d = DenseMatrix::from_fn(6, 5, |i, j| {
            if (i + j) % 3 == 0 {
                (i + 1) as f64
            } else {
                0.0
            }
        });
        let sp = CsrMatrix::from_dense(&d);
        let b = DenseMatrix::from_fn(5, 4, |i, j| (i * 4 + j) as f64 * 0.5);
        let got = sp.matmult_dense(&b).unwrap();
        let expect = matmult(&d, &b).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
        assert!(sp.matmult_dense(&DenseMatrix::zeros(4, 4)).is_err());
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut d = DenseMatrix::zeros(4, 2);
        d.set(3, 1, 7.0);
        let m = CsrMatrix::from_dense(&d);
        let d = m.to_dense();
        assert_eq!(d.get(3, 1), 7.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 2);
    }
}
