//! Row-major dense `f64` matrix.

use crate::error::{MatrixError, Result};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "non-zero count not currently known".
const NNZ_UNKNOWN: u64 = u64::MAX;

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse data type of the LIMA reproduction. It is cheap to
/// share (`Arc<DenseMatrix>`), and all kernels treat inputs as immutable,
/// producing fresh outputs — the discipline the lineage cache depends on.
///
/// The non-zero count backing [`DenseMatrix::sparsity`] is cached: dense/
/// sparse kernel dispatch consults sparsity on every multiply, and a full
/// O(cells) rescan per call would dominate small GEMMs. The cache is
/// maintained incrementally by cell-level mutators and invalidated by bulk
/// mutable access; it never affects equality or the stored values.
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Cached count of non-zero cells; `NNZ_UNKNOWN` until first computed.
    nnz: AtomicU64,
}

impl Clone for DenseMatrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
            nnz: AtomicU64::new(self.nnz.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl DenseMatrix {
    /// Creates a matrix from a row-major buffer. The buffer length must be
    /// exactly `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidArgument(format!(
                "buffer length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self {
            rows,
            cols,
            data,
            nnz: AtomicU64::new(NNZ_UNKNOWN),
        })
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let cells = rows * cols;
        let nnz = if value != 0.0 { cells as u64 } else { 0 };
        Self {
            rows,
            cols,
            data: vec![value; cells],
            nnz: AtomicU64::new(nnz),
        }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a closure evaluated at each `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        let mut nnz = 0u64;
        for i in 0..rows {
            for j in 0..cols {
                let v = f(i, j);
                if v != 0.0 {
                    nnz += 1;
                }
                data.push(v);
            }
        }
        Self {
            rows,
            cols,
            data,
            nnz: AtomicU64::new(nnz),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Estimated in-memory size in bytes (used by the cache cost model).
    #[inline]
    pub fn size_in_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }

    /// Unchecked cell accessor (debug-asserted).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Mutable cell accessor for construction-time code. Maintains the cached
    /// non-zero count incrementally when it is known.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        let idx = row * self.cols + col;
        let old = self.data[idx];
        self.data[idx] = value;
        let nnz = self.nnz.get_mut();
        if *nnz != NNZ_UNKNOWN && (old != 0.0) != (value != 0.0) {
            if value != 0.0 {
                *nnz += 1;
            } else {
                *nnz -= 1;
            }
        }
    }

    /// Row-major view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major view (construction-time only). Invalidates the
    /// cached non-zero count: callers may rewrite arbitrary cells.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        *self.nnz.get_mut() = NNZ_UNKNOWN;
        &mut self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A single row as a mutable slice. Invalidates the cached non-zero count.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        *self.nnz.get_mut() = NNZ_UNKNOWN;
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Count of non-zero cells, cached after the first scan. Kernel dispatch
    /// consults this on every multiply, so repeated calls must be O(1): the
    /// count is maintained by [`DenseMatrix::set`] and invalidated by the
    /// bulk mutators ([`DenseMatrix::data_mut`] / [`DenseMatrix::row_mut`]).
    pub fn nnz(&self) -> usize {
        let cached = self.nnz.load(Ordering::Relaxed);
        if cached != NNZ_UNKNOWN {
            return cached as usize;
        }
        let counted = self.data.iter().filter(|v| **v != 0.0).count();
        self.nnz.store(counted as u64, Ordering::Relaxed);
        counted
    }

    /// True when the cached non-zero count is currently known (no scan would
    /// be needed to answer [`DenseMatrix::sparsity`]). Exposed for dispatch
    /// tests; not part of the numeric contract.
    pub fn nnz_is_cached(&self) -> bool {
        self.nnz.load(Ordering::Relaxed) != NNZ_UNKNOWN
    }

    /// Fraction of non-zero cells; drives sparse-vs-dense cost estimates.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / self.data.len() as f64
    }

    /// True when both shapes and all cells match within `tol` absolutely.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }

    /// Relative comparison used by tests on larger aggregates: each cell must
    /// match within `tol * max(1, |a|, |b|)`.
    pub fn rel_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= tol * scale || (a.is_nan() && b.is_nan())
            })
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4} ", self.get(i, j))?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_buffer_length() {
        assert!(DenseMatrix::new(2, 3, vec![0.0; 6]).is_ok());
        assert!(DenseMatrix::new(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i3 = DenseMatrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn sparsity_counts_nonzeros() {
        let m = DenseMatrix::new(1, 4, vec![0.0, 1.0, 0.0, 2.0]).unwrap();
        assert_eq!(m.sparsity(), 0.5);
        assert_eq!(DenseMatrix::zeros(0, 0).sparsity(), 0.0);
    }

    #[test]
    fn nnz_cache_tracks_set_mutations() {
        let mut m = DenseMatrix::zeros(3, 3);
        assert!(m.nnz_is_cached());
        assert_eq!(m.nnz(), 0);
        m.set(0, 0, 2.0);
        m.set(1, 1, 3.0);
        assert_eq!(m.nnz(), 2);
        m.set(0, 0, 0.0);
        assert_eq!(m.nnz(), 1);
        m.set(1, 1, 5.0); // nonzero -> nonzero: count unchanged
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.sparsity(), 1.0 / 9.0);
    }

    #[test]
    fn nnz_cache_invalidated_by_bulk_mutators() {
        let mut m = DenseMatrix::zeros(2, 2);
        assert_eq!(m.nnz(), 0);
        m.data_mut()[0] = 7.0;
        assert!(!m.nnz_is_cached());
        assert_eq!(m.nnz(), 1); // recomputed lazily, then cached again
        assert!(m.nnz_is_cached());
        m.row_mut(1)[0] = 1.0;
        assert!(!m.nnz_is_cached());
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn nnz_cache_survives_clone_and_ignores_eq() {
        let mut m = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        assert_eq!(m.nnz(), 3);
        let c = m.clone();
        assert!(c.nnz_is_cached());
        assert_eq!(c.nnz(), 3);
        // Equality compares values only, regardless of cache state.
        m.data_mut();
        assert!(!m.nnz_is_cached());
        assert_eq!(m, c);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = DenseMatrix::new(1, 2, vec![1.0, 2.0]).unwrap();
        let b = DenseMatrix::new(1, 2, vec![1.0 + 1e-12, 2.0]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        let c = DenseMatrix::zeros(2, 1);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn size_in_bytes_scales_with_cells() {
        let small = DenseMatrix::zeros(2, 2);
        let big = DenseMatrix::zeros(20, 20);
        assert!(big.size_in_bytes() > small.size_in_bytes());
    }
}
