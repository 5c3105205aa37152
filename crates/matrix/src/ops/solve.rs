//! Dense direct solvers: Cholesky for SPD systems (the `solve(A, b)` in
//! `lmDS`), with a partially-pivoted LU fallback for general square systems.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Solves `A X = B` for square `A`. Tries Cholesky first (the common case in
/// the paper's workloads where `A = XᵀX + λI` is SPD), falling back to LU
/// with partial pivoting.
pub fn solve(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != a.cols() {
        return Err(MatrixError::mismatch("solve", a.shape(), b.shape()));
    }
    if a.rows() != b.rows() {
        return Err(MatrixError::mismatch("solve", a.shape(), b.shape()));
    }
    match cholesky(a) {
        Ok(l) => cholesky_solve(&l, b),
        Err(_) => lu_solve(a, b),
    }
}

/// Computes the lower Cholesky factor `L` with `A = L Lᵀ`. Fails if `A` is
/// not (numerically) symmetric positive definite.
pub fn cholesky(a: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    if n != a.cols() {
        return Err(MatrixError::mismatch("cholesky", a.shape(), a.shape()));
    }
    let mut l = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return Err(MatrixError::Singular("cholesky"));
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `L Lᵀ X = B` given the Cholesky factor `L`.
pub fn cholesky_solve(l: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    let n = l.rows();
    let k = b.cols();
    let mut x = b.clone();
    // Forward substitution: L Y = B.
    for col in 0..k {
        for i in 0..n {
            let mut s = x.get(i, col);
            for j in 0..i {
                s -= l.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s / l.get(i, i));
        }
        // Backward substitution: Lᵀ X = Y.
        for i in (0..n).rev() {
            let mut s = x.get(i, col);
            for j in (i + 1)..n {
                s -= l.get(j, i) * x.get(j, col);
            }
            x.set(i, col, s / l.get(i, i));
        }
    }
    Ok(x)
}

/// Solves `A X = B` by LU decomposition with partial pivoting.
pub fn lu_solve(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    for col in 0..n {
        // Pivot selection.
        let mut pivot = col;
        let mut max = lu.get(col, col).abs();
        for r in (col + 1)..n {
            let v = lu.get(r, col).abs();
            if v > max {
                max = v;
                pivot = r;
            }
        }
        if max < 1e-300 {
            return Err(MatrixError::Singular("lu"));
        }
        if pivot != col {
            piv.swap(pivot, col);
            for c in 0..n {
                let tmp = lu.get(col, c);
                lu.set(col, c, lu.get(pivot, c));
                lu.set(pivot, c, tmp);
            }
        }
        let d = lu.get(col, col);
        for r in (col + 1)..n {
            let f = lu.get(r, col) / d;
            lu.set(r, col, f);
            for c in (col + 1)..n {
                lu.set(r, c, lu.get(r, c) - f * lu.get(col, c));
            }
        }
    }
    // Apply permutation to B, then forward/backward substitute.
    let k = b.cols();
    let mut x = DenseMatrix::from_fn(n, k, |i, j| b.get(piv[i], j));
    for col in 0..k {
        for i in 0..n {
            let mut s = x.get(i, col);
            for j in 0..i {
                s -= lu.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s);
        }
        for i in (0..n).rev() {
            let mut s = x.get(i, col);
            for j in (i + 1)..n {
                s -= lu.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s / lu.get(i, i));
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmult::matmult;

    /// Residual norm `‖A X − B‖_F`.
    fn residual_norm(a: &DenseMatrix, x: &DenseMatrix, b: &DenseMatrix) -> Result<f64> {
        let ax = matmult(a, x)?;
        let squares = ax
            .data()
            .iter()
            .zip(b.data())
            .map(|(p, q)| (p - q) * (p - q));
        Ok(squares.sum::<f64>().sqrt())
    }

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::new(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn cholesky_solve_spd_system() {
        // A = [[4,2],[2,3]] is SPD.
        let a = m(2, 2, &[4.0, 2.0, 2.0, 3.0]);
        let b = m(2, 1, &[8.0, 7.0]);
        let x = solve(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b).unwrap() < 1e-10);
    }

    #[test]
    fn lu_fallback_for_indefinite_system() {
        // Symmetric but indefinite → Cholesky fails, LU succeeds.
        let a = m(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let b = m(2, 1, &[3.0, 5.0]);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&m(2, 1, &[5.0, 3.0]), 1e-12));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = m(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let b = m(2, 1, &[1.0, 2.0]);
        assert!(matches!(solve(&a, &b), Err(MatrixError::Singular(_))));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 1, &[0.0; 2]);
        assert!(solve(&a, &b).is_err());
        let a = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = m(3, 1, &[0.0; 3]);
        assert!(solve(&a, &b).is_err());
    }

    #[test]
    fn multi_rhs_solve() {
        let a = m(3, 3, &[5.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 3.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let x = solve(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b).unwrap() < 1e-10);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = m(3, 3, &[4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        let inv = solve(&a, &DenseMatrix::identity(3)).unwrap();
        let prod = matmult(&a, &inv).unwrap();
        assert!(prod.approx_eq(&DenseMatrix::identity(3), 1e-10));
    }

    #[test]
    fn larger_random_spd_system() {
        // Build an SPD matrix A = M Mᵀ + n·I and check the residual.
        let n = 24;
        let mmat = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let mt = crate::ops::matmult::transpose(&mmat);
        let mut a = matmult(&mmat, &mt).unwrap();
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        let b = DenseMatrix::from_fn(n, 1, |i, _| (i % 5) as f64 - 2.0);
        let x = solve(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b).unwrap() < 1e-8);
    }
}
