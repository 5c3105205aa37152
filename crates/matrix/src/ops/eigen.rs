//! Symmetric eigen decomposition via the cyclic Jacobi method.
//!
//! PCA in the paper (`[evals, evects] = eigen(C)`) operates on covariance
//! matrices, which are symmetric — Jacobi is simple, robust, and accurate for
//! the moderate dimensionalities used in the evaluation.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Result of a symmetric eigen decomposition.
#[derive(Debug, Clone)]
pub struct EigenResult {
    /// Eigenvalues as an `n × 1` column vector (unsorted, matching `evects`).
    pub values: DenseMatrix,
    /// Eigenvectors as columns of an `n × n` matrix.
    pub vectors: DenseMatrix,
}

/// Computes the eigen decomposition of a symmetric matrix with the cyclic
/// Jacobi method. The input must be square and (numerically) symmetric.
pub fn eigen_symmetric(a: &DenseMatrix) -> Result<EigenResult> {
    let n = a.rows();
    if n != a.cols() {
        return Err(MatrixError::mismatch("eigen", a.shape(), a.shape()));
    }
    // Verify symmetry within a loose tolerance relative to the matrix scale.
    let scale = a.data().iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a.get(i, j) - a.get(j, i)).abs() > 1e-8 * scale {
                return Err(MatrixError::invalid("eigen: matrix is not symmetric"));
            }
        }
    }

    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    const MAX_SWEEPS: usize = 64;
    for _ in 0..MAX_SWEEPS {
        let off: f64 = {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m.get(i, j) * m.get(i, j);
                }
            }
            s
        };
        if off.sqrt() <= 1e-12 * scale {
            let values = DenseMatrix::from_fn(n, 1, |i, _| m.get(i, i));
            return Ok(EigenResult { values, vectors: v });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) on both sides of M and
                // accumulate it into V.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(MatrixError::NoConvergence("eigen"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmult::{matmult, transpose};

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let a = DenseMatrix::new(2, 2, vec![3.0, 0.0, 0.0, 7.0]).unwrap();
        let r = eigen_symmetric(&a).unwrap();
        let mut vals: Vec<f64> = r.values.data().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_av_equals_v_lambda() {
        // Symmetric test matrix.
        let a =
            DenseMatrix::new(3, 3, vec![2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]).unwrap();
        let r = eigen_symmetric(&a).unwrap();
        let av = matmult(&a, &r.vectors).unwrap();
        // V·diag(λ)
        let vl = DenseMatrix::from_fn(3, 3, |i, j| r.vectors.get(i, j) * r.values.get(j, 0));
        assert!(av.approx_eq(&vl, 1e-9));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = DenseMatrix::new(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 0.25, 0.1, 0.5, 0.25, 5.0, 0.3, 0.0, 0.1, 0.3, 2.0,
            ],
        )
        .unwrap();
        let r = eigen_symmetric(&a).unwrap();
        let vtv = matmult(&transpose(&r.vectors), &r.vectors).unwrap();
        assert!(vtv.approx_eq(&DenseMatrix::identity(4), 1e-9));
    }

    #[test]
    fn asymmetric_matrix_is_rejected() {
        let a = DenseMatrix::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(eigen_symmetric(&a).is_err());
        let a = DenseMatrix::new(1, 2, vec![1.0, 2.0]).unwrap();
        assert!(eigen_symmetric(&a).is_err());
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = DenseMatrix::new(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let r = eigen_symmetric(&a).unwrap();
        let mut vals: Vec<f64> = r.values.data().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn moderately_sized_covariance_matrix() {
        // Gram matrix of a random-ish tall matrix is symmetric PSD.
        let x = DenseMatrix::from_fn(50, 12, |i, j| ((i * 13 + j * 29) % 23) as f64 / 23.0 - 0.5);
        let g = crate::ops::matmult::tsmm(&x, crate::ops::matmult::TsmmSide::Left).unwrap();
        let r = eigen_symmetric(&g).unwrap();
        // All eigenvalues of a PSD matrix are >= 0 (numerically).
        for &v in r.values.data() {
            assert!(v > -1e-9);
        }
        // A V = V diag(λ)
        let av = matmult(&g, &r.vectors).unwrap();
        let vl = DenseMatrix::from_fn(12, 12, |i, j| r.vectors.get(i, j) * r.values.get(j, 0));
        assert!(av.rel_eq(&vl, 1e-7));
    }
}
