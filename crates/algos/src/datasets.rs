//! Synthetic dataset generators for the pipelines, examples and tests.

use lima_matrix::ops::matmult;
use lima_matrix::rand_gen::{rand_matrix, RandDist};
use lima_matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense regression data: `X ~ U[0,1)`, `y = X·w + ε`.
pub fn synthetic_regression(n: usize, d: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let x = rand_matrix(n, d, RandDist::Uniform { min: 0.0, max: 1.0 }, 1.0, seed)
        .expect("valid params");
    let w = rand_matrix(
        d,
        1,
        RandDist::Normal {
            mean: 0.0,
            std: 1.0,
        },
        1.0,
        seed ^ 0xabc,
    )
    .expect("valid params");
    let noise = rand_matrix(
        n,
        1,
        RandDist::Normal {
            mean: 0.0,
            std: 0.1,
        },
        1.0,
        seed ^ 0xdef,
    )
    .expect("valid params");
    let mut y = matmult(&x, &w).expect("shapes agree");
    for (yi, ni) in y.data_mut().iter_mut().zip(noise.data()) {
        *yi += ni;
    }
    (x, y)
}

/// Dense classification data with labels `1..=classes` (cluster means per
/// class so the problem is learnable).
pub fn synthetic_classification(
    n: usize,
    d: usize,
    classes: usize,
    seed: u64,
) -> (DenseMatrix, DenseMatrix) {
    assert!(classes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let means = rand_matrix(
        classes,
        d,
        RandDist::Uniform {
            min: -1.0,
            max: 1.0,
        },
        1.0,
        seed ^ 0x77,
    )
    .expect("valid params");
    let mut x = DenseMatrix::zeros(n, d);
    let mut y = DenseMatrix::zeros(n, 1);
    for i in 0..n {
        let c = rng.gen_range(0..classes);
        y.set(i, 0, (c + 1) as f64);
        for j in 0..d {
            let noise: f64 = rng.gen::<f64>() - 0.5;
            x.set(i, j, means.get(c, j) + 0.5 * noise);
        }
    }
    (x, y)
}

/// Non-negative classification data (counts-like), for naive Bayes.
pub fn synthetic_counts(
    n: usize,
    d: usize,
    classes: usize,
    seed: u64,
) -> (DenseMatrix, DenseMatrix) {
    let (x, y) = synthetic_classification(n, d, classes, seed);
    let xn = DenseMatrix::from_fn(n, d, |i, j| (x.get(i, j) + 2.0).max(0.0));
    (xn, y)
}

/// Binary labels in −1/+1 for L2SVM.
pub fn to_svm_labels(y: &DenseMatrix, positive_class: f64) -> DenseMatrix {
    DenseMatrix::from_fn(y.rows(), 1, |i, _| {
        if y.get(i, 0) == positive_class {
            1.0
        } else {
            -1.0
        }
    })
}

/// A sparse row-stochastic-ish link matrix for PageRank.
pub fn synthetic_graph(n: usize, out_degree: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DenseMatrix::zeros(n, n);
    for j in 0..n {
        for _ in 0..out_degree {
            let i = rng.gen_range(0..n);
            g.set(i, j, 1.0 / out_degree as f64);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_data_is_learnable() {
        let (x, y) = synthetic_regression(200, 5, 42);
        assert_eq!(x.shape(), (200, 5));
        assert_eq!(y.shape(), (200, 1));
        // Solve normal equations; residual must be small (noise 0.1).
        let xtx = lima_matrix::ops::tsmm(&x, lima_matrix::ops::TsmmSide::Left).unwrap();
        let xty = matmult(&lima_matrix::ops::transpose(&x), &y).unwrap();
        let b = lima_matrix::ops::solve(&xtx, &xty).unwrap();
        let yhat = matmult(&x, &b).unwrap();
        let sse: f64 = yhat
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(sse / 200.0 < 0.05, "mse {}", sse / 200.0);
    }

    #[test]
    fn classification_labels_are_in_range() {
        let (x, y) = synthetic_classification(100, 4, 3, 7);
        assert_eq!(x.shape(), (100, 4));
        assert!(y.data().iter().all(|&v| (1.0..=3.0).contains(&v)));
        // All classes present (100 draws over 3 classes).
        for c in 1..=3 {
            assert!(y.data().contains(&(c as f64)));
        }
    }

    #[test]
    fn counts_are_non_negative() {
        let (x, _) = synthetic_counts(50, 6, 2, 3);
        assert!(x.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn svm_labels_are_plus_minus_one() {
        let y = DenseMatrix::new(4, 1, vec![1.0, 2.0, 1.0, 2.0]).unwrap();
        let s = to_svm_labels(&y, 2.0);
        assert_eq!(s.data(), &[-1.0, 1.0, -1.0, 1.0]);
    }

    #[test]
    fn graph_columns_sum_to_at_most_one() {
        let g = synthetic_graph(20, 3, 5);
        for j in 0..20 {
            let s: f64 = (0..20).map(|i| g.get(i, j)).sum();
            assert!(s <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let (a, _) = synthetic_regression(20, 3, 1);
        let (b, _) = synthetic_regression(20, 3, 1);
        let (c, _) = synthetic_regression(20, 3, 2);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }
}
