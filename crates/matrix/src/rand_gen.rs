//! Seeded random matrix generation and sampling.
//!
//! These are the non-deterministic "basic randomized operations like `rand`
//! or `sample`" from the paper (§1). The LIMA runtime generates a *system
//! seed* for each invocation and records it in the lineage item, which is what
//! makes the trace deterministic and reusable.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution for [`rand_matrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RandDist {
    /// Uniform in `[min, max)`.
    Uniform { min: f64, max: f64 },
    /// Gaussian with the given mean and standard deviation (Box–Muller).
    Normal { mean: f64, std: f64 },
}

/// Generates a `rows × cols` random matrix from `seed`. A `sparsity` in
/// `(0, 1]` zeroes cells with probability `1 - sparsity`, matching DML's
/// `rand(..., sparsity=s)`.
pub fn rand_matrix(
    rows: usize,
    cols: usize,
    dist: RandDist,
    sparsity: f64,
    seed: u64,
) -> Result<DenseMatrix> {
    if !(0.0..=1.0).contains(&sparsity) {
        return Err(MatrixError::invalid(format!(
            "sparsity {sparsity} not in [0,1]"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows * cols);
    match dist {
        RandDist::Uniform { min, max } => {
            if max < min {
                return Err(MatrixError::invalid(format!(
                    "uniform bounds inverted: [{min}, {max})"
                )));
            }
            for _ in 0..rows * cols {
                let keep = sparsity >= 1.0 || rng.gen::<f64>() < sparsity;
                let v = if keep {
                    if max > min {
                        rng.gen::<f64>() * (max - min) + min
                    } else {
                        min
                    }
                } else {
                    0.0
                };
                data.push(v);
            }
        }
        RandDist::Normal { mean, std } => {
            // Box–Muller transform; draws pairs but we consume singly for
            // simplicity (generation cost is irrelevant to the benchmarks).
            for _ in 0..rows * cols {
                let keep = sparsity >= 1.0 || rng.gen::<f64>() < sparsity;
                let v = if keep {
                    let u1: f64 = rng.gen::<f64>().max(1e-300);
                    let u2: f64 = rng.gen();
                    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                } else {
                    0.0
                };
                data.push(v);
            }
        }
    }
    DenseMatrix::new(rows, cols, data)
}

/// `sample(range, size)`: draws `size` distinct values from `1..=range`
/// (without replacement), as a column vector — DML's `sample`.
pub fn sample_without_replacement(range: usize, size: usize, seed: u64) -> Result<DenseMatrix> {
    if size > range {
        return Err(MatrixError::invalid(format!(
            "sample: size {size} exceeds range {range}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Partial Fisher–Yates: only the first `size` positions are needed.
    let mut pool: Vec<usize> = (1..=range).collect();
    for i in 0..size {
        let j = rng.gen_range(i..range);
        pool.swap(i, j);
    }
    Ok(DenseMatrix::from_fn(size, 1, |i, _| pool[i] as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = rand_matrix(4, 5, RandDist::Uniform { min: 0.0, max: 1.0 }, 1.0, 42).unwrap();
        let b = rand_matrix(4, 5, RandDist::Uniform { min: 0.0, max: 1.0 }, 1.0, 42).unwrap();
        let c = rand_matrix(4, 5, RandDist::Uniform { min: 0.0, max: 1.0 }, 1.0, 43).unwrap();
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn uniform_respects_bounds() {
        let a = rand_matrix(10, 10, RandDist::Uniform { min: 2.0, max: 3.0 }, 1.0, 7).unwrap();
        assert!(a.data().iter().all(|&v| (2.0..3.0).contains(&v)));
        // Degenerate bounds produce the constant.
        let c = rand_matrix(2, 2, RandDist::Uniform { min: 5.0, max: 5.0 }, 1.0, 7).unwrap();
        assert!(c.data().iter().all(|&v| v == 5.0));
        assert!(rand_matrix(1, 1, RandDist::Uniform { min: 1.0, max: 0.0 }, 1.0, 0).is_err());
    }

    #[test]
    fn normal_has_plausible_moments() {
        let a = rand_matrix(
            200,
            50,
            RandDist::Normal {
                mean: 3.0,
                std: 2.0,
            },
            1.0,
            99,
        )
        .unwrap();
        let mean = a.data().iter().sum::<f64>() / a.len() as f64;
        let var = a
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / a.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn sparsity_zeroes_roughly_the_right_fraction() {
        let a = rand_matrix(100, 100, RandDist::Uniform { min: 1.0, max: 2.0 }, 0.3, 5).unwrap();
        let nnz = a.data().iter().filter(|v| **v != 0.0).count() as f64 / 10_000.0;
        assert!((nnz - 0.3).abs() < 0.03, "observed sparsity {nnz}");
        assert!(rand_matrix(1, 1, RandDist::Uniform { min: 0.0, max: 1.0 }, 1.5, 0).is_err());
    }

    #[test]
    fn sample_draws_distinct_values_in_range() {
        let s = sample_without_replacement(100, 15, 11).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &v in s.data() {
            assert!((1.0..=100.0).contains(&v) && v.fract() == 0.0);
            assert!(seen.insert(v as i64), "duplicate {v}");
        }
        assert!(sample_without_replacement(5, 6, 0).is_err());
    }

    #[test]
    fn permutation_covers_all_values() {
        let p = sample_without_replacement(50, 50, 3).unwrap();
        let mut vals: Vec<i64> = p.data().iter().map(|v| *v as i64).collect();
        vals.sort_unstable();
        assert_eq!(vals, (1..=50).collect::<Vec<i64>>());
    }
}
