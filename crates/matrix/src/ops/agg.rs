//! Full, row-wise, and column-wise aggregates.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Aggregate function codes shared by full/row/col aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    Sum,
    Mean,
    Min,
    Max,
    SumSq,
    Var,
}

impl AggFn {
    /// Opcode fragment used in lineage items (`uack+`, `uacmin`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Sum => "sum",
            AggFn::Mean => "mean",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::SumSq => "sumsq",
            AggFn::Var => "var",
        }
    }

    /// Parses the aggregate name back.
    pub fn from_name(s: &str) -> Option<Self> {
        use AggFn::*;
        [Sum, Mean, Min, Max, SumSq, Var]
            .into_iter()
            .find(|f| f.name() == s)
    }
}

fn fold(values: impl Iterator<Item = f64>, f: AggFn, n: usize) -> f64 {
    match f {
        AggFn::Sum => values.sum(),
        AggFn::Mean => {
            if n == 0 {
                f64::NAN
            } else {
                values.sum::<f64>() / n as f64
            }
        }
        AggFn::Min => values.fold(f64::INFINITY, f64::min),
        AggFn::Max => values.fold(f64::NEG_INFINITY, f64::max),
        AggFn::SumSq => values.map(|v| v * v).sum(),
        AggFn::Var => {
            // Two-pass sample variance over a collected buffer.
            let buf: Vec<f64> = values.collect();
            if buf.len() < 2 {
                return 0.0;
            }
            let mean = buf.iter().sum::<f64>() / buf.len() as f64;
            buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (buf.len() - 1) as f64
        }
    }
}

/// Full aggregate over all cells, producing a scalar.
pub fn full_agg(a: &DenseMatrix, f: AggFn) -> f64 {
    fold(a.data().iter().copied(), f, a.len())
}

/// Streams the rows of `a` through one accumulator per column, starting at
/// `init`: each column's terms arrive in ascending row order, as `fold`
/// takes them.
fn col_pass(a: &DenseMatrix, init: f64, step: impl Fn(f64, f64, usize) -> f64) -> Vec<f64> {
    let mut acc = vec![init; a.cols()];
    for i in 0..a.rows() {
        for (j, (s, &v)) in acc.iter_mut().zip(a.row(i)).enumerate() {
            *s = step(*s, v, j);
        }
    }
    acc
}

/// Column aggregate, producing a `1 × cols` row vector.
pub fn col_agg(a: &DenseMatrix, f: AggFn) -> DenseMatrix {
    let (m, n) = a.shape();
    let sums = || col_pass(a, 0.0, |s, v, _| s + v);
    let acc = match f {
        AggFn::Sum => sums(),
        AggFn::Mean => sums().iter().map(|s| s / m.max(1) as f64).collect(),
        AggFn::SumSq => col_pass(a, 0.0, |s, v, _| s + v * v),
        AggFn::Min => col_pass(a, f64::INFINITY, |s, v, _| s.min(v)),
        AggFn::Max => col_pass(a, f64::NEG_INFINITY, |s, v, _| s.max(v)),
        AggFn::Var if m < 2 => vec![0.0; n],
        AggFn::Var => {
            let mean: Vec<f64> = sums().iter().map(|s| s / m as f64).collect();
            let squares = col_pass(a, 0.0, |s, v, j| s + (v - mean[j]) * (v - mean[j]));
            squares.iter().map(|s| s / (m - 1) as f64).collect()
        }
    };
    DenseMatrix::new(1, n, acc).expect("shape")
}

/// Row aggregate, producing a `rows × 1` column vector.
pub fn row_agg(a: &DenseMatrix, f: AggFn) -> DenseMatrix {
    let (m, n) = a.shape();
    DenseMatrix::from_fn(m, 1, |i, _| fold(a.row(i).iter().copied(), f, n))
}

/// `rowMaxs`-style index variant: per-row argmax as a 1-based index column
/// (SystemDS `rowIndexMax`).
pub fn row_index_max(a: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() == 0 {
        return Err(MatrixError::invalid("rowIndexMax of empty matrix"));
    }
    Ok(DenseMatrix::from_fn(a.rows(), 1, |i, _| {
        let row = a.row(i);
        let mut best = 0usize;
        for (j, v) in row.iter().enumerate() {
            if *v > row[best] {
                best = j;
            }
        }
        (best + 1) as f64
    }))
}

/// Trace of a square matrix.
pub fn trace(a: &DenseMatrix) -> Result<f64> {
    if a.rows() != a.cols() {
        return Err(MatrixError::mismatch("trace", a.shape(), a.shape()));
    }
    Ok((0..a.rows()).map(|i| a.get(i, i)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::new(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn full_aggregates() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(full_agg(&a, AggFn::Sum), 21.0);
        assert_eq!(full_agg(&a, AggFn::Mean), 3.5);
        assert_eq!(full_agg(&a, AggFn::Min), 1.0);
        assert_eq!(full_agg(&a, AggFn::Max), 6.0);
        assert_eq!(full_agg(&a, AggFn::SumSq), 91.0);
        assert!((full_agg(&a, AggFn::Var) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn col_aggregates() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(col_agg(&a, AggFn::Sum).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(col_agg(&a, AggFn::Mean).data(), &[2.5, 3.5, 4.5]);
        assert_eq!(col_agg(&a, AggFn::Max).data(), &[4.0, 5.0, 6.0]);
        assert_eq!(col_agg(&a, AggFn::Min).data(), &[1.0, 2.0, 3.0]);
        assert_eq!(col_agg(&a, AggFn::SumSq).data(), &[17.0, 29.0, 45.0]);
    }

    #[test]
    fn streamed_column_aggregates_equal_a_fold_per_column_bit_for_bit() {
        for rows in [0usize, 1, 2, 3, 37] {
            let a = DenseMatrix::from_fn(rows, 5, |i, j| match (i * 7 + j * 3) % 11 {
                0 => -0.0,
                k => (k as f64 - 5.5) * 1.37e-3 * (i + 1) as f64,
            });
            for f in [AggFn::Min, AggFn::Max, AggFn::Var] {
                let column = |j: usize| fold((0..rows).map(|i| a.get(i, j)), f, rows);
                let want: Vec<u64> = (0..5).map(|j| column(j).to_bits()).collect();
                let got: Vec<u64> = col_agg(&a, f).data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{f:?} over {rows} rows");
            }
        }
    }

    #[test]
    fn row_aggregates() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(row_agg(&a, AggFn::Sum).data(), &[6.0, 15.0]);
        assert_eq!(row_agg(&a, AggFn::Min).data(), &[1.0, 4.0]);
        assert_eq!(row_agg(&a, AggFn::Mean).data(), &[2.0, 5.0]);
    }

    #[test]
    fn row_index_max_is_one_based() {
        let a = m(2, 3, &[1.0, 9.0, 3.0, 7.0, 5.0, 6.0]);
        let idx = row_index_max(&a).unwrap();
        assert_eq!(idx.data(), &[2.0, 1.0]);
        assert!(row_index_max(&DenseMatrix::zeros(2, 0)).is_err());
    }

    #[test]
    fn trace_requires_square() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(trace(&a).unwrap(), 5.0);
        assert!(trace(&m(1, 2, &[1.0, 2.0])).is_err());
    }

    #[test]
    fn variance_of_constant_rows_is_zero() {
        let a = m(3, 1, &[2.0, 2.0, 2.0]);
        assert_eq!(full_agg(&a, AggFn::Var), 0.0);
        assert_eq!(col_agg(&a, AggFn::Var).data(), &[0.0]);
    }

    #[test]
    fn agg_fn_names_round_trip() {
        for f in [
            AggFn::Sum,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::SumSq,
            AggFn::Var,
        ] {
            assert_eq!(AggFn::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFn::from_name("bogus"), None);
    }
}
