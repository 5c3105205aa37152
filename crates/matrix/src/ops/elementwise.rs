//! Cell-wise binary, scalar, and unary operators.
//!
//! Binary operators support full matrix-matrix application plus the
//! row/column-vector broadcasting SystemDS scripts rely on (e.g. `X - colMeans(X)`).

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};

/// Cell-wise binary operator codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Max,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// SystemDS-style opcode string, used in lineage items.
    pub fn opcode(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Eq => "==",
            BinOp::Neq => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&",
            BinOp::Or => "|",
        }
    }

    /// Parses the opcode string back into an operator.
    pub fn from_opcode(op: &str) -> Option<Self> {
        use BinOp::*;
        let all = [
            Add, Sub, Mul, Div, Pow, Min, Max, Eq, Neq, Lt, Le, Gt, Ge, And, Or,
        ];
        all.into_iter().find(|b| b.opcode() == op)
    }

    /// Applies the operator to a pair of scalars.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            // `x*x` is the correctly rounded square at a twentieth of the
            // cost of `powf`, which may miss it by an ulp and differs between
            // libms (SystemDS rewrites `X^2` the same way).
            BinOp::Pow if b == 2.0 => a * a,
            BinOp::Pow => a.powf(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Eq => f64::from(a == b),
            BinOp::Neq => f64::from(a != b),
            BinOp::Lt => f64::from(a < b),
            BinOp::Le => f64::from(a <= b),
            BinOp::Gt => f64::from(a > b),
            BinOp::Ge => f64::from(a >= b),
            BinOp::And => f64::from(a != 0.0 && b != 0.0),
            BinOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }
}

/// Cell-wise unary operator codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Abs,
    Exp,
    Log,
    Sqrt,
    Round,
    Floor,
    Ceil,
    Sign,
    Sigmoid,
    Not,
}

impl UnOp {
    /// SystemDS-style opcode string, used in lineage items.
    pub fn opcode(self) -> &'static str {
        match self {
            UnOp::Neg => "uneg",
            UnOp::Abs => "abs",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sqrt => "sqrt",
            UnOp::Round => "round",
            UnOp::Floor => "floor",
            UnOp::Ceil => "ceil",
            UnOp::Sign => "sign",
            UnOp::Sigmoid => "sigmoid",
            UnOp::Not => "!",
        }
    }

    /// Parses the opcode string back into an operator.
    pub fn from_opcode(op: &str) -> Option<Self> {
        use UnOp::*;
        let all = [
            Neg, Abs, Exp, Log, Sqrt, Round, Floor, Ceil, Sign, Sigmoid, Not,
        ];
        all.into_iter().find(|u| u.opcode() == op)
    }

    /// Applies the operator to a scalar.
    #[inline]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Exp => a.exp(),
            UnOp::Log => a.ln(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Round => a.round(),
            UnOp::Floor => a.floor(),
            UnOp::Ceil => a.ceil(),
            UnOp::Sign => {
                if a > 0.0 {
                    1.0
                } else if a < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnOp::Sigmoid => 1.0 / (1.0 + (-a).exp()),
            UnOp::Not => f64::from(a == 0.0),
        }
    }
}

/// Matrix ⊕ matrix with SystemDS-style broadcasting: the right operand may be
/// the same shape, a column vector with matching rows, a row vector with
/// matching cols, or a 1×1 matrix. Shape resolution happens here; the dense
/// cell-wise work routes to the active backend.
pub fn ew_matrix_matrix(op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    let (m, n) = a.shape();
    let mismatch = || MatrixError::mismatch("ew-binary", a.shape(), b.shape());
    if b.shape() == (m, n) {
        return Ok(crate::backend::active().ew_binary(op, a, b));
    }
    if b.shape() == (1, 1) {
        return Ok(ew_matrix_scalar(op, a, b.get(0, 0)));
    }
    if a.shape() == (1, 1) {
        return Ok(ew_scalar_matrix(op, a.get(0, 0), b));
    }
    if b.rows() == m && b.cols() == 1 {
        // column-vector broadcast
        let mut out = DenseMatrix::zeros(m, n);
        for i in 0..m {
            let bi = b.get(i, 0);
            let (or, ar) = (out.row_mut(i), a.row(i));
            for j in 0..n {
                or[j] = op.apply(ar[j], bi);
            }
        }
        return Ok(out);
    }
    if b.rows() == 1 && b.cols() == n {
        // row-vector broadcast
        let mut out = DenseMatrix::zeros(m, n);
        let brow = b.row(0);
        for i in 0..m {
            let (or, ar) = (out.row_mut(i), a.row(i));
            for j in 0..n {
                or[j] = op.apply(ar[j], brow[j]);
            }
        }
        return Ok(out);
    }
    // Symmetric broadcasts with the vector on the left.
    if a.rows() == b.rows() && a.cols() == 1 {
        let mut out = DenseMatrix::zeros(b.rows(), b.cols());
        for i in 0..b.rows() {
            let ai = a.get(i, 0);
            let (or, br) = (out.row_mut(i), b.row(i));
            for j in 0..br.len() {
                or[j] = op.apply(ai, br[j]);
            }
        }
        return Ok(out);
    }
    if a.rows() == 1 && a.cols() == b.cols() {
        let mut out = DenseMatrix::zeros(b.rows(), b.cols());
        let arow = a.row(0);
        for i in 0..b.rows() {
            let (or, br) = (out.row_mut(i), b.row(i));
            for j in 0..br.len() {
                or[j] = op.apply(arow[j], br[j]);
            }
        }
        return Ok(out);
    }
    Err(mismatch())
}

/// Matrix ⊕ scalar, routed through the active backend.
pub fn ew_matrix_scalar(op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix {
    crate::backend::active().ew_matrix_scalar(op, a, s)
}

/// Scalar ⊕ matrix (for non-commutative operators), routed through the
/// active backend.
pub fn ew_scalar_matrix(op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix {
    crate::backend::active().ew_scalar_matrix(op, s, a)
}

/// Cell-wise unary application, routed through the active backend.
pub fn ew_unary(op: UnOp, a: &DenseMatrix) -> DenseMatrix {
    crate::backend::active().ew_unary(op, a)
}

// ---------------------------------------------------------------------------
// Reference backend kernels
// ---------------------------------------------------------------------------

/// Reference same-shape cell-wise binary.
pub(crate) fn ref_ew_binary(op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| op.apply(x, y))
        .collect();
    DenseMatrix::new(a.rows(), a.cols(), data).expect("shape preserved")
}

/// Reference matrix ⊕ scalar.
pub(crate) fn ref_ew_matrix_scalar(op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix {
    let data = a.data().iter().map(|&x| op.apply(x, s)).collect();
    DenseMatrix::new(a.rows(), a.cols(), data).expect("shape preserved")
}

/// Reference scalar ⊕ matrix.
pub(crate) fn ref_ew_scalar_matrix(op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix {
    let data = a.data().iter().map(|&x| op.apply(s, x)).collect();
    DenseMatrix::new(a.rows(), a.cols(), data).expect("shape preserved")
}

/// Reference cell-wise unary.
pub(crate) fn ref_ew_unary(op: UnOp, a: &DenseMatrix) -> DenseMatrix {
    let data = a.data().iter().map(|&x| op.apply(x)).collect();
    DenseMatrix::new(a.rows(), a.cols(), data).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::new(rows, cols, v.to_vec()).unwrap()
    }

    /// `X^2` is computed as `x*x`, the correctly rounded square. `powf` (its
    /// exponent hidden from the optimizer, which would make the same rewrite)
    /// returns the same bits on the special and edge values: signed zeros,
    /// infinities, NaN, `MIN_POSITIVE`, subnormals, and both sides of the
    /// edge where the square overflows. On arbitrary doubles `pow` need not
    /// be correctly rounded (glibc 2.36's misses by one ulp in about one of
    /// two thousand seeded bit patterns); wherever the two differ, it is by
    /// one ulp and `x*x` is the closer to the exact square, whose error term
    /// `mul_add` gives exactly.
    #[test]
    fn squaring_is_powf_on_edge_values_and_the_correctly_rounded_square_elsewhere() {
        let two = std::hint::black_box(2.0f64);
        let overflow_edge = f64::MAX.sqrt();
        let mut edges = vec![
            0.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.34e154,
            overflow_edge,
            f64::from_bits(overflow_edge.to_bits() + 1),
            f64::MAX,
            1.0,
            3.0,
        ];
        edges.extend(edges.clone().iter().map(|x| -x));
        for x in edges {
            let (got, want) = (BinOp::Pow.apply(x, 2.0), x.powf(two));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{x:e}^2: {got:e} vs {want:e}"
            );
        }
        assert!(BinOp::Pow.apply(f64::NAN, 2.0).is_nan());
        let mut z = 0x5eed_u64;
        let mut misses = 0;
        for _ in 0..1_000_000 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut h = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let x = f64::from_bits(h ^ (h >> 31));
            let (got, libm) = (BinOp::Pow.apply(x, 2.0), x.powf(two));
            if x.is_nan() || got.to_bits() == libm.to_bits() {
                continue;
            }
            misses += 1;
            assert_eq!(got.to_bits().abs_diff(libm.to_bits()), 1, "{x:e}^2");
            if got.is_normal() && got.abs() > f64::MIN_POSITIVE * 2f64.powi(53) {
                let err = x.mul_add(x, -got);
                let step = libm - got;
                assert!(err.abs() <= (err - step).abs(), "{x:e}^2: x*x is farther");
            }
        }
        assert!(misses < 1_000, "{misses} misses");
    }

    #[test]
    fn add_same_shape() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[10.0, 20.0, 30.0, 40.0]);
        let c = ew_matrix_matrix(BinOp::Add, &a, &b).unwrap();
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn col_vector_broadcast() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 1, &[10.0, 100.0]);
        let c = ew_matrix_matrix(BinOp::Mul, &a, &b).unwrap();
        assert_eq!(c.data(), &[10.0, 20.0, 30.0, 400.0, 500.0, 600.0]);
    }

    #[test]
    fn row_vector_broadcast() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(1, 3, &[1.0, 10.0, 100.0]);
        let c = ew_matrix_matrix(BinOp::Add, &a, &b).unwrap();
        assert_eq!(c.data(), &[2.0, 12.0, 103.0, 5.0, 15.0, 106.0]);
    }

    #[test]
    fn left_vector_broadcast() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = ew_matrix_matrix(BinOp::Sub, &a, &b).unwrap();
        assert_eq!(c.data(), &[0.0, -1.0, -2.0, -2.0, -3.0, -4.0]);
        let r = m(1, 3, &[1.0, 2.0, 3.0]);
        let c = ew_matrix_matrix(BinOp::Add, &r, &b).unwrap();
        assert_eq!(c.data(), &[2.0, 4.0, 6.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn one_by_one_acts_as_scalar() {
        let a = m(1, 1, &[2.0]);
        let b = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let c = ew_matrix_matrix(BinOp::Mul, &a, &b).unwrap();
        assert_eq!(c.data(), &[2.0, 4.0, 6.0, 8.0]);
        let d = ew_matrix_matrix(BinOp::Sub, &b, &a).unwrap();
        assert_eq!(d.data(), &[-1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = m(2, 2, &[0.0; 4]);
        let b = m(3, 3, &[0.0; 9]);
        assert!(ew_matrix_matrix(BinOp::Add, &a, &b).is_err());
    }

    #[test]
    fn comparisons_yield_indicator_values() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let c = ew_matrix_scalar(BinOp::Gt, &a, 1.5);
        assert_eq!(c.data(), &[0.0, 1.0, 1.0]);
        let c = ew_scalar_matrix(BinOp::Ge, 2.0, &a);
        assert_eq!(c.data(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn unary_ops() {
        let a = m(1, 4, &[-1.0, 0.0, 4.0, 2.25]);
        assert_eq!(ew_unary(UnOp::Abs, &a).data(), &[1.0, 0.0, 4.0, 2.25]);
        assert_eq!(ew_unary(UnOp::Sign, &a).data(), &[-1.0, 0.0, 1.0, 1.0]);
        assert_eq!(ew_unary(UnOp::Sqrt, &a).data()[2], 2.0);
        assert_eq!(ew_unary(UnOp::Not, &a).data(), &[0.0, 1.0, 0.0, 0.0]);
        let s = ew_unary(UnOp::Sigmoid, &m(1, 1, &[0.0]));
        assert_eq!(s.get(0, 0), 0.5);
    }

    #[test]
    fn opcode_round_trips() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Pow,
            BinOp::Min,
            BinOp::Max,
            BinOp::Eq,
            BinOp::Neq,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ] {
            assert_eq!(BinOp::from_opcode(op.opcode()), Some(op));
        }
        for op in [
            UnOp::Neg,
            UnOp::Abs,
            UnOp::Exp,
            UnOp::Log,
            UnOp::Sqrt,
            UnOp::Round,
            UnOp::Floor,
            UnOp::Ceil,
            UnOp::Sign,
            UnOp::Sigmoid,
            UnOp::Not,
        ] {
            assert_eq!(UnOp::from_opcode(op.opcode()), Some(op));
        }
        assert_eq!(BinOp::from_opcode("nope"), None);
        assert_eq!(UnOp::from_opcode("nope"), None);
    }
}
