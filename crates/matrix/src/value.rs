//! Runtime value types stored in symbol tables and the lineage cache.

use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use std::fmt;
use std::sync::Arc;

/// A scalar runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue {
    F64(f64),
    I64(i64),
    Bool(bool),
    Str(Arc<str>),
}

impl ScalarValue {
    /// Numeric view; booleans map to 0/1, strings fail.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            ScalarValue::F64(v) => Ok(*v),
            ScalarValue::I64(v) => Ok(*v as f64),
            ScalarValue::Bool(b) => Ok(f64::from(*b)),
            ScalarValue::Str(s) => {
                Err(MatrixError::invalid(format!("string '{s}' is not numeric")))
            }
        }
    }

    /// Integer view; rejects non-integral floats.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            ScalarValue::I64(v) => Ok(*v),
            ScalarValue::F64(v) if v.fract() == 0.0 => Ok(*v as i64),
            ScalarValue::Bool(b) => Ok(i64::from(*b)),
            other => Err(MatrixError::invalid(format!("{other:?} is not an integer"))),
        }
    }

    /// Boolean view; numbers use C semantics (nonzero is true).
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            ScalarValue::Bool(b) => Ok(*b),
            ScalarValue::F64(v) => Ok(*v != 0.0),
            ScalarValue::I64(v) => Ok(*v != 0),
            ScalarValue::Str(s) => {
                Err(MatrixError::invalid(format!("string '{s}' is not boolean")))
            }
        }
    }

    /// Canonical text form, used for literal lineage items. The encoding is
    /// type-tagged so `1` (int) and `1.0` (float) produce distinct lineage.
    pub fn lineage_literal(&self) -> String {
        match self {
            ScalarValue::F64(v) => format!("f:{v}"),
            ScalarValue::I64(v) => format!("i:{v}"),
            ScalarValue::Bool(b) => format!("b:{b}"),
            ScalarValue::Str(s) => format!("s:{s}"),
        }
    }

    /// Parses the canonical [`Self::lineage_literal`] form back.
    pub fn from_lineage_literal(s: &str) -> Option<ScalarValue> {
        let (tag, body) = s.split_once(':')?;
        match tag {
            "f" => body.parse().ok().map(ScalarValue::F64),
            "i" => body.parse().ok().map(ScalarValue::I64),
            "b" => body.parse().ok().map(ScalarValue::Bool),
            "s" => Some(ScalarValue::Str(body.into())),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::F64(v) => write!(f, "{v}"),
            ScalarValue::I64(v) => write!(f, "{v}"),
            ScalarValue::Bool(b) => write!(f, "{b}"),
            ScalarValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<f64> for ScalarValue {
    fn from(v: f64) -> Self {
        ScalarValue::F64(v)
    }
}
impl From<i64> for ScalarValue {
    fn from(v: i64) -> Self {
        ScalarValue::I64(v)
    }
}
impl From<bool> for ScalarValue {
    fn from(v: bool) -> Self {
        ScalarValue::Bool(v)
    }
}
impl From<&str> for ScalarValue {
    fn from(v: &str) -> Self {
        ScalarValue::Str(v.into())
    }
}

/// A runtime value: scalar, matrix, or list (DML `list(...)`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Scalar(ScalarValue),
    Matrix(Arc<DenseMatrix>),
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Wraps a matrix.
    pub fn matrix(m: DenseMatrix) -> Self {
        Value::Matrix(Arc::new(m))
    }

    /// Wraps a float scalar.
    pub fn f64(v: f64) -> Self {
        Value::Scalar(ScalarValue::F64(v))
    }

    /// Wraps an integer scalar.
    pub fn i64(v: i64) -> Self {
        Value::Scalar(ScalarValue::I64(v))
    }

    /// Wraps a boolean scalar.
    pub fn bool(v: bool) -> Self {
        Value::Scalar(ScalarValue::Bool(v))
    }

    /// Wraps a string scalar.
    pub fn str(v: &str) -> Self {
        Value::Scalar(ScalarValue::Str(v.into()))
    }

    /// Wraps a list.
    pub fn list(items: Vec<Value>) -> Self {
        Value::List(Arc::new(items))
    }

    /// Matrix view.
    pub fn as_matrix(&self) -> Result<&Arc<DenseMatrix>> {
        match self {
            Value::Matrix(m) => Ok(m),
            other => Err(other.expected("matrix")),
        }
    }

    /// Scalar view.
    pub fn as_scalar(&self) -> Result<&ScalarValue> {
        match self {
            Value::Scalar(s) => Ok(s),
            other => Err(other.expected("scalar")),
        }
    }

    /// List view.
    pub fn as_list(&self) -> Result<&Arc<Vec<Value>>> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(other.expected("list")),
        }
    }

    /// Numeric view of a scalar (or 1×1 matrix, which DML treats as `as.scalar`).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Scalar(s) => s.as_f64(),
            Value::Matrix(m) if m.shape() == (1, 1) => Ok(m.get(0, 0)),
            other => Err(other.expected("numeric scalar")),
        }
    }

    /// The error of a view that wanted `what` and found this value.
    fn expected(&self, what: &str) -> MatrixError {
        MatrixError::invalid(format!("expected {what}, got {}", self.type_name()))
    }

    /// Human-readable type tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Scalar(ScalarValue::F64(_)) => "f64",
            Value::Scalar(ScalarValue::I64(_)) => "i64",
            Value::Scalar(ScalarValue::Bool(_)) => "bool",
            Value::Scalar(ScalarValue::Str(_)) => "string",
            Value::Matrix(_) => "matrix",
            Value::List(_) => "list",
        }
    }

    /// Approximate in-memory footprint in bytes, used by the cache budget.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Value::Scalar(ScalarValue::Str(s)) => s.len() + 32,
            Value::Scalar(_) => 16,
            Value::Matrix(m) => m.size_in_bytes(),
            Value::List(items) => 24 + items.iter().map(Value::size_in_bytes).sum::<usize>(),
        }
    }

    /// Structural approximate equality used by tests: matrices compare with
    /// relative tolerance, scalars exactly by numeric value.
    pub fn approx_eq(&self, other: &Value, tol: f64) -> bool {
        match (self, other) {
            (Value::Matrix(a), Value::Matrix(b)) => a.rel_eq(b, tol),
            (Value::Scalar(a), Value::Scalar(b)) => match (a.as_f64(), b.as_f64()) {
                (Ok(x), Ok(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= tol * scale
                }
                _ => a == b,
            },
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.approx_eq(y, tol))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions() {
        assert_eq!(ScalarValue::F64(2.0).as_i64().unwrap(), 2);
        assert!(ScalarValue::F64(2.5).as_i64().is_err());
        assert_eq!(ScalarValue::Bool(true).as_f64().unwrap(), 1.0);
        assert!(ScalarValue::Str("x".into()).as_f64().is_err());
        assert!(ScalarValue::F64(0.0).as_bool() == Ok(false));
        assert!(ScalarValue::I64(3).as_bool() == Ok(true));
        assert!(ScalarValue::Str("t".into()).as_bool().is_err());
    }

    #[test]
    fn lineage_literals_round_trip() {
        for s in [
            ScalarValue::F64(1.5),
            ScalarValue::I64(-3),
            ScalarValue::Bool(true),
            ScalarValue::Str("hello world".into()),
        ] {
            let lit = s.lineage_literal();
            assert_eq!(ScalarValue::from_lineage_literal(&lit), Some(s));
        }
        assert_eq!(ScalarValue::from_lineage_literal("junk"), None);
        assert_eq!(ScalarValue::from_lineage_literal("z:1"), None);
    }

    #[test]
    fn int_and_float_literals_differ() {
        assert_ne!(
            ScalarValue::I64(1).lineage_literal(),
            ScalarValue::F64(1.0).lineage_literal()
        );
    }

    #[test]
    fn value_accessors() {
        let m = Value::matrix(DenseMatrix::zeros(2, 2));
        assert!(m.as_matrix().is_ok());
        assert!(m.as_scalar().is_err());
        let s = Value::f64(3.0);
        assert_eq!(s.as_f64().unwrap(), 3.0);
        assert!(s.as_matrix().is_err());
        let one_by_one = Value::matrix(DenseMatrix::filled(1, 1, 9.0));
        assert_eq!(one_by_one.as_f64().unwrap(), 9.0);
        let l = Value::list(vec![s.clone()]);
        assert_eq!(l.as_list().unwrap().len(), 1);
        assert!(l.as_f64().is_err());
    }

    #[test]
    fn size_estimates_are_monotone() {
        let small = Value::matrix(DenseMatrix::zeros(2, 2));
        let big = Value::matrix(DenseMatrix::zeros(100, 100));
        assert!(big.size_in_bytes() > small.size_in_bytes());
        let l = Value::list(vec![small.clone(), big.clone()]);
        assert!(l.size_in_bytes() > big.size_in_bytes());
    }

    #[test]
    fn approx_eq_compares_structurally() {
        let a = Value::matrix(DenseMatrix::filled(2, 2, 1.0));
        let b = Value::matrix(DenseMatrix::filled(2, 2, 1.0 + 1e-13));
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Value::f64(1.0), 1e-9));
        assert!(Value::str("x").approx_eq(&Value::str("x"), 0.0));
        assert!(!Value::str("x").approx_eq(&Value::str("y"), 0.0));
        let la = Value::list(vec![a]);
        let lb = Value::list(vec![b]);
        assert!(la.approx_eq(&lb, 1e-9));
    }
}
