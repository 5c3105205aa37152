//! Fused cell-wise operators (paper §3.3, "Operator Fusion").
//!
//! A fused operator evaluates a chain of element-wise operations in a single
//! pass without materializing intermediates. Fusion loses per-operator
//! semantics, so LIMA constructs the operator's *lineage patch* at compile
//! time (placeholder leaves for the fused inputs) and expands it into the
//! lineage DAG at runtime — the trace is indistinguishable from the unfused
//! execution, so reuse keeps working across fused/unfused plans.

use crate::error::{Result, RuntimeError};
use lima_core::lineage::dedup::DedupPatch;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_matrix::ops::BinOp;
use lima_matrix::{DenseMatrix, Value};
use std::sync::Arc;

/// Source of one side of a fused step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedArg {
    /// The running accumulator (result of the previous step; for the first
    /// step this is invalid — steps must start from inputs/constants).
    Acc,
    /// Fused input `k` (matrix, broadcast scalar, or scalar value).
    Input(usize),
    /// A compile-time constant.
    Const(f64),
}

/// One element-wise step of a fused chain: `acc = lhs ⊕ rhs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedStep {
    pub op: BinOp,
    pub lhs: FusedArg,
    pub rhs: FusedArg,
}

/// A compiled fused cell-wise operator.
#[derive(Debug)]
pub struct FusedSpec {
    /// Opcode (`spoof<N>`), unique per fused plan.
    pub opcode: String,
    /// Number of fused inputs.
    pub num_inputs: usize,
    /// The step chain.
    pub steps: Vec<FusedStep>,
    /// Compile-time lineage patch (output name `"out"`), expanded at trace
    /// time.
    patch: Arc<DedupPatch>,
}

impl FusedSpec {
    /// Compiles a fused cell-wise chain. The first step must not reference
    /// `Acc`; later steps usually do.
    pub fn cellwise(name: &str, num_inputs: usize, steps: Vec<FusedStep>) -> Result<Arc<Self>> {
        // Build the lineage patch mirroring the step chain: an empty chain,
        // or a first step that reads the accumulator, has no root.
        let placeholders: Vec<LinRef> = (0..num_inputs as u32)
            .map(LineageItem::placeholder)
            .collect();
        let arg_item = |arg: &FusedArg, acc: &Option<LinRef>| -> Result<LinRef> {
            match arg {
                FusedArg::Acc => acc.clone().ok_or_else(|| {
                    RuntimeError::bad_operands("fused", "accumulator used before defined")
                }),
                FusedArg::Input(k) => placeholders.get(*k).cloned().ok_or_else(|| {
                    RuntimeError::bad_operands("fused", format!("input {k} out of range"))
                }),
                FusedArg::Const(c) => Ok(LineageItem::literal(format!("f:{c}"))),
            }
        };
        let mut acc: Option<LinRef> = None;
        for step in &steps {
            let lhs = arg_item(&step.lhs, &acc)?;
            let rhs = arg_item(&step.rhs, &acc)?;
            acc = Some(LineageItem::op(step.op.opcode(), vec![lhs, rhs]));
        }
        let root = acc.ok_or_else(|| RuntimeError::bad_operands("fused", "empty step chain"))?;
        let patch = DedupPatch::new(
            format!("spoof:{name}"),
            0,
            num_inputs,
            vec![("out".into(), root)],
        );
        Ok(Arc::new(FusedSpec {
            opcode: format!("{}{name}", lima_core::opcodes::FUSED_PREFIX),
            num_inputs,
            steps,
            patch,
        }))
    }

    /// Expands the compile-time lineage patch over the actual input lineage
    /// (paper: "during runtime, we expand the lineage graph by these lineage
    /// patches").
    pub fn expand_lineage(&self, inputs: &[LinRef]) -> LinRef {
        self.patch.expand("out", inputs)
    }

    /// Executes the fused chain in one pass over the cells.
    pub fn execute(&self, inputs: &[Value]) -> Result<DenseMatrix> {
        if inputs.len() != self.num_inputs {
            return Err(RuntimeError::bad_operands(
                self.opcode.clone(),
                format!("expected {} inputs, got {}", self.num_inputs, inputs.len()),
            ));
        }
        // Resolve inputs: matrices must agree on shape; scalars broadcast.
        let mut shape: Option<(usize, usize)> = None;
        enum In<'a> {
            Mat(&'a DenseMatrix),
            Scalar(f64),
        }
        let mut resolved = Vec::with_capacity(inputs.len());
        for v in inputs {
            match v {
                Value::Matrix(m) if m.shape() == (1, 1) => resolved.push(In::Scalar(m.get(0, 0))),
                Value::Matrix(m) => {
                    match shape {
                        None => shape = Some(m.shape()),
                        Some(s) if s == m.shape() => {}
                        Some(s) => {
                            return Err(RuntimeError::bad_operands(
                                self.opcode.clone(),
                                format!("shape mismatch {:?} vs {:?}", s, m.shape()),
                            ))
                        }
                    }
                    resolved.push(In::Mat(m));
                }
                other => resolved.push(In::Scalar(other.as_f64().map_err(RuntimeError::Kernel)?)),
            }
        }
        let (rows, cols) = shape.ok_or_else(|| {
            RuntimeError::bad_operands(
                self.opcode.clone(),
                "fused chain needs at least one matrix input",
            )
        })?;
        let mut out = DenseMatrix::zeros(rows, cols);
        let data = out.data_mut();
        for (idx, cell) in data.iter_mut().enumerate() {
            let fetch = |arg: &FusedArg, acc: f64| -> f64 {
                match arg {
                    FusedArg::Acc => acc,
                    FusedArg::Const(c) => *c,
                    FusedArg::Input(k) => match &resolved[*k] {
                        In::Mat(m) => m.data()[idx],
                        In::Scalar(s) => *s,
                    },
                }
            };
            let mut acc = 0.0;
            for step in &self.steps {
                acc = step.op.apply(fetch(&step.lhs, acc), fetch(&step.rhs, acc));
            }
            *cell = acc;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_core::lineage::item::lineage_eq;

    /// The Fig-6 micro-benchmark kernel: `((X+X)*i - X) / (i+1)`.
    fn fig6_spec() -> Arc<FusedSpec> {
        FusedSpec::cellwise(
            "fig6",
            2, // X, i
            vec![
                FusedStep {
                    op: BinOp::Add,
                    lhs: FusedArg::Input(0),
                    rhs: FusedArg::Input(0),
                },
                FusedStep {
                    op: BinOp::Mul,
                    lhs: FusedArg::Acc,
                    rhs: FusedArg::Input(1),
                },
                FusedStep {
                    op: BinOp::Sub,
                    lhs: FusedArg::Acc,
                    rhs: FusedArg::Input(0),
                },
                FusedStep {
                    op: BinOp::Div,
                    lhs: FusedArg::Acc,
                    rhs: FusedArg::Const(1.0),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn fused_chain_matches_unfused_computation() {
        let spec = fig6_spec();
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 - 5.0);
        let i = 3.0;
        let got = spec
            .execute(&[Value::matrix(x.clone()), Value::f64(i)])
            .unwrap();
        let expect = DenseMatrix::from_fn(4, 3, |r, c| {
            let v = x.get(r, c);
            ((v + v) * i - v) / 1.0
        });
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn lineage_expansion_matches_unfused_trace() {
        let spec = fig6_spec();
        let x_lin = LineageItem::op_with_data("read", "X", vec![]);
        let i_lin = LineageItem::literal("f:3");
        let fused = spec.expand_lineage(&[x_lin.clone(), i_lin.clone()]);
        // Hand-built unfused trace.
        let add = LineageItem::op("+", vec![x_lin.clone(), x_lin.clone()]);
        let mul = LineageItem::op("*", vec![add, i_lin]);
        let sub = LineageItem::op("-", vec![mul, x_lin]);
        let div = LineageItem::op("/", vec![sub, LineageItem::literal("f:1")]);
        assert!(lineage_eq(&fused, &div));
    }

    #[test]
    fn invalid_chains_are_rejected() {
        assert!(FusedSpec::cellwise("bad", 1, vec![]).is_err());
        assert!(FusedSpec::cellwise(
            "bad",
            1,
            vec![FusedStep {
                op: BinOp::Add,
                lhs: FusedArg::Acc,
                rhs: FusedArg::Input(0),
            }],
        )
        .is_err());
        assert!(FusedSpec::cellwise(
            "bad",
            1,
            vec![FusedStep {
                op: BinOp::Add,
                lhs: FusedArg::Input(0),
                rhs: FusedArg::Input(5),
            }],
        )
        .is_err());
    }

    #[test]
    fn execution_validates_inputs() {
        let spec = fig6_spec();
        let x = Value::matrix(DenseMatrix::zeros(2, 2));
        assert!(spec.execute(std::slice::from_ref(&x)).is_err()); // arity
        let y = Value::matrix(DenseMatrix::zeros(3, 3));
        assert!(spec.execute(&[x.clone(), y]).is_err()); // shape mismatch
        assert!(spec.execute(&[Value::f64(1.0), Value::f64(2.0)]).is_err()); // no matrix
        assert!(spec.execute(&[x, Value::str("s")]).is_err()); // non-numeric
    }

    #[test]
    fn scalar_matrix_inputs_broadcast() {
        let spec = fig6_spec();
        let x = DenseMatrix::filled(2, 2, 4.0);
        let i_mat = Value::matrix(DenseMatrix::filled(1, 1, 2.0));
        let got = spec.execute(&[Value::matrix(x), i_mat]).unwrap();
        // ((4+4)*2 - 4)/1 = 12
        assert!(got.approx_eq(&DenseMatrix::filled(2, 2, 12.0), 1e-12));
    }
}
