//! Runtime instructions (paper Fig 2): opcode, ordered operands, and output
//! variable(s). Instructions read their inputs from the symbol table and bind
//! their outputs back — the interpreter traces lineage around them.

use crate::fused::FusedSpec;
use lima_matrix::ops::{AggFn, BinOp, TsmmSide, UnOp};
use lima_matrix::rand_gen::RandDist;
use lima_matrix::ScalarValue;
use std::borrow::Cow;
use std::sync::Arc;

/// An instruction operand: a live variable or an inline literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A symbol-table variable. The name is shared with the symbol table and
    /// the lineage map, which bind it on every execution without copying it.
    Var(Arc<str>),
    /// An inline literal.
    Lit(ScalarValue),
}

impl Operand {
    /// Variable operand.
    pub fn var(name: impl AsRef<str>) -> Self {
        Operand::Var(Arc::from(name.as_ref()))
    }

    /// Float literal.
    pub fn f64(v: f64) -> Self {
        Operand::Lit(ScalarValue::F64(v))
    }

    /// Integer literal.
    pub fn i64(v: i64) -> Self {
        Operand::Lit(ScalarValue::I64(v))
    }

    /// Boolean literal.
    pub fn bool(v: bool) -> Self {
        Operand::Lit(ScalarValue::Bool(v))
    }

    /// String literal.
    pub fn str(v: &str) -> Self {
        Operand::Lit(ScalarValue::Str(v.into()))
    }

    /// The variable name, if this is a variable operand.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Lit(_) => None,
        }
    }
}

/// Random-distribution selector for [`Op::Rand`] (parameters are operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandDistKind {
    /// Uniform in `[p1, p2)`.
    Uniform,
    /// Normal with mean `p1`, std `p2`.
    Normal,
}

impl RandDistKind {
    /// Builds the matrix-crate distribution from the two parameters.
    pub fn dist(self, p1: f64, p2: f64) -> RandDist {
        match self {
            RandDistKind::Uniform => RandDist::Uniform { min: p1, max: p2 },
            RandDistKind::Normal => RandDist::Normal { mean: p1, std: p2 },
        }
    }

    /// Stable name used in lineage data strings.
    pub fn name(self) -> &'static str {
        match self {
            RandDistKind::Uniform => "uniform",
            RandDistKind::Normal => "normal",
        }
    }
}

/// Instruction operation codes. Operand conventions are documented per
/// variant; `[..]` lists the expected `inputs`.
#[derive(Debug, Clone)]
pub enum Op {
    /// Cell-wise binary op `[a, b]` (matrix/matrix with broadcasting,
    /// matrix/scalar, scalar/scalar).
    Binary(BinOp),
    /// Cell-wise unary op `[a]`.
    Unary(UnOp),
    /// Matrix multiply `[A, B]`.
    MatMult,
    /// Transpose-self multiply `[X]`.
    Tsmm(TsmmSide),
    /// `t(A) %*% B` `[A, B]` without materialising `t(A)`: a fused operator
    /// (paper §3.3) traced as `ba+*(r'(A), B)`, the two items the unfused
    /// pair traces, so keys and rewrites see a matrix multiply.
    TMatMult,
    /// Transpose `[X]`.
    Transpose,
    /// Column concatenation `[A, B]`.
    Cbind,
    /// Row concatenation `[A, B]`.
    Rbind,
    /// Slicing `[X, rl, ru, cl, cu]` with **1-based inclusive** scalar bounds
    /// (DML convention; 0 for `ru`/`cu` means "to the end").
    RightIndex,
    /// Sub-block assignment `[X, S, rl, cl]` (1-based offsets); produces a
    /// fresh matrix.
    LeftIndex,
    /// Column projection `[X, idx]` with a 1-based index column vector.
    SelectCols,
    /// Row projection `[X, idx]` with a 1-based index column vector.
    SelectRows,
    /// Constant fill `[value, rows, cols]` — DML `matrix(v, r, c)`.
    Fill,
    /// Random matrix `[rows, cols, p1, p2, sparsity, seed]`; a seed of `-1`
    /// requests a system-generated seed, captured in the lineage.
    Rand(RandDistKind),
    /// Sample without replacement `[range, size, seed]` (seed as in `Rand`).
    Sample,
    /// Sequence `[from, to, by]`.
    Seq,
    /// Read a registered dataset `[path]`.
    Read,
    /// Write a matrix and its lineage log `[X, path]`.
    Write,
    /// Full aggregate `[X]` producing a scalar.
    FullAgg(AggFn),
    /// Column aggregate `[X]` producing `1 × cols`.
    ColAgg(AggFn),
    /// Row aggregate `[X]` producing `rows × 1`.
    RowAgg(AggFn),
    /// Row-wise argmax `[X]` (1-based indices).
    RowIndexMax,
    /// Linear solve `[A, b]`.
    Solve,
    /// Diagonal `[X]` (vector→matrix or square→vector).
    Diag,
    /// Symmetric eigen decomposition `[C]`, outputs `[values, vectors]`.
    Eigen,
    /// Sort-order indices `[v, decreasing]`.
    Order,
    /// Row reversal `[X]`.
    Rev,
    /// Contingency table `[a, b]`.
    Table,
    /// Number of rows `[X]` (scalar output).
    Nrow,
    /// Number of columns `[X]` (scalar output).
    Ncol,
    /// Cast 1×1 matrix to scalar `[X]`.
    CastScalar,
    /// Cast scalar to 1×1 matrix `[s]`.
    CastMatrix,
    /// Reshape `[X, rows, cols]` (row-major order preserved).
    Reshape,
    /// List construction `[items...]`.
    ListNew,
    /// List element access `[list, idx]` (1-based).
    ListGet,
    /// Copy/alias assignment `[a]` — also used to materialize literals.
    Assign,
    /// Print a value `[a]` (side effect; never cached).
    Print,
    /// String concatenation `[a, b]`.
    Concat,
    /// Remove variables (bookkeeping; `inputs` name the variables).
    Rmvar,
    /// Rename variable `[old]` → output (bookkeeping).
    Mvvar,
    /// Returns the serialized lineage log of a variable as a string
    /// (the paper's `lineage(X)` built-in, §3.1). `[var]`, never cached.
    LineageOf,
    /// Call a user/builtin function: `inputs` are arguments, `outputs` bind
    /// the function's return values.
    FCall(String),
    /// Fused cell-wise operator chain (paper §3.3, operator fusion).
    Fused(Arc<FusedSpec>),
}

/// The aggregate opcodes as static strings, one row per family (what
/// `lima_core::opcodes::{full_agg, col_agg, row_agg}` would format).
const FULL_AGG: [&str; 6] = ["uasum", "uamean", "uamin", "uamax", "uasumsq", "uavar"];
const COL_AGG: [&str; 6] = [
    "uacsum", "uacmean", "uacmin", "uacmax", "uacsumsq", "uacvar",
];
const ROW_AGG: [&str; 6] = [
    "uarsum", "uarmean", "uarmin", "uarmax", "uarsumsq", "uarvar",
];

fn agg_opcode(family: &[&'static str; 6], f: AggFn) -> &'static str {
    let f = match f {
        AggFn::Sum => 0,
        AggFn::Mean => 1,
        AggFn::Min => 2,
        AggFn::Max => 3,
        AggFn::SumSq => 4,
        AggFn::Var => 5,
    };
    family[f]
}

impl Op {
    /// The opcode string recorded in lineage items. Must stay in sync with
    /// `lima_core::opcodes` so partial-reuse probes match. Static for every
    /// operation the per-instruction traced path names; only a function call
    /// (`fcall:<name>`) and a fused operator (`spoof<N>`) build their text.
    pub fn opcode(&self) -> Cow<'static, str> {
        use lima_core::opcodes as oc;
        Cow::Borrowed(match self {
            Op::Binary(b) => b.opcode(),
            Op::Unary(u) => u.opcode(),
            Op::MatMult | Op::TMatMult => oc::MATMULT,
            Op::Tsmm(_) => oc::TSMM,
            Op::Transpose => oc::TRANSPOSE,
            Op::Cbind => oc::CBIND,
            Op::Rbind => oc::RBIND,
            Op::RightIndex => oc::RIGHT_INDEX,
            Op::LeftIndex => oc::LEFT_INDEX,
            Op::SelectCols => oc::SELECT_COLS,
            Op::SelectRows => oc::SELECT_ROWS,
            Op::Fill => oc::MATRIX_FILL,
            Op::Rand(_) => oc::RAND,
            Op::Sample => oc::SAMPLE,
            Op::Seq => oc::SEQ,
            Op::Read => oc::READ,
            Op::Write => "write",
            Op::FullAgg(f) => agg_opcode(&FULL_AGG, *f),
            Op::ColAgg(f) => agg_opcode(&COL_AGG, *f),
            Op::RowAgg(f) => agg_opcode(&ROW_AGG, *f),
            Op::RowIndexMax => oc::ROW_INDEX_MAX,
            Op::Solve => oc::SOLVE,
            Op::Diag => oc::DIAG,
            Op::Eigen => oc::EIGEN,
            Op::Order => oc::ORDER,
            Op::Rev => oc::REV,
            Op::Table => oc::TABLE,
            Op::Nrow => oc::NROW,
            Op::Ncol => oc::NCOL,
            Op::CastScalar => oc::CAST_SCALAR,
            Op::CastMatrix => oc::CAST_MATRIX,
            Op::Reshape => oc::RESHAPE,
            Op::ListNew => oc::LIST,
            Op::ListGet => oc::LIST_GET,
            Op::Assign => "assign",
            Op::Print => "print",
            Op::Concat => oc::CONCAT,
            Op::Rmvar => "rmvar",
            Op::Mvvar => "mvvar",
            Op::LineageOf => "lineage",
            Op::FCall(name) => return Cow::Owned(format!("{}:{name}", oc::FCALL)),
            Op::Fused(spec) => return Cow::Owned(spec.opcode.clone()),
        })
    }

    /// True for operations with side effects that must never be skipped or
    /// memoized.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Op::Print | Op::Write)
    }

    /// True for non-deterministic operations when their seed operand requests
    /// a system-generated seed (checked by the compiler's determinism pass).
    pub fn is_random(&self) -> bool {
        matches!(self, Op::Rand(_) | Op::Sample)
    }
}

/// A runtime instruction.
#[derive(Debug, Clone)]
pub struct Instr {
    /// Operation code.
    pub op: Op,
    /// Ordered operands.
    pub inputs: Vec<Operand>,
    /// Output variable names (usually one; `Eigen` and `FCall` bind several).
    pub outputs: Vec<Arc<str>>,
    /// Set by the compiler's *unmarking* rewrite (paper §4.4): this instance
    /// never interacts with the reuse cache even if its opcode qualifies.
    pub no_cache: bool,
    /// Byte span of the source construct this instruction was lowered from
    /// (`None` for synthesized instructions, e.g. rewrite plans).
    pub span: Option<lima_core::Span>,
}

impl Instr {
    /// Single-output instruction.
    pub fn new(op: Op, inputs: Vec<Operand>, output: impl AsRef<str>) -> Self {
        Instr {
            op,
            inputs,
            outputs: vec![Arc::from(output.as_ref())],
            no_cache: false,
            span: None,
        }
    }

    /// Multi-output instruction.
    pub fn multi(op: Op, inputs: Vec<Operand>, outputs: Vec<String>) -> Self {
        Instr {
            op,
            inputs,
            outputs: outputs.into_iter().map(Arc::from).collect(),
            no_cache: false,
            span: None,
        }
    }

    /// Output-less instruction (print, rmvar, write).
    pub fn effect(op: Op, inputs: Vec<Operand>) -> Self {
        Instr {
            op,
            inputs,
            outputs: Vec::new(),
            no_cache: false,
            span: None,
        }
    }

    /// Attaches a source span (builder style, used by the lowering).
    pub fn at(mut self, span: Option<lima_core::Span>) -> Self {
        self.span = span;
        self
    }

    /// Variables read by this instruction.
    pub fn reads(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().filter_map(Operand::as_var)
    }

    /// Variables written by this instruction.
    pub fn writes(&self) -> impl Iterator<Item = &str> {
        self.outputs.iter().map(|o| &**o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_match_core_constants() {
        assert_eq!(Op::MatMult.opcode(), lima_core::opcodes::MATMULT);
        assert_eq!(Op::TMatMult.opcode(), lima_core::opcodes::MATMULT);
        assert_eq!(Op::Tsmm(TsmmSide::Left).opcode(), lima_core::opcodes::TSMM);
        assert_eq!(Op::ColAgg(AggFn::Sum).opcode(), "uacsum");
        assert_eq!(Op::RowAgg(AggFn::Max).opcode(), "uarmax");
        assert_eq!(Op::FullAgg(AggFn::Mean).opcode(), "uamean");
        assert_eq!(Op::Binary(BinOp::Add).opcode(), "+");
        assert_eq!(Op::FCall("lm".into()).opcode(), "fcall:lm");
        use lima_core::opcodes::{col_agg, full_agg, row_agg};
        for f in [
            AggFn::Sum,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::SumSq,
            AggFn::Var,
        ] {
            assert_eq!(Op::FullAgg(f).opcode(), full_agg(f.name()));
            assert_eq!(Op::ColAgg(f).opcode(), col_agg(f.name()));
            assert_eq!(Op::RowAgg(f).opcode(), row_agg(f.name()));
        }
    }

    #[test]
    fn side_effects_and_randomness_flags() {
        assert!(Op::Print.has_side_effects());
        assert!(Op::Write.has_side_effects());
        assert!(!Op::MatMult.has_side_effects());
        assert!(Op::Rand(RandDistKind::Uniform).is_random());
        assert!(Op::Sample.is_random());
        assert!(!Op::Seq.is_random());
    }

    #[test]
    fn reads_and_writes() {
        let i = Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("a"), Operand::f64(1.0)],
            "b",
        );
        assert_eq!(i.reads().collect::<Vec<_>>(), vec!["a"]);
        assert_eq!(i.writes().collect::<Vec<_>>(), vec!["b"]);
        let e = Instr::effect(Op::Print, vec![Operand::var("b")]);
        assert!(e.writes().next().is_none());
    }

    #[test]
    fn rand_dist_kinds() {
        assert_eq!(
            RandDistKind::Uniform.dist(0.0, 1.0),
            RandDist::Uniform { min: 0.0, max: 1.0 }
        );
        assert_eq!(
            RandDistKind::Normal.dist(2.0, 3.0),
            RandDist::Normal {
                mean: 2.0,
                std: 3.0
            }
        );
        assert_eq!(RandDistKind::Uniform.name(), "uniform");
        assert_eq!(RandDistKind::Normal.name(), "normal");
    }

    #[test]
    fn operand_constructors() {
        assert_eq!(Operand::var("x").as_var(), Some("x"));
        assert_eq!(Operand::f64(1.0).as_var(), None);
        assert_eq!(
            Operand::str("s"),
            Operand::Lit(ScalarValue::Str("s".into()))
        );
        assert_eq!(Operand::bool(true), Operand::Lit(ScalarValue::Bool(true)));
        assert_eq!(Operand::i64(3), Operand::Lit(ScalarValue::I64(3)));
    }
}
