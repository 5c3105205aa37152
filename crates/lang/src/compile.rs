//! Lowers the AST into a `lima-runtime` program: statements become program
//! blocks, expressions become instruction sequences over temporaries, and
//! builtins map onto the runtime's instruction set. The runtime's compiler
//! passes (IDs, determinism, dedup, unmarking, reuse-aware rewrites) run as
//! the final step.
//!
//! Source spans from the AST are threaded onto lowered instructions and
//! `parfor` headers so analysis findings (DESIGN.md §14) can point back at
//! the offending source construct.

use crate::ast::{Arg, Expr, ExprKind, FunctionDef, IndexSel, Script, Stmt, StmtKind};
use crate::parser::{parse, ParseError};
use lima_core::{Diagnostic, LimaConfig, Span};
use lima_matrix::ops::{AggFn, BinOp, TsmmSide, UnOp};
use lima_runtime::instr::RandDistKind;
use lima_runtime::{Block, ExprProg, Function, Instr, Op, Operand, Program};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Compilation error: the phase that failed plus enough structure to render
/// a source-anchored diagnostic (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The script failed to lex or parse (codes `L0001`/`L0002`).
    Parse(ParseError),
    /// The AST could not be lowered onto the instruction set (code `L0003`):
    /// unknown function, bad arity, malformed builtin arguments.
    Lower { msg: String, span: Option<Span> },
    /// Rejected by the runtime's static analysis passes (code `L0100`).
    Analysis(lima_runtime::compiler::CompileError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower { msg, .. } => write!(f, "{msg}"),
            CompileError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<lima_runtime::compiler::CompileError> for CompileError {
    fn from(e: lima_runtime::compiler::CompileError) -> Self {
        CompileError::Analysis(e)
    }
}

impl CompileError {
    /// The primary diagnostic for this error, with its source span when the
    /// failing construct is known.
    pub fn diagnostic(&self) -> Diagnostic {
        match self {
            CompileError::Parse(e) => e.diagnostic(),
            CompileError::Lower { msg, span } => {
                Diagnostic::error("L0003", msg.clone()).with_span_opt(*span)
            }
            CompileError::Analysis(e) => match e {
                lima_runtime::compiler::CompileError::ParforDependence {
                    violation, span, ..
                } => Diagnostic::error(
                    "L0100",
                    format!("parfor cannot run in parallel: {violation}"),
                )
                .with_span_opt(*span)
                .with_help(
                    "parfor iterations must write provably disjoint cells; \
                     use a plain `for` loop if the dependence is intended",
                ),
            },
        }
    }

    /// All diagnostics carried by this error (currently always exactly one).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        vec![self.diagnostic()]
    }
}

fn err<T>(span: Span, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError::Lower {
        msg: msg.into(),
        span: Some(span),
    })
}

/// Parses, lowers, and runs the runtime compiler passes on a script.
pub fn compile_script(src: &str, config: &LimaConfig) -> Result<Program, CompileError> {
    let mut program = compile_script_uncompiled(src)?;
    lima_runtime::compiler::compile(&mut program, config).map_err(CompileError::Analysis)?;
    Ok(program)
}

/// Parses and lowers a script without running the compiler passes
/// (tests and tooling).
pub fn compile_script_uncompiled(src: &str) -> Result<Program, CompileError> {
    let ast = parse(src)?;
    lower_script(&ast, src)
}

/// Lowers an already-parsed script (the lint driver parses separately so it
/// can also walk the AST).
pub fn lower_script(ast: &Script, src: &str) -> Result<Program, CompileError> {
    let mut lowerer = Lowerer::new(ast);
    let body = lowerer.lower_stmts(&ast.body)?;
    let mut program = Program::new(body);
    for fdef in &ast.functions {
        let fbody = lowerer.lower_stmts(&fdef.body)?;
        let mut f = Function::new(
            fdef.name.clone(),
            fdef.params.iter().map(|(n, _)| n.clone()).collect(),
            fdef.outputs.clone(),
            fbody,
        );
        f.deterministic = false; // analysis pass fills this in
        program.add_function(f);
    }
    program.fingerprint = fingerprint(src);
    Ok(program)
}

fn fingerprint(src: &str) -> u64 {
    let mut h = lima_core::lineage::item::FxHasher::default();
    src.hash(&mut h);
    h.finish()
}

/// Structural expression equality ignoring spans (two occurrences of the
/// same source text never share a span, so derived `PartialEq` on [`Expr`]
/// is the wrong tool for pattern matching).
fn same_expr(a: &Expr, b: &Expr) -> bool {
    fn same_sel(a: &IndexSel, b: &IndexSel) -> bool {
        match (a, b) {
            (IndexSel::All, IndexSel::All) => true,
            (IndexSel::Single(x), IndexSel::Single(y)) => same_expr(x, y),
            (IndexSel::Range(x1, y1), IndexSel::Range(x2, y2)) => {
                same_expr(x1, x2) && same_expr(y1, y2)
            }
            _ => false,
        }
    }
    match (&a.kind, &b.kind) {
        (ExprKind::Int(x), ExprKind::Int(y)) => x == y,
        (ExprKind::Float(x), ExprKind::Float(y)) => x == y,
        (ExprKind::Str(x), ExprKind::Str(y)) => x == y,
        (ExprKind::Bool(x), ExprKind::Bool(y)) => x == y,
        (ExprKind::Var(x), ExprKind::Var(y)) => x == y,
        (ExprKind::Neg(x), ExprKind::Neg(y)) | (ExprKind::Not(x), ExprKind::Not(y)) => {
            same_expr(x, y)
        }
        (ExprKind::Binary(o1, a1, b1), ExprKind::Binary(o2, a2, b2)) => {
            o1 == o2 && same_expr(a1, a2) && same_expr(b1, b2)
        }
        (ExprKind::MatMul(a1, b1), ExprKind::MatMul(a2, b2)) => {
            same_expr(a1, a2) && same_expr(b1, b2)
        }
        (ExprKind::Call { name: n1, args: a1 }, ExprKind::Call { name: n2, args: a2 }) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1
                    .iter()
                    .zip(a2)
                    .all(|(x, y)| x.name == y.name && same_expr(&x.value, &y.value))
        }
        (
            ExprKind::Index {
                base: b1,
                rows: r1,
                cols: c1,
            },
            ExprKind::Index {
                base: b2,
                rows: r2,
                cols: c2,
            },
        ) => same_expr(b1, b2) && same_sel(r1, r2) && same_sel(c1, c2),
        _ => false,
    }
}

struct Lowerer {
    next_temp: usize,
    user_functions: HashSet<String>,
    function_defs: Vec<FunctionDef>,
}

impl Lowerer {
    fn new(script: &Script) -> Self {
        Lowerer {
            next_temp: 0,
            user_functions: script.functions.iter().map(|f| f.name.clone()).collect(),
            function_defs: script.functions.clone(),
        }
    }

    fn temp(&mut self) -> String {
        self.next_temp += 1;
        format!("_t{}", self.next_temp)
    }

    /// Lowers each of `exprs`, in order.
    fn lower_exprs(
        &mut self,
        exprs: &[&Expr],
        instrs: &mut Vec<Instr>,
    ) -> Result<Vec<Operand>, CompileError> {
        exprs.iter().map(|e| self.lower_expr(e, instrs)).collect()
    }

    /// Appends `op(ins)` binding a fresh temporary, and returns it.
    fn emit(&mut self, op: Op, ins: Vec<Operand>, span: Span, instrs: &mut Vec<Instr>) -> Operand {
        let out = self.temp();
        instrs.push(Instr::new(op, ins, &out).at(Some(span)));
        Operand::var(out)
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Block>, CompileError> {
        let mut blocks = Vec::new();
        let mut current: Vec<Instr> = Vec::new();
        macro_rules! flush {
            () => {
                if !current.is_empty() {
                    blocks.push(Block::basic(std::mem::take(&mut current)));
                }
            };
        }
        for stmt in stmts {
            let sspan = stmt.span;
            match &stmt.kind {
                StmtKind::Assign { target, value, .. } => {
                    self.lower_expr_into(value, target, &mut current)?;
                }
                StmtKind::MultiAssign { targets, call } => {
                    let ExprKind::Call { name, args } = &call.kind else {
                        return err(call.span, "multi-assignment requires a call");
                    };
                    self.lower_multi_call(name, args, targets, call.span, &mut current)?;
                }
                StmtKind::IndexAssign {
                    target,
                    rows,
                    cols,
                    value,
                    ..
                } => {
                    let v = self.lower_expr(value, &mut current)?;
                    let rl = self.index_start(rows, &mut current)?;
                    let cl = self.index_start(cols, &mut current)?;
                    current.push(
                        Instr::new(Op::LeftIndex, vec![Operand::var(target), v, rl, cl], target)
                            .at(Some(sspan)),
                    );
                }
                StmtKind::Print(e) => {
                    let v = self.lower_expr(e, &mut current)?;
                    current.push(Instr::effect(Op::Print, vec![v]).at(Some(sspan)));
                }
                StmtKind::Write(e, path) => {
                    let v = self.lower_expr(e, &mut current)?;
                    let p = self.lower_expr(path, &mut current)?;
                    current.push(Instr::effect(Op::Write, vec![v, p]).at(Some(sspan)));
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    flush!();
                    let pred = self.lower_expr_prog(cond)?;
                    let t = self.lower_stmts(then_body)?;
                    let e = self.lower_stmts(else_body)?;
                    blocks.push(Block::if_else(pred, t, e));
                }
                StmtKind::For {
                    var,
                    from,
                    to,
                    by,
                    body,
                    parallel,
                    ..
                } => {
                    flush!();
                    // Header span: from the loop keyword through the bounds.
                    let header_end = by.as_ref().map(|b| b.span.end).unwrap_or(to.span.end);
                    let header = Span::new(sspan.start, header_end);
                    let from = self.lower_expr_prog(from)?;
                    let to = self.lower_expr_prog(to)?;
                    let by = match by {
                        Some(b) => self.lower_expr_prog(b)?,
                        None => ExprProg::lit(Operand::i64(1)),
                    };
                    let b = self.lower_stmts(body)?;
                    blocks.push(if *parallel {
                        Block::parfor(var, from, to, by, b).with_span(Some(header))
                    } else {
                        Block::for_loop(var, from, to, by, b)
                    });
                }
                StmtKind::While { cond, body } => {
                    flush!();
                    let pred = self.lower_expr_prog(cond)?;
                    let b = self.lower_stmts(body)?;
                    blocks.push(Block::while_loop(pred, b));
                }
            }
        }
        if !current.is_empty() {
            blocks.push(Block::basic(current));
        }
        Ok(blocks)
    }

    fn lower_expr_prog(&mut self, e: &Expr) -> Result<ExprProg, CompileError> {
        let mut instrs = Vec::new();
        let result = self.lower_expr(e, &mut instrs)?;
        Ok(ExprProg::new(instrs, result))
    }

    /// Lowers an expression, directing the final instruction's output to
    /// `target` when possible (avoids a trailing copy).
    fn lower_expr_into(
        &mut self,
        e: &Expr,
        target: &str,
        instrs: &mut Vec<Instr>,
    ) -> Result<(), CompileError> {
        let before = instrs.len();
        let result = self.lower_expr(e, instrs)?;
        match result {
            Operand::Var(v) if instrs.len() > before => {
                // Retarget the instruction that produced the temp.
                let last = instrs
                    .iter_mut()
                    .rev()
                    .find(|i| i.outputs.len() == 1 && i.outputs[0] == v);
                match last {
                    Some(i) if v.starts_with("_t") => i.outputs[0] = target.into(),
                    _ => instrs.push(
                        Instr::new(Op::Assign, vec![Operand::Var(v)], target).at(Some(e.span)),
                    ),
                }
            }
            other => instrs.push(Instr::new(Op::Assign, vec![other], target).at(Some(e.span))),
        }
        Ok(())
    }

    fn lower_expr(&mut self, e: &Expr, instrs: &mut Vec<Instr>) -> Result<Operand, CompileError> {
        let span = e.span;
        Ok(match &e.kind {
            ExprKind::Int(v) => Operand::i64(*v),
            ExprKind::Float(v) => Operand::f64(*v),
            ExprKind::Str(s) => Operand::str(s),
            ExprKind::Bool(b) => Operand::bool(*b),
            ExprKind::Var(v) => Operand::var(v),
            ExprKind::Neg(inner) => {
                let v = self.lower_expr(inner, instrs)?;
                self.emit(Op::Unary(UnOp::Neg), vec![v], span, instrs)
            }
            ExprKind::Not(inner) => {
                let v = self.lower_expr(inner, instrs)?;
                self.emit(Op::Unary(UnOp::Not), vec![v], span, instrs)
            }
            ExprKind::Binary(op, a, b) => {
                let va = self.lower_expr(a, instrs)?;
                let vb = self.lower_expr(b, instrs)?;
                self.emit(Op::Binary(*op), vec![va, vb], span, instrs)
            }
            ExprKind::MatMul(a, b) => self.lower_matmul(a, b, span, instrs)?,
            ExprKind::Call { name, args } => self.lower_call(name, args, span, instrs)?,
            ExprKind::Index { base, rows, cols } => {
                self.lower_index(base, rows, cols, span, instrs)?
            }
        })
    }

    /// Lowers `a %*% b` with the SystemDS-style `tsmm` peephole:
    /// `t(X) %*% X → tsmm(X, LEFT)` and `X %*% t(X) → tsmm(X, RIGHT)`.
    fn lower_matmul(
        &mut self,
        a: &Expr,
        b: &Expr,
        span: Span,
        instrs: &mut Vec<Instr>,
    ) -> Result<Operand, CompileError> {
        fn transposed_of(e: &Expr) -> Option<&Expr> {
            match &e.kind {
                ExprKind::Call { name, args }
                    if name == "t" && args.len() == 1 && args[0].name.is_none() =>
                {
                    Some(&args[0].value)
                }
                _ => None,
            }
        }
        if let Some(inner) = transposed_of(a) {
            if same_expr(inner, b) {
                let v = self.lower_expr(inner, instrs)?;
                return Ok(self.emit(Op::Tsmm(TsmmSide::Left), vec![v], span, instrs));
            }
        }
        if let Some(inner) = transposed_of(b) {
            if same_expr(inner, a) {
                let v = self.lower_expr(inner, instrs)?;
                return Ok(self.emit(Op::Tsmm(TsmmSide::Right), vec![v], span, instrs));
            }
        }
        // `t(A) %*% B` streams `A` instead of copying it into `t(A)`.
        if let Some(inner) = transposed_of(a) {
            let va = self.lower_expr(inner, instrs)?;
            let vb = self.lower_expr(b, instrs)?;
            return Ok(self.emit(Op::TMatMult, vec![va, vb], span, instrs));
        }
        let va = self.lower_expr(a, instrs)?;
        let vb = self.lower_expr(b, instrs)?;
        Ok(self.emit(Op::MatMult, vec![va, vb], span, instrs))
    }

    /// The 1-based start position of an index selector (for left-indexing).
    fn index_start(
        &mut self,
        sel: &IndexSel,
        instrs: &mut Vec<Instr>,
    ) -> Result<Operand, CompileError> {
        Ok(match sel {
            IndexSel::All => Operand::i64(1),
            IndexSel::Single(e) | IndexSel::Range(e, _) => self.lower_expr(e, instrs)?,
        })
    }

    fn lower_index(
        &mut self,
        base: &Expr,
        rows: &IndexSel,
        cols: &IndexSel,
        span: Span,
        instrs: &mut Vec<Instr>,
    ) -> Result<Operand, CompileError> {
        let mut cur = self.lower_expr(base, instrs)?;
        // Ranged selectors compile into a single rightIndex when possible.
        let range_bounds = |sel: &IndexSel| matches!(sel, IndexSel::All | IndexSel::Range(_, _));
        if range_bounds(rows) && range_bounds(cols) {
            let (rl, ru) = self.range_ops(rows, instrs)?;
            let (cl, cu) = self.range_ops(cols, instrs)?;
            return Ok(self.emit(Op::RightIndex, vec![cur, rl, ru, cl, cu], span, instrs));
        }
        // Single selectors use select-rows/cols (scalar positions and
        // 1-based index vectors share the same syntax in DML).
        match rows {
            IndexSel::All => {}
            IndexSel::Single(e) => {
                let idx = self.lower_expr(e, instrs)?;
                cur = self.emit(Op::SelectRows, vec![cur, idx], span, instrs);
            }
            IndexSel::Range(a, b) => {
                let rl = self.lower_expr(a, instrs)?;
                let ru = self.lower_expr(b, instrs)?;
                cur = self.emit(
                    Op::RightIndex,
                    vec![cur, rl, ru, Operand::i64(1), Operand::i64(0)],
                    span,
                    instrs,
                );
            }
        }
        match cols {
            IndexSel::All => {}
            IndexSel::Single(e) => {
                let idx = self.lower_expr(e, instrs)?;
                cur = self.emit(Op::SelectCols, vec![cur, idx], span, instrs);
            }
            IndexSel::Range(a, b) => {
                let cl = self.lower_expr(a, instrs)?;
                let cu = self.lower_expr(b, instrs)?;
                cur = self.emit(
                    Op::RightIndex,
                    vec![cur, Operand::i64(1), Operand::i64(0), cl, cu],
                    span,
                    instrs,
                );
            }
        }
        Ok(cur)
    }

    /// Bounds of a ranged selector as (lo, hi) operands; `All` is `(1, 0)`
    /// with 0 meaning "to the end".
    fn range_ops(
        &mut self,
        sel: &IndexSel,
        instrs: &mut Vec<Instr>,
    ) -> Result<(Operand, Operand), CompileError> {
        Ok(match sel {
            IndexSel::All => (Operand::i64(1), Operand::i64(0)),
            IndexSel::Range(a, b) => (self.lower_expr(a, instrs)?, self.lower_expr(b, instrs)?),
            IndexSel::Single(_) => unreachable!("caller checks"),
        })
    }

    fn lower_multi_call(
        &mut self,
        name: &str,
        args: &[Arg],
        targets: &[String],
        span: Span,
        instrs: &mut Vec<Instr>,
    ) -> Result<(), CompileError> {
        if name == "eigen" {
            if targets.len() != 2 || args.len() != 1 {
                return err(
                    span,
                    "eigen returns [values, vectors] and takes one argument",
                );
            }
            let c = self.lower_expr(&args[0].value, instrs)?;
            instrs.push(Instr::multi(Op::Eigen, vec![c], targets.to_vec()).at(Some(span)));
            return Ok(());
        }
        if self.user_functions.contains(name) {
            let inputs = self.user_call_args(name, args, span, instrs)?;
            instrs.push(
                Instr::multi(Op::FCall(name.to_string()), inputs, targets.to_vec()).at(Some(span)),
            );
            return Ok(());
        }
        err(span, format!("'{name}' is not a multi-return function"))
    }

    /// Resolves user-function call arguments (positional + named + defaults)
    /// into positional operands.
    fn user_call_args(
        &mut self,
        name: &str,
        args: &[Arg],
        call_span: Span,
        instrs: &mut Vec<Instr>,
    ) -> Result<Vec<Operand>, CompileError> {
        let fdef = self
            .function_defs
            .iter()
            .find(|f| f.name == name)
            .cloned()
            .ok_or(CompileError::Lower {
                msg: format!("unknown function '{name}'"),
                span: Some(call_span),
            })?;
        let mut slots: Vec<Option<Operand>> = vec![None; fdef.params.len()];
        let mut pos = 0usize;
        for arg in args {
            let idx = match &arg.name {
                Some(n) => {
                    fdef.params
                        .iter()
                        .position(|(p, _)| p == n)
                        .ok_or(CompileError::Lower {
                            msg: format!("function '{name}' has no parameter '{n}'"),
                            span: Some(arg.value.span),
                        })?
                }
                None => {
                    while pos < slots.len() && slots[pos].is_some() {
                        pos += 1;
                    }
                    if pos >= slots.len() {
                        return err(arg.value.span, format!("too many arguments for '{name}'"));
                    }
                    pos
                }
            };
            if slots[idx].is_some() {
                return err(
                    arg.value.span,
                    format!("duplicate argument for parameter {idx} of '{name}'"),
                );
            }
            slots[idx] = Some(self.lower_expr(&arg.value, instrs)?);
        }
        let mut out = Vec::with_capacity(slots.len());
        for (slot, (pname, default)) in slots.into_iter().zip(&fdef.params) {
            match (slot, default) {
                (Some(v), _) => out.push(v),
                (None, Some(d)) => out.push(self.lower_expr(d, instrs)?),
                (None, None) => {
                    return err(
                        call_span,
                        format!("missing argument '{pname}' for '{name}'"),
                    );
                }
            }
        }
        Ok(out)
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Arg],
        span: Span,
        instrs: &mut Vec<Instr>,
    ) -> Result<Operand, CompileError> {
        // User functions first: single-output call in expression position.
        if self.user_functions.contains(name) {
            let inputs = self.user_call_args(name, args, span, instrs)?;
            let out = self.temp();
            instrs.push(
                Instr::multi(Op::FCall(name.to_string()), inputs, vec![out.clone()]).at(Some(span)),
            );
            return Ok(Operand::var(out));
        }

        let mut positional = Vec::new();
        for a in args {
            if a.name.is_none() {
                positional.push(&a.value);
            }
        }
        let named = |n: &str| args.iter().find(|a| a.name.as_deref() == Some(n));

        // A builtin of `$n` positional arguments.
        macro_rules! fixed {
            ($n:literal, $op:expr) => {{
                if positional.len() != $n || args.len() != $n {
                    let count = ["one argument", "two arguments"][$n - 1];
                    return err(span, format!("'{name}' takes {count}"));
                }
                let ins = self.lower_exprs(&positional, instrs)?;
                Ok(self.emit($op, ins, span, instrs))
            }};
        }

        // `sum`, `colMeans`, `rowMaxs`, `exp`, ...: a name that spells its
        // aggregate or cell-wise function.
        let agg = |f: &str| AggFn::from_name(f).filter(|f| *f != AggFn::SumSq);
        let by = |dim: &str| agg(&name.strip_prefix(dim)?.strip_suffix('s')?.to_lowercase());
        let unary = || UnOp::from_opcode(name).filter(|u| !matches!(u, UnOp::Neg | UnOp::Not));
        let spelled = (agg(name).map(Op::FullAgg))
            .or_else(|| by("col").map(Op::ColAgg))
            .or_else(|| by("row").map(Op::RowAgg))
            .or_else(|| unary().map(Op::Unary));
        if let Some(op) = spelled {
            return match (op, positional.len()) {
                (Op::FullAgg(AggFn::Min), 2) => fixed!(2, Op::Binary(BinOp::Min)),
                (Op::FullAgg(AggFn::Max), 2) => fixed!(2, Op::Binary(BinOp::Max)),
                (op, _) => fixed!(1, op),
            };
        }
        match name {
            "t" => fixed!(1, Op::Transpose),
            "rowIndexMax" => fixed!(1, Op::RowIndexMax),
            "nrow" => fixed!(1, Op::Nrow),
            "ncol" => fixed!(1, Op::Ncol),
            "as.scalar" => fixed!(1, Op::CastScalar),
            "as.matrix" => fixed!(1, Op::CastMatrix),
            "rev" => fixed!(1, Op::Rev),
            "diag" => fixed!(1, Op::Diag),
            "solve" => fixed!(2, Op::Solve),
            "table" => fixed!(2, Op::Table),
            "read" => fixed!(1, Op::Read),
            "cbind" | "rbind" => {
                if positional.len() < 2 {
                    return err(span, format!("'{name}' takes at least two arguments"));
                }
                let op = if name == "cbind" {
                    Op::Cbind
                } else {
                    Op::Rbind
                };
                let mut acc = self.lower_expr(positional[0], instrs)?;
                for p in &positional[1..] {
                    let rhs = self.lower_expr(p, instrs)?;
                    acc = self.emit(op.clone(), vec![acc, rhs], span, instrs);
                }
                Ok(acc)
            }
            "matrix" => {
                if positional.len() == 3 {
                    let ins = self.lower_exprs(&positional, instrs)?;
                    Ok(self.emit(Op::Fill, ins, span, instrs))
                } else if positional.len() == 1 {
                    // matrix(X, rows=, cols=): reshape
                    let x = self.lower_expr(positional[0], instrs)?;
                    let (Some(r), Some(c)) = (named("rows"), named("cols")) else {
                        return err(span, "matrix(X, rows=, cols=) requires named dims");
                    };
                    let r = self.lower_expr(&r.value, instrs)?;
                    let c = self.lower_expr(&c.value, instrs)?;
                    Ok(self.emit(Op::Reshape, vec![x, r, c], span, instrs))
                } else {
                    err(span, "matrix() takes (v, rows, cols) or (X, rows=, cols=)")
                }
            }
            "rand" => {
                let get = |n: &str| named(n).map(|a| a.value.clone());
                let lit = |k: ExprKind| Expr::new(k, Span::point(span.end as usize));
                let Some(rows) = get("rows") else {
                    return err(span, "rand requires rows=");
                };
                let Some(cols) = get("cols") else {
                    return err(span, "rand requires cols=");
                };
                let kind = match get("pdf") {
                    None => RandDistKind::Uniform,
                    Some(e) => match &e.kind {
                        ExprKind::Str(s) if s == "normal" => RandDistKind::Normal,
                        ExprKind::Str(s) if s == "uniform" => RandDistKind::Uniform,
                        other => {
                            return err(
                                e.span,
                                format!("rand pdf must be a string literal, got {other:?}"),
                            )
                        }
                    },
                };
                let (p1, p2) = match kind {
                    RandDistKind::Uniform => ("min", "max"),
                    RandDistKind::Normal => ("mean", "sd"),
                };
                let p1 = get(p1).unwrap_or_else(|| lit(ExprKind::Float(0.0)));
                let p2 = get(p2).unwrap_or_else(|| lit(ExprKind::Float(1.0)));
                let sparsity = get("sparsity").unwrap_or_else(|| lit(ExprKind::Float(1.0)));
                let seed = get("seed").unwrap_or_else(|| lit(ExprKind::Int(-1)));
                let ins = vec![
                    self.lower_expr(&rows, instrs)?,
                    self.lower_expr(&cols, instrs)?,
                    self.lower_expr(&p1, instrs)?,
                    self.lower_expr(&p2, instrs)?,
                    self.lower_expr(&sparsity, instrs)?,
                    self.lower_expr(&seed, instrs)?,
                ];
                Ok(self.emit(Op::Rand(kind), ins, span, instrs))
            }
            "sample" | "seq" => {
                let (op, last, usage) = match name {
                    "sample" => (
                        Op::Sample,
                        Operand::i64(-1),
                        "sample takes (range, size[, seed])",
                    ),
                    _ => (Op::Seq, Operand::f64(1.0), "seq takes (from, to[, by])"),
                };
                if !(2..=3).contains(&positional.len()) {
                    return err(span, usage);
                }
                let mut ins = self.lower_exprs(&positional, instrs)?;
                if ins.len() == 2 {
                    ins.push(last);
                }
                Ok(self.emit(op, ins, span, instrs))
            }
            "order" => {
                if positional.is_empty() {
                    return err(span, "order takes (V[, decreasing])");
                }
                let v = self.lower_expr(positional[0], instrs)?;
                let dec = match named("decreasing") {
                    Some(a) => self.lower_expr(&a.value, instrs)?,
                    None if positional.len() > 1 => self.lower_expr(positional[1], instrs)?,
                    None => Operand::bool(false),
                };
                Ok(self.emit(Op::Order, vec![v, dec], span, instrs))
            }
            "list" => {
                let ins = self.lower_exprs(&positional, instrs)?;
                Ok(self.emit(Op::ListNew, ins, span, instrs))
            }
            "getElement" => fixed!(2, Op::ListGet),
            "toString" => {
                if positional.len() != 1 {
                    return err(span, "toString takes one argument");
                }
                let v = self.lower_expr(positional[0], instrs)?;
                Ok(self.emit(Op::Concat, vec![Operand::str(""), v], span, instrs))
            }
            "lineage" => {
                if positional.len() != 1 {
                    return err(span, "lineage takes one variable argument");
                }
                let ExprKind::Var(v) = &positional[0].kind else {
                    return err(
                        positional[0].span,
                        "lineage() requires a variable, not an expression",
                    );
                };
                Ok(self.emit(Op::LineageOf, vec![Operand::var(v)], span, instrs))
            }
            "eigen" => err(span, "eigen must be used as [evals, evects] = eigen(C)"),
            other => err(span, format!("unknown function '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_runtime::{execute_program, ExecutionContext};

    fn run_src(src: &str, cfg: LimaConfig) -> ExecutionContext {
        let program = compile_script(src, &cfg).expect("compiles");
        let mut ctx = ExecutionContext::new(cfg);
        execute_program(&program, &mut ctx).expect("runs");
        ctx
    }

    #[test]
    fn arithmetic_and_assignment() {
        let ctx = run_src(
            "x = 2 + 3 * 4; y = (2 + 3) * 4; z = 2 ^ 3 ^ 2;",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["x"].as_f64().unwrap(), 14.0);
        assert_eq!(ctx.symtab["y"].as_f64().unwrap(), 20.0);
        // right-associative: 2^(3^2) = 512
        assert_eq!(ctx.symtab["z"].as_f64().unwrap(), 512.0);
    }

    #[test]
    fn matrices_and_builtins() {
        let ctx = run_src(
            "X = matrix(2.0, 3, 4);
             s = sum(X);
             c = colSums(X);
             n = nrow(X) * ncol(X);",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["s"].as_f64().unwrap(), 24.0);
        assert_eq!(ctx.symtab["c"].as_matrix().unwrap().shape(), (1, 4));
        assert_eq!(ctx.symtab["n"].as_f64().unwrap(), 12.0);
    }

    #[test]
    fn tsmm_peephole_fires() {
        let program = compile_script("G = t(X) %*% X;", &LimaConfig::base()).unwrap();
        match &program.body[0] {
            Block::Basic { instrs, .. } => {
                assert_eq!(instrs.len(), 1);
                assert!(matches!(instrs[0].op, Op::Tsmm(TsmmSide::Left)));
            }
            _ => panic!(),
        }
        let program = compile_script("G = X %*% t(X);", &LimaConfig::base()).unwrap();
        match &program.body[0] {
            Block::Basic { instrs, .. } => {
                assert!(matches!(instrs[0].op, Op::Tsmm(TsmmSide::Right)));
            }
            _ => panic!(),
        }
        // Different operands: one `t(X) %*% Y` instruction, no transpose.
        let program = compile_script("G = t(X) %*% Y;", &LimaConfig::base()).unwrap();
        match &program.body[0] {
            Block::Basic { instrs, .. } => {
                assert_eq!(instrs.len(), 1);
                assert!(matches!(instrs[0].op, Op::TMatMult));
                assert_eq!(instrs[0].reads().collect::<Vec<_>>(), ["X", "Y"]);
            }
            _ => panic!(),
        }
        // A transposed right operand is still a transpose and a product.
        let program = compile_script("G = X %*% t(Y);", &LimaConfig::base()).unwrap();
        match &program.body[0] {
            Block::Basic { instrs, .. } => {
                assert!(instrs.iter().any(|i| matches!(i.op, Op::Transpose)));
                assert!(instrs.iter().any(|i| matches!(i.op, Op::MatMult)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn control_flow_executes() {
        let ctx = run_src(
            "s = 0; for (i in 1:10) { s = s + i; }
             if (s == 55) { ok = 1; } else { ok = 0; }
             w = 1; while (w < 100) { w = w * 3; }",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["s"].as_f64().unwrap(), 55.0);
        assert_eq!(ctx.symtab["ok"].as_f64().unwrap(), 1.0);
        assert_eq!(ctx.symtab["w"].as_f64().unwrap(), 243.0);
    }

    #[test]
    fn indexing_forms_execute() {
        let ctx = run_src(
            "X = rand(rows=6, cols=5, seed=3);
             a = X[2:4, 1:2];
             b = X[, 3];
             c = X[5, ];
             s = sample(5, 3, 7);
             d = X[, s];",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["a"].as_matrix().unwrap().shape(), (3, 2));
        assert_eq!(ctx.symtab["b"].as_matrix().unwrap().shape(), (6, 1));
        assert_eq!(ctx.symtab["c"].as_matrix().unwrap().shape(), (1, 5));
        assert_eq!(ctx.symtab["d"].as_matrix().unwrap().shape(), (6, 3));
    }

    #[test]
    fn indexed_assignment_executes() {
        let ctx = run_src(
            "B = matrix(0.0, 3, 3);
             B[2, ] = matrix(7.0, 1, 3);
             B[1, 1] = as.matrix(5);",
            LimaConfig::base(),
        );
        let b = ctx.symtab["B"].as_matrix().unwrap();
        assert_eq!(b.get(1, 0), 7.0);
        assert_eq!(b.get(0, 0), 5.0);
    }

    #[test]
    fn functions_with_defaults_and_named_args() {
        let ctx = run_src(
            "f = function(X, scale = 2.0) return (Y) { Y = X * scale; }
             A = matrix(3.0, 2, 2);
             B = f(A);
             C = f(A, scale = 10.0);
             D = f(scale = 4.0, X = A);",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["B"].as_matrix().unwrap().get(0, 0), 6.0);
        assert_eq!(ctx.symtab["C"].as_matrix().unwrap().get(0, 0), 30.0);
        assert_eq!(ctx.symtab["D"].as_matrix().unwrap().get(0, 0), 12.0);
    }

    #[test]
    fn multi_return_functions() {
        let ctx = run_src(
            "split = function(X) return (a, b) {
                a = X[1:2, ]; b = X[3:4, ];
             }
             X = rand(rows=4, cols=3, seed=1);
             [top, bottom] = split(X);",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["top"].as_matrix().unwrap().shape(), (2, 3));
        assert_eq!(ctx.symtab["bottom"].as_matrix().unwrap().shape(), (2, 3));
    }

    #[test]
    fn eigen_multi_assign() {
        let ctx = run_src(
            "C = matrix(0.0, 2, 2);
             C[1, 1] = as.matrix(2); C[2, 2] = as.matrix(5);
             [evals, evects] = eigen(C);",
            LimaConfig::base(),
        );
        assert_eq!(ctx.symtab["evals"].as_matrix().unwrap().shape(), (2, 1));
    }

    #[test]
    fn parfor_executes_in_parallel() {
        let ctx = run_src(
            "B = matrix(0.0, 8, 2);
             parfor (i in 1:8) {
                B[i, ] = matrix(1.0, 1, 2) * i;
             }",
            LimaConfig::lima(),
        );
        let b = ctx.symtab["B"].as_matrix().unwrap();
        for i in 0..8 {
            assert_eq!(b.get(i, 0), (i + 1) as f64);
        }
    }

    #[test]
    fn print_and_string_concat() {
        let ctx = run_src("x = 2; print('x = ' + toString(x));", LimaConfig::base());
        assert_eq!(ctx.stdout, vec!["x = 2"]);
    }

    #[test]
    fn compile_errors_are_reported() {
        assert!(compile_script("x = unknownFn(1)", &LimaConfig::base()).is_err());
        assert!(compile_script("x = rand(cols=2)", &LimaConfig::base()).is_err());
        assert!(compile_script(
            "f = function(a) return (b) { b = a; } x = f()",
            &LimaConfig::base()
        )
        .is_err());
        assert!(compile_script(
            "f = function(a) return (b) { b = a; } x = f(1, 2)",
            &LimaConfig::base()
        )
        .is_err());
        assert!(compile_script("x = eigen(C)", &LimaConfig::base()).is_err());
        assert!(compile_script("x = 1 +", &LimaConfig::base()).is_err());
    }

    #[test]
    fn compile_errors_carry_spans_and_codes() {
        // Lowering error: the unknown call's span is anchored on the call.
        let src = "x = unknownFn(1);";
        let err = compile_script(src, &LimaConfig::base()).unwrap_err();
        let d = err.diagnostic();
        assert_eq!(d.code, "L0003");
        let span = d.primary.expect("lowering errors carry a span");
        assert_eq!(&src[span.start as usize..span.end as usize], "unknownFn(1)");

        // Parse errors survive the From conversion intact (no stringifying).
        let err = compile_script("x = 1 +", &LimaConfig::base()).unwrap_err();
        match &err {
            CompileError::Parse(p) => {
                assert_eq!(p.code, "L0002");
                assert!(p.span.in_bounds("x = 1 +".len()));
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
        assert_eq!(err.diagnostic().code, "L0002");

        // Analysis errors keep the structured violation and gain a span.
        let src = "R = matrix(0, 4, 1);\nparfor (i in 1:4) { R[1, 1] = as.matrix(i); }";
        let err = compile_script(src, &LimaConfig::lima()).unwrap_err();
        let d = err.diagnostic();
        assert_eq!(d.code, "L0100");
        let span = d.primary.expect("parfor dependence carries a span");
        assert!(span.in_bounds(src.len()));
        assert!(
            &src[span.start as usize..span.end as usize].contains("R[1, 1]"),
            "span should cover the racy write, got {:?}",
            &src[span.start as usize..span.end as usize]
        );
    }

    #[test]
    fn lineage_builtin_returns_serialized_log() {
        let ctx = run_src(
            "X = matrix(1.0, 2, 2);
             Y = X + X;
             l = lineage(Y);
             print(l);",
            LimaConfig::lima(),
        );
        let log = ctx.stdout.join("");
        assert!(log.contains("::out"), "log: {log}");
        assert!(log.contains(" I +"), "log: {log}");
        // The printed log deserializes back into a valid lineage DAG.
        assert!(lima_core::lineage::serialize::deserialize_lineage(&log).is_ok());
        // lineage() on an expression is a compile error; without tracing it
        // is a runtime error.
        assert!(compile_script("l = lineage(1 + 2);", &LimaConfig::base()).is_err());
        let program = compile_script(
            "X = matrix(1.0, 1, 1); l = lineage(X);",
            &LimaConfig::base(),
        )
        .unwrap();
        let mut c = lima_runtime::ExecutionContext::new(LimaConfig::base());
        assert!(lima_runtime::execute_program(&program, &mut c).is_err());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a1 = compile_script_uncompiled("x = 1").unwrap();
        let a2 = compile_script_uncompiled("x = 1").unwrap();
        let b = compile_script_uncompiled("x = 2").unwrap();
        assert_eq!(a1.fingerprint, a2.fingerprint);
        assert_ne!(a1.fingerprint, b.fingerprint);
    }

    #[test]
    fn string_plus_concatenates_at_runtime() {
        // `+` with a string operand must concatenate, mirroring DML.
        let ctx = run_src("msg = 'n=' + 5; print(msg);", LimaConfig::base());
        assert_eq!(ctx.stdout, vec!["n=5"]);
    }
}
