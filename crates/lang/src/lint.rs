//! Builds the IR-agnostic [`LintModel`] from a parsed script plus its
//! lowered program, and drives the `lima-analysis` lint registry over it
//! (DESIGN.md §14).
//!
//! The split mirrors the determinism/parfor analyses: `lima-analysis` owns
//! the decision procedures and knows nothing about the AST or the runtime
//! IR; this module lowers both views (source-level events from the AST,
//! determinism sources and cache marks from the compiled program) into the
//! model the passes consume.

use crate::ast::{Expr, ExprKind, IndexSel, Script, Stmt, StmtKind};
use crate::compile::{lower_script, CompileError};
use crate::parser::parse;
use lima_analysis::lint::{LintEvent, LintFunction, LintModel, LintOp, LintRegistry};
use lima_analysis::ClassSource;
use lima_core::opcodes::{classify_opcode, OpClass};
use lima_core::{sort_diagnostics, Diagnostic, LimaConfig, Span};
use lima_runtime::compiler::instr_class_source;
use lima_runtime::program::walk_blocks;
use lima_runtime::{Block, Instr, Program};

/// Parses, lowers, compiles, and lints a script. Parse/lowering/analysis
/// errors come back as diagnostics (`L0001`–`L0100`) alongside any lint
/// findings; a clean script returns an empty vector.
pub fn lint_script(src: &str, config: &LimaConfig) -> Vec<Diagnostic> {
    let ast = match parse(src) {
        Ok(a) => a,
        Err(e) => return vec![e.diagnostic()],
    };
    let mut program = match lower_script(&ast, src) {
        Ok(p) => p,
        Err(e) => return e.diagnostics(),
    };
    let mut diags = Vec::new();
    if let Err(e) = lima_runtime::compiler::compile(&mut program, config) {
        // Static-analysis rejection: report it, then keep linting the
        // (partially analyzed) program so one error doesn't hide the rest.
        diags.extend(CompileError::Analysis(e).diagnostics());
    }
    let model = build_model(&ast, &program);
    diags.extend(LintRegistry::with_default_passes().run(&model));
    sort_diagnostics(&mut diags);
    diags
}

/// Lowers the AST + compiled program into the model the lint passes run on.
pub fn build_model(ast: &Script, program: &Program) -> LintModel {
    let mut functions = Vec::new();
    for fdef in &ast.functions {
        let mut sources = Vec::new();
        if let Some(f) = program.functions.get(&fdef.name) {
            collect_spanned_sources(&f.body, &mut sources);
        }
        functions.push(LintFunction {
            name: fdef.name.clone(),
            name_span: Some(fdef.name_span),
            params: fdef.params.iter().map(|(n, _)| n.clone()).collect(),
            outputs: fdef.outputs.clone(),
            sources,
            body: stmts_to_events(&fdef.body),
        });
    }
    let mut ops = Vec::new();
    collect_ops(&program.body, &mut ops);
    // AST order keeps the model deterministic (the registry sorts findings,
    // but stable input order makes label choices reproducible too).
    for fdef in &ast.functions {
        if let Some(f) = program.functions.get(&fdef.name) {
            collect_ops(&f.body, &mut ops);
        }
    }
    LintModel {
        functions,
        body: stmts_to_events(&ast.body),
        ops,
    }
}

// -------------------------------------------------- AST → event lowering

fn expr_reads(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_) => {}
        ExprKind::Var(v) => out.push(v.clone()),
        ExprKind::Neg(inner) | ExprKind::Not(inner) => expr_reads(inner, out),
        ExprKind::Binary(_, a, b) | ExprKind::MatMul(a, b) => {
            expr_reads(a, out);
            expr_reads(b, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                expr_reads(&a.value, out);
            }
        }
        ExprKind::Index { base, rows, cols } => {
            expr_reads(base, out);
            sel_reads(rows, out);
            sel_reads(cols, out);
        }
    }
}

fn sel_reads(sel: &IndexSel, out: &mut Vec<String>) {
    match sel {
        IndexSel::All => {}
        IndexSel::Single(e) => expr_reads(e, out),
        IndexSel::Range(a, b) => {
            expr_reads(a, out);
            expr_reads(b, out);
        }
    }
}

fn reads_of(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    expr_reads(e, &mut out);
    out
}

/// Integer value of a literal expression (for constant trip counts).
fn lit_i64(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::Int(v) => Some(*v),
        ExprKind::Float(v) if v.fract() == 0.0 => Some(*v as i64),
        ExprKind::Neg(inner) => lit_i64(inner).map(|v| -v),
        _ => None,
    }
}

fn const_trip(from: &Expr, to: &Expr, by: Option<&Expr>) -> Option<i64> {
    let f = lit_i64(from)?;
    let t = lit_i64(to)?;
    let b = match by {
        Some(e) => lit_i64(e)?,
        None => 1,
    };
    match b {
        0 => None,
        b if b > 0 => Some(if t >= f { (t - f) / b + 1 } else { 0 }),
        b => Some(if t <= f { (f - t) / (-b) + 1 } else { 0 }),
    }
}

fn stmts_to_events(stmts: &[Stmt]) -> Vec<LintEvent> {
    let mut out = Vec::new();
    for stmt in stmts {
        let span = Some(stmt.span);
        match &stmt.kind {
            StmtKind::Assign { target, value, .. } => out.push(LintEvent::Assign {
                var: target.clone(),
                span,
                reads: reads_of(value),
            }),
            StmtKind::MultiAssign { targets, call } => {
                let reads = reads_of(call);
                for t in targets {
                    out.push(LintEvent::Assign {
                        var: t.clone(),
                        span,
                        reads: reads.clone(),
                    });
                }
            }
            StmtKind::IndexAssign {
                target,
                rows,
                cols,
                value,
                ..
            } => {
                // An indexed write preserves untouched cells, so it reads
                // the target as well as the indices and the value.
                let mut reads = vec![target.clone()];
                sel_reads(rows, &mut reads);
                sel_reads(cols, &mut reads);
                expr_reads(value, &mut reads);
                out.push(LintEvent::Assign {
                    var: target.clone(),
                    span,
                    reads,
                });
            }
            StmtKind::Print(e) => out.push(LintEvent::Read { vars: reads_of(e) }),
            StmtKind::Write(e, p) => {
                let mut vars = reads_of(e);
                expr_reads(p, &mut vars);
                out.push(LintEvent::Read { vars });
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => out.push(LintEvent::Branch {
                cond_reads: reads_of(cond),
                arms: vec![stmts_to_events(then_body), stmts_to_events(else_body)],
            }),
            StmtKind::While { cond, body } => out.push(LintEvent::Branch {
                cond_reads: reads_of(cond),
                arms: vec![stmts_to_events(body)],
            }),
            StmtKind::For {
                var,
                var_span,
                from,
                to,
                by,
                body,
                parallel,
            } => {
                let mut bound_reads = reads_of(from);
                expr_reads(to, &mut bound_reads);
                if let Some(b) = by {
                    expr_reads(b, &mut bound_reads);
                }
                let header_end = by.as_ref().map(|b| b.span.end).unwrap_or(to.span.end);
                out.push(LintEvent::Loop {
                    var: var.clone(),
                    var_span: Some(*var_span),
                    header_span: Some(Span::new(stmt.span.start, header_end)),
                    parallel: *parallel,
                    const_trip: const_trip(from, to, by.as_ref()),
                    bound_reads,
                    body: stmts_to_events(body),
                });
            }
        }
    }
    out
}

// ------------------------------------------- lowered program → model parts

fn collect_spanned_sources(blocks: &[Block], out: &mut Vec<(ClassSource, Option<Span>)>) {
    walk_blocks(blocks, &mut |b| {
        out.extend(b.own_instrs().map(|i| (instr_class_source(i), i.span)));
    });
}

fn op_of(i: &Instr) -> LintOp {
    let opcode = i.op.opcode();
    let class = match instr_class_source(i) {
        ClassSource::Fixed(c) => c,
        // A call's own frame is pure; its body is analyzed separately.
        ClassSource::Call(_) => OpClass::Deterministic,
    };
    LintOp {
        class: if i.op.has_side_effects() {
            OpClass::SideEffecting
        } else {
            class.max(classify_opcode(&opcode))
        },
        opcode: opcode.into_owned(),
        no_cache: i.no_cache,
        has_outputs: !i.outputs.is_empty(),
        span: i.span,
    }
}

fn collect_ops(blocks: &[Block], out: &mut Vec<LintOp>) {
    walk_blocks(blocks, &mut |b| out.extend(b.own_instrs().map(op_of)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_script(src, &LimaConfig::lima())
    }

    fn codes(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_script_has_no_findings() {
        let ds = lint(
            "X = rand(rows=8, cols=4, seed=7);
             G = t(X) %*% X;
             s = sum(G);
             print(s);",
        );
        assert!(ds.is_empty(), "expected clean, got {ds:?}");
    }

    #[test]
    fn parse_errors_become_l0002_diagnostics() {
        let ds = lint("x = ;");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "L0002");
        assert!(ds[0].primary.is_some());
    }

    #[test]
    fn racy_parfor_reports_l0100_with_write_span() {
        let src = "R = matrix(0, 4, 1);
parfor (i in 1:4) {
  R[1, 1] = as.matrix(i);
}";
        let ds = lint(src);
        assert!(codes(&ds).contains(&"L0100"), "got {ds:?}");
        let d = ds.iter().find(|d| d.code == "L0100").expect("L0100");
        let span = d.primary.expect("span");
        assert_eq!(
            &src[span.start as usize..span.end as usize],
            "R[1, 1] = as.matrix(i)"
        );
    }

    #[test]
    fn reuse_ineligible_function_reports_l0201_at_definition() {
        let src = "noisy = function(n) return (Y) {
  Y = rand(rows=n, cols=1);
}
A = noisy(3);
print(sum(A));";
        let ds = lint(src);
        let d = ds.iter().find(|d| d.code == "L0201").expect("L0201");
        let span = d.primary.expect("span");
        assert_eq!(&src[span.start as usize..span.end as usize], "noisy");
        // The offending rand call is labeled.
        assert!(!d.labels.is_empty(), "got {d:?}");
        let lab = &d.labels[0];
        assert!(&src[lab.span.start as usize..lab.span.end as usize].starts_with("rand"));
    }

    #[test]
    fn seeded_rand_keeps_function_eligible() {
        let ds = lint(
            "f = function(n) return (Y) { Y = rand(rows=n, cols=1, seed=42); }
             A = f(3);
             print(sum(A));",
        );
        assert!(
            !codes(&ds).contains(&"L0201"),
            "literal seed is deterministic: {ds:?}"
        );
    }

    #[test]
    fn unused_function_result_reports_l0202() {
        let ds = lint(
            "f = function(X) return (Y) {
               waste = sum(X);
               Y = X * 2;
             }
             A = f(matrix(1.0, 2, 2));
             print(sum(A));",
        );
        let d = ds.iter().find(|d| d.code == "L0202").expect("L0202");
        assert!(d.message.contains("'waste'"));
    }

    #[test]
    fn dead_store_reports_l0203_with_overwrite_label() {
        let src = "x = sum(matrix(1.0, 2, 2));
x = 5;
print(x);";
        let ds = lint(src);
        let d = ds.iter().find(|d| d.code == "L0203").expect("L0203");
        let span = d.primary.expect("span");
        assert_eq!(
            &src[span.start as usize..span.end as usize],
            "x = sum(matrix(1.0, 2, 2))"
        );
        assert_eq!(d.labels.len(), 1);
    }

    #[test]
    fn accumulator_loops_are_not_dead_stores() {
        let ds = lint(
            "s = 0;
             for (i in 1:10) { s = s + i; }
             print(s);",
        );
        assert!(ds.is_empty(), "accumulator is read in the loop: {ds:?}");
    }

    #[test]
    fn loop_variable_shadowing_reports_l0204() {
        let src = "i = 7;
for (i in 1:3) { print(i); }
print(i);";
        let ds = lint(src);
        let d = ds.iter().find(|d| d.code == "L0204").expect("L0204");
        let span = d.primary.expect("span");
        assert_eq!(&src[span.start as usize..span.end as usize], "i");
        assert_eq!(span.start as usize, src.find("(i in").expect("header") + 1);
    }

    #[test]
    fn tiny_constant_trip_parfor_reports_l0206() {
        let src = "R = matrix(0, 2, 1);
parfor (i in 1:2) {
  R[i, 1] = as.matrix(i);
}
print(sum(R));";
        let ds = lint(src);
        let d = ds.iter().find(|d| d.code == "L0206").expect("L0206");
        assert_eq!(d.severity, lima_core::Severity::Note);
        let span = d.primary.expect("span");
        assert_eq!(
            &src[span.start as usize..span.end as usize],
            "parfor (i in 1:2"
        );
        // A large trip count stays quiet.
        let ds = lint(
            "R = matrix(0, 64, 1);
             parfor (i in 1:64) { R[i, 1] = as.matrix(i); }
             print(sum(R));",
        );
        assert!(!codes(&ds).contains(&"L0206"), "got {ds:?}");
    }

    #[test]
    fn findings_are_sorted_by_source_position() {
        let ds = lint(
            "a = 1;
             a = 2;
             b = sum(matrix(1.0, 2, 2));
             b = 3;
             print(a + b);",
        );
        let spans: Vec<u32> = ds
            .iter()
            .filter_map(|d| d.primary)
            .map(|s| s.start)
            .collect();
        let mut sorted = spans.clone();
        sorted.sort_unstable();
        assert_eq!(spans, sorted);
        assert_eq!(codes(&ds), vec!["L0203", "L0203"]);
    }
}
