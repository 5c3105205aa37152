//! Script lints (DESIGN.md §14): six plain passes over a parsed script and
//! its compiled program, which [`lint_script`] runs in a fixed order.
//!
//! The source-level passes walk a private event form of the AST
//! (assignments, reads, loops and branches, each with its span). The
//! program-level passes read what the compiler decided: each function's
//! determinism class and each instruction's cache mark. Nothing here
//! classifies an operation or solves the call graph again.
//!
//! | code    | severity | finding                                           |
//! |---------|----------|---------------------------------------------------|
//! | `L0201` | warning  | function ineligible for lineage reuse             |
//! | `L0202` | warning  | assigned value never used inside a function       |
//! | `L0203` | warning  | dead store (overwritten before any read)          |
//! | `L0204` | warning  | loop variable shadows an existing variable        |
//! | `L0205` | note     | redundant `no_cache` on a never-cached operation  |
//! | `L0206` | note     | `parfor` with a tiny constant trip count          |

use crate::ast::{Expr, ExprKind, IndexSel, Script, Stmt, StmtKind};
use crate::compile::{lower_script, CompileError};
use crate::parser::parse;
use lima_analysis::ClassSource;
use lima_core::opcodes::OpClass;
use lima_core::{sort_diagnostics, Diagnostic, LimaConfig, Span};
use lima_runtime::compiler::instr_class_source;
use lima_runtime::program::walk_blocks;
use lima_runtime::{Block, Instr, Program};
use std::collections::{HashMap, HashSet};

/// Parses, lowers, compiles, and lints a script. Parse/lowering/analysis
/// errors come back as diagnostics (`L0001`–`L0100`) alongside any lint
/// findings, in source order; a clean script returns an empty vector.
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
    let input = Input {
        ast: &ast,
        program: &program,
        body: events(&ast.body),
        functions: ast.functions.iter().map(|f| events(&f.body)).collect(),
    };
    reuse_eligibility(&input, &mut diags);
    unused_results(&input, &mut diags);
    dead_stores(&input, &mut diags);
    shadowing(&input, &mut diags);
    redundant_no_cache(&input, &mut diags);
    tiny_parfors(&input, &mut diags);
    sort_diagnostics(&mut diags);
    diags
}

/// What the passes read: the script, its compiled program, and the event
/// form of the script body and of each function body (`functions[k]` is
/// `ast.functions[k]`'s).
struct Input<'a> {
    ast: &'a Script,
    program: &'a Program,
    body: Vec<Event>,
    functions: Vec<Vec<Event>>,
}

impl Input<'_> {
    /// The script body's events, then each function body's.
    fn scopes(&self) -> impl Iterator<Item = &[Event]> {
        std::iter::once(&self.body)
            .chain(&self.functions)
            .map(Vec::as_slice)
    }
}

/// One statement of a region, in source order.
enum Event {
    /// A whole or indexed assignment (an indexed write lists its target
    /// among `reads`, since it keeps the cells it does not touch).
    Assign {
        var: String,
        span: Span,
        /// Variables read by the right-hand side and the indices.
        reads: Vec<String>,
    },
    /// A `print` or `write`.
    Read(Vec<String>),
    /// A `for` or `parfor` loop.
    Loop {
        var: String,
        /// The loop-variable name in the header.
        var_span: Span,
        /// The header, keyword through bounds.
        header_span: Span,
        parallel: bool,
        /// Trip count when all bounds are integer literals.
        const_trip: Option<i64>,
        bound_reads: Vec<String>,
        body: Vec<Event>,
    },
    /// An `if`/`else`, or a `while` loop as one arm whose events may repeat.
    Branch {
        cond_reads: Vec<String>,
        arms: Vec<Vec<Event>>,
    },
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

fn events(stmts: &[Stmt]) -> Vec<Event> {
    let mut out = Vec::new();
    for stmt in stmts {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::Assign { target, value, .. } => out.push(Event::Assign {
                var: target.clone(),
                span,
                reads: reads_of(value),
            }),
            StmtKind::MultiAssign { targets, call } => {
                let reads = reads_of(call);
                out.extend(targets.iter().map(|t| Event::Assign {
                    var: t.clone(),
                    span,
                    reads: reads.clone(),
                }));
            }
            StmtKind::IndexAssign {
                target,
                rows,
                cols,
                value,
                ..
            } => {
                let mut reads = vec![target.clone()];
                sel_reads(rows, &mut reads);
                sel_reads(cols, &mut reads);
                expr_reads(value, &mut reads);
                out.push(Event::Assign {
                    var: target.clone(),
                    span,
                    reads,
                });
            }
            StmtKind::Print(e) => out.push(Event::Read(reads_of(e))),
            StmtKind::Write(e, p) => {
                let mut vars = reads_of(e);
                expr_reads(p, &mut vars);
                out.push(Event::Read(vars));
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => out.push(Event::Branch {
                cond_reads: reads_of(cond),
                arms: vec![events(then_body), events(else_body)],
            }),
            StmtKind::While { cond, body } => out.push(Event::Branch {
                cond_reads: reads_of(cond),
                arms: vec![events(body)],
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
                let header_end = by.as_ref().map_or(to.span.end, |b| b.span.end);
                out.push(Event::Loop {
                    var: var.clone(),
                    var_span: *var_span,
                    header_span: Span::new(span.start, header_end),
                    parallel: *parallel,
                    const_trip: const_trip(from, to, by.as_ref()),
                    bound_reads,
                    body: events(body),
                });
            }
        }
    }
    out
}

// ------------------------------------------------------------ event helpers

/// True when any event in the region (recursively) reads *or writes* `var` —
/// used as a conservative barrier for the dead-store scan.
fn region_touches(events: &[Event], var: &str) -> bool {
    events.iter().any(|e| match e {
        Event::Assign { var: v, reads, .. } => v == var || reads.iter().any(|r| r == var),
        Event::Read(vars) => vars.iter().any(|r| r == var),
        Event::Loop {
            var: lv,
            bound_reads,
            body,
            ..
        } => lv == var || bound_reads.iter().any(|r| r == var) || region_touches(body, var),
        Event::Branch { cond_reads, arms } => {
            cond_reads.iter().any(|r| r == var) || arms.iter().any(|a| region_touches(a, var))
        }
    })
}

/// Collects every variable read anywhere in the region.
fn collect_reads<'a>(events: &'a [Event], out: &mut HashSet<&'a str>) {
    for e in events {
        match e {
            Event::Assign { reads, .. } | Event::Read(reads) => {
                out.extend(reads.iter().map(String::as_str))
            }
            Event::Loop {
                bound_reads, body, ..
            } => {
                out.extend(bound_reads.iter().map(String::as_str));
                collect_reads(body, out);
            }
            Event::Branch { cond_reads, arms } => {
                out.extend(cond_reads.iter().map(String::as_str));
                for a in arms {
                    collect_reads(a, out);
                }
            }
        }
    }
}

/// Collects the first assignment site of every variable in the region.
fn collect_first_assigns<'a>(events: &'a [Event], out: &mut Vec<(&'a str, Span)>) {
    for e in events {
        match e {
            Event::Assign { var, span, .. } => {
                if !out.iter().any(|(v, _)| v == var) {
                    out.push((var, *span));
                }
            }
            Event::Loop { body, .. } => collect_first_assigns(body, out),
            Event::Branch { arms, .. } => {
                for a in arms {
                    collect_first_assigns(a, out);
                }
            }
            Event::Read(_) => {}
        }
    }
}

/// Every instruction of `blocks`, in the order the compiler walks them.
fn instrs(blocks: &[Block]) -> Vec<&Instr> {
    let mut out = Vec::new();
    walk_blocks(blocks, &mut |b| out.extend(b.own_instrs()));
    out
}

fn class_phrase(c: OpClass) -> &'static str {
    match c {
        OpClass::Deterministic => "deterministic",
        OpClass::Seeded => "seeded",
        OpClass::NonDeterministic => "non-deterministic",
        OpClass::SideEffecting => "side-effecting",
    }
}

// ------------------------------------------------------------------- passes

/// `L0201`: a function whose compiled class is not `Deterministic` is
/// excluded from function-level lineage reuse (paper §4.1); warn at the
/// definition with the first offending call or operation labeled.
fn reuse_eligibility(input: &Input, out: &mut Vec<Diagnostic>) {
    let functions = &input.program.functions;
    let classes: HashMap<String, OpClass> = functions
        .iter()
        .map(|(n, f)| (n.clone(), f.class))
        .collect();
    for fdef in &input.ast.functions {
        let Some(f) = functions.get(&fdef.name) else {
            continue;
        };
        if f.class == OpClass::Deterministic {
            continue;
        }
        let mut d = Diagnostic::warning(
            "L0201",
            format!(
                "function '{}' is {} and ineligible for lineage reuse",
                fdef.name,
                class_phrase(f.class)
            ),
        )
        .with_span(fdef.name_span);
        let offender = instrs(&f.body).into_iter().find_map(|i| {
            let source = instr_class_source(i);
            (source.eval(&classes) != OpClass::Deterministic).then_some((source, i.span))
        });
        if let Some((source, Some(span))) = offender {
            let what = match &source {
                ClassSource::Fixed(c) => format!("this {} operation", class_phrase(*c)),
                ClassSource::Call(callee) => format!(
                    "this call to '{callee}' ({})",
                    class_phrase(source.eval(&classes))
                ),
            };
            d = d.with_label(
                span,
                format!("{what} makes the enclosing function reuse-ineligible"),
            );
        }
        out.push(d.with_help(
            "function results are memoized by lineage only when the body is \
             deterministic; pin seeds or hoist the effect out of the function",
        ));
    }
}

/// `L0202`: a variable assigned inside a function body that is never read
/// and is not an output — the computation (and its lineage) is wasted.
fn unused_results(input: &Input, out: &mut Vec<Diagnostic>) {
    for (fdef, body) in input.ast.functions.iter().zip(&input.functions) {
        let mut reads = HashSet::new();
        collect_reads(body, &mut reads);
        let mut assigns = Vec::new();
        collect_first_assigns(body, &mut assigns);
        for (var, span) in assigns {
            if reads.contains(var) || fdef.outputs.iter().any(|o| o == var) {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    "L0202",
                    format!(
                        "value assigned to '{var}' in function '{}' is never used",
                        fdef.name
                    ),
                )
                .with_span(span)
                .with_help(
                    "the result is neither read nor returned; \
                     remove the assignment or add it to the outputs",
                ),
            );
        }
    }
}

/// `L0203`: an assignment overwritten by a later same-scope assignment with
/// no intervening read — the first store is dead.
fn dead_stores(input: &Input, out: &mut Vec<Diagnostic>) {
    for scope in input.scopes() {
        scan_dead_stores(scope, out);
    }
}

fn scan_dead_stores(events: &[Event], out: &mut Vec<Diagnostic>) {
    for (i, e) in events.iter().enumerate() {
        // Nested regions first.
        match e {
            Event::Loop { body, .. } => scan_dead_stores(body, out),
            Event::Branch { arms, .. } => {
                for a in arms {
                    scan_dead_stores(a, out);
                }
            }
            _ => {}
        }
        let Event::Assign { var, span, .. } = e else {
            continue;
        };
        for later in &events[i + 1..] {
            if let Event::Assign {
                var: v2,
                span: span2,
                reads,
            } = later
            {
                if v2 == var {
                    if !reads.iter().any(|r| r == var) {
                        out.push(
                            Diagnostic::warning(
                                "L0203",
                                format!(
                                    "value assigned to '{var}' is overwritten before it is read"
                                ),
                            )
                            .with_span(*span)
                            .with_label(*span2, "overwritten here")
                            .with_help(
                                "the first assignment is a dead store; \
                                 its result (and lineage) is discarded",
                            ),
                        );
                    }
                    break;
                }
            }
            // Any other touch of the variable (read, or a conditional /
            // nested write we cannot order) ends the scan conservatively.
            if region_touches(std::slice::from_ref(later), var) {
                break;
            }
        }
    }
}

/// `L0204`: a loop variable that shadows an existing variable. The outer
/// value keeps its lineage, but reads inside the loop silently resolve to
/// the iteration counter — a classic source of wrong-but-plausible results.
fn shadowing(input: &Input, out: &mut Vec<Diagnostic>) {
    walk_shadowing(&input.body, &mut HashMap::new(), out);
    for (fdef, body) in input.ast.functions.iter().zip(&input.functions) {
        // Parameters are defined, but have no assignment to point at.
        let mut defined = fdef
            .params
            .iter()
            .map(|(p, _)| (p.as_str(), None))
            .collect();
        walk_shadowing(body, &mut defined, out);
    }
}

fn walk_shadowing<'a>(
    events: &'a [Event],
    defined: &mut HashMap<&'a str, Option<Span>>,
    out: &mut Vec<Diagnostic>,
) {
    for e in events {
        match e {
            Event::Assign { var, span, .. } => {
                defined.entry(var).or_insert(Some(*span));
            }
            Event::Loop {
                var,
                var_span,
                body,
                ..
            } => {
                if let Some(first) = defined.get(var.as_str()) {
                    let mut d = Diagnostic::warning(
                        "L0204",
                        format!("loop variable '{var}' shadows an existing variable"),
                    )
                    .with_span(*var_span);
                    if let Some(first) = first {
                        d = d.with_label(*first, "first defined here");
                    }
                    out.push(d.with_help(format!(
                        "inside the loop, '{var}' is the iteration counter; lineage \
                         recorded for the outer value no longer describes what reads see"
                    )));
                }
                walk_shadowing(body, defined, out);
                defined.entry(var).or_insert(Some(*var_span));
            }
            Event::Branch { arms, .. } => {
                for a in arms {
                    walk_shadowing(a, defined, out);
                }
            }
            Event::Read(_) => {}
        }
    }
}

/// `L0205`: `no_cache` on an instruction that could never be cached anyway:
/// it has side effects or produces no value.
fn redundant_no_cache(input: &Input, out: &mut Vec<Diagnostic>) {
    let program = input.program;
    let functions = input
        .ast
        .functions
        .iter()
        .filter_map(|fdef| program.functions.get(&fdef.name));
    let bodies = std::iter::once(&program.body).chain(functions.map(|f| &f.body));
    for i in bodies.flat_map(|body| instrs(body)) {
        let has_outputs = !i.outputs.is_empty();
        if !i.no_cache || (has_outputs && i.info.class != OpClass::SideEffecting) {
            continue;
        }
        out.push(
            Diagnostic::note(
                "L0205",
                format!(
                    "redundant no_cache: '{}' is never cached ({})",
                    i.op.opcode(),
                    if has_outputs {
                        "it has side effects"
                    } else {
                        "it produces no value"
                    }
                ),
            )
            .with_span_opt(i.span)
            .with_help(
                "the loop-carried taint pass unmarked this instruction, but \
                 side-effecting operations never enter the lineage cache",
            ),
        );
    }
}

/// `L0206`: a `parfor` whose trip count is a tiny constant — worker spawn
/// and result-merge overhead likely dominates the parallel gain.
fn tiny_parfors(input: &Input, out: &mut Vec<Diagnostic>) {
    for scope in input.scopes() {
        walk_tiny_parfors(scope, out);
    }
}

fn walk_tiny_parfors(events: &[Event], out: &mut Vec<Diagnostic>) {
    for e in events {
        match e {
            Event::Loop {
                parallel,
                const_trip,
                header_span,
                body,
                ..
            } => {
                if let (true, Some(n @ ..=2)) = (*parallel, *const_trip) {
                    out.push(
                        Diagnostic::note(
                            "L0206",
                            format!(
                                "parfor has a constant trip count of {n}; \
                                 parallel execution gains little"
                            ),
                        )
                        .with_span(*header_span)
                        .with_help(format!(
                            "worker spawn and result merging cost more than \
                             {n} iteration(s) save; consider a plain for loop"
                        )),
                    );
                }
                walk_tiny_parfors(body, out);
            }
            Event::Branch { arms, .. } => {
                for a in arms {
                    walk_tiny_parfors(a, out);
                }
            }
            _ => {}
        }
    }
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
    fn reuse_ineligibility_propagates_to_callers_only() {
        let src = "noisy = function(n) return (Y) { Y = rand(rows=n, cols=1); }
pure = function(X) return (Y) { Y = X * 2; }
caller = function(n) return (Y) { Y = noisy(n); }
A = caller(3);
B = pure(A);
print(sum(B));";
        let ds = lint(src);
        let l0201: Vec<_> = ds.iter().filter(|d| d.code == "L0201").collect();
        assert_eq!(l0201.len(), 2, "noisy and caller flagged: {ds:?}");
        assert!(l0201
            .iter()
            .all(|d| d.primary.is_some() && !d.labels.is_empty()));
        assert!(l0201[1].message.contains("'caller'"));
        assert!(l0201[1].labels[0].message.contains("call to 'noisy'"));
    }

    #[test]
    fn unused_result_only_fires_in_functions() {
        // A script-level assignment nobody reads is a result, not waste.
        let ds = lint(
            "f = function(X) return (Y) { Y = X * 2; }
             final = f(matrix(1.0, 2, 2));",
        );
        assert!(!codes(&ds).contains(&"L0202"), "got {ds:?}");
    }

    #[test]
    fn dead_store_requires_no_intervening_read() {
        let src = "x = 1;
x = 2;
y = 3;
y = y + 1;
z = 4;
print(z);
z = 5;
print(x + y + z);";
        let ds = lint(src);
        assert_eq!(codes(&ds), vec!["L0203"], "only x is dead: {ds:?}");
        let span = ds[0].primary.expect("span");
        assert_eq!(&src[span.start as usize..span.end as usize], "x = 1");
        let label = ds[0].labels[0].span;
        assert_eq!(&src[label.start as usize..label.end as usize], "x = 2");
    }

    #[test]
    fn dead_store_barriers_on_loops_that_touch_the_var() {
        let ds = lint(
            "s = 0;
             for (i in 1:10) { s = s + i; }
             s = s * 2;
             print(s);",
        );
        assert!(!codes(&ds).contains(&"L0203"), "the loop reads s: {ds:?}");
    }

    #[test]
    fn shadowing_labels_the_first_definition() {
        let src = "i = 7;
for (i in 1:3) { print(i); }";
        let ds = lint(src);
        let d = ds.iter().find(|d| d.code == "L0204").expect("L0204");
        assert_eq!(d.labels.len(), 1);
        assert_eq!(d.labels[0].message, "first defined here");
        let label = d.labels[0].span;
        assert_eq!(&src[label.start as usize..label.end as usize], "i = 7");
    }

    #[test]
    fn no_cache_redundancy_notes_only_effects() {
        // Both loop-body instructions are unmarked as loop-carried; only the
        // print, which could never be cached, is noted.
        let src = "acc = 0;
for (i in 1:3) {
  acc = acc + i;
  print(acc);
}";
        let ds = lint(src);
        let notes: Vec<_> = ds.iter().filter(|d| d.code == "L0205").collect();
        assert_eq!(notes.len(), 1, "got {ds:?}");
        assert!(notes[0].message.contains("'print'"));
        let span = notes[0].primary.expect("span");
        assert_eq!(&src[span.start as usize..span.end as usize], "print(acc)");
    }

    #[test]
    fn const_trip_notes_only_tiny_parfors() {
        let ds = lint(
            "R = matrix(0, 100, 1);
             parfor (i in 1:2) { R[i, 1] = as.matrix(i); }
             parfor (j in 1:100) { R[j, 1] = as.matrix(j); }
             for (k in 1:1) { R[k, 1] = as.matrix(k); }
             print(sum(R));",
        );
        let notes: Vec<_> = ds.iter().filter(|d| d.code == "L0206").collect();
        assert_eq!(notes.len(), 1, "got {ds:?}");
        assert!(notes[0].message.contains("trip count of 2"));
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
