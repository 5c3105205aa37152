//! Extensible lint-pass framework over a span-annotated program model
//! (DESIGN.md §14).
//!
//! The frontend lowers its AST + compiled program into an IR-agnostic
//! [`LintModel`]; each [`LintPass`] walks the model and emits source-anchored
//! [`Diagnostic`]s. This crate depends only on `lima-core`, so the model
//! deliberately carries just what the passes need: assignment/read events
//! with spans, loop structure, per-function determinism sources, and the
//! per-instruction cache-marking outcome.
//!
//! Registered default passes:
//!
//! | code    | severity | pass                                              |
//! |---------|----------|---------------------------------------------------|
//! | `L0201` | warning  | function ineligible for lineage reuse             |
//! | `L0202` | warning  | assigned value never used inside a function       |
//! | `L0203` | warning  | dead store (overwritten before any read)          |
//! | `L0204` | warning  | loop variable shadows an existing variable        |
//! | `L0205` | note     | redundant `no_cache` on a never-cached operation  |
//! | `L0206` | note     | `parfor` with a tiny constant trip count          |

use crate::determinism::{solve_call_graph, ClassSource};
use lima_core::opcodes::OpClass;
use lima_core::{sort_diagnostics, Diagnostic, Span};
use std::collections::{HashMap, HashSet};

/// One event in a straight-line region of the program, in source order.
#[derive(Debug, Clone)]
pub enum LintEvent {
    /// A variable assignment (whole or indexed; indexed writes list the
    /// target among `reads` since they preserve untouched cells).
    Assign {
        var: String,
        /// Span of the assignment statement.
        span: Option<Span>,
        /// Variables read by the right-hand side (and indices).
        reads: Vec<String>,
    },
    /// A bare read (print/write statements, branch-free expression uses).
    Read { vars: Vec<String> },
    /// A counted loop (`for` or `parfor`).
    Loop {
        var: String,
        /// Span of the loop-variable name in the header.
        var_span: Option<Span>,
        /// Span of the loop header (keyword through bounds).
        header_span: Option<Span>,
        parallel: bool,
        /// Trip count when all bounds are integer literals.
        const_trip: Option<i64>,
        /// Variables read by the loop bounds.
        bound_reads: Vec<String>,
        body: Vec<LintEvent>,
    },
    /// A conditional (`if`/`else`) or condition-controlled loop (`while`,
    /// modeled as a single arm whose events may repeat).
    Branch {
        cond_reads: Vec<String>,
        arms: Vec<Vec<LintEvent>>,
    },
}

/// A user-defined function in the model.
#[derive(Debug, Clone)]
pub struct LintFunction {
    pub name: String,
    /// Span of the function name at its definition site.
    pub name_span: Option<Span>,
    pub params: Vec<String>,
    pub outputs: Vec<String>,
    /// Determinism contribution of each instruction in the lowered body,
    /// paired with the source span of the construct it came from.
    pub sources: Vec<(ClassSource, Option<Span>)>,
    pub body: Vec<LintEvent>,
}

/// One lowered instruction's cache-marking outcome (for `no_cache` lints).
#[derive(Debug, Clone)]
pub struct LintOp {
    pub opcode: String,
    pub class: OpClass,
    /// True when the compiler excluded the instruction from caching.
    pub no_cache: bool,
    /// False for pure effects (print/write) that produce no value.
    pub has_outputs: bool,
    pub span: Option<Span>,
}

/// The span-annotated program model the passes run over.
#[derive(Debug, Clone, Default)]
pub struct LintModel {
    pub functions: Vec<LintFunction>,
    /// Script-level statements.
    pub body: Vec<LintEvent>,
    /// Every lowered instruction (script body and functions).
    pub ops: Vec<LintOp>,
}

/// A lint pass: walks the model and appends diagnostics.
pub trait LintPass {
    /// Stable pass name (kebab-case, shown in tooling).
    fn name(&self) -> &'static str;
    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of passes.
#[derive(Default)]
pub struct LintRegistry {
    passes: Vec<Box<dyn LintPass>>,
}

impl LintRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        LintRegistry { passes: Vec::new() }
    }

    /// The registry with all built-in passes installed.
    pub fn with_default_passes() -> Self {
        let mut r = Self::new();
        r.register(Box::new(ReuseEligibilityPass));
        r.register(Box::new(UnusedResultPass));
        r.register(Box::new(DeadStorePass));
        r.register(Box::new(ShadowPass));
        r.register(Box::new(NoCacheRedundancyPass));
        r.register(Box::new(ConstTripParforPass));
        r
    }

    /// Appends a pass; passes run in registration order.
    pub fn register(&mut self, pass: Box<dyn LintPass>) {
        self.passes.push(pass);
    }

    /// Runs every pass and returns the findings in stable source order.
    pub fn run(&self, model: &LintModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for p in &self.passes {
            p.run(model, &mut out);
        }
        sort_diagnostics(&mut out);
        out
    }
}

// ------------------------------------------------------------ event helpers

/// True when any event in the region (recursively) reads *or writes* `var` —
/// used as a conservative barrier for the dead-store scan.
fn region_touches(events: &[LintEvent], var: &str) -> bool {
    events.iter().any(|e| match e {
        LintEvent::Assign { var: v, reads, .. } => v == var || reads.iter().any(|r| r == var),
        LintEvent::Read { vars } => vars.iter().any(|r| r == var),
        LintEvent::Loop {
            var: lv,
            bound_reads,
            body,
            ..
        } => lv == var || bound_reads.iter().any(|r| r == var) || region_touches(body, var),
        LintEvent::Branch { cond_reads, arms } => {
            cond_reads.iter().any(|r| r == var) || arms.iter().any(|a| region_touches(a, var))
        }
    })
}

/// Collects every variable read anywhere in the region.
fn collect_reads(events: &[LintEvent], out: &mut HashSet<String>) {
    for e in events {
        match e {
            LintEvent::Assign { reads, .. } => out.extend(reads.iter().cloned()),
            LintEvent::Read { vars } => out.extend(vars.iter().cloned()),
            LintEvent::Loop {
                bound_reads, body, ..
            } => {
                out.extend(bound_reads.iter().cloned());
                collect_reads(body, out);
            }
            LintEvent::Branch { cond_reads, arms } => {
                out.extend(cond_reads.iter().cloned());
                for a in arms {
                    collect_reads(a, out);
                }
            }
        }
    }
}

/// Collects the first assignment site of every variable in the region.
fn collect_first_assigns(events: &[LintEvent], out: &mut Vec<(String, Option<Span>)>) {
    for e in events {
        match e {
            LintEvent::Assign { var, span, .. } => {
                if !out.iter().any(|(v, _)| v == var) {
                    out.push((var.clone(), *span));
                }
            }
            LintEvent::Loop { body, .. } => collect_first_assigns(body, out),
            LintEvent::Branch { arms, .. } => {
                for a in arms {
                    collect_first_assigns(a, out);
                }
            }
            LintEvent::Read { .. } => {}
        }
    }
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

/// `L0201`: functions whose determinism class is not `Deterministic` are
/// excluded from function-level lineage reuse (paper §4.1); warn at the
/// definition with the first offending call/operation labeled.
pub struct ReuseEligibilityPass;

impl LintPass for ReuseEligibilityPass {
    fn name(&self) -> &'static str {
        "reuse-eligibility"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        let bodies: HashMap<String, Vec<ClassSource>> = model
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    f.sources.iter().map(|(s, _)| s.clone()).collect(),
                )
            })
            .collect();
        let classes = solve_call_graph(&bodies);
        for f in &model.functions {
            let class = classes
                .get(&f.name)
                .copied()
                .unwrap_or(OpClass::Deterministic);
            if class == OpClass::Deterministic {
                continue;
            }
            let mut d = Diagnostic::warning(
                "L0201",
                format!(
                    "function '{}' is {} and ineligible for lineage reuse",
                    f.name,
                    class_phrase(class)
                ),
            )
            .with_span_opt(f.name_span);
            // Label the first construct whose class taints the function.
            let offender = f
                .sources
                .iter()
                .find(|(s, _)| s.eval(&classes) != OpClass::Deterministic);
            if let Some((src, Some(sp))) = offender {
                let what = match src {
                    ClassSource::Fixed(c) => {
                        format!("this {} operation", class_phrase(*c))
                    }
                    ClassSource::Call(callee) => format!(
                        "this call to '{}' ({})",
                        callee,
                        class_phrase(
                            classes
                                .get(callee)
                                .copied()
                                .unwrap_or(OpClass::NonDeterministic)
                        )
                    ),
                };
                d = d.with_label(
                    *sp,
                    format!("{what} makes the enclosing function reuse-ineligible"),
                );
            }
            out.push(d.with_help(
                "function results are memoized by lineage only when the body is \
                 deterministic; pin seeds or hoist the effect out of the function",
            ));
        }
    }
}

/// `L0202`: a variable assigned inside a function body that is never read
/// and is not an output — the computation (and its lineage) is wasted.
pub struct UnusedResultPass;

impl LintPass for UnusedResultPass {
    fn name(&self) -> &'static str {
        "unused-result"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        for f in &model.functions {
            let mut reads = HashSet::new();
            collect_reads(&f.body, &mut reads);
            let mut assigns = Vec::new();
            collect_first_assigns(&f.body, &mut assigns);
            for (var, span) in assigns {
                if reads.contains(&var) || f.outputs.contains(&var) {
                    continue;
                }
                out.push(
                    Diagnostic::warning(
                        "L0202",
                        format!(
                            "value assigned to '{var}' in function '{}' is never used",
                            f.name
                        ),
                    )
                    .with_span_opt(span)
                    .with_help(
                        "the result is neither read nor returned; \
                         remove the assignment or add it to the outputs",
                    ),
                );
            }
        }
    }
}

/// `L0203`: an assignment overwritten by a later same-scope assignment with
/// no intervening read — the first store is dead.
pub struct DeadStorePass;

impl DeadStorePass {
    fn scan(&self, events: &[LintEvent], out: &mut Vec<Diagnostic>) {
        for (i, e) in events.iter().enumerate() {
            // Recurse into nested regions first.
            match e {
                LintEvent::Loop { body, .. } => self.scan(body, out),
                LintEvent::Branch { arms, .. } => {
                    for a in arms {
                        self.scan(a, out);
                    }
                }
                _ => {}
            }
            let LintEvent::Assign { var, span, .. } = e else {
                continue;
            };
            for later in &events[i + 1..] {
                if let LintEvent::Assign {
                    var: v2,
                    span: span2,
                    reads,
                } = later
                {
                    if v2 == var {
                        if !reads.iter().any(|r| r == var) {
                            let mut d = Diagnostic::warning(
                                "L0203",
                                format!(
                                    "value assigned to '{var}' is overwritten before it is read"
                                ),
                            )
                            .with_span_opt(*span);
                            if let Some(sp2) = span2 {
                                d = d.with_label(*sp2, "overwritten here");
                            }
                            out.push(d.with_help(
                                "the first assignment is a dead store; \
                                 its result (and lineage) is discarded",
                            ));
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
}

impl LintPass for DeadStorePass {
    fn name(&self) -> &'static str {
        "dead-store"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        self.scan(&model.body, out);
        for f in &model.functions {
            self.scan(&f.body, out);
        }
    }
}

/// `L0204`: a loop variable that shadows an existing variable. The outer
/// value keeps its lineage, but reads inside the loop silently resolve to
/// the iteration counter — a classic source of wrong-but-plausible results.
pub struct ShadowPass;

impl ShadowPass {
    fn walk(
        &self,
        events: &[LintEvent],
        defined: &mut HashMap<String, Option<Span>>,
        out: &mut Vec<Diagnostic>,
    ) {
        for e in events {
            match e {
                LintEvent::Assign { var, span, .. } => {
                    defined.entry(var.clone()).or_insert(*span);
                }
                LintEvent::Loop {
                    var,
                    var_span,
                    body,
                    ..
                } => {
                    if let Some(orig) = defined.get(var) {
                        let mut d = Diagnostic::warning(
                            "L0204",
                            format!("loop variable '{var}' shadows an existing variable"),
                        )
                        .with_span_opt(*var_span);
                        if let Some(osp) = orig {
                            d = d.with_label(*osp, "first defined here");
                        }
                        out.push(
                            d.with_help(
                                "inside the loop, '{var}' is the iteration counter; lineage \
                             recorded for the outer value no longer describes what reads see"
                                    .replace("{var}", var),
                            ),
                        );
                    }
                    self.walk(body, defined, out);
                    defined.entry(var.clone()).or_insert(*var_span);
                }
                LintEvent::Branch { arms, .. } => {
                    for a in arms {
                        self.walk(a, defined, out);
                    }
                }
                LintEvent::Read { .. } => {}
            }
        }
    }
}

impl LintPass for ShadowPass {
    fn name(&self) -> &'static str {
        "shadowing"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        let mut defined = HashMap::new();
        self.walk(&model.body, &mut defined, out);
        for f in &model.functions {
            let mut defined: HashMap<String, Option<Span>> =
                f.params.iter().map(|p| (p.clone(), None)).collect();
            self.walk(&f.body, &mut defined, out);
        }
    }
}

/// `L0205`: `no_cache` on an operation that could never be cached anyway
/// (side-effecting, or producing no value).
pub struct NoCacheRedundancyPass;

impl LintPass for NoCacheRedundancyPass {
    fn name(&self) -> &'static str {
        "no-cache-redundancy"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        for op in &model.ops {
            if !op.no_cache {
                continue;
            }
            if op.class == OpClass::SideEffecting || !op.has_outputs {
                out.push(
                    Diagnostic::note(
                        "L0205",
                        format!(
                            "redundant no_cache: '{}' is never cached ({})",
                            op.opcode,
                            if op.has_outputs {
                                "it has side effects"
                            } else {
                                "it produces no value"
                            }
                        ),
                    )
                    .with_span_opt(op.span)
                    .with_help(
                        "the loop-carried taint pass unmarked this instruction, but \
                         side-effecting operations never enter the lineage cache",
                    ),
                );
            }
        }
    }
}

/// `L0206`: a `parfor` whose trip count is a tiny constant — worker spawn
/// and result-merge overhead likely dominates the parallel gain.
pub struct ConstTripParforPass;

impl ConstTripParforPass {
    fn walk(&self, events: &[LintEvent], out: &mut Vec<Diagnostic>) {
        for e in events {
            match e {
                LintEvent::Loop {
                    parallel,
                    const_trip,
                    header_span,
                    body,
                    ..
                } => {
                    if *parallel {
                        if let Some(n) = const_trip {
                            if *n <= 2 {
                                out.push(
                                    Diagnostic::note(
                                        "L0206",
                                        format!(
                                            "parfor has a constant trip count of {n}; \
                                             parallel execution gains little"
                                        ),
                                    )
                                    .with_span_opt(*header_span)
                                    .with_help(
                                        "worker spawn and result merging cost more than \
                                         {n} iteration(s) save; consider a plain for loop"
                                            .replace("{n}", &n.to_string()),
                                    ),
                                );
                            }
                        }
                    }
                    self.walk(body, out);
                }
                LintEvent::Branch { arms, .. } => {
                    for a in arms {
                        self.walk(a, out);
                    }
                }
                _ => {}
            }
        }
    }
}

impl LintPass for ConstTripParforPass {
    fn name(&self) -> &'static str {
        "const-trip-parfor"
    }

    fn run(&self, model: &LintModel, out: &mut Vec<Diagnostic>) {
        self.walk(&model.body, out);
        for f in &model.functions {
            self.walk(&f.body, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(var: &str, at: u32, reads: &[&str]) -> LintEvent {
        LintEvent::Assign {
            var: var.into(),
            span: Some(Span::new(at, at + 4)),
            reads: reads.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn codes(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn reuse_eligibility_flags_nondeterministic_functions() {
        let model = LintModel {
            functions: vec![
                LintFunction {
                    name: "noisy".into(),
                    name_span: Some(Span::new(0, 5)),
                    params: vec![],
                    outputs: vec!["y".into()],
                    sources: vec![(
                        ClassSource::Fixed(OpClass::NonDeterministic),
                        Some(Span::new(10, 20)),
                    )],
                    body: vec![assign("y", 10, &[])],
                },
                LintFunction {
                    name: "pure".into(),
                    name_span: Some(Span::new(30, 34)),
                    params: vec![],
                    outputs: vec!["y".into()],
                    sources: vec![(ClassSource::Fixed(OpClass::Deterministic), None)],
                    body: vec![assign("y", 40, &[])],
                },
                LintFunction {
                    name: "caller".into(),
                    name_span: Some(Span::new(50, 56)),
                    params: vec![],
                    outputs: vec!["y".into()],
                    sources: vec![(ClassSource::Call("noisy".into()), Some(Span::new(60, 70)))],
                    body: vec![assign("y", 60, &["noisy"])],
                },
            ],
            ..Default::default()
        };
        let ds = LintRegistry::with_default_passes().run(&model);
        let l0201: Vec<_> = ds.iter().filter(|d| d.code == "L0201").collect();
        assert_eq!(l0201.len(), 2, "noisy and caller flagged: {ds:?}");
        assert!(l0201.iter().all(|d| d.primary.is_some()));
        assert!(l0201.iter().all(|d| !d.labels.is_empty()));
        assert!(l0201[1].labels[0].message.contains("call to 'noisy'"));
    }

    #[test]
    fn unused_result_only_fires_in_functions() {
        let model = LintModel {
            functions: vec![LintFunction {
                name: "f".into(),
                name_span: None,
                params: vec!["x".into()],
                outputs: vec!["y".into()],
                sources: vec![],
                body: vec![assign("waste", 10, &["x"]), assign("y", 20, &["x"])],
            }],
            // Script-level unused assignments are results, not waste.
            body: vec![assign("final", 0, &[])],
            ..Default::default()
        };
        let ds = LintRegistry::with_default_passes().run(&model);
        let unused: Vec<_> = ds.iter().filter(|d| d.code == "L0202").collect();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("'waste'"));
    }

    #[test]
    fn dead_store_requires_no_intervening_read() {
        let body = vec![
            assign("x", 0, &[]),
            assign("x", 10, &[]), // overwrites without reading: dead store at 0
            assign("y", 20, &[]),
            assign("y", 30, &["y"]), // y = y + 1: not dead
            assign("z", 40, &[]),
            LintEvent::Read {
                vars: vec!["z".into()],
            },
            assign("z", 50, &[]), // read intervenes: not dead
        ];
        let model = LintModel {
            body,
            ..Default::default()
        };
        let mut out = Vec::new();
        DeadStorePass.run(&model, &mut out);
        assert_eq!(codes(&out), vec!["L0203"]);
        assert_eq!(out[0].primary, Some(Span::new(0, 4)));
        assert_eq!(out[0].labels[0].span, Span::new(10, 14));
    }

    #[test]
    fn dead_store_barriers_on_loops_that_touch_the_var() {
        let body = vec![
            assign("s", 0, &[]),
            LintEvent::Loop {
                var: "i".into(),
                var_span: None,
                header_span: None,
                parallel: false,
                const_trip: Some(10),
                bound_reads: vec![],
                body: vec![assign("s", 10, &["s", "i"])],
            },
            assign("s", 20, &["s"]),
        ];
        let model = LintModel {
            body,
            ..Default::default()
        };
        let mut out = Vec::new();
        DeadStorePass.run(&model, &mut out);
        assert!(out.is_empty(), "loop reads s: {out:?}");
    }

    #[test]
    fn shadowing_flags_loop_vars_over_existing_names() {
        let body = vec![
            assign("i", 0, &[]),
            LintEvent::Loop {
                var: "i".into(),
                var_span: Some(Span::new(20, 21)),
                header_span: Some(Span::new(14, 30)),
                parallel: false,
                const_trip: None,
                bound_reads: vec![],
                body: vec![],
            },
        ];
        let model = LintModel {
            body,
            ..Default::default()
        };
        let ds = LintRegistry::with_default_passes().run(&model);
        let shadow: Vec<_> = ds.iter().filter(|d| d.code == "L0204").collect();
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].primary, Some(Span::new(20, 21)));
        assert_eq!(shadow[0].labels[0].message, "first defined here");
    }

    #[test]
    fn no_cache_redundancy_notes_side_effecting_marks() {
        let model = LintModel {
            ops: vec![
                LintOp {
                    opcode: "print".into(),
                    class: OpClass::SideEffecting,
                    no_cache: true,
                    has_outputs: false,
                    span: Some(Span::new(5, 15)),
                },
                LintOp {
                    opcode: "+".into(),
                    class: OpClass::Deterministic,
                    no_cache: true, // loop-carried: legitimate, no lint
                    has_outputs: true,
                    span: None,
                },
            ],
            ..Default::default()
        };
        let ds = LintRegistry::with_default_passes().run(&model);
        let notes: Vec<_> = ds.iter().filter(|d| d.code == "L0205").collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].message.contains("print"));
    }

    #[test]
    fn const_trip_parfor_notes_tiny_loops() {
        let mk = |parallel: bool, trip: Option<i64>| LintEvent::Loop {
            var: "i".into(),
            var_span: None,
            header_span: Some(Span::new(0, 16)),
            parallel,
            const_trip: trip,
            bound_reads: vec![],
            body: vec![],
        };
        let model = LintModel {
            body: vec![mk(true, Some(2)), mk(true, Some(100)), mk(false, Some(1))],
            ..Default::default()
        };
        let ds = LintRegistry::with_default_passes().run(&model);
        let notes: Vec<_> = ds.iter().filter(|d| d.code == "L0206").collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].message.contains("trip count of 2"));
    }

    #[test]
    fn registry_reports_pass_names_and_sorts_output() {
        let r = LintRegistry::with_default_passes();
        assert_eq!(
            r.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec![
                "reuse-eligibility",
                "unused-result",
                "dead-store",
                "shadowing",
                "no-cache-redundancy",
                "const-trip-parfor"
            ]
        );
        // Findings come back ordered by source position.
        let model = LintModel {
            body: vec![
                assign("b", 50, &[]),
                assign("b", 60, &[]),
                assign("a", 0, &[]),
                assign("a", 10, &[]),
            ],
            ..Default::default()
        };
        let ds = r.run(&model);
        assert_eq!(codes(&ds), vec!["L0203", "L0203"]);
        assert!(ds[0].primary < ds[1].primary);
    }
}
