//! Compilation passes over programs (paper §2.2, §3.2 setup, §4.4):
//!
//! 1. **Block/branch ID assignment** — stable IDs for block-level cache keys
//!    and depth-first branch IDs for dedup path bitvectors.
//! 2. **Determinism analysis** — every instruction is classified on the
//!    `lima-analysis` [`OpClass`] lattice and classes propagate bottom-up
//!    through the call graph; each function keeps its class, and only
//!    `Deterministic` ones qualify for function-level reuse.
//! 3. **Parfor dependence check** — writes to parfor result variables must
//!    be provably disjoint across iterations (affine index analysis on the
//!    loop variable); racy scripts fail compilation.
//! 4. **Dedup eligibility** — last-level loops/functions (no nested loops or
//!    calls) with ≤ 63 branches qualify for lineage deduplication.
//! 5. **Unmarking** (compiler assistance) — instructions producing
//!    loop-carried variables never interact with the cache.
//! 6. **Reuse-aware rewrites** (compiler assistance) — e.g. splitting
//!    `tsmm(cbind(X, d))` inside loops to avoid materializing the cbind
//!    (the `LIMA-CA` configuration of Fig 7(a)).
//! 7. **Block-reuse verdicts** — last, on the final bodies: a `for` loop
//!    whose body is last-level and `Deterministic` qualifies for block-level
//!    reuse. The interpreter and the linter read these verdicts; neither
//!    classifies anything itself.

use crate::instr::{Instr, Op, Operand, Var};
use crate::lva::{self, SlotSet};
use crate::program::{walk_blocks, walk_blocks_mut, Block, ExprProg, Function, Program};
use lima_analysis::{
    check_parfor_writes, solve_call_graph, Affine, ClassSource, ParforViolation, ResultWrite,
};
use lima_core::opcodes::OpClass;
use lima_core::{Frame, LimaConfig};
use lima_matrix::ops::{BinOp, TsmmSide};
use lima_matrix::ScalarValue;
use std::collections::{HashMap, HashSet};

/// A program rejected by static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A parfor body's writes to a result variable are not provably disjoint
    /// across iterations, so parallel execution could race.
    ParforDependence {
        /// Stable ID of the offending `ParFor` block.
        block_id: u64,
        /// Why disjointness could not be established.
        violation: ParforViolation,
        /// Byte span of the offending write (falling back to the parfor
        /// header) when the program was lowered from source; `None` for
        /// hand-built programs.
        span: Option<lima_core::Span>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ParforDependence {
                block_id,
                violation,
                ..
            } => write!(
                f,
                "parfor (block {block_id}) cannot run in parallel: {violation}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Counters produced by the static-analysis passes; stored on the program
/// and folded into `LimaStats` when it executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileReport {
    /// Instructions newly unmarked (`no_cache`) by the loop-carried taint
    /// pass.
    pub ops_unmarked: u64,
    /// Functions whose class is not `Deterministic` and which are therefore
    /// ineligible for function-level reuse.
    pub funcs_reuse_ineligible: u64,
}

/// Runs all compilation passes in place. Fails when the parfor dependence
/// check cannot prove result-variable writes disjoint across iterations.
pub fn compile(program: &mut Program, config: &LimaConfig) -> Result<CompileReport, CompileError> {
    program.number_frames();
    assign_ids(program);
    let funcs_reuse_ineligible = analyze_determinism(program);
    check_parfor_dependences(program)?;
    analyze_dedup(program);
    compute_dedup_outputs(program);
    let mut ops_unmarked = 0u64;
    if config.compiler_assist {
        unmark_loop_carried(program, &mut ops_unmarked);
        if config.reuse.any() {
            rewrite_tsmm_cbind(program);
            rewrite_speculative_projection(program);
            // The plans bind temporaries of their own.
            program.number_frames();
        }
    }
    // Last, so the verdict describes the loop bodies the interpreter runs.
    mark_block_reuse(&mut program.body);
    program
        .functions
        .values_mut()
        .for_each(|f| mark_block_reuse(&mut f.body));
    let report = CompileReport {
        ops_unmarked,
        funcs_reuse_ineligible,
    };
    program.analysis = report;
    Ok(report)
}

// ---------------------------------------------------------------- block IDs

fn assign_ids(program: &mut Program) {
    let mut next = 1u64;
    assign_ids_blocks(&mut program.body, &mut next);
    let mut names: Vec<String> = program.functions.keys().cloned().collect();
    names.sort();
    for name in names {
        if let Some(f) = program.functions.get_mut(&name) {
            assign_ids_blocks(&mut f.body, &mut next);
        }
    }
}

fn assign_ids_blocks(blocks: &mut [Block], next: &mut u64) {
    walk_blocks_mut(blocks, &mut |b| {
        let (Block::Basic { id, .. }
        | Block::If { id, .. }
        | Block::For { id, .. }
        | Block::While { id, .. }
        | Block::ParFor { id, .. }) = b;
        *id = *next;
        *next += 1;
    });
}

// ------------------------------------------------------------- determinism

/// The determinism contribution of one instruction: calls defer to the
/// callee's class; everything else takes the class its opcode was given when
/// the instruction was built, refined by the explicit-seed rule.
pub fn instr_class_source(i: &Instr) -> ClassSource {
    if let Op::FCall(name) = &i.op {
        return ClassSource::Call(name.clone());
    }
    // Seeded randomness with an explicit non-negative literal seed is
    // reproducible across executions.
    if i.op.is_random() && has_explicit_seed(i) {
        return ClassSource::Fixed(OpClass::Deterministic);
    }
    ClassSource::Fixed(i.info.class)
}

fn has_explicit_seed(i: &Instr) -> bool {
    match i.inputs.last() {
        Some(Operand::Lit(ScalarValue::I64(s))) => *s >= 0,
        Some(Operand::Lit(ScalarValue::F64(s))) => *s >= 0.0,
        _ => false,
    }
}

fn collect_class_sources(blocks: &[Block], out: &mut Vec<ClassSource>) {
    walk_blocks(blocks, &mut |b| {
        out.extend(b.own_instrs().map(instr_class_source));
    });
}

/// Solves per-function determinism classes over the call graph, stores each
/// function's class and reuse verdict, and fills parfor result variables.
/// Returns the number of functions ineligible for function-level reuse.
fn analyze_determinism(program: &mut Program) -> u64 {
    let mut bodies: HashMap<String, Vec<ClassSource>> = HashMap::new();
    for (name, f) in &program.functions {
        let mut sources = Vec::new();
        collect_class_sources(&f.body, &mut sources);
        bodies.insert(name.clone(), sources);
    }
    let classes = solve_call_graph(&bodies);
    let recursive = functions_on_call_cycles(&bodies);
    let mut ineligible = 0u64;
    for (name, f) in program.functions.iter_mut() {
        f.class = classes
            .get(name)
            .copied()
            .unwrap_or(OpClass::NonDeterministic);
        // Function-level reuse (memoization) requires full determinism:
        // `Seeded` system-seeded randomness differs per execution. Functions
        // on call-graph cycles are additionally excluded — a recursive call
        // with identical arguments would re-probe its own pending cache
        // reservation.
        f.deterministic = f.class == OpClass::Deterministic && !recursive.contains(name);
        if !f.deterministic {
            ineligible += 1;
        }
    }
    fill_parfor_results(&mut program.body, &program.frame);
    for f in program.functions.values_mut() {
        fill_parfor_results(&mut f.body, &f.frame);
    }
    ineligible
}

/// Functions that can (transitively) call themselves.
fn functions_on_call_cycles(bodies: &HashMap<String, Vec<ClassSource>>) -> HashSet<String> {
    let callees = |name: &str| -> Vec<&String> {
        bodies
            .get(name)
            .map(|sources| {
                sources
                    .iter()
                    .filter_map(|s| match s {
                        ClassSource::Call(callee) => Some(callee),
                        ClassSource::Fixed(_) => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut on_cycle = HashSet::new();
    for start in bodies.keys() {
        let mut stack: Vec<&String> = callees(start);
        let mut visited: HashSet<&String> = HashSet::new();
        while let Some(next) = stack.pop() {
            if next == start {
                on_cycle.insert(start.clone());
                break;
            }
            if visited.insert(next) {
                stack.extend(callees(next));
            }
        }
    }
    on_cycle
}

/// Fills parfor result variables: variables written in the body that exist
/// before the loop — approximated as writes that are also live-in (carried)
/// or left-indexed results.
fn fill_parfor_results(blocks: &mut [Block], frame: &Frame) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::ParFor { body, results, .. } = b {
            *results = parfor_results(body, frame);
        }
    });
}

/// Stores each `for` loop's block-level reuse verdict (paper §4.1,
/// "Multi-level Reuse"): the body is last-level and deterministic. Bodies
/// wrapping calls or nested loops would bundle large intermediate sets into
/// single cache entries; calls are covered by function-level reuse instead.
fn mark_block_reuse(blocks: &mut [Block]) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::For { body, reuse_ok, .. } = b {
            let mut sources = Vec::new();
            collect_class_sources(body, &mut sources);
            *reuse_ok = body_is_last_level(body)
                && sources
                    .iter()
                    .all(|s| *s == ClassSource::Fixed(OpClass::Deterministic));
        }
    });
}

/// Result variables of a parfor body: variables updated via left-indexing or
/// read-then-written (carried) — these must be merged across workers.
fn parfor_results(body: &[Block], frame: &Frame) -> Vec<Var> {
    let live_in: SlotSet = lva::live_in(body).into_iter().collect();
    let writes = lva::writes(body)
        .into_iter()
        .filter(|w| live_in.contains(w));
    writes.map(|w| Var::of_slot(frame, w)).collect()
}

/// The names of `slots` in `frame`.
fn names(frame: &Frame, slots: Vec<u32>) -> impl Iterator<Item = String> + '_ {
    slots.into_iter().map(|s| frame[s as usize].to_string())
}

// ------------------------------------------------------ parfor dependences

/// Rejects parfors whose result-variable writes cannot be proven disjoint
/// across iterations (paper §2: the merge by cell-difference assumes
/// iterations touch distinct cells). Runs after `analyze_determinism`, which
/// fills each parfor's `results` field.
fn check_parfor_dependences(program: &Program) -> Result<(), CompileError> {
    check_parfor_blocks(&program.body, &program.frame)?;
    for f in program.functions.values() {
        check_parfor_blocks(&f.body, &f.frame)?;
    }
    Ok(())
}

fn check_parfor_blocks(blocks: &[Block], frame: &Frame) -> Result<(), CompileError> {
    for b in blocks {
        match b {
            Block::ParFor {
                id,
                var,
                from,
                to,
                by,
                body,
                results,
                span,
                ..
            } => {
                let result_set: HashSet<String> = results.iter().map(|r| r.to_string()).collect();
                let writes = lower_parfor_writes(var, body, &result_set, frame);
                check_parfor_writes(&writes, trip_at_most_one(from, to, by)).map_err(
                    |violation| {
                        // Anchor on the offending write when a span is known;
                        // otherwise fall back to the parfor header.
                        let write_span = writes
                            .iter()
                            .filter(|w| w.var == violation.var())
                            .find_map(|w| w.span);
                        CompileError::ParforDependence {
                            block_id: *id,
                            violation,
                            span: write_span.or(*span),
                        }
                    },
                )?;
                check_parfor_blocks(body, frame)?;
            }
            Block::If {
                then_body,
                else_body,
                ..
            } => {
                check_parfor_blocks(then_body, frame)?;
                check_parfor_blocks(else_body, frame)?;
            }
            Block::For { body, .. } | Block::While { body, .. } => {
                check_parfor_blocks(body, frame)?
            }
            Block::Basic { .. } => {}
        }
    }
    Ok(())
}

fn expr_lit_i64(e: &ExprProg) -> Option<i64> {
    if !e.instrs.is_empty() {
        return None;
    }
    match &e.result {
        Operand::Lit(ScalarValue::I64(v)) => Some(*v),
        Operand::Lit(ScalarValue::F64(v)) if v.fract() == 0.0 => Some(*v as i64),
        _ => None,
    }
}

/// True when the loop provably runs at most one iteration (a single
/// iteration cannot race with itself).
fn trip_at_most_one(from: &ExprProg, to: &ExprProg, by: &ExprProg) -> bool {
    let (Some(f), Some(t)) = (expr_lit_i64(from), expr_lit_i64(to)) else {
        return false;
    };
    if f == t {
        return true;
    }
    match expr_lit_i64(by) {
        Some(b) if b > 0 => match f.checked_add(b) {
            Some(n) => n > t,
            None => true,
        },
        Some(b) if b < 0 => match f.checked_add(b) {
            Some(n) => n < t,
            None => true,
        },
        _ => false,
    }
}

/// Known affine values of scalar temporaries; `None` marks a variable whose
/// value cannot be expressed affinely in the loop variable.
type AffEnv = HashMap<String, Option<Affine>>;

/// Lowers a parfor body's writes to its result variables into
/// [`ResultWrite`]s. Straight-line arithmetic over the loop variable is
/// folded through an affine environment (`t = 2*i - 1; B[t, 1] = ...`);
/// indexed writes are modeled by their anchor cell (`LeftIndex` places the
/// sub-block at `(rl, cl)`). Anything unanalyzable — conditional
/// assignments, nested loops, non-affine arithmetic — degrades
/// conservatively so the checker rejects rather than miss a race.
fn lower_parfor_writes(
    loop_var: &str,
    body: &[Block],
    results: &HashSet<String>,
    frame: &Frame,
) -> Vec<ResultWrite> {
    let body_writes: HashSet<String> = names(frame, lva::writes(body)).collect();
    let mut env: AffEnv = HashMap::new();
    let mut out = Vec::new();
    let sets = ParforSets {
        results,
        body_writes: &body_writes,
        frame,
    };
    walk_parfor_body(loop_var, body, &sets, &mut env, &mut out);
    out
}

/// What the walk over one parfor body consults: its result variables, every
/// variable it writes, and the frame naming its slots.
struct ParforSets<'a> {
    results: &'a HashSet<String>,
    body_writes: &'a HashSet<String>,
    frame: &'a Frame,
}

fn operand_affine(
    op: &Operand,
    loop_var: &str,
    body_writes: &HashSet<String>,
    env: &AffEnv,
) -> Option<Affine> {
    match op {
        Operand::Lit(ScalarValue::I64(v)) => Some(Affine::konst(*v)),
        Operand::Lit(ScalarValue::F64(v)) if v.fract() == 0.0 => Some(Affine::konst(*v as i64)),
        Operand::Lit(_) => None,
        Operand::Var(v) => {
            // The environment wins over the loop variable: a body that
            // reassigns the loop variable shadows its affine meaning.
            let v: &str = v;
            if let Some(a) = env.get(v) {
                return a.clone();
            }
            if v == loop_var {
                return Some(Affine::loop_var());
            }
            if !body_writes.contains(v) {
                return Some(Affine::invariant(v));
            }
            None
        }
    }
}

fn walk_parfor_body(
    loop_var: &str,
    blocks: &[Block],
    sets: &ParforSets<'_>,
    env: &mut AffEnv,
    out: &mut Vec<ResultWrite>,
) {
    let (results, body_writes) = (sets.results, sets.body_writes);
    for b in blocks {
        match b {
            Block::Basic { instrs, .. } => {
                for i in instrs {
                    visit_parfor_instr(loop_var, i, results, body_writes, env, out);
                }
            }
            Block::If {
                pred,
                then_body,
                else_body,
                ..
            } => {
                for i in &pred.instrs {
                    visit_parfor_instr(loop_var, i, results, body_writes, env, out);
                }
                let mut then_env = env.clone();
                walk_parfor_body(loop_var, then_body, sets, &mut then_env, out);
                let mut else_env = env.clone();
                walk_parfor_body(loop_var, else_body, sets, &mut else_env, out);
                // A variable assigned under a condition has no single affine
                // value afterwards.
                let written = lva::writes(then_body)
                    .into_iter()
                    .chain(lva::writes(else_body));
                for w in names(sets.frame, written.collect()) {
                    env.insert(w, None);
                }
            }
            Block::For { .. } | Block::While { .. } | Block::ParFor { .. } => {
                // Writes under a nested loop repeat per *inner* iteration;
                // their indices cannot be reasoned about in the outer loop
                // variable. Treat every result variable touched inside as a
                // whole-variable write and poison everything it assigns
                // (including its own loop variable and bound temporaries).
                for w in names(sets.frame, lva::writes(std::slice::from_ref(b))) {
                    if results.contains(&w) {
                        out.push(ResultWrite::whole(w.clone()));
                    }
                    env.insert(w, None);
                }
            }
        }
    }
}

fn visit_parfor_instr(
    loop_var: &str,
    i: &Instr,
    results: &HashSet<String>,
    body_writes: &HashSet<String>,
    env: &mut AffEnv,
    out: &mut Vec<ResultWrite>,
) {
    // Record writes to result variables.
    if matches!(i.op, Op::LeftIndex) && i.outputs.len() == 1 && results.contains(&*i.outputs[0]) {
        let row = operand_affine(&i.inputs[2], loop_var, body_writes, env);
        let col = operand_affine(&i.inputs[3], loop_var, body_writes, env);
        out.push(ResultWrite::indexed(&*i.outputs[0], row, col).with_span(i.span));
    } else {
        for w in i.writes() {
            if results.contains(w) {
                out.push(ResultWrite::whole(w.to_string()).with_span(i.span));
            }
        }
    }
    // Update the affine environment for scalar temporaries.
    if let [w] = i.outputs.as_slice() {
        let val = match &i.op {
            Op::Assign | Op::CastScalar | Op::CastMatrix => {
                operand_affine(&i.inputs[0], loop_var, body_writes, env)
            }
            Op::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul)) => {
                let a = operand_affine(&i.inputs[0], loop_var, body_writes, env);
                let b = operand_affine(&i.inputs[1], loop_var, body_writes, env);
                match (a, b, op) {
                    (Some(a), Some(b), BinOp::Add) => a.add(&b),
                    (Some(a), Some(b), BinOp::Sub) => a.sub(&b),
                    (Some(a), Some(b), BinOp::Mul) => a.mul(&b),
                    _ => None,
                }
            }
            _ => None,
        };
        env.insert(w.to_string(), val);
    } else {
        for w in i.writes() {
            env.insert(w.to_string(), None);
        }
    }
}

// ------------------------------------------------------------------- dedup

fn analyze_dedup(program: &mut Program) {
    analyze_dedup_blocks(&mut program.body);
    for f in program.functions.values_mut() {
        analyze_dedup_blocks(&mut f.body);
        // Function dedup: last-level bodies (no loops, no calls) only.
        if body_is_last_level(&f.body) {
            f.dedup_ok = assign_dedup_branches(&mut f.body);
        }
    }
}

fn analyze_dedup_blocks(blocks: &mut [Block]) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::For { body, dedup_ok, .. } | Block::While { body, dedup_ok, .. } = b {
            if body_is_last_level(body) {
                *dedup_ok = assign_dedup_branches(body);
            }
        }
    });
}

/// Numbers the branches of a last-level body; false, with the ids taken back,
/// when there are more than the 63 a path bitvector holds.
fn assign_dedup_branches(body: &mut [Block]) -> bool {
    let fits = assign_branch_ids(body) <= 63;
    if !fits {
        clear_branch_ids(body);
    }
    fits
}

/// Last-level body: only basic blocks and conditionals, and no function
/// calls (paper: "functions that do not contain loops or other function
/// calls", and last-level loops).
fn body_is_last_level(blocks: &[Block]) -> bool {
    let mut last_level = true;
    walk_blocks(blocks, &mut |b| {
        last_level &= matches!(b, Block::Basic { .. } | Block::If { .. })
            && !b.own_instrs().any(|i| matches!(i.op, Op::FCall(_)));
    });
    last_level
}

/// Assigns branch IDs depth-first (paper §3.2); returns the number of
/// branches.
fn assign_branch_ids(blocks: &mut [Block]) -> u32 {
    let mut next = 0;
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::If { branch_id, .. } = b {
            *branch_id = Some(next);
            next += 1;
        }
    });
    next
}

fn clear_branch_ids(blocks: &mut [Block]) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::If { branch_id, .. } = b {
            *branch_id = None;
        }
    });
}

/// Computes the live-out variable sets that receive dedup items (paper:
/// "we obtain the inputs and outputs of the loop body from live variable
/// analysis"). A written variable is live-out when it is carried into the
/// next iteration or possibly read after the loop; dead temporaries get no
/// dedup items and drop out of the patches entirely.
fn compute_dedup_outputs(program: &mut Program) {
    dedup_outputs_pass(&mut program.body, &SlotSet::default(), &program.frame);
    for f in program.functions.values_mut() {
        let Function {
            outputs,
            body,
            dedup_ok,
            dedup_outputs,
            frame,
            ..
        } = f;
        let outs: SlotSet = outputs.iter().map(|v| v.slot).collect();
        if *dedup_ok {
            let li: SlotSet = lva::live_in(body).into_iter().collect();
            let live_out = lva::writes(body)
                .into_iter()
                .filter(|w| outs.contains(w) || li.contains(w));
            *dedup_outputs = live_out.map(|w| Var::of_slot(frame, w)).collect();
        }
        dedup_outputs_pass(body, &outs, frame);
    }
}

fn dedup_outputs_pass(blocks: &mut [Block], after: &SlotSet, frame: &Frame) {
    // suffix[i] = slots read by blocks[i..] plus `after`.
    let n = blocks.len();
    let mut suffix: Vec<SlotSet> = vec![after.clone(); n + 1];
    for i in (0..n).rev() {
        let mut s = suffix[i + 1].clone();
        s.extend(lva::collect_reads(std::slice::from_ref(&blocks[i])));
        suffix[i] = s;
    }
    for (i, b) in blocks.iter_mut().enumerate() {
        match b {
            Block::For {
                body,
                dedup_ok,
                dedup_outputs,
                ..
            }
            | Block::While {
                body,
                dedup_ok,
                dedup_outputs,
                ..
            } => {
                if *dedup_ok {
                    let li: SlotSet = lva::live_in(body).into_iter().collect();
                    let live_after = &suffix[i + 1];
                    let live_out = lva::writes(body)
                        .into_iter()
                        .filter(|w| li.contains(w) || live_after.contains(w));
                    *dedup_outputs = live_out.map(|w| Var::of_slot(frame, w)).collect();
                }
                // suffix[i] includes this loop's own body reads — the
                // conservative live-after for anything nested (a next
                // iteration may read it).
                dedup_outputs_pass(body, &suffix[i], frame);
            }
            Block::If {
                then_body,
                else_body,
                ..
            } => {
                dedup_outputs_pass(then_body, &suffix[i], frame);
                dedup_outputs_pass(else_body, &suffix[i], frame);
            }
            Block::ParFor { body, .. } => dedup_outputs_pass(body, &suffix[i], frame),
            Block::Basic { .. } => {}
        }
    }
}

// --------------------------------------------------------------- unmarking

fn unmark_loop_carried(program: &mut Program, unmarked: &mut u64) {
    unmark_blocks(&mut program.body, unmarked);
    for f in program.functions.values_mut() {
        unmark_blocks(&mut f.body, unmarked);
    }
}

fn unmark_blocks(blocks: &mut [Block], unmarked: &mut u64) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::For { body, .. } | Block::While { body, .. } | Block::ParFor { body, .. } = b
        {
            let writes: SlotSet = lva::writes(body).into_iter().collect();
            let carried = lva::live_in(body)
                .into_iter()
                .filter(|v| writes.contains(v));
            unmark_tainted(body, carried.collect(), unmarked);
        }
    });
}

/// Unmarks instructions (transitively) depending on loop-carried variables:
/// their lineage differs in every iteration, so caching them only pollutes
/// the cache (paper §4.4, "Unmarking Intermediates").
fn unmark_tainted(blocks: &mut [Block], carried: SlotSet, unmarked: &mut u64) {
    let mut tainted = carried;
    // Two passes propagate taint through straight-line code and one level of
    // back-edges (the carried set itself covers the loop back-edge).
    for _ in 0..2 {
        taint_pass(blocks, &mut tainted);
    }
    apply_unmark(blocks, &tainted, unmarked);
}

fn taint_pass(blocks: &[Block], tainted: &mut SlotSet) {
    walk_blocks(blocks, &mut |b| {
        let Block::Basic { instrs, .. } = b else {
            return;
        };
        for i in instrs {
            if i.read_slots().any(|r| tainted.contains(&r)) {
                tainted.extend(i.write_slots());
            }
        }
    });
}

fn apply_unmark(blocks: &mut [Block], tainted: &SlotSet, unmarked: &mut u64) {
    walk_blocks_mut(blocks, &mut |b| {
        let Block::Basic { instrs, .. } = b else {
            return;
        };
        for i in instrs {
            if !i.no_cache
                && (i.read_slots().any(|r| tainted.contains(&r))
                    || i.write_slots().any(|w| tainted.contains(&w)))
            {
                i.no_cache = true;
                *unmarked += 1;
            }
        }
    });
}

// ------------------------------------------------------- reuse-aware rewrite

/// Rewrites `Z = cbind(X, d); W = tsmm(Z)` inside loop bodies (with
/// loop-invariant `X`, loop-local `Z`) into a compensation-style plan that
/// avoids materializing the cbind entirely — the `LIMA-CA` behaviour of
/// Fig 7(a). The split piece `tsmm(X)` becomes loop-invariant and is served
/// from the lineage cache after the first iteration; `t(X) %*% d` streams
/// `X` without copying it into `t(X)`.
fn rewrite_tsmm_cbind(program: &mut Program) {
    rewrite_blocks(&mut program.body);
    for f in program.functions.values_mut() {
        rewrite_blocks(&mut f.body);
    }
}

fn rewrite_blocks(blocks: &mut [Block]) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::For { body, .. } | Block::While { body, .. } | Block::ParFor { body, .. } = b
        {
            let writes: SlotSet = lva::writes(body).into_iter().collect();
            rewrite_in_loop(body, &writes);
        }
    });
}

fn rewrite_in_loop(blocks: &mut [Block], loop_writes: &SlotSet) {
    for b in blocks {
        let Block::Basic { id, instrs } = b else {
            continue;
        };
        // Count reads of every variable in this basic block.
        let mut read_counts: HashMap<String, usize> = HashMap::new();
        for i in instrs.iter() {
            for r in i.reads() {
                *read_counts.entry(r.to_string()).or_default() += 1;
            }
        }
        let mut k = 0;
        while k + 1 < instrs.len() {
            let fire = {
                let (a, b) = (&instrs[k], &instrs[k + 1]);
                match (&a.op, &b.op) {
                    (Op::Cbind, Op::Tsmm(TsmmSide::Left)) => {
                        let z = &a.outputs[0];
                        let x = a.inputs[0].var_ref();
                        b.inputs.first().and_then(Operand::as_var) == Some(&**z)
                            && read_counts.get(&**z).copied().unwrap_or(0) == 1
                            && x.is_some_and(|x| !loop_writes.contains(&x.slot))
                    }
                    _ => false,
                }
            };
            if fire {
                let cbind = instrs[k].clone();
                let tsmm = instrs[k + 1].clone();
                let x = cbind.inputs[0].clone();
                let d = cbind.inputs[1].clone();
                let w = tsmm.outputs[0].clone();
                let t = |s: &str| format!("__ca{id}_{s}");
                let plan = vec![
                    Instr::new(Op::Tsmm(TsmmSide::Left), vec![x.clone()], t("xx")),
                    Instr::new(Op::TMatMult, vec![x.clone(), d.clone()], t("xd")),
                    Instr::new(Op::Tsmm(TsmmSide::Left), vec![d.clone()], t("dd")),
                    Instr::new(
                        Op::Cbind,
                        vec![Operand::var(t("xx")), Operand::var(t("xd"))],
                        t("top"),
                    ),
                    Instr::new(Op::Transpose, vec![Operand::var(t("xd"))], t("dxt")),
                    Instr::new(
                        Op::Cbind,
                        vec![Operand::var(t("dxt")), Operand::var(t("dd"))],
                        t("bot"),
                    ),
                    Instr::new(
                        Op::Rbind,
                        vec![Operand::var(t("top")), Operand::var(t("bot"))],
                        &*w,
                    ),
                ];
                let n = plan.len();
                instrs.splice(k..k + 2, plan);
                k += n;
            } else {
                k += 1;
            }
        }
    }
}

// ------------------------------------------- speculative projection rewrite

/// Rewrites `T = Y[, 1:k]; W = X %*% T` into `F = X %*% Y; W = F[, 1:k]`
/// (paper §4.4, second example: "if an outer loop calls PCA for different K,
/// a dedicated rewrite speculatively computes A·evect for more efficient
/// partial reuse"). The full product `F` is loop-invariant across a K sweep,
/// so it is computed once and every projection becomes a cheap slice.
///
/// The rewrite fires only when the slice covers all rows starting at column 1
/// (a prefix projection) and the sliced matrix is not used elsewhere in the
/// block — mirroring the cost-based conservatism the paper describes.
fn rewrite_speculative_projection(program: &mut Program) {
    speculative_blocks(&mut program.body);
    for f in program.functions.values_mut() {
        speculative_blocks(&mut f.body);
    }
}

fn speculative_blocks(blocks: &mut [Block]) {
    walk_blocks_mut(blocks, &mut |b| {
        if let Block::Basic { id, instrs } = b {
            rewrite_projection_in_block(*id, instrs);
        }
    });
}

fn rewrite_projection_in_block(id: u64, instrs: &mut Vec<Instr>) {
    let mut read_counts: HashMap<String, usize> = HashMap::new();
    for i in instrs.iter() {
        for r in i.reads() {
            *read_counts.entry(r.to_string()).or_default() += 1;
        }
    }
    let mut k = 0;
    while k + 1 < instrs.len() {
        let fire = {
            let (a, b) = (&instrs[k], &instrs[k + 1]);
            match (&a.op, &b.op) {
                (Op::RightIndex, Op::MatMult) => {
                    // a: T = Y[1:0, 1:cu]  (full rows, column prefix)
                    let t = &a.outputs[0];
                    let full_rows = matches!(
                        (&a.inputs[1], &a.inputs[2]),
                        (
                            Operand::Lit(ScalarValue::I64(1)),
                            Operand::Lit(ScalarValue::I64(0))
                        )
                    );
                    let col_prefix = matches!(&a.inputs[3], Operand::Lit(ScalarValue::I64(1)));
                    full_rows
                        && col_prefix
                        && b.inputs.get(1).and_then(Operand::as_var) == Some(&**t)
                        && read_counts.get(&**t).copied().unwrap_or(0) == 1
                }
                _ => false,
            }
        };
        if fire {
            let slice_i = instrs[k].clone();
            let mm_i = instrs[k + 1].clone();
            let full = format!("__sp{id}_{k}");
            let plan = vec![
                Instr::new(
                    Op::MatMult,
                    vec![mm_i.inputs[0].clone(), slice_i.inputs[0].clone()],
                    full.clone(),
                ),
                Instr::new(
                    Op::RightIndex,
                    vec![
                        Operand::var(full),
                        Operand::i64(1),
                        Operand::i64(0),
                        slice_i.inputs[3].clone(),
                        slice_i.inputs[4].clone(),
                    ],
                    &*mm_i.outputs[0],
                ),
            ];
            instrs.splice(k..k + 2, plan);
            k += 2;
        } else {
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::RandDistKind;
    use crate::program::Function;
    use lima_matrix::ops::BinOp;

    fn mm(a: &str, b: &str, out: &str) -> Instr {
        Instr::new(Op::MatMult, vec![Operand::var(a), Operand::var(b)], out)
    }

    fn rand_sys(out: &str) -> Instr {
        Instr::new(
            Op::Rand(RandDistKind::Uniform),
            vec![
                Operand::i64(2),
                Operand::i64(2),
                Operand::f64(0.0),
                Operand::f64(1.0),
                Operand::f64(1.0),
                Operand::i64(-1),
            ],
            out,
        )
    }

    #[test]
    fn ids_are_assigned_and_unique() {
        let mut p = Program::new(vec![
            Block::basic(vec![]),
            Block::if_else(ExprProg::var("c"), vec![Block::basic(vec![])], vec![]),
        ]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        let id0 = p.body[0].id();
        let id1 = p.body[1].id();
        assert_ne!(id0, 0);
        assert_ne!(id0, id1);
    }

    #[test]
    fn determinism_analysis_flags_randomness_and_effects() {
        let mut p = Program::new(vec![]);
        p.add_function(Function::new(
            "pure",
            vec!["X".into()],
            vec!["Y".into()],
            vec![Block::basic(vec![mm("X", "X", "Y")])],
        ));
        p.add_function(Function::new(
            "rng",
            vec![],
            vec!["Y".into()],
            vec![Block::basic(vec![rand_sys("Y")])],
        ));
        p.add_function(Function::new(
            "caller",
            vec![],
            vec!["Y".into()],
            vec![Block::basic(vec![Instr::multi(
                Op::FCall("rng".into()),
                vec![],
                vec!["Y".into()],
            )])],
        ));
        p.add_function(Function::new(
            "printer",
            vec!["X".into()],
            vec!["X".into()],
            vec![Block::basic(vec![Instr::effect(
                Op::Print,
                vec![Operand::var("X")],
            )])],
        ));
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        assert!(p.functions["pure"].deterministic);
        assert!(!p.functions["rng"].deterministic);
        assert!(!p.functions["caller"].deterministic);
        assert!(!p.functions["printer"].deterministic);
    }

    #[test]
    fn explicit_seed_rand_is_deterministic() {
        let mut p = Program::new(vec![]);
        let mut instr = rand_sys("Y");
        instr.inputs[5] = Operand::i64(42);
        p.add_function(Function::new(
            "seeded",
            vec![],
            vec!["Y".into()],
            vec![Block::basic(vec![instr])],
        ));
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        assert!(p.functions["seeded"].deterministic);
    }

    #[test]
    fn dedup_eligibility_and_branch_ids() {
        let body = vec![
            Block::basic(vec![mm("G", "p", "t1")]),
            Block::if_else(
                ExprProg::var("c"),
                vec![Block::basic(vec![mm("t1", "p", "p")])],
                vec![Block::basic(vec![mm("p", "t1", "p")])],
            ),
        ];
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::For { dedup_ok, body, .. } => {
                assert!(dedup_ok);
                match &body[1] {
                    Block::If { branch_id, .. } => assert_eq!(*branch_id, Some(0)),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn nested_loops_are_not_last_level() {
        let inner = Block::for_loop(
            "j",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(2)),
            ExprProg::lit(Operand::i64(1)),
            vec![Block::basic(vec![mm("X", "X", "X")])],
        );
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(2)),
            ExprProg::lit(Operand::i64(1)),
            vec![inner],
        )]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::For { dedup_ok, body, .. } => {
                assert!(!dedup_ok);
                // The inner loop IS last-level.
                match &body[0] {
                    Block::For { dedup_ok, .. } => assert!(dedup_ok),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unmarking_taints_loop_carried_chains() {
        // X = (X + X) * 2 inside a loop: both instructions unmarked;
        // Y = A %*% A is invariant and stays cacheable.
        let body = vec![Block::basic(vec![
            Instr::new(
                Op::Binary(BinOp::Add),
                vec![Operand::var("X"), Operand::var("X")],
                "t",
            ),
            Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::var("t"), Operand::f64(2.0)],
                "X",
            ),
            mm("A", "A", "Y"),
        ])];
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::For { body, .. } => match &body[0] {
                Block::Basic { instrs, .. } => {
                    assert!(instrs[0].no_cache);
                    assert!(instrs[1].no_cache);
                    assert!(!instrs[2].no_cache);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn tsmm_cbind_rewrite_fires_in_loops() {
        let body = vec![Block::basic(vec![
            Instr::new(Op::Cbind, vec![Operand::var("X"), Operand::var("d")], "Z"),
            Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("Z")], "W"),
        ])];
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::For { body, .. } => match &body[0] {
                Block::Basic { instrs, .. } => {
                    assert_eq!(instrs.len(), 7, "cbind+tsmm replaced by 7-instr plan");
                    assert!(matches!(instrs[0].op, Op::Tsmm(_)));
                    // `t(X) %*% d` is one instruction: `X` is never copied.
                    assert!(matches!(instrs[1].op, Op::TMatMult));
                    assert!(!instrs
                        .iter()
                        .any(|i| i.inputs.first() == Some(&Operand::var("X"))
                            && matches!(i.op, Op::Transpose)));
                    assert!(matches!(instrs.last().unwrap().op, Op::Rbind));
                    assert_eq!(&*instrs.last().unwrap().outputs[0], "W");
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn speculative_projection_rewrite_fires() {
        // T = Y[, 1:k]; W = X %*% T  ->  F = X %*% Y; W = F[, 1:k]
        let mut p = Program::new(vec![Block::basic(vec![
            Instr::new(
                Op::RightIndex,
                vec![
                    Operand::var("Y"),
                    Operand::i64(1),
                    Operand::i64(0),
                    Operand::i64(1),
                    Operand::var("k"),
                ],
                "T",
            ),
            Instr::new(Op::MatMult, vec![Operand::var("X"), Operand::var("T")], "W"),
        ])]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::Basic { instrs, .. } => {
                assert_eq!(instrs.len(), 2);
                assert!(matches!(instrs[0].op, Op::MatMult));
                assert!(matches!(instrs[1].op, Op::RightIndex));
                assert_eq!(&*instrs[1].outputs[0], "W");
            }
            _ => panic!(),
        }
        // Without compiler assistance nothing changes.
        let mut p2 = Program::new(vec![Block::basic(vec![
            Instr::new(
                Op::RightIndex,
                vec![
                    Operand::var("Y"),
                    Operand::i64(1),
                    Operand::i64(0),
                    Operand::i64(1),
                    Operand::var("k"),
                ],
                "T",
            ),
            Instr::new(Op::MatMult, vec![Operand::var("X"), Operand::var("T")], "W"),
        ])]);
        compile(&mut p2, &LimaConfig::base()).expect("compiles");
        match &p2.body[0] {
            Block::Basic { instrs, .. } => assert!(matches!(instrs[0].op, Op::RightIndex)),
            _ => panic!(),
        }
    }

    #[test]
    fn speculative_projection_skips_non_prefix_slices() {
        // Row-restricted slice: not a pure column-prefix projection.
        let mut p = Program::new(vec![Block::basic(vec![
            Instr::new(
                Op::RightIndex,
                vec![
                    Operand::var("Y"),
                    Operand::i64(2),
                    Operand::i64(5),
                    Operand::i64(1),
                    Operand::var("k"),
                ],
                "T",
            ),
            Instr::new(Op::MatMult, vec![Operand::var("X"), Operand::var("T")], "W"),
        ])]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::Basic { instrs, .. } => assert!(matches!(instrs[0].op, Op::RightIndex)),
            _ => panic!(),
        }
    }

    #[test]
    fn tsmm_cbind_rewrite_skips_when_z_is_reused() {
        let body = vec![Block::basic(vec![
            Instr::new(Op::Cbind, vec![Operand::var("X"), Operand::var("d")], "Z"),
            Instr::new(Op::Tsmm(TsmmSide::Left), vec![Operand::var("Z")], "W"),
            mm("Z", "Z", "V"), // Z read again → rewrite must not fire
        ])];
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )]);
        compile(&mut p, &LimaConfig::default()).expect("compiles");
        match &p.body[0] {
            Block::For { body, .. } => match &body[0] {
                Block::Basic { instrs, .. } => assert_eq!(instrs.len(), 3),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    // ------------------------------------------------- parfor dependences

    fn left_index(target: &str, value: &str, row: Operand, col: Operand) -> Instr {
        Instr::new(
            Op::LeftIndex,
            vec![Operand::var(target), Operand::var(value), row, col],
            target,
        )
    }

    fn parfor_over(var: &str, from: i64, to: i64, body: Vec<Block>) -> Program {
        Program::new(vec![Block::parfor(
            var,
            ExprProg::lit(Operand::i64(from)),
            ExprProg::lit(Operand::i64(to)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )])
    }

    #[test]
    fn racy_parfor_fails_compilation() {
        // R[1, 1] = x in every iteration: loop-invariant index.
        let body = vec![Block::basic(vec![left_index(
            "R",
            "x",
            Operand::i64(1),
            Operand::i64(1),
        )])];
        let mut p = parfor_over("i", 1, 4, body);
        let err = compile(&mut p, &LimaConfig::default()).unwrap_err();
        let CompileError::ParforDependence {
            block_id,
            violation,
            ..
        } = &err;
        assert_ne!(*block_id, 0);
        assert_eq!(
            violation,
            &ParforViolation::LoopInvariantIndex { var: "R".into() }
        );
        assert!(err.to_string().contains("cannot run in parallel"));
    }

    #[test]
    fn disjoint_parfor_writes_compile() {
        let body = vec![Block::basic(vec![left_index(
            "R",
            "x",
            Operand::var("i"),
            Operand::i64(1),
        )])];
        let mut p = parfor_over("i", 1, 4, body);
        compile(&mut p, &LimaConfig::default()).expect("disjoint writes accepted");
    }

    #[test]
    fn whole_variable_parfor_write_rejected() {
        // acc = acc + i: reassigned as a whole each iteration.
        let body = vec![Block::basic(vec![Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var("acc"), Operand::var("i")],
            "acc",
        )])];
        let mut p = parfor_over("i", 1, 4, body);
        let CompileError::ParforDependence { violation, .. } =
            compile(&mut p, &LimaConfig::default()).unwrap_err();
        assert_eq!(
            violation,
            ParforViolation::WholeVarWrite { var: "acc".into() }
        );
    }

    #[test]
    fn affine_temp_chain_accepted() {
        // t = 2*i; t = t - 1; B[t, 1] = x — folded through the affine env.
        let body = vec![Block::basic(vec![
            Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::i64(2), Operand::var("i")],
                "t",
            ),
            Instr::new(
                Op::Binary(BinOp::Sub),
                vec![Operand::var("t"), Operand::i64(1)],
                "t",
            ),
            left_index("B", "x", Operand::var("t"), Operand::i64(1)),
        ])];
        let mut p = parfor_over("i", 1, 4, body);
        compile(&mut p, &LimaConfig::default()).expect("affine chain accepted");
    }

    #[test]
    fn conditionally_assigned_index_rejected() {
        // if (c) { t = i } else { t = 1 }; R[t, 1] = x — t has no single
        // affine value after the conditional.
        let body = vec![
            Block::if_else(
                ExprProg::var("c"),
                vec![Block::basic(vec![Instr::new(
                    Op::Assign,
                    vec![Operand::var("i")],
                    "t",
                )])],
                vec![Block::basic(vec![Instr::new(
                    Op::Assign,
                    vec![Operand::i64(1)],
                    "t",
                )])],
            ),
            Block::basic(vec![left_index(
                "R",
                "x",
                Operand::var("t"),
                Operand::i64(1),
            )]),
        ];
        let mut p = parfor_over("i", 1, 4, body);
        let CompileError::ParforDependence { violation, .. } =
            compile(&mut p, &LimaConfig::default()).unwrap_err();
        assert_eq!(
            violation,
            ParforViolation::NonAffineIndex { var: "R".into() }
        );
    }

    #[test]
    fn nested_loop_result_write_rejected() {
        // parfor i { for j { R[j, 1] = x } } — unanalyzable in i.
        let inner = Block::for_loop(
            "j",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(2)),
            ExprProg::lit(Operand::i64(1)),
            vec![Block::basic(vec![left_index(
                "R",
                "x",
                Operand::var("j"),
                Operand::i64(1),
            )])],
        );
        let mut p = parfor_over("i", 1, 4, vec![inner]);
        let CompileError::ParforDependence { violation, .. } =
            compile(&mut p, &LimaConfig::default()).unwrap_err();
        assert_eq!(
            violation,
            ParforViolation::WholeVarWrite { var: "R".into() }
        );
    }

    #[test]
    fn single_trip_parfor_skips_dependence_check() {
        let body = vec![Block::basic(vec![left_index(
            "R",
            "x",
            Operand::i64(1),
            Operand::i64(1),
        )])];
        let mut p = parfor_over("i", 1, 1, body);
        compile(&mut p, &LimaConfig::default()).expect("single-trip parfor accepted");
    }

    #[test]
    fn compile_report_counts_unmarking_and_ineligible_functions() {
        let body = vec![Block::basic(vec![
            Instr::new(
                Op::Binary(BinOp::Add),
                vec![Operand::var("X"), Operand::var("X")],
                "t",
            ),
            Instr::new(
                Op::Binary(BinOp::Mul),
                vec![Operand::var("t"), Operand::f64(2.0)],
                "X",
            ),
        ])];
        let mut p = Program::new(vec![Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            body,
        )]);
        p.add_function(Function::new(
            "rng",
            vec![],
            vec!["Y".into()],
            vec![Block::basic(vec![rand_sys("Y")])],
        ));
        p.add_function(Function::new(
            "pure",
            vec!["X".into()],
            vec!["Y".into()],
            vec![Block::basic(vec![mm("X", "X", "Y")])],
        ));
        let report = compile(&mut p, &LimaConfig::default()).expect("compiles");
        assert_eq!(report.ops_unmarked, 2);
        assert_eq!(report.funcs_reuse_ineligible, 1);
        assert_eq!(p.analysis, report);
    }
}
