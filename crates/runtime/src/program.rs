//! Program representation (paper §2.2, "program compilation"): a hierarchy of
//! program blocks whose leaves are instruction sequences, plus a function
//! registry. Control flow and variable scoping are handled by the runtime
//! itself, not a host language.

use crate::instr::{Instr, Op, Operand, Var};
use lima_core::opcodes::OpClass;
use lima_core::Frame;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A tiny straight-line expression program: instructions plus the operand
/// holding the result. Used for `if`/`while` predicates and loop bounds,
/// which SystemDS compiles into their own DAGs.
#[derive(Debug, Clone)]
pub struct ExprProg {
    /// Instructions evaluated in order (temporaries live in the symbol table).
    pub instrs: Vec<Instr>,
    /// The operand that carries the result after execution.
    pub result: Operand,
}

impl ExprProg {
    /// A literal expression with no instructions.
    pub fn lit(op: Operand) -> Self {
        ExprProg {
            instrs: Vec::new(),
            result: op,
        }
    }

    /// A plain variable reference.
    pub fn var(name: impl AsRef<str>) -> Self {
        Self::lit(Operand::var(name))
    }

    /// Instructions followed by a result operand.
    pub fn new(instrs: Vec<Instr>, result: Operand) -> Self {
        ExprProg { instrs, result }
    }

    fn vars_mut(&mut self) -> impl Iterator<Item = &mut Var> {
        let instrs = self.instrs.iter_mut().flat_map(Instr::vars_mut);
        instrs.chain(self.result.var_mut())
    }
}

/// A program block (paper Fig 1: operations, control-flow blocks, functions).
#[derive(Debug, Clone)]
pub enum Block {
    /// Straight-line instruction sequence.
    Basic {
        /// Stable block ID (assigned by the compiler pass).
        id: u64,
        instrs: Vec<Instr>,
    },
    /// Conditional.
    If {
        id: u64,
        /// Branch position inside a dedup-eligible body, assigned depth-first
        /// (paper §3.2 "Loop Deduplication Setup"); `None` outside dedup scope.
        branch_id: Option<u32>,
        pred: ExprProg,
        then_body: Vec<Block>,
        else_body: Vec<Block>,
    },
    /// Counted loop.
    For {
        id: u64,
        var: Var,
        from: ExprProg,
        to: ExprProg,
        by: ExprProg,
        body: Vec<Block>,
        /// Set by the compiler when the body qualifies for lineage
        /// deduplication (last-level, ≤63 branches).
        dedup_ok: bool,
        /// Set by the compiler: the body is last-level and deterministic, so
        /// the loop qualifies for block-level (multi-level) reuse.
        reuse_ok: bool,
        /// Live-out variables of the body (written and possibly read after
        /// the loop or carried into the next iteration); only these receive
        /// dedup items — dead temporaries are dropped from the trace.
        dedup_outputs: Vec<Var>,
    },
    /// Condition-controlled loop.
    While {
        id: u64,
        pred: ExprProg,
        body: Vec<Block>,
        dedup_ok: bool,
        dedup_outputs: Vec<Var>,
    },
    /// Task-parallel counted loop (paper §3.3): iterations execute on worker
    /// threads with worker-local lineage and a result merge.
    ParFor {
        id: u64,
        var: Var,
        from: ExprProg,
        to: ExprProg,
        by: ExprProg,
        body: Vec<Block>,
        /// Result variables merged across workers (filled by the compiler:
        /// variables that exist before the loop and are updated inside).
        results: Vec<Var>,
        /// Worker threads; `None` picks a default.
        degree: Option<usize>,
        /// Byte span of the `parfor` header in the original script (set by
        /// the lowering; `None` for hand-built programs).
        span: Option<lima_core::Span>,
    },
}

impl Block {
    /// Basic block constructor (ID assigned later by the compiler).
    pub fn basic(instrs: Vec<Instr>) -> Block {
        Block::Basic { id: 0, instrs }
    }

    /// If/else constructor.
    pub fn if_else(pred: ExprProg, then_body: Vec<Block>, else_body: Vec<Block>) -> Block {
        Block::If {
            id: 0,
            branch_id: None,
            pred,
            then_body,
            else_body,
        }
    }

    /// For-loop constructor.
    pub fn for_loop(
        var: impl Into<Var>,
        from: ExprProg,
        to: ExprProg,
        by: ExprProg,
        body: Vec<Block>,
    ) -> Block {
        Block::For {
            id: 0,
            var: var.into(),
            from,
            to,
            by,
            body,
            dedup_ok: false,
            reuse_ok: false,
            dedup_outputs: Vec::new(),
        }
    }

    /// While-loop constructor.
    pub fn while_loop(pred: ExprProg, body: Vec<Block>) -> Block {
        Block::While {
            id: 0,
            pred,
            body,
            dedup_ok: false,
            dedup_outputs: Vec::new(),
        }
    }

    /// ParFor constructor.
    pub fn parfor(
        var: impl Into<Var>,
        from: ExprProg,
        to: ExprProg,
        by: ExprProg,
        body: Vec<Block>,
    ) -> Block {
        Block::ParFor {
            id: 0,
            var: var.into(),
            from,
            to,
            by,
            body,
            results: Vec::new(),
            degree: None,
            span: None,
        }
    }

    /// Attaches a source span to a `ParFor` header (no-op for other blocks).
    pub fn with_span(mut self, s: Option<lima_core::Span>) -> Block {
        if let Block::ParFor { span, .. } = &mut self {
            *span = s;
        }
        self
    }

    /// The block's stable ID.
    pub fn id(&self) -> u64 {
        match self {
            Block::Basic { id, .. }
            | Block::If { id, .. }
            | Block::For { id, .. }
            | Block::While { id, .. }
            | Block::ParFor { id, .. } => *id,
        }
    }

    /// Header expressions of a control-flow block in evaluation order
    /// (`pred`; `from`, `to`, `by`); a basic block has none.
    pub fn header(&self) -> impl Iterator<Item = &ExprProg> {
        let exprs = match self {
            Block::Basic { .. } => [None, None, None],
            Block::If { pred, .. } | Block::While { pred, .. } => [Some(pred), None, None],
            Block::For { from, to, by, .. } | Block::ParFor { from, to, by, .. } => {
                [Some(from), Some(to), Some(by)]
            }
        };
        exprs.into_iter().flatten()
    }

    /// The instructions the block evaluates itself: a basic block's sequence
    /// or a control-flow block's header expressions, in evaluation order.
    pub fn own_instrs(&self) -> impl Iterator<Item = &Instr> {
        let basic: &[Instr] = match self {
            Block::Basic { instrs, .. } => instrs,
            _ => &[],
        };
        basic.iter().chain(self.header().flat_map(|e| &e.instrs))
    }

    /// Child block lists in source order (`then` before `else`).
    pub fn children(&self) -> [&[Block]; 2] {
        match self {
            Block::Basic { .. } => [&[], &[]],
            Block::If {
                then_body,
                else_body,
                ..
            } => [then_body, else_body],
            Block::For { body, .. } | Block::While { body, .. } | Block::ParFor { body, .. } => {
                [body, &[]]
            }
        }
    }

    /// [`Block::children`], mutably.
    pub fn children_mut(&mut self) -> [&mut [Block]; 2] {
        match self {
            Block::Basic { .. } => [&mut [], &mut []],
            Block::If {
                then_body,
                else_body,
                ..
            } => [then_body, else_body],
            Block::For { body, .. } | Block::While { body, .. } | Block::ParFor { body, .. } => {
                [body, &mut []]
            }
        }
    }
}

/// Pre-order walk over `blocks` and everything nested in them: a block is
/// visited before its children, children in source order. This is the order
/// block ids are assigned in, so passes built on it agree with them.
pub fn walk_blocks<'a>(blocks: &'a [Block], visit: &mut impl FnMut(&'a Block)) {
    for b in blocks {
        visit(b);
        for children in b.children() {
            walk_blocks(children, visit);
        }
    }
}

/// [`walk_blocks`] with mutable access to each block.
pub fn walk_blocks_mut(blocks: &mut [Block], visit: &mut impl FnMut(&mut Block)) {
    for b in blocks {
        visit(b);
        for children in b.children_mut() {
            walk_blocks_mut(children, visit);
        }
    }
}

/// What a walk over a frame's variables calls on each.
type VarVisitor<'a> = &'a mut dyn FnMut(&mut Var);

/// Calls `f` on every variable `blocks` name: instruction operands and
/// outputs, header results, loop indices, parfor results, dedup outputs.
fn for_each_var_mut(blocks: &mut [Block], f: VarVisitor<'_>) {
    walk_blocks_mut(blocks, &mut |b| match b {
        Block::Basic { instrs, .. } => instrs
            .iter_mut()
            .flat_map(Instr::vars_mut)
            .for_each(&mut *f),
        Block::If { pred, .. } => pred.vars_mut().for_each(&mut *f),
        Block::While {
            pred,
            dedup_outputs: vars,
            ..
        } => {
            pred.vars_mut().chain(vars).for_each(&mut *f);
        }
        Block::For {
            var,
            from,
            to,
            by,
            dedup_outputs: vars,
            ..
        }
        | Block::ParFor {
            var,
            from,
            to,
            by,
            results: vars,
            ..
        } => {
            let exprs = [from, to, by].into_iter().flat_map(ExprProg::vars_mut);
            std::iter::once(var)
                .chain(vars)
                .chain(exprs)
                .for_each(&mut *f);
        }
    });
}

/// Numbers one frame: each distinct name `visit` reaches gets the slot of its
/// rank in sorted order, so a set of slots iterates in name order (the
/// placeholder order of dedup patches), and every variable of the name shares
/// one copy of it. Returns the frame's registry.
fn number_frame(visit: &mut dyn FnMut(VarVisitor<'_>)) -> Arc<Frame> {
    let mut names: Vec<Arc<str>> = Vec::new();
    visit(&mut |v| names.push(Arc::clone(&v.name)));
    names.sort_unstable();
    names.dedup();
    visit(&mut |v| {
        if let Ok(k) = names.binary_search(&v.name) {
            v.slot = k as u32;
            v.name = Arc::clone(&names[k]);
        }
    });
    Arc::new(names)
}

/// A script-level function (paper Example 1: `gridSearch`, `lm`, `lmDS`, ...).
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Parameters, bound positionally at call sites.
    pub params: Vec<Var>,
    /// Output variables returned to the caller.
    pub outputs: Vec<Var>,
    pub body: Vec<Block>,
    /// Set by the compiler: no non-deterministic ops or calls, no side
    /// effects — the function qualifies for multi-level reuse (memoization).
    pub deterministic: bool,
    /// Set by the compiler: the body's class, joined over the call graph.
    pub class: OpClass,
    /// Set by the compiler: body qualifies for function-level lineage
    /// deduplication (no loops or nested calls, ≤63 branches).
    pub dedup_ok: bool,
    /// Live-out variables of the body for function dedup (outputs + carried).
    pub dedup_outputs: Vec<Var>,
    /// The body's frame: a call binds its own symbol table and lineage map
    /// with one cell per slot.
    pub frame: Arc<Frame>,
}

impl Function {
    /// New function, its frame numbered; analysis flags are filled in by
    /// the compiler.
    pub fn new(
        name: impl Into<String>,
        params: Vec<String>,
        outputs: Vec<String>,
        body: Vec<Block>,
    ) -> Self {
        let mut f = Function {
            name: name.into(),
            params: params.into_iter().map(Var::from).collect(),
            outputs: outputs.into_iter().map(Var::from).collect(),
            body,
            deterministic: false,
            class: OpClass::NonDeterministic,
            dedup_ok: false,
            dedup_outputs: Vec::new(),
            frame: Arc::default(),
        };
        f.number_frame();
        f
    }

    /// Numbers the body's frame, parameters and outputs included.
    pub fn number_frame(&mut self) {
        let (params, outputs, dedup) =
            (&mut self.params, &mut self.outputs, &mut self.dedup_outputs);
        let body = &mut self.body;
        self.frame = number_frame(&mut |f| {
            params
                .iter_mut()
                .chain(outputs.iter_mut())
                .chain(dedup.iter_mut())
                .for_each(&mut *f);
            for_each_var_mut(body, f);
        });
    }
}

/// A complete program: top-level blocks plus the function registry.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub body: Vec<Block>,
    pub functions: HashMap<String, Function>,
    /// The body's frame (its loops included; each function has its own).
    pub frame: Arc<Frame>,
    /// Script fingerprint making block IDs stable across compilations of the
    /// same source (used in block-level cache keys).
    pub fingerprint: u64,
    /// Static-analysis counters from the compiler passes, folded into
    /// `LimaStats` when the program executes.
    pub analysis: crate::compiler::CompileReport,
}

impl Program {
    /// Program from top-level blocks, its frame numbered.
    pub fn new(body: Vec<Block>) -> Self {
        let mut program = Program {
            body,
            functions: HashMap::new(),
            frame: Arc::default(),
            fingerprint: 0,
            analysis: crate::compiler::CompileReport::default(),
        };
        program.number_body();
        program
    }

    /// Numbers the body's frame and every function's.
    pub fn number_frames(&mut self) {
        self.number_body();
        self.functions.values_mut().for_each(Function::number_frame);
    }

    fn number_body(&mut self) {
        let body = &mut self.body;
        self.frame = number_frame(&mut |f| for_each_var_mut(body, f));
    }

    /// Registers a function.
    pub fn add_function(&mut self, f: Function) {
        self.functions.insert(f.name.clone(), f);
    }

    /// Drops every function the body cannot reach through static
    /// [`Op::FCall`] names (the only way the interpreter looks one up).
    /// Nothing else changes — block ids, analysis flags and the compile
    /// report stay as compiled — so the pruned program executes, traces and
    /// reuses exactly like the full one; it just holds less memory.
    pub fn retain_reachable(&mut self) {
        let mut reachable = HashSet::new();
        let mut pending: Vec<&[Block]> = vec![&self.body];
        while let Some(blocks) = pending.pop() {
            walk_blocks(blocks, &mut |b| {
                for i in b.own_instrs() {
                    let Op::FCall(name) = &i.op else { continue };
                    if let Some(f) = self.functions.get(name) {
                        if reachable.insert(name.clone()) {
                            pending.push(&f.body);
                        }
                    }
                }
            });
        }
        self.functions.retain(|name, _| reachable.contains(name));
        self.functions.shrink_to_fit();
    }

    /// Instructions held by the body and every registered function (header
    /// expressions included): the unit a program's memory is weighed in.
    pub fn instr_count(&self) -> usize {
        let mut n = 0;
        let bodies = self.functions.values().map(|f| &f.body);
        for blocks in std::iter::once(&self.body).chain(bodies) {
            walk_blocks(blocks, &mut |b| n += b.own_instrs().count());
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Op};

    #[test]
    fn constructors_build_expected_shapes() {
        let b = Block::basic(vec![Instr::new(Op::Assign, vec![Operand::f64(1.0)], "x")]);
        assert_eq!(b.id(), 0);
        let f = Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            vec![b],
        );
        match &f {
            Block::For { var, dedup_ok, .. } => {
                assert_eq!(&*var.name, "i");
                assert!(!dedup_ok);
            }
            _ => panic!(),
        }
        let w = Block::while_loop(ExprProg::var("c"), vec![]);
        assert!(matches!(w, Block::While { .. }));
        let p = Block::parfor(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(2)),
            ExprProg::lit(Operand::i64(1)),
            vec![],
        );
        assert!(matches!(p, Block::ParFor { .. }));
        let i = Block::if_else(ExprProg::var("c"), vec![], vec![]);
        assert!(matches!(
            i,
            Block::If {
                branch_id: None,
                ..
            }
        ));
    }

    #[test]
    fn program_registers_functions() {
        let mut p = Program::new(vec![]);
        p.add_function(Function::new(
            "lm",
            vec!["X".into()],
            vec!["B".into()],
            vec![],
        ));
        assert!(p.functions.contains_key("lm"));
        assert_eq!(&*p.functions["lm"].params[0].name, "X");
        assert!(!p.functions["lm"].deterministic);
    }
}
