//! Re-computation from lineage (paper §3.1, Fig 3 "reconstruct"): generates a
//! straight-line runtime program from a lineage DAG that — given the same
//! inputs — computes exactly the same intermediate.
//!
//! The program is emitted in one bottom-up pass over the *deduplicated* DAG:
//! a dedup item is never expanded into lineage items. Each distinct
//! `(patch, inputs)` pair is one *instance* of the patch's compiled plan
//! ([`PatchPlan`]) with a memo of the plan nodes already emitted, so the
//! outputs of one loop iteration share their common body, and only what the
//! requested item depends on is visited at all (an output nobody reads, and
//! the inputs only it uses, cost nothing). Temporaries are numbered densely
//! (`t0`, `t1`, ...) and removed right after their last use, so a replay
//! holds its live set rather than every intermediate of the trace.

use crate::context::ExecutionContext;
use crate::error::{Result, RuntimeError};
use crate::instr::{Instr, Op, Operand, RandDistKind};
use crate::interp::execute_instr;
use crate::program::Program;
use lima_core::lineage::dedup::{DedupPatch, PatchPlan, PlanRef, PlanRoot};
use lima_core::lineage::item::{FxBuildHasher, LinRef, LineageItem, LineageKind};
use lima_core::lineage::serialize::{push_u64, take_exact};
use lima_core::opcodes as oc;
use lima_matrix::ops::{AggFn, BinOp, TsmmSide, UnOp};
use lima_matrix::{ScalarValue, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A program reconstructed from lineage: instructions plus the variable
/// holding the final result. Every other variable the program binds it also
/// removes (`rmvar`) after the last instruction that reads it.
#[derive(Debug)]
pub struct ReconstructedProgram {
    pub instrs: Vec<Instr>,
    pub result_var: String,
}

/// Generates a runtime program from a lineage DAG. In contrast to the
/// original program it contains no control flow — only the operations that
/// computed the output.
pub fn reconstruct(root: &LinRef) -> Result<ReconstructedProgram> {
    let mut emitter = Emitter::default();
    let result = match emitter.emit_dag(root)? {
        Val::Temp(t) => t,
        // A bare literal still needs a variable to be the result.
        Val::Lit(s) => emitter.push_instr(Op::Assign, vec![Operand::Lit(s)], 1),
    };
    Ok(emitter.finish(result))
}

/// Executes a reconstructed program against a context (whose data registry
/// must serve the original `read` paths and external inputs) and returns the
/// recomputed value. A replay that succeeds leaves none of the program's
/// variables in the context.
pub fn recompute(root: &LinRef, ctx: &mut ExecutionContext) -> Result<Value> {
    let prog = reconstruct(root)?;
    let empty = Program::default();
    for i in &prog.instrs {
        execute_instr(i, &empty, ctx)?;
    }
    ctx.lineage.remove(&prog.result_var);
    ctx.symtab
        .remove(prog.result_var.as_str())
        .ok_or(RuntimeError::UndefinedVariable(prog.result_var))
}

/// What a lineage item or plan node evaluates to in the emitted program.
#[derive(Debug, Clone)]
enum Val {
    /// Temporary `t<n>`.
    Temp(u32),
    /// A literal, inlined as an operand of every instruction that reads it.
    Lit(ScalarValue),
}

/// Marks a plan node not emitted yet in an instance's memo.
const UNSET: u32 = u32::MAX;

fn temp_name(t: u32) -> Arc<str> {
    let mut name = String::with_capacity(8);
    name.push('t');
    push_u64(&mut name, u64::from(t));
    name.into()
}

fn bad(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::Reconstruct(msg.into())
}

fn literal_of(item: &LineageItem) -> Result<ScalarValue> {
    ScalarValue::from_lineage_literal(item.data().unwrap_or(""))
        .ok_or_else(|| bad(format!("bad literal '{:?}'", item.data())))
}

/// Values of the DAG's items emitted so far, by item id.
type Vals = HashMap<u64, Val, FxBuildHasher>;

/// The instruction list under construction.
#[derive(Default)]
struct Emitter {
    instrs: Vec<Instr>,
    /// Per temporary: its name (shared by every instruction that mentions
    /// it) and the index of the last instruction reading it so far (of its
    /// defining instruction while nothing does).
    temps: Vec<(Arc<str>, usize)>,
    /// Plan-node memos of all patch instances, `UNSET` or a temporary each;
    /// an instance owns `plan.len()` cells from its offset.
    memos: Vec<u32>,
    /// `[patch id, input item ids...]` → offset of the instance in `memos`.
    instances: HashMap<Box<[u64]>, usize, FxBuildHasher>,
}

impl Emitter {
    /// Appends an instruction binding `outputs` fresh temporaries and
    /// returns the first of them.
    fn push_instr(&mut self, op: Op, inputs: Vec<Operand>, outputs: u32) -> u32 {
        let first = self.temps.len() as u32;
        let at = self.instrs.len();
        let names: Vec<Arc<str>> = (first..first + outputs).map(temp_name).collect();
        self.temps
            .extend(names.iter().map(|name| (name.clone(), at)));
        let mut instr = Instr::effect(op, inputs);
        instr.outputs = names;
        self.instrs.push(instr);
        first
    }

    /// Emits the instruction recomputing operation `item` from the operands
    /// `ins` reading its lineage inputs; returns the temporary it binds.
    fn emit_op(&mut self, item: &LineageItem, ins: Vec<Operand>) -> Result<u32> {
        let (op, ins) = build_op(item, ins)?;
        let outputs = if matches!(op, Op::Eigen) { 2 } else { 1 };
        Ok(self.push_instr(op, ins, outputs))
    }

    /// Emits everything `root` depends on, inputs before consumers.
    fn emit_dag(&mut self, root: &LinRef) -> Result<Val> {
        let mut vals = Vals::default();
        // (item, inputs already pushed)
        let mut stack: Vec<(&LinRef, bool)> = vec![(root, false)];
        while let Some((item, ready)) = stack.pop() {
            if vals.contains_key(&item.id()) {
                continue;
            }
            if !ready {
                stack.push((item, true));
                let before = stack.len();
                for_each_needed_input(item, |i| {
                    if !vals.contains_key(&i.id()) {
                        stack.push((i, false));
                    }
                })?;
                if stack.len() > before {
                    continue;
                }
                stack.pop();
            }
            let val = match item.kind() {
                LineageKind::Dedup(patch) => self.emit_patch_output(item, patch, &vals)?,
                LineageKind::Literal => Val::Lit(literal_of(item)?),
                LineageKind::Placeholder(slot) => {
                    return Err(bad(format!("unresolved placeholder slot {slot}")))
                }
                LineageKind::Op => match eigen_output(item, &vals) {
                    Some(val) => val,
                    None => {
                        let inputs = item.inputs().iter().map(|i| input_val(&vals, i));
                        let ins = operands(&mut self.temps, self.instrs.len(), inputs)?;
                        Val::Temp(self.emit_op(item, ins)?)
                    }
                },
            };
            vals.insert(item.id(), val);
        }
        input_val(&vals, root)
    }

    /// Emits what the output `item` stands for still lacks in its patch
    /// instance, and returns the output's value.
    fn emit_patch_output(&mut self, item: &LinRef, patch: &DedupPatch, vals: &Vals) -> Result<Val> {
        let plan = patch.plan();
        let root = plan_root(item, patch)?;
        let key: Box<[u64]> = std::iter::once(patch.patch_id())
            .chain(item.inputs().iter().map(|i| i.id()))
            .collect();
        let base = match self.instances.get(&key) {
            Some(&base) => base,
            None => {
                let base = self.memos.len();
                self.memos.resize(base + plan.len(), UNSET);
                self.instances.insert(key, base);
                base
            }
        };
        let slot = |s: u32| match item.inputs().get(s as usize) {
            Some(i) => input_val(vals, i),
            None => Err(bad(format!("unbound placeholder slot {s}"))),
        };
        for &n in root.reach() {
            let Some(node) = plan.node_item(n) else {
                continue;
            };
            // Literals are inlined where they are read; anything else is
            // emitted once per instance.
            if matches!(node.kind(), LineageKind::Literal)
                || self.memos.get(base + n as usize) != Some(&UNSET)
            {
                continue;
            }
            let memos = &self.memos;
            let inputs = plan
                .node_args(n)
                .iter()
                .map(|&r| plan_val(plan, memos, base, r, &slot));
            let ins = operands(&mut self.temps, self.instrs.len(), inputs)?;
            let t = self.emit_op(node, ins)?;
            if let Some(cell) = self.memos.get_mut(base + n as usize) {
                *cell = t;
            }
        }
        plan_val(plan, &self.memos, base, root.value(), &slot)
    }

    /// Interleaves the removal of every temporary but `result` after the
    /// last instruction that reads it.
    fn finish(self, result: u32) -> ReconstructedProgram {
        let mut dead: Vec<Vec<Operand>> = vec![Vec::new(); self.instrs.len()];
        for (t, (name, at)) in (0u32..).zip(&self.temps) {
            if let (true, Some(after)) = (t != result, dead.get_mut(*at)) {
                after.push(Operand::Var(name.clone()));
            }
        }
        let mut instrs = Vec::with_capacity(2 * self.instrs.len());
        for (instr, dead) in self.instrs.into_iter().zip(dead) {
            instrs.push(instr);
            if !dead.is_empty() {
                instrs.push(Instr::effect(Op::Rmvar, dead));
            }
        }
        ReconstructedProgram {
            instrs,
            result_var: temp_name(result).to_string(),
        }
    }
}

/// The operands reading `vals` in instruction number `at`.
fn operands(
    temps: &mut [(Arc<str>, usize)],
    at: usize,
    vals: impl Iterator<Item = Result<Val>>,
) -> Result<Vec<Operand>> {
    vals.map(|val| {
        Ok(match val? {
            Val::Temp(t) => match temps.get_mut(t as usize) {
                Some((name, last)) => {
                    *last = at;
                    Operand::Var(name.clone())
                }
                None => Operand::Var(temp_name(t)),
            },
            Val::Lit(s) => Operand::Lit(s),
        })
    })
    .collect()
}

/// `LIST_GET(eigen, i)`: `Eigen` binds its two outputs to consecutive
/// temporaries, so output `i` is read from the `i`-th, not from a list.
fn eigen_output(item: &LineageItem, vals: &Vals) -> Option<Val> {
    let [input] = item.inputs() else { return None };
    if item.opcode() != oc::LIST_GET || input.opcode() != oc::EIGEN {
        return None;
    }
    let i: u32 = item.data()?.parse().ok().filter(|i| *i < 2)?;
    match vals.get(&input.id())? {
        Val::Temp(t) => Some(Val::Temp(t + i)),
        Val::Lit(_) => None,
    }
}

fn input_val(vals: &Vals, input: &LinRef) -> Result<Val> {
    vals.get(&input.id())
        .cloned()
        .ok_or_else(|| bad(format!("input '{}' not emitted", input.opcode())))
}

/// The compiled output a dedup item stands for.
fn plan_root<'a>(item: &LineageItem, patch: &'a DedupPatch) -> Result<&'a PlanRoot> {
    let output = item.data().unwrap_or("");
    patch
        .root_index(output)
        .and_then(|i| patch.plan().root(i))
        .ok_or_else(|| {
            bad(format!(
                "patch '{}' defines no output '{output}'",
                patch.block_key()
            ))
        })
}

/// Calls `f` on the inputs `item`'s instruction reads: all of them, except
/// that a dedup item needs only the slots its output depends on.
fn for_each_needed_input<'a>(item: &'a LinRef, mut f: impl FnMut(&'a LinRef)) -> Result<()> {
    match item.kind() {
        LineageKind::Dedup(patch) => plan_root(item, patch)?
            .slots()
            .iter()
            .filter_map(|&s| item.inputs().get(s as usize))
            .for_each(f),
        _ => item.inputs().iter().for_each(&mut f),
    }
    Ok(())
}

/// Value of `r` in the patch instance whose memo starts at `base`.
fn plan_val(
    plan: &PatchPlan,
    memos: &[u32],
    base: usize,
    r: PlanRef,
    slot: &impl Fn(u32) -> Result<Val>,
) -> Result<Val> {
    match r {
        PlanRef::Slot(s) => slot(s),
        PlanRef::Node(n) => match (plan.node_item(n), memos.get(base + n as usize)) {
            (Some(node), _) if matches!(node.kind(), LineageKind::Literal) => {
                literal_of(node).map(Val::Lit)
            }
            (_, Some(&t)) if t != UNSET => Ok(Val::Temp(t)),
            _ => Err(bad(format!("plan node {n} not emitted"))),
        },
    }
}

/// Splits a data payload into exactly `N` blank-separated fields.
fn fields<'a, const N: usize>(data: &'a str, op: &str) -> Result<[&'a str; N]> {
    take_exact(&mut data.split(' ').filter(|s| !s.is_empty()))
        .ok_or_else(|| bad(format!("{op} expects {N} params, got '{data}'")))
}

fn num(s: &str, op: &str) -> Result<f64> {
    s.parse()
        .map_err(|_| bad(format!("{op}: bad number '{s}'")))
}

/// Exactly `N` numbers.
fn nums<const N: usize>(data: &str, op: &str) -> Result<[f64; N]> {
    let parts = fields::<N>(data, op)?;
    let mut out = [0.0; N];
    for (o, s) in out.iter_mut().zip(parts) {
        *o = num(s, op)?;
    }
    Ok(out)
}

/// Stored bounds and indices are 0-based; operands are 1-based.
fn one_based(v: f64) -> Operand {
    Operand::i64((v as i64).saturating_add(1))
}

/// The operation recomputing lineage item `item` and its operand list, given
/// the operands `ins` that read the item's lineage inputs (in order).
fn build_op(item: &LineageItem, mut ins: Vec<Operand>) -> Result<(Op, Vec<Operand>)> {
    let opcode = item.opcode();
    let data = item.data().unwrap_or("");
    // Operations whose parameters travel in the data payload name their
    // lineage inputs by position, so the count is checked first.
    let arity = |ins: &[Operand], n: usize| -> Result<()> {
        if ins.len() == n {
            Ok(())
        } else {
            Err(bad(format!(
                "{opcode}: expected {n} inputs, found {}",
                ins.len()
            )))
        }
    };
    Ok(match opcode {
        oc::READ => {
            arity(&ins, 0)?;
            (Op::Read, vec![Operand::str(data)])
        }
        oc::MATRIX_FILL => {
            arity(&ins, 0)?;
            let [v, rows, cols] = nums(data, opcode)?;
            let params = vec![
                Operand::f64(v),
                Operand::i64(rows as i64),
                Operand::i64(cols as i64),
            ];
            (Op::Fill, params)
        }
        oc::RAND => {
            // data: "rows cols dist p1 p2 sparsity"; the input is the seed.
            arity(&ins, 1)?;
            let [rows, cols, dist, p1, p2, sparsity] = fields(data, opcode)?;
            let kind = match dist {
                "uniform" => RandDistKind::Uniform,
                "normal" => RandDistKind::Normal,
                other => return Err(bad(format!("unknown distribution '{other}'"))),
            };
            let mut params = vec![
                Operand::i64(num(rows, opcode)? as i64),
                Operand::i64(num(cols, opcode)? as i64),
                Operand::f64(num(p1, opcode)?),
                Operand::f64(num(p2, opcode)?),
                Operand::f64(num(sparsity, opcode)?),
            ];
            params.append(&mut ins);
            (Op::Rand(kind), params)
        }
        oc::SAMPLE => {
            arity(&ins, 1)?;
            let [range, size] = nums(data, opcode)?;
            let mut params = vec![Operand::i64(range as i64), Operand::i64(size as i64)];
            params.append(&mut ins);
            (Op::Sample, params)
        }
        oc::SEQ => {
            arity(&ins, 0)?;
            let [from, to, by] = nums(data, opcode)?;
            let params = vec![Operand::f64(from), Operand::f64(to), Operand::f64(by)];
            (Op::Seq, params)
        }
        oc::RIGHT_INDEX => {
            arity(&ins, 1)?;
            ins.extend(nums::<4>(data, opcode)?.map(one_based));
            (Op::RightIndex, ins)
        }
        oc::LEFT_INDEX => {
            arity(&ins, 2)?;
            ins.extend(nums::<2>(data, opcode)?.map(one_based));
            (Op::LeftIndex, ins)
        }
        oc::RESHAPE => {
            arity(&ins, 1)?;
            let [rows, cols] = nums(data, opcode)?;
            ins.extend([Operand::i64(rows as i64), Operand::i64(cols as i64)]);
            (Op::Reshape, ins)
        }
        oc::LIST_GET => {
            arity(&ins, 1)?;
            let idx: i64 = data
                .parse()
                .map_err(|_| bad(format!("bad list index '{data}'")))?;
            // Lineage stores 0-based output indices; runtime ListGet is
            // 1-based.
            ins.push(Operand::i64(idx.saturating_add(1)));
            (Op::ListGet, ins)
        }
        oc::TSMM => {
            arity(&ins, 1)?;
            let side = if data == "RIGHT" {
                TsmmSide::Right
            } else {
                TsmmSide::Left
            };
            (Op::Tsmm(side), ins)
        }
        oc::ORDER => {
            arity(&ins, 1)?;
            ins.push(Operand::bool(data == "desc"));
            (Op::Order, ins)
        }
        oc::MATMULT => (Op::MatMult, ins),
        "assign" => (Op::Assign, ins),
        oc::TRANSPOSE => (Op::Transpose, ins),
        oc::CBIND => (Op::Cbind, ins),
        oc::RBIND => (Op::Rbind, ins),
        oc::SOLVE => (Op::Solve, ins),
        oc::DIAG => (Op::Diag, ins),
        oc::EIGEN => (Op::Eigen, ins),
        oc::REV => (Op::Rev, ins),
        oc::TABLE => (Op::Table, ins),
        oc::ROW_INDEX_MAX => (Op::RowIndexMax, ins),
        oc::NROW => (Op::Nrow, ins),
        oc::NCOL => (Op::Ncol, ins),
        oc::CAST_SCALAR => (Op::CastScalar, ins),
        oc::CAST_MATRIX => (Op::CastMatrix, ins),
        oc::LIST => (Op::ListNew, ins),
        oc::SELECT_COLS => (Op::SelectCols, ins),
        oc::SELECT_ROWS => (Op::SelectRows, ins),
        oc::CONCAT => (Op::Concat, ins),
        other => {
            let agg = |prefix: &str| other.strip_prefix(prefix).and_then(AggFn::from_name);
            let op = if let Some(b) = BinOp::from_opcode(other) {
                Op::Binary(b)
            } else if let Some(u) = UnOp::from_opcode(other) {
                Op::Unary(u)
            } else if let Some(f) = agg(oc::COL_AGG_PREFIX) {
                Op::ColAgg(f)
            } else if let Some(f) = agg(oc::ROW_AGG_PREFIX) {
                Op::RowAgg(f)
            } else if let Some(f) = agg(oc::FULL_AGG_PREFIX) {
                Op::FullAgg(f)
            } else {
                // A call item (`fcall:`/`bcall`) lands here too: calls bind
                // their body's lineage, so only an old or forged log has one.
                return Err(bad(format!("unsupported opcode '{other}'")));
            };
            (op, ins)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_core::lineage::dedup::DedupPatch;
    use lima_core::lineage::item::LineageItem;
    use lima_core::LimaConfig;
    use lima_matrix::DenseMatrix;

    fn ctx_with(path: &str, m: DenseMatrix) -> ExecutionContext {
        let ctx = ExecutionContext::new(LimaConfig::base());
        ctx.data.register(path, Value::matrix(m));
        ctx
    }

    #[test]
    fn reconstructs_simple_expression() {
        // lineage of (X + X) * X
        let x = LineageItem::op_with_data(oc::READ, "X.csv", vec![]);
        let s = LineageItem::op("+", vec![x.clone(), x.clone()]);
        let root = LineageItem::op("*", vec![s, x]);
        let m = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let mut ctx = ctx_with("X.csv", m.clone());
        let got = recompute(&root, &mut ctx).unwrap();
        let expect = DenseMatrix::from_fn(3, 2, |i, j| {
            let v = m.get(i, j);
            (v + v) * v
        });
        assert!(got.as_matrix().unwrap().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn reconstructs_rand_with_captured_seed() {
        let seed = LineageItem::literal("i:42");
        let root = LineageItem::op_with_data(oc::RAND, "3 4 uniform 0 1 1", vec![seed]);
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        let got = recompute(&root, &mut ctx).unwrap();
        let expect = lima_matrix::rand_gen::rand_matrix(
            3,
            4,
            lima_matrix::rand_gen::RandDist::Uniform { min: 0.0, max: 1.0 },
            1.0,
            42,
        )
        .unwrap();
        assert!(got.as_matrix().unwrap().approx_eq(&expect, 0.0));
    }

    #[test]
    fn reconstructs_slicing_with_stored_bounds() {
        let x = LineageItem::op_with_data(oc::READ, "X", vec![]);
        let root = LineageItem::op_with_data(oc::RIGHT_INDEX, "1 2 0 1", vec![x]);
        let m = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let mut ctx = ctx_with("X", m.clone());
        let got = recompute(&root, &mut ctx).unwrap();
        let expect = lima_matrix::ops::slice(&m, 1, 2, 0, 1).unwrap();
        assert!(got.as_matrix().unwrap().approx_eq(&expect, 0.0));
    }

    #[test]
    fn reconstructs_through_dedup_items() {
        // PageRank-like: p = G %*% p + p, three deduplicated iterations.
        let p0 = LineageItem::placeholder(0);
        let p1 = LineageItem::placeholder(1);
        let body = LineageItem::op(
            "+",
            vec![LineageItem::op(oc::MATMULT, vec![p0, p1.clone()]), p1],
        );
        let patch = DedupPatch::new("loop:pr", 0, 2, vec![("p".into(), body)]);
        let g = LineageItem::op_with_data(oc::READ, "G", vec![]);
        let mut p = LineageItem::op_with_data(oc::READ, "p0", vec![]);
        for _ in 0..3 {
            p = LineageItem::dedup(patch.clone(), "p", vec![g.clone(), p]);
        }
        let gm = DenseMatrix::from_fn(3, 3, |i, j| ((i + j) % 2) as f64 * 0.5);
        let pm = DenseMatrix::filled(3, 1, 1.0);
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        ctx.data.register("G", Value::matrix(gm.clone()));
        ctx.data.register("p0", Value::matrix(pm.clone()));
        let got = recompute(&p, &mut ctx).unwrap();
        // Reference: three plain iterations.
        let mut r = pm;
        for _ in 0..3 {
            let gp = lima_matrix::ops::matmult(&gm, &r).unwrap();
            r = lima_matrix::ops::ew_matrix_matrix(BinOp::Add, &gp, &r).unwrap();
        }
        assert!(got.as_matrix().unwrap().approx_eq(&r, 1e-12));
    }

    /// `q = (in0 %*% in1) + 2`, `r = (in0 %*% in1) - in2`, `same = in1`.
    fn two_output_patch() -> std::sync::Arc<DedupPatch> {
        let ph = LineageItem::placeholder;
        let prod = LineageItem::op(oc::MATMULT, vec![ph(0), ph(1)]);
        let q = LineageItem::op("+", vec![prod.clone(), LineageItem::literal("f:2")]);
        let r = LineageItem::op("-", vec![prod, ph(2)]);
        DedupPatch::new(
            "loop:two",
            0,
            3,
            vec![("q".into(), q), ("r".into(), r), ("same".into(), ph(1))],
        )
    }

    fn count(prog: &ReconstructedProgram, pred: impl Fn(&Op) -> bool) -> usize {
        prog.instrs.iter().filter(|i| pred(&i.op)).count()
    }

    #[test]
    fn outputs_of_one_patch_instance_share_their_body() {
        let patch = two_output_patch();
        let read = |name| LineageItem::op_with_data(oc::READ, name, vec![]);
        let inputs = vec![read("G"), read("p"), read("c")];
        let item = |out| LineageItem::dedup(patch.clone(), out, inputs.clone());
        let qr = LineageItem::op(oc::CBIND, vec![item("q"), item("r")]);
        let root = LineageItem::op(oc::CBIND, vec![qr, item("same")]);
        let prog = reconstruct(&root).unwrap();
        // One product for both outputs; `same` is its input, not a copy.
        assert_eq!(count(&prog, |op| matches!(op, Op::MatMult)), 1);
        assert_eq!(count(&prog, |op| matches!(op, Op::Read)), 3);
        assert_eq!(count(&prog, |op| matches!(op, Op::Assign)), 0);

        let g = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let p = DenseMatrix::from_fn(3, 1, |i, _| i as f64 + 1.0);
        let c = DenseMatrix::filled(3, 1, 0.5);
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        for (name, m) in [("G", &g), ("p", &p), ("c", &c)] {
            ctx.data.register(name, Value::matrix(m.clone()));
        }
        let got = recompute(&root, &mut ctx).unwrap();
        let gp = lima_matrix::ops::matmult(&g, &p).unwrap();
        let expect = DenseMatrix::from_fn(3, 3, |i, j| match j {
            0 => gp.get(i, 0) + 2.0,
            1 => gp.get(i, 0) - 0.5,
            _ => p.get(i, 0),
        });
        assert!(got.as_matrix().unwrap().approx_eq(&expect, 0.0));
        assert!(ctx.symtab.is_empty(), "replay leaves no variable behind");
    }

    #[test]
    fn what_the_requested_output_does_not_read_is_not_visited() {
        // Slot 2 feeds output `r` only; behind it sits an item that cannot
        // be reconstructed at all. Output `q` replays regardless.
        let patch = two_output_patch();
        let read = |name| LineageItem::op_with_data(oc::READ, name, vec![]);
        let opaque = LineageItem::op_with_data("fcall:lm", "lm", vec![]);
        let inputs = vec![read("G"), read("p"), opaque];
        let q = LineageItem::dedup(patch.clone(), "q", inputs.clone());
        let prog = reconstruct(&q).unwrap();
        assert_eq!(count(&prog, |op| !matches!(op, Op::Rmvar)), 4);
        assert!(reconstruct(&LineageItem::dedup(patch, "r", inputs)).is_err());
    }

    #[test]
    fn malformed_dedup_items_are_rejected() {
        let patch = two_output_patch();
        let read = |name| LineageItem::op_with_data(oc::READ, name, vec![]);
        let short = vec![read("G"), read("p")];
        assert!(reconstruct(&LineageItem::dedup(patch.clone(), "r", short.clone())).is_err());
        assert!(reconstruct(&LineageItem::dedup(patch, "nope", short)).is_err());
    }

    #[test]
    fn unsupported_items_are_rejected() {
        let ph = LineageItem::placeholder(0);
        assert!(reconstruct(&ph).is_err());
        let fcall = LineageItem::op_with_data("fcall:lm", "lm", vec![]);
        assert!(reconstruct(&fcall).is_err());
    }

    #[test]
    fn literals_are_inlined_as_operands() {
        let a = LineageItem::literal("f:2.5");
        let b = LineageItem::literal("f:4");
        let root = LineageItem::op("*", vec![a.clone(), b]);
        assert_eq!(reconstruct(&root).unwrap().instrs.len(), 1);
        let mut ctx = ExecutionContext::new(LimaConfig::base());
        let got = recompute(&root, &mut ctx).unwrap();
        assert_eq!(got.as_f64().unwrap(), 10.0);
        // A bare literal is assigned, so that there is a result variable.
        let got = recompute(&a, &mut ctx).unwrap();
        assert_eq!(got.as_f64().unwrap(), 2.5);
    }

    #[test]
    fn temporaries_are_dense_and_removed_after_their_last_use() {
        // (X + X) * X: `t0` is read by both operations, `t1` by the second.
        let x = LineageItem::op_with_data(oc::READ, "X", vec![]);
        let s = LineageItem::op("+", vec![x.clone(), x.clone()]);
        let root = LineageItem::op("*", vec![s, x]);
        let prog = reconstruct(&root).unwrap();
        let shape: Vec<(String, Vec<String>)> = prog
            .instrs
            .iter()
            .map(|i| {
                let reads = i.reads().map(str::to_string).collect();
                (i.op.opcode().into_owned(), reads)
            })
            .collect();
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            shape,
            vec![
                ("read".to_string(), s(&[])),
                ("+".to_string(), s(&["t0", "t0"])),
                ("*".to_string(), s(&["t1", "t0"])),
                ("rmvar".to_string(), s(&["t0", "t1"])),
            ]
        );
        assert_eq!(prog.result_var, "t2");
    }
}
