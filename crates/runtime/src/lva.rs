//! Live-variable analysis (paper §3.2/§4.1: loop/function/block inputs and
//! outputs are obtained from live-variable analysis).
//!
//! `live_in` is conservative: a variable counts as an input if any execution
//! path may read it before the block definitely writes it. It works on the
//! slots of a numbered frame, whose names are numbered in sorted order: so
//! are ascending slots.

use crate::instr::Instr;
use crate::program::{walk_blocks, Block, ExprProg};
use std::collections::BTreeSet;

/// A set of slots of one frame; it iterates in ascending order.
pub type SlotSet = BTreeSet<u32>;

/// Slots possibly read before being definitely written in `blocks`, in
/// ascending order (stable placeholder slots for dedup).
pub fn live_in(blocks: &[Block]) -> Vec<u32> {
    let mut inputs = SlotSet::default();
    scan(blocks, &mut SlotSet::default(), &mut inputs);
    inputs.into_iter().collect()
}

/// All slots read anywhere in `blocks` (regardless of prior writes). Used by
/// the dedup live-out pass: a loop-carried next-iteration read counts as
/// "read after" for nested loops.
pub fn collect_reads(blocks: &[Block]) -> SlotSet {
    let mut out = SlotSet::default();
    walk_blocks(blocks, &mut |b| {
        out.extend(b.own_instrs().flat_map(Instr::read_slots));
        out.extend(b.header().filter_map(|e| Some(e.result.var_ref()?.slot)));
    });
    out
}

/// All slots possibly written by `blocks`, in ascending order.
pub fn writes(blocks: &[Block]) -> Vec<u32> {
    let mut out = SlotSet::default();
    walk_blocks(blocks, &mut |b| {
        if let Block::For { var, .. } | Block::ParFor { var, .. } = b {
            out.insert(var.slot);
        }
        out.extend(b.own_instrs().flat_map(Instr::write_slots));
    });
    out.into_iter().collect()
}

fn scan_instr(i: &Instr, written: &mut SlotSet, inputs: &mut SlotSet) {
    for r in i.read_slots() {
        if !written.contains(&r) {
            inputs.insert(r);
        }
    }
    written.extend(i.write_slots());
}

fn scan(blocks: &[Block], written: &mut SlotSet, inputs: &mut SlotSet) {
    for block in blocks {
        match block {
            Block::Basic { instrs, .. } => {
                for i in instrs {
                    scan_instr(i, written, inputs);
                }
            }
            Block::If {
                pred,
                then_body,
                else_body,
                ..
            } => {
                scan_expr(pred, written, inputs);
                let mut then_written = written.clone();
                let mut else_written = written.clone();
                scan(then_body, &mut then_written, inputs);
                scan(else_body, &mut else_written, inputs);
                // Only variables written on *both* paths are definitely
                // written after the conditional.
                then_written.retain(|s| else_written.contains(s));
                *written = then_written;
            }
            Block::For {
                var,
                from,
                to,
                by,
                body,
                ..
            }
            | Block::ParFor {
                var,
                from,
                to,
                by,
                body,
                ..
            } => {
                scan_expr(from, written, inputs);
                scan_expr(to, written, inputs);
                scan_expr(by, written, inputs);
                // Loop may execute zero times: body reads are evaluated with
                // the current written set (plus the index variable), but body
                // writes are not definite.
                let mut body_written = written.clone();
                body_written.insert(var.slot);
                scan(body, &mut body_written, inputs);
            }
            Block::While { pred, body, .. } => {
                scan_expr(pred, written, inputs);
                let mut body_written = written.clone();
                scan(body, &mut body_written, inputs);
            }
        }
    }
}

fn scan_expr(e: &ExprProg, written: &mut SlotSet, inputs: &mut SlotSet) {
    for i in &e.instrs {
        scan_instr(i, written, inputs);
    }
    if let Some(v) = e.result.var_ref() {
        if !written.contains(&v.slot) {
            inputs.insert(v.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Op, Operand};
    use crate::program::{ExprProg, Program};
    use lima_matrix::ops::BinOp;

    /// Names of `slots` in the frame of a program over `blocks`.
    fn named(p: &Program, slots: Vec<u32>) -> Vec<String> {
        slots
            .into_iter()
            .map(|s| p.frame[s as usize].to_string())
            .collect()
    }

    fn live_in_of(blocks: Vec<Block>) -> Vec<String> {
        let p = Program::new(blocks);
        named(&p, live_in(&p.body))
    }

    fn writes_of(blocks: Vec<Block>) -> Vec<String> {
        let p = Program::new(blocks);
        named(&p, writes(&p.body))
    }

    fn add(a: &str, b: &str, out: &str) -> Instr {
        Instr::new(
            Op::Binary(BinOp::Add),
            vec![Operand::var(a), Operand::var(b)],
            out,
        )
    }

    #[test]
    fn read_before_write_is_input() {
        let b = Block::basic(vec![add("x", "y", "z"), add("z", "x", "w")]);
        assert_eq!(live_in_of(vec![b.clone()]), vec!["x", "y"]);
        assert_eq!(writes_of(vec![b]), vec!["w", "z"]);
    }

    #[test]
    fn write_then_read_is_not_input() {
        let b = Block::basic(vec![add("x", "x", "t"), add("t", "t", "u")]);
        assert_eq!(live_in_of(vec![b]), vec!["x"]);
    }

    #[test]
    fn loop_carried_variable_is_input() {
        // for i: p = G + p  (p read at top, written at bottom → carried)
        let body = Block::basic(vec![add("G", "p", "p")]);
        let f = Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::lit(Operand::i64(3)),
            ExprProg::lit(Operand::i64(1)),
            vec![body],
        );
        assert_eq!(live_in_of(vec![f.clone()]), vec!["G", "p"]);
        let w = writes_of(vec![f]);
        assert!(w.contains(&"p".to_string()));
        assert!(w.contains(&"i".to_string()));
    }

    #[test]
    fn conditional_writes_are_not_definite() {
        // if (c) { x = a+a } ; y = x+x  → x is an input (else-path reads old x)
        let cond = Block::if_else(
            ExprProg::var("c"),
            vec![Block::basic(vec![add("a", "a", "x")])],
            vec![],
        );
        let after = Block::basic(vec![add("x", "x", "y")]);
        assert_eq!(live_in_of(vec![cond, after]), vec!["a", "c", "x"]);
    }

    #[test]
    fn writes_on_both_branches_are_definite() {
        let cond = Block::if_else(
            ExprProg::var("c"),
            vec![Block::basic(vec![add("a", "a", "x")])],
            vec![Block::basic(vec![add("b", "b", "x")])],
        );
        let after = Block::basic(vec![add("x", "x", "y")]);
        assert_eq!(live_in_of(vec![cond, after]), vec!["a", "b", "c"]);
    }

    #[test]
    fn loop_index_is_local_not_input() {
        let body = Block::basic(vec![add("i", "i", "t")]);
        let f = Block::for_loop(
            "i",
            ExprProg::lit(Operand::i64(1)),
            ExprProg::var("n"),
            ExprProg::lit(Operand::i64(1)),
            vec![body],
        );
        assert_eq!(live_in_of(vec![f]), vec!["n"]);
    }

    #[test]
    fn predicate_reads_count() {
        let w = Block::while_loop(ExprProg::var("cond"), vec![Block::basic(vec![])]);
        assert_eq!(live_in_of(vec![w]), vec!["cond"]);
    }
}
