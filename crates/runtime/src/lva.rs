//! Live-variable analysis (paper §3.2/§4.1: loop/function/block inputs and
//! outputs are obtained from live-variable analysis).
//!
//! `live_in` is conservative: a variable counts as an input if any execution
//! path may read it before the block definitely writes it.

use crate::program::{walk_blocks, Block};
use std::collections::BTreeSet;

/// Variables possibly read before being definitely written in `blocks`,
/// given the set of variables already definitely written (`written`).
/// Returns inputs in sorted order (stable placeholder slots for dedup).
pub fn live_in(blocks: &[Block]) -> Vec<String> {
    let mut inputs = BTreeSet::new();
    let mut written = BTreeSet::new();
    scan(blocks, &mut written, &mut inputs);
    inputs.into_iter().map(str::to_string).collect()
}

/// All variables read anywhere in `blocks` (regardless of prior writes),
/// sorted. Used by the dedup live-out pass: a loop-carried next-iteration
/// read counts as "read after" for nested loops.
pub fn collect_reads(blocks: &[Block]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    collect_reads_into(blocks, &mut out);
    out
}

fn collect_reads_into(blocks: &[Block], out: &mut std::collections::BTreeSet<String>) {
    walk_blocks(blocks, &mut |b| {
        out.extend(b.own_instrs().flat_map(|i| i.reads()).map(str::to_string));
        let results = b.header().filter_map(|e| e.result.as_var());
        out.extend(results.map(str::to_string));
    });
}

/// All variables possibly written by `blocks`, sorted.
pub fn writes(blocks: &[Block]) -> Vec<String> {
    let mut out = BTreeSet::new();
    collect_writes(blocks, &mut out);
    out.into_iter().map(str::to_string).collect()
}

/// The working sets borrow the names from the program: a loop entry that
/// asks for its body's live-ins copies only the answer.
fn scan<'p>(blocks: &'p [Block], written: &mut BTreeSet<&'p str>, inputs: &mut BTreeSet<&'p str>) {
    for block in blocks {
        match block {
            Block::Basic { instrs, .. } => {
                for i in instrs {
                    for r in i.reads() {
                        if !written.contains(r) {
                            inputs.insert(r);
                        }
                    }
                    written.extend(i.writes());
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
                *written = then_written.intersection(&else_written).copied().collect();
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
                body_written.insert(var);
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

fn scan_expr<'p>(
    e: &'p crate::program::ExprProg,
    written: &mut BTreeSet<&'p str>,
    inputs: &mut BTreeSet<&'p str>,
) {
    for i in &e.instrs {
        for r in i.reads() {
            if !written.contains(r) {
                inputs.insert(r);
            }
        }
        written.extend(i.writes());
    }
    if let Some(v) = e.result.as_var() {
        if !written.contains(v) {
            inputs.insert(v);
        }
    }
}

fn collect_writes<'p>(blocks: &'p [Block], out: &mut BTreeSet<&'p str>) {
    walk_blocks(blocks, &mut |b| {
        if let Block::For { var, .. } | Block::ParFor { var, .. } = b {
            out.insert(var);
        }
        out.extend(b.own_instrs().flat_map(|i| i.writes()));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Op, Operand};
    use crate::program::ExprProg;
    use lima_matrix::ops::BinOp;

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
        assert_eq!(live_in(std::slice::from_ref(&b)), vec!["x", "y"]);
        assert_eq!(writes(&[b]), vec!["w", "z"]);
    }

    #[test]
    fn write_then_read_is_not_input() {
        let b = Block::basic(vec![add("x", "x", "t"), add("t", "t", "u")]);
        assert_eq!(live_in(&[b]), vec!["x"]);
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
        assert_eq!(live_in(std::slice::from_ref(&f)), vec!["G", "p"]);
        let w = writes(&[f]);
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
        assert_eq!(live_in(&[cond, after]), vec!["a", "c", "x"]);
    }

    #[test]
    fn writes_on_both_branches_are_definite() {
        let cond = Block::if_else(
            ExprProg::var("c"),
            vec![Block::basic(vec![add("a", "a", "x")])],
            vec![Block::basic(vec![add("b", "b", "x")])],
        );
        let after = Block::basic(vec![add("x", "x", "y")]);
        assert_eq!(live_in(&[cond, after]), vec!["a", "b", "c"]);
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
        assert_eq!(live_in(&[f]), vec!["n"]);
    }

    #[test]
    fn predicate_reads_count() {
        let w = Block::while_loop(ExprProg::var("cond"), vec![Block::basic(vec![])]);
        assert_eq!(live_in(&[w]), vec!["cond"]);
    }
}
