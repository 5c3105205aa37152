//! Golden tests of the lineage-log text format (paper §3.1): lineage logs
//! are exchanged between people and machines (Example 3), so the on-disk
//! format must stay stable. These tests pin the exact grammar.

use lima_core::lineage::dedup::DedupPatch;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};

/// Rewrites session-specific IDs into position-stable ones so golden strings
/// do not depend on the global item counter.
fn canonicalize(log: &str) -> String {
    let mut mapping = std::collections::HashMap::new();
    let mut out = String::new();
    for line in log.lines() {
        let mut toks = Vec::new();
        for tok in line.split(' ') {
            if tok.starts_with('(') && tok.ends_with(')') {
                if let Ok(id) = tok[1..tok.len() - 1].parse::<u64>() {
                    let next = mapping.len() + 1;
                    let canon = *mapping.entry(id).or_insert(next);
                    toks.push(format!("({canon})"));
                    continue;
                }
            }
            toks.push(tok.to_string());
        }
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    out
}

fn leaf(name: &str) -> LinRef {
    LineageItem::op_with_data("read", name, vec![])
}

#[test]
fn golden_plain_trace() {
    let x = leaf("data/X.csv");
    let lit = LineageItem::literal("f:0.5");
    let ts = LineageItem::op_with_data("tsmm", "LEFT", vec![x.clone()]);
    let root = LineageItem::op("*", vec![ts, lit]);
    // Topological emission is depth-first with the *last* input expanded
    // first (deterministic), hence the literal precedes the read chain.
    let log = canonicalize(&serialize_lineage(&root));
    assert_eq!(
        log,
        "(1) L f:0.5\n\
         (2) I read ;data/X.csv\n\
         (3) I tsmm (2) ;LEFT\n\
         (4) I * (3) (1)\n\
         ::out (4)\n"
    );
}

#[test]
fn golden_escaped_payloads() {
    let x = LineageItem::op_with_data("read", "dir with spaces/f.csv", vec![]);
    let log = canonicalize(&serialize_lineage(&x));
    assert_eq!(log, "(1) I read ;dir\\swith\\sspaces/f.csv\n::out (1)\n");
    let lit = LineageItem::literal("s:a\\b\nc");
    let log = canonicalize(&serialize_lineage(&lit));
    assert_eq!(log, "(1) L s:a\\\\b\\nc\n::out (1)\n");
}

#[test]
fn golden_dedup_trace() {
    let p0 = LineageItem::placeholder(0);
    let p1 = LineageItem::placeholder(1);
    let body = LineageItem::op("ba+*", vec![p0, p1]);
    let patch = DedupPatch::new("loop:7", 2, 2, vec![("p".into(), body)]);
    let g = leaf("G");
    let start = leaf("p0");
    let d = LineageItem::dedup(patch, "p", vec![g, start]);
    let log = canonicalize(&serialize_lineage(&d));
    assert_eq!(
        log,
        "::patch 0 loop:7 2 2\n\
         (1) P 1\n\
         (2) P 0\n\
         (3) I ba+* (2) (1)\n\
         ::root p (3)\n\
         ::endpatch\n\
         (4) I read ;p0\n\
         (5) I read ;G\n\
         (6) D 0 p (5) (4)\n\
         ::out (6)\n"
    );
}

#[test]
fn golden_logs_parse_back() {
    // A hand-written log in the documented grammar must load. Data payloads
    // are single tokens: spaces inside them are escaped as `\s`.
    let log = "\
        (10) I read ;X.csv\n\
        (11) L i:42\n\
        (12) I rand (11) ;100\\s10\\suniform\\s0\\s1\\s1\n\
        (13) I ba+* (10) (12)\n\
        ::out (13)\n";
    let root = deserialize_lineage(log).expect("documented grammar parses");
    assert_eq!(root.opcode(), "ba+*");
    assert_eq!(root.inputs().len(), 2);
    assert_eq!(root.inputs()[1].data(), Some("100 10 uniform 0 1 1"));
}

#[test]
fn format_is_line_oriented_and_reorderable_ids() {
    // IDs need not be dense or ordered — only defined-before-use.
    let log = "\
        (1000) L f:1\n\
        (5) I + (1000) (1000)\n\
        ::out (5)\n";
    let root = deserialize_lineage(log).expect("sparse ids parse");
    assert_eq!(root.dag_size(), 2);
}

/// One two-output patch over shared body nodes, a placeholder output, a
/// literal with spaces, `;data` payloads and two dedup items of one
/// iteration. WALs and replication frames persist this text, so the line
/// order (depth-first, last input first) and every token are pinned; the
/// expected log was dumped from the serializer as it stood before the
/// allocation-free writer replaced it.
#[test]
fn golden_two_output_patch_trace() {
    let p0 = LineageItem::placeholder(0);
    let p1 = LineageItem::placeholder(1);
    let lit = LineageItem::literal("s:two words");
    let prod = LineageItem::op("ba+*", vec![p0.clone(), p1.clone()]);
    let slice = LineageItem::op_with_data("rightIndex", "0 3 0 0", vec![prod.clone()]);
    let q = LineageItem::op("+", vec![slice, lit]);
    let r = LineageItem::op("*", vec![prod, p1.clone()]);
    let patch = DedupPatch::new(
        "loop:3 x",
        5,
        2,
        vec![("q".into(), q), ("r".into(), r), ("same".into(), p1)],
    );
    let g = leaf("dir with spaces/G.csv");
    let seed = LineageItem::literal("i:42");
    let start = LineageItem::op_with_data("rand", "4 1 uniform 0 1 1", vec![seed]);
    let inputs = vec![g, start];
    let dq = LineageItem::dedup(patch.clone(), "q", inputs.clone());
    let dr = LineageItem::dedup(patch.clone(), "r", inputs.clone());
    let ds = LineageItem::dedup(patch, "same", inputs);
    let root = LineageItem::op("cbind", vec![dq, dr, ds]);
    let log = canonicalize(&serialize_lineage(&root));
    assert_eq!(log, GOLDEN_TWO_OUTPUT);
    let back = deserialize_lineage(&serialize_lineage(&root)).expect("golden log parses");
    assert_eq!(canonicalize(&serialize_lineage(&back)), GOLDEN_TWO_OUTPUT);
}

const GOLDEN_TWO_OUTPUT: &str = "\
::patch 0 loop:3\\sx 5 2
(1) L s:two\\swords
(2) P 1
(3) P 0
(4) I ba+* (3) (2)
(5) I rightIndex (4) ;0\\s3\\s0\\s0
(6) I + (5) (1)
(7) I * (4) (2)
::root q (6)
::root r (7)
::root same (2)
::endpatch
(8) L i:42
(9) I rand (8) ;4\\s1\\suniform\\s0\\s1\\s1
(10) I read ;dir\\swith\\sspaces/G.csv
(11) D 0 same (10) (9)
(12) D 0 r (10) (9)
(13) D 0 q (10) (9)
(14) I cbind (13) (12) (11)
::out (14)
";
