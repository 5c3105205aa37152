//! Property tests of the lineage verifier / linter: randomly generated
//! valid plain and deduplicated DAGs always pass, and a single textual
//! mutation of a serialized log (edge swap, patch path-key flip, dangling
//! input, id redefinition, arity flip) is always rejected with the right
//! diagnostic class.

use lima_analysis::verify::{verify_dag, VerifyErrorKind};
use lima_analysis::{lint_log, LintDiagnostic};
use lima_core::lineage::item::LinRef;
use lima_core::lineage::serialize::serialize_lineage;
use lima_core::lineage::{DedupPatch, LineageItem};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic splitmix64 — keeps DAG shapes reproducible per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const OPS: [&str; 6] = ["+", "*", "exp", "t", "tsmm", "%*%"];

/// A random plain (patch-free) DAG: leaves are literals/reads, inner nodes
/// pick inputs among earlier nodes, and a fold guarantees one root reaches
/// every node.
fn gen_plain_dag(seed: u64, n: usize) -> LinRef {
    let mut rng = Rng(seed);
    let mut nodes: Vec<LinRef> = vec![LineageItem::op_with_data("read", "X", vec![])];
    for k in 1..n {
        let node = match rng.below(5) {
            0 => LineageItem::literal(format!("f:{k}")),
            1 => LineageItem::op_with_data("read", format!("in{k}"), vec![]),
            _ => {
                let nin = 1 + rng.below(2);
                let ins: Vec<_> = (0..nin)
                    .map(|_| nodes[rng.below(nodes.len())].clone())
                    .collect();
                LineageItem::op(OPS[rng.below(OPS.len())], ins)
            }
        };
        nodes.push(node);
    }
    let mut root = nodes[0].clone();
    for node in nodes.into_iter().skip(1) {
        root = LineageItem::op("+", vec![root, node]);
    }
    root
}

/// A random deduplicated DAG: two distinct patches over the same block key
/// (path keys 0 and 1 — i.e. different taken-path bitvectors), chained over
/// `iters` iterations with both paths exercised.
fn gen_dedup_dag(seed: u64, iters: usize) -> LinRef {
    let mut rng = Rng(seed ^ 0xD5D0);
    let body0 = LineageItem::op(
        "+",
        vec![
            LineageItem::op("exp", vec![LineageItem::placeholder(0)]),
            LineageItem::placeholder(1),
        ],
    );
    let body1 = LineageItem::op(
        "*",
        vec![LineageItem::placeholder(0), LineageItem::placeholder(1)],
    );
    let patches = [
        DedupPatch::new("loop:prop", 0, 2, vec![("o".into(), body0)]),
        DedupPatch::new("loop:prop", 1, 2, vec![("o".into(), body1)]),
    ];
    let aux = LineageItem::op_with_data("read", "aux", vec![]);
    let mut cur = LineageItem::op_with_data("read", "acc", vec![]);
    for i in 0..iters.max(2) {
        // First two iterations take each path once so both patches appear.
        let which = if i < 2 { i } else { rng.below(2) };
        cur = LineageItem::dedup(Arc::clone(&patches[which]), "o", vec![cur, aux.clone()]);
    }
    cur
}

/// `(line-index, line)` of the definition the `::out` directive points at.
fn out_def_line(log: &str) -> usize {
    let out_id = log
        .lines()
        .find_map(|l| l.strip_prefix("::out "))
        .expect("log has ::out")
        .trim();
    log.lines()
        .position(|l| l.starts_with(&format!("{out_id} ")))
        .expect("out id is defined")
}

/// Rewrites the first op line before `stop` that has an input, replacing its
/// first input reference with `new_ref`. Returns `None` when no such line
/// exists (degenerate DAG shapes).
fn swap_first_input(log: &str, stop: usize, new_ref: &str) -> Option<String> {
    let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
    for line in lines.iter_mut().take(stop) {
        let toks: Vec<&str> = line.split(' ').collect();
        if toks.len() >= 4 && toks[1] == "I" && toks[3].starts_with('(') && toks[3] != new_ref {
            let mut new_toks: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
            new_toks[3] = new_ref.to_string();
            *line = new_toks.join(" ");
            return Some(lines.join("\n"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ------------------------------------------------ valid DAGs are accepted

    #[test]
    fn random_plain_dags_verify_and_lint_clean(seed in 0u64..10_000, n in 3usize..40) {
        let root = gen_plain_dag(seed, n);
        prop_assert!(verify_dag(&root).is_ok());
        let diags = lint_log(&serialize_lineage(&root));
        prop_assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn random_dedup_dags_verify_and_lint_clean(seed in 0u64..10_000, iters in 2usize..20) {
        let root = gen_dedup_dag(seed, iters);
        prop_assert!(verify_dag(&root).is_ok());
        let diags = lint_log(&serialize_lineage(&root));
        prop_assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    // ------------------------------------- single mutations are rejected with
    // ------------------------------------- the right diagnostic class

    #[test]
    fn edge_swap_to_forward_reference_rejected(seed in 0u64..10_000, n in 5usize..40) {
        let root = gen_plain_dag(seed, n);
        let log = serialize_lineage(&root);
        // Point an early edge at the root, which is defined later in the log:
        // a forward reference the parser must reject.
        let root_ref = format!("({})", root.id());
        if let Some(mutated) = swap_first_input(&log, out_def_line(&log), &root_ref) {
            let diags = lint_log(&mutated);
            prop_assert!(!diags.is_empty());
            prop_assert!(
                diags.iter().any(|d| matches!(d, LintDiagnostic::Parse(_))),
                "expected a parse diagnostic, got {diags:?}"
            );
        }
    }

    #[test]
    fn dangling_input_rejected(seed in 0u64..10_000, n in 5usize..40) {
        let root = gen_plain_dag(seed, n);
        let log = serialize_lineage(&root);
        // An input id nothing in the log ever defines.
        if let Some(mutated) = swap_first_input(&log, usize::MAX, "(18446744073709551615)") {
            let diags = lint_log(&mutated);
            prop_assert!(!diags.is_empty());
            prop_assert!(
                diags.iter().any(|d| matches!(d, LintDiagnostic::Parse(_))),
                "expected a parse diagnostic, got {diags:?}"
            );
        }
    }

    #[test]
    fn patch_path_key_flip_rejected(seed in 0u64..10_000, iters in 2usize..20) {
        let root = gen_dedup_dag(seed, iters);
        let log = serialize_lineage(&root);
        // Flip path key 1 to 0: two different bodies now claim the same
        // (block-key, path-bitvector) identity.
        let mutated: Vec<String> = log
            .lines()
            .map(|l| {
                let toks: Vec<&str> = l.split(' ').collect();
                if toks[0] == "::patch" && toks.len() == 5 && toks[3] == "1" {
                    format!("{} {} {} 0 {}", toks[0], toks[1], toks[2], toks[4])
                } else {
                    l.to_string()
                }
            })
            .collect();
        let diags = lint_log(&mutated.join("\n"));
        prop_assert!(
            diags.iter().any(|d| matches!(
                d,
                LintDiagnostic::Verify(e) if e.kind == VerifyErrorKind::PatchConflict
            )),
            "expected patch-conflict, got {diags:?}"
        );
    }

    #[test]
    fn node_id_redefinition_rejected(seed in 0u64..10_000, n in 3usize..40) {
        let root = gen_plain_dag(seed, n);
        let log = serialize_lineage(&root);
        // Redefine the first node's id with different content just before
        // ::out — earlier uses would silently rebind.
        let first_id = log
            .lines()
            .find(|l| l.starts_with('('))
            .and_then(|l| l.split(')').next())
            .map(|t| t.trim_start_matches('(').to_string())
            .expect("log has an item line");
        let mutated = log.replace("::out", &format!("({first_id}) L clobbered\n::out"));
        let diags = lint_log(&mutated);
        prop_assert!(
            diags.iter().any(|d| matches!(
                d,
                LintDiagnostic::DuplicateId { id, .. } if id.to_string() == first_id
            )),
            "expected duplicate-id on node {first_id}, got {diags:?}"
        );
    }

    #[test]
    fn patch_arity_flip_rejected(seed in 0u64..10_000, iters in 2usize..20) {
        let root = gen_dedup_dag(seed, iters);
        let log = serialize_lineage(&root);
        // Bump a patch's declared input count: every dedup item of that patch
        // now has too few inputs.
        let mutated: Vec<String> = log
            .lines()
            .map(|l| {
                let toks: Vec<&str> = l.split(' ').collect();
                if toks[0] == "::patch" && toks.len() == 5 && toks[3] == "0" {
                    let n: usize = toks[4].parse().expect("numeric arity");
                    format!("{} {} {} {} {}", toks[0], toks[1], toks[2], toks[3], n + 1)
                } else {
                    l.to_string()
                }
            })
            .collect();
        let diags = lint_log(&mutated.join("\n"));
        prop_assert!(!diags.is_empty());
        prop_assert!(
            diags.iter().any(|d| matches!(d, LintDiagnostic::Parse(_))),
            "expected a parse diagnostic, got {diags:?}"
        );
    }
}

/// A bare placeholder outside any patch body parses (slots are only range
/// checked inside patches) but must be caught by the structural verifier.
#[test]
fn placeholder_outside_patch_rejected() {
    let log = "(1) P 0\n(2) I exp (1)\n::out (2)\n";
    let diags = lint_log(log);
    assert!(
        diags.iter().any(|d| matches!(
            d,
            LintDiagnostic::Verify(e) if e.kind == VerifyErrorKind::PlaceholderOutsidePatch
        )),
        "expected placeholder-outside-patch, got {diags:?}"
    );
}
