//! Replay from lineage (`reconstruct` / `recompute`) against the traced run:
//!
//! * differential property — random loop scripts traced plain (`LT`) and
//!   deduplicated (`LTD`): both lineage roots recompute to the traced value
//!   bit for bit, the deduplicated log costs no more instructions than the
//!   plain one (a multi-output loop body is instantiated once per iteration,
//!   outputs nobody reads not at all), and a replay leaves nothing behind in
//!   its context;
//! * scaling guards — the reconstructed program grows linearly with the
//!   number of deduplicated iterations, and a 20 000-iteration log goes
//!   through deserialize, verify and reconstruct in seconds. These fail on a
//!   quadratic replay path without measuring time finely.

use lima_algos::runner::run_script;
use lima_core::lineage::dedup::DedupPatch;
use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};
use lima_core::lineage::verify::verify_dag;
use lima_core::lineage::{LinRef, LineageItem};
use lima_core::{opcodes as oc, LimaConfig};
use lima_matrix::Value;
use lima_runtime::reconstruct::{recompute, reconstruct};
use lima_runtime::{ExecutionContext, Op};
use proptest::prelude::*;
use std::time::Instant;

const CARRIED: [&str; 3] = ["a", "b", "c"];

/// A loop over `carried` vectors that all read the shared product `s` and the
/// body's seeded `rand`, with `branches` index-dependent `if`s (so up to four
/// control paths, hence patches). The loop index appears in predicates only:
/// a dedup patch would freeze it inside an expression.
fn loop_script(carried: usize, branches: usize, iters: usize, forms: &[u8], seed: u64) -> String {
    let mut s = format!("X = rand(rows=5, cols=5, min=0, max=1, seed={seed});\n");
    for (k, v) in CARRIED.iter().take(carried).enumerate() {
        s += &format!(
            "{v} = rand(rows=5, cols=1, min=0, max=1, seed={});\n",
            seed + 1 + k as u64
        );
    }
    s += &format!("for (i in 1:{iters}) {{\n  s = X %*% a;\n");
    s += &format!(
        "  R = rand(rows=5, cols=1, min=0, max=1, seed={});\n",
        seed + 9
    );
    if branches >= 1 {
        s += &format!(
            "  if (i <= {}) {{ s = s * 0.5; }} else {{ s = s + R; }}\n",
            iters / 2
        );
    }
    for (k, v) in CARRIED.iter().take(carried).enumerate() {
        let prev = CARRIED[(k + carried - 1) % carried];
        s += &match forms.get(k).copied().unwrap_or(0) % 4 {
            0 => format!("  {v} = s * 0.25 + {v} * 0.5;\n"),
            1 => format!("  {v} = (s + R) * 0.125 + {v} * 0.75;\n"),
            2 => format!("  {v} = {v} * 0.5 + {prev} * 0.25 + R * 0.125;\n"),
            _ => format!("  {v} = s * 0.25 - {v} * 0.125 + {prev} * 0.5;\n"),
        };
    }
    if branches >= 2 {
        s += "  if (i <= 1) { a = a + R; } else { a = a * 0.9; }\n";
    }
    s + "}\n"
}

fn bits(v: &Value) -> Vec<u64> {
    v.as_matrix()
        .expect("carried variables are matrices")
        .data()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// Instructions of the reconstructed program that compute something.
fn compute_instrs(root: &LinRef) -> usize {
    reconstruct(root)
        .expect("traced lineage reconstructs")
        .instrs
        .iter()
        .filter(|i| !matches!(i.op, Op::Assign | Op::Rmvar))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn plain_and_dedup_logs_replay_to_the_traced_value(
        carried in 1usize..=3,
        branches in 0usize..=2,
        iters in 1usize..7,
        forms in proptest::collection::vec(0u8..4, 3),
        seed in 1u64..10_000,
    ) {
        let script = loop_script(carried, branches, iters, &forms, seed);
        let plain = run_script(&script, &LimaConfig::tracing_only(), &[]).unwrap();
        let dedup = run_script(&script, &LimaConfig::tracing_dedup(), &[]).unwrap();
        for var in CARRIED.iter().take(carried) {
            let traced = bits(plain.value(var));
            prop_assert_eq!(&traced, &bits(dedup.value(var)), "runs differ on {}:\n{}", var, script);
            let roots = [&plain, &dedup].map(|r| r.ctx.lineage.get(var).expect("traced").clone());
            for root in &roots {
                let mut ctx = ExecutionContext::new(LimaConfig::base());
                let got = recompute(root, &mut ctx)
                    .unwrap_or_else(|e| panic!("recompute {var}: {e}\n{script}"));
                prop_assert_eq!(&traced, &bits(&got), "replay of {} differs:\n{}", var, script);
                prop_assert!(
                    ctx.symtab.is_empty(),
                    "replay left {:?} behind", ctx.symtab.keys().collect::<Vec<_>>()
                );
            }
            prop_assert!(
                compute_instrs(&roots[1]) <= compute_instrs(&roots[0]),
                "dedup replay of {} costs {} instructions, plain {}:\n{}",
                var, compute_instrs(&roots[1]), compute_instrs(&roots[0]), script
            );
        }
    }
}

/// `p = (G %*% p) * 0.5 + p`, `iters` deduplicated iterations; the patch also
/// defines an output `q` that nothing reads.
fn dedup_chain(iters: usize) -> LinRef {
    let g = LineageItem::placeholder(0);
    let p = LineageItem::placeholder(1);
    let q = LineageItem::op(oc::MATMULT, vec![g, p.clone()]);
    let half = LineageItem::op("*", vec![q.clone(), LineageItem::literal("f:0.5")]);
    let next = LineageItem::op("+", vec![half, p]);
    let patch = DedupPatch::new(
        "loop:chain",
        0,
        2,
        vec![("q".into(), q), ("p".into(), next)],
    );
    let g = LineageItem::op_with_data(oc::READ, "G", vec![]);
    let mut p = LineageItem::op_with_data(oc::READ, "p0", vec![]);
    for _ in 0..iters {
        p = LineageItem::dedup(patch.clone(), "p", vec![g.clone(), p]);
    }
    p
}

#[test]
fn program_size_is_linear_in_deduplicated_iterations() {
    let size = |iters| {
        reconstruct(&dedup_chain(iters))
            .expect("chain reconstructs")
            .instrs
            .len()
    };
    let (n1, n2, n4) = (size(1_000), size(2_000), size(4_000));
    assert_eq!(n4 - n2, 2 * (n2 - n1), "instructions: {n1} / {n2} / {n4}");
    // Three operations per iteration and the removal of what they bound;
    // the dead output `q` adds nothing beyond the product `p` needs anyway.
    assert_eq!(compute_instrs(&dedup_chain(1_000)), 2 + 3 * 1_000);
}

#[test]
fn a_20_000_iteration_dedup_log_replays_in_seconds() {
    let log = serialize_lineage(&dedup_chain(20_000));
    let started = Instant::now();
    let root = deserialize_lineage(&log).expect("log parses");
    verify_dag(&root).expect("log verifies");
    let prog = reconstruct(&root).expect("log reconstructs");
    let spent = started.elapsed();
    assert!(prog.instrs.len() > 3 * 20_000);
    assert!(
        spent.as_secs_f64() < 2.0,
        "deserialize + verify + reconstruct took {spent:?}"
    );
}

#[test]
fn replay_holds_its_live_set_not_the_whole_trace() {
    // Every temporary is removed right after its last reader, so at no point
    // does a chain replay hold more than a handful of variables.
    let prog = reconstruct(&dedup_chain(500)).unwrap();
    let (mut live, mut peak) = (0usize, 0usize);
    for i in &prog.instrs {
        match i.op {
            Op::Rmvar => live -= i.inputs.len(),
            _ => live += i.outputs.len(),
        }
        peak = peak.max(live);
    }
    assert_eq!(live, 1, "only the result survives the program");
    assert!(peak <= 5, "peak live temporaries: {peak}");
    // A removed temporary's slot is the next one's: the program's frame is
    // as long as its live set at its largest.
    assert_eq!(
        prog.frame.len(),
        peak,
        "frame of {} slots",
        prog.frame.len()
    );
}
