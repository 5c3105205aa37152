//! `Program::retain_reachable` differential oracle: a program with its
//! unreachable functions dropped must execute, trace and reuse exactly like
//! the program it was pruned from — bit-equal outputs, equal lineage text,
//! equal reuse counters — under `Base`/`LT`/`LTD`/`LIMA`, with every block id
//! where the compiler put it. Runs over every pipeline that ships the builtin
//! library (`lima_algos::scripts::with_builtins`) and over a generated set
//! built to hide calls where a careless walk would miss them.

use lima::prelude::*;
use lima_algos::pipelines::{self, Pipeline};
use lima_core::lineage::serialize_lineage;
use lima_runtime::program::{walk_blocks, Block};
use lima_runtime::Program;
use std::collections::BTreeMap;

fn configs() -> [(&'static str, LimaConfig); 4] {
    [
        ("Base", LimaConfig::base()),
        ("LT", LimaConfig::tracing_only()),
        ("LTD", LimaConfig::tracing_dedup()),
        ("LIMA", LimaConfig::lima()),
    ]
}

/// Everything observable about one execution.
struct Observed {
    values: BTreeMap<String, Vec<u8>>,
    lineage: BTreeMap<String, String>,
    stdout: Vec<String>,
    counters: Vec<(&'static str, u64)>,
}

/// Counters that depend on the program alone. Time-valued counters are left
/// out, and so are all of them for scripts with a `parfor`, whose workers
/// race for placeholders.
const COUNTERS: [&str; 12] = [
    "items_traced",
    "dedup_items",
    "dedup_patches",
    "probes",
    "full_hits",
    "multilevel_hits",
    "partial_hits",
    "puts",
    "rejected_puts",
    "evictions",
    "ops_unmarked",
    "funcs_reuse_ineligible",
];

fn bits(v: &Value) -> Vec<u8> {
    lima_matrix::codec::encode_file(v).unwrap_or_else(|| format!("{v:?}").into_bytes())
}

/// Lineage ids come from a process-wide counter, so two traces of one
/// computation differ in every `(id)`. Renumbers them by first appearance.
fn renumbered(log: &str) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    while let Some(open) = rest.find('(') {
        let (head, tail) = rest.split_at(open + 1);
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && tail[digits..].starts_with(')') {
            let id = &tail[..digits];
            let n = seen.iter().position(|s| *s == id).unwrap_or_else(|| {
                seen.push(id);
                seen.len() - 1
            });
            out.push_str(&n.to_string());
        } else {
            out.push_str(&tail[..digits]);
        }
        rest = &tail[digits..];
    }
    out + rest
}

fn observe(program: &Program, config: &LimaConfig, inputs: &[(String, Value)]) -> Observed {
    let mut ctx = ExecutionContext::new(config.clone());
    ctx.reset_seed_counter(7);
    for (name, value) in inputs {
        ctx.data.register(name.clone(), value.clone());
        ctx.set(name.clone(), value.clone());
    }
    execute_program(program, &mut ctx).expect("script runs");
    let lineage = ctx
        .symtab
        .keys()
        .filter_map(|var| {
            Some((
                var.to_string(),
                renumbered(&serialize_lineage(ctx.lineage.get(var)?)),
            ))
        })
        .collect();
    Observed {
        values: ctx
            .symtab
            .iter()
            .map(|(k, v)| (k.to_string(), bits(v)))
            .collect(),
        lineage,
        stdout: ctx.stdout.clone(),
        counters: ctx
            .stats
            .snapshot()
            .into_iter()
            .filter(|(name, _)| COUNTERS.contains(name))
            .collect(),
    }
}

/// Block ids in walk order: the body, then each function by name.
fn block_ids(program: &Program, functions: &[String]) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut push = |b: &Block| ids.push(b.id());
    walk_blocks(&program.body, &mut push);
    for name in functions {
        walk_blocks(&program.functions[name].body, &mut push);
    }
    ids
}

/// Compiles `script` under every configuration, prunes a copy, and holds the
/// two programs to the same observations. Returns the functions kept.
fn assert_pruning_is_invisible(
    label: &str,
    script: &str,
    inputs: &[(String, Value)],
) -> Vec<String> {
    let mut kept = Vec::new();
    for (name, config) in configs() {
        let full = compile_script(script, &config).expect("script compiles");
        let mut pruned = full.clone();
        pruned.retain_reachable();

        kept = pruned.functions.keys().cloned().collect();
        kept.sort();
        assert_eq!(
            block_ids(&pruned, &kept),
            block_ids(&full, &kept),
            "{label}/{name}: pruning moved a block id"
        );
        assert_eq!(pruned.analysis, full.analysis, "{label}/{name}: report");
        assert_eq!(pruned.fingerprint, full.fingerprint, "{label}/{name}");
        assert!(pruned.instr_count() <= full.instr_count());

        let mut want = observe(&full, &config, inputs);
        let mut got = observe(&pruned, &config, inputs);
        if script.contains("parfor") {
            want.counters.clear();
            got.counters.clear();
        }
        let at = format!("{label}/{name}");
        for (var, bytes) in &want.values {
            // Not `assert_eq!`: a mismatch should name the variable, not
            // print two encoded matrices.
            assert!(got.values.get(var) == Some(bytes), "{at}: value of {var}");
        }
        assert_eq!(got.values.len(), want.values.len(), "{at}: variable set");
        for (var, text) in &want.lineage {
            assert!(got.lineage.get(var) == Some(text), "{at}: lineage of {var}");
        }
        assert_eq!(got.lineage.len(), want.lineage.len(), "{at}: traced set");
        assert_eq!(got.stdout, want.stdout, "{at}: stdout");
        assert_eq!(got.counters, want.counters, "{at}: counters");
    }
    kept
}

fn all_pipelines() -> Vec<Pipeline> {
    let grid = pipelines::hyperparameter_grid(2, 2, 1);
    vec![
        pipelines::hl2svm(120, 8, 2, 7),
        pipelines::hlm(80, 10, 2, 4, &grid, false, 5),
        pipelines::hlm(80, 10, 2, 4, &grid, true, 5),
        pipelines::hcv(96, 6, 4, 2, false, 3),
        pipelines::hcv(96, 6, 4, 2, true, 3),
        pipelines::ens(90, 40, 6, 3, 5, 11),
        pipelines::pcalm(100, 8, &[2, 4], 13),
        pipelines::pcacv(96, 8, &[3, 4], 4, 2, 17),
        pipelines::pcanb(100, 8, 3, &[3, 4], 2, 19),
        pipelines::autoencoder(64, 10, 6, 16, 2, 23),
        pipelines::minibatch_micro(64, 12, 8, 29),
        pipelines::minibatch_train(64, 12, 16, 2, 47),
        pipelines::steplm_core(60, 6, 10, 5, 31),
        pipelines::steplm_full(60, 6, 2, 37),
        pipelines::eviction_phases(24, 3, 2, 3, 2),
        pipelines::pagerank_pipeline(30, 5, 41),
        pipelines::mlogreg_repeat(60, 6, 3, 2, 2, 43),
    ]
}

#[test]
fn every_builtin_pipeline_runs_the_same_pruned() {
    let library = compile_script(&lima_algos::scripts::with_builtins(""), &LimaConfig::lima())
        .expect("library compiles")
        .functions
        .len();
    for p in all_pipelines() {
        let kept = assert_pruning_is_invisible(p.name, &p.script, &p.inputs);
        assert!(
            kept.len() < library,
            "{}: no pipeline calls the whole library, kept {kept:?}",
            p.name
        );
    }
}

/// Four functions nobody reaches ride along with every generated script.
const DEAD: &str = "
dead1 = function(X) return (r) { r = dead2(X) + 1; }
dead2 = function(X) return (r) { r = sum(X); }
dead3 = function(n) return (r) { if (n > 0) { r = dead3(n - 1); } else { r = 0; } }
dead4 = function(X) return (Y) { Y = t(X) %*% X; }
";

const GENERATED: [(&str, &[&str], &str); 7] = [
    (
        "transitive",
        &["a", "b", "c"],
        "a = function(X) return (r) { r = b(X) * 2; }
         b = function(X) return (r) { Y = c(X); r = sum(Y); }
         c = function(X) return (Y) { Y = t(X) %*% X; }
         X = rand(rows=12, cols=3, min=0, max=1, seed=5);
         s = a(X) + a(X);",
    ),
    (
        "mutual recursion",
        &["isEven", "isOdd"],
        "isEven = function(n) return (r) { if (n == 0) { r = 1; } else { r = isOdd(n - 1); } }
         isOdd = function(n) return (r) { if (n == 0) { r = 0; } else { r = isEven(n - 1); } }
         s = isEven(6) + isOdd(3);",
    ),
    (
        "if header and branches",
        &["big", "left", "right"],
        "big = function(X) return (r) { r = sum(X) > 1; }
         left = function(X) return (r) { r = sum(X %*% t(X)); }
         right = function(X) return (r) { r = sum(X) - 1; }
         X = rand(rows=8, cols=4, min=0, max=1, seed=9);
         if (big(X)) { s = left(X); } else { s = right(X); }",
    ),
    (
        "for header and body",
        &["bound", "step", "work"],
        "bound = function(X) return (n) { n = ncol(X); }
         step = function(X) return (n) { n = 1 + (nrow(X) < 0); }
         work = function(X, i) return (r) { r = sum(X[, i]) * i; }
         X = rand(rows=8, cols=4, min=0, max=1, seed=3);
         s = 0;
         for (i in 1:bound(X), step(X)) { s = s + work(X, i); }",
    ),
    (
        "while header and body",
        &["below", "next"],
        "below = function(i, n) return (r) { r = i < n; }
         next = function(i) return (j) { j = i + 1; }
         i = 0; s = 0;
         while (below(i, 4)) { i = next(i); s = s + i * i; }",
    ),
    (
        "parfor header and body",
        &["cell", "cells"],
        "cells = function(R) return (n) { n = nrow(R); }
         cell = function(X, i) return (r) { r = sum(X * i); }
         X = rand(rows=6, cols=3, min=0, max=1, seed=4);
         R = matrix(0, 5, 1);
         parfor (i in 1:cells(R)) { R[i, 1] = as.matrix(cell(X, i)); }
         s = sum(R);",
    ),
    (
        "no calls",
        &[],
        "X = rand(rows=10, cols=4, min=0, max=1, seed=2);
         G = t(X) %*% X;
         s = sum(G);
         print(\"s=\" + s);",
    ),
];

#[test]
fn generated_call_shapes_keep_exactly_what_they_reach() {
    for (label, reached, script) in GENERATED {
        let script = format!("{DEAD}\n{script}");
        let kept = assert_pruning_is_invisible(label, &script, &[]);
        assert_eq!(kept, reached, "{label}: kept functions");
    }
}
