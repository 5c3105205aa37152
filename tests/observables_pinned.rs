//! Nothing observable moved: three pipelines under `Base`/`LT`/`LTD`/`LIMA`
//! against constants captured at the commit before the lineage item and the
//! cache books were re-laid-out. Pinned per run: every output value (FNV-1a
//! over its codec body), the serialized lineage of the output (item ids
//! renumbered by first appearance, then length and FNV-1a), the structural
//! hash of its root, the counters a layout change could move, and
//! `dag_bytes()` as a ceiling — the DAG may get smaller, never larger.
//!
//! Under the two `LIMA` configurations `puts`, `full_hits` and `evictions`
//! are ceilings too: admission books a value on its first sighting only when
//! its measured compute time pays for the booking, so, like Cost&Size
//! victims, they follow measured time. Everything the cache cannot change —
//! items traced, probes, multi-level and partial hits — stays exact.
//!
//! Reuse changes no lineage: under `LIMA` and `LIMA-8K` the output's log,
//! its length and its root hash are those `LT` traces for the same pipeline,
//! and its DAG is no larger than `LT`'s, whatever the cache served. A reused
//! or reserved function call binds the lineage its body computed, not the
//! call item that keys its entry.
//!
//! Counters restated when `t(A) %*% B` became one instruction and calls
//! began to bind their body's lineage (values and `LT`/`LTD` logs did not
//! move):
//! - hlm `LT`/`LTD` `items_traced` 248 → 240: eight `t(X) %*% y` products
//!   trace their `r'` and `ba+*` items from one instruction.
//! - hlm `LIMA`/`LIMA-8K` `items_traced` 212 → 188 and `probes` 184 → 156:
//!   the same eight products, and `l2norm`'s chain now hits across `tol`,
//!   which `lmDS` never reads, so fewer instructions run at all.
//! - hlm `LIMA`/`LIMA-8K` `multilevel_hits` 4 → 8: those `l2norm` calls.
//! - hlm `full_hits` ceiling 70 (`LIMA`) and 32 (`LIMA-8K`) → 64 for both.
//!   `probes` is exact, so every run probes the same keys, and none hits
//!   more often than when every value is booked and none evicted: 64, the
//!   `LIMA` count with admission booking everything (30 when it books
//!   nothing). The old `LIMA-8K` ceiling was an observed value; with calls
//!   binding body lineage, a run whose admission refuses enough to evict
//!   nothing reaches 38.
//! - pagerank `LIMA`/`LIMA-8K` log 161 B → `LT`'s 823 B: its call used to
//!   bind the `fcall` item even on a miss.
//!
//! `OBSERVABLES_PRINT=1 cargo test --test observables_pinned -- --nocapture`
//! prints the table in the form `PINNED` holds.

use lima::prelude::*;
use lima_matrix::codec::{encode_body, fnv1a};

/// One run's observables, in the order of `PINNED`'s columns.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    value_fnv: u64,
    log_len: usize,
    log_fnv: u64,
    root_hash: u64,
    dag_bytes: usize,
    /// items_traced, probes, full_hits, multilevel_hits, partial_hits, puts,
    /// evictions, dedup_items, dedup_patches.
    counters: [u64; 9],
}

/// Rewrites every `(<digits>)` token to the rank of its first appearance.
fn renumber_ids(log: &str) -> String {
    let mut ranks: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    while let Some(open) = rest.find('(') {
        let (before, from_open) = rest.split_at(open);
        out.push_str(before);
        let digits = from_open[1..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        if digits > 0 && from_open.as_bytes().get(1 + digits) == Some(&b')') {
            let next = ranks.len();
            let rank = *ranks.entry(&from_open[1..1 + digits]).or_insert(next);
            out.push_str(&format!("({rank})"));
            rest = &from_open[digits + 2..];
        } else {
            out.push('(');
            rest = &from_open[1..];
        }
    }
    out.push_str(rest);
    out
}

/// `(name, pipeline, output)`: a matrix output each, so the pinned lineage is
/// the whole trace (a scalar result enters later lineage as a literal).
fn pipelines_under_test() -> Vec<(&'static str, pipelines::Pipeline, &'static str)> {
    let grid = pipelines::hyperparameter_grid(2, 1, 2);
    vec![
        ("minibatch", pipelines::minibatch_micro(64, 12, 8, 7), "B"),
        // `B` is dead after the loop, so `LTD` binds only `s`.
        ("minibatch-s", pipelines::minibatch_micro(64, 12, 8, 7), "s"),
        ("pagerank", pipelines::pagerank_pipeline(40, 6, 3), "p"),
        ("hlm", pipelines::hlm(200, 12, 2, 5, &grid, false, 5), "L"),
    ]
}

fn configs() -> Vec<(&'static str, LimaConfig)> {
    vec![
        ("Base", LimaConfig::base()),
        ("LT", LimaConfig::tracing_only()),
        ("LTD", LimaConfig::tracing_dedup()),
        ("LIMA", LimaConfig::lima()),
        // The miss path with evictions. LRU, because Cost&Size picks its
        // victims by measured compute time, which no two runs share.
        (
            "LIMA-8K",
            LimaConfig {
                policy: EvictionPolicy::Lru,
                budget_bytes: 8 * 1024,
                spill: false,
                ..LimaConfig::lima()
            },
        ),
    ]
}

fn observe(p: &pipelines::Pipeline, cfg: &LimaConfig, output: &str) -> Observed {
    let run = match run_script(&p.script, cfg, &p.input_refs()) {
        Ok(run) => run,
        Err(e) => panic!("{}: {e}", p.name),
    };
    let mut body = Vec::new();
    encode_body(&mut body, run.value(output));
    let stats = &run.ctx.stats;
    let counters = [
        &stats.items_traced,
        &stats.probes,
        &stats.full_hits,
        &stats.multilevel_hits,
        &stats.partial_hits,
        &stats.puts,
        &stats.evictions,
        &stats.dedup_items,
        &stats.dedup_patches,
    ]
    .map(LimaStats::get);
    let (log_len, log_fnv, root_hash, dag_bytes) = match run.ctx.lineage.get(output) {
        Some(root) => {
            let log = renumber_ids(&serialize_lineage(root));
            (
                log.len(),
                fnv1a(log.as_bytes()),
                root.hash_value(),
                root.dag_bytes(),
            )
        }
        None => (0, 0, 0, 0),
    };
    Observed {
        value_fnv: fnv1a(&body),
        log_len,
        log_fnv,
        root_hash,
        dag_bytes,
        counters,
    }
}

/// `(pipeline, config, observables)` as the parent commit produced them.
#[rustfmt::skip]
const PINNED: &[(&str, &str, Observed)] = &[
    ("minibatch", "Base", Observed { value_fnv: 0x73b12d106d57d0cb, log_len: 0, log_fnv: 0x0, root_hash: 0x0, dag_bytes: 0, counters: [0, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("minibatch", "LT", Observed { value_fnv: 0x73b12d106d57d0cb, log_len: 808, log_fnv: 0xed8fdfb7d56e7e34, root_hash: 0x47567d233ad9200d, dag_bytes: 6709, counters: [457, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("minibatch", "LTD", Observed { value_fnv: 0x73b12d106d57d0cb, log_len: 0, log_fnv: 0x0, root_hash: 0x0, dag_bytes: 0, counters: [58, 0, 0, 0, 0, 0, 0, 8, 1] }),
    ("minibatch", "LIMA", Observed { value_fnv: 0x73b12d106d57d0cb, log_len: 808, log_fnv: 0xed8fdfb7d56e7e34, root_hash: 0x47567d233ad9200d, dag_bytes: 6709, counters: [457, 448, 72, 0, 0, 376, 0, 0, 0] }),
    ("minibatch", "LIMA-8K", Observed { value_fnv: 0x73b12d106d57d0cb, log_len: 808, log_fnv: 0xed8fdfb7d56e7e34, root_hash: 0x47567d233ad9200d, dag_bytes: 6709, counters: [457, 448, 72, 0, 0, 376, 364, 0, 0] }),
    ("minibatch-s", "Base", Observed { value_fnv: 0x61de3db5bf4a7a1c, log_len: 0, log_fnv: 0x0, root_hash: 0x0, dag_bytes: 0, counters: [0, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("minibatch-s", "LT", Observed { value_fnv: 0x61de3db5bf4a7a1c, log_len: 79, log_fnv: 0x8279b5f35c82491f, root_hash: 0x99959c10aa372bb4, dag_bytes: 466, counters: [457, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("minibatch-s", "LTD", Observed { value_fnv: 0x61de3db5bf4a7a1c, log_len: 461, log_fnv: 0x23df1ae4a7eec9b5, root_hash: 0x6bef8cdd00a565e0, dag_bytes: 2883, counters: [58, 0, 0, 0, 0, 0, 0, 8, 1] }),
    ("minibatch-s", "LIMA", Observed { value_fnv: 0x61de3db5bf4a7a1c, log_len: 79, log_fnv: 0x8279b5f35c82491f, root_hash: 0x99959c10aa372bb4, dag_bytes: 466, counters: [457, 448, 72, 0, 0, 376, 0, 0, 0] }),
    ("minibatch-s", "LIMA-8K", Observed { value_fnv: 0x61de3db5bf4a7a1c, log_len: 79, log_fnv: 0x8279b5f35c82491f, root_hash: 0x99959c10aa372bb4, dag_bytes: 466, counters: [457, 448, 72, 0, 0, 376, 364, 0, 0] }),
    ("pagerank", "Base", Observed { value_fnv: 0xa264914c281d2c17, log_len: 0, log_fnv: 0x0, root_hash: 0x0, dag_bytes: 0, counters: [0, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("pagerank", "LT", Observed { value_fnv: 0xa264914c281d2c17, log_len: 823, log_fnv: 0x1905f797166dd5ab, root_hash: 0x8a86a109a392977d, dag_bytes: 6444, counters: [42, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("pagerank", "LTD", Observed { value_fnv: 0xa264914c281d2c17, log_len: 660, log_fnv: 0x5f3d8484da77416b, root_hash: 0x8a86a109a392977d, dag_bytes: 2704, counters: [7, 0, 0, 0, 0, 0, 0, 6, 1] }),
    ("pagerank", "LIMA", Observed { value_fnv: 0xa264914c281d2c17, log_len: 823, log_fnv: 0x1905f797166dd5ab, root_hash: 0x8a86a109a392977d, dag_bytes: 6444, counters: [42, 8, 5, 0, 0, 3, 0, 0, 0] }),
    ("pagerank", "LIMA-8K", Observed { value_fnv: 0xa264914c281d2c17, log_len: 823, log_fnv: 0x1905f797166dd5ab, root_hash: 0x8a86a109a392977d, dag_bytes: 6444, counters: [42, 8, 5, 0, 0, 3, 0, 0, 0] }),
    ("hlm", "Base", Observed { value_fnv: 0x7faf4c4406a1bac, log_len: 0, log_fnv: 0x0, root_hash: 0x0, dag_bytes: 0, counters: [0, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("hlm", "LT", Observed { value_fnv: 0x7faf4c4406a1bac, log_len: 541, log_fnv: 0x2a10590d37bb2611, root_hash: 0xe7a00ae80a1dfdba, dag_bytes: 3290, counters: [240, 0, 0, 0, 0, 0, 0, 0, 0] }),
    ("hlm", "LTD", Observed { value_fnv: 0x7faf4c4406a1bac, log_len: 541, log_fnv: 0x2a10590d37bb2611, root_hash: 0xe7a00ae80a1dfdba, dag_bytes: 3290, counters: [240, 0, 0, 0, 0, 0, 0, 32, 2] }),
    ("hlm", "LIMA", Observed { value_fnv: 0x7faf4c4406a1bac, log_len: 541, log_fnv: 0x2a10590d37bb2611, root_hash: 0xe7a00ae80a1dfdba, dag_bytes: 3290, counters: [188, 156, 64, 8, 0, 110, 0, 0, 0] }),
    ("hlm", "LIMA-8K", Observed { value_fnv: 0x7faf4c4406a1bac, log_len: 541, log_fnv: 0x2a10590d37bb2611, root_hash: 0xe7a00ae80a1dfdba, dag_bytes: 3290, counters: [188, 156, 64, 8, 0, 148, 127, 0, 0] }),
];

#[test]
fn renumbering_follows_first_appearance() {
    assert_eq!(
        renumber_ids("(17) L f:2\n(9) I + (17) (17) ;f(x) (3\n::out (9)\n"),
        "(0) L f:2\n(1) I + (0) (0) ;f(x) (3\n::out (1)\n"
    );
}

#[test]
fn observables_match_the_parent_commit() {
    let print = std::env::var_os("OBSERVABLES_PRINT").is_some();
    let mut seen = 0;
    for (pname, pipeline, output) in pipelines_under_test() {
        let mut traced = None;
        for (cname, cfg) in configs() {
            let got = observe(&pipeline, &cfg, output);
            // `configs()` runs `LT` before the `LIMA` rows it is their oracle for.
            let lineage = |o: &Observed| (o.log_len, o.log_fnv, o.root_hash);
            match (cname, &traced) {
                ("LT", _) => traced = Some((lineage(&got), got.dag_bytes)),
                (c, Some((log, dag_bytes))) if c.starts_with("LIMA") => {
                    assert_eq!(lineage(&got), *log, "{pname}/{cname}: lineage is not LT's");
                    assert!(
                        got.dag_bytes <= *dag_bytes,
                        "{pname}/{cname}: DAG above LT's"
                    );
                }
                _ => {}
            }
            if print {
                println!(
                    "    (\"{pname}\", \"{cname}\", Observed {{ value_fnv: {:#x}, log_len: {}, \
                     log_fnv: {:#x}, root_hash: {:#x}, dag_bytes: {}, counters: {:?} }}),",
                    got.value_fnv,
                    got.log_len,
                    got.log_fnv,
                    got.root_hash,
                    got.dag_bytes,
                    got.counters
                );
                continue;
            }
            let Some((_, _, want)) = PINNED.iter().find(|(p, c, _)| *p == pname && *c == cname)
            else {
                panic!("{pname}/{cname} has no pinned row");
            };
            assert!(
                got.dag_bytes <= want.dag_bytes,
                "{pname}/{cname}: dag_bytes grew {} -> {}",
                want.dag_bytes,
                got.dag_bytes
            );
            let mut counters = got.counters;
            if cname.starts_with("LIMA") {
                for (i, name) in [(2, "full_hits"), (5, "puts"), (6, "evictions")] {
                    assert!(
                        counters[i] <= want.counters[i],
                        "{pname}/{cname}: {name} grew {} -> {}",
                        want.counters[i],
                        counters[i]
                    );
                    counters[i] = want.counters[i];
                }
            }
            let got = Observed {
                dag_bytes: want.dag_bytes,
                counters,
                ..got
            };
            assert_eq!(&got, want, "{pname}/{cname}");
            seen += 1;
        }
    }
    assert!(print || seen == PINNED.len());
}
