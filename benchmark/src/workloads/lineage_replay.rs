//! `lineage_replay`: a seeded corpus of lineage logs; one op = serialize ->
//! deserialize -> verify -> recompute on a fresh context -> bit-compare with
//! the value that was traced.
//!
//! Chosen because it is the audit / repair / replay path (and the path
//! `limad`'s scrub-repair and anti-entropy take): `lineage::serialize`,
//! `lineage::verify` and `runtime::reconstruct` do the work, while matrices
//! are at most 64 x 64, so kernels and the cache do none.
//!
//! Scripts traced with dedup keep the loop index out of scalar expressions
//! and slice bounds: a dedup patch freezes such values at their first
//! iteration (see README, findings), and `reconstruct` rejects bare copies.

use super::{corrupt_value, drive, run_timed, timed_setup, Outcome, RunArgs};
use crate::gen::{Rng, Rotation};
use crate::metrics::{Metrics, PER_LAYER};
use crate::probe::{log_items, matrix_layer, CodecCost};
use crate::sizing::{LogShape, LINEAGE_REPLAY as SZ};
use crate::span::Tracer;
use crate::stats::median;
use lima_algos::pipelines::{self, Pipeline};
use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};
use lima_core::lineage::verify::verify_dag;
use lima_core::lineage::LinRef;
use lima_core::LimaConfig;
use lima_matrix::Value;
use lima_runtime::reconstruct::{recompute, reconstruct};
use lima_runtime::ExecutionContext;
use std::time::Instant;

/// One lineage log of the corpus with the value its trace produced.
struct Entry {
    root: LinRef,
    traced: Value,
    inputs: Vec<(String, Value)>,
    dedup: bool,
    /// Lines of the serialized log that are lineage items.
    items: u64,
}

fn pipeline_of(shape: LogShape, rng: &mut Rng) -> (Pipeline, &'static str, bool) {
    let mut seed = || rng.next_u64() % 1_000_000;
    match shape {
        LogShape::Chain { iters, dim, dedup } => {
            let (s1, s2) = (seed(), seed());
            let (a, b) = (1.0 / dim as f64, 0.40 + 0.1 * (seed() as f64 / 1e6));
            let script = format!(
                "X = rand(rows={dim}, cols={dim}, min=0, max=1, seed={s1});\n\
                 p = rand(rows={dim}, cols=1, min=0, max=1, seed={s2});\n\
                 for (i in 1:{iters}) {{\n  q = X %*% p;\n  p = q * {a} + p * {b};\n}}\n"
            );
            let p = Pipeline {
                name: "Chain",
                script,
                inputs: vec![],
            };
            (p, "p", dedup)
        }
        LogShape::PageRank {
            nodes,
            iters,
            dedup,
        } => (
            pipelines::pagerank_pipeline(nodes, iters, seed()),
            "p",
            dedup,
        ),
        LogShape::StepLm { rows, base, iters } => (
            pipelines::steplm_core(rows, base, iters, iters, seed()),
            "total",
            false,
        ),
    }
}

fn trace(p: &Pipeline, var: &str, dedup: bool) -> Entry {
    let cfg = if dedup {
        LimaConfig::tracing_dedup()
    } else {
        LimaConfig::tracing_only()
    };
    let (ctx, _) = run_timed(p, &cfg);
    let root = ctx.lineage.get(var).expect("output is traced").clone();
    Entry {
        items: log_items(&serialize_lineage(&root)),
        traced: ctx.symtab[var].clone(),
        inputs: p.inputs.clone(),
        dedup,
        root,
    }
}

fn build_corpus(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    SZ.corpus
        .iter()
        .map(|&shape| {
            let (p, var, dedup) = pipeline_of(shape, &mut rng);
            trace(&p, var, dedup)
        })
        .collect()
}

/// A context that serves the trace's external inputs to `read` leaves.
fn fresh_context(e: &Entry) -> ExecutionContext {
    let ctx = ExecutionContext::new(LimaConfig::base());
    for (name, value) in &e.inputs {
        ctx.data.register(format!("var:{name}"), value.clone());
    }
    ctx
}

fn bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Matrix(x), Value::Matrix(y)) => {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::Scalar(_), Value::Scalar(_)) => match (a.as_f64(), b.as_f64()) {
            (Ok(p), Ok(q)) => p.to_bits() == q.to_bits(),
            _ => false,
        },
        _ => false,
    }
}

/// One op; returns the log's size in bytes when every step succeeded and the
/// recomputed value equals the traced one bit for bit.
fn op(e: &Entry, tr: &mut Tracer) -> Result<usize, String> {
    let log = tr.span("lineage.serialize", |_| serialize_lineage(&e.root));
    let back = tr
        .span("lineage.deserialize", |_| deserialize_lineage(&log))
        .map_err(|e| format!("deserialize: {e}"))?;
    tr.span("lineage.verify", |_| verify_dag(&back))
        .map_err(|e| format!("verify: {e}"))?;
    let mut ctx = tr.span("runtime.context", |_| fresh_context(e));
    let got = tr
        .span("runtime.recompute", |_| recompute(&back, &mut ctx))
        .map_err(|e| format!("recompute: {e}"))?;
    if tr.span("bench.oracle", |_| bit_equal(&got, &e.traced)) {
        Ok(log.len())
    } else {
        Err("recomputed value differs from the traced value".into())
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let counts = args.op_counts(SZ.ops);
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch, 0);
    let mut off = Tracer::new(false, epoch, 0);

    let (mut corpus, setup_s) = timed_setup(args, || {
        let corpus = build_corpus(args.seed);
        let mut warm = Rotation::new(corpus.len(), Rng::new(args.seed).fork(0xA));
        for _ in 0..counts.warmup_ops {
            let _ = op(&corpus[warm.next()], &mut off);
        }
        corpus
    });
    if args.corrupt_oracle {
        corrupt_value(&mut corpus[0].traced);
    }

    let mut layers = Metrics::new(PER_LAYER);
    let mut order = Rotation::new(corpus.len(), Rng::new(args.seed).fork(0xB));
    let window = drive(args.seconds, counts.min_ops, &mut tr, |i, tr| {
        let e = &corpus[order.next()];
        match op(e, tr) {
            Ok(log_bytes) => {
                if args.trace && (i as usize) < counts.counted_ops {
                    layers.add("lineage.items_traced", e.items as f64);
                    layers.add("lineage.log_bytes", log_bytes as f64);
                }
                true
            }
            Err(msg) => {
                eprintln!("lineage_replay: op {i} failed: {msg}");
                false
            }
        }
    });

    if args.trace {
        probes(&mut layers, &corpus, args.seed, counts.paired_runs);
    }
    Outcome {
        setup_s,
        window,
        layers,
        tracers: vec![tr],
    }
}

/// After the window: codec cost per item (plain and deduplicated logs apart),
/// `reconstruct` timed apart from the instruction loop of `recompute`, the
/// dedup item ratio on the corpus' dedup scripts traced both ways, and the
/// kernel share of the plain logs.
fn probes(layers: &mut Metrics, corpus: &[Entry], seed: u64, reps: usize) {
    let mut codec = CodecCost::default();
    // (items, bytes) of the plain and of the deduplicated logs.
    let (mut plain, mut deduped) = ((0u64, 0u64), (0u64, 0u64));
    let (mut reconstruct_ms, mut exec_ms) = (vec![], vec![]);
    let mut plain_recompute_s = 0.0;
    for e in corpus {
        let (items, bytes) = codec.measure(&e.root);
        let kind = if e.dedup { &mut deduped } else { &mut plain };
        *kind = (kind.0 + items, kind.1 + bytes);
        let (mut rec, mut all) = (vec![], vec![]);
        for _ in 0..reps {
            let t = Instant::now();
            reconstruct(&e.root).expect("corpus logs reconstruct");
            rec.push(t.elapsed().as_secs_f64());
            let mut ctx = fresh_context(e);
            let t = Instant::now();
            recompute(&e.root, &mut ctx).expect("corpus logs recompute");
            all.push(t.elapsed().as_secs_f64());
        }
        reconstruct_ms.push(median(&rec) * 1e3);
        exec_ms.push((median(&all) - median(&rec)).max(0.0) * 1e3);
        if !e.dedup {
            plain_recompute_s += median(&all);
        }
    }
    layers.set("runtime.reconstruct_ms_p50", median(&reconstruct_ms));
    layers.set("runtime.recompute_exec_ms_p50", median(&exec_ms));

    codec.report(layers);
    layers.set(
        "lineage.log_bytes_per_item",
        plain.1 as f64 / plain.0 as f64,
    );
    layers.set(
        "lineage.dedup_log_bytes_per_item",
        deduped.1 as f64 / deduped.0 as f64,
    );

    // The dedup scripts again, traced without dedup: same seed, same scripts.
    let mut rng = Rng::new(seed);
    let mut undeduped_items = 0;
    for &shape in &SZ.corpus {
        let (p, var, dedup) = pipeline_of(shape, &mut rng);
        if dedup {
            undeduped_items += trace(&p, var, false).items;
        }
    }
    layers.set(
        "lineage.dedup_item_ratio",
        deduped.0 as f64 / undeduped_items as f64,
    );

    // A plain log names every operation its recompute executes, each once.
    let plain_ops: Vec<(LinRef, u64)> = corpus
        .iter()
        .filter(|e| !e.dedup)
        .flat_map(|e| e.root.topo_order())
        .map(|item| (item, 1))
        .collect();
    matrix_layer(layers, &plain_ops, plain_recompute_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed);
        SZ.corpus
            .iter()
            .map(|&shape| pipeline_of(shape, &mut rng).0.script)
            .collect()
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_values_same_shapes() {
        assert_eq!(scripts(3), scripts(3));
        assert_ne!(scripts(3), scripts(4));
        // The seed changes values only: script lengths (loop bounds, sizes)
        // stay put up to the digits of the seeds themselves.
        for (a, b) in scripts(3).iter().zip(scripts(4)) {
            assert_eq!(a.lines().count(), b.lines().count());
        }
    }

    #[test]
    fn bit_equal_is_exact() {
        let m = |v: f64| Value::matrix(lima_matrix::DenseMatrix::filled(2, 2, v));
        assert!(bit_equal(&m(1.5), &m(1.5)));
        assert!(!bit_equal(&m(1.5), &m(1.5 + f64::EPSILON)));
        assert!(!bit_equal(&Value::f64(0.0), &Value::f64(-0.0)));
        assert!(!bit_equal(&m(1.0), &Value::f64(1.0)));
    }
}
