//! Reuse changes nothing a result depends on: values computed under `LIMA`
//! have `Base`'s bits, and the lineage `LIMA` binds to them replays to those
//! bits. A value computed through a reused (or reserved) function call binds
//! the lineage its body computed, so it reconstructs like any other.

use lima::prelude::*;

/// Every `lima-algos` pipeline, at test sizes.
fn all_pipelines() -> Vec<pipelines::Pipeline> {
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

fn run(p: &pipelines::Pipeline, cfg: &LimaConfig) -> RunResult {
    match run_script(&p.script, cfg, &p.input_refs()) {
        Ok(r) => r,
        Err(e) => panic!("{}: {e}", p.name),
    }
}

/// Bit equality of two values; any `NaN` equals any `NaN`.
fn same_bits(a: &Value, b: &Value) -> bool {
    let bits = |v: f64| {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    match (a, b) {
        (Value::Matrix(a), Value::Matrix(b)) => {
            a.shape() == b.shape()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| bits(*x) == bits(*y))
        }
        (Value::Scalar(a), Value::Scalar(b)) => match (a.as_f64(), b.as_f64()) {
            (Ok(x), Ok(y)) => bits(x) == bits(y),
            _ => a == b,
        },
        _ => false,
    }
}

/// Each pipeline's matrix variables traced under `LIMA` go through the
/// lineage log (serialize, deserialize), are reconstructed into a program
/// and executed under `Base`: the result has the bits `Base` computed. The
/// one exception is pinned: a parfor's merged result is refused.
#[test]
fn every_pipeline_output_traced_under_lima_replays_to_base_bits() {
    for p in all_pipelines() {
        let base = run(&p, &LimaConfig::base());
        let lima = run(&p, &LimaConfig::lima());
        let inputs: Vec<&str> = p.inputs.iter().map(|(n, _)| n.as_str()).collect();
        let mut outputs: Vec<&str> = lima.ctx.symtab.keys().map(|k| &**k).collect();
        // Script variables, not the compiler's `_`-prefixed temporaries.
        outputs.retain(|v| {
            !v.starts_with('_') && !inputs.contains(v) && matches!(lima.value(v), Value::Matrix(_))
        });
        outputs.sort_unstable();
        assert!(!outputs.is_empty(), "{}: no matrix output", p.name);
        for var in outputs {
            let Some(root) = lima.ctx.lineage.get(var) else {
                continue;
            };
            let log = serialize_lineage(root);
            let parsed =
                deserialize_lineage(&log).unwrap_or_else(|e| panic!("{}/{var}: {e}", p.name));
            let mut ctx = ExecutionContext::new(LimaConfig::base());
            for (name, value) in &p.inputs {
                ctx.data.register(format!("var:{name}"), value.clone());
            }
            let replayed = recompute(&parsed, &mut ctx);
            // A parfor's merged result is traced as `rmerge` over the
            // workers' results, without the value they started from: it is
            // not replayable yet, and replay says so.
            if parsed.topo_order().iter().any(|n| n.opcode() == "rmerge") {
                let refused = matches!(&replayed, Err(e) if e.to_string().contains("'rmerge'"));
                assert!(refused, "{}/{var}: a merged parfor result replayed", p.name);
                continue;
            }
            match replayed {
                Ok(v) => assert!(
                    same_bits(&v, base.value(var)),
                    "{}/{var}: replay is not Base's value",
                    p.name
                ),
                Err(e) => panic!("{}/{var}: replay failed: {e}", p.name),
            }
        }
    }
}

/// The `hpo_reuse` pipelines at the benchmark's sizes give `Base`'s bits
/// under `LIMA`: full, multi-level and partial reuse (HLM's intercept
/// `tsmm(cbind(X, 1))` assembled from a cached `tsmm(X)`) all included.
#[test]
fn hpo_pipelines_give_base_bits_under_lima() {
    let grid = pipelines::hyperparameter_grid(4, 2, 3);
    let cases = [
        (
            pipelines::hlm(10_000, 50, 4, 20, &grid, false, 23),
            ["best", "L"],
        ),
        (pipelines::hcv(4_800, 50, 16, 4, false, 23), ["best", "L"]),
        (
            pipelines::pcalm(20_000, 30, &[4, 8, 12, 16], 23),
            ["best", "R2"],
        ),
    ];
    for (p, outputs) in cases {
        let base = run(&p, &LimaConfig::base());
        let lima = run(&p, &LimaConfig::lima());
        for var in outputs {
            assert!(
                same_bits(base.value(var), lima.value(var)),
                "{}/{var}: LIMA is not Base",
                p.name
            );
        }
        let stats = &lima.ctx.stats;
        let reused = LimaStats::get(&stats.full_hits) + LimaStats::get(&stats.multilevel_hits);
        assert!(reused > 0, "{}: nothing was reused", p.name);
    }
}
