//! `hpo_reuse`: the paper's redundancy-rich hyper-parameter pipelines (HLM,
//! HCV, PCALM) on seed-varied data; one op = one pipeline under `LIMA` with a
//! fresh cache, which is what a `limac run` user pays.
//!
//! Chosen because kernels and the cache's hit path (full, multi-level and
//! partial reuse) do almost all the work while tracing, `lang` and `limad`
//! do almost none: a kernel or hit-path gain must show here, a tracing gain
//! must not.

use super::{
    run_script_workload, run_timed, set_config_differences, Oracle, Outcome, RunArgs, Spec,
};
use crate::gen::Rng;
use crate::metrics::Metrics;
use crate::probe::{cache_replay, matrix_layer, observe_run, CodecCost};
use crate::sizing::HPO_REUSE as SZ;
use lima_algos::pipelines;
use lima_core::{LimaConfig, LimaStats};

/// The distinct (pipeline, data set) pairs of one seed.
fn build_specs(seed: u64) -> Vec<Spec> {
    let rng = Rng::new(seed);
    let (g_reg, g_icpt, g_tol) = SZ.hlm_grid;
    let grid = pipelines::hyperparameter_grid(g_reg, g_icpt, g_tol);
    let mut specs = Vec::new();
    for v in 0..SZ.variants as u64 {
        let data_seed = |lane: u64| rng.fork(lane * 16 + v).next_u64();
        let built = [
            (
                pipelines::hlm(
                    SZ.hlm_rows,
                    SZ.hlm_cols,
                    SZ.hlm_feature_sets,
                    SZ.hlm_subset,
                    &grid,
                    false,
                    data_seed(1),
                ),
                ["best", "L"],
            ),
            (
                pipelines::hcv(
                    SZ.hcv_rows,
                    SZ.hcv_cols,
                    SZ.hcv_folds,
                    SZ.hcv_lambdas,
                    false,
                    data_seed(2),
                ),
                ["best", "L"],
            ),
            (
                pipelines::pcalm(SZ.pcalm_rows, SZ.pcalm_cols, &SZ.pcalm_ks, data_seed(3)),
                ["best", "R2"],
            ),
        ];
        for (pipeline, outputs) in built {
            let oracle = Oracle::from_base_run(&pipeline, &outputs);
            specs.push(Spec { pipeline, oracle });
        }
    }
    specs
}

pub fn run(args: &RunArgs) -> Outcome {
    let lima = LimaConfig::lima();
    run_script_workload(args, SZ.ops, &lima, build_specs, |layers, specs, pairs| {
        differencing(layers, specs, &lima, pairs)
    })
}

/// The paired subset: specs in rotation under `Base` and `LIMA`, alternating
/// which runs first, and under `LT`.
fn differencing(layers: &mut Metrics, specs: &[Spec], lima: &LimaConfig, pairs: usize) {
    let (mut base_s, mut lima_s, mut lt_s, mut lt_items) = (vec![], vec![], vec![], 0u64);
    let mut kernel_ops = Vec::new();
    let mut kernel_base_s = 0.0;
    let mut codec = CodecCost::default();
    for i in 0..pairs {
        let p = &specs[i % specs.len()].pipeline;
        let (b, l) = if i % 2 == 0 {
            let b = run_timed(p, &LimaConfig::base()).1;
            (b, run_timed(p, lima).1)
        } else {
            let l = run_timed(p, lima).1;
            (run_timed(p, &LimaConfig::base()).1, l)
        };
        base_s.push(b);
        lima_s.push(l);
        let (lt_ctx, lt) = run_timed(p, &LimaConfig::tracing_only());
        lt_s.push(lt);
        lt_items += LimaStats::get(&lt_ctx.stats.items_traced);
        // The first visit of each spec feeds the probes that need the
        // operations it executes.
        if i < specs.len() {
            codec.measure(lt_ctx.lineage.get("best").expect("best is traced"));
            let ops = observe_run(p);
            if i == 0 {
                cache_replay(layers, &ops, lima);
            }
            kernel_ops.extend(ops);
            kernel_base_s += b;
        }
    }
    set_config_differences(layers, &base_s, &lt_s, &lima_s, lt_items);
    matrix_layer(layers, &kernel_ops, kernel_base_s);
    codec.report(layers);
    layers.set("lineage.log_bytes", codec.log_bytes as f64);
    layers.set("lineage.log_bytes_per_item", codec.bytes_per_item());
}
