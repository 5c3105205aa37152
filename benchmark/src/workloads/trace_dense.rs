//! `trace_dense`: the Fig 6a mini-batch script at a small batch size, 40
//! cell-wise ops per iteration on an 8-row slice; one op = one script run
//! under `LIMA` with a small cache budget.
//!
//! Chosen because it is instruction-dense with nothing worth reusing:
//! lineage tracing and the cache's miss path (probe, put, evict) dominate and
//! kernels are negligible. It uses the same cache as `hpo_reuse` the other
//! way round, so a hit-path gain that taxes puts shows here.

use super::{
    run_script_workload, run_timed, set_config_differences, Oracle, Outcome, RunArgs, Spec,
};
use crate::gen::Rng;
use crate::metrics::Metrics;
use crate::probe::{cache_replay, matrix_layer, observe_run, CodecCost};
use crate::sizing::TRACE_DENSE as SZ;
use crate::stats::median;
use lima_algos::pipelines;
use lima_core::{LimaConfig, LimaStats};

fn build_specs(seed: u64) -> Vec<Spec> {
    let rng = Rng::new(seed);
    (0..SZ.variants as u64)
        .map(|v| {
            let pipeline =
                pipelines::minibatch_micro(SZ.rows, SZ.cols, SZ.batch, rng.fork(v).next_u64());
            let oracle = Oracle::from_base_run(&pipeline, &["s"]);
            Spec { pipeline, oracle }
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Outcome {
    let lima = LimaConfig {
        budget_bytes: SZ.budget_bytes,
        ..LimaConfig::lima()
    };
    run_script_workload(args, SZ.ops, &lima, build_specs, |layers, specs, pairs| {
        differencing(layers, specs, &lima, pairs)
    })
}

/// The same scripts under `Base`, `LT`, `LTD` and `LIMA`, interleaved and in
/// alternating order, plus the probes that need the operations a run executes.
fn differencing(layers: &mut Metrics, specs: &[Spec], lima: &LimaConfig, pairs: usize) {
    let configs = [
        LimaConfig::base(),
        LimaConfig::tracing_only(),
        LimaConfig::tracing_dedup(),
        lima.clone(),
    ];
    let mut times: [Vec<f64>; 4] = Default::default();
    let (mut lt_items, mut ltd_items) = (0u64, 0u64);
    for i in 0..pairs {
        let p = &specs[i % specs.len()].pipeline;
        let mut order = [0, 1, 2, 3];
        if i % 2 == 1 {
            order.reverse();
        }
        for c in order {
            let (ctx, s) = run_timed(p, &configs[c]);
            times[c].push(s);
            match c {
                1 => lt_items += LimaStats::get(&ctx.stats.items_traced),
                2 => ltd_items += LimaStats::get(&ctx.stats.items_traced),
                _ => {}
            }
        }
    }
    let [base_s, lt_s, _, lima_s] = &times;
    set_config_differences(layers, base_s, lt_s, lima_s, lt_items);
    layers.set(
        "lineage.dedup_item_ratio",
        ltd_items as f64 / lt_items as f64,
    );

    let ops = observe_run(&specs[0].pipeline);
    matrix_layer(layers, &ops, median(base_s));
    cache_replay(layers, &ops, lima);
    let (lt_ctx, _) = run_timed(&specs[0].pipeline, &configs[1]);
    let mut codec = CodecCost::default();
    codec.measure(lt_ctx.lineage.get("s").expect("s is traced"));
    codec.report(layers);
    layers.set("lineage.log_bytes", codec.log_bytes as f64);
    layers.set("lineage.log_bytes_per_item", codec.bytes_per_item());
}
