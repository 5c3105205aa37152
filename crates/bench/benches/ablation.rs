//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * cache-budget sweep — how much budget the reuse benefits need,
//! * eviction-policy sweep,
//! * unmarking on/off — the compiler-assistance pollution ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lima_algos::pipelines;
use lima_bench::{run_pipeline, Config};
use lima_core::{EvictionPolicy, LimaConfig};

fn bench_budget_sweep(c: &mut Criterion) {
    let grid = pipelines::hyperparameter_grid(3, 2, 2);
    let p = pipelines::hlm(6_000, 40, 2, 12, &grid, false, 5);
    let mut g = c.benchmark_group("ablation_budget");
    g.sample_size(10);
    for budget_kb in [64usize, 1_024, 16_384, 262_144] {
        let config = Config::Lima.to_config(budget_kb * 1024);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{budget_kb}KB")),
            &budget_kb,
            |b, _| b.iter(|| run_pipeline(&p, &config)),
        );
    }
    g.finish();
}

fn bench_policy_sweep(c: &mut Criterion) {
    let p = pipelines::minibatch_train(8_000, 128, 256, 4, 7);
    let budget = (8_000 / 256) * (2 * 256 * 128 + 128 * 128 + 3 * 128) * 8 * 7 / 10;
    let mut g = c.benchmark_group("ablation_policy");
    g.sample_size(10);
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::DagHeight,
        EvictionPolicy::CostSize,
    ] {
        let config = LimaConfig {
            policy,
            compiler_assist: false,
            budget_bytes: budget,
            ..LimaConfig::lima()
        };
        g.bench_function(format!("{policy:?}"), |b| {
            b.iter(|| run_pipeline(&p, &config))
        });
    }
    g.finish();
}

fn bench_unmarking(c: &mut Criterion) {
    // The Fig-6 loop: with unmarking, loop-carried chains skip the cache.
    let p = pipelines::minibatch_micro(6_000, 78, 32, 1);
    let mut g = c.benchmark_group("ablation_unmarking");
    g.sample_size(10);
    for (label, assist) in [("unmarked", true), ("polluting", false)] {
        let config = LimaConfig {
            compiler_assist: assist,
            multilevel: false,
            ..LimaConfig::lima()
        };
        g.bench_function(label, |b| b.iter(|| run_pipeline(&p, &config)));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_budget_sweep,
    bench_policy_sweep,
    bench_unmarking
);
criterion_main!(benches);
