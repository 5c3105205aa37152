//! Criterion benches of cache-internal behaviour under memory pressure:
//! the Fig 8(a) phase pipeline per eviction policy, plus raw probe/put/evict
//! throughput of the lineage cache.

use criterion::{criterion_group, criterion_main, Criterion};
use lima_algos::pipelines;
use lima_bench::{run_pipeline, Config};
use lima_core::cache::Probe;
use lima_core::lineage::item::LineageItem;
use lima_core::{LimaConfig, LineageCache};
use lima_matrix::{DenseMatrix, Value};

fn bench_fig8a_policies(c: &mut Criterion) {
    let p = pipelines::eviction_phases(96, 12, 8, 24, 6);
    let budget = 12 * 2 * (96 * 96 * 8 + 64) + 128 * 1024;
    let mut g = c.benchmark_group("fig8a_policies");
    g.sample_size(10);
    for cfg in [
        Config::Base,
        Config::LimaLru,
        Config::LimaCostSize,
        Config::LimaInfinite,
    ] {
        let config = cfg.to_config(budget);
        g.bench_function(cfg.label(), |b| b.iter(|| run_pipeline(&p, &config)));
    }
    g.finish();
}

fn bench_cache_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_throughput");
    g.sample_size(10);
    // Probe-hit throughput.
    let cache = LineageCache::new(LimaConfig::default());
    let item = LineageItem::op("ba+*", vec![LineageItem::op_with_data("read", "X", vec![])]);
    match cache.acquire(&item).expect("cacheable") {
        Probe::Reserved(r) => r.fulfill(&Value::matrix(DenseMatrix::zeros(32, 32)), 1_000),
        Probe::Hit(_) => unreachable!("fresh cache"),
    }
    g.bench_function("probe_hit", |b| {
        b.iter(|| match cache.acquire(&item).expect("cacheable") {
            Probe::Hit(v) => v,
            Probe::Reserved(_) => panic!("expected hit"),
        })
    });
    // Put + evict churn under a tight budget.
    g.bench_function("put_evict_churn_100", |b| {
        b.iter(|| {
            let cache = LineageCache::new(LimaConfig {
                budget_bytes: 200_000,
                spill: false,
                ..LimaConfig::default()
            });
            for i in 0..100 {
                let item = LineageItem::op(
                    "ba+*",
                    vec![LineageItem::op_with_data("read", format!("X{i}"), vec![])],
                );
                match cache.acquire(&item).expect("cacheable") {
                    Probe::Reserved(r) => {
                        r.fulfill(&Value::matrix(DenseMatrix::zeros(50, 50)), 1_000)
                    }
                    Probe::Hit(_) => {}
                }
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fig8a_policies, bench_cache_throughput);
criterion_main!(benches);
