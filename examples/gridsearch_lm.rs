//! The paper's running example (Example 1): grid-search hyper-parameter
//! tuning of linear regression over random feature subsets, run once without
//! and once with LIMA — demonstrating the fine-grained redundancy of
//! Example 2 (irrelevant `tol` for `lmDS`, reusable `XᵀX`/`Xᵀy`, repeated
//! `cbind(X, 1)` for the intercept).
//!
//! ```text
//! cargo run --release --example gridsearch_lm
//! LIMA_TRACE_OUT=trace.json cargo run --release --example gridsearch_lm
//! ```
//!
//! With `LIMA_TRACE_OUT` set, the LIMA run records lineage-aware obs events
//! and writes a Chrome `trace_event` JSON file — load it in chrome://tracing
//! or https://ui.perfetto.dev, or validate it with `lima-lint trace`.

use lima::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 50_000;
    let d = 50;
    let (x, y) = datasets::synthetic_regression(n, d, 42);
    // reg x icpt x tol grid — tol is irrelevant for the closed-form lmDS
    // path, so 3 of every 3 tol values train "five times more models than
    // necessary" (Example 2); LIMA collapses them.
    let grid = pipelines::hyperparameter_grid(4, 2, 3);
    let pipeline = pipelines::hlm_with(x, y, 3, 15, &grid, false);
    let trace_out = std::env::var("LIMA_TRACE_OUT").ok();

    for (label, mut config) in [
        ("Base (no lineage)", LimaConfig::base()),
        ("LIMA (hybrid reuse)", LimaConfig::lima()),
    ] {
        // Trace only the LIMA run: the baseline has no lineage to attribute.
        let obs = match (&trace_out, config.tracing) {
            (Some(_), true) => {
                let o = Arc::new(Obs::new());
                config = config.with_obs(Arc::clone(&o));
                Some(o)
            }
            _ => None,
        };
        let t0 = Instant::now();
        let result =
            run_script(&pipeline.script, &config, &pipeline.input_refs()).expect("pipeline runs");
        let elapsed = t0.elapsed();
        println!(
            "{label:24} {elapsed:>10.3?}   best loss = {:.6}",
            result.value("best").as_f64().unwrap()
        );
        if config.tracing {
            println!("{}", result.ctx.stats.report());
        }
        if let (Some(o), Some(path)) = (&obs, &trace_out) {
            std::fs::write(path, o.chrome_trace()).expect("trace file writes");
            println!("trace written to {path} ({} events dropped)", o.dropped());
        }
    }
}
