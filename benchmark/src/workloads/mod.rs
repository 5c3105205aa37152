//! What the four workloads share: the closed-loop driver, spanned script
//! runs, the `Base` oracle, and the mapping from program counters to
//! per-layer metric names.

pub mod hpo_reuse;
pub mod lineage_replay;
pub mod serve_zipf;
pub mod trace_dense;

use crate::gen::{Rng, Rotation};
use crate::metrics::{Metrics, PER_LAYER};
use crate::sizing::{OpCounts, ORACLE_REL_TOL, SETUP_REPEATS};
use crate::span::{durations_s, Tracer};
use crate::stats::median;
use lima_algos::pipelines::Pipeline;
use lima_core::LimaConfig;
use lima_lang::compile_script;
use lima_matrix::Value;
use lima_runtime::{execute_program, ExecutionContext};
use std::path::PathBuf;
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Perturb one oracle value after set-up: the run must then report
    /// failures (how `ci.sh` shows the oracle is live).
    pub corrupt_oracle: bool,
    /// Scratch directory for persisted caches (inside the checkout).
    pub tmp_dir: PathBuf,
}

impl RunArgs {
    pub fn op_counts(&self, full: OpCounts) -> OpCounts {
        if self.smoke {
            full.smoke()
        } else {
            full
        }
    }

    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub setup_s: f64,
    pub window: Window,
    /// Per-layer metrics (filled by the traced run).
    pub layers: Metrics,
    pub tracers: Vec<Tracer>,
}

/// The measured window of a closed-loop run.
#[derive(Debug, Default)]
pub struct Window {
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency in seconds of every op that completed correctly, per client
    /// thread, in completion order.
    pub latencies_s: Vec<Vec<f64>>,
}

/// Runs `setup` the configured number of times and keeps the last state;
/// `setup_s` is the median time.
pub fn timed_setup<S>(args: &RunArgs, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..args.setup_repeats() {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Single-threaded closed loop: the next op starts when the previous one has
/// returned. Runs until `seconds` have passed and `min_ops` ops are done.
/// `op` returns whether its outputs matched the oracle.
pub fn drive(
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer) -> bool,
) -> Window {
    let mut w = Window::default();
    let mut latencies = Vec::new();
    let start = Instant::now();
    tr.span("bench.window", |tr| {
        while start.elapsed().as_secs_f64() < seconds || (w.attempted as usize) < min_ops {
            tr.set_op(w.attempted);
            let t = Instant::now();
            let ok = tr.span("bench.op", |tr| op(w.attempted, tr));
            let lat = t.elapsed().as_secs_f64();
            w.attempted += 1;
            if ok {
                latencies.push(lat);
            } else {
                w.failed += 1;
            }
        }
    });
    w.elapsed_s = start.elapsed().as_secs_f64();
    w.latencies_s = vec![latencies];
    w
}

/// Compiles and executes a pipeline the way `run_script` does, with a span
/// around each call into a layer.
pub fn run_spanned(
    p: &Pipeline,
    cfg: &LimaConfig,
    tr: &mut Tracer,
) -> Result<ExecutionContext, String> {
    let program = tr
        .span("lang.compile", |_| compile_script(&p.script, cfg))
        .map_err(|e| format!("compile: {e}"))?;
    let mut ctx = tr.span("runtime.context", |_| {
        let mut ctx = ExecutionContext::new(cfg.clone());
        for (name, value) in &p.inputs {
            ctx.data.register(name.as_str(), value.clone());
            ctx.set(name.as_str(), value.clone());
        }
        ctx
    });
    tr.span("runtime.execute", |_| execute_program(&program, &mut ctx))
        .map_err(|e| format!("runtime: {e}"))?;
    Ok(ctx)
}

/// [`run_spanned`] without spans, returning the wall time of the whole run.
pub fn run_timed(p: &Pipeline, cfg: &LimaConfig) -> (ExecutionContext, f64) {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let t = Instant::now();
    let ctx = run_spanned(p, cfg, &mut off).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    (ctx, t.elapsed().as_secs_f64())
}

/// Expected outputs of a script: an in-process `Base` run (no lineage, no
/// cache, no service), independent of every layer the workloads load.
pub struct Oracle {
    pub expected: Vec<(String, Value)>,
}

impl Oracle {
    pub fn from_base_run(p: &Pipeline, outputs: &[&str]) -> Oracle {
        let (ctx, _) = run_timed(p, &LimaConfig::base());
        Oracle {
            expected: outputs
                .iter()
                .map(|v| (v.to_string(), ctx.symtab[*v].clone()))
                .collect(),
        }
    }

    pub fn matches(&self, got: impl Fn(&str) -> Option<Value>) -> bool {
        self.expected
            .iter()
            .all(|(var, want)| got(var).is_some_and(|v| v.approx_eq(want, ORACLE_REL_TOL)))
    }

    /// `--corrupt-oracle`: spoil the first expected value.
    pub fn corrupt(&mut self) {
        corrupt_value(&mut self.expected[0].1);
    }
}

/// Shifts a value well past the oracle tolerance.
pub fn corrupt_value(v: &mut Value) {
    *v = match &*v {
        Value::Matrix(m) => {
            let mut m = (**m).clone();
            let cell = m.get(0, 0);
            m.set(0, 0, cell * 1.001 + 1.0);
            Value::matrix(m)
        }
        other => Value::f64(other.as_f64().unwrap_or(0.0) * 1.001 + 1.0),
    };
}

/// One script with its expected outputs: what the two in-process script
/// workloads (`hpo_reuse`, `trace_dense`) run.
pub struct Spec {
    pub pipeline: Pipeline,
    pub oracle: Oracle,
}

/// One op: run the script under `cfg` with a fresh cache and check its
/// outputs. `None` when it failed or mismatched.
fn script_op(spec: &Spec, cfg: &LimaConfig, tr: &mut Tracer) -> Option<ExecutionContext> {
    let ctx = match run_spanned(&spec.pipeline, cfg, tr) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{}: op failed: {e}", spec.pipeline.name);
            return None;
        }
    };
    tr.span("bench.oracle", |_| {
        spec.oracle.matches(|var| ctx.symtab.get(var).cloned())
    })
    .then_some(ctx)
}

/// The whole run of an in-process script workload: set-up (specs, oracles,
/// warm-up), the window over a seeded rotation of the specs, and in the
/// traced run the counters of the first `counted_ops` ops plus whatever
/// `differencing` measures after the window.
pub fn run_script_workload(
    args: &RunArgs,
    full: OpCounts,
    cfg: &LimaConfig,
    build_specs: impl Fn(u64) -> Vec<Spec>,
    differencing: impl FnOnce(&mut Metrics, &[Spec], usize),
) -> Outcome {
    let counts = args.op_counts(full);
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch, 0);
    let mut off = Tracer::new(false, epoch, 0);

    let (mut specs, setup_s) = timed_setup(args, || {
        let specs = build_specs(args.seed);
        let mut warm = Rotation::new(specs.len(), Rng::new(args.seed).fork(0xA));
        for _ in 0..counts.warmup_ops {
            script_op(&specs[warm.next()], cfg, &mut off);
        }
        specs
    });
    if args.corrupt_oracle {
        specs[0].oracle.corrupt();
    }

    let mut layers = Metrics::new(PER_LAYER);
    let mut order = Rotation::new(specs.len(), Rng::new(args.seed).fork(0xB));
    let window = drive(args.seconds, counts.min_ops, &mut tr, |i, tr| {
        let ctx = script_op(&specs[order.next()], cfg, tr);
        if let (true, Some(ctx)) = (args.trace && (i as usize) < counts.counted_ops, &ctx) {
            add_counters(&mut layers, &ctx.stats.snapshot());
            let resident = ctx.cache.as_ref().map_or(0, |c| c.resident_bytes());
            let so_far = layers.get("cache.resident_mb").unwrap_or(0.0);
            layers.set("cache.resident_mb", so_far.max(resident as f64 / 1e6));
        }
        let ok = ctx.is_some();
        // Freeing a run's lineage DAG and cache is part of what the op costs.
        tr.span("runtime.context_drop", |_| drop(ctx));
        ok
    });

    if args.trace {
        set_hit_ratio(&mut layers);
        let spans = std::slice::from_ref(&tr);
        let compile = durations_s(spans, "lang.compile");
        layers.set("lang.compile_ms_p50", median(&compile) * 1e3);
        layers.set(
            "lang.compile_share",
            compile.iter().sum::<f64>() / durations_s(spans, "bench.op").iter().sum::<f64>(),
        );
        layers.set(
            "runtime.execute_ms_p50",
            median(&durations_s(spans, "runtime.execute")) * 1e3,
        );
        differencing(&mut layers, &specs, counts.paired_runs);
    }
    Outcome {
        setup_s,
        window,
        layers,
        tracers: vec![tr],
    }
}

/// What config differencing says about a workload: run times of the same
/// scripts under `Base`, `LT` and `LIMA`, and the items the `LT` runs traced.
pub fn set_config_differences(
    layers: &mut Metrics,
    base_s: &[f64],
    lt_s: &[f64],
    lima_s: &[f64],
    lt_items: u64,
) {
    let (base, lt, lima) = (median(base_s), median(lt_s), median(lima_s));
    layers.set("cache.base_median_s", base);
    layers.set("cache.speedup_vs_base", base / lima);
    layers.set("lineage.trace_overhead_s", lt - base);
    layers.set("cache.miss_path_overhead_s", lima - lt);
    layers.set(
        "runtime.base_items_per_s",
        lt_items as f64 / base_s.iter().sum::<f64>(),
    );
}

/// Program counters (`LimaStats::snapshot` names) and the per-layer metric
/// each one is reported as; `ns` counters are reported in seconds.
const COUNTERS: &[(&str, &str, f64)] = &[
    ("items_traced", "lineage.items_traced", 1.0),
    ("probes", "cache.probes", 1.0),
    ("full_hits", "cache.full_hits", 1.0),
    ("multilevel_hits", "cache.multilevel_hits", 1.0),
    ("partial_hits", "cache.partial_hits", 1.0),
    ("puts", "cache.puts", 1.0),
    ("rejected_puts", "cache.rejected_puts", 1.0),
    ("evictions", "cache.evictions", 1.0),
    ("spills", "cache.spills", 1.0),
    ("restores", "cache.restores", 1.0),
    ("saved_compute_ns", "cache.saved_compute_s", 1e-9),
    ("compensation_ns", "cache.compensation_s", 1e-9),
    ("persist_writes", "persist.writes", 1.0),
    ("persist_bytes", "persist.bytes", 1.0),
    ("persist_failures", "persist.failures", 1.0),
    ("persist_recovered", "persist.recovered", 1.0),
    ("persist_dropped", "persist.dropped", 1.0),
    ("ops_unmarked", "analysis.ops_unmarked", 1.0),
    (
        "funcs_reuse_ineligible",
        "analysis.funcs_reuse_ineligible",
        1.0,
    ),
    ("sessions_started", "runtime.sessions_started", 1.0),
    ("sessions_rejected", "runtime.sessions_rejected", 1.0),
    ("srv_requests", "limad.srv_requests", 1.0),
    ("srv_sheds", "limad.srv_sheds", 1.0),
    ("srv_quota_rejects", "limad.srv_quota_rejects", 1.0),
    ("srv_malformed", "limad.srv_malformed", 1.0),
];

/// Adds one `LimaStats` snapshot to the per-layer metrics.
pub fn add_counters(layers: &mut Metrics, snapshot: &[(&'static str, u64)]) {
    for (stat, value) in snapshot {
        if let Some((_, metric, scale)) = COUNTERS.iter().find(|(s, _, _)| s == stat) {
            layers.add(metric, *value as f64 * scale);
        }
    }
}

/// `cache.hit_ratio` from the summed counters.
pub fn set_hit_ratio(layers: &mut Metrics) {
    let get = |m: &Metrics, k| m.get(k).unwrap_or(0.0);
    let hits = get(layers, "cache.full_hits")
        + get(layers, "cache.multilevel_hits")
        + get(layers, "cache.partial_hits");
    let probes = get(layers, "cache.probes");
    if probes > 0.0 {
        layers.set("cache.hit_ratio", hits / probes);
    }
}
