//! Regenerates every table and figure of the LIMA evaluation (paper §5) at
//! laptop scale. Absolute numbers differ from the paper's 32-core cluster;
//! the reproduction target is the *shape*: which configuration wins, by
//! roughly what factor, and where crossovers fall.
//!
//! Usage:
//! ```text
//! figures <experiment>   one of: fig6a fig6b fig7a fig7b fig8a fig8b
//!                        fig9a fig9b fig9c fig9d fig9e fig9f
//!                        fig10a fig10b fig10c fig10d tab1 tab2 tab3 all
//! LIMA_SCALE=0.25        optional global size multiplier
//! ```

use lima_algos::pipelines::{self, Pipeline};
use lima_bench::{
    median, print_table, run_pipeline, scaled, secs, speedup, time_pipeline, Config, DEFAULT_BUDGET,
};
use std::time::Duration;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let experiments: Vec<(&str, fn())> = vec![
        ("fig6a", fig6a as fn()),
        ("fig6b", fig6b),
        ("fig7a", fig7a),
        ("fig7b", fig7b),
        ("fig8a", fig8a),
        ("fig8b", fig8b),
        ("fig9a", fig9a),
        ("fig9b", fig9b),
        ("fig9c", fig9c),
        ("fig9d", fig9d),
        ("fig9e", fig9e),
        ("fig9f", fig9f),
        ("fig10a", fig10a),
        ("fig10b", fig10b),
        ("fig10c", fig10c),
        ("fig10d", fig10d),
        ("tab1", tab1),
        ("tab2", tab2),
        ("tab3", tab3),
    ];
    match arg.as_str() {
        "all" => {
            for (name, f) in &experiments {
                eprintln!(">>> {name}");
                f();
            }
        }
        name => match experiments.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => f(),
            None => {
                eprintln!("unknown experiment '{name}'");
                eprintln!(
                    "known: {} all",
                    experiments
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        },
    }
}

fn timed(p: &Pipeline, c: Config) -> Duration {
    let cfg = c.to_config(DEFAULT_BUDGET);
    median(time_pipeline(p, &cfg, 3))
}

// ------------------------------------------------------------------- Fig 6

/// Fig 6(a): lineage tracing / probing / dedup runtime overhead per batch
/// size — one epoch of 40 element-wise ops per iteration.
fn fig6a() {
    let rows = scaled(20_000);
    let cols = 78;
    let configs = [Config::Base, Config::LT, Config::LTP, Config::LTD];
    let batches = [2usize, 8, 32, 128, 512, 2048];
    let mut rows_out = Vec::new();
    for c in configs {
        let mut cells = Vec::new();
        for b in batches {
            let p = pipelines::minibatch_micro(rows, cols, b.min(rows), 1);
            cells.push(secs(timed(&p, c)));
        }
        rows_out.push((c.label().to_string(), cells));
    }
    print_table(
        &format!("Fig 6(a): tracing runtime overhead [s] ({rows}x{cols}, 1 epoch, 40 ops/iter)"),
        &["config", "b=2", "b=8", "b=32", "b=128", "b=512", "b=2048"],
        &rows_out,
    );
}

/// Fig 6(b): lineage space overhead — items created by the whole execution
/// (traced ops + dedup items) and the estimated bytes, with and without
/// deduplication. The paper reports ~63 B per lineage item; our items are
/// slightly larger (Rust `Arc` + boxed opcode).
fn fig6b() {
    const ITEM_BYTES: usize = 120;
    let rows = scaled(20_000).min(20_000);
    let cols = 78;
    let batches = [2usize, 8, 32, 128, 512, 2048];
    let mut items: Vec<(String, Vec<String>)> = vec![
        ("LT [MB]".into(), Vec::new()),
        ("LTD [MB]".into(), Vec::new()),
        ("LT #items".into(), Vec::new()),
        ("LTD #items".into(), Vec::new()),
    ];
    for b in batches {
        let p = pipelines::minibatch_micro(rows, cols, b.min(rows), 1);
        let lt = run_pipeline(&p, &Config::LT.to_config(DEFAULT_BUDGET));
        let ltd = run_pipeline(&p, &Config::LTD.to_config(DEFAULT_BUDGET));
        let lt_items = lima_core::LimaStats::get(&lt.ctx.stats.items_traced);
        // Dedup replaces per-iteration sub-DAGs with single items; the patch
        // bodies themselves are counted via the traced items.
        let ltd_items = lima_core::LimaStats::get(&ltd.ctx.stats.items_traced)
            + lima_core::LimaStats::get(&ltd.ctx.stats.dedup_items);
        items[0].1.push(format!(
            "{:.3}",
            (lt_items as usize * ITEM_BYTES) as f64 / 1e6
        ));
        items[1].1.push(format!(
            "{:.3}",
            (ltd_items as usize * ITEM_BYTES) as f64 / 1e6
        ));
        items[2].1.push(lt_items.to_string());
        items[3].1.push(ltd_items.to_string());
    }
    print_table(
        &format!("Fig 6(b): lineage space overhead ({rows}x{cols})"),
        &["config", "b=2", "b=8", "b=32", "b=128", "b=512", "b=2048"],
        &items,
    );
}

// ------------------------------------------------------------------- Fig 7

/// Fig 7(a): partial reuse (stepLm core): Base vs LIMA vs LIMA-CA over rows.
fn fig7a() {
    let sizes = [2_000usize, 4_000, 6_000, 8_000, 10_000];
    let mut out = Vec::new();
    for (c, label) in [
        (Config::Base, "Base"),
        (Config::LimaNoCA, "LIMA"),
        (Config::Lima, "LIMA-CA"),
    ] {
        let mut cells = Vec::new();
        for n in sizes {
            let p = pipelines::steplm_core(scaled(n), 100, 60, 60, 3);
            cells.push(secs(timed(&p, c)));
        }
        out.push((label.to_string(), cells));
    }
    print_table(
        "Fig 7(a): partial reuse, tsmm(cbind(X,d)) x60 iterations [s]",
        &["config", "2K", "4K", "6K", "8K", "10K"],
        &out,
    );
}

/// Fig 7(b): multi-level reuse: repeated λ sweeps over multiLogReg.
fn fig7b() {
    let repeats = [1usize, 5, 10, 15, 20];
    let mut out = Vec::new();
    for c in [Config::Base, Config::LimaFR, Config::LimaMLR] {
        let mut cells = Vec::new();
        for r in repeats {
            let p = pipelines::mlogreg_repeat(scaled(5_000), 60, 6, 8, r, 3);
            cells.push(secs(timed(&p, c)));
        }
        out.push((c.label().to_string(), cells));
    }
    print_table(
        "Fig 7(b): multi-level reuse, repeated MLogReg HPO [s]",
        &["config", "r=1", "r=5", "r=10", "r=15", "r=20"],
        &out,
    );
}

// ------------------------------------------------------------------- Fig 8

/// Fig 8(a): eviction policies on the three-phase pipeline.
fn fig8a() {
    // Budget sized to hold all of P1's products but little more, so P2's
    // cheap adds force evictions (paper's setup).
    let mm_dim = 192usize;
    let p1 = 24usize;
    let per_iter = 2 * (mm_dim * mm_dim * 8 + 64);
    let budget = p1 * per_iter + 256 * 1024;
    let p = pipelines::eviction_phases(mm_dim, p1, 16, 48, 12);
    let mut out = Vec::new();
    for c in [
        Config::Base,
        Config::LimaLru,
        Config::LimaCostSize,
        Config::LimaInfinite,
    ] {
        let cfg = c.to_config(budget);
        let t = median(time_pipeline(&p, &cfg, 2));
        out.push((c.label().to_string(), vec![secs(t)]));
    }
    print_table(
        &format!(
            "Fig 8(a): eviction policies, 3-phase pipeline [s] (budget {}MB)",
            budget / (1 << 20)
        ),
        &["config", "time"],
        &out,
    );
}

/// Fig 8(b): eviction policies on mini-batch training and stepLm.
fn fig8b() {
    // Budgets hold most — but not all — of each pipeline's reusable set, so
    // the eviction *order* decides how much reuse survives.
    let mb_rows = scaled(16_000);
    let (mb_batch, mb_cols) = (256usize, 128usize);
    let mb = pipelines::minibatch_train(mb_rows, mb_cols, mb_batch, 6, 7);
    let sl = pipelines::steplm_full(scaled(6_000), 40, 3, 9);
    // Roughly 70% of the per-epoch reusable set (slices, Gram matrices,
    // normalized batches) fits — the eviction order decides what survives.
    let per_batch = (2 * mb_batch * mb_cols + mb_cols * mb_cols + 3 * mb_cols) * 8;
    let mb_budget = (mb_rows / mb_batch) * per_batch * 7 / 10;
    let sl_budget = 24 * 1024 * 1024;
    let mut out = Vec::new();
    for c in [
        Config::Base,
        Config::LimaLru,
        Config::LimaCostSize,
        Config::LimaDagHeight,
        Config::LimaInfinite,
    ] {
        let cfg_mb = c.to_config(mb_budget);
        let cfg_sl = c.to_config(sl_budget);
        out.push((
            c.label().to_string(),
            vec![
                secs(median(time_pipeline(&mb, &cfg_mb, 2))),
                secs(median(time_pipeline(&sl, &cfg_sl, 2))),
            ],
        ));
    }
    print_table(
        "Fig 8(b): eviction policies [s]",
        &["config", "Mini-batch", "StepLM"],
        &out,
    );
}

// ------------------------------------------------------------------- Fig 9

fn sweep(
    title: &str,
    header: &[&str],
    build: impl Fn(usize) -> Pipeline,
    xs: &[usize],
    configs: &[(Config, &str)],
) {
    let mut out = Vec::new();
    for (c, label) in configs {
        let mut cells = Vec::new();
        for &x in xs {
            let p = build(x);
            cells.push(secs(timed(&p, *c)));
        }
        out.push((label.to_string(), cells));
    }
    print_table(title, header, &out);
}

/// Fig 9(a): HL2SVM over the number of hyper-parameters.
fn fig9a() {
    sweep(
        "Fig 9(a): HL2SVM [s] (#hyper-parameters = 2 x #lambda)",
        &["config", "hp=20", "hp=60", "hp=100", "hp=140"],
        |n_hp| pipelines::hl2svm(scaled(10_000), 60, n_hp / 2, 7),
        &[20, 60, 100, 140],
        &[(Config::Base, "Base"), (Config::Lima, "LIMA")],
    );
}

/// Fig 9(b): HLM (Example 1) over rows, with and without task parallelism.
fn fig9b() {
    let grid = pipelines::hyperparameter_grid(4, 2, 3);
    let sizes = [20_000usize, 40_000, 60_000, 80_000, 100_000];
    let mut out = Vec::new();
    for (c, par, label) in [
        (Config::Base, false, "Base"),
        (Config::Base, true, "Base-P"),
        (Config::Lima, false, "LIMA"),
        (Config::Lima, true, "LIMA-P"),
    ] {
        let mut cells = Vec::new();
        for n in sizes {
            let p = pipelines::hlm(scaled(n), 50, 4, 15, &grid, par, 5);
            cells.push(secs(timed(&p, c)));
        }
        out.push((label.to_string(), cells));
    }
    print_table(
        "Fig 9(b): HLM grid search over lm [s]",
        &["config", "20K", "40K", "60K", "80K", "100K"],
        &out,
    );
}

/// Fig 9(c): HCV cross-validated lm over rows, ± task parallelism.
fn fig9c() {
    let sizes = [16_000usize, 32_000, 48_000, 64_000];
    let mut out = Vec::new();
    for (c, par, label) in [
        (Config::Base, false, "Base"),
        (Config::Base, true, "Base-P"),
        (Config::Lima, false, "LIMA"),
        (Config::Lima, true, "LIMA-P"),
    ] {
        let mut cells = Vec::new();
        for n in sizes {
            let n = scaled(n);
            let n = (n - n % 16).max(32);
            let p = pipelines::hcv(n, 40, 16, 6, par, 11);
            cells.push(secs(timed(&p, c)));
        }
        out.push((label.to_string(), cells));
    }
    print_table(
        "Fig 9(c): HCV 16-fold leave-one-out CV [s]",
        &["config", "16K", "32K", "48K", "64K"],
        &out,
    );
}

/// Fig 9(d): ENS weighted ensemble over the number of weight configurations.
fn fig9d() {
    sweep(
        "Fig 9(d): ENS weighted ensemble [s]",
        &["config", "w=1K", "w=2K", "w=3K", "w=4K", "w=5K"],
        |w| pipelines::ens(scaled(5_000), scaled(1_000), 40, 10, w, 13),
        &[1_000, 2_000, 3_000, 4_000, 5_000],
        &[(Config::Base, "Base"), (Config::Lima, "LIMA")],
    );
}

/// Fig 9(e): PCALM over rows.
fn fig9e() {
    sweep(
        "Fig 9(e): PCALM dimensionality-reduction pipeline [s]",
        &["config", "20K", "40K", "60K", "80K", "100K"],
        |n| pipelines::pcalm(scaled(n), 50, &[5, 10, 15, 20, 25, 30], 17),
        &[20_000, 40_000, 60_000, 80_000, 100_000],
        &[(Config::Base, "Base"), (Config::Lima, "LIMA")],
    );
}

/// Fig 9(f): synthetic vs real-like (APS / KDD98 stand-ins) speedups, with
/// and without pre-processing.
fn fig9f() {
    use lima_algos::datasets as ds;
    let n = scaled(8_000);
    let grid = pipelines::hyperparameter_grid(3, 2, 2);

    // Real-like datasets (pre-processed and raw variants).
    let (aps_raw_x, aps_raw_y) = ds::aps_like_raw(n, 60, 0.05, 0.02, 23);
    let (aps_x, aps_y) = ds::aps_like_preprocess(&aps_raw_x, &aps_raw_y, 0.15);
    // NaNs must go even in the "no pre-processing" variant.
    let aps_np_x = lima_matrix::frame::impute_mean(&aps_raw_x);
    let (kdd_raw_x, kdd_y) = ds::kdd98_like_raw(n, 12, 12, &[6, 4, 9], 29);
    let kdd_x = ds::kdd98_like_preprocess(&kdd_raw_x, 12, 10);
    let kdd_np_x = kdd_raw_x.clone(); // categorical codes used directly

    let speedup_of = |p: &Pipeline| {
        let base = timed(p, Config::Base);
        let lima = timed(p, Config::Lima);
        speedup(base, lima)
    };

    let mut out = Vec::new();
    {
        let (sx, sy) = ds::synthetic_classification(n, 60, 2, 31);
        let syn = pipelines::hl2svm_with(sx, sy, 4);
        let kddc = binarize_labels(&kdd_y);
        let real = pipelines::hl2svm_with(trunc_cols(&kdd_x, 60), kddc.clone(), 4);
        let realnp = pipelines::hl2svm_with(kdd_np_x.clone(), kddc, 4);
        out.push((
            "(a) HL2SVM".to_string(),
            vec![speedup_of(&syn), speedup_of(&real), speedup_of(&realnp)],
        ));
    }
    {
        let (sx, sy) = ds::synthetic_regression(n, 60, 37);
        let syn = pipelines::hlm_with(sx, sy, 2, 15, &grid, false);
        let real = pipelines::hlm_with(trunc_cols(&kdd_x, 60), kdd_y.clone(), 2, 15, &grid, false);
        let realnp = pipelines::hlm_with(kdd_np_x.clone(), kdd_y.clone(), 2, 15, &grid, false);
        out.push((
            "(b) HLM".to_string(),
            vec![speedup_of(&syn), speedup_of(&real), speedup_of(&realnp)],
        ));
    }
    {
        let (sx, sy) = ds::synthetic_regression(n, 40, 41);
        let syn = pipelines::hcv_with(sx, sy, 8, 4, false);
        let real = pipelines::hcv_with(trunc_cols(&kdd_x, 40), kdd_y.clone(), 8, 4, false);
        let realnp = pipelines::hcv_with(kdd_np_x.clone(), kdd_y.clone(), 8, 4, false);
        out.push((
            "(c) HCV".to_string(),
            vec![speedup_of(&syn), speedup_of(&real), speedup_of(&realnp)],
        ));
    }
    {
        let (sx, sy) = ds::synthetic_classification(n, 60, 2, 43);
        let syn = pipelines::ens_with(
            sx.clone(),
            sy.clone(),
            trunc_rows(&sx, n / 4),
            trunc_rows(&sy, n / 4),
            2,
            400,
            45,
        );
        let real = pipelines::ens_with(
            trunc_cols(&aps_x, 60),
            aps_y.clone(),
            trunc_rows(&trunc_cols(&aps_x, 60), n / 4),
            trunc_rows(&aps_y, n / 4),
            2,
            400,
            45,
        );
        let ax = trunc_cols(&aps_np_x, 60);
        let realnp = pipelines::ens_with(
            ax.clone(),
            aps_raw_y.clone(),
            trunc_rows(&ax, n / 4),
            trunc_rows(&aps_raw_y, n / 4),
            2,
            400,
            45,
        );
        out.push((
            "(d) ENS".to_string(),
            vec![speedup_of(&syn), speedup_of(&real), speedup_of(&realnp)],
        ));
    }
    {
        let (sx, sy) = ds::synthetic_regression(n, 40, 47);
        let syn = pipelines::pcalm_with(sx, sy, &[5, 10, 15]);
        let real = pipelines::pcalm_with(trunc_cols(&kdd_x, 40), kdd_y.clone(), &[5, 10, 15]);
        let realnp = pipelines::pcalm_with(kdd_np_x.clone(), kdd_y.clone(), &[5, 10, 15]);
        out.push((
            "(e) PCALM".to_string(),
            vec![speedup_of(&syn), speedup_of(&real), speedup_of(&realnp)],
        ));
    }
    print_table(
        "Fig 9(f): LIMA speedup, synthetic vs real-like data",
        &["pipeline", "Synthetic", "Real", "RealNP"],
        &out,
    );
}

fn binarize_labels(y: &lima_matrix::DenseMatrix) -> lima_matrix::DenseMatrix {
    let med = {
        let mut v: Vec<f64> = y.data().to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN labels"));
        v[v.len() / 2]
    };
    lima_matrix::DenseMatrix::from_fn(
        y.rows(),
        1,
        |i, _| if y.get(i, 0) > med { 2.0 } else { 1.0 },
    )
}

fn trunc_cols(x: &lima_matrix::DenseMatrix, k: usize) -> lima_matrix::DenseMatrix {
    let k = k.min(x.cols());
    lima_matrix::ops::slice(x, 0, x.rows() - 1, 0, k - 1).expect("in bounds")
}

fn trunc_rows(x: &lima_matrix::DenseMatrix, k: usize) -> lima_matrix::DenseMatrix {
    let k = k.min(x.rows()).max(1);
    lima_matrix::ops::slice(x, 0, k - 1, 0, x.cols() - 1).expect("in bounds")
}

// ------------------------------------------------------------------ Fig 10

/// Fig 10(a): Autoencoder and PCACV against the baselines.
fn fig10a() {
    let ae = pipelines::autoencoder(scaled(8_000), 64, 32, 256, 4, 3);
    let n = {
        let n = scaled(20_000);
        (n - n % 32).max(64)
    };
    let pc = pipelines::pcacv(n, 40, &[5, 10, 15, 20], 32, 6, 5);
    let mut out = Vec::new();
    for c in [Config::Base, Config::Lima, Config::Coarse, Config::CseG] {
        out.push((
            c.label().to_string(),
            vec![secs(timed(&ae, c)), secs(timed(&pc, c))],
        ));
    }
    print_table(
        "Fig 10(a): systems comparison [s] (Base~eager, CSE-G~TF-graph, Coarse~HELIX/CO)",
        &["config", "Autoencoder", "PCACV"],
        &out,
    );
}

/// Fig 10(b): PCANB on KDD98-like and APS-like data.
fn fig10b() {
    use lima_algos::datasets as ds;
    let n = scaled(8_000);
    let (kx_raw, ky) = ds::kdd98_like_raw(n, 12, 12, &[6, 4, 9], 51);
    let kx = ds::kdd98_like_preprocess(&kx_raw, 12, 10);
    let klabels = binarize_labels(&ky);
    let (ax_raw, ay_raw) = ds::aps_like_raw(n, 60, 0.05, 0.02, 53);
    let (ax, ay) = ds::aps_like_preprocess(&ax_raw, &ay_raw, 0.15);
    let kdd = pipelines::pcanb_with(nonneg(&trunc_cols(&kx, 80)), klabels, 2, &[5, 10, 15], 4);
    let aps = pipelines::pcanb_with(nonneg(&ax), ay, 2, &[5, 10, 15], 4);
    let mut out = Vec::new();
    for c in [Config::Base, Config::Lima] {
        out.push((
            c.label().to_string(),
            vec![secs(timed(&kdd, c)), secs(timed(&aps, c))],
        ));
    }
    print_table(
        "Fig 10(b): PCANB [s] (Base~SKlearn eager execution)",
        &["config", "KDD98-like", "APS-like"],
        &out,
    );
}

fn nonneg(x: &lima_matrix::DenseMatrix) -> lima_matrix::DenseMatrix {
    let min = x.data().iter().cloned().fold(f64::INFINITY, f64::min);
    lima_matrix::DenseMatrix::from_fn(x.rows(), x.cols(), |i, j| x.get(i, j) - min.min(0.0))
}

/// Fig 10(c): PCACV over rows — LIMA vs the CSE-G (TF proxy) baseline.
fn fig10c() {
    sweep(
        "Fig 10(c): PCACV over rows [s] (CSE-G~TF)",
        &["config", "12K", "24K", "36K", "48K"],
        |n| {
            let n = scaled(n);
            pipelines::pcacv((n - n % 16).max(32), 40, &[5, 10, 15], 16, 4, 7)
        },
        &[12_000, 24_000, 36_000, 48_000],
        &[(Config::CseG, "CSE-G"), (Config::Lima, "LIMA")],
    );
}

/// Fig 10(d): PCANB over rows — LIMA vs eager execution.
fn fig10d() {
    sweep(
        "Fig 10(d): PCANB over rows [s] (Base~SKlearn)",
        &["config", "12K", "24K", "36K", "48K"],
        |n| pipelines::pcanb(scaled(n), 60, 8, &[5, 10, 15], 4, 9),
        &[12_000, 24_000, 36_000, 48_000],
        &[(Config::Base, "Base"), (Config::Lima, "LIMA")],
    );
}

// ------------------------------------------------------------------ Tables

/// Table 1: eviction policies and scoring functions.
fn tab1() {
    print_table(
        "Table 1: eviction policies and scoring functions",
        &["policy", "score (argmin evicts)"],
        &[
            ("LRU".to_string(), vec!["Ta(o)/theta".to_string()]),
            ("DAG-Height".to_string(), vec!["1/h(o)".to_string()]),
            (
                "Cost&Size".to_string(),
                vec!["(rh+rm)*c(o)/s(o)".to_string()],
            ),
        ],
    );
}

/// Table 2: the ML pipeline use cases with their parameter ranges.
fn tab2() {
    print_table(
        "Table 2: ML pipeline use cases",
        &["use case", "lambda", "icpt", "tol", "K/Wt", "TP"],
        &[
            (
                "HL2SVM".to_string(),
                vec![
                    "#=70".into(),
                    "{0,1}".into(),
                    "1e-12".into(),
                    "N/A".into(),
                    "".into(),
                ],
            ),
            (
                "HLM".to_string(),
                vec![
                    "[1e-5,1e0]".into(),
                    "{0,1}".into(),
                    "[1e-12,1e-8]".into(),
                    "N/A".into(),
                    "yes".into(),
                ],
            ),
            (
                "HCV".to_string(),
                vec![
                    "[1e-5,1e0]".into(),
                    "{0}".into(),
                    "[1e-12,1e-8]".into(),
                    "N/A".into(),
                    "yes".into(),
                ],
            ),
            (
                "ENS".to_string(),
                vec![
                    "#=3".into(),
                    "{0}".into(),
                    "1e-12".into(),
                    "[1K,5K]".into(),
                    "(yes)".into(),
                ],
            ),
            (
                "PCALM".to_string(),
                vec![
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                    "K>=10%".into(),
                    "".into(),
                ],
            ),
        ],
    );
}

/// Table 3: dataset characteristics (real-like generators).
fn tab3() {
    use lima_algos::datasets as ds;
    let n = scaled(8_000);
    let (ax_raw, ay_raw) = ds::aps_like_raw(n, 60, 0.05, 0.02, 3);
    let (ax, _) = ds::aps_like_preprocess(&ax_raw, &ay_raw, 0.15);
    let (kx_raw, _) = ds::kdd98_like_raw(n, 12, 12, &[6, 4, 9], 5);
    let kx = ds::kdd98_like_preprocess(&kx_raw, 12, 10);
    print_table(
        "Table 3: dataset characteristics (scaled-down stand-ins)",
        &[
            "dataset", "nrow(X0)", "ncol(X0)", "nrow(X)", "ncol(X)", "task",
        ],
        &[
            (
                "APS-like".to_string(),
                vec![
                    ax_raw.rows().to_string(),
                    ax_raw.cols().to_string(),
                    ax.rows().to_string(),
                    ax.cols().to_string(),
                    "2-Class".into(),
                ],
            ),
            (
                "KDD98-like".to_string(),
                vec![
                    kx_raw.rows().to_string(),
                    kx_raw.cols().to_string(),
                    kx.rows().to_string(),
                    kx.cols().to_string(),
                    "Reg.".into(),
                ],
            ),
        ],
    );
    println!("(paper: APS 60,000x170 -> 70,000x170; KDD98 95,412x469 -> 95,412x7,909)");
}
