//! Differential suite: the Optimized backend must be **bit-identical** to the
//! Reference backend on every kernel, for every shape the dispatch layer can
//! hand it — including degenerate (0×N, N×0, 1×N), non-tile-multiple, and
//! highly sparse operands. Reference is the ground truth; any drift here is a
//! bug in the Optimized engine, never an acceptable rounding difference
//! (both engines accumulate each output element in the same ascending-index
//! chain, so for finite inputs the results agree to the last bit).
//!
//! Also pins the two dispatch-level guarantees that ride on the backend
//! split: `matmult` routes identically (CSR vs dense GEMM) no matter which
//! backend is active, and the Optimized right-side `tsmm` never materializes
//! a transpose (`tsmm_right_transposes` counter stays flat).

use lima_matrix::backend::{
    backend_for, set_backend, tsmm_right_transposes, BackendKind, KernelBackend,
};
use lima_matrix::ops::elementwise::{BinOp, UnOp};
use lima_matrix::ops::matmult::{matmult, matmult_tn, transpose, uses_sparse_dispatch};
use lima_matrix::DenseMatrix;
use proptest::prelude::*;

const REF: &dyn KernelBackend = &lima_matrix::backend::ReferenceBackend;
const OPT: &dyn KernelBackend = &lima_matrix::backend::OptimizedBackend;

/// Deterministic matrix with controllable density: `density` per mille of
/// cells are non-zero (0 ⇒ all-zero matrix, 1000 ⇒ fully dense). Values span
/// both signs and several magnitudes so accumulation order differences would
/// actually show up in the low bits.
fn det(rows: usize, cols: usize, seed: u64, density: u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let mut z = seed ^ (((i * cols.max(1) + j) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        if z % 1000 >= density {
            0.0
        } else {
            ((z >> 40) as f64 / (1u64 << 24) as f64) * 8.0 - 4.0
        }
    })
}

/// Bit-exact equality with a first-divergence diagnostic.
fn assert_bits_eq(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (idx, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: first bit divergence at flat index {idx}: \
             optimized {g:?} ({:#018x}) vs reference {w:?} ({:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// [`assert_bits_eq`] where any `NaN` equals any `NaN`: Rust leaves the
/// sign and payload of a `NaN` that arithmetic returns unspecified (the
/// compiler may swap the operands of a product or a sum), so only whether a
/// cell is `NaN` is part of a kernel's contract.
fn assert_bits_eq_nan(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    let canon = |m: &DenseMatrix| {
        let data = m
            .data()
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v });
        DenseMatrix::new(m.rows(), m.cols(), data.collect()).unwrap()
    };
    assert_bits_eq(&canon(got), &canon(want), what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GEMM over random shapes — degenerate dims, tile tails, and sparsity
    /// levels from all-zero through fully dense (the zero-skip in the scalar
    /// kernel must not perturb the bit pattern).
    #[test]
    fn gemm_bit_exact((m, k, n) in (0usize..33, 0usize..33, 0usize..33),
                      seed in 0u64..1_000,
                      density in prop_oneof![Just(0u64), Just(30), Just(500), Just(1000)]) {
        let a = det(m, k, seed, density);
        let b = det(k, n, seed ^ 1, density.max(500));
        let got = OPT.gemm(&a, &b).unwrap();
        let want = REF.gemm(&a, &b).unwrap();
        assert_bits_eq(&got, &want, &format!("gemm {m}x{k}x{n} density {density}"));
    }

    /// Both `tsmm` sides on small shapes, at any thread count. The only
    /// divergence left is the one every kernel shares: Reference skips zero
    /// terms, so a `0·inf` or `0·NaN` it drops the Optimized kernels add.
    /// Parallel shapes are in
    /// `parallel_kernels_agree_across_backends_and_thread_counts`.
    #[test]
    fn tsmm_bit_exact((m, n) in (0usize..33, 0usize..33),
                      seed in 0u64..1_000,
                      density in prop_oneof![Just(0u64), Just(30), Just(1000)],
                      threads in 1usize..9) {
        let x = det(m, n, seed, density);
        assert_bits_eq(
            &OPT.tsmm_left_threads(&x, threads).unwrap(),
            &REF.tsmm_left(&x).unwrap(),
            &format!("tsmm_left {m}x{n}"),
        );
        assert_bits_eq(
            &OPT.tsmm_right_threads(&x, threads).unwrap(),
            &REF.tsmm_right(&x).unwrap(),
            &format!("tsmm_right {m}x{n}"),
        );
    }

    /// `tsmm` left over row counts around its block edges (blocks of at
    /// least 256 rows, at most 16 of them) and the rank-4 kernel's row tail.
    #[test]
    fn tsmm_bit_exact_across_row_blocks(m in 250usize..4_200,
                                        n in 1usize..9,
                                        seed in 0u64..1_000,
                                        density in prop_oneof![Just(30u64), Just(1000)]) {
        let x = det(m, n, seed, density);
        assert_bits_eq(
            &OPT.tsmm_left(&x).unwrap(),
            &REF.tsmm_left(&x).unwrap(),
            &format!("tsmm_left {m}x{n}"),
        );
    }

    /// Transpose, including single-row/column and empty shapes.
    #[test]
    fn transpose_bit_exact((m, n) in (0usize..70, 0usize..70), seed in 0u64..1_000) {
        let x = det(m, n, seed, 900);
        assert_bits_eq(&OPT.transpose(&x), &REF.transpose(&x), &format!("transpose {m}x{n}"));
    }

    /// Every element-wise entry point, every operator.
    #[test]
    fn elementwise_bit_exact((m, n) in (0usize..20, 0usize..20),
                             seed in 0u64..1_000,
                             s in -4.0f64..4.0) {
        let a = det(m, n, seed, 800);
        let b = det(m, n, seed ^ 2, 800);
        for op in [
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow,
            BinOp::Min, BinOp::Max, BinOp::Eq, BinOp::Neq, BinOp::Lt,
            BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::And, BinOp::Or,
        ] {
            assert_bits_eq(
                &OPT.ew_binary(op, &a, &b),
                &REF.ew_binary(op, &a, &b),
                &format!("ew_binary {op:?} {m}x{n}"),
            );
            assert_bits_eq(
                &OPT.ew_matrix_scalar(op, &a, s),
                &REF.ew_matrix_scalar(op, &a, s),
                &format!("ew_matrix_scalar {op:?}"),
            );
            assert_bits_eq(
                &OPT.ew_scalar_matrix(op, s, &a),
                &REF.ew_scalar_matrix(op, s, &a),
                &format!("ew_scalar_matrix {op:?}"),
            );
        }
        // `X^2` takes its own arm in the Optimized matrix-scalar map.
        assert_bits_eq(
            &OPT.ew_matrix_scalar(BinOp::Pow, &a, 2.0),
            &REF.ew_matrix_scalar(BinOp::Pow, &a, 2.0),
            "ew_matrix_scalar Pow 2",
        );
        assert_bits_eq(
            &OPT.ew_matrix_scalar(BinOp::Pow, &a, 2.0),
            &OPT.ew_binary(BinOp::Mul, &a, &a),
            "X^2 = X*X",
        );
        for op in [
            UnOp::Neg, UnOp::Abs, UnOp::Exp, UnOp::Log, UnOp::Sqrt,
            UnOp::Round, UnOp::Floor, UnOp::Ceil, UnOp::Sign,
            UnOp::Sigmoid, UnOp::Not,
        ] {
            assert_bits_eq(
                &OPT.ew_unary(op, &a),
                &REF.ew_unary(op, &a),
                &format!("ew_unary {op:?} {m}x{n}"),
            );
        }
    }
}

/// Non-tile-multiple shapes around the GEMM register-block boundaries
/// (MR = 4 rows, NR = 8 columns, k unrolled by 2): every combination of
/// block-aligned, one-over, and one-under must agree bit-for-bit.
#[test]
fn gemm_bit_exact_on_tile_boundary_shapes() {
    for &m in &[1usize, 3, 4, 5, 8, 9] {
        for &k in &[1usize, 2, 3, 16, 17] {
            for &n in &[1usize, 7, 8, 9, 16, 17, 24] {
                let a = det(m, k, 42, 1000);
                let b = det(k, n, 43, 1000);
                assert_bits_eq(
                    &OPT.gemm(&a, &b).unwrap(),
                    &REF.gemm(&a, &b).unwrap(),
                    &format!("gemm tile-boundary {m}x{k}x{n}"),
                );
            }
        }
    }
}

/// Matrix–vector (`m×k · k×1`) takes the Optimized engine's unpacked path
/// and vector–matrix (`1×k · k×n`) its single-row tail: both around the
/// 8-row interleave and the 4/8-wide tile edges, with operands from all-zero
/// through dense (Reference skips zero terms, Optimized adds them).
#[test]
fn gemm_bit_exact_on_vector_shapes() {
    let dims = [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67];
    for &m in &dims {
        for &k in &[1usize, 2, 3, 5, 8, 13, 64, 67] {
            for density in [0u64, 30, 500, 1000] {
                let a = det(m, k, 51, density);
                let x = det(k, 1, 52, density.max(500));
                assert_bits_eq(
                    &OPT.gemm(&a, &x).unwrap(),
                    &REF.gemm(&a, &x).unwrap(),
                    &format!("gemm {m}x{k} . {k}x1 density {density}"),
                );
                let row = det(1, k, 53, density);
                let b = det(k, m, 54, density.max(500));
                assert_bits_eq(
                    &OPT.gemm(&row, &b).unwrap(),
                    &REF.gemm(&row, &b).unwrap(),
                    &format!("gemm 1x{k} . {k}x{m} density {density}"),
                );
            }
        }
    }
    // Degenerate: no shared dimension, no rows.
    for (m, k) in [(5usize, 0usize), (0, 5), (0, 0)] {
        let (a, x) = (det(m, k, 1, 1000), det(k, 1, 2, 1000));
        assert_bits_eq(
            &OPT.gemm(&a, &x).unwrap(),
            &REF.gemm(&a, &x).unwrap(),
            &format!("gemm {m}x{k} . {k}x1"),
        );
    }
}

/// Above the parallel-GEMM threshold both backends split work across row
/// panels; the join order is shared, so parity must still be bit-exact.
#[test]
fn gemm_bit_exact_above_parallel_threshold() {
    let (m, k, n) = (160, 160, 160); // 160³ > PAR_FLOP_THRESHOLD
    let a = det(m, k, 7, 900);
    let b = det(k, n, 8, 900);
    assert_bits_eq(
        &OPT.gemm(&a, &b).unwrap(),
        &REF.gemm(&a, &b).unwrap(),
        "gemm parallel 160x160x160",
    );
    // Matrix–vector above the threshold: row panels of the unpacked path.
    let (a, x) = (det(8_200, 256, 9, 900), det(256, 1, 10, 1000));
    assert_bits_eq(
        &OPT.gemm(&a, &x).unwrap(),
        &REF.gemm(&a, &x).unwrap(),
        "gemm parallel 8200x256 . 256x1",
    );
}

/// A value depends on its operands only, never on the host's core count:
/// on shapes that cross the parallel thresholds, GEMM and both `tsmm` sides
/// give Reference's single-threaded bits on both engines at 1, 2, 3 and 8
/// threads. `tsmm` sums fixed row blocks whose size depends on the row count
/// alone; the right side runs on the transposes, whose shared dimension is
/// the long one.
#[test]
fn parallel_kernels_agree_across_backends_and_thread_counts() {
    for (m, n) in [(8_200, 256), (20_000, 30), (4_500, 51)] {
        let x = det(m, n, m as u64, 1000);
        let xt = REF.transpose(&x);
        let w = det(n, 16, 3, 1000);
        let run = |name: &str, be: &dyn KernelBackend, threads: usize| match name {
            "tsmm_left" => be.tsmm_left_threads(&x, threads).unwrap(),
            "tsmm_right" => be.tsmm_right_threads(&xt, threads).unwrap(),
            _ => be.gemm_threads(&x, &w, threads).unwrap(),
        };
        for name in ["tsmm_left", "tsmm_right", "gemm"] {
            let want = run(name, REF, 1);
            for threads in [1, 2, 3, 8] {
                for (engine, be) in [("reference", REF), ("optimized", OPT)] {
                    let what = format!("{name} {m}x{n} {engine} at {threads} threads");
                    assert_bits_eq(&run(name, be, threads), &want, &what);
                }
            }
        }
    }
}

/// Plants `NaN`, `±inf` and `-0.0` in a few cells of `m`, `salt` choosing
/// which: the values a zero-skip changes (`0·inf`, `0·NaN`) and the one a
/// sum's starting `+0.0` absorbs.
fn with_specials(mut m: DenseMatrix, salt: usize) -> DenseMatrix {
    let (rows, cols) = m.shape();
    if rows == 0 || cols == 0 {
        return m;
    }
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for (k, v) in specials.into_iter().enumerate() {
        let cell = (salt + k * 7919) % (rows * cols);
        m.set(cell / cols, cell % cols, v);
    }
    m
}

/// `t(A) %*% B` without materialising `t(A)` has the bits of `transpose` +
/// `gemm` on each engine, at 1, 2, 3 and 8 threads: for `B` one, two and 64
/// columns wide (the Optimized engine streams a vector and runs its GEMM
/// otherwise), on shapes below and above the parallel threshold, from an
/// all-zero `A` through a dense one, with `NaN`, `±inf` and `-0.0` cells in
/// either operand (a `NaN` cell must come out `NaN`, whatever its sign).
/// The zero terms Reference skips the Optimized engine adds, in both forms
/// alike.
#[test]
fn gemm_tn_is_transpose_then_gemm_on_both_engines() {
    for (m, p) in [(37usize, 11usize), (300, 260), (8_000, 260), (5, 0), (0, 4)] {
        for n in [1usize, 2, 64] {
            if m * p * n > 5_000_000 {
                continue;
            }
            for density in [0u64, 30, 1000] {
                for specials in [false, true] {
                    let (mut a, mut b) = (det(m, p, 61, density), det(m, n, 62, 1000));
                    if specials {
                        a = with_specials(a, m + n);
                        b = with_specials(b, 3 * m);
                    }
                    for (engine, be) in [("reference", REF), ("optimized", OPT)] {
                        let want = be.gemm_threads(&be.transpose(&a), &b, 1).unwrap();
                        for threads in [1, 2, 3, 8] {
                            let what = format!(
                                "t(A) %*% B, A {m}x{p}, B {m}x{n}, density {density}, \
                                 specials {specials}, {engine} at {threads} threads"
                            );
                            let got = be.gemm_tn_threads(&a, &b, threads).unwrap();
                            assert_bits_eq_nan(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}

/// `matmult_tn` takes the route `matmult(t(A), B)` takes: `t(A)` has `A`'s
/// cached non-zero count, and a left operand below the 0.15 density
/// threshold goes the zero-skipping way of the CSR kernel on either engine,
/// so `0·inf` terms are dropped on both sides.
#[test]
fn matmult_tn_takes_the_sparse_dispatch_of_the_transpose() {
    for (m, p, n) in [(70usize, 70usize, 1usize), (90, 64, 2), (128, 40, 64)] {
        let a = with_specials(det(m, p, 71, 20), 5);
        assert!(uses_sparse_dispatch(&a) && uses_sparse_dispatch(&transpose(&a)));
        let b = with_specials(det(m, n, 72, 1000), 11);
        let want = matmult(&transpose(&a), &b).unwrap();
        let what = format!("sparse t(A) %*% B, A {m}x{p}, B {m}x{n}");
        assert_bits_eq_nan(&matmult_tn(&a, &b).unwrap(), &want, &what);
    }
    let (a, b) = (det(9, 4, 73, 1000), det(8, 2, 74, 1000));
    assert!(matmult_tn(&a, &b).is_err(), "row counts must agree");
}

/// The default worker count is resolved once per process: every call, on
/// every thread, sees the same value, within the cap.
#[test]
fn kernel_threads_is_stable_across_calls_and_threads() {
    use lima_matrix::ops::kernel_threads;
    let first = kernel_threads();
    assert!((1..=8).contains(&first));
    assert_eq!(kernel_threads(), first);
    let seen: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(kernel_threads)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(seen, vec![first; 4]);
}

/// `matmult` dispatch parity: the CSR-vs-dense routing decision comes from
/// the *cached* non-zero count and is backend-independent, so switching the
/// active backend must not change results — sparse operands take the same
/// CSR kernel either way, dense operands take bit-identical GEMMs.
#[test]
fn dispatch_parity_across_backends() {
    // Highly sparse left operand (≥64×64 cells, ~2% density) → CSR route.
    let sparse_a = det(70, 70, 11, 20);
    assert!(
        uses_sparse_dispatch(&sparse_a),
        "sparse operand must route to CSR"
    );
    assert!(
        sparse_a.nnz_is_cached(),
        "from_fn must leave the nnz cache warm"
    );
    // Dense operand → backend GEMM route.
    let dense_a = det(70, 70, 12, 1000);
    assert!(!uses_sparse_dispatch(&dense_a));
    let b = det(70, 70, 13, 1000);

    let run = |kind: BackendKind| {
        set_backend(kind);
        let s = matmult(&sparse_a, &b).unwrap();
        let d = matmult(&dense_a, &b).unwrap();
        set_backend(BackendKind::Optimized); // restore process default
        (s, d)
    };
    let (s_ref, d_ref) = run(BackendKind::Reference);
    let (s_opt, d_opt) = run(BackendKind::Optimized);
    assert_bits_eq(&s_opt, &s_ref, "matmult sparse route");
    assert_bits_eq(&d_opt, &d_ref, "matmult dense route");

    // The decision itself must match a fresh scan (cached nnz is not stale).
    let rescanned = sparse_a.data().iter().filter(|v| **v != 0.0).count();
    assert_eq!(
        sparse_a.nnz(),
        rescanned,
        "cached nnz diverged from fresh scan"
    );
}

/// The Optimized right-side `tsmm` computes `X·Xᵀ` directly; the Reference
/// path materializes `Xᵀ` first. Pin both behaviors via the thread-local
/// transpose counter.
#[test]
fn optimized_tsmm_right_never_materializes_transpose() {
    let x = det(48, 36, 21, 1000);
    let before = tsmm_right_transposes();
    let direct = backend_for(BackendKind::Optimized).tsmm_right(&x).unwrap();
    assert_eq!(
        tsmm_right_transposes(),
        before,
        "Optimized tsmm_right must not materialize a transpose"
    );
    let via_ref = backend_for(BackendKind::Reference).tsmm_right(&x).unwrap();
    assert!(
        tsmm_right_transposes() > before,
        "Reference tsmm_right is expected to materialize the transpose"
    );
    assert_bits_eq(&direct, &via_ref, "tsmm_right 48x36");
}
