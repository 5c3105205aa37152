//! The Optimized kernel engine: manual 4-wide f64 unrolled inner loops on
//! stable Rust.
//!
//! "Explicit SIMD" here means writing the loops in the shape the
//! auto-vectorizer and out-of-order core want — four independent accumulator
//! chains per loop body, register-blocked micro-kernels, no data-dependent
//! branches — rather than nightly intrinsics. The payoff over the Reference
//! kernels comes from (a) keeping GEMM accumulators in registers across a
//! whole k block instead of load-add-storing the output row per k step,
//! (b) giving the CPU many independent multiply-add chains to overlap (no
//! fused `mul_add` — fusing would change rounding versus Reference), and
//! (c) packing operands into cache-resident k-blocked panels so the inner
//! loops stream contiguous lines.
//!
//! **Bit-exactness contract.** Every kernel accumulates each output element
//! in a single chain over the shared dimension in ascending order — the same
//! order the Reference kernels use; `tsmm` runs one such chain per fixed row
//! block and folds the blocks in order — and the parallel partitions are
//! shared with Reference (`ops::matmult`). Zero terms that Reference skips are
//! added here as `x·0.0`, which cannot change a running sum that starts at
//! `+0.0` for finite inputs. The differential suite in
//! `tests/backend_diff.rs` asserts byte equality on randomized shapes.

use crate::dense::DenseMatrix;
use crate::error::Result;
use crate::ops::elementwise::{BinOp, UnOp};
use crate::ops::matmult::{fill_rows, gemm_parallel, gemm_tn_stream, gram_upper, run_row_panels};
use crate::ops::matmult::{mirror_upper, tsmm_block_rows, Split, PAR_FLOP_THRESHOLD};
use std::mem::MaybeUninit;

/// Micro-kernel register block: MR output rows × NR output columns live in
/// registers for the whole k loop (4×8 f64 = 8 AVX2 accumulators, leaving
/// registers for the packed-B vectors and the broadcast A values).
const MR: usize = 4;
const NR: usize = 8;

/// Optimized GEMM: the shared dimension is processed in cache-sized `kc`
/// blocks. Each block packs its slice of B into contiguous k-major column
/// panels (so the micro-kernel streams full cache lines instead of striding
/// by `n`), then a 4×8 register-blocked kernel accumulates the block into the
/// output. Accumulators *reload* from the output between blocks, so every
/// element is still one sequential ascending-k chain — the blocking changes
/// cache traffic, never associativity. Parallel over the same row panels as
/// Reference. A single column writes every cell once, so its output is not
/// zeroed first.
pub(crate) fn gemm(a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    let (m, k) = a.shape();
    let n = b.cols();
    let parallel = gemm_parallel(m, n, k);
    if n == 1 {
        return fill_rows((m, 1), parallel, split, |panel, row0| {
            gemv_panel(a, b.data(), panel, row0)
        });
    }
    let mut out = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let kc = kc_block(n, k);
    let mut k0 = 0;
    while k0 < k {
        let kb = kc.min(k - k0);
        // Pack before partitioning: workers share one read-only packed image.
        let pack = pack_b_block(b, k0, kb);
        run_row_panels(out.data_mut(), n, parallel, split, |panel, row0, rows| {
            gemm_panel(a, &pack, k0..k0 + kb, n, panel, row0, rows)
        })?;
        k0 += kb;
    }
    Ok(out)
}

/// Optimized `t(A) %*% B`: for a vector `B`, the shared stream without zero
/// skipping, which is this engine's GEMM chain over `t(A)`; for a wider `B`,
/// the transpose and the packed GEMM. On 2 x86-64 cores and `A` of 2 000–
/// 50 000 × 10–200, the stream took 19–60 % of their time for one column of
/// `B`; from two columns on they were faster or within 15 % (1.8× faster at
/// 64 columns and `A` of 100–200; only a 10-column `A` favoured the stream).
pub(crate) fn gemm_tn(a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    if b.cols() > 1 {
        return gemm(&transpose(a), b, split);
    }
    gemm_tn_stream(a, b, split, false)
}

/// Matrix–vector product for output rows `row0..row0 + out_panel.len()`. For
/// a single output column the packed micro-kernel would compute NR lanes to
/// keep one, after transposing A into its slab; here A is read in place and
/// each output element is one dot product over ascending k (Reference's
/// order), with eight rows' chains interleaved — then four, two, one for the
/// tail — so the adds of one row do not wait on each other's latency.
fn gemv_panel(a: &DenseMatrix, x: &[f64], out_panel: &mut [MaybeUninit<f64>], row0: usize) {
    let (head, tail) = gemv_rows::<8>(a, x, out_panel, row0);
    let (head, tail) = gemv_rows::<4>(a, x, tail, head);
    let (head, tail) = gemv_rows::<2>(a, x, tail, head);
    gemv_rows::<1>(a, x, tail, head);
}

/// Fills `out` in blocks of `R` rows starting at row `row0` of `a`; returns
/// the first row not covered and the cells left for a smaller block size.
fn gemv_rows<'o, const R: usize>(
    a: &DenseMatrix,
    x: &[f64],
    out: &'o mut [MaybeUninit<f64>],
    row0: usize,
) -> (usize, &'o mut [MaybeUninit<f64>]) {
    let mut i = row0;
    let mut blocks = out.chunks_exact_mut(R);
    for block in &mut blocks {
        // Same length as `x`, visibly: no bounds check per product.
        let rows: [&[f64]; R] = std::array::from_fn(|r| &a.row(i + r)[..x.len()]);
        let mut acc = [0.0f64; R];
        for (kk, &xv) in x.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += row[kk] * xv;
            }
        }
        block.write_copy_of_slice(&acc);
        i += R;
    }
    (i, blocks.into_remainder())
}

/// Shared-dimension block size: targets a packed B block of ~1MB (half the
/// typical L2) so it stays resident while every row panel streams over it,
/// rounded to the k-unroll granule.
fn kc_block(n: usize, k: usize) -> usize {
    let target = (1 << 17) / n.max(1); // f64 count for a 1MB block
    (target & !7).clamp(64, k.max(64))
}

/// Packs rows `k0..k0+kb` of `B` into `ceil(n/NR)` column panels, each laid
/// out kk-major (`panel[kk*NR + c] = B[k0 + kk, j0 + c]`). The tail panel is
/// zero-padded to NR; padded lanes are computed but never stored, so they
/// cannot perturb real output elements (each accumulator lane is
/// independent).
fn pack_b_block(b: &DenseMatrix, k0: usize, kb: usize) -> Vec<f64> {
    let n = b.cols();
    let nb = n.div_ceil(NR);
    let mut pack = vec![0.0f64; nb * kb * NR];
    let bd = b.data();
    for jb in 0..nb {
        let j0 = jb * NR;
        let w = NR.min(n - j0);
        let dst0 = jb * kb * NR;
        for kk in 0..kb {
            let src = (k0 + kk) * n + j0;
            pack[dst0 + kk * NR..dst0 + kk * NR + w].copy_from_slice(&bd[src..src + w]);
        }
    }
    pack
}

/// Computes the contribution of shared-dimension block `kblk` to `rows`
/// output rows starting at `row0` in `out_panel`, against the packed B block.
/// Accumulators start from the output values already in place (zeros for the
/// first block), so each output element remains one register-resident
/// accumulation chain over ascending `kk` — Reference's order exactly.
fn gemm_panel(
    a: &DenseMatrix,
    pack: &[f64],
    kblk: std::ops::Range<usize>,
    n: usize,
    out_panel: &mut [f64],
    row0: usize,
    rows: usize,
) {
    let (k0, kb) = (kblk.start, kblk.len());
    let nb = n.div_ceil(NR);
    let mut i = 0;
    // MR×NR register-blocked body over a kk-major packed A slab: per kk the
    // micro-kernel reads MR contiguous A values and NR contiguous B values,
    // with no bounds checks (both sides come from `chunks_exact`).
    let mut apack = vec![0.0f64; MR * kb];
    while i + MR <= rows {
        for r in 0..MR {
            let arow = &a.row(row0 + i + r)[k0..k0 + kb];
            for (kk, &v) in arow.iter().enumerate() {
                apack[kk * MR + r] = v;
            }
        }
        for jb in 0..nb {
            let j0 = jb * NR;
            let w = NR.min(n - j0);
            let bp = &pack[jb * kb * NR..(jb + 1) * kb * NR];
            let mut acc = [[0.0f64; NR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let base = (i + r) * n + j0;
                accr[..w].copy_from_slice(&out_panel[base..base + w]);
            }
            // k unrolled by 2: each accumulator lane still receives its adds
            // in ascending-kk order (the two steps run sequentially).
            let mut bit = bp.chunks_exact(2 * NR);
            let mut ait = apack.chunks_exact(2 * MR);
            for (bk2, av2) in (&mut bit).zip(&mut ait) {
                let b0: &[f64; NR] = bk2[..NR].try_into().expect("chunk half is NR");
                let b1: &[f64; NR] = bk2[NR..].try_into().expect("chunk half is NR");
                let a0: &[f64; MR] = av2[..MR].try_into().expect("chunk half is MR");
                let a1: &[f64; MR] = av2[MR..].try_into().expect("chunk half is MR");
                for (accr, &ar) in acc.iter_mut().zip(a0.iter()) {
                    for (o, &bv) in accr.iter_mut().zip(b0.iter()) {
                        *o += ar * bv;
                    }
                }
                for (accr, &ar) in acc.iter_mut().zip(a1.iter()) {
                    for (o, &bv) in accr.iter_mut().zip(b1.iter()) {
                        *o += ar * bv;
                    }
                }
            }
            for (bk, av) in bit
                .remainder()
                .chunks_exact(NR)
                .zip(ait.remainder().chunks_exact(MR))
            {
                let bk: &[f64; NR] = bk.try_into().expect("chunks_exact yields NR");
                let av: &[f64; MR] = av.try_into().expect("chunks_exact yields MR");
                for (accr, &ar) in acc.iter_mut().zip(av.iter()) {
                    for (o, &bv) in accr.iter_mut().zip(bk.iter()) {
                        *o += ar * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let base = (i + r) * n + j0;
                out_panel[base..base + w].copy_from_slice(&accr[..w]);
            }
        }
        i += MR;
    }
    // Row tail: one row at a time against the same packed panels.
    while i < rows {
        let ai = &a.row(row0 + i)[k0..k0 + kb];
        for jb in 0..nb {
            let j0 = jb * NR;
            let w = NR.min(n - j0);
            let bp = &pack[jb * kb * NR..(jb + 1) * kb * NR];
            let mut acc = [0.0f64; NR];
            let base = i * n + j0;
            acc[..w].copy_from_slice(&out_panel[base..base + w]);
            for (bk, &av) in bp.chunks_exact(NR).zip(ai) {
                let bk: &[f64; NR] = bk.try_into().expect("chunks_exact yields NR");
                for (o, &bv) in acc.iter_mut().zip(bk.iter()) {
                    *o += av * bv;
                }
            }
            out_panel[base..base + w].copy_from_slice(&acc[..w]);
        }
        i += 1;
    }
}

/// Accumulates the upper triangle of `X[lo..hi,:]ᵀ X[lo..hi,:]` into `acc`
/// four rows at a time: each output element loads and stores once per four
/// rows instead of once per row. The four terms are added left to right,
/// unfused, so every element is Reference's [`gram_upper`] chain over
/// ascending rows, bit for bit; the last `< 4` rows run that kernel itself.
pub(crate) fn gram_upper_rank4(x: &DenseMatrix, lo: usize, hi: usize, acc: &mut [f64]) {
    let n = x.cols();
    let mut r = lo;
    while r + 4 <= hi {
        let (x0, x1, x2, x3) = (x.row(r), x.row(r + 1), x.row(r + 2), x.row(r + 3));
        for i in 0..n {
            let (a0, a1, a2, a3) = (x0[i], x1[i], x2[i], x3[i]);
            let rows = x0[i..].iter().zip(&x1[i..]).zip(&x2[i..]).zip(&x3[i..]);
            for (o, (((&b0, &b1), &b2), &b3)) in acc[i * n + i..(i + 1) * n].iter_mut().zip(rows) {
                *o = *o + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3;
            }
        }
        r += 4;
    }
    gram_upper(x, r, hi, acc);
}

/// Optimized `tsmm` right side: computes `X·Xᵀ` directly as row-dot-products
/// — no transpose materialization, so peak memory stays at `m×m + m×n`
/// instead of `m×m + 2·m×n`. Each output element is Reference's sum: one
/// chain per fixed block of the shared dimension, folded in block order.
/// Threading stripes whole output rows, so the result is identical at any
/// thread count.
pub(crate) fn tsmm_right(x: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    let (m, n) = x.shape();
    let mut out = DenseMatrix::zeros(m, m);
    let parallel = m * m * n >= PAR_FLOP_THRESHOLD;
    run_row_panels(out.data_mut(), m, parallel, split, |panel, row0, rows| {
        gram_right_panel(x, panel, row0, rows)
    })?;
    mirror_upper(&mut out);
    Ok(out)
}

/// Fills rows `row0..row0+rows` of the upper triangle of `X·Xᵀ`: four
/// independent dot-product chains run against a common left row, restarted
/// from zero in each block of the shared dimension and folded in order.
fn gram_right_panel(x: &DenseMatrix, panel: &mut [f64], row0: usize, rows: usize) {
    let (m, n) = x.shape();
    let block = tsmm_block_rows(n, m);
    for ii in 0..rows {
        let i = row0 + ii;
        let ri = x.row(i);
        let orow = &mut panel[ii * m..(ii + 1) * m];
        let mut j = i;
        while j + 4 <= m {
            let r = [x.row(j), x.row(j + 1), x.row(j + 2), x.row(j + 3)];
            let mut acc = [0.0f64; 4];
            for k0 in (0..n).step_by(block) {
                let mut part = [0.0f64; 4];
                for kk in k0..(k0 + block).min(n) {
                    let v = ri[kk];
                    for (p, rc) in part.iter_mut().zip(&r) {
                        *p += v * rc[kk];
                    }
                }
                acc.iter_mut().zip(part).for_each(|(a, p)| *a += p);
            }
            orow[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        while j < m {
            let rj = x.row(j);
            let dot = |k: std::ops::Range<usize>| k.fold(0.0, |s, kk| s + ri[kk] * rj[kk]);
            orow[j] = (0..n)
                .step_by(block)
                .fold(0.0, |s, k0| s + dot(k0..(k0 + block).min(n)));
            j += 1;
        }
    }
}

/// Optimized transpose: same 32×32 tiling as Reference, but the inner copy
/// runs on raw slices (one bounds check per row segment instead of per cell).
pub(crate) fn transpose(a: &DenseMatrix) -> DenseMatrix {
    let (m, n) = a.shape();
    let mut out = DenseMatrix::zeros(n, m);
    const T: usize = 32;
    let ad = a.data();
    let od = out.data_mut();
    for jb in (0..n).step_by(T) {
        let jend = (jb + T).min(n);
        for ib in (0..m).step_by(T) {
            let iend = (ib + T).min(m);
            for j in jb..jend {
                let orow = &mut od[j * m + ib..j * m + iend];
                let mut src = ib * n + j;
                for o in orow.iter_mut() {
                    *o = ad[src];
                    src += n;
                }
            }
        }
    }
    out
}

/// 4-wide unrolled binary map over two equal-length slices.
fn bin_map(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    let n = a.len();
    let mut out = vec![0.0f64; n];
    let head = n - n % 4;
    for ((o, x), y) in out[..head]
        .chunks_exact_mut(4)
        .zip(a[..head].chunks_exact(4))
        .zip(b[..head].chunks_exact(4))
    {
        o[0] = f(x[0], y[0]);
        o[1] = f(x[1], y[1]);
        o[2] = f(x[2], y[2]);
        o[3] = f(x[3], y[3]);
    }
    for idx in head..n {
        out[idx] = f(a[idx], b[idx]);
    }
    out
}

/// 4-wide unrolled unary map.
fn un_map(a: &[f64], f: impl Fn(f64) -> f64) -> Vec<f64> {
    let n = a.len();
    let mut out = vec![0.0f64; n];
    let head = n - n % 4;
    for (o, x) in out[..head]
        .chunks_exact_mut(4)
        .zip(a[..head].chunks_exact(4))
    {
        o[0] = f(x[0]);
        o[1] = f(x[1]);
        o[2] = f(x[2]);
        o[3] = f(x[3]);
    }
    for idx in head..n {
        out[idx] = f(a[idx]);
    }
    out
}

fn with_shape(a: &DenseMatrix, data: Vec<f64>) -> DenseMatrix {
    DenseMatrix::new(a.rows(), a.cols(), data).expect("shape preserved")
}

/// Same-shape cell-wise binary. The arithmetic-heavy operators are
/// monomorphized so the unrolled loop contains no opcode dispatch; the rest
/// fall back to `BinOp::apply`, which is exactly what Reference computes.
pub(crate) fn ew_binary(op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (ad, bd) = (a.data(), b.data());
    let data = match op {
        BinOp::Add => bin_map(ad, bd, |x, y| x + y),
        BinOp::Sub => bin_map(ad, bd, |x, y| x - y),
        BinOp::Mul => bin_map(ad, bd, |x, y| x * y),
        BinOp::Div => bin_map(ad, bd, |x, y| x / y),
        op => bin_map(ad, bd, move |x, y| op.apply(x, y)),
    };
    with_shape(a, data)
}

/// Matrix ⊕ scalar with monomorphized hot operators.
pub(crate) fn ew_matrix_scalar(op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix {
    let ad = a.data();
    let data = match op {
        BinOp::Add => un_map(ad, |x| x + s),
        BinOp::Sub => un_map(ad, |x| x - s),
        BinOp::Mul => un_map(ad, |x| x * s),
        BinOp::Div => un_map(ad, |x| x / s),
        BinOp::Pow if s == 2.0 => un_map(ad, |x| x * x),
        op => un_map(ad, move |x| op.apply(x, s)),
    };
    with_shape(a, data)
}

/// Scalar ⊕ matrix with monomorphized hot operators.
pub(crate) fn ew_scalar_matrix(op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix {
    let ad = a.data();
    let data = match op {
        BinOp::Add => un_map(ad, |x| s + x),
        BinOp::Sub => un_map(ad, |x| s - x),
        BinOp::Mul => un_map(ad, |x| s * x),
        BinOp::Div => un_map(ad, |x| s / x),
        op => un_map(ad, move |x| op.apply(s, x)),
    };
    with_shape(a, data)
}

/// Cell-wise unary with monomorphized hot operators.
pub(crate) fn ew_unary(op: UnOp, a: &DenseMatrix) -> DenseMatrix {
    let ad = a.data();
    let data = match op {
        UnOp::Neg => un_map(ad, |x| -x),
        UnOp::Abs => un_map(ad, f64::abs),
        UnOp::Sqrt => un_map(ad, f64::sqrt),
        op => un_map(ad, move |x| op.apply(x)),
    };
    with_shape(a, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, BackendKind};

    fn det(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| {
            let mut h = seed ^ ((i as u64) << 32) ^ (j as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            ((h % 2001) as f64 - 1000.0) / 250.0
        })
    }

    #[test]
    fn optimized_gemm_bit_matches_reference_on_awkward_shapes() {
        let r = backend_for(BackendKind::Reference);
        let o = backend_for(BackendKind::Optimized);
        for (m, k, n) in [(1, 1, 1), (5, 7, 3), (4, 4, 4), (9, 33, 6), (2, 64, 5)] {
            let a = det(m, k, 7);
            let b = det(k, n, 13);
            assert_eq!(r.gemm(&a, &b).unwrap(), o.gemm(&a, &b).unwrap());
        }
    }

    #[test]
    fn optimized_tsmm_right_skips_transpose() {
        let x = det(30, 11, 5);
        let before = crate::backend::tsmm_right_transposes();
        let got = backend_for(BackendKind::Optimized).tsmm_right(&x).unwrap();
        assert_eq!(crate::backend::tsmm_right_transposes(), before);
        let expect = backend_for(BackendKind::Reference).tsmm_right(&x).unwrap();
        assert!(crate::backend::tsmm_right_transposes() > before);
        assert_eq!(got, expect);
    }

    /// Manual perf probe for micro-kernel tuning — not a correctness test:
    /// `cargo test -p lima-matrix --release gemm_timing_probe -- --ignored --nocapture`
    #[test]
    #[ignore = "manual perf probe, prints timings"]
    fn gemm_timing_probe() {
        use std::time::Instant;
        let n = 512;
        let a = det(n, n, 1);
        let b = det(n, n, 2);
        for (label, be) in [
            ("reference", backend_for(BackendKind::Reference)),
            ("optimized", backend_for(BackendKind::Optimized)),
        ] {
            be.gemm(&a, &b).unwrap();
            let mut best = u128::MAX;
            for _ in 0..5 {
                let t0 = Instant::now();
                be.gemm(&a, &b).unwrap();
                best = best.min(t0.elapsed().as_nanos());
            }
            println!("{label} {n}^3 best {:.2} ms", best as f64 / 1e6);
        }
    }

    #[test]
    fn unrolled_maps_handle_tails() {
        for len in [0usize, 1, 3, 4, 5, 8, 11] {
            let a = det(1, len, 3);
            let b = det(1, len, 9);
            let ref_b = backend_for(BackendKind::Reference);
            let opt_b = backend_for(BackendKind::Optimized);
            assert_eq!(
                ref_b.ew_binary(BinOp::Add, &a, &b),
                opt_b.ew_binary(BinOp::Add, &a, &b)
            );
            assert_eq!(
                ref_b.ew_unary(UnOp::Sigmoid, &a),
                opt_b.ew_unary(UnOp::Sigmoid, &a)
            );
        }
    }
}
