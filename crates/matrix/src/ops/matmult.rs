//! Matrix multiplication kernels: GEMM, `t(A) %*% B`, transpose, and `tsmm`
//! (Xᵀ X).
//!
//! The public functions in this module are thin dispatchers: they validate
//! shapes, apply SystemDS-style dense/sparse dispatch, and then route the
//! dense work to the active [`crate::backend::KernelBackend`]. The kernel
//! bodies below are the always-available *Reference* backend; the unrolled
//! engine lives in [`crate::ops::optimized`]. Both backends share the
//! parallel scaffolding in this module (row panels, `tsmm`'s fixed row
//! blocks and their fold order), and no result depends on the thread count
//! the drivers are given.
//!
//! `tsmm` exploits the symmetry of the result the way SystemDS' dedicated
//! `tsmm` instruction does — it is the operator that dominates the `lmDS`
//! workloads in the paper's evaluation.

use crate::backend;
use crate::dense::DenseMatrix;
use crate::error::{MatrixError, Result};
use crate::pool;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Output rows below which GEMM stays single-threaded.
pub(crate) const PAR_ROW_THRESHOLD: usize = 256;
/// Minimum FLOP count (m*n*k) before a compute-bound kernel uses the pool.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 2_000_000;
/// Minimum cells a memory-bound kernel moves before it uses the pool: the
/// output of a copy (`slice`, `cbind`, ...), `A` of a matrix–vector product.
/// Below it a worker's wake-up costs more than the half it takes (measured in
/// DESIGN.md §16); every `trace_dense`, `serve_zipf` and `lineage_replay`
/// shape stays below it.
pub(crate) const PAR_CELLS: usize = 128 * 1024;
/// Cache-blocking tile edge for the k dimension.
const BLOCK_K: usize = 64;

/// Default number of worker threads for parallel kernels: the available
/// parallelism, capped at 8. No kernel's result depends on it. Resolved once
/// per process: the probe behind it reads the affinity mask and cgroup files,
/// which cost more than a small product, and every GEMM/tsmm dispatch asks.
pub fn kernel_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// Sparsity threshold below which the left operand is converted to CSR and
/// multiplied sparsely (SystemDS-style dense/sparse dispatch).
const SPARSE_DISPATCH_THRESHOLD: f64 = 0.15;
/// Minimum cell count before sparsity estimation is worth the scan.
const SPARSE_DISPATCH_MIN_CELLS: usize = 64 * 64;

/// True when `matmult` would route this left operand through the CSR kernel.
/// The sparsity read is O(1) after the first scan thanks to the cached
/// non-zero count in [`DenseMatrix`]; exposed so dispatch-parity tests can
/// compare the cached decision against a fresh scan.
pub fn uses_sparse_dispatch(a: &DenseMatrix) -> bool {
    a.len() >= SPARSE_DISPATCH_MIN_CELLS && a.sparsity() < SPARSE_DISPATCH_THRESHOLD
}

/// Matrix multiply `A (m×k) %*% B (k×n)` with dense/sparse dispatch: very
/// sparse left operands (e.g. PageRank link matrices) take a CSR kernel,
/// dense operands the active backend's GEMM.
pub fn matmult(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    matmult_split(a, b, &Split::Threads(kernel_threads()))
}

/// [`matmult`] with the dense work split as `split` says.
pub fn matmult_split(a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(MatrixError::mismatch("ba+*", a.shape(), b.shape()));
    }
    if uses_sparse_dispatch(a) {
        return crate::sparse::CsrMatrix::from_dense(a).matmult_dense(b);
    }
    backend::active().gemm_split(a, b, split)
}

/// `t(A) %*% B` for `A` (m×p) and `B` (m×n), without materialising `t(A)`:
/// the bits of `matmult(transpose(A), B)`, including its dispatch. `t(A)`
/// has `A`'s non-zero count, so a sparse `A` takes the zero-skipping stream
/// the CSR kernel's chains equal; a dense one the active backend's.
pub fn matmult_tn(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    matmult_tn_split(a, b, &Split::Threads(kernel_threads()))
}

/// [`matmult_tn`] with the dense work split as `split` says.
pub fn matmult_tn_split(a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        let lhs = (a.cols(), a.rows());
        return Err(MatrixError::mismatch("ba+*", lhs, b.shape()));
    }
    if uses_sparse_dispatch(a) {
        return gemm_tn_stream(a, b, split, true);
    }
    backend::active().gemm_tn_split(a, b, split)
}

/// Transpose, routed through the active backend.
pub fn transpose(a: &DenseMatrix) -> DenseMatrix {
    backend::active().transpose(a)
}

/// Transpose-self matrix multiply `tsmm`: computes `Xᵀ X` (left) or `X Xᵀ`
/// (right), exploiting the symmetry of the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsmmSide {
    /// `Xᵀ X` — SystemDS `tsmm ... LEFT`.
    Left,
    /// `X Xᵀ` — SystemDS `tsmm ... RIGHT`.
    Right,
}

/// `tsmm(X)`: symmetric rank-k update via the active backend. Returns a
/// `Result` because parallel kernels surface worker panics as typed errors.
pub fn tsmm(x: &DenseMatrix, side: TsmmSide) -> Result<DenseMatrix> {
    tsmm_split(x, side, &Split::Threads(kernel_threads()))
}

/// [`tsmm`] with the work split as `split` says.
pub fn tsmm_split(x: &DenseMatrix, side: TsmmSide, split: &Split) -> Result<DenseMatrix> {
    match side {
        TsmmSide::Left => backend::active().tsmm_left_split(x, split),
        TsmmSide::Right => backend::active().tsmm_right_split(x, split),
    }
}

// ---------------------------------------------------------------------------
// Shared parallel scaffolding (both backends)
// ---------------------------------------------------------------------------

/// Who runs a kernel's row panels (or `tsmm` blocks): the calling thread and
/// up to `n - 1` pool workers, each checking a stop hook (a session's cancel
/// or deadline) before each part it claims when the split is checked. A stop
/// ends the kernel with an error, the remaining parts unrun. No value
/// depends on the split.
pub enum Split<'a> {
    Threads(usize),
    Checked(usize, &'a (dyn Fn() -> bool + Sync)),
}

impl Split<'_> {
    /// Runs `f(i, &mut parts[i])` for every part, on the pool as wide as the
    /// split allows. The first panic by part order is a `WorkerPanic`.
    fn run<T: Send>(&self, parts: &mut [T], f: impl Fn(usize, &mut T) + Sync) -> Result<()> {
        let (threads, stop) = match *self {
            Split::Threads(t) => (t, None),
            Split::Checked(t, stop) => (t, Some(stop)),
        };
        let stopped = AtomicBool::new(false);
        pool::for_each_part(parts, threads, |i, part| {
            if stopped.load(Ordering::Relaxed) || stop.is_some_and(|stop| stop()) {
                stopped.store(true, Ordering::Relaxed);
            } else {
                f(i, part);
            }
        })
        .map_err(MatrixError::WorkerPanic)?;
        match stopped.into_inner() {
            true => Err(MatrixError::InvalidArgument("kernel stopped".into())),
            false => Ok(()),
        }
    }
}

/// Shared GEMM parallelization decision: whether both backends split the
/// output rows into panels (no partition changes a value). A matrix–vector
/// product is memory-bound: it goes parallel from [`PAR_CELLS`] cells of `A`.
pub(crate) fn gemm_parallel(m: usize, n: usize, k: usize) -> bool {
    m >= PAR_ROW_THRESHOLD && (m * n * k >= PAR_FLOP_THRESHOLD || n == 1 && m * k >= PAR_CELLS)
}

/// Runs `panel(out_chunk, row0, rows)` over the row panels of the `n`-column
/// row-major `out`: when `parallel`, 16 panels of whole 8-row blocks, each
/// run by the one thread of the split that claims it; else in one call.
/// Each output row is written by exactly one call, and the cut depends on
/// the shape alone, so neither the partition nor the thread count changes a
/// value.
pub(crate) fn run_row_panels<T: Send>(
    out: &mut [T],
    n: usize,
    parallel: bool,
    split: &Split,
    panel: impl Fn(&mut [T], usize, usize) + Sync,
) -> Result<()> {
    let m = out.len() / n.max(1);
    if !parallel || m == 0 {
        panel(out, 0, m);
        return Ok(());
    }
    let rows = m.div_ceil(16).next_multiple_of(8);
    let mut panels: Vec<_> = out.chunks_mut(rows * n).collect();
    split.run(&mut panels, |p, chunk| {
        panel(chunk, p * rows, chunk.len() / n)
    })
}

/// An `m×n` matrix built by [`run_row_panels`] from panels that
/// `fill(panel, row0)` writes in full: no cell is zeroed first.
pub(crate) fn fill_rows(
    (m, n): (usize, usize),
    parallel: bool,
    split: &Split,
    fill: impl Fn(&mut [MaybeUninit<f64>], usize) + Sync,
) -> Result<DenseMatrix> {
    let mut data = Vec::with_capacity(m * n);
    let cells = &mut data.spare_capacity_mut()[..m * n];
    run_row_panels(cells, n, parallel, split, |p, row0, _| fill(p, row0))?;
    // SAFETY: the driver returned `Ok`, so it handed every row of the first
    // `m·n` cells to `fill` once and every call returned, and every `fill`
    // in this crate writes all of its panel (a `write_copy_of_slice` of the
    // wrong length panics).
    unsafe { data.set_len(m * n) };
    DenseMatrix::new(m, n, data)
}

/// Rows per block of `tsmm`'s shared dimension when `X` is `m×n`: at most
/// 16 blocks, and none shorter than 256 rows or than `n`, so the partials
/// never outweigh `X`. It depends on the shape alone, never on the thread
/// count, so neither does any value `tsmm` returns.
pub fn tsmm_block_rows(m: usize, n: usize) -> usize {
    m.div_ceil(16).max(256).max(n)
}

/// A `tsmm` block kernel: `gram(x, lo, hi, acc)` accumulates the upper
/// triangle of `X[lo..hi,:]ᵀ X[lo..hi,:]` into `acc`.
pub type GramKernel = fn(&DenseMatrix, usize, usize, &mut [f64]);

/// Shared `tsmm` left-side driver. The rows of `X` are cut into blocks of
/// [`tsmm_block_rows`]; `gram` accumulates one block's upper triangle into a
/// partial that starts from zero, and the partials fold into the output in
/// block order before the upper triangle is mirrored. The split only decides
/// who computes which block, so the result is the same at any thread count;
/// both backends run this driver with their own block kernel.
pub(crate) fn tsmm_left_with(
    x: &DenseMatrix,
    split: &Split,
    gram: GramKernel,
) -> Result<DenseMatrix> {
    let (m, n) = x.shape();
    let rows = tsmm_block_rows(m, n);
    let mut partials = vec![Vec::new(); m.div_ceil(rows)];
    let partial = |b: usize, acc: &mut Vec<f64>| {
        *acc = vec![0.0f64; n * n];
        gram(x, b * rows, ((b + 1) * rows).min(m), acc);
    };
    if m * n * n >= PAR_FLOP_THRESHOLD {
        split.run(&mut partials, partial)?;
    } else {
        partials
            .iter_mut()
            .enumerate()
            .for_each(|(b, acc)| partial(b, acc));
    }
    let mut out = DenseMatrix::zeros(n, n);
    for p in &partials {
        out.data_mut().iter_mut().zip(p).for_each(|(o, v)| *o += v);
    }
    mirror_upper(&mut out);
    Ok(out)
}

/// Mirrors the upper triangle of a square matrix into the lower.
pub(crate) fn mirror_upper(out: &mut DenseMatrix) {
    let n = out.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = out.get(i, j);
            out.set(j, i, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Reference backend kernels
// ---------------------------------------------------------------------------

/// Reference GEMM: cache-blocked i-k-j loops, optionally parallel over row
/// panels.
pub(crate) fn ref_gemm(a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(m, n);
    let parallel = gemm_parallel(m, n, k);
    run_row_panels(out.data_mut(), n, parallel, split, |panel, row0, rows| {
        gemm_panel(a, b, panel, row0, rows)
    })?;
    Ok(out)
}

/// Computes `rows` rows of the product starting at `row0` into `out_panel`.
fn gemm_panel(a: &DenseMatrix, b: &DenseMatrix, out_panel: &mut [f64], row0: usize, rows: usize) {
    let k = a.cols();
    let n = b.cols();
    // i-k-j loop order with k blocking: streams through B row-major.
    #[allow(clippy::needless_range_loop)] // kk indexes both arow and b rows
    for kb in (0..k).step_by(BLOCK_K) {
        let kend = (kb + BLOCK_K).min(k);
        for i in 0..rows {
            let arow = a.row(row0 + i);
            let orow = &mut out_panel[i * n..(i + 1) * n];
            for kk in kb..kend {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(kk);
                for j in 0..n {
                    orow[j] += aik * brow[j];
                }
            }
        }
    }
}

/// `t(A) %*% B` by streaming the rows of `A`: `out[j,:] += A[i,j]·B[i,:]` in
/// ascending `i`, so each element is the one chain GEMM over `t(A)` runs
/// (the `A` value first in every product). `skip_zeros` drops the terms
/// whose `A` value is zero, as Reference GEMM and CSR do; the Optimized
/// engine adds them, as its GEMM does, and `0·inf` tells the two apart.
/// Workers own whole output rows (columns of `A`), so no bit depends on the
/// thread count.
pub(crate) fn gemm_tn_stream(
    a: &DenseMatrix,
    b: &DenseMatrix,
    split: &Split,
    skip_zeros: bool,
) -> Result<DenseMatrix> {
    let (m, p) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(p, n);
    let parallel = gemm_parallel(p, n, m);
    run_row_panels(out.data_mut(), n, parallel, split, |panel, j0, rows| {
        for i in 0..m {
            let arow = &a.row(i)[j0..j0 + rows];
            let brow = b.row(i);
            if n == 1 {
                let bi = brow[0];
                for (o, &aij) in panel.iter_mut().zip(arow) {
                    if !(skip_zeros && aij == 0.0) {
                        *o += aij * bi;
                    }
                }
                continue;
            }
            for (orow, &aij) in panel.chunks_exact_mut(n).zip(arow) {
                if skip_zeros && aij == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aij * bv;
                }
            }
        }
    })?;
    Ok(out)
}

/// Reference transpose: tiled for cache friendliness.
pub(crate) fn ref_transpose(a: &DenseMatrix) -> DenseMatrix {
    let (m, n) = a.shape();
    let mut out = DenseMatrix::zeros(n, m);
    const T: usize = 32;
    for ib in (0..m).step_by(T) {
        for jb in (0..n).step_by(T) {
            for i in ib..(ib + T).min(m) {
                for j in jb..(jb + T).min(n) {
                    out.set(j, i, a.get(i, j));
                }
            }
        }
    }
    out
}

/// Reference `tsmm` right side: materializes `Xᵀ` and reuses the left-side
/// kernel. This doubles peak memory — the Optimized backend computes `X·Xᵀ`
/// directly; the transpose counter lets tests pin that difference.
pub(crate) fn ref_tsmm_right(x: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
    backend::note_tsmm_right_transpose();
    tsmm_left_with(&ref_transpose(x), split, gram_upper)
}

/// Accumulates the upper triangle of `X[lo..hi,:]ᵀ X[lo..hi,:]` into `acc`,
/// one row at a time: each element is one chain over ascending rows. It
/// skips zero terms, which for finite inputs changes no sum, so the
/// Optimized backend's rank-4 kernel, which adds them, keeps its bits.
pub(crate) fn gram_upper(x: &DenseMatrix, lo: usize, hi: usize, acc: &mut [f64]) {
    let n = x.cols();
    for r in lo..hi {
        let row = x.row(r);
        for i in 0..n {
            let xi = row[i];
            if xi == 0.0 {
                continue;
            }
            let arow = &mut acc[i * n..(i + 1) * n];
            for j in i..n {
                arow[j] += xi * row[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn m(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::new(rows, cols, v.to_vec()).unwrap()
    }

    fn naive_mm(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn small_matmult_matches_hand_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmult(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmult_rejects_shape_mismatch() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 3, &[0.0; 6]);
        assert!(matmult(&a, &b).is_err());
    }

    #[test]
    fn blocked_matmult_matches_naive_on_odd_shapes() {
        let a = DenseMatrix::from_fn(17, 71, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = DenseMatrix::from_fn(71, 23, |i, j| ((i * 5 + j * 11) % 7) as f64 - 3.0);
        let fast = matmult(&a, &b).unwrap();
        let slow = naive_mm(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn parallel_matmult_matches_naive() {
        // Large enough to cross both parallel thresholds.
        let a = DenseMatrix::from_fn(300, 80, |i, j| ((i + 2 * j) % 17) as f64 * 0.25);
        let b = DenseMatrix::from_fn(80, 90, |i, j| ((3 * i + j) % 11) as f64 * 0.5 - 2.0);
        let fast = matmult(&a, &b).unwrap();
        let slow = naive_mm(&a, &b);
        assert!(fast.rel_eq(&slow, 1e-12));
    }

    #[test]
    fn sparse_dispatch_matches_dense_path() {
        // 2% dense 100x100 left operand crosses the dispatch threshold.
        let a = DenseMatrix::from_fn(100, 100, |i, j| {
            if (i * 100 + j) % 50 == 0 {
                (i + j) as f64 * 0.5 - 3.0
            } else {
                0.0
            }
        });
        assert!(a.sparsity() < 0.15);
        assert!(uses_sparse_dispatch(&a));
        let b = DenseMatrix::from_fn(100, 20, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let got = matmult(&a, &b).unwrap();
        let slow = naive_mm(&a, &b);
        assert!(got.rel_eq(&slow, 1e-12));
    }

    #[test]
    fn transpose_round_trips() {
        let a = DenseMatrix::from_fn(13, 37, |i, j| (i * 100 + j) as f64);
        let t = transpose(&a);
        assert_eq!(t.shape(), (37, 13));
        assert_eq!(t.get(5, 7), a.get(7, 5));
        assert!(transpose(&t).approx_eq(&a, 0.0));
    }

    #[test]
    fn tsmm_left_matches_explicit_product() {
        let x = DenseMatrix::from_fn(40, 9, |i, j| ((i * j + 3) % 5) as f64 - 2.0);
        let expect = naive_mm(&transpose(&x), &x);
        let got = tsmm(&x, TsmmSide::Left).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
        // Result must be exactly symmetric by construction.
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(got.get(i, j), got.get(j, i));
            }
        }
    }

    #[test]
    fn tsmm_right_matches_explicit_product() {
        let x = DenseMatrix::from_fn(6, 15, |i, j| (i as f64) - (j as f64) * 0.5);
        let expect = naive_mm(&x, &transpose(&x));
        let got = tsmm(&x, TsmmSide::Right).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn parallel_tsmm_matches_serial() {
        let x = DenseMatrix::from_fn(2_000, 40, |i, j| ((i * 7 + j * 13) % 19) as f64 * 0.1);
        let got = tsmm(&x, TsmmSide::Left).unwrap();
        let expect = naive_mm(&transpose(&x), &x);
        assert!(got.rel_eq(&expect, 1e-12));
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_not_abort() {
        // A panicking panel on the pooled path comes back as the first
        // MatrixError::WorkerPanic by panel order (48-row panels of 768 rows),
        // whether the caller or a worker ran it; the other panels are written.
        let mut out = DenseMatrix::zeros(768, 8);
        let r = run_row_panels(out.data_mut(), 8, true, &Split::Threads(2), |p, row0, _| {
            if row0 == 96 || row0 == 480 {
                panic!("injected kernel fault at row {row0}");
            }
            p.fill(1.0);
        });
        match r {
            Err(MatrixError::WorkerPanic(msg)) => {
                assert_eq!(msg, "injected kernel fault at row 96")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(out.data().iter().sum::<f64>(), (768.0 - 96.0) * 8.0);
        // A checked split runs its hook before each panel; once it says
        // stop, the kernel ends with an error and no further panel runs.
        let calls = AtomicUsize::new(0);
        let hook = || calls.fetch_add(1, Ordering::Relaxed) >= 3;
        let r = run_row_panels(
            out.data_mut(),
            8,
            true,
            &Split::Checked(1, &hook),
            |p, _, _| p.fill(2.0),
        );
        assert!(r.is_err());
        assert_eq!(out.data().iter().filter(|v| **v == 2.0).count(), 3 * 48 * 8);
    }

    #[test]
    fn tsmm_checked_stops_between_blocks() {
        // Large enough to take the block path the split runs.
        let x = DenseMatrix::from_fn(2_000, 40, |i, j| (i + j) as f64);
        let calls = AtomicUsize::new(0);
        let count = || {
            calls.fetch_add(1, Ordering::Relaxed);
            false
        };
        for threads in [1, 2] {
            let whole = tsmm_split(&x, TsmmSide::Left, &Split::Checked(threads, &count));
            assert_eq!(whole.unwrap(), tsmm(&x, TsmmSide::Left).unwrap());
        }
        assert_eq!(
            calls.into_inner(),
            2 * 2_000usize.div_ceil(tsmm_block_rows(2_000, 40))
        );
        let left = AtomicUsize::new(2);
        let stop = || left.fetch_sub(1, Ordering::Relaxed) == 0;
        assert!(tsmm_split(&x, TsmmSide::Left, &Split::Checked(1, &stop)).is_err());
    }

    #[test]
    fn tsmm_worker_panic_surfaces_as_typed_error() {
        // Large enough to take the parallel block path.
        let x = DenseMatrix::from_fn(2_000, 40, |i, j| (i + j) as f64);
        let gram: GramKernel = |_x, lo, _hi, _acc| {
            if lo > 0 {
                panic!("injected tsmm fault");
            }
        };
        let r = tsmm_left_with(&x, &Split::Threads(2), gram);
        match r {
            Err(MatrixError::WorkerPanic(msg)) => assert!(msg.contains("injected")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}
