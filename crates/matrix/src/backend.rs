//! Pluggable kernel backends (the ROADMAP's `Substrate`-style trait).
//!
//! One trait, interchangeable engines: [`KernelBackend`] abstracts the dense
//! compute kernels (GEMM, `tsmm`, transpose, cell-wise maps) so alternative
//! implementations can sit side by side and be differential-tested against
//! each other.
//!
//! * [`ReferenceBackend`] — the original scalar kernels; always available,
//!   the ground truth for diff tests.
//! * [`OptimizedBackend`] — manual 4-wide unrolled inner loops (explicit SIMD
//!   shape on stable Rust: independent accumulator chains the compiler lowers
//!   to vector registers), register-blocked GEMM micro-kernel, and a direct
//!   `X·Xᵀ` right-side `tsmm` that skips the transpose materialization.
//!
//! Both engines share the parallel partition and `tsmm`'s fixed row blocks
//! (see `ops::matmult`), and the Optimized engine preserves the Reference
//! per-element accumulation order, so for finite inputs the two produce
//! **bit-identical** results, and at any thread count. (Non-finite inputs can
//! differ where Reference's zero-skip drops a `0·inf`/`0·NaN` term; kernels
//! only ever see finite data from the runtime's rand/IO paths.)
//!
//! Selection is process-wide: `LIMA_BACKEND=reference|optimized` in the
//! environment seeds it on first use, and [`set_backend`] switches it.
//! Default is Optimized.

use crate::dense::DenseMatrix;
use crate::error::Result;
use crate::ops::elementwise::{BinOp, UnOp};
use crate::ops::matmult::{self, Split};
use crate::ops::{kernel_threads, optimized};
use std::sync::atomic::{AtomicU8, Ordering};

/// A dense compute engine. All entry points receive shape-validated inputs —
/// the `ops::` dispatch layer rejects mismatched operands before routing, so
/// backends only implement the arithmetic.
pub trait KernelBackend: Send + Sync {
    /// Engine name, used in bench artifacts and logs.
    fn name(&self) -> &'static str;
    /// Dense GEMM `A (m×k) · B (k×n)`, split as `split` says;
    /// `a.cols() == b.rows()` is guaranteed. No bit depends on the split.
    fn gemm_split(&self, a: &DenseMatrix, b: &DenseMatrix, split: &Split) -> Result<DenseMatrix>;
    /// `Aᵀ B` (p×n from m×p and m×n) without materialising `Aᵀ`: the bits
    /// of `gemm_split(transpose(A), B)`.
    fn gemm_tn_split(&self, a: &DenseMatrix, b: &DenseMatrix, split: &Split)
        -> Result<DenseMatrix>;
    /// The block kernel of `Xᵀ X`, which the shared driver runs.
    fn gram_kernel(&self) -> matmult::GramKernel;
    /// `Xᵀ X` (n×n from m×n), the same bits at any split.
    fn tsmm_left_split(&self, x: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
        matmult::tsmm_left_with(x, split, self.gram_kernel())
    }
    /// `X Xᵀ` (m×m from m×n), the same bits at any split.
    fn tsmm_right_split(&self, x: &DenseMatrix, split: &Split) -> Result<DenseMatrix>;
    /// [`Self::gemm_split`] on [`kernel_threads`] threads.
    fn gemm(&self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        self.gemm_split(a, b, &Split::Threads(kernel_threads()))
    }
    /// [`Self::tsmm_left_split`] on [`kernel_threads`] threads.
    fn tsmm_left(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.tsmm_left_split(x, &Split::Threads(kernel_threads()))
    }
    /// [`Self::tsmm_right_split`] on [`kernel_threads`] threads.
    fn tsmm_right(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.tsmm_right_split(x, &Split::Threads(kernel_threads()))
    }
    /// Transpose.
    fn transpose(&self, a: &DenseMatrix) -> DenseMatrix;
    /// Cell-wise binary on same-shape operands (broadcasting is resolved by
    /// the dispatch layer before reaching the backend).
    fn ew_binary(&self, op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix;
    /// Matrix ⊕ scalar.
    fn ew_matrix_scalar(&self, op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix;
    /// Scalar ⊕ matrix (non-commutative operators).
    fn ew_scalar_matrix(&self, op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix;
    /// Cell-wise unary.
    fn ew_unary(&self, op: UnOp, a: &DenseMatrix) -> DenseMatrix;
}

/// Identifies a kernel backend in config / env / bench artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Original scalar kernels; diff-test ground truth.
    Reference,
    /// Unrolled + register-blocked engine (default).
    Optimized,
}

impl BackendKind {
    /// Stable lowercase name (env var / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Optimized => "optimized",
        }
    }

    /// Parses an env/config value; accepts short aliases.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" | "scalar" => Some(BackendKind::Reference),
            "optimized" | "opt" | "simd" | "fast" => Some(BackendKind::Optimized),
            _ => None,
        }
    }
}

/// The always-available scalar engine.
pub struct ReferenceBackend;

impl KernelBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }
    fn gemm_split(&self, a: &DenseMatrix, b: &DenseMatrix, s: &Split) -> Result<DenseMatrix> {
        matmult::ref_gemm(a, b, s)
    }
    fn gemm_tn_split(&self, a: &DenseMatrix, b: &DenseMatrix, s: &Split) -> Result<DenseMatrix> {
        matmult::gemm_tn_stream(a, b, s, true)
    }
    fn gram_kernel(&self) -> matmult::GramKernel {
        matmult::gram_upper
    }
    fn tsmm_right_split(&self, x: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
        matmult::ref_tsmm_right(x, split)
    }
    fn transpose(&self, a: &DenseMatrix) -> DenseMatrix {
        matmult::ref_transpose(a)
    }
    fn ew_binary(&self, op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        crate::ops::elementwise::ref_ew_binary(op, a, b)
    }
    fn ew_matrix_scalar(&self, op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix {
        crate::ops::elementwise::ref_ew_matrix_scalar(op, a, s)
    }
    fn ew_scalar_matrix(&self, op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix {
        crate::ops::elementwise::ref_ew_scalar_matrix(op, s, a)
    }
    fn ew_unary(&self, op: UnOp, a: &DenseMatrix) -> DenseMatrix {
        crate::ops::elementwise::ref_ew_unary(op, a)
    }
}

/// The unrolled engine (see [`crate::ops::optimized`]).
pub struct OptimizedBackend;

impl KernelBackend for OptimizedBackend {
    fn name(&self) -> &'static str {
        "optimized"
    }
    fn gemm_split(&self, a: &DenseMatrix, b: &DenseMatrix, s: &Split) -> Result<DenseMatrix> {
        optimized::gemm(a, b, s)
    }
    fn gemm_tn_split(&self, a: &DenseMatrix, b: &DenseMatrix, s: &Split) -> Result<DenseMatrix> {
        optimized::gemm_tn(a, b, s)
    }
    fn gram_kernel(&self) -> matmult::GramKernel {
        optimized::gram_upper_rank4
    }
    fn tsmm_right_split(&self, x: &DenseMatrix, split: &Split) -> Result<DenseMatrix> {
        optimized::tsmm_right(x, split)
    }
    fn transpose(&self, a: &DenseMatrix) -> DenseMatrix {
        optimized::transpose(a)
    }
    fn ew_binary(&self, op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        optimized::ew_binary(op, a, b)
    }
    fn ew_matrix_scalar(&self, op: BinOp, a: &DenseMatrix, s: f64) -> DenseMatrix {
        optimized::ew_matrix_scalar(op, a, s)
    }
    fn ew_scalar_matrix(&self, op: BinOp, s: f64, a: &DenseMatrix) -> DenseMatrix {
        optimized::ew_scalar_matrix(op, s, a)
    }
    fn ew_unary(&self, op: UnOp, a: &DenseMatrix) -> DenseMatrix {
        optimized::ew_unary(op, a)
    }
}

static REFERENCE: ReferenceBackend = ReferenceBackend;
static OPTIMIZED: OptimizedBackend = OptimizedBackend;

/// 0 = unset (resolve from env on first use), 1 = Reference, 2 = Optimized.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Resolves the process-wide active backend kind, reading `LIMA_BACKEND`
/// once on first use (default: Optimized).
pub fn active_kind() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => BackendKind::Reference,
        2 => BackendKind::Optimized,
        _ => {
            let kind = std::env::var("LIMA_BACKEND")
                .ok()
                .and_then(|s| BackendKind::parse(&s))
                .unwrap_or(BackendKind::Optimized);
            set_backend(kind);
            kind
        }
    }
}

/// Sets the process-wide active backend; it overrides `LIMA_BACKEND`.
pub fn set_backend(kind: BackendKind) {
    let tag = match kind {
        BackendKind::Reference => 1,
        BackendKind::Optimized => 2,
    };
    ACTIVE.store(tag, Ordering::Relaxed);
}

/// The engine behind a kind, for explicit side-by-side use (diff tests,
/// benches).
pub fn backend_for(kind: BackendKind) -> &'static dyn KernelBackend {
    match kind {
        BackendKind::Reference => &REFERENCE,
        BackendKind::Optimized => &OPTIMIZED,
    }
}

/// The engine all `ops::` dispatchers route through.
pub fn active() -> &'static dyn KernelBackend {
    backend_for(active_kind())
}

thread_local! {
    /// Counts full-transpose materializations taken by the Reference
    /// right-side `tsmm` path on this thread. The Optimized backend computes
    /// `X·Xᵀ` directly; a test pins that it never bumps this counter.
    /// Thread-local (the bump happens on the calling thread before workers
    /// spawn) so concurrent tests cannot perturb each other's readings.
    static TSMM_RIGHT_TRANSPOSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Transpose materializations performed for right-side `tsmm` by the current
/// thread so far.
pub fn tsmm_right_transposes() -> u64 {
    TSMM_RIGHT_TRANSPOSES.with(|c| c.get())
}

pub(crate) fn note_tsmm_right_transpose() {
    TSMM_RIGHT_TRANSPOSES.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips_and_accepts_aliases() {
        assert_eq!(
            BackendKind::parse(BackendKind::Reference.name()),
            Some(BackendKind::Reference)
        );
        assert_eq!(
            BackendKind::parse(BackendKind::Optimized.name()),
            Some(BackendKind::Optimized)
        );
        assert_eq!(BackendKind::parse(" SIMD "), Some(BackendKind::Optimized));
        assert_eq!(BackendKind::parse("ref"), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("tpu"), None);
    }

    #[test]
    fn set_backend_switches_active_engine() {
        // Note: process-global; restore the default before returning so other
        // tests in this binary see the standard configuration.
        set_backend(BackendKind::Reference);
        assert_eq!(active_kind(), BackendKind::Reference);
        assert_eq!(active().name(), "reference");
        set_backend(BackendKind::Optimized);
        assert_eq!(active_kind(), BackendKind::Optimized);
        assert_eq!(active().name(), "optimized");
    }

    #[test]
    fn backends_are_reachable_by_kind() {
        assert_eq!(backend_for(BackendKind::Reference).name(), "reference");
        assert_eq!(backend_for(BackendKind::Optimized).name(), "optimized");
    }
}
