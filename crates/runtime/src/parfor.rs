//! Task-parallel `parfor` loops (paper §3.3 and §4.1).
//!
//! Iterations run on worker threads. Each worker owns a forked context —
//! worker-local symbol table and lineage map sharing the common input lineage
//! — while all workers share the thread-safe lineage cache (whose placeholder
//! entries prevent redundant computation across the first wave of
//! iterations). Results are merged back by comparing against the initial
//! value of each result variable, and result lineage is linearized with a
//! merge item over the initial value's lineage and the workers' (so a merged
//! result replays: `reconstruct` applies the same merge).
//!
//! Failure semantics: a panicking worker is isolated with `catch_unwind` and
//! surfaces as [`RuntimeError::WorkerPanic`] instead of aborting the process.
//! The first failure (by worker index, so deterministically) is propagated;
//! sibling workers observe a shared cancellation flag and stop at their next
//! iteration boundary. Unwinding drops any cache [`Reservation`]s a worker
//! held, which aborts the placeholders and wakes blocked waiters.
//!
//! [`Reservation`]: lima_core::cache::Reservation

use crate::context::ExecutionContext;
use crate::error::{Result, RuntimeError};
use crate::instr::Var;
use crate::interp::execute_blocks;
use crate::program::{Block, Program};
use lima_core::faults::FaultSite;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::opcodes::{DN, RMERGE};
use lima_core::{EventKind, LimaStats};
use lima_matrix::pool::{fork_join, panic_message};
use lima_matrix::{DenseMatrix, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_parfor(
    var: &Var,
    from: i64,
    to: i64,
    by: i64,
    body: &[Block],
    results: &[Var],
    degree: Option<usize>,
    program: &Program,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    if by == 0 {
        return Err(RuntimeError::TypeError(
            "parfor step must be nonzero".into(),
        ));
    }
    let mut iterations = Vec::new();
    let mut i = from;
    while (by > 0 && i <= to) || (by < 0 && i >= to) {
        iterations.push(i);
        i += by;
    }
    if iterations.is_empty() {
        return Ok(());
    }
    let workers = degree
        // Default worker cap: the matrix-kernel thread cap.
        .unwrap_or_else(lima_matrix::ops::kernel_threads)
        .max(1)
        .min(iterations.len());

    // Snapshot initial result values for the merge.
    let initial: Vec<Option<Value>> = results
        .iter()
        .map(|r| ctx.symtab.at(r.slot).cloned())
        .collect();

    if workers == 1 {
        // Degenerate case: serial execution in place, with the same panic
        // isolation as the threaded path.
        let n_iters = iterations.len() as u64;
        let obs = ctx.config.obs.clone().filter(|o| o.enabled());
        let obs_t0 = obs.as_ref().map(|o| o.now_ns());
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            for i in iterations {
                ctx.check_interrupt()?;
                maybe_inject_panic(ctx, i);
                ctx.symtab.put(var.slot, Value::i64(i));
                execute_blocks(body, program, ctx)?;
            }
            Ok(())
        }));
        if let (Some(o), Some(t0)) = (&obs, obs_t0) {
            o.record_span(EventKind::ParforWorker, "parfor", 0, t0, 0, n_iters);
        }
        // The loop variable does not survive the parfor (body-local scope),
        // matching the threaded path where it never enters the parent
        // context at all.
        ctx.symtab.take(var.slot);
        ctx.lineage.take(var.slot);
        return match outcome {
            Ok(r) => r,
            Err(payload) => {
                LimaStats::bump(&ctx.stats.worker_panics);
                Err(RuntimeError::WorkerPanic(panic_message(payload.as_ref())))
            }
        };
    }

    // Contiguous chunks per worker (the parfor optimizer in SystemDS would
    // choose; contiguous chunks preserve per-worker temporal locality).
    let chunk = iterations.len().div_ceil(workers);
    struct WorkerOut {
        results: Vec<(Option<Value>, Option<LinRef>)>,
        stdout: Vec<String>,
    }
    // Set by the first failing worker; siblings stop at their next iteration
    // boundary instead of computing results that will be discarded.
    let cancel = AtomicBool::new(false);
    let cancel = &cancel;
    let outs = fork_join(iterations.chunks(chunk).enumerate().map(|(w, iters)| {
        let iters = iters.to_vec();
        let mut wctx = ctx.fork_worker();
        let stats = std::sync::Arc::clone(&wctx.stats);
        move || -> Result<WorkerOut> {
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<WorkerOut> {
                let n_iters = iters.len() as u64;
                let obs = wctx.config.obs.clone().filter(|o| o.enabled());
                let obs_t0 = obs.as_ref().map(|o| o.now_ns());
                for i in iters {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    // Session cancellation/deadline stops every worker at
                    // its next iteration boundary; the error unwinds
                    // through the sibling-cancel path below.
                    wctx.check_interrupt()?;
                    maybe_inject_panic(&wctx, i);
                    wctx.symtab.put(var.slot, Value::i64(i));
                    execute_blocks(body, program, &mut wctx)?;
                }
                if let (Some(o), Some(t0)) = (&obs, obs_t0) {
                    o.record_span(EventKind::ParforWorker, "parfor", 0, t0, w as u64, n_iters);
                }
                // Every result a worker holds has lineage when tracing (an
                // input bound before the loop gets its `read` leaf), so the
                // merge item has one input per merged value.
                let tracing = wctx.tracing();
                let results = results
                    .iter()
                    .map(|r| {
                        let value = wctx.symtab.at(r.slot).cloned();
                        let lin =
                            (tracing && value.is_some()).then(|| wctx.lineage_of_slot(r.slot));
                        (value, lin)
                    })
                    .collect();
                Ok(WorkerOut {
                    results,
                    stdout: std::mem::take(&mut wctx.stdout),
                })
            }));
            match outcome {
                Ok(Ok(out)) => Ok(out),
                Ok(Err(e)) => {
                    cancel.store(true, Ordering::Relaxed);
                    Err(e)
                }
                Err(payload) => {
                    // The unwind already dropped the worker's context and
                    // with it any held cache reservations (their Drop
                    // aborts the placeholders, waking blocked waiters).
                    cancel.store(true, Ordering::Relaxed);
                    LimaStats::bump(&stats.worker_panics);
                    Err(RuntimeError::WorkerPanic(panic_message(payload.as_ref())))
                }
            }
        }
    }));

    // Propagate the first failure by worker index — deterministic regardless
    // of which worker failed first in wall-clock time.
    let mut worker_outs = Vec::with_capacity(outs.len());
    for o in outs {
        worker_outs.push(o.map_err(RuntimeError::WorkerPanic)??);
    }

    // Merge results: cells differing from the initial value win (SystemDS'
    // result-merge-with-compare); scalars take the last worker's value.
    for (idx, (rvar, init)) in results.iter().zip(&initial).enumerate() {
        let values = worker_outs.iter().filter_map(|w| w.results[idx].0.as_ref());
        let Some(merged) = merge_results(init.as_ref(), values) else {
            continue;
        };
        let mut roots = worker_outs.iter().filter_map(|w| w.results[idx].1.clone());
        let lineage = match init {
            _ if !ctx.tracing() => None,
            // Linearized merged lineage (paper §3.3: "worker results are
            // merged by taking their lineage roots"), after the lineage of
            // the value the merge compares against.
            // The data names the variable and counts the workers' inputs.
            Some(_) => {
                let roots: Vec<LinRef> = roots.collect();
                let data = format!("{} {}", rvar.name, roots.len());
                let init_lin = ctx.lineage_of_slot(rvar.slot);
                let inputs = std::iter::once(init_lin).chain(roots);
                Some(LineageItem::resolved(
                    RMERGE.into(),
                    DN,
                    Some(data.into()),
                    inputs,
                ))
            }
            // Nothing to compare against: the value is the last worker's.
            None => roots.next_back(),
        };
        if let Some(item) = lineage {
            if let Value::Matrix(m) = &merged {
                item.set_shape(m.rows(), m.cols());
            }
            ctx.lineage.put(rvar.slot, item);
        }
        ctx.symtab.put(rvar.slot, merged);
    }
    // The loop variable does not survive the parfor (body-local scope).
    ctx.symtab.take(var.slot);
    ctx.lineage.take(var.slot);
    for w in &mut worker_outs {
        ctx.stdout.append(&mut w.stdout);
    }
    Ok(())
}

/// Fault injection: panic at the start of a parfor iteration. The decision is
/// keyed by the iteration value, not a call counter, so it is independent of
/// how iterations interleave across workers.
fn maybe_inject_panic(ctx: &ExecutionContext, iteration: i64) {
    if let Some(f) = &ctx.config.faults {
        if f.should_fail_at(FaultSite::WorkerPanic, iteration.unsigned_abs()) {
            panic!("injected fault: parfor worker panic at iteration {iteration}");
        }
    }
}

/// The merged value of one result variable: `init` (its value before the
/// loop, if bound) with the workers' values folded in, in worker order. A
/// matrix worker value of `init`'s shape contributes the cells it changed;
/// anything else replaces the result. Execution and replay (`rmerge`) share
/// it, so a replayed merge has the same bits.
pub(crate) fn merge_results<'v>(
    init: Option<&Value>,
    workers: impl IntoIterator<Item = &'v Value>,
) -> Option<Value> {
    let mut merged = init.cloned();
    for val in workers {
        merged = Some(match (&merged, init, val) {
            (Some(Value::Matrix(acc)), Some(Value::Matrix(init_m)), Value::Matrix(wm))
                if acc.shape() == wm.shape() && init_m.shape() == wm.shape() =>
            {
                let mut out = acc.as_ref().clone();
                merge_noninitial(&mut out, init_m, wm);
                Value::matrix(out)
            }
            _ => val.clone(),
        });
    }
    merged
}

/// Copies every cell of `worker` that differs from `init` into `acc`.
fn merge_noninitial(acc: &mut DenseMatrix, init: &DenseMatrix, worker: &DenseMatrix) {
    let (a, i, w) = (acc.data_mut(), init.data(), worker.data());
    for k in 0..a.len() {
        if w[k] != i[k] || (w[k].is_nan() && !i[k].is_nan()) {
            a[k] = w[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_non_initial_cells() {
        let init = DenseMatrix::zeros(2, 2);
        let mut acc = init.clone();
        let w1 = DenseMatrix::new(2, 2, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let w2 = DenseMatrix::new(2, 2, vec![0.0, 0.0, 0.0, 2.0]).unwrap();
        merge_noninitial(&mut acc, &init, &w1);
        merge_noninitial(&mut acc, &init, &w2);
        assert_eq!(acc.data(), &[1.0, 0.0, 0.0, 2.0]);
    }
}
