//! Allocation budget of the per-instruction LIMA path (paper §3.1:
//! "negligible tracing overhead"). A counting global allocator runs
//! `minibatch_micro(64, 12, 8, _)` under `Base`, `LT` and `LIMA` and bounds
//! what an instruction costs under `Base`, what tracing adds per traced item
//! and what the cache adds per probe. The counts are printed, so a
//! regression names itself:
//! `cargo test -p lima-runtime --test alloc_budget -- --nocapture`.
//!
//! One test function only: the counter is process-wide, and a second test
//! running on another thread would be counted too.

use lima_algos::pipelines;
use lima_core::{LimaConfig, LimaStats};
use lima_lang::compile_script;
use lima_runtime::{execute_program, ExecutionContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) of one execution of `p` under `cfg` —
/// compilation and context set-up excluded, dropping the context included —
/// with the items it traced and the probes it made.
fn count(p: &pipelines::Pipeline, cfg: &LimaConfig) -> (u64, u64, u64) {
    let program = compile_script(&p.script, cfg).expect("script compiles");
    let mut ctx = ExecutionContext::new(cfg.clone());
    for (name, value) in &p.inputs {
        ctx.data.register(name.as_str(), value.clone());
        ctx.set(name.as_str(), value.clone());
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    execute_program(&program, &mut ctx).expect("script runs");
    let items = LimaStats::get(&ctx.stats.items_traced);
    let probes = LimaStats::get(&ctx.stats.probes);
    drop(ctx);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, items, probes)
}

#[test]
fn tracing_and_probing_stay_inside_their_allocation_budget() {
    let p = pipelines::minibatch_micro(64, 12, 8, 11);
    // Once unmeasured: lazily built process-wide tables (opcode index,
    // kernel backend) are charged to nobody.
    count(&p, &LimaConfig::lima());
    let (base, _, _) = count(&p, &LimaConfig::base());
    let (lt, items, _) = count(&p, &LimaConfig::tracing_only());
    let (lima, _, probes) = count(&p, &LimaConfig::lima());
    let per_item = (lt as f64 - base as f64) / items as f64;
    let per_probe = (lima as f64 - lt as f64) / probes as f64;
    // Every instruction that traces an item under `LT` runs under `Base`
    // too: the items count the instructions that compute something.
    let per_instr = base as f64 / items as f64;
    println!(
        "allocations: Base {base}, LT {lt}, LIMA {lima}; {items} items traced, {probes} probes; \
         Base = {per_instr:.2} per instruction, LT - Base = {per_item:.2} per item, \
         LIMA - LT = {per_probe:.2} per probe"
    );
    assert!(items > 400 && probes > 400, "the script stopped tracing");
    // The kernel's output matrix and list; the operand list and the bound
    // names cost nothing.
    assert!(
        per_instr <= 2.5,
        "Base allocates {per_instr:.2} times per instruction (budget 2.5)"
    );
    // One item, and a data payload for some; debug builds also verify the
    // lineage DAG after every block.
    let item_budget = if cfg!(debug_assertions) { 1.85 } else { 1.4 };
    assert!(
        per_item <= item_budget,
        "tracing allocates {per_item:.2} times per item (budget {item_budget})"
    );
    assert!(
        per_probe <= 0.35,
        "the cache allocates {per_probe:.2} times per probe (budget 0.35)"
    );
}
