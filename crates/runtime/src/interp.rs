//! The interpreter: executes program blocks and instructions with LIMA's
//! lineage tracing, multi-level reuse, partial reuse, and deduplication woven
//! into the pre/post-processing of each instruction (paper §3.1, §4.1).

use crate::context::{DedupTrace, ExecutionContext, Symtab};
use crate::error::{Result, RuntimeError};
use crate::instr::{Instr, Op, Operand, Var};
use crate::kernels::{display, execute_kernel, resolve_bounds};
use crate::lva;
use crate::parfor;
use crate::program::{Block, ExprProg, Function, Program};
use lima_core::cache::rewrites::try_partial_reuse;
use lima_core::cache::Probe;
use lima_core::faults::FaultSite;
use lima_core::lineage::dedup::{DedupPatch, DedupRegistry, PathTracer};
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::opcodes as oc;
use lima_core::{EventKind, LimaStats, LineageCache, LineageMap, Obs};
use lima_matrix::{ScalarValue, Value};
use std::sync::Arc;
use std::time::Instant;

/// Maximum function-call recursion depth. Kept modest: the interpreter
/// recurses natively per call level, and ML scripts are not deeply recursive.
const MAX_CALL_DEPTH: usize = 64;

/// Executes a compiled program in the given context.
pub fn execute_program(program: &Program, ctx: &mut ExecutionContext) -> Result<()> {
    ctx.fingerprint = program.fingerprint;
    ctx.enter_frame(&program.frame);
    LimaStats::add(&ctx.stats.ops_unmarked, program.analysis.ops_unmarked);
    LimaStats::add(
        &ctx.stats.funcs_reuse_ineligible,
        program.analysis.funcs_reuse_ineligible,
    );
    execute_blocks(&program.body, program, ctx)
}

/// Executes a sequence of blocks.
pub fn execute_blocks(
    blocks: &[Block],
    program: &Program,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    for block in blocks {
        ctx.check_interrupt()?;
        execute_block(block, program, ctx)?;
        ctx.refresh_usage();
        #[cfg(debug_assertions)]
        debug_verify_lineage(ctx);
    }
    Ok(())
}

/// Observability handle for the current context: `Some` only when a hub is
/// attached *and* its gate is open, so detached configurations pay a single
/// `Option` check, enabled checks happen once per instruction, and the hub's
/// reference count is touched only while it is recording.
#[inline]
fn obs_of(ctx: &ExecutionContext) -> Option<Arc<Obs>> {
    ctx.config.obs.as_ref().filter(|o| o.enabled()).cloned()
}

/// Closes an instruction span opened at `t0`. `outcome` distinguishes how the
/// instruction resolved: 0 computed, 1 full reuse hit, 2 partial rewrite.
fn obs_instr_span(
    obs: &Option<Arc<Obs>>,
    t0: Option<u64>,
    op: &Op,
    item: Option<&LinRef>,
    outcome: u64,
) {
    if let (Some(o), Some(t0)) = (obs, t0) {
        let id = item.map_or(0, |i| i.id());
        o.record_span(EventKind::Instr, &op.opcode(), id, t0, outcome, 0);
    }
}

/// Probes the cache with the session interrupt threaded through, so a probe
/// blocked on a peer's placeholder honours cancellation/deadline instead of
/// waiting out `placeholder_timeout_ms`.
fn cache_acquire<'c>(
    cache: &'c LineageCache,
    item: &LinRef,
    ctx: &ExecutionContext,
) -> Result<Option<Probe<'c>>> {
    cache
        .acquire_interruptible(item, ctx.interrupt())
        .map_err(RuntimeError::from)
}

/// Debug-mode structural verification of the live lineage DAG after every
/// block. Skipped while a dedup trace or path tracer is active: temporary
/// lineage maps legitimately hold bare placeholders mid-trace.
#[cfg(debug_assertions)]
fn debug_verify_lineage(ctx: &mut ExecutionContext) {
    if !ctx.tracing() || ctx.dedup_trace.is_some() || ctx.path_tracer.is_some() {
        return;
    }
    for (name, root) in ctx.lineage.bindings() {
        if let Err(e) = ctx.verifier.verify(root) {
            panic!("lineage verification failed for variable '{name}': {e}");
        }
    }
}

fn execute_block(block: &Block, program: &Program, ctx: &mut ExecutionContext) -> Result<()> {
    match block {
        Block::Basic { instrs, .. } => {
            for i in instrs {
                execute_instr(i, program, ctx)?;
            }
            Ok(())
        }
        Block::If {
            branch_id,
            pred,
            then_body,
            else_body,
            ..
        } => {
            let taken = eval_bool(pred, program, ctx)?;
            if let (Some(id), Some(tracer)) = (branch_id, ctx.path_tracer.as_mut()) {
                tracer.record_branch(*id, taken);
            }
            if taken {
                execute_blocks(then_body, program, ctx)
            } else {
                execute_blocks(else_body, program, ctx)
            }
        }
        Block::For {
            id,
            var,
            from,
            to,
            by,
            body,
            dedup_ok,
            dedup_outputs,
            ..
        } => {
            let from = eval_scalar_i64(from, program, ctx)?;
            let to = eval_scalar_i64(to, program, ctx)?;
            let by = eval_scalar_i64(by, program, ctx)?;
            if by == 0 {
                return Err(RuntimeError::TypeError("for step must be nonzero".into()));
            }
            let extra = format!("for:{from}:{to}:{by}");
            let run = |ctx: &mut ExecutionContext| {
                let dedup = (*dedup_ok).then_some(dedup_outputs.as_slice());
                run_for_iterations(*id, var, (from, to, by), body, dedup, program, ctx)
            };
            if !try_block_reuse(*id, &extra, body, ctx, run)? {
                run(ctx)?;
            }
            Ok(())
        }
        Block::While {
            id,
            pred,
            body,
            dedup_ok,
            dedup_outputs,
            ..
        } => {
            let mut guard = 0usize;
            let dedup = (*dedup_ok && ctx.config.dedup && ctx.tracing()).then(|| {
                let key = format!("{}:while{}", ctx.fingerprint, id);
                DedupBody::enter(key, body, dedup_outputs, ctx)
            });
            while eval_bool(pred, program, ctx)? {
                match &dedup {
                    Some(dedup) => run_dedup_iteration(dedup, None, program, ctx)?,
                    None => execute_blocks(body, program, ctx)?,
                }
                guard += 1;
                if guard > 100_000_000 {
                    return Err(RuntimeError::TypeError(
                        "while loop exceeded 1e8 iterations".into(),
                    ));
                }
            }
            Ok(())
        }
        Block::ParFor {
            var,
            from,
            to,
            by,
            body,
            results,
            degree,
            ..
        } => {
            let from = eval_scalar_i64(from, program, ctx)?;
            let to = eval_scalar_i64(to, program, ctx)?;
            let by = eval_scalar_i64(by, program, ctx)?;
            parfor::execute_parfor(var, from, to, by, body, results, *degree, program, ctx)
        }
    }
}

/// The iterations of a `for` loop; `dedup` carries the body's dedup outputs
/// when the compiler found it eligible.
fn run_for_iterations(
    id: u64,
    var: &Var,
    (from, to, by): (i64, i64, i64),
    body: &[Block],
    dedup: Option<&[Var]>,
    program: &Program,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    let dedup = dedup.filter(|_| ctx.config.dedup && ctx.tracing() && ctx.dedup_trace.is_none());
    let dedup = dedup.map(|outputs| {
        let key = format!("{}:for{}", ctx.fingerprint, id);
        DedupBody::enter(key, body, outputs, ctx)
    });
    let mut i = from;
    while (by > 0 && i <= to) || (by < 0 && i >= to) {
        ctx.symtab.put(var.slot, Value::i64(i));
        match &dedup {
            Some(dedup) => run_dedup_iteration(dedup, Some((var.slot, i)), program, ctx)?,
            None => execute_blocks(body, program, ctx)?,
        }
        i += by;
    }
    Ok(())
}

/// Evaluates an expression program, returning the result value.
fn eval_expr(e: &ExprProg, program: &Program, ctx: &mut ExecutionContext) -> Result<Value> {
    for i in &e.instrs {
        execute_instr(i, program, ctx)?;
    }
    resolve_operand(&e.result, ctx)
}

fn eval_bool(e: &ExprProg, program: &Program, ctx: &mut ExecutionContext) -> Result<bool> {
    let type_error = |e: lima_matrix::MatrixError| RuntimeError::TypeError(e.to_string());
    let value = eval_expr(e, program, ctx)?;
    value
        .as_scalar()
        .and_then(ScalarValue::as_bool)
        .map_err(type_error)
}

fn eval_scalar_i64(e: &ExprProg, program: &Program, ctx: &mut ExecutionContext) -> Result<i64> {
    let v = eval_expr(e, program, ctx)?;
    match &v {
        Value::Scalar(s) => s
            .as_i64()
            .map_err(|e| RuntimeError::TypeError(e.to_string())),
        Value::Matrix(m) if m.shape() == (1, 1) && m.get(0, 0).fract() == 0.0 => {
            Ok(m.get(0, 0) as i64)
        }
        other => Err(RuntimeError::TypeError(format!(
            "expected integer bound, got {}",
            other.type_name()
        ))),
    }
}

fn resolve_operand(op: &Operand, ctx: &ExecutionContext) -> Result<Value> {
    match op {
        Operand::Var(v) => match ctx.symtab.at(v.slot) {
            Some(value) => Ok(value.clone()),
            None => Err(RuntimeError::UndefinedVariable(v.name.to_string())),
        },
        Operand::Lit(s) => Ok(Value::Scalar(s.clone())),
    }
}

/// What the iterations of one dedup-managed body share: worked out once on
/// entering the loop (or the function call), not once per iteration.
struct DedupBody<'p> {
    /// `fingerprint:kind<id>`, the registry's name.
    block_key: String,
    /// Patches of this body by taken path, shared across contexts.
    registry: Arc<DedupRegistry>,
    /// Live-in slots in ascending order, which is the names' sorted order
    /// (stable placeholder slots).
    live_in: Vec<u32>,
    body: &'p [Block],
    outputs: &'p [Var],
}

impl<'p> DedupBody<'p> {
    fn enter(
        block_key: String,
        body: &'p [Block],
        outputs: &'p [Var],
        ctx: &ExecutionContext,
    ) -> Self {
        let registry = ctx.dedup_registry(&block_key, count_branches(body));
        DedupBody {
            block_key,
            registry,
            live_in: lva::live_in(body),
            body,
            outputs,
        }
    }
}

/// One iteration of a dedup-managed loop body (paper §3.2). See module docs
/// in `lima_core::lineage::dedup` for the protocol.
fn run_dedup_iteration(
    dedup: &DedupBody<'_>,
    idx: Option<(u32, i64)>,
    program: &Program,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    let (block_key, registry, body) = (&dedup.block_key, &dedup.registry, dedup.body);
    // Inputs present in the symbol table, with their current (outer) lineage.
    let mut bound_inputs: Vec<(u32, LinRef)> = Vec::new();
    for &v in &dedup.live_in {
        if ctx.symtab.at(v).is_some() && Some(v) != idx.map(|(s, _)| s) {
            let lin = ctx.lineage_of_slot(v);
            bound_inputs.push((v, lin));
        }
    }

    ctx.path_tracer = Some(PathTracer::new());
    let complete = registry.is_complete();
    let base_inputs = bound_inputs.len() as u32 + u32::from(idx.is_some());

    let result = if complete {
        // Lightweight mode: only the taken path and seeds are recorded.
        ctx.suppress_tracing = true;
        let r = execute_blocks(body, program, ctx);
        ctx.suppress_tracing = false;
        r
    } else {
        // Tracing mode: swap in a temporary lineage map with placeholders.
        let mut temp = LineageMap::with_frame(Arc::clone(ctx.lineage.vars().frame()));
        for (slot, (var, _)) in bound_inputs.iter().enumerate() {
            temp.put(*var, LineageItem::placeholder(slot as u32));
        }
        if let Some((ivar, _)) = idx {
            temp.put(ivar, LineageItem::placeholder(bound_inputs.len() as u32));
        }
        let saved = std::mem::replace(&mut ctx.lineage, temp);
        ctx.dedup_trace = Some(DedupTrace {
            base_inputs,
            next_seed_slot: base_inputs,
        });
        let r = execute_blocks(body, program, ctx);
        ctx.dedup_trace = None;
        let temp = std::mem::replace(&mut ctx.lineage, saved);
        if r.is_ok() {
            let tracer = ctx.path_tracer.as_ref().ok_or_else(|| {
                RuntimeError::TypeError("dedup path tracer missing after trace".into())
            })?;
            let bits = tracer.path_key();
            if registry.get(bits).is_none() {
                let roots: Vec<(String, LinRef)> = dedup
                    .outputs
                    .iter()
                    .filter_map(|v| temp.at(v.slot).map(|l| (v.name.to_string(), l.clone())))
                    .collect();
                let num_inputs = base_inputs as usize + tracer.seeds().len();
                registry.insert(DedupPatch::new(block_key.as_str(), bits, num_inputs, roots));
                LimaStats::bump(&ctx.stats.dedup_patches);
            }
        }
        r
    };
    result?;

    // Append one dedup item per written output (paper: "a single dedup
    // lineage item ... is added onto the global lineage DAG").
    let Some(tracer) = ctx.path_tracer.take() else {
        return Err(RuntimeError::TypeError(
            "dedup path tracer missing after iteration".into(),
        ));
    };
    let patch = registry.get(tracer.path_key()).ok_or_else(|| {
        RuntimeError::TypeError(format!(
            "dedup patch missing for path {} of {block_key} (branch count mismatch)",
            tracer.path_key()
        ))
    })?;
    let mut dedup_inputs: Vec<LinRef> = bound_inputs.into_iter().map(|(_, l)| l).collect();
    if let Some((_, i)) = idx {
        dedup_inputs.push(ctx.lineage.literal(&ScalarValue::I64(i)));
    }
    for &seed in tracer.seeds() {
        dedup_inputs.push(ctx.lineage.literal(&ScalarValue::I64(seed)));
    }
    for (name, _) in patch.roots() {
        // A patch's roots are outputs of this body.
        let Some(out) = dedup.outputs.iter().find(|o| *o.name == **name) else {
            continue;
        };
        let item = LineageItem::dedup(patch.clone(), name, dedup_inputs.clone());
        if let Some(Value::Matrix(m)) = ctx.symtab.at(out.slot) {
            item.set_shape(m.rows(), m.cols());
        }
        ctx.lineage.put(out.slot, item);
        LimaStats::bump(&ctx.stats.dedup_items);
    }
    Ok(())
}

fn count_branches(blocks: &[Block]) -> u32 {
    let mut n = 0;
    for b in blocks {
        if let Block::If {
            then_body,
            else_body,
            ..
        } = b
        {
            n += 1 + count_branches(then_body) + count_branches(else_body);
        }
    }
    n
}

/// Attempts block-level (multi-level) reuse of a loop block. Returns true if
/// the block was reused; false if the caller must execute it (paper §4.1,
/// "Multi-level Reuse").
fn try_block_reuse(
    block_id: u64,
    extra: &str,
    body: &[Block],
    ctx: &mut ExecutionContext,
    exec: impl FnOnce(&mut ExecutionContext) -> Result<()>,
) -> Result<bool> {
    let Some(cache) = ctx.cache.clone() else {
        return Ok(false);
    };
    // Determinism via the shared classification analysis; the empty class
    // map is conservative about calls, which block-level reuse excludes
    // anyway (calls are covered by function-level reuse instead).
    // `rewrites_enabled` pauses multilevel caching at governor level L2+
    // (block bundles are the largest speculative entries the cache admits).
    // Only last-level loop bodies qualify: blocks wrapping function calls or
    // nested loops would bundle large intermediate sets into single cache
    // entries (pollution).
    let eligible = ctx.config.multilevel
        && ctx.tracing()
        && ctx.dedup_trace.is_none()
        && ctx.path_tracer.is_none()
        && cache.full_reuse()
        && cache.rewrites_enabled()
        && crate::compiler::body_is_last_level(body)
        && crate::compiler::blocks_class(body, &Default::default()) == oc::OpClass::Deterministic;
    if !eligible {
        return Ok(false);
    }
    let live_in = lva::live_in(body);
    let written = lva::writes(body);
    let frame = Arc::clone(ctx.symtab.frame());
    // All live-ins must be bound; scalar live-ins fold into the key by value.
    let mut lin_inputs = Vec::new();
    let mut scalar_key = String::new();
    for &var in &live_in {
        match ctx.symtab.at(var) {
            Some(Value::Scalar(s)) => {
                scalar_key += &format!("|{}={}", frame[var as usize], s.lineage_literal());
            }
            Some(_) => lin_inputs.push(ctx.lineage_of_slot(var)),
            None => return Ok(false),
        }
    }
    let data = format!("{}:{block_id}:{extra}{scalar_key}", ctx.fingerprint);
    let item = LineageItem::resolved(oc::BCALL.into(), oc::DC, Some(data.into()), lin_inputs);
    let probe = cache_acquire(&cache, &item, ctx)?;
    let reused = match probe {
        Some(Probe::Hit(Value::List(bundle), outputs)) if bundle.len() == 2 => {
            let (names, values) = (&bundle[0], &bundle[1]);
            let (Value::List(names), Value::List(values)) = (names, values) else {
                return Ok(false);
            };
            let outputs = outputs.filter(|o| o.len() == names.len());
            if let Some(o) = obs_of(ctx) {
                o.record_instant(
                    EventKind::BlockReuse,
                    oc::BCALL,
                    item.id(),
                    block_id,
                    names.len() as u64,
                );
            }
            for (i, (name, value)) in names.iter().zip(values.iter()).enumerate() {
                let Value::Scalar(ScalarValue::Str(name)) = name else {
                    continue;
                };
                // The bundle names outputs of this body.
                let Some(&slot) = written.iter().find(|&&s| *frame[s as usize] == **name) else {
                    continue;
                };
                ctx.symtab.put(slot, value.clone());
                // The lineage the block computed the value with; an entry
                // without it binds the value's position in the bundle.
                let out_lin = match &outputs {
                    Some(lins) => lins[i].clone(),
                    None => list_get(&item, i),
                };
                if let Value::Matrix(m) = value {
                    out_lin.set_shape(m.rows(), m.cols());
                }
                ctx.lineage.put(slot, out_lin);
            }
            Ok(true)
        }
        Some(Probe::Hit(..)) => Ok(false),
        Some(Probe::Reserved(r)) => {
            let t0 = Instant::now();
            exec(ctx)?; // a failed body drops the reservation: an abort
            let mut names = Vec::new();
            let mut values = Vec::new();
            let mut lineage = Vec::new();
            for &var in &written {
                if let Some(v) = ctx.symtab.at(var) {
                    names.push(Value::str(&frame[var as usize]));
                    values.push(v.clone());
                    lineage.push(ctx.lineage.at(var).cloned());
                }
            }
            let bundle = Value::list(vec![Value::list(names), Value::list(values)]);
            let r = r.with_outputs(lineage.into_iter().collect());
            r.fulfill(&bundle, t0.elapsed().as_nanos() as u64);
            Ok(true)
        }
        None => Ok(false),
    };
    reused
}

/// Executes one instruction with LIMA pre/post-processing.
pub fn execute_instr(instr: &Instr, program: &Program, ctx: &mut ExecutionContext) -> Result<()> {
    ctx.check_interrupt()?;
    match &instr.op {
        Op::Rmvar => {
            for v in instr.inputs.iter().filter_map(Operand::var_ref) {
                ctx.symtab.take(v.slot);
                ctx.lineage.take(v.slot);
            }
            return Ok(());
        }
        Op::Mvvar => {
            let from = instr.inputs[0]
                .var_ref()
                .ok_or_else(|| RuntimeError::TypeError("mvvar needs a variable".into()))?;
            let to = instr.outputs[0].slot;
            if let Some(v) = ctx.symtab.take(from.slot) {
                ctx.symtab.put(to, v);
            }
            if let Some(l) = ctx.lineage.take(from.slot) {
                ctx.lineage.put(to, l);
            }
            return Ok(());
        }
        Op::Print => {
            let line = display(&resolve_operand(&instr.inputs[0], ctx)?);
            ctx.stdout.push(line);
            return Ok(());
        }
        Op::Write => return execute_write(instr, ctx),
        Op::LineageOf => {
            let var = instr.inputs[0]
                .var_ref()
                .ok_or_else(|| RuntimeError::TypeError("lineage() requires a variable".into()))?;
            if !ctx.config.tracing {
                return Err(RuntimeError::TypeError(
                    "lineage() requires lineage tracing to be enabled".into(),
                ));
            }
            let lin = ctx.lineage_of_slot(var.slot);
            let log = lima_core::lineage::serialize::serialize_lineage(&lin);
            ctx.symtab.put(instr.outputs[0].slot, Value::str(&log));
            return Ok(());
        }
        Op::FCall(name) => return execute_fcall(name, instr, program, ctx),
        _ => {}
    }
    // The operand buffer is the context's, lent to one instruction at a time
    // and handed back empty.
    let mut resolved = std::mem::take(&mut ctx.operands);
    let done = execute_computation(instr, &mut resolved, ctx);
    resolved.clear();
    ctx.operands = resolved;
    done
}

/// [`execute_instr`] for an instruction that computes its outputs: traced,
/// probed, executed and bound.
fn execute_computation(
    instr: &Instr,
    resolved: &mut Vec<Value>,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    let obs = obs_of(ctx);
    let obs_t0 = obs.as_ref().map(|o| o.now_ns());

    // 1. Resolve operand values; generate system seeds where requested.
    for o in &instr.inputs {
        resolved.push(resolve_operand(o, ctx)?);
    }
    let mut seed: Option<i64> = None;
    if instr.op.is_random() {
        let slot = resolved.len() - 1;
        let s = match &resolved[slot] {
            Value::Scalar(sv) => sv.as_i64().unwrap_or(-1),
            _ => -1,
        };
        let s = if s < 0 { ctx.next_system_seed() } else { s };
        resolved[slot] = Value::i64(s);
        seed = Some(s);
        // In lightweight dedup mode no lineage is traced, so the seed must be
        // recorded here; in tracing mode `seed_lineage` records it.
        if ctx.suppress_tracing {
            if let Some(tracer) = ctx.path_tracer.as_mut() {
                tracer.record_seed(s);
            }
        }
    }

    // 2. Trace lineage before execution (paper §3.1 footnote: tracing before
    //    execution facilitates reuse).
    let traced = if ctx.tracing() {
        Some(trace_instr(instr, resolved, seed, ctx)?)
    } else {
        None
    };

    // Assign is pure lineage/value plumbing: bind and return.
    if matches!(instr.op, Op::Assign) {
        let value = vec![resolved.swap_remove(0)];
        bind_outputs(instr, value, traced, &mut ctx.lineage, &mut ctx.symtab);
        return Ok(());
    }

    // 3. Probe the reuse cache (full, then partial). The cache is borrowed
    //    from the context, and so is a reservation: until it is resolved
    //    only the context's two maps change (`bind_outputs`). A miss reads
    //    the clock twice: once as it starts (a rewrite, else the kernel) and
    //    once when its value is ready.
    let mut reservation = None;
    if let (Some(item), Some(cache)) = (&traced, ctx.cache.as_deref()) {
        let probing = !instr.no_cache && ctx.dedup_trace.is_none();
        let fused_t = matches!(instr.op, Op::TMatMult);
        // Outputs served by the cache, with the instruction-span outcome.
        let mut reused = None;
        if probing && cache.full_reuse() && !instr.op.is_random() {
            match cache_acquire(cache, item, ctx)? {
                Some(Probe::Hit(value, _)) => {
                    reused = Some((unbundle(value, instr.outputs.len()), 1));
                }
                Some(Probe::Reserved(r)) => {
                    let t0 = Instant::now();
                    let faults = ctx.config.faults.as_ref();
                    if let Some(hit) = try_partial_reuse(cache, item, resolved, fused_t) {
                        // The compensation time is the best available proxy
                        // for this entry's recompute cost.
                        r.fulfill(&hit.value, compensated(cache, t0));
                        reused = Some((vec![hit.value], 2));
                    } else if faults.is_some_and(|f| f.should_fail(FaultSite::FulfillerDeath)) {
                        // Simulate a fulfiller dying without aborting: leak
                        // the reservation so the placeholder never resolves.
                        // Blocked probes recover via the placeholder wait
                        // timeout (takeover); this probe computes normally
                        // but stores nothing.
                        std::mem::forget(r);
                    } else {
                        reservation = Some((r, t0));
                    }
                }
                None => {}
            }
        } else if probing && cache.partial_reuse() {
            // Partial-only configurations still rewrite without reserving.
            let t0 = Instant::now();
            reused = try_partial_reuse(cache, item, resolved, fused_t).map(|hit| {
                compensated(cache, t0);
                (vec![hit.value], 2)
            });
        }
        if let Some((outputs, outcome)) = reused {
            if let (2, Some(o)) = (outcome, &obs) {
                let opcode = instr.op.opcode();
                o.record_instant(EventKind::PartialRewrite, &opcode, item.id(), 0, 0);
            }
            obs_instr_span(&obs, obs_t0, &instr.op, Some(item), outcome);
            bind_outputs(instr, outputs, traced, &mut ctx.lineage, &mut ctx.symtab);
            return Ok(());
        }
    }

    // 4. Execute the kernel; 5. register the output in the cache, if this
    //    instruction holds a reservation (an error drops it: an abort).
    let out = execute_kernel(&instr.op, resolved, ctx)?;
    if let Some((r, t0)) = reservation {
        r.fulfill(&bundle(&out), t0.elapsed().as_nanos() as u64);
    }

    obs_instr_span(&obs, obs_t0, &instr.op, traced.as_ref(), 0);
    bind_outputs(instr, out, traced, &mut ctx.lineage, &mut ctx.symtab);
    Ok(())
}

/// Counts the time since `t0` — a fired rewrite's look-ups and compensation —
/// in `compensation_ns`, and returns it.
fn compensated(cache: &LineageCache, t0: Instant) -> u64 {
    let ns = t0.elapsed().as_nanos() as u64;
    LimaStats::add(&cache.stats().compensation_ns, ns);
    ns
}

/// Bundles kernel outputs for caching: single output as-is, multi-output as a
/// list.
fn bundle(out: &[Value]) -> Value {
    if out.len() == 1 {
        out[0].clone()
    } else {
        Value::list(out.to_vec())
    }
}

/// Reverses [`bundle`] for a cache hit.
/// Item `i` of a multi-output item.
fn list_get(base: &LinRef, i: usize) -> LinRef {
    let data = Some(i.to_string().into());
    LineageItem::resolved(oc::LIST_GET.into(), oc::DN, data, [base.clone()])
}

fn unbundle(v: Value, n: usize) -> Vec<Value> {
    match v {
        Value::List(items) if n > 1 => items.as_ref().clone(),
        single => vec![single],
    }
}

/// Binds an instruction's outputs and their lineage. Takes the two maps, not
/// the context: a reservation borrowed from the context's cache may still be
/// in scope where this runs.
fn bind_outputs(
    instr: &Instr,
    values: Vec<Value>,
    item: impl Into<Option<LinRef>>,
    lineage: &mut LineageMap,
    symtab: &mut Symtab,
) {
    let item = item.into();
    let multi = instr.outputs.len() > 1;
    for (i, (out, value)) in instr.outputs.iter().zip(values).enumerate() {
        if let Some(base) = &item {
            let out_lin = if multi {
                list_get(base, i)
            } else {
                base.clone()
            };
            if let Value::Matrix(m) = &value {
                out_lin.set_shape(m.rows(), m.cols());
            }
            lineage.put(out.slot, out_lin);
        }
        symtab.put(out.slot, value);
    }
}

/// Builds the lineage item for an instruction. Its inputs are aligned to the
/// instruction's operands for every opcode a partial-reuse rewrite matches
/// (the generic arm, and `tsmm`, whose one operand is its one input), so the
/// rewrites read the resolved operands as they are.
///
/// One allocation per item on the common path: the opcode is static, up to
/// two inputs live inside the item, a scalar operand seen before is a lookup
/// by value, and variable lineage is a reference-count step.
fn trace_instr(
    instr: &Instr,
    resolved: &[Value],
    seed: Option<i64>,
    ctx: &mut ExecutionContext,
) -> Result<LinRef> {
    LimaStats::bump(&ctx.stats.items_traced);
    let mut operand_lin = |k: usize| operand_lineage(&instr.inputs[k], &resolved[k], ctx);
    let int = |k: usize| resolved[k].as_f64().unwrap_or(0.0) as i64;
    // Items carry the opcode's table entry the instruction was built with.
    macro_rules! item {
        ($op:expr, $data:expr, $inputs:expr) => {
            LineageItem::resolved($op.into(), instr.info, Some($data.into()), $inputs)
        };
        ($op:expr, $inputs:expr) => {
            LineageItem::resolved($op.into(), instr.info, None, $inputs)
        };
    }
    Ok(match &instr.op {
        Op::RightIndex => {
            let x = operand_lin(0);
            let shape = match &resolved[0] {
                Value::Matrix(m) => m.shape(),
                other => {
                    return Err(RuntimeError::TypeError(format!(
                        "rightIndex on {}",
                        other.type_name()
                    )))
                }
            };
            let b = |k: usize| match &resolved[k] {
                Value::Scalar(s) => s.as_i64().unwrap_or(-1),
                _ => -1,
            };
            let (rl, ru, cl, cu) = resolve_bounds(shape, [b(1), b(2), b(3), b(4)])?;
            item!(oc::RIGHT_INDEX, format!("{rl} {ru} {cl} {cu}"), [x])
        }
        Op::LeftIndex => {
            let (x, s) = (operand_lin(0), operand_lin(1));
            let data = format!("{} {}", int(2) - 1, int(3) - 1);
            item!(oc::LEFT_INDEX, data, [x, s])
        }
        Op::Fill => {
            let v = resolved[0].as_f64().unwrap_or(f64::NAN);
            let data = format!("{v} {} {}", int(1), int(2));
            item!(oc::MATRIX_FILL, data, [])
        }
        Op::Rand(kind) => {
            let p1 = resolved[2].as_f64().unwrap_or(0.0);
            let p2 = resolved[3].as_f64().unwrap_or(0.0);
            let sp = resolved[4].as_f64().unwrap_or(1.0);
            let data = format!("{} {} {} {p1} {p2} {sp}", int(0), int(1), kind.name());
            let seed_item = seed_lineage(seed.unwrap_or(-1), ctx);
            item!(oc::RAND, data, [seed_item])
        }
        Op::Sample => {
            let data = format!("{} {}", int(0), int(1));
            let seed_item = seed_lineage(seed.unwrap_or(-1), ctx);
            item!(oc::SAMPLE, data, [seed_item])
        }
        Op::Seq => {
            let num = |k: usize| resolved[k].as_f64().unwrap_or(f64::NAN);
            let data = format!("{} {} {}", num(0), num(1), num(2));
            item!(oc::SEQ, data, [])
        }
        Op::Read => {
            let path = match &resolved[0] {
                Value::Scalar(ScalarValue::Str(s)) => &**s,
                _ => "?",
            };
            item!(oc::READ, path, [])
        }
        Op::Tsmm(side) => {
            let side = match side {
                lima_matrix::ops::TsmmSide::Left => "LEFT",
                lima_matrix::ops::TsmmSide::Right => "RIGHT",
            };
            item!(oc::TSMM, side, [operand_lin(0)])
        }
        Op::TMatMult => {
            // `r'` is classified as `ba+*` is: deterministic, cacheable.
            let at = item!(oc::TRANSPOSE, [operand_lin(0)]);
            if let Value::Matrix(a) = &resolved[0] {
                at.set_shape(a.cols(), a.rows());
            }
            item!(oc::MATMULT, [at, operand_lin(1)])
        }
        Op::Order => {
            let dec = resolved[1]
                .as_scalar()
                .ok()
                .and_then(|s| s.as_bool().ok())
                .unwrap_or(false);
            let data = if dec { "desc" } else { "asc" };
            item!(oc::ORDER, data, [operand_lin(0)])
        }
        Op::Reshape => {
            let data = format!("{} {}", int(1), int(2));
            item!(oc::RESHAPE, data, [operand_lin(0)])
        }
        Op::ListGet => {
            item!(oc::LIST_GET, int(1).to_string(), [operand_lin(0)])
        }
        Op::Fused(spec) => {
            let inputs: Vec<LinRef> = (0..instr.inputs.len()).map(operand_lin).collect();
            spec.expand_lineage(&inputs)
        }
        op => item!(op.opcode(), (0..instr.inputs.len()).map(operand_lin)),
    })
}

/// Lineage of an operand: a matrix or list by its variable's lineage, a
/// scalar by value — making equal parameters match regardless of provenance.
fn operand_lineage(operand: &Operand, value: &Value, ctx: &mut ExecutionContext) -> LinRef {
    match (value, operand) {
        (Value::Scalar(s), _) | (_, Operand::Lit(s)) => ctx.lineage.literal(s),
        (_, Operand::Var(v)) => ctx.lineage_of_slot(v.slot),
    }
}

/// Lineage input carrying a `rand`/`sample` seed: a placeholder slot while a
/// dedup patch is being traced, a literal otherwise (paper §3.2, "Handling of
/// Non-Determinism").
fn seed_lineage(seed: i64, ctx: &mut ExecutionContext) -> LinRef {
    if let Some(dt) = ctx.dedup_trace.as_mut() {
        let slot = dt.next_seed_slot;
        dt.next_seed_slot += 1;
        if let Some(tracer) = ctx.path_tracer.as_mut() {
            tracer.record_seed(seed);
        }
        LineageItem::placeholder(slot)
    } else {
        ctx.lineage.literal(&ScalarValue::I64(seed))
    }
}

fn execute_write(instr: &Instr, ctx: &mut ExecutionContext) -> Result<()> {
    let value = resolve_operand(&instr.inputs[0], ctx)?;
    let path = match resolve_operand(&instr.inputs[1], ctx)? {
        Value::Scalar(ScalarValue::Str(s)) => s.to_string(),
        other => {
            return Err(RuntimeError::TypeError(format!(
                "write path must be a string, got {}",
                other.type_name()
            )))
        }
    };
    match &value {
        Value::Matrix(m) => {
            lima_matrix::io::write_matrix_text(std::path::Path::new(&path), m)?;
        }
        other => std::fs::write(&path, display(other))?,
    }
    // For every write, also write the lineage log (paper §3.1).
    if ctx.tracing() {
        if let Some(var) = instr.inputs[0].var_ref() {
            let lin = ctx.lineage_of_slot(var.slot);
            let log = lima_core::lineage::serialize::serialize_lineage(&lin);
            std::fs::write(format!("{path}.lineage"), log)?;
        }
    }
    Ok(())
}

fn execute_fcall(
    name: &str,
    instr: &Instr,
    program: &Program,
    ctx: &mut ExecutionContext,
) -> Result<()> {
    let func = program
        .functions
        .get(name)
        .ok_or_else(|| RuntimeError::UndefinedFunction(name.to_string()))?;
    if ctx.call_depth >= MAX_CALL_DEPTH {
        return Err(RuntimeError::TypeError(format!(
            "call depth exceeded at '{name}'"
        )));
    }
    if instr.inputs.len() != func.params.len() {
        return Err(RuntimeError::bad_operands(
            format!("fcall:{name}"),
            format!(
                "expected {} arguments, got {}",
                func.params.len(),
                instr.inputs.len()
            ),
        ));
    }
    let obs = obs_of(ctx).map(|o| (o.now_ns(), o));
    // The call's span: `id` of its lineage item (0 without function-level
    // reuse), `outcome` 1 when served from the cache.
    let span = |id: u64, outcome: u64| {
        if let Some((t0, o)) = &obs {
            o.record_span(EventKind::FCall, name, id, *t0, outcome, 0);
        }
    };
    let args: Vec<Value> = instr
        .inputs
        .iter()
        .map(|o| resolve_operand(o, ctx))
        .collect::<Result<_>>()?;
    // Lineage of arguments (matrices by lineage, scalars by value).
    let arg_items: Option<Vec<LinRef>> = ctx.tracing().then(|| {
        let traced = instr.inputs.iter().zip(&args);
        traced.map(|(o, v)| operand_lineage(o, v, ctx)).collect()
    });

    // Multi-level (function) reuse: probe before executing (paper §4.1). The
    // cache handle is this call's own (one reference-count step per call, not
    // per instruction): the reservation it lends is held while the context
    // is mutated.
    let cache = ctx.cache.clone();
    let mut reservation = None;
    let mut fcall_item = None;
    if let (Some(items), Some(cache)) = (&arg_items, cache.as_deref()) {
        if ctx.config.multilevel
            && cache.full_reuse()
            && cache.rewrites_enabled()
            && func.deterministic
            && ctx.dedup_trace.is_none()
        {
            let opcode = format!("{}:{name}", oc::FCALL).into();
            let item = LineageItem::resolved(opcode, oc::DC, Some(name.into()), items.clone());
            match cache_acquire(cache, &item, ctx)? {
                Some(Probe::Hit(bundle, outputs)) => {
                    let values = unbundle(bundle, instr.outputs.len());
                    span(item.id(), 1);
                    match outputs.filter(|o| o.len() == values.len()) {
                        Some(lins) => {
                            let lins = lins.iter().cloned().map(Some);
                            bind_lineage(&instr.outputs, values, lins, ctx);
                        }
                        None => {
                            bind_outputs(instr, values, item, &mut ctx.lineage, &mut ctx.symtab)
                        }
                    }
                    return Ok(());
                }
                Some(Probe::Reserved(r)) => {
                    reservation = Some(r);
                    fcall_item = Some(item);
                }
                None => {}
            }
        }
    }

    // Execute the function body in a fresh context, timed for a reservation.
    let t0 = reservation.as_ref().map(|_| Instant::now());
    let mut callee = ctx.fork_function(&func.frame);
    for (param, value) in func.params.iter().zip(args) {
        callee.symtab.put(param.slot, value);
    }
    if let Some(items) = &arg_items {
        for (param, item) in func.params.iter().zip(items.iter()) {
            callee.lineage.put(param.slot, item.clone());
        }
    }
    let res = execute_function_body(func, program, &mut callee);
    ctx.stdout.append(&mut callee.stdout);
    res?; // an unfulfilled reservation aborts as it drops
    let elapsed = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);

    // Collect outputs.
    let mut out_values = Vec::with_capacity(func.outputs.len());
    let mut out_lineage = Vec::with_capacity(func.outputs.len());
    for out in &func.outputs {
        let v = callee.symtab.at(out.slot).cloned().ok_or_else(|| {
            RuntimeError::UndefinedVariable(format!("{name} output '{}'", out.name))
        })?;
        out_lineage.push(callee.lineage.at(out.slot).cloned());
        out_values.push(v);
    }

    // The outputs bind the lineage the body computed them with, and a
    // function-level entry stores it beside their values for its hits: the
    // call item is the entry's key, nothing else.
    let id = fcall_item.map_or(0, |item| item.id());
    if let Some(r) = reservation {
        let r = r.with_outputs(out_lineage.iter().cloned().collect());
        r.fulfill(&bundle(&out_values), elapsed);
    }
    span(id, 0);
    bind_lineage(&instr.outputs, out_values, out_lineage, ctx);
    Ok(())
}

/// Binds values to `targets` with the lineage each was computed with; a
/// value without lineage (tracing off) binds its value only.
fn bind_lineage(
    targets: &[Var],
    values: Vec<Value>,
    lineage: impl IntoIterator<Item = Option<LinRef>>,
    ctx: &mut ExecutionContext,
) {
    for ((target, value), lin) in targets.iter().zip(values).zip(lineage) {
        if let Some(l) = lin {
            if let Value::Matrix(m) = &value {
                l.set_shape(m.rows(), m.cols());
            }
            ctx.lineage.put(target.slot, l);
        }
        ctx.symtab.put(target.slot, value);
    }
}

/// Executes a function body, driving function-level deduplication when the
/// function qualifies (paper §3.2, "Function Deduplication").
fn execute_function_body(
    func: &Function,
    program: &Program,
    callee: &mut ExecutionContext,
) -> Result<()> {
    if func.dedup_ok && callee.config.dedup && callee.tracing() && callee.dedup_trace.is_none() {
        let key = format!("{}:fn:{}", callee.fingerprint, func.name);
        let dedup = DedupBody::enter(key, &func.body, &func.dedup_outputs, callee);
        run_dedup_iteration(&dedup, None, program, callee)
    } else {
        execute_blocks(&func.body, program, callee)
    }
}
