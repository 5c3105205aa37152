//! Lineage deduplication for loops and functions (paper §3.2).
//!
//! Repeated executions of a loop body create repeated patterns in the lineage
//! DAG. Deduplication extracts each *distinct control path* of the body once,
//! as a **lineage patch** whose leaves are placeholders for the loop inputs
//! (live-in variables, the loop index, and any system-generated seeds), and
//! replaces every iteration's sub-DAG with a single dedup item.
//!
//! Patches are keyed by a *path bitvector*: bit `i` records whether branch
//! `i` (IDs assigned depth-first at setup time) evaluated to true. Once all
//! distinct paths of a body have patches, per-iteration tracing can stop —
//! only the taken path and the seeds are recorded.

use crate::lineage::item::{
    hash_parts, hash_prefix, FxBuildHasher, FxHasher, LinRef, LineageItem, LineageKind,
};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static NEXT_PATCH_ID: AtomicU64 = AtomicU64::new(1);

/// A value inside a compiled patch body: a placeholder input slot, or the
/// result of an earlier plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRef {
    /// Placeholder slot, bound to the dedup item's input of that index.
    Slot(u32),
    /// A plan node by index (see [`PatchPlan::node_item`]); always smaller
    /// than the referencing node's own index.
    Node(u32),
}

/// One non-placeholder node of a patch body.
#[derive(Debug)]
struct PlanNode {
    /// The body item: opcode, data and kind of this node.
    item: LinRef,
    /// This node's inputs, as a range of `PatchPlan::args`.
    args: Range<usize>,
    /// Hash state after opcode, data and input count.
    prefix: FxHasher,
}

/// One output of a compiled patch.
#[derive(Debug)]
pub struct PlanRoot {
    value: PlanRef,
    reach: Box<[u32]>,
    slots: Box<[u32]>,
}

impl PlanRoot {
    /// Where the output's value comes from.
    pub fn value(&self) -> PlanRef {
        self.value
    }

    /// The plan nodes this output depends on, ascending (so inputs come
    /// before their consumers).
    pub fn reach(&self) -> &[u32] {
        &self.reach
    }

    /// The placeholder slots this output depends on, ascending.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }
}

/// A patch body compiled for repeated evaluation: the non-placeholder nodes
/// of all outputs in post-order, each with its inputs resolved to a slot or
/// an earlier node. Hashing, expansion and program reconstruction of a dedup
/// item are each one pass over `reach` of the output's root with a flat
/// value array indexed by node, instead of a traversal of the body DAG.
#[derive(Debug)]
pub struct PatchPlan {
    nodes: Vec<PlanNode>,
    args: Vec<PlanRef>,
    /// Parallel to [`DedupPatch::roots`].
    roots: Vec<PlanRoot>,
}

impl PatchPlan {
    fn compile(roots: &[(String, LinRef)]) -> Self {
        let mut nodes: Vec<PlanNode> = Vec::new();
        let mut args: Vec<PlanRef> = Vec::new();
        let mut done: HashMap<u64, PlanRef, FxBuildHasher> = HashMap::default();
        let mut stack: Vec<&LinRef> = Vec::new();
        for (_, root) in roots {
            stack.push(root);
            while let Some(&top) = stack.last() {
                if done.contains_key(&top.id()) {
                    stack.pop();
                    continue;
                }
                if let LineageKind::Placeholder(slot) = top.kind() {
                    done.insert(top.id(), PlanRef::Slot(*slot));
                    stack.pop();
                    continue;
                }
                let before = stack.len();
                stack.extend(top.inputs().iter().filter(|i| !done.contains_key(&i.id())));
                if stack.len() > before {
                    continue;
                }
                let first = args.len();
                args.extend(top.inputs().iter().filter_map(|i| done.get(&i.id())));
                done.insert(top.id(), PlanRef::Node(nodes.len() as u32));
                nodes.push(PlanNode {
                    item: Arc::clone(top),
                    args: first..args.len(),
                    prefix: hash_prefix(top.opcode(), top.data(), top.inputs().len()),
                });
                stack.pop();
            }
        }
        let mut plan = PatchPlan {
            nodes,
            args,
            roots: Vec::new(),
        };
        plan.roots = roots
            .iter()
            .map(|(_, root)| {
                // Every root was compiled by the loop above.
                let value = done.get(&root.id()).copied().unwrap_or(PlanRef::Slot(0));
                plan.closure_of(value)
            })
            .collect();
        plan
    }

    /// The nodes and slots `value` depends on.
    fn closure_of(&self, value: PlanRef) -> PlanRoot {
        let mut needed = vec![false; self.nodes.len()];
        let mut slots: Vec<u32> = Vec::new();
        let mut stack = vec![value];
        while let Some(r) = stack.pop() {
            match r {
                PlanRef::Slot(s) => slots.push(s),
                PlanRef::Node(i) => {
                    if let Some(seen) = needed.get_mut(i as usize) {
                        if !std::mem::replace(seen, true) {
                            stack.extend_from_slice(self.node_args(i));
                        }
                    }
                }
            }
        }
        slots.sort_unstable();
        slots.dedup();
        PlanRoot {
            value,
            reach: (0u32..)
                .zip(&needed)
                .filter_map(|(i, n)| n.then_some(i))
                .collect(),
            slots: slots.into(),
        }
    }

    /// Number of plan nodes (placeholders are not nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a patch whose outputs are all bare placeholders.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The body item behind node `i` (opcode, data, kind).
    pub fn node_item(&self, i: u32) -> Option<&LinRef> {
        self.nodes.get(i as usize).map(|n| &n.item)
    }

    /// The inputs of node `i`, in operand order.
    pub fn node_args(&self, i: u32) -> &[PlanRef] {
        self.nodes
            .get(i as usize)
            .and_then(|n| self.args.get(n.args.clone()))
            .unwrap_or(&[])
    }

    /// The compiled output at `index` of [`DedupPatch::roots`].
    pub fn root(&self, index: usize) -> Option<&PlanRoot> {
        self.roots.get(index)
    }

    /// Evaluates the nodes `root` reaches, in order, into `vals` (one cell
    /// per plan node) and returns the root's value. `slot` supplies the value
    /// bound to a placeholder; `node` computes a node from the values of its
    /// inputs.
    fn eval<T: Clone + Default>(
        &self,
        root: &PlanRoot,
        vals: &mut Vec<T>,
        slot: impl Fn(u32) -> T,
        mut node: impl FnMut(&PlanNode, &mut dyn Iterator<Item = T>) -> T,
    ) -> T {
        vals.clear();
        vals.resize(self.nodes.len(), T::default());
        let get = |vals: &[T], r: &PlanRef| match *r {
            PlanRef::Slot(s) => slot(s),
            PlanRef::Node(j) => vals.get(j as usize).cloned().unwrap_or_default(),
        };
        for &i in root.reach.iter() {
            let Some(n) = self.nodes.get(i as usize) else {
                continue;
            };
            let v = node(n, &mut self.node_args(i).iter().map(|r| get(vals, r)));
            if let Some(cell) = vals.get_mut(i as usize) {
                *cell = v;
            }
        }
        get(vals, &root.value)
    }
}

thread_local! {
    /// Node-hash array of [`DedupPatch::hash_output`], kept per thread so
    /// hashing a dedup item allocates nothing.
    static HASH_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A deduplicated lineage patch: one distinct control path through a loop or
/// function body, with placeholder leaves for the body inputs.
#[derive(Debug)]
pub struct DedupPatch {
    patch_id: u64,
    /// Stable key of the owning loop/function (e.g. `"fn:lm"` or `"loop:17"`).
    block_key: String,
    /// Taken-branch bitvector identifying the control path.
    path_key: u64,
    /// Number of placeholder input slots.
    num_inputs: usize,
    /// Output variable name → patch-body root.
    roots: Vec<(String, LinRef)>,
    /// The body compiled on first use (see [`PatchPlan`]).
    plan: OnceLock<PatchPlan>,
}

impl DedupPatch {
    /// Creates a patch. Roots must only reference [`LineageKind::Placeholder`]
    /// leaves with slots `< num_inputs`, plus literals.
    pub fn new(
        block_key: impl Into<String>,
        path_key: u64,
        num_inputs: usize,
        roots: Vec<(String, LinRef)>,
    ) -> Arc<Self> {
        Arc::new(DedupPatch {
            patch_id: NEXT_PATCH_ID.fetch_add(1, Ordering::Relaxed),
            block_key: block_key.into(),
            path_key,
            num_inputs,
            roots,
            plan: OnceLock::new(),
        })
    }

    /// Process-unique patch ID.
    pub fn patch_id(&self) -> u64 {
        self.patch_id
    }

    /// Owning loop/function key.
    pub fn block_key(&self) -> &str {
        &self.block_key
    }

    /// Taken-branch bitvector this patch encodes.
    pub fn path_key(&self) -> u64 {
        self.path_key
    }

    /// Number of placeholder slots.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output name → root pairs.
    pub fn roots(&self) -> &[(String, LinRef)] {
        &self.roots
    }

    /// Position of a named output in [`Self::roots`].
    pub fn root_index(&self, output: &str) -> Option<usize> {
        self.roots.iter().position(|(name, _)| name == output)
    }

    /// Root for a named output.
    pub fn root(&self, output: &str) -> Option<&LinRef> {
        self.roots
            .iter()
            .find(|(name, _)| name == output)
            .map(|(_, r)| r)
    }

    /// The compiled body, built on first use.
    pub fn plan(&self) -> &PatchPlan {
        self.plan.get_or_init(|| PatchPlan::compile(&self.roots))
    }

    /// Hash of the `output` root with placeholder slot `i` bound to `env(i)`.
    /// This makes a dedup item hash identically to its expansion, which is
    /// what lets deduplicated and plain traces match (paper §3.2).
    pub(crate) fn hash_output(&self, output: &str, env: impl Fn(usize) -> Option<u64>) -> u64 {
        let plan = self.plan();
        let Some(root) = self.root_index(output).and_then(|i| plan.root(i)) else {
            // Unknown output: fall back to a tagged hash so lookups still
            // terminate deterministically.
            return hash_parts("dedup-miss", Some(output), &[]);
        };
        let slot = |s: u32| {
            env(s as usize).unwrap_or_else(|| hash_parts("ph-unbound", None, &[u64::from(s)]))
        };
        let node = |node: &PlanNode, inputs: &mut dyn Iterator<Item = u64>| {
            let mut h = node.prefix;
            for ih in inputs {
                h.write_u64(ih);
            }
            h.finish()
        };
        // `env` may hash an input that never was (then itself a dedup item,
        // back in here): that nested call gets an array of its own.
        HASH_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut vals) => plan.eval(root, &mut vals, slot, node),
            Err(_) => plan.eval(root, &mut Vec::new(), slot, node),
        })
    }

    /// Materializes the `output` root with placeholders substituted by the
    /// given input items (used by equality resolution and verification).
    pub fn expand(&self, output: &str, inputs: &[LinRef]) -> LinRef {
        let plan = self.plan();
        let Some(root) = self.root_index(output).and_then(|i| plan.root(i)) else {
            return LineageItem::op_with_data("dedup-miss", output, inputs.to_vec());
        };
        let slot = |s: u32| {
            Some(
                inputs
                    .get(s as usize)
                    .cloned()
                    .unwrap_or_else(|| LineageItem::placeholder(s)),
            )
        };
        let expanded = plan.eval(root, &mut Vec::new(), slot, |node, ins| {
            let item = &node.item;
            Some(match (item.kind(), item.data()) {
                (LineageKind::Literal, _) => Arc::clone(item),
                (_, data) => {
                    let (opcode, info) = (item.opcode_shared(), item.info());
                    LineageItem::resolved(opcode, info, data.map(Into::into), ins.flatten())
                }
            })
        });
        // `eval` yields a bound slot or a node it just built; `None` would
        // need a root outside the plan, which `compile` never produces.
        expanded.unwrap_or_else(|| LineageItem::op_with_data("dedup-miss", output, inputs.to_vec()))
    }
}

/// Runtime tracer for the taken control path and captured seeds of one
/// iteration (paper §3.2, "bitvector b" plus seed placeholders).
#[derive(Debug, Default, Clone)]
pub struct PathTracer {
    bits: u64,
    seeds: Vec<i64>,
}

impl PathTracer {
    /// Fresh tracer with no branches taken.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of branch `id` (IDs are assigned depth-first at
    /// dedup setup; at most 64 branches per body are supported — bodies with
    /// more fall back to plain tracing).
    pub fn record_branch(&mut self, id: u32, taken: bool) {
        if taken {
            self.bits |= 1u64 << id;
        }
    }

    /// Records a system-generated seed encountered during the iteration.
    pub fn record_seed(&mut self, seed: i64) {
        self.seeds.push(seed);
    }

    /// The path bitvector.
    pub fn path_key(&self) -> u64 {
        self.bits
    }

    /// Captured seeds in order of occurrence.
    pub fn seeds(&self) -> &[i64] {
        &self.seeds
    }
}

/// Per-loop/function registry of lineage patches, shared across iterations
/// (and across concurrent parfor workers, hence the mutex).
#[derive(Debug)]
pub struct DedupRegistry {
    block_key: String,
    num_distinct_paths: u64,
    inner: Mutex<HashMap<u64, Arc<DedupPatch>>>,
}

impl DedupRegistry {
    /// Creates a registry for a body with `num_branches` conditional branches
    /// (2^branches distinct control paths; paper counts these in a single
    /// pass through the program at setup).
    pub fn new(block_key: impl Into<String>, num_branches: u32) -> Self {
        DedupRegistry {
            block_key: block_key.into(),
            num_distinct_paths: 1u64.checked_shl(num_branches).unwrap_or(u64::MAX),
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Owning block key.
    pub fn block_key(&self) -> &str {
        &self.block_key
    }

    /// Patch for a path, if already traced.
    pub fn get(&self, path_key: u64) -> Option<Arc<DedupPatch>> {
        self.inner.lock().get(&path_key).cloned()
    }

    /// Inserts a patch for a path unless one exists; returns the canonical
    /// patch for that path (first writer wins, so concurrent parfor workers
    /// converge on one patch instance).
    pub fn insert(&self, patch: Arc<DedupPatch>) -> Arc<DedupPatch> {
        let mut map = self.inner.lock();
        map.entry(patch.path_key()).or_insert(patch).clone()
    }

    /// True once every distinct control path has a patch — per-iteration
    /// lineage tracing can then stop (only path bits + seeds are recorded).
    pub fn is_complete(&self) -> bool {
        self.inner.lock().len() as u64 >= self.num_distinct_paths
    }

    /// Number of patches traced so far.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no patch has been traced yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Snapshot of all patches (for serialization).
    pub fn patches(&self) -> Vec<Arc<DedupPatch>> {
        self.inner.lock().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::lineage_eq;

    /// Builds the patch for `out = (in0 + in1) * in0`.
    fn sample_patch() -> Arc<DedupPatch> {
        let p0 = LineageItem::placeholder(0);
        let p1 = LineageItem::placeholder(1);
        let sum = LineageItem::op("+", vec![p0.clone(), p1]);
        let out = LineageItem::op("*", vec![sum, p0]);
        DedupPatch::new("loop:test", 0, 2, vec![("out".into(), out)])
    }

    fn leaf(name: &str) -> LinRef {
        LineageItem::op_with_data("read", name, vec![])
    }

    #[test]
    fn expansion_substitutes_placeholders() {
        let patch = sample_patch();
        let (a, b) = (leaf("A"), leaf("B"));
        let expanded = patch.expand("out", &[a.clone(), b.clone()]);
        // Expected: (A + B) * A
        let expect = LineageItem::op("*", vec![LineageItem::op("+", vec![a.clone(), b]), a]);
        assert!(lineage_eq(&expanded, &expect));
    }

    #[test]
    fn dedup_item_hash_equals_expansion_hash() {
        let patch = sample_patch();
        let (a, b) = (leaf("A"), leaf("B"));
        let dedup = LineageItem::dedup(patch.clone(), "out", vec![a.clone(), b.clone()]);
        let expanded = patch.expand("out", &[a, b]);
        assert_eq!(dedup.hash_value(), expanded.hash_value());
        assert!(lineage_eq(&dedup, &expanded));
    }

    #[test]
    fn dedup_items_with_different_inputs_differ() {
        let patch = sample_patch();
        let d1 = LineageItem::dedup(patch.clone(), "out", vec![leaf("A"), leaf("B")]);
        let d2 = LineageItem::dedup(patch.clone(), "out", vec![leaf("A"), leaf("C")]);
        assert_ne!(d1.hash_value(), d2.hash_value());
        assert!(!lineage_eq(&d1, &d2));
        let d3 = LineageItem::dedup(patch, "out", vec![leaf("A"), leaf("B")]);
        assert!(lineage_eq(&d1, &d3));
    }

    #[test]
    fn chained_dedup_items_model_loop_iterations() {
        // Mimics PageRank (Example 4): p_{k+1} = patch(G, p_k).
        let p0 = LineageItem::placeholder(0);
        let p1 = LineageItem::placeholder(1);
        let body = LineageItem::op("+", vec![LineageItem::op("ba+*", vec![p0, p1.clone()]), p1]);
        let patch = DedupPatch::new("loop:pr", 0, 2, vec![("p".into(), body)]);
        let g = leaf("G");
        let mut p = leaf("p");
        for _ in 0..3 {
            p = LineageItem::dedup(patch.clone(), "p", vec![g.clone(), p]);
        }
        // Expanded equivalent.
        let mut q = leaf("p");
        for _ in 0..3 {
            q = LineageItem::op(
                "+",
                vec![LineageItem::op("ba+*", vec![g.clone(), q.clone()]), q],
            );
        }
        assert_eq!(p.hash_value(), q.hash_value());
        assert!(lineage_eq(&p, &q));
        // Deduplicated DAG is much smaller: 3 dedup items + 2 leaves.
        assert_eq!(p.dag_size(), 5);
        assert_eq!(q.dag_size(), 8);
    }

    #[test]
    fn path_tracer_builds_bitvector() {
        let mut t = PathTracer::new();
        t.record_branch(0, true);
        t.record_branch(1, false);
        t.record_branch(2, true);
        assert_eq!(t.path_key(), 0b101);
        t.record_seed(42);
        assert_eq!(t.seeds(), &[42]);
    }

    #[test]
    fn registry_completes_when_all_paths_traced() {
        let reg = DedupRegistry::new("loop:x", 1); // 2 paths
        assert!(reg.is_empty());
        assert!(!reg.is_complete());
        let p0 = LineageItem::placeholder(0);
        reg.insert(DedupPatch::new(
            "loop:x",
            0,
            1,
            vec![("o".into(), p0.clone())],
        ));
        assert!(!reg.is_complete());
        reg.insert(DedupPatch::new("loop:x", 1, 1, vec![("o".into(), p0)]));
        assert!(reg.is_complete());
        assert_eq!(reg.len(), 2);
        assert!(reg.get(0).is_some());
        assert!(reg.get(2).is_none());
    }

    #[test]
    fn registry_first_writer_wins() {
        let reg = DedupRegistry::new("loop:y", 0);
        let ph = LineageItem::placeholder(0);
        let a = DedupPatch::new("loop:y", 0, 1, vec![("o".into(), ph.clone())]);
        let b = DedupPatch::new("loop:y", 0, 1, vec![("o".into(), ph)]);
        let first = reg.insert(a.clone());
        let second = reg.insert(b);
        assert_eq!(first.patch_id(), a.patch_id());
        assert_eq!(second.patch_id(), a.patch_id());
    }

    #[test]
    fn seeds_as_patch_inputs_keep_iterations_distinct() {
        // Non-determinism handling: seed is an input placeholder, so two
        // iterations with different seeds produce different lineage.
        let data = LineageItem::placeholder(0);
        let seed = LineageItem::placeholder(1);
        let body = LineageItem::op("*", vec![data, seed]);
        let patch = DedupPatch::new("loop:nd", 0, 2, vec![("o".into(), body)]);
        let x = leaf("X");
        let s1 = LineageItem::literal("i:42");
        let s2 = LineageItem::literal("i:43");
        let d1 = LineageItem::dedup(patch.clone(), "o", vec![x.clone(), s1]);
        let d2 = LineageItem::dedup(patch, "o", vec![x, s2]);
        assert!(!lineage_eq(&d1, &d2));
    }

    /// Two outputs over a shared product, one literal, and an output that is
    /// a bare placeholder: `q = (in0 * in1) + 2`, `r = (in0 * in1) - in2`,
    /// `same = in1`.
    fn two_output_patch() -> Arc<DedupPatch> {
        let ph = |s| LineageItem::placeholder(s);
        let prod = LineageItem::op("*", vec![ph(0), ph(1)]);
        let q = LineageItem::op("+", vec![prod.clone(), LineageItem::literal("f:2")]);
        let r = LineageItem::op("-", vec![prod, ph(2)]);
        DedupPatch::new(
            "loop:two",
            0,
            3,
            vec![("q".into(), q), ("r".into(), r), ("same".into(), ph(1))],
        )
    }

    #[test]
    fn plan_lists_what_each_output_depends_on() {
        let patch = two_output_patch();
        let plan = patch.plan();
        // prod, literal, q, r — placeholders are not nodes.
        assert_eq!(plan.len(), 4);
        let root = |name| plan.root(patch.root_index(name).unwrap()).unwrap();
        let (q, r, same) = (root("q"), root("r"), root("same"));
        assert_eq!((q.reach().len(), q.slots()), (3, &[0u32, 1][..]));
        assert_eq!((r.reach().len(), r.slots()), (2, &[0u32, 1, 2][..]));
        assert_eq!((same.reach().len(), same.slots()), (0, &[1u32][..]));
        assert_eq!(same.value(), PlanRef::Slot(1));
        // The shared product is one node, reached by both outputs, and every
        // node only reads slots and earlier nodes.
        let shared = q.reach().iter().filter(|n| r.reach().contains(n));
        assert_eq!(shared.count(), 1);
        for n in 0..plan.len() as u32 {
            for arg in plan.node_args(n) {
                assert!(
                    matches!(arg, PlanRef::Slot(_)) || matches!(arg, PlanRef::Node(j) if *j < n)
                );
            }
        }
    }

    #[test]
    fn every_output_hashes_and_compares_as_its_expansion() {
        let patch = two_output_patch();
        let inputs = vec![leaf("A"), leaf("B"), leaf("C")];
        for (name, _) in patch.roots() {
            let item = LineageItem::dedup(patch.clone(), name, inputs.clone());
            let expanded = patch.expand(name, &inputs);
            assert_eq!(item.hash_value(), expanded.hash_value(), "output {name}");
            assert!(lineage_eq(&item, &expanded), "output {name}");
        }
        let plain_q = LineageItem::op(
            "+",
            vec![
                LineageItem::op("*", vec![leaf("A"), leaf("B")]),
                LineageItem::literal("f:2"),
            ],
        );
        assert!(lineage_eq(&patch.expand("q", &inputs), &plain_q));
        assert!(Arc::ptr_eq(&patch.expand("same", &inputs), &inputs[1]));
    }

    #[test]
    fn malformed_uses_do_not_panic_in_hash_or_expand() {
        let patch = two_output_patch();
        // Too few inputs: the missing slot hashes as unbound and expands to
        // a placeholder; an unknown output gets its tagged fallback.
        let short = vec![leaf("A"), leaf("B")];
        let item = LineageItem::dedup(patch.clone(), "r", short.clone());
        assert_eq!(
            item.hash_value(),
            patch.hash_output("r", |i| short.get(i).map(|s| s.hash_value()))
        );
        assert_eq!(patch.expand("r", &short).dag_size(), 5);
        assert_eq!(patch.expand("nope", &short).opcode(), "dedup-miss");
        assert_ne!(
            patch.hash_output("nope", |i| Some(i as u64)),
            patch.hash_output("none", |i| Some(i as u64))
        );
    }

    #[test]
    fn body_size_counts_unique_nodes() {
        let patch = sample_patch();
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<LinRef> = patch.roots.iter().map(|(_, r)| r.clone()).collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n.id()) {
                stack.extend(n.inputs().iter().cloned());
            }
        }
        assert_eq!(seen.len(), 4); // 2 placeholders + "+" + "*"
    }
}
