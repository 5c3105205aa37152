//! Lineage DAG verification: structural invariants every well-formed trace
//! must satisfy (consumed by debug-mode interpreter assertions, persistent
//! cache recovery, and the `lima-lint` CLI in `lima-analysis`).
//!
//! Checked invariants:
//!
//! * **Acyclicity / id identity** — node ids are unique: the same id never
//!   names two structurally distinct nodes (a cycle in a serialized log can
//!   only be smuggled in through id reuse, since in-memory DAGs are
//!   immutable).
//! * **Placeholder well-formedness** — placeholder leaves appear only inside
//!   dedup patch bodies, and their slot index addresses a declared patch
//!   input.
//! * **Dedup consistency** — a dedup item's input arity matches its patch's
//!   `num_inputs`, its output name resolves to a patch root, and no two
//!   patches claim the same `(block_key, path_key)` bitvector with different
//!   bodies.
//! * **Hash/equality coherence** — a dedup item hashes identically to its
//!   expansion (the property that lets deduplicated and plain traces compare
//!   equal, paper §3.2). Both sides are functions of the patch output alone
//!   (the inputs enter only as opaque hashes), so the check runs once per
//!   `(patch, output)`, on the first item that uses it.

use crate::lineage::dedup::DedupPatch;
use crate::lineage::item::{FxBuildHasher, LinRef, LineageKind};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What invariant a lineage DAG violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyErrorKind {
    /// The same node id names two distinct nodes (or forms a cycle).
    DuplicateId,
    /// A placeholder leaf is reachable outside any dedup patch body.
    PlaceholderOutsidePatch,
    /// A placeholder slot index is `>= num_inputs` of its patch.
    PlaceholderSlotOutOfRange,
    /// A dedup item's input count differs from its patch's `num_inputs`.
    DedupArityMismatch,
    /// A dedup item names an output its patch does not define.
    UnknownPatchOutput,
    /// Two patches claim the same `(block_key, path_key)` with different
    /// bodies — the path bitvector no longer identifies a unique patch.
    PatchConflict,
    /// A dedup item's memoized hash differs from its expansion's hash.
    HashIncoherence,
}

impl std::fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VerifyErrorKind::DuplicateId => "duplicate-id",
            VerifyErrorKind::PlaceholderOutsidePatch => "placeholder-outside-patch",
            VerifyErrorKind::PlaceholderSlotOutOfRange => "placeholder-slot-out-of-range",
            VerifyErrorKind::DedupArityMismatch => "dedup-arity-mismatch",
            VerifyErrorKind::UnknownPatchOutput => "unknown-patch-output",
            VerifyErrorKind::PatchConflict => "patch-conflict",
            VerifyErrorKind::HashIncoherence => "hash-incoherence",
        };
        f.write_str(s)
    }
}

/// A violated lineage invariant, with the offending node when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Id of the offending lineage node, when attributable to one.
    pub node: Option<u64>,
    /// Which invariant was violated.
    pub kind: VerifyErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(id) => write!(f, "[{}] node ({id}): {}", self.kind, self.message),
            None => write!(f, "[{}] {}", self.kind, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn verr(node: Option<u64>, kind: VerifyErrorKind, message: impl Into<String>) -> VerifyError {
    VerifyError {
        node,
        kind,
        message: message.into(),
    }
}

/// Incremental lineage verifier. State persists across calls, so verifying a
/// growing trace after every block re-checks only the newly added nodes (the
/// interpreter's debug-mode hook relies on this being O(new nodes)).
#[derive(Debug, Default)]
pub struct Verifier {
    /// id → structural hash of the node already verified under that id
    /// (ids come from this process' own counter, never from a log).
    seen: HashMap<u64, u64, FxBuildHasher>,
    /// Patch ids whose bodies have been verified.
    patches_done: HashSet<u64>,
    /// `(patch id, output index)` pairs whose hash/expansion coherence has
    /// been checked.
    coherent: HashSet<(u64, usize)>,
    /// `(block_key, path_key)` → (patch_id, body signature).
    path_index: HashMap<(String, u64), (u64, u64)>,
}

impl Verifier {
    /// Fresh verifier with no memoized state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies every invariant on the DAG rooted at `root`, reusing state
    /// from previous calls. Returns the first violation found.
    pub fn verify(&mut self, root: &LinRef) -> Result<(), VerifyError> {
        self.verify_from(root, None)
    }

    /// Walks the DAG under `root`; `patch_bound` carries the `num_inputs` of
    /// the enclosing patch body (None outside any patch). Recursion depth is
    /// the patch nesting depth, not the DAG height.
    fn verify_from(
        &mut self,
        root: &LinRef,
        patch_bound: Option<usize>,
    ) -> Result<(), VerifyError> {
        // The next node is held beside the stack, which only the other
        // inputs of wider nodes go through: re-verifying a trace that has not
        // grown (every live variable, after every block, in debug builds)
        // and walking a unary chain allocate nothing.
        let mut stack: Vec<&LinRef> = Vec::new();
        let mut next = Some(root);
        while let Some(node) = next.take().or_else(|| stack.pop()) {
            let h = node.hash_value();
            match self.seen.get(&node.id()) {
                Some(prev) if *prev == h => continue,
                Some(_) => {
                    return Err(verr(
                        Some(node.id()),
                        VerifyErrorKind::DuplicateId,
                        "id names two structurally distinct nodes",
                    ));
                }
                None => {
                    self.seen.insert(node.id(), h);
                }
            }
            match node.kind() {
                LineageKind::Placeholder(slot) => match patch_bound {
                    None => {
                        return Err(verr(
                            Some(node.id()),
                            VerifyErrorKind::PlaceholderOutsidePatch,
                            format!("placeholder slot {slot} reachable outside any patch body"),
                        ));
                    }
                    Some(n) if *slot as usize >= n => {
                        return Err(verr(
                            Some(node.id()),
                            VerifyErrorKind::PlaceholderSlotOutOfRange,
                            format!("slot {slot} out of range for patch with {n} inputs"),
                        ));
                    }
                    Some(_) => {}
                },
                LineageKind::Dedup(patch) => self.check_dedup_node(node, patch)?,
                LineageKind::Literal | LineageKind::Op(_) => {}
            }
            // Last input first, as popping the whole list off a stack would.
            if let Some((last, rest)) = node.inputs().split_last() {
                next = Some(last);
                stack.extend(rest);
            }
        }
        Ok(())
    }

    fn check_dedup_node(
        &mut self,
        node: &LinRef,
        patch: &Arc<DedupPatch>,
    ) -> Result<(), VerifyError> {
        if node.inputs().len() != patch.num_inputs() {
            return Err(verr(
                Some(node.id()),
                VerifyErrorKind::DedupArityMismatch,
                format!(
                    "dedup item has {} inputs, patch '{}' expects {}",
                    node.inputs().len(),
                    patch.block_key(),
                    patch.num_inputs()
                ),
            ));
        }
        let output = node.data().unwrap_or("");
        let Some(output_idx) = patch.root_index(output) else {
            return Err(verr(
                Some(node.id()),
                VerifyErrorKind::UnknownPatchOutput,
                format!("patch '{}' defines no output '{output}'", patch.block_key()),
            ));
        };
        if self.patches_done.insert(patch.patch_id()) {
            // Verify the patch body once — eagerly, so a malformed body is
            // reported as its own violation rather than surfacing as a
            // downstream hash incoherence.
            for (_, proot) in patch.roots() {
                self.verify_from(proot, Some(patch.num_inputs()))?;
            }
            // The path bitvector must identify this patch uniquely within its
            // block: a second, structurally different patch for the same
            // (block_key, path_key) means the bitvector was corrupted.
            let sig = patch_signature(patch);
            let key = (patch.block_key().to_string(), patch.path_key());
            match self.path_index.get(&key) {
                Some((pid, prev_sig)) if *pid != patch.patch_id() && *prev_sig != sig => {
                    return Err(verr(
                        Some(node.id()),
                        VerifyErrorKind::PatchConflict,
                        format!(
                            "patches {} and {} both claim block '{}' path {:#b} with different bodies",
                            pid,
                            patch.patch_id(),
                            patch.block_key(),
                            patch.path_key()
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    self.path_index.insert(key, (patch.patch_id(), sig));
                }
            }
        }
        // Hash/equality coherence: the dedup item must hash exactly as its
        // expansion does, otherwise cache probes on deduplicated traces stop
        // matching plain traces. The expansion is built for this check only
        // and dropped: pinning one in every item would undo the dedup.
        if self.coherent.insert((patch.patch_id(), output_idx)) {
            let expanded = patch.expand(output, node.inputs());
            if node.hash_value() != expanded.hash_value() {
                return Err(verr(
                    Some(node.id()),
                    VerifyErrorKind::HashIncoherence,
                    format!(
                        "dedup item hash {:#x} != expansion hash {:#x}",
                        node.hash_value(),
                        expanded.hash_value()
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Structural signature of a patch body: output names plus root hashes
/// (placeholders hash by slot, so two bodies match iff they compute the same
/// function of their inputs).
fn patch_signature(patch: &DedupPatch) -> u64 {
    let mut parts: Vec<u64> = patch
        .roots()
        .iter()
        .map(|(name, root)| crate::lineage::item::hash_parts(name, None, &[root.hash_value()]))
        .collect();
    parts.sort_unstable();
    crate::lineage::item::hash_parts("patch-sig", None, &parts)
}

/// One-shot verification of a single DAG (see [`Verifier`] for the
/// incremental form).
pub fn verify_dag(root: &LinRef) -> Result<(), VerifyError> {
    Verifier::new().verify(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;

    fn leaf(name: &str) -> LinRef {
        LineageItem::op_with_data("read", name, vec![])
    }

    fn sample_patch() -> Arc<DedupPatch> {
        let p0 = LineageItem::placeholder(0);
        let p1 = LineageItem::placeholder(1);
        let sum = LineageItem::op("+", vec![p0.clone(), p1]);
        let out = LineageItem::op("*", vec![sum, p0]);
        DedupPatch::new("loop:test", 0, 2, vec![("out".into(), out)])
    }

    #[test]
    fn accepts_plain_and_dedup_dags() {
        let x = leaf("X");
        let root = LineageItem::op("+", vec![x.clone(), x]);
        assert!(verify_dag(&root).is_ok());

        let patch = sample_patch();
        let mut p = leaf("p");
        for _ in 0..3 {
            p = LineageItem::dedup(patch.clone(), "out", vec![leaf("G"), p]);
        }
        assert!(verify_dag(&p).is_ok());
    }

    #[test]
    fn rejects_bare_placeholder() {
        let ph = LineageItem::placeholder(0);
        let root = LineageItem::op("+", vec![ph, leaf("X")]);
        let err = verify_dag(&root).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::PlaceholderOutsidePatch);
        assert!(err.node.is_some());
    }

    #[test]
    fn rejects_slot_out_of_range() {
        // Patch declares 1 input but its body references slot 5.
        let ph = LineageItem::placeholder(5);
        let body = LineageItem::op("exp", vec![ph]);
        let patch = DedupPatch::new("loop:bad", 0, 1, vec![("o".into(), body)]);
        let d = LineageItem::dedup(patch, "o", vec![leaf("X")]);
        let err = verify_dag(&d).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::PlaceholderSlotOutOfRange);
    }

    #[test]
    fn rejects_arity_mismatch() {
        let patch = sample_patch(); // expects 2 inputs
        let d = LineageItem::dedup(patch, "out", vec![leaf("X")]);
        let err = verify_dag(&d).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::DedupArityMismatch);
    }

    #[test]
    fn rejects_unknown_output() {
        let patch = sample_patch();
        let d = LineageItem::dedup(patch, "nope", vec![leaf("X"), leaf("Y")]);
        let err = verify_dag(&d).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::UnknownPatchOutput);
    }

    #[test]
    fn rejects_path_key_conflict() {
        // Two structurally different patches claiming the same block+path.
        let b1 = LineageItem::op("exp", vec![LineageItem::placeholder(0)]);
        let b2 = LineageItem::op("log", vec![LineageItem::placeholder(0)]);
        let p1 = DedupPatch::new("loop:k", 1, 1, vec![("o".into(), b1)]);
        let p2 = DedupPatch::new("loop:k", 1, 1, vec![("o".into(), b2)]);
        let d1 = LineageItem::dedup(p1, "o", vec![leaf("X")]);
        let d2 = LineageItem::dedup(p2, "o", vec![leaf("Y")]);
        let root = LineageItem::op("+", vec![d1, d2]);
        let err = verify_dag(&root).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::PatchConflict);
    }

    #[test]
    fn identical_patch_bodies_may_share_a_path_key() {
        // First-writer-wins races can produce two patch instances with equal
        // bodies; that is benign and must not be flagged.
        let mk = || {
            let b = LineageItem::op("exp", vec![LineageItem::placeholder(0)]);
            DedupPatch::new("loop:k", 1, 1, vec![("o".into(), b)])
        };
        let d1 = LineageItem::dedup(mk(), "o", vec![leaf("X")]);
        let d2 = LineageItem::dedup(mk(), "o", vec![leaf("Y")]);
        let root = LineageItem::op("+", vec![d1, d2]);
        assert!(verify_dag(&root).is_ok());
    }

    #[test]
    fn incremental_verifier_reuses_state() {
        let mut v = Verifier::new();
        let x = leaf("X");
        let a = LineageItem::op("exp", vec![x.clone()]);
        assert!(v.verify(&a).is_ok());
        // Growing the trace re-verifies only the new node.
        let b = LineageItem::op("+", vec![a, x]);
        assert!(v.verify(&b).is_ok());
    }
}
