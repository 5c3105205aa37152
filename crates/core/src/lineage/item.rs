//! Lineage items and lineage DAGs (paper §3.1, Definition 1).
//!
//! A lineage item consists of an ID, an opcode, an ordered list of input
//! lineage items, an optional data string, and a memoized hash. Leaf nodes
//! are literals or matrix-creation operations (`read`, `rand`); inner nodes
//! are executed operations. The DAG is immutable, which lets hashes be cached
//! once computed.
//!
//! Two concerns from the paper shape this module:
//!
//! * **Large DAGs** — hashing, equality, and traversal are all implemented
//!   non-recursively (explicit stacks plus memo tables), because loop-heavy
//!   programs produce DAGs whose height far exceeds any sane stack budget.
//! * **Deduplication** — a [`LineageKind::Dedup`] item stands for a whole
//!   *lineage patch* applied to its inputs. Its hash is defined to equal the
//!   hash of the expanded sub-DAG, and equality resolves dedup items on
//!   demand, so deduplicated and plain traces compare as equivalent
//!   (paper §3.2, "Operations on Deduplicated Graphs").

use crate::lineage::dedup::DedupPatch;
use crate::opcodes::{opcode_info, OpcodeInfo};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared reference to an immutable lineage item.
pub type LinRef = Arc<LineageItem>;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// What kind of node a lineage item is.
#[derive(Debug, Clone)]
pub enum LineageKind {
    /// A literal constant; `data` holds the type-tagged encoding.
    Literal,
    /// A regular operation (including creation ops like `read`/`rand`, whose
    /// parameters — notably system-generated seeds — live in `data`), with
    /// its opcode's classification, resolved once as the item is built so a
    /// cache probe or put does not look the opcode up again.
    Op(OpcodeInfo),
    /// A placeholder leaf inside a dedup or fused-operator patch; the payload
    /// is the input slot index.
    Placeholder(u32),
    /// A deduplicated sub-DAG: applying `patch` to this item's inputs yields
    /// the represented computation. `data` holds the patch output name.
    Dedup(Arc<DedupPatch>),
}

/// The ordered inputs of a lineage item. Nearly every traced operation is
/// unary or binary, so up to two inputs live inside the item and only wider
/// fan-in (function calls, fused operators, `list`) takes a heap block: a
/// traced item is one allocation.
#[derive(Default)]
enum Inputs {
    #[default]
    None,
    One(LinRef),
    Two([LinRef; 2]),
    Many(Box<[LinRef]>),
}

impl Inputs {
    fn as_slice(&self) -> &[LinRef] {
        match self {
            Inputs::None => &[],
            Inputs::One(a) => std::slice::from_ref(a),
            Inputs::Two(ab) => ab,
            Inputs::Many(items) => items,
        }
    }

    /// Hands every input to `f` by value, in order.
    fn drain(self, mut f: impl FnMut(LinRef)) {
        match self {
            Inputs::None => {}
            Inputs::One(a) => f(a),
            Inputs::Two(ab) => ab.into_iter().for_each(f),
            Inputs::Many(items) => items.into_vec().into_iter().for_each(f),
        }
    }
}

impl FromIterator<LinRef> for Inputs {
    fn from_iter<I: IntoIterator<Item = LinRef>>(iter: I) -> Self {
        let mut it = iter.into_iter().fuse();
        match (it.next(), it.next(), it.next()) {
            (None, ..) => Inputs::None,
            (Some(a), None, _) => Inputs::One(a),
            (Some(a), Some(b), None) => Inputs::Two([a, b]),
            (Some(a), Some(b), Some(c)) => Inputs::Many([a, b, c].into_iter().chain(it).collect()),
        }
    }
}

/// A node in a lineage DAG. See module docs.
///
/// ```
/// use lima_core::lineage::item::{lineage_eq, LineageItem};
///
/// // Two independently built but structurally equal traces of (X + X) * 2.
/// let build = || {
///     let x = LineageItem::op_with_data("read", "X.csv", vec![]);
///     let s = LineageItem::op("+", vec![x.clone(), x]);
///     LineageItem::op("*", vec![s, LineageItem::literal("f:2")])
/// };
/// let (a, b) = (build(), build());
/// assert_eq!(a.hash_value(), b.hash_value());
/// assert!(lineage_eq(&a, &b));
/// ```
pub struct LineageItem {
    id: u64,
    /// Borrowed for every opcode the system itself emits; only `fcall:<name>`,
    /// `spoof<N>` and opcodes of foreign logs own their text.
    opcode: Cow<'static, str>,
    data: Option<Box<str>>,
    inputs: Inputs,
    kind: LineageKind,
    hash: OnceLock<u64>,
    /// Memoized DAG height (leaf distance), used by the DAG-Height eviction
    /// policy; cached so registering deep traces stays O(1) amortized.
    /// [`HEIGHT_UNKNOWN`] until measured. A pure function of the immutable
    /// structure below, so it is read and written `Relaxed`: racing writers
    /// store the same number and it publishes nothing else.
    height: AtomicU32,
    /// Shape of the (matrix) value this item produced, registered by the
    /// runtime after execution. Rewrites use it to size compensation plans;
    /// it does not participate in hashing or equality. Advisory, and kept to
    /// 32 bits a side so the item stays at its size: a dimension beyond that
    /// is not recorded.
    shape: OnceLock<(u32, u32)>,
    /// Memoized expansion of a dedup item into a plain sub-DAG (only used on
    /// the rare equality paths that must resolve the patch).
    expanded: OnceLock<LinRef>,
}

/// `height` before it has been measured; no DAG is this deep.
const HEIGHT_UNKNOWN: u32 = u32::MAX;

impl Drop for LineageItem {
    fn drop(&mut self) {
        // Deep traces (hundreds of thousands of chained items) would blow the
        // stack under the default recursive drop; detach children iteratively.
        // A child somebody else still holds is only released, and a child that
        // dies here is dropped childless, so neither recurses; the stack (and
        // its allocation) is touched only when a dying child has children.
        let mut stack: Vec<Inputs> = Vec::new();
        stack.extend(self.expanded.take().map(Inputs::One));
        let mut next = Some(std::mem::take(&mut self.inputs));
        while let Some(inputs) = next {
            inputs.drain(|item| {
                if let Some(mut inner) = Arc::into_inner(item) {
                    let below = std::mem::take(&mut inner.inputs);
                    if !matches!(below, Inputs::None) {
                        stack.push(below);
                    }
                    stack.extend(inner.expanded.take().map(Inputs::One));
                }
            });
            next = stack.pop();
        }
    }
}

impl std::fmt::Debug for LineageItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}) {}", self.id, self.opcode)?;
        if let Some(d) = &self.data {
            write!(f, " [{d}]")?;
        }
        if !self.is_leaf() {
            write!(
                f,
                " <- {:?}",
                self.inputs().iter().map(|i| i.id).collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

impl LineageItem {
    fn alloc(
        opcode: Cow<'static, str>,
        data: Option<Box<str>>,
        inputs: Inputs,
        kind: LineageKind,
    ) -> LinRef {
        Arc::new(LineageItem {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            opcode,
            data,
            inputs,
            kind,
            hash: OnceLock::new(),
            height: AtomicU32::new(HEIGHT_UNKNOWN),
            shape: OnceLock::new(),
            expanded: OnceLock::new(),
        })
    }

    /// Creates a literal leaf from its type-tagged encoding
    /// (see `ScalarValue::lineage_literal`).
    pub fn literal(encoded: impl Into<Box<str>>) -> LinRef {
        Self::alloc(
            Cow::Borrowed(crate::opcodes::LITERAL),
            Some(encoded.into()),
            Inputs::default(),
            LineageKind::Literal,
        )
    }

    /// Creates a regular operation node. A static opcode is borrowed, not
    /// copied; text read at run time goes through
    /// [`crate::opcodes::resolve`] first. Inputs come as a `Vec` or, without
    /// that allocation, as an array or any other iterator.
    pub fn op(
        opcode: impl Into<Cow<'static, str>>,
        inputs: impl IntoIterator<Item = LinRef>,
    ) -> LinRef {
        let opcode = opcode.into();
        let info = opcode_info(&opcode);
        Self::resolved(opcode, info, None, inputs)
    }

    /// Creates a regular operation node with a data payload (creation
    /// parameters, slicing bounds, captured seeds, ...).
    pub fn op_with_data(
        opcode: impl Into<Cow<'static, str>>,
        data: impl Into<Box<str>>,
        inputs: impl IntoIterator<Item = LinRef>,
    ) -> LinRef {
        let opcode = opcode.into();
        let info = opcode_info(&opcode);
        Self::resolved(opcode, info, Some(data.into()), inputs)
    }

    /// [`Self::op`] / [`Self::op_with_data`] for an opcode whose table entry
    /// the caller already holds (an instruction's compile-time
    /// [`OpcodeInfo`], a parsed opcode): nothing is looked up.
    pub fn resolved(
        opcode: Cow<'static, str>,
        info: OpcodeInfo,
        data: Option<Box<str>>,
        inputs: impl IntoIterator<Item = LinRef>,
    ) -> LinRef {
        let inputs = inputs.into_iter().collect();
        Self::alloc(opcode, data, inputs, LineageKind::Op(info))
    }

    /// Creates a placeholder leaf for patch input slot `slot`.
    pub fn placeholder(slot: u32) -> LinRef {
        Self::alloc(
            Cow::Borrowed(crate::opcodes::PLACEHOLDER),
            None,
            Inputs::default(),
            LineageKind::Placeholder(slot),
        )
    }

    /// Creates a dedup item standing for `patch` applied to `inputs`;
    /// `output` selects which patch root this item represents.
    pub fn dedup(
        patch: Arc<DedupPatch>,
        output: &str,
        inputs: impl IntoIterator<Item = LinRef>,
    ) -> LinRef {
        Self::alloc(
            Cow::Borrowed(crate::opcodes::DEDUP),
            Some(output.into()),
            inputs.into_iter().collect(),
            LineageKind::Dedup(patch),
        )
    }

    /// Unique node ID (process-wide).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opcode string.
    pub fn opcode(&self) -> &str {
        &self.opcode
    }

    /// The opcode as another item can hold it: static text is shared, only
    /// owned text (`fcall:<name>`, foreign opcodes) is copied.
    pub fn opcode_shared(&self) -> Cow<'static, str> {
        self.opcode.clone()
    }

    /// Optional data payload.
    pub fn data(&self) -> Option<&str> {
        self.data.as_deref()
    }

    /// Ordered input items.
    pub fn inputs(&self) -> &[LinRef] {
        self.inputs.as_slice()
    }

    /// Node kind.
    pub fn kind(&self) -> &LineageKind {
        &self.kind
    }

    /// True when the opcode's output may enter a reuse cache (an operation
    /// whose table entry says so; never a literal, placeholder or dedup item).
    #[inline]
    pub fn cacheable(&self) -> bool {
        matches!(self.kind, LineageKind::Op(info) if info.cacheable)
    }

    /// The opcode's classification: the one the item carries, or for a
    /// literal, placeholder or dedup item the table's.
    pub fn info(&self) -> OpcodeInfo {
        match self.kind {
            LineageKind::Op(info) => info,
            _ => opcode_info(self.opcode()),
        }
    }

    /// True for leaves (literals, placeholders, and zero-input creations).
    pub fn is_leaf(&self) -> bool {
        self.inputs().is_empty()
    }

    /// Registers the shape of the produced matrix value (idempotent).
    pub fn set_shape(&self, rows: usize, cols: usize) {
        if let (Ok(rows), Ok(cols)) = (u32::try_from(rows), u32::try_from(cols)) {
            let _ = self.shape.set((rows, cols));
        }
    }

    /// Shape registered by the runtime, if any.
    pub fn shape(&self) -> Option<(usize, usize)> {
        let (rows, cols) = *self.shape.get()?;
        Some((rows as usize, cols as usize))
    }

    /// Memoized structural hash. Dedup items hash as their expansion would,
    /// computed parametrically over the patch (without materializing it).
    ///
    /// Fast path: on the instruction hot path every input is a previously
    /// hashed item or leaf, so the node hashes locally with no traversal
    /// stack and no allocation. The iterative post-order walk only runs for
    /// DAGs with genuinely unhashed interior nodes (deserialized traces,
    /// hand-built probes).
    pub fn hash_value(self: &Arc<Self>) -> u64 {
        if let Some(h) = self.hash.get() {
            return *h;
        }
        // A batch of one: hashes every unhashed node reachable from `self`.
        hash_batch(std::slice::from_ref(self));
        let hashed = self.hash.get().copied();
        hashed.unwrap_or_else(|| self.compute_local_hash())
    }

    /// True when every immediate input already carries a memoized hash.
    #[inline]
    fn inputs_hashed(&self) -> bool {
        self.inputs().iter().all(|i| i.hash.get().is_some())
    }

    /// Hash of this node assuming all inputs are hashed. For dedup items,
    /// runs the patch's compiled plan with placeholder slots bound to input
    /// hashes. Allocates nothing either way.
    fn compute_local_hash(&self) -> u64 {
        let input_hash = |i: &LinRef| i.hash.get().copied().unwrap_or_else(|| i.hash_value());
        match &self.kind {
            LineageKind::Dedup(patch) => {
                let output = self.data.as_deref().unwrap_or("");
                patch.hash_output(output, |slot| self.inputs().get(slot).map(input_hash))
            }
            LineageKind::Placeholder(slot) => {
                // Placeholders only get hashed when a patch body is hashed
                // directly (e.g. when serializing patches); they hash on slot.
                let mut h = FxHasher::default();
                h.write_u64(0x9e3779b97f4a7c15);
                h.write_u64(u64::from(*slot));
                h.finish()
            }
            _ => {
                let mut h = hash_prefix(&self.opcode, self.data.as_deref(), self.inputs().len());
                for i in self.inputs() {
                    h.write_u64(input_hash(i));
                }
                h.finish()
            }
        }
    }

    /// Expands a dedup item into a plain sub-DAG over this item's inputs.
    /// Plain items expand to themselves. The expansion is memoized.
    pub fn resolve(self: &Arc<Self>) -> LinRef {
        match &self.kind {
            LineageKind::Dedup(patch) => Arc::clone(self.expanded.get_or_init(|| {
                let output = self.data.as_deref().unwrap_or("");
                patch.expand(output, self.inputs())
            })),
            _ => Arc::clone(self),
        }
    }

    /// Number of reachable nodes (dedup items count as single nodes —
    /// this is the *deduplicated* size reported in Fig 6(b)).
    pub fn dag_size(self: &Arc<Self>) -> usize {
        self.topo_order().len()
    }

    /// Height of the DAG (leaf distance), used by the DAG-Height eviction
    /// policy. Computed iteratively and memoized per node, so repeated calls
    /// on growing traces stay O(1) amortized.
    pub fn height(self: &Arc<Self>) -> u32 {
        if let Some(h) = self.known_height() {
            return h;
        }
        let mut stack: Vec<&LinRef> = vec![self];
        while let Some(&top) = stack.last() {
            if top.known_height().is_some() {
                stack.pop();
            } else {
                // Once these are measured, `top` is measurable from them.
                stack.extend(top.inputs().iter().filter(|i| i.known_height().is_none()));
            }
        }
        self.known_height().unwrap_or(0)
    }

    /// The memoized height, or the height that follows at once from inputs
    /// that carry theirs (memoizing it) — as for hashing, a freshly traced
    /// instruction sits on inputs that were measured when they were probed,
    /// so no traversal stack (no allocation per cache probe) is needed.
    fn known_height(&self) -> Option<u32> {
        let known = |i: &LineageItem| {
            Some(i.height.load(Ordering::Relaxed)).filter(|h| *h != HEIGHT_UNKNOWN)
        };
        if let Some(h) = known(self) {
            return Some(h);
        }
        let below = self
            .inputs()
            .iter()
            .try_fold(0, |max: u32, i| Some(max.max(known(i)? + 1)));
        let h = below?.min(HEIGHT_UNKNOWN - 1);
        self.height.store(h, Ordering::Relaxed);
        Some(h)
    }

    /// Approximate in-memory size of the DAG in bytes (Fig 6(b)).
    pub fn dag_bytes(self: &Arc<Self>) -> usize {
        let owned = |n: &LinRef| match (&n.opcode, &n.inputs) {
            (Cow::Owned(text), Inputs::Many(wide)) => text.len() + std::mem::size_of_val(&**wide),
            (Cow::Owned(text), _) => text.len(),
            (_, Inputs::Many(wide)) => std::mem::size_of_val(&**wide),
            _ => 0,
        };
        let item = std::mem::size_of::<LineageItem>();
        let nodes = self.topo_order();
        let bytes = nodes
            .iter()
            .map(|n| item + owned(n) + n.data().map_or(0, str::len));
        bytes.sum()
    }

    /// Nodes of the DAG in topological order (inputs before consumers),
    /// computed iteratively. Dedup items are *not* expanded. Depth-first with
    /// the *last* input expanded first: the lineage-log line order follows
    /// from it, so it is part of the persisted format.
    pub fn topo_order(self: &Arc<Self>) -> Vec<LinRef> {
        let mut order = Vec::new();
        // false = open (inputs pushed), true = emitted. Ids are this
        // process' own counter, so the unkeyed hasher is safe here.
        let mut state: HashMap<u64, bool, FxBuildHasher> = HashMap::default();
        let mut stack: Vec<&LinRef> = vec![self];
        while let Some(&top) = stack.last() {
            match state.entry(top.id) {
                Entry::Occupied(mut e) => {
                    if !e.insert(true) {
                        order.push(Arc::clone(top));
                    }
                    stack.pop();
                }
                Entry::Vacant(e) => {
                    e.insert(false);
                    stack.extend(
                        top.inputs()
                            .iter()
                            .filter(|i| state.get(&i.id) != Some(&true)),
                    );
                }
            }
        }
        order
    }
}

/// Hashes every unhashed node reachable from `root`, reusing `stack` as the
/// traversal scratch. Iterative post-order: inputs are hashed before parents.
fn hash_into(root: &LinRef, stack: &mut Vec<LinRef>) {
    if root.hash.get().is_some() {
        return;
    }
    stack.push(Arc::clone(root));
    while let Some(top) = stack.last() {
        if top.hash.get().is_some() {
            stack.pop();
            continue;
        }
        let top = Arc::clone(top);
        let before = stack.len();
        for i in top.inputs() {
            if i.hash.get().is_none() {
                stack.push(Arc::clone(i));
            }
        }
        if stack.len() == before {
            let h = top.compute_local_hash();
            let _ = top.hash.set(h);
            stack.pop();
        }
    }
}

/// Hashes a run of lineage roots in one pass, sharing a single traversal
/// stack across the whole batch (a freshly parsed log, a set of probe keys).
/// Roots whose inputs are already memoized hash locally without touching the
/// stack at all. The interpreter does not call this: `LT` never reads a hash
/// and `LIMA` hashes each item at its probe, over inputs hashed at theirs.
///
/// Returns the number of roots that were actually hashed by this call (the
/// rest were already memoized).
pub fn hash_batch(roots: &[LinRef]) -> usize {
    let mut stack: Vec<LinRef> = Vec::new();
    let mut hashed = 0usize;
    for r in roots {
        if r.hash.get().is_some() {
            continue;
        }
        hashed += 1;
        if r.inputs_hashed() {
            let h = r.compute_local_hash();
            let _ = r.hash.set(h);
        } else {
            hash_into(r, &mut stack);
        }
    }
    hashed
}

/// True when `a` and `b` are the same kind of node with equal opcode and
/// data over pointer-identical inputs: the shape of an instruction re-traced
/// over the same live variables, and enough to call them equal without
/// looking below.
fn same_node_over_same_inputs(a: &LineageItem, b: &LineageItem) -> bool {
    let same_kind = match (&a.kind, &b.kind) {
        (LineageKind::Op(_), LineageKind::Op(_)) | (LineageKind::Literal, LineageKind::Literal) => {
            true
        }
        (LineageKind::Placeholder(x), LineageKind::Placeholder(y)) => x == y,
        (LineageKind::Dedup(p), LineageKind::Dedup(q)) => Arc::ptr_eq(p, q),
        _ => false,
    };
    same_kind
        && a.opcode == b.opcode
        && a.data == b.data
        && a.inputs().len() == b.inputs().len()
        && a.inputs()
            .iter()
            .zip(b.inputs())
            .all(|(x, y)| Arc::ptr_eq(x, y))
}

/// Structural equality of two lineage DAGs, resolving dedup items on demand.
/// Iterative with a memo set of already-matched node pairs; cheap hash
/// pruning short-circuits the common mismatch case, and roots that already
/// match over pointer-identical inputs are answered without any traversal
/// state (the cache-probe hot path allocates nothing for them).
pub fn lineage_eq(a: &LinRef, b: &LinRef) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    if a.hash_value() != b.hash_value() {
        return false;
    }
    if same_node_over_same_inputs(a, b) {
        return true;
    }
    let mut matched: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut stack: Vec<(LinRef, LinRef)> = vec![(Arc::clone(a), Arc::clone(b))];
    while let Some((x, y)) = stack.pop() {
        if Arc::ptr_eq(&x, &y) || !matched.insert((x.id, y.id)) {
            continue;
        }
        // Resolve dedup items so plain and deduplicated traces compare equal.
        let (x, y) = (x.resolve(), y.resolve());
        if Arc::ptr_eq(&x, &y) {
            continue;
        }
        if x.opcode != y.opcode || x.data != y.data || x.inputs().len() != y.inputs().len() {
            return false;
        }
        if let (LineageKind::Placeholder(sx), LineageKind::Placeholder(sy)) = (&x.kind, &y.kind) {
            if sx != sy {
                return false;
            }
        }
        for (ix, iy) in x.inputs().iter().zip(y.inputs()) {
            if ix.hash_value() != iy.hash_value() {
                return false;
            }
            stack.push((Arc::clone(ix), Arc::clone(iy)));
        }
    }
    true
}

/// Hash-map key wrapper giving [`LinRef`] value semantics: hashes by the
/// memoized structural hash and compares with [`lineage_eq`].
#[derive(Clone, Debug)]
pub struct LinKey(pub LinRef);

impl PartialEq for LinKey {
    fn eq(&self, other: &Self) -> bool {
        lineage_eq(&self.0, &other.0)
    }
}
impl Eq for LinKey {}
impl Hash for LinKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash_value());
    }
}

/// FxHash-style fast hasher: lineage hashing is hot (every instruction hashes
/// one node) and does not need DoS resistance.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // One mix round per 8-byte word instead of per byte. The trailing
        // partial word is zero-padded, so the length is mixed in last to keep
        // "ab" and "ab\0" distinct.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(w));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`. Used for the
/// variable/literal interning maps on the per-instruction path, which do not
/// need DoS resistance.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Hash state of a node after its opcode, data and input count: what is left
/// is one `write_u64` per input hash. Dedup patch plans keep this state per
/// body node, so hashing a dedup item never re-reads the body's strings.
pub(crate) fn hash_prefix(opcode: &str, data: Option<&str>, num_inputs: usize) -> FxHasher {
    let mut h = FxHasher::default();
    h.write(opcode.as_bytes());
    h.write_u8(0xfe);
    if let Some(d) = data {
        h.write(d.as_bytes());
    }
    h.write_u8(0xfd);
    h.write_usize(num_inputs);
    h
}

/// Combines opcode, data, and input hashes into a node hash.
/// The paper notes hash collisions from integer overflow on long repetitive
/// traces; the rotate-multiply mix plus a length salt avoids the classic
/// `31*h + x` degeneracies.
pub fn hash_parts(opcode: &str, data: Option<&str>, input_hashes: &[u64]) -> u64 {
    let mut h = hash_prefix(opcode, data, input_hashes.len());
    for &ih in input_hashes {
        h.write_u64(ih);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = LineageItem::literal("i:1");
        let b = LineageItem::literal("i:1");
        assert!(b.id() > a.id());
    }

    #[test]
    fn structurally_equal_dags_hash_and_compare_equal() {
        let build = || {
            let x = LineageItem::op_with_data("read", "X.csv", vec![]);
            let y = LineageItem::op_with_data("read", "y.csv", vec![]);
            let s = LineageItem::op("+", vec![x.clone(), y]);
            LineageItem::op("*", vec![s.clone(), s])
        };
        let a = build();
        let b = build();
        assert_eq!(a.hash_value(), b.hash_value());
        assert!(lineage_eq(&a, &b));
    }

    #[test]
    fn different_opcode_data_or_inputs_compare_unequal() {
        let x = LineageItem::op_with_data("read", "X.csv", vec![]);
        let y = LineageItem::op_with_data("read", "y.csv", vec![]);
        assert!(!lineage_eq(&x, &y));
        let a = LineageItem::op("+", vec![x.clone(), y.clone()]);
        let b = LineageItem::op("-", vec![x.clone(), y.clone()]);
        assert!(!lineage_eq(&a, &b));
        // Input order matters (ordered list of inputs).
        let c = LineageItem::op("+", vec![y, x]);
        assert!(!lineage_eq(&a, &c));
    }

    #[test]
    fn shallow_fast_path_agrees_with_the_full_walk() {
        let x = LineageItem::op_with_data("read", "X.csv", vec![]);
        let y = LineageItem::op_with_data("read", "y.csv", vec![]);
        // Re-traced over the same input objects: equal.
        let a = LineageItem::op_with_data("rightIndex", "1 8 1 4", vec![x.clone()]);
        let b = LineageItem::op_with_data("rightIndex", "1 8 1 4", vec![x.clone()]);
        assert!(same_node_over_same_inputs(&a, &b));
        assert!(lineage_eq(&a, &b));
        // Same inputs, other data / opcode / arity: unequal either way.
        let c = LineageItem::op_with_data("rightIndex", "9 16 1 4", vec![x.clone()]);
        assert!(!same_node_over_same_inputs(&a, &c));
        assert!(!lineage_eq(&a, &c));
        let p = LineageItem::op("+", vec![x.clone(), y.clone()]);
        let q = LineageItem::op("-", vec![x.clone(), y.clone()]);
        assert!(!same_node_over_same_inputs(&p, &q));
        assert!(!lineage_eq(&p, &q));
        // Structurally equal inputs that are different objects: the fast
        // path declines, the walk still finds them equal.
        let x2 = LineageItem::op_with_data("read", "X.csv", vec![]);
        let d = LineageItem::op_with_data("rightIndex", "1 8 1 4", vec![x2]);
        assert!(!same_node_over_same_inputs(&a, &d));
        assert!(lineage_eq(&a, &d));
        // Placeholders compare by slot even with no inputs to tell apart.
        assert!(!same_node_over_same_inputs(
            &LineageItem::placeholder(0),
            &LineageItem::placeholder(1)
        ));
    }

    #[test]
    fn deep_chain_hashing_does_not_overflow_stack() {
        let mut node = LineageItem::literal("f:0");
        for _ in 0..200_000 {
            node = LineageItem::op("+", vec![node]);
        }
        // Must not stack-overflow and must terminate.
        let h = node.hash_value();
        assert_ne!(h, 0);
        assert_eq!(node.dag_size(), 200_001);
        assert_eq!(node.height(), 200_000);
    }

    #[test]
    fn deep_equal_chains_compare_without_recursion() {
        let build = |n: usize| {
            let mut node = LineageItem::literal("f:0");
            for _ in 0..n {
                node = LineageItem::op("+", vec![node]);
            }
            node
        };
        let a = build(50_000);
        let b = build(50_000);
        assert!(lineage_eq(&a, &b));
        let c = build(50_001);
        assert!(!lineage_eq(&a, &c));
    }

    #[test]
    fn shared_subgraphs_counted_once() {
        let x = LineageItem::literal("f:1");
        let a = LineageItem::op("+", vec![x.clone(), x.clone()]);
        let b = LineageItem::op("*", vec![a.clone(), a]);
        assert_eq!(b.dag_size(), 3);
        assert_eq!(b.height(), 2);
    }

    #[test]
    fn topo_order_puts_inputs_first() {
        let x = LineageItem::literal("f:1");
        let y = LineageItem::op("exp", vec![x.clone()]);
        let z = LineageItem::op("+", vec![x.clone(), y.clone()]);
        let order = z.topo_order();
        let pos = |n: &LinRef| order.iter().position(|o| o.id() == n.id()).unwrap();
        assert!(pos(&x) < pos(&y));
        assert!(pos(&y) < pos(&z));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn verifying_a_dedup_dag_pins_no_expansion() {
        // p_{k+1} = (G ba+* p_k) + p_k, 1 000 deduplicated iterations.
        let (p0, p1) = (LineageItem::placeholder(0), LineageItem::placeholder(1));
        let body = LineageItem::op("+", vec![LineageItem::op("ba+*", vec![p0, p1.clone()]), p1]);
        let patch = DedupPatch::new("loop:pr", 0, 2, vec![("p".into(), body)]);
        let g = LineageItem::op_with_data("read", "G", vec![]);
        let mut p = LineageItem::op_with_data("read", "p0", vec![]);
        for _ in 0..1_000 {
            p = LineageItem::dedup(patch.clone(), "p", vec![g.clone(), p]);
        }
        crate::lineage::verify::verify_dag(&p).unwrap();
        // Verification checks hash/expansion coherence without leaving the
        // expansion behind: the DAG stays at its deduplicated size.
        let order = p.topo_order();
        assert_eq!(order.len(), 1_002);
        assert!(order.iter().all(|item| item.expanded.get().is_none()));
        // Equality still resolves a dedup item on demand, and only that one.
        let plain = p.resolve();
        assert!(lineage_eq(&p, &plain));
        assert_eq!(
            order.iter().filter(|i| i.expanded.get().is_some()).count(),
            1
        );
    }

    #[test]
    fn the_item_stays_at_its_size() {
        // `dag_bytes()` and the allocation a traced item costs follow from
        // it; a new field is paid for by shrinking another.
        assert!(std::mem::size_of::<LineageItem>() <= 136);
    }

    #[test]
    fn shape_registration_is_idempotent() {
        let x = LineageItem::literal("f:1");
        assert_eq!(x.shape(), None);
        x.set_shape(3, 4);
        x.set_shape(9, 9); // ignored
        assert_eq!(x.shape(), Some((3, 4)));
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // OnceLock caches never change Hash/Eq
    fn lin_key_value_semantics() {
        let mut map = std::collections::HashMap::new();
        let a = LineageItem::op("+", vec![LineageItem::literal("i:1")]);
        let b = LineageItem::op("+", vec![LineageItem::literal("i:1")]);
        map.insert(LinKey(a), 1);
        assert_eq!(map.get(&LinKey(b)), Some(&1));
    }

    #[test]
    fn chunked_writes_distinguish_zero_padded_tails() {
        // `write` zero-pads the trailing partial word, so the length mix must
        // keep "abc" and "abc\0" (and empty vs "\0") distinct.
        let h = |bytes: &[u8]| {
            let mut f = FxHasher::default();
            f.write(bytes);
            f.finish()
        };
        assert_ne!(h(b"abc"), h(b"abc\0"));
        assert_ne!(h(b""), h(b"\0"));
        assert_ne!(h(b"12345678"), h(b"12345678\0"));
        assert_ne!(h(b"0123456789abcdef"), h(b"0123456789abcdeF"));
    }

    #[test]
    fn hash_batch_matches_individual_hashing() {
        let build = || {
            let x = LineageItem::op_with_data("read", "X.csv", vec![]);
            let s = LineageItem::op("+", vec![x.clone(), x]);
            LineageItem::op("*", vec![s.clone(), LineageItem::literal("f:2")])
        };
        let a = build();
        let b = build();
        // Batch-hash one copy, hash the other individually: same values.
        assert_eq!(hash_batch(std::slice::from_ref(&a)), 1);
        assert_eq!(a.hash_value(), b.hash_value());
        // Second flush over the same roots finds everything memoized.
        assert_eq!(hash_batch(std::slice::from_ref(&a)), 0);
    }

    #[test]
    fn hash_batch_handles_deep_chains_and_shared_prefixes() {
        // A batch shaped like a traced block: each root extends the previous
        // one, so all but the first hash through the local fast path.
        let mut node = LineageItem::literal("f:0");
        let mut roots = Vec::new();
        for _ in 0..100 {
            node = LineageItem::op("+", vec![node.clone()]);
            roots.push(node.clone());
        }
        assert_eq!(hash_batch(&roots), 100);
        // Deep unhashed chain under a single root must not overflow the stack.
        let mut deep = LineageItem::literal("f:1");
        for _ in 0..100_000 {
            deep = LineageItem::op("+", vec![deep]);
        }
        assert_eq!(hash_batch(std::slice::from_ref(&deep)), 1);
        assert_eq!(deep.dag_size(), 100_001);
    }

    #[test]
    fn hash_distinguishes_repetitive_structures() {
        // Regression guard for the paper's footnote on collisions in long
        // repeated traces: slightly different repetition counts must differ.
        let build = |n: usize| {
            let mut node = LineageItem::literal("f:1");
            for _ in 0..n {
                node = LineageItem::op("+", vec![node.clone(), node]);
            }
            node
        };
        let h1 = build(30).hash_value();
        let h2 = build(31).hash_value();
        assert_ne!(h1, h2);
    }
}
