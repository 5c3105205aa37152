//! Canonical opcode strings shared between the runtime (which traces lineage)
//! and the reuse cache (whose partial-reuse rewrites pattern-match on them).
//!
//! Keeping these in one place guarantees that a probe item constructed by a
//! rewrite hashes/compares identically to the item the runtime traced.

/// Matrix multiply `A %*% B` (SystemDS `ba+*`).
pub const MATMULT: &str = "ba+*";
/// Transpose-self matrix multiply `XᵀX` (SystemDS `tsmm`).
pub const TSMM: &str = "tsmm";
/// Transpose (SystemDS `r'`).
pub const TRANSPOSE: &str = "r'";
/// Horizontal concatenation.
pub const CBIND: &str = "cbind";
/// Vertical concatenation.
pub const RBIND: &str = "rbind";
/// Right indexing (slicing); data string carries the bounds.
pub const RIGHT_INDEX: &str = "rightIndex";
/// Column projection by index vector.
pub const SELECT_COLS: &str = "selectCols";
/// Row projection by index vector.
pub const SELECT_ROWS: &str = "selectRows";
/// Left indexing (sub-block assignment); data string carries the offsets.
pub const LEFT_INDEX: &str = "leftIndex";
/// Random matrix generation; data string carries shape/dist/sparsity/seed.
pub const RAND: &str = "rand";
/// Sampling without replacement; data string carries range/size/seed.
pub const SAMPLE: &str = "sample";
/// Sequence generation.
pub const SEQ: &str = "seq";
/// File read; data string carries the (logical) path.
pub const READ: &str = "read";
/// Solve linear system.
pub const SOLVE: &str = "solve";
/// Diagonal extraction/construction (SystemDS `rdiag`).
pub const DIAG: &str = "rdiag";
/// Symmetric eigen decomposition (bundles values+vectors as a list).
pub const EIGEN: &str = "eigen";
/// Sort-order indices.
pub const ORDER: &str = "order";
/// Row reversal.
pub const REV: &str = "rev";
/// Contingency table.
pub const TABLE: &str = "ctable";
/// Row-wise argmax.
pub const ROW_INDEX_MAX: &str = "uarimax";
/// Number of rows (scalar).
pub const NROW: &str = "nrow";
/// Number of columns (scalar).
pub const NCOL: &str = "ncol";
/// Full aggregate prefix: `ua<f>` (e.g. `uasum`).
pub const FULL_AGG_PREFIX: &str = "ua";
/// Column aggregate prefix: `uac<f>` (e.g. `uacsum` is colSums).
pub const COL_AGG_PREFIX: &str = "uac";
/// Row aggregate prefix: `uar<f>`.
pub const ROW_AGG_PREFIX: &str = "uar";
/// List construction.
pub const LIST: &str = "list";
/// List element access; data string carries the index.
pub const LIST_GET: &str = "listGet";
/// Matrix construction filled with a constant.
pub const MATRIX_FILL: &str = "matrix";
/// Matrix reshape; data carries target dims.
pub const RESHAPE: &str = "rshape";
/// Cast a 1x1 matrix to scalar.
pub const CAST_SCALAR: &str = "castdts";
/// Cast a scalar to 1x1 matrix.
pub const CAST_MATRIX: &str = "castdtm";
/// String concatenation / formatting (non-cacheable).
pub const CONCAT: &str = "concat";
/// A parfor's merged result: the value before the loop, then each worker's.
pub const RMERGE: &str = "rmerge";
/// Multi-level lineage item bundling a deterministic function call.
pub const FCALL: &str = "fcall";
/// Multi-level lineage item bundling a deterministic program block.
pub const BCALL: &str = "bcall";
/// Lineage literal marker used in serialized logs.
pub const LITERAL: &str = "L";
/// Dedup item marker used in serialized logs.
pub const DEDUP: &str = "dedup";
/// Placeholder marker used inside dedup/fused patches.
pub const PLACEHOLDER: &str = "ph";
/// Fused-operator marker; the runtime expands fused ops into patches.
pub const FUSED_PREFIX: &str = "spoof";

/// Column aggregate opcode for a given aggregate function name.
pub fn col_agg(op: &str) -> String {
    format!("{COL_AGG_PREFIX}{op}")
}

/// Row aggregate opcode for a given aggregate function name.
pub fn row_agg(op: &str) -> String {
    format!("{ROW_AGG_PREFIX}{op}")
}

/// Full aggregate opcode for a given aggregate function name.
pub fn full_agg(op: &str) -> String {
    format!("{FULL_AGG_PREFIX}{op}")
}

/// Determinism class of an operation, ordered as a join-semilattice:
/// `Deterministic < Seeded < NonDeterministic < SideEffecting`.
///
/// * `Deterministic` — output is a pure function of the inputs.
/// * `Seeded` — pseudo-random, but replayable once the seed is pinned
///   (an explicit literal seed, or a system seed captured in the lineage).
/// * `NonDeterministic` — not replayable even with captured parameters.
/// * `SideEffecting` — interacts with the outside world; must never be
///   skipped or memoized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Pure function of its inputs.
    Deterministic,
    /// Replayable given a pinned seed.
    Seeded,
    /// Not replayable.
    NonDeterministic,
    /// Externally visible effect.
    SideEffecting,
}

impl OpClass {
    /// Least upper bound: the class of a computation combining both.
    pub fn join(self, other: OpClass) -> OpClass {
        self.max(other)
    }

    /// True when results of this class may be reused from the lineage cache
    /// (deterministic, or seeded with the seed recorded in the lineage).
    pub fn reuse_eligible(self) -> bool {
        self <= OpClass::Seeded
    }
}

/// One row of the opcode classification table: determinism class plus
/// whether outputs of the opcode qualify for the lineage cache by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcodeInfo {
    /// Determinism class.
    pub class: OpClass,
    /// Default cache eligibility (compute-bearing ops qualify, bookkeeping
    /// and string ops do not).
    pub cacheable: bool,
}

/// Deterministic and cacheable: the compute-bearing ops. Code building an
/// item of such a static opcode passes it to `LineageItem::resolved`.
pub const DC: OpcodeInfo = OpcodeInfo {
    class: OpClass::Deterministic,
    cacheable: true,
};
/// Deterministic and never cached (`read`, `listget`, `rmerge`, ...).
pub const DN: OpcodeInfo = OpcodeInfo {
    class: OpClass::Deterministic,
    cacheable: false,
};

/// The single classification table shared by the tracer, the compiler's
/// unmarking pass, and `lima-analysis`. Every opcode the runtime can emit
/// appears here; prefixed families (`spoof*`, `fcall:*`, `bcall*`) are
/// resolved by [`opcode_info`].
pub const OPCODE_TABLE: &[(&str, OpcodeInfo)] = &{
    const SEED: OpcodeInfo = OpcodeInfo {
        class: OpClass::Seeded,
        cacheable: false,
    };
    const EFFECT: OpcodeInfo = OpcodeInfo {
        class: OpClass::SideEffecting,
        cacheable: false,
    };
    [
        // Compute-bearing deterministic ops: reuse-eligible and cacheable.
        (MATMULT, DC),
        (TSMM, DC),
        (TRANSPOSE, DC),
        (CBIND, DC),
        (RBIND, DC),
        (RIGHT_INDEX, DC),
        (SELECT_COLS, DC),
        (SELECT_ROWS, DC),
        (SOLVE, DC),
        (DIAG, DC),
        (EIGEN, DC),
        (ORDER, DC),
        (REV, DC),
        (TABLE, DC),
        (ROW_INDEX_MAX, DC),
        ("uasum", DC),
        ("uamean", DC),
        ("uamin", DC),
        ("uamax", DC),
        ("uasumsq", DC),
        ("uavar", DC),
        ("uacsum", DC),
        ("uacmean", DC),
        ("uacmin", DC),
        ("uacmax", DC),
        ("uacsumsq", DC),
        ("uacvar", DC),
        ("uarsum", DC),
        ("uarmean", DC),
        ("uarmin", DC),
        ("uarmax", DC),
        ("uarsumsq", DC),
        ("uarvar", DC),
        ("+", DC),
        ("-", DC),
        ("*", DC),
        ("/", DC),
        ("^", DC),
        ("min", DC),
        ("max", DC),
        ("==", DC),
        ("!=", DC),
        ("<", DC),
        ("<=", DC),
        (">", DC),
        (">=", DC),
        ("&", DC),
        ("|", DC),
        ("uneg", DC),
        ("abs", DC),
        ("exp", DC),
        ("log", DC),
        ("sqrt", DC),
        ("round", DC),
        ("floor", DC),
        ("ceil", DC),
        ("sign", DC),
        ("sigmoid", DC),
        ("!", DC),
        (RESHAPE, DC),
        (FCALL, DC),
        (BCALL, DC),
        // Deterministic bookkeeping / cheap ops: not worth caching.
        (LEFT_INDEX, DN),
        (SEQ, DN),
        (READ, DN),
        (NROW, DN),
        (NCOL, DN),
        (MATRIX_FILL, DN),
        (CAST_SCALAR, DN),
        (CAST_MATRIX, DN),
        (LIST, DN),
        (LIST_GET, DN),
        (CONCAT, DN),
        (RMERGE, DN),
        ("assign", DN),
        ("mvvar", DN),
        ("rmvar", DN),
        ("lineage", DN),
        (LITERAL, DN),
        (DEDUP, DN),
        (PLACEHOLDER, DN),
        // Pseudo-random creation ops: deterministic once the seed is pinned.
        (RAND, SEED),
        (SAMPLE, SEED),
        // Externally visible effects.
        ("print", EFFECT),
        ("write", EFFECT),
    ]
};

fn table_lookup(op: &str) -> Option<(&'static str, OpcodeInfo)> {
    use crate::lineage::item::FxBuildHasher;
    use std::collections::HashMap;
    use std::sync::OnceLock;
    // Once per instruction as it is built, and per item as a log is parsed
    // or an item is built from text: a word-at-a-time hash of a short,
    // program-internal string, not SipHash.
    static INDEX: OnceLock<HashMap<&'static str, OpcodeInfo, FxBuildHasher>> = OnceLock::new();
    INDEX
        .get_or_init(|| OPCODE_TABLE.iter().copied().collect())
        .get_key_value(op)
        .map(|(op, info)| (*op, *info))
}

/// The opcode as a lineage item holds it, with its classification, in one
/// look-up: the table's own static text for every opcode listed there, a
/// copy only for the open families (`fcall:<name>`, `spoof<N>`) and opcodes
/// of foreign logs. For text that arrives at run time (a parsed log); code
/// that names an opcode constant passes the constant itself.
pub fn resolve(op: &str) -> (std::borrow::Cow<'static, str>, OpcodeInfo) {
    match table_lookup(op) {
        Some((known, info)) => (std::borrow::Cow::Borrowed(known), info),
        None => (std::borrow::Cow::Owned(op.to_string()), family_info(op)),
    }
}

/// Classification for an opcode string, resolving prefixed families:
/// fused operators (`spoof*`) and multi-level items (`fcall:*`/`bcall*`) are
/// deterministic and cacheable (multi-level items only exist for bodies the
/// compiler already proved deterministic). Unknown opcodes conservatively
/// classify as non-deterministic and non-cacheable.
pub fn opcode_info(op: &str) -> OpcodeInfo {
    match table_lookup(op) {
        Some((_, info)) => info,
        None => family_info(op),
    }
}

/// [`opcode_info`] of an opcode the table does not list.
fn family_info(op: &str) -> OpcodeInfo {
    if op.starts_with(FUSED_PREFIX) || op.starts_with(FCALL) || op.starts_with(BCALL) {
        return OpcodeInfo {
            class: OpClass::Deterministic,
            cacheable: true,
        };
    }
    OpcodeInfo {
        class: OpClass::NonDeterministic,
        cacheable: false,
    }
}

/// Determinism class of an opcode (see [`opcode_info`]).
pub fn classify_opcode(op: &str) -> OpClass {
    opcode_info(op).class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_opcode_builders() {
        assert_eq!(col_agg("sum"), "uacsum");
        assert_eq!(row_agg("max"), "uarmax");
        assert_eq!(full_agg("mean"), "uamean");
    }

    #[test]
    fn classification_table_and_lattice() {
        assert_eq!(classify_opcode(MATMULT), OpClass::Deterministic);
        assert_eq!(classify_opcode(READ), OpClass::Deterministic);
        assert_eq!(classify_opcode(RAND), OpClass::Seeded);
        assert_eq!(classify_opcode(SAMPLE), OpClass::Seeded);
        assert_eq!(classify_opcode("print"), OpClass::SideEffecting);
        assert_eq!(classify_opcode("write"), OpClass::SideEffecting);
        // Prefixed families resolve; unknown opcodes are conservative.
        assert_eq!(classify_opcode("spoof17"), OpClass::Deterministic);
        assert!(opcode_info("spoof17").cacheable);
        assert_eq!(classify_opcode("fcall:lm"), OpClass::Deterministic);
        assert_eq!(classify_opcode("no-such-op"), OpClass::NonDeterministic);
        assert!(!opcode_info("no-such-op").cacheable);
        // Lattice: join is max, reuse eligibility cuts below NonDeterministic.
        assert_eq!(
            OpClass::Deterministic.join(OpClass::Seeded),
            OpClass::Seeded
        );
        assert_eq!(
            OpClass::Seeded.join(OpClass::SideEffecting),
            OpClass::SideEffecting
        );
        assert!(OpClass::Deterministic.reuse_eligible());
        assert!(OpClass::Seeded.reuse_eligible());
        assert!(!OpClass::NonDeterministic.reuse_eligible());
        assert!(!OpClass::SideEffecting.reuse_eligible());
    }

    #[test]
    fn resolve_agrees_with_the_table() {
        for (op, info) in OPCODE_TABLE {
            assert_eq!(resolve(op), (std::borrow::Cow::Borrowed(*op), *info));
        }
        assert_eq!(resolve("fcall:lm").1, opcode_info("fcall:lm"));
    }

    #[test]
    fn cacheable_set_is_consistent_with_classification() {
        // Anything cacheable by default must also be reuse-eligible —
        // otherwise the tracer would cache values it can never trust.
        for (op, info) in OPCODE_TABLE {
            if info.cacheable {
                assert!(
                    info.class.reuse_eligible(),
                    "{op} cacheable but not eligible"
                );
            }
        }
    }

    #[test]
    fn default_cacheable_contains_compute_ops_not_bookkeeping() {
        let cacheable = OPCODE_TABLE.iter().filter(|(_, info)| info.cacheable);
        let set: Vec<&str> = cacheable.map(|(op, _)| *op).collect();
        assert!(set.contains(&MATMULT));
        assert!(set.contains(&TSMM));
        assert!(!set.contains(&READ));
        assert!(!set.contains(&RAND));
        assert!(!set.contains(&CONCAT));
    }
}
