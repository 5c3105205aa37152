//! The `LineageMap`: live-variable-name → lineage-item mapping maintained per
//! execution context (paper §3.1). Thread- and function-local by
//! construction: every interpreter context owns one.

use crate::lineage::item::{FxBuildHasher, LinRef, LineageItem};
use lima_matrix::ScalarValue;
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar as the literal cache files it: by the value itself (a float by
/// its bits), so a constant seen before is found without formatting its
/// `lineage_literal()` text again.
#[derive(Debug, PartialEq, Eq, Hash)]
enum LiteralKey {
    F64(u64),
    I64(i64),
    Bool(bool),
    Str(Arc<str>),
}

/// Maps live variable names to the lineage of their current values, and
/// caches literal lineage items (the paper's `LineageMap`). Both maps sit on
/// the per-instruction path (every traced output re-binds a variable), so
/// they use the same Fx hasher as lineage hashing instead of SipHash, and
/// variable names are shared with the instructions that carry them: binding
/// a name the program already holds copies no text.
#[derive(Debug, Default)]
pub struct LineageMap {
    vars: HashMap<Arc<str>, LinRef, FxBuildHasher>,
    literals: HashMap<LiteralKey, LinRef, FxBuildHasher>,
}

impl LineageMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lineage of a live variable.
    pub fn get(&self, var: &str) -> Option<&LinRef> {
        self.vars.get(var)
    }

    /// Binds a variable to a lineage item (tracing an instruction output).
    pub fn set(&mut self, var: impl Into<Arc<str>>, item: LinRef) {
        self.vars.insert(var.into(), item);
    }

    /// The live bindings under their shared names, for a worker context
    /// (literals are re-made on first use: their identity does not matter).
    pub fn fork(&self) -> Self {
        LineageMap {
            vars: self.vars.clone(),
            literals: HashMap::default(),
        }
    }

    /// `rmvar`: drops the mapping of a removed variable.
    pub fn remove(&mut self, var: &str) -> Option<LinRef> {
        self.vars.remove(var)
    }

    /// `mvvar`: renames a variable, moving its lineage.
    pub fn rename(&mut self, from: &str, to: impl Into<Arc<str>>) {
        if let Some(item) = self.vars.remove(from) {
            self.vars.insert(to.into(), item);
        }
    }

    /// Literal lineage item of a scalar (its type-tagged
    /// `lineage_literal()` encoding), cached so repeated uses of the same
    /// constant share one node and only the first formats the text.
    pub fn literal(&mut self, value: &ScalarValue) -> LinRef {
        let key = match value {
            ScalarValue::F64(v) => LiteralKey::F64(v.to_bits()),
            ScalarValue::I64(v) => LiteralKey::I64(*v),
            ScalarValue::Bool(b) => LiteralKey::Bool(*b),
            ScalarValue::Str(s) => LiteralKey::Str(Arc::clone(s)),
        };
        let item = self.literals.entry(key);
        item.or_insert_with(|| LineageItem::literal(value.lineage_literal()))
            .clone()
    }

    /// All live variable bindings (used when merging parfor worker results).
    pub fn bindings(&self) -> impl Iterator<Item = (&str, &LinRef)> {
        self.vars.iter().map(|(k, v)| (&**k, v))
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Clears all bindings (literal cache survives — literals are immutable).
    pub fn clear(&mut self) {
        self.vars.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::lineage_eq;

    #[test]
    fn set_get_remove() {
        let mut m = LineageMap::new();
        let x = LineageItem::op_with_data("read", "X", vec![]);
        m.set("X", x.clone());
        assert!(lineage_eq(m.get("X").unwrap(), &x));
        assert!(m.get("Y").is_none());
        assert!(m.remove("X").is_some());
        assert!(m.get("X").is_none());
        assert!(m.remove("X").is_none());
    }

    #[test]
    fn rename_moves_lineage() {
        let mut m = LineageMap::new();
        let x = LineageItem::op_with_data("read", "X", vec![]);
        m.set("tmp7", x.clone());
        m.rename("tmp7", "beta");
        assert!(m.get("tmp7").is_none());
        assert!(Arc::ptr_eq(m.get("beta").unwrap(), &x));
        // renaming a missing variable is a no-op
        m.rename("missing", "other");
        assert!(m.get("other").is_none());
    }

    #[test]
    fn literal_items_are_cached() {
        let mut m = LineageMap::new();
        let a = m.literal(&ScalarValue::F64(1.5));
        let b = m.literal(&ScalarValue::F64(1.5));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.data(), Some("f:1.5"));
        let c = m.literal(&ScalarValue::F64(2.5));
        assert!(!Arc::ptr_eq(&a, &c));
        // Same number, other type: other literal.
        let i = m.literal(&ScalarValue::I64(1));
        let f = m.literal(&ScalarValue::F64(1.0));
        assert_eq!((i.data(), f.data()), (Some("i:1"), Some("f:1")));
        assert_eq!(m.literal(&ScalarValue::from("x")).data(), Some("s:x"));
    }

    #[test]
    fn clear_keeps_literal_cache() {
        let mut m = LineageMap::new();
        let lit = m.literal(&ScalarValue::I64(7));
        m.set("X", lit.clone());
        m.clear();
        assert!(m.is_empty());
        assert!(Arc::ptr_eq(&m.literal(&ScalarValue::I64(7)), &lit));
    }

    #[test]
    fn bindings_iterates_live_vars() {
        let mut m = LineageMap::new();
        m.set("a", LineageItem::literal("i:1"));
        m.set("b", LineageItem::literal("i:2"));
        let mut names: Vec<&str> = m.bindings().map(|(k, _)| k).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(m.len(), 2);
    }
}
