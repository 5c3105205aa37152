//! The `LineageMap`: the lineage of each live variable, by slot, maintained
//! per execution context (paper §3.1). Thread- and function-local by
//! construction: every interpreter context owns one.

use crate::frame::{Frame, Slots};
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

/// Maps live variables to the lineage of their current values, and caches
/// literal lineage items (the paper's `LineageMap`). Variables are bound by
/// the slot the compiler gave them in the frame; a name is resolved through
/// the frame only by the name API ([`Self::get`], [`Self::bindings`]).
#[derive(Debug, Default)]
pub struct LineageMap {
    vars: Slots<LinRef>,
    literals: HashMap<LiteralKey, LinRef, FxBuildHasher>,
}

impl LineageMap {
    /// Empty map on an empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty map with a cell for every slot of `frame`.
    pub fn with_frame(frame: Arc<Frame>) -> Self {
        LineageMap {
            vars: Slots::new(frame),
            literals: HashMap::default(),
        }
    }

    /// The bindings by slot.
    pub fn vars(&self) -> &Slots<LinRef> {
        &self.vars
    }

    /// The bindings by slot, mutably (entering a frame).
    pub fn vars_mut(&mut self) -> &mut Slots<LinRef> {
        &mut self.vars
    }

    /// Lineage of a live variable, by name.
    pub fn get(&self, var: &str) -> Option<&LinRef> {
        self.vars.get(var)
    }

    /// Lineage of the variable in `slot`.
    #[inline]
    pub fn at(&self, slot: u32) -> Option<&LinRef> {
        self.vars.at(slot)
    }

    /// Binds the variable in `slot` to a lineage item (tracing an output).
    #[inline]
    pub fn put(&mut self, slot: u32, item: LinRef) {
        self.vars.put(slot, item);
    }

    /// `rmvar`: drops the lineage of the variable in `slot`.
    #[inline]
    pub fn take(&mut self, slot: u32) -> Option<LinRef> {
        self.vars.take(slot)
    }

    /// The live bindings on the same frame, for a worker context (literals
    /// are re-made on first use: their identity does not matter).
    pub fn fork(&self) -> Self {
        LineageMap {
            vars: self.vars.clone(),
            literals: HashMap::default(),
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

    /// All live variable bindings under their names.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, &LinRef)> {
        self.vars.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::lineage_eq;

    fn map(names: &[&str]) -> LineageMap {
        LineageMap::with_frame(Arc::new(names.iter().map(|n| Arc::from(*n)).collect()))
    }

    #[test]
    fn put_get_take() {
        let mut m = map(&["X", "Y"]);
        let x = LineageItem::op_with_data("read", "X", vec![]);
        m.put(0, x.clone());
        assert!(lineage_eq(m.get("X").unwrap(), &x));
        assert!(Arc::ptr_eq(m.at(0).unwrap(), &x));
        assert!(m.get("Y").is_none());
        assert!(m.get("Z").is_none());
        assert!(m.take(0).is_some());
        assert!(m.get("X").is_none());
        assert!(m.take(0).is_none());
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
    fn bindings_iterates_live_vars() {
        let mut m = map(&["a", "b", "c"]);
        m.put(0, LineageItem::literal("i:1"));
        m.put(1, LineageItem::literal("i:2"));
        let names: Vec<&str> = m.bindings().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
        let w = m.fork();
        assert!(Arc::ptr_eq(w.vars().frame(), m.vars().frame()));
        assert_eq!(w.bindings().count(), 2);
    }
}
