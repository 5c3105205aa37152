//! Slot-indexed variable frames. The compiler numbers the variables of each
//! frame (a script body, or one function body), so the interpreter binds and
//! reads a variable by its slot, an index into a vector. Names live on in one
//! [`Frame`] per program or function: the registry that serves lookups by
//! name (`ctx.symtab["x"]`, `--lineage VAR`, diagnostics).

use std::sync::Arc;

/// The variable names of one frame, by slot.
pub type Frame = Vec<Arc<str>>;

/// Values bound to a frame's variables, one cell per slot. The interpreter
/// indexes slots; the name API resolves a name through the frame first.
#[derive(Debug, Clone)]
pub struct Slots<T> {
    frame: Arc<Frame>,
    cells: Vec<Option<T>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::new(Arc::default())
    }
}

impl<T> Slots<T> {
    /// Unbound cells for every slot of `frame`.
    pub fn new(frame: Arc<Frame>) -> Self {
        let cells = std::iter::repeat_with(|| None).take(frame.len()).collect();
        Slots { frame, cells }
    }

    /// The frame naming the slots.
    pub fn frame(&self) -> &Arc<Frame> {
        &self.frame
    }

    /// Number of cells, bound or not: the frame's slot count.
    pub fn slot_count(&self) -> usize {
        self.cells.len()
    }

    /// Slot of a name: a scan, off the per-instruction path.
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.frame
            .iter()
            .position(|n| **n == *name)
            .map(|k| k as u32)
    }

    #[inline]
    pub fn at(&self, slot: u32) -> Option<&T> {
        self.cells.get(slot as usize)?.as_ref()
    }

    #[inline]
    pub fn put(&mut self, slot: u32, value: T) {
        self.cells[slot as usize] = Some(value);
    }

    #[inline]
    pub fn take(&mut self, slot: u32) -> Option<T> {
        self.cells.get_mut(slot as usize)?.take()
    }

    pub fn get(&self, name: &str) -> Option<&T> {
        self.at(self.slot(name)?)
    }

    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Takes `frame`, whose first `keep` slots are this frame's first `keep`:
    /// those cells stay, each `(from, to)` of `moves` carries a cell to its
    /// slot in `frame`, and the rest are dropped.
    pub fn move_to(&mut self, frame: &Arc<Frame>, keep: usize, moves: &[(u32, u32)]) {
        let mut tail = self.cells.split_off(keep.min(self.cells.len()));
        self.cells.resize_with(frame.len(), || None);
        for &(from, to) in moves {
            self.cells[to as usize] = tail[from as usize - keep].take();
        }
        self.frame = Arc::clone(frame);
    }

    /// Bound names and values, by slot.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        let names = self.frame.iter().map(|n| &**n);
        names
            .zip(&self.cells)
            .filter_map(|(n, c)| Some((n, c.as_ref()?)))
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().flatten()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Option::is_none)
    }
}

impl<T> std::ops::Index<&str> for Slots<T> {
    type Output = T;

    /// The value bound to a name; panics when it is unbound.
    fn index(&self, name: &str) -> &T {
        match self.get(name) {
            Some(v) => v,
            None => panic!("variable '{name}' is not bound"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(names: &[&str]) -> Arc<Frame> {
        Arc::new(names.iter().map(|n| Arc::from(*n)).collect())
    }

    #[test]
    fn slots_and_names_address_the_same_cells() {
        let mut s: Slots<i32> = Slots::new(frame(&["a", "b"]));
        assert_eq!(s.slot_count(), 2);
        s.put(1, 7);
        assert_eq!(s.get("b"), Some(&7));
        assert_eq!(s["b"], 7);
        s.put(0, 3);
        assert_eq!(s.take(1), Some(7));
        assert!(!s.contains_key("b"));
        assert!(s.get("zz").is_none());
        assert_eq!(s.keys().collect::<Vec<_>>(), vec!["a"]);
    }

    #[test]
    fn move_to_keeps_the_shared_prefix_and_carries_the_rest() {
        let mut s: Slots<i32> = Slots::new(frame(&["x", "in", "y"]));
        s.put(0, 1);
        s.put(1, 9);
        s.put(2, 2);
        // "x" keeps slot 0, "y" moves to 1, "in" goes after the new frame's.
        let next = frame(&["x", "y", "z", "in"]);
        s.move_to(&next, 1, &[(1, 3), (2, 1)]);
        assert_eq!(s.slot_count(), 4);
        assert_eq!((s["x"], s["y"], s["in"]), (1, 2, 9));
        assert!(s.at(2).is_none());
        assert!(Arc::ptr_eq(s.frame(), &next));
    }
}
