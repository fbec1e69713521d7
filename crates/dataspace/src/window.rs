//! Windows: materialised sub-dataspaces computed from process views.
//!
//! In SDL, "invisible to the transaction, the dataspace is replaced by a
//! window W on which the transaction is evaluated". The window is computed
//! at transaction start and discarded on commit. A [`Window`] is exactly
//! that: a snapshot of the instances a process may see, held in the same
//! index type and answering the same [`TupleSource`] queries as the full
//! store.

use std::fmt;

use sdl_tuple::{Pattern, Tuple, TupleId, TupleInstance};

use crate::index::TupleIndex;
use crate::store::TupleSource;

/// A snapshot of the visible part of the dataspace (`W = Import(p) ∩ D`).
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{Dataspace, TupleSource, Window};
/// use sdl_tuple::{pattern, tuple, ProcId, Value};
///
/// let mut d = Dataspace::new();
/// d.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 87]);
/// d.assert_tuple(ProcId::ENV, tuple![Value::atom("month"), 5]);
///
/// // Import only <year, *>.
/// let w = Window::from_instances(
///     d.iter()
///         .filter(|(_, t)| t.functor() == Some(sdl_tuple::Atom::new("year")))
///         .map(|(id, t)| sdl_tuple::TupleInstance::new(id, t.clone())),
/// );
/// assert_eq!(w.tuple_count(), 1);
/// assert!(w.contains_match(&pattern![Value::atom("year"), any]));
/// assert!(!w.contains_match(&pattern![Value::atom("month"), any]));
/// ```
#[derive(Clone, Default)]
pub struct Window {
    index: TupleIndex,
}

impl Window {
    /// Creates an empty window.
    pub fn new() -> Window {
        Window::default()
    }

    /// Builds a window from tuple instances.
    pub fn from_instances<I: IntoIterator<Item = TupleInstance>>(instances: I) -> Window {
        let mut w = Window::new();
        for inst in instances {
            w.insert(inst.id, inst.tuple);
        }
        w
    }

    /// Adds an instance to the window.
    ///
    /// # Panics
    ///
    /// Panics if the window already holds `id`.
    pub fn insert(&mut self, id: TupleId, tuple: Tuple) {
        self.index.insert(id, tuple);
    }

    /// True if the window holds instance `id`.
    pub fn contains_id(&self, id: TupleId) -> bool {
        self.index.get(id).is_some()
    }

    /// Iterates over the window's instances in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.index.iter()
    }

    /// Number of instances in the window.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }
}

impl TupleSource for Window {
    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.index.candidate_ids(pattern).0
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        self.index.visit(pattern, visit);
    }

    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        self.index.estimate(pattern)
    }

    fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.index.get(id)
    }

    fn tuple_count(&self) -> usize {
        self.index.len()
    }

    fn all_ids(&self) -> Vec<TupleId> {
        self.index.ids().collect()
    }
}

impl FromIterator<TupleInstance> for Window {
    fn from_iter<I: IntoIterator<Item = TupleInstance>>(iter: I) -> Window {
        Window::from_instances(iter)
    }
}

impl fmt::Debug for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Window").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple, ProcId, Value};

    fn inst(seq: u64, t: Tuple) -> TupleInstance {
        TupleInstance::new(
            TupleId {
                owner: ProcId(1),
                seq,
            },
            t,
        )
    }

    #[test]
    fn build_and_query() {
        let w = Window::from_instances(vec![
            inst(1, tuple![Value::atom("a"), 1]),
            inst(2, tuple![Value::atom("a"), 2]),
            inst(3, tuple![Value::atom("b"), 3]),
        ]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.candidate_ids(&pattern![Value::atom("a"), any]).len(), 2);
        assert!(w.contains_match(&pattern![Value::atom("b"), 3]));
        assert!(!w.contains_match(&pattern![Value::atom("b"), 4]));
    }

    #[test]
    fn variable_head_sees_its_arity() {
        let w = Window::from_instances(vec![
            inst(1, tuple![1, 2]),
            inst(2, tuple![Value::atom("a"), 2]),
            inst(3, tuple![1, 2, 3]),
        ]);
        assert_eq!(w.candidate_ids(&pattern![var 0, any]).len(), 2);
    }

    #[test]
    fn empty_window() {
        let w = Window::new();
        assert!(w.is_empty());
        assert_eq!(w.tuple_count(), 0);
        assert!(!w.contains_match(&pattern![any]));
    }

    #[test]
    fn collect_from_iterator() {
        let w: Window = vec![inst(1, tuple![1])].into_iter().collect();
        assert!(w.contains_id(TupleId {
            owner: ProcId(1),
            seq: 1
        }));
        assert_eq!(w.iter().count(), 1);
    }
}
