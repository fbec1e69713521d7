//! Variable bindings with backtracking.

use std::fmt;

use crate::pattern::VarId;
use crate::value::Value;

/// A binding environment for one query's quantified variables.
///
/// The query solver explores candidate tuples depth-first; `Bindings`
/// supports that with an undo trail: [`Bindings::mark`] takes a checkpoint
/// and [`Bindings::undo_to`] rolls back every binding made since.
///
/// # Examples
///
/// ```
/// use sdl_tuple::{Bindings, Value, VarId};
/// let mut b = Bindings::new(2);
/// let mark = b.mark();
/// b.bind(VarId(0), Value::Int(1));
/// assert!(b.is_bound(VarId(0)));
/// b.undo_to(mark);
/// assert!(!b.is_bound(VarId(0)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bindings {
    slots: Vec<Option<Value>>,
    trail: Vec<VarId>,
}

impl Bindings {
    /// Creates an environment with `n_vars` unbound variables.
    pub fn new(n_vars: usize) -> Bindings {
        Bindings {
            slots: vec![None; n_vars],
            trail: Vec::new(),
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no variable slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.slots.get(v.0 as usize).and_then(Option::as_ref)
    }

    /// True if `v` is currently bound.
    pub fn is_bound(&self, v: VarId) -> bool {
        self.get(v).is_some()
    }

    /// Binds `v` to `value`, recording the binding on the trail.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already bound — the solver must
    /// check with [`Bindings::get`] first (a bound variable acts as a
    /// constant, never rebinds).
    pub fn bind(&mut self, v: VarId, value: Value) {
        let slot = &mut self.slots[v.0 as usize];
        assert!(slot.is_none(), "variable {v} already bound");
        *slot = Some(value);
        self.trail.push(v);
    }

    /// Checkpoint for [`Bindings::undo_to`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Rolls back every binding made since `mark` was taken.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail length checked");
            self.slots[v.0 as usize] = None;
        }
    }

    /// True if every variable is bound.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Snapshot of the current bindings as a plain vector (trail dropped).
    pub fn to_vec(&self) -> Vec<Option<Value>> {
        self.slots.clone()
    }

    /// The current bindings, indexed by `VarId`.
    pub fn slots(&self) -> &[Option<Value>] {
        &self.slots
    }

    /// The current bindings as a plain vector, without the copy
    /// [`Bindings::to_vec`] makes.
    pub fn into_vec(self) -> Vec<Option<Value>> {
        self.slots
    }

    /// Restores a snapshot taken with [`Bindings::to_vec`], resetting the
    /// trail.
    pub fn restore(&mut self, snapshot: &[Option<Value>]) {
        self.slots.clear();
        self.slots.extend_from_slice(snapshot);
        self.trail.clear();
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(v) = slot {
                if !first {
                    f.write_str(", ")?;
                }
                first = false;
                write!(f, "?{i}={v}")?;
            }
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_get() {
        let mut b = Bindings::new(3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        b.bind(VarId(1), Value::Int(5));
        assert_eq!(b.get(VarId(1)), Some(&Value::Int(5)));
        assert_eq!(b.get(VarId(0)), None);
        assert!(!b.is_complete());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn rebinding_panics() {
        let mut b = Bindings::new(1);
        b.bind(VarId(0), Value::Int(1));
        b.bind(VarId(0), Value::Int(2));
    }

    #[test]
    fn nested_undo() {
        let mut b = Bindings::new(3);
        let m0 = b.mark();
        b.bind(VarId(0), Value::Int(0));
        let m1 = b.mark();
        b.bind(VarId(1), Value::Int(1));
        b.bind(VarId(2), Value::Int(2));
        assert!(b.is_complete());
        b.undo_to(m1);
        assert!(b.is_bound(VarId(0)));
        assert!(!b.is_bound(VarId(1)));
        assert!(!b.is_bound(VarId(2)));
        b.undo_to(m0);
        assert!(!b.is_bound(VarId(0)));
    }

    #[test]
    fn snapshot_restore() {
        let mut b = Bindings::new(2);
        b.bind(VarId(0), Value::atom("x"));
        let snap = b.to_vec();
        b.bind(VarId(1), Value::Int(1));
        b.restore(&snap);
        assert!(b.is_bound(VarId(0)));
        assert!(!b.is_bound(VarId(1)));
        // Trail was reset: undo_to(0) removes nothing.
        b.undo_to(0);
        assert!(b.is_bound(VarId(0)));
    }

    #[test]
    fn display_lists_bound_vars() {
        let mut b = Bindings::new(2);
        assert_eq!(b.to_string(), "{}");
        b.bind(VarId(1), Value::Int(9));
        assert_eq!(b.to_string(), "{?1=9}");
    }

    #[test]
    fn empty_environment() {
        let b = Bindings::new(0);
        assert!(b.is_empty());
        assert!(b.is_complete(), "vacuously complete");
    }
}
