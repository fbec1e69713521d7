//! Conservative change-notification keys for delayed-transaction wake-up.
//!
//! A *delayed* transaction that fails stays blocked until "a successful
//! evaluation is possible". Re-evaluating every blocked transaction after
//! every commit is correct but wasteful; instead each commit publishes the
//! [`WatchKey`]s of the tuples it asserted or retracted, and each blocked
//! transaction registers the keys of the patterns it mentions. A blocked
//! transaction is re-examined only when the key sets intersect. The scheme
//! is conservative (may wake a transaction that still fails) and complete
//! (never misses an enabling change), which preserves the paper's weak
//! fairness guarantee.
//!
//! Patterns with an atom head and a constant argument can subscribe to an
//! *exact* [`WatchKey::Value`] channel instead: publication emits a value
//! key per argument slot, so a transaction blocked on `<count, 7, α>`
//! wakes only when an arity-3 `count` tuple whose second field hashes to
//! `7`'s hash changes — not on every `count` change. Exact keys remain
//! complete (any matching tuple publishes the subscribed key) while
//! shrinking the wake fan-out by the relation's value diversity.

use std::hash::{Hash, Hasher};

use sdl_tuple::{Atom, Field, Pattern, Tuple, Value};

/// A coarse description of which tuples a change could affect.
///
/// `Ord` is the order a [`WatchSet`] keeps and iterates its keys in: wake
/// scans must visit keys in a deterministic order or schedule exploration
/// could not replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WatchKey {
    /// Tuples with this leading atom and arity.
    Functor(Atom, usize),
    /// Any tuple of this arity (patterns with a non-constant head).
    Arity(usize),
    /// Tuples with this leading atom and arity whose argument at `slot`
    /// (1-based field position) hashes to the given value — the exact
    /// channel for patterns like `<count, 7, α>`, which need not wake on
    /// every `count` change, only those whose second field is `7`.
    Value(Atom, usize, usize, u64),
}

/// Deterministic hash of one tuple/pattern field value, shared by the
/// publication ([`WatchKey::of_tuple`]) and subscription
/// ([`WatchKey::value_of_pattern`]) sides — both must agree bit-for-bit
/// or wakeups would be missed.
pub fn value_hash(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

impl WatchKey {
    /// The keys published when `tuple` is asserted or retracted.
    ///
    /// A tuple notifies its functor key (if its head is an atom), its
    /// arity key (a variable-headed pattern of the same arity could match
    /// it), and one [`WatchKey::Value`] key per argument slot so that
    /// value-subscribed patterns wake exactly.
    pub fn of_tuple(tuple: &Tuple) -> impl Iterator<Item = WatchKey> + '_ {
        WatchKey::of_hashed_tuple(tuple, None)
    }

    /// [`WatchKey::of_tuple`] for a caller that already holds
    /// `value_hash` of slot 1 — the index computes it for the tuple's
    /// fine posting, and a value is hashed once per commit, not twice.
    pub(crate) fn of_hashed_tuple(
        tuple: &Tuple,
        slot1: Option<u64>,
    ) -> impl Iterator<Item = WatchKey> + '_ {
        let arity = tuple.arity();
        let functor = tuple.functor();
        let values = functor.into_iter().flat_map(move |f| {
            (1..arity).map(move |slot| {
                let hash = match slot1 {
                    Some(h) if slot == 1 => h,
                    _ => value_hash(&tuple.fields()[slot]),
                };
                WatchKey::Value(f, arity, slot, hash)
            })
        });
        functor
            .map(|f| WatchKey::Functor(f, arity))
            .into_iter()
            .chain(std::iter::once(WatchKey::Arity(arity)))
            .chain(values)
    }

    /// The single conservative key a pattern listens on.
    ///
    /// A pattern with a constant atom head listens on its functor key;
    /// anything else listens on the arity key (which every tuple of that
    /// arity also publishes).
    pub fn of_pattern(pattern: &Pattern) -> WatchKey {
        match pattern.functor() {
            Some(f) => WatchKey::Functor(f, pattern.arity()),
            None => WatchKey::Arity(pattern.arity()),
        }
    }

    /// The exact value-level key for `pattern`, if one exists: the
    /// pattern must have an atom head and at least one constant argument
    /// slot. Slot 1 is preferred (it aligns with the store's arg1 point
    /// index); otherwise the first constant slot is used.
    ///
    /// Subscribing to this key alone is *complete* for the pattern: any
    /// tuple that matches it must carry the same atom head, arity, and
    /// constant value at that slot, and every such tuple publishes the
    /// identical key from [`WatchKey::of_tuple`].
    pub fn value_of_pattern(pattern: &Pattern) -> Option<WatchKey> {
        let f = pattern.functor()?;
        let arity = pattern.arity();
        pattern
            .fields()
            .iter()
            .enumerate()
            .skip(1)
            .find_map(|(slot, field)| match field {
                Field::Const(v) => Some(WatchKey::Value(f, arity, slot, value_hash(v))),
                _ => None,
            })
    }

    /// A compact human-readable label for trace output: `count/3`,
    /// `*/2` (arity key), or `count/3[1]#1a2b` (value key with a
    /// truncated hash of the watched slot value).
    pub fn label(&self) -> String {
        match *self {
            WatchKey::Functor(f, a) => format!("{f}/{a}"),
            WatchKey::Arity(a) => format!("*/{a}"),
            WatchKey::Value(f, a, slot, h) => format!("{f}/{a}[{slot}]#{:04x}", h & 0xffff),
        }
    }

    /// The coarse `(functor, arity)` channel this key belongs to. Two
    /// keys on the same channel describe tuples of the same relation even
    /// when their exact value slots differ — the stall watchdog uses this
    /// to report *nearest-miss* commits: traffic on a parked process's
    /// relation that did not carry the watched value.
    pub fn channel(&self) -> (Option<Atom>, usize) {
        match *self {
            WatchKey::Functor(f, a) => (Some(f), a),
            WatchKey::Arity(a) => (None, a),
            WatchKey::Value(f, a, _, _) => (Some(f), a),
        }
    }
}

/// A set of [`WatchKey`]s, with the subscription-side closure applied.
///
/// Subscribing to a `Functor(f, n)` key also subscribes to `Arity(n)`
/// *matches from publications*: publication emits both keys, so plain set
/// intersection suffices. The extra subtlety is a pattern whose head field
/// is a **constant non-atom** (e.g. `<3, α>`): it has no functor, so it
/// listens on `Arity(n)` and every arity-`n` publication wakes it.
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{WatchKey, WatchSet};
/// use sdl_tuple::{pattern, tuple, Value};
///
/// let mut listening = WatchSet::new();
/// listening.add_pattern(&pattern![Value::atom("year"), any]);
///
/// let mut published = WatchSet::new();
/// published.add_tuple(&tuple![Value::atom("year"), 87]);
/// assert!(listening.intersects(&published));
///
/// let mut other = WatchSet::new();
/// other.add_tuple(&tuple![Value::atom("month"), 5]);
/// assert!(!listening.intersects(&other));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WatchSet {
    /// Ascending, no duplicates: a commit publishes four keys and a
    /// parked pattern subscribes one or two, so a sorted vector is both
    /// the smallest set and the one whose order needs no caller's care.
    keys: Vec<WatchKey>,
}

impl WatchSet {
    /// Creates an empty watch set.
    pub fn new() -> WatchSet {
        WatchSet::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no keys are present.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Subscribes to the conservative key of `pattern`.
    pub fn add_pattern(&mut self, pattern: &Pattern) {
        self.add_key(WatchKey::of_pattern(pattern));
        // A constant non-atom head still needs the arity channel; a
        // wildcard/variable head already *is* the arity channel.
        if matches!(pattern.fields().first(), Some(Field::Const(_))) && pattern.functor().is_none()
        {
            self.add_key(WatchKey::Arity(pattern.arity()));
        }
    }

    /// Subscribes to the *exact* value-level key of `pattern` when one
    /// exists ([`WatchKey::value_of_pattern`]), falling back to the
    /// conservative keys otherwise. Exactness narrows wakeups without
    /// losing completeness: tuples publish a value key per argument slot.
    pub fn add_pattern_exact(&mut self, pattern: &Pattern) {
        match WatchKey::value_of_pattern(pattern) {
            Some(k) => self.add_key(k),
            None => self.add_pattern(pattern),
        }
    }

    /// Publishes the keys of `tuple`. Each key is an insertion into the
    /// sorted vector — right for the handful of keys a set holds; a
    /// commit of many tuples publishes through
    /// [`Dataspace::apply_batch`](crate::Dataspace::apply_batch), which
    /// sorts once.
    pub fn add_tuple(&mut self, tuple: &Tuple) {
        for key in WatchKey::of_tuple(tuple) {
            self.add_key(key);
        }
    }

    /// Inserts a raw key.
    pub fn add_key(&mut self, key: WatchKey) {
        if let Err(at) = self.keys.binary_search(&key) {
            self.keys.insert(at, key);
        }
    }

    /// Merges another set into this one.
    pub fn extend(&mut self, other: &WatchSet) {
        self.extend_unsorted(other.keys.iter().copied());
        self.normalize();
    }

    /// Appends keys in any order; the set is not one again until
    /// [`WatchSet::normalize`] ran. Lets a batch of any size publish
    /// with one sort instead of one shifting insert per key.
    pub(crate) fn extend_unsorted(&mut self, keys: impl IntoIterator<Item = WatchKey>) {
        self.keys.extend(keys);
    }

    /// Restores ascending order and uniqueness. The stable sort merges
    /// runs that are already ascending, so appending to a set that held
    /// keys before (a later shard of the same commit) costs one merge,
    /// not a sort from scratch.
    pub(crate) fn normalize(&mut self) {
        self.keys.sort();
        self.keys.dedup();
    }

    /// True if the two sets share a key.
    pub fn intersects(&self, other: &WatchSet) -> bool {
        let (small, large) = if self.keys.len() <= other.keys.len() {
            (&self.keys, &other.keys)
        } else {
            (&other.keys, &self.keys)
        };
        small.iter().any(|k| large.binary_search(k).is_ok())
    }

    /// Iterates over the keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &WatchKey> {
        self.keys.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple, Value};

    #[test]
    fn tuple_publishes_functor_arity_and_value_keys() {
        let t = tuple![Value::atom("label"), 1, 2];
        let keys: Vec<WatchKey> = WatchKey::of_tuple(&t).collect();
        assert_eq!(keys.len(), 4, "functor + arity + one value key per arg");
        let f = sdl_tuple::Atom::new("label");
        assert!(keys.contains(&WatchKey::Functor(f, 3)));
        assert!(keys.contains(&WatchKey::Arity(3)));
        assert!(keys.contains(&WatchKey::Value(f, 3, 1, value_hash(&Value::Int(1)))));
        assert!(keys.contains(&WatchKey::Value(f, 3, 2, value_hash(&Value::Int(2)))));
    }

    #[test]
    fn value_subscription_wakes_only_on_matching_value() {
        let mut sub = WatchSet::new();
        sub.add_pattern_exact(&pattern![Value::atom("count"), 7, var 0]);
        assert_eq!(sub.len(), 1, "exact pattern subscribes one value key");

        let mut hit = WatchSet::new();
        hit.add_tuple(&tuple![Value::atom("count"), 7, 99]);
        assert!(sub.intersects(&hit));

        let mut miss = WatchSet::new();
        miss.add_tuple(&tuple![Value::atom("count"), 8, 99]);
        assert!(!sub.intersects(&miss), "other values must not wake it");

        let mut other_rel = WatchSet::new();
        other_rel.add_tuple(&tuple![Value::atom("tally"), 7, 99]);
        assert!(!sub.intersects(&other_rel));

        let mut other_arity = WatchSet::new();
        other_arity.add_tuple(&tuple![Value::atom("count"), 7]);
        assert!(!sub.intersects(&other_arity));
    }

    #[test]
    fn exact_subscription_falls_back_without_const_args() {
        let mut sub = WatchSet::new();
        sub.add_pattern_exact(&pattern![Value::atom("count"), var 0, var 1]);
        let mut change = WatchSet::new();
        change.add_tuple(&tuple![Value::atom("count"), 1, 2]);
        assert!(sub.intersects(&change), "functor fallback still wakes");
        assert_eq!(
            WatchKey::value_of_pattern(&pattern![Value::atom("count"), var 0, var 1]),
            None
        );
        // Non-atom heads fall back too (no functor to key on).
        assert_eq!(WatchKey::value_of_pattern(&pattern![3, 4]), None);
    }

    #[test]
    fn value_key_prefers_slot_one() {
        let p = pattern![Value::atom("edge"), var 0, 5];
        match WatchKey::value_of_pattern(&p) {
            Some(WatchKey::Value(f, 3, 2, h)) => {
                assert_eq!(f, sdl_tuple::Atom::new("edge"));
                assert_eq!(h, value_hash(&Value::Int(5)));
            }
            other => panic!("expected slot-2 value key, got {other:?}"),
        }
        let p1 = pattern![Value::atom("edge"), 4, 5];
        match WatchKey::value_of_pattern(&p1) {
            Some(WatchKey::Value(_, 3, 1, h)) => assert_eq!(h, value_hash(&Value::Int(4))),
            other => panic!("expected slot-1 value key, got {other:?}"),
        }
    }

    #[test]
    fn non_atom_head_publishes_arity_only() {
        let t = tuple![1, 2];
        let keys: Vec<WatchKey> = WatchKey::of_tuple(&t).collect();
        assert_eq!(keys, vec![WatchKey::Arity(2)]);
    }

    #[test]
    fn functor_pattern_wakes_on_matching_functor() {
        let mut sub = WatchSet::new();
        sub.add_pattern(&pattern![Value::atom("year"), any]);
        let mut change = WatchSet::new();
        change.add_tuple(&tuple![Value::atom("year"), 87]);
        assert!(sub.intersects(&change));
    }

    #[test]
    fn functor_pattern_ignores_other_functor_same_arity() {
        let mut sub = WatchSet::new();
        sub.add_pattern(&pattern![Value::atom("year"), any]);
        let mut change = WatchSet::new();
        change.add_tuple(&tuple![Value::atom("month"), 5]);
        assert!(!sub.intersects(&change));
    }

    #[test]
    fn variable_head_pattern_wakes_on_any_same_arity() {
        let mut sub = WatchSet::new();
        sub.add_pattern(&pattern![var 0, any]);
        let mut change = WatchSet::new();
        change.add_tuple(&tuple![Value::atom("anything"), 1]);
        assert!(sub.intersects(&change));
        let mut change2 = WatchSet::new();
        change2.add_tuple(&tuple![7, 8]);
        assert!(sub.intersects(&change2));
        let mut wrong_arity = WatchSet::new();
        wrong_arity.add_tuple(&tuple![1, 2, 3]);
        assert!(!sub.intersects(&wrong_arity));
    }

    #[test]
    fn const_int_head_listens_on_arity() {
        // <3, α> has no functor; any arity-2 change must wake it.
        let mut sub = WatchSet::new();
        sub.add_pattern(&pattern![3, var 0]);
        let mut change = WatchSet::new();
        change.add_tuple(&tuple![3, 9]);
        assert!(sub.intersects(&change));
        let mut change_atom = WatchSet::new();
        change_atom.add_tuple(&tuple![Value::atom("x"), 9]);
        assert!(sub.intersects(&change_atom), "conservative wake");
    }

    #[test]
    fn iteration_order_ignores_insertion_order() {
        let t1 = tuple![Value::atom("job"), 7, 8];
        let t2 = tuple![Value::atom("done"), 7];
        let p = pattern![3, var 0];
        let mut a = WatchSet::new();
        a.add_tuple(&t1);
        a.add_tuple(&t2);
        a.add_pattern(&p);
        let mut b = WatchSet::new();
        b.add_pattern(&p);
        b.add_key(WatchKey::Arity(3));
        b.add_tuple(&t2);
        b.add_tuple(&t1);
        let mut c = WatchSet::new();
        c.extend(&b);
        let keys: Vec<WatchKey> = a.iter().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
        assert_eq!(keys, b.iter().copied().collect::<Vec<_>>());
        assert_eq!(keys, c.iter().copied().collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn set_operations() {
        let mut a = WatchSet::new();
        assert!(a.is_empty());
        a.add_key(WatchKey::Arity(2));
        assert_eq!(a.len(), 1);
        let mut b = WatchSet::new();
        b.add_key(WatchKey::Arity(3));
        assert!(!a.intersects(&b));
        b.extend(&a);
        assert!(a.intersects(&b));
        assert_eq!(b.iter().count(), 2);
    }
}
