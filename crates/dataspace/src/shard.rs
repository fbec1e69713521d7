//! A sharded dataspace for the threaded executor.
//!
//! The single `RwLock<Dataspace>` behind the threaded executor serializes
//! every commit, even when transactions touch disjoint relations. This
//! module partitions tuple instances by `(functor, arity)` — arity alone
//! for tuples without an atom head — into N independently locked shards,
//! so transactions whose footprints land on different shards validate and
//! commit concurrently.
//!
//! ## Routing invariant
//!
//! [`shard_of_tuple`] and [`shard_of_pattern`] agree: every tuple a
//! pattern could match lives in the shard `shard_of_pattern` names (or the
//! pattern is unroutable and maps to *all* shards). Concretely:
//!
//! * an atom-headed tuple hashes `(functor, arity)`; a pattern with a
//!   constant atom head hashes the same pair — and only tuples with that
//!   exact head and arity can match it;
//! * a tuple without an atom head hashes its arity only; a pattern whose
//!   head is a constant **non-atom** can only match such tuples, so it
//!   hashes the arity;
//! * a pattern with a variable or wildcard head could match either kind,
//!   so it routes to every shard ([`shard_of_pattern`] returns `None`).
//!
//! The same invariant extends to [`WatchKey`]s via [`shard_of_watch_key`],
//! so blocked-process wake routing follows the partition.
//!
//! ## Id allocation
//!
//! Each shard mints ids on a strided sequence: shard `i` of `n` starts at
//! `i + 1` with stride `n`, so sequences are disjoint and `(seq - 1) % n`
//! maps any id back to its shard in O(1) — no global allocator, no
//! id→shard table. With `n = 1` this degenerates to the dense `1, 2, 3,
//! …` sequence of a plain [`Dataspace`], so a single-shard store is
//! bit-for-bit identical to the unsharded one.
//!
//! ## Locking protocol
//!
//! Callers compute a footprint — the [`ShardSet`] of shards a
//! transaction's patterns, instance ids, and asserted tuples route to —
//! and acquire guards over exactly those shards with
//! [`ShardedDataspace::read_shards`] / [`ShardedDataspace::write_shards`].
//! Both acquire in ascending shard order, and no thread ever holds one
//! view while acquiring another, so lock acquisition is totally ordered
//! and deadlock-free. The returned views implement [`TupleSource`] over
//! the union of their locked shards, merging per-shard candidate lists
//! back into ascending id order.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use sdl_metrics::Metrics;
use sdl_sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use sdl_tuple::{Field, Pattern, ProcId, Tuple, TupleId};

use crate::store::{visit_listed, Action, BatchOutcome, Dataspace, TupleSource};
use crate::watch::{WatchKey, WatchSet};

/// Most shards a [`ShardedDataspace`] will split into; also the capacity
/// of [`ShardSet`]'s bitmask and the per-shard metrics arrays.
pub const MAX_SHARDS: usize = 64;

fn bucket_functor(f: &sdl_tuple::Atom, arity: usize, n: usize) -> usize {
    let mut h = DefaultHasher::new();
    f.hash(&mut h);
    arity.hash(&mut h);
    (h.finish() % n as u64) as usize
}

fn bucket_arity(arity: usize, n: usize) -> usize {
    let mut h = DefaultHasher::new();
    arity.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// The shard a tuple instance lives in: hash of `(functor, arity)` for
/// atom-headed tuples, hash of the arity alone otherwise.
pub fn shard_of_tuple(tuple: &Tuple, n: usize) -> usize {
    match tuple.functor() {
        Some(f) => bucket_functor(&f, tuple.arity(), n),
        None => bucket_arity(tuple.arity(), n),
    }
}

/// The single shard all possible matches of `pattern` live in, or `None`
/// when matches could live anywhere (variable or wildcard head).
pub fn shard_of_pattern(pattern: &Pattern, n: usize) -> Option<usize> {
    match pattern.functor() {
        Some(f) => Some(bucket_functor(&f, pattern.arity(), n)),
        None => match pattern.fields().first() {
            // A constant non-atom head only matches functor-less tuples,
            // which all hash by arity. An *empty* pattern likewise.
            Some(Field::Const(_)) => Some(bucket_arity(pattern.arity(), n)),
            None => Some(bucket_arity(0, n)),
            _ => None,
        },
    }
}

/// The shard whose commits can publish `key`, or `None` for every shard.
///
/// `Functor` and `Value` keys are published only by tuples of that head
/// and arity — one shard. `Arity` keys are published by *every* tuple of
/// that arity, atom-headed ones included, which are spread across shards
/// by functor.
pub fn shard_of_watch_key(key: &WatchKey, n: usize) -> Option<usize> {
    match key {
        WatchKey::Functor(f, arity) | WatchKey::Value(f, arity, _, _) => {
            Some(bucket_functor(f, *arity, n))
        }
        WatchKey::Arity(_) => None,
    }
}

/// The shards whose reverse wake indexes must hold a subscription on
/// `key` for no publication to be missed: the routed shard for
/// `Functor`/`Value` keys, every shard for `Arity` keys (any shard's
/// commits can publish those).
pub fn shards_of_watch_key(key: &WatchKey, n: usize) -> ShardSet {
    match shard_of_watch_key(key, n) {
        Some(s) => {
            let mut set = ShardSet::new();
            set.insert(s);
            set
        }
        None => ShardSet::all(n),
    }
}

/// A set of shard indices, backed by a `u64` bitmask (hence
/// [`MAX_SHARDS`] = 64).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSet {
    bits: u64,
}

impl ShardSet {
    /// The empty set.
    pub const fn new() -> ShardSet {
        ShardSet { bits: 0 }
    }

    /// The full set over `n` shards.
    pub fn all(n: usize) -> ShardSet {
        debug_assert!((1..=MAX_SHARDS).contains(&n));
        ShardSet {
            bits: if n == MAX_SHARDS {
                u64::MAX
            } else {
                (1u64 << n) - 1
            },
        }
    }

    /// Adds shard `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < MAX_SHARDS);
        self.bits |= 1u64 << i;
    }

    /// True if shard `i` is in the set.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.bits & (1u64 << i) != 0
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MAX_SHARDS).filter(|&i| self.contains(i))
    }

    /// Unions `other` into this set.
    pub fn extend(&mut self, other: ShardSet) {
        self.bits |= other.bits;
    }
}

impl fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// N independently locked [`Dataspace`] shards behind one store facade.
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{ShardedDataspace, TupleSource};
/// use sdl_tuple::{pattern, tuple, ProcId, Value};
///
/// let sds = ShardedDataspace::new(4);
/// sds.assert_tuple(ProcId::ENV, tuple![Value::atom("job"), 1]);
/// sds.assert_tuple(ProcId::ENV, tuple![Value::atom("done"), 2]);
/// let view = sds.read_shards(sds.all_shards());
/// assert_eq!(view.tuple_count(), 2);
/// assert!(view.contains_match(&pattern![Value::atom("job"), any]));
/// ```
pub struct ShardedDataspace {
    shards: Vec<RwLock<Dataspace>>,
    metrics: Metrics,
    /// Commit id of the last committed batch whose write footprint
    /// included each shard (`0` = never written). Written under the
    /// shard's write lock, so a reader holding any lock on the shard sees
    /// a value at least as new as the last batch that could have
    /// invalidated it — the basis for conflict attribution in traces.
    last_commit: Vec<AtomicU64>,
}

impl ShardedDataspace {
    /// Creates `n` empty shards (clamped to `1..=`[`MAX_SHARDS`]).
    pub fn new(n: usize) -> ShardedDataspace {
        let n = n.clamp(1, MAX_SHARDS);
        let shards = (0..n)
            .map(|i| {
                let mut d = Dataspace::new();
                d.set_seq_stride(i as u64 + 1, n as u64);
                RwLock::new(d)
            })
            .collect();
        ShardedDataspace {
            last_commit: (0..n).map(|_| AtomicU64::new(0)).collect(),
            shards,
            metrics: Metrics::disabled(),
        }
    }

    /// Records that committed batch `commit` wrote every shard in `set`.
    /// Call while still holding the batch's write-shard locks so the
    /// attribution is visible to any later conflicting attempt.
    pub fn note_commit(&self, set: ShardSet, commit: u64) {
        for s in set.iter() {
            self.last_commit[s].store(commit, Ordering::Release);
        }
    }

    /// The most recent commit id recorded over any shard in `set`
    /// (`0` if none of them has committed). Used to attribute an aborted
    /// attempt to the committed batch that most plausibly invalidated it.
    pub fn latest_commit_over(&self, set: ShardSet) -> u64 {
        set.iter()
            .map(|s| self.last_commit[s].load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Installs a metrics handle on every shard (mutations and index
    /// lookups count into the shared sink).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        for s in &mut self.shards {
            s.write().set_metrics(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// The set containing every shard.
    pub fn all_shards(&self) -> ShardSet {
        ShardSet::all(self.num_shards())
    }

    /// The shard `tuple` routes to.
    pub fn shard_of_tuple(&self, tuple: &Tuple) -> usize {
        shard_of_tuple(tuple, self.num_shards())
    }

    /// The shard all matches of `pattern` live in, or `None` for all.
    pub fn shard_of_pattern(&self, pattern: &Pattern) -> Option<usize> {
        shard_of_pattern(pattern, self.num_shards())
    }

    /// The shard that minted `id` — O(1) thanks to strided sequences.
    pub fn shard_of_id(&self, id: TupleId) -> usize {
        ((id.seq - 1) % self.num_shards() as u64) as usize
    }

    /// Asserts a tuple into its shard (briefly write-locking it),
    /// returning the fresh id. The builder-time entry point; workers go
    /// through [`ShardedDataspace::write_shards`] views instead.
    pub fn assert_tuple(&self, owner: ProcId, tuple: Tuple) -> TupleId {
        let s = self.shard_of_tuple(&tuple);
        self.shards[s].write().assert_tuple(owner, tuple)
    }

    /// Total live instances (briefly read-locking each shard).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-locks the shards in `set`, ascending, and returns a
    /// [`TupleSource`] view over their union.
    pub fn read_shards(&self, set: ShardSet) -> ShardReadView<'_> {
        ShardView {
            owner: self,
            guards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| set.contains(i).then(|| s.read()))
                .collect(),
        }
    }

    /// Write-locks the shards in `set`, ascending; the view additionally
    /// supports retract/assert routed to the owning shard.
    pub fn write_shards(&self, set: ShardSet) -> ShardWriteView<'_> {
        ShardView {
            owner: self,
            guards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| set.contains(i).then(|| s.write()))
                .collect(),
        }
    }

    /// Inserts an instance under a caller-provided id into the shard its
    /// sequence number routes to — the snapshot/recovery rebuild
    /// primitive. See [`Dataspace::insert_instance`] for the semantics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live in its shard.
    pub fn insert_instance(&self, id: TupleId, tuple: Tuple) {
        let s = self.shard_of_id(id);
        self.shards[s].write().insert_instance(id, tuple);
    }

    /// Advances each shard's mint cursor to at least the given value
    /// (never backwards); `cursors` beyond the shard count are ignored.
    /// See [`Dataspace::advance_seq_to`].
    pub fn advance_cursors(&self, cursors: &[u64]) {
        for (lock, &next) in self.shards.iter().zip(cursors) {
            lock.write().advance_seq_to(next);
        }
    }

    /// How many scans of any shard built coarse postings.
    #[cfg(test)]
    pub(crate) fn coarse_scans(&self) -> usize {
        self.shards.iter().map(|s| s.read().coarse_scans()).sum()
    }

    /// Drains every shard into one merged [`Dataspace`] (ids preserved),
    /// leaving the shards empty. Used to hand the final store back to the
    /// caller when a run ends.
    pub fn drain_into_dataspace(&self) -> Dataspace {
        let mut out = Dataspace::new();
        for lock in &self.shards {
            let shard = std::mem::take(&mut *lock.write());
            for (id, t) in shard.unordered() {
                out.insert_instance(id, t.clone());
            }
        }
        out
    }
}

impl fmt::Debug for ShardedDataspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedDataspace")
            .field("shards", &self.num_shards())
            .finish()
    }
}

/// A set of held shard guards, answering queries over their union.
///
/// `guards[i]` is `Some` iff shard `i` is in the view's footprint;
/// lookups route by the same partition as the store, so a pattern whose
/// shard is locked sees exactly the answer the whole store would give.
pub struct ShardView<'a, G> {
    owner: &'a ShardedDataspace,
    guards: Vec<Option<G>>,
}

/// Read-locked footprint view.
pub(crate) type ShardReadView<'a> = ShardView<'a, RwLockReadGuard<'a, Dataspace>>;
/// Write-locked footprint view.
pub type ShardWriteView<'a> = ShardView<'a, RwLockWriteGuard<'a, Dataspace>>;

impl<G: Deref<Target = Dataspace>> ShardView<'_, G> {
    fn shard(&self, i: usize) -> Option<&Dataspace> {
        self.guards[i].as_deref()
    }

    fn locked(&self) -> impl Iterator<Item = &Dataspace> {
        self.guards.iter().filter_map(|g| g.as_deref())
    }

    /// The view's live instances (id order) and per-shard mint cursors —
    /// the payload a consistent snapshot serializes. Meaningful only for
    /// a full-footprint view: holding every shard guard pins the store
    /// against concurrent commits, so the returned state is exactly the
    /// effect of some prefix of the commit history.
    ///
    /// # Panics
    ///
    /// Panics if the view does not cover every shard.
    pub fn snapshot_state(&self) -> (Vec<u64>, Vec<(TupleId, Tuple)>) {
        let mut cursors = Vec::with_capacity(self.guards.len());
        let mut tuples = Vec::new();
        for g in &self.guards {
            let d = g
                .as_deref()
                .expect("snapshot_state requires a full-footprint view");
            cursors.push(d.next_seq());
            tuples.extend(d.unordered().map(|(id, t)| (id, t.clone())));
        }
        tuples.sort_unstable_by_key(|(id, _)| *id);
        (cursors, tuples)
    }

    /// The ascending id lists `fill` produces for `pattern`'s shards,
    /// merged back into one ascending list.
    fn merged(&self, pattern: &Pattern, fill: impl Fn(&Dataspace) -> Vec<TupleId>) -> Vec<TupleId> {
        match self.owner.shard_of_pattern(pattern) {
            Some(s) => self.shard(s).map_or_else(Vec::new, fill),
            None => {
                let mut out: Vec<TupleId> = self.locked().flat_map(fill).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

impl<G: Deref<Target = Dataspace>> TupleSource for ShardView<'_, G> {
    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.merged(pattern, |d| d.candidate_ids(pattern))
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        match self.owner.shard_of_pattern(pattern) {
            Some(s) => {
                if let Some(d) = self.shard(s) {
                    d.visit_candidates(pattern, visit);
                }
            }
            None => {
                let mut locked = self.locked();
                match (locked.next(), locked.next()) {
                    (Some(d), None) => d.visit_candidates(pattern, visit),
                    // Several shards' ids interleave: merge the lists
                    // first, so the order stays ascending.
                    _ => visit_listed(self, pattern, visit),
                }
            }
        }
    }

    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        match self.owner.shard_of_pattern(pattern) {
            Some(s) => self.shard(s).map_or(0, |d| d.estimate_candidates(pattern)),
            None => self.locked().map(|d| d.estimate_candidates(pattern)).sum(),
        }
    }

    fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.shard(self.owner.shard_of_id(id))?.tuple(id)
    }

    fn tuple_count(&self) -> usize {
        self.locked().map(Dataspace::tuple_count).sum()
    }

    fn all_ids(&self) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = self
            .locked()
            .flat_map(|d| d.unordered().map(|(id, _)| id))
            .collect();
        out.sort_unstable();
        out
    }

    fn metrics(&self) -> &Metrics {
        &self.owner.metrics
    }

    fn contains_match(&self, pattern: &Pattern) -> bool {
        match self.owner.shard_of_pattern(pattern) {
            Some(s) => self.shard(s).is_some_and(|d| d.contains_match(pattern)),
            None => self.locked().any(|d| d.contains_match(pattern)),
        }
    }

    fn matching_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.merged(pattern, |d| d.find_all(pattern))
    }
}

impl<G: DerefMut<Target = Dataspace>> ShardView<'_, G> {
    /// Applies a whole commit's write set in one pass, handing each
    /// action straight to its shard and moving each asserted tuple in.
    /// Returns the outcome (retractions and minted ids in action order,
    /// as the store-level batch does) plus the set of shards that
    /// actually changed, which is exactly the wake scan's fan-out.
    ///
    /// # Panics
    ///
    /// Panics if any action routes to a shard outside the view's
    /// footprint.
    pub fn apply_batch(
        &mut self,
        actions: Vec<Action>,
        watch: &mut WatchSet,
    ) -> (BatchOutcome, ShardSet) {
        let mut out = BatchOutcome::default();
        let mut changed = ShardSet::new();
        for action in actions {
            let s = match &action {
                Action::Retract(id) => self.owner.shard_of_id(*id),
                Action::Assert(_, t) => self.owner.shard_of_tuple(t),
            };
            let shard = self.guards[s]
                .as_deref_mut()
                .expect("batched action's shard must be in the write footprint");
            if shard.apply_action(action, watch, &mut out) {
                changed.insert(s);
            }
        }
        watch.normalize();
        out.record(&self.owner.metrics);
        (out, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple, Value};

    fn atom(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn tuple_and_pattern_routing_agree() {
        // For every (tuple, pattern-that-matches-it) pair, a routable
        // pattern must name the tuple's shard.
        let tuples = [
            tuple![atom("job"), 1, 2],
            tuple![atom("job"), 9],
            tuple![atom("done"), 1],
            tuple![5, 6],
            tuple![],
        ];
        let cases: [(&Tuple, Pattern); 6] = [
            (&tuples[0], pattern![atom("job"), any, any]),
            (&tuples[0], pattern![atom("job"), 1, var 0]),
            (&tuples[1], pattern![atom("job"), any]),
            (&tuples[2], pattern![atom("done"), var 0]),
            (&tuples[3], pattern![5, any]),
            (&tuples[4], pattern![]),
        ];
        for n in [1usize, 2, 4, 7, 16, 64] {
            for (t, p) in &cases {
                let ts = shard_of_tuple(t, n);
                // An unroutable (all-shards) pattern trivially covers it.
                if let Some(ps) = shard_of_pattern(p, n) {
                    assert_eq!(ts, ps, "n={n} tuple={t} pattern={p:?}");
                }
            }
            // Variable-head patterns are unroutable.
            assert_eq!(shard_of_pattern(&pattern![var 0, any], n), None);
            assert_eq!(shard_of_pattern(&pattern![any, any], n), None);
        }
    }

    #[test]
    fn watch_key_routing_matches_tuple_routing() {
        let t = tuple![atom("job"), 3];
        for n in [1usize, 3, 8, 64] {
            for key in WatchKey::of_tuple(&t) {
                // The arity channel (None) listens everywhere.
                if let Some(s) = shard_of_watch_key(&key, n) {
                    assert_eq!(s, shard_of_tuple(&t, n));
                }
            }
        }
    }

    #[test]
    fn strided_ids_route_back_to_their_shard() {
        let sds = ShardedDataspace::new(4);
        for i in 0..40i64 {
            let t = tuple![atom(["a", "b", "c", "d", "e"][(i % 5) as usize]), i];
            let expect = sds.shard_of_tuple(&t);
            let id = sds.assert_tuple(ProcId::ENV, t);
            assert_eq!(sds.shard_of_id(id), expect, "id {id:?}");
        }
        assert_eq!(sds.len(), 40);
    }

    #[test]
    fn single_shard_mints_dense_ids_like_a_plain_dataspace() {
        let sds = ShardedDataspace::new(1);
        let mut plain = Dataspace::new();
        for i in 0..10i64 {
            let a = sds.assert_tuple(ProcId(7), tuple![atom("x"), i]);
            let b = plain.assert_tuple(ProcId(7), tuple![atom("x"), i]);
            assert_eq!(a, b, "single shard must be bit-for-bit identical");
        }
    }

    #[test]
    fn footprint_view_answers_like_the_full_store() {
        let sds = ShardedDataspace::new(8);
        for i in 0..30i64 {
            sds.assert_tuple(ProcId::ENV, tuple![atom("job"), i]);
            sds.assert_tuple(ProcId::ENV, tuple![atom("done"), i]);
        }
        let p = pattern![atom("job"), any];
        let fp = {
            let mut s = ShardSet::new();
            s.insert(sds.shard_of_pattern(&p).unwrap());
            s
        };
        let view = sds.read_shards(fp);
        assert_eq!(view.matching_ids(&p).len(), 30);
        assert_eq!(view.estimate_candidates(&p), 30);
        assert!(view.contains_match(&p));
        // Out-of-footprint ids are invisible — the footprint contract.
        let full = sds.read_shards(sds.all_shards());
        assert_eq!(full.tuple_count(), 60);
        let ids = full.all_ids();
        assert_eq!(ids.len(), 60);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
    }

    #[test]
    fn unroutable_pattern_merges_across_shards_in_id_order() {
        let sds = ShardedDataspace::new(8);
        for i in 0..20i64 {
            sds.assert_tuple(
                ProcId::ENV,
                tuple![atom(["p", "q", "r"][(i % 3) as usize]), i],
            );
        }
        let view = sds.read_shards(sds.all_shards());
        let ids = view.candidate_ids(&pattern![var 0, any]);
        assert_eq!(ids.len(), 20);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn write_view_batches_across_shards() {
        let sds = ShardedDataspace::new(4);
        let a = sds.assert_tuple(ProcId::ENV, tuple![atom("job"), 1]);
        let b = sds.assert_tuple(ProcId::ENV, tuple![atom("task"), 2]);
        let actions = vec![
            Action::Retract(a),
            Action::Assert(ProcId(3), tuple![atom("done"), 1]),
            Action::Retract(b),
            Action::Assert(ProcId(3), tuple![atom("done"), 2]),
            Action::Assert(ProcId(3), tuple![atom("log"), 9]),
        ];
        let mut fp = ShardSet::new();
        fp.insert(sds.shard_of_id(a));
        fp.insert(sds.shard_of_id(b));
        fp.insert(sds.shard_of_tuple(&tuple![atom("done"), 1]));
        fp.insert(sds.shard_of_tuple(&tuple![atom("log"), 9]));
        let mut view = sds.write_shards(fp);
        let mut watch = WatchSet::new();
        let (out, changed) = view.apply_batch(actions, &mut watch);
        drop(view);
        assert_eq!(out.retracted.len(), 2);
        assert_eq!(out.asserted.len(), 3, "assert ids follow action order");
        // Each minted id routes back to its tuple's shard.
        assert_eq!(
            sds.shard_of_id(out.asserted[2]),
            sds.shard_of_tuple(&tuple![atom("log"), 9])
        );
        for s in changed.iter() {
            assert!(fp.contains(s));
        }
        assert_eq!(sds.len(), 3);
        let mut sub = WatchSet::new();
        sub.add_pattern_exact(&pattern![atom("done"), 2]);
        assert!(watch.intersects(&sub), "batched watch carries value keys");
    }

    #[test]
    fn multi_shard_batch_reports_retractions_in_action_order() {
        let sds = ShardedDataspace::new(2);
        let on = |shard| {
            (0i64..)
                .map(|i| tuple![atom(&format!("r{i}")), i])
                .find(|t| sds.shard_of_tuple(t) == shard)
                .expect("some relation routes to each shard")
        };
        // The first retraction routes to the higher shard.
        let (high, low) = (on(1), on(0));
        let a = sds.assert_tuple(ProcId::ENV, high.clone());
        let b = sds.assert_tuple(ProcId::ENV, low.clone());
        let actions = vec![Action::Retract(a), Action::Retract(b)];
        let (out, changed) = sds
            .write_shards(sds.all_shards())
            .apply_batch(actions, &mut WatchSet::new());
        assert_eq!(out.retracted, vec![(a, high), (b, low)]);
        assert_eq!(changed, sds.all_shards());
    }

    #[test]
    fn drain_preserves_instances_and_ids() {
        let sds = ShardedDataspace::new(4);
        let mut ids = Vec::new();
        for i in 0..25i64 {
            ids.push(sds.assert_tuple(ProcId::ENV, tuple![atom("k"), i]));
        }
        let merged = sds.drain_into_dataspace();
        assert_eq!(merged.len(), 25);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(merged.tuple(*id), Some(&tuple![atom("k"), i as i64]));
        }
        assert!(sds.is_empty(), "shards were drained");
    }

    #[test]
    fn shard_set_operations() {
        let mut s = ShardSet::new();
        assert_eq!(s.iter().next(), None);
        s.insert(0);
        s.insert(5);
        assert!(s.contains(5) && !s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5]);
        let all = ShardSet::all(4);
        assert_eq!(all.iter().count(), 4);
        assert_eq!(ShardSet::all(MAX_SHARDS).iter().count(), MAX_SHARDS);
        let mut u = s;
        u.extend(all);
        assert_eq!(u.iter().count(), 5);
    }
}
