//! The dataspace store: an indexed multiset of tuple instances.

use std::fmt;

use sdl_metrics::{Counter, Metrics};
use sdl_tuple::{Bindings, Field, Pattern, ProcId, Tuple, TupleId};

use crate::index::TupleIndex;
use crate::solve::{AtomMode, QueryAtom};
use crate::watch::{WatchKey, WatchSet};

/// Anything tuples can be matched against: the full [`Dataspace`], a
/// locked shard footprint, or a process's view of either.
///
/// The query solver is written against this trait so that, per the paper,
/// "transactions act upon the window as if it represented the whole
/// dataspace".
pub trait TupleSource {
    /// Instance ids that *may* match `pattern` (a superset of actual
    /// matches), in deterministic (id) order.
    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId>;

    /// Hands `visit` each candidate for `pattern` — the ids
    /// [`TupleSource::candidate_ids`] lists, in that (ascending) order,
    /// with the tuple stored under each — until it returns `false`. An
    /// `exists` query that stops at its first solution so touches the
    /// tuples it uses, not the whole posting they sit in. `visit` may
    /// query this source again (the join does, once per nesting level).
    ///
    /// Indexed sources walk their postings in place; one that has to
    /// merge several id lists to keep the order (an unroutable pattern
    /// over several shards) may gather and sort them before the first
    /// call.
    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        visit_listed(self, pattern, visit);
    }

    /// Cheap upper-bound estimate of how many candidates
    /// [`TupleSource::candidate_ids`] would return — the query planner's
    /// selectivity probe. Must not allocate or record index metrics;
    /// indexed sources answer from posting lengths in O(1) (a variable
    /// head with a constant slot 1 probes once per functor of the arity).
    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        self.candidate_ids(pattern).len()
    }

    /// The tuple stored under `id`, if present.
    fn tuple(&self, id: TupleId) -> Option<&Tuple>;

    /// Number of tuple instances visible.
    fn tuple_count(&self) -> usize;

    /// Ids of every visible instance, ascending. Lets pattern-free
    /// enumeration (window sizing, snapshotting) work through a trait
    /// object, where the concrete `iter()` methods are unavailable.
    fn all_ids(&self) -> Vec<TupleId>;

    /// The metrics handle the solver should record into while querying
    /// this source. Defaults to the shared disabled handle, so existing
    /// sources (windows, snapshots) stay metric-free unless they opt in.
    fn metrics(&self) -> &Metrics {
        &sdl_metrics::DISABLED
    }

    /// True if some visible instance matches `pattern` (no bindings kept).
    fn contains_match(&self, pattern: &Pattern) -> bool {
        first_match(self, pattern).is_some()
    }

    /// Ids of all visible instances that actually match `pattern`
    /// (fresh bindings per instance), ascending. Optimistic executors
    /// record this at `forall` evaluation time and compare at commit
    /// time: ids are never reused, so an equal id set implies the same
    /// tuples — and hence the same solution set — for that atom.
    fn matching_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        let mut out = Vec::new();
        visit_matches(self, pattern, &mut |id| {
            out.push(id);
            true
        });
        out
    }

    /// Adds to `watch` the keys a transaction parked on `atom` listens
    /// on: keys published by every commit that can change which visible
    /// instances match the atom. A store subscribes the atom's own
    /// pattern — its exact value key when positive, its coarse channel
    /// when negated (the enabling change is a retraction anywhere in the
    /// match set). A source that filters the store (a process window)
    /// also listens on what moves tuples in and out of it.
    fn subscribe(&self, atom: &QueryAtom, watch: &mut WatchSet) {
        if atom.mode == AtomMode::Neg {
            watch.add_pattern(&atom.pattern);
        } else {
            watch.add_pattern_exact(&atom.pattern);
        }
    }
}

/// [`TupleSource::visit_candidates`] over the list
/// [`TupleSource::candidate_ids`] returns: for sources with nothing to
/// walk in place.
pub(crate) fn visit_listed<S: TupleSource + ?Sized>(
    source: &S,
    pattern: &Pattern,
    visit: &mut dyn FnMut(TupleId, &Tuple) -> bool,
) {
    for id in source.candidate_ids(pattern) {
        let tuple = source.tuple(id).expect("candidate id must be live");
        if !visit(id, tuple) {
            break;
        }
    }
}

/// Hands `visit` the id of each visible instance matching `pattern`
/// (fresh bindings per instance), ascending, until it returns `false`.
fn visit_matches<S: TupleSource + ?Sized>(
    source: &S,
    pattern: &Pattern,
    visit: &mut dyn FnMut(TupleId) -> bool,
) {
    let mut b = Bindings::new(pattern.vars().map(|v| v.0 as usize + 1).max().unwrap_or(0));
    source.visit_candidates(pattern, &mut |id, tuple| {
        let matched = pattern.matches(tuple, &mut b);
        b.undo_to(0);
        !matched || visit(id)
    });
}

/// The first visible instance matching `pattern`, in id order — what a
/// Linda `inp`/`rdp` takes.
pub fn first_match<S: TupleSource + ?Sized>(source: &S, pattern: &Pattern) -> Option<TupleId> {
    let mut found = None;
    visit_matches(source, pattern, &mut |id| {
        found = Some(id);
        false
    });
    found
}

/// The SDL dataspace: a multiset of tuples with instance identity.
///
/// Each assertion mints a fresh [`TupleId`] recording the owner process, so
/// several instances of the same tuple value coexist and "retracting one
/// instance of a tuple may leave other instances of it in the dataspace".
///
/// A batched commit ([`Dataspace::apply_batch`]) publishes the
/// [`WatchKey`](crate::WatchKey)s used for delayed-transaction wake-up.
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{Dataspace, TupleSource};
/// use sdl_tuple::{tuple, ProcId, Value};
///
/// let mut d = Dataspace::new();
/// let id = d.assert_tuple(ProcId(1), tuple![Value::atom("year"), 87]);
/// assert_eq!(d.tuple(id), Some(&tuple![Value::atom("year"), 87]));
/// assert_eq!(d.retract(id), Some(tuple![Value::atom("year"), 87]));
/// assert!(d.is_empty());
/// ```
#[derive(Clone)]
pub struct Dataspace {
    index: TupleIndex,
    next_seq: u64,
    /// Distance between consecutive minted sequence numbers. 1 for a
    /// standalone store; shard `i` of an n-way
    /// [`ShardedDataspace`](crate::ShardedDataspace) mints `i+1, i+1+n,
    /// …` so `(seq - 1) % n` routes any id back to its shard in O(1).
    seq_stride: u64,
    metrics: Metrics,
}

impl Dataspace {
    /// Creates an empty dataspace. Tuples are indexed by head and arity
    /// and by the value in slot 1 — SDL style puts a discriminating
    /// symbol first (`<label, …>`, `<threshold, …>`) and the entity
    /// second.
    pub fn new() -> Dataspace {
        Dataspace {
            index: TupleIndex::default(),
            next_seq: 1,
            seq_stride: 1,
            metrics: Metrics::disabled(),
        }
    }

    /// An empty dataspace whose index keys every value by one hash.
    #[cfg(test)]
    pub(crate) fn colliding() -> Dataspace {
        Dataspace {
            index: TupleIndex::colliding(),
            ..Dataspace::new()
        }
    }

    /// How many scans of the store built coarse postings.
    #[cfg(test)]
    pub(crate) fn coarse_scans(&self) -> usize {
        self.index.scans()
    }

    /// Installs a metrics handle; subsequent mutations and candidate
    /// lookups are counted. Clones of this dataspace share the sink.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Configures a strided sequence: subsequent asserts mint `start`,
    /// `start + stride`, `start + 2·stride`, … Shard `i` (0-based) of an
    /// n-way sharded store uses `(i + 1, n)`, making ids disjoint across
    /// shards and `(seq - 1) % n` the id→shard map. `(1, 1)` — the
    /// construction default — is the ordinary dense sequence.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the store already minted an id.
    pub(crate) fn set_seq_stride(&mut self, start: u64, stride: u64) {
        assert!(stride > 0, "sequence stride must be positive");
        assert!(
            self.is_empty() && self.next_seq == 1,
            "stride must be set before the store is used"
        );
        self.next_seq = start;
        self.seq_stride = stride;
    }

    /// The sequence number the next assert will mint.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Advances the mint cursor to at least `next` (never backwards).
    ///
    /// [`Dataspace::insert_instance`] only moves the cursor past the ids
    /// it actually sees, so a store rebuilt from a snapshot whose highest
    /// minted ids were retracted before the snapshot would re-mint them;
    /// recovery calls this with the durable cursor to restore the exact
    /// id sequence.
    pub fn advance_seq_to(&mut self, next: u64) {
        self.next_seq = self.next_seq.max(next);
    }

    /// Inserts an instance under a caller-provided id, preserving it
    /// exactly — the shard-merge primitive, also useful for rebuilding
    /// snapshots. Updates the index but not the
    /// metrics (the mutation was already accounted for where the id was
    /// minted); advances `next_seq` past `id.seq` so later asserts cannot
    /// collide.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live.
    pub fn insert_instance(&mut self, id: TupleId, tuple: Tuple) {
        self.index.insert(id, tuple);
        if id.seq >= self.next_seq {
            self.next_seq = id.seq + self.seq_stride;
        }
    }

    /// Number of live tuple instances.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no instances are live.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    fn mint(&mut self, owner: ProcId) -> TupleId {
        let id = TupleId {
            owner,
            seq: self.next_seq,
        };
        self.next_seq += self.seq_stride;
        id
    }

    /// Asserts a tuple on behalf of `owner`, returning the fresh instance
    /// id.
    pub fn assert_tuple(&mut self, owner: ProcId, tuple: Tuple) -> TupleId {
        let id = self.mint(owner);
        self.index.insert(id, tuple);
        self.metrics.inc(Counter::TuplesAsserted);
        id
    }

    /// Retracts the instance `id`, returning its tuple if it was live.
    pub fn retract(&mut self, id: TupleId) -> Option<Tuple> {
        let (tuple, _) = self.index.remove(id)?;
        self.metrics.inc(Counter::TuplesRetracted);
        Some(tuple)
    }

    /// True if instance `id` is live.
    pub fn contains_id(&self, id: TupleId) -> bool {
        self.index.get(id).is_some()
    }

    /// Multiset count of instances whose value equals `tuple` — a ground
    /// lookup through the index, like any other.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdl_dataspace::Dataspace;
    /// use sdl_tuple::{tuple, ProcId};
    ///
    /// let mut d = Dataspace::new();
    /// d.assert_tuple(ProcId::ENV, tuple![1]);
    /// d.assert_tuple(ProcId::ENV, tuple![1]);
    /// assert_eq!(d.count_value(&tuple![1]), 2);
    /// assert_eq!(d.count_value(&tuple![2]), 0);
    /// ```
    pub fn count_value(&self, tuple: &Tuple) -> usize {
        self.count_matches(&tuple.iter().cloned().map(Field::Const).collect())
    }

    /// Iterates over all live instances in id order (sorted per call:
    /// the instance table itself has no order).
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.index.iter()
    }

    /// All live instances in no particular order (see
    /// [`Dataspace::iter`] for id order).
    pub(crate) fn unordered(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.index.unordered()
    }

    /// All instance ids matching `pattern` with fresh bindings, id order.
    pub fn find_all(&self, pattern: &Pattern) -> Vec<TupleId> {
        TupleSource::matching_ids(self, pattern)
    }

    /// Number of instances matching `pattern`.
    pub fn count_matches(&self, pattern: &Pattern) -> usize {
        self.find_all(pattern).len()
    }
}

/// One mutation in a commit's write set, consumed by
/// [`Dataspace::apply_batch`] and the sharded write view's `apply_batch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Retract the instance with this id (ignored if not live).
    Retract(TupleId),
    /// Assert this tuple on behalf of the given process.
    Assert(ProcId, Tuple),
}

/// What a batched commit did, correlated with the input actions.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// `(id, tuple)` for every `Retract` that was live, in action order.
    pub retracted: Vec<(TupleId, Tuple)>,
    /// The fresh id minted for each `Assert`, in action order.
    pub asserted: Vec<TupleId>,
}

impl BatchOutcome {
    /// Counts the batch's mutations into `metrics`, once per batch.
    pub(crate) fn record(&self, metrics: &Metrics) {
        metrics.add(Counter::TuplesRetracted, self.retracted.len() as u64);
        metrics.add(Counter::TuplesAsserted, self.asserted.len() as u64);
    }
}

impl Dataspace {
    /// Applies a whole commit's write set in one pass.
    ///
    /// Semantically equivalent to calling [`Dataspace::retract`] /
    /// [`Dataspace::assert_tuple`] per action, but the metrics are
    /// bumped once, and the published [`WatchKey`]s of
    /// every changed tuple — built from the value hashes the index just
    /// computed — are merged into `watch`, the single [`WatchSet`] the
    /// commit hands to the wake scan, in one sort however many tuples a
    /// high-fanout `forall` or consensus composite changes.
    ///
    /// Retracts of ids that are not live are skipped (mirroring
    /// [`Dataspace::retract`] returning `None`); callers validate
    /// liveness beforehand.
    pub fn apply_batch(&mut self, actions: &[Action], watch: &mut WatchSet) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for action in actions {
            self.apply_action(action.clone(), watch, &mut out);
        }
        watch.normalize();
        out.record(&self.metrics);
        out
    }

    /// One action of a batch: appends its outcome to `out` and its watch
    /// keys to `watch` (unsorted), and moves an asserted tuple in. True
    /// when the store changed. The caller normalises `watch` and records
    /// the metrics once per batch.
    pub(crate) fn apply_action(
        &mut self,
        action: Action,
        watch: &mut WatchSet,
        out: &mut BatchOutcome,
    ) -> bool {
        match action {
            Action::Retract(id) => {
                let Some((tuple, slot1)) = self.index.remove(id) else {
                    return false;
                };
                watch.extend_unsorted(WatchKey::of_hashed_tuple(&tuple, slot1));
                out.retracted.push((id, tuple));
            }
            Action::Assert(owner, tuple) => {
                let id = self.mint(owner);
                let (tuple, slot1) = self.index.insert(id, tuple);
                watch.extend_unsorted(WatchKey::of_hashed_tuple(tuple, slot1));
                out.asserted.push(id);
            }
        }
        true
    }
}

impl TupleSource for Dataspace {
    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        let (out, served) = self.index.candidate_ids(pattern);
        self.metrics.inc(served);
        out
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        self.metrics.inc(self.index.visit(pattern, visit));
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
        self.index.ids()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl Default for Dataspace {
    fn default() -> Dataspace {
        Dataspace::new()
    }
}

impl fmt::Debug for Dataspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataspace")
            .field("len", &self.len())
            .finish()
    }
}

impl fmt::Display for Dataspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (id, t) in self.iter() {
            writeln!(f, "  {t}  # {id}")?;
        }
        write!(f, "}}")
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
    fn assert_retract_roundtrip() {
        let mut d = Dataspace::new();
        let id = d.assert_tuple(ProcId(3), tuple![atom("year"), 87]);
        assert_eq!(id.owner, ProcId(3));
        assert!(d.contains_id(id));
        assert_eq!(d.len(), 1);
        assert_eq!(d.retract(id), Some(tuple![atom("year"), 87]));
        assert!(!d.contains_id(id));
        assert_eq!(d.retract(id), None, "double retract is None");
        assert!(d.is_empty());
    }

    #[test]
    fn multiset_semantics() {
        let mut d = Dataspace::new();
        let a = d.assert_tuple(ProcId(1), tuple![atom("x")]);
        let b = d.assert_tuple(ProcId(2), tuple![atom("x")]);
        assert_ne!(a, b, "instances are distinct");
        assert_eq!(d.count_value(&tuple![atom("x")]), 2);
        d.retract(a);
        assert_eq!(d.count_value(&tuple![atom("x")]), 1, "one instance left");
        assert!(d.contains_match(&pattern![atom("x")]));
    }

    #[test]
    fn noop_retract_counts_nothing() {
        let (m, reg) = Metrics::registry();
        let mut d = Dataspace::new();
        d.set_metrics(m);
        let id = d.assert_tuple(ProcId(1), tuple![1]);
        assert_eq!(d.retract(id), Some(tuple![1]));
        assert_eq!(reg.counter(Counter::TuplesRetracted), 1);
        assert_eq!(d.retract(id), None);
        assert_eq!(reg.counter(Counter::TuplesRetracted), 1, "no-op retract");
    }

    #[test]
    fn functor_index_narrows_candidates() {
        let mut d = Dataspace::new();
        for i in 0..10 {
            d.assert_tuple(ProcId(1), tuple![atom("label"), i]);
            d.assert_tuple(ProcId(1), tuple![atom("threshold"), i]);
            d.assert_tuple(ProcId(1), tuple![i, i]); // non-atom head
        }
        let c = d.candidate_ids(&pattern![atom("label"), any]);
        assert_eq!(c.len(), 10);
        // Variable-head pattern of arity 2 must see all arity-2 tuples.
        let c2 = d.candidate_ids(&pattern![var 0, any]);
        assert_eq!(c2.len(), 30);
    }

    #[test]
    fn find_all_and_count() {
        let mut d = Dataspace::new();
        for i in 0..4 {
            d.assert_tuple(ProcId(1), tuple![atom("k"), i]);
        }
        assert_eq!(d.find_all(&pattern![atom("k"), any]).len(), 4);
        assert_eq!(d.count_matches(&pattern![atom("k"), 2]), 1);
        assert_eq!(d.count_matches(&pattern![atom("j"), any]), 0);
    }

    #[test]
    fn contains_match_ground_fast_path() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId(1), tuple![atom("year"), 87]);
        assert!(d.contains_match(&pattern![atom("year"), 87]));
        assert!(!d.contains_match(&pattern![atom("year"), 88]));
    }

    #[test]
    fn pattern_with_shared_variable() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId(1), tuple![3, 4]);
        d.assert_tuple(ProcId(1), tuple![5, 5]);
        assert!(d.contains_match(&pattern![var 0, var 0]));
        assert_eq!(d.count_matches(&pattern![var 0, var 0]), 1);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut d = Dataspace::new();
        let a = d.assert_tuple(ProcId(1), tuple![1]);
        let b = d.assert_tuple(ProcId(1), tuple![2]);
        let ids: Vec<TupleId> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn index_cleanup_after_retract() {
        let mut d = Dataspace::new();
        let id = d.assert_tuple(ProcId(1), tuple![atom("only"), 1]);
        d.retract(id);
        assert!(d.candidate_ids(&pattern![atom("only"), any]).is_empty());
        assert!(d.candidate_ids(&pattern![var 0, any]).is_empty());
    }

    #[test]
    fn display_and_debug() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId(1), tuple![atom("x"), 1]);
        let s = d.to_string();
        assert!(s.contains("<x, 1>"));
        assert!(format!("{d:?}").contains("Dataspace"));
    }

    #[test]
    fn metrics_count_mutations_and_index_paths() {
        let (m, reg) = Metrics::registry();
        let mut d = Dataspace::new();
        d.set_metrics(m);
        let id = d.assert_tuple(ProcId(1), tuple![atom("k"), 1]);
        d.retract(id);
        assert_eq!(reg.counter(Counter::TuplesAsserted), 1);
        assert_eq!(reg.counter(Counter::TuplesRetracted), 1);
        d.assert_tuple(ProcId(1), tuple![atom("k"), 2]);
        d.candidate_ids(&pattern![atom("k"), 2]); // arg1 point lookup
        d.candidate_ids(&pattern![atom("k"), any]); // functor index
        d.candidate_ids(&pattern![var 0, any]); // arity-filtered walk
        assert_eq!(reg.counter(Counter::IndexHitArg1), 1);
        assert_eq!(reg.counter(Counter::IndexHitFunctor), 1);
        assert_eq!(reg.counter(Counter::IndexHitArity), 1);
    }

    #[test]
    fn apply_batch_matches_per_tuple_application() {
        // Drive the same mutation sequence through the per-tuple API and
        // the batched API; every observable (instances, indexes, counts)
        // must agree.
        let mut per_tuple = Dataspace::new();
        let mut batched = Dataspace::new();
        let seed: Vec<TupleId> = (0..6i64)
            .map(|i| per_tuple.assert_tuple(ProcId(1), tuple![atom("k"), i % 3, i]))
            .collect();
        let seed_b: Vec<TupleId> = (0..6i64)
            .map(|i| batched.assert_tuple(ProcId(1), tuple![atom("k"), i % 3, i]))
            .collect();
        assert_eq!(seed, seed_b);

        let mut actions = vec![Action::Retract(seed[0]), Action::Retract(seed[3])];
        for i in 0..4i64 {
            actions.push(Action::Assert(ProcId(2), tuple![atom("m"), i]));
        }
        actions.push(Action::Assert(ProcId(2), tuple![7, 8]));

        for a in &actions {
            match a {
                Action::Retract(id) => {
                    per_tuple.retract(*id);
                }
                Action::Assert(owner, t) => {
                    per_tuple.assert_tuple(*owner, t.clone());
                }
            }
        }
        let mut watch = WatchSet::new();
        let out = batched.apply_batch(&actions, &mut watch);
        assert_eq!(out.retracted.len(), 2);
        assert_eq!(out.asserted.len(), 5);

        for p in [
            pattern![atom("k"), any, any],
            pattern![atom("k"), 0, any],
            pattern![atom("m"), any],
            pattern![atom("m"), 2],
            pattern![var 0, any],
            pattern![7, any],
        ] {
            assert_eq!(
                per_tuple.candidate_ids(&p),
                batched.candidate_ids(&p),
                "pattern {p:?}"
            );
        }
        assert_eq!(per_tuple.len(), batched.len());
        assert_eq!(
            per_tuple.count_value(&tuple![atom("k"), 0, 0]),
            batched.count_value(&tuple![atom("k"), 0, 0])
        );
        // The merged watch set covers every changed tuple's channels.
        let mut probe = WatchSet::new();
        probe.add_pattern(&pattern![atom("m"), any]);
        assert!(watch.intersects(&probe));
        let mut exact = WatchSet::new();
        exact.add_pattern_exact(&pattern![atom("m"), 2]);
        assert!(watch.intersects(&exact), "value keys are published");
        let mut absent = WatchSet::new();
        absent.add_pattern_exact(&pattern![atom("m"), 9]);
        assert!(!watch.intersects(&absent), "unseen values stay quiet");
    }

    #[test]
    fn apply_batch_skips_dead_retracts() {
        let mut d = Dataspace::new();
        let id = d.assert_tuple(ProcId(1), tuple![atom("x"), 1]);
        d.retract(id);
        let mut watch = WatchSet::new();
        let out = d.apply_batch(&[Action::Retract(id)], &mut watch);
        assert!(out.retracted.is_empty());
        assert!(watch.is_empty(), "a no-op batch publishes nothing");
    }

    #[test]
    fn apply_batch_metrics_match_per_tuple_accounting() {
        let (m, reg) = Metrics::registry();
        let mut d = Dataspace::new();
        d.set_metrics(m);
        let id = d.assert_tuple(ProcId(1), tuple![atom("k"), 1]);
        let mut watch = WatchSet::new();
        d.apply_batch(
            &[
                Action::Retract(id),
                Action::Assert(ProcId(1), tuple![atom("k"), 2]),
                Action::Assert(ProcId(1), tuple![atom("k"), 3]),
            ],
            &mut watch,
        );
        assert_eq!(reg.counter(Counter::TuplesAsserted), 3);
        assert_eq!(reg.counter(Counter::TuplesRetracted), 1);
    }

    #[test]
    fn colliding_index_keys_only_widen_candidates() {
        // Every value hashes to one key: <k, 1> and <k, 2> share a fine
        // posting, <5, 1> and <6, 1> share a coarse one.
        let mut d = Dataspace::colliding();
        let one = d.assert_tuple(ProcId(1), tuple![atom("k"), 1]);
        let two = d.assert_tuple(ProcId(1), tuple![atom("k"), 2]);
        let five = d.assert_tuple(ProcId(1), tuple![5, 1]);
        let six = d.assert_tuple(ProcId(1), tuple![6, 1]);
        assert_eq!(d.candidate_ids(&pattern![atom("k"), 1]), vec![one, two]);
        assert_eq!(d.find_all(&pattern![atom("k"), 1]), vec![one]);
        assert_eq!(d.matching_ids(&pattern![atom("k"), 2]), vec![two]);
        assert_eq!(d.find_all(&pattern![5, any]), vec![five]);
        assert_eq!(d.find_all(&pattern![6, 1]), vec![six]);
        assert_eq!(d.find_all(&pattern![any, 1]), vec![one, five, six]);
        assert!(d.contains_match(&pattern![atom("k"), 2]));
        assert!(!d.contains_match(&pattern![atom("k"), 3]));
        assert_eq!(d.count_value(&tuple![atom("k"), 1]), 1);
        assert!(d.estimate_candidates(&pattern![atom("k"), 1]) >= 1);

        d.retract(one);
        assert_eq!(d.find_all(&pattern![atom("k"), var 0]), vec![two]);
        assert!(!d.contains_match(&pattern![atom("k"), 1]));
        assert!(d.contains_match(&pattern![atom("k"), 2]));

        // No posting outlives its last id.
        let baseline = d.index.posting_count();
        for i in 0..10_000i64 {
            let id = d.assert_tuple(ProcId(1 + (i % 3) as u64), tuple![atom("cycle"), i, i]);
            if i % 2 == 0 {
                d.retract(id);
            } else {
                d.apply_batch(&[Action::Retract(id)], &mut WatchSet::new());
            }
        }
        assert_eq!(d.index.posting_count(), baseline);
    }

    #[test]
    fn empty_tuple_is_storable() {
        let mut d = Dataspace::new();
        let id = d.assert_tuple(ProcId(1), tuple![]);
        assert!(d.contains_match(&pattern![]));
        d.retract(id);
        assert!(!d.contains_match(&pattern![]));
    }
}
