//! The tuple index behind [`Dataspace`](crate::Dataspace).
//!
//! A tuple lives in `instances` (a hash map: no order), is counted under
//! a **coarse** key for its head — `(arity, functor)`, or `(arity, hash
//! of the non-atom value in slot 0)` — and, from arity 2 up, is posted
//! under a **fine** key for slot 1 — `(arity, functor, hash of slot 1)`,
//! the functor left out when the head is not an atom. A *posting* is an
//! ascending id list. Fine postings are kept from the start; a coarse
//! key's posting is built on the first read that needs it, one *class*
//! at a time — `(arity, functor)`, or all non-atom heads of an arity —
//! and kept from then on, so a store read only by key never maintains
//! one. Every ascending order the index hands out comes from the
//! postings or from a sort. Values enter the keys as their
//! [`value_hash`], computed once per tuple and handed back so the
//! commit's [`WatchKey::Value`](crate::WatchKey) keys reuse it. Two
//! values that share a hash share a key; that only widens
//! `candidate_ids`, whose contract is "superset, caller re-matches".

use std::collections::{btree_map, hash_map, BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock, PoisonError};

use sdl_metrics::Counter;
use sdl_tuple::{Atom, Field, Pattern, Tuple, TupleId, Value};

use crate::watch::value_hash;

/// Hasher for the instance table and the fine postings: one
/// multiply-rotate step per word. The keys are store-minted ids, small
/// integers and `value_hash` outputs (SipHash with fixed keys, so already
/// spread and already not secret) — nothing a client chooses, so no
/// flooding protection is given up. A shard's ids share their low hash
/// bits (its sequence stride), yet each is still found in the first
/// 16-slot probe group: DESIGN.md, "The store".
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A posting longer than this becomes a tree. `TupleId` orders
/// owner-first, so with several writers new ids land mid-list: a sorted
/// `Vec` pays a memmove per insert, bounded here to 512 bytes. (A tree
/// is no slower to update at any size; the `Vec` is there for its
/// footprint and for reads that are one `memcpy`.)
const FEW_MAX: usize = 32;

/// The ids under one index key, ascending. Most fine postings hold one id
/// (`<mbox, k, v>` keyed by `k`) and must not cost an allocation.
#[derive(Clone, Debug)]
enum Posting {
    One(TupleId),
    Few(Vec<TupleId>),
    Many(BTreeSet<TupleId>),
}

impl Posting {
    /// The posting of `ids`, which are ascending.
    fn from_sorted(ids: Vec<TupleId>) -> Posting {
        match ids[..] {
            [one] => Posting::One(one),
            _ if ids.len() <= FEW_MAX => Posting::Few(ids),
            _ => Posting::Many(ids.into_iter().collect()),
        }
    }

    fn insert(&mut self, id: TupleId) {
        match self {
            Posting::Few(v) if v.is_empty() => *self = Posting::One(id),
            Posting::One(a) => {
                *self = Posting::Few(if *a < id { vec![*a, id] } else { vec![id, *a] });
            }
            Posting::Few(v) => {
                if let Err(at) = v.binary_search(&id) {
                    v.insert(at, id);
                }
                if v.len() > FEW_MAX {
                    *self = Posting::Many(std::mem::take(v).into_iter().collect());
                }
            }
            Posting::Many(s) => {
                s.insert(id);
            }
        }
    }

    /// Removes `id`; true when the posting is now empty and must be
    /// dropped from its map.
    fn remove(&mut self, id: TupleId) -> bool {
        match self {
            Posting::One(a) => *a == id,
            Posting::Few(v) => {
                if let Ok(at) = v.binary_search(&id) {
                    v.remove(at);
                }
                v.is_empty()
            }
            Posting::Many(s) => {
                s.remove(&id);
                s.is_empty()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Posting::One(_) => 1,
            Posting::Few(v) => v.len(),
            Posting::Many(s) => s.len(),
        }
    }

    fn contains(&self, id: TupleId) -> bool {
        match self {
            Posting::One(a) => *a == id,
            Posting::Few(v) => v.binary_search(&id).is_ok(),
            Posting::Many(s) => s.contains(&id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        let (few, many) = match self {
            Posting::One(a) => (std::slice::from_ref(a), None),
            Posting::Few(v) => (v.as_slice(), None),
            Posting::Many(s) => (&[][..], Some(s)),
        };
        few.iter().chain(many.into_iter().flatten()).copied()
    }
}

/// What sits in slot 0, as the coarse key sees it. `Value` sorts before
/// `Atom`, so within one arity the functors are the tail of the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Head {
    /// Hash of a non-atom value; `0` for the empty tuple, which has no
    /// slot 0 and shares arity 0 with nothing.
    Value(u64),
    /// The tuple's functor.
    Atom(Atom),
}

impl Head {
    fn functor(self) -> Option<Atom> {
        match self {
            Head::Atom(f) => Some(f),
            Head::Value(_) => None,
        }
    }
}

type FineKey = (u32, Option<Atom>, u64);

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// One coarse key: how many live tuples it has, and — once its class is
/// posted — which. A posted functor keeps its entry when it empties, so
/// a relation that drains and refills is not scanned again.
#[derive(Clone, Debug)]
struct Coarse {
    live: usize,
    ids: OnceLock<Posting>,
}

/// One arity: its live tuples, and which of its classes are posted as
/// a whole, so that a key first seen afterwards is born posted.
#[derive(Clone, Debug, Default)]
struct Arity {
    live: usize,
    /// The non-atom heads, by a read of one of them.
    values: OnceLock<()>,
    /// Every head, by a variable-head read.
    every: OnceLock<()>,
}

impl Arity {
    /// Whether a key new to this arity is born posted.
    fn posts(&self, head: Head) -> bool {
        self.every.get().is_some() || (head.functor().is_none() && self.values.get().is_some())
    }
}

/// Taken only while a class is built, so that concurrent first reads
/// scan once; it guards the number of scans made. A clone starts anew.
#[derive(Default)]
struct BuildLock(Mutex<usize>);

impl Clone for BuildLock {
    fn clone(&self) -> BuildLock {
        BuildLock::default()
    }
}

/// `instances` plus the key maps; see the module docs.
#[derive(Clone)]
pub(crate) struct TupleIndex {
    instances: KeyMap<TupleId, Tuple>,
    coarse: BTreeMap<(u32, Head), Coarse>,
    fine: KeyMap<FineKey, Posting>,
    /// Position = arity.
    arities: Vec<Arity>,
    building: BuildLock,
    /// ANDed onto every value hash before it enters a key. All ones,
    /// except in the test that forces distinct values onto one key.
    hash_mask: u64,
}

impl Default for TupleIndex {
    fn default() -> TupleIndex {
        TupleIndex {
            instances: HashMap::default(),
            coarse: BTreeMap::new(),
            fine: HashMap::default(),
            arities: Vec::new(),
            building: BuildLock::default(),
            hash_mask: u64::MAX,
        }
    }
}

impl TupleIndex {
    /// An index in which every value hashes to the same key.
    #[cfg(test)]
    pub(crate) fn colliding() -> TupleIndex {
        TupleIndex {
            hash_mask: 0,
            ..TupleIndex::default()
        }
    }

    /// Number of non-empty postings held (coarse + fine).
    #[cfg(test)]
    pub(crate) fn posting_count(&self) -> usize {
        let coarse = self.coarse.values().filter(|key| key.live > 0);
        coarse.filter(|key| key.ids.get().is_some()).count() + self.fine.len()
    }

    /// Number of scans of `instances` that built coarse postings.
    #[cfg(test)]
    pub(crate) fn scans(&self) -> usize {
        *self
            .building
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn len(&self) -> usize {
        self.instances.len()
    }

    pub(crate) fn get(&self, id: TupleId) -> Option<&Tuple> {
        self.instances.get(&id)
    }

    /// Every instance, in no particular order: for callers that sort
    /// anyway or need none.
    pub(crate) fn unordered(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.instances.iter().map(|(id, t)| (*id, t))
    }

    /// Every instance, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        let mut all: Vec<(TupleId, &Tuple)> = self.unordered().collect();
        all.sort_unstable_by_key(|(id, _)| *id);
        all.into_iter()
    }

    /// Every id, ascending.
    pub(crate) fn ids(&self) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self.instances.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn head_of(&self, slot0: Option<&Value>) -> Head {
        match slot0 {
            None => Head::Value(0),
            Some(Value::Atom(f)) => Head::Atom(*f),
            Some(v) => Head::Value(value_hash(v) & self.hash_mask),
        }
    }

    /// The keys `tuple` is posted under, and the unmasked slot-1 hash.
    fn keys_of(&self, tuple: &Tuple) -> ((u32, Head), Option<(FineKey, u64)>) {
        let arity = tuple.arity() as u32;
        let head = self.head_of(tuple.get(0));
        let fine = tuple.get(1).map(|v| {
            let h = value_hash(v);
            ((arity, head.functor(), h & self.hash_mask), h)
        });
        ((arity, head), fine)
    }

    /// Enters an instance. Returns the tuple where it now lives and the
    /// hash of slot 1, when the tuple has one, for the caller's watch
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present.
    pub(crate) fn insert(&mut self, id: TupleId, tuple: Tuple) -> (&Tuple, Option<u64>) {
        let arity = tuple.arity();
        let (coarse, fine) = self.keys_of(&tuple);
        let hash_map::Entry::Vacant(slot) = self.instances.entry(id) else {
            panic!("instance {id:?} already live");
        };
        let tuple = slot.insert(tuple);
        if self.arities.len() <= arity {
            self.arities.resize_with(arity + 1, Arity::default);
        }
        let class = &mut self.arities[arity];
        class.live += 1;
        match self.coarse.entry(coarse) {
            btree_map::Entry::Occupied(e) => {
                let key = e.into_mut();
                key.live += 1;
                if let Some(ids) = key.ids.get_mut() {
                    ids.insert(id);
                }
            }
            btree_map::Entry::Vacant(e) => {
                let ids = if class.posts(coarse.1) {
                    OnceLock::from(Posting::One(id))
                } else {
                    OnceLock::new()
                };
                e.insert(Coarse { live: 1, ids });
            }
        }
        let slot1 = fine.map(|(fine, slot1)| {
            self.fine
                .entry(fine)
                .and_modify(|p| p.insert(id))
                .or_insert(Posting::One(id));
            slot1
        });
        (tuple, slot1)
    }

    /// Removes an instance, returning its tuple and (as
    /// [`TupleIndex::insert`] does) the hash of slot 1.
    pub(crate) fn remove(&mut self, id: TupleId) -> Option<(Tuple, Option<u64>)> {
        let tuple = self.instances.remove(&id)?;
        self.arities[tuple.arity()].live -= 1;
        let (coarse, fine) = self.keys_of(&tuple);
        if let btree_map::Entry::Occupied(mut e) = self.coarse.entry(coarse) {
            let key = e.get_mut();
            key.live -= 1;
            match (key.live, key.ids.get_mut(), coarse.1) {
                // A posted functor stays posted: a refill is not rescanned.
                (0, Some(ids), Head::Atom(_)) => *ids = Posting::Few(Vec::new()),
                (0, ..) => {
                    e.remove();
                }
                (_, Some(ids), _) => {
                    ids.remove(id);
                }
                (_, None, _) => {}
            }
        }
        let slot1 = fine.map(|(fine, slot1)| {
            if let hash_map::Entry::Occupied(mut e) = self.fine.entry(fine) {
                if e.get_mut().remove(id) {
                    e.remove();
                }
            }
            slot1
        });
        Some((tuple, slot1))
    }

    /// The constant head and constant slot 1 of `pattern`, as keys.
    fn pattern_keys(&self, pattern: &Pattern) -> (Option<Head>, Option<u64>) {
        let head = match pattern.fields().first() {
            None => Some(self.head_of(None)),
            Some(Field::Const(v)) => Some(self.head_of(Some(v))),
            Some(_) => None,
        };
        let slot1 = match pattern.fields().get(1) {
            Some(Field::Const(v)) => Some(value_hash(v) & self.hash_mask),
            _ => None,
        };
        (head, slot1)
    }

    /// The live coarse keys of one arity, from `from` on: `Head::Value(0)`
    /// for all of them, `Head::Value(u64::MAX)` for the functors.
    fn coarse_of_arity(&self, arity: u32, from: Head) -> impl Iterator<Item = (Head, &Coarse)> {
        self.coarse
            .range((arity, from)..)
            .take_while(move |((a, _), _)| *a == arity)
            .filter(|(_, key)| key.live > 0)
            .map(|((_, head), key)| (*head, key))
    }

    /// The ids under the live coarse key `(arity, head)`, its class
    /// posted first if no read has yet.
    fn coarse_ids(&self, arity: u32, head: Head) -> Option<&Posting> {
        let key = self.coarse.get(&(arity, head)).filter(|key| key.live > 0)?;
        if key.ids.get().is_none() {
            self.post(arity, Some(head));
        }
        key.ids.get()
    }

    /// The postings of every live coarse key of `arity`, each class
    /// posted first if no read has yet.
    fn arity_ids(&self, arity: u32) -> impl Iterator<Item = &Posting> {
        let every = self.arities.get(arity as usize).map(|a| &a.every);
        if every.is_some_and(|every| every.get().is_none()) {
            self.post(arity, None);
        }
        self.coarse_of_arity(arity, Head::Value(0))
            .filter_map(|(_, key)| key.ids.get())
    }

    /// Posts the class of `head` in `arity` — every class of the arity
    /// when `head` is `None` — in one scan of `instances`. A concurrent
    /// first read waits on the build lock and finds the class posted.
    /// `arity` has held a tuple.
    fn post(&self, arity: u32, head: Option<Head>) {
        // A build that panicked set whole postings or none, and the
        // class marks last: the next build picks up what is missing.
        let mut scans = self
            .building
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let values = head.is_none_or(|h| h.functor().is_none());
        let in_class = |h: Head| match head {
            None => true,
            Some(Head::Atom(_)) => Some(h) == head,
            Some(Head::Value(_)) => h.functor().is_none(),
        };
        let mut lists: BTreeMap<Head, Vec<TupleId>> = self
            .coarse_of_arity(arity, Head::Value(0))
            .filter(|(h, key)| in_class(*h) && key.ids.get().is_none())
            .map(|(h, key)| (h, Vec::with_capacity(key.live)))
            .collect();
        if !lists.is_empty() {
            *scans += 1;
            for (id, tuple) in &self.instances {
                let h = match tuple.get(0) {
                    _ if tuple.arity() as u32 != arity => continue,
                    Some(Value::Atom(f)) => Head::Atom(*f),
                    slot0 if values => self.head_of(slot0),
                    _ => continue,
                };
                if let Some(list) = lists.get_mut(&h) {
                    list.push(*id);
                }
            }
            for (h, mut list) in lists {
                list.sort_unstable();
                let _ = self.coarse[&(arity, h)].ids.set(Posting::from_sorted(list));
            }
        }
        let class = &self.arities[arity as usize];
        if values {
            let _ = class.values.set(());
        }
        if head.is_none() {
            let _ = class.every.set(());
        }
    }

    /// The fine postings a variable-head pattern with this constant
    /// slot 1 reads: the functor-less one, then one per functor of the
    /// arity — a handful of probes, since relations are few.
    fn fine_across_heads(&self, arity: u32, slot1: u64) -> impl Iterator<Item = &Posting> {
        let functors = self
            .coarse_of_arity(arity, Head::Value(u64::MAX))
            .filter_map(|(head, _)| head.functor());
        std::iter::once(None)
            .chain(functors.map(Some))
            .filter_map(move |f| self.fine.get(&(arity, f, slot1)))
    }

    /// Hands `visit` the union of disjoint `postings`, ascending: in
    /// place when there is one, gathered and sorted when several
    /// interleave.
    fn visit_union<'p>(
        postings: impl Iterator<Item = &'p Posting>,
        visit: impl FnMut(TupleId) -> bool,
    ) {
        let postings: Vec<&Posting> = postings.collect();
        if let [one] = postings[..] {
            one.iter().all(visit);
        } else {
            let mut ids: Vec<TupleId> = postings.iter().flat_map(|p| p.iter()).collect();
            ids.sort_unstable();
            ids.into_iter().all(visit);
        }
    }

    /// Hands `visit` a superset of the ids matching `pattern`, ascending,
    /// until it returns `false`, and names the lookup that served it.
    /// Postings are walked in place; only a variable head over several
    /// relations is gathered and sorted first.
    pub(crate) fn visit_ids(
        &self,
        pattern: &Pattern,
        visit: impl FnMut(TupleId) -> bool,
    ) -> Counter {
        let arity = pattern.arity() as u32;
        match self.pattern_keys(pattern) {
            // SDL style keys tuples as <kind, entity, …>, so this is the
            // common point lookup (<threshold, p, t> with p known).
            (Some(Head::Atom(f)), Some(slot1)) => {
                let posting = self.fine.get(&(arity, Some(f), slot1));
                posting.into_iter().flat_map(Posting::iter).all(visit);
                Counter::IndexHitArg1
            }
            (Some(head), None) => {
                let posting = self.coarse_ids(arity, head);
                posting.into_iter().flat_map(Posting::iter).all(visit);
                match head {
                    Head::Atom(_) => Counter::IndexHitFunctor,
                    Head::Value(_) => Counter::IndexHitValue,
                }
            }
            // Constant non-atom head and constant slot 1: walk the
            // smaller posting, keep what the larger one holds.
            (Some(head), Some(slot1)) => {
                let pair = self
                    .coarse_ids(arity, head)
                    .zip(self.fine.get(&(arity, None, slot1)));
                if let Some((a, b)) = pair {
                    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    small.iter().filter(|id| large.contains(*id)).all(visit);
                }
                Counter::IndexHitIntersect
            }
            (None, Some(slot1)) => {
                Self::visit_union(self.fine_across_heads(arity, slot1), visit);
                Counter::IndexHitValue
            }
            // Nothing constant to key on: the instances of this arity,
            // which the arity's coarse postings partition. No posting
            // lists them together — every assert would pay for it — so
            // this pattern shape pays with a sort.
            (None, None) => {
                Self::visit_union(self.arity_ids(arity), visit);
                Counter::IndexHitArity
            }
        }
    }

    /// Every id [`TupleIndex::visit_ids`] hands out for `pattern`, and
    /// the lookup that served it.
    pub(crate) fn candidate_ids(&self, pattern: &Pattern) -> (Vec<TupleId>, Counter) {
        let mut out = Vec::new();
        let served = self.visit_ids(pattern, |id| {
            out.push(id);
            true
        });
        (out, served)
    }

    /// [`TupleIndex::visit_ids`], each id with the tuple stored under it.
    pub(crate) fn visit(
        &self,
        pattern: &Pattern,
        visit: &mut dyn FnMut(TupleId, &Tuple) -> bool,
    ) -> Counter {
        self.visit_ids(pattern, |id| {
            visit(id, self.get(id).expect("posted id is live"))
        })
    }

    /// Upper bound on how many ids [`TupleIndex::visit_ids`] would hand
    /// out, from posting lengths alone.
    pub(crate) fn estimate(&self, pattern: &Pattern) -> usize {
        let arity = pattern.arity() as u32;
        let coarse = |head| self.coarse.get(&(arity, head)).map_or(0, |key| key.live);
        let fine = |f, slot1| self.fine.get(&(arity, f, slot1)).map_or(0, Posting::len);
        match self.pattern_keys(pattern) {
            (Some(Head::Atom(f)), Some(slot1)) => fine(Some(f), slot1),
            (Some(head), None) => coarse(head),
            (Some(head), Some(slot1)) => coarse(head).min(fine(None, slot1)),
            (None, Some(slot1)) => self.fine_across_heads(arity, slot1).map(Posting::len).sum(),
            (None, None) => self.arities.get(arity as usize).map_or(0, |a| a.live),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedDataspace, TupleSource};
    use sdl_tuple::{pattern, tuple, ProcId};
    use std::sync::Barrier;

    fn id(owner: u64, seq: u64) -> TupleId {
        TupleId {
            owner: ProcId(owner),
            seq,
        }
    }

    fn candidates(ix: &TupleIndex, p: &Pattern) -> Vec<TupleId> {
        ix.candidate_ids(p).0
    }

    #[test]
    fn a_coarse_posting_waits_for_its_first_read() {
        // Only the fine posting exists at insert; each tuple's coarse
        // posting appears with the first read of its head.
        let mut ix = TupleIndex::default();
        let stored = [
            (tuple![], pattern![], 0),
            (
                tuple![Value::atom("flag")],
                pattern![Value::atom("flag")],
                0,
            ),
            (tuple![7], pattern![7], 0),
            (
                tuple![Value::atom("mbox"), 1, 2],
                pattern![Value::atom("mbox"), any, any],
                1,
            ),
            (tuple![7, 8, 9, 10], pattern![7, any, any, any], 1),
        ];
        for (seq, (t, _, fine)) in stored.iter().enumerate() {
            let before = ix.posting_count();
            ix.insert(id(1, seq as u64), t.clone());
            assert_eq!(ix.posting_count() - before, *fine, "{t}");
        }
        assert_eq!(ix.scans(), 0);
        for (seq, (t, head, _)) in stored.iter().enumerate() {
            let before = ix.posting_count();
            assert_eq!(candidates(&ix, head), vec![id(1, seq as u64)], "{t}");
            assert_eq!(ix.posting_count() - before, 1, "{t}");
        }
        assert_eq!(ix.scans(), stored.len());
        for seq in 0..5 {
            ix.remove(id(1, seq));
        }
        assert_eq!(ix.posting_count(), 0);
    }

    /// A store of 100 000 `<bg, i, i>` beside a relation that empties and
    /// refills 1 000 times, read each time it is full: one scan, at the
    /// first read, whether the relation is one functor or the non-atom
    /// heads of its arity (a new head each cycle).
    #[test]
    fn a_draining_relation_is_scanned_once() {
        for functor in [true, false] {
            let mut ix = TupleIndex::default();
            for i in 0..100_000 {
                ix.insert(id(1, i), tuple![Value::atom("bg"), i as i64, i as i64]);
            }
            for cycle in 0..1_000 {
                let (t, p) = if functor {
                    (
                        tuple![Value::atom("token"), cycle],
                        pattern![Value::atom("token"), any],
                    )
                } else {
                    (tuple![cycle, cycle], pattern![cycle, any])
                };
                ix.insert(id(2, cycle as u64), t);
                assert_eq!(candidates(&ix, &p), vec![id(2, cycle as u64)]);
                ix.remove(id(2, cycle as u64));
            }
            assert_eq!(ix.scans(), 1, "functor: {functor}");
        }
    }

    #[test]
    fn concurrent_first_reads_scan_once() {
        let sds = ShardedDataspace::new(4);
        for i in 0..10_000i64 {
            sds.assert_tuple(ProcId::ENV, tuple![Value::atom("job"), i, i]);
            sds.assert_tuple(ProcId::ENV, tuple![Value::atom("done"), i, i]);
        }
        let p = pattern![Value::atom("job"), any, any];
        let start = Barrier::new(4);
        let lists: Vec<Vec<TupleId>> = std::thread::scope(|s| {
            let read = || {
                let view = sds.read_shards(sds.all_shards());
                start.wait();
                view.candidate_ids(&p)
            };
            let threads: Vec<_> = (0..4).map(|_| s.spawn(read)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for list in &lists {
            assert_eq!(list.len(), 10_000);
            assert!(list.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(list, &lists[0]);
        }
        assert_eq!(sds.coarse_scans(), 1);
    }

    #[test]
    fn postings_stay_ascending_across_owners_and_forms() {
        // Two owners interleave, so ids land mid-list; 200 ids cross
        // One -> Few -> Many.
        let mut ix = TupleIndex::default();
        for seq in 0..200u64 {
            ix.insert(
                id(1 + seq % 2, seq),
                tuple![Value::atom("k"), seq as i64 % 3],
            );
        }
        let all = candidates(&ix, &pattern![Value::atom("k"), any]);
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        let some = candidates(&ix, &pattern![Value::atom("k"), 1]);
        assert_eq!(some.len(), 67);
        assert!(some.windows(2).all(|w| w[0] < w[1]));
        // Draining a tree-form posting leaves no id held.
        for seq in 0..200u64 {
            ix.remove(id(1 + seq % 2, seq));
        }
        assert_eq!(ix.posting_count(), 0);
    }

    #[test]
    fn variable_head_with_constant_slot_one_reads_every_relation() {
        let mut ix = TupleIndex::default();
        ix.insert(id(1, 1), tuple![Value::atom("a"), 5]);
        ix.insert(id(1, 2), tuple![9, 5]);
        ix.insert(id(1, 3), tuple![Value::atom("b"), 5]);
        ix.insert(id(1, 4), tuple![Value::atom("b"), 6]);
        ix.insert(id(1, 5), tuple![Value::atom("b"), 5, 5]);
        let p = pattern![var 0, 5];
        assert_eq!(candidates(&ix, &p), vec![id(1, 1), id(1, 2), id(1, 3)]);
        assert_eq!(ix.estimate(&p), 3);
        assert_eq!(ix.estimate(&pattern![any, any]), 4);
        assert_eq!(ix.estimate(&pattern![9, 5]), 1);
        assert_eq!(candidates(&ix, &pattern![9, 6]), vec![]);
    }

    #[test]
    fn key_hasher_handles_unaligned_writes() {
        let mut a = KeyHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = KeyHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
