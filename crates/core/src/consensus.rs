//! Consensus sets.
//!
//! The paper defines the consensus set of a process as the closure of the
//! relation
//!
//! ```text
//! p needs q  ≡  Import(p) ∩ Import(q) ∩ D ≠ ∅
//! ```
//!
//! i.e. communities formed by import-set overlap *on the current
//! dataspace configuration*. [`CommunityIndex`] keeps every restricted
//! view's import set current from commit deltas, and one walk over those
//! sets finds a process's community: from a parked process for a
//! consensus check, from each process in turn for a partition. Processes
//! with unrestricted views act as hubs: they overlap with every process
//! that imports anything (and with each other whenever the dataspace is
//! non-empty).

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use sdl_dataspace::{Dataspace, TupleSource, WatchSet};
use sdl_metrics::Counter;
use sdl_tuple::{ProcId, Tuple, TupleId, Value};

use crate::builtins::Builtins;
use crate::error::RuntimeError;
use crate::process::ProcessInstance;
use crate::view::{Admitted, Lazy, QuerySource, ResolvedRules};

/// One restricted-view process in the index.
#[derive(Clone, Debug)]
struct Member {
    /// The import rules under `env`.
    rules: ResolvedRules,
    /// The process constants the rules and their predicates read.
    env: HashMap<String, Value>,
    /// Per resolved rule, its expansion over the store, once a window or
    /// a recompute reached it.
    cells: Vec<OnceCell<Vec<Admitted>>>,
    /// `Import(p) ∩ D` as of the last commit, ascending — unless stale.
    ids: Vec<TupleId>,
    /// The exact keys of the expansion's admitted patterns and of the
    /// rules' tuple conditions ([`Lazy::interest`]); a commit publishing
    /// none of them changes neither `ids` nor `cells`. `None` marks the
    /// member stale: it is new, or a tuple covered by a rule *condition*
    /// came or went — under bindings the rule's predicates do not already
    /// rule out — so tuples already in the store may have changed sides,
    /// and `ids` is recomputed from the store at the next query.
    interest: Option<WatchSet>,
}

impl Member {
    /// The member's window over `ds`, expanding into its kept cells.
    fn window<'a>(&'a self, ds: &'a dyn TupleSource, builtins: &'a Builtins) -> Lazy<'a> {
        let (rules, cells) = (Cow::Borrowed(&self.rules), Cow::Borrowed(&self.cells[..]));
        Lazy::new(ds, rules, cells, &self.env, builtins)
    }
}

/// The society's import sets, maintained from commit deltas.
///
/// Invariant, for every member that is not stale: `ids` equals
/// `rules.import_ids(D)` for the store `D` passed to the latest
/// [`CommunityIndex::commit`], and `importers` holds exactly the pairs
/// `(id, pid)` with `id ∈ members[pid].ids`, stale members included. For
/// every member, each filled cell holds its rule's expansion over `D`.
/// Membership of a tuple and a rule's expansion depend on the store only
/// through the rules' tuple conditions, so a commit that touches no
/// condition-covered tuple changes a set by exactly its own retractions
/// and admitted assertions; any other commit empties the cells and marks
/// the member stale instead of guessing.
#[derive(Clone, Debug, Default)]
pub struct CommunityIndex {
    members: BTreeMap<ProcId, Member>,
    /// `TupleId → importers`: how a retraction finds the sets it leaves.
    importers: HashMap<TupleId, Vec<ProcId>>,
    /// Processes whose view imports everything.
    hubs: BTreeSet<ProcId>,
}

impl CommunityIndex {
    /// An index over `procs`, every import set still to be computed.
    pub fn build(procs: &[&ProcessInstance], builtins: &Builtins) -> CommunityIndex {
        let mut index = CommunityIndex::default();
        for p in procs {
            index.insert(p, builtins);
        }
        index
    }

    /// Adds a process, or re-reads one whose constants changed (`let`).
    pub fn insert(&mut self, p: &ProcessInstance, builtins: &Builtins) {
        let Some(rules) = p.def.view.resolve_import(&p.env, builtins) else {
            self.hubs.insert(p.id);
            return;
        };
        let ids = self
            .members
            .remove(&p.id)
            .map(|m| m.ids)
            .unwrap_or_default();
        self.members.insert(
            p.id,
            Member {
                cells: rules.cells(),
                rules,
                env: p.env.clone(),
                ids,
                interest: None,
            },
        );
    }

    /// Forgets a terminated process.
    pub fn remove(&mut self, pid: ProcId) {
        self.hubs.remove(&pid);
        if let Some(m) = self.members.remove(&pid) {
            for id in &m.ids {
                self.forget_importer(*id, pid);
            }
        }
    }

    fn forget_importer(&mut self, id: TupleId, pid: ProcId) {
        if let Some(pids) = self.importers.get_mut(&id) {
            pids.retain(|p| *p != pid);
            if pids.is_empty() {
                self.importers.remove(&id);
            }
        }
    }

    /// Applies one committed batch: `ds` is the store *after* it,
    /// `retracted` the instances it removed and `asserted` the ids it
    /// minted. Only the members whose interest meets the batch's keys
    /// look at its tuples.
    pub fn commit(
        &mut self,
        retracted: &[(TupleId, Tuple)],
        asserted: &[TupleId],
        ds: &Dataspace,
        builtins: &Builtins,
    ) {
        if self.members.is_empty() {
            return;
        }
        for (id, _) in retracted {
            for pid in self.importers.remove(id).unwrap_or_default() {
                let m = self.members.get_mut(&pid).expect("importers are members");
                if let Ok(at) = m.ids.binary_search(id) {
                    m.ids.remove(at);
                }
            }
        }
        let asserted: Vec<(TupleId, &Tuple)> = asserted
            .iter()
            .filter_map(|id| Some((*id, ds.tuple(*id)?)))
            .collect();
        let mut keys = WatchSet::new();
        for (_, t) in retracted {
            keys.add_tuple(t);
        }
        for (_, t) in &asserted {
            keys.add_tuple(t);
        }
        for (pid, m) in &mut self.members {
            match &m.interest {
                Some(interest) if !interest.intersects(&keys) => continue,
                // Stale with nothing expanded: nothing to keep or reset.
                None if m.cells.iter().all(|c| c.get().is_none()) => continue,
                _ => {}
            }
            let covers = |t: &Tuple| m.rules.condition_covers(t, &m.env, builtins);
            if retracted.iter().any(|(_, t)| covers(t)) || asserted.iter().any(|(_, t)| covers(t)) {
                m.cells.iter_mut().for_each(|c| drop(c.take()));
                m.interest = None;
                continue;
            }
            if m.interest.is_none() {
                continue;
            }
            ds.metrics()
                .add(Counter::WindowAdmitChecks, asserted.len() as u64);
            let window = m.window(ds, builtins);
            let admitted: Vec<TupleId> = asserted
                .iter()
                .filter(|(_, t)| window.expansion_admits(t))
                .map(|(id, _)| *id)
                .collect();
            drop(window);
            for id in admitted {
                if let Err(at) = m.ids.binary_search(&id) {
                    m.ids.insert(at, id);
                    self.importers.entry(id).or_default().push(*pid);
                }
            }
        }
    }

    /// The window `pid` queries `ds` through: a member's expands into
    /// its kept cells, a hub's is the whole store. `ds` must be the store
    /// the index's commits were applied to.
    pub(crate) fn window<'a>(
        &'a self,
        pid: ProcId,
        ds: &'a Dataspace,
        builtins: &'a Builtins,
    ) -> QuerySource<'a> {
        ds.metrics().inc(Counter::WindowsBuilt);
        match self.members.get(&pid) {
            Some(m) => QuerySource::Lazy(m.window(ds, builtins)),
            None => QuerySource::Full(ds),
        }
    }

    /// Recomputes the stale import sets from `ds`.
    fn refresh(&mut self, ds: &Dataspace, builtins: &Builtins) {
        let pids: Vec<ProcId> = self.members.keys().copied().collect();
        for pid in pids {
            self.refresh_member(pid, ds, builtins);
        }
    }

    /// Recomputes `pid`'s import set from `ds`, if it is stale.
    fn refresh_member(&mut self, pid: ProcId, ds: &Dataspace, builtins: &Builtins) {
        let Some(m) = self.members.get_mut(&pid).filter(|m| m.interest.is_none()) else {
            return;
        };
        ds.metrics().inc(Counter::ConsensusImportRecomputes);
        let (fresh, interest) = {
            let window = m.window(ds, builtins);
            (window.all_ids(), window.interest())
        };
        m.interest = Some(interest);
        let old = std::mem::replace(&mut m.ids, fresh.clone());
        for id in old.iter().filter(|id| fresh.binary_search(id).is_err()) {
            self.forget_importer(*id, pid);
        }
        for id in fresh.iter().filter(|id| old.binary_search(id).is_err()) {
            self.importers.entry(*id).or_default().push(pid);
        }
    }

    /// `pid`'s consensus set over `ds`, sorted, if every member passes
    /// `ready`; `None` as soon as one does not.
    ///
    /// Only `pid`'s own import set is refreshed before the hubs are
    /// consulted: when `pid` joins them, one hub that is not ready
    /// settles the answer. Otherwise every stale set is refreshed — a
    /// stale member may overlap where `importers` does not show it yet —
    /// and the community is walked from `pid`.
    pub fn ready_community(
        &mut self,
        pid: ProcId,
        ds: &Dataspace,
        builtins: &Builtins,
        ready: impl Fn(ProcId) -> bool,
    ) -> Option<Vec<ProcId>> {
        self.refresh_member(pid, ds, builtins);
        let alone = (self.members.get(&pid)).map_or(ds.is_empty(), |m| m.ids.is_empty());
        if alone {
            return ready(pid).then(|| vec![pid]);
        }
        // `pid` imports something, or is a hub over a non-empty store:
        // every hub is in its community.
        if !self.hubs.iter().all(|hub| ready(*hub)) {
            return None;
        }
        self.refresh(ds, builtins);
        self.walk(pid, ds, ready)
    }

    /// `pid`'s consensus set over `ds`, sorted, if every member passes
    /// `ready`; `None` at the first member that does not. Every import
    /// set must be fresh.
    ///
    /// When there are hubs, the hubs of a non-empty store and every
    /// member that imports anything overlap pairwise, and nobody else
    /// overlaps anyone: that class is the community of each of its
    /// members, taken whole rather than hub by hub, which would be
    /// quadratic. Without hubs, members meet only through shared
    /// instances, and the walk follows `ids → importers` from `pid`.
    fn walk(
        &self,
        pid: ProcId,
        ds: &Dataspace,
        ready: impl Fn(ProcId) -> bool,
    ) -> Option<Vec<ProcId>> {
        let imports = |m: &Member| !m.ids.is_empty();
        if !self.hubs.is_empty() && self.members.get(&pid).map_or(!ds.is_empty(), imports) {
            let importing = self.members.iter().filter(|(_, m)| imports(m));
            let mut class: Vec<ProcId> = (self.hubs.iter().copied())
                .chain(importing.map(|(q, _)| *q))
                .collect();
            class.sort_unstable();
            return class.iter().all(|q| ready(*q)).then_some(class);
        }
        let (mut seen, mut queue) = (HashSet::from([pid]), vec![pid]);
        while let Some(p) = queue.pop() {
            if !ready(p) {
                return None;
            }
            for id in self.members.get(&p).map_or(&[][..], |m| &m.ids[..]) {
                queue.extend(self.importers[id].iter().filter(|q| seen.insert(**q)));
            }
        }
        let mut community: Vec<ProcId> = seen.into_iter().collect();
        community.sort_unstable();
        Some(community)
    }

    /// Every restricted-view process with its current import set.
    pub fn import_sets(
        &mut self,
        ds: &Dataspace,
        builtins: &Builtins,
    ) -> Vec<(ProcId, Vec<TupleId>)> {
        self.refresh(ds, builtins);
        self.members
            .iter()
            .map(|(pid, m)| (*pid, m.ids.clone()))
            .collect()
    }

    /// Partitions the society into consensus sets over `ds`.
    ///
    /// Each returned set is sorted by process id; the sets are ordered by
    /// their smallest member, so the output is deterministic.
    pub fn partition(&mut self, ds: &Dataspace, builtins: &Builtins) -> Vec<Vec<ProcId>> {
        self.refresh(ds, builtins);
        let mut rest: BTreeSet<ProcId> = self
            .hubs
            .iter()
            .chain(self.members.keys())
            .copied()
            .collect();
        let mut out = Vec::new();
        while let Some(pid) = rest.pop_first() {
            let set = self
                .walk(pid, ds, |_| true)
                .expect("every process is ready");
            for p in &set {
                rest.remove(p);
            }
            out.push(set);
        }
        out
    }
}

/// Partitions `procs` into consensus sets over the current dataspace:
/// [`CommunityIndex::partition`] of an index built from scratch.
///
/// # Errors
///
/// Never, today: a view rule whose environment expression cannot
/// evaluate admits nothing.
pub fn consensus_sets(
    procs: &[&ProcessInstance],
    ds: &Dataspace,
    builtins: &Builtins,
) -> Result<Vec<Vec<ProcId>>, RuntimeError> {
    Ok(CommunityIndex::build(procs, builtins).partition(ds, builtins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CompiledProgram;
    use sdl_tuple::{tuple, Value};

    fn make_procs(src: &str, spawns: &[(&str, Vec<Value>)]) -> Vec<ProcessInstance> {
        let prog = sdl_lang::parse_program(src).unwrap();
        let c = CompiledProgram::compile(&prog).unwrap();
        spawns
            .iter()
            .enumerate()
            .map(|(i, (name, args))| {
                ProcessInstance::new(
                    ProcId(i as u64 + 1),
                    c.def(name).unwrap().clone(),
                    args.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn full_views_form_one_set_when_dataspace_nonempty() {
        let procs = make_procs(
            "process P() { -> skip; }",
            &[("P", vec![]), ("P", vec![]), ("P", vec![])],
        );
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1]);
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 3);
    }

    #[test]
    fn full_views_are_singletons_on_empty_dataspace() {
        let procs = make_procs("process P() { -> skip; }", &[("P", vec![]), ("P", vec![])]);
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let ds = Dataspace::new();
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 2, "Import(p) ∩ Import(q) ∩ ∅ = ∅");
    }

    #[test]
    fn sort_style_chain_is_one_community() {
        // Sort(i, i+1) imports <i,*> and <i+1,*>: consecutive processes
        // overlap pairwise, forming one chain community.
        let src = "process Sort(this, next) { import { <this, *>; <next, *>; } -> skip; }";
        let procs = make_procs(
            src,
            &[
                ("Sort", vec![Value::Int(1), Value::Int(2)]),
                ("Sort", vec![Value::Int(2), Value::Int(3)]),
                ("Sort", vec![Value::Int(3), Value::Int(4)]),
            ],
        );
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let mut ds = Dataspace::new();
        for i in 1..=4i64 {
            ds.assert_tuple(ProcId::ENV, tuple![i, i * 10]);
        }
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 1, "chain closes transitively");
        assert_eq!(sets[0].len(), 3);
    }

    #[test]
    fn disjoint_views_form_separate_communities() {
        let src = "process W(x) { import { <x, *>; } -> skip; }";
        let procs = make_procs(
            src,
            &[
                ("W", vec![Value::Int(1)]),
                ("W", vec![Value::Int(1)]),
                ("W", vec![Value::Int(2)]),
            ],
        );
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1, 10]);
        ds.assert_tuple(ProcId::ENV, tuple![2, 20]);
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0], vec![ProcId(1), ProcId(2)], "share tuple <1,10>");
        assert_eq!(sets[1], vec![ProcId(3)]);
    }

    #[test]
    fn empty_import_set_is_singleton() {
        let src = "process W(x) { import { <x, *>; } -> skip; }";
        let procs = make_procs(
            src,
            &[("W", vec![Value::Int(1)]), ("W", vec![Value::Int(1)])],
        );
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        // Nothing matches <1, *>, so imports are empty → singletons.
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![9, 9]);
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn hundred_thousand_process_society() {
        // The pairwise hub unions (`full.windows(2)`) build a linear
        // parent chain, and the old recursive `find` then needed one
        // stack frame per process when collecting classes — a stack
        // overflow at this scale.
        let prog = sdl_lang::parse_program("process P() { -> skip; }").unwrap();
        let c = CompiledProgram::compile(&prog).unwrap();
        let def = c.def("P").unwrap().clone();
        let procs: Vec<ProcessInstance> = (0..100_000u64)
            .map(|i| ProcessInstance::new(ProcId(i + 1), def.clone(), vec![]))
            .collect();
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1]);
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 100_000);
    }

    #[test]
    fn hundred_thousand_member_chain_is_walked_whole() {
        // Sort(i, i+1) links to Sort(i+1, i+2) through <i+1, *>: the walk
        // from one end crosses 100 000 members, one queue entry each.
        let src = "process Sort(this, next) { import { <this, *>; <next, *>; } -> skip; }";
        let prog = sdl_lang::parse_program(src).unwrap();
        let def = CompiledProgram::compile(&prog)
            .unwrap()
            .def("Sort")
            .unwrap()
            .clone();
        let procs: Vec<ProcessInstance> = (1..=100_000i64)
            .map(|i| {
                let args = vec![Value::Int(i), Value::Int(i + 1)];
                ProcessInstance::new(ProcId(i as u64), def.clone(), args)
            })
            .collect();
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let b = Builtins::new();
        let mut ds = Dataspace::new();
        for i in 1..=100_001i64 {
            ds.assert_tuple(ProcId::ENV, tuple![i, i * 10]);
        }
        let mut index = CommunityIndex::build(&refs, &b);
        let set = index.ready_community(ProcId(1), &ds, &b, |_| true).unwrap();
        assert_eq!(set.len(), 100_000);
        assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted");
        let last = ProcId(100_000);
        assert_eq!(
            index.ready_community(ProcId(1), &ds, &b, |p| p != last),
            None
        );
        assert_eq!(index.partition(&ds, &b), vec![set], "one set, walked once");
    }

    #[test]
    fn a_waiting_hub_answers_without_a_partition() {
        // 99 999 W(i) import <i, *>, one per tuple; the hub P imports
        // everything. P is not ready, so W(1)'s community is not: only
        // W(1)'s own set may be computed, not the society's.
        let src = "process W(x) { import { <x, *>; } -> skip; } process P() { -> skip; }";
        let c = CompiledProgram::compile(&sdl_lang::parse_program(src).unwrap()).unwrap();
        let hub = ProcId(100_000);
        let procs: Vec<ProcessInstance> = (1..100_000i64)
            .map(|i| {
                ProcessInstance::new(
                    ProcId(i as u64),
                    c.def("W").unwrap().clone(),
                    vec![Value::Int(i)],
                )
            })
            .chain([ProcessInstance::new(
                hub,
                c.def("P").unwrap().clone(),
                vec![],
            )])
            .collect();
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let b = Builtins::new();
        let (metrics, registry) = sdl_metrics::Metrics::registry();
        let mut ds = Dataspace::new();
        ds.set_metrics(metrics);
        for i in 1..100_000i64 {
            ds.assert_tuple(ProcId::ENV, tuple![i, 0]);
        }
        let mut index = CommunityIndex::build(&refs, &b);
        assert_eq!(
            index.ready_community(ProcId(1), &ds, &b, |p| p != hub),
            None
        );
        assert_eq!(registry.counter(Counter::ConsensusImportRecomputes), 1);
        assert!(
            index.members[&ProcId(2)].interest.is_none(),
            "W(2) untouched"
        );
        let everyone: Vec<ProcId> = (1..=100_000).map(ProcId).collect();
        assert_eq!(
            index.ready_community(ProcId(1), &ds, &b, |_| true),
            Some(everyone),
            "a ready hub joins every importer, once"
        );
    }

    #[test]
    fn only_a_neighbours_threshold_stales_a_label() {
        // Label(5, 1) on a 4×4 grid imports its same-class neighbours'
        // labels; pixel 15's threshold cannot change that, pixel 6's can.
        let src = "process Label(r, t) {
            import { forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>; }
            -> skip;
        }";
        let procs = make_procs(src, &[("Label", vec![Value::Int(5), Value::Int(1)])]);
        let mut b = Builtins::new();
        b.register_grid_neighbor(4, 4);
        let mut index = CommunityIndex::build(&[&procs[0]], &b);
        let mut ds = Dataspace::new();
        index.import_sets(&ds, &b);
        let stale = |index: &CommunityIndex| index.members[&procs[0].id].interest.is_none();
        assert!(!stale(&index));
        let mut assert = |index: &mut CommunityIndex, t: Tuple| {
            let id = ds.assert_tuple(ProcId::ENV, t);
            index.commit(&[], &[id], &ds, &b);
        };
        assert(&mut index, tuple![Value::atom("threshold"), 15, 1]);
        assert!(!stale(&index), "a non-neighbour's threshold");
        assert(&mut index, tuple![Value::atom("threshold"), 6, 1]);
        assert!(stale(&index), "a neighbour's threshold");
    }

    #[test]
    fn full_view_bridges_restricted_views() {
        let src = r#"
            process W(x) { import { <x, *>; } -> skip; }
            process F() { -> skip; }
        "#;
        let procs = make_procs(
            src,
            &[
                ("W", vec![Value::Int(1)]),
                ("W", vec![Value::Int(2)]),
                ("F", vec![]),
            ],
        );
        let refs: Vec<&ProcessInstance> = procs.iter().collect();
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1, 10]);
        ds.assert_tuple(ProcId::ENV, tuple![2, 20]);
        let sets = consensus_sets(&refs, &ds, &Builtins::new()).unwrap();
        assert_eq!(sets.len(), 1, "full view overlaps both workers");
    }
}
