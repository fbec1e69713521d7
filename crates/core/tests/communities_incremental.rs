//! Differential test of the consensus community index: after every step
//! of a random history the import sets and the partition the index
//! *maintains* equal what a from-scratch rebuild derives from the store —
//! and both equal an oracle that knows neither: a per-tuple
//! `CompiledView::imports` sweep and a naive overlap closure. The
//! community walked from each process is its oracle class, and comes
//! back only when every member is ready.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use sdl_core::consensus::{consensus_sets, CommunityIndex};
use sdl_core::{Builtins, CompiledProgram, ProcessInstance};
use sdl_dataspace::{Action, Dataspace, TupleSource, WatchSet};
use sdl_tuple::{tuple, ProcId, Tuple, TupleId, Value};

/// Every shape of view the index has to handle: plain patterns, several
/// rules, a rule conditional on another tuple (its condition flips the
/// membership of tuples *already in the store*), a condition with a
/// variable the pattern does not bind (the solver path), a predicate, an
/// import set that stays empty, a rule whose condition cannot evaluate,
/// and the unrestricted hub.
const SOCIETY: &str = "
    process Plain(k) { import { <item, k, *>; } -> skip; }
    process Two(a, b) { import { <item, a, *>; <gate, b, *>; } -> skip; }
    process Cond(k) { import { forall x, v : <gate, x, k> => <item, x, v>; } -> skip; }
    process Chain(k) {
        import { forall x, v, g : <gate, g, k>, <link, g, x> => <item, x, v>; }
        -> skip;
    }
    process Near(k) {
        import { forall x, v : near(x, k), <gate, x, k> => <item, x, v>; <gate, k, *>; }
        -> skip;
    }
    process Nothing(k) { import { <nothing, k>; } -> skip; }
    process Broken(k) {
        import { forall x, v : <gate, x, 0>, <link, x, k + 1> => <item, x, v>; }
        -> skip;
    }
    process Hub() { -> skip; }
";
const DEFS: [(&str, usize); 8] = [
    ("Plain", 1),
    ("Two", 2),
    ("Cond", 1),
    ("Chain", 1),
    ("Near", 1),
    ("Nothing", 1),
    ("Broken", 1),
    ("Hub", 0),
];

fn builtins() -> Builtins {
    let mut b = Builtins::standard();
    b.register("near", |args: &[Value]| match args {
        [Value::Int(x), Value::Int(k)] => Some(Value::Bool((x - k).abs() <= 1)),
        _ => None,
    });
    b
}

#[derive(Clone, Debug)]
enum Step {
    /// One commit: retract the live instances at these positions, then
    /// assert these tuples.
    Commit(Vec<usize>, Vec<Tuple>),
    /// Spawn definition `.0 % 8` with arguments drawn from `.1`.
    Spawn(usize, [i64; 2]),
    Terminate(usize),
    /// Rebind the first parameter of a live process.
    Let(usize, i64),
    /// Retract everything: the empty dataspace.
    Clear,
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    let functor = prop_oneof![Just("item"), Just("item"), Just("gate"), Just("link")];
    (functor, 0i64..3, 0i64..3).prop_map(|(f, a, b)| tuple![Value::atom(f), a, b])
}

fn arb_step() -> impl Strategy<Value = Step> {
    let commit = (
        proptest::collection::vec(0usize..64, 0..3),
        proptest::collection::vec(arb_tuple(), 0..3),
    )
        .prop_map(|(r, a)| Step::Commit(r, a));
    prop_oneof![
        commit.clone(),
        commit.clone(),
        commit,
        (0usize..8, 0i64..3, 0i64..3).prop_map(|(d, a, b)| Step::Spawn(d, [a, b])),
        (0usize..64).prop_map(Step::Terminate),
        (0usize..64, 0i64..3).prop_map(|(p, v)| Step::Let(p, v)),
        Just(Step::Clear),
    ]
}

struct World {
    /// Seeds which processes count as ready in the walk checks.
    seed: u64,
    program: CompiledProgram,
    builtins: Builtins,
    ds: Dataspace,
    procs: Vec<ProcessInstance>,
    next_pid: u64,
    index: CommunityIndex,
}

impl World {
    fn new(seed: u64) -> World {
        World {
            seed,
            program: CompiledProgram::from_source(SOCIETY).unwrap(),
            builtins: builtins(),
            ds: Dataspace::new(),
            procs: Vec::new(),
            next_pid: 1,
            index: CommunityIndex::default(),
        }
    }

    fn commit(&mut self, retracts: Vec<TupleId>, asserts: &[Tuple]) {
        let actions: Vec<Action> = retracts
            .into_iter()
            .map(Action::Retract)
            .chain(
                asserts
                    .iter()
                    .map(|t| Action::Assert(ProcId::ENV, t.clone())),
            )
            .collect();
        let out = self.ds.apply_batch(&actions, &mut WatchSet::new());
        self.index
            .commit(&out.retracted, &out.asserted, &self.ds, &self.builtins);
    }

    fn apply(&mut self, step: &Step) {
        match step {
            Step::Commit(retracts, asserts) => {
                let live: Vec<TupleId> = self.ds.iter().map(|(id, _)| id).collect();
                let retracts: BTreeSet<TupleId> = retracts
                    .iter()
                    .filter(|_| !live.is_empty())
                    .map(|n| live[n % live.len()])
                    .collect();
                self.commit(retracts.into_iter().collect(), asserts);
            }
            Step::Clear => {
                let live = self.ds.iter().map(|(id, _)| id).collect();
                self.commit(live, &[]);
            }
            Step::Spawn(def, args) => {
                let (name, arity) = DEFS[def % DEFS.len()];
                let args = args[..arity].iter().map(|a| Value::Int(*a)).collect();
                let def = self.program.def(name).unwrap().clone();
                let p = ProcessInstance::new(ProcId(self.next_pid), def, args);
                self.next_pid += 1;
                self.index.insert(&p, &self.builtins);
                self.procs.push(p);
            }
            Step::Terminate(n) if !self.procs.is_empty() => {
                let p = self.procs.remove(n % self.procs.len());
                self.index.remove(p.id);
            }
            Step::Let(n, v) if !self.procs.is_empty() => {
                let n = n % self.procs.len();
                let p = &mut self.procs[n];
                if let Some(param) = p.def.params.first().cloned() {
                    p.env.insert(param, Value::Int(*v));
                    self.index.insert(p, &self.builtins);
                }
            }
            Step::Terminate(_) | Step::Let(..) => {}
        }
    }

    /// `Import(p) ∩ D` by asking the lazy membership test about every
    /// instance in the store.
    fn swept_imports(&self, p: &ProcessInstance) -> Vec<TupleId> {
        self.ds
            .iter()
            .filter(|(_, t)| p.def.view.imports(t, &self.ds, &p.env, &self.builtins))
            .map(|(id, _)| id)
            .collect()
    }

    /// The closure of "import sets overlap", from the swept sets alone.
    fn oracle_partition(&self) -> Vec<Vec<ProcId>> {
        let sets: Vec<BTreeSet<TupleId>> = self
            .procs
            .iter()
            .map(|p| self.swept_imports(p).into_iter().collect())
            .collect();
        let mut class: Vec<usize> = (0..sets.len()).collect();
        loop {
            let mut merged = false;
            for i in 0..sets.len() {
                for j in 0..i {
                    if class[i] != class[j] && !sets[i].is_disjoint(&sets[j]) {
                        let (from, to) = (class[i], class[j]);
                        class
                            .iter_mut()
                            .filter(|c| **c == from)
                            .for_each(|c| *c = to);
                        merged = true;
                    }
                }
            }
            if !merged {
                break;
            }
        }
        let mut classes: BTreeMap<usize, Vec<ProcId>> = BTreeMap::new();
        for (i, p) in self.procs.iter().enumerate() {
            classes.entry(class[i]).or_default().push(p.id);
        }
        let mut out: Vec<Vec<ProcId>> = classes.into_values().collect();
        out.sort_by_key(|s| s[0]);
        out
    }

    fn check(&mut self, after: &Step) {
        // The walks start from the index as the step left it, stale sets
        // and all, as a parked process finds it.
        let unrefreshed = self.index.clone();
        let refs: Vec<&ProcessInstance> = self.procs.iter().collect();
        let restricted: Vec<(ProcId, Vec<TupleId>)> = self
            .procs
            .iter()
            .filter(|p| !p.def.view.imports_everything())
            .map(|p| (p.id, self.swept_imports(p)))
            .collect();
        let mut rebuilt = CommunityIndex::build(&refs, &self.builtins);
        assert_eq!(
            rebuilt.import_sets(&self.ds, &self.builtins),
            restricted,
            "rebuilt import sets vs the imports() sweep, after {after:?}"
        );
        assert_eq!(
            self.index.import_sets(&self.ds, &self.builtins),
            restricted,
            "maintained import sets, after {after:?}"
        );
        let oracle = self.oracle_partition();
        assert_eq!(
            consensus_sets(&refs, &self.ds, &self.builtins).unwrap(),
            oracle,
            "rebuilt partition, after {after:?}"
        );
        self.seed = splitmix(self.seed);
        let seed = self.seed;
        let ready = |pid: ProcId| !splitmix(seed ^ pid.0).is_multiple_of(4);
        for class in &oracle {
            for &pid in class {
                let mut index = unrefreshed.clone();
                let walked = index.ready_community(pid, &self.ds, &self.builtins, |_| true);
                assert_eq!(
                    walked.as_ref(),
                    Some(class),
                    "{pid}'s community, after {after:?}"
                );
                let mut index = unrefreshed.clone();
                let walked = index.ready_community(pid, &self.ds, &self.builtins, ready);
                let expected = class.iter().all(|p| ready(*p)).then_some(class);
                assert_eq!(
                    walked.as_ref(),
                    expected,
                    "{pid}'s community when ready, after {after:?}"
                );
            }
        }
        assert_eq!(
            self.index.partition(&self.ds, &self.builtins),
            oracle,
            "maintained partition, after {after:?}"
        );
    }
}

/// One step of SplitMix64: a well-spread function of `x`.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A history: one process per definition over a seeded store first (so
/// that most steps land on a society that has something to lose), then
/// anything.
fn arb_history(max: usize) -> impl Strategy<Value = Vec<Step>> {
    (
        proptest::collection::vec(arb_tuple(), 0..12),
        proptest::collection::vec((0i64..3, 0i64..3), 8),
        proptest::collection::vec(arb_step(), 1..max),
    )
        .prop_map(|(seed, args, steps)| {
            let spawns = (0..DEFS.len()).map(|d| Step::Spawn(d, [args[d].0, args[d].1]));
            std::iter::once(Step::Commit(Vec::new(), seed))
                .chain(spawns)
                .chain(steps)
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn maintained_index_equals_a_rebuild_after_every_step(
        steps in arb_history(40),
        seed in any::<u64>(),
    ) {
        let mut world = World::new(seed);
        for step in &steps {
            world.apply(step);
            world.check(step);
        }
    }

    /// The same histories, queried once the first society stands and
    /// then only at the end: exact updates and stale marks pile up across
    /// many commits before one refresh settles them.
    #[test]
    fn maintained_index_survives_long_gaps_between_queries(
        steps in arb_history(60),
        seed in any::<u64>(),
    ) {
        let mut world = World::new(seed);
        let (society, rest) = steps.split_at(1 + DEFS.len());
        for step in society {
            world.apply(step);
        }
        world.check(&society[0]);
        for step in rest {
            world.apply(step);
        }
        world.check(steps.last().unwrap());
    }
}

/// A tuple condition whose environment expression cannot evaluate
/// (`k + 1` over an atom) kills its rule. The materialised set used to
/// drop just that condition and solve the rest, admitting every item
/// gated by `<gate, x, 0>`, while the lazy test rejected them.
#[test]
fn unresolvable_condition_admits_nothing_on_either_path() {
    let program = CompiledProgram::from_source(SOCIETY).unwrap();
    let b = builtins();
    let p = ProcessInstance::new(
        ProcId(1),
        program.def("Broken").unwrap().clone(),
        vec![Value::atom("oops")],
    );
    let mut ds = Dataspace::new();
    ds.assert_tuple(ProcId::ENV, tuple![Value::atom("gate"), 1, 0]);
    ds.assert_tuple(ProcId::ENV, tuple![Value::atom("link"), 1, 1]);
    ds.assert_tuple(ProcId::ENV, tuple![Value::atom("item"), 1, 7]);
    let swept: Vec<TupleId> = ds
        .iter()
        .filter(|(_, t)| p.def.view.imports(t, &ds, &p.env, &b))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(swept, Vec::<TupleId>::new());
    assert_eq!(p.def.view.import_ids(&ds, &p.env, &b).unwrap(), swept);

    // With an integer the same rule is live on both paths.
    let live = ProcessInstance::new(
        ProcId(2),
        program.def("Broken").unwrap().clone(),
        vec![Value::Int(0)],
    );
    let ids = live.def.view.import_ids(&ds, &live.env, &b).unwrap();
    assert_eq!(ids.len(), 1);
    assert!(live
        .def
        .view
        .imports(ds.tuple(ids[0]).unwrap(), &ds, &live.env, &b));
}
