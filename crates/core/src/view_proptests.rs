//! Property tests of the window's rule expansion: it lists exactly the
//! candidates the per-tuple import test admits, a parked process's
//! subscription hears every commit that changes what the window shows,
//! and a window reading the community index's kept import set answers
//! as a fresh one does.

use std::collections::HashMap;

use proptest::prelude::*;

use sdl_dataspace::{Action, Dataspace, QueryAtom, ShardedDataspace, TupleSource, WatchSet};
use sdl_tuple::{tuple, Bindings, Field, Pattern, ProcId, Tuple, TupleId, Value, VarId};

use crate::builtins::Builtins;
use crate::consensus::CommunityIndex;
use crate::process::ProcessInstance;
use crate::program::{compile_txn, CompiledProgram};
use crate::view::{CompiledView, QuerySource};

/// Every view shape the expansion has to reproduce: the paper's Label
/// view (six rules, a conditional one, predicates on either side of the
/// conditions); the community-index society's views; constant-only
/// rules; two rules admitting one tuple; a predicate reading a variable
/// only the pattern binds; and a rule whose environment expression fails
/// (`k + 1` over an atom).
const VIEWS: &str = "
    process Label(r, t) {
        import {
            <threshold, r, t>;
            <label, r, *>;
            <image, r, *>;
            forall p : neighbor(p, r) => <threshold, p, t>;
            forall p2, l : neighbor(p2, r), <threshold, p2, t> => <label, p2, l>;
            forall p3, v : neighbor(p3, r) => <image, p3, v>;
        }
        -> skip;
    }
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
    process Broken(k) {
        import { forall x, v : <gate, x, 0>, <link, x, k + 1> => <item, x, v>; }
        -> skip;
    }
    process Consts() { import { <item, 1, 2>; <gate, 0, *>; <link>; } -> skip; }
    process Overlap(k) {
        import { <item, k, *>; forall x, v : <gate, x, k> => <item, x, v>; <item, *, k>; }
        -> skip;
    }
    process Late(k) { import { forall x, v : near(v, k), <gate, x, k> => <item, x, v>; } -> skip; }
";

const DEFS: [&str; 10] = [
    "Label", "Plain", "Two", "Cond", "Chain", "Near", "Broken", "Consts", "Overlap", "Late",
];
const FUNCTORS: [&str; 6] = ["label", "threshold", "image", "item", "gate", "link"];

fn builtins() -> Builtins {
    let mut b = Builtins::standard();
    b.register_grid_neighbor(2, 2);
    b.register("near", |args: &[Value]| match args {
        [Value::Int(x), Value::Int(k)] => Some(Value::Bool((x - k).abs() <= 1)),
        _ => None,
    });
    b
}

/// A view of [`VIEWS`] with its process constants.
#[derive(Clone, Debug)]
struct ViewCase {
    def: &'static str,
    env: HashMap<String, Value>,
}

impl ViewCase {
    fn view(&self, program: &CompiledProgram) -> CompiledView {
        program.def(self.def).unwrap().view.clone()
    }
}

fn arb_view() -> impl Strategy<Value = ViewCase> {
    let arg = prop_oneof![
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        Just(Value::atom("oops")),
    ];
    (0usize..DEFS.len(), arg.clone(), arg).prop_map(|(d, a, b)| {
        let program = CompiledProgram::from_source(VIEWS).unwrap();
        let def = DEFS[d];
        let params = program.def(def).unwrap().params.clone();
        ViewCase {
            def,
            env: params.into_iter().zip([a, b]).collect(),
        }
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    let triple =
        (0usize..6, 0i64..4, 0i64..4).prop_map(|(f, a, b)| tuple![Value::atom(FUNCTORS[f]), a, b]);
    prop_oneof![
        triple.clone(),
        triple.clone(),
        triple,
        (0usize..6, 0i64..4).prop_map(|(f, a)| tuple![Value::atom(FUNCTORS[f]), a]),
        Just(tuple![Value::atom("link")]),
    ]
}

fn arb_store() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(arb_tuple(), 0..40)
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let functor = (0usize..6).prop_map(|f| Field::Const(Value::atom(FUNCTORS[f])));
    let head = prop_oneof![
        functor.clone(),
        functor,
        Just(Field::Var(VarId(0))),
        Just(Field::Any),
    ];
    let slot = prop_oneof![
        (0i64..4).prop_map(|i| Field::Const(Value::Int(i))),
        (0u16..3).prop_map(|v| Field::Var(VarId(v))),
        Just(Field::Any),
    ];
    (head, proptest::collection::vec(slot, 0..3))
        .prop_map(|(h, rest)| Pattern::new(std::iter::once(h).chain(rest).collect()))
}

fn dataspace(tuples: &[Tuple]) -> Dataspace {
    let mut ds = Dataspace::new();
    for (i, t) in tuples.iter().enumerate() {
        ds.assert_tuple(ProcId(1 + i as u64 % 3), t.clone());
    }
    ds
}

fn matches(pattern: &Pattern, tuple: &Tuple) -> bool {
    let n = pattern.vars().map(|v| v.0 as usize + 1).max().unwrap_or(0);
    pattern.matches(tuple, &mut Bindings::new(n))
}

/// The window over `src` lists, for `pattern`, the store's candidates
/// the import test admits — same ids, same order, an early stop after
/// `k` seeing the first `k` of them — and every query answers from that
/// list.
fn window_is_the_admit_filter(src: &dyn TupleSource, case: &ViewCase, pattern: &Pattern, k: usize) {
    let program = CompiledProgram::from_source(VIEWS).unwrap();
    let b = builtins();
    let view = case.view(&program);
    let rules = view.resolve_import(&case.env, &b).unwrap();
    let admitted = |ids: Vec<TupleId>| -> Vec<TupleId> {
        ids.into_iter()
            .filter(|id| rules.admits(src.tuple(*id).unwrap(), src, &case.env, &b))
            .collect()
    };
    let expected = admitted(src.candidate_ids(pattern));
    let w = view.window(src, &case.env, &b);
    assert_eq!(w.candidate_ids(pattern), expected.clone());
    let mut seen = Vec::new();
    w.visit_candidates(pattern, &mut |id, t| {
        assert_eq!(src.tuple(id), Some(t));
        seen.push(id);
        seen.len() < k
    });
    assert_eq!(&seen[..], &expected[..k.min(expected.len())]);
    let any_match = expected
        .iter()
        .any(|id| matches(pattern, src.tuple(*id).unwrap()));
    assert_eq!(w.contains_match(pattern), any_match);
    let imported = admitted(src.all_ids());
    assert_eq!(w.all_ids(), imported.clone());
    assert_eq!(w.tuple_count(), imported.len());
    assert_eq!(rules.import_ids(src, &case.env, &b), imported);
}

/// `pid`'s window from the community index — reading its kept import
/// set unless the member is stale — answers every query as a window
/// built afresh over `ds` does.
fn kept_window_is_fresh(
    index: &CommunityIndex,
    proc: &ProcessInstance,
    ds: &Dataspace,
    pattern: &Pattern,
    k: usize,
) {
    let b = builtins();
    let kept = index.window(proc.id, ds, &b);
    let fresh = proc.def.view.window(ds, &proc.env, &b);
    let matching = |w: &QuerySource, stop: usize| {
        let mut seen = Vec::new();
        w.visit_candidates(pattern, &mut |id, t| {
            if matches(pattern, t) {
                seen.push(id);
            }
            seen.len() < stop
        });
        seen
    };
    assert_eq!(matching(&kept, usize::MAX), matching(&fresh, usize::MAX));
    assert_eq!(matching(&kept, k), matching(&fresh, k));
    assert_eq!(kept.contains_match(pattern), fresh.contains_match(pattern));
    for id in ds.all_ids() {
        assert_eq!(kept.tuple(id), fresh.tuple(id), "{id:?}");
    }
    assert_eq!(kept.all_ids(), fresh.all_ids());
    assert_eq!(kept.tuple_count(), fresh.tuple_count());
    for mode in [sdl_dataspace::AtomMode::Read, sdl_dataspace::AtomMode::Neg] {
        let atom = QueryAtom {
            pattern: pattern.clone(),
            mode,
        };
        let (mut heard, mut expected) = (WatchSet::new(), WatchSet::new());
        kept.subscribe(&atom, &mut heard);
        fresh.subscribe(&atom, &mut expected);
        assert_eq!(heard, expected);
    }
}

/// A society of one to four members of [`VIEWS`], by definition and
/// arguments.
fn arb_society() -> impl Strategy<Value = Vec<(usize, Value, Value)>> {
    let arg = prop_oneof![
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        Just(Value::atom("oops")),
    ];
    proptest::collection::vec((0usize..DEFS.len(), arg.clone(), arg), 1..5)
}

/// One commit: retractions by position among the live ids, assertions,
/// and whether every stale import set is recomputed after it.
fn arb_step() -> impl Strategy<Value = (Vec<usize>, Vec<Tuple>, bool)> {
    (
        proptest::collection::vec(0usize..64, 0..3),
        proptest::collection::vec(arb_tuple(), 0..3),
        any::<bool>(),
    )
}

/// The ids of the instances the window over `ds` shows matching `pattern`.
fn shown(ds: &Dataspace, case: &ViewCase, pattern: &Pattern) -> Vec<TupleId> {
    let program = CompiledProgram::from_source(VIEWS).unwrap();
    let b = builtins();
    let view = case.view(&program);
    let w = view.window(ds, &case.env, &b);
    let found = w.candidate_ids(pattern);
    found
        .into_iter()
        .filter(|id| matches(pattern, ds.tuple(*id).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expansion_lists_what_the_admit_test_admits(
        case in arb_view(),
        tuples in arb_store(),
        pattern in arb_pattern(),
        k in 1usize..4,
    ) {
        window_is_the_admit_filter(&dataspace(&tuples), &case, &pattern, k);
        for shards in [1, 4] {
            let sds = ShardedDataspace::new(shards);
            for t in &tuples {
                sds.assert_tuple(ProcId::ENV, t.clone());
            }
            let view = sds.read_shards(sds.all_shards());
            window_is_the_admit_filter(&view, &case, &pattern, k);
        }
    }

    /// A commit that changes which instances matching an atom the window
    /// shows publishes a key the atom's subscription holds — for a
    /// positive atom and for a negated one.
    #[test]
    fn subscriptions_hear_every_change_the_window_shows(
        case in arb_view(),
        tuples in arb_store(),
        pattern in arb_pattern(),
        negated in any::<bool>(),
        retracts in proptest::collection::vec(0usize..64, 0..3),
        asserts in proptest::collection::vec(arb_tuple(), 0..3),
    ) {
        let program = CompiledProgram::from_source(VIEWS).unwrap();
        let b = builtins();
        let view = case.view(&program);
        let ds = dataspace(&tuples);
        let atom = QueryAtom {
            pattern: pattern.clone(),
            mode: if negated { sdl_dataspace::AtomMode::Neg } else { sdl_dataspace::AtomMode::Read },
        };
        let mut subscription = WatchSet::new();
        view.window(&ds, &case.env, &b).subscribe(&atom, &mut subscription);

        let live = ds.all_ids();
        let mut actions: Vec<Action> = retracts
            .iter()
            .filter(|_| !live.is_empty())
            .map(|n| Action::Retract(live[n % live.len()]))
            .collect();
        actions.dedup();
        actions.extend(asserts.into_iter().map(|t| Action::Assert(ProcId::ENV, t)));
        let mut after = ds.clone();
        let mut published = WatchSet::new();
        after.apply_batch(&actions, &mut published);

        if shown(&ds, &case, &pattern) != shown(&after, &case, &pattern) {
            prop_assert!(
                published.intersects(&subscription),
                "{:?} changed what {:?} shows of {} unheard",
                actions, case, pattern
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Through a commit history the community index applies, every
    /// member's window — a fresh member's scanning its kept import set —
    /// answers as a window built afresh does.
    #[test]
    fn a_kept_import_set_window_is_a_fresh_window(
        society in arb_society(),
        tuples in arb_store(),
        steps in proptest::collection::vec(arb_step(), 0..6),
        pattern in arb_pattern(),
        k in 1usize..4,
    ) {
        let program = CompiledProgram::from_source(VIEWS).unwrap();
        let b = builtins();
        let procs: Vec<ProcessInstance> = (society.into_iter().enumerate())
            .map(|(i, (d, x, y))| {
                let def = program.def(DEFS[d]).unwrap().clone();
                let args = [x, y].into_iter().take(def.params.len()).collect();
                ProcessInstance::new(ProcId(100 + i as u64), def, args)
            })
            .collect();
        let mut ds = dataspace(&tuples);
        let mut index = CommunityIndex::build(&procs.iter().collect::<Vec<_>>(), &b);
        index.import_sets(&ds, &b);
        for (retracts, asserts, refresh) in steps {
            for p in &procs {
                kept_window_is_fresh(&index, p, &ds, &pattern, k);
            }
            let live = ds.all_ids();
            let mut actions: Vec<Action> = (retracts.iter())
                .filter(|_| !live.is_empty())
                .map(|n| Action::Retract(live[n % live.len()]))
                .collect();
            actions.sort_by_key(|a| match a {
                Action::Retract(id) => Some(*id),
                _ => None,
            });
            actions.dedup();
            actions.extend(asserts.into_iter().map(|t| Action::Assert(ProcId::ENV, t)));
            let out = ds.apply_batch(&actions, &mut WatchSet::new());
            index.commit(&out.retracted, &out.asserted, &ds, &b);
            if refresh {
                index.import_sets(&ds, &b);
            }
        }
        for p in &procs {
            kept_window_is_fresh(&index, p, &ds, &pattern, k);
        }
    }

    /// A subscription read off constants in place is the one built from
    /// probe patterns and narrowed conditions.
    #[test]
    fn subscribing_by_constants_builds_no_other_keys(
        case in arb_view(),
        tuples in arb_store(),
        pattern in arb_pattern(),
        negated in any::<bool>(),
    ) {
        let program = CompiledProgram::from_source(VIEWS).unwrap();
        let b = builtins();
        let view = case.view(&program);
        let ds = dataspace(&tuples);
        let atom = QueryAtom {
            pattern,
            mode: if negated { sdl_dataspace::AtomMode::Neg } else { sdl_dataspace::AtomMode::Read },
        };
        let QuerySource::Lazy(w) = view.window(&ds, &case.env, &b) else {
            unreachable!("every view of VIEWS restricts its imports")
        };
        let (mut heard, mut expected) = (WatchSet::new(), WatchSet::new());
        w.subscribe(&atom, &mut heard);
        w.subscribe_by_patterns(&atom, &mut expected);
        prop_assert_eq!(heard, expected);
    }
}

/// The Label process of the paper's region labeling, on a 4×4 grid,
/// parked on its loop: it listens on its own and its same-threshold
/// neighbours' labels and thresholds, not on the rest of the image.
#[test]
fn a_parked_label_wakes_for_its_neighbours_only() {
    let program = CompiledProgram::from_source(VIEWS).unwrap();
    let view = program.def("Label").unwrap().view.clone();
    let mut b = Builtins::standard();
    b.register_grid_neighbor(4, 4);
    let env: HashMap<String, Value> = [("r", 5), ("t", 1)]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), Value::Int(v)))
        .collect();
    // Pixel 5's neighbours are 1, 4, 6 and 9; the odd ones share its
    // threshold class.
    let mut ds = Dataspace::new();
    for p in 0..16i64 {
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), p, p % 2]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), p, p]);
    }
    // The loop's guards, as the serial scheduler subscribes them when the
    // first fails: both through that evaluation's window.
    let guards = [
        "exists l, p4, l2 : <label, r, l>!, <label, p4, l2> : l < l2 -> <label, r, l2>",
        "forall p5, l3, l4 : <threshold, r, t>!, <label, p5, l3>, <label, r, l4> : l3 == l4 @> exit",
    ];
    let window = view.window(&ds, &env, &b);
    let mut parked = WatchSet::new();
    for src in guards {
        let txn = compile_txn(&sdl_lang::parse_transaction(src).unwrap(), &HashMap::new()).unwrap();
        let atoms = crate::txn::resolve_atoms(&txn, &env, &b);
        parked.extend(&crate::txn::watch_set_resolved(&txn, &atoms, &window));
    }
    let wakes = |t: Tuple| {
        let mut published = WatchSet::new();
        published.add_tuple(&t);
        published.intersects(&parked)
    };
    let label = |p: i64, l: i64| tuple![Value::atom("label"), p, l];
    let threshold = |p: i64, t: i64| tuple![Value::atom("threshold"), p, t];
    assert!(wakes(label(9, 15)), "a same-class neighbour's label");
    assert!(wakes(label(1, 15)), "a same-class neighbour's label");
    assert!(wakes(label(5, 15)), "its own label");
    assert!(!wakes(label(15, 15)), "a label beyond its neighbours");
    assert!(
        !wakes(label(13, 15)),
        "a same-class label beyond its neighbours"
    );
    assert!(!wakes(label(6, 15)), "a neighbour of the other class");
    assert!(wakes(threshold(6, 1)), "a neighbour joining its class");
    assert!(!wakes(threshold(6, 0)), "a threshold of the other class");
}
