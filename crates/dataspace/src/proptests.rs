//! Property-based tests for store invariants and solver correctness.

use proptest::prelude::*;

use sdl_tuple::{Bindings, Pattern, ProcId, Tuple, TupleId, Value};

use crate::plan::plan_query;
use crate::shard::{ShardSet, ShardedDataspace};
use crate::solve::{AtomMode, QueryAtom, SolveLimits, Solver};
use crate::store::{Action, Dataspace, TupleSource};
use crate::watch::WatchSet;

#[derive(Clone, Debug)]
enum Op {
    Assert(Tuple),
    RetractNth(usize),
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    let field = prop_oneof![
        (0i64..5).prop_map(Value::Int),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Value::atom),
    ];
    proptest::collection::vec(field, 0..4).prop_map(Tuple::new)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_tuple().prop_map(Op::Assert),
            (0usize..64).prop_map(Op::RetractNth),
        ],
        0..64,
    )
}

/// [`arb_ops`] with three asserts per retract, so stores grow to dozens
/// of tuples and index keys are shared across heads and owners.
fn arb_growing_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_tuple().prop_map(Op::Assert),
            arb_tuple().prop_map(Op::Assert),
            arb_tuple().prop_map(Op::Assert),
            (0usize..64).prop_map(Op::RetractNth),
        ],
        0..96,
    )
}

/// Arbitrary conjunctive query: a mode selector (read/retract/neg) plus
/// pattern fields drawn over small constants, three variables, and
/// wildcards — enough to exercise joins, shared variables, retract
/// distinctness, and negation together.
fn arb_query() -> impl Strategy<Value = Vec<(u8, Vec<sdl_tuple::Field>)>> {
    let field = prop_oneof![
        (0i64..5).prop_map(|i| sdl_tuple::Field::Const(Value::Int(i))),
        prop_oneof![Just("a"), Just("b"), Just("c")]
            .prop_map(|a| sdl_tuple::Field::Const(Value::atom(a))),
        (0u16..3).prop_map(|v| sdl_tuple::Field::Var(sdl_tuple::VarId(v))),
        Just(sdl_tuple::Field::Any),
    ];
    proptest::collection::vec((0u8..3, proptest::collection::vec(field, 0..4)), 1..4)
}

/// Arbitrary single pattern over the same value universe as
/// [`arb_tuple`]: small ints, three atoms, three variables, wildcards.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let field = prop_oneof![
        (0i64..5).prop_map(|i| sdl_tuple::Field::Const(Value::Int(i))),
        prop_oneof![Just("a"), Just("b"), Just("c")]
            .prop_map(|a| sdl_tuple::Field::Const(Value::atom(a))),
        (0u16..3).prop_map(|v| sdl_tuple::Field::Var(sdl_tuple::VarId(v))),
        Just(sdl_tuple::Field::Any),
    ];
    proptest::collection::vec(field, 0..4).prop_map(Pattern::new)
}

/// One pattern per shape the index serves differently, cut from `probe`
/// (whose head is an atom or not, by chance), plus `free`.
fn pattern_shapes(probe: &Tuple, free: Pattern) -> Vec<Pattern> {
    use sdl_tuple::{Field, VarId};
    let keep = |n: usize, var_head: bool| -> Pattern {
        probe
            .iter()
            .enumerate()
            .map(|(i, v)| match i {
                0 if var_head => Field::Var(VarId(0)),
                i if i < n => Field::Const(v.clone()),
                _ => Field::Any,
            })
            .collect()
    };
    vec![
        keep(probe.arity(), false), // ground
        keep(2, false),             // functor / non-atom head, constant slot 1
        keep(1, false),             // functor / non-atom head alone
        keep(2, true),              // variable head, constant slot 1
        keep(0, true),              // variable head alone
        Pattern::new(Vec::new()),   // empty
        free,
    ]
}

/// Order-independent fingerprint of a solution: bindings plus sorted
/// read/retract evidence (join reordering permutes evidence order).
fn normalize_solution(
    s: crate::solve::Solution,
) -> (Vec<Option<Value>>, Vec<TupleId>, Vec<TupleId>) {
    let mut reads = s.reads;
    let mut retracts = s.retracts;
    reads.sort();
    retracts.sort();
    (s.bindings, reads, retracts)
}

/// A store [`run_ops`] can drive: assert under an owner, retract by id.
trait Store {
    fn put(&mut self, owner: ProcId, t: Tuple) -> TupleId;
    fn take(&mut self, id: TupleId) -> Option<Tuple>;
}

impl Store for Dataspace {
    fn put(&mut self, owner: ProcId, t: Tuple) -> TupleId {
        self.assert_tuple(owner, t)
    }

    fn take(&mut self, id: TupleId) -> Option<Tuple> {
        self.retract(id)
    }
}

impl Store for ShardedDataspace {
    fn put(&mut self, owner: ProcId, t: Tuple) -> TupleId {
        self.assert_tuple(owner, t)
    }

    fn take(&mut self, id: TupleId) -> Option<Tuple> {
        let (out, _) = self
            .write_shards(self.all_shards())
            .apply_batch(vec![Action::Retract(id)], &mut WatchSet::new());
        out.retracted.into_iter().next().map(|(_, t)| t)
    }
}

/// Reference model: a plain list of (id, tuple). Two owners take turns,
/// so ids land mid-posting, not only at the end.
fn run_ops(d: &mut impl Store, ops: &[Op]) -> Vec<(TupleId, Tuple)> {
    let mut model: Vec<(TupleId, Tuple)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Assert(t) => {
                let id = d.put(ProcId(1 + i as u64 % 2), t.clone());
                model.push((id, t.clone()));
            }
            Op::RetractNth(n) => {
                if !model.is_empty() {
                    let (id, t) = model.remove(n % model.len());
                    assert_eq!(d.take(id), Some(t));
                }
            }
        }
    }
    model
}

/// The oracle: the ids of the model's tuples that `p` matches, ascending
/// — a linear scan, no index.
fn model_matches(model: &[(TupleId, Tuple)], p: &Pattern) -> Vec<TupleId> {
    let mut ids: Vec<TupleId> = model
        .iter()
        .filter(|(_, t)| p.matches(t, &mut Bindings::new(3)))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    /// The store agrees with a simple list model under arbitrary
    /// assert/retract interleavings: same size, same membership, same
    /// value counts.
    #[test]
    fn store_matches_model(ops in arb_ops()) {
        let mut d = Dataspace::new();
        let model = run_ops(&mut d, &ops);
        prop_assert_eq!(d.len(), model.len());
        for (id, t) in &model {
            prop_assert!(d.contains_id(*id));
            prop_assert_eq!(d.tuple(*id), Some(t));
        }
        // Value counts agree.
        for (_, t) in &model {
            let expected = model.iter().filter(|(_, u)| u == t).count();
            prop_assert_eq!(d.count_value(t), expected);
        }
        // Enumeration is ascending and complete.
        let mut ids: Vec<TupleId> = model.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        prop_assert_eq!(d.iter().map(|(id, _)| id).collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(d.all_ids(), ids);
    }

    /// Ordered outputs are a function of the live instances, not of the
    /// history that left them: a store rebuilt from another's survivors,
    /// inserted in reverse id order, lists, prints, drains and snapshots
    /// the same.
    #[test]
    fn ordered_outputs_ignore_history(ops in arb_growing_ops()) {
        let ids = |d: &Dataspace| d.iter().map(|(id, _)| id).collect::<Vec<_>>();
        let mut a = Dataspace::new();
        run_ops(&mut a, &ops);
        let mut b = Dataspace::new();
        for (id, t) in a.iter().collect::<Vec<_>>().into_iter().rev() {
            b.insert_instance(id, t.clone());
        }
        prop_assert_eq!(ids(&a), ids(&b));
        prop_assert_eq!(a.all_ids(), b.all_ids());
        prop_assert_eq!(a.to_string(), b.to_string());

        let mut sharded = ShardedDataspace::new(3);
        let mut model = run_ops(&mut sharded, &ops);
        model.sort_unstable_by_key(|(id, _)| *id);
        let (cursors, tuples) = sharded.read_shards(sharded.all_shards()).snapshot_state();
        prop_assert_eq!(&tuples, &model);
        let rebuilt = ShardedDataspace::new(3);
        for (id, t) in tuples.iter().rev() {
            rebuilt.insert_instance(*id, t.clone());
        }
        rebuilt.advance_cursors(&cursors);
        let snapshot = rebuilt.read_shards(rebuilt.all_shards()).snapshot_state();
        prop_assert_eq!(snapshot, (cursors, tuples));
        let (da, db) = (sharded.drain_into_dataspace(), rebuilt.drain_into_dataspace());
        prop_assert_eq!(ids(&da), ids(&db));
        prop_assert_eq!(da.to_string(), db.to_string());
        prop_assert_eq!(da.iter().map(|(id, t)| (id, t.clone())).collect::<Vec<_>>(), model);
    }

    /// The indexed store answers every query as a scan of the model does.
    #[test]
    fn index_is_transparent(ops in arb_ops(), query in arb_tuple()) {
        let mut d = Dataspace::new();
        let model = run_ops(&mut d, &ops);
        // Ground query on the tuple value.
        let p = Pattern::new(
            query.iter().cloned().map(sdl_tuple::Field::Const).collect(),
        );
        let expected = model_matches(&model, &p);
        prop_assert_eq!(d.count_matches(&p), expected.len());
        prop_assert_eq!(d.contains_match(&p), !expected.is_empty());
        // Wildcard query per arity.
        for arity in 0..4usize {
            let w = Pattern::new(vec![sdl_tuple::Field::Any; arity]);
            prop_assert_eq!(d.count_matches(&w), model_matches(&model, &w).len());
        }
    }

    /// The solver's solution count for a single-atom query equals the
    /// number of matching instances, and every reported instance matches.
    #[test]
    fn solver_single_atom_complete(ops in arb_ops(), arity in 0usize..4) {
        let mut d = Dataspace::new();
        run_ops(&mut d, &ops);
        let p = Pattern::new(
            (0..arity).map(|i| sdl_tuple::Field::Var(sdl_tuple::VarId(i as u16))).collect(),
        );
        let atoms = vec![QueryAtom::read(p.clone())];
        let solver = Solver::new(&d, &atoms, arity);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        prop_assert_eq!(sols.len(), d.count_matches(&p));
        for s in &sols {
            prop_assert_eq!(s.reads.len(), 1);
            prop_assert!(d.contains_id(s.reads[0]));
        }
    }

    /// Two-retract queries never report the same instance twice, and the
    /// number of ordered pairs equals n*(n-1) over same-arity instances.
    #[test]
    fn retract_pairs_are_distinct(n in 0usize..6) {
        let mut d = Dataspace::new();
        for i in 0..n {
            d.assert_tuple(ProcId(1), Tuple::new(vec![Value::Int(i as i64)]));
        }
        let atoms = vec![
            QueryAtom::retract(Pattern::new(vec![sdl_tuple::Field::Var(sdl_tuple::VarId(0))])),
            QueryAtom::retract(Pattern::new(vec![sdl_tuple::Field::Var(sdl_tuple::VarId(1))])),
        ];
        let solver = Solver::new(&d, &atoms, 2);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        prop_assert_eq!(sols.len(), n.saturating_mul(n.saturating_sub(1)));
        for s in &sols {
            prop_assert_ne!(s.retracts[0], s.retracts[1]);
        }
    }

    /// Plan-ordered solving enumerates exactly the same solution multiset
    /// as naive source-order solving, for arbitrary stores and arbitrary
    /// read/retract/neg conjunctions. Join reordering may change the
    /// *order* solutions are found in, never the set.
    #[test]
    fn planned_solving_preserves_solution_multiset(
        ops in arb_ops(),
        query in arb_query(),
    ) {
        let mut d = Dataspace::new();
        run_ops(&mut d, &ops);
        let atoms: Vec<QueryAtom> = query
            .iter()
            .map(|(mode, fields)| {
                let p = Pattern::new(fields.clone());
                match mode % 3 {
                    0 => QueryAtom::read(p),
                    1 => QueryAtom::retract(p),
                    _ => QueryAtom { pattern: p, mode: AtomMode::Neg },
                }
            })
            .collect();
        let n_vars = 3;
        let naive = Solver::new(&d, &atoms, n_vars);
        let mut expected: Vec<_> = naive
            .all_staged(None, &mut |_, _| true, SolveLimits::default())
            .into_iter()
            .map(normalize_solution)
            .collect();
        let plan = plan_query(&atoms, n_vars, &d);
        let planned = Solver::with_plan(&d, &atoms, n_vars, Some(&plan));
        let mut actual: Vec<_> = planned
            .all_staged(None, &mut |_, _| true, SolveLimits::default())
            .into_iter()
            .map(normalize_solution)
            .collect();
        expected.sort();
        actual.sort();
        prop_assert_eq!(expected, actual);
    }

    /// Wake completeness: every tuple a pattern matches publishes at
    /// least one watch key the pattern subscribes to — for both the
    /// coarse functor/arity subscription and the exact value-keyed one.
    /// This is the safety property of value-level wakeups: no commit
    /// that could unblock a parked transaction slips past its keys.
    #[test]
    fn subscriptions_intersect_matching_publications(
        p in arb_pattern(),
        t in arb_tuple(),
    ) {
        let mut b = sdl_tuple::Bindings::new(3);
        if p.matches(&t, &mut b) {
            let mut publication = WatchSet::new();
            publication.add_tuple(&t);
            let mut coarse = WatchSet::new();
            coarse.add_pattern(&p);
            prop_assert!(coarse.intersects(&publication));
            let mut exact = WatchSet::new();
            exact.add_pattern_exact(&p);
            prop_assert!(exact.intersects(&publication));
        }
    }

    /// Batched application is observationally identical to per-tuple
    /// application: same contents, same ids, same published watch keys.
    #[test]
    fn batch_equals_per_tuple_application(ops in arb_ops()) {
        let mut serial = Dataspace::new();
        let mut serial_watch = WatchSet::new();
        let mut actions = Vec::new();
        for op in &ops {
            match op {
                Op::Assert(t) => {
                    let id = serial.assert_tuple(ProcId(1), t.clone());
                    serial_watch.add_tuple(t);
                    actions.push((Action::Assert(ProcId(1), t.clone()), id));
                }
                Op::RetractNth(n) => {
                    let live: Vec<TupleId> =
                        serial.iter().map(|(id, _)| id).collect();
                    if !live.is_empty() {
                        let id = live[n % live.len()];
                        let t = serial.retract(id).expect("live id");
                        serial_watch.add_tuple(&t);
                        actions.push((Action::Retract(id), id));
                    }
                }
            }
        }
        let mut batched = Dataspace::new();
        let mut batch_watch = WatchSet::new();
        let batch: Vec<Action> = actions.iter().map(|(a, _)| a.clone()).collect();
        let out = batched.apply_batch(&batch, &mut batch_watch);
        // Same ids minted in the same order.
        let expected_ids: Vec<TupleId> = actions
            .iter()
            .filter(|(a, _)| matches!(a, Action::Assert(..)))
            .map(|(_, id)| *id)
            .collect();
        prop_assert_eq!(out.asserted, expected_ids);
        // Same final contents.
        prop_assert_eq!(batched.len(), serial.len());
        for (id, t) in serial.iter() {
            prop_assert_eq!(batched.tuple(id), Some(t));
        }
        // Same published watch keys.
        let serial_keys: std::collections::HashSet<_> = serial_watch.iter().cloned().collect();
        let batch_keys: std::collections::HashSet<_> = batch_watch.iter().cloned().collect();
        prop_assert_eq!(serial_keys, batch_keys);
    }

    /// Negation is the complement of membership.
    #[test]
    fn negation_complements_membership(ops in arb_ops(), probe in arb_tuple()) {
        let mut d = Dataspace::new();
        run_ops(&mut d, &ops);
        let p = Pattern::new(
            probe.iter().cloned().map(sdl_tuple::Field::Const).collect(),
        );
        let atoms = vec![QueryAtom { pattern: p.clone(), mode: AtomMode::Neg }];
        let solver = Solver::new(&d, &atoms, 0);
        let neg_holds = solver.first(&mut |_| true).is_some();
        prop_assert_eq!(neg_holds, !d.contains_match(&p));
    }
}

proptest! {
    /// Reads interleaved with writes: after every assert or retract, a
    /// read of every pattern shape (so a class is first posted mid-history
    /// and maintained from then on) lists ascending candidates among
    /// which are exactly the model's matches. Where only the head is
    /// constant, or nothing is, the estimate is the match count — unless
    /// every value shares one key, when it may only exceed it.
    #[test]
    fn reads_between_writes_agree_with_the_model(
        steps in proptest::collection::vec(
            (prop_oneof![
                arb_tuple().prop_map(Op::Assert),
                arb_tuple().prop_map(Op::Assert),
                (0usize..64).prop_map(Op::RetractNth),
            ], arb_tuple(), arb_pattern()),
            0..48,
        ),
    ) {
        for (exact, mut d) in [(true, Dataspace::new()), (false, Dataspace::colliding())] {
            let mut model = Vec::new();
            for (i, (op, probe, free)) in steps.iter().enumerate() {
                match op {
                    Op::Assert(t) => {
                        let id = d.assert_tuple(ProcId(1 + i as u64 % 2), t.clone());
                        model.push((id, t.clone()));
                    }
                    Op::RetractNth(n) if !model.is_empty() => {
                        let (id, t) = model.remove(n % model.len());
                        prop_assert_eq!(d.retract(id), Some(t));
                    }
                    Op::RetractNth(_) => {}
                }
                let shapes = pattern_shapes(probe, free.clone());
                for (shape, p) in shapes.iter().enumerate() {
                    let expected = model_matches(&model, p);
                    let candidates = d.candidate_ids(p);
                    prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{:?}", p);
                    let matched: Vec<TupleId> = candidates
                        .into_iter()
                        .filter(|id| p.matches(d.tuple(*id).expect("live"), &mut Bindings::new(3)))
                        .collect();
                    prop_assert_eq!(&matched, &expected, "{:?}", p);
                    // Shapes 2 and 4 of `pattern_shapes`: head alone, nothing.
                    let estimate = d.estimate_candidates(p);
                    if exact && (shape == 2 || shape == 4) {
                        prop_assert_eq!(estimate, expected.len(), "{:?}", p);
                    } else {
                        prop_assert!(estimate >= expected.len(), "{:?}", p);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For every pattern shape the index serves differently, the store
    /// reports the model's matches in id order, and the planner's
    /// estimate never undercounts them.
    #[test]
    fn store_and_oracle_agree_on_every_pattern_shape(
        ops in arb_growing_ops(),
        probe in arb_tuple(),
        free in arb_pattern(),
    ) {
        let mut d = Dataspace::new();
        let model = run_ops(&mut d, &ops);
        for p in &pattern_shapes(&probe, free) {
            let expected = model_matches(&model, p);
            let candidates = d.candidate_ids(p);
            prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{:?}", p);
            prop_assert_eq!(&d.matching_ids(p), &expected, "{:?}", p);
            prop_assert!(d.estimate_candidates(p) >= expected.len(), "{:?}", p);
            prop_assert_eq!(d.contains_match(p), !expected.is_empty(), "{:?}", p);
        }
    }

    /// The visitor *is* `candidate_ids`: for every source and every
    /// pattern shape it hands out the same ids in the same order with the
    /// tuples stored under them — among which are exactly the model's
    /// matches — stops after exactly the visits it was allowed, and a
    /// callback that queries the source again — as the join does at every
    /// nesting level — sees the same answer.
    #[test]
    fn visitor_is_candidate_ids(
        ops in arb_growing_ops(),
        probe in arb_tuple(),
        free in arb_pattern(),
        stop_after in 1usize..6,
    ) {
        let mut indexed = Dataspace::new();
        let model = run_ops(&mut indexed, &ops);
        let mut sharded = ShardedDataspace::new(3);
        let sharded_model = run_ops(&mut sharded, &ops);
        let all_shards = sharded.read_shards(sharded.all_shards());

        for p in &pattern_shapes(&probe, free) {
            // The one shard the pattern routes to, when it routes.
            let mut one = ShardSet::new();
            match sharded.shard_of_pattern(p) {
                Some(s) => one.insert(s),
                None => one = sharded.all_shards(),
            }
            let routed = sharded.read_shards(one);
            for (name, src, model) in [
                ("store", &indexed as &dyn TupleSource, &model),
                ("all shards", &all_shards, &sharded_model),
                ("routed shard", &routed, &sharded_model),
            ] {
                let listed = src.candidate_ids(p);
                let visit_all = |src: &dyn TupleSource| {
                    let mut seen = Vec::new();
                    src.visit_candidates(p, &mut |id, t| {
                        assert_eq!(src.tuple(id), Some(t), "{name} {p:?}");
                        seen.push(id);
                        true
                    });
                    seen
                };
                prop_assert_eq!(&visit_all(src), &listed, "{} {:?}", name, p);
                let matched: Vec<TupleId> = listed
                    .iter()
                    .copied()
                    .filter(|id| p.matches(src.tuple(*id).expect("live"), &mut Bindings::new(3)))
                    .collect();
                prop_assert_eq!(matched, model_matches(model, p), "{} {:?}", name, p);

                let mut visits = 0;
                src.visit_candidates(p, &mut |_, _| {
                    visits += 1;
                    visits < stop_after
                });
                prop_assert_eq!(visits, stop_after.min(listed.len()), "{} {:?}", name, p);

                let mut outer = Vec::new();
                src.visit_candidates(p, &mut |id, _| {
                    assert_eq!(visit_all(src), listed, "nested in {name} {p:?}");
                    outer.push(id);
                    true
                });
                prop_assert_eq!(&outer, &listed, "re-entered {} {:?}", name, p);
            }
        }
    }
}
