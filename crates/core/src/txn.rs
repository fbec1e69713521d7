//! Transaction evaluation: from a compiled transaction and a query source
//! to a validated, appliable [`Pending`] commit.
//!
//! Evaluation is split from application so the same machinery drives
//! three executors:
//!
//! * the serial scheduler evaluates and applies against the same store;
//! * the parallel-rounds scheduler evaluates against a round-start
//!   snapshot and validates/applies against the live store;
//! * the threaded executor evaluates under a read lock and
//!   validates/applies under the write lock, retrying on conflict.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use sdl_dataspace::{
    AtomMode, ForallEvidence, QueryAtom, SolveLimits, Solver, TupleSource, WatchKey, WatchSet,
};
use sdl_lang::ast::{Action, Quant};
use sdl_lang::expr::{eval, eval_test, EvalContext};
use sdl_tuple::{Bindings, Pattern, Tuple, TupleId, Value};

use crate::builtins::Builtins;
use crate::error::RuntimeError;
use crate::program::{CompiledTxn, ScheduledTest, TestCheck};
use crate::view::{resolve_fields, EnvCtx};

/// How a transaction's query is planned. Every query is planned the
/// same way, so this carries nothing; it stays a parameter of
/// [`evaluate_query`] so that function's callers need not change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanConfig;

/// The effects of a successfully evaluated transaction, not yet applied.
#[derive(Clone, Debug, Default)]
pub struct Pending {
    /// Instances to retract (pairwise distinct).
    pub retracts: Vec<TupleId>,
    /// Tuples to assert (before export filtering).
    pub asserts: Vec<Tuple>,
    /// Instances the query read (for validation).
    pub(crate) reads: Vec<TupleId>,
    /// Resolved negated patterns the query verified empty (for
    /// validation).
    pub(crate) neg_checks: Vec<Pattern>,
    /// For `forall` transactions: per-atom match evidence. The solution
    /// set was computed from exactly these instances; validation rejects
    /// if any atom's match set has drifted (a concurrent assert or
    /// retract could enlarge — not just shrink — the solution set).
    pub(crate) forall_checks: Vec<ForallEvidence>,
    /// `let` bindings to install in the process environment, in order.
    pub(crate) lets: Vec<(String, Value)>,
    /// Processes to create.
    pub(crate) spawns: Vec<(String, Vec<Value>)>,
    /// `exit` was executed.
    pub(crate) exit: bool,
    /// `abort` was executed.
    pub abort: bool,
}

impl Pending {
    /// True against `ds` iff every read/retracted instance is still live,
    /// every verified negation still has no match, and every `forall`
    /// atom still matches exactly the instances the evaluation saw — i.e.
    /// the evaluation would reach the same conclusion on `ds`.
    pub fn validate<S: TupleSource + ?Sized>(&self, ds: &S) -> bool {
        self.reads.iter().all(|id| ds.tuple(*id).is_some())
            && self.retracts.iter().all(|id| ds.tuple(*id).is_some())
            && self.neg_checks.iter().all(|p| !ds.contains_match(p))
            && self
                .forall_checks
                .iter()
                .all(|e| ds.matching_ids(&e.pattern) == e.matched)
    }
}

/// What a query evaluation committed to: the solutions plus (for
/// `forall`) the atom-level match evidence [`Pending::validate`] needs to
/// detect solution-set drift.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// The committed-to solutions (`exists`: exactly one).
    pub(crate) solutions: Vec<sdl_dataspace::Solution>,
    /// Per-atom match evidence (`forall` only; empty for `exists`).
    pub(crate) forall_checks: Vec<ForallEvidence>,
}

/// A transaction's query atoms with their environment expressions
/// evaluated ([`resolve_atoms`]), or why a pattern field did not evaluate.
pub(crate) type ResolvedAtoms = Result<Vec<QueryAtom>, RuntimeError>;

/// Resolves `txn`'s atoms against `env` — once per attempt loop: the
/// read footprint, the evaluation and, should it fail, the watch set of
/// every retry ([`crate::commit::Committer::evaluate`]) read this one
/// result.
pub fn resolve_atoms(
    txn: &CompiledTxn,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
) -> ResolvedAtoms {
    let ctx = EnvCtx {
        env,
        vars: &[],
        builtins,
    };
    txn.atoms
        .iter()
        .map(|a| {
            Ok(QueryAtom {
                pattern: resolve_fields(&a.fields, &ctx, "pattern field")?,
                mode: a.mode,
            })
        })
        .collect()
}

/// Sub-phase timings observed inside one [`evaluate_query`] call, for
/// tracing. All offsets are microseconds relative to the probe's
/// creation, which callers should anchor at the start of their own eval
/// span. Disabled runs pass no probe, so the hot path never reads the
/// clock for it.
#[derive(Debug)]
pub(crate) struct EvalProbe {
    anchor: std::time::Instant,
    /// `(offset_us, dur_us)` of the plan-cache lookup / planning step.
    pub(crate) plan_us: Option<(u64, u64)>,
}

impl EvalProbe {
    /// A probe anchored at `now`.
    pub(crate) fn new() -> EvalProbe {
        EvalProbe {
            anchor: std::time::Instant::now(),
            plan_us: None,
        }
    }
}

/// The query half of evaluating a transaction: runs the binding query,
/// negations, and tests over `source` and returns the committed-to
/// solutions, or `None` if the query does not hold. Needs the dataspace;
/// the effect half ([`build_effects`]) does not — the threaded executor
/// exploits the split to keep expensive action computation outside the
/// store lock.
///
/// # Errors
///
/// Returns `RuntimeError` when a pattern field cannot evaluate.
pub fn evaluate_query(
    txn: &CompiledTxn,
    source: &dyn TupleSource,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
    limits: SolveLimits,
    _plan: PlanConfig,
) -> Result<Option<QueryOutcome>, RuntimeError> {
    let atoms = resolve_atoms(txn, env, builtins);
    evaluate_resolved(txn, &atoms, source, env, builtins, limits, None)
}

/// [`evaluate_query`] over atoms the caller already resolved, with an
/// optional [`EvalProbe`] recording nested phase timings (the plan-cache
/// lookup).
///
/// # Errors
///
/// When a pattern field cannot evaluate; an `Err` in `atoms` surfaces
/// here, after the tests that need no quantified variable had their
/// chance to fail the query.
pub(crate) fn evaluate_resolved(
    txn: &CompiledTxn,
    atoms: &ResolvedAtoms,
    source: &dyn TupleSource,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
    limits: SolveLimits,
    probe: Option<&mut EvalProbe>,
) -> Result<Option<QueryOutcome>, RuntimeError> {
    let plain_ctx = EnvCtx {
        env,
        vars: &[],
        builtins,
    };

    // Depth-0 tests involve no quantified variables; under both
    // quantifiers they gate the whole transaction.
    for t in txn
        .binding_tests
        .iter()
        .chain(txn.property_tests.iter())
        .filter(|t| t.depth == 0)
    {
        match &t.check {
            TestCheck::Expr(e) => {
                if !eval_test(e, &plain_ctx) {
                    return Ok(None);
                }
            }
            TestCheck::HiddenEq { .. } => {
                unreachable!("hidden fields bind at depth >= 1")
            }
        }
    }
    let atoms = atoms.as_ref().map_err(RuntimeError::clone)?;

    // Plan the join (or take the cached plan), which re-schedules the
    // statement's tests against the plan's bind depths. Depth-0 tests
    // are plan-invariant (no quantified variables), so the prefilter
    // above needed no plan.
    let plan = match probe {
        Some(pr) => {
            let t0 = pr.anchor.elapsed().as_micros() as u64;
            let plan = txn.plan_for(atoms, source);
            let t1 = pr.anchor.elapsed().as_micros() as u64;
            pr.plan_us = Some((t0, t1.saturating_sub(t0)));
            plan
        }
        None => txn.plan_for(atoms, source),
    };
    let (binding_tests, property_tests) = (&plan.binding_tests, &plan.property_tests);

    let solver = Solver::with_plan(source, atoms, txn.n_vars, Some(&plan.query));
    let check_tests = |tests: &[ScheduledTest], depth: usize, vars: &[Option<Value>]| -> bool {
        let ctx = EnvCtx {
            env,
            vars,
            builtins,
        };
        tests
            .iter()
            .filter(|t| t.depth == depth)
            .all(|t| match &t.check {
                TestCheck::Expr(e) => eval_test(e, &ctx),
                TestCheck::HiddenEq { var, expr } => {
                    matches!((ctx.var(*var), eval(expr, &ctx)), (Some(bound), Ok(v)) if bound == v)
                }
            })
    };

    let outcome = match txn.quant {
        Quant::Exists => {
            let mut staged = |depth: usize, b: &Bindings| {
                check_tests(binding_tests, depth, b.slots())
                    && check_tests(property_tests, depth, b.slots())
            };
            match solver.first_staged(None, &mut staged) {
                Some(s) => QueryOutcome {
                    solutions: vec![s],
                    forall_checks: Vec::new(),
                },
                None => return Ok(None),
            }
        }
        Quant::Forall => {
            // The committed effects depend on the *complete* solution
            // set, so record, per atom, exactly which instances matched:
            // validation re-derives the sets and rejects on any drift.
            // Captured for negated atoms too — retracting a tuple that
            // matched a negation can enlarge the solution set. (Recorded
            // even when the set is empty: a vacuous forall still commits
            // its once-only actions.)
            let forall_checks = atoms
                .iter()
                .map(|a| ForallEvidence {
                    pattern: a.pattern.clone(),
                    matched: source.matching_ids(&a.pattern),
                })
                .collect();
            // Binding constraints prune; property tests are the checked
            // property — every binding solution must satisfy them.
            let mut staged =
                |depth: usize, b: &Bindings| check_tests(binding_tests, depth, b.slots());
            let sols = solver.all_staged(None, &mut staged, limits);
            for sol in &sols {
                for depth in 1..=solver.positive_count() {
                    if !check_tests(property_tests, depth, &sol.bindings) {
                        return Ok(None);
                    }
                }
            }
            QueryOutcome {
                solutions: sols,
                forall_checks,
            }
        }
    };

    Ok(Some(outcome))
}

/// The effect half of evaluating a transaction: turns the solutions into a
/// [`Pending`] commit by evaluating the action list. Pure with respect to
/// the dataspace.
///
/// # Errors
///
/// Returns `RuntimeError` when an action argument cannot evaluate.
pub fn build_effects(
    txn: &CompiledTxn,
    query: &QueryOutcome,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
) -> Result<Pending, RuntimeError> {
    let solutions = &query.solutions;
    let mut pending = Pending {
        forall_checks: query.forall_checks.clone(),
        ..Pending::default()
    };
    for sol in solutions {
        pending.retracts.extend_from_slice(&sol.retracts);
        pending.reads.extend_from_slice(&sol.reads);
        pending.neg_checks.extend_from_slice(&sol.neg_checks);
    }
    // One solution's retracts are pairwise distinct already; two
    // solutions of a `forall` may have taken the same instance.
    if solutions.len() > 1 {
        let mut seen = HashSet::new();
        pending.retracts.retain(|id| seen.insert(*id));
    }

    // `let` actions are visible to the actions that follow them in the
    // same list (the paper's `let N = α, <found, N>` idiom), so action
    // evaluation runs over an overlay of the process environment —
    // copied when the first `let` runs, not before.
    let mut action_env = Cow::Borrowed(env);
    for ca in &txn.actions {
        let mut run = |vars: &[Option<Value>]| -> Result<(), RuntimeError> {
            let before = pending.lets.len();
            let ctx = EnvCtx {
                env: &action_env,
                vars,
                builtins,
            };
            apply_action(&ca.action, &ctx, &mut pending)?;
            for (name, v) in &pending.lets[before..] {
                action_env.to_mut().insert(name.clone(), v.clone());
            }
            Ok(())
        };
        // `forall`: per-solution actions run once per solution, over its
        // bindings; the others once, over none. `exists` has exactly one
        // solution either way.
        if ca.per_solution {
            solutions.iter().try_for_each(|s| run(&s.bindings))?;
        } else {
            run(&[])?;
        }
    }
    Ok(pending)
}

fn apply_action(
    action: &Action,
    ctx: &EnvCtx<'_>,
    pending: &mut Pending,
) -> Result<(), RuntimeError> {
    let ev = |e, what: &str| {
        eval(e, ctx).map_err(|source| RuntimeError::Eval {
            source,
            context: what.to_owned(),
        })
    };
    match action {
        Action::Assert(fields) => {
            let mut vals = Vec::with_capacity(fields.len());
            for f in fields {
                vals.push(ev(f, "asserted tuple field")?);
            }
            pending.asserts.push(Tuple::new(vals));
        }
        Action::Let(name, e) => {
            let v = ev(e, "let binding")?;
            pending.lets.push((name.clone(), v));
        }
        Action::Spawn(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(ev(a, "spawn argument")?);
            }
            pending.spawns.push((name.clone(), vals));
        }
        Action::Skip => {}
        Action::Exit => pending.exit = true,
        Action::Abort => pending.abort = true,
    }
    Ok(())
}

/// The watch keys a blocked instance of `txn` listens on, subscribed
/// through `source` — the window its failed evaluation ran over, in the
/// state that evaluation saw ([`TupleSource::subscribe`]).
///
/// Each atom subscribes what can change its matches: over the store, a
/// positive atom with an atom head and a constant argument listens on its
/// value-level key ([`sdl_dataspace::WatchKey::Value`]), so a transaction
/// blocked on `<count, 7, α>` wakes only when a `count` tuple carrying
/// `7` changes; a negated atom keeps its conservative functor/arity
/// channel. A restricted window narrows a positive atom to the values
/// its import rules admit, and adds the rules' conditions.
///
/// When some positive atom currently has zero candidates
/// ([`TupleSource::estimate_candidates`] is an upper bound on the
/// candidate superset, so 0 is a sound emptiness proof), the transaction
/// cannot become enabled until a commit asserts a tuple matching that
/// atom, so that atom's subscription alone is complete — as long as the
/// caller recomputes the subscription on every re-park (a spurious wake
/// must refresh the probe: the previously empty atom may now be
/// populated while a different one is empty). Among several provably
/// empty atoms the one with an exact value key
/// ([`sdl_dataspace::WatchKey::value_of_pattern`]) is preferred, source
/// order breaking ties.
///
/// When the atoms did not resolve, the subscription is every atom's
/// arity channel: any change of that arity re-examines the transaction.
pub(crate) fn watch_set_resolved(
    txn: &CompiledTxn,
    atoms: &ResolvedAtoms,
    source: &dyn TupleSource,
) -> WatchSet {
    let mut w = WatchSet::new();
    let Ok(atoms) = atoms else {
        for a in &txn.atoms {
            w.add_key(WatchKey::Arity(a.fields.len()));
        }
        return w;
    };
    let empty: Vec<&QueryAtom> = atoms
        .iter()
        .filter(|a| a.mode != AtomMode::Neg && source.estimate_candidates(&a.pattern) == 0)
        .collect();
    let valued = empty
        .iter()
        .find(|a| WatchKey::value_of_pattern(&a.pattern).is_some());
    if let Some(a) = valued.or(empty.first()) {
        source.subscribe(a, &mut w);
        return w;
    }
    for a in atoms {
        source.subscribe(a, &mut w);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile_txn;
    use sdl_dataspace::Dataspace;
    use sdl_lang::parse_transaction;
    use sdl_tuple::{tuple, ProcId};

    fn compile(src: &str) -> CompiledTxn {
        compile_txn(&parse_transaction(src).unwrap(), &HashMap::new()).unwrap()
    }

    fn evaluate(
        txn: &CompiledTxn,
        source: &dyn TupleSource,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
        limits: SolveLimits,
    ) -> Result<Option<Pending>, RuntimeError> {
        match evaluate_query(txn, source, env, builtins, limits, PlanConfig)? {
            Some(query) => build_effects(txn, &query, env, builtins).map(Some),
            None => Ok(None),
        }
    }

    /// The park subscription of `txn` over `ds`.
    fn watch(txn: &CompiledTxn, env: &HashMap<String, Value>, ds: &Dataspace) -> WatchSet {
        watch_set_resolved(txn, &resolve_atoms(txn, env, &Builtins::standard()), ds)
    }

    fn env(pairs: &[(&str, i64)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::Int(*v)))
            .collect()
    }

    fn run(src: &str, ds: &Dataspace, env_pairs: &[(&str, i64)]) -> Option<Pending> {
        let txn = compile(src);
        evaluate(
            &txn,
            ds,
            &env(env_pairs),
            &Builtins::standard(),
            SolveLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn paper_year_example() {
        // ∃α: <year, α>↑ : α > 87 → let N = α, <found, α>
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 90]);
        let p = run(
            "exists a : <year, a>! : a > 87 -> let N = a, <found, a>",
            &ds,
            &[],
        )
        .expect("year 90 matches");
        assert_eq!(p.retracts.len(), 1);
        assert_eq!(p.asserts, vec![tuple![Value::atom("found"), 90]]);
        assert_eq!(p.lets, vec![("N".to_owned(), Value::Int(90))]);
    }

    #[test]
    fn failure_returns_none() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 80]);
        assert!(run("exists a : <year, a>! : a > 87 -> skip", &ds, &[]).is_none());
    }

    #[test]
    fn env_expressions_in_patterns() {
        // Sum2 shape: <k - 2^(j-1), a, j>!, <k, b, j>! => <k, a+b, j+1>
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1, 10, 1]);
        ds.assert_tuple(ProcId::ENV, tuple![2, 20, 1]);
        let p = run(
            "exists a, b : <k - 2^(j-1), a, j>!, <k, b, j>! => <k, a + b, j + 1>",
            &ds,
            &[("k", 2), ("j", 1)],
        )
        .expect("both operands present");
        assert_eq!(p.retracts.len(), 2);
        assert_eq!(p.asserts, vec![tuple![2, 30, 2]]);
    }

    #[test]
    fn forall_requires_every_solution_to_pass() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 5]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 10]);
        assert!(run("forall a : <v, a> : a > 3 -> skip", &ds, &[]).is_some());
        assert!(run("forall a : <v, a> : a > 7 -> skip", &ds, &[]).is_none());
    }

    #[test]
    fn forall_vacuous_truth() {
        let ds = Dataspace::new();
        let p = run("forall a : <v, a> : a > 7 -> <ok>", &ds, &[]).expect("vacuously true");
        assert!(p.retracts.is_empty());
        // <ok> mentions no variable → asserted once even with zero
        // solutions.
        assert_eq!(p.asserts.len(), 1);
    }

    #[test]
    fn forall_retracts_all_and_asserts_per_solution() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 2]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 3]);
        let p = run("forall a : <v, a>! -> <w, a>, <done>", &ds, &[]).unwrap();
        assert_eq!(p.retracts.len(), 3);
        assert_eq!(p.asserts.len(), 4, "3 per-solution + 1 once");
        assert_eq!(
            p.asserts
                .iter()
                .filter(|t| t.functor() == Some(sdl_tuple::Atom::new("w")))
                .count(),
            3
        );
    }

    #[test]
    fn negation_in_query() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("index"), 1]);
        assert!(run("not <index, *> -> <empty>", &ds, &[]).is_none());
        let mut empty_ds = Dataspace::new();
        empty_ds.assert_tuple(ProcId::ENV, tuple![Value::atom("other")]);
        let p = run("not <index, *> -> <empty>", &empty_ds, &[]).unwrap();
        assert_eq!(p.neg_checks.len(), 1);
    }

    #[test]
    fn hidden_eq_field() {
        // <x, a>, <a + 1, b>: the second atom's head is computed from a.
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("x"), 4]);
        ds.assert_tuple(ProcId::ENV, tuple![5, 50]);
        ds.assert_tuple(ProcId::ENV, tuple![6, 60]);
        let p = run("exists a, b : <x, a>, <a + 1, b> -> <got, b>", &ds, &[]).unwrap();
        assert_eq!(p.asserts, vec![tuple![Value::atom("got"), 50]]);
    }

    #[test]
    fn predicate_atom_prunes() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("n"), 2]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("n"), 3]);
        let p = run("exists a : even(a), <n, a>! -> <picked, a>", &ds, &[]).unwrap();
        assert_eq!(p.asserts, vec![tuple![Value::atom("picked"), 2]]);
    }

    #[test]
    fn depth_zero_test_gates_everything() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("x")]);
        assert!(run("exists a : <x> : k > 5 -> skip", &ds, &[("k", 3)]).is_none());
        assert!(run("exists a : <x> : k > 5 -> skip", &ds, &[("k", 9)]).is_some());
    }

    #[test]
    fn abort_and_exit_flags() {
        let ds = Dataspace::new();
        let p = run("-> exit", &ds, &[]).unwrap();
        assert!(p.exit && !p.abort);
        let p = run("-> abort", &ds, &[]).unwrap();
        assert!(p.abort);
    }

    #[test]
    fn spawn_collects_args() {
        let mut sigs = HashMap::new();
        sigs.insert("W", 2usize);
        let txn = compile_txn(
            &parse_transaction("exists a : <job, a>! -> spawn W(a, k)").unwrap(),
            &sigs,
        )
        .unwrap();
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("job"), 7]);
        let p = evaluate(
            &txn,
            &ds,
            &env(&[("k", 1)]),
            &Builtins::new(),
            SolveLimits::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            p.spawns,
            vec![("W".to_owned(), vec![Value::Int(7), Value::Int(1)])]
        );
    }

    #[test]
    fn validate_detects_conflicts() {
        let mut ds = Dataspace::new();
        let id = ds.assert_tuple(ProcId::ENV, tuple![Value::atom("x"), 1]);
        let p = run("exists a : <x, a>! -> skip", &ds, &[]).unwrap();
        assert!(p.validate(&ds));
        ds.retract(id);
        assert!(!p.validate(&ds), "retract target gone");
        // Negation invalidated by a new tuple.
        let p2 = run("not <index, *> -> skip", &ds, &[]).unwrap();
        assert!(p2.validate(&ds));
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("index"), 1]);
        assert!(!p2.validate(&ds));
    }

    #[test]
    fn forall_validation_detects_solution_set_growth() {
        // The soundness hole: a tuple asserted concurrently between
        // evaluation and commit enlarges the forall's solution set
        // without touching any instance the evaluation read.
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 2]);
        let p = run("forall a : <v, a>! => <copy, a>, <done>", &ds, &[]).unwrap();
        assert!(p.validate(&ds));
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 99]);
        assert!(
            !p.validate(&ds),
            "concurrent assert enlarged the solution set"
        );
    }

    #[test]
    fn forall_validation_detects_vacuous_growth() {
        // Vacuous forall: zero solutions still commit the once-only
        // actions, so evidence must flow even with an empty match set.
        let mut ds = Dataspace::new();
        let p = run("forall a : <v, a> : a > 7 -> <allbig>", &ds, &[]).unwrap();
        assert_eq!(p.asserts.len(), 1);
        assert!(p.validate(&ds));
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 1]);
        assert!(!p.validate(&ds), "no longer vacuous");
    }

    #[test]
    fn forall_validation_detects_negation_retract() {
        // Retracting a tuple matched by a *negated* atom can also grow
        // the solution set — per-solution neg_checks never see it when
        // the blocked pairing produced no solution at all.
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 1]);
        let blocker = ds.assert_tuple(ProcId::ENV, tuple![Value::atom("hold"), 1]);
        let p = run("forall a : <v, a>, not <hold, a> -> <ok>", &ds, &[]).unwrap();
        assert!(p.validate(&ds));
        ds.retract(blocker);
        assert!(!p.validate(&ds), "negated match set shrank");
    }

    #[test]
    fn exists_validation_unchanged_by_unrelated_assert() {
        // exists records no forall evidence: an unrelated concurrent
        // assert must not invalidate it (no spurious retries).
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 1]);
        let p = run("exists a : <v, a>! -> <copy, a>", &ds, &[]).unwrap();
        assert!(p.forall_checks.is_empty());
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("v"), 2]);
        assert!(p.validate(&ds));
    }

    #[test]
    fn watch_set_resolves_env() {
        let txn = compile("exists a : <k, a>, not <done> => skip");
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![3, 1]);
        let w = watch(&txn, &env(&[("k", 3)]), &ds);
        // <3, a> has no functor → arity key; <done> has functor key.
        let mut change = sdl_dataspace::WatchSet::new();
        change.add_tuple(&tuple![3, 9]);
        assert!(w.intersects(&change));
        let mut done = sdl_dataspace::WatchSet::new();
        done.add_tuple(&tuple![Value::atom("done")]);
        assert!(w.intersects(&done));
        let mut unrelated = sdl_dataspace::WatchSet::new();
        unrelated.add_tuple(&tuple![Value::atom("zzz"), 1, 2]);
        assert!(!w.intersects(&unrelated));
    }

    #[test]
    fn watch_set_exact_keys_ignore_other_values() {
        // <count, k, a> with k = 7 resolved from the environment: exact
        // keys wake only on count tuples carrying 7.
        let txn = compile("exists a : <count, k, a>! => skip");
        let w = watch(&txn, &env(&[("k", 7)]), &Dataspace::new());
        let mut hit = sdl_dataspace::WatchSet::new();
        hit.add_tuple(&tuple![Value::atom("count"), 7, 1]);
        assert!(w.intersects(&hit));
        let mut miss = sdl_dataspace::WatchSet::new();
        miss.add_tuple(&tuple![Value::atom("count"), 8, 1]);
        assert!(!w.intersects(&miss), "exact key skips other values");
    }

    #[test]
    fn watch_set_negated_atoms_stay_coarse() {
        // not <lock, 7>: conservative functor subscription, so any lock
        // retraction re-examines the txn.
        let txn = compile("exists a : <job, a>, not <lock, 7> => skip");
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("job"), 1]);
        let w = watch(&txn, &env(&[]), &ds);
        let mut other_lock = sdl_dataspace::WatchSet::new();
        other_lock.add_tuple(&tuple![Value::atom("lock"), 8]);
        assert!(w.intersects(&other_lock), "neg atom keeps coarse channel");
    }

    #[test]
    fn plan_cache_counts_hits_misses_and_replans() {
        use sdl_metrics::{Counter, Metrics};
        let (m, reg) = Metrics::registry();
        let mut ds = Dataspace::new();
        ds.set_metrics(m);
        for i in 0..4 {
            ds.assert_tuple(ProcId::ENV, tuple![Value::atom("x"), i]);
        }
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("y"), 0]);
        let txn = compile("exists a : <x, a>, <y, a> -> skip");
        let e = env(&[]);
        let b = Builtins::standard();
        let run = |ds: &Dataspace| evaluate(&txn, ds, &e, &b, SolveLimits::default()).unwrap();
        run(&ds);
        assert_eq!(reg.counter(Counter::PlanCacheMiss), 1, "first plan");
        run(&ds);
        run(&ds);
        assert_eq!(reg.counter(Counter::PlanCacheHit), 2, "reused");
        assert_eq!(reg.counter(Counter::PlanReplans), 0);
        // Grow <x, _> far past the 4x+16 drift threshold: next evaluation
        // re-plans instead of trusting the stale estimates.
        for i in 0..200 {
            ds.assert_tuple(ProcId::ENV, tuple![Value::atom("x"), 100 + i]);
        }
        run(&ds);
        assert_eq!(reg.counter(Counter::PlanReplans), 1, "estimates drifted");
        assert_eq!(reg.counter(Counter::PlanCacheMiss), 1, "miss only once");
    }

    #[test]
    fn planned_and_source_order_agree() {
        // Skewed join where source order is pessimal: the planner must
        // reach the same verdict and the same committed effects.
        let mut ds = Dataspace::new();
        for i in 0..50 {
            ds.assert_tuple(ProcId::ENV, tuple![Value::atom("big"), i]);
        }
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("small"), 7]);
        let txn = compile("exists a : <big, a>!, <small, a>!, not <lock, a> -> <got, a>");
        let e = env(&[]);
        let b = Builtins::standard();
        let planned = evaluate(&txn, &ds, &e, &b, SolveLimits::default())
            .unwrap()
            .expect("join holds");
        // Source order: the same atoms through the unplanned solver.
        let atoms = resolve_atoms(&txn, &e, &b).unwrap();
        let first = Solver::new(&ds, &atoms, txn.n_vars)
            .first(&mut |_| true)
            .expect("join holds");
        let naive = build_effects(
            &txn,
            &QueryOutcome {
                solutions: vec![first],
                forall_checks: Vec::new(),
            },
            &e,
            &b,
        )
        .unwrap();
        assert_eq!(planned.asserts, naive.asserts);
        let mut pr = planned.retracts.clone();
        let mut nr = naive.retracts.clone();
        pr.sort();
        nr.sort();
        assert_eq!(pr, nr, "same instances consumed, any order");
        assert_eq!(planned.neg_checks, naive.neg_checks);
    }

    #[test]
    fn eval_error_in_action_surfaces() {
        let txn = compile("-> <x, 1/0>");
        let ds = Dataspace::new();
        let r = evaluate(
            &txn,
            &ds,
            &HashMap::new(),
            &Builtins::new(),
            SolveLimits::default(),
        );
        assert!(matches!(r, Err(RuntimeError::Eval { .. })));
    }

    #[test]
    fn window_restricts_evaluation() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("a"), 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("b"), 2]);
        let prog = sdl_lang::parse_program("process P() { import { <a, *>; } -> skip; }").unwrap();
        let compiled = crate::program::CompiledProgram::compile(&prog).unwrap();
        let view = &compiled.defs().next().unwrap().view;
        let (e, b) = (HashMap::new(), Builtins::new());
        let source = view.window(&ds, &e, &b);
        let outcome =
            |src: &str| evaluate(&compile(src), &source, &e, &b, SolveLimits::default()).unwrap();
        assert!(
            outcome("exists v : <b, v> -> skip").is_none(),
            "b is outside the window"
        );
        assert!(outcome("exists v : <a, v> -> skip").is_some());
    }

    fn watch_keys(w: &sdl_dataspace::WatchSet) -> Vec<sdl_dataspace::WatchKey> {
        w.iter().copied().collect()
    }

    #[test]
    fn selective_watch_narrows_to_empty_atom() {
        // <item, k> is populated, <ack, k> is empty: the subscription
        // narrows to ack's value key alone.
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("item"), 7]);
        let txn = compile("exists a : <item, a>!, <ack, a> => <done>");
        let narrowed = watch(&txn, &HashMap::new(), &ds);
        let keys = watch_keys(&narrowed);
        assert_eq!(keys.len(), 1, "single-atom subscription: {keys:?}");
        match &keys[0] {
            sdl_dataspace::WatchKey::Functor(f, arity) => {
                // <ack, a> has no constant argument slot, so the exact
                // subscription is the functor channel of just that atom.
                assert_eq!((f.as_str(), *arity), ("ack", 2));
            }
            other => panic!("expected ack functor key, got {other:?}"),
        }
        // An assert matching the narrowed atom publishes the key.
        let mut published = sdl_dataspace::WatchSet::new();
        published.add_tuple(&tuple![Value::atom("ack"), 7]);
        assert!(published.intersects(&narrowed), "wake must be reachable");
    }

    #[test]
    fn selective_watch_falls_back_when_all_atoms_populated() {
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("item"), 7]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("ack"), 9]);
        let txn = compile("exists a : <item, a>!, <ack, a> => <done>");
        let probed = watch(&txn, &HashMap::new(), &ds);
        let mut full = WatchSet::new();
        for a in resolve_atoms(&txn, &HashMap::new(), &Builtins::standard()).unwrap() {
            full.add_pattern_exact(&a.pattern);
        }
        assert_eq!(
            watch_keys(&probed),
            watch_keys(&full),
            "no emptiness proof: keep the full per-atom subscription"
        );
    }

    #[test]
    fn selective_watch_ignores_negations() {
        let ds = Dataspace::new();
        // The negated atom is empty but must never be chosen as the
        // narrowed subscription — only positive atoms enable a txn.
        let txn = compile("exists a : <req, a>, not <busy, a> => <go, a>");
        let w = watch(&txn, &HashMap::new(), &ds);
        let keys = watch_keys(&w);
        assert_eq!(keys.len(), 1, "{keys:?}");
        match &keys[0] {
            sdl_dataspace::WatchKey::Functor(f, _) => assert_eq!(f.as_str(), "req"),
            other => panic!("expected req functor key, got {other:?}"),
        }
    }
}
