//! The conjunctive query solver.
//!
//! SDL transactions open with a query: a quantifier, a *binding query*
//! (tuple patterns, some tagged for retraction, some negated) and a *test
//! query* (a predicate over the bound variables). The solver enumerates
//! solutions of the binding query over a [`TupleSource`] — the process
//! window — and filters them through negations and the test predicate.
//!
//! The test predicate is supplied as a callback so this crate stays
//! independent of the expression language: `sdl-lang` compiles test
//! queries down to a `FnMut(&Bindings) -> bool`.
//!
//! ## Semantics
//!
//! * Positive atoms are matched left to right, depth-first, candidates in
//!   deterministic instance-id order. With a [`QueryPlan`]
//!   (see [`Solver::with_plan`]) "left to right" means plan order:
//!   positive atoms reordered by estimated selectivity and negations
//!   checked at the earliest depth where their variables are bound. Any
//!   order enumerates the same solution multiset; the plan only changes
//!   enumeration order and work done.
//! * Two atoms tagged for **retraction** never match the same instance
//!   (retracting one instance twice is meaningless); a *read* atom may
//!   share an instance with any other atom — all atoms see the
//!   pre-transaction state.
//! * A **negated** atom succeeds iff no visible instance matches it under
//!   the current bindings; variables appearing only under negation are
//!   existential within the check and remain unbound.
//! * `exists` takes the first solution; `forall` enumerates all solutions
//!   (see [`Solver::all_staged`]) and the caller applies the paper's rule —
//!   the transaction succeeds iff every solution satisfies the test.

use std::borrow::Cow;

use sdl_metrics::Counter;
use sdl_tuple::{Bindings, Field, Pattern, TupleId, Value};

use crate::plan::QueryPlan;
use crate::store::TupleSource;

/// How an atom participates in a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomMode {
    /// Match and read (plain membership).
    Read,
    /// Match, read, and tag the matched instance for retraction
    /// (the paper's `↑`, our concrete syntax `!`).
    Retract,
    /// Require that *no* visible tuple matches (the paper's `¬`).
    Neg,
}

/// One atom of a conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAtom {
    /// The tuple pattern.
    pub pattern: Pattern,
    /// Read, retract, or negated.
    pub mode: AtomMode,
}

impl QueryAtom {
    /// A plain read atom.
    pub fn read(pattern: Pattern) -> QueryAtom {
        QueryAtom {
            pattern,
            mode: AtomMode::Read,
        }
    }

    /// A retraction-tagged atom.
    pub fn retract(pattern: Pattern) -> QueryAtom {
        QueryAtom {
            pattern,
            mode: AtomMode::Retract,
        }
    }
}

/// One solution of a query: bindings plus the evidence used to reach it.
///
/// The read/retract instance lists and the resolved negation patterns form
/// the transaction's *read set*, which the parallel-round scheduler and the
/// optimistic executor use for conflict detection and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Final variable bindings (indexed by `VarId`).
    pub bindings: Vec<Option<Value>>,
    /// Instances matched by read atoms.
    pub reads: Vec<TupleId>,
    /// Instances matched by retract-tagged atoms (pairwise distinct).
    pub retracts: Vec<TupleId>,
    /// Negated patterns, resolved under the final bindings, that were
    /// verified to have no match.
    pub neg_checks: Vec<Pattern>,
}

impl Solution {
    /// Restores this solution's bindings into a fresh environment.
    pub fn to_bindings(&self) -> Bindings {
        let mut b = Bindings::new(self.bindings.len());
        b.restore(&self.bindings);
        b
    }
}

/// Validation evidence for one atom of a `forall` query: the resolved
/// pattern (positive or negated) and the exact id set that matched it at
/// evaluation time, ascending.
///
/// A `forall` commits effects computed from its *complete* solution set,
/// so read/retract liveness alone is not enough: a concurrent assert (for
/// a positive atom) or retract (for a negated one) can enlarge the set
/// without touching any instance the evaluation saw. Ids are never
/// reused, so re-deriving the match set and comparing for equality
/// detects any drift that could alter the solution set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForallEvidence {
    /// The resolved atom pattern (environment expressions evaluated;
    /// quantified variables left free).
    pub pattern: Pattern,
    /// Ids matching `pattern` when the query was evaluated, ascending.
    pub matched: Vec<TupleId>,
}

/// Caps on query evaluation, protecting `forall`/replication enumeration
/// from combinatorial blow-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum number of solutions to enumerate.
    pub(crate) max_solutions: usize,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        SolveLimits {
            max_solutions: 1_000_000,
        }
    }
}

/// Resolves `pattern` under `bindings`: bound variables become constants.
pub fn resolve_pattern(pattern: &Pattern, bindings: &Bindings) -> Pattern {
    Pattern::new(
        pattern
            .fields()
            .iter()
            .map(|f| match f {
                Field::Var(v) => match bindings.get(*v) {
                    Some(val) => Field::Const(val.clone()),
                    None => Field::Var(*v),
                },
                other => other.clone(),
            })
            .collect(),
    )
}

/// A query solver over a [`TupleSource`].
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{Dataspace, QueryAtom, Solver};
/// use sdl_tuple::{pattern, tuple, ProcId, Value, VarId};
///
/// let mut d = Dataspace::new();
/// d.assert_tuple(ProcId::ENV, tuple![Value::atom("year"), 90]);
///
/// // ∃α: <year, α> : α > 87
/// let atoms = vec![QueryAtom::retract(pattern![Value::atom("year"), var 0])];
/// let solver = Solver::new(&d, &atoms, 1);
/// let sol = solver
///     .first(&mut |b| b.get(VarId(0)).and_then(|v| v.as_int()).is_some_and(|a| a > 87))
///     .expect("year 90 satisfies the query");
/// assert_eq!(sol.bindings[0], Some(Value::Int(90)));
/// assert_eq!(sol.retracts.len(), 1);
/// ```
pub struct Solver<'a, S: TupleSource + ?Sized> {
    source: &'a S,
    atoms: &'a [QueryAtom],
    n_vars: usize,
    positives: usize,
    plan: Option<&'a QueryPlan>,
}

/// The branch the search stands on: the bindings and the read / retract
/// / negation evidence gathered on the way down, pushed and popped in
/// place. At a leaf this *is* the solution; `emit` callbacks copy it
/// only when the search goes on.
struct Branch {
    bindings: Bindings,
    reads: Vec<TupleId>,
    retracts: Vec<TupleId>,
    neg_checks: Vec<Pattern>,
}

impl Branch {
    fn into_solution(self) -> Solution {
        Solution {
            bindings: self.bindings.into_vec(),
            reads: self.reads,
            retracts: self.retracts,
            neg_checks: self.neg_checks,
        }
    }

    fn evidence(&mut self, mode: AtomMode) -> &mut Vec<TupleId> {
        match mode {
            AtomMode::Read => &mut self.reads,
            AtomMode::Retract => &mut self.retracts,
            AtomMode::Neg => unreachable!("negated atoms are checked, not matched"),
        }
    }
}

/// Called at each leaf; returns `false` to stop the search, which then
/// unwinds without touching the branch.
type EmitFn<'e> = dyn FnMut(&Branch) -> bool + 'e;

impl<'a, S: TupleSource + ?Sized> Solver<'a, S> {
    /// Creates a solver for `atoms` with `n_vars` quantified variables,
    /// matching positive atoms in source order and checking every
    /// negation at the leaf (no plan).
    pub fn new(source: &'a S, atoms: &'a [QueryAtom], n_vars: usize) -> Solver<'a, S> {
        Solver::with_plan(source, atoms, n_vars, None)
    }

    /// Creates a solver that follows `plan` (built by
    /// [`plan_query`](crate::plan_query) over the same atom list) when
    /// `Some`; `None` behaves exactly like [`Solver::new`].
    pub fn with_plan(
        source: &'a S,
        atoms: &'a [QueryAtom],
        n_vars: usize,
        plan: Option<&'a QueryPlan>,
    ) -> Solver<'a, S> {
        let positives = atoms.iter().filter(|a| a.mode != AtomMode::Neg).count();
        if let Some(p) = plan {
            debug_assert_eq!(
                p.positive_order.len(),
                positives,
                "plan was built for a different atom list"
            );
        }
        Solver {
            source,
            atoms,
            n_vars,
            positives,
            plan,
        }
    }

    /// First solution satisfying negations and `test` (existential
    /// quantification), or `None`.
    pub fn first(&self, test: &mut dyn FnMut(&Bindings) -> bool) -> Option<Solution> {
        let positives = self.positives;
        self.first_staged(None, &mut |depth, b| depth < positives || test(b))
    }

    /// Number of positive (read/retract) atoms — the maximum `depth`
    /// passed to a staged test.
    pub fn positive_count(&self) -> usize {
        self.positives
    }

    /// Like [`Solver::first`], but with a *staged* test invoked after
    /// every positive atom match with the number of atoms matched so far
    /// (`1..=positive_count()`), letting the caller prune the join as soon
    /// as a test conjunct's variables are bound. `init` seeds variable
    /// bindings (used by view-rule condition checks).
    pub fn first_staged(
        &self,
        init: Option<&Bindings>,
        staged: &mut dyn FnMut(usize, &Bindings) -> bool,
    ) -> Option<Solution> {
        let mut branch = self.root(init);
        let mut found = false;
        self.descend(0, &mut branch, staged, &mut |_| {
            found = true;
            false // stop: the branch is left standing on the solution
        });
        found.then(|| branch.into_solution())
    }

    /// Every solution, up to `limits.max_solutions`, with the staged test
    /// of [`Solver::first_staged`].
    pub fn all_staged(
        &self,
        init: Option<&Bindings>,
        staged: &mut dyn FnMut(usize, &Bindings) -> bool,
        limits: SolveLimits,
    ) -> Vec<Solution> {
        let mut out = Vec::new();
        self.descend(0, &mut self.root(init), staged, &mut |b| {
            out.push(Solution {
                bindings: b.bindings.to_vec(),
                reads: b.reads.clone(),
                retracts: b.retracts.clone(),
                neg_checks: b.neg_checks.clone(),
            });
            out.len() < limits.max_solutions
        });
        out
    }

    fn root(&self, init: Option<&Bindings>) -> Branch {
        Branch {
            bindings: init.map_or_else(|| Bindings::new(self.n_vars), Bindings::clone),
            reads: Vec::new(),
            retracts: Vec::new(),
            neg_checks: Vec::new(),
        }
    }

    /// The positive atom matched at `depth`: plan order, or source order
    /// without a plan.
    fn positive(&self, depth: usize) -> &'a QueryAtom {
        match self.plan {
            Some(plan) => &self.atoms[plan.positive_order[depth]],
            None => self
                .atoms
                .iter()
                .filter(|a| a.mode != AtomMode::Neg)
                .nth(depth)
                .expect("depth is below the positive count"),
        }
    }

    /// The negated atoms checked once `depth` positive atoms have
    /// matched: the plan's schedule, or all of them at the leaf.
    fn negs_at(&self, depth: usize) -> impl Iterator<Item = &'a QueryAtom> {
        let atoms = self.atoms;
        let planned = self.plan.map(|p| p.neg_at_depth[depth].iter());
        let at_leaf = (self.plan.is_none() && depth == self.positives)
            .then(|| atoms.iter().filter(|a| a.mode == AtomMode::Neg));
        planned
            .into_iter()
            .flatten()
            .map(move |&i| &atoms[i])
            .chain(at_leaf.into_iter().flatten())
    }

    /// One level of the depth-first search; returns `false` once `emit`
    /// has stopped it.
    fn descend(
        &self,
        depth: usize,
        branch: &mut Branch,
        staged: &mut dyn FnMut(usize, &Bindings) -> bool,
        emit: &mut EmitFn<'_>,
    ) -> bool {
        // Negations scheduled at this depth have every boundable variable
        // bound, so the resolved pattern is final: check now and kill the
        // branch before the remaining join is enumerated.
        let neg_base = branch.neg_checks.len();
        for neg in self.negs_at(depth) {
            let resolved = resolve_pattern(&neg.pattern, &branch.bindings);
            if self.source.contains_match(&resolved) {
                branch.neg_checks.truncate(neg_base);
                return true; // this branch fails; keep searching
            }
            branch.neg_checks.push(resolved);
        }

        let keep_going = if depth < self.positives {
            self.match_atom(depth, branch, staged, emit)
        } else if depth == 0 && !staged(0, &branch.bindings) {
            true // no positive atoms: the staged test has its only run here
        } else {
            emit(branch)
        };
        if keep_going {
            branch.neg_checks.truncate(neg_base);
        }
        keep_going
    }

    /// The candidate walk for the positive atom at `depth`: candidates
    /// stream out of the source, so a search that stops at its first
    /// solution has looked at the tuples it used and no further.
    fn match_atom(
        &self,
        depth: usize,
        branch: &mut Branch,
        staged: &mut dyn FnMut(usize, &Bindings) -> bool,
        emit: &mut EmitFn<'_>,
    ) -> bool {
        let atom = self.positive(depth);
        // The pattern as written serves when none of its variables is
        // bound yet — every atom of a join on constants alone.
        let bound = |v| branch.bindings.is_bound(v);
        let resolved = if atom.pattern.vars().any(bound) {
            Cow::Owned(resolve_pattern(&atom.pattern, &branch.bindings))
        } else {
            Cow::Borrowed(&atom.pattern)
        };
        let metrics = self.source.metrics();
        let mut keep_going = true;
        self.source.visit_candidates(&resolved, &mut |id, tuple| {
            metrics.inc(Counter::MatchCandidates);
            if atom.mode == AtomMode::Retract && branch.retracts.contains(&id) {
                return true; // retract atoms take pairwise-distinct instances
            }
            let mark = branch.bindings.mark();
            if !atom.pattern.matches(tuple, &mut branch.bindings) {
                return true;
            }
            if staged(depth + 1, &branch.bindings) {
                branch.evidence(atom.mode).push(id);
                keep_going = self.descend(depth + 1, branch, staged, emit);
                if !keep_going {
                    metrics.inc(Counter::SolverBacktracks);
                    return false;
                }
                branch.evidence(atom.mode).pop();
            }
            branch.bindings.undo_to(mark);
            metrics.inc(Counter::SolverBacktracks);
            true
        });
        keep_going
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Dataspace;
    use sdl_tuple::{pattern, tuple, ProcId, VarId};

    fn a(s: &str) -> Value {
        Value::atom(s)
    }

    fn setup_years() -> Dataspace {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![a("year"), 85]);
        d.assert_tuple(ProcId::ENV, tuple![a("year"), 90]);
        d.assert_tuple(ProcId::ENV, tuple![a("year"), 95]);
        d
    }

    #[test]
    fn exists_with_test() {
        let d = setup_years();
        // ∃α: <year, α>↑ : α > 87
        let atoms = vec![QueryAtom::retract(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        let sol = solver
            .first(&mut |b| b.get(VarId(0)).unwrap().as_int().unwrap() > 87)
            .unwrap();
        let bound = sol.bindings[0].as_ref().unwrap().as_int().unwrap();
        assert!(bound > 87);
        assert_eq!(sol.retracts.len(), 1);
        assert!(sol.reads.is_empty());
    }

    #[test]
    fn exists_failure() {
        let d = setup_years();
        let atoms = vec![QueryAtom::read(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        assert!(solver
            .first(&mut |b| b.get(VarId(0)).unwrap().as_int().unwrap() > 100)
            .is_none());
    }

    #[test]
    fn all_solutions() {
        let d = setup_years();
        let atoms = vec![QueryAtom::read(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        assert_eq!(sols.len(), 3);
        // Deterministic order: instance id order = assertion order.
        assert_eq!(sols[0].bindings[0], Some(Value::Int(85)));
        assert_eq!(sols[2].bindings[0], Some(Value::Int(95)));
    }

    #[test]
    fn max_solutions_cap() {
        let d = setup_years();
        let atoms = vec![QueryAtom::read(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits { max_solutions: 2 });
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn join_across_atoms() {
        // Sum3 shape: ∃ν,α,μ,β: <ν,α>↑, <μ,β>↑ : ν ≠ μ
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![1, 10]);
        d.assert_tuple(ProcId::ENV, tuple![2, 20]);
        let atoms = vec![
            QueryAtom::retract(pattern![var 0, var 1]),
            QueryAtom::retract(pattern![var 2, var 3]),
        ];
        let solver = Solver::new(&d, &atoms, 4);
        let sol = solver
            .first(&mut |b| b.get(VarId(0)) != b.get(VarId(2)))
            .unwrap();
        assert_eq!(sol.retracts.len(), 2);
        assert_ne!(sol.retracts[0], sol.retracts[1]);
    }

    #[test]
    fn retract_atoms_take_distinct_instances() {
        // Only one tuple: <α>↑, <β>↑ has no solution even though both
        // patterns individually match the single instance.
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![5]);
        let atoms = vec![
            QueryAtom::retract(pattern![var 0]),
            QueryAtom::retract(pattern![var 1]),
        ];
        let solver = Solver::new(&d, &atoms, 2);
        assert!(solver.first(&mut |_| true).is_none());
    }

    #[test]
    fn read_atoms_may_share_an_instance() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![5]);
        let atoms = vec![
            QueryAtom::read(pattern![var 0]),
            QueryAtom::read(pattern![var 1]),
        ];
        let solver = Solver::new(&d, &atoms, 2);
        let sol = solver.first(&mut |_| true).unwrap();
        assert_eq!(sol.reads.len(), 2);
        assert_eq!(sol.reads[0], sol.reads[1]);
    }

    #[test]
    fn read_and_retract_may_share() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![5]);
        let atoms = vec![
            QueryAtom::read(pattern![var 0]),
            QueryAtom::retract(pattern![var 1]),
        ];
        let solver = Solver::new(&d, &atoms, 2);
        assert!(solver.first(&mut |_| true).is_some());
    }

    #[test]
    fn negation_blocks_solution() {
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![a("index"), 1]);
        // ¬<index, *> fails while an index tuple exists.
        let atoms = vec![QueryAtom {
            pattern: pattern![a("index"), any],
            mode: AtomMode::Neg,
        }];
        let solver = Solver::new(&d, &atoms, 0);
        assert!(solver.first(&mut |_| true).is_none());
        // Retract it; now the negation holds (empty positive part yields
        // one empty solution).
        let id = d.find_all(&pattern![a("index"), any])[0];
        d.retract(id);
        let solver = Solver::new(&d, &atoms, 0);
        let sol = solver.first(&mut |_| true).unwrap();
        assert_eq!(sol.neg_checks.len(), 1);
    }

    #[test]
    fn negation_sees_current_bindings() {
        // ∃α: <val, α>, ¬<done, α> — only val 2 lacks a done marker.
        let mut d = Dataspace::new();
        d.assert_tuple(ProcId::ENV, tuple![a("val"), 1]);
        d.assert_tuple(ProcId::ENV, tuple![a("val"), 2]);
        d.assert_tuple(ProcId::ENV, tuple![a("done"), 1]);
        let atoms = vec![
            QueryAtom::read(pattern![a("val"), var 0]),
            QueryAtom {
                pattern: pattern![a("done"), var 0],
                mode: AtomMode::Neg,
            },
        ];
        let solver = Solver::new(&d, &atoms, 1);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].bindings[0], Some(Value::Int(2)));
    }

    #[test]
    fn empty_query_has_one_solution() {
        let d = Dataspace::new();
        let atoms: Vec<QueryAtom> = Vec::new();
        let solver = Solver::new(&d, &atoms, 0);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        assert_eq!(sols.len(), 1);
        assert!(sols[0].reads.is_empty());
    }

    #[test]
    fn test_only_query() {
        let d = Dataspace::new();
        let atoms: Vec<QueryAtom> = Vec::new();
        let solver = Solver::new(&d, &atoms, 0);
        assert!(solver.first(&mut |_| false).is_none());
        assert!(solver.first(&mut |_| true).is_some());
    }

    #[test]
    fn solution_to_bindings_roundtrip() {
        let d = setup_years();
        let atoms = vec![QueryAtom::read(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        let sol = solver.first(&mut |_| true).unwrap();
        let b = sol.to_bindings();
        assert_eq!(b.get(VarId(0)), sol.bindings[0].as_ref());
    }

    #[test]
    fn resolve_pattern_substitutes_bound_vars() {
        let mut b = Bindings::new(2);
        b.bind(VarId(0), Value::Int(7));
        let p = pattern![var 0, var 1, any];
        let r = resolve_pattern(&p, &b);
        assert_eq!(r.fields()[0], Field::Const(Value::Int(7)));
        assert_eq!(r.fields()[1], Field::Var(VarId(1)));
        assert_eq!(r.fields()[2], Field::Any);
    }

    #[test]
    fn solver_records_match_metrics() {
        use sdl_metrics::Metrics;
        let (m, reg) = Metrics::registry();
        let mut d = setup_years();
        d.set_metrics(m);
        let atoms = vec![QueryAtom::read(pattern![a("year"), var 0])];
        let solver = Solver::new(&d, &atoms, 1);
        let sols = solver.all_staged(None, &mut |_, _| true, SolveLimits::default());
        assert_eq!(sols.len(), 3);
        assert!(reg.counter(Counter::MatchCandidates) >= 3);
        assert!(reg.counter(Counter::SolverBacktracks) >= 3);
    }
}
