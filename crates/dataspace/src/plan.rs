//! Query planning: selectivity-driven join ordering.
//!
//! The solver's default strategy matches positive atoms left to right in
//! source order, which makes the programmer responsible for writing the
//! most selective atom first. The paper expects multi-tuple transactions
//! to "examine a small number of tuples", so a bad atom order turns an
//! O(1) point lookup into a scan of the largest relation on every
//! attempt — including every wakeup retry of a blocked transaction.
//!
//! [`plan_query`] compiles a [`QueryPlan`] for a resolved atom list:
//!
//! * **Positive atoms** are greedily ordered by estimated selectivity:
//!   index-cardinality probes ([`TupleSource::estimate_candidates`])
//!   discounted for fields that earlier atoms in the plan will have
//!   bound (bound-variable propagation — a bound variable in an indexed
//!   position becomes a point lookup at runtime).
//! * **Negated atoms** are scheduled at the earliest depth where all
//!   their boundable variables are bound, so a doomed branch dies before
//!   the remaining join is enumerated. Variables appearing only under
//!   negation are existential and never delay the check.
//!
//! A plan is *always semantically valid* — any permutation of positive
//! atoms enumerates the same solution multiset (retract distinctness and
//! read sharing are order-independent) — so stale selectivity estimates
//! can cost time but never correctness. Plan choice is deterministic:
//! ties break toward source order.

use sdl_tuple::{Field, VarId};

use crate::solve::{AtomMode, QueryAtom};
use crate::store::TupleSource;

/// A compiled execution order for one conjunctive query.
///
/// Indices refer to positions in the atom slice the plan was built from;
/// the plan is only meaningful against an atom list with the same
/// modes/arities (in practice: the same compiled statement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// Positive (read/retract) atom indices in execution order.
    pub(crate) positive_order: Vec<usize>,
    /// For each plan depth `0..=positive_order.len()`, the negated atom
    /// indices checked once that many positive atoms have matched.
    pub(crate) neg_at_depth: Vec<Vec<usize>>,
    /// For each variable, the 1-based plan depth at which a positive atom
    /// first binds it (`None` if no positive atom binds it).
    pub(crate) bind_depth: Vec<Option<usize>>,
    /// The per-positive-atom candidate estimates the plan was built from,
    /// in *source* order — the drift baseline for plan caching.
    pub estimates: Vec<u64>,
}

impl QueryPlan {
    /// Number of positive atoms in the plan.
    pub fn positive_count(&self) -> usize {
        self.positive_order.len()
    }

    /// The plan depth at which every variable in `vars` is bound:
    /// `Some(0)` for an empty set, `None` if some variable is never bound
    /// by a positive atom. Used to re-schedule tests against the plan
    /// order.
    pub fn depth_for_vars<I: IntoIterator<Item = VarId>>(&self, vars: I) -> Option<usize> {
        let mut depth = 0usize;
        for v in vars {
            match self.bind_depth.get(v.0 as usize).copied().flatten() {
                Some(d) => depth = depth.max(d),
                None => return None,
            }
        }
        Some(depth)
    }
}

/// How strongly a bound variable in a pattern field discounts the static
/// index estimate. A bound variable usually turns a candidate-list scan
/// into (or towards) a point lookup, so the discount is aggressive; it
/// only has to *rank* atoms, not predict cardinalities.
const BOUND_FIELD_DISCOUNT: u64 = 8;

/// Estimated candidates for `atom` given the set of already-bound vars.
fn score(atom: &QueryAtom, bound: &[bool], source: &dyn TupleSource) -> u64 {
    let base = source.estimate_candidates(&atom.pattern) as u64;
    let bound_fields = atom
        .pattern
        .fields()
        .iter()
        .filter(|f| matches!(f, Field::Var(v) if bound.get(v.0 as usize).copied().unwrap_or(false)))
        .count() as u64;
    // Integer division is fine: score 0 means "at most a handful", and
    // ties break toward source order anyway.
    base / (1 + (BOUND_FIELD_DISCOUNT - 1) * bound_fields.min(2))
}

/// Builds a [`QueryPlan`] for `atoms` over `source`.
///
/// Greedy ordering: repeatedly pick the un-placed positive atom with the
/// smallest estimated candidate count (static index probe, discounted
/// for variables bound by atoms already placed), breaking ties toward
/// source order. Negations are scheduled at the earliest depth where all
/// their boundable variables are bound.
///
/// # Examples
///
/// ```
/// use sdl_dataspace::{plan_query, Dataspace, QueryAtom};
/// use sdl_tuple::{pattern, tuple, ProcId, Value, VarId};
///
/// let mut d = Dataspace::new();
/// for i in 0..100 {
///     d.assert_tuple(ProcId::ENV, tuple![Value::atom("big"), i]);
/// }
/// d.assert_tuple(ProcId::ENV, tuple![Value::atom("small"), 99]);
///
/// // Source order scans <big, α> first; the plan starts from <small, β>,
/// // so β is bound after one atom, not two.
/// let atoms = vec![
///     QueryAtom::read(pattern![Value::atom("big"), var 0]),
///     QueryAtom::read(pattern![Value::atom("small"), var 1]),
/// ];
/// let plan = plan_query(&atoms, 2, &d);
/// assert_eq!(plan.estimates, vec![100, 1]);
/// assert_eq!(plan.depth_for_vars([VarId(1)]), Some(1));
/// ```
pub fn plan_query(atoms: &[QueryAtom], n_vars: usize, source: &dyn TupleSource) -> QueryPlan {
    let positives: Vec<usize> = (0..atoms.len())
        .filter(|&i| atoms[i].mode != AtomMode::Neg)
        .collect();
    let estimates: Vec<u64> = positives
        .iter()
        .map(|&i| source.estimate_candidates(&atoms[i].pattern) as u64)
        .collect();

    let mut bound = vec![false; n_vars];
    let mut bind_depth: Vec<Option<usize>> = vec![None; n_vars];
    let mut remaining = positives;
    let mut positive_order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| score(&atoms[i], &bound, source))
            .map(|(slot, _)| slot)
            .expect("remaining is non-empty");
        let atom_idx = remaining.remove(best);
        positive_order.push(atom_idx);
        let depth = positive_order.len();
        for v in atoms[atom_idx].pattern.vars() {
            let slot = v.0 as usize;
            if slot < n_vars && !bound[slot] {
                bound[slot] = true;
                bind_depth[slot] = Some(depth);
            }
        }
    }

    let mut neg_at_depth = vec![Vec::new(); positive_order.len() + 1];
    for (i, atom) in atoms.iter().enumerate() {
        if atom.mode != AtomMode::Neg {
            continue;
        }
        // Earliest depth where every *boundable* variable is bound;
        // purely-existential variables don't delay the check.
        let depth = atom
            .pattern
            .vars()
            .filter_map(|v| bind_depth.get(v.0 as usize).copied().flatten())
            .max()
            .unwrap_or(0);
        neg_at_depth[depth].push(i);
    }

    QueryPlan {
        positive_order,
        neg_at_depth,
        bind_depth,
        estimates,
    }
}

/// Current per-positive-atom candidate estimates, source order — compared
/// against [`QueryPlan::estimates`] to decide whether a cached plan has
/// drifted.
pub fn estimate_positives(atoms: &[QueryAtom], source: &dyn TupleSource) -> Vec<u64> {
    atoms
        .iter()
        .filter(|a| a.mode != AtomMode::Neg)
        .map(|a| source.estimate_candidates(&a.pattern) as u64)
        .collect()
}

/// True if the live estimates have moved far enough from the plan's
/// baseline that re-ordering is worth the (cheap) replan: any atom off by
/// more than `4×` with an absolute slack of 16 candidates. The slack
/// keeps tiny stores from thrashing the cache.
pub fn estimates_drifted(baseline: &[u64], current: &[u64]) -> bool {
    if baseline.len() != current.len() {
        return true;
    }
    baseline.iter().zip(current).any(|(&old, &new)| {
        new > old.saturating_mul(4).saturating_add(16) || old > new.saturating_mul(4) + 16
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Dataspace;
    use sdl_tuple::{pattern, tuple, ProcId, Value};

    fn a(s: &str) -> Value {
        Value::atom(s)
    }

    fn skewed() -> Dataspace {
        let mut d = Dataspace::new();
        for i in 0..200 {
            d.assert_tuple(ProcId::ENV, tuple![a("big"), i]);
        }
        for i in 0..3 {
            d.assert_tuple(ProcId::ENV, tuple![a("small"), i]);
        }
        d
    }

    #[test]
    fn selective_atom_moves_first() {
        let d = skewed();
        let atoms = vec![
            QueryAtom::read(pattern![a("big"), var 0]),
            QueryAtom::retract(pattern![a("small"), var 0]),
        ];
        let plan = plan_query(&atoms, 1, &d);
        assert_eq!(plan.positive_order, vec![1, 0]);
        assert_eq!(plan.bind_depth[0], Some(1), "α bound by <small, α> first");
        assert_eq!(plan.estimates, vec![200, 3]);
    }

    #[test]
    fn ties_break_toward_source_order() {
        let mut d = Dataspace::new();
        for i in 0..5 {
            d.assert_tuple(ProcId::ENV, tuple![a("x"), i]);
            d.assert_tuple(ProcId::ENV, tuple![a("y"), i]);
        }
        let atoms = vec![
            QueryAtom::read(pattern![a("x"), var 0]),
            QueryAtom::read(pattern![a("y"), var 1]),
        ];
        let plan = plan_query(&atoms, 2, &d);
        assert_eq!(plan.positive_order, vec![0, 1]);
    }

    #[test]
    fn bound_variable_discount_propagates() {
        // <big, α> is huge statically, but once <small, α> binds α it is
        // an arg1 point lookup — the discount must still rank it after
        // the genuinely small atom.
        let d = skewed();
        let atoms = vec![
            QueryAtom::read(pattern![a("big"), var 0]),
            QueryAtom::read(pattern![a("small"), var 1]),
            QueryAtom::read(pattern![a("big"), var 1]),
        ];
        let plan = plan_query(&atoms, 2, &d);
        assert_eq!(plan.positive_order[0], 1, "small first");
        assert_eq!(
            plan.positive_order[1], 2,
            "bound-α big atom beats unbound-α big atom"
        );
    }

    #[test]
    fn negation_scheduled_at_earliest_bound_depth() {
        let d = skewed();
        let atoms = vec![
            QueryAtom::read(pattern![a("big"), var 0]),
            QueryAtom {
                pattern: pattern![a("done"), var 0],
                mode: AtomMode::Neg,
            },
            QueryAtom {
                pattern: pattern![a("halt")],
                mode: AtomMode::Neg,
            },
        ];
        let plan = plan_query(&atoms, 1, &d);
        // <halt> has no variables: checked before any match. <done, α>
        // waits for α at depth 1.
        assert_eq!(plan.neg_at_depth[0], vec![2]);
        assert_eq!(plan.neg_at_depth[1], vec![1]);
    }

    #[test]
    fn existential_negation_vars_do_not_delay() {
        let d = skewed();
        let atoms = vec![
            QueryAtom::read(pattern![a("big"), var 0]),
            QueryAtom {
                pattern: pattern![a("lock"), var 1],
                mode: AtomMode::Neg,
            },
        ];
        let plan = plan_query(&atoms, 2, &d);
        assert_eq!(plan.neg_at_depth[0], vec![1], "β is existential");
    }

    #[test]
    fn depth_for_vars_follows_plan_order() {
        let d = skewed();
        let atoms = vec![
            QueryAtom::read(pattern![a("big"), var 0]),
            QueryAtom::read(pattern![a("small"), var 1]),
        ];
        let plan = plan_query(&atoms, 3, &d);
        // Plan puts <small, β> first: β at depth 1, α at depth 2.
        assert_eq!(plan.depth_for_vars([sdl_tuple::VarId(1)]), Some(1));
        assert_eq!(plan.depth_for_vars([sdl_tuple::VarId(0)]), Some(2));
        assert_eq!(
            plan.depth_for_vars([sdl_tuple::VarId(0), sdl_tuple::VarId(1)]),
            Some(2)
        );
        assert_eq!(plan.depth_for_vars([]), Some(0));
        assert_eq!(plan.depth_for_vars([sdl_tuple::VarId(2)]), None, "unbound");
    }

    #[test]
    fn empty_query_plans() {
        let d = Dataspace::new();
        let plan = plan_query(&[], 0, &d);
        assert!(plan.positive_order.is_empty());
        assert_eq!(plan.neg_at_depth.len(), 1);
    }

    #[test]
    fn drift_detection() {
        assert!(!estimates_drifted(&[100, 3], &[100, 3]));
        assert!(!estimates_drifted(&[100, 3], &[250, 10]), "within 4x+16");
        assert!(estimates_drifted(&[100, 3], &[5000, 3]), "atom 0 grew");
        assert!(estimates_drifted(&[5000, 3], &[100, 3]), "atom 0 shrank");
        assert!(estimates_drifted(&[100], &[100, 3]), "shape change");
        assert!(
            !estimates_drifted(&[0, 0], &[10, 0]),
            "slack on tiny stores"
        );
    }
}
