//! Views: import/export rule evaluation, windows, and query sources.
//!
//! A view "allows processes to interrogate the dataspace at a level of
//! abstraction convenient for the task they are pursuing". Operationally
//! (paper §2.1):
//!
//! ```text
//! W        = Import(p) ∩ D          -- window, computed at txn start
//! (Wr, Wa) = q(W)                   -- retraction/assertion windows
//! D'       = (D − Wr) ∪ (Export(p) ∩ Wa)
//! ```
//!
//! Import rules may be conditional on the current dataspace (the `Label`
//! process of §3.3 imports the label tuples of 4-connected, same-threshold
//! neighbours), so membership checks may themselves run small queries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdl_dataspace::{Dataspace, QueryAtom, Solver, TupleSource, Window};
use sdl_lang::ast::Expr;
use sdl_lang::expr::{eval, EvalContext};
use sdl_metrics::{Counter, Hist, Metrics};
use sdl_tuple::{Bindings, Field, Pattern, Tuple, TupleId, Value, VarId};

use crate::builtins::Builtins;
use crate::error::RuntimeError;

/// A compiled pattern field.
#[derive(Clone, Debug)]
pub enum CompiledField {
    /// Wildcard.
    Any,
    /// A quantified/rule variable.
    Var(VarId),
    /// An expression over process constants and built-ins only.
    Env(Expr),
}

/// A compiled view-rule condition.
#[derive(Clone, Debug)]
pub enum CompiledCond {
    /// A tuple matching these fields must exist in the dataspace.
    Tuple(Vec<CompiledField>),
    /// A built-in predicate must hold.
    Pred {
        /// Predicate name.
        name: String,
        /// Argument expressions (over rule variables and constants).
        args: Vec<Expr>,
    },
}

/// A compiled import/export rule.
#[derive(Clone, Debug)]
pub struct CompiledViewRule {
    /// Rule-local variable count.
    pub n_vars: usize,
    /// Rule-local variable names, indexed by `VarId`.
    pub var_names: Vec<String>,
    /// The covered tuple shape.
    pub pattern: Vec<CompiledField>,
    /// Conditions over the current dataspace.
    pub conditions: Vec<CompiledCond>,
}

/// A tiny per-view cardinality sketch: admission checks and admissions
/// observed on the lazy-window path, so the query planner's estimates
/// reflect how selective the import filter actually is instead of using
/// the raw store count as an upper bound forever.
///
/// Shared (via `Arc`) between every clone of the view, so the process
/// definition accumulates evidence across all its instances.
#[derive(Debug, Default)]
pub struct ViewStats {
    checks: AtomicU64,
    admits: AtomicU64,
}

impl ViewStats {
    fn record(&self, admitted: bool) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if admitted {
            self.admits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Admission checks observed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Admissions observed so far.
    pub fn admits(&self) -> u64 {
        self.admits.load(Ordering::Relaxed)
    }

    /// Scales a raw store estimate by the observed admit rate. Cold
    /// sketches pass the raw estimate through; warm ones apply the
    /// Laplace-smoothed rate `(admits + 1) / (checks + 2)`, floored at 1
    /// so a matching pattern is never estimated as empty.
    pub fn scale(&self, raw: usize) -> usize {
        let checks = self.checks();
        if raw == 0 || checks == 0 {
            return raw;
        }
        let admits = self.admits();
        let scaled = (raw as u128 * (admits as u128 + 1)) / (checks as u128 + 2);
        (scaled as usize).max(1)
    }
}

/// A compiled view.
#[derive(Clone, Debug, Default)]
pub struct CompiledView {
    import: Option<Arc<[CompiledViewRule]>>,
    export: Option<Arc<[CompiledViewRule]>>,
    stats: Arc<ViewStats>,
}

/// Evaluation context over a process environment, the bindings of the
/// query's variables (empty outside a query), and the built-in registry.
pub(crate) struct EnvCtx<'a> {
    /// Process constants (parameters and `let`s).
    pub env: &'a HashMap<String, Value>,
    /// Bindings of the quantified variables, indexed by `VarId`.
    pub vars: &'a [Option<Value>],
    /// Host functions.
    pub builtins: &'a Builtins,
}

impl EvalContext for EnvCtx<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.env.get(name).cloned()
    }

    fn var(&self, v: VarId) -> Option<Value> {
        self.vars.get(v.0 as usize)?.clone()
    }

    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        self.builtins.call(name, args)
    }
}

/// Resolves compiled fields into a runtime [`Pattern`], evaluating
/// environment expressions.
pub(crate) fn resolve_fields(
    fields: &[CompiledField],
    ctx: &EnvCtx<'_>,
    what: &str,
) -> Result<Pattern, RuntimeError> {
    let mut out = Vec::with_capacity(fields.len());
    for f in fields {
        out.push(match f {
            CompiledField::Any => Field::Any,
            CompiledField::Var(v) => Field::Var(*v),
            CompiledField::Env(e) => {
                Field::Const(eval(e, ctx).map_err(|source| RuntimeError::Eval {
                    source,
                    context: what.to_owned(),
                })?)
            }
        });
    }
    Ok(Pattern::new(out))
}

impl CompiledView {
    /// Assembles a view from compiled rule sets (`None` = unrestricted).
    pub fn new(
        import: Option<Vec<CompiledViewRule>>,
        export: Option<Vec<CompiledViewRule>>,
    ) -> CompiledView {
        CompiledView {
            import: import.map(Arc::from),
            export: export.map(Arc::from),
            stats: Arc::default(),
        }
    }

    /// The view's lazy-window cardinality sketch.
    pub fn stats(&self) -> &ViewStats {
        &self.stats
    }

    /// True if both directions are unrestricted.
    pub fn is_full(&self) -> bool {
        self.import.is_none() && self.export.is_none()
    }

    /// True if the import side is unrestricted.
    pub fn imports_everything(&self) -> bool {
        self.import.is_none()
    }

    /// True if the export side is unrestricted (no assert is ever dropped).
    pub fn exports_everything(&self) -> bool {
        self.export.is_none()
    }

    /// The import rules as they read under `env` (`None` = unrestricted).
    pub fn resolve_import(
        &self,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Option<ResolvedRules> {
        let rules = self.import.as_ref()?;
        Some(ResolvedRules::new(rules, env, builtins))
    }

    /// Computes the window `W = Import(p) ∩ D` for a transaction.
    ///
    /// The window is *lazy*: rather than materialising the imported
    /// instances (the paper's conceptual model), the returned source
    /// filters candidates through the import test on demand. Over an
    /// unchanging dataspace — which is exactly a transaction's evaluation
    /// context — the two are observationally identical, and laziness
    /// keeps "transaction types that might be expensive … comfortable
    /// when the number of tuples they examine is small". The rules'
    /// environment expressions are evaluated here, once per window.
    ///
    /// # Errors
    ///
    /// Never, today: a rule whose environment expression cannot evaluate
    /// admits nothing (see [`ResolvedRules`]).
    pub fn window<'a>(
        &'a self,
        ds: &'a dyn TupleSource,
        env: &'a HashMap<String, Value>,
        builtins: &'a Builtins,
    ) -> Result<QuerySource<'a>, RuntimeError> {
        let metrics = ds.metrics();
        metrics.inc(Counter::WindowsBuilt);
        let Some(rules) = self.resolve_import(env, builtins) else {
            // A full window's size is just the store size; lazy windows
            // are deliberately not counted (materialising them would
            // defeat their purpose) — their cost shows up as
            // `WindowAdmitChecks` instead.
            metrics.observe(Hist::WindowSize, ds.tuple_count() as f64);
            return Ok(QuerySource::Full(ds));
        };
        Ok(QuerySource::Lazy {
            ds,
            view: self,
            rules,
            env,
            builtins,
        })
    }

    /// Materialises the window `W = Import(p) ∩ D` as a [`Window`]
    /// snapshot (used by tests and tooling; transactions use the lazy
    /// [`CompiledView::window`]).
    ///
    /// # Errors
    ///
    /// As for [`CompiledView::window`].
    pub fn materialize_window(
        &self,
        ds: &Dataspace,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Result<Window, RuntimeError> {
        let mut w = Window::new();
        for id in self.import_ids(ds, env, builtins)? {
            if let Some(t) = ds.tuple(id) {
                w.insert(id, t.clone());
            }
        }
        let metrics = ds.metrics();
        metrics.inc(Counter::WindowsBuilt);
        metrics.observe(Hist::WindowSize, w.len() as f64);
        Ok(w)
    }

    /// The instance ids currently in the import set, ascending (the
    /// empty-vec shortcut is *not* taken for full views — call
    /// [`CompiledView::imports_everything`] first; this method
    /// materialises).
    ///
    /// # Errors
    ///
    /// As for [`CompiledView::window`].
    pub fn import_ids(
        &self,
        ds: &Dataspace,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Result<Vec<TupleId>, RuntimeError> {
        Ok(match self.resolve_import(env, builtins) {
            None => ds.iter().map(|(id, _)| id).collect(),
            Some(rules) => rules.import_ids(ds, env, builtins),
        })
    }

    /// True if `tuple` is in the import set.
    pub fn imports<S: TupleSource + ?Sized>(
        &self,
        tuple: &Tuple,
        ds: &S,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        Self::side_admits(&self.import, tuple, ds, env, builtins)
    }

    /// True if `tuple` is in the export set (assertions outside it are
    /// silently dropped per the paper's update formula).
    pub fn exports<S: TupleSource + ?Sized>(
        &self,
        tuple: &Tuple,
        ds: &S,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        Self::side_admits(&self.export, tuple, ds, env, builtins)
    }

    fn side_admits<S: TupleSource + ?Sized>(
        side: &Option<Arc<[CompiledViewRule]>>,
        tuple: &Tuple,
        ds: &S,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        side.as_ref().is_none_or(|rules| {
            ResolvedRules::new(rules, env, builtins).admits(tuple, ds, env, builtins)
        })
    }
}

/// One rule with its environment expressions evaluated.
#[derive(Clone, Debug)]
struct ResolvedRule {
    /// Position in the rule list.
    rule: usize,
    pattern: Pattern,
    /// The tuple conditions, in source order.
    conds: Vec<Pattern>,
}

/// A view's import or export rules as they read for one process: every
/// environment expression evaluated under its constants, rule variables
/// left free. Built once per window by [`CompiledView::window`] and kept
/// per process by the consensus community index, so a membership test is
/// pattern matches and condition lookups only.
///
/// A rule whose pattern or tuple condition does not evaluate is left
/// out: it admits nothing, for the lazy test ([`ResolvedRules::admits`])
/// and the materialised set ([`ResolvedRules::import_ids`]) alike.
#[derive(Clone, Debug)]
pub struct ResolvedRules {
    rules: Arc<[CompiledViewRule]>,
    resolved: Vec<ResolvedRule>,
}

impl ResolvedRules {
    fn new(
        rules: &Arc<[CompiledViewRule]>,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> ResolvedRules {
        let ctx = EnvCtx {
            env,
            vars: &[],
            builtins,
        };
        let resolve = |i: usize, rule: &CompiledViewRule| {
            let pattern = resolve_fields(&rule.pattern, &ctx, "view rule pattern").ok()?;
            let mut conds = Vec::new();
            for c in &rule.conditions {
                if let CompiledCond::Tuple(fields) = c {
                    conds.push(resolve_fields(fields, &ctx, "view rule condition").ok()?);
                }
            }
            Some(ResolvedRule {
                rule: i,
                pattern,
                conds,
            })
        };
        ResolvedRules {
            rules: rules.clone(),
            resolved: rules
                .iter()
                .enumerate()
                .filter_map(|(i, rule)| resolve(i, rule))
                .collect(),
        }
    }

    /// True if some rule covers `tuple` and that rule's conditions hold
    /// in `ds`.
    pub(crate) fn admits<S: TupleSource + ?Sized>(
        &self,
        tuple: &Tuple,
        ds: &S,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        self.resolved
            .iter()
            .any(|r| self.rule_admits(r, tuple, ds, env, builtins))
    }

    /// True if `tuple` matches a tuple condition of some rule, i.e. its
    /// assertion or retraction can change which *other* tuples the rules
    /// admit.
    pub(crate) fn condition_covers(&self, tuple: &Tuple) -> bool {
        self.resolved.iter().any(|r| {
            r.conds.iter().any(|c| {
                may_match(c, tuple)
                    && c.matches(tuple, &mut Bindings::new(self.rules[r.rule].n_vars))
            })
        })
    }

    /// The ids of the instances in `ds` the rules admit, ascending.
    pub(crate) fn import_ids(
        &self,
        ds: &Dataspace,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Vec<TupleId> {
        let mut seen = std::collections::BTreeSet::new();
        for r in &self.resolved {
            let rule = &self.rules[r.rule];
            if r.conds.is_empty() {
                let mut b = Bindings::new(rule.n_vars);
                for id in ds.candidate_ids(&r.pattern) {
                    let tuple = ds.tuple(id).expect("candidate is live");
                    if r.pattern.matches(tuple, &mut b) {
                        if preds_hold(rule, &b, env, builtins) {
                            seen.insert(id);
                        }
                        b.undo_to(0);
                    }
                }
                continue;
            }
            // Conditions-first: tuple conditions usually bind the
            // pattern's variables far more selectively than scanning
            // every pattern candidate and re-checking the conditions per
            // candidate (e.g. the Label rule's `<threshold, p2, t>` pins
            // `p2` to a handful of neighbours).
            let atoms: Vec<QueryAtom> = r.conds.iter().cloned().map(QueryAtom::read).collect();
            let solutions = Solver::new(ds, &atoms, rule.n_vars).all_staged(
                None,
                &mut |depth, b| depth < atoms.len() || preds_hold(rule, b, env, builtins),
                sdl_dataspace::SolveLimits::default(),
            );
            for sol in solutions {
                let p = sdl_dataspace::solve::resolve_pattern(&r.pattern, &sol.to_bindings());
                seen.extend(ds.find_all(&p));
            }
        }
        seen.into_iter().collect()
    }

    /// Checks one rule against one tuple: the tuple must match the rule's
    /// pattern, and the rule's conditions must then hold in the dataspace
    /// under the bindings the match produced.
    fn rule_admits<S: TupleSource + ?Sized>(
        &self,
        r: &ResolvedRule,
        tuple: &Tuple,
        ds: &S,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        let rule = &self.rules[r.rule];
        if !may_match(&r.pattern, tuple) {
            return false;
        }
        let mut bindings = Bindings::new(rule.n_vars);
        if !r.pattern.matches(tuple, &mut bindings) {
            return false;
        }
        // A condition the pattern match grounded is a membership test —
        // the hot case for tuples in hand (lazy windows, export
        // filtering). Those still holding free variables become a small
        // existential query seeded with the pattern's bindings;
        // predicates run once everything is bound.
        let mut open = Vec::new();
        for c in &r.conds {
            let p = sdl_dataspace::solve::resolve_pattern(c, &bindings);
            if p.vars().next().is_some() {
                open.push(QueryAtom::read(p));
            } else if !ds.contains_match(&p) {
                return false;
            }
        }
        if open.is_empty() {
            return preds_hold(rule, &bindings, env, builtins);
        }
        Solver::new(ds, &open, rule.n_vars)
            .first_staged(Some(&bindings), &mut |depth, b| {
                depth < open.len() || preds_hold(rule, b, env, builtins)
            })
            .is_some()
    }
}

/// False if arity or leading constant already rule the match out — the
/// common case when a tuple in hand is tried against every rule of a
/// view, decided before any bindings are allocated.
fn may_match(pattern: &Pattern, tuple: &Tuple) -> bool {
    pattern.arity() == tuple.arity()
        && !matches!(pattern.fields().first(), Some(Field::Const(c)) if *c != tuple[0])
}

/// True if every predicate condition of `rule` holds under `b`; an
/// argument that does not evaluate fails its predicate.
fn preds_hold(
    rule: &CompiledViewRule,
    b: &Bindings,
    env: &HashMap<String, Value>,
    builtins: &Builtins,
) -> bool {
    rule.conditions.iter().all(|c| match c {
        CompiledCond::Tuple(_) => true,
        CompiledCond::Pred { name, args } => {
            let ctx = EnvCtx {
                env,
                vars: b.slots(),
                builtins,
            };
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                match eval(a, &ctx) {
                    Ok(v) => vals.push(v),
                    Err(_) => return false,
                }
            }
            builtins.call(name, &vals) == Some(Value::Bool(true))
        }
    })
}

/// What a transaction queries: the whole dataspace (full view), a lazily
/// filtered view of it, or a materialised window snapshot.
///
/// The backing store is a `dyn TupleSource` rather than a concrete
/// [`Dataspace`] so the threaded executor can evaluate against a locked
/// shard footprint ([`sdl_dataspace::ShardReadView`]) through the same
/// machinery.
pub enum QuerySource<'a> {
    /// Unrestricted view — queries run straight on the store.
    Full(&'a dyn TupleSource),
    /// Restricted view — candidates are filtered through the import test
    /// on demand.
    Lazy {
        /// The backing store.
        ds: &'a dyn TupleSource,
        /// The process view.
        view: &'a CompiledView,
        /// The view's import rules, resolved under `env`.
        rules: ResolvedRules,
        /// The process environment.
        env: &'a HashMap<String, Value>,
        /// Host functions.
        builtins: &'a Builtins,
    },
    /// A materialised window snapshot (boxed: a `Window` carries its own
    /// index maps and dwarfs the borrowed variants).
    Restricted(Box<Window>),
}

impl std::fmt::Debug for QuerySource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySource::Full(_) => f.write_str("QuerySource::Full"),
            QuerySource::Lazy { .. } => f.write_str("QuerySource::Lazy"),
            QuerySource::Restricted(w) => {
                f.debug_tuple("QuerySource::Restricted").field(w).finish()
            }
        }
    }
}

impl QuerySource<'_> {
    fn admits(&self, tuple: &Tuple) -> bool {
        match self {
            QuerySource::Full(_) | QuerySource::Restricted(_) => true,
            QuerySource::Lazy {
                ds,
                view,
                rules,
                env,
                builtins,
            } => {
                ds.metrics().inc(Counter::WindowAdmitChecks);
                let admitted = rules.admits(tuple, *ds, env, builtins);
                view.stats.record(admitted);
                admitted
            }
        }
    }
}

impl TupleSource for QuerySource<'_> {
    fn metrics(&self) -> &Metrics {
        match self {
            QuerySource::Full(d) => d.metrics(),
            QuerySource::Lazy { ds, .. } => ds.metrics(),
            QuerySource::Restricted(w) => w.metrics(),
        }
    }

    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        match self {
            QuerySource::Full(d) => d.candidate_ids(pattern),
            QuerySource::Lazy { ds, .. } => ds
                .candidate_ids(pattern)
                .into_iter()
                .filter(|id| ds.tuple(*id).is_some_and(|t| self.admits(t)))
                .collect(),
            QuerySource::Restricted(w) => w.candidate_ids(pattern),
        }
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        match self {
            QuerySource::Full(d) => d.visit_candidates(pattern, visit),
            // The import test runs once per candidate the caller gets to
            // see, and not at all on those behind an early stop.
            QuerySource::Lazy { ds, .. } => {
                ds.visit_candidates(pattern, &mut |id, t| !self.admits(t) || visit(id, t));
            }
            QuerySource::Restricted(w) => w.visit_candidates(pattern, visit),
        }
    }

    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        match self {
            QuerySource::Full(d) => d.estimate_candidates(pattern),
            // The import filter only shrinks the candidate list, so the
            // store's estimate is a valid upper bound; the view's sketch
            // then scales it by the observed admit rate so join ordering
            // sees the filter's real selectivity.
            QuerySource::Lazy { ds, view, .. } => view.stats.scale(ds.estimate_candidates(pattern)),
            QuerySource::Restricted(w) => w.estimate_candidates(pattern),
        }
    }

    fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        match self {
            QuerySource::Full(d) => d.tuple(id),
            QuerySource::Lazy { ds, .. } => {
                let t = ds.tuple(id)?;
                self.admits(t).then_some(t)
            }
            QuerySource::Restricted(w) => w.tuple(id),
        }
    }

    fn tuple_count(&self) -> usize {
        match self {
            QuerySource::Full(d) => d.tuple_count(),
            QuerySource::Lazy { ds, .. } => ds
                .all_ids()
                .into_iter()
                .filter(|id| ds.tuple(*id).is_some_and(|t| self.admits(t)))
                .count(),
            QuerySource::Restricted(w) => w.tuple_count(),
        }
    }

    fn all_ids(&self) -> Vec<TupleId> {
        match self {
            QuerySource::Full(d) => d.all_ids(),
            QuerySource::Lazy { ds, .. } => ds
                .all_ids()
                .into_iter()
                .filter(|id| ds.tuple(*id).is_some_and(|t| self.admits(t)))
                .collect(),
            QuerySource::Restricted(w) => w.all_ids(),
        }
    }

    fn contains_match(&self, pattern: &Pattern) -> bool {
        match self {
            QuerySource::Full(d) => d.contains_match(pattern),
            // Match first, admit second: the import test is the dearer.
            QuerySource::Lazy { ds, .. } => {
                let n_vars = pattern.vars().map(|v| v.0 as usize + 1).max().unwrap_or(0);
                let mut b = Bindings::new(n_vars);
                let mut found = false;
                ds.visit_candidates(pattern, &mut |_, t| {
                    let matched = pattern.matches(t, &mut b);
                    b.undo_to(0);
                    found = matched && self.admits(t);
                    !found
                });
                found
            }
            QuerySource::Restricted(w) => w.contains_match(pattern),
        }
    }

    fn matching_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        match self {
            QuerySource::Full(d) => d.matching_ids(pattern),
            // Deliberately *unfiltered*: validation runs against the full
            // store, so forall evidence recorded here must describe the
            // full store too — filtering through the import test would
            // make the sets incomparable and retry forever whenever a
            // matching tuple sits outside the view.
            QuerySource::Lazy { ds, .. } => ds.matching_ids(pattern),
            QuerySource::Restricted(w) => w.matching_ids(pattern),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{tuple, ProcId};

    fn env(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    /// Compiles the import rules of a one-process program.
    fn import_rules(src: &str) -> CompiledView {
        let prog = sdl_lang::parse_program(src).unwrap();
        let compiled = crate::program::CompiledProgram::compile(&prog).unwrap();
        let def = compiled.defs().next().unwrap();
        def.view.clone()
    }

    #[test]
    fn full_view_imports_everything() {
        let v = CompiledView::default();
        assert!(v.is_full());
        let ds = {
            let mut d = Dataspace::new();
            d.assert_tuple(ProcId::ENV, tuple![1]);
            d
        };
        assert!(v.imports(&tuple![1], &ds, &env(&[]), &Builtins::new()));
        assert!(v.exports(&tuple![99], &ds, &env(&[]), &Builtins::new()));
        let e = env(&[]);
        let b = Builtins::new();
        match v.window(&ds, &e, &b).unwrap() {
            QuerySource::Full(d) => assert_eq!(d.tuple_count(), 1),
            other => panic!("expected full source, got {other:?}"),
        }
    }

    #[test]
    fn simple_pattern_import() {
        let v = import_rules("process P(this) { import { <this, *>; } -> skip; }");
        let mut ds = Dataspace::new();
        let a = ds.assert_tuple(ProcId::ENV, tuple![1, 10]);
        ds.assert_tuple(ProcId::ENV, tuple![2, 20]);
        let e = env(&[("this", Value::Int(1))]);
        let b = Builtins::new();
        assert!(v.imports(&tuple![1, 10], &ds, &e, &b));
        assert!(!v.imports(&tuple![2, 20], &ds, &e, &b));
        let ids = v.import_ids(&ds, &e, &b).unwrap();
        assert_eq!(ids, vec![a]);
        let w = v.materialize_window(&ds, &e, &b).unwrap();
        assert_eq!(w.len(), 1);
        let lazy = v.window(&ds, &e, &b).unwrap();
        assert!(matches!(lazy, QuerySource::Lazy { .. }));
        assert_eq!(lazy.tuple_count(), 1);
    }

    #[test]
    fn conditional_import_depends_on_dataspace() {
        // Import <label, p, l> only for p that is a grid neighbour of r
        // with the same threshold t — the paper's Label view.
        let v = import_rules(
            r#"process Label(r, t) {
                import {
                    forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>;
                }
                -> skip;
            }"#,
        );
        let mut b = Builtins::new();
        b.register_grid_neighbor(4, 4);
        let e = env(&[("r", Value::Int(5)), ("t", Value::Int(1))]);

        let mut ds = Dataspace::new();
        // Pixel 6 is a neighbour of 5 with matching threshold.
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), 6, 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), 6, 6]);
        // Pixel 9 is a neighbour but with a different threshold.
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), 9, 2]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), 9, 9]);
        // Pixel 10 has the right threshold but is not a neighbour.
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), 10, 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), 10, 10]);

        assert!(v.imports(&tuple![Value::atom("label"), 6, 6], &ds, &e, &b));
        assert!(
            !v.imports(&tuple![Value::atom("label"), 9, 9], &ds, &e, &b),
            "wrong threshold"
        );
        assert!(
            !v.imports(&tuple![Value::atom("label"), 10, 10], &ds, &e, &b),
            "not a neighbour"
        );

        // The view is dataspace-dependent: retract pixel 6's threshold
        // and its label drops out of the import set.
        let tid = ds.find_all(&sdl_tuple::pattern![Value::atom("threshold"), 6, 1])[0];
        ds.retract(tid);
        assert!(!v.imports(&tuple![Value::atom("label"), 6, 6], &ds, &e, &b));
    }

    #[test]
    fn export_filtering() {
        let v = import_rules("process P() { export { <out, *>; } -> skip; }");
        let ds = Dataspace::new();
        let e = env(&[]);
        let b = Builtins::new();
        assert!(v.exports(&tuple![Value::atom("out"), 1], &ds, &e, &b));
        assert!(!v.exports(&tuple![Value::atom("other"), 1], &ds, &e, &b));
        // Import side unrestricted.
        assert!(v.imports(&tuple![Value::atom("anything")], &ds, &e, &b));
    }

    #[test]
    fn window_answers_queries_like_the_paper_says() {
        // "Transactions act upon the window as if it represented the
        // whole dataspace."
        let v = import_rules("process P() { import { <a, *>; } -> skip; }");
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("a"), 1]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("b"), 2]);
        let e = env(&[]);
        let b = Builtins::new();
        let w = v.window(&ds, &e, &b).unwrap();
        assert_eq!(w.tuple_count(), 1);
        assert!(w.contains_match(&sdl_tuple::pattern![Value::atom("a"), any]));
        assert!(!w.contains_match(&sdl_tuple::pattern![Value::atom("b"), any]));
    }

    #[test]
    fn lazy_view_estimates_learn_the_admit_rate() {
        // One admitted tuple out of many candidates: after the sketch
        // warms up, the lazy view's estimate drops below the raw store
        // estimate the planner saw cold.
        let v = import_rules("process P(this) { import { <this, *>; } -> skip; }");
        let mut ds = Dataspace::new();
        for i in 0..100 {
            ds.assert_tuple(ProcId::ENV, tuple![i, i]);
        }
        let e = env(&[("this", Value::Int(1))]);
        let b = Builtins::new();
        let pat = sdl_tuple::pattern![any, any];
        let raw = ds.estimate_candidates(&pat);
        assert_eq!(raw, 100);
        let lazy = v.window(&ds, &e, &b).unwrap();
        assert_eq!(
            lazy.estimate_candidates(&pat),
            raw,
            "cold sketch passes the raw estimate through"
        );
        // Warm the sketch: scanning candidates runs the admit test.
        let admitted = lazy.candidate_ids(&pat).len();
        assert_eq!(admitted, 1);
        assert_eq!(v.stats().checks(), 100);
        assert_eq!(v.stats().admits(), 1);
        let warm = lazy.estimate_candidates(&pat);
        assert!(
            warm < raw / 10,
            "warm estimate {warm} should reflect the ~1% admit rate"
        );
        assert!(warm >= 1, "estimates never report a matching pattern empty");
        // Clones share the sketch through the definition.
        assert_eq!(v.clone().stats().checks(), 100);
    }

    #[test]
    fn multiple_rules_union() {
        let v = import_rules("process P(x, y) { import { <x, *>; <y, *>; } -> skip; }");
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![1, 10]);
        ds.assert_tuple(ProcId::ENV, tuple![2, 20]);
        ds.assert_tuple(ProcId::ENV, tuple![3, 30]);
        let e = env(&[("x", Value::Int(1)), ("y", Value::Int(2))]);
        let ids = v.import_ids(&ds, &e, &Builtins::new()).unwrap();
        assert_eq!(ids.len(), 2);
    }
}
