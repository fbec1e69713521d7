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
//! neighbours). A window does not test candidates against the rules one
//! at a time: it *expands* each rule once — the rule pattern under every
//! solution of the rule's tuple conditions — and composes the expansion
//! with the query's pattern, so a `Label` process probes the store for
//! its own and its ≤ 4 neighbours' labels by value, and a parked one
//! listens on exactly those.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

use sdl_dataspace::solve::resolve_pattern;
use sdl_dataspace::{AtomMode, QueryAtom, SolveLimits, Solver, TupleSource, WatchSet};
use sdl_lang::ast::Expr;
use sdl_lang::expr::{eval, EvalContext};
use sdl_metrics::{Counter, Metrics};
use sdl_tuple::{Bindings, Field, Pattern, Tuple, TupleId, Value, VarId};

use crate::builtins::Builtins;
use crate::error::RuntimeError;

/// A compiled pattern field.
#[derive(Clone, Debug)]
pub(crate) enum CompiledField {
    /// Wildcard.
    Any,
    /// A quantified/rule variable.
    Var(VarId),
    /// An expression over process constants and built-ins only.
    Env(Expr),
}

/// A predicate condition of a compiled view rule.
#[derive(Clone, Debug)]
struct RulePred {
    name: String,
    args: Vec<Expr>,
    /// The rule variables the arguments read.
    vars: Vec<VarId>,
    /// How many of the rule's tuple conditions, matched in order, bind
    /// every variable the predicate reads — or `None` when the rule
    /// pattern alone binds one of them, so the predicate waits for a
    /// candidate tuple.
    stage: Option<usize>,
}

impl RulePred {
    /// Whether the predicate holds under `b`; `None` when `b` leaves a
    /// variable it reads unbound or an argument does not evaluate.
    fn verdict(
        &self,
        b: &Bindings,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Option<bool> {
        if !self.vars.iter().all(|v| b.is_bound(*v)) {
            return None;
        }
        let ctx = EnvCtx {
            env,
            vars: b.slots(),
            builtins,
        };
        let holds = |vals: &[Value]| builtins.call(&self.name, vals) == Some(Value::Bool(true));
        let n = self.args.len();
        if n > INLINE_ARGS {
            let vals = (self.args.iter())
                .map(|a| eval(a, &ctx).ok())
                .collect::<Option<Vec<Value>>>()?;
            return Some(holds(&vals));
        }
        let mut vals = [const { Value::Bool(false) }; INLINE_ARGS];
        for (slot, a) in vals.iter_mut().zip(&self.args) {
            *slot = eval(a, &ctx).ok()?;
        }
        Some(holds(&vals[..n]))
    }
}

/// The most arguments a predicate evaluates into a buffer on the stack;
/// a longer call collects them into a `Vec`.
const INLINE_ARGS: usize = 4;

/// A compiled import/export rule.
#[derive(Clone, Debug)]
pub(crate) struct CompiledViewRule {
    /// Rule-local variable count.
    n_vars: usize,
    /// The covered tuple shape.
    pattern: Vec<CompiledField>,
    /// The tuple conditions, in source order — the order they are solved
    /// in.
    conds: Vec<Vec<CompiledField>>,
    /// The predicate conditions.
    preds: Vec<RulePred>,
}

impl CompiledViewRule {
    /// A rule over `n_vars` variables covering `pattern` when tuples
    /// matching `conds` exist and the built-in predicates `preds` (name,
    /// arguments over rule variables and constants) hold. Each predicate
    /// is staged at the first tuple condition that leaves all its
    /// variables bound.
    pub(crate) fn new(
        n_vars: usize,
        pattern: Vec<CompiledField>,
        conds: Vec<Vec<CompiledField>>,
        preds: Vec<(String, Vec<Expr>)>,
    ) -> CompiledViewRule {
        let bound_at = |v: VarId| {
            conds
                .iter()
                .position(|c| {
                    c.iter()
                        .any(|f| matches!(f, CompiledField::Var(w) if *w == v))
                })
                .map(|i| i + 1)
        };
        let preds = preds
            .into_iter()
            .map(|(name, args)| {
                let mut vars = Vec::new();
                args.iter().for_each(|a| expr_vars(a, &mut vars));
                let stage = vars
                    .iter()
                    .try_fold(0, |stage, v| Some(stage.max(bound_at(*v)?)));
                RulePred {
                    name,
                    args,
                    vars,
                    stage,
                }
            })
            .collect();
        CompiledViewRule {
            n_vars,
            pattern,
            conds,
            preds,
        }
    }

    /// True if every predicate staged at `stage` holds under `b`.
    fn preds_hold(
        &self,
        stage: Option<usize>,
        b: &Bindings,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        self.preds
            .iter()
            .filter(|p| p.stage == stage)
            .all(|p| p.verdict(b, env, builtins) == Some(true))
    }
}

/// Pushes every quantified variable `e` reads onto `out`.
fn expr_vars(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Var(v, _) => out.push(*v),
        Expr::Unary(_, e) => expr_vars(e, out),
        Expr::Binary(_, l, r) => {
            expr_vars(l, out);
            expr_vars(r, out);
        }
        Expr::Call(_, args) => args.iter().for_each(|a| expr_vars(a, out)),
        Expr::Lit(_) | Expr::Name(_) => {}
    }
}

/// A compiled view.
#[derive(Clone, Debug, Default)]
pub struct CompiledView {
    import: Option<Arc<[CompiledViewRule]>>,
    export: Option<Arc<[CompiledViewRule]>>,
}

/// Evaluation context over a process environment, the bindings of the
/// query's variables (empty outside a query), and the built-in registry.
pub(crate) struct EnvCtx<'a> {
    /// Process constants (parameters and `let`s).
    pub(crate) env: &'a HashMap<String, Value>,
    /// Bindings of the quantified variables, indexed by `VarId`.
    pub(crate) vars: &'a [Option<Value>],
    /// Host functions.
    pub(crate) builtins: &'a Builtins,
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
    pub(crate) fn new(
        import: Option<Vec<CompiledViewRule>>,
        export: Option<Vec<CompiledViewRule>>,
    ) -> CompiledView {
        CompiledView {
            import: import.map(Arc::from),
            export: export.map(Arc::from),
        }
    }

    /// True if the import side is unrestricted.
    pub fn imports_everything(&self) -> bool {
        self.import.is_none()
    }

    /// True if the export side is unrestricted (no assert is ever dropped).
    pub(crate) fn exports_everything(&self) -> bool {
        self.export.is_none()
    }

    /// The import rules as they read under `env` (`None` = unrestricted).
    pub(crate) fn resolve_import(
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
    /// expands the import rules as queries reach them ([`Lazy`]). Over an
    /// unchanging dataspace — which is exactly a transaction's evaluation
    /// context — the two are observationally identical, and laziness
    /// keeps "transaction types that might be expensive … comfortable
    /// when the number of tuples they examine is small". The rules'
    /// environment expressions are evaluated here, once per window; a
    /// rule whose expression cannot evaluate admits nothing (see
    /// [`ResolvedRules`]).
    pub(crate) fn window<'a>(
        &'a self,
        ds: &'a dyn TupleSource,
        env: &'a HashMap<String, Value>,
        builtins: &'a Builtins,
    ) -> QuerySource<'a> {
        let metrics = ds.metrics();
        metrics.inc(Counter::WindowsBuilt);
        match self.resolve_import(env, builtins) {
            Some(rules) => {
                let cells = rules.cells().into();
                QuerySource::Lazy(Lazy::new(ds, Cow::Owned(rules), cells, None, env, builtins))
            }
            None => QuerySource::Full(ds),
        }
    }

    /// The instance ids currently in the import set, ascending (the
    /// empty-vec shortcut is *not* taken for full views — call
    /// [`CompiledView::imports_everything`] first; this method
    /// materialises).
    ///
    /// # Errors
    ///
    /// Never, today: a rule whose environment expression cannot evaluate
    /// admits nothing.
    pub fn import_ids(
        &self,
        ds: &sdl_dataspace::Dataspace,
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
    pub(crate) fn exports<S: TupleSource + ?Sized>(
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
/// left free. The community index keeps them per process, with their
/// expansion, for the serial schedulers' windows over the live store;
/// [`CompiledView::window`] resolves them afresh for a snapshot or a
/// footprint.
///
/// A rule whose pattern or tuple condition does not evaluate is left
/// out: it admits nothing, for the test of a tuple in hand
/// ([`ResolvedRules::admits`]) and the expansion ([`Lazy`]) alike.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedRules {
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
            let conds = rule
                .conds
                .iter()
                .map(|c| resolve_fields(c, &ctx, "view rule condition").ok())
                .collect::<Option<Vec<Pattern>>>()?;
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

    /// One empty expansion cell per resolved rule.
    pub(crate) fn cells(&self) -> Vec<OnceCell<Vec<Admitted>>> {
        self.resolved.iter().map(|_| OnceCell::new()).collect()
    }

    /// True if some rule covers `tuple` and that rule's conditions hold
    /// in `ds` — the test of one tuple in hand (export filtering, a
    /// window's `tuple(id)`).
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

    /// True if `tuple` matches a tuple condition of some rule under
    /// bindings that leave the rule's predicates able to hold, i.e. its
    /// assertion or retraction can change which *other* tuples the rules
    /// admit. A predicate reading a variable the condition does not bind
    /// may hold.
    pub(crate) fn condition_covers(
        &self,
        tuple: &Tuple,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> bool {
        self.resolved.iter().any(|r| {
            let rule = &self.rules[r.rule];
            r.conds.iter().any(|c| {
                if !may_match(c, tuple) {
                    return false;
                }
                let mut b = Bindings::new(rule.n_vars);
                c.matches(tuple, &mut b)
                    && (rule.preds.iter()).all(|p| p.verdict(&b, env, builtins) != Some(false))
            })
        })
    }

    /// The ids of the instances in `ds` the rules admit, ascending: the
    /// window's expansion over the whole store.
    pub(crate) fn import_ids(
        &self,
        ds: &dyn TupleSource,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Vec<TupleId> {
        Lazy::new(
            ds,
            Cow::Borrowed(self),
            self.cells().into(),
            None,
            env,
            builtins,
        )
        .all_ids()
    }

    /// What rule `r` admits over `ds`, as patterns: the rule pattern
    /// under each distinct solution of its tuple conditions.
    ///
    /// Conditions-first: a condition such as the Label rule's
    /// `<threshold, p2, t>` pins the pattern's variables to a handful of
    /// values, where walking the pattern's candidates and checking the
    /// conditions per candidate would not. Each predicate runs at the
    /// depth its stage names; those reading a variable only the pattern
    /// binds wait for the candidate ([`Lazy::admitted_by`]).
    fn expand(
        &self,
        r: &ResolvedRule,
        ds: &dyn TupleSource,
        env: &HashMap<String, Value>,
        builtins: &Builtins,
    ) -> Vec<Admitted> {
        let rule = &self.rules[r.rule];
        let unbound = Bindings::new(rule.n_vars);
        // The solver stages a test at depth 0 only for an empty query.
        if !rule.preds_hold(Some(0), &unbound, env, builtins) {
            return Vec::new();
        }
        let mut solutions = if r.conds.is_empty() {
            vec![unbound.into_vec()]
        } else {
            let atoms: Vec<QueryAtom> = r.conds.iter().cloned().map(QueryAtom::read).collect();
            Solver::new(ds, &atoms, rule.n_vars)
                .all_staged(
                    None,
                    &mut |depth, b| depth == 0 || rule.preds_hold(Some(depth), b, env, builtins),
                    SolveLimits::default(),
                )
                .into_iter()
                .map(|s| s.bindings)
                .collect()
        };
        // Condition tuples that repeat a value give the same solution.
        solutions.sort_unstable();
        solutions.dedup();
        solutions
            .into_iter()
            .map(|slots| {
                let mut bindings = Bindings::new(rule.n_vars);
                bindings.restore(&slots);
                Admitted {
                    rule: r.rule,
                    pattern: resolve_pattern(&r.pattern, &bindings),
                    bindings,
                }
            })
            .collect()
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
        let all_hold = |b: &Bindings| {
            rule.preds
                .iter()
                .all(|p| p.verdict(b, env, builtins) == Some(true))
        };
        // A condition the pattern match grounded is a membership test —
        // the hot case for tuples in hand. Those still holding free
        // variables become a small existential query seeded with the
        // pattern's bindings; predicates run once everything is bound.
        let mut open = Vec::new();
        for c in &r.conds {
            let p = resolve_pattern(c, &bindings);
            if p.vars().next().is_some() {
                open.push(QueryAtom::read(p));
            } else if !ds.contains_match(&p) {
                return false;
            }
        }
        if open.is_empty() {
            return all_hold(&bindings);
        }
        Solver::new(ds, &open, rule.n_vars)
            .first_staged(Some(&bindings), &mut |depth, b| {
                depth < open.len() || all_hold(b)
            })
            .is_some()
    }
}

/// False if arity or a constant already rules the match out — the
/// common case when a tuple in hand is tried against every rule of a
/// view or a kept import set is scanned for a query, decided before any
/// bindings are allocated.
fn may_match(pattern: &Pattern, tuple: &Tuple) -> bool {
    pattern.arity() == tuple.arity()
        && (pattern.fields().iter().zip(tuple.fields()))
            .all(|(f, v)| !matches!(f, Field::Const(c) if c != v))
}

/// False if no tuple can match both patterns as far as their constants
/// tell: arities differ or a position holds two different constants.
fn may_meet(a: &Pattern, b: &Pattern) -> bool {
    a.arity() == b.arity()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|f| !matches!(f, (Field::Const(x), Field::Const(y)) if x != y))
}

/// The store probe for the candidates of `pattern` an admitted pattern
/// can cover: `pattern`'s constants, and the admitted pattern's where
/// `pattern` has none. Every candidate of `pattern` the admitted pattern
/// matches is a candidate of the probe.
fn probe_key(pattern: &Pattern, admitted: &Pattern) -> Pattern {
    (0..pattern.arity())
        .map(|i| probe_const(pattern, admitted, i).map_or(Field::Any, |v| Field::Const(v.clone())))
        .collect()
}

/// The constant [`probe_key`] holds at position `i`, if any.
fn probe_const<'p>(pattern: &'p Pattern, admitted: &'p Pattern, i: usize) -> Option<&'p Value> {
    (pattern.fields()[i].as_const()).or_else(|| admitted.fields()[i].as_const())
}

/// One way a rule admits tuples: its pattern resolved under one solution
/// of its tuple conditions, and that solution.
#[derive(Clone, Debug)]
pub(crate) struct Admitted {
    /// Position of the rule in the rule list.
    rule: usize,
    pattern: Pattern,
    bindings: Bindings,
}

/// A restricted window: the store as a process's import rules let it
/// see it.
///
/// Each rule is expanded ([`ResolvedRules::expand`]) the first time a
/// query reaches it and kept in its cell — for the window's life when the
/// window owns its cells, or for as long as the community index keeps a
/// process's cells: until a commit moves a tuple a rule condition covers,
/// the only way the store can change an expansion. A query for a pattern
/// then probes the store once per admitted pattern of each rule that can
/// meet it, instead of testing each of the pattern's candidates against
/// every rule — unless the index also keeps the import set itself
/// current, when the query scans that set and probes nothing.
pub(crate) struct Lazy<'a> {
    ds: &'a dyn TupleSource,
    rules: Cow<'a, ResolvedRules>,
    /// Per resolved rule, its admitted patterns once expanded.
    expanded: Cow<'a, [OnceCell<Vec<Admitted>>]>,
    /// `Import(p) ∩ D`, ascending, when the community index keeps it
    /// exact for `ds`: queries, `tuple` and the counts read it.
    kept: Option<&'a [TupleId]>,
    env: &'a HashMap<String, Value>,
    builtins: &'a Builtins,
}

impl<'a> Lazy<'a> {
    /// A window over `ds` expanding `rules` into `expanded`, one cell per
    /// resolved rule ([`ResolvedRules::cells`]), reading `kept` when it
    /// is the window's import set over `ds`.
    pub(crate) fn new(
        ds: &'a dyn TupleSource,
        rules: Cow<'a, ResolvedRules>,
        expanded: Cow<'a, [OnceCell<Vec<Admitted>>]>,
        kept: Option<&'a [TupleId]>,
        env: &'a HashMap<String, Value>,
        builtins: &'a Builtins,
    ) -> Lazy<'a> {
        Lazy {
            ds,
            rules,
            expanded,
            kept,
            env,
            builtins,
        }
    }

    /// The exact keys of every admitted pattern and every tuple condition,
    /// expanding each rule: a tuple that publishes none of them can
    /// neither enter nor leave the window, nor move its expansion.
    pub(crate) fn interest(&self) -> WatchSet {
        let mut keys = WatchSet::new();
        for (i, r) in self.rules.resolved.iter().enumerate() {
            for p in self.admitted(i).iter().map(|a| &a.pattern).chain(&r.conds) {
                keys.add_pattern_exact(p);
            }
        }
        keys
    }

    /// True if the expansion admits `tuple`: the test of a tuple in hand
    /// against the admitted patterns, without probing the conditions.
    pub(crate) fn expansion_admits(&self, tuple: &Tuple) -> bool {
        self.rules.resolved.iter().enumerate().any(|(i, r)| {
            may_match(&r.pattern, tuple)
                && self.admitted(i).iter().any(|adm| {
                    may_match(&adm.pattern, tuple)
                        && self.admitted_by(adm, tuple, &mut adm.bindings.clone())
                })
        })
    }

    /// The admitted patterns of resolved rule `i`.
    fn admitted(&self, i: usize) -> &[Admitted] {
        self.expanded[i].get_or_init(|| {
            self.rules
                .expand(&self.rules.resolved[i], self.ds, self.env, self.builtins)
        })
    }

    /// The admitted patterns of every rule whose pattern can meet
    /// `pattern` (of every rule, for `None`).
    fn meeting<'s, 'p>(
        &'s self,
        pattern: Option<&'p Pattern>,
    ) -> impl Iterator<Item = &'s Admitted> + use<'s, 'p, 'a> {
        (self.rules.resolved.iter().enumerate())
            .filter(move |(_, r)| pattern.is_none_or(|p| may_meet(&r.pattern, p)))
            .flat_map(move |(i, _)| self.admitted(i))
    }

    /// The store probes that together list the admitted candidates of
    /// `pattern` (of every instance, for `None`), each with the admitted
    /// pattern whose tuples it looks for.
    fn probes(&self, pattern: Option<&Pattern>) -> Vec<(Cow<'_, Pattern>, &Admitted)> {
        (self.meeting(pattern))
            .map(|adm| match pattern {
                Some(p) => (Cow::Owned(probe_key(p, &adm.pattern)), adm),
                None => (Cow::Borrowed(&adm.pattern), adm),
            })
            .collect()
    }

    /// True if `adm`'s rule admits `tuple` through it: the tuple matches
    /// the admitted pattern and the predicates left for the candidate
    /// hold. `b` holds `adm`'s bindings and is left as it came.
    fn admitted_by(&self, adm: &Admitted, tuple: &Tuple, b: &mut Bindings) -> bool {
        let mark = b.mark();
        let ok = adm.pattern.matches(tuple, b)
            && self.rules.rules[adm.rule].preds_hold(None, b, self.env, self.builtins);
        b.undo_to(mark);
        ok
    }

    /// Hands `visit` the admitted candidates of `pattern` (every admitted
    /// instance, for `None`), ascending and each once, until it returns
    /// `false`. A kept import set is scanned, its ids prefiltered by
    /// `pattern`'s arity and constants; otherwise the store is probed.
    fn visit_admitted(
        &self,
        pattern: Option<&Pattern>,
        visit: &mut dyn FnMut(TupleId, &Tuple) -> bool,
    ) {
        if let Some(kept) = self.kept {
            for &id in kept {
                let tuple = self.ds.tuple(id).expect("a kept id is live");
                if pattern.is_none_or(|p| may_match(p, tuple)) && !visit(id, tuple) {
                    break;
                }
            }
            return;
        }
        let probes = self.probes(pattern);
        if let [(key, adm)] = &probes[..] {
            let mut b = adm.bindings.clone();
            self.ds.visit_candidates(key, &mut |id, t| {
                !self.admitted_by(adm, t, &mut b) || visit(id, t)
            });
            return;
        }
        // Several probes' ids interleave and two rules may admit one
        // tuple: gather, sort and deduplicate before the first visit.
        let mut ids = Vec::new();
        for (key, adm) in &probes {
            let mut b = adm.bindings.clone();
            self.ds.visit_candidates(key, &mut |id, t| {
                if self.admitted_by(adm, t, &mut b) {
                    ids.push(id);
                }
                true
            });
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let tuple = self.ds.tuple(id).expect("admitted candidate is live");
            if !visit(id, tuple) {
                break;
            }
        }
    }

    /// The ids [`Lazy::visit_admitted`] hands out.
    fn admitted_ids(&self, pattern: Option<&Pattern>) -> Vec<TupleId> {
        let mut out = Vec::new();
        self.visit_admitted(pattern, &mut |id, _| {
            out.push(id);
            true
        });
        out
    }
}

impl TupleSource for Lazy<'_> {
    fn metrics(&self) -> &Metrics {
        self.ds.metrics()
    }

    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.admitted_ids(Some(pattern))
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        self.visit_admitted(Some(pattern), visit);
    }

    /// The store's estimate: the window only narrows it.
    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        self.ds.estimate_candidates(pattern)
    }

    fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        let t = self.ds.tuple(id)?;
        self.ds.metrics().inc(Counter::WindowAdmitChecks);
        let admitted = match self.kept {
            Some(kept) => kept.binary_search(&id).is_ok(),
            None => (self.rules).admits(t, self.ds, self.env, self.builtins),
        };
        admitted.then_some(t)
    }

    fn tuple_count(&self) -> usize {
        self.kept
            .map_or_else(|| self.admitted_ids(None).len(), <[TupleId]>::len)
    }

    fn all_ids(&self) -> Vec<TupleId> {
        self.kept
            .map_or_else(|| self.admitted_ids(None), <[TupleId]>::to_vec)
    }

    /// Match first, admit second: any probe's match will do, in any
    /// order. A kept import set is scanned instead.
    fn contains_match(&self, pattern: &Pattern) -> bool {
        let n_vars = pattern.vars().map(|v| v.0 as usize + 1).max().unwrap_or(0);
        let mut matched = Bindings::new(n_vars);
        let mut matches = |t: &Tuple| {
            let found = pattern.matches(t, &mut matched);
            matched.undo_to(0);
            found
        };
        if self.kept.is_some() {
            let mut found = false;
            self.visit_admitted(Some(pattern), &mut |_, t| {
                found = matches(t);
                !found
            });
            return found;
        }
        self.probes(Some(pattern)).iter().any(|(key, adm)| {
            let mut b = adm.bindings.clone();
            let mut found = false;
            self.ds.visit_candidates(key, &mut |_, t| {
                found = matches(t) && self.admitted_by(adm, t, &mut b);
                !found
            });
            found
        })
    }

    /// Deliberately *unfiltered*: validation runs against the full store,
    /// so forall evidence recorded here must describe the full store too
    /// — filtering through the import rules would make the sets
    /// incomparable and retry forever whenever a matching tuple sits
    /// outside the view.
    fn matching_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.ds.matching_ids(pattern)
    }

    /// The exact keys of each probe a positive atom's query makes (a
    /// negated atom keeps its coarse channel), plus, for every rule that
    /// can admit a match of the atom, its tuple conditions narrowed by the
    /// atom's constants: a condition tuple that comes or goes moves tuples
    /// already in the store into or out of the window. Keys come from
    /// constants in place; no probe or narrowed pattern is built.
    fn subscribe(&self, atom: &QueryAtom, watch: &mut WatchSet) {
        let p = &atom.pattern;
        if atom.mode == AtomMode::Neg {
            watch.add_pattern(p);
        } else {
            for adm in self.meeting(Some(p)) {
                watch.add_exact(p.arity(), |i| probe_const(p, &adm.pattern, i));
            }
        }
        for r in &self.rules.resolved {
            if r.conds.is_empty() || !may_meet(&r.pattern, p) {
                continue;
            }
            // A rule variable reads the atom's constant at the first
            // position the rule pattern holds it.
            let bound = |v: &VarId| {
                (r.pattern.fields().iter().zip(p.fields())).find_map(|(f, c)| match f {
                    Field::Var(w) if w == v => c.as_const(),
                    _ => None,
                })
            };
            for c in &r.conds {
                watch.add_exact(c.arity(), |i| match &c.fields()[i] {
                    Field::Const(v) => Some(v),
                    Field::Var(v) => bound(v),
                    Field::Any => None,
                });
            }
        }
    }
}

/// What a transaction queries: the whole dataspace (full view) or a
/// process window over it.
///
/// The backing store is a `dyn TupleSource` rather than a concrete
/// [`sdl_dataspace::Dataspace`] so the threaded executor can evaluate
/// against a locked shard footprint through the same machinery.
pub(crate) enum QuerySource<'a> {
    /// Unrestricted view — queries run straight on the store.
    Full(&'a dyn TupleSource),
    /// Restricted view — queries run through the expanded import rules.
    Lazy(Lazy<'a>),
}

impl std::fmt::Debug for QuerySource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySource::Full(_) => f.write_str("QuerySource::Full"),
            QuerySource::Lazy(_) => f.write_str("QuerySource::Lazy"),
        }
    }
}

impl QuerySource<'_> {
    fn source(&self) -> &dyn TupleSource {
        match self {
            QuerySource::Full(d) => *d,
            QuerySource::Lazy(w) => w,
        }
    }
}

impl TupleSource for QuerySource<'_> {
    fn metrics(&self) -> &Metrics {
        self.source().metrics()
    }

    fn candidate_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.source().candidate_ids(pattern)
    }

    fn visit_candidates(&self, pattern: &Pattern, visit: &mut dyn FnMut(TupleId, &Tuple) -> bool) {
        self.source().visit_candidates(pattern, visit);
    }

    fn estimate_candidates(&self, pattern: &Pattern) -> usize {
        self.source().estimate_candidates(pattern)
    }

    fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.source().tuple(id)
    }

    fn tuple_count(&self) -> usize {
        self.source().tuple_count()
    }

    fn all_ids(&self) -> Vec<TupleId> {
        self.source().all_ids()
    }

    fn contains_match(&self, pattern: &Pattern) -> bool {
        self.source().contains_match(pattern)
    }

    fn matching_ids(&self, pattern: &Pattern) -> Vec<TupleId> {
        self.source().matching_ids(pattern)
    }

    fn subscribe(&self, atom: &QueryAtom, watch: &mut WatchSet) {
        self.source().subscribe(atom, watch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_dataspace::Dataspace;
    use sdl_tuple::{tuple, ProcId};

    impl Lazy<'_> {
        /// [`Lazy::subscribe`] as built from patterns: each probe key and
        /// each narrowed condition through `add_pattern_exact`. The
        /// oracle of the keys `subscribe` reads off constants.
        pub(crate) fn subscribe_by_patterns(&self, atom: &QueryAtom, watch: &mut WatchSet) {
            let p = &atom.pattern;
            if atom.mode == AtomMode::Neg {
                watch.add_pattern(p);
            } else {
                for (key, _) in self.probes(Some(p)) {
                    watch.add_pattern_exact(&key);
                }
            }
            for r in &self.rules.resolved {
                if r.conds.is_empty() || !may_meet(&r.pattern, p) {
                    continue;
                }
                let mut b = Bindings::new(self.rules.rules[r.rule].n_vars);
                for (f, c) in r.pattern.fields().iter().zip(p.fields()) {
                    if let (Field::Var(v), Field::Const(c)) = (f, c) {
                        if !b.is_bound(*v) {
                            b.bind(*v, c.clone());
                        }
                    }
                }
                for c in &r.conds {
                    watch.add_pattern_exact(&resolve_pattern(c, &b));
                }
            }
        }
    }

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
        assert!(v.imports_everything() && v.exports_everything());
        let ds = {
            let mut d = Dataspace::new();
            d.assert_tuple(ProcId::ENV, tuple![1]);
            d
        };
        assert!(v.imports(&tuple![1], &ds, &env(&[]), &Builtins::new()));
        assert!(v.exports(&tuple![99], &ds, &env(&[]), &Builtins::new()));
        let e = env(&[]);
        let b = Builtins::new();
        match v.window(&ds, &e, &b) {
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
        let lazy = v.window(&ds, &e, &b);
        assert!(matches!(lazy, QuerySource::Lazy(_)));
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
    fn predicate_over_a_pattern_only_variable_waits_for_the_candidate() {
        // `neighbor(l, r)` reads `l`, which only the rule pattern binds:
        // the conditions-first solve cannot decide it, the candidate can.
        let v = import_rules(
            r#"process Label(r, t) {
                import {
                    forall p, l : neighbor(l, r), <threshold, p, t> => <label, p, l>;
                }
                -> skip;
            }"#,
        );
        let mut b = Builtins::new();
        b.register_grid_neighbor(4, 4);
        let e = env(&[("r", Value::Int(5)), ("t", Value::Int(1))]);
        let mut ds = Dataspace::new();
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), 6, 1]);
        let label = ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), 6, 4]);
        ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), 6, 7]);
        assert!(v.imports(&tuple![Value::atom("label"), 6, 4], &ds, &e, &b));
        assert!(!v.imports(&tuple![Value::atom("label"), 6, 7], &ds, &e, &b));
        assert_eq!(v.import_ids(&ds, &e, &b).unwrap(), vec![label]);
        let w = v.window(&ds, &e, &b);
        assert_eq!(w.all_ids(), vec![label]);
        assert!(w.contains_match(&sdl_tuple::pattern![Value::atom("label"), 6, var 0]));
        assert!(!w.contains_match(&sdl_tuple::pattern![Value::atom("label"), 6, 7]));
    }

    #[test]
    fn condition_covers_only_where_the_predicates_may_hold() {
        let mut b = Builtins::new();
        b.register_grid_neighbor(4, 4);
        let e = env(&[("r", Value::Int(5)), ("t", Value::Int(1))]);
        let covers = |rule: &str, p: i64, t: i64| {
            let v = import_rules(&format!(
                "process Label(r, t) {{ import {{ {rule} }} -> skip; }}"
            ));
            let rules = v.resolve_import(&e, &b).unwrap();
            rules.condition_covers(&tuple![Value::atom("threshold"), p, t], &e, &b)
        };
        let by_p = "forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>;";
        assert!(covers(by_p, 6, 1), "a neighbour's threshold");
        assert!(!covers(by_p, 15, 1), "not a neighbour");
        assert!(!covers(by_p, 6, 2), "another class");
        // The predicate reads `l`, which the condition does not bind:
        // every same-class threshold may matter.
        let by_l = "forall p, l : neighbor(l, r), <threshold, p, t> => <label, p, l>;";
        assert!(covers(by_l, 15, 1));
        assert!(!covers(by_l, 15, 2));
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
        let w = v.window(&ds, &e, &b);
        assert_eq!(w.tuple_count(), 1);
        assert!(w.contains_match(&sdl_tuple::pattern![Value::atom("a"), any]));
        assert!(!w.contains_match(&sdl_tuple::pattern![Value::atom("b"), any]));
    }

    #[test]
    fn window_probes_the_neighbours_by_value() {
        // Label's query for any label visits its own and its
        // same-threshold neighbours' labels, and a parked process
        // listens on exactly those values plus the same-class thresholds.
        let v = import_rules(
            r#"process Label(r, t) {
                import {
                    <label, r, *>;
                    forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>;
                }
                -> skip;
            }"#,
        );
        let mut b = Builtins::new();
        b.register_grid_neighbor(4, 4);
        let e = env(&[("r", Value::Int(5)), ("t", Value::Int(1))]);
        let (m, reg) = Metrics::registry();
        let mut ds = Dataspace::new();
        ds.set_metrics(m);
        for p in 0..16i64 {
            ds.assert_tuple(ProcId::ENV, tuple![Value::atom("threshold"), p, p % 2]);
            ds.assert_tuple(ProcId::ENV, tuple![Value::atom("label"), p, p]);
        }
        let w = v.window(&ds, &e, &b);
        let labels = |ids: Vec<TupleId>| -> Vec<i64> {
            ids.iter()
                .map(|id| ds.tuple(*id).unwrap()[1].as_int().unwrap())
                .collect()
        };
        let any_label = sdl_tuple::pattern![Value::atom("label"), var 0, var 1];
        // 5's neighbours are 1, 4, 6, 9; of those 1 and 9 share its class.
        assert_eq!(labels(w.candidate_ids(&any_label)), vec![1, 5, 9]);
        assert_eq!(reg.counter(Counter::WindowAdmitChecks), 0);

        let mut watch = WatchSet::new();
        w.subscribe(&QueryAtom::read(any_label), &mut watch);
        let publishes = |t: Tuple| {
            let mut p = WatchSet::new();
            p.add_tuple(&t);
            p.intersects(&watch)
        };
        assert!(publishes(tuple![Value::atom("label"), 9, 3]));
        assert!(publishes(tuple![Value::atom("label"), 5, 3]));
        assert!(
            !publishes(tuple![Value::atom("label"), 6, 3]),
            "other class"
        );
        assert!(!publishes(tuple![Value::atom("label"), 15, 3]), "far away");
        assert!(publishes(tuple![Value::atom("threshold"), 6, 1]));
        assert!(!publishes(tuple![Value::atom("threshold"), 6, 0]));
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
