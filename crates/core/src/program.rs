//! Compilation of SDL ASTs into executable form.
//!
//! Compilation classifies names (quantified variable / process constant /
//! atom literal), numbers variables, schedules test conjuncts at the
//! earliest join depth where their variables are bound, and rewrites
//! pattern fields that compute over quantified variables into hidden
//! variables plus equality constraints. The result is shared (`Arc`) and
//! immutable, so thousands of process instances reuse one compiled body.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use sdl_dataspace::{
    estimate_positives, estimates_drifted, plan_query, AtomMode, QueryAtom, QueryPlan, TupleSource,
};
use sdl_lang::ast::{
    Action, CondAtom, Expr, FieldExpr, GuardedSeq, PatternExpr, ProcessDef, Program, Quant, Stmt,
    Transaction, TxnAtom, TxnKind,
};
use sdl_metrics::Counter;
use sdl_tuple::VarId;

use crate::error::CompileError;
use crate::view::{CompiledField, CompiledView, CompiledViewRule};

/// A compiled SDL program: the static set of process definitions plus the
/// initial configuration.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    defs: HashMap<String, Arc<CompiledProcess>>,
    /// Initial tuples (still as expressions; evaluated at startup).
    pub(crate) init_tuples: Vec<Vec<Expr>>,
    /// Initial society (name, argument expressions).
    pub(crate) init_spawns: Vec<(String, Vec<Expr>)>,
}

impl CompiledProgram {
    /// Compiles a parsed program.
    ///
    /// # Errors
    ///
    /// Returns a `CompileError` for duplicate process names, unknown or
    /// mis-applied processes in `spawn`s, duplicate quantified variables,
    /// or constructs outside the supported fragment.
    ///
    /// # Examples
    ///
    /// ```
    /// let prog = sdl_lang::parse_program(
    ///     "process P() { -> skip; } init { spawn P(); }",
    /// ).unwrap();
    /// let compiled = sdl_core::CompiledProgram::compile(&prog).unwrap();
    /// assert!(compiled.def("P").is_some());
    /// ```
    pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
        // First pass: process signatures, for spawn arity checks.
        let mut signatures: HashMap<&str, usize> = HashMap::new();
        for def in &program.processes {
            if signatures
                .insert(def.name.as_str(), def.params.len())
                .is_some()
            {
                return Err(CompileError::DuplicateProcess(def.name.clone()));
            }
        }

        let mut defs = HashMap::new();
        let mut interner = PlanInterner::new();
        for def in &program.processes {
            let compiled = compile_process(def, &signatures, &mut interner)?;
            defs.insert(def.name.clone(), Arc::new(compiled));
        }

        for spawn in &program.init.spawns {
            check_spawn(&spawn.name, spawn.args.len(), &signatures)?;
        }

        Ok(CompiledProgram {
            defs,
            init_tuples: program.init.tuples.clone(),
            init_spawns: program
                .init
                .spawns
                .iter()
                .map(|s| (s.name.clone(), s.args.clone()))
                .collect(),
        })
    }

    /// Compiles SDL source text directly.
    ///
    /// # Errors
    ///
    /// Returns parse errors stringified into `CompileError::Unsupported`
    /// is *not* done — parse errors surface separately; this is a
    /// convenience that panics on neither: it returns `Err` on both parse
    /// and compile failures via `Box<dyn Error>`-free enums by parsing
    /// first.
    pub fn from_source(src: &str) -> Result<CompiledProgram, String> {
        let parsed = sdl_lang::parse_program(src).map_err(|e| e.to_string())?;
        CompiledProgram::compile(&parsed).map_err(|e| e.to_string())
    }

    /// Looks up a compiled process definition.
    pub fn def(&self, name: &str) -> Option<&Arc<CompiledProcess>> {
        self.defs.get(name)
    }

    /// Iterates over all definitions.
    pub(crate) fn defs(&self) -> impl Iterator<Item = &Arc<CompiledProcess>> {
        self.defs.values()
    }
}

/// A compiled process definition.
#[derive(Debug)]
pub struct CompiledProcess {
    /// Definition name.
    pub(crate) name: String,
    /// Parameter names (bound to values at spawn).
    pub params: Vec<String>,
    /// The compiled view.
    pub view: CompiledView,
    /// The behaviour.
    pub(crate) body: Arc<[CompiledStmt]>,
}

/// A compiled statement.
#[derive(Clone, Debug)]
pub(crate) enum CompiledStmt {
    /// A plain transaction.
    Txn(Arc<CompiledTxn>),
    /// Selection.
    Select(Arc<[CompiledBranch]>),
    /// Repetition.
    Repeat(Arc<[CompiledBranch]>),
    /// Replication.
    Replicate(Arc<[CompiledBranch]>),
}

/// A compiled guarded sequence.
#[derive(Clone, Debug)]
pub(crate) struct CompiledBranch {
    /// The guarding transaction.
    pub(crate) guard: Arc<CompiledTxn>,
    /// Statements executed after the guard commits.
    pub(crate) rest: Arc<[CompiledStmt]>,
}

/// When a test conjunct runs and what it checks.
#[derive(Clone, Debug)]
pub(crate) struct ScheduledTest {
    /// Number of positive atoms that must be matched before the conjunct
    /// can evaluate (0 = before the search starts).
    pub(crate) depth: usize,
    /// What to check.
    pub(crate) check: TestCheck,
}

/// The payload of a [`ScheduledTest`].
#[derive(Clone, Debug)]
pub(crate) enum TestCheck {
    /// A boolean expression over bound variables and process constants.
    Expr(Expr),
    /// `var == expr` — introduced for pattern fields that compute over
    /// quantified variables (`<k - 2^(j-1), α>` with `k` itself a
    /// variable would produce one; with `k` a constant the field is just
    /// an environment expression).
    HiddenEq {
        /// The hidden variable standing in for the field.
        var: VarId,
        /// The computed expression it must equal.
        expr: Expr,
    },
}

/// A compiled query atom.
#[derive(Clone, Debug)]
pub(crate) struct CompiledAtom {
    /// The fields.
    pub(crate) fields: Vec<CompiledField>,
    /// Read, retract, or negated.
    pub(crate) mode: AtomMode,
}

/// A compiled action, with the precomputed fact of whether it mentions a
/// quantified variable (and therefore runs once per solution under
/// `forall`).
#[derive(Clone, Debug)]
pub(crate) struct CompiledAction {
    /// The action (still expression-bearing; evaluated at commit).
    pub(crate) action: Action,
    /// True if the action references a quantified variable.
    pub(crate) per_solution: bool,
}

/// A compiled transaction.
#[derive(Clone, Debug)]
pub struct CompiledTxn {
    /// Quantifier.
    pub(crate) quant: Quant,
    /// Operational mode.
    pub kind: TxnKind,
    /// Total variable count (declared + hidden).
    pub(crate) n_vars: usize,
    /// Declared variable names, indexed by `VarId` (hidden variables have
    /// no names).
    pub(crate) var_names: Vec<String>,
    /// Query atoms in source order.
    pub(crate) atoms: Vec<CompiledAtom>,
    /// Binding constraints: predicate atoms and hidden-field equalities.
    /// These always prune the join, under both quantifiers.
    pub(crate) binding_tests: Vec<ScheduledTest>,
    /// The test query's conjuncts. Under `exists` they prune; under
    /// `forall` every binding-query solution must satisfy them.
    pub(crate) property_tests: Vec<ScheduledTest>,
    /// The action list.
    pub(crate) actions: Vec<CompiledAction>,
    /// The per-statement execution-plan cache (see [`PlanCache`]).
    pub(crate) plan_cache: PlanCache,
}

/// A [`CompiledTxn`]'s execution plan re-targeted at a concrete store:
/// the selectivity-ordered join plus the statement's test conjuncts
/// re-scheduled to the earliest *plan* depth where their variables are
/// bound (the compile-time depths in [`CompiledTxn::binding_tests`] are
/// relative to source order).
#[derive(Clone, Debug)]
pub(crate) struct TxnPlan {
    /// Positive-atom execution order and negation schedule.
    pub(crate) query: QueryPlan,
    /// Binding tests re-scheduled against the plan order.
    pub(crate) binding_tests: Vec<ScheduledTest>,
    /// Property tests re-scheduled against the plan order.
    pub(crate) property_tests: Vec<ScheduledTest>,
}

/// Per-statement plan cache: one plan per statement, shared by every process instance executing the statement and reused
/// across attempts and wakeup retries. Re-planning happens only when the
/// observed candidate estimates drift past the [`estimates_drifted`]
/// threshold. A stale plan is still *correct* — join order never changes
/// the solution multiset — so the cache needs no invalidation hooks on
/// store mutation.
///
/// The cell is behind an `Arc` and `Clone` shares it, so compilation can
/// hash-cons caches across *structurally identical* statements: two
/// statements with equal atom shapes, variable counts, and scheduled
/// tests plan once and reuse each other's plan (see [`PlanInterner`]).
#[derive(Clone, Default)]
pub(crate) struct PlanCache(Arc<RwLock<Option<Arc<TxnPlan>>>>);

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.0.read() {
            Ok(g) if g.is_some() => "cached",
            Ok(_) => "empty",
            Err(_) => "poisoned",
        };
        f.debug_tuple("PlanCache").field(&state).finish()
    }
}

/// Hash-cons table for [`PlanCache`] cells, scoped to one
/// [`CompiledProgram::compile`] call: statements whose plan inputs are
/// identical — variable count, atom modes and field shapes, and the
/// scheduled binding/property tests — share one cache cell, so a plan
/// built by any of them serves all of them (the paper's programs lean on
/// textually repeated transactions across process definitions). Keyed on
/// the derived `Debug` rendering of those inputs, which is a faithful
/// fingerprint of the structures.
type PlanInterner = HashMap<(usize, String), PlanCache>;

impl CompiledTxn {
    /// The execution plan for this statement's query against `source`,
    /// served from the per-statement cache when the store's candidate
    /// estimates have not drifted since it was built. Records `sdl_plan_cache_total` hit / miss /
    /// replan events on the source's metrics sink.
    pub(crate) fn plan_for(&self, atoms: &[QueryAtom], source: &dyn TupleSource) -> Arc<TxnPlan> {
        let metrics = source.metrics();
        let cached = self
            .plan_cache
            .0
            .read()
            .expect("plan cache poisoned")
            .clone();
        match cached {
            Some(c)
                if !estimates_drifted(&c.query.estimates, &estimate_positives(atoms, source)) =>
            {
                metrics.inc(Counter::PlanCacheHit);
                return c;
            }
            Some(_) => metrics.inc(Counter::PlanReplans),
            None => metrics.inc(Counter::PlanCacheMiss),
        }
        let fresh = Arc::new(self.build_plan(atoms, source));
        *self.plan_cache.0.write().expect("plan cache poisoned") = Some(fresh.clone());
        fresh
    }

    /// Builds a fresh plan: join-order the query, then re-schedule every
    /// test conjunct at the earliest plan depth where its variables are
    /// bound, with the same clamp semantics as [`compile_txn`] (unbound
    /// variables push a test to the final depth).
    fn build_plan(&self, atoms: &[QueryAtom], source: &dyn TupleSource) -> TxnPlan {
        let query = plan_query(atoms, self.n_vars, source);
        let n_pos = query.positive_count();
        let reschedule = |tests: &[ScheduledTest]| -> Vec<ScheduledTest> {
            tests
                .iter()
                .map(|t| ScheduledTest {
                    depth: query
                        .depth_for_vars(self.test_vars(&t.check))
                        .unwrap_or(usize::MAX)
                        .min(n_pos),
                    check: t.check.clone(),
                })
                .collect()
        };
        TxnPlan {
            binding_tests: reschedule(&self.binding_tests),
            property_tests: reschedule(&self.property_tests),
            query,
        }
    }

    /// The quantified variables a test conjunct depends on. Hidden-field
    /// equalities also depend on their hidden variable: the check cannot
    /// run before the field itself is bound.
    fn test_vars(&self, check: &TestCheck) -> Vec<VarId> {
        let mut vars = Vec::new();
        let from_expr = |e: &Expr, vars: &mut Vec<VarId>| {
            let mut names = Vec::new();
            e.collect_names(&mut names);
            for n in names {
                if let Some(pos) = self.var_names.iter().position(|v| v == n) {
                    vars.push(VarId(pos as u16));
                }
            }
        };
        match check {
            TestCheck::Expr(e) => from_expr(e, &mut vars),
            TestCheck::HiddenEq { var, expr } => {
                vars.push(*var);
                from_expr(expr, &mut vars);
            }
        }
        vars
    }
}

fn check_spawn(
    name: &str,
    args: usize,
    signatures: &HashMap<&str, usize>,
) -> Result<(), CompileError> {
    match signatures.get(name) {
        None => Err(CompileError::UnknownProcess(name.to_owned())),
        Some(&expected) if expected != args => Err(CompileError::ArityMismatch {
            process: name.to_owned(),
            expected,
            found: args,
        }),
        Some(_) => Ok(()),
    }
}

fn compile_process(
    def: &ProcessDef,
    signatures: &HashMap<&str, usize>,
    interner: &mut PlanInterner,
) -> Result<CompiledProcess, CompileError> {
    Ok(CompiledProcess {
        name: def.name.clone(),
        params: def.params.clone(),
        view: compile_view(def)?,
        body: compile_stmts(&def.body, signatures, interner)?,
    })
}

fn compile_view(def: &ProcessDef) -> Result<CompiledView, CompileError> {
    let compile_rules = |rules: &Option<Vec<sdl_lang::ast::ViewRule>>| -> Result<_, CompileError> {
        match rules {
            None => Ok(None),
            Some(rs) => Ok(Some(
                rs.iter()
                    .map(compile_view_rule)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
        }
    };
    Ok(CompiledView::new(
        compile_rules(&def.view.import)?,
        compile_rules(&def.view.export)?,
    ))
}

fn compile_view_rule(rule: &sdl_lang::ast::ViewRule) -> Result<CompiledViewRule, CompileError> {
    let mut vars: HashMap<&str, VarId> = HashMap::new();
    for (i, v) in rule.vars.iter().enumerate() {
        let id = VarId(u16::try_from(i).map_err(|_| CompileError::TooManyVariables(i))?);
        if vars.insert(v.as_str(), id).is_some() {
            return Err(CompileError::DuplicateVariable(v.clone()));
        }
    }
    let compile_fields = |p: &PatternExpr| -> Result<Vec<CompiledField>, CompileError> {
        p.fields
            .iter()
            .map(|f| match f {
                FieldExpr::Any => Ok(CompiledField::Any),
                FieldExpr::Expr(Expr::Name(n)) if vars.contains_key(n.as_str()) => {
                    Ok(CompiledField::Var(vars[n.as_str()]))
                }
                FieldExpr::Expr(e) => {
                    let mut names = Vec::new();
                    e.collect_names(&mut names);
                    if names.iter().any(|n| vars.contains_key(n)) {
                        Err(CompileError::Unsupported(
                            "computed expression over rule variables in a view pattern".to_owned(),
                        ))
                    } else {
                        Ok(CompiledField::Env(e.clone()))
                    }
                }
            })
            .collect()
    };
    let pattern = compile_fields(&rule.pattern)?;
    let (mut conds, mut preds) = (Vec::new(), Vec::new());
    for c in &rule.conditions {
        match c {
            CondAtom::Tuple(p) => conds.push(compile_fields(p)?),
            CondAtom::Pred(name, args) => {
                preds.push((name.clone(), args.iter().map(|a| bound(a, &vars)).collect()));
            }
        }
    }
    Ok(CompiledViewRule::new(
        rule.vars.len(),
        pattern,
        conds,
        preds,
    ))
}

fn compile_stmts(
    stmts: &[Stmt],
    signatures: &HashMap<&str, usize>,
    interner: &mut PlanInterner,
) -> Result<Arc<[CompiledStmt]>, CompileError> {
    stmts
        .iter()
        .map(|s| compile_stmt(s, signatures, interner))
        .collect::<Result<Vec<_>, _>>()
        .map(Arc::from)
}

fn compile_stmt(
    stmt: &Stmt,
    signatures: &HashMap<&str, usize>,
    interner: &mut PlanInterner,
) -> Result<CompiledStmt, CompileError> {
    Ok(match stmt {
        Stmt::Txn(t) => CompiledStmt::Txn(Arc::new(compile_txn_interned(t, signatures, interner)?)),
        Stmt::Select(b) => CompiledStmt::Select(compile_branches(b, signatures, interner)?),
        Stmt::Repeat(b) => CompiledStmt::Repeat(compile_branches(b, signatures, interner)?),
        Stmt::Replicate(b) => CompiledStmt::Replicate(compile_branches(b, signatures, interner)?),
    })
}

fn compile_branches(
    branches: &[GuardedSeq],
    signatures: &HashMap<&str, usize>,
    interner: &mut PlanInterner,
) -> Result<Arc<[CompiledBranch]>, CompileError> {
    branches
        .iter()
        .map(|b| {
            Ok(CompiledBranch {
                guard: Arc::new(compile_txn_interned(&b.guard, signatures, interner)?),
                rest: compile_stmts(&b.rest, signatures, interner)?,
            })
        })
        .collect::<Result<Vec<_>, CompileError>>()
        .map(Arc::from)
}

/// Compiles one transaction with a private plan cache (exposed for tests
/// and tooling; program compilation goes through the interning path so
/// structurally identical statements share a cache).
///
/// # Errors
///
/// See [`CompiledProgram::compile`].
pub fn compile_txn(
    t: &Transaction,
    signatures: &HashMap<&str, usize>,
) -> Result<CompiledTxn, CompileError> {
    compile_txn_interned(t, signatures, &mut PlanInterner::new())
}

fn compile_txn_interned(
    t: &Transaction,
    signatures: &HashMap<&str, usize>,
    interner: &mut PlanInterner,
) -> Result<CompiledTxn, CompileError> {
    let mut var_ids: HashMap<&str, VarId> = HashMap::new();
    for (i, v) in t.vars.iter().enumerate() {
        let id = VarId(u16::try_from(i).map_err(|_| CompileError::TooManyVariables(i))?);
        if var_ids.insert(v.as_str(), id).is_some() {
            return Err(CompileError::DuplicateVariable(v.clone()));
        }
    }
    let mut next_var = t.vars.len();
    // bind_depth[v] = positive-atom depth (1-based) at which v is first
    // bound, for declared and hidden variables alike.
    let mut bind_depth: HashMap<VarId, usize> = HashMap::new();

    let mut atoms = Vec::new();
    let mut binding_tests = Vec::new();
    let mut positive_depth = 0usize;

    // Depth at which every variable of `e` is bound (None if some
    // variable is never bound by a positive atom).
    let depth_of =
        |e: &Expr, var_ids: &HashMap<&str, VarId>, bind_depth: &HashMap<VarId, usize>| {
            let mut names = Vec::new();
            e.collect_names(&mut names);
            let mut depth = 0usize;
            for n in names {
                if let Some(id) = var_ids.get(n) {
                    match bind_depth.get(id) {
                        Some(d) => depth = depth.max(*d),
                        None => return None,
                    }
                }
            }
            Some(depth)
        };

    for atom in &t.atoms {
        match atom {
            TxnAtom::Tuple { pattern, retract } => {
                positive_depth += 1;
                let mode = if *retract {
                    AtomMode::Retract
                } else {
                    AtomMode::Read
                };
                let mut fields = Vec::with_capacity(pattern.fields.len());
                for field in &pattern.fields {
                    fields.push(match field {
                        FieldExpr::Any => CompiledField::Any,
                        FieldExpr::Expr(Expr::Name(n)) if var_ids.contains_key(n.as_str()) => {
                            let id = var_ids[n.as_str()];
                            bind_depth.entry(id).or_insert(positive_depth);
                            CompiledField::Var(id)
                        }
                        FieldExpr::Expr(e) => {
                            let mut names = Vec::new();
                            e.collect_names(&mut names);
                            if names.iter().any(|n| var_ids.contains_key(n)) {
                                // Computed field over quantified variables:
                                // hidden variable + equality constraint.
                                let hid = VarId(
                                    u16::try_from(next_var)
                                        .map_err(|_| CompileError::TooManyVariables(next_var))?,
                                );
                                next_var += 1;
                                bind_depth.insert(hid, positive_depth);
                                let depth = depth_of(e, &var_ids, &bind_depth)
                                    .unwrap_or(usize::MAX)
                                    .max(positive_depth);
                                binding_tests.push(ScheduledTest {
                                    depth,
                                    check: TestCheck::HiddenEq {
                                        var: hid,
                                        expr: bound(e, &var_ids),
                                    },
                                });
                                CompiledField::Var(hid)
                            } else {
                                CompiledField::Env(e.clone())
                            }
                        }
                    });
                }
                atoms.push(CompiledAtom { fields, mode });
            }
            TxnAtom::Neg(pattern) => {
                let mut fields = Vec::with_capacity(pattern.fields.len());
                for field in &pattern.fields {
                    fields.push(match field {
                        FieldExpr::Any => CompiledField::Any,
                        FieldExpr::Expr(Expr::Name(n)) if var_ids.contains_key(n.as_str()) => {
                            CompiledField::Var(var_ids[n.as_str()])
                        }
                        FieldExpr::Expr(e) => {
                            let mut names = Vec::new();
                            e.collect_names(&mut names);
                            if names.iter().any(|n| var_ids.contains_key(n)) {
                                return Err(CompileError::Unsupported(
                                    "computed expression over quantified variables in a \
                                     negated pattern"
                                        .to_owned(),
                                ));
                            }
                            CompiledField::Env(e.clone())
                        }
                    });
                }
                atoms.push(CompiledAtom {
                    fields,
                    mode: AtomMode::Neg,
                });
            }
            TxnAtom::Pred {
                name,
                args,
                negated,
            } => {
                let call = Expr::Call(name.clone(), args.clone());
                let expr = if *negated {
                    Expr::Unary(sdl_lang::ast::UnOp::Not, Box::new(call))
                } else {
                    call
                };
                let depth = depth_of(&expr, &var_ids, &bind_depth).unwrap_or(usize::MAX);
                binding_tests.push(ScheduledTest {
                    depth,
                    check: TestCheck::Expr(bound(&expr, &var_ids)),
                });
            }
        }
    }

    // Any test scheduled past the deepest atom (variables bound later than
    // declaration order allowed, or never) clamps to the final depth.
    let clamp = |tests: &mut Vec<ScheduledTest>| {
        for t in tests {
            if t.depth == usize::MAX || t.depth > positive_depth {
                t.depth = positive_depth;
            }
        }
    };
    clamp(&mut binding_tests);

    let mut property_tests = Vec::new();
    if let Some(test) = &t.test {
        for conjunct in test.conjuncts() {
            let depth = depth_of(conjunct, &var_ids, &bind_depth)
                .unwrap_or(usize::MAX)
                .min(positive_depth);
            property_tests.push(ScheduledTest {
                depth,
                check: TestCheck::Expr(bound(conjunct, &var_ids)),
            });
        }
    }

    let mut actions = Vec::new();
    for action in &t.actions {
        // Spawn targets are checked at compile time.
        if let Action::Spawn(name, args) = action {
            check_spawn(name, args.len(), signatures)?;
        }
        let per_solution = action_refs_vars(action, &var_ids);
        let of = |e: &Expr| bound(e, &var_ids);
        actions.push(CompiledAction {
            action: match action {
                Action::Assert(fields) => Action::Assert(fields.iter().map(of).collect()),
                Action::Let(name, e) => Action::Let(name.clone(), of(e)),
                Action::Spawn(name, args) => {
                    Action::Spawn(name.clone(), args.iter().map(of).collect())
                }
                Action::Skip | Action::Exit | Action::Abort => action.clone(),
            },
            per_solution,
        });
    }

    // Hash-cons the plan cache on everything a plan is built from: two
    // statements with equal fingerprints produce byte-identical plans,
    // so they can safely serve each other's cached plan. The derived
    // `Debug` output is a faithful rendering of the structures (any
    // difference in atoms or tests shows up in the string).
    let fingerprint = format!("{atoms:?}|{binding_tests:?}|{property_tests:?}");
    let plan_cache = interner.entry((next_var, fingerprint)).or_default().clone();

    Ok(CompiledTxn {
        quant: t.quant,
        kind: t.kind,
        n_vars: next_var,
        var_names: t.vars.clone(),
        atoms,
        binding_tests,
        property_tests,
        actions,
        plan_cache,
    })
}

/// `e` with its quantified-variable names resolved to their indices, so
/// evaluation reads a binding by position instead of comparing names.
fn bound(e: &Expr, var_ids: &HashMap<&str, VarId>) -> Expr {
    let mut e = e.clone();
    e.bind_vars(&|n| var_ids.get(n).copied());
    e
}

fn action_refs_vars(action: &Action, var_ids: &HashMap<&str, VarId>) -> bool {
    let exprs: Vec<&Expr> = match action {
        Action::Assert(fields) => fields.iter().collect(),
        Action::Let(_, e) => vec![e],
        Action::Spawn(_, args) => args.iter().collect(),
        Action::Skip | Action::Exit | Action::Abort => return false,
    };
    let mut names = Vec::new();
    for e in exprs {
        e.collect_names(&mut names);
    }
    names.iter().any(|n| var_ids.contains_key(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_lang::{parse_program, parse_transaction};

    fn sigs() -> HashMap<&'static str, usize> {
        let mut m = HashMap::new();
        m.insert("Sum1", 2);
        m
    }

    fn compile(src: &str) -> CompiledTxn {
        compile_txn(&parse_transaction(src).unwrap(), &sigs()).unwrap()
    }

    #[test]
    fn variables_are_numbered_in_declaration_order() {
        let t = compile("exists a, b : <k, a>, <k, b> -> skip");
        assert_eq!(t.n_vars, 2);
        assert_eq!(t.var_names, vec!["a", "b"]);
        assert!(matches!(t.atoms[0].fields[1], CompiledField::Var(VarId(0))));
        assert!(matches!(t.atoms[1].fields[1], CompiledField::Var(VarId(1))));
    }

    #[test]
    fn env_expression_fields_stay_expressions() {
        // k and j are process constants here, not quantified.
        let t = compile("exists a : <k - 2^(j-1), a> -> skip");
        assert!(matches!(t.atoms[0].fields[0], CompiledField::Env(_)));
        assert!(t.binding_tests.is_empty());
    }

    #[test]
    fn computed_field_over_variables_becomes_hidden_eq() {
        // a is quantified; <a + 1, b> needs a hidden variable.
        let t = compile("exists a, b : <x, a>, <a + 1, b> -> skip");
        assert_eq!(t.n_vars, 3, "two declared + one hidden");
        assert_eq!(t.binding_tests.len(), 1);
        match &t.binding_tests[0].check {
            TestCheck::HiddenEq { var, .. } => assert_eq!(*var, VarId(2)),
            other => panic!("expected HiddenEq, got {other:?}"),
        }
        // Hidden eq runs at depth 2 (a bound at depth 1, hidden at 2).
        assert_eq!(t.binding_tests[0].depth, 2);
    }

    #[test]
    fn predicate_atoms_become_binding_tests() {
        let t = compile("exists p, q : neighbor(p, q), <t, p>, <t, q> -> skip");
        assert_eq!(t.atoms.len(), 2);
        assert_eq!(t.binding_tests.len(), 1);
        // p bound at depth 1, q at depth 2 → neighbor runs at depth 2.
        assert_eq!(t.binding_tests[0].depth, 2);
    }

    #[test]
    fn property_tests_scheduled_at_bind_depth() {
        let t = compile("exists a, b : <x, a>, <y, b> : a > 1 and b > 2 and 1 == 1 -> skip");
        assert_eq!(t.property_tests.len(), 3);
        assert_eq!(t.property_tests[0].depth, 1, "a bound at depth 1");
        assert_eq!(t.property_tests[1].depth, 2, "b bound at depth 2");
        assert_eq!(t.property_tests[2].depth, 0, "constant test up front");
    }

    #[test]
    fn unbound_variable_test_clamps_to_final_depth() {
        let t = compile("exists a, z : <x, a> : z > 1 -> skip");
        assert_eq!(t.property_tests[0].depth, 1, "clamped to positive count");
    }

    #[test]
    fn negated_pattern_with_computed_variable_field_is_unsupported() {
        let r = compile_txn(
            &parse_transaction("exists a : <x, a>, not <done, a + 1> -> skip").unwrap(),
            &sigs(),
        );
        assert!(matches!(r, Err(CompileError::Unsupported(_))));
    }

    #[test]
    fn duplicate_variable_is_an_error() {
        let r = compile_txn(
            &parse_transaction("exists a, a : <x, a> -> skip").unwrap(),
            &sigs(),
        );
        assert_eq!(r.unwrap_err(), CompileError::DuplicateVariable("a".into()));
    }

    #[test]
    fn spawn_arity_checked_at_compile_time() {
        let r = compile_txn(&parse_transaction("-> spawn Sum1(1)").unwrap(), &sigs());
        assert!(matches!(r, Err(CompileError::ArityMismatch { .. })));
        let r2 = compile_txn(&parse_transaction("-> spawn Nope()").unwrap(), &sigs());
        assert_eq!(r2.unwrap_err(), CompileError::UnknownProcess("Nope".into()));
    }

    #[test]
    fn per_solution_actions_flagged() {
        let t = compile("forall a : <x, a>! -> <y, a>, <constant>");
        assert!(t.actions[0].per_solution);
        assert!(!t.actions[1].per_solution);
    }

    #[test]
    fn program_compiles_with_views() {
        let prog = parse_program(
            r#"
            process Sort(this, next) {
                import { <this, *>; <next, *>; }
                export { <this, *>; <next, *>; }
                loop {
                    exists a, b : <this, a>!, <next, b>! : a > b
                        -> <this, b>, <next, a>
                }
            }
            init { <1, 5>; spawn Sort(1, 2); }
            "#,
        )
        .unwrap();
        let c = CompiledProgram::compile(&prog).unwrap();
        let def = c.def("Sort").unwrap();
        assert!(!def.view.imports_everything());
        assert_eq!(c.init_tuples.len(), 1);
        assert_eq!(c.init_spawns.len(), 1);
        assert_eq!(c.defs().count(), 1);
    }

    #[test]
    fn structurally_identical_statements_share_one_plan_cache() {
        let prog = parse_program(
            r#"
            process P() { exists a : <x, a>, <y, a> -> skip; }
            process Q() { exists a : <x, a>, <y, a> -> skip; }
            process R() { exists a : <x, a>, <z, a> -> skip; }
            init { <x, 1>; <y, 1>; spawn P(); spawn Q(); }
            "#,
        )
        .unwrap();
        let c = CompiledProgram::compile(&prog).unwrap();
        let txn = |name: &str| match &c.def(name).unwrap().body[0] {
            CompiledStmt::Txn(t) => Arc::clone(t),
            other => panic!("expected txn, got {other:?}"),
        };
        let (p, q, r) = (txn("P"), txn("Q"), txn("R"));
        assert!(
            Arc::ptr_eq(&p.plan_cache.0, &q.plan_cache.0),
            "identical statements share one cache cell"
        );
        assert!(
            !Arc::ptr_eq(&p.plan_cache.0, &r.plan_cache.0),
            "different statements keep their own"
        );

        // End-to-end: the shared cell means the statement is planned
        // once across both processes — one miss, then hits.
        use sdl_metrics::Metrics;
        let (m, reg) = Metrics::registry();
        let mut rt = crate::sched::Runtime::builder(c)
            .metrics(m)
            .build()
            .unwrap();
        rt.run().unwrap();
        assert_eq!(reg.counter(Counter::PlanCacheMiss), 1, "planned once");
        assert!(
            reg.counter(Counter::PlanCacheHit) >= 1,
            "the twin statement reused the shared plan"
        );
    }

    #[test]
    fn duplicate_process_rejected() {
        let prog = parse_program("process P() { -> skip; } process P() { -> skip; }").unwrap();
        assert_eq!(
            CompiledProgram::compile(&prog).unwrap_err(),
            CompileError::DuplicateProcess("P".into())
        );
    }

    #[test]
    fn init_spawn_arity_checked() {
        let prog = parse_program("process P(a) { -> skip; } init { spawn P(); }").unwrap();
        assert!(matches!(
            CompiledProgram::compile(&prog).unwrap_err(),
            CompileError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn from_source_convenience() {
        assert!(CompiledProgram::from_source("process P() { -> skip; }").is_ok());
        assert!(CompiledProgram::from_source("process P( {").is_err());
        assert!(CompiledProgram::from_source("init { spawn Q(); }").is_err());
    }
}
