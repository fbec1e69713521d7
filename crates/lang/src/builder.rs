//! Programmatic construction of SDL ASTs.
//!
//! Examples and benchmarks generate programs whose size depends on a
//! parameter (an array of `N` entries, an `S×S` image); writing source
//! text and re-parsing it would be wasteful, so this module offers a small
//! builder layer over [`crate::ast`].
//!
//! ```
//! use sdl_lang::builder::{txn, pat, e};
//!
//! // ∃α,β: <k-1, α>↑, <k, β>↑ ⇒ <k, α+β>
//! let t = txn()
//!     .exists(["a", "b"])
//!     .retract(pat().field(e::sub(e::name("k"), e::int(1))).var("a"))
//!     .retract(pat().var("k_is_const_so_name").var("b"))
//!     .delayed()
//!     .assert_tuple([e::name("k"), e::add(e::name("a"), e::name("b"))])
//!     .build();
//! assert_eq!(t.vars.len(), 2);
//! ```

use sdl_tuple::Value;

use crate::ast::*;

/// Expression construction helpers.
pub mod e {
    use super::*;

    /// Integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// Boolean literal.
    pub fn boolean(b: bool) -> Expr {
        Expr::Lit(Value::Bool(b))
    }

    /// Value literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    /// A name (variable, constant, or atom — classified by the compiler).
    pub fn name(n: &str) -> Expr {
        Expr::name(n)
    }

    /// Built-in call.
    pub fn call(n: &str, args: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Call(n.to_owned(), args.into_iter().collect())
    }

    /// `l + r`
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Add, l, r)
    }

    /// `l - r`
    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Sub, l, r)
    }

    /// `l * r`
    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mul, l, r)
    }

    /// `l mod r`
    pub fn rem(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mod, l, r)
    }

    /// `l ^ r`
    pub fn pow(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Pow, l, r)
    }

    /// `l == r`
    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Eq, l, r)
    }

    /// `l != r`
    pub fn ne(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Ne, l, r)
    }

    /// `l < r`
    pub fn lt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Lt, l, r)
    }

    /// `l <= r`
    pub fn le(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Le, l, r)
    }

    /// `l > r`
    pub fn gt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Gt, l, r)
    }

    /// `l >= r`
    pub fn ge(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Ge, l, r)
    }

    /// `l and r`
    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::And, l, r)
    }

    /// `l or r`
    pub fn or(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Or, l, r)
    }
}

/// Starts a [`PatternBuilder`].
pub fn pat() -> PatternBuilder {
    PatternBuilder::default()
}

/// Builds a [`PatternExpr`] field by field.
#[derive(Clone, Debug, Default)]
pub struct PatternBuilder {
    fields: Vec<FieldExpr>,
}

impl PatternBuilder {
    /// Appends a wildcard (`*`).
    pub fn any(mut self) -> PatternBuilder {
        self.fields.push(FieldExpr::Any);
        self
    }

    /// Appends an expression field.
    pub fn field(mut self, e: Expr) -> PatternBuilder {
        self.fields.push(FieldExpr::Expr(e));
        self
    }

    /// Appends a name field (variable/constant/atom).
    pub fn var(self, name: &str) -> PatternBuilder {
        self.field(Expr::name(name))
    }

    /// Appends an atom-name field (same as [`PatternBuilder::var`]; reads
    /// better for symbols like `label`).
    pub fn atom(self, name: &str) -> PatternBuilder {
        self.var(name)
    }

    /// Appends an integer field.
    pub fn int(self, i: i64) -> PatternBuilder {
        self.field(Expr::int(i))
    }

    /// Finishes the pattern.
    pub fn build(self) -> PatternExpr {
        PatternExpr::new(self.fields)
    }
}

impl From<PatternBuilder> for PatternExpr {
    fn from(b: PatternBuilder) -> PatternExpr {
        b.build()
    }
}

/// Starts a [`TxnBuilder`].
pub fn txn() -> TxnBuilder {
    TxnBuilder::default()
}

/// Builds a [`Transaction`].
#[derive(Clone, Debug, Default)]
pub struct TxnBuilder {
    t: Transaction,
}

impl TxnBuilder {
    /// Declares existentially quantified variables.
    pub fn exists<'a>(mut self, vars: impl IntoIterator<Item = &'a str>) -> TxnBuilder {
        self.t.quant = Quant::Exists;
        self.t.vars.extend(vars.into_iter().map(str::to_owned));
        self
    }

    /// Declares universally quantified variables.
    pub fn forall<'a>(mut self, vars: impl IntoIterator<Item = &'a str>) -> TxnBuilder {
        self.t.quant = Quant::Forall;
        self.t.vars.extend(vars.into_iter().map(str::to_owned));
        self
    }

    /// Adds a read atom.
    pub fn read(mut self, p: impl Into<PatternExpr>) -> TxnBuilder {
        self.t.atoms.push(TxnAtom::Tuple {
            pattern: p.into(),
            retract: false,
        });
        self
    }

    /// Adds a retract-tagged atom (`↑` / `!`).
    pub fn retract(mut self, p: impl Into<PatternExpr>) -> TxnBuilder {
        self.t.atoms.push(TxnAtom::Tuple {
            pattern: p.into(),
            retract: true,
        });
        self
    }

    /// Adds a negated atom (`¬` / `not`).
    pub fn neg(mut self, p: impl Into<PatternExpr>) -> TxnBuilder {
        self.t.atoms.push(TxnAtom::Neg(p.into()));
        self
    }

    /// Adds a predicate atom, e.g. `neighbor(p, r)`.
    pub fn pred(mut self, name: &str, args: impl IntoIterator<Item = Expr>) -> TxnBuilder {
        self.t.atoms.push(TxnAtom::Pred {
            name: name.to_owned(),
            args: args.into_iter().collect(),
            negated: false,
        });
        self
    }

    /// Sets (replaces) the test query.
    pub fn test(mut self, e: Expr) -> TxnBuilder {
        self.t.test = Some(match self.t.test.take() {
            Some(prev) => Expr::bin(BinOp::And, prev, e),
            None => e,
        });
        self
    }

    /// Marks the transaction immediate (`->`, the default).
    pub fn immediate(mut self) -> TxnBuilder {
        self.t.kind = TxnKind::Immediate;
        self
    }

    /// Marks the transaction delayed (`=>`).
    pub fn delayed(mut self) -> TxnBuilder {
        self.t.kind = TxnKind::Delayed;
        self
    }

    /// Marks the transaction consensus (`@>`).
    pub fn consensus(mut self) -> TxnBuilder {
        self.t.kind = TxnKind::Consensus;
        self
    }

    /// Adds an assertion action.
    pub fn assert_tuple(mut self, fields: impl IntoIterator<Item = Expr>) -> TxnBuilder {
        self.t
            .actions
            .push(Action::Assert(fields.into_iter().collect()));
        self
    }

    /// Adds a `let` action.
    pub fn let_const(mut self, name: &str, e: Expr) -> TxnBuilder {
        self.t.actions.push(Action::Let(name.to_owned(), e));
        self
    }

    /// Adds a `spawn` action.
    pub fn spawn(mut self, name: &str, args: impl IntoIterator<Item = Expr>) -> TxnBuilder {
        self.t
            .actions
            .push(Action::Spawn(name.to_owned(), args.into_iter().collect()));
        self
    }

    /// Adds a `skip` action.
    pub fn skip(mut self) -> TxnBuilder {
        self.t.actions.push(Action::Skip);
        self
    }

    /// Adds an `exit` action.
    pub fn exit(mut self) -> TxnBuilder {
        self.t.actions.push(Action::Exit);
        self
    }

    /// Adds an `abort` action.
    pub fn abort(mut self) -> TxnBuilder {
        self.t.actions.push(Action::Abort);
        self
    }

    /// Finishes the transaction.
    pub fn build(self) -> Transaction {
        self.t
    }
}

/// Starts a [`ProcessBuilder`].
pub fn process(name: &str) -> ProcessBuilder {
    ProcessBuilder {
        def: ProcessDef {
            name: name.to_owned(),
            params: Vec::new(),
            view: ViewDef::full(),
            body: Vec::new(),
        },
    }
}

/// Builds a [`ProcessDef`].
#[derive(Clone, Debug)]
pub struct ProcessBuilder {
    def: ProcessDef,
}

impl ProcessBuilder {
    /// Declares parameters.
    pub fn params<'a>(mut self, params: impl IntoIterator<Item = &'a str>) -> ProcessBuilder {
        self.def
            .params
            .extend(params.into_iter().map(str::to_owned));
        self
    }

    /// Adds an unconditional import rule.
    pub fn import(mut self, p: impl Into<PatternExpr>) -> ProcessBuilder {
        self.def
            .view
            .import
            .get_or_insert_with(Vec::new)
            .push(ViewRule::unconditional(p.into()));
        self
    }

    /// Adds a full import rule.
    pub fn import_rule(mut self, rule: ViewRule) -> ProcessBuilder {
        self.def.view.import.get_or_insert_with(Vec::new).push(rule);
        self
    }

    /// Adds an unconditional export rule.
    pub fn export(mut self, p: impl Into<PatternExpr>) -> ProcessBuilder {
        self.def
            .view
            .export
            .get_or_insert_with(Vec::new)
            .push(ViewRule::unconditional(p.into()));
        self
    }

    /// Adds a full export rule.
    pub fn export_rule(mut self, rule: ViewRule) -> ProcessBuilder {
        self.def.view.export.get_or_insert_with(Vec::new).push(rule);
        self
    }

    /// Appends a transaction statement.
    pub fn txn(mut self, t: Transaction) -> ProcessBuilder {
        self.def.body.push(Stmt::Txn(t));
        self
    }

    /// Appends a statement.
    pub fn stmt(mut self, s: Stmt) -> ProcessBuilder {
        self.def.body.push(s);
        self
    }

    /// Appends a selection over guarded sequences.
    pub fn select(mut self, branches: Vec<GuardedSeq>) -> ProcessBuilder {
        self.def.body.push(Stmt::Select(branches));
        self
    }

    /// Appends a repetition over guarded sequences.
    pub fn repeat(mut self, branches: Vec<GuardedSeq>) -> ProcessBuilder {
        self.def.body.push(Stmt::Repeat(branches));
        self
    }

    /// Appends a replication over guarded sequences.
    pub fn replicate(mut self, branches: Vec<GuardedSeq>) -> ProcessBuilder {
        self.def.body.push(Stmt::Replicate(branches));
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> ProcessDef {
        self.def
    }
}

/// A guarded sequence from a guard and trailing statements.
pub fn guarded(guard: Transaction, rest: Vec<Stmt>) -> GuardedSeq {
    GuardedSeq { guard, rest }
}

/// A guard with no trailing statements.
pub fn guard_only(guard: Transaction) -> GuardedSeq {
    GuardedSeq {
        guard,
        rest: Vec::new(),
    }
}

/// Starts a [`ProgramBuilder`].
pub fn program() -> ProgramBuilder {
    ProgramBuilder {
        p: Program::default(),
    }
}

/// Builds a [`Program`].
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    p: Program,
}

impl ProgramBuilder {
    /// Adds a process definition.
    pub fn process(mut self, def: ProcessDef) -> ProgramBuilder {
        self.p.processes.push(def);
        self
    }

    /// Adds an initial tuple (ground expressions).
    pub fn init_tuple(mut self, fields: impl IntoIterator<Item = Expr>) -> ProgramBuilder {
        self.p.init.tuples.push(fields.into_iter().collect());
        self
    }

    /// Adds an initial process.
    pub fn init_spawn(
        mut self,
        name: &str,
        args: impl IntoIterator<Item = Expr>,
    ) -> ProgramBuilder {
        self.p.init.spawns.push(SpawnSpec {
            name: name.to_owned(),
            args: args.into_iter().collect(),
        });
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_transaction;

    #[test]
    fn builder_matches_parser() {
        let built = txn()
            .exists(["a"])
            .retract(pat().atom("year").var("a"))
            .test(e::gt(e::name("a"), e::int(87)))
            .immediate()
            .let_const("N", e::name("a"))
            .assert_tuple([e::name("found"), e::name("a")])
            .build();
        let parsed =
            parse_transaction("exists a : <year, a>! : a > 87 -> let N = a, <found, a>").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn test_conjunction_accumulates() {
        let t = txn()
            .test(e::gt(e::name("a"), e::int(1)))
            .test(e::lt(e::name("a"), e::int(5)))
            .immediate()
            .skip()
            .build();
        assert_eq!(t.test.unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn process_builder() {
        let def = process("Sort")
            .params(["this", "next"])
            .import(pat().var("this").any().any().any())
            .export(pat().var("this").any().any().any())
            .repeat(vec![guard_only(
                txn()
                    .exists(["n1", "n2"])
                    .retract(pat().var("this").var("n1"))
                    .retract(pat().var("next").var("n2"))
                    .test(e::gt(e::name("n1"), e::name("n2")))
                    .immediate()
                    .assert_tuple([e::name("this"), e::name("n2")])
                    .assert_tuple([e::name("next"), e::name("n1")])
                    .build(),
            )])
            .build();
        assert_eq!(def.params.len(), 2);
        assert!(def.view.import.is_some());
        assert_eq!(def.body.len(), 1);
    }

    #[test]
    fn program_builder_roundtrips_through_pretty_printer() {
        let p = program()
            .process(process("P").txn(txn().immediate().skip().build()).build())
            .init_tuple([e::int(1), e::int(10)])
            .init_spawn("P", [])
            .build();
        let reparsed = crate::parser::parse_program(&p.to_string()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn expression_helpers() {
        use sdl_tuple::Value;
        assert_eq!(e::int(3), Expr::Lit(Value::Int(3)));
        assert_eq!(e::boolean(true), Expr::Lit(Value::Bool(true)));
        let c = e::call("neighbor", [e::name("p"), e::name("r")]);
        assert!(matches!(c, Expr::Call(n, a) if n == "neighbor" && a.len() == 2));
        for op_expr in [
            e::add(e::int(1), e::int(2)),
            e::sub(e::int(1), e::int(2)),
            e::mul(e::int(1), e::int(2)),
            e::rem(e::int(1), e::int(2)),
            e::pow(e::int(1), e::int(2)),
            e::eq(e::int(1), e::int(2)),
            e::ne(e::int(1), e::int(2)),
            e::lt(e::int(1), e::int(2)),
            e::le(e::int(1), e::int(2)),
            e::gt(e::int(1), e::int(2)),
            e::ge(e::int(1), e::int(2)),
            e::and(e::boolean(true), e::boolean(false)),
            e::or(e::boolean(true), e::boolean(false)),
        ] {
            assert!(matches!(op_expr, Expr::Binary(..)));
        }
    }
}
