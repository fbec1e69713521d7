//! Abstract syntax of SDL programs.
//!
//! The AST is purely syntactic: names are strings, classified only later
//! (by `sdl-core`'s compiler) into quantified variables, process constants
//! (parameters and `let` bindings), or atom literals — mirroring the
//! paper's convention of Greek letters for quantified variables, lower case
//! for constants, and upper case for named constants.

use std::fmt;

use sdl_tuple::{Atom, Value, VarId};

/// A complete SDL program: process definitions plus an optional initial
/// configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// The static set of process definitions.
    pub processes: Vec<ProcessDef>,
    /// Initial dataspace tuples and initial process society.
    pub init: InitBlock,
}

impl Program {
    /// Looks up a process definition by name.
    pub fn process(&self, name: &str) -> Option<&ProcessDef> {
        self.processes.iter().find(|p| p.name == name)
    }
}

/// The initial configuration: tuples asserted by the environment and the
/// initial process society.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InitBlock {
    /// Ground tuple expressions asserted before execution starts.
    pub tuples: Vec<Vec<Expr>>,
    /// Initial process instantiations.
    pub spawns: Vec<SpawnSpec>,
}

/// One process instantiation: `Sum1(2, 1)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpawnSpec {
    /// Process definition name.
    pub name: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

/// A parameterised process definition.
///
/// ```text
/// PROCESS type_name(parameters)
///   IMPORT import_definitions
///   EXPORT export_definitions
///   BEHAVIOR sequence_of_statements
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessDef {
    /// Type name, e.g. `Sum1`.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// The process view (import/export rule sets).
    pub view: ViewDef,
    /// The behaviour: a sequence of statements.
    pub body: Vec<Stmt>,
}

/// A view definition: which tuples the process may see/retract (import)
/// and which it may add (export).
///
/// `None` means the view is unrestricted in that direction — the paper
/// omits the view "whenever it covers the entire dataspace".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewDef {
    /// Import rules; `None` imports everything.
    pub import: Option<Vec<ViewRule>>,
    /// Export rules; `None` exports everything.
    pub export: Option<Vec<ViewRule>>,
}

impl ViewDef {
    /// The unrestricted view.
    pub fn full() -> ViewDef {
        ViewDef::default()
    }

    /// True if both directions are unrestricted.
    pub fn is_full(&self) -> bool {
        self.import.is_none() && self.export.is_none()
    }
}

/// One import/export rule:
/// `forall vars : conditions => pattern`.
///
/// The rule denotes the set of tuples matching `pattern` for some
/// assignment of `vars` under which every condition holds **in the current
/// dataspace** — SDL "allows the view to depend upon the current
/// configuration of the dataspace" (used by the `Label` process of §3.3).
/// Unconditional rules (`conditions` empty) denote plain pattern sets.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewRule {
    /// Quantified variable names local to the rule.
    pub vars: Vec<String>,
    /// Conditions over the current dataspace.
    pub conditions: Vec<CondAtom>,
    /// The imported/exported tuple shape.
    pub pattern: PatternExpr,
}

impl ViewRule {
    /// An unconditional rule covering `pattern`.
    pub fn unconditional(pattern: PatternExpr) -> ViewRule {
        ViewRule {
            vars: Vec::new(),
            conditions: Vec::new(),
            pattern,
        }
    }
}

/// A condition inside a view rule.
#[derive(Clone, Debug, PartialEq)]
pub enum CondAtom {
    /// A tuple matching this pattern must exist in the dataspace.
    Tuple(PatternExpr),
    /// A built-in predicate must hold, e.g. `neighbor(p, r)`.
    Pred(String, Vec<Expr>),
}

/// A syntactic tuple pattern: a sequence of field expressions.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternExpr {
    /// The fields.
    pub fields: Vec<FieldExpr>,
}

impl PatternExpr {
    /// Builds a pattern from fields.
    pub fn new(fields: Vec<FieldExpr>) -> PatternExpr {
        PatternExpr { fields }
    }
}

/// One field of a syntactic pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldExpr {
    /// The wildcard `*`.
    Any,
    /// Any expression: a literal, a name (variable / constant / atom —
    /// resolved by the compiler), or arithmetic such as `k - 2^(j-1)`.
    Expr(Expr),
}

/// A statement of a process behaviour.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// A single transaction.
    Txn(Transaction),
    /// Selection: at most one guarded sequence commits; if none can, the
    /// construct acts as `skip` (unless a delayed/consensus guard forces
    /// blocking).
    Select(Vec<GuardedSeq>),
    /// Repetition: selection restarted after each committed branch;
    /// terminates when a pass selects nothing or on `exit`.
    Repeat(Vec<GuardedSeq>),
    /// Replication (`≡` / `par`): unbounded concurrent copies of each
    /// guarded sequence; terminates when all copies finish and no guard
    /// can fire.
    Replicate(Vec<GuardedSeq>),
}

/// A guarded sequence: a guarding transaction followed by statements.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedSeq {
    /// The guarding transaction.
    pub guard: Transaction,
    /// The rest of the sequence, executed if the guard commits.
    pub rest: Vec<Stmt>,
}

/// Quantifier of a transaction query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Quant {
    /// `∃` — first solution commits.
    #[default]
    Exists,
    /// `∀` — the transaction succeeds iff every solution of the binding
    /// query satisfies the test; effects apply to every solution.
    Forall,
}

/// The operational mode of a transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// `->` (`→`): evaluate once; succeed or fail.
    #[default]
    Immediate,
    /// `=>` (`⇒`): block until a successful evaluation is possible.
    Delayed,
    /// `@>` (`⇑`): participate in an n-way consensus among the issuer's
    /// consensus set; commits as part of a composite transaction.
    Consensus,
}

/// One atom of a transaction's binding query.
#[derive(Clone, Debug, PartialEq)]
pub enum TxnAtom {
    /// A tuple pattern; `retract` marks the paper's `↑` tag (our `!`).
    Tuple {
        /// The pattern.
        pattern: PatternExpr,
        /// Retract the matched instance on commit.
        retract: bool,
    },
    /// A negated pattern (`¬`): no visible tuple may match.
    Neg(PatternExpr),
    /// A built-in predicate in query position, e.g. `neighbor(ρ1, ρ2)`.
    /// Semantically a test conjunct; the compiler schedules it as early as
    /// its variables allow, so it prunes the join like the paper intends.
    Pred {
        /// Predicate name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// True if prefixed with `not`.
        negated: bool,
    },
}

/// An action in a transaction's action list.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Assert a tuple built from the expressions.
    Assert(Vec<Expr>),
    /// Bind a process-scope constant: `let N = α`.
    Let(String, Expr),
    /// Create a process: `Statistics(α)`.
    Spawn(String, Vec<Expr>),
    /// No effect.
    Skip,
    /// Terminate the innermost enclosing repetition/replication (or the
    /// behaviour, if none).
    Exit,
    /// Terminate the issuing process.
    Abort,
}

/// An SDL transaction.
///
/// ```text
/// quantifier variable_list : binding_query : test_query TAG action_list
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Transaction {
    /// Quantifier (`exists` by default).
    pub quant: Quant,
    /// Quantified variable names.
    pub vars: Vec<String>,
    /// The binding query.
    pub atoms: Vec<TxnAtom>,
    /// The test query (a boolean expression), if any.
    pub test: Option<Expr>,
    /// Immediate, delayed, or consensus.
    pub kind: TxnKind,
    /// Actions applied on success.
    pub actions: Vec<Action>,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division on ints)
    Div,
    /// `mod`
    Mod,
    /// `^` (exponentiation)
    Pow,
    /// `==`
    Eq,
    /// `!=` (`≠`)
    Ne,
    /// `<`
    Lt,
    /// `<=` (`≤`)
    Le,
    /// `>`
    Gt,
    /// `>=` (`≥`)
    Ge,
    /// `and` (`&`)
    And,
    /// `or` (`|`)
    Or,
}

impl BinOp {
    /// True for operators producing booleans from comparisons.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation (`not`, `~`).
    Not,
}

/// A name as written, its spelling interned when parsed: should it turn
/// out to be an atom literal, evaluation copies the atom instead of
/// taking the interner's lock on every use.
#[derive(Clone, PartialEq, Eq)]
pub struct Name {
    text: String,
    atom: Atom,
}

impl Name {
    /// Interns `text`.
    pub fn new(text: &str) -> Name {
        Name {
            text: text.to_owned(),
            atom: Atom::new(text),
        }
    }

    /// The spelling.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The atom this name denotes when nothing else binds it.
    pub fn atom(&self) -> Atom {
        self.atom
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.text)
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal value (integer, float, boolean, string).
    Lit(Value),
    /// A name: quantified variable, process constant, or atom literal —
    /// classified by the compiler.
    Name(Name),
    /// A name the compiler classified as a quantified variable
    /// ([`Expr::bind_vars`]): evaluation reads the binding by index. The
    /// parser never produces this.
    Var(VarId, Name),
    /// Unary application.
    Unary(UnOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function or predicate call, e.g. `neighbor(p, r)`.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// Name shorthand.
    pub fn name(n: &str) -> Expr {
        Expr::Name(Name::new(n))
    }

    /// Applies a binary operator.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Turns every name `var_of` resolves into an [`Expr::Var`].
    pub fn bind_vars(&mut self, var_of: &dyn Fn(&str) -> Option<VarId>) {
        match self {
            Expr::Lit(_) | Expr::Var(..) => {}
            Expr::Name(n) => {
                if let Some(v) = var_of(n.as_str()) {
                    *self = Expr::Var(v, n.clone());
                }
            }
            Expr::Unary(_, e) => e.bind_vars(var_of),
            Expr::Binary(_, l, r) => {
                l.bind_vars(var_of);
                r.bind_vars(var_of);
            }
            Expr::Call(_, args) => args.iter_mut().for_each(|a| a.bind_vars(var_of)),
        }
    }

    /// Collects every name occurring in the expression into `out` (used
    /// by the compiler to schedule test conjuncts).
    pub fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Name(n) | Expr::Var(_, n) => out.push(n.as_str()),
            Expr::Unary(_, e) => e.collect_names(out),
            Expr::Binary(_, l, r) => {
                l.collect_names(out);
                r.collect_names(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_names(out);
                }
            }
        }
    }

    /// Splits a conjunction (`a and b and c`) into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary(BinOp::And, l, r) => {
                let mut v = l.conjuncts();
                v.extend(r.conjuncts());
                v
            }
            other => vec![other],
        }
    }
}

impl fmt::Display for Quant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quant::Exists => f.write_str("exists"),
            Quant::Forall => f.write_str("forall"),
        }
    }
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnKind::Immediate => f.write_str("->"),
            TxnKind::Delayed => f.write_str("=>"),
            TxnKind::Consensus => f.write_str("@>"),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "mod",
            BinOp::Pow => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Gt, Expr::name("a"), Expr::int(1)),
            Expr::bin(
                BinOp::And,
                Expr::name("p"),
                Expr::bin(BinOp::Lt, Expr::name("b"), Expr::int(2)),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
        // `or` is not split.
        let o = Expr::bin(BinOp::Or, Expr::name("a"), Expr::name("b"));
        assert_eq!(o.conjuncts().len(), 1);
    }

    #[test]
    fn collect_names_walks_everything() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Call("f".into(), vec![Expr::name("x"), Expr::int(1)]),
            Expr::Unary(UnOp::Neg, Box::new(Expr::name("y"))),
        );
        let mut names = Vec::new();
        e.collect_names(&mut names);
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            processes: vec![ProcessDef {
                name: "Sum1".into(),
                params: vec!["k".into(), "j".into()],
                view: ViewDef::full(),
                body: Vec::new(),
            }],
            init: InitBlock::default(),
        };
        assert!(p.process("Sum1").is_some());
        assert!(p.process("Nope").is_none());
        assert!(p.process("Sum1").unwrap().view.is_full());
    }

    #[test]
    fn display_of_operators_and_kinds() {
        assert_eq!(TxnKind::Immediate.to_string(), "->");
        assert_eq!(TxnKind::Delayed.to_string(), "=>");
        assert_eq!(TxnKind::Consensus.to_string(), "@>");
        assert_eq!(Quant::Forall.to_string(), "forall");
        assert_eq!(BinOp::Ne.to_string(), "!=");
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn defaults() {
        let t = Transaction::default();
        assert_eq!(t.quant, Quant::Exists);
        assert_eq!(t.kind, TxnKind::Immediate);
        assert!(t.vars.is_empty());
        assert!(ViewDef::default().is_full());
    }
}
