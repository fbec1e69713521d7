//! Recursive-descent parser for SDL source.
//!
//! ## Grammar (EBNF-ish)
//!
//! ```text
//! program      := (process_def | init_block)*
//! process_def  := "process" NAME "(" [params] ")" "{"
//!                   ["import" "{" view_rule* "}"]
//!                   ["export" "{" view_rule* "}"]
//!                   (stmt* | "behavior" "{" stmt* "}")
//!                 "}"
//! view_rule    := ["forall" names ":"] [cond ("," cond)* "=>"] pattern ";"
//! cond         := pattern | NAME "(" exprs ")"
//! init_block   := "init" "{" (pattern ";" | "spawn" NAME "(" exprs ")" ";")* "}"
//!
//! stmt         := txn (";" | &stop)
//!               | ("select" | "loop" | "par") "{" branch ("|" branch)* "}" [";"]
//! branch       := txn [";" stmt*]
//!
//! txn          := [("exists" | "forall") names ":"] [atoms] [":" expr] tag [actions]
//! atoms        := atom ("," atom)*
//! atom         := ["not"] pattern ["!"] | ["not"] NAME "(" exprs ")"
//! tag          := "->" | "=>" | "@>"
//! actions      := action ("," action)*
//! action       := "<" exprs ">" | "let" NAME "=" expr
//!               | "spawn" NAME "(" exprs ")" | "skip" | "exit" | "abort"
//!
//! pattern      := "<" field ("," field)* ">" | "<" ">"
//! field        := "*" | add_expr          // comparisons need parentheses
//! ```
//!
//! Names are classified later (quantified variable / process constant /
//! atom literal) by the `sdl-core` compiler.

use sdl_tuple::Value;

use crate::ast::*;
use crate::error::{ParseError, Pos};
use crate::lexer::{lex, Spanned, Tok};

/// Parses a complete SDL program.
///
/// # Errors
///
/// Returns the first `ParseError` encountered.
///
/// # Examples
///
/// ```
/// let src = r#"
///     process Find(P) {
///         select {
///             exists v : <P, v> -> <found, P, v>
///           | not <P, v2> -> <found, P, not_found>
///         }
///     }
///     init { <temperature, 21>; spawn Find(temperature); }
/// "#;
/// let prog = sdl_lang::parse_program(src).unwrap();
/// assert_eq!(prog.processes.len(), 1);
/// assert_eq!(prog.init.tuples.len(), 1);
/// assert_eq!(prog.init.spawns.len(), 1);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    p.program()
}

/// Parses a single transaction (useful in tests and the REPL-style tools).
///
/// # Errors
///
/// Returns the first `ParseError` encountered.
pub fn parse_transaction(src: &str) -> Result<Transaction, ParseError> {
    let mut p = Parser::new(src)?;
    let t = p.txn()?;
    p.expect(&Tok::Eof)?;
    Ok(t)
}

/// Parses a sequence of statements (a process body fragment).
#[cfg(test)]
pub(crate) fn parse_stmts(src: &str) -> Result<Vec<Stmt>, ParseError> {
    let mut p = Parser::new(src)?;
    let stmts = p.seq(&[Tok::Eof])?;
    p.expect(&Tok::Eof)?;
    Ok(stmts)
}

/// Deepest expression a source may nest, counting operators, calls and
/// brackets. Parsing, compiling, evaluating and dropping an expression
/// each recurse once per level, so this bounds their stack use whatever
/// a (possibly hostile) source holds.
const MAX_EXPR_DEPTH: u32 = 128;

/// An expression with its depth.
type Deep = (Expr, u32);

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    // Expression recursion levels entered and not yet left.
    nesting: u32,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            i: 0,
            nesting: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.i + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i < self.toks.len() - 1 {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.pos())
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---------------- program structure ----------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Process => prog.processes.push(self.process_def()?),
                Tok::Init => self.init_block(&mut prog.init)?,
                other => {
                    return Err(self.err(format!("expected `process` or `init`, found {other}")))
                }
            }
        }
        Ok(prog)
    }

    fn process_def(&mut self) -> Result<ProcessDef, ParseError> {
        self.expect(&Tok::Process)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::LBrace)?;

        let mut view = ViewDef::full();
        if self.eat(&Tok::Import) {
            view.import = Some(self.view_rules()?);
        }
        if self.eat(&Tok::Export) {
            view.export = Some(self.view_rules()?);
        }

        // Optional `behavior { … }` wrapper.
        let body = if matches!(self.peek(), Tok::Ident(w) if w == "behavior")
            && self.peek2() == &Tok::LBrace
        {
            self.bump();
            self.bump();
            let b = self.seq(&[Tok::RBrace])?;
            self.expect(&Tok::RBrace)?;
            b
        } else {
            self.seq(&[Tok::RBrace])?
        };
        self.expect(&Tok::RBrace)?;
        Ok(ProcessDef {
            name,
            params,
            view,
            body,
        })
    }

    fn view_rules(&mut self) -> Result<Vec<ViewRule>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut rules = Vec::new();
        while self.peek() != &Tok::RBrace {
            rules.push(self.view_rule()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(rules)
    }

    fn view_rule(&mut self) -> Result<ViewRule, ParseError> {
        let mut vars = Vec::new();
        if self.eat(&Tok::Forall) {
            loop {
                vars.push(self.ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::Colon)?;
        }
        // Items up to `=>` are conditions; the final pattern follows.
        let mut items: Vec<CondAtom> = Vec::new();
        loop {
            let item = if self.peek() == &Tok::Lt {
                CondAtom::Tuple(self.pattern()?)
            } else if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::LParen {
                let name = self.ident()?;
                self.expect(&Tok::LParen)?;
                let args = self.expr_list(&Tok::RParen)?;
                self.expect(&Tok::RParen)?;
                CondAtom::Pred(name, args)
            } else {
                return Err(self.err(format!(
                    "expected a tuple pattern or predicate in view rule, found {}",
                    self.peek()
                )));
            };
            items.push(item);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let rule = if self.eat(&Tok::DArrow) {
            let pattern = self.pattern()?;
            ViewRule {
                vars,
                conditions: items,
                pattern,
            }
        } else {
            if items.len() != 1 {
                return Err(self.err("unconditional view rule must be a single pattern"));
            }
            match items.pop().expect("one item") {
                CondAtom::Tuple(p) => ViewRule {
                    vars,
                    conditions: Vec::new(),
                    pattern: p,
                },
                CondAtom::Pred(..) => return Err(self.err("view rule cannot be a bare predicate")),
            }
        };
        self.expect(&Tok::Semi)?;
        Ok(rule)
    }

    fn init_block(&mut self, init: &mut InitBlock) -> Result<(), ParseError> {
        self.expect(&Tok::Init)?;
        self.expect(&Tok::LBrace)?;
        while self.peek() != &Tok::RBrace {
            match self.peek() {
                Tok::Lt => {
                    let fields = self.tuple_exprs()?;
                    init.tuples.push(fields);
                }
                Tok::Spawn => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(&Tok::LParen)?;
                    let args = self.expr_list(&Tok::RParen)?;
                    self.expect(&Tok::RParen)?;
                    init.spawns.push(SpawnSpec { name, args });
                }
                other => {
                    return Err(self.err(format!(
                        "expected a tuple or `spawn` in init block, found {other}"
                    )))
                }
            }
            self.expect(&Tok::Semi)?;
        }
        self.expect(&Tok::RBrace)?;
        Ok(())
    }

    // ---------------- statements ----------------

    fn seq(&mut self, stop: &[Tok]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !stop.contains(self.peek()) {
            out.push(self.stmt(stop)?);
        }
        Ok(out)
    }

    fn stmt(&mut self, stop: &[Tok]) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::Select => {
                self.bump();
                let b = self.branches()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Select(b))
            }
            Tok::Loop => {
                self.bump();
                let b = self.branches()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Repeat(b))
            }
            Tok::Par => {
                self.bump();
                let b = self.branches()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Replicate(b))
            }
            _ => {
                let t = self.txn()?;
                if !self.eat(&Tok::Semi) && !stop.contains(self.peek()) {
                    return Err(self.err(format!(
                        "expected `;` after transaction, found {}",
                        self.peek()
                    )));
                }
                Ok(Stmt::Txn(t))
            }
        }
    }

    fn branches(&mut self) -> Result<Vec<GuardedSeq>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        loop {
            let guard = self.txn()?;
            let rest = if self.eat(&Tok::Semi) {
                self.seq(&[Tok::Pipe, Tok::RBrace])?
            } else {
                Vec::new()
            };
            out.push(GuardedSeq { guard, rest });
            if !self.eat(&Tok::Pipe) {
                break;
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(out)
    }

    // ---------------- transactions ----------------

    fn starts_atom(&self) -> bool {
        match self.peek() {
            Tok::Lt => true,
            Tok::Not => true,
            Tok::Ident(_) => self.peek2() == &Tok::LParen,
            _ => false,
        }
    }

    fn txn(&mut self) -> Result<Transaction, ParseError> {
        let mut t = Transaction::default();
        match self.peek() {
            Tok::Exists | Tok::Forall => {
                t.quant = if self.bump() == Tok::Forall {
                    Quant::Forall
                } else {
                    Quant::Exists
                };
                loop {
                    t.vars.push(self.ident()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::Colon)?;
            }
            _ => {}
        }

        let at_tag = |p: &Parser| matches!(p.peek(), Tok::Arrow | Tok::DArrow | Tok::CArrow);

        if !at_tag(self) {
            // A predicate-call atom (`neighbor(p, r)`) is syntactically a
            // prefix of a test expression (`neighbor(p, r) and x > 0`), so
            // a leading call is parsed speculatively: it is an atom only
            // if what follows continues an atom list.
            let leading_call_is_atom =
                if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::LParen {
                    let save = self.i;
                    let ok = self.atom().is_ok()
                        && matches!(
                            self.peek(),
                            Tok::Comma | Tok::Colon | Tok::Arrow | Tok::DArrow | Tok::CArrow
                        );
                    self.i = save;
                    ok
                } else {
                    self.starts_atom()
                };
            if leading_call_is_atom {
                loop {
                    t.atoms.push(self.atom()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                    // After the first element the list is committed to
                    // atoms; tests follow the `:` separator.
                    if !self.starts_atom() {
                        return Err(self.err(format!(
                            "expected a query atom after `,`, found {}",
                            self.peek()
                        )));
                    }
                }
                if self.eat(&Tok::Colon) {
                    t.test = Some(self.expr()?);
                }
            } else {
                // No atoms: the whole query is a test expression.
                t.test = Some(self.expr()?);
            }
        }

        t.kind = match self.bump() {
            Tok::Arrow => TxnKind::Immediate,
            Tok::DArrow => TxnKind::Delayed,
            Tok::CArrow => TxnKind::Consensus,
            other => {
                return Err(ParseError::new(
                    format!("expected `->`, `=>`, or `@>`, found {other}"),
                    self.toks[self.i.saturating_sub(1)].pos,
                ))
            }
        };

        if !matches!(self.peek(), Tok::Semi | Tok::Pipe | Tok::RBrace | Tok::Eof) {
            loop {
                t.actions.push(self.action()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(t)
    }

    fn atom(&mut self) -> Result<TxnAtom, ParseError> {
        if self.eat(&Tok::Not) {
            if self.peek() == &Tok::Lt {
                let p = self.pattern()?;
                if self.peek() == &Tok::Bang {
                    return Err(self.err("a negated pattern cannot carry a retraction tag"));
                }
                return Ok(TxnAtom::Neg(p));
            }
            let name = self.ident()?;
            self.expect(&Tok::LParen)?;
            let args = self.expr_list(&Tok::RParen)?;
            self.expect(&Tok::RParen)?;
            return Ok(TxnAtom::Pred {
                name,
                args,
                negated: true,
            });
        }
        if self.peek() == &Tok::Lt {
            let pattern = self.pattern()?;
            let retract = self.eat(&Tok::Bang);
            return Ok(TxnAtom::Tuple { pattern, retract });
        }
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let args = self.expr_list(&Tok::RParen)?;
        self.expect(&Tok::RParen)?;
        Ok(TxnAtom::Pred {
            name,
            args,
            negated: false,
        })
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        match self.peek().clone() {
            Tok::Lt => Ok(Action::Assert(self.tuple_exprs()?)),
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Assign)?;
                Ok(Action::Let(name, self.expr()?))
            }
            Tok::Spawn => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::LParen)?;
                let args = self.expr_list(&Tok::RParen)?;
                self.expect(&Tok::RParen)?;
                Ok(Action::Spawn(name, args))
            }
            Tok::Skip => {
                self.bump();
                Ok(Action::Skip)
            }
            Tok::Exit => {
                self.bump();
                Ok(Action::Exit)
            }
            Tok::Abort => {
                self.bump();
                Ok(Action::Abort)
            }
            other => Err(self.err(format!(
                "expected an action (tuple, let, spawn, skip, exit, abort), found {other}"
            ))),
        }
    }

    // ---------------- patterns & tuples ----------------

    fn pattern(&mut self) -> Result<PatternExpr, ParseError> {
        self.expect(&Tok::Lt)?;
        let mut fields = Vec::new();
        if self.peek() != &Tok::Gt {
            loop {
                if self.peek() == &Tok::Star && matches!(self.peek2(), Tok::Comma | Tok::Gt) {
                    self.bump();
                    fields.push(FieldExpr::Any);
                } else {
                    fields.push(FieldExpr::Expr(self.add_expr()?.0));
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::Gt)?;
        Ok(PatternExpr::new(fields))
    }

    /// An assertion tuple: like a pattern but wildcards are not allowed.
    fn tuple_exprs(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Tok::Lt)?;
        let mut fields = Vec::new();
        if self.peek() != &Tok::Gt {
            loop {
                if self.peek() == &Tok::Star && matches!(self.peek2(), Tok::Comma | Tok::Gt) {
                    return Err(self.err("wildcard `*` is not allowed in an asserted tuple"));
                }
                fields.push(self.add_expr()?.0);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::Gt)?;
        Ok(fields)
    }

    fn expr_list(&mut self, terminator: &Tok) -> Result<Vec<Expr>, ParseError> {
        let mut out = Vec::new();
        if self.peek() != terminator {
            loop {
                out.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(out)
    }

    // ---------------- expressions ----------------
    //
    // The functions below return each expression with its depth, and
    // refuse to build or recurse past `MAX_EXPR_DEPTH` levels.

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.or_expr()?.0)
    }

    /// One level above `depth`, or an error past [`MAX_EXPR_DEPTH`].
    fn level(&self, depth: u32) -> Result<u32, ParseError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth + 1)
    }

    fn binary(&self, op: BinOp, (l, dl): Deep, (r, dr): Deep) -> Result<Deep, ParseError> {
        Ok((Expr::bin(op, l, r), self.level(dl.max(dr))?))
    }

    /// Runs `f` one recursion level down, refusing to go past
    /// [`MAX_EXPR_DEPTH`] before the depth of what it parses is known.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.nesting = self.level(self.nesting)?;
        let r = f(self);
        self.nesting -= 1;
        r
    }

    fn or_expr(&mut self) -> Result<Deep, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Deep, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Deep, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq | Tok::Assign => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        self.binary(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> Result<Deep, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Deep, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Mod => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Deep, ParseError> {
        let op = if self.eat(&Tok::Minus) {
            UnOp::Neg
        } else if self.eat(&Tok::Not) {
            UnOp::Not
        } else {
            return self.pow_expr();
        };
        let (e, d) = self.nested(Parser::unary_expr)?;
        Ok((Expr::Unary(op, Box::new(e)), self.level(d)?))
    }

    fn pow_expr(&mut self) -> Result<Deep, ParseError> {
        let base = self.primary()?;
        if self.eat(&Tok::Caret) {
            // Right-associative: 2^3^2 = 2^(3^2).
            let exp = self.nested(Parser::unary_expr)?;
            return self.binary(BinOp::Pow, base, exp);
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Deep, ParseError> {
        let lit = match self.peek().clone() {
            Tok::Int(i) => Value::Int(i),
            Tok::Float(f) => Value::Float(f),
            Tok::Str(s) => Value::str(&s),
            Tok::True => Value::Bool(true),
            Tok::False => Value::Bool(false),
            Tok::Ident(name) => {
                self.bump();
                if !self.eat(&Tok::LParen) {
                    return Ok((Expr::name(&name), 0));
                }
                let (args, d) = self.nested(|p| {
                    let mut args = Vec::new();
                    let mut d = 0;
                    if p.peek() != &Tok::RParen {
                        loop {
                            let (a, da) = p.or_expr()?;
                            args.push(a);
                            d = d.max(da);
                            if !p.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    p.expect(&Tok::RParen)?;
                    Ok((args, d))
                })?;
                return Ok((Expr::Call(name, args), self.level(d)?));
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested(Parser::or_expr)?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            other => return Err(self.err(format!("expected an expression, found {other}"))),
        };
        self.bump();
        Ok((Expr::Lit(lit), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_transaction() {
        // The paper's: ∃α: <year, α>↑ : α > 87 → let N = α, <found, α>
        let t =
            parse_transaction("exists a : <year, a>! : a > 87 -> let N = a, <found, a>").unwrap();
        assert_eq!(t.quant, Quant::Exists);
        assert_eq!(t.vars, vec!["a"]);
        assert_eq!(t.atoms.len(), 1);
        assert!(matches!(&t.atoms[0], TxnAtom::Tuple { retract: true, .. }));
        assert!(t.test.is_some());
        assert_eq!(t.kind, TxnKind::Immediate);
        assert_eq!(t.actions.len(), 2);
        assert!(matches!(&t.actions[0], Action::Let(n, _) if n == "N"));
        assert!(matches!(&t.actions[1], Action::Assert(f) if f.len() == 2));
    }

    #[test]
    fn parse_unicode_transaction() {
        let t = parse_transaction("∃ a : <year, a>↑ : a > 87 ⇒ <new_year>").unwrap();
        assert_eq!(t.kind, TxnKind::Delayed);
        assert!(matches!(&t.atoms[0], TxnAtom::Tuple { retract: true, .. }));
    }

    #[test]
    fn parse_consensus_and_test_only() {
        let t = parse_transaction("k mod 2^(j+1) == 0 @> spawn Sum1(k, j+1)").unwrap();
        assert_eq!(t.kind, TxnKind::Consensus);
        assert!(t.atoms.is_empty());
        assert!(t.test.is_some());
        assert!(matches!(&t.actions[0], Action::Spawn(n, a) if n == "Sum1" && a.len() == 2));
    }

    #[test]
    fn parse_negation_and_predicates() {
        let t = parse_transaction(
            "exists p1, p2 : neighbor(p1, p2), <label, p1>, not <done, p2> -> skip",
        )
        .unwrap();
        assert_eq!(t.atoms.len(), 3);
        assert!(matches!(&t.atoms[0], TxnAtom::Pred { negated: false, .. }));
        assert!(matches!(&t.atoms[2], TxnAtom::Neg(_)));
        let t2 = parse_transaction("exists p : not odd(p) -> skip").unwrap();
        assert!(matches!(&t2.atoms[0], TxnAtom::Pred { negated: true, .. }));
    }

    #[test]
    fn negated_pattern_with_retract_is_an_error() {
        assert!(parse_transaction("not <a>! -> skip").is_err());
    }

    #[test]
    fn parse_wildcards_and_exprs_in_patterns() {
        let t = parse_transaction("exists a : <k - 2^(j-1), a, *> -> skip").unwrap();
        match &t.atoms[0] {
            TxnAtom::Tuple { pattern, .. } => {
                assert_eq!(pattern.fields.len(), 3);
                assert!(matches!(pattern.fields[0], FieldExpr::Expr(_)));
                assert!(matches!(pattern.fields[2], FieldExpr::Any));
            }
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn wildcard_in_assertion_is_an_error() {
        assert!(parse_transaction("-> <a, *>").is_err());
    }

    #[test]
    fn parse_forall() {
        let t = parse_transaction("forall p, l : <label, p, l>! => skip").unwrap();
        assert_eq!(t.quant, Quant::Forall);
        assert_eq!(t.vars.len(), 2);
    }

    #[test]
    fn parse_empty_query_and_actions() {
        let t = parse_transaction("-> <go>").unwrap();
        assert!(t.atoms.is_empty());
        assert!(t.test.is_none());
        let t2 = parse_transaction("<year, 87> ->").unwrap();
        assert!(t2.actions.is_empty());
        assert_eq!(t2.atoms.len(), 1);
    }

    #[test]
    fn parse_select_loop_par() {
        let stmts = parse_stmts(
            "select { <a>! -> skip | true -> exit } loop { <b>! -> <c> } par { <d>! -> }",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        match &stmts[0] {
            Stmt::Select(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected select, got {other:?}"),
        }
        assert!(matches!(&stmts[1], Stmt::Repeat(b) if b.len() == 1));
        assert!(matches!(&stmts[2], Stmt::Replicate(b) if b.len() == 1));
    }

    #[test]
    fn parse_branch_with_sequence() {
        let stmts = parse_stmts("select { <a>! -> skip; <b> -> <c>; | true -> } ").unwrap();
        match &stmts[0] {
            Stmt::Select(branches) => {
                assert_eq!(branches[0].rest.len(), 1);
                assert!(branches[1].rest.is_empty());
            }
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parse_process_with_view() {
        let src = r#"
            process Sort(this, next) {
                import {
                    <this, *, *, *>;
                    <next, *, *, *>;
                }
                export {
                    <this, *, *, *>;
                    <next, *, *, *>;
                }
                loop {
                    exists n1, v1, n2, v2, s :
                        <this, n1, v1, next>!, <next, n2, v2, s>! : n1 > n2
                        -> <this, n2, v2, next>, <next, n1, v1, s>
                }
            }
        "#;
        let prog = parse_program(src).unwrap();
        let def = &prog.processes[0];
        assert_eq!(def.params, vec!["this", "next"]);
        let import = def.view.import.as_ref().unwrap();
        assert_eq!(import.len(), 2);
        assert!(import[0].conditions.is_empty());
        assert_eq!(def.body.len(), 1);
    }

    #[test]
    fn parse_conditional_view_rule() {
        let src = r#"
            process Label(r, t) {
                import {
                    forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>;
                    forall p : neighbor(p, r) => <threshold, p, t>;
                }
                -> skip;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let def = &prog.processes[0];
        let rules = def.view.import.as_ref().unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].vars, vec!["p", "l"]);
        assert_eq!(rules[0].conditions.len(), 2);
        assert!(matches!(&rules[0].conditions[0], CondAtom::Pred(n, _) if n == "neighbor"));
        assert!(matches!(&rules[0].conditions[1], CondAtom::Tuple(_)));
    }

    #[test]
    fn parse_init_block() {
        let prog =
            parse_program("init { <1, 10>; <2, 20>; spawn Sum3(); } process Sum3() { -> skip; }")
                .unwrap();
        assert_eq!(prog.init.tuples.len(), 2);
        assert_eq!(prog.init.spawns.len(), 1);
    }

    #[test]
    fn parse_behavior_wrapper() {
        let prog = parse_program("process P() { behavior { -> skip; -> skip; } }").unwrap();
        assert_eq!(prog.processes[0].body.len(), 2);
    }

    #[test]
    fn expression_precedence() {
        let t = parse_transaction("1 + 2 * 3 == 7 and 2^3^2 == 512 -> skip").unwrap();
        let test = t.test.unwrap();
        // Just check it evaluates correctly.
        use crate::expr::{eval_test, EmptyContext};
        assert!(eval_test(&test, &EmptyContext));
    }

    #[test]
    fn equals_sign_is_equality_in_tests() {
        let t = parse_transaction("next = nil -> exit").unwrap();
        assert!(matches!(t.test.unwrap(), Expr::Binary(BinOp::Eq, _, _)));
    }

    #[test]
    fn parenthesised_comparison_inside_field() {
        let t = parse_transaction("exists a : <flag, (a < 3)> -> skip").unwrap();
        match &t.atoms[0] {
            TxnAtom::Tuple { pattern, .. } => {
                assert!(matches!(
                    &pattern.fields[1],
                    FieldExpr::Expr(Expr::Binary(BinOp::Lt, _, _))
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_program("process P( { }").unwrap_err();
        assert_eq!(e.pos.line, 1);
        assert!(e.to_string().contains("expected"));
    }

    #[test]
    fn error_on_garbage_top_level() {
        assert!(parse_program("banana").is_err());
    }

    #[test]
    fn error_on_missing_tag() {
        assert!(parse_transaction("<a> skip").is_err());
    }

    #[test]
    fn trailing_comma_in_atoms_is_an_error() {
        assert!(parse_transaction("exists a : <x, a>, -> skip").is_err());
    }

    #[test]
    fn empty_tuple_pattern() {
        let t = parse_transaction("<> -> skip").unwrap();
        match &t.atoms[0] {
            TxnAtom::Tuple { pattern, .. } => assert!(pattern.fields.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let at = MAX_EXPR_DEPTH as usize;
        let parens = |n: usize| format!("{}1{} -> skip", "(".repeat(n), ")".repeat(n));
        let shapes: [(&str, &dyn Fn(usize) -> String); 5] = [
            ("brackets", &parens),
            ("negations", &|n| format!("{}1 -> skip", "-".repeat(n))),
            ("a sum", &|n| format!("{}1 -> skip", "1+".repeat(n))),
            ("powers", &|n| format!("{}1 -> skip", "2^".repeat(n))),
            // The outermost call is a predicate atom; its arguments nest.
            ("calls", &|n| {
                format!("{}1{} -> skip", "f(".repeat(n + 1), ")".repeat(n + 1))
            }),
        ];
        for (what, src) in shapes {
            assert!(parse_transaction(&src(at)).is_ok(), "{what} at the cap");
            assert!(parse_transaction(&src(at + 1)).is_err(), "{what} past it");
            // Far past it: rejected before the recursion runs out of stack.
            assert!(parse_transaction(&src(200_000)).is_err(), "{what}");
        }
    }

    #[test]
    fn abort_action() {
        let t = parse_transaction("<poison>! => abort").unwrap();
        assert!(matches!(t.actions[0], Action::Abort));
        assert_eq!(t.kind, TxnKind::Delayed);
    }
}
