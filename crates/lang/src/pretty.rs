//! Pretty-printing of SDL ASTs back to concrete syntax.
//!
//! `parse_program(prog.to_string())` reproduces the same AST (round-trip
//! property, tested in the crate's property tests) — useful for program
//! generators, tracing, and debugging.

use std::fmt;

use crate::ast::*;

fn write_names(f: &mut fmt::Formatter<'_>, names: &[String]) -> fmt::Result {
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        f.write_str(n)?;
    }
    Ok(())
}

fn write_exprs(f: &mut fmt::Formatter<'_>, exprs: &[Expr]) -> fmt::Result {
    for (i, e) in exprs.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{e}")?;
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Name(n) | Expr::Var(_, n) => f.write_str(n.as_str()),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(not {e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                write_exprs(f, args)?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for FieldExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldExpr::Any => f.write_str("*"),
            FieldExpr::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for PatternExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str(">")
    }
}

impl fmt::Display for TxnAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnAtom::Tuple { pattern, retract } => {
                write!(f, "{pattern}{}", if *retract { "!" } else { "" })
            }
            TxnAtom::Neg(p) => write!(f, "not {p}"),
            TxnAtom::Pred {
                name,
                args,
                negated,
            } => {
                if *negated {
                    f.write_str("not ")?;
                }
                write!(f, "{name}(")?;
                write_exprs(f, args)?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Assert(fields) => {
                f.write_str("<")?;
                write_exprs(f, fields)?;
                f.write_str(">")
            }
            Action::Let(n, e) => write!(f, "let {n} = {e}"),
            Action::Spawn(n, args) => {
                write!(f, "spawn {n}(")?;
                write_exprs(f, args)?;
                f.write_str(")")
            }
            Action::Skip => f.write_str("skip"),
            Action::Exit => f.write_str("exit"),
            Action::Abort => f.write_str("abort"),
        }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "{} ", self.quant)?;
            write_names(f, &self.vars)?;
            f.write_str(" : ")?;
        }
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{atom}")?;
        }
        if let Some(test) = &self.test {
            if !self.atoms.is_empty() {
                f.write_str(" : ")?;
                write!(f, "{test}")?;
            } else if matches!(test, Expr::Call(..)) {
                // A bare call in query position would re-parse as a
                // predicate atom; parenthesise to keep it a test.
                write!(f, "({test})")?;
            } else {
                write!(f, "{test}")?;
            }
        }
        write!(f, " {} ", self.kind)?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

fn write_branches(
    f: &mut fmt::Formatter<'_>,
    kw: &str,
    branches: &[GuardedSeq],
    indent: usize,
) -> fmt::Result {
    let pad = "    ".repeat(indent);
    writeln!(f, "{pad}{kw} {{")?;
    for (i, b) in branches.iter().enumerate() {
        if i > 0 {
            writeln!(f, "{pad}|")?;
        }
        writeln!(f, "{pad}    {};", b.guard)?;
        for s in &b.rest {
            write_stmt(f, s, indent + 1)?;
        }
    }
    writeln!(f, "{pad}}}")
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, indent: usize) -> fmt::Result {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Txn(t) => writeln!(f, "{pad}{t};"),
        Stmt::Select(b) => write_branches(f, "select", b, indent),
        Stmt::Repeat(b) => write_branches(f, "loop", b, indent),
        Stmt::Replicate(b) => write_branches(f, "par", b, indent),
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_stmt(f, self, 0)
    }
}

impl fmt::Display for ViewRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            f.write_str("forall ")?;
            write_names(f, &self.vars)?;
            f.write_str(" : ")?;
        }
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match c {
                CondAtom::Tuple(p) => write!(f, "{p}")?,
                CondAtom::Pred(n, args) => {
                    write!(f, "{n}(")?;
                    write_exprs(f, args)?;
                    f.write_str(")")?;
                }
            }
        }
        if !self.conditions.is_empty() {
            f.write_str(" => ")?;
        }
        write!(f, "{};", self.pattern)
    }
}

impl fmt::Display for ProcessDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process {}(", self.name)?;
        write_names(f, &self.params)?;
        writeln!(f, ") {{")?;
        if let Some(rules) = &self.view.import {
            writeln!(f, "    import {{")?;
            for r in rules {
                writeln!(f, "        {r}")?;
            }
            writeln!(f, "    }}")?;
        }
        if let Some(rules) = &self.view.export {
            writeln!(f, "    export {{")?;
            for r in rules {
                writeln!(f, "        {r}")?;
            }
            writeln!(f, "    }}")?;
        }
        for s in &self.body {
            write_stmt(f, s, 1)?;
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.processes {
            writeln!(f, "{p}")?;
        }
        if !self.init.tuples.is_empty() || !self.init.spawns.is_empty() {
            writeln!(f, "init {{")?;
            for t in &self.init.tuples {
                f.write_str("    <")?;
                write_exprs(f, t)?;
                writeln!(f, ">;")?;
            }
            for s in &self.init.spawns {
                write!(f, "    spawn {}(", s.name)?;
                write_exprs(f, &s.args)?;
                writeln!(f, ");")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_program, parse_stmts, parse_transaction};

    #[test]
    fn transaction_roundtrip() {
        let src = "exists a : <year, a>! : (a > 87) -> let N = a, <found, a>";
        let t = parse_transaction(src).unwrap();
        let printed = t.to_string();
        let t2 = parse_transaction(&printed).unwrap();
        assert_eq!(t, t2, "printed: {printed}");
    }

    #[test]
    fn forall_and_negation_roundtrip() {
        let src = "forall p : <label, p>!, not <done, p> : neighbor(p, 3) => skip";
        let t = parse_transaction(src).unwrap();
        let t2 = parse_transaction(&t.to_string()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn stmt_roundtrip() {
        let src = "select { <a>! -> skip | true -> exit } loop { <b>! -> <c> }";
        let stmts = parse_stmts(src).unwrap();
        let printed: String = stmts.iter().map(|s| s.to_string()).collect();
        let stmts2 = parse_stmts(&printed).unwrap();
        assert_eq!(stmts, stmts2, "printed: {printed}");
    }

    #[test]
    fn program_roundtrip() {
        let src = r#"
            process Label(r, t) {
                import {
                    forall p, l : neighbor(p, r), <threshold, p, t> => <label, p, l>;
                }
                export {
                    <label, *, *>;
                }
                loop {
                    exists p, m : <label, p, m>! : m < r -> <label, p, r>
                }
            }
            init { <label, 1, 1>; spawn Label(1, 0); }
        "#;
        let p = parse_program(src).unwrap();
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, p2, "printed:\n{p}");
    }

    #[test]
    fn expression_printing_is_parenthesised() {
        let t = parse_transaction("1 + 2 * 3 == 7 -> skip").unwrap();
        let s = t.test.unwrap().to_string();
        assert_eq!(s, "((1 + (2 * 3)) == 7)");
    }
}
