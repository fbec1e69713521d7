//! Expression evaluation.
//!
//! Expressions appear in pattern fields, test queries, and action lists.
//! Evaluation is dynamically typed over [`Value`]; the evaluation context
//! supplies name lookup (quantified variables and process constants) and
//! built-in function calls (`neighbor`, threshold functions, …).
//!
//! A name that resolves to nothing is an **atom literal** — the paper's
//! lower-case constants (`nil`, `not_found`) need no declarations.

use std::fmt;

use sdl_tuple::{Value, VarId};

use crate::ast::{BinOp, Expr, UnOp};

/// Name lookup and built-in dispatch for expression evaluation.
pub trait EvalContext {
    /// Resolves a name to a value: a quantified variable binding or a
    /// process constant. `None` makes the name an atom literal.
    fn lookup(&self, name: &str) -> Option<Value>;

    /// The binding of quantified variable `v`, for names the compiler
    /// resolved to an index ([`Expr::Var`]). `None` (unbound, or a context
    /// without variables) falls back to [`EvalContext::lookup`] by name.
    fn var(&self, _v: VarId) -> Option<Value> {
        None
    }

    /// Calls a built-in function/predicate. `None` if unknown.
    fn call(&self, name: &str, args: &[Value]) -> Option<Value>;
}

/// An evaluation context with no names and no built-ins: every bare name
/// is an atom.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmptyContext;

impl EvalContext for EmptyContext {
    fn lookup(&self, _name: &str) -> Option<Value> {
        None
    }
    fn call(&self, _name: &str, _args: &[Value]) -> Option<Value> {
        None
    }
}

/// Why an expression failed to evaluate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Operator applied to incompatible values.
    TypeMismatch {
        /// The operator.
        op: String,
        /// Display of the offending operands.
        operands: String,
    },
    /// Integer division or modulo by zero.
    DivisionByZero,
    /// Integer overflow in arithmetic.
    Overflow,
    /// Call to an unregistered built-in.
    UnknownFunction(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch { op, operands } => {
                write!(f, "type mismatch: `{op}` applied to {operands}")
            }
            EvalError::DivisionByZero => f.write_str("division by zero"),
            EvalError::Overflow => f.write_str("integer overflow"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
        }
    }
}

impl std::error::Error for EvalError {}

fn type_mismatch(op: impl fmt::Display, a: &Value, b: &Value) -> EvalError {
    EvalError::TypeMismatch {
        op: op.to_string(),
        operands: format!("{a} and {b}"),
    }
}

/// Evaluates `expr` under `ctx`.
///
/// # Errors
///
/// Returns [`EvalError`] on type mismatches, division by zero, overflow,
/// or unknown built-ins. Test queries treat an erroring conjunct as
/// *false* (a comparison over non-numeric data simply does not hold),
/// matching Prolog-style arithmetic failure.
///
/// # Examples
///
/// ```
/// use sdl_lang::ast::{BinOp, Expr};
/// use sdl_lang::expr::{eval, EmptyContext};
/// use sdl_tuple::Value;
///
/// // 2^(3-1) = 4
/// let e = Expr::bin(
///     BinOp::Pow,
///     Expr::int(2),
///     Expr::bin(BinOp::Sub, Expr::int(3), Expr::int(1)),
/// );
/// assert_eq!(eval(&e, &EmptyContext).unwrap(), Value::Int(4));
/// ```
pub fn eval(expr: &Expr, ctx: &dyn EvalContext) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Name(n) => Ok(ctx.lookup(n.as_str()).unwrap_or(Value::Atom(n.atom()))),
        Expr::Var(v, n) => Ok(ctx
            .var(*v)
            .or_else(|| ctx.lookup(n.as_str()))
            .unwrap_or(Value::Atom(n.atom()))),
        Expr::Unary(op, e) => {
            let v = eval(e, ctx)?;
            match (op, &v) {
                (UnOp::Neg, Value::Int(i)) => {
                    i.checked_neg().map(Value::Int).ok_or(EvalError::Overflow)
                }
                (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                _ => Err(EvalError::TypeMismatch {
                    op: format!("{op:?}"),
                    operands: v.to_string(),
                }),
            }
        }
        Expr::Binary(op, l, r) => {
            // Short-circuit booleans first.
            if matches!(op, BinOp::And | BinOp::Or) {
                let lv = eval(l, ctx)?;
                let lb = lv
                    .as_bool()
                    .ok_or_else(|| type_mismatch(op, &lv, &Value::Bool(true)))?;
                return match (op, lb) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => {
                        let rv = eval(r, ctx)?;
                        rv.as_bool()
                            .map(Value::Bool)
                            .ok_or_else(|| type_mismatch(op, &lv, &rv))
                    }
                };
            }
            let a = eval(l, ctx)?;
            let b = eval(r, ctx)?;
            eval_binop(*op, &a, &b)
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx)?);
            }
            ctx.call(name, &vals)
                .ok_or_else(|| EvalError::UnknownFunction(name.clone()))
        }
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        Lt | Le | Gt | Ge => {
            // Ordered comparison requires comparable kinds: numerics with
            // numerics, or identical variants (atoms by spelling, strings
            // lexicographically).
            let comparable = (a.is_numeric() && b.is_numeric())
                || matches!(
                    (a, b),
                    (Value::Atom(_), Value::Atom(_))
                        | (Value::Str(_), Value::Str(_))
                        | (Value::Bool(_), Value::Bool(_))
                );
            if !comparable {
                return Err(type_mismatch(op, a, b));
            }
            let ord = if a.is_numeric() && b.is_numeric() {
                a.as_f64()
                    .expect("numeric")
                    .total_cmp(&b.as_f64().expect("numeric"))
            } else {
                a.cmp(b)
            };
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div | Mod | Pow => match (a, b) {
            (Value::Int(x), Value::Int(y)) => int_arith(op, *x, *y),
            _ if a.is_numeric() && b.is_numeric() => {
                let (x, y) = (a.as_f64().expect("numeric"), b.as_f64().expect("numeric"));
                Ok(Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Mod => x % y,
                    Pow => x.powf(y),
                    _ => unreachable!(),
                }))
            }
            _ => Err(type_mismatch(op, a, b)),
        },
        And | Or => unreachable!("short-circuited in eval"),
    }
}

fn int_arith(op: BinOp, x: i64, y: i64) -> Result<Value, EvalError> {
    use BinOp::*;
    let r = match op {
        Add => x.checked_add(y),
        Sub => x.checked_sub(y),
        Mul => x.checked_mul(y),
        Div => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            x.checked_div(y)
        }
        Mod => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            x.checked_rem_euclid(y)
        }
        Pow => {
            if y < 0 {
                return Ok(Value::Float((x as f64).powi(y as i32)));
            }
            u32::try_from(y).ok().and_then(|e| x.checked_pow(e))
        }
        _ => unreachable!(),
    };
    r.map(Value::Int).ok_or(EvalError::Overflow)
}

/// Evaluates a test expression, mapping evaluation errors and non-boolean
/// results to `false` (Prolog-style arithmetic failure: `α > 87` where `α`
/// is an atom simply does not hold).
pub fn eval_test(expr: &Expr, ctx: &dyn EvalContext) -> bool {
    matches!(eval(expr, ctx), Ok(Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;
    use std::collections::HashMap;

    struct MapCtx(HashMap<String, Value>);

    impl EvalContext for MapCtx {
        fn lookup(&self, name: &str) -> Option<Value> {
            self.0.get(name).cloned()
        }
        fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
            match name {
                "abs" => args[0].as_int().map(|i| Value::Int(i.abs())),
                "even" => args[0].as_int().map(|i| Value::Bool(i % 2 == 0)),
                _ => None,
            }
        }
    }

    fn ctx(pairs: &[(&str, Value)]) -> MapCtx {
        MapCtx(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn arithmetic() {
        let c = EmptyContext;
        let e = E::bin(
            BinOp::Add,
            E::int(2),
            E::bin(BinOp::Mul, E::int(3), E::int(4)),
        );
        assert_eq!(eval(&e, &c).unwrap(), Value::Int(14));
        assert_eq!(
            eval(&E::bin(BinOp::Pow, E::int(2), E::int(10)), &c).unwrap(),
            Value::Int(1024)
        );
        assert_eq!(
            eval(&E::bin(BinOp::Mod, E::int(-7), E::int(4)), &c).unwrap(),
            Value::Int(1),
            "mod is euclidean"
        );
        assert_eq!(
            eval(&E::bin(BinOp::Div, E::int(7), E::int(2)), &c).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn arithmetic_errors() {
        let c = EmptyContext;
        assert_eq!(
            eval(&E::bin(BinOp::Div, E::int(1), E::int(0)), &c),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            eval(&E::bin(BinOp::Mod, E::int(1), E::int(0)), &c),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            eval(&E::bin(BinOp::Add, E::int(i64::MAX), E::int(1)), &c),
            Err(EvalError::Overflow)
        );
        assert_eq!(
            eval(
                &E::Unary(UnOp::Neg, Box::new(E::Lit(Value::Int(i64::MIN)))),
                &c
            ),
            Err(EvalError::Overflow)
        );
    }

    #[test]
    fn float_promotion() {
        let c = EmptyContext;
        let e = E::bin(BinOp::Add, E::int(1), E::Lit(Value::Float(0.5)));
        assert_eq!(eval(&e, &c).unwrap(), Value::Float(1.5));
        let p = E::bin(BinOp::Pow, E::int(2), E::int(-1));
        assert_eq!(eval(&p, &c).unwrap(), Value::Float(0.5));
    }

    #[test]
    fn names_resolve_or_become_atoms() {
        let c = ctx(&[("k", Value::Int(8))]);
        assert_eq!(eval(&E::name("k"), &c).unwrap(), Value::Int(8));
        assert_eq!(eval(&E::name("nil"), &c).unwrap(), Value::atom("nil"));
    }

    #[test]
    fn comparisons() {
        let c = ctx(&[("a", Value::Int(90))]);
        let e = E::bin(BinOp::Gt, E::name("a"), E::int(87));
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(true));
        assert!(eval_test(&e, &c));
        // Atom comparison by spelling.
        let s = E::bin(BinOp::Lt, E::name("apple"), E::name("banana"));
        assert!(eval_test(&s, &c));
        // Cross-kind ordered comparison is an error → test false.
        let bad = E::bin(BinOp::Lt, E::name("apple"), E::int(1));
        assert!(eval(&bad, &c).is_err());
        assert!(!eval_test(&bad, &c));
    }

    #[test]
    fn equality_is_universal() {
        let c = EmptyContext;
        let e = E::bin(BinOp::Eq, E::name("nil"), E::name("nil"));
        assert!(eval_test(&e, &c));
        let n = E::bin(BinOp::Ne, E::name("nil"), E::int(0));
        assert!(eval_test(&n, &c));
    }

    #[test]
    fn boolean_short_circuit() {
        let c = EmptyContext;
        // false and (1/0 == 1) does not error.
        let e = E::bin(
            BinOp::And,
            E::Lit(Value::Bool(false)),
            E::bin(
                BinOp::Eq,
                E::bin(BinOp::Div, E::int(1), E::int(0)),
                E::int(1),
            ),
        );
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(false));
        let o = E::bin(
            BinOp::Or,
            E::Lit(Value::Bool(true)),
            E::bin(
                BinOp::Eq,
                E::bin(BinOp::Div, E::int(1), E::int(0)),
                E::int(1),
            ),
        );
        assert_eq!(eval(&o, &c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn not_operator() {
        let c = EmptyContext;
        let e = E::Unary(UnOp::Not, Box::new(E::Lit(Value::Bool(false))));
        assert_eq!(eval(&e, &c).unwrap(), Value::Bool(true));
        let bad = E::Unary(UnOp::Not, Box::new(E::int(1)));
        assert!(eval(&bad, &c).is_err());
    }

    #[test]
    fn builtin_calls() {
        let c = ctx(&[]);
        let e = E::Call("abs".into(), vec![E::int(-5)]);
        assert_eq!(eval(&e, &c).unwrap(), Value::Int(5));
        let p = E::Call("even".into(), vec![E::int(4)]);
        assert!(eval_test(&p, &c));
        let u = E::Call("nope".into(), vec![]);
        assert_eq!(eval(&u, &c), Err(EvalError::UnknownFunction("nope".into())));
    }

    #[test]
    fn eval_test_requires_bool() {
        let c = EmptyContext;
        assert!(!eval_test(&E::int(1), &c), "non-bool is not a passing test");
        assert!(!eval_test(&E::name("x"), &c));
    }

    #[test]
    fn error_display() {
        assert!(EvalError::DivisionByZero.to_string().contains("zero"));
        assert!(EvalError::UnknownFunction("f".into())
            .to_string()
            .contains("f"));
        let tm = type_mismatch(BinOp::Lt, &Value::atom("a"), &Value::Int(1));
        assert!(tm.to_string().contains("<"));
    }
}
