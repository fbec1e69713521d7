//! Tuple patterns: constants, wildcards, and quantified variables.
//!
//! SDL queries and views denote sets of tuples with patterns such as
//! `<year, α>` (variable in second position) or `<year, *>` (wildcard).
//! A pattern matches a tuple of the same arity field-by-field; matching a
//! variable either checks consistency with an existing binding or extends
//! the binding set.

use std::fmt;

use crate::bindings::Bindings;
use crate::tuple::Tuple;
use crate::value::Value;

/// Index of a quantified variable within one query's variable table.
///
/// Variables are query-local: the transaction that owns the query numbers
/// its quantified variables `0..n` and sizes its [`Bindings`] accordingly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// One position of a [`Pattern`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Field {
    /// Matches exactly this value.
    Const(Value),
    /// The paper's `*`: matches any value, binds nothing.
    Any,
    /// A quantified variable (the paper's Greek letters).
    Var(VarId),
}

impl Field {
    /// True if the field is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Field::Const(_))
    }

    /// The constant, if the field is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Field::Const(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Const(v) => write!(f, "{v}"),
            Field::Any => f.write_str("*"),
            Field::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<Value> for Field {
    fn from(v: Value) -> Field {
        Field::Const(v)
    }
}

impl From<VarId> for Field {
    fn from(v: VarId) -> Field {
        Field::Var(v)
    }
}

/// A tuple pattern: a fixed-arity sequence of [`Field`]s.
///
/// # Examples
///
/// ```
/// use sdl_tuple::{pattern, tuple, Bindings, Value, VarId};
///
/// // <year, α> against <year, 90>
/// let p = pattern![Value::atom("year"), var 0];
/// let mut b = Bindings::new(1);
/// assert!(p.matches(&tuple![Value::atom("year"), 90], &mut b));
/// assert_eq!(b.get(VarId(0)), Some(&Value::Int(90)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pattern {
    fields: Box<[Field]>,
}

impl Pattern {
    /// Creates a pattern from its fields.
    pub fn new(fields: Vec<Field>) -> Pattern {
        Pattern {
            fields: fields.into(),
        }
    }

    /// Number of fields the pattern requires.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The fields as a slice.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The leading atom constant, if any — used for indexing.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdl_tuple::{pattern, Atom, Value};
    /// assert_eq!(
    ///     pattern![Value::atom("label"), any].functor(),
    ///     Some(Atom::new("label"))
    /// );
    /// assert_eq!(pattern![any, any].functor(), None);
    /// ```
    pub fn functor(&self) -> Option<crate::Atom> {
        match self.fields.first() {
            Some(Field::Const(v)) => v.as_atom(),
            _ => None,
        }
    }

    /// True if every field is a constant.
    pub fn is_ground(&self) -> bool {
        self.fields.iter().all(Field::is_const)
    }

    /// The set of variables occurring in the pattern.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.fields.iter().filter_map(|f| match f {
            Field::Var(v) => Some(*v),
            _ => None,
        })
    }

    /// Attempts to match `tuple`, extending `bindings`.
    ///
    /// On success returns `true` with any newly bound variables recorded in
    /// `bindings`. On failure returns `false` and **rolls back** all
    /// bindings made during this call, so the caller can retry against
    /// another tuple.
    pub fn matches(&self, tuple: &Tuple, bindings: &mut Bindings) -> bool {
        if self.fields.len() != tuple.arity() {
            return false;
        }
        let mark = bindings.mark();
        for (field, value) in self.fields.iter().zip(tuple.iter()) {
            let ok = match field {
                Field::Const(c) => c == value,
                Field::Any => true,
                Field::Var(v) => match bindings.get(*v) {
                    Some(bound) => bound == value,
                    None => {
                        bindings.bind(*v, value.clone());
                        true
                    }
                },
            };
            if !ok {
                bindings.undo_to(mark);
                return false;
            }
        }
        true
    }

    /// True if the pattern could match `tuple` under *some* extension of
    /// `bindings` — identical to [`Pattern::matches`] but without recording
    /// bindings. Used for import/export membership tests.
    pub fn admits(&self, tuple: &Tuple, bindings: &Bindings) -> bool {
        let mut scratch = bindings.clone();
        self.matches(tuple, &mut scratch)
    }

    /// Instantiates the pattern into a tuple under `bindings`.
    ///
    /// Wildcards and unbound variables yield `None` (the pattern does not
    /// denote a single tuple).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdl_tuple::{pattern, Bindings, Value, VarId};
    /// let p = pattern![Value::atom("found"), var 0];
    /// let mut b = Bindings::new(1);
    /// b.bind(VarId(0), Value::Int(90));
    /// assert_eq!(p.instantiate(&b).unwrap().to_string(), "<found, 90>");
    /// ```
    pub fn instantiate(&self, bindings: &Bindings) -> Option<Tuple> {
        let mut out = Vec::with_capacity(self.fields.len());
        for f in self.fields.iter() {
            match f {
                Field::Const(v) => out.push(v.clone()),
                Field::Any => return None,
                Field::Var(v) => out.push(bindings.get(*v)?.clone()),
            }
        }
        Some(Tuple::new(out))
    }
}

impl fmt::Display for Pattern {
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

impl From<Vec<Field>> for Pattern {
    fn from(fields: Vec<Field>) -> Pattern {
        Pattern::new(fields)
    }
}

impl FromIterator<Field> for Pattern {
    fn from_iter<I: IntoIterator<Item = Field>>(iter: I) -> Pattern {
        Pattern::new(iter.into_iter().collect())
    }
}

/// Builds a [`Pattern`]. Fields are expressions convertible to [`Value`],
/// the keyword `any` (wildcard `*`), or `var n` for variable `n`.
///
/// # Examples
///
/// ```
/// use sdl_tuple::{pattern, Value};
/// let p = pattern![Value::atom("year"), any, var 3];
/// assert_eq!(p.to_string(), "<year, *, ?3>");
/// ```
#[macro_export]
macro_rules! pattern {
    (@acc [$($acc:tt)*];) => {
        $crate::Pattern::new(::std::vec![$($acc)*])
    };
    (@acc [$($acc:tt)*]; any $(, $($rest:tt)*)?) => {
        $crate::pattern!(@acc [$($acc)* ($crate::Field::Any),]; $($($rest)*)?)
    };
    (@acc [$($acc:tt)*]; var $n:expr $(, $($rest:tt)*)?) => {
        $crate::pattern!(@acc [$($acc)* ($crate::Field::Var($crate::VarId($n))),]; $($($rest)*)?)
    };
    (@acc [$($acc:tt)*]; $v:expr $(, $($rest:tt)*)?) => {
        $crate::pattern!(
            @acc [$($acc)* ($crate::Field::Const($crate::Value::from($v))),];
            $($($rest)*)?
        )
    };
    () => { $crate::Pattern::new(::std::vec::Vec::new()) };
    ($($parts:tt)+) => {
        $crate::pattern!(@acc []; $($parts)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn const_and_wildcard_matching() {
        let p = pattern![Value::atom("year"), any];
        let mut b = Bindings::new(0);
        assert!(p.matches(&tuple![Value::atom("year"), 87], &mut b));
        assert!(!p.matches(&tuple![Value::atom("month"), 87], &mut b));
        assert!(!p.matches(&tuple![Value::atom("year")], &mut b), "arity");
    }

    #[test]
    fn variable_binding_and_consistency() {
        // <α, α> matches <3, 3> but not <3, 4>.
        let p = pattern![var 0, var 0];
        let mut b = Bindings::new(1);
        assert!(!p.matches(&tuple![3, 4], &mut b));
        assert_eq!(b.get(VarId(0)), None, "failed match rolls back");
        assert!(p.matches(&tuple![3, 3], &mut b));
        assert_eq!(b.get(VarId(0)), Some(&Value::Int(3)));
    }

    #[test]
    fn prebound_variable_acts_as_constant() {
        let p = pattern![var 0, var 1];
        let mut b = Bindings::new(2);
        b.bind(VarId(0), Value::Int(7));
        assert!(!p.matches(&tuple![8, 9], &mut b));
        assert!(p.matches(&tuple![7, 9], &mut b));
        assert_eq!(b.get(VarId(1)), Some(&Value::Int(9)));
    }

    #[test]
    fn rollback_on_partial_failure() {
        // <α, β, never> fails in position 3 after binding α, β.
        let p = pattern![var 0, var 1, Value::atom("never")];
        let mut b = Bindings::new(2);
        assert!(!p.matches(&tuple![1, 2, Value::atom("x")], &mut b));
        assert_eq!(b.get(VarId(0)), None);
        assert_eq!(b.get(VarId(1)), None);
    }

    #[test]
    fn admits_does_not_bind() {
        let p = pattern![var 0];
        let b = Bindings::new(1);
        assert!(p.admits(&tuple![1], &b));
        assert_eq!(b.get(VarId(0)), None);
    }

    #[test]
    fn instantiate() {
        let p = pattern![Value::atom("pair"), var 0, var 1];
        let mut b = Bindings::new(2);
        assert_eq!(p.instantiate(&b), None, "unbound var");
        b.bind(VarId(0), Value::Int(1));
        b.bind(VarId(1), Value::Int(2));
        assert_eq!(p.instantiate(&b), Some(tuple![Value::atom("pair"), 1, 2]));
        assert_eq!(pattern![any].instantiate(&b), None, "wildcard");
    }

    #[test]
    fn metadata() {
        let p = pattern![Value::atom("label"), any, var 2];
        assert_eq!(p.arity(), 3);
        assert_eq!(p.functor(), Some(crate::Atom::new("label")));
        assert!(!p.is_ground());
        assert_eq!(p.vars().collect::<Vec<_>>(), vec![VarId(2)]);
        assert!(pattern![Value::Int(1)].is_ground());
        assert_eq!(pattern![var 0, any].functor(), None);
    }

    #[test]
    fn display() {
        let p = pattern![Value::atom("year"), any, var 1];
        assert_eq!(p.to_string(), "<year, *, ?1>");
        assert_eq!(pattern![].to_string(), "<>");
    }

    #[test]
    fn empty_pattern_matches_empty_tuple() {
        let p = pattern![];
        let mut b = Bindings::new(0);
        assert!(p.matches(&tuple![], &mut b));
        assert!(!p.matches(&tuple![1], &mut b));
    }
}
