//! Property tests: pretty-print/parse round-trips over generated ASTs.

use proptest::prelude::*;

use sdl_tuple::Value;

use crate::ast::*;
use crate::parser::{parse_program, parse_transaction};

fn arb_name() -> impl Strategy<Value = String> {
    // Avoid keywords; keep names short.
    prop_oneof![
        Just("a"),
        Just("b"),
        Just("k"),
        Just("year"),
        Just("found"),
        Just("v1"),
        Just("next_id"),
    ]
    .prop_map(str::to_owned)
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(|i| Expr::Lit(Value::Int(i))),
        arb_name().prop_map(|n| Expr::name(&n)),
        any::<bool>().prop_map(|b| Expr::Lit(sdl_tuple::Value::Bool(b))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::bin(BinOp::Add, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::bin(BinOp::Mul, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::bin(BinOp::Lt, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::bin(BinOp::And, l, r)),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            proptest::collection::vec(inner, 0..3)
                .prop_map(|args| Expr::Call("f".to_owned(), args)),
        ]
    })
}

fn arb_pattern() -> impl Strategy<Value = PatternExpr> {
    proptest::collection::vec(
        prop_oneof![
            Just(FieldExpr::Any),
            arb_name().prop_map(|n| FieldExpr::Expr(Expr::name(&n))),
            (0i64..50).prop_map(|i| FieldExpr::Expr(Expr::Lit(Value::Int(i)))),
        ],
        0..4,
    )
    .prop_map(PatternExpr::new)
}

fn arb_atom() -> impl Strategy<Value = TxnAtom> {
    prop_oneof![
        (arb_pattern(), any::<bool>())
            .prop_map(|(pattern, retract)| TxnAtom::Tuple { pattern, retract }),
        arb_pattern().prop_map(TxnAtom::Neg),
        (proptest::collection::vec(arb_expr(), 0..3), any::<bool>()).prop_map(|(args, negated)| {
            TxnAtom::Pred {
                name: "neighbor".to_owned(),
                args,
                negated,
            }
        }),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        proptest::collection::vec(arb_expr(), 1..3).prop_map(Action::Assert),
        (arb_name(), arb_expr()).prop_map(|(n, e)| Action::Let(n, e)),
        proptest::collection::vec(arb_expr(), 0..3)
            .prop_map(|args| Action::Spawn("Worker".to_owned(), args)),
        Just(Action::Skip),
        Just(Action::Exit),
        Just(Action::Abort),
    ]
}

prop_compose! {
    fn arb_txn()(
        quant in prop_oneof![Just(Quant::Exists), Just(Quant::Forall)],
        vars in proptest::collection::vec(arb_name(), 0..3),
        atoms in proptest::collection::vec(arb_atom(), 0..3),
        test in proptest::option::of(arb_expr()),
        kind in prop_oneof![
            Just(TxnKind::Immediate),
            Just(TxnKind::Delayed),
            Just(TxnKind::Consensus)
        ],
        actions in proptest::collection::vec(arb_action(), 0..3),
    ) -> Transaction {
        let mut vars = vars;
        vars.dedup();
        // A quantifier without variables prints without the quantifier
        // prefix; normalise so round-trips compare equal.
        let quant = if vars.is_empty() { Quant::Exists } else { quant };
        Transaction { quant, vars, atoms, test, kind, actions }
    }
}

proptest! {
    /// Pretty-printing a transaction and re-parsing it yields the same
    /// AST.
    #[test]
    fn txn_roundtrip(t in arb_txn()) {
        let printed = t.to_string();
        let reparsed = parse_transaction(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nsource: {printed}"));
        prop_assert_eq!(reparsed, t, "printed: {}", printed);
    }

    /// Same round-trip at the program level with a generated process.
    #[test]
    fn program_roundtrip(
        txns in proptest::collection::vec(arb_txn(), 1..4),
        params in proptest::collection::vec(arb_name(), 0..3),
    ) {
        let mut params = params;
        params.dedup();
        let p = Program {
            processes: vec![ProcessDef {
                name: "Gen".to_owned(),
                params,
                view: ViewDef::full(),
                body: txns.into_iter().map(Stmt::Txn).collect(),
            }],
            init: InitBlock::default(),
        };
        let printed = p.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nsource: {printed}"));
        prop_assert_eq!(reparsed, p, "printed: {}", printed);
    }

    /// The pretty-printed form of any generated expression parses as an
    /// expression (inside a test position) without error.
    #[test]
    fn exprs_always_reparse(e in arb_expr()) {
        let src = format!("{e} == 0 -> skip");
        // May legitimately fail only if the printed form is empty — it
        // never is.
        prop_assert!(parse_transaction(&src).is_ok(), "source: {}", src);
    }
}

/// What hostile transaction sources are built from: SDL tokens, lone
/// brackets, quote and comment openers, odd numbers and non-ASCII text.
const PIECES: &[&str] = &[
    "exists",
    "forall",
    "a",
    "x1",
    "<",
    ">",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    ";",
    "!",
    "->",
    "=>",
    "@>",
    "-",
    "+",
    "*",
    "/",
    "^",
    "==",
    "<=",
    "and",
    "or",
    "not",
    "skip",
    "exit",
    "abort",
    "let",
    "spawn",
    "_",
    "0",
    "42",
    "-7",
    "3.5",
    "1e99",
    "99999999999999999999",
    "\"",
    "\"s\"",
    "'",
    "#",
    "//",
    "/*",
    " ",
    "\n",
    "\t",
    "é",
    "日本",
    "🦀",
    "\u{0}",
    "\u{feff}",
    "\u{202e}",
];

fn arb_hostile_source() -> impl Strategy<Value = String> {
    prop_oneof![
        // Token soup.
        proptest::collection::vec(0..PIECES.len(), 0..48)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect::<String>()),
        // Arbitrary scalar values.
        proptest::collection::vec(0u32..0x11_0000, 0..48).prop_map(|cs| cs
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()),
        // A valid transaction with pieces spliced in at any char boundary.
        (
            arb_txn(),
            any::<usize>(),
            proptest::collection::vec(0..PIECES.len(), 1..4)
        )
            .prop_map(|(t, at, ix)| {
                let mut s = t.to_string();
                let mut at = at % (s.len() + 1);
                while !s.is_char_boundary(at) {
                    at -= 1;
                }
                let splice: String = ix.into_iter().map(|i| PIECES[i]).collect();
                s.insert_str(at, &splice);
                s
            }),
        // Deep, unbalanced nesting.
        (0..PIECES.len(), 0usize..1 << 17).prop_map(|(i, n)| PIECES[i].repeat(n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The wire's `Txn` source is untrusted: whatever the text, parsing
    /// returns a result and never panics.
    #[test]
    fn hostile_source_never_panics(src in arb_hostile_source()) {
        let _ = parse_transaction(&src);
    }
}
