//! Property-based round-trip tests: generated machines survive
//! print → parse → print unchanged; and the frontend is total on
//! mutated programs.

use farm_almanac::ast::*;
use farm_almanac::compile::frontend;
use farm_almanac::error::Span;
use farm_almanac::parser::parse;
use farm_almanac::printer::{machine_to_source, program_to_source};
use proptest::collection::vec;
use proptest::prelude::*;

fn sp() -> Span {
    Span::default()
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("avoid keywords", |s| {
        ![
            "machine",
            "state",
            "when",
            "do",
            "if",
            "then",
            "else",
            "while",
            "return",
            "send",
            "to",
            "transit",
            "place",
            "all",
            "any",
            "range",
            "recv",
            "from",
            "as",
            "enter",
            "exit",
            "realloc",
            "external",
            "fun",
            "and",
            "or",
            "not",
            "true",
            "false",
            "util",
            "extends",
            "bool",
            "int",
            "long",
            "float",
            "string",
            "list",
            "packet",
            "action",
            "filter",
            "rule",
            "time",
            "poll",
            "probe",
            "port",
            "proto",
            "sender",
            "receiver",
            "midpoint",
            "resources",
            "stat",
        ]
        .contains(&s.as_str())
    })
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i32>().prop_map(|i| Expr::Lit(Literal::Int(i as i64), sp())),
        any::<bool>().prop_map(|b| Expr::Lit(Literal::Bool(b), sp())),
        (1u32..100_000).prop_map(|n| Expr::Lit(Literal::Float(n as f64 / 64.0), sp())),
        "[a-z0-9./]{0,8}".prop_map(|s| Expr::Lit(Literal::Str(s), sp())),
    ]
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        prop_oneof![literal(), ident().prop_map(|n| Expr::Var(n, sp()))].boxed()
    } else {
        let leaf = expr(depth - 1);
        prop_oneof![
            literal(),
            ident().prop_map(|n| Expr::Var(n, sp())),
            (leaf.clone(), leaf.clone(), bin_op()).prop_map(|(a, b, op)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b),
                sp()
            )),
            leaf.clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e), sp())),
            (ident(), proptest::collection::vec(leaf.clone(), 0..3)).prop_map(|(name, args)| {
                Expr::Call {
                    name,
                    args,
                    span: sp(),
                }
            }),
        ]
        .boxed()
    }
}

fn bin_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Cmp(CmpOp::Eq)),
        Just(BinOp::Cmp(CmpOp::Ne)),
        Just(BinOp::Cmp(CmpOp::Le)),
        Just(BinOp::Cmp(CmpOp::Ge)),
        Just(BinOp::Cmp(CmpOp::Lt)),
        Just(BinOp::Cmp(CmpOp::Gt)),
    ]
}

fn action(depth: u32) -> BoxedStrategy<Action> {
    let assign = (ident(), expr(1)).prop_map(|(target, value)| Action::Assign {
        target,
        field: None,
        value,
        span: sp(),
    });
    if depth == 0 {
        assign.boxed()
    } else {
        let inner = proptest::collection::vec(action(depth - 1), 0..3);
        prop_oneof![
            assign,
            (expr(1), inner.clone(), inner.clone()).prop_map(|(cond, t, e)| Action::If {
                cond,
                then_branch: t,
                else_branch: e,
                span: sp()
            }),
            (expr(1), inner).prop_map(|(cond, body)| Action::While {
                cond,
                body,
                span: sp()
            }),
            expr(1).prop_map(|e| Action::Return {
                value: Some(e),
                span: sp()
            }),
            (expr(1),).prop_map(|(e,)| Action::Send {
                value: e,
                to: MsgEndpoint::Harvester,
                span: sp()
            }),
        ]
        .boxed()
    }
}

fn machine() -> impl Strategy<Value = Machine> {
    (
        "[A-Z][a-zA-Z0-9]{0,6}",
        proptest::collection::vec((ident(), expr(1)), 0..4),
        proptest::collection::vec(
            (
                "[a-z][a-z0-9]{0,6}",
                proptest::collection::vec(action(2), 0..4),
            ),
            1..4,
        ),
    )
        .prop_map(|(name, vars, states)| Machine {
            name,
            extends: None,
            placements: vec![PlaceDirective {
                quant: PlaceQuant::All,
                constraint: PlaceConstraint::None,
                span: sp(),
            }],
            vars: vars
                .into_iter()
                .enumerate()
                .map(|(i, (n, init))| VarDecl {
                    external: false,
                    kind: DeclKind::Plain(Type::Long),
                    name: format!("{n}{i}"), // uniqueness
                    init: Some(init),
                    span: sp(),
                })
                .collect(),
            states: states
                .into_iter()
                .enumerate()
                .map(|(i, (n, actions))| StateDecl {
                    name: format!("{n}{i}"),
                    vars: vec![],
                    util: None,
                    events: vec![EventDecl {
                        trigger: Trigger::Enter,
                        actions,
                        span: sp(),
                    }],
                    span: sp(),
                })
                .collect(),
            events: vec![],
            span: sp(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// print → parse → print is the identity on canonical source.
    #[test]
    fn printer_parse_fixpoint(m in machine()) {
        let src = machine_to_source(&m);
        let reparsed = parse(&src).unwrap_or_else(|e| panic!("reparse failed: {e}\n{src}"));
        let src2 = program_to_source(&reparsed);
        let reparsed2 = parse(&src2).unwrap();
        prop_assert_eq!(src2, program_to_source(&reparsed2));
    }
}

/// Every Tab. I use case, the anomaly programs, the example and the
/// benchmark's programs.
fn corpus() -> Vec<&'static str> {
    let mut v: Vec<&str> = farm_almanac::programs::USE_CASES
        .iter()
        .map(|u| u.source)
        .collect();
    v.extend(farm_almanac::programs::ANOMALY_PROGRAMS.iter().map(|p| p.1));
    v.push(include_str!("../../../examples/load_watcher.alm"));
    v.push(include_str!("../../benchmark/programs/load_watcher.alm"));
    v.push(include_str!("../../benchmark/programs/pinned_watcher.alm"));
    v
}

/// What the deep-nesting arm repeats: each opens one level more.
const OPENERS: [&str; 6] = ["(", "- ", "not ", "min(1, ", "if (true) then { ", "1 + ("];

proptest! {
    /// Mutated programs are `Ok` or `Err`, never a panic or an overflow:
    /// bytes flipped, inserted, removed or cut anywhere, or an opener
    /// repeated up to 100 000 times (the deep-nesting arm).
    #[test]
    fn frontend_is_total_on_mutated_programs(
        pick in any::<usize>(),
        edits in vec((any::<usize>(), any::<u8>(), 0u8..5, 0usize..100_000), 1..6),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[pick % corpus.len()].as_bytes().to_vec();
        for (at, byte, kind, n) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                3 => {
                    let opener = OPENERS[usize::from(byte) % OPENERS.len()];
                    bytes.splice(at..at, opener.repeat(n).into_bytes());
                }
                _ => bytes.truncate(at),
            }
        }
        let _ = frontend(&String::from_utf8_lossy(&bytes));
    }
}
