//! Compile-time (seeder-side) evaluation of Almanac expressions.
//!
//! The seeder must fully evaluate the expressions inside `place` directives
//! and `poll`/`probe` subjects before deployment (§ III-B: "each `ex`
//! inside `Π_i` fully evaluated to constants"). This module implements that
//! evaluator over a constant environment of `external` assignments and
//! machine-variable initializers. Anything runtime-dependent (e.g.
//! `res()`) is reported as non-constant.

use std::collections::HashMap;

use farm_netsim::types::{FilterAtom, FilterFormula, PortSel, Prefix, Proto};

use crate::ast::*;
use crate::error::{AlmanacError, Result};
use crate::value::{ActionValue, RuleValue, Value};

/// Constant environment for seeder-side evaluation.
pub type ConstEnv = HashMap<String, Value>;

/// Evaluates `expr` to a constant [`Value`].
///
/// # Errors
///
/// Analysis-phase error when the expression references runtime state
/// (`res()`, trigger payloads, unknown variables) or is ill-formed.
pub fn const_eval(expr: &Expr, env: &ConstEnv) -> Result<Value> {
    match expr {
        Expr::Lit(l, _) => Ok(match l {
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(f) => Value::Float(*f),
            Literal::Str(s) => Value::Str(s.clone()),
        }),
        Expr::Var(name, span) => env.get(name).cloned().ok_or_else(|| {
            AlmanacError::analysis(*span, format!("`{name}` is not a compile-time constant"))
        }),
        Expr::Filter(f, span) => {
            let atom = match f {
                FilterExpr::SrcIp(e) => FilterAtom::SrcIp(eval_prefix(e, env)?),
                FilterExpr::DstIp(e) => FilterAtom::DstIp(eval_prefix(e, env)?),
                FilterExpr::SrcPort(e) => FilterAtom::SrcPort(eval_u16(e, env)?),
                FilterExpr::DstPort(e) => FilterAtom::DstPort(eval_u16(e, env)?),
                FilterExpr::Proto(e) => {
                    let v = const_eval(e, env)?;
                    let s = v.as_str().ok_or_else(|| {
                        AlmanacError::analysis(e.span(), "proto expects a string")
                    })?;
                    let p = match s {
                        "tcp" => Proto::Tcp,
                        "udp" => Proto::Udp,
                        "icmp" => Proto::Icmp,
                        other => {
                            return Err(AlmanacError::analysis(
                                e.span(),
                                format!("unknown protocol `{other}`"),
                            ))
                        }
                    };
                    FilterAtom::Proto(p)
                }
                FilterExpr::IfPort(e) => FilterAtom::IfPort(PortSel::Id(eval_u16(e, env)?)),
                FilterExpr::IfPortAny => FilterAtom::IfPort(PortSel::Any),
            };
            let _ = span;
            Ok(Value::Filter(FilterFormula::Atom(atom)))
        }
        Expr::Unary(UnOp::Not, inner, span) => match const_eval(inner, env)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Filter(f) => Ok(Value::Filter(f.not())),
            other => Err(AlmanacError::analysis(
                *span,
                format!("`not` expects bool or filter, found {}", other.type_name()),
            )),
        },
        Expr::Unary(UnOp::Neg, inner, span) => match const_eval(inner, env)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(AlmanacError::analysis(
                *span,
                format!("negation expects a number, found {}", other.type_name()),
            )),
        },
        Expr::Binary(op, a, b, span) => {
            let va = const_eval(a, env)?;
            let vb = const_eval(b, env)?;
            binary_op(*op, &va, &vb).map_err(|m| AlmanacError::analysis(*span, m))
        }
        Expr::Call { name, args, span } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| const_eval(a, env))
                .collect::<Result<_>>()?;
            const_builtin(name, &vals)
                .ok_or_else(|| {
                    AlmanacError::analysis(
                        *span,
                        format!("`{name}` cannot be evaluated at deployment time"),
                    )
                })?
                .map_err(|m| AlmanacError::analysis(*span, m))
        }
        Expr::Field(_, _, span) => Err(AlmanacError::analysis(
            *span,
            "field access is not a compile-time constant",
        )),
        Expr::StructLit { name, fields, span } => {
            if name == "Rule" {
                let mut pattern = None;
                let mut action = None;
                for (fname, fexpr) in fields {
                    match fname.as_str() {
                        "pattern" => match const_eval(fexpr, env)? {
                            Value::Filter(f) => pattern = Some(f),
                            other => {
                                return Err(AlmanacError::analysis(
                                    fexpr.span(),
                                    format!(".pattern expects filter, found {}", other.type_name()),
                                ))
                            }
                        },
                        "act" => match const_eval(fexpr, env)? {
                            Value::Action(a) => action = Some(a),
                            other => {
                                return Err(AlmanacError::analysis(
                                    fexpr.span(),
                                    format!(".act expects action, found {}", other.type_name()),
                                ))
                            }
                        },
                        _ => {}
                    }
                }
                return Ok(Value::Rule(RuleValue {
                    pattern: pattern
                        .ok_or_else(|| AlmanacError::analysis(*span, "Rule requires .pattern"))?,
                    action: action
                        .ok_or_else(|| AlmanacError::analysis(*span, "Rule requires .act"))?,
                }));
            }
            Err(AlmanacError::analysis(
                *span,
                format!("structure `{name}` is not a compile-time constant"),
            ))
        }
    }
}

/// Constant-foldable subset of the runtime library.
fn const_builtin(name: &str, args: &[Value]) -> Option<std::result::Result<Value, String>> {
    let num2 = |f: fn(f64, f64) -> f64| -> std::result::Result<Value, String> {
        let a = args[0]
            .as_f64()
            .ok_or_else(|| format!("expected number, found {}", args[0].type_name()))?;
        let b = args[1]
            .as_f64()
            .ok_or_else(|| format!("expected number, found {}", args[1].type_name()))?;
        Ok(Value::Float(f(a, b)))
    };
    Some(match (name, args.len()) {
        ("min", 2) => num2(f64::min),
        ("max", 2) => num2(f64::max),
        ("abs", 1) => args[0]
            .as_f64()
            .map(|x| Value::Float(x.abs()))
            .ok_or_else(|| "abs expects a number".to_string()),
        ("action_drop", 0) => Ok(Value::Action(ActionValue::Drop)),
        ("action_count", 0) => Ok(Value::Action(ActionValue::Count)),
        ("action_mirror", 0) => Ok(Value::Action(ActionValue::Mirror)),
        ("action_rate_limit", 1) => args[0]
            .as_int()
            .map(|bps| Value::Action(ActionValue::RateLimit(bps.max(0) as u64)))
            .ok_or_else(|| "rate limit expects an integer".to_string()),
        ("action_set_qos", 1) => args[0]
            .as_int()
            .map(|q| Value::Action(ActionValue::SetQos(q.clamp(0, 255) as u8)))
            .ok_or_else(|| "qos expects an integer".to_string()),
        ("rule", 2) => match (&args[0], &args[1]) {
            (Value::Filter(f), Value::Action(a)) => Ok(Value::Rule(RuleValue {
                pattern: f.clone(),
                action: a.clone(),
            })),
            _ => Err("rule expects (filter, action)".to_string()),
        },
        _ => return None,
    })
}

/// Applies a binary operator to two values (shared with the seed
/// interpreter in `farm-soil`). Operands are borrowed: only `and`/`or` on
/// filters has to copy them.
pub fn binary_op(op: BinOp, a: &Value, b: &Value) -> std::result::Result<Value, String> {
    use BinOp::*;
    match op {
        And | Or => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => {
                Ok(Value::Bool(if op == And { *x && *y } else { *x || *y }))
            }
            (Value::Filter(x), Value::Filter(y)) => {
                let (x, y) = (x.clone(), y.clone());
                Ok(Value::Filter(if op == And { x.and(y) } else { x.or(y) }))
            }
            (x, y) => Err(format!(
                "and/or require two bools or two filters, found {} and {}",
                x.type_name(),
                y.type_name()
            )),
        },
        Add | Sub | Mul | Div => match (a, b) {
            (Value::Int(x), Value::Int(y)) => {
                let r = match op {
                    Add => x.checked_add(*y),
                    Sub => x.checked_sub(*y),
                    Mul => x.checked_mul(*y),
                    Div => {
                        if *y == 0 {
                            return Err("integer division by zero".into());
                        }
                        x.checked_div(*y)
                    }
                    _ => unreachable!(),
                };
                r.map(Value::Int).ok_or_else(|| "integer overflow".into())
            }
            _ => {
                let x = a
                    .as_f64()
                    .ok_or_else(|| format!("arithmetic on {}", a.type_name()))?;
                let y = b
                    .as_f64()
                    .ok_or_else(|| format!("arithmetic on {}", b.type_name()))?;
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        if y == 0.0 {
                            return Err("division by zero".into());
                        }
                        x / y
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Float(r))
            }
        },
        Cmp(c) => {
            // Numeric comparison when both sides are numbers; structural
            // equality otherwise.
            if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                let r = match c {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Le => x <= y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Lt => x < y,
                    CmpOp::Gt => x > y,
                };
                return Ok(Value::Bool(r));
            }
            match c {
                CmpOp::Eq => Ok(Value::Bool(a == b)),
                CmpOp::Ne => Ok(Value::Bool(a != b)),
                _ => Err(format!(
                    "ordering comparison on {} and {}",
                    a.type_name(),
                    b.type_name()
                )),
            }
        }
    }
}

fn eval_prefix(e: &Expr, env: &ConstEnv) -> Result<Prefix> {
    let v = const_eval(e, env)?;
    let s = v
        .as_str()
        .ok_or_else(|| AlmanacError::analysis(e.span(), "IP filter expects a string"))?;
    s.parse::<Prefix>()
        .map_err(|err| AlmanacError::analysis(e.span(), err.to_string()))
}

fn eval_u16(e: &Expr, env: &ConstEnv) -> Result<u16> {
    let v = const_eval(e, env)?;
    let i = v
        .as_int()
        .ok_or_else(|| AlmanacError::analysis(e.span(), "port expects an integer"))?;
    u16::try_from(i).map_err(|_| AlmanacError::analysis(e.span(), format!("port {i} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn eval_str(expr_src: &str, env: &ConstEnv) -> Result<Value> {
        // Wrap the expression in a machine variable initializer to reuse
        // the parser.
        let src = format!("machine M {{ list probeDummy = {expr_src}; state s {{ }} }}");
        let p = parse(&src).unwrap();
        let init = p.machines[0].vars[0].init.clone().unwrap();
        const_eval(&init, env)
    }

    #[test]
    fn evaluates_the_papers_filter_example() {
        let v = eval_str(
            r#"srcIP "10.1.1.4" and dstIP "10.0.1.0/24""#,
            &ConstEnv::new(),
        )
        .unwrap();
        let Value::Filter(f) = v else {
            panic!("expected filter")
        };
        assert_eq!(f.atoms().len(), 2);
        assert_eq!(f.src_prefix().unwrap().to_string(), "10.1.1.4/32");
    }

    #[test]
    fn arithmetic_and_comparison() {
        let env = ConstEnv::new();
        assert_eq!(eval_str("2 + 3 * 4", &env).unwrap(), Value::Int(14));
        assert_eq!(eval_str("10 / 4", &env).unwrap(), Value::Int(2));
        assert_eq!(eval_str("10.0 / 4", &env).unwrap(), Value::Float(2.5));
        assert_eq!(
            eval_str("3 <= 4 and 1 <> 2", &env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("min(3, 7)", &env).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn environment_variables_resolve() {
        let mut env = ConstEnv::new();
        env.insert("threshold".into(), Value::Int(500));
        assert_eq!(eval_str("threshold * 2", &env).unwrap(), Value::Int(1000));
        assert!(eval_str("unknown + 1", &env).is_err());
    }

    #[test]
    fn res_is_not_constant() {
        let e = eval_str("res()", &ConstEnv::new()).unwrap_err();
        assert!(e.message.contains("deployment time"), "{e}");
    }

    #[test]
    fn action_and_rule_constants() {
        let env = ConstEnv::new();
        let v = eval_str(r#"rule(dstPort 80, action_rate_limit(1000))"#, &env).unwrap();
        let Value::Rule(r) = v else { panic!() };
        assert_eq!(r.action, ActionValue::RateLimit(1000));
        let v2 = eval_str(
            r#"Rule { .pattern = dstPort 80, .act = action_drop() }"#,
            &env,
        )
        .unwrap();
        assert!(matches!(v2, Value::Rule(_)));
    }

    #[test]
    fn division_by_zero_is_reported() {
        assert!(eval_str("1 / 0", &ConstEnv::new()).is_err());
        assert!(eval_str("1.0 / 0.0", &ConstEnv::new()).is_err());
    }

    #[test]
    fn port_any_filter() {
        let v = eval_str("port ANY", &ConstEnv::new()).unwrap();
        let Value::Filter(FilterFormula::Atom(FilterAtom::IfPort(PortSel::Any))) = v else {
            panic!("expected port ANY atom, got {v:?}")
        };
    }
}
