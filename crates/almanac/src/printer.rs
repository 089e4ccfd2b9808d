//! Canonical source rendering of Almanac ASTs.
//!
//! Used by the XML seed format (the seeder ships machine definitions to
//! soils as canonical source embedded in XML, § V-A d) and by tests as a
//! parse→print→parse round-trip oracle.

use std::fmt::Write;

use crate::ast::*;

/// Renders a whole program as canonical Almanac source.
pub fn program_to_source(p: &Program) -> String {
    let mut out = String::new();
    for f in &p.functions {
        function_to_source(f, &mut out);
        out.push('\n');
    }
    for m in &p.machines {
        machine_to_source_into(m, &mut out);
        out.push('\n');
    }
    out
}

/// Renders one machine as canonical Almanac source.
pub fn machine_to_source(m: &Machine) -> String {
    let mut out = String::new();
    machine_to_source_into(m, &mut out);
    out
}

fn function_to_source(f: &FunDecl, out: &mut String) {
    let params = f
        .params
        .iter()
        .map(|(t, n)| format!("{} {}", t.keyword(), n))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(out, "fun {}({params})", f.name);
    if let Some(r) = f.ret {
        let _ = write!(out, ": {}", r.keyword());
    }
    out.push_str(" {\n");
    for a in &f.body {
        action_to_source(a, 1, out);
    }
    out.push_str("}\n");
}

fn machine_to_source_into(m: &Machine, out: &mut String) {
    let _ = write!(out, "machine {}", m.name);
    if let Some(e) = &m.extends {
        let _ = write!(out, " extends {e}");
    }
    out.push_str(" {\n");
    for p in &m.placements {
        place_to_source(p, out);
    }
    for v in &m.vars {
        var_to_source(v, 1, out);
    }
    for s in &m.states {
        state_to_source(s, out);
    }
    for ev in &m.events {
        event_to_source(ev, 1, out);
    }
    out.push_str("}\n");
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn place_to_source(p: &PlaceDirective, out: &mut String) {
    indent(1, out);
    out.push_str("place ");
    out.push_str(match p.quant {
        PlaceQuant::All => "all",
        PlaceQuant::Any => "any",
    });
    match &p.constraint {
        PlaceConstraint::None => {}
        PlaceConstraint::Switches(exprs) => {
            out.push(' ');
            let parts: Vec<String> = exprs.iter().map(expr_to_source).collect();
            out.push_str(&parts.join(", "));
        }
        PlaceConstraint::Range {
            role,
            filter,
            op,
            dist,
        } => {
            if let Some(r) = role {
                let _ = write!(
                    out,
                    " {}",
                    match r {
                        PathRole::Sender => "sender",
                        PathRole::Receiver => "receiver",
                        PathRole::Midpoint => "midpoint",
                    }
                );
            }
            if let Some(f) = filter {
                let _ = write!(out, " {}", expr_to_source(f));
            }
            let _ = write!(
                out,
                " range {} {}",
                cmp_to_source(*op),
                expr_to_source(dist)
            );
        }
    }
    out.push_str(";\n");
}

fn var_to_source(v: &VarDecl, level: usize, out: &mut String) {
    indent(level, out);
    if v.external {
        out.push_str("external ");
    }
    let kw = match v.kind {
        DeclKind::Plain(t) => t.keyword(),
        DeclKind::Trigger(t) => t.keyword(),
    };
    let _ = write!(out, "{kw} {}", v.name);
    if let Some(init) = &v.init {
        let _ = write!(out, " = {}", expr_to_source(init));
    }
    out.push_str(";\n");
}

fn state_to_source(s: &StateDecl, out: &mut String) {
    indent(1, out);
    let _ = writeln!(out, "state {} {{", s.name);
    for v in &s.vars {
        var_to_source(v, 2, out);
    }
    if let Some(u) = &s.util {
        indent(2, out);
        let _ = writeln!(out, "util ({}) {{", u.param);
        for a in &u.body {
            action_to_source(a, 3, out);
        }
        indent(2, out);
        out.push_str("}\n");
    }
    for ev in &s.events {
        event_to_source(ev, 2, out);
    }
    indent(1, out);
    out.push_str("}\n");
}

fn event_to_source(ev: &EventDecl, level: usize, out: &mut String) {
    indent(level, out);
    out.push_str("when (");
    match &ev.trigger {
        Trigger::Enter => out.push_str("enter"),
        Trigger::Exit => out.push_str("exit"),
        Trigger::Realloc => out.push_str("realloc"),
        Trigger::Var { name, bind } => {
            out.push_str(name);
            if let Some(b) = bind {
                let _ = write!(out, " as {b}");
            }
        }
        Trigger::Recv { ty, bind, from } => {
            let _ = write!(
                out,
                "recv {} {bind} from {}",
                ty.keyword(),
                endpoint_to_source(from)
            );
        }
    }
    out.push_str(") do {\n");
    for a in &ev.actions {
        action_to_source(a, level + 1, out);
    }
    indent(level, out);
    out.push_str("}\n");
}

fn endpoint_to_source(ep: &MsgEndpoint) -> String {
    match ep {
        MsgEndpoint::Harvester => "harvester".to_string(),
        MsgEndpoint::Machine { name, at } => match at {
            None => name.clone(),
            Some(e) => format!("{name}@{}", expr_to_source(e)),
        },
    }
}

fn action_to_source(a: &Action, level: usize, out: &mut String) {
    match a {
        Action::Assign {
            target,
            field,
            value,
            ..
        } => {
            indent(level, out);
            match field {
                Some(f) => {
                    let _ = writeln!(out, "{target}.{f} = {};", expr_to_source(value));
                }
                None => {
                    let _ = writeln!(out, "{target} = {};", expr_to_source(value));
                }
            }
        }
        Action::Transit { state, .. } => {
            indent(level, out);
            let _ = writeln!(out, "transit {state};");
        }
        Action::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            indent(level, out);
            let _ = writeln!(out, "if ({}) then {{", expr_to_source(cond));
            for b in then_branch {
                action_to_source(b, level + 1, out);
            }
            indent(level, out);
            out.push('}');
            if !else_branch.is_empty() {
                out.push_str(" else {\n");
                for b in else_branch {
                    action_to_source(b, level + 1, out);
                }
                indent(level, out);
                out.push('}');
            }
            out.push('\n');
        }
        Action::While { cond, body, .. } => {
            indent(level, out);
            let _ = writeln!(out, "while ({}) {{", expr_to_source(cond));
            for b in body {
                action_to_source(b, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Action::Return { value, .. } => {
            indent(level, out);
            match value {
                Some(v) => {
                    let _ = writeln!(out, "return {};", expr_to_source(v));
                }
                None => out.push_str("return;\n"),
            }
        }
        Action::Send { value, to, .. } => {
            indent(level, out);
            let _ = writeln!(
                out,
                "send {} to {};",
                expr_to_source(value),
                endpoint_to_source(to)
            );
        }
        Action::ExprStmt { expr, .. } => {
            indent(level, out);
            let _ = writeln!(out, "{};", expr_to_source(expr));
        }
        Action::Local(v) => var_to_source(v, level, out),
    }
}

fn cmp_to_source(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "<>",
        CmpOp::Le => "<=",
        CmpOp::Ge => ">=",
        CmpOp::Lt => "<",
        CmpOp::Gt => ">",
    }
}

/// Renders an expression with full parenthesization (unambiguous, so the
/// round trip re-parses to the same tree).
pub(crate) fn expr_to_source(e: &Expr) -> String {
    match e {
        Expr::Lit(l, _) => match l {
            Literal::Bool(b) => b.to_string(),
            Literal::Int(i) => i.to_string(),
            Literal::Float(f) => {
                // Keep a decimal point so the literal stays a float.
                let s = f.to_string();
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            Literal::Str(s) => format!("{s:?}"),
        },
        Expr::Var(n, _) => n.clone(),
        Expr::Filter(f, _) => match f {
            FilterExpr::SrcIp(e) => format!("srcIP {}", expr_to_source(e)),
            FilterExpr::DstIp(e) => format!("dstIP {}", expr_to_source(e)),
            FilterExpr::SrcPort(e) => format!("srcPort {}", expr_to_source(e)),
            FilterExpr::DstPort(e) => format!("dstPort {}", expr_to_source(e)),
            FilterExpr::Proto(e) => format!("proto {}", expr_to_source(e)),
            FilterExpr::IfPort(e) => format!("port {}", expr_to_source(e)),
            FilterExpr::IfPortAny => "port ANY".to_string(),
        },
        Expr::Unary(op, inner, _) => {
            let o = match op {
                UnOp::Not => "not ",
                UnOp::Neg => "-",
            };
            format!("({o}{})", expr_to_source(inner))
        }
        Expr::Binary(op, a, b, _) => {
            let o = match op {
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Cmp(c) => cmp_to_source(*c),
            };
            format!("({} {o} {})", expr_to_source(a), expr_to_source(b))
        }
        Expr::Call { name, args, .. } => {
            let parts: Vec<String> = args.iter().map(expr_to_source).collect();
            format!("{name}({})", parts.join(", "))
        }
        Expr::Field(base, field, _) => format!("{}.{field}", expr_to_source(base)),
        Expr::StructLit { name, fields, .. } => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(n, e)| format!(".{n} = {}", expr_to_source(e)))
                .collect();
            format!("{name} {{ {} }}", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strips spans so round-trip comparison ignores positions.
    fn normalize(src: &str) -> String {
        program_to_source(&parse(src).unwrap())
    }

    #[test]
    fn print_parse_round_trip_is_stable() {
        let src = r#"
            fun f(list l, long t): list {
              list out;
              int i = 0;
              while (i < list_len(l)) {
                if (stat_tx_bytes(list_get(l, i)) >= t) then {
                  list_push(out, list_get(l, i));
                } else { i = i; }
                i = i + 1;
              }
              return out;
            }
            machine HH {
              place all;
              place any receiver srcIP "10.1.1.4" range <= 1;
              poll p = Poll { .ival = 10/res().PCIe, .what = port ANY };
              external long threshold = 1000;
              state observe {
                util (res) { if (res.vCPU >= 1) then { return min(res.vCPU, res.PCIe); } }
                when (p as stats) do { transit detected; }
              }
              state detected {
                when (enter) do { send threshold to harvester; transit observe; }
              }
              when (recv long x from harvester) do { threshold = x; }
            }
        "#;
        let once = normalize(src);
        let twice = normalize(&once);
        assert_eq!(once, twice, "printer must be a fixpoint of parse∘print");
    }

    #[test]
    fn float_literals_keep_their_type() {
        let src = "machine M { float x = 2.0; state s { } }";
        let printed = normalize(src);
        assert!(
            printed.contains("2.0") || printed.contains("2."),
            "{printed}"
        );
        // And the round trip still type-parses as float.
        let p = parse(&printed).unwrap();
        let Expr::Lit(Literal::Float(_), _) = p.machines[0].vars[0].init.as_ref().unwrap() else {
            panic!("float literal degraded to int");
        };
    }

    #[test]
    fn machine_source_contains_all_sections() {
        let src = r#"
            machine M {
              place any;
              long x;
              state s { when (enter) do { x = 1; } }
              when (realloc) do { x = 2; }
            }
        "#;
        let printed = machine_to_source(&parse(src).unwrap().machines[0]);
        for needle in ["place any;", "long x;", "state s {", "when (realloc)"] {
            assert!(printed.contains(needle), "missing {needle} in:\n{printed}");
        }
    }
}
