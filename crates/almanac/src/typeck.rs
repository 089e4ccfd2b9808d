//! Type checking and inheritance flattening.
//!
//! Checks performed (§ III of the paper):
//!
//! * single inheritance: states may be overridden in child machines,
//!   variables may be neither overridden nor shadowed (§ III-A a),
//! * `external` only at machine level (enforced by the parser) and trigger
//!   variables initialized with the matching `Poll`/`Probe` structure,
//! * name/arity/type checking of every expression against declared
//!   variables, user functions and the runtime-library [`crate::builtins`],
//! * `transit` targets must name states of the machine,
//! * `util` bodies obey the paper's syntactic restrictions (only
//!   if-then-else and return; operators limited to `and or == <= >= + - * /`;
//!   calls limited to `min`/`max`),
//! * mutating list builtins receive a plain variable as first argument.
//!
//! [`check`] returns the *flattened* program: inheritance resolved, ready
//! for analysis and interpretation.

use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::builtin;
use crate::error::{AlmanacError, Result, Span};

/// Type-checks `program` and returns it with inheritance flattened.
///
/// # Errors
///
/// The first typecheck-phase error encountered, with its source span.
pub(crate) fn check(program: &Program) -> Result<Program> {
    let flattened = flatten(program)?;
    let mut fn_sigs: HashMap<String, (Vec<Type>, Option<Type>)> = HashMap::new();
    for f in &flattened.functions {
        if builtin(&f.name).is_some() {
            return Err(AlmanacError::typeck(
                f.span,
                format!("function `{}` shadows a runtime-library builtin", f.name),
            ));
        }
        if fn_sigs
            .insert(
                f.name.clone(),
                (f.params.iter().map(|(t, _)| *t).collect(), f.ret),
            )
            .is_some()
        {
            return Err(AlmanacError::typeck(
                f.span,
                format!("duplicate function `{}`", f.name),
            ));
        }
    }
    let machine_names: Vec<String> = flattened.machines.iter().map(|m| m.name.clone()).collect();
    let checker = Checker {
        fn_sigs,
        machine_names,
    };
    for f in &flattened.functions {
        checker.check_function(f)?;
    }
    for m in &flattened.machines {
        checker.check_machine(m)?;
    }
    Ok(flattened)
}

/// Resolves `extends` chains: parent variables and events come first, child
/// states override parent states by name, and the child's placement
/// directives replace the parent's when present.
pub(crate) fn flatten(program: &Program) -> Result<Program> {
    let mut done: HashMap<String, Machine> = HashMap::new();
    let mut order = Vec::new();
    for m in &program.machines {
        flatten_one(program, m, &mut done, &mut Vec::new())?;
        order.push(m.name.clone());
    }
    Ok(Program {
        functions: program.functions.clone(),
        machines: order.into_iter().map(|n| done[&n].clone()).collect(),
    })
}

fn flatten_one(
    program: &Program,
    m: &Machine,
    done: &mut HashMap<String, Machine>,
    stack: &mut Vec<String>,
) -> Result<()> {
    if done.contains_key(&m.name) {
        return Ok(());
    }
    if stack.contains(&m.name) {
        return Err(AlmanacError::typeck(
            m.span,
            format!("inheritance cycle involving machine `{}`", m.name),
        ));
    }
    let Some(parent_name) = &m.extends else {
        done.insert(m.name.clone(), m.clone());
        return Ok(());
    };
    let parent = program.machine(parent_name).ok_or_else(|| {
        AlmanacError::typeck(
            m.span,
            format!(
                "machine `{}` extends unknown machine `{parent_name}`",
                m.name
            ),
        )
    })?;
    stack.push(m.name.clone());
    flatten_one(program, parent, done, stack)?;
    stack.pop();
    let parent = done[parent_name].clone();

    // Variables: no overriding or shadowing.
    let mut vars = parent.vars.clone();
    for v in &m.vars {
        if vars.iter().any(|p| p.name == v.name) {
            return Err(AlmanacError::typeck(
                v.span,
                format!(
                    "variable `{}` shadows an inherited variable of `{}`",
                    v.name, parent.name
                ),
            ));
        }
        vars.push(v.clone());
    }
    // States: child overrides by name; new child states appended.
    let mut states = parent.states.clone();
    for s in &m.states {
        if let Some(slot) = states.iter_mut().find(|p| p.name == s.name) {
            *slot = s.clone();
        } else {
            states.push(s.clone());
        }
    }
    let placements = if m.placements.is_empty() {
        parent.placements.clone()
    } else {
        m.placements.clone()
    };
    let mut events = parent.events.clone();
    events.extend(m.events.iter().cloned());
    done.insert(
        m.name.clone(),
        Machine {
            name: m.name.clone(),
            extends: m.extends.clone(),
            placements,
            vars,
            states,
            events,
            span: m.span,
        },
    );
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct VarInfo {
    ty: Type,
    trigger: Option<TriggerType>,
}

struct Env {
    scopes: Vec<HashMap<String, VarInfo>>,
}

impl Env {
    fn new() -> Env {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, info: VarInfo, span: Span) -> Result<()> {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        if top.contains_key(name) {
            return Err(AlmanacError::typeck(
                span,
                format!("duplicate variable `{name}` in the same scope"),
            ));
        }
        top.insert(name.to_string(), info);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

struct Checker {
    fn_sigs: HashMap<String, (Vec<Type>, Option<Type>)>,
    machine_names: Vec<String>,
}

impl Checker {
    fn check_function(&self, f: &FunDecl) -> Result<()> {
        let mut env = Env::new();
        for (ty, name) in &f.params {
            env.declare(
                name,
                VarInfo {
                    ty: *ty,
                    trigger: None,
                },
                f.span,
            )?;
        }
        let ctx = StmtCtx {
            machine: None,
            in_function: true,
            expected_return: f.ret,
        };
        self.check_actions(&f.body, &mut env, &ctx)?;
        match f.ret {
            Some(ty) if !always_returns(&f.body) => Err(AlmanacError::typeck(
                f.span,
                format!(
                    "function `{}` can run off its end without returning a {}",
                    f.name,
                    ty.keyword()
                ),
            )),
            _ => Ok(()),
        }
    }

    fn check_machine(&self, m: &Machine) -> Result<()> {
        let mut env = Env::new();
        // Declare all machine variables up front (machine scope is flat).
        for v in &m.vars {
            let info = match v.kind {
                DeclKind::Plain(t) => VarInfo {
                    ty: t,
                    trigger: None,
                },
                DeclKind::Trigger(t) => VarInfo {
                    ty: Type::Any,
                    trigger: Some(t),
                },
            };
            env.declare(&v.name, info, v.span)?;
        }
        for v in &m.vars {
            self.check_var_init(v, &mut env)?;
        }
        // Duplicate state names.
        for (i, s) in m.states.iter().enumerate() {
            if m.states[..i].iter().any(|p| p.name == s.name) {
                return Err(AlmanacError::typeck(
                    s.span,
                    format!("duplicate state `{}`", s.name),
                ));
            }
        }
        if m.states.is_empty() {
            return Err(AlmanacError::typeck(
                m.span,
                format!("machine `{}` declares no states", m.name),
            ));
        }
        // Placement directive expressions.
        for p in &m.placements {
            self.check_placement(p, &mut env)?;
        }
        // Machine-level events apply in every state.
        for ev in &m.events {
            self.check_event(ev, m, &mut env)?;
        }
        for s in &m.states {
            env.push();
            for v in &s.vars {
                if v.external {
                    return Err(AlmanacError::typeck(
                        v.span,
                        "`external` is only allowed at machine level",
                    ));
                }
                let info = match v.kind {
                    DeclKind::Plain(t) => VarInfo {
                        ty: t,
                        trigger: None,
                    },
                    DeclKind::Trigger(t) => VarInfo {
                        ty: Type::Any,
                        trigger: Some(t),
                    },
                };
                env.declare(&v.name, info, v.span)?;
                self.check_var_init(v, &mut env)?;
            }
            if let Some(u) = &s.util {
                self.check_util(u, &mut env)?;
            }
            for ev in &s.events {
                self.check_event(ev, m, &mut env)?;
            }
            env.pop();
        }
        Ok(())
    }

    fn check_var_init(&self, v: &VarDecl, env: &mut Env) -> Result<()> {
        let Some(init) = &v.init else {
            if let DeclKind::Trigger(t) = v.kind {
                if t != TriggerType::Time {
                    return Err(AlmanacError::typeck(
                        v.span,
                        format!(
                            "{} variable `{}` requires an initializer with .ival and .what",
                            t.keyword(),
                            v.name
                        ),
                    ));
                }
            }
            return Ok(());
        };
        match v.kind {
            DeclKind::Plain(ty) => {
                let got = self.ty_expr_value(init, env)?;
                if !ty.accepts(got) {
                    return Err(AlmanacError::typeck(
                        init.span(),
                        format!(
                            "cannot initialize `{}` of type {} with {}",
                            v.name,
                            ty.keyword(),
                            got.keyword()
                        ),
                    ));
                }
            }
            DeclKind::Trigger(t) => self.check_trigger_init(t, init, env)?,
        }
        Ok(())
    }

    fn check_trigger_init(&self, t: TriggerType, init: &Expr, env: &mut Env) -> Result<()> {
        match t {
            TriggerType::Time => {
                let got = self.ty_expr_value(init, env)?;
                if !Type::Float.accepts(got) {
                    return Err(AlmanacError::typeck(
                        init.span(),
                        "time trigger initializer must be a numeric period (ms)",
                    ));
                }
            }
            TriggerType::Poll | TriggerType::Probe => {
                let Expr::StructLit { name, fields, span } = init else {
                    return Err(AlmanacError::typeck(
                        init.span(),
                        format!(
                            "{} trigger must be initialized with a {} {{ .ival = …, .what = … }} structure",
                            t.keyword(),
                            expected_struct(t)
                        ),
                    ));
                };
                if name != expected_struct(t) {
                    return Err(AlmanacError::typeck(
                        *span,
                        format!(
                            "{} trigger must use the {} structure, found `{name}`",
                            t.keyword(),
                            expected_struct(t)
                        ),
                    ));
                }
                let mut saw_ival = false;
                let mut saw_what = false;
                for (fname, fexpr) in fields {
                    match fname.as_str() {
                        "ival" => {
                            saw_ival = true;
                            let got = self.ty_expr_value(fexpr, env)?;
                            if !Type::Float.accepts(got) {
                                return Err(AlmanacError::typeck(
                                    fexpr.span(),
                                    ".ival must be numeric (period in ms)",
                                ));
                            }
                        }
                        "what" => {
                            saw_what = true;
                            let got = self.ty_expr_value(fexpr, env)?;
                            if !Type::Filter.accepts(got) {
                                return Err(AlmanacError::typeck(
                                    fexpr.span(),
                                    ".what must be a filter expression",
                                ));
                            }
                        }
                        other => {
                            return Err(AlmanacError::typeck(
                                fexpr.span(),
                                format!("unknown {name} field `.{other}`"),
                            ))
                        }
                    }
                }
                if !saw_ival || !saw_what {
                    return Err(AlmanacError::typeck(
                        *span,
                        format!("{name} structure requires both .ival and .what"),
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_placement(&self, p: &PlaceDirective, env: &mut Env) -> Result<()> {
        match &p.constraint {
            PlaceConstraint::None => Ok(()),
            PlaceConstraint::Switches(exprs) => {
                for e in exprs {
                    let got = self.ty_expr_value(e, env)?;
                    if !Type::Long.accepts(got) {
                        return Err(AlmanacError::typeck(
                            e.span(),
                            "placement switch ids must be integers",
                        ));
                    }
                }
                Ok(())
            }
            PlaceConstraint::Range { filter, dist, .. } => {
                if let Some(f) = filter {
                    let got = self.ty_expr_value(f, env)?;
                    if !Type::Filter.accepts(got) && got != Type::Bool {
                        return Err(AlmanacError::typeck(
                            f.span(),
                            "placement path constraint must be a filter expression",
                        ));
                    }
                }
                let got = self.ty_expr_value(dist, env)?;
                if !Type::Long.accepts(got) {
                    return Err(AlmanacError::typeck(
                        dist.span(),
                        "range distance must be an integer",
                    ));
                }
                Ok(())
            }
        }
    }

    fn check_util(&self, u: &UtilDecl, env: &mut Env) -> Result<()> {
        env.push();
        env.declare(
            &u.param,
            VarInfo {
                ty: Type::Resources,
                trigger: None,
            },
            u.span,
        )?;
        for a in &u.body {
            self.check_util_action(a, env)?;
        }
        env.pop();
        Ok(())
    }

    /// Enforces the paper's syntactic restrictions on `util` bodies.
    fn check_util_action(&self, a: &Action, env: &mut Env) -> Result<()> {
        match a {
            Action::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.check_util_expr(cond, env)?;
                for b in then_branch.iter().chain(else_branch) {
                    self.check_util_action(b, env)?;
                }
                Ok(())
            }
            Action::Return { value, span } => {
                let Some(v) = value else {
                    return Err(AlmanacError::typeck(
                        *span,
                        "util must return a numeric utility",
                    ));
                };
                self.check_util_expr(v, env)
            }
            other => Err(AlmanacError::typeck(
                other.span(),
                "util bodies may only contain if-then-else and return",
            )),
        }
    }

    fn check_util_expr(&self, e: &Expr, env: &mut Env) -> Result<()> {
        match e {
            Expr::Lit(Literal::Int(_) | Literal::Float(_) | Literal::Bool(_), _) => Ok(()),
            Expr::Lit(_, span) => Err(AlmanacError::typeck(
                *span,
                "only numeric and boolean literals are allowed in util",
            )),
            Expr::Var(name, span) => {
                env.lookup(name).ok_or_else(|| {
                    AlmanacError::typeck(*span, format!("unknown variable `{name}` in util"))
                })?;
                Ok(())
            }
            Expr::Field(base, field, span) => {
                // Only `<param>.<resource>` access.
                let Expr::Var(base_name, _) = base.as_ref() else {
                    return Err(AlmanacError::typeck(
                        *span,
                        "util may only access fields of its resource argument",
                    ));
                };
                let info = env.lookup(base_name).ok_or_else(|| {
                    AlmanacError::typeck(*span, format!("unknown variable `{base_name}`"))
                })?;
                if info.ty != Type::Resources {
                    return Err(AlmanacError::typeck(
                        *span,
                        "util may only access fields of its resource argument",
                    ));
                }
                check_resource_field(field, *span)
            }
            Expr::Unary(UnOp::Neg, inner, _) => self.check_util_expr(inner, env),
            Expr::Unary(UnOp::Not, _, span) => Err(AlmanacError::typeck(
                *span,
                "`not` is not allowed in util bodies",
            )),
            Expr::Binary(op, a, b, span) => {
                let allowed = matches!(
                    op,
                    BinOp::And
                        | BinOp::Or
                        | BinOp::Add
                        | BinOp::Sub
                        | BinOp::Mul
                        | BinOp::Div
                        | BinOp::Cmp(CmpOp::Eq)
                        | BinOp::Cmp(CmpOp::Le)
                        | BinOp::Cmp(CmpOp::Ge)
                );
                if !allowed {
                    return Err(AlmanacError::typeck(
                        *span,
                        "util operators are limited to and or == <= >= + - * /",
                    ));
                }
                self.check_util_expr(a, env)?;
                self.check_util_expr(b, env)
            }
            Expr::Call { name, args, span } => {
                if name != "min" && name != "max" {
                    return Err(AlmanacError::typeck(
                        *span,
                        "util may only call min and max",
                    ));
                }
                if args.len() != 2 {
                    return Err(AlmanacError::typeck(
                        *span,
                        format!("{name} takes exactly two arguments"),
                    ));
                }
                for a in args {
                    self.check_util_expr(a, env)?;
                }
                Ok(())
            }
            Expr::Filter(_, span) | Expr::StructLit { span, .. } => Err(AlmanacError::typeck(
                *span,
                "filters and structures are not allowed in util bodies",
            )),
        }
    }

    fn check_event(&self, ev: &EventDecl, m: &Machine, env: &mut Env) -> Result<()> {
        env.push();
        match &ev.trigger {
            Trigger::Enter | Trigger::Exit | Trigger::Realloc => {}
            Trigger::Var { name, bind } => {
                let info = env.lookup(name).ok_or_else(|| {
                    AlmanacError::typeck(ev.span, format!("unknown trigger variable `{name}`"))
                })?;
                let Some(tt) = info.trigger else {
                    return Err(AlmanacError::typeck(
                        ev.span,
                        format!("`{name}` is not a trigger variable"),
                    ));
                };
                if let Some(b) = bind {
                    let ty = match tt {
                        TriggerType::Poll => Type::List,
                        TriggerType::Probe => Type::Packet,
                        TriggerType::Time => Type::Long,
                    };
                    env.declare(b, VarInfo { ty, trigger: None }, ev.span)?;
                }
            }
            Trigger::Recv { ty, bind, from } => {
                self.check_endpoint(from, env, ev.span)?;
                env.declare(
                    bind,
                    VarInfo {
                        ty: *ty,
                        trigger: None,
                    },
                    ev.span,
                )?;
            }
        }
        let ctx = StmtCtx {
            machine: Some(m),
            in_function: false,
            expected_return: None,
        };
        self.check_actions(&ev.actions, env, &ctx)?;
        env.pop();
        Ok(())
    }

    fn check_endpoint(&self, ep: &MsgEndpoint, env: &mut Env, span: Span) -> Result<()> {
        match ep {
            MsgEndpoint::Harvester => Ok(()),
            MsgEndpoint::Machine { name, at } => {
                if !self.machine_names.iter().any(|m| m == name) {
                    return Err(AlmanacError::typeck(
                        span,
                        format!("message endpoint names unknown machine `{name}`"),
                    ));
                }
                if let Some(e) = at {
                    let got = self.ty_expr_value(e, env)?;
                    if !Type::Long.accepts(got) {
                        return Err(AlmanacError::typeck(
                            e.span(),
                            "@destination must be an integer switch id",
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    fn check_actions(&self, actions: &[Action], env: &mut Env, ctx: &StmtCtx) -> Result<()> {
        env.push();
        for a in actions {
            self.check_action(a, env, ctx)?;
        }
        env.pop();
        Ok(())
    }

    fn check_action(&self, a: &Action, env: &mut Env, ctx: &StmtCtx) -> Result<()> {
        match a {
            Action::Local(v) => {
                if v.trigger().is_some() {
                    return Err(AlmanacError::typeck(
                        v.span,
                        "trigger variables cannot be declared inside blocks",
                    ));
                }
                let DeclKind::Plain(t) = v.kind else {
                    unreachable!()
                };
                env.declare(
                    &v.name,
                    VarInfo {
                        ty: t,
                        trigger: None,
                    },
                    v.span,
                )?;
                self.check_var_init(v, env)
            }
            Action::Assign {
                target,
                field,
                value,
                span,
            } => {
                let info = env.lookup(target).ok_or_else(|| {
                    AlmanacError::typeck(
                        *span,
                        format!("assignment to unknown variable `{target}`"),
                    )
                })?;
                match (info.trigger, field) {
                    (Some(tt), None) => self.check_trigger_init(tt, value, env),
                    (Some(_), Some(f)) => match f.as_str() {
                        "ival" => {
                            let got = self.ty_expr_value(value, env)?;
                            if !Type::Float.accepts(got) {
                                return Err(AlmanacError::typeck(
                                    value.span(),
                                    ".ival must be numeric",
                                ));
                            }
                            Ok(())
                        }
                        "what" => {
                            let got = self.ty_expr_value(value, env)?;
                            if !Type::Filter.accepts(got) {
                                return Err(AlmanacError::typeck(
                                    value.span(),
                                    ".what must be a filter",
                                ));
                            }
                            Ok(())
                        }
                        other => Err(AlmanacError::typeck(
                            *span,
                            format!("unknown trigger field `.{other}`"),
                        )),
                    },
                    (None, Some(f)) => Err(AlmanacError::typeck(
                        *span,
                        format!("`{target}` has no assignable field `.{f}`"),
                    )),
                    (None, None) => {
                        let got = self.ty_expr_value(value, env)?;
                        if !info.ty.accepts(got) {
                            return Err(AlmanacError::typeck(
                                value.span(),
                                format!(
                                    "cannot assign {} to `{target}` of type {}",
                                    got.keyword(),
                                    info.ty.keyword()
                                ),
                            ));
                        }
                        Ok(())
                    }
                }
            }
            Action::Transit { state, span } => {
                let Some(m) = ctx.machine else {
                    return Err(AlmanacError::typeck(
                        *span,
                        "transit is not allowed inside auxiliary functions",
                    ));
                };
                if m.state(state).is_none() {
                    return Err(AlmanacError::typeck(
                        *span,
                        format!("transit to unknown state `{state}`"),
                    ));
                }
                Ok(())
            }
            Action::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let got = self.ty_expr_value(cond, env)?;
                if got != Type::Bool && got != Type::Any {
                    return Err(AlmanacError::typeck(
                        cond.span(),
                        format!("if condition must be bool, found {}", got.keyword()),
                    ));
                }
                self.check_actions(then_branch, env, ctx)?;
                self.check_actions(else_branch, env, ctx)
            }
            Action::While { cond, body, .. } => {
                let got = self.ty_expr_value(cond, env)?;
                if got != Type::Bool && got != Type::Any {
                    return Err(AlmanacError::typeck(
                        cond.span(),
                        format!("while condition must be bool, found {}", got.keyword()),
                    ));
                }
                self.check_actions(body, env, ctx)
            }
            Action::Return { value, span } => {
                match (ctx.in_function, ctx.expected_return, value) {
                    (true, Some(expected), Some(v)) => {
                        let got = self.ty_expr_value(v, env)?;
                        if !expected.accepts(got) {
                            return Err(AlmanacError::typeck(
                                v.span(),
                                format!(
                                    "return type mismatch: expected {}, found {}",
                                    expected.keyword(),
                                    got.keyword()
                                ),
                            ));
                        }
                        Ok(())
                    }
                    (true, None, Some(v)) => Err(AlmanacError::typeck(
                        v.span(),
                        "function without return type returns a value",
                    )),
                    (true, Some(_), None) => Err(AlmanacError::typeck(
                        *span,
                        "function with return type must return a value",
                    )),
                    (true, None, None) => Ok(()),
                    (false, _, _) => {
                        // `return` inside event handlers ends the handler.
                        if let Some(v) = value {
                            self.ty_expr_value(v, env)?;
                        }
                        Ok(())
                    }
                }
            }
            Action::Send { value, to, span } => {
                if ctx.in_function {
                    return Err(AlmanacError::typeck(
                        *span,
                        "send is not allowed inside auxiliary functions",
                    ));
                }
                self.ty_expr_value(value, env)?;
                self.check_endpoint(to, env, *span)
            }
            Action::ExprStmt { expr, .. } => {
                self.ty_expr(expr, env)?;
                Ok(())
            }
        }
    }

    /// Types an expression, requiring it to produce a value.
    fn ty_expr_value(&self, e: &Expr, env: &mut Env) -> Result<Type> {
        self.ty_expr(e, env)?
            .ok_or_else(|| AlmanacError::typeck(e.span(), "expression does not produce a value"))
    }

    /// Types an expression; `None` means unit (a call used for effect).
    fn ty_expr(&self, e: &Expr, env: &mut Env) -> Result<Option<Type>> {
        match e {
            Expr::Lit(l, _) => Ok(Some(match l {
                Literal::Bool(_) => Type::Bool,
                Literal::Int(_) => Type::Int,
                Literal::Float(_) => Type::Float,
                Literal::Str(_) => Type::Str,
            })),
            Expr::Var(name, span) => {
                let info = env.lookup(name).ok_or_else(|| {
                    AlmanacError::typeck(*span, format!("unknown variable `{name}`"))
                })?;
                Ok(Some(info.ty))
            }
            Expr::Filter(f, _) => {
                match f {
                    FilterExpr::SrcIp(e) | FilterExpr::DstIp(e) => {
                        let got = self.ty_expr_value(e, env)?;
                        if !Type::Str.accepts(got) {
                            return Err(AlmanacError::typeck(
                                e.span(),
                                "IP filter argument must be a string prefix",
                            ));
                        }
                    }
                    FilterExpr::SrcPort(e) | FilterExpr::DstPort(e) | FilterExpr::IfPort(e) => {
                        let got = self.ty_expr_value(e, env)?;
                        if !Type::Long.accepts(got) {
                            return Err(AlmanacError::typeck(
                                e.span(),
                                "port filter argument must be an integer",
                            ));
                        }
                    }
                    FilterExpr::Proto(e) => {
                        let got = self.ty_expr_value(e, env)?;
                        if !Type::Str.accepts(got) {
                            return Err(AlmanacError::typeck(
                                e.span(),
                                "proto filter argument must be a string",
                            ));
                        }
                    }
                    FilterExpr::IfPortAny => {}
                }
                Ok(Some(Type::Filter))
            }
            Expr::Unary(UnOp::Not, inner, span) => {
                let got = self.ty_expr_value(inner, env)?;
                match got {
                    Type::Bool | Type::Any => Ok(Some(Type::Bool)),
                    Type::Filter => Ok(Some(Type::Filter)),
                    other => Err(AlmanacError::typeck(
                        *span,
                        format!("`not` requires bool or filter, found {}", other.keyword()),
                    )),
                }
            }
            Expr::Unary(UnOp::Neg, inner, span) => {
                let got = self.ty_expr_value(inner, env)?;
                if !Type::Float.accepts(got) {
                    return Err(AlmanacError::typeck(
                        *span,
                        format!("negation requires a number, found {}", got.keyword()),
                    ));
                }
                Ok(Some(got))
            }
            Expr::Binary(op, a, b, span) => {
                let ta = self.ty_expr_value(a, env)?;
                let tb = self.ty_expr_value(b, env)?;
                match op {
                    BinOp::And | BinOp::Or => match (ta, tb) {
                        (Type::Filter, Type::Filter) => Ok(Some(Type::Filter)),
                        (x, y) if Type::Bool.accepts(x) && Type::Bool.accepts(y) => {
                            Ok(Some(Type::Bool))
                        }
                        _ => Err(AlmanacError::typeck(
                            *span,
                            format!(
                                "and/or require two bools or two filters, found {} and {}",
                                ta.keyword(),
                                tb.keyword()
                            ),
                        )),
                    },
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        if !Type::Float.accepts(ta) || !Type::Float.accepts(tb) {
                            return Err(AlmanacError::typeck(
                                *span,
                                format!(
                                    "arithmetic requires numbers, found {} and {}",
                                    ta.keyword(),
                                    tb.keyword()
                                ),
                            ));
                        }
                        Ok(Some(numeric_join(ta, tb)))
                    }
                    BinOp::Cmp(_) => {
                        let both_numeric = Type::Float.accepts(ta) && Type::Float.accepts(tb);
                        if !(both_numeric || ta.accepts(tb) || tb.accepts(ta)) {
                            return Err(AlmanacError::typeck(
                                *span,
                                format!("cannot compare {} with {}", ta.keyword(), tb.keyword()),
                            ));
                        }
                        Ok(Some(Type::Bool))
                    }
                }
            }
            Expr::Call { name, args, span } => {
                if let Some(b) = builtin(name) {
                    if args.len() != b.params.len() {
                        return Err(AlmanacError::typeck(
                            *span,
                            format!(
                                "`{name}` expects {} argument(s), found {}",
                                b.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    if b.mutates_first_arg && !matches!(args[0], Expr::Var(_, _)) {
                        return Err(AlmanacError::typeck(
                            args[0].span(),
                            format!(
                                "`{name}` mutates its first argument, which must be a variable"
                            ),
                        ));
                    }
                    for (arg, expected) in args.iter().zip(b.params) {
                        let got = self.ty_expr_value(arg, env)?;
                        if !expected.accepts(got) {
                            return Err(AlmanacError::typeck(
                                arg.span(),
                                format!(
                                    "`{name}` argument expects {}, found {}",
                                    expected.keyword(),
                                    got.keyword()
                                ),
                            ));
                        }
                    }
                    return Ok(b.ret);
                }
                if let Some((params, ret)) = self.fn_sigs.get(name) {
                    if args.len() != params.len() {
                        return Err(AlmanacError::typeck(
                            *span,
                            format!(
                                "function `{name}` expects {} argument(s), found {}",
                                params.len(),
                                args.len()
                            ),
                        ));
                    }
                    for (arg, expected) in args.iter().zip(params) {
                        let got = self.ty_expr_value(arg, env)?;
                        if !expected.accepts(got) {
                            return Err(AlmanacError::typeck(
                                arg.span(),
                                format!(
                                    "`{name}` argument expects {}, found {}",
                                    expected.keyword(),
                                    got.keyword()
                                ),
                            ));
                        }
                    }
                    return Ok(*ret);
                }
                Err(AlmanacError::typeck(
                    *span,
                    format!("unknown function `{name}`"),
                ))
            }
            Expr::Field(base, field, span) => {
                // `p.ival` / `p.what` on trigger variables.
                if let Expr::Var(base_name, _) = base.as_ref() {
                    if let Some(info) = env.lookup(base_name) {
                        if info.trigger.is_some() {
                            return match field.as_str() {
                                "ival" => Ok(Some(Type::Float)),
                                "what" => Ok(Some(Type::Filter)),
                                other => Err(AlmanacError::typeck(
                                    *span,
                                    format!("unknown trigger field `.{other}`"),
                                )),
                            };
                        }
                    }
                }
                let base_ty = self.ty_expr_value(base, env)?;
                match base_ty {
                    Type::Resources => {
                        check_resource_field(field, *span)?;
                        Ok(Some(Type::Float))
                    }
                    Type::Any => Ok(Some(Type::Any)),
                    other => Err(AlmanacError::typeck(
                        *span,
                        format!("type {} has no field `.{field}`", other.keyword()),
                    )),
                }
            }
            Expr::StructLit { name, fields, span } => match name.as_str() {
                "Rule" => {
                    let mut pattern = false;
                    let mut act = false;
                    for (fname, fexpr) in fields {
                        match fname.as_str() {
                            "pattern" => {
                                pattern = true;
                                let got = self.ty_expr_value(fexpr, env)?;
                                if !Type::Filter.accepts(got) {
                                    return Err(AlmanacError::typeck(
                                        fexpr.span(),
                                        ".pattern must be a filter",
                                    ));
                                }
                            }
                            "act" => {
                                act = true;
                                let got = self.ty_expr_value(fexpr, env)?;
                                if !Type::Action.accepts(got) {
                                    return Err(AlmanacError::typeck(
                                        fexpr.span(),
                                        ".act must be an action",
                                    ));
                                }
                            }
                            other => {
                                return Err(AlmanacError::typeck(
                                    fexpr.span(),
                                    format!("unknown Rule field `.{other}`"),
                                ))
                            }
                        }
                    }
                    if !pattern || !act {
                        return Err(AlmanacError::typeck(
                            *span,
                            "Rule requires .pattern and .act",
                        ));
                    }
                    Ok(Some(Type::Rule))
                }
                "Poll" | "Probe" => {
                    // Validated in trigger-variable context; typing the
                    // literal itself loosely lets it flow to assignments.
                    for (_, fexpr) in fields {
                        self.ty_expr(fexpr, env)?;
                    }
                    Ok(Some(Type::Any))
                }
                other => Err(AlmanacError::typeck(
                    *span,
                    format!("unknown structure `{other}`"),
                )),
            },
        }
    }
}

struct StmtCtx<'a> {
    machine: Option<&'a Machine>,
    in_function: bool,
    expected_return: Option<Type>,
}

/// Structure name expected as initializer of a poll/probe trigger.
fn expected_struct(t: TriggerType) -> &'static str {
    match t {
        TriggerType::Poll => "Poll",
        TriggerType::Probe => "Probe",
        TriggerType::Time => "Time",
    }
}

/// The type of arithmetic on `a` and `b`: `any` when either is (an
/// `any` operand may hold an int), else the wider number type.
fn numeric_join(a: Type, b: Type) -> Type {
    use Type::*;
    match (a, b) {
        (Any, _) | (_, Any) => Any,
        (Float, _) | (_, Float) => Float,
        (Long, _) | (_, Long) => Long,
        _ => Int,
    }
}

fn check_resource_field(field: &str, span: Span) -> Result<()> {
    if farm_netsim::switch::ResourceKind::from_field_name(field).is_none() {
        return Err(AlmanacError::typeck(
            span,
            format!("unknown resource field `.{field}` (expected one of vCPU, RAM, TCAM, PCIe)"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Program> {
        check(&parse(src).unwrap())
    }

    const HH_OK: &str = r#"
        fun getHH(list stats, long threshold): list {
          list result;
          int i = 0;
          while (i < list_len(stats)) {
            if (stat_tx_bytes(list_get(stats, i)) >= threshold) then {
              list_push(result, list_get(stats, i));
            }
            i = i + 1;
          }
          return result;
        }
        machine HH {
          place all;
          poll pollStats = Poll { .ival = 10/res().PCIe, .what = port ANY };
          external long threshold;
          action hitterAction;
          list hitters;
          state observe {
            util (res) {
              if (res.vCPU >= 1 and res.RAM >= 100) then {
                return min(res.vCPU, res.PCIe);
              }
            }
            when (pollStats as stats) do {
              hitters = getHH(stats, threshold);
              if (not is_list_empty(hitters)) then {
                transit HHdetected;
              }
            }
          }
          state HHdetected {
            util (res) { return 100; }
            when (enter) do {
              send hitters to harvester;
              transit observe;
            }
          }
          when (recv long newTh from harvester) do { threshold = newTh; }
          when (recv action hitAct from harvester) do { hitterAction = hitAct; }
        }
    "#;

    #[test]
    fn accepts_the_hh_program() {
        check_src(HH_OK).unwrap();
    }

    #[test]
    fn rejects_unknown_variable() {
        let src = "machine M { state s { when (enter) do { x = 1; } } }";
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("unknown variable"), "{e}");
    }

    #[test]
    fn a_typed_function_that_can_run_off_its_end_is_refused() {
        let open = "fun f(int x): int { if (x > 0) then { return 1; } }
                    machine M { state s { when (enter) do { f(1); } } }";
        let e = check_src(open).unwrap_err();
        assert!(
            e.message.contains("function `f` can run off its end"),
            "{e}"
        );
        let closed = "fun f(int x): int { if (x > 0) then { return 1; } else { return 2; } }
                      fun g(int x) { if (x > 0) then { return; } }
                      machine M { state s { when (enter) do { g(1); f(1); } } }";
        check_src(closed).expect("both arms return; an untyped body may run off");
    }

    #[test]
    fn rejects_transit_to_unknown_state() {
        let src = "machine M { state s { when (enter) do { transit nowhere; } } }";
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("unknown state"), "{e}");
    }

    #[test]
    fn rejects_bad_util_statement() {
        let src = r#"machine M { int x; state s { util (r) { x = 1; return 0; } } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("if-then-else and return"), "{e}");
    }

    #[test]
    fn rejects_disallowed_util_call() {
        let src = r#"machine M { state s { util (r) { return list_len(r); } } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("min and max"), "{e}");
    }

    #[test]
    fn rejects_unknown_resource_field() {
        let src = r#"machine M { state s { util (r) { return r.GPU; } } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("unknown resource field"), "{e}");
    }

    #[test]
    fn rejects_poll_without_what() {
        let src = r#"machine M { poll p = Poll { .ival = 10 }; state s { } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains(".ival and .what"), "{e}");
    }

    #[test]
    fn rejects_type_mismatch_in_assignment() {
        let src = r#"machine M { long x; state s { when (enter) do { x = "hello"; } } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("cannot assign"), "{e}");
    }

    #[test]
    fn inheritance_flattens_states_and_vars() {
        let src = r#"
            machine Base {
              place all;
              long threshold;
              state observe { when (enter) do { threshold = 1; } }
            }
            machine Child extends Base {
              list extra;
              state observe { when (enter) do { threshold = 2; } }
              state more { when (enter) do { transit observe; } }
            }
        "#;
        let p = check_src(src).unwrap();
        let c = p.machine("Child").unwrap();
        assert_eq!(c.vars.len(), 2);
        assert_eq!(c.states.len(), 2);
        assert_eq!(c.states[0].name, "observe"); // parent position kept
        assert!(!c.placements.is_empty()); // inherited place all
                                           // The override took effect.
        let Action::Assign { value, .. } = &c.states[0].events[0].actions[0] else {
            panic!()
        };
        assert_eq!(value, &Expr::Lit(Literal::Int(2), value.span()));
    }

    #[test]
    fn inheritance_rejects_variable_shadowing() {
        let src = r#"
            machine Base { long x; state s { } }
            machine Child extends Base { long x; state s { } }
        "#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("shadows"), "{e}");
    }

    #[test]
    fn inheritance_rejects_cycles() {
        let src = r#"
            machine A extends B { state s { } }
            machine B extends A { state s { } }
        "#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn rejects_send_in_function() {
        let src = r#"
            fun f(int x) { send x to harvester; }
            machine M { state s { } }
        "#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("send is not allowed"), "{e}");
    }

    #[test]
    fn rejects_mutating_builtin_on_non_variable() {
        let src = r#"
            fun f(list l): list {
              list_push(f2(), 1);
              return l;
            }
            fun f2(): list { list r; return r; }
            machine M { state s { } }
        "#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("must be a variable"), "{e}");
    }

    #[test]
    fn rejects_machine_without_states() {
        let e = check_src("machine M { }").unwrap_err();
        assert!(e.message.contains("no states"), "{e}");
    }

    #[test]
    fn recv_binding_is_typed() {
        // newTh is long; assigning it to a string var must fail.
        let src = r#"
            machine M {
              string s;
              state st { }
              when (recv long newTh from harvester) do { s = newTh; }
            }
        "#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("cannot assign"), "{e}");
    }

    #[test]
    fn arithmetic_with_an_any_operand_is_any() {
        // The sum may be an int or a float: the store check at run time,
        // not the checker, decides whether it fits `k` or `b`.
        let src = r#"
            machine M {
              place any;
              time t = 5;
              long k = 0;
              float x = 0.0;
              bool b = false;
              state s {
                when (t as n) do {
                  k = pair_first(pair(n, 1)) + 1;
                  x = pair_first(pair(n, 1)) * 2;
                  b = pair_first(pair(n, 1));
                }
              }
            }
        "#;
        check_src(src).unwrap();
        // A number type still wins over another number type.
        let e = check_src("machine M { long k; state s { when (enter) do { k = 1 + 0.5; } } }")
            .unwrap_err();
        assert!(e.message.contains("cannot assign float"), "{e}");
    }

    #[test]
    fn unknown_send_target_machine() {
        let src = r#"machine M { state s { when (enter) do { send 1 to Ghost; } } }"#;
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("unknown machine"), "{e}");
    }
}
