//! The test oracle for the seed VM: the AST-walking interpreter that
//! `farm_soil::interp` replaced, kept as it was — variables in maps keyed
//! by name, a scope stack pushed and popped per block, every read a
//! clone — and stripped to a pure function of (compiled machine, state,
//! variables, event, host). It changes only where the language does: an
//! `exec_n` count beyond `u32` saturates, a `send … to M@e` whose switch
//! id is outside `u32` fails, and a value reaching a declared variable
//! (a store, an argument, a function's result, a `recv` payload, a
//! restored snapshot) is fitted to its type — an int widened into a
//! `float`, another tag refused — by this file's own copy of the rule. `prop_interp.rs` runs it beside the
//! real VM and demands equal effects, cost, statistics, state, variables
//! and error text. Slow on purpose; never linked into the product.

use std::collections::BTreeMap;

use farm_almanac::analysis::consteval::binary_op;
use farm_almanac::ast::*;
use farm_almanac::compile::CompiledMachine;
use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatSubject, Value};
use farm_netsim::types::{FilterAtom, FilterFormula, PortSel, Prefix, Proto, SwitchId};
use farm_soil::interp::{Outcome, SeedHost, SeedStats, HANDLER_BUDGET_OPS};
use farm_soil::{Effect, Endpoint, SeedError, SeedEvent, SeedSnapshot};

/// Maximum chained transitions per delivered event.
const MAX_TRANSIT_CHAIN: usize = 16;
/// Maximum user-function call depth.
const MAX_CALL_DEPTH: usize = 64;

/// The walker's view of one seed: name-keyed variables, the state by
/// name, and the AST it walks.
#[derive(Debug, Clone)]
pub struct RefSeed<'a> {
    def: &'a CompiledMachine,
    functions: &'a [FunDecl],
    pub state: String,
    pub vars: BTreeMap<String, Value>,
    /// Declared type of each machine variable.
    types: BTreeMap<String, Type>,
    pub stats: SeedStats,
}

impl<'a> RefSeed<'a> {
    /// A seed in the machine's initial state; `functions` are the
    /// program's auxiliary functions (the compiled machine keeps them
    /// only in lowered form).
    pub fn new(def: &'a CompiledMachine, functions: &'a [FunDecl]) -> RefSeed<'a> {
        let (mut vars, mut types) = (BTreeMap::new(), BTreeMap::new());
        for v in &def.machine.vars {
            let DeclKind::Plain(ty) = v.kind else {
                continue;
            };
            let init = def
                .consts
                .get(&v.name)
                .cloned()
                .unwrap_or_else(|| default_value(v));
            vars.insert(v.name.clone(), init);
            types.insert(v.name.clone(), ty);
        }
        RefSeed {
            def,
            functions,
            state: def.initial_state.clone(),
            vars,
            types,
            stats: SeedStats::default(),
        }
    }

    /// Variables sorted by name, as a snapshot lists them.
    pub fn sorted_vars(&self) -> Vec<(String, Value)> {
        let mut vars: Vec<(String, Value)> = self
            .vars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        vars.sort_by(|a, b| a.0.cmp(&b.0));
        vars
    }

    /// Takes over a snapshot's state and the variables it declares, or
    /// nothing if one of them does not fit its declared type.
    pub fn restore(&mut self, snap: &SeedSnapshot) -> Result<(), SeedError> {
        let mut fitted = Vec::new();
        for (k, v) in &snap.vars {
            if let Some(&ty) = self.types.get(k) {
                fitted.push((k.clone(), fit(v.clone(), ty, k)?));
            }
        }
        self.state = snap.state.clone();
        self.vars.extend(fitted);
        Ok(())
    }

    /// Delivers an event, returning the effects and cost.
    ///
    /// # Errors
    ///
    /// Runtime errors (bad dynamic types, the call depth limit, the op
    /// budget, transition livelock).
    pub fn handle(&mut self, event: &SeedEvent, host: &dyn SeedHost) -> Result<Outcome, SeedError> {
        let mut out = Outcome::default();
        self.stats.events_handled += 1;
        self.dispatch(event, host, &mut out, 0)?;
        self.stats.ops += out.ops;
        self.stats.messages_sent += out
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .count() as u64;
        Ok(out)
    }

    fn dispatch(
        &mut self,
        event: &SeedEvent,
        host: &dyn SeedHost,
        out: &mut Outcome,
        chain: usize,
    ) -> Result<(), SeedError> {
        if chain > MAX_TRANSIT_CHAIN {
            return Err(SeedError("transition chain exceeded limit".into()));
        }
        let Some(handler) = self.find_handler(event) else {
            return Ok(()); // no handler in this state: event is dropped
        };
        let mut interp = Interp {
            seed: self,
            host,
            out,
            depth: 0,
        };
        let mut scope = Scope::new();
        bind_event(&handler.trigger, event, &mut scope);
        let flow = interp.run_block(&handler.actions, &mut scope)?;
        if let Flow::Transit(next) = flow {
            self.transition(&next, host, out, chain)?;
        }
        Ok(())
    }

    fn transition(
        &mut self,
        next: &str,
        host: &dyn SeedHost,
        out: &mut Outcome,
        chain: usize,
    ) -> Result<(), SeedError> {
        out.transitioned = true;
        self.stats.transitions += 1;
        self.dispatch(&SeedEvent::Exit, host, out, chain + 1)?;
        self.state = next.to_string();
        self.dispatch(&SeedEvent::Enter, host, out, chain + 1)?;
        Ok(())
    }

    /// State handlers take precedence over machine-level handlers with
    /// the same trigger shape (§ III-A b: "with the possibility of
    /// overriding such global definitions").
    fn find_handler(&self, event: &SeedEvent) -> Option<&'a EventDecl> {
        let machine = &self.def.machine;
        (machine.state(&self.state)?.events.iter())
            .chain(machine.events.iter())
            .find(|ev| trigger_matches(&ev.trigger, event))
    }
}

fn default_value(v: &VarDecl) -> Value {
    match v.kind {
        DeclKind::Plain(t) => match t {
            Type::Bool => Value::Bool(false),
            Type::Int | Type::Long => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Str => Value::Str(String::new()),
            Type::List => Value::List(Vec::new()),
            Type::Filter => Value::Filter(FilterFormula::True),
            Type::Action => Value::Action(ActionValue::Count),
            _ => Value::Unit,
        },
        DeclKind::Trigger(_) => Value::Unit,
    }
}

fn trigger_matches(decl: &Trigger, event: &SeedEvent) -> bool {
    match (decl, event) {
        (Trigger::Enter, SeedEvent::Enter) => true,
        (Trigger::Exit, SeedEvent::Exit) => true,
        (Trigger::Realloc, SeedEvent::Realloc) => true,
        (Trigger::Var { name, .. }, SeedEvent::Trigger { name: n, .. }) => name == n,
        (
            Trigger::Recv { ty, from, .. },
            SeedEvent::Recv {
                from_machine,
                value,
            },
        ) => {
            let source_ok = match (from, from_machine) {
                (MsgEndpoint::Harvester, None) => true,
                (MsgEndpoint::Machine { name, .. }, Some(m)) => name == m,
                _ => false,
            };
            source_ok && value_has_type(value, *ty)
        }
        _ => false,
    }
}

/// Whether a variable declared `t` may hold `v`: `any` anything, `float`
/// an int too, a type without a default value the unit it starts as.
fn value_has_type(v: &Value, t: Type) -> bool {
    match t {
        Type::Any => true,
        Type::Packet | Type::Rule | Type::Resources | Type::Stat if *v == Value::Unit => true,
        Type::Bool => matches!(v, Value::Bool(_)),
        Type::Int | Type::Long => matches!(v, Value::Int(_)),
        Type::Float => matches!(v, Value::Float(_) | Value::Int(_)),
        Type::Str => matches!(v, Value::Str(_)),
        Type::List => matches!(v, Value::List(_)),
        Type::Packet => matches!(v, Value::Packet(_)),
        Type::Action => matches!(v, Value::Action(_)),
        Type::Filter => matches!(v, Value::Filter(_)),
        Type::Rule => matches!(v, Value::Rule(_)),
        Type::Resources => matches!(v, Value::Resources(_)),
        Type::Stat => matches!(v, Value::Stat(_)),
    }
}

/// `v` stored into `name`, declared `t`: an int widened into a `float`,
/// a value of another tag refused.
fn fit(v: Value, t: Type, name: &str) -> Result<Value, SeedError> {
    match (t, v) {
        (Type::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (t, v) if value_has_type(&v, t) => Ok(v),
        (t, v) => Err(SeedError(format!(
            "cannot store {} in {} `{name}`",
            v.type_name(),
            t.keyword()
        ))),
    }
}

fn bind_event(decl: &Trigger, event: &SeedEvent, scope: &mut Scope) {
    match (decl, event) {
        // A trigger's payload is untyped.
        (Trigger::Var { bind: Some(b), .. }, SeedEvent::Trigger { payload, .. }) => {
            scope.declare(b.clone(), payload.clone(), Type::Any);
        }
        (Trigger::Recv { bind, ty, .. }, SeedEvent::Recv { value, .. }) => {
            let value = fit(value.clone(), *ty, bind).expect("dispatch checked the tag");
            scope.declare(bind.clone(), value, *ty);
        }
        _ => {}
    }
}

/// Lexical scopes for handler execution (machine vars live in the seed):
/// each variable's value and declared type.
#[derive(Debug, Default)]
struct Scope {
    frames: Vec<BTreeMap<String, (Value, Type)>>,
}

impl Scope {
    fn new() -> Scope {
        Scope {
            frames: vec![BTreeMap::new()],
        }
    }

    fn push(&mut self) {
        self.frames.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: String, v: Value, t: Type) {
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, (v, t));
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.get(name))
            .map(|(v, _)| v)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut (Value, Type)> {
        self.frames.iter_mut().rev().find_map(|f| f.get_mut(name))
    }
}

/// Control flow result of running a block.
enum Flow {
    Normal,
    Return(Value),
    Transit(String),
}

struct Interp<'a, 'b> {
    seed: &'a mut RefSeed<'b>,
    host: &'a dyn SeedHost,
    out: &'a mut Outcome,
    depth: usize,
}

impl Interp<'_, '_> {
    fn charge(&mut self, ops: u64) {
        self.out.ops += ops;
    }

    /// The delivery's budget, checked where the VM checks it: after a
    /// `while` condition holds and before a user call's arguments.
    fn within_budget(&self) -> Result<(), SeedError> {
        if self.out.ops > HANDLER_BUDGET_OPS {
            return Err(SeedError(format!(
                "handler budget of {HANDLER_BUDGET_OPS} ops exceeded"
            )));
        }
        Ok(())
    }

    fn run_block(&mut self, actions: &[Action], scope: &mut Scope) -> Result<Flow, SeedError> {
        scope.push();
        let flow = self.run_block_inner(actions, scope);
        scope.pop();
        flow
    }

    fn run_block_inner(
        &mut self,
        actions: &[Action],
        scope: &mut Scope,
    ) -> Result<Flow, SeedError> {
        for a in actions {
            self.charge(2);
            match a {
                Action::Local(v) => {
                    let val = match &v.init {
                        Some(e) => fit(self.eval(e, scope)?, v.declared_type(), &v.name)?,
                        None => default_value(v),
                    };
                    scope.declare(v.name.clone(), val, v.declared_type());
                }
                Action::Assign {
                    target,
                    field,
                    value,
                    ..
                } => {
                    let val = self.eval(value, scope)?;
                    if field.is_some() {
                        // Trigger reconfiguration (`p.ival = …`) is applied
                        // by the soil, which recomputes schedules from the
                        // analysis; at the VM level it is a no-op on vars.
                        continue;
                    }
                    if let Some((slot, ty)) = scope.get_mut(target) {
                        *slot = fit(val, *ty, target)?;
                    } else {
                        match self.seed.vars.get_mut(target) {
                            Some(slot) => *slot = fit(val, self.seed.types[target], target)?,
                            None => {
                                return Err(SeedError(format!(
                                    "assignment to unknown variable `{target}`"
                                )))
                            }
                        }
                    }
                }
                Action::Transit { state, .. } => return Ok(Flow::Transit(state.clone())),
                Action::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let c = self
                        .eval(cond, scope)?
                        .as_bool()
                        .ok_or_else(|| SeedError("if condition is not a bool".into()))?;
                    let flow = if c {
                        self.run_block(then_branch, scope)?
                    } else {
                        self.run_block(else_branch, scope)?
                    };
                    if !matches!(flow, Flow::Normal) {
                        return Ok(flow);
                    }
                }
                Action::While { cond, body, .. } => loop {
                    let c = self
                        .eval(cond, scope)?
                        .as_bool()
                        .ok_or_else(|| SeedError("while condition is not a bool".into()))?;
                    if !c {
                        break;
                    }
                    self.within_budget()?;
                    let flow = self.run_block(body, scope)?;
                    if !matches!(flow, Flow::Normal) {
                        return Ok(flow);
                    }
                },
                Action::Return { value, .. } => {
                    let v = match value {
                        Some(e) => self.eval(e, scope)?,
                        None => Value::Unit,
                    };
                    return Ok(Flow::Return(v));
                }
                Action::Send { value, to, .. } => {
                    let v = self.eval(value, scope)?;
                    let endpoint = match to {
                        MsgEndpoint::Harvester => Endpoint::Harvester,
                        MsgEndpoint::Machine { name, at } => {
                            let at = match at {
                                None => None,
                                Some(e) => {
                                    let id = self.eval(e, scope)?.as_int().ok_or_else(|| {
                                        SeedError("@destination is not an integer".into())
                                    })?;
                                    Some(SwitchId(u32::try_from(id).map_err(|_| {
                                        SeedError(format!("@destination {id} is not a switch id"))
                                    })?))
                                }
                            };
                            Endpoint::Machine {
                                name: name.clone(),
                                at,
                            }
                        }
                    };
                    self.out.effects.push(Effect::Send {
                        to: endpoint,
                        value: v,
                    });
                }
                Action::ExprStmt { expr, .. } => {
                    self.eval(expr, scope)?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(&mut self, e: &Expr, scope: &mut Scope) -> Result<Value, SeedError> {
        self.charge(1);
        match e {
            Expr::Lit(l, _) => Ok(match l {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(f) => Value::Float(*f),
                Literal::Str(s) => Value::Str(s.clone()),
            }),
            Expr::Var(name, _) => scope
                .get(name)
                .or_else(|| self.seed.vars.get(name))
                .cloned()
                .ok_or_else(|| SeedError(format!("unknown variable `{name}`"))),
            Expr::Filter(f, _) => self.eval_filter(f, scope),
            Expr::Unary(op, inner, _) => {
                let v = self.eval(inner, scope)?;
                match op {
                    UnOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        Value::Filter(f) => Ok(Value::Filter(f.not())),
                        other => Err(SeedError(format!("`not` on {}", other.type_name()))),
                    },
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(SeedError(format!("negation of {}", other.type_name()))),
                    },
                }
            }
            Expr::Binary(op, a, b, _) => {
                // Short-circuit booleans.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let va = self.eval(a, scope)?;
                    if let Value::Bool(ba) = va {
                        if (*op == BinOp::And && !ba) || (*op == BinOp::Or && ba) {
                            return Ok(Value::Bool(ba));
                        }
                        let vb = self.eval(b, scope)?;
                        return binary_op(*op, &Value::Bool(ba), &vb).map_err(SeedError);
                    }
                    let vb = self.eval(b, scope)?;
                    return binary_op(*op, &va, &vb).map_err(SeedError);
                }
                let va = self.eval(a, scope)?;
                let vb = self.eval(b, scope)?;
                binary_op(*op, &va, &vb).map_err(SeedError)
            }
            Expr::Field(base, field, _) => {
                let v = self.eval(base, scope)?;
                match (&v, field.as_str()) {
                    (Value::Resources(r), f) => {
                        let kind = farm_netsim::switch::ResourceKind::from_field_name(f)
                            .ok_or_else(|| SeedError(format!("unknown resource field {f}")))?;
                        Ok(Value::Float(r.get(kind)))
                    }
                    (other, f) => Err(SeedError(format!(
                        "no field `.{f}` on {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::StructLit { name, fields, .. } => {
                if name == "Rule" {
                    let mut pattern = None;
                    let mut action = None;
                    for (fname, fexpr) in fields {
                        let v = self.eval(fexpr, scope)?;
                        match (fname.as_str(), v) {
                            ("pattern", Value::Filter(f)) => pattern = Some(f),
                            ("act", Value::Action(a)) => action = Some(a),
                            (f, other) => {
                                return Err(SeedError(format!(
                                    "bad Rule field .{f} = {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    return Ok(Value::Rule(RuleValue {
                        pattern: pattern
                            .ok_or_else(|| SeedError("Rule without .pattern".into()))?,
                        action: action.ok_or_else(|| SeedError("Rule without .act".into()))?,
                    }));
                }
                // Poll/Probe literals are handled by the soil's scheduler.
                Ok(Value::Unit)
            }
            Expr::Call { name, args, .. } => self.call(name, args, scope),
        }
    }

    fn eval_filter(&mut self, f: &FilterExpr, scope: &mut Scope) -> Result<Value, SeedError> {
        let atom = match f {
            FilterExpr::SrcIp(e) => FilterAtom::SrcIp(self.eval_prefix(e, scope)?),
            FilterExpr::DstIp(e) => FilterAtom::DstIp(self.eval_prefix(e, scope)?),
            FilterExpr::SrcPort(e) => FilterAtom::SrcPort(self.eval_port(e, scope)?),
            FilterExpr::DstPort(e) => FilterAtom::DstPort(self.eval_port(e, scope)?),
            FilterExpr::IfPort(e) => FilterAtom::IfPort(PortSel::Id(self.eval_port(e, scope)?)),
            FilterExpr::IfPortAny => FilterAtom::IfPort(PortSel::Any),
            FilterExpr::Proto(e) => {
                let v = self.eval(e, scope)?;
                let p = match v.as_str() {
                    Some("tcp") => Proto::Tcp,
                    Some("udp") => Proto::Udp,
                    Some("icmp") => Proto::Icmp,
                    _ => return Err(SeedError(format!("bad protocol {v}"))),
                };
                FilterAtom::Proto(p)
            }
        };
        Ok(Value::Filter(FilterFormula::Atom(atom)))
    }

    fn eval_prefix(&mut self, e: &Expr, scope: &mut Scope) -> Result<Prefix, SeedError> {
        let v = self.eval(e, scope)?;
        let s = v
            .as_str()
            .ok_or_else(|| SeedError("IP filter expects a string".into()))?;
        s.parse().map_err(|err| SeedError(format!("{err}")))
    }

    fn eval_port(&mut self, e: &Expr, scope: &mut Scope) -> Result<u16, SeedError> {
        let v = self.eval(e, scope)?;
        let i = v
            .as_int()
            .ok_or_else(|| SeedError("port expects an integer".into()))?;
        u16::try_from(i).map_err(|_| SeedError(format!("port {i} out of range")))
    }

    fn call(&mut self, name: &str, args: &[Expr], scope: &mut Scope) -> Result<Value, SeedError> {
        // User functions first (the checker forbids shadowing builtins).
        let functions = self.seed.functions;
        if let Some(f) = functions.iter().find(|f| f.name == name) {
            if self.depth >= MAX_CALL_DEPTH {
                return Err(SeedError("call depth exceeded".into()));
            }
            self.within_budget()?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a, scope)?);
            }
            // Each argument is stored into its parameter (a missing one
            // is unit), then the result into the declared one.
            let mut fscope = Scope::new();
            let vals = vals.into_iter().chain(std::iter::repeat(Value::Unit));
            for ((ty, pname), v) in f.params.iter().zip(vals) {
                fscope.declare(pname.clone(), fit(v, *ty, pname)?, *ty);
            }
            self.depth += 1;
            let flow = self.run_block(&f.body, &mut fscope);
            self.depth -= 1;
            let v = match flow? {
                Flow::Return(v) => v,
                Flow::Normal => Value::Unit,
                Flow::Transit(_) => return Err(SeedError("transit inside function".into())),
            };
            return match f.ret {
                Some(ty) => fit(v, ty, &format!("{name}()")),
                None => Ok(v),
            };
        }
        self.call_builtin(name, args, scope)
    }

    fn call_builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        scope: &mut Scope,
    ) -> Result<Value, SeedError> {
        // Mutating list builtins operate on the variable in place.
        if matches!(
            name,
            "list_push" | "list_push_unique" | "list_clear" | "list_remove_at"
        ) {
            let Expr::Var(var_name, _) = &args[0] else {
                return Err(SeedError(format!("`{name}` needs a variable argument")));
            };
            let extra = if args.len() > 1 {
                Some(self.eval(&args[1], scope)?)
            } else {
                None
            };
            let list_val = scope
                .get(var_name)
                .or_else(|| self.seed.vars.get(var_name))
                .cloned()
                .ok_or_else(|| SeedError(format!("unknown list `{var_name}`")))?;
            let Value::List(mut items) = list_val else {
                return Err(SeedError(format!("`{var_name}` is not a list")));
            };
            self.charge(items.len() as u64 / 4 + 1);
            match name {
                "list_push" => items.push(extra.expect("arity checked")),
                "list_push_unique" => {
                    let v = extra.expect("arity checked");
                    if !items.contains(&v) {
                        items.push(v);
                    }
                }
                "list_clear" => items.clear(),
                "list_remove_at" => {
                    let i = extra
                        .and_then(|v| v.as_int())
                        .ok_or_else(|| SeedError("list_remove_at expects an index".into()))?;
                    if i < 0 || i as usize >= items.len() {
                        return Err(SeedError(format!("index {i} out of bounds")));
                    }
                    items.remove(i as usize);
                }
                _ => unreachable!(),
            }
            let updated = Value::List(items);
            match scope.get_mut(var_name) {
                Some((held, _)) => *held = updated,
                None => {
                    self.seed.vars.insert(var_name.clone(), updated);
                }
            }
            return Ok(Value::Unit);
        }

        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, scope)?);
        }
        let arity_err = || SeedError(format!("bad arguments to `{name}`"));
        let num = |v: &Value| v.as_f64().ok_or_else(arity_err);
        match name {
            "res" => Ok(Value::Resources(self.host.resources())),
            "now" => Ok(Value::Int(self.host.now_ms())),
            "min" => Ok(Value::Float(num(&vals[0])?.min(num(&vals[1])?))),
            "max" => Ok(Value::Float(num(&vals[0])?.max(num(&vals[1])?))),
            "abs" => Ok(Value::Float(num(&vals[0])?.abs())),
            "log2" => Ok(Value::Float(num(&vals[0])?.log2())),
            "to_float" => Ok(Value::Float(num(&vals[0])?)),
            "to_int" => Ok(Value::Int(match &vals[0] {
                Value::Int(i) => *i,
                Value::Float(f) => *f as i64,
                Value::Bool(b) => *b as i64,
                Value::Str(s) => s.parse().unwrap_or(0),
                _ => return Err(arity_err()),
            })),
            "to_string" => Ok(Value::Str(match &vals[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            })),
            "str_concat" => match (&vals[0], &vals[1]) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
                _ => Err(arity_err()),
            },
            "str_contains" => match (&vals[0], &vals[1]) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a.contains(b.as_str()))),
                _ => Err(arity_err()),
            },
            "list_len" => Ok(Value::Int(
                vals[0].as_list().ok_or_else(arity_err)?.len() as i64
            )),
            "is_list_empty" => Ok(Value::Bool(
                vals[0].as_list().ok_or_else(arity_err)?.is_empty(),
            )),
            "list_get" => {
                let items = vals[0].as_list().ok_or_else(arity_err)?;
                let i = vals[1].as_int().ok_or_else(arity_err)?;
                items
                    .get(usize::try_from(i).map_err(|_| arity_err())?)
                    .cloned()
                    .ok_or_else(|| SeedError(format!("index {i} out of bounds")))
            }
            "list_contains" => {
                let items = vals[0].as_list().ok_or_else(arity_err)?;
                self.charge(items.len() as u64 / 4 + 1);
                Ok(Value::Bool(items.contains(&vals[1])))
            }
            "pair" => Ok(Value::Pair(
                Box::new(vals[0].clone()),
                Box::new(vals[1].clone()),
            )),
            "pair_first" => match &vals[0] {
                Value::Pair(a, _) => Ok((**a).clone()),
                _ => Err(arity_err()),
            },
            "pair_second" => match &vals[0] {
                Value::Pair(_, b) => Ok((**b).clone()),
                _ => Err(arity_err()),
            },
            "stat_port" => match &vals[0] {
                Value::Stat(s) => Ok(Value::Int(match s.subject {
                    StatSubject::Port(p) => p as i64,
                    StatSubject::Rule(_) => -1,
                })),
                _ => Err(arity_err()),
            },
            "stat_subject" => match &vals[0] {
                Value::Stat(s) => Ok(Value::Str(match &s.subject {
                    StatSubject::Port(p) => format!("port {p}"),
                    StatSubject::Rule(r) => r.clone(),
                })),
                _ => Err(arity_err()),
            },
            "stat_tx_bytes" | "stat_rx_bytes" | "stat_tx_packets" | "stat_rx_packets" => {
                match &vals[0] {
                    Value::Stat(s) => Ok(Value::Int(match name {
                        "stat_tx_bytes" => s.tx_bytes as i64,
                        "stat_rx_bytes" => s.rx_bytes as i64,
                        "stat_tx_packets" => s.tx_packets as i64,
                        _ => s.rx_packets as i64,
                    })),
                    _ => Err(arity_err()),
                }
            }
            "pkt_src_ip" => packet(&vals[0]).map(|p| Value::Str(p.flow.src.to_string())),
            "pkt_dst_ip" => packet(&vals[0]).map(|p| Value::Str(p.flow.dst.to_string())),
            "pkt_src_port" => packet(&vals[0]).map(|p| Value::Int(p.flow.src_port as i64)),
            "pkt_dst_port" => packet(&vals[0]).map(|p| Value::Int(p.flow.dst_port as i64)),
            "pkt_proto" => packet(&vals[0]).map(|p| Value::Str(p.flow.proto.to_string())),
            "pkt_len" => packet(&vals[0]).map(|p| Value::Int(p.len as i64)),
            "pkt_is_syn" => packet(&vals[0]).map(|p| Value::Bool(p.syn)),
            "pkt_is_fin" => packet(&vals[0]).map(|p| Value::Bool(p.fin)),
            "pkt_is_ack" => packet(&vals[0]).map(|p| Value::Bool(p.ack)),
            "filter_matches" => match (&vals[0], &vals[1]) {
                (Value::Filter(f), Value::Packet(p)) => Ok(Value::Bool(f.matches_flow(&p.flow))),
                _ => Err(arity_err()),
            },
            "action_drop" => Ok(Value::Action(ActionValue::Drop)),
            "action_count" => Ok(Value::Action(ActionValue::Count)),
            "action_mirror" => Ok(Value::Action(ActionValue::Mirror)),
            "action_rate_limit" => Ok(Value::Action(ActionValue::RateLimit(
                vals[0].as_int().ok_or_else(arity_err)?.max(0) as u64,
            ))),
            "action_set_qos" => Ok(Value::Action(ActionValue::SetQos(
                vals[0].as_int().ok_or_else(arity_err)?.clamp(0, 255) as u8,
            ))),
            "rule" => match (&vals[0], &vals[1]) {
                (Value::Filter(f), Value::Action(a)) => Ok(Value::Rule(RuleValue {
                    pattern: f.clone(),
                    action: a.clone(),
                })),
                _ => Err(arity_err()),
            },
            "addTCAMRule" => match &vals[0] {
                Value::Rule(r) => {
                    self.out.effects.push(Effect::AddRule(r.clone()));
                    Ok(Value::Unit)
                }
                _ => Err(arity_err()),
            },
            "removeTCAMRule" => match &vals[0] {
                Value::Filter(f) => {
                    self.out.effects.push(Effect::RemoveRule(f.clone()));
                    Ok(Value::Unit)
                }
                _ => Err(arity_err()),
            },
            "getTCAMRule" => match &vals[0] {
                Value::Filter(f) => match self.host.get_rule(f) {
                    Some(r) => Ok(Value::Rule(r)),
                    None => Err(SeedError(format!("no TCAM rule matching {f}"))),
                },
                _ => Err(arity_err()),
            },
            "exec" => match &vals[0] {
                Value::Str(cmd) => {
                    self.out.effects.push(Effect::Exec {
                        cmd: cmd.clone(),
                        iterations: 1,
                    });
                    Ok(Value::Unit)
                }
                _ => Err(arity_err()),
            },
            "exec_n" => match (&vals[0], &vals[1]) {
                (Value::Str(cmd), Value::Int(n)) => {
                    self.out.effects.push(Effect::Exec {
                        cmd: cmd.clone(),
                        iterations: u32::try_from((*n).max(0)).unwrap_or(u32::MAX),
                    });
                    Ok(Value::Unit)
                }
                _ => Err(arity_err()),
            },
            other => Err(SeedError(format!("unknown builtin `{other}`"))),
        }
    }
}

fn packet(v: &Value) -> Result<&PacketRecord, SeedError> {
    match v {
        Value::Packet(p) => Ok(p),
        other => Err(SeedError(format!(
            "expected packet, found {}",
            other.type_name()
        ))),
    }
}
