//! The seed virtual machine: executes compiled Almanac machines.
//!
//! Seeds are stateful, event-driven instances (§ II-B a of the paper).
//! The interpreter evaluates one event handler at a time, producing
//! [`Effect`]s (messages, TCAM mutations, external executions) that the
//! soil applies, plus an abstract CPU cost the soil charges to the switch
//! CPU meter. State transitions fire `exit`/`enter` handlers with a chain
//! cap so misbehaving seeds cannot livelock a switch.
//!
//! What runs is the slot-resolved form [`farm_almanac::lower`] builds once
//! per compiled machine: machine variables are a `Vec<Value>` indexed by
//! global slot, a handler or function call is one flat frame on a value
//! stack, and no name is looked up while a handler runs. Operands that
//! are plain variables or constants are borrowed, not copied, so walking
//! a list of port statistics copies only the elements it hands out. The
//! abstract cost — 1 per expression node, 2 per statement, `len/4 + 1`
//! per list scan — is charged from that tree and is part of the
//! simulator's observable behaviour.

use std::fmt;
use std::sync::Arc;

use farm_almanac::analysis::consteval::binary_op;
use farm_almanac::ast::{BinOp, Type};
use farm_almanac::builtins::{Op, BUILTINS};
use farm_almanac::compile::CompiledMachine;
use farm_almanac::lower::{Expr, FilterField, LoweredMachine, On, Place, Stmt};
use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_netsim::switch::Resources;
use farm_netsim::types::{FilterAtom, FilterFormula, PortSel, Prefix, Proto, SwitchId};

/// Identifier of a deployed seed instance (unique per soil lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeedId(pub u64);

impl fmt::Display for SeedId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed{}", self.0)
    }
}

/// Runtime failure inside a seed handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedError(pub String);

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed runtime error: {}", self.0)
    }
}

impl std::error::Error for SeedError {}

/// Message destination.
#[derive(Debug, Clone, PartialEq)]
pub enum Endpoint {
    Harvester,
    /// A machine, optionally at a specific switch (broadcast if `None`).
    Machine {
        name: String,
        at: Option<SwitchId>,
    },
}

/// Side effect requested by a handler, applied by the soil.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    Send {
        to: Endpoint,
        value: Value,
    },
    AddRule(RuleValue),
    RemoveRule(FilterFormula),
    /// `exec(cmd)` / `exec_n(cmd, n)`: run external code `n` times.
    Exec {
        cmd: String,
        iterations: u32,
    },
}

/// Input event delivered to a seed.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedEvent {
    Enter,
    Exit,
    Realloc,
    /// A trigger variable fired with its payload (poll → list of stats,
    /// probe → packet, time → tick count).
    Trigger {
        name: String,
        payload: Value,
    },
    /// A message arrived (from another machine or the harvester).
    Recv {
        from_machine: Option<String>,
        value: Value,
    },
}

/// Result of delivering one event.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub effects: Vec<Effect>,
    /// Abstract interpreter operations executed (converted to CPU cycles
    /// by the soil's cost model).
    pub ops: u64,
    /// Whether a state transition occurred.
    pub transitioned: bool,
}

/// Execution statistics of one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedStats {
    pub events_handled: u64,
    pub transitions: u64,
    pub messages_sent: u64,
    pub ops: u64,
}

/// Host services the interpreter needs from its soil.
pub trait SeedHost {
    /// Resources currently allocated to the seed (`res()`).
    fn resources(&self) -> Resources;
    /// Milliseconds since the seed started (`now()`).
    fn now_ms(&self) -> i64;
    /// Installed monitoring rule with the given pattern (`getTCAMRule`).
    fn get_rule(&self, pattern: &FilterFormula) -> Option<RuleValue>;
}

/// A fixed host for tests and detached execution.
#[derive(Debug, Clone, Default)]
pub struct FixedHost {
    pub resources: Resources,
    pub now_ms: i64,
    pub rules: Vec<RuleValue>,
}

impl SeedHost for FixedHost {
    fn resources(&self) -> Resources {
        self.resources
    }
    fn now_ms(&self) -> i64 {
        self.now_ms
    }
    fn get_rule(&self, pattern: &FilterFormula) -> Option<RuleValue> {
        self.rules.iter().find(|r| &r.pattern == pattern).cloned()
    }
}

/// Portable snapshot of a seed's mutable state (used for migration:
/// "transferring its state over from the source switch", § IV-B a).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSnapshot {
    pub machine: String,
    pub state: String,
    pub vars: Vec<(String, Value)>,
}

/// Maximum chained transitions per delivered event.
const MAX_TRANSIT_CHAIN: usize = 16;
/// Maximum loop iterations per handler (runaway protection).
const MAX_LOOP_ITERS: u64 = 1_000_000;
/// Maximum user-function call depth.
const MAX_CALL_DEPTH: usize = 64;

/// A live seed instance.
#[derive(Debug, Clone)]
pub struct SeedInstance {
    pub id: SeedId,
    def: Arc<CompiledMachine>,
    /// Id of the current state in `def.lowered.states`.
    state: u32,
    /// Machine variables by global slot (names live in `def.lowered`).
    vars: Vec<Value>,
    allocated: Resources,
    stats: SeedStats,
}

impl SeedInstance {
    /// Creates an instance in the machine's initial state with variables
    /// initialized from the compiled constants (externals included).
    /// The caller should deliver [`SeedEvent::Enter`] afterwards.
    pub fn new(id: SeedId, def: Arc<CompiledMachine>, allocated: Resources) -> SeedInstance {
        SeedInstance {
            id,
            state: 0,
            vars: def.lowered.init.clone(),
            def,
            allocated,
            stats: SeedStats::default(),
        }
    }

    /// The machine definition.
    pub(crate) fn def(&self) -> &Arc<CompiledMachine> {
        &self.def
    }

    /// Machine name.
    pub fn machine_name(&self) -> &str {
        &self.def.machine.name
    }

    /// Current state name.
    pub fn state(&self) -> &str {
        &self.def.lowered.states[self.state as usize].name
    }

    /// Current resource allocation.
    pub fn allocated(&self) -> Resources {
        self.allocated
    }

    /// Updates the allocation (the caller should deliver
    /// [`SeedEvent::Realloc`]).
    pub(crate) fn set_allocated(&mut self, r: Resources) {
        self.allocated = r;
    }

    /// Execution statistics.
    pub fn stats(&self) -> SeedStats {
        self.stats
    }

    /// Reads a machine variable (tests/harvesters).
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.def.lowered.global_slot(name).map(|i| &self.vars[i])
    }

    /// Captures the mutable state for migration. Variables come out
    /// sorted by name: global slots are assigned in that order.
    pub fn snapshot(&self) -> SeedSnapshot {
        let names = self.def.lowered.globals.iter().cloned();
        SeedSnapshot {
            machine: self.def.machine.name.clone(),
            state: self.state().to_string(),
            vars: names.zip(self.vars.iter().cloned()).collect(),
        }
    }

    /// Restores mutable state from a snapshot (migration target side).
    ///
    /// A snapshot variable this machine does not declare is accepted and
    /// dropped: no handler could read it, and a machine upgraded to a
    /// version without the variable must still take its old checkpoints.
    /// A declared variable missing from the snapshot keeps its value.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot belongs to a different machine or names an
    /// unknown state.
    pub fn restore(&mut self, snap: &SeedSnapshot) -> Result<(), SeedError> {
        if snap.machine != self.def.machine.name {
            return Err(SeedError(format!(
                "snapshot of `{}` cannot restore into `{}`",
                snap.machine, self.def.machine.name
            )));
        }
        let Some(state) = self.def.lowered.state_id(&snap.state) else {
            return Err(SeedError(format!("unknown state `{}`", snap.state)));
        };
        self.state = state;
        for (name, value) in &snap.vars {
            if let Some(slot) = self.def.lowered.global_slot(name) {
                self.vars[slot] = value.clone();
            }
        }
        Ok(())
    }

    /// Delivers an event, returning the effects and cost.
    ///
    /// # Errors
    ///
    /// Runtime errors (bad dynamic types, loop/recursion limits,
    /// transition livelock).
    pub fn handle(&mut self, event: &SeedEvent, host: &dyn SeedHost) -> Result<Outcome, SeedError> {
        let mut out = Outcome::default();
        self.stats.events_handled += 1;
        let mut vm = Vm {
            code: &self.def.lowered,
            globals: &mut self.vars,
            state: &mut self.state,
            transitions: &mut self.stats.transitions,
            host,
            out: &mut out,
            stack: Vec::new(),
            base: 0,
            depth: 0,
        };
        vm.dispatch(event, 0)?;
        self.stats.ops += out.ops;
        self.stats.messages_sent += out
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .count() as u64;
        Ok(out)
    }
}

/// Whether a handler's trigger accepts `event`.
fn accepts(on: &On, event: &SeedEvent) -> bool {
    match (on, event) {
        (On::Enter, SeedEvent::Enter) => true,
        (On::Exit, SeedEvent::Exit) => true,
        (On::Realloc, SeedEvent::Realloc) => true,
        (On::Trigger(name), SeedEvent::Trigger { name: fired, .. }) => name == fired,
        (
            On::Recv { ty, from },
            SeedEvent::Recv {
                from_machine,
                value,
            },
        ) => from == from_machine && value_has_type(value, *ty),
        _ => false,
    }
}

fn value_has_type(v: &Value, t: Type) -> bool {
    match t {
        Type::Any => true,
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

/// Control flow result of running a block.
enum Flow {
    Normal,
    Return(Value),
    Transit(u32),
}

/// An evaluated operand: a variable or constant is referred to, not
/// copied, until someone needs to own it.
enum Operand<'c> {
    Owned(Value),
    Const(&'c Value),
    Place(Place),
}

impl Operand<'_> {
    fn get<'v>(&'v self, vm: &'v Vm<'_, '_>) -> &'v Value {
        match self {
            Operand::Owned(v) => v,
            Operand::Const(v) => v,
            Operand::Place(p) => vm.place(*p),
        }
    }

    fn take(self, vm: &Vm<'_, '_>) -> Value {
        match self {
            Operand::Owned(v) => v,
            Operand::Const(v) => v.clone(),
            Operand::Place(p) => vm.place(p).clone(),
        }
    }
}

/// One event delivery in progress: `'c` is the shared lowered code, `'s`
/// the seed being run.
struct Vm<'c, 's> {
    code: &'c LoweredMachine,
    globals: &'s mut [Value],
    state: &'s mut u32,
    transitions: &'s mut u64,
    host: &'s dyn SeedHost,
    out: &'s mut Outcome,
    /// Frames of the running handler and the functions it is inside of.
    stack: Vec<Value>,
    /// Start of the innermost frame in `stack`.
    base: usize,
    depth: usize,
}

impl<'c> Vm<'c, '_> {
    fn charge(&mut self, ops: u64) {
        self.out.ops += ops;
    }

    fn place(&self, p: Place) -> &Value {
        match p {
            Place::Global(i) => &self.globals[i as usize],
            Place::Local(i) => &self.stack[self.base + i as usize],
        }
    }

    fn place_mut(&mut self, p: Place) -> &mut Value {
        match p {
            Place::Global(i) => &mut self.globals[i as usize],
            Place::Local(i) => &mut self.stack[self.base + i as usize],
        }
    }

    /// Runs the handler the current state has for `event`, if any, and
    /// the transition it asks for. State handlers take precedence over
    /// machine-level handlers with the same trigger shape (§ III-A b:
    /// "with the possibility of overriding such global definitions").
    fn dispatch(&mut self, event: &SeedEvent, chain: usize) -> Result<(), SeedError> {
        if chain > MAX_TRANSIT_CHAIN {
            return Err(SeedError("transition chain exceeded limit".into()));
        }
        let code = self.code;
        let Some(handler) = code.states[*self.state as usize]
            .handlers
            .iter()
            .map(|&h| &code.handlers[h as usize])
            .find(|h| accepts(&h.on, event))
        else {
            return Ok(()); // no handler in this state: event is dropped
        };
        self.base = 0;
        self.stack.resize(handler.frame as usize, Value::Unit);
        if handler.binds {
            if let SeedEvent::Trigger { payload: v, .. } | SeedEvent::Recv { value: v, .. } = event
            {
                self.stack[0] = v.clone();
            }
        }
        let flow = self.block(&handler.body);
        self.stack.clear();
        if let Flow::Transit(next) = flow? {
            self.out.transitioned = true;
            *self.transitions += 1;
            self.dispatch(&SeedEvent::Exit, chain + 1)?;
            *self.state = next;
            self.dispatch(&SeedEvent::Enter, chain + 1)?;
        }
        Ok(())
    }

    fn block(&mut self, stmts: &'c [Stmt]) -> Result<Flow, SeedError> {
        for s in stmts {
            self.charge(2);
            match s {
                Stmt::Set(place, value) => {
                    let v = self.eval(value)?;
                    *self.place_mut(*place) = v;
                }
                Stmt::Init(slot, v) => *self.place_mut(Place::Local(*slot)) = v.clone(),
                Stmt::Eval(e) => {
                    self.operand(e)?;
                }
                Stmt::Transit(state) => return Ok(Flow::Transit(*state)),
                Stmt::If(cond, then_branch, else_branch) => {
                    let c = self
                        .operand(cond)?
                        .get(self)
                        .as_bool()
                        .ok_or_else(|| SeedError("if condition is not a bool".into()))?;
                    let flow = self.block(if c { then_branch } else { else_branch })?;
                    if !matches!(flow, Flow::Normal) {
                        return Ok(flow);
                    }
                }
                Stmt::While(cond, body) => {
                    let mut iters = 0u64;
                    loop {
                        let c = self
                            .operand(cond)?
                            .get(self)
                            .as_bool()
                            .ok_or_else(|| SeedError("while condition is not a bool".into()))?;
                        if !c {
                            break;
                        }
                        iters += 1;
                        if iters > MAX_LOOP_ITERS {
                            return Err(SeedError("loop iteration limit exceeded".into()));
                        }
                        let flow = self.block(body)?;
                        if !matches!(flow, Flow::Normal) {
                            return Ok(flow);
                        }
                    }
                }
                Stmt::Return(value) => {
                    let v = match value {
                        Some(e) => self.eval(e)?,
                        None => Value::Unit,
                    };
                    return Ok(Flow::Return(v));
                }
                Stmt::Send { value, to } => {
                    let value = self.eval(value)?;
                    let to = match to {
                        None => Endpoint::Harvester,
                        Some(dest) => {
                            let at = match &dest.at {
                                None => None,
                                Some(e) => {
                                    let id =
                                        self.operand(e)?.get(self).as_int().ok_or_else(|| {
                                            SeedError("@destination is not an integer".into())
                                        })?;
                                    Some(SwitchId(id as u32))
                                }
                            };
                            Endpoint::Machine {
                                name: dest.machine.clone(),
                                at,
                            }
                        }
                    };
                    self.out.effects.push(Effect::Send { to, value });
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Evaluates to an owned value.
    fn eval(&mut self, e: &'c Expr) -> Result<Value, SeedError> {
        Ok(self.operand(e)?.take(self))
    }

    /// Evaluates without copying what is already stored somewhere.
    fn operand(&mut self, e: &'c Expr) -> Result<Operand<'c>, SeedError> {
        self.charge(1);
        Ok(match e {
            Expr::Const(v) => Operand::Const(v),
            Expr::Var(p) => Operand::Place(*p),
            _ => Operand::Owned(self.compute(e)?),
        })
    }

    fn compute(&mut self, e: &'c Expr) -> Result<Value, SeedError> {
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(p) => Ok(self.place(*p).clone()),
            Expr::Fail(message) => Err(SeedError(message.clone())),
            Expr::Not(inner) => match self.eval(inner)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Filter(f) => Ok(Value::Filter(f.not())),
                other => Err(SeedError(format!("`not` on {}", other.type_name()))),
            },
            Expr::Neg(inner) => match self.eval(inner)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(SeedError(format!("negation of {}", other.type_name()))),
            },
            Expr::Binary(op, a, b) => {
                let a = self.operand(a)?;
                // Short-circuit booleans.
                if let (BinOp::And | BinOp::Or, Value::Bool(x)) = (op, a.get(self)) {
                    if *x == (*op == BinOp::Or) {
                        return Ok(Value::Bool(*x));
                    }
                }
                let b = self.operand(b)?;
                binary_op(*op, a.get(self), b.get(self)).map_err(SeedError)
            }
            Expr::Field {
                base,
                field,
                resource,
            } => match (self.operand(base)?.get(self), resource) {
                (Value::Resources(r), Some(kind)) => Ok(Value::Float(r.get(*kind))),
                (Value::Resources(_), None) => {
                    Err(SeedError(format!("unknown resource field {field}")))
                }
                (other, _) => Err(SeedError(format!(
                    "no field `.{field}` on {}",
                    other.type_name()
                ))),
            },
            Expr::Rule(fields) => {
                let mut pattern = None;
                let mut action = None;
                for (name, value) in fields {
                    match (name.as_str(), self.eval(value)?) {
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
                Ok(Value::Rule(RuleValue {
                    pattern: pattern.ok_or_else(|| SeedError("Rule without .pattern".into()))?,
                    action: action.ok_or_else(|| SeedError("Rule without .act".into()))?,
                }))
            }
            Expr::Filter(field, arg) => {
                let arg = self.operand(arg)?;
                filter_atom(*field, arg.get(self)).map(|a| Value::Filter(FilterFormula::Atom(a)))
            }
            Expr::CallFn(f, args) => self.call_function(*f, args),
            Expr::Mutate {
                op,
                name,
                target,
                arg,
            } => {
                let arg = match arg {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                let Some(target) = target else {
                    return Err(SeedError(format!("unknown list `{name}`")));
                };
                let len = match self.place(*target) {
                    Value::List(items) => items.len(),
                    _ => return Err(SeedError(format!("`{name}` is not a list"))),
                };
                self.charge(len as u64 / 4 + 1);
                let Value::List(items) = self.place_mut(*target) else {
                    unreachable!("checked to be a list above");
                };
                mutate_list(*op, items, arg)
            }
            Expr::Call(op, args) => self.call_builtin(*op, args),
        }
    }

    fn call_function(&mut self, f: u32, args: &'c [Expr]) -> Result<Value, SeedError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(SeedError("call depth exceeded".into()));
        }
        let code = self.code;
        let function = &code.functions[f as usize];
        // Arguments are evaluated in the caller's frame and land where
        // the callee's frame starts.
        let frame = self.stack.len();
        for a in args {
            let v = self.eval(a)?;
            self.stack.push(v);
        }
        self.stack
            .resize(frame + function.frame as usize, Value::Unit);
        let caller = std::mem::replace(&mut self.base, frame);
        self.depth += 1;
        let flow = self.block(&function.body);
        self.depth -= 1;
        self.base = caller;
        self.stack.truncate(frame);
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Unit),
            Flow::Transit(_) => Err(SeedError("transit inside function".into())),
        }
    }

    fn call_builtin(&mut self, op: Op, args: &'c [Expr]) -> Result<Value, SeedError> {
        // The signatures take at most two arguments (lowering checked the
        // count); a missing one reads as unit and fails its type test.
        let a = match args.first() {
            Some(e) => self.operand(e)?,
            None => Operand::Owned(Value::Unit),
        };
        let b = match args.get(1) {
            Some(e) => self.operand(e)?,
            None => Operand::Owned(Value::Unit),
        };
        let bad = || {
            let name = BUILTINS.iter().find(|b| b.op == op).map_or("?", |b| b.name);
            SeedError(format!("bad arguments to `{name}`"))
        };
        // Effects first: they own their operands.
        match op {
            Op::AddTcamRule => {
                let Value::Rule(r) = a.take(self) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::AddRule(r));
                return Ok(Value::Unit);
            }
            Op::RemoveTcamRule => {
                let Value::Filter(f) = a.take(self) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::RemoveRule(f));
                return Ok(Value::Unit);
            }
            Op::Exec | Op::ExecN => {
                let iterations = match (op, b.get(self)) {
                    (Op::Exec, _) => 1,
                    (_, Value::Int(n)) => (*n).max(0) as u32,
                    _ => return Err(bad()),
                };
                let Value::Str(cmd) = a.take(self) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::Exec { cmd, iterations });
                return Ok(Value::Unit);
            }
            Op::ListContains => {
                let items = a.get(self).as_list().ok_or_else(bad)?;
                let (found, len) = (items.contains(b.get(self)), items.len());
                self.charge(len as u64 / 4 + 1);
                return Ok(Value::Bool(found));
            }
            Op::Pair => {
                let (first, second) = (a.take(self), b.take(self));
                return Ok(Value::Pair(Box::new(first), Box::new(second)));
            }
            Op::Rule => {
                return match (a.take(self), b.take(self)) {
                    (Value::Filter(pattern), Value::Action(action)) => {
                        Ok(Value::Rule(RuleValue { pattern, action }))
                    }
                    _ => Err(bad()),
                }
            }
            _ => {}
        }
        // Everything else only reads.
        let (x, y) = (a.get(self), b.get(self));
        let num = |v: &Value| v.as_f64().ok_or_else(bad);
        let stat = |v: &Value, field: fn(&StatEntry) -> u64| match v {
            Value::Stat(s) => Ok(Value::Int(field(s) as i64)),
            _ => Err(bad()),
        };
        match op {
            Op::Res => Ok(Value::Resources(self.host.resources())),
            Op::Now => Ok(Value::Int(self.host.now_ms())),
            Op::Min => Ok(Value::Float(num(x)?.min(num(y)?))),
            Op::Max => Ok(Value::Float(num(x)?.max(num(y)?))),
            Op::Abs => Ok(Value::Float(num(x)?.abs())),
            Op::Log2 => Ok(Value::Float(num(x)?.log2())),
            Op::ToFloat => Ok(Value::Float(num(x)?)),
            Op::ToInt => Ok(Value::Int(match x {
                Value::Int(i) => *i,
                Value::Float(f) => *f as i64,
                Value::Bool(b) => *b as i64,
                Value::Str(s) => s.parse().unwrap_or(0),
                _ => return Err(bad()),
            })),
            Op::ToString => Ok(Value::Str(match x {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            })),
            Op::StrConcat => match (x, y) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
                _ => Err(bad()),
            },
            Op::StrContains => match (x, y) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a.contains(b.as_str()))),
                _ => Err(bad()),
            },
            Op::ListLen => Ok(Value::Int(x.as_list().ok_or_else(bad)?.len() as i64)),
            Op::IsListEmpty => Ok(Value::Bool(x.as_list().ok_or_else(bad)?.is_empty())),
            Op::ListGet => {
                let items = x.as_list().ok_or_else(bad)?;
                let i = y.as_int().ok_or_else(bad)?;
                items
                    .get(usize::try_from(i).map_err(|_| bad())?)
                    .cloned()
                    .ok_or_else(|| SeedError(format!("index {i} out of bounds")))
            }
            Op::PairFirst => match x {
                Value::Pair(first, _) => Ok((**first).clone()),
                _ => Err(bad()),
            },
            Op::PairSecond => match x {
                Value::Pair(_, second) => Ok((**second).clone()),
                _ => Err(bad()),
            },
            Op::StatPort => match x {
                Value::Stat(s) => Ok(Value::Int(match s.subject {
                    StatSubject::Port(p) => p as i64,
                    StatSubject::Rule(_) => -1,
                })),
                _ => Err(bad()),
            },
            Op::StatSubject => match x {
                Value::Stat(s) => Ok(Value::Str(match &s.subject {
                    StatSubject::Port(p) => format!("port {p}"),
                    StatSubject::Rule(r) => r.clone(),
                })),
                _ => Err(bad()),
            },
            Op::StatTxBytes => stat(x, |s| s.tx_bytes),
            Op::StatRxBytes => stat(x, |s| s.rx_bytes),
            Op::StatTxPackets => stat(x, |s| s.tx_packets),
            Op::StatRxPackets => stat(x, |s| s.rx_packets),
            Op::PktSrcIp => packet(x).map(|p| Value::Str(p.flow.src.to_string())),
            Op::PktDstIp => packet(x).map(|p| Value::Str(p.flow.dst.to_string())),
            Op::PktSrcPort => packet(x).map(|p| Value::Int(p.flow.src_port as i64)),
            Op::PktDstPort => packet(x).map(|p| Value::Int(p.flow.dst_port as i64)),
            Op::PktProto => packet(x).map(|p| Value::Str(p.flow.proto.to_string())),
            Op::PktLen => packet(x).map(|p| Value::Int(p.len as i64)),
            Op::PktIsSyn => packet(x).map(|p| Value::Bool(p.syn)),
            Op::PktIsFin => packet(x).map(|p| Value::Bool(p.fin)),
            Op::PktIsAck => packet(x).map(|p| Value::Bool(p.ack)),
            Op::FilterMatches => match (x, y) {
                (Value::Filter(f), Value::Packet(p)) => Ok(Value::Bool(f.matches_flow(&p.flow))),
                _ => Err(bad()),
            },
            Op::ActionDrop => Ok(Value::Action(ActionValue::Drop)),
            Op::ActionCount => Ok(Value::Action(ActionValue::Count)),
            Op::ActionMirror => Ok(Value::Action(ActionValue::Mirror)),
            Op::ActionRateLimit => Ok(Value::Action(ActionValue::RateLimit(
                x.as_int().ok_or_else(bad)?.max(0) as u64,
            ))),
            Op::ActionSetQos => Ok(Value::Action(ActionValue::SetQos(
                x.as_int().ok_or_else(bad)?.clamp(0, 255) as u8,
            ))),
            Op::GetTcamRule => match x {
                Value::Filter(f) => match self.host.get_rule(f) {
                    Some(r) => Ok(Value::Rule(r)),
                    None => Err(SeedError(format!("no TCAM rule matching {f}"))),
                },
                _ => Err(bad()),
            },
            // Lowered to `Expr::Mutate`, or returned from above.
            Op::ListPush
            | Op::ListPushUnique
            | Op::ListClear
            | Op::ListRemoveAt
            | Op::AddTcamRule
            | Op::RemoveTcamRule
            | Op::Exec
            | Op::ExecN
            | Op::ListContains
            | Op::Pair
            | Op::Rule => Err(bad()),
        }
    }
}

/// Applies a mutating list builtin to the list it names; a failing one
/// leaves the list as it was.
fn mutate_list(op: Op, items: &mut Vec<Value>, arg: Option<Value>) -> Result<Value, SeedError> {
    match (op, arg) {
        (Op::ListPush, Some(v)) => items.push(v),
        (Op::ListPushUnique, Some(v)) => {
            if !items.contains(&v) {
                items.push(v);
            }
        }
        (Op::ListClear, _) => items.clear(),
        (Op::ListRemoveAt, arg) => {
            let i = arg
                .and_then(|v| v.as_int())
                .ok_or_else(|| SeedError("list_remove_at expects an index".into()))?;
            if i < 0 || i as usize >= items.len() {
                return Err(SeedError(format!("index {i} out of bounds")));
            }
            items.remove(i as usize);
        }
        (other, _) => return Err(SeedError(format!("{other:?} does not mutate a list"))),
    }
    Ok(Value::Unit)
}

fn filter_atom(field: FilterField, v: &Value) -> Result<FilterAtom, SeedError> {
    let prefix = || -> Result<Prefix, SeedError> {
        let s = v
            .as_str()
            .ok_or_else(|| SeedError("IP filter expects a string".into()))?;
        s.parse().map_err(|err| SeedError(format!("{err}")))
    };
    let port = || -> Result<u16, SeedError> {
        let i = v
            .as_int()
            .ok_or_else(|| SeedError("port expects an integer".into()))?;
        u16::try_from(i).map_err(|_| SeedError(format!("port {i} out of range")))
    };
    Ok(match field {
        FilterField::SrcIp => FilterAtom::SrcIp(prefix()?),
        FilterField::DstIp => FilterAtom::DstIp(prefix()?),
        FilterField::SrcPort => FilterAtom::SrcPort(port()?),
        FilterField::DstPort => FilterAtom::DstPort(port()?),
        FilterField::IfPort => FilterAtom::IfPort(PortSel::Id(port()?)),
        FilterField::Proto => FilterAtom::Proto(match v.as_str() {
            Some("tcp") => Proto::Tcp,
            Some("udp") => Proto::Udp,
            Some("icmp") => Proto::Icmp,
            _ => return Err(SeedError(format!("bad protocol {v}"))),
        }),
    })
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

/// Builds stat-entry values for a poll delivery.
pub fn stats_payload(entries: Vec<StatEntry>) -> Value {
    Value::List(entries.into_iter().map(Value::Stat).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::analysis::ConstEnv;
    use farm_almanac::compile::{compile_machine, frontend};
    use farm_netsim::controller::SdnController;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;

    fn compile(src: &str, machine: &str) -> Arc<CompiledMachine> {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
        let ctl = SdnController::new(&topo);
        let program = frontend(src).unwrap();
        Arc::new(compile_machine(&program, machine, &ConstEnv::new(), &ctl).unwrap())
    }

    fn hh_instance() -> SeedInstance {
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        SeedInstance::new(SeedId(1), def, Resources::new(2.0, 512.0, 16.0, 10.0))
    }

    fn stat(port: u16, tx_bytes: u64) -> StatEntry {
        StatEntry {
            subject: StatSubject::Port(port),
            tx_bytes,
            rx_bytes: 0,
            tx_packets: tx_bytes / 1500,
            rx_packets: 0,
        }
    }

    #[test]
    fn hh_detects_heavy_hitters_and_reacts_locally() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        assert_eq!(seed.state(), "observe");
        // Below threshold: nothing happens.
        let out = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload(vec![stat(0, 10), stat(1, 20)]),
                },
                &host,
            )
            .unwrap();
        assert!(out.effects.is_empty());
        assert_eq!(seed.state(), "observe");
        // Above threshold (default external threshold = 1_000_000):
        // transition to HHdetected, send to harvester, install a TCAM
        // rule, and bounce back to observe.
        let out = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload(vec![stat(3, 5_000_000), stat(1, 10)]),
                },
                &host,
            )
            .unwrap();
        assert_eq!(seed.state(), "observe");
        assert!(out.transitioned);
        let sends: Vec<_> = out
            .effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        to: Endpoint::Harvester,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(sends.len(), 1);
        let rules: Vec<_> = out
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::AddRule(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(
            rules[0].pattern,
            FilterFormula::Atom(FilterAtom::IfPort(PortSel::Id(3)))
        );
    }

    #[test]
    fn harvester_can_retune_threshold() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        seed.handle(
            &SeedEvent::Recv {
                from_machine: None,
                value: Value::Int(10),
            },
            &host,
        )
        .unwrap();
        assert_eq!(seed.var("threshold"), Some(&Value::Int(10)));
        // Now a tiny flow is a heavy hitter.
        let out = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload(vec![stat(0, 50)]),
                },
                &host,
            )
            .unwrap();
        assert!(out.transitioned);
    }

    #[test]
    fn recv_dispatches_on_payload_type() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        // An action payload must hit the hitterAction handler, not the
        // threshold one.
        seed.handle(
            &SeedEvent::Recv {
                from_machine: None,
                value: Value::Action(ActionValue::Drop),
            },
            &host,
        )
        .unwrap();
        assert_eq!(
            seed.var("hitterAction"),
            Some(&Value::Action(ActionValue::Drop))
        );
        assert_ne!(seed.var("threshold"), Some(&Value::Int(0)));
    }

    #[test]
    fn unhandled_events_are_dropped() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        let out = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "nonexistent".into(),
                    payload: Value::Unit,
                },
                &host,
            )
            .unwrap();
        assert!(out.effects.is_empty());
        assert!(!out.transitioned);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        seed.handle(
            &SeedEvent::Recv {
                from_machine: None,
                value: Value::Int(42),
            },
            &host,
        )
        .unwrap();
        let snap = seed.snapshot();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let mut other = SeedInstance::new(SeedId(2), def, Resources::ZERO);
        other.restore(&snap).unwrap();
        assert_eq!(other.var("threshold"), Some(&Value::Int(42)));
        assert_eq!(other.state(), seed.state());
    }

    #[test]
    fn restore_accepts_and_drops_variables_the_machine_does_not_declare() {
        let mut seed = hh_instance();
        let declared: Vec<String> = seed.snapshot().vars.into_iter().map(|(k, _)| k).collect();
        assert_eq!(declared, ["hitterAction", "hitters", "threshold"]);
        // A checkpoint of an older HH that still had `retired`, and did
        // not have `hitters` yet.
        let mut snap = seed.snapshot();
        snap.vars.retain(|(k, _)| k != "hitters");
        snap.vars.push(("retired".into(), Value::Int(5)));
        snap.vars.push(("threshold".into(), Value::Int(9)));
        seed.restore(&snap).unwrap();
        assert_eq!(seed.var("retired"), None);
        assert_eq!(seed.var("threshold"), Some(&Value::Int(9)));
        assert_eq!(seed.var("hitters"), Some(&Value::List(vec![])));
        // It does not come back out either: snapshots list declared
        // variables only, sorted by name.
        let after: Vec<String> = seed.snapshot().vars.into_iter().map(|(k, _)| k).collect();
        assert_eq!(after, declared);
    }

    #[test]
    fn restore_rejects_wrong_machine() {
        let seed = hh_instance();
        let snap = seed.snapshot();
        let def = compile(farm_almanac::programs::TRAFFIC_CHANGE, "TrafficChange");
        let mut other = SeedInstance::new(SeedId(3), def, Resources::ZERO);
        assert!(other.restore(&snap).is_err());
    }

    #[test]
    fn transition_chain_is_bounded() {
        let src = r#"
            machine Loop {
              place any;
              state a { when (enter) do { transit b; } }
              state b { when (enter) do { transit a; } }
            }
        "#;
        let def = compile(src, "Loop");
        let mut seed = SeedInstance::new(SeedId(4), def, Resources::ZERO);
        let err = seed
            .handle(&SeedEvent::Enter, &FixedHost::default())
            .unwrap_err();
        assert!(err.0.contains("transition chain"), "{err}");
    }

    #[test]
    fn while_loops_are_bounded() {
        let src = r#"
            machine Spin {
              place any;
              long x = 0;
              state s { when (enter) do { while (x <= 1) { x = 0; } } }
            }
        "#;
        let def = compile(src, "Spin");
        let mut seed = SeedInstance::new(SeedId(5), def, Resources::ZERO);
        let err = seed
            .handle(&SeedEvent::Enter, &FixedHost::default())
            .unwrap_err();
        assert!(err.0.contains("loop iteration"), "{err}");
    }

    #[test]
    fn exec_task_emits_exec_effect() {
        let src = r#"
            machine Ml {
              place any;
              time tick = 10;
              state s {
                when (tick) do { exec_n("svr 1000x1000", 10); }
              }
            }
        "#;
        let def = compile(src, "Ml");
        let mut seed = SeedInstance::new(SeedId(6), def, Resources::ZERO);
        let out = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "tick".into(),
                    payload: Value::Int(1),
                },
                &FixedHost::default(),
            )
            .unwrap();
        assert_eq!(
            out.effects,
            vec![Effect::Exec {
                cmd: "svr 1000x1000".into(),
                iterations: 10
            }]
        );
    }

    #[test]
    fn ops_scale_with_work() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        let small = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload((0..4).map(|p| stat(p, 10)).collect()),
                },
                &host,
            )
            .unwrap();
        let big = seed
            .handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload((0..64).map(|p| stat(p, 10)).collect()),
                },
                &host,
            )
            .unwrap();
        assert!(big.ops > small.ops * 4, "{} vs {}", big.ops, small.ops);
    }

    #[test]
    fn entropy_program_computes_shannon_entropy() {
        let def = compile(
            farm_almanac::programs::ENTROPY_ESTIMATION,
            "EntropyEstimation",
        );
        let mut seed = SeedInstance::new(SeedId(7), def, Resources::ZERO);
        let host = FixedHost::default();
        // Uniform traffic over 4 ports → entropy 2 bits.
        seed.handle(
            &SeedEvent::Trigger {
                name: "portStats".into(),
                payload: stats_payload((0..4).map(|p| stat(p, 1000)).collect()),
            },
            &host,
        )
        .unwrap();
        let Some(Value::Float(h)) = seed.var("current") else {
            panic!("entropy not computed")
        };
        assert!((h - 2.0).abs() < 1e-9, "expected 2 bits, got {h}");
    }
}
