//! The seed virtual machine: executes compiled Almanac machines.
//!
//! Seeds are stateful, event-driven instances (§ II-B a of the paper).
//! The interpreter evaluates one event handler at a time, producing
//! [`Effect`]s (messages, TCAM mutations, external executions) that the
//! soil applies, plus an abstract CPU cost the soil charges to the switch
//! CPU meter. State transitions fire `exit`/`enter` handlers with a chain
//! cap, and a delivery stops at [`HANDLER_BUDGET_OPS`], so misbehaving
//! seeds cannot livelock a switch.
//!
//! What runs is the flat register code [`farm_almanac::lower`] emits once
//! per compiled machine: one instruction vector per handler and function,
//! over frame slots, global slots, temporaries and a constant pool, with
//! `if`, `while`, `and` and `or` lowered to jumps. [`SeedInstance::handle`]
//! runs it in one `loop { match }` — a call pushes a frame record instead
//! of recursing — on a value stack, reference list and call stack the
//! seed keeps between deliveries, so a quiet poll allocates nothing.
//! Plain variables and constants are read where they live, and a payload
//! or parameter the code never writes is read in place, so walking a list
//! of port statistics copies only the elements it hands out — and reading
//! one field of an entry (`StatField`) copies nothing. Arithmetic runs on
//! three kinds of arm: typed int, float and compare arms for operands
//! whose tag lowering knows (a declared variable's is its type, which
//! every store, `recv` and [`SeedInstance::restore`] keep true: an int is
//! widened into a `float`, any other tag refused), the guarded `Binary`
//! arm for the rest, which tests ints, mixed numbers and bools inline,
//! and — whenever an arm's operands are not what it expects, or it cannot
//! finish (overflow, division by zero) — [`binary_op`], the compiler's
//! constant evaluator, whose semantics and error texts are the
//! language's. Each instruction carries its static abstract cost (1 per
//! source expression node, 2 per statement); only the `len/4 + 1`
//! list-scan charge is counted here. The cost is part of the simulator's
//! observable behaviour.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use farm_almanac::analysis::consteval::binary_op;
use farm_almanac::ast::{BinOp, CmpOp};
use farm_almanac::builtins::{Op, BUILTINS};
use farm_almanac::compile::CompiledMachine;
use farm_almanac::lower::{
    Bind, Body, Dst, FilterField, Kind, LoweredMachine, On, Pass, Src, Test,
};
use farm_almanac::value::{
    fit, refusal, value_has_type, ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject,
    Value,
};
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

/// A delivery that failed: why, and the ops it ran before it did —
/// charged to the switch CPU like a delivery's that succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failed {
    pub error: SeedError,
    pub ops: u64,
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeedSnapshot {
    pub machine: String,
    pub state: String,
    pub vars: Vec<(String, Value)>,
}

/// Maximum chained transitions per delivered event.
const MAX_TRANSIT_CHAIN: usize = 16;
/// Abstract ops one delivery may cost, its transit chain's included (a
/// run's `ops` plus what the runs before it left in `out`), checked at
/// every `while` iteration and before every user call. A constant, so a
/// program that runs on one switch runs on every other.
pub const HANDLER_BUDGET_OPS: u64 = 1 << 23;
/// Maximum user-function call depth.
const MAX_CALL_DEPTH: usize = 64;

/// The source of every [`SeedInstance::stamp`], shared by every soil in
/// the process: a soil restarted cold numbers its seeds from zero again,
/// so a count of its own could hand a new seed an old seed's stamp.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A stamp no instance has held before.
fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A live seed instance.
#[derive(Debug, Clone)]
pub struct SeedInstance {
    pub id: SeedId,
    /// Drawn afresh whenever what [`SeedInstance::snapshot`] holds may
    /// change: at creation and at every `handle` and `restore`.
    stamp: u64,
    def: Arc<CompiledMachine>,
    /// Id of the current state in `def.lowered.states`.
    state: u32,
    /// Machine variables by global slot (names live in `def.lowered`).
    vars: Vec<Value>,
    allocated: Resources,
    stats: SeedStats,
    scratch: Scratch,
}

/// The buffers a delivery runs in, kept between deliveries so that a
/// handler run allocates nothing of its own once they have grown.
#[derive(Debug, Clone, Default)]
struct Scratch {
    stack: Vec<Value>,
    refs: Vec<Ref>,
    calls: Vec<Frame>,
}

impl SeedInstance {
    /// Creates an instance in the machine's initial state with variables
    /// initialized from the compiled constants (externals included).
    /// The caller should deliver [`SeedEvent::Enter`] afterwards.
    pub fn new(id: SeedId, def: Arc<CompiledMachine>, allocated: Resources) -> SeedInstance {
        SeedInstance {
            id,
            stamp: fresh_stamp(),
            state: 0,
            vars: def.lowered.init.clone(),
            def,
            allocated,
            stats: SeedStats::default(),
            scratch: Scratch::default(),
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

    /// The change stamp: two reads return the same value only if no
    /// `handle` or `restore` ran in between, and no two instances ever
    /// drew the same one (a clone shares its original's until either
    /// changes). A capture taken at a stamp equals a fresh one for as
    /// long as the stamp holds.
    pub fn stamp(&self) -> u64 {
        self.stamp
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
        let mut snap = SeedSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// [`SeedInstance::snapshot`] written over `snap`, reusing the
    /// strings, the variable list and the list capacity it already owns:
    /// capturing the same seed again allocates only for what grew.
    pub fn snapshot_into(&self, snap: &mut SeedSnapshot) {
        snap.machine.clone_from(&self.def.machine.name);
        snap.state
            .clone_from(&self.def.lowered.states[self.state as usize].name);
        let names = &self.def.lowered.globals;
        snap.vars.truncate(names.len());
        snap.vars.reserve_exact(names.len() - snap.vars.len());
        for (i, (name, value)) in names.iter().zip(&self.vars).enumerate() {
            match snap.vars.get_mut(i) {
                Some((n, v)) => {
                    n.clone_from(name);
                    assign(v, value);
                }
                None => snap.vars.push((name.clone(), value.clone())),
            }
        }
    }

    /// Restores mutable state from a snapshot (migration target side).
    ///
    /// A snapshot variable this machine does not declare is accepted and
    /// dropped: no handler could read it, and a machine upgraded to a
    /// version without the variable must still take its old checkpoints.
    /// A declared variable missing from the snapshot keeps its value. A
    /// value is stored as any store is: an int into a `float` is widened.
    ///
    /// # Errors
    ///
    /// Fails, writing nothing, if the snapshot belongs to a different
    /// machine, names an unknown state or holds a value its variable's
    /// declared type refuses.
    pub fn restore(&mut self, snap: &SeedSnapshot) -> Result<(), SeedError> {
        let lowered = &self.def.lowered;
        if snap.machine != self.def.machine.name {
            return Err(SeedError(format!(
                "snapshot of `{}` cannot restore into `{}`",
                snap.machine, self.def.machine.name
            )));
        }
        let Some(state) = lowered.state_id(&snap.state) else {
            return Err(SeedError(format!("unknown state `{}`", snap.state)));
        };
        let mut vars = Vec::with_capacity(snap.vars.len());
        for (name, value) in &snap.vars {
            if let Some(slot) = lowered.global_slot(name) {
                let ty = lowered.types[slot];
                let value = fit(value.clone(), ty).map_err(|v| SeedError(refusal(&v, ty, name)))?;
                vars.push((slot, value));
            }
        }
        self.stamp = fresh_stamp();
        self.state = state;
        for (slot, value) in vars {
            self.vars[slot] = value;
        }
        Ok(())
    }

    /// Delivers an event, returning the effects and cost.
    ///
    /// # Errors
    ///
    /// Runtime errors: bad dynamic types, the call depth limit, a
    /// transition livelock, and a delivery whose ops, its whole transit
    /// chain's, pass [`HANDLER_BUDGET_OPS`]. A failed delivery's
    /// effects are dropped; the variables it wrote keep what it wrote,
    /// and [`Failed::ops`] what it ran.
    pub fn handle(&mut self, event: &SeedEvent, host: &dyn SeedHost) -> Result<Outcome, Failed> {
        let mut out = Outcome::default();
        self.stamp = fresh_stamp();
        self.stats.events_handled += 1;
        let payload = match event {
            SeedEvent::Trigger { payload: v, .. } | SeedEvent::Recv { value: v, .. } => v,
            _ => &UNIT,
        };
        let Scratch { stack, refs, calls } = std::mem::take(&mut self.scratch);
        let mut vm = Vm {
            code: &self.def.lowered,
            globals: &mut self.vars,
            state: &mut self.state,
            transitions: &mut self.stats.transitions,
            host,
            out: &mut out,
            payload,
            stack,
            refs,
            base: 0,
            ref_base: 0,
            calls,
        };
        let done = vm.dispatch(event, 0);
        self.scratch = Scratch {
            stack: vm.stack,
            refs: vm.refs,
            calls: vm.calls,
        };
        done.map_err(|error| Failed {
            error,
            ops: out.ops,
        })?;
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

/// How a handler run ended.
enum Flow {
    Normal,
    Transit(u32),
}

/// What a [`Src::Ref`] reads.
#[derive(Debug, Clone, Copy)]
enum Ref {
    /// A slot of the value stack: a caller's variable or temporary.
    Stack(usize),
    /// The delivered event's payload.
    Payload,
    /// An entry of the constant pool.
    Const(u32),
}

/// A caller waiting for a function to return.
#[derive(Debug, Clone)]
struct Frame {
    /// The function it runs, `None` for the handler.
    function: Option<u32>,
    pc: usize,
    base: usize,
    ref_base: usize,
    dst: Dst,
}

/// The payload of an event that carries none.
static UNIT: Value = Value::Unit;

/// One event delivery in progress, over code and seed state borrowed for
/// `'a`.
struct Vm<'a> {
    code: &'a LoweredMachine,
    globals: &'a mut [Value],
    state: &'a mut u32,
    transitions: &'a mut u64,
    host: &'a dyn SeedHost,
    out: &'a mut Outcome,
    payload: &'a Value,
    /// Frames of the running handler and the functions it is inside of.
    stack: Vec<Value>,
    /// What those frames read in place.
    refs: Vec<Ref>,
    /// Start of the innermost frame in `stack` and in `refs`.
    base: usize,
    ref_base: usize,
    calls: Vec<Frame>,
}

impl<'a> Vm<'a> {
    #[inline(always)]
    fn get(&self, src: Src) -> &Value {
        match src {
            Src::Local(i) | Src::Temp(i) => &self.stack[self.base + i as usize],
            Src::Global(i) => &self.globals[i as usize],
            Src::Const(i) => &self.code.consts[i as usize],
            Src::Ref(i) => match self.refs[self.ref_base + i as usize] {
                Ref::Stack(at) => &self.stack[at],
                Ref::Payload => self.payload,
                Ref::Const(i) => &self.code.consts[i as usize],
            },
        }
    }

    /// An owned value: a temporary is moved out, anything else copied.
    #[inline(always)]
    fn take(&mut self, src: Src) -> Value {
        match src {
            Src::Temp(i) => std::mem::replace(&mut self.stack[self.base + i as usize], Value::Unit),
            _ => copy(self.get(src)),
        }
    }

    #[inline(always)]
    fn set(&mut self, dst: Dst, v: Value) {
        store(
            match dst {
                Dst::Local(i) => &mut self.stack[self.base + i as usize],
                Dst::Global(i) => &mut self.globals[i as usize],
            },
            v,
        );
    }

    /// Where a callee reads an argument passed in place.
    fn reference(&self, src: Src) -> Ref {
        match src {
            Src::Local(i) | Src::Temp(i) => Ref::Stack(self.base + i as usize),
            Src::Ref(i) => self.refs[self.ref_base + i as usize],
            Src::Const(i) => Ref::Const(i),
            Src::Global(_) => unreachable!("lowering copies a global passed in place"),
        }
    }

    fn string(&self, i: u32) -> &'a str {
        &self.code.strings[i as usize]
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
        (self.base, self.ref_base) = (0, 0);
        self.stack.resize(handler.body.frame as usize, Value::Unit);
        match handler.bind {
            Bind::None => {}
            Bind::InPlace => self.refs.push(Ref::Payload),
            // A `recv float` takes an int widened (lowering copies its
            // payload); `accepts` checked the rest.
            Bind::Copy => {
                let v = self.payload.clone();
                self.stack[0] = match handler.on {
                    On::Recv { ty, .. } => fit(v, ty).unwrap_or_else(|v| v),
                    _ => v,
                };
            }
        }
        let flow = self.run(&handler.body);
        self.stack.clear();
        self.refs.clear();
        self.calls.clear();
        if let Flow::Transit(next) = flow? {
            self.out.transitioned = true;
            *self.transitions += 1;
            self.dispatch(&SeedEvent::Exit, chain + 1)?;
            *self.state = next;
            self.dispatch(&SeedEvent::Enter, chain + 1)?;
        }
        Ok(())
    }

    /// Runs a handler body, and the functions it calls, to its end, and
    /// charges `out` the static costs of what ran — a run that fails
    /// too, so the delivery's failure carries the ops it ran.
    fn run(&mut self, handler: &'a Body) -> Result<Flow, SeedError> {
        let mut ops = 0;
        let flow = self.steps(handler, &mut ops);
        self.out.ops += ops;
        flow
    }

    /// [`Vm::run`]'s loop, counting the static costs into `ops`.
    #[inline(always)]
    fn steps(&mut self, handler: &'a Body, ops: &mut u64) -> Result<Flow, SeedError> {
        let code = self.code;
        let (mut function, mut body) = (None, handler);
        let mut pc = 0;
        loop {
            let inst = &body.code[pc];
            pc += 1;
            *ops += u64::from(inst.cost);
            match &inst.kind {
                Kind::Nop => {}
                Kind::Move { dst, src } => {
                    let v = self.take(*src);
                    self.set(*dst, v);
                }
                Kind::Not { dst, a } => {
                    let v = match self.get(*a) {
                        Value::Bool(b) => Value::Bool(!b),
                        Value::Filter(f) => Value::Filter(f.clone().not()),
                        other => return Err(SeedError(format!("`not` on {}", other.type_name()))),
                    };
                    self.set(*dst, v);
                }
                Kind::Neg { dst, a } => {
                    let v = match self.get(*a) {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        other => {
                            return Err(SeedError(format!("negation of {}", other.type_name())))
                        }
                    };
                    self.set(*dst, v);
                }
                Kind::Binary { op, dst, a, b } => {
                    let (x, y) = (self.get(*a), self.get(*b));
                    let v = match guarded(*op, x, y) {
                        Some(v) => v,
                        None => generic(*op, x, y)?,
                    };
                    self.set(*dst, v);
                }
                Kind::Int { op, dst, a, b } => {
                    let (x, y) = (self.get(*a), self.get(*b));
                    let v = match (x, y) {
                        (Value::Int(x), Value::Int(y)) => int_arith(*op, *x, *y).map(Value::Int),
                        _ => None,
                    };
                    let v = match v {
                        Some(v) => v,
                        None => generic(*op, x, y)?,
                    };
                    self.set(*dst, v);
                }
                Kind::Float { op, dst, a, b } => {
                    let (x, y) = (self.get(*a), self.get(*b));
                    let v = match (number(x), number(y)) {
                        (Some(x), Some(y)) => float_arith(*op, x, y).map(Value::Float),
                        _ => None,
                    };
                    let v = match v {
                        Some(v) => v,
                        None => generic(*op, x, y)?,
                    };
                    self.set(*dst, v);
                }
                Kind::Cmp { c, dst, a, b } => {
                    let (x, y) = (self.get(*a), self.get(*b));
                    let v = match (number(x), number(y)) {
                        (Some(x), Some(y)) => Value::Bool(compare(*c, x, y)),
                        _ => generic(BinOp::Cmp(*c), x, y)?,
                    };
                    self.set(*dst, v);
                }
                Kind::ListLen { dst, a } => {
                    let Value::List(items) = self.get(*a) else {
                        return Err(bad_arguments(Op::ListLen));
                    };
                    let len = items.len() as i64;
                    self.set(*dst, Value::Int(len));
                }
                Kind::ListGet { dst, list, index } => {
                    let v = copy(list_get(self.get(*list), self.get(*index))?);
                    self.set(*dst, v);
                }
                Kind::ToFloat { dst, a } => {
                    let Some(x) = number(self.get(*a)) else {
                        return Err(bad_arguments(Op::ToFloat));
                    };
                    self.set(*dst, Value::Float(x));
                }
                Kind::StatField {
                    op,
                    dst,
                    list,
                    index,
                } => {
                    let v = stat_field(*op, self.get(*list), self.get(*index))?;
                    self.set(*dst, Value::Int(v));
                }
                Kind::Short { or, dst, a, end } => {
                    if let Value::Bool(x) = *self.get(*a) {
                        if x == *or {
                            self.set(*dst, Value::Bool(x));
                            pc = *end as usize;
                        }
                    }
                }
                Kind::Filter { field, dst, a } => {
                    let atom = filter_atom(*field, self.get(*a))?;
                    self.set(*dst, Value::Filter(FilterFormula::Atom(atom)));
                }
                Kind::Field {
                    dst,
                    base,
                    resource,
                    name,
                } => {
                    let v = match (self.get(*base), resource) {
                        (Value::Resources(r), Some(kind)) => Value::Float(r.get(*kind)),
                        (Value::Resources(_), None) => {
                            let field = self.string(*name);
                            return Err(SeedError(format!("unknown resource field {field}")));
                        }
                        (other, _) => {
                            return Err(SeedError(format!(
                                "no field `.{}` on {}",
                                self.string(*name),
                                other.type_name()
                            )))
                        }
                    };
                    self.set(*dst, v);
                }
                Kind::RuleField { src, name } => {
                    let field = self.string(*name);
                    rule_field(field, self.get(*src))?;
                }
                Kind::Rule { dst, pattern, act } => {
                    let pattern = match pattern.map(|s| self.take(s)) {
                        Some(Value::Filter(f)) => f,
                        Some(other) => return Err(rule_field("pattern", &other).unwrap_err()),
                        None => return Err(SeedError("Rule without .pattern".into())),
                    };
                    let action = match act.map(|s| self.take(s)) {
                        Some(Value::Action(a)) => a,
                        Some(other) => return Err(rule_field("act", &other).unwrap_err()),
                        None => return Err(SeedError("Rule without .act".into())),
                    };
                    self.set(*dst, Value::Rule(RuleValue { pattern, action }));
                }
                Kind::Call { op, dst, a, b } => {
                    let v = self.call_builtin(*op, *a, *b)?;
                    self.set(*dst, v);
                }
                Kind::Mutate {
                    op,
                    target,
                    arg,
                    name,
                } => {
                    let arg = arg.map(|s| self.take(s));
                    let slot = match *target {
                        Dst::Local(i) => &mut self.stack[self.base + i as usize],
                        Dst::Global(i) => &mut self.globals[i as usize],
                    };
                    let Value::List(items) = slot else {
                        let name = &code.strings[*name as usize];
                        return Err(SeedError(format!("`{name}` is not a list")));
                    };
                    self.out.ops += items.len() as u64 / 4 + 1;
                    mutate_list(*op, items, arg)?;
                }
                Kind::Depth => {
                    if self.calls.len() >= MAX_CALL_DEPTH {
                        return Err(SeedError("call depth exceeded".into()));
                    }
                    if *ops + self.out.ops > HANDLER_BUDGET_OPS {
                        return Err(over_budget());
                    }
                }
                Kind::CallFn { f, dst, args } => {
                    let callee = &code.functions[*f as usize];
                    let (base, ref_base) = (self.stack.len(), self.refs.len());
                    self.stack
                        .resize(base + callee.body.frame as usize, Value::Unit);
                    let mut slot = base;
                    for (pass, &src) in callee.params.iter().zip(&code.args[*args as usize..]) {
                        match pass {
                            Pass::Value => {
                                self.stack[slot] = self.take(src);
                                slot += 1;
                            }
                            Pass::InPlace => {
                                let r = self.reference(src);
                                self.refs.push(r);
                            }
                        }
                    }
                    self.calls.push(Frame {
                        function,
                        pc,
                        base: self.base,
                        ref_base: self.ref_base,
                        dst: *dst,
                    });
                    (self.base, self.ref_base) = (base, ref_base);
                    (function, body, pc) = (Some(*f), &callee.body, 0);
                }
                Kind::Jump { to } => pc = *to as usize,
                Kind::Branch { test, sense, to } => {
                    if self.test(*test, "if")? == *sense {
                        pc = *to as usize;
                    }
                }
                Kind::Loop { test, exit } => {
                    if !self.test(*test, "while")? {
                        pc = *exit as usize;
                        continue;
                    }
                    if *ops + self.out.ops > HANDLER_BUDGET_OPS {
                        return Err(over_budget());
                    }
                }
                Kind::Transit { state } => {
                    return Ok(Flow::Transit(*state));
                }
                Kind::Return { value } => {
                    let Some(caller) = self.calls.pop() else {
                        return Ok(Flow::Normal);
                    };
                    let v = value.map_or(Value::Unit, |s| self.take(s));
                    self.stack.truncate(self.base);
                    self.refs.truncate(self.ref_base);
                    (self.base, self.ref_base) = (caller.base, caller.ref_base);
                    function = caller.function;
                    body = function.map_or(handler, |f| &code.functions[f as usize].body);
                    pc = caller.pc;
                    self.set(caller.dst, v);
                }
                Kind::Send { value, to, at } => {
                    let to = match to {
                        None => Endpoint::Harvester,
                        Some(machine) => Endpoint::Machine {
                            name: self.string(*machine).to_string(),
                            at: match at {
                                None => None,
                                Some(at) => Some(switch_id(self.get(*at))?),
                            },
                        },
                    };
                    let value = self.take(*value);
                    self.out.effects.push(Effect::Send { to, value });
                }
                Kind::Fail { message } => return Err(SeedError(self.string(*message).into())),
                Kind::Fit {
                    dst: Some(dst),
                    src,
                    ty,
                    name,
                } => {
                    let v = fit(self.take(*src), *ty)
                        .map_err(|v| SeedError(refusal(&v, *ty, self.string(*name))))?;
                    self.set(*dst, v);
                }
                Kind::Fit {
                    dst: None,
                    src,
                    ty,
                    name,
                } => {
                    let v = self.get(*src);
                    if !value_has_type(v, *ty) {
                        return Err(SeedError(refusal(v, *ty, self.string(*name))));
                    }
                }
            }
        }
    }

    /// Whether the condition of an `if` or a `while` (`what`) holds.
    #[inline(always)]
    fn test(&self, test: Test, what: &str) -> Result<bool, SeedError> {
        let v = match test {
            Test::Bool(src) => self.get(src),
            Test::Cmp(c, a, b) => {
                let (x, y) = (self.get(a), self.get(b));
                return match (number(x), number(y)) {
                    (Some(x), Some(y)) => Ok(compare(c, x, y)),
                    _ => condition(&generic(BinOp::Cmp(c), x, y)?, what),
                };
            }
            Test::Len(c, a, list) => {
                let Value::List(items) = self.get(list) else {
                    return Err(bad_arguments(Op::ListLen));
                };
                let len = items.len() as i64;
                let x = self.get(a);
                return match number(x) {
                    Some(x) => Ok(compare(c, x, len as f64)),
                    None => condition(&generic(BinOp::Cmp(c), x, &Value::Int(len))?, what),
                };
            }
        };
        condition(v, what)
    }

    fn call_builtin(&mut self, op: Op, a: Src, b: Src) -> Result<Value, SeedError> {
        let bad = || bad_arguments(op);
        // Effects first: they own their operands.
        match op {
            Op::AddTcamRule => {
                let Value::Rule(r) = self.take(a) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::AddRule(r));
                return Ok(Value::Unit);
            }
            Op::RemoveTcamRule => {
                let Value::Filter(f) = self.take(a) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::RemoveRule(f));
                return Ok(Value::Unit);
            }
            Op::Exec | Op::ExecN => {
                let iterations = match (op, self.get(b)) {
                    (Op::Exec, _) => 1,
                    (_, Value::Int(n)) => u32::try_from((*n).max(0)).unwrap_or(u32::MAX),
                    _ => return Err(bad()),
                };
                let Value::Str(cmd) = self.take(a) else {
                    return Err(bad());
                };
                self.out.effects.push(Effect::Exec { cmd, iterations });
                return Ok(Value::Unit);
            }
            Op::ListContains => {
                let items = self.get(a).as_list().ok_or_else(bad)?;
                let (found, len) = (items.contains(self.get(b)), items.len());
                self.out.ops += len as u64 / 4 + 1;
                return Ok(Value::Bool(found));
            }
            Op::Pair => {
                let (first, second) = (self.take(a), self.take(b));
                return Ok(Value::Pair(Box::new(first), Box::new(second)));
            }
            Op::Rule => {
                return match (self.take(a), self.take(b)) {
                    (Value::Filter(pattern), Value::Action(action)) => {
                        Ok(Value::Rule(RuleValue { pattern, action }))
                    }
                    _ => Err(bad()),
                }
            }
            _ => {}
        }
        // Everything else only reads.
        let (x, y) = (self.get(a), self.get(b));
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
            Op::IsListEmpty => Ok(Value::Bool(x.as_list().ok_or_else(bad)?.is_empty())),
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
            // Lowered to arms of their own, or returned from above.
            Op::ListLen
            | Op::ListGet
            | Op::ToFloat
            | Op::ListPush
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
fn mutate_list(op: Op, items: &mut Vec<Value>, arg: Option<Value>) -> Result<(), SeedError> {
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
    Ok(())
}

/// `v.clone()`, inline for the scalars and port statistics a handler
/// copies most.
#[inline(always)]
fn copy(v: &Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(*b),
        Value::Int(i) => Value::Int(*i),
        Value::Float(f) => Value::Float(*f),
        Value::Stat(StatEntry {
            subject: StatSubject::Port(port),
            tx_bytes,
            rx_bytes,
            tx_packets,
            rx_packets,
        }) => Value::Stat(StatEntry {
            subject: StatSubject::Port(*port),
            tx_bytes: *tx_bytes,
            rx_bytes: *rx_bytes,
            tx_packets: *tx_packets,
            rx_packets: *rx_packets,
        }),
        _ => v.clone(),
    }
}

/// `*dst = src.clone()`, reusing the string or list `dst` holds when
/// `src` is one too.
fn assign(dst: &mut Value, src: &Value) {
    match (dst, src) {
        (Value::Str(d), Value::Str(s)) => d.clone_from(s),
        (Value::List(d), Value::List(s)) => {
            d.truncate(s.len());
            let kept = d.len();
            for (d, s) in d.iter_mut().zip(s) {
                assign(d, s);
            }
            d.extend(s[kept..].iter().cloned());
        }
        (dst, src) => *dst = src.clone(),
    }
}

/// `*slot = v`, without a destructor call when `slot` holds a scalar.
#[inline(always)]
fn store(slot: &mut Value, v: Value) {
    if matches!(
        slot,
        Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_)
    ) {
        std::mem::forget(std::mem::replace(slot, v));
    } else {
        *slot = v;
    }
}

/// `a op b` where the operands are ints, numbers or bools and the
/// operation finishes: the tag tests the guarded `Binary` arm makes
/// inline. `None` for everything else, which [`generic`] evaluates.
#[inline(always)]
fn guarded(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    match (op, a, b) {
        (BinOp::And, Value::Bool(x), Value::Bool(y)) => Some(Value::Bool(*x && *y)),
        (BinOp::Or, Value::Bool(x), Value::Bool(y)) => Some(Value::Bool(*x || *y)),
        (BinOp::And | BinOp::Or, ..) => None,
        // Numbers compare as floats, ints included.
        (BinOp::Cmp(c), ..) => match (number(a), number(b)) {
            (Some(x), Some(y)) => Some(Value::Bool(compare(c, x, y))),
            _ => None,
        },
        (_, Value::Int(x), Value::Int(y)) => int_arith(op, *x, *y).map(Value::Int),
        _ => match (number(a), number(b)) {
            (Some(x), Some(y)) => float_arith(op, x, y).map(Value::Float),
            _ => None,
        },
    }
}

/// `a op b` by the compiler's constant evaluator, whose semantics and
/// error texts are the language's: what every arm falls back to.
#[cold]
fn generic(op: BinOp, a: &Value, b: &Value) -> Result<Value, SeedError> {
    binary_op(op, a, b).map_err(SeedError)
}

/// The bool an `if` or `while` condition (`what`) evaluated to.
#[inline(always)]
fn condition(v: &Value, what: &str) -> Result<bool, SeedError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(not_a_bool(what)),
    }
}

#[cold]
fn not_a_bool(what: &str) -> SeedError {
    SeedError(format!("{what} condition is not a bool"))
}

/// The number a value holds, ints widened.
#[inline(always)]
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `x op y` for `+ - * /` on ints; `None` on overflow and division by
/// zero, which the generic path reports.
#[inline(always)]
fn int_arith(op: BinOp, x: i64, y: i64) -> Option<i64> {
    match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => x.checked_div(y),
        BinOp::Cmp(_) | BinOp::And | BinOp::Or => None,
    }
}

/// `x op y` for `+ - * /` on numbers; `None` on division by zero, which
/// the generic path reports.
#[inline(always)]
fn float_arith(op: BinOp, x: f64, y: f64) -> Option<f64> {
    match op {
        BinOp::Add => Some(x + y),
        BinOp::Sub => Some(x - y),
        BinOp::Mul => Some(x * y),
        BinOp::Div if y != 0.0 => Some(x / y),
        _ => None,
    }
}

/// `list_get(items, index)`, in place.
#[inline(always)]
fn list_get<'v>(items: &'v Value, index: &Value) -> Result<&'v Value, SeedError> {
    let (Value::List(items), Value::Int(i)) = (items, index) else {
        return Err(bad_arguments(Op::ListGet));
    };
    let at = usize::try_from(*i).map_err(|_| bad_arguments(Op::ListGet))?;
    items.get(at).ok_or_else(|| out_of_bounds(*i))
}

#[cold]
fn out_of_bounds(i: i64) -> SeedError {
    SeedError(format!("index {i} out of bounds"))
}

/// `op(list_get(items, index))` for a statistics accessor `op`, with the
/// errors of the two calls it fuses.
#[inline(always)]
fn stat_field(op: Op, items: &Value, index: &Value) -> Result<i64, SeedError> {
    let Value::Stat(s) = list_get(items, index)? else {
        return Err(bad_arguments(op));
    };
    Ok(match op {
        Op::StatPort => match s.subject {
            StatSubject::Port(p) => i64::from(p),
            StatSubject::Rule(_) => -1,
        },
        Op::StatTxBytes => s.tx_bytes as i64,
        Op::StatRxBytes => s.rx_bytes as i64,
        Op::StatTxPackets => s.tx_packets as i64,
        Op::StatRxPackets => s.rx_packets as i64,
        _ => return Err(bad_arguments(op)),
    })
}

/// The error of a runtime-library call given arguments it cannot take.
#[cold]
fn bad_arguments(op: Op) -> SeedError {
    let name = BUILTINS.iter().find(|b| b.op == op).map_or("?", |b| b.name);
    SeedError(format!("bad arguments to `{name}`"))
}

/// The error of a delivery past [`HANDLER_BUDGET_OPS`].
#[cold]
fn over_budget() -> SeedError {
    SeedError(format!(
        "handler budget of {HANDLER_BUDGET_OPS} ops exceeded"
    ))
}

fn compare(c: CmpOp, x: f64, y: f64) -> bool {
    match c {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Le => x <= y,
        CmpOp::Ge => x >= y,
        CmpOp::Lt => x < y,
        CmpOp::Gt => x > y,
    }
}

/// Checks a `Rule { … }` field: `.pattern` takes a filter, `.act` an
/// action, and there is no other field.
fn rule_field(field: &str, v: &Value) -> Result<(), SeedError> {
    match (field, v) {
        ("pattern", Value::Filter(_)) | ("act", Value::Action(_)) => Ok(()),
        _ => Err(SeedError(format!(
            "bad Rule field .{field} = {}",
            v.type_name()
        ))),
    }
}

/// The switch a `send … to M@e` names.
fn switch_id(v: &Value) -> Result<SwitchId, SeedError> {
    let id = v
        .as_int()
        .ok_or_else(|| SeedError("@destination is not an integer".into()))?;
    u32::try_from(id)
        .map(SwitchId)
        .map_err(|_| SeedError(format!("@destination {id} is not a switch id")))
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
    fn a_capture_over_an_old_snapshot_equals_a_fresh_one() {
        let mut seed = hh_instance();
        let host = FixedHost::default();
        let poll = |tx: &[u64]| SeedEvent::Trigger {
            name: "pollStats".into(),
            payload: stats_payload(
                tx.iter()
                    .enumerate()
                    .map(|(p, &b)| stat(p as u16, b))
                    .collect(),
            ),
        };
        let retune = SeedEvent::Recv {
            from_machine: None,
            value: Value::Int(10),
        };
        // Over another machine's snapshot with more variables, then over
        // the seed's own while its lists grow, shrink and change type.
        let mut snap = SeedSnapshot {
            machine: "SomethingLonger".into(),
            state: "elsewhere".into(),
            vars: vec![("z".into(), Value::Str("old".into())); 5],
        };
        for event in [retune, poll(&[50, 5, 70]), poll(&[90]), poll(&[1, 2])] {
            seed.handle(&event, &host).unwrap();
            seed.snapshot_into(&mut snap);
            assert_eq!(snap, seed.snapshot());
        }
        let hitters = |s: &SeedSnapshot| s.vars.iter().find(|(n, _)| n == "hitters").cloned();
        assert_eq!(hitters(&snap).map(|(_, v)| v), Some(Value::List(vec![])));
    }

    #[test]
    fn every_change_draws_a_stamp_no_instance_held_before() {
        let host = FixedHost::default();
        let retune = SeedEvent::Recv {
            from_machine: None,
            value: Value::Int(10),
        };
        let (mut a, b) = (hh_instance(), hh_instance());
        let mut seen = vec![a.stamp(), b.stamp()];
        a.handle(&retune, &host).unwrap();
        seen.push(a.stamp());
        // Every delivery draws one, whether a handler takes it or not.
        let ignored = SeedEvent::Recv {
            from_machine: None,
            value: Value::Str("x".into()),
        };
        a.handle(&ignored, &host).unwrap();
        seen.push(a.stamp());
        a.restore(&b.snapshot()).unwrap();
        seen.push(a.stamp());
        let unique: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(unique.len(), seen.len(), "{seen:?}");
        // Reading and reallocating change nothing a snapshot holds.
        let before = a.stamp();
        let _ = a.snapshot();
        a.set_allocated(Resources::ZERO);
        assert_eq!(a.stamp(), before);
        // A refused restore writes nothing.
        let foreign = SeedSnapshot {
            machine: "Other".into(),
            ..SeedSnapshot::default()
        };
        assert!(a.restore(&foreign).is_err());
        assert_eq!(a.stamp(), before);
    }

    /// A restore with no event after it: the state changed, so the stamp
    /// must too, or a holder of a capture taken at the old stamp keeps
    /// the state from before the restore.
    #[test]
    fn a_restore_moves_the_stamp() {
        let host = FixedHost::default();
        let mut seed = hh_instance();
        let old = seed.snapshot();
        seed.handle(
            &SeedEvent::Recv {
                from_machine: None,
                value: Value::Int(10),
            },
            &host,
        )
        .unwrap();
        let (captured, at) = (seed.snapshot(), seed.stamp());
        seed.restore(&old).unwrap();
        assert_ne!(seed.snapshot(), captured);
        assert_ne!(seed.stamp(), at);
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

    fn typed_instance() -> SeedInstance {
        let src = r#"
            machine R {
              place any;
              long n = 1;
              float f = 0.5;
              state a { }
              state b { }
            }
        "#;
        SeedInstance::new(SeedId(8), compile(src, "R"), Resources::ZERO)
    }

    #[test]
    fn a_refused_restore_leaves_state_and_variables_unchanged() {
        let mut seed = typed_instance();
        let (before, stamp) = (seed.snapshot(), seed.stamp());
        // `f` comes first and fits; `n` does not, so nothing is written.
        let snap = SeedSnapshot {
            machine: "R".into(),
            state: "b".into(),
            vars: vec![
                ("f".into(), Value::Float(9.0)),
                ("n".into(), Value::Str("x".into())),
            ],
        };
        let err = seed.restore(&snap).unwrap_err();
        assert_eq!(err.0, "cannot store string in long `n`");
        assert_eq!(seed.snapshot(), before);
        assert_eq!(seed.state(), "a");
        assert_eq!(seed.stamp(), stamp);
    }

    #[test]
    fn an_int_restores_into_a_float_as_a_float() {
        let mut seed = typed_instance();
        let mut snap = seed.snapshot();
        snap.vars = vec![("f".into(), Value::Int(2)), ("n".into(), Value::Int(3))];
        seed.restore(&snap).unwrap();
        assert_eq!(seed.var("f"), Some(&Value::Float(2.0)));
        assert_eq!(seed.var("n"), Some(&Value::Int(3)));
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
            .unwrap_err()
            .error;
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
        let failed = seed
            .handle(&SeedEvent::Enter, &FixedHost::default())
            .unwrap_err();
        assert_eq!(failed.error.0, "handler budget of 8388608 ops exceeded");
        // What ran before the check stopped it: the whole budget.
        assert!(failed.ops > HANDLER_BUDGET_OPS, "{}", failed.ops);
        assert!(failed.ops < HANDLER_BUDGET_OPS + 64, "{}", failed.ops);
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
