//! Lowering: a checked machine → the flat register code the seed VM runs.
//!
//! The seed interpreter in `farm-soil` runs one handler per poll of every
//! seed on every switch, so nothing on that path may look a name up or
//! walk a tree. This pass runs once per
//! [`crate::compile::CompiledMachine`] and turns every handler and
//! auxiliary function into one [`Body`]: a `Vec` of [`Inst`]s over
//! operands that are frame slots, global slots, temporaries and a
//! constant pool ([`Src`], [`Dst`]).
//!
//! * Machine variables → dense global slots (the name table, sorted so
//!   snapshots need no sort, stays here in the def).
//! * Handler/function parameters, block-scoped locals and temporaries →
//!   frame slots with a statically known frame size. A declaration gets
//!   a slot for the life of its block and re-initialises it every time it
//!   runs, so shadowing and fresh loop-body locals fall out of scoping.
//! * A bound payload the handler never writes, and a parameter the
//!   function never writes, is read in place ([`Src::Ref`]) instead of
//!   being copied into the frame.
//! * `if`, `while`, `and` and `or` → jumps; states → `u32` ids with a
//!   per-state handler table; user functions → indices; runtime-library
//!   calls → [`Op`] tags; literals → the constant pool.
//! * The list and number builtins a per-port scan runs on every entry get
//!   arms of their own ([`Kind::ListLen`], [`Kind::ListGet`],
//!   [`Kind::ToFloat`]), and `stat_<field>(list_get(l, i))` is one
//!   [`Kind::StatField`] that reads the field where the entry lies.
//! * Arithmetic and comparisons whose operands lowering proves are ints
//!   or floats → the typed [`Kind::Int`], [`Kind::Float`] and
//!   [`Kind::Cmp`]. A proof is about the *runtime tag*, not the declared
//!   type (`float x = 5` stores an int, `recv float` accepts one, and a
//!   restored snapshot may put anything in a machine variable): literals,
//!   builtins whose result tag is fixed, typed arithmetic over proven
//!   operands, and locals whose every store is proven. A body is lowered
//!   again, with the local unproven, when a store disproves one. Machine
//!   variables, list elements and payloads are never proven; they go to
//!   [`Kind::Binary`], which the VM runs with inline number checks before
//!   the generic path. The VM checks the tag on the typed arms too, and
//!   takes the generic path when it is not what lowering proved.
//!
//! Each instruction carries its static abstract cost ([`Inst::cost`]):
//! 1 per source expression node and 2 per statement, attached to an
//! instruction that runs exactly when that node or statement is
//! evaluated. The cost model is part of the simulator's observable
//! behaviour; only the `len/4 + 1` list-scan charge is left to run time.
//!
//! Evaluation order is the source order of an eager evaluator: an operand
//! that is a plain variable is read where it lives, unless an operand
//! evaluated after it may write variables (a user-function call or a
//! list-mutating builtin) — then it is copied first.
//!
//! Lowering is total. The type checker accepts a few names the runtime
//! never binds (state-level variables, trigger variables read as values);
//! those, and anything an unchecked program gets wrong, lower to
//! [`Kind::Fail`] instructions carrying the runtime error they raise when
//! — and only when — they run.

use std::collections::BTreeMap;
use std::ptr;

use farm_netsim::switch::ResourceKind;
use farm_netsim::types::{FilterAtom, FilterFormula, PortSel};

use crate::analysis::ConstEnv;
use crate::ast::{
    self, Action, BinOp, CmpOp, DeclKind, EventDecl, FilterExpr, FunDecl, Literal, Machine,
    MsgEndpoint, Trigger, Type, UnOp, VarDecl,
};
use crate::builtins::{builtin, Op};
use crate::value::{ActionValue, Value};

/// A machine in executable form. Immutable and shared (inside the
/// `Arc<CompiledMachine>`) by every seed of the machine.
#[derive(Debug, Clone)]
pub struct LoweredMachine {
    /// Names of the machine variables, sorted; the index is the global slot.
    pub globals: Vec<String>,
    /// Initial value of each global slot (deployment constants, else the
    /// type's default).
    pub init: Vec<Value>,
    /// States in declaration order; the index is the state id.
    pub states: Vec<State>,
    /// Every event handler of the machine, referenced by [`State::handlers`].
    pub handlers: Vec<Handler>,
    /// Auxiliary functions, referenced by [`Kind::CallFn`].
    pub functions: Vec<Function>,
    /// Constant pool ([`Src::Const`]); entry 0 is unit.
    pub consts: Vec<Value>,
    /// Names and messages instructions refer to by index.
    pub strings: Vec<String>,
    /// Argument lists of [`Kind::CallFn`], back to back.
    pub args: Vec<Src>,
}

impl LoweredMachine {
    /// Global slot of a machine variable.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        global_slot(&self.globals, name)
    }

    /// Id of a state.
    pub fn state_id(&self, name: &str) -> Option<u32> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as u32)
    }
}

/// One state: its name and the handlers that can fire in it.
#[derive(Debug, Clone)]
pub struct State {
    pub name: String,
    /// Indices into [`LoweredMachine::handlers`], in matching order: the
    /// state's own handlers, then the machine-level ones (§ III-A b: state
    /// handlers override global definitions of the same shape).
    pub handlers: Vec<u32>,
}

/// What a handler reacts to.
#[derive(Debug, Clone, PartialEq)]
pub enum On {
    Enter,
    Exit,
    Realloc,
    /// The named trigger variable fired.
    Trigger(String),
    /// A message of type `ty` arrived from the harvester (`from` is
    /// `None`) or from the named machine.
    Recv {
        ty: Type,
        from: Option<String>,
    },
}

/// How a handler sees its event's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bind {
    /// Not bound.
    None,
    /// Never written: read in place as reference 0.
    InPlace,
    /// Written by the handler: copied into frame slot 0.
    Copy,
}

/// An event handler.
#[derive(Debug, Clone)]
pub struct Handler {
    pub on: On,
    pub bind: Bind,
    pub body: Body,
}

/// How an argument reaches a function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Moved or copied into the callee's next parameter slot.
    Value,
    /// Never written by the function: read where the caller holds it,
    /// as the callee's next reference.
    InPlace,
}

/// An auxiliary function.
#[derive(Debug, Clone)]
pub struct Function {
    /// One entry per parameter, in order. Frame slots go to the
    /// [`Pass::Value`] ones from slot 0, references to the
    /// [`Pass::InPlace`] ones from reference 0.
    pub params: Vec<Pass>,
    pub body: Body,
}

/// The code of one handler or function.
#[derive(Debug, Clone)]
pub struct Body {
    /// Frame slots the code needs: parameters, locals, temporaries.
    pub frame: u32,
    /// Ends with [`Kind::Return`].
    pub code: Vec<Inst>,
}

/// Where an instruction reads a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Frame slot of a variable.
    Local(u32),
    /// Frame slot of an intermediate result, read by exactly one
    /// instruction, which may move it out.
    Temp(u32),
    /// Slot of the seed's machine variables.
    Global(u32),
    /// Entry of [`LoweredMachine::consts`].
    Const(u32),
    /// The running frame's `i`-th value read in place: the handler's
    /// payload or a [`Pass::InPlace`] parameter.
    Ref(u32),
}

/// Where an instruction writes its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// Frame slot.
    Local(u32),
    /// Slot of the seed's machine variables.
    Global(u32),
}

/// One instruction and the abstract cost charged when it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub cost: u32,
    pub kind: Kind,
}

/// Which header field a filter atom constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterField {
    SrcIp,
    DstIp,
    SrcPort,
    DstPort,
    Proto,
    IfPort,
}

/// What an instruction does. Jump targets are indices into the body's
/// code; names and messages index [`LoweredMachine::strings`].
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Nothing; carries the cost of a statement that computes nothing.
    Nop,
    /// `dst = src`: moves a temporary, copies anything else.
    Move {
        dst: Dst,
        src: Src,
    },
    Not {
        dst: Dst,
        a: Src,
    },
    Neg {
        dst: Dst,
        a: Src,
    },
    /// `a op b`, any operands: and/or, and arithmetic or comparison on
    /// an operand whose tag lowering could not prove.
    Binary {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a op b` for `+ - * /` on operands lowering proved are ints.
    Int {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a op b` for `+ - * /` on operands lowering proved are numbers,
    /// at least one of them a float.
    Float {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a c b` on operands lowering proved are numbers.
    Cmp {
        c: CmpOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `list_len(a)`.
    ListLen {
        dst: Dst,
        a: Src,
    },
    /// `list_get(list, index)`.
    ListGet {
        dst: Dst,
        list: Src,
        index: Src,
    },
    /// `to_float(a)`.
    ToFloat {
        dst: Dst,
        a: Src,
    },
    /// `op(list_get(list, index))` for a statistics accessor `op`
    /// (`stat_port`, `stat_tx_bytes`, …): one field of the entry, read
    /// where the entry lies.
    StatField {
        op: Op,
        dst: Dst,
        list: Src,
        index: Src,
    },
    /// `a` is the left side of `or` (`or`) or `and`: when it is the bool
    /// that decides the result, stores it and goes to `end`.
    Short {
        or: bool,
        dst: Dst,
        a: Src,
        end: u32,
    },
    Filter {
        field: FilterField,
        dst: Dst,
        a: Src,
    },
    /// `base.field`; `resource` is the field's meaning on a `res()` value.
    Field {
        dst: Dst,
        base: Src,
        resource: Option<ResourceKind>,
        name: u32,
    },
    /// Checks one field of a `Rule { … }` literal right after it is
    /// evaluated.
    RuleField {
        src: Src,
        name: u32,
    },
    /// Builds a `Rule { … }` from its checked fields (the last of each
    /// name; `None` when the literal lacks it).
    Rule {
        dst: Dst,
        pattern: Option<Src>,
        act: Option<Src>,
    },
    /// Runtime-library call with at most two arguments; a missing one is
    /// `Src::Const(0)` (unit).
    Call {
        op: Op,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// A list builtin that mutates `target` in place.
    Mutate {
        op: Op,
        target: Dst,
        arg: Option<Src>,
        name: u32,
    },
    /// Fails when no further call fits on the call stack; runs before a
    /// call's arguments are evaluated.
    Depth,
    /// Calls [`LoweredMachine::functions`]`[f]` with the arguments at
    /// `args..` in [`LoweredMachine::args`].
    CallFn {
        f: u32,
        dst: Dst,
        args: u32,
    },
    Jump {
        to: u32,
    },
    /// Part of an `if`: goes to `to` when `test` comes out as `sense`.
    Branch {
        test: Test,
        sense: bool,
        to: u32,
    },
    /// `while`: goes to `exit` unless `test` holds, else counts one
    /// iteration in frame slot `counter` (zeroed on loop entry) and fails
    /// past the iteration limit.
    Loop {
        test: Test,
        exit: u32,
        counter: u32,
    },
    /// Ends the handler and enters state `state`.
    Transit {
        state: u32,
    },
    /// Ends the handler, or returns `value` (unit if `None`) to the caller.
    Return {
        value: Option<Src>,
    },
    /// `send value to harvester` (`to` is `None`) or to machine `to`,
    /// at switch `at` if given.
    Send {
        value: Src,
        to: Option<u32>,
        at: Option<Src>,
    },
    /// Raises this runtime error.
    Fail {
        message: u32,
    },
}

/// The condition of an `if` or a `while`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Test {
    /// A value that must be a bool.
    Bool(Src),
    /// A comparison, which is the condition's own node.
    Cmp(CmpOp, Src, Src),
    /// `a c list_len(list)`: a comparison with the length of a list, the
    /// head of every scan over a poll's entries.
    Len(CmpOp, Src, Src),
}

/// Lowers `machine` with the auxiliary `functions` visible to it;
/// `consts` supplies the deployment-time initial values.
pub(crate) fn lower(machine: &Machine, functions: &[FunDecl], consts: &ConstEnv) -> LoweredMachine {
    let init: BTreeMap<&str, Value> = machine
        .vars
        .iter()
        .filter(|v| v.trigger().is_none())
        .map(|v| {
            let value = consts
                .get(&v.name)
                .cloned()
                .unwrap_or_else(|| default_value(v));
            (v.name.as_str(), value)
        })
        .collect();
    let globals: Vec<String> = init.keys().map(|n| n.to_string()).collect();
    let mut cx = Context {
        globals: &globals,
        machine,
        functions,
        passes: Vec::new(),
    };
    cx.passes = functions
        .iter()
        .map(|f| {
            f.params
                .iter()
                .map(|(_, p)| {
                    if cx.writes(&f.body, p) {
                        Pass::Value
                    } else {
                        Pass::InPlace
                    }
                })
                .collect()
        })
        .collect();
    let mut pools = Pools {
        consts: vec![Value::Unit],
        strings: Vec::new(),
        args: Vec::new(),
    };

    let mut handlers = Vec::new();
    let mut add = |ev: &EventDecl| {
        handlers.push(cx.handler(ev, &mut pools));
        handlers.len() as u32 - 1
    };
    let shared: Vec<u32> = machine.events.iter().map(&mut add).collect();
    let states = machine
        .states
        .iter()
        .map(|s| State {
            name: s.name.clone(),
            handlers: s
                .events
                .iter()
                .map(&mut add)
                .chain(shared.clone())
                .collect(),
        })
        .collect();
    let functions = functions
        .iter()
        .zip(&cx.passes)
        .map(|(f, params)| cx.function(f, params, &mut pools))
        .collect();
    LoweredMachine {
        init: init.into_values().collect(),
        globals,
        states,
        handlers,
        functions,
        consts: pools.consts,
        strings: pools.strings,
        args: pools.args,
    }
}

/// Slot of `name` in the sorted table of machine-variable names.
fn global_slot(globals: &[String], name: &str) -> Option<usize> {
    globals.binary_search_by(|g| g.as_str().cmp(name)).ok()
}

/// Value of a variable declared without (constant) initialiser.
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

/// What names resolve against, machine-wide.
struct Context<'a> {
    globals: &'a [String],
    machine: &'a Machine,
    functions: &'a [FunDecl],
    /// How each function takes each parameter.
    passes: Vec<Vec<Pass>>,
}

/// The machine-wide tables instructions index into.
struct Pools {
    consts: Vec<Value>,
    strings: Vec<String>,
    args: Vec<Src>,
}

impl<'a> Context<'a> {
    fn handler(&self, ev: &'a EventDecl, pools: &mut Pools) -> Handler {
        let (on, name) = match &ev.trigger {
            Trigger::Enter => (On::Enter, None),
            Trigger::Exit => (On::Exit, None),
            Trigger::Realloc => (On::Realloc, None),
            Trigger::Var { name, bind } => (On::Trigger(name.clone()), bind.as_deref()),
            Trigger::Recv { ty, bind, from } => {
                let from = match from {
                    MsgEndpoint::Harvester => None,
                    MsgEndpoint::Machine { name, .. } => Some(name.clone()),
                };
                (On::Recv { ty: *ty, from }, Some(bind.as_str()))
            }
        };
        let (bind, params) = match name {
            None => (Bind::None, Vec::new()),
            Some(name) if self.writes(&ev.actions, name) => (Bind::Copy, vec![(name, Pass::Value)]),
            Some(name) => (Bind::InPlace, vec![(name, Pass::InPlace)]),
        };
        Handler {
            on,
            bind,
            body: self.body(pools, false, &params, &ev.actions),
        }
    }

    fn function(&self, f: &'a FunDecl, params: &[Pass], pools: &mut Pools) -> Function {
        let names: Vec<(&str, Pass)> = f
            .params
            .iter()
            .map(|(_, n)| n.as_str())
            .zip(params.iter().copied())
            .collect();
        Function {
            params: params.to_vec(),
            body: self.body(pools, true, &names, &f.body),
        }
    }

    /// Lowers one handler or function body whose parameters (the payload
    /// of a handler) are `params`. A local whose tag lowering proved from
    /// its declaration but a later store disproves is unproven, and the
    /// body lowered again: the code emitted before the store read it as
    /// proven.
    fn body(
        &self,
        pools: &mut Pools,
        in_function: bool,
        params: &[(&str, Pass)],
        actions: &[Action],
    ) -> Body {
        let mut unproven = Vec::new();
        loop {
            let mark = (pools.consts.len(), pools.strings.len(), pools.args.len());
            let mut em = Emitter::new(self, pools, in_function, &unproven);
            for &(name, pass) in params {
                match pass {
                    Pass::Value => em.declare_slot(name),
                    Pass::InPlace => em.declare_ref(name),
                }
            }
            let (body, disproved) = em.finish(actions);
            if disproved.is_empty() {
                return body;
            }
            pools.consts.truncate(mark.0);
            pools.strings.truncate(mark.1);
            pools.args.truncate(mark.2);
            unproven.extend(disproved);
        }
    }

    fn is_function(&self, name: &str) -> bool {
        self.functions.iter().any(|f| f.name == name)
    }

    /// A call to `name` with these arguments mutates the variable it names
    /// first (user functions come before builtins of the same name).
    fn mutated<'e>(&self, name: &str, args: &'e [ast::Expr]) -> Option<&'e str> {
        let Some(ast::Expr::Var(var, _)) = args.first() else {
            return None;
        };
        let mutates = !self.is_function(name) && builtin(name).is_some_and(|b| b.mutates_first_arg);
        mutates.then_some(var)
    }

    /// Whether `actions` may assign or mutate a variable called `name`
    /// (any variable of that name, shadowed or not).
    fn writes(&self, actions: &[Action], name: &str) -> bool {
        let expr = |e: &ast::Expr| {
            any_node(e, &|n| match n {
                ast::Expr::Call { name: f, args, .. } => {
                    matches!(args.first(), Some(ast::Expr::Var(v, _)) if v == name)
                        && self.mutated(f, args).is_some()
                }
                _ => false,
            })
        };
        actions.iter().any(|a| match a {
            Action::Local(v) => v.init.as_ref().is_some_and(expr),
            Action::Assign {
                target,
                field,
                value,
                ..
            } => (target == name && field.is_none()) || expr(value),
            Action::Transit { .. } => false,
            Action::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => expr(cond) || self.writes(then_branch, name) || self.writes(else_branch, name),
            Action::While { cond, body, .. } => expr(cond) || self.writes(body, name),
            Action::Return { value, .. } => value.as_ref().is_some_and(expr),
            Action::Send { value, to, .. } => {
                expr(value) || matches!(to, MsgEndpoint::Machine { at: Some(at), .. } if expr(at))
            }
            Action::ExprStmt { expr: e, .. } => expr(e),
        })
    }

    /// Whether evaluating `e` may write a variable: it calls a user
    /// function or a list-mutating builtin.
    fn may_write(&self, e: &ast::Expr) -> bool {
        any_node(e, &|n| match n {
            ast::Expr::Call { name, .. } => {
                self.is_function(name) || builtin(name).is_some_and(|b| b.mutates_first_arg)
            }
            _ => false,
        })
    }
}

/// Whether `pred` holds for `e` or any expression inside it.
fn any_node(e: &ast::Expr, pred: &dyn Fn(&ast::Expr) -> bool) -> bool {
    pred(e)
        || match e {
            ast::Expr::Lit(..) | ast::Expr::Var(..) => false,
            ast::Expr::Filter(f, _) => match f {
                FilterExpr::SrcIp(x)
                | FilterExpr::DstIp(x)
                | FilterExpr::SrcPort(x)
                | FilterExpr::DstPort(x)
                | FilterExpr::Proto(x)
                | FilterExpr::IfPort(x) => any_node(x, pred),
                FilterExpr::IfPortAny => false,
            },
            ast::Expr::Unary(_, x, _) | ast::Expr::Field(x, _, _) => any_node(x, pred),
            ast::Expr::Binary(_, a, b, _) => any_node(a, pred) || any_node(b, pred),
            ast::Expr::Call { args, .. } => args.iter().any(|a| any_node(a, pred)),
            ast::Expr::StructLit { fields, .. } => fields.iter().any(|(_, x)| any_node(x, pred)),
        }
}

/// What lowering proved about a value's runtime tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Int,
    Float,
    Bool,
    /// Not proven: anything, including a number or a bool.
    Unknown,
}

impl Tag {
    fn of(v: &Value) -> Tag {
        match v {
            Value::Int(_) => Tag::Int,
            Value::Float(_) => Tag::Float,
            Value::Bool(_) => Tag::Bool,
            _ => Tag::Unknown,
        }
    }

    fn number(self) -> bool {
        matches!(self, Tag::Int | Tag::Float)
    }

    /// The tag of a runtime-library call's result, where the library
    /// always returns the same one (or fails).
    fn of_result(op: Op) -> Tag {
        match op {
            Op::ListLen
            | Op::Now
            | Op::ToInt
            | Op::StatPort
            | Op::StatTxBytes
            | Op::StatRxBytes
            | Op::StatTxPackets
            | Op::StatRxPackets
            | Op::PktSrcPort
            | Op::PktDstPort
            | Op::PktLen => Tag::Int,
            Op::Min | Op::Max | Op::Abs | Op::Log2 | Op::ToFloat => Tag::Float,
            Op::IsListEmpty
            | Op::ListContains
            | Op::PktIsSyn
            | Op::PktIsFin
            | Op::PktIsAck
            | Op::FilterMatches
            | Op::StrContains => Tag::Bool,
            _ => Tag::Unknown,
        }
    }
}

/// The statistics accessors a [`Kind::StatField`] reads.
fn stat_field(op: Op) -> bool {
    matches!(
        op,
        Op::StatPort | Op::StatTxBytes | Op::StatRxBytes | Op::StatTxPackets | Op::StatRxPackets
    )
}

/// Code generation for one handler or function body.
struct Emitter<'a, 'p> {
    cx: &'a Context<'a>,
    pools: &'p mut Pools,
    in_function: bool,
    /// Visible variables, innermost last: a frame slot or a reference,
    /// and the declaration of a block-scoped local.
    locals: Vec<(&'a str, Src, Option<&'a VarDecl>)>,
    /// References handed out so far.
    refs: u32,
    /// Next free frame slot; slots above it are free.
    next: u32,
    /// Frame slots needed so far.
    frame: u32,
    /// Proven tag of each frame slot: a local's for its life, a
    /// temporary's from the instruction that writes it.
    tags: Vec<Tag>,
    /// Locals an earlier lowering of this body found a store that does
    /// not hold their tag: never proven.
    unproven: &'p [&'a VarDecl],
    /// Locals this lowering found such a store for.
    disproved: Vec<&'a VarDecl>,
    code: Vec<Inst>,
    /// Cost of nodes evaluated since the last instruction was emitted; the
    /// next instruction carries it.
    pending: u32,
}

impl<'a, 'p> Emitter<'a, 'p> {
    fn new(
        cx: &'a Context<'a>,
        pools: &'p mut Pools,
        in_function: bool,
        unproven: &'p [&'a VarDecl],
    ) -> Emitter<'a, 'p> {
        Emitter {
            cx,
            pools,
            in_function,
            locals: Vec::new(),
            refs: 0,
            next: 0,
            frame: 0,
            tags: Vec::new(),
            unproven,
            disproved: Vec::new(),
            code: Vec::new(),
            pending: 0,
        }
    }

    /// The body, and the locals whose proof a store disproved.
    fn finish(mut self, actions: &'a [Action]) -> (Body, Vec<&'a VarDecl>) {
        self.block(actions);
        self.emit(Kind::Return { value: None });
        let body = Body {
            frame: self.frame,
            code: self.code,
        };
        (body, self.disproved)
    }

    fn declare_slot(&mut self, name: &'a str) {
        let slot = self.slot();
        self.locals.push((name, Src::Local(slot), None));
    }

    fn declare_ref(&mut self, name: &'a str) {
        self.locals.push((name, Src::Ref(self.refs), None));
        self.refs += 1;
    }

    /// A free frame slot, proven nothing; it stays taken until `next` is
    /// reset below it.
    fn slot(&mut self) -> u32 {
        let slot = self.next;
        self.next += 1;
        self.frame = self.frame.max(self.next);
        self.tags
            .resize(self.tags.len().max(self.next as usize), Tag::Unknown);
        self.tags[slot as usize] = Tag::Unknown;
        slot
    }

    /// What lowering proved about the value `src` reads.
    fn tag(&self, src: Src) -> Tag {
        match src {
            Src::Const(i) => Tag::of(&self.pools.consts[i as usize]),
            Src::Local(i) | Src::Temp(i) => self.tags[i as usize],
            Src::Global(_) | Src::Ref(_) => Tag::Unknown,
        }
    }

    fn emit(&mut self, kind: Kind) -> usize {
        let cost = std::mem::take(&mut self.pending);
        self.code.push(Inst { cost, kind });
        self.code.len() - 1
    }

    /// Position of the next instruction as a jump target. Cost still
    /// pending belongs to the path falling through to it, so it is
    /// charged before.
    fn label(&mut self) -> u32 {
        if self.pending > 0 {
            self.emit(Kind::Nop);
        }
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at].kind {
            Kind::Jump { to }
            | Kind::Branch { to, .. }
            | Kind::Loop { exit: to, .. }
            | Kind::Short { end: to, .. } => *to = target,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    fn patch_all(&mut self, jumps: Vec<usize>, target: u32) {
        for at in jumps {
            self.patch(at, target);
        }
    }

    fn konst(&mut self, v: Value) -> Src {
        self.pools.consts.push(v);
        Src::Const(self.pools.consts.len() as u32 - 1)
    }

    fn string(&mut self, s: String) -> u32 {
        let at = match self.pools.strings.iter().position(|x| *x == s) {
            Some(i) => i,
            None => {
                self.pools.strings.push(s);
                self.pools.strings.len() - 1
            }
        };
        at as u32
    }

    fn fail(&mut self, message: String) -> Tag {
        let message = self.string(message);
        self.emit(Kind::Fail { message });
        Tag::Unknown
    }

    /// Locals shadow machine variables, inner blocks shadow outer ones.
    fn resolve(&self, name: &str) -> Option<Src> {
        if let Some((_, src, _)) = self.locals.iter().rev().find(|(n, ..)| *n == name) {
            return Some(*src);
        }
        global_slot(self.cx.globals, name).map(|i| Src::Global(i as u32))
    }

    /// Where a write to `name` goes. Payloads and parameters the body
    /// writes live in slots, so a written name never resolves to a
    /// reference.
    fn resolve_dst(&self, name: &str) -> Option<Dst> {
        match self.resolve(name)? {
            Src::Local(i) => Some(Dst::Local(i)),
            Src::Global(i) => Some(Dst::Global(i)),
            other => unreachable!("write to `{name}` resolved to {other:?}"),
        }
    }

    /// Notes a store of a value tagged `tag` to `name`: a local proven
    /// another tag is disproved.
    fn stored(&mut self, name: &str, tag: Tag) {
        let Some(&(_, Src::Local(slot), Some(decl))) =
            self.locals.iter().rev().find(|(n, ..)| *n == name)
        else {
            return;
        };
        let proven = self.tags[slot as usize];
        if proven != Tag::Unknown && proven != tag {
            self.disproved.push(decl);
            self.tags[slot as usize] = Tag::Unknown;
        }
    }

    fn block(&mut self, actions: &'a [Action]) {
        let (locals, next) = (self.locals.len(), self.next);
        for a in actions {
            self.stmt(a);
        }
        self.locals.truncate(locals);
        self.next = next;
    }

    fn stmt(&mut self, a: &'a Action) {
        self.pending += 2;
        match a {
            Action::Local(v) => {
                // The initialiser still sees the name's outer meaning.
                let slot = self.slot();
                let tag = match &v.init {
                    Some(init) => self.expr_into(init, Dst::Local(slot)),
                    None => {
                        let src = self.konst(default_value(v));
                        self.emit(Kind::Move {
                            dst: Dst::Local(slot),
                            src,
                        });
                        self.tag(src)
                    }
                };
                let unproven = self.unproven.iter().any(|u| ptr::eq(*u, v));
                self.tags[slot as usize] = if unproven { Tag::Unknown } else { tag };
                self.locals.push((&v.name, Src::Local(slot), Some(v)));
            }
            Action::Assign {
                target,
                field,
                value,
                ..
            } => match (field, self.resolve_dst(target)) {
                // `p.ival = e;`: rescheduling is the soil's business.
                (Some(_), _) => self.discard(value),
                (None, Some(dst)) => {
                    let tag = self.expr_into(value, dst);
                    self.stored(target, tag);
                }
                (None, None) => {
                    self.discard(value);
                    self.fail(format!("assignment to unknown variable `{target}`"));
                }
            },
            Action::Transit { state, .. } => {
                match self.cx.machine.states.iter().position(|s| s.name == *state) {
                    Some(_) if self.in_function => {
                        self.fail("transit inside function".into());
                    }
                    Some(id) => {
                        self.emit(Kind::Transit { state: id as u32 });
                    }
                    None => {
                        self.fail(format!("transit to unknown state `{state}`"));
                    }
                }
            }
            Action::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let jumps = self.jump_if(cond, false);
                self.block(then_branch);
                if else_branch.is_empty() {
                    let end = self.label();
                    self.patch_all(jumps, end);
                } else {
                    let skip = self.emit(Kind::Jump { to: 0 });
                    let other = self.label();
                    self.patch_all(jumps, other);
                    self.block(else_branch);
                    let end = self.label();
                    self.patch(skip, end);
                }
            }
            Action::While { cond, body, .. } => {
                let counter = self.slot();
                let zero = self.konst(Value::Int(0));
                self.emit(Kind::Move {
                    dst: Dst::Local(counter),
                    src: zero,
                });
                let head = self.label();
                let test = self.test(cond);
                let exit = self.emit(Kind::Loop {
                    test,
                    exit: 0,
                    counter,
                });
                self.next = counter + 1;
                self.block(body);
                self.emit(Kind::Jump { to: head });
                let end = self.label();
                self.patch(exit, end);
                self.next = counter;
            }
            Action::Return { value, .. } => {
                let next = self.next;
                let value = value.as_ref().map(|e| self.operand(e));
                self.emit(Kind::Return { value });
                self.next = next;
            }
            Action::Send { value, to, .. } => {
                let next = self.next;
                let (to, at) = match to {
                    MsgEndpoint::Harvester => (None, None),
                    MsgEndpoint::Machine { name, at } => {
                        (Some(self.string(name.clone())), at.as_ref())
                    }
                };
                let (value, at) = match at {
                    None => (self.operand(value), None),
                    Some(at) => {
                        let [value, at] = self.operands([value, at]);
                        (value, Some(at))
                    }
                };
                self.emit(Kind::Send { value, to, at });
                self.next = next;
            }
            Action::ExprStmt { expr, .. } => self.discard(expr),
        }
    }

    /// Evaluates the condition of an `if` or a `while`. Its temporaries
    /// stay taken until the caller resets `next`.
    fn test(&mut self, cond: &ast::Expr) -> Test {
        let ast::Expr::Binary(BinOp::Cmp(c), a, b, _) = cond else {
            return Test::Bool(self.operand(cond));
        };
        self.pending += 1;
        if let ast::Expr::Call { name, args, .. } = &**b {
            if let [list] = &args[..] {
                if name == "list_len" && !self.cx.is_function(name) {
                    let a = self.operand(a);
                    let a = self.guard(a, std::iter::once(&**b));
                    // The `list_len` node, evaluated by the test.
                    self.pending += 1;
                    return Test::Len(*c, a, self.operand(list));
                }
            }
        }
        let [a, b] = self.operands([&**a, &**b]);
        Test::Cmp(*c, a, b)
    }

    /// Whether `e` can only evaluate to a bool, if it evaluates at all:
    /// by its shape, or because it names a local proven to hold one.
    fn boolish(&self, e: &ast::Expr) -> bool {
        match e {
            ast::Expr::Lit(Literal::Bool(_), _) | ast::Expr::Binary(BinOp::Cmp(_), ..) => true,
            ast::Expr::Var(name, _) => {
                matches!(self.resolve(name), Some(src @ Src::Local(_)) if self.tag(src) == Tag::Bool)
            }
            ast::Expr::Unary(UnOp::Not, a, _) => self.boolish(a),
            ast::Expr::Binary(BinOp::And | BinOp::Or, a, b, _) => {
                self.boolish(a) && self.boolish(b)
            }
            ast::Expr::Call { name, .. } => {
                !self.cx.is_function(name)
                    && builtin(name).is_some_and(|b| b.ret == Some(Type::Bool))
            }
            _ => false,
        }
    }

    /// Emits the jumps an `if` takes when `cond` comes out as `sense`,
    /// falling through otherwise, and returns them for patching. `not`,
    /// `and` and `or` over operands that can only be bools become jumps
    /// of their own; anything else is evaluated and tested.
    fn jump_if(&mut self, cond: &ast::Expr, sense: bool) -> Vec<usize> {
        match cond {
            ast::Expr::Unary(UnOp::Not, a, _) if self.boolish(a) => {
                self.pending += 1;
                self.jump_if(a, !sense)
            }
            ast::Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _)
                if self.boolish(a) && self.boolish(b) =>
            {
                self.pending += 1;
                // The left side decides `and` when false, `or` when true.
                let decides = *op == BinOp::Or;
                if decides == sense {
                    let mut jumps = self.jump_if(a, sense);
                    jumps.extend(self.jump_if(b, sense));
                    jumps
                } else {
                    let decided = self.jump_if(a, decides);
                    let jumps = self.jump_if(b, sense);
                    let end = self.label();
                    self.patch_all(decided, end);
                    jumps
                }
            }
            _ => {
                let next = self.next;
                let test = self.test(cond);
                let jump = self.emit(Kind::Branch { test, sense, to: 0 });
                self.next = next;
                vec![jump]
            }
        }
    }

    /// Evaluates `e` for its effects only.
    fn discard(&mut self, e: &'a ast::Expr) {
        let next = self.next;
        match e {
            ast::Expr::Call { name, args, .. } if self.cx.mutated(name, args).is_some() => {
                self.pending += 1;
                self.mutate(name, args);
            }
            _ => {
                self.operand(e);
            }
        }
        self.next = next;
    }

    /// Evaluates `e` and says where its value is: variables and constants
    /// are read where they are, anything else lands in a new temporary.
    /// The temporary stays taken until the caller resets `next`.
    fn operand(&mut self, e: &ast::Expr) -> Src {
        if let Some(src) = self.direct(e) {
            return src;
        }
        let slot = self.slot();
        let tag = self.expr_into(e, Dst::Local(slot));
        self.tags[slot as usize] = tag;
        Src::Temp(slot)
    }

    /// Evaluates `args` in order; an argument that is a variable a later
    /// argument may write is copied when it is evaluated.
    fn operands<const N: usize>(&mut self, args: [&ast::Expr; N]) -> [Src; N] {
        let mut srcs = [Src::Const(0); N];
        for (i, e) in args.iter().enumerate() {
            let src = self.operand(e);
            srcs[i] = self.guard(src, args[i + 1..].iter().copied());
        }
        srcs
    }

    /// `src`, or a copy of it when it is a variable that an expression
    /// evaluated after it (one of `later`) may write.
    fn guard<'e>(&mut self, src: Src, mut later: impl Iterator<Item = &'e ast::Expr>) -> Src {
        match src {
            Src::Local(_) | Src::Global(_) if later.any(|e| self.cx.may_write(e)) => self.pin(src),
            _ => src,
        }
    }

    /// A copy of a variable operand in a temporary.
    fn pin(&mut self, src: Src) -> Src {
        let (Src::Local(_) | Src::Global(_)) = src else {
            return src;
        };
        let slot = self.slot();
        self.emit(Kind::Move {
            dst: Dst::Local(slot),
            src,
        });
        self.tags[slot as usize] = self.tag(src);
        Src::Temp(slot)
    }

    /// The operand of an expression that needs no instruction: a variable
    /// or a constant (its one node of cost is left pending).
    fn direct(&mut self, e: &ast::Expr) -> Option<Src> {
        let value = match e {
            ast::Expr::Lit(l, _) => match l {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(f) => Value::Float(*f),
                Literal::Str(s) => Value::Str(s.clone()),
            },
            ast::Expr::Var(name, _) => {
                self.pending += 1;
                return Some(match self.resolve(name) {
                    Some(src) => src,
                    None => {
                        self.fail(format!("unknown variable `{name}`"));
                        Src::Const(0)
                    }
                });
            }
            ast::Expr::Filter(FilterExpr::IfPortAny, _) => {
                Value::Filter(FilterFormula::Atom(FilterAtom::IfPort(PortSel::Any)))
            }
            // Poll/Probe literals configure the soil's scheduler; to the
            // VM they are unit, their fields never evaluated.
            ast::Expr::StructLit { name, .. } if name != "Rule" => Value::Unit,
            _ => return None,
        };
        self.pending += 1;
        Some(self.konst(value))
    }

    /// Evaluates `e` into `dst`, which only the last instruction writes
    /// (and the short circuit of `and`/`or`), and returns what lowering
    /// proved about the value stored.
    fn expr_into(&mut self, e: &ast::Expr, dst: Dst) -> Tag {
        if let Some(src) = self.direct(e) {
            self.emit(Kind::Move { dst, src });
            return self.tag(src);
        }
        self.pending += 1;
        let next = self.next;
        let tag = match e {
            ast::Expr::Filter(f, _) => {
                let (field, arg) = match f {
                    FilterExpr::SrcIp(e) => (FilterField::SrcIp, e),
                    FilterExpr::DstIp(e) => (FilterField::DstIp, e),
                    FilterExpr::SrcPort(e) => (FilterField::SrcPort, e),
                    FilterExpr::DstPort(e) => (FilterField::DstPort, e),
                    FilterExpr::Proto(e) => (FilterField::Proto, e),
                    FilterExpr::IfPort(e) => (FilterField::IfPort, e),
                    FilterExpr::IfPortAny => unreachable!("a constant"),
                };
                let a = self.operand(arg);
                self.emit(Kind::Filter { field, dst, a });
                Tag::Unknown
            }
            ast::Expr::Unary(op, inner, _) => {
                let a = self.operand(inner);
                self.emit(match op {
                    UnOp::Not => Kind::Not { dst, a },
                    UnOp::Neg => Kind::Neg { dst, a },
                });
                match (op, self.tag(a)) {
                    (UnOp::Not, Tag::Bool) => Tag::Bool,
                    (UnOp::Neg, tag @ (Tag::Int | Tag::Float)) => tag,
                    _ => Tag::Unknown,
                }
            }
            ast::Expr::Binary(op, a, b, _) if matches!(op, BinOp::And | BinOp::Or) => {
                let a = self.operand(a);
                let a = self.guard(a, std::iter::once(&**b));
                let short = self.emit(Kind::Short {
                    or: *op == BinOp::Or,
                    dst,
                    a,
                    end: 0,
                });
                let b = self.operand(b);
                self.emit(Kind::Binary { op: *op, dst, a, b });
                let end = self.label();
                self.patch(short, end);
                if self.tag(a) == Tag::Bool && self.tag(b) == Tag::Bool {
                    Tag::Bool
                } else {
                    Tag::Unknown
                }
            }
            ast::Expr::Binary(op, a, b, _) => {
                let [a, b] = self.operands([&**a, &**b]);
                let (x, y) = (self.tag(a), self.tag(b));
                let op = *op;
                let (kind, tag) = match op {
                    // Numbers compare as floats, ints included.
                    BinOp::Cmp(c) if x.number() && y.number() => {
                        (Kind::Cmp { c, dst, a, b }, Tag::Bool)
                    }
                    BinOp::Cmp(_) => (Kind::Binary { op, dst, a, b }, Tag::Bool),
                    _ if x == Tag::Int && y == Tag::Int => (Kind::Int { op, dst, a, b }, Tag::Int),
                    _ if x.number() && y.number() => (Kind::Float { op, dst, a, b }, Tag::Float),
                    _ => (Kind::Binary { op, dst, a, b }, Tag::Unknown),
                };
                self.emit(kind);
                tag
            }
            ast::Expr::Field(base, field, _) => {
                let base = self.operand(base);
                let name = self.string(field.clone());
                let resource = ResourceKind::from_field_name(field);
                self.emit(Kind::Field {
                    dst,
                    base,
                    resource,
                    name,
                });
                // A resource field is a float; anything else fails.
                match resource {
                    Some(_) => Tag::Float,
                    None => Tag::Unknown,
                }
            }
            ast::Expr::StructLit { fields, .. } => {
                let (mut pattern, mut act) = (None, None);
                for (i, (field, e)) in fields.iter().enumerate() {
                    let src = self.operand(e);
                    let src = self.guard(src, fields[i + 1..].iter().map(|(_, later)| later));
                    let name = self.string(field.clone());
                    self.emit(Kind::RuleField { src, name });
                    match field.as_str() {
                        "pattern" => pattern = Some(src),
                        "act" => act = Some(src),
                        _ => {}
                    }
                }
                self.emit(Kind::Rule { dst, pattern, act });
                Tag::Unknown
            }
            ast::Expr::Call { name, args, .. } => self.call(name, args, dst),
            ast::Expr::Lit(..) | ast::Expr::Var(..) => unreachable!("direct operands"),
        };
        self.next = next;
        tag
    }

    fn call(&mut self, name: &str, args: &[ast::Expr], dst: Dst) -> Tag {
        // User functions first (the checker forbids shadowing builtins).
        if let Some(f) = self.cx.functions.iter().position(|f| f.name == name) {
            self.emit(Kind::Depth);
            let passes = &self.cx.passes[f];
            let mut srcs = Vec::with_capacity(args.len());
            for (i, e) in args.iter().enumerate() {
                let src = self.operand(e);
                let src = match src {
                    // A global read in place could change under the callee.
                    Src::Global(_) if passes.get(i) == Some(&Pass::InPlace) => self.pin(src),
                    _ => self.guard(src, args[i + 1..].iter()),
                };
                srcs.push(src);
            }
            // Only an unchecked program gets the count wrong: a missing
            // argument reads as unit, an extra one is dropped.
            srcs.resize(passes.len(), Src::Const(0));
            let at = self.pools.args.len() as u32;
            self.pools.args.extend(srcs);
            self.emit(Kind::CallFn {
                f: f as u32,
                dst,
                args: at,
            });
            return Tag::Unknown;
        }
        let Some(b) = builtin(name) else {
            return self.fail(format!("unknown builtin `{name}`"));
        };
        if args.len() != b.params.len() {
            return self.fail(format!("bad arguments to `{name}`"));
        }
        if b.mutates_first_arg {
            self.mutate(name, args);
            let unit = Src::Const(0);
            self.emit(Kind::Move { dst, src: unit });
            return Tag::Unknown;
        }
        if let [ast::Expr::Call {
            name: inner,
            args: entry,
            ..
        }] = args
        {
            if stat_field(b.op)
                && inner == "list_get"
                && entry.len() == 2
                && !self.cx.is_function(inner)
            {
                // The `list_get` node, evaluated by the same instruction.
                self.pending += 1;
                let [list, index] = self.operands([&entry[0], &entry[1]]);
                self.emit(Kind::StatField {
                    op: b.op,
                    dst,
                    list,
                    index,
                });
                return Tag::Int;
            }
        }
        let (a, b_) = match args {
            [] => (Src::Const(0), Src::Const(0)),
            [x] => (self.operand(x), Src::Const(0)),
            [x, y] => {
                let [a, b] = self.operands([x, y]);
                (a, b)
            }
            _ => unreachable!("runtime-library calls take at most two arguments"),
        };
        self.emit(match b.op {
            Op::ListLen => Kind::ListLen { dst, a },
            Op::ListGet => Kind::ListGet {
                dst,
                list: a,
                index: b_,
            },
            Op::ToFloat => Kind::ToFloat { dst, a },
            op => Kind::Call { op, dst, a, b: b_ },
        });
        Tag::of_result(b.op)
    }

    /// A list builtin applied to the variable it names; the call node's
    /// cost is already pending.
    fn mutate(&mut self, name: &str, args: &[ast::Expr]) {
        let Some(b) = builtin(name) else {
            unreachable!("only called for builtins")
        };
        if args.len() != b.params.len() {
            self.fail(format!("bad arguments to `{name}`"));
            return;
        }
        let ast::Expr::Var(var, _) = &args[0] else {
            self.fail(format!("`{name}` needs a variable argument"));
            return;
        };
        let arg = args.get(1).map(|a| self.operand(a));
        let Some(target) = self.resolve_dst(var) else {
            self.fail(format!("unknown list `{var}`"));
            return;
        };
        let name = self.string(var.clone());
        self.emit(Kind::Mutate {
            op: b.op,
            target,
            arg,
            name,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::frontend;

    fn lowered(src: &str) -> LoweredMachine {
        let program = frontend(src).unwrap();
        lower(&program.machines[0], &program.functions, &ConstEnv::new())
    }

    fn kinds(body: &Body) -> Vec<&Kind> {
        body.code.iter().map(|i| &i.kind).collect()
    }

    #[test]
    fn globals_are_name_sorted_slots_and_triggers_get_none() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 time tick = 5;
                 long zeta = 3;
                 list alpha;
                 state s { }
               }"#,
        );
        assert_eq!(lm.globals, ["alpha", "zeta"]);
        assert_eq!(lm.init, [Value::List(vec![]), Value::Int(0)]);
        assert_eq!(lm.global_slot("zeta"), Some(1));
        assert_eq!(lm.global_slot("tick"), None);
    }

    #[test]
    fn state_tables_list_own_handlers_before_machine_level_ones() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 state a { when (enter) do { transit b; } }
                 state b { }
                 when (realloc) do { }
               }"#,
        );
        assert_eq!(lm.state_id("b"), Some(1));
        let on = |s: usize| -> Vec<&On> {
            lm.states[s]
                .handlers
                .iter()
                .map(|&h| &lm.handlers[h as usize].on)
                .collect()
        };
        assert_eq!(on(0), [&On::Enter, &On::Realloc]);
        assert_eq!(on(1), [&On::Realloc]);
        assert_eq!(lm.handlers[1].body.code[0].kind, Kind::Transit { state: 1 });
    }

    #[test]
    fn every_declaration_gets_its_own_frame_slot() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 long x = 1;
                 time tick = 5;
                 state s {
                   when (tick as n) do {
                     long x = x + n;
                     if (x > 0) then { long x = 7; x = 8; }
                     x = 9;
                     if (x > 1) then { long y = 3; y = 4; }
                   }
                 }
               }"#,
        );
        let h = &lm.handlers[0];
        // The payload is never written: read in place, no frame slot.
        assert_eq!(h.bind, Bind::InPlace);
        // The initialiser reads the machine variable and the payload and
        // writes the new local's slot itself.
        assert!(matches!(
            h.body.code[0].kind,
            Kind::Binary {
                dst: Dst::Local(0),
                a: Src::Global(0),
                b: Src::Ref(0),
                ..
            }
        ));
        // The inner `x` takes the slot after the outer one for the life of
        // its block; `y`, declared after that block ended, reuses it.
        let moves: Vec<Dst> = h
            .body
            .code
            .iter()
            .filter_map(|i| match i.kind {
                Kind::Move { dst, .. } => Some(dst),
                _ => None,
            })
            .collect();
        let (outer, inner) = (Dst::Local(0), Dst::Local(1));
        assert_eq!(moves, [inner, inner, outer, inner, inner]);
        assert_eq!(h.body.frame, 2);
    }

    #[test]
    fn costs_add_up_to_two_per_statement_and_one_per_expression_node() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 long x = 1;
                 bool small;
                 time tick = 5;
                 state s {
                   when (tick) do {
                     x = x + 2 * x;                 // 2 + 5
                     x;                             // 2 + 1
                     small = x > 0 and x < 9;       // 2 + 7 (both sides)
                     if (x > 0 and x < 9) then {    // 2 + 7 (both sides)
                       x = 0;                       // 2 + 1
                     }
                   }
                 }
               }"#,
        );
        let code = &lm.handlers[0].body.code;
        let total: u32 = code.iter().map(|i| i.cost).sum();
        assert_eq!(total, 7 + 3 + 9 + 9 + 3);
        // The right side of `and` is charged only when it runs: as a
        // value, past the short circuit ...
        let short = code
            .iter()
            .position(|i| matches!(i.kind, Kind::Short { .. }))
            .unwrap();
        let Kind::Short { end, .. } = code[short].kind else {
            unreachable!()
        };
        let right: u32 = code[short + 1..end as usize].iter().map(|i| i.cost).sum();
        assert_eq!(right, 3);
        // ... and as a condition, by the second of its two jumps to the
        // end of the `if`.
        let branches: Vec<(u32, &Kind)> = code
            .iter()
            .filter(|i| matches!(i.kind, Kind::Branch { .. }))
            .map(|i| (i.cost, &i.kind))
            .collect();
        let [(6, Kind::Branch { to: a, .. }), (3, Kind::Branch { to: b, .. })] = branches[..]
        else {
            panic!("{branches:?}")
        };
        assert_eq!(a, b);
        assert_eq!(code[*a as usize - 1].cost, 3, "`x = 0;` ends the `if`");
    }

    #[test]
    fn written_payloads_and_parameters_are_copied_the_rest_read_in_place() {
        let program = frontend(
            r#"fun f(list a, long b): long { b = b + list_len(a); return b; }
               machine M {
                 place any;
                 poll p = Poll { .ival = 1, .what = port ANY };
                 long seen = 0;
                 state s {
                   when (p as stats) do { seen = f(stats, seen); }
                   when (recv list xs from harvester) do { list_clear(xs); }
                 }
               }"#,
        )
        .unwrap();
        let lm = lower(&program.machines[0], &program.functions, &ConstEnv::new());
        assert_eq!(lm.functions[0].params, [Pass::InPlace, Pass::Value]);
        assert_eq!(lm.handlers[0].bind, Bind::InPlace);
        assert_eq!(lm.handlers[1].bind, Bind::Copy);
        // `seen` is passed by value: the call copies it, no pin needed.
        assert!(kinds(&lm.handlers[0].body).contains(&&Kind::CallFn {
            f: 0,
            dst: Dst::Global(0),
            args: 0
        }));
        assert_eq!(lm.args, [Src::Ref(0), Src::Global(0)]);
    }

    #[test]
    fn a_scan_reads_stats_in_place_and_counts_on_typed_arms() {
        let program = frontend(crate::programs::HEAVY_HITTER).unwrap();
        let lm = lower(&program.machines[0], &program.functions, &ConstEnv::new());
        // getHH: `while (i < list_len(stats))` is one test, the
        // `stat_tx_bytes(list_get(stats, i))` one read, `i = i + 1` an int add.
        let code = kinds(&lm.functions[0].body);
        assert!(code.iter().any(|k| matches!(
            k,
            Kind::Loop {
                test: Test::Len(CmpOp::Lt, Src::Local(_), Src::Ref(0)),
                ..
            }
        )));
        assert!(code.iter().any(|k| matches!(
            k,
            Kind::StatField {
                op: Op::StatTxBytes,
                list: Src::Ref(0),
                ..
            }
        )));
        assert!(code
            .iter()
            .any(|k| matches!(k, Kind::Int { op: BinOp::Add, .. })));
        assert!(!code
            .iter()
            .any(|k| matches!(k, Kind::Call { .. } | Kind::Binary { .. })));
    }

    /// The `Kind::Int` / `Kind::Float` / `Kind::Binary` each `dst`
    /// global is computed by, in order.
    fn arithmetic(body: &Body) -> Vec<&'static str> {
        (body.code.iter())
            .filter_map(|i| match i.kind {
                Kind::Int { .. } => Some("int"),
                Kind::Float { .. } => Some("float"),
                Kind::Binary { .. } => Some("any"),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn runtime_tags_are_proven_from_stores_not_declared_types() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 time t = 5;
                 float g = 1.0;
                 float out = 0.0;
                 state s {
                   when (t as n) do {
                     float x = 5;
                     out = x / 2;                 // an int: `float` coerces nothing
                     out = x * 0.5;               // int and float
                     out = g * 2.0;               // a machine variable: unproven
                     out = n + 1;                 // the payload: unproven
                     out = to_float(n) - 1;       // a builtin's fixed tag
                   }
                 }
               }"#,
        );
        let code = &lm.handlers[0].body;
        assert_eq!(arithmetic(code), ["int", "float", "any", "any", "float"]);
    }

    #[test]
    fn a_store_that_disproves_a_local_lowers_the_body_again() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 time t = 5;
                 long out = 0;
                 state s {
                   when (t as n) do {
                     long k = 1;
                     long j = 1;
                     int i = 0;
                     while (i < 3) {
                       out = k + 1;               // k: disproved below
                       out = j + 1;               // j: every store an int
                       k = pair_first(pair(n, i));
                       j = j * 2;
                       i = i + 1;
                     }
                   }
                 }
               }"#,
        );
        let code = &lm.handlers[0].body;
        assert_eq!(arithmetic(code), ["any", "int", "int", "int"]);
        // The first lowering's constants were dropped with its code: unit,
        // eight literals and the loop counter's zero.
        assert_eq!(lm.consts.len(), 1 + 8 + 1);
    }

    #[test]
    fn names_the_runtime_never_binds_lower_to_failures() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 state s {
                   list mine;
                   when (enter) do { list_push(mine, 1); mine = mine; }
                 }
               }"#,
        );
        let failures: Vec<&str> = lm.handlers[0]
            .body
            .code
            .iter()
            .filter_map(|i| match i.kind {
                Kind::Fail { message } => Some(lm.strings[message as usize].as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            failures,
            [
                "unknown list `mine`",
                "unknown variable `mine`",
                "assignment to unknown variable `mine`"
            ]
        );
    }
}
