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
//! * A variable's tag is its declared type: every store (a `return` is
//!   one into the function's result) widens an int into a `float` and
//!   refuses another tag, through a [`Kind::Fit`] where the value's tag is
//!   not known. Arithmetic and comparisons on int and float tags →
//!   [`Kind::Int`], [`Kind::Float`], [`Kind::Cmp`]; the rest →
//!   [`Kind::Binary`], which the VM runs with inline number checks first.
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

use farm_netsim::switch::ResourceKind;
use farm_netsim::types::{FilterAtom, FilterFormula, PortSel};

use crate::analysis::ConstEnv;
use crate::ast::{
    self, always_returns, Action, BinOp, CmpOp, EventDecl, FilterExpr, FunDecl, Literal, Machine,
    MsgEndpoint, Trigger, Type, UnOp,
};
use crate::builtins::{builtin, Op};
use crate::value::{default_of, Value};

/// A machine in executable form. Immutable and shared (inside the
/// `Arc<CompiledMachine>`) by every seed of the machine.
#[derive(Debug, Clone)]
pub struct LoweredMachine {
    /// Names of the machine variables, sorted; the index is the global slot.
    pub globals: Vec<String>,
    /// Declared type of each global slot.
    pub types: Vec<Type>,
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
    /// an operand whose tag is not a number's.
    Binary {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a op b` for `+ - * /` on operands tagged as ints.
    Int {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a op b` for `+ - * /` on operands tagged as numbers, at least one
    /// of them a float.
    Float {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    /// `a c b` on operands tagged as numbers.
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
    /// `while`: goes to `exit` unless `test` holds, else fails the
    /// delivery if it has passed its op budget, and runs the body.
    Loop {
        test: Test,
        exit: u32,
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
    /// `dst = src` into the variable `name`, declared `ty`, when lowering
    /// does not know `src` has `ty`'s tag: an int is widened into a
    /// `float`, another tag refused. Without `dst`, `src` is an argument
    /// read in place, only checked (`ty` is not `float`).
    Fit {
        dst: Option<Dst>,
        src: Src,
        ty: Type,
        name: u32,
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
    let vars: BTreeMap<&str, (Type, Value)> = machine
        .vars
        .iter()
        .filter(|v| v.trigger().is_none())
        .map(|v| {
            let ty = v.declared_type();
            let value = consts
                .get(&v.name)
                .cloned()
                .unwrap_or_else(|| default_of(ty));
            (v.name.as_str(), (ty, value))
        })
        .collect();
    let globals: Vec<String> = vars.keys().map(|n| n.to_string()).collect();
    let (types, init): (Vec<Type>, Vec<Value>) = vars.into_values().unzip();
    let mut cx = Context {
        globals: &globals,
        types: &types,
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
        init,
        globals,
        types,
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

/// What names resolve against, machine-wide.
struct Context<'a> {
    globals: &'a [String],
    /// Declared type of each global slot.
    types: &'a [Type],
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
        // What a trigger delivers the soil decides: untyped.
        let (on, name, ty) = match &ev.trigger {
            Trigger::Enter => (On::Enter, None, Type::Any),
            Trigger::Exit => (On::Exit, None, Type::Any),
            Trigger::Realloc => (On::Realloc, None, Type::Any),
            Trigger::Var { name, bind } => (On::Trigger(name.clone()), bind.as_deref(), Type::Any),
            Trigger::Recv { ty, bind, from } => {
                let from = match from {
                    MsgEndpoint::Harvester => None,
                    MsgEndpoint::Machine { name, .. } => Some(name.clone()),
                };
                (On::Recv { ty: *ty, from }, Some(bind.as_str()), *ty)
            }
        };
        let mut em = Emitter::new(self, pools, None);
        let bind = match name {
            None => Bind::None,
            // Dispatch widens an int for a `recv float` into the copy.
            Some(name) if ty == Type::Float || self.writes(&ev.actions, name) => {
                em.declare_slot(name, ty);
                Bind::Copy
            }
            Some(name) => {
                em.declare_ref(name, ty);
                Bind::InPlace
            }
        };
        Handler {
            on,
            bind,
            body: em.finish(&ev.actions),
        }
    }

    fn function(&self, f: &'a FunDecl, params: &[Pass], pools: &mut Pools) -> Function {
        let mut em = Emitter::new(self, pools, Some(f));
        for (&(ty, ref name), pass) in f.params.iter().zip(params) {
            match pass {
                Pass::Value => em.declare_slot(name, ty),
                Pass::InPlace => em.declare_ref(name, ty),
            }
        }
        Function {
            params: params.to_vec(),
            body: em.finish(&f.body),
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

/// The tag a value declared `ty` carries, written as a type (`int` for
/// `long` too; `any` where lowering knows nothing).
fn tag_of(ty: Type) -> Type {
    match ty {
        Type::Long => Type::Int,
        ty => ty,
    }
}

/// Whether a value tagged `tag` goes into a `ty` variable as it is.
fn fits(tag: Type, ty: Type) -> bool {
    ty == Type::Any || tag == tag_of(ty)
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
    /// The function whose body this is, `None` for a handler.
    function: Option<&'a FunDecl>,
    /// Visible variables, innermost last: a frame slot or a reference,
    /// and the declared type.
    locals: Vec<(&'a str, Src, Type)>,
    /// Tag of each reference handed out so far.
    refs: Vec<Type>,
    /// Next free frame slot; slots above it are free.
    next: u32,
    /// Frame slots needed so far.
    frame: u32,
    /// Tag of each frame slot: a variable's for its life, a temporary's
    /// from the instruction that writes it.
    tags: Vec<Type>,
    code: Vec<Inst>,
    /// Cost of nodes evaluated since the last instruction was emitted; the
    /// next instruction carries it.
    pending: u32,
}

impl<'a, 'p> Emitter<'a, 'p> {
    fn new(
        cx: &'a Context<'a>,
        pools: &'p mut Pools,
        function: Option<&'a FunDecl>,
    ) -> Emitter<'a, 'p> {
        Emitter {
            cx,
            pools,
            function,
            locals: Vec::new(),
            refs: Vec::new(),
            next: 0,
            frame: 0,
            tags: Vec::new(),
            code: Vec::new(),
            pending: 0,
        }
    }

    fn finish(mut self, actions: &'a [Action]) -> Body {
        self.block(actions);
        // A body that always returns never gets here; the bare `Return`
        // only ends the code for jumps past its last arm.
        let value = if always_returns(actions) {
            None
        } else {
            self.result(None)
        };
        self.emit(Kind::Return { value });
        Body {
            frame: self.frame,
            code: self.code,
        }
    }

    fn declare_slot(&mut self, name: &'a str, ty: Type) {
        let slot = self.slot();
        self.tags[slot as usize] = tag_of(ty);
        self.locals.push((name, Src::Local(slot), ty));
    }

    fn declare_ref(&mut self, name: &'a str, ty: Type) {
        self.locals
            .push((name, Src::Ref(self.refs.len() as u32), ty));
        self.refs.push(tag_of(ty));
    }

    /// A free frame slot, tagged `any`; it stays taken until `next` is
    /// reset below it.
    fn slot(&mut self) -> u32 {
        let slot = self.next;
        self.next += 1;
        self.frame = self.frame.max(self.next);
        self.tags
            .resize(self.tags.len().max(self.next as usize), Type::Any);
        self.tags[slot as usize] = Type::Any;
        slot
    }

    /// The tag of the value `src` reads.
    fn tag(&self, src: Src) -> Type {
        match src {
            Src::Const(i) => match self.pools.consts[i as usize] {
                Value::Bool(_) => Type::Bool,
                Value::Int(_) => Type::Int,
                Value::Float(_) => Type::Float,
                Value::Str(_) => Type::Str,
                _ => Type::Any,
            },
            Src::Local(i) | Src::Temp(i) => self.tags[i as usize],
            Src::Global(i) => tag_of(self.cx.types[i as usize]),
            Src::Ref(i) => self.refs[i as usize],
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

    fn fail(&mut self, message: String) {
        let message = self.string(message);
        self.emit(Kind::Fail { message });
    }

    /// Where `name` lives and its declared type: locals shadow machine
    /// variables, inner blocks shadow outer ones.
    fn resolve(&self, name: &str) -> Option<(Src, Type)> {
        if let Some(&(_, src, ty)) = self.locals.iter().rev().find(|(n, ..)| *n == name) {
            return Some((src, ty));
        }
        let slot = global_slot(self.cx.globals, name)?;
        Some((Src::Global(slot as u32), self.cx.types[slot]))
    }

    /// Where a write to `name` goes, and its declared type. Payloads and
    /// parameters the body writes live in slots, so a written name never
    /// resolves to a reference.
    fn resolve_dst(&self, name: &str) -> Option<(Dst, Type)> {
        match self.resolve(name)? {
            (Src::Local(i), ty) => Some((Dst::Local(i), ty)),
            (Src::Global(i), ty) => Some((Dst::Global(i), ty)),
            other => unreachable!("write to `{name}` resolved to {other:?}"),
        }
    }

    /// Whether `src` has the tag of `ty`, once an int constant bound for
    /// a `float` is widened (no other instruction reads it).
    fn widened(&mut self, src: Src, ty: Type) -> bool {
        if let (Src::Const(i), Type::Float) = (src, ty) {
            if let Value::Int(n) = self.pools.consts[i as usize] {
                self.pools.consts[i as usize] = Value::Float(n as f64);
            }
        }
        fits(self.tag(src), ty)
    }

    /// `dst = src` into the variable `name` declared `ty`, through a
    /// [`Kind::Fit`] unless `src` has `ty`'s tag.
    fn fit(&mut self, dst: Dst, src: Src, ty: Type, name: &str) {
        if self.widened(src, ty) {
            self.emit(Kind::Move { dst, src });
        } else {
            let name = self.string(name.to_string());
            self.emit(Kind::Fit {
                dst: Some(dst),
                src,
                ty,
                name,
            });
        }
    }

    /// `src` as the variable `name` declared `ty` takes it: itself, or a
    /// new temporary (taken until the caller resets `next`) it is fitted into.
    fn fitted(&mut self, src: Src, ty: Type, name: &str) -> Src {
        if self.widened(src, ty) {
            return src;
        }
        let slot = self.slot();
        self.fit(Dst::Local(slot), src, ty, name);
        self.tags[slot as usize] = tag_of(ty);
        Src::Temp(slot)
    }

    /// Evaluates `e` into `dst`, the variable `name` declared `ty`, where it
    /// is computed when it has `ty`'s tag, else through a [`Kind::Fit`].
    fn store(&mut self, e: &ast::Expr, dst: Dst, ty: Type, name: &str) {
        if fits(self.expr_tag(e), ty) {
            return self.expr_into(e, dst);
        }
        let next = self.next;
        let src = self.operand(e);
        self.fit(dst, src, ty, name);
        self.next = next;
    }

    /// What a `return` hands back, `e` or unit, fitted to a function's
    /// result (named `f()`); temporaries stay taken until `next` is reset.
    fn result(&mut self, e: Option<&ast::Expr>) -> Option<Src> {
        let ty = self.function.and_then(|f| f.ret).unwrap_or(Type::Any);
        let src = match e {
            Some(e) => self.operand(e),
            None if ty == Type::Any => return None,
            None => Src::Const(0),
        };
        let name = format!("{}()", self.function.map_or("", |f| f.name.as_str()));
        Some(self.fitted(src, ty, &name))
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
                let ty = v.declared_type();
                match &v.init {
                    Some(init) => self.store(init, Dst::Local(slot), ty, &v.name),
                    None => {
                        let src = self.konst(default_of(ty));
                        self.emit(Kind::Move {
                            dst: Dst::Local(slot),
                            src,
                        });
                    }
                }
                self.tags[slot as usize] = tag_of(ty);
                self.locals.push((&v.name, Src::Local(slot), ty));
            }
            Action::Assign {
                target,
                field,
                value,
                ..
            } => match (field, self.resolve_dst(target)) {
                // `p.ival = e;`: rescheduling is the soil's business.
                (Some(_), _) => self.discard(value),
                (None, Some((dst, ty))) => self.store(value, dst, ty, target),
                (None, None) => {
                    self.discard(value);
                    self.fail(format!("assignment to unknown variable `{target}`"));
                }
            },
            Action::Transit { state, .. } => {
                match self.cx.machine.states.iter().position(|s| s.name == *state) {
                    Some(_) if self.function.is_some() => {
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
                // The statement's cost is charged once, on entry.
                let head = self.label();
                let next = self.next;
                let test = self.test(cond);
                let exit = self.emit(Kind::Loop { test, exit: 0 });
                self.next = next;
                self.block(body);
                self.emit(Kind::Jump { to: head });
                let end = self.label();
                self.patch(exit, end);
            }
            Action::Return { value, .. } => {
                let next = self.next;
                let value = self.result(value.as_ref());
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

    /// Emits the jumps an `if` takes when `cond` comes out as `sense`,
    /// falling through otherwise, and returns them for patching. `not`,
    /// `and` and `or` over operands tagged as bools become jumps of their
    /// own; anything else is evaluated and tested.
    fn jump_if(&mut self, cond: &ast::Expr, sense: bool) -> Vec<usize> {
        let boolish = |e: &ast::Expr| self.expr_tag(e) == Type::Bool;
        match cond {
            ast::Expr::Unary(UnOp::Not, a, _) if boolish(a) => {
                self.pending += 1;
                self.jump_if(a, !sense)
            }
            ast::Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _)
                if boolish(a) && boolish(b) =>
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
        self.expr_into(e, Dst::Local(slot));
        self.tags[slot as usize] = self.expr_tag(e);
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
                    Some((src, _)) => src,
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

    /// The tag of what `e` evaluates to, if it evaluates at all: a
    /// variable's declared type, the result type of a builtin or a
    /// function, and what the operators make of their operands' tags.
    fn expr_tag(&self, e: &ast::Expr) -> Type {
        match e {
            ast::Expr::Lit(l, _) => match l {
                Literal::Bool(_) => Type::Bool,
                Literal::Int(_) => Type::Int,
                Literal::Float(_) => Type::Float,
                Literal::Str(_) => Type::Str,
            },
            ast::Expr::Var(name, _) => self
                .resolve(name)
                .map_or(Type::Any, |(src, _)| self.tag(src)),
            ast::Expr::Filter(..) => Type::Filter,
            ast::Expr::Unary(op, a, _) => match (op, self.expr_tag(a)) {
                (UnOp::Not, tag @ (Type::Bool | Type::Filter)) => tag,
                (UnOp::Neg, tag @ (Type::Int | Type::Float)) => tag,
                _ => Type::Any,
            },
            ast::Expr::Binary(op, a, b, _) => match (op, self.expr_tag(a), self.expr_tag(b)) {
                (BinOp::Cmp(_), ..) => Type::Bool,
                (BinOp::And | BinOp::Or, Type::Bool, Type::Bool) => Type::Bool,
                (BinOp::And | BinOp::Or, ..) => Type::Any,
                (_, Type::Int, Type::Int) => Type::Int,
                (_, Type::Int | Type::Float, Type::Int | Type::Float) => Type::Float,
                _ => Type::Any,
            },
            // A resource field is a float; anything else fails.
            ast::Expr::Field(_, field, _) => {
                ResourceKind::from_field_name(field).map_or(Type::Any, |_| Type::Float)
            }
            ast::Expr::StructLit { name, .. } if name == "Rule" => Type::Rule,
            ast::Expr::StructLit { .. } => Type::Any,
            // A builtin given the wrong number of arguments never returns.
            ast::Expr::Call { name, .. } => {
                let ret = match self.cx.functions.iter().find(|f| f.name == *name) {
                    Some(f) => f.ret,
                    None => builtin(name).and_then(|b| b.ret),
                };
                ret.map_or(Type::Any, tag_of)
            }
        }
    }

    /// Evaluates `e` into `dst`, which only the last instruction writes
    /// (and the short circuit of `and`/`or`).
    fn expr_into(&mut self, e: &ast::Expr, dst: Dst) {
        if let Some(src) = self.direct(e) {
            self.emit(Kind::Move { dst, src });
            return;
        }
        self.pending += 1;
        let next = self.next;
        match e {
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
            }
            ast::Expr::Unary(op, inner, _) => {
                let a = self.operand(inner);
                self.emit(match op {
                    UnOp::Not => Kind::Not { dst, a },
                    UnOp::Neg => Kind::Neg { dst, a },
                });
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
            }
            ast::Expr::Binary(op, a, b, _) => {
                let [a, b] = self.operands([&**a, &**b]);
                let (x, y, op) = (self.tag(a), self.tag(b), *op);
                let numbers = [x, y].iter().all(|t| matches!(t, Type::Int | Type::Float));
                self.emit(match op {
                    // Numbers compare as floats, ints included.
                    BinOp::Cmp(c) if numbers => Kind::Cmp { c, dst, a, b },
                    BinOp::Cmp(_) => Kind::Binary { op, dst, a, b },
                    _ if x == Type::Int && y == Type::Int => Kind::Int { op, dst, a, b },
                    _ if numbers => Kind::Float { op, dst, a, b },
                    _ => Kind::Binary { op, dst, a, b },
                });
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
            }
            ast::Expr::Call { name, args, .. } => self.call(name, args, dst),
            ast::Expr::Lit(..) | ast::Expr::Var(..) => unreachable!("direct operands"),
        }
        self.next = next;
    }

    fn call(&mut self, name: &str, args: &[ast::Expr], dst: Dst) {
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
            // Each argument is stored into its parameter once all are
            // evaluated.
            let params = &self.cx.functions[f].params;
            for ((src, &(ty, ref param)), pass) in srcs.iter_mut().zip(params).zip(passes) {
                if *pass == Pass::InPlace && ty != Type::Float && !fits(self.tag(*src), ty) {
                    let name = self.string(param.clone());
                    self.emit(Kind::Fit {
                        dst: None,
                        src: *src,
                        ty,
                        name,
                    });
                } else {
                    *src = self.fitted(*src, ty, param);
                }
            }
            let at = self.pools.args.len() as u32;
            self.pools.args.extend(srcs);
            self.emit(Kind::CallFn {
                f: f as u32,
                dst,
                args: at,
            });
            return;
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
            return;
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
                return;
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
        let Some((target, _)) = self.resolve_dst(var) else {
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
                 state s {
                   when (recv long n from harvester) do {
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
        // The initialiser reads the machine variable and the payload, both
        // longs, and writes the new local's slot itself.
        assert!(matches!(
            h.body.code[0].kind,
            Kind::Int {
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

    /// The [`Kind::Fit`]s of a body that store: the variable each names
    /// and its cost.
    fn fits(lm: &LoweredMachine, body: &Body) -> Vec<(String, u32)> {
        (body.code.iter())
            .filter_map(|i| match i.kind {
                Kind::Fit {
                    dst: Some(_), name, ..
                } => Some((lm.strings[name as usize].clone(), i.cost)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_variable_s_tag_is_its_declared_type() {
        let lm = lowered(
            r#"machine M {
                 place any;
                 time t = 5;
                 float g = 1.0;
                 float out = 0.0;
                 state s {
                   when (t as n) do {
                     float x = 5;
                     out = x / 2;                 // `x` holds 5.0
                     out = x * 0.5;
                     out = g * 2.0;               // a machine variable
                     out = n + 1;                 // a trigger's payload: untyped
                     out = to_float(n) - 1;       // a builtin's result type
                   }
                   when (recv float v from harvester) do { out = v / 2; }
                 }
               }"#,
        );
        let code = &lm.handlers[0].body;
        assert_eq!(
            arithmetic(code),
            ["float", "float", "float", "any", "float"]
        );
        // The int constant is widened when it is lowered; the sum of an
        // untyped payload and an int is fitted into `out`.
        assert!(lm.consts.contains(&Value::Float(5.0)));
        assert!(!lm.consts.contains(&Value::Int(5)));
        assert_eq!(fits(&lm, code), [("out".to_string(), 0)]);
        // A `recv float` payload is copied, which dispatch widens, and is
        // a float from there on.
        let recv = &lm.handlers[1];
        assert_eq!(recv.bind, Bind::Copy);
        assert_eq!(arithmetic(&recv.body), ["float"]);
    }

    #[test]
    fn a_store_lowering_cannot_type_is_fitted_at_no_cost() {
        let lm = lowered(
            r#"fun half(float x): float { return x / 2; }
               fun first(list xs): long { return list_get(xs, 0); }
               machine M {
                 place any;
                 time t = 5;
                 poll p = Poll { .ival = 1, .what = port ANY };
                 long out = 0;
                 float f = 0.0;
                 state s {
                   when (t as n) do {
                     long k = 1;
                     int i = 0;
                     while (i < 3) {
                       out = k + 1;
                       k = pair_first(pair(n, i));
                       i = i + 1;
                     }
                     f = half(3);
                   }
                   when (p as stats) do { out = first(stats); }
                 }
               }"#,
        );
        let code = &lm.handlers[0].body;
        assert_eq!(arithmetic(code), ["int", "int"]);
        // `k` takes an `any`; `3` goes into `x` as 3.0; `stats`, a
        // trigger's payload, is checked where `first` reads it in place.
        assert_eq!(fits(&lm, code), [("k".to_string(), 0)]);
        assert!(lm.consts.contains(&Value::Float(3.0)));
        assert!(kinds(&lm.handlers[1].body).iter().any(|k| matches!(
            k,
            Kind::Fit {
                dst: None,
                src: Src::Ref(0),
                ty: Type::List,
                ..
            }
        )));
        // A `return` is a store into the declared result; a body that
        // ends in one has no fitted fall-through after it.
        assert_eq!(arithmetic(&lm.functions[0].body), ["float"]);
        assert_eq!(fits(&lm, &lm.functions[0].body), []);
        assert_eq!(
            fits(&lm, &lm.functions[1].body),
            [("first()".to_string(), 0)]
        );
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
