//! Lowering: a checked machine → the slot-resolved form the seed VM runs.
//!
//! The seed interpreter in `farm-soil` runs one handler per poll of every
//! seed on every switch, so nothing on that path may look a name up. This
//! pass runs once per [`crate::compile::CompiledMachine`] and resolves
//! every name ahead of time:
//!
//! * machine variables → dense global slots ([`Place::Global`]; the name
//!   table, sorted so snapshots need no sort, stays here in the def),
//! * handler/function parameters and block-scoped locals → frame slots
//!   ([`Place::Local`]) with a statically known frame size — every
//!   declaration gets its own slot, so shadowing and per-iteration
//!   re-initialisation of loop-body locals fall out of plain scoping,
//! * states → `u32` ids with a per-state handler table (state handlers
//!   first, then the machine-level ones they may override),
//! * user functions → indices, runtime-library calls → [`Op`] tags,
//!   literals → prebuilt [`Value`]s.
//!
//! The tree keeps one node per source expression and statement, because
//! the VM charges abstract CPU cost per node evaluated and that cost model
//! is part of the simulator's observable behaviour.
//!
//! Lowering is total. The type checker accepts a few names the runtime
//! never binds (state-level variables, trigger variables read as values);
//! those, and anything an unchecked program gets wrong, lower to
//! [`Expr::Fail`] nodes carrying the runtime error they raise when — and
//! only when — they are evaluated.

use std::collections::BTreeMap;

use farm_netsim::switch::ResourceKind;
use farm_netsim::types::{FilterAtom, FilterFormula, PortSel};

use crate::analysis::ConstEnv;
use crate::ast::{
    self, Action, BinOp, DeclKind, EventDecl, FilterExpr, FunDecl, Literal, Machine, MsgEndpoint,
    Trigger, Type, UnOp, VarDecl,
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
    /// Auxiliary functions, referenced by [`Expr::CallFn`].
    pub functions: Vec<Function>,
}

impl LoweredMachine {
    /// Global slot of a machine variable.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        self.globals.binary_search_by(|g| g.as_str().cmp(name)).ok()
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

/// An event handler.
#[derive(Debug, Clone)]
pub struct Handler {
    pub on: On,
    /// The event's payload is bound: it goes to frame slot 0.
    pub binds: bool,
    /// Frame slots the body needs (the bound payload included).
    pub frame: u32,
    pub body: Vec<Stmt>,
}

/// An auxiliary function. Arguments go to the first frame slots.
#[derive(Debug, Clone)]
pub struct Function {
    pub frame: u32,
    pub body: Vec<Stmt>,
}

/// A resolved variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Slot of the seed's machine variables.
    Global(u32),
    /// Slot of the running handler's or function's frame.
    Local(u32),
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `x = e;`, or a local declaration with an initialiser.
    Set(Place, Expr),
    /// A local declaration without initialiser.
    Init(u32, Value),
    /// An expression evaluated for its effects (also `p.ival = e;`, whose
    /// rescheduling is the soil's business, not the VM's).
    Eval(Expr),
    Transit(u32),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    Return(Option<Expr>),
    /// `send e to harvester;` when `to` is `None`.
    Send {
        value: Expr,
        to: Option<SendTo>,
    },
}

/// Destination of a `send … to M[@switch]`.
#[derive(Debug, Clone)]
pub struct SendTo {
    pub machine: String,
    pub at: Option<Expr>,
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

/// An expression.
#[derive(Debug, Clone)]
pub enum Expr {
    Const(Value),
    Var(Place),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Filter(FilterField, Box<Expr>),
    /// `base.field`; `resource` is the field's meaning on a `res()` value.
    Field {
        base: Box<Expr>,
        field: String,
        resource: Option<ResourceKind>,
    },
    /// `Rule { .pattern = …, .act = … }`, fields in source order.
    Rule(Vec<(String, Expr)>),
    /// Runtime-library call; the argument count matches the signature.
    Call(Op, Vec<Expr>),
    /// A list builtin that mutates variable `name` in place (`target` is
    /// `None` when the runtime binds no such variable).
    Mutate {
        op: Op,
        name: String,
        target: Option<Place>,
        arg: Option<Box<Expr>>,
    },
    /// Call of [`LoweredMachine::functions`]`[i]`.
    CallFn(u32, Vec<Expr>),
    /// Raises this runtime error when evaluated.
    Fail(String),
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
    let cx = Context {
        globals: &globals,
        machine,
        functions,
    };

    let mut handlers = Vec::new();
    let mut add = |ev: &EventDecl| {
        handlers.push(cx.handler(ev));
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
    let functions = functions.iter().map(|f| cx.function(f)).collect();
    LoweredMachine {
        init: init.into_values().collect(),
        globals,
        states,
        handlers,
        functions,
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
}

impl<'a> Context<'a> {
    fn handler(&self, ev: &'a EventDecl) -> Handler {
        let mut scope = Scope::new(self);
        let (on, bind) = match &ev.trigger {
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
        if let Some(name) = bind {
            scope.declare(name);
        }
        let body = scope.block(&ev.actions);
        Handler {
            on,
            binds: bind.is_some(),
            frame: scope.frame,
            body,
        }
    }

    fn function(&self, f: &'a FunDecl) -> Function {
        let mut scope = Scope::new(self);
        for (_, name) in &f.params {
            scope.declare(name);
        }
        let body = scope.block(&f.body);
        Function {
            frame: scope.frame,
            body,
        }
    }
}

/// Name resolution inside one handler or function body.
struct Scope<'a> {
    cx: &'a Context<'a>,
    /// Visible locals, innermost last; a block forgets its own on exit.
    locals: Vec<(&'a str, u32)>,
    /// Frame slots handed out so far.
    frame: u32,
}

impl<'a> Scope<'a> {
    fn new(cx: &'a Context<'a>) -> Scope<'a> {
        Scope {
            cx,
            locals: Vec::new(),
            frame: 0,
        }
    }

    fn declare(&mut self, name: &'a str) -> u32 {
        let slot = self.frame;
        self.frame += 1;
        self.locals.push((name, slot));
        slot
    }

    /// Locals shadow machine variables, inner blocks shadow outer ones.
    fn resolve(&self, name: &str) -> Option<Place> {
        if let Some((_, slot)) = self.locals.iter().rev().find(|(n, _)| *n == name) {
            return Some(Place::Local(*slot));
        }
        global_slot(self.cx.globals, name).map(|i| Place::Global(i as u32))
    }

    fn block(&mut self, actions: &'a [Action]) -> Vec<Stmt> {
        let mark = self.locals.len();
        let mut stmts = Vec::with_capacity(actions.len());
        for a in actions {
            self.stmt(a, &mut stmts);
        }
        self.locals.truncate(mark);
        stmts
    }

    fn stmt(&mut self, a: &'a Action, out: &mut Vec<Stmt>) {
        let stmt = match a {
            Action::Local(v) => match &v.init {
                // The initialiser still sees the name's outer meaning.
                Some(init) => {
                    let init = self.expr(init);
                    Stmt::Set(Place::Local(self.declare(&v.name)), init)
                }
                None => Stmt::Init(self.declare(&v.name), default_value(v)),
            },
            Action::Assign {
                target,
                field,
                value,
                ..
            } => {
                let value = self.expr(value);
                match (field, self.resolve(target)) {
                    (Some(_), _) => Stmt::Eval(value),
                    (None, Some(place)) => Stmt::Set(place, value),
                    (None, None) => {
                        out.push(Stmt::Eval(value));
                        fail(format!("assignment to unknown variable `{target}`"))
                    }
                }
            }
            Action::Transit { state, .. } => {
                match self.cx.machine.states.iter().position(|s| s.name == *state) {
                    Some(id) => Stmt::Transit(id as u32),
                    None => fail(format!("transit to unknown state `{state}`")),
                }
            }
            Action::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => Stmt::If(
                self.expr(cond),
                self.block(then_branch),
                self.block(else_branch),
            ),
            Action::While { cond, body, .. } => Stmt::While(self.expr(cond), self.block(body)),
            Action::Return { value, .. } => Stmt::Return(value.as_ref().map(|e| self.expr(e))),
            Action::Send { value, to, .. } => Stmt::Send {
                value: self.expr(value),
                to: match to {
                    MsgEndpoint::Harvester => None,
                    MsgEndpoint::Machine { name, at } => Some(SendTo {
                        machine: name.clone(),
                        at: at.as_ref().map(|e| self.expr(e)),
                    }),
                },
            },
            Action::ExprStmt { expr, .. } => Stmt::Eval(self.expr(expr)),
        };
        out.push(stmt);
    }

    fn boxed(&self, e: &ast::Expr) -> Box<Expr> {
        Box::new(self.expr(e))
    }

    fn expr(&self, e: &ast::Expr) -> Expr {
        match e {
            ast::Expr::Lit(l, _) => Expr::Const(match l {
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(f) => Value::Float(*f),
                Literal::Str(s) => Value::Str(s.clone()),
            }),
            ast::Expr::Var(name, _) => match self.resolve(name) {
                Some(place) => Expr::Var(place),
                None => Expr::Fail(format!("unknown variable `{name}`")),
            },
            ast::Expr::Filter(f, _) => {
                let (field, arg) = match f {
                    FilterExpr::SrcIp(e) => (FilterField::SrcIp, e),
                    FilterExpr::DstIp(e) => (FilterField::DstIp, e),
                    FilterExpr::SrcPort(e) => (FilterField::SrcPort, e),
                    FilterExpr::DstPort(e) => (FilterField::DstPort, e),
                    FilterExpr::Proto(e) => (FilterField::Proto, e),
                    FilterExpr::IfPort(e) => (FilterField::IfPort, e),
                    FilterExpr::IfPortAny => {
                        let any = FilterAtom::IfPort(PortSel::Any);
                        return Expr::Const(Value::Filter(FilterFormula::Atom(any)));
                    }
                };
                Expr::Filter(field, self.boxed(arg))
            }
            ast::Expr::Unary(UnOp::Not, inner, _) => Expr::Not(self.boxed(inner)),
            ast::Expr::Unary(UnOp::Neg, inner, _) => Expr::Neg(self.boxed(inner)),
            ast::Expr::Binary(op, a, b, _) => Expr::Binary(*op, self.boxed(a), self.boxed(b)),
            ast::Expr::Field(base, field, _) => Expr::Field {
                base: self.boxed(base),
                field: field.clone(),
                resource: ResourceKind::from_field_name(field),
            },
            ast::Expr::StructLit { name, fields, .. } if name == "Rule" => Expr::Rule(
                fields
                    .iter()
                    .map(|(f, e)| (f.clone(), self.expr(e)))
                    .collect(),
            ),
            // Poll/Probe literals configure the soil's scheduler; to the
            // VM they are unit, their fields never evaluated.
            ast::Expr::StructLit { .. } => Expr::Const(Value::Unit),
            ast::Expr::Call { name, args, .. } => self.call(name, args),
        }
    }

    fn call(&self, name: &str, args: &[ast::Expr]) -> Expr {
        // User functions first (the checker forbids shadowing builtins).
        if let Some(i) = self.cx.functions.iter().position(|f| f.name == name) {
            return Expr::CallFn(i as u32, args.iter().map(|a| self.expr(a)).collect());
        }
        let Some(b) = builtin(name) else {
            return Expr::Fail(format!("unknown builtin `{name}`"));
        };
        if args.len() != b.params.len() {
            return Expr::Fail(format!("bad arguments to `{name}`"));
        }
        if !b.mutates_first_arg {
            return Expr::Call(b.op, args.iter().map(|a| self.expr(a)).collect());
        }
        let ast::Expr::Var(var, _) = &args[0] else {
            return Expr::Fail(format!("`{name}` needs a variable argument"));
        };
        Expr::Mutate {
            op: b.op,
            name: var.clone(),
            target: self.resolve(var),
            arg: args.get(1).map(|a| self.boxed(a)),
        }
    }
}

fn fail(message: String) -> Stmt {
    Stmt::Eval(Expr::Fail(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::frontend;

    fn lowered(src: &str) -> LoweredMachine {
        let program = frontend(src).unwrap();
        lower(&program.machines[0], &program.functions, &ConstEnv::new())
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
        assert!(matches!(lm.handlers[1].body[0], Stmt::Transit(1)));
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
                   }
                 }
               }"#,
        );
        let h = &lm.handlers[0];
        assert!(h.binds);
        assert_eq!(h.frame, 3);
        // The initialiser reads the machine variable, then the local
        // (slot 1, after the payload in slot 0) shadows it.
        let Stmt::Set(Place::Local(1), Expr::Binary(_, lhs, _)) = &h.body[0] else {
            panic!("{:?}", h.body[0]);
        };
        assert!(matches!(**lhs, Expr::Var(Place::Global(0))));
        let Stmt::If(_, then, _) = &h.body[1] else {
            panic!("{:?}", h.body[1]);
        };
        assert!(matches!(then[1], Stmt::Set(Place::Local(2), _)));
        assert!(matches!(h.body[2], Stmt::Set(Place::Local(1), _)));
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
        let body = &lm.handlers[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Eval(Expr::Mutate { target: None, .. })
        ));
        assert!(matches!(&body[1], Stmt::Eval(Expr::Fail(m)) if m.contains("unknown variable")));
        assert!(
            matches!(&body[2], Stmt::Eval(Expr::Fail(m)) if m.contains("assignment to unknown"))
        );
    }
}
