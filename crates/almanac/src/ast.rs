//! Abstract syntax tree of Almanac (the grammar of the paper's Fig. 3).

use crate::error::Span;

/// A whole Almanac compilation unit: auxiliary functions plus machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub functions: Vec<FunDecl>,
    pub machines: Vec<Machine>,
}

impl Program {
    /// Finds a machine by name.
    pub fn machine(&self, name: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.name == name)
    }
}

/// An auxiliary function (`fundec` in the grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct FunDecl {
    pub name: String,
    pub params: Vec<(Type, String)>,
    pub ret: Option<Type>,
    pub body: Vec<Action>,
    pub(crate) span: Span,
}

/// A seed state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub name: String,
    pub extends: Option<String>,
    pub placements: Vec<PlaceDirective>,
    pub vars: Vec<VarDecl>,
    pub states: Vec<StateDecl>,
    /// Machine-level events apply in every state (overridable per state).
    pub events: Vec<EventDecl>,
    pub span: Span,
}

impl Machine {
    /// Finds a state by name.
    pub fn state(&self, name: &str) -> Option<&StateDecl> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Trigger variables (time/poll/probe) declared on the machine.
    pub(crate) fn trigger_vars(&self) -> impl Iterator<Item = &VarDecl> {
        self.vars.iter().filter(|v| v.trigger().is_some())
    }
}

/// Value types (`typ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    Bool,
    Int,
    Long,
    Float,
    Str,
    List,
    Packet,
    Action,
    Filter,
    Rule,
    /// The `res()` structure passed to `util` callbacks.
    Resources,
    /// One polled statistics entry.
    Stat,
    /// Escape hatch for heterogeneous list elements / pairs.
    Any,
}

impl Type {
    /// Keyword spelling of the type.
    pub fn keyword(self) -> &'static str {
        match self {
            Type::Bool => "bool",
            Type::Int => "int",
            Type::Long => "long",
            Type::Float => "float",
            Type::Str => "string",
            Type::List => "list",
            Type::Packet => "packet",
            Type::Action => "action",
            Type::Filter => "filter",
            Type::Rule => "rule",
            Type::Resources => "resources",
            Type::Stat => "stat",
            Type::Any => "any",
        }
    }

    /// True if a value of type `other` is acceptable where `self` is
    /// expected (int/long unify; everything matches `Any`).
    pub(crate) fn accepts(self, other: Type) -> bool {
        use Type::*;
        if self == Any || other == Any {
            return true;
        }
        matches!(
            (self, other),
            (Bool, Bool)
                | (Int, Int)
                | (Int, Long)
                | (Long, Long)
                | (Long, Int)
                | (Float, Float)
                | (Float, Int)
                | (Float, Long)
                | (Str, Str)
                | (List, List)
                | (Packet, Packet)
                | (Action, Action)
                | (Filter, Filter)
                | (Rule, Rule)
                | (Resources, Resources)
                | (Stat, Stat)
        )
    }
}

/// Trigger variable types (`tty`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerType {
    /// Strictly periodic timer.
    Time,
    /// Periodic ASIC statistics polling (subject in `.what`).
    Poll,
    /// Packet sampling (subject in `.what`; period is a lower bound).
    Probe,
}

impl TriggerType {
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            TriggerType::Time => "time",
            TriggerType::Poll => "poll",
            TriggerType::Probe => "probe",
        }
    }
}

/// Kind of a variable declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclKind {
    Plain(Type),
    Trigger(TriggerType),
}

/// A variable declaration (`xd`).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Customizable at deployment (machine level only).
    pub external: bool,
    pub kind: DeclKind,
    pub name: String,
    pub init: Option<Expr>,
    pub span: Span,
}

impl VarDecl {
    /// The declared type; `any` for a trigger variable, which the
    /// runtime never binds as a value.
    pub fn declared_type(&self) -> Type {
        match self.kind {
            DeclKind::Plain(t) => t,
            DeclKind::Trigger(_) => Type::Any,
        }
    }

    /// The trigger type, if this is a trigger variable.
    pub fn trigger(&self) -> Option<TriggerType> {
        match self.kind {
            DeclKind::Trigger(t) => Some(t),
            DeclKind::Plain(_) => None,
        }
    }
}

/// A discrete state (`st`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateDecl {
    pub name: String,
    pub vars: Vec<VarDecl>,
    pub util: Option<UtilDecl>,
    pub events: Vec<EventDecl>,
    pub span: Span,
}

/// The per-state utility callback (`ut`).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilDecl {
    /// Name bound to the resource-allocation argument.
    pub(crate) param: String,
    pub(crate) body: Vec<Action>,
    pub(crate) span: Span,
}

/// An event handler (`ev`).
#[derive(Debug, Clone, PartialEq)]
pub struct EventDecl {
    pub trigger: Trigger,
    pub actions: Vec<Action>,
    pub span: Span,
}

/// Event triggers (`trg`).
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Entering the state.
    Enter,
    /// Leaving the state.
    Exit,
    /// Resource reallocation by the seeder.
    Realloc,
    /// A trigger variable firing, optionally binding its payload.
    Var { name: String, bind: Option<String> },
    /// Message reception with a typed pattern.
    Recv {
        ty: Type,
        bind: String,
        from: MsgEndpoint,
    },
}

/// Message source/destination (`mname [@dst] | harvester`).
#[derive(Debug, Clone, PartialEq)]
pub enum MsgEndpoint {
    Harvester,
    Machine { name: String, at: Option<Expr> },
}

/// A placement directive (`pl`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceDirective {
    pub quant: PlaceQuant,
    pub constraint: PlaceConstraint,
    pub span: Span,
}

/// `all` / `any` quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceQuant {
    All,
    Any,
}

/// Placement constraint body (`pc`).
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceConstraint {
    /// No constraint: all switches.
    None,
    /// Explicit switch-id expressions.
    Switches(Vec<Expr>),
    /// Path-relative constraint (`ra`).
    Range {
        role: Option<PathRole>,
        /// Filter expression selecting the paths (all paths if absent).
        filter: Option<Expr>,
        op: CmpOp,
        dist: Expr,
    },
}

/// Path anchor of a range constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRole {
    Sender,
    Receiver,
    Midpoint,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Cmp(CmpOp),
}

/// Comparison operators (`<>` is not-equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// Literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

/// Filter atoms as expression syntax (`fil`).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    SrcIp(Box<Expr>),
    DstIp(Box<Expr>),
    SrcPort(Box<Expr>),
    DstPort(Box<Expr>),
    Proto(Box<Expr>),
    /// `port <expr>` — a switch interface.
    IfPort(Box<Expr>),
    /// `port ANY` — every switch interface.
    IfPortAny,
}

/// Expressions (`ex`).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Literal, Span),
    Var(String, Span),
    Filter(FilterExpr, Span),
    Unary(UnOp, Box<Expr>, Span),
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    Call {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// Field access: `res.vCPU`, `pkt.len` style.
    Field(Box<Expr>, String, Span),
    /// Struct literal: `Poll { .ival = …, .what = … }`.
    StructLit {
        name: String,
        fields: Vec<(String, Expr)>,
        span: Span,
    },
}

impl Expr {
    /// Source position of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Lit(_, s)
            | Expr::Var(_, s)
            | Expr::Filter(_, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call { span: s, .. }
            | Expr::Field(_, _, s)
            | Expr::StructLit { span: s, .. } => *s,
        }
    }
}

/// Statements (`ac`).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `x = e;` or `x.field = e;`
    Assign {
        target: String,
        field: Option<String>,
        value: Expr,
        span: Span,
    },
    /// `transit sname;`
    Transit {
        state: String,
        span: Span,
    },
    If {
        cond: Expr,
        then_branch: Vec<Action>,
        else_branch: Vec<Action>,
        span: Span,
    },
    While {
        cond: Expr,
        body: Vec<Action>,
        span: Span,
    },
    Return {
        value: Option<Expr>,
        span: Span,
    },
    /// `send e to harvester;` / `send e to M;` / `send e to M@dst;`
    Send {
        value: Expr,
        to: MsgEndpoint,
        span: Span,
    },
    /// Bare call for side effects: `f(a, b);`
    ExprStmt {
        expr: Expr,
        span: Span,
    },
    /// Local declaration inside a block: `int i = 0;`
    Local(VarDecl),
}

impl Action {
    /// Source position of the statement.
    pub(crate) fn span(&self) -> Span {
        match self {
            Action::Assign { span, .. }
            | Action::Transit { span, .. }
            | Action::If { span, .. }
            | Action::While { span, .. }
            | Action::Return { span, .. }
            | Action::Send { span, .. }
            | Action::ExprStmt { span, .. } => *span,
            Action::Local(v) => v.span,
        }
    }
}

/// Whether running `actions` always ends in a `return`: one of them is a
/// `return`, or an `if` whose two branches both always return. A loop
/// never counts, since its body may run no time at all.
pub(crate) fn always_returns(actions: &[Action]) -> bool {
    actions.iter().any(|a| match a {
        Action::Return { .. } => true,
        Action::If {
            then_branch,
            else_branch,
            ..
        } => always_returns(then_branch) && always_returns(else_branch),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_acceptance_unifies_int_long() {
        assert!(Type::Long.accepts(Type::Int));
        assert!(Type::Int.accepts(Type::Long));
        assert!(Type::Float.accepts(Type::Int));
        assert!(!Type::Int.accepts(Type::Float));
        assert!(!Type::Str.accepts(Type::Int));
        assert!(Type::Any.accepts(Type::Rule));
        assert!(Type::List.accepts(Type::Any));
    }

    #[test]
    fn machine_lookup_helpers() {
        let m = Machine {
            name: "M".into(),
            extends: None,
            placements: vec![],
            vars: vec![VarDecl {
                external: false,
                kind: DeclKind::Trigger(TriggerType::Poll),
                name: "p".into(),
                init: None,
                span: Span::default(),
            }],
            states: vec![StateDecl {
                name: "s".into(),
                vars: vec![],
                util: None,
                events: vec![],
                span: Span::default(),
            }],
            events: vec![],
            span: Span::default(),
        };
        assert!(m.state("s").is_some());
        assert!(m.state("t").is_none());
        assert_eq!(m.trigger_vars().count(), 1);
    }
}
