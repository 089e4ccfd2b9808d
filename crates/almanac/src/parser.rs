//! Recursive-descent parser for Almanac.
//!
//! Implements the grammar of the paper's Fig. 3 with the concrete syntax of
//! its List. 2 example, plus auxiliary function declarations (`fundec`,
//! which the paper elides):
//!
//! ```text
//! fun getHH(list stats, long threshold): list { … }
//! machine HH extends Base {
//!     place all;
//!     poll pollStats = Poll { .ival = 10/res().PCIe, .what = port ANY };
//!     external long threshold;
//!     state observe { util (res) { … } when (pollStats as stats) do { … } }
//!     when (recv long newTh from harvester) do { threshold = newTh; }
//! }
//! ```

use crate::ast::*;
use crate::error::{AlmanacError, Result, Span};
use crate::lexer::{lex, SpannedTok, Tok};

/// How deep a program may nest. A statement, a parenthesised or
/// argument expression, a prefix operator and a binary operator, field
/// access, call or filter over its operands each count one level; a
/// construct nested deeper is refused with its line and column. The
/// parser refuses it before it recurses or builds that deep, so neither
/// it nor any later pass over the tree (type checking, lowering,
/// analysis, printing, dropping) recurses deeper than this. 128 levels
/// parse and compile on a 2 MiB thread in a debug build; 256 did not.
pub const MAX_NESTING: usize = 128;

/// Parses a complete Almanac program.
///
/// # Errors
///
/// Returns the first lex or parse error with its source span, among
/// them a construct nested deeper than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<Program> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
        height: 0,
    }
    .program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// The levels open around the construct being parsed.
    depth: usize,
    /// The levels the last expression parsed holds below its own.
    height: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn next(&mut self) -> SpannedTok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> AlmanacError {
        AlmanacError::parse(self.span(), msg)
    }

    /// Opens a level around what is parsed next; [`Parser::leave`]
    /// closes it.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep(self.span()));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// An expression node `height` levels tall at `span`, under the
    /// levels open around it.
    fn grow(&mut self, height: usize, span: Span) -> Result<()> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep(span));
        }
        self.height = height;
        Ok(())
    }

    fn too_deep(&self, span: Span) -> AlmanacError {
        AlmanacError::parse(span, format!("nested deeper than {MAX_NESTING} levels"))
    }

    fn expect(&mut self, tok: Tok) -> Result<Span> {
        if *self.peek() == tok {
            Ok(self.next().span)
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                tok.describe(),
                self.peek().describe()
            )))
        }
    }

    /// Consumes an identifier token, any spelling.
    fn ident(&mut self) -> Result<(String, Span)> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let sp = self.next().span;
                Ok((s, sp))
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    /// True if the next token is the given keyword.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Consumes the given keyword.
    fn kw(&mut self, kw: &str) -> Result<Span> {
        if self.at_kw(kw) {
            Ok(self.next().span)
        } else {
            Err(self.err(format!(
                "expected keyword `{kw}`, found {}",
                self.peek().describe()
            )))
        }
    }

    fn type_of_kw(s: &str) -> Option<Type> {
        Some(match s {
            "bool" => Type::Bool,
            "int" => Type::Int,
            "long" => Type::Long,
            "float" => Type::Float,
            "string" => Type::Str,
            "list" => Type::List,
            "packet" => Type::Packet,
            "action" => Type::Action,
            "filter" => Type::Filter,
            "rule" => Type::Rule,
            "resources" => Type::Resources,
            "stat" => Type::Stat,
            _ => return None,
        })
    }

    fn trigger_of_kw(s: &str) -> Option<TriggerType> {
        Some(match s {
            "time" => TriggerType::Time,
            "poll" => TriggerType::Poll,
            "probe" => TriggerType::Probe,
            _ => return None,
        })
    }

    // ---- top level ------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut functions = Vec::new();
        let mut machines = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(s) if s == "fun" => functions.push(self.fun_decl()?),
                Tok::Ident(s) if s == "machine" => machines.push(self.machine()?),
                other => {
                    return Err(self.err(format!(
                        "expected `fun` or `machine`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Program {
            functions,
            machines,
        })
    }

    fn fun_decl(&mut self) -> Result<FunDecl> {
        let span = self.kw("fun")?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let (tykw, tysp) = self.ident()?;
                let ty = Self::type_of_kw(&tykw).ok_or_else(|| {
                    AlmanacError::parse(tysp, format!("unknown parameter type `{tykw}`"))
                })?;
                let (pname, _) = self.ident()?;
                params.push((ty, pname));
                if *self.peek() == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if *self.peek() == Tok::Colon {
            self.next();
            let (tykw, tysp) = self.ident()?;
            Some(Self::type_of_kw(&tykw).ok_or_else(|| {
                AlmanacError::parse(tysp, format!("unknown return type `{tykw}`"))
            })?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FunDecl {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn machine(&mut self) -> Result<Machine> {
        let span = self.kw("machine")?;
        let (name, _) = self.ident()?;
        let extends = if self.at_kw("extends") {
            self.next();
            Some(self.ident()?.0)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let mut placements = Vec::new();
        let mut vars = Vec::new();
        let mut states = Vec::new();
        let mut events = Vec::new();
        while *self.peek() != Tok::RBrace {
            match self.peek() {
                Tok::Ident(s) if s == "place" => placements.push(self.place_directive()?),
                Tok::Ident(s) if s == "state" => states.push(self.state_decl()?),
                Tok::Ident(s) if s == "when" => events.push(self.event_decl()?),
                Tok::Ident(s)
                    if s == "external"
                        || Self::type_of_kw(s).is_some()
                        || Self::trigger_of_kw(s).is_some() =>
                {
                    vars.push(self.var_decl(true)?)
                }
                other => {
                    return Err(self.err(format!(
                        "expected placement, variable, state or event in machine body, found {}",
                        other.describe()
                    )))
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Machine {
            name,
            extends,
            placements,
            vars,
            states,
            events,
            span,
        })
    }

    fn var_decl(&mut self, allow_external: bool) -> Result<VarDecl> {
        let span = self.span();
        let external = if self.at_kw("external") {
            if !allow_external {
                return Err(self.err("`external` is only allowed at machine level"));
            }
            self.next();
            true
        } else {
            false
        };
        let (kw, kwsp) = self.ident()?;
        let kind = if let Some(t) = Self::trigger_of_kw(&kw) {
            if external {
                return Err(AlmanacError::parse(
                    kwsp,
                    "trigger variables cannot be external",
                ));
            }
            DeclKind::Trigger(t)
        } else if let Some(t) = Self::type_of_kw(&kw) {
            DeclKind::Plain(t)
        } else {
            return Err(AlmanacError::parse(
                kwsp,
                format!("unknown type `{kw}` in variable declaration"),
            ));
        };
        let (name, _) = self.ident()?;
        let init = if *self.peek() == Tok::Assign {
            self.next();
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(VarDecl {
            external,
            kind,
            name,
            init,
            span,
        })
    }

    fn place_directive(&mut self) -> Result<PlaceDirective> {
        let span = self.kw("place")?;
        let quant = if self.at_kw("all") {
            self.next();
            PlaceQuant::All
        } else if self.at_kw("any") {
            self.next();
            PlaceQuant::Any
        } else {
            return Err(self.err("expected `all` or `any` after `place`"));
        };
        // Bare `place all;`
        if *self.peek() == Tok::Semi {
            self.next();
            return Ok(PlaceDirective {
                quant,
                constraint: PlaceConstraint::None,
                span,
            });
        }
        // Role keyword → range constraint.
        let role = if self.at_kw("sender") {
            self.next();
            Some(PathRole::Sender)
        } else if self.at_kw("receiver") {
            self.next();
            Some(PathRole::Receiver)
        } else if self.at_kw("midpoint") {
            self.next();
            Some(PathRole::Midpoint)
        } else {
            None
        };
        if self.at_kw("range") {
            let (op, dist) = self.range_tail()?;
            self.expect(Tok::Semi)?;
            return Ok(PlaceDirective {
                quant,
                constraint: PlaceConstraint::Range {
                    role,
                    filter: None,
                    op,
                    dist,
                },
                span,
            });
        }
        // An expression follows: either the range's path filter or the
        // first element of an explicit switch list.
        let first = self.expr()?;
        if self.at_kw("range") {
            let (op, dist) = self.range_tail()?;
            self.expect(Tok::Semi)?;
            return Ok(PlaceDirective {
                quant,
                constraint: PlaceConstraint::Range {
                    role,
                    filter: Some(first),
                    op,
                    dist,
                },
                span,
            });
        }
        if role.is_some() {
            return Err(self.err("expected `range` after placement role and filter"));
        }
        let mut switches = vec![first];
        while *self.peek() == Tok::Comma {
            self.next();
            switches.push(self.expr()?);
        }
        self.expect(Tok::Semi)?;
        Ok(PlaceDirective {
            quant,
            constraint: PlaceConstraint::Switches(switches),
            span,
        })
    }

    fn range_tail(&mut self) -> Result<(CmpOp, Expr)> {
        self.kw("range")?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Le => CmpOp::Le,
            Tok::Ge => CmpOp::Ge,
            Tok::Lt => CmpOp::Lt,
            Tok::Gt => CmpOp::Gt,
            other => {
                return Err(self.err(format!(
                    "expected comparison operator after `range`, found {}",
                    other.describe()
                )))
            }
        };
        self.next();
        let dist = self.expr()?;
        Ok((op, dist))
    }

    fn state_decl(&mut self) -> Result<StateDecl> {
        let span = self.kw("state")?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut vars = Vec::new();
        let mut util = None;
        let mut events = Vec::new();
        while *self.peek() != Tok::RBrace {
            match self.peek() {
                Tok::Ident(s) if s == "util" => {
                    if util.is_some() {
                        return Err(self.err("duplicate `util` in state"));
                    }
                    util = Some(self.util_decl()?);
                }
                Tok::Ident(s) if s == "when" => events.push(self.event_decl()?),
                Tok::Ident(s)
                    if Self::type_of_kw(s).is_some() || Self::trigger_of_kw(s).is_some() =>
                {
                    vars.push(self.var_decl(false)?)
                }
                other => {
                    return Err(self.err(format!(
                        "expected `util`, `when` or variable in state body, found {}",
                        other.describe()
                    )))
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(StateDecl {
            name,
            vars,
            util,
            events,
            span,
        })
    }

    fn util_decl(&mut self) -> Result<UtilDecl> {
        let span = self.kw("util")?;
        self.expect(Tok::LParen)?;
        let (param, _) = self.ident()?;
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(UtilDecl { param, body, span })
    }

    fn event_decl(&mut self) -> Result<EventDecl> {
        let span = self.kw("when")?;
        self.expect(Tok::LParen)?;
        let trigger = self.trigger()?;
        self.expect(Tok::RParen)?;
        self.kw("do")?;
        let actions = self.block()?;
        Ok(EventDecl {
            trigger,
            actions,
            span,
        })
    }

    fn trigger(&mut self) -> Result<Trigger> {
        if self.at_kw("enter") {
            self.next();
            return Ok(Trigger::Enter);
        }
        if self.at_kw("exit") {
            self.next();
            return Ok(Trigger::Exit);
        }
        if self.at_kw("realloc") {
            self.next();
            return Ok(Trigger::Realloc);
        }
        if self.at_kw("recv") {
            self.next();
            let (tykw, tysp) = self.ident()?;
            let ty = Self::type_of_kw(&tykw).ok_or_else(|| {
                AlmanacError::parse(tysp, format!("unknown message type `{tykw}`"))
            })?;
            let (bind, _) = self.ident()?;
            self.kw("from")?;
            let from = self.endpoint()?;
            return Ok(Trigger::Recv { ty, bind, from });
        }
        // Trigger variable, optionally binding its payload.
        let (name, _) = self.ident()?;
        let bind = if self.at_kw("as") {
            self.next();
            Some(self.ident()?.0)
        } else {
            None
        };
        Ok(Trigger::Var { name, bind })
    }

    fn endpoint(&mut self) -> Result<MsgEndpoint> {
        let (name, _) = self.ident()?;
        if name == "harvester" {
            return Ok(MsgEndpoint::Harvester);
        }
        let at = if *self.peek() == Tok::At {
            self.next();
            Some(self.primary()?)
        } else {
            None
        };
        Ok(MsgEndpoint::Machine { name, at })
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Action>> {
        self.expect(Tok::LBrace)?;
        let mut actions = Vec::new();
        while *self.peek() != Tok::RBrace {
            actions.push(self.action()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(actions)
    }

    fn action(&mut self) -> Result<Action> {
        self.enter()?;
        let action = self.statement();
        self.leave();
        action
    }

    fn statement(&mut self) -> Result<Action> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Ident(s) if s == "if" => {
                self.next();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                self.kw("then")?;
                let then_branch = self.block()?;
                let else_branch = if self.at_kw("else") {
                    self.next();
                    if self.at_kw("if") {
                        vec![self.action()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Action::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            Tok::Ident(s) if s == "while" => {
                self.next();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Action::While { cond, body, span })
            }
            Tok::Ident(s) if s == "return" => {
                self.next();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Action::Return { value, span })
            }
            Tok::Ident(s) if s == "send" => {
                self.next();
                let value = self.expr()?;
                self.kw("to")?;
                let to = self.endpoint()?;
                self.expect(Tok::Semi)?;
                Ok(Action::Send { value, to, span })
            }
            Tok::Ident(s) if s == "transit" => {
                self.next();
                let (state, _) = self.ident()?;
                self.expect(Tok::Semi)?;
                Ok(Action::Transit { state, span })
            }
            // Local declaration: a type keyword followed by an identifier
            // (but `list_len(x)` must not be mistaken for a declaration).
            Tok::Ident(s)
                if Self::type_of_kw(&s).is_some() && matches!(self.peek_at(1), Tok::Ident(_)) =>
            {
                Ok(Action::Local(self.var_decl(false)?))
            }
            Tok::Ident(_) => {
                // Assignment (`x = e;` / `x.f = e;`) or expression statement.
                if matches!(self.peek_at(1), Tok::Assign) {
                    let (target, _) = self.ident()?;
                    self.next(); // '='
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    return Ok(Action::Assign {
                        target,
                        field: None,
                        value,
                        span,
                    });
                }
                if matches!(self.peek_at(1), Tok::Dot)
                    && matches!(self.peek_at(2), Tok::Ident(_))
                    && matches!(self.peek_at(3), Tok::Assign)
                {
                    let (target, _) = self.ident()?;
                    self.next(); // '.'
                    let (field, _) = self.ident()?;
                    self.next(); // '='
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    return Ok(Action::Assign {
                        target,
                        field: Some(field),
                        value,
                        span,
                    });
                }
                let expr = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Action::ExprStmt { expr, span })
            }
            other => Err(self.err(format!("expected statement, found {}", other.describe()))),
        }
    }

    // ---- expressions ----------------------------------------------------

    /// A whole expression, one level below the construct around it.
    fn expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let e = self.or_expr();
        self.leave();
        self.height += 1;
        e
    }

    /// The binary operator at the cursor between `lhs` and the right
    /// operand `rhs` parses: the node over both, one level above the
    /// taller.
    fn binary(
        &mut self,
        lhs: Expr,
        op: BinOp,
        rhs: fn(&mut Parser) -> Result<Expr>,
    ) -> Result<Expr> {
        let left = self.height;
        let span = self.next().span;
        let rhs = rhs(self)?;
        self.grow(left.max(self.height) + 1, span)?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs), span))
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("or") {
            lhs = self.binary(lhs, BinOp::Or, Parser::and_expr)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.at_kw("and") {
            lhs = self.binary(lhs, BinOp::And, Parser::cmp_expr)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => Some(CmpOp::Eq),
            Tok::Ne => Some(CmpOp::Ne),
            Tok::Le => Some(CmpOp::Le),
            Tok::Ge => Some(CmpOp::Ge),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Gt => Some(CmpOp::Gt),
            _ => None,
        };
        match op {
            Some(op) => self.binary(lhs, BinOp::Cmp(op), Parser::add_expr),
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            lhs = self.binary(lhs, op, Parser::mul_expr)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            lhs = self.binary(lhs, op, Parser::unary_expr)?;
        }
        Ok(lhs)
    }

    /// The operand of a prefix operator or a filter at `span`, one level
    /// below it.
    fn operand(&mut self, span: Span) -> Result<Box<Expr>> {
        self.enter()?;
        let e = self.unary_expr();
        self.leave();
        let e = e?;
        self.grow(self.height + 1, span)?;
        Ok(Box::new(e))
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.at_kw("not") {
            let span = self.next().span;
            let inner = self.operand(span)?;
            return Ok(Expr::Unary(UnOp::Not, inner, span));
        }
        if *self.peek() == Tok::Minus {
            let span = self.next().span;
            let inner = self.operand(span)?;
            return Ok(Expr::Unary(UnOp::Neg, inner, span));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while *self.peek() == Tok::Dot {
            let span = self.next().span;
            let (field, _) = self.ident()?;
            self.grow(self.height + 1, span)?;
            e = Expr::Field(Box::new(e), field, span);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        let span = self.span();
        self.height = 0;
        match self.peek().clone() {
            Tok::Int(i) => {
                self.next();
                Ok(Expr::Lit(Literal::Int(i), span))
            }
            Tok::Float(x) => {
                self.next();
                Ok(Expr::Lit(Literal::Float(x), span))
            }
            Tok::Str(s) => {
                self.next();
                Ok(Expr::Lit(Literal::Str(s), span))
            }
            Tok::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                match name.as_str() {
                    "true" => {
                        self.next();
                        return Ok(Expr::Lit(Literal::Bool(true), span));
                    }
                    "false" => {
                        self.next();
                        return Ok(Expr::Lit(Literal::Bool(false), span));
                    }
                    "srcIP" => {
                        self.next();
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::SrcIp(arg), span));
                    }
                    "dstIP" => {
                        self.next();
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::DstIp(arg), span));
                    }
                    "srcPort" => {
                        self.next();
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::SrcPort(arg), span));
                    }
                    "dstPort" => {
                        self.next();
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::DstPort(arg), span));
                    }
                    "proto" => {
                        self.next();
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::Proto(arg), span));
                    }
                    "port" => {
                        self.next();
                        if self.at_kw("ANY") {
                            self.next();
                            return Ok(Expr::Filter(FilterExpr::IfPortAny, span));
                        }
                        let arg = self.operand(span)?;
                        return Ok(Expr::Filter(FilterExpr::IfPort(arg), span));
                    }
                    _ => {}
                }
                self.next();
                // Struct literal: `Name { .field = …, … }`.
                if *self.peek() == Tok::LBrace && *self.peek_at(1) == Tok::Dot {
                    self.next(); // '{'
                    let (mut fields, mut tallest) = (Vec::new(), 0);
                    loop {
                        self.expect(Tok::Dot)?;
                        let (fname, _) = self.ident()?;
                        self.expect(Tok::Assign)?;
                        let fval = self.expr()?;
                        tallest = tallest.max(self.height);
                        fields.push((fname, fval));
                        if *self.peek() == Tok::Comma {
                            self.next();
                            if *self.peek() == Tok::RBrace {
                                break; // trailing comma
                            }
                        } else {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                    self.grow(tallest + 1, span)?;
                    return Ok(Expr::StructLit { name, fields, span });
                }
                // Call: `name(args…)`.
                if *self.peek() == Tok::LParen {
                    self.next();
                    let (mut args, mut tallest) = (Vec::new(), 0);
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            tallest = tallest.max(self.height);
                            if *self.peek() == Tok::Comma {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.grow(tallest + 1, span)?;
                    return Ok(Expr::Call { name, args, span });
                }
                Ok(Expr::Var(name, span))
            }
            other => Err(self.err(format!("expected expression, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_hh_skeleton() {
        let src = r#"
            machine HH {
              place all;
              poll pollStats = Poll {
                .ival = 10/res().PCIe, .what = port ANY
              };
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
                  setHitterRules(hitters, hitterAction);
                  transit observe;
                }
              }
              when (recv long newTh from harvester)
              do { threshold = newTh; }
              when (recv action hitAct from harvester)
              do { hitterAction = hitAct; }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.machines.len(), 1);
        let m = &p.machines[0];
        assert_eq!(m.name, "HH");
        assert_eq!(m.states.len(), 2);
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.vars.len(), 4); // pollStats, threshold, hitterAction, hitters
        assert!(m.vars[1].external);
        assert_eq!(m.trigger_vars().count(), 1);
        assert!(m.state("observe").unwrap().util.is_some());
        // The poll initializer is a struct literal with ival and what.
        match m.vars[0].init.as_ref().unwrap() {
            Expr::StructLit { name, fields, .. } => {
                assert_eq!(name, "Poll");
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, "ival");
                assert_eq!(fields[1].0, "what");
            }
            other => panic!("expected struct literal, got {other:?}"),
        }
    }

    #[test]
    fn parses_functions() {
        let src = r#"
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
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(Type::List));
        assert_eq!(f.body.len(), 4);
    }

    #[test]
    fn parses_placement_variants() {
        let src = r#"
            machine A { place all; state s { } }
            machine B { place any 3, 4, 5; state s { } }
            machine C {
              place any receiver srcIP "10.1.1.4" and dstIP "10.0.1.0/24" range == 1;
              state s { }
            }
            machine D { place all midpoint range == 0; state s { } }
        "#;
        let p = parse(src).unwrap();
        assert!(matches!(
            p.machine("A").unwrap().placements[0].constraint,
            PlaceConstraint::None
        ));
        match &p.machine("B").unwrap().placements[0].constraint {
            PlaceConstraint::Switches(v) => assert_eq!(v.len(), 3),
            other => panic!("expected switch list, got {other:?}"),
        }
        match &p.machine("C").unwrap().placements[0].constraint {
            PlaceConstraint::Range {
                role, filter, op, ..
            } => {
                assert_eq!(*role, Some(PathRole::Receiver));
                assert!(filter.is_some());
                assert_eq!(*op, CmpOp::Eq);
            }
            other => panic!("expected range, got {other:?}"),
        }
        match &p.machine("D").unwrap().placements[0].constraint {
            PlaceConstraint::Range { role, filter, .. } => {
                assert_eq!(*role, Some(PathRole::Midpoint));
                assert!(filter.is_none());
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn parses_inheritance_and_send_at() {
        let src = r#"
            machine Child extends Base {
              state s {
                when (enter) do {
                  send 1 to Base@2;
                  send 2 to Base;
                }
              }
            }
        "#;
        let p = parse(src).unwrap();
        let m = &p.machines[0];
        assert_eq!(m.extends.as_deref(), Some("Base"));
        let ev = &m.state("s").unwrap().events[0];
        match &ev.actions[0] {
            Action::Send {
                to: MsgEndpoint::Machine { name, at },
                ..
            } => {
                assert_eq!(name, "Base");
                assert!(at.is_some());
            }
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence_is_sane() {
        // a + b * c <= d and e  →  ((a + (b*c)) <= d) and e
        let src = "machine M { state s { when (enter) do { bool x = a + b * c <= d and e; } } }";
        let p = parse(src).unwrap();
        let st = &p.machines[0].states[0];
        let Action::Local(decl) = &st.events[0].actions[0] else {
            panic!("expected local decl");
        };
        let Some(Expr::Binary(BinOp::And, lhs, _, _)) = &decl.init else {
            panic!("top must be `and`: {:?}", decl.init);
        };
        let Expr::Binary(BinOp::Cmp(CmpOp::Le), add, _, _) = lhs.as_ref() else {
            panic!("lhs of and must be <=");
        };
        let Expr::Binary(BinOp::Add, _, mul, _) = add.as_ref() else {
            panic!("lhs of <= must be +");
        };
        assert!(matches!(mul.as_ref(), Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn field_assignment_statement() {
        let src = "machine M { poll p = Poll { .ival = 10, .what = port ANY };
                    state s { when (enter) do { p.ival = 20; } } }";
        let p = parse(src).unwrap();
        let ev = &p.machines[0].states[0].events[0];
        assert!(matches!(
            &ev.actions[0],
            Action::Assign { field: Some(f), .. } if f == "ival"
        ));
    }

    #[test]
    fn error_has_position() {
        let err = parse("machine M { state }").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn rejects_external_in_state() {
        let src = "machine M { state s { external int x; } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            machine M { state s { when (enter) do {
              if (a) then { x = 1; } else if (b) then { x = 2; } else { x = 3; }
            } } }
        "#;
        let p = parse(src).unwrap();
        let Action::If { else_branch, .. } = &p.machines[0].states[0].events[0].actions[0] else {
            panic!("expected if");
        };
        assert_eq!(else_branch.len(), 1);
        assert!(matches!(&else_branch[0], Action::If { .. }));
    }
}
