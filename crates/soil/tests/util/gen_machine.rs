//! A seeded generator of well-typed machines: Almanac source the checker
//! accepts, with globals and locals of every declared type, nested
//! `while` / `if`, user functions (recursion, typed parameters and
//! results; a typed body ends in a `return`, as the checker demands),
//! list builtins and stat scans,
//! `any` values stored into typed variables, polls over `port ANY` and
//! `port N` (N past the switch's ports too), rules, sends and
//! transitions. `prop_interp.rs` runs what it makes through the VM ≡
//! walker differential. Every loop is bounded by a constant or by the
//! length of a list its body does not grow, and a function calls only
//! the functions declared before it, or itself once on a shrinking
//! depth, so every handler run ends quickly.

use farm_almanac::ast::Type;
use proptest::test_runner::TestRng;

/// The name every generated machine has.
pub const MACHINE: &str = "G";

/// Every type a variable can be declared with (`any` is the type of
/// some builtins' results, not a declaration).
const TYPES: [Type; 12] = [
    Type::Bool,
    Type::Int,
    Type::Long,
    Type::Float,
    Type::Str,
    Type::List,
    Type::Packet,
    Type::Action,
    Type::Filter,
    Type::Rule,
    Type::Resources,
    Type::Stat,
];

/// The types a list element or a message part is generated as: no list
/// goes into a list, so nothing doubles in size at every step.
const SCALARS: [Type; 7] = [
    Type::Bool,
    Type::Int,
    Type::Long,
    Type::Float,
    Type::Str,
    Type::Action,
    Type::Filter,
];

/// The source of the machine `seed` picks.
pub fn machine(seed: u64) -> String {
    let mut g = Gen {
        rng: TestRng::seed(seed),
        vars: Vec::new(),
        fns: Vec::new(),
        current: None,
        fresh: 0,
        out: String::new(),
    };
    g.program();
    g.out
}

struct Var {
    name: String,
    ty: Type,
    /// Loop counters are read, never written.
    writable: bool,
}

/// A function declared so far.
struct Sig {
    name: String,
    params: Vec<Type>,
    ret: Option<Type>,
    /// Whether the first parameter is a depth the function recurses on.
    recursive: bool,
}

struct Gen {
    rng: TestRng,
    /// Visible variables, innermost last.
    vars: Vec<Var>,
    fns: Vec<Sig>,
    /// The function whose body is being written, if any.
    current: Option<usize>,
    fresh: u32,
    out: String,
}

/// Whether the checker takes a value of type `got` where `want` is
/// expected.
fn accepts(want: Type, got: Type) -> bool {
    use Type::*;
    want == got
        || want == Any
        || got == Any
        || matches!(
            (want, got),
            (Int, Long) | (Long, Int) | (Float, Int) | (Float, Long)
        )
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn any_type(&mut self) -> Type {
        TYPES[self.below(TYPES.len())]
    }

    fn scalar(&mut self) -> Type {
        SCALARS[self.below(SCALARS.len())]
    }

    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn line(&mut self, indent: usize, text: &str) {
        for _ in 0..indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn program(&mut self) {
        for _ in 0..1 + self.below(3) {
            self.function();
        }
        self.line(0, &format!("machine {MACHINE} {{"));
        self.line(1, "place any;");
        let port = ["ANY", "ANY", "0", "3", "7", "8", "99"][self.below(7)];
        self.line(
            1,
            &format!("poll p = Poll {{ .ival = 1, .what = port {port} }};"),
        );
        self.line(1, "probe q = Probe { .ival = 1, .what = proto \"tcp\" };");
        self.line(1, "time t = 5;");
        // One global of every type, and a few more.
        let mut globals: Vec<Type> = TYPES.to_vec();
        for _ in 0..self.below(4) {
            let ty = self.any_type();
            globals.push(ty);
        }
        for ty in globals {
            let name = self.name("g");
            let init = match ty {
                Type::Bool => Some(["true", "false"][self.below(2)].to_string()),
                // A constant an int, widened when the machine compiles.
                Type::Int | Type::Long | Type::Float => Some(format!("{}", self.below(9))),
                Type::Str => Some("\"g\"".to_string()),
                _ => None,
            };
            let external = if init.is_some() && self.one_in(3) {
                "external "
            } else {
                ""
            };
            let decl = match init.filter(|_| !self.one_in(4)) {
                Some(init) => format!("{external}{} {name} = {init};", ty.keyword()),
                None => format!("{} {name};", ty.keyword()),
            };
            self.line(1, &decl);
            self.vars.push(Var {
                name,
                ty,
                writable: true,
            });
        }
        // A state's own handlers override the machine's, which take
        // every trigger and a message or two.
        let states = 1 + self.below(3);
        for s in 0..states {
            self.line(1, &format!("state s{s} {{"));
            for _ in 0..self.below(4) {
                let kind = self.below(9);
                self.handler(2, states, kind);
            }
            self.line(1, "}");
        }
        for kind in [0, 2, 3, 5, 6, 7, 7, 8, 8] {
            self.handler(1, states, kind);
        }
        self.line(0, "}");
    }

    /// A handler of trigger `kind`: enter, exit, realloc, poll (3 and
    /// 4), probe, time, or a message from the harvester or the machine.
    fn handler(&mut self, indent: usize, states: usize, kind: usize) {
        let (trigger, payload) = match kind {
            0 => ("enter".to_string(), None),
            1 => ("exit".to_string(), None),
            2 => ("realloc".to_string(), None),
            3 | 4 => ("p as stats".to_string(), Some(("stats", Type::List))),
            5 => ("q as pkt".to_string(), Some(("pkt", Type::Packet))),
            6 => ("t as n".to_string(), Some(("n", Type::Long))),
            k => {
                // Messages are mostly numbers.
                let ty = match self.below(4) {
                    0 => Type::Long,
                    1 => Type::Float,
                    _ => self.any_type(),
                };
                let from = if k == 7 { "harvester" } else { MACHINE };
                (
                    format!("recv {} v from {from}", ty.keyword()),
                    Some(("v", ty)),
                )
            }
        };
        let mark = self.vars.len();
        if let Some((name, ty)) = payload {
            self.vars.push(Var {
                name: name.to_string(),
                ty,
                writable: true,
            });
        }
        self.line(indent, &format!("when ({trigger}) do {{"));
        // A message is kept, as a retuned threshold is.
        if let (7 | 8, Some((payload, ty))) = (kind, payload) {
            let global = self
                .vars
                .iter()
                .find(|v| v.ty == ty)
                .map(|v| v.name.clone());
            if let Some(global) = global {
                self.line(indent + 1, &format!("{global} = {payload};"));
            }
        }
        self.statements(indent + 1, 2, states);
        self.block(indent + 1, 2, states);
        self.line(indent, "}");
        self.vars.truncate(mark);
    }

    fn function(&mut self) {
        let index = self.fns.len();
        let name = format!("f{index}");
        let recursive = self.one_in(2);
        let mut params: Vec<Type> = (0..self.below(3)).map(|_| self.any_type()).collect();
        if recursive {
            params.insert(0, Type::Long);
        }
        let ret = if self.one_in(4) {
            None
        } else {
            Some(self.any_type())
        };
        let names: Vec<String> = params.iter().map(|_| self.name("a")).collect();
        let list: Vec<String> = params
            .iter()
            .zip(&names)
            .map(|(ty, n)| format!("{} {n}", ty.keyword()))
            .collect();
        let head = match ret {
            Some(ty) => format!("fun {name}({}): {} {{", list.join(", "), ty.keyword()),
            None => format!("fun {name}({}) {{", list.join(", ")),
        };
        self.line(0, &head);
        self.fns.push(Sig {
            name,
            params: params.clone(),
            ret,
            recursive,
        });
        // Only parameters and locals are visible in a function.
        let globals = std::mem::take(&mut self.vars);
        for (ty, name) in params.iter().zip(names) {
            self.vars.push(Var {
                name,
                ty: *ty,
                writable: true,
            });
        }
        self.current = Some(index);
        if recursive {
            let depth = &self.vars[0].name;
            let stop = format!("if ({depth} <= 0) then {{");
            self.line(1, &stop);
            let value = ret.map(|ty| self.expr(ty, 1));
            self.ret(2, value);
            self.line(1, "}");
        }
        self.statements(1, 2, 0);
        // The one recursive call, on a smaller depth.
        if recursive {
            let call = self.call_of(index, 1, true);
            match ret {
                Some(_) => self.line(1, &format!("return {call};")),
                None => self.line(1, &format!("{call};")),
            }
        } else if ret.is_some() {
            let value = ret.map(|ty| self.expr(ty, 2));
            self.ret(1, value);
        }
        self.line(0, "}");
        self.current = None;
        self.vars = globals;
    }

    fn ret(&mut self, indent: usize, value: Option<String>) {
        match value {
            Some(v) => self.line(indent, &format!("return {v};")),
            None => self.line(indent, "return;"),
        }
    }

    /// A block of 1–3 statements, `depth` more levels allowed inside.
    fn block(&mut self, indent: usize, depth: u32, states: usize) {
        let mark = self.vars.len();
        self.statements(indent, depth, states);
        self.vars.truncate(mark);
    }

    fn statements(&mut self, indent: usize, depth: u32, states: usize) {
        for _ in 0..1 + self.below(3) {
            self.statement(indent, depth, states);
        }
    }

    fn writable(&mut self, want: impl Fn(Type) -> bool) -> Option<String> {
        let names: Vec<&Var> = self
            .vars
            .iter()
            .filter(|v| v.writable && want(v.ty))
            .collect();
        if names.is_empty() {
            return None;
        }
        let name = names[self.rng.below(names.len())].name.clone();
        Some(name)
    }

    fn statement(&mut self, indent: usize, depth: u32, states: usize) {
        let in_function = self.current.is_some();
        match self.below(16) {
            0..=2 => {
                let ty = self.any_type();
                let name = self.name("l");
                let decl = if self.one_in(5) {
                    format!("{} {name};", ty.keyword())
                } else {
                    format!("{} {name} = {};", ty.keyword(), self.expr(ty, 2))
                };
                self.line(indent, &decl);
                self.vars.push(Var {
                    name,
                    ty,
                    writable: true,
                });
            }
            3..=5 => {
                let pick = self.below(self.vars.len().max(1));
                match self.vars.get(pick) {
                    Some(v) if v.writable => {
                        let (name, ty) = (v.name.clone(), v.ty);
                        let value = self.expr(ty, 2);
                        self.line(indent, &format!("{name} = {value};"));
                    }
                    _ => self.effect(indent, in_function),
                }
            }
            6 if depth > 0 => {
                let cond = self.expr(Type::Bool, 2);
                self.line(indent, &format!("if ({cond}) then {{"));
                self.block(indent + 1, depth - 1, states);
                if self.one_in(2) {
                    self.line(indent, "} else {");
                    self.block(indent + 1, depth - 1, states);
                }
                self.line(indent, "}");
            }
            7 if depth > 0 => {
                // A counted loop.
                let i = self.name("i");
                self.line(indent, &format!("int {i} = 0;"));
                let bound = self.below(4);
                self.line(indent, &format!("while ({i} < {bound}) {{"));
                self.vars.push(Var {
                    name: i.clone(),
                    ty: Type::Int,
                    writable: false,
                });
                self.block(indent + 1, depth - 1, states);
                self.line(indent + 1, &format!("{i} = {i} + 1;"));
                self.line(indent, "}");
            }
            8 => self.scan(indent),
            9 | 10 => self.mutation(indent),
            11 if !in_function && states > 0 && self.one_in(3) => {
                let state = self.below(states);
                self.line(indent, &format!("transit s{state};"));
            }
            12 if in_function => {
                let ret = self.current.and_then(|f| self.fns[f].ret);
                let value = ret.map(|ty| self.expr(ty, 2));
                self.ret(indent, value);
            }
            _ => self.effect(indent, in_function),
        }
    }

    /// A scan over a list's stat entries, into a fresh local.
    fn scan(&mut self, indent: usize) {
        let Some(list) = self.readable(Type::List) else {
            return self.effect(indent, self.current.is_some());
        };
        let (i, acc) = (self.name("i"), self.name("l"));
        let field = [
            "stat_tx_bytes",
            "stat_rx_bytes",
            "stat_port",
            "stat_tx_packets",
        ][self.below(4)];
        let limit = self.expr(Type::Long, 1);
        self.line(indent, &format!("list {acc};"));
        self.line(indent, &format!("long {i} = 0;"));
        self.line(indent, &format!("while ({i} < list_len({list})) {{"));
        let test = format!("if ({field}(list_get({list}, {i})) >= {limit}) then {{");
        self.line(indent + 1, &test);
        self.line(
            indent + 2,
            &format!("list_push({acc}, list_get({list}, {i}));"),
        );
        self.line(indent + 1, "}");
        self.line(indent + 1, &format!("{i} = {i} + 1;"));
        self.line(indent, "}");
        self.vars.push(Var {
            name: acc,
            ty: Type::List,
            writable: true,
        });
    }

    fn mutation(&mut self, indent: usize) {
        let Some(list) = self.writable(|t| t == Type::List) else {
            return self.effect(indent, self.current.is_some());
        };
        let item = self.scalar();
        let text = match self.below(6) {
            0 => format!("list_push_unique({list}, {});", self.expr(item, 1)),
            1 => format!("list_remove_at({list}, {});", self.index(1)),
            2 => format!("list_clear({list});"),
            _ => format!("list_push({list}, {});", self.expr(item, 1)),
        };
        self.line(indent, &text);
    }

    /// A statement run for its effect: a send, a TCAM change, an `exec`,
    /// or a call.
    fn effect(&mut self, indent: usize, in_function: bool) {
        let text = match self.below(6) {
            0 | 1 if !in_function => {
                let value = self.expr(Type::Any, 2);
                match self.below(3) {
                    0 => format!("send {value} to harvester;"),
                    1 => format!("send {value} to {MACHINE};"),
                    _ => format!("send {value} to {MACHINE}@({});", self.expr(Type::Int, 1)),
                }
            }
            2 => format!("addTCAMRule({});", self.expr(Type::Rule, 2)),
            3 => format!("removeTCAMRule({});", self.expr(Type::Filter, 1)),
            4 => format!("exec_n(\"job\", {});", self.expr(Type::Int, 1)),
            _ => match self.callable(|_| true) {
                Some(f) => format!("{};", self.call_of(f, 1, false)),
                None => "exec(\"job\");".to_string(),
            },
        };
        self.line(indent, &text);
    }

    /// A visible variable the checker takes as a `want`.
    fn readable(&mut self, want: Type) -> Option<String> {
        let names: Vec<String> = self
            .vars
            .iter()
            .filter(|v| accepts(want, v.ty) && (want == Type::Any || v.ty != Type::Any))
            .map(|v| v.name.clone())
            .collect();
        (!names.is_empty()).then(|| names[self.rng.below(names.len())].clone())
    }

    /// A function this body may call whose result `fits`: one declared
    /// before it.
    fn callable(&mut self, fits: impl Fn(Option<Type>) -> bool) -> Option<usize> {
        let limit = self.current.unwrap_or(self.fns.len());
        let ok: Vec<usize> = (0..limit).filter(|&f| fits(self.fns[f].ret)).collect();
        (!ok.is_empty()).then(|| ok[self.rng.below(ok.len())])
    }

    /// A call of function `f`; a recursive one gets a small depth, or the
    /// caller's own depth less one when it is `f` itself.
    fn call_of(&mut self, f: usize, budget: u32, itself: bool) -> String {
        let params = self.fns[f].params.clone();
        let mut args = Vec::new();
        for (k, ty) in params.iter().enumerate() {
            args.push(match (k, self.fns[f].recursive) {
                (0, true) if itself => format!("{} - 1", self.vars[0].name),
                (0, true) => ["0", "1", "2", "3", "70"][self.below(5)].to_string(),
                _ => self.expr(*ty, budget),
            });
        }
        format!("{}({})", self.fns[f].name, args.join(", "))
    }

    /// An expression the checker types as something `want` accepts,
    /// `budget` levels deep at most.
    fn expr(&mut self, want: Type, budget: u32) -> String {
        // Now and then an `any`, which the store check meets at run time.
        if want != Type::Any && self.one_in(16) {
            let inner = self.scalar();
            let x = self.expr(inner, budget.saturating_sub(1));
            return format!("pair_first(pair({x}, 0))");
        }
        if budget > 0 && self.one_in(6) {
            let fits = |ret: Option<Type>| ret.is_some_and(|r| accepts(want, r));
            if let Some(f) = self.callable(fits) {
                return self.call_of(f, budget - 1, false);
            }
        }
        // A variable of a type without a default value holds unit until
        // something is stored in it: read one now and then.
        let unset = matches!(
            want,
            Type::Packet | Type::Rule | Type::Resources | Type::Stat
        );
        if budget == 0 || self.one_in(3) {
            match self.readable(want) {
                Some(v) if !unset || self.one_in(4) => return v,
                _ => return self.leaf(want),
            }
        }
        let b = budget - 1;
        match want {
            Type::Bool => match self.below(12) {
                0 | 1 => {
                    let op = ["<", "<=", ">", ">=", "==", "<>"][self.below(6)];
                    let (x, y) = self.compared(b);
                    format!("({x} {op} {y})")
                }
                2 => format!("({} and {})", self.expr(want, b), self.expr(want, b)),
                3 => format!("({} or {})", self.expr(want, b), self.expr(want, b)),
                4 => format!("(not {})", self.expr(want, b)),
                5 => format!("is_list_empty({})", self.expr(Type::List, b)),
                6 => format!(
                    "list_contains({}, {})",
                    self.expr(Type::List, b),
                    self.expr(Type::Any, b)
                ),
                7 => match self.packet() {
                    Some(p) => format!("pkt_is_syn({p})"),
                    None => self.leaf(want),
                },
                _ => {
                    let (x, y) = self.compared(b);
                    format!("({x} < {y})")
                }
            },
            Type::Int | Type::Long => match self.below(10) {
                0..=2 | 8 | 9 => {
                    let op = ["+", "-", "*", "/"][self.below(4)];
                    format!(
                        "({} {op} {})",
                        self.expr(Type::Int, b),
                        self.expr(Type::Int, b)
                    )
                }
                3 => format!("list_len({})", self.expr(Type::List, b)),
                4 => format!("to_int({})", self.expr(Type::Any, b)),
                5 => format!(
                    "stat_tx_bytes(list_get({}, {}))",
                    self.expr(Type::List, b),
                    self.index(b)
                ),
                6 => format!("(-{})", self.expr(Type::Int, b)),
                _ => match self.packet() {
                    Some(p) => format!("pkt_len({p})"),
                    None => self.leaf(want),
                },
            },
            Type::Float => match self.below(7) {
                0..=2 => {
                    let op = ["+", "-", "*", "/"][self.below(4)];
                    format!("({} {op} {})", self.number(b), self.number(b))
                }
                3 => format!("to_float({})", self.expr(Type::Any, b)),
                4 => format!("min({}, {})", self.number(b), self.number(b)),
                5 => "res().vCPU".to_string(),
                // An int, widened where it is stored.
                _ => self.expr(Type::Int, b),
            },
            Type::Str => match self.below(4) {
                0 | 1 => {
                    // Of a scalar: the text of a pair of itself would
                    // double a string at every store.
                    let ty = self.scalar();
                    format!("to_string({})", self.expr(ty, b))
                }
                // One side a literal: a string that grows, grows by one
                // piece a store.
                2 => format!(
                    "str_concat({}, {})",
                    self.expr(Type::Str, b),
                    self.leaf(want)
                ),
                _ => match self.packet() {
                    Some(p) => format!("pkt_proto({p})"),
                    None => self.leaf(want),
                },
            },
            Type::Action => match self.below(3) {
                0 => format!("action_rate_limit({})", self.expr(Type::Long, b)),
                1 => format!("action_set_qos({})", self.expr(Type::Int, b)),
                _ => self.leaf(want),
            },
            // `and` and `not` type an `any` operand as a bool: their
            // operands are filters by construction, one side of an `and`
            // a literal (a filter that grows, grows by one atom a store).
            Type::Filter => match self.below(3) {
                0 => format!("({} and {})", self.filter(b), self.leaf(want)),
                1 => format!("(not {})", self.filter(b)),
                _ => self.filter(b),
            },
            Type::Rule => match self.below(6) {
                0 => format!(
                    "Rule {{ .pattern = {}, .act = {} }}",
                    self.expr(Type::Filter, b),
                    self.expr(Type::Action, b)
                ),
                1 => format!(
                    "rule({}, {})",
                    self.expr(Type::Filter, b),
                    self.expr(Type::Action, b)
                ),
                2 => format!("getTCAMRule({})", self.expr(Type::Filter, b)),
                _ => self.leaf(want),
            },
            Type::Any => match self.below(8) {
                0 => format!("pair({}, {})", self.anything(b), self.anything(b)),
                1 => format!("pair_second(pair(0, {}))", self.anything(b)),
                2 => format!("list_get({}, {})", self.expr(Type::List, b), self.index(b)),
                _ => self.anything(b),
            },
            Type::Stat => self.leaf(want),
            Type::List | Type::Packet | Type::Resources => self.leaf(want),
        }
    }

    /// An expression the checker types as a filter, never as `any`.
    fn filter(&mut self, budget: u32) -> String {
        match self.below(4) {
            0 => format!("(port ({}))", self.expr(Type::Int, budget)),
            1 => format!("(dstPort ({}))", self.expr(Type::Int, budget)),
            2 => self
                .readable(Type::Filter)
                .unwrap_or_else(|| self.leaf(Type::Filter)),
            _ => self.leaf(Type::Filter),
        }
    }

    /// The probe's packet, where a handler has it: packet variables
    /// start as unit.
    fn packet(&self) -> Option<String> {
        self.vars
            .iter()
            .any(|v| v.name == "pkt")
            .then(|| "pkt".to_string())
    }

    /// A list index, mostly one a short list has.
    fn index(&mut self, budget: u32) -> String {
        match self.below(4) {
            0 => self.expr(Type::Int, budget),
            k => format!("{}", k - 1),
        }
    }

    /// The two operands of a comparison: mostly two numbers, one time in
    /// three two of 2^53 and 2^53 + 1, ints that compare equal widened to
    /// floats and unequal as i64.
    fn compared(&mut self, budget: u32) -> (String, String) {
        if self.one_in(3) {
            let near = ["9007199254740992", "9007199254740993"];
            return (near[self.below(2)].into(), near[self.below(2)].into());
        }
        (self.number(budget), self.number(budget))
    }

    /// A number: an int or a float.
    fn number(&mut self, budget: u32) -> String {
        let ty = [Type::Int, Type::Long, Type::Float][self.below(3)];
        self.expr(ty, budget)
    }

    /// An expression of any type.
    fn anything(&mut self, budget: u32) -> String {
        let ty = self.any_type();
        self.expr(ty, budget)
    }

    /// An expression of `want` that needs no variable.
    fn leaf(&mut self, want: Type) -> String {
        match want {
            Type::Bool => ["true", "false"][self.below(2)].to_string(),
            Type::Int | Type::Long => {
                // 2^53 + 1: an int a comparison reads as 2^53.
                [
                    "0",
                    "1",
                    "2",
                    "3",
                    "7",
                    "9223372036854775807",
                    "9007199254740993",
                ][self.below(7)]
                .to_string()
            }
            Type::Float => ["0.5", "2.0", "1", "0.0"][self.below(4)].to_string(),
            Type::Str => ["\"a\"", "\"10.0.0.1\"", "\"\""][self.below(3)].to_string(),
            Type::Action => {
                ["action_drop()", "action_count()", "action_mirror()"][self.below(3)].to_string()
            }
            Type::Filter => [
                "port ANY",
                "port 3",
                "proto \"tcp\"",
                "srcIP \"10.0.0.0/8\"",
            ][self.below(4)]
            .to_string(),
            Type::Rule => "Rule { .pattern = port 1, .act = action_count() }".to_string(),
            Type::Resources => "res()".to_string(),
            Type::Any => ["1", "2.5", "\"x\"", "true"][self.below(4)].to_string(),
            // No literal: an `any` the store check takes or refuses.
            Type::Packet => match self.packet() {
                Some(p) => p,
                None => format!("pair_first(pair({}, 0))", self.leaf(Type::Any)),
            },
            // A poll's entry, where a handler has one.
            Type::Stat if self.vars.iter().any(|v| v.name == "stats") => {
                format!("list_get(stats, {})", self.below(2))
            }
            Type::Stat => format!("pair_first(pair({}, 0))", self.leaf(Type::Any)),
            Type::List => format!("pair_first(pair({}, 0))", self.leaf(Type::Any)),
        }
    }
}
