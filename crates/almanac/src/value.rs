//! Runtime values of the Almanac language.
//!
//! Values are shared between the compiler (constant evaluation of `place`
//! constraints, `external` assignments, `poll` subjects) and the seed
//! interpreter in `farm-soil`.

use std::fmt;

use farm_netsim::switch::Resources;
use farm_netsim::types::{FilterFormula, FlowKey};

use crate::ast::Type;

/// A switch-local action value (the `action` Almanac type), mirroring the
//  data-plane capabilities of the TCAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionValue {
    Drop,
    /// Rate limit in bits/s.
    RateLimit(u64),
    SetQos(u8),
    Count,
    Mirror,
}

impl fmt::Display for ActionValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionValue::Drop => write!(f, "drop"),
            ActionValue::RateLimit(bps) => write!(f, "rate_limit({bps})"),
            ActionValue::SetQos(q) => write!(f, "set_qos({q})"),
            ActionValue::Count => write!(f, "count"),
            ActionValue::Mirror => write!(f, "mirror"),
        }
    }
}

/// A TCAM rule value (`Rule { .pattern = …, .act = … }`).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleValue {
    pub pattern: FilterFormula,
    pub action: ActionValue,
}

/// A sampled packet delivered by a `probe` trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    pub flow: FlowKey,
    pub len: u32,
    pub syn: bool,
    pub fin: bool,
    pub ack: bool,
}

/// What a statistics entry refers to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatSubject {
    /// A physical switch port.
    Port(u16),
    /// A monitoring TCAM rule, keyed by its canonical pattern text.
    Rule(String),
}

/// One entry of polled statistics delivered by a `poll` trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct StatEntry {
    pub subject: StatSubject,
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    pub tx_packets: u64,
    pub rx_packets: u64,
}

/// A dynamically typed Almanac value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Unit,
    Bool(bool),
    /// `int` and `long` share this representation.
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<Value>),
    Packet(PacketRecord),
    Filter(FilterFormula),
    Action(ActionValue),
    Rule(RuleValue),
    Resources(Resources),
    Stat(StatEntry),
    Pair(Box<Value>, Box<Value>),
}

impl Value {
    /// Short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Packet(_) => "packet",
            Value::Filter(_) => "filter",
            Value::Action(_) => "action",
            Value::Rule(_) => "rule",
            Value::Resources(_) => "resources",
            Value::Stat(_) => "stat",
            Value::Pair(_, _) => "pair",
        }
    }

    /// Truthiness; only booleans are truthy/falsy.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view (ints only; floats are not silently truncated).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }
}

/// Whether a variable declared `t` takes `v`: `any` takes every value, a
/// `float` an int too (which [`fit`] widens), and every other type the
/// values of its own tag — for `packet`, `rule`, `resources` and `stat`,
/// which have no default value, also the unit such a variable holds
/// before its first store. Recv dispatch, stores, `restore` and the
/// compiler's deployment constants all ask this one question.
#[inline]
pub fn value_has_type(v: &Value, t: Type) -> bool {
    matches!(
        (t, v),
        (Type::Any, _)
            | (
                Type::Packet | Type::Rule | Type::Resources | Type::Stat,
                Value::Unit
            )
            | (Type::Bool, Value::Bool(_))
            | (Type::Int | Type::Long, Value::Int(_))
            | (Type::Float, Value::Float(_) | Value::Int(_))
            | (Type::Str, Value::Str(_))
            | (Type::List, Value::List(_))
            | (Type::Packet, Value::Packet(_))
            | (Type::Action, Value::Action(_))
            | (Type::Filter, Value::Filter(_))
            | (Type::Rule, Value::Rule(_))
            | (Type::Resources, Value::Resources(_))
            | (Type::Stat, Value::Stat(_))
    )
}

/// What a variable declared `t` holds before its first store: unit for
/// the types without a default value.
pub fn default_of(t: Type) -> Value {
    match t {
        Type::Bool => Value::Bool(false),
        Type::Int | Type::Long => Value::Int(0),
        Type::Float => Value::Float(0.0),
        Type::Str => Value::Str(String::new()),
        Type::List => Value::List(Vec::new()),
        Type::Filter => Value::Filter(FilterFormula::True),
        Type::Action => Value::Action(ActionValue::Count),
        _ => Value::Unit,
    }
}

/// `v` as a variable declared `t` holds it: an int stored in a `float`
/// becomes a float. A value [`value_has_type`] refuses is handed back.
#[inline]
pub fn fit(v: Value, t: Type) -> Result<Value, Value> {
    match (t, v) {
        (Type::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (t, v) if value_has_type(&v, t) => Ok(v),
        (_, v) => Err(v),
    }
}

/// What a store of `v` into `name`, declared `t`, that [`fit`] refuses
/// fails with.
pub fn refusal(v: &Value, t: Type, name: &str) -> String {
    format!("cannot store {} in {} `{name}`", v.type_name(), t.keyword())
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Packet(p) => write!(f, "packet({})", p.flow),
            Value::Filter(ff) => write!(f, "filter({ff})"),
            Value::Action(a) => write!(f, "action({a})"),
            Value::Rule(r) => write!(f, "rule({} -> {})", r.pattern, r.action),
            Value::Resources(r) => write!(f, "res({r})"),
            Value::Stat(s) => write!(
                f,
                "stat({:?}: tx={}B/{}p rx={}B/{}p)",
                s.subject, s.tx_bytes, s.tx_packets, s.rx_bytes, s.rx_packets
            ),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_views_widen_ints() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn a_store_widens_an_int_into_a_float_and_refuses_another_tag() {
        assert_eq!(fit(Value::Int(7), Type::Float), Ok(Value::Float(7.0)));
        assert_eq!(fit(Value::Int(7), Type::Long), Ok(Value::Int(7)));
        assert_eq!(fit(Value::Float(0.5), Type::Any), Ok(Value::Float(0.5)));
        assert_eq!(fit(Value::Unit, Type::Packet), Ok(Value::Unit));
        let refused = fit(Value::Int(1), Type::Bool).unwrap_err();
        assert_eq!(
            refusal(&refused, Type::Bool, "b"),
            "cannot store int in bool `b`"
        );
        assert!(!value_has_type(&Value::Float(1.0), Type::Int));
        assert!(!value_has_type(&Value::Unit, Type::Str));
    }

    #[test]
    fn display_is_never_empty() {
        let vals = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(0),
            Value::List(vec![]),
            Value::Action(ActionValue::Count),
        ];
        for v in vals {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Value::List(vec![]).type_name(), "list");
        assert_eq!(
            Value::Pair(Box::new(Value::Unit), Box::new(Value::Unit)).type_name(),
            "pair"
        );
    }
}
