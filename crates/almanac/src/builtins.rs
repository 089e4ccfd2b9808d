//! Signatures of the soil runtime library (the paper's List. 1 plus the
//! stats/list/packet helpers every Tab. I use case relies on).
//!
//! The type checker validates calls against these signatures; the seed
//! interpreter in `farm-soil` provides the implementations.

use crate::ast::Type;

/// Identity of a runtime-library function: what a call site is lowered to
/// ([`crate::lower`]), so the interpreter dispatches on a tag, not a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Res,
    AddTcamRule,
    RemoveTcamRule,
    GetTcamRule,
    Exec,
    ExecN,
    Min,
    Max,
    Abs,
    Log2,
    ToFloat,
    ToInt,
    Now,
    ActionDrop,
    ActionRateLimit,
    ActionSetQos,
    ActionCount,
    ActionMirror,
    Rule,
    ListLen,
    ListGet,
    IsListEmpty,
    ListContains,
    ListPush,
    ListPushUnique,
    ListClear,
    ListRemoveAt,
    Pair,
    PairFirst,
    PairSecond,
    StatPort,
    StatSubject,
    StatTxBytes,
    StatRxBytes,
    StatTxPackets,
    StatRxPackets,
    PktSrcIp,
    PktDstIp,
    PktSrcPort,
    PktDstPort,
    PktProto,
    PktLen,
    PktIsSyn,
    PktIsFin,
    PktIsAck,
    FilterMatches,
    ToString,
    StrConcat,
    StrContains,
}

/// Signature of a runtime-library function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Builtin {
    pub op: Op,
    pub name: &'static str,
    pub(crate) params: &'static [Type],
    /// `None` means the call returns no value (unit).
    pub(crate) ret: Option<Type>,
    /// True when the first argument is mutated in place and must be an
    /// lvalue (a plain variable), e.g. `list_push`.
    pub(crate) mutates_first_arg: bool,
}

macro_rules! b {
    ($op:ident, $name:literal, [$($p:expr),*], $ret:expr) => {
        Builtin { op: Op::$op, name: $name, params: &[$($p),*], ret: $ret, mutates_first_arg: false }
    };
    ($op:ident, $name:literal, [$($p:expr),*], $ret:expr, mutates) => {
        Builtin { op: Op::$op, name: $name, params: &[$($p),*], ret: $ret, mutates_first_arg: true }
    };
}

/// The full runtime-library signature table.
pub const BUILTINS: &[Builtin] = &[
    // Resource monitoring (List. 1).
    b!(Res, "res", [], Some(Type::Resources)),
    // Dataplane (List. 1).
    b!(AddTcamRule, "addTCAMRule", [Type::Rule], None),
    b!(RemoveTcamRule, "removeTCAMRule", [Type::Filter], None),
    b!(GetTcamRule, "getTCAMRule", [Type::Filter], Some(Type::Rule)),
    // Running external code (List. 1); `exec_n` runs `n` iterations of the
    // command in one scheduling slot (the Fig. 6d partitioning knob).
    b!(Exec, "exec", [Type::Str], None),
    b!(ExecN, "exec_n", [Type::Str, Type::Int], None),
    // Math.
    b!(Min, "min", [Type::Float, Type::Float], Some(Type::Float)),
    b!(Max, "max", [Type::Float, Type::Float], Some(Type::Float)),
    b!(Abs, "abs", [Type::Float], Some(Type::Float)),
    b!(Log2, "log2", [Type::Float], Some(Type::Float)),
    b!(ToFloat, "to_float", [Type::Any], Some(Type::Float)),
    b!(ToInt, "to_int", [Type::Any], Some(Type::Int)),
    // Time (milliseconds since seed start).
    b!(Now, "now", [], Some(Type::Long)),
    // Action constructors.
    b!(ActionDrop, "action_drop", [], Some(Type::Action)),
    b!(
        ActionRateLimit,
        "action_rate_limit",
        [Type::Long],
        Some(Type::Action)
    ),
    b!(
        ActionSetQos,
        "action_set_qos",
        [Type::Int],
        Some(Type::Action)
    ),
    b!(ActionCount, "action_count", [], Some(Type::Action)),
    b!(ActionMirror, "action_mirror", [], Some(Type::Action)),
    b!(Rule, "rule", [Type::Filter, Type::Action], Some(Type::Rule)),
    // Lists.
    b!(ListLen, "list_len", [Type::List], Some(Type::Int)),
    b!(
        ListGet,
        "list_get",
        [Type::List, Type::Int],
        Some(Type::Any)
    ),
    b!(IsListEmpty, "is_list_empty", [Type::List], Some(Type::Bool)),
    b!(
        ListContains,
        "list_contains",
        [Type::List, Type::Any],
        Some(Type::Bool)
    ),
    b!(
        ListPush,
        "list_push",
        [Type::List, Type::Any],
        None,
        mutates
    ),
    b!(
        ListPushUnique,
        "list_push_unique",
        [Type::List, Type::Any],
        None,
        mutates
    ),
    b!(ListClear, "list_clear", [Type::List], None, mutates),
    b!(
        ListRemoveAt,
        "list_remove_at",
        [Type::List, Type::Int],
        None,
        mutates
    ),
    // Pairs (poor man's maps for per-key state).
    b!(Pair, "pair", [Type::Any, Type::Any], Some(Type::Any)),
    b!(PairFirst, "pair_first", [Type::Any], Some(Type::Any)),
    b!(PairSecond, "pair_second", [Type::Any], Some(Type::Any)),
    // Statistics entries delivered by poll triggers.
    b!(StatPort, "stat_port", [Type::Stat], Some(Type::Int)),
    b!(StatSubject, "stat_subject", [Type::Stat], Some(Type::Str)),
    b!(StatTxBytes, "stat_tx_bytes", [Type::Stat], Some(Type::Long)),
    b!(StatRxBytes, "stat_rx_bytes", [Type::Stat], Some(Type::Long)),
    b!(
        StatTxPackets,
        "stat_tx_packets",
        [Type::Stat],
        Some(Type::Long)
    ),
    b!(
        StatRxPackets,
        "stat_rx_packets",
        [Type::Stat],
        Some(Type::Long)
    ),
    // Packet accessors for probe triggers.
    b!(PktSrcIp, "pkt_src_ip", [Type::Packet], Some(Type::Str)),
    b!(PktDstIp, "pkt_dst_ip", [Type::Packet], Some(Type::Str)),
    b!(PktSrcPort, "pkt_src_port", [Type::Packet], Some(Type::Int)),
    b!(PktDstPort, "pkt_dst_port", [Type::Packet], Some(Type::Int)),
    b!(PktProto, "pkt_proto", [Type::Packet], Some(Type::Str)),
    b!(PktLen, "pkt_len", [Type::Packet], Some(Type::Int)),
    b!(PktIsSyn, "pkt_is_syn", [Type::Packet], Some(Type::Bool)),
    b!(PktIsFin, "pkt_is_fin", [Type::Packet], Some(Type::Bool)),
    b!(PktIsAck, "pkt_is_ack", [Type::Packet], Some(Type::Bool)),
    b!(
        FilterMatches,
        "filter_matches",
        [Type::Filter, Type::Packet],
        Some(Type::Bool)
    ),
    // Strings.
    b!(ToString, "to_string", [Type::Any], Some(Type::Str)),
    b!(
        StrConcat,
        "str_concat",
        [Type::Str, Type::Str],
        Some(Type::Str)
    ),
    b!(
        StrContains,
        "str_contains",
        [Type::Str, Type::Str],
        Some(Type::Bool)
    ),
];

/// Looks up a builtin by name.
pub(crate) fn builtin(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_the_papers_runtime_api() {
        for name in [
            "res",
            "addTCAMRule",
            "removeTCAMRule",
            "getTCAMRule",
            "exec",
        ] {
            assert!(builtin(name).is_some(), "missing List. 1 builtin {name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = BUILTINS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate builtin names");
    }

    #[test]
    fn mutating_builtins_return_unit() {
        for b in BUILTINS.iter().filter(|b| b.mutates_first_arg) {
            assert_eq!(b.ret, None, "{} must return unit", b.name);
            assert_eq!(b.params[0], Type::List, "{} must mutate a list", b.name);
        }
    }
}
