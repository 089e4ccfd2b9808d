//! The shared detection-task suite: which Almanac programs run against
//! the scenarios, how their externals are built, and how their harvester
//! messages are decoded into [`Alarm`](crate::score::Alarm) keys.
//!
//! Examples (`ddos_mitigation`, `portscan_detection`), `repro detection`
//! and the `detection_quality` tests all load task definitions from here,
//! so the program under demonstration is always the program under test.

use std::collections::{BTreeMap, BTreeSet};

use farm_almanac::analysis::ConstEnv;
use farm_almanac::programs;
use farm_almanac::value::{StatSubject, Value};
use farm_netsim::types::{Ipv4, PortId, Prefix};

use crate::truth::TruthKey;

/// One deployable detection task: the Almanac source, the machine it
/// declares, and a decoder turning its harvester messages into alarms.
pub struct TaskDef {
    /// Task name used at deploy time (and in `repro detection`'s table).
    pub name: &'static str,
    /// Machine the program declares (externals are keyed by it).
    pub(crate) machine: &'static str,
    /// Almanac source text.
    pub source: &'static str,
    /// Decodes one harvester message value. `None` means the message is
    /// not an alarm (e.g. a recovery report); `Some(keys)` is an alarm
    /// naming the given offending keys (possibly none).
    pub extract: fn(&Value) -> Option<BTreeSet<TruthKey>>,
}

fn ports_of_stats(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::List(items) if !items.is_empty() => Some(
            items
                .iter()
                .filter_map(|it| match it {
                    Value::Stat(s) => match s.subject {
                        StatSubject::Port(p) => Some(TruthKey::Port(PortId(p))),
                        StatSubject::Rule(_) => None,
                    },
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

fn ports_of_ints(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::List(items) if !items.is_empty() => Some(
            items
                .iter()
                .filter_map(|it| match it {
                    Value::Int(p) if (0..=u16::MAX as i64).contains(p) => {
                        Some(TruthKey::Port(PortId(*p as u16)))
                    }
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

fn srcs_of_strs(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::List(items) if !items.is_empty() => Some(
            items
                .iter()
                .filter_map(|it| match it {
                    Value::Str(s) => s.parse::<Ipv4>().ok().map(TruthKey::Src),
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

fn src_of_str(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::Str(s) => Some(
            s.parse::<Ipv4>()
                .ok()
                .map(TruthKey::Src)
                .into_iter()
                .collect(),
        ),
        _ => None,
    }
}

fn ddos_victims(v: &Value) -> Option<BTreeSet<TruthKey>> {
    // The machine reports the *rule subjects* over threshold ("dstIP
    // a.b.c.d/32"); a trailing Int is the recovery report, not an alarm.
    match v {
        Value::List(items) if !items.is_empty() => Some(
            items
                .iter()
                .filter_map(|it| match it {
                    Value::Str(s) => s
                        .strip_prefix("dstIP ")
                        .and_then(|p| p.parse::<Prefix>().ok())
                        .filter(|p| p.len == 32)
                        .map(|p| TruthKey::Dst(p.addr)),
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

fn pair_alarm(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::Pair(_, _) => Some(BTreeSet::new()),
        _ => None,
    }
}

fn nonempty_list_alarm(v: &Value) -> Option<BTreeSet<TruthKey>> {
    match v {
        Value::List(items) if !items.is_empty() => Some(BTreeSet::new()),
        _ => None,
    }
}

/// Per-port heavy-hitter detection (Tab. I row 1).
pub(crate) static HH_TASK: TaskDef = TaskDef {
    name: "hh",
    machine: "HH",
    source: programs::HEAVY_HITTER,
    extract: ports_of_stats,
};

/// Standalone two-level hierarchical heavy hitters.
pub(crate) static HHH2_TASK: TaskDef = TaskDef {
    name: "hhh2",
    machine: "HHH2",
    source: programs::HIER_HH_STANDALONE,
    extract: nonempty_list_alarm,
};

/// Volumetric DDoS detection + local mitigation.
pub static DDOS_TASK: TaskDef = TaskDef {
    name: "ddos",
    machine: "DDoS",
    source: programs::DDOS,
    extract: ddos_victims,
};

/// Port-scan detection (one source probing many destination ports).
pub static PORTSCAN_TASK: TaskDef = TaskDef {
    name: "portscan",
    machine: "PortScan",
    source: programs::PORT_SCAN,
    extract: srcs_of_strs,
};

/// SSH brute-force detection (repeated dst-port-22 SYNs per source).
pub(crate) static SSH_TASK: TaskDef = TaskDef {
    name: "ssh_brute",
    machine: "SshBruteForce",
    source: programs::SSH_BRUTE_FORCE,
    extract: src_of_str,
};

/// KISS-style aggregate volume anomaly (EWMA mean/deviation).
pub(crate) static KISS_VOLUME_TASK: TaskDef = TaskDef {
    name: "kiss_volume",
    machine: "KissVolume",
    source: programs::KISS_VOLUME_ANOMALY,
    extract: pair_alarm,
};

/// KISS-style per-port spike detection (per-port EWMA baselines).
pub(crate) static KISS_SPIKE_TASK: TaskDef = TaskDef {
    name: "kiss_spike",
    machine: "KissPortSpike",
    source: programs::KISS_PORT_SPIKE,
    extract: ports_of_ints,
};

/// DiG-style sub-ms microburst watcher.
pub(crate) static DIG_TASK: TaskDef = TaskDef {
    name: "dig_microburst",
    machine: "DigMicroburst",
    source: programs::DIG_MICROBURST,
    extract: ports_of_ints,
};

fn env_for(task: &TaskDef, pairs: &[(&str, Value)]) -> BTreeMap<String, ConstEnv> {
    let mut m = BTreeMap::new();
    m.insert(
        task.machine.to_string(),
        farm_almanac::compile::externals(pairs),
    );
    m
}

/// Externals for [`HH_TASK`]: per-poll tx-byte threshold.
pub(crate) fn hh_externals(threshold: i64) -> BTreeMap<String, ConstEnv> {
    env_for(&HH_TASK, &[("threshold", Value::Int(threshold))])
}

/// Externals for [`HHH2_TASK`]: leaf/inner thresholds and group size.
pub(crate) fn hhh2_externals(leaf: i64, inner: i64, group_size: i64) -> BTreeMap<String, ConstEnv> {
    env_for(
        &HHH2_TASK,
        &[
            ("leafThreshold", Value::Int(leaf)),
            ("innerThreshold", Value::Int(inner)),
            ("groupSize", Value::Int(group_size)),
        ],
    )
}

/// Externals for [`DDOS_TASK`]: protected prefix, per-poll volume
/// threshold, and the sustained-window count before mitigation.
pub fn ddos_externals(
    prefix: &str,
    volume_threshold: i64,
    sustain: i64,
) -> BTreeMap<String, ConstEnv> {
    env_for(
        &DDOS_TASK,
        &[
            ("protectedPrefix", Value::Str(prefix.to_string())),
            ("volumeThreshold", Value::Int(volume_threshold)),
            ("sustainWindows", Value::Int(sustain)),
        ],
    )
}

/// Externals for [`PORTSCAN_TASK`]: distinct-port count per window.
pub fn portscan_externals(port_limit: i64) -> BTreeMap<String, ConstEnv> {
    env_for(&PORTSCAN_TASK, &[("portLimit", Value::Int(port_limit))])
}

/// Externals for [`SSH_TASK`]: SYN attempts per window before blocking.
pub(crate) fn ssh_externals(attempt_limit: i64) -> BTreeMap<String, ConstEnv> {
    env_for(&SSH_TASK, &[("attemptLimit", Value::Int(attempt_limit))])
}

/// Externals for [`KISS_VOLUME_TASK`]: deviation multiplier and warmup
/// sample count.
pub(crate) fn kiss_volume_externals(sigma: f64, warmup: i64) -> BTreeMap<String, ConstEnv> {
    env_for(
        &KISS_VOLUME_TASK,
        &[
            ("sigma", Value::Float(sigma)),
            ("warmup", Value::Int(warmup)),
        ],
    )
}

/// Externals for [`KISS_SPIKE_TASK`]: baseline multiplier, warmup, and
/// the absolute floor below which spikes are ignored.
pub(crate) fn kiss_spike_externals(
    factor: f64,
    warmup: i64,
    min_bytes: f64,
) -> BTreeMap<String, ConstEnv> {
    env_for(
        &KISS_SPIKE_TASK,
        &[
            ("factor", Value::Float(factor)),
            ("warmup", Value::Int(warmup)),
            ("minBytes", Value::Float(min_bytes)),
        ],
    )
}

/// Externals for [`DIG_TASK`]: per-poll tx-byte burst threshold.
pub(crate) fn dig_externals(burst_bytes: i64) -> BTreeMap<String, ConstEnv> {
    env_for(&DIG_TASK, &[("burstBytes", Value::Int(burst_bytes))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::value::StatEntry;

    #[test]
    fn every_task_source_declares_its_machine() {
        for task in [
            &HH_TASK,
            &HHH2_TASK,
            &DDOS_TASK,
            &PORTSCAN_TASK,
            &SSH_TASK,
            &KISS_VOLUME_TASK,
            &KISS_SPIKE_TASK,
            &DIG_TASK,
        ] {
            let program = farm_almanac::frontend(task.source)
                .unwrap_or_else(|e| panic!("{}: {e:?}", task.name));
            assert!(
                program.machine(task.machine).is_some(),
                "{} does not declare machine {}",
                task.name,
                task.machine
            );
        }
    }

    #[test]
    fn hh_extract_names_ports() {
        let stat = |p: u16| {
            Value::Stat(StatEntry {
                subject: StatSubject::Port(p),
                tx_bytes: 10,
                rx_bytes: 0,
                tx_packets: 1,
                rx_packets: 0,
            })
        };
        let keys = (HH_TASK.extract)(&Value::List(vec![stat(3), stat(7)])).unwrap();
        assert_eq!(
            keys,
            [TruthKey::Port(PortId(3)), TruthKey::Port(PortId(7))]
                .into_iter()
                .collect()
        );
        assert_eq!((HH_TASK.extract)(&Value::List(vec![])), None);
    }

    #[test]
    fn ddos_extract_parses_victim_and_skips_recovery() {
        let msg = Value::List(vec![Value::Str("dstIP 10.0.1.9/32".to_string())]);
        let keys = (DDOS_TASK.extract)(&msg).unwrap();
        assert_eq!(
            keys,
            [TruthKey::Dst(Ipv4::new(10, 0, 1, 9))]
                .into_iter()
                .collect()
        );
        assert_eq!((DDOS_TASK.extract)(&Value::Int(3)), None);
    }

    #[test]
    fn scan_and_ssh_extract_parse_sources() {
        let scan = Value::List(vec![Value::Str("192.0.2.66".to_string())]);
        assert_eq!(
            (PORTSCAN_TASK.extract)(&scan).unwrap(),
            [TruthKey::Src(Ipv4::new(192, 0, 2, 66))]
                .into_iter()
                .collect()
        );
        let ssh = Value::Str("198.51.100.7".to_string());
        assert_eq!(
            (SSH_TASK.extract)(&ssh).unwrap(),
            [TruthKey::Src(Ipv4::new(198, 51, 100, 7))]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn spike_extract_names_int_ports() {
        let msg = Value::List(vec![Value::Int(5), Value::Int(12)]);
        assert_eq!(
            (KISS_SPIKE_TASK.extract)(&msg).unwrap(),
            [TruthKey::Port(PortId(5)), TruthKey::Port(PortId(12))]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn externals_land_under_the_machine_name() {
        let env = ddos_externals("10.0.1.9/32", 200_000, 2);
        let consts = env.get("DDoS").unwrap();
        assert_eq!(
            consts.get("protectedPrefix"),
            Some(&Value::Str("10.0.1.9/32".to_string()))
        );
        assert_eq!(consts.get("volumeThreshold"), Some(&Value::Int(200_000)));
    }
}
