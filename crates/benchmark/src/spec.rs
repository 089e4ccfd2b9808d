//! The benchmark's contract in one place: workload names, end-to-end
//! metrics with their regression bounds, and per-layer metrics.
//! `BENCHMARK.json` at the repository root is printed from these tables
//! (`--print-contract`); a test in `report` fails when the two differ.

use crate::stats::Better;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "replay_flash_crowd",
        why: "big poll handlers: the seed interpreter does almost all the work, placement/net/ctl do nothing",
    },
    Workload {
        name: "replay_microburst",
        why: "tiny handlers at sub-ms cadence: soil scheduling, poll aggregation, PCIe model and core routing carry the share",
    },
    Workload {
        name: "replay_multi_vector",
        why: "per-event path: apply_traffic and probe matching over a million flows outweigh handler interpretation",
    },
    Workload {
        name: "dc_churn",
        why: "paper-scale operator writes through farmd: compile, admission, delta replan and commit dominate, net/ctl hops do not",
    },
    Workload {
        name: "fed_read",
        why: "reads through fedd: frame codec, thread hand-offs, sequential pod fan-out and JSON stats merge; no placement, no interpreter",
    },
    Workload {
        name: "place_paper",
        why: "the solver alone at Fig. 7 scale, cold full solve beside warm delta, so a gain for one that costs the other shows",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these; what `op`, `op2`, a work
/// unit and the score are on each workload is in the README table.
///
/// The timing bounds are as wide as the contract allows, because the
/// machine is noisy, not because the metrics are: over ten seeds the
/// timings spread (quartile distance over median) by 3 to 8 % even after
/// the pacer's scaling, and a bound must be three times the spread seen.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op2_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op2_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "result_score",
        unit: "score",
        better: Better::Higher,
        bound: 0.02,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Machines whose handlers the replay workloads time one by one.
pub const MACHINES: [&str; 7] = [
    "HH",
    "KissVolume",
    "KissPortSpike",
    "DigMicroburst",
    "DDoS",
    "PortScan",
    "SshBruteForce",
];

/// Control-op kinds timed client-side straight at one farmd.
pub const CTL_KINDS: [&str; 8] = [
    "submit",
    "remove-task",
    "drain",
    "uncordon",
    "list-seeds",
    "stats",
    "metrics-dump",
    "describe-seed",
];

/// Read kinds timed client-side through fedd.
pub const FED_KINDS: [&str; 4] = ["list-seeds", "stats", "metrics-dump", "describe-seed"];

/// Layers are the workspace crates; a name is `<crate>.<metric>`. Every
/// traced run prints all of them: a layer a workload does not touch
/// reports zero, which is itself the claim that it was bypassed.
pub const PER_LAYER: &[PerLayer] = &[
    // almanac
    lower("almanac.compile_us_p50", "us"),
    lower("almanac.source_bytes", "count"),
    // soil
    lower("soil.advance_s", "s"),
    lower("soil.offer_ns_per_packet", "ns"),
    lower("soil.deliveries", "count"),
    lower("soil.asic_polls", "count"),
    higher("soil.polls_saved", "count"),
    lower("soil.messages_out", "count"),
    lower("soil.seed_errors", "count"),
    higher("soil.aggregation_ratio", "ratio"),
    lower("soil.interp.handle_ns_p50.HH", "ns"),
    lower("soil.interp.handle_ns_p50.KissVolume", "ns"),
    lower("soil.interp.handle_ns_p50.KissPortSpike", "ns"),
    lower("soil.interp.handle_ns_p50.DigMicroburst", "ns"),
    lower("soil.interp.handle_ns_p50.DDoS", "ns"),
    lower("soil.interp.handle_ns_p50.PortScan", "ns"),
    lower("soil.interp.handle_ns_p50.SshBruteForce", "ns"),
    lower("soil.interp.ns_per_op", "ns"),
    lower("soil.interp.ops_per_delivery", "count"),
    lower("soil.interp.allocs_per_handle", "count"),
    lower("soil.snapshot_us_p50", "us"),
    // netsim
    lower("netsim.apply_ns_per_event", "ns"),
    lower("netsim.poll_ports_ns_p50", "ns"),
    lower("netsim.pcie_requests", "count"),
    lower("netsim.pcie_bytes", "count"),
    lower("netsim.pcie_saturation_events", "count"),
    lower("netsim.port_polls", "count"),
    // scenario
    lower("scenario.gen_s", "s"),
    lower("scenario.ttd_ms", "ms"),
    higher("scenario.recall", "ratio"),
    higher("scenario.precision", "ratio"),
    // core
    lower("core.deploy_tasks_us", "us"),
    lower("core.advance_s", "s"),
    lower("core.apply_traffic_s", "s"),
    lower("core.overhead_s", "s"),
    lower("core.allocs_per_tick", "count"),
    lower("core.heartbeats", "count"),
    lower("core.collector_messages", "count"),
    lower("core.replan_us_p50", "us"),
    lower("core.replan_delta_us_mean", "us"),
    lower("core.plan_actions_p50", "count"),
    lower("core.commit_us_p50", "us"),
    // placement (lp shows through the lp_redistribution phase)
    lower("placement.full.greedy_us_p50", "us"),
    lower("placement.full.lp_us_p50", "us"),
    lower("placement.full.migration_us_p50", "us"),
    lower("placement.delta.greedy_us_p50", "us"),
    lower("placement.delta.lp_us_p50", "us"),
    lower("placement.delta.migration_us_p50", "us"),
    lower("placement.delta.frontier_p50", "count"),
    higher("placement.delta.reuse_ratio", "ratio"),
    lower("placement.delta.fallback_full", "count"),
    lower("placement.instance_build_us_p50", "us"),
    lower("placement.solver_phase_events", "count"),
    // net
    lower("net.rtt_us_p50", "us"),
    lower("net.encode_ns_per_kb", "ns"),
    lower("net.decode_ns_per_kb", "ns"),
    lower("net.reply_bytes_p50", "count"),
    lower("net.frames_sent", "count"),
    lower("net.bytes", "count"),
    lower("net.decode_errors", "count"),
    lower("net.rpc_timeouts", "count"),
    // ctl
    lower("ctl.client_us_p50.submit", "us"),
    lower("ctl.client_us_p50.remove-task", "us"),
    lower("ctl.client_us_p50.drain", "us"),
    lower("ctl.client_us_p50.uncordon", "us"),
    lower("ctl.client_us_p50.list-seeds", "us"),
    lower("ctl.client_us_p50.stats", "us"),
    lower("ctl.client_us_p50.metrics-dump", "us"),
    lower("ctl.client_us_p50.describe-seed", "us"),
    lower("ctl.serve_us_p50", "us"),
    lower("ctl.handoff_us_p50", "us"),
    lower("ctl.rejected", "count"),
    // fed
    lower("fed.client_us_p50.list-seeds", "us"),
    lower("fed.client_us_p50.stats", "us"),
    lower("fed.client_us_p50.metrics-dump", "us"),
    lower("fed.client_us_p50.describe-seed", "us"),
    lower("fed.fanout_us_mean", "us"),
    lower("fed.merge_us_mean", "us"),
    lower("fed.overhead_x", "ratio"),
    lower("fed.fanout_errors", "count"),
    // telemetry, and the harness's own cost
    lower("telemetry.snapshot_us_p50", "us"),
    lower("telemetry.trace_overhead_pct", "%"),
    lower("telemetry.spans", "count"),
];

/// A metric or workload name as the contract allows it: starts with a
/// letter or digit, then letters, digits, `_`, `.`, `-`; at most 64.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit as the contract allows it.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_rule_accepts_and_rejects() {
        for ok in [
            "a",
            "setup_s",
            "soil.interp.handle_ns_p50.HH",
            "ctl.client_us_p50.remove-task",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_obey_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for machine in MACHINES {
            let name = format!("soil.interp.handle_ns_p50.{machine}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        for kind in CTL_KINDS {
            let name = format!("ctl.client_us_p50.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        for kind in FED_KINDS {
            let name = format!("fed.client_us_p50.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
