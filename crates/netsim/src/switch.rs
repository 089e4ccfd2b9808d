//! Switch model: ports with counters, TCAM, control-plane CPU and PCIe bus.

use std::fmt;

use crate::cpu::{CpuMeter, CpuSpec};
use crate::pcie::{PcieBus, PcieSpec};
use crate::tcam::Tcam;
use crate::time::Dur;
use crate::types::{FlowKey, PortId, PortSel, SwitchId};

/// Resource types tracked by the soil and optimized by the seeder —
/// the set `R` of the paper's optimization model (Tab. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Virtual CPU cores available to seeds.
    VCpu,
    /// Control-plane RAM in megabytes.
    RamMb,
    /// Free monitoring TCAM entries.
    TcamEntries,
    /// Statistics-polling capacity over PCIe, in polls/second — the
    /// special `r_poll` resource subject to aggregation (§ IV-B).
    PciePoll,
}

impl ResourceKind {
    /// All resource kinds in canonical order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::VCpu,
        ResourceKind::RamMb,
        ResourceKind::TcamEntries,
        ResourceKind::PciePoll,
    ];

    /// Canonical index of this kind (stable across the workspace).
    pub fn index(self) -> usize {
        match self {
            ResourceKind::VCpu => 0,
            ResourceKind::RamMb => 1,
            ResourceKind::TcamEntries => 2,
            ResourceKind::PciePoll => 3,
        }
    }

    /// Field name as it appears in Almanac's `res()` structure.
    pub fn field_name(self) -> &'static str {
        match self {
            ResourceKind::VCpu => "vCPU",
            ResourceKind::RamMb => "RAM",
            ResourceKind::TcamEntries => "TCAM",
            ResourceKind::PciePoll => "PCIe",
        }
    }

    /// Parses an Almanac `res()` field name.
    pub fn from_field_name(s: &str) -> Option<ResourceKind> {
        ResourceKind::ALL.into_iter().find(|k| k.field_name() == s)
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.field_name())
    }
}

/// A vector of resource amounts, one per [`ResourceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources(pub [f64; 4]);

impl Resources {
    /// All-zero resources.
    pub const ZERO: Resources = Resources([0.0; 4]);

    /// Builds from explicit amounts.
    pub fn new(vcpu: f64, ram_mb: f64, tcam: f64, pcie_poll: f64) -> Resources {
        Resources([vcpu, ram_mb, tcam, pcie_poll])
    }

    /// Amount of one kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.0[kind.index()]
    }

    /// Sets the amount of one kind.
    pub fn set(&mut self, kind: ResourceKind, v: f64) {
        self.0[kind.index()] = v;
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Resources) -> Resources {
        let mut out = *self;
        for i in 0..4 {
            out.0[i] += other.0[i];
        }
        out
    }

    /// Component-wise difference clamped at zero.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        let mut out = *self;
        for i in 0..4 {
            out.0[i] = (out.0[i] - other.0[i]).max(0.0);
        }
        out
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vCPU={:.2} RAM={:.0}MB TCAM={:.0} PCIe={:.1}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Static description of a switch platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchModel {
    pub name: String,
    pub cpu: CpuSpec,
    pub ram_mb: u64,
    pub tcam_capacity: usize,
    /// Entries reserved for the monitoring TCAM region.
    pub tcam_monitoring_reserve: usize,
    pub pcie: PcieSpec,
    pub num_ports: u16,
}

impl SwitchModel {
    /// Accton AS5712: Atom quad-core, 8 GB (platform (ii)).
    pub fn accton_as5712() -> SwitchModel {
        SwitchModel {
            name: "Accton AS5712".into(),
            cpu: CpuSpec::atom_4c(),
            ram_mb: 8 * 1024,
            tcam_capacity: 2048,
            tcam_monitoring_reserve: 512,
            pcie: PcieSpec::measured(),
            num_ports: 54,
        }
    }

    /// Accton AS7712: like the AS5712 with twice the RAM (platform (iii)).
    pub fn accton_as7712() -> SwitchModel {
        SwitchModel {
            name: "Accton AS7712".into(),
            ram_mb: 16 * 1024,
            ..SwitchModel::accton_as5712()
        }
    }

    /// A tiny model for unit tests.
    pub fn test_model(num_ports: u16) -> SwitchModel {
        SwitchModel {
            name: "test".into(),
            cpu: CpuSpec::atom_4c(),
            ram_mb: 1024,
            tcam_capacity: 64,
            tcam_monitoring_reserve: 32,
            pcie: PcieSpec::measured(),
            num_ports,
        }
    }

    /// Total resources the platform offers to monitoring (the `ares(n, r)`
    /// input of the optimization model).
    pub fn total_resources(&self) -> Resources {
        Resources::new(
            self.cpu.cores as f64,
            self.ram_mb as f64,
            self.tcam_monitoring_reserve as f64,
            // Polling capacity in poll operations per second: each poll
            // transfers ~POLL_STAT_BYTES over the PCIe polling budget.
            self.pcie.poll_capacity_bps as f64 / (POLL_STAT_BYTES as f64 * 8.0),
        )
    }
}

/// Bytes transferred over PCIe per polled counter (a raw counter read,
/// not a full export record).
pub const POLL_STAT_BYTES: u64 = 16;

/// Per-port traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    pub tx_packets: u64,
    pub rx_packets: u64,
}

/// Snapshot of one port's counters, as returned by a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStat {
    pub port: PortId,
    pub counters: PortCounters,
}

/// A simulated switch: ASIC state (ports, TCAM) plus control-plane
/// accounting (CPU, PCIe).
#[derive(Debug, Clone)]
pub struct Switch {
    id: SwitchId,
    model: SwitchModel,
    ports: Vec<PortCounters>,
    tcam: Tcam,
    cpu: CpuMeter,
    pcie: PcieBus,
    telemetry: Option<farm_telemetry::Telemetry>,
}

impl Switch {
    /// Instantiates a switch of the given platform.
    pub fn new(id: SwitchId, model: SwitchModel) -> Switch {
        let tcam = Tcam::new(model.tcam_capacity, model.tcam_monitoring_reserve);
        let cpu = CpuMeter::new(model.cpu);
        let pcie = PcieBus::new(model.pcie);
        let ports = vec![PortCounters::default(); model.num_ports as usize];
        Switch {
            id,
            model,
            ports,
            tcam,
            cpu,
            pcie,
            telemetry: None,
        }
    }

    pub fn id(&self) -> SwitchId {
        self.id
    }

    pub fn tcam(&self) -> &Tcam {
        &self.tcam
    }

    pub fn tcam_mut(&mut self) -> &mut Tcam {
        &mut self.tcam
    }

    pub fn cpu(&self) -> &CpuMeter {
        &self.cpu
    }

    pub fn cpu_mut(&mut self) -> &mut CpuMeter {
        &mut self.cpu
    }

    pub fn pcie(&self) -> &PcieBus {
        &self.pcie
    }

    pub fn pcie_mut(&mut self) -> &mut PcieBus {
        &mut self.pcie
    }

    /// Attaches a telemetry handle: PCIe requests and port/rule polls on
    /// this switch start updating `pcie.*`/`switch.*` instruments.
    pub(crate) fn set_telemetry(&mut self, telemetry: farm_telemetry::Telemetry) {
        self.telemetry = Some(telemetry.clone());
        self.pcie.set_telemetry(telemetry, self.id.0);
    }

    /// Nominal platform resources scaled by live fault state: PCIe-poll
    /// capacity shrinks with the bus's injected degradation factor. This
    /// is the budget placement and shedding should plan against.
    pub fn effective_resources(&self) -> Resources {
        let mut r = self.model.total_resources();
        r.set(
            ResourceKind::PciePoll,
            r.get(ResourceKind::PciePoll) * self.pcie.degradation(),
        );
        r
    }

    /// Records traffic of `flow` entering on `rx_port` and leaving on
    /// `tx_port`, updating port and TCAM counters. Either port may be
    /// `None` for traffic originating/terminating off-fabric.
    ///
    /// # Panics
    ///
    /// Panics if a port id is out of range for this switch.
    pub fn record_traffic(
        &mut self,
        flow: &FlowKey,
        rx_port: Option<PortId>,
        tx_port: Option<PortId>,
        bytes: u64,
        packets: u64,
    ) {
        if let Some(p) = rx_port {
            let c = &mut self.ports[p.0 as usize];
            c.rx_bytes += bytes;
            c.rx_packets += packets;
        }
        if let Some(p) = tx_port {
            let c = &mut self.ports[p.0 as usize];
            c.tx_bytes += bytes;
            c.tx_packets += packets;
        }
        self.tcam.record_traffic(flow, bytes, packets);
    }

    /// Raw counters of one port.
    ///
    /// # Panics
    ///
    /// Panics if the port id is out of range.
    pub fn port_counters(&self, port: PortId) -> PortCounters {
        self.ports[port.0 as usize]
    }

    /// Polls port statistics over the PCIe bus, charging its bandwidth.
    /// Returns the snapshots and the transfer latency. A port the switch
    /// lacks is not read: no snapshot, no PCIe charge, zero latency.
    pub fn poll_ports(&mut self, sel: PortSel) -> (Vec<PortStat>, Dur) {
        let (stats, latency) = self.poll_ports_iter(sel);
        (stats.collect(), latency)
    }

    /// [`Switch::poll_ports`] without collecting the snapshots: they come
    /// in port order from the iterator, which reads the counters where
    /// they are.
    pub fn poll_ports_iter(
        &mut self,
        sel: PortSel,
    ) -> (impl ExactSizeIterator<Item = PortStat> + '_, Dur) {
        let n = self.ports.len();
        let (ports, latency) = match sel {
            PortSel::Id(i) if usize::from(i) >= n => (n..n, Dur::ZERO),
            _ => {
                let ports = match sel {
                    PortSel::Any => 0..n,
                    PortSel::Id(i) => usize::from(i)..usize::from(i) + 1,
                };
                let read = ports.len() as u64;
                let latency = self.pcie.request(read * POLL_STAT_BYTES);
                if let Some(t) = &self.telemetry {
                    t.counter("switch.port_polls").inc();
                    t.counter("switch.port_stats_read").add(read);
                }
                (ports, latency)
            }
        };
        let first = ports.start;
        let stats = self.ports[ports]
            .iter()
            .enumerate()
            .map(move |(k, c)| PortStat {
                port: PortId((first + k) as u16),
                counters: *c,
            });
        (stats, latency)
    }

    /// Resets per-window meters (CPU, PCIe) — counters persist.
    pub fn reset_meters(&mut self) {
        self.cpu.reset();
        self.pcie.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcam::{RuleAction, TcamRegion};
    use crate::types::{FilterAtom, FilterFormula, Ipv4, Prefix};

    fn test_switch() -> Switch {
        Switch::new(SwitchId(0), SwitchModel::test_model(4))
    }

    fn a_flow() -> FlowKey {
        FlowKey::tcp(Ipv4::new(10, 1, 0, 1), 999, Ipv4::new(10, 2, 0, 1), 80)
    }

    #[test]
    fn traffic_updates_port_and_tcam_counters() {
        let mut sw = test_switch();
        sw.tcam_mut()
            .add_rule(
                TcamRegion::Monitoring,
                0,
                FilterFormula::Atom(FilterAtom::DstIp(Prefix::new(Ipv4::new(10, 2, 0, 0), 16))),
                RuleAction::Count,
            )
            .unwrap();
        sw.record_traffic(&a_flow(), Some(PortId(0)), Some(PortId(1)), 1500, 1);
        assert_eq!(sw.port_counters(PortId(0)).rx_bytes, 1500);
        assert_eq!(sw.port_counters(PortId(1)).tx_bytes, 1500);
        let (_, stats) = sw.tcam().iter_stats().next().expect("the one rule");
        assert_eq!(stats.bytes, 1500);
    }

    #[test]
    fn polling_charges_pcie() {
        let mut sw = test_switch();
        let before = sw.pcie().bytes_requested();
        let (stats, latency) = sw.poll_ports(PortSel::Any);
        assert_eq!(stats.len(), 4);
        assert_eq!(sw.pcie().bytes_requested() - before, 4 * POLL_STAT_BYTES);
        assert!(latency > Dur::ZERO);
    }

    #[test]
    fn poll_single_port() {
        let mut sw = test_switch();
        sw.record_traffic(&a_flow(), None, Some(PortId(2)), 100, 1);
        let (stats, _) = sw.poll_ports(PortSel::Id(2));
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].counters.tx_bytes, 100);
    }

    #[test]
    fn polling_a_port_the_switch_lacks_reads_and_charges_nothing() {
        let mut sw = test_switch();
        let before = (sw.pcie().bytes_requested(), sw.pcie().requests());
        let (stats, latency) = sw.poll_ports(PortSel::Id(4));
        assert!(stats.is_empty());
        assert_eq!(latency, Dur::ZERO);
        let (stats, _) = sw.poll_ports(PortSel::Id(u16::MAX));
        assert!(stats.is_empty());
        assert_eq!((sw.pcie().bytes_requested(), sw.pcie().requests()), before);
        let (stats, _) = sw.poll_ports(PortSel::Id(3));
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn effective_resources_shrink_with_pcie_degradation() {
        let mut sw = test_switch();
        let nominal = sw.effective_resources().get(ResourceKind::PciePoll);
        assert_eq!(
            nominal,
            sw.model.total_resources().get(ResourceKind::PciePoll)
        );
        sw.pcie_mut().set_degradation(0.5);
        let degraded = sw.effective_resources().get(ResourceKind::PciePoll);
        assert!((degraded - nominal * 0.5).abs() < 1e-9);
        // Other kinds are untouched.
        assert_eq!(
            sw.effective_resources().get(ResourceKind::VCpu),
            sw.model.total_resources().get(ResourceKind::VCpu)
        );
    }

    #[test]
    fn platform_models_match_paper_specs() {
        assert_eq!(SwitchModel::accton_as5712().cpu.cores, 4);
        assert_eq!(SwitchModel::accton_as5712().ram_mb, 8 * 1024);
        assert_eq!(
            SwitchModel::accton_as7712().ram_mb,
            2 * SwitchModel::accton_as5712().ram_mb
        );
        assert_eq!(SwitchModel::accton_as7712().num_ports, 54);
    }

    #[test]
    fn resources_vector_ops() {
        let a = Resources::new(2.0, 100.0, 10.0, 5.0);
        let b = Resources::new(1.0, 50.0, 20.0, 1.0);
        assert_eq!(a.add(&b).get(ResourceKind::VCpu), 3.0);
        let d = a.saturating_sub(&b);
        assert_eq!(d.get(ResourceKind::TcamEntries), 0.0);
    }

    #[test]
    fn field_names_round_trip() {
        for k in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_field_name(k.field_name()), Some(k));
        }
        assert_eq!(ResourceKind::from_field_name("bogus"), None);
    }
}
