//! A runnable network: topology plus instantiated switches, including
//! their failure state (down switches, down links, reachability).

use std::collections::BTreeSet;

use crate::switch::Switch;
use crate::topology::Topology;
use crate::types::{FlowKey, PortId, SwitchId};

/// One parcel of traffic applied to a switch during a simulation tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficEvent {
    pub switch: SwitchId,
    pub rx_port: Option<PortId>,
    pub tx_port: Option<PortId>,
    pub flow: FlowKey,
    pub bytes: u64,
    pub packets: u64,
}

/// The simulated fabric with live per-switch state. Per-switch state is
/// addressed by the topology's slot (`Topology::slot_of`): position in
/// ascending id order.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    /// One switch per slot.
    switches: Vec<Switch>,
    /// Switch ids per slot, i.e. ascending.
    ids: Vec<SwitchId>,
    /// Per slot: the switch is not crashed.
    up: Vec<bool>,
    /// Links currently down, stored with endpoints in sorted order.
    links_down: BTreeSet<(SwitchId, SwitchId)>,
    /// Per slot: the switch is in [`Network::reachable`]. Walked again
    /// whenever a switch or link changes state, read everywhere else.
    reached: Vec<bool>,
    /// Kept so switches recreated after a crash get re-instrumented.
    telemetry: Option<farm_telemetry::Telemetry>,
}

fn link_key(a: SwitchId, b: SwitchId) -> (SwitchId, SwitchId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// Instantiates one [`Switch`] per topology node.
    pub fn new(topology: Topology) -> Network {
        let switches: Vec<Switch> = (0..topology.len())
            .map(|slot| {
                let node = topology.node_at(slot);
                Switch::new(node.id, node.model.clone())
            })
            .collect();
        let mut net = Network {
            ids: switches.iter().map(Switch::id).collect(),
            up: vec![true; switches.len()],
            reached: Vec::new(),
            switches,
            topology,
            links_down: BTreeSet::new(),
            telemetry: None,
        };
        net.reach();
        net
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Position of a switch in [`Network::switches`] / [`Network::switch_ids`]
    /// order, `None` for an unknown switch.
    pub fn slot_of(&self, id: SwitchId) -> Option<usize> {
        self.topology.slot_of(id)
    }

    /// Shared access to a switch.
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.slot_of(id).map(|slot| &self.switches[slot])
    }

    /// Exclusive access to a switch.
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        self.slot_of(id).map(|slot| &mut self.switches[slot])
    }

    /// Iterates all switches in id order.
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.iter()
    }

    /// Ids of all switches in order.
    pub fn switch_ids(&self) -> Vec<SwitchId> {
        self.ids.clone()
    }

    /// Applies a batch of traffic events to the respective switches.
    /// Traffic addressed to a crashed switch is silently discarded (the
    /// ASIC is gone; the fabric reroutes around it).
    ///
    /// # Panics
    ///
    /// Panics if an event references an unknown switch.
    pub fn apply_traffic(&mut self, events: &[TrafficEvent]) {
        // Generators emit a switch's events back to back: resolve the
        // slot once per run.
        let mut run: Option<(SwitchId, usize)> = None;
        for e in events {
            let slot = match run {
                Some((id, slot)) if id == e.switch => slot,
                _ => {
                    let slot = self
                        .slot_of(e.switch)
                        .unwrap_or_else(|| panic!("traffic for unknown switch {}", e.switch));
                    run = Some((e.switch, slot));
                    slot
                }
            };
            if self.up[slot] {
                self.switches[slot]
                    .record_traffic(&e.flow, e.rx_port, e.tx_port, e.bytes, e.packets);
            }
        }
    }

    /// Attaches a telemetry handle to every switch (PCIe and polling
    /// instruments). The handle is retained so switches recreated after a
    /// crash (`Network::reset_switch`) stay instrumented.
    pub fn set_telemetry(&mut self, telemetry: &farm_telemetry::Telemetry) {
        self.telemetry = Some(telemetry.clone());
        for sw in &mut self.switches {
            sw.set_telemetry(telemetry.clone());
        }
    }

    /// True when the switch exists and is not crashed.
    pub fn is_up(&self, id: SwitchId) -> bool {
        self.slot_of(id).is_some_and(|slot| self.up[slot])
    }

    /// Marks a switch crashed (`up = false`) or restores it. Restoring a
    /// crashed switch resets it cold — ASIC state (TCAM, counters, meters)
    /// from before the crash is lost.
    pub fn set_switch_up(&mut self, id: SwitchId, up: bool) {
        let Some(slot) = self.slot_of(id) else {
            return;
        };
        if up && !self.up[slot] {
            self.reset_switch(id);
        }
        self.up[slot] = up;
        self.reach();
    }

    /// True when the (undirected) link between `a` and `b` carries traffic.
    pub fn is_link_up(&self, a: SwitchId, b: SwitchId) -> bool {
        !self.links_down.contains(&link_key(a, b))
    }

    /// Takes the link between `a` and `b` down or restores it.
    pub fn set_link_up(&mut self, a: SwitchId, b: SwitchId, up: bool) {
        if up {
            self.links_down.remove(&link_key(a, b));
        } else {
            self.links_down.insert(link_key(a, b));
        }
        self.reach();
    }

    /// The switches that are up and reachable from at least one up spine
    /// over up links (spines themselves only need to be up), ascending.
    /// With no spines in the topology, reachability degenerates to
    /// "switch is up".
    pub fn reachable(&self) -> Vec<SwitchId> {
        self.ids
            .iter()
            .zip(&self.reached)
            .filter(|(_, reached)| **reached)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Per slot: the switch is in [`Network::reachable`].
    pub fn reached(&self) -> &[bool] {
        &self.reached
    }

    /// Recomputes the reachable set: one traversal of the fabric.
    fn reach(&mut self) {
        let spines: Vec<usize> = self
            .topology
            .spines()
            .map(|id| self.slot_of(id).expect("spine is a node"))
            .collect();
        self.reached = if spines.is_empty() {
            self.up.clone()
        } else {
            self.reached_from(spines)
        };
    }

    /// Breadth-first walk over up switches and up links from the up
    /// switches among `roots`; the result is indexed by slot.
    fn reached_from(&self, mut roots: Vec<usize>) -> Vec<bool> {
        roots.retain(|slot| self.up[*slot]);
        let mut seen = vec![false; self.ids.len()];
        for &slot in &roots {
            seen[slot] = true;
        }
        // Once every up switch has been reached the rest of the walk can
        // only re-visit: a healthy spine-leaf fabric is done after the
        // first spine's links.
        let mut unreached = self.up.iter().filter(|up| **up).count() - roots.len();
        // `frontier[head..]` is the queue.
        let mut frontier = roots;
        let mut head = 0;
        while head < frontier.len() && unreached > 0 {
            let u = self.ids[frontier[head]];
            head += 1;
            for &v in self.topology.neighbors(u) {
                let slot = self.slot_of(v).expect("neighbor is a node");
                if seen[slot] || !self.up[slot] || !self.is_link_up(u, v) {
                    continue;
                }
                seen[slot] = true;
                unreached -= 1;
                frontier.push(slot);
            }
        }
        seen
    }

    /// True when `id` is in [`Network::reachable`].
    pub fn is_reachable(&self, id: SwitchId) -> bool {
        self.slot_of(id).is_some_and(|slot| self.reached[slot])
    }

    /// Replaces a switch with a factory-fresh instance of the same model
    /// (cold boot: empty TCAM, zeroed counters and meters), re-attaching
    /// telemetry when configured.
    pub(crate) fn reset_switch(&mut self, id: SwitchId) {
        let Some(slot) = self.slot_of(id) else {
            return;
        };
        let mut fresh = Switch::new(id, self.topology.node_at(slot).model.clone());
        if let Some(t) = &self.telemetry {
            fresh.set_telemetry(t.clone());
        }
        self.switches[slot] = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchModel;
    use crate::types::Ipv4;

    #[test]
    fn network_instantiates_every_node() {
        let topo =
            Topology::spine_leaf(2, 2, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let net = Network::new(topo);
        assert_eq!(net.switch_ids().len(), 4);
        for id in net.switch_ids() {
            assert!(net.switch(id).is_some());
        }
    }

    #[test]
    fn traffic_routes_to_the_right_switch() {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let leaf = net.topology().leaves().next().unwrap();
        let flow = FlowKey::tcp(Ipv4::new(10, 1, 0, 1), 1, Ipv4::new(10, 2, 0, 1), 80);
        net.apply_traffic(&[TrafficEvent {
            switch: leaf,
            rx_port: Some(PortId(0)),
            tx_port: Some(PortId(1)),
            flow,
            bytes: 900,
            packets: 2,
        }]);
        assert_eq!(
            net.switch(leaf).unwrap().port_counters(PortId(1)).tx_bytes,
            900
        );
        let other = net.topology().leaves().nth(1).unwrap();
        assert_eq!(
            net.switch(other).unwrap().port_counters(PortId(1)).tx_bytes,
            0
        );
    }

    #[test]
    fn crashed_switch_drops_traffic_and_restarts_cold() {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let leaf = net.topology().leaves().next().unwrap();
        let flow = FlowKey::tcp(Ipv4::new(10, 1, 0, 1), 1, Ipv4::new(10, 2, 0, 1), 80);
        let ev = TrafficEvent {
            switch: leaf,
            rx_port: Some(PortId(0)),
            tx_port: Some(PortId(1)),
            flow,
            bytes: 500,
            packets: 1,
        };
        net.apply_traffic(std::slice::from_ref(&ev));
        assert_eq!(
            net.switch(leaf).unwrap().port_counters(PortId(1)).tx_bytes,
            500
        );

        net.set_switch_up(leaf, false);
        assert!(!net.is_up(leaf));
        assert_eq!(net.up.iter().filter(|up| !**up).count(), 1);
        net.apply_traffic(std::slice::from_ref(&ev));

        net.set_switch_up(leaf, true);
        assert!(net.is_up(leaf));
        // Cold boot: the pre-crash counters are gone.
        assert_eq!(
            net.switch(leaf).unwrap().port_counters(PortId(1)).tx_bytes,
            0
        );
    }

    #[test]
    fn link_state_is_undirected() {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let spine = net.topology().spines().next().unwrap();
        let leaf = net.topology().leaves().next().unwrap();
        assert!(net.is_link_up(spine, leaf));
        net.set_link_up(leaf, spine, false);
        assert!(!net.is_link_up(spine, leaf));
        net.set_link_up(spine, leaf, true);
        assert!(net.is_link_up(leaf, spine));
    }

    #[test]
    fn reachability_follows_up_links_and_switches() {
        let topo =
            Topology::spine_leaf(2, 2, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let spines: Vec<_> = net.topology().spines().collect();
        let leaves: Vec<_> = net.topology().leaves().collect();
        assert!(net.is_reachable(leaves[0]));

        // Cutting one uplink leaves the other spine as a path.
        net.set_link_up(spines[0], leaves[0], false);
        assert!(net.is_reachable(leaves[0]));

        // Cutting both isolates the leaf even though it is up.
        net.set_link_up(spines[1], leaves[0], false);
        assert!(net.is_up(leaves[0]));
        assert!(!net.is_reachable(leaves[0]));
        assert!(net.is_reachable(leaves[1]));

        // A crashed switch is never reachable.
        net.set_switch_up(leaves[1], false);
        assert!(!net.is_reachable(leaves[1]));

        // With every spine down nothing is reachable.
        net.set_link_up(spines[0], leaves[0], true);
        net.set_switch_up(spines[0], false);
        net.set_switch_up(spines[1], false);
        assert!(!net.is_reachable(leaves[0]));
    }

    #[test]
    fn interleaved_traffic_lands_on_each_switch_and_skips_the_crashed_one() {
        let topo =
            Topology::spine_leaf(1, 3, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let leaves: Vec<_> = net.topology().leaves().collect();
        net.set_switch_up(leaves[1], false);
        let flow = FlowKey::tcp(Ipv4::new(10, 1, 0, 1), 1, Ipv4::new(10, 2, 0, 1), 80);
        let ev = |switch, bytes| TrafficEvent {
            switch,
            rx_port: None,
            tx_port: Some(PortId(0)),
            flow,
            bytes,
            packets: 1,
        };
        // Runs of one, two and one event; the crashed switch in between.
        net.apply_traffic(&[
            ev(leaves[2], 1),
            ev(leaves[0], 10),
            ev(leaves[0], 20),
            ev(leaves[1], 100),
            ev(leaves[2], 2),
        ]);
        let tx = |id| net.switch(id).unwrap().port_counters(PortId(0)).tx_bytes;
        assert_eq!(tx(leaves[0]), 30);
        assert_eq!(tx(leaves[1]), 0);
        assert_eq!(tx(leaves[2]), 3);
    }

    #[test]
    #[should_panic(expected = "traffic for unknown switch")]
    fn traffic_for_an_unknown_switch_panics() {
        let topo =
            Topology::spine_leaf(1, 1, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let flow = FlowKey::tcp(Ipv4::new(10, 1, 0, 1), 1, Ipv4::new(10, 2, 0, 1), 80);
        net.apply_traffic(&[TrafficEvent {
            switch: SwitchId(77),
            rx_port: None,
            tx_port: None,
            flow,
            bytes: 1,
            packets: 1,
        }]);
    }

    #[test]
    fn crash_and_restore_of_every_switch_at_paper_scale() {
        // Each restore finds its model through the slot index; a scan of
        // all nodes per restore made this storm a million node visits.
        let topo = Topology::spine_leaf(
            16,
            1024,
            SwitchModel::test_model(2),
            SwitchModel::test_model(2),
        );
        let mut net = Network::new(topo);
        let ids = net.switch_ids();
        for &id in &ids {
            net.set_switch_up(id, false);
        }
        assert!(net.reachable().is_empty());
        assert!(ids.iter().all(|&id| !net.is_up(id)));
        for &id in &ids {
            net.set_switch_up(id, true);
            assert_eq!(net.switch(id).unwrap().id(), id);
        }
        assert_eq!(net.reachable(), ids);
    }
}
