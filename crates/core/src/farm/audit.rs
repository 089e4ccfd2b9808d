//! [`Farm::audit`]: the farm held to itself. Each layer keeps derived
//! state so it can skip work — the live list, the seeder's round scope,
//! the solver's memory, each soil's in-use total, trigger table and
//! polling rules — and each is held here to its recomputation, beside
//! the invariants that tie the seed table to the soils. Nothing here runs
//! on its own: a test or an operator asks.

use std::fmt;

use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;

use farm_placement::model::SwitchList;

use super::{live, live_list, Farm};

/// What [`Farm::audit`] found: one line per invariant that does not
/// hold, empty when the farm agrees with itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Each broken invariant, named by what holds it, in check order.
    pub findings: Vec<String>,
}

impl AuditReport {
    /// Whether nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        f.write_str(&self.findings.join("\n"))
    }
}

impl Farm {
    /// Checks the farm against itself:
    /// * the kept live list against a walk over the slots, and the walk
    ///   against the switches
    ///   [`farm_netsim::network::Network::reachable`] finds, less the
    ///   fenced and the cordoned ones, at effective resources;
    /// * the seeder's switch list against the kept live list, its round
    ///   scope, the solver memory and C2 of the
    ///   committed seats (`Seeder::audit`);
    /// * every soil's kept state ([`farm_soil::Soil::audit`]);
    /// * the seed table against the soils: a live seed runs its key's
    ///   machine on an up switch, and an up, unfenced switch's soil runs
    ///   exactly the live seeds the table places there;
    /// * a recovering seed is a seed of a registered task with no seat;
    /// * every key the checkpoint export lists is a seed of a registered
    ///   task, listed once, in display order; the cordoned and fenced
    ///   lists are ascending, unique and of the fabric.
    ///
    /// Off the hot path: it rebuilds what the farm keeps.
    pub fn audit(&self) -> AuditReport {
        let mut findings = Vec::new();
        self.audit_live(&mut findings);
        self.seeder.audit(self.live.get(), &mut findings);
        let net = &self.network;
        for sw in net.switches() {
            let soil = net
                .slot_of(sw.id())
                .and_then(|s| self.rows[s].soil.as_ref());
            if let Some(Err(e)) = soil.map(|soil| soil.audit(sw)) {
                findings.push(format!("soil of {}: {e}", sw.id()));
            }
        }
        self.audit_seeds(&mut findings);
        let recovering = self.recovery.keys();
        for key in recovering.filter(|k| self.seeder.machine_of(k).is_none()) {
            findings.push(format!("recovery: {key} is no seed of a registered task"));
        }
        for key in self
            .recovery
            .keys()
            .filter(|k| self.seeder.placed(k).is_some())
        {
            findings.push(format!("recovery: {key} has a seat"));
        }
        let exports = self.export_checkpoints();
        for (key, _) in exports
            .iter()
            .filter(|(k, _)| self.seeder.machine_of(k).is_none())
        {
            findings.push(format!("export: {key} is no seed of a registered task"));
        }
        let exported: Vec<String> = exports.iter().map(|(k, _)| k.to_string()).collect();
        if !exported.windows(2).all(|w| w[0] < w[1]) {
            findings.push(format!("export: not in order, or twice: {exported:?}"));
        }
        let ids = net.switch_ids();
        for (what, list) in [
            ("cordoned", self.cordoned_switches()),
            ("fenced", self.fenced_switches()),
        ] {
            let ascending = list.windows(2).all(|w| w[0] < w[1]);
            if !ascending || !list.iter().all(|id| ids.contains(id)) {
                findings.push(format!("{what}: {list:?} of fabric {ids:?}"));
            }
        }
        AuditReport { findings }
    }

    /// The live list, if one is kept, against a walk over the slots now;
    /// then the list against the fabric.
    fn audit_live(&self, findings: &mut Vec<String>) {
        let bits = |r: &Resources| r.0.map(f64::to_bits);
        let rows = |l: &SwitchList| -> Vec<_> { l.iter().map(|(id, r)| (*id, bits(r))).collect() };
        let now = rows(&live_list(&self.network, &self.rows));
        if let Some(kept) = self.live.get().map(rows) {
            if kept != now {
                findings.push(format!("live list: kept {kept:?}, walk {now:?}"));
            }
        }
        let (fenced, cordoned) = (self.fenced_switches(), self.cordoned_switches());
        let fold: Vec<(SwitchId, [u64; 4])> = (self.network.reachable().into_iter())
            .filter(|id| !fenced.contains(id) && !cordoned.contains(id))
            .filter_map(|id| Some((id, bits(&self.network.switch(id)?.effective_resources()))))
            .collect();
        if now != fold {
            findings.push(format!("live capacities {now:?}, reachable {fold:?}"));
        }
    }

    /// The seed table against the soils.
    fn audit_seeds(&self, findings: &mut Vec<String>) {
        let net = &self.network;
        let table: Vec<_> = self.seeder.table().collect();
        for (key, placed) in &table {
            let Some(seed) = live(&self.rows, net, *placed) else {
                continue;
            };
            let machine = self.seeder.machine_of(key);
            let want = machine.as_ref().map(|m| m.machine.name.as_str());
            if !net.is_up(placed.switch) || want != Some(seed.machine_name()) {
                findings.push(format!(
                    "{key}: {} live on {} (up: {})",
                    seed.machine_name(),
                    placed.switch,
                    net.is_up(placed.switch)
                ));
            }
        }
        let fenced = self.fenced_switches();
        for sw in net.switch_ids() {
            let Some(soil) = net.slot_of(sw).and_then(|s| self.rows[s].soil.as_ref()) else {
                continue;
            };
            if !net.is_up(sw) || fenced.contains(&sw) {
                continue;
            }
            let hosted: Vec<_> = soil.seeds().map(|s| s.id).collect();
            let mut placed: Vec<_> = (table.iter())
                .filter(|(_, p)| p.switch == sw && live(&self.rows, net, *p).is_some())
                .map(|(_, p)| p.id)
                .collect();
            placed.sort_unstable();
            if hosted != placed {
                findings.push(format!(
                    "soil of {sw}: runs {hosted:?}, the table {placed:?}"
                ));
            }
        }
    }
}
