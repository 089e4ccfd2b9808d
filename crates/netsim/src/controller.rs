//! SDN controller view: path queries over filter formulas.
//!
//! The seeder resolves Almanac `place … range …` directives by asking the
//! SDN controller for the set of paths matching a closed filter formula —
//! the paper's `φ_path(·)` helper (§ III-B). This module implements that
//! query against the simulated topology: source/destination prefixes select
//! leaf sets, and the ECMP path enumeration of `Topology::paths` supplies
//! the path family.

use crate::topology::Topology;
use crate::types::{FilterFormula, SwitchId};

/// Read-only controller facade over a topology.
#[derive(Debug, Clone)]
pub struct SdnController<'a> {
    topology: &'a Topology,
}

impl<'a> SdnController<'a> {
    /// Wraps a topology.
    pub fn new(topology: &'a Topology) -> Self {
        SdnController { topology }
    }

    /// `φ_path(ex_c)`: every switch-level path whose endpoints can carry
    /// traffic matching the formula. A missing src/dst constraint means
    /// "any leaf". Paths are ordered deterministically (by src, dst, and
    /// spine id) so placement interpretation is reproducible.
    pub fn paths_matching(&self, formula: &FilterFormula) -> Vec<Vec<SwitchId>> {
        let src_leaves = match formula.src_prefix() {
            Some(p) => self.topology.leaves_overlapping(&p),
            None => self.topology.leaves().collect(),
        };
        let dst_leaves = match formula.dst_prefix() {
            Some(p) => self.topology.leaves_overlapping(&p),
            None => self.topology.leaves().collect(),
        };
        let mut out = Vec::new();
        for &s in &src_leaves {
            for &d in &dst_leaves {
                if s == d {
                    continue; // same-leaf traffic never crosses the fabric
                }
                out.extend(self.topology.paths(s, d));
            }
        }
        out
    }

    /// All switches (the resolution of `place all` / `place any` without a
    /// constraint).
    pub fn all_switches(&self) -> Vec<SwitchId> {
        self.topology.switches().iter().map(|n| n.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchModel;
    use crate::types::{FilterAtom, Prefix};

    fn fabric() -> Topology {
        Topology::spine_leaf(2, 3, SwitchModel::test_model(8), SwitchModel::test_model(8))
    }

    #[test]
    fn unconstrained_formula_yields_all_leaf_pairs() {
        let t = fabric();
        let c = SdnController::new(&t);
        let paths = c.paths_matching(&FilterFormula::True);
        // 3 leaves → 6 ordered pairs × 2 spines = 12 paths.
        assert_eq!(paths.len(), 12);
    }

    #[test]
    fn prefix_constraints_narrow_endpoints() {
        let t = fabric();
        let c = SdnController::new(&t);
        let leaves: Vec<_> = t.leaves().collect();
        let src_pfx = t.node(leaves[0]).unwrap().prefix.unwrap();
        let dst_pfx = t.node(leaves[1]).unwrap().prefix.unwrap();
        let f = FilterFormula::Atom(FilterAtom::SrcIp(src_pfx))
            .and(FilterFormula::Atom(FilterAtom::DstIp(dst_pfx)));
        let paths = c.paths_matching(&f);
        assert_eq!(paths.len(), 2); // one per spine
        for p in &paths {
            assert_eq!(p[0], leaves[0]);
            assert_eq!(p[2], leaves[1]);
        }
    }

    #[test]
    fn host_level_prefix_resolves_to_owning_leaf() {
        let t = fabric();
        let c = SdnController::new(&t);
        let leaves: Vec<_> = t.leaves().collect();
        let host = t.host_ip(leaves[2], 4).unwrap();
        let f = FilterFormula::Atom(FilterAtom::SrcIp(Prefix::host(host)));
        let paths = c.paths_matching(&f);
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p[0] == leaves[2]));
    }

    #[test]
    fn unmatched_prefix_yields_no_paths() {
        let t = fabric();
        let c = SdnController::new(&t);
        let f = FilterFormula::Atom(FilterAtom::SrcIp("192.168.0.0/16".parse().unwrap()));
        assert!(c.paths_matching(&f).is_empty());
    }
}
