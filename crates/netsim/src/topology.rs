//! Fabric topology: spine-leaf builder, link map, path enumeration.
//!
//! The paper deploys FARM on a spine-leaf cluster in a production SAP data
//! center (20 switches reported; the placement study scales to 1 040). The
//! builder assigns each leaf an IPv4 /24 so that host addresses and the SDN
//! controller's `φ_path` path queries are well defined.

use std::collections::HashMap;

use crate::switch::SwitchModel;
use crate::types::{Ipv4, Prefix, SwitchId};

/// Role of a switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    Spine,
    Leaf,
}

/// A node of the topology graph.
#[derive(Debug, Clone)]
pub struct SwitchNode {
    pub id: SwitchId,
    pub role: Role,
    /// Subnet owned by a leaf (None for spines).
    pub prefix: Option<Prefix>,
    pub model: SwitchModel,
}

/// An undirected fabric link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub a: SwitchId,
    pub b: SwitchId,
    /// Link bandwidth in bits/s.
    pub bandwidth_bps: u64,
}

/// The fabric graph.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<SwitchNode>,
    links: Vec<Link>,
    /// `(id, index into nodes)` in id order. A switch's position here is
    /// its *slot*: the index [`crate::network::Network`] and the
    /// adjacency table address per-switch state by.
    by_id: Vec<(SwitchId, u32)>,
    /// Direct neighbours per slot.
    adjacency: Vec<Vec<SwitchId>>,
}

impl Topology {
    /// Builds a spine-leaf fabric: every leaf connects to every spine.
    /// Leaf `i` owns the /24 subnet `10.((i+1)>>8).((i+1)&0xff).0/24`,
    /// supporting thousands of leaves.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or exceeds 65 000 leaves.
    pub fn spine_leaf(
        n_spines: usize,
        n_leaves: usize,
        spine_model: SwitchModel,
        leaf_model: SwitchModel,
    ) -> Topology {
        assert!(n_spines > 0 && n_leaves > 0, "empty fabric");
        assert!(n_leaves <= 65_000, "too many leaves for the address plan");
        let mut nodes = Vec::with_capacity(n_spines + n_leaves);
        for s in 0..n_spines {
            nodes.push(SwitchNode {
                id: SwitchId(s as u32),
                role: Role::Spine,
                prefix: None,
                model: spine_model.clone(),
            });
        }
        for l in 0..n_leaves {
            let idx = (l + 1) as u32;
            let addr = Ipv4((10u32 << 24) | (idx << 8));
            nodes.push(SwitchNode {
                id: SwitchId((n_spines + l) as u32),
                role: Role::Leaf,
                prefix: Some(Prefix::new(addr, 24)),
                model: leaf_model.clone(),
            });
        }
        let mut links = Vec::new();
        for s in 0..n_spines {
            for l in 0..n_leaves {
                links.push(Link {
                    a: SwitchId(s as u32),
                    b: SwitchId((n_spines + l) as u32),
                    bandwidth_bps: 100_000_000_000,
                });
            }
        }
        Topology::from_parts(nodes, links)
    }

    /// Builds a topology from explicit nodes and links.
    ///
    /// # Panics
    ///
    /// Panics if two nodes share an id or a link references an unknown
    /// node.
    pub fn from_parts(nodes: Vec<SwitchNode>, links: Vec<Link>) -> Topology {
        let mut by_id: Vec<(SwitchId, u32)> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i as u32))
            .collect();
        by_id.sort_unstable();
        assert!(
            by_id.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate switch id"
        );
        let mut topology = Topology {
            adjacency: vec![Vec::new(); nodes.len()],
            nodes,
            links: Vec::new(),
            by_id,
        };
        for l in &links {
            let (Some(a), Some(b)) = (topology.slot_of(l.a), topology.slot_of(l.b)) else {
                panic!("link references unknown switch");
            };
            topology.adjacency[a].push(l.b);
            topology.adjacency[b].push(l.a);
        }
        topology.links = links;
        topology
    }

    /// Rank of `id` among the switch ids in ascending order, `None` for
    /// an unknown switch. Ids may be sparse; the builders number switches
    /// contiguously, which makes this a single probe.
    pub(crate) fn slot_of(&self, id: SwitchId) -> Option<usize> {
        let first = self.by_id.first()?.0;
        let guess = id.0.wrapping_sub(first.0) as usize;
        if self.by_id.get(guess).is_some_and(|e| e.0 == id) {
            return Some(guess);
        }
        self.by_id.binary_search_by_key(&id, |e| e.0).ok()
    }

    /// The node in slot `slot` (see `Topology::slot_of`).
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn node_at(&self, slot: usize) -> &SwitchNode {
        &self.nodes[self.by_id[slot].1 as usize]
    }

    /// All switches.
    pub fn switches(&self) -> &[SwitchNode] {
        &self.nodes
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty fabric (never produced by the builders).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node by id.
    pub fn node(&self, id: SwitchId) -> Option<&SwitchNode> {
        self.slot_of(id).map(|slot| self.node_at(slot))
    }

    /// Direct neighbors of a switch.
    pub fn neighbors(&self, id: SwitchId) -> &[SwitchId] {
        self.slot_of(id).map_or(&[], |slot| &self.adjacency[slot])
    }

    /// Ids of all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Leaf)
            .map(|n| n.id)
    }

    /// Ids of all spines.
    pub fn spines(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Spine)
            .map(|n| n.id)
    }

    /// Leaves whose subnet overlaps `prefix`.
    pub(crate) fn leaves_overlapping(&self, prefix: &Prefix) -> Vec<SwitchId> {
        self.nodes
            .iter()
            .filter(|n| n.prefix.is_some_and(|p| p.overlaps(prefix)))
            .map(|n| n.id)
            .collect()
    }

    /// `j`-th host address behind leaf `leaf` (j starts at 0).
    ///
    /// Returns `None` for spines or out-of-subnet indices.
    pub fn host_ip(&self, leaf: SwitchId, j: u32) -> Option<Ipv4> {
        let p = self.node(leaf)?.prefix?;
        if j >= 254 {
            return None;
        }
        Some(Ipv4(p.addr.0 + j + 1))
    }

    /// All switch-level paths between two leaves. In a spine-leaf fabric
    /// this is `[src]` for intra-leaf traffic and `[src, spine_i, dst]`
    /// for every spine otherwise (the ECMP set).
    pub(crate) fn paths(&self, src: SwitchId, dst: SwitchId) -> Vec<Vec<SwitchId>> {
        if src == dst {
            return vec![vec![src]];
        }
        // Spine-leaf special case: common neighbors give 3-hop paths.
        let src_n = self.neighbors(src);
        let dst_n: std::collections::HashSet<SwitchId> =
            self.neighbors(dst).iter().copied().collect();
        let mut out: Vec<Vec<SwitchId>> = src_n
            .iter()
            .filter(|m| dst_n.contains(m))
            .map(|m| vec![src, *m, dst])
            .collect();
        if out.is_empty() {
            // Fall back to one BFS shortest path for non-spine-leaf graphs.
            if let Some(p) = self.bfs_path(src, dst) {
                out.push(p);
            }
        } else if src_n.contains(&dst) {
            out.insert(0, vec![src, dst]);
        }
        out
    }

    fn bfs_path(&self, src: SwitchId, dst: SwitchId) -> Option<Vec<SwitchId>> {
        let mut prev: HashMap<SwitchId, SwitchId> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([src]);
        prev.insert(src, src);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &v in self.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Topology {
        Topology::spine_leaf(2, 3, SwitchModel::test_model(8), SwitchModel::test_model(8))
    }

    #[test]
    fn spine_leaf_has_full_bipartite_links() {
        let t = fabric();
        assert_eq!(t.len(), 5);
        assert_eq!(t.links().len(), 6);
        assert_eq!(t.spines().count(), 2);
        assert_eq!(t.leaves().count(), 3);
        for l in t.leaves() {
            assert_eq!(t.neighbors(l).len(), 2);
        }
    }

    #[test]
    fn leaf_prefixes_are_disjoint_and_resolvable() {
        let t = fabric();
        let leaves: Vec<_> = t.leaves().collect();
        for (i, &l) in leaves.iter().enumerate() {
            let ip = t.host_ip(l, 0).unwrap();
            assert_eq!(t.leaves_overlapping(&Prefix::host(ip)), [l], "leaf {i}");
        }
        // Host ips from different leaves resolve differently.
        let a = t.host_ip(leaves[0], 5).unwrap();
        let b = t.host_ip(leaves[1], 5).unwrap();
        assert_ne!(
            t.leaves_overlapping(&Prefix::host(a)),
            t.leaves_overlapping(&Prefix::host(b))
        );
    }

    #[test]
    fn inter_leaf_paths_enumerate_all_spines() {
        let t = fabric();
        let leaves: Vec<_> = t.leaves().collect();
        let paths = t.paths(leaves[0], leaves[2]);
        assert_eq!(paths.len(), 2); // one per spine
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], leaves[0]);
            assert_eq!(p[2], leaves[2]);
            assert_eq!(t.node(p[1]).unwrap().role, Role::Spine);
        }
    }

    #[test]
    fn intra_leaf_path_is_trivial() {
        let t = fabric();
        let l = t.leaves().next().unwrap();
        assert_eq!(t.paths(l, l), vec![vec![l]]);
    }

    #[test]
    fn bfs_fallback_works_on_a_chain() {
        let m = SwitchModel::test_model(2);
        let nodes = (0..4u32)
            .map(|i| SwitchNode {
                id: SwitchId(i),
                role: Role::Leaf,
                prefix: None,
                model: m.clone(),
            })
            .collect();
        let links = (0..3u32)
            .map(|i| Link {
                a: SwitchId(i),
                b: SwitchId(i + 1),
                bandwidth_bps: 1,
            })
            .collect();
        let t = Topology::from_parts(nodes, links);
        let paths = t.paths(SwitchId(0), SwitchId(3));
        assert_eq!(paths.len(), 1);
        assert_eq!(
            paths[0],
            vec![SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)]
        );
    }

    #[test]
    fn scales_to_fig7_size() {
        // 1040 switches: 16 spines + 1024 leaves (the placement study size).
        let t = Topology::spine_leaf(
            16,
            1024,
            SwitchModel::test_model(64),
            SwitchModel::test_model(64),
        );
        assert_eq!(t.len(), 1040);
        let last_leaf = t.leaves().last().unwrap();
        let ip = t.host_ip(last_leaf, 3).unwrap();
        assert_eq!(t.leaves_overlapping(&Prefix::host(ip)), [last_leaf]);
    }

    #[test]
    fn host_ip_bounds() {
        let t = fabric();
        let l = t.leaves().next().unwrap();
        assert!(t.host_ip(l, 300).is_none());
        let spine = t.spines().next().unwrap();
        assert!(t.host_ip(spine, 0).is_none());
    }

    #[test]
    fn sparse_ids_in_any_order_resolve_by_slot() {
        let m = SwitchModel::test_model(2);
        let ids = [900u32, 7, 40, 8];
        let nodes = ids
            .iter()
            .map(|&i| SwitchNode {
                id: SwitchId(i),
                role: Role::Leaf,
                prefix: None,
                model: m.clone(),
            })
            .collect();
        let links = vec![Link {
            a: SwitchId(900),
            b: SwitchId(7),
            bandwidth_bps: 1,
        }];
        let t = Topology::from_parts(nodes, links);
        // Slots rank the ids; `switches()` keeps the construction order.
        assert_eq!(t.slot_of(SwitchId(7)), Some(0));
        assert_eq!(t.slot_of(SwitchId(8)), Some(1));
        assert_eq!(t.slot_of(SwitchId(40)), Some(2));
        assert_eq!(t.slot_of(SwitchId(900)), Some(3));
        assert_eq!(t.slot_of(SwitchId(9)), None);
        assert_eq!(t.switches()[0].id, SwitchId(900));
        for &i in &ids {
            assert_eq!(t.node(SwitchId(i)).unwrap().id, SwitchId(i));
        }
        assert!(t.node(SwitchId(0)).is_none());
        assert_eq!(t.neighbors(SwitchId(7)), &[SwitchId(900)]);
        assert!(t.neighbors(SwitchId(40)).is_empty());
        assert!(t.neighbors(SwitchId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate switch id")]
    fn duplicate_ids_are_rejected() {
        let node = SwitchNode {
            id: SwitchId(1),
            role: Role::Leaf,
            prefix: None,
            model: SwitchModel::test_model(2),
        };
        Topology::from_parts(vec![node.clone(), node], Vec::new());
    }
}
