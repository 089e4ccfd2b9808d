//! Placement interpretation `π⟦q pc⟧` (§ III-B a of the paper).
//!
//! A machine's sequence of `place` directives resolves, against the SDN
//! controller's path queries, to the set of seeds `S^m` and for each seed
//! the non-empty candidate switch set `N^s` at exactly one of which it must
//! be placed:
//!
//! * `place all;` — one pinned seed per switch; `place any;` — one seed
//!   with every switch as candidate;
//! * `place all|any id…;` — same over the listed switches;
//! * `place q [role] [filter] range op k;` — `φ_path(filter)` gives the
//!   matching paths; each path contributes the set of its nodes whose
//!   distance from the anchor (sender / receiver / midpoint) satisfies
//!   `op k`. For `all`, every such node becomes a pinned seed (deduplicated
//!   as a set of sets). For `any`, singleton per-path sets merge into one
//!   seed whose candidates are their union (the paper's
//!   `π⟦any receiver ex range == 1⟧ = {{3, 8}}` example); larger per-path
//!   sets stay separate seeds (`π⟦any receiver ex range <= 1⟧ =
//!   {{3,4},{3,4},{8,9}}`).

use std::collections::BTreeSet;

use farm_netsim::controller::SdnController;
use farm_netsim::types::{FilterFormula, SwitchId};

use super::consteval::{const_eval, ConstEnv};
use crate::ast::*;
use crate::error::{AlmanacError, Result};
use crate::value::Value;

/// One seed to instantiate: it must be placed on exactly one of
/// `candidates`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSpec {
    pub candidates: Vec<SwitchId>,
}

impl SeedSpec {
    /// A seed pinned to a single switch.
    pub(crate) fn pinned(n: SwitchId) -> SeedSpec {
        SeedSpec {
            candidates: vec![n],
        }
    }
}

/// Resolves all `place` directives of a machine into seed specs.
///
/// # Errors
///
/// Analysis-phase errors when expressions are not deployment-time
/// constants, reference unknown switches, or no directive yields any seed.
pub(crate) fn resolve_placements(
    machine: &Machine,
    consts: &ConstEnv,
    controller: &SdnController<'_>,
) -> Result<Vec<SeedSpec>> {
    if machine.placements.is_empty() {
        return Err(AlmanacError::analysis(
            machine.span,
            format!("machine `{}` has no place directive", machine.name),
        ));
    }
    let mut seeds = Vec::new();
    for p in &machine.placements {
        seeds.extend(resolve_one(p, consts, controller)?);
    }
    if seeds.is_empty() {
        return Err(AlmanacError::analysis(
            machine.span,
            format!(
                "place directives of `{}` resolve to no seeds (no matching paths?)",
                machine.name
            ),
        ));
    }
    Ok(seeds)
}

fn resolve_one(
    p: &PlaceDirective,
    consts: &ConstEnv,
    controller: &SdnController<'_>,
) -> Result<Vec<SeedSpec>> {
    match &p.constraint {
        PlaceConstraint::None => {
            let all = controller.all_switches();
            Ok(quantify_flat(p.quant, all))
        }
        PlaceConstraint::Switches(exprs) => {
            let known = controller.all_switches();
            let mut ids = Vec::new();
            for e in exprs {
                let v = const_eval(e, consts)?;
                let i = v.as_int().ok_or_else(|| {
                    AlmanacError::analysis(e.span(), "switch id must be an integer")
                })?;
                let id = SwitchId(u32::try_from(i).map_err(|_| {
                    AlmanacError::analysis(e.span(), format!("switch id {i} out of range"))
                })?);
                if !known.contains(&id) {
                    return Err(AlmanacError::analysis(
                        e.span(),
                        format!("unknown switch {id}"),
                    ));
                }
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            Ok(quantify_flat(p.quant, ids))
        }
        PlaceConstraint::Range {
            role,
            filter,
            op,
            dist,
        } => {
            let formula = match filter {
                None => FilterFormula::True,
                Some(e) => match const_eval(e, consts)? {
                    Value::Filter(f) => f,
                    Value::Bool(true) => FilterFormula::True,
                    other => {
                        return Err(AlmanacError::analysis(
                            e.span(),
                            format!(
                                "path constraint must be a filter, found {}",
                                other.type_name()
                            ),
                        ))
                    }
                },
            };
            let k = const_eval(dist, consts)?.as_int().ok_or_else(|| {
                AlmanacError::analysis(dist.span(), "range distance must be an integer")
            })?;
            let paths = controller.paths_matching(&formula);
            let role = role.unwrap_or(PathRole::Receiver);
            let per_path: Vec<Vec<SwitchId>> = paths
                .iter()
                .map(|path| nodes_in_range(path, role, *op, k))
                .filter(|set| !set.is_empty())
                .collect();
            match p.quant {
                PlaceQuant::All => {
                    // Every selected node of every path, as pinned seeds;
                    // set-of-sets semantics deduplicates.
                    let mut set: BTreeSet<SwitchId> = BTreeSet::new();
                    for nodes in &per_path {
                        set.extend(nodes.iter().copied());
                    }
                    Ok(set.into_iter().map(SeedSpec::pinned).collect())
                }
                PlaceQuant::Any => {
                    if per_path.iter().all(|s| s.len() == 1) {
                        // Merge singletons into one seed with the union as
                        // its candidate set.
                        let mut set: BTreeSet<SwitchId> = BTreeSet::new();
                        for nodes in &per_path {
                            set.insert(nodes[0]);
                        }
                        if set.is_empty() {
                            return Ok(Vec::new());
                        }
                        Ok(vec![SeedSpec {
                            candidates: set.into_iter().collect(),
                        }])
                    } else {
                        Ok(per_path
                            .into_iter()
                            .map(|candidates| SeedSpec { candidates })
                            .collect())
                    }
                }
            }
        }
    }
}

fn quantify_flat(q: PlaceQuant, switches: Vec<SwitchId>) -> Vec<SeedSpec> {
    match q {
        PlaceQuant::All => switches.into_iter().map(SeedSpec::pinned).collect(),
        PlaceQuant::Any => {
            if switches.is_empty() {
                Vec::new()
            } else {
                vec![SeedSpec {
                    candidates: switches,
                }]
            }
        }
    }
}

/// Nodes of `path` whose distance from the anchor satisfies `op k`.
fn nodes_in_range(path: &[SwitchId], role: PathRole, op: CmpOp, k: i64) -> Vec<SwitchId> {
    let len = path.len();
    let dist = |i: usize| -> i64 {
        match role {
            PathRole::Sender => i as i64,
            PathRole::Receiver => (len - 1 - i) as i64,
            PathRole::Midpoint => {
                if len % 2 == 1 {
                    let m = (len - 1) / 2;
                    (i as i64 - m as i64).abs()
                } else {
                    let m1 = len / 2 - 1;
                    let m2 = len / 2;
                    (i as i64 - m1 as i64)
                        .abs()
                        .min((i as i64 - m2 as i64).abs())
                }
            }
        }
    };
    path.iter()
        .enumerate()
        .filter(|(i, _)| {
            let d = dist(*i);
            match op {
                CmpOp::Eq => d == k,
                CmpOp::Ne => d != k,
                CmpOp::Le => d <= k,
                CmpOp::Ge => d >= k,
                CmpOp::Lt => d < k,
                CmpOp::Gt => d > k,
            }
        })
        .map(|(_, n)| *n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;

    fn resolve(place_src: &str, topo: &Topology) -> Result<Vec<SeedSpec>> {
        let src = format!("machine M {{ {place_src} state s {{ }} }}");
        let p = parse(&src).unwrap();
        let ctl = SdnController::new(topo);
        resolve_placements(&p.machines[0], &ConstEnv::new(), &ctl)
    }

    fn fabric() -> Topology {
        Topology::spine_leaf(2, 3, SwitchModel::test_model(8), SwitchModel::test_model(8))
    }

    #[test]
    fn place_all_pins_one_seed_per_switch() {
        let t = fabric();
        let seeds = resolve("place all;", &t).unwrap();
        assert_eq!(seeds.len(), 5);
        assert!(seeds.iter().all(|s| s.candidates.len() == 1));
    }

    #[test]
    fn place_any_yields_one_flexible_seed() {
        let t = fabric();
        let seeds = resolve("place any;", &t).unwrap();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].candidates.len(), 5);
    }

    #[test]
    fn explicit_switch_lists() {
        let t = fabric();
        let seeds = resolve("place all 0, 1;", &t).unwrap();
        assert_eq!(seeds.len(), 2);
        let seeds = resolve("place any 0, 1, 2;", &t).unwrap();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].candidates.len(), 3);
        assert!(resolve("place all 99;", &t).is_err());
    }

    #[test]
    fn the_papers_range_examples_shape() {
        // In a 2-spine/3-leaf fabric, leaf-to-leaf paths have length 3:
        // [src, spine, dst].
        let t = fabric();
        // receiver range == 1 → per-path singleton {spine}; any merges the
        // two spines into one candidate set.
        let seeds = resolve("place any receiver range == 1;", &t).unwrap();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].candidates.len(), 2, "both spines are midpoints");
        // midpoint range == 0 with all → each path's middle, deduplicated:
        // exactly the spines.
        let seeds = resolve("place all midpoint range == 0;", &t).unwrap();
        let spines: Vec<SwitchId> = t.spines().collect();
        let got: Vec<SwitchId> = seeds.iter().map(|s| s.candidates[0]).collect();
        assert_eq!(got, spines);
        // receiver range <= 1 → per-path sets of size 2 stay separate seeds.
        let seeds = resolve("place any receiver range <= 1;", &t).unwrap();
        assert!(seeds.len() > 1);
        assert!(seeds.iter().all(|s| s.candidates.len() == 2));
    }

    #[test]
    fn filtered_paths_narrow_placement() {
        let t = fabric();
        let leaves: Vec<SwitchId> = t.leaves().collect();
        let dst_pfx = t.node(leaves[1]).unwrap().prefix.unwrap();
        let seeds = resolve(
            &format!(r#"place all receiver dstIP "{dst_pfx}" range == 0;"#),
            &t,
        )
        .unwrap();
        // Receiver end of every matching path is leaf 1 only.
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].candidates[0], leaves[1]);
    }

    #[test]
    fn sender_anchor() {
        let t = fabric();
        let leaves: Vec<SwitchId> = t.leaves().collect();
        let src_pfx = t.node(leaves[0]).unwrap().prefix.unwrap();
        let seeds = resolve(
            &format!(r#"place all sender srcIP "{src_pfx}" range == 0;"#),
            &t,
        )
        .unwrap();
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].candidates[0], leaves[0]);
    }

    #[test]
    fn no_matching_paths_is_an_error() {
        let t = fabric();
        let e = resolve(
            r#"place any receiver srcIP "192.168.0.0/16" range == 0;"#,
            &t,
        )
        .unwrap_err();
        assert!(e.message.contains("no seeds"), "{e}");
    }

    #[test]
    fn multiple_directives_union() {
        let t = fabric();
        let seeds = resolve("place all 0; place any 3, 4;", &t).unwrap();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].candidates, vec![SwitchId(0)]);
        assert_eq!(seeds[1].candidates.len(), 2);
    }
}
