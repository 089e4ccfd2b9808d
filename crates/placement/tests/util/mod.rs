//! Shared checkers for the placement property tests: independent
//! re-derivations of the paper's constraints (C1, C2, C4-with-C3
//! aggregation and migration double-occupancy), deliberately *not*
//! implemented via `model::validate` so a bug shared between the solver
//! and the validator cannot hide. Used by `prop_constraints.rs` (full
//! solves) and `prop_delta.rs` (incremental solves under churn).

use std::collections::HashMap;

use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;
use farm_placement::model::{PlacementInstance, PreviousPlacement};

pub const EPS: f64 = 1e-6;

/// C1: every task is placed completely or not at all, and each placed
/// seed sits on one of its own candidates.
pub fn check_c1(
    inst: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> Result<(), String> {
    for task in &inst.tasks {
        let placed = task
            .seeds
            .iter()
            .filter(|&&s| assignment[s].is_some())
            .count();
        if placed != 0 && placed != task.seeds.len() {
            return Err(format!(
                "task `{}` placed {placed}/{} seeds",
                task.name,
                task.seeds.len()
            ));
        }
    }
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((n, _)) = slot {
            if !inst.seeds[s].candidates.contains(n) {
                return Err(format!("seed {s} on non-candidate switch {n}"));
            }
        }
    }
    Ok(())
}

/// C2: each placed seed's allocation is non-negative and inside at least
/// one utility-branch domain.
pub fn check_c2(
    inst: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> Result<(), String> {
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((_, res)) = slot {
            if res.0.iter().any(|&r| r < -EPS) {
                return Err(format!("seed {s} negative allocation {res}"));
            }
            if inst.seeds[s].util.eval(res).is_none() {
                return Err(format!(
                    "seed {s} allocation {res} satisfies no util branch"
                ));
            }
        }
    }
    Ok(())
}

/// C4 (with C3's aggregation): per switch, plain resources sum within
/// capacity and per-subject poll demand aggregates by max, counting the
/// lingering source-side allocation of every migrating seed.
///
/// One allowance: a switch whose capacity the environment took below
/// what its previous residents held (a degradation) cannot hold their
/// lingering allocations either — no placement can, short of dropping
/// every task that had a seed there. Such a switch may stand past its
/// capacity by those lingering allocations alone: its load must not
/// exceed the larger of its capacity and what lingers on it.
pub fn check_capacity(
    inst: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> Result<(), String> {
    for (n, ares) in inst.switches.iter() {
        let mut plain = [0f64; 4];
        let mut lingering = [0f64; 4];
        let mut polls: HashMap<&str, f64> = HashMap::new();
        let mut charge = |seed: usize, res: &Resources| {
            for k in ResourceKind::ALL {
                if k != ResourceKind::PciePoll {
                    plain[k.index()] += res.get(k);
                }
            }
            for p in &inst.seeds[seed].polls {
                let d = p.demand.eval(res).max(0.0);
                let e = polls.entry(p.subject.as_str()).or_insert(0.0);
                *e = e.max(d);
            }
        };
        for (s, slot) in assignment.iter().enumerate() {
            if let Some((sn, res)) = slot {
                if sn == n {
                    charge(s, res);
                }
            }
            if let Some(prev) = &inst.previous {
                if let Some((old_n, old_res)) = prev.assignment.get(&s) {
                    let moved_away =
                        old_n == n && matches!(&assignment[s], Some((new_n, _)) if new_n != n);
                    if moved_away {
                        // Double occupancy: the old seat stays charged
                        // while state transfers.
                        charge(s, old_res);
                        for (l, r) in lingering.iter_mut().zip(old_res.0) {
                            *l += r;
                        }
                    }
                }
            }
        }
        for k in ResourceKind::ALL {
            if k == ResourceKind::PciePoll {
                continue;
            }
            if plain[k.index()] > ares.get(k).max(lingering[k.index()]) + EPS {
                return Err(format!(
                    "switch {n} over {k}: {} > {}",
                    plain[k.index()],
                    ares.get(k)
                ));
            }
        }
        let poll_total: f64 = polls.values().sum();
        if poll_total > ares.get(ResourceKind::PciePoll) + EPS {
            return Err(format!(
                "switch {n} over poll capacity: {poll_total} > {}",
                ares.get(ResourceKind::PciePoll)
            ));
        }
    }
    Ok(())
}

pub fn check_all(
    inst: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> Result<(), String> {
    check_c1(inst, assignment)?;
    check_c2(inst, assignment)?;
    check_capacity(inst, assignment)
}

/// Turns a result into the `previous` input of the next round.
pub fn as_previous(assignment: &[Option<(SwitchId, Resources)>]) -> PreviousPlacement {
    let mut prev = PreviousPlacement::default();
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            prev.assignment.insert(s, (*n, *res));
        }
    }
    prev
}
