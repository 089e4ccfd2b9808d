//! MILP formulation of the placement problem (§ IV-B/C/D) and the
//! deadline-bounded solver used as the paper's "Gurobi with timeout"
//! baseline (Fig. 7).
//!
//! The encoding follows the paper exactly: binary `tplc(t)` and
//! `plc(s,n)` (split per utility branch for `or`-split seeds), continuous
//! `res(s,n,r)` and aggregated `pollres(n,p)`, the bilinear terms
//! `plc·f(res)` linearized via big-M (the paper's `f(res) − (1−plc)·f(0̄)`
//! rewrite generalized to constraints with negative coefficients), and
//! migration modelled through `migr(s,n) = plc'(s,n)·(tplc(t) − plc(s,n))`.
//!
//! Exact branch & bound runs only when the dense-tableau size guard
//! allows; beyond it — and whenever the deadline fires first — the solver
//! degrades to what a commercial MIP solver with a deadline effectively
//! provides: the best incumbent from budgeted primal search (randomized
//! greedy restarts). This substitution is recorded in DESIGN.md.

use std::time::{Duration, Instant};

use farm_lp::{solve_milp, Cmp, LinExpr, MilpOptions, MilpStatus, Problem, Sense};
use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;

use crate::model::{utility_of, PlacementInstance, PlacementResult};

/// Exact solving is skipped when the simplex tableau would exceed this
/// many cells (rows × columns).
const MAX_CELLS: usize = 6_000_000;

/// RNG seed of the budgeted primal search.
const SEARCH_SEED: u64 = 1;

/// Options for the MILP placement solver.
#[derive(Debug, Clone)]
pub struct MilpPlacementOptions {
    /// Wall-clock budget (the paper uses 1 s and 10 min).
    pub time_limit: Duration,
}

impl Default for MilpPlacementOptions {
    fn default() -> Self {
        MilpPlacementOptions {
            time_limit: Duration::from_secs(10),
        }
    }
}

/// Result of the MILP path.
#[derive(Debug, Clone)]
pub struct MilpPlacementResult {
    pub result: PlacementResult,
    /// True when the exact branch & bound produced the assignment.
    pub exact: bool,
}

/// Solves placement via MILP with a deadline, falling back to budgeted
/// primal search at scales the exact solver cannot handle in time.
pub fn solve_placement_milp(
    instance: &PlacementInstance,
    opts: &MilpPlacementOptions,
) -> MilpPlacementResult {
    // The deadline bounds the solve's work; it is not a phase time.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let (est_rows, est_cols) = estimate_size(instance);
    if est_rows.saturating_mul(est_cols) <= MAX_CELLS {
        let encoded = encode(instance);
        let milp_opts = MilpOptions {
            time_limit: Some(opts.time_limit.saturating_sub(start.elapsed())),
            ..Default::default()
        };
        let r = solve_milp(&encoded.problem, &milp_opts);
        if let (Some(values), MilpStatus::Optimal | MilpStatus::Feasible) = (&r.values, r.status) {
            let assignment = encoded.extract(instance, values);
            let utility = utility_of(instance, &assignment);
            let dropped = (0..instance.tasks.len())
                .filter(|&t| {
                    instance.tasks[t]
                        .seeds
                        .iter()
                        .all(|&s| assignment[s].is_none())
                        && !instance.tasks[t].seeds.is_empty()
                })
                .collect();
            return MilpPlacementResult {
                result: PlacementResult {
                    migrations: crate::model::count_migrations(instance, &assignment),
                    utility,
                    runtime: start.elapsed(),
                    dropped_tasks: dropped,
                    assignment,
                },
                exact: true,
            };
        }
    }
    // Budgeted primal search until the deadline.
    let mut result = solve_budgeted(
        instance,
        opts.time_limit.saturating_sub(start.elapsed()),
        SEARCH_SEED,
    );
    result.runtime = start.elapsed();
    MilpPlacementResult {
        result,
        exact: false,
    }
}

/// Randomized-restart primal search under a deadline: the incumbent pool
/// a deadline-bounded general-purpose MIP solver would report. The
/// constructions are deliberately generic (random candidate choice, no
/// aggregation-aware scoring — see
/// [`farm_placement::heuristic::solve_randomized`]); LP-based resource
/// polish only happens once the construction phase has left budget for
/// it, which is what separates the short-deadline from the long-deadline
/// quality in Fig. 7.
///
/// [`farm_placement::heuristic::solve_randomized`]: crate::heuristic::solve_randomized
pub(crate) fn solve_budgeted(
    instance: &PlacementInstance,
    budget: Duration,
    seed: u64,
) -> PlacementResult {
    // The budget bounds the search's work; it is not a phase time.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let mut best = crate::heuristic::solve_randomized(instance, seed, false);
    let mut candidates: Vec<(f64, u64)> = vec![(best.utility, seed)];
    let construction_budget = budget.mul_f64(0.4);
    let mut i = 1u64;
    while start.elapsed() < construction_budget && i < 256 {
        let r = crate::heuristic::solve_randomized(instance, seed + i, false);
        candidates.push((r.utility, seed + i));
        if r.utility > best.utility {
            best = r;
        }
        i += 1;
    }
    // Spend the remaining budget LP-polishing the most promising
    // constructions, best-first.
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, cand_seed) in candidates {
        if start.elapsed() >= budget.mul_f64(0.85) {
            break;
        }
        let polished = crate::heuristic::solve_randomized(instance, cand_seed, true);
        if polished.utility > best.utility {
            best = polished;
        }
    }
    best.runtime = start.elapsed();
    best
}

/// Rough row/column count of the MILP encoding.
fn estimate_size(instance: &PlacementInstance) -> (usize, usize) {
    let mut cols = instance.tasks.len();
    let mut rows = instance.seeds.len();
    for s in &instance.seeds {
        let b = s.util.branches.len().max(1);
        cols += s.candidates.len() * (b + 4 + 1);
        rows += s.candidates.len() * (b * 3 + 4 + s.polls.len());
    }
    rows += instance.switches.len() * 4;
    cols += instance.switches.len() * 4; // pollres upper bound
    (rows, cols)
}

struct Encoded {
    problem: Problem,
    /// (seed, candidate) → resource variables.
    res_vars: Vec<Vec<[farm_lp::Var; 4]>>,
    /// (seed, candidate) → branch selection variables.
    y_vars: Vec<Vec<Vec<farm_lp::Var>>>,
}

impl Encoded {
    fn extract(
        &self,
        instance: &PlacementInstance,
        values: &[f64],
    ) -> Vec<Option<(SwitchId, Resources)>> {
        let mut assignment = vec![None; instance.seeds.len()];
        for (s, seed) in instance.seeds.iter().enumerate() {
            for (ci, &n) in seed.candidates.iter().enumerate() {
                let placed = self.y_vars[s][ci].iter().any(|y| values[y.index()] > 0.5);
                if placed {
                    let mut r = Resources::ZERO;
                    for k in ResourceKind::ALL {
                        r.set(k, values[self.res_vars[s][ci][k.index()].index()].max(0.0));
                    }
                    assignment[s] = Some((n, r));
                    break;
                }
            }
        }
        assignment
    }
}

/// Builds the MILP (see module docs for the formulation).
fn encode(instance: &PlacementInstance) -> Encoded {
    let mut p = Problem::new(Sense::Maximize);
    let tplc: Vec<farm_lp::Var> = (0..instance.tasks.len())
        .map(|t| p.add_binary(format!("tplc{t}")))
        .collect();

    let mut res_vars: Vec<Vec<[farm_lp::Var; 4]>> = Vec::new();
    let mut y_vars: Vec<Vec<Vec<farm_lp::Var>>> = Vec::new();
    let mut objective = LinExpr::new();

    for (s, seed) in instance.seeds.iter().enumerate() {
        let mut per_cand_res = Vec::new();
        let mut per_cand_y = Vec::new();
        for (ci, &n) in seed.candidates.iter().enumerate() {
            let ares = instance.ares(n).unwrap_or(Resources::ZERO);
            let rv: [farm_lp::Var; 4] =
                std::array::from_fn(|k| p.add_var(format!("res_s{s}_c{ci}_r{k}"), 0.0, ares.0[k]));
            let branches = seed.util.branches.len().max(1);
            let mut ys = Vec::with_capacity(branches);
            for (b, branch) in seed.util.branches.iter().enumerate() {
                let y = p.add_binary(format!("y_s{s}_c{ci}_b{b}"));
                // C2 with big-M: c(res) + M(1−y) ≥ 0.
                for c in &branch.constraints {
                    let m = big_m(c, &ares);
                    let mut e = LinExpr::constant_expr(c.constant + m);
                    for (k, coeff) in c.coeffs.iter().enumerate() {
                        if *coeff != 0.0 {
                            e.add_term(rv[k], *coeff);
                        }
                    }
                    e.add_term(y, -m);
                    p.add_constraint(e, Cmp::Ge, 0.0);
                }
                // Utility: u ≤ piece(res) + M(1−y); u ≤ Umax·y; u ≥ 0.
                let umax = branch.utility.eval(&ares).max(0.0);
                let u = p.add_var(format!("u_s{s}_c{ci}_b{b}"), 0.0, umax.max(1e-9));
                for piece in branch.utility.pieces() {
                    let m = big_m(&piece, &ares) + umax;
                    let mut e = LinExpr::constant_expr(piece.constant + m);
                    for (k, coeff) in piece.coeffs.iter().enumerate() {
                        if *coeff != 0.0 {
                            e.add_term(rv[k], *coeff);
                        }
                    }
                    e.add_term(y, -m);
                    e.add_term(u, -1.0);
                    p.add_constraint(e, Cmp::Ge, 0.0);
                }
                let mut cap = LinExpr::from(u);
                cap.add_term(y, -umax.max(1e-9));
                p.add_constraint(cap, Cmp::Le, 0.0);
                objective += LinExpr::from(u);
                ys.push(y);
            }
            if seed.util.branches.is_empty() {
                ys.push(p.add_binary(format!("y_s{s}_c{ci}_b0")));
            }
            // C3: res ≤ ares · plc(s,n).
            for k in ResourceKind::ALL {
                let mut e = LinExpr::from(rv[k.index()]);
                for &y in &ys {
                    e.add_term(y, -ares.get(k));
                }
                p.add_constraint(e, Cmp::Le, 0.0);
            }
            per_cand_res.push(rv);
            per_cand_y.push(ys);
        }
        // C1: Σ_{n,b} y = tplc(task).
        let mut sum = LinExpr::new();
        for ys in &per_cand_y {
            for &y in ys {
                sum.add_term(y, 1.0);
            }
        }
        sum.add_term(tplc[seed.task], -1.0);
        p.add_constraint(sum, Cmp::Eq, 0.0);
        res_vars.push(per_cand_res);
        y_vars.push(per_cand_y);
    }

    // C4 per switch: plain resources (with migration double occupancy) and
    // aggregated pollres.
    for (n, ares) in instance.switches.iter() {
        // Plain resources.
        for k in ResourceKind::ALL {
            if k == ResourceKind::PciePoll {
                continue;
            }
            let mut total = LinExpr::new();
            for (s, seed) in instance.seeds.iter().enumerate() {
                if let Some(ci) = seed.candidates.iter().position(|c| c == n) {
                    total.add_term(res_vars[s][ci][k.index()], 1.0);
                }
                // Migration: if s was previously here, its old allocation
                // lingers unless it is re-placed here:
                // migr(s,n)·res' = res'·(tplc − plc(s,n)).
                if let Some(prev) = &instance.previous {
                    if let Some((pn, pres)) = prev.assignment.get(&s) {
                        if pn == n && pres.get(k) > 0.0 {
                            total.add_term(tplc[seed.task], pres.get(k));
                            if let Some(ci) = seed.candidates.iter().position(|c| c == n) {
                                for &y in &y_vars[s][ci] {
                                    total.add_term(y, -pres.get(k));
                                }
                            }
                        }
                    }
                }
            }
            p.add_constraint(total, Cmp::Le, ares.get(k));
        }
        // pollres per subject present on this switch.
        let mut subjects: Vec<&str> = instance
            .seeds
            .iter()
            .filter(|seed| seed.candidates.contains(n))
            .flat_map(|seed| seed.polls.iter().map(|pd| pd.subject.as_str()))
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        let mut poll_sum = LinExpr::new();
        for (pi, subj) in subjects.iter().enumerate() {
            let pv = p.add_var(format!("pollres_{n}_{pi}"), 0.0, f64::INFINITY);
            poll_sum.add_term(pv, 1.0);
            for (s, seed) in instance.seeds.iter().enumerate() {
                let Some(ci) = seed.candidates.iter().position(|c| c == n) else {
                    continue;
                };
                for pd in seed.polls.iter().filter(|pd| pd.subject == *subj) {
                    // pollres ≥ demand(res) − M(1−plc).
                    let m = big_m(&pd.demand, ares);
                    let mut e = LinExpr::from(pv);
                    e.set_constant(-pd.demand.constant - m);
                    for (k, coeff) in pd.demand.coeffs.iter().enumerate() {
                        if *coeff != 0.0 {
                            e.add_term(res_vars[s][ci][k], -coeff);
                        }
                    }
                    for &y in &y_vars[s][ci] {
                        e.add_term(y, m);
                    }
                    p.add_constraint(e, Cmp::Ge, 0.0);
                }
                // Migration polling demand at the previous allocation.
                if let Some(prev) = &instance.previous {
                    if let Some((pn, pres)) = prev.assignment.get(&s) {
                        if pn == n {
                            for pd in seed.polls.iter().filter(|pd| pd.subject == *subj) {
                                let d = pd.demand.eval(pres).max(0.0);
                                if d > 0.0 {
                                    let mut e = LinExpr::from(pv);
                                    e.add_term(tplc[seed.task], -d);
                                    for &y in &y_vars[s][ci] {
                                        e.add_term(y, d);
                                    }
                                    p.add_constraint(e, Cmp::Ge, 0.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        p.add_constraint(poll_sum, Cmp::Le, ares.get(ResourceKind::PciePoll));
    }

    p.set_objective(objective);
    Encoded {
        problem: p,
        res_vars,
        y_vars,
    }
}

/// Safe big-M for a polynomial over `[0, ares]` boxes.
fn big_m(poly: &farm_almanac::analysis::Poly, ares: &Resources) -> f64 {
    poly.constant.abs()
        + poly
            .coeffs
            .iter()
            .zip(ares.0.iter())
            .map(|(c, a)| c.abs() * a)
            .sum::<f64>()
        + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::solve_heuristic;
    use crate::model::{validate, PlacementSeed, PlacementTask, PollDemand};
    use farm_almanac::analysis::{Poly, UtilAnalysis, UtilBranch, UtilExpr};

    fn linear_util(min_vcpu: f64, cap: f64) -> UtilAnalysis {
        UtilAnalysis {
            branches: vec![UtilBranch {
                constraints: vec![Poly {
                    coeffs: [1.0, 0.0, 0.0, 0.0],
                    constant: -min_vcpu,
                }],
                utility: UtilExpr::Min(
                    Box::new(UtilExpr::Poly(Poly::var(ResourceKind::VCpu))),
                    Box::new(UtilExpr::Poly(Poly::constant(cap))),
                ),
            }],
        }
    }

    fn tiny_instance() -> PlacementInstance {
        let n0 = SwitchId(0);
        let n1 = SwitchId(1);
        PlacementInstance {
            switches: vec![
                (n0, Resources::new(3.0, 1000.0, 32.0, 100.0)),
                (n1, Resources::new(3.0, 1000.0, 32.0, 100.0)),
            ]
            .into(),
            tasks: vec![
                PlacementTask {
                    name: "a".into(),
                    seeds: vec![0, 1],
                },
                PlacementTask {
                    name: "b".into(),
                    seeds: vec![2],
                },
            ],
            seeds: vec![
                PlacementSeed {
                    id: 0,
                    task: 0,
                    candidates: vec![n0, n1],
                    util: linear_util(1.0, 2.0),
                    polls: vec![PollDemand {
                        subject: "ports".into(),
                        demand: Poly {
                            coeffs: [0.0, 0.0, 0.0, 0.1],
                            constant: 1.0,
                        },
                    }],
                },
                PlacementSeed {
                    id: 1,
                    task: 0,
                    candidates: vec![n0, n1],
                    util: linear_util(1.0, 2.0),
                    polls: vec![],
                },
                PlacementSeed {
                    id: 2,
                    task: 1,
                    candidates: vec![n0, n1],
                    util: linear_util(1.0, 4.0),
                    polls: vec![],
                },
            ],
            previous: None,
        }
    }

    #[test]
    fn exact_milp_solves_tiny_instance() {
        let inst = tiny_instance();
        let r = solve_placement_milp(&inst, &MilpPlacementOptions::default());
        assert!(r.exact, "tiny instance must use the exact path");
        validate(&inst, &r.result).unwrap();
        assert_eq!(r.result.placed(), 3);
        // Optimum: 6 vCPU shared by 3 seeds capped at (2, 2, 4); best is
        // 2 + (≥1 with leftover) and 4 → ≥ 7; exactly 2+4 on one switch
        // impossible (3 vCPU each), so 2 + 1 + 3 = 6 … the solver must at
        // least reach the heuristic's utility.
        let h = solve_heuristic(&inst, Default::default());
        assert!(
            r.result.utility >= h.utility - 1e-6,
            "exact {} < heuristic {}",
            r.result.utility,
            h.utility
        );
    }

    #[test]
    fn milp_respects_task_all_or_nothing() {
        let mut inst = tiny_instance();
        // Make task `a` impossible: both its seeds need 2 vCPU minimum,
        // but only one switch has capacity ≥ 2 after task b grabs it...
        // force it harder: shrink switches so only one seed fits anywhere.
        inst.switches = vec![(SwitchId(0), Resources::new(1.2, 1000.0, 32.0, 100.0))].into();
        for s in &mut inst.seeds {
            s.candidates = vec![SwitchId(0)];
        }
        let r = solve_placement_milp(&inst, &MilpPlacementOptions::default());
        validate(&inst, &r.result).unwrap();
        // Task a (two seeds ≥ 1 vCPU each) cannot fit in 1.2 vCPU; only
        // task b may be placed.
        assert!(r.result.assignment[2].is_some());
        assert!(r.result.assignment[0].is_none());
        assert!(r.result.assignment[1].is_none());
    }

    #[test]
    fn oversized_instances_fall_back_to_budgeted_search() {
        let inst = tiny_instance();
        let r = solve_budgeted(&inst, Duration::from_millis(100), 7);
        validate(&inst, &r).unwrap();
        assert!(r.utility > 0.0);
    }

    #[test]
    fn milp_beats_or_matches_heuristic_on_small_instances() {
        // The exact solver may place resources better than the greedy
        // heuristic; it must never be worse on a solved instance.
        let inst = tiny_instance();
        let h = solve_heuristic(&inst, Default::default());
        let m = solve_placement_milp(&inst, &MilpPlacementOptions::default());
        assert!(m.exact);
        assert!(m.result.utility >= h.utility - 1e-6);
    }

    #[test]
    fn size_estimate_grows_with_instance() {
        let small = estimate_size(&tiny_instance());
        let mut big = tiny_instance();
        for i in 3..50 {
            big.seeds.push(PlacementSeed {
                id: i,
                task: 1,
                candidates: vec![SwitchId(0), SwitchId(1)],
                util: linear_util(1.0, 2.0),
                polls: vec![],
            });
            big.tasks[1].seeds.push(i);
        }
        let bigger = estimate_size(&big);
        assert!(bigger.0 > small.0 && bigger.1 > small.1);
    }

    /// The case `prop_delta` pins at master seed 1038 (case 95), shrunk
    /// by the runner to one event: a cold solve, then sw1's vCPU cut by
    /// 10 % to 0.432, below what its two residents, seeds 1 and 11 of
    /// task 1, held (0.2136 + 0.2664). Alg. 1 keeps their task placed
    /// and moves both away, and their lingering reservations stand past
    /// the new capacity. Under the MILP's double occupancy no placement
    /// of that task fits: a resident that stays needs its minimum
    /// (0.2136, 0.2299), one that leaves lingers, and every mix sums
    /// above 0.432. The exact optimum of the task alone with its seats
    /// places nothing. (Task 0 fits nowhere at this vCPU share either,
    /// so the whole instance's optimum is the empty placement too.)
    #[test]
    fn a_capacity_drop_below_the_residents_seats_drops_their_task_exactly() {
        use crate::model::PreviousPlacement;
        use crate::workload::{generate, WorkloadConfig};
        let mut inst = generate(&WorkloadConfig {
            n_switches: 7,
            n_tasks: 2,
            n_seeds: 17,
            candidates_per_seed: 3,
            pinned_fraction: 0.540493877494235,
            rng_seed: 9158,
        });
        for (_, ares) in inst.switches.iter_mut() {
            ares.0[0] *= 0.12;
        }
        let cold = solve_heuristic(&inst, Default::default());
        let sw1 = SwitchId(1);
        let residents: Vec<usize> = (0..inst.seeds.len())
            .filter(|&s| cold.assignment[s].is_some_and(|(n, _)| n == sw1))
            .collect();
        assert_eq!(residents, [1, 11]);
        inst.switches[1].1 .0[0] *= 0.9;
        let seats = |seeds: &[usize]| PreviousPlacement {
            assignment: (seeds.iter().enumerate())
                .filter_map(|(k, &s)| Some((k, cold.assignment[s]?)))
                .collect(),
        };
        let every: Vec<usize> = (0..inst.seeds.len()).collect();
        inst.previous = Some(seats(&every));
        // Alg. 1: task 1 stays placed, both residents off sw1.
        let h = solve_heuristic(&inst, Default::default());
        assert_eq!(h.dropped_tasks, [0]);
        assert!(residents
            .iter()
            .all(|&s| h.assignment[s].is_some_and(|(n, _)| n != sw1)));
        // The exact optimum of task 1 alone, with its seats: nothing.
        let task = inst.tasks[1].seeds.clone();
        let alone = PlacementInstance {
            seeds: (task.iter().enumerate())
                .map(|(id, &s)| PlacementSeed {
                    id,
                    task: 0,
                    ..inst.seeds[s].clone()
                })
                .collect(),
            tasks: vec![PlacementTask {
                name: "t1".into(),
                seeds: (0..task.len()).collect(),
            }],
            previous: Some(seats(&task)),
            ..inst
        };
        let encoded = encode(&alone);
        let r = solve_milp(&encoded.problem, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        let assignment = encoded.extract(&alone, r.values.as_ref().expect("optimal"));
        assert!(assignment.iter().all(Option::is_none), "{assignment:?}");
    }
}
