//! FARM's scalable placement heuristic (Alg. 1 of § IV-D).
//!
//! 1. Sort tasks by decreasing minimum utility.
//! 2. Greedily place each task's seeds at their cheapest feasible
//!    allocation, preferring the current switch (no unnecessary
//!    migration) and, among candidates, the one where aggregation makes
//!    polling cheapest and the most capacity remains. Tasks that cannot
//!    be fully placed are dropped (C1).
//! 3. Redistribute resources with one LP **per switch** — the
//!    decomposition that makes the heuristic scale: once placement is
//!    fixed, switches do not couple.
//! 4. Compute per-seed migration benefits (utility gain at an alternative
//!    candidate under its spare capacity).
//! 5. Migrate in decreasing-benefit order, honouring double occupancy:
//!    the source switch keeps the previous allocation reserved while
//!    state transfers (§ IV-B a).
//!
//! # Performance engineering
//!
//! The solve is *incremental* (see DESIGN.md "Performance"):
//!
//! * Poll subjects are interned to dense `u32` ids once per solve
//!   (`SubjectInterner`); the hot candidate loop never clones or
//!   hashes a `String`.
//! * Each `SwitchState` caches the per-subject running max and the
//!   switch-wide `Σ max` poll total, so a `fits()` probe is O(polls of
//!   the candidate seed) instead of O(subjects × entries on the switch).
//!   Removing the max entry lazily rebuilds that one subject's max.
//! * Step 3's per-switch LPs run one after another through a single
//!   reused model arena (`LpScratch`); every float reduction runs in
//!   stable switch/seed order, so repeated solves are bit-identical
//!   (`prop_placement.rs` pins this).
//! * Step 4 evaluates a seed's migration benefit once per *switch-state
//!   class* it meets, not once per candidate: switches whose `ares`,
//!   `used`, poll total and per-subject maxima agree bit for bit give
//!   the same answer (`classify_states`), and on a fabric of mostly
//!   identical switches that is a handful of evaluations for a
//!   thousand candidates.
//! * Re-solves with a retained [`crate::delta::SolveState`] memoize the
//!   per-switch LP outputs by exact input signature — see
//!   [`crate::delta::replan_delta`].

use std::hash::Hasher;
use std::time::Instant;

use crate::fxhash::{FxHashMap, FxHasher};

use farm_almanac::analysis::{Poly, UtilExpr};
use farm_lp::{record_phase, Cmp, LinExpr, Problem, Sense};
use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;
use farm_telemetry::Telemetry;

use crate::delta::{DeltaCtx, LpCacheEntry};
use crate::model::{
    count_migrations, utility_of, PlacementInstance, PlacementResult, SubjectInterner,
};

/// Heuristic knobs: the switches `repro ablation` flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicOptions {
    /// Step 3: LP-based resource redistribution.
    pub lp_redistribution: bool,
    /// Steps 4–5: migration pass.
    pub migration: bool,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions {
            lp_redistribution: true,
            migration: true,
        }
    }
}

/// Interned polling demands of one seed: `(subject id, demand poly)`.
type SeedPolls = [(u32, Poly)];

/// Aggregated demand multiset of one subject on one switch, with the
/// cached running max (consumption is the max — § IV-B aggregation).
#[derive(Debug, Clone, Default)]
struct PollCell {
    entries: Vec<f64>,
    max: f64,
}

/// Per-switch bookkeeping during the solve.
#[derive(Debug, Clone)]
struct SwitchState {
    ares: Resources,
    /// Non-poll resources in use (live seeds + lingering reservations).
    used: Resources,
    /// Poll demands per interned subject; consumption is the cached max.
    poll: FxHashMap<u32, PollCell>,
    /// Cached `Σ_subject max(entries)` — the switch's aggregated poll
    /// consumption, maintained incrementally so `fits()` never refolds.
    poll_total: f64,
    /// Seeds currently hosted.
    seeds: Vec<usize>,
    /// Migration reservations: seed → previous allocation still occupying
    /// this switch while the seed's state transfers away.
    lingering: FxHashMap<usize, Resources>,
    /// State class for the step-4 benefit scan; meaningful only between
    /// [`classify_states`] and the first mutation after it.
    class: u32,
}

impl SwitchState {
    fn new(ares: Resources) -> SwitchState {
        SwitchState {
            ares,
            used: Resources::ZERO,
            poll: FxHashMap::default(),
            poll_total: 0.0,
            seeds: Vec::new(),
            lingering: FxHashMap::default(),
            class: 0,
        }
    }

    /// Extra aggregated polling the seed would add at allocation `res`.
    fn poll_delta(&self, polls: &SeedPolls, res: &Resources) -> f64 {
        polls
            .iter()
            .map(|(subj, demand)| {
                let d = demand.eval(res).max(0.0);
                let cur = self.poll.get(subj).map(|c| c.max).unwrap_or(0.0);
                (d - cur).max(0.0)
            })
            .sum()
    }

    fn fits(&self, polls: &SeedPolls, res: &Resources) -> bool {
        for k in ResourceKind::ALL {
            if k == ResourceKind::PciePoll {
                continue;
            }
            if self.used.get(k) + res.get(k) > self.ares.get(k) + 1e-9 {
                return false;
            }
        }
        self.poll_total + self.poll_delta(polls, res)
            <= self.ares.get(ResourceKind::PciePoll) + 1e-9
    }

    /// Read-only probe: would `res` fit if the seed's reservation `prev`
    /// were released first? Numerically identical to cloning the state,
    /// calling [`SwitchState::remove_usage`]`(polls, prev)` and then
    /// [`SwitchState::fits`]`(polls, res)` — the same clamped
    /// subtractions and incremental `poll_total` adjustments in the same
    /// order — but without cloning the per-switch bookkeeping. The greedy
    /// home-stay check runs this once per previously-placed seed, so the
    /// clone it replaces used to dominate the greedy phase on re-solves.
    fn fits_after_release(&self, polls: &SeedPolls, prev: &Resources, res: &Resources) -> bool {
        for k in ResourceKind::ALL {
            if k == ResourceKind::PciePoll {
                continue;
            }
            let used = (self.used.get(k) - prev.get(k)).max(0.0);
            if used + res.get(k) > self.ares.get(k) + 1e-9 {
                return false;
            }
        }
        // Simulate the removal on copies of only the touched subjects,
        // applying the same incremental poll_total adjustments in the
        // order `remove_usage` would. An emptied cell stays in `touched`
        // with no entries, standing in for the removed map slot.
        let mut touched: Vec<(u32, Vec<f64>, f64)> = Vec::new();
        let mut poll_total = self.poll_total;
        for (subj, demand) in polls {
            let d = demand.eval(prev).max(0.0);
            let idx = match touched.iter().position(|(s, _, _)| s == subj) {
                Some(i) => Some(i),
                None => self.poll.get(subj).map(|c| {
                    touched.push((*subj, c.entries.clone(), c.max));
                    touched.len() - 1
                }),
            };
            let Some(i) = idx else { continue };
            let (_, entries, max) = &mut touched[i];
            if entries.is_empty() {
                continue; // cell already removed by an earlier poll of this seed
            }
            if let Some(pos) = entries.iter().position(|x| (x - d).abs() < 1e-12) {
                entries.swap_remove(pos);
                if entries.is_empty() {
                    poll_total -= *max;
                } else if d >= *max - 1e-12 {
                    let new_max = entries.iter().copied().fold(0.0, f64::max);
                    poll_total += new_max - *max;
                    *max = new_max;
                }
            }
        }
        let mut delta = 0.0;
        for (subj, demand) in polls {
            let d = demand.eval(res).max(0.0);
            let cur = match touched.iter().find(|(s, _, _)| s == subj) {
                Some((_, entries, max)) => {
                    if entries.is_empty() {
                        0.0
                    } else {
                        *max
                    }
                }
                None => self.poll.get(subj).map(|c| c.max).unwrap_or(0.0),
            };
            delta += (d - cur).max(0.0);
        }
        poll_total + delta <= self.ares.get(ResourceKind::PciePoll) + 1e-9
    }

    fn add_usage(&mut self, polls: &SeedPolls, res: &Resources) {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                self.used.0[k.index()] += res.get(k);
            }
        }
        for (subj, demand) in polls {
            let d = demand.eval(res).max(0.0);
            let cell = self.poll.entry(*subj).or_default();
            cell.entries.push(d);
            if d > cell.max {
                self.poll_total += d - cell.max;
                cell.max = d;
            }
        }
    }

    fn remove_usage(&mut self, polls: &SeedPolls, res: &Resources) {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                self.used.0[k.index()] = (self.used.get(k) - res.get(k)).max(0.0);
            }
        }
        for (subj, demand) in polls {
            let d = demand.eval(res).max(0.0);
            if let Some(cell) = self.poll.get_mut(subj) {
                if let Some(pos) = cell.entries.iter().position(|x| (x - d).abs() < 1e-12) {
                    cell.entries.swap_remove(pos);
                    if cell.entries.is_empty() {
                        self.poll_total -= cell.max;
                        self.poll.remove(subj);
                    } else if d >= cell.max - 1e-12 {
                        // The (possibly tied) max left: rebuild this one
                        // subject's max lazily.
                        let new_max = cell.entries.iter().copied().fold(0.0, f64::max);
                        self.poll_total += new_max - cell.max;
                        cell.max = new_max;
                    }
                }
            }
        }
    }

    /// Drops all usage bookkeeping (used + poll cells) but keeps the
    /// hosted-seed and lingering sets, for the post-LP refresh.
    fn reset_usage(&mut self) {
        self.used = Resources::ZERO;
        self.poll.clear();
        self.poll_total = 0.0;
    }

    fn place(&mut self, seed_id: usize, polls: &SeedPolls, res: &Resources) {
        self.add_usage(polls, res);
        self.seeds.push(seed_id);
    }

    fn unplace(&mut self, seed_id: usize, polls: &SeedPolls, res: &Resources) {
        self.remove_usage(polls, res);
        self.seeds.retain(|&x| x != seed_id);
    }

    /// Remaining capacity for opportunistic allocation estimates.
    fn spare(&self) -> Resources {
        let mut s = self.ares.saturating_sub(&self.used);
        s.set(
            ResourceKind::PciePoll,
            (self.ares.get(ResourceKind::PciePoll) - self.poll_total).max(0.0),
        );
        s
    }

    /// Lingering reservations in ascending seed order — every float
    /// reduction over them must run in this stable order so repeated
    /// solves are bit-identical (HashMap iteration order is not).
    fn lingering_sorted(&self) -> Vec<(usize, Resources)> {
        let mut v: Vec<(usize, Resources)> = self.lingering.iter().map(|(s, r)| (*s, *r)).collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v
    }

    /// Whether `other` reads the same to [`achievable_utility`]: that
    /// function is pure in the seed and in exactly four things it takes
    /// from the switch — `ares`, `used`, `poll_total` and each subject's
    /// running max — and all four agree bit for bit (`to_bits`). `0.0`
    /// and `-0.0`, or a subject at max `0.0` and an absent one, do not
    /// agree: finer than needed, never coarser.
    fn same_class(&self, other: &SwitchState) -> bool {
        let bits = |r: &Resources| r.0.map(f64::to_bits);
        bits(&self.ares) == bits(&other.ares)
            && bits(&self.used) == bits(&other.used)
            && self.poll_total.to_bits() == other.poll_total.to_bits()
            && self.poll.len() == other.poll.len()
            && self.poll.iter().all(|(subj, cell)| {
                let same_max = |o: &PollCell| o.max.to_bits() == cell.max.to_bits();
                other.poll.get(subj).is_some_and(same_max)
            })
    }

    /// A hash equal for switches of the same class. The subjects fold in
    /// by addition, so their (map) order does not matter.
    fn class_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for x in self.ares.0.iter().chain(&self.used.0) {
            hasher.write_u64(x.to_bits());
        }
        hasher.write_u64(self.poll_total.to_bits());
        let subject = |(subj, cell): (&u32, &PollCell)| {
            let mut h = FxHasher::default();
            h.write_u32(*subj);
            h.write_u64(cell.max.to_bits());
            h.finish()
        };
        hasher.write_u64(self.poll.iter().map(subject).fold(0, u64::wrapping_add));
        hasher.finish()
    }
}

/// The migration-benefit comparator: decreasing benefit, `Equal` on any
/// NaN so the sort never panics.
fn benefit_cmp(a: &(f64, usize, SwitchId), b: &(f64, usize, SwitchId)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
}

/// Runs Alg. 1 on an instance.
pub fn solve_heuristic(instance: &PlacementInstance, options: HeuristicOptions) -> PlacementResult {
    solve_core(instance, options, None, None)
}

/// [`solve_heuristic`] with per-phase telemetry: each of the greedy,
/// LP-redistribution and migration phases emits a
/// [`farm_telemetry::Event::SolverPhase`] and samples `solver.phase_us`.
pub fn solve_heuristic_traced(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    telemetry: Option<&Telemetry>,
) -> PlacementResult {
    solve_core(instance, options, telemetry, None)
}

/// A deliberately *generic* randomized construction: random task order,
/// a random feasible candidate per seed (no aggregation-aware scoring,
/// no migration pass), minimum allocations, and optionally one LP
/// redistribution polish. This approximates the primal-heuristic quality
/// a general-purpose MIP solver reaches without domain knowledge — it is
/// what the deadline-bounded MILP baseline falls back to at scales the
/// exact branch & bound cannot handle (Fig. 7's "Gurobi with timeout").
pub fn solve_randomized(
    instance: &PlacementInstance,
    rng_seed: u64,
    lp_polish: bool,
) -> PlacementResult {
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};
    let start = Instant::now();
    let (_, interned) = SubjectInterner::for_instance(instance);
    let min_alloc: Vec<Option<(Resources, f64)>> = instance
        .seeds
        .iter()
        .map(|s| s.util.min_feasible())
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
    let mut states: FxHashMap<SwitchId, SwitchState> = instance
        .switches
        .iter()
        .map(|(n, ares)| (*n, SwitchState::new(*ares)))
        .collect();
    let mut assignment: Vec<Option<(SwitchId, Resources)>> = vec![None; instance.seeds.len()];
    let mut dropped = Vec::new();
    let mut order: Vec<usize> = (0..instance.tasks.len()).collect();
    order.shuffle(&mut rng);
    for &t in &order {
        let mut placed_here: Vec<(usize, SwitchId, Resources)> = Vec::new();
        let mut ok = true;
        for &s in &instance.tasks[t].seeds {
            let Some((min_res, _)) = min_alloc[s] else {
                ok = false;
                break;
            };
            // Candidates absent from the instance (e.g. crashed switches
            // excluded from this solve) are simply not feasible.
            let feasible: Vec<SwitchId> = instance.seeds[s]
                .candidates
                .iter()
                .copied()
                .filter(|n| {
                    states
                        .get(n)
                        .is_some_and(|st| st.fits(&interned[s], &min_res))
                })
                .collect();
            if feasible.is_empty() {
                ok = false;
                break;
            }
            let n = feasible[rng.random_range(0..feasible.len())];
            states
                .get_mut(&n)
                .expect("known switch")
                .place(s, &interned[s], &min_res);
            placed_here.push((s, n, min_res));
        }
        if ok {
            for (s, n, res) in placed_here {
                assignment[s] = Some((n, res));
            }
        } else {
            for (s, n, res) in placed_here {
                states
                    .get_mut(&n)
                    .expect("known switch")
                    .unplace(s, &interned[s], &res);
            }
            dropped.push(t);
        }
    }
    if lp_polish {
        let mut switch_ids: Vec<SwitchId> = states.keys().copied().collect();
        switch_ids.sort_unstable();
        let mut scratch = LpScratch::new();
        for n in switch_ids {
            let seeds_here = states[&n].seeds.clone();
            if !seeds_here.is_empty() {
                for (s, r) in redistribute_switch(
                    instance,
                    &interned,
                    n,
                    &seeds_here,
                    &states[&n],
                    &assignment,
                    &mut scratch,
                ) {
                    assignment[s] = Some((n, r));
                }
            }
        }
    }
    let utility = utility_of(instance, &assignment);
    PlacementResult {
        utility,
        migrations: count_migrations(instance, &assignment),
        runtime: start.elapsed(),
        dropped_tasks: dropped,
        assignment,
    }
}

/// The full Alg. 1 pipeline. When `delta` is given, the per-switch LP
/// outputs of the redistribution phase are memoized in its cache:
/// switches whose LP inputs (capacity, ordered residents and their
/// greedy allocations, no lingering reservations) are bit-identical to
/// the cached run reuse the cached output — `redistribute_switch` is a
/// pure function of exactly those inputs, so the reuse is exact, not
/// approximate. Everything else (greedy, state refresh, migration) runs
/// verbatim, which is what makes `replan_delta` provably equivalent to
/// a from-scratch solve.
pub(crate) fn solve_core(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    telemetry: Option<&Telemetry>,
    mut delta: Option<&mut DeltaCtx>,
) -> PlacementResult {
    let start = Instant::now();
    // One-time per-solve precomputation: interned subjects and each
    // seed's minimum feasible allocation (both invariant across phases).
    let (_, interned) = SubjectInterner::for_instance(instance);
    let min_alloc: Vec<Option<(Resources, f64)>> = instance
        .seeds
        .iter()
        .map(|s| s.util.min_feasible())
        .collect();
    let mut states: FxHashMap<SwitchId, SwitchState> = instance
        .switches
        .iter()
        .map(|(n, ares)| (*n, SwitchState::new(*ares)))
        .collect();
    // Reserve previous allocations as migration lingering; released when a
    // seed is re-placed on its previous switch. Applied in ascending seed
    // order so float accumulation is reproducible across solves.
    if let Some(prev) = &instance.previous {
        let mut prev_sorted: Vec<(usize, (SwitchId, Resources))> =
            prev.assignment.iter().map(|(s, a)| (*s, *a)).collect();
        prev_sorted.sort_unstable_by_key(|(s, _)| *s);
        for (s, (n, res)) in prev_sorted {
            if let Some(st) = states.get_mut(&n) {
                st.add_usage(&interned[s], &res);
                st.lingering.insert(s, res);
            }
        }
    }
    let mut assignment: Vec<Option<(SwitchId, Resources)>> = vec![None; instance.seeds.len()];
    let mut dropped = Vec::new();

    // Step 1: sort tasks by decreasing minimum utility — the sum of
    // their seeds' cheapest-feasible utilities, which `min_alloc` holds.
    let mut order: Vec<usize> = (0..instance.tasks.len()).collect();
    let keys: Vec<f64> = instance
        .tasks
        .iter()
        .map(|task| {
            let min_u = |&s: &usize| min_alloc[s].map_or(0.0, |(_, u)| u);
            task.seeds.iter().map(min_u).sum()
        })
        .collect();
    order.sort_by(|&a, &b| {
        keys[b]
            .partial_cmp(&keys[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let release_lingering = |states: &mut FxHashMap<SwitchId, SwitchState>,
                             interned: &[Vec<(u32, Poly)>],
                             s: usize,
                             n: SwitchId| {
        if let Some(st) = states.get_mut(&n) {
            if let Some(res) = st.lingering.remove(&s) {
                st.remove_usage(&interned[s], &res);
            }
        }
    };

    // Step 2: greedy placement per task, all-or-nothing.
    for &t in &order {
        let mut placed_here: Vec<(usize, SwitchId, Resources, bool)> = Vec::new();
        let mut seed_ids = instance.tasks[t].seeds.clone();
        seed_ids.sort_by_key(|&s| instance.seeds[s].candidates.len());
        let mut ok = true;
        for &s in &seed_ids {
            let seed = &instance.seeds[s];
            let Some((min_res, _)) = min_alloc[s] else {
                ok = false;
                break;
            };
            let prev_switch = instance
                .previous
                .as_ref()
                .and_then(|p| p.assignment.get(&s))
                .map(|(n, _)| *n)
                .filter(|n| seed.candidates.contains(n));
            // Staying home releases the lingering reservation first, so
            // feasibility there is checked against the released state.
            // Home wins unconditionally when feasible (its score is
            // +inf), so probe it first and skip scoring the other
            // candidates entirely — selection and all state mutations
            // are exactly those of scanning the full candidate list.
            let mut best: Option<(SwitchId, f64, bool)> = None;
            if let Some(h) = prev_switch {
                if let Some(st) = states.get(&h) {
                    let feasible = match st.lingering.get(&s) {
                        Some(prev_res) => {
                            let prev_res = *prev_res;
                            st.fits_after_release(&interned[s], &prev_res, &min_res)
                        }
                        None => st.fits(&interned[s], &min_res),
                    };
                    if feasible {
                        best = Some((h, f64::INFINITY, true));
                    }
                }
            }
            if best.is_none() {
                for &n in &seed.candidates {
                    // A candidate the instance does not offer (crashed or
                    // otherwise excluded switch) cannot host the seed;
                    // the home switch was already probed and found
                    // infeasible (or absent) above.
                    if prev_switch == Some(n) {
                        continue;
                    }
                    let Some(st) = states.get(&n) else { continue };
                    if !st.fits(&interned[s], &min_res) {
                        continue;
                    }
                    // Step 2a: "choose such s that adds the most to the
                    // utility" — score by the utility achievable on this
                    // switch given its spare capacity, discounted by the
                    // extra polling the placement would cost.
                    let poll_cap = st.ares.get(ResourceKind::PciePoll).max(1e-9);
                    let score = achievable_utility(seed, &interned[s], &min_res, st).unwrap_or(0.0)
                        - st.poll_delta(&interned[s], &min_res) / poll_cap;
                    if best.as_ref().is_none_or(|(_, b, _)| score > *b) {
                        best = Some((n, score, false));
                    }
                }
            }
            match best {
                Some((n, _, home)) => {
                    if home {
                        release_lingering(&mut states, &interned, s, n);
                    }
                    states
                        .get_mut(&n)
                        .expect("known switch")
                        .place(s, &interned[s], &min_res);
                    placed_here.push((s, n, min_res, home));
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            for (s, n, res, _) in placed_here {
                assignment[s] = Some((n, res));
            }
        } else {
            for (s, n, res, home) in placed_here {
                let st = states.get_mut(&n).expect("known switch");
                st.unplace(s, &interned[s], &res);
                if home {
                    // Restore the reservation we released.
                    if let Some(prev) = &instance.previous {
                        if let Some((pn, pres)) = prev.assignment.get(&s) {
                            if *pn == n {
                                st.add_usage(&interned[s], pres);
                                st.lingering.insert(s, *pres);
                            }
                        }
                    }
                }
            }
            dropped.push(t);
        }
    }
    if let Some(t) = telemetry {
        record_phase(
            t,
            "greedy",
            start.elapsed().as_nanos() as u64,
            instance.tasks.len() as u64,
        );
    }

    // Step 3: LP redistribution per switch, then refresh the bookkeeping
    // so the migration pass sees the boosted allocations. The per-switch
    // LPs are independent (the decomposition's whole point): updates
    // apply in ascending switch order and touch disjoint seeds.
    let lp_start = Instant::now();
    if options.lp_redistribution {
        let mut work: Vec<(SwitchId, &[usize])> = states
            .iter()
            .filter(|(_, st)| !st.seeds.is_empty())
            .map(|(n, st)| (*n, st.seeds.as_slice()))
            .collect();
        work.sort_unstable_by_key(|(n, _)| *n);
        let lp_switches = work.len() as u64;
        {
            // Cache probe (delta path): a switch whose LP inputs are
            // bit-identical to the memoized run — same capacity, same
            // residents in the same greedy order, same greedy
            // allocations, no lingering reservations — reuses the
            // memoized output. Everything that misses is the *dirty
            // frontier*; past the configured fraction the solve degrades
            // to a full recompute (the proven-equivalence fallback).
            let mut frontier: Vec<usize> = Vec::new();
            match &mut delta {
                Some(ctx) if ctx.warm => {
                    for (i, (n, seeds_here)) in work.iter().enumerate() {
                        let st = &states[n];
                        let hit = st.lingering.is_empty()
                            && ctx
                                .cache
                                .get(n)
                                .is_some_and(|e| e.matches(&st.ares, seeds_here, &assignment));
                        if !hit {
                            frontier.push(i);
                        }
                    }
                    if frontier.len() * 100 > work.len() * ctx.frontier_limit_pct as usize {
                        ctx.report.fallback_full = true;
                        frontier = (0..work.len()).collect();
                    }
                    ctx.report.lp_switches = work.len();
                    ctx.report.frontier = frontier.len();
                    ctx.report.reused = work.len() - frontier.len();
                }
                _ => {
                    frontier = (0..work.len()).collect();
                    if let Some(ctx) = &mut delta {
                        ctx.report.lp_switches = work.len();
                        ctx.report.frontier = work.len();
                    }
                }
            }
            // A switch's LP reads and writes the allocations of its own
            // residents only, so each switch is finished — replayed from
            // the memo or solved, then applied — before the next begins.
            let mut scratch = LpScratch::new();
            let mut frontier = frontier.into_iter().peekable();
            for (i, (n, seeds_here)) in work.iter().enumerate() {
                if frontier.next_if_eq(&i).is_none() {
                    let ctx = delta.as_ref().expect("only a warm delta solve reuses");
                    for (s, r) in &ctx.cache[n].updates {
                        assignment[*s] = Some((*n, *r));
                    }
                    continue;
                }
                let st = &states[n];
                let ups = redistribute_switch(
                    instance,
                    &interned,
                    *n,
                    seeds_here,
                    st,
                    &assignment,
                    &mut scratch,
                );
                if let Some(ctx) = &mut delta {
                    match LpCacheEntry::capture(&st.ares, seeds_here, &assignment, &ups) {
                        Some(entry) if st.lingering.is_empty() => {
                            ctx.cache.insert(*n, entry);
                        }
                        // Lingering reservations (or an unplaced resident)
                        // make the LP inputs non-canonical: never memoize.
                        _ => {
                            ctx.cache.remove(n);
                        }
                    }
                }
                for (s, r) in ups {
                    assignment[s] = Some((*n, r));
                }
            }
        }
        if let Some(t) = telemetry {
            record_phase(
                t,
                "lp_redistribution",
                lp_start.elapsed().as_nanos() as u64,
                lp_switches,
            );
        }
        for st in states.values_mut() {
            let seeds = st.seeds.clone();
            let lingering = st.lingering_sorted();
            st.reset_usage();
            for &s in &seeds {
                if let Some((_, res)) = &assignment[s] {
                    st.add_usage(&interned[s], res);
                }
            }
            for (s, res) in &lingering {
                st.add_usage(&interned[*s], res);
            }
        }
    }

    // Steps 4–5: relocation by decreasing benefit. On re-optimization
    // this is migration (with double occupancy); on a fresh placement it
    // is a free improvement pass over the greedy choices. Benefits are
    // enumerated in seed order and sorted stably by decreasing benefit,
    // so ties keep enumeration order.
    let migration_start = Instant::now();
    let mut migrations = 0;
    if options.migration {
        let (mut benefits, classes) =
            scan_benefits(instance, &interned, &min_alloc, &assignment, &mut states);
        if let Some(ctx) = &mut delta {
            ctx.report.benefit_classes = classes;
        }
        benefits.sort_by(benefit_cmp);
        for (_, s, n) in benefits {
            let seed = &instance.seeds[s];
            let Some((cur, cur_res)) = assignment[s] else {
                continue;
            };
            if cur == n {
                continue;
            }
            let Some((min_res, _)) = min_alloc[s] else {
                continue;
            };
            let Some(target) = states.get(&n) else {
                continue;
            };
            let res = opportunistic_alloc(&interned[s], target, &min_res);
            if !target.fits(&interned[s], &res) {
                continue;
            }
            // Commit only when the *realized* allocation clears the same
            // hysteresis the estimate did — a migration must strictly pay
            // for its state transfer and double occupancy.
            let cur_u = seed.util.eval(&cur_res).unwrap_or(0.0);
            let new_u = seed.util.eval(&res).unwrap_or(0.0);
            if new_u <= cur_u * 1.15 + 1e-6 {
                continue;
            }
            // Double occupancy must fit at the source too: migrating away
            // swaps the live allocation for the *previous* reservation,
            // which can be larger when the LP shrank the seed this round
            // (its released headroom went to co-residents). Re-seating
            // the old reservation would then oversubscribe the source —
            // skip the move instead (C4 over a cheaper migration).
            if let Some((_, pres)) = instance
                .previous
                .as_ref()
                .and_then(|p| p.assignment.get(&s))
                .filter(|(pn, _)| *pn == cur)
            {
                let Some(src) = states.get(&cur) else {
                    continue;
                };
                if !src.fits_after_release(&interned[s], &cur_res, pres) {
                    continue;
                }
            }
            // Commit: occupy the target; on the source, swap the live
            // allocation for the lingering reservation (the *previous*
            // allocation stays until state transfer completes).
            states
                .get_mut(&n)
                .expect("known switch")
                .place(s, &interned[s], &res);
            let src = states.get_mut(&cur).expect("known switch");
            src.unplace(s, &interned[s], &cur_res);
            if let Some(prev) = &instance.previous {
                if let Some((pn, pres)) = prev.assignment.get(&s) {
                    if *pn == cur {
                        src.add_usage(&interned[s], pres);
                        src.lingering.insert(s, *pres);
                    }
                }
            }
            assignment[s] = Some((n, res));
            if instance.previous.is_some() {
                migrations += 1;
            }
        }
        if let Some(t) = telemetry {
            record_phase(
                t,
                "migration",
                migration_start.elapsed().as_nanos() as u64,
                migrations as u64,
            );
        }
    }

    let utility = utility_of(instance, &assignment);
    PlacementResult {
        utility,
        migrations: migrations.max(count_migrations(instance, &assignment)),
        runtime: start.elapsed(),
        dropped_tasks: dropped,
        assignment,
    }
}

/// Gives every switch its *state class* ([`SwitchState::class`]) and
/// returns how many classes there are. Two switches share a class
/// exactly when [`SwitchState::same_class`] says so: everything
/// [`achievable_utility`] reads from a switch has the same bit pattern
/// on both, so within a class the function returns the same bits for
/// the same seed.
///
/// O(switches), no allocation per switch: a switch is hashed
/// ([`SwitchState::class_hash`]) into a slot table and compared field
/// for field against the first switch of the class found there — the
/// hash only finds the candidate, the compare decides.
fn classify_states(states: &mut FxHashMap<SwitchId, SwitchState>) -> usize {
    let bits = (states.len() * 2)
        .next_power_of_two()
        .trailing_zeros()
        .max(1);
    let mut slots: Vec<u32> = vec![u32::MAX; 1 << bits];
    // Per class, the first switch seen in it.
    let mut firsts: Vec<&SwitchState> = Vec::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(states.len());
    for st in states.values() {
        // The hasher's last step is a multiply: its top bits mix best.
        let mut slot = (st.class_hash() >> (64 - bits)) as usize;
        class_of.push(loop {
            let class = slots[slot];
            if class == u32::MAX {
                slots[slot] = firsts.len() as u32;
                firsts.push(st);
                break slots[slot];
            }
            if firsts[class as usize].same_class(st) {
                break class;
            }
            slot = (slot + 1) & (slots.len() - 1);
        });
    }
    let classes = firsts.len();
    // Same map, untouched in between: same iteration order.
    for (st, class) in states.values_mut().zip(class_of) {
        st.class = class;
    }
    classes
}

/// Alg. 1 step 4: every placed seed's utility gain at each alternative
/// candidate that clears the hysteresis, enumerated in seed order, then
/// candidate order. Also returns the number of switch-state classes.
///
/// [`achievable_utility`] is evaluated once per seed and state class
/// ([`classify_states`]), not once per candidate: on a fabric where most
/// switches are in the same state, a `place any` seed's thousand
/// candidates cost a handful of evaluations. Enumeration order and every
/// pushed value are those of the per-candidate scan, bit for bit.
fn scan_benefits(
    instance: &PlacementInstance,
    interned: &[Vec<(u32, Poly)>],
    min_alloc: &[Option<(Resources, f64)>],
    assignment: &[Option<(SwitchId, Resources)>],
    states: &mut FxHashMap<SwitchId, SwitchState>,
) -> (Vec<(f64, usize, SwitchId)>, usize) {
    let classes = classify_states(states);
    // Per class: the seed the slot was filled for, and what it got there.
    let mut memo: Vec<(usize, Option<f64>)> = vec![(usize::MAX, None); classes];
    let mut benefits: Vec<(f64, usize, SwitchId)> = Vec::new();
    for (s, slot) in assignment.iter().enumerate() {
        let (Some((cur, cur_res)), Some((min_res, _))) = (slot, &min_alloc[s]) else {
            continue;
        };
        let seed = &instance.seeds[s];
        let cur_u = seed.util.eval(cur_res).unwrap_or(0.0);
        for &n in &seed.candidates {
            if n == *cur {
                continue;
            }
            let Some(st) = states.get(&n) else { continue };
            let slot = &mut memo[st.class as usize];
            if slot.0 != s {
                *slot = (s, achievable_utility(seed, &interned[s], min_res, st));
            }
            if let Some(u) = slot.1 {
                // Hysteresis: relocation must clearly pay (migration
                // costs state transfer and double occupancy; "without
                // unnecessary migration" per Alg. 1 step 2a), and the
                // benefit estimate is opportunistic, not exact.
                if u > cur_u * 1.15 + 1e-6 {
                    benefits.push((u - cur_u, s, n));
                }
            }
        }
    }
    (benefits, classes)
}

/// Utility the seed could reach on a switch given its spare capacity
/// (the "migration benefit" of Alg. 1 step 4, approximated by one
/// opportunistic allocation instead of a full LP).
fn achievable_utility(
    seed: &crate::model::PlacementSeed,
    polls: &SeedPolls,
    min_res: &Resources,
    st: &SwitchState,
) -> Option<f64> {
    if !st.fits(polls, min_res) {
        return None;
    }
    let res = opportunistic_alloc(polls, st, min_res);
    seed.util.eval(&res)
}

/// Minimum allocation plus half the switch's spare capacity (capped so the
/// result still fits; the head-room is left for later seeds).
fn opportunistic_alloc(polls: &SeedPolls, st: &SwitchState, min_res: &Resources) -> Resources {
    let spare = st.spare();
    let mut res = *min_res;
    for k in ResourceKind::ALL {
        let extra = (spare.get(k) - min_res.get(k)).max(0.0);
        res.0[k.index()] += extra * 0.5;
    }
    if st.fits(polls, &res) {
        res
    } else {
        *min_res
    }
}

/// Step 3: re-solve one switch's resource split as an LP — maximize the
/// sum of (linearized, concave) seed utilities subject to the switch's
/// capacities and aggregated polling.
/// Above this many co-located seeds the per-switch LP's dense tableau
/// stops paying for itself; greedy minimum allocations are kept instead.
const LP_SEEDS_PER_SWITCH_CAP: usize = 150;

/// Arena for the per-switch LPs: one [`Problem`] and the variable handles
/// of one switch's model, reused across every switch of a solve, so the
/// buffers are allocated once per solve instead of once per switch.
pub(crate) struct LpScratch {
    p: Problem,
    /// Each seed of the switch, by its position in `seeds_here` (`None`:
    /// no utility branch, nothing to re-solve).
    seeds: Vec<Option<SeedLp>>,
    /// The switch's distinct poll subjects, ascending, and the `pollres`
    /// variable of each.
    subjects: Vec<u32>,
    poll_vars: Vec<farm_lp::Var>,
}

/// One seed's part of a switch LP.
struct SeedLp {
    /// Its resource variables, by [`ResourceKind::index`].
    vars: [farm_lp::Var; 4],
    /// Some utility piece of its branch grows with the PCIe budget.
    values_polling: bool,
}

impl LpScratch {
    pub(crate) fn new() -> LpScratch {
        LpScratch {
            p: Problem::new(Sense::Maximize),
            seeds: Vec::new(),
            subjects: Vec::new(),
            poll_vars: Vec::new(),
        }
    }
}

/// Objective weight of the poll-rate tie-break, per unit of a seed's PCIe
/// budget: far below the utility gradients of the shipped programs (1 per
/// unit for `DigMicroburst`), above the simplex's pricing tolerance
/// (1e-7).
const POLL_TIE_BREAK: f64 = 1e-6;

/// Solves one switch's redistribution LP and returns the accepted
/// per-seed reallocations. Pure with respect to the shared solve state
/// (reads `assignment`, never writes — the scratch is an arena, not an
/// input), which is what lets step 3 memoize outputs by input signature.
fn redistribute_switch(
    instance: &PlacementInstance,
    interned: &[Vec<(u32, Poly)>],
    _n: SwitchId,
    seeds_here: &[usize],
    st: &SwitchState,
    assignment: &[Option<(SwitchId, Resources)>],
    scratch: &mut LpScratch,
) -> Vec<(usize, Resources)> {
    if seeds_here.len() > LP_SEEDS_PER_SWITCH_CAP {
        return Vec::new();
    }
    // Capacity net of lingering reservations, reduced in ascending seed
    // order (bit-reproducible float accumulation).
    let lingering = st.lingering_sorted();
    let mut cap = st.ares;
    for (_, res) in &lingering {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                cap.0[k.index()] = (cap.get(k) - res.get(k)).max(0.0);
            }
        }
    }
    let lingering_poll: f64 = lingering
        .iter()
        .map(|(s, res)| {
            interned[*s]
                .iter()
                .map(|(_, demand)| demand.eval(res).max(0.0))
                .sum::<f64>()
        })
        .sum();
    let poll_cap = (st.ares.get(ResourceKind::PciePoll) - lingering_poll).max(0.0);

    let LpScratch {
        p,
        seeds,
        subjects,
        poll_vars,
    } = scratch;
    p.reset(Sense::Maximize);
    seeds.clear();
    let mut objective = LinExpr::new();
    for &s in seeds_here {
        let seed = &instance.seeds[s];
        let vars = ResourceKind::ALL.map(|k| p.add_var_unnamed(0.0, cap.get(k)));
        let u = p.add_var_unnamed(0.0, 1e9);
        objective += LinExpr::from(u);
        let cur = assignment[s].as_ref().map(|(_, r)| *r).unwrap_or_default();
        let branch = seed
            .util
            .branches
            .iter()
            .find(|b| b.constraints.iter().all(|c| c.eval(&cur) >= -1e-9))
            .or_else(|| seed.util.branches.first());
        let Some(branch) = branch else {
            seeds.push(None);
            continue;
        };
        for c in &branch.constraints {
            p.add_constraint(poly_expr(c, &vars), Cmp::Ge, 0.0);
        }
        let mut values_polling = false;
        for piece in utility_pieces(&branch.utility) {
            values_polling |= piece.coeffs[ResourceKind::PciePoll.index()] > 0.0;
            let e = poly_expr(&piece, &vars);
            p.add_constraint(LinExpr::from(u) - e, Cmp::Le, 0.0);
        }
        seeds.push(Some(SeedLp {
            vars,
            values_polling,
        }));
    }
    for k in ResourceKind::ALL {
        if k == ResourceKind::PciePoll {
            continue;
        }
        let mut total = LinExpr::new();
        for lp in seeds.iter().flatten() {
            total.add_term(lp.vars[k.index()], 1.0);
        }
        p.add_constraint(total, Cmp::Le, cap.get(k));
    }
    // Aggregated polling: pollres_p ≥ demand_s ∀ s; Σ pollres ≤ cap.
    //
    // The utility prices a seed's PCIe budget only up to where it binds;
    // past that every value is optimal and the vertex would decide. A
    // seed whose utility grows with its PCIe budget is paid a tie-break
    // for each unit of it, and each subject it polls charges twice that
    // per unit of `pollres` the seed's demand would raise: so the seed
    // polls at the rate its subjects are polled at anyway (polling is
    // aggregated, the switch pays the largest demand on each), and no
    // subject is polled faster for it.
    subjects.clear();
    subjects.extend(
        seeds_here
            .iter()
            .flat_map(|&s| interned[s].iter().map(|(subj, _)| *subj)),
    );
    subjects.sort_unstable();
    subjects.dedup();
    let mut poll_sum = LinExpr::new();
    poll_vars.clear();
    for _ in 0..subjects.len() {
        let v = p.add_var_unnamed(0.0, f64::INFINITY);
        poll_sum.add_term(v, 1.0);
        poll_vars.push(v);
    }
    let slot = |subj: &u32| {
        subjects
            .binary_search(subj)
            .expect("subject collected above")
    };
    for (&s, lp) in seeds_here.iter().zip(seeds.iter()) {
        let Some(lp) = lp else {
            continue;
        };
        let mut tie_break = false;
        for (subj, demand) in &interned[s] {
            let pv = poll_vars[slot(subj)];
            let per_unit = demand.coeffs[ResourceKind::PciePoll.index()];
            if lp.values_polling && per_unit > 0.0 {
                objective.add_term(pv, -2.0 * POLL_TIE_BREAK / per_unit);
                tie_break = true;
            }
            let demand = poly_expr(demand, &lp.vars);
            p.add_constraint(LinExpr::from(pv) - demand, Cmp::Ge, 0.0);
        }
        if tie_break {
            let pcie = lp.vars[ResourceKind::PciePoll.index()];
            objective.add_term(pcie, POLL_TIE_BREAK);
        }
    }
    p.add_constraint(poll_sum, Cmp::Le, poll_cap);
    p.set_objective(objective);

    let Ok(sol) = farm_lp::simplex::solve(p) else {
        return Vec::new(); // keep the greedy allocations
    };
    let mut updates = Vec::new();
    for (&s, lp) in seeds_here.iter().zip(seeds.iter()) {
        if let Some(lp) = lp {
            let mut r = Resources::ZERO;
            for k in ResourceKind::ALL {
                r.set(k, sol.value(lp.vars[k.index()]).max(0.0));
            }
            if instance.seeds[s].util.eval(&r).is_some() {
                updates.push((s, r));
            }
        }
    }
    updates
}

/// Linear pieces of a utility expression. `min` trees are concave and
/// linearize exactly; a `max` is approximated by its upper envelope
/// (documented in DESIGN.md — no shipped Tab. I program uses `max`).
fn utility_pieces(e: &UtilExpr) -> Vec<Poly> {
    e.pieces()
}

fn poly_expr(poly: &Poly, vars: &[farm_lp::Var]) -> LinExpr {
    let mut e = LinExpr::constant_expr(poly.constant);
    for (i, c) in poly.coeffs.iter().enumerate() {
        if *c != 0.0 {
            e.add_term(vars[i], *c);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{validate, PlacementSeed, PlacementTask, PreviousPlacement};
    use farm_almanac::analysis::{UtilAnalysis, UtilBranch};

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

    fn instance(n_switches: usize, seeds_per_task: usize, tasks: usize) -> PlacementInstance {
        let switches: Vec<(SwitchId, Resources)> = (0..n_switches)
            .map(|i| (SwitchId(i as u32), Resources::new(4.0, 8192.0, 64.0, 125.0)))
            .collect();
        let mut seeds = Vec::new();
        let mut task_list = Vec::new();
        for t in 0..tasks {
            let mut ids = Vec::new();
            for j in 0..seeds_per_task {
                let id = seeds.len();
                ids.push(id);
                let candidates: Vec<SwitchId> = (0..n_switches)
                    .filter(|i| (i + j) % 2 == 0 || n_switches == 1)
                    .map(|i| SwitchId(i as u32))
                    .collect();
                seeds.push(PlacementSeed {
                    id,
                    task: t,
                    candidates: if candidates.is_empty() {
                        vec![SwitchId(0)]
                    } else {
                        candidates
                    },
                    util: linear_util(1.0, 3.0),
                    polls: vec![crate::model::PollDemand {
                        subject: format!("task{t}-stats"),
                        demand: Poly {
                            coeffs: [0.0, 0.0, 0.0, 0.1],
                            constant: 1.0,
                        },
                    }],
                });
            }
            task_list.push(PlacementTask {
                name: format!("t{t}"),
                seeds: ids,
            });
        }
        PlacementInstance {
            switches,
            tasks: task_list,
            seeds,
            previous: None,
        }
    }

    #[test]
    fn heuristic_produces_feasible_placements() {
        // 4 tasks × 3 seeds: per task two seeds restricted to switches
        // {0,2} and one to {1,3}; 8 vCPU on {0,2} exactly hosts the 8
        // restricted seeds at their 1-vCPU minimum.
        let inst = instance(4, 3, 4);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert_eq!(r.dropped_tasks, Vec::<usize>::new());
        assert_eq!(r.placed(), 12);
        assert!(r.utility > 0.0);
    }

    #[test]
    fn a_seed_that_values_polling_polls_at_its_subjects_aggregated_rate() {
        // Two seeds share one poll subject on one switch. `fast` is worth
        // its PCIe budget and demands 1 000 polls/s per unit, so it takes
        // the whole poll capacity (62 500 / 1 000 = 62.5). `slow` is worth
        // min(vCPU, PCIe) and demands 100 per unit; its vCPU caps it at 3,
        // so the LP is indifferent to its PCIe anywhere in [3, 625]. The
        // switch polls the subject at 62 500/s anyway, so `slow` gets 625.
        // When `fast` is worth at most 10 units the subject is polled at
        // 10 000/s and `slow` gets 100, not the 625 the spare poll
        // capacity would allow.
        let pcie = |k: f64| Poly {
            coeffs: [0.0, 0.0, 0.0, k],
            constant: 0.0,
        };
        let at_least = |k: ResourceKind, min: f64| {
            let mut p = Poly::var(k);
            p.constant = -min;
            p
        };
        let seed = |id: usize, util: UtilExpr, per_unit: f64, domain: Vec<Poly>| PlacementSeed {
            id,
            task: id,
            candidates: vec![SwitchId(0)],
            util: UtilAnalysis {
                branches: vec![UtilBranch {
                    constraints: domain,
                    utility: util,
                }],
            },
            polls: vec![crate::model::PollDemand {
                subject: "ports".into(),
                demand: pcie(per_unit),
            }],
        };
        let solve = |fast_util: UtilExpr| {
            let fast = seed(
                0,
                fast_util,
                1000.0,
                vec![
                    at_least(ResourceKind::VCpu, 1.0),
                    at_least(ResourceKind::PciePoll, 1.0),
                ],
            );
            let slow = seed(
                1,
                UtilExpr::Min(
                    Box::new(UtilExpr::Poly(Poly::var(ResourceKind::VCpu))),
                    Box::new(UtilExpr::Poly(Poly::var(ResourceKind::PciePoll))),
                ),
                100.0,
                vec![
                    at_least(ResourceKind::VCpu, 1.0),
                    at_least(ResourceKind::RamMb, 100.0),
                ],
            );
            let inst = PlacementInstance {
                switches: vec![(SwitchId(0), Resources::new(4.0, 16384.0, 512.0, 62500.0))],
                tasks: (0..2)
                    .map(|t| PlacementTask {
                        name: format!("t{t}"),
                        seeds: vec![t],
                    })
                    .collect(),
                seeds: vec![fast, slow],
                previous: None,
            };
            let r = solve_heuristic(&inst, HeuristicOptions::default());
            validate(&inst, &r).unwrap();
            let pcie = |s: usize| r.assignment[s].unwrap().1.get(ResourceKind::PciePoll);
            (
                pcie(0),
                pcie(1),
                r.assignment[1].unwrap().1.get(ResourceKind::VCpu),
                r.utility,
            )
        };
        let uncapped = UtilExpr::Poly(Poly::var(ResourceKind::PciePoll));
        assert_eq!(solve(uncapped.clone()), (62.5, 625.0, 3.0, 62.5 + 3.0));
        let capped = UtilExpr::Min(
            Box::new(uncapped),
            Box::new(UtilExpr::Poly(Poly::constant(10.0))),
        );
        assert_eq!(solve(capped), (10.0, 100.0, 3.0, 10.0 + 3.0));
    }

    #[test]
    fn lp_redistribution_improves_utility() {
        let inst = instance(2, 2, 3);
        let without = solve_heuristic(
            &inst,
            HeuristicOptions {
                lp_redistribution: false,
                migration: false,
            },
        );
        let with = solve_heuristic(
            &inst,
            HeuristicOptions {
                lp_redistribution: true,
                migration: false,
            },
        );
        validate(&inst, &with).unwrap();
        assert!(
            with.utility > without.utility + 0.5,
            "LP should exploit spare capacity: {} vs {}",
            with.utility,
            without.utility
        );
    }

    #[test]
    fn capacity_pressure_drops_whole_tasks() {
        let mut inst = instance(1, 2, 3);
        inst.switches[0].1 = Resources::new(4.0, 8192.0, 64.0, 125.0);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert!(!r.dropped_tasks.is_empty());
        assert_eq!(r.placed() % 2, 0, "no partially placed task");
    }

    #[test]
    fn sticky_placement_avoids_needless_migration() {
        let inst0 = instance(4, 3, 4);
        let r0 = solve_heuristic(&inst0, HeuristicOptions::default());
        validate(&inst0, &r0).unwrap();
        let mut inst1 = inst0.clone();
        let mut prev = PreviousPlacement::default();
        for (s, slot) in r0.assignment.iter().enumerate() {
            if let Some((n, res)) = slot {
                prev.assignment.insert(s, (*n, *res));
            }
        }
        inst1.previous = Some(prev);
        let r1 = solve_heuristic(&inst1, HeuristicOptions::default());
        validate(&inst1, &r1).unwrap();
        assert_eq!(r1.migrations, 0, "stable input must not migrate seeds");
        assert_eq!(r1.placed(), r0.placed());
    }

    #[test]
    fn migration_moves_seeds_to_freed_capacity() {
        // Previous placement crowds switch 0; switch 1 is empty and every
        // seed may use either switch. Re-optimization should migrate some
        // seeds toward the free capacity for higher utility.
        let mut inst = instance(2, 1, 4);
        for s in &mut inst.seeds {
            s.candidates = vec![SwitchId(0), SwitchId(1)];
        }
        let mut prev = PreviousPlacement::default();
        for s in 0..4 {
            prev.assignment
                .insert(s, (SwitchId(0), Resources::new(1.0, 0.0, 0.0, 0.0)));
        }
        inst.previous = Some(prev);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert!(
            r.migrations > 0,
            "free capacity on switch 1 should attract migrations"
        );
        assert!(
            r.utility > 4.0,
            "migration should lift utility, got {}",
            r.utility
        );
    }

    #[test]
    fn aggregation_lets_shared_subjects_exceed_solo_capacity() {
        let mut inst = instance(1, 10, 1);
        inst.switches[0].1 = Resources::new(16.0, 8192.0, 64.0, 5.0);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert_eq!(r.placed(), 10, "aggregation must allow co-location");
    }

    #[test]
    fn unknown_candidate_switches_are_skipped_not_panicked() {
        // After a switch crash the replan instance omits the dead switch,
        // but compiled candidate lists still name it. The solver must
        // ignore such candidates — including in the migration pass, where
        // the previous placement may also point at the dead switch.
        let mut inst = instance(2, 1, 2);
        for s in &mut inst.seeds {
            s.candidates = vec![SwitchId(7), SwitchId(1), SwitchId(0)];
        }
        let mut prev = PreviousPlacement::default();
        prev.assignment
            .insert(0, (SwitchId(7), Resources::new(1.0, 0.0, 0.0, 0.0)));
        inst.previous = Some(prev);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert_eq!(r.placed(), 2, "surviving switches must host the seeds");
        for slot in r.assignment.iter().flatten() {
            assert_ne!(slot.0, SwitchId(7), "dead switch must never be chosen");
        }
    }

    #[test]
    fn infeasible_everywhere_drops_task_not_panics() {
        let mut inst = instance(1, 1, 1);
        inst.switches[0].1 = Resources::new(0.5, 1.0, 1.0, 1.0);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        assert_eq!(r.placed(), 0);
        assert_eq!(r.dropped_tasks, vec![0]);
        assert_eq!(r.utility, 0.0);
    }

    #[test]
    fn scales_to_thousands_of_seeds() {
        // A smoke-sized version of the Fig. 7 regime: the heuristic must
        // stay well under a second for ~2k seeds.
        let inst = instance(64, 8, 250); // 2000 seeds
        let start = std::time::Instant::now();
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        let elapsed = start.elapsed();
        validate(&inst, &r).unwrap();
        assert!(r.placed() > 0);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "heuristic too slow: {elapsed:?}"
        );
    }

    #[test]
    fn incremental_poll_cache_matches_refold() {
        // Exercise add/remove cycles (including removing the max entry)
        // and cross-check the cached totals against a from-scratch fold.
        let inst = instance(1, 6, 2);
        let (_, interned) = SubjectInterner::for_instance(&inst);
        let mut st = SwitchState::new(Resources::new(64.0, 1e6, 1e3, 1e5));
        let allocs: Vec<Resources> = (0..inst.seeds.len())
            .map(|i| Resources::new(1.0, 10.0, 0.0, 10.0 * (i as f64 + 1.0)))
            .collect();
        for (i, r) in allocs.iter().enumerate() {
            st.add_usage(&interned[i], r);
        }
        // Remove the largest-demand seeds first so the cached max must be
        // rebuilt, then a middle one, then re-add.
        for &i in &[11usize, 10, 5] {
            st.remove_usage(&interned[i], &allocs[i]);
        }
        st.add_usage(&interned[5], &allocs[5]);
        let refold: f64 = st
            .poll
            .values()
            .map(|c| c.entries.iter().copied().fold(0.0, f64::max))
            .sum();
        assert!(
            (st.poll_total - refold).abs() < 1e-9,
            "cached {} vs refold {refold}",
            st.poll_total
        );
        for cell in st.poll.values() {
            let m = cell.entries.iter().copied().fold(0.0, f64::max);
            assert!((cell.max - m).abs() < 1e-12);
        }
    }

    mod scan_property {
        use super::*;
        use proptest::prelude::*;

        /// Step 4 as it was before state classes: one `achievable_utility`
        /// per (seed, candidate). The oracle of the property below.
        fn plain_scan(
            instance: &PlacementInstance,
            interned: &[Vec<(u32, Poly)>],
            min_alloc: &[Option<(Resources, f64)>],
            assignment: &[Option<(SwitchId, Resources)>],
            states: &FxHashMap<SwitchId, SwitchState>,
        ) -> Vec<(f64, usize, SwitchId)> {
            let mut benefits = Vec::new();
            for (s, slot) in assignment.iter().enumerate() {
                let (Some((cur, cur_res)), Some((min_res, _))) = (slot, &min_alloc[s]) else {
                    continue;
                };
                let seed = &instance.seeds[s];
                let cur_u = seed.util.eval(cur_res).unwrap_or(0.0);
                for &n in &seed.candidates {
                    if n == *cur {
                        continue;
                    }
                    let Some(st) = states.get(&n) else { continue };
                    if let Some(u) = achievable_utility(seed, &interned[s], min_res, st) {
                        if u > cur_u * 1.15 + 1e-6 {
                            benefits.push((u - cur_u, s, n));
                        }
                    }
                }
            }
            benefits
        }

        /// Capacities a generated switch draws from, the first one half of
        /// the time: few, so that switches repeat, and some differing from a
        /// neighbour in one sign bit only.
        const CAPACITIES: [[f64; 4]; 5] = [
            [4.0, 8192.0, 64.0, 125.0],
            [4.0, 8192.0, 64.0, 60.0],
            [2.0, 8192.0, 0.0, 125.0],
            [2.0, 8192.0, -0.0, 125.0],
            [-0.0, 0.0, 0.0, 0.0],
        ];

        /// What already sits on a generated switch: `(subject, constant
        /// demand, vCPU)` per resident; subject 2 polls nothing. Every field
        /// of the class signature varies alone somewhere: `used` (3 / 5),
        /// which subject holds which max under one total (3 / 4), which
        /// subject holds the one max (7 / 8), a subject at max `0.0` beside
        /// none at all (1 / 2), one state reached in two orders (3 / 6).
        /// The totals sit close under the 125 polls/s most capacities have,
        /// so that a seed's own demand decides whether it still fits.
        const LOADS: [&[(u32, f64, f64)]; 9] = [
            &[],
            &[(0, 0.0, 0.5)],
            &[(2, 0.0, 0.5)],
            &[(0, 30.0, 0.5), (1, 90.0, 1.0)],
            &[(0, 90.0, 0.5), (1, 30.0, 1.0)],
            &[(0, 30.0, 1.0), (1, 90.0, 1.0)],
            &[(1, 90.0, 1.0), (0, 30.0, 0.5)],
            &[(0, 100.0, 0.5)],
            &[(1, 100.0, 0.5)],
        ];

        fn constant_poll(subject: u32, polls_per_s: f64) -> Vec<(u32, Poly)> {
            if subject < 2 {
                vec![(subject, Poly::constant(polls_per_s))]
            } else {
                Vec::new()
            }
        }

        /// One seed: candidate picks, poll subject with its constant
        /// demand, minimum vCPU, and where it sits now (`None` =
        /// unplaced) with how much vCPU.
        type SeedRecipe = (Vec<usize>, u32, f64, f64, Option<usize>, f64);

        fn seed_recipe() -> impl Strategy<Value = SeedRecipe> {
            (
                proptest::collection::vec(0usize..64, 2..10),
                0u32..3,
                0.0f64..120.0,
                0.0f64..1.5,
                prop_oneof![Just(None), (0usize..64).prop_map(Some)],
                0.0f64..2.0,
            )
        }

        proptest! {
            /// The class-memoised scan pushes exactly what the
            /// per-candidate scan pushes: same length, same order, same
            /// bits — over switches that repeat each other's state, differ
            /// from it in one sign bit, or carry a subject at max `0.0`.
            #[test]
            fn class_memoised_scan_matches_the_plain_scan(
                switches in proptest::collection::vec(
                    (prop_oneof![Just(0usize), 0usize..CAPACITIES.len()], 0usize..LOADS.len()),
                    2..14,
                ),
                seeds in proptest::collection::vec(seed_recipe(), 1..8),
            ) {
                let mut states: FxHashMap<SwitchId, SwitchState> = FxHashMap::default();
                for (i, &(cap, load)) in switches.iter().enumerate() {
                    let mut st = SwitchState::new(Resources(CAPACITIES[cap]));
                    for &(subject, demand, vcpu) in LOADS[load] {
                        st.add_usage(
                            &constant_poll(subject, demand),
                            &Resources::new(vcpu, 0.0, 0.0, 0.0),
                        );
                    }
                    states.insert(SwitchId(i as u32), st);
                }
                let id = |pick: usize| SwitchId((pick % switches.len()) as u32);
                let mut instance = instance(1, 1, 1);
                instance.seeds.clear();
                let mut interned = Vec::new();
                let mut assignment = Vec::new();
                for (s, (picks, subject, demand, min_vcpu, home, vcpu)) in seeds.iter().enumerate() {
                    instance.seeds.push(PlacementSeed {
                        id: s,
                        task: 0,
                        candidates: picks.iter().map(|&p| id(p)).collect(),
                        util: linear_util(*min_vcpu, 100.0),
                        polls: Vec::new(),
                    });
                    interned.push(constant_poll(*subject, *demand));
                    assignment.push(home.map(|h| (id(h), Resources::new(*vcpu, 0.0, 0.0, 0.0))));
                }
                let min_alloc: Vec<_> =
                    instance.seeds.iter().map(|s| s.util.min_feasible()).collect();

                let plain = plain_scan(&instance, &interned, &min_alloc, &assignment, &states);
                let (memoised, classes) =
                    scan_benefits(&instance, &interned, &min_alloc, &assignment, &mut states);

                prop_assert!(classes <= switches.len());
                let bits = |v: &[(f64, usize, SwitchId)]| -> Vec<(u64, usize, SwitchId)> {
                    v.iter().map(|&(b, s, n)| (b.to_bits(), s, n)).collect()
                };
                prop_assert_eq!(bits(&memoised), bits(&plain));
            }
        }
    }
}
