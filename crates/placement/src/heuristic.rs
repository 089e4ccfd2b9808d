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
//! * Poll subjects are interned to dense `u32` ids in first-seen order
//!   (`SubjectInterner`); the hot candidate loop never clones or hashes
//!   a `String`. Ids and each seed's minimum feasible allocation are
//!   per-seed products a retained [`crate::delta::SolveState`] keeps.
//! * Each `SwitchState` caches the per-subject running max and the
//!   switch-wide `Σ max` poll total, so a `fits()` probe is O(polls of
//!   the candidate seed) instead of O(subjects × entries on the switch).
//!   Removing the max entry lazily rebuilds that one subject's max. Its
//!   subjects and lingering reservations are small sorted vectors.
//! * Step 2 runs as one ordered op log per switch (reserve, release,
//!   place, unplace, restore) and a worklist of steps. A switch's state
//!   is a function of its capacity and its ops, so only the steps of
//!   changed seeds and the later readers of switches whose ops diverged
//!   are visited; a visited seed whose inputs did not change and none of
//!   whose switches diverged before it keeps its last outcome without a
//!   probe, and a switch whose log did not diverge keeps its state from
//!   the last solve untouched ([`crate::delta`]). A from-scratch solve
//!   is the same loop with every step on the worklist.
//! * Step 3's per-switch LPs run one after another through a single
//!   reused model arena (`LpScratch`); every float reduction runs in
//!   stable switch/seed order, so repeated solves are bit-identical
//!   (`prop_placement.rs` pins this). A switch's LP reads only what its
//!   op log leaves on it, so a switch whose ops leave the same residents
//!   and reservations as last solve keeps its last LP output (held in the
//!   kept post-step-3 assignment) instead of solving, a switch whose
//!   state was not rebuilt is not looked at, and the post-LP refresh runs
//!   only where the greedy state or the LP changed.
//! * Step 4 follows the change too: only new, dirty or moved seeds and
//!   the (seed, candidate) pairs of switches whose post-step-3 state may
//!   have changed are looked at; every other seed's benefits are copied
//!   ([`crate::delta`]). The objective and the migration count are kept
//!   per seed and rewritten for the seeds that moved, instead of
//!   re-evaluating every utility and hashing every previous seat.

use std::mem::size_of;
use std::time::Instant;

use farm_almanac::analysis::{Poly, UtilAnalysis, UtilExpr};
use farm_lp::{record_phase, Cmp, LinExpr, Problem, Sense};
use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;
use farm_telemetry::{SpanLog, Telemetry};

use crate::delta::{Benefit, DeltaReport, Memo, Outcome, Scans, Slot, Switches};
use crate::fxhash::FxHashMap;
use crate::model::{count_migrations, utility_of, PlacementInstance, PlacementResult, PollDemand};

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

/// Interned polling demands of one seed: its subject ids, paired in
/// order with its [`PollDemand`]s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeedPolls<'a> {
    ids: &'a [u32],
    demands: &'a [PollDemand],
}

impl<'a> SeedPolls<'a> {
    pub(crate) fn new(ids: &'a [u32], demands: &'a [PollDemand]) -> SeedPolls<'a> {
        debug_assert_eq!(ids.len(), demands.len());
        SeedPolls { ids, demands }
    }

    fn iter(self) -> impl Iterator<Item = (u32, &'a Poly)> {
        let demands = self.demands.iter().map(|p| &p.demand);
        self.ids.iter().copied().zip(demands)
    }
}

/// Aggregated demand multiset of one subject on one switch, with the
/// cached running max (consumption is the max — § IV-B aggregation).
/// Its `len` entries sit in [`SwitchState::entries`] after those of the
/// subjects before it.
#[derive(Debug, Clone)]
struct PollCell {
    subject: u32,
    len: u32,
    max: f64,
}

/// Per-switch bookkeeping during the solve.
#[derive(Debug, Clone)]
pub(crate) struct SwitchState {
    pub(crate) ares: Resources,
    /// Non-poll resources in use (live seeds + lingering reservations).
    used: Resources,
    /// Poll demands per interned subject, ascending by subject;
    /// consumption is the cached max.
    poll: Vec<PollCell>,
    /// Every cell's demand entries, cell by cell.
    entries: Vec<f64>,
    /// Cached `Σ_subject max(entries)` — the switch's aggregated poll
    /// consumption, maintained incrementally so `fits()` never refolds.
    poll_total: f64,
    /// Seeds currently hosted, in the order they arrived.
    pub(crate) seeds: Vec<u32>,
    /// Migration reservations, ascending by seed: each seed's previous
    /// allocation still occupying this switch while its state transfers
    /// away.
    lingering: Vec<(usize, Resources)>,
}

impl SwitchState {
    pub(crate) fn new(ares: Resources) -> SwitchState {
        SwitchState {
            ares,
            used: Resources::ZERO,
            poll: Vec::new(),
            entries: Vec::new(),
            poll_total: 0.0,
            seeds: Vec::new(),
            lingering: Vec::new(),
        }
    }

    /// Back to [`SwitchState::new`]`(ares)`, keeping the buffers.
    pub(crate) fn reset(&mut self, ares: Resources) {
        self.ares = ares;
        self.reset_usage();
        self.seeds.clear();
        self.lingering.clear();
    }

    /// Gives back the buffers' spare capacity.
    pub(crate) fn shrink(&mut self) {
        self.poll.shrink_to_fit();
        self.entries.shrink_to_fit();
        self.seeds.shrink_to_fit();
        self.lingering.shrink_to_fit();
    }

    /// Heap bytes the state holds, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.poll.capacity() * size_of::<PollCell>()
            + self.entries.capacity() * size_of::<f64>()
            + self.seeds.capacity() * size_of::<u32>()
            + self.lingering.capacity() * size_of::<(usize, Resources)>()
    }

    fn cell_index(&self, subject: u32) -> Result<usize, usize> {
        self.poll.binary_search_by_key(&subject, |c| c.subject)
    }

    /// What a read-only probe reads of the state.
    pub(crate) fn load(&self) -> Load<'_> {
        Load {
            ares: &self.ares,
            used: &self.used,
            poll: &self.poll,
            poll_total: self.poll_total,
        }
    }

    /// The state's usage without its entries, residents and reservations.
    pub(crate) fn usage(&self) -> Usage {
        Usage {
            used: self.used,
            poll: self.poll.as_slice().into(),
            poll_total: self.poll_total,
        }
    }

    /// Where cell `i`'s entries are in [`SwitchState::entries`].
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.poll[..i].iter().map(|c| c.len as usize).sum();
        start..start + self.poll[i].len as usize
    }

    /// The seeds with a lingering reservation here, ascending.
    pub(crate) fn lingering_seeds(&self) -> impl Iterator<Item = &usize> {
        self.lingering.iter().map(|(s, _)| s)
    }

    /// The seed's lingering reservation here, if any.
    fn lingering(&self, seed: usize) -> Option<&Resources> {
        let i = self.lingering.binary_search_by_key(&seed, |(s, _)| *s);
        i.ok().map(|i| &self.lingering[i].1)
    }

    /// Read-only probe: would `res` fit if the seed's reservation `prev`
    /// were released first? Numerically identical to cloning the state,
    /// calling [`SwitchState::remove_usage`]`(polls, prev)` and then
    /// [`Load::fits`]`(polls, res)` — the same clamped
    /// subtractions and incremental `poll_total` adjustments in the same
    /// order — but without cloning the per-switch bookkeeping. The greedy
    /// home-stay check runs this once per previously-placed seed, so the
    /// clone it replaces used to dominate the greedy phase on re-solves.
    fn fits_after_release(&self, polls: SeedPolls, prev: &Resources, res: &Resources) -> bool {
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
        // with no entries, standing in for the removed cell.
        let mut touched: Vec<(u32, Vec<f64>, f64)> = Vec::new();
        let mut poll_total = self.poll_total;
        for (subj, demand) in polls.iter() {
            let d = demand.eval(prev).max(0.0);
            let idx = match touched.iter().position(|(s, _, _)| *s == subj) {
                Some(i) => Some(i),
                None => self.cell_index(subj).ok().map(|i| {
                    let entries = self.entries[self.span(i)].to_vec();
                    touched.push((subj, entries, self.poll[i].max));
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
        for (subj, demand) in polls.iter() {
            let d = demand.eval(res).max(0.0);
            let cur = match touched.iter().find(|(s, _, _)| *s == subj) {
                Some((_, entries, max)) => {
                    if entries.is_empty() {
                        0.0
                    } else {
                        *max
                    }
                }
                None => self.load().cell(subj).map_or(0.0, |c| c.max),
            };
            delta += (d - cur).max(0.0);
        }
        poll_total + delta <= self.ares.get(ResourceKind::PciePoll) + 1e-9
    }

    fn add_usage(&mut self, polls: SeedPolls, res: &Resources) {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                self.used.0[k.index()] += res.get(k);
            }
        }
        for (subj, demand) in polls.iter() {
            let d = demand.eval(res).max(0.0);
            let i = self.cell_index(subj).unwrap_or_else(|i| {
                let cell = PollCell {
                    subject: subj,
                    len: 0,
                    max: 0.0,
                };
                self.poll.insert(i, cell);
                i
            });
            let end = self.span(i).end;
            self.entries.insert(end, d);
            let cell = &mut self.poll[i];
            cell.len += 1;
            if d > cell.max {
                self.poll_total += d - cell.max;
                cell.max = d;
            }
        }
    }

    fn remove_usage(&mut self, polls: SeedPolls, res: &Resources) {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                self.used.0[k.index()] = (self.used.get(k) - res.get(k)).max(0.0);
            }
        }
        for (subj, demand) in polls.iter() {
            let d = demand.eval(res).max(0.0);
            let Ok(i) = self.cell_index(subj) else {
                continue;
            };
            let span = self.span(i);
            let entries = &mut self.entries[span.clone()];
            let Some(pos) = entries.iter().position(|x| (x - d).abs() < 1e-12) else {
                continue;
            };
            // `swap_remove` within the cell's entries.
            entries.swap(pos, span.len() - 1);
            self.entries.remove(span.end - 1);
            let cell = &mut self.poll[i];
            cell.len -= 1;
            if cell.len == 0 {
                self.poll_total -= cell.max;
                self.poll.remove(i);
            } else if d >= cell.max - 1e-12 {
                // The (possibly tied) max left: rebuild this one
                // subject's max lazily.
                let entries = &self.entries[span.start..span.end - 1];
                let new_max = entries.iter().copied().fold(0.0, f64::max);
                self.poll_total += new_max - cell.max;
                cell.max = new_max;
            }
        }
    }

    /// Drops all usage bookkeeping (used + poll cells) but keeps the
    /// hosted-seed and lingering sets.
    fn reset_usage(&mut self) {
        self.used = Resources::ZERO;
        self.poll.clear();
        self.entries.clear();
        self.poll_total = 0.0;
    }

    /// The post-LP refresh: usage re-derived from the residents' current
    /// allocations (`res_of`) and then the lingering reservations, in
    /// stored order.
    fn refresh<'p>(
        &mut self,
        polls: impl Fn(usize) -> SeedPolls<'p>,
        res_of: impl Fn(usize) -> Option<Resources>,
    ) {
        self.reset_usage();
        for i in 0..self.seeds.len() {
            let s = self.seeds[i] as usize;
            if let Some(res) = res_of(s) {
                self.add_usage(polls(s), &res);
            }
        }
        for i in 0..self.lingering.len() {
            let (s, res) = self.lingering[i];
            self.add_usage(polls(s), &res);
        }
    }

    pub(crate) fn place(&mut self, seed_id: usize, polls: SeedPolls, res: &Resources) {
        self.add_usage(polls, res);
        self.seeds.push(seed_id as u32);
    }

    pub(crate) fn unplace(&mut self, seed_id: usize, polls: SeedPolls, res: &Resources) {
        self.remove_usage(polls, res);
        self.seeds.retain(|&x| x as usize != seed_id);
    }

    /// Reserves the seed's previous allocation `res` here (lingering).
    pub(crate) fn reserve(&mut self, seed: usize, polls: SeedPolls, res: Resources) {
        self.add_usage(polls, &res);
        match self.lingering.binary_search_by_key(&seed, |(s, _)| *s) {
            Ok(i) => self.lingering[i].1 = res,
            Err(i) => self.lingering.insert(i, (seed, res)),
        }
    }

    /// Releases the seed's lingering reservation here, if it has one.
    pub(crate) fn release(&mut self, seed: usize, polls: SeedPolls) {
        if let Ok(i) = self.lingering.binary_search_by_key(&seed, |(s, _)| *s) {
            let (_, res) = self.lingering.remove(i);
            self.remove_usage(polls, &res);
        }
    }

    /// Rewrites the seed indices held here (`new(old)`); false, leaving
    /// the state half-rewritten, when one has no new index or the
    /// reservations change order (the LP reads them in order).
    pub(crate) fn remap(&mut self, new: impl Fn(usize) -> Option<usize>) -> bool {
        let ok = self
            .seeds
            .iter_mut()
            .all(|s| new(*s as usize).map(|n| *s = n as u32).is_some())
            && self
                .lingering
                .iter_mut()
                .all(|(s, _)| new(*s).map(|n| *s = n).is_some())
            && self.lingering.is_sorted_by_key(|(s, _)| *s);
        self.lingering.sort_unstable_by_key(|(s, _)| *s);
        ok
    }
}

/// What a read-only probe reads of a switch: its capacity, its non-poll
/// usage and its poll cells with their cached `Σ max` — of a built
/// [`SwitchState`], or of a switch's kept [`Usage`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load<'a> {
    ares: &'a Resources,
    used: &'a Resources,
    poll: &'a [PollCell],
    poll_total: f64,
}

impl<'a> Load<'a> {
    fn cell(self, subject: u32) -> Option<&'a PollCell> {
        let i = self.poll.binary_search_by_key(&subject, |c| c.subject);
        i.ok().map(|i| &self.poll[i])
    }

    /// Extra aggregated polling the seed would add at allocation `res`.
    fn poll_delta(self, polls: SeedPolls, res: &Resources) -> f64 {
        polls
            .iter()
            .map(|(subj, demand)| {
                let d = demand.eval(res).max(0.0);
                let cur = self.cell(subj).map_or(0.0, |c| c.max);
                (d - cur).max(0.0)
            })
            .sum()
    }

    fn fits(self, polls: SeedPolls, res: &Resources) -> bool {
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

    /// Remaining capacity for opportunistic allocation estimates.
    fn spare(self) -> Resources {
        let mut s = self.ares.saturating_sub(self.used);
        s.set(
            ResourceKind::PciePoll,
            (self.ares.get(ResourceKind::PciePoll) - self.poll_total).max(0.0),
        );
        s
    }
}

/// A switch's usage with its entries, residents and reservations left
/// out: all a read-only probe reads of it besides its capacity. Each
/// switch keeps one as it stands at the end of its greedy pass
/// ([`crate::delta`]).
#[derive(Debug, Clone)]
pub(crate) struct Usage {
    used: Resources,
    poll: Box<[PollCell]>,
    poll_total: f64,
}

impl Usage {
    /// The usage on a switch of capacity `ares`.
    pub(crate) fn load<'a>(&'a self, ares: &'a Resources) -> Load<'a> {
        Load {
            ares,
            used: &self.used,
            poll: &self.poll,
            poll_total: self.poll_total,
        }
    }

    /// Heap bytes it holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.poll.len() * size_of::<PollCell>()
    }

    /// Whether `other` holds the same usage, to the bit.
    pub(crate) fn same(&self, other: &Usage) -> bool {
        let cell = |c: &PollCell| (c.subject, c.len, c.max.to_bits());
        self.used.0.map(f64::to_bits) == other.used.0.map(f64::to_bits)
            && self.poll_total.to_bits() == other.poll_total.to_bits()
            && self.poll.iter().map(cell).eq(other.poll.iter().map(cell))
    }
}

/// The migration-benefit comparator over two gains: decreasing gain,
/// `Equal` on any NaN so the sort never panics.
fn benefit_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal)
}

/// Hysteresis: relocation must clearly pay (migration costs state
/// transfer and double occupancy; "without unnecessary migration" per
/// Alg. 1 step 2a), and the benefit estimate is opportunistic, not
/// exact. A seed at utility `cur_u` gains from a candidate only where it
/// reaches more than this.
pub(crate) fn hysteresis(cur_u: f64) -> f64 {
    cur_u * 1.15 + 1e-6
}

/// Runs Alg. 1 on an instance.
pub fn solve_heuristic(instance: &PlacementInstance, options: HeuristicOptions) -> PlacementResult {
    solve_heuristic_traced(instance, options, None)
}

/// [`solve_heuristic`] with per-phase telemetry: each of the greedy,
/// LP-redistribution and migration phases emits a
/// [`farm_telemetry::Event::SolverPhase`] and samples `solver.phase_us`,
/// timed on the wall clock.
pub fn solve_heuristic_traced(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    telemetry: Option<&Telemetry>,
) -> PlacementResult {
    let spans = &mut SpanLog::wall();
    solve_core(instance, options, telemetry, spans, &mut Memo::default()).0
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
    // The MILP baseline's deadline reads this runtime: it bounds the
    // baseline's work, it is not a phase time.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let mut memo = Memo::default();
    memo.begin(instance, HeuristicOptions::default());
    let Memo {
        seeds, switches, ..
    } = &mut memo;
    let polls = |s: usize| seeds.polls(instance, s);
    let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
    let mut assignment: Vec<Option<(SwitchId, Resources)>> = vec![None; instance.seeds.len()];
    let mut dropped = Vec::new();
    let mut order: Vec<usize> = (0..instance.tasks.len()).collect();
    order.shuffle(&mut rng);
    for &t in &order {
        let mut placed_here: Vec<(usize, usize, Resources)> = Vec::new();
        let mut ok = true;
        for &s in &instance.tasks[t].seeds {
            let Some((min_res, _)) = seeds.min_alloc(s) else {
                ok = false;
                break;
            };
            // Candidates absent from the instance (e.g. crashed switches
            // excluded from this solve) are simply not feasible.
            let feasible: Vec<usize> = instance.seeds[s]
                .candidates
                .iter()
                .filter_map(|n| switches.present_slot(*n))
                .filter(|&i| switches.states[i].load().fits(polls(s), &min_res))
                .collect();
            if feasible.is_empty() {
                ok = false;
                break;
            }
            let i = feasible[rng.random_range(0..feasible.len())];
            switches.states[i].place(s, polls(s), &min_res);
            placed_here.push((s, i, min_res));
        }
        if ok {
            for (s, i, res) in placed_here {
                assignment[s] = Some((switches.ids[i], res));
            }
        } else {
            for (s, i, res) in placed_here {
                switches.states[i].unplace(s, polls(s), &res);
            }
            dropped.push(t);
        }
    }
    if lp_polish {
        let mut scratch = LpScratch::new();
        // A fresh memo starts every switch over: `active` is the round.
        for &i in &switches.active {
            let st = &switches.states[i];
            if !st.seeds.is_empty() {
                let cur = |s: usize| assignment[s].map(|(_, r)| r);
                let updates =
                    redistribute_switch(instance, polls, &st.seeds, st, cur, &mut scratch);
                for (s, r) in updates {
                    assignment[s] = Some((switches.ids[i], r));
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

/// One greedy step run for real: where seed `s` goes given the switches
/// as they stand at this step. The home switch, whose reservation the
/// stay releases, is read whole through [`Memo::read`]; every other
/// candidate is scored by [`Memo::walk_row`] when the seed reads a
/// shared list's score row, by [`walk`] otherwise.
fn probe(instance: &PlacementInstance, memo: &mut Memo, s: usize) -> Outcome {
    let Some((min_res, _)) = memo.seeds.min_alloc(s) else {
        return Outcome::Fail;
    };
    let seed = &instance.seeds[s];
    let home = memo
        .seeds
        .seat(s)
        .filter(|&i| seed.candidates.contains(&memo.switches.ids[i]));
    // Staying home releases the lingering reservation first, so
    // feasibility there is checked against the released state. Home wins
    // unconditionally when feasible (its score is +inf), so probe it
    // first and skip scoring the other candidates entirely — selection
    // and all state mutations are exactly those of scanning the full
    // candidate list.
    if let Some(h) = home.filter(|&h| memo.switches.is_present(h)) {
        memo.read(instance, h);
        let st = memo.switches.state(h);
        let polls = memo.seeds.polls(instance, s);
        let feasible = match st.lingering(s) {
            Some(prev_res) => st.fits_after_release(polls, prev_res, &min_res),
            None => st.load().fits(polls, &min_res),
        };
        if feasible {
            return Outcome::Home(h);
        }
    }
    // Either walk hands over the same scores in the same order, to the
    // bit (see `Memo::walk_row`); the first highest wins.
    let mut best: Option<(usize, f64)> = None;
    let take = |i, score: Option<f64>| {
        if let Some(score) = score {
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
    };
    match memo.scans.row_of(s) {
        Some(g) => memo.walk_row(instance, s, g, &min_res, home, take),
        None => walk(instance, memo, s, &min_res, home, take),
    }
    best.map_or(Outcome::Fail, |(i, _)| Outcome::Placed(i))
}

/// Seed `s`'s candidates but `home` (probed already), in candidate
/// order, each readied through [`Memo::look`], scored and handed to
/// `take` with its slot.
fn walk(
    instance: &PlacementInstance,
    memo: &mut Memo,
    s: usize,
    min_res: &Resources,
    home: Option<usize>,
    mut take: impl FnMut(usize, Option<f64>),
) {
    let seed = &instance.seeds[s];
    for &n in &seed.candidates {
        // A candidate the instance does not offer (crashed or otherwise
        // excluded switch) cannot host the seed.
        let Some(i) = memo.switches.present_slot(n) else {
            continue;
        };
        if home == Some(i) {
            continue;
        }
        memo.look(instance, i);
        let polls = memo.seeds.polls(instance, s);
        take(
            i,
            greedy_score(&seed.util, polls, min_res, memo.switches.load(i)),
        );
    }
}

/// Step 2a: "choose such s that adds the most to the utility" — a
/// candidate that takes the seed's minimum allocation (else `None`) is
/// scored by the utility achievable there given its spare capacity,
/// discounted by the extra polling the placement would cost.
pub(crate) fn greedy_score(
    util: &UtilAnalysis,
    polls: SeedPolls,
    min_res: &Resources,
    st: Load,
) -> Option<f64> {
    if !st.fits(polls, min_res) {
        return None;
    }
    let poll_cap = st.ares.get(ResourceKind::PciePoll).max(1e-9);
    Some(
        achievable_utility(util, polls, min_res, st).unwrap_or(0.0)
            - st.poll_delta(polls, min_res) / poll_cap,
    )
}

/// The full Alg. 1 pipeline over the retained `memo` (a fresh one for a
/// from-scratch solve), with a report of what it replayed. The report's
/// `warm` and `fallback_full` are the caller's to fill in. Its phases
/// are the spans `greedy`, `lp_redistribution` and `migration` of
/// `spans`, whose durations `solver.phase_us` samples; the result's
/// `runtime` is read on the same clock.
pub(crate) fn solve_core(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    telemetry: Option<&Telemetry>,
    spans: &mut SpanLog,
    memo: &mut Memo,
) -> (PlacementResult, DeltaReport) {
    let start = spans.start();
    // Steps 1–2: lingering reservations, then greedy placement per task,
    // all-or-nothing, through the memo's worklist ([`Memo::greedy`]).
    let mut report = DeltaReport {
        runs_patched: memo.begin(instance, options),
        ..DeltaReport::default()
    };
    let dropped = memo.greedy(instance, probe);
    (
        report.switches_rebuilt,
        report.switches_read,
        report.probe_rows_read,
    ) = memo.end_greedy(instance);
    (
        report.steps_replayed,
        report.steps_executed,
        report.steps_visited,
        report.steps_cascaded,
    ) = memo.steps_run();
    let greedy = spans.end("greedy", start);
    if let Some(t) = telemetry {
        let tasks = instance.tasks.len() as u64;
        record_phase(t, "greedy", greedy.as_nanos() as u64, tasks);
    }

    // Step 3: LP redistribution per switch, then refresh the bookkeeping
    // so the migration pass sees the boosted allocations. The per-switch
    // LPs are independent (the decomposition's whole point): a switch's
    // LP reads and writes the allocations of its own residents only, so
    // each switch is finished — its LP output replayed or solved and
    // stored, then applied — before the next begins. A switch whose
    // greedy state was kept holds its residents' slots from last solve.
    if options.lp_redistribution {
        let lp_start = spans.start();
        let Memo {
            seeds,
            switches,
            post,
            ..
        } = &mut *memo;
        let polls = |s: usize| seeds.polls(instance, s);
        let mut scratch = LpScratch::new();
        for k in 0..switches.active.len() {
            let i = switches.active[k];
            let st = &switches.states[i];
            if st.seeds.is_empty() {
                switches.set_lp(i, false);
                continue;
            }
            if switches.replays_lp(i, seeds) {
                // Its residents hold the output from last solve.
                switches.moved[i] = false;
                continue;
            }
            for &s in &st.seeds {
                let s = s as usize;
                post.write(s, Some((i, seeds.min_res(s))));
            }
            let cur = |s: usize| post.res(s);
            let ups = redistribute_switch(instance, polls, &st.seeds, st, cur, &mut scratch);
            for (s, r) in ups {
                post.write(s, Some((i, r)));
            }
            switches.set_lp(i, true);
            report.frontier += 1;
        }
        report.lp_switches = switches.lp_count();
        report.reused = report.lp_switches - report.frontier;
        let lp = spans.end("lp_redistribution", lp_start);
        if let Some(t) = telemetry {
            let switches = report.lp_switches as u64;
            record_phase(t, "lp_redistribution", lp.as_nanos() as u64, switches);
        }
        // A switch whose greedy state and LP output are those of the last
        // solve already holds this refresh's result.
        for &i in &switches.active {
            switches.states[i].refresh(polls, |s| post.res(s));
        }
    }
    memo.switches.settle();

    // Steps 4–5: relocation by decreasing benefit. On re-optimization
    // this is migration (with double occupancy); on a fresh placement it
    // is a free improvement pass over the greedy choices. Benefits are
    // enumerated in seed order and sorted stably by decreasing benefit,
    // so ties keep enumeration order.
    let mut migrations = 0;
    let mut assignment = memo.post.assignment(&memo.switches.ids);
    let mut relocated = Vec::new();
    if options.migration {
        let migration_start = spans.start();
        let visit = memo.to_scan();
        let Memo {
            seeds,
            switches,
            scans,
            post,
            ..
        } = &mut *memo;
        let polls = |s: usize| seeds.polls(instance, s);
        (report.pairs_evaluated, report.pairs_read) = scan_benefits(
            instance,
            polls,
            |s| seeds.min_alloc(s),
            |s| post.get(s, &switches.ids),
            switches,
            scans,
            visit.as_deref(),
        );
        let mut benefits = scans.benefits.clone();
        benefits.sort_by(|a, b| benefit_cmp(scans.gain(a), scans.gain(b)));
        // Each relocated seed's utility at the seat it was relocated to.
        let mut relocated_u = FxHashMap::default();
        for Benefit { seed: s, pos, u } in benefits {
            let s = s as usize;
            let seed = &instance.seeds[s];
            let n = seed.candidates[pos as usize];
            let Some((cur, cur_res)) = assignment[s] else {
                continue;
            };
            if cur == n {
                continue;
            }
            let Some((min_res, _)) = seeds.min_alloc(s) else {
                continue;
            };
            let Some(to) = switches.present_slot(n) else {
                continue;
            };
            let cur_u = match relocated_u.get(&s) {
                Some(&u) => u,
                None => scans.utility(seed, s, post.res(s), &cur_res).unwrap_or(0.0),
            };
            // A target no earlier commit of this pass touched holds the
            // state step 4 read there: the allocation below is the one
            // step 4 made, it fits, and it reaches the recorded `u`.
            if switches.is_settled(to) && u <= hysteresis(cur_u) {
                continue;
            }
            let target = &switches.states[to];
            let res = opportunistic_alloc(polls(s), target.load(), &min_res);
            if !target.load().fits(polls(s), &res) {
                continue;
            }
            // Commit only when the *realized* allocation clears the same
            // hysteresis the estimate did — a migration must strictly pay
            // for its state transfer and double occupancy.
            let new_u = seed.util.eval(&res).unwrap_or(0.0);
            if new_u <= hysteresis(cur_u) {
                continue;
            }
            let Some(from) = switches.present_slot(cur) else {
                continue;
            };
            // Double occupancy must fit at the source too: migrating away
            // swaps the live allocation for the *previous* reservation,
            // which can be larger when the LP shrank the seed this round
            // (its released headroom went to co-residents). Re-seating
            // the old reservation would then oversubscribe the source —
            // skip the move instead (C4 over a cheaper migration).
            let previous = seeds
                .seat(s)
                .filter(|&i| switches.ids[i] == cur)
                .map(|_| seeds.seat_res(s));
            if let Some(pres) = &previous {
                if !switches.states[from].fits_after_release(polls(s), &cur_res, pres) {
                    continue;
                }
            }
            // Commit: occupy the target; on the source, swap the live
            // allocation for the lingering reservation (the *previous*
            // allocation stays until state transfer completes).
            switches.states[to].place(s, polls(s), &res);
            let src = &mut switches.states[from];
            src.unplace(s, polls(s), &cur_res);
            if let Some(pres) = previous {
                src.reserve(s, polls(s), pres);
            }
            switches.unsettle(to);
            switches.unsettle(from);
            assignment[s] = Some((n, res));
            relocated.push(s as u32);
            relocated_u.insert(s, new_u);
            if instance.previous.is_some() {
                migrations += 1;
            }
        }
        report.relocated = relocated.len();
        let migration = spans.end("migration", migration_start);
        if let Some(t) = telemetry {
            record_phase(
                t,
                "migration",
                migration.as_nanos() as u64,
                migrations as u64,
            );
        }
    }

    // The objective, as `utility_of` sums it, from step 4's records; and
    // the seeds placed away from their previous seat.
    let (utility, off_seat) = memo.tally(instance, &assignment, relocated);
    let result = PlacementResult {
        utility,
        migrations: migrations.max(off_seat),
        runtime: spans.start().saturating_duration_since(start),
        dropped_tasks: dropped,
        assignment,
    };
    (result, report)
}

/// Alg. 1 step 4: every placed seed's achievable utility at each
/// alternative candidate where it clears the [`hysteresis`], enumerated
/// in seed order, then candidate order, into [`Scans::benefits`].
/// Returns the evaluations made and the pairs read from a shared list's
/// row.
///
/// [`achievable_utility`] is pure in the seed's definition and the
/// candidate's state, and the hysteresis reads the seed's current
/// allocation. So a pair whose seed has the products and the
/// post-step-3 seat (switch and allocation bits) it was scanned at last
/// solve, on a switch whose state is the one that scan read, pushes
/// what it pushed then: it is copied ([`Scans::scan`]). Only the pairs
/// of a seed that is new, dirty or moved, and those of a candidate whose
/// state may have changed (built with its LP run rather than replayed,
/// or joined) or that left, are evaluated, and only seeds in `visit`
/// (whose seat may have changed) or with such a pair are walked at all.
/// Seeds of one definition over one candidate list share the
/// evaluations: the first that needs a position fills the list's row
/// there, and the rest read it. The pushed list is the per-candidate
/// scan's, bit for bit.
fn scan_benefits<'p>(
    instance: &PlacementInstance,
    polls: impl Fn(usize) -> SeedPolls<'p>,
    min_alloc: impl Fn(usize) -> Option<(Resources, f64)>,
    assignment: impl Fn(usize) -> Slot,
    switches: &Switches,
    scans: &mut Scans,
    visit: Option<&[(u32, Slot)]>,
) -> (usize, usize) {
    scans.prepare(instance, switches);
    let utility = |s: usize, min_res: &Resources, i: usize| {
        let util = &instance.seeds[s].util;
        achievable_utility(util, polls(s), min_res, switches.states[i].load())
    };
    scans.scan(instance, assignment, switches, visit, min_alloc, utility)
}

/// Utility the seed could reach on a switch given its spare capacity
/// (the "migration benefit" of Alg. 1 step 4, approximated by one
/// opportunistic allocation instead of a full LP).
pub(crate) fn achievable_utility(
    util: &UtilAnalysis,
    polls: SeedPolls,
    min_res: &Resources,
    st: Load,
) -> Option<f64> {
    if !st.fits(polls, min_res) {
        return None;
    }
    let res = opportunistic_alloc(polls, st, min_res);
    util.eval(&res)
}

/// Minimum allocation plus half the switch's spare capacity (capped so the
/// result still fits; the head-room is left for later seeds).
fn opportunistic_alloc(polls: SeedPolls, st: Load, min_res: &Resources) -> Resources {
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

/// Step 3: re-solve one switch's resource split as an LP — maximize the
/// sum of (linearized, concave) seed utilities subject to the switch's
/// capacities and aggregated polling — and return the accepted per-seed
/// reallocations. Pure with respect to the shared solve state (reads each
/// resident's current allocation through `cur`, never writes — the
/// scratch is an arena, not an input),
/// which is what lets a switch whose ops leave it as they did last solve
/// replay its last output.
fn redistribute_switch<'p>(
    instance: &PlacementInstance,
    polls: impl Fn(usize) -> SeedPolls<'p>,
    seeds_here: &[u32],
    st: &SwitchState,
    cur: impl Fn(usize) -> Option<Resources>,
    scratch: &mut LpScratch,
) -> Vec<(usize, Resources)> {
    if seeds_here.len() > LP_SEEDS_PER_SWITCH_CAP {
        return Vec::new();
    }
    // Capacity net of lingering reservations, reduced in ascending seed
    // order (bit-reproducible float accumulation).
    let mut cap = st.ares;
    for (_, res) in &st.lingering {
        for k in ResourceKind::ALL {
            if k != ResourceKind::PciePoll {
                cap.0[k.index()] = (cap.get(k) - res.get(k)).max(0.0);
            }
        }
    }
    let lingering_poll: f64 = st
        .lingering
        .iter()
        .map(|(s, res)| {
            polls(*s)
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
        let s = s as usize;
        let seed = &instance.seeds[s];
        let vars = ResourceKind::ALL.map(|k| p.add_var_unnamed(0.0, cap.get(k)));
        let u = p.add_var_unnamed(0.0, 1e9);
        objective += LinExpr::from(u);
        let cur = cur(s).unwrap_or_default();
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
            .flat_map(|&s| polls(s as usize).ids.iter().copied()),
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
        for (subj, demand) in polls(s as usize).iter() {
            let pv = poll_vars[slot(&subj)];
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
    let mut updates = Vec::with_capacity(seeds_here.len());
    for (&s, lp) in seeds_here.iter().zip(seeds.iter()) {
        if let Some(lp) = lp {
            let mut r = Resources::ZERO;
            for k in ResourceKind::ALL {
                r.set(k, sol.value(lp.vars[k.index()]).max(0.0));
            }
            if instance.seeds[s as usize].util.eval(&r).is_some() {
                updates.push((s as usize, r));
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
            switches: switches.into(),
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
                switches: vec![(SwitchId(0), Resources::new(4.0, 16384.0, 512.0, 62500.0))].into(),
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

    /// Step 5 reads the utility step 4 recorded only at a target no
    /// earlier commit touched. Here Q leaves T for Z first, which frees
    /// T; S then moves from X to Y, and its benefit at T — recorded with
    /// Q still on T, short of the hysteresis from its utility at Y —
    /// clears it at the freed T, so S moves again. (The greedy puts Q on
    /// T and S on X because a subject already polled there costs no
    /// polling; LP redistribution is off, so every seed holds its
    /// minimum allocation after step 3.)
    #[test]
    fn a_target_an_earlier_commit_freed_is_evaluated_again() {
        let (t, x, y, z) = (SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3));
        let switch = |n, vcpu| (n, Resources::new(vcpu, 8192.0, 64.0, 12.0));
        let seed = |id, candidates: Vec<SwitchId>, subject: &str| PlacementSeed {
            id,
            task: id,
            candidates,
            util: linear_util(1.0, 100.0),
            polls: vec![crate::model::PollDemand {
                subject: subject.to_string(),
                demand: Poly::constant(5.0),
            }],
        };
        // P and R pin the subjects Q and S poll to T and X.
        let seeds = vec![
            seed(0, vec![t], "x"),
            seed(1, vec![x], "s"),
            seed(2, vec![t, z], "x"),
            seed(3, vec![x, y, t], "s"),
        ];
        let inst = PlacementInstance {
            switches: vec![
                switch(t, 4.8),
                switch(x, 3.4),
                switch(y, 3.0),
                switch(z, 4.0),
            ]
            .into(),
            tasks: (0..4)
                .map(|i| PlacementTask {
                    name: format!("t{i}"),
                    seeds: vec![i],
                })
                .collect(),
            seeds,
            previous: None,
        };
        let options = HeuristicOptions {
            lp_redistribution: false,
            migration: true,
        };
        let r = solve_heuristic(&inst, options);
        let at = |s: usize| r.assignment[s].map(|(n, _)| n);
        assert_eq!(
            [at(0), at(1), at(2), at(3)],
            [Some(t), Some(x), Some(z), Some(t)]
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
        #[allow(clippy::disallowed_methods)] // a test's time bound
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
        // Seed i polls its task's one subject: task 0 is id 0, task 1 id 1.
        let ids: Vec<[u32; 1]> = inst.seeds.iter().map(|s| [s.task as u32]).collect();
        let polls = |i: usize| SeedPolls::new(&ids[i], &inst.seeds[i].polls);
        let mut st = SwitchState::new(Resources::new(64.0, 1e6, 1e3, 1e5));
        let allocs: Vec<Resources> = (0..inst.seeds.len())
            .map(|i| Resources::new(1.0, 10.0, 0.0, 10.0 * (i as f64 + 1.0)))
            .collect();
        for (i, r) in allocs.iter().enumerate() {
            st.add_usage(polls(i), r);
        }
        // Remove the largest-demand seeds first so the cached max must be
        // rebuilt, then a middle one, then re-add.
        for &i in &[11usize, 10, 5] {
            st.remove_usage(polls(i), &allocs[i]);
        }
        st.add_usage(polls(5), &allocs[5]);
        let max_of = |i: usize| st.entries[st.span(i)].iter().copied().fold(0.0, f64::max);
        let refold: f64 = (0..st.poll.len()).map(max_of).sum();
        assert!(
            (st.poll_total - refold).abs() < 1e-9,
            "cached {} vs refold {refold}",
            st.poll_total
        );
        assert!(st.poll.windows(2).all(|w| w[0].subject < w[1].subject));
        assert_eq!(st.entries.len(), 10, "two seeds out, one back in");
        for (i, cell) in st.poll.iter().enumerate() {
            assert!((cell.max - max_of(i)).abs() < 1e-12);
        }
    }

    mod scan_property {
        use super::*;
        use crate::delta::{Definition, Remap};
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        /// A pushed benefit with its bits: (benefit, seed, candidate).
        type Pushed = (u64, usize, SwitchId);

        /// Step 4 with no memory: one `achievable_utility` per (seed,
        /// candidate), every scan. The oracle of the properties below.
        fn plain_scan(world: &World, states: &Switches) -> Vec<Pushed> {
            let mut benefits = Vec::new();
            for (s, slot) in world.assignment.iter().enumerate() {
                let (Some((cur, cur_res)), Some((min_res, _))) = (slot, world.min_alloc(s)) else {
                    continue;
                };
                let seed = &world.instance.seeds[s];
                let cur_u = seed.util.eval(cur_res).unwrap_or(0.0);
                for &n in &seed.candidates {
                    if n == *cur {
                        continue;
                    }
                    let Some(i) = states.present_slot(n) else {
                        continue;
                    };
                    let st = &states.states[i];
                    let u = achievable_utility(&seed.util, world.polls(s), &min_res, st.load());
                    if let Some(u) = u {
                        if u > cur_u * 1.15 + 1e-6 {
                            benefits.push(((u - cur_u).to_bits(), s, n));
                        }
                    }
                }
            }
            benefits
        }

        /// [`scan_benefits`] through `scans`, in the oracle's terms, with
        /// every seed's seat at the last scan; the seats become the last.
        /// Every seed is indexed first, as a warm solve indexes its new
        /// ones, and the rows hold their recomputation after the scan.
        /// Also returns the positions read from a row.
        fn scan(
            world: &mut World,
            switches: &mut Switches,
            scans: &mut Scans,
        ) -> (Vec<Pushed>, usize) {
            let instance = &world.instance;
            let n = instance.seeds.len() as u32;
            let fresh: Vec<u32> = (0..n).filter(|&s| !world.kept[s as usize]).collect();
            let every: Vec<u32> = (0..n).collect();
            scans.begin(instance.seeds.len(), &fresh);
            scans.index(&every, instance, switches, |s| world.definition(s));
            let visit: Vec<(u32, Slot)> =
                every.iter().map(|&s| (s, world.last[s as usize])).collect();
            let polls = |s: usize| world.polls(s);
            let min_alloc = |s: usize| world.min_alloc(s);
            let (_, read) = scan_benefits(
                instance,
                polls,
                min_alloc,
                |s| world.assignment[s],
                switches,
                scans,
                Some(&visit),
            );
            assert_eq!(scans.check_rows(switches, |s| world.definition(s)), Ok(()));
            let pushed = |b: &Benefit| {
                let s = b.seed as usize;
                let n = instance.seeds[s].candidates[b.pos as usize];
                (scans.gain(b).to_bits(), s, n)
            };
            let pushed = scans.benefits.iter().map(pushed).collect();
            world.last.clone_from(&world.assignment);
            (pushed, read)
        }

        /// Generated seeds, where they sit, and which of them kept their
        /// definition since the last scan.
        #[derive(Default)]
        struct World {
            instance: PlacementInstance,
            /// Each seed's interned subjects.
            ids: Vec<Vec<u32>>,
            assignment: Vec<Option<(SwitchId, Resources)>>,
            /// Where each seed sat at the last scan.
            last: Vec<Slot>,
            kept: Vec<bool>,
        }

        impl World {
            fn polls(&self, s: usize) -> SeedPolls<'_> {
                SeedPolls::new(&self.ids[s], &self.instance.seeds[s].polls)
            }

            fn min_alloc(&self, s: usize) -> Option<(Resources, f64)> {
                self.instance.seeds[s].util.min_feasible()
            }

            fn definition(&self, s: usize) -> Definition<'_> {
                let seed = &self.instance.seeds[s];
                Definition {
                    ids: &self.ids[s],
                    polls: &seed.polls,
                    min: self.min_alloc(s),
                    util: &seed.util,
                }
            }

            /// Adds a seed from its recipe, on a fabric of `m` switch ids.
            fn push(&mut self, recipe: &SeedRecipe, m: usize) {
                let (picks, subject, demand, min_vcpu, home, vcpu) = recipe;
                let id = |pick: usize| SwitchId((pick % m) as u32);
                let (subjects, polls) = constant_poll(*subject, *demand);
                self.instance.seeds.push(PlacementSeed {
                    id: self.ids.len(),
                    task: 0,
                    candidates: picks.iter().map(|&p| id(p)).collect(),
                    util: linear_util(*min_vcpu, 100.0),
                    polls,
                });
                self.ids.push(subjects);
                let seat = |h: &usize| (id(*h), Resources::new(*vcpu, 0.0, 0.0, 0.0));
                self.assignment.push(home.as_ref().map(seat));
                self.last.push(None);
                self.kept.push(false);
            }

            /// Renumbers the seeds as a catalog rebuild might: rotated by
            /// `k`, reversed when `k` is odd, one dropped when `k` is a
            /// multiple of three. Returns `map[old] = Some(new)`.
            fn renumber(&mut self, k: usize) -> Vec<Option<usize>> {
                let n = self.ids.len();
                let mut order: Vec<usize> = (0..n).collect();
                order.rotate_left(k % n);
                if k % 2 == 1 {
                    order.reverse();
                }
                if k.is_multiple_of(3) && n > 1 {
                    order.remove(k / 2 % n);
                }
                let mut map = vec![None; n];
                for (new, &old) in order.iter().enumerate() {
                    map[old] = Some(new);
                }
                fn take<T: Clone>(v: &[T], order: &[usize]) -> Vec<T> {
                    order.iter().map(|&o| v[o].clone()).collect()
                }
                self.instance.seeds = take(&self.instance.seeds, &order);
                self.ids = take(&self.ids, &order);
                self.assignment = take(&self.assignment, &order);
                self.last = take(&self.last, &order);
                self.kept = take(&self.kept, &order);
                map
            }
        }

        /// A generated switch's state: capacity and load picks.
        fn switch_state(cap: usize, load: usize) -> SwitchState {
            let mut st = SwitchState::new(Resources(CAPACITIES[cap]));
            for &(subject, demand, vcpu) in LOADS[load] {
                let (ids, demands) = constant_poll(subject, demand);
                st.add_usage(
                    SeedPolls::new(&ids, &demands),
                    &Resources::new(vcpu, 0.0, 0.0, 0.0),
                );
            }
            st
        }

        /// A capacity pick: the first capacity half of the time.
        fn capacity() -> impl Strategy<Value = usize> {
            prop_oneof![Just(0usize), 0usize..CAPACITIES.len()]
        }

        /// A generated fabric, one entry per switch id: capacity and load
        /// picks, whether it is in the round, and whether its state
        /// changed since the last round.
        type Fabric = Vec<(usize, usize, bool, bool)>;

        /// The round a fabric describes.
        fn round(fabric: &Fabric) -> Vec<(SwitchId, SwitchState, bool)> {
            let present = fabric.iter().enumerate().filter(|(_, f)| f.2);
            let state = |(n, &(cap, load, _, changed))| {
                (SwitchId(n as u32), switch_state(cap, load), changed)
            };
            present.map(state).collect()
        }

        /// A vCPU amount: one of two round values half of the time, so
        /// that seeds share seats to the bit.
        fn vcpu() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.5), Just(1.0), 0.0f64..2.0]
        }

        /// A poll demand: one of two round values half of the time, so
        /// that a redefined seed can take another seed's definition.
        fn demand() -> impl Strategy<Value = f64> {
            prop_oneof![Just(30.0), Just(90.0), 0.0f64..120.0]
        }

        /// The candidate picks of every seed that shares the one common
        /// list.
        const COMMON: [usize; 6] = [0, 1, 2, 3, 5, 8];

        /// The two definitions — subject, demand, minimum vCPU — that
        /// seeds of the common list mostly have: they part in the demand
        /// alone, and a redefinition (`vcpu` 0.5, `demand`) reaches both.
        const DEFINITIONS: [(u32, f64, f64); 2] = [(0, 30.0, 0.375), (0, 90.0, 0.375)];

        /// A change between two scans: what kind (see
        /// [`an_incremental_rescan_matches_the_plain_scan`]), which seed or
        /// switch, a capacity and a load pick, a demand, and a vCPU amount.
        type Change = (usize, usize, usize, usize, f64, f64);

        fn change() -> impl Strategy<Value = Change> {
            (
                0usize..8,
                any::<usize>(),
                capacity(),
                0usize..LOADS.len(),
                demand(),
                vcpu(),
            )
        }

        /// Applies one change to the world, the fabric of `m` switch ids
        /// and, for a renumbering, the records.
        fn apply(world: &mut World, fabric: &mut Fabric, scans: &mut Scans, change: Change) {
            let (kind, k, cap, load, demand, vcpu) = change;
            let m = fabric.len();
            let id = |pick: usize| SwitchId((pick % m) as u32);
            let s = k % world.ids.len();
            match kind {
                0 => fabric[k % m] = (cap, load, fabric[k % m].2, true),
                1 => fabric[k % m].2 ^= true,
                2 => {
                    let seat = (id(k / 7), Resources::new(vcpu, 0.0, 0.0, 0.0));
                    world.assignment[s] = (k % 5 != 0).then_some(seat);
                }
                3 => {
                    if let Some((_, res)) = &mut world.assignment[s] {
                        res.set(ResourceKind::VCpu, vcpu);
                    }
                }
                4 => {
                    let seed = &mut world.instance.seeds[s];
                    seed.util = linear_util(vcpu * 0.75, 100.0);
                    if let Some(p) = seed.polls.first_mut() {
                        p.demand = Poly::constant(demand);
                    }
                    world.kept[s] = false;
                }
                5 => {
                    let picks = if k.is_multiple_of(2) {
                        COMMON.to_vec()
                    } else {
                        vec![k, k / 3, k / 11]
                    };
                    let recipe = (
                        picks,
                        (k % 3) as u32,
                        demand,
                        vcpu * 0.75,
                        Some(k / 13),
                        vcpu,
                    );
                    world.push(&recipe, m);
                }
                6 => {
                    let candidates = &mut world.instance.seeds[s].candidates;
                    let n = id(k / 5);
                    if !candidates.contains(&n) {
                        candidates.push(n);
                    } else if candidates.len() > 1 {
                        candidates.retain(|&c| c != n);
                    }
                    world.kept[s] = false;
                }
                _ => {
                    let map = world.renumber(k);
                    scans.remap(&Remap::new(&map, scans.seeds()));
                }
            }
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

        /// A seed's interned subject ids and demands.
        fn constant_poll(subject: u32, polls_per_s: f64) -> (Vec<u32>, Vec<PollDemand>) {
            if subject < 2 {
                let demand = PollDemand {
                    subject: format!("s{subject}"),
                    demand: Poly::constant(polls_per_s),
                };
                (vec![subject], vec![demand])
            } else {
                (Vec::new(), Vec::new())
            }
        }

        /// One seed: candidate picks, poll subject with its constant
        /// demand, minimum vCPU, and where it sits now (`None` =
        /// unplaced) with how much vCPU.
        type SeedRecipe = (Vec<usize>, u32, f64, f64, Option<usize>, f64);

        /// Half of the seeds share the common list, and those mostly have
        /// one of the two [`DEFINITIONS`].
        fn seed_recipe() -> impl Strategy<Value = SeedRecipe> {
            let own = (
                proptest::collection::vec(0usize..64, 2..10),
                0u32..3,
                0.0f64..120.0,
                0.0f64..1.5,
            );
            let definition = prop_oneof![
                Just(DEFINITIONS[0]),
                Just(DEFINITIONS[1]),
                (0u32..3, demand(), 0.0f64..1.5),
            ];
            let common = (Just(COMMON.to_vec()), definition)
                .prop_map(|(picks, (subject, demand, min))| (picks, subject, demand, min));
            (
                prop_oneof![own, common],
                prop_oneof![Just(None), (0usize..64).prop_map(Some)],
                vcpu(),
            )
                .prop_map(|((picks, subject, demand, min), home, vcpu)| {
                    (picks, subject, demand, min, home, vcpu)
                })
        }

        /// A seed given a candidate more is declared dirty and scanned
        /// whole; on the scan after, its new candidate's pair must be in
        /// the index, or a change to that switch goes unseen.
        #[test]
        fn a_redefined_seed_is_indexed_again() {
            // Switch 0 hosts the seed; switch 1 starts empty, then fills.
            let mut fabric: Fabric = vec![(0, 0, true, true), (0, 0, true, true)];
            let mut world = World::default();
            world.push(&(vec![0], 0, 10.0, 0.5, Some(0), 1.0), 2);
            let (mut switches, mut scans) = (Switches::default(), Scans::default());
            let mut rescan = |world: &mut World, fabric: &mut Fabric| {
                switches.round(round(fabric));
                let (pushed, _) = scan(&mut *world, &mut switches, &mut scans);
                assert_eq!(pushed, plain_scan(world, &switches));
                world.kept.fill(true);
                for f in fabric.iter_mut() {
                    f.3 = false;
                }
                pushed
            };
            // The second scan indexes the seed's one candidate.
            for _ in 0..2 {
                assert!(rescan(&mut world, &mut fabric).is_empty());
            }
            world.instance.seeds[0].candidates.push(SwitchId(1));
            world.kept[0] = false;
            assert_eq!(rescan(&mut world, &mut fabric).len(), 1);
            fabric[1] = (CAPACITIES.len() - 1, 0, true, true);
            assert!(rescan(&mut world, &mut fabric).is_empty());
        }

        /// Seeds of one definition over one list evaluate each position
        /// once between them, and a seed of another definition over the
        /// same list evaluates its own; a switch that moves is evaluated
        /// again, once, and one that did not is read from the row.
        #[test]
        fn one_definition_evaluates_a_position_once() {
            let mut fabric: Fabric = vec![(0, 0, true, true); 4];
            let mut world = World::default();
            let [(subject, a, min), (_, b, _)] = DEFINITIONS;
            // Seeds 0 and 1 share a definition, seed 2 has the other; all
            // sit on switch 0 and look at switches 1 to 3.
            for demand in [a, a, b] {
                world.push(&(vec![0, 1, 2, 3], subject, demand, min, Some(0), 0.5), 4);
            }
            let (mut switches, mut scans) = (Switches::default(), Scans::default());
            switches.round(round(&fabric));
            let (pushed, read) = scan(&mut world, &mut switches, &mut scans);
            assert_eq!(pushed, plain_scan(&world, &switches));
            // Seed 1 reads seed 0's three evaluations; seed 2 makes its own.
            assert_eq!(read, 3);
            world.kept.fill(true);
            fabric.iter_mut().for_each(|f| f.3 = false);
            fabric[2] = (0, 3, true, true);
            world.assignment[1] = Some((SwitchId(3), Resources::new(0.5, 0.0, 0.0, 0.0)));
            switches.round(round(&fabric));
            let (pushed, read) = scan(&mut world, &mut switches, &mut scans);
            assert_eq!(pushed, plain_scan(&world, &switches));
            // Seed 0 evaluates switch 2 again. Seed 1, moved to switch 3,
            // evaluates switch 0, which no member needed before, and reads
            // switches 1 and 2. Seed 2 evaluates switch 2 on its own.
            assert_eq!(read, 2);
        }

        proptest! {
            /// A scan with no records pushes exactly what the
            /// per-candidate scan pushes: same length, same order, same
            /// bits — over switches that repeat each other's state, differ
            /// from it in one sign bit, or carry a subject at max `0.0`.
            #[test]
            fn a_cold_scan_matches_the_plain_scan(
                switches in proptest::collection::vec((capacity(), 0usize..LOADS.len()), 2..14),
                seeds in proptest::collection::vec(seed_recipe(), 1..8),
            ) {
                let fabric: Fabric =
                    switches.iter().map(|&(cap, load)| (cap, load, true, true)).collect();
                let mut states = Switches::default();
                states.round(round(&fabric));
                let mut world = World::default();
                for recipe in &seeds {
                    world.push(recipe, switches.len());
                }
                let (pushed, _) = scan(&mut world, &mut states, &mut Scans::default());
                prop_assert_eq!(pushed, plain_scan(&world, &states));
            }
        }

        /// Scan, change things, rescan through the same records, three
        /// times: each rescan pushes exactly what the per-candidate scan
        /// pushes, and the rows hold their recomputation. Before a rescan
        /// a switch's state changes (0), a switch leaves or joins (1), a
        /// seed moves or is unplaced (2), is reallocated on its switch
        /// (3), is redefined (4) or given a candidate more or one fewer
        /// (6) and declared dirty, or is new (5), or the seeds are
        /// renumbered and the records remapped (7). Candidates may name
        /// switches not in a round, seeds often share a seat to the bit,
        /// and half of them share one candidate list under two
        /// definitions, which a redefinition moves them between. Across
        /// the cases some rescan reads a row entry an earlier scan
        /// filled, and some switch leaves and rejoins under a row.
        #[test]
        fn an_incremental_rescan_matches_the_plain_scan() {
            let (mut rows_read, mut rejoined) = (0, 0);
            let site = proptest::test_site!("an_incremental_rescan_matches_the_plain_scan");
            TestRunner::new(ProptestConfig::default(), site).run_cases(|rng| {
                let universe = proptest::collection::vec(
                    (capacity(), 0usize..LOADS.len(), any::<bool>()),
                    2..14,
                )
                .generate(rng);
                let seeds = proptest::collection::vec(seed_recipe(), 1..8).generate(rng);
                let rounds =
                    proptest::collection::vec(proptest::collection::vec(change(), 0..6), 3usize)
                        .generate(rng);
                rng.note_inputs(&(&universe, &seeds, &rounds));
                let mut fabric: Fabric = (universe.iter())
                    .map(|&(cap, load, present)| (cap, load, present, true))
                    .collect();
                let mut world = World::default();
                for recipe in &seeds {
                    world.push(recipe, fabric.len());
                }
                let (mut switches, mut scans) = (Switches::default(), Scans::default());
                switches.round(round(&fabric));
                let (cold, _) = scan(&mut world, &mut switches, &mut scans);
                assert_eq!(cold, plain_scan(&world, &switches), "cold scan");
                let mut left = vec![false; fabric.len()];
                for (r, changes) in rounds.iter().enumerate() {
                    world.kept.fill(true);
                    for f in &mut fabric {
                        f.3 = false;
                    }
                    for &change in changes {
                        apply(&mut world, &mut fabric, &mut scans, change);
                    }
                    for (f, left) in fabric.iter().zip(&mut left) {
                        rejoined += usize::from(*left && f.2);
                        *left = !f.2;
                    }
                    switches.round(round(&fabric));
                    let (warm, read) = scan(&mut world, &mut switches, &mut scans);
                    rows_read += read;
                    assert_eq!(warm, plain_scan(&world, &switches), "rescan {}", r + 1);
                }
            });
            assert!(rows_read > 0, "no rescan read a row");
            assert!(rejoined > 0, "no switch rejoined");
        }
    }

    mod probe_property {
        //! A probe through a shared list's score row against the walk
        //! over every candidate ([`walk`]), step by step inside warm
        //! solves.
        use super::*;
        use crate::delta::{replan_delta, ReplanDelta, SolveState};
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        use std::cell::RefCell;

        /// What one property run met.
        #[derive(Debug, Default)]
        struct Reach {
            /// Row walks compared with the walk over every candidate.
            compared: usize,
            /// Their candidates read where the log ends, past its end
            /// (the log runs past the step), and on a diverged switch.
            log_end: usize,
            past_end: usize,
            diverged: usize,
            /// Row entries read that an earlier solve took.
            rows_read: usize,
            /// Changes applied: capacity rewrites, leaves and joins.
            rewrites: usize,
            leaves: usize,
            joins: usize,
        }

        thread_local! {
            static REACH: RefCell<Reach> = RefCell::new(Reach::default());
        }

        /// The greedy's probe, with every executed step of an indexed
        /// list member first walked both ways: through the row and over
        /// every candidate. The two must hand over the same switches with
        /// the same scores, in the same order, to the bit.
        fn checked(instance: &PlacementInstance, memo: &mut Memo, s: usize) -> Outcome {
            if let (Some(g), Some((min_res, _))) = (memo.scans.row_of(s), memo.seeds.min_alloc(s)) {
                let seed = &instance.seeds[s];
                let home = (memo.seeds.seat(s))
                    .filter(|&i| seed.candidates.contains(&memo.switches.ids[i]));
                REACH.with_borrow_mut(|r| {
                    r.compared += 1;
                    let slots = memo.scans.slots(g).iter().map(|&i| i as usize);
                    for i in slots.filter(|&i| memo.switches.is_present(i)) {
                        match memo.reads_log_end(i) {
                            Some(true) => r.log_end += 1,
                            Some(false) => r.past_end += 1,
                            None => r.diverged += 1,
                        }
                    }
                });
                let (mut row, mut each) = (Vec::new(), Vec::new());
                let bits = |u: Option<f64>| u.map(f64::to_bits);
                memo.walk_row(instance, s, g, &min_res, home, |i, u| {
                    row.push((i, bits(u)))
                });
                walk(instance, memo, s, &min_res, home, |i, u| {
                    each.push((i, bits(u)))
                });
                assert_eq!(
                    row, each,
                    "seed {s}: the row walk's scores, then every candidate's"
                );
            }
            probe(instance, memo, s)
        }

        /// Switch capacities a generated switch draws from: vCPU, RAM,
        /// TCAM, polls/s.
        const CAPACITIES: [[f64; 4]; 4] = [
            [4.0, 8192.0, 64.0, 125.0],
            [2.0, 8192.0, 64.0, 60.0],
            [1.0, 8192.0, 64.0, 125.0],
            [3.0, 8192.0, 64.0, 40.0],
        ];

        /// The two definitions of the generated seeds, `(min vCPU, cap,
        /// poll demand per unit of PCIe, constant demand)`, over one poll
        /// subject.
        const DEFINITIONS: [(f64, f64, f64, f64); 2] =
            [(0.5, 2.0, 0.5, 10.0), (1.0, 3.0, 0.0, 40.0)];

        fn seed(id: usize, task: usize, candidates: Vec<SwitchId>, def: usize) -> PlacementSeed {
            let (min, cap, per_pcie, constant) = DEFINITIONS[def % 2];
            PlacementSeed {
                id,
                task,
                candidates,
                util: linear_util(min, cap),
                polls: vec![crate::model::PollDemand {
                    subject: "load".into(),
                    demand: Poly {
                        coeffs: [0.0, 0.0, 0.0, per_pcie],
                        constant,
                    },
                }],
            }
        }

        /// Appends a task of one seed over `candidates`.
        fn push_task(inst: &mut PlacementInstance, candidates: Vec<SwitchId>, def: usize) {
            let (s, t) = (inst.seeds.len(), inst.tasks.len());
            inst.seeds.push(seed(s, t, candidates, def));
            inst.tasks.push(PlacementTask {
                name: format!("t{t}"),
                seeds: vec![s],
            });
        }

        /// A fabric of `caps.len()` switches, a pinned task of one seed
        /// per switch when `pinned`, and one watcher over every switch per
        /// entry of `watchers`, of that definition.
        fn instance(caps: &[usize], pinned: bool, watchers: &[usize]) -> PlacementInstance {
            let mut inst = PlacementInstance::default();
            for (n, &c) in caps.iter().enumerate() {
                inst.switches
                    .push((SwitchId(n as u32), Resources(CAPACITIES[c])));
            }
            let every: Vec<SwitchId> = inst.switches.iter().map(|&(n, _)| n).collect();
            if pinned {
                let seeds = (0..every.len()).map(|k| seed(k, 0, vec![every[k]], k));
                inst.seeds.extend(seeds);
                inst.tasks.push(PlacementTask {
                    name: "pinned".into(),
                    seeds: (0..every.len()).collect(),
                });
            }
            for &def in watchers {
                push_task(&mut inst, every.clone(), def);
            }
            inst
        }

        /// A change between two solves: its kind and two picks. A
        /// switch's capacity is rewritten (0), a switch leaves (1) or a
        /// switch that left joins again (2), a seed loses its seat (3), a
        /// watcher is added (4), or a seed is redefined (5, declared
        /// dirty) — while the options change too (6), so that the solve
        /// is a full one, which leaves the seed in its list unindexed.
        type Change = (usize, usize, usize);

        /// Applies `change`; returns the seeds to declare dirty.
        fn apply(
            inst: &mut PlacementInstance,
            all: &[(SwitchId, Resources)],
            change: Change,
            reach: &mut Reach,
        ) -> Vec<usize> {
            let (kind, a, b) = change;
            let m = inst.switches.len();
            match kind {
                0 => {
                    inst.switches[a % m].1 = Resources(CAPACITIES[b % CAPACITIES.len()]);
                    reach.rewrites += 1;
                }
                1 if m > 1 => {
                    inst.switches.remove(a % m);
                    reach.leaves += 1;
                }
                2 => {
                    let gone: Vec<_> = (all.iter())
                        .filter(|(n, _)| inst.switches.iter().all(|(m, _)| m != n))
                        .collect();
                    if let Some(&&(n, ares)) = gone.get(a % gone.len().max(1)) {
                        let at = inst.switches.partition_point(|(m, _)| *m < n);
                        inst.switches.insert(at, (n, ares));
                        reach.joins += 1;
                    }
                }
                3 => {
                    if let Some(prev) = &mut inst.previous {
                        prev.assignment.remove(&(a % inst.seeds.len()));
                    }
                }
                4 => {
                    let every = all.iter().map(|&(n, _)| n).collect();
                    push_task(inst, every, b);
                }
                5 => {
                    let s = a % inst.seeds.len();
                    let redefined =
                        seed(s, inst.seeds[s].task, inst.seeds[s].candidates.clone(), b);
                    inst.seeds[s] = redefined;
                    return vec![s];
                }
                6 => {
                    // A watcher, to the definition it does not have.
                    let watchers: Vec<usize> = (0..inst.seeds.len())
                        .filter(|&s| inst.seeds[s].candidates.len() > 1)
                        .collect();
                    let s = watchers[a % watchers.len()];
                    let had = inst.seeds[s].polls[0].demand.constant == DEFINITIONS[1].3;
                    let (task, candidates) = (inst.seeds[s].task, inst.seeds[s].candidates.clone());
                    inst.seeds[s] = seed(s, task, candidates, usize::from(!had));
                    return vec![s];
                }
                _ => {}
            }
            Vec::new()
        }

        fn previous(r: &PlacementResult) -> PreviousPlacement {
            let seats = r.assignment.iter().enumerate();
            PreviousPlacement {
                assignment: seats.filter_map(|(s, slot)| Some((s, (*slot)?))).collect(),
            }
        }

        /// Warm solves under random capacity rewrites (which rewrite kept
        /// usages), leaves, joins, lost seats, new watchers and
        /// redefinitions: at every executed step of a list member, the
        /// row walk picks what the walk over every candidate picks, to
        /// the bit — on switches read where their logs end, past it, and
        /// diverged — and every solve matches `solve_heuristic`. Each
        /// solve is checked on a state that replayed the solves before it,
        /// so the row entries it reads were taken by those solves.
        #[test]
        fn a_row_walk_matches_the_walk_over_every_candidate() {
            REACH.take();
            // The migration pass off: the options of a full solve.
            let other = HeuristicOptions {
                migration: false,
                ..HeuristicOptions::default()
            };
            let site = proptest::test_site!("a_row_walk_matches_the_walk_over_every_candidate");
            TestRunner::new(ProptestConfig::default(), site).run_cases(|rng| {
                let caps = proptest::collection::vec(0usize..CAPACITIES.len(), 2..9).generate(rng);
                let pinned = any::<bool>().generate(rng);
                let watchers = proptest::collection::vec(0usize..2, 2..7).generate(rng);
                let change = (0usize..7, any::<usize>(), any::<usize>());
                let changes = proptest::collection::vec(change, 1..6).generate(rng);
                rng.note_inputs(&(&caps, pinned, &watchers, &changes));
                let mut opts = HeuristicOptions::default();
                let mut inst = instance(&caps, pinned, &watchers);
                let all = inst.switches.clone();
                let mut state = SolveState::new();
                let (mut r, _) =
                    replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
                let mut rounds = vec![(inst.clone(), Vec::new(), opts)];
                for &change in &changes {
                    inst.previous = Some(previous(&r));
                    let dirty = REACH.with_borrow_mut(|r| apply(&mut inst, &all, change, r));
                    if change.0 == 6 {
                        opts = if opts == other {
                            HeuristicOptions::default()
                        } else {
                            other
                        };
                    }
                    rounds.push((inst.clone(), dirty.clone(), opts));
                    // The greedy of this solve, checked, on a state that
                    // replayed the solves before it.
                    let mut replay = SolveState::new();
                    let (last, earlier) = rounds.split_last().expect("a round");
                    for (inst, dirty, opts) in earlier {
                        let delta = ReplanDelta::seeds(dirty.clone());
                        replan_delta(inst, *opts, &mut replay, &delta, None);
                    }
                    let memo = &mut replay.memo;
                    memo.declare_dirty(&last.1);
                    memo.begin(&last.0, opts);
                    memo.greedy(&last.0, checked);
                    let rows_read = memo.end_greedy(&last.0).2;
                    REACH.with_borrow_mut(|r| r.rows_read += rows_read);
                    // The solve itself.
                    let delta = ReplanDelta::seeds(dirty);
                    let (dr, _) = replan_delta(&inst, opts, &mut state, &delta, None);
                    let full = solve_heuristic(&inst, opts);
                    assert_eq!(dr.assignment, full.assignment, "{change:?}");
                    assert_eq!(dr.utility.to_bits(), full.utility.to_bits(), "{change:?}");
                    assert_eq!(state.audit(&inst, None), Ok(()), "{change:?}");
                    r = dr;
                }
            });
            let reach = REACH.take();
            assert!(reach.compared > 0, "no row walk: {reach:?}");
            assert!(
                reach.rows_read > 0,
                "no row entry an earlier solve took: {reach:?}"
            );
            assert!(
                reach.log_end > 0 && reach.past_end > 0 && reach.diverged > 0,
                "{reach:?}"
            );
            assert!(
                reach.rewrites > 0 && reach.leaves > 0 && reach.joins > 0,
                "{reach:?}"
            );
        }
    }
}
