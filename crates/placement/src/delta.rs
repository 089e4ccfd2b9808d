//! Incremental re-planning: [`replan_delta`] re-solves an instance with
//! a [`SolveState`] retained from the previous solve. Every step of
//! Alg. 1 follows the change instead of re-deriving the instance: steps
//! 1–3 through per-switch op logs, step 4 and the tally through per-seed
//! records of the last scan. Step 5 commits from the benefit list as a
//! from-scratch solve does.
//!
//! # Why this is *exactly* equivalent to a from-scratch solve
//!
//! **Per-seed products.** A seed's interned poll subjects and its
//! minimum feasible allocation are functions of its definition. They are
//! kept per seed, follow the seed through [`SolveState::remap`], and are
//! recomputed for seeds the caller declares dirty and for seeds new to
//! the state. Subject ids are first-seen order over the seeds, as a
//! from-scratch solve numbers them; when the kept ids no longer are, the
//! subjects are renumbered and everything that depends on them starts
//! cold.
//!
//! **Step 2 as per-switch op logs.** The lingering reservations and the
//! greedy pass change a switch only through five ops — reserve, release,
//! place, unplace, restore — each a seed id and a kind whose values come
//! from that seed's inputs (products and previous seat). A switch's state
//! is therefore a function of its capacity and its op sequence. Each
//! switch keeps the log of its last solve; while a solve's ops match it
//! (same seed, same kind, and the seed *clean*: not dirty, same previous
//! seat bits), the switch is at a known prefix and its state need not be
//! built. A greedy *step* (one seed, in task order) reads its home switch
//! or, when it scans, every present candidate; its outcome is a function
//! of the seed's inputs and the states it read. A clean seed whose
//! switches are all at exactly the prefix they were at when its step last
//! ran therefore gets the same outcome: the step is *replayed* — its
//! recorded outcome copied, no probe run. Any other step *executes*
//! against states rebuilt from the switch's capacity plus the matched
//! prefix. A switch whose ops diverge stays dirty for the rest of the
//! solve; one that left, rejoined or changed capacity has diverged from
//! op 0; one whose whole log matched keeps its state from the last solve
//! untouched.
//!
//! **Step 3.** Each switch's LP is a **pure function** of the switch's
//! capacity, its residents in greedy order at their minimum allocations,
//! its standing reservations in seed order, and those seeds' inputs —
//! all of it what the switch's ops leave behind. So the op log is the
//! LP's key as well. A switch replays the `(seed, Resources)` updates its
//! LP produced last solve when its ops matched the whole log, or when they
//! diverged but leave the same residents in the same order and the same
//! reservations as the log did, with every resident's products kept and
//! every reservation's seed clean: a seed that leaves its seat and comes
//! straight back adds a reserve/release pair to the log and nothing to
//! the LP. Any other switch (changed residents or reservations, joined,
//! changed capacity, or without stored updates) runs its LP and stores
//! the result, and a switch without residents stores nothing, so what is
//! stored is always the last solve's. With step 3 off nothing is stored,
//! which is why an options change drops it all. The post-LP refresh then
//! runs only on switches whose greedy state was rebuilt or whose LP ran;
//! any other switch already holds its result from the last solve.
//!
//! **Step 4.** A seed's benefit at a candidate is a pure function of the
//! seed's products, its post-step-3 seat (switch and allocation bits)
//! and the candidate's post-step-3 state. Each seed keeps the seat it
//! was scanned at last solve, its utility there and the benefits it
//! pushed (`Scans`). A switch's post-step-3 state is the last solve's
//! unless it was built this solve and its LP, if any, ran rather than
//! replayed (`Switches::moved`): a switch that replays its LP output
//! is refreshed from the same residents in the same order, the same
//! reservations and the same allocations. Step 5 changes states but
//! logs no op, and a switch it changed is built again next solve, so
//! what it did never reaches the next scan. A seed that is
//! kept, at the seat it was scanned at, copies its benefits; only the
//! positions of its candidates that moved, joined or left — found
//! through a per-switch index of (seed, position) pairs — are evaluated
//! again. Any other placed seed evaluates every position. The records
//! follow [`SolveState::remap`], are dropped for seeds that are new or
//! declared dirty, and are dropped with the slots on a subject
//! renumbering and on an options change. The objective sums the
//! recorded utilities where the final allocation is the scanned one,
//! and the migration count reads the seats.
//!
//! So the delta solve's assignment, utility bits, migration count and
//! dropped-task list are identical to `crate::solve_heuristic` on the
//! same instance. `prop_delta.rs` pins this under random churn, and
//! `heuristic::tests::scan_property` holds a rescan to the
//! per-candidate scan.

use std::mem::size_of;
use std::sync::Arc;

use crate::fxhash::FxHashMap;

use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::heuristic::{solve_core, HeuristicOptions, SeedPolls, SwitchState};
use crate::model::{PlacementInstance, PlacementResult, PlacementSeed, SubjectInterner};

/// Bucket bounds of the `solver.delta_frontier` and
/// `solver.switches_rebuilt` histograms (switch counts, so plain powers
/// of two rather than latency buckets).
const SWITCH_COUNT_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Bucket bounds of the `solver.benefit_pairs_evaluated` histogram:
/// (seed, candidate) pairs, from none in a stable world to every pair of
/// a cold Fig. 7 solve.
const PAIR_COUNT_BOUNDS: &[u64] = &[0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// The `solver.*` instruments [`replan_delta`] reports into, looked up
/// once per [`SolveState`] and registry rather than once per solve.
#[derive(Debug)]
struct Instruments {
    /// The registry the handles came from: a state solved with another
    /// telemetry handle takes its instruments from that one.
    registry: Telemetry,
    replans: Arc<Counter>,
    fallbacks: Arc<Counter>,
    frontier: Arc<Histogram>,
    pairs_evaluated: Arc<Histogram>,
    steps_replayed: Arc<Counter>,
    steps_executed: Arc<Counter>,
    switches_rebuilt: Arc<Histogram>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
}

impl Instruments {
    fn new(t: &Telemetry) -> Instruments {
        Instruments {
            registry: t.clone(),
            replans: t.counter("solver.replan_delta"),
            fallbacks: t.counter("solver.delta_fallback_full"),
            frontier: t.histogram("solver.delta_frontier", SWITCH_COUNT_BOUNDS),
            pairs_evaluated: t.histogram("solver.benefit_pairs_evaluated", PAIR_COUNT_BOUNDS),
            steps_replayed: t.counter("solver.greedy_steps_replayed"),
            steps_executed: t.counter("solver.greedy_steps_executed"),
            switches_rebuilt: t.histogram("solver.switches_rebuilt", SWITCH_COUNT_BOUNDS),
            cache_entries: t.gauge("solver.delta_cache_entries"),
            cache_bytes: t.gauge("solver.delta_cache_bytes"),
        }
    }
}

fn bits(r: &Resources) -> [u64; 4] {
    [
        r.0[0].to_bits(),
        r.0[1].to_bits(),
        r.0[2].to_bits(),
        r.0[3].to_bits(),
    ]
}

/// Bytes a `Vec` holds, by capacity.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// What one [`replan_delta`] call did, for telemetry and the churn bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Switches that carried an LP this solve.
    pub lp_switches: usize,
    /// Switches whose LP ran.
    pub frontier: usize,
    /// Switches whose stored LP output was replayed.
    pub reused: usize,
    /// A warm solve in which no LP-bearing switch could replay.
    pub fallback_full: bool,
    /// False on the first (cold) solve of a [`SolveState`].
    pub warm: bool,
    /// Greedy steps (one per seed the pass reached) whose outcome was
    /// copied from the last solve without a probe.
    pub steps_replayed: usize,
    /// Greedy steps that probed their switches.
    pub steps_executed: usize,
    /// Switches whose greedy state was rebuilt from their op log rather
    /// than kept from the last solve.
    pub switches_rebuilt: usize,
    /// (seed, candidate) pairs whose migration benefit step 4 evaluated
    /// rather than copied from the last solve: every pair on a cold
    /// solve, none in a world that did not change (0 when the migration
    /// pass is off).
    pub pairs_evaluated: usize,
    /// Seeds step 5 relocated.
    pub relocated: usize,
}

/// What changed since the last solve that the solver cannot see on its
/// own. Capacity, residency, previous-placement moves and switches that
/// left or rejoined the instance are all caught by the op logs, and are
/// not declared. Callers **must** declare seeds whose *definitions*
/// changed under an unchanged index: utility, polling and candidate
/// set are read through the seed id, so identical-looking logs would
/// otherwise replay stale greedy outcomes and LP outputs. A changed
/// candidate set is such a definition change. (A seed that
/// [`SolveState::remap`] gives a new index no old one maps to is new to
/// the solver, and needs no declaring.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplanDelta {
    /// Seed indices (into the *current* instance) whose definition
    /// changed: their products are recomputed, and no op of theirs
    /// matches a log.
    pub(crate) dirty_seeds: Vec<usize>,
}

impl ReplanDelta {
    /// A delta naming the dirty seeds.
    pub fn seeds(dirty: impl IntoIterator<Item = usize>) -> ReplanDelta {
        ReplanDelta {
            dirty_seeds: dirty.into_iter().collect(),
        }
    }
}

/// One op of step 2 on one switch: a seed id and an [`OpKind`], packed
/// as `seed << 3 | kind` (so below [`MAX_SEEDS`] seeds). Its values come
/// from that seed's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op(u32);

/// Seeds an [`Op`] can name.
const MAX_SEEDS: usize = 1 << 29;

/// What an [`Op`] does to its switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Reserve the seed's previous allocation (lingering).
    Reserve,
    /// The seed stays home: release that reservation.
    Release,
    /// Place the seed at its minimum allocation.
    Place,
    /// Its task failed: undo the placement,
    Unplace,
    /// and restore the reservation a home stay released.
    Restore,
}

impl Op {
    pub(crate) fn new(seed: usize, kind: OpKind) -> Op {
        Op((seed as u32) << 3 | kind as u32)
    }

    fn seed(self) -> usize {
        (self.0 >> 3) as usize
    }

    fn kind(self) -> OpKind {
        match self.0 & 7 {
            0 => OpKind::Reserve,
            1 => OpKind::Release,
            2 => OpKind::Place,
            3 => OpKind::Unplace,
            _ => OpKind::Restore,
        }
    }

    fn with_seed(self, seed: usize) -> Op {
        Op::new(seed, self.kind())
    }
}

/// What a greedy step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// No feasible switch: the task fails.
    Fail,
    /// Stays on its previous switch (slot).
    Home(usize),
    /// Placed on another switch (slot).
    Placed(usize),
}

/// Per-seed flags: the products are current,
const KNOWN: u8 = 1;
/// the seed has a feasible allocation,
const FEASIBLE: u8 = 2;
/// the products are the last solve's (not new, not declared dirty),
const KEPT: u8 = 4;
/// its step may replay (products and previous seat as last solve),
const CLEAN: u8 = 8;
/// and, transiently, the previous placement names it.
const SEEN: u8 = 16;

/// [`Seeds::seat_slot`] of a seed without a previous seat.
const NO_SEAT: u32 = u32::MAX;

/// Per-seed inputs of the greedy pass, indexed by seed.
#[derive(Debug, Default)]
pub(crate) struct Seeds {
    subjects: SubjectInterner,
    /// Seed `s` polls subjects `ids[at[s]..at[s + 1]]`, in the order of
    /// its `PollDemand`s.
    at: Vec<u32>,
    ids: Vec<u32>,
    /// Each `FEASIBLE` seed's minimum feasible allocation and its utility.
    min_res: Vec<Resources>,
    min_u: Vec<f64>,
    /// Each seed's previous seat — the switch's slot, or [`NO_SEAT`], and
    /// the allocation — as of the current (or last) solve.
    seat_slot: Vec<u32>,
    seat_res: Vec<Resources>,
    flags: Vec<u8>,
}

impl Seeds {
    pub(crate) fn polls<'a>(&'a self, instance: &'a PlacementInstance, s: usize) -> SeedPolls<'a> {
        let ids = &self.ids[self.at[s] as usize..self.at[s + 1] as usize];
        SeedPolls::new(ids, &instance.seeds[s].polls)
    }

    /// The seed's minimum feasible allocation and its utility.
    pub(crate) fn min_alloc(&self, s: usize) -> Option<(Resources, f64)> {
        (self.flags[s] & FEASIBLE != 0).then(|| (self.min_res[s], self.min_u[s]))
    }

    pub(crate) fn min_res(&self, s: usize) -> Resources {
        debug_assert!(self.flags[s] & FEASIBLE != 0);
        self.min_res[s]
    }

    /// The slot of the seed's previous switch, if it has a seat.
    pub(crate) fn seat(&self, s: usize) -> Option<usize> {
        let slot = self.seat_slot[s];
        (slot != NO_SEAT).then_some(slot as usize)
    }

    /// The allocation of the seed's previous seat (see [`Seeds::seat`]).
    pub(crate) fn seat_res(&self, s: usize) -> Resources {
        self.seat_res[s]
    }

    fn kept(&self, s: usize) -> bool {
        self.flags[s] & KEPT != 0
    }

    fn clean(&self, s: usize) -> bool {
        self.flags[s] & CLEAN != 0
    }

    fn len(&self) -> usize {
        self.flags.len()
    }

    /// Brings the products up to `instance`: seeds not known (new, or
    /// declared dirty) get theirs computed, and start unclean. Returns
    /// true when the subject ids had to be renumbered.
    fn update(&mut self, instance: &PlacementInstance) -> bool {
        let n = instance.seeds.len();
        self.flags.resize(n, 0);
        self.min_res.resize(n, Resources::ZERO);
        self.min_u.resize(n, 0.0);
        self.seat_slot.resize(n, NO_SEAT);
        self.seat_res.resize(n, Resources::ZERO);
        for f in &mut self.flags {
            *f = if *f & KNOWN != 0 {
                *f & FEASIBLE | KNOWN | KEPT | CLEAN
            } else {
                0
            };
        }
        let unknown = |s: usize| self.flags[s] & KNOWN == 0;
        let span = |s: usize| self.at[s] as usize..self.at[s + 1] as usize;
        let in_place = self.at.len() == n + 1
            && (0..n).all(|s| !unknown(s) || span(s).len() == instance.seeds[s].polls.len());
        if !in_place {
            // Lay the ids out afresh: known seeds keep theirs, the others
            // get room for theirs.
            let polls = instance.seeds.iter().map(|s| s.polls.len()).sum();
            let (mut at, mut ids) = (Vec::with_capacity(n + 1), Vec::with_capacity(polls));
            at.push(0);
            for (s, seed) in instance.seeds.iter().enumerate() {
                if unknown(s) {
                    ids.resize(ids.len() + seed.polls.len(), 0);
                } else {
                    ids.extend_from_slice(&self.ids[span(s)]);
                }
                at.push(ids.len() as u32);
            }
            (self.at, self.ids) = (at, ids);
        }
        for (s, seed) in instance.seeds.iter().enumerate() {
            if self.flags[s] & KNOWN != 0 {
                continue;
            }
            let ids = &mut self.ids[self.at[s] as usize..self.at[s + 1] as usize];
            for (id, p) in ids.iter_mut().zip(&seed.polls) {
                *id = self.subjects.intern(&p.subject);
            }
            self.flags[s] = KNOWN;
            if let Some((res, u)) = seed.util.min_feasible() {
                (self.min_res[s], self.min_u[s]) = (res, u);
                self.flags[s] |= FEASIBLE;
            }
        }
        if first_seen(&self.ids) {
            return false;
        }
        // Ids from an older numbering (a subject no seed polls any more,
        // or a new one seen before an older one): number afresh.
        self.subjects = SubjectInterner::default();
        let mut moved = false;
        for (s, seed) in instance.seeds.iter().enumerate() {
            let ids = &mut self.ids[self.at[s] as usize..self.at[s + 1] as usize];
            for (id, p) in ids.iter_mut().zip(&seed.polls) {
                let fresh = self.subjects.intern(&p.subject);
                moved |= *id != fresh;
                *id = fresh;
            }
        }
        moved
    }

    /// Takes this solve's previous seats from the instance. A seed whose
    /// seat differs in any bit from the last solve's is not clean.
    fn seat_previous(&mut self, instance: &PlacementInstance, switches: &mut Switches) {
        if let Some(prev) = &instance.previous {
            for (&s, &(n, res)) in &prev.assignment {
                let Some(flags) = self.flags.get_mut(s) else {
                    continue;
                };
                *flags |= SEEN;
                let slot = self.seat_slot[s];
                let same = slot != NO_SEAT
                    && switches.ids[slot as usize] == n
                    && bits(&self.seat_res[s]) == bits(&res);
                if !same {
                    *flags &= !CLEAN;
                    self.seat_slot[s] = switches.slot(n) as u32;
                    self.seat_res[s] = res;
                }
            }
        }
        for (flags, slot) in self.flags.iter_mut().zip(&mut self.seat_slot) {
            if *flags & SEEN == 0 && *slot != NO_SEAT {
                *flags &= !CLEAN;
                *slot = NO_SEAT;
            }
            *flags &= !SEEN;
        }
    }

    /// Moves every seed to its new index (`src[new] = Some(old)`).
    fn remap(&mut self, src: &[Option<usize>]) {
        let old: Vec<Option<usize>> = src.iter().map(|o| o.filter(|&o| o < self.len())).collect();
        let kept = |o: &Option<usize>| o.map_or(0, |o| self.flags[o] & (KNOWN | FEASIBLE));
        let flags: Vec<u8> = old.iter().map(kept).collect();
        let (mut at, mut ids) = (vec![0], Vec::with_capacity(self.ids.len()));
        for (new, o) in old.iter().enumerate() {
            if flags[new] & KNOWN != 0 {
                let o = o.expect("a known seed has an old index");
                ids.extend_from_slice(&self.ids[self.at[o] as usize..self.at[o + 1] as usize]);
            }
            at.push(ids.len() as u32);
        }
        self.min_res = carry(&self.min_res, &old, Resources::ZERO);
        self.min_u = carry(&self.min_u, &old, 0.0);
        self.seat_slot = carry(&self.seat_slot, &old, NO_SEAT);
        self.seat_res = carry(&self.seat_res, &old, Resources::ZERO);
        (self.flags, self.at, self.ids) = (flags, at, ids);
    }

    fn bytes(&self) -> usize {
        self.subjects.bytes()
            + vec_bytes(&self.at)
            + vec_bytes(&self.ids)
            + vec_bytes(&self.min_res)
            + vec_bytes(&self.min_u)
            + vec_bytes(&self.seat_slot)
            + vec_bytes(&self.seat_res)
            + vec_bytes(&self.flags)
    }
}

/// A per-seed vector in the new numbering: `old[new]` is the seed's old
/// index, or `None` for a seed that takes `none`.
fn carry<T: Copy>(v: &[T], old: &[Option<usize>], none: T) -> Vec<T> {
    old.iter().map(|o| o.map_or(none, |o| v[o])).collect()
}

/// Whether `ids` are numbered in first-seen order: each id is either
/// one seen before or the next new one.
fn first_seen(ids: &[u32]) -> bool {
    let mut next = 0;
    for &id in ids {
        if id == next {
            next += 1;
        } else if id > next {
            return false;
        }
    }
    true
}

/// Where a switch stands in the current solve's greedy pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not in this round.
    Absent,
    /// Every op so far matched the log (after step 2: the whole log);
    /// the state is not built.
    Clean,
    /// Every op so far matched the log (after step 2: the whole log);
    /// the state is built at that prefix.
    Live,
    /// The ops departed from the log, which now holds this solve's ops;
    /// the state is built.
    Diverged,
}

/// Per-switch state, op logs and LP outputs, indexed by *slot*: a switch
/// keeps its slot for the life of the memo, whether or not it is in the
/// round.
#[derive(Debug, Default)]
pub(crate) struct Switches {
    slot_of: FxHashMap<SwitchId, u32>,
    pub(crate) ids: Vec<SwitchId>,
    pub(crate) states: Vec<SwitchState>,
    logs: Vec<Vec<Op>>,
    /// The updates `(seed, allocation)` each switch's LP produced last
    /// solve, over the state its log then built. See
    /// [`Switches::replays_lp`].
    pub(crate) lp: Vec<Option<Vec<(usize, Resources)>>>,
    /// Where this solve's ops left the last solve's log, and the ops of
    /// that log they replaced; until step 3 has compared what each log
    /// leaves on the switch.
    prior: Vec<Option<(u32, Vec<Op>)>>,
    /// `states[i]` is the state after step 3 of the ops in `logs[i]`.
    settled: Vec<bool>,
    mode: Vec<Mode>,
    /// Ops matched so far this solve, while `Clean` or `Live`.
    cursor: Vec<u32>,
    /// This solve built the state instead of keeping the settled one.
    pub(crate) touched: Vec<bool>,
    /// After step 3, the state may differ from the last solve's after
    /// step 3: it was built, and its LP, if any, ran rather than
    /// replayed. (One that replayed its LP is refreshed from the same
    /// residents, reservations and allocations as last solve.)
    pub(crate) moved: Vec<bool>,
    /// In this round but not the last.
    joined: Vec<bool>,
    any_joined: bool,
    /// In the last round but not this one.
    pub(crate) left: Vec<usize>,
    /// The round's slots by ascending switch id.
    pub(crate) order: Vec<usize>,
}

impl Switches {
    /// The next round: the given switches in the given states, moved
    /// where the flag says the state changed since the last round or the
    /// switch joined, as a solve leaves them after step 3.
    #[cfg(test)]
    pub(crate) fn round(&mut self, states: Vec<(SwitchId, SwitchState, bool)>) {
        let was: Vec<bool> = (0..self.ids.len()).map(|i| self.is_present(i)).collect();
        self.mode.fill(Mode::Absent);
        for (n, st, changed) in states {
            let i = self.slot(n);
            self.states[i] = st;
            self.mode[i] = Mode::Diverged;
            self.joined[i] = !was.get(i).copied().unwrap_or(false);
            self.moved[i] = changed || self.joined[i];
        }
        self.left = (0..was.len())
            .filter(|&i| was[i] && !self.is_present(i))
            .collect();
        self.order = (0..self.ids.len())
            .filter(|&i| self.is_present(i))
            .collect();
        self.order.sort_unstable_by_key(|&i| self.ids[i]);
    }

    /// The switch's slot, allocated (not in the round) on first sight.
    fn slot(&mut self, n: SwitchId) -> usize {
        let next = self.ids.len() as u32;
        let i = *self.slot_of.entry(n).or_insert(next) as usize;
        if i == self.ids.len() {
            self.ids.push(n);
            self.states.push(SwitchState::new(Resources::ZERO));
            self.logs.push(Vec::new());
            self.lp.push(None);
            self.prior.push(None);
            self.settled.push(false);
            self.mode.push(Mode::Absent);
            self.cursor.push(0);
            self.touched.push(false);
            self.moved.push(false);
            self.joined.push(false);
        }
        i
    }

    pub(crate) fn is_present(&self, i: usize) -> bool {
        self.mode[i] != Mode::Absent
    }

    /// The slot of `n` if it is in the round.
    pub(crate) fn present_slot(&self, n: SwitchId) -> Option<usize> {
        let i = *self.slot_of.get(&n)? as usize;
        self.is_present(i).then_some(i)
    }

    /// Op count of a switch still at a prefix of its log; `None` once it
    /// diverged or when it is not in the round.
    fn prefix(&self, i: usize) -> Option<u32> {
        matches!(self.mode[i], Mode::Clean | Mode::Live).then_some(self.cursor[i])
    }

    fn joined(&self, n: SwitchId) -> bool {
        self.slot_of
            .get(&n)
            .is_some_and(|&i| self.joined[i as usize])
    }

    /// Starts a solve over the instance's switches. One whose capacity
    /// bits and presence match the last solve starts `Clean` at op 0;
    /// one that joined, or changed capacity, has diverged from op 0.
    fn begin(&mut self, instance: &PlacementInstance) {
        // Until the last loop, `joined` says whether a slot was in the
        // last round and `touched` whether it is in this one.
        for i in 0..self.ids.len() {
            self.joined[i] = self.is_present(i);
            self.touched[i] = false;
            self.moved[i] = false;
            self.mode[i] = Mode::Absent;
        }
        for (n, ares) in &instance.switches {
            let i = self.slot(*n);
            let same = self.joined[i] && bits(&self.states[i].ares) == bits(ares);
            // A switch listed twice takes its last capacity, from op 0.
            self.mode[i] = if same && !self.touched[i] {
                Mode::Clean
            } else {
                self.logs[i].clear();
                self.states[i].reset(*ares);
                self.settled[i] = false;
                Mode::Diverged
            };
            self.touched[i] = true;
            self.cursor[i] = 0;
        }
        self.any_joined = false;
        self.left.clear();
        let mut reorder = false;
        for i in 0..self.ids.len() {
            let (was, now) = (self.joined[i], self.touched[i]);
            if was && !now {
                self.logs[i] = Vec::new();
                self.lp[i] = None;
                self.states[i] = SwitchState::new(Resources::ZERO);
                self.settled[i] = false;
                self.left.push(i);
            }
            self.joined[i] = now && !was;
            self.any_joined |= self.joined[i];
            reorder |= now != was;
            self.touched[i] = false;
        }
        if reorder {
            self.order = (0..self.ids.len())
                .filter(|&i| self.is_present(i))
                .collect();
            self.order.sort_unstable_by_key(|&i| self.ids[i]);
            self.shrink();
        }
    }

    /// Gives back the slot vectors' spare capacity.
    fn shrink(&mut self) {
        self.ids.shrink_to_fit();
        self.states.shrink_to_fit();
        self.logs.shrink_to_fit();
        self.lp.shrink_to_fit();
        self.prior.shrink_to_fit();
        self.settled.shrink_to_fit();
        self.mode.shrink_to_fit();
        self.cursor.shrink_to_fit();
        self.touched.shrink_to_fit();
        self.moved.shrink_to_fit();
        self.joined.shrink_to_fit();
    }

    /// Builds the state of a `Clean` switch at its matched prefix.
    fn materialize(&mut self, i: usize, seeds: &Seeds, instance: &PlacementInstance) {
        if self.mode[i] != Mode::Clean {
            return;
        }
        self.mode[i] = Mode::Live;
        let st = &mut self.states[i];
        st.reset(st.ares);
        for &op in &self.logs[i][..self.cursor[i] as usize] {
            apply(st, op, seeds, instance);
        }
    }

    /// Appends `op` to switch `i`'s ops this solve.
    fn emit(&mut self, i: usize, op: Op, seeds: &Seeds, instance: &PlacementInstance) {
        debug_assert!(self.is_present(i));
        if let Some(at) = self.prefix(i) {
            let at = at as usize;
            if self.logs[i].get(at) == Some(&op) && seeds.clean(op.seed()) {
                self.cursor[i] += 1;
                if self.mode[i] == Mode::Live {
                    apply(&mut self.states[i], op, seeds, instance);
                }
                return;
            }
            self.materialize(i, seeds, instance);
            self.diverge(i, at);
        }
        self.logs[i].push(op);
        apply(&mut self.states[i], op, seeds, instance);
    }

    /// Switch `i`'s ops left its log after `at` matched: the rest of the
    /// log goes to `prior`.
    fn diverge(&mut self, i: usize, at: usize) {
        let tail = self.logs[i].split_off(at);
        self.prior[i] = Some((at as u32, tail));
        self.mode[i] = Mode::Diverged;
    }

    /// Ends step 2: every switch of the round holds its greedy state.
    /// One whose whole log matched keeps its settled state; the others
    /// are built (where not already) and marked touched, and one whose
    /// ops stopped short of its log has diverged. Returns how many were
    /// built.
    pub(crate) fn settle_greedy(&mut self, seeds: &Seeds, instance: &PlacementInstance) -> usize {
        let mut rebuilt = 0;
        for k in 0..self.order.len() {
            let i = self.order[k];
            if let Some(at) = self.prefix(i) {
                let whole = at as usize == self.logs[i].len();
                if whole && self.mode[i] == Mode::Clean && self.settled[i] {
                    continue;
                }
                self.materialize(i, seeds, instance);
                if !whole {
                    self.diverge(i, at as usize);
                }
            }
            (self.touched[i], self.moved[i]) = (true, true);
            rebuilt += 1;
        }
        rebuilt
    }

    /// Ends step 3: every state of the round is settled.
    pub(crate) fn settle(&mut self) {
        for &i in &self.order {
            self.settled[i] = true;
            self.prior[i] = None;
            if self.touched[i] {
                self.states[i].shrink();
                self.logs[i].shrink_to_fit();
            }
        }
    }

    /// After step 2: whether switch `i` replays the LP output it stored
    /// last solve, because the LP would read the same now. It reads the
    /// switch's capacity, residents in order, standing reservations and
    /// those seeds' inputs, so it would when the ops matched the whole
    /// log, or when they left the same residents in the same order and
    /// the same reservations as the log did, on the same capacity (a
    /// switch that changed capacity has no prior log), with every
    /// resident's products kept and every reservation's seed clean.
    pub(crate) fn replays_lp(&self, i: usize, seeds: &Seeds) -> bool {
        self.lp[i].is_some()
            && match (self.mode[i], &self.prior[i]) {
                (Mode::Clean | Mode::Live, _) => true,
                (Mode::Diverged, Some((at, tail))) => {
                    let log = &self.logs[i][..*at as usize];
                    let (residents, reserved) = leaves(log.iter().chain(tail));
                    let st = &self.states[i];
                    residents == st.seeds
                        && reserved.iter().eq(st.lingering_seeds())
                        && residents.iter().all(|&s| seeds.kept(s as usize))
                        && reserved.iter().all(|&s| seeds.clean(s))
                }
                _ => false,
            }
    }

    /// The migration pass changed switch `i` after step 3. Its LP output
    /// stays: the LP read the post-greedy state.
    pub(crate) fn unsettle(&mut self, i: usize) {
        self.settled[i] = false;
    }

    /// Rewrites the seed indices in every log, state and stored LP
    /// output; a switch that mentions an unmapped seed forgets its log,
    /// LP output and settled state.
    fn remap(&mut self, map: &[Option<usize>]) {
        let new = |s: usize| map.get(s).copied().flatten();
        for i in 0..self.ids.len() {
            let log = self.logs[i]
                .iter_mut()
                .all(|op| new(op.seed()).map(|s| *op = op.with_seed(s)).is_some());
            let lp = self.lp[i]
                .iter_mut()
                .flatten()
                .all(|(s, _)| new(*s).map(|n| *s = n).is_some());
            if !(log && lp && self.states[i].remap(map)) {
                self.logs[i] = Vec::new();
                self.lp[i] = None;
                self.settled[i] = false;
            }
        }
    }

    fn bytes(&self) -> usize {
        self.slot_of.capacity() * size_of::<(SwitchId, u32)>()
            + vec_bytes(&self.ids)
            + vec_bytes(&self.states)
            + self
                .states
                .iter()
                .map(SwitchState::heap_bytes)
                .sum::<usize>()
            + vec_bytes(&self.logs)
            + self.logs.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.lp)
            + self.lp.iter().flatten().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.settled)
            + vec_bytes(&self.mode)
            + vec_bytes(&self.cursor)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.moved)
            + vec_bytes(&self.joined)
            + vec_bytes(&self.left)
            + vec_bytes(&self.order)
    }
}

/// What `ops` leave on a switch: its residents in the order they came,
/// and the seeds whose reservation stands, ascending — as
/// [`SwitchState`]'s `place`, `unplace`, `reserve` and `release` keep them.
fn leaves<'a>(ops: impl Iterator<Item = &'a Op>) -> (Vec<u32>, Vec<usize>) {
    let (mut residents, mut reserved) = (Vec::new(), Vec::new());
    for op in ops {
        let s = op.seed();
        match op.kind() {
            OpKind::Place => residents.push(s as u32),
            OpKind::Unplace => residents.retain(|&r| r as usize != s),
            OpKind::Reserve | OpKind::Restore => {
                if let Err(k) = reserved.binary_search(&s) {
                    reserved.insert(k, s);
                }
            }
            OpKind::Release => {
                if let Ok(k) = reserved.binary_search(&s) {
                    reserved.remove(k);
                }
            }
        }
    }
    (residents, reserved)
}

/// Applies one op to a built state, with the values of its seed's
/// current inputs.
fn apply(st: &mut SwitchState, op: Op, seeds: &Seeds, instance: &PlacementInstance) {
    let s = op.seed();
    let polls = seeds.polls(instance, s);
    match op.kind() {
        OpKind::Reserve | OpKind::Restore => st.reserve(s, polls, seeds.seat_res[s]),
        OpKind::Release => st.release(s, polls),
        OpKind::Place => st.place(s, polls, &seeds.min_res(s)),
        OpKind::Unplace => st.unplace(s, polls, &seeds.min_res(s)),
    }
}

/// The record of a greedy step that scanned its candidates: where its
/// `(slot, op count)` reads are, and where it went. A step that stayed
/// home needs none — the release right after the read is its record, in
/// the home switch's log.
#[derive(Debug, Clone, Copy)]
struct Scan {
    seed: u32,
    /// The slot it was placed on, or [`FAIL`].
    outcome: u32,
    at: u32,
    len: u32,
}

/// [`Scan::outcome`] of a step that found no switch.
const FAIL: u32 = u32::MAX;

/// The scan records of the last solve, and those this solve writes.
#[derive(Debug, Default)]
struct Steps {
    /// The last solve's scans, ascending by seed once a solve begins,
    /// and their reads.
    scans: Vec<Scan>,
    reads: Vec<(u32, u32)>,
    next_scans: Vec<Scan>,
    next_reads: Vec<(u32, u32)>,
    /// The reads of the step being probed.
    pending: Vec<(u32, u32)>,
    replayed: usize,
    executed: usize,
}

impl Steps {
    fn begin(&mut self) {
        self.scans.sort_unstable_by_key(|r| r.seed);
        (self.replayed, self.executed) = (0, 0);
    }

    /// This solve's records become the ones the next solve replays.
    fn end(&mut self) {
        self.scans = std::mem::take(&mut self.next_scans);
        self.reads = std::mem::take(&mut self.next_reads);
    }

    /// The last solve's record of seed `s`, with its reads.
    fn scan(&self, s: usize) -> Option<(Scan, &[(u32, u32)])> {
        let k = self.scans.binary_search_by_key(&(s as u32), |r| r.seed);
        let scan = self.scans[k.ok()?];
        Some((
            scan,
            &self.reads[scan.at as usize..(scan.at + scan.len) as usize],
        ))
    }

    /// Writes this solve's record of the step just probed, whose reads
    /// are pending.
    fn record(&mut self, seed: usize, outcome: u32) {
        let Steps {
            next_scans,
            next_reads,
            pending,
            ..
        } = self;
        next_scans.push(Scan {
            seed: seed as u32,
            outcome,
            at: next_reads.len() as u32,
            len: pending.len() as u32,
        });
        next_reads.append(pending);
    }

    /// Carries a record of the last solve over to this one.
    fn carry(&mut self, scan: Scan) {
        let Steps {
            reads,
            next_scans,
            next_reads,
            ..
        } = self;
        next_scans.push(Scan {
            at: next_reads.len() as u32,
            ..scan
        });
        next_reads.extend_from_slice(&reads[scan.at as usize..(scan.at + scan.len) as usize]);
    }

    fn remap(&mut self, map: &[Option<usize>]) {
        self.scans.retain_mut(|r| {
            let new = map.get(r.seed as usize).copied().flatten();
            new.map(|new| r.seed = new as u32).is_some()
        });
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.scans)
            + vec_bytes(&self.reads)
            + vec_bytes(&self.next_scans)
            + vec_bytes(&self.next_reads)
            + vec_bytes(&self.pending)
    }
}

/// One migration benefit of step 4: seed `seed` would gain `benefit` at
/// its candidate number `pos`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Benefit {
    pub(crate) benefit: f64,
    pub(crate) seed: u32,
    pub(crate) pos: u32,
}

/// Per-seed flags of [`Scans`]: the seed's record is the last scan's,
const SCANNED: u8 = 1;
/// its utility there was `Some`,
const UTIL_SOME: u8 = 2;
/// and the index holds every (seed, position) pair of its candidates.
const INDEXED: u8 = 4;

/// Step 4's memory. Per seed, flat and seed-indexed: the seat (switch
/// and allocation bits) the seed was scanned at last solve, its utility
/// there, and the benefits it pushed, in candidate order. Per switch
/// slot: the (seed, position) pairs of the indexed seeds' candidates that
/// name it, so a switch that changed finds the pairs it affects without
/// a walk over any candidate list.
#[derive(Debug, Default)]
pub(crate) struct Scans {
    seat: Vec<SwitchId>,
    res: Vec<Resources>,
    util: Vec<f64>,
    flags: Vec<u8>,
    /// The last scan's benefits, ascending by (seed, position).
    pub(crate) benefits: Vec<Benefit>,
    next: Vec<Benefit>,
    /// Per slot, ascending; pairs of a seed whose candidates changed stay
    /// until their switch changes, and are dropped then.
    by_slot: Vec<Vec<(u32, u32)>>,
}

impl Scans {
    /// Starts a solve of `n` seeds. A seed whose products are not the
    /// last solve's (`kept` false, seed by seed: new, or declared dirty)
    /// loses its record and its place in the index.
    pub(crate) fn begin(&mut self, n: usize, kept: impl Iterator<Item = bool>) {
        self.seat.resize(n, SwitchId(0));
        self.res.resize(n, Resources::ZERO);
        self.util.resize(n, 0.0);
        self.flags.resize(n, 0);
        for (flags, kept) in self.flags.iter_mut().zip(kept) {
            if !kept {
                *flags = 0;
            }
        }
    }

    /// Drops every record; the index stays.
    fn forget(&mut self) {
        for flags in &mut self.flags {
            *flags &= INDEXED;
        }
        self.benefits.clear();
    }

    /// Moves every record to the seed's new index (`map[old] = Some(new)`,
    /// `src[new] = Some(old)`) and drops the unmapped seeds' records.
    pub(crate) fn remap(&mut self, map: &[Option<usize>], src: &[Option<usize>]) {
        let old: Vec<Option<usize>> = src
            .iter()
            .map(|o| o.filter(|&o| o < self.flags.len()))
            .collect();
        self.seat = carry(&self.seat, &old, SwitchId(0));
        self.res = carry(&self.res, &old, Resources::ZERO);
        self.util = carry(&self.util, &old, 0.0);
        self.flags = carry(&self.flags, &old, 0);
        let new = |s: &mut u32| {
            let n = map.get(*s as usize).copied().flatten();
            n.map(|n| *s = n as u32).is_some()
        };
        self.benefits.retain_mut(|b| new(&mut b.seed));
        if !self.benefits.is_sorted_by_key(|b| (b.seed, b.pos)) {
            self.benefits.sort_unstable_by_key(|b| (b.seed, b.pos));
        }
        for pairs in &mut self.by_slot {
            pairs.retain_mut(|(s, _)| new(s));
            if !pairs.is_sorted() {
                pairs.sort_unstable();
            }
        }
    }

    /// Before a scan: indexes every seed scanned last solve and not yet
    /// indexed, then returns the pairs whose switch's state may have
    /// changed since that scan — [`Switches::moved`] (which covers a
    /// switch step 5 unsettled, since step 5 logs no op, and one that
    /// joined), or left — ascending.
    pub(crate) fn prepare(
        &mut self,
        instance: &PlacementInstance,
        switches: &mut Switches,
    ) -> Vec<(u32, u32)> {
        let Scans { flags, by_slot, .. } = self;
        for (s, flags) in flags.iter_mut().enumerate() {
            if *flags & (SCANNED | INDEXED) != SCANNED {
                continue;
            }
            *flags |= INDEXED;
            for (pos, &n) in instance.seeds[s].candidates.iter().enumerate() {
                let i = switches.slot(n);
                if by_slot.len() <= i {
                    by_slot.resize_with(i + 1, Vec::new);
                }
                let pairs = &mut by_slot[i];
                let pair = (s as u32, pos as u32);
                if let Err(k) = pairs.binary_search(&pair) {
                    // Grown by an eighth, not doubled: the index is kept.
                    if pairs.len() == pairs.capacity() {
                        pairs.reserve_exact(pairs.len() / 8 + 1);
                    }
                    pairs.insert(k, pair);
                }
            }
        }
        let mut changed = Vec::new();
        let moved = switches.order.iter().filter(|&&i| switches.moved[i]);
        for &i in moved.chain(&switches.left) {
            let Some(pairs) = by_slot.get_mut(i) else {
                continue;
            };
            let n = switches.ids[i];
            let names = |&(s, pos): &(u32, u32)| {
                let seed = instance.seeds.get(s as usize);
                seed.and_then(|seed| seed.candidates.get(pos as usize)) == Some(&n)
            };
            if !pairs.iter().all(names) {
                pairs.retain(names);
            }
            changed.extend_from_slice(pairs);
        }
        changed.sort_unstable();
        changed
    }

    /// Step 4's walk over the seeds in order. A seed scanned last solve at
    /// the seat it holds now, to the bit, copies the benefits it pushed
    /// then and re-evaluates only the positions whose switch changed
    /// since (`changed`, from [`Scans::prepare`]); any other placed seed
    /// evaluates every position, and becomes scanned at its seat.
    /// `benefit(s, min_res, i, cur_u)` is seed `s`'s benefit at the
    /// present switch of slot `i`, if one clears the hysteresis. The
    /// benefits land in [`Scans::benefits`]; returns the pairs evaluated.
    pub(crate) fn scan(
        &mut self,
        instance: &PlacementInstance,
        assignment: &[Option<(SwitchId, Resources)>],
        switches: &Switches,
        changed: &[(u32, u32)],
        min_alloc: impl Fn(usize) -> Option<(Resources, f64)>,
        mut benefit: impl FnMut(usize, &Resources, usize, f64) -> Option<f64>,
    ) -> usize {
        let Scans {
            seat,
            res,
            util,
            flags,
            benefits,
            next,
            ..
        } = self;
        next.clear();
        let (mut at_benefit, mut at_change, mut pairs) = (0, 0, 0);
        for (s, slot) in assignment.iter().enumerate() {
            let olds = run(benefits, &mut at_benefit, s, |b| b.seed);
            let changes = run(changed, &mut at_change, s, |c| c.0);
            let Some((cur, cur_res)) = slot else {
                flags[s] &= !SCANNED;
                continue;
            };
            let kept_res = flags[s] & SCANNED != 0 && bits(&res[s]) == bits(cur_res);
            let same = kept_res && seat[s] == *cur;
            if same && changes.is_empty() {
                next.extend_from_slice(&benefits[olds]);
                continue;
            }
            let Some((min_res, _)) = min_alloc(s) else {
                flags[s] &= !SCANNED;
                continue;
            };
            let seed = &instance.seeds[s];
            if !kept_res {
                let u = seed.util.eval(cur_res);
                (res[s], util[s]) = (*cur_res, u.unwrap_or(0.0));
                flags[s] = flags[s] & INDEXED | if u.is_some() { UTIL_SOME } else { 0 };
            }
            (seat[s], flags[s]) = (*cur, flags[s] | SCANNED);
            let cur_u = util[s];
            let mut eval = |pos: usize, next: &mut Vec<Benefit>| {
                let n = seed.candidates[pos];
                if n == *cur {
                    return;
                }
                let Some(i) = switches.present_slot(n) else {
                    return;
                };
                pairs += 1;
                if let Some(benefit) = benefit(s, &min_res, i, cur_u) {
                    let (seed, pos) = (s as u32, pos as u32);
                    next.push(Benefit { benefit, seed, pos });
                }
            };
            if same {
                let mut olds = benefits[olds].iter().copied().peekable();
                for &(_, pos) in &changed[changes] {
                    while let Some(b) = olds.next_if(|b| b.pos < pos) {
                        next.push(b);
                    }
                    olds.next_if(|b| b.pos == pos);
                    eval(pos as usize, next);
                }
                next.extend(olds);
            } else {
                for pos in 0..seed.candidates.len() {
                    eval(pos, next);
                }
            }
        }
        std::mem::swap(benefits, next);
        pairs
    }

    /// The utility of seed `s` at `res`: the one its record holds when
    /// `res` is the allocation it was scanned at, to the bit.
    pub(crate) fn utility(&self, seed: &PlacementSeed, s: usize, res: &Resources) -> Option<f64> {
        if self.flags[s] & SCANNED != 0 && bits(&self.res[s]) == bits(res) {
            return (self.flags[s] & UTIL_SOME != 0).then_some(self.util[s]);
        }
        seed.util.eval(res)
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.seat)
            + vec_bytes(&self.res)
            + vec_bytes(&self.util)
            + vec_bytes(&self.flags)
            + vec_bytes(&self.benefits)
            + vec_bytes(&self.next)
            + vec_bytes(&self.by_slot)
            + self.by_slot.iter().map(vec_bytes).sum::<usize>()
    }
}

/// The run of `v`'s items from `*at` whose key is `s`, as a range;
/// `*at` moves past it. `v` is ascending by key, and `s` only grows
/// from one call to the next.
fn run<T>(v: &[T], at: &mut usize, s: usize, key: impl Fn(&T) -> u32) -> std::ops::Range<usize> {
    let start = *at;
    while v.get(*at).is_some_and(|x| key(x) as usize == s) {
        *at += 1;
    }
    start..*at
}

/// What the solve keeps of itself: the greedy pass's per-seed products,
/// per-switch op logs, states and LP outputs and greedy step records,
/// and step 4's records. A from-scratch solve runs through a fresh one.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    pub(crate) seeds: Seeds,
    pub(crate) switches: Switches,
    steps: Steps,
    pub(crate) scans: Scans,
    /// The options of the last solve: the settled states, which LP
    /// outputs are current and what step 4 saw depend on them.
    options: Option<HeuristicOptions>,
}

impl Memo {
    /// Seeds whose definition changed get their products recomputed;
    /// until then they are not clean, so no op of theirs matches a log.
    fn declare_dirty(&mut self, dirty: &[usize]) {
        for &s in dirty {
            if let Some(flags) = self.seeds.flags.get_mut(s) {
                *flags &= !KNOWN;
            }
        }
    }

    /// Starts a solve of `instance`.
    ///
    /// # Panics
    ///
    /// When the instance has [`MAX_SEEDS`] seeds or more.
    pub(crate) fn begin(&mut self, instance: &PlacementInstance, options: HeuristicOptions) {
        assert!(
            instance.seeds.len() < MAX_SEEDS,
            "{} seeds: an op names at most {MAX_SEEDS}",
            instance.seeds.len()
        );
        // Seeds vanished without a remap, or most slots name switches
        // long gone: start over.
        if instance.seeds.len() < self.seeds.len()
            || self.switches.ids.len() > 2 * instance.switches.len() + 64
        {
            *self = Memo::default();
        }
        // Renumbered subjects: the states and logs speak the old ids, and
        // an LP solved under them may order its variables differently.
        // The slots start over with them.
        if self.seeds.update(instance) {
            self.switches = Switches::default();
            (self.steps, self.scans) = (Steps::default(), Scans::default());
            self.seeds.seat_slot.fill(NO_SEAT);
        }
        self.switches.begin(instance);
        self.seeds.seat_previous(instance, &mut self.switches);
        // The settled states depend on the options, a solve with step 3
        // off replaces no stored LP output, and one with step 4 off
        // scans nothing.
        if self.options != Some(options) {
            self.switches.settled.fill(false);
            self.switches.lp.fill(None);
            self.scans.forget();
            self.options = Some(options);
        }
        self.steps.begin();
        let kept = self.seeds.flags.iter().map(|f| f & KEPT != 0);
        self.scans.begin(instance.seeds.len(), kept);
    }

    /// Appends `op` to switch `i`'s log.
    pub(crate) fn emit(&mut self, instance: &PlacementInstance, i: usize, op: Op) {
        self.switches.emit(i, op, &self.seeds, instance);
    }

    /// The outcome of seed `s`'s step in the last solve, if the step may
    /// replay: the seed is clean, and every switch the step read then is
    /// at exactly the op prefix it read it at.
    pub(crate) fn replay(&mut self, instance: &PlacementInstance, s: usize) -> Option<Outcome> {
        if !self.seeds.clean(s) {
            return None;
        }
        let sw = &self.switches;
        if let Some(h) = self.seeds.seat(s) {
            let release = Op::new(s, OpKind::Release);
            if sw
                .prefix(h)
                .is_some_and(|at| sw.logs[h].get(at as usize) == Some(&release))
            {
                self.steps.replayed += 1;
                return Some(Outcome::Home(h));
            }
        }
        let (scan, reads) = self.steps.scan(s)?;
        let joined = || instance.seeds[s].candidates.iter().any(|&n| sw.joined(n));
        if reads
            .iter()
            .any(|&(i, at)| sw.prefix(i as usize) != Some(at))
            || (sw.any_joined && joined())
        {
            return None;
        }
        self.steps.carry(scan);
        self.steps.replayed += 1;
        Some(match scan.outcome {
            FAIL => Outcome::Fail,
            i => Outcome::Placed(i as usize),
        })
    }

    /// Builds switch `i`'s state for a probe and notes the op count it
    /// was read at.
    pub(crate) fn read(&mut self, instance: &PlacementInstance, i: usize) {
        let sw = &mut self.switches;
        sw.materialize(i, &self.seeds, instance);
        let at = sw.prefix(i).unwrap_or(sw.logs[i].len() as u32);
        self.steps.pending.push((i as u32, at));
    }

    /// Records the outcome of seed `s`'s probed step with its reads.
    pub(crate) fn record(&mut self, s: usize, outcome: Outcome) {
        match outcome {
            Outcome::Home(_) => self.steps.pending.clear(),
            Outcome::Placed(i) => self.steps.record(s, i as u32),
            Outcome::Fail => self.steps.record(s, FAIL),
        }
        self.steps.executed += 1;
    }

    /// Ends step 2 ([`Switches::settle_greedy`]); returns how many
    /// switches were rebuilt.
    pub(crate) fn end_greedy(&mut self, instance: &PlacementInstance) -> usize {
        self.steps.end();
        self.switches.settle_greedy(&self.seeds, instance)
    }

    /// Greedy steps replayed and executed this solve.
    pub(crate) fn steps_run(&self) -> (usize, usize) {
        (self.steps.replayed, self.steps.executed)
    }

    fn remap(&mut self, map: &[Option<usize>]) {
        let src = sources(map);
        self.seeds.remap(&src);
        self.steps.remap(map);
        self.switches.remap(map);
        self.scans.remap(map, &src);
    }

    fn bytes(&self) -> usize {
        self.seeds.bytes() + self.switches.bytes() + self.steps.bytes() + self.scans.bytes()
    }
}

/// The inverse of a remap: `src[new] = Some(old)` for `map[old] = Some(new)`.
pub(crate) fn sources(map: &[Option<usize>]) -> Vec<Option<usize>> {
    let len = map.iter().flatten().max().map_or(0, |m| m + 1);
    let mut src = vec![None; len];
    for (old, new) in map.iter().enumerate() {
        if let Some(new) = new {
            src[*new] = Some(old);
        }
    }
    src
}

/// Solver state retained between [`replan_delta`] calls: the greedy
/// pass's memory with each switch's last LP output, and the last
/// benefit scan.
#[derive(Debug, Default)]
pub struct SolveState {
    memo: Memo,
    /// Completed solves through this state (0 ⇒ next solve is cold).
    pub(crate) solves: u64,
    instruments: Option<Instruments>,
}

impl SolveState {
    /// Fresh, cold state.
    pub fn new() -> SolveState {
        SolveState::default()
    }

    /// Bytes the state holds, by capacity: the greedy memory, the stored
    /// LP outputs and the scan records.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Stored LP outputs.
    fn lp_outputs(&self) -> impl Iterator<Item = &Vec<(usize, Resources)>> {
        self.memo.switches.lp.iter().flatten()
    }

    /// Rewrites retained seed indices after the instance was rebuilt with
    /// a different seed numbering. `map[old] = Some(new)` keeps a seed
    /// under its new index — its products, previous seat, last step and
    /// last scan move with it; `None` (or out-of-range `old`) drops it,
    /// and every switch log and LP output mentioning it. A new index no
    /// old one maps to starts with no memory, so a seed that is new or
    /// redefined under it needs no dirty declaration. Callers that
    /// renumber their instance between solves (e.g. the seeder splicing
    /// a task into or out of its catalog) call this with the old→new
    /// correspondence so unrelated switches keep their memo.
    pub fn remap(&mut self, map: &[Option<usize>]) {
        self.memo.remap(map);
    }
}

/// Re-solves `instance` incrementally through `state`. Returns the
/// placement — bit-identical to `solve_heuristic(instance, options)` —
/// plus a [`DeltaReport`] of how much work was reused.
///
/// Telemetry (when given): `solver.replan_delta` counts calls,
/// `solver.delta_fallback_full` counts warm solves that replayed no LP,
/// `solver.greedy_steps_replayed` / `solver.greedy_steps_executed` count
/// greedy steps, the `solver.delta_frontier`, `solver.switches_rebuilt`
/// and `solver.benefit_pairs_evaluated` histograms record the LPs run,
/// the switches whose greedy state was rebuilt and the (seed, candidate)
/// pairs step 4 evaluated, and the `solver.delta_cache_entries` /
/// `solver.delta_cache_bytes` gauges say how many LP outputs are stored
/// and what the whole state retains afterwards.
pub fn replan_delta(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    state: &mut SolveState,
    delta: &ReplanDelta,
    telemetry: Option<&Telemetry>,
) -> (PlacementResult, DeltaReport) {
    state.memo.declare_dirty(&delta.dirty_seeds);
    let (result, mut report) = solve_core(instance, options, telemetry, &mut state.memo);
    report.warm = state.solves > 0;
    report.fallback_full = report.warm && report.lp_switches > 0 && report.reused == 0;
    state.solves += 1;

    if let Some(t) = telemetry {
        let same_registry = |i: &Instruments| std::ptr::eq(i.registry.registry(), t.registry());
        if !state.instruments.as_ref().is_some_and(same_registry) {
            state.instruments = Some(Instruments::new(t));
        }
        let i = state.instruments.as_ref().expect("just set");
        i.replans.inc();
        if report.fallback_full {
            i.fallbacks.inc();
        }
        i.frontier.record(report.frontier as u64);
        i.pairs_evaluated.record(report.pairs_evaluated as u64);
        i.steps_replayed.add(report.steps_replayed as u64);
        i.steps_executed.add(report.steps_executed as u64);
        i.switches_rebuilt.record(report.switches_rebuilt as u64);
        i.cache_entries.set(state.lp_outputs().count() as f64);
        i.cache_bytes.set(state.cache_bytes() as f64);
    }
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::solve_heuristic;
    use crate::model::{validate, PlacementTask, PreviousPlacement};
    use crate::workload::{generate, WorkloadConfig};

    fn small_instance(seed: u64) -> PlacementInstance {
        generate(&WorkloadConfig {
            n_switches: 12,
            n_tasks: 6,
            n_seeds: 60,
            rng_seed: seed,
            ..WorkloadConfig::default()
        })
    }

    fn assert_same(a: &PlacementResult, b: &PlacementResult) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.dropped_tasks, b.dropped_tasks);
    }

    fn as_previous(inst: &mut PlacementInstance, r: &PlacementResult) {
        let mut prev = PreviousPlacement::default();
        for (s, slot) in r.assignment.iter().enumerate() {
            if let Some((n, res)) = slot {
                prev.assignment.insert(s, (*n, *res));
            }
        }
        inst.previous = Some(prev);
    }

    #[test]
    fn cold_solve_matches_full_and_warms_the_cache() {
        let inst = small_instance(7);
        let opts = HeuristicOptions::default();
        let full = solve_heuristic(&inst, opts);
        let mut state = SolveState::new();
        let (r, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&r, &full);
        assert!(!report.warm);
        assert_eq!(report.reused, 0);
        assert_eq!(state.lp_outputs().count(), report.lp_switches);
        assert_eq!(report.frontier, report.lp_switches);
        let updates: usize = state.lp_outputs().map(Vec::len).sum();
        assert!(updates > 0);
        assert!(state.cache_bytes() >= updates * size_of::<(usize, Resources)>());
        assert!(report.pairs_evaluated > 0, "{report:?}");
        assert_eq!(state.solves, 1);
    }

    #[test]
    fn warm_resolve_of_identical_instance_reuses_every_lp() {
        let mut inst = small_instance(3);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (r0, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        as_previous(&mut inst, &r0);
        // The first warm solve gives every seed a previous seat, so every
        // log diverges; the second sees the seats of the first.
        let (r1, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&r1, &solve_heuristic(&inst, opts));
        as_previous(&mut inst, &r1);
        let (r2, rep2) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&r2, &solve_heuristic(&inst, opts));
        assert!(rep2.warm);
        assert!(
            rep2.reused > 0,
            "stable world must reuse memoized LPs: {rep2:?}"
        );
        validate(&inst, &r2).unwrap();
    }

    #[test]
    fn evicting_a_switch_stays_equivalent_to_full_solve() {
        let mut inst = small_instance(11);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (r0, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        as_previous(&mut inst, &r0);
        let dead = inst.switches[0].0;
        inst.switches.remove(0);
        if let Some(prev) = &mut inst.previous {
            prev.assignment.retain(|_, (n, _)| *n != dead);
        }
        let (r, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&r, &solve_heuristic(&inst, opts));
        assert!(report.warm);
        validate(&inst, &r).unwrap();
    }

    #[test]
    fn a_change_on_every_switch_replays_no_lp_and_reports_fallback() {
        let mut inst = small_instance(5);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (r0, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        as_previous(&mut inst, &r0);
        replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        // Degrade every switch slightly: every log diverges from op 0.
        for (_, ares) in &mut inst.switches {
            ares.0[0] *= 0.999;
        }
        let (r, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert!(report.fallback_full, "{report:?}");
        assert_eq!(report.reused, 0);
        assert_eq!(report.frontier, report.lp_switches);
        assert_same(&r, &solve_heuristic(&inst, opts));
    }

    #[test]
    fn one_state_solves_under_every_option_set() {
        // The previous placement stays fixed, so what changes between
        // solves is the options and, before the LP-less and the
        // migration-less solve, every switch's vCPU (it grows by 10 %):
        // the solve after each of those sees the logs that solve wrote.
        let on = HeuristicOptions::default();
        let mut inst = small_instance(13);
        let r0 = solve_heuristic(&inst, on);
        as_previous(&mut inst, &r0);
        let lp_off = HeuristicOptions {
            lp_redistribution: false,
            ..on
        };
        let migration_off = HeuristicOptions {
            migration: false,
            ..on
        };
        let mut state = SolveState::new();
        let rounds = [
            (on, false),
            (lp_off, true),
            (on, false),
            (migration_off, true),
            (on, false),
        ];
        for (round, (opts, grow)) in rounds.into_iter().enumerate() {
            if grow {
                for (_, ares) in &mut inst.switches {
                    ares.0[0] *= 1.1;
                }
            }
            let (r, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            let full = solve_heuristic(&inst, opts);
            assert_eq!(r.assignment, full.assignment, "round {round}: {opts:?}");
            assert_same(&r, &full);
            assert!(r.utility > 0.0, "round {round}: nothing placed");
        }
    }

    #[test]
    fn dirty_seed_purges_entries_mentioning_it() {
        // Twin states through the same rounds, until a round changes
        // nothing; then one of them declares a seed dirty. Its definition
        // did not really change, so neither may the placement — but no
        // op of it may match a log, and no LP output it is in replays.
        let mut inst = small_instance(9);
        let opts = HeuristicOptions::default();
        let (mut clean, mut dirty) = (SolveState::new(), SolveState::new());
        for _ in 0..3 {
            let (r, _) = replan_delta(&inst, opts, &mut clean, &ReplanDelta::default(), None);
            let (twin, _) = replan_delta(&inst, opts, &mut dirty, &ReplanDelta::default(), None);
            assert_same(&twin, &r);
            as_previous(&mut inst, &r);
        }
        // A seed an LP output names.
        let updated = dirty.lp_outputs().find_map(|ups| ups.first());
        let s = updated.expect("an LP that updated a seed").0;

        let (_, calm) = replan_delta(&inst, opts, &mut clean, &ReplanDelta::default(), None);
        assert_eq!((calm.frontier, calm.steps_executed), (0, 0), "{calm:?}");
        let (r, report) = replan_delta(&inst, opts, &mut dirty, &ReplanDelta::seeds([s]), None);
        assert_same(&r, &solve_heuristic(&inst, opts));
        // The seed's switch re-ran its LP ...
        assert!(report.frontier >= 1, "{report:?}");
        // ... and the seed's greedy step executed: it is the one thing
        // that differs from the twin, which replayed every step.
        assert!(report.steps_executed >= 1, "{report:?}");
        assert_eq!(
            report.steps_replayed + report.steps_executed,
            calm.steps_replayed
        );
    }

    #[test]
    fn a_reservation_that_comes_or_changes_reruns_its_switch_lp() {
        // A seed whose previous seat is on a switch it may not use leaves
        // its reservation standing there, beside the same residents (it
        // holds RAM only, which no home stay is short of): the switch's
        // LP reads it. It comes, stays, then changes bits.
        let opts = HeuristicOptions::default();
        let mut inst = small_instance(17);
        let mut state = SolveState::new();
        let mut r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        for _ in 0..3 {
            as_previous(&mut inst, &r);
            r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        }
        let (a, _) = r.assignment[0].expect("seed 0 placed");
        let x = (0..inst.seeds.len())
            .find(|&s| !inst.seeds[s].candidates.contains(&a))
            .expect("a seed that may not use seed 0's switch");
        for (round, ram) in [16.0, 16.0, 8.0].into_iter().enumerate() {
            as_previous(&mut inst, &r);
            let seat = (a, Resources::new(0.0, ram, 0.0, 1.0));
            inst.previous
                .as_mut()
                .expect("set")
                .assignment
                .insert(x, seat);
            let (next, report) =
                replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            assert_same(&next, &solve_heuristic(&inst, opts));
            // Only the switch whose reservation came or changed re-runs.
            let changed = round != 1;
            assert_eq!(
                report.frontier,
                usize::from(changed),
                "round {round}: {report:?}"
            );
            r = next;
        }
    }

    #[test]
    fn a_stable_world_replays_every_step_and_rebuilds_nothing() {
        let mut inst = small_instance(4);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (mut r, cold) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_eq!(cold.steps_replayed, 0);
        assert_eq!(cold.switches_rebuilt, inst.switches.len());
        // The first warm round gives every seed a previous seat; the
        // second sees nothing new.
        for _ in 0..2 {
            as_previous(&mut inst, &r);
            r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        }
        as_previous(&mut inst, &r);
        let (again, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&again, &solve_heuristic(&inst, opts));
        assert_eq!(report.steps_executed, 0, "{report:?}");
        assert_eq!(report.switches_rebuilt, 0, "{report:?}");
        assert_eq!(report.steps_replayed, cold.steps_executed);
    }

    #[test]
    fn a_stable_world_rescans_no_pair() {
        let mut inst = small_instance(4);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (mut r, cold) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert!(cold.pairs_evaluated > 0, "{cold:?}");
        let mut warm = Vec::new();
        for _ in 0..3 {
            as_previous(&mut inst, &r);
            let (next, report) =
                replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            assert_same(&next, &solve_heuristic(&inst, opts));
            warm.push(report);
            r = next;
        }
        // The third warm solve of an unchanged world copies every
        // benefit and reads every utility from the records.
        let third = warm[2];
        assert_eq!(third.pairs_evaluated, 0, "{warm:?}");
        assert_eq!(third.relocated, 0, "{warm:?}");
        let utility: f64 = r
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(s, a)| inst.seeds[s].util.eval(&a.as_ref()?.1))
            .sum();
        assert_eq!(r.utility.to_bits(), utility.to_bits());
    }

    #[test]
    fn a_catalog_rebuild_is_not_a_rescan() {
        // A stable world, then a one-seed task registered in front of the
        // others, as a submit splices into the seeder's catalog: every seed
        // moves up one index and the state is remapped. The records move
        // with the seeds, so the scan evaluates the new seed's pairs and
        // those of the switches it changed, not every pair again.
        let mut inst = small_instance(6);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (mut r, cold) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        for _ in 0..3 {
            as_previous(&mut inst, &r);
            r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        }
        let mut seeds = vec![PlacementSeed {
            id: 0,
            task: 0,
            ..inst.seeds[0].clone()
        }];
        for seed in &inst.seeds {
            let (id, task) = (seed.id + 1, seed.task + 1);
            seeds.push(PlacementSeed {
                id,
                task,
                ..seed.clone()
            });
        }
        let mut tasks = vec![PlacementTask {
            name: "new".into(),
            seeds: vec![0],
        }];
        for task in &inst.tasks {
            let seeds = task.seeds.iter().map(|s| s + 1).collect();
            tasks.push(PlacementTask {
                seeds,
                ..task.clone()
            });
        }
        (inst.seeds, inst.tasks) = (seeds, tasks);
        let map: Vec<Option<usize>> = (1..inst.seeds.len()).map(Some).collect();
        state.remap(&map);
        let mut prev = PreviousPlacement::default();
        for (s, slot) in r.assignment.iter().enumerate() {
            if let Some(seat) = slot {
                prev.assignment.insert(s + 1, *seat);
            }
        }
        inst.previous = Some(prev);
        let (next, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::seeds([0]), None);
        assert_same(&next, &solve_heuristic(&inst, opts));
        assert!(
            report.pairs_evaluated * 2 < cold.pairs_evaluated,
            "{report:?} against {cold:?}"
        );
    }

    #[test]
    fn remap_rewrites_indices_and_drops_unmapped_seeds() {
        let update = Resources::new(3.0, 0.0, 0.0, 0.0);
        let mut state = SolveState::new();
        let switches = &mut state.memo.switches;
        for (n, seed) in [(SwitchId(1), 0), (SwitchId(2), 2)] {
            let i = switches.slot(n);
            switches.lp[i] = Some(vec![(seed, update)]);
        }
        // A switch whose LP read seeds 0 and 2 reserved, in that order.
        let i = switches.slot(SwitchId(3));
        for s in [0, 2] {
            switches.states[i].reserve(s, SeedPolls::new(&[], &[]), Resources::ZERO);
        }
        switches.lp[i] = Some(Vec::new());
        let seeds = |state: &SolveState| -> Vec<usize> {
            state.lp_outputs().flatten().map(|(s, _)| *s).collect()
        };
        // Seed 0 → 5, seed 2 → 0: both updates survive under new indices;
        // the reservations would now come in the other order.
        state.remap(&[Some(5), None, Some(0)]);
        assert_eq!(seeds(&state), vec![5, 0]);
        assert_eq!(state.lp_outputs().count(), 2);
        // Dropping seed 0 (formerly 2) drops the output that names it.
        state.remap(&[None, None, None, None, None, Some(5)]);
        assert_eq!(seeds(&state), vec![5]);
        assert_eq!(state.lp_outputs().count(), 1);
    }

    #[test]
    fn single_seed_churn_sequence_stays_equivalent() {
        // A mini churn replay: repeatedly perturb one seed's world and
        // check delta ≡ full at every step.
        let mut inst = small_instance(21);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (mut r, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        for step in 0..4 {
            as_previous(&mut inst, &r);
            // Evict the busiest switch on even steps, restore it on odd.
            let victim = inst.switches[step % inst.switches.len()].0;
            if let Some(prev) = &mut inst.previous {
                prev.assignment.retain(|_, (n, _)| *n != victim);
            }
            let (delta_r, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            let full = solve_heuristic(&inst, opts);
            assert_same(&delta_r, &full);
            validate(&inst, &delta_r).unwrap();
            r = delta_r;
        }
    }
}
