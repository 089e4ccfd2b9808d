//! Incremental re-planning: [`replan_delta`] re-solves an instance with
//! a [`SolveState`] retained from the previous solve. Every step of
//! Alg. 1 follows the change instead of re-deriving the instance: steps
//! 1–3 through per-switch op logs and a worklist of greedy steps, step 4
//! and the tally through per-seed records of the last scan and per-list
//! rows of evaluated utilities. Step 5 commits from step 4's records.
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
//! **The remap.** Everything kept per seed is indexed by seed, so a
//! caller that renumbers its seeds hands [`SolveState::remap`] the
//! old → new map. The remap finds the first seed the map moves or drops,
//! `first`: every seed before it keeps its index, and none of its
//! records is touched. The per-seed vectors scatter their entries from
//! `first` on to the new indices; a new index no kept seed takes is a
//! seed new to the state. The benefit list and the `(seed, position)`
//! index (see step 4) are rewritten from their first entry at or past
//! `first`, and only the lists whose last seed is at or past it are
//! visited; a list is sorted again only when the rewrite left it out of
//! order. Seeds whose candidate lists (of more than one switch) are
//! equal share one list of the index, which names the list, not each
//! seed: the remap rewrites such a
//! list's members, never its pairs, so forty `place any` seeds over a
//! thousand switches cost forty entries, not forty thousand. Only the
//! log ops and states that name a seed from `first` on are rewritten,
//! and a switch whose log names a dropped seed starts over. A catalog
//! splice moves the seeds after the spliced task, so the remap costs
//! what those seeds hold; a general permutation is the case `first = 0`.
//! Renaming a seed changes no value a step or an LP reads: every record
//! keeps its meaning under the new index.
//!
//! **Step 1 as a kept order.** The greedy visits its *steps* — one per
//! seed, task by task in decreasing minimum utility, a task's seeds by
//! candidate count — in the order the last solve kept. A task's key and
//! step order are derived again only when its member list differs from
//! the kept one or one of its seeds is new or dirty, and the whole order
//! only when one of those changed it. When the change is whole tasks
//! spliced in and out — every task keeps its run (same members, none new
//! or dirty) or is new (none of its seeds has a step), and every other
//! run lost all its seeds to the remap — the kept runs stay in their
//! order with their keys, steps and fail points, and each new task's run
//! is spliced in where the layout's sort would put it: after the runs of
//! higher key, and of equal key and lower task index. The sort is
//! stable over the task index and a splice keeps the tasks' relative
//! order, so that is the layout's order; a NaN key, or kept runs out of
//! that order, lay the order out again instead. A run whose members
//! changed only because seeds entered or left the round's scope (a
//! drain, an uncordon) is patched in its place the same way: its key is
//! summed again in member order, a leaving seed's step goes and a
//! returning seed's comes in at its stable-sorted place — unless the new
//! key sorts the run elsewhere, when steps that stay would pass each
//! other and the order is laid out again. A new order whose
//! surviving steps keep their relative order and their tasks is the old
//! one with steps added and removed: the added steps are visited, and a
//! removed step's ops no longer fit the order, so their switches start
//! over. Any other new order is *scrambled*: every log starts over and
//! every step is visited. [`SolveState::audit`] holds the kept
//! order to a layout from scratch.
//!
//! **Step 2 as per-switch op logs.** The lingering reservations and the
//! greedy pass change a switch only through five ops — reserve, release,
//! place, unplace, restore — each a seed id and a kind whose values come
//! from that seed's inputs (products and previous seat). A switch's state
//! is therefore a function of its capacity and its op sequence, and every
//! op has a place in the pass: the reserve section first, then each step's
//! release and place, then, after a task's last step, the unplace and
//! restore of its all-or-nothing close. Each switch keeps the log of its
//! last solve in that order. A step's outcome is a function of the seed's
//! inputs and the states it read: its home switch, or every present
//! candidate when it scanned.
//!
//! **Previous seats** come as a dense table, one slot per seed
//! ([`crate::model::Seats`]), read beside the seats the last solve saw;
//! a seat that came, went or changed bits makes its seed unclean, and
//! the switches it left and took rewrite their reserve sections. The
//! table logs the seeds its writes touch, under a stamp no other table
//! has: a state that took its seats from the same table reads only the
//! seeds logged since (`Seats::changes_since`); any other table, or a
//! log that started over, is walked seed by seed. Every seed the log
//! does not name holds the seat it held when the state last read the
//! table, so the two reads agree ([`SolveState::audit`]).
//!
//! The pass *visits* only the steps on a worklist, in order: the steps of
//! seeds that are not clean (dirty, new, or with other previous-seat
//! bits), the readers of switches that joined, left, changed capacity or
//! start over, and the steps new to the order. A visited step
//! whose seed is clean and none of whose read switches has *diverged*
//! replays its recorded outcome; any other executes against states built
//! from the switch's capacity plus its log up to that step. A switch
//! diverges when a visited step's ops on it differ from the ones it
//! logged last solve (a seat change, a dirty seed on its seat, or a
//! capacity change diverges it from op 0, and its reserve section is
//! written again from the seeds seated there). From then on its log is
//! rewritten, and every later step that read it last solve — found
//! through the per-switch (seed, position) index of candidates — joins
//! the worklist. A task with a visited step writes its close again, and
//! a step whose outcome turns to or from failure puts the rest of its
//! task on the worklist. So every op that lands on a diverged switch
//! comes from a visited step. A step that is not visited read only
//! switches that had not diverged before it: the states it read are the
//! last solve's, its outcome stands, and its ops are in the logs of the
//! switches they landed on, at the place they have this solve too. A
//! switch whose log did not diverge keeps its state from the last solve
//! untouched. A from-scratch solve is the case where every switch joined
//! and every step is on the worklist.
//!
//! **Read-only probes.** A probe that reads an undiverged switch needs
//! its state as it stands before the step: the capacity plus the log's
//! ops before the step's key. Each switch keeps its usage as the whole
//! log leaves it — its greedy state, compact: non-poll usage, poll cells
//! and their `Σ max` — written whenever step 2 builds the switch and
//! dropped with the log, and every write or drop bumps the switch's
//! *stamp*. A probe of a candidate whose log holds no op at or past the
//! step's key (the log is in key order, so its last op decides) reads
//! that kept usage in place: no reset, no replay. Any other read, and
//! the home probe, which needs the seed's reservation and the poll
//! entries under it, builds the state in the state's one probe buffer
//! (a probe looks at one switch at a time; a later read of the same
//! switch goes on from where the buffer stands). The kept usage is exact
//! for the same reason the buffer is: an undiverged log holds the last
//! solve's ops with the last solve's inputs, and [`SolveState::audit`]
//! holds it to a rebuild.
//!
//! A candidate's greedy score (step 2a: the utility achievable there
//! less the extra polling, or no score where the seed does not fit) is a
//! pure function of the seed's definition — the one step 4's rows are
//! keyed on (`Definition`) — and of the load the probe reads. So a
//! shared list keeps a second row beside step 4's, its *score row*: per
//! position, the score the members' definition gets against the
//! switch's kept usage, stamped with the switch's stamp when it was
//! taken. An indexed member's probe walks the list's slots, which are
//! its candidates in order. Where it would read a switch's kept usage in
//! place, it reads the entry if the entry's stamp is the switch's, and
//! otherwise takes the score from the kept usage and stores it; every
//! other candidate is read and scored as above. An entry under the
//! switch's current stamp was taken from the usage kept now, since no
//! write or drop leaves the stamp as it was, by a member whose
//! definition is this seed's to the bit; so it is the score the walk
//! over every candidate computes, and the same fit test, strict `>` and
//! first maximum pick the same switch. A warm solve indexes its new and
//! dirty seeds before the greedy, so a new watcher's probe reads what its
//! list's earlier probes stored; a cold one indexes nothing, and its
//! probes walk every candidate. [`SolveState::audit`] holds every entry
//! under a current stamp to its recomputation.
//!
//! The switch's own state — the last solve's after step 3 — is left as
//! it is, so a switch that is only read is not rebuilt: step 2's end,
//! step 3's refresh and step 4 do not visit it
//! ([`DeltaReport::switches_read`] counts the ones a probe built or
//! viewed). A switch that diverges takes the buffer, built up to the
//! divergence, as its state, and from then on is rebuilt as any diverged
//! switch is.
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
//! which is why an options change drops it all. The post-step-3
//! assignment is kept between solves and patched: the seeds whose step
//! changed what it placed, and the residents of switches whose greedy
//! state was rebuilt. The post-LP refresh runs only on switches whose
//! greedy state was rebuilt or whose LP ran; any other switch already
//! holds its result from the last solve.
//!
//! **Step 4.** A seed's benefit at a candidate is a pure function of the
//! seed's products, its post-step-3 seat (switch and allocation bits)
//! and the candidate's post-step-3 state. Each seed keeps whether it
//! was scanned at the seat the kept assignment holds, its utility there
//! and the benefits it pushed (`Scans`); a write that changes a seat
//! notes the one it replaced. A switch's post-step-3 state is the last
//! solve's unless it was built this solve and its LP, if any, ran rather
//! than replayed (`Switches::moved`): a switch that replays its LP output
//! is refreshed from the same residents in the same order, the same
//! reservations and the same allocations. Step 5 changes states but
//! logs no op, and a switch it changed is built again next solve, so
//! what it did never reaches the next scan. Only seeds whose post-step-3
//! seat was written this solve, or that have a candidate that moved,
//! joined or left — found through the per-switch (seed, position) index
//! of candidates (a seed's own pairs, or the members of the shared list
//! its candidates equal; [`SolveState::audit`] holds it to one
//! built from scratch) — are scanned; every other seed's benefits are
//! copied as a block. A
//! kept seed at the seat it was scanned at evaluates only the positions
//! that changed; any other placed seed evaluates every position. The
//! records follow [`SolveState::remap`], are dropped for seeds that are
//! new or declared dirty, and are dropped with the slots on a subject
//! renumbering and on an options change.
//!
//! The utility a seed reaches at a candidate (before the hysteresis,
//! which reads the seed's own seat) is a pure function of the seed's
//! *definition* — its interned poll subjects and their demand
//! polynomials, its minimum allocation and utility, and its utility
//! analysis (`Definition`) — and of the candidate's post-step-3 state.
//! So the seeds of one shared list evaluate a position once between
//! them: a seed joins a list only when its definition equals a member's
//! to the bit (its key, a hash, is computed when a list of its
//! candidates exists, and only finds the list), and the list keeps a
//! *row*, the utility at each position as the first member that needed
//! it evaluated it. An entry is exact for as long as the switch's
//! post-step-3 state is the one it read: `Scans::prepare` makes it
//! stale where the switch moved, joined or left — the same switches
//! whose pairs it re-evaluates — and a list that forms or empties, or
//! records that are forgotten, start their row over. Only an indexed
//! member reads the row: a member whose candidates or definition changed
//! is not indexed until the index takes it out. A warm solve indexes its
//! new and dirty seeds before the greedy, so they read the rows of the
//! lists they join; a cold one indexes nothing until the next solve.
//! [`SolveState::audit`] holds every entry to its recomputation.
//!
//! **Step 5.** A benefit keeps the utility `u` step 4 found; the ranking
//! subtracts the seed's utility at its seat, kept in its record, which is
//! the value step 4 subtracted: a benefit is kept only while its seed's
//! record is, so the gains, and the stable sort over them, are the
//! from-scratch solve's to the bit. A commit unsettles the two switches it
//! changes (`Switches::unsettle`); every other switch still holds the
//! post-step-3 state step 4 read. There the allocation step 5 would make
//! is the one step 4 made, it fits, and its utility is `u`: a benefit
//! whose target is settled tests `u` against the hysteresis, and only a
//! pair that clears it, or whose target a commit touched, computes the
//! allocation, the fit and the utility again. A seed step 5 moved is
//! compared with the utility it reached where it went.
//!
//! **Tally.** Each seed keeps the utility at its final allocation (the
//! recorded one where that is the scanned allocation) and whether it sits
//! off its previous seat. Both are written again for the seeds whose
//! seat, step or allocation moved this solve or whom step 5 moved this
//! solve or the last; the objective is their sum in seed order, as
//! `utility_of` sums it.
//!
//! So the delta solve's assignment, utility bits, migration count and
//! dropped-task list are identical to `crate::solve_heuristic` on the
//! same instance. `prop_delta.rs` pins this under random churn,
//! `heuristic::tests::scan_property` holds a rescan to the
//! per-candidate scan, and `heuristic::tests::probe_property` a probe
//! through a score row to the walk over every candidate.

use std::mem::size_of;
use std::sync::Arc;

use std::hash::Hasher;

use crate::fxhash::{FxHashMap, FxHasher};

use farm_almanac::analysis::{Poly, UtilAnalysis, UtilExpr};
use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_telemetry::{Counter, Gauge, Histogram, SpanLog, Telemetry};

use crate::heuristic::{
    achievable_utility, greedy_score, hysteresis, solve_core, HeuristicOptions, Load, SeedPolls,
    SwitchState, Usage,
};
use crate::model::{
    LogAt, PlacementInstance, PlacementResult, PlacementSeed, PollDemand, Seat, Seats,
    SubjectInterner, SwitchList,
};

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
    steps_visited: Arc<Counter>,
    switches_rebuilt: Arc<Histogram>,
    switches_read: Arc<Counter>,
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
            steps_visited: t.counter("solver.greedy_steps_visited"),
            switches_rebuilt: t.histogram("solver.switches_rebuilt", SWITCH_COUNT_BOUNDS),
            switches_read: t.counter("solver.switches_read"),
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

/// One seed's slot of an assignment: its switch and allocation.
pub(crate) type Slot = Option<(SwitchId, Resources)>;

/// The post-step-3 assignment, kept between solves as each seed's
/// switch slot (or [`NO_SEAT`]) and allocation, and what this solve
/// changed of it.
#[derive(Debug, Default)]
pub(crate) struct Post {
    at: Vec<u32>,
    res: Vec<Resources>,
    /// The seeds a write changed this solve, each with the slot and
    /// allocation it had before the first such write.
    changed: Vec<(u32, u32, Resources)>,
    written: Vec<bool>,
    /// Whether changes are noted: not on a full solve, which scans and
    /// tallies every seed.
    track: bool,
}

impl Post {
    /// Seed `s`'s allocation, if it is placed.
    pub(crate) fn res(&self, s: usize) -> Option<Resources> {
        (self.at[s] != NO_SEAT).then_some(self.res[s])
    }

    /// Sets seed `s`'s switch slot and allocation, noting what they were
    /// when the bits change.
    pub(crate) fn write(&mut self, s: usize, v: Option<(usize, Resources)>) {
        let (at, res) = v.map_or((NO_SEAT, Resources::ZERO), |(i, r)| (i as u32, r));
        if self.at[s] == at && (at == NO_SEAT || bits(&self.res[s]) == bits(&res)) {
            return;
        }
        if self.track && !self.written[s] {
            self.written[s] = true;
            self.changed.push((s as u32, self.at[s], self.res[s]));
        }
        (self.at[s], self.res[s]) = (at, res);
    }

    /// The assignment slot of switch slot `at` (or [`NO_SEAT`]) and `res`.
    fn slot(at: u32, res: Resources, ids: &[SwitchId]) -> Slot {
        (at != NO_SEAT).then(|| (ids[at as usize], res))
    }

    /// Seed `s`'s slot of the assignment.
    pub(crate) fn get(&self, s: usize, ids: &[SwitchId]) -> Slot {
        Post::slot(self.at[s], self.res[s], ids)
    }

    /// The whole assignment.
    pub(crate) fn assignment(&self, ids: &[SwitchId]) -> Vec<Slot> {
        let slot = |(&at, &res): (&u32, &Resources)| Post::slot(at, res, ids);
        self.at.iter().zip(&self.res).map(slot).collect()
    }

    fn resize(&mut self, n: usize) {
        self.at.resize(n, NO_SEAT);
        self.res.resize(n, Resources::ZERO);
        self.written.resize(n, false);
    }

    /// Starts the next solve's record of changes.
    fn settle(&mut self) {
        for &(s, ..) in &self.changed {
            self.written[s as usize] = false;
        }
        self.changed.clear();
        self.changed.shrink_to(64);
    }

    fn remap(&mut self, r: &Remap) {
        self.settle();
        r.apply(&mut self.at, NO_SEAT);
        r.apply(&mut self.res, Resources::ZERO);
        r.apply(&mut self.written, false);
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.at)
            + vec_bytes(&self.res)
            + vec_bytes(&self.changed)
            + vec_bytes(&self.written)
    }
}

/// Bytes a `Vec` holds, by capacity.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// A renumbering of the seeds (`map[old] = Some(new)`; `None`, or an
/// old index past the map, drops the seed), seen from the first seed it
/// moves: every seed before `first` keeps its index, so a remap rewrites
/// only what is kept of the seeds from `first` on. A catalog splice
/// moves the seeds after the spliced task, each by the same shift; a
/// general permutation is the case `first = 0`.
#[derive(Debug)]
pub(crate) struct Remap<'a> {
    map: &'a [Option<usize>],
    /// The first old index the map moves or drops.
    first: usize,
    /// The per-seed vectors' length.
    len: usize,
    /// The old index of each new index from `first` on; `None` for one
    /// no kept seed takes, a seed new to the state.
    src: Vec<Option<usize>>,
}

impl<'a> Remap<'a> {
    /// The renumbering `map` of per-seed vectors `len` long.
    pub(crate) fn new(map: &'a [Option<usize>], len: usize) -> Remap<'a> {
        let at = |o: usize| map.get(o).copied().flatten();
        let first = (0..len).find(|&o| at(o) != Some(o)).unwrap_or(len);
        let mut src = Vec::new();
        for o in first..len {
            let Some(n) = at(o) else {
                continue;
            };
            if src.len() <= n - first {
                src.resize(n - first + 1, None);
            }
            src[n - first] = Some(o);
        }
        Remap {
            map,
            first,
            len,
            src,
        }
    }

    /// Whether no seed moves: the vectors stay as they are.
    fn identity(&self) -> bool {
        self.first == self.len
    }

    /// The per-seed vectors' length after.
    fn new_len(&self) -> usize {
        self.first + self.src.len()
    }

    /// The new indices from `first` on that no kept seed takes.
    fn holes(&self) -> impl Iterator<Item = usize> + '_ {
        let first = self.first;
        (self.src.iter().enumerate()).filter_map(move |(k, o)| o.is_none().then_some(first + k))
    }

    /// The new index of old seed `s`.
    fn seed(&self, s: usize) -> Option<usize> {
        if s < self.first {
            return Some(s);
        }
        self.map.get(s).copied().flatten()
    }

    /// [`Remap::seed`] of a seed id held as a `u32`.
    fn id(&self, s: u32) -> Option<u32> {
        self.seed(s as usize).map(|n| n as u32)
    }

    /// Moves a per-seed vector to the new numbering: the entries from
    /// `first` on are taken off and scattered to their new indices, and
    /// a new index no kept seed takes holds `none`. The entries before
    /// `first` stay where they are.
    fn apply<T: Copy>(&self, v: &mut Vec<T>, none: T) {
        debug_assert_eq!(v.len(), self.len, "a per-seed vector of another length");
        if self.identity() {
            return;
        }
        let tail = v.split_off(self.first);
        let new_len = self.new_len();
        grow(v, new_len);
        v.resize(new_len, none);
        for (o, x) in (self.first..).zip(tail) {
            if let Some(n) = self.seed(o) {
                v[n] = x;
            }
        }
    }

    /// Rewrites a list ascending by (seed, position): the items from the
    /// first seed at or past `first` on take their seed's new index, the
    /// dropped seeds' items go, and the tail is sorted again if the map
    /// put it out of order.
    fn ascending<T: SeedPair>(&self, v: &mut Vec<T>) {
        let from = v.partition_point(|x| (x.pair().0 as usize) < self.first);
        let mut keep = from;
        for k in from..v.len() {
            if let Some(n) = self.id(v[k].pair().0) {
                v[k].set_seed(n);
                v.swap(keep, k);
                keep += 1;
            }
        }
        v.truncate(keep);
        if !v[from..].is_sorted_by_key(T::pair) {
            v[from..].sort_unstable_by_key(T::pair);
        }
    }
}

/// Makes room for `len` items in `v`, growing it by an eighth at least
/// rather than doubling it: the per-seed vectors are kept between solves.
fn grow<T>(v: &mut Vec<T>, len: usize) {
    if len > v.capacity() {
        v.reserve_exact((len - v.len()).max(v.len() / 8));
    }
}

/// An item of a list kept ascending by (seed, candidate position).
trait SeedPair {
    fn pair(&self) -> (u32, u32);
    fn set_seed(&mut self, s: u32);
}

impl SeedPair for u32 {
    fn pair(&self) -> (u32, u32) {
        (*self, 0)
    }

    fn set_seed(&mut self, s: u32) {
        *self = s;
    }
}

impl SeedPair for (u32, u32) {
    fn pair(&self) -> (u32, u32) {
        *self
    }

    fn set_seed(&mut self, s: u32) {
        self.0 = s;
    }
}

/// What one [`replan_delta`] call did, for telemetry and the churn bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Switches that carried an LP this solve.
    pub lp_switches: usize,
    /// Switches whose LP ran.
    pub frontier: usize,
    /// Switches whose kept LP output was replayed.
    pub reused: usize,
    /// A warm solve in which no LP-bearing switch could replay.
    pub fallback_full: bool,
    /// False on the first (cold) solve of a [`SolveState`].
    pub warm: bool,
    /// Greedy steps (one per seed the pass reached) whose outcome was
    /// kept from the last solve without a probe, whether the pass
    /// visited them or not.
    pub steps_replayed: usize,
    /// Greedy steps that probed their switches.
    pub steps_executed: usize,
    /// Greedy steps the pass visited: the worklist's steps, each of
    /// which replayed, executed or found its task already failed. Every
    /// step on a cold solve, none in a world that did not change.
    pub steps_visited: usize,
    /// Visited steps of clean seeds that joined the worklist during the
    /// pass, because an earlier step diverged a switch they read.
    pub steps_cascaded: usize,
    /// Switches whose greedy state was rebuilt from their op log rather
    /// than kept from the last solve.
    pub switches_rebuilt: usize,
    /// Undiverged switches a probe built (in a buffer, from their op
    /// log) or viewed (at their kept usage), and that kept their state
    /// from the last solve. A switch whose score a probe read from its
    /// shared list's score row was neither.
    pub switches_read: usize,
    /// Candidates a probe scored by reading its shared list's score row
    /// at an entry an earlier solve took, instead of scoring the switch.
    pub probe_rows_read: usize,
    /// Evaluations step 4 made of the utility a seed reaches at a
    /// candidate: one per (seed, candidate) pair it neither copied from
    /// the last solve nor read from a shared list's row (and one per
    /// position of such a row it filled); every pair of a seed without
    /// a shared list on a cold solve, none in a world that did not
    /// change (0 when the migration pass is off).
    pub pairs_evaluated: usize,
    /// (seed, candidate) pairs step 4 read from a shared list's row,
    /// filled by another member or by an earlier solve, instead of
    /// evaluating them.
    pub pairs_read: usize,
    /// Seeds step 5 relocated.
    pub relocated: usize,
    /// Runs of the step order patched in place because seeds entered or
    /// left the round's scope, rather than laid out again.
    pub runs_patched: usize,
}

impl DeltaReport {
    /// Every field by name, a flag as 0 or 1: what a traced round
    /// counts.
    pub fn counts(&self) -> [(&'static str, u64); 16] {
        let n = |v: usize| v as u64;
        [
            ("lp_switches", n(self.lp_switches)),
            ("frontier", n(self.frontier)),
            ("reused", n(self.reused)),
            ("fallback_full", u64::from(self.fallback_full)),
            ("warm", u64::from(self.warm)),
            ("steps_replayed", n(self.steps_replayed)),
            ("steps_executed", n(self.steps_executed)),
            ("steps_visited", n(self.steps_visited)),
            ("steps_cascaded", n(self.steps_cascaded)),
            ("switches_rebuilt", n(self.switches_rebuilt)),
            ("switches_read", n(self.switches_read)),
            ("probe_rows_read", n(self.probe_rows_read)),
            ("pairs_evaluated", n(self.pairs_evaluated)),
            ("pairs_read", n(self.pairs_read)),
            ("relocated", n(self.relocated)),
            ("runs_patched", n(self.runs_patched)),
        ]
    }
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

/// A seed's step record: the slot its step went to, with [`HOME`] set
/// for a home stay; or [`FAILED`]; or [`NOT_RUN`] when its task failed
/// before it (or it never ran).
const NOT_RUN: u32 = u32::MAX;
const FAILED: u32 = u32::MAX - 1;
const HOME: u32 = 1 << 31;

fn record_of(o: Outcome) -> u32 {
    match o {
        Outcome::Fail => FAILED,
        Outcome::Home(i) => i as u32 | HOME,
        Outcome::Placed(i) => i as u32,
    }
}

/// The slot a record's step went to, and whether it stayed home.
fn landing(r: u32) -> Option<(usize, bool)> {
    match r {
        NOT_RUN | FAILED => None,
        r => Some(((r & !HOME) as usize, r & HOME != 0)),
    }
}

/// Per-seed flags: the products are current,
const KNOWN: u8 = 1;
/// the seed has a feasible allocation,
const FEASIBLE: u8 = 2;
/// the products are the last solve's (not new, not declared dirty),
const KEPT: u8 = 4;
/// and its ops match its logged ones (products and previous seat as last
/// solve).
const CLEAN: u8 = 8;

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
    /// Seeds that are not `KNOWN`: declared dirty, or new.
    unknown: Vec<u32>,
    /// This solve's seeds that are not `CLEAN`; they are clean again at
    /// the start of the next one unless something else says otherwise.
    unclean: Vec<u32>,
    /// Where the previous seats' table stood when the seats were last
    /// taken from it; `None` when they were not taken from a table.
    seen: Option<LogAt>,
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

    /// What step 4 reads of seed `s` besides the switch.
    pub(crate) fn definition<'a>(
        &'a self,
        instance: &'a PlacementInstance,
        s: usize,
    ) -> Definition<'a> {
        Definition {
            ids: &self.ids[self.at[s] as usize..self.at[s + 1] as usize],
            polls: &instance.seeds[s].polls,
            min: self.min_alloc(s),
            util: &instance.seeds[s].util,
        }
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

    /// The seed's ops no longer match its logged ones.
    fn soil(&mut self, s: usize) {
        if self.flags[s] & CLEAN != 0 {
            self.flags[s] &= !CLEAN;
            self.unclean.push(s as u32);
        }
    }

    /// The seed's products are stale.
    fn forget(&mut self, s: usize) {
        if self.flags[s] & KNOWN != 0 {
            self.flags[s] &= !KNOWN;
            self.unknown.push(s as u32);
        }
    }

    /// Brings the products up to `instance`: the last solve's unclean
    /// seeds are clean again, and seeds not known (new, or declared
    /// dirty) get theirs computed and start unclean. Returns the seeds
    /// computed, ascending, and whether the subject ids had to be
    /// renumbered.
    fn update(&mut self, instance: &PlacementInstance) -> (Vec<u32>, bool) {
        let n = instance.seeds.len();
        let len = self.len();
        self.flags.resize(n, 0);
        self.min_res.resize(n, Resources::ZERO);
        self.min_u.resize(n, 0.0);
        self.seat_slot.resize(n, NO_SEAT);
        self.seat_res.resize(n, Resources::ZERO);
        self.unknown.extend(len as u32..n as u32);
        for s in std::mem::take(&mut self.unclean) {
            let flags = &mut self.flags[s as usize];
            if *flags & KNOWN != 0 {
                *flags |= KEPT | CLEAN;
            }
        }
        let mut fresh = std::mem::take(&mut self.unknown);
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|&s| (s as usize) < n && self.flags[s as usize] & KNOWN == 0);
        if fresh.is_empty() {
            return (fresh, false);
        }
        // The ids stand in place up to the first computed seed without
        // room for its polls (one new to the layout has none); from there
        // they are laid out again: known seeds keep theirs, the others get
        // room for theirs.
        let fits = |s: usize| {
            s + 1 < self.at.len()
                && (self.at[s + 1] - self.at[s]) as usize == instance.seeds[s].polls.len()
        };
        if let Some(&from) = fresh.iter().find(|&&s| !fits(s as usize)) {
            if self.at.is_empty() {
                self.at.push(0);
            }
            let from = (from as usize).min(self.at.len() - 1);
            let base = self.at[from] as usize;
            let old_at = self.at.split_off(from + 1);
            let old_ids = self.ids.split_off(base);
            let polls = instance.seeds[from..].iter().map(|s| s.polls.len()).sum();
            self.ids.reserve_exact(polls);
            self.at.reserve_exact(n - from);
            let mut start = base;
            for (s, seed) in instance.seeds.iter().enumerate().skip(from) {
                if self.flags[s] & KNOWN == 0 {
                    self.ids.resize(self.ids.len() + seed.polls.len(), 0);
                } else {
                    let end = old_at[s - from] as usize;
                    self.ids
                        .extend_from_slice(&old_ids[start - base..end - base]);
                }
                start = old_at.get(s - from).map_or(start, |&a| a as usize);
                self.at.push(self.ids.len() as u32);
            }
        }
        for &s in &fresh {
            let (s, seed) = (s as usize, &instance.seeds[s as usize]);
            let ids = &mut self.ids[self.at[s] as usize..self.at[s + 1] as usize];
            for (id, p) in ids.iter_mut().zip(&seed.polls) {
                *id = self.subjects.intern(&p.subject);
            }
            self.flags[s] = KNOWN;
            self.unclean.push(s as u32);
            if let Some((res, u)) = seed.util.min_feasible() {
                (self.min_res[s], self.min_u[s]) = (res, u);
                self.flags[s] |= FEASIBLE;
            }
        }
        if first_seen(&self.ids) {
            return (fresh, false);
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
        (fresh, moved)
    }

    /// Takes this solve's previous seats from the instance's seat table:
    /// the seeds the table logged since the seats were last taken from
    /// it ([`Seats::changes_since`]), or, from any other table, every
    /// seed, each beside its kept seat. A seed whose seat came, went or
    /// differs in any bit from the last solve's is not clean, and the
    /// switches it left and took rewrite their reserve sections.
    fn seat_previous(&mut self, instance: &PlacementInstance, switches: &mut Switches) {
        let table = instance.previous.as_ref().map(|p| &p.assignment);
        let seats = table.map_or(&[][..], |t| t.slots());
        let logged = table.and_then(|t| t.changes_since(self.seen));
        self.seen = table.map(Seats::log_at);
        let n = self.len();
        match logged {
            Some(log) => {
                for s in log.iter().map(|&s| s as usize).filter(|&s| s < n) {
                    if !self.seated(s, seats, &switches.ids) {
                        self.take_seat(s, seats, switches);
                    }
                }
            }
            None => {
                for s in 0..n {
                    if !self.seated(s, seats, &switches.ids) {
                        self.take_seat(s, seats, switches);
                    }
                }
            }
        }
    }

    /// Whether seed `s`'s kept seat is `seats`' to the bit.
    #[inline]
    fn seated(&self, s: usize, seats: &[Option<Seat>], ids: &[SwitchId]) -> bool {
        let slot = self.seat_slot[s];
        match seats.get(s).copied().flatten() {
            Some((n, res)) => {
                slot != NO_SEAT && ids[slot as usize] == n && bits(&self.seat_res[s]) == bits(&res)
            }
            None => slot == NO_SEAT,
        }
    }

    /// Takes seed `s`'s seat from `seats`, which differs from its kept
    /// one.
    fn take_seat(&mut self, s: usize, seats: &[Option<Seat>], switches: &mut Switches) {
        let slot = self.seat_slot[s];
        let seat = seats.get(s).copied().flatten();
        self.soil(s);
        let from = (slot != NO_SEAT).then_some(slot as usize);
        let to = seat.map(|(n, res)| (switches.slot(n), res));
        switches.move_seat(s, from, to.map(|(i, _)| i));
        self.seat_slot[s] = to.map_or(NO_SEAT, |(i, _)| i as u32);
        if let Some((_, res)) = to {
            self.seat_res[s] = res;
        }
    }

    /// See [`SolveState::check_seats`].
    fn check_seats(&self, table: &Seats, ids: &[SwitchId]) -> Result<(), String> {
        let Some(logged) = table.changes_since(self.seen) else {
            return Ok(());
        };
        let seats = table.slots();
        match (0..self.len())
            .find(|&s| !self.seated(s, seats, ids) && !logged.contains(&(s as u32)))
        {
            Some(s) => Err(format!("seats: seed {s}'s kept seat is not the table's")),
            None => Ok(()),
        }
    }

    /// Moves the seeds from `r.first` on to their new indices: their
    /// products, seats and flags, and the subject-id spans past the
    /// first moved seed's. A new index no kept seed takes is unknown.
    fn remap(&mut self, r: &Remap) {
        if r.identity() {
            return;
        }
        debug_assert_eq!(self.at.len(), self.len() + 1);
        grow(&mut self.at, r.new_len() + 1);
        let old_at = self.at.split_off(r.first + 1);
        let base = self.at[r.first] as usize;
        let old_ids = self.ids.split_off(base);
        let span = |o: usize| {
            let start = if o == r.first {
                base
            } else {
                old_at[o - r.first - 1] as usize
            };
            start - base..old_at[o - r.first] as usize - base
        };
        r.apply(&mut self.min_res, Resources::ZERO);
        r.apply(&mut self.min_u, 0.0);
        r.apply(&mut self.seat_slot, NO_SEAT);
        r.apply(&mut self.seat_res, Resources::ZERO);
        r.apply(&mut self.flags, 0);
        for (n, &o) in (r.first..).zip(&r.src) {
            if let Some(o) = o.filter(|_| self.flags[n] & KNOWN != 0) {
                self.ids.extend_from_slice(&old_ids[span(o)]);
            }
            self.at.push(self.ids.len() as u32);
        }
        let moved = |s: &mut u32| r.id(*s).map(|n| *s = n).is_some();
        self.unclean.retain_mut(moved);
        self.unknown.retain_mut(moved);
        self.unknown.extend(r.holes().map(|n| n as u32));
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
            + vec_bytes(&self.unknown)
            + vec_bytes(&self.unclean)
    }
}

/// What step 4 reads of a seed besides the switch it looks at: its
/// interned poll subjects and their demands, its minimum feasible
/// allocation and utility (or none), and its utility analysis. Two
/// seeds whose definitions are equal to the bit reach the same utility
/// on any switch state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Definition<'a> {
    pub(crate) ids: &'a [u32],
    pub(crate) polls: &'a [PollDemand],
    pub(crate) min: Option<(Resources, f64)>,
    pub(crate) util: &'a UtilAnalysis,
}

impl Definition<'_> {
    /// Feeds every bit of the definition to `f`, a word at a time; each
    /// variable-length part is led by its length, so two definitions
    /// feed the same words only when they are equal to the bit.
    fn words(&self, f: &mut impl FnMut(u64)) {
        fn poly(p: &Poly, f: &mut impl FnMut(u64)) {
            p.coeffs.iter().for_each(|c| f(c.to_bits()));
            f(p.constant.to_bits());
        }
        fn expr(e: &UtilExpr, f: &mut impl FnMut(u64)) {
            match e {
                UtilExpr::Poly(p) => {
                    f(0);
                    poly(p, f);
                }
                UtilExpr::Min(a, b) | UtilExpr::Max(a, b) => {
                    f(if matches!(e, UtilExpr::Min(..)) { 1 } else { 2 });
                    expr(a, f);
                    expr(b, f);
                }
            }
        }
        f(self.ids.len() as u64);
        self.ids.iter().for_each(|&id| f(u64::from(id)));
        f(self.polls.len() as u64);
        self.polls.iter().for_each(|p| poly(&p.demand, f));
        match self.min {
            Some((res, u)) => {
                f(1);
                bits(&res).into_iter().for_each(&mut *f);
                f(u.to_bits());
            }
            None => f(0),
        }
        f(self.util.branches.len() as u64);
        for b in &self.util.branches {
            f(b.constraints.len() as u64);
            b.constraints.iter().for_each(|c| poly(c, f));
            expr(&b.utility, f);
        }
    }

    /// The hash a shared list's definition is looked up by.
    pub(crate) fn key(&self) -> u64 {
        let mut h = FxHasher::default();
        self.words(&mut |w| h.write_u64(w));
        h.finish()
    }

    /// Whether `other` is this definition, to the bit.
    pub(crate) fn same(&self, other: &Definition) -> bool {
        let mut mine = Vec::new();
        self.words(&mut |w| mine.push(w));
        let (mut at, mut same) = (0, true);
        other.words(&mut |w| {
            same &= mine.get(at) == Some(&w);
            at += 1;
        });
        same && at == mine.len()
    }
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

/// [`Order::step_of`] of a seed that is in no task's list.
const NO_STEP: u32 = u32::MAX;

/// One task's run of steps in [`Order::steps`].
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Its index in the instance's task list.
    task: u32,
    start: u32,
    end: u32,
    /// Its step-1 key, to the bit.
    key: u64,
    /// Its first failed step, or `end`: the steps before it placed their
    /// seeds, and those after it did not run.
    fail: u32,
    /// The task was dropped last solve, so its seeds' post-step-3 slots
    /// are empty.
    dropped: bool,
}

/// The sort key of an op in the pass: the reserve section by seed, then
/// step `k`'s release and place, then the close of a task that ends
/// before step `end`.
fn step_key(k: usize) -> u64 {
    (2 * k as u64 + 1) << 32
}

fn close_key(end: usize) -> u64 {
    (2 * end as u64) << 32
}

/// Step 1 as the last solve left it: the greedy's steps in order, task by
/// task, and where each seed's step is.
#[derive(Debug, Default)]
struct Order {
    /// The seeds in step order.
    steps: Vec<u32>,
    /// Each run's task's seed list as the instance gave it, at the run's
    /// place.
    members: Vec<usize>,
    /// Each seed's step, or [`NO_STEP`].
    step_of: Vec<u32>,
    runs: Vec<Run>,
    /// Some seed has more than one step, and so one record for two: the
    /// next solve starts over.
    repeats: bool,
}

/// What [`Order::update`] found.
#[derive(Debug, Default)]
struct Reorder {
    /// The steps that stayed did not keep their order, or their tasks:
    /// every log starts over and every step is visited.
    scrambled: bool,
    /// Steps that go on the worklist: new in the order, or of a task
    /// whose failed step went away.
    pending: Vec<usize>,
    /// Seeds whose step went away.
    gone: Vec<u32>,
    /// Slots holding a close that can no longer be derived again.
    closes: Vec<usize>,
    /// Runs patched in place ([`Order::splice`]).
    patched: usize,
}

impl Order {
    /// The run of step `k`.
    fn run_of(&self, k: usize) -> usize {
        self.runs.partition_point(|r| (r.end as usize) <= k)
    }

    /// The op's sort key in this order, or `None` when its seed has no
    /// step for it.
    fn key(&self, op: Op) -> Option<u64> {
        let s = op.seed();
        let kind = op.kind() as u64;
        if op.kind() == OpKind::Reserve {
            return Some((s as u64) << 3);
        }
        let k = *self.step_of.get(s)?;
        if k == NO_STEP {
            return None;
        }
        Some(match op.kind() {
            OpKind::Release | OpKind::Place => step_key(k as usize) | kind,
            _ => {
                let end = self.runs[self.run_of(k as usize)].end as usize;
                close_key(end) | (k as u64) << 3 | kind
            }
        })
    }

    /// Brings the order up to `instance`. When every task with seeds
    /// lists the seeds of its run and none of them is in `fresh` (new or
    /// dirty), or derives the same key and steps again, the order stays.
    /// Otherwise it is laid out again, and compared with the old one:
    /// when the steps that stayed kept their order and their tasks, the
    /// new ones go on the worklist and each task keeps its fail point
    /// (`outcome` holds the records); when not, the order is scrambled.
    fn update(
        &mut self,
        instance: &PlacementInstance,
        seeds: &Seeds,
        fresh: &[u32],
        outcome: &[u32],
    ) -> Reorder {
        let n = instance.seeds.len();
        self.step_of.resize(n, NO_STEP);
        let mut redo = vec![false; self.runs.len()];
        for &s in fresh {
            let k = self.step_of[s as usize];
            if k != NO_STEP {
                redo[self.run_of(k as usize)] = true;
            }
        }
        let min_u = |&s: &usize| seeds.min_alloc(s).map_or(0.0, |(_, u)| u);
        let key = |t: usize| -> f64 { instance.tasks[t].seeds.iter().map(min_u).sum() };
        let sorted = |t: usize| {
            let mut ids = instance.tasks[t].seeds.clone();
            ids.sort_by_key(|&s| instance.seeds[s].candidates.len());
            ids
        };
        // The run of a task that lists the same seeds as it did, and
        // whether none of them is new or dirty (its key and steps stand).
        let runs: Vec<Option<(Run, bool)>> = instance
            .tasks
            .iter()
            .map(|task| {
                let k = *self.step_of.get(*task.seeds.first()?)?;
                let r = (k != NO_STEP).then(|| self.run_of(k as usize))?;
                let run = self.runs[r];
                let members = &self.members[run.start as usize..run.end as usize];
                (members == &task.seeds[..]).then_some((run, !redo[r]))
            })
            .collect();
        // The order stays when every task with seeds keeps its run in its
        // place, deriving the same key and steps where a seed changed.
        let busy = instance.tasks.iter().filter(|t| !t.seeds.is_empty());
        let mut same = busy.count() == self.runs.len();
        for (t, task) in instance.tasks.iter().enumerate() {
            if !same || task.seeds.is_empty() {
                continue;
            }
            same = match runs[t] {
                Some((run, kept)) if run.task as usize == t => {
                    let steps = &self.steps[run.start as usize..run.end as usize];
                    kept || run.key == key(t).to_bits()
                        && steps.iter().zip(sorted(t)).all(|(&a, b)| a as usize == b)
                }
                _ => false,
            };
        }
        let mut re = Reorder::default();
        if same {
            // Same steps in the same places: the new and dirty seeds'
            // steps go on the worklist as unclean ones.
            return re;
        }
        if let Some(re) = self.splice(instance, &runs, (&redo, outcome), key, sorted) {
            return re;
        }
        // Lay the order out again: a kept run keeps its key and steps.
        let kept = |t: usize| runs[t].filter(|r| r.1).map(|r| r.0);
        let keys: Vec<f64> = (0..instance.tasks.len())
            .map(|t| kept(t).map_or_else(|| key(t), |run| f64::from_bits(run.key)))
            .collect();
        let mut tasks: Vec<usize> = (0..instance.tasks.len()).collect();
        tasks.sort_by(|&a, &b| {
            keys[b]
                .partial_cmp(&keys[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let old_step_of = std::mem::replace(&mut self.step_of, vec![NO_STEP; n]);
        let old_steps = std::mem::take(&mut self.steps);
        let old_runs = std::mem::take(&mut self.runs);
        (self.members, self.repeats) = (Vec::new(), false);
        for t in tasks {
            if instance.tasks[t].seeds.is_empty() {
                continue;
            }
            let start = self.steps.len() as u32;
            let ids: Vec<usize> = match kept(t) {
                Some(run) => old_steps[run.start as usize..run.end as usize]
                    .iter()
                    .map(|&s| s as usize)
                    .collect(),
                None => sorted(t),
            };
            for s in ids {
                self.repeats |= self.step_of[s] != NO_STEP;
                self.step_of[s] = self.steps.len() as u32;
                self.steps.push(s as u32);
            }
            self.members.extend_from_slice(&instance.tasks[t].seeds);
            let end = self.steps.len() as u32;
            let (task, key) = (t as u32, keys[t].to_bits());
            let (fail, dropped) = (end, false);
            self.runs.push(Run {
                task,
                start,
                end,
                key,
                fail,
                dropped,
            });
        }
        self.steps.shrink_to_fit();
        self.members.shrink_to_fit();
        re.gone = (0..n.min(old_step_of.len()))
            .filter(|&s| old_step_of[s] != NO_STEP && self.step_of[s] == NO_STEP)
            .map(|s| s as u32)
            .collect();
        // The steps that stayed: in their old order, each old run's in
        // one new run and each new run's from one old run?
        let mut from = vec![None; self.runs.len()];
        let mut to = vec![None; old_runs.len()];
        let (mut last, mut ro) = (None, 0);
        'steps: for (rn, run) in self.runs.iter().enumerate() {
            for k in run.start as usize..run.end as usize {
                let ko = old_step_of.get(self.steps[k] as usize).copied();
                let Some(ko) = ko.filter(|&ko| ko != NO_STEP) else {
                    re.pending.push(k);
                    continue;
                };
                if last >= Some(ko) {
                    re.scrambled = true;
                    break 'steps;
                }
                while old_runs[ro].end <= ko {
                    ro += 1;
                }
                re.scrambled |=
                    *from[rn].get_or_insert(ro) != ro || *to[ro].get_or_insert(rn) != rn;
                last = Some(ko);
            }
        }
        if re.scrambled {
            return re;
        }
        // Each task keeps its fail point where its failed step stayed;
        // where that step went, the close it left is checked from op 0
        // and the steps it stopped run.
        for (rn, run) in self.runs.iter_mut().enumerate() {
            let Some(old) = from[rn].map(|ro| old_runs[ro]) else {
                continue;
            };
            run.dropped = old.dropped;
            if old.fail == old.end {
                continue;
            }
            let failed = old_steps[old.fail as usize] as usize;
            match self.step_of.get(failed) {
                Some(&k) if k != NO_STEP => run.fail = k,
                _ => {
                    for &s in &old_steps[old.start as usize..old.fail as usize] {
                        let rec = outcome.get(s as usize).copied().unwrap_or(NOT_RUN);
                        re.closes.extend(landing(rec).map(|(i, _)| i));
                    }
                    re.pending.extend(run.start as usize..run.end as usize);
                }
            }
        }
        re
    }

    /// The order as the last one with runs added, removed and patched,
    /// when that is what changed. Every task with seeds keeps its run
    /// (the same members, none of them new or dirty), patches it (seeds
    /// entered or left the round's scope and nothing else changed:
    /// [`Order::patchable`]) or is new (none of its seeds has a step),
    /// and every run no task keeps or patches lost all its seeds, to the
    /// remap or to the scope. The kept runs stay in their order with
    /// their keys, steps and fail points. A patched run stays in its
    /// place with its key summed again, in member order: a seed that
    /// left goes (its switch starts over), one that came back takes its
    /// stable-sorted place and goes on the worklist, and the fail point
    /// follows the failed step — where that step left, the close it
    /// left is checked from op 0 and the run's steps run. A new task's
    /// run goes where the layout's sort puts it — after the runs of
    /// higher key, and of equal key and lower task index — and its steps
    /// on the worklist. `None`, with the order untouched, when the
    /// change is of another shape, a key is NaN, or the kept and patched
    /// runs are not in the sort's order (a run whose key sorts elsewhere
    /// moves steps that stay past each other, and the layout finds the
    /// order scrambled).
    fn splice(
        &mut self,
        instance: &PlacementInstance,
        runs: &[Option<(Run, bool)>],
        (redo, outcome): (&[bool], &[u32]),
        key: impl Fn(usize) -> f64,
        sorted: impl Fn(usize) -> Vec<usize>,
    ) -> Option<Reorder> {
        let mut task_of = vec![u32::MAX; self.runs.len()];
        // A patched run's new key and the members it no longer lists.
        let mut patched: Vec<Option<(f64, Vec<usize>)>> = vec![None; self.runs.len()];
        let mut added = Vec::new();
        for (t, task) in instance.tasks.iter().enumerate() {
            if task.seeds.is_empty() {
                continue;
            }
            let r = match runs[t] {
                Some((run, true)) => self.run_of(run.start as usize),
                Some(_) => return None,
                None => {
                    let k = key(t);
                    if k.is_nan() {
                        return None;
                    }
                    let stepped = task.seeds.iter().find(|&&s| self.step_of[s] != NO_STEP);
                    let Some(&s) = stepped else {
                        added.push((k, t));
                        continue;
                    };
                    let r = self.run_of(self.step_of[s] as usize);
                    if redo[r] {
                        return None;
                    }
                    patched[r] = Some((k, self.patchable(instance, r, t)?));
                    r
                }
            };
            if std::mem::replace(&mut task_of[r], t as u32) != u32::MAX {
                return None;
            }
        }
        // A run no task keeps: its seeds went with the remap or left the
        // scope, each in no task's list.
        let listed = |s: usize| {
            let t = instance.seeds[s].task;
            instance.tasks[t].seeds.binary_search(&s).is_ok()
        };
        let mut last: Option<(f64, u32)> = None;
        for ((run, &t), patch) in self.runs.iter().zip(&task_of).zip(&patched) {
            let span = run.start as usize..run.end as usize;
            if t == u32::MAX {
                let steps = self.steps[span].iter().filter(|&&s| s != u32::MAX);
                if steps
                    .map(|&s| s as usize)
                    .any(|s| s >= instance.seeds.len() || listed(s))
                {
                    return None;
                }
                continue;
            }
            let k = patch.as_ref().map_or(f64::from_bits(run.key), |p| p.0);
            if k.is_nan() || last.is_some_and(|(lk, lt)| lk < k || lk == k && lt > t) {
                return None;
            }
            last = Some((k, t));
        }
        let by_key = |a: &(f64, usize), b: &(f64, usize)| b.0.partial_cmp(&a.0);
        added.sort_by(|a, b| by_key(a, b).expect("no NaN").then(a.1.cmp(&b.1)));
        let old_runs = std::mem::take(&mut self.runs);
        let old_steps = std::mem::take(&mut self.steps);
        let old_members = std::mem::take(&mut self.members);
        let listed_now: usize = instance.tasks.iter().map(|t| t.seeds.len()).sum();
        self.steps.reserve_exact(listed_now);
        self.members.reserve_exact(listed_now);
        let mut re = Reorder::default();
        for (run, &t) in old_runs.iter().zip(&task_of) {
            if t == u32::MAX {
                let span = run.start as usize..run.end as usize;
                for &s in old_steps[span].iter().filter(|&&s| s != u32::MAX) {
                    self.step_of[s as usize] = NO_STEP;
                    re.gone.push(s);
                }
            }
        }
        let mut added = added.into_iter().peekable();
        let kept = (0..old_runs.len()).filter(|&r| task_of[r] != u32::MAX);
        for r in kept.map(Some).chain([None]) {
            let rk = r.map(|r| {
                let k = patched[r]
                    .as_ref()
                    .map_or(f64::from_bits(old_runs[r].key), |p| p.0);
                (k, task_of[r] as usize)
            });
            let first =
                |&(k, a): &(f64, usize)| rk.is_none_or(|(rk, t)| k > rk || k == rk && a < t);
            while let Some((k, a)) = added.next_if(first) {
                let start = self.steps.len() as u32;
                for s in sorted(a) {
                    self.repeats |= self.step_of[s] != NO_STEP;
                    self.step_of[s] = self.steps.len() as u32;
                    re.pending.push(self.steps.len());
                    self.steps.push(s as u32);
                }
                self.members.extend_from_slice(&instance.tasks[a].seeds);
                let end = self.steps.len() as u32;
                self.runs.push(Run {
                    task: a as u32,
                    start,
                    end,
                    key: k.to_bits(),
                    fail: end,
                    dropped: false,
                });
            }
            let (Some(r), Some((k, task))) = (r, rk) else {
                break;
            };
            let run = &old_runs[r];
            let (from, start) = (run.start as usize, self.steps.len() as u32);
            let old = &old_steps[from..run.end as usize];
            let Some((_, leaving)) = &patched[r] else {
                for &s in old {
                    self.step_of[s as usize] = self.steps.len() as u32;
                    self.steps.push(s);
                }
                self.members
                    .extend_from_slice(&old_members[from..run.end as usize]);
                self.runs.push(Run {
                    task: task as u32,
                    start,
                    end: self.steps.len() as u32,
                    fail: run.fail - run.start + start,
                    ..*run
                });
                continue;
            };
            let members = &instance.tasks[task].seeds;
            let rank = |s: usize| (instance.seeds[s].candidates.len(), s);
            let mut back: Vec<usize> = (members.iter().copied())
                .filter(|&s| self.step_of[s] == NO_STEP)
                .collect();
            back.sort_by_key(|&s| rank(s));
            let mut back = back.into_iter().peekable();
            for &s in old {
                while let Some(b) = back.next_if(|&b| rank(b) < rank(s as usize)) {
                    re.pending.push(self.steps.len());
                    self.step_of[b] = self.steps.len() as u32;
                    self.steps.push(b as u32);
                }
                if leaving.binary_search(&(s as usize)).is_err() {
                    self.step_of[s as usize] = self.steps.len() as u32;
                    self.steps.push(s);
                }
            }
            for b in back {
                re.pending.push(self.steps.len());
                self.step_of[b] = self.steps.len() as u32;
                self.steps.push(b as u32);
            }
            self.members.extend_from_slice(members);
            let end = self.steps.len() as u32;
            let mut fail = end;
            if run.fail < run.end {
                let failed = old_steps[run.fail as usize] as usize;
                if leaving.binary_search(&failed).is_ok() {
                    for &s in &old_steps[from..run.fail as usize] {
                        let rec = outcome.get(s as usize).copied().unwrap_or(NOT_RUN);
                        re.closes.extend(landing(rec).map(|(i, _)| i));
                    }
                    re.pending.extend(start as usize..end as usize);
                } else {
                    fail = self.step_of[failed];
                }
            }
            for &s in leaving {
                self.step_of[s] = NO_STEP;
                re.gone.push(s as u32);
            }
            self.runs.push(Run {
                task: task as u32,
                start,
                end,
                key: k.to_bits(),
                fail,
                dropped: run.dropped,
            });
        }
        re.gone.sort_unstable();
        re.patched = patched.iter().flatten().count();
        Some(re)
    }

    /// The members run `r` no longer lists, ascending, when task `t`'s
    /// list differs from them only by seeds that entered or left the
    /// round's scope: every member is a seed of `t`, and every seed of
    /// `t`'s list that is not a member has no step. `None` otherwise.
    fn patchable(&self, instance: &PlacementInstance, r: usize, t: usize) -> Option<Vec<usize>> {
        let run = &self.runs[r];
        let old = &self.members[run.start as usize..run.end as usize];
        let new = &instance.tasks[t].seeds;
        let (mut a, mut b, mut leaving) = (0, 0, Vec::new());
        while a < old.len() || b < new.len() {
            let ascending = |l: &[usize], x: usize| x == 0 || x >= l.len() || l[x - 1] < l[x];
            if !ascending(old, a) || !ascending(new, b) {
                return None;
            }
            match (old.get(a).copied(), new.get(b).copied()) {
                (Some(o), Some(n)) if o == n => (a, b) = (a + 1, b + 1),
                (Some(o), Some(n)) if n < o => {
                    (self.step_of[n] == NO_STEP).then_some(())?;
                    b += 1;
                }
                (Some(o), _) => {
                    (instance.seeds.get(o)?.task == t).then_some(())?;
                    leaving.push(o);
                    a += 1;
                }
                (None, Some(n)) => {
                    (self.step_of[n] == NO_STEP).then_some(())?;
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        Some(leaving)
    }

    /// Holds the kept order to a layout from scratch: the tasks with
    /// seeds by decreasing key (sum of their seeds' minimum utilities),
    /// ties by task index, each task's seeds by candidate count.
    fn check(&self, instance: &PlacementInstance, seeds: &Seeds) -> Result<(), String> {
        let min_u = |&s: &usize| seeds.min_alloc(s).map_or(0.0, |(_, u)| u);
        let key = |t: usize| -> f64 { instance.tasks[t].seeds.iter().map(min_u).sum() };
        let mut tasks: Vec<usize> = (0..instance.tasks.len())
            .filter(|&t| !instance.tasks[t].seeds.is_empty())
            .collect();
        tasks.sort_by(|&a, &b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut steps = Vec::new();
        let mut step_of = vec![NO_STEP; instance.seeds.len()];
        for (r, &t) in tasks.iter().enumerate() {
            let mut ids = instance.tasks[t].seeds.clone();
            ids.sort_by_key(|&s| instance.seeds[s].candidates.len());
            let run = self.runs.get(r).ok_or(format!("order: no run {r}"))?;
            let (start, end) = (steps.len() as u32, (steps.len() + ids.len()) as u32);
            if (run.task, run.start, run.end, run.key) != (t as u32, start, end, key(t).to_bits()) {
                return Err(format!(
                    "order: run {r} is {run:?}, task {t} laid out at {start}..{end}"
                ));
            }
            for s in ids {
                step_of[s] = steps.len() as u32;
                steps.push(s as u32);
            }
        }
        let members: Vec<usize> = (tasks.iter())
            .flat_map(|&t| instance.tasks[t].seeds.iter().copied())
            .collect();
        if self.runs.len() != tasks.len() || self.steps != steps || self.members != members {
            return Err(format!(
                "order: {} runs kept, {} laid out",
                self.runs.len(),
                tasks.len()
            ));
        }
        match (0..step_of.len()).find(|&s| self.step_of.get(s) != Some(&step_of[s])) {
            Some(s) => Err(format!("order: seed {s} at step {:?}", self.step_of.get(s))),
            None => Ok(()),
        }
    }

    /// Moves the seeds from `r.first` on to their new indices. A task
    /// that lost a seed is derived again.
    fn remap(&mut self, r: &Remap) {
        r.apply(&mut self.step_of, NO_STEP);
        if r.identity() {
            return;
        }
        let first = r.first as u32;
        for (s, m) in self.steps.iter_mut().zip(&mut self.members) {
            // A dropped seed leaves a seed id no task lists, so the run no
            // longer matches its task.
            if *s >= first {
                *s = r.id(*s).unwrap_or(u32::MAX);
            }
            if *m >= r.first {
                *m = r.seed(*m).unwrap_or(usize::MAX);
            }
        }
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.steps)
            + vec_bytes(&self.members)
            + vec_bytes(&self.step_of)
            + vec_bytes(&self.runs)
    }
}

/// The greedy's worklist: pending steps, one bit each, walked by
/// ascending step.
#[derive(Debug, Default)]
struct Pending {
    words: Vec<u64>,
}

impl Pending {
    fn reset(&mut self, steps: usize) {
        self.words.clear();
        self.words.resize(steps.div_ceil(64), 0);
    }

    fn set(&mut self, k: usize) {
        self.words[k / 64] |= 1 << (k % 64);
    }

    fn has(&self, k: usize) -> bool {
        self.words[k / 64] & 1 << (k % 64) != 0
    }

    /// Sets steps `from..to`.
    fn set_range(&mut self, from: usize, to: usize) {
        for k in from..to {
            self.set(k);
        }
    }

    /// The first pending step in `from..to`, taken off the list.
    fn take(&mut self, from: usize, to: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let k = w * 64 + word.trailing_zeros() as usize;
                if k >= to {
                    return None;
                }
                self.words[w] &= !(1 << (k % 64));
                return Some(k);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            word = self.words[w];
        }
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.words)
    }
}

/// [`Probe::slot`] of a probe buffer that holds no switch's state.
const NO_PROBE: usize = usize::MAX;

/// The state a probe reads on an undiverged switch, built from the
/// switch's log in a buffer of its own so that the switch's state stays
/// the settled one. A probe looks at one switch at a time, so one buffer
/// serves every read: it holds the last switch read, built up to the
/// last key, and a later read of the same switch goes on from there.
#[derive(Debug)]
struct Probe {
    state: SwitchState,
    /// The slot whose state it holds, or [`NO_PROBE`].
    slot: usize,
    /// The key it is built up to, and the log ops that took.
    key: u64,
    cursor: u32,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            state: SwitchState::new(Resources::ZERO),
            slot: NO_PROBE,
            key: 0,
            cursor: 0,
        }
    }
}

/// Where a switch stands in the current solve's greedy pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not in this round.
    Absent,
    /// Its log has not diverged; its state is the last solve's.
    Clean,
    /// Its log has not diverged, and a probe read it; its own state is
    /// still the last solve's ([`Probe`]).
    Live,
    /// Its ops departed from the log, which now holds this solve's ops;
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
    /// Each log's last op: what a probe compares with its step's key,
    /// read without visiting the log.
    log_end: Vec<Option<Op>>,
    /// Whether the switch's residents hold, in the post-step-3
    /// assignment, the allocations its LP gave them over the state its
    /// log built last solve. See [`Switches::replays_lp`].
    lp: Vec<bool>,
    /// Switches whose `lp` is set.
    lp_count: usize,
    /// Where this solve's ops left the last solve's log, and the ops of
    /// that log they replaced; until step 3 has compared what each log
    /// leaves on the switch.
    prior: Vec<Option<(u32, Vec<Op>)>>,
    /// `states[i]` is the state after step 3 of the ops in `logs[i]`.
    settled: Vec<bool>,
    /// Slots whose `settled` went false since the last solve began.
    unsettled: Vec<usize>,
    mode: Vec<Mode>,
    /// Each switch's usage at the end of its log — its greedy state —
    /// written when step 2 builds the switch and dropped with the log; it
    /// names no seed, so a remap leaves it as it is.
    kept: Vec<Option<Usage>>,
    /// Per slot, from 1: bumped by every write or drop of `kept`
    /// ([`Switches::keep`]), so that a score computed from the kept usage
    /// holds for as long as the stamp it was taken under.
    stamp: Vec<u64>,
    probe: Probe,
    /// The slot whose kept usage the probe being run reads.
    view: Option<usize>,
    /// The slots a probe read this solve: the `Live` ones.
    read: Vec<usize>,
    /// This solve built the state instead of keeping the settled one;
    /// the slot is in `active`.
    pub(crate) touched: Vec<bool>,
    /// The slots touched this solve.
    pub(crate) active: Vec<usize>,
    /// After step 3, the state may differ from the last solve's after
    /// step 3: it was built, and its LP, if any, ran rather than
    /// replayed. (One that replayed its LP is refreshed from the same
    /// residents, reservations and allocations as last solve.)
    pub(crate) moved: Vec<bool>,
    /// In the last round but not this one.
    pub(crate) left: Vec<usize>,
    gone: Vec<bool>,
    /// Slots whose log starts over this solve: joined, changed capacity,
    /// or a reserve section that changed. See [`Memo::reserve`].
    restarted: Vec<usize>,
    /// This solve's `(slot, seed)` seats that were not last solve's.
    arrivals: Vec<(u32, u32)>,
    /// Slots whose log a remap dropped: they start over at op 0.
    forgot: Vec<usize>,
    /// Where the instance's switch list's log stood at the last solve.
    at: Option<LogAt>,
}

impl Switches {
    /// The next round: the given switches in the given states, moved
    /// where the flag says the state changed since the last round or the
    /// switch joined, as a solve leaves them after step 3.
    #[cfg(test)]
    pub(crate) fn round(&mut self, states: Vec<(SwitchId, SwitchState, bool)>) {
        let was: Vec<bool> = (0..self.ids.len()).map(|i| self.is_present(i)).collect();
        self.mode.fill(Mode::Absent);
        self.active.clear();
        for (n, st, changed) in states {
            let i = self.slot(n);
            self.states[i] = st;
            self.mode[i] = Mode::Diverged;
            self.settled[i] = true;
            let joined = !was.get(i).copied().unwrap_or(false);
            self.moved[i] = changed || joined;
            self.active.push(i);
        }
        self.left = (0..was.len())
            .filter(|&i| was[i] && !self.is_present(i))
            .collect();
    }

    /// The switch's slot, allocated (not in the round) on first sight.
    pub(crate) fn slot(&mut self, n: SwitchId) -> usize {
        let next = self.ids.len() as u32;
        let i = *self.slot_of.entry(n).or_insert(next) as usize;
        if i == self.ids.len() {
            self.ids.push(n);
            self.states.push(SwitchState::new(Resources::ZERO));
            self.logs.push(Vec::new());
            self.log_end.push(None);
            self.lp.push(false);
            self.prior.push(None);
            self.settled.push(false);
            self.mode.push(Mode::Absent);
            self.kept.push(None);
            self.stamp.push(1);
            self.touched.push(false);
            self.moved.push(false);
            self.gone.push(false);
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

    /// Whether what a step reads of switch `n` may differ from the last
    /// solve at this point of the pass: it diverged before, joined, or
    /// left.
    fn changed(&self, n: SwitchId) -> bool {
        self.slot_of
            .get(&n)
            .is_some_and(|&i| self.changed_slot(i as usize))
    }

    fn changed_slot(&self, i: usize) -> bool {
        self.mode[i] == Mode::Diverged || self.gone[i]
    }

    /// Marks slot `i` built this solve.
    fn touch(&mut self, i: usize) {
        if !self.touched[i] {
            self.touched[i] = true;
            self.active.push(i);
        }
    }

    /// Sets whether switch `i`'s residents hold its LP's output.
    pub(crate) fn set_lp(&mut self, i: usize, lp: bool) {
        self.lp_count = self.lp_count + usize::from(lp) - usize::from(self.lp[i]);
        self.lp[i] = lp;
    }

    /// Switches whose residents hold their LP's output.
    pub(crate) fn lp_count(&self) -> usize {
        self.lp_count
    }

    /// Moves seed `s`'s previous seat from slot `from` to slot `to`:
    /// both rewrite their reserve sections.
    fn move_seat(&mut self, s: usize, from: Option<usize>, to: Option<usize>) {
        if let Some(i) = from {
            self.restart(i);
        }
        if let Some(i) = to {
            // A switch without its last log walks the seeds instead.
            if self.mode[i] == Mode::Clean || self.prior[i].is_some() {
                self.arrivals.push((i as u32, s as u32));
            }
            self.restart(i);
        }
    }

    /// Switch `i`'s ops depart from its log at op 0: the whole log goes
    /// to `prior`, and its reserve section is written again.
    fn restart(&mut self, i: usize) {
        if self.mode[i] != Mode::Clean {
            return;
        }
        let log = std::mem::take(&mut self.logs[i]);
        self.log_end[i] = None;
        self.prior[i] = Some((0, log));
        let st = &mut self.states[i];
        st.reset(st.ares);
        self.mode[i] = Mode::Diverged;
        self.restarted.push(i);
        self.touch(i);
    }

    /// Starts a solve over the instance's switches. One whose capacity
    /// bits and presence match the last solve starts `Clean`; one that
    /// joined, or changed capacity, starts over at op 0. Only the
    /// switches the list's log names since the last solve are visited
    /// ([`Switches::follow`]); a list whose log does not reach back that
    /// far is walked whole.
    fn begin(&mut self, instance: &PlacementInstance) {
        for k in 0..self.active.len() {
            let i = self.active[k];
            (self.touched[i], self.moved[i]) = (false, false);
            if self.mode[i] != Mode::Absent {
                self.mode[i] = Mode::Clean;
            }
        }
        self.active.clear();
        for &i in &self.left {
            self.gone[i] = false;
        }
        self.left.clear();
        self.restarted.clear();
        let list = &instance.switches;
        let changed = list.changes_since(self.at);
        self.at = Some(list.log_at());
        match changed {
            Some([]) => return,
            Some(ids) => self.follow(ids, list),
            None => self.walk(list),
        }
        for k in 0..self.restarted.len() {
            let i = self.restarted[k];
            self.touch(i);
        }
        self.shrink();
    }

    /// Brings the slots of `ids`, the switches `list`'s log names, up
    /// to it: one now absent leaves with its log and state, and one now
    /// present starts over at op 0 if it was absent or its capacity bits
    /// differ.
    fn follow(&mut self, ids: &[SwitchId], list: &SwitchList) {
        for &n in ids {
            let was = self.present_slot(n);
            match list.ares(n) {
                None => was.into_iter().for_each(|i| self.leave(i)),
                Some(ares) if was.is_none_or(|i| bits(&self.states[i].ares) != bits(&ares)) => {
                    let i = self.slot(n);
                    self.start_over(i, ares);
                    self.restarted.push(i);
                }
                Some(_) => {}
            }
        }
        self.left.sort_unstable();
        self.restarted.sort_unstable();
    }

    /// Brings every slot up to `list` in one walk: the general path, for
    /// a list whose log does not reach back to the last solve (the first
    /// solve, a list written by hand or replaced, another instance's), in
    /// any id order. A switch listed twice takes its last capacity, from
    /// op 0.
    fn walk(&mut self, list: &[(SwitchId, Resources)]) {
        // Until the last loop, `moved` says whether a slot was in the
        // last round and `touched` whether it is in this one.
        for i in 0..self.ids.len() {
            self.moved[i] = self.is_present(i);
            self.mode[i] = Mode::Absent;
        }
        for (n, ares) in list {
            let i = self.slot(*n);
            let same = self.moved[i] && bits(&self.states[i].ares) == bits(ares);
            if same && !self.touched[i] {
                self.mode[i] = Mode::Clean;
            } else {
                self.start_over(i, *ares);
            }
            self.touched[i] = true;
        }
        for i in 0..self.ids.len() {
            let (was, now) = (self.moved[i], self.touched[i]);
            (self.touched[i], self.moved[i]) = (false, false);
            if was && !now {
                self.leave(i);
            }
            if now && self.mode[i] == Mode::Diverged {
                self.restarted.push(i);
            }
        }
    }

    /// Slot `i` joins the round, or changes capacity to `ares`: its log
    /// starts over at op 0.
    fn start_over(&mut self, i: usize, ares: Resources) {
        self.logs[i].clear();
        self.log_end[i] = None;
        self.states[i].reset(ares);
        self.prior[i] = None;
        self.settled[i] = false;
        self.mode[i] = Mode::Diverged;
    }

    /// Slot `i` leaves the round with its log, state and LP output.
    fn leave(&mut self, i: usize) {
        self.mode[i] = Mode::Absent;
        self.logs[i] = Vec::new();
        self.log_end[i] = None;
        self.keep(i, None);
        self.set_lp(i, false);
        self.states[i] = SwitchState::new(Resources::ZERO);
        self.settled[i] = false;
        self.gone[i] = true;
        self.left.push(i);
    }

    /// Gives back the slot vectors' spare capacity.
    fn shrink(&mut self) {
        self.ids.shrink_to_fit();
        self.states.shrink_to_fit();
        self.logs.shrink_to_fit();
        self.log_end.shrink_to_fit();
        self.lp.shrink_to_fit();
        self.prior.shrink_to_fit();
        self.settled.shrink_to_fit();
        self.mode.shrink_to_fit();
        self.kept.shrink_to_fit();
        self.stamp.shrink_to_fit();
        self.touched.shrink_to_fit();
        self.moved.shrink_to_fit();
        self.gone.shrink_to_fit();
    }

    /// The load a probe of the step being visited reads on slot `i`
    /// (readied by [`Memo::look`]): the kept usage where it holds there,
    /// the state otherwise.
    pub(crate) fn load(&self, i: usize) -> Load<'_> {
        match &self.kept[i] {
            Some(kept) if self.view == Some(i) => kept.load(&self.states[i].ares),
            _ => self.state(i).load(),
        }
    }

    /// Writes (or drops) switch `i`'s kept usage, under a new stamp.
    fn keep(&mut self, i: usize, usage: Option<Usage>) {
        self.kept[i] = usage;
        self.stamp[i] += 1;
    }

    /// Whether a probe at `key` reads switch `i` where its log ends: the
    /// switch has not diverged and every op of its log comes before
    /// `key` (its log is in key order, so its last op decides). Its load
    /// there is its kept usage, if kept.
    fn whole_before(&self, i: usize, key: u64, order: &Order) -> bool {
        matches!(self.mode[i], Mode::Clean | Mode::Live)
            && self.log_end[i].is_none_or(|op| order.key(op).is_some_and(|k| k < key))
    }

    /// Readies an undiverged switch `i` for a probe that reads only its
    /// load at `key`: where [`Switches::whole_before`] holds and the
    /// usage is kept, its state there is its kept usage, read in place;
    /// otherwise it is built in the probe buffer.
    fn look(
        &mut self,
        i: usize,
        key: u64,
        order: &Order,
        seeds: &Seeds,
        instance: &PlacementInstance,
    ) {
        self.view = None;
        if self.whole_before(i, key, order) && self.kept[i].is_some() {
            self.mark_read(i);
            self.view = Some(i);
        } else {
            self.materialize(i, key, order, seeds, instance);
        }
    }

    /// An undiverged switch `i` is read this solve: it turns `Live`.
    /// False for a diverged or absent one.
    fn mark_read(&mut self, i: usize) -> bool {
        match self.mode[i] {
            Mode::Clean => {
                self.mode[i] = Mode::Live;
                self.read.push(i);
                true
            }
            Mode::Live => true,
            _ => false,
        }
    }

    /// The state a probe of the step being visited reads on slot `i`
    /// (built by [`Memo::read`]): the probe buffer for a `Live` switch,
    /// any other switch's own state.
    pub(crate) fn state(&self, i: usize) -> &SwitchState {
        if self.mode[i] == Mode::Live {
            debug_assert_eq!(self.probe.slot, i, "a probe reads the switch it built");
            return &self.probe.state;
        }
        &self.states[i]
    }

    /// Builds the state of an undiverged switch up to the ops before
    /// `key` in the probe buffer: from where the buffer stands when it
    /// holds this switch at an earlier key, from its capacity otherwise.
    fn materialize(
        &mut self,
        i: usize,
        key: u64,
        order: &Order,
        seeds: &Seeds,
        instance: &PlacementInstance,
    ) {
        if !self.mark_read(i) {
            return;
        }
        let probe = &mut self.probe;
        if probe.slot != i || probe.key > key {
            probe.state.reset(self.states[i].ares);
            (probe.slot, probe.cursor) = (i, 0);
        }
        probe.key = key;
        let log = &self.logs[i];
        let mut at = probe.cursor as usize;
        while at < log.len() && (key == u64::MAX || order.key(log[at]).is_some_and(|k| k < key)) {
            apply(&mut probe.state, log[at], seeds, instance);
            at += 1;
        }
        probe.cursor = at as u32;
    }

    /// The probe buffer, built for `Live` switch `i`, becomes its state,
    /// which this solve now builds; the last solve's is the next buffer.
    fn adopt(&mut self, i: usize) {
        std::mem::swap(&mut self.states[i], &mut self.probe.state);
        self.probe.slot = NO_PROBE;
        self.touch(i);
    }

    /// Switch `i`'s ops depart from its log at `key`: the log's ops from
    /// there on go to `prior`. Returns false when it had diverged already.
    fn diverge(
        &mut self,
        i: usize,
        key: u64,
        order: &Order,
        seeds: &Seeds,
        instance: &PlacementInstance,
    ) -> bool {
        if !matches!(self.mode[i], Mode::Clean | Mode::Live) {
            return false;
        }
        self.materialize(i, key, order, seeds, instance);
        let at = self.probe.cursor as usize;
        self.adopt(i);
        let tail = self.logs[i].split_off(at);
        self.log_end[i] = self.logs[i].last().copied();
        self.prior[i] = Some((at as u32, tail));
        self.mode[i] = Mode::Diverged;
        true
    }

    /// Appends `op` to the log of switch `i`, if it has diverged: an
    /// undiverged log holds it already.
    fn emit(&mut self, i: usize, op: Op, seeds: &Seeds, instance: &PlacementInstance) {
        if self.mode[i] == Mode::Diverged {
            self.logs[i].push(op);
            self.log_end[i] = Some(op);
            apply(&mut self.states[i], op, seeds, instance);
        }
    }

    /// Ends step 2: every switch of the round holds its greedy state.
    /// One whose log did not diverge and whose state is settled keeps it,
    /// whether or not a probe read it; the others are built (where not
    /// already) and marked moved. Returns how many were built and how
    /// many others a probe read.
    fn settle_greedy(
        &mut self,
        order: &Order,
        seeds: &Seeds,
        instance: &PlacementInstance,
    ) -> (usize, usize) {
        for i in std::mem::take(&mut self.unsettled) {
            if self.is_present(i) && !self.settled[i] {
                self.touch(i);
            }
        }
        for k in 0..self.active.len() {
            let i = self.active[k];
            if matches!(self.mode[i], Mode::Clean | Mode::Live) {
                self.materialize(i, u64::MAX, order, seeds, instance);
                self.adopt(i);
            }
            self.keep(i, Some(self.states[i].usage()));
            self.moved[i] = true;
        }
        // The switches probes only read are clean again.
        let mut read = 0;
        for k in 0..self.read.len() {
            let i = self.read[k];
            read += usize::from(!self.touched[i]);
            if self.mode[i] == Mode::Live {
                self.mode[i] = Mode::Clean;
            }
        }
        self.read.clear();
        self.probe.slot = NO_PROBE;
        (self.active.len(), read)
    }

    /// Ends step 3: every state of the round is settled.
    pub(crate) fn settle(&mut self) {
        for &i in &self.active {
            self.settled[i] = true;
            self.prior[i] = None;
            self.states[i].shrink();
            self.logs[i].shrink_to_fit();
        }
    }

    /// After step 2: whether switch `i` replays the LP output its
    /// residents hold from last solve, because the LP would read the same
    /// now. It reads the
    /// switch's capacity, residents in order, standing reservations and
    /// those seeds' inputs, so it would when the ops matched the whole
    /// log, or when they left the same residents in the same order and
    /// the same reservations as the log did, on the same capacity (a
    /// switch that changed capacity has no prior log), with every
    /// resident's products kept and every reservation's seed clean.
    pub(crate) fn replays_lp(&self, i: usize, seeds: &Seeds) -> bool {
        self.lp[i]
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

    /// Whether switch `i`'s state is the one step 3 left: no commit of
    /// step 5 changed it since.
    pub(crate) fn is_settled(&self, i: usize) -> bool {
        self.settled[i]
    }

    /// The migration pass changed switch `i` after step 3. Its LP output
    /// stays: the LP read the post-greedy state.
    pub(crate) fn unsettle(&mut self, i: usize) {
        if self.settled[i] {
            self.settled[i] = false;
            self.unsettled.push(i);
        }
    }

    /// Rewrites the seed indices from `r.first` on in every log and
    /// state; a switch that mentions a dropped seed forgets its log, LP
    /// output and settled state.
    fn remap(&mut self, r: &Remap) {
        if r.identity() {
            return;
        }
        let first = r.first;
        for i in 0..self.ids.len() {
            let log = self.logs[i].iter_mut().all(|op| {
                op.seed() < first || r.seed(op.seed()).map(|s| *op = op.with_seed(s)).is_some()
            });
            self.log_end[i] = self.logs[i].last().copied();
            if !(log && self.states[i].remap(|s| r.seed(s))) {
                self.logs[i] = Vec::new();
                self.log_end[i] = None;
                self.keep(i, None);
                self.set_lp(i, false);
                self.unsettle(i);
                self.forgot.push(i);
            }
        }
    }

    /// The usage switch `i`'s capacity and log build.
    fn rebuilt(&self, i: usize, seeds: &Seeds, instance: &PlacementInstance) -> Usage {
        let mut st = SwitchState::new(self.states[i].ares);
        for &op in &self.logs[i] {
            apply(&mut st, op, seeds, instance);
        }
        st.usage()
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
            + vec_bytes(&self.log_end)
            + vec_bytes(&self.lp)
            + vec_bytes(&self.settled)
            + vec_bytes(&self.unsettled)
            + vec_bytes(&self.mode)
            + vec_bytes(&self.kept)
            + vec_bytes(&self.stamp)
            + self
                .kept
                .iter()
                .flatten()
                .map(Usage::heap_bytes)
                .sum::<usize>()
            + size_of::<Probe>()
            + self.probe.state.heap_bytes()
            + vec_bytes(&self.read)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.active)
            + vec_bytes(&self.moved)
            + vec_bytes(&self.left)
            + vec_bytes(&self.gone)
            + vec_bytes(&self.restarted)
            + vec_bytes(&self.forgot)
            + vec_bytes(&self.arrivals)
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

/// One migration benefit of step 4: seed `seed` would reach utility `u`
/// at its candidate number `pos`, enough to clear the hysteresis from
/// its utility at its seat ([`Scans::gain`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Benefit {
    pub(crate) u: f64,
    pub(crate) seed: u32,
    pub(crate) pos: u32,
}

impl SeedPair for Benefit {
    fn pair(&self) -> (u32, u32) {
        (self.seed, self.pos)
    }

    fn set_seed(&mut self, s: u32) {
        self.seed = s;
    }
}

/// Per-seed flags of [`Scans`]: the seed's record is the last scan's,
const SCANNED: u8 = 1;
/// its utility there was `Some`,
const UTIL_SOME: u8 = 2;
/// and the index holds every (seed, position) pair of its candidates.
const INDEXED: u8 = 4;

/// A candidate list that more than one indexed seed of one definition
/// has: indexed once, by (list, position) pairs, for all of its seeds,
/// and evaluated once per position for all of them.
#[derive(Debug, Default)]
struct Shared {
    /// The list as slots, in candidate order; empty for a list no seed
    /// holds any more, free for the next one.
    slots: Vec<u32>,
    /// [`list_hash`] of `slots`.
    hash: u64,
    /// The members' [`Definition::key`].
    def: u64,
    /// The seeds holding it, ascending. A member whose candidates or
    /// definition changed stays until a switch of the list changes, as a
    /// pair of a seed of its own does, or until it is indexed again; only
    /// an `INDEXED` member is sure to hold the list's.
    members: Vec<u32>,
    /// Per position: the utility the members' definition reaches at the
    /// switch there ([`crate::heuristic::achievable_utility`]) against
    /// its post-step-3 state, once a scan evaluated it; `None` while it
    /// is stale. Kept between solves, and made stale where
    /// [`Scans::prepare`] finds the switch moved, joined or left.
    row: Vec<Option<Option<f64>>>,
    /// Per position: the greedy score the members' definition reaches
    /// against the switch's kept usage, once a probe took it there
    /// ([`Memo::walk_row`]).
    scores: Vec<Score>,
}

/// An entry of a shared list's score row: the score step 2a gives at a
/// switch's kept usage ([`crate::heuristic::greedy_score`]; `fits`
/// false where the seed does not fit there), current while the switch
/// holds the stamp it was taken under.
#[derive(Debug, Clone, Copy, Default)]
struct Score {
    /// The switch's [`Switches::stamp`] when it was taken: 0, which no
    /// switch has, for an entry never taken.
    stamp: u64,
    score: f64,
    fits: bool,
    /// The solve that took it ([`Memo::solve`]).
    solve: u32,
}

/// [`Scans::list`] of a seed that is no shared list's member.
const NO_LIST: u32 = u32::MAX;

/// The hash a candidate list is looked up by.
fn list_hash(slots: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &i in slots {
        h.write_u32(i);
    }
    h.finish()
}

/// Step 4's memory. Per seed, flat and seed-indexed: whether the seed
/// was scanned at the post-step-3 seat (switch and allocation bits) it
/// holds, its utility there, and the benefits it pushed, in candidate
/// order. Per switch slot: the (seed, position) pairs of the indexed
/// seeds' candidates that name it ([`Scans::readers`]), so a switch that
/// changed finds the pairs it affects — and the greedy steps that read
/// it — without a walk over any candidate list. Seeds whose candidate
/// lists are equal share one [`Shared`] list, indexed once by (list,
/// position) pairs: forty `place any` seeds over a fabric of a thousand
/// switches hold a thousand pairs and forty members, not forty thousand
/// pairs, and a remap rewrites the members alone.
#[derive(Debug, Default)]
pub(crate) struct Scans {
    util: Vec<f64>,
    flags: Vec<u8>,
    /// Per seed indexed on its own: [`list_hash`] of its candidates.
    hash: Vec<u64>,
    /// Per seed: the shared list it is a member of, or [`NO_LIST`].
    list: Vec<u32>,
    /// The last scan's benefits, ascending by (seed, position).
    pub(crate) benefits: Vec<Benefit>,
    next: Vec<Benefit>,
    /// Per slot, ascending: the pairs of the seeds indexed on their own.
    /// Pairs of a seed whose candidates changed stay until their switch
    /// changes, and are dropped then.
    by_slot: Vec<Vec<(u32, u32)>>,
    /// Per slot: the (shared list, position) pairs naming it.
    shared_at: Vec<Vec<(u32, u32)>>,
    shared: Vec<Shared>,
    /// Shared lists no seed holds, for the next one to take.
    free: Vec<u32>,
    /// Between [`Scans::prepare`] and [`Scans::scan`]: the pairs whose
    /// switch changed, ascending.
    changed: Vec<(u32, u32)>,
}

impl Scans {
    /// Starts a solve of `n` seeds. A seed whose products are not the
    /// last solve's (in `fresh`: new, or declared dirty) loses its record
    /// and its place in the index.
    pub(crate) fn begin(&mut self, n: usize, fresh: &[u32]) {
        self.util.resize(n, 0.0);
        self.flags.resize(n, 0);
        self.hash.resize(n, 0);
        self.list.resize(n, NO_LIST);
        for &s in fresh {
            self.flags[s as usize] = 0;
        }
    }

    /// The shared list whose rows seed `s` reads: its list, when it is
    /// an indexed member. Only an indexed member is sure to hold its
    /// list's candidates and definition.
    pub(crate) fn row_of(&self, s: usize) -> Option<u32> {
        let g = self.list[s];
        (g != NO_LIST && self.flags[s] & INDEXED != 0).then_some(g)
    }

    /// Shared list `g`'s slots, in candidate order.
    #[cfg(test)]
    pub(crate) fn slots(&self, g: u32) -> &[u32] {
        &self.shared[g as usize].slots
    }

    /// Seeds the records cover.
    #[cfg(test)]
    pub(crate) fn seeds(&self) -> usize {
        self.flags.len()
    }

    /// Drops every record and every row; the index stays.
    fn forget(&mut self) {
        for flags in &mut self.flags {
            *flags &= INDEXED;
        }
        self.benefits.clear();
        for list in &mut self.shared {
            list.row.fill(None);
        }
    }

    /// Indexes every candidate of the listed seeds not yet indexed: a
    /// seed joins the shared list equal to its candidates and its
    /// definition, or forms one with a seed indexed on its own under the
    /// same list and definition, or is indexed on its own. A seed leaves
    /// the shared list it was in when its candidates or its definition
    /// are another now, and its own pairs on a list it joins, so no pair
    /// is indexed twice. `def(s)` is seed `s`'s definition. Its key is
    /// computed only where a list of its candidates exists, and an equal
    /// key joins only a definition equal to the bit, so no collision of
    /// keys merges two definitions.
    pub(crate) fn index<'d>(
        &mut self,
        seeds: &[u32],
        instance: &PlacementInstance,
        switches: &mut Switches,
        def: impl Fn(usize) -> Definition<'d>,
    ) {
        let mut slots = Vec::new();
        for &s in seeds {
            let s = s as usize;
            if self.flags[s] & INDEXED != 0 {
                continue;
            }
            self.flags[s] |= INDEXED;
            let candidates = &instance.seeds[s].candidates;
            slots.clear();
            slots.extend(candidates.iter().map(|&n| switches.slot(n) as u32));
            let key = std::cell::OnceCell::new();
            let key = || *key.get_or_init(|| def(s).key());
            let g = self.list[s];
            if g != NO_LIST {
                if self.shared[g as usize].slots == slots && self.holds(g, s, key(), &def) {
                    continue;
                }
                self.leave(s as u32, g);
            }
            if self.by_slot.len() < switches.ids.len() {
                self.by_slot.resize_with(switches.ids.len(), Vec::new);
                self.shared_at.resize_with(switches.ids.len(), Vec::new);
            }
            // A list of one switch is indexed per seed: sharing it would
            // save no pair.
            if slots.len() > 1 {
                let (i0, hash) = (slots[0] as usize, list_hash(&slots));
                let shared = &self.shared;
                let list = self.shared_at[i0].iter().find(|&&(g, pos)| {
                    let list = &shared[g as usize];
                    pos == 0
                        && list.hash == hash
                        && list.slots == slots
                        && self.holds(g, s, key(), &def)
                });
                if let Some(&(g, _)) = list {
                    self.drop_own(s as u32, &slots);
                    let members = &mut self.shared[g as usize].members;
                    let k = members.partition_point(|&m| (m as usize) < s);
                    members.insert(k, s as u32);
                    self.list[s] = g;
                    continue;
                }
                let (flags, hashes, lists) = (&self.flags, &self.hash, &self.list);
                let twin = self.by_slot[i0].iter().find(|&&(a, pos)| {
                    let a = a as usize;
                    pos == 0
                        && hashes[a] == hash
                        && a != s
                        && flags[a] & INDEXED != 0
                        && lists[a] == NO_LIST
                        && instance.seeds[a].candidates == *candidates
                        && def(a).key() == key()
                        && def(a).same(&def(s))
                });
                if let Some(&(a, _)) = twin {
                    self.share(a, s as u32, slots.clone(), hash, key());
                    continue;
                }
                self.hash[s] = hash;
            }
            for (pos, &i) in slots.iter().enumerate() {
                insert_pair(&mut self.by_slot[i as usize], (s as u32, pos as u32));
            }
        }
    }

    /// Whether seed `s`, of definition key `key`, holds shared list
    /// `g`'s definition: the list's key, and to the bit the definition
    /// of an indexed member other than `s`.
    fn holds<'d>(
        &self,
        g: u32,
        s: usize,
        key: u64,
        def: &impl Fn(usize) -> Definition<'d>,
    ) -> bool {
        let list = &self.shared[g as usize];
        let indexed = |&&m: &&u32| m as usize != s && self.flags[m as usize] & INDEXED != 0;
        let member = list.members.iter().find(indexed);
        list.def == key && member.is_some_and(|&m| def(m as usize).same(&def(s)))
    }

    /// Seed `a`, indexed on its own under `slots`, and seed `s`, of the
    /// same definition (key `def`), form a shared list with a stale row:
    /// their own pairs on it go.
    fn share(&mut self, a: u32, s: u32, slots: Vec<u32>, hash: u64, def: u64) {
        let g = self.free.pop().unwrap_or_else(|| {
            self.shared.push(Shared::default());
            self.shared.len() as u32 - 1
        });
        self.drop_own(a, &slots);
        self.drop_own(s, &slots);
        for (pos, &i) in slots.iter().enumerate() {
            insert_pair(&mut self.shared_at[i as usize], (g, pos as u32));
        }
        self.shared[g as usize] = Shared {
            row: vec![None; slots.len()],
            scores: vec![Score::default(); slots.len()],
            slots,
            hash,
            def,
            members: vec![a.min(s), a.max(s)],
        };
        (self.list[a as usize], self.list[s as usize]) = (g, g);
    }

    /// Drops seed `s`'s own pairs on `slots`.
    fn drop_own(&mut self, s: u32, slots: &[u32]) {
        for (pos, &i) in slots.iter().enumerate() {
            remove_pair(&mut self.by_slot[i as usize], (s, pos as u32));
        }
    }

    /// Seed `s` leaves shared list `g`.
    fn leave(&mut self, s: u32, g: u32) {
        let members = &mut self.shared[g as usize].members;
        if let Ok(k) = members.binary_search(&s) {
            members.remove(k);
        }
        self.list[s as usize] = NO_LIST;
        if members.is_empty() {
            self.unshare(g);
        }
    }

    /// Shared list `g` lost its last member: its pairs go and it is free.
    fn unshare(&mut self, g: u32) {
        let list = &mut self.shared[g as usize];
        for (pos, &i) in list.slots.iter().enumerate() {
            remove_pair(&mut self.shared_at[i as usize], (g, pos as u32));
        }
        *list = Shared::default();
        self.free.push(g);
    }

    /// The indexed (seed, position) pairs naming slot `i`: the seeds'
    /// own pairs, then each shared list's members at its position there.
    /// In no order across lists; [`Scans::prepare`] sorts what it takes.
    fn readers(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let own = self.by_slot.get(i).map_or(&[][..], Vec::as_slice);
        let shared = self.shared_at.get(i).map_or(&[][..], Vec::as_slice);
        let members = shared.iter().flat_map(move |&(g, pos)| {
            let members = &self.shared[g as usize].members;
            members.iter().map(move |&s| (s, pos))
        });
        own.iter().copied().chain(members)
    }

    /// See [`SolveState::check_index`].
    fn check(&self, instance: &PlacementInstance, switches: &Switches) -> Result<(), String> {
        let slots = self.by_slot.len().max(self.shared_at.len());
        let mut want: Vec<Vec<(u32, u32)>> = vec![Vec::new(); slots];
        for (s, seed) in instance.seeds.iter().enumerate() {
            if self.flags.get(s).is_none_or(|f| f & INDEXED == 0) {
                continue;
            }
            for (pos, n) in seed.candidates.iter().enumerate() {
                let i = *switches
                    .slot_of
                    .get(n)
                    .ok_or(format!("index: seed {s}: {n:?}"))?;
                let pairs = want.get_mut(i as usize).ok_or(format!("index: slot {i}"))?;
                pairs.push((s as u32, pos as u32));
            }
        }
        for (i, want) in want.into_iter().enumerate() {
            let names = |&(s, pos): &(u32, u32)| {
                let indexed = self.flags.get(s as usize).is_some_and(|f| f & INDEXED != 0);
                let seed = instance.seeds.get(s as usize);
                let n = seed.and_then(|seed| seed.candidates.get(pos as usize));
                indexed && n == switches.ids.get(i)
            };
            let mut have: Vec<(u32, u32)> = self.readers(i).filter(names).collect();
            have.sort_unstable();
            if have != want {
                return Err(format!(
                    "index: slot {i} holds {have:?}, the seeds name {want:?}"
                ));
            }
        }
        for (g, list) in self.shared.iter().enumerate() {
            if !list.members.is_sorted_by(|a, b| a < b) {
                return Err(format!("index: list {g}'s members {:?}", list.members));
            }
            if let Some(s) = (list.members.iter()).find(|&&s| self.list[s as usize] != g as u32) {
                return Err(format!("index: seed {s} is in list {g}, not its own"));
            }
            let at = |(pos, &i): (usize, &u32)| {
                let pairs = self.shared_at.get(i as usize);
                pairs.is_some_and(|p| p.binary_search(&(g as u32, pos as u32)).is_ok())
            };
            if list.members.is_empty() != list.slots.is_empty()
                || !list.slots.iter().enumerate().all(at)
            {
                return Err(format!("index: list {g} is not where its slots are"));
            }
        }
        Ok(())
    }

    /// Pairs and members the index holds.
    #[cfg(test)]
    fn entries(&self) -> usize {
        let pairs = |v: &Vec<Vec<(u32, u32)>>| v.iter().map(Vec::len).sum::<usize>();
        let members = self.shared.iter().map(|l| l.members.len()).sum::<usize>();
        pairs(&self.by_slot) + pairs(&self.shared_at) + members
    }

    /// Moves the records of the seeds from `r.first` on to their new
    /// indices and drops the dropped seeds' records: only the lists
    /// holding such a seed are rewritten, from the first such seed on,
    /// and a shared list left without members is freed.
    pub(crate) fn remap(&mut self, r: &Remap) {
        r.apply(&mut self.util, 0.0);
        r.apply(&mut self.flags, 0);
        r.apply(&mut self.hash, 0);
        r.apply(&mut self.list, NO_LIST);
        if r.identity() {
            return;
        }
        r.ascending(&mut self.benefits);
        let moves = |last: Option<u32>| last.is_some_and(|s| s as usize >= r.first);
        for pairs in &mut self.by_slot {
            if moves(pairs.last().map(|p| p.0)) {
                r.ascending(pairs);
            }
        }
        let mut emptied = Vec::new();
        for (g, list) in self.shared.iter_mut().enumerate() {
            if moves(list.members.last().copied()) {
                r.ascending(&mut list.members);
                if list.members.is_empty() {
                    emptied.push(g as u32);
                }
            }
        }
        for g in emptied {
            self.unshare(g);
        }
    }

    /// Before a scan: collects the pairs whose switch's state may have
    /// changed since the last scan — [`Switches::moved`] (which covers a
    /// switch step 5 unsettled, since step 5 logs no op, and one that
    /// joined), or left — ascending, and makes each shared list's row
    /// stale at such a switch's position.
    pub(crate) fn prepare(&mut self, instance: &PlacementInstance, switches: &Switches) {
        let Scans {
            by_slot,
            shared_at,
            shared,
            list,
            changed,
            ..
        } = self;
        changed.clear();
        let mut emptied = Vec::new();
        let moved = switches.active.iter().filter(|&&i| switches.moved[i]);
        for &i in moved.chain(&switches.left) {
            let n = switches.ids[i];
            let names = |s: u32, pos: u32| {
                let seed = instance.seeds.get(s as usize);
                seed.and_then(|seed| seed.candidates.get(pos as usize)) == Some(&n)
            };
            if let Some(pairs) = by_slot.get_mut(i) {
                if !pairs.iter().all(|&(s, pos)| names(s, pos)) {
                    pairs.retain(|&(s, pos)| names(s, pos));
                }
                changed.extend_from_slice(pairs);
            }
            for &(g, pos) in shared_at.get(i).into_iter().flatten() {
                shared[g as usize].row[pos as usize] = None;
                let members = &mut shared[g as usize].members;
                if !members.iter().all(|&s| names(s, pos)) {
                    members.retain(|&s| {
                        let stays = names(s, pos);
                        if !stays {
                            list[s as usize] = NO_LIST;
                        }
                        stays
                    });
                    if members.is_empty() {
                        emptied.push(g);
                    }
                }
                changed.extend(members.iter().map(|&s| (s, pos)));
            }
        }
        for g in emptied {
            self.unshare(g);
        }
        // A seed whose candidates changed may name the slot at the same
        // position through its old list and its new one.
        self.changed.sort_unstable();
        self.changed.dedup();
    }

    /// Step 4's walk over the seeds in `visit` (ascending: those whose
    /// seat was written since the last scan, each with the seat it held
    /// then, or whose record was dropped; `None`: every seed, at the seat
    /// it holds) and those with a changed pair (from [`Scans::prepare`]);
    /// every other seed keeps the
    /// benefits it pushed last scan, at the seat it holds. A seed scanned
    /// last solve at the seat it holds now, to the bit, copies the
    /// benefits it pushed then and re-evaluates only its changed
    /// positions; any other placed seed evaluates every position, and
    /// becomes scanned at its seat. `utility(s, min_res, i)` is the
    /// utility seed `s` reaches at the present switch of slot `i`; an
    /// indexed member of a shared list reads it from the list's row,
    /// where the first member that needed the position left it. A
    /// position pushes a benefit when its utility clears the hysteresis
    /// from the seed's utility at its seat. The benefits land in
    /// [`Scans::benefits`]; returns the evaluations made and the
    /// positions read from a row.
    pub(crate) fn scan(
        &mut self,
        instance: &PlacementInstance,
        assignment: impl Fn(usize) -> Slot,
        switches: &Switches,
        visit: Option<&[(u32, Slot)]>,
        min_alloc: impl Fn(usize) -> Option<(Resources, f64)>,
        mut utility: impl FnMut(usize, &Resources, usize) -> Option<f64>,
    ) -> (usize, usize) {
        let Scans {
            util,
            flags,
            list,
            shared,
            benefits,
            next,
            changed,
            ..
        } = self;
        next.clear();
        let (mut at_benefit, mut at_change, mut at_visit) = (0, 0, 0);
        let (mut evaluated, mut read) = (0, 0);
        let every = instance.seeds.len();
        loop {
            let v = match visit {
                Some(visit) => visit.get(at_visit).map(|v| v.0 as usize),
                None => (at_visit < every).then_some(at_visit),
            };
            let c = changed.get(at_change).map(|c| c.0 as usize);
            let s = match (v, c) {
                (None, None) => break,
                (v, c) => v.unwrap_or(usize::MAX).min(c.unwrap_or(usize::MAX)),
            };
            let now = assignment(s);
            let mut was = &now;
            match visit {
                Some(visit) => {
                    while let Some((_, at)) = visit.get(at_visit).filter(|v| v.0 as usize == s) {
                        (was, at_visit) = (at, at_visit + 1);
                    }
                }
                None => at_visit += usize::from(v == Some(s)),
            }
            let from = at_benefit;
            at_benefit += benefits[from..].partition_point(|b| (b.seed as usize) < s);
            next.extend_from_slice(&benefits[from..at_benefit]);
            let olds = run(benefits, &mut at_benefit, s, |b| b.seed);
            let changes = run(changed, &mut at_change, s, |c| c.0);
            let Some((cur, cur_res)) = &now else {
                flags[s] &= !SCANNED;
                continue;
            };
            let was = was.as_ref().filter(|_| flags[s] & SCANNED != 0);
            let kept_res = was.is_some_and(|(_, res)| bits(res) == bits(cur_res));
            let same = kept_res && was.is_some_and(|(seat, _)| seat == cur);
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
                util[s] = u.unwrap_or(0.0);
                flags[s] = flags[s] & INDEXED | if u.is_some() { UTIL_SOME } else { 0 };
            }
            // Only an indexed member is sure to hold its list's
            // candidates and definition.
            let g = list[s];
            let mut row =
                (g != NO_LIST && flags[s] & INDEXED != 0).then(|| &mut shared[g as usize]);
            flags[s] |= SCANNED;
            let cur_u = util[s];
            let mut eval = |pos: usize, next: &mut Vec<Benefit>| {
                let n = seed.candidates[pos];
                if n == *cur {
                    return;
                }
                let u = match &mut row {
                    Some(list) => {
                        let i = list.slots[pos] as usize;
                        if !switches.is_present(i) {
                            return;
                        }
                        if let Some(u) = list.row[pos] {
                            read += 1;
                            u
                        } else {
                            evaluated += 1;
                            *list.row[pos].insert(utility(s, &min_res, i))
                        }
                    }
                    None => {
                        let Some(i) = switches.present_slot(n) else {
                            return;
                        };
                        evaluated += 1;
                        utility(s, &min_res, i)
                    }
                };
                if let Some(u) = u.filter(|&u| u > hysteresis(cur_u)) {
                    let (seed, pos) = (s as u32, pos as u32);
                    next.push(Benefit { u, seed, pos });
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
        next.extend_from_slice(&benefits[at_benefit..]);
        std::mem::swap(benefits, next);
        changed.clear();
        (evaluated, read)
    }

    /// What benefit `b` gains: its utility less its seed's at the seat
    /// it was scanned at — the value step 4 compared with the
    /// hysteresis, to the bit, since a benefit is kept only while its
    /// seed's record is.
    pub(crate) fn gain(&self, b: &Benefit) -> f64 {
        b.u - self.util[b.seed as usize]
    }

    /// The utility of seed `s` at `res`: the one its record holds when
    /// `res` is `at`, the allocation of the post-step-3 seat where the
    /// last scan saw it, to the bit.
    pub(crate) fn utility(
        &self,
        seed: &PlacementSeed,
        s: usize,
        at: Option<Resources>,
        res: &Resources,
    ) -> Option<f64> {
        let scanned = at.filter(|_| self.flags[s] & SCANNED != 0);
        if scanned.is_some_and(|at| bits(&at) == bits(res)) {
            return (self.flags[s] & UTIL_SOME != 0).then_some(self.util[s]);
        }
        seed.util.eval(res)
    }

    /// See [`SolveState::check_rows`]. `def(s)` is seed `s`'s
    /// definition.
    pub(crate) fn check_rows<'d>(
        &self,
        switches: &Switches,
        def: impl Fn(usize) -> Definition<'d>,
    ) -> Result<(), String> {
        for (g, list) in self.shared.iter().enumerate() {
            let indexed = |&&m: &&u32| self.flags[m as usize] & INDEXED != 0;
            let mut members = list.members.iter().filter(indexed).map(|&m| m as usize);
            let Some(first) = members.next() else {
                continue;
            };
            let d = def(first);
            if let Some(m) = std::iter::once(first)
                .chain(members)
                .find(|&m| def(m).key() != list.def || !def(m).same(&d))
            {
                return Err(format!("row: seed {m}'s definition is not list {g}'s"));
            }
            for (pos, (&i, &entry)) in list.slots.iter().zip(&list.row).enumerate() {
                let (i, Some(u)) = (i as usize, entry) else {
                    continue;
                };
                let n = switches.ids[i];
                if !switches.is_present(i) {
                    return Err(format!(
                        "row: list {g} holds {u:?} at position {pos}, switch {n} is not in the round"
                    ));
                }
                // Step 5 changed the state after the scan read it; the
                // next solve builds it again and marks it moved unless
                // its LP output replays over the same ops.
                if !switches.settled[i] {
                    continue;
                }
                let want = d.min.and_then(|(min_res, _)| {
                    let polls = SeedPolls::new(d.ids, d.polls);
                    achievable_utility(d.util, polls, &min_res, switches.states[i].load())
                });
                if u.map(f64::to_bits) != want.map(f64::to_bits) {
                    return Err(format!(
                        "row: list {g} holds {u:?} at position {pos}, switch {n} reaches {want:?}"
                    ));
                }
            }
            for (pos, (&i, entry)) in list.slots.iter().zip(&list.scores).enumerate() {
                let i = i as usize;
                if entry.stamp != switches.stamp[i] {
                    continue;
                }
                let n = switches.ids[i];
                let held = entry.fits.then_some(entry.score);
                let (Some((min_res, _)), Some(kept)) = (d.min, &switches.kept[i]) else {
                    return Err(format!(
                        "score row: list {g} holds {held:?} at position {pos}, switch {n} keeps no usage or the definition no minimum"
                    ));
                };
                let polls = SeedPolls::new(d.ids, d.polls);
                let load = kept.load(&switches.states[i].ares);
                let want = greedy_score(d.util, polls, &min_res, load);
                if held.map(f64::to_bits) != want.map(f64::to_bits) {
                    return Err(format!(
                        "score row: list {g} holds {held:?} at position {pos}, switch {n} scores {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.util)
            + vec_bytes(&self.flags)
            + vec_bytes(&self.hash)
            + vec_bytes(&self.list)
            + vec_bytes(&self.benefits)
            + vec_bytes(&self.next)
            + vec_bytes(&self.changed)
            + vec_bytes(&self.by_slot)
            + self.by_slot.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.shared_at)
            + self.shared_at.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.shared)
            + (self.shared.iter())
                .map(|l| {
                    vec_bytes(&l.slots)
                        + vec_bytes(&l.members)
                        + vec_bytes(&l.row)
                        + vec_bytes(&l.scores)
                })
                .sum::<usize>()
            + vec_bytes(&self.free)
    }
}

/// Inserts `pair` into the ascending `pairs` unless it is there, growing
/// the list by an eighth, not doubling it: the index is kept.
fn insert_pair(pairs: &mut Vec<(u32, u32)>, pair: (u32, u32)) {
    if let Err(k) = pairs.binary_search(&pair) {
        if pairs.len() == pairs.capacity() {
            pairs.reserve_exact(pairs.len() / 8 + 1);
        }
        pairs.insert(k, pair);
    }
}

/// Removes `pair` from the ascending `pairs` if it is there.
fn remove_pair(pairs: &mut Vec<(u32, u32)>, pair: (u32, u32)) {
    if let Ok(k) = pairs.binary_search(&pair) {
        pairs.remove(k);
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
/// step order and step records, per-switch op logs, states and LP
/// outputs, the post-step-3 assignment, step 4's records and the tally.
/// A from-scratch solve runs through a fresh one.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    pub(crate) seeds: Seeds,
    pub(crate) switches: Switches,
    order: Order,
    /// Each seed's step record (see [`NOT_RUN`]), updated in place.
    outcome: Vec<u32>,
    pending: Pending,
    /// The steps a divergence put on the worklist this solve.
    cascade: Pending,
    pub(crate) scans: Scans,
    /// This solve's new and dirty seeds (every seed on a cold solve):
    /// step 4 scans them whole. A warm solve indexes them before step 4;
    /// the next solve indexes those still unindexed and kept.
    unindexed: Vec<u32>,
    /// The post-step-3 assignment, kept between solves.
    pub(crate) post: Post,
    /// This solve's visited steps and their records before the visit, in
    /// step order.
    visited: Vec<(u32, u32)>,
    /// Per seed, its utility at its final allocation (`-0.0` when it has
    /// none, which leaves a sum as it is) and whether it sits off its
    /// previous seat; and how many do.
    pub(crate) final_u: Vec<f64>,
    off_seat: Vec<bool>,
    off_count: usize,
    /// Seeds step 5 relocated last solve, then this solve's.
    pub(crate) relocated: Vec<u32>,
    /// This solve scans and tallies every seed.
    pub(crate) full: bool,
    /// The key of the step being visited: a probe reads states built up
    /// to it.
    at: u64,
    /// Counts the solves, so that a score row entry names the solve
    /// that took it.
    solve: u32,
    /// Score row entries this solve's probes read that an earlier solve
    /// took.
    rows_read: usize,
    replayed: usize,
    executed: usize,
    cascaded: usize,
    /// The options of the last solve: the settled states, which LP
    /// outputs are current and what step 4 saw depend on them.
    options: Option<HeuristicOptions>,
}

impl Memo {
    /// Seeds whose definition changed get their products recomputed;
    /// until then they are not clean, so no op of theirs matches a log.
    pub(crate) fn declare_dirty(&mut self, dirty: &[usize]) {
        for &s in dirty {
            if s < self.seeds.len() {
                self.seeds.forget(s);
            }
        }
    }

    /// Starts a solve of `instance`: brings the seeds, switches, seats
    /// and step order up to it and fills the worklist. Returns how many
    /// runs of the order it patched in place.
    ///
    /// # Panics
    ///
    /// When the instance has [`MAX_SEEDS`] seeds or more.
    pub(crate) fn begin(
        &mut self,
        instance: &PlacementInstance,
        options: HeuristicOptions,
    ) -> usize {
        assert!(
            instance.seeds.len() < MAX_SEEDS,
            "{} seeds: an op names at most {MAX_SEEDS}",
            instance.seeds.len()
        );
        let n = instance.seeds.len();
        self.solve = self.solve.wrapping_add(1);
        // Seeds vanished without a remap, most slots name switches long
        // gone, or a seed had two steps: start over.
        if n < self.seeds.len()
            || self.switches.ids.len() > 2 * instance.switches.len() + 64
            || self.order.repeats
        {
            *self = Memo::default();
        }
        let (fresh, renumbered) = self.seeds.update(instance);
        let cold = self.outcome.is_empty() || renumbered;
        if renumbered {
            // The states and logs speak the old ids, and an LP solved
            // under them may order its variables differently: everything
            // but the products starts over.
            let seeds = std::mem::take(&mut self.seeds);
            *self = Memo {
                seeds,
                ..Memo::default()
            };
            self.seeds.seat_slot.fill(NO_SEAT);
            self.seeds.seen = None;
        }
        let sw = &mut self.switches;
        sw.begin(instance);
        for i in std::mem::take(&mut sw.forgot) {
            // Its reserve section is not in its (dropped) log either.
            sw.restart(i);
            sw.prior[i] = None;
        }
        self.seeds.seat_previous(instance, sw);
        for &s in &fresh {
            if let Some(i) = self.seeds.seat(s as usize) {
                sw.restart(i);
            }
        }
        // The settled states depend on the options, a solve with step 3
        // off keeps no LP output, and one with step 4 off
        // scans nothing.
        if self.options != Some(options) {
            for i in 0..sw.ids.len() {
                sw.set_lp(i, false);
                sw.unsettle(i);
            }
            self.scans.forget();
            self.options = Some(options);
            self.full = true;
        }
        self.full |= cold;
        self.scans.begin(n, &fresh);
        let kept: Vec<u32> = std::mem::take(&mut self.unindexed)
            .into_iter()
            .filter(|&s| (s as usize) < n && self.seeds.kept(s as usize))
            .collect();
        let seeds = &self.seeds;
        self.scans
            .index(&kept, instance, sw, |s| seeds.definition(instance, s));
        self.outcome.resize(n, NOT_RUN);
        self.post.resize(n);
        self.final_u.resize(n, -0.0);
        self.off_seat.resize(n, false);
        self.visited.clear();

        self.post.track = !self.full;
        let re = self
            .order
            .update(instance, &self.seeds, &fresh, &self.outcome);
        // The steps that stayed keep their order, so the logs keep theirs
        // but for the ops of a step that went: its switch starts over, as
        // every switch does when the order is scrambled.
        for &s in &re.gone {
            let s = s as usize;
            if let Some((i, _)) = landing(self.outcome[s]) {
                sw.restart(i);
            }
            self.outcome[s] = NOT_RUN;
            self.post.write(s, None);
        }
        for &i in &re.closes {
            sw.restart(i);
        }
        // A scrambled order keeps no task's drop, so every post-step-3
        // slot is written again, from the greedy, and every LP runs.
        if re.scrambled {
            for i in 0..sw.ids.len() {
                sw.restart(i);
                sw.set_lp(i, false);
            }
            self.scans.forget();
            (self.full, self.post.track) = (true, false);
        }
        let cold = cold || re.scrambled;
        let steps = self.order.steps.len();
        self.pending.reset(steps);
        self.cascade.reset(steps);
        if cold {
            self.pending.set_range(0, steps);
        } else {
            for &k in &re.pending {
                self.pending.set(k);
            }
            for &s in &self.seeds.unclean {
                let k = self.order.step_of[s as usize];
                if k != NO_STEP {
                    self.pending.set(k as usize);
                }
            }
            for &i in sw.restarted.iter().chain(&sw.left) {
                for (s, _) in self.scans.readers(i) {
                    let k = self
                        .order
                        .step_of
                        .get(s as usize)
                        .copied()
                        .unwrap_or(NO_STEP);
                    if k != NO_STEP {
                        self.pending.set(k as usize);
                    }
                }
            }
        }
        self.unindexed = if cold { (0..n as u32).collect() } else { fresh };
        // A warm solve indexes its new and dirty seeds before the greedy,
        // so that their probes read the score rows, and step 4 the rows,
        // of the shared lists they join; a full solve leaves every seed
        // to the next solve's index.
        if !self.full {
            let (seeds, sw) = (&self.seeds, &mut self.switches);
            (self.scans).index(&self.unindexed, instance, sw, |s| {
                seeds.definition(instance, s)
            });
        }
        re.patched
    }

    /// The greedy's steps later than `first` that read switch `i` last
    /// solve go on the worklist.
    fn enqueue_readers(&mut self, i: usize, first: usize) {
        for (s, _) in self.scans.readers(i) {
            let k = self
                .order
                .step_of
                .get(s as usize)
                .copied()
                .unwrap_or(NO_STEP);
            if k != NO_STEP && k as usize >= first {
                self.pending.set(k as usize);
                self.cascade.set(k as usize);
            }
        }
    }

    /// Switch `i`'s ops depart from its log at `key`; the steps from
    /// `first` on that read it last solve are visited.
    fn diverge(&mut self, instance: &PlacementInstance, i: usize, key: u64, first: usize) {
        let Memo {
            switches,
            order,
            seeds,
            ..
        } = self;
        if switches.diverge(i, key, order, seeds, instance) {
            self.enqueue_readers(i, first);
        }
    }

    /// Steps 1–2: the reserve sections that start over, then the steps on
    /// the worklist, task by task, each followed by its task's close when
    /// the task had a visited step. `probe` runs a step for real. Returns
    /// the dropped tasks in step order.
    pub(crate) fn greedy(
        &mut self,
        instance: &PlacementInstance,
        probe: fn(&PlacementInstance, &mut Memo, usize) -> Outcome,
    ) -> Vec<usize> {
        self.reserve(instance);
        (self.replayed, self.executed, self.cascaded, self.rows_read) = (0, 0, 0, 0);
        let (mut reached, mut dropped) = (0, Vec::new());
        for r in 0..self.order.runs.len() {
            let Run {
                task, start, end, ..
            } = self.order.runs[r];
            let (start, end) = (start as usize, end as usize);
            let mut fail = self.order.runs[r].fail as usize;
            let first = self.visited.len();
            let mut from = start;
            while let Some(k) = self.pending.take(from, end) {
                from = k + 1;
                let s = self.order.steps[k] as usize;
                let old = self.outcome[s];
                self.cascaded += usize::from(self.cascade.has(k) && self.seeds.clean(s));
                let new = if k > fail {
                    NOT_RUN
                } else {
                    self.at = step_key(k);
                    match self.replay(instance, s, old) {
                        Some(kept) => kept,
                        None => {
                            self.executed += 1;
                            record_of(probe(instance, self, s))
                        }
                    }
                };
                self.visited.push((k as u32, old));
                if (old == FAILED) != (new == FAILED) {
                    // The task fails elsewhere now: the rest of its steps
                    // run or stop.
                    self.pending.set_range(k + 1, end);
                }
                if k <= fail {
                    if new == FAILED {
                        fail = k;
                    } else if old == FAILED {
                        fail = end;
                    }
                }
                self.outcome[s] = new;
                self.step_ops(instance, k, s, old, new);
            }
            if self.visited.len() > first || self.full {
                self.close(instance, r, fail, first);
            }
            reached += (fail + 1).min(end) - start;
            if fail < end {
                dropped.push(task as usize);
            }
        }
        self.replayed = reached - self.executed;
        dropped
    }

    /// Writes the reserve sections of the switches that start over: the
    /// seeds seated there, ascending. One with its last log (a reserve
    /// section that changed) takes them from that log's reserve section,
    /// less the seats that left, plus `arrivals`; the others (joined,
    /// changed capacity, log dropped) from one walk over the seeds.
    fn reserve(&mut self, instance: &PlacementInstance) {
        let Memo {
            switches: sw,
            seeds,
            ..
        } = self;
        let mut arrivals = std::mem::take(&mut sw.arrivals);
        arrivals.sort_unstable();
        let mut walk = false;
        for k in 0..sw.restarted.len() {
            let i = sw.restarted[k];
            let Some((_, log)) = &sw.prior[i] else {
                walk = true;
                continue;
            };
            let stayed = log
                .iter()
                .take_while(|op| op.kind() == OpKind::Reserve)
                .map(|op| op.seed() as u32)
                .filter(|&s| seeds.seat_slot[s as usize] == i as u32);
            let at = arrivals.partition_point(|a| a.0 < i as u32);
            let came = arrivals[at..].iter().take_while(|a| a.0 == i as u32);
            let mut seated: Vec<u32> = stayed.chain(came.map(|a| a.1)).collect();
            seated.sort_unstable();
            seated.dedup();
            for s in seated {
                sw.emit(i, Op::new(s as usize, OpKind::Reserve), seeds, instance);
            }
        }
        if walk {
            for s in 0..seeds.len() {
                let Some(i) = seeds.seat(s) else {
                    continue;
                };
                if sw.mode[i] == Mode::Diverged && sw.prior[i].is_none() {
                    sw.emit(i, Op::new(s, OpKind::Reserve), seeds, instance);
                }
            }
        }
        arrivals.clear();
        arrivals.shrink_to(64);
        sw.arrivals = arrivals;
    }

    /// The record seed `s`'s step keeps, if it may: the seed is clean,
    /// and no switch its step read last solve (its home, or every
    /// candidate when it scanned) has diverged before it, joined or left.
    fn replay(&self, instance: &PlacementInstance, s: usize, old: u32) -> Option<u32> {
        if !self.seeds.clean(s) || old == NOT_RUN {
            return None;
        }
        let sw = &self.switches;
        let read_changed = match landing(old) {
            Some((h, true)) => sw.changed_slot(h),
            _ => instance.seeds[s].candidates.iter().any(|&n| sw.changed(n)),
        };
        (!read_changed).then_some(old)
    }

    /// Step `k` (seed `s`) went from record `old` to `new`: a switch it
    /// left or took diverges there, and one that diverged takes its ops.
    fn step_ops(&mut self, instance: &PlacementInstance, k: usize, s: usize, old: u32, new: u32) {
        let (was, now) = (landing(old), landing(new));
        if old != new || !self.seeds.clean(s) {
            for (i, _) in was.into_iter().chain(now) {
                self.diverge(instance, i, step_key(k), k + 1);
            }
        }
        if let Some((i, home)) = now {
            if home {
                let op = Op::new(s, OpKind::Release);
                self.switches.emit(i, op, &self.seeds, instance);
            }
            let op = Op::new(s, OpKind::Place);
            self.switches.emit(i, op, &self.seeds, instance);
        }
    }

    /// Ends run `r`, which had a visited step (its first at
    /// `visited[first]`) and now fails at `fail`: its close is compared
    /// with the last solve's switch by switch and written where a switch
    /// diverged, and the `post` slots of the steps whose placement
    /// changed are rewritten.
    fn close(&mut self, instance: &PlacementInstance, r: usize, fail: usize, first: usize) {
        let run = self.order.runs[r];
        let (start, end, was) = (run.start as usize, run.end as usize, run.fail as usize);
        (self.order.runs[r].fail, self.order.runs[r].dropped) = (fail as u32, fail < end);
        let visited = &self.visited[first..];
        if was < end || fail < end {
            let old_of = |j: usize| match visited.binary_search_by_key(&(j as u32), |v| v.0) {
                Ok(x) => visited[x].1,
                Err(_) => self.outcome[self.order.steps[j] as usize],
            };
            // A task that failed at `fail` unplaces the steps before it.
            let undo = |fail: usize, rec: &dyn Fn(usize) -> u32| {
                let mut ops: Vec<(usize, Op)> = Vec::new();
                for j in (fail < end).then_some(start..fail).into_iter().flatten() {
                    let s = self.order.steps[j] as usize;
                    if let Some((i, home)) = landing(rec(j)) {
                        ops.push((i, Op::new(s, OpKind::Unplace)));
                        if home {
                            ops.push((i, Op::new(s, OpKind::Restore)));
                        }
                    }
                }
                ops.sort_by_key(|&(i, _)| i);
                ops
            };
            let olds = undo(was, &old_of);
            let news = undo(fail, &|j| self.outcome[self.order.steps[j] as usize]);
            let mut moved = Vec::new();
            let (mut a, mut b) = (0, 0);
            while a < olds.len() || b < news.len() {
                let i = olds.get(a).map_or(usize::MAX, |o| o.0);
                let i = i.min(news.get(b).map_or(usize::MAX, |o| o.0));
                let (a0, b0) = (a, b);
                while olds.get(a).is_some_and(|o| o.0 == i) {
                    a += 1;
                }
                while news.get(b).is_some_and(|o| o.0 == i) {
                    b += 1;
                }
                let clean = news[b0..b]
                    .iter()
                    .all(|&(_, op)| self.seeds.clean(op.seed()));
                if olds[a0..a] != news[b0..b] || !clean {
                    moved.push(i);
                }
            }
            for i in moved {
                self.diverge(instance, i, close_key(end), end);
            }
            for (i, op) in news {
                self.switches.emit(i, op, &self.seeds, instance);
            }
        }
        // The post-step-3 slots of steps whose placement changed.
        let ok = fail == end;
        let placed = |memo: &Memo, s: usize| {
            let at = landing(memo.outcome[s]).filter(|_| ok);
            at.map(|(i, _)| (i, memo.seeds.min_res(s)))
        };
        if self.full || run.dropped == ok {
            for j in start..end {
                let s = self.order.steps[j] as usize;
                let v = placed(self, s);
                self.post.write(s, v);
            }
        } else {
            for x in first..self.visited.len() {
                let (k, old) = self.visited[x];
                let s = self.order.steps[k as usize] as usize;
                // A home stay or a placement on the same switch puts the
                // seed there at the same allocation.
                let at = |r: u32| landing(r).map(|(i, _)| i);
                if at(old) != at(self.outcome[s]) || !self.seeds.kept(s) {
                    let v = placed(self, s);
                    self.post.write(s, v);
                }
            }
        }
    }

    /// Builds switch `i`'s state for a probe of the step being visited.
    pub(crate) fn read(&mut self, instance: &PlacementInstance, i: usize) {
        let Memo {
            switches,
            order,
            seeds,
            at,
            ..
        } = self;
        switches.materialize(i, *at, order, seeds, instance);
    }

    /// Readies switch `i`'s load for a probe of the step being visited
    /// ([`Switches::load`]).
    pub(crate) fn look(&mut self, instance: &PlacementInstance, i: usize) {
        let Memo {
            switches,
            order,
            seeds,
            at,
            ..
        } = self;
        switches.look(i, *at, order, seeds, instance);
    }

    /// The candidate walk of step 2a for seed `s`, an indexed member of
    /// shared list `g` ([`Scans::row_of`]), at its minimum allocation
    /// `min_res`: the list's slots, which are the seed's candidates in
    /// order, but `home` and those not in the round, each scored and
    /// handed to `take` with its slot. Where the probe reads a switch at its
    /// kept usage ([`Switches::look`]), the score is the list's entry
    /// there if it was taken under the switch's current stamp, and is
    /// taken from the kept usage and stored otherwise; any other switch
    /// is readied as [`Memo::look`] readies it, and scored.
    pub(crate) fn walk_row(
        &mut self,
        instance: &PlacementInstance,
        s: usize,
        g: u32,
        min_res: &Resources,
        home: Option<usize>,
        mut take: impl FnMut(usize, Option<f64>),
    ) {
        let Memo {
            switches: sw,
            seeds,
            scans,
            order,
            at,
            solve,
            rows_read,
            ..
        } = self;
        let (util, polls) = (&instance.seeds[s].util, seeds.polls(instance, s));
        let Shared { slots, scores, .. } = &mut scans.shared[g as usize];
        for (&i, entry) in slots.iter().zip(scores.iter_mut()) {
            let i = i as usize;
            if !sw.is_present(i) || home == Some(i) {
                continue;
            }
            let whole = sw.whole_before(i, *at, order);
            let score = if whole && entry.stamp == sw.stamp[i] {
                // Every write and drop of the kept usage bumps the stamp:
                // an entry under the current one was taken from the usage
                // kept now.
                *rows_read += usize::from(entry.solve != *solve);
                entry.fits.then_some(entry.score)
            } else if let Some(kept) = sw.kept[i].as_ref().filter(|_| whole) {
                let score = greedy_score(util, polls, min_res, kept.load(&sw.states[i].ares));
                *entry = Score {
                    stamp: sw.stamp[i],
                    score: score.unwrap_or(0.0),
                    fits: score.is_some(),
                    solve: *solve,
                };
                sw.mark_read(i);
                score
            } else {
                sw.look(i, *at, order, seeds, instance);
                greedy_score(util, polls, min_res, sw.load(i))
            };
            take(i, score);
        }
    }

    /// How a probe of the step being visited reads switch `i`: `None`
    /// where it diverged (or is not in the round); else whether its log
    /// ends before the step, where its kept usage is read in place.
    #[cfg(test)]
    pub(crate) fn reads_log_end(&self, i: usize) -> Option<bool> {
        let sw = &self.switches;
        matches!(sw.mode[i], Mode::Clean | Mode::Live)
            .then(|| sw.whole_before(i, self.at, &self.order))
    }

    /// Ends step 2 ([`Switches::settle_greedy`]); returns how many
    /// switches were rebuilt, how many others a probe built or viewed,
    /// and how many score row entries the probes read that an earlier
    /// solve took.
    pub(crate) fn end_greedy(&mut self, instance: &PlacementInstance) -> (usize, usize, usize) {
        let (rebuilt, read) = (self.switches).settle_greedy(&self.order, &self.seeds, instance);
        (rebuilt, read, self.rows_read)
    }

    /// Greedy steps replayed, executed, visited and cascaded this solve.
    pub(crate) fn steps_run(&self) -> (usize, usize, usize, usize) {
        let (replayed, executed) = (self.replayed, self.executed);
        (replayed, executed, self.visited.len(), self.cascaded)
    }

    /// The seeds step 4 scans, each with the post-step-3 slot it held
    /// at the last scan: those whose slot changed or whose record went;
    /// `None` on a full solve, which scans every seed with no records.
    pub(crate) fn to_scan(&self) -> Option<Vec<(u32, Slot)>> {
        if self.full {
            return None;
        }
        let ids = &self.switches.ids;
        let mut v: Vec<(u32, Slot)> = self.unindexed.iter().map(|&s| (s, None)).collect();
        let changed = self.post.changed.iter();
        v.extend(changed.map(|&(s, at, res)| (s, Post::slot(at, res, ids))));
        // A stable sort: a changed seed's old slot comes last, and wins.
        v.sort_by_key(|v| v.0);
        Some(v)
    }

    /// The tally over the final `assignment`: rewrites the per-seed
    /// utility and seat flag of every seed that may have moved (all on a
    /// full solve), and returns the objective summed in seed order and
    /// the seeds off their previous seat.
    pub(crate) fn tally(
        &mut self,
        instance: &PlacementInstance,
        assignment: &[Option<(SwitchId, Resources)>],
        relocated: Vec<u32>,
    ) -> (f64, usize) {
        let last = std::mem::replace(&mut self.relocated, relocated);
        let redo = |memo: &mut Memo, s: usize| {
            let (u, off) = match &assignment[s] {
                Some((n, res)) => (
                    memo.scans
                        .utility(&instance.seeds[s], s, memo.post.res(s), res)
                        .unwrap_or(-0.0),
                    memo.seeds
                        .seat(s)
                        .is_some_and(|i| memo.switches.ids[i] != *n),
                ),
                None => (-0.0, false),
            };
            memo.final_u[s] = u;
            memo.off_count = memo.off_count + usize::from(off) - usize::from(memo.off_seat[s]);
            memo.off_seat[s] = off;
        };
        if self.full {
            for s in 0..assignment.len() {
                redo(self, s);
            }
        } else {
            let visited = self
                .visited
                .iter()
                .map(|&(k, _)| self.order.steps[k as usize]);
            let mut seeds: Vec<u32> = visited.collect();
            seeds.extend(self.post.changed.iter().map(|&(s, ..)| s));
            seeds.extend(&self.unindexed);
            seeds.extend(&self.seeds.unclean);
            seeds.extend(&last);
            seeds.extend(&self.relocated);
            seeds.sort_unstable();
            seeds.dedup();
            for s in seeds {
                redo(self, s as usize);
            }
        }
        self.full = false;
        self.post.settle();
        self.visited.clear();
        self.visited.shrink_to(64);
        (self.final_u.iter().sum(), self.off_count)
    }

    /// Moves what is kept of the seeds from `r.first` on to their new
    /// indices; the seeds before it and their records stay as they are.
    fn remap(&mut self, r: &Remap) {
        if r.identity() {
            return;
        }
        let dropped = (r.first..self.outcome.len()).filter(|&s| r.seed(s).is_none());
        self.off_count -= dropped.filter(|&s| self.off_seat[s]).count();
        self.seeds.remap(r);
        self.order.remap(r);
        self.switches.remap(r);
        self.scans.remap(r);
        r.apply(&mut self.outcome, NOT_RUN);
        self.post.remap(r);
        r.apply(&mut self.final_u, -0.0);
        r.apply(&mut self.off_seat, false);
        let moved = |s: &mut u32| r.id(*s).map(|n| *s = n).is_some();
        self.unindexed.retain_mut(moved);
        self.relocated.retain_mut(moved);
    }

    fn bytes(&self) -> usize {
        self.seeds.bytes()
            + self.switches.bytes()
            + self.order.bytes()
            + vec_bytes(&self.outcome)
            + self.pending.bytes()
            + self.cascade.bytes()
            + self.scans.bytes()
            + vec_bytes(&self.unindexed)
            + self.post.bytes()
            + vec_bytes(&self.visited)
            + vec_bytes(&self.final_u)
            + vec_bytes(&self.off_seat)
            + vec_bytes(&self.relocated)
    }
}

/// Solver state retained between [`replan_delta`] calls: the greedy
/// pass's memory with each switch's last LP output, and the last
/// benefit scan.
#[derive(Debug, Default)]
pub struct SolveState {
    pub(crate) memo: Memo,
    /// Completed solves through this state (0 ⇒ next solve is cold).
    pub(crate) solves: u64,
    /// A [`SolveState::remap`] came after the last solve: the memory
    /// speaks of a renumbered instance it has not solved yet.
    remapped: bool,
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

    /// Checks what a read-only probe relies on: after a solve, every
    /// switch of its instance keeps the usage its capacity and its op
    /// log build, to the bit, and its log's last op. Returns the first
    /// switch that does not.
    ///
    /// # Errors
    ///
    /// The switch whose kept usage is stale or missing.
    pub(crate) fn check_kept_usage(&self, instance: &PlacementInstance) -> Result<(), SwitchId> {
        let (sw, seeds) = (&self.memo.switches, &self.memo.seeds);
        let holds = |i: usize| {
            let kept = sw.kept[i].as_ref();
            kept.is_some_and(|k| k.same(&sw.rebuilt(i, seeds, instance)))
                && sw.log_end[i] == sw.logs[i].last().copied()
        };
        match (0..sw.ids.len()).find(|&i| sw.is_present(i) && !holds(i)) {
            Some(i) => Err(sw.ids[i]),
            None => Ok(()),
        }
    }

    /// Checks the kept step order (step 1's) against a layout from
    /// scratch of `instance`'s tasks, after a solve of it.
    ///
    /// # Errors
    ///
    /// Where the kept order and the layout part.
    pub(crate) fn check_order(&self, instance: &PlacementInstance) -> Result<(), String> {
        self.memo.order.check(instance, &self.memo.seeds)
    }

    /// Checks the kept (seed, position) index against one built from
    /// scratch: for every switch slot, the pairs the index yields whose
    /// seed is indexed and names the slot at that position are exactly
    /// that seed's pairs, once each; each shared list's members are
    /// ascending and its pairs are in the per-slot lists.
    ///
    /// # Errors
    ///
    /// The first slot or list where they part.
    pub(crate) fn check_index(&self, instance: &PlacementInstance) -> Result<(), String> {
        self.memo.scans.check(instance, &self.memo.switches)
    }

    /// Checks the shared lists' rows: every indexed member of a list
    /// has the list's definition, to the bit; every entry of step 4's
    /// row that is not stale is the utility that definition reaches at
    /// the switch, recomputed against its state — but at a switch step 5
    /// changed after the scan, which the next solve builds again — and a
    /// switch that is not in the round holds no entry; every entry of
    /// the score row taken under the switch's current stamp is the greedy
    /// score the definition gets against the switch's kept usage, to the
    /// bit.
    ///
    /// # Errors
    ///
    /// The first member or entry that differs.
    pub(crate) fn check_rows(&self, instance: &PlacementInstance) -> Result<(), String> {
        let seeds = &self.memo.seeds;
        let def = |s| seeds.definition(instance, s);
        self.memo.scans.check_rows(&self.memo.switches, def)
    }

    /// Checks the kept previous seats against `seats`, the table they
    /// were last taken from: every seed the table has not logged a write
    /// of since holds its seat there, to the bit. A table they were not
    /// taken from, or whose log started over since, holds them to
    /// nothing: the next solve walks it whole.
    ///
    /// # Errors
    ///
    /// The first seed whose kept seat is stale.
    pub(crate) fn check_seats(&self, seats: &Seats) -> Result<(), String> {
        self.memo.seeds.check_seats(seats, &self.memo.switches.ids)
    }

    /// Holds what the state keeps to its recomputation. After a solve of
    /// `instance` with no [`SolveState::remap`] since: every switch's
    /// kept usage to a rebuild from its op log, the step order to a
    /// layout from scratch, the (seed, position) index to one built
    /// from scratch and the shared lists' rows to their recomputation;
    /// before the first solve or after a remap these wait for the next
    /// solve. Given the table the previous seats were taken
    /// from: every seat the table has not logged a write of since to the
    /// table.
    ///
    /// # Errors
    ///
    /// The first kept structure that differs, named.
    pub fn audit(&self, instance: &PlacementInstance, seats: Option<&Seats>) -> Result<(), String> {
        if self.solves > 0 && !self.remapped {
            (self.check_kept_usage(instance))
                .map_err(|sw| format!("kept usage or log end of switch {sw} is not its log's"))?;
            self.check_order(instance)?;
            self.check_index(instance)?;
            self.check_rows(instance)?;
        }
        seats.map_or(Ok(()), |seats| self.check_seats(seats))
    }

    /// Switches whose residents hold their LP's output.
    fn lp_outputs(&self) -> usize {
        self.memo.switches.lp_count()
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
    /// correspondence so unrelated switches keep their memo. The seeds
    /// before the first one the map moves are not touched: the cost is
    /// what the moved seeds hold.
    pub fn remap(&mut self, map: &[Option<usize>]) {
        let r = Remap::new(map, self.memo.outcome.len());
        self.memo.remap(&r);
        self.remapped = true;
    }
}

/// Re-solves `instance` incrementally through `state`. Returns the
/// placement — bit-identical to `solve_heuristic(instance, options)` —
/// plus a [`DeltaReport`] of how much work was reused.
///
/// Telemetry (when given): `solver.replan_delta` counts calls,
/// `solver.delta_fallback_full` counts warm solves that replayed no LP,
/// `solver.greedy_steps_replayed` / `solver.greedy_steps_executed` /
/// `solver.greedy_steps_visited` count greedy steps,
/// `solver.switches_read` the switches a probe built or viewed (kept
/// their state from the last solve; a score read from a list's score
/// row is neither), the
/// `solver.delta_frontier`, `solver.switches_rebuilt` and
/// `solver.benefit_pairs_evaluated` histograms record the LPs run, the
/// switches whose greedy state was rebuilt and the (seed, candidate)
/// pairs step 4 evaluated, and the `solver.delta_cache_entries` /
/// `solver.delta_cache_bytes` gauges say how many LP outputs are stored
/// and what the whole state retains afterwards. Phase times are read on
/// the wall clock.
pub fn replan_delta(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    state: &mut SolveState,
    delta: &ReplanDelta,
    telemetry: Option<&Telemetry>,
) -> (PlacementResult, DeltaReport) {
    let spans = &mut SpanLog::wall();
    replan_delta_traced(instance, options, state, delta, telemetry, spans)
}

/// [`replan_delta`], its phases the spans `greedy`, `lp_redistribution`
/// and `migration` of `spans` and timed on its clock.
pub fn replan_delta_traced(
    instance: &PlacementInstance,
    options: HeuristicOptions,
    state: &mut SolveState,
    delta: &ReplanDelta,
    telemetry: Option<&Telemetry>,
    spans: &mut SpanLog,
) -> (PlacementResult, DeltaReport) {
    state.memo.declare_dirty(&delta.dirty_seeds);
    let (result, mut report) = solve_core(instance, options, telemetry, spans, &mut state.memo);
    report.warm = state.solves > 0;
    report.fallback_full = report.warm && report.lp_switches > 0 && report.reused == 0;
    state.solves += 1;
    state.remapped = false;

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
        i.steps_visited.add(report.steps_visited as u64);
        i.switches_rebuilt.record(report.switches_rebuilt as u64);
        i.switches_read.add(report.switches_read as u64);
        i.cache_entries.set(state.lp_outputs() as f64);
        i.cache_bytes.set(state.cache_bytes() as f64);
    }
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{Scope, TaskRows};
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
        assert_eq!(state.lp_outputs(), report.lp_switches);
        assert_eq!(report.frontier, report.lp_switches);
        // The LP outputs live in the kept post-step-3 assignment.
        let memo = &state.memo;
        let updates = (0..inst.seeds.len())
            .filter(|&s| {
                let res = memo.post.res(s);
                res.is_some_and(|r| bits(&r) != bits(&memo.seeds.min_res(s)))
            })
            .count();
        assert!(updates > 0);
        assert!(state.cache_bytes() >= inst.seeds.len() * size_of::<Resources>());
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
        for (_, ares) in inst.switches.iter_mut() {
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
                for (_, ares) in inst.switches.iter_mut() {
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
        // A resident of a switch whose residents hold its LP's output.
        let sw = &dirty.memo.switches;
        let lp = (0..sw.ids.len()).filter(|&i| sw.lp[i]);
        let resident = lp.flat_map(|i| sw.states[i].seeds.first()).next();
        let s = *resident.expect("an LP over a resident") as usize;

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
        assert_eq!(report.steps_visited, 0, "{report:?}");
        assert_eq!(report.switches_rebuilt, 0, "{report:?}");
        assert_eq!(report.steps_replayed, cold.steps_executed);
    }

    /// A world solved twice more with nothing changed: the state, the
    /// instance and its last result.
    fn settled(seed: u64) -> (SolveState, PlacementInstance, PlacementResult) {
        let mut inst = small_instance(seed);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let mut r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        for _ in 0..3 {
            as_previous(&mut inst, &r);
            r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        }
        as_previous(&mut inst, &r);
        (state, inst, r)
    }

    /// One round over `inst`'s switches as the seeder plans it: the kept
    /// scope follows the list's log, or, when it cannot, every task is
    /// scoped again. The scope must be what scoping every task gives and
    /// the warm solve the fresh one. Returns whether the scope followed.
    fn scoped_round(
        inst: &mut PlacementInstance,
        scope: &mut Option<Scope>,
        state: &mut SolveState,
    ) -> bool {
        let previous = inst.previous.take();
        let followed = scope.as_mut().and_then(|s| s.follow(inst)).is_some();
        if !followed {
            let held = inst.begin_round(None);
            *scope = Scope::of(inst, held);
        }
        let mut fresh = inst.clone();
        let held = fresh.begin_round(None);
        if let Some(scope) = scope {
            assert_eq!(scope.held(), held);
            assert_eq!(scope.check(inst), Ok(()));
        }
        for (a, b) in inst.tasks.iter().zip(&fresh.tasks) {
            assert_eq!(a.seeds, b.seeds);
        }
        inst.previous = previous;
        let opts = HeuristicOptions::default();
        let (r, _) = replan_delta(inst, opts, state, &ReplanDelta::default(), None);
        assert_same(&r, &solve_heuristic(inst, opts));
        let seats = inst.previous.as_ref().map(|p| &p.assignment);
        assert_eq!(state.audit(inst, seats), Ok(()));
        as_previous(inst, &r);
        followed
    }

    #[test]
    fn a_cordon_and_an_uncordon_of_one_switch_follow_the_log() {
        let (mut state, mut inst, _) = settled(11);
        let mut scope = None;
        scoped_round(&mut inst, &mut scope, &mut state);
        let (n, ares) = inst.switches[4];
        let slot = state.memo.switches.present_slot(n).unwrap();
        for edit in [None, Some(ares)] {
            let at = inst.switches.log_at();
            inst.switches.set(n, edit);
            assert_eq!(inst.switches.changes_since(Some(at)), Some(&[n][..]));
            assert!(scoped_round(&mut inst, &mut scope, &mut state));
            let sw = &state.memo.switches;
            assert_eq!(sw.is_present(slot), edit.is_some());
            if edit.is_none() {
                assert_eq!(sw.left, [slot], "the table visits the one switch");
            }
        }
    }

    #[test]
    fn a_reader_whose_place_fell_off_the_log_walks() {
        let (mut state, mut inst, _) = settled(12);
        let mut scope = None;
        scoped_round(&mut inst, &mut scope, &mut state);
        let at = inst.switches.log_at();
        let (n, ares) = inst.switches[2];
        // More sets than the log keeps; what they leave is one cordon and
        // one degraded switch.
        for _ in 0..40 {
            inst.switches.set(n, None);
            inst.switches.set(n, Some(ares));
        }
        inst.switches.set(n, None);
        let (m, mut less) = inst.switches[5];
        less.0[0] *= 0.8;
        inst.switches.set(m, Some(less));
        assert_eq!(inst.switches.changes_since(Some(at)), None);
        let slot = state.memo.switches.present_slot(n).unwrap();
        assert!(!scoped_round(&mut inst, &mut scope, &mut state));
        assert_eq!(state.memo.switches.left, [slot]);
    }

    #[test]
    fn a_hand_edit_after_a_set_walks() {
        let (mut state, mut inst, _) = settled(13);
        let mut scope = None;
        scoped_round(&mut inst, &mut scope, &mut state);
        let at = inst.switches.log_at();
        let (n, ares) = inst.switches[3];
        inst.switches.set(n, None);
        inst.switches[0].1 .0[0] *= 0.9;
        assert_eq!(inst.switches.changes_since(Some(at)), None);
        assert!(!scoped_round(&mut inst, &mut scope, &mut state));
        // Pushed back last by hand, out of id order: a set on that list
        // starts the log over too, and nothing can follow it.
        inst.switches.push((n, ares));
        let at = inst.switches.log_at();
        let (m, _) = inst.switches[1];
        inst.switches.set(m, None);
        assert_eq!(inst.switches.changes_since(Some(at)), None);
        assert!(!scoped_round(&mut inst, &mut scope, &mut state));
        assert!(scope.is_none(), "no scope over ids out of order");
    }

    #[test]
    fn a_one_seed_tweak_visits_the_seed_and_its_seats_readers() {
        // A seed declared dirty without a real change: its products are
        // recomputed, its home's reserve section is written again, and
        // the steps that read that switch are visited. Nothing decides
        // otherwise, so nothing else diverges and nothing cascades.
        let (mut state, inst, r) = settled(8);
        let opts = HeuristicOptions::default();
        let s = (0..inst.seeds.len())
            .find(|&s| r.assignment[s].is_some())
            .expect("a placed seed");
        let home = r.assignment[s].expect("placed").0;
        let readers = (0..inst.seeds.len())
            .filter(|&x| x == s || inst.seeds[x].candidates.contains(&home))
            .count();
        let (next, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::seeds([s]), None);
        assert_same(&next, &solve_heuristic(&inst, opts));
        assert_eq!(report.steps_visited, readers, "{report:?}");
        assert_eq!(report.steps_cascaded, 0, "{report:?}");
    }

    #[test]
    fn a_seat_change_rebuilds_both_reserve_sections() {
        // A seed's previous seat moves to a switch it is not placed on:
        // its reservation leaves the old seat's reserve section and joins
        // the new one's, and both switches' logs say so.
        let (mut state, mut inst, r) = settled(10);
        let opts = HeuristicOptions::default();
        let s = (0..inst.seeds.len())
            .find(|&s| r.assignment[s].is_some())
            .expect("a placed seed");
        let (from, res) = r.assignment[s].expect("placed");
        let (to, _) = *inst
            .switches
            .iter()
            .find(|(n, _)| *n != from)
            .expect("another switch");
        inst.previous
            .as_mut()
            .expect("set")
            .assignment
            .insert(s, (to, res));
        let (next, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&next, &solve_heuristic(&inst, opts));
        let sw = &state.memo.switches;
        let reserves = |n: SwitchId| {
            let log = &sw.logs[sw.present_slot(n).expect("present")];
            log.contains(&Op::new(s, OpKind::Reserve))
        };
        assert!(!reserves(from) && reserves(to));
    }

    #[test]
    fn seat_moves_capacity_changes_and_remaps_rewrite_the_kept_usage() {
        // A settled world. Before each event the switch it touches and
        // one it does not are given a wrong kept usage: the solve writes
        // the touched one again, and the other keeps the wrong one.
        let (mut state, mut inst, r) = settled(10);
        let opts = HeuristicOptions::default();
        let mut wrong = SwitchState::new(Resources::ZERO);
        wrong.reserve(
            0,
            SeedPolls::new(&[], &[]),
            Resources::new(1.0, 1.0, 0.0, 0.0),
        );
        let slot =
            |state: &SolveState, n: SwitchId| state.memo.switches.present_slot(n).expect("present");
        let rebuilt = |state: &SolveState, inst: &PlacementInstance, n: SwitchId| {
            let m = &state.memo;
            m.switches.rebuilt(slot(state, n), &m.seeds, inst)
        };
        let s = (0..inst.seeds.len())
            .find(|&s| r.assignment[s].is_some())
            .expect("a placed seed");
        let (from, res) = r.assignment[s].expect("placed");
        let to = (inst.switches.iter().map(|&(n, _)| n))
            .find(|&n| n != from)
            .expect("another switch");
        let seat_of = |inst: &PlacementInstance| {
            let prev = &inst.previous.as_ref().expect("set").assignment;
            prev.get(&s).expect("seated").0
        };
        for event in ["departure", "arrival", "capacity", "remap"] {
            let n = match event {
                "departure" | "remap" => seat_of(&inst),
                _ => to,
            };
            let control = (inst.switches.iter().rev().map(|&(c, _)| c))
                .find(|&c| c != n && c != from && c != to)
                .expect("a switch the event leaves alone");
            for m in [n, control] {
                let i = slot(&state, m);
                state.memo.switches.kept[i] = Some(wrong.usage());
            }
            let prev = &mut inst.previous.as_mut().expect("set").assignment;
            match event {
                "departure" => {
                    prev.remove(&s);
                }
                "arrival" => {
                    prev.insert(s, (to, res));
                }
                "capacity" => {
                    let at = inst.switches.iter().position(|&(m, _)| m == n);
                    inst.switches[at.expect("listed")].1 .0[0] *= 1.5;
                }
                _ => {
                    // Seed `s` is spliced out of the instance: every
                    // later seed moves down one index.
                    let map: Vec<Option<usize>> = (0..inst.seeds.len())
                        .map(|x| (x != s).then(|| x - usize::from(x > s)))
                        .collect();
                    *prev = prev
                        .iter()
                        .filter_map(|(x, &v)| Some((map[x]?, v)))
                        .collect();
                    inst.seeds.remove(s);
                    for seed in &mut inst.seeds[s..] {
                        seed.id -= 1;
                    }
                    for task in &mut inst.tasks {
                        task.seeds.retain(|&x| x != s);
                        task.seeds
                            .iter_mut()
                            .for_each(|x| *x = map[*x].expect("kept"));
                    }
                    state.remap(&map);
                }
            }
            let (next, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            assert_same(&next, &solve_heuristic(&inst, opts));
            let kept = |state: &SolveState, n: SwitchId| {
                state.memo.switches.kept[slot(state, n)]
                    .clone()
                    .expect("kept")
            };
            assert!(
                kept(&state, n).same(&rebuilt(&state, &inst, n)),
                "{event}: {n:?} not rewritten"
            );
            assert!(
                kept(&state, control).same(&wrong.usage()),
                "{event}: {control:?} rewritten"
            );
            let i = slot(&state, control);
            state.memo.switches.kept[i] = Some(rebuilt(&state, &inst, control));
            assert_eq!(state.check_kept_usage(&inst), Ok(()), "{event}");
            as_previous(&mut inst, &next);
        }
    }

    #[test]
    fn a_seed_listed_in_two_tasks_still_matches_the_full_solve() {
        // Two steps of one seed share one record, so the state keeps
        // nothing of such an instance: each solve starts over.
        let mut inst = small_instance(2);
        let extra = inst.tasks[0].seeds[0];
        inst.tasks[1].seeds.push(extra);
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let mut r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        for round in 0..3 {
            as_previous(&mut inst, &r);
            if round == 1 {
                inst.previous
                    .as_mut()
                    .expect("set")
                    .assignment
                    .remove(&extra);
            }
            let (next, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            assert_same(&next, &solve_heuristic(&inst, opts));
            r = next;
        }
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

    /// Everything the state keeps of seed `s`, to the bit.
    fn records_of(state: &SolveState, s: usize) -> Vec<u64> {
        let m = &state.memo;
        let mut v = vec![
            u64::from(m.seeds.flags[s]),
            m.seeds.min_u[s].to_bits(),
            u64::from(m.seeds.seat_slot[s]),
            u64::from(m.outcome[s]),
            u64::from(m.post.at[s]),
            m.final_u[s].to_bits(),
            u64::from(m.off_seat[s]),
            u64::from(m.order.step_of[s]),
            m.scans.util[s].to_bits(),
            u64::from(m.scans.flags[s]),
        ];
        for r in [m.seeds.min_res[s], m.seeds.seat_res[s], m.post.res[s]] {
            v.extend(bits(&r));
        }
        let ids = &m.seeds.ids[m.seeds.at[s] as usize..m.seeds.at[s + 1] as usize];
        v.extend(ids.iter().map(|&id| u64::from(id)));
        v
    }

    #[test]
    fn a_splice_remap_keeps_the_seeds_before_it_bit_for_bit() {
        // A world, then a one-seed task spliced in at the middle
        // of the seed list, as the seeder splices a submitted task: the
        // seeds before it keep their indices, their records, their
        // benefits and their index pairs, to the bit.
        // A world whose first switch grew eightfold after a solve: the
        // next scan finds benefits (a settled world has none left), one
        // of them in the first half of the seeds.
        let solved = |k: u64| {
            let mut inst = small_instance(k);
            let mut state = SolveState::new();
            let opts = HeuristicOptions::default();
            let r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
            as_previous(&mut inst, &r);
            for x in &mut inst.switches[0].1 .0 {
                *x *= 8.0;
            }
            let r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
            (state, inst, r)
        };
        let has_benefit = |(state, inst, _): &(SolveState, PlacementInstance, _)| {
            let half = inst.seeds.len() / 2;
            let benefits = &state.memo.scans.benefits;
            benefits.iter().any(|b| (b.seed as usize) < half)
        };
        let world = (12..60).map(solved).find(has_benefit);
        let (mut state, mut inst, r) = world.expect("a world with a benefit");
        let opts = HeuristicOptions::default();
        let (n, p) = (inst.seeds.len(), inst.seeds.len() / 2);
        let kept = |state: &SolveState| {
            let scans = &state.memo.scans;
            let records: Vec<Vec<u64>> = (0..p).map(|s| records_of(state, s)).collect();
            let before = |&(s, _): &(u32, u32)| (s as usize) < p;
            let pairs: Vec<Vec<(u32, u32)>> = (0..scans.by_slot.len())
                .map(|i| {
                    let mut pairs: Vec<_> = scans.readers(i).filter(before).collect();
                    pairs.sort_unstable();
                    pairs
                })
                .collect();
            let benefits: Vec<(u64, u32, u32)> = (scans.benefits.iter())
                .filter(|b| (b.seed as usize) < p)
                .map(|b| (b.u.to_bits(), b.seed, b.pos))
                .collect();
            (records, pairs, benefits)
        };
        let before = kept(&state);
        assert!(before.1.iter().any(|pairs| !pairs.is_empty()));
        assert!(!before.2.is_empty(), "a benefit before the splice");

        let seed = PlacementSeed {
            id: p,
            task: inst.tasks.len(),
            ..inst.seeds[p].clone()
        };
        inst.seeds.insert(p, seed);
        for seed in &mut inst.seeds[p + 1..] {
            seed.id += 1;
        }
        let shift = |s: usize| if s < p { s } else { s + 1 };
        for task in &mut inst.tasks {
            task.seeds.iter_mut().for_each(|s| *s = shift(*s));
        }
        inst.tasks.push(PlacementTask {
            name: "spliced".into(),
            seeds: vec![p],
        });
        let map: Vec<Option<usize>> = (0..n).map(|s| Some(shift(s))).collect();
        state.remap(&map);
        let after = kept(&state);
        assert_eq!(after.0, before.0, "records");
        assert_eq!(after.1, before.1, "index pairs");
        assert_eq!(after.2, before.2, "benefits");

        let seats = r.assignment.iter().enumerate();
        let seats = seats.filter_map(|(s, slot)| Some((shift(s), (*slot)?)));
        inst.previous = Some(PreviousPlacement {
            assignment: seats.collect(),
        });
        let (next, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&next, &solve_heuristic(&inst, opts));
    }

    #[test]
    fn one_new_movable_seed_rebuilds_only_the_switch_it_lands_on() {
        // A settled world, then one seed that may go anywhere, in a task
        // of its own whose key is the lowest, so its step comes last and
        // nothing after it reads what it changes. Its probe reads every
        // switch; only the one it lands on is rebuilt, and every other
        // keeps its settled state.
        let (mut state, mut inst, _) = settled(14);
        let opts = HeuristicOptions::default();
        let min_u = |s: &PlacementSeed| s.util.min_feasible().map_or(f64::MAX, |(_, u)| u);
        let light = (inst.seeds.iter())
            .min_by(|a, b| min_u(a).total_cmp(&min_u(b)))
            .expect("a seed");
        let s = inst.seeds.len();
        let seed = PlacementSeed {
            id: s,
            task: inst.tasks.len(),
            candidates: inst.switches.iter().map(|&(n, _)| n).collect(),
            ..light.clone()
        };
        inst.seeds.push(seed);
        inst.tasks.push(PlacementTask {
            name: "any".into(),
            seeds: vec![s],
        });
        let (next, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        assert_same(&next, &solve_heuristic(&inst, opts));
        assert!(next.assignment[s].is_some(), "the new seed is placed");
        assert_eq!(report.steps_visited, 1, "{report:?}");
        assert_eq!(report.switches_rebuilt, 1, "{report:?}");
        assert_eq!(report.switches_read, inst.switches.len() - 1, "{report:?}");
    }

    /// `n` switches, a pinned task of one seed per switch, and 80
    /// single-seed `place any` tasks after it whose seeds share one
    /// candidate list (every switch): a catalog laid out task by task.
    fn watchers(n: usize) -> PlacementInstance {
        let base = generate(&WorkloadConfig {
            n_switches: n,
            n_tasks: 1,
            n_seeds: 1,
            pinned_fraction: 0.0,
            ..WorkloadConfig::default()
        });
        let shape = base.seeds[0].clone();
        let ids: Vec<SwitchId> = base.switches.iter().map(|&(n, _)| n).collect();
        let mut inst = PlacementInstance {
            switches: base.switches,
            ..PlacementInstance::default()
        };
        let lists = std::iter::once(ids.iter().map(|&n| vec![n]).collect());
        let lists = lists.chain((0..80).map(|_| vec![ids.clone()]));
        for (t, lists) in lists.enumerate() {
            let lists: Vec<Vec<SwitchId>> = lists;
            let first = inst.seeds.len();
            for candidates in lists {
                inst.seeds.push(PlacementSeed {
                    id: inst.seeds.len(),
                    task: t,
                    candidates,
                    ..shape.clone()
                });
            }
            inst.tasks.push(PlacementTask {
                name: format!("t{t:02}"),
                seeds: (first..inst.seeds.len()).collect(),
            });
        }
        inst
    }

    #[test]
    fn a_new_watcher_scores_only_the_switches_whose_kept_usage_changed() {
        // Watchers sharing one list over every switch; then two more, in
        // tasks of their own after every other (so every log ends before
        // their steps), each added to a world solved until nothing moves.
        // The first scores every switch it reads into the list's score
        // row; the second reads the row wherever the switch kept the
        // usage the first one scored, and scores only the others: the one
        // the first landed on, and any its landing changed after.
        let opts = HeuristicOptions::default();
        let n = 16;
        let mut inst = watchers(n);
        let mut state = SolveState::new();
        let settle = |inst: &mut PlacementInstance, state: &mut SolveState| {
            for _ in 0..8 {
                let (r, report) = replan_delta(inst, opts, state, &ReplanDelta::default(), None);
                as_previous(inst, &r);
                if report.steps_visited == 0 {
                    return;
                }
            }
            panic!("the world does not settle");
        };
        let watcher = inst.seeds[n].clone();
        let mut stamps = Vec::new();
        let mut reports = Vec::new();
        for _ in 0..2 {
            settle(&mut inst, &mut state);
            let s = inst.seeds.len();
            inst.seeds.push(PlacementSeed {
                id: s,
                task: inst.tasks.len(),
                ..watcher.clone()
            });
            inst.tasks.push(PlacementTask {
                name: format!("w{s}"),
                seeds: vec![s],
            });
            stamps.push(state.memo.switches.stamp.clone());
            let (r, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
            assert_same(&r, &solve_heuristic(&inst, opts));
            assert_eq!(state.audit(&inst, None), Ok(()));
            assert!(r.assignment[s].is_some(), "the new watcher is placed");
            assert_eq!(report.steps_executed, 1, "{report:?}");
            as_previous(&mut inst, &r);
            reports.push(report);
        }
        let changed = (stamps[0].iter().zip(&stamps[1])).filter(|(a, b)| a != b);
        let changed = changed.count();
        assert!((1..n).contains(&changed), "{changed} of {n} switches");
        let second = reports[1];
        assert_eq!(second.probe_rows_read, n - changed, "{second:?}");
        assert_eq!(second.switches_read, changed, "{second:?}");
    }

    /// Every slot's pairs, by switch id.
    fn index_of(state: &SolveState) -> Vec<(SwitchId, Vec<(u32, u32)>)> {
        let (scans, ids) = (&state.memo.scans, &state.memo.switches.ids);
        let mut index: Vec<_> = (0..ids.len())
            .map(|i| {
                let mut pairs: Vec<_> = scans.readers(i).collect();
                pairs.sort_unstable();
                (ids[i], pairs)
            })
            .collect();
        index.sort_unstable();
        index
    }

    #[test]
    fn a_splice_among_watchers_sharing_a_list_rewrites_members_not_pairs() {
        let opts = HeuristicOptions::default();
        for n in [16, 64] {
            let mut inst = watchers(n);
            let mut state = SolveState::new();
            let mut r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
            // Two splices: a watcher in the middle of the watchers, then
            // one of the watchers before it out.
            for (t, insert) in [(41, true), (20, false)] {
                let start = inst.seeds.partition_point(|s| s.task < t);
                let (seeds, rows) = if insert {
                    let seed = PlacementSeed {
                        id: start,
                        task: t,
                        ..inst.seeds[start].clone()
                    };
                    let task = PlacementTask {
                        name: format!("t{:02}+", t - 1),
                        seeds: Vec::new(),
                    };
                    (
                        start..start,
                        Some(TaskRows {
                            seeds: vec![seed],
                            task,
                        }),
                    )
                } else {
                    (start..start + 1, None)
                };
                let map = inst.splice_task(t, seeds, rows);
                if insert {
                    inst.tasks[t].seeds = vec![start];
                }
                let seats = (r.assignment.iter().enumerate())
                    .filter_map(|(s, slot)| Some((map[s]?, (*slot)?)));
                inst.previous = Some(PreviousPlacement {
                    assignment: seats.collect(),
                });
                state.remap(&map);
                assert_eq!(state.check_index(&inst), Ok(()), "n {n}, t {t}: remapped");
                r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
                assert_same(&r, &solve_heuristic(&inst, opts));
                assert_eq!(state.check_index(&inst), Ok(()), "n {n}, t {t}");
                assert_eq!(state.check_order(&inst), Ok(()), "n {n}, t {t}");
                // A solve indexes the seeds the last one placed: one more
                // of the same instance, and a state that solved it from
                // scratch twice, hold every seed's pairs.
                as_previous(&mut inst, &r);
                let again = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
                assert_same(&again.0, &solve_heuristic(&inst, opts));
                let mut fresh = SolveState::new();
                for _ in 0..2 {
                    replan_delta(&inst, opts, &mut fresh, &ReplanDelta::default(), None);
                }
                assert_eq!(index_of(&state), index_of(&fresh), "n {n}, t {t}");
                // The watchers' list holds one pair per switch and one
                // member per watcher, the pinned seeds one pair each.
                let entries = state.memo.scans.entries();
                assert!(entries <= 3 * n + 81, "n {n}: {entries} entries");
            }
        }
    }

    #[test]
    fn a_seed_that_joins_a_shared_list_leaves_its_own_pairs() {
        // A `place any` seed indexed on its own; then two seeds with the
        // same candidates are spliced in before it while it is declared
        // dirty, so the three are indexed again together, the two new
        // ones first: they form a shared list, and the dirty seed joins
        // it. Its pairs from when it was alone must go, or every switch
        // would name it twice.
        let opts = HeuristicOptions::default();
        let mut inst = watchers(8);
        inst.seeds.truncate(8 + 1);
        inst.tasks.truncate(2);
        let s = 8;
        let mut state = SolveState::new();
        let mut r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        as_previous(&mut inst, &r);
        r = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None).0;
        let rows = TaskRows {
            seeds: (0..2)
                .map(|k| PlacementSeed {
                    id: s + k,
                    task: 1,
                    ..inst.seeds[s].clone()
                })
                .collect(),
            task: PlacementTask {
                name: "t00+".into(),
                seeds: Vec::new(),
            },
        };
        let map = inst.splice_task(1, s..s, Some(rows));
        inst.tasks[1].seeds = vec![s, s + 1];
        let seats =
            (r.assignment.iter().enumerate()).filter_map(|(s, slot)| Some((map[s]?, (*slot)?)));
        inst.previous = Some(PreviousPlacement {
            assignment: seats.collect(),
        });
        state.remap(&map);
        let dirty = ReplanDelta::seeds([s + 2]);
        for delta in [dirty, ReplanDelta::default()] {
            let r = replan_delta(&inst, opts, &mut state, &delta, None).0;
            assert_same(&r, &solve_heuristic(&inst, opts));
            as_previous(&mut inst, &r);
        }
        assert_eq!(state.check_index(&inst), Ok(()));
        let members = &state.memo.scans.shared;
        assert!(
            members.iter().any(|l| l.members == [8, 9, 10]),
            "{members:?}"
        );
    }

    #[test]
    fn remap_rewrites_indices_and_drops_unmapped_seeds() {
        let none = SeedPolls::new(&[], &[]);
        let mut state = SolveState::new();
        let switches = &mut state.memo.switches;
        // Seeds 0 and 2 each the one resident of a switch with an LP.
        for (n, seed) in [(SwitchId(1), 0), (SwitchId(2), 2)] {
            let i = switches.slot(n);
            switches.states[i].place(seed, none, &Resources::ZERO);
            switches.set_lp(i, true);
        }
        // A switch whose LP read seeds 0 and 2 reserved, in that order.
        let i = switches.slot(SwitchId(3));
        for s in [0, 2] {
            switches.states[i].reserve(s, none, Resources::ZERO);
        }
        switches.set_lp(i, true);
        let seeds = |state: &SolveState| -> Vec<u32> {
            let sw = &state.memo.switches;
            let lp = (0..sw.ids.len()).filter(|&i| sw.lp[i]);
            lp.flat_map(|i| sw.states[i].seeds.clone()).collect()
        };
        // Seed 0 → 5, seed 2 → 0: both residents keep their outputs under
        // new indices; the reservations would now come in the other order.
        // The state has solved no instance: only the switches hold seeds.
        let remap = |state: &mut SolveState, map: &[Option<usize>]| {
            state.memo.switches.remap(&Remap::new(map, map.len()));
        };
        remap(&mut state, &[Some(5), None, Some(0)]);
        assert_eq!(seeds(&state), vec![5, 0]);
        assert_eq!(state.lp_outputs(), 2);
        // Dropping seed 0 (formerly 2) drops the output over it.
        remap(&mut state, &[None, None, None, None, None, Some(5)]);
        assert_eq!(seeds(&state), vec![5]);
        assert_eq!(state.lp_outputs(), 1);
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
