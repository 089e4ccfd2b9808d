//! The seed-placement optimization model (§ IV, Tab. II/III).
//!
//! A [`PlacementInstance`] carries everything the optimizer needs:
//! switches with available resources `ares(n, r)`, tasks with their seeds
//! `S^t`, per-seed candidate sets `N^s`, utility branches `{C^s_i, u^s_i}`
//! and polling demands (`α_poll / y.ival(r̄)` per canonical subject).
//! [`PlacementResult`] is an explicit assignment; [`validate`] checks the
//! paper's constraints (C1)–(C4) including poll aggregation (a subject's
//! consumption is the *maximum* demand among co-located seeds, the
//! aggregation benefit of § IV-B) and migration double-occupancy.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::fxhash::FxHashMap;

use farm_almanac::analysis::{Poly, UtilAnalysis};
use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;

/// Polling demand of one poll variable: `demand(r̄) = α_poll / ival(r̄)`,
/// linear by the DSL's analysis guarantees, in polls per second.
#[derive(Debug, Clone, PartialEq)]
pub struct PollDemand {
    /// Canonical subject key (seeds sharing it aggregate).
    pub subject: String,
    /// Linear demand polynomial over the seed's allocated resources.
    pub demand: Poly,
}

/// Interns canonical poll-subject strings to dense `u32` ids.
///
/// The solver's hot paths compare and hash plain integers instead of
/// cloning and hashing `String` subjects per candidate probe (§ IV-D
/// scale regime: 10 200 seeds probing up to 1 040 switches each). Ids
/// are handed out in first-seen order, so interning an instance's seeds
/// in seed order numbers its subjects the same way on every solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubjectInterner {
    ids: FxHashMap<String, u32>,
}

impl SubjectInterner {
    /// Id of `subject`, allocating the next dense id on first sight.
    pub(crate) fn intern(&mut self, subject: &str) -> u32 {
        if let Some(&id) = self.ids.get(subject) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(subject.to_string(), id);
        id
    }

    /// Bytes held: the table's slots plus every key's text.
    pub(crate) fn bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<(String, u32)>()
            + self.ids.keys().map(String::capacity).sum::<usize>()
    }
}

/// One seed to place.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSeed {
    /// Index into [`PlacementInstance::seeds`].
    pub id: usize,
    /// Index into [`PlacementInstance::tasks`].
    pub task: usize,
    /// `N^s`: the seed must go to exactly one of these.
    pub candidates: Vec<SwitchId>,
    /// `{C^s_i, u^s_i}` branches from the `util` analysis.
    pub util: UtilAnalysis,
    /// Polling demands (one per poll variable).
    pub polls: Vec<PollDemand>,
}

/// One task; placing it means placing *all* of its seeds (C1).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementTask {
    pub name: String,
    /// Indices of this task's seeds.
    pub seeds: Vec<usize>,
}

/// A previous placement (`plc'`/`res'`) for migration-aware optimization.
#[derive(Debug, Clone, Default)]
pub struct PreviousPlacement {
    /// Per seed id: previous switch and allocation, as a dense table the
    /// solver reads in seed order and a caller can keep between rounds
    /// (the seeder keeps it index-aligned with its catalog).
    pub assignment: Seats,
}

/// One seed's previous seat: its switch and allocation.
pub type Seat = (SwitchId, Resources);

/// A seat per seed id, or none: a dense table indexed by seed, with the
/// map-shaped `insert` / `remove` / `get` / `retain` / `len` of a
/// `HashMap<usize, Seat>`. [`Seats::iter`] walks the seated seeds in
/// ascending seed order.
///
/// The table logs the seeds its writes touch (a `Log`), so that a
/// reader that keeps a copy of it (the solver's previous seats) reads
/// only what changed since it last looked.
#[derive(Debug, Default, Clone)]
pub struct Seats {
    /// `seats[s]` is seed `s`'s seat; seeds past the end have none.
    seats: Vec<Option<Seat>>,
    /// Seeds with a seat.
    len: usize,
    /// The seeds written; a seed a splice took out is `u32::MAX`.
    log: Log<u32>,
}

/// A reader's place in a `Log`: the table's stamp and the writes it
/// had logged.
pub type LogAt = (u64, usize);

/// The next table's stamp.
static STAMPS: AtomicU64 = AtomicU64::new(1);

/// A table's write log, in write order. Each log has a stamp no other
/// log has, a clone's included (it starts empty), and it holds at most
/// as many keys as its table has entries (64 at least): past that it
/// starts over, and a reader whose place fell off walks the whole table.
#[derive(Debug)]
struct Log<K> {
    stamp: u64,
    /// The keys written since the log started over.
    keys: Vec<K>,
    /// Writes logged before the log last started over.
    logged: usize,
}

impl<K> Default for Log<K> {
    fn default() -> Log<K> {
        let stamp = STAMPS.fetch_add(1, Ordering::Relaxed);
        Log {
            stamp,
            keys: Vec::new(),
            logged: 0,
        }
    }
}

impl<K> Clone for Log<K> {
    fn clone(&self) -> Log<K> {
        Log::default()
    }
}

impl<K> Log<K> {
    /// Logs a write of `key` in a table of `len` entries.
    fn note(&mut self, key: K, len: usize) {
        if self.keys.len() >= len.max(64) {
            self.logged += self.keys.len();
            self.keys.clear();
        }
        self.keys.push(key);
    }

    fn at(&self) -> LogAt {
        (self.stamp, self.logged + self.keys.len())
    }

    /// The keys written since `at`; `None` when `at` is another log's or
    /// this one started over since.
    fn since(&self, at: Option<LogAt>) -> Option<&[K]> {
        let (stamp, at) = at?;
        if stamp != self.stamp || at < self.logged {
            return None;
        }
        self.keys.get(at - self.logged..)
    }
}

impl Seats {
    /// Where the log stands now.
    pub(crate) fn log_at(&self) -> LogAt {
        self.log.at()
    }

    /// The seeds written since `at` (this table's [`Seats::log_at`] of
    /// some earlier time), in write order and possibly repeated; `None`
    /// when `at` is another table's or the log started over since.
    pub(crate) fn changes_since(&self, at: Option<LogAt>) -> Option<&[u32]> {
        self.log.since(at)
    }

    /// Gives seed `s` `seat`; returns the seat it replaced.
    pub fn insert(&mut self, s: usize, seat: Seat) -> Option<Seat> {
        if self.seats.len() <= s {
            self.seats.resize(s + 1, None);
        }
        self.log.note(s as u32, self.seats.len());
        let old = self.seats[s].replace(seat);
        self.len += usize::from(old.is_none());
        old
    }

    /// Takes seed `s`'s seat away; returns it.
    pub fn remove(&mut self, s: &usize) -> Option<Seat> {
        let old = self.seats.get_mut(*s)?.take();
        self.len -= usize::from(old.is_some());
        if old.is_some() {
            self.log.note(*s as u32, self.seats.len());
        }
        old
    }

    /// Seed `s`'s seat.
    pub fn get(&self, s: &usize) -> Option<&Seat> {
        self.seats.get(*s)?.as_ref()
    }

    /// Keeps the seats `keep` says yes to.
    pub fn retain(&mut self, mut keep: impl FnMut(&usize, &mut Seat) -> bool) {
        for s in 0..self.seats.len() {
            let Some(seat) = &mut self.seats[s] else {
                continue;
            };
            if !keep(&s, seat) {
                self.seats[s] = None;
                self.len -= 1;
            }
            // `keep` may have changed a seat it kept, too.
            self.log.note(s as u32, self.seats.len());
        }
    }

    /// The seated seeds and their seats, ascending by seed.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Seat)> {
        let seats = self.seats.iter().enumerate();
        seats.filter_map(|(s, slot)| Some((s, slot.as_ref()?)))
    }

    /// Seeds with a seat.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No seed has a seat.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Seed `s`'s slot of the table (`None` past its end): what the
    /// solver walks, seed by seed.
    pub(crate) fn slots(&self) -> &[Option<Seat>] {
        &self.seats
    }

    /// Replaces the slots of seeds `range` with `with`, shifting the
    /// seeds after it, as a catalog splices one task's seeds.
    pub fn splice(&mut self, range: Range<usize>, with: impl IntoIterator<Item = Option<Seat>>) {
        if self.seats.len() < range.end {
            self.seats.resize(range.end, None);
        }
        let mut came = Vec::new();
        let with = (with.into_iter().enumerate())
            .inspect(|(k, seat)| came.extend(seat.map(|_| range.start + k)))
            .map(|(_, seat)| seat);
        let old = self.seats.len();
        let gone = self.seats.splice(range.clone(), with).flatten().count();
        let added = self.seats.len() + range.len() - old;
        self.len = self.len + came.len() - gone;
        // The log speaks the new numbering.
        for s in self.log.keys.iter_mut().filter(|s| **s != u32::MAX) {
            if *s as usize >= range.end {
                *s = (*s as usize + added - range.len()) as u32;
            } else if *s as usize >= range.start {
                *s = u32::MAX;
            }
        }
        for s in came {
            self.log.note(s as u32, self.seats.len());
        }
    }
}

/// Two tables are equal when they seat the same seeds the same way,
/// however far each one's slots reach.
impl PartialEq for Seats {
    fn eq(&self, other: &Seats) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<(usize, Seat)> for Seats {
    fn from_iter<I: IntoIterator<Item = (usize, Seat)>>(iter: I) -> Seats {
        let mut seats = Seats::default();
        for (s, seat) in iter {
            seats.insert(s, seat);
        }
        seats
    }
}

/// The switches a round may place on, each with its `ares(n, r)`. The
/// list logs the ids its one edit, [`SwitchList::set`], writes
/// (a `Log`), so that a reader that keeps what it derived from the list
/// (the round scope, the solver's switch table) reads only the switches
/// that changed since it last looked. It derefs to its `Vec`; every
/// write through that starts the log over, and so does a `set` on a
/// list whose ids are not ascending.
#[derive(Debug, Default, Clone)]
pub struct SwitchList {
    list: Vec<(SwitchId, Resources)>,
    /// Whether the ids were strictly ascending when the first `set`
    /// since the list was made or written through `DerefMut` looked.
    ascending: Option<bool>,
    log: Log<SwitchId>,
}

impl SwitchList {
    /// Switch `id` at `ares`, or, for `None`, not in the list: the entry
    /// is written at its place in id order and the id logged. On a list
    /// whose ids are not ascending the entry is written where it is, or
    /// last, and the log starts over.
    pub fn set(&mut self, id: SwitchId, ares: Option<Resources>) {
        let ascending =
            *(self.ascending).get_or_insert_with(|| self.list.windows(2).all(|w| w[0].0 < w[1].0));
        let at = match ascending {
            true => self.list.binary_search_by_key(&id, |e| e.0),
            false => (self.list.iter().position(|e| e.0 == id)).ok_or(self.list.len()),
        };
        match (at, ares) {
            (Ok(at), Some(ares)) => self.list[at].1 = ares,
            (Ok(at), None) => {
                self.list.remove(at);
            }
            (Err(at), Some(ares)) => self.list.insert(at, (id, ares)),
            (Err(_), None) => {}
        }
        match ascending {
            true => self.log.note(id, self.list.len()),
            false => self.log = Log::default(),
        }
    }

    /// Switch `id`'s resources, `None` when it is not in the list. The
    /// ids must be ascending, as they are wherever the log names a set.
    pub fn ares(&self, id: SwitchId) -> Option<Resources> {
        let at = self.list.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(self.list[at].1)
    }

    /// Where the log stands now.
    pub fn log_at(&self) -> LogAt {
        self.log.at()
    }

    /// The ids set since `at` (this list's [`SwitchList::log_at`] of
    /// some earlier time), in write order and possibly repeated; `None`
    /// when `at` is another list's or the log started over since.
    pub fn changes_since(&self, at: Option<LogAt>) -> Option<&[SwitchId]> {
        self.log.since(at)
    }
}

impl From<Vec<(SwitchId, Resources)>> for SwitchList {
    fn from(list: Vec<(SwitchId, Resources)>) -> SwitchList {
        SwitchList {
            list,
            ..SwitchList::default()
        }
    }
}

impl std::ops::Deref for SwitchList {
    type Target = Vec<(SwitchId, Resources)>;

    fn deref(&self) -> &Vec<(SwitchId, Resources)> {
        &self.list
    }
}

impl std::ops::DerefMut for SwitchList {
    fn deref_mut(&mut self) -> &mut Vec<(SwitchId, Resources)> {
        (self.ascending, self.log) = (None, Log::default());
        &mut self.list
    }
}

/// The optimization instance.
#[derive(Debug, Clone, Default)]
pub struct PlacementInstance {
    /// `ares(n, r)` per switch.
    pub switches: SwitchList,
    pub tasks: Vec<PlacementTask>,
    pub seeds: Vec<PlacementSeed>,
    /// Current placement, if re-optimizing (enables migration modelling).
    pub previous: Option<PreviousPlacement>,
}

impl PlacementInstance {
    /// Available resources of a switch.
    pub(crate) fn ares(&self, n: SwitchId) -> Option<Resources> {
        self.switches
            .iter()
            .find(|(id, _)| *id == n)
            .map(|(_, r)| *r)
    }
}

/// An explicit placement: per seed, the switch and allocated resources.
#[derive(Debug, Clone, Default)]
pub struct PlacementResult {
    /// `assignment[s] = Some((n, res))` when seed `s` is placed.
    pub assignment: Vec<Option<(SwitchId, Resources)>>,
    /// Total monitoring utility (the MU objective).
    pub utility: f64,
    /// Seeds moved relative to the previous placement.
    pub migrations: usize,
    /// Solve time, on the clock of the solve's `SpanLog` (the wall clock
    /// unless the caller hands in another).
    pub runtime: Duration,
    /// Tasks that could not be placed (dropped by C1).
    pub dropped_tasks: Vec<usize>,
}

impl PlacementResult {
    /// Number of placed seeds.
    pub fn placed(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }
}

/// Computes the MU objective of an assignment: `Σ plc(s,n) · u^s(res)`.
/// Seeds outside every utility-branch domain contribute zero.
pub fn utility_of(
    instance: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> f64 {
    assignment
        .iter()
        .enumerate()
        .filter_map(|(s, a)| {
            a.as_ref()
                .and_then(|(_, res)| instance.seeds[s].util.eval(res))
        })
        .sum()
}

/// Counts migrations relative to the instance's previous placement.
pub(crate) fn count_migrations(
    instance: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> usize {
    let Some(prev) = &instance.previous else {
        return 0;
    };
    assignment
        .iter()
        .enumerate()
        .filter(|(s, a)| match (prev.assignment.get(s), a) {
            (Some((old, _)), Some((new, _))) => old != new,
            _ => false,
        })
        .count()
}

/// Validates what holds of every placed seed on its own: it sits on one
/// of its candidates, with a non-negative allocation inside some utility
/// branch's domain (C2).
///
/// # Errors
///
/// A human-readable description of the first seed that does not.
pub fn validate_seats(
    instance: &PlacementInstance,
    assignment: &[Option<(SwitchId, Resources)>],
) -> Result<(), String> {
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            if !instance.seeds[s].candidates.contains(n) {
                return Err(format!("seed {s} placed outside its candidate set ({n})"));
            }
            // C2: the allocation satisfies some utility branch's domain.
            if instance.seeds[s].util.eval(res).is_none() {
                return Err(format!(
                    "C2: seed {s} allocation {res} outside every util domain"
                ));
            }
            for r in res.0 {
                if r < -1e-9 {
                    return Err(format!("seed {s} has negative allocation"));
                }
            }
        }
    }
    Ok(())
}

/// Validates the paper's constraints (C1)–(C4).
///
/// # Errors
///
/// A human-readable description of the first violated constraint.
pub fn validate(instance: &PlacementInstance, result: &PlacementResult) -> Result<(), String> {
    let a = &result.assignment;
    if a.len() != instance.seeds.len() {
        return Err(format!(
            "assignment covers {} of {} seeds",
            a.len(),
            instance.seeds.len()
        ));
    }
    // C1: task all-or-nothing, each placed seed on a candidate switch.
    for (ti, task) in instance.tasks.iter().enumerate() {
        let placed: Vec<bool> = task.seeds.iter().map(|&s| a[s].is_some()).collect();
        let all = placed.iter().all(|p| *p);
        let none = placed.iter().all(|p| !*p);
        if !all && !none {
            return Err(format!("C1: task {} `{}` partially placed", ti, task.name));
        }
    }
    validate_seats(instance, a)?;
    validate_capacity(instance, a, instance.previous.as_ref())
}

/// C3/C4 of an assignment: on every switch of the instance, the plain
/// resources of the seeds placed there and their aggregated polling fit
/// its capacity. Given the previous placement, a seed that migrated away
/// from a switch still holds its previous allocation there while its
/// state transfers (§ IV-B a).
///
/// # Errors
///
/// A human-readable description of the first switch over capacity.
pub fn validate_capacity(
    instance: &PlacementInstance,
    a: &[Option<(SwitchId, Resources)>],
    previous: Option<&PreviousPlacement>,
) -> Result<(), String> {
    for (n, ares) in instance.switches.iter() {
        let mut used = Resources::ZERO;
        // subject → max demand (aggregation: polled once at the fastest
        // requested rate).
        let mut pollres: HashMap<&str, f64> = HashMap::new();
        for (s, slot) in a.iter().enumerate() {
            if let Some((sn, res)) = slot {
                if sn == n {
                    for k in ResourceKind::ALL {
                        if k != ResourceKind::PciePoll {
                            used.0[k.index()] += res.get(k);
                        }
                    }
                    for p in &instance.seeds[s].polls {
                        let d = p.demand.eval(res).max(0.0);
                        let slot = pollres.entry(p.subject.as_str()).or_insert(0.0);
                        *slot = slot.max(d);
                    }
                }
            }
            // Migration source side: the previous allocation lingers while
            // state transfers (§ IV-B a).
            if let Some(prev) = previous {
                if let Some((old_n, old_res)) = prev.assignment.get(&s) {
                    let migrated_away =
                        old_n == n && matches!(&a[s], Some((new_n, _)) if new_n != n);
                    if migrated_away {
                        for k in ResourceKind::ALL {
                            if k != ResourceKind::PciePoll {
                                used.0[k.index()] += old_res.get(k);
                            }
                        }
                        for p in &instance.seeds[s].polls {
                            let d = p.demand.eval(old_res).max(0.0);
                            let slot = pollres.entry(p.subject.as_str()).or_insert(0.0);
                            *slot = slot.max(d);
                        }
                    }
                }
            }
        }
        for k in ResourceKind::ALL {
            if k == ResourceKind::PciePoll {
                continue;
            }
            if used.get(k) > ares.get(k) + 1e-6 {
                return Err(format!(
                    "C4: switch {n} over capacity on {k}: {} > {}",
                    used.get(k),
                    ares.get(k)
                ));
            }
        }
        let poll_total: f64 = pollres.values().sum();
        if poll_total > ares.get(ResourceKind::PciePoll) + 1e-6 {
            return Err(format!(
                "C4: switch {n} over polling capacity: {poll_total} > {}",
                ares.get(ResourceKind::PciePoll)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::analysis::{UtilBranch, UtilExpr};

    fn simple_util(min_vcpu: f64) -> UtilAnalysis {
        UtilAnalysis {
            branches: vec![UtilBranch {
                constraints: vec![Poly {
                    coeffs: [1.0, 0.0, 0.0, 0.0],
                    constant: -min_vcpu,
                }],
                utility: UtilExpr::Poly(Poly::var(ResourceKind::VCpu)),
            }],
        }
    }

    fn demand() -> PollDemand {
        // demand = PCIe / 10 polls per second.
        PollDemand {
            subject: "port ANY".into(),
            demand: Poly {
                coeffs: [0.0, 0.0, 0.0, 0.1],
                constant: 0.0,
            },
        }
    }

    pub(crate) fn small_instance() -> PlacementInstance {
        let n0 = SwitchId(0);
        let n1 = SwitchId(1);
        PlacementInstance {
            switches: vec![
                (n0, Resources::new(4.0, 1000.0, 32.0, 100.0)),
                (n1, Resources::new(4.0, 1000.0, 32.0, 100.0)),
            ]
            .into(),
            tasks: vec![
                PlacementTask {
                    name: "t0".into(),
                    seeds: vec![0, 1],
                },
                PlacementTask {
                    name: "t1".into(),
                    seeds: vec![2],
                },
            ],
            seeds: vec![
                PlacementSeed {
                    id: 0,
                    task: 0,
                    candidates: vec![n0],
                    util: simple_util(1.0),
                    polls: vec![demand()],
                },
                PlacementSeed {
                    id: 1,
                    task: 0,
                    candidates: vec![n0, n1],
                    util: simple_util(1.0),
                    polls: vec![demand()],
                },
                PlacementSeed {
                    id: 2,
                    task: 1,
                    candidates: vec![n1],
                    util: simple_util(2.0),
                    polls: vec![],
                },
            ],
            previous: None,
        }
    }

    #[test]
    fn utility_sums_over_placed_seeds() {
        let inst = small_instance();
        let assignment = vec![
            Some((SwitchId(0), Resources::new(2.0, 0.0, 0.0, 0.0))),
            Some((SwitchId(1), Resources::new(1.0, 0.0, 0.0, 0.0))),
            None,
        ];
        assert_eq!(utility_of(&inst, &assignment), 3.0);
    }

    #[test]
    fn validate_accepts_feasible_assignment() {
        let inst = small_instance();
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), Resources::new(2.0, 0.0, 0.0, 10.0))),
                Some((SwitchId(0), Resources::new(2.0, 0.0, 0.0, 10.0))),
                Some((SwitchId(1), Resources::new(2.0, 0.0, 0.0, 0.0))),
            ],
            ..Default::default()
        };
        validate(&inst, &result).unwrap();
    }

    #[test]
    fn validate_rejects_partial_task() {
        let inst = small_instance();
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), Resources::new(1.0, 0.0, 0.0, 0.0))),
                None,
                None,
            ],
            ..Default::default()
        };
        let err = validate(&inst, &result).unwrap_err();
        assert!(err.contains("C1"), "{err}");
    }

    #[test]
    fn validate_rejects_over_capacity() {
        let inst = small_instance();
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), Resources::new(3.0, 0.0, 0.0, 0.0))),
                Some((SwitchId(0), Resources::new(3.0, 0.0, 0.0, 0.0))),
                Some((SwitchId(1), Resources::new(2.0, 0.0, 0.0, 0.0))),
            ],
            ..Default::default()
        };
        let err = validate(&inst, &result).unwrap_err();
        assert!(err.contains("C4"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_domain_allocation() {
        let inst = small_instance();
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), Resources::new(0.5, 0.0, 0.0, 0.0))), // < min vCPU 1
                Some((SwitchId(0), Resources::new(1.0, 0.0, 0.0, 0.0))),
                Some((SwitchId(1), Resources::new(2.0, 0.0, 0.0, 0.0))),
            ],
            ..Default::default()
        };
        let err = validate(&inst, &result).unwrap_err();
        assert!(err.contains("C2"), "{err}");
    }

    #[test]
    fn aggregated_polling_uses_max_not_sum() {
        // Two seeds each demanding 60 polls/s on the same subject fit in
        // a capacity of 100 only because aggregation takes the max.
        let mut inst = small_instance();
        inst.switches[0].1 = Resources::new(10.0, 1000.0, 32.0, 100.0);
        let res = Resources::new(1.0, 0.0, 0.0, 600.0); // demand = 60
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), res)),
                Some((SwitchId(0), res)),
                Some((SwitchId(1), Resources::new(2.0, 0.0, 0.0, 0.0))),
            ],
            ..Default::default()
        };
        // Non-poll capacity check would fail at PCIe=600 each if summed
        // as a plain resource; the aggregated model accepts it because
        // max(60, 60) = 60 ≤ 100.
        validate(&inst, &result).unwrap();
    }

    fn seat(n: u32, vcpu: f64) -> Seat {
        (SwitchId(n), Resources::new(vcpu, 0.0, 0.0, 0.0))
    }

    #[test]
    fn seats_replace_and_remove_like_a_map() {
        let mut seats = Seats::default();
        assert!(seats.is_empty());
        assert_eq!(seats.insert(3, seat(1, 1.0)), None);
        assert_eq!(seats.insert(3, seat(2, 2.0)), Some(seat(1, 1.0)));
        assert_eq!(seats.len(), 1);
        assert_eq!(seats.get(&3), Some(&seat(2, 2.0)));
        // Absent seeds, below and past the table's end, have no seat.
        assert_eq!(seats.remove(&1), None);
        assert_eq!(seats.remove(&40), None);
        assert_eq!(seats.get(&40), None);
        assert_eq!(seats.len(), 1);
        assert_eq!(seats.remove(&3), Some(seat(2, 2.0)));
        assert_eq!(seats.remove(&3), None);
        assert!(seats.is_empty());
    }

    #[test]
    fn seats_walk_in_seed_order_and_retain() {
        let mut seats: Seats = [(7, seat(0, 7.0)), (2, seat(1, 2.0)), (5, seat(0, 5.0))]
            .into_iter()
            .collect();
        assert_eq!(seats.len(), 3);
        let order: Vec<usize> = seats.iter().map(|(s, _)| s).collect();
        assert_eq!(order, [2, 5, 7]);
        seats.retain(|_, (n, _)| *n != SwitchId(0));
        assert_eq!(seats.len(), 1);
        let left: Vec<(usize, Seat)> = seats.iter().map(|(s, x)| (s, *x)).collect();
        assert_eq!(left, [(2, seat(1, 2.0))]);
        // Equal tables seat the same seeds, whatever their slots reach.
        let mut other = Seats::default();
        other.insert(9, seat(3, 1.0));
        other.remove(&9);
        other.insert(2, seat(1, 2.0));
        assert_eq!(seats, other);
    }

    #[test]
    fn seats_splice_shifts_the_seeds_after_the_range() {
        let mut seats: Seats = [(0, seat(0, 0.0)), (1, seat(1, 1.0)), (3, seat(3, 3.0))]
            .into_iter()
            .collect();
        // Seed 1 leaves, two come in its place, and seed 3 moves to 4.
        seats.splice(1..2, [None, Some(seat(9, 9.0))]);
        let walk: Vec<(usize, Seat)> = seats.iter().map(|(s, x)| (s, *x)).collect();
        assert_eq!(
            walk,
            [(0, seat(0, 0.0)), (2, seat(9, 9.0)), (4, seat(3, 3.0))]
        );
        assert_eq!(seats.len(), 3);
        // A splice past the table's end grows it.
        seats.splice(8..8, [Some(seat(5, 5.0))]);
        assert_eq!(seats.get(&8), Some(&seat(5, 5.0)));
        assert_eq!(seats.len(), 4);
    }

    #[test]
    fn migration_double_occupancy_is_checked() {
        let mut inst = small_instance();
        // Seed 1 previously on n0 with a huge allocation.
        let mut prev = PreviousPlacement::default();
        prev.assignment
            .insert(1, (SwitchId(0), Resources::new(3.5, 0.0, 0.0, 0.0)));
        inst.previous = Some(prev);
        // Now seed 1 moves to n1 while seed 0 wants 1.0 vCPU on n0 —
        // but the lingering 3.5 vCPU of the migrating seed overflows n0
        // (4.0 total).
        let result = PlacementResult {
            assignment: vec![
                Some((SwitchId(0), Resources::new(1.0, 0.0, 0.0, 0.0))),
                Some((SwitchId(1), Resources::new(1.0, 0.0, 0.0, 0.0))),
                Some((SwitchId(1), Resources::new(2.0, 0.0, 0.0, 0.0))),
            ],
            ..Default::default()
        };
        let err = validate(&inst, &result).unwrap_err();
        assert!(err.contains("C4"), "{err}");
        assert_eq!(count_migrations(&inst, &result.assignment), 1);
    }
}
