//! `replan_delta` equivalence under churn: for random instances and
//! random single-event churn sequences (fault eviction, drain, cordon
//! lift, fresh submission, capacity degradation, definition tweaks),
//! the incremental solve through a retained [`SolveState`] must produce
//! a placement **bit-identical** to a from-scratch `solve_heuristic` on
//! the same instance — same assignment, same utility bits, same
//! migration count, same dropped tasks — and satisfy the independently
//! re-derived C1–C4 checkers from `util`.
//!
//! Besides the Fig. 7 generator's seeds an instance carries up to two
//! *fabric-wide* tasks, one single-candidate seed per switch — the
//! `place all` shape. A switch that leaves takes such a task's only
//! candidate there with it: unscoped, C1 drops the whole task (and the
//! switch's return redeploys it), the largest single-event change an
//! instance can see; scoped through [`PlacementInstance::begin_round`],
//! as the seeder does it, the one seed is held and the task's list
//! shrinks and grows between rounds under a retained memo.
//!
//! Most events pass an *empty* [`ReplanDelta`]: the per-switch op logs,
//! which decide both which greedy steps replay and which switch LPs
//! re-run, must catch capacity and residency changes, and switches
//! leaving or rejoining the instance, on their own. Tweak and
//! Recandidate change a seed's *definition* (its polling, its candidate
//! set), which a log cannot see — that is exactly the case the
//! `dirty_seeds` contract exists for, so they declare the seed dirty.
//! Retask splices a task out of the instance or a copy of one in
//! mid-way with the seeder's [`PlacementInstance::splice_task`],
//! shifting every seed after it, and remaps the retained state by that
//! shift the way the seeder does (a case's first Retask also lays the
//! generator's interleaved seeds out task by task, as the seeder's
//! catalog is). The copy's seeds are new indices, and like the
//! seeder's they are not declared: the remap leaves the state nothing
//! on them.
//!
//! After every solve, [`SolveState::audit`] holds what the state keeps
//! to its recomputation: among the rest, every switch's kept usage —
//! its greedy state, what a read-only probe reads in place of building
//! the switch — must be the one its capacity and its op log build, to
//! the bit.
//!
//! The churn property also checks that its cases still reach the code
//! that follows the change: across them, some warm solve visits a clean
//! seed's greedy step only because an earlier step diverged a switch it
//! read (the worklist's cascade), some flips a task between placed and
//! dropped (its close written again), some relocates a seed in step 5,
//! some evaluates fewer benefit pairs in step 4 than a cold solve of
//! the same instance, and some reads a pair from a shared list's row
//! that another member or an earlier solve filled (a Retask copy's seeds
//! have their originals' candidates and definitions). A twin of it runs
//! the same churn over instances that also carry `place any` watchers,
//! whose probes score through their list's score row: some warm probe
//! there must read an entry an earlier solve took.

mod util;

use farm_almanac::analysis::UtilExpr;
use farm_netsim::switch::ResourceKind;
use farm_netsim::types::SwitchId;
use farm_placement::build::{Scope, TaskRows};
use farm_placement::delta::{replan_delta, ReplanDelta, SolveState};
use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::model::{utility_of, PlacementInstance, PlacementSeed, PlacementTask};
use farm_placement::workload::{generate, WorkloadConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use util::{as_previous, check_all};

/// What one case is built from: the generator's config, how many
/// fabric-wide tasks ride along, whether every round is scoped to the
/// seeds that have somewhere to go, what share of its vCPU each switch
/// offers, and whether every third seed's domain couples vCPU and RAM.
///
/// A seed whose seat holds at least its minimum allocation always fits
/// back home, whatever else changed on the switch. A coupled domain
/// (`vCPU + RAM / 1000 ≥ a`) breaks that: the minimum point is pure
/// vCPU, while the LP may meet the constraint with RAM and give the
/// vCPU to co-residents. On a tight fabric such a seed's home stops
/// fitting, tasks drop and seeds migrate — the greedy decisions a stale
/// memo would get wrong.
#[derive(Debug, Clone)]
struct Fabric {
    cfg: WorkloadConfig,
    fabric_wide: usize,
    scoped: bool,
    vcpu_share: f64,
    coupled: bool,
}

fn workload() -> impl Strategy<Value = Fabric> {
    (
        (3usize..12, 1usize..4, 3usize..40, 0u64..10_000, 0.0f64..0.6),
        0usize..3,
        any::<bool>(),
        prop_oneof![Just(1.0), Just(0.3), Just(0.12)],
        any::<bool>(),
    )
        .prop_map(
            |(
                (n_switches, n_tasks, n_seeds, rng_seed, pinned_fraction),
                fabric_wide,
                scoped,
                vcpu_share,
                coupled,
            )| {
                Fabric {
                    cfg: WorkloadConfig {
                        n_switches,
                        n_tasks,
                        n_seeds,
                        candidates_per_seed: 3,
                        pinned_fraction,
                        rng_seed,
                    },
                    fabric_wide,
                    scoped,
                    vcpu_share,
                    coupled,
                }
            },
        )
}

impl Fabric {
    /// The generated instance, its switches cut to their vCPU share and
    /// its domains coupled as the case says, plus its fabric-wide tasks,
    /// whose seeds take utility and polling from one of the generator's.
    /// The generator interleaves its tasks' seeds.
    fn instance(&self) -> PlacementInstance {
        let mut inst = generate(&self.cfg);
        for (_, ares) in inst.switches.iter_mut() {
            ares.0[0] *= self.vcpu_share;
        }
        if self.coupled {
            for seed in inst.seeds.iter_mut().step_by(3) {
                let vcpu = &mut seed.util.branches[0].constraints[0];
                vcpu.coeffs[ResourceKind::RamMb.index()] = 0.001;
            }
        }
        for t in 0..self.fabric_wide {
            let shape = inst.seeds[t % inst.seeds.len()].clone();
            let task = inst.tasks.len();
            let first = inst.seeds.len();
            for (i, (n, _)) in inst.switches.iter().enumerate() {
                inst.seeds.push(PlacementSeed {
                    id: first + i,
                    task,
                    candidates: vec![*n],
                    ..shape.clone()
                });
            }
            inst.tasks.push(PlacementTask {
                name: format!("wide{t}"),
                seeds: (first..inst.seeds.len()).collect(),
            });
        }
        inst
    }

    /// [`Fabric::instance`] with `k` watchers after its tasks: the
    /// `place any` shape, each the one seed of a task of its own over
    /// every switch, taking utility and polling from the generator's
    /// first or second seed by turns. The watchers of one definition
    /// share one candidate list, and the probe of one that moves reads
    /// the list's score row.
    fn with_watchers(&self, k: usize) -> PlacementInstance {
        let mut inst = self.instance();
        let every: Vec<SwitchId> = inst.switches.iter().map(|&(n, _)| n).collect();
        for w in 0..k {
            let (s, task) = (inst.seeds.len(), inst.tasks.len());
            inst.seeds.push(PlacementSeed {
                id: s,
                task,
                candidates: every.clone(),
                ..inst.seeds[w % 2 % inst.seeds.len()].clone()
            });
            inst.tasks.push(PlacementTask {
                name: format!("watch{w}"),
                seeds: vec![s],
            });
        }
        inst
    }

    /// Scopes the round the way the seeder does, when the case says so:
    /// through the kept `scope` when there is one and the switch list's
    /// log reaches back to it ([`Scope::follow`]), which must leave the
    /// task lists and the held seeds as scoping every task again does;
    /// otherwise every task, and the scope is taken anew. Returns the
    /// held seeds and, for a followed round whose held seeds changed,
    /// how many switches the log named.
    fn begin_round(
        &self,
        inst: &mut PlacementInstance,
        scope: &mut Option<Scope>,
    ) -> (Vec<usize>, Option<usize>) {
        if !self.scoped {
            return (Vec::new(), None);
        }
        let previous = inst.previous.take();
        if let Some(kept) = scope {
            let was = kept.held().to_vec();
            if let Some(moved) = kept.follow(inst) {
                let mut fresh = inst.clone();
                let held = fresh.begin_round(None);
                assert_eq!(kept.held(), held, "followed scope holds other seeds");
                for (t, (a, b)) in inst.tasks.iter().zip(&fresh.tasks).enumerate() {
                    assert_eq!(a.seeds, b.seeds, "followed scope lists task {t} otherwise");
                }
                assert_eq!(kept.check(inst), Ok(()));
                inst.previous = previous;
                return (held, (was != kept.held()).then_some(moved));
            }
        }
        let held = inst.begin_round(previous);
        *scope = Scope::of(inst, held.clone());
        (held, None)
    }
}

/// One churn event. Indices are taken modulo the relevant population at
/// apply time, so any `usize` is valid.
#[derive(Debug, Clone, Copy)]
enum Churn {
    /// Fault eviction: the switch leaves the instance and its previous
    /// placements are forgotten (the seeds were lost with it).
    Evict(usize),
    /// Drain: the switch leaves the instance but previous placements
    /// still name it (the seeds are alive and must move).
    Drain(usize),
    /// Cordon lift: a previously removed switch returns at its original
    /// capacity: at its place in id order through the list's log (odd),
    /// or pushed last by hand (even), which leaves the ids out of order
    /// and sends the rest of the case down the walk paths.
    Restore(usize),
    /// Fresh submission: one seed loses its previous placement and is
    /// placed as if newly submitted. Empty delta — residency changes
    /// must be caught by the op logs alone.
    Submit(usize),
    /// Capacity degradation: a switch loses 10 % vCPU. Empty delta —
    /// the switch's `ares` bits must catch it.
    Degrade(usize),
    /// Definition change: a seed is re-registered with another polling
    /// constant and a utility capped 10 % lower. Invisible to the logs,
    /// so the seed is declared dirty.
    Tweak(usize),
    /// Definition change: a seed gains or loses a candidate switch.
    /// Declared dirty, like any definition change.
    Recandidate(usize),
    /// Catalog splice: a task is removed (even) or a copy of one is
    /// inserted before it (odd), through
    /// [`PlacementInstance::splice_task`] as the seeder's catalog does.
    /// The seeds after it shift, and the state is remapped by that
    /// shift. The copy's seeds are new indices, not declared dirty.
    Retask(usize),
}

fn churn_event() -> impl Strategy<Value = Churn> {
    (0usize..8, any::<usize>()).prop_map(|(kind, i)| match kind {
        0 => Churn::Evict(i),
        1 => Churn::Drain(i),
        2 => Churn::Restore(i),
        3 => Churn::Submit(i),
        4 => Churn::Degrade(i),
        5 => Churn::Tweak(i),
        6 => Churn::Recandidate(i),
        _ => Churn::Retask(i),
    })
}

/// Applies one event to the instance, returning what the caller would
/// declare dirty. Events that cannot apply (last switch, no polls, …)
/// degrade to a no-op with an empty delta — still a valid replan.
fn apply(
    inst: &mut PlacementInstance,
    base: &PlacementInstance,
    state: &mut SolveState,
    ev: Churn,
    reach: &mut Reach,
) -> ReplanDelta {
    match ev {
        Churn::Evict(i) | Churn::Drain(i) => {
            if inst.switches.len() <= 1 {
                return ReplanDelta::default();
            }
            let (victim, _) = inst.switches[i % inst.switches.len()];
            inst.switches.set(victim, None);
            if matches!(ev, Churn::Evict(_)) {
                if let Some(prev) = &mut inst.previous {
                    prev.assignment.retain(|_, (n, _)| *n != victim);
                }
            }
            ReplanDelta::default()
        }
        Churn::Restore(i) => {
            let present: Vec<SwitchId> = inst.switches.iter().map(|(n, _)| *n).collect();
            let missing: Vec<&(SwitchId, _)> = base
                .switches
                .iter()
                .filter(|(n, _)| !present.contains(n))
                .collect();
            if missing.is_empty() {
                return ReplanDelta::default();
            }
            let (n, ares) = *missing[i % missing.len()];
            match i % 2 {
                1 => inst.switches.set(n, Some(ares)),
                _ => inst.switches.push((n, ares)),
            }
            ReplanDelta::default()
        }
        Churn::Submit(i) => {
            if inst.seeds.is_empty() {
                return ReplanDelta::default();
            }
            let s = i % inst.seeds.len();
            if let Some(prev) = &mut inst.previous {
                prev.assignment.remove(&s);
            }
            ReplanDelta::default()
        }
        Churn::Degrade(i) => {
            if inst.switches.is_empty() {
                return ReplanDelta::default();
            }
            let (n, mut ares) = inst.switches[i % inst.switches.len()];
            ares.0[0] *= 0.9;
            inst.switches.set(n, Some(ares));
            ReplanDelta::default()
        }
        Churn::Tweak(i) => {
            if inst.seeds.is_empty() {
                return ReplanDelta::default();
            }
            let s = i % inst.seeds.len();
            let seed = &mut inst.seeds[s];
            let Some(p) = seed.polls.first_mut() else {
                return ReplanDelta::default();
            };
            p.demand.constant += 0.1;
            if let UtilExpr::Min(_, cap) = &mut seed.util.branches[0].utility {
                if let UtilExpr::Poly(cap) = cap.as_mut() {
                    cap.constant *= 0.9;
                }
            }
            ReplanDelta::seeds([s])
        }
        Churn::Recandidate(i) => {
            let s = i % inst.seeds.len();
            let n = base.switches[i / 7 % base.switches.len()].0;
            let candidates = &mut inst.seeds[s].candidates;
            if !candidates.contains(&n) {
                candidates.push(n);
            } else if candidates.len() > 1 {
                candidates.retain(|c| *c != n);
            }
            ReplanDelta::seeds([s])
        }
        Churn::Retask(i) => retask(inst, state, i, reach),
    }
}

/// [`Churn::Retask`]. The seeder's catalog is laid out task by task,
/// so the first Retask of a case lays the generator's interleaved seeds
/// out so; the state is remapped once, by both renumberings together.
fn retask(
    inst: &mut PlacementInstance,
    state: &mut SolveState,
    i: usize,
    reach: &mut Reach,
) -> ReplanDelta {
    let mut map = lay_out_by_task(inst);
    let n_tasks = inst.tasks.len();
    let t = i / 2 % n_tasks;
    let start = inst.seeds.partition_point(|s| s.task < t);
    let end = inst.seeds.partition_point(|s| s.task <= t);
    let shift = if i.is_multiple_of(2) && n_tasks > 1 {
        inst.splice_task(t, start..end, None)
    } else {
        // A copy of task `t` before it: the same seeds at the same
        // indices, under another name.
        let copy = TaskRows {
            seeds: inst.seeds[start..end].to_vec(),
            task: PlacementTask {
                name: format!("{}+", inst.tasks[t].name),
                seeds: Vec::new(),
            },
        };
        inst.splice_task(t, start..start, Some(copy))
    };
    for new in &mut map {
        *new = new.and_then(|s| shift[s]);
    }
    list_seeds(inst);
    if let Some(prev) = &mut inst.previous {
        let old = std::mem::take(&mut prev.assignment);
        prev.assignment = old
            .iter()
            .filter_map(|(s, &seat)| Some((map[s]?, seat)))
            .collect();
    }
    // The first seed the remap moves: a splice past the first task
    // keeps the seeds before it where they are.
    let first = (0..map.len()).find(|&o| map[o] != Some(o));
    reach.spliced += usize::from(first.is_some_and(|f| f > 0));
    state.remap(&map);
    ReplanDelta::default()
}

/// Orders the seeds task by task, keeping their order within a task,
/// and returns the old → new map.
fn lay_out_by_task(inst: &mut PlacementInstance) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..inst.seeds.len()).collect();
    order.sort_by_key(|&s| inst.seeds[s].task);
    let mut map = vec![None; order.len()];
    let old = std::mem::take(&mut inst.seeds);
    inst.seeds = order
        .iter()
        .enumerate()
        .map(|(id, &s)| {
            map[s] = Some(id);
            PlacementSeed {
                id,
                ..old[s].clone()
            }
        })
        .collect();
    map
}

/// Sets every task's seed list to its seeds, ascending.
fn list_seeds(inst: &mut PlacementInstance) {
    for task in &mut inst.tasks {
        task.seeds.clear();
    }
    for seed in &inst.seeds {
        inst.tasks[seed.task].seeds.push(seed.id);
    }
}

/// What the warm solves of all churn cases reached, so that the property
/// can say its cases still exercise the worklist's cascade and closes,
/// step 5 and the incremental scan.
#[derive(Debug, Default)]
struct Reach {
    /// Visited steps of clean seeds that a divergence put on the
    /// worklist.
    cascaded: usize,
    /// Tasks a warm solve turned from placed to dropped or back.
    flipped: usize,
    /// Seeds step 5 relocated.
    relocated: usize,
    /// Warm solves that evaluated fewer benefit pairs than a cold solve
    /// of the same instance.
    fewer_pairs: usize,
    /// Remaps whose first moved seed `first` has `0 < first < n`: a
    /// splice that leaves the seeds before it in place.
    spliced: usize,
    /// Undiverged switches a warm solve's probes read without rebuilding.
    read: usize,
    /// Pairs a warm scan read from a shared list's row.
    rows_read: usize,
    /// Candidates a warm probe scored from a shared list's score row,
    /// at an entry an earlier solve took.
    probe_rows_read: usize,
    /// Runs of the step order a warm solve patched in place.
    patched: usize,
    /// Rounds whose kept scope followed one switch that joined or left,
    /// and whose held seeds changed.
    rescoped: usize,
    /// Warm solves whose switch list's log named the switches edited
    /// since the last solve (the log path).
    logged: usize,
    /// Warm solves whose switch list's log did not reach back to the
    /// last solve: a hand edit since (the walk path).
    walked: usize,
}

/// Churn replay: every incremental solve along a random event sequence
/// is bit-identical to a from-scratch solve and satisfies the
/// independent constraint checkers. Across the cases, some warm solve
/// visits a step through a cascade, some flips a task, some relocates a
/// seed in step 5, some evaluates fewer benefit pairs than its cold
/// twin, some follows a remap that keeps a prefix of the seeds in place,
/// some reads a switch without rebuilding it, and some reads a benefit
/// pair from a shared list's row.
#[test]
fn delta_replans_match_full_solves_under_churn() {
    let mut reach = Reach::default();
    let site = proptest::test_site!("delta_replans_match_full_solves_under_churn");
    TestRunner::new(ProptestConfig::default(), site).run_cases(|rng| {
        let fabric = workload().generate(rng);
        let events = proptest::collection::vec(churn_event(), 1..6).generate(rng);
        rng.note_inputs(&(&fabric, &events));
        churn_case(&fabric, fabric.instance(), &events, &mut reach);
    });
    assert!(reach.cascaded > 0, "no warm solve cascaded: {reach:?}");
    assert!(reach.flipped > 0, "no warm solve flipped a task: {reach:?}");
    assert!(reach.relocated > 0, "no warm solve relocated: {reach:?}");
    assert!(
        reach.fewer_pairs > 0,
        "no warm scan saved a pair: {reach:?}"
    );
    assert!(reach.spliced > 0, "no remap kept a prefix: {reach:?}");
    assert!(reach.read > 0, "no probe only read a switch: {reach:?}");
    assert!(reach.rows_read > 0, "no warm scan read a row: {reach:?}");
    assert!(reach.patched > 0, "no warm solve patched a run: {reach:?}");
    assert!(
        reach.rescoped > 0,
        "no scope followed one switch: {reach:?}"
    );
    assert!(reach.logged > 0, "no solve read the list's log: {reach:?}");
    assert!(reach.walked > 0, "no solve walked the list: {reach:?}");
}

/// The churn replay over instances that carry watchers
/// ([`Fabric::with_watchers`]): every incremental solve is bit-identical
/// to a from-scratch solve, and across the cases some warm probe scores
/// a watcher's candidates from its list's score row at entries an
/// earlier solve took.
#[test]
fn delta_replans_match_full_solves_with_watchers() {
    let mut reach = Reach::default();
    let site = proptest::test_site!("delta_replans_match_full_solves_with_watchers");
    TestRunner::new(ProptestConfig::default(), site).run_cases(|rng| {
        let fabric = workload().generate(rng);
        let watchers = (2usize..8).generate(rng);
        let events = proptest::collection::vec(churn_event(), 1..6).generate(rng);
        rng.note_inputs(&(&fabric, watchers, &events));
        churn_case(&fabric, fabric.with_watchers(watchers), &events, &mut reach);
    });
    assert!(
        reach.probe_rows_read > 0,
        "no warm probe read a score row entry an earlier solve took: {reach:?}"
    );
}

/// One case of the churn replays: `base` under `events`.
fn churn_case(fabric: &Fabric, base: PlacementInstance, events: &[Churn], reach: &mut Reach) {
    let mut inst = base.clone();
    let opts = HeuristicOptions::default();
    let mut state = SolveState::new();
    let (mut r, report) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    assert!(!report.warm);
    assert_eq!(state.audit(&inst, None), Ok(()), "cold solve");
    let names = |inst: &PlacementInstance, dropped: &[usize]| -> Vec<String> {
        dropped
            .iter()
            .map(|&t| inst.tasks[t].name.clone())
            .collect()
    };
    let mut scope = None;
    // Where the switch list's log stood at the last solve.
    let mut at = inst.switches.log_at();
    for (step, &ev) in events.iter().enumerate() {
        inst.previous = Some(as_previous(&r.assignment));
        let (was_dropped, was_tasks) = (names(&inst, &r.dropped_tasks), inst.tasks.clone());
        let delta = apply(&mut inst, &base, &mut state, ev, reach);
        forget_scope(ev, &mut scope);
        let (held, moved) = fabric.begin_round(&mut inst, &mut scope);
        reach.rescoped += usize::from(moved == Some(1));
        match inst.switches.changes_since(Some(at)) {
            Some([]) => {}
            Some(_) => reach.logged += 1,
            None => reach.walked += 1,
        }
        let (dr, report) = replan_delta(&inst, opts, &mut state, &delta, None);
        at = inst.switches.log_at();
        let seats = inst.previous.as_ref().map(|p| &p.assignment);
        assert_eq!(state.audit(&inst, seats), Ok(()), "step {step} ({ev:?})");
        let full = solve_heuristic(&inst, opts);
        let fresh = &ReplanDelta::default();
        let (_, cold) = replan_delta(&inst, opts, &mut SolveState::new(), fresh, None);
        assert_eq!(
            &dr.assignment, &full.assignment,
            "step {step} ({ev:?}): assignments diverge"
        );
        assert_eq!(
            dr.utility.to_bits(),
            full.utility.to_bits(),
            "step {step} ({ev:?}): utility {} vs {}",
            dr.utility,
            full.utility
        );
        assert_eq!(dr.migrations, full.migrations, "step {step} ({ev:?})");
        assert_eq!(dr.dropped_tasks, full.dropped_tasks, "step {step} ({ev:?})");
        // The objective is read from step 4's records: it must be the
        // one the model computes from the assignment.
        assert_eq!(
            dr.utility.to_bits(),
            utility_of(&inst, &dr.assignment).to_bits(),
            "step {step} ({ev:?})"
        );
        assert!(report.warm);
        assert!(
            check_all(&inst, &dr.assignment).is_ok(),
            "step {step} ({ev:?}): {:?}",
            check_all(&inst, &dr.assignment)
        );
        assert!(
            held.iter().all(|&s| dr.assignment[s].is_none()),
            "step {step} ({ev:?}): a held seed was placed"
        );
        let now_dropped = names(&inst, &dr.dropped_tasks);
        reach.cascaded += report.steps_cascaded;
        reach.flipped += inst
            .tasks
            .iter()
            .filter(|t| was_tasks.iter().any(|w| w.name == t.name))
            .filter(|t| was_dropped.contains(&t.name) != now_dropped.contains(&t.name))
            .count();
        reach.relocated += report.relocated;
        reach.fewer_pairs += usize::from(report.pairs_evaluated < cold.pairs_evaluated);
        reach.read += report.switches_read;
        reach.rows_read += report.pairs_read;
        reach.probe_rows_read += report.probe_rows_read;
        reach.patched += report.runs_patched;
        r = dr;
    }
}

/// Drops the kept scope after an event the seeder makes through a
/// splice (a Retask lays the seeds out again, a Recandidate changes a
/// seed's candidates in place): the next round scopes every task.
fn forget_scope(ev: Churn, scope: &mut Option<Scope>) {
    if matches!(ev, Churn::Retask(_) | Churn::Recandidate(_)) {
        *scope = None;
    }
}

proptest! {
    /// The drain → uncordon shape: a switch leaves the instance with its
    /// residents still naming it, other events pass, and it returns two
    /// events later. Its log and LP output are dropped while it is away
    /// and nothing declares it on return; every step must still agree
    /// with the full solve.
    #[test]
    fn a_switch_that_leaves_and_returns_still_matches_the_full_solve(
        fabric in workload(),
        victim in any::<usize>(),
        between in proptest::collection::vec(churn_event(), 2..3),
    ) {
        let base = fabric.instance();
        let mut inst = base.clone();
        let opts = HeuristicOptions::default();
        let mut state = SolveState::new();
        let (mut r, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
        let mut scope = None;
        let away = inst.switches[victim % inst.switches.len()];
        let mut events = vec![Churn::Drain(victim)];
        // Restore would bring the drained switch back early.
        events.extend(between.into_iter().filter(|ev| !matches!(ev, Churn::Restore(_))));
        for (step, ev) in events.into_iter().map(Some).chain([None]).enumerate() {
            inst.previous = Some(as_previous(&r.assignment));
            let delta = match ev {
                Some(ev) => {
                    forget_scope(ev, &mut scope);
                    apply(&mut inst, &base, &mut state, ev, &mut Reach::default())
                }
                None => {
                    if !inst.switches.iter().any(|(n, _)| *n == away.0) {
                        inst.switches.set(away.0, Some(away.1));
                    }
                    ReplanDelta::default()
                }
            };
            fabric.begin_round(&mut inst, &mut scope);
            let (dr, _) = replan_delta(&inst, opts, &mut state, &delta, None);
            let seats = inst.previous.as_ref().map(|p| &p.assignment);
            prop_assert_eq!(state.audit(&inst, seats), Ok(()), "step {} ({:?})", step, ev);
            let full = solve_heuristic(&inst, opts);
            prop_assert_eq!(&dr.assignment, &full.assignment, "step {} ({:?})", step, ev);
            prop_assert_eq!(dr.utility.to_bits(), full.utility.to_bits(), "step {} ({:?})", step, ev);
            prop_assert_eq!(dr.migrations, full.migrations, "step {} ({:?})", step, ev);
            prop_assert_eq!(&dr.dropped_tasks, &full.dropped_tasks, "step {} ({:?})", step, ev);
            prop_assert!(check_all(&inst, &dr.assignment).is_ok(), "step {} ({:?})", step, ev);
            r = dr;
        }
    }
}
