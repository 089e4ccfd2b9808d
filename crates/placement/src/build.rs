//! Bridges compiled Almanac tasks into placement instances.
//!
//! This is the seeder's glue (§ III-B → § IV): per-seed candidate sets
//! come from the placement analysis, utility branches from the `util`
//! analysis of the machine's *initial* state, and polling demands from the
//! trigger analysis (`demand(r̄) = 1000 / ival_ms(r̄)` polls per second,
//! linear by construction).

use std::ops::Range;

use farm_almanac::analysis::{PollSubject, Poly};
use farm_almanac::compile::CompiledTask;
use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;

use crate::fxhash::FxHashSet;
use crate::model::{
    LogAt, PlacementInstance, PlacementSeed, PlacementTask, PollDemand, PreviousPlacement,
    SwitchList,
};

/// Canonical subject key shared across machines/tasks so the optimizer
/// sees aggregation opportunities (§ IV-B).
pub(crate) fn subject_key(subject: &PollSubject) -> String {
    match subject {
        PollSubject::AllPorts => "ports:ANY".to_string(),
        PollSubject::Port(i) => format!("ports:{i}"),
        PollSubject::Rule(pat) => format!("rule:{pat}"),
    }
}

/// Builds a placement instance from compiled tasks over `switches`: the
/// catalog half (seeds and tasks, which only the task set decides; one
/// [`task_rows`] per task) followed by
/// [`PlacementInstance::begin_round`] for the round half.
///
/// # Errors
///
/// Returns a description when a poll interval's inverse is not linear
/// (which the DSL analysis should already have rejected).
pub fn instance_from_tasks(
    tasks: &[&CompiledTask],
    switches: &[(SwitchId, Resources)],
    previous: Option<PreviousPlacement>,
) -> Result<PlacementInstance, String> {
    let mut instance = PlacementInstance {
        switches: switches.to_vec().into(),
        ..PlacementInstance::default()
    };
    for (t, task) in tasks.iter().enumerate() {
        let rows = task_rows(task, t, instance.seeds.len())?;
        instance.seeds.extend(rows.seeds);
        instance.tasks.push(rows.task);
    }
    instance.begin_round(previous);
    Ok(instance)
}

/// One task's rows of a placement instance.
#[derive(Debug)]
pub struct TaskRows {
    /// Its seeds, machine by machine and seed by seed within a machine.
    pub seeds: Vec<PlacementSeed>,
    /// Its task row, with the round-scoped seed list empty.
    pub task: PlacementTask,
}

/// The rows `task` contributes to an instance as its task `t`, its seeds
/// numbered from `first`: per seed the candidate set, the utility
/// branches of its machine's initial state and the machine's polling
/// demands.
///
/// # Errors
///
/// As [`instance_from_tasks`].
pub fn task_rows(task: &CompiledTask, t: usize, first: usize) -> Result<TaskRows, String> {
    let mut seeds = Vec::new();
    for cm in &task.machines {
        let util = cm.util_of(&cm.initial_state);
        let mut polls = Vec::new();
        for trig in &cm.triggers {
            if trig.kind != farm_almanac::ast::TriggerType::Poll {
                continue;
            }
            // demand(r̄) = 1000 / ival_ms(r̄) polls per second.
            let demand: Poly = trig
                .ival
                .recip()
                .as_poly()
                .map(|p| p.scale(1000.0))
                .ok_or_else(|| {
                    format!(
                        "trigger `{}` of `{}` has non-linear polling demand",
                        trig.name, cm.machine.name
                    )
                })?;
            for s in &trig.subjects {
                polls.push(PollDemand {
                    subject: subject_key(s),
                    demand,
                });
            }
        }
        for spec in &cm.seeds {
            seeds.push(PlacementSeed {
                id: first + seeds.len(),
                task: t,
                candidates: spec.candidates.clone(),
                util: util.clone(),
                polls: polls.clone(),
            });
        }
    }
    let task = PlacementTask {
        name: task.name.clone(),
        seeds: Vec::new(),
    };
    Ok(TaskRows { seeds, task })
}

impl PlacementInstance {
    /// Splices task `t`'s rows: `rows`, numbered as task `t` from
    /// `seeds.start` ([`task_rows`]), are inserted before row `t`
    /// (`seeds` then empty); `None` removes task `t`, whose seeds are
    /// `seeds`. The seeds after the splice are renumbered and move one
    /// task on or back. The task rows' seed lists are the round's
    /// ([`PlacementInstance::begin_round`]): the other tasks' follow the
    /// renumbering, and an inserted task's is empty until it is scoped
    /// ([`Scope::scope_task`]).
    ///
    /// Returns the old → new seed map for [`crate::delta::SolveState::remap`]:
    /// a seed before the splice keeps its index, a spliced-out one maps
    /// to nothing, and one after it shifts by the splice's change in
    /// length.
    pub fn splice_task(
        &mut self,
        t: usize,
        seeds: Range<usize>,
        rows: Option<TaskRows>,
    ) -> Vec<Option<usize>> {
        let (removed, added) = (seeds.len(), rows.as_ref().map_or(0, |r| r.seeds.len()));
        let map = (0..self.seeds.len())
            .map(|i| match i {
                _ if i < seeds.start => Some(i),
                _ if i < seeds.end => None,
                _ => Some(i - removed + added),
            })
            .collect();
        let inserted = rows.is_some();
        let new = match rows {
            Some(rows) => {
                self.tasks.insert(t, rows.task);
                rows.seeds
            }
            None => {
                self.tasks.remove(t);
                Vec::new()
            }
        };
        let after = seeds.start + added;
        let from = seeds.end;
        self.seeds.splice(seeds, new);
        for seed in &mut self.seeds[after..] {
            seed.id = seed.id + added - removed;
            seed.task = if inserted {
                seed.task + 1
            } else {
                seed.task - 1
            };
        }
        for task in &mut self.tasks {
            for s in task.seeds.iter_mut().filter(|s| **s >= from) {
                *s = *s + added - removed;
            }
        }
        map
    }

    /// Points the instance at one planning round over its switches: the
    /// placement it starts from, and every task's seed list scoped to
    /// the seeds that have somewhere to go.
    ///
    /// A seed none of whose candidates is among the switches is *held*: it
    /// is out of scope for the round, not a reason to drop its task. It
    /// stays in [`PlacementInstance::seeds`] (seed numbering does not
    /// move) but in no task's list, so C1 is all-or-nothing over the
    /// seeds the round can place and the solver leaves the held ones
    /// unassigned. Returns the held seeds in ascending order; what a
    /// held seed means for whatever sits behind it is the caller's to
    /// say (the seeder plans no action for it).
    pub fn begin_round(&mut self, previous: Option<PreviousPlacement>) -> Vec<usize> {
        self.previous = previous;
        let live: FxHashSet<SwitchId> = self.switches.iter().map(|(n, _)| *n).collect();
        for task in &mut self.tasks {
            task.seeds.clear();
        }
        let mut held = Vec::new();
        for (s, seed) in self.seeds.iter().enumerate() {
            if seed.candidates.iter().any(|n| live.contains(n)) {
                self.tasks[seed.task].seeds.push(s);
            } else {
                held.push(s);
            }
        }
        held
    }
}

/// A round's scope kept between rounds: what
/// [`PlacementInstance::begin_round`] left the task lists scoped
/// against, followed since through the switch list's log. Beside the
/// held seeds it keeps one live candidate per scoped seed, its
/// *witness*: a seed can leave the scope only when its witness leaves
/// the list, and come back only when a switch it has as candidate
/// joins, so the next round visits those seeds and no others
/// ([`Scope::follow`]).
#[derive(Debug, Clone)]
pub struct Scope {
    /// Where the instance's switch list's log stood when the scope last
    /// followed it.
    at: LogAt,
    /// The seeds with no live candidate, ascending.
    held: Vec<usize>,
    /// Per seed, a live candidate of a scoped seed; `None` for a held
    /// seed and for a seed of a task no round scoped yet.
    witness: Vec<Option<SwitchId>>,
}

impl Scope {
    /// The scope [`PlacementInstance::begin_round`] just left `instance`
    /// in, holding `held`; `None` when the instance's switch ids are not
    /// strictly ascending.
    pub fn of(instance: &PlacementInstance, held: Vec<usize>) -> Option<Scope> {
        let switches = &instance.switches;
        if !switches.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        let mut scope = Scope {
            at: switches.log_at(),
            held,
            witness: vec![None; instance.seeds.len()],
        };
        for task in &instance.tasks {
            for &s in &task.seeds {
                scope.witness[s] = first_in(&instance.seeds[s].candidates, switches);
            }
        }
        Some(scope)
    }

    /// The held seeds, ascending.
    pub fn held(&self) -> &[usize] {
        &self.held
    }

    /// Brings the scope and `instance`'s task lists to the instance's
    /// switches, reading the ids their log names since the scope last
    /// looked: one now absent left, and one now present joined. A scoped
    /// seed whose witness left takes another live candidate or is held,
    /// and a held seed with a candidate that joined is scoped again;
    /// every other seed keeps its place in its task's list. Returns how
    /// many switches the log named, or `None`, with both untouched, when
    /// the scope's place fell off the log (a list written by hand or
    /// replaced, or another list).
    pub fn follow(&mut self, instance: &mut PlacementInstance) -> Option<usize> {
        let PlacementInstance {
            switches,
            tasks,
            seeds,
            ..
        } = instance;
        let mut ids = switches.changes_since(Some(self.at))?.to_vec();
        self.at = switches.log_at();
        ids.sort_unstable();
        ids.dedup();
        let (joined, left): (Vec<SwitchId>, Vec<SwitchId>) =
            ids.iter().partition(|&&n| switches.ares(n).is_some());
        if !left.is_empty() {
            for (s, seed) in seeds.iter().enumerate() {
                if self.witness[s].is_none_or(|w| left.binary_search(&w).is_err()) {
                    continue;
                }
                self.witness[s] = first_in(&seed.candidates, switches);
                if self.witness[s].is_none() {
                    let list = &mut tasks[seed.task].seeds;
                    let at = list.binary_search(&s).expect("a witnessed seed is scoped");
                    list.remove(at);
                    self.held.push(s);
                }
            }
            self.held.sort_unstable();
        }
        if !joined.is_empty() {
            let witness = &mut self.witness;
            self.held.retain(|&s| {
                let seed = &seeds[s];
                witness[s] =
                    (seed.candidates.iter().copied()).find(|n| joined.binary_search(n).is_ok());
                if witness[s].is_none() {
                    return true;
                }
                let list = &mut tasks[seed.task].seeds;
                let at = list
                    .binary_search(&s)
                    .expect_err("a held seed is out of scope");
                list.insert(at, s);
                false
            });
        }
        Some(ids.len())
    }

    /// Scopes task `t`'s seed list, empty until now (a task spliced in
    /// since the scope was taken), as [`PlacementInstance::begin_round`]
    /// scopes every task: its seeds with a live candidate in the list,
    /// the others held. The instance's seeds are laid out task by task,
    /// as a catalog of [`PlacementInstance::splice_task`] keeps them.
    pub fn scope_task(&mut self, instance: &mut PlacementInstance, t: usize) {
        debug_assert!(instance.seeds.is_sorted_by_key(|s| s.task));
        let start = instance.seeds.partition_point(|s| s.task < t);
        let end = start + instance.seeds[start..].partition_point(|s| s.task == t);
        let list = &mut instance.tasks[t].seeds;
        list.clear();
        for (s, seed) in instance.seeds[start..end].iter().enumerate() {
            let s = start + s;
            self.witness[s] = first_in(&seed.candidates, &instance.switches);
            match self.witness[s] {
                Some(_) => list.push(s),
                None => self.held.push(s),
            }
        }
        self.held.sort_unstable();
    }

    /// The seed rows `seeds` were spliced out and `added` spliced in
    /// their place, renumbering the seeds as `map` says
    /// ([`PlacementInstance::splice_task`]): the spliced-in seeds are
    /// not scoped until [`Scope::scope_task`].
    pub fn splice(&mut self, seeds: Range<usize>, added: usize, map: &[Option<usize>]) {
        self.witness.splice(seeds, std::iter::repeat_n(None, added));
        self.held.retain_mut(|s| map[*s].map(|n| *s = n).is_some());
    }

    /// Holds the witnesses to the instance: a seed is in its task's list
    /// exactly when it has a witness, which is a live candidate of it.
    ///
    /// # Errors
    ///
    /// The first seed whose witness does not hold, named.
    pub fn check(&self, instance: &PlacementInstance) -> Result<(), String> {
        if self.witness.len() != instance.seeds.len() {
            return Err(format!(
                "scope: {} witnesses, {} seeds",
                self.witness.len(),
                instance.seeds.len()
            ));
        }
        for (s, seed) in instance.seeds.iter().enumerate() {
            let scoped = (instance.tasks[seed.task].seeds).binary_search(&s).is_ok();
            let w = self.witness[s];
            let live = w.is_some_and(|w| {
                seed.candidates.contains(&w) && instance.switches.ares(w).is_some()
            });
            if scoped != live || w.is_some() != scoped {
                return Err(format!(
                    "scope: seed {s} scoped {scoped}, witness {w:?} (a live candidate: {live})"
                ));
            }
        }
        Ok(())
    }
}

/// The first of `candidates` in `switches` (ids ascending).
fn first_in(candidates: &[SwitchId], switches: &SwitchList) -> Option<SwitchId> {
    (candidates.iter().copied()).find(|&n| switches.ares(n).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{solve_heuristic, HeuristicOptions};
    use crate::model::validate;
    use farm_almanac::compile::compile_task;
    use farm_netsim::controller::SdnController;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;

    #[test]
    fn hh_task_becomes_a_placeable_instance() {
        let topo = Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let switches: Vec<(SwitchId, Resources)> = topo
            .switches()
            .iter()
            .map(|n| (n.id, n.model.total_resources()))
            .collect();
        let inst = instance_from_tasks(&[&task], &switches, None).unwrap();
        assert_eq!(inst.seeds.len(), 5, "place all → one seed per switch");
        assert_eq!(inst.tasks.len(), 1);
        // HH polls `port ANY` at ival = 10/PCIe ms → demand = 100·PCIe
        // polls/s.
        let seed = &inst.seeds[0];
        assert_eq!(seed.polls.len(), 1);
        assert_eq!(seed.polls[0].subject, "ports:ANY");
        let r = Resources::new(0.0, 0.0, 0.0, 2.0);
        assert!((seed.polls[0].demand.eval(&r) - 200.0).abs() < 1e-9);

        let result = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &result).unwrap();
        assert_eq!(result.placed(), 5, "pinned seeds all place");
        assert!(result.utility > 0.0);
    }

    #[test]
    fn a_seed_with_no_live_candidate_is_held_and_its_task_places_on_the_rest() {
        let topo = Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let switches: Vec<(SwitchId, Resources)> = topo
            .switches()
            .iter()
            .map(|n| (n.id, n.model.total_resources()))
            .collect();
        let mut inst = instance_from_tasks(&[&task], &switches, None).unwrap();
        assert_eq!(inst.tasks[0].seeds, vec![0, 1, 2, 3, 4]);

        // The first switch leaves the round: its pinned seed is held.
        inst.switches.set(switches[0].0, None);
        let held = inst.begin_round(None);
        assert_eq!(held, vec![0]);
        assert_eq!(inst.seeds.len(), 5, "seed numbering does not move");
        assert_eq!(inst.tasks[0].seeds, vec![1, 2, 3, 4]);
        let result = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &result).unwrap();
        assert!(
            result.dropped_tasks.is_empty(),
            "C1 is over the seeds in scope"
        );
        assert_eq!(result.placed(), 4);
        assert!(result.assignment[0].is_none());

        // And returns: the seed is in scope again.
        inst.switches.set(switches[0].0, Some(switches[0].1));
        assert!(inst.begin_round(None).is_empty());
        assert_eq!(inst.tasks[0].seeds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shared_subjects_across_tasks_share_keys() {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
        let ctl = SdnController::new(&topo);
        let hh = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let tc = compile_task(
            "traffic-change",
            farm_almanac::programs::TRAFFIC_CHANGE,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let switches: Vec<(SwitchId, Resources)> = topo
            .switches()
            .iter()
            .map(|n| (n.id, n.model.total_resources()))
            .collect();
        let inst = instance_from_tasks(&[&hh, &tc], &switches, None).unwrap();
        // Both tasks poll `port ANY`: the optimizer must see one subject.
        let hh_subj = &inst.seeds[inst.tasks[0].seeds[0]].polls[0].subject;
        let tc_subj = &inst.seeds[inst.tasks[1].seeds[0]].polls[0].subject;
        assert_eq!(hh_subj, tc_subj, "aggregation needs shared keys");
    }
}
