//! The seeder: FARM's centralized M&M control instance (§ II-C b).
//!
//! The seeder compiles Almanac tasks, keeps the global catalog of
//! deployed tasks, and — whenever an input changes — re-runs placement
//! optimization over *all* co-deployed tasks, producing a plan of
//! deployments, migrations, reallocations and withdrawals that the
//! [`crate::farm::Farm`] facade executes against the soils.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;
use std::time::Instant;

use farm_almanac::compile::{CompiledMachine, CompiledTask};
use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_placement::build::{task_rows, TaskRows};
use farm_placement::delta::{replan_delta, DeltaReport, ReplanDelta, SolveState};
use farm_placement::heuristic::HeuristicOptions;
use farm_placement::model::{PlacementInstance, PlacementResult, PreviousPlacement, Seat, Seats};
use farm_soil::SeedId;
use farm_telemetry::{Histogram, Telemetry};

/// Stable identity of one seed across re-optimizations.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeedKey {
    pub task: String,
    /// Index of the machine within its task.
    pub machine: usize,
    /// Index of the seed within its machine's placement spec.
    pub seed: usize,
}

impl SeedKey {
    /// Every key of task `name`, first to last in key order.
    fn of_task(name: &str) -> RangeInclusive<SeedKey> {
        let key = |n| SeedKey {
            task: name.to_string(),
            machine: n,
            seed: n,
        };
        key(0)..=key(usize::MAX)
    }
}

impl std::fmt::Display for SeedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/m{}/s{}", self.task, self.machine, self.seed)
    }
}

/// One step of a placement plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedAction {
    /// Fresh deployment.
    Deploy {
        key: SeedKey,
        to: SwitchId,
        alloc: Resources,
    },
    /// Move a running seed (state snapshot travels with it).
    Migrate {
        key: SeedKey,
        from: SwitchId,
        to: SwitchId,
        alloc: Resources,
    },
    /// Same switch, new allocation.
    Realloc { key: SeedKey, alloc: Resources },
    /// Remove a seed (its task was dropped by the optimizer).
    Undeploy { key: SeedKey, from: SwitchId },
}

/// Outcome of a planning round.
#[derive(Debug, Clone)]
pub struct Plan {
    pub actions: Vec<PlannedAction>,
    /// The optimizer's result over all tasks.
    pub result: PlacementResult,
    /// Names of tasks the optimizer dropped entirely.
    pub dropped_tasks: Vec<String>,
    /// Seeds that hold their seat this round: none of their candidate
    /// switches is live, so the round neither placed nor moved them and
    /// `actions` has nothing for them. A held seed on a cordoned switch
    /// keeps running, one lost with its switch stays with the recovery
    /// queue, one never placed waits for the first plan that sees its
    /// switch back. In key order.
    pub held: Vec<SeedKey>,
    /// How much of the solve was served from the incremental solver's
    /// memo (see [`farm_placement::delta::replan_delta`]).
    pub delta: DeltaReport,
}

/// One placed seed: where it is, what it holds, and the name its soil
/// knows it by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed {
    pub(crate) switch: SwitchId,
    pub(crate) alloc: Resources,
    /// Soil-local id, unique on `switch` only.
    pub(crate) id: SeedId,
    /// The soil that issued `id` died with its switch. A restarted
    /// switch numbers its seeds from zero again, so from here on `id`
    /// may name somebody else's seed and must not reach a soil.
    pub(crate) lost: bool,
}

/// What a planning round needs of the task catalog, kept in step with
/// the task table: a registration splices one task's rows in, a removal
/// splices them out, and no other task's rows are touched.
#[derive(Debug, Default)]
struct Catalog {
    /// One key per seed of every registered task, in instance order
    /// (which is key order).
    keys: Vec<SeedKey>,
    /// Seeds and tasks of every registered task, as
    /// [`farm_placement::build::instance_from_tasks`] lays them out over
    /// the task table. Switches, previous placement and task scopes are
    /// the round's ([`PlacementInstance::begin_round`]).
    instance: PlacementInstance,
    /// The seed table's seat of each key, index-aligned with `keys`: the
    /// previous placement a round hands the solver as it is. A splice
    /// splices it; a commit, an eviction or a forgotten seed writes the
    /// one seat it changed.
    seats: Seats,
}

impl Catalog {
    /// Where `name`'s seeds sit in key order (empty when it has none),
    /// and the index its task row has or would have.
    fn position(&self, name: &str) -> (Range<usize>, usize) {
        let start = self.keys.partition_point(|k| k.task.as_str() < name);
        let end = start + self.keys[start..].partition_point(|k| k.task == name);
        let t = self
            .instance
            .tasks
            .partition_point(|r| r.name.as_str() < name);
        (start..end, t)
    }

    /// Replaces `name`'s rows (none when it is not in the catalog) with
    /// `new` (none removes the task) and returns the old → new seed map
    /// ([`PlacementInstance::splice_task`]). A registration inserts a
    /// task the catalog does not hold, so its new keys have no seats.
    fn splice(&mut self, name: &str, new: Option<(Vec<SeedKey>, TaskRows)>) -> Vec<Option<usize>> {
        let (old, t) = self.position(name);
        let (keys, rows) = new.unzip();
        let keys = keys.unwrap_or_default();
        debug_assert!(keys.is_empty() || old.is_empty(), "a task registered twice");
        self.seats
            .splice(old.clone(), std::iter::repeat_n(None, keys.len()));
        self.keys.splice(old.clone(), keys);
        self.instance.splice_task(t, old, rows)
    }

    /// Writes `key`'s seat, if the key is in the catalog.
    fn seat(&mut self, key: &SeedKey, seat: Option<Seat>) {
        let Ok(i) = self.keys.binary_search(key) else {
            return;
        };
        match seat {
            Some(seat) => self.seats.insert(i, seat),
            None => self.seats.remove(&i),
        };
    }
}

/// The seeder's task catalog and placement memory.
#[derive(Debug, Default)]
pub struct Seeder {
    /// Every registered task's machines, by task name.
    tasks: BTreeMap<String, Vec<Arc<CompiledMachine>>>,
    /// The seed table: one record per placed seed. Key order is the
    /// order every listing, event and checkpoint walk sees.
    placed: BTreeMap<SeedKey, Placed>,
    /// Solver-phase timings land here when set (see [`Seeder::set_telemetry`]).
    telemetry: Option<Telemetry>,
    /// Incremental-solver memory carried between planning rounds.
    solver_state: SolveState,
    catalog: Catalog,
    /// `seeder.splice_us`: one catalog splice and the solver memory's
    /// remap, per registration or removal.
    splice_us: Option<Arc<Histogram>>,
}

impl Seeder {
    /// An empty seeder. It plans with the default heuristic options.
    pub(crate) fn new() -> Seeder {
        Seeder::default()
    }

    /// Attaches telemetry: planning rounds record `solver.phase_us`
    /// samples and emit [`farm_telemetry::Event::SolverPhase`] events.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.splice_us = Some(telemetry.latency_histogram("seeder.splice_us"));
        self.telemetry = Some(telemetry);
    }

    /// Splices `name`'s rows ([`Catalog::splice`]) and remaps the solver
    /// memory to the new numbering, timed into `seeder.splice_us`.
    fn splice(&mut self, name: &str, new: Option<(Vec<SeedKey>, TaskRows)>) {
        let started = Instant::now();
        let map = self.catalog.splice(name, new);
        self.solver_state.remap(&map);
        if let Some(h) = &self.splice_us {
            h.record(started.elapsed().as_micros() as u64);
        }
    }

    /// Registers a compiled task. Only this task's rows are built; they
    /// are spliced into the planning catalog at the task's place in key
    /// order, and the seeds after them shift. The solver memory follows
    /// the shift; the new seeds have no old index, so it holds nothing on
    /// them and their definitions need no declaring. A same-named task is
    /// replaced: once the new rows are built, it is removed as by
    /// [`Seeder::remove_task`], and its seed records are returned for the
    /// caller to undeploy; `None` when no task had the name.
    ///
    /// # Errors
    ///
    /// Instance-construction failures (non-linear demands); the seeder,
    /// and a task it would have replaced, are then left as they were.
    pub(crate) fn register_task(
        &mut self,
        task: CompiledTask,
    ) -> Result<Option<Vec<Placed>>, String> {
        let name = task.name.clone();
        // A same-named task's rows start where the new ones will once it
        // is removed.
        let (at, t) = self.catalog.position(&name);
        let rows = task_rows(&task, t, at.start)?;
        let replaced = self.remove_task(&name);
        let keys = task
            .machines
            .iter()
            .enumerate()
            .flat_map(|(machine, m)| {
                let task = &name;
                (0..m.seeds.len()).map(move |seed| SeedKey {
                    task: task.clone(),
                    machine,
                    seed,
                })
            })
            .collect();
        self.splice(&name, Some((keys, rows)));
        let machines = task.machines.into_iter().map(Arc::new).collect();
        self.tasks.insert(name, machines);
        Ok(replaced)
    }

    /// Removes a task from the catalog together with its placement
    /// memory and returns its seed records in key order, for the caller
    /// to undeploy; `None` when no task of that name is registered.
    pub(crate) fn remove_task(&mut self, name: &str) -> Option<Vec<Placed>> {
        self.tasks.remove(name)?;
        let keys: Vec<SeedKey> = (self.placed.range(SeedKey::of_task(name)))
            .map(|(k, _)| k.clone())
            .collect();
        let records = keys.iter().filter_map(|k| self.placed.remove(k)).collect();
        // The task's seed indices vanish: the remap drops every switch
        // log and LP output that mentions them.
        self.splice(name, None);
        Some(records)
    }

    /// Whether a task of that name is registered.
    pub fn has_task(&self, name: &str) -> bool {
        self.tasks.contains_key(name)
    }

    /// Registered task names in deterministic order.
    pub fn task_names(&self) -> Vec<String> {
        self.tasks.keys().cloned().collect()
    }

    /// The compiled machine definition behind a seed key.
    pub(crate) fn machine_of(&self, key: &SeedKey) -> Option<Arc<CompiledMachine>> {
        self.tasks
            .get(&key.task)
            .and_then(|machines| machines.get(key.machine))
            .cloned()
    }

    /// All currently placed seeds with their switch and allocation, in
    /// key order.
    pub fn placements(&self) -> impl Iterator<Item = (&SeedKey, SwitchId, Resources)> {
        self.placed.iter().map(|(k, p)| (k, p.switch, p.alloc))
    }

    /// The seed table in key order.
    pub(crate) fn table(&self) -> impl ExactSizeIterator<Item = (&SeedKey, &Placed)> {
        self.placed.iter()
    }

    /// One record of the seed table.
    pub(crate) fn placed(&self, key: &SeedKey) -> Option<&Placed> {
        self.placed.get(key)
    }

    /// The live seed a soil knows as `id` on `switch` (a soil reports
    /// what it shed by its own ids).
    pub(crate) fn key_of(&self, switch: SwitchId, id: SeedId) -> Option<&SeedKey> {
        self.placed
            .iter()
            .find(|(_, p)| p.switch == switch && p.id == id && !p.lost)
            .map(|(k, _)| k)
    }

    /// The soil on `switch` died: every record there keeps its place —
    /// the detector has not fired yet, the planner still counts the seed
    /// as resident — but its id is void.
    pub(crate) fn soil_lost(&mut self, switch: SwitchId) {
        for p in self.placed.values_mut().filter(|p| p.switch == switch) {
            p.lost = true;
        }
    }

    /// Runs global placement over every registered task and diffs the
    /// result against the current deployment. Planning is incremental
    /// through the retained [`SolveState`]: the result is bit-identical
    /// to a from-scratch solve, reuse only buys time. A seed with no
    /// live candidate holds its seat ([`Plan::held`]): it neither drops
    /// its task nor appears in the actions.
    pub(crate) fn plan(&mut self, switches: &[(SwitchId, Resources)]) -> Plan {
        let Catalog {
            keys,
            instance,
            seats,
        } = &mut self.catalog;
        // The catalog's seats are the previous placement: they go to the
        // round as they are, and come back after the diff.
        let previous = (!seats.is_empty()).then(|| PreviousPlacement {
            assignment: std::mem::take(seats),
        });
        let held = instance.begin_round(switches, previous);
        // A definition change is always a splice, which the remap has
        // already shown the memory: nothing is left to declare dirty.
        let (result, report) = replan_delta(
            instance,
            HeuristicOptions::default(),
            &mut self.solver_state,
            &ReplanDelta::default(),
            self.telemetry.as_ref(),
        );

        let mut actions = Vec::new();
        let mut held_keys = Vec::with_capacity(held.len());
        let mut held = held.into_iter().peekable();
        for (i, key) in keys.iter().enumerate() {
            if held.next_if_eq(&i).is_some() {
                held_keys.push(key.clone());
                continue;
            }
            let new = result.assignment[i];
            // What the table said when the round began.
            let old = instance
                .previous
                .as_ref()
                .and_then(|p| p.assignment.get(&i).copied());
            match (old, new) {
                (None, Some((n, alloc))) => actions.push(PlannedAction::Deploy {
                    key: key.clone(),
                    to: n,
                    alloc,
                }),
                (Some((from, _)), Some((to, alloc))) if from != to => {
                    actions.push(PlannedAction::Migrate {
                        key: key.clone(),
                        from,
                        to,
                        alloc,
                    })
                }
                (Some((_, old_alloc)), Some((_, alloc))) => {
                    if (0..4).any(|k| (old_alloc.0[k] - alloc.0[k]).abs() > 1e-9) {
                        actions.push(PlannedAction::Realloc {
                            key: key.clone(),
                            alloc,
                        });
                    }
                }
                (Some((from, _)), None) => actions.push(PlannedAction::Undeploy {
                    key: key.clone(),
                    from,
                }),
                (None, None) => {}
            }
        }
        let dropped_tasks = result
            .dropped_tasks
            .iter()
            .map(|&t| instance.tasks[t].name.clone())
            .collect();
        if let Some(previous) = instance.previous.take() {
            *seats = previous.assignment;
        }
        Plan {
            actions,
            result,
            dropped_tasks,
            held: held_keys,
            delta: report,
        }
    }

    /// Drops the placement memory of every seed on `switch` (the switch
    /// crashed or was declared failed) and returns their keys, with the
    /// id the lost soil knew each by, in key order. The next
    /// [`Seeder::plan`] sees those seeds as unplaced and proposes fresh
    /// deployments for them.
    pub(crate) fn evict_switch(&mut self, switch: SwitchId) -> Vec<(SeedKey, SeedId)> {
        let evicted: Vec<(SeedKey, SeedId)> = self
            .placed
            .iter()
            .filter(|(_, p)| p.switch == switch)
            .map(|(k, p)| (k.clone(), p.id))
            .collect();
        for (key, _) in &evicted {
            self.placed.remove(key);
            self.catalog.seat(key, None);
        }
        evicted
    }

    /// Drops the placement memory of a single seed (e.g. shed under
    /// resource pressure). Returns the id its soil knew it by, `None`
    /// for an unknown seed.
    pub(crate) fn forget(&mut self, key: &SeedKey) -> Option<SeedId> {
        let placed = self.placed.remove(key)?;
        self.catalog.seat(key, None);
        Some(placed.id)
    }

    /// Records that a planned action was executed (keeps the seed table
    /// in sync). `planted` is the id the target soil handed back for the
    /// seed a `Deploy` or `Migrate` put there; the other actions plant
    /// nothing and ignore it.
    ///
    /// # Panics
    ///
    /// Panics when a `Deploy` or `Migrate` is committed without an id.
    pub(crate) fn commit(&mut self, action: &PlannedAction, planted: Option<SeedId>) {
        match action {
            PlannedAction::Deploy { key, to, alloc }
            | PlannedAction::Migrate { key, to, alloc, .. } => {
                let placed = Placed {
                    switch: *to,
                    alloc: *alloc,
                    id: planted.expect("a planted seed commits with its soil-local id"),
                    lost: false,
                };
                self.placed.insert(key.clone(), placed);
                self.catalog.seat(key, Some((*to, *alloc)));
            }
            PlannedAction::Realloc { key, alloc } => {
                if let Some(p) = self.placed.get_mut(key) {
                    p.alloc = *alloc;
                    self.catalog.seat(key, Some((p.switch, *alloc)));
                }
            }
            PlannedAction::Undeploy { key, .. } => {
                self.placed.remove(key);
                self.catalog.seat(key, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::compile::compile_task;
    use farm_netsim::controller::SdnController;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;

    fn fabric() -> Topology {
        Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        )
    }

    /// Commits a whole plan the way the farm does, minus the soils: ids
    /// are made up, one per action.
    fn commit_all(seeder: &mut Seeder, plan: &Plan) {
        for (i, a) in plan.actions.iter().enumerate() {
            seeder.commit(a, Some(SeedId(i as u64)));
        }
    }

    fn capacities(topo: &Topology) -> Vec<(SwitchId, Resources)> {
        topo.switches()
            .iter()
            .map(|n| (n.id, n.model.total_resources()))
            .collect()
    }

    #[test]
    fn first_plan_deploys_every_seed() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let mut seeder = Seeder::new();
        seeder.register_task(task).unwrap();
        let plan = seeder.plan(&capacities(&topo));
        assert_eq!(plan.actions.len(), 5);
        assert!(plan
            .actions
            .iter()
            .all(|a| matches!(a, PlannedAction::Deploy { .. })));
        commit_all(&mut seeder, &plan);
        assert_eq!(seeder.placements().count(), 5);
    }

    #[test]
    fn replanning_unchanged_world_is_a_noop() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let mut seeder = Seeder::new();
        seeder.register_task(task).unwrap();
        let caps = capacities(&topo);
        let plan = seeder.plan(&caps);
        commit_all(&mut seeder, &plan);
        let plan2 = seeder.plan(&caps);
        let disruptive: Vec<_> = plan2
            .actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    PlannedAction::Migrate { .. } | PlannedAction::Undeploy { .. }
                )
            })
            .collect();
        assert!(
            disruptive.is_empty(),
            "stable world must not move seeds: {disruptive:?}"
        );
    }

    #[test]
    fn removing_a_task_undeploys_its_seeds() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let mut seeder = Seeder::new();
        seeder.register_task(task).unwrap();
        let caps = capacities(&topo);
        let plan = seeder.plan(&caps);
        commit_all(&mut seeder, &plan);
        assert!(seeder.remove_task("hh").is_some());
        // With the task gone from the catalog the plan no longer knows the
        // seeds; the Farm facade undeploys orphans (see farm.rs). The
        // seeder itself reports no actions for unknown keys.
        let plan = seeder.plan(&caps);
        assert!(plan.actions.is_empty());
    }

    #[test]
    fn evicting_a_switch_forgets_only_its_seeds() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let mut seeder = Seeder::new();
        seeder.register_task(task).unwrap();
        let caps = capacities(&topo);
        let plan = seeder.plan(&caps);
        commit_all(&mut seeder, &plan);
        let total = seeder.placements().count();
        let victim = seeder.placements().next().unwrap().1;
        let evicted = seeder.evict_switch(victim);
        assert!(!evicted.is_empty());
        assert!(evicted.windows(2).all(|w| w[0].0 < w[1].0), "sorted keys");
        assert_eq!(seeder.placements().count(), total - evicted.len());
        assert!(seeder.placements().all(|(_, n, _)| n != victim));
        // The next plan re-deploys exactly the evicted seeds.
        let plan = seeder.plan(&caps);
        let deploys: Vec<_> = plan
            .actions
            .iter()
            .filter(|a| matches!(a, PlannedAction::Deploy { .. }))
            .collect();
        assert_eq!(deploys.len(), evicted.len());
    }

    #[test]
    fn warm_replans_reuse_the_solver_memo() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task(
            "hh",
            farm_almanac::programs::HEAVY_HITTER,
            &Default::default(),
            &ctl,
        )
        .unwrap();
        let mut seeder = Seeder::new();
        seeder.register_task(task).unwrap();
        let caps = capacities(&topo);
        let p1 = seeder.plan(&caps);
        assert!(!p1.delta.warm, "first plan is cold");
        commit_all(&mut seeder, &p1);
        let p2 = seeder.plan(&caps);
        assert!(p2.delta.warm);
        commit_all(&mut seeder, &p2);
        // By the third round the world is stable: the LP outputs round
        // two stored must serve round three.
        let p3 = seeder.plan(&caps);
        assert!(p3.delta.warm);
        assert!(
            p3.delta.reused > 0 && !p3.delta.fallback_full,
            "stable replan should replay stored LPs: {:?}",
            p3.delta
        );
    }

    #[test]
    fn co_deployed_tasks_plan_together() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let mut seeder = Seeder::new();
        for (name, src) in [
            ("hh", farm_almanac::programs::HEAVY_HITTER),
            ("traffic-change", farm_almanac::programs::TRAFFIC_CHANGE),
        ] {
            seeder
                .register_task(compile_task(name, src, &Default::default(), &ctl).unwrap())
                .unwrap();
        }
        let plan = seeder.plan(&capacities(&topo));
        // Both `place all` tasks: 5 + 5 deployments.
        assert_eq!(plan.actions.len(), 10);
        assert!(plan.dropped_tasks.is_empty());
    }

    /// The splice keeps the catalog equal to a rebuild, and the
    /// remapped solver memory plans as a fresh seeder does.
    mod catalog_property {
        use super::*;
        use farm_placement::build::instance_from_tasks;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Names that land before, between and after one another,
        /// prefixes included.
        const NAMES: [&str; 6] = ["a", "w4", "w40", "w41", "w5", "z"];

        /// `IVAL` becomes the name's index plus one, so that every task
        /// of these two programs polls at its own rate.
        const HUNGRY: &str = "machine Hungry { place any;
            poll p = Poll { .ival = IVAL, .what = port ANY };
            state s { util (res) { if (res.vCPU >= 1 and res.RAM >= 100) then
                { return min(res.vCPU, res.PCIe); } } when (p as stats) do { } } }";
        const DUO: &str = "machine Rover { place any; state s { } }
            machine Post { place any 1, 2;
            poll p = Poll { .ival = IVAL, .what = port ANY };
            state s { util (res) { if (res.vCPU >= 1 and res.RAM >= 100) then
                { return min(res.vCPU, 1); } } when (p as stats) do { } } }";
        const PROGRAMS: [&str; 4] = [
            farm_almanac::programs::HEAVY_HITTER,
            farm_almanac::programs::TRAFFIC_CHANGE,
            HUNGRY,
            DUO,
        ];

        /// Every name compiled with every program, once per test binary.
        fn compiled(name: usize, program: usize) -> CompiledTask {
            static TASKS: OnceLock<Vec<Vec<CompiledTask>>> = OnceLock::new();
            TASKS.get_or_init(|| {
                let topo = fabric();
                let ctl = SdnController::new(&topo);
                NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        PROGRAMS
                            .iter()
                            .map(|src| {
                                let src = src.replace("IVAL", &(i + 1).to_string());
                                compile_task(name, &src, &Default::default(), &ctl).unwrap()
                            })
                            .collect()
                    })
                    .collect()
            })[name][program]
                .clone()
        }

        /// The catalog `instance_from_tasks` builds over the task table.
        fn check_catalog(seeder: &Seeder, table: &BTreeMap<usize, usize>) {
            let tasks: Vec<CompiledTask> = table.iter().map(|(&n, &p)| compiled(n, p)).collect();
            let expected =
                instance_from_tasks(&tasks.iter().collect::<Vec<_>>(), &[], None).unwrap();
            let keys: Vec<SeedKey> = tasks
                .iter()
                .flat_map(|t| {
                    t.machines.iter().enumerate().flat_map(move |(machine, m)| {
                        (0..m.seeds.len()).map(move |seed| SeedKey {
                            task: t.name.clone(),
                            machine,
                            seed,
                        })
                    })
                })
                .collect();
            let Catalog {
                keys: got,
                instance,
                seats,
            } = &seeder.catalog;
            assert_eq!(got, &keys, "keys");
            assert_eq!(seats, &table_seats(seeder), "seats");
            assert_eq!(instance.seeds, expected.seeds, "seed rows");
            // A task row's seed list is the next round's to scope.
            let names =
                |i: &PlacementInstance| i.tasks.iter().map(|t| t.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(instance), names(&expected), "task rows");
            assert_eq!(seeder.task_names(), names(&expected));
        }

        /// The seats of the catalog's keys, from a walk over the seed
        /// table beside the keys.
        fn table_seats(seeder: &Seeder) -> Seats {
            let mut table = seeder.placed.iter().peekable();
            let mut seats = Seats::default();
            for (i, key) in seeder.catalog.keys.iter().enumerate() {
                while table.next_if(|(k, _)| *k < key).is_some() {}
                if let Some((_, p)) = table.next_if(|(k, _)| *k == key) {
                    seats.insert(i, (p.switch, p.alloc));
                }
            }
            seats
        }

        fn assert_same_plan(warm: &Plan, cold: &Plan) {
            assert_eq!(warm.actions, cold.actions);
            assert_eq!(warm.held, cold.held);
            assert_eq!(warm.dropped_tasks, cold.dropped_tasks);
            assert_eq!(warm.result.assignment, cold.result.assignment);
            assert_eq!(warm.result.utility.to_bits(), cold.result.utility.to_bits());
            assert_eq!(warm.result.migrations, cold.result.migrations);
        }

        proptest! {
            /// Each step registers program `p` under a name (when the
            /// name is taken, a removal of the old task and a fresh
            /// insertion, as `Farm` replaces one) or, for `p` past the
            /// programs, removes the name; then both seeders plan over
            /// the switches the mask keeps live, and the plan is
            /// committed. Last, `lose` may evict one switch's seeds, or
            /// forget the first seed, as a crash does.
            #[test]
            fn spliced_catalog_equals_rebuilt_catalog(
                steps in proptest::collection::vec(
                    (0..NAMES.len(), 0..PROGRAMS.len() + 2, 0u8..32, 0usize..10),
                    1..16,
                ),
            ) {
                let topo = fabric();
                let all = capacities(&topo);
                let mut seeder = Seeder::new();
                let mut table = BTreeMap::new();
                for (name, program, mask, lose) in steps {
                    if program < PROGRAMS.len() {
                        seeder.register_task(compiled(name, program)).unwrap();
                        table.insert(name, program);
                    } else {
                        assert_eq!(seeder.remove_task(NAMES[name]).is_some(), table.remove(&name).is_some());
                    }
                    check_catalog(&seeder, &table);

                    let mut fresh = Seeder::new();
                    for (&n, &p) in &table {
                        fresh.register_task(compiled(n, p)).unwrap();
                    }
                    fresh.placed = seeder.placed.clone();
                    fresh.catalog.seats = table_seats(&fresh);
                    let live: Vec<_> = all
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, c)| *c)
                        .collect();
                    let plan = seeder.plan(&live);
                    assert_same_plan(&plan, &fresh.plan(&live));
                    commit_all(&mut seeder, &plan);
                    check_catalog(&seeder, &table);
                    if let Some(&(n, _)) = all.get(lose) {
                        seeder.evict_switch(n);
                    } else if lose == all.len() {
                        let first = seeder.placed.keys().next().cloned();
                        if let Some(key) = first {
                            seeder.forget(&key);
                        }
                    }
                    check_catalog(&seeder, &table);
                }
            }
        }
    }
}
