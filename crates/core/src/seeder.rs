//! The seeder: FARM's centralized M&M control instance (§ II-C b).
//!
//! The seeder compiles Almanac tasks, keeps the global catalog of
//! deployed tasks, and — whenever an input changes — re-runs placement
//! optimization over *all* co-deployed tasks, producing a plan of
//! deployments, migrations, reallocations and withdrawals that the
//! [`crate::farm::Farm`] facade executes against the soils.
//!
//! The catalog is the seed table: one row per seed of every registered
//! task, in key order, and one per task. A seed's row holds its seat,
//! the name its soil knows it by and its last known state. Rows appear
//! and vanish only in `Catalog::splice`; every other writer changes a
//! row in place.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use farm_almanac::compile::{CompiledMachine, CompiledTask};
use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_placement::build::{task_rows, Scope, TaskRows};
use farm_placement::delta::{replan_delta, DeltaReport, ReplanDelta, SolveState};
use farm_placement::heuristic::HeuristicOptions;
use farm_placement::model::{
    validate_capacity, validate_seats, LogAt, PlacementInstance, PlacementResult,
    PreviousPlacement, Seats, SwitchList,
};
use farm_soil::{SeedId, SeedSnapshot};
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
    /// µs of catalog splices and solver-memory remaps since the last
    /// round: the samples `seeder.splice_us` took (0 without telemetry).
    pub splice_us: u64,
    /// µs of the whole round, solve ([`PlacementResult::runtime`]) and
    /// commit: the sample `farm.replan_us` took. Set by `Farm::replan`.
    pub round_us: u64,
}

/// One placed seed: where it is, what it holds, and the name its soil
/// knows it by. A view of one seated catalog row, built when read.
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

/// A task's rows as a registration splices them in.
type NewTask = (TaskRows, Vec<Arc<CompiledMachine>>);

/// The task catalog and seed table: columns of seed rows, index-aligned
/// with `keys`, and columns of task rows, index-aligned with
/// `instance.tasks`. A registration splices one task's rows in, a
/// removal splices them out, and no other task's rows are touched.
#[derive(Debug, Default)]
struct Catalog {
    /// One key per seed of every registered task, in instance order
    /// (which is key order).
    keys: Vec<SeedKey>,
    /// Seeds and tasks of every registered task, as
    /// [`farm_placement::build::instance_from_tasks`] lays them out.
    /// Switches, previous placement and task scopes are the round's
    /// ([`PlacementInstance::begin_round`]).
    instance: PlacementInstance,
    /// Each seed's switch and allocation, `None` while it is not placed:
    /// the previous placement a round hands the solver as it is.
    seats: Seats,
    /// Each seed's soil-local id and whether that soil died; read only
    /// where the seed has a seat.
    ids: Vec<(SeedId, bool)>,
    /// Each seed's last known state, from its first capture (heartbeat,
    /// checkpoint, shed, import) until a newer one or the splice that
    /// takes the row out. Boxed: a row without one costs a word.
    snapshots: Vec<Option<Box<SeedSnapshot>>>,
    /// The [`farm_soil::SeedInstance::stamp`] each snapshot was captured
    /// at, 0 when there is none or it came from elsewhere (shed, import):
    /// a capture finding the live seed still at this stamp has nothing
    /// to write.
    taken_at: Vec<u64>,
    /// Each task's machines.
    machines: Vec<Vec<Arc<CompiledMachine>>>,
    /// The round the instance's task lists are scoped for; `None` until
    /// a round scopes them all.
    round: Option<Round>,
    /// Where the live list's log stood when the instance's switches last
    /// took it.
    seen: Option<LogAt>,
}

/// The catalog's round scope ([`Scope`]), kept current through every
/// splice since it was taken, and the tasks spliced in since.
#[derive(Debug)]
struct Round {
    scope: Scope,
    /// Tasks spliced in since, whose lists are still empty.
    spliced: Vec<usize>,
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

    /// `name`'s task row.
    fn task(&self, name: &str) -> Option<usize> {
        let t = self.position(name).1;
        (self.instance.tasks.get(t)?.name == name).then_some(t)
    }

    /// Seed row `i`, when the seed is placed.
    fn placed(&self, i: usize) -> Option<Placed> {
        let &(switch, alloc) = self.seats.get(&i)?;
        let (id, lost) = self.ids[i];
        Some(Placed {
            switch,
            alloc,
            id,
            lost,
        })
    }

    /// Inserts task `name` with the rows and machines of `new` at its
    /// place in key order, its seeds not placed, or, for `None`, removes
    /// task `name`: every column in the same call. Returns the old → new
    /// seed map ([`PlacementInstance::splice_task`]) and the records of
    /// the seeds spliced out, in key order.
    fn splice(&mut self, name: &str, new: Option<NewTask>) -> (Vec<Option<usize>>, Vec<Placed>) {
        debug_assert_eq!(new.is_some(), self.task(name).is_none(), "{name}");
        let (old, t) = self.position(name);
        let gone = old.clone().filter_map(|i| self.placed(i)).collect();
        let (rows, machines) = new.unzip();
        let keys: Vec<SeedKey> = (machines.iter().flatten().enumerate())
            .flat_map(|(machine, m)| (0..m.seeds.len()).map(move |seed| (machine, seed)))
            .map(|(machine, seed)| SeedKey {
                task: name.to_string(),
                machine,
                seed,
            })
            .collect();
        let added = keys.len();
        self.seats
            .splice(old.clone(), std::iter::repeat_n(None, added));
        self.ids
            .splice(old.clone(), std::iter::repeat_n((SeedId(0), false), added));
        self.snapshots
            .splice(old.clone(), std::iter::repeat_n(None, added));
        self.taken_at
            .splice(old.clone(), std::iter::repeat_n(0, added));
        self.keys.splice(old.clone(), keys);
        let inserted = machines.is_some();
        self.machines
            .splice(t..t + usize::from(!inserted), machines);
        let map = self.instance.splice_task(t, old.clone(), rows);
        if let Some(round) = &mut self.round {
            round.scope.splice(old, added, &map);
            if inserted {
                round
                    .spliced
                    .iter_mut()
                    .filter(|x| **x >= t)
                    .for_each(|x| *x += 1);
                round.spliced.push(t);
            } else {
                round.spliced.retain(|&x| x != t);
                round
                    .spliced
                    .iter_mut()
                    .filter(|x| **x > t)
                    .for_each(|x| *x -= 1);
            }
        }
        (map, gone)
    }

    /// Points the instance at this round's live switches and previous
    /// placement, and scopes its task lists. The instance's switches take
    /// the edits `live` logged since the last round, or the whole list
    /// when its log does not reach back that far. Against the last
    /// round's scope only the seeds the switches that joined or left can
    /// move ([`Scope::follow`]) and the tasks spliced in since are
    /// scoped, otherwise every task ([`PlacementInstance::begin_round`]).
    /// Returns the held seeds.
    fn begin_round(
        &mut self,
        live: &SwitchList,
        previous: Option<PreviousPlacement>,
    ) -> Vec<usize> {
        let list = &mut self.instance.switches;
        match live.changes_since(self.seen) {
            Some(ids) => ids.iter().for_each(|&n| list.set(n, live.ares(n))),
            None => *list = live.clone(),
        }
        self.seen = Some(live.log_at());
        let instance = &mut self.instance;
        if let Some(round) = &mut self.round {
            if round.scope.follow(instance).is_some() {
                instance.previous = previous;
                for t in std::mem::take(&mut round.spliced) {
                    round.scope.scope_task(instance, t);
                }
                return round.scope.held().to_vec();
            }
        }
        let held = instance.begin_round(previous);
        self.round = Scope::of(instance, held.clone()).map(|scope| Round {
            scope,
            spliced: Vec::new(),
        });
        held
    }

    /// Holds the instance's switches, with the edits `live` logged since
    /// the last round, to `live`, and the kept round scope to scoping
    /// every task again over the same switches.
    fn check_round(&self, live: Option<&SwitchList>) -> Result<(), String> {
        if let Some((live, ids)) = live.and_then(|l| Some((l, l.changes_since(self.seen)?))) {
            let mut switches = self.instance.switches.clone();
            ids.iter().for_each(|&n| switches.set(n, live.ares(n)));
            let (got, want) = (&switches[..], &live[..]);
            if got != want {
                return Err(format!("round: switches {got:?}, live {want:?}"));
            }
        }
        let Some(round) = &self.round else {
            return Ok(());
        };
        let mut fresh = self.instance.clone();
        let held = fresh.begin_round(None);
        let spliced = |s: &usize| round.spliced.contains(&self.instance.seeds[*s].task);
        let want: Vec<usize> = held.into_iter().filter(|s| !spliced(s)).collect();
        if round.scope.held() != want {
            return Err(format!(
                "round: held {:?}, scoping holds {want:?}",
                round.scope.held()
            ));
        }
        round.scope.check(&self.instance)?;
        for (t, (kept, task)) in self.instance.tasks.iter().zip(&fresh.tasks).enumerate() {
            let want: &[usize] = if round.spliced.contains(&t) {
                &[]
            } else {
                &task.seeds
            };
            if kept.seeds != want {
                return Err(format!(
                    "round: task {t} lists {:?}, scoping {want:?}",
                    kept.seeds
                ));
            }
        }
        Ok(())
    }
}

/// The seeder's task catalog and placement memory.
#[derive(Debug, Default)]
pub struct Seeder {
    /// Solver-phase timings land here when set (see [`Seeder::set_telemetry`]).
    telemetry: Option<Telemetry>,
    /// Incremental-solver memory carried between planning rounds.
    solver_state: SolveState,
    catalog: Catalog,
    /// `seeder.splice_us`: one catalog splice and the solver memory's
    /// remap, per registration or removal.
    splice_us: Option<Arc<Histogram>>,
    /// What `splice_us` sampled since the last [`Seeder::plan`].
    spliced_us: u64,
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
    /// Returns the records of the seeds spliced out.
    fn splice(&mut self, name: &str, new: Option<NewTask>) -> Vec<Placed> {
        let started = Instant::now();
        let (map, gone) = self.catalog.splice(name, new);
        self.solver_state.remap(&map);
        if let Some(h) = &self.splice_us {
            let us = started.elapsed().as_micros() as u64;
            h.record(us);
            self.spliced_us += us;
        }
        gone
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
        let machines = task.machines.into_iter().map(Arc::new).collect();
        self.splice(&name, Some((rows, machines)));
        Ok(replaced)
    }

    /// Removes a task from the catalog together with its placement
    /// memory and returns its seed records in key order, for the caller
    /// to undeploy; `None` when no task of that name is registered.
    pub(crate) fn remove_task(&mut self, name: &str) -> Option<Vec<Placed>> {
        self.catalog.task(name)?;
        // The task's seed indices vanish: the remap drops every switch
        // log and LP output that mentions them.
        Some(self.splice(name, None))
    }

    /// Whether a task of that name is registered.
    pub fn has_task(&self, name: &str) -> bool {
        self.catalog.task(name).is_some()
    }

    /// Registered task names in deterministic order.
    pub fn task_names(&self) -> Vec<String> {
        let tasks = &self.catalog.instance.tasks;
        tasks.iter().map(|r| r.name.clone()).collect()
    }

    /// The compiled machine definition behind a seed key.
    pub(crate) fn machine_of(&self, key: &SeedKey) -> Option<Arc<CompiledMachine>> {
        let t = self.catalog.task(&key.task)?;
        self.catalog.machines[t].get(key.machine).cloned()
    }

    /// All currently placed seeds with their switch and allocation, in
    /// key order.
    pub fn placements(&self) -> impl Iterator<Item = (&SeedKey, SwitchId, Resources)> {
        self.table().map(|(k, p)| (k, p.switch, p.alloc))
    }

    /// The seed table's placed seeds in key order.
    pub(crate) fn table(&self) -> impl Iterator<Item = (&SeedKey, Placed)> {
        let catalog = &self.catalog;
        (catalog.seats.iter()).filter_map(|(i, _)| Some((&catalog.keys[i], catalog.placed(i)?)))
    }

    /// Number of placed seeds.
    pub(crate) fn deployed_seeds(&self) -> usize {
        self.catalog.seats.len()
    }

    /// One placed seed's record.
    pub(crate) fn placed(&self, key: &SeedKey) -> Option<Placed> {
        let i = self.catalog.keys.binary_search(key).ok()?;
        self.catalog.placed(i)
    }

    /// The live seed a soil knows as `id` on `switch` (a soil reports
    /// what it shed by its own ids).
    pub(crate) fn key_of(&self, switch: SwitchId, id: SeedId) -> Option<&SeedKey> {
        self.table()
            .find(|(_, p)| p.switch == switch && p.id == id && !p.lost)
            .map(|(k, _)| k)
    }

    /// Offers every placed seed to `capture` in key order, with the stamp
    /// its row's snapshot was taken at (0 for none) and the snapshot to
    /// write over (a default one if the row has none yet). `capture`
    /// returns whether the row now holds the seed's state, having
    /// written it and its stamp or found the stamp unmoved; a row it
    /// declines keeps what it had. Returns how many it stored.
    pub(crate) fn store_snapshots(
        &mut self,
        mut capture: impl FnMut(&SeedKey, Placed, &mut u64, &mut SeedSnapshot) -> bool,
    ) -> usize {
        let c = &mut self.catalog;
        let mut stored = 0;
        for i in 0..c.keys.len() {
            let Some(placed) = c.placed(i) else {
                continue;
            };
            let fresh = c.snapshots[i].is_none();
            let snap = c.snapshots[i].get_or_insert_with(Box::default);
            if capture(&c.keys[i], placed, &mut c.taken_at[i], snap) {
                stored += 1;
            } else if fresh {
                c.snapshots[i] = None;
                c.taken_at[i] = 0;
            }
        }
        stored
    }

    /// Stores `snap` as `key`'s snapshot, placed or not, taken at no
    /// stamp: the next capture writes over it whatever the seed did.
    /// `false` when no registered task has that seed.
    pub(crate) fn set_snapshot(&mut self, key: &SeedKey, snap: SeedSnapshot) -> bool {
        let Ok(i) = self.catalog.keys.binary_search(key) else {
            return false;
        };
        **self.catalog.snapshots[i].get_or_insert_with(Box::default) = snap;
        self.catalog.taken_at[i] = 0;
        true
    }

    /// `key`'s stored snapshot.
    pub(crate) fn snapshot(&self, key: &SeedKey) -> Option<&SeedSnapshot> {
        let i = self.catalog.keys.binary_search(key).ok()?;
        self.catalog.snapshots[i].as_deref()
    }

    /// Every stored snapshot as a portable entry, sorted by the key's
    /// display form, which is not key order: `w4-x/m0/s0` sorts before
    /// `w4/m0/s0`, and `s10` before `s2`.
    pub(crate) fn export_snapshots(&self) -> Vec<(SeedKey, SeedSnapshot)> {
        let rows = self.catalog.keys.iter().zip(&self.catalog.snapshots);
        let mut out: Vec<(SeedKey, SeedSnapshot)> = rows
            .filter_map(|(k, s)| Some((k.clone(), s.as_deref()?.clone())))
            .collect();
        out.sort_by_cached_key(|(k, _)| k.to_string());
        out
    }

    /// The soil on `switch` died: every row there keeps its seat — the
    /// detector has not fired yet, the planner still counts the seed as
    /// resident — but its id is void.
    pub(crate) fn soil_lost(&mut self, switch: SwitchId) {
        let Catalog { seats, ids, .. } = &mut self.catalog;
        for (i, _) in seats.iter().filter(|(_, seat)| seat.0 == switch) {
            ids[i].1 = true;
        }
    }

    /// The seeder's part of [`crate::farm::Farm::audit`]: its switches to
    /// the farm's kept `live` list, if there is one, the kept round
    /// scope to scoping every task again, what the solver memory keeps to
    /// its recomputation ([`SolveState::audit`]), and every seat on a
    /// candidate, inside its seed's utility domain (C2). C1 and C3/C4 are
    /// the solver's alone: between rounds a committed placement is
    /// partial while evicted seeds wait for recovery, and a landed
    /// recovery does not apply its round's other actions.
    pub(crate) fn audit(&self, live: Option<&SwitchList>, findings: &mut Vec<String>) {
        let Catalog {
            instance, seats, ..
        } = &self.catalog;
        let mut found = |what: &str, r: Result<(), String>| {
            if let Err(e) = r {
                findings.push(format!("{what}: {e}"));
            }
        };
        found("seeder", self.catalog.check_round(live));
        found("solver", self.solver_state.audit(instance, Some(seats)));
        let seated: Vec<_> = (0..instance.seeds.len())
            .map(|s| seats.get(&s).copied())
            .collect();
        found("placement", validate_seats(instance, &seated));
        found("placement", validate_capacity(instance, &seated, None));
    }

    /// Runs global placement over every registered task and diffs the
    /// result against the current deployment. Planning is incremental
    /// through the retained [`SolveState`]: the result is bit-identical
    /// to a from-scratch solve, reuse only buys time. A seed with no
    /// live candidate holds its seat ([`Plan::held`]): it neither drops
    /// its task nor appears in the actions.
    pub(crate) fn plan(&mut self, live: &SwitchList) -> Plan {
        // The catalog's seats are the previous placement: they go to the
        // round as they are, and come back after the diff.
        let seats = &mut self.catalog.seats;
        let previous = (!seats.is_empty()).then(|| PreviousPlacement {
            assignment: std::mem::take(seats),
        });
        let held = self.catalog.begin_round(live, previous);
        let Catalog {
            keys,
            instance,
            seats,
            ..
        } = &mut self.catalog;
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
            splice_us: std::mem::take(&mut self.spliced_us),
            round_us: 0,
        }
    }

    /// Takes the seat of every seed on `switch` (the switch crashed or
    /// was declared failed) and returns their keys, with the id the lost
    /// soil knew each by, in key order. The next [`Seeder::plan`] sees
    /// those seeds as unplaced and proposes fresh deployments for them.
    pub(crate) fn evict_switch(&mut self, switch: SwitchId) -> Vec<(SeedKey, SeedId)> {
        let evicted: Vec<(SeedKey, SeedId)> = (self.table())
            .filter(|(_, p)| p.switch == switch)
            .map(|(k, p)| (k.clone(), p.id))
            .collect();
        for (key, _) in &evicted {
            self.forget(key);
        }
        evicted
    }

    /// Takes the seat of a single seed (e.g. shed under resource
    /// pressure). Returns the id its soil knew it by, `None` for a seed
    /// that is not placed.
    pub(crate) fn forget(&mut self, key: &SeedKey) -> Option<SeedId> {
        let i = self.catalog.keys.binary_search(key).ok()?;
        self.catalog.seats.remove(&i)?;
        Some(self.catalog.ids[i].0)
    }

    /// Records that a planned action was executed: writes the one row it
    /// changed. `planted` is the id the target soil handed back for the
    /// seed a `Deploy` or `Migrate` put there; the other actions plant
    /// nothing and ignore it.
    ///
    /// # Panics
    ///
    /// Panics when a `Deploy` or `Migrate` is committed without an id.
    pub(crate) fn commit(&mut self, action: &PlannedAction, planted: Option<SeedId>) {
        let (PlannedAction::Deploy { key, .. }
        | PlannedAction::Migrate { key, .. }
        | PlannedAction::Realloc { key, .. }
        | PlannedAction::Undeploy { key, .. }) = action;
        let Ok(i) = self.catalog.keys.binary_search(key) else {
            return;
        };
        let Catalog { seats, ids, .. } = &mut self.catalog;
        match action {
            PlannedAction::Deploy { to, alloc, .. } | PlannedAction::Migrate { to, alloc, .. } => {
                let id = planted.expect("a planted seed commits with its soil-local id");
                seats.insert(i, (*to, *alloc));
                ids[i] = (id, false);
            }
            PlannedAction::Realloc { alloc, .. } => {
                if let Some(&(switch, _)) = seats.get(&i) {
                    seats.insert(i, (switch, *alloc));
                }
            }
            PlannedAction::Undeploy { .. } => {
                seats.remove(&i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::tests::fabric;
    use farm_almanac::compile::compile_task;
    use farm_netsim::controller::SdnController;
    use farm_netsim::topology::Topology;

    /// Commits a whole plan the way the farm does, minus the soils: ids
    /// are made up, one per action.
    fn commit_all(seeder: &mut Seeder, plan: &Plan) {
        for (i, a) in plan.actions.iter().enumerate() {
            seeder.commit(a, Some(SeedId(i as u64)));
        }
    }

    fn capacities(topo: &Topology) -> SwitchList {
        let switches = topo.switches().iter();
        SwitchList::from(
            switches
                .map(|n| (n.id, n.model.total_resources()))
                .collect::<Vec<_>>(),
        )
    }

    fn deploys(plan: &Plan) -> usize {
        let deploy = |a: &&PlannedAction| matches!(a, PlannedAction::Deploy { .. });
        plan.actions.iter().filter(deploy).count()
    }

    /// A seeder holding the heavy-hitter task as "hh", and the fabric's
    /// switches to plan over.
    fn hh_seeder() -> (Seeder, SwitchList) {
        let topo = fabric();
        let hh = farm_almanac::programs::HEAVY_HITTER;
        let task = compile_task("hh", hh, &Default::default(), &SdnController::new(&topo));
        let mut seeder = Seeder::new();
        seeder.register_task(task.unwrap()).unwrap();
        (seeder, capacities(&topo))
    }

    #[test]
    fn first_plan_deploys_every_seed() {
        let (mut seeder, caps) = hh_seeder();
        let plan = seeder.plan(&caps);
        assert_eq!(plan.actions.len(), 5);
        assert_eq!(deploys(&plan), 5);
        commit_all(&mut seeder, &plan);
        assert_eq!(seeder.placements().count(), 5);
    }

    #[test]
    fn replanning_unchanged_world_is_a_noop() {
        let (mut seeder, caps) = hh_seeder();
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
        let (mut seeder, caps) = hh_seeder();
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
        let (mut seeder, caps) = hh_seeder();
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
        assert_eq!(deploys(&seeder.plan(&caps)), evicted.len());
    }

    #[test]
    fn a_lost_soils_rows_keep_their_seats_but_answer_to_no_id() {
        let (mut seeder, caps) = hh_seeder();
        let plan = seeder.plan(&caps);
        commit_all(&mut seeder, &plan);
        let victim = seeder.placements().next().unwrap().1;
        let rows: Vec<(SeedKey, SeedId)> = (seeder.table())
            .filter(|(_, p)| p.switch == victim)
            .map(|(k, p)| (k.clone(), p.id))
            .collect();
        assert!(!rows.is_empty());
        let (other, p) = seeder.table().find(|(_, p)| p.switch != victim).unwrap();
        let other = other.clone();

        seeder.soil_lost(victim);
        for (_, id) in &rows {
            assert_eq!(seeder.key_of(victim, *id), None, "a lost id names no seed");
        }
        assert_eq!(seeder.key_of(p.switch, p.id), Some(&other));
        // Still residents: the round deploys nothing in their place.
        let plan = seeder.plan(&caps);
        assert_eq!(deploys(&plan), 0, "{:?}", plan.actions);
        assert_eq!(seeder.evict_switch(victim), rows);
    }

    #[test]
    fn warm_replans_reuse_the_solver_memo() {
        let (mut seeder, caps) = hh_seeder();
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
        let (mut seeder, caps) = hh_seeder();
        let (topo, src) = (fabric(), farm_almanac::programs::TRAFFIC_CHANGE);
        let ctl = SdnController::new(&topo);
        let task = compile_task("traffic-change", src, &Default::default(), &ctl);
        seeder.register_task(task.unwrap()).unwrap();
        let plan = seeder.plan(&caps);
        // Both `place all` tasks: 5 + 5 deployments.
        assert_eq!(plan.actions.len(), 10);
        assert!(plan.dropped_tasks.is_empty());
    }

    /// The splice keeps the catalog equal to a rebuild and the seed
    /// table equal to a model of it, and the remapped solver memory
    /// plans as a fresh seeder does.
    mod catalog_property {
        use super::*;
        use farm_placement::build::instance_from_tasks;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::sync::OnceLock;

        /// Names that land before, between and after one another,
        /// prefixes included; `w4-x` sorts after `w4` as a key and
        /// before it in display form.
        const NAMES: [&str; 7] = ["a", "w4", "w4-x", "w40", "w41", "w5", "z"];

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

        /// What the seed table should hold: each placed seed's switch,
        /// allocation and soil-local id, kept from the plans committed,
        /// the records handed back and the seats evicted or forgotten.
        type Model = BTreeMap<SeedKey, (SwitchId, Resources, SeedId)>;

        /// What the snapshot columns should hold: every snapshot written
        /// since its task was registered, and the stamp it was taken at
        /// (0 for an import).
        type Snapshots = BTreeMap<SeedKey, (SeedSnapshot, u64)>;

        /// Every key's machine, the catalog `instance_from_tasks` builds
        /// over the task table, the seed table the model holds, and the
        /// snapshot column `snaps` holds.
        fn check_catalog(
            seeder: &Seeder,
            table: &BTreeMap<usize, usize>,
            model: &Model,
            snaps: &Snapshots,
        ) {
            let tasks: Vec<CompiledTask> = table.iter().map(|(&n, &p)| compiled(n, p)).collect();
            let expected =
                instance_from_tasks(&tasks.iter().collect::<Vec<_>>(), &[], None).unwrap();
            let mut keys = Vec::new();
            for t in &tasks {
                for (machine, m) in t.machines.iter().enumerate() {
                    for seed in 0..m.seeds.len() {
                        let task = t.name.clone();
                        let key = SeedKey {
                            task,
                            machine,
                            seed,
                        };
                        let got = seeder.machine_of(&key).expect("every key has a machine");
                        assert!(Arc::ptr_eq(&got.lowered, &m.lowered), "{key}'s machine");
                        keys.push(key);
                    }
                }
            }
            let (got, instance) = (&seeder.catalog.keys, &seeder.catalog.instance);
            assert_eq!(got, &keys, "keys");
            assert_eq!(instance.seeds, expected.seeds, "seed rows");
            // A task row's seed list is the next round's to scope.
            let names: Vec<_> = expected.tasks.iter().map(|t| t.name.clone()).collect();
            assert_eq!(seeder.task_names(), names, "task rows");

            let placed: Model = (seeder.table())
                .map(|(k, p)| (k.clone(), (p.switch, p.alloc, p.id)))
                .collect();
            assert_eq!(&placed, model, "seed table");
            assert!(
                (seeder.placements()).eq(model.iter().map(|(k, &(n, a, _))| (k, n, a))),
                "placements"
            );
            assert_eq!(seeder.deployed_seeds(), model.len());

            assert_eq!(seeder.catalog.snapshots.len(), keys.len(), "snapshot rows");
            let taken_at: Vec<u64> = (keys.iter())
                .map(|k| snaps.get(k).map_or(0, |(_, at)| *at))
                .collect();
            assert_eq!(seeder.catalog.taken_at, taken_at, "snapshot stamps");
            let mut want: Vec<(SeedKey, SeedSnapshot)> = (snaps.clone().into_iter())
                .map(|(k, (s, _))| (k, s))
                .collect();
            want.sort_by_key(|(k, _)| k.to_string());
            assert_eq!(
                seeder.export_snapshots(),
                want,
                "snapshot column, in display order"
            );
        }

        /// [`commit_all`], and the same plan written into the model.
        fn commit(seeder: &mut Seeder, model: &mut Model, plan: &Plan) {
            for (i, a) in plan.actions.iter().enumerate() {
                seeder.commit(a, Some(SeedId(i as u64)));
                match a {
                    PlannedAction::Deploy { key, to, alloc }
                    | PlannedAction::Migrate { key, to, alloc, .. } => {
                        model.insert(key.clone(), (*to, *alloc, SeedId(i as u64)));
                    }
                    PlannedAction::Realloc { key, alloc } => {
                        if let Some(row) = model.get_mut(key) {
                            row.1 = *alloc;
                        }
                    }
                    PlannedAction::Undeploy { key, .. } => {
                        model.remove(key);
                    }
                }
            }
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
            /// committed. Then `lose` may evict one switch's seeds, or
            /// forget the first seed, as a crash does. Last, `write`
            /// may store a snapshot for one placed seed, as a heartbeat
            /// does, or import one for the first key of the name `lose`
            /// picks (a row written before, or a name not registered).
            #[test]
            fn spliced_catalog_equals_rebuilt_catalog(
                steps in proptest::collection::vec(
                    (0..NAMES.len(), 0..PROGRAMS.len() + 2, 0u8..32, 0usize..10, 0usize..12),
                    1..16,
                ),
            ) {
                let topo = fabric();
                let all = capacities(&topo);
                // One list, set entry by entry: the catalog reads its log.
                let mut live = SwitchList::default();
                let mut seeder = Seeder::new();
                let mut table = BTreeMap::new();
                let mut model = Model::new();
                let mut snaps = Snapshots::new();
                for (step, (name, program, mask, lose, write)) in steps.into_iter().enumerate() {
                    let (gone, had) = if program < PROGRAMS.len() {
                        let gone = seeder.register_task(compiled(name, program)).unwrap();
                        (gone, table.insert(name, program))
                    } else {
                        (seeder.remove_task(NAMES[name]), table.remove(&name))
                    };
                    assert_eq!(gone.is_some(), had.is_some());
                    // The records handed back are the task's, in key order.
                    let records = gone.unwrap_or_default().into_iter().map(|p| (p.switch, p.alloc, p.id));
                    let (out, kept): (Model, Model) = std::mem::take(&mut model)
                        .into_iter()
                        .partition(|(k, _)| k.task == NAMES[name]);
                    model = kept;
                    assert!(records.eq(out.into_values()));
                    snaps.retain(|k, _| k.task != NAMES[name]);
                    check_catalog(&seeder, &table, &model, &snaps);

                    let mut fresh = Seeder::new();
                    for (&n, &p) in &table {
                        fresh.register_task(compiled(n, p)).unwrap();
                    }
                    for (key, &(to, alloc, id)) in &model {
                        let key = key.clone();
                        fresh.commit(&PlannedAction::Deploy { key, to, alloc }, Some(id));
                    }
                    for (i, &(n, c)) in all.iter().enumerate() {
                        live.set(n, (mask & (1 << i) != 0).then_some(c));
                    }
                    let plan = seeder.plan(&live);
                    assert_same_plan(&plan, &fresh.plan(&live));
                    commit(&mut seeder, &mut model, &plan);
                    check_catalog(&seeder, &table, &model, &snaps);
                    if let Some(&(n, _)) = all.get(lose) {
                        let here: Vec<_> = (model.iter())
                            .filter(|(_, row)| row.0 == n)
                            .map(|(k, row)| (k.clone(), row.2))
                            .collect();
                        model.retain(|_, row| row.0 != n);
                        assert_eq!(seeder.evict_switch(n), here);
                    } else if lose == all.len() {
                        let first = model.keys().next().cloned();
                        if let Some(key) = first {
                            assert_eq!(seeder.forget(&key), model.remove(&key).map(|row| row.2));
                        }
                    }
                    let machine = format!("step {step}");
                    let snap = SeedSnapshot { machine, ..SeedSnapshot::default() };
                    let stamp = step as u64 + 1;
                    if let Some(key) = model.keys().nth(write).cloned() {
                        let stored = seeder.store_snapshots(|k, _, at, out| {
                            let write = *k == key;
                            if write {
                                out.clone_from(&snap);
                                *at = stamp;
                            }
                            write
                        });
                        assert_eq!(stored, 1);
                        snaps.insert(key, (snap, stamp));
                    } else if write == 11 {
                        let name = lose % NAMES.len();
                        let key = SeedKey { task: NAMES[name].into(), machine: 0, seed: 0 };
                        let registered = table.contains_key(&name);
                        assert_eq!(seeder.set_snapshot(&key, snap.clone()), registered);
                        if registered {
                            snaps.insert(key, (snap, 0));
                        }
                    }
                    check_catalog(&seeder, &table, &model, &snaps);
                }
            }
        }
    }
}
