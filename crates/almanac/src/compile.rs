//! The seeder's compilation front-end: Almanac source → deployable,
//! analyzed machine definitions.
//!
//! Mirrors § III-B of the paper: a network operator supplies a task as a
//! set of machines plus values for each machine's `external` variables.
//! The seeder then (1) resolves `place` directives into seeds `S^m` with
//! candidate sets `N^s`, (2) analyzes `util` into constraints `C^s` and
//! utility `u^s`, and (3) derives poll variables' interval functions and
//! subjects for aggregation.

use std::collections::BTreeMap;
use std::sync::Arc;

use farm_netsim::controller::SdnController;

use crate::analysis::{
    analyze_trigger, analyze_util, const_eval, resolve_placements, ConstEnv, SeedSpec,
    TriggerAnalysis, UtilAnalysis,
};
use crate::ast::{Machine, Program, VarDecl};
use crate::error::{AlmanacError, Result};
use crate::lower::{lower, LoweredMachine};
use crate::parser;
use crate::typeck;
use crate::value::{fit, refusal, Value};

/// Utility assumed for states without a `util` callback.
pub(crate) const DEFAULT_UTILITY: f64 = 1.0;

/// A fully compiled and analyzed machine, ready for placement and
/// deployment.
#[derive(Debug, Clone)]
pub struct CompiledMachine {
    /// Flattened, type-checked machine definition.
    pub machine: Machine,
    /// The machine and the auxiliary functions visible to it as the flat
    /// register code the seed VM runs (shared, so cloning a compiled
    /// machine does not copy its code).
    pub lowered: Arc<LoweredMachine>,
    /// Deployment-time constants: externals plus const initializers.
    pub consts: ConstEnv,
    /// Per-state utility analysis (`C^s`, `u^s`).
    pub(crate) utils: BTreeMap<String, UtilAnalysis>,
    /// Trigger variable analyses (poll/probe/time).
    pub triggers: Vec<TriggerAnalysis>,
    /// The seeds this machine instantiates and where each may go.
    pub seeds: Vec<SeedSpec>,
    /// Name of the initial state (the first declared state).
    pub initial_state: String,
}

impl CompiledMachine {
    /// Utility analysis of a state (default constant for states without
    /// `util`).
    pub fn util_of(&self, state: &str) -> UtilAnalysis {
        self.utils
            .get(state)
            .cloned()
            .unwrap_or_else(|| UtilAnalysis::constant(DEFAULT_UTILITY))
    }
}

/// A compiled M&M task: one or more machines deployed together.
#[derive(Debug, Clone)]
pub struct CompiledTask {
    pub name: String,
    pub machines: Vec<CompiledMachine>,
}

impl CompiledTask {
    /// Total number of seeds across machines (`|S^t|`).
    pub fn num_seeds(&self) -> usize {
        self.machines.iter().map(|m| m.seeds.len()).sum()
    }
}

/// Parses and type-checks a program (inheritance flattened).
///
/// # Errors
///
/// Any lex/parse/typecheck error with its source span.
pub fn frontend(src: &str) -> Result<Program> {
    let ast = parser::parse(src)?;
    typeck::check(&ast)
}

/// Compiles one machine of a checked program with the given `external`
/// assignments.
///
/// # Errors
///
/// Analysis errors (missing externals, non-constant placement filters,
/// non-linear utilities/intervals, unresolvable placements).
pub fn compile_machine(
    program: &Program,
    machine_name: &str,
    externals: &ConstEnv,
    controller: &SdnController<'_>,
) -> Result<CompiledMachine> {
    let machine = program
        .machine(machine_name)
        .ok_or_else(|| {
            AlmanacError::analysis(
                Default::default(),
                format!("unknown machine `{machine_name}`"),
            )
        })?
        .clone();

    // Build the constant environment: externals take precedence, then
    // constant initializers evaluated in declaration order. Each is
    // stored as the variable's declared type takes it.
    let mut consts = ConstEnv::new();
    let typed = |v: &VarDecl, val: Value| -> Result<Value> {
        let ty = v.declared_type();
        fit(val, ty).map_err(|val| {
            AlmanacError::analysis(
                v.span,
                format!("{} of `{}`", refusal(&val, ty, &v.name), machine.name),
            )
        })
    };
    for v in &machine.vars {
        if v.external {
            match externals.get(&v.name) {
                Some(val) => {
                    consts.insert(v.name.clone(), typed(v, val.clone())?);
                }
                None => match &v.init {
                    Some(init) => {
                        let val = const_eval(init, &consts)?;
                        consts.insert(v.name.clone(), typed(v, val)?);
                    }
                    None => {
                        return Err(AlmanacError::analysis(
                            v.span,
                            format!(
                                "external variable `{}` of `{}` has no value and no default",
                                v.name, machine.name
                            ),
                        ))
                    }
                },
            }
        } else if v.trigger().is_none() {
            if let Some(init) = &v.init {
                // A machine variable starts at its initialiser's value,
                // so that value must be known at deployment.
                let val = const_eval(init, &consts).map_err(|e| {
                    AlmanacError::analysis(
                        v.span,
                        format!(
                            "variable `{}` of `{}` needs a constant initialiser: {}",
                            v.name, machine.name, e.message
                        ),
                    )
                })?;
                consts.insert(v.name.clone(), typed(v, val)?);
            }
        }
    }
    // Reject unknown externals early (typo protection).
    for name in externals.keys() {
        let known = machine.vars.iter().any(|v| v.external && v.name == *name);
        if !known {
            return Err(AlmanacError::analysis(
                machine.span,
                format!("`{}` has no external variable `{name}`", machine.name),
            ));
        }
    }

    let seeds = resolve_placements(&machine, &consts, controller)?;

    let mut utils = BTreeMap::new();
    for s in &machine.states {
        if let Some(u) = &s.util {
            utils.insert(s.name.clone(), analyze_util(u, &consts)?);
        }
    }

    let mut triggers = Vec::new();
    for v in machine.trigger_vars() {
        triggers.push(analyze_trigger(v, &consts)?);
    }

    let initial_state = machine.states[0].name.clone();
    Ok(CompiledMachine {
        lowered: Arc::new(lower(&machine, &program.functions, &consts)),
        consts,
        utils,
        triggers,
        seeds,
        initial_state,
        machine,
    })
}

/// Compiles a whole task: every machine of `src`, with per-machine
/// external assignments.
///
/// # Errors
///
/// See [`frontend`] and [`compile_machine`].
pub fn compile_task(
    task_name: &str,
    src: &str,
    externals: &BTreeMap<String, ConstEnv>,
    controller: &SdnController<'_>,
) -> Result<CompiledTask> {
    let program = frontend(src)?;
    let empty = ConstEnv::new();
    let mut machines = Vec::new();
    for m in &program.machines {
        let ext = externals.get(&m.name).unwrap_or(&empty);
        machines.push(compile_machine(&program, &m.name, ext, controller)?);
    }
    Ok(CompiledTask {
        name: task_name.to_string(),
        machines,
    })
}

/// One compile error attributed to a machine (or to the whole program).
#[derive(Debug, Clone)]
pub struct MachineDiagnostic {
    /// Machine the error belongs to; empty for whole-program failures
    /// (lex, parse, typecheck), which precede machine boundaries.
    pub machine: String,
    pub error: AlmanacError,
}

/// Outcome of [`compile_task_with_diagnostics`]: the compiled task when
/// every machine compiled, else `None` plus everything that went wrong.
#[derive(Debug)]
pub struct CompileReport {
    pub task: Option<CompiledTask>,
    pub diagnostics: Vec<MachineDiagnostic>,
}

/// Like [`compile_task`], but keeps going past a failing machine so a
/// submission surface (farmd's `SubmitProgram`) can report *all* broken
/// machines in one round instead of one error per round-trip. Frontend
/// failures still end the compile — there is no program to walk.
pub fn compile_task_with_diagnostics(
    task_name: &str,
    src: &str,
    externals: &BTreeMap<String, ConstEnv>,
    controller: &SdnController<'_>,
) -> CompileReport {
    let program = match frontend(src) {
        Ok(p) => p,
        Err(error) => {
            return CompileReport {
                task: None,
                diagnostics: vec![MachineDiagnostic {
                    machine: String::new(),
                    error,
                }],
            }
        }
    };
    let empty = ConstEnv::new();
    let mut machines = Vec::new();
    let mut diagnostics = Vec::new();
    for m in &program.machines {
        let ext = externals.get(&m.name).unwrap_or(&empty);
        match compile_machine(&program, &m.name, ext, controller) {
            Ok(cm) => machines.push(cm),
            Err(error) => diagnostics.push(MachineDiagnostic {
                machine: m.name.clone(),
                error,
            }),
        }
    }
    let task = if diagnostics.is_empty() {
        Some(CompiledTask {
            name: task_name.to_string(),
            machines,
        })
    } else {
        None
    };
    CompileReport { task, diagnostics }
}

/// Convenience: an external-assignment environment from `(name, value)`
/// pairs.
pub fn externals(pairs: &[(&str, Value)]) -> ConstEnv {
    pairs
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Type;
    use crate::lower::{from_word, Place};
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;

    fn fabric() -> Topology {
        Topology::spine_leaf(2, 3, SwitchModel::test_model(8), SwitchModel::test_model(8))
    }

    const HH: &str = r#"
        machine HH {
          place all;
          poll pollStats = Poll { .ival = 10/res().PCIe, .what = port ANY };
          external long threshold = 1000;
          list hitters;
          state observe {
            util (res) {
              if (res.vCPU >= 1 and res.RAM >= 100) then {
                return min(res.vCPU, res.PCIe);
              }
            }
            when (pollStats as stats) do { transit HHdetected; }
          }
          state HHdetected {
            util (res) { return 100; }
            when (enter) do { send hitters to harvester; transit observe; }
          }
          when (recv long newTh from harvester) do { threshold = newTh; }
        }
    "#;

    #[test]
    fn compiles_hh_end_to_end() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(HH).unwrap();
        let cm = compile_machine(
            &program,
            "HH",
            &externals(&[("threshold", Value::Int(5000))]),
            &ctl,
        )
        .unwrap();
        assert_eq!(cm.seeds.len(), 5, "place all on 5 switches");
        assert_eq!(cm.initial_state, "observe");
        assert_eq!(cm.consts.get("threshold"), Some(&Value::Int(5000)));
        assert_eq!(cm.triggers.len(), 1);
        assert_eq!(cm.utils.len(), 2);
        // min utility of observe: min(vCPU, PCIe) at vCPU=1, RAM=100 → 0
        // (PCIe unconstrained at 0).
        let (_, u) = cm.util_of("observe").min_feasible().unwrap();
        assert_eq!(u, 0.0);
    }

    #[test]
    fn a_machine_variable_with_a_runtime_initialiser_is_refused() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program =
            frontend("machine Late { place any; long x = now() + 5; state s { } }").unwrap();
        let err = compile_machine(&program, "Late", &ConstEnv::new(), &ctl).unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Analysis);
        assert!(
            err.message
                .contains("variable `x` of `Late` needs a constant initialiser"),
            "{err}"
        );
    }

    #[test]
    fn default_external_value_is_used() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(HH).unwrap();
        let cm = compile_machine(&program, "HH", &ConstEnv::new(), &ctl).unwrap();
        assert_eq!(cm.consts.get("threshold"), Some(&Value::Int(1000)));
    }

    #[test]
    fn unknown_external_is_rejected() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(HH).unwrap();
        let err = compile_machine(
            &program,
            "HH",
            &externals(&[("thresold", Value::Int(1))]), // typo
            &ctl,
        )
        .unwrap_err();
        assert!(err.message.contains("no external variable"), "{err}");
    }

    #[test]
    fn externals_are_stored_as_their_declared_types_take_them() {
        let src = r#"
            machine M {
              place any;
              external long limit = 1;
              external float factor = 2;
              float half = factor / 4;
              state s { }
            }
        "#;
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(src).unwrap();
        let err = compile_machine(
            &program,
            "M",
            &externals(&[("limit", Value::Str("ten".into()))]),
            &ctl,
        )
        .unwrap_err();
        assert_eq!(err.message, "cannot store string in long `limit` of `M`");
        // An int is widened into a `float`, the default as well as a
        // deployment's value, before a later initialiser reads it.
        let cm = compile_machine(&program, "M", &ConstEnv::new(), &ctl).unwrap();
        assert_eq!(cm.consts.get("factor"), Some(&Value::Float(2.0)));
        assert_eq!(cm.consts.get("half"), Some(&Value::Float(0.5)));
        let ext = externals(&[("factor", Value::Int(3))]);
        let cm = compile_machine(&program, "M", &ext, &ctl).unwrap();
        assert_eq!(cm.consts.get("factor"), Some(&Value::Float(3.0)));
        let slot = cm.lowered.global_slot("factor").unwrap();
        let Place::Word(word) = cm.lowered.places[slot] else {
            panic!("a float in a value slot");
        };
        let word = cm.lowered.init_words[word as usize];
        assert_eq!(from_word(word, Type::Float), Value::Float(3.0));
    }

    #[test]
    fn missing_external_without_default_fails() {
        let src = r#"
            machine M {
              place any;
              external long must_be_set;
              state s { }
            }
        "#;
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(src).unwrap();
        let err = compile_machine(&program, "M", &ConstEnv::new(), &ctl).unwrap_err();
        assert!(err.message.contains("no value and no default"), "{err}");
    }

    #[test]
    fn task_aggregates_machines() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let task = compile_task("hh-task", HH, &BTreeMap::new(), &ctl).unwrap();
        assert_eq!(task.machines.len(), 1);
        assert_eq!(task.num_seeds(), 5);
    }

    #[test]
    fn diagnostics_compile_reports_every_broken_machine() {
        // Two broken machines (missing externals) and one good one: the
        // report must name both failures, not stop at the first.
        let src = r#"
            machine A { place any; external long a; state s { } }
            machine B { place any; state s { } }
            machine C { place any; external long c; state s { } }
        "#;
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let report = compile_task_with_diagnostics("t", src, &BTreeMap::new(), &ctl);
        assert!(report.task.is_none());
        let machines: Vec<&str> = report
            .diagnostics
            .iter()
            .map(|d| d.machine.as_str())
            .collect();
        assert_eq!(machines, ["A", "C"]);
        for d in &report.diagnostics {
            assert!(d.error.message.contains("no value and no default"));
        }
    }

    #[test]
    fn diagnostics_compile_succeeds_like_compile_task() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let report = compile_task_with_diagnostics("hh-task", HH, &BTreeMap::new(), &ctl);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.task.unwrap().num_seeds(), 5);
    }

    #[test]
    fn diagnostics_compile_surfaces_frontend_errors() {
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let report = compile_task_with_diagnostics("t", "machine { nope", &BTreeMap::new(), &ctl);
        assert!(report.task.is_none());
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.diagnostics[0].machine.is_empty());
    }

    #[test]
    fn states_without_util_get_default_utility() {
        let src = "machine M { place any; state s { } }";
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let program = frontend(src).unwrap();
        let cm = compile_machine(&program, "M", &ConstEnv::new(), &ctl).unwrap();
        let u = cm.util_of("s");
        assert_eq!(
            u.eval(&farm_netsim::switch::Resources::ZERO),
            Some(DEFAULT_UTILITY)
        );
    }

    /// A one-machine task whose `util` returns `expr`, with `body` as
    /// the statements of its `enter` handler.
    fn nested(expr: &str, body: &str) -> String {
        format!(
            "machine M {{ place any; poll p = Poll {{ .ival = 10, .what = port ANY }};
               state s {{ util (res) {{ return {expr}; }}
                 when (enter) do {{ {body} }} }} }}"
        )
    }

    #[test]
    fn every_shape_of_nesting_stops_at_the_limit_and_compiles_below_it() {
        use crate::error::Phase;
        use crate::parser::MAX_NESTING;
        // Each shape nested `n` deep, each step of it the given number of
        // levels (a right operand is a binary node and a parenthesis, an
        // argument a call and an expression). The deepest the parser takes of it
        // compiles whole and drops on a 2 MiB thread (a daemon's core);
        // one level more, and a thousand and a hundred thousand, are a
        // parse error with a position.
        type Shape = (&'static str, usize, fn(usize) -> String);
        let shapes: [Shape; 8] = [
            ("parens", 1, |n| {
                nested(&format!("{}1{}", "(".repeat(n), ")".repeat(n)), "")
            }),
            ("negations", 1, |n| {
                nested(&format!("{}1", "- ".repeat(n)), "")
            }),
            ("left chain", 1, |n| {
                nested(&vec!["1"; n + 1].join(" + "), "")
            }),
            ("right chain", 2, |n| {
                nested(&format!("{}1{}", "1 + (".repeat(n), ")".repeat(n)), "")
            }),
            ("calls", 2, |n| {
                nested(&format!("{}1{}", "min(1, ".repeat(n), ")".repeat(n)), "")
            }),
            ("fields", 1, |n| {
                nested(&format!("res{}", ".vCPU".repeat(n)), "")
            }),
            ("ifs", 1, |n| {
                let open = "if (true) then { ".repeat(n);
                nested("1", &format!("{open}transit s;{}", " }".repeat(n)))
            }),
            ("else ifs", 1, |n| {
                nested(
                    "1",
                    &format!(
                        "{} transit s; }}",
                        "if (true) then { } else ".repeat(n) + "{"
                    ),
                )
            }),
        ];
        let topo = fabric();
        let ctl = SdnController::new(&topo);
        let compile = |src: &str| compile_task("t", src, &BTreeMap::new(), &ctl).map(|_| ());
        for (shape, step, build) in shapes {
            let parses = |n: usize| parser::parse(&build(n)).is_ok();
            assert!(
                frontend(&build(1)).is_ok(),
                "{shape}: {:?}",
                frontend(&build(1))
            );
            let deepest = (1..=MAX_NESTING)
                .rev()
                .find(|&n| parses(n))
                .expect("some depth parses");
            let levels = deepest * step;
            assert!(
                levels + 8 >= MAX_NESTING,
                "{shape}: only {deepest} deep parses"
            );
            let src = build(deepest);
            let ok = std::thread::scope(|scope| {
                let t = std::thread::Builder::new().stack_size(2 << 20);
                let t = t.spawn_scoped(scope, || compile(&src).map_err(|e| e.phase));
                t.expect("spawn").join().expect("no overflow")
            });
            // A field chain is no valid type; it must still get past the
            // parser and fail in a later pass without overflowing.
            if shape != "fields" {
                assert!(ok.is_ok(), "{shape} at depth {deepest}: {ok:?}");
            }
            for n in [deepest + 1, 1_000, 100_000] {
                let err = frontend(&build(n)).expect_err(shape);
                assert_eq!(err.phase, Phase::Parse, "{shape} at {n}: {err}");
                assert!(
                    err.message.contains("nested deeper"),
                    "{shape} at {n}: {err}"
                );
                assert!(err.span.line >= 1 && err.span.col >= 1, "{shape}: {err}");
            }
        }
    }
}
