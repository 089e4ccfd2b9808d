//! Cross-pod admission: deciding where a submitted Almanac program
//! runs, and rewriting it when it spans pods.
//!
//! The coordinator sees `place` directives in the federation's *global*
//! switch-id space; each pod compiles against its own *local* space
//! `0..switches`. Routing rules, per machine:
//!
//! * `place all;` (no constraint) — broadcast: the machine plants on
//!   every pod of the program's pod set, directive unchanged (each pod
//!   expands it over its local fabric).
//! * `place all <ids>;` / `place any <ids>;` — the ids are const-
//!   evaluated as global switch ids and partitioned by pod; each pod's
//!   sub-program keeps only its own ids, rewritten to local literals.
//! * `place any;` and `range` constraints cannot be partitioned (their
//!   meaning is relative to one fabric), so they pin the whole program
//!   to a single pod.
//!
//! The program's pod set is the union over machines. One pod → the
//! original source routes there verbatim (byte-identical, so a
//! single-pod federation behaves exactly like a bare farmd). Several
//! pods → a split, which is only accepted when every machine covers
//! *every* pod of the set (the uniform-coverage rule): a machine left
//! without seeds on some pod would fail compilation there, and a
//! partially-placed program has no coherent rollback story.

use std::collections::BTreeMap;

use farm_almanac::analysis::{const_eval, ConstEnv};
use farm_almanac::ast::{Expr, Literal, Machine, PlaceConstraint, PlaceQuant};
use farm_almanac::parser::parse;
use farm_almanac::printer::program_to_source;

/// One live pod as the splitter sees it. Order matters: `place any;`
/// programs (and broadcast-only programs with an empty explicit set)
/// route to the first entry, so callers list pods by preference.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PodTarget {
    pub(crate) name: String,
    /// Global switch-id base (`global = base + local`).
    pub(crate) base: u64,
    /// Local switch count (`0..switches` is the pod's id space).
    pub(crate) switches: u64,
}

impl PodTarget {
    fn owns(&self, global: u64) -> bool {
        self.base <= global && global < self.base + self.switches
    }
}

/// Where a program goes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Route {
    /// The whole program to one pod. `source` is the original text
    /// verbatim when the pod's base is 0 (global ids already *are*
    /// local ids), and a localized rewrite otherwise.
    Single { pod: String, source: String },
    /// Per-pod rewritten sub-programs, in pod order.
    Split { parts: Vec<(String, String)> },
}

/// Routes `source` over `pods`.
///
/// # Errors
///
/// A human-readable rejection reason: parse failures, global ids
/// outside every pod, un-partitionable constraints inside a span, or a
/// machine violating the uniform-coverage rule.
pub(crate) fn split_program(source: &str, pods: &[PodTarget]) -> Result<Route, String> {
    if pods.is_empty() {
        return Err("no live pods to place on".into());
    }
    let program = parse(source).map_err(|e| format!("program does not parse: {e}"))?;
    if program.machines.is_empty() {
        return Err("program declares no machines".into());
    }

    // Classify every machine and union the explicit pod sets.
    let mut classes = Vec::with_capacity(program.machines.len());
    let mut explicit_pods: Vec<usize> = Vec::new();
    let mut any_broadcast = false;
    let mut pinned = false;
    for m in &program.machines {
        let class = classify(m, pods)?;
        match &class {
            MachineClass::Broadcast => any_broadcast = true,
            MachineClass::Pinned => pinned = true,
            MachineClass::Explicit(by_pod) => {
                for idx in by_pod.keys() {
                    if !explicit_pods.contains(idx) {
                        explicit_pods.push(*idx);
                    }
                }
            }
        }
        classes.push(class);
    }
    explicit_pods.sort_unstable();

    // The program's pod set.
    let set: Vec<usize> = if !explicit_pods.is_empty() {
        explicit_pods
    } else if any_broadcast {
        (0..pods.len()).collect()
    } else {
        // Only `place any;` / `range` machines: the caller's preferred pod.
        vec![0]
    };

    if set.len() == 1 {
        let idx = set[0];
        let pod = &pods[idx];
        // A base-0 pod's local ids equal the global ids, so the source
        // forwards untouched; any other base needs the same local-id
        // rewrite a split applies.
        let text = if pod.base == 0
            || !classes
                .iter()
                .any(|c| matches!(c, MachineClass::Explicit(_)))
        {
            source.to_string()
        } else {
            let mut sub = program.clone();
            for (m, class) in sub.machines.iter_mut().zip(&classes) {
                if let MachineClass::Explicit(by_pod) = class {
                    localize(m, &by_pod[&idx]);
                }
            }
            program_to_source(&sub)
        };
        return Ok(Route::Single {
            pod: pod.name.clone(),
            source: text,
        });
    }
    if pinned {
        return Err(
            "a `place any` or `range` constraint pins the program to one pod, but its \
             explicit switch ids span several; pin every machine or keep ids in one pod"
                .into(),
        );
    }

    // Uniform coverage: every explicit machine must place on every pod
    // of the set (broadcast machines cover the set by construction).
    for (m, class) in program.machines.iter().zip(&classes) {
        if let MachineClass::Explicit(by_pod) = class {
            for idx in &set {
                if !by_pod.contains_key(idx) {
                    return Err(format!(
                        "machine `{}` places no seeds in pod `{}` while the program spans \
                         it; a split needs every machine on every pod it touches",
                        m.name, pods[*idx].name
                    ));
                }
            }
        }
    }

    let mut parts = Vec::with_capacity(set.len());
    for idx in &set {
        let mut sub = program.clone();
        for (m, class) in sub.machines.iter_mut().zip(&classes) {
            if let MachineClass::Explicit(by_pod) = class {
                localize(m, &by_pod[idx]);
            }
        }
        parts.push((pods[*idx].name.clone(), program_to_source(&sub)));
    }
    Ok(Route::Split { parts })
}

/// How one machine routes.
enum MachineClass {
    /// `place all;` — every pod of the program's set.
    Broadcast,
    /// `place any;` or a `range` constraint — single-pod only.
    Pinned,
    /// Explicit switch ids: pod index → that pod's local ids, in
    /// directive order (one entry per directive, aligned by position).
    Explicit(BTreeMap<usize, Vec<Vec<u64>>>),
}

fn classify(m: &Machine, pods: &[PodTarget]) -> Result<MachineClass, String> {
    let env = machine_consts(m);
    let mut by_pod: BTreeMap<usize, Vec<Vec<u64>>> = BTreeMap::new();
    let mut explicit_directives = 0usize;
    let mut broadcast = false;
    let mut pinned = false;
    for p in &m.placements {
        match &p.constraint {
            PlaceConstraint::None => match p.quant {
                PlaceQuant::All => broadcast = true,
                PlaceQuant::Any => pinned = true,
            },
            PlaceConstraint::Range { .. } => pinned = true,
            PlaceConstraint::Switches(exprs) => {
                let slot = explicit_directives;
                explicit_directives += 1;
                for e in exprs {
                    let global = const_eval(e, &env)
                        .ok()
                        .and_then(|v| v.as_int())
                        .ok_or_else(|| {
                            format!(
                                "machine `{}`: place expression is not a compile-time \
                                 switch id",
                                m.name
                            )
                        })?;
                    let global = u64::try_from(global).map_err(|_| {
                        format!("machine `{}`: negative switch id {global}", m.name)
                    })?;
                    let Some((idx, pod)) =
                        pods.iter().enumerate().find(|(_, pod)| pod.owns(global))
                    else {
                        return Err(format!(
                            "machine `{}`: switch id {global} is outside every live pod",
                            m.name
                        ));
                    };
                    let lists = by_pod
                        .entry(idx)
                        .or_insert_with(|| vec![Vec::new(); explicit_directives]);
                    lists.resize(explicit_directives, Vec::new());
                    lists[slot].push(global - pod.base);
                }
            }
        }
    }
    if !by_pod.is_empty() {
        if broadcast || pinned {
            return Err(format!(
                "machine `{}` mixes explicit switch ids with `all`/`any`/`range` \
                 placement; the coordinator cannot partition that",
                m.name
            ));
        }
        // Directive lists are positional; pad pods that missed later ones.
        for lists in by_pod.values_mut() {
            lists.resize(explicit_directives, Vec::new());
        }
        return Ok(MachineClass::Explicit(by_pod));
    }
    if pinned {
        return Ok(MachineClass::Pinned);
    }
    Ok(MachineClass::Broadcast)
}

/// The constant environment `place` expressions see at split time:
/// machine-variable initializers that const-evaluate (externals fall
/// back to their defaults — fedd submissions carry no assignments),
/// accumulated in declaration order so later inits may use earlier
/// names. Mirrors the pod-side compiler's environment.
fn machine_consts(m: &Machine) -> ConstEnv {
    let mut env = ConstEnv::new();
    for v in &m.vars {
        if let Some(init) = &v.init {
            if let Ok(val) = const_eval(init, &env) {
                env.insert(v.name.clone(), val);
            }
        }
    }
    env
}

/// Rewrites a machine's explicit directives to one pod's local ids.
/// Directives left with no local ids are dropped; the uniform-coverage
/// check already guaranteed at least one survives.
fn localize(m: &mut Machine, lists: &[Vec<u64>]) {
    let mut slot = 0usize;
    m.placements.retain_mut(|p| {
        let PlaceConstraint::Switches(exprs) = &mut p.constraint else {
            return true;
        };
        let span = exprs.first().map(|e| e.span()).unwrap_or_default();
        let locals = &lists[slot];
        slot += 1;
        *exprs = locals
            .iter()
            .map(|id| Expr::Lit(Literal::Int(*id as i64), span))
            .collect();
        !exprs.is_empty()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pods() -> Vec<PodTarget> {
        vec![
            PodTarget {
                name: "a".into(),
                base: 0,
                switches: 5,
            },
            PodTarget {
                name: "b".into(),
                base: 5,
                switches: 5,
            },
        ]
    }

    fn machine(place: &str) -> String {
        format!(
            "machine M {{\n  {place}\n  long n = 0;\n  state s {{\n    \
             util (res) {{ if (res.vCPU >= 0) then {{ return 1; }} }}\n  }}\n}}\n"
        )
    }

    #[test]
    fn one_pod_ids_route_single_verbatim_at_base_zero_localized_above() {
        let src = machine("place all 1, 3;");
        match split_program(&src, &pods()).unwrap() {
            Route::Single { pod, source } => {
                assert_eq!(pod, "a");
                assert_eq!(source, src, "base-0 pod gets the bytes untouched");
            }
            other => panic!("{other:?}"),
        }
        // Pod b's base is 5: globals 6 and 9 are its locals 1 and 4.
        let src = machine("place all 6, 9;");
        match split_program(&src, &pods()).unwrap() {
            Route::Single { pod, source } => {
                assert_eq!(pod, "b");
                assert!(source.contains("place all 1, 4;"), "{source}");
                parse(&source).unwrap();
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spanning_ids_split_and_localize() {
        let src = machine("place all 2, 7, 9;");
        let Route::Split { parts } = split_program(&src, &pods()).unwrap() else {
            panic!("expected a split");
        };
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "a");
        assert!(parts[0].1.contains("place all 2;"), "{}", parts[0].1);
        assert_eq!(parts[1].0, "b");
        assert!(parts[1].1.contains("place all 2, 4;"), "{}", parts[1].1);
        // Both halves still parse.
        for (_, part) in &parts {
            parse(part).unwrap();
        }
    }

    #[test]
    fn place_all_broadcasts_and_place_any_routes_to_preferred_pod() {
        let src = machine("place all;");
        let Route::Split { parts } = split_program(&src, &pods()).unwrap() else {
            panic!("expected a broadcast split");
        };
        assert_eq!(parts.len(), 2);
        for (_, part) in &parts {
            assert!(part.contains("place all;"), "{part}");
        }
        let src = machine("place any;");
        assert_eq!(
            split_program(&src, &pods()).unwrap(),
            Route::Single {
                pod: "a".into(),
                source: src.clone(),
            }
        );
    }

    #[test]
    fn const_initializers_feed_place_expressions() {
        let src = "machine M {\n  long sw = 3 + 4;\n  place all sw;\n  state s {\n    \
                   util (res) { if (res.vCPU >= 0) then { return 1; } }\n  }\n}\n";
        match split_program(src, &pods()).unwrap() {
            // Global 7 is pod b's local 2; the const expression becomes
            // a plain literal on the way down.
            Route::Single { pod, source } => {
                assert_eq!(pod, "b");
                assert!(source.contains("place all 2;"), "{source}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_ids_and_partial_coverage_are_rejected() {
        let e = split_program(&machine("place all 12;"), &pods()).unwrap_err();
        assert!(e.contains("outside every live pod"), "{e}");
        // Machine A spans both pods, machine B sits in pod a only.
        let src = format!(
            "{}{}",
            machine("place all 2, 7;"),
            "machine N {\n  place all 1;\n  long n = 0;\n  state s {\n    \
             util (res) { if (res.vCPU >= 0) then { return 1; } }\n  }\n}\n"
        );
        let e = split_program(&src, &pods()).unwrap_err();
        assert!(e.contains("places no seeds in pod `b`"), "{e}");
        let e = split_program("not almanac", &pods()).unwrap_err();
        assert!(e.contains("does not parse"), "{e}");
        let e = split_program(&machine("place all 1;"), &[]).unwrap_err();
        assert!(e.contains("no live pods"), "{e}");
    }

    #[test]
    fn range_pins_and_conflicts_with_a_span() {
        let range = "machine R {\n  place any receiver range <= 2;\n  long n = 0;\n  \
                     state s {\n    util (res) { if (res.vCPU >= 0) then { return 1; } }\n  }\n}\n";
        assert_eq!(
            split_program(range, &pods()).unwrap(),
            Route::Single {
                pod: "a".into(),
                source: range.to_string(),
            }
        );
        let src = format!("{}{range}", machine("place all 2, 7;"));
        let e = split_program(&src, &pods()).unwrap_err();
        assert!(e.contains("pins the program to one pod"), "{e}");
    }
}
