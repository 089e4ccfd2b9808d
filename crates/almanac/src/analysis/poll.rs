//! Static analysis of trigger variables (§ III-B c of the paper):
//! polling interval functions `y.ival(r̄)`, polling subjects `y.what`
//! (through the filter-encoding `φ_enc`), and plain timer periods.

use farm_netsim::types::{FilterAtom, FilterFormula, PortSel};

use super::consteval::{const_eval, ConstEnv};
use super::poly::Ratio;
use super::util::resource_ratio_no_param;
use crate::ast::*;
use crate::error::{AlmanacError, Result};
use crate::value::Value;

/// What a polling request reads from the ASIC — the output of `φ_enc`.
/// Subjects are canonical so the soil can aggregate identical requests
/// from different seeds (§ IV-B aggregation benefits).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PollSubject {
    /// Counters of every port.
    AllPorts,
    /// Counters of one port.
    Port(u16),
    /// Counters of monitoring TCAM rules matching a canonical pattern.
    Rule(String),
}

/// Analysis result for one trigger variable.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerAnalysis {
    pub name: String,
    pub kind: TriggerType,
    /// Interval in milliseconds as a function of allocated resources
    /// (`y.ival(r̄)`); constant for `time` triggers.
    pub ival: Ratio,
    /// Polling subjects (`y.what` through `φ_enc`); empty for `time`.
    pub subjects: Vec<PollSubject>,
    /// The raw filter formula of `.what` (used to install probe filters).
    pub what: Option<FilterFormula>,
}

/// The filter-encoding function `φ_enc`: maps a closed filter formula to
/// the set of polling subjects it requires.
pub(crate) fn encode_filter(f: &FilterFormula) -> Vec<PollSubject> {
    let atoms = f.atoms();
    let mut ports: Vec<PollSubject> = Vec::new();
    for a in &atoms {
        if let FilterAtom::IfPort(sel) = a {
            match sel {
                PortSel::Any => return vec![PollSubject::AllPorts],
                PortSel::Id(i) => {
                    let s = PollSubject::Port(*i);
                    if !ports.contains(&s) {
                        ports.push(s);
                    }
                }
            }
        }
    }
    if !ports.is_empty() {
        ports.sort();
        return ports;
    }
    // Flow-level filter: polled through matching monitoring TCAM rules,
    // keyed by the canonical pattern text.
    vec![PollSubject::Rule(f.to_string())]
}

/// Analyzes one trigger variable declaration.
///
/// # Errors
///
/// Analysis-phase errors when the initializer is missing/malformed, the
/// interval's *inverse* is not linear in resources (the paper's MILP
/// requirement, § IV-D), or the subject filter is not a deployment-time
/// constant.
pub(crate) fn analyze_trigger(var: &VarDecl, consts: &ConstEnv) -> Result<TriggerAnalysis> {
    let kind = var.trigger().ok_or_else(|| {
        AlmanacError::analysis(
            var.span,
            format!("`{}` is not a trigger variable", var.name),
        )
    })?;
    match kind {
        TriggerType::Time => {
            let e = var.init.as_ref().ok_or_else(|| {
                AlmanacError::analysis(var.span, "time trigger requires a period initializer")
            })?;
            let v = const_eval(e, consts)?;
            let ms = v.as_f64().ok_or_else(|| {
                AlmanacError::analysis(e.span(), "time trigger period must be numeric (ms)")
            })?;
            if ms <= 0.0 {
                return Err(AlmanacError::analysis(
                    e.span(),
                    "time trigger period must be positive",
                ));
            }
            Ok(TriggerAnalysis {
                name: var.name.clone(),
                kind,
                ival: Ratio::constant(ms),
                subjects: Vec::new(),
                what: None,
            })
        }
        TriggerType::Poll | TriggerType::Probe => {
            let Some(Expr::StructLit { fields, .. }) = &var.init else {
                return Err(AlmanacError::analysis(
                    var.span,
                    format!("`{}` requires a Poll/Probe initializer", var.name),
                ));
            };
            let ival_expr = fields
                .iter()
                .find(|(n, _)| n == "ival")
                .map(|(_, e)| e)
                .ok_or_else(|| AlmanacError::analysis(var.span, "missing .ival"))?;
            let what_expr = fields
                .iter()
                .find(|(n, _)| n == "what")
                .map(|(_, e)| e)
                .ok_or_else(|| AlmanacError::analysis(var.span, "missing .what"))?;

            let ival = resource_ratio_no_param(ival_expr, consts)?;
            // The polling demand 1/ival must stay linear for placement
            // optimization, which requires a constant numerator.
            if !ival.num.is_constant() {
                return Err(AlmanacError::analysis(
                    ival_expr.span(),
                    ".ival must be constant or of the form c / linear(resources) \
                     so that the polling demand 1/ival stays linear",
                ));
            }
            let what = match const_eval(what_expr, consts)? {
                Value::Filter(f) => f,
                other => {
                    return Err(AlmanacError::analysis(
                        what_expr.span(),
                        format!(".what must be a filter, found {}", other.type_name()),
                    ))
                }
            };
            let subjects = encode_filter(&what);
            Ok(TriggerAnalysis {
                name: var.name.clone(),
                kind,
                ival,
                subjects,
                what: Some(what),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use farm_netsim::switch::Resources;

    fn first_trigger(src: &str) -> Result<TriggerAnalysis> {
        let p = parse(src).unwrap();
        let var = p.machines[0]
            .trigger_vars()
            .next()
            .expect("machine has a trigger var")
            .clone();
        analyze_trigger(&var, &ConstEnv::new())
    }

    #[test]
    fn analyzes_the_papers_poll_example() {
        // y.ival(r̄) = 10/r_PCIe; y.what = all ports.
        let t = first_trigger(
            "machine HH { poll p = Poll { .ival = 10/res().PCIe, .what = port ANY }; state s { } }",
        )
        .unwrap();
        assert_eq!(t.kind, TriggerType::Poll);
        assert_eq!(t.subjects, vec![PollSubject::AllPorts]);
        let r = Resources::new(0.0, 0.0, 0.0, 5.0);
        assert_eq!(t.ival.eval(&r), 2.0);
        // Demand is linear: 1/ival = PCIe/10.
        let demand = t.ival.recip().as_poly().unwrap();
        assert!((demand.eval(&r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_interval_and_rule_subject() {
        let t = first_trigger(
            r#"machine M { poll p = Poll { .ival = 10, .what = dstIP "10.0.1.0/24" }; state s { } }"#,
        )
        .unwrap();
        assert!(t.ival.as_poly().is_some_and(|p| p.is_constant()));
        assert_eq!(t.subjects.len(), 1);
        assert!(matches!(&t.subjects[0], PollSubject::Rule(_)));
    }

    #[test]
    fn specific_ports_encode_individually() {
        let t = first_trigger(
            "machine M { poll p = Poll { .ival = 5, .what = port 3 or port 7 }; state s { } }",
        )
        .unwrap();
        assert_eq!(t.subjects, vec![PollSubject::Port(3), PollSubject::Port(7)]);
    }

    #[test]
    fn rejects_nonlinear_demand() {
        // ival = PCIe (linear) → demand 1/PCIe nonlinear → reject.
        let e = first_trigger(
            "machine M { poll p = Poll { .ival = res().PCIe, .what = port ANY }; state s { } }",
        )
        .unwrap_err();
        assert!(e.message.contains("1/ival"), "{e}");
    }

    #[test]
    fn time_trigger_period() {
        let t = first_trigger("machine M { time tick = 250; state s { } }").unwrap();
        assert_eq!(t.kind, TriggerType::Time);
        assert_eq!(t.ival.eval(&Resources::ZERO), 250.0);
        assert!(t.subjects.is_empty());
    }

    #[test]
    fn rejects_nonpositive_time_period() {
        assert!(first_trigger("machine M { time tick = 0; state s { } }").is_err());
    }

    #[test]
    fn identical_filters_share_canonical_subjects() {
        let mk = |src: &str| first_trigger(src).unwrap().subjects;
        let a = mk(
            r#"machine M { poll p = Poll { .ival = 1, .what = dstIP "10.0.0.0/8" and dstPort 80 }; state s { } }"#,
        );
        let b = mk(
            r#"machine N { poll q = Poll { .ival = 9, .what = dstIP "10.0.0.0/8" and dstPort 80 }; state s { } }"#,
        );
        assert_eq!(a, b, "identical .what must aggregate to the same subject");
    }
}
