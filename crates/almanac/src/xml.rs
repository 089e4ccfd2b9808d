//! XML seed interchange format.
//!
//! Per § V-A d of the paper, the seeder compiles Almanac machines into XML
//! which each switch's soil transforms into executable seeds; XML is used
//! for interoperability and portability across switch OSes. The document
//! carries structural metadata (name, states, trigger variables, placement
//! count) for tooling plus the canonical machine source, which the
//! receiving soil re-parses — so export → import is an exact round trip.

use crate::ast::Machine;
use crate::error::{AlmanacError, Phase, Result, Span};
use crate::parser;
use crate::printer::machine_to_source;

/// Serializes a machine into the XML seed format.
pub fn machine_to_xml(m: &Machine) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(&format!("<seed name=\"{}\"", xml_escape(&m.name)));
    if let Some(e) = &m.extends {
        out.push_str(&format!(" extends=\"{}\"", xml_escape(e)));
    }
    out.push_str(">\n");
    out.push_str("  <states>\n");
    for s in &m.states {
        out.push_str(&format!(
            "    <state name=\"{}\" events=\"{}\" util=\"{}\"/>\n",
            xml_escape(&s.name),
            s.events.len(),
            s.util.is_some()
        ));
    }
    out.push_str("  </states>\n");
    out.push_str("  <triggers>\n");
    for v in m.trigger_vars() {
        out.push_str(&format!(
            "    <trigger name=\"{}\" type=\"{}\"/>\n",
            xml_escape(&v.name),
            v.trigger().expect("trigger var").keyword()
        ));
    }
    out.push_str("  </triggers>\n");
    out.push_str(&format!(
        "  <placements count=\"{}\"/>\n",
        m.placements.len()
    ));
    out.push_str("  <source>");
    out.push_str(&xml_escape(&machine_to_source(m)));
    out.push_str("</source>\n");
    out.push_str("</seed>\n");
    out
}

/// Deserializes a machine from the XML seed format.
///
/// # Errors
///
/// XML-phase errors for a malformed document and parse errors for a
/// malformed embedded source.
pub fn machine_from_xml(xml: &str) -> Result<Machine> {
    let body = extract_element(xml, "source").ok_or_else(|| {
        AlmanacError::new(Phase::Xml, Span::default(), "missing <source> element")
    })?;
    let src = xml_unescape(body);
    let program = parser::parse(&src)?;
    program.machines.into_iter().next().ok_or_else(|| {
        AlmanacError::new(
            Phase::Xml,
            Span::default(),
            "embedded source contains no machine",
        )
    })
}

/// Extracts the text content of the first `<tag>…</tag>` element.
fn extract_element<'a>(xml: &'a str, tag: &str) -> Option<&'a str> {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let start = xml.find(&open)? + open.len();
    let end = xml[start..].find(&close)? + start;
    Some(&xml[start..end])
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn xml_unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::machine_to_source;

    const SRC: &str = r#"
        machine HH {
          place all;
          poll p = Poll { .ival = 10/res().PCIe, .what = port ANY };
          external long threshold = 1000;
          state observe {
            util (res) { if (res.vCPU >= 1) then { return res.vCPU; } }
            when (p as stats) do { transit detected; }
          }
          state detected {
            when (enter) do { send threshold to harvester; transit observe; }
          }
        }
    "#;

    fn machine() -> Machine {
        parser::parse(SRC).unwrap().machines.remove(0)
    }

    #[test]
    fn round_trip_preserves_canonical_source() {
        let m = machine();
        let xml = machine_to_xml(&m);
        let back = machine_from_xml(&xml).unwrap();
        assert_eq!(machine_to_source(&m), machine_to_source(&back));
        assert_eq!(back.name, "HH");
        assert_eq!(back.states.len(), 2);
    }

    #[test]
    fn xml_contains_structural_metadata() {
        let xml = machine_to_xml(&machine());
        assert!(xml.contains("<seed name=\"HH\">"));
        assert!(xml.contains("<state name=\"observe\" events=\"1\" util=\"true\"/>"));
        assert!(xml.contains("<trigger name=\"p\" type=\"poll\"/>"));
        assert!(xml.contains("<placements count=\"1\"/>"));
    }

    #[test]
    fn strings_with_specials_survive() {
        let src = r#"
            machine M {
              place any;
              filter f = dstIP "10.0.0.0/8" and dstPort 80;
              state s { }
            }
        "#;
        let m = parser::parse(src).unwrap().machines.remove(0);
        let back = machine_from_xml(&machine_to_xml(&m)).unwrap();
        assert_eq!(machine_to_source(&m), machine_to_source(&back));
    }

    #[test]
    fn missing_source_is_reported() {
        let err = machine_from_xml("<seed name=\"x\"></seed>").unwrap_err();
        assert!(err.message.contains("<source>"), "{err}");
    }
}
