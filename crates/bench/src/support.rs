//! Shared experiment infrastructure: fabric builders, FARM task sources,
//! sample percentiles and table rendering.

use std::collections::BTreeMap;

use farm_core::farm::{Farm, FarmConfig};
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::topology::Topology;
use farm_netsim::types::SwitchId;
use farm_placement::model::PreviousPlacement;
use farm_soil::SoilConfig;

/// The production-cluster stand-in of § VI-A b: a 20-switch spine-leaf
/// fabric (4 spines + 16 leaves) of Accton-class switches.
pub(crate) fn sap_cluster() -> Topology {
    Topology::spine_leaf(
        4,
        16,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

/// Builds a FARM instance over a topology with the given soil config.
pub(crate) fn farm_with(topology: Topology, soil: SoilConfig) -> Farm {
    Farm::new(topology, FarmConfig { soil })
}

/// The rig of the co-location studies (Fig. 6, 8, 9): `seeds` copies of
/// one program, each its own task, all on the leaf of a one-spine,
/// one-leaf fabric of Accton AS5712s. `source` gets that leaf's id to
/// pin the program to. Returns the farm and the leaf.
pub(crate) fn colocated(
    seeds: usize,
    soil: SoilConfig,
    source: impl FnOnce(u32) -> String,
) -> (Farm, SwitchId) {
    let model = SwitchModel::accton_as5712();
    let mut farm = farm_with(Topology::spine_leaf(1, 1, model.clone(), model), soil);
    let leaf = farm
        .network()
        .topology()
        .leaves()
        .next()
        .expect("a spine-leaf fabric has a leaf");
    let src = source(leaf.0);
    let names: Vec<String> = (0..seeds).map(|i| format!("t{i}")).collect();
    let tasks: Vec<_> = names
        .iter()
        .map(|n| (n.as_str(), src.as_str(), no_externals()))
        .collect();
    farm.deploy_tasks(&tasks)
        .expect("the parametric sources compile and fit");
    (farm, leaf)
}

/// A parametric HH machine polling every port at a fixed accuracy.
/// `place any N` pins deployment to explicit switches so scaling studies
/// control seed counts precisely.
pub(crate) fn hh_source_at(accuracy_ms: u64, switch: u32, threshold: i64) -> String {
    format!(
        r#"
fun getHH(list stats, long threshold): list {{
  list result;
  int i = 0;
  while (i < list_len(stats)) {{
    if (stat_tx_bytes(list_get(stats, i)) >= threshold) then {{
      list_push(result, list_get(stats, i));
    }}
    i = i + 1;
  }}
  return result;
}}
machine HH {{
  place any {switch};
  poll pollStats = Poll {{ .ival = {accuracy_ms}, .what = port ANY }};
  external long threshold = {threshold};
  list hitters;
  state observe {{
    util (res) {{
      if (res.vCPU >= 0 and res.RAM >= 0) then {{ return 1 + res.vCPU; }}
    }}
    when (pollStats as stats) do {{
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {{
        transit HHdetected;
      }}
    }}
  }}
  state HHdetected {{
    util (res) {{ return 100; }}
    when (enter) do {{
      send hitters to harvester;
      transit observe;
    }}
  }}
  when (recv long newTh from harvester) do {{ threshold = newTh; }}
}}
"#
    )
}

/// An HH variant with change detection: reports only *newly* heavy ports
/// (the production behaviour behind Fig. 4's "1 packet per minute per 100
/// additional ports" — steady heavy hitters are reported once, reports
/// follow HH-set churn).
pub(crate) fn hh_change_source_at(accuracy_ms: u64, switch: u32, threshold: i64) -> String {
    format!(
        r#"
fun hitterPorts(list stats, long threshold): list {{
  list ports;
  int i = 0;
  while (i < list_len(stats)) {{
    if (stat_tx_bytes(list_get(stats, i)) >= threshold) then {{
      list_push(ports, stat_port(list_get(stats, i)));
    }}
    i = i + 1;
  }}
  return ports;
}}
machine HH {{
  place any {switch};
  poll pollStats = Poll {{ .ival = {accuracy_ms}, .what = port ANY }};
  external long threshold = {threshold};
  list known;
  state observe {{
    util (res) {{
      if (res.vCPU >= 0 and res.RAM >= 0) then {{ return 1 + res.vCPU; }}
    }}
    when (pollStats as stats) do {{
      list current = hitterPorts(stats, threshold);
      list fresh;
      int i = 0;
      while (i < list_len(current)) {{
        if (not list_contains(known, list_get(current, i))) then {{
          list_push(fresh, list_get(current, i));
        }}
        i = i + 1;
      }}
      known = current;
      if (not is_list_empty(fresh)) then {{
        send fresh to harvester;
      }}
    }}
  }}
  when (recv long newTh from harvester) do {{ threshold = newTh; }}
}}
"#
    )
}

/// The CPU-intensive ML task of § VI-A c: statistics polling drives an
/// SVR prediction (1000×1000 matrix multiplies) via `exec`, with an
/// iteration count for the Fig. 6d partitioning.
pub(crate) fn ml_source_at(accuracy_ms: u64, switch: u32, iterations: u32) -> String {
    format!(
        r#"
machine ML {{
  place any {switch};
  poll pollStats = Poll {{ .ival = {accuracy_ms}, .what = port ANY }};
  state predict {{
    util (res) {{
      if (res.vCPU >= 0) then {{ return 1 + res.vCPU; }}
    }}
    when (pollStats as stats) do {{
      exec_n("svr-matmul-1000", {iterations});
    }}
  }}
}}
"#
    )
}

/// A solve's assignment as the previous placement of the next one.
pub(crate) fn as_previous(assignment: &[Option<(SwitchId, Resources)>]) -> PreviousPlacement {
    let mut prev = PreviousPlacement::default();
    for (s, slot) in assignment.iter().enumerate() {
        if let Some(seat) = slot {
            prev.assignment.insert(s, *seat);
        }
    }
    prev
}

/// Exact percentile over raw samples, linear between the two nearest
/// ranks.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// No-external deployment helper.
pub(crate) fn no_externals() -> BTreeMap<String, farm_almanac::analysis::ConstEnv> {
    BTreeMap::new()
}

/// Renders rows as an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::compile::frontend;

    #[test]
    fn parametric_sources_compile() {
        frontend(&hh_source_at(1, 0, 1_000_000)).unwrap();
        frontend(&hh_source_at(10, 3, 500)).unwrap();
        frontend(&hh_change_source_at(10, 1, 100_000)).unwrap();
        frontend(&ml_source_at(1, 0, 1)).unwrap();
        frontend(&ml_source_at(10, 2, 10)).unwrap();
    }

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&s, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&s, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }

    #[test]
    fn sap_cluster_has_20_switches() {
        assert_eq!(sap_cluster().len(), 20);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["x".into(), "1".into()], vec!["yy".into(), "22".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-header"));
    }
}
