//! What the machine-readable perf harnesses (`*_scale`) share: exact
//! sample percentiles, the one parser of their common flags, the one
//! reader of a committed `BENCH_*.json` baseline and the one regression
//! gate. A bin keeps its measurement and its table of [`Rule`]s.
//!
//! The baselines are written and re-read with [`farm_telemetry::Json`],
//! keys sorted ([`farm_telemetry::Json::sort_keys`]) so regenerated
//! files diff cleanly against the committed ones.

use std::process::ExitCode;

use farm_telemetry::Json;

/// Exact percentile over raw samples (linear interpolation between the
/// two nearest ranks). Unlike the telemetry histograms, this is not
/// bucketed — the harness keeps every sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The flags every `*_scale` bin takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    pub smoke: bool,
    /// Repetitions per measured point. A bin whose defaults say 0 takes
    /// no `--iters` (`detection_scale`: virtual time, one run is exact).
    pub iters: usize,
    pub out: String,
    pub check: Option<String>,
    pub max_regression: f64,
}

/// Parses `--smoke`, `--iters N`, `--out PATH`, `--check BASELINE` and
/// `--max-regression X` over `defaults`. Any other argument goes to
/// `own` with a way to take the argument's value; `own` answers whether
/// the argument was one of the bin's.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    defaults: Flags,
    mut own: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
) -> Result<Flags, String> {
    let mut flags = defaults;
    let takes_iters = flags.iters > 0;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--smoke" => flags.smoke = true,
            "--iters" if takes_iters => {
                flags.iters = val()?.parse().map_err(|e| format!("{e}"))?;
                if flags.iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--out" => flags.out = val()?,
            "--check" => flags.check = Some(val()?),
            "--max-regression" => {
                flags.max_regression = val()?.parse().map_err(|e| format!("{e}"))?
            }
            other if own(other, &mut val)? => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

/// Writes a run's document where `--out` says.
pub fn write_doc(out: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Reads a committed baseline and refuses one written under another
/// schema.
pub fn read_baseline(path: &str, schema: &str) -> Result<Json, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = Json::parse(&body).map_err(|e| format!("bad baseline JSON: {e}"))?;
    if baseline.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(format!("baseline {path} has a different schema"));
    }
    Ok(baseline)
}

/// How far a run's number may sit from the baseline's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Lower is better: `new / base` at most this.
    Ratio(f64),
    /// Higher is better: `base / new` at most this.
    InverseRatio(f64),
    /// Higher is better: `base − new` at most this.
    Drop(f64),
}

/// One gated number of an entry.
pub struct Rule {
    /// Dotted path inside the entry (`total_us.p50`). An entry without
    /// it on either side is not held to the rule.
    pub field: &'static str,
    pub limit: Limit,
    /// The failure text after the entry's label: `{new}` and `{base}`
    /// are the two numbers to `decimals` places, `{by}` the measured
    /// ratio or drop to two, `{limit}` the bound.
    pub breach: &'static str,
    pub decimals: usize,
}

/// One array of entries present in both documents.
pub struct Section {
    pub name: &'static str,
    /// The fields that make two entries the same configuration.
    pub key: &'static [&'static str],
    /// How a failure names an entry: `{0}`, `{1}`, … are the key's
    /// values.
    pub label: &'static str,
    pub rules: Vec<Rule>,
}

/// What a passing gate compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Entries of the run that the baseline also has.
    pub compared: usize,
    /// The largest ratio any [`Limit::Ratio`] / [`Limit::InverseRatio`]
    /// rule measured.
    pub worst: f64,
}

fn key_of(entry: &Json, fields: &[&str]) -> Option<Vec<String>> {
    fields
        .iter()
        .map(|f| {
            let v = entry.get(f)?;
            v.as_str()
                .map(str::to_string)
                .or_else(|| v.as_f64().map(|n| (n as u64).to_string()))
        })
        .collect()
}

fn number(entry: &Json, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(entry, |at, part| at.get(part))?
        .as_f64()
}

/// The end of a run: holds `doc` to the baseline `--check` named, if
/// any, prints the report — `report` with `{n}` entries compared, the
/// `{worst}` ratio and the `{max}` allowed — or the breach under the
/// bin's name, and turns `ok` into the exit code.
pub fn verdict(
    bin: &str,
    flags: &Flags,
    doc: &Json,
    schema: &str,
    sections: &[Section],
    report: &str,
    mut ok: bool,
) -> ExitCode {
    if let Some(path) = &flags.check {
        match check(doc, path, schema, sections) {
            Ok(tally) => {
                let report = report
                    .replace("{n}", &tally.compared.to_string())
                    .replace("{worst}", &format!("{:.2}", tally.worst))
                    .replace("{max}", &flags.max_regression.to_string());
                println!("regression check vs {path}: {report}");
            }
            Err(e) => {
                eprintln!("{bin}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check`: holds every entry of `doc` that the baseline at
/// `baseline_path` also has (same key, same section) to that section's
/// rules. The first breach is the error; so is a run that shares no
/// entry with the baseline (a scale the baseline lacks is skipped —
/// smoke against full — but all of them is a misconfigured gate).
pub fn check(
    doc: &Json,
    baseline_path: &str,
    schema: &str,
    sections: &[Section],
) -> Result<Tally, String> {
    let baseline = read_baseline(baseline_path, schema)?;
    gate(doc, &baseline, baseline_path, sections)
}

fn gate(
    doc: &Json,
    baseline: &Json,
    baseline_path: &str,
    sections: &[Section],
) -> Result<Tally, String> {
    let mut tally = Tally {
        compared: 0,
        worst: 0.0,
    };
    for section in sections {
        let base_entries = baseline
            .get(section.name)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("baseline has no {}", section.name))?;
        for entry in doc.get(section.name).and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(key) = key_of(entry, section.key) else {
                continue;
            };
            let Some(base) = base_entries
                .iter()
                .find(|b| key_of(b, section.key).as_ref() == Some(&key))
            else {
                continue;
            };
            tally.compared += 1;
            for rule in &section.rules {
                let (Some(new_v), Some(base_v)) =
                    (number(entry, rule.field), number(base, rule.field))
                else {
                    continue;
                };
                let (by, limit) = match rule.limit {
                    Limit::Ratio(x) => (new_v / base_v.max(1e-9), x),
                    Limit::InverseRatio(x) => (base_v / new_v.max(1e-9), x),
                    Limit::Drop(d) => (base_v - new_v, d),
                };
                if !matches!(rule.limit, Limit::Drop(_)) {
                    tally.worst = tally.worst.max(by);
                }
                if by > limit {
                    let places = rule.decimals;
                    let label = (0..)
                        .zip(&key)
                        .fold(section.label.to_string(), |s, (i, v)| {
                            s.replace(&format!("{{{i}}}"), v)
                        });
                    let breach = rule
                        .breach
                        .replace("{new}", &format!("{new_v:.places$}"))
                        .replace("{base}", &format!("{base_v:.places$}"))
                        .replace("{by}", &format!("{by:.2}"))
                        .replace("{limit}", &limit.to_string());
                    return Err(format!("{label} {breach}"));
                }
            }
        }
    }
    if tally.compared == 0 {
        return Err(format!(
            "no comparable entries between run and baseline {baseline_path}"
        ));
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&s, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&s, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }

    fn defaults(iters: usize) -> Flags {
        Flags {
            smoke: false,
            iters,
            out: "BENCH.json".into(),
            check: None,
            max_regression: 2.0,
        }
    }

    fn parse(line: &str, iters: usize) -> Result<(Flags, Vec<String>), String> {
        let mut seeds = Vec::new();
        let args = line.split_whitespace().map(str::to_string);
        let flags = parse_flags(args, defaults(iters), |flag, val| match flag {
            "--seed" => {
                seeds.push(val()?);
                Ok(true)
            }
            _ => Ok(false),
        })?;
        Ok((flags, seeds))
    }

    #[test]
    fn common_flags_parse_over_the_defaults_and_own_flags_reach_the_bin() {
        let line = "--smoke --seed 7 --iters 3 --check B.json --max-regression 3.5";
        let (flags, seeds) = parse(line, 5).unwrap();
        let expected = Flags {
            smoke: true,
            iters: 3,
            check: Some("B.json".into()),
            max_regression: 3.5,
            ..defaults(5)
        };
        assert_eq!((flags, seeds), (expected, vec!["7".to_string()]));
        assert_eq!(parse("", 5).unwrap().0, defaults(5));
    }

    #[test]
    fn bad_command_lines_are_refused_with_the_flag_named() {
        let err = |line, iters| parse(line, iters).unwrap_err();
        assert_eq!(err("--frobnicate", 5), "unknown argument `--frobnicate`");
        assert_eq!(err("--out", 5), "--out requires a value");
        assert_eq!(err("--seed", 5), "--seed requires a value");
        assert_eq!(err("--iters 0", 5), "--iters must be at least 1");
        assert!(err("--iters many", 5).contains("invalid digit"));
        // A bin without repetitions never had the flag.
        assert_eq!(err("--iters 3", 0), "unknown argument `--iters`");
    }

    fn section(limit: Limit) -> [Section; 1] {
        [Section {
            name: "entries",
            key: &["size", "kind"],
            label: "regression: {0}/{1}",
            rules: vec![Rule {
                field: "us.p50",
                limit,
                breach: "p50 {new} vs {base} ({by}x > {limit}x)",
                decimals: 1,
            }],
        }]
    }

    fn doc(entries: &[(f64, &str, f64)]) -> Json {
        let entries = entries.iter().map(|&(size, kind, p50)| {
            Json::obj([
                ("size", Json::from(size)),
                ("kind", Json::from(kind)),
                ("us", Json::obj([("p50", Json::from(p50))])),
            ])
        });
        Json::obj([("entries", Json::Arr(entries.collect()))])
    }

    #[test]
    fn the_gate_compares_shared_keys_and_names_the_first_breach() {
        // A run's keys are floats, a parsed baseline's are integers.
        let baseline = Json::parse(&doc(&[(8.0, "a", 100.0), (8.0, "b", 100.0)]).to_string());
        let baseline = baseline.unwrap();
        let run = doc(&[(8.0, "a", 150.0), (8.0, "b", 40.0), (512.0, "a", 1.0)]);
        let gate = |limit| gate(&run, &baseline, "B.json", &section(limit));
        let tally = |compared, worst| Ok(Tally { compared, worst });
        assert_eq!(gate(Limit::Ratio(2.0)), tally(2, 1.5));
        assert_eq!(
            gate(Limit::Ratio(1.25)).unwrap_err(),
            "regression: 8/a p50 150.0 vs 100.0 (1.50x > 1.25x)"
        );
        assert_eq!(gate(Limit::InverseRatio(3.0)), tally(2, 2.5));
        assert_eq!(
            gate(Limit::InverseRatio(2.0)).unwrap_err(),
            "regression: 8/b p50 40.0 vs 100.0 (2.50x > 2x)"
        );
        assert_eq!(gate(Limit::Drop(60.0)), tally(2, 0.0), "a drop is no ratio");
        assert_eq!(
            gate(Limit::Drop(59.0)).unwrap_err(),
            "regression: 8/b p50 40.0 vs 100.0 (60.00x > 59x)"
        );
    }

    #[test]
    fn disjoint_keys_and_missing_sections_fail_the_gate() {
        let baseline = doc(&[(8.0, "a", 100.0)]);
        let run = doc(&[(64.0, "a", 100.0), (8.0, "b", 100.0)]);
        let mut sections = section(Limit::Ratio(2.0));
        assert_eq!(
            gate(&run, &baseline, "B.json", &sections).unwrap_err(),
            "no comparable entries between run and baseline B.json"
        );
        sections[0].name = "churn";
        assert_eq!(
            gate(&run, &baseline, "B.json", &sections).unwrap_err(),
            "baseline has no churn"
        );
    }

    #[test]
    fn a_baseline_under_another_schema_or_unreadable_is_refused() {
        let net = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        assert!(read_baseline(net, "farm-bench/net_scale/v2").is_ok());
        assert_eq!(
            read_baseline(net, "farm-bench/placement_scale/v2").unwrap_err(),
            format!("baseline {net} has a different schema")
        );
        assert!(read_baseline("/nonexistent/BENCH.json", "s")
            .unwrap_err()
            .starts_with("cannot read baseline /nonexistent/BENCH.json"));
    }
}
