//! Runs the real binary over all six workloads at smoke size (a
//! fraction of a second each, scoring skipped), untraced and traced,
//! and checks that every metric the contract names is present and
//! finite.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_farm-benchmark");

fn run(args: &[&str]) -> String {
    // Traced runs write trace.json under the target directory; keep that
    // inside cargo's scratch space for this test.
    let out = Command::new(EXE)
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The names under `key` in the printed contract, without a JSON
/// dependency: the pretty printer puts each `"name": "..."` on a line.
fn contract_names(contract: &str, key: &str) -> Vec<String> {
    let start = contract
        .find(&format!("\"{key}\": ["))
        .expect("contract has the key");
    let section = &contract[start..];
    let end = section.find("\n  ]").expect("section closes");
    section[..end]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"name\": \""))
        .map(|l| l.trim_end_matches(['"', ',']).to_string())
        .collect()
}

/// The value printed for `name` on a result line, if it is a number.
fn value_of(result_line: &str, name: &str) -> Option<f64> {
    let at = result_line.find(&format!("\"{name}\":{{"))?;
    let rest = &result_line[at..];
    let value = &rest[rest.find("\"value\":")? + "\"value\":".len()..];
    let end = value.find(['}', ','])?;
    value[..end].parse().ok()
}

fn check_set(trace: &str, names: &[String], workloads: &[String]) {
    let stdout = run(&["--smoke", "--seed", "3", "--trace", trace]);
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(
        results.len(),
        workloads.len(),
        "one result per workload:\n{stdout}"
    );
    for (line, workload) in results.iter().zip(workloads) {
        assert!(
            line.contains("\"correct\":true"),
            "{workload}: {line}\n{stdout}"
        );
        assert!(line.contains("\"failed\":0"), "{workload}: {line}");
        for name in names {
            let v = value_of(line, name)
                .unwrap_or_else(|| panic!("{workload} (trace {trace}) lacks `{name}`: {line}"));
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn smoke_run_reports_every_named_metric() {
    let contract = run(&["--print-contract"]);
    let workloads = contract_names(&contract, "workloads");
    assert_eq!(workloads.len(), 6);
    check_set("0", &contract_names(&contract, "end_to_end"), &workloads);
    check_set("1", &contract_names(&contract, "per_layer"), &workloads);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("binary starts");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
