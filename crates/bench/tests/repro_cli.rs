//! `repro` as CI calls it: it refuses what it does not understand (a
//! mistyped flag or a second experiment name exits 2 with the usage line
//! instead of quietly running something smaller), runs the one
//! experiment it is given, and a checked study exits 0 on a right answer.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn arguments_it_does_not_understand_exit_2_with_the_usage_line() {
    for (args, problem) in [
        (&["fig7", "--ful"][..], "unknown flag `--ful`"),
        (&["tab4", "fig5"], "a second experiment `fig5`"),
        (&["fig77"], "unknown experiment `fig77`"),
        (&["-h"], "unknown flag `-h`"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro [tab1|"), "{args:?}: {stderr}");
    }
}

#[test]
fn one_named_experiment_runs_alone() {
    let out = repro(&["tab1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== ").count(), 1, "{stdout}");
    assert!(stdout.starts_with("== Tab. I"), "{stdout}");
}

/// The quick churn replay: every delta solve matches the full one, and
/// the delta solve re-runs one switch LP of 128 and a sliver of the
/// greedy steps, and visits a sliver of them.
#[test]
fn the_quick_churn_replay_is_identical_and_local() {
    let out = repro(&["churn"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let row = stdout.lines().nth(3).expect("one row").split_whitespace();
    let cells: Vec<&str> = row.collect();
    let [seeds, switches, .., lps, steps, visited, _, _, identical] = cells[..] else {
        panic!("{stdout}");
    };
    assert_eq!((seeds, switches, identical), ("1000", "128", "yes"));
    assert_eq!(lps, "1", "{stdout}");
    assert!(steps.parse::<usize>().unwrap() < 100, "{stdout}");
    assert!(visited.parse::<usize>().unwrap() < 100, "{stdout}");
}
