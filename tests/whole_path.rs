//! The whole path under generated machines: machines that
//! `crates/soil/tests/util/gen_machine.rs` generates from a seed — every
//! declared type, recursion, list builtins, stat scans, polls of `port
//! ANY` and of ports a switch may lack, sends and transitions — are
//! submitted to a farmd [`Core`] on a small fabric and taken through
//! compile → admission → place → deploy → ticks → checkpoint (through
//! the `FARMCKP2` file) → ticks → restore → ticks.
//!
//! Nothing may panic; a submission the daemon refuses names its program;
//! and [`farm_core::Farm::audit`] is clean after every step.

#[path = "../crates/soil/tests/util/gen_machine.rs"]
mod gen_machine;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use farm_core::prelude::*;
use farm_ctl::daemon::Core as _;
use farm_ctl::server::Core;
use farm_ctl::FarmdConfig;
use farm_net::{ControlOp, ControlReply, Links};
use proptest::prelude::*;

/// A checkpoint file of this process's own, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("farm-whole-path-{}-{n}.ckp", std::process::id());
        Scratch(std::env::temp_dir().join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Serves `op`, then holds the farm to its audit.
fn serve(core: &mut Core, op: ControlOp, step: &str) -> ControlReply {
    let reply = core.serve(&op, std::time::Instant::now(), &mut Default::default());
    audit(core, step);
    reply
}

fn audit(core: &Core, step: &str) {
    let report = core.farm().audit();
    assert!(report.is_clean(), "audit after {step}:\n{report}");
}

/// Advances the farm's clock by each of `ticks` milliseconds in turn.
fn tick(core: &mut Core, ticks: &[u64], step: &str) {
    for &ms in ticks {
        let to = core.farm().now() + Dur::from_millis(ms);
        core.farm_mut().advance(to);
        audit(core, &format!("{step}, a tick of {ms} ms"));
    }
}

/// One case: the machines of `seeds`, each its own task, through the
/// whole path.
fn whole_path(seeds: &[u64], ticks: &[u64]) {
    let file = Scratch::new();
    let config = FarmdConfig {
        spines: 1,
        leaves: 3,
        checkpoint_path: Some(file.0.clone()),
        restore_on_boot: false,
        ..FarmdConfig::default()
    };
    let mut core = Core::boot(config, Links::default());
    for (i, &seed) in seeds.iter().enumerate() {
        let name = format!("g{i}");
        let source = gen_machine::machine(seed);
        let op = ControlOp::SubmitProgram {
            name: name.clone(),
            source: source.clone(),
        };
        let step = format!("submitting machine {seed} as {name}");
        match serve(&mut core, op, &step) {
            ControlReply::Submitted { task, .. } => assert_eq!(task, name),
            ControlReply::Rejected { reason } => {
                assert!(
                    reason.contains(&name),
                    "{step}: `{reason}` names no program"
                );
            }
            ControlReply::CompileFailed { diagnostics } => {
                let named = |d: &farm_net::Diagnostic| d.machine == gen_machine::MACHINE;
                assert!(
                    !diagnostics.is_empty() && diagnostics.iter().all(named),
                    "{step}: {diagnostics:?}\n{source}"
                );
            }
            reply => panic!("{step}: {reply:?}"),
        }
    }
    tick(&mut core, ticks, "the submissions");
    let reply = serve(&mut core, ControlOp::Checkpoint, "the checkpoint");
    assert!(
        matches!(
            reply,
            ControlReply::Checkpointed {
                persist_error: None,
                ..
            }
        ),
        "{reply:?}"
    );
    tick(&mut core, ticks, "the checkpoint");
    let reply = serve(&mut core, ControlOp::Restore, "the restore");
    assert!(
        matches!(reply, ControlReply::Restored { skipped: 0, .. }),
        "{reply:?}"
    );
    tick(&mut core, ticks, "the restore");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One to three generated machines, each submitted as its own task,
    /// and one or two ticks of up to 5 ms between the steps: a machine
    /// polls every millisecond, and a generated handler may walk every
    /// port's stats in nested loops, so the ticks are kept short.
    #[test]
    fn generated_machines_take_the_whole_path(
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        ticks in proptest::collection::vec(1u64..6, 1..3),
    ) {
        whole_path(&seeds, &ticks);
    }
}
