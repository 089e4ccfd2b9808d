//! `farm-benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! farm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of stdout is the result object
//! farm-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     all six workloads, each in a fresh child process
//! farm-benchmark --aa <k> [--seed <n>] [--seconds <s>] [--out <path>]
//!     k full sets on this build; fails when two sets disagree beyond a
//!     metric's bound
//! farm-benchmark --print-contract
//!     the BENCHMARK.json this binary implements
//! ```
//!
//! `--smoke` shrinks every workload to a fraction of a second and skips
//! scoring; the `cargo test` smoke run uses it. See the README beside
//! this crate's manifest for what is measured and why.

mod alloc;
mod json;
mod netprobe;
mod pace;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    out: Option<String>,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        aa: None,
        out: None,
        print_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--aa" => {
                let v = value()?;
                args.aa = Some(v.parse().ok().filter(|k| *k >= 2).ok_or_else(|| bad(&v))?);
            }
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("farm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", report::contract().pretty());
        return ExitCode::SUCCESS;
    }
    let cfg = workloads::RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let outcome = match (&args.workload, args.aa) {
        (Some(name), _) => report::run_one(name, &cfg, args.trace),
        (None, Some(sets)) => report::run_aa(sets, &cfg, args.out.as_deref()),
        (None, None) => report::run_all(&cfg, args.trace).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("farm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
