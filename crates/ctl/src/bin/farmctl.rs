//! farmctl — operator CLI for a running farmd.

use std::cmp::Reverse;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use farm_ctl::CtlClient;
use farm_net::{ControlOp, ControlReply, Explain, NetError, SeedDescriptor};
use farm_telemetry::Json;

const USAGE: &str = "\
farmctl - FARM control-plane client

USAGE:
    farmctl [--addr <addr:port>] [--fed] [--json] <command> [args]

COMMANDS:
    submit <file.alm> [--name <task>] [--explain]
                                        Compile and deploy a program;
                                        --explain adds where its time
                                        went and what the solve reused
    list [--from <i>] [--limit <n>]     List deployed seeds (paged when
                                        --limit is given: farmctl keeps
                                        following next_index until done)
    describe <task/m<i>/s<j>>           Show one seed with its variables
    stats [--from <i>] [--limit <n>]    Farm summary and counters (the
                                        cursor pages the counter map)
    metrics                             Full metrics dump
    drain <switch-id>                   Cordon a switch and evacuate it
    uncordon <switch-id>                Return a switch to service
    replan                              Force a placement replan
    checkpoint                          Checkpoint all live seeds
    restore                             Restore seeds from checkpoints
    audit                               Hold the daemon's kept state to
                                        its recomputation: one line per
                                        finding (each pod's with --fed),
                                        or `clean`; exit 1 on a finding
    remove <task>                       Remove a deployed task
    pods                                List federation pods (fedd)
    migrate <task> <pod>                Move a task to another pod (fedd)
    trace [<op-id>]                     The spans of a recent op, or the
                                        ids and spans of every op the
                                        daemon still holds
    shutdown                            Gracefully stop the daemon

OPTIONS:
    --addr <addr>   daemon address (default 127.0.0.1:7373, or
                    127.0.0.1:7474 with --fed)
    --fed           Talk to a fedd federation coordinator instead of a
                    single farmd; submit/list/stats/metrics then span
                    every live pod
    --json          Machine-readable output
    --retry <n>     Retry a failed connection up to n times with
                    exponential backoff (for upgrade windows where
                    farmd is briefly down)
    -h, --help      Show this help
";

fn main() -> ExitCode {
    let mut addr: Option<SocketAddr> = None;
    let mut fed = false;
    let mut json = false;
    let mut retries = 0u64;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next().map(|a| a.parse()) {
                Some(Ok(a)) => addr = Some(a),
                _ => return fail("bad or missing --addr value"),
            },
            "--fed" => fed = true,
            "--json" => json = true,
            "--retry" => match args.next().map(|a| a.parse()) {
                Some(Ok(n)) => retries = n,
                _ => return fail("--retry needs a non-negative attempt count"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => rest.push(arg),
        }
    }
    let addr = addr.unwrap_or_else(|| {
        let default = if fed {
            "127.0.0.1:7474"
        } else {
            "127.0.0.1:7373"
        };
        default.parse().expect("default addr")
    });
    let Some(command) = rest.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let op = match build_op(&command, &rest[1..]) {
        Ok(op) => op,
        Err(msg) => return fail(&msg),
    };
    let mut session = Session::connect(addr, retries);
    // A bounded `list` streams: follow next_index until the listing is
    // exhausted, so `--limit` callers still see every seed.
    if let ControlOp::ListSeeds { from_index, limit } = &op {
        if *limit != 0 {
            return list_pages(&mut session, *from_index, *limit, json);
        }
    }
    let trace = matches!(op, ControlOp::Trace { .. });
    match session.op(op) {
        Ok(ControlReply::Json { body }) if trace && !json => print_trace(&body),
        Ok(reply) => render(&reply, json),
        Err(e) => fail(&format!("{addr}: {e}")),
    }
}

/// A `trace` body as one block per op: its id and kind, then its spans
/// by start, each indented under the spans that enclose it (a span that
/// starts where another ends follows it).
fn print_trace(body: &str) -> ExitCode {
    let Ok(doc) = Json::parse(body) else {
        return fail(&format!("unreadable trace body: {body}"));
    };
    let ops = doc.get("ops").and_then(Json::as_arr).unwrap_or_default();
    if ops.is_empty() {
        println!("no such op in the trace ring");
        return ExitCode::FAILURE;
    }
    for op in ops {
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or_default();
        let kind = op.get("kind").and_then(Json::as_str).unwrap_or("?");
        println!("op {} {kind}", field(op, "id"));
        let spans = op.get("spans").and_then(Json::as_arr).unwrap_or_default();
        let mut spans: Vec<(u64, u64, usize, &str)> = (spans.iter().enumerate())
            .map(|(i, s)| {
                let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
                (field(s, "start_us"), field(s, "end_us"), i, name)
            })
            .collect();
        // A span is recorded when it ends, so of two with the same bounds
        // the later one encloses the earlier.
        spans.sort_by_key(|&(start, end, i, _)| (start, Reverse(end), Reverse(i)));
        let mut open: Vec<u64> = Vec::new();
        for (start, end, _, name) in spans {
            while open.last().is_some_and(|&e| start >= e || end > e) {
                open.pop();
            }
            let indent = "  ".repeat(open.len() + 1);
            println!("{indent}{name:<12} {start:>8} .. {end:>8} us");
            open.push(end);
        }
    }
    ExitCode::SUCCESS
}

/// A farmd session with bounded retry: ops that die on a
/// connection-shaped error (`ECONNREFUSED` during an upgrade window, a
/// timeout, a dropped session) are asked again after an exponential
/// backoff — the client redials by itself. Server-side rejections never
/// retry.
struct Session {
    addr: SocketAddr,
    retries: u64,
    client: CtlClient,
}

impl Session {
    fn connect(addr: SocketAddr, retries: u64) -> Session {
        Session {
            addr,
            retries,
            client: CtlClient::connect(addr),
        }
    }

    fn op(&mut self, op: ControlOp) -> Result<ControlReply, NetError> {
        let mut backoff = Duration::from_millis(50);
        let mut attempt = 0u64;
        loop {
            match self.client.op(op.clone()) {
                Err(e @ (NetError::Closed | NetError::Disconnected | NetError::Timeout))
                    if attempt < self.retries =>
                {
                    attempt += 1;
                    eprintln!(
                        "farmctl: {}: {e}; retrying ({attempt}/{}) in {}ms",
                        self.addr,
                        self.retries,
                        backoff.as_millis()
                    );
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_secs(1));
                }
                out => return out,
            }
        }
    }
}

/// Pages through `ListSeeds` with the given cursor, accumulating every
/// page; the merged result renders exactly like an unpaginated listing.
fn list_pages(session: &mut Session, mut from_index: u64, limit: u64, json: bool) -> ExitCode {
    let mut all: Vec<SeedDescriptor> = Vec::new();
    let mut total;
    loop {
        match session.op(ControlOp::ListSeeds { from_index, limit }) {
            Ok(ControlReply::Seeds {
                seeds,
                next_index,
                total: t,
            }) => {
                all.extend(seeds);
                total = t;
                if next_index == 0 {
                    break;
                }
                from_index = next_index;
            }
            Ok(other) => return render(&other, json),
            Err(e) => return fail(&format!("{}: {e}", session.addr)),
        }
    }
    render(
        &ControlReply::Seeds {
            seeds: all,
            next_index: 0,
            total,
        },
        json,
    )
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("farmctl: {msg}");
    ExitCode::FAILURE
}

fn build_op(command: &str, args: &[String]) -> Result<ControlOp, String> {
    let switch_arg = || -> Result<u32, String> {
        args.first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("`{command}` needs a numeric switch id"))
    };
    match command {
        "submit" => {
            let path = args
                .first()
                .ok_or("`submit` needs a program file".to_string())?;
            let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let name = match args.iter().position(|a| a == "--name") {
                Some(i) => args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--name needs a value".to_string())?,
                None => std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            };
            if args.iter().any(|a| a == "--explain") {
                Ok(ControlOp::ExplainSubmit { name, source })
            } else {
                Ok(ControlOp::SubmitProgram { name, source })
            }
        }
        "list" => {
            let (from_index, limit) = cursor_args(args)?;
            Ok(ControlOp::ListSeeds { from_index, limit })
        }
        "describe" => Ok(ControlOp::DescribeSeed {
            key: args
                .first()
                .cloned()
                .ok_or("`describe` needs a seed key".to_string())?,
        }),
        "stats" => {
            let (from_index, limit) = cursor_args(args)?;
            Ok(ControlOp::Stats { from_index, limit })
        }
        "metrics" => Ok(ControlOp::MetricsDump),
        "drain" => Ok(ControlOp::Drain {
            switch: switch_arg()?,
        }),
        "uncordon" => Ok(ControlOp::Uncordon {
            switch: switch_arg()?,
        }),
        "replan" => Ok(ControlOp::Replan),
        "checkpoint" => Ok(ControlOp::Checkpoint),
        "restore" => Ok(ControlOp::Restore),
        "audit" => Ok(ControlOp::Audit),
        "remove" => Ok(ControlOp::RemoveTask {
            task: args
                .first()
                .cloned()
                .ok_or("`remove` needs a task name".to_string())?,
        }),
        "pods" => Ok(ControlOp::ListPods),
        "migrate" => {
            let task = args
                .first()
                .cloned()
                .ok_or("`migrate` needs a task name".to_string())?;
            let to_pod = args
                .get(1)
                .cloned()
                .ok_or("`migrate` needs a destination pod".to_string())?;
            Ok(ControlOp::MigrateTask { task, to_pod })
        }
        "shutdown" => Ok(ControlOp::Shutdown),
        "trace" => match args.first() {
            Some(id) => (id.parse().ok())
                .map(|id| ControlOp::Trace { id })
                .ok_or(format!("`trace` takes an op id, not `{id}`")),
            None => Ok(ControlOp::Trace { id: 0 }),
        },
        other => Err(format!("unknown command `{other}` (see --help)")),
    }
}

/// Parses the optional `--from <i>` / `--limit <n>` cursor flags;
/// both default to 0, which means "everything" on the wire.
fn cursor_args(args: &[String]) -> Result<(u64, u64), String> {
    let flag = |name: &str| -> Result<u64, String> {
        match args.iter().position(|a| a == name) {
            Some(i) => args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs a non-negative integer")),
            None => Ok(0),
        }
    };
    Ok((flag("--from")?, flag("--limit")?))
}

fn render(reply: &ControlReply, json: bool) -> ExitCode {
    if json {
        println!("{}", reply_json(reply));
        return exit_code(reply);
    }
    match reply {
        ControlReply::Ok => println!("ok"),
        ControlReply::Submitted {
            task,
            seeds,
            actions,
            explain,
        } => {
            println!("submitted `{task}`: {seeds} seeds placed in {actions} plan actions");
            if let Some(e) = explain {
                let d = &e.delta;
                println!(
                    "explain: compile {} us, admission {} us, splice+remap {} us, \
                     replan_delta {} us, commit {} us; {} solve: {}/{} LP switches ran, \
                     {} reused, steps {} visited {} executed {} replayed {} cascaded, \
                     {} switches a probe built or viewed, {} evaluations made, {} relocated",
                    e.compile_us,
                    e.admission_us,
                    e.splice_us,
                    e.replan_delta_us,
                    e.commit_us,
                    if d.warm { "warm" } else { "cold" },
                    d.frontier,
                    d.lp_switches,
                    d.reused,
                    d.steps_visited,
                    d.steps_executed,
                    d.steps_replayed,
                    d.steps_cascaded,
                    d.switches_read,
                    d.pairs_evaluated,
                    d.relocated,
                );
            }
        }
        ControlReply::Seeds {
            seeds,
            next_index,
            total,
        } => {
            println!(
                "{:<24} {:<14} {:>6}  {:<12} alloc[vcpu,ram,tcam,pcie]",
                "SEED", "MACHINE", "SWITCH", "STATE"
            );
            for s in seeds {
                println!(
                    "{:<24} {:<14} {:>6}  {:<12} {:?}",
                    s.key, s.machine, s.switch, s.state, s.alloc
                );
            }
            // total == 0 marks an unpaginated reply; a paginated one
            // says how much of the listing this window covers.
            if *total == 0 {
                println!("{} seed(s)", seeds.len());
            } else if *next_index == 0 {
                println!("{} of {} seed(s)", seeds.len(), total);
            } else {
                println!(
                    "{} of {} seed(s), next page at --from {}",
                    seeds.len(),
                    total,
                    next_index
                );
            }
        }
        ControlReply::Seed { desc, vars } => {
            println!(
                "{}: machine={} switch={} state={}",
                desc.key, desc.machine, desc.switch, desc.state
            );
            for (name, value) in vars {
                println!("  {name} = {value}");
            }
        }
        ControlReply::Json { body } => println!("{body}"),
        ControlReply::Drained { switch, evacuated } => {
            println!("switch {switch} drained: {evacuated} seed(s) migrated off")
        }
        ControlReply::Replanned {
            actions,
            dropped_tasks,
        } => println!("replanned: {actions} actions, {dropped_tasks} dropped task(s)"),
        ControlReply::Checkpointed {
            seeds,
            persist_error,
        } => {
            println!("checkpointed {seeds} seed(s)");
            // Partial success: the in-memory checkpoint happened even
            // though the file write failed — warn, don't fail.
            if let Some(e) = persist_error {
                eprintln!("farmctl: warning: checkpoint not persisted: {e}");
            }
        }
        ControlReply::Restored { seeds, skipped } => {
            println!("restored {seeds} seed(s)");
            if *skipped != 0 {
                eprintln!(
                    "farmctl: warning: {skipped} checkpoint entr(ies) skipped (bad seed key or unregistered task)"
                );
            }
        }
        ControlReply::Audited { findings } if findings.is_empty() => println!("clean"),
        ControlReply::Audited { findings } => findings.iter().for_each(|f| println!("{f}")),
        ControlReply::Rejected { reason } => {
            eprintln!("farmctl: rejected: {reason}");
            return ExitCode::FAILURE;
        }
        ControlReply::CompileFailed { diagnostics } => {
            eprintln!("farmctl: compile failed:");
            for d in diagnostics {
                let scope = if d.machine.is_empty() {
                    "program".to_string()
                } else {
                    format!("machine {}", d.machine)
                };
                eprintln!("  {scope}: {}:{}:{}: {}", d.phase, d.line, d.col, d.message);
            }
            return ExitCode::FAILURE;
        }
        ControlReply::PodRegistered { base } => {
            println!("registered: global switch base {base}")
        }
        ControlReply::Pods { pods } => {
            println!(
                "{:<12} {:<22} {:>8} {:>8} {:>6} {:<5} {:>6} {:>8}",
                "POD", "ADDR", "SWITCHES", "BASE", "QUOTA", "LIVE", "BEATS", "AGE_MS"
            );
            for p in pods {
                println!(
                    "{:<12} {:<22} {:>8} {:>8} {:>6.2} {:<5} {:>6} {:>8}",
                    p.name, p.addr, p.switches, p.base, p.quota, p.live, p.beats, p.age_ms
                );
            }
            println!("{} pod(s)", pods.len());
        }
        ControlReply::Migrated {
            task,
            from_pod,
            to_pod,
            seeds,
        } => println!("migrated `{task}`: {seeds} seed(s) {from_pod} -> {to_pod}"),
        ControlReply::TaskExport { source, seeds } => {
            println!("exported {} seed snapshot(s)", seeds.len());
            for (key, _) in seeds {
                println!("  {key}");
            }
            println!("--- program ---\n{source}");
        }
    }
    exit_code(reply)
}

/// Failure for a refused op, a program that did not compile and an
/// audit that found something.
fn exit_code(reply: &ControlReply) -> ExitCode {
    match reply {
        ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. } => ExitCode::FAILURE,
        ControlReply::Audited { findings } if !findings.is_empty() => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

fn seed_json(s: &SeedDescriptor) -> Json {
    Json::obj([("key", Json::from(&s.key))])
        .with("task", &s.task)
        .with("machine", &s.machine)
        .with("switch", s.switch)
        .with("state", &s.state)
        .with("alloc", s.alloc.to_vec())
}

fn explain_json(e: &Explain) -> Json {
    let d = &e.delta;
    let delta = Json::obj([
        ("lp_switches", Json::from(d.lp_switches)),
        ("frontier", Json::from(d.frontier)),
        ("reused", Json::from(d.reused)),
        ("fallback_full", Json::from(d.fallback_full)),
        ("warm", Json::from(d.warm)),
        ("steps_replayed", Json::from(d.steps_replayed)),
        ("steps_executed", Json::from(d.steps_executed)),
        ("steps_visited", Json::from(d.steps_visited)),
        ("steps_cascaded", Json::from(d.steps_cascaded)),
        ("switches_rebuilt", Json::from(d.switches_rebuilt)),
        ("switches_read", Json::from(d.switches_read)),
        ("pairs_evaluated", Json::from(d.pairs_evaluated)),
        ("relocated", Json::from(d.relocated)),
    ]);
    Json::obj([
        ("compile_us", Json::from(e.compile_us)),
        ("admission_us", Json::from(e.admission_us)),
        ("splice_us", Json::from(e.splice_us)),
        ("replan_delta_us", Json::from(e.replan_delta_us)),
        ("commit_us", Json::from(e.commit_us)),
        ("delta", delta),
    ])
}

/// `{"status": <status>}`, the first member of most replies.
fn status(status: &str) -> Json {
    Json::obj([("status", Json::from(status))])
}

fn reply_json(reply: &ControlReply) -> String {
    let doc = match reply {
        // Already JSON from the server; pass through untouched.
        ControlReply::Json { body } => return body.clone(),
        ControlReply::Ok => status("ok"),
        ControlReply::Submitted {
            task,
            seeds,
            actions,
            explain,
        } => {
            let doc = status("submitted")
                .with("task", task)
                .with("seeds", *seeds)
                .with("actions", *actions);
            match explain {
                Some(e) => doc.with("explain", explain_json(e)),
                None => doc,
            }
        }
        ControlReply::Seeds {
            seeds,
            next_index,
            total,
        } => {
            let seeds: Vec<Json> = seeds.iter().map(seed_json).collect();
            let obj = Json::obj([("seeds", Json::Arr(seeds))]);
            if *total == 0 {
                obj
            } else {
                obj.with("next_index", *next_index).with("total", *total)
            }
        }
        ControlReply::Seed { desc, vars } => Json::obj([("seed", seed_json(desc))]).with(
            "vars",
            Json::obj(vars.iter().map(|(k, v)| (k.as_str(), v.into()))),
        ),
        ControlReply::Drained { switch, evacuated } => status("drained")
            .with("switch", *switch)
            .with("evacuated", *evacuated),
        ControlReply::Replanned {
            actions,
            dropped_tasks,
        } => status("replanned")
            .with("actions", *actions)
            .with("dropped_tasks", *dropped_tasks),
        ControlReply::Checkpointed {
            seeds,
            persist_error,
        } => {
            let obj = status("checkpointed").with("seeds", *seeds);
            match persist_error {
                Some(e) => obj.with("persist_error", e),
                None => obj,
            }
        }
        ControlReply::Restored { seeds, skipped } => {
            let obj = status("restored").with("seeds", *seeds);
            if *skipped == 0 {
                obj
            } else {
                obj.with("skipped", *skipped)
            }
        }
        ControlReply::Rejected { reason } => status("rejected").with("reason", reason),
        ControlReply::Audited { findings } => status("audited").with("findings", findings.clone()),
        ControlReply::CompileFailed { diagnostics } => {
            let diagnostics: Vec<Json> = diagnostics
                .iter()
                .map(|d| {
                    Json::obj([("machine", Json::from(&d.machine))])
                        .with("phase", &d.phase)
                        .with("line", d.line)
                        .with("col", d.col)
                        .with("message", &d.message)
                })
                .collect();
            status("compile-failed").with("diagnostics", diagnostics)
        }
        ControlReply::PodRegistered { base } => status("registered").with("base", *base),
        ControlReply::Pods { pods } => {
            let pods: Vec<Json> = pods
                .iter()
                .map(|p| {
                    Json::obj([("name", Json::from(&p.name))])
                        .with("addr", &p.addr)
                        .with("switches", p.switches)
                        .with("base", p.base)
                        .with("quota", p.quota)
                        .with("live", p.live)
                        .with("beats", p.beats)
                        .with("age_ms", p.age_ms)
                })
                .collect();
            Json::obj([("pods", Json::Arr(pods))])
        }
        ControlReply::Migrated {
            task,
            from_pod,
            to_pod,
            seeds,
        } => status("migrated")
            .with("task", task)
            .with("from_pod", from_pod)
            .with("to_pod", to_pod)
            .with("seeds", *seeds),
        ControlReply::TaskExport { source, seeds } => {
            let keys: Vec<&String> = seeds.iter().map(|(key, _)| key).collect();
            status("task-export")
                .with("source", source)
                .with("seeds", keys)
        }
    };
    doc.to_string()
}
