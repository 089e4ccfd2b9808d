//! The daemon skeleton farmd and fedd share: a [`Core`] and the farm-net
//! [`Reactor`] it listens through, both owned by one thread, serving
//! the versioned [`ControlOp`] surface.
//!
//! Threading model: a daemon is two threads. `main` joins the
//! `<name>-core` thread, which owns the core and the reactor outright
//! and loops *turn the reactor (at most 5 ms) → tick the core*. A turn
//! hands every [`Frame::Control`] it read straight to [`Core::serve`] —
//! no queue, no hand-off — so ops are served strictly in arrival order,
//! every op observes a consistent state, and the turn's timeout doubles
//! as the core's ticker. The clock is the core's [`Peers::now`], read
//! once per op, when it is served, and once after each turn for the
//! tick (`now`). The reactor also watches the core's outbound sessions
//! ([`Core::links`]), which the core moves along in `tick` without
//! waiting on a peer.
//!
//! Every op is audited by [`Dispatch::answer`]: `<prefix>.ops`,
//! `<prefix>.op.<kind>`, `<prefix>.rejected`, `<prefix>.op_latency_us`.
//! It is also traced: its trace id is seeded from the request's
//! correlation id, and its spans — `serve` around the whole op, and what
//! the core records ([`Core::serve`]) — and its counts go to a ring of
//! the last 256 ops, which [`ControlOp::Trace`] reads (`farmctl trace`,
//! `farmctl submit --explain`). An op that
//! arrives as a [`ControlOp::Traced`] part of another daemon's op is
//! served as itself and names that op as its parent.
//! A `Shutdown` op (or a signal, seen at the next turn, or
//! [`Daemon::stop`]) ends the loop; replies already queued
//! get up to `shutdown_drain` to reach their sockets while later frames
//! are refused, then [`Core::drained`] runs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use farm_net::{ControlOp, ControlReply, Envelope, Frame, Links, Peers, Reactor};
use farm_telemetry::{Counter, Histogram, Json, Recorded, Span, Telemetry};

use crate::config::{err, ConfigError, ServerConfig};

/// What a daemon supplies to the skeleton — only what actually differs
/// between farmd and fedd.
pub trait Core: Sized + 'static {
    type Config: Clone + Send + 'static;
    /// The outbound sessions and the clock: [`Links`] in a daemon.
    type Peers: Peers;
    /// Names the core thread (`<NAME>-core`), error frames and log lines.
    const NAME: &'static str;
    /// Prefix of the op-accounting instruments (`ctl`, `fed`).
    const PREFIX: &'static str;

    /// The `[server]` part of the daemon's configuration.
    fn server(config: &mut Self::Config) -> &mut ServerConfig;
    /// Builds the core, on the core thread, once the listen address is
    /// bound (and written into the `[server]` section): a daemon that
    /// cannot listen never boots.
    fn boot(config: Self::Config, links: Self::Peers) -> Self;
    /// The registry the op accounting and the transport report into.
    fn telemetry(&self) -> &Telemetry;
    /// The core's outbound sessions, which the reactor watches, and
    /// its clock.
    fn links(&self) -> &Self::Peers;
    /// Serves one op at `now`, appending what it records of the op's
    /// phases and counts to `recorded`, timed on the core's clock from
    /// `now`. Total: every failure becomes a structured reply, never a
    /// panic.
    fn serve(&mut self, op: &ControlOp, now: Instant, recorded: &mut Recorded) -> ControlReply;
    /// Learns the trace id of the op it is about to serve: what fedd
    /// names as the parent of the requests its fan-out sends.
    fn traced(&mut self, _id: u64) {}
    /// Runs after every turn of the reactor: after the ops that turn
    /// served, when an outbound session is ready, and at least every
    /// 5 ms while idle.
    fn tick(&mut self, now: Instant);
    /// Runs once, after the last reply was flushed on shutdown.
    fn drained(&mut self) {}
    /// Sees every accounted op after it was served.
    fn audit(&self, _kind: &'static str, _outcome: &'static str, _elapsed_us: u64) {}
}

/// Longest wait of one turn, ms: the core's tick cadence while idle.
pub const TURN_MS: i32 = 5;

/// Ops whose spans and counts a daemon keeps ([`ControlOp::Trace`]).
const TRACE_RING: usize = 256;

/// One served op in the trace ring.
struct OpTrace {
    id: u64,
    kind: &'static str,
    /// The sender's op this one is a part of ([`ControlOp::Traced`]), or 0.
    parent: u64,
    /// When it started, µs on the core's clock since the dispatch began.
    at_us: u64,
    recorded: Recorded,
}

/// The spans of the last [`TRACE_RING`] ops, oldest first, and how many
/// ops were traced.
#[derive(Default)]
struct TraceRing {
    ops: VecDeque<OpTrace>,
    traced: u64,
}

impl TraceRing {
    /// An op's trace id: the ops traced before it, one-based, in the high
    /// half, the request's correlation id in the low half — unique in
    /// the ring, whichever client numbered the request.
    fn next_id(&mut self, corr: u64) -> u64 {
        self.traced += 1;
        self.traced << 32 | corr & u64::from(u32::MAX)
    }

    fn push(&mut self, op: OpTrace) {
        if self.ops.len() == TRACE_RING {
            self.ops.pop_front();
        }
        self.ops.push_back(op);
    }

    /// The JSON body that answers [`ControlOp::Trace`]: op `id`, or every
    /// op held for `id` 0, oldest first, each with its spans and the
    /// object of its counts.
    fn body(&self, id: u64) -> String {
        let ops = (self.ops.iter())
            .filter(|op| id == 0 || op.id == id)
            .map(|op| {
                let counts = (op.recorded.counts.iter()).map(|&(name, n)| (name, Json::from(n)));
                let spans = op.recorded.spans.iter().map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_us", Json::from(s.start_us)),
                        ("end_us", Json::from(s.end_us)),
                    ])
                });
                Json::obj([
                    ("id", Json::from(op.id)),
                    ("kind", Json::from(op.kind)),
                    ("parent", Json::from(op.parent)),
                    ("at_us", Json::from(op.at_us)),
                    ("spans", Json::Arr(spans.collect())),
                    ("counts", Json::obj(counts)),
                ])
            });
        Json::obj([("ops", Json::Arr(ops.collect()))]).to_string()
    }
}

/// Serves and accounts a core's ops: what the core thread does with
/// each frame a turn reads, until `stop` is up.
pub struct Dispatch {
    telemetry: Telemetry,
    stop: Arc<AtomicBool>,
    ops: Arc<Counter>,
    rejected: Arc<Counter>,
    latency: Arc<Histogram>,
    ring: RefCell<TraceRing>,
    /// The core's clock when the dispatch began: where `at_us` counts from.
    epoch: Instant,
}

impl Dispatch {
    /// The accounting instruments of `core`, under its prefix.
    pub fn new<C: Core>(core: &C, stop: Arc<AtomicBool>) -> Dispatch {
        let telemetry = core.telemetry().clone();
        let prefix = C::PREFIX;
        Dispatch {
            stop,
            ops: telemetry.counter(&format!("{prefix}.ops")),
            rejected: telemetry.counter(&format!("{prefix}.rejected")),
            latency: telemetry.latency_histogram(&format!("{prefix}.op_latency_us")),
            telemetry,
            ring: RefCell::default(),
            epoch: core.links().now(),
        }
    }

    /// A control op is served on the core's clock and accounted, or
    /// refused once `stop` is up; a served `Shutdown` raises it. Any
    /// other frame is left to the default `Ack` (`None`).
    pub fn answer<C: Core>(&self, core: &mut C, env: &Envelope) -> Option<Frame> {
        let Frame::Control { op } = &env.frame else {
            return None;
        };
        if self.stop.load(Ordering::Relaxed) {
            return Some(Frame::Error {
                message: format!("{} is shutting down", C::NAME),
            });
        }
        let started = core.links().now();
        let (parent, op) = match op {
            ControlOp::Traced { parent, op } => (*parent, &**op),
            op => (0, op),
        };
        let kind = op.kind();
        self.ops.inc();
        self.telemetry
            .counter(&format!("{}.op.{kind}", C::PREFIX))
            .inc();
        if let ControlOp::Trace { id } = op {
            let body = self.ring.borrow().body(*id);
            return Some(Frame::ControlReply {
                reply: ControlReply::Json { body },
            });
        }
        let id = self.ring.borrow_mut().next_id(env.corr);
        core.traced(id);
        let mut recorded = Recorded::default();
        let reply = core.serve(op, started, &mut recorded);
        let ended = core.links().now();
        let elapsed_us = (ended - started).as_micros() as u64;
        recorded.spans.push(Span {
            name: "serve",
            start_us: 0,
            end_us: elapsed_us,
        });
        self.ring.borrow_mut().push(OpTrace {
            id,
            kind,
            parent,
            at_us: (started - self.epoch).as_micros() as u64,
            recorded,
        });
        self.latency.record(elapsed_us);
        let outcome = match &reply {
            ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. } => {
                self.rejected.inc();
                "rejected"
            }
            _ => "ok",
        };
        core.audit(kind, outcome, elapsed_us);
        if matches!(op, ControlOp::Shutdown) {
            self.stop.store(true, Ordering::Relaxed);
        }
        Some(Frame::ControlReply { reply })
    }
}

/// The core thread's loop: turn the reactor, serving the ops it read in
/// order with their accounting, tick between turns; on shutdown keep
/// turning until every queued reply reached its socket (at most
/// `drain`), then let the core finish. The endpoint stays bound until
/// `drained` returned, so a successor on the same address cannot boot
/// from a checkpoint that is still being written.
fn run<C: Core>(core: &mut C, reactor: &mut Reactor, stop: &Arc<AtomicBool>, drain: Duration) {
    let dispatch = Dispatch::new(core, Arc::clone(stop));
    // The clock after the turn, for the tick; `None` when the poller
    // failed.
    let turn = |core: &mut C, reactor: &mut Reactor| {
        let turned = reactor.turn(TURN_MS, &mut |env| dispatch.answer(core, env));
        turned.ok().map(|()| core.links().now())
    };
    while !stop.load(Ordering::Relaxed) && !SIGNALED.load(Ordering::Relaxed) {
        let Some(now) = turn(core, reactor) else {
            break;
        };
        core.tick(now);
    }
    // A signal or a failed poller ends the daemon like a shutdown op.
    stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + drain;
    while !reactor.flushed() && Instant::now() < deadline && turn(core, reactor).is_some() {}
    core.drained();
}

/// A running daemon: the core thread, which owns the listening control
/// endpoint. `Farmd` and `Fedd` are this type over their cores.
pub struct Daemon<C> {
    local_addr: SocketAddr,
    /// The core thread; `None` once joined.
    core: Option<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    telemetry: Telemetry,
    _core: PhantomData<fn() -> C>,
}

impl<C: Core<Peers = Links>> Daemon<C> {
    /// Binds the control endpoint and boots the core, both on the core
    /// thread, and returns once it is serving.
    ///
    /// # Errors
    ///
    /// Bind failures — reported before the core is booted, so nothing
    /// the core writes (event log, checkpoint) is touched — or the core
    /// thread dying during construction.
    pub fn start(mut config: C::Config) -> io::Result<Daemon<C>> {
        let name = C::NAME;
        let ServerConfig {
            listen,
            shutdown_drain,
            ..
        } = C::server(&mut config).clone();
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel::<io::Result<(Telemetry, SocketAddr)>>();
        let core = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name(format!("{name}-core"))
                .spawn(move || {
                    let booted = TcpListener::bind(listen).and_then(|listener| {
                        C::server(&mut config).listen = listener.local_addr()?;
                        let core = C::boot(config, Links::default());
                        let mut reactor = Reactor::from_listener(listener, core.telemetry())?;
                        reactor.watch(core.links())?;
                        Ok((core, reactor))
                    });
                    match booted {
                        Ok((mut core, mut reactor)) => {
                            let ready = (core.telemetry().clone(), reactor.local_addr());
                            if ready_tx.send(Ok(ready)).is_ok() {
                                run(&mut core, &mut reactor, &stop, shutdown_drain);
                            }
                        }
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                        }
                    }
                })?
        };
        let (telemetry, local_addr) = ready_rx
            .recv()
            .map_err(|_| io::Error::other(format!("{name} core died during startup")))??;
        Ok(Daemon {
            local_addr,
            core: Some(core),
            stop,
            telemetry,
            _core: PhantomData,
        })
    }
}

impl<C> Daemon<C> {
    /// The bound control address (the chosen port when listening on :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The core's telemetry handle (shared with the transport).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// True once a shutdown op was served (or [`Daemon::stop`] ran).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Blocks until the core thread ends: a `Shutdown` op arrived (or,
    /// in a daemon binary, a signal), and the core drained.
    pub fn wait(mut self) {
        self.join();
    }

    /// Initiates shutdown locally (equivalent to serving a `Shutdown`
    /// op) and tears down.
    pub fn stop(self) {
        drop(self);
    }

    fn join(&mut self) {
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
    }
}

/// Raises the stop flag and joins: the core thread drains its output
/// rings, runs `drained` and closes the endpoint on its way out.
impl<C> Drop for Daemon<C> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.join();
    }
}

/// Exit code of a graceful, signal-initiated shutdown.
const EXIT_SIGNALED: u8 = 3;

/// Set from the signal handler; the core thread reads it every turn. An
/// atomic store is async-signal-safe, which is all a handler may do.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Routes `SIGTERM`/`SIGINT` to the [`SIGNALED`] flag.
#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        SIGNALED.store(true, Ordering::Relaxed);
    }

    // The libc symbol directly — this crate links no libc wrapper, the
    // same raw-syscall idiom farm-net's poller uses for epoll.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` is the C library's; both signal numbers are valid
    // and `handler` is a live `extern "C" fn(i32)` that only stores to an
    // atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// A daemon binary's whole `main`. Lifecycle contract for supervisors:
/// `[server] pid_file` is written once listening and removed on any
/// graceful exit; `SIGTERM`/`SIGINT` shut down gracefully with exit
/// code 3, apart from an operator's `shutdown` (0) and startup
/// failures (1).
pub fn main<C: Core<Peers = Links>>(
    usage: &str,
    serving: &str,
    parse: fn(&str) -> Result<C::Config, ConfigError>,
) -> ExitCode {
    let name = C::NAME;
    let mut config_path: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut print_addr = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config_path = args.next(),
            "--listen" => listen = args.next(),
            "--print-addr" => print_addr = true,
            "-h" | "--help" => {
                print!("{usage}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("{name}: unknown argument `{other}`\n\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let loaded = match &config_path {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {path}: {e}")))
            .and_then(|body| parse(&body))
            .map_err(|e| format!("{path}: {e}")),
        None => parse("").map_err(|e| e.to_string()),
    };
    let mut config = match loaded {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = listen {
        match addr.parse() {
            Ok(a) => C::server(&mut config).listen = a,
            Err(_) => {
                eprintln!("{name}: bad --listen address `{addr}`");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(unix)]
    install_signal_handlers();
    let pid_file = C::server(&mut config).pid_file.clone();
    let daemon = match Daemon::<C>::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{name}: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &pid_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", std::process::id())) {
            eprintln!("{name}: cannot write pid file {}: {e}", path.display());
        }
    }
    if print_addr {
        println!("{}", daemon.local_addr());
    }
    eprintln!("{name}: {serving} on {}", daemon.local_addr());
    // The core thread ends on a served `Shutdown` op or a supervisor
    // signal; either way it flushes queued replies on its way out.
    daemon.wait();
    let signaled = SIGNALED.load(Ordering::Relaxed);
    if signaled {
        eprintln!("{name}: signal received, shut down gracefully");
    }
    if let Some(path) = &pid_file {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("{name}: shut down");
    if signaled {
        ExitCode::from(EXIT_SIGNALED)
    } else {
        ExitCode::SUCCESS
    }
}
